//! Placement-routed differential validation: replaying an episode over a
//! coalition whose custody is pinned by the rendezvous ring — with
//! membership churn rebalancing keys mid-episode and proof compaction
//! bounding per-daemon proof memory — must still produce a verdict log
//! **byte-identical** to the in-process driver's, for every seed.
//!
//! Satellite (d) of the million-object issue: compaction never changes
//! verdicts (on/off byte-identical), and churn drains are verdict-neutral.

use stacl_obs::Counter;
use stacl_sim::{episode_for_seed, run_episode_net, PlacementOpts, Scenario};

/// A compaction trigger low enough that tier-1 scenarios actually hit it
/// (scenarios issue tens of proofs per object class).
const COMPACT_EAGERLY: usize = 4;

fn assert_placement_identical(seed: u64, daemons: usize, opts: PlacementOpts) {
    let local = episode_for_seed(seed, None);
    let sc = Scenario::generate(seed);
    let net = run_episode_net(&sc, None, daemons, None, Some(opts))
        .unwrap_or_else(|e| panic!("seed {seed} ({opts:?}): placement transport failed: {e}"));
    assert!(
        net.divergence.is_none(),
        "seed {seed} ({opts:?}): placement transport diverged from the oracle: {:?}",
        net.divergence
    );
    assert_eq!(
        net.log, local.log,
        "seed {seed} ({opts:?}): placement wire log differs from the in-process log"
    );
    assert_eq!(
        net.histogram, local.histogram,
        "seed {seed} ({opts:?}): histograms differ"
    );
    assert_eq!(
        net.decisions, local.decisions,
        "seed {seed} ({opts:?}): decision counts differ"
    );
}

/// Ring-routed custody, no churn, no compaction: the placement layer in
/// isolation leaves every byte of the log unchanged.
#[test]
fn placement_four_daemons_match_in_process_seeds_0_8() {
    for seed in 0..8 {
        assert_placement_identical(
            seed,
            4,
            PlacementOpts {
                churn: false,
                compact_after: 0,
            },
        );
    }
}

/// The full satellite sweep at tier-1 scale: churn (last member leaves at
/// ⅓, rejoins at ⅔, custody draining through the rebalance pull each
/// time) plus eager proof compaction, still byte-identical. Also checks
/// that the sweep actually exercised both mechanisms: the rebalance and
/// compaction counters must have moved.
#[test]
fn placement_churn_and_compaction_match_in_process_seeds_0_16() {
    let rebalanced = stacl_obs::snapshot().counter(Counter::PlacementRebalance);
    let compacted = stacl_obs::snapshot().counter(Counter::ProofCompaction);
    for seed in 0..16 {
        assert_placement_identical(
            seed,
            4,
            PlacementOpts {
                churn: true,
                compact_after: COMPACT_EAGERLY,
            },
        );
    }
    let snap = stacl_obs::snapshot();
    assert!(
        snap.counter(Counter::PlacementRebalance) > rebalanced,
        "churn sweep never drained a key through the rebalance"
    );
    assert!(
        snap.counter(Counter::ProofCompaction) > compacted,
        "compaction sweep never sealed a proof prefix"
    );
}

/// Compaction on vs. off, same seed, same churn: the two replays must be
/// byte-identical to *each other* (and to the in-process log, which both
/// are compared against) — compaction is verdict-neutral by construction.
#[test]
fn compaction_never_changes_verdicts_seeds_0_8() {
    for seed in 0..8 {
        let sc = Scenario::generate(seed);
        let off = run_episode_net(
            &sc,
            None,
            4,
            None,
            Some(PlacementOpts {
                churn: true,
                compact_after: 0,
            }),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: compaction-off replay failed: {e}"));
        let on = run_episode_net(
            &sc,
            None,
            4,
            None,
            Some(PlacementOpts {
                churn: true,
                compact_after: COMPACT_EAGERLY,
            }),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: compaction-on replay failed: {e}"));
        assert_eq!(
            on.log, off.log,
            "seed {seed}: compaction changed the verdict log"
        );
        assert_eq!(
            on.histogram, off.histogram,
            "seed {seed}: histograms differ"
        );
        assert!(on.divergence.is_none() && off.divergence.is_none());
    }
}

/// Full acceptance range (seeds 0..64, 4 daemons, churn + compaction).
/// Ignored by default so tier-1 stays fast; CI's `net` job runs it with
/// `--ignored`.
#[test]
#[ignore = "full churn/compaction acceptance sweep; run with --ignored"]
fn placement_churn_and_compaction_match_in_process_seeds_0_64() {
    for seed in 0..64 {
        assert_placement_identical(
            seed,
            4,
            PlacementOpts {
                churn: true,
                compact_after: COMPACT_EAGERLY,
            },
        );
    }
}
