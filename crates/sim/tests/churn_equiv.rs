//! Epoch-churn differential validation: episodes with mid-episode policy
//! rollouts must (a) never diverge from the epoch-aware oracle, (b) stay
//! byte-identical across the sequential, batched and wire transports,
//! and (c) produce byte-identical, verifiable audit ledgers on every
//! transport.

use stacl_coalition::Ledger;
use stacl_sim::{run_episode_net, run_episode_opts, Scenario};

const FLIPS: usize = 4;

#[test]
fn churn_episodes_agree_with_the_oracle() {
    for seed in 0..32u64 {
        let sc = Scenario::generate_churn(seed, FLIPS);
        let ep = run_episode_opts(&sc, None, false, None);
        assert!(
            ep.divergence.is_none(),
            "seed {seed} diverged under churn: {:?}\n{}",
            ep.divergence,
            ep.log
        );
        assert!(
            ep.log.contains("policy-flip epoch=4"),
            "seed {seed}: all {FLIPS} flips must land"
        );
    }
}

#[test]
fn batched_churn_is_byte_identical_to_sequential() {
    for seed in 0..16u64 {
        let sc = Scenario::generate_churn(seed, FLIPS);
        let seq = run_episode_opts(&sc, None, false, None);
        let bat = run_episode_opts(&sc, None, true, None);
        assert_eq!(seq.log, bat.log, "seed {seed}");
        assert_eq!(seq.histogram, bat.histogram, "seed {seed}");
    }
}

#[test]
fn churn_ledgers_verify_and_match_across_drivers() {
    for seed in 0..8u64 {
        let sc = Scenario::generate_churn(seed, FLIPS);
        let mut seq_ledger = Ledger::new();
        let seq = run_episode_opts(&sc, None, false, Some(&mut seq_ledger));
        assert!(seq.divergence.is_none(), "seed {seed}");
        let mut bat_ledger = Ledger::new();
        run_episode_opts(&sc, None, true, Some(&mut bat_ledger));

        // Boot policy + one entry per flip, plus sampled verdicts.
        assert!(
            seq_ledger.len() > FLIPS,
            "seed {seed}: ledger records the boot policy and every flip"
        );
        seq_ledger
            .verify()
            .unwrap_or_else(|e| panic!("seed {seed}: ledger verify failed: {e}"));
        assert_eq!(
            seq_ledger.render(),
            bat_ledger.render(),
            "seed {seed}: batched driver must journal identically"
        );

        // Round-trip through the textual chain format.
        let reparsed = Ledger::parse(&seq_ledger.render())
            .unwrap_or_else(|e| panic!("seed {seed}: ledger reparse failed: {e}"));
        reparsed.verify().expect("reparsed chain verifies");
    }
}

#[test]
fn net_churn_matches_in_process_seeds_0_8() {
    for seed in 0..8u64 {
        assert_churn_identical(seed, 2);
    }
}

/// Full acceptance range (seeds 0..64, 4 daemons, ≥4 flips/episode).
/// Ignored by default so tier-1 stays fast; CI's `net` job covers the
/// sweep via `stacl sim run --churn`.
#[test]
#[ignore = "full churn acceptance sweep; run with --ignored"]
fn net_churn_matches_in_process_seeds_0_64() {
    for seed in 0..64u64 {
        assert_churn_identical(seed, 4);
    }
}

fn assert_churn_identical(seed: u64, daemons: usize) {
    let sc = Scenario::generate_churn(seed, FLIPS);
    let mut local_ledger = Ledger::new();
    let local = run_episode_opts(&sc, None, false, Some(&mut local_ledger));
    let mut net_ledger = Ledger::new();
    let net = run_episode_net(&sc, None, daemons, Some(&mut net_ledger), None)
        .unwrap_or_else(|e| panic!("seed {seed}: net transport failed: {e}"));
    assert!(
        net.divergence.is_none(),
        "seed {seed}: net churn diverged from the oracle: {:?}",
        net.divergence
    );
    assert_eq!(
        net.log, local.log,
        "seed {seed}: wire churn log differs from the in-process log"
    );
    assert_eq!(
        net_ledger.render(),
        local_ledger.render(),
        "seed {seed}: audit ledgers differ across transports"
    );
    net_ledger.verify().expect("wire ledger verifies");
}
