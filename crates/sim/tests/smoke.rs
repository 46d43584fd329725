//! Tier-1 smoke suite: fixed seeds, deterministic, fast (<5 s).

mod common;

use stacl_sim::{
    episode_for_seed, repro_scenario, shrink, Event, OracleBug, Scenario, SweepReport, Transport,
};

/// The fixed seed window the smoke suite sweeps.
const SMOKE_SEEDS: std::ops::Range<u64> = 0..64;

#[test]
fn guard_and_oracle_agree_on_smoke_seeds() {
    let mut report = SweepReport::new();
    for seed in SMOKE_SEEDS {
        let ep = episode_for_seed(seed, None);
        assert!(
            ep.divergence.is_none(),
            "seed {seed} diverged:\n{}\nrepro:\n{}",
            ep.log,
            repro_scenario(&Scenario::generate(seed), None)
        );
        report.absorb(seed, &ep);
    }
    assert_eq!(report.episodes, 64);
    assert!(report.decisions > 100, "{}", report.render());
}

#[test]
fn same_seed_produces_byte_identical_episode_logs() {
    for seed in [0u64, 7, 42, 1234, 0xfeed] {
        let a = episode_for_seed(seed, None);
        let b = episode_for_seed(seed, None);
        assert_eq!(a.log, b.log, "seed {seed}");
        assert_eq!(a.histogram, b.histogram, "seed {seed}");
    }
}

#[test]
fn batched_driver_is_byte_identical_to_sequential() {
    // The batched parallel transport must not change a single byte of
    // any episode log (including histograms and divergence behaviour):
    // same verdicts, same order, same proof timestamps. The window is
    // wider than SMOKE_SEEDS: the constraint-cache/table-version
    // interaction this locks down (one rbac-level cache serving
    // per-worker tables) first surfaced at seed 76, outside the 0..64
    // window.
    for seed in 0..256u64 {
        let sc = Scenario::generate(seed);
        common::assert_matches_in_process(&sc, Transport::InProcess { batched: true });
    }
}

#[test]
fn smoke_window_exercises_the_decision_space() {
    let mut report = SweepReport::new();
    for seed in SMOKE_SEEDS {
        report.absorb(seed, &episode_for_seed(seed, None));
    }
    // The generator must produce grants and at least two distinct denial
    // kinds within the fixed window, or the differential check is hollow.
    assert!(
        report.histogram.contains_key("granted"),
        "{}",
        report.render()
    );
    let denial_kinds = report
        .histogram
        .keys()
        .filter(|k| k.starts_with("denied"))
        .count();
    assert!(denial_kinds >= 2, "{}", report.render());
}

#[test]
fn smoke_window_exercises_fault_injection() {
    let (mut dropped, mut deaths, mut skews, mut reactive) = (false, false, false, false);
    for seed in SMOKE_SEEDS {
        let sc = Scenario::generate(seed);
        dropped |= sc
            .events
            .iter()
            .any(|e| matches!(e, Event::Arrival { dropped: true, .. }));
        deaths |= sc
            .events
            .iter()
            .any(|e| matches!(e, Event::ServerDeath { .. }));
        skews |= sc.skews.iter().any(|&k| k != 0.0);
        reactive |= sc.mode == stacl_naplet::guard::EnforcementMode::Reactive;
    }
    assert!(dropped, "no dropped arrivals generated in the smoke window");
    assert!(deaths, "no server deaths generated in the smoke window");
    assert!(skews, "no clock skew generated in the smoke window");
    assert!(reactive, "no reactive-mode scenarios in the smoke window");
}

/// Find the first seed whose episode diverges under an injected bug.
fn first_divergent_seed(bug: OracleBug) -> u64 {
    (0..512u64)
        .find(|&seed| episode_for_seed(seed, Some(bug)).divergence.is_some())
        .expect("an injected oracle defect must surface within 512 seeds")
}

#[test]
fn injected_oracle_bug_is_caught_shrunk_and_replayable() {
    for bug in [OracleBug::CardMaxOffByOne, OracleBug::IgnoreRefills] {
        let seed = first_divergent_seed(bug);
        let sc = Scenario::generate(seed);

        // Caught.
        let ep = episode_for_seed(seed, Some(bug));
        assert!(ep.divergence.is_some(), "{bug:?}");
        assert!(ep.log.contains("DIVERGENCE"), "{bug:?}");

        // Shrunk: still diverging, no larger than the original.
        let (small, small_ep) = shrink(&sc, Some(bug));
        assert!(small_ep.divergence.is_some(), "{bug:?}");
        assert!(small.events.len() <= sc.events.len(), "{bug:?}");

        // Shrinking is deterministic.
        let (small2, _) = shrink(&sc, Some(bug));
        assert_eq!(small.to_string(), small2.to_string(), "{bug:?}");

        // Replayable from nothing but the seed.
        let dump = repro_scenario(&Scenario::generate(seed), Some(bug));
        assert!(dump.contains("DIVERGENCE"), "{bug:?}");
        assert!(dump.contains("shrunk witness"), "{bug:?}");
    }
}
