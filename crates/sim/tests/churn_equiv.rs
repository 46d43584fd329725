//! Epoch-churn differential validation: episodes with mid-episode policy
//! rollouts must (a) never diverge from the epoch-aware oracle, (b) stay
//! byte-identical across the sequential, batched and wire transports,
//! and (c) produce byte-identical, verifiable audit ledgers on every
//! transport.

mod common;

use stacl_coalition::Ledger;
use stacl_sim::{run_episode, Scenario, Transport};

const FLIPS: usize = 4;

const BATCHED: Transport = Transport::InProcess { batched: true };

#[test]
fn churn_episodes_agree_with_the_oracle() {
    for seed in 0..32u64 {
        let sc = Scenario::generate_churn(seed, FLIPS);
        let ep = run_episode(&sc, None);
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
        common::assert_matches_in_process(&Scenario::generate_churn(seed, FLIPS), BATCHED);
    }
}

#[test]
fn churn_ledgers_verify_and_match_across_drivers() {
    for seed in 0..8u64 {
        let sc = Scenario::generate_churn(seed, FLIPS);
        let ledger = common::assert_matches_in_process(&sc, BATCHED);
        // Boot policy + one entry per flip, plus sampled verdicts.
        assert!(
            ledger.len() > FLIPS,
            "seed {seed}: ledger records the boot policy and every flip"
        );
        // Round-trip through the textual chain format.
        let reparsed = Ledger::parse(&ledger.render())
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
    let net = Transport::Net {
        daemons,
        ring: false,
        compact_after: 0,
    };
    common::assert_matches_in_process(&Scenario::generate_churn(seed, FLIPS), net);
}
