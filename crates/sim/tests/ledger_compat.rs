//! Audit-ledger compatibility: a chain recorded by an earlier build
//! (`stacl sim run --seeds 2 --churn 2 --ledger FILE`, committed as
//! `fixtures/churn2.ledger`) must verify under this build, and this
//! build must re-record it byte for byte. A change to the chain's hash
//! (or to the policy fingerprints it records) would otherwise fork the
//! audit trail silently: a verify of a freshly recorded chain uses the
//! same hash on both sides and cannot see it.

use stacl_coalition::Ledger;
use stacl_sim::{run_episode_with, Scenario, Transport};

const RECORDED: &str = include_str!("fixtures/churn2.ledger");

#[test]
fn recorded_ledger_verifies() {
    let chain = Ledger::parse(RECORDED).expect("recorded ledger parses");
    assert_eq!(chain.len(), 9);
    chain.verify().expect("recorded ledger verifies");
}

#[test]
fn rerecorded_ledger_is_byte_identical() {
    let mut chain = Ledger::new();
    for seed in 0..2u64 {
        let sc = Scenario::generate_churn(seed, 2);
        let in_process = Transport::InProcess { batched: false };
        run_episode_with(&sc, None, &in_process, Some(&mut chain)).expect("in-process replay");
    }
    assert_eq!(chain.render(), RECORDED);
}
