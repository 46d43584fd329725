//! Shared helper for the stacl-sim test binaries: the transport
//! byte-identity check every equivalence suite makes.

use stacl_coalition::Ledger;
use stacl_sim::{run_episode_with, Scenario, Transport};

/// Replay `sc` in process (sequential) and over `transport`, each with
/// its own audit ledger, and assert the two are byte-identical: log,
/// histogram, decision count and ledger chain, with no oracle
/// divergence and a verifying chain. Returns the `transport` run's
/// ledger.
pub fn assert_matches_in_process(sc: &Scenario, transport: Transport) -> Ledger {
    let profile = sc.profile.map_or("generated", |p| p.name());
    let at = format!("{profile} seed {} over {transport:?}", sc.seed);
    let reference = Transport::InProcess { batched: false };
    let mut local_ledger = Ledger::new();
    let local = run_episode_with(sc, None, &reference, Some(&mut local_ledger))
        .unwrap_or_else(|e| panic!("{at}: in-process replay failed: {e}"));
    let mut ledger = Ledger::new();
    let ep = run_episode_with(sc, None, &transport, Some(&mut ledger))
        .unwrap_or_else(|e| panic!("{at}: replay failed: {e}"));
    assert!(
        ep.divergence.is_none(),
        "{at}: diverged from the oracle: {:?}\n{}",
        ep.divergence,
        ep.log
    );
    assert_eq!(
        ep.log, local.log,
        "{at}: log differs from the in-process log"
    );
    assert_eq!(ep.histogram, local.histogram, "{at}: histograms differ");
    assert_eq!(
        ep.decisions, local.decisions,
        "{at}: decision counts differ"
    );
    assert_eq!(
        ledger.render(),
        local_ledger.render(),
        "{at}: audit ledgers differ"
    );
    ledger
        .verify()
        .unwrap_or_else(|e| panic!("{at}: ledger verify failed: {e}"));
    ledger
}
