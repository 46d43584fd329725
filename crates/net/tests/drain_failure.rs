//! A rebalance drain toward a home that dies. The draining member counts
//! exactly one of `net.handoff-applied` / `net.handoff-failed` per moved
//! key, so a waiter that counts handoffs always finishes, and no key ends
//! up resident on two members.
//!
//! * **Dead before the drain.** Nothing is exported toward a home that
//!   cannot be reached: every moved key counts one failure and stays
//!   resident on the leaver.
//! * **Dead mid-drain.** Keys pushed before the home died are resident
//!   there; the rest count failures. Only the push in flight when the
//!   home died was exported without being counted applied, so at most
//!   that one key is resident nowhere.
//!
//! The obs counters are process-global, so this file holds a single
//! `#[test]`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use stacl_coalition::{Placement, ProofStore};
use stacl_naplet::guard::{CoordinatedGuard, Custody};
use stacl_net::{DaemonConfig, DaemonHandle};
use stacl_obs::{Counter, MetricsSnapshot};
use stacl_rbac::{ExtendedRbac, RbacModel};

fn spawn_daemon(name: &str) -> DaemonHandle {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(RbacModel::new()));
    guard.set_custody_enforcement(true);
    let mut cfg = DaemonConfig::new(name);
    cfg.io_timeout = Duration::from_secs(1);
    cfg.handoff_backoff = Duration::from_millis(5);
    stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback")
}

/// Claim `n` custody-only keys on `d0` alone, then return the keys a
/// ring of `d0` and `d1` homes on `d1`, with that ring's member list.
fn claim_on_first(
    d0: &DaemonHandle,
    d1: &DaemonHandle,
    n: usize,
) -> (Vec<String>, Vec<(String, SocketAddr)>) {
    let members = vec![
        (d0.name().to_string(), d0.addr()),
        (d1.name().to_string(), d1.addr()),
    ];
    d0.set_members(&members[..1]);
    let keys: Vec<String> = (0..n).map(|i| format!("{}-k{i}", d0.name())).collect();
    for k in &keys {
        d0.guard().take_custody(k).expect("solo-ring claim");
    }
    let ring = Placement::new(members.iter().map(|(m, _)| m.clone()));
    let moved = keys
        .into_iter()
        .filter(|k| ring.home_of(k) == Some(d1.name()))
        .collect();
    (moved, members)
}

/// `(applied, failed)` handoffs since `base`.
fn handoffs(base: &MetricsSnapshot) -> (u64, u64) {
    let d = stacl_obs::snapshot().diff(base);
    (
        d.counter(Counter::NetHandoffApplied),
        d.counter(Counter::NetHandoffFailed),
    )
}

/// Wait until `n` handoffs since `base` are counted, then a little
/// longer, so a count past `n` would show.
fn await_handoffs(base: &MetricsSnapshot, n: u64) -> (u64, u64) {
    let started = Instant::now();
    loop {
        let (applied, failed) = handoffs(base);
        if applied + failed >= n {
            std::thread::sleep(Duration::from_millis(200));
            return handoffs(base);
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "drain stalled at {}/{n} handoffs",
            applied + failed
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn drain_to_a_dying_home_counts_every_key_once() {
    stacl_obs::set_telemetry(true);

    // Dead before the drain: nothing exported, every key failed once.
    let (d0, mut d1) = (spawn_daemon("dead-d0"), spawn_daemon("dead-d1"));
    let (moved, members) = claim_on_first(&d0, &d1, 64);
    assert!(!moved.is_empty(), "the ring homes some keys on d1");
    d1.shutdown();
    let base = stacl_obs::snapshot();
    assert_eq!(d0.set_members(&members), moved.len());
    let n = moved.len() as u64;
    assert_eq!(await_handoffs(&base, n), (0, n), "one failure per key");
    for k in &moved {
        assert_eq!(d0.guard().custody_of(k), Custody::Resident, "{k} stays");
    }
    drop(d0);

    // Dead mid-drain: the home dies once its first import is counted.
    let (d0, mut d1) = (spawn_daemon("mid-d0"), spawn_daemon("mid-d1"));
    let (moved, members) = claim_on_first(&d0, &d1, 20_000);
    let base = stacl_obs::snapshot();
    assert_eq!(d0.set_members(&members), moved.len());
    let started = Instant::now();
    while handoffs(&base).0 == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "no push landed"
        );
        std::thread::yield_now();
    }
    d1.shutdown();
    let n = moved.len() as u64;
    let (applied, failed) = await_handoffs(&base, n);
    eprintln!("mid-drain death: {applied} applied, {failed} failed of {n}");
    assert_eq!(applied + failed, n, "one count per key");
    assert!(failed > 0, "the home died before the drain finished");
    let (mut exported, mut resident_on_home) = (0, 0);
    for k in &moved {
        let (here, there) = (d0.guard().custody_of(k), d1.guard().custody_of(k));
        assert!(
            here != Custody::Resident || there != Custody::Resident,
            "{k} is resident on both members"
        );
        exported += u64::from(here != Custody::Resident);
        resident_on_home += u64::from(there == Custody::Resident);
    }
    // One push is in flight when the home dies: it may have been
    // exported and even imported without its `Ok` coming back. Every
    // other key either counted applied or was never exported.
    for (what, n) in [
        ("exported", exported),
        ("resident on the home", resident_on_home),
    ] {
        assert!(
            n == applied || n == applied + 1,
            "{n} keys {what}, {applied} counted applied"
        );
    }
}
