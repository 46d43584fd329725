//! A rebalance drain superseded by a newer membership. Two members take
//! a ring of both, so the first pushes half its keys to the second; as
//! soon as a few pushes land, both fall back to a ring of the first
//! alone. The first member's drain must stop exporting at once — a key
//! it kept pushing after the second member had scanned its residents
//! would stay resident off its ring home, where every decide routed to
//! the home denies.
//!
//! Only the push in flight when the membership changed can still land
//! after that scan, so at most one key ends up off its home. Every key a
//! `set_members` call returned counts exactly one of
//! `net.handoff-applied` / `net.handoff-failed`.
//!
//! The obs counters are process-global, so this file holds a single
//! `#[test]`.

use std::time::{Duration, Instant};

use stacl_coalition::ProofStore;
use stacl_naplet::guard::{CoordinatedGuard, Custody};
use stacl_net::{DaemonConfig, DaemonHandle};
use stacl_obs::{Counter, MetricsSnapshot};
use stacl_rbac::{ExtendedRbac, RbacModel};

const KEYS: usize = 2_000;

fn spawn_daemon(name: &str) -> DaemonHandle {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(RbacModel::new()));
    guard.set_custody_enforcement(true);
    let mut cfg = DaemonConfig::new(name);
    cfg.io_timeout = Duration::from_secs(1);
    cfg.handoff_backoff = Duration::from_millis(5);
    stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback")
}

/// `(applied, failed)` handoffs since `base`.
fn handoffs(base: &MetricsSnapshot) -> (u64, u64) {
    let d = stacl_obs::snapshot().diff(base);
    (
        d.counter(Counter::NetHandoffApplied),
        d.counter(Counter::NetHandoffFailed),
    )
}

#[test]
fn superseded_drain_stops_exporting() {
    stacl_obs::set_telemetry(true);
    let (p0, p1) = (spawn_daemon("sup-p0"), spawn_daemon("sup-p1"));
    let both = vec![
        (p0.name().to_string(), p0.addr()),
        (p1.name().to_string(), p1.addr()),
    ];
    let first = &both[..1];
    p0.set_members(first);
    let keys: Vec<String> = (0..KEYS).map(|i| format!("sup-k{i}")).collect();
    for k in &keys {
        p0.guard().take_custody(k).expect("solo-ring claim");
    }

    let base = stacl_obs::snapshot();
    let mut returned = p0.set_members(&both) + p1.set_members(&both);
    assert!(returned > 10, "the ring of both re-homes keys on p1");
    let started = Instant::now();
    while handoffs(&base).0 < 10 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "no pushes landed"
        );
        std::thread::yield_now();
    }
    // The pusher first, so its drain stops before the other member scans.
    returned += p0.set_members(first) + p1.set_members(first);

    let n = returned as u64;
    let started = Instant::now();
    while {
        let (applied, failed) = handoffs(&base);
        applied + failed < n
    } {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "drains stalled at {:?} of {n} handoffs",
            handoffs(&base)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(200));
    let (applied, failed) = handoffs(&base);
    eprintln!("superseded drain: {applied} applied, {failed} failed of {n}");
    assert_eq!(applied + failed, n, "one count per returned key");
    assert!(failed > 0, "the newer membership cut the first drain short");

    let mut off_home = Vec::new();
    for k in &keys {
        let (home, other) = (p0.guard().custody_of(k), p1.guard().custody_of(k));
        assert!(
            home != Custody::Resident || other != Custody::Resident,
            "{k} is resident on both members"
        );
        if home != Custody::Resident {
            off_home.push(k);
        }
    }
    assert!(
        off_home.len() <= 1,
        "{} keys sit off their ring home: {:?}",
        off_home.len(),
        &off_home[..off_home.len().min(5)]
    );
}
