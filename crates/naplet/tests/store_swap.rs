//! Proof-store identity: an object gate caches the handle of the object's
//! proof shard, but a decision against a *different* store must read that
//! store's history — never the cached shard of the store the gate was
//! warmed on.
//!
//! The telemetry registry is process-global, so this file holds a single
//! `#[test]` and every assertion works on snapshot diffs.

use stacl_coalition::{ProofStore, Verdict};
use stacl_naplet::guard::{CoordinatedGuard, EnforcementMode, GuardRequest};
use stacl_obs::{snapshot, Counter, MetricsSnapshot};
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;
use stacl_sral::{Access, Program};
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

/// A reactive guard whose one object may access `rsw` three times in all.
fn guard() -> CoordinatedGuard {
    let policy = r#"
        user n0
        role worker
        permission p grants=exec:rsw:* spatial="count(0, 3, resource=rsw)"
        grant worker p
        assign n0 worker
    "#;
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(policy).unwrap()))
        .with_mode(EnforcementMode::Reactive);
    guard.enroll("n0", ["worker"]);
    guard
}

/// Decide `exec rsw @ server` for `n0` against `proofs`, issuing the
/// proof on a grant; returns the verdict and the telemetry diff.
fn decide(
    guard: &CoordinatedGuard,
    server: &str,
    proofs: &ProofStore,
    table: &mut AccessTable,
) -> (Verdict, MetricsSnapshot) {
    let a = Access::new("exec", "rsw", server);
    let remaining = Program::Access(a.clone());
    let req = GuardRequest {
        object: "n0",
        access: &a,
        remaining: &remaining,
        time: TimePoint::new(0.0),
    };
    let s0 = snapshot();
    let v = guard.decide(&req, proofs, table);
    let d = snapshot().diff(&s0);
    if v.is_granted() {
        proofs.issue("n0", a, TimePoint::new(0.0));
    }
    (v, d)
}

/// How many decisions took the from-scratch path (a cold start or any
/// counted decline), and how many the cursor answered.
fn paths(d: &MetricsSnapshot) -> (u64, u64) {
    let slow = [
        Counter::CursorColdStart,
        Counter::CursorDeclineTableVersion,
        Counter::CursorDeclineWatermark,
        Counter::CursorDeclineUnknownSymbol,
        Counter::CursorDeclineGeneration,
        Counter::CursorDeclineTeamScope,
    ]
    .iter()
    .map(|&c| d.counter(c))
    .sum();
    (slow, d.counter(Counter::CursorFastPathHit))
}

#[test]
fn swapped_store_is_read_not_the_cached_shard() {
    assert!(stacl_obs::enabled(), "telemetry must default to on");
    let mut table = AccessTable::new();

    // Warm the gate on store A: three grants leave A with three proofs
    // and the cursor with two consumed; the fast path cached A's shard.
    let warm = guard();
    let a = ProofStore::new();
    for _ in 0..3 {
        assert!(decide(&warm, "s1", &a, &mut table).0.is_granted());
    }
    assert_eq!(a.len_of("n0"), 3);

    // Store B holds a different, shorter, non-empty history: one proof.
    // Against B the object has room for two more accesses; against A's
    // three proofs it would have none.
    let b = ProofStore::new();
    b.issue("n0", Access::new("exec", "rsw", "s2"), TimePoint::new(0.0));
    let fresh = guard();
    let b_fresh = ProofStore::new();
    b_fresh.issue("n0", Access::new("exec", "rsw", "s2"), TimePoint::new(0.0));

    // First decision against B: the warm cursor has consumed more than
    // B's watermark, so it declines on the watermark and the slow path
    // answers from B's history — the verdict a fresh guard gives.
    let (v_warm, d_warm) = decide(&warm, "s1", &b, &mut table);
    let (v_fresh, d_fresh) = decide(&fresh, "s1", &b_fresh, &mut table);
    assert!(v_fresh.is_granted(), "{v_fresh:?}");
    assert_eq!(v_warm, v_fresh);
    assert_eq!(
        d_warm.counter(Counter::CursorDeclineWatermark),
        1,
        "{d_warm:?}"
    );
    assert_eq!(d_fresh.counter(Counter::CursorColdStart), 1, "{d_fresh:?}");
    assert_eq!(paths(&d_warm), paths(&d_fresh));

    // From then on both guards read B's shard: same verdicts (one more
    // grant, then the cap binds) and the same paths.
    for _ in 0..2 {
        let (v_warm, d_warm) = decide(&warm, "s1", &b, &mut table);
        let (v_fresh, d_fresh) = decide(&fresh, "s1", &b_fresh, &mut table);
        assert_eq!(v_warm, v_fresh);
        assert_eq!(paths(&d_warm), paths(&d_fresh));
        assert_eq!(paths(&d_warm), (0, 1), "{d_warm:?}");
    }
    assert_eq!(b.len_of("n0"), 3);
    assert_eq!(a.len_of("n0"), 3, "nothing was issued to A");
}
