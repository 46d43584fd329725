//! Concurrency/determinism acceptance: the same multi-object scenario
//! driven through the sharded `&self` path from concurrent threads must
//! produce **byte-identical per-object decision logs** to the sequential
//! `&mut` [`SecurityGuard::check`] adapter — per-object state lives in
//! its own shard, so cross-object interleaving cannot leak into any
//! object's decisions.

use std::sync::{Arc, Barrier};

use stacl_coalition::ProofStore;
use stacl_ids::sync::Mutex;
use stacl_naplet::guard::{CoordinatedGuard, GuardRequest, SecurityGuard};
use stacl_naplet::prelude::*;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::{ExtendedRbac, SessionId};
use stacl_sral::Access;
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

const OBJECTS: usize = 4;
const REQUESTS: usize = 8;

/// Per-object spatial cap of 5 plus a 3-second whole-lifetime budget:
/// every object sees grants first, then temporal denials once the
/// budget is drained (the spatial count is evaluated on every check —
/// reactive mode never reuses approvals).
fn scenario_guard() -> CoordinatedGuard {
    let mut policy = String::new();
    for i in 0..OBJECTS {
        policy.push_str(&format!("user n{i}\n"));
    }
    policy.push_str(
        r#"
        role worker
        permission p grants=exec:rsw:* spatial="count(0, 5, resource=rsw)" \
                     validity=3 scheme=whole-lifetime
        grant worker p
        "#,
    );
    for i in 0..OBJECTS {
        policy.push_str(&format!("assign n{i} worker\n"));
    }
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy).unwrap()))
        .with_mode(EnforcementMode::Reactive);
    for i in 0..OBJECTS {
        guard.enroll(format!("n{i}"), ["worker"]);
    }
    guard
}

/// The request stream for one object: accesses alternating between two
/// servers at times 0, 1, 2, … (object `i` starts at `i * 0.125` so the
/// streams interleave non-trivially in the sequential schedule).
fn stream(object: usize) -> Vec<(Access, TimePoint)> {
    (0..REQUESTS)
        .map(|k| {
            (
                Access::new("exec", "rsw", if k % 2 == 0 { "s1" } else { "s2" }),
                TimePoint::new(object as f64 * 0.125 + k as f64),
            )
        })
        .collect()
}

/// One decision: run it through the supplied gate, issue the proof on a
/// grant (what the Naplet system does after the gate), and render the
/// log line.
fn drive(
    decide: &mut dyn FnMut(
        &GuardRequest<'_>,
        &ProofStore,
        &mut AccessTable,
    ) -> stacl_coalition::Verdict,
    object: &str,
    access: &Access,
    time: TimePoint,
    proofs: &ProofStore,
    table: &mut AccessTable,
) -> String {
    let remaining = stacl_sral::Program::Access(access.clone());
    let req = GuardRequest {
        object,
        access,
        remaining: &remaining,
        time,
    };
    let v = decide(&req, proofs, table);
    if v.is_granted() {
        proofs.issue(object, access.clone(), time);
    }
    format!("{object} {} t={} -> {v}", access.server, time.seconds())
}

/// Sequential reference run through the `&mut` adapter, round-robin over
/// the objects.
fn sequential_logs() -> Vec<Vec<String>> {
    let mut guard = scenario_guard();
    let proofs = ProofStore::new();
    let mut table = AccessTable::new();
    let streams: Vec<_> = (0..OBJECTS).map(stream).collect();
    let mut logs = vec![Vec::new(); OBJECTS];
    for k in 0..REQUESTS {
        for (i, s) in streams.iter().enumerate() {
            let (a, t) = &s[k];
            // The reference run goes through the `&mut` trait adapter.
            let mut gate = |r: &GuardRequest<'_>, p: &ProofStore, tb: &mut AccessTable| {
                SecurityGuard::check(&mut guard, r, p, tb)
            };
            logs[i].push(drive(
                &mut gate,
                &format!("n{i}"),
                a,
                *t,
                &proofs,
                &mut table,
            ));
        }
    }
    logs
}

/// Concurrent run: one thread per object against a shared `&self` guard,
/// each with its own access table.
fn concurrent_logs() -> Vec<Vec<String>> {
    let guard = Arc::new(scenario_guard());
    let proofs = ProofStore::new();
    let logs: Vec<Mutex<Vec<String>>> = (0..OBJECTS).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for i in 0..OBJECTS {
            let guard = Arc::clone(&guard);
            let proofs = &proofs;
            let logs = &logs;
            scope.spawn(move || {
                let mut table = AccessTable::new();
                let mut gate = |r: &GuardRequest<'_>, p: &ProofStore, tb: &mut AccessTable| {
                    guard.decide(r, p, tb)
                };
                let mut out = Vec::new();
                for (a, t) in stream(i) {
                    out.push(drive(
                        &mut gate,
                        &format!("n{i}"),
                        &a,
                        t,
                        proofs,
                        &mut table,
                    ));
                }
                *logs[i].lock() = out;
            });
        }
    });
    logs.into_iter().map(|m| m.into_inner()).collect()
}

#[test]
fn sharded_concurrent_decisions_match_sequential() {
    let seq = sequential_logs();
    // Sanity: the scenario actually exercises all three outcomes.
    let all: Vec<&String> = seq.iter().flatten().collect();
    assert!(all.iter().any(|l| l.contains("granted")));
    assert!(all.iter().any(|l| l.contains("denied-temporal")));
    for _ in 0..3 {
        let conc = concurrent_logs();
        assert_eq!(seq, conc, "per-object decision logs must be identical");
    }
}

#[test]
fn decide_batch_matches_sequential_per_object() {
    // Sequential reference through the `&mut` adapter.
    let seq = sequential_logs();

    // One big batch, round-robin interleaved across objects — the exact
    // request multiset of the sequential run. `decide_batch` groups by
    // object preserving order and (with `issue_proofs`) issues each
    // grant's proof before the object's next request, so its output must
    // be byte-identical per object.
    let guard = scenario_guard();
    let proofs = ProofStore::new();
    let streams: Vec<_> = (0..OBJECTS).map(stream).collect();
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    let programs: Vec<Vec<stacl_sral::Program>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|(a, _)| stacl_sral::Program::Access(a.clone()))
                .collect()
        })
        .collect();
    let mut reqs = Vec::new();
    for k in 0..REQUESTS {
        for i in 0..OBJECTS {
            let (a, t) = &streams[i][k];
            reqs.push(GuardRequest {
                object: &names[i],
                access: a,
                remaining: &programs[i][k],
                time: *t,
            });
        }
    }
    let verdicts = guard.decide_batch(&reqs, &proofs, true);
    assert_eq!(verdicts.len(), reqs.len());
    let mut logs = vec![Vec::new(); OBJECTS];
    for (r, v) in reqs.iter().zip(&verdicts) {
        let i: usize = r.object[1..].parse().unwrap();
        logs[i].push(format!(
            "{} {} t={} -> {v}",
            r.object,
            r.access.server,
            r.time.seconds()
        ));
    }
    assert_eq!(seq, logs, "batched per-object logs must match sequential");
}

// ---------------------------------------------------------------------
// Mixed interleaving: enroll, decide and note_arrival racing per object.
// ---------------------------------------------------------------------

/// One step of a mixed per-object schedule.
enum MixedOp {
    /// Enroll the object (first contact happens mid-flight, not up
    /// front).
    Enroll,
    /// Arrival notification (refills the per-server budget).
    Arrive(TimePoint),
    /// An access decision.
    Decide(Access, TimePoint),
}

/// A per-server 3-second budget and no spatial constraint: arrivals are
/// load-bearing (each one refills the budget), so an interleaving that
/// loses or misorders a `note_arrival` changes the decision log.
fn mixed_guard() -> CoordinatedGuard {
    let mut policy = String::new();
    for i in 0..OBJECTS {
        policy.push_str(&format!("user n{i}\n"));
    }
    policy.push_str(
        r#"
        role worker
        permission p grants=exec:rsw:* validity=3 scheme=current-server
        grant worker p
        "#,
    );
    for i in 0..OBJECTS {
        policy.push_str(&format!("assign n{i} worker\n"));
    }
    // Objects are NOT enrolled here: enrollment is one of the racing ops.
    CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy).unwrap()))
        .with_mode(EnforcementMode::Reactive)
}

/// The mixed schedule for one object: enroll, arrive, drain the budget
/// into a temporal denial, migrate (refill), then drain again.
fn mixed_stream(object: usize) -> Vec<MixedOp> {
    let base = object as f64 * 0.125;
    let access = |s: &str| Access::new("exec", "rsw", s);
    let mut ops = vec![MixedOp::Enroll, MixedOp::Arrive(TimePoint::new(base))];
    for k in 0..4 {
        // Valid on [base+1, base+4): three grants, then denied-temporal.
        ops.push(MixedOp::Decide(
            access("s1"),
            TimePoint::new(base + 1.0 + k as f64),
        ));
    }
    ops.push(MixedOp::Arrive(TimePoint::new(base + 5.0)));
    for k in 0..3 {
        // Refilled on [base+5, base+8): two grants, then denied again.
        ops.push(MixedOp::Decide(
            access("s2"),
            TimePoint::new(base + 6.0 + k as f64),
        ));
    }
    ops
}

/// Run one object's mixed op against the guard, appending to its log.
fn run_mixed_op(
    guard: &CoordinatedGuard,
    op: &MixedOp,
    object: &str,
    proofs: &ProofStore,
    table: &mut AccessTable,
    log: &mut Vec<String>,
) {
    match op {
        MixedOp::Enroll => {
            guard.enroll(object, ["worker"]);
            log.push(format!("{object} enrolled"));
        }
        MixedOp::Arrive(t) => {
            guard.note_arrival(object, *t);
            log.push(format!("{object} arrive t={}", t.seconds()));
        }
        MixedOp::Decide(a, t) => {
            let mut gate =
                |r: &GuardRequest<'_>, p: &ProofStore, tb: &mut AccessTable| guard.decide(r, p, tb);
            log.push(drive(&mut gate, object, a, *t, proofs, table));
        }
    }
}

#[test]
fn mixed_enroll_decide_arrival_interleaving_matches_sequential() {
    // Sequential reference: round-robin over the objects' op streams.
    let seq: Vec<Vec<String>> = {
        let guard = mixed_guard();
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let streams: Vec<_> = (0..OBJECTS).map(mixed_stream).collect();
        let mut logs = vec![Vec::new(); OBJECTS];
        for k in 0..streams[0].len() {
            for (i, s) in streams.iter().enumerate() {
                run_mixed_op(
                    &guard,
                    &s[k],
                    &format!("n{i}"),
                    &proofs,
                    &mut table,
                    &mut logs[i],
                );
            }
        }
        logs
    };

    // The schedule must exercise enroll, refill-driven grants and
    // temporal denials for every object.
    for log in &seq {
        assert!(log.iter().any(|l| l.contains("enrolled")));
        assert!(log.iter().any(|l| l.contains("granted")));
        assert!(log.iter().any(|l| l.contains("denied-temporal")));
    }

    // Concurrent: one thread per object racing enroll/decide/arrive on
    // the shared `&self` guard.
    for _ in 0..3 {
        let guard = Arc::new(mixed_guard());
        let proofs = ProofStore::new();
        let logs: Vec<Mutex<Vec<String>>> = (0..OBJECTS).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for i in 0..OBJECTS {
                let guard = Arc::clone(&guard);
                let proofs = &proofs;
                let logs = &logs;
                scope.spawn(move || {
                    let mut table = AccessTable::new();
                    let mut out = Vec::new();
                    for op in mixed_stream(i) {
                        run_mixed_op(&guard, &op, &format!("n{i}"), proofs, &mut table, &mut out);
                    }
                    *logs[i].lock() = out;
                });
            }
        });
        let conc: Vec<Vec<String>> = logs.into_iter().map(|m| m.into_inner()).collect();
        assert_eq!(seq, conc, "mixed per-object logs must be identical");
    }
}

// ---------------------------------------------------------------------
// Racing first contact: one session per object, whoever wins the race.
// ---------------------------------------------------------------------

const RACERS: usize = 8;

/// One enrolled object whose permission has no spatial or temporal
/// constraint, so a verdict depends only on whether the access is
/// covered, never on the order of the racing decisions. The object
/// activates many roles on first contact: a long session open keeps the
/// race window wide, so racers reliably find the session unopened.
fn first_contact_guard() -> CoordinatedGuard {
    const ROLES: usize = 64;
    let mut policy = String::from("user n0\npermission p grants=exec:rsw:*\n");
    for r in 0..ROLES {
        policy.push_str(&format!("role r{r}\ngrant r{r} p\nassign n0 r{r}\n"));
    }
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy).unwrap()))
        .with_mode(EnforcementMode::Reactive);
    guard.enroll("n0", (0..ROLES).map(|r| format!("r{r}")));
    guard
}

/// Racer `i`'s decision: even racers ask for a covered access, odd
/// racers for an uncovered one.
fn racer_verdict(
    guard: &CoordinatedGuard,
    i: usize,
    proofs: &ProofStore,
    table: &mut AccessTable,
) -> String {
    let a = if i.is_multiple_of(2) {
        Access::new("exec", "rsw", format!("s{i}"))
    } else {
        Access::new("read", "db", format!("s{i}"))
    };
    let remaining = stacl_sral::Program::Access(a.clone());
    let req = GuardRequest {
        object: "n0",
        access: &a,
        remaining: &remaining,
        time: TimePoint::new(0.0),
    };
    guard.decide(&req, proofs, table).to_string()
}

/// Eight threads make a freshly enrolled object's first contact at
/// once. The guard re-checks the object's session under the core's
/// write lock, so exactly one session is opened, and every verdict is
/// the one the sequential run gives.
#[test]
fn racing_first_contact_opens_one_session() {
    let seq: Vec<String> = {
        let guard = first_contact_guard();
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        (0..RACERS)
            .map(|i| racer_verdict(&guard, i, &proofs, &mut table))
            .collect()
    };
    assert!(seq.iter().any(|v| v.contains("granted")));
    assert!(seq.iter().any(|v| v.contains("denied-no-permission")));

    for _ in 0..50 {
        let guard = first_contact_guard();
        let proofs = ProofStore::new();
        let start = Barrier::new(RACERS);
        let verdicts: Vec<String> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..RACERS)
                .map(|i| {
                    let (guard, proofs, start) = (&guard, &proofs, &start);
                    scope.spawn(move || {
                        let mut table = AccessTable::new();
                        start.wait();
                        racer_verdict(guard, i, proofs, &mut table)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(verdicts, seq, "racing verdicts must match sequential");
        guard.with_rbac_read(|rbac| {
            assert!(rbac.session(SessionId(0)).is_some(), "no session opened");
            assert!(
                rbac.session(SessionId(1)).is_none(),
                "racing first contacts opened a second session"
            );
        });
    }
}
