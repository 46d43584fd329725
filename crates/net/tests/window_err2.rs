//! An `Err2` inside a pipelined window fails only the request it answers.
//!
//! The window holds a decide with a non-finite time, which the daemon
//! refuses with `Err2`, and a second decide whose submit announces a new
//! name, so a synchronous `Vocab` call is in flight when that `Err2`
//! arrives. If the `Err2` were taken as the `Vocab` call's own failure,
//! the client would never record the name the daemon has appended, and
//! every name it announced afterwards would sit one id below the
//! daemon's: a later `wipe` would reach the daemon as `read` and be
//! granted under a policy that permits only `read`.
//!
//! The obs counters are process-global, so this file holds a single
//! `#[test]`.

use std::time::Duration;

use stacl_coalition::{DecisionKind, ProofStore};
use stacl_naplet::guard::CoordinatedGuard;
use stacl_net::frames::ERR_BAD_REQUEST;
use stacl_net::{Client, DaemonConfig};
use stacl_obs::Counter;
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::Access;

/// `obj` holds `staff`, whose one permission grants `read db s0` only.
fn make_guard() -> CoordinatedGuard {
    let mut model = RbacModel::new();
    model.add_role("staff");
    model
        .add_permission(Permission::new(
            "p-read",
            AccessPattern::exact("read", "db", "s0"),
        ))
        .unwrap();
    model.assign_permission("staff", "p-read").unwrap();
    model.add_user("obj");
    model.assign_user("obj", "staff").unwrap();
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("obj", ["staff"]);
    guard
}

#[test]
fn err2_in_window_denies_its_request_and_keeps_the_vocabulary() {
    stacl_obs::set_telemetry(true);
    let daemon = stacl_net::spawn(make_guard(), ProofStore::new(), DaemonConfig::new("e0"))
        .expect("bind loopback");
    let mut client = Client::connect(daemon.addr(), "err2-client", Some(Duration::from_secs(5)))
        .expect("connect");
    client
        .sync_vocab(["obj", "write", "db", "s0"])
        .expect("vocabulary sync");
    client.arrive("obj", 0.0, None).expect("arrival");

    let write = Access::new("write", "db", "s0");
    let read = Access::new("read", "db", "s0");
    let wipe = Access::new("wipe", "db", "s0");
    let before = stacl_obs::snapshot();

    // Two requests in one window: the first is refused, the second's
    // submit announces `read` while the first is still unanswered.
    let mut p = client.pipeline(2).expect("pipeline");
    let refused = p.submit("obj", &write, std::slice::from_ref(&write), f64::NAN);
    let normal = p.submit("obj", &read, std::slice::from_ref(&read), 1.0);
    let done = p.finish();
    let failsafe = stacl_obs::snapshot()
        .diff(&before)
        .counter(Counter::NetFailsafeDenial);
    // `wipe` is a name the client has not announced yet.
    let v = client.decide("obj", &wipe, std::slice::from_ref(&wipe), 2.0);

    assert_eq!(
        v.as_ref().map(|v| v.kind).ok(),
        Some(DecisionKind::DeniedNoPermission),
        "wipe under a read-only policy: {v:?}"
    );
    let refused = refused.expect("the refused request is queued");
    let normal = normal.expect("announcing a name mid-window succeeds");
    let done = done.expect("the window drains");
    assert_eq!(done.len(), 2, "one verdict per request: {done:?}");
    let verdict_of = |id| &done.iter().find(|(i, _)| *i == id).expect("verdict").1;

    let v = verdict_of(refused);
    assert_eq!(v.kind, DecisionKind::DeniedCoordination, "{v:?}");
    let code = format!("daemon error {ERR_BAD_REQUEST}:");
    assert!(
        v.reason.as_deref().unwrap_or("").contains(&code),
        "the fail-safe reason carries the daemon's code: {:?}",
        v.reason
    );
    assert_eq!(failsafe, 1, "the refused request is a counted fail-safe");

    let v = verdict_of(normal);
    assert_eq!(v.kind, DecisionKind::Granted, "read db s0: {v:?}");
}
