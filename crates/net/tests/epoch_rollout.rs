//! Coalition-wide two-phase policy rollout over the wire.
//!
//! Three properties of the prepare/activate protocol:
//!
//! 1. A complete round (every member prepares, then every member
//!    activates) flips the whole coalition to the new epoch, and every
//!    verdict after the flip is stamped with it.
//! 2. A member killed *between* prepare and activate never serves the
//!    half-rolled-out policy: its clients fail safe to the counted
//!    `DeniedCoordination`, while the survivors complete the flip.
//! 3. A member that missed the prepare phase refuses the activate,
//!    marks itself desynchronized, and fail-safes every decision until
//!    the next *complete* round reaches it — it never answers under an
//!    epoch the coalition has moved past.

use std::time::Duration;

use stacl_coalition::{DecisionKind, ProofStore};
use stacl_naplet::guard::CoordinatedGuard;
use stacl_net::frames::ERR_STATE;
use stacl_net::{Client, DaemonConfig, DaemonHandle, NetError};
use stacl_obs::Counter;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;
use stacl_sral::Access;

const OBJECTS: [&str; 2] = ["n0", "n1"];

/// The coalition replica policy for one epoch. Epoch 0 leaves the
/// spatial cap wide open; later epochs clamp it to zero, so a flip is
/// observable as `Granted` → `DeniedSpatial`, not just as a stamp.
fn policy_for(epoch: u64) -> String {
    let cap = if epoch == 0 { 1000 } else { 0 };
    let mut policy = String::new();
    for obj in OBJECTS {
        policy.push_str(&format!("user {obj}\n"));
    }
    policy.push_str(&format!(
        "role worker\npermission p grants=exec:rsw:* \
         spatial=\"count(0, {cap}, resource=rsw)\"\ngrant worker p\n"
    ));
    for obj in OBJECTS {
        policy.push_str(&format!("assign {obj} worker\n"));
    }
    policy
}

fn spawn_member(name: &str) -> DaemonHandle {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy_for(0)).unwrap()));
    let mut cfg = DaemonConfig::new(name);
    cfg.io_timeout = Duration::from_millis(500);
    stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback")
}

fn connect(h: &DaemonHandle) -> Client {
    let mut c =
        Client::connect(h.addr(), "rollout-driver", Some(Duration::from_secs(1))).expect("connect");
    for obj in OBJECTS {
        c.enroll(obj, &["worker"]).expect("enroll");
    }
    c
}

#[test]
fn complete_round_flips_every_member() {
    let handles = [spawn_member("d0"), spawn_member("d1")];
    let mut clients: Vec<Client> = handles.iter().map(connect).collect();

    let access = Access::new("exec", "rsw", "s1");
    let program = [access.clone()];

    // Epoch 0: both members grant, stamped with the boot epoch.
    for c in &mut clients {
        let v = c.decide("n0", &access, &program, 1.0).expect("decide");
        assert_eq!(v.kind, DecisionKind::Granted);
        assert_eq!(v.epoch, 0);
    }

    // Phase 1 everywhere, then phase 2 everywhere.
    let next = policy_for(1);
    for c in &mut clients {
        assert_eq!(c.policy_prepare(1, &next, &[]).expect("prepare"), 1);
    }
    // Decisions between the phases still run under the old policy.
    let v = clients[0]
        .decide("n0", &access, &program, 2.0)
        .expect("decide");
    assert_eq!(v.kind, DecisionKind::Granted, "prepared but not active");
    assert_eq!(v.epoch, 0);
    for c in &mut clients {
        assert_eq!(c.policy_activate(1).expect("activate"), 1);
    }

    // Epoch 1 clamps the spatial cap: every member denies, stamped 1.
    for c in &mut clients {
        let v = c.decide("n0", &access, &program, 3.0).expect("decide");
        assert_eq!(v.kind, DecisionKind::DeniedSpatial, "post-flip policy");
        assert_eq!(v.epoch, 1);
    }

    drop(clients);
    for mut h in handles {
        h.shutdown();
    }
}

#[test]
fn member_killed_between_prepare_and_activate_fails_safe() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let mut handles = vec![spawn_member("d0"), spawn_member("d1")];
    let mut clients: Vec<Client> = handles.iter().map(connect).collect();

    let access = Access::new("exec", "rsw", "s1");
    let program = [access.clone()];
    let next = policy_for(1);
    for c in &mut clients {
        c.policy_prepare(1, &next, &[]).expect("prepare");
    }

    // d1 dies holding a prepared-but-inactive epoch.
    handles[1].shutdown();

    // The survivor completes the flip and serves the new epoch.
    assert_eq!(clients[0].policy_activate(1).expect("activate"), 1);
    let v = clients[0]
        .decide("n0", &access, &program, 2.0)
        .expect("decide");
    assert_eq!(v.kind, DecisionKind::DeniedSpatial);
    assert_eq!(v.epoch, 1);

    // The dead member's clients fail safe — counted, never hanging, and
    // in particular never a stale epoch-0 grant.
    let v = clients[1].decide_failsafe("n0", &access, &program, 2.0);
    assert_eq!(v.kind, DecisionKind::DeniedCoordination);

    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(
        d.counter(Counter::NetFailsafeDenial) >= 1,
        "fail-safe denial counted"
    );
    assert!(
        d.counter(Counter::EpochPrepare) >= 2,
        "both prepares counted"
    );

    drop(clients);
    for mut h in handles {
        h.shutdown();
    }
}

#[test]
fn missed_prepare_desyncs_until_the_next_complete_round() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let handles = [spawn_member("d0"), spawn_member("d1")];
    let mut clients: Vec<Client> = handles.iter().map(connect).collect();

    let access = Access::new("exec", "rsw", "s1");
    let program = [access.clone()];

    // A broken rollout: only d0 receives the prepare, both receive the
    // activate. d1 must refuse with the state error, not guess.
    let next = policy_for(1);
    clients[0]
        .policy_prepare(1, &next, &[])
        .expect("prepare d0");
    assert_eq!(clients[0].policy_activate(1).expect("activate d0"), 1);
    match clients[1].policy_activate(1) {
        Err(NetError::Daemon { code, msg }) => {
            assert_eq!(code, ERR_STATE, "desync is a state error");
            assert!(
                msg.contains("no prepared epoch"),
                "error names the missing phase: {msg}"
            );
        }
        other => panic!("expected a daemon state error, got {other:?}"),
    }

    // While desynchronized, d1 fail-safes every decision with a counted
    // DeniedCoordination naming the rollout, stamped with its stale
    // epoch — it never answers under the policy it missed.
    let v = clients[1]
        .decide("n0", &access, &program, 2.0)
        .expect("decide");
    assert_eq!(v.kind, DecisionKind::DeniedCoordination);
    assert_eq!(v.epoch, 0, "stamped with the stale epoch");
    assert!(
        v.reason.as_deref().unwrap_or("").contains("desynchronized"),
        "reason names the desync: {:?}",
        v.reason
    );
    // Pipelined decides fail safe the same way.
    let mut p = clients[1].pipeline(4).expect("pipeline");
    let id = p.submit("n0", &access, &program, 2.5).expect("submit");
    let done = p.finish().expect("drain");
    assert_eq!(done.len(), 1, "one completion for one request");
    let (got, v) = &done[0];
    assert_eq!(*got, id);
    assert_eq!(v.kind, DecisionKind::DeniedCoordination);
    assert_eq!(v.epoch, 0, "stamped with the stale epoch");
    assert!(
        v.reason.as_deref().unwrap_or("").contains("desynchronized"),
        "reason names the desync: {:?}",
        v.reason
    );

    // d0 is unaffected and serves epoch 1.
    let v = clients[0]
        .decide("n0", &access, &program, 3.0)
        .expect("decide");
    assert_eq!(v.kind, DecisionKind::DeniedSpatial);
    assert_eq!(v.epoch, 1);

    // The next complete round reaches d1 and clears the desync. Epochs
    // are strictly increasing, not contiguous: d1 jumps 0 → 2.
    let next = policy_for(2);
    for c in &mut clients {
        c.policy_prepare(2, &next, &[]).expect("prepare round 2");
    }
    for c in &mut clients {
        assert_eq!(c.policy_activate(2).expect("activate round 2"), 2);
    }
    for c in &mut clients {
        let v = c.decide("n1", &access, &program, 4.0).expect("decide");
        assert_eq!(
            v.kind,
            DecisionKind::DeniedSpatial,
            "recovered member serves"
        );
        assert_eq!(v.epoch, 2);
    }

    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(d.counter(Counter::EpochDesync) >= 1, "desync counted");
    assert!(d.counter(Counter::EpochActivate) >= 3, "d0 twice + d1 once");

    drop(clients);
    let [mut h0, mut h1] = handles;
    h0.shutdown();
    h1.shutdown();
}
