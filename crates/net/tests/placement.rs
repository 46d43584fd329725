//! Placement-layer integration tests: ring-routed decides with at most
//! one redirect hop, redirects inside a pipelined window, churn
//! rebalancing that drains only moved keys, and
//! the two event-loop custody bugfixes (severed frames must not be
//! processed; orphaned pull completions must not strand custody).

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod common;

use stacl_coalition::{DecisionKind, Placement, ProofStore};
use stacl_naplet::guard::{CoordinatedGuard, Custody};
use stacl_net::frames::{DecideItem, Frame, WireAccess, ERR_NOT_CUSTODIAN};
use stacl_net::{
    wire, Client, DaemonConfig, DaemonHandle, FrameAssembler, NetError, Router, PROTOCOL_VERSION,
};
use stacl_obs::Counter;
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::Access;

const N_OBJECTS: usize = 16;

fn objects() -> Vec<String> {
    (0..N_OBJECTS).map(|i| format!("o{i}")).collect()
}

/// Every object holds `staff`, which grants any access; custody enforced.
fn make_guard() -> CoordinatedGuard {
    let mut model = RbacModel::new();
    model.add_role("staff");
    model
        .add_permission(Permission::new("p-any", AccessPattern::any()))
        .unwrap();
    model.assign_permission("staff", "p-any").unwrap();
    for obj in objects() {
        model.add_user(&obj);
        model.assign_user(&obj, "staff").unwrap();
    }
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    for obj in objects() {
        guard.enroll(&obj, ["staff"]);
    }
    guard.set_custody_enforcement(true);
    guard
}

fn spawn_daemon(name: &str) -> DaemonHandle {
    let mut cfg = DaemonConfig::new(name);
    cfg.io_timeout = Duration::from_secs(2);
    cfg.handoff_backoff = Duration::from_millis(5);
    stacl_net::spawn(make_guard(), ProofStore::new(), cfg).expect("bind loopback")
}

fn members_of(handles: &[DaemonHandle]) -> Vec<(String, SocketAddr)> {
    handles
        .iter()
        .map(|h| (h.name().to_string(), h.addr()))
        .collect()
}

/// Wait until `pred` holds, with a generous overall budget.
fn await_until(what: &str, mut pred: impl FnMut() -> bool) {
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(10) {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

/// Any member names any object's custodian with no broadcast: a decide
/// sent to the wrong member is redirected to the ring home and resolves
/// in at most one hop.
#[test]
fn locate_and_one_redirect_hop_resolve_any_object() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let handles: Vec<DaemonHandle> = (0..3).map(|i| spawn_daemon(&format!("pl-d{i}"))).collect();
    let members = members_of(&handles);
    for h in &handles {
        h.set_members(&members);
    }

    // Every daemon computes the same ring the test computes here.
    let ring = Placement::new(members.iter().map(|(n, _)| n.clone()));
    let home = ring.home_of("o0").expect("nonempty ring").to_string();
    let home_idx = handles.iter().position(|h| h.name() == home).unwrap();
    let wrong_idx = (home_idx + 1) % handles.len();

    let timeout = Some(Duration::from_secs(2));
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];

    // An arrival at a non-home member is rejected: the ring forbids the
    // double-claim instead of letting two members both believe
    // themselves custodian.
    let mut wrong = Client::connect(handles[wrong_idx].addr(), "t", timeout).expect("connect");
    match wrong.arrive("o0", 0.0, None) {
        Err(NetError::Daemon { code, msg }) => {
            assert_eq!(code, ERR_NOT_CUSTODIAN, "claim rejection code");
            assert!(
                msg.contains("homed on"),
                "claim rejection names the home: {msg}"
            );
        }
        other => panic!("off-home claim must be rejected, got {other:?}"),
    }

    // The home member's claim passes ring validation.
    let mut at_home = Client::connect(handles[home_idx].addr(), "t", timeout).expect("connect");
    at_home.arrive("o0", 1.0, None).expect("home arrival");

    // A decide at *every* non-home member is redirected to the same
    // home, with its address: each member computes the ring itself.
    for h in handles.iter().filter(|h| h.name() != home) {
        let mut c = Client::connect(h.addr(), "t", timeout).expect("connect");
        match c.decide("o0", &access, &program, 1.5) {
            Err(NetError::Redirected {
                object,
                home: to,
                addr,
            }) => {
                assert_eq!(object, "o0");
                assert_eq!(to, home, "every member computes the same home");
                assert_eq!(
                    addr.expect("home address known")
                        .parse::<SocketAddr>()
                        .unwrap(),
                    handles[home_idx].addr(),
                );
            }
            other => panic!("a non-home member must redirect, got {other:?}"),
        }
    }

    // A decision routed to the wrong member resolves in exactly one
    // redirect hop, ending in a grant at the home custodian.
    let mut router = Router::new("t", timeout);
    for (n, a) in &members {
        router.add_member(n, *a);
    }
    let (v, answered_by) = router
        .decide(&members[wrong_idx].0, "o0", &access, &program, 2.0)
        .expect("routed decide");
    assert_eq!(v.kind, DecisionKind::Granted, "redirected decision grants");
    assert_eq!(answered_by, home, "the home custodian answered");

    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(
        d.counter(Counter::PlacementRedirect) >= 1,
        "redirect counted"
    );
    assert!(
        d.counter(Counter::PlacementClaimRejected) >= 1,
        "rejected double-claim counted"
    );

    for mut h in handles {
        h.shutdown();
    }
}

/// A redirect inside a pipelined window does not abort the window: the
/// request resolves to a counted fail-safe `DeniedCoordination` naming
/// the home, the redirecting member counts `placement.redirect`, and the
/// next submit on the same pipeline still resolves.
#[test]
fn pipelined_redirect_resolves_to_counted_failsafe_denial() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let handles: Vec<DaemonHandle> = (0..2).map(|i| spawn_daemon(&format!("pr-d{i}"))).collect();
    let members = members_of(&handles);
    for h in &handles {
        h.set_members(&members);
    }
    let ring = Placement::new(members.iter().map(|(n, _)| n.clone()));
    let homed_on = |d: usize| -> String {
        objects()
            .into_iter()
            .find(|o| ring.home_of(o) == Some(members[d].0.as_str()))
            .expect("each member homes some object")
    };
    let (away, local) = (homed_on(1), homed_on(0));

    let timeout = Some(Duration::from_secs(2));
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    let mut c1 = Client::connect(handles[1].addr(), "t", timeout).expect("connect");
    c1.arrive(&away, 0.0, None).expect("arrival at d1");
    let mut c0 = Client::connect(handles[0].addr(), "t", timeout).expect("connect");
    c0.arrive(&local, 0.0, None).expect("arrival at d0");

    let mut p = c0.pipeline(4).expect("pipeline");
    let redirected = p.submit(&away, &access, &program, 1.0).expect("submit");
    let done = p.recv_some().expect("redirect resolves");
    assert_eq!(done.len(), 1, "one completion for one request");
    let (id, v) = &done[0];
    assert_eq!(*id, redirected);
    assert_eq!(v.kind, DecisionKind::DeniedCoordination, "fail-safe denial");
    let reason = v.reason.as_deref().unwrap_or_default();
    assert!(
        reason.contains(&members[1].0),
        "the denial names the home: {reason}"
    );

    let later = p.submit(&local, &access, &program, 2.0).expect("submit");
    let done = p.finish().expect("window drains");
    assert_eq!(done.len(), 1, "the later submit resolves");
    assert_eq!(done[0].0, later);
    assert_eq!(done[0].1.kind, DecisionKind::Granted, "window not aborted");

    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(
        d.counter(Counter::NetFailsafeDenial) >= 1,
        "client counted the fail-safe denial"
    );
    assert!(
        d.counter(Counter::PlacementRedirect) >= 1,
        "d0 counted the redirect"
    );

    drop((c0, c1));
    for mut h in handles {
        h.shutdown();
    }
}

/// Churn rebalancing: a join drains exactly the keys the joiner now
/// wins; a graceful leave drains everything the leaver held. Keys whose
/// home never moved are untouched.
#[test]
fn membership_change_rebalances_only_moved_keys() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let handles: Vec<DaemonHandle> = (0..2).map(|i| spawn_daemon(&format!("rb-d{i}"))).collect();
    let members = members_of(&handles);
    let solo = vec![members[0].clone()];

    // Epoch 1: d0 alone on the ring — it homes (and claims) every key.
    for h in &handles {
        h.set_members(&solo);
    }
    let timeout = Some(Duration::from_secs(2));
    let mut c0 = Client::connect(handles[0].addr(), "t", timeout).expect("connect");
    for (i, obj) in objects().iter().enumerate() {
        c0.arrive(obj, i as f64, None).expect("solo-ring arrival");
    }

    // Epoch 2: d1 joins. Exactly the keys the two-member ring homes on
    // d1 must drain there; the rest stay put on d0.
    let ring2 = Placement::new(members.iter().map(|(n, _)| n.clone()));
    let moved: Vec<String> = objects()
        .into_iter()
        .filter(|o| ring2.home_of(o) == Some(members[1].0.as_str()))
        .collect();
    let kept: Vec<String> = objects()
        .into_iter()
        .filter(|o| !moved.contains(o))
        .collect();
    assert!(!moved.is_empty(), "the joiner must win a slice of the keys");
    assert!(!kept.is_empty(), "the joiner must not win every key");

    handles[1].set_members(&members);
    let drained = handles[0].set_members(&members);
    assert_eq!(drained, moved.len(), "only moved keys drain");

    await_until("join drain to settle", || {
        moved
            .iter()
            .all(|o| handles[1].guard().custody_of(o) == Custody::Resident)
    });
    for o in &moved {
        assert_eq!(
            handles[0].guard().custody_of(o),
            Custody::Remote,
            "{o} exported off d0"
        );
    }
    for o in &kept {
        assert_eq!(
            handles[0].guard().custody_of(o),
            Custody::Resident,
            "{o} never moved"
        );
        assert_eq!(handles[1].guard().custody_of(o), Custody::Remote);
    }

    // A moved key now decides at its new home — and a stale client still
    // pointed at d0 gets redirected there in one hop.
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    let mut router = Router::new("t", timeout);
    for (n, a) in &members {
        router.add_member(n, *a);
    }
    let (v, answered_by) = router
        .decide(&members[0].0, &moved[0], &access, &program, 100.0)
        .expect("routed decide after join");
    assert_eq!(
        v.kind,
        DecisionKind::Granted,
        "moved key grants at new home"
    );
    assert_eq!(answered_by, members[1].0, "answered by the joiner");

    // Epoch 3: d0 leaves gracefully — a membership list without itself
    // homes everything on d1, draining every key d0 still holds.
    let survivors = vec![members[1].clone()];
    handles[1].set_members(&survivors);
    let drained = handles[0].set_members(&survivors);
    assert_eq!(drained, kept.len(), "a leaver drains everything it holds");
    await_until("leave drain to settle", || {
        objects()
            .iter()
            .all(|o| handles[1].guard().custody_of(o) == Custody::Resident)
    });

    // Both counters land just after custody flips (the leaver counts a
    // rebalance once the joiner's `Ok` is back, the joiner counts the
    // handoff once it is applied), so wait for them instead of reading
    // them once.
    let drains = (moved.len() + kept.len()) as u64;
    let counted = |c: Counter| stacl_obs::snapshot().diff(&baseline).counter(c) >= drains;
    await_until("every drained key counted a rebalance", || {
        counted(Counter::PlacementRebalance)
    });
    await_until("every drain rode the handoff machinery", || {
        counted(Counter::NetHandoffApplied)
    });

    for mut h in handles {
        h.shutdown();
    }
}

/// A staller connection whose heavy `Vocab` frames keep the daemon's
/// event loop busy decoding. The writer runs on its own thread (the
/// payload far exceeds socket buffers); join the handle and read the
/// `frames` Ok replies to rejoin the loop.
fn stall_loop(
    addr: SocketAddr,
    frames: usize,
    names_per_frame: usize,
) -> JoinHandle<(TcpStream, FrameAssembler)> {
    let mut s = TcpStream::connect(addr).expect("connect staller");
    s.set_nodelay(true).unwrap();
    let mut hello = Vec::new();
    wire::put_frame(
        &mut hello,
        &Frame::Hello {
            proto: PROTOCOL_VERSION as u16,
            peer: "staller".to_string(),
        }
        .encode(),
    )
    .unwrap();
    s.write_all(&hello).unwrap();
    let mut asm = FrameAssembler::new();
    assert!(matches!(
        common::recv_frame(&mut asm, &mut s),
        Frame::HelloAck { .. }
    ));
    let names: Vec<String> = (0..names_per_frame).map(|i| format!("stall-{i}")).collect();
    let mut vocab = Vec::new();
    wire::put_frame(&mut vocab, &Frame::Vocab { names }.encode()).unwrap();
    std::thread::spawn(move || {
        for _ in 0..frames {
            s.write_all(&vocab).unwrap();
        }
        (s, asm)
    })
}

/// Join the staller's writer and read its Ok replies, proving the loop
/// finished the stall (and therefore also reached every connection
/// queued behind it).
fn drain_stall(writer: JoinHandle<(TcpStream, FrameAssembler)>, frames: usize) {
    let (mut s, mut asm) = writer.join().expect("staller writer");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for _ in 0..frames {
        assert!(matches!(common::recv_frame(&mut asm, &mut s), Frame::Ok));
    }
}

/// Regression (satellite): a connection severed with complete frames
/// still queued must NOT have those frames processed — the peer can
/// never observe a reply, so processing them would move verdict counters
/// (and guard state) on behalf of a ghost.
///
/// The interleaving (data + FIN drained in one read batch) needs the
/// loop to be busy when the victim writes; a heavy-vocab staller makes
/// that overwhelmingly likely per attempt, and the scenario retries —
/// the old always-process behaviour fails every attempt.
#[test]
fn severed_connection_frames_are_not_processed() {
    stacl_obs::set_telemetry(true);

    let h = spawn_daemon("sev-d0");
    let timeout = Some(Duration::from_secs(5));
    let mut warm = Client::connect(h.addr(), "t", timeout).expect("connect");
    warm.arrive("o0", 0.0, None).expect("arrival");
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    let v = warm.decide_failsafe("o0", &access, &program, 1.0);
    assert_eq!(v.kind, DecisionKind::Granted, "daemon decides pre-test");

    let mut victim_bytes = Vec::new();
    wire::put_frame(
        &mut victim_bytes,
        &Frame::Vocab {
            names: vec!["o0".into(), "read".into(), "db".into(), "s0".into()],
        }
        .encode(),
    )
    .unwrap();
    let wa = WireAccess {
        op: 1,
        resource: 2,
        server: 3,
    };
    for i in 0..8 {
        wire::put_frame(
            &mut victim_bytes,
            &Frame::Decide2 {
                id: i,
                item: DecideItem {
                    object: 0,
                    time: 10.0 + i as f64,
                    access: wa.clone(),
                    remaining: vec![wa.clone()],
                },
            }
            .encode(),
        )
        .unwrap();
    }

    let mut skipped = false;
    for attempt in 0..5 {
        let baseline = stacl_obs::snapshot();

        // Stall the loop, then — inside the stall window — deliver a
        // victim whose decide frames and FIN all land before the daemon
        // ever reads it: the read drains data + EOF in one batch, marks
        // the connection dead, and must skip the assembled frames.
        let staller = stall_loop(h.addr(), 4, 120_000);
        std::thread::sleep(Duration::from_millis(10));
        {
            let mut victim = TcpStream::connect(h.addr()).expect("connect victim");
            victim.set_nodelay(true).unwrap();
            victim.write_all(&victim_bytes).unwrap();
            // Dropping the stream sends FIN while the loop is stalled.
        }
        drain_stall(staller, 4);

        // The loop is past the stall; one more proven round trip shows
        // it also disposed of the victim.
        let v = warm.decide_failsafe("o0", &access, &program, 50.0);
        assert_eq!(v.kind, DecisionKind::Granted, "service continues");

        let d = stacl_obs::snapshot().diff(&baseline);
        let granted = d.counter(Counter::VerdictGranted);
        if granted == 1 {
            // Only the live probe decided: the severed frames were
            // skipped. (More would mean the daemon read some of the
            // victim's data before its FIN arrived — a legal
            // interleaving; retry.)
            skipped = true;
            break;
        }
        eprintln!(
            "attempt {attempt}: {} severed decides processed, retrying",
            granted - 1
        );
    }
    assert!(
        skipped,
        "severed frames were processed on every attempt — dead connections \
         are having their assembled frames decided"
    );
}

/// Regression (satellite): a handoff pull whose requesting connection
/// died mid-pull must still land its imported custody — counted
/// `net.orphaned-completion` — instead of being dropped, which would
/// strand the object (exported by the old custodian, resident nowhere).
#[test]
fn orphaned_completion_reparks_custody() {
    stacl_obs::set_telemetry(true);

    let d0 = spawn_daemon("orph-d0");
    let d1 = spawn_daemon("orph-d1");
    d0.add_peer(d1.name(), d1.addr());
    d1.add_peer(d0.name(), d0.addr());

    let timeout = Some(Duration::from_secs(5));
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];

    let mut landed: Option<String> = None;
    for attempt in 0..5 {
        let object = format!("o{attempt}");
        let baseline = stacl_obs::snapshot();

        // The object starts in d0's custody.
        let mut c0 = Client::connect(d0.addr(), "t", timeout).expect("connect");
        c0.arrive(&object, attempt as f64, None)
            .expect("arrival at d0");

        // Stall d0 so the pull cannot complete while the requesting
        // connection is alive...
        let staller = stall_loop(d0.addr(), 4, 120_000);

        // ...then ask d1 to pull the object from d0 and sever the
        // requesting connection. The short sleep lets the idle d1 read
        // and process the Arrive (spawning the pull) before the FIN.
        {
            let mut victim = TcpStream::connect(d1.addr()).expect("connect victim");
            victim.set_nodelay(true).unwrap();
            let mut bytes = Vec::new();
            wire::put_frame(
                &mut bytes,
                &Frame::Vocab {
                    names: vec![object.clone()],
                }
                .encode(),
            )
            .unwrap();
            wire::put_frame(
                &mut bytes,
                &Frame::Arrive {
                    object: 0,
                    time: 5.0,
                    from: Some("orph-d0".to_string()),
                }
                .encode(),
            )
            .unwrap();
            victim.write_all(&bytes).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            // Dropping the stream severs the requester mid-pull.
        }
        drain_stall(staller, 4);

        let deadline = Instant::now() + Duration::from_secs(3);
        let orphaned = loop {
            let d = stacl_obs::snapshot().diff(&baseline);
            if d.counter(Counter::NetOrphanedCompletion) >= 1 {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        // Whatever the interleaving, custody must land on d1 once the
        // pull succeeds.
        await_until("pull to land", || {
            d1.guard().custody_of(&object) == Custody::Resident
        });
        if orphaned {
            landed = Some(object);
            break;
        }
        // The completion beat the FIN (legal interleaving); retry with a
        // fresh object.
    }
    let object = landed.expect(
        "no attempt produced an orphaned completion — either the stall never \
         outlasted the severed requester, or orphans are being dropped",
    );

    // The custody was re-parked, not lost: resident on d1, remote on d0,
    // and a fresh client gets a grant at d1.
    assert_eq!(
        d1.guard().custody_of(&object),
        Custody::Resident,
        "re-parked"
    );
    assert_eq!(d0.guard().custody_of(&object), Custody::Remote, "exported");
    let mut c1 = Client::connect(d1.addr(), "t", timeout).expect("connect");
    let v = c1.decide_failsafe(&object, &access, &program, 9.0);
    assert_eq!(v.kind, DecisionKind::Granted, "custody usable after orphan");
}
