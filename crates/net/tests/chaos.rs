//! Chaos test: kill one of four coalition members mid-episode and require
//! that every decision touching its custodied objects resolves to a
//! *counted* fail-safe `DeniedCoordination` — no hang, no panic — while
//! the surviving members keep granting.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

mod common;

use stacl_coalition::{DecisionKind, ProofStore};
use stacl_naplet::guard::CoordinatedGuard;
use stacl_net::frames::{DecideItem, Frame, WireAccess, ERR_BAD_REQUEST, ERR_HANDOFF};
use stacl_net::{wire, Client, DaemonConfig, FrameAssembler, NetError, PROTOCOL_VERSION};
use stacl_obs::Counter;
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::Access;

const OBJECTS: [&str; 4] = ["o0", "o1", "o2", "o3"];

/// A minimal coalition policy: every object holds `staff`, which grants
/// any access. All members carry the same replica, custody enforced.
fn make_guard() -> CoordinatedGuard {
    let mut model = RbacModel::new();
    model.add_role("staff");
    model
        .add_permission(Permission::new("p-any", AccessPattern::any()))
        .unwrap();
    model.assign_permission("staff", "p-any").unwrap();
    for obj in OBJECTS {
        model.add_user(obj);
        model.assign_user(obj, "staff").unwrap();
    }
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    for obj in OBJECTS {
        guard.enroll(obj, ["staff"]);
    }
    guard.set_custody_enforcement(true);
    guard
}

#[test]
fn killed_member_fails_safe_to_denied_coordination() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    // Four members; short peer-I/O timeouts so the test stays fast.
    let mut handles = Vec::new();
    for i in 0..4 {
        let mut cfg = DaemonConfig::new(format!("d{i}"));
        cfg.io_timeout = Duration::from_millis(300);
        cfg.handoff_backoff = Duration::from_millis(5);
        cfg.handoff_retries = 2;
        let h = stacl_net::spawn(make_guard(), ProofStore::new(), cfg).expect("bind loopback");
        handles.push(h);
    }
    let peers: Vec<(String, SocketAddr)> = handles
        .iter()
        .map(|h| (h.name().to_string(), h.addr()))
        .collect();
    for h in &handles {
        for (n, a) in &peers {
            if n != h.name() {
                h.add_peer(n, *a);
            }
        }
    }

    let timeout = Some(Duration::from_secs(1));
    let mut clients: Vec<Client> = handles
        .iter()
        .map(|h| Client::connect(h.addr(), "chaos-driver", timeout).expect("connect"))
        .collect();

    // Each object arrives at its own member, which takes custody.
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    for (i, obj) in OBJECTS.iter().enumerate() {
        clients[i]
            .arrive(obj, i as f64, None)
            .expect("first arrival");
    }

    // Sanity: before the failure every member grants for its object.
    for (i, obj) in OBJECTS.iter().enumerate() {
        let v = clients[i].decide_failsafe(obj, &access, &program, 10.0);
        assert_eq!(v.kind, DecisionKind::Granted, "pre-kill grant for {obj}");
    }

    // Kill d2: listener closed, live connections severed, thread gone.
    handles[2].kill();

    // (a) An in-flight decision against the dead member fails safe: the
    // client counts it and synthesizes DeniedCoordination, never hangs.
    let v = clients[2].decide_failsafe("o2", &access, &program, 20.0);
    assert_eq!(
        v.kind,
        DecisionKind::DeniedCoordination,
        "dead-member decide"
    );
    assert!(
        v.reason.as_deref().unwrap_or("").contains("unreachable"),
        "fail-safe reason names the unreachable member: {:?}",
        v.reason
    );

    // (b) o2 migrates to d1, naming the dead d2 as previous custodian.
    // The handoff pull retries, exhausts, and the arrival is rejected
    // with the handoff error code — custody stays in flight.
    let err = clients[1]
        .arrive("o2", 21.0, Some("d2"))
        .expect_err("handoff from a dead member cannot succeed");
    match err {
        NetError::Daemon { code, .. } => assert_eq!(code, ERR_HANDOFF, "handoff error code"),
        other => panic!("expected a daemon handoff error, got: {other}"),
    }

    // (c) While custody is in flight, decisions for o2 at d1 fail safe.
    let v = clients[1].decide_failsafe("o2", &access, &program, 22.0);
    assert_eq!(
        v.kind,
        DecisionKind::DeniedCoordination,
        "in-flight custody"
    );

    // (d) Survivors are unaffected: d0 still grants for o0.
    let v = clients[0].decide_failsafe("o0", &access, &program, 23.0);
    assert_eq!(v.kind, DecisionKind::Granted, "survivor keeps granting");

    // Every fail-safe path was counted, not silently swallowed.
    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(
        d.counter(Counter::NetFailsafeDenial) >= 1,
        "fail-safe denials counted"
    );
    assert!(d.counter(Counter::NetRetry) >= 1, "handoff retries counted");
    assert!(
        d.counter(Counter::NetHandoffFailed) >= 1,
        "failed handoff counted"
    );
    assert!(
        d.counter(Counter::VerdictDeniedCoordination) >= 1,
        "coordination denials counted"
    );

    drop(clients);
    for mut h in handles {
        h.shutdown();
    }
}

/// Kill a member with a full pipelined window in flight: every
/// outstanding request must resolve to a *counted* fail-safe
/// `DeniedCoordination` — none dropped, none hung.
#[test]
fn killed_member_fails_whole_pipeline_window_safe() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let mut cfg = DaemonConfig::new("pipe-kill-d0");
    cfg.io_timeout = Duration::from_millis(300);
    let mut h = stacl_net::spawn(make_guard(), ProofStore::new(), cfg).expect("bind loopback");

    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    let mut client =
        Client::connect(h.addr(), "pipe-chaos", Some(Duration::from_secs(1))).expect("connect");
    client.arrive("o0", 0.0, None).expect("arrival");

    // Prove the pipelined path is live before the failure.
    let warm = client.decide_stream_failsafe(&[("o0", &access, &program[..], 1.0)], 4);
    assert_eq!(
        warm[0].kind,
        DecisionKind::Granted,
        "pre-kill pipelined grant"
    );

    // Kill the daemon, then drive a full window of requests at the
    // corpse. The stream must come back complete — one verdict per
    // request, all fail-safe coordination denials, each counted.
    h.kill();
    const N: usize = 16;
    let requests: Vec<(&str, &Access, &[Access], f64)> = (0..N)
        .map(|i| ("o0", &access, &program[..], 2.0 + i as f64))
        .collect();
    let verdicts = client.decide_stream_failsafe(&requests, 8);
    assert_eq!(verdicts.len(), N, "a request was dropped mid-window");
    for (i, v) in verdicts.iter().enumerate() {
        assert_eq!(
            v.kind,
            DecisionKind::DeniedCoordination,
            "slot {i} did not fail safe: {v:?}"
        );
        assert!(
            v.reason.as_deref().unwrap_or("").contains("unreachable"),
            "slot {i} reason names the unreachable member: {:?}",
            v.reason
        );
    }
    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(
        d.counter(Counter::NetFailsafeDenial) >= N as u64,
        "every window slot counted a fail-safe denial (got {})",
        d.counter(Counter::NetFailsafeDenial)
    );
}

/// Slow-loris: a connection trickles part of a frame header and then
/// stalls. The event loop must evict the idle partial on its deadline —
/// counted — while continuing to serve well-behaved clients, and the
/// loris must observe its connection closed.
#[test]
fn slow_loris_partial_is_evicted_on_deadline() {
    stacl_obs::set_telemetry(true);
    let baseline = stacl_obs::snapshot();

    let mut cfg = DaemonConfig::new("loris-d0");
    cfg.partial_deadline = Duration::from_millis(100);
    let mut h = stacl_net::spawn(make_guard(), ProofStore::new(), cfg).expect("bind loopback");

    // The loris: three bytes of a length prefix, then silence.
    let mut loris = TcpStream::connect(h.addr()).expect("connect loris");
    loris
        .write_all(&[0x20, 0x00, 0x00])
        .expect("trickle header");

    // A well-behaved client keeps getting service while the loris stalls.
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    let mut client =
        Client::connect(h.addr(), "polite", Some(Duration::from_secs(1))).expect("connect");
    client.arrive("o0", 0.0, None).expect("arrival");
    let v = client.decide_failsafe("o0", &access, &program, 1.0);
    assert_eq!(v.kind, DecisionKind::Granted, "polite client served");

    // The loris is evicted on the deadline: its socket reaches EOF and
    // the eviction is counted. Poll with a generous overall budget.
    loris
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let started = std::time::Instant::now();
    let mut evicted = false;
    let mut byte = [0u8; 1];
    while started.elapsed() < Duration::from_secs(5) {
        match loris.read(&mut byte) {
            Ok(0) => {
                evicted = true;
                break;
            }
            Ok(_) => panic!("daemon wrote to a half-open partial connection"),
            Err(_) => {} // timeout — keep waiting for the deadline
        }
    }
    assert!(evicted, "stalled partial connection was never evicted");
    let d = stacl_obs::snapshot().diff(&baseline);
    assert!(
        d.counter(Counter::NetPartialEviction) >= 1,
        "eviction was not counted"
    );

    // Service continues after the eviction.
    let v = client.decide_failsafe("o0", &access, &program, 2.0);
    assert_eq!(v.kind, DecisionKind::Granted, "post-eviction service");
    h.shutdown();
}

/// Append `frame`, length-prefixed, to `out`.
fn put(out: &mut Vec<u8>, frame: &Frame) {
    wire::put_frame(out, &frame.encode()).expect("frame under the cap");
}

/// A raw connection to `addr` whose reads give up after five seconds.
fn raw(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// A custody pull from a peer that never answers holds back only its own
/// reply. On one connection, an `Arrive` that must pull from the silent
/// peer is followed by a `MetricsRequest`: the metrics reply, carrying
/// its own id, comes at once, and the `Arrive`'s `Err2` follows when the
/// pull times out.
#[test]
fn reply_overtakes_a_stalled_handoff_pull() {
    // Connections to the silent peer complete in the listen backlog, but
    // nothing ever reads from or answers them.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind the silent peer");
    let io_timeout = Duration::from_millis(600);
    let mut cfg = DaemonConfig::new("overtake-d0");
    cfg.io_timeout = io_timeout;
    cfg.handoff_retries = 0;
    let mut h = stacl_net::spawn(make_guard(), ProofStore::new(), cfg).expect("bind loopback");
    h.add_peer("silent", silent.local_addr().unwrap());

    let mut s = raw(h.addr());
    let mut bytes = Vec::new();
    put(
        &mut bytes,
        &Frame::Vocab {
            id: 1,
            names: vec!["o1".to_string()],
        },
    );
    put(
        &mut bytes,
        &Frame::Arrive {
            id: 2,
            object: 0,
            time: 1.0,
            from: Some("silent".to_string()),
        },
    );
    put(&mut bytes, &Frame::MetricsRequest { id: 3 });
    let t0 = Instant::now();
    s.write_all(&bytes).unwrap();

    let mut asm = FrameAssembler::new();
    let got = common::recv_frame(&mut asm, &mut s);
    assert_eq!(got, Frame::Ok { id: 1 });
    match common::recv_frame(&mut asm, &mut s) {
        Frame::MetricsJson { id: 3, .. } => {}
        other => panic!("expected the metrics reply before the stalled pull's, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(
        waited < io_timeout / 3,
        "the metrics reply waited {waited:?} behind the pull"
    );
    match common::recv_frame(&mut asm, &mut s) {
        Frame::Err2 { id: 2, code, .. } => assert_eq!(code, ERR_HANDOFF),
        other => panic!("expected the Arrive's handoff error, got {other:?}"),
    }
    assert!(
        t0.elapsed() >= io_timeout,
        "the pull failed before its peer I/O timeout"
    );
    h.shutdown();
}

/// A request that fails to decode is answered by an `Err2` echoing the
/// id in its header, and its connection keeps being served. A payload
/// too short to hold an id has no request to answer: it closes its own
/// connection and no other.
#[test]
fn undecodable_request_is_answered_by_its_id() {
    let mut h = stacl_net::spawn(
        make_guard(),
        ProofStore::new(),
        DaemonConfig::new("bad-frame-d0"),
    )
    .expect("bind loopback");
    let access = Access::new("read", "db", "s0");
    let program = [access.clone()];
    let mut bystander =
        Client::connect(h.addr(), "bystander", Some(Duration::from_secs(5))).expect("connect");
    bystander.arrive("o0", 0.0, None).expect("arrival");

    // A Decide2 with one trailing byte, then a well-formed request.
    let wa = WireAccess {
        op: 0,
        resource: 0,
        server: 0,
    };
    let mut payload = Frame::Decide2 {
        id: 77,
        item: DecideItem {
            object: 0,
            time: 1.0,
            access: wa.clone(),
            remaining: vec![wa],
        },
    }
    .encode();
    payload.push(0);
    let mut bytes = Vec::new();
    wire::put_frame(&mut bytes, &payload).unwrap();
    put(&mut bytes, &Frame::MetricsRequest { id: 78 });
    let mut s = raw(h.addr());
    s.write_all(&bytes).unwrap();
    let mut asm = FrameAssembler::new();
    match common::recv_frame(&mut asm, &mut s) {
        Frame::Err2 { id: 77, code, .. } => assert_eq!(code, ERR_BAD_REQUEST),
        other => panic!("expected an Err2 echoing id 77, got {other:?}"),
    }
    assert!(matches!(
        common::recv_frame(&mut asm, &mut s),
        Frame::MetricsJson { id: 78, .. }
    ));

    // Five bytes: a version, a `Decide2` tag and three bytes of an id.
    let mut short = raw(h.addr());
    let mut bytes = Vec::new();
    wire::put_frame(&mut bytes, &[PROTOCOL_VERSION, 0x10, 0, 0, 0]).unwrap();
    short.write_all(&bytes).unwrap();
    let mut byte = [0u8; 1];
    match short.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("expected the short payload's connection closed, got {other:?}"),
    }

    // The other connections are still served.
    let v = bystander.decide_failsafe("o0", &access, &program, 2.0);
    assert_eq!(v.kind, DecisionKind::Granted, "bystander served");
    let mut bytes = Vec::new();
    put(&mut bytes, &Frame::MetricsRequest { id: 79 });
    s.write_all(&bytes).unwrap();
    assert!(matches!(
        common::recv_frame(&mut asm, &mut s),
        Frame::MetricsJson { id: 79, .. }
    ));
    h.shutdown();
}
