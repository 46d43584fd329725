//! Pipeline correlation property tests against a *shuffling* fake
//! server: N interleaved in-flight requests get their responses back in
//! deliberately scrambled order, and every response must still land on
//! the request that asked for it. A window-full client must apply
//! backpressure (block) rather than drop requests, and a response
//! correlating to no in-flight request — never issued, or answered
//! already — must be a clean protocol error.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use stacl_coalition::{DecisionKind, Verdict};
use stacl_ids::prop::forall;
use stacl_ids::rng::SplitMix64;
use stacl_net::frames::{kind_to_u8, Frame};
use stacl_net::wire;
use stacl_net::{Client, FrameAssembler, NetError};
use stacl_sral::Access;

/// How the fake server answers `Decide2` frames.
#[derive(Clone, Copy)]
enum ReplyMode {
    /// Buffer per read burst, then reply in shuffled order; the reason
    /// echoes the request's `time` field so order restoration is
    /// observable end to end.
    Shuffled { seed: u64 },
    /// Reply to every request with its id plus `offset`: with fewer than
    /// `offset` requests in flight, an id that was never issued.
    Shifted { offset: u64 },
    /// Reply to every request twice, newest request first.
    Twice,
}

/// A single-connection fake daemon speaking just enough of the protocol
/// for pipelined clients: Hello/Vocab/Arrive get immediate replies,
/// `Decide2` replies are buffered per read burst and written back in
/// shuffled order. Flushing at read-idle keeps the exchange
/// deadlock-free no matter the client's window.
fn spawn_shuffler(mode: ReplyMode) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut rng = SplitMix64::seed_from_u64(match mode {
            ReplyMode::Shuffled { seed } => seed,
            _ => 0,
        });
        let mut asm = FrameAssembler::new();
        let mut pending: Vec<(u64, f64)> = Vec::new();
        let mut out = Vec::new();
        'conn: loop {
            if matches!(asm.read_from(&mut stream), Ok(0) | Err(_)) {
                break 'conn;
            }
            while let Some(payload) = asm.next_frame().expect("client frames reassemble") {
                let frame = Frame::decode(payload).expect("client frames decode");
                match frame {
                    Frame::Hello { id, .. } => {
                        let ack = Frame::HelloAck {
                            id,
                            server: "shuffler".to_string(),
                        };
                        wire::put_frame(&mut out, &ack.encode()).unwrap();
                    }
                    Frame::Vocab { id, .. }
                    | Frame::Arrive { id, .. }
                    | Frame::Enroll { id, .. }
                    | Frame::IssueProof { id, .. } => {
                        wire::put_frame(&mut out, &Frame::Ok { id }.encode()).unwrap();
                    }
                    Frame::Decide2 { id, item } => pending.push((id, item.time)),
                    Frame::Shutdown { id } => {
                        wire::put_frame(&mut out, &Frame::Ok { id }.encode()).unwrap();
                        let _ = stream.write_all(&out);
                        break 'conn;
                    }
                    other => panic!("fake server got unexpected {other:?}"),
                }
            }
            // Read-idle: answer everything buffered, scrambled.
            for i in (1..pending.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                pending.swap(i, j);
            }
            if let ReplyMode::Twice = mode {
                pending.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
            }
            for (id, time) in pending.drain(..) {
                let (id, copies) = match mode {
                    ReplyMode::Shuffled { .. } => (id, 1),
                    ReplyMode::Shifted { offset } => (id + offset, 1),
                    ReplyMode::Twice => (id, 2),
                };
                let v = Frame::Verdict2 {
                    id,
                    kind: kind_to_u8(DecisionKind::DeniedNoPermission),
                    epoch: 7,
                    reason: Some(format!("t-{time}")),
                };
                for _ in 0..copies {
                    wire::put_frame(&mut out, &v.encode()).unwrap();
                }
            }
            if stream.write_all(&out).is_err() {
                break 'conn;
            }
            out.clear();
        }
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, "prop-client", Some(Duration::from_secs(5))).expect("connect")
}

const ACCESS_PARTS: (&str, &str, &str) = ("read", "db", "s0");

/// Every shuffled response lands on the request that asked for it: the
/// verdict claimed for request id `i` must carry the reason that echoes
/// request `i`'s payload.
#[test]
fn shuffled_replies_correlate_by_request_id() {
    forall("pipeline-correlation", 0x51AB, 24, |r| {
        let n = r.gen_range(4usize..40);
        let window = r.gen_range(2usize..12);
        let (addr, server) = spawn_shuffler(ReplyMode::Shuffled { seed: r.next_u64() });
        let mut client = connect(addr);
        let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
        let remaining = [access.clone()];

        let mut expect: Vec<(u64, String)> = Vec::new();
        let mut got: Vec<(u64, Verdict)> = Vec::new();
        let mut p = client.pipeline(window).expect("pipeline");
        for i in 0..n {
            let id = p
                .submit("obj", &access, &remaining, i as f64)
                .expect("submit");
            assert!(
                p.in_flight() <= window,
                "window {window} exceeded: {} in flight",
                p.in_flight()
            );
            expect.push((id, format!("t-{}", i as f64)));
            got.extend(p.take());
        }
        got.extend(p.finish().expect("drain"));

        assert_eq!(got.len(), n, "responses dropped or duplicated");
        got.sort_by_key(|(id, _)| *id);
        expect.sort_by_key(|(id, _)| *id);
        for ((gid, v), (eid, reason)) in got.iter().zip(&expect) {
            assert_eq!(gid, eid, "request id lost");
            assert_eq!(
                v.reason.as_deref(),
                Some(reason.as_str()),
                "verdict for id {gid} correlates to the wrong request"
            );
        }
        drop(client);
        server.join().expect("server thread");
    });
}

/// `decide_stream_failsafe` returns verdicts in *request order* even
/// though the wire delivered them scrambled — also when some requests
/// name objects not announced yet, so `Vocab` calls take request ids in
/// the middle of the window and the decides' ids are not consecutive.
#[test]
fn stream_failsafe_restores_request_order_under_shuffle() {
    forall("pipeline-order", 0x51AC, 16, |r| {
        let n = r.gen_range(2usize..32);
        let window = r.gen_range(1usize..9);
        let (addr, server) = spawn_shuffler(ReplyMode::Shuffled { seed: r.next_u64() });
        let mut client = connect(addr);
        let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
        let remaining = [access.clone()];
        // The middle request always names a fresh object; others may.
        let objects: Vec<String> = (0..n)
            .map(|i| {
                if i == n / 2 || r.gen_bool(0.25) {
                    format!("fresh-{i}")
                } else {
                    "obj".to_string()
                }
            })
            .collect();
        let requests: Vec<(&str, &Access, &[Access], f64)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.as_str(), &access, &remaining[..], i as f64))
            .collect();
        let verdicts = client.decide_stream_failsafe(&requests, window);
        assert_eq!(verdicts.len(), n);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(
                v.reason.as_deref(),
                Some(format!("t-{}", i as f64).as_str()),
                "slot {i} holds another request's verdict"
            );
            assert_eq!(v.epoch, 7);
        }
        drop(client);
        server.join().expect("server thread");
    });
}

/// A full window blocks the submitter until a slot frees — it never
/// discards a request. All N ≫ window requests must complete exactly
/// once with the window bound respected throughout.
#[test]
fn window_full_applies_backpressure_not_drop() {
    let (addr, server) = spawn_shuffler(ReplyMode::Shuffled { seed: 0xBEE5 });
    let mut client = connect(addr);
    let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
    let remaining = [access.clone()];
    const N: usize = 64;
    const WINDOW: usize = 4;

    let mut p = client.pipeline(WINDOW).expect("pipeline");
    let mut done = 0usize;
    for i in 0..N {
        p.submit("obj", &access, &remaining, i as f64)
            .expect("submit");
        assert!(p.in_flight() <= WINDOW, "backpressure bound violated");
        done += p.take().len();
    }
    done += p.finish().expect("drain").len();
    assert_eq!(done, N, "requests dropped under backpressure");
    drop(client);
    server.join().expect("server thread");
}

/// Submit `requests` decisions to a server answering in `mode`, and
/// require the drain to fail with the no-in-flight protocol error.
fn assert_correlation_error(mode: ReplyMode, requests: usize) {
    let (addr, server) = spawn_shuffler(mode);
    let mut client = connect(addr);
    let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
    let remaining = [access.clone()];

    let mut p = client.pipeline(4).expect("pipeline");
    for i in 0..requests {
        p.submit("obj", &access, &remaining, i as f64)
            .expect("submit");
    }
    let err = p.finish().expect_err("a stray id must not resolve");
    match err {
        NetError::Protocol(msg) => {
            assert!(
                msg.contains("no in-flight"),
                "unexpected protocol error: {msg}"
            );
        }
        other => panic!("expected protocol error, got {other}"),
    }
    drop(client);
    let _ = server.join();
}

/// A response correlating to no in-flight request is a protocol error —
/// not a silent drop, not a panic.
#[test]
fn unknown_request_id_is_a_protocol_error() {
    assert_correlation_error(ReplyMode::Shifted { offset: 1_000_000 }, 1);
}

/// The first id not yet issued is as unknown as any later one.
#[test]
fn next_unissued_request_id_is_a_protocol_error() {
    assert_correlation_error(ReplyMode::Shifted { offset: 1 }, 1);
}

/// A second verdict for an id already completed correlates to nothing,
/// even while an older request is still in flight: the duplicate of
/// request 1 reaches the client before request 0's verdict, so the drain
/// must meet it.
#[test]
fn duplicate_verdict_is_a_protocol_error() {
    assert_correlation_error(ReplyMode::Twice, 2);
}
