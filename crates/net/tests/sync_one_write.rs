//! Every synchronous frame reaches the socket in one write. A client
//! round trip (`decide`, `issue_proof`, the handshake and vocabulary
//! sync), a daemon's handoff pull and its rebalance push each send their
//! request whole, so the receiving side takes each frame in exactly one
//! read and never wakes on a lone length header.
//!
//! Both fake servers below count their own reads through a
//! [`FrameAssembler`]: a read that leaves part of a frame buffered means
//! the sender split it.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use stacl_coalition::{DecisionKind, Placement, ProofStore};
use stacl_naplet::guard::{CoordinatedGuard, Custody};
use stacl_net::frames::{kind_to_u8, Frame, HandoffWire};
use stacl_net::wire;
use stacl_net::{Client, DaemonConfig, FrameAssembler};
use stacl_rbac::{ExtendedRbac, RbacModel};
use stacl_sral::Access;

const ROUND_TRIPS: usize = 1000;

/// What a fake server saw: one entry per non-empty read, holding the
/// tags of the frames it completed and whether it left a partial frame
/// buffered.
#[derive(Debug, Default)]
struct Reads(Vec<(Vec<&'static str>, bool)>);

impl Reads {
    fn frames(&self) -> usize {
        self.0.iter().map(|(f, _)| f.len()).sum()
    }

    fn partial(&self) -> usize {
        self.0.iter().filter(|(_, p)| *p).count()
    }
}

/// Serve one connection until the peer closes it: read, answer every
/// frame the read completed in one write, and record the read.
fn serve_one(mut stream: TcpStream, answer: impl Fn(Frame) -> Frame) -> Reads {
    let mut asm = FrameAssembler::new();
    let mut reads = Reads::default();
    let mut out = Vec::new();
    loop {
        match asm.read_from(&mut stream) {
            Ok(0) | Err(_) => return reads,
            Ok(_) => {}
        }
        let mut tags = Vec::new();
        while let Some(payload) = asm.next_frame().expect("frame length in bounds") {
            let frame = Frame::decode(payload).expect("frames decode");
            tags.push(tag(&frame));
            wire::put_frame(&mut out, &answer(frame).encode()).unwrap();
        }
        reads.0.push((tags, asm.has_partial()));
        if stream.write_all(&out).is_err() {
            return reads;
        }
        out.clear();
    }
}

fn tag(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "Hello",
        Frame::Vocab { .. } => "Vocab",
        Frame::Decide2 { .. } => "Decide2",
        Frame::IssueProof { .. } => "IssueProof",
        Frame::HandoffRequest { .. } => "HandoffRequest",
        Frame::Rebalance { .. } => "Rebalance",
        _ => "other",
    }
}

fn spawn_fake(
    name: &'static str,
    answer: impl Fn(Frame) -> Frame + Send + 'static,
) -> (SocketAddr, JoinHandle<Reads>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        serve_one(stream, move |frame| match frame {
            Frame::Hello { id, .. } => Frame::HelloAck {
                id,
                server: name.to_string(),
            },
            other => answer(other),
        })
    });
    (addr, handle)
}

#[test]
fn client_round_trips_arrive_one_frame_per_read() {
    let (addr, server) = spawn_fake("fake-daemon", |frame| match frame {
        Frame::Vocab { id, .. } | Frame::IssueProof { id, .. } => Frame::Ok { id },
        Frame::Decide2 { id, .. } => Frame::Verdict2 {
            id,
            kind: kind_to_u8(DecisionKind::Granted),
            epoch: 1,
            reason: None,
        },
        other => panic!("fake daemon got unexpected {other:?}"),
    });
    let mut client =
        Client::connect(addr, "sync-client", Some(Duration::from_secs(5))).expect("connect");
    let access = Access::new("exec", "rsw", "s0");
    let remaining = [access.clone()];
    for i in 0..ROUND_TRIPS {
        let v = client
            .decide("obj", &access, &remaining, i as f64)
            .expect("decide");
        assert_eq!(v.kind, DecisionKind::Granted);
        client
            .issue_proof("obj", &access, i as f64)
            .expect("issue proof");
    }
    drop(client);

    let reads = server.join().expect("fake daemon");
    eprintln!(
        "{} reads, {} frames, {} left a partial frame",
        reads.0.len(),
        reads.frames(),
        reads.partial()
    );
    // Hello, one Vocab per new name (obj, exec, rsw, s0), then two frames
    // per round trip.
    assert_eq!(reads.frames(), 1 + 4 + 2 * ROUND_TRIPS);
    assert_eq!(reads.partial(), 0, "a synchronous frame left in pieces");
    assert_eq!(
        reads.0.len(),
        reads.frames(),
        "every synchronous frame takes exactly one read"
    );
}

#[test]
fn handoff_pull_sends_each_frame_whole() {
    // A clean, empty state: the receiver never enrolled the object, so
    // the import is a custody-only move.
    let (peer_addr, peer) = spawn_fake("fake-peer", |frame| match frame {
        Frame::HandoffRequest { id, object } => Frame::HandoffState {
            id,
            object,
            state: HandoffWire {
                watermark: 0,
                compaction_base: 0,
                clean: true,
                sender_clock: 0.0,
                sender_skew: 0.0,
                arrivals: Vec::new(),
                timelines: Vec::new(),
                spatial_ok: Vec::new(),
                cursor_seeds: Vec::new(),
            },
        },
        other => panic!("fake peer got unexpected {other:?}"),
    });
    let guard = CoordinatedGuard::new(ExtendedRbac::new(RbacModel::new()));
    guard.set_custody_enforcement(true);
    let mut cfg = DaemonConfig::new("puller");
    cfg.handoff_retries = 0;
    let mut daemon = stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback");
    daemon.add_peer("fake-peer", peer_addr);

    let mut client =
        Client::connect(daemon.addr(), "mover", Some(Duration::from_secs(5))).expect("connect");
    client
        .arrive("obj", 1.0, Some("fake-peer"))
        .expect("handoff pull from the fake peer");
    assert_eq!(daemon.guard().custody_of("obj"), Custody::Resident);
    drop(client);
    daemon.shutdown();

    let reads = peer.join().expect("fake peer");
    assert_eq!(
        reads.0,
        vec![(vec!["Hello"], false), (vec!["HandoffRequest"], false)],
        "each peer-link frame arrives whole, in one read"
    );
}

#[test]
fn rebalance_push_sends_each_frame_whole() {
    let peer_name = "fake-peer";
    let (peer_addr, peer) = spawn_fake(peer_name, |frame| match frame {
        Frame::Rebalance { id, .. } => Frame::Ok { id },
        other => panic!("fake peer got unexpected {other:?}"),
    });
    let guard = CoordinatedGuard::new(ExtendedRbac::new(RbacModel::new()));
    guard.set_custody_enforcement(true);
    let mut daemon =
        stacl_net::spawn(guard, ProofStore::new(), DaemonConfig::new("pusher")).expect("bind");
    let members = [
        ("pusher".to_string(), daemon.addr()),
        (peer_name.to_string(), peer_addr),
    ];
    // One resident key that the two-member ring homes on the peer: the
    // ring change drains exactly it.
    let ring = Placement::new(members.iter().map(|(n, _)| n.clone()));
    let object = (0..)
        .map(|i| format!("o{i}"))
        .find(|o| ring.home_of(o) == Some(peer_name))
        .expect("the peer homes some key");
    daemon
        .guard()
        .take_custody(&object)
        .expect("claim before the ring");
    assert_eq!(daemon.set_members(&members), 1, "one key to drain");

    // The push closes its connection once the peer answers.
    let reads = peer.join().expect("fake peer");
    daemon.shutdown();
    assert_eq!(
        reads.0,
        vec![(vec!["Hello"], false), (vec!["Rebalance"], false)],
        "each peer-link frame arrives whole, in one read"
    );
}
