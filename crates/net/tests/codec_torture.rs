//! Reassembly torture tests for the streaming codec: every frame type is
//! fed to the [`FrameAssembler`] one byte at a time and in random-split
//! chunks, and the reassembled payloads must be byte-identical to the
//! whole-frame encoding. A final integration test proves a stalled
//! partial frame on one connection never blocks service on another.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use common::gen_frame;
use stacl_coalition::ProofStore;
use stacl_ids::prop::forall;
use stacl_naplet::guard::CoordinatedGuard;
use stacl_net::frames::Frame;
use stacl_net::wire;
use stacl_net::{Client, DaemonConfig, FrameAssembler};
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::Access;

/// One byte at a time: the assembler must stay silent on every strict
/// prefix (reporting a buffered partial), then yield exactly the encoded
/// payload on the final byte — byte-identical to whole-frame decode.
#[test]
fn byte_at_a_time_reassembly_is_exact() {
    forall("torture-byte-at-a-time", 0x7041, 256, |r| {
        let frame = gen_frame(r);
        let payload = frame.encode();
        let mut stream = Vec::new();
        wire::put_frame(&mut stream, &payload).expect("encode under MAX_FRAME_LEN");

        let mut asm = FrameAssembler::new();
        for (i, byte) in stream.iter().enumerate() {
            asm.read_from(&mut std::slice::from_ref(byte))
                .expect("clean read");
            let got = asm.next_frame().expect("clean reassembly");
            if i + 1 < stream.len() {
                assert!(
                    got.is_none(),
                    "frame surfaced {} bytes early",
                    stream.len() - i - 1
                );
                assert!(asm.has_partial(), "partial not tracked at byte {i}");
            } else {
                let got = got.expect("final byte completes the frame");
                assert_eq!(got, payload, "reassembled payload differs from encoding");
                let back = Frame::decode(got).expect("reassembled payload decodes");
                assert_eq!(back, frame, "reassembly changed the frame");
            }
        }
        assert!(
            !asm.has_partial(),
            "assembler left residue after full frame"
        );
        assert_eq!(
            asm.buffered(),
            0,
            "assembler buffered bytes after full frame"
        );
    });
}

/// Random-split chunks: a run of frames concatenated on the wire, cut at
/// arbitrary boundaries (including mid-header and mid-body), must
/// reassemble to the same payload sequence in order.
#[test]
fn random_split_reassembly_is_exact() {
    forall("torture-random-split", 0x7042, 256, |r| {
        let n = r.gen_range(1usize..6);
        let frames: Vec<Frame> = (0..n).map(|_| gen_frame(r)).collect();
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for f in &frames {
            let p = f.encode();
            wire::put_frame(&mut stream, &p).expect("encode under MAX_FRAME_LEN");
            payloads.push(p);
        }

        let mut asm = FrameAssembler::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let take = (r.gen_range(0usize..16) + 1).min(stream.len() - pos);
            asm.read_from(&mut &stream[pos..pos + take])
                .expect("clean read");
            pos += take;
            while let Some(p) = asm.next_frame().expect("clean reassembly") {
                got.push(p.to_vec());
            }
        }
        assert_eq!(
            got, payloads,
            "chunked reassembly differs from whole-frame payloads"
        );
        for (p, f) in got.iter().zip(&frames) {
            assert_eq!(&Frame::decode(p).expect("payload decodes"), f);
        }
        assert!(!asm.has_partial(), "assembler left residue after the run");
    });
}

/// Interleaving torture: two logical streams cut into chunks and fed to
/// two *independent* assemblers in alternation — progress on one stream
/// never depends on the other, mirroring per-connection buffers in the
/// event loop.
#[test]
fn independent_assemblers_do_not_interfere() {
    forall("torture-interleave", 0x7043, 128, |r| {
        let fa = gen_frame(r);
        let fb = gen_frame(r);
        let (pa, pb) = (fa.encode(), fb.encode());
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        wire::put_frame(&mut sa, &pa).unwrap();
        wire::put_frame(&mut sb, &pb).unwrap();

        let mut asm_a = FrameAssembler::new();
        let mut asm_b = FrameAssembler::new();
        // Feed stream A fully except its last byte — a stalled partial.
        asm_a.read_from(&mut &sa[..sa.len() - 1]).unwrap();
        assert!(asm_a.next_frame().unwrap().is_none());
        // Stream B completes regardless.
        asm_b.read_from(&mut &sb[..]).unwrap();
        assert_eq!(asm_b.next_frame().unwrap().expect("B completes"), pb);
        // A finishes only when its own last byte arrives.
        asm_a.read_from(&mut &sa[sa.len() - 1..]).unwrap();
        assert_eq!(asm_a.next_frame().unwrap().expect("A completes"), pa);
    });
}

fn make_guard() -> CoordinatedGuard {
    let mut model = RbacModel::new();
    model.add_role("staff");
    model
        .add_permission(Permission::new("p-any", AccessPattern::any()))
        .unwrap();
    model.assign_permission("staff", "p-any").unwrap();
    model.add_user("obj");
    model.assign_user("obj", "staff").unwrap();
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("obj", ["staff"]);
    guard
}

/// A connection that trickles half a frame header and then stalls must
/// not block the event loop: a second connection opened afterwards gets
/// served promptly while the stalled bytes sit in the first
/// connection's private buffer.
#[test]
fn stalled_partial_never_blocks_other_connections() {
    let cfg = DaemonConfig::new("torture-d0");
    let mut h = stacl_net::spawn(make_guard(), ProofStore::new(), cfg).expect("bind loopback");
    let addr: SocketAddr = h.addr();

    // Connection A: write 3 of the 4 length-prefix bytes, then stall.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled conn");
    stalled
        .write_all(&[0x09, 0x00, 0x00])
        .expect("trickle partial header");

    // Connection B: a full client round-trip must complete promptly.
    let started = Instant::now();
    let mut client = Client::connect(addr, "torture-client", Some(Duration::from_secs(5)))
        .expect("connect while peer stalls");
    let access = Access::new("read", "db", "s0");
    client.arrive("obj", 0.0, None).expect("arrival");
    let v = client
        .decide("obj", &access, std::slice::from_ref(&access), 0.0)
        .expect("decision while peer stalls");
    assert!(v.kind.is_granted(), "expected grant, got {v:?}");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "stalled connection delayed an independent client: {:?}",
        started.elapsed()
    );

    drop(stalled);
    h.shutdown();
}
