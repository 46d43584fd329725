//! A full pipeline window refills in bursts: once the window is full,
//! the client absorbs every reply a read delivered before it writes
//! again, so the freed slots leave in one write instead of one write
//! each. Against a server that answers each read burst with one write,
//! client write-flushes must stay far below one per decision.
//!
//! Keep this file to a single `#[test]`: the `net.write-flush` counter is
//! process-global, and another test in the same binary would add to it.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use stacl_coalition::DecisionKind;
use stacl_net::frames::{kind_to_u8, Frame};
use stacl_net::wire;
use stacl_net::{Client, FrameAssembler};
use stacl_obs::Counter;
use stacl_sral::Access;

const DECISIONS: usize = 4096;
const WINDOW: usize = 256;

/// A single-connection fake daemon: Hello/Vocab get immediate replies,
/// and every `Decide2` of one read burst is answered in the same write.
fn spawn_burst_server() -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        loop {
            if matches!(asm.read_from(&mut stream), Ok(0) | Err(_)) {
                return;
            }
            while let Some(payload) = asm.next_frame().expect("client frames reassemble") {
                let reply = match Frame::decode(payload).expect("client frames decode") {
                    Frame::Hello { proto, .. } => Frame::HelloAck {
                        proto: proto.min(2),
                        server: "burst".to_string(),
                    },
                    Frame::Vocab { .. } => Frame::Ok,
                    Frame::Decide2 { id, .. } => Frame::Verdict2 {
                        id,
                        kind: kind_to_u8(DecisionKind::Granted),
                        epoch: 1,
                        reason: None,
                    },
                    other => panic!("fake server got unexpected {other:?}"),
                };
                wire::put_frame(&mut out, &reply.encode()).unwrap();
            }
            if stream.write_all(&out).is_err() {
                return;
            }
            out.clear();
        }
    });
    (addr, handle)
}

#[test]
fn full_window_refills_in_one_write() {
    let (addr, server) = spawn_burst_server();
    let mut client =
        Client::connect(addr, "refill-client", Some(Duration::from_secs(5))).expect("connect");
    let access = Access::new("exec", "rsw", "s0");
    let remaining = [access.clone()];
    client
        .sync_vocab(["obj", "exec", "rsw", "s0"])
        .expect("vocabulary sync");

    stacl_obs::reset();
    let mut done = 0usize;
    let mut p = client.pipeline(WINDOW).expect("pipeline");
    for i in 0..DECISIONS {
        p.submit("obj", &access, &remaining, i as f64)
            .expect("submit");
        done += p.take().len();
    }
    done += p.finish().expect("drain").len();
    let flushes = stacl_obs::snapshot().counter(Counter::NetWriteFlush);
    eprintln!("{flushes} client write-flushes for {DECISIONS} decisions");

    assert_eq!(done, DECISIONS, "every decision completes exactly once");
    assert!(
        flushes as usize <= DECISIONS / 8,
        "{flushes} client write-flushes for {DECISIONS} decisions: the window refills one request per write"
    );
    drop(client);
    server.join().expect("server thread");
}
