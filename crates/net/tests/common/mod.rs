//! Shared helpers for the stacl-net test binaries: frame generators
//! covering every encodable frame, so both the round-trip property tests
//! and the reassembly torture tests draw from the same space, and a
//! blocking frame reader for tests that talk to a daemon over a raw
//! socket.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::io::Read;

use stacl_ids::rng::SplitMix64;
use stacl_net::frames::{DecideItem, Frame, HandoffWire, WireAccess, WireBudget, WireTimeline};
use stacl_net::FrameAssembler;

/// The next whole frame on a blocking stream, read through `asm`. Bytes
/// of later frames that arrive with it stay buffered in `asm`.
pub fn recv_frame(asm: &mut FrameAssembler, r: &mut impl Read) -> Frame {
    loop {
        if let Some(payload) = asm.next_frame().expect("frame length in bounds") {
            return Frame::decode(payload).expect("frame decodes");
        }
        assert!(
            asm.read_from(r).expect("read a frame") > 0,
            "stream closed mid-frame"
        );
    }
}

pub fn gen_string(r: &mut SplitMix64) -> String {
    const POOL: &[&str] = &["", "o1", "read", "db", "s0", "héllo-wörld", "a b c", "🌍"];
    r.choose(POOL).to_string()
}

pub fn gen_access(r: &mut SplitMix64) -> WireAccess {
    WireAccess {
        op: r.gen_range(0u32..9),
        resource: r.gen_range(0u32..9),
        server: r.gen_range(0u32..9),
    }
}

pub fn gen_item(r: &mut SplitMix64) -> DecideItem {
    let n = r.gen_range(0usize..4);
    DecideItem {
        object: r.gen_range(0u32..9),
        time: r.gen_range(0i64..1000) as f64 / 8.0,
        access: gen_access(r),
        remaining: (0..n).map(|_| gen_access(r)).collect(),
    }
}

pub fn gen_timeline(r: &mut SplitMix64) -> WireTimeline {
    let n = r.gen_range(0usize..3);
    WireTimeline {
        budget: r.gen_bool(0.5).then(|| r.gen_range(0i64..100) as f64 / 4.0),
        scheme: r.gen_range(0u32..2) as u8,
        arrivals: (0..n).map(|i| i as f64).collect(),
        toggles: (0..n).map(|i| (i as f64, i % 2 == 0)).collect(),
        active_now: r.gen_bool(0.5),
    }
}

pub fn gen_handoff(r: &mut SplitMix64) -> HandoffWire {
    let nt = r.gen_range(0usize..3);
    let ns = r.gen_range(0usize..3);
    let watermark = r.gen_range(0u64..1_000_000);
    HandoffWire {
        watermark,
        // The decoder rejects a base above the watermark, so generate in
        // range.
        compaction_base: watermark.min(r.next_u64() % 1_000),
        clean: r.gen_bool(0.5),
        sender_clock: r.gen_range(0i64..1000) as f64,
        sender_skew: r.gen_range(0i64..5) as f64,
        arrivals: (0..ns).map(|i| i as f64 * 1.5).collect(),
        timelines: (0..nt)
            .map(|_| {
                let key = if r.gen_bool(0.5) {
                    WireBudget::Perm(gen_string(r))
                } else {
                    WireBudget::Class(gen_string(r))
                };
                (key, gen_timeline(r))
            })
            .collect(),
        spatial_ok: (0..ns).map(|_| gen_string(r)).collect(),
        cursor_seeds: (0..nt)
            .map(|_| (gen_string(r), r.next_u64() % 100))
            .collect(),
    }
}

/// A frame of any variant, every one carrying a drawn request id.
pub fn gen_frame(r: &mut SplitMix64) -> Frame {
    let id = r.next_u64();
    match r.gen_range(0u32..20) {
        0 => Frame::Hello {
            id,
            peer: gen_string(r),
        },
        1 => Frame::Vocab {
            id,
            names: (0..r.gen_range(0usize..5)).map(|_| gen_string(r)).collect(),
        },
        2 => Frame::Enroll {
            id,
            object: r.gen_range(0u32..9),
            roles: (0..r.gen_range(0usize..4))
                .map(|_| r.gen_range(0u32..9))
                .collect(),
        },
        3 => Frame::IssueProof {
            id,
            object: r.gen_range(0u32..9),
            access: gen_access(r),
            time: r.gen_range(0i64..1000) as f64,
        },
        4 => Frame::Arrive {
            id,
            object: r.gen_range(0u32..9),
            time: r.gen_range(0i64..1000) as f64,
            from: r.gen_bool(0.5).then(|| gen_string(r)),
        },
        5 => Frame::HandoffRequest {
            id,
            object: gen_string(r),
        },
        6 => Frame::MetricsRequest { id },
        7 => Frame::Shutdown { id },
        8 => Frame::HelloAck {
            id,
            server: gen_string(r),
        },
        9 => Frame::Ok { id },
        10 => Frame::HandoffState {
            id,
            object: gen_string(r),
            state: gen_handoff(r),
        },
        11 => Frame::PolicyPrepare {
            id,
            epoch: r.gen_range(0u32..9) as u64,
            policy: gen_string(r),
            classes: (0..r.gen_range(0usize..3))
                .map(|_| {
                    (
                        gen_string(r),
                        r.gen_range(0i64..100) as f64 / 4.0,
                        r.gen_range(0u32..2) as u8,
                    )
                })
                .collect(),
        },
        12 => Frame::PolicyActivate {
            id,
            epoch: r.gen_range(0u32..9) as u64,
        },
        13 => Frame::EpochAck {
            id,
            epoch: r.gen_range(0u32..9) as u64,
        },
        14 => Frame::MetricsJson {
            id,
            json: gen_string(r),
        },
        15 => Frame::Decide2 {
            id,
            item: gen_item(r),
        },
        16 => Frame::Verdict2 {
            id,
            kind: r.gen_range(0u32..6) as u8,
            epoch: r.gen_range(0u32..9) as u64,
            reason: r.gen_bool(0.5).then(|| gen_string(r)),
        },
        17 => Frame::Err2 {
            id,
            code: r.gen_range(0u32..9) as u8,
            msg: gen_string(r),
        },
        // Placement frames: custody rebalance, decide redirect.
        18 => Frame::Rebalance {
            id,
            object: gen_string(r),
            state: gen_handoff(r),
        },
        _ => Frame::Redirect2 {
            id,
            object: gen_string(r),
            home: gen_string(r),
            addr: r.gen_bool(0.5).then(|| gen_string(r)),
        },
    }
}
