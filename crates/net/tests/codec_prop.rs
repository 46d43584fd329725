//! Property tests for the wire codec: every generable frame round-trips
//! byte-exactly, and no truncation or corruption of a valid encoding can
//! make the decoder panic — malformed input is always a clean
//! [`WireError`].

mod common;

use common::gen_frame;
use stacl_ids::prop::forall;
use stacl_net::frames::Frame;
use stacl_net::{WireError, PROTOCOL_VERSION};

#[test]
fn arbitrary_frames_round_trip() {
    forall("frame-round-trip", 0xF00D, 512, |r| {
        let frame = gen_frame(r);
        let bytes = frame.encode();
        let back = Frame::decode(&bytes).unwrap_or_else(|e| {
            panic!("decode of encoded {frame:?} failed: {e}");
        });
        assert_eq!(back, frame, "round-trip changed the frame");
        assert_eq!(back.encode(), bytes, "encoding is not canonical");
    });
}

#[test]
fn truncated_frames_error_cleanly() {
    forall("frame-truncation", 0xBEEF, 256, |r| {
        let frame = gen_frame(r);
        let bytes = frame.encode();
        // Every strict prefix must decode to an error — never a panic,
        // and never a silently shorter frame.
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(other) => {
                    // A prefix that happens to be a complete valid frame
                    // can only occur if trailing bytes were ignored —
                    // finish() forbids that.
                    panic!("prefix {cut}/{} decoded as {other:?}", bytes.len());
                }
            }
        }
    });
}

#[test]
fn corrupted_frames_never_panic() {
    forall("frame-corruption", 0xCAFE, 512, |r| {
        let frame = gen_frame(r);
        let mut bytes = frame.encode();
        if bytes.is_empty() {
            return;
        }
        // Flip a random byte (possibly the version, tag, a length, or a
        // UTF-8 continuation) and require a clean Ok-or-Err outcome.
        let idx = r.gen_range(0..bytes.len());
        let flip = (r.next_u64() % 255 + 1) as u8;
        bytes[idx] ^= flip;
        let _ = Frame::decode(&bytes);
        // Also: random garbage of random length.
        let len = r.gen_range(0usize..64);
        let garbage: Vec<u8> = (0..len).map(|_| (r.next_u64() & 0xFF) as u8).collect();
        let _ = Frame::decode(&garbage);
    });
}

#[test]
fn hostile_vec_counts_do_not_allocate() {
    // A Vocab frame claiming u32::MAX names must fail on bounds, fast.
    let mut payload = vec![PROTOCOL_VERSION, 0x02];
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    match Frame::decode(&payload) {
        Err(WireError::TooLarge(_)) | Err(WireError::Truncated { .. }) => {}
        other => panic!("hostile count decoded as {other:?}"),
    }
}
