//! Length-prefixed binary framing and primitive codec.
//!
//! Every frame on the wire is `[len: u32 LE][payload: len bytes]` where the
//! payload begins with `[version: u8][tag: u8][id: u64]` followed by a
//! tag-specific body (see [`crate::frames`]). The codec is hand-rolled — no serde — and
//! decoding untrusted bytes must *never* panic: every primitive reader
//! returns a [`WireError`] on malformed input.
//!
//! Primitive encodings (all integers little-endian):
//!
//! | type          | encoding                                   |
//! |---------------|--------------------------------------------|
//! | `u8`/`u16`/`u32`/`u64` | fixed-width LE                    |
//! | `f64`         | IEEE-754 bits as `u64` LE                  |
//! | `bool`        | one byte, `0` or `1`                       |
//! | `str`         | `u32` byte length + UTF-8 bytes            |
//! | `Option<T>`   | one byte `0`/`1` + `T` if present          |
//! | `Vec<T>`      | `u32` element count + elements             |

use std::fmt;
use std::io::{self, Read};

use stacl_obs::Counter;

/// The protocol version stamped on every frame. Every request carries a
/// `u64` request id echoed by its reply, so many requests can be in
/// flight per connection and replies may arrive out of order. A payload
/// stamped with any other version is rejected with
/// [`WireError::BadVersion`].
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard upper bound on a single frame's payload (16 MiB). A peer
/// announcing a larger frame is malfunctioning or hostile; the connection
/// is dropped rather than the length trusted.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// A decode failure. Malformed wire input maps onto one of these —
/// decoding never panics and never over-reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced value.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// An announced length exceeded [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload's version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// An unknown frame or enum tag.
    BadTag(u8),
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// A value was syntactically decodable but semantically invalid
    /// (e.g. a bool byte that is neither 0 nor 1, a non-finite time).
    BadValue(&'static str),
    /// Bytes remained after the frame body was fully decoded.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::TooLarge(n) => write!(f, "announced length {n} exceeds frame cap"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::BadValue(what) => write!(f, "invalid value: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------
// Encoding: appenders onto a byte buffer.
// ---------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

/// Append a `u16` little-endian.
pub fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` little-endian.
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}

/// Append a `bool` as one byte.
pub fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(v as u8);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Append an optional length-prefixed string.
pub fn put_opt_str(b: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_u8(b, 0),
        Some(s) => {
            put_u8(b, 1);
            put_str(b, s);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding: a bounds-checked cursor over a borrowed buffer.
// ---------------------------------------------------------------------

/// A decode cursor. Every reader advances `pos` only after a successful
/// bounds check, so a failed decode leaves no partial state to misuse.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` little-endian.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `f64` from its bit pattern. Any bit pattern decodes (NaN
    /// included); callers that need a finite time validate separately.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; bytes other than 0/1 are rejected so that encoding
    /// is canonical (round-tripping preserves bytes exactly).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool byte must be 0 or 1")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::TooLarge(len));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Read an optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(WireError::BadValue("option tag must be 0 or 1")),
        }
    }

    /// Read an element count for a `Vec`. The count is sanity-capped but
    /// callers must still decode element-by-element (never pre-allocate
    /// `count` elements from untrusted input).
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_LEN {
            return Err(WireError::TooLarge(n));
        }
        Ok(n)
    }

    /// Assert the buffer is exhausted — a fully decoded frame must
    /// account for every byte.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            Err(WireError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Incremental frame reassembly.
// ---------------------------------------------------------------------

/// Reassembles length-prefixed frames from an arbitrarily-chunked byte
/// stream. Every reader of frames — the daemon's event loop, the client
/// and daemon-to-daemon peer links — goes through one, so a frame that
/// arrived whole is taken in one read.
///
/// Bytes arrive via [`read_from`], which reads straight into the
/// assembler's own buffer, in whatever amounts the reader produces (one
/// byte at a time in the worst case); [`next_frame`] pops the next
/// complete payload as a slice of that buffer. A partial frame simply
/// stays buffered — it never blocks, errors, or corrupts subsequent
/// frames.
///
/// The buffer is zero-initialised only when it grows; bytes past the
/// filled end are scratch space for the next read. Consumed bytes are
/// reclaimed when the next read needs room, by moving the live remainder
/// to the front, so steady-state reassembly does not grow memory with
/// traffic.
///
/// [`read_from`]: FrameAssembler::read_from
/// [`next_frame`]: FrameAssembler::next_frame
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Start of un-consumed bytes in `buf`.
    pos: usize,
    /// End of filled bytes in `buf`; `buf[end..]` is scratch.
    end: usize,
}

/// Free space [`FrameAssembler::read_from`] offers each socket read: a
/// whole window of pipelined frames fits in one read.
const READ_CHUNK: usize = 1 << 16;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// One `read` from `r` straight into the buffer's free space,
    /// returning the byte count (`0` at end of stream). Fails — poisoning
    /// nothing, the caller drops the connection — if a frame header
    /// announces a payload over [`MAX_FRAME_LEN`]: an
    /// [`io::ErrorKind::InvalidData`] error wrapping
    /// [`WireError::TooLarge`].
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.reserve(READ_CHUNK);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        self.check_len()?;
        Ok(n)
    }

    /// Make room for `n` more bytes after `end`: first reclaim the
    /// consumed prefix, then grow (zeroing only the new tail).
    fn reserve(&mut self, n: usize) {
        if self.buf.len() - self.end >= n {
            return;
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() - self.end < n {
            let want = (self.end + n).max(self.buf.len() * 2);
            self.buf.resize(want, 0);
        }
    }

    /// Validate the announced length as soon as the header is whole so
    /// a hostile 4 GiB announcement is rejected before any buffering.
    fn check_len(&self) -> Result<(), WireError> {
        match self.peek_len() {
            Some(len) if len > MAX_FRAME_LEN => Err(WireError::TooLarge(len)),
            _ => Ok(()),
        }
    }

    fn peek_len(&self) -> Option<usize> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 4 {
            return None;
        }
        Some(u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize)
    }

    /// Pop the next complete frame payload, or `None` if more bytes are
    /// needed. The payload borrows the assembler's buffer until the next
    /// call. Counts `net.frame-rx` / `net.bytes-rx` (prefix included) per
    /// popped frame.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(len) = self.peek_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            return Err(WireError::TooLarge(len));
        }
        if self.end - self.pos < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        if self.pos == self.end {
            // Everything consumed: the next read starts at the front.
            (self.pos, self.end) = (0, 0);
        }
        stacl_obs::count(Counter::NetFrameRx);
        stacl_obs::add(Counter::NetBytesRx, (len + 4) as u64);
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Whether a partially-received frame is pending (used by the event
    /// loop's slow-loris eviction deadline).
    pub fn has_partial(&self) -> bool {
        self.end > self.pos
    }

    /// Bytes currently buffered but not yet popped as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }
}

/// Append one length-prefixed frame to an in-memory write buffer. This
/// is the only way a frame is written: header and payload always reach
/// the socket in the same write, and many frames accumulating in one
/// buffer share it, so the per-frame syscall disappears from the hot
/// path. Counts `net.frame-tx` / `net.bytes-tx` (prefix included) per
/// frame.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(payload.len()));
    }
    put_frame_with(out, |b| b.extend_from_slice(payload))
}

/// [`put_frame`] for a payload that `encode` appends straight onto `out`
/// (e.g. [`crate::frames::Frame::encode_into`]): no payload buffer of its
/// own. An oversized payload is taken back off `out` and rejected.
pub fn put_frame_with(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = out.len() - at - 4;
    if len > MAX_FRAME_LEN {
        out.truncate(at);
        return Err(WireError::TooLarge(len));
    }
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    stacl_obs::count(Counter::NetFrameTx);
    stacl_obs::add(Counter::NetBytesTx, (len + 4) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut b = Vec::new();
        put_u8(&mut b, 0xAB);
        put_u16(&mut b, 0xBEEF);
        put_u32(&mut b, 0xDEAD_BEEF);
        put_u64(&mut b, u64::MAX - 7);
        put_f64(&mut b, -0.125);
        put_bool(&mut b, true);
        put_str(&mut b, "héllo");
        put_opt_str(&mut b, None);
        put_opt_str(&mut b, Some("x"));

        let mut d = Dec::new(&b);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.opt_str().unwrap(), None);
        assert_eq!(d.opt_str().unwrap().as_deref(), Some("x"));
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut b = Vec::new();
        put_str(&mut b, "hello world");
        for cut in 0..b.len() {
            let mut d = Dec::new(&b[..cut]);
            assert!(d.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // A string header announcing 4 GiB must not allocate.
        let mut b = Vec::new();
        put_u32(&mut b, u32::MAX);
        assert!(matches!(
            Dec::new(&b).str(),
            Err(WireError::TooLarge(_) | WireError::Truncated { .. })
        ));
    }

    #[test]
    fn framing_round_trips_over_a_buffer() {
        let mut pipe = Vec::new();
        put_frame(&mut pipe, b"abc").unwrap();
        put_frame(&mut pipe, b"").unwrap();
        assert_eq!(pipe, b"\x03\0\0\0abc\0\0\0\0");
        let mut r = io::Cursor::new(pipe);
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.read_from(&mut r).unwrap(), 11);
        assert_eq!(asm.next_frame().unwrap(), Some(&b"abc"[..]));
        assert_eq!(asm.next_frame().unwrap(), Some(&b""[..]));
        assert_eq!(asm.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut r = io::Cursor::new(pipe);
        let err = FrameAssembler::new().read_from(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let cause = err.get_ref().and_then(|e| e.downcast_ref::<WireError>());
        assert!(matches!(cause, Some(WireError::TooLarge(_))));
    }
}
