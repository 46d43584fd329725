//! # stacl-net — the networked coalition
//!
//! The paper's coalition is a set of *servers*, each running its own
//! guard; mobile objects migrate between them and every member enforces
//! the coordinated spatio-temporal policy locally (§2, §5.1). Earlier
//! crates collapse that topology into one in-process guard. This crate
//! restores it: one **daemon** per coalition member, each hosting one
//! [`stacl_naplet::guard::CoordinatedGuard`] shard, speaking a
//! hand-rolled, length-prefixed, versioned binary protocol over TCP —
//! plain threads and `std::net`, no async runtime, no serialization
//! framework.
//!
//! * [`wire`] — framing and the primitive codec ([`wire::WireError`]:
//!   malformed bytes are errors, never panics);
//! * [`frames`] — the frame vocabulary: decisions and proofs travel as
//!   interned `u32` ids after a per-connection `Vocab` announcement;
//!   custody handoffs travel name-keyed ([`frames::HandoffWire`])
//!   because interning orders differ across members;
//! * [`sys`] — the hand-rolled `poll(2)` syscall (no `libc` in the
//!   workspace) behind the daemon's readiness loop;
//! * [`daemon`] — the per-server daemon: a single readiness-driven
//!   event loop multiplexing every connection (nonblocking sockets,
//!   incremental frame reassembly, coalesced writes), the custody gate,
//!   the arrival handoff **pull** (on helper threads, with bounded
//!   retries, doubling backoff and fail-safe denial) and the
//!   membership-change **push** (one drain thread per change);
//! * [`client`] — the synchronous client, which is also the daemon's
//!   own link to its peers (handoff pulls, rebalance pushes), including
//!   [`client::Client::decide_failsafe`]: an unreachable member yields a
//!   counted `DeniedCoordination`, never an open gate — plus the
//!   pipelined mode ([`client::Pipeline`]) keeping a window of
//!   decisions in flight per connection. Every request carries an id
//!   that its reply echoes, so replies are matched by id, never by
//!   position.
//!
//! Telemetry rides on `stacl-obs`: `net.frame-tx/rx`, `net.bytes-tx/rx`,
//! `net.retry`, `net.handoff-applied/failed`, `net.failsafe-denial`,
//! `net.wakeup`, `net.write-flush`, `net.partial-eviction`, and a
//! handoff-latency histogram; a daemon serves its snapshot as JSON on a
//! `MetricsRequest` frame.

// `deny` rather than `forbid`: the [`sys`] module carries the one
// `#[allow(unsafe_code)]` for the raw poll syscall.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod frames;
pub mod sys;
pub mod wire;

pub use client::{Client, NetError, Pipeline, Router};
pub use daemon::{spawn, DaemonConfig, DaemonHandle};
pub use frames::Frame;
pub use wire::{FrameAssembler, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
