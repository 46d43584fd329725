//! `stacl-sim` — a seed-driven, fully deterministic coalition simulator
//! with a differential decision oracle.
//!
//! The simulator generates random-but-reproducible coalition scenarios
//! (policies, itineraries, SRAL programs, SRAC constraints, clock
//! advances and fault schedules) from a single `u64` seed, drives the
//! real [`stacl_naplet::guard::CoordinatedGuard`] decision stack step by
//! step, and cross-checks every verdict against a deliberately slow
//! reference oracle that recomputes RBAC lookup, spatial `P ⊨ C` and
//! temporal accumulated-duration validity from scratch on string keys.
//!
//! Any divergence is minimized by the built-in shrinker and replayable
//! from nothing but the seed (`stacl sim repro <seed>`).
//!
//! | module | role |
//! |---|---|
//! | [`scenario`] | seed → scenario generation |
//! | [`episode`] | the one episode driver: drives the real guard over a [`Transport`], shadowed by the oracle |
//! | `net_driver` | the loopback-coalition backend of [`Transport::Net`] |
//! | [`oracle`] | the from-scratch string-keyed reference decision procedure |
//! | [`shrink`](mod@shrink) | deterministic divergence minimization |
//! | [`report`] | sweep aggregation and `repro` rendering |
//!
//! ## Oracle scope
//!
//! The differential comparison is exact under the generator's envelope:
//! straight-line remaining programs (so the naive single-trace evaluation
//! matches the ∀-trace residual check), decision-kind comparison (reason
//! strings differ by construction), and approval reuse disabled whenever
//! server-death faults are scheduled (a topology denial bypasses the
//! guard, breaking the clean-record premise that makes reuse sound).

#![warn(missing_docs)]

pub mod episode;
mod net_driver;
pub mod oracle;
pub mod report;
pub mod scenario;
pub mod shrink;

pub use episode::{
    build_guard, build_model, episode_for_seed, run_episode, run_episode_with, Divergence, Episode,
    Transport, LEDGER_SAMPLE,
};
pub use oracle::{OracleBug, ReferenceOracle};
pub use report::{repro_scenario, SweepReport};
pub use scenario::{AttrCidrSpec, AttrCronSpec, Event, PolicyRev, Profile, Scenario};
pub use shrink::shrink;
