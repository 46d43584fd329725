//! # stacl-coalition — the coalition environment substrate
//!
//! Section 2 of the paper models a coalition as a set of cooperating,
//! mutually-trusting servers `S` exposing shared resources `R` on which
//! operations `OP` may be exercised, plus channels `Z`, variables `V` and
//! signals `E` for coordination among mobile objects. No third party
//! administers trust: each server enforces the coordinated access-control
//! policy locally, using execution proofs issued by its peers.
//!
//! This crate is the substrate the Naplet emulation (and the benches) run
//! on:
//!
//! * [`env`] — the server/resource registry ([`env::CoalitionEnv`]);
//! * [`clock`] — a shared continuous [`clock::VirtualClock`] (the paper's
//!   ℝ-time line; virtual so runs are reproducible and fast);
//! * [`channel`] — named FIFO channels with the `ch?x` / `ch!e` semantics
//!   of Definition 3.1 (non-blocking data structures; blocking behaviour
//!   is provided by the agent scheduler);
//! * [`signal`] — the `signal(ξ)` / `wait(ξ)` synchronisation board;
//! * [`proof`] — execution proofs `Pr_x` ([`proof::ProofStore`]): every
//!   granted access is recorded with its time and issuing server, and the
//!   store answers the queries Definition 3.6 needs;
//! * [`log`] — the audit log of granted/denied access decisions;
//! * [`ledger`] — the append-only, hash-chained audit ledger recording
//!   policy changes and sampled verdicts, verifiable offline;
//! * [`placement`] — the rendezvous-hash custody ring
//!   ([`placement::Placement`]): every member computes every object's
//!   home custodian deterministically, with no broadcast or directory;
//! * [`event`] — a generic discrete-event queue for the simulation core.
//!
//! All shared state is wrapped in lightweight in-tree (`stacl_ids::sync`) locks so a single
//! environment can be shared across worker threads in benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod clock;
pub mod env;
pub mod event;
pub mod ledger;
pub mod log;
pub mod placement;
pub mod proof;
pub mod signal;

pub use channel::ChannelHub;
pub use clock::VirtualClock;
pub use env::CoalitionEnv;
pub use event::EventQueue;
pub use ledger::{Ledger, LedgerEntry, LedgerKind};
pub use log::{AccessLog, Decision, DecisionKind, Verdict};
pub use placement::Placement;
pub use proof::{ExecutionProof, ProofStore, ShardRef};
pub use signal::SignalBoard;
