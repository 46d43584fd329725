//! `stacl-obs` — allocation-free telemetry for the decision path.
//!
//! The decision core (DESIGN.md §8) is a layered fast path: per-permission
//! DFA cursors, a constraint-compilation cache, a read-mostly permission
//! snapshot and a sharded proof store. This crate makes every verdict
//! attributable to a counted cause without perturbing the thing it measures:
//!
//! * **Single-writer striped counters.** A fixed set of [`Counter`]s is kept
//!   in cache-line-aligned stripes of `AtomicU64`s. Each thread claims an
//!   *exclusive* stripe from a bitmap on first use and releases it on thread
//!   exit, so the record path is a plain relaxed load + store — no
//!   `lock`-prefixed read-modify-write, roughly 3× cheaper per event. Threads
//!   beyond the stripe pool (more than [`EXCLUSIVE_STRIPES`] alive at once)
//!   fall back to `fetch_add` on a shared overflow stripe. Reads
//!   ([`snapshot`]) sum across stripes.
//! * **Fixed log₂-bucket latency histograms** for `decide` (sampled 1 in
//!   [`SAMPLE_EVERY`] to keep clock reads off the common path) and
//!   `decide_batch` (every batch, plus a batch-size distribution).
//! * **No allocation on the steady-state record path** — only plain stores
//!   to static storage. The one-time stripe claim on a thread's *first*
//!   event registers a TLS destructor (which may allocate once per thread);
//!   after that the grant path is zero-allocation with telemetry enabled
//!   (pinned by `naplet/tests/alloc_free.rs`).
//!
//! Ablation: [`set_telemetry`]`(false)` turns every record function into a
//! single relaxed load; compiling with the `off` feature removes even that.
//! This crate deliberately has **zero dependencies** so that every layer from
//! `srac` upward can record into it.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One decide-latency sample is recorded for every `SAMPLE_EVERY` calls to
/// [`decide_timer`]. Sampling keeps the two `Instant::now()` clock reads off
/// the common grant path; counters remain exact.
pub const SAMPLE_EVERY: u64 = 16;

/// Number of exclusive (single-writer) counter stripes. The registry holds
/// one more: a shared overflow stripe for threads that start while all
/// exclusive stripes are claimed.
pub const EXCLUSIVE_STRIPES: usize = 64;

/// Index of the shared overflow stripe (the last registry slot).
const SHARED: usize = EXCLUSIVE_STRIPES;

/// Number of log₂ histogram buckets; bucket `i` holds values in
/// `[2^i, 2^(i+1))`, with the last bucket absorbing everything larger.
pub const BUCKETS: usize = 32;

/// Every event the decision path counts. Labels (used as JSON keys) are
/// stable: dashboards and the CI schema check key off them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Verdict: access granted.
    VerdictGranted = 0,
    /// Verdict: denied — no role grants the permission (or guard recovered
    /// from an internal error and denied fail-safe).
    VerdictDeniedNoPermission,
    /// Verdict: denied — spatial constraint not satisfied by the proof history.
    VerdictDeniedSpatial,
    /// Verdict: denied — temporal validity (or clock regression) failure.
    VerdictDeniedTemporal,
    /// Verdict: denied — request names an unknown object/server.
    VerdictDeniedUnknownTarget,
    /// Verdict: denied fail-safe — the object's custody is in flight,
    /// resident elsewhere, or the coordination layer could not answer.
    VerdictDeniedCoordination,
    /// Cursor answered the spatial check in O(|residual|) (DESIGN.md §8 fast path).
    CursorFastPathHit,
    /// No cursor existed yet for this (object, permission); built from scratch.
    CursorColdStart,
    /// Decline rule 1: cursor's interning-table version no longer matches.
    CursorDeclineTableVersion,
    /// Decline rule 2: cursor consumed more proofs than the store's watermark
    /// (object shard was replaced or truncated).
    CursorDeclineWatermark,
    /// Decline rule 3: a proof's access has no symbol in the cursor's
    /// alphabet, or the residual check could not answer.
    CursorDeclineUnknownSymbol,
    /// Decline rule 4: security-model generation changed since cursor build.
    CursorDeclineGeneration,
    /// Decline rule 5: team-scoped history is always checked from scratch.
    CursorDeclineTeamScope,
    /// Constraint-compilation cache hit (`ConstraintCache::get_or_compile`).
    CacheHit,
    /// Constraint-compilation cache miss (DFA compiled and inserted).
    CacheMiss,
    /// A session's decision view (candidates with their permission-table
    /// entries) rebuilt: on first contact, after a role activation or a
    /// policy change.
    SnapshotRebuild,
    /// A proof was appended to an object shard, advancing its watermark.
    WatermarkAdvance,
    /// A timeline event arrived with a timestamp earlier than the latest
    /// recorded one (per-server clock skew); rejected instead of panicking.
    ClockRegression,
    /// A panicking per-request decision inside `decide_batch` was caught and
    /// converted into a fail-safe denial.
    BatchPanicRecovered,
    /// A wire frame was sent (daemon or client side).
    NetFrameTx,
    /// A wire frame was received.
    NetFrameRx,
    /// Payload bytes sent over the wire (length prefixes excluded).
    NetBytesTx,
    /// Payload bytes received over the wire (length prefixes excluded).
    NetBytesRx,
    /// A failed handoff attempt was retried after backoff.
    NetRetry,
    /// A custody transfer (an arrival's pull or a drain's push) was
    /// applied. Counted once per transfer, by the member that drives it.
    NetHandoffApplied,
    /// A custody transfer failed: its peer stayed unreachable through
    /// the retry budget, or refused or sent a bad state. Counted once per
    /// transfer, by the member that drives it.
    NetHandoffFailed,
    /// A client could not reach a daemon and synthesised a fail-safe
    /// `DeniedCoordination` verdict locally.
    NetFailsafeDenial,
    /// A policy epoch was prepared (tables and automata built off the hot
    /// path, awaiting activation).
    EpochPrepare,
    /// A prepared policy epoch was activated (snapshot flipped).
    EpochActivate,
    /// A coalition member detected an epoch desynchronisation (activate
    /// without a matching prepare, or a stale proposal) and fail-safed.
    EpochDesync,
    /// An entry was appended to the hash-chained audit ledger.
    LedgerAppend,
    /// The daemon event loop woke from readiness polling with work to do
    /// (frames per wakeup = `net.frame-rx` / `net.wakeup`).
    NetWakeup,
    /// The event loop flushed a connection's coalesced write buffer (one
    /// flush may carry many reply frames; coalescing factor =
    /// `net.frame-tx` / `net.write-flush`).
    NetWriteFlush,
    /// A connection stalled mid-frame past the partial-frame deadline and
    /// was evicted by the event loop (slow-loris defence).
    NetPartialEviction,
    /// A freshly compiled constraint automaton was structurally identical
    /// to a cached one and got pointer-shared instead of stored twice
    /// (`ConstraintCache` hash-consing).
    CacheHashConsHit,
    /// A cursor consulted with a symbol outside its compressed-alphabet
    /// class map (interned after the cursor was built); the cursor
    /// declined rather than guess. Diagnostic sub-cause of
    /// `cursor.decline.unknown-symbol`, not a sixth decline rule.
    CursorOutOfClass,
    /// One proof event advanced a whole bank of lockstep cursor leaves in
    /// a single structure-of-arrays sweep (`CursorBank::advance_synced`).
    CursorSoaBatchAdvance,
    /// A helper-thread handoff completion arrived after its originating
    /// connection died; the imported custody was re-parked on the event
    /// loop instead of being silently discarded.
    NetOrphanedCompletion,
    /// A decide reached a member that is not the object's rendezvous home
    /// and was answered with a `Redirect2` frame instead of a verdict.
    PlacementRedirect,
    /// A custody rebalance drain pushed one object to its new rendezvous
    /// home after a membership change, and the home imported it.
    PlacementRebalance,
    /// A custody claim was rejected because the placement ring homes the
    /// object on a different member (racing-arrival double-claim defence).
    PlacementClaimRejected,
    /// One execution proof was folded out of a shard's live vector into
    /// its sealed prefix summary (`ProofStore::compact_prefix`).
    ProofCompaction,
    /// An attribute-policy spatial rule (CIDR allow/deny set) failed to
    /// lower — the permission gets a fail-safe always-deny constraint.
    AbacLowerErrorSpatial,
    /// An attribute-policy temporal rule (cron window + duration) failed
    /// to lower — the permission gets a fail-safe zero validity budget.
    AbacLowerErrorTemporal,
}

/// Number of distinct counters.
pub const COUNTERS: usize = 44;

impl Counter {
    /// All counters, in declaration order (matches the `[u64; COUNTERS]`
    /// layout of [`MetricsSnapshot::counters`]).
    pub const ALL: [Counter; COUNTERS] = [
        Counter::VerdictGranted,
        Counter::VerdictDeniedNoPermission,
        Counter::VerdictDeniedSpatial,
        Counter::VerdictDeniedTemporal,
        Counter::VerdictDeniedUnknownTarget,
        Counter::VerdictDeniedCoordination,
        Counter::CursorFastPathHit,
        Counter::CursorColdStart,
        Counter::CursorDeclineTableVersion,
        Counter::CursorDeclineWatermark,
        Counter::CursorDeclineUnknownSymbol,
        Counter::CursorDeclineGeneration,
        Counter::CursorDeclineTeamScope,
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::SnapshotRebuild,
        Counter::WatermarkAdvance,
        Counter::ClockRegression,
        Counter::BatchPanicRecovered,
        Counter::NetFrameTx,
        Counter::NetFrameRx,
        Counter::NetBytesTx,
        Counter::NetBytesRx,
        Counter::NetRetry,
        Counter::NetHandoffApplied,
        Counter::NetHandoffFailed,
        Counter::NetFailsafeDenial,
        Counter::EpochPrepare,
        Counter::EpochActivate,
        Counter::EpochDesync,
        Counter::LedgerAppend,
        Counter::NetWakeup,
        Counter::NetWriteFlush,
        Counter::NetPartialEviction,
        Counter::CacheHashConsHit,
        Counter::CursorOutOfClass,
        Counter::CursorSoaBatchAdvance,
        Counter::NetOrphanedCompletion,
        Counter::PlacementRedirect,
        Counter::PlacementRebalance,
        Counter::PlacementClaimRejected,
        Counter::ProofCompaction,
        Counter::AbacLowerErrorSpatial,
        Counter::AbacLowerErrorTemporal,
    ];

    /// The five cursor decline reasons of DESIGN.md §8, in rule order.
    pub const DECLINES: [Counter; 5] = [
        Counter::CursorDeclineTableVersion,
        Counter::CursorDeclineWatermark,
        Counter::CursorDeclineUnknownSymbol,
        Counter::CursorDeclineGeneration,
        Counter::CursorDeclineTeamScope,
    ];

    /// The verdict counters, one per `DecisionKind`.
    pub const VERDICTS: [Counter; 6] = [
        Counter::VerdictGranted,
        Counter::VerdictDeniedNoPermission,
        Counter::VerdictDeniedSpatial,
        Counter::VerdictDeniedTemporal,
        Counter::VerdictDeniedUnknownTarget,
        Counter::VerdictDeniedCoordination,
    ];

    /// Stable label used as the JSON key for this counter.
    pub const fn label(self) -> &'static str {
        match self {
            Counter::VerdictGranted => "verdict.granted",
            Counter::VerdictDeniedNoPermission => "verdict.denied-no-permission",
            Counter::VerdictDeniedSpatial => "verdict.denied-spatial",
            Counter::VerdictDeniedTemporal => "verdict.denied-temporal",
            Counter::VerdictDeniedUnknownTarget => "verdict.denied-unknown-target",
            Counter::VerdictDeniedCoordination => "verdict.denied-coordination",
            Counter::CursorFastPathHit => "cursor.fast-path-hit",
            Counter::CursorColdStart => "cursor.cold-start",
            Counter::CursorDeclineTableVersion => "cursor.decline.table-version",
            Counter::CursorDeclineWatermark => "cursor.decline.watermark",
            Counter::CursorDeclineUnknownSymbol => "cursor.decline.unknown-symbol",
            Counter::CursorDeclineGeneration => "cursor.decline.generation",
            Counter::CursorDeclineTeamScope => "cursor.decline.team-scope",
            Counter::CacheHit => "cache.hit",
            Counter::CacheMiss => "cache.miss",
            Counter::SnapshotRebuild => "snapshot.rebuild",
            Counter::WatermarkAdvance => "proof.watermark-advance",
            Counter::ClockRegression => "clock.regression",
            Counter::BatchPanicRecovered => "batch.panic-recovered",
            Counter::NetFrameTx => "net.frame-tx",
            Counter::NetFrameRx => "net.frame-rx",
            Counter::NetBytesTx => "net.bytes-tx",
            Counter::NetBytesRx => "net.bytes-rx",
            Counter::NetRetry => "net.retry",
            Counter::NetHandoffApplied => "net.handoff-applied",
            Counter::NetHandoffFailed => "net.handoff-failed",
            Counter::NetFailsafeDenial => "net.failsafe-denial",
            Counter::EpochPrepare => "epoch.prepare",
            Counter::EpochActivate => "epoch.activate",
            Counter::EpochDesync => "epoch.desync",
            Counter::LedgerAppend => "ledger.append",
            Counter::NetWakeup => "net.wakeup",
            Counter::NetWriteFlush => "net.write-flush",
            Counter::NetPartialEviction => "net.partial-eviction",
            Counter::CacheHashConsHit => "cache.hash-cons-hit",
            Counter::CursorOutOfClass => "cursor.out-of-class",
            Counter::CursorSoaBatchAdvance => "cursor.soa-batch-advance",
            Counter::NetOrphanedCompletion => "net.orphaned-completion",
            Counter::PlacementRedirect => "placement.redirect",
            Counter::PlacementRebalance => "placement.rebalance",
            Counter::PlacementClaimRejected => "placement.claim-rejected",
            Counter::ProofCompaction => "proof.compaction",
            Counter::AbacLowerErrorSpatial => "abac.lower-error.spatial",
            Counter::AbacLowerErrorTemporal => "abac.lower-error.temporal",
        }
    }
}

/// One stripe of telemetry storage, cache-line aligned so stripes owned by
/// different threads never share a line.
#[repr(align(128))]
struct Stripe {
    counters: [AtomicU64; COUNTERS],
    decide_ns: [AtomicU64; BUCKETS],
    batch_ns: [AtomicU64; BUCKETS],
    batch_size: [AtomicU64; BUCKETS],
    handoff_ns: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Stripe {
    #[allow(clippy::declare_interior_mutable_const)]
    const NEW: Stripe = Stripe {
        counters: [ZERO; COUNTERS],
        decide_ns: [ZERO; BUCKETS],
        batch_ns: [ZERO; BUCKETS],
        batch_size: [ZERO; BUCKETS],
        handoff_ns: [ZERO; BUCKETS],
    };
}

static REGISTRY: [Stripe; EXCLUSIVE_STRIPES + 1] = [Stripe::NEW; EXCLUSIVE_STRIPES + 1];
static ENABLED: AtomicBool = AtomicBool::new(true);
/// Bitmap of claimed exclusive stripes (bit i set = stripe i has an owner).
static CLAIMED: AtomicU64 = AtomicU64::new(0);

/// Claim the lowest free exclusive stripe, or [`SHARED`] if the pool is
/// exhausted. `Acquire` pairs with the `Release` in [`release_stripe`] so a
/// new owner observes the previous owner's plain (non-RMW) stores.
fn claim_stripe() -> usize {
    loop {
        let cur = CLAIMED.load(Ordering::Relaxed);
        if cur == u64::MAX {
            return SHARED;
        }
        let bit = (!cur).trailing_zeros() as usize;
        if CLAIMED
            .compare_exchange_weak(cur, cur | (1 << bit), Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return bit;
        }
    }
}

fn release_stripe(idx: usize) {
    if idx < EXCLUSIVE_STRIPES {
        CLAIMED.fetch_and(!(1u64 << idx), Ordering::Release);
    }
}

/// Owns this thread's exclusive stripe; returns it to the pool on thread
/// exit (counts are cumulative — the stripe is NOT zeroed on release).
struct StripeGuard(usize);

impl Drop for StripeGuard {
    fn drop(&mut self) {
        release_stripe(self.0);
    }
}

thread_local! {
    // Hot-path cache of the claimed stripe index. usize::MAX = "unassigned";
    // const-initialised so steady-state access performs no lazy
    // initialisation (and therefore no allocation).
    static STRIPE_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    // Lazily claimed on the first recorded event of each thread (this one
    // registers a TLS destructor, which may allocate — once per thread,
    // never on the steady-state record path).
    static STRIPE_GUARD: StripeGuard = StripeGuard(claim_stripe());
}

/// This thread's stripe index, claimed on first use.
#[inline]
fn stripe_idx() -> usize {
    let v = STRIPE_IDX.with(Cell::get);
    if v != usize::MAX {
        return v;
    }
    // If the guard TLS is already destroyed (an event recorded from another
    // TLS destructor during thread teardown), fall back to the shared stripe.
    let idx = STRIPE_GUARD.try_with(|g| g.0).unwrap_or(SHARED);
    STRIPE_IDX.with(|s| s.set(idx));
    idx
}

/// Add 1 to `slot`. Exclusive stripes have a single writer, so a plain
/// relaxed load + store suffices (~3× cheaper than a `lock`-prefixed
/// `fetch_add`); the shared overflow stripe needs the real RMW.
#[inline]
fn bump(idx: usize, slot: &AtomicU64) {
    if idx < EXCLUSIVE_STRIPES {
        slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    } else {
        slot.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn telemetry recording on or off at runtime (default: on). Off turns
/// every record function into a single relaxed load.
pub fn set_telemetry(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently recording. Always `false` when the crate
/// is compiled with the `off` feature.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Record one occurrence of `c`. Allocation-free: a thread-local read plus
/// one relaxed load + store on this thread's exclusive stripe.
#[inline]
pub fn count(c: Counter) {
    if enabled() {
        let idx = stripe_idx();
        bump(idx, &REGISTRY[idx].counters[c as usize]);
    }
}

/// Record `n` occurrences of `c` in one store (used by the wire layer to
/// account whole-frame byte counts without a per-byte loop).
#[inline]
pub fn add(c: Counter, n: u64) {
    if enabled() {
        let idx = stripe_idx();
        let slot = &REGISTRY[idx].counters[c as usize];
        if idx < EXCLUSIVE_STRIPES {
            slot.store(slot.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Histogram bucket for `v`: `floor(log2(max(v, 1)))`, clamped to the last
/// bucket.
#[inline]
pub fn bucket(v: u64) -> usize {
    (v.max(1).ilog2() as usize).min(BUCKETS - 1)
}

thread_local! {
    // Per-thread decide-call tick driving the 1-in-SAMPLE_EVERY latency
    // sampling. Thread-local (not striped) so the common path pays a plain
    // Cell increment, not an atomic RMW.
    static DECIDE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Start timing a single `decide` call. Returns `Some` for one call in
/// [`SAMPLE_EVERY`] (per thread) when telemetry is enabled; pass the result
/// to [`observe_decide`] when the decision completes.
#[inline]
pub fn decide_timer() -> Option<Instant> {
    if !enabled() {
        return None;
    }
    let tick = DECIDE_TICK.with(|t| {
        let v = t.get();
        t.set(v.wrapping_add(1));
        v
    });
    tick.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
}

/// Record a sampled `decide` latency started by [`decide_timer`].
#[inline]
pub fn observe_decide(start: Option<Instant>) {
    if let Some(t0) = start {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let idx = stripe_idx();
        bump(idx, &REGISTRY[idx].decide_ns[bucket(ns)]);
    }
}

/// Start timing a `decide_batch` call (every batch is timed — batches are
/// rare relative to decisions). Pass the result to [`observe_batch`].
#[inline]
pub fn batch_timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Record a `decide_batch` latency and its batch size.
#[inline]
pub fn observe_batch(start: Option<Instant>, batch_len: usize) {
    if let Some(t0) = start {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let idx = stripe_idx();
        let s = &REGISTRY[idx];
        bump(idx, &s.batch_ns[bucket(ns)]);
        bump(idx, &s.batch_size[bucket(batch_len.max(1) as u64)]);
    }
}

/// Start timing a custody handoff (every handoff is timed — handoffs are
/// rare, one per migration). Pass the result to [`observe_handoff`].
#[inline]
pub fn handoff_timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Record a custody-handoff latency started by [`handoff_timer`].
#[inline]
pub fn observe_handoff(start: Option<Instant>) {
    if let Some(t0) = start {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let idx = stripe_idx();
        bump(idx, &REGISTRY[idx].handoff_ns[bucket(ns)]);
    }
}

/// A consistent-enough point-in-time aggregation of all stripes. Fixed-size
/// (no heap) so taking one is itself allocation-free; only
/// [`MetricsSnapshot::to_json`] allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Whether recording was enabled when the snapshot was taken.
    pub telemetry_enabled: bool,
    /// Counter totals, indexed by `Counter as usize` (see [`Counter::ALL`]).
    pub counters: [u64; COUNTERS],
    /// Sampled `decide` latency histogram (nanoseconds, log₂ buckets).
    pub decide_ns: [u64; BUCKETS],
    /// `decide_batch` latency histogram (nanoseconds, log₂ buckets).
    pub batch_ns: [u64; BUCKETS],
    /// `decide_batch` size histogram (requests per batch, log₂ buckets).
    pub batch_size: [u64; BUCKETS],
    /// Custody-handoff latency histogram (nanoseconds, log₂ buckets).
    pub handoff_ns: [u64; BUCKETS],
}

// Derived `Default` stops at 32-element arrays; `COUNTERS` outgrew that.
impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            telemetry_enabled: false,
            counters: [0; COUNTERS],
            decide_ns: [0; BUCKETS],
            batch_ns: [0; BUCKETS],
            batch_size: [0; BUCKETS],
            handoff_ns: [0; BUCKETS],
        }
    }
}

impl MetricsSnapshot {
    /// Total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Sum of the six verdict counters — the total number of decisions
    /// recorded (every decision produces exactly one verdict).
    pub fn verdict_total(&self) -> u64 {
        Counter::VERDICTS.iter().map(|&c| self.counter(c)).sum()
    }

    /// Sum of the five DESIGN.md §8 cursor decline counters.
    pub fn decline_total(&self) -> u64 {
        Counter::DECLINES.iter().map(|&c| self.counter(c)).sum()
    }

    /// Element-wise saturating difference `self - earlier`: the activity
    /// between two snapshots.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut d = self.clone();
        for i in 0..COUNTERS {
            d.counters[i] = d.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..BUCKETS {
            d.decide_ns[i] = d.decide_ns[i].saturating_sub(earlier.decide_ns[i]);
            d.batch_ns[i] = d.batch_ns[i].saturating_sub(earlier.batch_ns[i]);
            d.batch_size[i] = d.batch_size[i].saturating_sub(earlier.batch_size[i]);
            d.handoff_ns[i] = d.handoff_ns[i].saturating_sub(earlier.handoff_ns[i]);
        }
        d
    }

    /// Render as a self-describing JSON object, through the workspace's
    /// shared emitter ([`stacl_ids::json`]) — the same path the bench
    /// artifacts use, so new counters serialize identically everywhere.
    pub fn to_json(&self) -> String {
        let mut w = stacl_ids::json::JsonWriter::object();
        w.field_bool("telemetry_enabled", self.telemetry_enabled);
        w.field_u64("sample_every", SAMPLE_EVERY);
        w.open_object("counters");
        for c in Counter::ALL.iter() {
            w.field_u64(c.label(), self.counter(*c));
        }
        w.close();
        for (name, buckets) in [
            ("decide_latency_ns", &self.decide_ns),
            ("batch_latency_ns", &self.batch_ns),
            ("batch_size", &self.batch_size),
            ("handoff_latency_ns", &self.handoff_ns),
        ] {
            w.open_object(name);
            w.field_u64("samples", buckets.iter().sum());
            w.array_u64("log2_buckets", buckets.iter().copied());
            w.close();
        }
        w.finish()
    }
}

/// Aggregate all stripes into a [`MetricsSnapshot`]. Relaxed reads: exact
/// once recording threads are quiescent, approximate while they run.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        telemetry_enabled: enabled(),
        ..MetricsSnapshot::default()
    };
    for s in &REGISTRY {
        for i in 0..COUNTERS {
            snap.counters[i] += s.counters[i].load(Ordering::Relaxed);
        }
        for i in 0..BUCKETS {
            snap.decide_ns[i] += s.decide_ns[i].load(Ordering::Relaxed);
            snap.batch_ns[i] += s.batch_ns[i].load(Ordering::Relaxed);
            snap.batch_size[i] += s.batch_size[i].load(Ordering::Relaxed);
            snap.handoff_ns[i] += s.handoff_ns[i].load(Ordering::Relaxed);
        }
    }
    snap
}

/// Zero every counter and histogram bucket in every stripe. Meant for test
/// and benchmark boundaries: a concurrent exclusive-stripe writer may lose
/// an in-flight increment to the zeroing store.
pub fn reset() {
    for s in &REGISTRY {
        for c in &s.counters {
            c.store(0, Ordering::Relaxed);
        }
        for i in 0..BUCKETS {
            s.decide_ns[i].store(0, Ordering::Relaxed);
            s.batch_ns[i].store(0, Ordering::Relaxed);
            s.batch_size[i].store(0, Ordering::Relaxed);
            s.handoff_ns[i].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(1023), 9);
        assert_eq!(bucket(1024), 10);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn labels_are_unique_and_ordered() {
        let labels: Vec<&str> = Counter::ALL.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), COUNTERS, "duplicate counter label");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL must match declaration order");
        }
    }

    #[test]
    fn json_has_required_fields() {
        let snap = MetricsSnapshot::default();
        let json = snap.to_json();
        for key in [
            "telemetry_enabled",
            "sample_every",
            "counters",
            "decide_latency_ns",
            "batch_latency_ns",
            "batch_size",
            "handoff_latency_ns",
            "log2_buckets",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        for c in Counter::ALL {
            assert!(json.contains(c.label()), "missing counter {}", c.label());
        }
    }

    // Stateful assertions share the global registry, so they live in ONE
    // test function: the harness runs #[test]s in parallel threads.
    #[test]
    fn counting_toggle_and_diff() {
        let base = snapshot();
        count(Counter::CacheHit);
        count(Counter::CacheHit);
        count(Counter::WatermarkAdvance);
        let d = snapshot().diff(&base);
        assert_eq!(d.counter(Counter::CacheHit), 2);
        assert_eq!(d.counter(Counter::WatermarkAdvance), 1);

        // Disabled: nothing records, timers return None.
        set_telemetry(false);
        let base = snapshot();
        assert!(!base.telemetry_enabled);
        count(Counter::CacheHit);
        assert!(decide_timer().is_none());
        assert!(batch_timer().is_none());
        observe_decide(None);
        observe_batch(None, 100);
        let d = snapshot().diff(&base);
        assert_eq!(d.counter(Counter::CacheHit), 0);
        set_telemetry(true);

        // Histograms: a timed batch lands one sample in each batch histogram.
        let base = snapshot();
        let t0 = batch_timer();
        assert!(t0.is_some());
        observe_batch(t0, 5);
        let d = snapshot().diff(&base);
        assert_eq!(d.batch_ns.iter().sum::<u64>(), 1);
        assert_eq!(d.batch_size[bucket(5)], 1);

        // decide_timer samples 1 in SAMPLE_EVERY per thread.
        let base = snapshot();
        let mut sampled = 0;
        for _ in 0..(SAMPLE_EVERY * 4) {
            let t = decide_timer();
            if t.is_some() {
                sampled += 1;
            }
            observe_decide(t);
        }
        assert_eq!(sampled, 4);
        let d = snapshot().diff(&base);
        assert_eq!(d.decide_ns.iter().sum::<u64>(), 4);
        assert_eq!(d.verdict_total(), 0);
    }
}
