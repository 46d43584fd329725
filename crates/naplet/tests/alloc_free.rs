//! The interning acceptance test: once an object's session is open and
//! its spatial approval and timeline memo are warm, a granted
//! [`CoordinatedGuard::decide`] must perform **zero heap allocations** —
//! every lookup runs on interned ids over dense or `Copy`-keyed state.
//! Telemetry stays ON for the measured window: the `stacl-obs` record
//! path (plain stores to a static single-writer stripe, claimed once per
//! thread during the warm-up below) must itself be allocation-free, and
//! the counters must account for every decision in the window. A second
//! window on the same warm guard counts the allocations of
//! `note_arrival`.
//!
//! Lives in `tests/` because the naplet library itself forbids unsafe
//! code and a counting `#[global_allocator]` needs an unsafe impl. Keep
//! this file to a single `#[test]`: other tests in the same binary would
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stacl_coalition::ProofStore;
use stacl_naplet::guard::{CoordinatedGuard, GuardRequest};
use stacl_naplet::prelude::*;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;
use stacl_sral::builder::access;
use stacl_sral::Access;
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_grant_allocates_nothing() {
    // Full policy: spatial cap (high enough to keep granting), a temporal
    // budget, and a validity class — the worst-case decision surface.
    let model = parse_policy(
        r#"
        user n1
        role worker
        permission p grants=exec:rsw:* spatial="count(0, 10000, resource=rsw)" \
                     validity=1000000 scheme=whole-lifetime
        grant worker p
        assign n1 worker
        "#,
    )
    .unwrap();
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model))
        .with_mode(EnforcementMode::Preventive)
        .with_approval_reuse(true);
    guard.enroll("n1", ["worker"]);
    guard.note_arrival("n1", TimePoint::new(0.0));

    let proofs = ProofStore::new();
    let mut table = AccessTable::new();
    let a = Access::new("exec", "rsw", "s1");
    let remaining = access("exec", "rsw", "s1");

    // Warm up: opens the session, interns every name, runs the spatial
    // check once (approval is reusable afterwards) and builds the
    // timeline with its validity memo.
    for i in 0..3u32 {
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &remaining,
            time: TimePoint::new(f64::from(i)),
        };
        assert!(guard.decide(&req, &proofs, &mut table).is_granted());
    }

    // Steady state: not one heap allocation across many checks — with
    // telemetry recording every one of them.
    assert!(
        stacl_obs::enabled(),
        "the zero-allocation claim must cover telemetry-on recording"
    );
    let obs_before = stacl_obs::snapshot();
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 3..103u32 {
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &remaining,
            time: TimePoint::new(f64::from(i)),
        };
        assert!(guard.decide(&req, &proofs, &mut table).is_granted());
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state grants must be allocation-free ({} allocations in 100 checks)",
        after - before
    );
    // Taking a snapshot is fixed-size (no heap); diffing proves the
    // telemetry observed exactly the 100 granted decisions above.
    let d = stacl_obs::snapshot().diff(&obs_before);
    assert_eq!(d.counter(stacl_obs::Counter::VerdictGranted), 100);
    assert_eq!(d.verdict_total(), 100);

    // Warm arrivals on the same guard: each appends to the object's
    // arrival log (amortised growth) and refills its one timeline, so a
    // `note_arrival` allocates next to nothing.
    const ARRIVALS: u32 = 10_000;
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..ARRIVALS {
        guard.note_arrival("n1", TimePoint::new(f64::from(200 + i)));
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let per_call = allocs as f64 / f64::from(ARRIVALS);
    assert!(
        per_call <= 0.01,
        "warm note_arrival must be allocation-light: {allocs} allocations in \
         {ARRIVALS} calls ({per_call:.4} per call)"
    );
}
