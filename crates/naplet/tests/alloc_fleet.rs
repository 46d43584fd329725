//! The warm fleet path's allocation counter: a reactive guard over the
//! E12 fleet policy, one `ProofStore::issue` per grant — the loop the
//! `fleet-steady` benchmark times. Once every object's session, cursor
//! and timeline are warm, a decide plus its proof issue must average at
//! most 0.005 heap allocations. Proofs are stored structure-of-arrays from
//! issue, so the only allocations left are the amortised doublings of
//! each shard's three proof columns: 36 in 10 000 pairs (0.0036).
//!
//! Lives in `tests/` because a counting `#[global_allocator]` needs an
//! unsafe impl. Keep this file to a single `#[test]`: other tests in the
//! same binary would allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stacl_coalition::ProofStore;
use stacl_naplet::guard::{CoordinatedGuard, GuardRequest};
use stacl_naplet::prelude::*;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;
use stacl_sral::{Access, Program};
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

const OBJECTS: usize = 4;
const WARM: usize = 500;
const MEASURED: usize = 10_000;

#[test]
fn warm_fleet_decide_and_issue_is_allocation_light() {
    // As in E12, the cap sits just above each object's access count:
    // every decision grants after a real spatial check.
    let cap = WARM + MEASURED / OBJECTS + 2;
    let mut policy = format!(
        "role licensee\n\
         permission p grants=*:rsw:* spatial=\"count(0, {cap}, resource=rsw)\"\n\
         grant licensee p\n"
    );
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    for n in &names {
        policy.push_str(&format!("user {n}\nassign {n} licensee\n"));
    }
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy).unwrap()))
        .with_mode(EnforcementMode::Reactive);
    for n in &names {
        guard.enroll(n, ["licensee"]);
    }
    let vocab: Vec<Access> = (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();
    let mut table = AccessTable::new();
    for a in &vocab {
        table.intern(a);
    }
    let proofs = ProofStore::new();

    // Decision `i` goes to object `i % OBJECTS` on a server that cycles
    // with a different period, so every object sees every access.
    let mut step = |i: usize| {
        let (object, k) = (names[i % OBJECTS].as_str(), (i / OBJECTS + i) % vocab.len());
        let req = GuardRequest {
            object,
            access: &vocab[k],
            remaining: &programs[k],
            time: TimePoint::new((i / OBJECTS) as f64),
        };
        assert!(guard.decide(&req, &proofs, &mut table).is_granted());
        proofs.issue(object, vocab[k].clone(), req.time);
    };

    // Warm up: sessions, cursors, timelines, shards and telemetry stripes.
    for i in 0..WARM * OBJECTS {
        step(i);
    }
    let obs_before = stacl_obs::snapshot();
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in WARM * OBJECTS..WARM * OBJECTS + MEASURED {
        step(i);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let per_decide = allocs as f64 / MEASURED as f64;
    eprintln!(
        "{allocs} heap allocations in {MEASURED} warm decide+issue pairs ({per_decide:.4} each)"
    );
    assert!(
        per_decide <= 0.005,
        "warm decide+issue must average <= 0.005 heap allocations, got {per_decide:.4} \
         ({allocs} in {MEASURED})"
    );
    // Every measured decision took the cursor fast path.
    let d = stacl_obs::snapshot().diff(&obs_before);
    assert_eq!(
        d.counter(stacl_obs::Counter::VerdictGranted),
        MEASURED as u64
    );
    assert_eq!(
        d.counter(stacl_obs::Counter::CursorFastPathHit),
        MEASURED as u64
    );
}
