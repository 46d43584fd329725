//! Heap allocations per pipelined decision, client and daemon together:
//! a warm connection pipelines granted decisions through a window of
//! 256, and a counting global allocator sees every allocation in the
//! process — the client's encode and decode, the daemon's reassembly,
//! request decoding, decide and reply encoding. The frame path must
//! not copy payloads or names per decision: the client encodes from a
//! reused buffer, and the daemon borrows each request's access from the
//! connection's resolved entries. What is left, about one allocation per
//! decision, is the daemon decoding `remaining` into a fresh `Vec`.
//!
//! Keep this file to a single `#[test]`: other tests in the same binary
//! would allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use stacl_coalition::ProofStore;
use stacl_naplet::guard::CoordinatedGuard;
use stacl_net::{Client, DaemonConfig};
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::Access;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter is a statistic and publishes
// no other data.
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

const WINDOW: usize = 256;
const WARM: usize = 1024;
const MEASURED: usize = 8192;

fn make_guard() -> CoordinatedGuard {
    let mut model = RbacModel::new();
    model.add_role("staff");
    model
        .add_permission(Permission::new("p-any", AccessPattern::any()))
        .unwrap();
    model.assign_permission("staff", "p-any").unwrap();
    model.add_user("obj");
    model.assign_user("obj", "staff").unwrap();
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("obj", ["staff"]);
    guard
}

/// Pipeline decisions `range` (1 ms of virtual time apart), claiming
/// completions after every submit as a streaming caller does.
fn pipeline(client: &mut Client, access: &Access, range: Range<usize>) -> usize {
    let remaining = std::slice::from_ref(access);
    let mut granted = 0;
    let mut p = client.pipeline(WINDOW).expect("pipeline");
    for i in range {
        p.submit("obj", access, remaining, i as f64 * 1e-3)
            .expect("submit");
        granted += p.take().iter().filter(|(_, v)| v.kind.is_granted()).count();
    }
    granted += p
        .finish()
        .expect("drain")
        .iter()
        .filter(|(_, v)| v.kind.is_granted())
        .count();
    granted
}

#[test]
fn pipelined_decisions_allocate_little() {
    let daemon = stacl_net::spawn(
        make_guard(),
        ProofStore::new(),
        DaemonConfig::new("alloc-d0"),
    )
    .expect("bind loopback");
    let mut client = Client::connect(daemon.addr(), "alloc-client", Some(Duration::from_secs(5)))
        .expect("connect");
    let access = Access::new("read", "db", "s0");
    client
        .sync_vocab(["obj", "read", "db", "s0"])
        .expect("vocabulary sync");
    client.arrive("obj", 0.0, None).expect("arrival");

    // Warm-up: buffers reach their steady size, the object's decision state and
    // its memos fill, every thread claims its telemetry stripe.
    assert_eq!(pipeline(&mut client, &access, 0..WARM), WARM);

    let before = ALLOCS.load(Ordering::Relaxed);
    let granted = pipeline(&mut client, &access, WARM..WARM + MEASURED);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(granted, MEASURED, "every decision grants");

    let per_decision = allocs as f64 / MEASURED as f64;
    eprintln!(
        "{allocs} heap allocations for {MEASURED} pipelined decisions ({per_decision:.2} each)"
    );
    assert!(
        per_decision <= 1.1,
        "{per_decision:.2} heap allocations per pipelined decision"
    );
}
