//! E12 — decide throughput: the incremental cursor fast path on the
//! 64-object × 1000-access fleet workload, sequential and through the
//! `decide_batch` parallel API (DESIGN.md §8).
//!
//! Each iteration drives the *entire* fleet workload against a fresh
//! reactive guard, round-robin across objects (every object's proof
//! history grows between its consecutive decisions). The
//! machine-readable counterpart with percentiles is the `bench_decide`
//! binary.

use stacl::naplet::guard::{BatchRequest, GuardRequest};
use stacl::prelude::*;
use stacl_bench::criterion::Criterion;
use stacl_bench::{criterion_group, criterion_main, fleet_model};
use std::hint::black_box;
use std::time::Duration;

const OBJECTS: usize = 64;
const ACCESSES: usize = 1000;

fn fixture() -> (CoordinatedGuard, Vec<String>, Vec<Access>, Vec<Program>) {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(fleet_model(OBJECTS, "rsw", ACCESSES + 2)))
        .with_mode(EnforcementMode::Reactive);
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    for n in &names {
        guard.enroll(n, ["licensee"]);
    }
    let vocab: Vec<Access> = (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();
    (guard, names, vocab, programs)
}

/// Run the whole fleet workload sequentially; returns the grant count
/// (must equal OBJECTS × ACCESSES — the workload is all-grant).
fn run_fleet() -> usize {
    let (guard, names, vocab, programs) = fixture();
    let proofs = ProofStore::new();
    let mut table = AccessTable::new();
    for a in &vocab {
        table.intern(a);
    }
    let mut grants = 0;
    for k in 0..ACCESSES {
        let a = &vocab[k % vocab.len()];
        let prog = &programs[k % vocab.len()];
        let time = TimePoint::new(k as f64);
        for obj in &names {
            let req = GuardRequest {
                object: obj,
                access: a,
                remaining: prog,
                time,
            };
            if guard.decide(&req, &proofs, &mut table).is_granted() {
                grants += 1;
                proofs.issue(obj, a.clone(), time);
            }
        }
    }
    grants
}

/// Run the whole fleet workload through one `decide_batch` call.
fn run_fleet_batch() -> usize {
    let (guard, names, vocab, programs) = fixture();
    let proofs = ProofStore::new();
    let mut reqs = Vec::with_capacity(OBJECTS * ACCESSES);
    for k in 0..ACCESSES {
        for obj in &names {
            reqs.push(BatchRequest {
                object: obj,
                access: &vocab[k % vocab.len()],
                remaining: &programs[k % vocab.len()],
                time: TimePoint::new(k as f64),
            });
        }
    }
    guard
        .decide_batch(&reqs, &proofs, true)
        .iter()
        .filter(|v| v.is_granted())
        .count()
}

fn bench_decide_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12/decide-throughput/64x1000");
    // One full fleet run takes seconds; keep the shim to one warm run
    // plus two measured runs per mode.
    group.sample_size(2);
    group.warm_up_time(Duration::from_millis(1));
    group.measurement_time(Duration::from_millis(2));
    group.bench_function("incremental-sequential", |b| {
        b.iter(|| {
            let grants = run_fleet();
            assert_eq!(grants, OBJECTS * ACCESSES);
            black_box(grants)
        })
    });
    group.bench_function("incremental-batch-api", |b| {
        b.iter(|| {
            let grants = run_fleet_batch();
            assert_eq!(grants, OBJECTS * ACCESSES);
            black_box(grants)
        })
    });
    group.finish();
}

criterion_group!(e12, bench_decide_throughput);
criterion_main!(e12);
