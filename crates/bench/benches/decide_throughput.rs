//! E12 — decide throughput: the incremental cursor fast path on the
//! 64-object × 1000-access fleet workload, sequential and through the
//! `decide_batch` parallel API (DESIGN.md §8).
//!
//! Each iteration drives the *entire* fleet workload against a fresh
//! reactive guard, round-robin across objects (every object's proof
//! history grows between its consecutive decisions). The benchmark of
//! record for this path, with quartiles over repeated rounds, is
//! `stacl-benchmark`'s `fleet-steady` workload.

use stacl::naplet::guard::GuardRequest;
use stacl::prelude::*;
use stacl_bench::criterion::Criterion;
use stacl_bench::{criterion_group, criterion_main, fleet_guard, fleet_vocab};
use std::hint::black_box;
use std::time::Duration;

const OBJECTS: usize = 64;
const ACCESSES: usize = 1000;

/// Run the whole fleet workload sequentially; returns the grant count
/// (must equal OBJECTS × ACCESSES — the workload is all-grant).
fn run_fleet() -> usize {
    stacl_bench::run_fleet(&fleet_guard(OBJECTS, ACCESSES), OBJECTS, ACCESSES, |_| {})
        .iter()
        .filter(|v| v.is_granted())
        .count()
}

/// Run the whole fleet workload through one `decide_batch` call.
fn run_fleet_batch() -> usize {
    let guard = fleet_guard(OBJECTS, ACCESSES);
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    let vocab = fleet_vocab();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();
    let proofs = ProofStore::new();
    let mut reqs = Vec::with_capacity(OBJECTS * ACCESSES);
    for k in 0..ACCESSES {
        for obj in &names {
            reqs.push(GuardRequest {
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

fn decide_throughput(c: &mut Criterion) {
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

criterion_group!(e12, decide_throughput);
criterion_main!(e12);
