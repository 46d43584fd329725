//! E4 (§5 prototype): the cost of coordinated access control in the
//! agent system — per-access guard latency and end-to-end run time for
//! the four models (coordinated / plain RBAC / TRBAC / local history)
//! plus the no-control upper bound, across agents × servers sweeps.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;
use std::time::Duration;

use stacl::baselines::trbac::RoleSchedule;
use stacl::prelude::*;
use stacl_bench::{licensee_model, open_model, tour_program, Vocab};

const RESOURCE: &str = "res0";

type GuardMaker = Box<dyn Fn() -> Box<dyn SecurityGuard>>;

fn guards(cap: usize) -> Vec<(&'static str, GuardMaker)> {
    vec![
        (
            "permissive",
            Box::new(|| Box::new(PermissiveGuard) as Box<dyn SecurityGuard>),
        ),
        (
            "plain-rbac",
            Box::new(|| {
                let mut g = PlainRbacGuard::new(open_model("agent0", RESOURCE));
                g.enroll("agent0", ["licensee"]);
                Box::new(g)
            }),
        ),
        (
            "trbac",
            Box::new(|| {
                let mut g = TrbacGuard::new(open_model("agent0", RESOURCE));
                g.enroll("agent0", ["licensee"]);
                g.schedule_role("licensee", RoleSchedule::periodic(1000.0, [(0.0, 999.0)]));
                Box::new(g)
            }),
        ),
        (
            "local-history",
            Box::new(move || {
                Box::new(LocalHistoryGuard::single(
                    Selector::any().with_resources([RESOURCE]),
                    cap,
                ))
            }),
        ),
        (
            "coordinated",
            Box::new(move || {
                let g = CoordinatedGuard::new(ExtendedRbac::new(licensee_model(
                    "agent0", RESOURCE, cap,
                )))
                .with_mode(EnforcementMode::Reactive);
                g.enroll("agent0", ["licensee"]);
                Box::new(g)
            }),
        ),
    ]
}

/// End-to-end: one agent touring `s` servers under each guard.
fn bench_tour_by_servers(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4/tour-by-servers");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    for s in [2usize, 8, 32] {
        let vocab = Vocab::new(1, 1, s);
        for (label, mk_guard) in guards(10 * s) {
            group.bench_with_input(BenchmarkId::new(label, s), &s, |bch, _| {
                bch.iter(|| {
                    let mut sys = NapletSystem::new(vocab.environment(), mk_guard());
                    sys.spawn(NapletSpec::new(
                        "agent0",
                        "s0",
                        tour_program("op0", RESOURCE, &vocab.servers),
                    ));
                    let r = sys.run();
                    assert_eq!(r.finished, 1);
                    black_box(r.steps)
                })
            });
        }
    }
    group.finish();
}

/// Many agents under the permissive guard: substrate scalability.
fn bench_agents_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4/agents-scaling(substrate)");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    for a in [1usize, 4, 16, 64] {
        let vocab = Vocab::new(1, 1, 8);
        group.bench_with_input(BenchmarkId::from_parameter(a), &a, |bch, _| {
            bch.iter(|| {
                let mut sys = NapletSystem::new(vocab.environment(), Box::new(PermissiveGuard));
                for i in 0..a {
                    sys.spawn(NapletSpec::new(
                        format!("agent{i}"),
                        "s0",
                        tour_program("op0", RESOURCE, &vocab.servers),
                    ));
                }
                let r = sys.run();
                assert_eq!(r.finished, a);
                black_box(r.steps)
            })
        });
    }
    group.finish();
}

/// Per-decision latency of the coordinated gate as history grows — the
/// run-time cost the §5 prototype pays at every `checkPermission`.
fn bench_decision_latency_vs_history(c: &mut Criterion) {
    use stacl::naplet::guard::{GuardRequest, SecurityGuard as _};
    let mut group = c.benchmark_group("E4/decision-latency-vs-history");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    for h in [0usize, 10, 100, 1000] {
        let mut guard = CoordinatedGuard::new(ExtendedRbac::new(licensee_model(
            "agent0",
            RESOURCE,
            h + 10,
        )))
        .with_mode(EnforcementMode::Reactive);
        guard.enroll("agent0", ["licensee"]);
        let proofs = ProofStore::new();
        for i in 0..h {
            proofs.issue(
                "agent0",
                Access::new("op0", RESOURCE, format!("s{}", i % 4)),
                TimePoint::new(i as f64),
            );
        }
        let access = Access::new("op0", RESOURCE, "s0");
        let remaining = stacl::sral::Program::Access(access.clone());
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                let req = GuardRequest {
                    object: "agent0",
                    access: &access,
                    remaining: &remaining,
                    time: TimePoint::new(h as f64 + 1.0),
                };
                black_box(guard.check(&req, &proofs, &mut table))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tour_by_servers,
    bench_agents_scaling,
    bench_decision_latency_vs_history
);
criterion_main!(benches);
