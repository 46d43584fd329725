//! `fleet-steady`: the E12 reference fleet, in process, closed loop.
//!
//! 64 objects × 1000 accesses against a reactive guard whose one
//! permission carries `count(0, 1002, resource=rsw)` on 4 servers, one
//! proof issued per grant. Each round builds fresh guards and runs the
//! whole stream twice: once through sequential `decide` calls and once
//! through one `decide_batch` call. The warm cursor path (naplet → rbac →
//! srac cursor bank) does all the work; attribute lowering, the wire and
//! policy compilation do none. The seed fixes the request order (a
//! shuffled object order per step) and each request's server; every
//! round replays the same stream, so per-round counters repeat exactly.

use std::time::Instant;

use stacl::naplet::guard::{BatchRequest, GuardRequest};
use stacl::obs::{self, Counter};
use stacl::prelude::*;
use stacl_ids::rng::SplitMix64;

use crate::calib;
use crate::fixtures::{fleet_guard, fleet_model, fleet_vocab, object_names, warm_table};
use crate::report::{Metric, Report};
use crate::stats::percentile_us;
use crate::trace::Tracer;
use crate::{peak_rss_mb, reset_peak_rss, srac_layers, Config, SETUP_REPS};

pub const NAME: &str = "fleet-steady";

/// One request of the stream.
struct Req {
    object: u16,
    access: u8,
    time: TimePoint,
}

struct Fixture {
    names: Vec<String>,
    vocab: Vec<Access>,
    programs: Vec<Program>,
    reqs: Vec<Req>,
    cap: usize,
}

impl Fixture {
    fn new(seed: u64, objects: usize, accesses: usize) -> Fixture {
        let vocab = fleet_vocab();
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xf1ee7);
        let mut order: Vec<u16> = (0..objects as u16).collect();
        let mut reqs = Vec::with_capacity(objects * accesses);
        for step in 0..accesses {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            for &object in &order {
                reqs.push(Req {
                    object,
                    access: rng.gen_range(0..vocab.len()) as u8,
                    time: TimePoint::new(step as f64),
                });
            }
        }
        Fixture {
            names: object_names(objects),
            programs: vocab.iter().map(|a| Program::Access(a.clone())).collect(),
            vocab,
            reqs,
            cap: accesses + 2,
        }
    }
}

/// What one round measured.
struct RoundOut {
    seq_s: f64,
    batch_s: f64,
    /// Requests whose batch verdict differs from the sequential one.
    mismatches: usize,
    not_granted: usize,
    /// Verdict counters minus decisions, summed over both passes.
    verdict_gap: i64,
    seq_counters: obs::MetricsSnapshot,
}

fn round(fx: &Fixture, tr: &mut Tracer, lat: &mut Vec<u64>, kinds: &mut Vec<u8>) -> RoundOut {
    lat.clear();
    kinds.clear();
    let traced = tr.is_on();
    let root = tr.enter("round", 0);

    let guard = tr.call("rbac.new", 0, || fleet_guard(&fx.names, fx.cap));
    let proofs = ProofStore::new();
    let mut table = warm_table(&fx.vocab);
    let before = obs::snapshot();
    let t0 = Instant::now();
    for (i, r) in fx.reqs.iter().enumerate() {
        let (object, access) = (
            fx.names[r.object as usize].as_str(),
            &fx.vocab[r.access as usize],
        );
        let req = GuardRequest {
            object,
            access,
            remaining: &fx.programs[r.access as usize],
            time: r.time,
        };
        let v = if traced {
            tr.call("naplet.decide", i as u64, || {
                guard.decide(&req, &proofs, &mut table)
            })
        } else {
            let s = Instant::now();
            let v = guard.decide(&req, &proofs, &mut table);
            lat.push(s.elapsed().as_nanos() as u64);
            v
        };
        kinds.push(v.kind as u8);
        if v.is_granted() {
            tr.call("coalition.proof_issue", i as u64, || {
                proofs.issue(object, access.clone(), req.time)
            });
        }
    }
    let seq_s = t0.elapsed().as_secs_f64();
    let seq_counters = obs::snapshot().diff(&before);

    let guard = tr.call("rbac.new", 0, || fleet_guard(&fx.names, fx.cap));
    let proofs = ProofStore::new();
    let batch: Vec<BatchRequest<'_>> = fx
        .reqs
        .iter()
        .map(|r| BatchRequest {
            object: &fx.names[r.object as usize],
            access: &fx.vocab[r.access as usize],
            remaining: &fx.programs[r.access as usize],
            time: r.time,
        })
        .collect();
    let before_batch = obs::snapshot();
    let t1 = Instant::now();
    let verdicts = tr.call("naplet.decide_batch", 0, || {
        guard.decide_batch(&batch, &proofs, true)
    });
    let batch_s = t1.elapsed().as_secs_f64();
    let batch_counters = obs::snapshot().diff(&before_batch);
    tr.exit(root);

    if traced {
        rbac_rung(fx, tr);
    }

    let n = fx.reqs.len() as i64;
    RoundOut {
        seq_s,
        batch_s,
        mismatches: verdicts
            .iter()
            .zip(kinds.iter())
            .filter(|(v, &k)| v.kind as u8 != k)
            .count(),
        not_granted: kinds
            .iter()
            .filter(|&&k| k != DecisionKind::Granted as u8)
            .count(),
        verdict_gap: (seq_counters.verdict_total() as i64 - n)
            + (batch_counters.verdict_total() as i64 - n),
        seq_counters,
    }
}

/// The ladder rung under `naplet.decide`: the same stream straight
/// through `ExtendedRbac::decide` (sessions opened up front, reactive
/// single-access programs, one proof per grant), so the guard's own
/// share is `naplet.decide − rbac.decide`.
fn rbac_rung(fx: &Fixture, tr: &mut Tracer) {
    let mut rbac = ExtendedRbac::new(fleet_model(&fx.names, "rsw", fx.cap));
    let sessions: Vec<_> = fx
        .names
        .iter()
        .map(|n| {
            let sid = rbac.open_session(n, vec![]).expect("fleet user exists");
            rbac.activate_role(sid, "licensee")
                .expect("fleet user holds licensee");
            sid
        })
        .collect();
    let proofs = ProofStore::new();
    let mut table = warm_table(&fx.vocab);
    let ladder = tr.enter("ladder", 0);
    for (i, r) in fx.reqs.iter().enumerate() {
        let (object, access) = (
            fx.names[r.object as usize].as_str(),
            &fx.vocab[r.access as usize],
        );
        let req = AccessRequest {
            object,
            session: sessions[r.object as usize],
            access,
            program: &fx.programs[r.access as usize],
            time: r.time,
            reuse_spatial: false,
        };
        if tr
            .call("rbac.decide", i as u64, || {
                rbac.decide(&req, &proofs, &mut table)
            })
            .is_granted()
        {
            proofs.issue(object, access.clone(), req.time);
        }
    }
    tr.exit(ladder);
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Report {
    let (objects, accesses) = if cfg.smoke { (8, 64) } else { (64, 1000) };
    let fx = Fixture::new(cfg.seed, objects, accesses);
    let mut report = Report::new(
        NAME,
        format!("{objects} objects x {accesses} accesses, reactive, count(0, {}, resource=rsw), 4 servers", fx.cap),
    );
    let mut lat = Vec::with_capacity(fx.reqs.len());
    let mut kinds = Vec::with_capacity(fx.reqs.len());

    // Set-up: each repetition is one full warm-up round (fresh guards,
    // both passes), so the median is what a round costs before caches,
    // the allocator and the batch worker tables are warm.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        round(&fx, tr, &mut lat, &mut kinds);
        setup.push(t.elapsed().as_secs_f64() / calib::allocation());
    }

    let (mut seq, mut batch, mut p50, mut p90, mut p99) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut traced_seq, mut factors) = (Vec::new(), Vec::new());
    let (mut mismatches, mut not_granted, mut verdict_gap) = (0usize, 0usize, 0i64);
    let mut rss = Vec::new();
    let start = Instant::now();
    let mut r = 0usize;
    while r < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        // A traced run alternates traced and untraced rounds, so the
        // tracing overhead is measured under the same machine state.
        tr.set_on(cfg.trace && r % 2 == 1);
        reset_peak_rss();
        let out = round(&fx, tr, &mut lat, &mut kinds);
        let round_rss = peak_rss_mb();
        let f = calib::allocation();
        tr.end_round(f);
        factors.push(f);
        let n = fx.reqs.len() as f64;
        if tr.is_on() {
            traced_seq.push(n / out.seq_s * f);
        } else {
            seq.push(n / out.seq_s * f);
            rss.push(round_rss);
            batch.push(n / out.batch_s * f);
            p50.push(percentile_us(&mut lat, 0.5) / f);
            p90.push(percentile_us(&mut lat, 0.9) / f);
            p99.push(percentile_us(&mut lat, 0.99) / f);
        }
        if r == 0 {
            report.set_counters(&out.seq_counters);
        }
        mismatches += out.mismatches;
        not_granted += out.not_granted;
        verdict_gap += out.verdict_gap;
        report.attempted += 2 * fx.reqs.len() as u64;
        r += 1;
    }
    tr.set_on(false);
    report.rounds = r;
    report.failed = obs::snapshot().counter(Counter::BatchPanicRecovered);

    report.metrics = vec![
        Metric::of("setup_s", "s", &setup),
        Metric::of("decisions_per_s", "1/s", &seq),
        Metric::of("batch_decisions_per_s", "1/s", &batch),
        Metric::of("decide_p50_us", "us", &p50),
        Metric::of("decide_p90_us", "us", &p90),
        Metric::one(
            "failed_share",
            "ratio",
            report.failed as f64 / report.attempted as f64,
        ),
        Metric::of("peak_rss_mb", "MB", &rss),
    ];
    report.diagnostics = vec![
        Metric::of("decide_p99_us", "us", &p99),
        Metric::of("calibration_factor", "ratio", &factors),
    ];

    report.check("all-grant", not_granted == 0, || {
        format!("{not_granted} sequential decisions were not grants")
    });
    report.check("batch-equals-sequential", mismatches == 0, || {
        format!("{mismatches} decide_batch verdicts differ from the sequential ones")
    });
    report.check(
        "verdict-counters-sum-to-decisions",
        verdict_gap == 0,
        || format!("verdict counters miss the decision count by {verdict_gap}"),
    );

    if cfg.trace {
        let seq_med = crate::stats::median(&seq);
        let traced_med = crate::stats::median(&traced_seq);
        for (name, v) in [
            ("naplet.decide.busy_s", tr.busy_s("naplet.decide")),
            ("naplet.decide.p50_us", tr.p50_us("naplet.decide")),
            ("naplet.decide.p90_us", tr.p90_us("naplet.decide")),
            (
                "naplet.decide_batch.busy_s",
                tr.busy_s("naplet.decide_batch"),
            ),
            ("rbac.decide.busy_s", tr.busy_s("rbac.decide")),
            (
                "naplet.self.busy_s",
                tr.busy_s("naplet.decide") - tr.busy_s("rbac.decide"),
            ),
            ("rbac.new.p50_us", tr.p50_us("rbac.new")),
            (
                "coalition.proof_issue.busy_s",
                tr.busy_s("coalition.proof_issue"),
            ),
            (
                "bench.trace_overhead_pct",
                (seq_med / traced_med - 1.0) * 100.0,
            ),
            ("bench.span_coverage_pct", tr.coverage_pct()),
        ] {
            report.layer(name, v);
        }
        srac_layers(&mut report);
        report.spans = tr.summary();
    }
    report
}
