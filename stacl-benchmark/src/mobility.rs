//! `mobility-mix`: cold starts, whole-itinerary checks and policy churn,
//! in process, closed loop.
//!
//! Each round replays a fresh batch of seeded scenarios — eight of each
//! of the five mobility profiles plus eight churn scenarios
//! (`Scenario::generate_churn(seed, 4)`) — each against a fresh guard.
//! Replay semantics are exactly those of the simulator's episode replay
//! (`stacl_sim::run_episode_opts`) minus its oracle: topology denials,
//! arrivals, policy flips, full remaining itineraries and skewed proof
//! stamps. Here policy installation (attribute lowering through
//! `sim::build_model` plus guard construction), SRAC compilation and
//! cursor cold starts dominate; a single decide is cheap.
//!
//! Inputs (scenarios and their replay plans) are generated before each
//! round's clock starts, so the program only ever sees generated inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use stacl::coalition::{CoalitionEnv, DecisionKind, ProofStore, Verdict};
use stacl::naplet::guard::{CoordinatedGuard, GuardRequest};
use stacl::obs::{self, Counter};
use stacl::prelude::{Access, AccessTable, ExtendedRbac, Program, TimePoint};
use stacl_ids::rng::SplitMix64;
use stacl_sim::{build_model, run_episode, Event, Profile, Scenario};

use crate::calib;
use crate::report::{Metric, Report};
use crate::stats::percentile_us;
use crate::trace::Tracer;
use crate::{peak_rss_mb, reset_peak_rss, srac_layers, Config, SETUP_REPS};

pub const NAME: &str = "mobility-mix";

/// Verdict kinds in `DecisionKind` discriminant order.
const KINDS: [DecisionKind; 6] = [
    DecisionKind::Granted,
    DecisionKind::DeniedNoPermission,
    DecisionKind::DeniedSpatial,
    DecisionKind::DeniedTemporal,
    DecisionKind::DeniedUnknownTarget,
    DecisionKind::DeniedCoordination,
];

/// One in this many replayed scenarios is re-run through the oracle-
/// checked simulator after the timed phase.
const CHECK_EVERY: usize = 16;

/// Seed of the fixed warm-up batch (see `run`).
const WARM_SEED: u64 = 0x3a7e_0b11;

enum Step {
    Arrive {
        obj: usize,
        time: TimePoint,
    },
    Flip {
        rev: usize,
    },
    /// `program` is `None` when topology denies the access before the
    /// guard is consulted (dead or unknown server).
    Access {
        obj: usize,
        access: Access,
        time: TimePoint,
        program: Option<Program>,
        stamp: TimePoint,
    },
}

struct Plan {
    sc: Scenario,
    steps: Vec<Step>,
}

impl Plan {
    fn new(sc: Scenario) -> Plan {
        let mut env = CoalitionEnv::new();
        for s in &sc.servers {
            env.add_server(s);
            for res in &sc.resources {
                env.add_resource(s, res, sc.ops.iter().map(String::as_str));
            }
        }
        let per_object: Vec<Vec<Access>> = (0..sc.objects.len())
            .map(|i| {
                sc.events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Access { obj, access, .. } if *obj == i => Some(access.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let mut cursor = vec![0usize; sc.objects.len()];
        let mut dead: BTreeSet<&str> = BTreeSet::new();
        let mut steps = Vec::with_capacity(sc.events.len());
        for e in &sc.events {
            match e {
                Event::Arrival {
                    obj,
                    time,
                    dropped: false,
                    ..
                } => steps.push(Step::Arrive {
                    obj: *obj,
                    time: TimePoint::new(*time),
                }),
                Event::Arrival { .. } => {}
                Event::ServerDeath { server, .. } => {
                    dead.insert(server);
                }
                Event::PolicyFlip { rev, .. } => steps.push(Step::Flip { rev: *rev }),
                Event::Access { obj, access, time } => {
                    let remaining = &per_object[*obj][cursor[*obj]..];
                    cursor[*obj] += 1;
                    let reachable = !dead.contains(&*access.server) && env.resolve(access).is_ok();
                    let skew = sc
                        .servers
                        .iter()
                        .position(|s| **s == *access.server)
                        .map_or(0.0, |i| sc.skews[i]);
                    steps.push(Step::Access {
                        obj: *obj,
                        access: access.clone(),
                        time: TimePoint::new(*time),
                        program: reachable.then(|| {
                            Program::seq_all(remaining.iter().cloned().map(Program::Access))
                        }),
                        stamp: TimePoint::new(time + skew),
                    });
                }
            }
        }
        Plan { sc, steps }
    }
}

/// The seeded scenario stream: one batch per round.
struct Stream {
    rng: SplitMix64,
    per_kind: usize,
}

impl Stream {
    fn batch(&mut self) -> Vec<Plan> {
        let mut plans = Vec::with_capacity(6 * self.per_kind);
        for _ in 0..self.per_kind {
            for p in Profile::ALL {
                plans.push(Plan::new(Scenario::generate_profile(
                    self.rng.next_u64(),
                    p,
                )));
            }
            plans.push(Plan::new(Scenario::generate_churn(self.rng.next_u64(), 4)));
        }
        plans
    }
}

/// Per-round accumulators.
#[derive(Default)]
struct Round {
    decisions: usize,
    /// Time spent in access and arrival steps (installs and flips excluded).
    loop_s: f64,
    lat_ns: Vec<u64>,
    installs_ms: Vec<f64>,
    flips_ms: Vec<f64>,
}

/// Replay one plan; returns its verdict histogram.
fn replay(p: &Plan, tr: &mut Tracer, acc: &mut Round) -> [usize; 6] {
    let sc = &p.sc;
    let t_install = Instant::now();
    let model = tr.call("abac.lower", 0, || build_model(sc, 0));
    let (guard, mut table) = tr.call("rbac.new", 0, || {
        let mut rbac = ExtendedRbac::new(model);
        for c in &sc.classes {
            rbac.define_validity_class(&c.name, c.dur, c.scheme);
        }
        let guard = CoordinatedGuard::new(rbac)
            .with_mode(sc.mode)
            .with_approval_reuse(sc.approval_reuse);
        for o in &sc.objects {
            guard.enroll(
                &o.name,
                o.enrolled.iter().map(|&r| sc.roles[r].name.as_str()),
            );
        }
        let mut table = AccessTable::new();
        guard.with_rbac(|r| r.saturate_alphabet(&mut table));
        (guard, table)
    });
    let proofs = ProofStore::new();
    acc.installs_ms
        .push(t_install.elapsed().as_secs_f64() * 1e3);

    let mut hist = [0usize; 6];
    let t_loop = Instant::now();
    let mut flips_s = 0.0;
    for (i, step) in p.steps.iter().enumerate() {
        match step {
            Step::Arrive { obj, time } => {
                tr.call("naplet.note_arrival", i as u64, || {
                    guard.note_arrival(&sc.objects[*obj].name, *time)
                });
            }
            Step::Flip { rev } => {
                let t = Instant::now();
                let model = tr.call("abac.lower", i as u64, || build_model(sc, *rev));
                let classes = sc.classes.iter().map(|c| (c.name.clone(), c.dur, c.scheme));
                let prepared = tr
                    .call("rbac.prepare_epoch", i as u64, || {
                        guard.with_rbac_read(|r| {
                            r.prepare_epoch(model, classes, *rev as u64, &mut table)
                        })
                    })
                    .expect("scenario epochs strictly increase");
                tr.call("rbac.activate_epoch", i as u64, || {
                    guard.with_rbac(|r| r.activate_epoch(prepared))
                })
                .expect("prepared epoch activates");
                let dt = t.elapsed().as_secs_f64();
                flips_s += dt;
                acc.flips_ms.push(dt * 1e3);
            }
            Step::Access {
                obj,
                access,
                time,
                program,
                stamp,
            } => {
                let name = &sc.objects[*obj].name;
                let kind = match program {
                    Some(program) => {
                        let req = GuardRequest {
                            object: name,
                            access,
                            remaining: program,
                            time: *time,
                        };
                        let v: Verdict = if tr.is_on() {
                            tr.call("naplet.decide", i as u64, || {
                                guard.decide(&req, &proofs, &mut table)
                            })
                        } else {
                            let s = Instant::now();
                            let v = guard.decide(&req, &proofs, &mut table);
                            acc.lat_ns.push(s.elapsed().as_nanos() as u64);
                            v
                        };
                        if v.is_granted() {
                            tr.call("coalition.proof_issue", i as u64, || {
                                proofs.issue(name, access.clone(), *stamp)
                            });
                        }
                        v.kind
                    }
                    None => {
                        // Topology denies before the guard runs; count it
                        // so verdict counters still sum to decisions.
                        obs::count(Counter::VerdictDeniedUnknownTarget);
                        DecisionKind::DeniedUnknownTarget
                    }
                };
                hist[kind as usize] += 1;
                acc.decisions += 1;
            }
        }
    }
    acc.loop_s += t_loop.elapsed().as_secs_f64() - flips_s;
    hist
}

fn histogram_map(hist: &[usize; 6]) -> BTreeMap<&'static str, usize> {
    KINDS
        .iter()
        .zip(hist)
        .filter(|(_, &n)| n > 0)
        .map(|(k, &n)| (k.label(), n))
        .collect()
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Report {
    let per_kind = if cfg.smoke { 1 } else { 8 };
    let mut stream = Stream {
        rng: SplitMix64::seed_from_u64(cfg.seed ^ 0x0b11_17e5),
        per_kind,
    };
    let mut report = Report::new(
        NAME,
        format!(
            "{per_kind} scenario(s) per round of each profile ({}) and of churn(4), fresh guard each",
            Profile::ALL.map(Profile::name).join(", ")
        ),
    );

    // Set-up: one warm-up batch replayed per repetition. The batch is the
    // same for every seed: a batch's cost swings with how many of its
    // scenarios carry expensive cron rules, and setup_s must compare
    // across seeds.
    let warm = Stream {
        rng: SplitMix64::seed_from_u64(WARM_SEED),
        per_kind,
    }
    .batch();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut acc = Round::default();
        for p in &warm {
            replay(p, tr, &mut acc);
        }
        setup.push(t.elapsed().as_secs_f64() / calib::allocation());
    }

    let (mut thr, mut p50, mut p90, mut p99) = (vec![], vec![], vec![], vec![]);
    let (mut installs, mut flips, mut traced_thr) = (vec![], vec![], vec![]);
    let mut factors = Vec::new();
    let mut samples: Vec<(Scenario, [usize; 6])> = Vec::new();
    let mut replayed = 0usize;
    let mut rss = Vec::new();
    let start = Instant::now();
    let mut r = 0usize;
    while r < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let plans = stream.batch();
        tr.set_on(cfg.trace && r % 2 == 1);
        let mut acc = Round::default();
        let before = obs::snapshot();
        reset_peak_rss();
        let root = tr.enter("round", r as u64);
        let hists: Vec<[usize; 6]> = plans.iter().map(|p| replay(p, tr, &mut acc)).collect();
        tr.exit(root);
        let round_rss = peak_rss_mb();
        let f = calib::allocation();
        tr.end_round(f);
        factors.push(f);
        if r == 0 {
            report.set_counters(&obs::snapshot().diff(&before));
        }
        for (p, h) in plans.into_iter().zip(hists) {
            if replayed.is_multiple_of(CHECK_EVERY) {
                samples.push((p.sc, h));
            }
            replayed += 1;
        }
        let rate = acc.decisions as f64 / acc.loop_s * f;
        if tr.is_on() {
            traced_thr.push(rate);
        } else {
            thr.push(rate);
            rss.push(round_rss);
            p50.push(percentile_us(&mut acc.lat_ns, 0.5) / f);
            p90.push(percentile_us(&mut acc.lat_ns, 0.9) / f);
            p99.push(percentile_us(&mut acc.lat_ns, 0.99) / f);
            installs.extend(acc.installs_ms.iter().map(|ms| ms / f));
            flips.extend(acc.flips_ms.iter().map(|ms| ms / f));
        }
        report.attempted += acc.decisions as u64;
        r += 1;
    }
    tr.set_on(false);
    report.rounds = r;
    report.failed = obs::snapshot().counter(Counter::BatchPanicRecovered);
    report.metrics = vec![
        Metric::of("setup_s", "s", &setup),
        Metric::of("decisions_per_s", "1/s", &thr),
        Metric::of("decide_p50_us", "us", &p50),
        Metric::of("decide_p90_us", "us", &p90),
        Metric::of("policy_install_p50_ms", "ms", &installs),
        Metric::of("epoch_flip_p50_ms", "ms", &flips),
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

    // Correctness: the sampled scenarios' histograms must equal the
    // oracle-checked simulator's, with no divergence.
    let mut bad = Vec::new();
    for (sc, hist) in &samples {
        let ep = run_episode(sc, None);
        if let Some(d) = &ep.divergence {
            bad.push(format!("seed {}: oracle divergence {d}", sc.seed));
        } else if ep.histogram != histogram_map(hist) {
            bad.push(format!(
                "seed {}: histogram {:?}, simulator {:?}",
                sc.seed,
                histogram_map(hist),
                ep.histogram
            ));
        }
    }
    let checked = samples.len();
    report.check(
        "histograms-match-simulator",
        bad.is_empty() && checked > 0,
        || {
            format!(
                "{} of {checked} sampled scenarios: {}",
                bad.len(),
                bad.join("; ")
            )
        },
    );

    if cfg.trace {
        for (name, v) in [
            ("naplet.decide.busy_s", tr.busy_s("naplet.decide")),
            ("naplet.decide.p50_us", tr.p50_us("naplet.decide")),
            ("naplet.decide.p90_us", tr.p90_us("naplet.decide")),
            (
                "naplet.note_arrival.busy_s",
                tr.busy_s("naplet.note_arrival"),
            ),
            ("rbac.new.p50_us", tr.p50_us("rbac.new")),
            ("rbac.prepare_epoch.p50_us", tr.p50_us("rbac.prepare_epoch")),
            (
                "rbac.activate_epoch.p50_us",
                tr.p50_us("rbac.activate_epoch"),
            ),
            ("abac.lower.p50_us", tr.p50_us("abac.lower")),
            (
                "coalition.proof_issue.busy_s",
                tr.busy_s("coalition.proof_issue"),
            ),
            (
                "bench.trace_overhead_pct",
                (crate::stats::median(&thr) / crate::stats::median(&traced_thr) - 1.0) * 100.0,
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
