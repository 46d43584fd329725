//! `coalition-churn`: decisions while membership and policy change.
//!
//! Two daemons on a rendezvous ring. The whole population is claimed at
//! its ring homes; a seeded hot set decides open loop at 5 000/s at each
//! object's *current* home, with one proof replicated to that home per
//! grant and proof compaction after 64 live proofs. The run is four
//! rounds of equal length. Member `d1` leaves at the start of the first
//! and third and rejoins at the start of the second and fourth — each
//! change drains the moved keys through handoff pulls while decisions
//! keep flowing — and one two-phase policy rollout lands on both members
//! over the wire at each round's midpoint. Custody handoff (export/import,
//! the pull, placement) and rollouts (prepare/activate) compete with
//! decisions here and nowhere else, so a change that speeds decides by
//! slowing handoffs or rollouts shows on this workload.
//!
//! The steps run at fixed times rather than back to back. Back to back,
//! every decision queued behind handoff imports on the shared core, the
//! median sat on the steep part of a queueing curve, and it moved by 30%
//! between runs when the host slowed. At fixed times the drains fill
//! about a seventh of a round at the host's usual speed, and under two
//! fifths when it is slow, so the median is a decide's own latency and
//! the p90 and p99 carry the handoff contention.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use stacl::coalition::{DecisionKind, Placement};
use stacl::naplet::guard::Custody;
use stacl::obs::{self, Counter, MetricsSnapshot};
use stacl::prelude::*;
use stacl::rbac::policy::render_policy;
use stacl_ids::rng::SplitMix64;
use stacl_net::{Client, DaemonConfig, DaemonHandle};

use crate::affinity;
use crate::calib;
use crate::fixtures::{fleet_guard, fleet_model, fleet_vocab, object_names};
use crate::report::{Metric, Report};
use crate::stats::{median, percentile_us};
use crate::trace::Tracer;
use crate::{peak_rss_mb, reset_peak_rss, Config, SETUP_REPS};

pub const NAME: &str = "coalition-churn";

const COMPACT_AFTER: usize = 64;

/// Rounds per run, alternately a leave and a rejoin, each `--seconds /
/// ROUNDS` long. Even, so the run ends with both members on the ring.
const ROUNDS: usize = 4;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

struct Fixture {
    population: Vec<String>,
    hot: Vec<String>,
    vocab: Vec<Access>,
    remaining: Vec<Vec<Access>>,
    /// Decisions per second offered by the open loop.
    rate: f64,
    /// The hot set's `count(0, cap, resource=rsw)` limit.
    cap: usize,
    /// The same policy as rollout text (a new epoch of an unchanged
    /// policy, the common case: warm cursors are carried across).
    policy: String,
}

struct Coalition {
    daemons: Vec<DaemonHandle>,
    members: Vec<(String, SocketAddr)>,
    clients: Vec<Client>,
    full: Placement,
}

impl Coalition {
    fn index(&self, member: &str) -> usize {
        self.members
            .iter()
            .position(|(n, _)| n == member)
            .expect("home comes from the member ring")
    }

    fn shutdown(mut self) {
        self.clients.clear();
        for d in &mut self.daemons {
            d.shutdown();
        }
    }
}

fn build(fx: &Fixture, tr: &mut Tracer) -> Coalition {
    let mut daemons = Vec::new();
    for i in 0..2 {
        let guard = fleet_guard(&fx.hot, fx.cap);
        guard.set_custody_enforcement(true);
        let mut cfg = DaemonConfig::new(format!("d{i}"));
        cfg.compact_after = COMPACT_AFTER;
        daemons
            .push(stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind a loopback daemon"));
    }
    let members: Vec<(String, SocketAddr)> = daemons
        .iter()
        .map(|d| (d.name().to_string(), d.addr()))
        .collect();
    for d in &daemons {
        d.set_members(&members);
    }
    let full = Placement::new(members.iter().map(|(n, _)| n.clone()));
    let mut c = Coalition {
        daemons,
        members,
        clients: Vec::new(),
        full,
    };
    for (k, name) in fx.population.iter().enumerate() {
        let home = tr.call("coalition.home_of", k as u64, || {
            c.full.home_of(name).map(str::to_string)
        });
        let d = c.index(&home.expect("two-member ring"));
        tr.call("naplet.take_custody", k as u64, || {
            c.daemons[d].guard().take_custody(name)
        })
        .expect("ring-valid claim");
    }
    for d in &c.daemons {
        let mut client = Client::connect(d.addr(), "bench", Some(Duration::from_secs(10)))
            .expect("connect to a loopback daemon");
        client
            .sync_vocab(
                fx.hot
                    .iter()
                    .map(String::as_str)
                    .chain(["exec", "rsw", "s0", "s1", "s2", "s3"]),
            )
            .expect("vocabulary sync");
        c.clients.push(client);
    }
    // Warm-up: every hot object decides once at its home and replicates
    // the proof, so compiled automata and cursors exist before timing.
    for obj in &fx.hot {
        let d = c.index(c.full.home_of(obj).expect("two-member ring"));
        let (a, rem) = (&fx.vocab[0], &fx.remaining[0]);
        let v = c.clients[d]
            .decide(obj, a, rem, 0.0)
            .expect("warm-up decide");
        assert!(v.is_granted(), "warm-up decide at the home grants");
        c.clients[d]
            .issue_proof(obj, a, 0.0)
            .expect("warm-up proof");
    }
    c
}

/// Measured while one round ran.
#[derive(Default)]
struct RoundOut {
    lat_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    decisions: usize,
    elapsed_s: f64,
    drains: Vec<(usize, f64)>,
    rollout_ms: f64,
    /// Syscall kernel readings taken between decisions (see `round`).
    factors: Vec<f64>,
}

struct Run<'a> {
    fx: &'a Fixture,
    c: Coalition,
    rng: SplitMix64,
    /// Decision sequence number (virtual time in ms, hot-set cursor).
    k: usize,
    epoch: u64,
    kinds: [u64; 6],
    errors: Vec<String>,
}

impl Run<'_> {
    fn handoffs_done() -> u64 {
        let s = obs::snapshot();
        s.counter(Counter::NetHandoffApplied) + s.counter(Counter::NetHandoffFailed)
    }

    /// One decision at the object's current home; returns when the
    /// verdict is in (the proof for a grant is sent afterwards).
    fn decide(&mut self, tr: &mut Tracer, ring: &Placement) -> Option<std::time::Instant> {
        let k = self.k;
        self.k += 1;
        let obj = &self.fx.hot[k % self.fx.hot.len()];
        let a = self.rng.gen_range(0..self.fx.vocab.len());
        let (access, rem) = (&self.fx.vocab[a], &self.fx.remaining[a]);
        let d = self.c.index(ring.home_of(obj).expect("non-empty ring"));
        let time = k as f64 * 1e-3;
        let client = &mut self.c.clients[d];
        match tr.call("net.decide", k as u64, || {
            client.decide(obj, access, rem, time)
        }) {
            Ok(v) => {
                let done = Instant::now();
                self.kinds[v.kind as usize] += 1;
                if v.is_granted() {
                    if let Err(e) = tr.call("net.issue_proof", k as u64, || {
                        client.issue_proof(obj, access, time)
                    }) {
                        self.errors.push(format!("issue_proof {obj}: {e}"));
                    }
                }
                Some(done)
            }
            Err(e) => {
                self.errors.push(format!("decide {obj}: {e}"));
                None
            }
        }
    }

    fn set_members(&mut self, tr: &mut Tracer, members: &[(String, SocketAddr)]) -> u64 {
        let daemons = &self.c.daemons;
        tr.call("net.set_members", 0, || {
            daemons.iter().map(|d| d.set_members(members) as u64).sum()
        })
    }

    fn rollout(&mut self, tr: &mut Tracer) -> f64 {
        self.epoch += 1;
        let (epoch, text) = (self.epoch, self.fx.policy.as_str());
        let t = Instant::now();
        for i in 0..self.c.clients.len() {
            let c = &mut self.c.clients[i];
            if let Err(e) = tr.call("net.policy_prepare", epoch, || {
                c.policy_prepare(epoch, text, &[])
            }) {
                self.errors.push(format!("prepare epoch {epoch}: {e}"));
            }
        }
        for i in 0..self.c.clients.len() {
            let c = &mut self.c.clients[i];
            if let Err(e) = tr.call("net.policy_activate", epoch, || c.policy_activate(epoch)) {
                self.errors.push(format!("activate epoch {epoch}: {e}"));
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    /// One round of `period` with the open-loop decision stream running
    /// throughout: at its start `d1` leaves (or, when `rejoin`, rejoins)
    /// and the moved keys drain through handoff pulls; at its midpoint one
    /// two-phase rollout lands on both members. A drain ends when every
    /// initiated handoff was applied (or failed). The rollout waits for
    /// the drain, and the round ends at `period` or once both steps are
    /// done, whichever is later.
    fn round(&mut self, tr: &mut Tracer, rejoin: bool, period: Duration) -> RoundOut {
        let root = tr.enter("round", self.epoch);
        let mut out = RoundOut::default();
        let all = self.c.members.clone();
        let ring = if rejoin {
            self.c.full.clone()
        } else {
            Placement::new([all[0].0.clone()])
        };
        let gap = Duration::from_secs_f64(1.0 / self.fx.rate);
        let t0 = Instant::now();
        let base = Self::handoffs_done();
        let expect = self.set_members(tr, if rejoin { &all[..] } else { &all[..1] });
        // (handoffs expected, handoff count before) of the drain.
        let mut drain = Some((expect, base));
        let mut rolled_out = false;
        let mut sent = 0u32;
        let (mut last_poll, mut last_kernel) = (t0, t0);
        loop {
            let now = Instant::now();
            let due = t0 + gap * sent;
            if now >= due {
                if let Some(done) = self.decide(tr, &ring) {
                    out.lat_ns.push((done - due).as_nanos() as u64);
                }
                out.lag_ns.push((now - due).as_nanos() as u64);
                out.decisions += 1;
                sent += 1;
                continue;
            }
            // Summing the obs stripes costs microseconds; once per
            // millisecond is enough.
            if let Some((expect, base)) =
                drain.filter(|_| now - last_poll >= Duration::from_millis(1))
            {
                last_poll = now;
                let done = Self::handoffs_done() - base;
                if done >= expect {
                    out.drains.push((expect as usize, (now - t0).as_secs_f64()));
                    drain = None;
                } else if now - t0 > DRAIN_TIMEOUT {
                    self.errors
                        .push(format!("drain stalled at {done}/{expect} handoffs"));
                    drain = None;
                }
            }
            if drain.is_none() && !rolled_out && now >= t0 + period / 2 {
                out.rollout_ms = self.rollout(tr);
                rolled_out = true;
                continue;
            }
            if rolled_out && now >= t0 + period {
                break;
            }
            // While no drain runs, time a short syscall kernel in the gap
            // before the next decision every 20 ms. One kernel after a
            // 5 s round reads the round's speed poorly; the median of
            // these ~200 readings is the round's scale factor.
            if drain.is_none()
                && now - last_kernel >= Duration::from_millis(20)
                && due - now > Duration::from_micros(150)
            {
                out.factors.push(calib::syscall_trips(50));
                last_kernel = now;
                continue;
            }
            // Sleep until the next decision is due, so the daemons'
            // threads get the shared CPU (timer slack is minimal, see
            // `affinity::tight_timer_slack`).
            let wait = due.saturating_duration_since(Instant::now());
            if wait > Duration::from_micros(20) {
                std::thread::sleep(wait);
            }
        }
        out.elapsed_s = t0.elapsed().as_secs_f64();
        tr.exit(root);
        out
    }
}

/// `p`-quantile of a log₂-bucket nanosecond histogram, in µs (bucket
/// `i` covers `[2^i, 2^(i+1))`; reported at its geometric midpoint).
fn hist_us(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (p * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return 2f64.powf(i as f64 + 0.5) / 1e3;
        }
    }
    0.0
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Report {
    let (population, hot, rate) = if cfg.smoke {
        (400, 32, 1_000.0)
    } else {
        (4_000, 512, 5_000.0)
    };
    // Like E18, the cap sits above each hot object's decision count (the
    // stream visits the hot set round-robin). It is a fixed 400 up to
    // ~40 measured seconds and grows only for longer runs: a handoff
    // import compiles the cap-sized counting automaton, so the cap sets
    // the cost of every hot handoff.
    let cap = ((rate * cfg.seconds / hot as f64 * 1.25) as usize + 64).max(400);
    let names = object_names(population);
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xc0a1);
    let mut idx: Vec<usize> = (0..population).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.gen_range(0..i + 1));
    }
    let hot: Vec<String> = idx[..hot].iter().map(|&i| names[i].clone()).collect();
    let vocab = fleet_vocab();
    let fx = Fixture {
        remaining: vocab.iter().map(|a| vec![a.clone()]).collect(),
        policy: render_policy(&fleet_model(&hot, "rsw", cap)),
        rate,
        cap,
        vocab,
        hot,
        population: names,
    };
    let cpu = affinity::pin_to_one_cpu();
    affinity::tight_timer_slack();
    let mut report = Report::new(
        NAME,
        format!(
            "2 daemons, {population} objects claimed, {} hot deciding open loop at {rate}/s \
             under count(0, {cap}, resource=rsw), compact_after {COMPACT_AFTER}; {ROUNDS} rounds \
             of {:.2} s, d1 leaving or rejoining at each start and one rollout at each \
             midpoint; pinned to cpu {cpu:?}",
            fx.hot.len(),
            cfg.seconds / ROUNDS as f64
        ),
    );

    // Set-up: spawn both daemons, install the ring, claim the population
    // at its homes, connect and sync. The last repetition is measured.
    tr.set_on(cfg.trace);
    let mut setup = Vec::new();
    let mut coalition = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let root = tr.enter("setup", 0);
        let c = build(&fx, tr);
        tr.exit(root);
        let f = calib::syscalls();
        tr.end_round(f);
        setup.push(t.elapsed().as_secs_f64() / f);
        if let Some(old) = coalition.replace(c) {
            old.shutdown();
        }
    }
    let setup_busy = (
        tr.busy_s("naplet.take_custody"),
        tr.busy_s("coalition.home_of"),
    );
    tr.set_on(false);

    let mut run = Run {
        fx: &fx,
        c: coalition.expect("at least one set-up repetition"),
        rng: SplitMix64::seed_from_u64(cfg.seed ^ 0xd0c1),
        k: 0,
        epoch: 0,
        kinds: [0; 6],
        errors: Vec::new(),
    };
    let before = obs::snapshot();
    // Latencies of the untraced (and traced) rounds, pooled over the run.
    let (mut lat, mut traced_lat, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let (mut thr, mut rss, mut drains, mut flips) = (vec![], vec![], vec![], vec![]);
    let mut factors = Vec::new();
    let period = Duration::from_secs_f64(cfg.seconds / ROUNDS as f64);
    for r in 0..ROUNDS {
        // A traced run traces its second half: one leave and one rejoin
        // round each way, so the tracing overhead compares like rounds.
        tr.set_on(cfg.trace && r >= ROUNDS / 2);
        reset_peak_rss();
        let o = run.round(tr, r % 2 == 1, period);
        let round_rss = peak_rss_mb();
        let f = if o.factors.is_empty() {
            calib::syscalls()
        } else {
            median(&o.factors)
        };
        tr.end_round(f);
        factors.push(f);
        let scaled = |ns: &[u64]| {
            ns.iter()
                .map(|&t| (t as f64 / f) as u64)
                .collect::<Vec<_>>()
        };
        lag.extend(scaled(&o.lag_ns));
        drains.extend(o.drains.iter().map(|&(n, s)| (n, s / f)));
        flips.push(o.rollout_ms / f);
        if tr.is_on() {
            traced_lat.extend(scaled(&o.lat_ns));
        } else {
            // The open loop's delivered rate is its offered rate, not a
            // measure of host speed, so it is not scaled.
            thr.push(o.decisions as f64 / o.elapsed_s);
            rss.push(round_rss);
            lat.extend(scaled(&o.lat_ns));
        }
    }
    tr.set_on(false);
    let delta: MetricsSnapshot = obs::snapshot().diff(&before);
    report.set_counters(&delta);
    report.rounds = ROUNDS;
    // Four rounds are too few for a median of per-round percentiles, so
    // the (scaled) latencies of all untraced rounds are pooled.
    let pooled = |name: &'static str, ns: &mut Vec<u64>, p: f64| {
        let mut m = Metric::one(name, "us", percentile_us(ns, p));
        m.samples = ns.len();
        m
    };
    let handoff_rates: Vec<f64> = drains.iter().map(|&(n, s)| n as f64 / s).collect();
    let drain_s: Vec<f64> = drains.iter().map(|&(_, s)| s).collect();

    let decisions = run.kinds.iter().sum::<u64>();
    let attempted = run.k as u64;
    let coordination = run.kinds[DecisionKind::DeniedCoordination as usize];
    let other_denials = decisions - coordination - run.kinds[DecisionKind::Granted as usize];
    report.attempted = attempted;
    report.failed = run.errors.len() as u64
        + (attempted - decisions)
        + delta.counter(Counter::NetHandoffFailed);
    report.metrics = vec![
        Metric::of("setup_s", "s", &setup),
        Metric::of("decisions_per_s", "1/s", &thr),
        pooled("decide_p50_us", &mut lat, 0.5),
        pooled("decide_p90_us", &mut lat, 0.9),
        Metric::of("epoch_flip_p50_ms", "ms", &flips),
        Metric::of("handoffs_per_s", "1/s", &handoff_rates),
        Metric::one(
            "failsafe_share",
            "ratio",
            coordination as f64 / attempted.max(1) as f64,
        ),
        Metric::one(
            "failed_share",
            "ratio",
            report.failed as f64 / attempted.max(1) as f64,
        ),
        Metric::of("peak_rss_mb", "MB", &rss),
    ];
    report.diagnostics = vec![
        pooled("decide_p99_us", &mut lat, 0.99),
        pooled("generator_lag_p90_us", &mut lag, 0.9),
        Metric::of("drain_s", "s", &drain_s),
        Metric::of("calibration_factor", "ratio", &factors),
    ];

    // Correctness, after the clock stopped.
    let c = &run.c;
    let mut misplaced = 0usize;
    for name in &fx.population {
        let resident: Vec<usize> = (0..c.daemons.len())
            .filter(|&d| c.daemons[d].guard().custody_of(name) == Custody::Resident)
            .collect();
        let home = c.full.home_of(name).map(|h| c.index(h));
        if resident.len() != 1 || Some(resident[0]) != home {
            misplaced += 1;
        }
    }
    let epochs: Vec<u64> = c
        .daemons
        .iter()
        .map(|d| d.guard().with_rbac_read(|r| r.epoch()))
        .collect();
    let live: usize = c
        .daemons
        .iter()
        .map(|d| d.proofs().live_proof_total())
        .sum();
    let working_set = fx.hot.len() * COMPACT_AFTER;
    let (failed, errors) = (report.failed, run.errors.clone());
    report.check("no-operation-failed", failed == 0, || {
        format!("{failed} failures: {}", errors.join("; "))
    });
    report.check("custody-resident-once-at-ring-home", misplaced == 0, || {
        format!("{misplaced} objects not resident exactly once at their ring home")
    });
    report.check(
        "members-at-last-epoch",
        epochs.iter().all(|&e| e == run.epoch),
        || format!("member epochs {epochs:?}, last rollout {}", run.epoch),
    );
    report.check(
        "non-failsafe-verdicts-are-grants",
        other_denials == 0,
        || format!("{other_denials} denials other than DeniedCoordination"),
    );
    report.check("live-proofs-bounded", live < 2 * working_set, || {
        format!("{live} live proofs vs working set {working_set}")
    });

    if cfg.trace {
        let cnt = |k: Counter| delta.counter(k) as f64;
        for (name, v) in [
            ("naplet.take_custody.busy_s", setup_busy.0),
            ("coalition.home_of.busy_s", setup_busy.1),
            ("coalition.live_proofs", live as f64),
            ("net.handoff.p50_us", hist_us(&delta.handoff_ns, 0.5)),
            ("net.handoff.p90_us", hist_us(&delta.handoff_ns, 0.9)),
            ("net.drain_s", median(&drain_s)),
            ("net.rollout.p50_ms", median(&flips)),
            ("net.retries", cnt(Counter::NetRetry)),
            ("net.handoff_failed", cnt(Counter::NetHandoffFailed)),
            ("net.failsafe_denials", cnt(Counter::NetFailsafeDenial)),
            (
                "net.orphaned_completions",
                cnt(Counter::NetOrphanedCompletion),
            ),
            ("placement.rebalance", cnt(Counter::PlacementRebalance)),
            ("bench.generator_lag_p90_us", percentile_us(&mut lag, 0.9)),
            (
                "bench.trace_overhead_pct",
                (percentile_us(&mut traced_lat, 0.5) / percentile_us(&mut lat, 0.5) - 1.0) * 100.0,
            ),
        ] {
            report.layer(name, v);
        }
        report.spans = tr.summary();
    }
    run.c.shutdown();
    report
}
