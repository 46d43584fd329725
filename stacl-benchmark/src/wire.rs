//! `wire-pipelined`: one daemon on loopback, one protocol-v2 client
//! connection.
//!
//! 256 objects under the lowered E19 attribute policy — a constant-size
//! `count(0, 0, server=s4)` constraint, no proofs issued — so a decide is
//! trivial and framing, syscalls, poll wake-ups and write coalescing
//! dominate. One request in eight (seeded) targets a resource no
//! permission grants. Each round runs phase A, an open loop at 50 000
//! decisions/s with every request timed from its due time and the
//! generator's lateness recorded, then phase B, a closed loop with a
//! window of 256. Interleaving the phases round by round puts both under
//! the same host conditions.
//!
//! After every round (clock stopped) an in-process twin guard, built from
//! the hand-written side of the E19 pair, re-decides the round's requests
//! in order: lowering plus the wire must change no verdict. Timings of
//! set-up and rounds are scaled by the syscall calibration kernel (see
//! `calib.rs`), except `decide_p50_us`.
//!
//! `decide_p50_us` is the lowest per-round open-loop median of the run,
//! unscaled. On one shared core that median sits at one of a few levels
//! (about 14, 20 and 30 µs on the development host), as the host's speed
//! regime changes, and a kernel timed after the round tracks the level
//! poorly: over twelve runs the median over rounds, scaled, spread by
//! 16%, and the lowest round's median, a round the host did not slow,
//! by 5% (9–10% in two later ten-run sets).

use std::time::{Duration, Instant};

use stacl::coalition::{DecisionKind, Verdict};
use stacl::naplet::guard::GuardRequest;
use stacl::obs::{self, Counter};
use stacl::prelude::*;
use stacl::rbac::policy::parse_policy;
use stacl_ids::rng::SplitMix64;
use stacl_net::frames::{DecideItem, WireAccess};
use stacl_net::{Client, DaemonConfig, DaemonHandle, Frame, Pipeline};

use crate::affinity;
use crate::calib;
use crate::fixtures::{attr_policy_pair, object_names};
use crate::report::{Metric, Report};
use crate::stats::{median, percentile_us};
use crate::trace::Tracer;
use crate::{peak_rss_mb, reset_peak_rss, Config, SETUP_REPS};

pub const NAME: &str = "wire-pipelined";

const RATE: f64 = 50_000.0;
const WINDOW: usize = 256;
const UNRESOLVED: u8 = u8::MAX;

/// The access vocabulary: `exec rsw @ sK` is granted, `exec db @ sK` is
/// not (no permission grants `db`).
fn accesses() -> Vec<Access> {
    let mut v = Vec::new();
    for res in ["rsw", "db"] {
        for s in 0..4 {
            v.push(Access::new("exec", res, format!("s{s}")));
        }
    }
    v
}

/// The seeded request stream. `log` holds the requests sent since the
/// last verification; `base` counts the ones before them.
struct Stream {
    rng: SplitMix64,
    objects: usize,
    base: usize,
    /// `(object, access index)` per request, in send order.
    log: Vec<(u16, u8)>,
    /// Verdict kind per logged request (`UNRESOLVED` until it lands).
    kinds: Vec<u8>,
}

impl Stream {
    fn new(seed: u64, objects: usize) -> Stream {
        Stream {
            rng: SplitMix64::seed_from_u64(seed ^ 0x05ee_d0e7),
            objects,
            base: 0,
            log: Vec::new(),
            kinds: Vec::new(),
        }
    }

    /// Draw the next request; returns its log index.
    fn next(&mut self) -> usize {
        let obj = self.rng.gen_range(0..self.objects) as u16;
        let ungranted = self.rng.gen_range(0..8) == 0;
        let acc = self.rng.gen_range(0..4) as u8 + if ungranted { 4 } else { 0 };
        self.log.push((obj, acc));
        self.kinds.push(UNRESOLVED);
        self.log.len() - 1
    }

    /// Request `i` of the log runs 1 ms of virtual time after the one
    /// before it.
    fn time(&self, i: usize) -> f64 {
        (self.base + i) as f64 * 1e-3
    }

    /// Record completions of requests whose ids started at `first_id`
    /// and whose log indices started at `first_log`.
    fn land(&mut self, done: Vec<(u64, Verdict)>, first_id: u64, first_log: usize) -> usize {
        let n = done.len();
        for (id, v) in done {
            if let Some(k) = self.kinds.get_mut(first_log + (id - first_id) as usize) {
                *k = v.kind as u8;
            }
        }
        n
    }
}

struct Fixture {
    names: Vec<String>,
    accesses: Vec<Access>,
    remaining: Vec<Vec<Access>>,
    programs: Vec<Program>,
    hand: String,
    lowered: String,
}

impl Fixture {
    fn submit(&self, p: &mut Pipeline<'_>, stream: &Stream, i: usize) -> Result<u64, String> {
        let (o, a) = stream.log[i];
        p.submit(
            &self.names[o as usize],
            &self.accesses[a as usize],
            &self.remaining[a as usize],
            stream.time(i),
        )
        .map_err(|e| e.to_string())
    }

    fn guard(&self, policy: &str) -> CoordinatedGuard {
        let guard = CoordinatedGuard::new(ExtendedRbac::new(
            parse_policy(policy).expect("fixture policy parses"),
        ))
        .with_mode(EnforcementMode::Reactive);
        for n in &self.names {
            guard.enroll(n, ["licensee"]);
        }
        guard
    }
}

/// A daemon, its client, the request stream and the twin that checks it.
struct Session {
    daemon: DaemonHandle,
    client: Client,
    stream: Stream,
    twin: CoordinatedGuard,
    twin_table: AccessTable,
    /// Verified requests whose wire verdict was missing or differed from
    /// the twin's (or from the policy's intent: `rsw` granted, `db` not).
    unresolved: usize,
    mismatches: usize,
}

impl Session {
    fn new(fx: &Fixture, seed: u64, warm: usize) -> Session {
        let daemon = stacl_net::spawn(
            fx.guard(&fx.lowered),
            ProofStore::new(),
            DaemonConfig::new("w0"),
        )
        .expect("bind a loopback daemon");
        let mut client = Client::connect(daemon.addr(), "bench", Some(Duration::from_secs(10)))
            .expect("connect to the loopback daemon");
        client
            .sync_vocab(
                fx.names
                    .iter()
                    .map(String::as_str)
                    .chain(["exec", "rsw", "db", "s0", "s1", "s2", "s3"]),
            )
            .expect("vocabulary sync");
        let mut s = Session {
            daemon,
            client,
            stream: Stream::new(seed, fx.names.len()),
            twin: fx.guard(&fx.hand),
            twin_table: AccessTable::new(),
            unresolved: 0,
            mismatches: 0,
        };
        closed_phase(fx, &mut s, &mut Tracer::new(), warm).expect("warm-up pass");
        s
    }

    /// Re-decide the logged requests on the twin, then drop the log.
    fn verify(&mut self, fx: &Fixture) {
        let proofs = ProofStore::new();
        for (i, (&(o, a), &kind)) in self.stream.log.iter().zip(&self.stream.kinds).enumerate() {
            let req = GuardRequest {
                object: &fx.names[o as usize],
                access: &fx.accesses[a as usize],
                remaining: &fx.programs[a as usize],
                time: TimePoint::new(self.stream.time(i)),
            };
            let expect = self.twin.decide(&req, &proofs, &mut self.twin_table).kind;
            let granted = fx.accesses[a as usize].resource.as_ref() == "rsw";
            if kind == UNRESOLVED {
                self.unresolved += 1;
            } else if kind != expect as u8 || (expect == DecisionKind::Granted) != granted {
                self.mismatches += 1;
            }
        }
        self.stream.base += self.stream.log.len();
        self.stream.log.clear();
        self.stream.kinds.clear();
    }
}

/// Phase B: `n` requests through a full window; returns elapsed seconds.
fn closed_phase(fx: &Fixture, s: &mut Session, tr: &mut Tracer, n: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut p = s.client.pipeline(WINDOW).map_err(|e| e.to_string())?;
    let first_log = s.stream.log.len();
    let mut first_id = None;
    for _ in 0..n {
        let i = s.stream.next();
        let id = tr.call("net.submit", i as u64, || fx.submit(&mut p, &s.stream, i))?;
        let base = *first_id.get_or_insert(id);
        s.stream.land(p.take(), base, first_log);
    }
    let rest = tr
        .call("net.recv_wait", 0, || p.finish())
        .map_err(|e| e.to_string())?;
    if let Some(base) = first_id {
        s.stream.land(rest, base, first_log);
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// What one open-loop phase measured.
struct OpenOut {
    lat_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    in_flight_sum: usize,
}

/// Phase A: `n` requests due every `1/RATE` s from now, each timed from
/// its due time to the moment its verdict is claimed.
fn open_phase(fx: &Fixture, s: &mut Session, tr: &mut Tracer, n: usize) -> Result<OpenOut, String> {
    let mut out = OpenOut {
        lat_ns: Vec::with_capacity(n),
        lag_ns: Vec::with_capacity(n),
        in_flight_sum: 0,
    };
    let mut p = s.client.pipeline(WINDOW).map_err(|e| e.to_string())?;
    let step = Duration::from_secs_f64(1.0 / RATE);
    let first_log = s.stream.log.len();
    let mut due: Vec<Instant> = Vec::with_capacity(n);
    let mut first_id = 0;
    let t0 = Instant::now() + step;
    let mut resolved = 0;
    while resolved < n {
        let now = Instant::now();
        let next_due = t0 + step * due.len() as u32;
        if due.len() < n && now >= next_due {
            let i = s.stream.next();
            out.in_flight_sum += p.in_flight();
            let id = tr.call("net.submit", i as u64, || fx.submit(&mut p, &s.stream, i))?;
            if due.is_empty() {
                first_id = id;
            }
            out.lag_ns.push((now - next_due).as_nanos() as u64);
            due.push(next_due);
        } else if p.in_flight() > 0 {
            let done = tr
                .call("net.recv_wait", 0, || p.recv_some())
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            for (id, _) in &done {
                out.lat_ns
                    .push((t - due[(id - first_id) as usize]).as_nanos() as u64);
            }
            resolved += s.stream.land(done, first_id, first_log);
        } else {
            std::thread::yield_now();
        }
    }
    Ok(out)
}

/// Encode and decode cost of the stream's own `Decide2` frames, ns per
/// frame (median of 5 passes over the last round's requests).
fn codec_rung(fx: &Fixture, stream: &Stream) -> (f64, f64) {
    let id_of = |name: &str| -> u32 {
        let base = fx.names.len() as u32;
        match name {
            "exec" => base,
            "rsw" => base + 1,
            "db" => base + 2,
            s => base + 3 + s[1..].parse::<u32>().expect("server sK"),
        }
    };
    let frames: Vec<Frame> = stream
        .log
        .iter()
        .enumerate()
        .map(|(i, &(o, a))| {
            let acc = &fx.accesses[a as usize];
            let wa = WireAccess {
                op: id_of(&acc.op),
                resource: id_of(&acc.resource),
                server: id_of(&acc.server),
            };
            Frame::Decide2 {
                id: i as u64,
                item: DecideItem {
                    object: o as u32,
                    time: stream.time(i),
                    access: wa.clone(),
                    remaining: vec![wa],
                },
            }
        })
        .collect();
    let n = frames.len().max(1) as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let bytes: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        enc.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for b in &bytes {
            std::hint::black_box(Frame::decode(b).expect("own frame decodes"));
        }
        dec.push(t.elapsed().as_nanos() as f64 / n);
    }
    (median(&enc), median(&dec))
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Report {
    let (objects, open_n, closed_n, warm) = if cfg.smoke {
        (16, 500, 1_000, 200)
    } else {
        (256, 5_000, 25_000, 10_000)
    };
    let names = object_names(objects);
    let (hand, lowered) = attr_policy_pair(&names);
    let accesses = accesses();
    let fx = Fixture {
        remaining: accesses.iter().map(|a| vec![a.clone()]).collect(),
        programs: accesses.iter().cloned().map(Program::Access).collect(),
        accesses,
        names,
        hand,
        lowered,
    };
    let cpu = affinity::pin_to_one_cpu();
    let mut report = Report::new(
        NAME,
        format!(
            "{objects} objects, count(0, 0, server=s4), 1 in 8 ungranted; per round {open_n} \
             requests open loop at {RATE}/s, then {closed_n} through a window of {WINDOW}; \
             pinned to cpu {cpu:?}"
        ),
    );

    // Set-up: daemon spawn, connect, vocabulary sync and a warm-up pass;
    // the last repetition's session is the one measured.
    let mut setup = Vec::new();
    let mut session: Option<Session> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut s = Session::new(&fx, cfg.seed, warm);
        setup.push(t.elapsed().as_secs_f64() / calib::syscalls());
        s.verify(&fx);
        if let Some(mut old) = session.replace(s) {
            old.daemon.shutdown();
        }
    }
    let mut s = session.expect("at least one set-up repetition");

    let mut errors = Vec::new();
    let (mut p50, mut p90, mut p99, mut lag) = (vec![], vec![], vec![], vec![]);
    let (mut thr, mut traced_thr, mut in_flight) = (vec![], vec![], vec![]);
    let mut factors = Vec::new();
    let mut closed_counters = [0u64; 5];
    const COUNTED: [Counter; 5] = [
        Counter::NetFrameTx,
        Counter::NetBytesTx,
        Counter::NetFrameRx,
        Counter::NetWakeup,
        Counter::NetWriteFlush,
    ];
    let mut rss = Vec::new();
    let mut closed_total = 0usize;
    let start = Instant::now();
    let mut r = 0usize;
    while errors.is_empty() && (r < 2 || start.elapsed().as_secs_f64() < cfg.seconds) {
        tr.set_on(cfg.trace && r % 2 == 1);
        reset_peak_rss();
        let root = tr.enter("round", r as u64);
        let open = open_phase(&fx, &mut s, tr, open_n);
        let before = obs::snapshot();
        let closed = open
            .as_ref()
            .map_err(String::clone)
            .and_then(|_| closed_phase(&fx, &mut s, tr, closed_n));
        let delta = obs::snapshot().diff(&before);
        tr.exit(root);
        let round_rss = peak_rss_mb();
        let f = calib::syscalls();
        tr.end_round(f);
        factors.push(f);
        match (open, closed) {
            (Ok(mut o), Ok(dt)) => {
                lag.push(percentile_us(&mut o.lag_ns, 0.9) / f);
                in_flight.push(o.in_flight_sum as f64 / open_n as f64);
                if tr.is_on() {
                    traced_thr.push(closed_n as f64 / dt * f);
                } else {
                    thr.push(closed_n as f64 / dt * f);
                    rss.push(round_rss);
                    p50.push(percentile_us(&mut o.lat_ns, 0.5));
                    p90.push(percentile_us(&mut o.lat_ns, 0.9) / f);
                    p99.push(percentile_us(&mut o.lat_ns, 0.99) / f);
                }
                for (sum, c) in closed_counters.iter_mut().zip(COUNTED) {
                    *sum += delta.counter(c);
                }
                closed_total += closed_n;
                if r == 0 {
                    report.set_counters(&delta);
                }
            }
            (Err(e), _) | (_, Err(e)) => errors.push(e),
        }
        if cfg.trace && r == 1 {
            let (enc, dec) = codec_rung(&fx, &s.stream);
            report.layer("net.encode_ns", enc);
            report.layer("net.decode_ns", dec);
        }
        report.attempted += s.stream.log.len() as u64;
        s.verify(&fx);
        r += 1;
    }
    tr.set_on(false);
    drop(s.client);
    s.daemon.shutdown();

    report.rounds = r;
    report.failed = (s.unresolved + errors.len()) as u64;
    report.metrics = vec![
        Metric::of("setup_s", "s", &setup),
        Metric::of("decisions_per_s", "1/s", &thr),
        Metric::lowest("decide_p50_us", "us", &p50),
        Metric::of("decide_p90_us", "us", &p90),
        Metric::one(
            "failed_share",
            "ratio",
            report.failed as f64 / report.attempted.max(1) as f64,
        ),
        Metric::of("peak_rss_mb", "MB", &rss),
    ];
    report.diagnostics = vec![
        Metric::of("decide_p99_us", "us", &p99),
        Metric::of("generator_lag_p90_us", "us", &lag),
        Metric::of("calibration_factor", "ratio", &factors),
    ];

    report.check("no-transport-errors", errors.is_empty(), || {
        errors.join("; ")
    });
    let (unresolved, mismatches) = (s.unresolved, s.mismatches);
    report.check("every-request-resolves", unresolved == 0, || {
        format!("{unresolved} requests never got a verdict")
    });
    report.check("verdicts-equal-in-process-twin", mismatches == 0, || {
        format!("{mismatches} wire verdicts differ from the twin guard's")
    });

    if cfg.trace {
        let per = |i: usize| closed_counters[i] as f64;
        let decisions = closed_total.max(1) as f64;
        for (name, v) in [
            ("net.submit.busy_s", tr.busy_s("net.submit")),
            ("net.recv_wait.busy_s", tr.busy_s("net.recv_wait")),
            ("net.in_flight.mean", median(&in_flight)),
            ("net.frames_per_decision", per(0) / decisions),
            ("net.bytes_per_decision", per(1) / decisions),
            ("net.frames_per_wakeup", per(2) / per(3).max(1.0)),
            ("net.frames_per_flush", per(0) / per(4).max(1.0)),
            ("bench.generator_lag_p90_us", median(&lag)),
            (
                "bench.trace_overhead_pct",
                (median(&thr) / median(&traced_thr) - 1.0) * 100.0,
            ),
        ] {
            report.layer(name, v);
        }
        report.spans = tr.summary();
    }
    report
}
