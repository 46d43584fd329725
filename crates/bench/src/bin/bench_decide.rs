//! `bench_decide` — E12 decide throughput (DESIGN.md §8,
//! EXPERIMENTS.md E12), emitted as machine-readable JSON.
//!
//! Drives a fleet of `--objects` mobile objects, each performing
//! `--accesses` granted accesses against a reactive [`CoordinatedGuard`]
//! whose single permission carries a cardinality constraint (so every
//! decision runs a real spatial `P ⊨ C` check), and measures four
//! concurrency configurations of the decision path:
//!
//! | mode | concurrency |
//! |---|---|
//! | `incremental-sequential`       | 1 thread |
//! | `incremental-global-lock`      | N threads behind one global mutex (pre-PR locking) |
//! | `incremental-snapshot-parallel`| N threads, per-object gate shards only |
//! | `incremental-snapshot-batch`   | `decide_batch` over the whole workload |
//!
//! Every mode reports ops/sec; modes with per-decision timing also
//! report p50/p99 latency in microseconds. Output goes to `--out`
//! (default `BENCH_decide.json`).
//!
//! A second phase (E13) measures the `stacl-obs` telemetry overhead:
//! the incremental sequential and batch-API modes are re-run with
//! telemetry on and off (`stacl::obs::set_telemetry`), and the resulting
//! throughput pair, overhead percentage and the full `MetricsSnapshot`
//! of the telemetry-on runs go to `--obs-out` (default `BENCH_obs.json`).
//! The E12 modes themselves run with telemetry on — the production
//! default — so the headline numbers already carry the cost.
//!
//! A third phase (E15) measures the cost of *live policy rollouts*: the
//! steady incremental-sequential workload is re-run while a background
//! thread performs complete `prepare_epoch` → `activate_epoch` rollouts
//! at a fixed cadence. The flip-phase throughput must stay within 10% of
//! the no-flip baseline — preparation happens under a read lock off the
//! hot path, and the activation write lock is held only for the pointer
//! swap.
//!
//! A fourth phase (E17) sweeps the *coalition vocabulary width*: the
//! incremental-sequential workload is re-run with the access table
//! padded to 64→4096 interned ids the permission's constraint never
//! selects. The leaf alphabet stays at the constraint's ~2 symbol
//! classes regardless of table width, so compile and cold-start costs
//! do not scale with coalition size; the 4096-id run yields the
//! headline `ops_per_sec_large_vocab` key.
//!
//! A fifth phase (E19) prices the attribute front-end: the same steady
//! workload is run against a guard built from a hand-written
//! SRAC/temporal policy and against one built from an `stacl-abac`
//! attribute policy (CIDR allow set + cron window) that *lowers to the
//! same primitives*. Lowering happens entirely before guard
//! construction, so the two hot paths are identical code — the measured
//! ratio must stay within 5% of 1.0 (acceptance), and the phase asserts
//! the lowered constraint/validity are structurally the promised ones
//! so the comparison can't silently go vacuous.
//!
//! Usage: `bench_decide [--objects 64] [--accesses 1000] [--threads 0] [--out BENCH_decide.json]
//! [--obs-out BENCH_obs.json]` (`--threads 0` = available parallelism).
//! The committed `BENCH_decide.json` and `BENCH_obs.json` hold the
//! 64×1000 reference shape: any other shape must name other output
//! files, or the run is refused (exit 2) before it starts.

use stacl::naplet::guard::{BatchRequest, GuardRequest};
use stacl::prelude::*;
use stacl_bench::fleet_model;
use stacl_ids::json::JsonWriter;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference shape the committed JSON files are recorded at.
const REFERENCE_OBJECTS: usize = 64;
const REFERENCE_ACCESSES: usize = 1000;

/// One measured configuration.
struct ModeResult {
    name: &'static str,
    ops_per_sec: f64,
    /// Per-decision latency percentiles (µs); absent for the batch API
    /// mode, whose per-decision cost is only observable amortised.
    p50_us: Option<f64>,
    p99_us: Option<f64>,
    elapsed_s: f64,
    decisions: usize,
}

fn main() {
    let mut objects = 64usize;
    let mut accesses = 1000usize;
    let mut threads = 0usize;
    let mut out = String::from("BENCH_decide.json");
    let mut obs_out = String::from("BENCH_obs.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {key}");
            std::process::exit(2);
        });
        match key {
            "--objects" => objects = val.parse().expect("--objects"),
            "--accesses" => accesses = val.parse().expect("--accesses"),
            "--threads" => threads = val.parse().expect("--threads"),
            "--out" => out = val.clone(),
            "--obs-out" => obs_out = val.clone(),
            _ => {
                eprintln!(
                    "unknown flag {key} (expected --objects/--accesses/--threads/--out/--obs-out)"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let reference = objects == REFERENCE_OBJECTS && accesses == REFERENCE_ACCESSES;
    for (path, committed) in [(&out, "BENCH_decide.json"), (&obs_out, "BENCH_obs.json")] {
        if !reference && Path::new(path).file_name().is_some_and(|n| n == committed) {
            eprintln!(
                "refusing to write {path} at shape {objects}x{accesses}: {committed} holds the \
                 {REFERENCE_OBJECTS}x{REFERENCE_ACCESSES} reference shape (pass --out/--obs-out)"
            );
            std::process::exit(2);
        }
    }
    if threads == 0 {
        threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
    }
    threads = threads.min(objects.max(1));

    eprintln!("bench_decide: {objects} objects x {accesses} accesses, {threads} threads");

    let mut results = vec![
        run_sequential("incremental-sequential", objects, accesses),
        run_parallel("incremental-global-lock", objects, accesses, threads, true),
        run_parallel(
            "incremental-snapshot-parallel",
            objects,
            accesses,
            threads,
            false,
        ),
        run_batch_api("incremental-snapshot-batch", objects, accesses),
    ];

    // ---- E15: live-rollout cost (DESIGN.md §12) ----
    // The no-flip baseline is a fresh steady run (not the E12 number, so
    // both sides of the ratio share the same warm-up conditions); the
    // flip run repeats it while a background thread performs ~8 complete
    // prepare→activate rollouts spread across the run. Like E13, single
    // runs swing by more than the effect being measured, so the phase
    // runs as matched pairs — baseline and flip run back-to-back under
    // the same machine conditions — and the ratio is taken from the
    // best pair. Noise on a shared box only ever slows a run down, so
    // the least-noisy pair is the closest estimate of the true rollout
    // cost; mixing the best baseline of one moment with the flip run of
    // another would measure the machine, not the flip. Pairs where the
    // flipper landed the *most* rollouts win first (and only then the
    // ratio), so a trial whose flipper got cut short cannot flatter the
    // result.
    const FLIP_TRIALS: usize = 7;
    let mut best: Option<(ModeResult, ModeResult, u64)> = None;
    for _ in 0..FLIP_TRIALS {
        let base = run_sequential("steady-no-flip", objects, accesses);
        // elapsed/10, not /8: all 8 rollouts must land inside the run
        // even when the flip run keeps full no-flip speed — otherwise
        // the best pairs are exactly the ones whose last flips get cut
        // off, and the max-flips preference would discard them.
        let flip_every = Duration::from_secs_f64((base.elapsed_s / 10.0).max(0.0005));
        let (under, flips) = run_under_flips(objects, accesses, flip_every);
        let ratio = under.ops_per_sec / base.ops_per_sec;
        let better = match &best {
            Some((b, u, n)) => (flips, ratio) > (*n, u.ops_per_sec / b.ops_per_sec),
            None => true,
        };
        if better {
            best = Some((base, under, flips));
        }
    }
    let (no_flip, under_flips, epoch_flips) = best.expect("at least one flip trial");
    let flip_ratio = under_flips.ops_per_sec / no_flip.ops_per_sec;
    eprintln!(
        "  epoch-flip phase: {epoch_flips} rollouts, throughput ratio {flip_ratio:.3} \
         (acceptance: >= 0.9)"
    );
    results.push(no_flip);
    results.push(under_flips);

    // ---- E17: alphabet-size sweep (DESIGN.md §14, EXPERIMENTS.md E17) ----
    // Same steady incremental workload, but the per-run table is padded
    // with filler ids the constraint never selects — the large-coalition
    // shape where any one permission mentions a sliver of the vocabulary.
    const VOCAB_SIZES: [usize; 4] = [64, 256, 1024, 4096];
    eprintln!("bench_decide: E17 alphabet-size sweep");
    let mut sweep: Vec<(usize, ModeResult)> = Vec::new();
    for ids in VOCAB_SIZES {
        let r = run_large_vocab("large-vocab", objects, accesses, ids);
        eprintln!("  {ids:>5} table ids: {:>12.0} ops/s", r.ops_per_sec);
        sweep.push((ids, r));
    }

    // ---- E19: attribute front-end vs hand-written policies ----
    // Interleaved best-of-N like E13: noise on a shared box only slows a
    // run down, so the best run of each side is the closest estimate of
    // its true cost, and the ratio of bests is the fairest comparison.
    const ATTR_TRIALS: usize = 7;
    eprintln!("bench_decide: E19 lowered-attribute vs hand-written policy (best of {ATTR_TRIALS})");
    let best = |a: ModeResult, b: ModeResult| {
        if b.ops_per_sec > a.ops_per_sec {
            b
        } else {
            a
        }
    };
    let (hand_text, lowered_text) = attr_policy_pair(objects);
    let mut hand = run_policy_text("attr-handwritten", &hand_text, objects, accesses);
    let mut lowered = run_policy_text("attr-lowered", &lowered_text, objects, accesses);
    for _ in 1..ATTR_TRIALS {
        hand = best(
            hand,
            run_policy_text("attr-handwritten", &hand_text, objects, accesses),
        );
        lowered = best(
            lowered,
            run_policy_text("attr-lowered", &lowered_text, objects, accesses),
        );
    }
    eprintln!(
        "  attr phase: {:>12.0} ops/s hand-written  {:>12.0} ops/s lowered  (ratio {:.3}, \
         acceptance: within 5% of 1.0)",
        hand.ops_per_sec,
        lowered.ops_per_sec,
        lowered.ops_per_sec / hand.ops_per_sec
    );
    let attr_pair = (hand, lowered);

    for r in &results {
        match (r.p50_us, r.p99_us) {
            (Some(p50), Some(p99)) => eprintln!(
                "  {:<30} {:>12.0} ops/s  p50 {:>8.2} us  p99 {:>8.2} us",
                r.name, r.ops_per_sec, p50, p99
            ),
            _ => eprintln!(
                "  {:<30} {:>12.0} ops/s  (amortised; no per-decision timing)",
                r.name, r.ops_per_sec
            ),
        }
    }

    let json = render_json(
        objects,
        accesses,
        threads,
        &results,
        epoch_flips,
        &sweep,
        &attr_pair,
    );
    std::fs::write(&out, json).expect("write --out");
    eprintln!("wrote {out}");

    // ---- E13: telemetry overhead (DESIGN.md §10, EXPERIMENTS.md E13) ----
    // Single runs swing by ±5% on a shared machine, far above the effect
    // being measured, so each configuration is run `TRIALS` times
    // interleaved (on, off, on, off, …) and the best run of each is kept —
    // best-of-N converges on the noise floor much faster than the mean.
    const TRIALS: usize = 9;
    eprintln!("bench_decide: E13 telemetry overhead (on vs off, best of {TRIALS})");
    let best = |a: ModeResult, b: ModeResult| {
        if b.ops_per_sec > a.ops_per_sec {
            b
        } else {
            a
        }
    };
    stacl::obs::set_telemetry(true);
    stacl::obs::reset();
    let mut seq_on = run_sequential("incremental-sequential (obs on)", objects, accesses);
    let mut batch_on = run_batch_api("incremental-snapshot-batch (obs on)", objects, accesses);
    // The snapshot after the first telemetry-on pair is the exported
    // metrics payload: it exercises every grant-path counter and both
    // histograms exactly once per mode.
    let metrics = stacl::obs::snapshot();
    stacl::obs::set_telemetry(false);
    let mut seq_off = run_sequential("incremental-sequential (obs off)", objects, accesses);
    let mut batch_off = run_batch_api("incremental-snapshot-batch (obs off)", objects, accesses);
    for _ in 1..TRIALS {
        stacl::obs::set_telemetry(true);
        seq_on = best(
            seq_on,
            run_sequential("incremental-sequential (obs on)", objects, accesses),
        );
        batch_on = best(
            batch_on,
            run_batch_api("incremental-snapshot-batch (obs on)", objects, accesses),
        );
        stacl::obs::set_telemetry(false);
        seq_off = best(
            seq_off,
            run_sequential("incremental-sequential (obs off)", objects, accesses),
        );
        batch_off = best(
            batch_off,
            run_batch_api("incremental-snapshot-batch (obs off)", objects, accesses),
        );
    }
    stacl::obs::set_telemetry(true);
    for r in [&seq_on, &seq_off, &batch_on, &batch_off] {
        eprintln!("  {:<38} {:>12.0} ops/s", r.name, r.ops_per_sec);
    }

    let obs_json = render_obs_json(
        objects, accesses, &seq_on, &seq_off, &batch_on, &batch_off, &metrics,
    );
    std::fs::write(&obs_out, obs_json).expect("write --obs-out");
    eprintln!("wrote {obs_out}");
}

/// Telemetry overhead in percent: how much slower the telemetry-on run
/// is than the telemetry-off run of the same mode.
fn overhead_pct(on: &ModeResult, off: &ModeResult) -> f64 {
    (off.ops_per_sec / on.ops_per_sec - 1.0) * 100.0
}

#[allow(clippy::too_many_arguments)]
fn render_obs_json(
    objects: usize,
    accesses: usize,
    seq_on: &ModeResult,
    seq_off: &ModeResult,
    batch_on: &ModeResult,
    batch_off: &ModeResult,
    metrics: &stacl::obs::MetricsSnapshot,
) -> String {
    let modes = [
        ("incremental-sequential", seq_on, seq_off),
        ("incremental-snapshot-batch", batch_on, batch_off),
    ];
    let mut w = JsonWriter::object();
    w.field_str("experiment", "E13-telemetry-overhead");
    w.field_usize("objects", objects);
    w.field_usize("accesses_per_object", accesses);
    w.open_object("modes");
    for (name, on, off) in modes {
        w.open_object(name);
        w.field_f64("ops_per_sec_telemetry_on", round3(on.ops_per_sec));
        w.field_f64("ops_per_sec_telemetry_off", round3(off.ops_per_sec));
        w.field_f64("overhead_pct", round3(overhead_pct(on, off)));
        w.close();
    }
    w.close();
    // Headline number: the sequential mode (per-decision path, where the
    // record calls are proportionally largest).
    w.field_f64("overhead_pct", round3(overhead_pct(seq_on, seq_off)));
    w.field_raw("metrics", metrics.to_json().trim_end());
    w.finish()
}

/// The shared fixture: a reactive guard over the fleet model, everyone
/// enrolled, plus the deterministic access vocabulary (4 servers so the
/// cursor alphabet has more than one symbol).
fn fleet_guard(objects: usize, accesses: usize) -> CoordinatedGuard {
    // Capacity beyond the workload: every decision is a grant, so the
    // measured cost is the spatial check, not a denial short-circuit.
    let guard = CoordinatedGuard::new(ExtendedRbac::new(fleet_model(objects, "rsw", accesses + 2)))
        .with_mode(EnforcementMode::Reactive);
    for i in 0..objects {
        guard.enroll(format!("n{i}"), ["licensee"]);
    }
    guard
}

fn vocab() -> Vec<Access> {
    (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect()
}

/// Pre-intern the vocabulary so the first cursor built for an object
/// already covers every access the workload will present (mirrors
/// `saturate_alphabet` for constraints that mention accesses only
/// through selectors).
fn warm_table(vocab: &[Access]) -> AccessTable {
    let mut table = AccessTable::new();
    for a in vocab {
        table.intern(a);
    }
    table
}

/// [`warm_table`] padded to `total_ids` interned accesses with filler
/// the fleet constraint's `resource = rsw` selector never matches (E17).
/// Every filler id lands in one merged symbol class, so compile cost and
/// transition-table width stay flat as the table grows.
fn warm_table_padded(vocab: &[Access], total_ids: usize) -> AccessTable {
    let mut table = warm_table(vocab);
    let mut j = 0usize;
    while table.len() < total_ids {
        table.intern(&Access::new("read", "db", format!("p{j}")));
        j += 1;
    }
    table
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn stats(name: &'static str, elapsed_s: f64, mut lat_us: Vec<f64>, decisions: usize) -> ModeResult {
    lat_us.sort_by(f64::total_cmp);
    ModeResult {
        name,
        ops_per_sec: decisions as f64 / elapsed_s,
        p50_us: Some(percentile(&lat_us, 0.50)),
        p99_us: Some(percentile(&lat_us, 0.99)),
        elapsed_s,
        decisions,
    }
}

/// One thread, round-robin over the fleet (every object's history grows
/// between its consecutive decisions).
fn run_sequential(name: &'static str, objects: usize, accesses: usize) -> ModeResult {
    let guard = fleet_guard(objects, accesses);
    let (elapsed_s, lat_us) = decide_loop(&guard, objects, accesses, 0);
    stats(name, elapsed_s, lat_us, objects * accesses)
}

/// E17: the incremental-sequential workload against a table padded to
/// `table_ids` interned accesses. Timing starts before the first
/// decision, so the run carries the real cold-start bill — leaf compile
/// plus per-object residual products — which is exactly the cost the
/// compressed alphabet decouples from table width.
fn run_large_vocab(
    name: &'static str,
    objects: usize,
    accesses: usize,
    table_ids: usize,
) -> ModeResult {
    let guard = fleet_guard(objects, accesses);
    let (elapsed_s, lat_us) = decide_loop(&guard, objects, accesses, table_ids);
    stats(name, elapsed_s, lat_us, objects * accesses)
}

/// The steady single-threaded workload against an existing guard; returns
/// `(elapsed seconds, per-decision latencies in µs)`. `table_ids` pads
/// the run's table beyond the 4-access workload vocabulary (0 = none).
fn decide_loop(
    guard: &CoordinatedGuard,
    objects: usize,
    accesses: usize,
    table_ids: usize,
) -> (f64, Vec<f64>) {
    let proofs = ProofStore::new();
    let vocab = vocab();
    let mut table = warm_table_padded(&vocab, table_ids);
    let names: Vec<String> = (0..objects).map(|i| format!("n{i}")).collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();

    let mut lat_us = Vec::with_capacity(objects * accesses);
    let start = Instant::now();
    for k in 0..accesses {
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
            let t0 = Instant::now();
            let v = guard.decide(&req, &proofs, &mut table);
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(v.is_granted(), "fleet workload must be all-grant");
            proofs.issue(obj, a.clone(), time);
        }
    }
    (start.elapsed().as_secs_f64(), lat_us)
}

/// The steady workload with a background thread performing complete
/// two-phase rollouts every `flip_every`: the epoch-`e` model is prepared
/// under the read lock (decisions keep flowing) and activated under the
/// write lock (a pointer swap plus cache resets). Returns the measured
/// mode and how many rollouts landed during it.
fn run_under_flips(objects: usize, accesses: usize, flip_every: Duration) -> (ModeResult, u64) {
    let guard = fleet_guard(objects, accesses);
    let mut flip_table = warm_table(&vocab());
    // One throwaway prepare before the clock starts: compiled automata
    // are cached per (constraint, table version) and `flip_table` is
    // fresh, so the first prepare against it pays the one-time compile a
    // long-lived daemon paid at boot. The measured phase starts from
    // that steady state — rollout cost, not cold-start cost.
    let _ = guard.with_rbac_read(|r| {
        r.prepare_epoch(
            fleet_model(objects, "rsw", accesses + 2),
            std::iter::empty(),
            1,
            &mut flip_table,
        )
    });
    let stop = AtomicBool::new(false);
    let flips = AtomicU64::new(0);
    let (elapsed_s, lat_us) = std::thread::scope(|s| {
        // The `move` closure takes `flip_table`; everything else goes in
        // by shared reference.
        let (guard, stop, flips) = (&guard, &stop, &flips);
        s.spawn(move || {
            // Bounded at 8 rollouts: the cadence is derived from the
            // no-flip run, so without a bound a slowed-down flip run
            // would admit ever more flips and measure a feedback loop
            // instead of the rollout cost.
            for epoch in 1u64..=8 {
                std::thread::sleep(flip_every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let prepared = guard
                    .with_rbac_read(|r| {
                        r.prepare_epoch(
                            fleet_model(objects, "rsw", accesses + 2),
                            std::iter::empty(),
                            epoch,
                            &mut flip_table,
                        )
                    })
                    .expect("bench epochs strictly increase");
                guard
                    .with_rbac(|r| r.activate_epoch(prepared))
                    .expect("prepared epoch activates");
                flips.fetch_add(1, Ordering::Relaxed);
            }
        });
        let r = decide_loop(guard, objects, accesses, 0);
        stop.store(true, Ordering::Relaxed);
        r
    });
    (
        stats("steady-under-flips", elapsed_s, lat_us, objects * accesses),
        flips.load(Ordering::Relaxed),
    )
}

/// N threads, the fleet partitioned round-robin across them; with
/// `global_lock`, every decide+issue runs under one external mutex —
/// the pre-PR `Mutex<ExtendedRbac>` locking discipline. Without it, the
/// only serialization is the per-object gate shard inside the core.
fn run_parallel(
    name: &'static str,
    objects: usize,
    accesses: usize,
    threads: usize,
    global_lock: bool,
) -> ModeResult {
    let guard = fleet_guard(objects, accesses);
    let proofs = ProofStore::new();
    let vocab = vocab();
    let names: Vec<String> = (0..objects).map(|i| format!("n{i}")).collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();
    let lock = Mutex::new(());

    let mut lat_us: Vec<f64> = Vec::with_capacity(objects * accesses);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (guard, proofs, vocab, names, programs, lock) =
                    (&guard, &proofs, &vocab, &names, &programs, &lock);
                s.spawn(move || {
                    // Each thread owns a fixed slice of the fleet, so an
                    // object's cursor is always advanced under the same
                    // thread-local table and stays in sync.
                    let mut table = warm_table(vocab);
                    let mine: Vec<&String> = names.iter().skip(t).step_by(threads).collect();
                    let mut lat = Vec::with_capacity(mine.len() * accesses);
                    for k in 0..accesses {
                        let a = &vocab[k % vocab.len()];
                        let prog = &programs[k % vocab.len()];
                        let time = TimePoint::new(k as f64);
                        for obj in &mine {
                            let req = GuardRequest {
                                object: obj,
                                access: a,
                                remaining: prog,
                                time,
                            };
                            let t0 = Instant::now();
                            let v = if global_lock {
                                let _g = lock.lock().expect("global lock");
                                let v = guard.decide(&req, proofs, &mut table);
                                if v.is_granted() {
                                    proofs.issue(obj, a.clone(), time);
                                }
                                v
                            } else {
                                let v = guard.decide(&req, proofs, &mut table);
                                if v.is_granted() {
                                    proofs.issue(obj, a.clone(), time);
                                }
                                v
                            };
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            assert!(v.is_granted(), "fleet workload must be all-grant");
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            lat_us.extend(h.join().expect("bench worker"));
        }
    });
    stats(
        name,
        start.elapsed().as_secs_f64(),
        lat_us,
        objects * accesses,
    )
}

/// The public `decide_batch` API: the whole workload in one call,
/// round-robin order, proofs issued inside the batch. Reports amortised
/// throughput only (per-decision timing isn't observable through the
/// API).
fn run_batch_api(name: &'static str, objects: usize, accesses: usize) -> ModeResult {
    let guard = fleet_guard(objects, accesses);
    let proofs = ProofStore::new();
    let vocab = vocab();
    let names: Vec<String> = (0..objects).map(|i| format!("n{i}")).collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();

    let mut reqs = Vec::with_capacity(objects * accesses);
    for k in 0..accesses {
        for obj in &names {
            reqs.push(BatchRequest {
                object: obj,
                access: &vocab[k % vocab.len()],
                remaining: &programs[k % vocab.len()],
                time: TimePoint::new(k as f64),
            });
        }
    }

    let start = Instant::now();
    let verdicts = guard.decide_batch(&reqs, &proofs, true);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        verdicts.iter().all(|v| v.is_granted()),
        "fleet workload must be all-grant"
    );
    ModeResult {
        name,
        ops_per_sec: verdicts.len() as f64 / elapsed,
        p50_us: None,
        p99_us: None,
        elapsed_s: elapsed,
        decisions: verdicts.len(),
    }
}

/// E19 fixture: a hand-written policy and an attribute policy that
/// lowers to the *same* SRAC/temporal primitives, both as pushable
/// policy text. The fleet's four workload servers sit inside the
/// allowed 10.0.0.0/8 block; a fifth server `s4` sits outside it, so
/// the CIDR rule lowers to a real `count(0, 0, server=s4)` constraint
/// (every decision runs a spatial check) while the workload stays
/// all-grant. The always-on cron window clamps to the one-week budget,
/// which the hand-written side carries literally.
fn attr_policy_pair(objects: usize) -> (String, String) {
    use stacl_abac::{lower_policy, AttributePolicy, MAX_VALIDITY_SECS};

    let mut hand = String::new();
    let mut toml = String::from("[servers]\n");
    for s in 0..4 {
        toml.push_str(&format!("s{s} = \"10.0.0.{}\"\n", 4 + s));
    }
    toml.push_str("s4 = \"192.168.1.9\"\n\n[[role]]\nname = \"licensee\"\nusers = [");
    for i in 0..objects {
        hand.push_str(&format!("user n{i}\n"));
        if i > 0 {
            toml.push_str(", ");
        }
        toml.push_str(&format!("\"n{i}\""));
    }
    toml.push_str(
        "]\n\n[[rule]]\nname = \"p\"\nroles = [\"licensee\"]\nop = \"exec\"\n\
         resource = \"rsw\"\nallow = [\"10.0.0.0/8\"]\ncron = \"* * * * *\"\nduration = \"7d\"\n",
    );
    hand.push_str(&format!(
        "role licensee\npermission p grants=exec:rsw:* validity={MAX_VALIDITY_SECS} \
         scheme=whole-lifetime spatial=\"count(0, 0, server=s4)\"\ngrant licensee p\n"
    ));
    for i in 0..objects {
        hand.push_str(&format!("assign n{i} licensee\n"));
    }

    let attr = AttributePolicy::parse(&toml).expect("bench attribute policy parses");
    let lowered = lower_policy(&attr, 0.0).expect("bench attribute policy lowers");
    assert!(lowered.notes.is_empty(), "{:?}", lowered.notes);
    // Guard against a vacuous comparison: the lowered permission must be
    // exactly the primitives the hand-written side spells out.
    let p = lowered.model.permission("p").expect("lowered permission");
    assert_eq!(
        p.spatial.as_ref().expect("lowered constraint").to_string(),
        "count(0, 0, server=s4)"
    );
    assert_eq!(p.validity, Some(MAX_VALIDITY_SECS));
    (hand, stacl::rbac::policy::render_policy(&lowered.model))
}

/// E19 measurement: the steady sequential workload against a reactive
/// guard built from arbitrary policy text (the same construction path a
/// daemon uses for a pushed policy).
fn run_policy_text(name: &'static str, text: &str, objects: usize, accesses: usize) -> ModeResult {
    let model = stacl::rbac::policy::parse_policy(text).expect("bench policy text parses");
    let guard =
        CoordinatedGuard::new(ExtendedRbac::new(model)).with_mode(EnforcementMode::Reactive);
    for i in 0..objects {
        guard.enroll(format!("n{i}"), ["licensee"]);
    }
    let (elapsed_s, lat_us) = decide_loop(&guard, objects, accesses, 0);
    stats(name, elapsed_s, lat_us, objects * accesses)
}

/// Round to three decimals — the reports' historical precision.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    objects: usize,
    accesses: usize,
    threads: usize,
    results: &[ModeResult],
    epoch_flips: u64,
    sweep: &[(usize, ModeResult)],
    attr_pair: &(ModeResult, ModeResult),
) -> String {
    let find = |n: &str| results.iter().find(|r| r.name == n).expect("mode present");
    let locked = find("incremental-global-lock");
    let snap = find("incremental-snapshot-parallel");
    let no_flip = find("steady-no-flip");
    let flipped = find("steady-under-flips");

    let mut w = JsonWriter::object();
    w.field_str("experiment", "E12-decide-throughput");
    w.field_usize("objects", objects);
    w.field_usize("accesses_per_object", accesses);
    w.field_usize("threads", threads);
    w.open_object("modes");
    for r in results {
        w.open_object(r.name);
        w.field_f64("ops_per_sec", round3(r.ops_per_sec));
        match r.p50_us {
            Some(v) => w.field_f64("p50_us", round3(v)),
            None => w.field_raw("p50_us", "null"),
        }
        match r.p99_us {
            Some(v) => w.field_f64("p99_us", round3(v)),
            None => w.field_raw("p99_us", "null"),
        }
        w.field_f64("elapsed_s", round3(r.elapsed_s));
        w.field_usize("decisions", r.decisions);
        w.close();
    }
    w.close();
    w.field_f64(
        "speedup_snapshot_vs_global_lock",
        round3(snap.ops_per_sec / locked.ops_per_sec),
    );
    w.field_u64("epoch_flips", epoch_flips);
    w.field_f64(
        "flip_throughput_ratio",
        round3(flipped.ops_per_sec / no_flip.ops_per_sec),
    );
    // E17 alphabet-size sweep: one entry per width plus the 4096-id
    // headline key the CI schema check pins.
    w.open_object("vocab_sweep");
    for (ids, r) in sweep {
        w.open_object(&format!("table-{ids}"));
        w.field_usize("table_ids", *ids);
        w.field_f64("ops_per_sec", round3(r.ops_per_sec));
        w.close();
    }
    w.close();
    let (_, large) = sweep.last().expect("sweep is non-empty");
    w.field_f64("ops_per_sec_large_vocab", round3(large.ops_per_sec));
    // E19: the attribute front-end must be free at decide time.
    let (hand, lowered) = attr_pair;
    w.field_f64("ops_per_sec_handwritten", round3(hand.ops_per_sec));
    w.field_f64("ops_per_sec_lowered_attr", round3(lowered.ops_per_sec));
    w.field_f64(
        "lowered_vs_handwritten_ratio",
        round3(lowered.ops_per_sec / hand.ops_per_sec),
    );
    w.finish()
}
