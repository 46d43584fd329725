//! `bench_net` — the E14 wire-overhead and E16 pipelining experiments
//! (DESIGN.md §11/§13, EXPERIMENTS.md E14/E16), emitted as
//! machine-readable JSON.
//!
//! Measures what the coalition protocol costs relative to calling the
//! guard in process. The same all-grant fleet workload runs four ways:
//!
//! | mode | path |
//! |---|---|
//! | `in-process`      | `CoordinatedGuard::decide` directly |
//! | `wire-sequential` | one `Decide2` frame per round trip over loopback TCP |
//! | `wire-batch`      | one `DecideBatch2` frame per 32 time steps (all objects) |
//! | `wire-pipelined-wN` | E16: a window of N correlated `Decide2` frames in flight |
//!
//! The pipelined phase sweeps the window depth; the best window's
//! throughput lands in `ops_per_sec_wire_pipelined` / `pipeline_window`.
//!
//! All wire modes share **one** daemon and **one** vocabulary-synced
//! connection — the realistic steady state, where a member joins once
//! and stays. The one-time connect + vocabulary-sync cost is measured
//! separately (`connect_sync_s`) instead of being smeared into any
//! mode's throughput.
//!
//! Telemetry runs for the wire modes, so the report also carries the
//! frame and byte counters — the per-decision wire footprint is
//! `bytes_tx / decisions`, which quantifies the vocabulary-sync design
//! (steady-state frames carry u32 ids, never names).
//!
//! Usage: `bench_net [--objects 32] [--accesses 500] [--placement-objects 1000000]
//! [--placement-daemons 8] [--out BENCH_net.json]`
//!
//! The committed `BENCH_net.json` holds the 32×500 reference shape with
//! the 1M×8 placement phase: any other shape must name another output
//! file, or the run is refused (exit 2) before it starts.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use stacl::coalition::Placement;
use stacl::naplet::guard::GuardRequest;
use stacl::obs::Counter;
use stacl::prelude::*;
use stacl_bench::fleet_model;
use stacl_ids::json::JsonWriter;
use stacl_net::{Client, DaemonConfig, DaemonHandle};

/// The reference shape the committed `BENCH_net.json` is recorded at,
/// and the default: objects, accesses, placement objects, placement
/// daemons.
const REFERENCE: (usize, usize, usize, usize) = (32, 500, 1_000_000, 8);

struct ModeResult {
    name: String,
    ops_per_sec: f64,
    elapsed_s: f64,
    decisions: usize,
}

fn main() {
    let (mut objects, mut accesses, mut placement_objects, mut placement_daemons) = REFERENCE;
    let mut out = String::from("BENCH_net.json");

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
            "--placement-objects" => placement_objects = val.parse().expect("--placement-objects"),
            "--placement-daemons" => placement_daemons = val.parse().expect("--placement-daemons"),
            "--out" => out = val.clone(),
            _ => {
                eprintln!(
                    "unknown flag {key} (expected --objects/--accesses/--placement-objects/--placement-daemons/--out)"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let shape = (objects, accesses, placement_objects, placement_daemons);
    if shape != REFERENCE
        && Path::new(&out)
            .file_name()
            .is_some_and(|n| n == "BENCH_net.json")
    {
        eprintln!(
            "refusing to write {out} at shape {shape:?}: BENCH_net.json holds the reference \
             shape {REFERENCE:?} (objects, accesses, placement objects, placement daemons); \
             pass --out"
        );
        std::process::exit(2);
    }

    stacl::obs::set_telemetry(true);
    stacl::obs::reset();

    let decisions = objects * accesses;
    let names: Vec<String> = (0..objects).map(|i| format!("n{i}")).collect();
    let vocab: Vec<Access> = (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect();

    let local = run_in_process(objects, accesses, &names, &vocab);

    // One daemon, one session: both wire modes reuse the same
    // vocabulary-synced connection, and the one-time join cost is
    // measured on its own.
    let mut handle = stacl_net::spawn(
        make_guard(objects, accesses),
        ProofStore::new(),
        DaemonConfig::new("bench"),
    )
    .expect("bind loopback");
    let join = Instant::now();
    let mut client = Client::connect(handle.addr(), "bench-driver", Some(Duration::from_secs(10)))
        .expect("connect");
    client
        .sync_vocab(
            names
                .iter()
                .map(String::as_str)
                .chain(["exec", "rsw", "s0", "s1", "s2", "s3"]),
        )
        .expect("vocab sync");
    let connect_sync_s = join.elapsed().as_secs_f64();

    let before_wire = stacl::obs::snapshot();
    let wire_seq = run_wire(&mut client, false, objects, accesses, &names, &vocab);
    let wire_stats = stacl::obs::snapshot().diff(&before_wire);
    let wire_batch = run_wire(&mut client, true, objects, accesses, &names, &vocab);

    // E16: sweep the pipeline window depth over the same workload.
    let windows = [16usize, 64, 256, 1024];
    let mut sweep: Vec<ModeResult> = Vec::new();
    let before_pipe = stacl::obs::snapshot();
    for &win in &windows {
        sweep.push(run_wire_pipelined(
            &mut client,
            win,
            objects,
            accesses,
            &names,
            &vocab,
        ));
    }
    let pipe_stats = stacl::obs::snapshot().diff(&before_pipe);
    drop(client);
    handle.shutdown();

    // E18: the million-object placement phase — custody pinned by the
    // rendezvous ring across a full coalition, decide throughput with the
    // whole population resident, churn drain rate and tail latency, and
    // the compaction-bounded proof memory proxy.
    let placed = run_placement(placement_objects, placement_daemons);

    let best = sweep
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.ops_per_sec.total_cmp(&b.1.ops_per_sec))
        .map(|(i, m)| (windows[i], m))
        .expect("non-empty sweep");

    let frames_tx = wire_stats.counter(Counter::NetFrameTx);
    let bytes_tx = wire_stats.counter(Counter::NetBytesTx);
    let overhead_x = local.ops_per_sec / wire_seq.ops_per_sec;
    let batch_recovery_x = wire_batch.ops_per_sec / wire_seq.ops_per_sec;
    let pipeline_recovery_x = best.1.ops_per_sec / wire_seq.ops_per_sec;
    // Frames-per-wakeup and frames-per-flush over the whole pipelined
    // sweep: how much readiness batching and write coalescing the event
    // loop actually achieved.
    let wakeups = pipe_stats.counter(Counter::NetWakeup).max(1);
    let flushes = pipe_stats.counter(Counter::NetWriteFlush).max(1);
    let pipe_frames_rx = pipe_stats.counter(Counter::NetFrameRx);
    let pipe_frames_tx = pipe_stats.counter(Counter::NetFrameTx);

    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    let mut w = JsonWriter::object();
    w.field_str("experiment", "E14-wire-overhead");
    w.field_usize("objects", objects);
    w.field_usize("accesses_per_object", accesses);
    w.open_object("modes");
    for m in [&local, &wire_seq, &wire_batch].into_iter().chain(&sweep) {
        w.open_object(&m.name);
        w.field_f64("ops_per_sec", round3(m.ops_per_sec));
        w.field_f64("elapsed_s", round3(m.elapsed_s));
        w.field_usize("decisions", m.decisions);
        w.close();
    }
    w.close();
    w.field_f64("ops_per_sec_in_process", round3(local.ops_per_sec));
    w.field_f64("ops_per_sec_wire", round3(wire_seq.ops_per_sec));
    w.field_f64("ops_per_sec_wire_batch", round3(wire_batch.ops_per_sec));
    w.field_f64("ops_per_sec_wire_pipelined", round3(best.1.ops_per_sec));
    w.field_usize("pipeline_window", best.0);
    w.field_f64("overhead_x", round3(overhead_x));
    w.field_f64("batch_recovery_x", round3(batch_recovery_x));
    w.field_f64("pipeline_recovery_x", round3(pipeline_recovery_x));
    w.field_f64(
        "pipeline_frames_per_wakeup",
        round3(pipe_frames_rx as f64 / wakeups as f64),
    );
    w.field_f64(
        "pipeline_frames_per_flush",
        round3(pipe_frames_tx as f64 / flushes as f64),
    );
    w.field_f64("connect_sync_s", connect_sync_s);
    w.field_u64("frames_tx", frames_tx);
    w.field_u64("bytes_tx", bytes_tx);
    w.field_f64(
        "bytes_per_decision",
        round3(bytes_tx as f64 / decisions as f64),
    );
    // E18 placement phase: the schema-checked headline keys at top level,
    // full detail nested under "placement".
    w.open_object("placement");
    w.field_usize("objects", placed.objects);
    w.field_usize("daemons", placed.daemons);
    w.field_usize("hot_objects", placed.hot);
    w.field_usize("steps", placed.steps);
    w.field_usize("compact_after", placed.compact_after);
    w.field_f64("claims_per_sec", round3(placed.claims_per_sec));
    w.field_f64("ops_per_sec", round3(placed.ops_per_sec));
    w.field_usize("decisions", placed.decisions);
    w.field_f64("p50_us_churn", round3(placed.p50_us_churn));
    w.field_f64("p99_us_churn", round3(placed.p99_us_churn));
    w.field_usize("churn_samples", placed.churn_samples);
    w.field_u64("handoffs", placed.handoffs);
    w.field_f64("churn_elapsed_s", round3(placed.churn_elapsed_s));
    w.field_f64("handoff_rate", round3(placed.handoff_rate));
    w.field_usize("proofs_issued", placed.proofs_issued);
    w.field_usize("live_proof_count", placed.live_proof_count);
    w.field_usize("live_cursor_working_set", placed.live_cursor_working_set);
    w.field_f64(
        "live_to_working_set_x",
        round3(placed.live_proof_count as f64 / placed.live_cursor_working_set.max(1) as f64),
    );
    w.close();
    w.field_f64("ops_per_sec_1m_objects", round3(placed.ops_per_sec));
    w.field_f64("p99_us_churn", round3(placed.p99_us_churn));
    w.field_f64("handoff_rate", round3(placed.handoff_rate));
    w.field_usize("live_proof_count", placed.live_proof_count);
    let s = w.finish();

    std::fs::write(&out, &s).expect("write report");
    print!("{s}");
    eprintln!("wrote {out}");
}

struct PlacementResult {
    objects: usize,
    daemons: usize,
    hot: usize,
    steps: usize,
    compact_after: usize,
    claims_per_sec: f64,
    ops_per_sec: f64,
    decisions: usize,
    p50_us_churn: f64,
    p99_us_churn: f64,
    churn_samples: usize,
    handoffs: u64,
    churn_elapsed_s: f64,
    handoff_rate: f64,
    proofs_issued: usize,
    live_proof_count: usize,
    live_cursor_working_set: usize,
}

/// E18: the million-object / 8-daemon placement phase.
///
/// * **Claims** — every one of `objects` custodies is computed from the
///   rendezvous ring (O(members), no broadcast) and claimed on its home
///   daemon; `claims_per_sec` is that placement rate.
/// * **Steady state** — a hot set of objects decides over the wire at
///   their ring homes, replicating one proof per grant, with
///   watermark-based compaction sealing consumed prefixes
///   (`ops_per_sec_1m_objects` counts decisions; the measured loop also
///   carries the proof traffic).
/// * **Churn** — the last member leaves and rejoins; only the keys whose
///   home moved drain through the rebalance pull. `handoff_rate` is
///   drained keys per second, and `p99_us_churn` is the tail of
///   fail-safe decide latency sampled *during* the drains (in-flight
///   custody resolves to the counted `DeniedCoordination`, never a hang).
/// * **Proof memory** — `live_proof_count` (unsealed proofs summed over
///   members) is the RSS proxy; the phase asserts it stays under 2× the
///   live-cursor working set (`hot × compact_after`, the window the
///   warm cursors are configured to need).
fn run_placement(objects: usize, daemons: usize) -> PlacementResult {
    assert!(daemons >= 2, "the churn phase needs a member to leave");
    let hot = 512.min(objects);
    let steps = 192usize;
    let compact_after = 64usize;
    let vocab: Vec<Access> = (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect();

    // Members: identical hot-set policy replicas, custody enforced,
    // compaction on. The at_most cap compiles to a counting automaton
    // (one state per count), so size it to the per-object history it
    // must admit — each hot object accrues `steps` proofs.
    let mut handles: Vec<DaemonHandle> = Vec::with_capacity(daemons);
    for i in 0..daemons {
        let guard =
            CoordinatedGuard::new(ExtendedRbac::new(fleet_model(hot, "rsw", 2 * steps + 2)))
                .with_mode(EnforcementMode::Reactive);
        for h in 0..hot {
            guard.enroll(format!("n{h}"), ["licensee"]);
        }
        guard.set_custody_enforcement(true);
        let mut cfg = DaemonConfig::new(format!("d{i}"));
        cfg.compact_after = compact_after;
        handles.push(stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback"));
    }
    let peers: Vec<(String, SocketAddr)> = handles
        .iter()
        .map(|h| (h.name().to_string(), h.addr()))
        .collect();
    for h in &handles {
        for (n, a) in &peers {
            if n != h.name() {
                h.add_peer(n, *a);
            }
        }
        h.set_members(&peers);
    }
    let ring = Placement::new(peers.iter().map(|(n, _)| n.clone()));
    let member_idx = |m: &str| -> usize {
        peers
            .iter()
            .position(|(n, _)| n == m)
            .expect("home comes from the peer ring")
    };

    // Phase 1: place and claim the full population. The same
    // ring-validated call the daemon's arrival path makes, driven
    // in-process so the rate measures placement, not 1M TCP round trips.
    let leaver = daemons - 1;
    let mut on_leaver = 0usize;
    let start = Instant::now();
    for k in 0..objects {
        let name = format!("n{k}");
        let d = member_idx(ring.home_of(&name).expect("nonempty ring"));
        handles[d]
            .guard()
            .take_custody(&name)
            .expect("ring-valid claim");
        if d == leaver {
            on_leaver += 1;
        }
    }
    let claims_per_sec = objects as f64 / start.elapsed().as_secs_f64();
    eprintln!("placement: claimed {objects} custodies ({claims_per_sec:.0}/s), {on_leaver} on the churn leaver");

    // One vocabulary-synced client per member; the hot names group by
    // their ring home.
    let timeout = Some(Duration::from_secs(10));
    let mut clients: Vec<Client> = Vec::with_capacity(daemons);
    let hot_names: Vec<String> = (0..hot).map(|k| format!("n{k}")).collect();
    for h in &handles {
        let mut c = Client::connect(h.addr(), "bench-placement", timeout).expect("connect");
        c.sync_vocab(
            hot_names
                .iter()
                .map(String::as_str)
                .chain(["exec", "rsw", "s0", "s1", "s2", "s3"]),
        )
        .expect("vocab sync");
        clients.push(c);
    }
    let mut hot_by_home: Vec<Vec<&str>> = vec![Vec::new(); daemons];
    for name in &hot_names {
        hot_by_home[member_idx(ring.home_of(name).expect("nonempty ring"))].push(name);
    }

    // Phase 2: steady-state decide throughput at ring homes — one proof
    // replicated per grant (that's what compaction bounds), one batched
    // decide frame per time step per member.
    let remaining: Vec<Vec<Access>> = vocab.iter().map(|a| vec![a.clone()]).collect();
    let decisions = hot * steps;
    let start = Instant::now();
    for k in 0..steps {
        let a = &vocab[k % vocab.len()];
        let rem = &remaining[k % vocab.len()];
        for (d, names) in hot_by_home.iter().enumerate() {
            if names.is_empty() {
                continue;
            }
            for obj in names {
                clients[d].issue_proof(obj, a, k as f64).expect("proof");
            }
            let items: Vec<(&str, &Access, &[Access], f64)> = names
                .iter()
                .map(|obj| (*obj, a, rem.as_slice(), k as f64))
                .collect();
            for v in clients[d].decide_batch(&items).expect("batch decide") {
                assert!(v.is_granted(), "placement workload must be all-grant");
            }
        }
    }
    let ops_per_sec = decisions as f64 / start.elapsed().as_secs_f64();
    eprintln!("placement: {decisions} decisions at ring homes ({ops_per_sec:.0}/s)");

    // Phase 3: churn. The last member leaves (draining exactly the keys
    // it homed) and rejoins (pulling them back); fail-safe decide latency
    // is sampled concurrently at the current ring homes.
    let before = stacl::obs::snapshot();
    let expected = (2 * on_leaver) as u64;
    let mut latencies_us: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    let left = peers[..leaver].to_vec();
    for h in &handles {
        h.set_members(&left);
    }
    let ring_left = Placement::new(left.iter().map(|(n, _)| n.clone()));
    let mut rejoined = false;
    let mut s = 0usize;
    loop {
        let obj = &hot_names[s % hot];
        let r = if rejoined { &ring } else { &ring_left };
        let d = member_idx(r.home_of(obj).expect("nonempty ring"));
        let a = &vocab[s % vocab.len()];
        let t = Instant::now();
        let _ = clients[d].decide_failsafe(obj, a, &remaining[s % vocab.len()], steps as f64);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        s += 1;

        let applied = stacl::obs::snapshot()
            .diff(&before)
            .counter(Counter::NetHandoffApplied);
        if !rejoined && applied >= expected / 2 {
            // Leave drain complete: rejoin, draining the keys back.
            for h in &handles {
                h.set_members(&peers);
            }
            rejoined = true;
        } else if rejoined && applied >= expected {
            break;
        }
        if s.is_multiple_of(50_000) {
            let d = stacl::obs::snapshot().diff(&before);
            eprintln!(
                "placement: churn sample {s}, applied {applied}/{expected}, failed {}, retry {}, rebalance {}, rejoined={rejoined}",
                d.counter(Counter::NetHandoffFailed),
                d.counter(Counter::NetRetry),
                d.counter(Counter::PlacementRebalance),
            );
        }
        assert!(
            t0.elapsed() < Duration::from_secs(600),
            "churn drain stalled: {applied}/{expected} handoffs after {s} samples"
        );
    }
    let churn_elapsed_s = t0.elapsed().as_secs_f64();
    eprintln!("placement: churn drained {expected} handoffs in {churn_elapsed_s:.1}s");
    let handoffs = stacl::obs::snapshot()
        .diff(&before)
        .counter(Counter::NetHandoffApplied);
    latencies_us.sort_by(f64::total_cmp);
    let pct = |p: usize| latencies_us[(latencies_us.len() - 1) * p / 100];

    // Phase 4: the RSS proxy. Unsealed proofs across all members against
    // the configured live-cursor working set — the acceptance bound.
    let live_proof_count: usize = handles.iter().map(|h| h.proofs().live_proof_total()).sum();
    let live_cursor_working_set = hot * compact_after;
    assert!(
        live_proof_count < 2 * live_cursor_working_set,
        "compaction failed to bound proof memory: {live_proof_count} live vs working set {live_cursor_working_set}"
    );

    let result = PlacementResult {
        objects,
        daemons,
        hot,
        steps,
        compact_after,
        claims_per_sec,
        ops_per_sec,
        decisions,
        p50_us_churn: pct(50),
        p99_us_churn: pct(99),
        churn_samples: latencies_us.len(),
        handoffs,
        churn_elapsed_s,
        handoff_rate: handoffs as f64 / churn_elapsed_s,
        proofs_issued: decisions,
        live_proof_count,
        live_cursor_working_set,
    };
    drop(clients);
    for mut h in handles {
        h.shutdown();
    }
    result
}

/// The guard every mode runs against: the all-grant fleet policy with a
/// live spatial constraint, everyone enrolled.
fn make_guard(objects: usize, accesses: usize) -> CoordinatedGuard {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(fleet_model(objects, "rsw", accesses + 2)))
        .with_mode(EnforcementMode::Reactive);
    for i in 0..objects {
        guard.enroll(format!("n{i}"), ["licensee"]);
    }
    guard
}

fn run_in_process(
    objects: usize,
    accesses: usize,
    names: &[String],
    vocab: &[Access],
) -> ModeResult {
    let guard = make_guard(objects, accesses);
    let proofs = ProofStore::new();
    let mut table = AccessTable::new();
    for a in vocab {
        table.intern(a);
    }
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();

    let start = Instant::now();
    for k in 0..accesses {
        let a = &vocab[k % vocab.len()];
        let prog = &programs[k % vocab.len()];
        let time = TimePoint::new(k as f64);
        for obj in names {
            let req = GuardRequest {
                object: obj,
                access: a,
                remaining: prog,
                time,
            };
            let v = guard.decide(&req, &proofs, &mut table);
            assert!(v.is_granted(), "fleet workload must be all-grant");
        }
    }
    ModeResult {
        name: "in-process".to_string(),
        ops_per_sec: (objects * accesses) as f64 / start.elapsed().as_secs_f64(),
        elapsed_s: start.elapsed().as_secs_f64(),
        decisions: objects * accesses,
    }
}

/// Drive one wire mode over an already-connected, vocabulary-synced
/// session (the measured loop is ids-only frames).
fn run_wire(
    client: &mut Client,
    batch: bool,
    objects: usize,
    accesses: usize,
    names: &[String],
    vocab: &[Access],
) -> ModeResult {
    let remaining: Vec<Vec<Access>> = vocab.iter().map(|a| vec![a.clone()]).collect();
    // The batch mode ships 32 time steps per frame: batching exists to
    // amortize both the round-trip and the daemon's per-batch setup, so
    // a realistic client coalesces aggressively.
    const STEPS_PER_FRAME: usize = 32;
    let start = Instant::now();
    let mut k = 0;
    while k < accesses {
        if batch {
            let steps = STEPS_PER_FRAME.min(accesses - k);
            let items: Vec<(&str, &Access, &[Access], f64)> = (k..k + steps)
                .flat_map(|step| {
                    let a = &vocab[step % vocab.len()];
                    let rem = &remaining[step % vocab.len()];
                    names
                        .iter()
                        .map(move |obj| (obj.as_str(), a, rem.as_slice(), step as f64))
                })
                .collect();
            for v in client.decide_batch(&items).expect("batch decide") {
                assert!(v.is_granted(), "fleet workload must be all-grant");
            }
            k += steps;
        } else {
            let a = &vocab[k % vocab.len()];
            let rem = &remaining[k % vocab.len()];
            for obj in names {
                let v = client.decide(obj, a, rem, k as f64).expect("decide");
                assert!(v.is_granted(), "fleet workload must be all-grant");
            }
            k += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    ModeResult {
        name: if batch {
            "wire-batch".to_string()
        } else {
            "wire-sequential".to_string()
        },
        ops_per_sec: (objects * accesses) as f64 / elapsed,
        elapsed_s: elapsed,
        decisions: objects * accesses,
    }
}

/// E16: drive the workload through a pipelined window of correlated
/// `Decide2` frames, claiming completions as they land. The submit path
/// applies backpressure when the window fills, so in-flight depth never
/// exceeds `window`.
fn run_wire_pipelined(
    client: &mut Client,
    window: usize,
    objects: usize,
    accesses: usize,
    names: &[String],
    vocab: &[Access],
) -> ModeResult {
    let remaining: Vec<Vec<Access>> = vocab.iter().map(|a| vec![a.clone()]).collect();
    let start = Instant::now();
    let mut granted = 0usize;
    let mut p = client.pipeline(window).expect("pipeline");
    for k in 0..accesses {
        let a = &vocab[k % vocab.len()];
        let rem = &remaining[k % vocab.len()];
        for obj in names {
            p.submit(obj, a, rem, k as f64).expect("pipelined submit");
            for (_, v) in p.take() {
                assert!(v.is_granted(), "fleet workload must be all-grant");
                granted += 1;
            }
        }
    }
    for (_, v) in p.finish().expect("pipeline drain") {
        assert!(v.is_granted(), "fleet workload must be all-grant");
        granted += 1;
    }
    assert_eq!(granted, objects * accesses, "every request must resolve");
    let elapsed = start.elapsed().as_secs_f64();
    ModeResult {
        name: format!("wire-pipelined-w{window}"),
        ops_per_sec: (objects * accesses) as f64 / elapsed,
        elapsed_s: elapsed,
        decisions: objects * accesses,
    }
}
