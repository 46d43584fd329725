//! `stacl-benchmark` — the one benchmark every performance change to
//! stacl is measured against.
//!
//! Four fixed workloads (see the crate README for why each exists):
//! `fleet-steady` and `mobility-mix` run in process, `wire-pipelined`
//! and `coalition-churn` over loopback daemons. Every layer is measured
//! from outside, by timing calls into public functions and by diffing
//! `stacl::obs` counters; nothing inside the program is instrumented.
//!
//! ```text
//! stacl-benchmark --seed S [--workload W] [--seconds N] [--trace [0|1]]
//!                 [--smoke] [--compare BASE.json]...
//! ```
//!
//! Without `--workload` every workload runs in its own child process
//! (so peak RSS and obs counters are per workload), a table of all
//! metrics is printed, and the run record goes to
//! `$CARGO_TARGET_DIR/bench-record.json` (default `target/`). With
//! `--workload` one workload runs in this process; the last stdout line
//! is the one-line result `{"correct", "attempted", "failed",
//! "metrics"}` — the gated end-to-end metrics untraced, the per-layer
//! metrics with `--trace 1` — and the line before it is the full record.

mod affinity;
mod calib;
mod churn;
mod fixtures;
mod fleet;
mod mobility;
mod report;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, Stdio};

use stacl::obs::Counter;

use report::Report;
use stacl_benchmark::json::Json;
use trace::Tracer;

/// One workload run's settings.
pub struct Config {
    pub seed: u64,
    /// Measured seconds (set-up, warm-up and correctness checks excluded).
    pub seconds: f64,
    /// Tiny shapes for the smoke test.
    pub smoke: bool,
    /// Alternate traced and untraced rounds and report per-layer metrics.
    pub trace: bool,
}

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: [&str; 4] = [fleet::NAME, mobility::NAME, wire::NAME, churn::NAME];

const USAGE: &str = "usage: stacl-benchmark --seed S [--workload W] [--seconds N] \
                     [--trace [0|1]] [--smoke] [--compare BASE.json]...";

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Base run records; `--compare` may be given several times.
    compare: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        workload: None,
        seconds: None,
        trace: false,
        smoke: false,
        compare: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[i]))
        };
        match args[i].as_str() {
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--workload" => {
                let w = value(i)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (expected {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                a.seconds = Some(s);
                i += 1;
            }
            "--trace" => {
                a.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("1") => i += 1,
                    Some("0") => {
                        a.trace = false;
                        i += 1;
                    }
                    _ => {}
                }
            }
            "--smoke" => a.smoke = true,
            "--compare" => {
                a.compare.push(value(i)?);
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.workload {
        Some(w) => run_workload(w, &args),
        None => orchestrate(&args),
    };
    std::process::exit(code);
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Restart this process's peak-RSS watermark at its current RSS (Linux
/// `clear_refs` mode 5), so a round's own peak can be read. Best effort:
/// elsewhere the watermark keeps covering the whole process life.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) since the last [`reset_peak_rss`],
/// in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The srac per-layer metrics, from the report's counter deltas.
pub fn srac_layers(report: &mut Report) {
    let get = |c: Counter| {
        report
            .counters
            .iter()
            .find(|(k, _)| *k == c.label())
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = get(Counter::CursorFastPathHit);
    let cold = get(Counter::CursorColdStart);
    let declines: f64 = Counter::DECLINES.iter().map(|&c| get(c)).sum();
    let (cache_hit, cache_miss) = (get(Counter::CacheHit), get(Counter::CacheMiss));
    let values = [
        ("srac.cursor_hit_ratio", ratio(hits, hits + cold + declines)),
        ("srac.cold_starts", cold),
        ("srac.declines", declines),
        (
            "srac.cache_hit_ratio",
            ratio(cache_hit, cache_hit + cache_miss),
        ),
        ("srac.hash_cons_hits", get(Counter::CacheHashConsHit)),
        (
            "srac.soa_batch_advances",
            get(Counter::CursorSoaBatchAdvance),
        ),
    ];
    for (name, v) in values {
        report.layer(name, v);
    }
}

fn run_workload(w: &str, args: &Args) -> i32 {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.3 } else { 20.0 }),
        smoke: args.smoke,
        trace: args.trace,
    };
    let mut tr = Tracer::new();
    let mut report = match w {
        fleet::NAME => fleet::run(&cfg, &mut tr),
        mobility::NAME => mobility::run(&cfg, &mut tr),
        wire::NAME => wire::run(&cfg, &mut tr),
        _ => churn::run(&cfg, &mut tr),
    };
    if cfg.trace {
        let path = target_dir().join("bench-trace").join(format!("{w}.json"));
        if let Err(e) = tr.write(&path) {
            report.check("span-file-written", false, || {
                format!("{}: {e}", path.display())
            });
        }
    }
    for (name, r) in &report.checks {
        if let Err(e) = r {
            eprintln!("{w}: correctness check `{name}` failed: {e}");
        }
    }
    println!("{}", report.detail(cfg.seed, cfg.trace));
    println!("{}", report.result_line(cfg.trace));
    if report.correct() {
        0
    } else {
        1
    }
}

/// Run one workload in a child process and return its full record.
fn child(w: &str, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("{w}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let detail = lines
        .len()
        .checked_sub(2)
        .map(|i| lines[i])
        .ok_or_else(|| format!("{w}: no result ({})", out.status))?;
    let detail = Json::parse(detail).map_err(|e| format!("{w}: bad record: {e}"))?;
    if !out.status.success() {
        return Err(format!("{w}: exited with {}", out.status));
    }
    Ok(detail)
}

fn print_group(detail: &Json, group: &str) {
    for (name, m) in detail.get(group).map_or(&[][..], Json::fields) {
        let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  {name:<30} {:>16.4} {:<15} n={:<6} q1={:.4} q3={:.4}",
            num("value"),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            num("samples"),
            num("q1"),
            num("q3"),
        );
    }
}

fn orchestrate(args: &Args) -> i32 {
    let mut workloads = Json::obj();
    for w in WORKLOADS {
        let mut entry = Json::obj();
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            match child(w, args, traced) {
                Ok(d) => {
                    let num = |k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    println!(
                        "{w}{}: {} rounds, {} attempted, {} failed — {}",
                        if traced { " (traced)" } else { "" },
                        num("rounds"),
                        num("attempted"),
                        num("failed"),
                        d.get("shape").and_then(Json::as_str).unwrap_or("")
                    );
                    if traced {
                        print_group(&d, "per_layer");
                    } else {
                        print_group(&d, "metrics");
                        print_group(&d, "diagnostics");
                    }
                    entry.set(if traced { "traced" } else { "run" }, d);
                }
                Err(e) => {
                    eprintln!("{e}; no run record written");
                    return 1;
                }
            }
        }
        workloads.set(w, entry);
    }
    let mut record = Json::obj();
    record
        .set("git_rev", report::git_rev())
        .set(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .set("seed", args.seed)
        .set("smoke", args.smoke)
        .set("workloads", workloads);
    let path = target_dir().join("bench-record.json");
    if let Err(e) = std::fs::create_dir_all(target_dir())
        .and_then(|()| std::fs::write(&path, format!("{record}\n")))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return 1;
    }
    println!("run record: {}", path.display());
    if args.compare.is_empty() {
        return 0;
    }
    let mut bases = Vec::new();
    for path in &args.compare {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(b) => bases.push(b),
            Err(e) => {
                eprintln!("--compare {path}: {e}");
                return 2;
            }
        }
    }
    if report::compare(&bases, &record) {
        0
    } else {
        eprintln!("deterministic counters differ from the base record");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_single_workload_and_full_run_forms() {
        let a = args(&[
            "--workload",
            "wire-pipelined",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire-pipelined"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let a = args(&["--seed", "1", "--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        let a = args(&["--compare", "a.json", "--compare", "b.json"]).unwrap();
        assert_eq!(a.compare, ["a.json", "b.json"]);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
