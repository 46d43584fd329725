//! Tier-1 smoke test of the benchmark: every workload of `BENCHMARK.json`
//! at `--smoke` shape, untraced and traced. Each run must pass all its
//! correctness checks, fail no operation, and print exactly the metric
//! names `BENCHMARK.json` lists (end-to-end untraced, per-layer traced),
//! with the listed units and with end-to-end values that are never 0.
//! `BENCHMARK.json`'s bounds must be the ones `metrics::gate_bound`
//! derives from the measured spreads.

use std::path::Path;
use std::process::Command;

use stacl_benchmark::json::Json;
use stacl_benchmark::metrics::{gate_bound, Better, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_binarys_gated_and_per_layer_metrics() {
    let bench = benchmark_json();
    let listed = bench.get("end_to_end").map_or(&[][..], Json::items);
    let gated: Vec<_> = END_TO_END.iter().filter(|d| d.gated).collect();
    assert_eq!(listed.len(), gated.len());
    for (m, d) in listed.iter().zip(gated) {
        let better = match d.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            Some(gate_bound(d.name)),
            "{}",
            d.name
        );
    }
    let layers = names(&bench, "per_layer");
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(layers, expected);
}

/// Run one workload and return its one-line result.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_stacl-benchmark"))
        .args(["--workload", workload, "--seed", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

#[test]
fn every_workload_emits_every_listed_metric_and_passes_its_checks() {
    let bench = benchmark_json();
    let e2e = names(&bench, "end_to_end");
    let layers = names(&bench, "per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let workloads: Vec<String> = names(&bench, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads.len(), 4, "{workloads:?}");

    std::thread::scope(|s| {
        for w in &workloads {
            let (e2e, layers) = (&e2e, &layers);
            s.spawn(move || {
                for (trace, listed) in [(false, e2e), (true, layers)] {
                    let r = run(w, trace);
                    assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w}: {r}");
                    assert_eq!(
                        r.get("failed").and_then(Json::as_f64),
                        Some(0.0),
                        "{w}: {r}"
                    );
                    assert!(r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
                    let metrics = r.get("metrics").expect("metrics");
                    let emitted: Vec<&str> =
                        metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
                    let wanted: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
                    assert_eq!(emitted, wanted, "{w} (trace {trace})");
                    for (name, unit) in listed {
                        let m = metrics.get(name).expect("listed metric");
                        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                        let v = m
                            .get("value")
                            .and_then(Json::as_f64)
                            .expect("numeric value");
                        assert!(v.is_finite(), "{w}: {name} = {v}");
                        if !trace {
                            assert!(v > 0.0, "{w}: {name} must never be 0");
                        }
                    }
                }
                let spans = Path::new(env!("CARGO_TARGET_TMPDIR"))
                    .join("bench-trace")
                    .join(format!("{w}.json"));
                assert!(spans.exists(), "{w}: no span file at {}", spans.display());
            });
        }
    });
}
