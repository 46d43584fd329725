//! Per-workload reports, run records and `--compare`.

use crate::stats::quartiles;
use stacl_benchmark::json::Json;
use stacl_benchmark::metrics::{self, Better, END_TO_END, PER_LAYER};

/// One measured number with its within-run spread.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Metric {
    /// Median and quartiles of per-round (or per-event) samples.
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, value, q3) = quartiles(samples);
        Metric {
            name,
            unit,
            value,
            q1,
            q3,
            samples: samples.len(),
        }
    }

    /// The lowest of per-round samples (0 for none), with their quartiles.
    pub fn lowest(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            value: samples.iter().copied().reduce(f64::min).unwrap_or(0.0),
            ..Metric::of(name, unit, samples)
        }
    }

    /// A single number (a count, a ratio of totals).
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    fn to_json(&self) -> Json {
        let mut m = Json::obj();
        m.set("value", self.value)
            .set("unit", self.unit)
            .set("q1", self.q1)
            .set("q3", self.q3)
            .set("samples", self.samples);
        m
    }
}

/// Everything one workload run produced.
pub struct Report {
    pub workload: &'static str,
    pub shape: String,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Raw obs counter deltas over one fixed, seed-determined unit of
    /// work (deterministic on the in-process workloads).
    pub counters: Vec<(&'static str, u64)>,
    /// Correctness checks: `(name, Ok | Err(detail))`.
    pub checks: Vec<(&'static str, Result<(), String>)>,
    pub spans: Json,
}

impl Report {
    pub fn new(workload: &'static str, shape: String) -> Report {
        Report {
            workload,
            shape,
            rounds: 0,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            diagnostics: Vec::new(),
            layers: Vec::new(),
            counters: Vec::new(),
            checks: Vec::new(),
            spans: Json::obj(),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks
            .push((name, if ok { Ok(()) } else { Err(detail()) }));
    }

    /// Record obs counter deltas by their stable labels.
    pub fn set_counters(&mut self, delta: &stacl::obs::MetricsSnapshot) {
        self.counters = stacl::obs::Counter::ALL
            .iter()
            .map(|&c| (c.label(), delta.counter(c)))
            .collect();
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.layers.push(Metric::one(name, unit, value));
    }

    /// The full record of this run, one line.
    pub fn detail(&self, seed: u64, traced: bool) -> Json {
        let group = |ms: &[Metric]| {
            let mut o = Json::obj();
            for m in ms {
                o.set(m.name, m.to_json());
            }
            o
        };
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters.set(k, *v);
        }
        let mut checks = Json::obj();
        for (k, r) in &self.checks {
            checks.set(
                k,
                match r {
                    Ok(()) => "ok".to_string(),
                    Err(e) => e.clone(),
                },
            );
        }
        let mut d = Json::obj();
        d.set("workload", self.workload)
            .set("seed", seed)
            .set("traced", traced)
            .set("shape", self.shape.as_str())
            .set("rounds", self.rounds)
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", group(&self.metrics))
            .set("diagnostics", group(&self.diagnostics))
            .set("per_layer", group(&self.layers))
            .set("spans", self.spans.clone())
            .set("counters", counters)
            .set("checks", checks);
        d
    }

    /// The one-line result: every gated end-to-end metric untraced, every
    /// per-layer metric traced.
    pub fn result_line(&self, traced: bool) -> Json {
        let mut metrics = Json::obj();
        let mut put = |name: &str, unit: &str, value: f64| {
            let mut m = Json::obj();
            m.set("value", value).set("unit", unit);
            metrics.set(name, m);
        };
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                put(name, unit, v);
            }
        } else {
            for d in END_TO_END.iter().filter(|d| d.gated) {
                let v = self
                    .metrics
                    .iter()
                    .find(|m| m.name == d.name)
                    .map_or(0.0, |m| m.value);
                put(d.name, d.unit, v);
            }
        }
        let mut line = Json::obj();
        line.set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics);
        line
    }
}

/// The current commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One comparison row's outcome: the current value `c` against the base
/// value `b`, given the row's bound and how far one run's value moves
/// from run to run (`noise`, a share of the median).
fn classify(better: Better, bound: f64, noise: f64, b: f64, c: f64) -> &'static str {
    if b == 0.0 {
        return if c > 0.0 && better == Better::Lower {
            "worse"
        } else {
            "unchanged"
        };
    }
    let worse_by = match better {
        Better::Lower => (c - b) / b,
        Better::Higher => (b - c) / b,
    };
    if noise > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "unchanged"
    }
}

/// `key` of a run record's untraced run of `workload`.
fn run_field<'a>(record: &'a Json, workload: &str, key: &str) -> Option<&'a Json> {
    record.get("workloads")?.get(workload)?.get("run")?.get(key)
}

fn run_metric<'a>(record: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    run_field(record, workload, "metrics")?.get(metric)
}

/// Compare a run record against one or more base records: one row per
/// (workload, end-to-end metric), plus an exact diff of the deterministic
/// counters of the in-process workloads against every base run with the
/// same seed. Returns whether those counters agree.
///
/// The base value is the median over the base records. A row is
/// `unresolved` when the metric's run-to-run spread exceeds its bound:
/// the spread measured on the development host (`metrics::SPREAD`) or,
/// with several base records, the spread among them if that is larger.
/// One record says nothing about run-to-run noise, and the host's speed
/// regimes move whole runs, so a single base cannot stand in for it.
pub fn compare(bases: &[Json], cur: &Json) -> bool {
    let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut counters_agree = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "current", "change", "spread", "bound"
    );
    for (w, _) in cur.get("workloads").map_or(&[][..], Json::fields) {
        for def in &END_TO_END {
            let Some(cm) = run_metric(cur, w, def.name) else {
                continue;
            };
            let base_values: Vec<f64> = bases
                .iter()
                .filter_map(|b| run_metric(b, w, def.name))
                .map(|m| num(m, "value"))
                .collect();
            if base_values.is_empty() {
                println!("{w:<16} {:<22} (absent from base)", def.name);
                continue;
            }
            let (q1, b, q3) = quartiles(&base_values);
            let among_bases = (base_values.len() > 1 && b != 0.0).then(|| (q3 - q1) / b.abs());
            let noise = [metrics::spread(w, def.name), among_bases]
                .into_iter()
                .flatten()
                .reduce(f64::max)
                .unwrap_or(f64::INFINITY);
            let bound = metrics::bound(w, def.name);
            let c = num(cm, "value");
            let change = if b == 0.0 { 0.0 } else { (c / b - 1.0) * 100.0 };
            let noise_pct = if noise.is_finite() {
                format!("{:.1}%", noise * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{w:<16} {:<22} {b:>14.4} {c:>14.4} {change:>8.1}% {noise_pct:>7} {:>6.1}%  {}",
                def.name,
                bound * 100.0,
                classify(def.better, bound, noise, b, c)
            );
        }
        if w != "fleet-steady" && w != "mobility-mix" {
            continue;
        }
        let cc = run_field(cur, w, "counters");
        for base in bases.iter().filter(|b| b.get("seed") == cur.get("seed")) {
            let bc = run_field(base, w, "counters");
            for (k, cv) in cc.map_or(&[][..], Json::fields) {
                let bv = bc.and_then(|b| b.get(k));
                if bv != Some(cv) {
                    counters_agree = false;
                    println!(
                        "{w:<16} counter {k}: base {} current {cv}",
                        bv.map_or("absent".to_string(), Json::to_string)
                    );
                }
            }
        }
    }
    counters_agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_respects_direction_bound_and_noise() {
        let (lower, higher) = (Better::Lower, Better::Higher);
        assert_eq!(classify(higher, 0.1, 0.02, 100.0, 80.0), "worse");
        assert_eq!(classify(lower, 0.1, 0.02, 100.0, 80.0), "better");
        assert_eq!(classify(higher, 0.1, 0.02, 100.0, 95.0), "unchanged");
        // A change beyond the bound is still unresolved when runs of one
        // commit already spread that far.
        assert_eq!(classify(higher, 0.1, 0.12, 100.0, 80.0), "unresolved");
        // failed_share: the base is 0 and any rise is worse.
        assert_eq!(classify(lower, 0.05, 0.0, 0.0, 0.01), "worse");
    }

    fn record(seed: u64, value: f64, counter: u64) -> Json {
        let mut m = Json::obj();
        m.set("value", value);
        let mut metrics = Json::obj();
        metrics.set("decisions_per_s", m);
        let mut counters = Json::obj();
        counters.set("cursor.fast-path-hit", counter);
        let mut run = Json::obj();
        run.set("metrics", metrics).set("counters", counters);
        let mut w = Json::obj();
        w.set("run", run);
        let mut ws = Json::obj();
        ws.set("fleet-steady", w);
        let mut r = Json::obj();
        r.set("seed", seed).set("workloads", ws);
        r
    }

    #[test]
    fn counters_are_diffed_only_against_same_seed_bases() {
        let cur = record(1, 100.0, 7);
        assert!(compare(&[record(1, 100.0, 7), record(3, 90.0, 8)], &cur));
        assert!(!compare(&[record(1, 100.0, 6)], &cur));
    }
}
