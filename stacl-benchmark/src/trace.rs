//! Spans recorded from outside the program: around each public call the
//! benchmark makes into a layer, never inside one.
//!
//! A span holds name, start, end, parent and request id. Spans of one
//! round stay in memory until the round ends; the round's per-name busy
//! time, self time (duration minus the part its child spans cover) and
//! percentiles are then folded into per-round series and the spans are
//! dropped — except the first traced round's, which are kept (capped at
//! [`KEEP_SPANS`]) and written out when the workload ends. With tracing
//! off every method is a no-op and `call` just runs its closure.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, percentile_us};
use stacl_benchmark::json::Json;

/// Parent index of a top-level span.
const ROOT: u32 = u32::MAX;

/// At most this many spans of the first traced round go to the span file.
const KEEP_SPANS: usize = 65_536;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

/// Per-name series over traced rounds.
#[derive(Default)]
struct Series {
    busy_s: Vec<f64>,
    self_s: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
}

/// The span recorder. One per workload process.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
    series: BTreeMap<&'static str, Series>,
    /// Per traced round: share of the wall time of the top-level span
    /// named `round` that its child spans cover.
    coverage: Vec<f64>,
}

/// Handle of an open span (see [`Tracer::enter`]).
#[derive(Clone, Copy)]
pub struct SpanId(u32);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
            series: BTreeMap::new(),
            coverage: Vec::new(),
        }
    }

    /// Turn recording on or off (between rounds only).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`]. Spans opened before
    /// it closes become its children.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(ROOT);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == ROOT {
            return;
        }
        let end = self.now_ns();
        self.spans[id.0 as usize].end_ns = end;
        self.open.pop();
    }

    /// A leaf span around one call.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.enter(name, req);
        let r = f();
        self.exit(id);
        r
    }

    /// Fold the round's spans into the per-name series and drop them.
    /// Durations are divided by `scale`, the round's calibration factor.
    pub fn end_round(&mut self, scale: f64) {
        if !self.on || self.spans.is_empty() {
            self.spans.clear();
            return;
        }
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT && s.name == "round" {
                let dur = (s.end_ns - s.start_ns).max(1);
                self.coverage.push(1.0 - self_ns[i] as f64 / dur as f64);
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, Vec<u64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += s.end_ns - s.start_ns;
            e.1 += self_ns[i];
            e.2.push(s.end_ns - s.start_ns);
        }
        for (name, (busy, own, mut durs)) in by_name {
            let series = self.series.entry(name).or_default();
            series.busy_s.push(busy as f64 / 1e9 / scale);
            series.self_s.push(own as f64 / 1e9 / scale);
            series.p50_us.push(percentile_us(&mut durs, 0.5) / scale);
            series.p90_us.push(percentile_us(&mut durs, 0.9) / scale);
        }
        if self.kept.is_empty() {
            self.kept = std::mem::take(&mut self.spans);
            self.kept.truncate(KEEP_SPANS);
        }
        self.spans.clear();
    }

    /// Median per-round busy seconds of spans named `name` (0 if none).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |s| median(&s.busy_s))
    }

    /// Median per-round self seconds of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |s| median(&s.self_s))
    }

    /// Median over rounds of the per-round p50 duration, in µs.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |s| median(&s.p50_us))
    }

    /// Median over rounds of the per-round p90 duration, in µs.
    pub fn p90_us(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |s| median(&s.p90_us))
    }

    /// Median share of a round's wall time covered by its child spans,
    /// in percent (0 when no round was traced).
    pub fn coverage_pct(&self) -> f64 {
        median(&self.coverage) * 100.0
    }

    /// Per-name busy/self medians, for the run record.
    pub fn summary(&self) -> Json {
        let mut out = Json::obj();
        for name in self.series.keys() {
            let mut s = Json::obj();
            s.set("busy_s", self.busy_s(name))
                .set("self_s", self.self_s(name))
                .set("p50_us", self.p50_us(name))
                .set("p90_us", self.p90_us(name));
            out.set(name, s);
        }
        out
    }

    /// Write the kept spans as `{"names": [...], "spans": [[name, start_ns,
    /// end_ns, parent, req], ...]}` (parent -1 = top level).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut spans = Vec::with_capacity(self.kept.len());
        for s in &self.kept {
            let idx = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == ROOT {
                -1.0
            } else {
                s.parent as f64
            };
            spans.push(Json::Arr(vec![
                idx.into(),
                s.start_ns.into(),
                s.end_ns.into(),
                parent.into(),
                s.req.into(),
            ]));
        }
        let mut doc = Json::obj();
        doc.set(
            "names",
            Json::Arr(names.into_iter().map(Json::from).collect()),
        )
        .set("spans", Json::Arr(spans));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{doc}\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        let round = t.enter("round", 0);
        t.call("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.call("next", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(round);
        t.end_round(2.0);
        // Durations are divided by the round's scale factor.
        assert!(t.busy_s("leaf") >= 0.001);
        assert!(t.busy_s("next") >= 0.0005);
        let children = t.busy_s("leaf") + t.busy_s("next");
        let own = t.self_s("round");
        assert!((own - (t.busy_s("round") - children)).abs() < 1e-9);
        // Only the gaps between the spans are uncovered.
        assert!(t.coverage_pct() > 90.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.call("leaf", 0, || 7), 7);
        t.end_round(1.0);
        assert_eq!(t.busy_s("leaf"), 0.0);
        assert_eq!(t.coverage_pct(), 0.0);
    }
}
