//! Sweep accumulation and repro rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::episode::{run_episode, Episode};
use crate::oracle::OracleBug;
use crate::scenario::Scenario;
use crate::shrink::shrink;

/// Aggregated results of a multi-seed sweep.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Episodes run.
    pub episodes: usize,
    /// Total access decisions across all episodes.
    pub decisions: usize,
    /// Decision counts by kind label, summed over episodes.
    pub histogram: BTreeMap<&'static str, usize>,
    /// Seeds whose episode diverged.
    pub divergent_seeds: Vec<u64>,
}

impl SweepReport {
    /// An empty report.
    pub fn new() -> Self {
        SweepReport::default()
    }

    /// Fold one episode into the report.
    pub fn absorb(&mut self, seed: u64, ep: &Episode) {
        self.episodes += 1;
        self.decisions += ep.decisions;
        for (k, n) in &ep.histogram {
            *self.histogram.entry(k).or_insert(0) += n;
        }
        if ep.divergence.is_some() {
            self.divergent_seeds.push(seed);
        }
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "episodes={} decisions={} divergences={}",
            self.episodes,
            self.decisions,
            self.divergent_seeds.len()
        );
        for (k, n) in &self.histogram {
            let _ = writeln!(out, "  {k}: {n}");
        }
        if !self.divergent_seeds.is_empty() {
            let seeds: Vec<String> = self.divergent_seeds.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "divergent seeds: {}", seeds.join(" "));
        }
        out
    }
}

/// The full replay report for one scenario: the scenario, the episode
/// log, and — when the episode diverges — the deterministic shrunk
/// witness with its own log.
pub fn repro_scenario(sc: &Scenario, bug: Option<OracleBug>) -> String {
    let ep = run_episode(sc, bug);
    let mut out = String::new();
    let _ = writeln!(out, "{sc}");
    let _ = writeln!(out, "episode log:");
    out.push_str(&ep.log);
    match &ep.divergence {
        None => {
            let _ = writeln!(
                out,
                "no divergence: guard and oracle agree on all decisions"
            );
        }
        Some(d) => {
            let _ = writeln!(out, "DIVERGENCE: {d}");
            let (small, small_ep) = shrink(sc, bug);
            let _ = writeln!(out, "\nshrunk witness ({} events):", small.events.len());
            let _ = writeln!(out, "{small}");
            let _ = writeln!(out, "shrunk episode log:");
            out.push_str(&small_ep.log);
            if let Some(d) = &small_ep.divergence {
                let _ = writeln!(out, "DIVERGENCE (shrunk): {d}");
            }
        }
    }
    out
}
