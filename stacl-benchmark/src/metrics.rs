//! The benchmark's metric definitions and regression bounds. The gated
//! end-to-end entries, their bounds and the per-layer list are what
//! `BENCHMARK.json` lists; the smoke test checks that the two agree.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Part of the one-line result every run prints and of
    /// `BENCHMARK.json`: defined and never 0 on every workload, and with a
    /// run-to-run spread within [`MAX_BOUND`] on each. `decide_p90_us`
    /// is not: its wire and churn spreads reached 40% and 270%.
    pub gated: bool,
}

const fn def(name: &'static str, unit: &'static str, better: Better, gated: bool) -> Def {
    Def {
        name,
        unit,
        better,
        gated,
    }
}

/// The end-to-end metrics. Timings are medians over a run's rounds
/// (`coalition-churn` pools its latencies over its four rounds;
/// `wire-pipelined`'s `decide_p50_us` is its lowest round's median).
pub const END_TO_END: [Def; 11] = [
    def("setup_s", "s", Better::Lower, true),
    def("decisions_per_s", "1/s", Better::Higher, true),
    def("batch_decisions_per_s", "1/s", Better::Higher, false),
    def("decide_p50_us", "us", Better::Lower, true),
    def("decide_p90_us", "us", Better::Lower, false),
    def("policy_install_p50_ms", "ms", Better::Lower, false),
    def("epoch_flip_p50_ms", "ms", Better::Lower, false),
    def("handoffs_per_s", "1/s", Better::Higher, false),
    def("failsafe_share", "ratio", Better::Lower, false),
    def("failed_share", "ratio", Better::Lower, false),
    def("peak_rss_mb", "MB", Better::Lower, true),
];

/// Run-to-run spread of each (workload, metric) on the development host
/// (2-vCPU KVM guest, Xeon 2.1 GHz): (q3 − q1) / median of the values of
/// ten runs at `--seconds 20`, the largest over every ten-run set of the
/// current code — eight sets for the first three workloads, six for
/// `coalition-churn`, two for `wire-pipelined`'s `decide_p50_us` — taken
/// over several hours in quiet and in noisy periods. `failed_share` is 0
/// on every run and is not listed.
pub const SPREAD: [(&str, &str, f64); 26] = [
    ("fleet-steady", "setup_s", 0.161),
    ("fleet-steady", "decisions_per_s", 0.037),
    ("fleet-steady", "batch_decisions_per_s", 0.087),
    ("fleet-steady", "decide_p50_us", 0.061),
    ("fleet-steady", "decide_p90_us", 0.044),
    ("fleet-steady", "peak_rss_mb", 0.075),
    ("mobility-mix", "setup_s", 0.236),
    ("mobility-mix", "decisions_per_s", 0.050),
    ("mobility-mix", "decide_p50_us", 0.080),
    ("mobility-mix", "decide_p90_us", 0.065),
    ("mobility-mix", "policy_install_p50_ms", 0.064),
    ("mobility-mix", "epoch_flip_p50_ms", 0.057),
    ("mobility-mix", "peak_rss_mb", 0.096),
    ("wire-pipelined", "setup_s", 0.110),
    ("wire-pipelined", "decisions_per_s", 0.078),
    ("wire-pipelined", "decide_p50_us", 0.100),
    ("wire-pipelined", "decide_p90_us", 0.403),
    ("wire-pipelined", "peak_rss_mb", 0.024),
    ("coalition-churn", "setup_s", 0.088),
    ("coalition-churn", "decisions_per_s", 0.000),
    ("coalition-churn", "decide_p50_us", 0.131),
    ("coalition-churn", "decide_p90_us", 2.704),
    ("coalition-churn", "epoch_flip_p50_ms", 0.213),
    ("coalition-churn", "handoffs_per_s", 0.230),
    ("coalition-churn", "failsafe_share", 0.202),
    ("coalition-churn", "peak_rss_mb", 0.037),
];

/// No bound is tighter than this: a few percent is within what the host
/// moves between sets of runs even when a set's spread is smaller.
pub const MIN_BOUND: f64 = 0.05;

/// No bound is looser than this (the regression gate's limit). It is also
/// `setup_s`'s bound in `BENCHMARK.json`, the largest, so that work moved
/// into set-up shows.
pub const MAX_BOUND: f64 = 0.25;

/// The measured run-to-run spread of `metric` on `workload`, if the
/// workload defines it.
pub fn spread(workload: &str, metric: &str) -> Option<f64> {
    SPREAD
        .iter()
        .find(|(w, m, _)| *w == workload && *m == metric)
        .map(|(_, _, s)| *s)
}

/// The share by which `metric` on `workload` may get worse before it
/// counts as a regression: three times its measured spread, so a steady
/// metric's spread is under a third of its bound, rounded up to a whole
/// percent and kept within [`MIN_BOUND`, `MAX_BOUND`]. Unmeasured pairs
/// get `MAX_BOUND`.
pub fn bound(workload: &str, metric: &str) -> f64 {
    // The epsilon keeps float error from rounding 3 × 0.05 up to 16%.
    spread(workload, metric).map_or(MAX_BOUND, |s| {
        ((3.0 * s * 100.0 - 1e-9).ceil() / 100.0).clamp(MIN_BOUND, MAX_BOUND)
    })
}

/// A gated metric's bound in `BENCHMARK.json`. The regression gate has
/// one bound per metric and holds every workload to it, so it is the
/// largest of the workloads' bounds; `setup_s` gets `MAX_BOUND`.
pub fn gate_bound(metric: &str) -> f64 {
    if metric == "setup_s" {
        return MAX_BOUND;
    }
    SPREAD
        .iter()
        .filter(|(_, m, _)| *m == metric)
        .map(|(w, m, _)| bound(w, m))
        .fold(MIN_BOUND, f64::max)
}

/// The per-layer metrics every traced run prints (0 where a workload
/// does not exercise the layer). `busy_s` values are seconds per round.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("naplet.decide.busy_s", "s"),
    ("naplet.decide.p50_us", "us"),
    ("naplet.decide.p90_us", "us"),
    ("naplet.decide_batch.busy_s", "s"),
    ("naplet.note_arrival.busy_s", "s"),
    ("naplet.take_custody.busy_s", "s"),
    ("naplet.self.busy_s", "s"),
    ("rbac.decide.busy_s", "s"),
    ("rbac.new.p50_us", "us"),
    ("rbac.prepare_epoch.p50_us", "us"),
    ("rbac.activate_epoch.p50_us", "us"),
    ("abac.lower.p50_us", "us"),
    ("srac.cursor_hit_ratio", "ratio"),
    ("srac.cold_starts", "count"),
    ("srac.declines", "count"),
    ("srac.cache_hit_ratio", "ratio"),
    ("srac.hash_cons_hits", "count"),
    ("srac.soa_batch_advances", "count"),
    ("coalition.proof_issue.busy_s", "s"),
    ("coalition.home_of.busy_s", "s"),
    ("coalition.live_proofs", "count"),
    ("net.submit.busy_s", "s"),
    ("net.recv_wait.busy_s", "s"),
    ("net.in_flight.mean", "count"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.frames_per_decision", "frames/decision"),
    ("net.bytes_per_decision", "B/decision"),
    ("net.frames_per_wakeup", "frames/wakeup"),
    ("net.frames_per_flush", "frames/flush"),
    ("net.handoff.p50_us", "us"),
    ("net.handoff.p90_us", "us"),
    ("net.drain_s", "s"),
    ("net.rollout.p50_ms", "ms"),
    ("net.retries", "count"),
    ("net.handoff_failed", "count"),
    ("net.failsafe_denials", "count"),
    ("net.orphaned_completions", "count"),
    ("placement.rebalance", "count"),
    ("bench.generator_lag_p90_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_three_spreads_within_limits() {
        assert!(SPREAD.iter().all(|&(w, m, s)| {
            let b = bound(w, m);
            (MIN_BOUND..=MAX_BOUND).contains(&b) && (b >= 3.0 * s - 1e-9 || b == MAX_BOUND)
        }));
        assert_eq!(bound("fleet-steady", "no-such-metric"), MAX_BOUND);
        assert_eq!(bound("mobility-mix", "decisions_per_s"), 0.15);
        for d in END_TO_END.iter().filter(|d| d.gated) {
            assert!(gate_bound(d.name) <= gate_bound("setup_s"), "{}", d.name);
        }
    }
}
