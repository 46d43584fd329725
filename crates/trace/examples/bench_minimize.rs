//! Minimisation microbench: Hopcroft over counting-style automata at
//! growing state counts and alphabet widths — the shapes the constraint
//! compiler produces. A counting chain is already minimal, so every
//! state survives and every block is split off one at a time, the worst
//! case for a minimiser that rescans whole blocks. The last lines fit
//! the time's exponent in the state count n (log-log least squares per
//! alphabet width): about 1 for an O(k·n·log n) minimiser, about 2 for
//! a quadratic one.
//!
//! Run with `cargo run --release -p stacl-trace --example bench_minimize`.

use std::time::Instant;

use stacl_trace::dfa::Dfa;
use stacl_trace::symbol::{AccessId, Alphabet};

/// A saturating counter DFA: `n_states` counter values over `k` symbols,
/// of which the first `matching` bump the counter — structurally the
/// compiled `count(min, max, σ)` automaton.
fn counting_dfa(n_states: usize, k: usize, matching: usize) -> Dfa {
    let alphabet = Alphabet::from_ids((0..k as u32).map(AccessId));
    let mut trans = vec![0u32; n_states * k];
    for state in 0..n_states {
        for sym in 0..k {
            let next = if sym < matching {
                (state + 1).min(n_states - 1)
            } else {
                state
            };
            trans[state * k + sym] = next as u32;
        }
    }
    let accept: Vec<bool> = (0..n_states).map(|c| c < n_states - 1).collect();
    Dfa::from_parts(alphabet, trans, 0, accept)
}

/// Least-squares slope of ln(time) against ln(n).
fn loglog_slope(points: &[(usize, u128)]) -> f64 {
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, us)| ((n as f64).ln(), (us.max(1) as f64).ln()))
        .collect();
    let len = xy.len() as f64;
    let mx = xy.iter().map(|p| p.0).sum::<f64>() / len;
    let my = xy.iter().map(|p| p.1).sum::<f64>() / len;
    let sxy: f64 = xy.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = xy.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

fn main() {
    // 4098 states × 4096 symbols is left out: its three n·k tables
    // alone need ~200 MB.
    let widths = [8, 512, 4096];
    let shapes = [
        (130, 8),
        (130, 512),
        (130, 4096),
        (1026, 8),
        (1026, 512),
        (1026, 4096),
        (4098, 8),
        (4098, 512),
    ];
    println!("states  symbols  min_states  best_of_5_us");
    let mut timed: Vec<(usize, usize, u128)> = Vec::new();
    for (n, k) in shapes {
        let d = counting_dfa(n, k, 2);
        let mut best = u128::MAX;
        let mut states = 0;
        for _ in 0..5 {
            let t0 = Instant::now();
            let m = d.minimize();
            best = best.min(t0.elapsed().as_micros());
            states = m.num_states();
        }
        println!("{n:>6}  {k:>7}  {states:>10}  {best:>12}");
        timed.push((n, k, best));
    }
    for k in widths {
        let points: Vec<(usize, u128)> = timed
            .iter()
            .filter(|t| t.1 == k)
            .map(|t| (t.0, t.2))
            .collect();
        let ns: Vec<String> = points.iter().map(|p| p.0.to_string()).collect();
        println!(
            "k = {k:>4}: time ~ n^{:.2}  (fit over n = {})",
            loglog_slope(&points),
            ns.join(", ")
        );
    }
}
