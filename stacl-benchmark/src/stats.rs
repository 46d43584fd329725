//! Order statistics shared by every workload.

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the same definition the spread
/// checks on a run's results use. Empty input gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile `p` in `[0, 1]` of a sample of nanosecond
/// timings, in microseconds. Reorders `ns`; 0 for an empty sample.
pub fn percentile_us(ns: &mut [u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * ns.len() as f64).ceil() as usize).clamp(1, ns.len()) - 1;
    let (_, v, _) = ns.select_nth_unstable(rank);
    *v as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&mut ns, 0.5), 50.0);
        assert_eq!(percentile_us(&mut ns, 0.9), 90.0);
        assert_eq!(percentile_us(&mut ns, 1.0), 100.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
    }
}
