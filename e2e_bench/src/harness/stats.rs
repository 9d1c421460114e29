//! The benchmark's one set of summary statistics. Every number
//! `e2e_bench` reports goes through these functions, so a median or a
//! percentile means the same thing on every workload.

/// The median of `samples` (mean of the two middle values for an even
/// count). `NaN` for an empty slice, which the JSON emitter would print
/// as `null` and the driver would refuse — an empty sample set is a bug.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// `--selfcheck` sees the spread the driver will see. Needs two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The tail percentile rule: the highest of p50/p90/p99/p99.9 that still
/// has at least ten samples beyond it. Returns `(percentile, value)`;
/// with fewer than a hundred samples nothing beyond the median qualifies.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let per_mille = [999, 990, 900]
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(500);
    let p = per_mille as f64 / 10.0;
    (p, percentile(samples, p))
}

/// The `p`-th percentile (nearest rank) of `samples`; `NaN` if empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[rank(n, (p * 10.0).round() as usize).max(1) - 1],
    }
}

/// Nearest rank of the `per_mille`-th thousandth among `n` samples, in
/// whole numbers: `100 * (1 - 0.9)` is not ten in floating point.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 would leave nine beyond it
        assert_eq!(tail(&v(99)), (50.0, 50.0));
        // 100 samples: p90 leaves exactly ten
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        assert_eq!(tail(&v(999)).0, 90.0);
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        assert_eq!(tail(&v(10_000)), (99.9, 9990.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
