//! Order statistics the benchmark reports: medians, quartiles (the same
//! rule as Python's `statistics.quantiles(values, n=4)`, which the driver
//! applies to ten runs) and nearest-rank percentiles with the "at least
//! ten samples beyond it" support rule.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method: the k-th quartile sits at
/// position `k·(n+1)/4` (1-based) with linear interpolation, clamped to
/// the sample range. Needs at least two values; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| -> f64 {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds every end-to-end metric's bound against.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentile ladder a latency report may quote, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest ladder percentile with at least ten samples beyond it.
/// With fewer than twenty samples nothing above the median is supported.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .find(|q| (samples as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(0.50)
}

/// The tail percentile to report when `wanted` was asked for: `wanted`
/// itself when the sample supports it, otherwise the highest one that is.
pub fn supported_tail(samples: usize, wanted: f64) -> f64 {
    wanted.min(highest_supported_percentile(samples))
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q2 - 1.5).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(9_999), 0.99);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(999), 0.95);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(199), 0.90);
        assert_eq!(highest_supported_percentile(40), 0.75);
        assert_eq!(highest_supported_percentile(20), 0.50);
        assert_eq!(highest_supported_percentile(3), 0.50);
        assert_eq!(supported_tail(5_000, 0.99), 0.99);
        assert_eq!(supported_tail(500, 0.99), 0.95);
        assert_eq!(supported_tail(50_000, 0.99), 0.99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
