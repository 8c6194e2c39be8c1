//! Exact order statistics over every stored sample.
//!
//! Percentiles are nearest-rank: the p-th percentile of `n` sorted samples
//! is the sample at 1-based rank `ceil(p/100 · n)`. No bucketing, so a 10 %
//! change in a latency shows as a 10 % change in its percentile. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; the median is always reported.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Sorts a copy of the samples (NaN-free by construction of every caller).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (nearest rank, so always an observed sample); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(xs), 50.0)
}

/// Tail percentile, `None` when the sample cannot support it.
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    supported(xs.len(), p).then(|| percentile_sorted(&sorted(xs), p))
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Interquartile mean: the mean of the samples between the first and the
/// third quartile (nearest rank). Robust like the median, but not confined
/// to the sample's grid when every sample is a multiple of a clock tick.
pub fn iq_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let (lo, hi) = (rank(s.len(), 25.0) - 1, rank(s.len(), 75.0));
    mean(&s[lo..hi])
}

/// One-line description of a latency sample: count, median and each tail
/// percentile the sample supports.
pub fn describe(xs: &[f64]) -> String {
    let mut s = format!("n={} p50={:.3}", xs.len(), median(xs));
    for p in [90.0, 99.0] {
        match tail(xs, p) {
            Some(v) => s.push_str(&format!(" p{p}={v:.3}")),
            None => s.push_str(&format!(" p{p}=unsupported")),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 5.0);
        assert_eq!(percentile_sorted(&xs, 90.0), 9.0);
        assert_eq!(percentile_sorted(&xs, 91.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentiles_resolve_small_changes() {
        // A uniform 10 % slowdown moves every percentile by exactly 10 %:
        // nothing snaps to a bucket edge.
        let base: Vec<f64> = (0..200).map(|i| 0.150 + i as f64 * 0.0007).collect();
        let slow: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        for p in [50.0, 90.0] {
            let (a, b) = (percentile_sorted(&base, p), percentile_sorted(&slow, p));
            assert!((b / a - 1.1).abs() < 1e-12, "p{p}: {a} -> {b}");
        }
        assert_ne!(percentile_sorted(&base, 50.0), percentile_sorted(&base, 90.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(!supported(99, 90.0), "rank 90 of 99 leaves 9 beyond");
        assert!(supported(100, 90.0), "rank 90 of 100 leaves 10 beyond");
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(0, 50.0));
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), None);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), Some(89.0));
    }

    #[test]
    fn median_is_order_free_and_handles_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn interquartile_mean_ignores_the_outer_quarters() {
        let xs = [40.0, 40.0, 41.0, 40.0, 39.0, 41.0, 40.0, 90.0];
        let m = iq_mean(&xs);
        assert!(m > 39.0 && m < 41.0, "{m}");
        assert_eq!(iq_mean(&[5.0]), 5.0);
        assert_eq!(iq_mean(&[]), 0.0);
    }

    #[test]
    fn describe_reports_counts_and_unsupported_tails() {
        let xs: Vec<f64> = (0..30).map(f64::from).collect();
        let d = describe(&xs);
        assert!(d.starts_with("n=30 p50=14.000"), "{d}");
        assert!(d.contains("p90=unsupported") && d.contains("p99=unsupported"), "{d}");
    }
}
