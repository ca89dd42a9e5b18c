//! Medians and percentiles over latency samples.

/// Value at quantile `q` (nearest rank) of an ascending-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank]
}

/// Sort in place and return the median.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

/// The highest of p90, p99, p99.9, p99.99 that still has at least ten
/// samples beyond it, or `None` under 100 samples. A tail percentile
/// resting on fewer samples is one outlier's value, not a percentile.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [(10_000, 0.9999), (1_000, 0.999), (100, 0.99), (10, 0.9)]
        .into_iter()
        .find(|(one_in, _)| samples / one_in >= 10)
        .map(|(_, q)| q)
}

/// Nanosecond samples as sorted `f64`s in `unit_ns`-sized units
/// (1e3 for µs, 1e6 for ms).
pub fn sorted_in(ns: &[u64], unit_ns: f64) -> Vec<f64> {
    let mut out: Vec<f64> = ns.iter().map(|&v| v as f64 / unit_ns).collect();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(99_999), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        assert_eq!(tail_quantile(10_000_000), Some(0.9999));
    }

    #[test]
    fn median_and_quantile_pick_ranked_samples() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(sorted_in(&[3_000, 1_000], 1e3), vec![1.0, 3.0]);
    }
}
