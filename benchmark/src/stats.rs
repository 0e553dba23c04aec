//! Order statistics over timing samples.

/// Sorts `v` in place and returns it (samples are finite by
/// construction: they come from `Instant` differences).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (upper median for even lengths, the convention the
/// repo's other benches use). 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    s.get(s.len() / 2).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it (rank `ceil(q·n)`,
/// 1-based). `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    rank_of(sorted.len(), q).map(|r| sorted[r - 1])
}

/// A tail percentile is only reported when at least ten samples lie
/// beyond it; with fewer, the value is set by a handful of outliers and
/// is not a property of the system.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let r = rank_of(sorted.len(), q)?;
    (sorted.len() - r >= 10).then(|| sorted[r - 1])
}

fn rank_of(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(3.0)); // ceil(2.5) = 3rd
        assert_eq!(nearest_rank(&s, 0.2), Some(1.0)); // ceil(1.0) = 1st
        assert_eq!(nearest_rank(&s, 0.21), Some(2.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.99), Some(990.0));
        // One sample fewer leaves nine beyond rank ceil(989.01) = 990.
        assert_eq!(tail_percentile(&s[..999], 0.99), None);
        // The median of 21 samples is rank 11: ten beyond.
        assert_eq!(tail_percentile(&s[..21], 0.5), Some(11.0));
        assert_eq!(tail_percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&s[..19], 0.5), None);
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
