//! Order statistics over latency samples.

/// The median of `xs` (mean of the two middle values for even sizes);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of the `permille`/1000 quantile among `n`
/// samples, in integer arithmetic so p99.9 of 10,000 is exactly 9,990.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The nearest-rank percentile of an ascending-sorted slice, given in
/// per mille (`990` = p99); `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// The candidate tail percentiles in per mille, highest first.
const TAIL_PERMILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest of p99.9 / p99 / p95 / p90 (in per mille) that has at
/// least ten samples strictly beyond its rank, or `None` when even p90
/// lacks them (fewer than 100 samples).
pub fn highest_supported_percentile(n: usize) -> Option<usize> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// The best (lowest) of repeated timings of the same call; `0.0` for an
/// empty slice. On a shared host the machine's speed changes with its
/// neighbours' load, for seconds or minutes at a time, and moves the
/// median of the same call by up to 65% while it moves the best time far
/// less; a slower code path moves both alike.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The geometric mean of positive values; `0.0` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sizes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 10,000 samples: p99.9 has exactly 10 beyond it.
        assert_eq!(highest_supported_percentile(10_000), Some(999));
        // 9,999: p99.9 has 9 beyond it; p99 has 99.
        assert_eq!(highest_supported_percentile(9_999), Some(990));
        // 1,000: p99 has exactly 10 beyond it.
        assert_eq!(highest_supported_percentile(1_000), Some(990));
        // 999: p99 rank 990 leaves 9; p95 rank 950 leaves 49.
        assert_eq!(highest_supported_percentile(999), Some(950));
        assert_eq!(highest_supported_percentile(100), Some(900));
        assert_eq!(highest_supported_percentile(99), None);
    }

    #[test]
    fn best_is_the_lowest() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
