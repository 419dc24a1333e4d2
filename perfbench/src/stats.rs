//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is an exact nearest-rank order
//! statistic of the raw per-operation samples; no value is ever read
//! back from a histogram bucket. A tail percentile is reported only
//! where at least [`MIN_BEYOND`] samples lie above it: with fewer
//! samples the highest percentile that still has that many beyond it is
//! reported instead (never below the median), and [`Tail::p`] says
//! which percentile that was.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Exact nearest-rank percentile `p` of `samples` (`None` when empty).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// Median (nearest rank, so always one of the samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// A tail percentile together with the percentile it was actually
/// taken at and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic.
    pub value: f64,
    /// Percentile it was taken at (`<=` the one asked for).
    pub p: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Percentile `p` of `samples` under the ten-beyond rule: the requested
/// rank when at least [`MIN_BEYOND`] samples lie above it, otherwise the
/// highest rank that has that many above it, but never below the median
/// rank. `None` when `samples` is empty.
pub fn tail(samples: &[f64], p: f64) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let median_rank = nearest_rank(0.5, n);
    let rank = nearest_rank(p, n)
        .min(n.saturating_sub(MIN_BEYOND))
        .max(median_rank);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[rank - 1],
        p: (rank as f64 / n as f64).min(p),
        n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.rotate_left(n / 3);
        v
    }

    #[test]
    fn nearest_rank_order_statistics_are_exact() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even count: the lower middle sample, never an interpolation.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly ten above it.
        let t = tail(&one_to(1000), 0.99).unwrap();
        assert_eq!((t.value, t.p, t.beyond, t.n), (990.0, 0.99, 10, 1000));

        // 999 samples: rank ⌈0.99·999⌉ = 990 would leave nine above, so
        // the rule falls back to rank 989.
        let t = tail(&one_to(999), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!(t.p < 0.99);

        // 40 samples: the highest percentile with ten beyond is p75.
        let t = tail(&one_to(40), 0.99).unwrap();
        assert_eq!((t.value, t.p, t.beyond), (30.0, 0.75, 10));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let t = tail(&one_to(12), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (6.0, 6));
        let t = tail(&[5.0], 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 0));
        assert!(tail(&[], 0.99).is_none());
    }
}
