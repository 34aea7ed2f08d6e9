//! Exact order statistics over raw samples.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of n
//! sorted samples is the sample at 1-based rank `ceil(p·n/100)`. Ranks are
//! computed in integer basis points, so p99 of 100 samples is exactly the
//! 99th sample, with no floating-point rounding and no histogram buckets.

/// A percentile in basis points of one percent: `Pct(9900)` is p99.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct(pub u64);

impl Pct {
    pub const P50: Pct = Pct(5_000);
    pub const P99: Pct = Pct(9_900);
    /// The candidates for "highest percentile the sample supports".
    const LADDER: [Pct; 5] = [Pct(9_999), Pct(9_990), Pct(9_900), Pct(9_000), Pct(5_000)];

    /// 1-based nearest rank among `n` samples (`n > 0`).
    fn rank(self, n: usize) -> usize {
        let n = n as u64;
        (self.0 * n).div_ceil(10_000).clamp(1, n) as usize
    }

    /// Samples strictly above this percentile's rank.
    pub fn beyond(self, n: usize) -> usize {
        n - self.rank(n)
    }

    /// `p99.9`-style label.
    pub fn label(self) -> String {
        format!("p{}", self.0 as f64 / 100.0)
    }
}

/// The nearest-rank percentile of `sorted` (ascending, nonempty).
pub fn percentile(sorted: &[f64], p: Pct) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[p.rank(sorted.len()) - 1]
}

/// The highest of p99.99, p99.9, p99, p90 and p50 with at least ten
/// samples beyond it; `None` under 20 samples.
pub fn highest_supported(n: usize) -> Option<Pct> {
    Pct::LADDER.into_iter().find(|p| n > 0 && p.beyond(n) >= 10)
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of a nonempty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), Pct::P50)
}

/// Replies per second over the final fifth of a sequence, from the
/// completion times (seconds since the timed window opened, any order).
/// The window is the last `ceil(n/5)` completions, timed from the
/// completion just before it (or from 0 when the window is everything).
pub fn tail_rate(completions: &[f64]) -> f64 {
    let c = sorted(completions);
    let n = c.len();
    assert!(n > 0, "tail rate of no completions");
    let k = n.div_ceil(5);
    let start = if n > k { c[n - k - 1] } else { 0.0 };
    k as f64 / (c[n - 1] - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_on_known_inputs() {
        let v = one_to(100);
        assert_eq!(percentile(&v, Pct::P50), 50.0);
        assert_eq!(percentile(&v, Pct::P99), 99.0);
        assert_eq!(percentile(&v, Pct(10_000)), 100.0);
        assert_eq!(percentile(&v, Pct(1)), 1.0);
        // Odd count: the median is the middle sample.
        assert_eq!(percentile(&one_to(5), Pct::P50), 3.0);
        // 16 samples (one reproduce pass): p50 is the 8th, p99 the 16th.
        assert_eq!(percentile(&one_to(16), Pct::P50), 8.0);
        assert_eq!(percentile(&one_to(16), Pct::P99), 16.0);
        assert_eq!(percentile(&[7.5], Pct::P99), 7.5);
        // p99.9 of 1000 is rank 999, exactly.
        assert_eq!(percentile(&one_to(1000), Pct(9_990)), 999.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(Pct::P50));
        assert_eq!(highest_supported(100), Some(Pct(9_000)));
        assert_eq!(highest_supported(999), Some(Pct(9_000)));
        assert_eq!(highest_supported(1000), Some(Pct::P99));
        assert_eq!(highest_supported(10_000), Some(Pct(9_990)));
        assert_eq!(highest_supported(100_000), Some(Pct(9_999)));
        assert_eq!(Pct::P99.beyond(1000), 10);
        assert_eq!(Pct(9_990).label(), "p99.9");
        assert_eq!(Pct(9_999).label(), "p99.99");
        assert_eq!(Pct::P50.label(), "p50");
    }

    #[test]
    fn tail_rate_covers_the_final_fifth() {
        // Eight completions one second apart, then two 0.5 s apart: the
        // final fifth is the last two, timed from the eighth.
        let mut c = one_to(8);
        c.extend([8.5, 9.0]);
        assert_eq!(tail_rate(&c), 2.0);
        // Everything in the window: timed from zero.
        assert_eq!(tail_rate(&[0.5]), 2.0);
    }
}
