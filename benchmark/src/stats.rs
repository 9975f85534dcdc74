//! Summary statistics the report is built from: medians, the tail
//! percentile rule, and the failure-share arithmetic.

/// Percentiles the tail rule may report, from lowest to highest.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank rank of percentile `p` in `n` samples: the 1-based index
/// of the smallest sample with at least `p`% of the samples at or below it.
fn nearest_rank(p: f64, n: usize) -> usize {
    // The epsilon keeps binary rounding of e.g. 99.9 from bumping an exact
    // rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(nearest_rank(p, n))
}

/// A percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile (e.g. `99.0`).
    pub p: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The nearest-rank `p`th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    let beyond = samples_beyond(p, n);
    if n == 0 || beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        p,
        value: sorted[nearest_rank(p, n) - 1],
        samples: n,
        beyond,
    })
}

/// The tail rule: the highest percentile of [`PERCENTILE_LADDER`] with at
/// least [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(samples: &[f64]) -> Option<Percentile> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find_map(|&p| percentile(samples, p))
}

/// Domains that failed — dead-lettered, or never journaled — as a share of
/// the domains attempted. `0.0` when nothing was attempted.
pub fn failed_share(attempted: usize, dead_lettered: usize, unjournaled: usize) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (dead_lettered + unjournaled) as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles_of_a_ramp() {
        let xs = ramp(1000);
        let p50 = percentile(&xs, 50.0).expect("500 beyond the median");
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        let p99 = percentile(&xs, 99.0).expect("10 beyond p99 of 1000");
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(percentile(&ramp(999), 99.0).is_none(), "only 9 beyond");
        assert!(percentile(&ramp(1000), 99.0).is_some());
        assert!(percentile(&ramp(9), 50.0).is_none());
    }

    #[test]
    fn tail_rule_picks_the_highest_qualifying_percentile() {
        assert_eq!(tail_percentile(&ramp(100)).map(|t| t.p), Some(90.0));
        assert_eq!(tail_percentile(&ramp(999)).map(|t| t.p), Some(90.0));
        assert_eq!(tail_percentile(&ramp(1000)).map(|t| t.p), Some(99.0));
        let deep = tail_percentile(&ramp(10_000)).expect("qualifies");
        assert_eq!((deep.p, deep.beyond, deep.samples), (99.9, 10, 10_000));
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&ramp(20)).map(|t| t.p), Some(50.0));
    }

    #[test]
    fn tail_rule_ignores_input_order() {
        let mut xs = ramp(2000);
        xs.reverse();
        let t = tail_percentile(&xs).expect("qualifies");
        assert_eq!((t.p, t.value, t.beyond), (99.0, 1980.0, 20));
    }

    #[test]
    fn failed_share_counts_dead_letters_and_unjournaled_domains() {
        assert_eq!(failed_share(0, 0, 0), 0.0);
        assert_eq!(failed_share(200, 0, 0), 0.0);
        assert_eq!(failed_share(200, 1, 0), 0.005);
        assert_eq!(failed_share(200, 1, 3), 0.02);
        assert_eq!(failed_share(4, 2, 2), 1.0);
    }
}
