//! The seeded, skewed request sampler behind the `audit` workload.
//!
//! Domains are ranked by a seed-chosen popularity order, and a request
//! picks the domain of rank `i` (1-based) with probability proportional to
//! `1 / i^ZIPF_ALPHA`. That is the Zipf-like shape Breslau et al. measured
//! in web proxy request traces ("Web Caching and Zipf-like Distributions:
//! Evidence and Implications", IEEE INFOCOM 1999), where the exponent fell
//! between about 0.64 and 0.83 from trace to trace. The synthetic world has
//! no popularity data of its own, so applying that shape to company
//! look-ups is an assumption; the run reports the repeat share it yields.
//! The draw depends only on the seed and the domain count.

/// Zipf exponent: the lowest Breslau et al. measured. Of their range it
/// gives the fewest repeats, so a caching gain is not overstated, and the
/// least weight to the few top-ranked domains, whose content otherwise
/// sets much of a seed's figures.
pub const ZIPF_ALPHA: f64 = 0.64;

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n.saturating_sub(1))
    }
}

/// Draws domain indices in `0..domains` from the Zipf-like popularity law.
#[derive(Debug, Clone)]
pub struct AuditSampler {
    rng: SplitMix64,
    /// `by_rank[r]` is the domain of popularity rank `r + 1`.
    by_rank: Vec<usize>,
    /// Cumulative rank weights; the last is their total.
    cumulative: Vec<f64>,
}

impl AuditSampler {
    /// A sampler over `domains` domains in a seed-chosen popularity order.
    pub fn new(seed: u64, domains: usize) -> AuditSampler {
        let mut rng = SplitMix64::new(seed ^ 0xA0D1_7000_0000_0001);
        let mut by_rank: Vec<usize> = (0..domains).collect();
        for i in (1..by_rank.len()).rev() {
            let j = rng.below(i + 1);
            by_rank.swap(i, j);
        }
        let mut total = 0.0;
        let cumulative = (1..=domains)
            .map(|rank| {
                total += (rank as f64).powf(-ZIPF_ALPHA);
                total
            })
            .collect();
        AuditSampler {
            rng,
            by_rank,
            cumulative,
        }
    }

    /// The next domain index.
    pub fn draw(&mut self) -> usize {
        let Some(&total) = self.cumulative.last() else {
            return 0;
        };
        let u = self.rng.unit() * total;
        let rank = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.by_rank.len() - 1);
        self.by_rank[rank]
    }
}

/// Share of `draws` that repeat an earlier draw: `1 - distinct / draws`.
pub fn repeat_share(draws: &[usize]) -> f64 {
    if draws.is_empty() {
        return 0.0;
    }
    let distinct: std::collections::BTreeSet<usize> = draws.iter().copied().collect();
    1.0 - distinct.len() as f64 / draws.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, domains: usize, n: usize) -> Vec<usize> {
        let mut s = AuditSampler::new(seed, domains);
        (0..n).map(|_| s.draw()).collect()
    }

    #[test]
    fn same_seed_same_draws() {
        assert_eq!(draws(7, 500, 3000), draws(7, 500, 3000));
        assert_ne!(draws(7, 500, 3000), draws(8, 500, 3000));
    }

    #[test]
    fn draws_stay_in_range() {
        assert!(draws(3, 37, 5000).iter().all(|&d| d < 37));
        assert!(draws(3, 1, 50).iter().all(|&d| d == 0));
        assert_eq!(draws(3, 0, 5), vec![0; 5]);
    }

    #[test]
    fn popularity_order_is_a_seeded_permutation() {
        let mut order = AuditSampler::new(11, 1000).by_rank;
        assert_ne!(order, AuditSampler::new(12, 1000).by_rank);
        order.sort_unstable();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn ranks_receive_their_zipf_share() {
        let s = AuditSampler::new(11, 1000);
        let total: f64 = (1..=1000).map(|r| (r as f64).powf(-ZIPF_ALPHA)).sum();
        let xs = draws(11, 1000, 50_000);
        for rank in [1usize, 2, 10] {
            let domain = s.by_rank[rank - 1];
            let seen = xs.iter().filter(|&&d| d == domain).count() as f64 / xs.len() as f64;
            let expected = (rank as f64).powf(-ZIPF_ALPHA) / total;
            assert!(
                (seen - expected).abs() < 0.15 * expected,
                "rank {rank}: share {seen}, expected {expected}"
            );
        }
    }

    #[test]
    fn repeat_share_is_reported_and_deterministic() {
        assert_eq!(repeat_share(&[]), 0.0);
        assert_eq!(repeat_share(&[1, 2, 3]), 0.0);
        assert_eq!(repeat_share(&[1, 1, 2, 2]), 0.5);
        let a = repeat_share(&draws(5, 2000, 1200));
        assert_eq!(a, repeat_share(&draws(5, 2000, 1200)));
        assert!(a > 0.3 && a < 0.6, "skewed draws repeat: {a}");
    }
}
