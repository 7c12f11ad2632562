//! Zipfian sampling (YCSB style).
//!
//! The evaluation selects SmallBank accounts with a Zipfian distribution and
//! controls contention through the skew parameter `θ` (the paper uses
//! `θ = 0.85` for its high-contention workloads and sweeps `0.75..=0.9` in
//! Figure 12). This is the standard Gray et al. / YCSB generator with the
//! optional FNV-style scrambling that spreads the hottest items over the key
//! space (and therefore over all shards).

use rand::Rng;

/// A Zipfian distribution over `0..n`.
#[derive(Clone, Debug)]
pub struct ZipfianGenerator {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: below `uz` of this the sample is rank 1 (YCSB's
    /// `zeta2theta`, `1 + 1/2^θ`, computed once instead of per draw).
    rank1_bound: f64,
    scrambled: bool,
}

impl ZipfianGenerator {
    /// Creates a generator over `0..n` with skew `theta` (`0 <= theta < 1`;
    /// higher `theta` means more skew, `theta = 0` is uniform). It is
    /// *scrambled*: ranks are hashed so the most popular items are spread
    /// over the whole domain instead of clustering at 0.
    pub fn scrambled(n: u64, theta: f64) -> Self {
        Self::build(n, theta, true)
    }

    fn build(n: u64, theta: f64, scrambled: bool) -> Self {
        assert!(n > 0, "the Zipfian domain must be non-empty");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfianGenerator {
            n,
            alpha,
            zetan,
            eta,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
            scrambled,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Samples the next value in `0..n`.
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < self.rank1_bound {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scrambled {
            scramble(rank) % self.n
        } else {
            rank
        }
    }
}

/// FNV-1a-style integer scrambling.
fn scramble(value: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A generator over `0..n` with skew `theta` whose ranks are not
    /// scrambled, so rank `i` is value `i`.
    fn unscrambled(n: u64, theta: f64) -> ZipfianGenerator {
        ZipfianGenerator::build(n, theta, false)
    }

    fn histogram(gen: &ZipfianGenerator, samples: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; gen.n as usize];
        for _ in 0..samples {
            counts[gen.next(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_domain() {
        let gen = unscrambled(100, 0.85);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(gen.next(&mut rng) < 100);
        }
        assert_eq!(gen.n, 100);
    }

    #[test]
    fn higher_theta_concentrates_mass_on_the_hottest_item() {
        let low = unscrambled(1_000, 0.5);
        let high = unscrambled(1_000, 0.9);
        let low_hist = histogram(&low, 50_000, 7);
        let high_hist = histogram(&high, 50_000, 7);
        let low_top = *low_hist.iter().max().unwrap();
        let high_top = *high_hist.iter().max().unwrap();
        assert!(
            high_top > low_top,
            "theta=0.9 should be more skewed than theta=0.5 ({high_top} <= {low_top})"
        );
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let gen = unscrambled(10, 0.0);
        let hist = histogram(&gen, 100_000, 3);
        let max = *hist.iter().max().unwrap() as f64;
        let min = *hist.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "uniform histogram too skewed: {hist:?}");
    }

    #[test]
    fn unscrambled_zipfian_prefers_low_ranks() {
        let gen = unscrambled(1_000, 0.85);
        let hist = histogram(&gen, 50_000, 11);
        let first_ten: u64 = hist[..10].iter().sum();
        let total: u64 = hist.iter().sum();
        assert!(
            first_ten as f64 > total as f64 * 0.2,
            "the 1% hottest keys should draw >20% of accesses"
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_the_hot_keys() {
        let gen = ZipfianGenerator::scrambled(1_000, 0.85);
        let hist = histogram(&gen, 50_000, 11);
        let first_ten: u64 = hist[..10].iter().sum();
        let total: u64 = hist.iter().sum();
        // The first ten ranks are no longer special once scrambled.
        assert!((first_ten as f64) < total as f64 * 0.2);
        // But the distribution is still skewed: some key is much hotter than
        // the mean.
        let max = *hist.iter().max().unwrap() as f64;
        assert!(max > (total as f64 / 1_000.0) * 5.0);
    }

    /// `next` as it was before the rank-1 bound was hoisted out of it, for a
    /// generator of skew `theta`.
    fn next_recomputing_the_bound(gen: &ZipfianGenerator, theta: f64, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * gen.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(theta) {
            1
        } else {
            ((gen.n as f64) * (gen.eta * u - gen.eta + 1.0).powf(gen.alpha)) as u64
        };
        let rank = rank.min(gen.n - 1);
        if gen.scrambled {
            scramble(rank) % gen.n
        } else {
            rank
        }
    }

    #[test]
    fn hoisted_rank1_bound_draws_what_the_per_draw_formula_drew() {
        for n in [1_000, 10_000] {
            for gen in [unscrambled(n, 0.85), ZipfianGenerator::scrambled(n, 0.85)] {
                let mut a = StdRng::seed_from_u64(n);
                let mut b = StdRng::seed_from_u64(n);
                for draw in 0..10_000 {
                    assert_eq!(
                        gen.next(&mut a),
                        next_recomputing_the_bound(&gen, 0.85, &mut b),
                        "draw {draw} of {gen:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = unscrambled(500, 0.8);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..100).map(|_| gen.next(&mut a)).collect();
        let ys: Vec<u64> = (0..100).map(|_| gen.next(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn empty_domain_is_rejected() {
        let _ = unscrambled(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_is_rejected() {
        let _ = unscrambled(10, 1.0);
    }
}
