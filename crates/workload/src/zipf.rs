//! Zipfian sampling (YCSB style).
//!
//! The evaluation selects SmallBank accounts with a Zipfian distribution and
//! controls contention through the skew parameter `θ` (the paper uses
//! `θ = 0.85` for its high-contention workloads and sweeps `0.75..=0.9` in
//! Figure 12). This is the standard Gray et al. / YCSB generator with the
//! FNV-style scrambling that spreads the hottest items over the key space,
//! and a per-shard form that draws a shard's client stream from its rows.

use rand::Rng;
use tb_types::ShardId;

/// A scrambled Zipfian distribution over `0..n`.
#[derive(Clone, Debug)]
pub struct ZipfianGenerator {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: below `uz` of this the sample is rank 1 (YCSB's
    /// `zeta2theta`, `1 + 1/2^θ`, computed once instead of per draw).
    rank1_bound: f64,
}

impl ZipfianGenerator {
    /// Creates a generator over `0..n` with skew `theta` (`0 <= theta < 1`;
    /// higher `theta` means more skew, `theta = 0` is uniform). Ranks are
    /// hashed, so the most popular items are spread over the whole domain.
    pub fn new(n: u64, theta: f64) -> Self {
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
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Samples the next value in `0..n`.
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        scramble(self.rank(rng)) % self.n
    }

    /// Samples a popularity rank in `0..n`, rank 0 the most popular.
    fn rank<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < self.rank1_bound {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.n - 1)
    }
}

/// Zipfian draws confined to one shard's rows. Row `r` of a pool lies on
/// shard `r % shards`, as `Key::shard` places it; each shard draws its own
/// rows through a [`ZipfianGenerator`] over their count, all with one skew.
#[derive(Clone, Debug)]
pub(crate) struct ShardedZipf {
    /// One generator per shard (the index), over the shard's row count.
    shards: Vec<ZipfianGenerator>,
}

impl ShardedZipf {
    /// Draws over the rows `0..rows` of `shards` shards with skew `theta`.
    /// Every shard must own a row.
    pub(crate) fn new(rows: u64, shards: u32, theta: f64) -> Self {
        let count = u64::from(shards);
        assert!(
            count > 0 && rows >= count,
            "every shard needs a row: {rows} rows over {shards} shards"
        );
        ShardedZipf {
            shards: (0..count)
                .map(|s| ZipfianGenerator::new((rows - s).div_ceil(count), theta))
                .collect(),
        }
    }

    /// A row of `shard`.
    pub(crate) fn next<R: Rng + ?Sized>(&self, shard: ShardId, rng: &mut R) -> u64 {
        let s = shard.as_inner();
        self.shards[s as usize].next(rng) * self.shards.len() as u64 + u64::from(s)
    }

    /// A row of `row`'s shard other than `row` (a draw that hits `row` takes
    /// the shard's next row), or `row` itself when it is its shard's only
    /// row.
    pub(crate) fn partner<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> u64 {
        let count = self.shards.len() as u64;
        let generator = &self.shards[(row % count) as usize];
        let mut index = generator.next(rng);
        if index == row / count {
            index = (index + 1) % generator.n;
        }
        index * count + row % count
    }

    /// A row of a shard other than `shard`, chosen uniformly among the
    /// others. There must be two shards at least.
    pub(crate) fn elsewhere<R: Rng + ?Sized>(&self, shard: ShardId, rng: &mut R) -> u64 {
        let count = self.shards.len() as u32;
        let other = (shard.as_inner() + rng.gen_range(1..count)) % count;
        self.next(ShardId::new(other), rng)
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

    /// How often each rank of `gen` comes up in `samples` draws: the
    /// distribution before scrambling, so rank `i` is value `i`.
    fn rank_histogram(gen: &ZipfianGenerator, samples: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; gen.n as usize];
        for _ in 0..samples {
            counts[gen.rank(&mut rng) as usize] += 1;
        }
        counts
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
        let gen = ZipfianGenerator::new(100, 0.85);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(gen.rank(&mut rng) < 100);
            assert!(gen.next(&mut rng) < 100);
        }
        assert_eq!(gen.n, 100);
    }

    #[test]
    fn higher_theta_concentrates_mass_on_the_hottest_item() {
        let low = ZipfianGenerator::new(1_000, 0.5);
        let high = ZipfianGenerator::new(1_000, 0.9);
        let low_hist = rank_histogram(&low, 50_000, 7);
        let high_hist = rank_histogram(&high, 50_000, 7);
        let low_top = *low_hist.iter().max().unwrap();
        let high_top = *high_hist.iter().max().unwrap();
        assert!(
            high_top > low_top,
            "theta=0.9 should be more skewed than theta=0.5 ({high_top} <= {low_top})"
        );
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let gen = ZipfianGenerator::new(10, 0.0);
        let hist = rank_histogram(&gen, 100_000, 3);
        let max = *hist.iter().max().unwrap() as f64;
        let min = *hist.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "uniform histogram too skewed: {hist:?}");
    }

    #[test]
    fn zipfian_ranks_prefer_low_ranks() {
        let gen = ZipfianGenerator::new(1_000, 0.85);
        let hist = rank_histogram(&gen, 50_000, 11);
        let first_ten: u64 = hist[..10].iter().sum();
        let total: u64 = hist.iter().sum();
        assert!(
            first_ten as f64 > total as f64 * 0.2,
            "the 1% hottest keys should draw >20% of accesses"
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_the_hot_keys() {
        let gen = ZipfianGenerator::new(1_000, 0.85);
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

    /// `rank` as it was before the rank-1 bound was hoisted out of it, for a
    /// generator of skew `theta`.
    fn rank_recomputing_the_bound(gen: &ZipfianGenerator, theta: f64, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * gen.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(theta) {
            1
        } else {
            ((gen.n as f64) * (gen.eta * u - gen.eta + 1.0).powf(gen.alpha)) as u64
        };
        rank.min(gen.n - 1)
    }

    #[test]
    fn hoisted_rank1_bound_draws_what_the_per_draw_formula_drew() {
        for n in [1_000, 10_000] {
            let gen = ZipfianGenerator::new(n, 0.85);
            let mut a = StdRng::seed_from_u64(n);
            let mut b = StdRng::seed_from_u64(n);
            for draw in 0..10_000 {
                assert_eq!(
                    gen.rank(&mut a),
                    rank_recomputing_the_bound(&gen, 0.85, &mut b),
                    "rank draw {draw} of {gen:?}"
                );
            }
            let mut a = StdRng::seed_from_u64(n);
            let mut b = StdRng::seed_from_u64(n);
            for draw in 0..10_000 {
                assert_eq!(
                    gen.next(&mut a),
                    scramble(rank_recomputing_the_bound(&gen, 0.85, &mut b)) % n,
                    "draw {draw} of {gen:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = ZipfianGenerator::new(500, 0.8);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..100).map(|_| gen.next(&mut a)).collect();
        let ys: Vec<u64> = (0..100).map(|_| gen.next(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn empty_domain_is_rejected() {
        let _ = ZipfianGenerator::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_is_rejected() {
        let _ = ZipfianGenerator::new(10, 1.0);
    }

    #[test]
    fn sharded_draws_stay_on_their_shard_and_partners_differ() {
        // 13 rows over 4 shards: shard 0 owns four rows, the others three.
        let zipf = ShardedZipf::new(13, 4, 0.85);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            for s in 0..4 {
                let shard = ShardId::new(s);
                let row = zipf.next(shard, &mut rng);
                assert!(row < 13 && row % 4 == u64::from(s), "row {row} of {shard}");
                let partner = zipf.partner(row, &mut rng);
                assert!(partner < 13 && partner % 4 == u64::from(s));
                assert_ne!(partner, row);
                let other = zipf.elsewhere(shard, &mut rng);
                assert!(other < 13 && other % 4 != u64::from(s));
            }
        }
        // A shard's only row is its own partner.
        let single = ShardedZipf::new(4, 4, 0.85);
        assert_eq!(single.partner(2, &mut rng), 2);
    }

    #[test]
    fn each_shard_draws_its_rows_under_the_same_skew() {
        let zipf = ShardedZipf::new(4_000, 4, 0.85);
        let mut rng = StdRng::seed_from_u64(9);
        for s in 0..4 {
            let mut hits = std::collections::HashMap::new();
            for _ in 0..20_000 {
                *hits
                    .entry(zipf.next(ShardId::new(s), &mut rng))
                    .or_insert(0u64) += 1;
            }
            let top = *hits.values().max().unwrap() as f64;
            // The shard's 1 000 rows are skewed as a 1 000-row pool is.
            assert!(top > 20_000.0 / 1_000.0 * 5.0, "shard {s}: top row {top}");
        }
    }

    #[test]
    #[should_panic(expected = "every shard needs a row")]
    fn a_shard_without_rows_is_rejected() {
        let _ = ShardedZipf::new(3, 4, 0.5);
    }
}
