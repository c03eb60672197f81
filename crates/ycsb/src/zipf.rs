//! Zipfian request generation — the standard YCSB algorithm (Gray et al.,
//! "Quickly Generating Billion-Record Synthetic Databases", SIGMOD '94),
//! with YCSB's default skew θ = 0.99 and the hash-scrambled variant that
//! spreads the hot items across the key space (and therefore across
//! consistent-hashing partitions) the way production traffic does.

use rand::Rng;

/// YCSB's default Zipfian constant.
pub const DEFAULT_THETA: f64 = 0.99;

/// Draw strategy: the Gray closed form only holds for θ < 1; steeper skews
/// fall back to inverting an explicit CDF table.
#[derive(Debug, Clone)]
enum DrawKind {
    /// Gray et al. O(1) rejection-free closed form (θ < 1).
    Gray { alpha: f64, eta: f64 },
    /// Exact inverse-CDF sampling via binary search (θ ≥ 1, where
    /// `1/(1-θ)` blows up). O(log n) per draw, O(n) table.
    Cdf { cdf: Vec<f64> },
}

/// Draws item ranks `0..n` with Zipfian popularity (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    n: u64,
    theta: f64,
    zetan: f64,
    kind: DrawKind,
}

impl ZipfianGenerator {
    /// Builds a generator over `n` items with skew `theta`. O(n) setup
    /// (computing ζ(n, θ)), O(1) per draw for θ < 1 and O(log n) for the
    /// CDF-table path that covers θ ≥ 1.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be ≥ 0");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let kind = if theta < 1.0 {
            let alpha = 1.0 / (1.0 - theta);
            let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
            DrawKind::Gray { alpha, eta }
        } else {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut acc = 0.0;
            for i in 1..=n {
                acc += 1.0 / (i as f64).powf(theta) / zetan;
                cdf.push(acc);
            }
            // Guard against float round-off leaving the tail below 1.0.
            if let Some(last) = cdf.last_mut() {
                *last = 1.0;
            }
            DrawKind::Cdf { cdf }
        };
        ZipfianGenerator {
            n,
            theta,
            zetan,
            kind,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the next rank in `0..n` (0 = most popular).
    pub fn next_rank(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        match &self.kind {
            DrawKind::Gray { alpha, eta } => {
                let uz = u * self.zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(self.theta) {
                    return 1;
                }
                let rank = (self.n as f64 * (eta * u - eta + 1.0).powf(*alpha)) as u64;
                rank.min(self.n - 1)
            }
            DrawKind::Cdf { cdf } => {
                let rank = cdf.partition_point(|&p| p < u) as u64;
                rank.min(self.n - 1)
            }
        }
    }

    /// Draws a *scrambled* item id: Zipfian popularity, but popular items are
    /// hashed across the id space (YCSB's `ScrambledZipfianGenerator`).
    pub fn next_scrambled(&self, rng: &mut impl Rng) -> u64 {
        let rank = self.next_rank(rng);
        Self::fnv_scramble(rank) % self.n
    }

    /// The stable scramble used by [`next_scrambled`](Self::next_scrambled)
    /// (exposed so tests can locate the hot items).
    pub fn fnv_scramble(rank: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in rank.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_stay_in_range() {
        let g = ZipfianGenerator::new(1000, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100_000 {
            assert!(g.next_rank(&mut rng) < 1000);
            assert!(g.next_scrambled(&mut rng) < 1000);
        }
    }

    #[test]
    fn single_item_always_zero() {
        let g = ZipfianGenerator::new(1, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(g.next_rank(&mut rng), 0);
        }
    }

    #[test]
    fn distribution_is_skewed_like_zipf() {
        let n = 10_000u64;
        let g = ZipfianGenerator::new(n, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(3);
        let draws = 200_000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[g.next_rank(&mut rng) as usize] += 1;
        }
        // Rank 0 should hold roughly 1/zetan of the mass (~10% at θ=0.99,
        // n=10k) and vastly exceed the uniform share.
        let p0 = counts[0] as f64 / draws as f64;
        assert!(p0 > 0.05, "p0={p0}");
        // Top 1% of ranks should absorb the majority of requests.
        let top: u64 = counts[..(n as usize / 100)].iter().sum();
        let frac = top as f64 / draws as f64;
        assert!(frac > 0.50, "top-1% fraction {frac}");
        // Monotone-ish decay between well-separated ranks.
        assert!(counts[0] > counts[100]);
        assert!(counts[100] > counts[5_000]);
    }

    #[test]
    fn scrambling_preserves_skew_but_moves_hot_ids() {
        let n = 10_000u64;
        let g = ZipfianGenerator::new(n, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..200_000 {
            counts[g.next_scrambled(&mut rng) as usize] += 1;
        }
        let hottest_id = ZipfianGenerator::fnv_scramble(0) % n;
        let max_id = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i as u64)
            .unwrap();
        assert_eq!(
            max_id, hottest_id,
            "hottest id must be the scrambled rank 0"
        );
        assert_ne!(hottest_id, 0, "scramble must move the hot item");
    }

    #[test]
    fn deterministic_for_identical_seeds() {
        let g = ZipfianGenerator::new(5_000, DEFAULT_THETA);
        let seq = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..1000)
                .map(|_| g.next_scrambled(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    /// Golden first-16 scrambled draws per θ, pinned so the skew bench's
    /// input distributions cannot drift silently across refactors (the
    /// BENCH_skew sweep spans exactly these θ values).
    #[test]
    fn golden_sequences_across_theta() {
        let golden: &[(f64, [u64; 16])] = &[
            (0.5, GOLDEN_05),
            (0.9, GOLDEN_09),
            (0.99, GOLDEN_099),
            (1.2, GOLDEN_12),
        ];
        for (theta, want) in golden {
            let g = ZipfianGenerator::new(1_000, *theta);
            let mut rng = SmallRng::seed_from_u64(0xD1CE);
            let got: Vec<u64> = (0..16).map(|_| g.next_scrambled(&mut rng)).collect();
            assert_eq!(&got[..], &want[..], "θ={theta} drifted");
        }
    }

    const GOLDEN_05: [u64; 16] = [
        325, 868, 620, 234, 316, 548, 881, 740, 929, 829, 234, 267, 702, 259, 453, 734,
    ];
    const GOLDEN_09: [u64; 16] = [
        567, 375, 530, 178, 589, 242, 903, 193, 221, 160, 178, 57, 505, 930, 226, 581,
    ];
    const GOLDEN_099: [u64; 16] = [
        242, 527, 127, 497, 506, 178, 505, 805, 682, 590, 497, 583, 244, 980, 664, 229,
    ];
    const GOLDEN_12: [u64; 16] = [
        497, 367, 505, 123, 497, 123, 664, 318, 581, 81, 123, 567, 882, 178, 497, 201,
    ];

    #[test]
    fn steep_theta_is_steeper() {
        let n = 10_000u64;
        let draws = 200_000;
        let mass_top10 = |theta: f64| {
            let g = ZipfianGenerator::new(n, theta);
            let mut rng = SmallRng::seed_from_u64(6);
            let mut top = 0u64;
            for _ in 0..draws {
                if g.next_rank(&mut rng) < 10 {
                    top += 1;
                }
            }
            top as f64 / draws as f64
        };
        let at_099 = mass_top10(0.99);
        let at_12 = mass_top10(1.2);
        assert!(at_12 > at_099, "θ=1.2 ({at_12}) ≤ θ=0.99 ({at_099})");
        assert!(at_12 > 0.5, "θ=1.2 should put most mass in the top 10");
    }

    #[test]
    fn cdf_path_ranks_stay_in_range() {
        for theta in [1.0, 1.2, 2.5] {
            let g = ZipfianGenerator::new(1_000, theta);
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..50_000 {
                assert!(g.next_rank(&mut rng) < 1_000);
                assert!(g.next_scrambled(&mut rng) < 1_000);
            }
        }
    }

    #[test]
    fn theta_zero_is_near_uniform() {
        let n = 1_000u64;
        let g = ZipfianGenerator::new(n, 0.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = vec![0u64; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            counts[g.next_rank(&mut rng) as usize] += 1;
        }
        let expect = draws as f64 / n as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max < expect * 1.5, "max={max} expect={expect}");
    }
}
