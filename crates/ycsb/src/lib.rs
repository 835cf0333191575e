#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ycsb — the paper's modified Yahoo! Cloud Serving Benchmark
//!
//! §6 of the paper modifies YCSB for tree-index evaluation (Table 3):
//!
//! | Workload | Point queries | Range queries (sel = s) | Inserts |
//! |----------|---------------|--------------------------|---------|
//! | A        | 100%          |                          |         |
//! | B        |               | 100%                     |         |
//! | C        | 95%           |                          | 5%      |
//! | D        | 50%           |                          | 50%     |
//!
//! Beyond the original YCSB, the paper adds configurable range
//! selectivities (0.001 / 0.01 / 0.1) and *attribute-value skew*: data
//! sets with monotonically increasing integer keys, assigned to servers
//! by uneven key ranges (80/12/5/3 in the evaluation) so that uniformly
//! distributed requests concentrate on one server under coarse-grained
//! partitioning. Request-side skew (Zipfian, YCSB's theta = 0.99) is
//! also supported.
//!
//! [`Dataset`] describes the loaded records; [`Workload`] the operation
//! mix; [`OpGen`] produces a deterministic per-client operation stream.

use simnet::rng::{DetRng, Zipf};

/// Index key type (matches `blink::Key`).
pub type Key = u64;
/// Index value type (matches `blink::Value`).
pub type Value = u64;

/// The loaded data: `num_keys` records with keys `0, gap, 2·gap, …` and
/// value `i` for the `i`-th record (the paper's monotonically increasing
/// integer keys/values). The gap leaves room for scattered inserts of
/// fresh keys between existing ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dataset {
    /// Number of loaded records.
    pub num_keys: u64,
    /// Key stride between consecutive records.
    pub gap: u64,
}

impl Dataset {
    /// Standard dataset: stride-8 keys.
    pub fn new(num_keys: u64) -> Self {
        assert!(num_keys > 0);
        Dataset { num_keys, gap: 8 }
    }

    /// The `i`-th loaded key.
    pub fn key(&self, i: u64) -> Key {
        debug_assert!(i < self.num_keys);
        i * self.gap
    }

    /// Exclusive upper bound of the loaded key space (partitioning
    /// domain).
    pub fn domain(&self) -> Key {
        self.num_keys * self.gap
    }

    /// Iterate the loaded `(key, value)` records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        (0..self.num_keys).map(|i| (self.key(i), i))
    }
}

/// How request keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RequestDist {
    /// Uniform over the loaded records (the paper's default: "spreads
    /// lookups uniformly at random over the complete key space").
    Uniform,
    /// YCSB scrambled-Zipfian with the given theta.
    Zipfian(f64),
}

/// An operation mix (one row of Table 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Fraction of point queries.
    pub point_frac: f64,
    /// Fraction of range queries.
    pub range_frac: f64,
    /// Fraction of inserts.
    pub insert_frac: f64,
    /// Range selectivity `s`: a range query covers `s · num_keys` records.
    pub selectivity: f64,
    /// Request key distribution.
    pub dist: RequestDist,
}

impl Workload {
    /// Workload A: 100% point queries.
    pub fn a() -> Self {
        Workload {
            point_frac: 1.0,
            range_frac: 0.0,
            insert_frac: 0.0,
            selectivity: 0.0,
            dist: RequestDist::Uniform,
        }
    }

    /// Workload B: 100% range queries with selectivity `sel`.
    pub fn b(sel: f64) -> Self {
        assert!(sel > 0.0 && sel < 1.0);
        Workload {
            point_frac: 0.0,
            range_frac: 1.0,
            insert_frac: 0.0,
            selectivity: sel,
            dist: RequestDist::Uniform,
        }
    }

    /// Workload C: 95% point queries, 5% inserts.
    pub fn c() -> Self {
        Workload {
            point_frac: 0.95,
            range_frac: 0.0,
            insert_frac: 0.05,
            selectivity: 0.0,
            dist: RequestDist::Uniform,
        }
    }

    /// Workload D: 50% point queries, 50% inserts.
    pub fn d() -> Self {
        Workload {
            point_frac: 0.5,
            range_frac: 0.0,
            insert_frac: 0.5,
            selectivity: 0.0,
            dist: RequestDist::Uniform,
        }
    }

    /// Replace the request distribution.
    pub fn with_dist(mut self, dist: RequestDist) -> Self {
        self.dist = dist;
        self
    }

    /// Check the mix sums to 1.
    pub fn validate(&self) {
        let sum = self.point_frac + self.range_frac + self.insert_frac;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}, not 1");
        if self.range_frac > 0.0 {
            assert!(self.selectivity > 0.0, "range workload needs a selectivity");
        }
    }
}

/// One benchmark operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point query for a key.
    Point(Key),
    /// Range query over `[lo, hi]` (inclusive).
    Range(Key, Key),
    /// Insert of a fresh `(key, value)`.
    Insert(Key, Value),
}

/// Deterministic per-client operation stream.
///
/// Each of the `num_clients` closed-loop clients gets its own seeded
/// stream. Inserted keys are fresh odd keys scattered uniformly between
/// the loaded ones (YCSB's default hashed-key insert order).
pub struct OpGen {
    workload: Workload,
    data: Dataset,
    rng: DetRng,
    zipf: Option<Zipf>,
    /// Range-query span in records.
    range_records: u64,
    client: u64,
    /// Counter making inserted values unique per client.
    inserted: u64,
}

impl OpGen {
    /// Create the stream for `client` of `num_clients`, seeded
    /// deterministically from `seed`.
    pub fn new(
        workload: Workload,
        data: Dataset,
        client: u64,
        num_clients: u64,
        seed: u64,
    ) -> Self {
        let zipf = match workload.dist {
            RequestDist::Uniform => None,
            RequestDist::Zipfian(theta) => Some(Zipf::new(data.num_keys, theta)),
        };
        Self::with_shared_zipf(workload, data, client, num_clients, seed, zipf)
    }

    /// As [`OpGen::new`] but with a pre-built Zipf table, so many clients
    /// can share one O(n) zeta computation. Pass `None` for uniform.
    pub fn with_shared_zipf(
        workload: Workload,
        data: Dataset,
        client: u64,
        num_clients: u64,
        seed: u64,
        zipf: Option<Zipf>,
    ) -> Self {
        workload.validate();
        assert!(client < num_clients);
        if matches!(workload.dist, RequestDist::Zipfian(_)) {
            assert!(zipf.is_some(), "zipfian workload needs a Zipf table");
        }
        let range_records = ((workload.selectivity * data.num_keys as f64) as u64).max(1);
        OpGen {
            workload,
            data,
            rng: DetRng::seed_from_u64(seed ^ client.wrapping_mul(0x9e3779b97f4a7c15)),
            zipf,
            range_records,
            client,
            inserted: 0,
        }
    }

    /// Draw a record index per the request distribution.
    fn record_index(&mut self) -> u64 {
        let OpGen {
            zipf, rng, data, ..
        } = self;
        match zipf {
            Some(z) => z.sample_scrambled(rng),
            None => rng.next_u64_below(data.num_keys),
        }
    }

    /// Produce the next operation.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.next_f64();
        if roll < self.workload.point_frac {
            let idx = self.record_index();
            Op::Point(self.data.key(idx))
        } else if roll < self.workload.point_frac + self.workload.range_frac {
            // Clamp the start so the full span fits in the key space.
            let max_start = self.data.num_keys.saturating_sub(self.range_records).max(1);
            let start = self.record_index().min(max_start - 1);
            let lo = self.data.key(start);
            let hi = self
                .data
                .key((start + self.range_records - 1).min(self.data.num_keys - 1));
            Op::Range(lo, hi)
        } else {
            // A fresh key strictly between existing stride-gap keys (odd
            // keys never collide with the loaded even strides).
            let key = self.rng.next_u64_below(self.data.domain()) | 1;
            self.inserted += 1;
            let value = self.client * (1 << 32) + self.inserted;
            Op::Insert(key, value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_keys() {
        let d = Dataset::new(100);
        assert_eq!(d.key(0), 0);
        assert_eq!(d.key(99), 99 * 8);
        assert_eq!(d.domain(), 800);
        let all: Vec<_> = d.iter().collect();
        assert_eq!(all.len(), 100);
        assert_eq!(all[5], (40, 5));
    }

    #[test]
    fn table3_mixes() {
        for (w, p, r, i) in [
            (Workload::a(), 1.0, 0.0, 0.0),
            (Workload::b(0.01), 0.0, 1.0, 0.0),
            (Workload::c(), 0.95, 0.0, 0.05),
            (Workload::d(), 0.5, 0.0, 0.5),
        ] {
            w.validate();
            assert_eq!((w.point_frac, w.range_frac, w.insert_frac), (p, r, i));
        }
    }

    #[test]
    fn workload_a_is_all_points_over_loaded_keys() {
        let d = Dataset::new(1000);
        let mut g = OpGen::new(Workload::a(), d, 0, 1, 42);
        for _ in 0..1000 {
            match g.next_op() {
                Op::Point(k) => {
                    assert_eq!(k % 8, 0);
                    assert!(k < d.domain());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn workload_b_ranges_match_selectivity() {
        let d = Dataset::new(10_000);
        let mut g = OpGen::new(Workload::b(0.01), d, 0, 1, 1);
        for _ in 0..200 {
            match g.next_op() {
                Op::Range(lo, hi) => {
                    assert!(lo <= hi);
                    let records = (hi - lo) / d.gap + 1;
                    assert_eq!(records, 100, "sel=0.01 of 10k = 100 records");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn workload_mix_fractions_hold() {
        let d = Dataset::new(1000);
        let mut g = OpGen::new(Workload::c(), d, 0, 1, 7);
        let (mut points, mut inserts) = (0u32, 0u32);
        for _ in 0..10_000 {
            match g.next_op() {
                Op::Point(_) => points += 1,
                Op::Insert(..) => inserts += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let frac = inserts as f64 / (points + inserts) as f64;
        assert!((frac - 0.05).abs() < 0.01, "insert fraction {frac}");
    }

    #[test]
    fn scattered_inserts_never_collide_with_loaded() {
        let d = Dataset::new(1000);
        let mut g = OpGen::new(Workload::d(), d, 0, 1, 3);
        for _ in 0..5000 {
            if let Op::Insert(k, _) = g.next_op() {
                assert_ne!(k % 8, 0, "insert key collides with loaded keys");
                assert!(k < d.domain() + 8);
            }
        }
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let d = Dataset::new(1000);
        let ops = |client, seed| {
            let mut g = OpGen::new(Workload::a(), d, client, 4, seed);
            (0..50).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(0, 42), ops(0, 42));
        assert_ne!(ops(0, 42), ops(1, 42));
        assert_ne!(ops(0, 42), ops(0, 43));
    }

    #[test]
    fn zipfian_requests_concentrate() {
        let d = Dataset::new(10_000);
        let w = Workload::a().with_dist(RequestDist::Zipfian(0.99));
        let mut g = OpGen::new(w, d, 0, 1, 5);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            if let Op::Point(k) = g.next_op() {
                *counts.entry(k).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(
            max as f64 / 20_000.0 > 0.03,
            "zipfian hot key must dominate (max={max})"
        );
    }

    #[test]
    #[should_panic(expected = "fractions sum")]
    fn invalid_mix_rejected() {
        Workload {
            point_frac: 0.5,
            range_frac: 0.0,
            insert_frac: 0.0,
            selectivity: 0.0,
            dist: RequestDist::Uniform,
        }
        .validate();
    }
}
