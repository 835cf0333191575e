//! Key-space partitioning for the coarse-grained and hybrid designs (§2.2).
//!
//! Two schemes, exactly the ones the paper analyses:
//!
//! * **Range** — server `i` owns keys up to an upper bound; range queries
//!   touch only the servers whose ranges intersect. Uneven bounds model
//!   the paper's attribute-value skew (80/12/5/3 assignment in §6.1).
//! * **Hash** — keys are hashed (FNV-1a, as in YCSB) to servers; point
//!   queries touch one server but range queries must broadcast to all —
//!   the cost Table 2 charges as `H·P·S` per range query.

use blink::Key;
use simnet::rng::fnv1a;

/// How an index's key space maps onto memory servers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionMap {
    /// Range partitioning: `bounds[i]` is the inclusive upper key bound
    /// of server `i`; the last bound must be `u64::MAX`.
    Range {
        /// Inclusive upper bounds, ascending, last = `u64::MAX`.
        bounds: Vec<Key>,
    },
    /// Hash partitioning over `servers` servers.
    Hash {
        /// Number of servers.
        servers: usize,
    },
}

impl PartitionMap {
    /// Range partitioning that splits `[0, domain)` evenly over `n`
    /// servers.
    pub fn range_uniform(n: usize, domain: Key) -> Self {
        assert!(n > 0 && domain >= n as u64);
        let per = domain / n as u64;
        let bounds = (0..n)
            .map(|i| {
                if i + 1 == n {
                    u64::MAX
                } else {
                    per * (i as u64 + 1) - 1
                }
            })
            .collect();
        PartitionMap::Range { bounds }
    }

    /// Range partitioning assigning the given fraction of `[0, domain)`
    /// to each server — the paper's skew instrument (e.g.
    /// `&[0.80, 0.12, 0.05, 0.03]`). Fractions must be non-negative and
    /// sum to ≈ 1. A server whose share ends before key 1 ends at key 0:
    /// the bounds never fall below it, so they never decrease.
    pub fn range_fractions(fractions: &[f64], domain: Key) -> Self {
        assert!(!fractions.is_empty());
        assert!(
            fractions.iter().all(|&f| f >= 0.0),
            "fractions must be non-negative, got {fractions:?}"
        );
        let total: f64 = fractions.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "fractions must sum to 1, got {total}"
        );
        let mut acc = 0.0;
        let n = fractions.len();
        let bounds = fractions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                acc += f;
                if i + 1 == n {
                    u64::MAX
                } else {
                    ((acc * domain as f64) as u64).saturating_sub(1)
                }
            })
            .collect();
        PartitionMap::Range { bounds }
    }

    /// Hash partitioning over `n` servers.
    pub fn hash(n: usize) -> Self {
        assert!(n > 0);
        PartitionMap::Hash { servers: n }
    }

    /// Number of servers the index is spread over.
    pub fn num_servers(&self) -> usize {
        match self {
            PartitionMap::Range { bounds } => bounds.len(),
            PartitionMap::Hash { servers } => *servers,
        }
    }

    /// The server owning `key`.
    pub fn server_of(&self, key: Key) -> usize {
        match self {
            PartitionMap::Range { bounds } => {
                bounds.partition_point(|&b| b < key).min(bounds.len() - 1)
            }
            PartitionMap::Hash { servers } => (fnv1a(key) % *servers as u64) as usize,
        }
    }

    /// The largest key server `s` owns under range partitioning: every
    /// key from one that [`Self::server_of`] places on `s` up to this one
    /// is `s`'s too. `None` under hash partitioning, where a server owns
    /// no run of keys.
    pub fn upper_bound(&self, s: usize) -> Option<Key> {
        match self {
            PartitionMap::Range { bounds } if s + 1 == bounds.len() => Some(u64::MAX),
            PartitionMap::Range { bounds } => Some(bounds[s]),
            PartitionMap::Hash { .. } => None,
        }
    }

    /// The servers a range query `[lo, hi]` must visit. Hash partitioning
    /// must broadcast (any server may hold qualifying keys).
    pub fn servers_for_range(&self, lo: Key, hi: Key) -> Vec<usize> {
        debug_assert!(lo <= hi);
        match self {
            PartitionMap::Range { bounds } => {
                let first = bounds.partition_point(|&b| b < lo).min(bounds.len() - 1);
                let last = bounds.partition_point(|&b| b < hi).min(bounds.len() - 1);
                (first..=last).collect()
            }
            PartitionMap::Hash { servers } => (0..*servers).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_uniform_covers_domain() {
        let p = PartitionMap::range_uniform(4, 1000);
        assert_eq!(p.num_servers(), 4);
        assert_eq!(p.server_of(0), 0);
        assert_eq!(p.server_of(249), 0);
        assert_eq!(p.server_of(250), 1);
        assert_eq!(p.server_of(999), 3);
        assert_eq!(p.server_of(u64::MAX - 1), 3, "overflow keys land on last");
    }

    #[test]
    fn range_fractions_skew() {
        let p = PartitionMap::range_fractions(&[0.80, 0.12, 0.05, 0.03], 1000);
        // 80% of uniform lookups land on server 0.
        let hits = (0..1000u64).filter(|&k| p.server_of(k) == 0).count();
        assert_eq!(hits, 800);
        assert_eq!(p.server_of(999), 3);
    }

    /// A leading share of less than one key used to make its bound
    /// `0 - 1`: a panic in debug builds and, wrapped to `u64::MAX` in
    /// release, a server 0 that owned every key.
    #[test]
    fn a_share_under_one_key_does_not_wrap() {
        let p = PartitionMap::range_fractions(&[0.001, 0.999], 100);
        assert_eq!(
            p,
            PartitionMap::Range {
                bounds: vec![0, u64::MAX]
            }
        );
        assert_eq!(p.server_of(0), 0);
        assert_eq!(p.server_of(1), 1);
        assert_eq!(p.server_of(99), 1);
        let p = PartitionMap::range_fractions(&[0.0, 0.004, 0.5, 0.496], 100);
        let PartitionMap::Range { bounds } = &p else {
            panic!("a range map")
        };
        assert_eq!(bounds, &[0, 0, 49, u64::MAX]);
        assert!(bounds.is_sorted());
        assert_eq!(
            (0..100).map(|k| p.server_of(k)).max(),
            Some(3),
            "the last server owns the tail"
        );
    }

    /// Each key is `server_of`'s from that key up to the server's upper
    /// bound; a hash map has no runs.
    #[test]
    fn upper_bound_ends_each_run() {
        for p in [
            PartitionMap::range_uniform(4, 1000),
            PartitionMap::range_fractions(&[0.80, 0.12, 0.05, 0.03], 1000),
            PartitionMap::range_fractions(&[0.0, 0.004, 0.5, 0.496], 100),
            PartitionMap::Range {
                bounds: vec![10, 20],
            },
        ] {
            for k in 0..1100u64 {
                let s = p.server_of(k);
                let high = p.upper_bound(s).expect("a range map");
                assert!(k <= high, "{p:?}: key {k} past its server's bound");
                assert_eq!(p.server_of(high), s, "{p:?}: bound of {s}");
                if high < u64::MAX {
                    assert_ne!(p.server_of(high + 1), s, "{p:?}: {s}'s run goes on");
                }
            }
        }
        assert_eq!(PartitionMap::hash(4).upper_bound(0), None);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn fractions_must_sum_to_one() {
        let _ = PartitionMap::range_fractions(&[0.5, 0.2], 100);
    }

    #[test]
    fn hash_spreads_and_is_deterministic() {
        let p = PartitionMap::hash(4);
        let mut counts = [0usize; 4];
        for k in 0..10_000u64 {
            let s = p.server_of(k);
            assert_eq!(s, p.server_of(k));
            counts[s] += 1;
        }
        for &c in &counts {
            assert!((2000..3000).contains(&c), "hash imbalance: {counts:?}");
        }
    }

    #[test]
    fn range_query_server_sets() {
        let p = PartitionMap::range_uniform(4, 1000);
        assert_eq!(p.servers_for_range(10, 20), vec![0]);
        assert_eq!(p.servers_for_range(240, 260), vec![0, 1]);
        assert_eq!(p.servers_for_range(0, 999), vec![0, 1, 2, 3]);
        let h = PartitionMap::hash(4);
        assert_eq!(
            h.servers_for_range(10, 20),
            vec![0, 1, 2, 3],
            "hash broadcasts"
        );
    }
}
