//! # learned — a PGM-style piecewise-linear index over remote leaves
//!
//! The routing model of the fourth design family ([`crate::router`]):
//! a [Piecewise Geometric Model](https://pgm.di.unipi.it/) trained over
//! the leaf-level `high_key → remote pointer` table of a distributed
//! B-link tree, so a client can map a key to its candidate leaf with
//! **zero** network verbs and read it with a single one-sided READ — the
//! communication-efficiency move of Outback and DEX.
//!
//! ## Structure
//!
//! The model is the classic recursive PGM:
//!
//! * the **leaf table** — every real leaf's `(high_key, remote ptr)` in
//!   key order, with the rightmost leaf registered under `KEY_MAX`;
//! * **level 0 segments** — a greedy shrinking-cone pass fits linear
//!   segments `pos ≈ slope·(key − first_key) + intercept` over the
//!   table's `(high_key, position)` points with error bounded by ε;
//! * **upper levels** — the same fit repeated over each level's segment
//!   `first_key`s until one level has at most `fanout` segments.
//!
//! A query descends the segment levels (pure in-memory arithmetic),
//! lands within ε of the true table position, and finishes with a
//! bounded binary search. The search window self-repairs: if the true
//! position falls outside the ε-window (which cannot happen right after
//! training, but keeps correctness independent of float rounding), the
//! window widens geometrically before the final binary search — still
//! zero verbs.
//!
//! ## Staleness contract
//!
//! The consumer keeps using a model after the tree has changed. That is
//! safe by the B-link invariants the tree upholds (splits move keys
//! *right*, leaves are never merged or reused): a split leaf keeps its
//! pointer and shrinks its high key, so a stale table entry routes a
//! descent to the covering leaf **or one left of it** — never right —
//! and the reader corrects with the ordinary sibling chase. The model
//! must therefore answer the *ceiling* query (leftmost table entry with
//! `high_key ≥ key`), which [`PgmModel::predict`] implements.

use blink::{Key, KEY_MAX};
use rdma_sim::RemotePtr;

/// One linear segment of the model: for keys at/after `first_key`,
/// position ≈ `slope · (key − first_key) + intercept`, within ±ε of the
/// training points it covers.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// First training key this segment covers.
    pub first_key: Key,
    /// Positions per key unit.
    pub slope: f64,
    /// Position of `first_key`.
    pub intercept: f64,
}

impl Segment {
    /// Predicted (unclamped) position of `key` under this segment.
    fn predict(&self, key: Key) -> f64 {
        // Keys are u64-wide; the subtraction stays exact and the f64
        // rounding error is absorbed by the ε-window + widening search.
        let dx = key.saturating_sub(self.first_key) as f64;
        self.slope * dx + self.intercept
    }
}

/// Fit segments over `(key, index)` points with the greedy shrinking
/// cone: keep the interval of slopes consistent with every point of the
/// current segment within ±ε; when a point empties the interval, close
/// the segment at the midpoint slope and start a new one there.
fn fit_level(keys: &[Key], epsilon: u32) -> Vec<Segment> {
    let eps = epsilon.max(1) as f64;
    let mut out = Vec::new();
    let mut start = 0usize;
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for (i, &k) in keys.iter().enumerate().skip(1) {
        let dx = k.saturating_sub(keys[start]) as f64;
        let dy = (i - start) as f64;
        // Duplicate keys cannot appear (high keys are strictly
        // increasing); dx > 0 holds for every point after `start`.
        let (nlo, nhi) = ((dy - eps) / dx, (dy + eps) / dx);
        let (clo, chi) = (lo.max(nlo), hi.min(nhi));
        if clo <= chi {
            (lo, hi) = (clo, chi);
        } else {
            out.push(close_segment(keys[start], start, lo, hi));
            start = i;
            (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        }
    }
    out.push(close_segment(keys[start], start, lo, hi));
    out
}

fn close_segment(first_key: Key, start: usize, lo: f64, hi: f64) -> Segment {
    // A single-point segment has an unconstrained cone; any slope is
    // consistent, 0 keeps predictions at the intercept.
    let slope = if lo.is_finite() && hi.is_finite() {
        (lo + hi) * 0.5
    } else {
        0.0
    };
    Segment {
        first_key,
        slope,
        intercept: start as f64,
    }
}

/// In `arr` (sorted ascending under `key_of`, whose last entry satisfies
/// `key_of(last) >= k`), find the leftmost index with `key_of(i) >= k`.
/// Starts from the ε-window around `hint` and widens geometrically if
/// the true position lies outside, then binary-searches the window.
fn search_ceiling<T>(
    arr: &[T],
    k: Key,
    hint: usize,
    eps: usize,
    key_of: impl Fn(&T) -> Key,
) -> usize {
    let n = arr.len();
    let mut lo = hint.min(n - 1).saturating_sub(eps + 1);
    let mut hi = (hint + eps + 1).min(n - 1);
    let mut step = eps + 2;
    // The answer may be left of the window: widen while the left edge
    // itself still satisfies the predicate (so a strictly-smaller key,
    // or position 0, bounds the search).
    while lo > 0 && arr.get(lo).map(&key_of) >= Some(k) {
        lo = lo.saturating_sub(step);
        step = step.saturating_mul(2);
    }
    step = eps + 2;
    // The answer may be right of the window: widen while the right edge
    // fails the predicate (the KEY_MAX sentinel stops this at n − 1).
    while hi + 1 < n && arr.get(hi).map(&key_of) < Some(k) {
        hi = (hi + step).min(n - 1);
        step = step.saturating_mul(2);
    }
    match arr.get(lo..=hi) {
        Some(window) => lo + window.partition_point(|e| key_of(e) < k),
        None => n - 1,
    }
}

/// The trained model: recursive linear segments plus the leaf table they
/// index. Immutable once trained — retraining builds a fresh model, so a
/// consumer can swap it atomically behind an `Rc`.
#[derive(Clone, Debug)]
pub struct PgmModel {
    epsilon: u32,
    /// `levels[0]` indexes the table; `levels[k]` indexes `levels[k−1]`.
    levels: Vec<Vec<Segment>>,
    /// `(high_key, remote ptr raw)` per leaf, ascending, last = KEY_MAX.
    table: Vec<(Key, u64)>,
}

impl PgmModel {
    /// Train over the leaf-level `(high_key, ptr raw)` mapping, sorted
    /// ascending by high key with the rightmost leaf under [`KEY_MAX`].
    /// `epsilon` bounds the per-level prediction error (≥ 1); `fanout`
    /// bounds the top level's segment count (≥ 2).
    pub fn train(table: Vec<(Key, u64)>, epsilon: u32, fanout: usize) -> Self {
        assert!(!table.is_empty(), "cannot train over an empty leaf table");
        assert!(
            table.windows(2).all(|w| w[0].0 < w[1].0),
            "leaf table must be strictly ascending by high key"
        );
        assert_eq!(
            table.last().map(|e| e.0),
            Some(KEY_MAX),
            "rightmost leaf must be registered under KEY_MAX"
        );
        let fanout = fanout.max(2);
        let mut levels = Vec::new();
        let mut keys: Vec<Key> = table.iter().map(|e| e.0).collect();
        loop {
            let segs = fit_level(&keys, epsilon);
            let done = segs.len() <= fanout;
            keys = segs.iter().map(|s| s.first_key).collect();
            levels.push(segs);
            if done {
                break;
            }
        }
        PgmModel {
            epsilon,
            levels,
            table,
        }
    }

    /// Candidate leaf for `key`: the pointer of the leftmost table entry
    /// with `high_key >= key` (the covering leaf at training time; at or
    /// left of it after concurrent splits — see the staleness contract).
    pub fn predict(&self, key: Key) -> RemotePtr {
        let pos = self.predict_pos(key);
        match self.table.get(pos) {
            Some(&(_, raw)) => RemotePtr::from_raw(raw),
            None => RemotePtr::NULL, // unreachable: pos < table.len()
        }
    }

    /// Table position [`PgmModel::predict`] resolves to (exposed for
    /// tests and the checker's model audit).
    pub fn predict_pos(&self, key: Key) -> usize {
        let eps = self.epsilon as usize;
        // Top level is at most `fanout` segments: search it exactly.
        let mut hint = 0usize;
        for (depth, level) in self.levels.iter().enumerate().rev() {
            // Rightmost segment with first_key <= key; the ceiling search
            // returns the leftmost >= key, one past it unless exact.
            let at = if depth + 1 == self.levels.len() {
                level.partition_point(|s| s.first_key <= key)
            } else {
                let c = search_ceiling(level, key, hint, eps, |s| s.first_key);
                match level.get(c).map(|s| s.first_key) {
                    Some(f) if f <= key => c + 1,
                    _ => c,
                }
            };
            let seg = match level.get(at.saturating_sub(1)) {
                Some(s) => s,
                None => return 0, // unreachable: levels are non-empty
            };
            let p = seg.predict(key);
            hint = if p.is_finite() && p > 0.0 {
                p.round() as usize
            } else {
                0
            };
        }
        search_ceiling(&self.table, key, hint, eps, |e| e.0)
    }

    /// The `(high_key, ptr raw)` table the model routes into.
    pub fn table(&self) -> &[(Key, u64)] {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// A sorted table with the KEY_MAX sentinel, keys `f(i)`.
    fn table_of(n: u64, f: impl Fn(u64) -> Key) -> Vec<(Key, u64)> {
        let mut t: Vec<(Key, u64)> = (0..n - 1).map(|i| (f(i), 1000 + i)).collect();
        t.push((KEY_MAX, 1000 + n - 1));
        t
    }

    fn check_exact(model: &PgmModel) {
        // Every key in every leaf's covered range must resolve to that
        // leaf's table position.
        let table = model.table();
        let mut lo = 0u64;
        for (pos, &(high, _)) in table.iter().enumerate() {
            for k in [lo, lo + (high - lo) / 2, high] {
                assert_eq!(
                    model.predict_pos(k),
                    pos,
                    "key {k} must land on leaf {pos} (high {high})"
                );
            }
            lo = high.saturating_add(1);
        }
    }

    #[test]
    fn exact_on_linear_keys() {
        let model = PgmModel::train(table_of(500, |i| i * 64 + 63), 8, 16);
        check_exact(&model);
        let segments: usize = model.levels.iter().map(Vec::len).sum();
        assert!(segments < 20, "linear keys need few segments");
    }

    #[test]
    fn exact_on_skewed_keys() {
        // Piecewise density change: tight cluster then sparse tail.
        let f = |i: u64| {
            if i < 300 {
                i * 3 + 2
            } else {
                1000 + (i - 300) * 997
            }
        };
        let model = PgmModel::train(table_of(400, f), 4, 8);
        check_exact(&model);
    }

    #[test]
    fn exact_on_random_keys() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut keys: Vec<Key> = (0..2000)
            .map(|_| rng.random_range(0..u64::MAX / 2))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let n = keys.len();
        let mut table: Vec<(Key, u64)> = keys.into_iter().zip(0u64..).collect();
        table.push((KEY_MAX, n as u64));
        let model = PgmModel::train(table, 16, 32);
        check_exact(&model);
    }

    #[test]
    fn recursion_bounds_top_level() {
        let model = PgmModel::train(table_of(5000, |i| i * 17 + (i % 7)), 2, 4);
        assert!(!model.levels.is_empty());
        assert!(
            model.levels.last().map(Vec::len).unwrap_or(0) <= 4,
            "top level must respect fanout"
        );
        check_exact(&model);
    }

    #[test]
    fn single_leaf_table() {
        let model = PgmModel::train(vec![(KEY_MAX, 42)], 8, 16);
        assert_eq!(model.predict(0).raw(), 42);
        assert_eq!(model.predict(KEY_MAX).raw(), 42);
    }

    #[test]
    fn ceiling_semantics_route_left_of_stale_split() {
        // Leaves with highs 100, 200, MAX; a key in (100, 200] must hit
        // position 1 — and a key past a (simulated) stale high still
        // lands at-or-left thanks to ceiling semantics.
        let model = PgmModel::train(vec![(100, 1), (200, 2), (KEY_MAX, 3)], 1, 4);
        assert_eq!(model.predict(100).raw(), 1);
        assert_eq!(model.predict(101).raw(), 2);
        assert_eq!(model.predict(200).raw(), 2);
        assert_eq!(model.predict(201).raw(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_table_rejected() {
        PgmModel::train(vec![(5, 0), (3, 1), (KEY_MAX, 2)], 8, 16);
    }

    #[test]
    #[should_panic(expected = "KEY_MAX")]
    fn missing_sentinel_rejected() {
        PgmModel::train(vec![(5, 0), (9, 1)], 8, 16);
    }
}
