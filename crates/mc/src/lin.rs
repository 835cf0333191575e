//! Wing & Gong linearizability checking against a sequential
//! `BTreeMap`-style multi-map spec, with Lowe's partitioning
//! optimization.
//!
//! ## Spec shape
//!
//! The workload ([`crate::scenario`]) is constructed so that every
//! insert of a key uses the *same canonical value* (`value_of(key)`)
//! and no two in-flight inserts of one `(key, value)` pair exist
//! (retry-absorption is value-based, so colliding pairs would make
//! exactly-once undecidable). Under that discipline the sequential
//! state of a key collapses to a **live-entry counter**:
//!
//! * `insert`           → `n + 1`
//! * `delete -> true`   → legal iff `n > 0`, then `n - 1`
//! * `delete -> false`  → legal iff `n == 0`
//! * `lookup -> Some(v)`→ legal iff `n > 0` (and `v` must be canonical)
//! * `lookup -> None`   → legal iff `n == 0`
//! * scan rows of a key → exactly `n` copies of the canonical value
//!
//! Preloaded keys are immutable (the workload never inserts or deletes
//! them): a scan must report each in-window loaded key exactly once
//! with its loaded value, checked eagerly; loaded keys then drop out of
//! the search entirely.
//!
//! ## Failed and pending operations
//!
//! A mutating op that returned an error — or never returned (client
//! killed) — may or may not have taken effect; the checker branches
//! over both behaviors, which is exactly the Wing & Gong treatment of
//! pending invocations (an unapplied failed op linearizes as a no-op,
//! which is equivalent to removing it). Failed *reads* observe nothing
//! and are dropped during preprocessing.
//!
//! Under fault injection the `delete -> bool` flag is additionally
//! *relaxed* (see [`Spec::strict_delete_flag`]): a delete whose first
//! attempt applied but whose response was lost retries and honestly
//! reports `false` — the retry found nothing — so under message loss
//! the flag is best-effort and only the *effect* (`n → n - 1` at most
//! once) is checked. Without faults no op-level retry exists and the
//! flag is held exact.
//!
//! Fault runs also relax *inserts*, because retry absorption is a
//! `(key, value)` probe: if the first attempt applied (response lost)
//! and a concurrent delete then removed the entry, the retry's probe
//! finds nothing and legitimately re-installs it — the documented
//! at-least-once caveat shared by all three designs. The checker models
//! this with per-delete `Resurrect` pseudo-ops that may re-apply an
//! insert *only when the key is empty*; two coexisting copies (the
//! duplicate-insert mutation's signature) remain a violation.
//!
//! ## Search
//!
//! Per Lowe, point ops partition by key: each key's subhistory is
//! checked independently over its counter (Wing & Gong DFS, memoized on
//! `(applied-op mask, counter)`). Scans are handled two ways:
//!
//! * a scan that is *sequentially after* every other response (the
//!   harness's quiescent verification scan) is decomposed into per-key
//!   `Observe(count)` ops, keeping the fast partitioned path;
//! * a scan concurrent with point ops forces whole-history mode: one
//!   DFS over all ops with the full `key -> counter` map as state,
//!   memoized on `(mask, exact state)`. Scan workloads are kept tiny
//!   for exactly this reason.

use crate::history::{Event, OpArgs, OpOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// The sequential spec the history is validated against.
pub struct Spec {
    /// Immutable preloaded entries: key → value. The workload must
    /// never insert or delete these keys.
    pub loaded: BTreeMap<u64, u64>,
    /// Canonical value for workload keys: every insert of `key` carries
    /// `value_of(key)`.
    pub value_of: fn(u64) -> u64,
    /// Hold `delete -> bool` exact (no-fault runs) or best-effort
    /// (fault runs, where op-level retries can launder the flag).
    pub strict_delete_flag: bool,
}

/// A linearizability violation, with enough detail to read the failure.
#[derive(Clone, Debug)]
pub struct LinViolation {
    /// Offending key for partitioned findings; `None` for whole-history
    /// or preprocessing findings.
    pub key: Option<u64>,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for LinViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.key {
            Some(k) => write!(f, "linearizability violation on key {k}: {}", self.detail),
            None => write!(f, "linearizability violation: {}", self.detail),
        }
    }
}

/// How the history was checked (for coverage reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckStats {
    /// Number of per-key subhistories searched.
    pub point_keys: usize,
    /// Whether whole-history mode was required (concurrent scans).
    pub whole_history: bool,
    /// Total ops checked (after dropping failed reads).
    pub ops: usize,
}

// ---------------------------------------------------------------------------
// Internal op forms.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum PKind {
    Insert {
        ok: bool,
    },
    /// `res == None`: failed/pending (effect indeterminate).
    Delete {
        res: Option<bool>,
        strict: bool,
    },
    Lookup {
        found: bool,
    },
    /// Count observation decomposed from a quiescent scan.
    Observe {
        count: u32,
    },
    /// Optional conditional re-application of a retried insert (fault
    /// runs only): insert retries absorb by probing for the `(key,
    /// value)` pair, so if a concurrent delete removed the first
    /// attempt's entry before the retry probed, the retry legitimately
    /// re-installs it. Linearizes as either a no-op or, *iff the key is
    /// currently empty*, as a fresh insert. The emptiness condition is
    /// what keeps the duplicate-insert mutation detectable: a mutated
    /// retry re-applies unconditionally, producing two coexisting
    /// copies, which no Resurrect sequence can reach.
    Resurrect,
}

#[derive(Clone, Copy, Debug)]
struct POp {
    invoke: u64,
    response: u64,
    kind: PKind,
}

/// Counter values reachable by linearizing `kind` at counter `n`.
fn behaviors(kind: PKind, n: u32, out: &mut Vec<u32>) {
    out.clear();
    match kind {
        PKind::Insert { ok: true } => out.push(n + 1),
        PKind::Insert { ok: false } => {
            out.push(n); // never applied
            out.push(n + 1); // applied before the failure
        }
        PKind::Delete {
            res: Some(true),
            strict: _,
        } => {
            if n > 0 {
                out.push(n - 1);
            }
        }
        PKind::Delete {
            res: Some(false),
            strict,
        } => {
            if strict {
                if n == 0 {
                    out.push(0);
                }
            } else {
                // Relaxed: the flag may be laundered by a retry; only
                // the at-most-once effect is checked.
                out.push(n);
                if n > 0 {
                    out.push(n - 1);
                }
            }
        }
        PKind::Delete {
            res: None,
            strict: _,
        } => {
            out.push(n);
            if n > 0 {
                out.push(n - 1);
            }
        }
        PKind::Lookup { found: true } => {
            if n > 0 {
                out.push(n);
            }
        }
        PKind::Lookup { found: false } => {
            if n == 0 {
                out.push(0);
            }
        }
        PKind::Observe { count } => {
            if n == count {
                out.push(n);
            }
        }
        PKind::Resurrect => {
            out.push(n); // retry absorbed (or never reached the probe)
            if n == 0 {
                out.push(1); // pair absent at the probe: re-applied
            }
        }
    }
}

/// Wing & Gong DFS over one key's subhistory: does a legal linearization
/// exist? Memoized on `(applied mask, counter)` — exact, no hashing, so
/// a "seen" hit can never mask a real linearization.
fn linearizable_key(init: u32, ops: &[POp]) -> bool {
    let n = ops.len();
    assert!(n <= 64, "per-key subhistory too large ({n} ops)");
    let full: u64 = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
    let mut memo: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut beh = Vec::with_capacity(2);
    // Explicit stack of (mask, count) states to try.
    let mut stack = vec![(0u64, init)];
    while let Some((mask, count)) = stack.pop() {
        if mask == full {
            return true;
        }
        if !memo.insert((mask, count)) {
            continue;
        }
        let min_resp = (0..n)
            .filter(|i| mask & (1 << i) == 0)
            .map(|i| ops[i].response)
            .min()
            .unwrap_or(u64::MAX);
        for (i, op) in ops.iter().enumerate() {
            if mask & (1 << i) != 0 || op.invoke > min_resp {
                continue;
            }
            behaviors(op.kind, count, &mut beh);
            for &c2 in &beh {
                stack.push((mask | (1 << i), c2));
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Whole-history mode (concurrent scans).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum WKind {
    Point {
        key: u64,
        kind: PKind,
    },
    /// Scan over `[lo, hi]` that observed `counts` live entries per
    /// workload key (loaded keys already validated and stripped).
    Scan {
        lo: u64,
        hi: u64,
        counts: BTreeMap<u64, u32>,
    },
}

#[derive(Clone, Debug)]
struct WOp {
    invoke: u64,
    response: u64,
    kind: WKind,
}

fn linearizable_whole(ops: &[WOp], keys: &[u64], init: &[u32]) -> bool {
    let n = ops.len();
    assert!(n <= 64, "whole-history too large ({n} ops)");
    let full: u64 = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
    let idx_of = |key: u64| keys.binary_search(&key).expect("untracked key");
    let mut memo: BTreeSet<(u64, Vec<u32>)> = BTreeSet::new();
    let mut beh = Vec::with_capacity(2);
    let mut stack: Vec<(u64, Vec<u32>)> = vec![(0, init.to_vec())];
    while let Some((mask, state)) = stack.pop() {
        if mask == full {
            return true;
        }
        if !memo.insert((mask, state.clone())) {
            continue;
        }
        let min_resp = (0..n)
            .filter(|i| mask & (1 << i) == 0)
            .map(|i| ops[i].response)
            .min()
            .unwrap_or(u64::MAX);
        for (i, op) in ops.iter().enumerate() {
            if mask & (1 << i) != 0 || op.invoke > min_resp {
                continue;
            }
            match &op.kind {
                WKind::Point { key, kind } => {
                    let ki = idx_of(*key);
                    behaviors(*kind, state[ki], &mut beh);
                    for &c2 in &beh {
                        let mut s2 = state.clone();
                        s2[ki] = c2;
                        stack.push((mask | (1 << i), s2));
                    }
                }
                WKind::Scan { lo, hi, counts } => {
                    let legal = keys.iter().enumerate().all(|(ki, &k)| {
                        if k < *lo || k > *hi {
                            true
                        } else {
                            state[ki] == counts.get(&k).copied().unwrap_or(0)
                        }
                    });
                    if legal {
                        stack.push((mask | (1 << i), state.clone()));
                    }
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Preprocessing + top-level check.
// ---------------------------------------------------------------------------

fn nanos(t: simnet::SimTime) -> u64 {
    t.as_nanos()
}

/// Check `events` against `spec`. `Ok` carries coverage stats; `Err`
/// the first violation found.
pub fn check(events: &[Event], spec: &Spec) -> Result<CheckStats, LinViolation> {
    let viol = |key: Option<u64>, detail: String| LinViolation { key, detail };

    // Per-key point ops and scans, preprocessed.
    let mut point: BTreeMap<u64, Vec<POp>> = BTreeMap::new();
    struct Scan {
        invoke: u64,
        response: u64,
        lo: u64,
        hi: u64,
        counts: BTreeMap<u64, u32>,
    }
    let mut scans: Vec<Scan> = Vec::new();
    let mut ops_checked = 0usize;
    // Latest point-op/scan response, for the quiescent-scan test.
    let mut max_point_resp = 0u64;

    for ev in events {
        let (invoke, response) = (nanos(ev.invoke), nanos(ev.response));
        let key_of = |k: u64| -> Result<(), LinViolation> {
            if spec.loaded.contains_key(&k) {
                return Err(viol(
                    Some(k),
                    "workload mutated a preloaded key (scenario bug)".into(),
                ));
            }
            Ok(())
        };
        match (&ev.args, &ev.outcome) {
            (OpArgs::Insert { key, .. }, OpOutcome::Insert) => {
                key_of(*key)?;
                point.entry(*key).or_default().push(POp {
                    invoke,
                    response,
                    kind: PKind::Insert { ok: true },
                });
            }
            (OpArgs::Insert { key, .. }, OpOutcome::Failed) => {
                key_of(*key)?;
                point.entry(*key).or_default().push(POp {
                    invoke,
                    response,
                    kind: PKind::Insert { ok: false },
                });
            }
            (OpArgs::Delete { key }, OpOutcome::Delete(found)) => {
                key_of(*key)?;
                point.entry(*key).or_default().push(POp {
                    invoke,
                    response,
                    kind: PKind::Delete {
                        res: Some(*found),
                        strict: spec.strict_delete_flag,
                    },
                });
            }
            (OpArgs::Delete { key }, OpOutcome::Failed) => {
                key_of(*key)?;
                point.entry(*key).or_default().push(POp {
                    invoke,
                    response,
                    kind: PKind::Delete {
                        res: None,
                        strict: spec.strict_delete_flag,
                    },
                });
            }
            (OpArgs::Lookup { key }, OpOutcome::Lookup(got)) => {
                if let Some(&lv) = spec.loaded.get(key) {
                    // Loaded keys are immutable: the lookup must see
                    // exactly the loaded value.
                    if *got != Some(lv) {
                        return Err(viol(
                            Some(*key),
                            format!("lookup of immutable loaded key returned {got:?}, expected Some({lv})"),
                        ));
                    }
                    ops_checked += 1;
                    continue;
                }
                if let Some(v) = got {
                    let want = (spec.value_of)(*key);
                    if *v != want {
                        return Err(viol(
                            Some(*key),
                            format!("lookup returned value {v}, canonical is {want}"),
                        ));
                    }
                }
                point.entry(*key).or_default().push(POp {
                    invoke,
                    response,
                    kind: PKind::Lookup {
                        found: got.is_some(),
                    },
                });
            }
            // Failed reads observed nothing; drop them.
            (OpArgs::Lookup { .. }, OpOutcome::Failed)
            | (OpArgs::Range { .. }, OpOutcome::Failed) => {
                ops_checked += 1;
                continue;
            }
            (OpArgs::Range { lo, hi }, OpOutcome::Range(rows)) => {
                // Rows must be sorted and in-window; loaded keys must
                // appear exactly once with the loaded value; workload
                // rows must carry the canonical value.
                let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
                let mut loaded_seen: BTreeMap<u64, u32> = BTreeMap::new();
                let mut prev: Option<u64> = None;
                for &(k, v) in rows {
                    if k < *lo || k > *hi {
                        return Err(viol(
                            Some(k),
                            format!("scan [{lo}, {hi}] returned out-of-window key {k}"),
                        ));
                    }
                    if let Some(p) = prev {
                        if k < p {
                            return Err(viol(
                                Some(k),
                                format!("scan rows out of order: {k} after {p}"),
                            ));
                        }
                    }
                    prev = Some(k);
                    if let Some(&lv) = spec.loaded.get(&k) {
                        if v != lv {
                            return Err(viol(
                                Some(k),
                                format!("scan saw loaded key with value {v}, expected {lv}"),
                            ));
                        }
                        *loaded_seen.entry(k).or_insert(0) += 1;
                    } else {
                        let want = (spec.value_of)(k);
                        if v != want {
                            return Err(viol(
                                Some(k),
                                format!("scan saw value {v}, canonical is {want}"),
                            ));
                        }
                        *counts.entry(k).or_insert(0) += 1;
                    }
                }
                for (&k, &c) in &loaded_seen {
                    if c != 1 {
                        return Err(viol(
                            Some(k),
                            format!("immutable loaded key appeared {c} times in scan"),
                        ));
                    }
                }
                for (&k, &lv) in spec.loaded.range(*lo..=*hi) {
                    if !loaded_seen.contains_key(&k) {
                        let _ = lv;
                        return Err(viol(
                            Some(k),
                            "immutable loaded key missing from scan".into(),
                        ));
                    }
                }
                scans.push(Scan {
                    invoke,
                    response,
                    lo: *lo,
                    hi: *hi,
                    counts,
                });
                continue;
            }
            (args, outcome) => {
                return Err(viol(
                    None,
                    format!("malformed history event: {args:?} -> {outcome:?}"),
                ));
            }
        }
        max_point_resp = max_point_resp.max(response);
        ops_checked += 1;
    }

    // Fault runs: model the at-least-once insert-retry re-application
    // (see `PKind::Resurrect`). Each delete of a key — whatever it
    // reported, since retries launder the flag — may have removed the
    // first attempt's entry and thereby enabled one re-application by
    // the insert's retry, so the key's single insert gets one optional
    // Resurrect per delete, scoped to the insert's own real-time window.
    if !spec.strict_delete_flag {
        for ops in point.values_mut() {
            let removals = ops
                .iter()
                .filter(|o| matches!(o.kind, PKind::Delete { .. }))
                .count();
            if removals == 0 {
                continue;
            }
            let ins = ops
                .iter()
                .find(|o| matches!(o.kind, PKind::Insert { .. }))
                .copied();
            if let Some(ins) = ins {
                for _ in 0..removals {
                    ops.push(POp {
                        invoke: ins.invoke,
                        response: ins.response,
                        kind: PKind::Resurrect,
                    });
                }
            }
        }
    }

    // Quiescent scans (invoked after every point response, and after
    // every earlier scan's response) decompose into per-key observations.
    let mut whole_history = false;
    let mut prior_scan_resp = 0u64;
    let mut sequential = true;
    for s in &scans {
        if s.invoke < max_point_resp.max(prior_scan_resp) {
            sequential = false;
        }
        prior_scan_resp = prior_scan_resp.max(s.response);
    }

    if sequential {
        for s in &scans {
            // Every workload key in the window gets an Observe — keys
            // with no rows observe count 0, which catches lost entries.
            let mut window_keys: BTreeSet<u64> = s.counts.keys().copied().collect();
            for (&k, _) in point.range(s.lo..=s.hi) {
                window_keys.insert(k);
            }
            for k in window_keys {
                if k < s.lo || k > s.hi {
                    continue;
                }
                point.entry(k).or_default().push(POp {
                    invoke: s.invoke,
                    response: s.response,
                    kind: PKind::Observe {
                        count: s.counts.get(&k).copied().unwrap_or(0),
                    },
                });
                ops_checked += 1;
            }
        }
        let point_keys = point.len();
        for (key, ops) in &point {
            if !linearizable_key(0, ops) {
                return Err(viol(
                    Some(*key),
                    format!("no legal linearization of {} ops: {ops:?}", ops.len()),
                ));
            }
        }
        Ok(CheckStats {
            point_keys,
            whole_history,
            ops: ops_checked,
        })
    } else {
        whole_history = true;
        // Flatten everything into one search.
        let mut keys: BTreeSet<u64> = point.keys().copied().collect();
        for s in &scans {
            keys.extend(s.counts.keys().copied());
        }
        let keys: Vec<u64> = keys.into_iter().collect();
        let init = vec![0u32; keys.len()];
        let mut ops: Vec<WOp> = Vec::new();
        for (key, pops) in &point {
            for p in pops {
                ops.push(WOp {
                    invoke: p.invoke,
                    response: p.response,
                    kind: WKind::Point {
                        key: *key,
                        kind: p.kind,
                    },
                });
            }
        }
        for s in scans {
            ops.push(WOp {
                invoke: s.invoke,
                response: s.response,
                kind: WKind::Scan {
                    lo: s.lo,
                    hi: s.hi,
                    counts: s.counts,
                },
            });
        }
        if !linearizable_whole(&ops, &keys, &init) {
            return Err(viol(
                None,
                format!(
                    "no legal linearization of whole history ({} ops over {} keys)",
                    ops.len(),
                    keys.len()
                ),
            ));
        }
        Ok(CheckStats {
            point_keys: 0,
            whole_history,
            ops: ops_checked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(invoke: u64, response: u64, kind: PKind) -> POp {
        POp {
            invoke,
            response,
            kind,
        }
    }

    #[test]
    fn sequential_counter_histories() {
        // insert, delete(true), lookup(none) — all sequential: legal.
        let ops = vec![
            op(0, 1, PKind::Insert { ok: true }),
            op(
                2,
                3,
                PKind::Delete {
                    res: Some(true),
                    strict: true,
                },
            ),
            op(4, 5, PKind::Lookup { found: false }),
        ];
        assert!(linearizable_key(0, &ops));
        // delete(true) on an empty key: illegal.
        let bad = vec![op(
            0,
            1,
            PKind::Delete {
                res: Some(true),
                strict: true,
            },
        )];
        assert!(!linearizable_key(0, &bad));
    }

    #[test]
    fn concurrency_allows_reordering() {
        // lookup(found) concurrent with the insert: legal — the lookup
        // linearizes after the insert inside the overlap.
        let ops = vec![
            op(0, 10, PKind::Insert { ok: true }),
            op(5, 8, PKind::Lookup { found: true }),
        ];
        assert!(linearizable_key(0, &ops));
        // lookup strictly before the insert: illegal.
        let ops = vec![
            op(10, 12, PKind::Insert { ok: true }),
            op(0, 5, PKind::Lookup { found: true }),
        ];
        assert!(!linearizable_key(0, &ops));
    }

    #[test]
    fn duplicate_insert_is_caught_by_observation() {
        // One successful insert, but a quiescent scan saw two copies —
        // the CG duplicate-insert mutation's signature.
        let ops = vec![
            op(0, 10, PKind::Insert { ok: true }),
            op(20, 25, PKind::Observe { count: 2 }),
        ];
        assert!(!linearizable_key(0, &ops));
        // Observing one copy is fine.
        let ops = vec![
            op(0, 10, PKind::Insert { ok: true }),
            op(20, 25, PKind::Observe { count: 1 }),
        ];
        assert!(linearizable_key(0, &ops));
    }

    #[test]
    fn failed_insert_branches_both_ways() {
        // A failed insert may or may not have landed: both observation
        // counts are legal.
        for seen in [0, 1] {
            let ops = vec![
                op(0, 10, PKind::Insert { ok: false }),
                op(20, 25, PKind::Observe { count: seen }),
            ];
            assert!(linearizable_key(0, &ops), "count {seen}");
        }
        let ops = vec![
            op(0, 10, PKind::Insert { ok: false }),
            op(20, 25, PKind::Observe { count: 2 }),
        ];
        assert!(!linearizable_key(0, &ops));
    }

    #[test]
    fn relaxed_delete_flag_permits_retry_laundering() {
        // insert ok; delete reports false but actually removed the
        // entry (retry after lost response); scan sees nothing.
        let ops = |strict| {
            vec![
                op(0, 1, PKind::Insert { ok: true }),
                op(
                    2,
                    30,
                    PKind::Delete {
                        res: Some(false),
                        strict,
                    },
                ),
                op(40, 45, PKind::Observe { count: 0 }),
            ]
        };
        assert!(!linearizable_key(0, &ops(true)));
        assert!(linearizable_key(0, &ops(false)));
    }

    #[test]
    fn resurrect_permits_delete_then_reapply_but_not_coexisting_dups() {
        // Observed in chaos runs: insert's first attempt applies
        // (response lost), a concurrent delete removes it, the retry's
        // probe finds nothing and re-applies — final count is 1 even
        // though a delete succeeded after the apply. Without Resurrect
        // this has no counter linearization.
        let base = vec![
            op(
                383,
                460,
                PKind::Delete {
                    res: Some(true),
                    strict: false,
                },
            ),
            op(540, 557, PKind::Lookup { found: false }),
            op(0, 1080, PKind::Insert { ok: true }),
            op(1682, 1740, PKind::Observe { count: 1 }),
        ];
        assert!(!linearizable_key(0, &base));
        let mut with_res = base.clone();
        with_res.push(op(0, 1080, PKind::Resurrect));
        assert!(linearizable_key(0, &with_res));
        // But the mutation's signature — two copies coexisting — stays
        // unreachable: Resurrect only fires on an empty key.
        let dup = vec![
            op(0, 1080, PKind::Insert { ok: true }),
            op(
                383,
                460,
                PKind::Delete {
                    res: Some(true),
                    strict: false,
                },
            ),
            op(0, 1080, PKind::Resurrect),
            op(1682, 1740, PKind::Observe { count: 2 }),
        ];
        assert!(!linearizable_key(0, &dup));
    }

    #[test]
    fn whole_history_scan_constraints() {
        // Scan concurrent with an insert: may see 0 or 1 copies.
        let mk = |seen: u32| {
            let ops = vec![
                WOp {
                    invoke: 0,
                    response: 10,
                    kind: WKind::Point {
                        key: 8,
                        kind: PKind::Insert { ok: true },
                    },
                },
                WOp {
                    invoke: 5,
                    response: 9,
                    kind: WKind::Scan {
                        lo: 0,
                        hi: 100,
                        counts: if seen == 0 {
                            BTreeMap::new()
                        } else {
                            [(8u64, seen)].into_iter().collect()
                        },
                    },
                },
            ];
            linearizable_whole(&ops, &[8], &[0])
        };
        assert!(mk(0));
        assert!(mk(1));
        assert!(!mk(2));
    }
}
