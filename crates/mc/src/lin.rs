//! Wing & Gong linearizability checking against a sequential
//! `BTreeMap`-style multi-map spec, with Lowe's partitioning
//! optimization.
//!
//! ## Spec shape
//!
//! The workload is constructed so that every insert of a key uses the
//! *same canonical value* (`value_of(key)`, or a loaded key's loaded
//! value) and no two in-flight inserts of one `(key, value)` pair exist
//! (retry-absorption is value-based, so colliding pairs would make
//! exactly-once undecidable). Under that discipline the sequential
//! state of a key collapses to a **live-entry counter**, starting at 1
//! for a loaded key and at 0 for any other:
//!
//! * `insert`           → `n + 1`
//! * `delete -> true`   → legal iff `n > 0`, then `n - 1`
//! * `delete -> false`  → legal iff `n == 0`
//! * `lookup -> Some(v)`→ legal iff `n > 0` (and `v` must be canonical)
//! * `lookup -> None`   → legal iff `n == 0`
//! * scan rows of a key → exactly `n` copies of the canonical value
//!
//! ## Scans
//!
//! A B-link scan is not a snapshot: it walks the leaf chain and
//! validates one leaf at a time, so each row comes from some leaf at
//! some instant inside the scan's window. Every scan, concurrent or
//! not, therefore decomposes into one `Observe(count)` op per key of
//! its range that the history or the load names, each over the scan's
//! own invoke/response window. A key with no rows observes 0, which is
//! what catches a lost entry.
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
//! Per Lowe, ops partition by key: each key's subhistory is checked
//! independently over its counter (Wing & Gong DFS, memoized on
//! `(applied-op mask, counter)`). Preprocessing stays flat: a scan's
//! rows become run-length counts, and one sort of `(key, op)` pairs
//! groups every key's subhistory.

use crate::history::{Event, OpArgs, OpOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// The sequential spec the history is validated against.
pub struct Spec {
    /// Preloaded entries: key → value. Each starts live (count 1) with
    /// its loaded value as its canonical value; the workload may delete
    /// it, and an insert of it must carry that value.
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
    /// Offending key; `None` only for a malformed history event.
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

/// What a passing check judged (for coverage reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckStats {
    /// Ops the search judged: each point op (failed mutators included,
    /// failed reads dropped) and each per-key scan observation.
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
    /// One key's row count in one scan, over the scan's window.
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
// Preprocessing + top-level check.
// ---------------------------------------------------------------------------

/// A scan that returned: its window and its rows' run-length counts, in
/// key order.
struct Scan {
    invoke: u64,
    response: u64,
    lo: u64,
    hi: u64,
    counts: Vec<(u64, u32)>,
}

/// Check `events` against `spec`. `Ok` carries coverage stats; `Err`
/// the first violation found.
pub fn check(events: &[Event], spec: &Spec) -> Result<CheckStats, LinViolation> {
    let viol = |key: Option<u64>, detail: String| LinViolation { key, detail };
    let canonical = |k: u64| spec.loaded.get(&k).copied().unwrap_or((spec.value_of)(k));
    let strict = spec.strict_delete_flag;

    let mut ops: Vec<(u64, POp)> = Vec::new();
    let mut scans: Vec<Scan> = Vec::new();
    for ev in events {
        let (invoke, response) = (ev.invoke.as_nanos(), ev.response.as_nanos());
        let (key, kind) = match (&ev.args, &ev.outcome) {
            (OpArgs::Insert { key, .. }, OpOutcome::Insert) => (*key, PKind::Insert { ok: true }),
            (OpArgs::Insert { key, .. }, OpOutcome::Failed) => (*key, PKind::Insert { ok: false }),
            (OpArgs::Delete { key }, OpOutcome::Delete(found)) => {
                let res = Some(*found);
                (*key, PKind::Delete { res, strict })
            }
            (OpArgs::Delete { key }, OpOutcome::Failed) => {
                (*key, PKind::Delete { res: None, strict })
            }
            (OpArgs::Lookup { key }, OpOutcome::Lookup(got)) => {
                let want = canonical(*key);
                if let Some(v) = got.filter(|&v| v != want) {
                    let detail = format!("lookup returned value {v}, canonical is {want}");
                    return Err(viol(Some(*key), detail));
                }
                let found = got.is_some();
                (*key, PKind::Lookup { found })
            }
            // Failed reads observed nothing; drop them.
            (OpArgs::Lookup { .. } | OpArgs::Range { .. }, OpOutcome::Failed) => continue,
            (&OpArgs::Range { lo, hi }, OpOutcome::Range(rows)) => {
                let mut counts: Vec<(u64, u32)> = Vec::new();
                for &(k, v) in rows {
                    if k < lo || k > hi {
                        let detail = format!("scan [{lo}, {hi}] returned out-of-window key {k}");
                        return Err(viol(Some(k), detail));
                    }
                    let want = canonical(k);
                    if v != want {
                        let detail = format!("scan saw value {v}, canonical is {want}");
                        return Err(viol(Some(k), detail));
                    }
                    match counts.last_mut() {
                        Some((p, c)) if *p == k => *c += 1,
                        Some(&mut (p, _)) if k < p => {
                            let detail = format!("scan rows out of order: {k} after {p}");
                            return Err(viol(Some(k), detail));
                        }
                        _ => counts.push((k, 1)),
                    }
                }
                scans.push(Scan {
                    invoke,
                    response,
                    lo,
                    hi,
                    counts,
                });
                continue;
            }
            (args, outcome) => {
                let detail = format!("malformed history event: {args:?} -> {outcome:?}");
                return Err(viol(None, detail));
            }
        };
        ops.push((
            key,
            POp {
                invoke,
                response,
                kind,
            },
        ));
    }

    // Every scan observes each key of its range that the history or the
    // load names; a key with no rows observes 0.
    let mut keys: Vec<u64> = ops.iter().map(|&(k, _)| k).collect();
    keys.extend(scans.iter().flat_map(|s| s.counts.iter().map(|&(k, _)| k)));
    keys.extend(spec.loaded.keys());
    keys.sort_unstable();
    keys.dedup();
    for s in &scans {
        let window =
            &keys[keys.partition_point(|&k| k < s.lo)..keys.partition_point(|&k| k <= s.hi)];
        let mut rows = s.counts.iter().peekable();
        for &k in window {
            let count = rows.next_if(|&&(rk, _)| rk == k).map_or(0, |&(_, c)| c);
            let (invoke, response) = (s.invoke, s.response);
            let kind = PKind::Observe { count };
            ops.push((
                k,
                POp {
                    invoke,
                    response,
                    kind,
                },
            ));
        }
    }
    let judged = ops.len();

    // Stable: each key's ops keep their history order.
    ops.sort_by_key(|&(k, _)| k);
    let mut key_ops: Vec<POp> = Vec::new();
    for group in ops.chunk_by(|a, b| a.0 == b.0) {
        let key = group[0].0;
        key_ops.clear();
        key_ops.extend(group.iter().map(|&(_, op)| op));
        // Fault runs: model the at-least-once insert-retry re-application
        // (see `PKind::Resurrect`). Each delete of a key — whatever it
        // reported, since retries launder the flag — may have removed the
        // first attempt's entry and thereby enabled one re-application by
        // the insert's retry, so the key's single insert gets one optional
        // Resurrect per delete, scoped to the insert's own real-time window.
        if !strict {
            let removals = key_ops
                .iter()
                .filter(|o| matches!(o.kind, PKind::Delete { .. }))
                .count();
            let insert = key_ops
                .iter()
                .find(|o| matches!(o.kind, PKind::Insert { .. }))
                .copied();
            if let Some(ins) = insert {
                let kind = PKind::Resurrect;
                key_ops.extend((0..removals).map(|_| POp { kind, ..ins }));
            }
        }
        let init = spec.loaded.contains_key(&key) as u32;
        if !linearizable_key(init, &key_ops) {
            let n = key_ops.len();
            let detail =
                format!("no legal linearization of {n} ops from count {init}: {key_ops:?}");
            return Err(viol(Some(key), detail));
        }
    }
    Ok(CheckStats { ops: judged })
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

    fn ev(args: OpArgs, outcome: OpOutcome, invoke: u64, response: u64) -> Event {
        Event {
            client: 0,
            args,
            outcome,
            invoke: simnet::SimTime::from_nanos(invoke),
            response: simnet::SimTime::from_nanos(response),
        }
    }

    fn canonical(key: u64) -> u64 {
        key ^ 0xABCD
    }

    fn spec(loaded: &[u64]) -> Spec {
        Spec {
            loaded: loaded.iter().map(|&k| (k, k / 8)).collect(),
            value_of: canonical,
            strict_delete_flag: true,
        }
    }

    fn insert(key: u64, invoke: u64, response: u64) -> Event {
        let args = OpArgs::Insert {
            key,
            value: canonical(key),
        };
        ev(args, OpOutcome::Insert, invoke, response)
    }

    fn delete(key: u64, invoke: u64, response: u64) -> Event {
        ev(
            OpArgs::Delete { key },
            OpOutcome::Delete(true),
            invoke,
            response,
        )
    }

    fn scan(rows: Vec<(u64, u64)>, invoke: u64, response: u64) -> Event {
        let args = OpArgs::Range { lo: 0, hi: 100 };
        ev(args, OpOutcome::Range(rows), invoke, response)
    }

    #[test]
    fn a_scan_beside_an_insert_observes_zero_or_one_copy() {
        let run = |copies: usize| {
            let rows = vec![(8, canonical(8)); copies];
            check(&[insert(8, 0, 10), scan(rows, 5, 9)], &spec(&[]))
        };
        assert!(run(0).is_ok());
        assert!(run(1).is_ok());
        assert_eq!(run(2).unwrap_err().key, Some(8));
    }

    #[test]
    fn a_scan_need_not_be_a_snapshot() {
        // The scan reads b before its delete and a after its insert:
        // no single instant holds both, yet each row was live at some
        // instant of the scan's window.
        let (a, b) = (8, 16);
        let rows = vec![(a, canonical(a)), (b, canonical(b))];
        let events = [
            insert(b, 0, 5),
            delete(b, 10, 20),
            insert(a, 30, 40),
            scan(rows, 6, 100),
        ];
        assert!(check(&events, &spec(&[])).is_ok());
    }

    #[test]
    fn a_deleted_loaded_key_may_observe_zero() {
        let events = [delete(8, 0, 10), scan(vec![], 20, 30)];
        assert!(check(&events, &spec(&[8])).is_ok());
        // Concurrent with the delete, either count is legal.
        for rows in [vec![], vec![(8, 1)]] {
            let events = [delete(8, 0, 10), scan(rows, 5, 15)];
            assert!(check(&events, &spec(&[8])).is_ok());
        }
    }

    #[test]
    fn a_loaded_key_missing_from_a_scan_is_named() {
        let events = [scan(vec![(8, 1), (16, 2)], 0, 10)];
        assert!(check(&events, &spec(&[8, 16])).is_ok());
        let events = [scan(vec![(16, 2)], 0, 10)];
        let err = check(&events, &spec(&[8, 16])).unwrap_err();
        assert_eq!(err.key, Some(8), "{err}");
    }

    #[test]
    fn ops_counts_exactly_what_the_search_judged() {
        let failed = |args| ev(args, OpOutcome::Failed, 0, 5);
        let events = [
            insert(8, 0, 5),
            failed(OpArgs::Insert {
                key: 24,
                value: canonical(24),
            }),
            failed(OpArgs::Delete { key: 32 }),
            failed(OpArgs::Lookup { key: 8 }),
            failed(OpArgs::Range { lo: 0, hi: 100 }),
            ev(
                OpArgs::Lookup { key: 8 },
                OpOutcome::Lookup(Some(canonical(8))),
                6,
                7,
            ),
            // Observes loaded 16, workload 8, 24, 32 — not 200, outside.
            ev(
                OpArgs::Range { lo: 0, hi: 40 },
                OpOutcome::Range(vec![(8, canonical(8)), (16, 2)]),
                10,
                20,
            ),
            ev(OpArgs::Lookup { key: 200 }, OpOutcome::Lookup(None), 30, 40),
        ];
        // Three mutators, two lookups, four observations.
        let stats = check(&events, &spec(&[16])).expect("legal");
        assert_eq!(stats.ops, 9);
    }
}
