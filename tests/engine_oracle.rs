//! Differential model test for the unified traversal engine: all four
//! designs (CG, FG, Hybrid, Learned) run the *same* randomized
//! concurrent insert/delete/lookup/range workload — through the one
//! engine core — against an in-memory `BTreeMap` oracle, under a chaos
//! fault plan (server crash + restart, plus a client killed mid-run).
//! For the learned design the crash/restart also exercises the
//! restart-epoch model flush and post-split drift retraining.
//!
//! Bookkeeping discipline: a mutating operation's key is marked
//! *uncertain* before the op is issued and resolved again only when the
//! op returns `Ok` (an `Err` — or a kill mid-await — leaves the key
//! uncertain: the mutation may or may not have landed). Clients own
//! disjoint key spans, so a later successful lookup by the owner settles
//! an uncertain key to whatever the index actually holds. At quiesce the
//! index and the oracle must agree exactly on every certain key, for
//! every design, under pinned seeds. The dynamic checker rides along:
//! scans here cross level-1 pages and local leaves while other clients
//! split them, and the run must leave no race finding and a well-formed
//! tree.

use namdex::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Key-space units per client (keys are `unit * 8 + offset`).
const SPAN: u64 = 150;
const CLIENTS: u64 = 4;
const OPS_PER_CLIENT: u64 = 120;
const LOAD_UNITS: u64 = CLIENTS * SPAN;

type Oracle = Rc<RefCell<BTreeMap<Key, Value>>>;
type Uncertain = Rc<RefCell<BTreeSet<Key>>>;

fn small_cfg() -> FgConfig {
    FgConfig {
        layout: PageLayout::new(256), // small pages: deep trees, many splits
        fill: 0.7,
        scan_batch: 4,
        cache_capacity: None,
    }
}

fn build(kind: IndexKind, nam: &NamCluster) -> Design {
    let items = (0..LOAD_UNITS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), LOAD_UNITS * 8);
    Design::build(kind, nam, small_cfg(), partition, items)
}

/// One client's sequential op stream over its own key span.
#[allow(clippy::too_many_arguments)]
async fn client_loop(
    idx: Design,
    ep: Endpoint,
    c: u64,
    seed: u64,
    oracle: Oracle,
    uncertain: Uncertain,
) {
    let base = c * SPAN;
    let mut rng = simnet::rng::DetRng::seed_from_u64(seed ^ (0xC11E57 + c));
    // Fresh keys already inserted by this client (never re-insert a key:
    // leaves are multi-maps, and a second insert of a live key would
    // need multi-set oracle bookkeeping).
    let mut inserted: BTreeSet<Key> = BTreeSet::new();
    for _ in 0..OPS_PER_CLIENT {
        let unit = base + rng.next_u64_below(SPAN);
        match rng.next_u64_below(100) {
            // Insert a fresh key at an odd offset inside the span.
            0..=29 => {
                let key = unit * 8 + 1 + rng.next_u64_below(7);
                if inserted.contains(&key) {
                    continue;
                }
                inserted.insert(key);
                let value = key ^ 0xABCD;
                uncertain.borrow_mut().insert(key);
                if idx.insert(&ep, key, value).await.is_ok() {
                    oracle.borrow_mut().insert(key, value);
                    uncertain.borrow_mut().remove(&key);
                }
            }
            // Delete any key in the span (loaded, fresh, or absent).
            30..=44 => {
                let key = unit * 8 + rng.next_u64_below(8);
                let was = {
                    let o = oracle.borrow();
                    o.get(&key).copied()
                };
                let certain = !uncertain.borrow().contains(&key);
                uncertain.borrow_mut().insert(key);
                if let Ok(found) = idx.delete(&ep, key).await {
                    if certain {
                        assert_eq!(
                            found,
                            was.is_some(),
                            "delete({key}) found-flag disagrees with oracle"
                        );
                    }
                    oracle.borrow_mut().remove(&key);
                    uncertain.borrow_mut().remove(&key);
                }
            }
            // Lookup: certain keys must match the oracle; an uncertain
            // key is *settled* by what the index actually holds (only
            // this client writes it, so the answer is stable).
            45..=79 => {
                let key = unit * 8 + rng.next_u64_below(8);
                let Ok(got) = idx.lookup(&ep, key).await else {
                    continue;
                };
                if uncertain.borrow_mut().remove(&key) {
                    match got {
                        Some(v) => {
                            oracle.borrow_mut().insert(key, v);
                        }
                        None => {
                            oracle.borrow_mut().remove(&key);
                        }
                    }
                } else {
                    assert_eq!(
                        got,
                        oracle.borrow().get(&key).copied(),
                        "lookup({key}) disagrees with oracle"
                    );
                }
            }
            // Range over a window inside the span: rows must agree with
            // the oracle slice, modulo uncertain keys on either side.
            _ => {
                let lo = (base + rng.next_u64_below(SPAN.saturating_sub(30))) * 8;
                let hi = lo + 30 * 8;
                let Ok(rows) = idx.range(&ep, lo, hi).await else {
                    continue;
                };
                let unc = uncertain.borrow();
                let oracle = oracle.borrow();
                let got: Vec<(Key, Value)> = rows
                    .iter()
                    .copied()
                    .filter(|(k, _)| !unc.contains(k))
                    .collect();
                let want: Vec<(Key, Value)> = oracle
                    .range(lo..=hi)
                    .filter(|(k, _)| !unc.contains(k))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                assert_eq!(got, want, "range [{lo}, {hi}] disagrees with oracle");
            }
        }
    }
}

fn oracle_scenario(kind: IndexKind, seed: u64) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(kind, &nam);
    let race = Racecheck::install(&nam.rdma, idx.index().layout().page_size());
    namdex::racecheck::walk::register_design(&race, &idx);

    let oracle: Oracle = Rc::new(RefCell::new((0..LOAD_UNITS).map(|i| (i * 8, i)).collect()));
    let uncertain: Uncertain = Rc::new(RefCell::new(BTreeSet::new()));

    // Endpoints first, so the fault plan can name a victim client.
    let eps: Vec<Endpoint> = (0..CLIENTS).map(|_| Endpoint::new(&nam.rdma)).collect();
    let plan = FaultPlan::new()
        .crash_server(SimTime::from_micros(400), 1)
        .restart_server(SimTime::from_micros(800), 1)
        .kill_client(SimTime::from_micros(1_000), eps[0].client_id());
    ChaosController::install(&sim, &nam.rdma, plan);

    for (c, ep) in eps.into_iter().enumerate() {
        sim.spawn(client_loop(
            idx.clone(),
            ep,
            c as u64,
            seed,
            oracle.clone(),
            uncertain.clone(),
        ));
    }
    sim.run();

    // Quiesce: the fresh-endpoint full scan and the oracle must agree on
    // every certain key — none lost, none duplicated, none resurrected.
    let ep = Endpoint::new(&nam.rdma);
    let idx2 = idx.clone();
    let oracle2 = oracle.clone();
    let uncertain2 = uncertain.clone();
    sim.spawn(async move {
        let rows = idx2.range(&ep, 0, u64::MAX - 1).await.expect("final scan");
        // Plain copies: the settle loop below awaits, and RefCell borrows
        // must not live across an await.
        let unc = uncertain2.borrow().clone();
        let oracle = oracle2.borrow().clone();
        let mut seen = BTreeSet::new();
        for (k, v) in &rows {
            assert!(seen.insert(*k), "key {k} appears twice in the final scan");
            if !unc.contains(k) {
                assert_eq!(
                    oracle.get(k),
                    Some(v),
                    "key {k} in the index disagrees with the oracle"
                );
            }
        }
        for (k, _) in oracle.iter().filter(|(k, _)| !unc.contains(*k)) {
            assert!(seen.contains(k), "oracle key {k} missing from the index");
        }
        // Uncertain keys can't be asserted against the oracle, but the
        // index must still be self-consistent about them: a point lookup
        // and the full scan must tell the same story.
        for k in unc.iter() {
            let got = idx2.lookup(&ep, *k).await.expect("settle lookup");
            let in_scan = rows.iter().find(|(rk, _)| rk == k).map(|(_, v)| *v);
            assert_eq!(
                got, in_scan,
                "scan and lookup disagree on uncertain key {k}"
            );
        }
        // Uncertainty must be the exception, not the rule, or the
        // differential check is vacuous.
        assert!(
            unc.len() < 48,
            "too many unresolved ops ({}) — fault plan too aggressive",
            unc.len()
        );
    });
    sim.run();
    race.assert_clean();
    assert_eq!(race.check_structure(&idx), 0, "structural walk");
    // Only the designs with a leaf chain READ pages; theirs must have
    // been checked, or the verdict says nothing.
    let reads = race.counts().reads_checked;
    assert!(
        kind == IndexKind::CoarseGrained || reads > 0,
        "no page READ checked"
    );
}

#[test]
fn cg_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::CoarseGrained, 7);
    oracle_scenario(IndexKind::CoarseGrained, 1_001);
}

#[test]
fn fg_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::FineGrained, 7);
    oracle_scenario(IndexKind::FineGrained, 1_001);
}

#[test]
fn hybrid_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::Hybrid, 7);
    oracle_scenario(IndexKind::Hybrid, 1_001);
}

#[test]
fn learned_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::Learned, 7);
    oracle_scenario(IndexKind::Learned, 1_001);
}
