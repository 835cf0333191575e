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
//! an uncertain key to whatever the index actually holds. A scan may
//! also cover a neighbour's keys; of those it asserts only the ones no
//! operation touched while it ran. At quiesce the index and the oracle
//! must agree exactly on every certain key, for every design, under
//! pinned seeds. The dynamic checker rides along: scans here cross
//! level-1 pages and local leaves while other clients split them, and
//! the run must leave no race finding and a well-formed tree.
//!
//! Client `c`'s span is partition `c`. With [`Keys::Edges`], every
//! operation lands near a partition bound and every scan crosses one. A
//! leaf per READ, a scan of the left partition's leaves gives the
//! neighbour time to split the leaf spanning the bound before the right
//! partition is asked for its plan, which a scan must not let skip the
//! split's left half (Hybrid seeds 117 and 270 lose its rows if the scan
//! jumps to the new plan's first leaf). Four leaves per READ, a batch
//! spans the server crash (Learned seeds 33 and 211 split a leaf onto
//! the restarted server, a page the checker must not take for pre-crash
//! state).

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
type Touched = Rc<RefCell<Touches>>;

/// When each key last had a mutating operation issued or returned, on a
/// tick that counts those events: a scan asserts no key touched since it
/// began.
#[derive(Default)]
struct Touches {
    tick: u64,
    last: BTreeMap<Key, u64>,
}

impl Touches {
    fn touch(&mut self, key: Key) {
        self.tick += 1;
        self.last.insert(key, self.tick);
    }

    fn since(&self, tick: u64, key: &Key) -> bool {
        self.last.get(key).is_some_and(|&t| t > tick)
    }
}

/// Where a client's operations fall in its span.
#[derive(Clone, Copy, Debug)]
enum Keys {
    /// Anywhere, with scans inside the span.
    Spread,
    /// Within `EDGE` units of either end, with scans across the bound
    /// that READ `batch` planned leaves at a time.
    Edges { batch: usize },
}

/// Units from a span's end that [`Keys::Edges`] operations keep to.
const EDGE: u64 = 12;
/// Units left of the bound a [`Keys::Edges`] scan covers (it reaches
/// `EDGE` units right of it).
const REACH: u64 = 120;

fn small_cfg() -> FgConfig {
    FgConfig {
        layout: PageLayout::new(256), // small pages: deep trees, many splits
        fill: 0.7,
        scan_batch: 4,
        cache_capacity: None,
    }
}

fn build(kind: IndexKind, nam: &NamCluster, keys: Keys) -> Design {
    let items = (0..LOAD_UNITS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), LOAD_UNITS * 8);
    let cfg = match keys {
        Keys::Spread => small_cfg(),
        Keys::Edges { batch } => FgConfig {
            scan_batch: batch,
            ..small_cfg()
        },
    };
    Design::build(kind, nam, cfg, partition, items)
}

/// One client's sequential op stream over its own key span.
#[allow(clippy::too_many_arguments)]
async fn client_loop(
    idx: Design,
    ep: Endpoint,
    c: u64,
    keys: Keys,
    seed: u64,
    oracle: Oracle,
    uncertain: Uncertain,
    touched: Touched,
) {
    let base = c * SPAN;
    let mut rng = simnet::rng::DetRng::seed_from_u64(seed ^ (0xC11E57 + c));
    // Fresh keys already inserted by this client (never re-insert a key:
    // leaves are multi-maps, and a second insert of a live key would
    // need multi-set oracle bookkeeping).
    let mut inserted: BTreeSet<Key> = BTreeSet::new();
    for _ in 0..OPS_PER_CLIENT {
        let unit = base
            + match keys {
                Keys::Spread => rng.next_u64_below(SPAN),
                Keys::Edges { .. } => match rng.next_u64_below(2 * EDGE) {
                    u if u < EDGE => u,
                    u => SPAN - 2 * EDGE + u,
                },
            };
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
                touched.borrow_mut().touch(key);
                let done = idx.insert(&ep, key, value).await;
                touched.borrow_mut().touch(key);
                if done.is_ok() {
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
                touched.borrow_mut().touch(key);
                let done = idx.delete(&ep, key).await;
                touched.borrow_mut().touch(key);
                if let Ok(found) = done {
                    // A delete RPC runs at least once: an attempt whose
                    // response was lost may have removed the key, so a
                    // later one finds nothing. Only finding a key the
                    // oracle holds absent is wrong.
                    if certain && found {
                        assert!(
                            was.is_some(),
                            "delete({key}) found a key the oracle holds absent"
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
            // Range over a window inside the span, or across either of
            // its bounds: rows must agree with the oracle slice, modulo
            // uncertain keys and keys touched while the scan ran.
            _ => {
                let (lo, hi) = match keys {
                    Keys::Spread => {
                        let lo = (base + rng.next_u64_below(SPAN.saturating_sub(30))) * 8;
                        (lo, lo + 30 * 8)
                    }
                    Keys::Edges { .. } => {
                        let bound = base + SPAN * rng.next_u64_below(2);
                        (bound.saturating_sub(REACH) * 8, (bound + EDGE) * 8)
                    }
                };
                let began = touched.borrow().tick;
                let Ok(rows) = idx.range(&ep, lo, hi).await else {
                    continue;
                };
                let unc = uncertain.borrow();
                let touched = touched.borrow();
                let settled = |k: &Key| !unc.contains(k) && !touched.since(began, k);
                let oracle = oracle.borrow();
                let got: Vec<(Key, Value)> =
                    rows.iter().copied().filter(|(k, _)| settled(k)).collect();
                let want: Vec<(Key, Value)> = oracle
                    .range(lo..=hi)
                    .filter(|(k, _)| settled(k))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                if got != want {
                    let missing: Vec<_> = want.iter().filter(|r| !got.contains(r)).collect();
                    let extra: Vec<_> = got.iter().filter(|r| !want.contains(r)).collect();
                    panic!("range [{lo}, {hi}] disagrees with oracle: missing {missing:?}, extra {extra:?}");
                }
            }
        }
    }
}

/// Runs one scenario and checks everything but how many keys it left
/// uncertain, which it returns.
fn run_scenario(kind: IndexKind, seed: u64, keys: Keys) -> usize {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(kind, &nam, keys);
    let race = Racecheck::install(&nam.rdma, idx.index().layout().page_size());
    namdex::racecheck::walk::register_design(&race, &idx);

    let oracle: Oracle = Rc::new(RefCell::new((0..LOAD_UNITS).map(|i| (i * 8, i)).collect()));
    let uncertain: Uncertain = Rc::new(RefCell::new(BTreeSet::new()));
    let touched: Touched = Rc::default();

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
            keys,
            seed,
            oracle.clone(),
            uncertain.clone(),
            touched.clone(),
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
    let unresolved = uncertain.borrow().len();
    unresolved
}

/// Uncertainty must be the exception, not the rule, or the differential
/// check is vacuous.
const MAX_UNRESOLVED: usize = 48;

fn oracle_scenario(kind: IndexKind, seed: u64, keys: Keys) {
    let unresolved = run_scenario(kind, seed, keys);
    assert!(
        unresolved < MAX_UNRESOLVED,
        "too many unresolved ops ({unresolved}) — fault plan too aggressive"
    );
}

/// CG seed 0 loses a delete's response and retries it: the retry finds
/// nothing to delete.
#[test]
fn cg_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::CoarseGrained, 7, Keys::Spread);
    oracle_scenario(IndexKind::CoarseGrained, 1_001, Keys::Spread);
    oracle_scenario(IndexKind::CoarseGrained, 0, Keys::Spread);
    oracle_scenario(IndexKind::CoarseGrained, 0, Keys::Edges { batch: 1 });
}

/// FG seeds 16 and 31 end with a leaf split whose parent entry never
/// landed.
#[test]
fn fg_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::FineGrained, 7, Keys::Spread);
    oracle_scenario(IndexKind::FineGrained, 1_001, Keys::Spread);
    oracle_scenario(IndexKind::FineGrained, 16, Keys::Edges { batch: 1 });
    oracle_scenario(IndexKind::FineGrained, 31, Keys::Spread);
}

#[test]
fn hybrid_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::Hybrid, 7, Keys::Spread);
    oracle_scenario(IndexKind::Hybrid, 1_001, Keys::Spread);
    oracle_scenario(IndexKind::Hybrid, 117, Keys::Edges { batch: 1 });
    oracle_scenario(IndexKind::Hybrid, 270, Keys::Edges { batch: 1 });
}

/// Learned seeds 2 and 6 scan a first planned leaf that split left of
/// the range's start.
#[test]
fn learned_agrees_with_oracle_under_chaos() {
    oracle_scenario(IndexKind::Learned, 7, Keys::Spread);
    oracle_scenario(IndexKind::Learned, 1_001, Keys::Spread);
    oracle_scenario(IndexKind::Learned, 33, Keys::Edges { batch: 4 });
    oracle_scenario(IndexKind::Learned, 211, Keys::Edges { batch: 4 });
    oracle_scenario(IndexKind::Learned, 270, Keys::Edges { batch: 1 });
    oracle_scenario(IndexKind::Learned, 2, Keys::Spread);
    oracle_scenario(IndexKind::Learned, 6, Keys::Spread);
}

/// Seeds 0–299 of every design in each key mode (edges at one and at
/// four leaves per READ), with the vacuity bound on each (design, mode)'s
/// mean: single Hybrid `Spread` seeds leave up to 56 keys unresolved.
#[test]
#[ignore = "a seed sweep; CI runs it in release"]
fn every_design_agrees_with_oracle_over_a_seed_sweep() {
    let kinds = [
        IndexKind::CoarseGrained,
        IndexKind::FineGrained,
        IndexKind::Hybrid,
        IndexKind::Learned,
    ];
    for kind in kinds {
        for keys in [
            Keys::Spread,
            Keys::Edges { batch: 1 },
            Keys::Edges { batch: 4 },
        ] {
            let seeds = 0..300u64;
            let total: usize = seeds
                .clone()
                .map(|seed| {
                    std::panic::catch_unwind(|| run_scenario(kind, seed, keys))
                        .unwrap_or_else(|_| panic!("{kind:?} {keys:?} seed {seed} failed"))
                })
                .sum();
            let mean = total as f64 / seeds.count() as f64;
            assert!(
                mean < MAX_UNRESOLVED as f64,
                "{kind:?} {keys:?}: mean unresolved ops {mean} — fault plan too aggressive"
            );
        }
    }
}
