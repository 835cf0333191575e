//! The model router: learned-index routing for one-RTT point lookups.
//!
//! The paper's three designs each pay a root-to-leaf descent or a full
//! RPC per point lookup. Follow-up systems (Outback, DEX — see
//! PAPERS.md) observe that a compact client-resident *learned model*
//! mapping key → remote leaf address collapses the lookup to a single
//! one-sided READ of the predicted leaf. This module is the part that
//! makes an index a member of that fourth family: attached to the
//! hybrid layout (server-local upper trees plus a scattered leaf
//! chain), it routes descents with a PGM-style piecewise-linear model
//! ([`crate::learned::PgmModel`]) trained over the leaf-level
//! `high_key → leaf pointer` table and read by clients from the
//! [`crate::Index`] itself, touching zero servers on the hot path.
//!
//! ## Mispredict / fallback state machine
//!
//! A prediction costs no verbs and lands on the covering leaf *or one
//! left of it* — never right — because the model answers the ceiling
//! query over a past snapshot of the table and the B-link invariants
//! (splits move keys right, leaves are never merged or reused) only ever
//! move coverage rightward. The engine's ordinary descent then:
//!
//! * **hit** — the READ leaf covers the key: done, one READ total;
//! * **mispredict** — the leaf no longer covers the key (post-split
//!   drift): the descent chases right siblings, each chase reported
//!   through `Index::invalidate`, which the router counts as a
//!   mispredict toward the drift rate;
//! * **no model** — after a restart-epoch flush, or when retraining is
//!   blocked by a down server: the descent start falls through to the
//!   upper level's RPC resolution, so operations proceed (and remain
//!   correct) with the paper's §5 protocol while the model is cold.
//!
//! ## Retrain policy
//!
//! The first model is trained at build time from the table the bulk
//! loader keeps of the leaves it wrote, so nothing is read back.
//! Retraining is *incremental maintenance by replacement*: when the
//! stale-prediction rate since the last training reaches
//! `RETRAIN_THRESHOLD` (0.05), the client
//! walks the leaf chain over the untimed setup path (the same
//! control-path view the checker's walk uses), rebuilds the table, and trains
//! a fresh model — the old one stays in service until the swap, and
//! in-flight operations hold their own `Rc` snapshot. A memory-server
//! restart invalidates every shipped pointer wholesale: the restart
//! epoch (total restarts across servers, the same signal
//! [`crate::cache::CacheLayer`] watches) flushes the model to `None`,
//! and retraining is deferred until every server is back up — until
//! then the RPC fallback carries the load.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::learned::PgmModel;
use blink::node::{kind_of, LeafNodeRef, NodeKind};
use blink::{Key, Ptr};
use rdma_sim::{Cluster, RemotePtr};

use crate::resolve::SetupSource;

/// Error bound ε of the model's linear segments: a predicted table
/// position is within ±ε of the true one at training time. At least 1:
/// a zero ε leaves float rounding nowhere to go.
const EPSILON: u32 = 8;
/// Stale-prediction rate (mispredicts / predictions since the last
/// training) at which the model is retrained. In (0, 1].
const RETRAIN_THRESHOLD: f64 = 0.05;
/// Maximum segment count of the model's top level (the recursion stops
/// once a level fits). At least 2.
const MODEL_FANOUT: usize = 64;

/// Counters of the learned routing layer (all client-side; the model
/// itself never issues verbs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearnedStats {
    /// Descent starts answered by the model.
    pub predictions: u64,
    /// Stale routing steps detected downstream of a prediction (sibling
    /// chases reported through `Index::invalidate`).
    pub mispredicts: u64,
    /// Model rebuilds (drift-triggered and post-flush).
    pub retrains: u64,
    /// Wholesale model flushes caused by a restart-epoch change.
    pub epoch_flushes: u64,
    /// Descent starts that fell back to the upper level's RPC resolution
    /// because no model was available.
    pub fallbacks: u64,
}

/// Client-resident model routing over a leaf chain.
pub struct Router {
    /// Current model; `None` after an epoch flush until retraining is
    /// possible again. Never borrowed across an await.
    model: RefCell<Option<Rc<PgmModel>>>,
    /// Restart epoch the model was trained under.
    epoch: Cell<u64>,
    /// Drift window: `(predictions, mispredicts)` since the last
    /// (re)training.
    window: Cell<(u64, u64)>,
    // Lifetime totals.
    stats: Cell<LearnedStats>,
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl Router {
    /// Train the initial model from `leaves`, the `(high key, leaf)`
    /// table of the leaf level just loaded — what a walk of the fresh
    /// chain would collect, without reading it back; the model keeps the
    /// table's buffer.
    pub(crate) fn trained(cluster: &Cluster, leaves: Vec<(Key, Ptr)>) -> Router {
        let router = Router {
            model: RefCell::new(None),
            epoch: Cell::new(cluster.restart_epoch()),
            window: Cell::default(),
            stats: Cell::default(),
        };
        // Same layout, so this collects in place.
        let table = leaves.into_iter().map(|(high, ptr)| (high, ptr.raw()));
        router.train(table.collect());
        router
    }

    /// The current model, if one is live (`None` right after a
    /// restart-epoch flush while some server is still down).
    pub fn model(&self) -> Option<Rc<PgmModel>> {
        self.model.borrow().clone()
    }

    /// Routing-layer counters.
    pub fn stats(&self) -> LearnedStats {
        self.stats.get()
    }

    fn bump(&self, change: impl FnOnce(&mut LearnedStats)) {
        let mut stats = self.stats.get();
        change(&mut stats);
        self.stats.set(stats);
    }

    /// Keep the model coherent with cluster state: flush it wholesale on
    /// a restart-epoch change (shipped pointers may dangle into rebuilt
    /// pools), retrain when it is missing or the drift threshold is
    /// reached. Synchronous and verb-free; runs at every descent start.
    pub(crate) fn sync(&self, src: &SetupSource, first: RemotePtr) {
        let now = src.cluster().restart_epoch();
        if now != self.epoch.get() {
            self.epoch.set(now);
            *self.model.borrow_mut() = None;
            self.bump(|s| s.epoch_flushes += 1);
            self.window.set((0, 0));
        }
        let missing = self.model.borrow().is_none();
        if missing || self.drift_rate() >= RETRAIN_THRESHOLD {
            self.retrain(src, first);
        }
    }

    fn drift_rate(&self) -> f64 {
        match self.window.get() {
            (0, _) => 0.0,
            (predictions, mispredicts) => mispredicts as f64 / predictions as f64,
        }
    }

    /// Rebuild the model from the live leaf chain over the untimed setup
    /// path. Skipped while any memory server is down (`setup_read` into
    /// a rebuilt pool would capture garbage); the caller keeps falling
    /// back to RPC resolution until the cluster is whole. The walk is
    /// defensive: a chain snapshot torn by a concurrent SMO aborts the
    /// rebuild and keeps the previous model (staleness is safe, see the
    /// module docs).
    fn retrain(&self, src: &SetupSource, first: RemotePtr) {
        let cluster = src.cluster();
        if !(0..cluster.num_servers()).all(|s| cluster.server_up(s)) {
            return;
        }
        let mut table: Vec<(Key, u64)> = Vec::new();
        // An untimed control-path snapshot, not a wire READ: a torn
        // chain aborts the rebuild below (non-chain page kind).
        for (ptr, page) in src.chain(first) {
            // A non-chain page in the chain: torn snapshot, abort.
            if kind_of(&page) != NodeKind::Leaf {
                return;
            }
            table.push((LeafNodeRef::new(&page).high_key(), ptr.raw()));
        }
        self.train(table);
    }

    /// Swap in a model trained over `table`, the `(high key, ptr raw)`
    /// of every leaf in chain order, unless it is not a whole chain's.
    fn train(&self, table: Vec<(Key, u64)>) {
        let intact = !table.is_empty()
            && table.is_sorted_by(|a, b| a.0 < b.0)
            && table.last().map(|e| e.0) == Some(blink::KEY_MAX);
        if !intact {
            return;
        }
        let model = PgmModel::train(table, EPSILON, MODEL_FANOUT);
        *self.model.borrow_mut() = Some(Rc::new(model));
        self.bump(|s| s.retrains += 1);
        self.window.set((0, 0));
    }

    /// The model's answer for `key`, counted as a prediction; `None`
    /// (counted as a fallback) when no model is live — epoch flush with a
    /// server still down, or a torn rebuild.
    pub(crate) fn predict(&self, key: Key) -> Option<RemotePtr> {
        let predicted = self.model.borrow().as_ref().map(|m| m.predict(key));
        match predicted {
            Some(_) => {
                self.bump(|s| s.predictions += 1);
                let (predictions, mispredicts) = self.window.get();
                self.window.set((predictions + 1, mispredicts));
            }
            None => self.bump(|s| s.fallbacks += 1),
        }
        predicted
    }

    /// Every stale routing step downstream of a prediction is a
    /// mispredict; the rate since the last training drives retrain.
    pub(crate) fn note_mispredict(&self) {
        self.bump(|s| s.mispredicts += 1);
        let (predictions, mispredicts) = self.window.get();
        self.window.set((predictions, mispredicts + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::small_cfg;
    use crate::{Index, Learned, NamCluster, PartitionMap};
    use rdma_sim::{ClusterSpec, Endpoint};
    use simnet::Sim;

    fn build(sim: &Sim, n: u64) -> (NamCluster, Rc<Index>) {
        let nam = NamCluster::new(sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), n * 8);
        let idx = Learned::build(&nam, small_cfg(), partition, (0..n).map(|i| (i * 8, i)));
        (nam, idx)
    }

    fn stats(idx: &Index) -> LearnedStats {
        idx.router().expect("built with a router").stats()
    }

    #[test]
    fn static_lookup_is_one_read() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 5000);
        assert_eq!(stats(&idx).retrains, 1, "built with a trained model");
        let ep = Endpoint::new(&nam.rdma);
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let got = got.clone();
            let idx = idx.clone();
            sim.spawn(async move {
                for i in [0u64, 1234, 4999] {
                    let v = idx.lookup(&ep, i * 8).await.unwrap();
                    got.borrow_mut().push(v);
                }
                let v = idx.lookup(&ep, 9).await.unwrap();
                got.borrow_mut().push(v);
            });
        }
        sim.run();
        assert_eq!(*got.borrow(), vec![Some(0), Some(1234), Some(4999), None]);
        // No RPCs at all and exactly one one-sided READ per lookup: the
        // model routes client-side and the tree is static.
        let rpcs: u64 = (0..4).map(|s| nam.rdma.server_stats(s).rpcs).sum();
        let reads: u64 = (0..4).map(|s| nam.rdma.server_stats(s).onesided_ops).sum();
        assert_eq!(rpcs, 0);
        assert_eq!(reads, 4, "one READ per lookup, no chases on a static tree");
        let st = stats(&idx);
        assert_eq!(st.predictions, 4);
        assert_eq!(st.mispredicts, 0);
        assert_eq!(st.fallbacks, 0);
    }

    /// The build trains from the loader's own leaf table, not from a walk
    /// of the chain it just wrote; the two are the same model: the same
    /// table, and the same leaf predicted for every leaf's high key and
    /// for 10 000 random keys, at either page size and with duplicates
    /// straddling leaf boundaries.
    #[test]
    fn the_loaders_table_trains_the_model_a_chain_walk_trains() {
        use crate::chain::FgConfig;
        use simnet::rng::DetRng;
        let default_pages = FgConfig {
            scan_batch: 0,
            ..FgConfig::default()
        };
        for (cfg, n, dup) in [(small_cfg(), 5000u64, 3u64), (default_pages, 100_000, 1)] {
            let sim = Sim::new();
            let nam = NamCluster::new(&sim, ClusterSpec::default());
            let domain = (n / dup + 1) * 8;
            let partition = PartitionMap::range_uniform(nam.num_servers(), domain);
            let items = (0..n).map(|i| ((i / dup) * 8, i));
            let idx = Learned::build(&nam, cfg, partition, items);
            let router = idx.router().expect("built with a router");
            let loaded = router.model().expect("trained at build");
            router.retrain(idx.setup_source(), idx.chain().expect("a chain").first());
            let walked = router.model().expect("retrained");
            assert!(!Rc::ptr_eq(&loaded, &walked), "the walk did not retrain");
            assert_eq!(router.stats().retrains, 2);
            assert_eq!(loaded.table(), walked.table());
            assert!(loaded.table().len() > 100, "{:?}", cfg.layout);
            let mut rng = DetRng::seed_from_u64(28);
            let highs = loaded.table().iter().map(|&(high, _)| high);
            let random = (0..10_000).map(|_| rng.next_u64_below(domain + 64));
            for key in highs.chain(random) {
                assert_eq!(loaded.predict(key), walked.predict(key), "key {key}");
            }
        }
    }

    #[test]
    fn inserts_split_then_drift_retrains() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 500);
        let ep = Endpoint::new(&nam.rdma);
        {
            let idx = idx.clone();
            sim.spawn(async move {
                for i in 0..500u64 {
                    idx.insert(&ep, i * 8 + 1, 90_000 + i, false).await.unwrap();
                }
                for i in 0..500u64 {
                    assert_eq!(idx.lookup(&ep, i * 8 + 1).await.unwrap(), Some(90_000 + i));
                    assert_eq!(idx.lookup(&ep, i * 8).await.unwrap(), Some(i));
                }
            });
        }
        sim.run();
        let st = stats(&idx);
        assert!(st.mispredicts > 0, "doubling the keys must split leaves");
        assert!(st.retrains > 1, "drift must have triggered retraining");
        assert_eq!(st.fallbacks, 0, "no restarts: the model never flushes");
    }

    #[test]
    fn range_spans_predicted_start() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 5000);
        let ep = Endpoint::new(&nam.rdma);
        let out = Rc::new(RefCell::new(Vec::new()));
        {
            let out = out.clone();
            sim.spawn(async move {
                let rows = idx.range(&ep, 1200 * 8, 1399 * 8).await.unwrap();
                out.borrow_mut().extend(rows);
            });
        }
        sim.run();
        let rows = out.borrow();
        assert_eq!(rows.len(), 200);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        drop(nam);
    }

    /// A scan follows the leaves the model names, one READ each. Once a
    /// planned leaf splits, the same scan still returns every row: it
    /// READs the split-born leaf through the split leaf's sibling
    /// pointer, rejoins the plan at the next planned leaf, and counts the
    /// split as one mispredict.
    #[test]
    fn a_scan_leaves_the_plan_at_a_split_and_rejoins_it() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 500);
        let (lo, hi) = (100 * 8, 199 * 8);
        let model = idx.router().expect("a router").model().expect("trained");
        let plan = &model.table()[model.predict_pos(lo)..=model.predict_pos(hi)];
        let n = plan.len() as u64;
        assert!(n > 8, "the range spans {n} leaves");
        // A planned leaf mid-range; keys between its loaded ones fill it.
        let (high, raw) = plan[plan.len() / 2];
        let split = RemotePtr::from_raw(raw);
        let high_now =
            move |idx: &Index| LeafNodeRef::new(&idx.setup_source().load(split)).high_key();
        let mut oracle: Vec<(Key, u64)> = (100..200u64).map(|i| (i * 8, i)).collect();
        let scans = Rc::new(RefCell::new(Vec::new()));
        let inserted = Rc::new(RefCell::new(Vec::new()));
        {
            let (idx, scans, inserted) = (idx.clone(), scans.clone(), inserted.clone());
            let cluster = nam.rdma.clone();
            let ep = Endpoint::new(&cluster);
            sim.spawn(async move {
                let verbs = || {
                    let stats = (0..4).map(|s| cluster.server_stats(s));
                    stats.fold((0, 0), |(r, o), st| (r + st.rpcs, o + st.onesided_ops))
                };
                for round in 0..2 {
                    let (rpcs, reads) = verbs();
                    let rows = idx.range(&ep, lo, hi).await.unwrap();
                    let (rpcs2, reads2) = verbs();
                    let mispredicts = stats(&idx).mispredicts;
                    scans
                        .borrow_mut()
                        .push((rows, rpcs2 - rpcs, reads2 - reads, mispredicts));
                    // Between the scans, fill the planned leaf until it splits.
                    let fill = (0..6).map(|d| high - 1 - 8 * d).filter(|_| round == 0);
                    for key in fill {
                        idx.insert(&ep, key, key, false).await.unwrap();
                        inserted.borrow_mut().push((key, key));
                        if high_now(&idx) != high {
                            break;
                        }
                    }
                }
            });
        }
        sim.run();
        let scans = scans.borrow();
        assert_eq!(scans.len(), 2);
        assert_eq!(
            scans[0],
            (oracle.clone(), 0, n, 0),
            "one READ per planned leaf"
        );
        assert!(high_now(&idx) < high, "the leaf split");
        assert_eq!(
            stats(&idx).mispredicts,
            1,
            "no op but the scan met the split"
        );
        oracle.extend(inserted.borrow().iter().copied());
        oracle.sort_unstable();
        assert_eq!(
            scans[1],
            (oracle, 0, n + 1, 1),
            "the split-born leaf costs one READ, and the split one mispredict"
        );
    }

    #[test]
    fn delete_round_trip() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 300);
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            assert!(idx.delete(&ep, 100 * 8).await.unwrap());
            assert_eq!(idx.lookup(&ep, 100 * 8).await.unwrap(), None);
            assert!(!idx.delete(&ep, 100 * 8).await.unwrap());
        });
        sim.run();
        drop(nam);
    }

    #[test]
    fn restart_flushes_model_and_falls_back() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 1000);
        let ep = Endpoint::new(&nam.rdma);
        // Crash-free warmup so the first epoch is settled.
        {
            let idx = idx.clone();
            sim.spawn(async move {
                assert_eq!(idx.lookup(&ep, 80).await.unwrap(), Some(10));
            });
            sim.run();
        }
        nam.rdma.fail_server(1);
        nam.rdma.restart_server(1);
        // Server 1's pool was rebuilt: the next descent must flush the
        // model (epoch changed) and, with all servers up again, retrain
        // immediately — predictions resume with fresh pointers.
        let ep = Endpoint::new(&nam.rdma);
        let idx2 = idx.clone();
        sim.spawn(async move {
            // A restarted pool loses its pages; only routing behaviour
            // (flush + retrain) is asserted here, not durability.
            let _ = idx2.lookup(&ep, 80).await;
        });
        sim.run();
        let st = stats(&idx);
        assert_eq!(st.epoch_flushes, 1, "restart must flush the model");
        assert!(st.retrains >= 2, "retrain after the flush");
    }
}
