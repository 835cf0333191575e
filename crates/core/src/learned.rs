//! Design 4: learned-index routing for one-RTT point lookups.
//!
//! The paper's three designs all pay a root-to-leaf descent or a full
//! RPC per point lookup. Follow-up systems (Outback, DEX — see
//! PAPERS.md) observe that a compact client-resident *learned model*
//! mapping key → remote leaf address collapses the lookup to a single
//! one-sided READ of the predicted leaf. This module is that fourth
//! family: the storage layout is the hybrid's (server-local upper
//! trees plus fine-grained leaf chain), but clients route with a PGM-style
//! piecewise-linear model ([`learned_index::PgmModel`]) trained over the
//! leaf-level `high_key → leaf pointer` table and shipped through the
//! catalog, touching zero servers on the hot path.
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
//!   drift): the descent chases right siblings, each chase reporting
//!   [`NodeSource::invalidate`], which this source counts as a
//!   mispredict toward the drift rate;
//! * **no model** — after a restart-epoch flush, or when retraining is
//!   blocked by a down server: `start` falls back to the hybrid's
//!   upper-level RPC resolution, so operations proceed (and remain
//!   correct) with the paper's §5 protocol while the model is cold.
//!
//! ## Retrain policy
//!
//! Retraining is *incremental maintenance by replacement*: when the
//! stale-prediction rate since the last training reaches
//! [`rdma_sim::ClusterSpec::learned_retrain_threshold`], the client
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

use blink::node::{kind_of, LeafNodeRef, NodeKind};
use blink::{Key, PageLayout, Value};
use learned_index::PgmModel;
use nam::{NamCluster, PartitionMap};
use rdma_sim::{Cluster, Endpoint, RemotePtr, VerbError};

use crate::engine::{self, TreeWriter};
use crate::fg::FgConfig;
use crate::hybrid::Hybrid;
use crate::onesided::read_unlocked;
use crate::resolve::{CachePolicy, Cached, NodeSource, OpAccess};

/// Counters of the learned routing layer (all client-side; the model
/// itself never issues verbs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearnedStats {
    /// Descent starts answered by the model.
    pub predictions: u64,
    /// Stale routing steps detected downstream of a prediction (sibling
    /// chases reported through [`NodeSource::invalidate`]).
    pub mispredicts: u64,
    /// Model rebuilds (drift-triggered and post-flush).
    pub retrains: u64,
    /// Wholesale model flushes caused by a restart-epoch change.
    pub epoch_flushes: u64,
    /// Descent starts that fell back to the hybrid's upper-level RPC
    /// because no model was available.
    pub fallbacks: u64,
}

/// The learned-routing index: hybrid storage, model-predicted access.
pub struct Learned {
    tree: Rc<Hybrid>,
    /// Current model; `None` after an epoch flush until retraining is
    /// possible again. Never borrowed across an await.
    model: RefCell<Option<Rc<PgmModel>>>,
    /// Restart epoch the model was trained under.
    epoch: Cell<u64>,
    epsilon: u32,
    retrain_threshold: f64,
    model_fanout: usize,
    // Drift window since the last (re)training.
    predictions_since: Cell<u64>,
    mispredicts_since: Cell<u64>,
    // Lifetime totals.
    predictions: Cell<u64>,
    mispredicts: Cell<u64>,
    retrains: Cell<u64>,
    epoch_flushes: Cell<u64>,
    fallbacks: Cell<u64>,
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl Learned {
    /// Build the hybrid layout over `items`, then train the initial
    /// model from its leaf chain. Model knobs come from the cluster
    /// spec (`learned_epsilon`, `learned_retrain_threshold`,
    /// `learned_model_fanout`).
    pub fn build(
        nam: &NamCluster,
        cfg: FgConfig,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> Rc<Self> {
        let spec = nam.rdma.spec().clone();
        let idx = Learned {
            tree: Hybrid::build(nam, cfg, partition, items),
            model: RefCell::new(None),
            epoch: Cell::new(0),
            epsilon: spec.learned_epsilon,
            retrain_threshold: spec.learned_retrain_threshold,
            model_fanout: spec.learned_model_fanout,
            predictions_since: Cell::new(0),
            mispredicts_since: Cell::new(0),
            predictions: Cell::new(0),
            mispredicts: Cell::new(0),
            retrains: Cell::new(0),
            epoch_flushes: Cell::new(0),
            fallbacks: Cell::new(0),
        };
        idx.epoch.set(idx.cluster().restart_epoch());
        idx.retrain();
        Rc::new(idx)
    }

    fn ps(&self) -> usize {
        self.tree.layout().page_size()
    }

    fn cluster(&self) -> &Cluster {
        self.tree.cluster()
    }

    /// The hybrid index the model routes over (its partition map, leaf
    /// chain, and upper-level servers are the source of truth).
    pub fn tree(&self) -> &Rc<Hybrid> {
        &self.tree
    }

    /// Page geometry.
    pub fn layout(&self) -> PageLayout {
        self.tree.layout()
    }

    /// The current model, if one is live (`None` right after a
    /// restart-epoch flush while some server is still down).
    pub fn model(&self) -> Option<Rc<PgmModel>> {
        self.model.borrow().clone()
    }

    /// Routing-layer counters.
    pub fn stats(&self) -> LearnedStats {
        LearnedStats {
            predictions: self.predictions.get(),
            mispredicts: self.mispredicts.get(),
            retrains: self.retrains.get(),
            epoch_flushes: self.epoch_flushes.get(),
            fallbacks: self.fallbacks.get(),
        }
    }

    /// The engine's view of this index. No cache layer: the model *is*
    /// the client-resident routing state, with its own coherence story.
    pub(crate) fn source(&self) -> Cached<'_, Learned> {
        Cached::new(self, None)
    }

    /// Keep the model coherent with cluster state: flush it wholesale on
    /// a restart-epoch change (shipped pointers may dangle into rebuilt
    /// pools), retrain when it is missing or the drift threshold is
    /// reached. Synchronous and verb-free; runs at every descent start.
    fn sync_model(&self) {
        let now = self.cluster().restart_epoch();
        if now != self.epoch.get() {
            self.epoch.set(now);
            *self.model.borrow_mut() = None;
            self.epoch_flushes.set(self.epoch_flushes.get() + 1);
            self.predictions_since.set(0);
            self.mispredicts_since.set(0);
        }
        let missing = self.model.borrow().is_none();
        if missing || self.drift_rate() >= self.retrain_threshold {
            self.retrain();
        }
    }

    fn drift_rate(&self) -> f64 {
        let n = self.predictions_since.get();
        if n == 0 {
            return 0.0;
        }
        self.mispredicts_since.get() as f64 / n as f64
    }

    /// Rebuild the model from the live leaf chain over the untimed setup
    /// path. Skipped while any memory server is down (`setup_read` into
    /// a rebuilt pool would capture garbage); the caller keeps falling
    /// back to RPC resolution until the cluster is whole. The walk is
    /// defensive: a chain snapshot torn by a concurrent SMO aborts the
    /// rebuild and keeps the previous model (staleness is safe, see the
    /// module docs).
    fn retrain(&self) {
        let cluster = self.cluster();
        if !(0..cluster.num_servers()).all(|s| cluster.server_up(s)) {
            return;
        }
        let src = self.tree.setup_source();
        let mut table: Vec<(Key, u64)> = Vec::new();
        // An untimed control-path snapshot, not a wire READ: a torn
        // chain aborts the rebuild below (non-chain page kind).
        for (ptr, page) in src.chain(self.tree.first()) {
            match kind_of(&page) {
                NodeKind::Head => {}
                NodeKind::Leaf => table.push((LeafNodeRef::new(&page).high_key(), ptr.raw())),
                // A non-chain page in the chain: torn snapshot, abort.
                NodeKind::Inner => return,
            }
        }
        let intact = !table.is_empty()
            && table.is_sorted_by(|a, b| a.0 < b.0)
            && table.last().map(|e| e.0) == Some(blink::KEY_MAX);
        if !intact {
            return;
        }
        let model = PgmModel::train(table, self.epsilon, self.model_fanout);
        *self.model.borrow_mut() = Some(Rc::new(model));
        self.retrains.set(self.retrains.get() + 1);
        self.predictions_since.set(0);
        self.mispredicts_since.set(0);
    }

    /// Point lookup: one one-sided READ of the predicted leaf on a model
    /// hit (plus sibling chases on drift).
    pub async fn lookup(&self, ep: &Endpoint, key: Key) -> Result<Option<Value>, VerbError> {
        engine::lookup(&self.source(), ep, key).await
    }

    /// Range query: predict the leaf covering `lo`, then the §4.3 chain
    /// scan (a too-far-left prediction only adds leading chain steps).
    pub async fn range(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        engine::range(&self.source(), ep, lo, hi).await
    }

    /// Insert through the predicted leaf with the §4 one-sided install;
    /// splits register with the hybrid's upper levels over RPC, and the
    /// model picks the change up through drift-triggered retraining.
    pub async fn insert(&self, ep: &Endpoint, key: Key, value: Value) -> Result<(), VerbError> {
        engine::insert(&self.source(), ep, key, value, false).await
    }

    /// Tombstone-delete through the predicted leaf.
    pub async fn delete(&self, ep: &Endpoint, key: Key) -> Result<bool, VerbError> {
        engine::delete(&self.source(), ep, key).await
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl NodeSource for Learned {
    /// Predictions resolve straight to the leaf chain; the client never
    /// descends inner levels (there are none visible to it).
    const CLIENT_DESCENT: bool = false;

    fn layout(&self) -> PageLayout {
        self.tree.layout()
    }

    fn cache_policy(&self) -> CachePolicy {
        CachePolicy::Routes
    }

    async fn start(
        &self,
        ep: &Endpoint,
        key: Key,
        access: OpAccess,
    ) -> Result<RemotePtr, VerbError> {
        self.sync_model();
        // `sync_model` just reconciled the model against the cluster
        // restart epoch — the same fence the cache layer evaluates.
        crate::note_epoch_check(ep);
        let predicted = self.model.borrow().as_ref().map(|m| m.predict(key));
        if let Some(ptr) = predicted {
            self.predictions.set(self.predictions.get() + 1);
            self.predictions_since.set(self.predictions_since.get() + 1);
            // A prediction is a served client-resident artifact: its
            // pointer derives from reads of a past leaf-chain snapshot.
            crate::note_fence(ep, rdma_sim::FenceKind::CachedUse, ptr);
            return Ok(ptr);
        }
        // No model (epoch flush with a server still down, or a torn
        // rebuild): the hybrid's upper-level RPC resolution carries the
        // operation.
        self.fallbacks.set(self.fallbacks.get() + 1);
        self.tree.start(ep, key, access).await
    }

    async fn load(&self, ep: &Endpoint, ptr: RemotePtr) -> Result<rdma_sim::PageBuf, VerbError> {
        // Mutation (race, `mutations` builds under
        // NAMDEX_RACE_MUT=learned-no-reread): read the predicted page
        // raw, skipping `read_unlocked`'s locked-spin re-read, so a
        // mid-write snapshot can escape into the descent.
        if crate::race_mut(crate::RaceMut::LearnedNoReread) {
            return ep.read(ptr, self.ps()).await;
        }
        read_unlocked(ep, ptr, self.ps()).await
    }

    fn invalidate(&self, ep: &Endpoint, key: Key, origin: RemotePtr) {
        // Every stale routing step downstream of a prediction is a
        // mispredict; the rate since the last training drives retrain.
        self.mispredicts.set(self.mispredicts.get() + 1);
        self.mispredicts_since.set(self.mispredicts_since.get() + 1);
        self.tree.invalidate(ep, key, origin);
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl TreeWriter for Learned {
    async fn alloc(&self, ep: &Endpoint) -> Result<RemotePtr, VerbError> {
        engine::rr_alloc(ep, self.tree.alloc_cursor(), self.ps()).await
    }

    /// Splits register with the hybrid's upper levels exactly as in
    /// design 3 (the fallback path must stay correct); the model itself
    /// is not patched in place — the affected entry simply goes stale,
    /// counts mispredicts, and drift-triggered retraining replaces it.
    async fn complete_split(
        &self,
        ep: &Endpoint,
        path: Vec<RemotePtr>,
        sep: Key,
        left: RemotePtr,
        right: RemotePtr,
        old_high: Key,
    ) -> Result<(), VerbError> {
        self.tree
            .complete_split(ep, path, sep, left, right, old_high)
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::ClusterSpec;
    use simnet::Sim;

    fn small_cfg() -> FgConfig {
        FgConfig {
            layout: PageLayout::new(200),
            fill: 0.7,
            head_stride: 4,
            cache_capacity: None,
        }
    }

    fn build(sim: &Sim, n: u64) -> (NamCluster, Rc<Learned>) {
        let nam = NamCluster::new(sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), n * 8);
        let idx = Learned::build(&nam, small_cfg(), partition, (0..n).map(|i| (i * 8, i)));
        (nam, idx)
    }

    #[test]
    fn static_lookup_is_one_read() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 5000);
        assert_eq!(idx.stats().retrains, 1, "built with a trained model");
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
        let st = idx.stats();
        assert_eq!(st.predictions, 4);
        assert_eq!(st.mispredicts, 0);
        assert_eq!(st.fallbacks, 0);
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
                    idx.insert(&ep, i * 8 + 1, 90_000 + i).await.unwrap();
                }
                for i in 0..500u64 {
                    assert_eq!(idx.lookup(&ep, i * 8 + 1).await.unwrap(), Some(90_000 + i));
                    assert_eq!(idx.lookup(&ep, i * 8).await.unwrap(), Some(i));
                }
            });
        }
        sim.run();
        let st = idx.stats();
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
        let st = idx.stats();
        assert_eq!(st.epoch_flushes, 1, "restart must flush the model");
        assert!(st.retrains >= 2, "retrain after the flush");
    }
}
