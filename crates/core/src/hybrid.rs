//! Design 3 (§5): hybrid scheme.
//!
//! Upper levels (root + inner nodes) are partitioned coarse-grained —
//! each memory server holds a local tree over the leaf high keys in its
//! key range, mapping them to leaf remote pointers. The leaf level is
//! distributed fine-grained: leaves are scattered round-robin over *all*
//! servers (with optional head nodes), so even under attribute-value
//! skew leaf traffic spreads across the aggregated bandwidth.
//!
//! Access combines both protocols: a two-sided RPC traverses the upper
//! levels and returns only the covering leaf's remote pointer (§5.2);
//! the compute server then reads/updates the leaf with the one-sided
//! protocol of §4. The one-sided leaf protocol itself lives in
//! [`crate::engine`]; this module configures it: the [`NodeSource`] here
//! answers "the descent starts where the upper-level RPC says, bytes
//! come from one-sided READs of chain pages", and the engine's
//! `TreeWriter` hook reports leaf splits back over a second RPC that
//! installs the new separator into the upper levels.
//!
//! With `cache_capacity` set, resolved `high_key → leaf pointer` routes
//! are cached client-side so repeat descents skip the resolution RPC,
//! under the validation rule documented in [`crate::resolve`].
//!
//! Every operation surfaces verb failures (`VerbError`) to the caller;
//! retry policy lives one level up, in [`crate::Design`].

use std::cell::Cell;
use std::rc::Rc;

use blink::{Key, LocalTree, PageLayout, Value};
use nam::{handler_cpu_time, msg, DurableTree, NamCluster, PartitionMap, ServerNode};
use rdma_sim::{Cluster, Endpoint, RemotePtr, RpcReply, VerbError, WalRecord};
use simnet::Sim;

use crate::cache::CacheLayer;
use crate::engine::{self, TreeWriter};
use crate::fg::{build_leaf_level, FgConfig};
use crate::onesided::read_unlocked;
use crate::resolve::{CachePolicy, Cached, NodeSource, OpAccess, SetupSource};

/// The hybrid index.
pub struct Hybrid {
    cluster: Cluster,
    sim: Sim,
    nodes: Vec<Rc<ServerNode>>,
    partition: PartitionMap,
    layout: PageLayout,
    /// Start of the fine-grained leaf chain.
    first: Cell<RemotePtr>,
    /// Round-robin cursor for new leaf placement.
    alloc_rr: Cell<usize>,
    cache: Option<CacheLayer>,
}

impl Hybrid {
    /// Build the index: a fine-grained leaf chain over all servers, plus
    /// per-server upper-level trees mapping leaf high keys (within the
    /// server's partition) to leaf remote pointers.
    pub fn build(
        nam: &NamCluster,
        cfg: FgConfig,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> Rc<Self> {
        let n = nam.num_servers();
        assert_eq!(partition.num_servers(), n, "partition map mismatch");
        assert!(
            matches!(partition, PartitionMap::Range { .. }),
            "hybrid upper levels require range partitioning (high keys \
             must be routable)"
        );
        // The leaf level uses blink's one-sided lock protocol; teach the
        // transport's fault injector what an acquire CAS looks like.
        nam.rdma
            .set_lock_acquire_shape(blink::layout::lock_word::is_acquire);
        let rr = Cell::new(0);
        let leaf_level = build_leaf_level(&nam.rdma, &cfg, items, &rr);

        // Partition (high_key -> leaf ptr) pairs by the high key.
        let mut per_server: Vec<Vec<(Key, Value)>> = vec![Vec::new(); n];
        for &(high, ptr) in &leaf_level.leaves {
            per_server[partition.server_of(high)].push((high, ptr.raw()));
        }
        // Each index owns its per-server upper-level state.
        let nodes: Vec<Rc<ServerNode>> = (0..n).map(|_| Rc::new(ServerNode::new())).collect();
        for (s, pairs) in per_server.into_iter().enumerate() {
            nodes[s].install_tree(LocalTree::bulk_load(cfg.layout, pairs, cfg.fill));
            // The upper levels live outside the pool: expose them to the
            // transport's crash-recovery machinery. (Leaves live *in* the
            // pool and recover from PoolWrite/PoolAllocTo records.)
            nam.rdma.register_durable_state(
                s,
                Rc::new(DurableTree::new(nodes[s].clone(), cfg.layout, cfg.fill)),
            );
        }
        // Seal the bulk-loaded leaves + upper levels as the fiat
        // recovery baseline; setup writes are never replayed.
        nam.rdma.seal_setup();

        Rc::new(Hybrid {
            cluster: nam.rdma.clone(),
            sim: nam.rdma.sim().clone(),
            nodes,
            partition,
            layout: cfg.layout,
            first: Cell::new(leaf_level.first),
            alloc_rr: rr,
            cache: cfg
                .cache_capacity
                .map(|cap| CacheLayer::new(&nam.rdma, cap)),
        })
    }

    fn ps(&self) -> usize {
        self.layout.page_size()
    }

    /// The partition map of the upper levels.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// Start of the leaf chain.
    pub fn first(&self) -> RemotePtr {
        self.first.get()
    }

    /// Round-robin placement cursor, shared with wrappers (the learned
    /// design) that allocate split pages on this tree's behalf.
    pub(crate) fn alloc_cursor(&self) -> &Cell<usize> {
        &self.alloc_rr
    }

    /// Page geometry.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// The cluster this index lives on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Per-server upper-level state (for the GC driver).
    pub fn nodes(&self) -> &[Rc<ServerNode>] {
        &self.nodes
    }

    /// The client-side route cache, if `cache_capacity` enabled one.
    pub fn cache(&self) -> Option<&CacheLayer> {
        self.cache.as_ref()
    }

    /// The engine's view of this index: a (possibly caching) node
    /// source over the upper-level RPC handoff.
    pub(crate) fn source(&self) -> Cached<'_, Hybrid> {
        Cached::new(self, self.cache.as_ref())
    }

    /// Untimed page-resolution view for control-path walks (checker).
    pub fn setup_source(&self) -> SetupSource {
        SetupSource::new(&self.cluster, self.layout)
    }
}

/// The operation path: errors are typed, nothing here may panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl Hybrid {
    /// Server `s`'s upper-level tree.
    #[allow(
        clippy::indexing_slicing,
        reason = "the partition map only yields server ids below the cluster size it was built with"
    )]
    fn node(&self, s: usize) -> Rc<ServerNode> {
        self.nodes[s].clone()
    }

    /// RPC the upper levels for the leaf covering `key` (§5.2: the RPC
    /// returns only the remote pointer). Falls back to successive
    /// servers when the covering leaf's high key lives in a later
    /// partition.
    async fn leaf_ptr_for(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
    ) -> Result<RemotePtr, VerbError> {
        let mut s = self.partition.server_of(key);
        // Falls through to the next partition only when the covering
        // leaf's high key lives there; the rightmost leaf (high key =
        // +inf) bounds the probe, and the trailing assert! bounds `s`
        // before the next index.
        loop {
            let node = self.node(s);
            let spec = self.cluster.spec().clone();
            let found: Option<u64> = if ep.is_local(s) {
                // Co-located fast path (Appendix A.3).
                let (res, work) = node.with_tree(|t| t.ceiling(key));
                ep.local_work(s, handler_cpu_time(&spec, work), msg::leaf_ptr_resp())
                    .await?;
                res.map(|(_, ptr_raw)| ptr_raw)
            } else {
                ep.rpc(s, req_bytes, move || {
                    let (res, work) = node.with_tree(|t| t.ceiling(key));
                    RpcReply {
                        value: res.map(|(_, ptr_raw)| ptr_raw),
                        cpu: handler_cpu_time(&spec, work),
                        resp_bytes: msg::leaf_ptr_resp(),
                    }
                })
                .await?
            };
            if let Some(raw) = found {
                return Ok(RemotePtr::from_raw(raw));
            }
            s += 1;
            assert!(
                s < self.nodes.len(),
                "rightmost leaf (high key = +inf) must be registered"
            );
        }
    }

    /// Point lookup: RPC for the leaf pointer, then one-sided leaf READ.
    pub async fn lookup(&self, ep: &Endpoint, key: Key) -> Result<Option<Value>, VerbError> {
        engine::lookup(&self.source(), ep, key).await
    }

    /// Range query: RPC for the starting leaf, then a fine-grained chain
    /// scan with head-node prefetch. A concurrent split may route us to
    /// a leaf left of `lo`'s final position; the chain scan handles that
    /// by skipping non-matching keys.
    pub async fn range(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        engine::range(&self.source(), ep, lo, hi).await
    }

    /// Insert: RPC for the leaf pointer, one-sided leaf install (§4
    /// protocol); on a split, report the new leaf back over RPC so the
    /// memory server installs it into the upper levels (§5.2). See
    /// `engine::insert` for the exactly-once retry-absorption
    /// contract under [`crate::Design`].
    pub async fn insert(&self, ep: &Endpoint, key: Key, value: Value) -> Result<(), VerbError> {
        engine::insert(&self.source(), ep, key, value, false).await
    }

    /// Tombstone-delete `key` with the one-sided leaf protocol.
    pub async fn delete(&self, ep: &Endpoint, key: Key) -> Result<bool, VerbError> {
        engine::delete(&self.source(), ep, key).await
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl NodeSource for Hybrid {
    /// The upper levels are server-local: `start` already resolves to
    /// the leaf chain, the client never descends inner levels.
    const CLIENT_DESCENT: bool = false;

    fn layout(&self) -> PageLayout {
        self.layout
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
        let req_bytes = match access {
            OpAccess::Lookup => msg::lookup_req(),
            OpAccess::Range => msg::range_req(),
            OpAccess::Insert => msg::insert_req(),
            OpAccess::Delete => msg::delete_req(),
        };
        self.leaf_ptr_for(ep, key, req_bytes).await
    }

    async fn load(&self, ep: &Endpoint, ptr: RemotePtr) -> Result<rdma_sim::PageBuf, VerbError> {
        read_unlocked(ep, ptr, self.ps()).await
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl TreeWriter for Hybrid {
    async fn alloc(&self, ep: &Endpoint) -> Result<RemotePtr, VerbError> {
        engine::rr_alloc(ep, &self.alloc_rr, self.ps()).await
    }

    /// Upper-level registration of a committed leaf split. Order
    /// matters: first map `sep -> left` (new entry), then repoint
    /// `old_high -> right`; in the interim, stale routing is corrected
    /// by B-link sibling chases. (A committed split whose registration
    /// RPC then fails stays reachable the same way: routing lands on a
    /// leaf to its left and chases correct it.)
    async fn complete_split(
        &self,
        ep: &Endpoint,
        _path: Vec<RemotePtr>,
        sep: Key,
        left: RemotePtr,
        right: RemotePtr,
        old_high: Key,
    ) -> Result<(), VerbError> {
        let s_new = self.partition.server_of(sep);
        let s_old = self.partition.server_of(old_high);
        if s_new == s_old {
            let node = self.node(s_new);
            let spec = self.cluster.spec().clone();
            let sim = self.sim.clone();
            let cluster = self.cluster.clone();
            let (left_raw, right_raw) = (left.raw(), right.raw());
            ep.rpc(s_new, msg::install_leaf_req(), move || {
                let (leaf_page, repointed, mut work) = node.with_tree(|t| {
                    let (leaf, w) = t.insert_at_leaf(sep, left_raw);
                    let (repointed, w2) = t.update_value(old_high, right_raw);
                    let mut w = w;
                    w.absorb(w2);
                    (leaf, repointed, w)
                });
                // Log the upper-level mutations before the ack can form.
                cluster.wal_append(
                    s_new,
                    WalRecord::TreeInsert {
                        key: sep,
                        value: left_raw,
                    },
                );
                if repointed {
                    cluster.wal_append(
                        s_new,
                        WalRecord::TreeUpsert {
                            key: old_high,
                            value: right_raw,
                        },
                    );
                }
                work.entries_scanned += 1;
                let wait = node
                    .locks
                    .acquire(leaf_page.raw(), sim.now(), spec.leaf_lock_hold);
                // Upper levels carry only their share of write overhead:
                // leaf writes and leaf GC are client-side in the hybrid.
                RpcReply {
                    value: (),
                    cpu: handler_cpu_time(&spec, work) + spec.cpu_insert_extra / 4 + wait,
                    resp_bytes: msg::ack(),
                }
            })
            .await?;
        } else {
            // Cross-partition: two RPCs, new entry first.
            let node = self.node(s_new);
            let spec = self.cluster.spec().clone();
            let sim = self.sim.clone();
            let cluster = self.cluster.clone();
            let left_raw = left.raw();
            ep.rpc(s_new, msg::install_leaf_req(), move || {
                let (leaf_page, work) = node.with_tree(|t| t.insert_at_leaf(sep, left_raw));
                cluster.wal_append(
                    s_new,
                    WalRecord::TreeInsert {
                        key: sep,
                        value: left_raw,
                    },
                );
                let wait = node
                    .locks
                    .acquire(leaf_page.raw(), sim.now(), spec.leaf_lock_hold);
                RpcReply {
                    value: (),
                    cpu: handler_cpu_time(&spec, work) + spec.cpu_insert_extra / 4 + wait,
                    resp_bytes: msg::ack(),
                }
            })
            .await?;
            let node = self.node(s_old);
            let spec = self.cluster.spec().clone();
            let cluster = self.cluster.clone();
            let right_raw = right.raw();
            ep.rpc(s_old, msg::install_leaf_req(), move || {
                let (repointed, work) = node.with_tree(|t| t.update_value(old_high, right_raw));
                if repointed {
                    cluster.wal_append(
                        s_old,
                        WalRecord::TreeUpsert {
                            key: old_high,
                            value: right_raw,
                        },
                    );
                }
                RpcReply {
                    value: (),
                    cpu: handler_cpu_time(&spec, work),
                    resp_bytes: msg::ack(),
                }
            })
            .await?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::ClusterSpec;
    use simnet::Sim;
    use std::cell::{Cell, RefCell};

    fn small_cfg() -> FgConfig {
        FgConfig {
            layout: PageLayout::new(200),
            fill: 0.7,
            head_stride: 4,
            cache_capacity: None,
        }
    }

    fn build(sim: &Sim, n: u64) -> (NamCluster, Rc<Hybrid>) {
        let nam = NamCluster::new(sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), n * 8);
        let idx = Hybrid::build(&nam, small_cfg(), partition, (0..n).map(|i| (i * 8, i)));
        (nam, idx)
    }

    #[test]
    fn lookup_via_rpc_plus_one_read() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 5000);
        let ep = Endpoint::new(&nam.rdma);
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let got = got.clone();
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
        // One RPC + one one-sided READ per lookup (modulo chain steps).
        let rpcs: u64 = (0..4).map(|s| nam.rdma.server_stats(s).rpcs).sum();
        let reads: u64 = (0..4).map(|s| nam.rdma.server_stats(s).onesided_ops).sum();
        assert_eq!(rpcs, 4);
        assert!((4..=8).contains(&reads), "got {reads} READs");
    }

    #[test]
    fn leaves_scatter_under_skewed_partition() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let n = 5000u64;
        let partition = PartitionMap::range_fractions(&[0.80, 0.12, 0.05, 0.03], n * 8);
        let idx = Hybrid::build(&nam, small_cfg(), partition, (0..n).map(|i| (i * 8, i)));
        // Leaf pages are spread round-robin despite the skewed partition.
        for s in 0..4 {
            let bytes = nam.rdma.with_pool(s, |p| p.allocated());
            assert!(bytes > 50 * 200, "server {s} must hold leaves: {bytes}");
        }
        drop(idx);
    }

    #[test]
    fn range_spans_partitions() {
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
    }

    #[test]
    fn insert_with_splits_and_upper_registration() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 500);
        let ep = Endpoint::new(&nam.rdma);
        let idx2 = idx.clone();
        sim.spawn(async move {
            for i in 0..500u64 {
                idx2.insert(&ep, i * 8 + 1, 90_000 + i).await.unwrap();
            }
            for i in 0..500u64 {
                assert_eq!(idx2.lookup(&ep, i * 8 + 1).await.unwrap(), Some(90_000 + i));
                assert_eq!(idx2.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
        sim.run();
    }

    #[test]
    fn concurrent_inserts_all_survive() {
        let sim = Sim::new();
        let (nam, idx) = build(&sim, 1000);
        for c in 0..6u64 {
            let idx = idx.clone();
            let ep = Endpoint::new(&nam.rdma);
            sim.spawn(async move {
                for i in 0..40u64 {
                    idx.insert(&ep, (i * 6 + c) * 8 + 3, c * 1000 + i)
                        .await
                        .unwrap();
                }
            });
        }
        sim.run();
        let ep = Endpoint::new(&nam.rdma);
        let ok = Rc::new(Cell::new(0u32));
        {
            let idx = idx.clone();
            let ok = ok.clone();
            sim.spawn(async move {
                for c in 0..6u64 {
                    for i in 0..40u64 {
                        if idx.lookup(&ep, (i * 6 + c) * 8 + 3).await.unwrap() == Some(c * 1000 + i)
                        {
                            ok.set(ok.get() + 1);
                        }
                    }
                }
            });
        }
        sim.run();
        assert_eq!(ok.get(), 240);
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
            let rows = idx.range(&ep, 99 * 8, 101 * 8).await.unwrap();
            assert_eq!(rows.len(), 2, "tombstoned entry must not scan");
        });
        sim.run();
    }
}
