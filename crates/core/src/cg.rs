//! Design 1 (§3): coarse-grained distribution, two-sided access.
//!
//! The key space is partitioned (range- or hash-based) across memory
//! servers; each server builds a *local* B-link tree over its keys
//! (inner and leaf nodes co-located). Compute servers ship operations to
//! the owning server as RPCs over two-sided SEND/RECV (reliable
//! connections, shared receive queues); the handler traverses the local
//! tree with optimistic lock coupling (Listing 1).
//!
//! Cost profile (Table 2): point lookups are maximally network-efficient
//! (one key up, one value down) but every operation consumes memory-server
//! CPU, so the design saturates on handler cores; under attribute-value
//! skew most requests hit one server, capping throughput at a single
//! server's resources.
//!
//! Every operation surfaces verb failures (`VerbError`) to the caller;
//! retry policy lives one level up, in [`crate::Design`].

use std::rc::Rc;

use blink::{Key, LocalTree, PageLayout, Ptr, Value, WorkStats};
use nam::{handler_cpu_time, msg, DurableTree, NamCluster, PartitionMap, ServerNode};
use rdma_sim::{Cluster, Endpoint, RpcReply, VerbError, WalRecord};
use simnet::{Sim, SimDur};

use crate::engine::RangeProgress;

/// The coarse-grained / two-sided index.
pub struct CoarseGrained {
    cluster: Cluster,
    sim: Sim,
    nodes: Vec<Rc<ServerNode>>,
    partition: PartitionMap,
}

impl CoarseGrained {
    /// Build the index: partition `items` (sorted by key) per the map and
    /// bulk-load one local tree per memory server. `fill` is the node
    /// fill factor.
    pub fn build(
        nam: &NamCluster,
        layout: PageLayout,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
        fill: f64,
    ) -> Rc<Self> {
        let n = nam.num_servers();
        assert_eq!(
            partition.num_servers(),
            n,
            "partition map does not match the cluster"
        );
        // CG takes no one-sided locks itself, but fault plans are shared
        // across designs: install the acquire shape so a
        // KillOnNextLockAcquire event arms cleanly here too (it simply
        // never fires — CG issues no lock CAS).
        nam.rdma
            .set_lock_acquire_shape(blink::layout::lock_word::is_acquire);
        // Partition, preserving key order within each server.
        let mut per_server: Vec<Vec<(Key, Value)>> = vec![Vec::new(); n];
        for (k, v) in items {
            per_server[partition.server_of(k)].push((k, v));
        }
        // Each index owns its per-server state (a memory server hosts
        // one ServerNode per index it serves).
        let nodes: Vec<Rc<ServerNode>> = (0..n).map(|_| Rc::new(ServerNode::new())).collect();
        for (s, data) in per_server.into_iter().enumerate() {
            nodes[s].install_tree(LocalTree::bulk_load(layout, data, fill));
            // Local trees hold the only copy of this partition's entries:
            // expose them to the transport's crash-recovery machinery
            // (wipe on crash, fuzzy-checkpoint snapshots, log replay).
            nam.rdma.register_durable_state(
                s,
                Rc::new(DurableTree::new(nodes[s].clone(), layout, fill)),
            );
        }
        // The bulk-loaded image is the recovery baseline; loading it is
        // setup, not logged work, so seal it as a fiat checkpoint.
        nam.rdma.seal_setup();
        Rc::new(CoarseGrained {
            cluster: nam.rdma.clone(),
            sim: nam.rdma.sim().clone(),
            nodes,
            partition: partition.clone(),
        })
    }

    /// The partition map in use.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }
}

/// The operation path: errors are typed, nothing here may panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl CoarseGrained {
    /// Server `s`'s local tree.
    #[allow(
        clippy::indexing_slicing,
        reason = "the partition map only yields server ids below the cluster size it was built with"
    )]
    fn node(&self, s: usize) -> Rc<ServerNode> {
        self.nodes[s].clone()
    }

    /// Point lookup via one RPC to the owning server; co-located compute
    /// servers traverse the local tree directly (Appendix A.3).
    pub async fn lookup(&self, ep: &Endpoint, key: Key) -> Result<Option<Value>, VerbError> {
        let s = self.partition.server_of(key);
        let node = self.node(s);
        let spec = self.cluster.spec().clone();
        if ep.is_local(s) {
            let (value, work) = node.with_tree(|t| t.get(key));
            ep.local_work(s, handler_cpu_time(&spec, work), msg::lookup_resp())
                .await?;
            return Ok(value);
        }
        ep.rpc(s, msg::lookup_req(), move || {
            let (value, work) = node.with_tree(|t| t.get(key));
            RpcReply {
                value,
                cpu: handler_cpu_time(&spec, work),
                resp_bytes: msg::lookup_resp(),
            }
        })
        .await
    }

    /// Range query: one RPC per server whose partition intersects
    /// `[lo, hi]` (hash partitioning broadcasts to all servers — the
    /// `H·P·S` term of Table 2). Results are merged in key order.
    pub async fn range(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        let progress = RangeProgress::default();
        self.range_with(ep, lo, hi, &progress).await
    }

    /// One attempt of [`CoarseGrained::range`] under a retry layer:
    /// `progress` (shared across attempts, created per *operation*)
    /// records which servers already shipped their rows, so a retried
    /// hash-partition *broadcast* skips them instead of re-RPCing every
    /// server — partial work survives the failed attempt and telemetry
    /// counts each server once. Range partitions re-query their (few)
    /// covering servers per attempt, unchanged.
    pub async fn range_with(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
        progress: &RangeProgress,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        let servers = self.partition.servers_for_range(lo, hi);
        let broadcast = matches!(self.partition, PartitionMap::Hash { .. });
        if !broadcast {
            progress.reset();
        }
        for s in servers {
            if progress.is_done(s) {
                continue;
            }
            let node = self.node(s);
            let spec = self.cluster.spec().clone();
            if ep.is_local(s) {
                let mut rows = Vec::new();
                let (work, page_size) =
                    node.with_tree(|t| (t.range(lo, hi, &mut rows), t.layout().page_size()));
                let bytes = msg::range_resp_pages(work.leaves_scanned as usize, page_size);
                ep.local_work(s, handler_cpu_time(&spec, work), bytes)
                    .await?;
                progress.record(s, rows);
                continue;
            }
            let part = ep
                .rpc(s, msg::range_req(), move || {
                    let mut rows = Vec::new();
                    let (work, page_size) =
                        node.with_tree(|t| (t.range(lo, hi, &mut rows), t.layout().page_size()));
                    // The handler ships the qualifying leaf pages (§6.1).
                    let resp = msg::range_resp_pages(work.leaves_scanned as usize, page_size);
                    RpcReply {
                        value: rows,
                        cpu: handler_cpu_time(&spec, work),
                        resp_bytes: resp,
                    }
                })
                .await?;
            progress.record(s, part);
        }
        // Hash partitions interleave in key space: merge re-sorts.
        Ok(progress.merge(broadcast))
    }

    /// Handler body of an insert: applies
    /// [`crate::engine::apply_insert_local`] — the engine's exactly-once
    /// absorption rule for retried inserts, enforced server-side because
    /// CG ships whole operations as RPCs. Returns the leaf to lock
    /// (none when the retry was absorbed) and the CPU work to charge.
    fn insert_apply(
        node: &ServerNode,
        key: Key,
        value: Value,
        retrying: bool,
    ) -> (Option<Ptr>, WorkStats) {
        node.with_tree(|t| crate::engine::apply_insert_local(t, key, value, retrying))
    }

    /// Insert via one RPC; the handler takes the leaf page lock (local
    /// CAS) and its spin-wait occupies the handler core. `retrying`
    /// marks attempts after the first so the handler can absorb a
    /// duplicate from a lost-response retry (see `Self::insert_apply`).
    pub async fn insert(
        &self,
        ep: &Endpoint,
        key: Key,
        value: Value,
        retrying: bool,
    ) -> Result<(), VerbError> {
        let s = self.partition.server_of(key);
        let node = self.node(s);
        let spec = self.cluster.spec().clone();
        let sim = self.sim.clone();
        if ep.is_local(s) {
            let (leaf, work) = Self::insert_apply(&node, key, value, retrying);
            if leaf.is_some() {
                // The tree mutated: log it before the ack can form.
                // Absorbed retries log nothing — the prior attempt's
                // record went durable before its (lost) response left.
                self.cluster
                    .wal_append(s, WalRecord::TreeInsert { key, value });
            }
            let wait = match leaf {
                Some(leaf) => node
                    .locks
                    .acquire(leaf.raw(), sim.now(), spec.leaf_lock_hold),
                None => SimDur::ZERO,
            };
            let busy = handler_cpu_time(&spec, work) + spec.cpu_insert_extra + wait;
            ep.local_work(s, busy, msg::ack()).await?;
            return ep.durability_barrier(s).await;
        }
        let cluster = self.cluster.clone();
        ep.rpc(s, msg::insert_req(), move || {
            let (leaf, work) = Self::insert_apply(&node, key, value, retrying);
            if leaf.is_some() {
                cluster.wal_append(s, WalRecord::TreeInsert { key, value });
            }
            let wait = match leaf {
                Some(leaf) => node
                    .locks
                    .acquire(leaf.raw(), sim.now(), spec.leaf_lock_hold),
                None => SimDur::ZERO,
            };
            RpcReply {
                value: (),
                cpu: handler_cpu_time(&spec, work) + spec.cpu_insert_extra + wait,
                resp_bytes: msg::ack(),
            }
        })
        .await
    }

    /// Tombstone delete via one RPC (delete bit per entry, §3.2); space
    /// is reclaimed by the per-server epoch GC.
    pub async fn delete(&self, ep: &Endpoint, key: Key) -> Result<bool, VerbError> {
        let s = self.partition.server_of(key);
        let node = self.node(s);
        let spec = self.cluster.spec().clone();
        let sim = self.sim.clone();
        if ep.is_local(s) {
            let (deleted, leaf, work) = node.with_tree(|t| t.delete_at_leaf(key));
            if deleted {
                self.cluster.wal_append(s, WalRecord::TreeDelete { key });
            }
            let wait = node
                .locks
                .acquire(leaf.raw(), sim.now(), spec.leaf_lock_hold);
            let busy = handler_cpu_time(&spec, work) + spec.cpu_insert_extra + wait;
            ep.local_work(s, busy, msg::ack()).await?;
            ep.durability_barrier(s).await?;
            return Ok(deleted);
        }
        let cluster = self.cluster.clone();
        ep.rpc(s, msg::delete_req(), move || {
            let (deleted, leaf, work) = node.with_tree(|t| t.delete_at_leaf(key));
            if deleted {
                cluster.wal_append(s, WalRecord::TreeDelete { key });
            }
            // Deletes lock the leaf like inserts do (§3.2).
            let wait = node
                .locks
                .acquire(leaf.raw(), sim.now(), spec.leaf_lock_hold);
            RpcReply {
                value: deleted,
                cpu: handler_cpu_time(&spec, work) + spec.cpu_insert_extra + wait,
                resp_bytes: msg::ack(),
            }
        })
        .await
    }

    /// Per-server state handles (used by the GC driver).
    pub fn nodes(&self) -> &[Rc<ServerNode>] {
        &self.nodes
    }

    /// The cluster this index lives on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::ClusterSpec;
    use std::cell::RefCell;

    fn build_index(sim: &Sim, n_keys: u64) -> (NamCluster, Rc<CoarseGrained>) {
        let nam = NamCluster::new(sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), n_keys * 8);
        let items = (0..n_keys).map(|i| (i * 8, i));
        let idx = CoarseGrained::build(&nam, PageLayout::default(), partition, items, 0.7);
        (nam, idx)
    }

    #[test]
    fn lookup_across_partitions() {
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 10_000);
        let ep = Endpoint::new(&nam.rdma);
        let results = Rc::new(RefCell::new(Vec::new()));
        {
            let results = results.clone();
            sim.spawn(async move {
                for i in [0u64, 17, 2_500, 5_000, 9_999] {
                    let got = idx.lookup(&ep, i * 8).await.unwrap();
                    results.borrow_mut().push(got);
                }
                let got = idx.lookup(&ep, 3).await.unwrap();
                results.borrow_mut().push(got); // absent
            });
        }
        sim.run();
        let r = results.borrow();
        assert_eq!(
            *r,
            vec![
                Some(0),
                Some(17),
                Some(2_500),
                Some(5_000),
                Some(9_999),
                None
            ]
        );
        // Requests were spread over all 4 servers.
        let rpcs: Vec<u64> = (0..4).map(|s| nam.rdma.server_stats(s).rpcs).collect();
        assert!(rpcs.iter().all(|&c| c >= 1), "rpc spread: {rpcs:?}");
    }

    #[test]
    fn range_spans_partition_boundary() {
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 10_000);
        let ep = Endpoint::new(&nam.rdma);
        let out = Rc::new(RefCell::new(Vec::new()));
        {
            let out = out.clone();
            sim.spawn(async move {
                // Keys 2400*8 .. 2599*8 straddle the server 0/1 boundary
                // (boundary at 2500*8).
                let rows = idx.range(&ep, 2400 * 8, 2599 * 8).await.unwrap();
                out.borrow_mut().extend(rows);
            });
        }
        sim.run();
        let rows = out.borrow();
        assert_eq!(rows.len(), 200);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "ordered");
        assert_eq!(rows[0], (2400 * 8, 2400));
        assert_eq!(rows[199], (2599 * 8, 2599));
    }

    #[test]
    fn hash_partition_broadcast_range() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::hash(nam.num_servers());
        let items = (0..1000u64).map(|i| (i * 8, i));
        let idx = CoarseGrained::build(&nam, PageLayout::default(), partition, items, 0.7);
        let ep = Endpoint::new(&nam.rdma);
        let out = Rc::new(RefCell::new(Vec::new()));
        {
            let out = out.clone();
            sim.spawn(async move {
                let rows = idx.range(&ep, 80, 160).await.unwrap();
                out.borrow_mut().extend(rows);
            });
        }
        sim.run();
        let rows = out.borrow();
        assert_eq!(rows.len(), 11); // keys 80,88,...,160
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        // Broadcast: every server answered one RPC.
        for s in 0..4 {
            assert_eq!(nam.rdma.server_stats(s).rpcs, 1);
        }
    }

    #[test]
    fn insert_then_lookup_and_delete() {
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 1000);
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            idx.insert(&ep, 41, 999, false).await.unwrap(); // odd key: fresh
            assert_eq!(idx.lookup(&ep, 41).await.unwrap(), Some(999));
            assert!(idx.delete(&ep, 41).await.unwrap());
            assert_eq!(idx.lookup(&ep, 41).await.unwrap(), None);
            assert!(!idx.delete(&ep, 41).await.unwrap(), "already deleted");
        });
        sim.run();
    }

    #[test]
    fn skewed_partition_concentrates_rpcs() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let n_keys = 10_000u64;
        let partition = PartitionMap::range_fractions(&[0.80, 0.12, 0.05, 0.03], n_keys * 8);
        let items = (0..n_keys).map(|i| (i * 8, i));
        let idx = CoarseGrained::build(&nam, PageLayout::default(), partition, items, 0.7);
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            // Uniform requests over the key space.
            let mut rng = simnet::rng::DetRng::seed_from_u64(1);
            for _ in 0..400 {
                let k = rng.next_u64_below(n_keys) * 8;
                idx.lookup(&ep, k).await.unwrap();
            }
        });
        sim.run();
        let s0 = nam.rdma.server_stats(0).rpcs as f64;
        assert!(
            (s0 / 400.0 - 0.80).abs() < 0.06,
            "~80% of requests must hit server 0, got {}",
            s0 / 400.0
        );
    }

    #[test]
    fn concurrent_inserts_preserve_all_entries() {
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 1000);
        for c in 0..10u64 {
            let idx = idx.clone();
            let ep = Endpoint::new(&nam.rdma);
            sim.spawn(async move {
                for i in 0..50u64 {
                    // Odd keys, unique per client.
                    idx.insert(&ep, (c * 50 + i) * 16 + 1, c, false)
                        .await
                        .unwrap();
                }
            });
        }
        sim.run();
        // Verify every insert landed.
        let ep = Endpoint::new(&nam.rdma);
        let idx2 = idx.clone();
        let count = Rc::new(std::cell::Cell::new(0u32));
        {
            let count = count.clone();
            sim.spawn(async move {
                for c in 0..10u64 {
                    for i in 0..50u64 {
                        if idx2.lookup(&ep, (c * 50 + i) * 16 + 1).await.unwrap() == Some(c) {
                            count.set(count.get() + 1);
                        }
                    }
                }
            });
        }
        sim.run();
        assert_eq!(count.get(), 500);
    }

    #[test]
    fn retried_insert_is_absorbed_not_duplicated() {
        // A lost-response retry re-sends the insert RPC with
        // `retrying = true`; the handler must detect the live duplicate
        // and absorb it instead of inserting a second entry.
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 100);
        let ep = Endpoint::new(&nam.rdma);
        let idx2 = idx.clone();
        sim.spawn(async move {
            idx2.insert(&ep, 41, 999, false).await.unwrap();
            // Simulated retry of the same pair after a lost ack.
            idx2.insert(&ep, 41, 999, true).await.unwrap();
            let rows = idx2.range(&ep, 41, 47).await.unwrap();
            assert_eq!(rows, vec![(41, 999)], "duplicate must be absorbed");
            // A *fresh* insert under `retrying` (no prior effect) must
            // still land.
            idx2.insert(&ep, 43, 7, true).await.unwrap();
            let rows = idx2.range(&ep, 41, 47).await.unwrap();
            assert_eq!(rows, vec![(41, 999), (43, 7)]);
        });
        sim.run();
    }
}
