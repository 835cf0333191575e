//! Per-server local trees behind two-sided RPC: the coarse-grained
//! index (§3) and the upper levels of the hybrid layout (§5).
//!
//! The key space is partitioned (range- or hash-based) across memory
//! servers; each server builds a *local* B-link tree over its share
//! (inner and leaf nodes co-located). Compute servers ship requests to
//! the owning server over SEND/RECV (reliable connections, shared
//! receive queues); the handler traverses the local tree with optimistic
//! lock coupling (Listing 1). Two kinds of request exist:
//!
//! * **whole operations** (design 1) — the tree holds the entries
//!   themselves, and `lookup`/`range`/`insert`/`delete` each run in one
//!   handler. Point lookups are maximally network-efficient (one key up,
//!   one value down) but every operation consumes memory-server CPU, so
//!   the design saturates on handler cores; under attribute-value skew
//!   most requests hit one server (Table 2);
//! * **upper-level resolution** (designs 3–4) — the tree maps leaf high
//!   keys to the remote pointers of a scattered leaf chain
//!   ([`crate::chain`]); an RPC returns only the covering leaf's pointer
//!   (§5.2) and a second kind registers committed leaf splits.
//!
//! A co-located compute server runs the same handler in place
//! (Appendix A.3). Every request surfaces verb failures (`VerbError`)
//! to the caller; retry policy lives one level up, in [`crate::Design`].

use std::rc::Rc;

use blink::{Key, LocalTree, PageLayout, Ptr, Value, WorkStats};
use nam::{handler_cpu_time, msg, DurableTree, PartitionMap, ServerNode};
use rdma_sim::{Cluster, Endpoint, RemotePtr, RpcReply, VerbError, WalRecord};
use simnet::SimDur;

use crate::engine::RangeProgress;

/// One local tree per memory server, routed by a partition map.
pub struct Local {
    nodes: Vec<Rc<ServerNode>>,
    partition: PartitionMap,
}

impl Local {
    /// Partition `pairs` (sorted by key) per the map as they stream past
    /// and bulk-load one local tree per memory server at fill factor
    /// `fill`.
    pub(crate) fn load(
        cluster: &Cluster,
        layout: PageLayout,
        fill: f64,
        partition: PartitionMap,
        pairs: impl Iterator<Item = (Key, Value)>,
    ) -> Local {
        let n = cluster.num_servers();
        assert_eq!(
            partition.num_servers(),
            n,
            "partition map does not match the cluster"
        );
        // One loader per server, fed as the input streams past: key order
        // is preserved within each server. Sorted input meets a range
        // map's servers in runs, so a key is routed only when it passes
        // the current run's last key; a hash map routes every key.
        let mut loaders: Vec<_> = (0..n).map(|_| LocalTree::loader(layout, fill)).collect();
        let mut run: Option<(usize, Key)> = None;
        for (k, v) in pairs {
            let s = match run {
                Some((s, high)) if k <= high => s,
                _ => {
                    let s = partition.server_of(k);
                    run = partition.upper_bound(s).map(|high| (s, high));
                    s
                }
            };
            debug_assert_eq!(s, partition.server_of(k), "bulk-load input unsorted");
            loaders[s].push(k, v);
        }
        // Each index owns its per-server state (a memory server hosts
        // one ServerNode per index it serves).
        let nodes: Vec<Rc<ServerNode>> = (0..n).map(|_| Rc::new(ServerNode::new())).collect();
        for (s, loader) in loaders.into_iter().enumerate() {
            nodes[s].install_tree(loader.into_tree());
            // Local trees live outside the pool and hold the only copy of
            // their entries: expose them to the transport's crash-recovery
            // machinery (wipe on crash, fuzzy-checkpoint snapshots, log
            // replay).
            cluster.register_durable_state(
                s,
                Rc::new(DurableTree::new(nodes[s].clone(), layout, fill)),
            );
        }
        Local { nodes, partition }
    }

    /// Per-server state handles (structural checks).
    pub fn nodes(&self) -> &[Rc<ServerNode>] {
        &self.nodes
    }
}

/// The request path: errors are typed, nothing here may panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
impl Local {
    /// Server `s`'s local tree.
    #[allow(
        clippy::indexing_slicing,
        reason = "the partition map only yields server ids below the cluster size it was built with"
    )]
    fn node(&self, s: usize) -> Rc<ServerNode> {
        self.nodes[s].clone()
    }

    /// The request handler of server `s` that runs `body` and charges
    /// for what it reports: the caller's value, the tree work done,
    /// extra busy time on top (lock waits, write overhead) and the
    /// response size.
    fn handler<R>(
        &self,
        ep: &Endpoint,
        s: usize,
        body: impl FnOnce(&ServerNode, &Cluster) -> (R, WorkStats, SimDur, usize),
    ) -> impl FnOnce() -> RpcReply<R> {
        let node = self.node(s);
        let cluster = ep.cluster().clone();
        move || {
            let (value, work, extra, resp_bytes) = body(&node, &cluster);
            RpcReply {
                value,
                cpu: handler_cpu_time(cluster.spec(), work) + extra,
                resp_bytes,
            }
        }
    }

    /// Run `body` as a request handler of server `s` — in place when `ep`
    /// is co-located with it (Appendix A.3), behind an RPC shipping
    /// `req_bytes` otherwise; either way only once the client and the
    /// server are known to be alive.
    async fn handle<R>(
        &self,
        ep: &Endpoint,
        s: usize,
        req_bytes: usize,
        body: impl FnOnce(&ServerNode, &Cluster) -> (R, WorkStats, SimDur, usize),
    ) -> Result<R, VerbError> {
        let handler = self.handler(ep, s, body);
        if ep.is_local(s) {
            ep.local_call(s, handler).await
        } else {
            ep.rpc(s, req_bytes, handler).await
        }
    }

    /// Whole-operation point lookup at the owning server.
    pub(crate) async fn lookup(&self, ep: &Endpoint, key: Key) -> Result<Option<Value>, VerbError> {
        let s = self.partition.server_of(key);
        self.handle(ep, s, msg::lookup_req(), |node, _| {
            let (value, work) = node.with_tree(|t| t.get(key));
            (value, work, SimDur::ZERO, msg::lookup_resp())
        })
        .await
    }

    /// One attempt of a whole-operation range query: one request per
    /// server whose partition intersects `[lo, hi]` (hash partitioning
    /// broadcasts to all servers — the `H·P·S` term of Table 2), merged
    /// in key order. `progress` (shared across attempts, created per
    /// *operation*) records which servers already shipped their rows, so
    /// a retried hash-partition *broadcast* skips them instead of
    /// re-querying every server — partial work survives the failed
    /// attempt and telemetry counts each server once. Range partitions
    /// re-query their (few) covering servers per attempt.
    pub(crate) async fn range(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
        progress: &RangeProgress,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        let broadcast = matches!(self.partition, PartitionMap::Hash { .. });
        if !broadcast {
            progress.reset();
        }
        for s in self.partition.servers_for_range(lo, hi) {
            if progress.is_done(s) {
                continue;
            }
            let query = |node: &ServerNode, _: &Cluster| {
                let mut rows = Vec::new();
                let (work, page_size) =
                    node.with_tree(|t| (t.range(lo, hi, &mut rows), t.layout().page_size()));
                // The handler ships the qualifying leaf pages (§6.1).
                let resp = msg::range_resp_pages(work.leaves_scanned as usize, page_size);
                (rows, work, SimDur::ZERO, resp)
            };
            let rows = self.handle(ep, s, msg::range_req(), query).await?;
            progress.record(s, rows);
        }
        // Hash partitions interleave in key space: merge re-sorts.
        Ok(progress.merge(broadcast))
    }

    /// Ship one logged write to the server owning `key`. `apply` mutates
    /// its tree and returns the caller's value, the leaf the handler
    /// then takes the page lock of (local CAS — its spin-wait occupies
    /// the handler core; `None` when nothing was written), the work done
    /// and the record to log.
    async fn write<R>(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
        apply: impl FnOnce(&mut LocalTree) -> (R, Option<Ptr>, WorkStats, Option<WalRecord>),
    ) -> Result<R, VerbError> {
        let s = self.partition.server_of(key);
        let handled = self.handle(ep, s, req_bytes, |node, cluster| {
            let spec = cluster.spec();
            let (value, leaf, work, record) = node.with_tree(apply);
            // The tree mutated: log it before the ack can form.
            if let Some(record) = record {
                cluster.wal_append(s, record);
            }
            let wait = leaf.map_or(SimDur::ZERO, |leaf| {
                let now = cluster.sim().now();
                node.locks.acquire(leaf.raw(), now, spec.leaf_lock_hold)
            });
            (value, work, spec.cpu_insert_extra + wait, msg::ack())
        });
        let value = handled.await?;
        // An RPC holds its response until the handler's records are
        // durable; the in-place path has to wait for them itself.
        if ep.is_local(s) {
            ep.durability_barrier(s).await?;
        }
        Ok(value)
    }

    /// Whole-operation insert. `retrying` marks attempts after the first
    /// so the handler can absorb a duplicate from a lost-response retry
    /// through [`crate::engine::apply_insert_local`] — the engine's
    /// exactly-once rule, enforced server-side because whole operations
    /// ship.
    pub(crate) async fn insert(
        &self,
        ep: &Endpoint,
        key: Key,
        value: Value,
        retrying: bool,
    ) -> Result<(), VerbError> {
        self.write(ep, key, msg::insert_req(), |t| {
            let (leaf, work) = crate::engine::apply_insert_local(t, key, value, retrying);
            // Absorbed retries log nothing — the prior attempt's record
            // went durable before its (lost) response left.
            let record = leaf.map(|_| WalRecord::TreeInsert { key, value });
            ((), leaf, work, record)
        })
        .await
    }

    /// Whole-operation tombstone delete (delete bit per entry, §3.2);
    /// space is reclaimed by the per-server epoch GC.
    pub(crate) async fn delete(&self, ep: &Endpoint, key: Key) -> Result<bool, VerbError> {
        self.write(ep, key, msg::delete_req(), |t| {
            // Deletes lock the leaf like inserts do (§3.2), hit or miss.
            let (deleted, leaf, work) = t.delete_at_leaf(key);
            let record = deleted.then_some(WalRecord::TreeDelete { key });
            (deleted, Some(leaf), work, record)
        })
        .await
    }

    /// Upper-level resolution: the remote pointer of the chain leaf
    /// covering `key` (§5.2: the RPC returns only the pointer). Falls
    /// through to the next partition only when the covering leaf's high
    /// key lives there; the rightmost leaf (high key = +inf) bounds the
    /// probe.
    pub(crate) async fn leaf_ptr_for(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
    ) -> Result<RemotePtr, VerbError> {
        for s in self.partition.server_of(key)..self.nodes.len() {
            let probe = |node: &ServerNode, _: &Cluster| {
                let (res, work) = node.with_tree(|t| t.ceiling(key));
                let found = res.map(|(_, ptr_raw)| ptr_raw);
                (found, work, SimDur::ZERO, msg::leaf_ptr_resp())
            };
            if let Some(raw) = self.handle(ep, s, req_bytes, probe).await? {
                return Ok(RemotePtr::from_raw(raw));
            }
        }
        Err(VerbError::Invariant(
            "rightmost leaf (high key = +inf) must be registered",
        ))
    }

    /// Upper-level registration of a committed leaf split: `left` (high
    /// key now `sep`) kept its pointer, `right` (high key `old_high`) is
    /// new. Order matters: first map `sep -> left` (new entry), then
    /// repoint `old_high -> right` — in the same request when one server
    /// owns both keys, in a second one otherwise; in the interim, stale
    /// routing is corrected by B-link sibling chases. (A committed split
    /// whose registration then fails stays reachable the same way:
    /// routing lands on a leaf to its left and chases correct it.)
    pub(crate) async fn register_split(
        &self,
        ep: &Endpoint,
        sep: Key,
        left: RemotePtr,
        right: RemotePtr,
        old_high: Key,
    ) -> Result<(), VerbError> {
        let install = (sep, left.raw());
        let repoint = (old_high, right.raw());
        let s_new = self.partition.server_of(sep);
        let s_old = self.partition.server_of(old_high);
        if s_new == s_old {
            return self
                .update_at(ep, s_new, Some(install), Some(repoint))
                .await;
        }
        self.update_at(ep, s_new, Some(install), None).await?;
        self.update_at(ep, s_old, None, Some(repoint)).await
    }

    /// One registration request to server `s`: insert the `install`
    /// entry and/or repoint the `repoint` key, logging each mutation
    /// before the ack can form.
    async fn update_at(
        &self,
        ep: &Endpoint,
        s: usize,
        install: Option<(Key, Value)>,
        repoint: Option<(Key, Value)>,
    ) -> Result<(), VerbError> {
        let update = move |node: &ServerNode, cluster: &Cluster| {
            let spec = cluster.spec();
            let (leaf_page, repointed, mut work) = node.with_tree(|t| {
                let mut work = WorkStats::default();
                let leaf_page = install.map(|(key, value)| {
                    let (leaf, w) = t.insert_at_leaf(key, value);
                    work.absorb(w);
                    leaf
                });
                let repointed = repoint.is_some_and(|(key, value)| {
                    let (hit, w) = t.update_value(key, value);
                    work.absorb(w);
                    hit
                });
                (leaf_page, repointed, work)
            });
            if let Some((key, value)) = install {
                cluster.wal_append(s, WalRecord::TreeInsert { key, value });
            }
            if let (true, Some((key, value))) = (repointed, repoint) {
                cluster.wal_append(s, WalRecord::TreeUpsert { key, value });
            }
            let mut cpu = SimDur::ZERO;
            if let Some(leaf_page) = leaf_page {
                if repoint.is_some() {
                    work.entries_scanned += 1;
                }
                let now = cluster.sim().now();
                let wait = node
                    .locks
                    .acquire(leaf_page.raw(), now, spec.leaf_lock_hold);
                // Upper levels carry only their share of write overhead:
                // leaf writes and leaf GC are client-side over a chain.
                cpu = spec.cpu_insert_extra / 4 + wait;
            }
            ((), work, cpu, msg::ack())
        };
        let handler = self.handler(ep, s, update);
        ep.rpc(s, msg::install_leaf_req(), handler).await
    }

    /// One local GC epoch (§3.2: each memory server collects its own
    /// tree "in regular intervals") — one RPC per server whose handler
    /// compacts every leaf, charged for the pages it touches. Returns
    /// entries reclaimed.
    pub(crate) async fn compact(&self, ep: &Endpoint) -> Result<usize, VerbError> {
        let mut reclaimed = 0;
        for s in 0..self.nodes.len() {
            let handler = self.handler(ep, s, |node, _| {
                let (freed, pages) = node.with_tree(|t| (t.gc_compact(), t.num_pages()));
                let work = WorkStats {
                    nodes_visited: pages as u32,
                    entries_scanned: freed as u32,
                    ..WorkStats::default()
                };
                (freed, work, SimDur::ZERO, msg::ack())
            });
            reclaimed += ep.rpc(s, msg::ack(), handler).await?;
        }
        Ok(reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoarseGrained, Index};
    use nam::NamCluster;
    use rdma_sim::ClusterSpec;
    use simnet::Sim;
    use std::cell::RefCell;

    fn build_index(sim: &Sim, n_keys: u64) -> (NamCluster, Rc<Index>) {
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

    /// Streaming the input past one loader per server builds, for any
    /// interleaving of servers, the tree each server would have built
    /// from its collected share.
    #[test]
    fn interleaved_load_equals_per_server_bulk_load() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let layout = PageLayout::new(200);
        let partition = PartitionMap::hash(nam.num_servers());
        // Duplicates included: they must stay within one leaf.
        let items = || (0..5000u64).map(|i| ((i / 3) * 8, i));
        let local = Local::load(&nam.rdma, layout, 0.7, partition.clone(), items());
        let mut total = 0;
        for (s, node) in local.nodes().iter().enumerate() {
            let share: Vec<_> = items()
                .filter(|&(k, _)| partition.server_of(k) == s)
                .collect();
            assert!(share.len() > 500, "server {s} must own a real share");
            total += share.len();
            let want = LocalTree::bulk_load(layout, share.iter().copied(), 0.7);
            node.with_tree(|t| {
                t.check_invariants();
                let mut rows = Vec::new();
                t.range(0, u64::MAX, &mut rows);
                assert_eq!(rows, share, "server {s}");
                assert_eq!(t.height(), want.height());
                assert_eq!(t.num_pages(), want.num_pages());
            });
        }
        assert_eq!(total, 5000);
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

    /// Co-located writes check liveness *before* they act, like the RPC
    /// path: a write refused for a crashed server or a killed client
    /// leaves no trace in that server's tree or log.
    #[test]
    fn refused_colocated_writes_have_no_effect() {
        use rdma_sim::VerbError;
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 1000);
        let cluster = nam.rdma.clone();
        // Keys 41 (fresh) and 80 (loaded, value 10) live on server 0.
        let machine = cluster.spec().machine_of(0);
        let run = |ep: Endpoint, want: VerbError| {
            let idx = idx.clone();
            sim.spawn(async move {
                assert_eq!(idx.insert(&ep, 41, 999, false).await, Err(want));
                assert_eq!(idx.delete(&ep, 80).await, Err(want));
            });
            sim.run();
        };

        cluster.fail_server(0);
        run(
            Endpoint::colocated(&cluster, machine),
            VerbError::ServerUnreachable { server: 0 },
        );
        cluster.restart_server(0); // Durability::Off: memory survived

        let victim = Endpoint::colocated(&cluster, machine);
        cluster.kill_client(victim.client_id());
        run(victim, VerbError::Cancelled);

        let ep = Endpoint::colocated(&cluster, machine);
        let idx = idx.clone();
        sim.spawn(async move {
            assert_eq!(
                idx.lookup(&ep, 41).await,
                Ok(None),
                "refused insert applied"
            );
            assert_eq!(
                idx.lookup(&ep, 80).await,
                Ok(Some(10)),
                "refused delete applied"
            );
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 0, "an assertion task died");
    }
}
