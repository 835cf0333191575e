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
//!   (§5.2) — or, for a range scan, the run of leaf pointers one local
//!   leaf holds — and a second kind registers committed leaf splits.
//!
//! A co-located compute server runs the same handler in place
//! (Appendix A.3). Every request surfaces verb failures (`VerbError`)
//! to the caller; retry policy lives one level up, in [`crate::Design`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use blink::{Key, LocalTree, PageLayout, Ptr, Value, WorkStats};
use rdma_sim::spec::{
    CPU_INSERT_EXTRA, CPU_PER_ENTRY, CPU_PER_NODE, CPU_PER_SPLIT, LEAF_LOCK_HOLD,
};
use rdma_sim::{
    Cluster, ClusterSpec, DurableState, Endpoint, RemotePtr, RpcReply, VerbError, WalRecord,
};
use simnet::{SimDur, SimTime};

use crate::engine::RangeProgress;
use crate::msg;
use crate::PartitionMap;

/// One memory server's software state for one index: the local B-link
/// tree it serves over RPC (a coarse-grained partition, or the hybrid
/// design's upper levels) and its virtual page locks.
///
/// The tree lives outside the pool and holds the only copy of its
/// entries, so the node is also the tree's [`DurableState`]: under
/// `Durability::Wal` a crash wipes it, fuzzy checkpoints snapshot its
/// live entries and recovery bulk-loads them back at the tree's own
/// geometry and the load's fill factor, then replays the logged
/// handler mutations verbatim.
pub struct ServerNode {
    tree: RefCell<LocalTree>,
    /// Per page, the virtual instant its lock is released.
    locks: RefCell<BTreeMap<u64, SimTime>>,
    fill: f64,
}

impl ServerNode {
    fn new(tree: LocalTree, fill: f64) -> Self {
        ServerNode {
            tree: RefCell::new(tree),
            locks: RefCell::default(),
            fill,
        }
    }

    /// Run `f` against the server's tree.
    pub fn with_tree<R>(&self, f: impl FnOnce(&mut LocalTree) -> R) -> R {
        f(&mut self.tree.borrow_mut())
    }

    /// Take the lock on `page` at virtual time `now`, holding it for
    /// `hold` once acquired, and return the spin-wait the handler
    /// suffers (zero if the lock is free).
    ///
    /// Handlers take page locks with a local CAS and *spin* while a page
    /// is held (Listing 3: `awaitNodeUnlocked`). A handler runs
    /// atomically at its core-grant instant, so real spinning cannot
    /// happen; instead the wait is computed in virtual time and added to
    /// the handler's CPU service time: **spinning occupies the core**,
    /// the degradation mechanism §6.3 names for the coarse-grained and
    /// hybrid schemes under insert-heavy load.
    fn lock(&self, page: u64, now: SimTime, hold: SimDur) -> SimDur {
        let mut map = self.locks.borrow_mut();
        let free_at = map.get(&page).copied().unwrap_or(SimTime::ZERO).max(now);
        let wait = free_at.since(now);
        map.insert(page, free_at + hold);
        wait
    }
}

impl DurableState for ServerNode {
    fn wipe(&self) {
        // Crash with volatile DRAM: the tree empties.
        self.with_tree(|t| *t = LocalTree::new(t.layout()));
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.with_tree(|t| t.range(0, u64::MAX, &mut out));
        out
    }

    fn restore(&self, entries: &[(u64, u64)]) {
        let entries = entries.iter().copied();
        self.with_tree(|t| *t = LocalTree::bulk_load(t.layout(), entries, self.fill));
    }

    fn upsert(&self, key: u64, value: u64) {
        self.with_tree(|t| {
            if !t.update_value(key, value).0 {
                t.insert_at_leaf(key, value);
            }
        });
    }

    fn insert(&self, key: u64, value: u64) {
        self.with_tree(|t| {
            t.insert_at_leaf(key, value);
        });
    }

    fn delete(&self, key: u64) {
        self.with_tree(|t| {
            t.delete_at_leaf(key);
        });
    }
}

/// Translate the work an RPC handler performed into CPU service time:
/// the spec's fixed per-RPC cost covers receive/dispatch/send;
/// traversal work scales with nodes visited (a sibling hop visits one),
/// entries scanned, and splits performed.
fn handler_cpu_time(spec: &ClusterSpec, work: WorkStats) -> SimDur {
    spec.rpc_fixed_cpu
        + CPU_PER_NODE * work.nodes_visited as u64
        + CPU_PER_ENTRY * work.entries_scanned as u64
        + CPU_PER_SPLIT * work.splits as u64
}

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
        // one ServerNode per index it serves), registered with the
        // transport's crash-recovery machinery.
        let nodes: Vec<Rc<ServerNode>> = loaders
            .into_iter()
            .map(|loader| Rc::new(ServerNode::new(loader.into_tree(), fill)))
            .collect();
        for (s, node) in nodes.iter().enumerate() {
            cluster.register_durable_state(s, node.clone());
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

    /// Run `body` as a request handler of server `s` — in place when `ep`
    /// is co-located with it (Appendix A.3), behind an RPC shipping
    /// `req_bytes` otherwise; either way only once the client and the
    /// server are known to be alive, and acknowledged only once what it
    /// logged is durable. The handler is charged for what `body`
    /// reports: the caller's value, the tree work done, extra busy time
    /// on top (lock waits, write overhead) and the response size.
    async fn handle<R>(
        &self,
        ep: &Endpoint,
        s: usize,
        req_bytes: usize,
        body: impl FnOnce(&ServerNode, &Cluster) -> (R, WorkStats, SimDur, usize),
    ) -> Result<R, VerbError> {
        let node = self.node(s);
        let cluster = ep.cluster().clone();
        let handler = move || {
            let (value, work, extra, resp_bytes) = body(&node, &cluster);
            RpcReply {
                value,
                cpu: handler_cpu_time(cluster.spec(), work) + extra,
                resp_bytes,
            }
        };
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
        self.handle(ep, s, req_bytes, |node, cluster| {
            let (value, leaf, work, record) = node.with_tree(apply);
            // The tree mutated: log it before the ack can form.
            if let Some(record) = record {
                cluster.wal_append(s, record);
            }
            let wait = leaf.map_or(SimDur::ZERO, |leaf| {
                let now = cluster.sim().now();
                node.lock(leaf.raw(), now, LEAF_LOCK_HOLD)
            });
            (value, work, CPU_INSERT_EXTRA + wait, msg::ack())
        })
        .await
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
    /// covering `key` (§5.2: the RPC returns only the pointer).
    pub(crate) async fn leaf_ptr_for(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
    ) -> Result<RemotePtr, VerbError> {
        self.resolve(ep, key, req_bytes, |t| {
            let mut found = None;
            let work = t.ceiling_run(key, |_, raw| {
                found = Some(RemotePtr::from_raw(raw));
                false
            });
            (found, work, msg::leaf_ptr_resp())
        })
        .await
    }

    /// A scan's upper-level resolution: the `(high key, leaf)` entries
    /// from `lo`'s ceiling through the first whose high key is `>= hi`,
    /// or through the partition's last — the chain leaves the scan
    /// crosses next.
    pub(crate) async fn leaf_plan(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<(Key, u64)>, VerbError> {
        self.resolve(ep, lo, msg::range_req(), |t| {
            let mut run = Vec::new();
            let work = t.ceiling_run(lo, |high, raw| {
                run.push((high, raw));
                high < hi
            });
            let resp = msg::leaf_plan_resp(run.len());
            ((!run.is_empty()).then_some(run), work, resp)
        })
        .await
    }

    /// The first key past the partition holding `key`.
    pub(crate) fn past_partition(&self, key: Key) -> Key {
        let bound = self.partition.upper_bound(self.partition.server_of(key));
        bound.map_or(key, |b| b.saturating_add(1))
    }

    /// Ask the servers from `key`'s owner rightwards until `probe` finds
    /// an answer in one's tree (it also reports its work and response
    /// size): the next partition answers when the covering leaf's high
    /// key lives there; the rightmost leaf (high key = +inf) bounds it.
    async fn resolve<R>(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
        probe: impl Fn(&mut LocalTree) -> (Option<R>, WorkStats, usize),
    ) -> Result<R, VerbError> {
        for s in self.partition.server_of(key)..self.nodes.len() {
            let handler = |node: &ServerNode, _: &Cluster| {
                let (found, work, resp) = node.with_tree(&probe);
                (found, work, SimDur::ZERO, resp)
            };
            if let Some(found) = self.handle(ep, s, req_bytes, handler).await? {
                return Ok(found);
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
                let wait = node.lock(leaf_page.raw(), now, LEAF_LOCK_HOLD);
                // Upper levels carry only their share of write overhead:
                // leaf writes and leaf GC are client-side over a chain.
                cpu = CPU_INSERT_EXTRA / 4 + wait;
            }
            ((), work, cpu, msg::ack())
        };
        self.handle(ep, s, msg::install_leaf_req(), update).await
    }

    /// One local GC epoch (§3.2: each memory server collects its own
    /// tree "in regular intervals") — one request per server whose
    /// handler compacts every leaf, charged for the pages it touches.
    /// Returns entries reclaimed.
    pub(crate) async fn compact(&self, ep: &Endpoint) -> Result<usize, VerbError> {
        let mut reclaimed = 0;
        for s in 0..self.nodes.len() {
            let compacted = self.handle(ep, s, msg::ack(), |node, _| {
                let (freed, pages) = node.with_tree(|t| (t.gc_compact(), t.num_pages()));
                let work = WorkStats {
                    nodes_visited: pages as u32,
                    entries_scanned: freed as u32,
                    ..WorkStats::default()
                };
                (freed, work, SimDur::ZERO, msg::ack())
            });
            reclaimed += compacted.await?;
        }
        Ok(reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoarseGrained, Index, NamCluster};
    use simnet::Sim;

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

    /// A co-located client runs every local-tree request in place
    /// (Appendix A.3): split registrations and GC compaction included, so
    /// its own machine's servers see no RPC at all.
    #[test]
    fn colocated_split_registration_and_gc_run_in_place() {
        use crate::chain::small_cfg;
        use crate::{gc, Design, Hybrid};
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let n_keys = 1000u64;
        let partition = PartitionMap::range_uniform(nam.num_servers(), n_keys * 8);
        let items = (0..n_keys).map(|i| (i * 8, i));
        let hybrid = Hybrid::build(&nam, small_cfg(), partition, items);
        let machine = nam.rdma.spec().machine_of(0);
        let ep = Endpoint::colocated(&nam.rdma, machine);
        let upper = |idx: &Index| -> usize {
            let nodes = idx.local().map_or(&[][..], Local::nodes);
            nodes.iter().map(|n| n.with_tree(|t| t.len_live())).sum()
        };
        let before = upper(&hybrid);
        let idx = hybrid.clone();
        sim.spawn(async move {
            // Odd keys well inside server 0's share: every split
            // registers there.
            for i in 0..100u64 {
                idx.insert(&ep, i * 8 + 1, i, false).await.unwrap();
            }
        });
        sim.run();
        assert!(upper(&hybrid) > before, "the inserts must split leaves");
        for s in 0..2 {
            assert_eq!(nam.rdma.server_stats(s).rpcs, 0, "hybrid: server {s}");
        }

        let sim = Sim::new();
        let (nam, cg) = build_index(&sim, 1000);
        let ep = Endpoint::colocated(&nam.rdma, machine);
        let design = Design::Cg(cg);
        sim.spawn(async move {
            gc::gc_pass(&design, &ep).await.unwrap();
        });
        sim.run();
        let rpcs: Vec<u64> = (0..4).map(|s| nam.rdma.server_stats(s).rpcs).collect();
        assert_eq!(rpcs, [0, 0, 1, 1], "cg gc");
    }

    /// An in-place write is acknowledged only once its log record is
    /// durable, like an RPC's: a crash right after the ack loses nothing.
    #[test]
    fn colocated_write_survives_a_crash_after_its_ack() {
        use rdma_sim::Durability;
        let sim = Sim::new();
        let spec = ClusterSpec {
            durability: Durability::Wal,
            wal_fsync_latency: SimDur::from_micros(200),
            ..ClusterSpec::default()
        };
        let nam = NamCluster::new(&sim, spec);
        let partition = PartitionMap::range_uniform(nam.num_servers(), 1000 * 8);
        let items = (0..1000u64).map(|i| (i * 8, i));
        let idx = CoarseGrained::build(&nam, PageLayout::default(), partition, items, 0.7);
        let cluster = nam.rdma.clone();
        let ep = Endpoint::colocated(&cluster, cluster.spec().machine_of(0));
        let writer = idx.clone();
        sim.spawn(async move {
            // Key 41 lives on server 0, in place for this client.
            writer.insert(&ep, 41, 999, false).await.unwrap();
            cluster.fail_server(0);
            cluster.restart_server(0);
        });
        sim.run();
        assert_eq!(nam.rdma.recovery_records().len(), 1, "one recovery");
        let ep = Endpoint::new(&nam.rdma);
        let found = Rc::new(std::cell::Cell::new(None));
        let out = found.clone();
        sim.spawn(async move {
            out.set(Some(idx.lookup(&ep, 41).await));
        });
        sim.run();
        assert_eq!(found.get(), Some(Ok(Some(999))), "acked insert lost");
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

    #[test]
    fn cpu_time_scales_with_work() {
        let spec = ClusterSpec::default();
        let small = handler_cpu_time(
            &spec,
            WorkStats {
                nodes_visited: 3,
                entries_scanned: 1,
                ..WorkStats::default()
            },
        );
        let large = handler_cpu_time(
            &spec,
            WorkStats {
                nodes_visited: 6,
                entries_scanned: 1000,
                splits: 2,
                sibling_hops: 1,
                ..WorkStats::default()
            },
        );
        assert!(large > small);
        assert!(small >= spec.rpc_fixed_cpu);
    }

    /// A sibling hop visits one node and is charged as one: a scan plan
    /// that crosses into server 0's second local leaf costs exactly one
    /// `CPU_PER_NODE` more, plus its extra entry, than one that ends on
    /// the first leaf's last entry.
    #[test]
    fn a_plan_crossing_a_local_leaf_pays_one_node_more() {
        use blink::node::LeafNodeRef;
        let sim = Sim::new();
        let (nam, idx) = build_index(&sim, 10_000);
        let local = idx.local().expect("local trees");
        let last = local.nodes()[0].with_tree(|t| {
            let ps = t.layout().page_size();
            let at = (t.leftmost_leaf().raw() as usize - 1) * ps;
            let leaf = LeafNodeRef::new(&t.image()[at..at + ps]);
            leaf.entry(leaf.count() - 1).0
        });
        // Per plan: (entries, server 0's CPU time).
        let mut plans = Vec::new();
        for hi in [last, last + 8] {
            let (idx, ep) = (idx.clone(), Endpoint::new(&nam.rdma));
            let len: Rc<std::cell::Cell<u64>> = Rc::default();
            let before = nam.rdma.server_stats(0).cpu_busy_nanos;
            let out = Rc::clone(&len);
            sim.spawn(async move {
                let run = idx.local().unwrap().leaf_plan(&ep, 0, hi).await.unwrap();
                out.set(run.len() as u64);
            });
            sim.run();
            let cpu = nam.rdma.server_stats(0).cpu_busy_nanos - before;
            plans.push((len.get(), cpu));
        }
        let [(within, within_cpu), (across, across_cpu)] = plans[..] else {
            panic!("two plans: {plans:?}");
        };
        assert_eq!(
            within,
            last / 8 + 1,
            "the first plan is the whole first leaf"
        );
        assert_eq!(
            across,
            within + 1,
            "the second plan crosses into the next leaf"
        );
        let per_entry = CPU_PER_ENTRY.as_nanos();
        assert_eq!(across_cpu - within_cpu, CPU_PER_NODE.as_nanos() + per_entry);
    }

    fn loaded_node(n: u64) -> ServerNode {
        let tree = LocalTree::bulk_load(PageLayout::default(), (0..n).map(|i| (i * 8, i)), 0.7);
        ServerNode::new(tree, 0.7)
    }

    #[test]
    fn uncontended_lock_is_free() {
        let t = loaded_node(0);
        let wait = t.lock(7, SimTime::from_micros(10), SimDur::from_micros(2));
        assert_eq!(wait, SimDur::ZERO);
    }

    #[test]
    fn contended_lock_serialises() {
        let t = loaded_node(0);
        let now = SimTime::from_micros(10);
        assert_eq!(t.lock(7, now, SimDur::from_micros(2)), SimDur::ZERO);
        // Second acquirer at the same instant waits 2us.
        assert_eq!(
            t.lock(7, now, SimDur::from_micros(2)),
            SimDur::from_micros(2)
        );
        // Third waits 4us.
        assert_eq!(
            t.lock(7, now, SimDur::from_micros(2)),
            SimDur::from_micros(4)
        );
        // A different page is unaffected.
        assert_eq!(t.lock(8, now, SimDur::from_micros(2)), SimDur::ZERO);
    }

    #[test]
    fn lock_expires_over_time() {
        let t = loaded_node(0);
        t.lock(7, SimTime::from_micros(0), SimDur::from_micros(2));
        let wait = t.lock(7, SimTime::from_micros(100), SimDur::from_micros(2));
        assert_eq!(wait, SimDur::ZERO);
    }

    #[test]
    fn wipe_loses_everything_restore_brings_it_back() {
        let node = loaded_node(500);
        let snap = node.snapshot();
        assert_eq!(snap.len(), 500);
        node.wipe();
        assert_eq!(node.snapshot(), Vec::new(), "crash must empty the tree");
        node.restore(&snap);
        assert_eq!(node.with_tree(|t| t.get(8 * 123).0), Some(123));
        assert_eq!(node.snapshot(), snap);
    }

    #[test]
    fn replay_mirrors_handler_mutations() {
        let node = loaded_node(10);
        // Fresh insert, in-place upsert, duplicate-key insert, delete.
        node.insert(5, 100);
        assert_eq!(node.with_tree(|t| t.get(5).0), Some(100));
        node.upsert(5, 200);
        assert_eq!(node.with_tree(|t| t.get(5).0), Some(200));
        node.insert(5, 300);
        let mut dup = Vec::new();
        node.with_tree(|t| t.range(5, 5, &mut dup));
        assert_eq!(dup.len(), 2, "insert replay keeps duplicate keys");
        node.delete(5);
        assert_eq!(node.with_tree(|t| t.get(5).0), Some(300), "first live gone");
        // Upsert of an absent key degrades to an insert.
        node.upsert(999, 1);
        assert_eq!(node.with_tree(|t| t.get(999).0), Some(1));
    }

    /// Recovery rebuilds a local tree at the geometry it was loaded
    /// with: a checkpoint holds only entries, so the page size must
    /// come from the tree itself.
    #[test]
    fn wal_recovery_rebuilds_the_tree_at_its_geometry() {
        use rdma_sim::Durability;
        let sim = Sim::new();
        let spec = ClusterSpec {
            durability: Durability::Wal,
            ..ClusterSpec::default()
        };
        let nam = NamCluster::new(&sim, spec);
        let partition = PartitionMap::range_uniform(nam.num_servers(), 2000 * 8);
        let items = (0..2000u64).map(|i| (i * 8, i));
        let idx = CoarseGrained::build(&nam, PageLayout::new(256), partition, items, 0.7);
        let cluster = nam.rdma.clone();
        let ep = Endpoint::new(&cluster);
        let writer = idx.clone();
        sim.spawn(async move {
            // Odd keys inside server 0's 500 loaded ones.
            for i in 0..100u64 {
                writer.insert(&ep, i * 8 + 1, i, false).await.unwrap();
            }
            cluster.fail_server(0);
            cluster.restart_server(0);
        });
        sim.run();
        assert_eq!(nam.rdma.recovery_records().len(), 1, "one recovery");
        let local = idx.local().expect("a CG index has local trees");
        local.nodes()[0].with_tree(|t| {
            assert_eq!(t.layout().page_size(), 256);
            t.check_invariants();
            assert_eq!(t.len_live(), 600);
        });
    }
}
