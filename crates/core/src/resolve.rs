//! An index as the parts it has, and page resolution over them: how a
//! traversal turns a node reference into bytes.
//!
//! The paper's designs (§3–§5, plus our learned extension) are one
//! two-axis table — how the index is distributed × which primitive
//! reaches it — so a design here is a *value*, not a type: an [`Index`]
//! is
//!
//! | part | what it is | who has it |
//! |------|------------|------------|
//! | leaf [`Chain`] | leaves scattered round-robin, one-sided access | FG, Hybrid, Learned |
//! | upper level | *remote* inner pages under a published root, descended and split by the client with one-sided verbs — or *local* per-server trees behind RPC ([`Local`]) | remote: FG · local: CG, Hybrid, Learned |
//! | model [`Router`] | client-resident learned routing | Learned |
//! | client [`CacheLayer`] | Appendix A.4 | FG, Hybrid when `cache_capacity` is set |
//!
//! The coarse-grained design is the case with *no* chain: its local
//! trees hold the entries themselves and whole operations ship to them.
//!
//! The shared traversal core ([`crate::engine`]) asks an index six
//! questions, each answered once here by consulting the parts in a
//! fixed order — restart-epoch fence, cache, model, upper level:
//!
//! * `start` — where the descent for a key begins: a cached route, the
//!   model's prediction, else the upper level (the root pointer, or the
//!   resolution RPC that hands back the covering leaf);
//! * `load` — bytes of a page: a cached inner page, else a one-sided
//!   READ;
//! * `note_leaf` / `invalidate` — cache and model feedback from the
//!   descent;
//! * `alloc` — a split page from the chain's round-robin cursor;
//! * `complete_split` — registering a committed leaf split with the
//!   upper level: client-side propagation over remote inner pages, or
//!   the registration RPC.
//!
//! What the cache holds is *derived* from the upper level, not declared
//! beside it: remote inner pages are READ by the client, so a cached
//! inner level saves one round trip per descent; local upper levels are
//! never READ by the client, so the cacheable artifact is the resolution
//! RPC's answer — a `high_key → leaf pointer` route. An index with no
//! cache and no model is an exact pass-through to the wire.
//!
//! ## Validation rule
//!
//! A cache hit is validated the same way every optimistic read in the
//! B-link protocol is: by the downstream fence check. A stale hit can
//! only route the descent too far *left* (splits move keys right and
//! leaves are never merged or reused — pools are bump allocators and GC
//! tombstones in place), where `covers(key)` fails against the fresh
//! page and the descent self-corrects through sibling chases. Every such
//! detection invalidates the stale entry (the fresh copy's bumped
//! version replaces it on the next miss), and a server restart flushes
//! the whole cache via a restart-epoch check before any hit is served.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]

use std::cell::Cell;
use std::rc::Rc;

use blink::layout::lock_word;
use blink::node::{kind_of, version_lock_of, NodeKind};
use blink::{Key, PageLayout, Ptr, Value};
use rdma_sim::{Cluster, Endpoint, FenceKind, PageBuf, RemotePtr, VerbError};

use crate::cache::{CacheLayer, Frame};
use crate::chain::{Chain, FgConfig};
use crate::local::Local;
use crate::onesided::read_unlocked;
use crate::router::Router;
use crate::{Mutation, NamCluster, PartitionMap};

/// Read-only bytes of a page, where they already are: the wire's buffer
/// or a cached frame (which the holder pins for as long as it reads).
pub(crate) enum Page {
    Wire(PageBuf),
    Cached(Frame),
}

impl std::ops::Deref for Page {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Page::Wire(page) => page,
            Page::Cached(frame) => frame,
        }
    }
}

impl Page {
    /// The page as a buffer its holder may change or keep: the wire's
    /// buffer itself, or a copy of a cached frame. Only inner pages are
    /// cached and only leaves are taken over, so no caller copies.
    pub(crate) fn into_owned(self) -> PageBuf {
        match self {
            Page::Wire(page) => page,
            Page::Cached(frame) => PageBuf::from(frame.to_vec()),
        }
    }
}

/// The levels above the leaves.
enum Upper {
    /// Inner pages scattered over the memory pools under a global root
    /// pointer — what §4.2 would keep in a catalog service; clients read
    /// it from the index itself. Updated on root splits.
    Remote {
        /// Current root.
        root: Cell<RemotePtr>,
    },
    /// One local tree per memory server behind RPC.
    Local(Local),
}

/// Any index design, described by the parts it has (see the module
/// docs). Operations on it are single attempts that surface verb
/// failures (`VerbError`); retry policy lives one level up, in
/// [`crate::Design`].
pub struct Index {
    /// The cluster and page geometry, as the untimed control-path view
    /// the checker's walks, head maintenance and model training read
    /// through.
    setup: SetupSource,
    chain: Option<Chain>,
    upper: Upper,
    router: Option<Router>,
    cache: Option<CacheLayer>,
}

/// Design 1 (§3): coarse-grained distribution, two-sided access.
pub struct CoarseGrained;

/// Design 2 (§4): fine-grained distribution, one-sided access.
pub struct FineGrained;

/// Design 3 (§5): coarse-grained upper levels, fine-grained leaf level.
pub struct Hybrid;

/// Design 4: model-predicted access over the hybrid layout.
pub struct Learned;

impl Index {
    /// Seal the bulk-loaded image and hand out the index. The image is
    /// the fiat recovery baseline: loading it is setup, not logged work,
    /// so setup writes are never replayed (pool pages recover from
    /// PoolWrite/PoolAllocTo records, local trees from their own).
    fn seal(
        cluster: &Cluster,
        layout: PageLayout,
        chain: Option<Chain>,
        upper: Upper,
        cache_capacity: Option<usize>,
    ) -> Index {
        cluster.seal_setup();
        Index {
            setup: SetupSource::new(cluster, layout),
            chain,
            upper,
            router: None,
            cache: cache_capacity.map(|cap| CacheLayer::new(cluster, cap)),
        }
    }

    /// The hybrid layout: a scattered leaf chain over all servers, plus
    /// per-server upper-level trees mapping leaf high keys (within the
    /// server's partition) to leaf remote pointers. Also returns that
    /// `(high key, leaf)` table.
    fn hybrid_layout(
        nam: &NamCluster,
        cfg: &FgConfig,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
        cache_capacity: Option<usize>,
    ) -> (Index, Vec<(Key, Ptr)>) {
        assert!(
            matches!(partition, PartitionMap::Range { .. }),
            "hybrid upper levels require range partitioning (high keys \
             must be routable)"
        );
        let (chain, level) = Chain::load(&nam.rdma, cfg, items);
        let routes = level.leaves.iter().map(|&(high, ptr)| (high, ptr.raw()));
        let local = Local::load(&nam.rdma, cfg.layout, cfg.fill, partition, routes);
        let upper = Upper::Local(local);
        let index = Index::seal(&nam.rdma, cfg.layout, Some(chain), upper, cache_capacity);
        (index, level.leaves)
    }
}

impl CoarseGrained {
    /// No chain; local trees over `items` (sorted by key) themselves.
    /// `fill` is the node fill factor.
    pub fn build(
        nam: &NamCluster,
        layout: PageLayout,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
        fill: f64,
    ) -> Rc<Index> {
        let upper = Upper::Local(Local::load(&nam.rdma, layout, fill, partition, items));
        Rc::new(Index::seal(&nam.rdma, layout, None, upper, None))
    }
}

impl FineGrained {
    /// A chain over `items` (sorted by key) under remote inner levels —
    /// one global tree, every node scattered round-robin — and the
    /// client cache if `cfg` sizes one.
    pub fn build(
        cluster: &Cluster,
        cfg: FgConfig,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> Rc<Index> {
        let (chain, level) = Chain::load(cluster, &cfg, items);
        let root = Cell::new(chain.load_upper(cluster, cfg.layout, level));
        let upper = Upper::Remote { root };
        let cache = cfg.cache_capacity;
        Rc::new(Index::seal(cluster, cfg.layout, Some(chain), upper, cache))
    }
}

impl Hybrid {
    /// A chain over `items` (sorted by key) under local upper levels,
    /// and the client cache if `cfg` sizes one.
    pub fn build(
        nam: &NamCluster,
        cfg: FgConfig,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> Rc<Index> {
        let cache = cfg.cache_capacity;
        Rc::new(Index::hybrid_layout(nam, &cfg, partition, items, cache).0)
    }
}

impl Learned {
    /// The hybrid layout plus a model router trained from its leaf
    /// level as loaded. Never a cache, whatever `cfg.cache_capacity`
    /// says: the model *is* the client-resident routing state, with its
    /// own coherence story.
    pub fn build(
        nam: &NamCluster,
        cfg: FgConfig,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> Rc<Index> {
        let (mut index, leaves) = Index::hybrid_layout(nam, &cfg, partition, items, None);
        index.router = Some(Router::trained(&nam.rdma, leaves));
        Rc::new(index)
    }
}

impl Index {
    /// Page geometry of every node.
    pub fn layout(&self) -> PageLayout {
        self.setup.layout()
    }

    /// The scattered leaf chain, if the index has one.
    pub fn chain(&self) -> Option<&Chain> {
        self.chain.as_ref()
    }

    /// Current root remote pointer, if the upper level is remote.
    pub fn root(&self) -> Option<RemotePtr> {
        match &self.upper {
            Upper::Remote { root } => Some(root.get()),
            Upper::Local(_) => None,
        }
    }

    /// The per-server trees, if the upper level is local.
    pub fn local(&self) -> Option<&Local> {
        match &self.upper {
            Upper::Remote { .. } => None,
            Upper::Local(local) => Some(local),
        }
    }

    /// The model router, if the index has one.
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// The client-side cache layer, if `cache_capacity` enabled one.
    pub fn cache(&self) -> Option<&CacheLayer> {
        self.cache.as_ref()
    }

    /// Untimed page-resolution view for control-path walks; also names
    /// the cluster this index lives on.
    pub fn setup_source(&self) -> &SetupSource {
        &self.setup
    }

    /// The restart-epoch fence every cache consultation starts with: a
    /// server restart flushes the whole cache before any hit is served.
    fn fenced_cache(&self, ep: &Endpoint) -> Option<&CacheLayer> {
        let cache = self.cache.as_ref()?;
        // Mutation `CachedNoFence`: skip the restart-epoch fence,
        // serving cached pages/routes against a rebuilt pool.
        if !crate::mutated(Mutation::CachedNoFence) {
            cache.flush_if_restarted();
            crate::note_epoch_check(ep);
        }
        Some(cache)
    }

    /// Where the descent for `key` begins. `req_bytes` sizes the request
    /// of an upper level that resolves it over the wire (the operation's
    /// own request message: the resolution RPC stands in for it).
    pub(crate) async fn start(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
    ) -> Result<RemotePtr, VerbError> {
        if let Some(ptr) = self.cached_route(ep, key) {
            return Ok(ptr);
        }
        if let Some(ptr) = self.predicted_start(ep, key) {
            return Ok(ptr);
        }
        match &self.upper {
            Upper::Remote { root } => Ok(root.get()),
            Upper::Local(local) => local.leaf_ptr_for(ep, key, req_bytes).await,
        }
    }

    /// The cached route for `key`, if a local upper level's cache holds
    /// one. Every cache consultation, a remote upper level's too, passes
    /// the restart-epoch fence here first.
    fn cached_route(&self, ep: &Endpoint, key: Key) -> Option<RemotePtr> {
        let cache = self.fenced_cache(ep)?;
        self.local()?;
        let ptr = cache.route_hit(ep.client_id(), key)?;
        crate::note_fence(ep, FenceKind::CachedUse, ptr);
        Some(ptr)
    }

    /// The model's prediction for `key`'s leaf, if there is a model.
    pub(crate) fn predicted_start(&self, ep: &Endpoint, key: Key) -> Option<RemotePtr> {
        let (router, chain) = (self.router.as_ref()?, self.chain.as_ref()?);
        // `sync` reconciles the model against the cluster restart epoch —
        // the same fence the cache layer evaluates.
        router.sync(&self.setup, chain.first());
        crate::note_epoch_check(ep);
        let ptr = router.predict(key)?;
        // A prediction is a served client-resident artifact: its pointer
        // derives from reads of a past leaf-chain snapshot.
        crate::note_fence(ep, FenceKind::CachedUse, ptr);
        Some(ptr)
    }

    /// Current bytes of the page at `ptr` (spins past locked copies): a
    /// cache hit, else `prefetched`, a copy READ beside other pages, if
    /// it is unlocked, else a READ.
    pub(crate) async fn load(
        &self,
        ep: &Endpoint,
        ptr: RemotePtr,
        prefetched: Option<PageBuf>,
    ) -> Result<Page, VerbError> {
        // Only remote inner levels are READ by the client, so only they
        // are worth caching as pages.
        let cache = self.root().and_then(|_| self.fenced_cache(ep));
        if let Some(frame) = cache.and_then(|c| c.page_hit(ep.client_id(), ptr)) {
            crate::note_fence(ep, FenceKind::CachedUse, ptr);
            return Ok(Page::Cached(frame));
        }
        let ps = self.layout().page_size();
        // Mutation `LearnedNoReread`: read a predicted page raw, skipping
        // `read_unlocked`'s locked-spin re-read, so a mid-write snapshot
        // can escape into the descent.
        let raw = self.router.is_some() && crate::mutated(Mutation::LearnedNoReread);
        let page = match prefetched.filter(|p| !lock_word::is_locked(version_lock_of(p))) {
            Some(page) => page,
            None if raw => ep.read(ptr, ps).await?,
            None => read_unlocked(ep, ptr, ps).await?,
        };
        if let Some(cache) = cache {
            if kind_of(&page) == NodeKind::Inner {
                cache.put_page(ep.client_id(), ptr, &page);
            }
        }
        Ok(Page::Wire(page))
    }

    /// Feedback: the descent for `key` ended at the covering leaf `ptr`
    /// whose bytes are `page`.
    pub(crate) fn note_leaf(&self, ep: &Endpoint, key: Key, ptr: RemotePtr, page: &[u8]) {
        if let (Some(cache), Upper::Local(_)) = (&self.cache, &self.upper) {
            cache.note_route(ep.client_id(), key, ptr, page);
        }
    }

    /// Feedback: routing for `key` out of `origin` proved stale (the
    /// reached node no longer covers the key and the descent had to
    /// chase a sibling). `origin` may be NULL when the stale step has no
    /// page of its own (a cached route, a prediction, the descent's
    /// start).
    pub(crate) fn invalidate(&self, ep: &Endpoint, key: Key, origin: RemotePtr) {
        if let Some(cache) = &self.cache {
            match self.upper {
                Upper::Remote { .. } => cache.drop_page(ep.client_id(), origin),
                Upper::Local(_) => cache.drop_route(ep.client_id(), key),
            }
        }
        if let Some(router) = &self.router {
            router.note_mispredict();
        }
    }

    /// Allocate a fresh remote page for a split (`RDMA_ALLOC`,
    /// Listing 4): timed round-robin placement over all memory servers,
    /// continuing the chain's cursor.
    pub(crate) async fn alloc(&self, ep: &Endpoint) -> Result<RemotePtr, VerbError> {
        let Some(chain) = &self.chain else {
            return Err(VerbError::Invariant("split in an index with no chain"));
        };
        let s = chain.next_server(ep.cluster());
        ep.alloc(s, self.layout().page_size() as u64).await
    }

    /// Register a committed leaf split with the upper level: `left`
    /// (high key now `sep`) kept its pointer, `right` (high key
    /// `old_high`) is new. `path` is the descent's inner-node trail over
    /// a remote upper level (empty otherwise). The model, if any, is not
    /// patched in place — the affected entry simply goes stale, counts
    /// mispredicts, and drift-triggered retraining replaces it.
    pub(crate) async fn complete_split(
        &self,
        ep: &Endpoint,
        path: Vec<RemotePtr>,
        sep: Key,
        left: RemotePtr,
        right: RemotePtr,
        old_high: Key,
    ) -> Result<(), VerbError> {
        // The splitting client knows its own cached state is stale: fix
        // routes eagerly, drop the parent page copy (its remote original
        // is about to change). Other clients correct lazily through the
        // validation rule.
        match &self.upper {
            Upper::Remote { root } => {
                if let (Some(cache), Some(&parent)) = (&self.cache, path.last()) {
                    cache.drop_page(ep.client_id(), parent);
                }
                self.propagate_split(root, ep, path, sep, left, right).await
            }
            Upper::Local(local) => {
                if let Some(cache) = &self.cache {
                    cache.note_split(ep.client_id(), sep, old_high, left.raw(), right.raw());
                }
                local.register_split(ep, sep, left, right, old_high).await
            }
        }
    }
}

/// Synchronous, untimed view of the same page-resolution surface, for
/// control-path consumers — the checker's structural walks and head
/// maintenance — that read pages through `Cluster::setup_read` with no
/// simulated cost. Keyed off the same layout as the timed source so walk
/// code and engine code agree on page geometry by construction.
pub struct SetupSource {
    cluster: Cluster,
    layout: PageLayout,
}

impl SetupSource {
    /// A setup-path view over `cluster` with `layout` page geometry.
    pub fn new(cluster: &Cluster, layout: PageLayout) -> Self {
        SetupSource {
            cluster: cluster.clone(),
            layout,
        }
    }

    /// Page geometry.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// The cluster read through.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Current bytes of the page at `ptr`, untimed.
    pub fn load(&self, ptr: RemotePtr) -> Vec<u8> {
        self.cluster.setup_read(ptr, self.layout.page_size())
    }

    /// The leaf chain from `first` in sibling order, untimed: every head
    /// and leaf with its current bytes ([`blink::check::chain`]: ends at
    /// a null sibling, after an inner page, or where a cycle is cut).
    pub fn chain(&self, first: RemotePtr) -> impl Iterator<Item = (RemotePtr, Vec<u8>)> + '_ {
        let load = |p| self.load(RemotePtr::from_page_ptr(p));
        blink::check::chain(first.as_page_ptr(), load)
            .map(|(p, page)| (RemotePtr::from_page_ptr(p), page))
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;
    use crate::chain::small_cfg;
    use blink::node::{InnerNodeMut, LeafNodeMut};
    use rdma_sim::ClusterSpec;
    use simnet::Sim;
    use std::cell::RefCell;

    /// `n` chained pages on server 0, page `i` pointing at page `next(i)`
    /// (`None` ends the chain); page `inner`, if any, is an inner node.
    fn chain_of(
        n: usize,
        next: impl Fn(usize) -> Option<usize>,
        inner: Option<usize>,
    ) -> (SetupSource, Vec<RemotePtr>) {
        let cluster = Cluster::new(&Sim::new(), ClusterSpec::default());
        let layout = PageLayout::new(256);
        let ptrs: Vec<RemotePtr> = (0..n).map(|_| cluster.setup_alloc(0, 256)).collect();
        for (i, &ptr) in ptrs.iter().enumerate() {
            let right = next(i).map_or(Ptr::NULL, |j| ptrs[j].as_page_ptr());
            let mut page = layout.alloc_page();
            if inner == Some(i) {
                InnerNodeMut::init(&mut page, 1, i as Key, right);
            } else {
                LeafNodeMut::init(&mut page, i as Key, Ptr::NULL, right);
            }
            cluster.setup_write(ptr, &page);
        }
        (SetupSource::new(&cluster, layout), ptrs)
    }

    #[test]
    fn chain_walks_to_the_null_sibling_and_stops_after_an_inner_page() {
        let (src, ptrs) = chain_of(5, |i| (i < 4).then_some(i + 1), None);
        let walked: Vec<RemotePtr> = src.chain(ptrs[0]).map(|(p, _)| p).collect();
        assert_eq!(walked, ptrs);
        assert_eq!(src.chain(RemotePtr::NULL).count(), 0);

        let (src, ptrs) = chain_of(5, |i| (i < 4).then_some(i + 1), Some(2));
        let walked: Vec<RemotePtr> = src.chain(ptrs[0]).map(|(p, _)| p).collect();
        assert_eq!(
            walked,
            ptrs[..3],
            "the inner page is yielded, then the walk ends"
        );
    }

    #[test]
    fn chain_cuts_every_cycle() {
        // A tail of `tail` pages leading into a loop of `n - tail`.
        for n in 1..12 {
            for tail in 0..n {
                let (src, ptrs) = chain_of(n, |i| Some(if i + 1 < n { i + 1 } else { tail }), None);
                let walked: Vec<RemotePtr> = src.chain(ptrs[0]).map(|(p, _)| p).collect();
                assert_eq!(walked[..n], ptrs[..], "every page once, in order, first");
                assert!(
                    walked.len() <= 3 * n,
                    "tail {tail} of {n}: walked {}",
                    walked.len()
                );
            }
        }
    }

    fn build_hybrid(sim: &Sim, n: u64) -> (NamCluster, Rc<Index>) {
        let nam = NamCluster::new(sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), n * 8);
        let idx = Hybrid::build(&nam, small_cfg(), partition, (0..n).map(|i| (i * 8, i)));
        (nam, idx)
    }

    #[test]
    fn lookup_via_rpc_plus_one_read() {
        let sim = Sim::new();
        let (nam, idx) = build_hybrid(&sim, 5000);
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
        let (nam, idx) = build_hybrid(&sim, 5000);
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
        let (nam, idx) = build_hybrid(&sim, 500);
        let ep = Endpoint::new(&nam.rdma);
        let idx2 = idx.clone();
        sim.spawn(async move {
            for i in 0..500u64 {
                idx2.insert(&ep, i * 8 + 1, 90_000 + i, false)
                    .await
                    .unwrap();
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
        let (nam, idx) = build_hybrid(&sim, 1000);
        for c in 0..6u64 {
            let idx = idx.clone();
            let ep = Endpoint::new(&nam.rdma);
            sim.spawn(async move {
                for i in 0..40u64 {
                    idx.insert(&ep, (i * 6 + c) * 8 + 3, c * 1000 + i, false)
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
        let (nam, idx) = build_hybrid(&sim, 300);
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

    /// The byte-identity contract of bulk load: placement is the order of
    /// `alloc` calls (leaves, then each inner level left to right), so
    /// every pool image is pinned — per-server watermark plus one
    /// FNV-1a-64 digest chained over the four images.
    #[test]
    fn bulk_loaded_pool_images_are_pinned() {
        use crate::Design;
        use crate::IndexKind;
        // (page, batch, n, dup) -> (per-server `allocated()`, digest) of
        // FG and of Hybrid = Learned: duplicates straddling leaf
        // boundaries, single scan READs, default geometry, empty input,
        // one duplicated key per leaf.
        let cases = [
            (
                (200usize, 4usize, 5000u64, 3u64),
                ([32608u64, 32608, 32608, 32408], 0x7c936aa2c0dab2bfu64),
                ([27808, 27808, 27808, 27808], 0xe75186d2574cd390),
            ),
            (
                (200, 0, 777, 1),
                ([6608, 6608, 6608, 6408], 0x7b697fc2c58a6dad),
                ([5608, 5608, 5608, 5408], 0xff70072c3b48705c),
            ),
            (
                (1024, 8, 100_000, 1),
                ([625672, 624648, 624648, 624648], 0xd2f8b66d4dabd881),
                ([610312, 609288, 609288, 609288], 0xed4a4812fce18f35),
            ),
            (
                (1024, 8, 0, 1),
                ([1032, 8, 8, 8], 0x7aaab18c4a4b1f5c),
                ([1032, 8, 8, 8], 0x7aaab18c4a4b1f5c),
            ),
            (
                (200, 4, 28, 7),
                ([408, 208, 208, 208], 0x0aa492c5d2656f5b),
                ([208, 208, 208, 208], 0x5d1df6a8942dfd88),
            ),
        ];
        // Twice: the second round builds every pool in memory the first
        // round's pools left dirty on this thread (`blink::mem`).
        for round in 0..2 {
            assert!(
                round == 0 || blink::mem::spare_bytes() > 0,
                "nothing was parked for the second round"
            );
            for ((page, scan_batch, n, dup), fg, hybrid) in cases {
                // Every design with a chain (CG keeps nothing in the pools).
                for kind in &IndexKind::ALL[1..] {
                    let sim = Sim::new();
                    let nam = NamCluster::new(&sim, ClusterSpec::default());
                    let cfg = FgConfig {
                        layout: PageLayout::new(page),
                        fill: 0.7,
                        scan_batch,
                        cache_capacity: None,
                    };
                    let partition = PartitionMap::range_uniform(4, (n / dup + 1) * 8);
                    let items = (0..n).map(|i| ((i / dup) * 8, i));
                    let _design = Design::build(*kind, &nam, cfg, partition, items);
                    let mut digest = 0xcbf29ce484222325u64;
                    let mut allocated = [0u64; 4];
                    for (s, mark) in allocated.iter_mut().enumerate() {
                        *mark = nam.rdma.with_pool(s, |p| p.allocated());
                        for b in nam.rdma.with_pool(s, |p| p.image()) {
                            digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
                        }
                    }
                    let want = if *kind == IndexKind::FineGrained {
                        fg
                    } else {
                        hybrid
                    };
                    assert_eq!(
                        (allocated, digest),
                        want,
                        "{kind:?} ({page}, {scan_batch}, {n}, {dup}): digest {digest:016x}"
                    );
                }
            }
        }
    }

    /// The other half of the bulk-load contract: the per-server local
    /// trees, where CG keeps every entry and Hybrid and Learned their
    /// upper levels — none of it in the pools. Pinned per case: each
    /// server's page count and one FNV-1a-64 digest chained over the four
    /// trees' heights and images. The pool golden's five geometries under
    /// a uniform range map, then a skewed map whose bounds are loaded
    /// keys (dense keys, two entries each, so a duplicated key sits on
    /// each bound) and a hash map.
    #[test]
    fn bulk_loaded_local_trees_are_pinned() {
        use crate::Design;
        use crate::IndexKind;
        // Keys are dense here, so each bound below 5000 is a loaded key.
        let skewed = PartitionMap::range_fractions(&[0.80, 0.12, 0.05, 0.03], 5000);
        assert!(
            matches!(&skewed, PartitionMap::Range { bounds } if bounds[..3].iter().all(|&b| b < 5000)),
            "{skewed:?}"
        );
        // (page, stride, n, dup, partition) -> (pages per server, digest)
        // of CG, then of Hybrid = Learned (`None`: Hybrid needs a range
        // map). No partition: uniform, over keys 8 apart.
        type Pin = ([usize; 4], u64);
        let cases: [(_, Pin, Option<Pin>); 7] = [
            (
                (200usize, 4usize, 5000u64, 3u64, None),
                ([163; 4], 0xb3dcfbeb9b855169),
                Some(([24; 4], 0xe5128111ee272d0a)),
            ),
            (
                (200, 0, 777, 1, None),
                ([33; 4], 0xe6cd6280aee80059),
                Some(([5; 4], 0xae79f98903fac9df)),
            ),
            (
                (1024, 8, 100_000, 1, None),
                ([612; 4], 0x696919e731cb47bf),
                Some(([16; 4], 0x12c40029dd491a9f)),
            ),
            (
                (1024, 8, 0, 1, None),
                ([1; 4], 0x8127f41ef1bd9c25),
                Some(([1; 4], 0x60c1a8fd41a09eac)),
            ),
            (
                (200, 4, 28, 7, None),
                ([3, 1, 1, 1], 0x5edc01b0696b87a2),
                Some(([1; 4], 0x9d22221a3a1c6425)),
            ),
            (
                (200, 4, 10_000, 2, Some(skewed)),
                ([1168, 177, 75, 45], 0x67555b3a8ef79d32),
                Some(([168, 27, 12, 7], 0xe9771f5e9ce72bd8)),
            ),
            (
                (200, 4, 5000, 1, Some(PartitionMap::hash(4))),
                ([210; 4], 0x6b4ad17ec4f2d251),
                None,
            ),
        ];
        // Twice, like the pool golden: the second round builds in the
        // memory the first round's trees left dirty.
        for round in 0..2 {
            for ((page, scan_batch, n, dup, partition), cg, hybrid) in cases.clone() {
                let stride = if partition.is_some() { 1 } else { 8 };
                let partition =
                    partition.unwrap_or_else(|| PartitionMap::range_uniform(4, (n / dup + 1) * 8));
                let pins = [
                    (IndexKind::CoarseGrained, Some(cg)),
                    (IndexKind::Hybrid, hybrid),
                    (IndexKind::Learned, hybrid),
                ];
                for (kind, want) in pins.into_iter().filter_map(|(k, w)| Some((k, w?))) {
                    let sim = Sim::new();
                    let nam = NamCluster::new(&sim, ClusterSpec::default());
                    let cfg = FgConfig {
                        layout: PageLayout::new(page),
                        fill: 0.7,
                        scan_batch,
                        cache_capacity: None,
                    };
                    let items = (0..n).map(|i| ((i / dup) * stride, i));
                    let design = Design::build(kind, &nam, cfg, partition.clone(), items);
                    let local = design.index().local().expect("a local level");
                    let mut digest = 0xcbf29ce484222325u64;
                    let mut pages = [0usize; 4];
                    for (node, count) in local.nodes().iter().zip(&mut pages) {
                        node.with_tree(|t| {
                            *count = t.num_pages();
                            for &b in [t.height()].iter().chain(t.image()) {
                                digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
                            }
                        });
                    }
                    assert_eq!(
                        (pages, digest),
                        want,
                        "round {round}, {kind:?} ({page}, {scan_batch}, {n}, {dup}, \
                         {partition:?}): digest {digest:016x}"
                    );
                }
            }
        }
    }

    /// The parts table: which parts each design name builds.
    #[test]
    fn each_kind_builds_its_parts() {
        use crate::Design;
        use crate::IndexKind;
        for capacity in [None, Some(64)] {
            for kind in IndexKind::ALL {
                let sim = Sim::new();
                let nam = NamCluster::new(&sim, ClusterSpec::default());
                let partition = PartitionMap::range_uniform(nam.num_servers(), 1000 * 8);
                let cfg = FgConfig {
                    cache_capacity: capacity,
                    ..small_cfg()
                };
                let items = (0..1000u64).map(|i| (i * 8, i));
                let design = Design::build(kind, &nam, cfg, partition, items);
                assert_eq!(design.kind(), kind);
                let idx = design.index();
                let parts = (
                    idx.chain().is_some(),
                    idx.root().is_some(),
                    idx.local().is_some(),
                    idx.router().is_some(),
                    idx.cache().is_some(),
                );
                // (chain, remote upper, local upper, router, cache)
                let cached = capacity.is_some();
                let want = match kind {
                    IndexKind::CoarseGrained => (false, false, true, false, false),
                    IndexKind::FineGrained => (true, true, false, false, cached),
                    IndexKind::Hybrid => (true, false, true, false, cached),
                    // Hybrid's chain and local upper level plus a model —
                    // and never a cache, whatever `cache_capacity` says.
                    IndexKind::Learned => (true, false, true, true, false),
                };
                assert_eq!(parts, want, "{kind:?} with cache_capacity {capacity:?}");
            }
        }
    }

    /// Composition is real: a Learned index whose model is withheld
    /// (restart-epoch flush with a server still down) is a Hybrid index —
    /// the same op sequence, scans over many leaves included, costs
    /// exactly the same verbs on every server and returns the same.
    #[test]
    fn learned_without_a_model_issues_hybrids_verbs() {
        use crate::Design;
        use crate::IndexKind;
        const N: u64 = 2000;
        const DOWN: usize = 3;
        let run = |kind: IndexKind| {
            let sim = Sim::new();
            let nam = NamCluster::new(&sim, ClusterSpec::default());
            let partition = PartitionMap::range_uniform(nam.num_servers(), N * 8);
            let items = (0..N).map(|i| (i * 8, i));
            let design = Design::build(kind, &nam, small_cfg(), partition.clone(), items);
            let idx = design.index().clone();
            // Bump the restart epoch (Durability::Off: memory survives),
            // then keep the server down so retraining stays blocked.
            nam.rdma.fail_server(DOWN);
            nam.rdma.restart_server(DOWN);
            nam.rdma.fail_server(DOWN);
            // Loaded keys that resolve, with their two successors, to a
            // leaf stored off the down server through a live partition.
            let local = idx.local().expect("local upper level");
            let keys: Vec<Key> = (0..N)
                .map(|i| i * 8)
                .filter(|&k| {
                    let s = partition.server_of(k);
                    let mut leaf = None;
                    local.nodes()[s].with_tree(|t| {
                        t.ceiling_run(k, |high, raw| {
                            leaf = Some((high, raw));
                            false
                        })
                    });
                    s != DOWN
                        && leaf.is_some_and(|(high, raw)| {
                            high > k + 2 && RemotePtr::from_raw(raw).server() != DOWN
                        })
                })
                .step_by(40)
                .collect();
            assert!(keys.len() >= 20, "too few usable keys: {}", keys.len());
            let before = nam.rdma.all_stats();
            let ep = Endpoint::new(&nam.rdma);
            let scans = Rc::new(RefCell::new(Vec::new()));
            let scans2 = scans.clone();
            sim.spawn(async move {
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(idx.lookup(&ep, k).await, Ok(Some(k / 8)));
                    assert_eq!(idx.range(&ep, k, k).await, Ok(vec![(k, k / 8)]));
                    // Scans over several leaves: across head groups, and
                    // failing where they meet the down server.
                    let hi = k + 8 * [3, 12, 40][i % 3];
                    let scan = idx.range(&ep, k, hi).await;
                    scans2.borrow_mut().push(scan);
                    assert_eq!(idx.insert(&ep, k + 1, 7, false).await, Ok(()));
                    assert_eq!(idx.delete(&ep, k + 2).await, Ok(false));
                    assert_eq!(idx.delete(&ep, k).await, Ok(true));
                }
            });
            sim.run();
            assert_eq!(sim.live_tasks(), 0, "an assertion task died");
            let verbs: Vec<(u64, u64)> = nam
                .rdma
                .all_stats()
                .iter()
                .zip(&before)
                .map(|(a, b)| (a.rpcs - b.rpcs, a.onesided_ops - b.onesided_ops))
                .collect();
            (verbs, scans.take(), design.learned_stats())
        };
        let (hybrid, hybrid_scans, _) = run(IndexKind::Hybrid);
        let (learned, learned_scans, stats) = run(IndexKind::Learned);
        assert_eq!(learned, hybrid, "(rpcs, onesided_ops) per server");
        assert!(hybrid.iter().any(|&(rpcs, _)| rpcs > 0));
        assert_eq!(learned_scans, hybrid_scans);
        let long = |r: &Result<Vec<_>, _>| r.as_ref().is_ok_and(|rows| rows.len() > 10);
        assert!(hybrid_scans.iter().any(long), "{hybrid_scans:?}");
        let stats = stats.expect("router stats");
        assert_eq!(stats.epoch_flushes, 1);
        assert_eq!(stats.predictions, 0, "a withheld model predicts nothing");
        assert!(stats.fallbacks > 0);
    }
}
