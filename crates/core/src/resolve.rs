//! Page resolution: how a traversal turns a node reference into bytes.
//!
//! The three designs share one B-link traversal core ([`crate::engine`])
//! and differ only in *where the descent starts* and *how a node
//! reference becomes page bytes*. That difference is the [`NodeSource`]
//! trait:
//!
//! * fine-grained — [`start`](NodeSource::start) is the published root
//!   pointer and [`load`](NodeSource::load) is a one-sided READ, so the
//!   client descends through remotely stored inner nodes itself;
//! * hybrid — [`start`](NodeSource::start) is an upper-level RPC that
//!   hands back the covering leaf's remote pointer, and
//!   [`load`](NodeSource::load) READs only chain pages (leaves and
//!   heads);
//! * coarse-grained — there is no client-side page resolution at all
//!   (whole operations ship to the owning server as RPCs), so CG plugs
//!   into the engine's retry layer only, not into [`NodeSource`].
//!
//! Client-side caching (Appendix A.4) is a *decorator* over any
//! [`NodeSource`] — [`Cached`] — so it applies to the real
//! `lookup/range/insert/delete` path of both pointer-resolving designs
//! instead of living in a bench-only side path. What gets cached follows
//! the source's [`CachePolicy`]: FG caches inner pages by remote
//! pointer; Hybrid caches resolved leaf routes by covering high key
//! (its upper levels are server-local, so the RPC's answer *is* the
//! cacheable artifact).
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

use blink::node::{kind_of, HeadNodeRef, LeafNodeRef, NodeKind};
use blink::{Key, PageLayout};
use rdma_sim::{Cluster, Endpoint, FenceKind, PageBuf, RemotePtr, VerbError};

use crate::cache::CacheLayer;

/// Which index operation a descent serves. Sources that resolve the
/// start of a descent over the wire (the hybrid's upper-level RPC) need
/// it to size the request message; pure pointer sources ignore it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpAccess {
    /// Point lookup.
    Lookup,
    /// Range scan (descends to the low end of the interval).
    Range,
    /// Insert (descends to the covering leaf for a locked install).
    Insert,
    /// Tombstone delete.
    Delete,
}

/// What a [`Cached`] decorator over a source may cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// Cache inner pages by remote pointer: the client descends through
    /// remotely stored inner nodes, so a cached inner level saves one
    /// round trip per descent (fine-grained).
    InnerPages,
    /// Cache resolved `high_key → leaf pointer` routes: the upper levels
    /// are server-local and never READ by the client, so the cacheable
    /// artifact is the resolution RPC's answer (hybrid).
    Routes,
}

/// How a traversal turns a node reference into page bytes.
///
/// Implemented by the fine-grained and hybrid designs; consumed
/// generically by [`crate::engine`]'s descent/SMO core and wrappable by
/// [`Cached`]. The two hook methods are cache feedback — default no-ops
/// so plain sources pay nothing.
#[allow(async_fn_in_trait)] // single-threaded DES: no Send bounds wanted
pub trait NodeSource {
    /// Whether the client itself descends from `start` through inner
    /// levels (fine-grained) or `start` already resolves to the leaf
    /// chain (hybrid). Write operations use this to decide between a
    /// path-recording descent and a direct leaf lock.
    const CLIENT_DESCENT: bool;

    /// Page geometry of every node this source resolves.
    fn layout(&self) -> PageLayout;

    /// What a [`Cached`] wrapper over this source caches.
    fn cache_policy(&self) -> CachePolicy;

    /// Where the descent for `key` begins.
    async fn start(
        &self,
        ep: &Endpoint,
        key: Key,
        access: OpAccess,
    ) -> Result<RemotePtr, VerbError>;

    /// Current bytes of the page at `ptr` (spins past locked copies).
    async fn load(&self, ep: &Endpoint, ptr: RemotePtr) -> Result<PageBuf, VerbError>;

    /// Feedback: the descent for `key` ended at the covering leaf
    /// `ptr` whose bytes are `page`.
    fn note_leaf(&self, _ep: &Endpoint, _key: Key, _ptr: RemotePtr, _page: &[u8]) {}

    /// Feedback: routing for `key` out of `origin` proved stale (the
    /// reached node no longer covers the key and the descent had to
    /// chase a sibling). `origin` may be NULL when the stale step has no
    /// page of its own (a cached route, the descent's start).
    fn invalidate(&self, _ep: &Endpoint, _key: Key, _origin: RemotePtr) {}
}

/// Caching decorator over any [`NodeSource`] (Appendix A.4 made a
/// first-class engine layer).
///
/// With no cache attached this is an exact pass-through — same verbs,
/// same awaits — so uncached configurations stay digest-identical to the
/// undecorated source. With a [`CacheLayer`], hits skip the wire
/// according to the inner source's [`CachePolicy`] and the module-level
/// validation rule applies.
pub struct Cached<'a, S> {
    inner: &'a S,
    cache: Option<&'a CacheLayer>,
}

impl<'a, S: NodeSource> Cached<'a, S> {
    /// Wrap `inner`; `cache = None` disables caching (pass-through).
    pub fn new(inner: &'a S, cache: Option<&'a CacheLayer>) -> Self {
        Cached { inner, cache }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        self.inner
    }

    /// The attached cache layer, if any.
    pub(crate) fn cache_layer(&self) -> Option<&'a CacheLayer> {
        self.cache
    }
}

impl<S: NodeSource> NodeSource for Cached<'_, S> {
    const CLIENT_DESCENT: bool = S::CLIENT_DESCENT;

    fn layout(&self) -> PageLayout {
        self.inner.layout()
    }

    fn cache_policy(&self) -> CachePolicy {
        self.inner.cache_policy()
    }

    async fn start(
        &self,
        ep: &Endpoint,
        key: Key,
        access: OpAccess,
    ) -> Result<RemotePtr, VerbError> {
        if let Some(cache) = self.cache {
            // Mutation (race, `mutations` builds under
            // NAMDEX_RACE_MUT=cached-no-fence): skip the restart-epoch
            // fence, serving cached routes against a rebuilt pool.
            if !crate::race_mut(crate::RaceMut::CachedNoFence) {
                cache.flush_if_restarted();
                crate::note_epoch_check(ep);
            }
            if self.inner.cache_policy() == CachePolicy::Routes {
                if let Some(ptr) = cache.route_hit(ep.client_id(), key) {
                    crate::note_fence(ep, FenceKind::CachedUse, ptr);
                    return Ok(ptr);
                }
            }
        }
        self.inner.start(ep, key, access).await
    }

    async fn load(&self, ep: &Endpoint, ptr: RemotePtr) -> Result<PageBuf, VerbError> {
        let cache = match self.cache {
            Some(c) if self.inner.cache_policy() == CachePolicy::InnerPages => c,
            _ => return self.inner.load(ep, ptr).await,
        };
        // Mutation (race): same elision as in `start` — see above.
        if !crate::race_mut(crate::RaceMut::CachedNoFence) {
            cache.flush_if_restarted();
            crate::note_epoch_check(ep);
        }
        if let Some(page) = cache.page_hit(ep.client_id(), ptr) {
            crate::note_fence(ep, FenceKind::CachedUse, ptr);
            return Ok(page);
        }
        let page = self.inner.load(ep, ptr).await?;
        if kind_of(&page) == NodeKind::Inner {
            cache.put_page(ep.client_id(), ptr, &page);
        }
        Ok(page)
    }

    fn note_leaf(&self, ep: &Endpoint, key: Key, ptr: RemotePtr, page: &[u8]) {
        if let Some(cache) = self.cache {
            if self.inner.cache_policy() == CachePolicy::Routes {
                cache.note_route(ep.client_id(), key, ptr, page);
            }
        }
        self.inner.note_leaf(ep, key, ptr, page);
    }

    fn invalidate(&self, ep: &Endpoint, key: Key, origin: RemotePtr) {
        if let Some(cache) = self.cache {
            match self.inner.cache_policy() {
                CachePolicy::InnerPages => cache.drop_page(ep.client_id(), origin),
                CachePolicy::Routes => cache.drop_route(ep.client_id(), key),
            }
        }
        self.inner.invalidate(ep, key, origin);
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
    /// and leaf with its current bytes. Ends at a null sibling, after
    /// yielding a non-chain (inner) page — what a torn chain means is the
    /// caller's call — or when the walk comes back to a page it has
    /// passed. The cycle check is Brent's: constant state, so a cycle may
    /// be walked twice before it is cut, never forever.
    pub fn chain(&self, first: RemotePtr) -> impl Iterator<Item = (RemotePtr, Vec<u8>)> + '_ {
        let mut cur = first;
        // `mark` trails at the page passed `span` steps after the last mark.
        let (mut mark, mut since_mark, mut span) = (RemotePtr::NULL, 0u64, 1u64);
        std::iter::from_fn(move || {
            if cur.is_null() || cur == mark {
                return None;
            }
            let at = cur;
            since_mark += 1;
            if since_mark == span {
                (mark, since_mark, span) = (at, 0, span * 2);
            }
            let page = self.load(at);
            cur = RemotePtr::from_page_ptr(match kind_of(&page) {
                NodeKind::Head => HeadNodeRef::new(&page).right_sibling(),
                NodeKind::Leaf => LeafNodeRef::new(&page).right_sibling(),
                NodeKind::Inner => blink::Ptr::NULL,
            });
            Some((at, page))
        })
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
    use blink::node::{InnerNodeMut, LeafNodeMut};
    use blink::Ptr;
    use rdma_sim::ClusterSpec;
    use simnet::Sim;

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
}
