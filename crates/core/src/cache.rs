//! Client-side caching of upper index levels (Appendix A.4).
//!
//! The paper's initial caching results: compute servers can cache hot
//! inner nodes and skip remote READs during descents, which benefits the
//! fine-grained design most (it pays one round trip per level). For
//! read-only workloads no invalidation is needed; with writes, cache
//! invalidation becomes the hard problem the appendix defers to future
//! work.
//!
//! Caching is wired into the real operation path as an optional part of
//! the engine's page resolution ([`crate::resolve`]); this module
//! holds the state it consults, a [`CacheLayer`] per index: one
//! bounded slot table per client (inner pages by remote pointer for the
//! fine-grained design, leaf routes by covering high key for the hybrid),
//! aggregate counters, and the server-restart epoch that flushes
//! everything when any memory server restarts.
//!
//! A table holds at most `capacity` entries (`0` = unbounded: it never
//! evicts) and replaces by CLOCK: a hit sets the entry's reference bit,
//! an install into a full table sweeps a hand over the slots, clearing
//! set bits and taking the first clear one. Installing is the only place
//! the bound is enforced.
//!
//! Private per client is the *logical* cache: which entries it holds,
//! their reference bits, its hand. The *bytes* of a cached page are an
//! immutable [`Frame`] shared by every client that READ the same content.
//! The layer interns, per remote pointer, the bytes last installed by
//! anyone; a miss whose READ matches them takes another reference, one
//! that differs installs a new frame, and clients holding the old frame
//! keep exactly the stale bytes they READ — the staleness the model
//! simulates — until they evict or invalidate. A hit hands out a
//! reference, not a copy, and the count is the pin: eviction cannot pull
//! a page out from under an `await`, and allocation is per distinct page
//! content, never per client or per lookup. The intern table is never
//! pruned: one frame per page ever cached is at most the inner level.
//!
//! A hit is an access served without touching the wire, a miss one that
//! went to the wire. The fine-grained design's leaf loads come
//! through the same door and are never cached, so each counts as a miss:
//! over a tree of `L` levels its hit ratio is at most `(L - 1) / L`.
//!
//! A stale entry is harmless: descents correct themselves through B-link
//! sibling chases, and each detected stale step invalidates the entry
//! that caused it (the validation rule in [`crate::resolve`]).

use std::cell::{Cell, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;

use blink::node::LeafNodeRef;
use blink::Key;
use rdma_sim::{Cluster, RemotePtr};

/// The immutable bytes of one cached page, shared by every client whose
/// cache holds that content; holding one pins it.
pub type Frame = Rc<[u8]>;

#[derive(Default)]
struct Slot<V> {
    key: u64,
    referenced: bool,
    value: V,
}

/// Slots, a `key → slot` index over them, and the CLOCK hand.
#[derive(Default)]
struct SlotTable<V> {
    /// `(key, slot)` in key order. A sorted vector, not a tree: ordered
    /// lookups are a binary search, and replacing an entry moves bytes
    /// instead of allocating and freeing tree nodes (at the price of an
    /// install that is linear in the entries of an unbounded table).
    index: Vec<(u64, u32)>,
    slots: Vec<Slot<V>>,
    hand: usize,
}

impl<V: Default> SlotTable<V> {
    /// Position in `index` of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: u64) -> usize {
        self.index.partition_point(|&(k, _)| k < key)
    }

    /// The first entry whose key is `>= key`.
    fn ceil(&mut self, key: u64) -> Option<&mut Slot<V>> {
        let &(_, slot) = self.index.get(self.lower_bound(key))?;
        Some(&mut self.slots[slot as usize])
    }

    fn get(&mut self, key: u64) -> Option<&mut Slot<V>> {
        self.ceil(key).filter(|s| s.key == key)
    }

    /// The value to overwrite for `key`, and whether the entry is new. A
    /// new entry takes a fresh slot while the table holds fewer than
    /// `capacity` entries (always, if that is 0) and otherwise the CLOCK
    /// victim's, whose old value it then finds there.
    fn install(&mut self, key: u64, capacity: usize) -> (&mut V, bool) {
        if let Some(&(k, slot)) = self.index.get(self.lower_bound(key)) {
            if k == key {
                return (&mut self.slots[slot as usize].value, false);
            }
        }
        let slot = if capacity == 0 || self.slots.len() < capacity {
            self.slots.push(Slot {
                key,
                ..Slot::default()
            });
            self.slots.len() - 1
        } else {
            let victim = loop {
                let at = self.hand;
                self.hand = (at + 1) % self.slots.len();
                if !std::mem::take(&mut self.slots[at].referenced) {
                    break at;
                }
            };
            let evicted = std::mem::replace(&mut self.slots[victim].key, key);
            self.index.remove(self.lower_bound(evicted));
            victim
        };
        let at = self.lower_bound(key);
        self.index.insert(at, (key, slot as u32));
        (&mut self.slots[slot].value, true)
    }

    /// Drop the entry for `key`; reports whether one was present.
    fn remove(&mut self, key: u64) -> bool {
        let at = self.lower_bound(key);
        let slot = match self.index.get(at) {
            Some(&(k, slot)) if k == key => slot as usize,
            _ => return false,
        };
        self.index.remove(at);
        self.slots.swap_remove(slot);
        if let Some(moved) = self.slots.get(slot) {
            let at = self.lower_bound(moved.key);
            self.index[at].1 = slot as u32;
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        true
    }
}

/// Aggregate statistics of one index's [`CacheLayer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits served without touching the wire (page or route).
    pub hits: u64,
    /// Misses that went to the inner source.
    pub misses: u64,
    /// Entries dropped because a descent proved them stale.
    pub invalidations: u64,
    /// Whole-cache flushes triggered by a server restart.
    pub restart_flushes: u64,
}

impl CacheStats {
    /// Fraction of cache accesses that hit (0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Route entry: covering leaf pointer plus a key proven covered (the
/// leaf's low fence can only move further left of it — leaves are never
/// merged — so `low_hint <= key <= high_key` guarantees the leaf covered
/// the whole span at cache time and still reaches `key` by at most
/// chasing right).
type Route = (u64, Key);

/// What one client caches; an index fills one of the two, by its
/// upper level (remote: pages, local: routes — see [`crate::resolve`]).
#[derive(Default)]
struct ClientCache {
    /// Inner pages by remote pointer (`None` only while a fresh slot
    /// awaits its first frame).
    pages: SlotTable<Option<Frame>>,
    /// Leaf routes by the leaf's high key.
    routes: SlotTable<Route>,
}

/// Per-index cache layer: one cache per client, shared counters, and
/// restart-epoch invalidation.
///
/// Per *client*, not per index: real compute servers do not share memory,
/// so each simulated client keeps its own cache and pays its own warm-up
/// misses.
pub struct CacheLayer {
    cluster: Cluster,
    capacity: usize,
    /// By client id, which a cluster hands out densely from 0.
    clients: RefCell<Vec<ClientCache>>,
    /// The intern table: by remote pointer, the page bytes last installed
    /// by any client.
    frames: RefCell<BTreeMap<u64, Frame>>,
    stats: Cell<CacheStats>,
    epoch: Cell<u64>,
}

impl CacheLayer {
    /// A layer over `cluster` holding at most `capacity` entries per
    /// client (0 = unbounded).
    pub fn new(cluster: &Cluster, capacity: usize) -> Self {
        CacheLayer {
            cluster: cluster.clone(),
            capacity,
            clients: RefCell::default(),
            frames: RefCell::default(),
            stats: Cell::default(),
            epoch: Cell::new(cluster.restart_epoch()),
        }
    }

    /// `client`'s cache, empty at its first use.
    fn client(&self, client: u64) -> RefMut<'_, ClientCache> {
        RefMut::map(self.clients.borrow_mut(), |all| {
            if client as usize >= all.len() {
                all.resize_with(client as usize + 1, ClientCache::default);
            }
            &mut all[client as usize]
        })
    }

    /// Flush everything if any memory server restarted since the last
    /// access: a restarted server's pool content was rebuilt, so cached
    /// bytes and routes into it can no longer be trusted.
    pub fn flush_if_restarted(&self) {
        let now = self.cluster.restart_epoch();
        if now != self.epoch.get() {
            self.epoch.set(now);
            self.clients.borrow_mut().clear();
            self.frames.borrow_mut().clear();
            self.bump(|s| s.restart_flushes += 1);
        }
    }

    fn bump(&self, change: impl FnOnce(&mut CacheStats)) {
        let mut stats = self.stats.get();
        change(&mut stats);
        self.stats.set(stats);
    }

    fn count<T>(&self, hit: Option<T>) -> Option<T> {
        self.bump(|s| match hit {
            Some(_) => s.hits += 1,
            None => s.misses += 1,
        });
        hit
    }

    /// `client`'s cached page — the bytes that client last installed —
    /// counting a hit or miss.
    pub fn page_hit(&self, client: u64, ptr: RemotePtr) -> Option<Frame> {
        let mut cache = self.client(client);
        self.count(cache.pages.get(ptr.raw()).and_then(|slot| {
            slot.referenced = true;
            slot.value.clone()
        }))
    }

    /// Whether `client` holds a page for `ptr`, counting nothing.
    pub fn holds_page(&self, client: u64, ptr: RemotePtr) -> bool {
        self.client(client).pages.get(ptr.raw()).is_some()
    }

    /// Install `page` for `client`: the interned frame if it holds these
    /// bytes, else a new one that replaces it in the intern table.
    pub fn put_page(&self, client: u64, ptr: RemotePtr, page: impl AsRef<[u8]>) {
        let page = page.as_ref();
        let mut frames = self.frames.borrow_mut();
        let latest = frames.entry(ptr.raw()).or_insert_with(|| page.into());
        if **latest != *page {
            *latest = page.into();
        }
        let mut cache = self.client(client);
        *cache.pages.install(ptr.raw(), self.capacity).0 = Some(Rc::clone(latest));
    }

    /// Drop `client`'s copy of `ptr` (stale-step detection).
    pub fn drop_page(&self, client: u64, ptr: RemotePtr) {
        if self.client(client).pages.remove(ptr.raw()) {
            self.bump(|s| s.invalidations += 1);
        }
    }

    /// Cached leaf route covering `key` for `client`, counting a hit or
    /// miss. Only entries whose `low_hint <= key` qualify (see `Route`).
    pub fn route_hit(&self, client: u64, key: Key) -> Option<RemotePtr> {
        let mut cache = self.client(client);
        let covering = cache.routes.ceil(key).filter(|slot| slot.value.1 <= key);
        self.count(covering.map(|slot| {
            slot.referenced = true;
            RemotePtr::from_raw(slot.value.0)
        }))
    }

    /// Record that the descent for `key` ended at the covering leaf
    /// `ptr` with bytes `page`.
    pub fn note_route(&self, client: u64, key: Key, ptr: RemotePtr, page: &[u8]) {
        let high = LeafNodeRef::new(page).high_key();
        let mut cache = self.client(client);
        let (route, new) = cache.routes.install(high, self.capacity);
        let low = if new { key } else { route.1.min(key) };
        *route = (ptr.raw(), low);
    }

    /// Drop `client`'s route covering `key` (stale-step detection).
    pub fn drop_route(&self, client: u64, key: Key) {
        let routes = &mut self.client(client).routes;
        if let Some(high) = routes.ceil(key).map(|slot| slot.key) {
            routes.remove(high);
            self.bump(|s| s.invalidations += 1);
        }
    }

    /// Fix up `client`'s own routes after it split a leaf: the right half
    /// takes over the old high key's entry, the left half keeps its
    /// pointer under the new separator. (Other clients correct lazily
    /// through the validation rule.)
    pub fn note_split(&self, client: u64, sep: Key, old_high: Key, left: u64, right: u64) {
        let routes = &mut self.client(client).routes;
        if let Some(old) = routes.get(old_high) {
            let low = std::mem::replace(&mut old.value, (right, sep.saturating_add(1))).1;
            *routes.install(sep, self.capacity).0 = (left, low);
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// Total entries cached across clients (pages plus routes).
    pub fn entries(&self) -> usize {
        let clients = self.clients.borrow();
        let held = |c: &ClientCache| c.pages.slots.len() + c.routes.slots.len();
        clients.iter().map(held).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FgConfig, FineGrained};
    use blink::PageLayout;
    use proptest::prelude::*;
    use rdma_sim::{Cluster, ClusterSpec, Endpoint};
    use simnet::Sim;
    use std::collections::BTreeMap;

    fn cached_cfg() -> FgConfig {
        FgConfig {
            layout: PageLayout::new(200),
            fill: 0.7,
            scan_batch: 0,
            cache_capacity: Some(0),
        }
    }

    fn layer(capacity: usize) -> (Cluster, CacheLayer) {
        let cluster = Cluster::new(&Sim::new(), ClusterSpec::default());
        let layer = CacheLayer::new(&cluster, capacity);
        (cluster, layer)
    }

    fn page_at(i: u64) -> RemotePtr {
        RemotePtr::new(0, 8 + i * 256)
    }

    #[test]
    fn cached_lookups_skip_network() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, cached_cfg(), (0..5000u64).map(|i| (i * 8, i)));
        let ep = Endpoint::new(&cluster);
        {
            let idx = idx.clone();
            sim.spawn(async move {
                // Repeated lookups of nearby keys reuse cached inners —
                // through the integrated lookup path, not a side door.
                for rep in 0..10u64 {
                    for i in 0..20u64 {
                        let k = (1000 + i) * 8;
                        assert_eq!(
                            idx.lookup(&ep, k).await.unwrap(),
                            Some(1000 + i),
                            "rep {rep}"
                        );
                    }
                }
            });
        }
        sim.run();
        let stats = idx.cache().expect("cache enabled").stats();
        assert!(
            stats.hits > stats.misses * 3,
            "cache must mostly hit: {stats:?}"
        );
        let reads: u64 = (0..4).map(|s| cluster.server_stats(s).onesided_ops).sum();
        // 200 lookups; without caching each costs height (~4-5) READs.
        assert!(
            reads < 400,
            "caching must cut READs well below uncached (~900): {reads}"
        );
    }

    /// A split adds a route (the left half's); it has to go through the
    /// bounded install like any other, or a client that splits leaves
    /// grows its route cache by one entry per split.
    #[test]
    fn own_splits_keep_a_bounded_route_cache_bounded() {
        let (_cluster, layer) = layer(4);
        let layout = PageLayout::new(200);
        let mut page = vec![0u8; layout.page_size()];
        blink::node::LeafNodeMut::init(&mut page, 10_000, blink::Ptr::NULL, blink::Ptr::NULL);
        layer.note_route(0, 50, RemotePtr::new(0, 8), &page);
        for i in 0..200u64 {
            // An insert descends through the route of the right half,
            // then splits it: the hit keeps that entry through the sweep.
            let hit = layer.route_hit(0, 9_000).expect("right half's route");
            assert_eq!(hit.raw(), 8 + i * 8);
            layer.note_split(0, 100 + i, 10_000, 8 + i * 8, 16 + i * 8);
            assert!(layer.entries() <= 4, "split {i}: {}", layer.entries());
        }
        assert_eq!(layer.entries(), 4);
    }

    /// Sharing is by content: equal bytes are one frame however many
    /// clients READ them, and a client whose copy went stale keeps hitting
    /// exactly the bytes it READ after others installed newer ones.
    #[test]
    fn equal_bytes_share_a_frame_and_stale_holders_keep_theirs() {
        let (_cluster, layer) = layer(0);
        let hit = |client| layer.page_hit(client, page_at(0)).expect("installed");
        layer.put_page(0, page_at(0), [1u8; 256]);
        layer.put_page(1, page_at(0), vec![1u8; 256]);
        assert!(Rc::ptr_eq(&hit(0), &hit(1)), "one frame for equal bytes");
        // The page changed remotely and client 2 READ the new version.
        layer.put_page(2, page_at(0), [2u8; 256]);
        assert_eq!((&*hit(0), &*hit(1)), (&[1u8; 256][..], &[1u8; 256][..]));
        assert_eq!(*hit(2), [2u8; 256]);
        // Client 1 re-READs: it joins client 2's frame, client 0 stays stale.
        layer.put_page(1, page_at(0), [2u8; 256]);
        assert!(Rc::ptr_eq(&hit(1), &hit(2)));
        assert_eq!(*hit(0), [1u8; 256]);
        assert_eq!(layer.frames.borrow().len(), 1);
    }

    /// A frame lives as long as someone holds it: the intern table holds
    /// the latest bytes of a page, a client whatever it READ. Eviction,
    /// invalidation and the restart flush each let go.
    #[test]
    fn eviction_drop_and_flush_release_frames() {
        let (cluster, layer) = layer(1);
        // Clients 0 and 1 each hold a superseded frame of page 0.
        layer.put_page(0, page_at(0), [1u8; 256]);
        let first = Rc::downgrade(&layer.page_hit(0, page_at(0)).expect("installed"));
        layer.put_page(1, page_at(0), [2u8; 256]);
        let second = Rc::downgrade(&layer.page_hit(1, page_at(0)).expect("installed"));
        layer.put_page(2, page_at(0), [3u8; 256]);
        let latest = Rc::downgrade(&layer.page_hit(2, page_at(0)).expect("installed"));
        assert!(first.strong_count() == 1 && second.strong_count() == 1);
        assert_eq!(latest.strong_count(), 2, "client 2 and the intern table");
        // A one-entry cache evicts page 0 to take page 1.
        layer.put_page(0, page_at(1), [9u8; 256]);
        assert!(
            first.upgrade().is_none(),
            "eviction frees a superseded frame"
        );
        layer.drop_page(1, page_at(0));
        assert!(second.upgrade().is_none(), "so does invalidation");
        layer.drop_page(2, page_at(0));
        assert_eq!(
            latest.strong_count(),
            1,
            "the intern table keeps the latest"
        );
        cluster.fail_server(1);
        cluster.restart_server(1);
        layer.flush_if_restarted();
        assert!(latest.upgrade().is_none(), "the flush frees everything");
        assert!(layer.frames.borrow().is_empty());
        assert_eq!(layer.entries(), 0);
    }

    #[derive(Clone, Debug)]
    enum TableOp {
        Hit(u64),
        Install(u64, u64),
        Remove(u64),
        Flush,
    }

    fn table_op() -> impl Strategy<Value = TableOp> {
        const KEYS: u64 = 24;
        prop_oneof![
            (0..KEYS).prop_map(TableOp::Hit),
            (0..KEYS).prop_map(TableOp::Hit),
            (0..KEYS, 0..1_000u64).prop_map(|(k, v)| TableOp::Install(k, v)),
            (0..KEYS, 0..1_000u64).prop_map(|(k, v)| TableOp::Install(k, v)),
            (0..KEYS, 0..1_000u64).prop_map(|(k, v)| TableOp::Install(k, v)),
            (0..KEYS).prop_map(TableOp::Remove),
            // A flush now and then, not every seventh operation.
            (0..100u64).prop_map(|n| match n {
                0 => TableOp::Flush,
                _ => TableOp::Hit(n % KEYS),
            }),
        ]
    }

    /// Index and slots describe the same entries, within the bound.
    fn check_shape<V>(t: &SlotTable<V>, capacity: usize) {
        assert_eq!(t.index.len(), t.slots.len());
        assert!(capacity == 0 || t.slots.len() <= capacity);
        assert!(t.hand < t.slots.len().max(1));
        assert!(
            t.index.windows(2).all(|w| w[0].0 < w[1].0),
            "sorted, unique"
        );
        for &(key, slot) in &t.index {
            assert_eq!(t.slots[slot as usize].key, key);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The table against a map of everything installed and not
        /// removed: the table holds a subset of it (all of it when
        /// unbounded) with the same values, answers ordered lookups as
        /// its own key set dictates, and an eviction never takes an entry
        /// whose reference bit was set when the sweep began — unless
        /// every bit was.
        #[test]
        fn slot_table_matches_the_reference_model(
            capacity in 0usize..7,
            ops in prop::collection::vec(table_op(), 1..200),
        ) {
            let mut table = SlotTable::<u64>::default();
            let mut model = BTreeMap::<u64, u64>::new();
            for op in ops {
                match op {
                    TableOp::Hit(key) => {
                        let held: Vec<u64> = table.index.iter().map(|e| e.0).collect();
                        let want = held.iter().copied().find(|&k| k >= key);
                        prop_assert_eq!(table.ceil(key).map(|s| s.key), want);
                        let exact = table.get(key).map(|s| {
                            s.referenced = true;
                            s.value
                        });
                        prop_assert_eq!(exact.is_some(), held.contains(&key));
                        if let Some(v) = exact {
                            prop_assert_eq!(Some(&v), model.get(&key));
                        }
                    }
                    TableOp::Install(key, value) => {
                        let before: BTreeMap<u64, bool> =
                            table.slots.iter().map(|s| (s.key, s.referenced)).collect();
                        let (slot, new) = table.install(key, capacity);
                        *slot = value;
                        prop_assert_eq!(new, !before.contains_key(&key));
                        model.insert(key, value);
                        let evicted: Vec<u64> = before
                            .keys()
                            .copied()
                            .filter(|&k| table.get(k).is_none())
                            .collect();
                        let full = capacity > 0 && before.len() == capacity;
                        prop_assert_eq!(evicted.len(), usize::from(new && full));
                        for k in evicted {
                            prop_assert!(!before[&k] || before.values().all(|&r| r));
                        }
                    }
                    TableOp::Remove(key) => {
                        let held = table.get(key).is_some();
                        prop_assert_eq!(table.remove(key), held);
                        model.remove(&key);
                    }
                    TableOp::Flush => {
                        table = SlotTable::default();
                        model.clear();
                    }
                }
                check_shape(&table, capacity);
                for s in &table.slots {
                    prop_assert_eq!(Some(&s.value), model.get(&s.key));
                }
                // Unbounded never evicts.
                prop_assert!(capacity > 0 || table.slots.len() == model.len());
            }
        }

        /// The same model one level up, per client over shared frames:
        /// three clients install pages drawn from three contents, so they
        /// share frames and supersede each other's all the time, and
        /// still every client holds — and a hit returns — exactly the
        /// bytes *that* client last installed for the pointer.
        #[test]
        fn a_hit_returns_what_that_client_last_installed(
            capacity in 0usize..7,
            ops in prop::collection::vec((0u64..3, table_op()), 1..200),
        ) {
            let (cluster, layer) = layer(capacity);
            let bytes = |value: u64| vec![(value % 3) as u8; 32];
            // Per client: pointer (raw) -> value last installed.
            let mut model = vec![BTreeMap::<u64, u64>::new(); 3];
            for (client, op) in ops {
                let mine = &mut model[client as usize];
                match op {
                    TableOp::Hit(key) => {
                        let want = mine.get(&page_at(key).raw()).map(|&v| bytes(v));
                        let hit = layer.page_hit(client, page_at(key)).map(|f| f.to_vec());
                        prop_assert!(capacity > 0 || hit.is_some() == want.is_some());
                        prop_assert!(hit.is_none() || hit == want);
                    }
                    TableOp::Install(key, value) => {
                        let ptr = page_at(key);
                        layer.put_page(client, ptr, bytes(value));
                        mine.insert(ptr.raw(), value);
                        let latest = Rc::clone(&layer.frames.borrow()[&ptr.raw()]);
                        let held = layer.client(client).pages.get(ptr.raw()).and_then(|s| s.value.clone());
                        prop_assert!(held.is_some_and(|frame| Rc::ptr_eq(&frame, &latest)));
                    }
                    TableOp::Remove(key) => {
                        layer.drop_page(client, page_at(key));
                        mine.remove(&page_at(key).raw());
                    }
                    TableOp::Flush => {
                        cluster.fail_server(0);
                        cluster.restart_server(0);
                        layer.flush_if_restarted();
                        prop_assert!(layer.frames.borrow().is_empty());
                        model.iter_mut().for_each(BTreeMap::clear);
                    }
                }
                for (cache, mine) in layer.clients.borrow().iter().zip(&model) {
                    check_shape(&cache.pages, capacity);
                    prop_assert!(capacity > 0 || cache.pages.slots.len() == mine.len());
                    for slot in &cache.pages.slots {
                        let want = mine.get(&slot.key).map(|&v| bytes(v));
                        prop_assert_eq!(slot.value.as_deref().map(<[u8]>::to_vec), want);
                    }
                }
            }
        }
    }

    #[test]
    fn stale_cache_corrected_by_sibling_chase() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, cached_cfg(), (0..200u64).map(|i| (i * 8, i)));
        let ep = Endpoint::new(&cluster);
        {
            let idx = idx.clone();
            sim.spawn(async move {
                // Warm the cache.
                for i in 0..200u64 {
                    idx.lookup(&ep, i * 8).await.unwrap();
                }
                // Mutate the tree: many inserts cause splits the cached
                // inner copies do not see.
                for i in 0..200u64 {
                    idx.insert(&ep, i * 8 + 1, 7_000 + i, false).await.unwrap();
                }
                // Stale cached inners still route correctly via chases.
                for i in 0..200u64 {
                    assert_eq!(idx.lookup(&ep, i * 8 + 1).await.unwrap(), Some(7_000 + i));
                }
            });
        }
        sim.run();
        drop(idx);
    }
}
