//! A complete single-machine B-link tree over an owned page pool.
//!
//! This is the tree each memory server builds for its partition in the
//! coarse-grained design (§3) and for the upper levels in the hybrid
//! design (§5). Handlers run it *locally* when serving two-sided RPCs.
//!
//! Every operation returns [`WorkStats`] describing the work actually
//! performed (nodes visited, entries scanned, splits); the simulator uses
//! these to charge CPU service time, so a taller tree or a bigger range
//! scan genuinely costs more simulated time.
//!
//! Deletes follow the paper: the delete *bit* is set on the entry and the
//! space is reclaimed later by [`LocalTree::gc_compact`] (epoch-based GC).

use crate::check;
use crate::layout::{Key, PageLayout, Ptr, Value};
use crate::load::{Loader, PageSink};
use crate::mem::PageMemory;
use crate::node::{kind_of, InnerNodeMut, InnerNodeRef, LeafNodeMut, LeafNodeRef, NodeKind};

/// Work performed by one index operation; the basis for CPU cost models.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Index nodes traversed (including sibling hops).
    pub nodes_visited: u32,
    /// Leaf entries examined during scans.
    pub entries_scanned: u32,
    /// Node splits performed.
    pub splits: u32,
    /// Lehman-Yao right-sibling hops taken.
    pub sibling_hops: u32,
    /// Leaf pages touched by a range scan.
    pub leaves_scanned: u32,
}

impl WorkStats {
    /// Merge another operation's stats into this one.
    pub fn absorb(&mut self, other: WorkStats) {
        self.nodes_visited += other.nodes_visited;
        self.entries_scanned += other.entries_scanned;
        self.splits += other.splits;
        self.sibling_hops += other.sibling_hops;
        self.leaves_scanned += other.leaves_scanned;
    }
}

/// A local B-link tree. Pointers are page ids (from 1; 0 is null) into
/// one flat owned buffer: page `i` is bytes `[(i-1)·ps, i·ps)`, so a tree
/// is a single allocation that grows without a `malloc` per page, and
/// whose memory the next tree or pool on the thread reuses once it is
/// dropped ([`PageMemory`]).
pub struct LocalTree {
    layout: PageLayout,
    pages: PageMemory,
    root: Ptr,
    leftmost_leaf: Ptr,
    height: u8,
}

impl PageSink for LocalTree {
    fn alloc(&mut self) -> Ptr {
        self.pages
            .grow_to(self.pages.len() + self.layout.page_size());
        Ptr(self.num_pages() as u64)
    }

    fn with_page(&mut self, ptr: Ptr, f: impl FnOnce(&mut [u8])) {
        f(self.page_mut(ptr))
    }
}

impl Loader<LocalTree> {
    /// Finish the load: inner levels over the leaves, up to the root.
    pub fn into_tree(self) -> LocalTree {
        let (mut tree, leaves) = self.finish();
        tree.leftmost_leaf = leaves.leaves[0].1;
        (tree.root, tree.height) = leaves.inner_levels(&mut tree);
        tree
    }
}

impl LocalTree {
    /// Create an empty tree (a single empty leaf root).
    pub fn new(layout: PageLayout) -> Self {
        Self::loader(layout, 1.0).into_tree()
    }

    /// A bulk load of a new tree, to be fed keys sorted ascending
    /// (duplicates allowed). `fill` is the target node fill factor in
    /// `(0, 1]`.
    pub fn loader(layout: PageLayout, fill: f64) -> Loader<LocalTree> {
        let blank = LocalTree {
            layout,
            pages: PageMemory::new(),
            root: Ptr::NULL,
            leftmost_leaf: Ptr::NULL,
            height: 1,
        };
        Loader::new(blank, layout, fill)
    }

    /// Bulk-load from keys sorted ascending (duplicates allowed).
    /// `fill` is the target node fill factor in `(0, 1]`.
    pub fn bulk_load(
        layout: PageLayout,
        items: impl IntoIterator<Item = (Key, Value)>,
        fill: f64,
    ) -> Self {
        let mut loader = Self::loader(layout, fill);
        for (key, value) in items {
            loader.push(key, value);
        }
        loader.into_tree()
    }

    /// Page geometry.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Number of levels (1 = a single leaf).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Total pages allocated.
    pub fn num_pages(&self) -> usize {
        self.pages.len() / self.layout.page_size()
    }

    /// Root pointer.
    pub fn root(&self) -> Ptr {
        self.root
    }

    /// Pointer to the leftmost leaf (start of the leaf chain).
    pub fn leftmost_leaf(&self) -> Ptr {
        self.leftmost_leaf
    }

    /// Every page's bytes, in page-id order.
    pub fn image(&self) -> &[u8] {
        &self.pages
    }

    /// Byte range of page `p` in the flat buffer.
    fn span(&self, p: Ptr) -> std::ops::Range<usize> {
        let ps = self.layout.page_size();
        let start = (p.raw() - 1) as usize * ps;
        start..start + ps
    }

    fn page(&self, p: Ptr) -> &[u8] {
        &self.pages[self.span(p)]
    }

    fn page_mut(&mut self, p: Ptr) -> &mut [u8] {
        let span = self.span(p);
        &mut self.pages[span]
    }

    /// Descend to the leaf that covers `key`, recording the inner path.
    fn descend(&self, key: Key, stats: &mut WorkStats, path: Option<&mut Vec<Ptr>>) -> Ptr {
        let mut path = path;
        let mut cur = self.root;
        loop {
            stats.nodes_visited += 1;
            match kind_of(self.page(cur)) {
                NodeKind::Inner => {
                    let node = InnerNodeRef::new(self.page(cur));
                    match node.find_child(key) {
                        Some(child) => {
                            if let Some(p) = path.as_deref_mut() {
                                p.push(cur);
                            }
                            cur = child;
                        }
                        None => {
                            stats.sibling_hops += 1;
                            cur = node.right_sibling();
                            assert!(!cur.is_null(), "rightmost node must cover KEY_MAX");
                        }
                    }
                }
                NodeKind::Leaf => {
                    let node = LeafNodeRef::new(self.page(cur));
                    if node.covers(key) {
                        return cur;
                    }
                    stats.sibling_hops += 1;
                    cur = node.right_sibling();
                    assert!(!cur.is_null(), "rightmost leaf must cover KEY_MAX");
                }
            }
        }
    }

    /// Point lookup: first live value under `key`.
    pub fn get(&self, key: Key) -> (Option<Value>, WorkStats) {
        let mut stats = WorkStats::default();
        let leaf = self.descend(key, &mut stats, None);
        let node = LeafNodeRef::new(self.page(leaf));
        stats.entries_scanned += 1;
        (node.get(key), stats)
    }

    /// The live entries from `key`'s ceiling (the smallest stored live
    /// key `>= key`) on, handed to `take` in key order, across leaves,
    /// until it returns false or the tree ends. The hybrid design's upper
    /// levels map a key to the leaf pointer at its ceiling, and a range
    /// to the run of pointers after it.
    pub fn ceiling_run(&self, key: Key, mut take: impl FnMut(Key, Value) -> bool) -> WorkStats {
        let mut stats = WorkStats::default();
        let mut cur = self.descend(key, &mut stats, None);
        loop {
            let node = LeafNodeRef::new(self.page(cur));
            for i in node.lower_bound(key)..node.count() {
                let (k, v, deleted) = node.entry(i);
                stats.entries_scanned += 1;
                if !deleted && !take(k, v) {
                    return stats;
                }
            }
            let next = node.right_sibling();
            if next.is_null() {
                return stats;
            }
            stats.nodes_visited += 1;
            stats.sibling_hops += 1;
            cur = next;
        }
    }

    /// Range scan: append live entries with keys in `[lo, hi]` to `out`.
    pub fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> WorkStats {
        let mut stats = WorkStats::default();
        let mut cur = self.descend(lo, &mut stats, None);
        out.reserve(LeafNodeRef::new(self.page(cur)).expected_rows(lo, hi));
        loop {
            let node = LeafNodeRef::new(self.page(cur));
            stats.leaves_scanned += 1;
            stats.entries_scanned += node.collect_range(lo, hi, out) as u32;
            if node.high_key() >= hi {
                return stats;
            }
            let next = node.right_sibling();
            if next.is_null() {
                return stats;
            }
            stats.nodes_visited += 1;
            cur = next;
        }
    }

    /// Insert `(key, value)`; splits propagate up and may grow the tree.
    pub fn insert(&mut self, key: Key, value: Value) -> WorkStats {
        self.insert_at_leaf(key, value).1
    }

    /// As [`Self::insert`], additionally reporting the leaf the entry
    /// landed in (used by handlers to model page-lock contention).
    pub fn insert_at_leaf(&mut self, key: Key, value: Value) -> (Ptr, WorkStats) {
        let mut stats = WorkStats::default();
        let mut path = Vec::with_capacity(self.height as usize);
        let leaf = self.descend(key, &mut stats, Some(&mut path));

        {
            let mut node = LeafNodeMut::new(self.page_mut(leaf));
            if node.insert(key, value).is_ok() {
                return (leaf, stats);
            }
        }

        // Leaf is full: split, insert into the correct half, propagate.
        stats.splits += 1;
        let right = self.alloc();
        let sep = {
            let (left_page, right_page) = self.two_pages_mut(leaf, right);
            LeafNodeMut::new(left_page).split_into(right_page, leaf, right)
        };
        // Fix the next leaf's left-sibling back pointer.
        let next = LeafNodeRef::new(self.page(right)).right_sibling();
        if !next.is_null() {
            LeafNodeMut::new(self.page_mut(next)).set_left_sibling(right);
        }
        let target = if key <= sep { leaf } else { right };
        {
            let mut node = LeafNodeMut::new(self.page_mut(target));
            node.insert(key, value).expect("half-full after split");
        }
        self.propagate_split(sep, leaf, right, path, &mut stats);
        (target, stats)
    }

    /// Replace the value of the first live entry under `key` (used by the
    /// hybrid design's upper levels when a leaf split repoints its high
    /// key). Returns whether an entry was updated.
    pub fn update_value(&mut self, key: Key, new_value: Value) -> (bool, WorkStats) {
        let mut stats = WorkStats::default();
        let leaf = self.descend(key, &mut stats, None);
        stats.entries_scanned += 1;
        let page = self.page_mut(leaf);
        let node = LeafNodeRef::new(page);
        let mut i = node.lower_bound(key);
        while i < node.count() {
            let (k, _, deleted) = node.entry(i);
            if k != key {
                return (false, stats);
            }
            if !deleted {
                // Rewrite the entry word in place.
                let off = crate::layout::off::ENTRIES + i * crate::layout::ENTRY_SIZE + 8;
                crate::layout::write_u64(page, off, new_value);
                return (true, stats);
            }
            i += 1;
        }
        (false, stats)
    }

    /// Propagate `(sep, left, right)` into the recorded parent path,
    /// splitting parents as needed; grows a new root at the top.
    fn propagate_split(
        &mut self,
        mut sep: Key,
        mut left: Ptr,
        mut right: Ptr,
        mut path: Vec<Ptr>,
        stats: &mut WorkStats,
    ) {
        while let Some(parent) = path.pop() {
            {
                let mut node = InnerNodeMut::new(self.page_mut(parent));
                if node.install_split(sep, right).is_ok() {
                    return;
                }
            }
            // Parent full: split it first, then install into the half that
            // covers `sep`.
            stats.splits += 1;
            let parent_right = self.alloc();
            let parent_sep = {
                let (left_page, right_page) = self.two_pages_mut(parent, parent_right);
                InnerNodeMut::new(left_page).split_into(right_page, parent, parent_right)
            };
            let target = if sep <= parent_sep {
                parent
            } else {
                parent_right
            };
            InnerNodeMut::new(self.page_mut(target))
                .install_split(sep, right)
                .expect("half-full after split");
            sep = parent_sep;
            left = parent;
            right = parent_right;
        }
        // Split reached the root: grow the tree.
        let new_root = self.alloc();
        let level = self.height;
        InnerNodeMut::init_root(self.page_mut(new_root), level, sep, left, right);
        self.root = new_root;
        self.height += 1;
    }

    /// Tombstone the first live entry under `key` (the paper's delete
    /// bit); space is reclaimed by [`Self::gc_compact`].
    pub fn delete(&mut self, key: Key) -> (bool, WorkStats) {
        let (deleted, _, stats) = self.delete_at_leaf(key);
        (deleted, stats)
    }

    /// As [`Self::delete`], additionally reporting the leaf touched
    /// (used by handlers to model page-lock contention).
    pub fn delete_at_leaf(&mut self, key: Key) -> (bool, Ptr, WorkStats) {
        let mut stats = WorkStats::default();
        let leaf = self.descend(key, &mut stats, None);
        stats.entries_scanned += 1;
        let mut node = LeafNodeMut::new(self.page_mut(leaf));
        (node.mark_deleted(key), leaf, stats)
    }

    /// Epoch GC: compact every leaf, removing tombstoned entries.
    /// Returns the number of entries reclaimed.
    pub fn gc_compact(&mut self) -> usize {
        let mut reclaimed = 0;
        let mut cur = self.leftmost_leaf;
        while !cur.is_null() {
            let next = {
                let mut node = LeafNodeMut::new(self.page_mut(cur));
                reclaimed += node.compact();
                node.right_sibling()
            };
            cur = next;
        }
        reclaimed
    }

    /// Count live entries by walking the leaf chain.
    pub fn len_live(&self) -> usize {
        let mut n = 0;
        let mut cur = self.leftmost_leaf;
        while !cur.is_null() {
            let node = LeafNodeRef::new(self.page(cur));
            n += node.live_count();
            cur = node.right_sibling();
        }
        n
    }

    /// Split-borrow two distinct pages mutably.
    fn two_pages_mut(&mut self, a: Ptr, b: Ptr) -> (&mut [u8], &mut [u8]) {
        let (sa, sb) = (self.span(a), self.span(b));
        assert_ne!(sa, sb);
        let ps = sa.len();
        if sa.start < sb.start {
            let (lo, hi) = self.pages.split_at_mut(sb.start);
            (&mut lo[sa], &mut hi[..ps])
        } else {
            let (lo, hi) = self.pages.split_at_mut(sa.start);
            (&mut hi[..ps], &mut lo[sb])
        }
    }

    /// Every broken structural invariant, as `(page, detail)` findings:
    /// the shared B-link rules of [`crate::check::check`], plus the one
    /// local trees keep exactly — each leaf's left sibling is the leaf
    /// before it. A broken link, fence or lock word is a finding, not a
    /// panic.
    pub fn problems(&self) -> Vec<(Ptr, String)> {
        // A pointer off the buffer reads as a zeroed page: a finding.
        let load = |p: Ptr| {
            if (1..=self.num_pages() as u64).contains(&p.raw()) {
                self.page(p).to_vec()
            } else {
                vec![0; self.layout.page_size()]
            }
        };
        let mut out = check::check(self.layout, self.leftmost_leaf, Some(self.root), load);
        let mut prev = Ptr::NULL;
        for (cur, page) in check::chain(self.leftmost_leaf, load) {
            if kind_of(&page) == NodeKind::Leaf {
                let left = LeafNodeRef::new(&page).left_sibling();
                if left != prev {
                    out.push((cur, format!("left sibling broken: {left:?} != {prev:?}")));
                }
                prev = cur;
            }
        }
        out
    }

    /// Panics, listing them, if [`Self::problems`] finds any. Test and
    /// debug aid.
    pub fn check_invariants(&self) {
        let problems = self.problems();
        assert!(problems.is_empty(), "broken local tree: {problems:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{lock_word, write_u64, KEY_MAX};
    use crate::node::set_version_lock;

    fn layout() -> PageLayout {
        // Small pages force deep trees in tests.
        PageLayout::new(200) // capacity = (200-40)/16 = 10 entries
    }

    #[test]
    fn empty_tree() {
        let tree = LocalTree::new(layout());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.get(42).0, None);
        assert_eq!(tree.len_live(), 0);
        tree.check_invariants();
    }

    #[test]
    fn insert_then_get() {
        let mut tree = LocalTree::new(layout());
        for k in 0..1000u64 {
            tree.insert(k * 2, k);
        }
        tree.check_invariants();
        assert!(tree.height() > 2, "1000 keys at fanout 10 must be deep");
        for k in 0..1000u64 {
            assert_eq!(tree.get(k * 2).0, Some(k), "key {}", k * 2);
            assert_eq!(tree.get(k * 2 + 1).0, None);
        }
        assert_eq!(tree.len_live(), 1000);
    }

    #[test]
    fn insert_random_order() {
        let mut tree = LocalTree::new(layout());
        // Deterministic pseudo-shuffle.
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) % 100_000).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        shuffled.reverse();
        for &k in &shuffled {
            tree.insert(k, k + 1);
        }
        tree.check_invariants();
        for &k in &keys {
            assert_eq!(tree.get(k).0, Some(k + 1));
        }
    }

    #[test]
    fn lookup_work_grows_with_height() {
        let mut tree = LocalTree::new(layout());
        for k in 0..2000u64 {
            tree.insert(k, k);
        }
        let (_, stats) = tree.get(1234);
        assert_eq!(stats.nodes_visited as u8, tree.height());
    }

    #[test]
    fn range_scan() {
        let mut tree = LocalTree::new(layout());
        for k in 0..300u64 {
            tree.insert(k, k * 10);
        }
        let mut out = Vec::new();
        let stats = tree.range(100, 199, &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(out.first(), Some(&(100, 1000)));
        assert_eq!(out.last(), Some(&(199, 1990)));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(stats.entries_scanned >= 100);
    }

    #[test]
    fn range_scan_empty_and_full() {
        let mut tree = LocalTree::new(layout());
        for k in 0..100u64 {
            tree.insert(k, k);
        }
        let mut out = Vec::new();
        tree.range(500, 600, &mut out);
        assert!(out.is_empty());
        tree.range(0, KEY_MAX - 1, &mut out);
        assert_eq!(out.len(), 100);
    }

    /// A scan sizes its result once, from the first leaf: on evenly spaced
    /// keys a 1 000-row result never grows, wherever in a leaf (or between
    /// two keys) the scan starts.
    #[test]
    fn range_scan_reserves_its_rows_once() {
        let items = (0..5000u64).map(|k| (k * 8, k));
        let tree = LocalTree::bulk_load(PageLayout::default(), items, 0.7);
        for lo in [0, 8 * 42, 8 * 1234, 8 * 1234 + 3, 8 * 3999 + 7] {
            let mut out = Vec::new();
            tree.range(lo, lo + 999 * 8, &mut out);
            assert_eq!(out.len(), if lo % 8 == 0 { 1000 } else { 999 });
            assert_eq!(out.capacity(), 1000, "grew after the reservation");
        }
    }

    /// The reservation cannot fail: a scan of the whole key space — a
    /// checkpoint's — over a dense, a one-entry and an empty tree does
    /// not overflow (the cap itself is `node::tests`' to pin).
    #[test]
    fn whole_key_space_scans_do_not_overflow() {
        for n in [0u64, 1, 20_000] {
            let tree = LocalTree::bulk_load(layout(), (0..n).map(|k| (k, k)), 0.7);
            let mut out = Vec::new();
            tree.range(0, u64::MAX, &mut out);
            assert_eq!(out.len() as u64, n);
        }
    }

    #[test]
    fn delete_and_gc() {
        let mut tree = LocalTree::new(layout());
        for k in 0..200u64 {
            tree.insert(k, k);
        }
        for k in (0..200u64).step_by(2) {
            let (ok, _) = tree.delete(k);
            assert!(ok);
        }
        assert_eq!(tree.len_live(), 100);
        assert_eq!(tree.get(4).0, None);
        assert_eq!(tree.get(5).0, Some(5));
        let reclaimed = tree.gc_compact();
        assert_eq!(reclaimed, 100);
        assert_eq!(tree.len_live(), 100);
        tree.check_invariants();
        // Deleted keys can be reinserted.
        tree.insert(4, 40);
        assert_eq!(tree.get(4).0, Some(40));
    }

    #[test]
    fn delete_missing_key() {
        let mut tree = LocalTree::new(layout());
        tree.insert(1, 1);
        let (ok, _) = tree.delete(99);
        assert!(!ok);
    }

    #[test]
    fn duplicates_supported() {
        let mut tree = LocalTree::new(layout());
        for v in 0..5u64 {
            tree.insert(7, v);
        }
        tree.insert(6, 60);
        tree.insert(8, 80);
        tree.check_invariants();
        let mut out = Vec::new();
        tree.range(7, 7, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(tree.get(7).0, Some(0));
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let items: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 3, k)).collect();
        let tree = LocalTree::bulk_load(layout(), items.iter().copied(), 0.8);
        tree.check_invariants();
        assert_eq!(tree.len_live(), 5000);
        for &(k, v) in items.iter().step_by(97) {
            assert_eq!(tree.get(k).0, Some(v));
        }
        assert_eq!(tree.get(1).0, None);
        let mut out = Vec::new();
        tree.range(300, 600, &mut out);
        assert_eq!(out.len(), 101); // keys 300,303,...,600
    }

    #[test]
    fn bulk_load_empty() {
        let tree = LocalTree::bulk_load(layout(), std::iter::empty(), 0.8);
        tree.check_invariants();
        assert_eq!(tree.len_live(), 0);
        assert_eq!(tree.get(1).0, None);
    }

    #[test]
    fn bulk_load_single() {
        let tree = LocalTree::bulk_load(layout(), [(5u64, 50u64)], 0.8);
        tree.check_invariants();
        assert_eq!(tree.get(5).0, Some(50));
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn bulk_load_then_insert() {
        let items: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 2, k)).collect();
        let mut tree = LocalTree::bulk_load(layout(), items, 0.7);
        for k in 0..1000u64 {
            tree.insert(k * 2 + 1, k);
        }
        tree.check_invariants();
        assert_eq!(tree.len_live(), 2000);
        for k in 0..2000u64 {
            assert!(tree.get(k).0.is_some(), "key {k}");
        }
    }

    /// The flat buffer holds whole pages and nothing else, however the
    /// tree grew: bulk load, leaf splits, inner splits, new roots.
    #[test]
    fn storage_is_exactly_the_pages() {
        let items = (0..300u64).map(|k| (k * 4, k));
        let mut tree = LocalTree::bulk_load(layout(), items, 0.7);
        assert_eq!(tree.pages.len(), tree.num_pages() * 200);
        let (loaded_pages, loaded_height) = (tree.num_pages(), tree.height());
        let mut splits = 0;
        for k in 0..3000u64 {
            splits += tree.insert(k * 4 + 1 + k % 3, k).splits as usize;
            assert_eq!(tree.pages.len(), tree.num_pages() * 200);
        }
        let roots = (tree.height() - loaded_height) as usize;
        assert!(roots >= 1, "the root must have split");
        assert!(splits > 300 / 7 + roots, "inner nodes must have split too");
        assert_eq!(tree.num_pages(), loaded_pages + splits + roots);
        tree.check_invariants();
        assert_eq!(tree.len_live(), 3300);
    }

    /// A tree grown in the dirty buffer of a dropped region is byte for
    /// byte the tree grown in fresh memory, and a page it allocates reads
    /// zero.
    #[test]
    fn recycled_memory_reads_zero() {
        std::thread::scope(|s| {
            s.spawn(|| {
                let build = || {
                    let items = (0..2000u64).map(|k| (k * 4, k));
                    let mut tree = LocalTree::bulk_load(layout(), items, 0.7);
                    for k in 0..500u64 {
                        tree.insert(k * 4 + 1, k);
                    }
                    tree
                };
                let fresh = build();
                let mut dirty = PageMemory::new();
                dirty.grow_to(2 << 20);
                dirty.fill(0xAB);
                drop(dirty);
                let mut tree = build();
                assert_eq!(
                    crate::mem::spare_bytes(),
                    0,
                    "the tree did not reuse the buffer"
                );
                assert!(tree.pages[..] == fresh.pages[..]);
                let p = tree.alloc();
                assert!(tree.page(p).iter().all(|&b| b == 0));
            });
        });
    }

    #[test]
    fn ceiling_queries() {
        let tree = LocalTree::bulk_load(layout(), (0..100u64).map(|k| (k * 10, k)), 0.8);
        let ceiling = |key| {
            let mut found = None;
            tree.ceiling_run(key, |k, v| {
                found = Some((k, v));
                false
            });
            found
        };
        assert_eq!(ceiling(0), Some((0, 0)));
        assert_eq!(ceiling(11), Some((20, 2)));
        assert_eq!(ceiling(990), Some((990, 99)));
        assert_eq!(ceiling(991), None);
    }

    /// Each seeded corruption comes back as a finding naming it, and
    /// none makes the check panic.
    #[test]
    fn problems_reports_seeded_corruptions() {
        type Corrupt = fn(&mut LocalTree, &[Ptr]);
        let cases: [(&str, Corrupt); 5] = [
            ("page left locked", |t, leaves| {
                set_version_lock(t.page_mut(leaves[3]), lock_word::locked(0))
            }),
            ("cycle in the leaf chain", |t, leaves| {
                LeafNodeMut::new(t.page_mut(leaves[5])).set_right_sibling(leaves[2])
            }),
            ("at or below previous high fence", |t, leaves| {
                write_u64(t.page_mut(leaves[4]), crate::layout::off::ENTRIES, 0)
            }),
            ("left sibling broken", |t, leaves| {
                LeafNodeMut::new(t.page_mut(leaves[6])).set_left_sibling(leaves[1])
            }),
            ("!= separator", |t, _| {
                let root = t.root();
                write_u64(t.page_mut(root), crate::layout::off::ENTRIES, 1)
            }),
        ];
        for (want, corrupt) in cases {
            let mut tree = LocalTree::bulk_load(layout(), (0..100u64).map(|k| (k * 2, k)), 0.8);
            assert!(tree.problems().is_empty(), "{:?}", tree.problems());
            let leaves: Vec<Ptr> = check::chain(tree.leftmost_leaf(), |p| tree.page(p).to_vec())
                .map(|(p, _)| p)
                .collect();
            corrupt(&mut tree, &leaves);
            let found = tree.problems();
            assert!(
                found.iter().any(|(_, detail)| detail.contains(want)),
                "{want}: {found:?}"
            );
        }
    }

    #[test]
    fn split_work_counted() {
        let mut tree = LocalTree::new(layout());
        let mut total_splits = 0;
        for k in 0..100u64 {
            total_splits += tree.insert(k, k).splits;
        }
        assert!(total_splits > 0);
        // 100 keys / 10-entry pages: at least 10 leaves exist.
        assert!(tree.num_pages() >= 10);
    }
}
