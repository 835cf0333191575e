//! Node-level operations on raw page bytes.
//!
//! Views decode a page in place: [`LeafNodeRef`]/[`InnerNodeRef`] for
//! reading, [`LeafNodeMut`]/[`InnerNodeMut`] for mutation. Working on
//! bytes (not structs) is what lets the same code serve local trees and
//! pages fetched over one-sided RDMA READs.
//!
//! ## Key ordering invariants
//!
//! * Entries in a node are sorted by key (duplicates adjacent).
//! * A node holds keys `k` with `low < k <= high_key` where `low` is the
//!   left neighbour's high key; `high_key == KEY_MAX` means rightmost.
//! * Inner entry `(sep, child)` means `child` covers keys in
//!   `(previous sep, sep]`; the rightmost inner node's last separator is
//!   `KEY_MAX`, so a descent never falls off the end of the tree.
//! * Searches that find `key > high_key` must chase `right_sibling`
//!   (the Lehman-Yao correction for in-flight splits).

use crate::layout::{
    off, read_u16, read_u64, write_u16, write_u64, Key, Ptr, Value, DELETE_BIT, ENTRY_SIZE,
    KEY_MAX, MAX_VALUE,
};

/// Most rows a range scan reserves ahead of finding them
/// ([`LeafNodeRef::expected_rows`]): 8 192 rows are 128 KiB, glibc's mmap
/// threshold, past which a growing `Vec` is an `mremap` that copies
/// nothing — a larger reservation saves no copy, and an unbounded one
/// overflows on a whole-tree scan (DESIGN.md §17.2).
pub const MAX_RESERVED_ROWS: usize = 8192;

/// Discriminates page types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Inner node: `(separator, child pointer)` entries.
    Inner = 0,
    /// Leaf node: `(key, value)` entries with per-entry delete bits.
    Leaf = 1,
}

/// Error returned when an insert does not fit; the caller must split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeFull;

impl std::fmt::Display for NodeFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node full: split required")
    }
}

impl std::error::Error for NodeFull {}

/// Decode the node kind of a raw page.
pub fn kind_of(page: &[u8]) -> NodeKind {
    match page[off::KIND] {
        0 => NodeKind::Inner,
        1 => NodeKind::Leaf,
        k => panic!("corrupt page: unknown node kind {k}"),
    }
}

/// Read the `(version, lock-bit)` word of a raw page.
pub fn version_lock_of(page: &[u8]) -> u64 {
    read_u64(page, off::VERSION_LOCK)
}

/// Write the `(version, lock-bit)` word of a raw page.
pub fn set_version_lock(page: &mut [u8], word: u64) {
    write_u64(page, off::VERSION_LOCK, word);
}

/// Tree level of a raw page (0 = leaf level).
pub fn level_of(page: &[u8]) -> u8 {
    page[off::LEVEL]
}

fn entry_capacity(page: &[u8]) -> usize {
    (page.len() - off::ENTRIES) / ENTRY_SIZE
}

fn entry_key(page: &[u8], i: usize) -> Key {
    read_u64(page, off::ENTRIES + i * ENTRY_SIZE)
}

fn entry_word(page: &[u8], i: usize) -> u64 {
    read_u64(page, off::ENTRIES + i * ENTRY_SIZE + 8)
}

fn set_entry(page: &mut [u8], i: usize, key: Key, word: u64) {
    write_u64(page, off::ENTRIES + i * ENTRY_SIZE, key);
    write_u64(page, off::ENTRIES + i * ENTRY_SIZE + 8, word);
}

fn count_of(page: &[u8]) -> usize {
    read_u16(page, off::COUNT) as usize
}

fn set_count(page: &mut [u8], n: usize) {
    write_u16(page, off::COUNT, u16::try_from(n).expect("count fits u16"));
}

/// Pages come to an `init` zero-filled by their allocator
/// (`PageMemory::grow_to`, [`crate::PageLayout::alloc_page`]), so `init`
/// writes only the fields that are not zero.
fn debug_assert_blank(page: &[u8]) {
    debug_assert!(
        page.iter().all(|&b| b == 0),
        "init of a page that is not blank"
    );
}

/// First index whose key is `>= key` (sorted entries).
fn lower_bound(page: &[u8], key: Key) -> usize {
    let mut lo = 0usize;
    let mut hi = count_of(page);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry_key(page, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index whose key is `> key` (sorted entries).
fn upper_bound(page: &[u8], key: Key) -> usize {
    let mut lo = 0usize;
    let mut hi = count_of(page);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry_key(page, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Shift entries `[i, count)` one slot right and insert at `i`.
fn insert_at(page: &mut [u8], i: usize, key: Key, word: u64) {
    let n = count_of(page);
    let base = off::ENTRIES;
    page.copy_within(
        base + i * ENTRY_SIZE..base + n * ENTRY_SIZE,
        base + (i + 1) * ENTRY_SIZE,
    );
    set_entry(page, i, key, word);
    set_count(page, n + 1);
}

/// Pick a split index near the middle that falls on a key boundary, so no
/// key value spans both halves (required because separators are plain
/// keys).
///
/// Panics if every entry holds the same key: a node full of one key
/// cannot be split, so **the duplicates of any single key must fit in
/// one leaf** (≈ the page's entry capacity). Indexes expecting heavier
/// duplication should index a composite key — e.g. `(key, record-id)` —
/// exactly as classical secondary indexes do.
fn split_point(page: &[u8]) -> usize {
    let n = count_of(page);
    debug_assert!(n >= 2, "splitting a node with fewer than 2 entries");
    let mid = n / 2;
    // Forward: first boundary at or after mid.
    let mut m = mid;
    while m < n && entry_key(page, m) == entry_key(page, m - 1) {
        m += 1;
    }
    if m < n {
        return m;
    }
    // Backward: last boundary before mid.
    let mut m = mid;
    while m > 1 && entry_key(page, m - 1) == entry_key(page, m - 2) {
        m -= 1;
    }
    assert!(
        m > 1 || entry_key(page, 0) != entry_key(page, 1),
        "node contains a single duplicated key and cannot be split"
    );
    m
}

/// Core split: move entries `[at, n)` into `right_page`, fix fences and
/// sibling pointers, return the separator (left's new high key).
fn split_common(
    page: &mut [u8],
    right_page: &mut [u8],
    self_ptr: Ptr,
    right_ptr: Ptr,
    kind: NodeKind,
) -> Key {
    let at = split_point(page);
    let n = count_of(page);
    let level = level_of(page);

    // Initialise the right node.
    right_page.fill(0);
    right_page[off::KIND] = kind as u8;
    right_page[off::LEVEL] = level;
    for (j, i) in (at..n).enumerate() {
        set_entry(right_page, j, entry_key(page, i), entry_word(page, i));
    }
    set_count(right_page, n - at);
    write_u64(right_page, off::HIGH_KEY, read_u64(page, off::HIGH_KEY));
    write_u64(
        right_page,
        off::RIGHT_SIBLING,
        read_u64(page, off::RIGHT_SIBLING),
    );
    write_u64(right_page, off::LEFT_SIBLING, self_ptr.raw());

    // Shrink the left node.
    let sep = entry_key(page, at - 1);
    set_count(page, at);
    write_u64(page, off::HIGH_KEY, sep);
    write_u64(page, off::RIGHT_SIBLING, right_ptr.raw());
    sep
}

macro_rules! header_reads {
    () => {
        /// Number of entries.
        pub fn count(&self) -> usize {
            count_of(self.page)
        }

        /// `(version, lock-bit)` word.
        pub fn version_lock(&self) -> u64 {
            version_lock_of(self.page)
        }

        /// Tree level (0 = leaf level).
        pub fn level(&self) -> u8 {
            level_of(self.page)
        }

        /// Inclusive upper bound of keys this node may hold.
        pub fn high_key(&self) -> Key {
            read_u64(self.page, off::HIGH_KEY)
        }

        /// Right sibling pointer (null on the rightmost node).
        pub fn right_sibling(&self) -> Ptr {
            Ptr(read_u64(self.page, off::RIGHT_SIBLING))
        }

        /// Left sibling pointer (best-effort; null on the leftmost node).
        pub fn left_sibling(&self) -> Ptr {
            Ptr(read_u64(self.page, off::LEFT_SIBLING))
        }

        /// Whether `key` is within this node's key range.
        pub fn covers(&self, key: Key) -> bool {
            key <= self.high_key()
        }

        /// Whether no further entry fits.
        pub fn is_full(&self) -> bool {
            self.count() >= entry_capacity(self.page)
        }
    };
}

// ---------------------------------------------------------------- leaf ----

/// Read-only view of a leaf page.
#[derive(Clone, Copy)]
pub struct LeafNodeRef<'a> {
    page: &'a [u8],
}

impl<'a> LeafNodeRef<'a> {
    /// Wrap a page; panics if it is not a leaf.
    pub fn new(page: &'a [u8]) -> Self {
        assert_eq!(kind_of(page), NodeKind::Leaf, "expected a leaf page");
        LeafNodeRef { page }
    }

    header_reads!();

    /// Entry `i` as `(key, value, deleted)`.
    pub fn entry(&self, i: usize) -> (Key, Value, bool) {
        debug_assert!(i < self.count());
        let word = entry_word(self.page, i);
        (
            entry_key(self.page, i),
            word & MAX_VALUE,
            word & DELETE_BIT != 0,
        )
    }

    /// First index with key `>= key`.
    pub fn lower_bound(&self, key: Key) -> usize {
        lower_bound(self.page, key)
    }

    /// First live (non-deleted) value stored under `key`, if any.
    pub fn get(&self, key: Key) -> Option<Value> {
        let mut i = self.lower_bound(key);
        while i < self.count() {
            let (k, v, deleted) = self.entry(i);
            if k != key {
                return None;
            }
            if !deleted {
                return Some(v);
            }
            i += 1;
        }
        None
    }

    /// Whether a live (non-deleted) entry `(key, value)` exists. Used by
    /// the retry layer to recognise its own committed install from a
    /// previous attempt (exactly-once insert under retries).
    pub fn contains(&self, key: Key, value: Value) -> bool {
        let mut i = self.lower_bound(key);
        while i < self.count() {
            let (k, v, deleted) = self.entry(i);
            if k != key {
                return false;
            }
            if !deleted && v == value {
                return true;
            }
            i += 1;
        }
        false
    }

    /// Append live entries with keys in `[lo, hi]` to `out`. Returns the
    /// number of entries examined (for CPU-cost accounting).
    ///
    /// One pass over the qualifying slice of the page: both ends are
    /// bisected, so the rows go out in one exact-size `extend` instead of
    /// a capacity check per row. Only a leaf that holds a tombstone in
    /// the slice pays for the filter.
    pub fn collect_range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        let start = self.lower_bound(lo);
        let end = upper_bound(self.page, hi).max(start);
        let slice = &self.page[off::ENTRIES + start * ENTRY_SIZE..off::ENTRIES + end * ENTRY_SIZE];
        // `(key, value word)`; with no delete bit the word is the value.
        let entries = slice
            .chunks_exact(ENTRY_SIZE)
            .map(|e| (read_u64(e, 0), read_u64(e, 8)));
        if entries.clone().any(|(_, word)| word & DELETE_BIT != 0) {
            let live = entries.filter(|(_, word)| word & DELETE_BIT == 0);
            out.extend(live.map(|(k, word)| (k, word & MAX_VALUE)));
        } else {
            out.extend(entries);
        }
        end - start
    }

    /// Rows a scan of `[lo, hi]` that meets this leaf first should
    /// reserve for: this leaf's own key density carried over the rest of
    /// the range, at most [`MAX_RESERVED_ROWS`]. An estimate — a leaf
    /// with fewer than two distinct keys has no density and says 0, and
    /// the vector grows as it always did where the keys thin out or
    /// thicken.
    pub fn expected_rows(&self, lo: Key, hi: Key) -> usize {
        let n = self.count();
        if n < 2 {
            return 0;
        }
        let (first, last) = (entry_key(self.page, 0), entry_key(self.page, n - 1));
        let from = lo.max(first);
        if hi < from || first == last {
            return 0;
        }
        // Inclusive bounds: +1. In 128 bits the product cannot overflow.
        let rows = u128::from(hi - from) * (n as u128 - 1) / u128::from(last - first) + 1;
        rows.min(MAX_RESERVED_ROWS as u128) as usize
    }

    /// Number of live (non-deleted) entries.
    pub fn live_count(&self) -> usize {
        (0..self.count()).filter(|&i| !self.entry(i).2).count()
    }
}

/// Mutable view of a leaf page.
pub struct LeafNodeMut<'a> {
    page: &'a mut [u8],
}

impl<'a> LeafNodeMut<'a> {
    /// Wrap a page; panics if it is not a leaf.
    pub fn new(page: &'a mut [u8]) -> Self {
        assert_eq!(kind_of(page), NodeKind::Leaf, "expected a leaf page");
        LeafNodeMut { page }
    }

    /// Format a blank (all-zero) page as an empty leaf.
    pub fn init(page: &'a mut [u8], high_key: Key, left: Ptr, right: Ptr) -> Self {
        debug_assert_blank(page);
        page[off::KIND] = NodeKind::Leaf as u8;
        write_u64(page, off::HIGH_KEY, high_key);
        write_u64(page, off::LEFT_SIBLING, left.raw());
        write_u64(page, off::RIGHT_SIBLING, right.raw());
        LeafNodeMut { page }
    }

    /// Read-only view of the same page.
    pub fn as_ref(&self) -> LeafNodeRef<'_> {
        LeafNodeRef { page: self.page }
    }

    header_reads!();

    /// Insert `(key, value)` keeping entries sorted (duplicates go after
    /// existing equals). `value` must be `<= MAX_VALUE`.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<(), NodeFull> {
        assert!(value <= MAX_VALUE, "value uses the reserved delete bit");
        if self.is_full() {
            return Err(NodeFull);
        }
        let pos = upper_bound(self.page, key);
        insert_at(self.page, pos, key, value);
        Ok(())
    }

    /// Append `(key, value)` at the end; `key` must be `>=` the current
    /// last key. Used by bulk loading to avoid per-insert searches.
    pub fn push(&mut self, key: Key, value: Value) -> Result<(), NodeFull> {
        assert!(value <= MAX_VALUE, "value uses the reserved delete bit");
        if self.is_full() {
            return Err(NodeFull);
        }
        let n = count_of(self.page);
        debug_assert!(
            n == 0 || entry_key(self.page, n - 1) <= key,
            "push out of order"
        );
        set_entry(self.page, n, key, value);
        set_count(self.page, n + 1);
        Ok(())
    }

    /// Append `entries` (sorted, every key `>=` the current last key) in
    /// one pass, setting the count once: what a run of [`Self::push`]
    /// calls writes, without re-reading and re-writing the count per
    /// entry. Every value must be `<= MAX_VALUE`. If they do not all fit,
    /// nothing is written.
    pub fn extend(&mut self, entries: &[(Key, Value)]) -> Result<(), NodeFull> {
        let n = count_of(self.page);
        if n + entries.len() > entry_capacity(self.page) {
            return Err(NodeFull);
        }
        let last = (n > 0).then(|| entry_key(self.page, n - 1));
        debug_assert!(
            last.into_iter()
                .chain(entries.iter().map(|&(key, _)| key))
                .is_sorted(),
            "extend out of order"
        );
        let start = off::ENTRIES + n * ENTRY_SIZE;
        let slots =
            self.page[start..start + entries.len() * ENTRY_SIZE].chunks_exact_mut(ENTRY_SIZE);
        for (slot, &(key, value)) in slots.zip(entries) {
            assert!(value <= MAX_VALUE, "value uses the reserved delete bit");
            write_u64(slot, 0, key);
            write_u64(slot, 8, value);
        }
        set_count(self.page, n + entries.len());
        Ok(())
    }

    /// Set the delete bit on the first live entry matching `key`.
    /// Returns `true` if an entry was tombstoned.
    pub fn mark_deleted(&mut self, key: Key) -> bool {
        let n = count_of(self.page);
        let mut i = lower_bound(self.page, key);
        while i < n && entry_key(self.page, i) == key {
            let word = entry_word(self.page, i);
            if word & DELETE_BIT == 0 {
                set_entry(self.page, i, key, word | DELETE_BIT);
                return true;
            }
            i += 1;
        }
        false
    }

    /// Remove tombstoned entries (epoch GC compaction). Returns how many
    /// entries were reclaimed.
    pub fn compact(&mut self) -> usize {
        let n = count_of(self.page);
        let mut kept = 0usize;
        for i in 0..n {
            let key = entry_key(self.page, i);
            let word = entry_word(self.page, i);
            if word & DELETE_BIT == 0 {
                if kept != i {
                    set_entry(self.page, kept, key, word);
                }
                kept += 1;
            }
        }
        set_count(self.page, kept);
        n - kept
    }

    /// Lehman-Yao split: move the upper half into `right_page`, link
    /// siblings, shrink this node. Returns the separator key (this node's
    /// new high key).
    pub fn split_into(&mut self, right_page: &mut [u8], self_ptr: Ptr, right_ptr: Ptr) -> Key {
        split_common(self.page, right_page, self_ptr, right_ptr, NodeKind::Leaf)
    }

    /// Overwrite the left-sibling pointer (after a neighbour split).
    pub fn set_left_sibling(&mut self, p: Ptr) {
        write_u64(self.page, off::LEFT_SIBLING, p.raw());
    }

    /// Overwrite the right-sibling pointer.
    pub fn set_right_sibling(&mut self, p: Ptr) {
        write_u64(self.page, off::RIGHT_SIBLING, p.raw());
    }

    /// Overwrite the `(version, lock-bit)` word.
    pub fn set_version_lock(&mut self, word: u64) {
        set_version_lock(self.page, word);
    }
}

// --------------------------------------------------------------- inner ----

/// Read-only view of an inner page.
#[derive(Clone, Copy)]
pub struct InnerNodeRef<'a> {
    page: &'a [u8],
}

impl<'a> InnerNodeRef<'a> {
    /// Wrap a page; panics if it is not an inner node.
    pub fn new(page: &'a [u8]) -> Self {
        assert_eq!(kind_of(page), NodeKind::Inner, "expected an inner page");
        InnerNodeRef { page }
    }

    header_reads!();

    /// Entry `i` as `(separator, child)`: `child` covers keys in
    /// `(previous separator, separator]`.
    pub fn entry(&self, i: usize) -> (Key, Ptr) {
        debug_assert!(i < self.count());
        (entry_key(self.page, i), Ptr(entry_word(self.page, i)))
    }

    /// Child covering `key`, or `None` if `key > high_key` (the caller
    /// must chase the right sibling).
    pub fn find_child(&self, key: Key) -> Option<Ptr> {
        let i = lower_bound(self.page, key);
        if i < self.count() {
            Some(Ptr(entry_word(self.page, i)))
        } else {
            None
        }
    }

    /// Indices of the entries a scan of `[lo, hi]` crosses: from the
    /// child covering `lo` through the first whose separator is `>= hi`,
    /// or through the last entry.
    pub fn span(&self, lo: Key, hi: Key) -> std::ops::Range<usize> {
        lower_bound(self.page, lo)..(lower_bound(self.page, hi) + 1).min(self.count())
    }
}

/// Mutable view of an inner page.
pub struct InnerNodeMut<'a> {
    page: &'a mut [u8],
}

impl<'a> InnerNodeMut<'a> {
    /// Wrap a page; panics if it is not an inner node.
    pub fn new(page: &'a mut [u8]) -> Self {
        assert_eq!(kind_of(page), NodeKind::Inner, "expected an inner page");
        InnerNodeMut { page }
    }

    /// Format a blank (all-zero) page as an empty inner node.
    pub fn init(page: &'a mut [u8], level: u8, high_key: Key, right: Ptr) -> Self {
        assert!(level > 0, "inner nodes live above level 0");
        debug_assert_blank(page);
        page[off::KIND] = NodeKind::Inner as u8;
        page[off::LEVEL] = level;
        write_u64(page, off::HIGH_KEY, high_key);
        write_u64(page, off::RIGHT_SIBLING, right.raw());
        InnerNodeMut { page }
    }

    /// Format a blank page as a new root over a freshly split pair:
    /// entries `[(sep, left), (KEY_MAX, right)]`.
    pub fn init_root(page: &'a mut [u8], level: u8, sep: Key, left: Ptr, right: Ptr) -> Self {
        let node = Self::init(page, level, KEY_MAX, Ptr::NULL);
        insert_at(node.page, 0, sep, left.raw());
        insert_at(node.page, 1, KEY_MAX, right.raw());
        node
    }

    /// Read-only view of the same page.
    pub fn as_ref(&self) -> InnerNodeRef<'_> {
        InnerNodeRef { page: self.page }
    }

    header_reads!();

    /// Entry `i` as `(separator, child)`.
    pub fn entry(&self, i: usize) -> (Key, Ptr) {
        self.as_ref().entry(i)
    }

    /// Install a child split (§4.2): a child covering `sep_new` split in
    /// place, its upper half moving to the new page `right`. Inserts
    /// `(sep_new, current covering child)` and repoints the covering
    /// entry at `right`.
    ///
    /// Taking the covering entry's *current* child (rather than a caller-
    /// supplied left pointer) makes installation commute with concurrent
    /// splits of the same subtree, whose installs may have raced ahead;
    /// B-link sibling chases keep searches correct in the interim.
    pub fn install_split(&mut self, sep_new: Key, right: Ptr) -> Result<(), NodeFull> {
        if self.is_full() {
            return Err(NodeFull);
        }
        let idx = lower_bound(self.page, sep_new);
        debug_assert!(idx < self.count(), "split separator beyond high key");
        debug_assert_ne!(
            entry_key(self.page, idx),
            sep_new,
            "separator already installed"
        );
        let covering_sep = entry_key(self.page, idx);
        let covering_child = entry_word(self.page, idx);
        set_entry(self.page, idx, covering_sep, right.raw());
        insert_at(self.page, idx, sep_new, covering_child);
        Ok(())
    }

    /// Child covering `key`, or `None` if `key > high_key`.
    pub fn find_child(&self, key: Key) -> Option<Ptr> {
        self.as_ref().find_child(key)
    }

    /// Append `(sep, child)` at the end; `sep` must be `>` the current
    /// last separator. Used by bulk loading.
    pub fn push(&mut self, sep: Key, child: Ptr) -> Result<(), NodeFull> {
        if self.is_full() {
            return Err(NodeFull);
        }
        let n = count_of(self.page);
        debug_assert!(
            n == 0 || entry_key(self.page, n - 1) < sep,
            "push out of order"
        );
        set_entry(self.page, n, sep, child.raw());
        set_count(self.page, n + 1);
        Ok(())
    }

    /// Lehman-Yao split; see [`LeafNodeMut::split_into`].
    pub fn split_into(&mut self, right_page: &mut [u8], self_ptr: Ptr, right_ptr: Ptr) -> Key {
        split_common(self.page, right_page, self_ptr, right_ptr, NodeKind::Inner)
    }

    /// Overwrite the `(version, lock-bit)` word.
    pub fn set_version_lock(&mut self, word: u64) {
        set_version_lock(self.page, word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageLayout;

    fn leaf_page() -> Box<[u8]> {
        let mut page = PageLayout::default().alloc_page();
        LeafNodeMut::init(&mut page, KEY_MAX, Ptr::NULL, Ptr::NULL);
        page
    }

    #[test]
    fn leaf_insert_and_get() {
        let mut page = leaf_page();
        let mut leaf = LeafNodeMut::new(&mut page);
        for k in [5u64, 1, 9, 3, 7] {
            leaf.insert(k, k * 100).unwrap();
        }
        let view = leaf.as_ref();
        assert_eq!(view.count(), 5);
        assert_eq!(view.get(3), Some(300));
        assert_eq!(view.get(4), None);
        // Sorted order.
        let keys: Vec<_> = (0..5).map(|i| view.entry(i).0).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn leaf_duplicate_keys() {
        let mut page = leaf_page();
        let mut leaf = LeafNodeMut::new(&mut page);
        leaf.insert(5, 1).unwrap();
        leaf.insert(5, 2).unwrap();
        leaf.insert(5, 3).unwrap();
        let view = leaf.as_ref();
        assert_eq!(view.count(), 3);
        // get returns the first live entry.
        assert_eq!(view.get(5), Some(1));
        let mut out = Vec::new();
        view.collect_range(5, 5, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn leaf_full_rejects() {
        let mut page = leaf_page();
        let mut leaf = LeafNodeMut::new(&mut page);
        let cap = PageLayout::default().entry_capacity();
        for k in 0..cap as u64 {
            leaf.insert(k, k).unwrap();
        }
        assert!(leaf.is_full());
        assert_eq!(leaf.insert(9999, 0), Err(NodeFull));
    }

    #[test]
    fn leaf_tombstone_and_compact() {
        let mut page = leaf_page();
        let mut leaf = LeafNodeMut::new(&mut page);
        for k in 0..10u64 {
            leaf.insert(k, k).unwrap();
        }
        assert!(leaf.mark_deleted(4));
        assert!(!leaf.mark_deleted(4), "already tombstoned");
        assert_eq!(leaf.as_ref().get(4), None);
        assert_eq!(leaf.as_ref().live_count(), 9);
        let mut out = Vec::new();
        leaf.as_ref().collect_range(0, 9, &mut out);
        assert_eq!(out.len(), 9);
        assert_eq!(leaf.compact(), 1);
        assert_eq!(leaf.count(), 9);
        assert_eq!(leaf.as_ref().get(5), Some(5));
    }

    /// `collect_range` as it was before it became a bulk pass, verbatim:
    /// the reference the bulk pass is held to.
    fn collect_range_per_entry(
        leaf: &LeafNodeRef<'_>,
        lo: Key,
        hi: Key,
        out: &mut Vec<(Key, Value)>,
    ) -> usize {
        let mut i = leaf.lower_bound(lo);
        let start = i;
        while i < leaf.count() {
            let (k, v, deleted) = leaf.entry(i);
            if k > hi {
                break;
            }
            if !deleted {
                out.push((k, v));
            }
            i += 1;
        }
        i - start
    }

    proptest::proptest! {
        /// The bulk pass appends the rows the per-entry loop appends and
        /// reports the entries it reports — which is virtual CPU time —
        /// on leaves with duplicates and tombstones, for bounds on keys,
        /// between keys, inverted and at `KEY_MAX`, behind rows already
        /// in `out`.
        #[test]
        fn bulk_collect_range_matches_the_per_entry_loop(
            keys in proptest::collection::vec(0u64..40, 0..=61),
            deletes in proptest::collection::vec(0u64..40, 0..30),
            (lo, hi) in (0u64..125, 0u64..125),
            hi_is_max in proptest::prelude::any::<bool>(),
            prefilled in 0usize..3,
        ) {
            // Keys 3 apart, so bounds fall between them; the largest is
            // the largest key there is.
            let key = |j: u64| if j == 39 { KEY_MAX - 1 } else { j * 3 };
            let mut page = leaf_page();
            let mut leaf = LeafNodeMut::new(&mut page);
            for (i, &j) in keys.iter().enumerate() {
                leaf.insert(key(j), i as u64).unwrap();
            }
            for &j in &deletes {
                leaf.mark_deleted(key(j));
            }
            let leaf = leaf.as_ref();
            let hi = if hi_is_max { KEY_MAX } else { hi };
            let mut want = vec![(7, 7); prefilled];
            let mut got = want.clone();
            let want_scanned = collect_range_per_entry(&leaf, lo, hi, &mut want);
            let got_scanned = leaf.collect_range(lo, hi, &mut got);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(got_scanned, want_scanned);
        }
    }

    /// The bulk loader's leaf fill as it was before it became one pass,
    /// verbatim but for `?` in place of its `expect`: the reference
    /// [`LeafNodeMut::extend`] is held to.
    fn push_per_entry(
        leaf: &mut LeafNodeMut<'_>,
        entries: &[(Key, Value)],
    ) -> Result<(), NodeFull> {
        for &(key, value) in entries {
            leaf.push(key, value)?;
        }
        Ok(())
    }

    /// What an append returned, and the page it left.
    type Appended = (Result<(), NodeFull>, Box<[u8]>);

    /// Append `entries` to a leaf that holds `before`: by the push loop,
    /// then by `extend`.
    fn append_both_ways(before: &[(Key, Value)], entries: &[(Key, Value)]) -> [Appended; 2] {
        [false, true].map(|bulk| {
            let mut page = PageLayout::default().alloc_page();
            let mut leaf = LeafNodeMut::init(&mut page, 9_999, Ptr(3), Ptr(5));
            push_per_entry(&mut leaf, before).unwrap();
            let appended = if bulk {
                leaf.extend(entries)
            } else {
                push_per_entry(&mut leaf, entries)
            };
            (appended, page)
        })
    }

    proptest::proptest! {
        /// Byte for byte what the per-entry pushes write, for sorted runs
        /// with duplicates of every length up to a full leaf, behind
        /// entries already in the leaf.
        #[test]
        fn extend_writes_the_pages_the_push_loop_writes(
            mut keys in proptest::collection::vec(0u64..40, 0..=61),
            prefilled in 0usize..4,
            value_base in 0u64..1_000,
        ) {
            keys.sort_unstable();
            let entries: Vec<(Key, Value)> =
                keys.iter().enumerate().map(|(i, &k)| (k + 10, value_base + i as u64)).collect();
            let before: Vec<(Key, Value)> = (0..prefilled as u64).map(|k| (k, k)).collect();
            let fits = prefilled + entries.len() <= PageLayout::default().entry_capacity();
            let [want, got] = append_both_ways(&before, &entries);
            if fits {
                proptest::prop_assert_eq!(got, want);
            } else {
                proptest::prop_assert_eq!((got.0, want.0), (Err(NodeFull), Err(NodeFull)));
            }
        }
    }

    /// The edges, by name: nothing to append, a leaf filled exactly to
    /// capacity, one entry past it (refused, and then nothing written), and
    /// a value on the delete bit.
    #[test]
    fn extend_edges() {
        let cap = PageLayout::default().entry_capacity() as u64;
        let [want, got] = append_both_ways(&[(1, 1)], &[]);
        assert_eq!(got, want);
        assert_eq!(LeafNodeRef::new(&got.1).count(), 1);

        let full: Vec<(Key, Value)> = (0..cap).map(|k| (k / 2, k)).collect();
        let [want, got] = append_both_ways(&[], &full);
        assert_eq!(got, want);
        assert_eq!(got.0, Ok(()));
        assert!(LeafNodeRef::new(&got.1).is_full());

        let over: Vec<(Key, Value)> = (0..=cap).map(|k| (k, k)).collect();
        let [want, got] = append_both_ways(&[], &over);
        assert_eq!((got.0, want.0), (Err(NodeFull), Err(NodeFull)));
        assert_eq!(
            LeafNodeRef::new(&got.1).count(),
            0,
            "a refused extend wrote"
        );
        let [_, got] = append_both_ways(&[(0, 0)], &over[1..]);
        assert_eq!(got.0, Err(NodeFull));
    }

    #[test]
    #[should_panic(expected = "delete bit")]
    fn extend_rejects_a_value_on_the_delete_bit() {
        let mut page = leaf_page();
        let _ = LeafNodeMut::new(&mut page).extend(&[(1, 1), (2, MAX_VALUE + 1)]);
    }

    /// The reservation is an estimate that cannot fail: exact on evenly
    /// spaced keys, capped on a range as wide as the key space, and 0
    /// where a leaf has no density to offer.
    #[test]
    fn expected_rows_is_capped_and_total() {
        let leaf_of = |keys: &[Key]| {
            let mut page = leaf_page();
            let mut leaf = LeafNodeMut::new(&mut page);
            for &k in keys {
                leaf.insert(k, k).unwrap();
            }
            page
        };
        let dense: Vec<Key> = (0..61).collect();
        let spaced: Vec<Key> = (100..140).map(|k| k * 8).collect();
        for (keys, whole_space) in [
            (&dense[..], MAX_RESERVED_ROWS),
            (&spaced[..], MAX_RESERVED_ROWS),
            (&[5, 5, 5][..], 0),
            (&[5][..], 0),
            (&[][..], 0),
        ] {
            let page = leaf_of(keys);
            let leaf = LeafNodeRef::new(&page);
            assert_eq!(leaf.expected_rows(0, u64::MAX), whole_space, "{keys:?}");
            assert_eq!(leaf.expected_rows(0, KEY_MAX - 1), whole_space, "{keys:?}");
            assert_eq!(leaf.expected_rows(9, 8), 0, "inverted bounds, {keys:?}");
        }
        let page = leaf_of(&spaced);
        let leaf = LeafNodeRef::new(&page);
        // 1 000 keys from one that is in the leaf, from between two, and
        // from before the leaf's first (800).
        assert_eq!(leaf.expected_rows(900, 900 + 999 * 8), 1000);
        assert_eq!(leaf.expected_rows(903, 903 + 999 * 8), 1000);
        assert_eq!(leaf.expected_rows(700, 800 + 999 * 8), 1000);
        assert_eq!(leaf.expected_rows(900, 900), 1);
        assert_eq!(leaf.expected_rows(0, 799), 0, "ends before the leaf");
    }

    #[test]
    fn leaf_split_preserves_order_and_links() {
        let mut page = leaf_page();
        let mut right_page = PageLayout::default().alloc_page();
        let mut leaf = LeafNodeMut::new(&mut page);
        for k in 0..20u64 {
            leaf.insert(k, k).unwrap();
        }
        let sep = leaf.split_into(&mut right_page, Ptr(111), Ptr(222));
        assert_eq!(sep, 9);
        assert_eq!(leaf.high_key(), 9);
        assert_eq!(leaf.right_sibling(), Ptr(222));
        let right = LeafNodeRef::new(&right_page);
        assert_eq!(right.count(), 10);
        assert_eq!(right.entry(0).0, 10);
        assert_eq!(right.high_key(), KEY_MAX);
        assert_eq!(right.left_sibling(), Ptr(111));
        assert_eq!(right.right_sibling(), Ptr::NULL);
    }

    #[test]
    fn leaf_split_respects_duplicate_boundary() {
        let mut page = leaf_page();
        let mut right_page = PageLayout::default().alloc_page();
        let mut leaf = LeafNodeMut::new(&mut page);
        // 3 copies of key 5 straddling the midpoint of 6 entries.
        for (k, v) in [(1u64, 0u64), (2, 0), (5, 1), (5, 2), (5, 3), (9, 0)] {
            leaf.insert(k, v).unwrap();
        }
        let sep = leaf.split_into(&mut right_page, Ptr(1), Ptr(2));
        // All copies of 5 stay on one side.
        assert_eq!(sep, 5);
        let right = LeafNodeRef::new(&right_page);
        assert_eq!(right.entry(0).0, 9);
        assert_eq!(leaf.as_ref().get(5), Some(1));
    }

    #[test]
    fn inner_find_child_ranges() {
        let mut page = PageLayout::default().alloc_page();
        let inner = InnerNodeMut::init_root(&mut page, 1, 10, Ptr(100), Ptr(200));
        assert_eq!(inner.count(), 2);
        assert_eq!(inner.find_child(5), Some(Ptr(100)));
        assert_eq!(inner.find_child(10), Some(Ptr(100)), "sep is inclusive");
        assert_eq!(inner.find_child(11), Some(Ptr(200)));
        assert_eq!(inner.find_child(u64::MAX - 1), Some(Ptr(200)));
    }

    /// A scan's span runs from the child covering `lo` through the first
    /// whose separator reaches `hi`, and is empty past the high key.
    #[test]
    fn inner_span_names_the_children_a_scan_crosses() {
        let mut page = PageLayout::default().alloc_page();
        let mut inner = InnerNodeMut::init(&mut page, 1, 40, Ptr::NULL);
        for (sep, child) in [(10, 1), (20, 2), (30, 3), (40, 4)] {
            inner.push(sep, Ptr(child)).unwrap();
        }
        let inner = inner.as_ref();
        assert_eq!(inner.span(15, 25), 1..3);
        assert_eq!(inner.span(10, 10), 0..1, "separators are inclusive");
        assert_eq!(inner.span(0, 11), 0..2);
        assert_eq!(inner.span(35, u64::MAX), 3..4, "through the last entry");
        assert!(inner.span(41, 50).is_empty(), "past the high key");
    }

    #[test]
    fn inner_install_split() {
        let mut page = PageLayout::default().alloc_page();
        let mut inner = InnerNodeMut::init_root(&mut page, 1, 10, Ptr(100), Ptr(200));
        // Child 100 (covering ..=10) split at sep 5 into (100, new 150).
        inner.install_split(5, Ptr(150)).unwrap();
        assert_eq!(inner.count(), 3);
        assert_eq!(inner.find_child(3), Some(Ptr(100)));
        assert_eq!(inner.find_child(5), Some(Ptr(100)));
        assert_eq!(inner.find_child(7), Some(Ptr(150)));
        assert_eq!(inner.find_child(10), Some(Ptr(150)));
        assert_eq!(inner.find_child(11), Some(Ptr(200)));
    }

    #[test]
    fn inner_split() {
        let mut page = PageLayout::default().alloc_page();
        let mut right_page = PageLayout::default().alloc_page();
        let mut inner = InnerNodeMut::init(&mut page, 2, KEY_MAX, Ptr::NULL);
        for i in 0..10u64 {
            let sep = if i == 9 { KEY_MAX } else { (i + 1) * 10 };
            inner.insert_raw_for_test(sep, Ptr(1000 + i));
        }
        let sep = inner.split_into(&mut right_page, Ptr(7), Ptr(8));
        assert_eq!(sep, 50);
        assert_eq!(inner.high_key(), 50);
        let right = InnerNodeRef::new(&right_page);
        assert_eq!(right.count(), 5);
        assert_eq!(right.high_key(), KEY_MAX);
        assert_eq!(right.find_child(55), Some(Ptr(1005)));
        assert_eq!(inner.find_child(55), None, "past high key -> sibling");
        assert_eq!(inner.right_sibling(), Ptr(8));
    }

    #[test]
    fn version_lock_round_trip() {
        let mut page = leaf_page();
        assert_eq!(version_lock_of(&page), 0);
        set_version_lock(&mut page, 42);
        assert_eq!(version_lock_of(&page), 42);
        let leaf = LeafNodeRef::new(&page);
        assert_eq!(leaf.version_lock(), 42);
    }

    impl InnerNodeMut<'_> {
        /// Test-only: append a raw (sep, child) pair in sorted order.
        fn insert_raw_for_test(&mut self, sep: Key, child: Ptr) {
            let pos = lower_bound(self.page, sep);
            insert_at(self.page, pos, sep, child.raw());
        }
    }
}
