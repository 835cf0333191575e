//! Bottom-up bulk load, written once for every place a tree is built: a
//! [`crate::LocalTree`]'s own pages, or a leaf chain (and its inner
//! levels) scattered over remote memory pools.
//!
//! The loader is fed sorted entries one at a time and holds at most one
//! leaf's worth of them: a page is allocated from the [`PageSink`], built
//! where the sink keeps it, and never copied. What it fixes is the
//! *order* of `alloc` calls — leaves in key order, then each inner level
//! left to right — so a sink that places pages by allocation order
//! (round-robin over memory servers) gets the same image from the same
//! input, every time.

use crate::layout::{Key, PageLayout, Ptr, Value, KEY_MAX};
use crate::node::{InnerNodeMut, LeafNodeMut};

/// Where a bulk load puts its pages.
pub trait PageSink {
    /// Allocate one zeroed page.
    fn alloc(&mut self) -> Ptr;
    /// Run `f` over the bytes of page `ptr`, in place.
    fn with_page(&mut self, ptr: Ptr, f: impl FnOnce(&mut [u8]));
}

/// The leaf level of a bulk load in progress.
pub struct Loader<S> {
    sink: S,
    /// Entries per bulk-built node, leaf or inner.
    per_node: usize,
    /// `(high_key, ptr)` of every finished leaf, in key order.
    leaves: Vec<(Key, Ptr)>,
    /// The leaf being filled (null before the first entry) ...
    open: Ptr,
    /// ... and its entries, written out when the next leaf begins.
    entries: Vec<(Key, Value)>,
}

impl<S: PageSink> Loader<S> {
    /// Load into `sink`: leaves filled to `fill` in `(0, 1]`.
    pub fn new(sink: S, layout: PageLayout, fill: f64) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor in (0,1]");
        let per_node = ((layout.entry_capacity() as f64 * fill) as usize).max(2);
        Loader {
            sink,
            per_node,
            leaves: Vec::new(),
            open: Ptr::NULL,
            entries: Vec::with_capacity(per_node),
        }
    }

    /// Append the next entry; keys must arrive in ascending order
    /// (duplicates allowed, and never split across leaves).
    pub fn push(&mut self, key: Key, value: Value) {
        match self.entries.last() {
            None => self.open = self.sink.alloc(),
            Some(&(last, _)) => {
                debug_assert!(last <= key, "bulk-load input unsorted");
                if self.entries.len() >= self.per_node && last != key {
                    let next = self.sink.alloc();
                    self.write_leaf(last, next);
                    self.open = next;
                }
            }
        }
        self.entries.push((key, value));
    }

    /// Write the open leaf out with fence `high` and sibling `right`.
    fn write_leaf(&mut self, high: Key, right: Ptr) {
        let left = self.leaves.last().map_or(Ptr::NULL, |&(_, ptr)| ptr);
        let entries = &self.entries;
        self.sink.with_page(self.open, |page| {
            LeafNodeMut::init(page, high, left, right)
                .extend(entries)
                .expect("fill factor keeps leaves under capacity");
        });
        self.entries.clear();
        self.leaves.push((high, self.open));
    }

    /// Finish the leaf level (empty input leaves one empty leaf) and
    /// hand the sink back.
    pub fn finish(mut self) -> (S, LeafLevel) {
        if self.open.is_null() {
            self.open = self.sink.alloc();
        }
        self.write_leaf(KEY_MAX, Ptr::NULL);
        let level = LeafLevel {
            leaves: self.leaves,
            per_node: self.per_node,
        };
        (self.sink, level)
    }
}

/// A loaded leaf level: what an upper level is built over.
pub struct LeafLevel {
    /// `(high_key, ptr)` of every leaf, in key order (at least one).
    pub leaves: Vec<(Key, Ptr)>,
    per_node: usize,
}

impl LeafLevel {
    /// Build inner levels bottom-up over the leaves, at the leaves' fill
    /// factor, until a single node is left; returns `(root, height)`.
    pub fn inner_levels<S: PageSink>(self, sink: &mut S) -> (Ptr, u8) {
        let mut level = self.leaves;
        let mut height = 1u8;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / self.per_node + 1);
            let mut rest = &level[..];
            let mut ptr = sink.alloc();
            while !rest.is_empty() {
                let mut take = self.per_node.min(rest.len());
                // Avoid a trailing 1-entry node: rebalance the tail.
                if rest.len() - take == 1 {
                    take -= 1;
                }
                let (node, tail) = rest.split_at(take);
                let right = if tail.is_empty() {
                    Ptr::NULL
                } else {
                    sink.alloc()
                };
                let high = node[take - 1].0;
                sink.with_page(ptr, |page| {
                    let mut inner = InnerNodeMut::init(page, height, high, right);
                    for &(sep, child) in node {
                        inner.push(sep, child).expect("inner under capacity");
                    }
                });
                next.push((high, ptr));
                (ptr, rest) = (right, tail);
            }
            level = next;
            height += 1;
        }
        (level[0].1, height)
    }
}
