//! Durability adapter: a [`ServerNode`]'s local tree as [`DurableState`].
//!
//! Under `Durability::Wal` the transport wipes all server RAM on a crash
//! and rebuilds it from the checkpoint image plus log replay. The memory
//! pool recovers from `PoolWrite` / `PoolAllocTo` records on its own; the
//! server-*local* trees (a CG partition, the hybrid design's upper
//! levels) live outside the pool, so each index registers one
//! [`DurableTree`] per server to give the transport logical wipe /
//! snapshot / replay over them.
//!
//! Replay mirrors the original handler mutations verbatim:
//! `TreeInsert` re-runs `insert_at_leaf` (duplicate keys keep their
//! multiplicity), `TreeUpsert` re-runs `update_value` falling back to an
//! insert, `TreeDelete` re-runs the tombstone. Checkpoint snapshots scan
//! only live entries, which is exactly what a rebuilt tree must hold:
//! tombstoned entries carry no logical state and their space would be
//! reclaimed by the epoch GC anyway.

use std::rc::Rc;

use blink::{LocalTree, PageLayout};
use rdma_sim::DurableState;

use crate::node::ServerNode;

/// Exposes one server's local tree to the transport's crash-recovery
/// machinery. Holds the page geometry and fill factor so a checkpoint
/// snapshot can be bulk-loaded back into an equivalent tree.
pub struct DurableTree {
    node: Rc<ServerNode>,
    layout: PageLayout,
    fill: f64,
}

impl DurableTree {
    /// Wrap `node`'s tree; `layout` and `fill` must match how the index
    /// built it, so a restored tree has the same geometry.
    pub fn new(node: Rc<ServerNode>, layout: PageLayout, fill: f64) -> Self {
        DurableTree { node, layout, fill }
    }
}

impl DurableState for DurableTree {
    fn wipe(&self) {
        // Crash with volatile DRAM: the tree empties (an installed-but-
        // empty tree keeps `with_tree` callable during the recovery
        // window, though no handler runs while the server is down).
        self.node.install_tree(LocalTree::new(self.layout));
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        if !self.node.has_tree() {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.node.with_tree(|t| t.range(0, u64::MAX, &mut out));
        out
    }

    fn restore(&self, entries: &[(u64, u64)]) {
        let entries = entries.iter().copied();
        self.node
            .install_tree(LocalTree::bulk_load(self.layout, entries, self.fill));
    }

    fn upsert(&self, key: u64, value: u64) {
        self.node.with_tree(|t| {
            if !t.update_value(key, value).0 {
                t.insert_at_leaf(key, value);
            }
        });
    }

    fn insert(&self, key: u64, value: u64) {
        self.node.with_tree(|t| {
            t.insert_at_leaf(key, value);
        });
    }

    fn delete(&self, key: u64) {
        self.node.with_tree(|t| {
            t.delete_at_leaf(key);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_node(n: u64) -> Rc<ServerNode> {
        let node = Rc::new(ServerNode::new());
        node.install_tree(LocalTree::bulk_load(
            PageLayout::default(),
            (0..n).map(|i| (i * 8, i)),
            0.7,
        ));
        node
    }

    #[test]
    fn wipe_loses_everything_restore_brings_it_back() {
        let node = loaded_node(500);
        let d = DurableTree::new(node.clone(), PageLayout::default(), 0.7);
        let snap = d.snapshot();
        assert_eq!(snap.len(), 500);
        d.wipe();
        assert_eq!(d.snapshot(), Vec::new(), "crash must empty the tree");
        d.restore(&snap);
        assert_eq!(node.with_tree(|t| t.get(8 * 123).0), Some(123));
        assert_eq!(d.snapshot(), snap);
    }

    #[test]
    fn replay_mirrors_handler_mutations() {
        let node = loaded_node(10);
        let d = DurableTree::new(node.clone(), PageLayout::default(), 0.7);
        // Fresh insert, in-place upsert, duplicate-key insert, delete.
        d.insert(5, 100);
        assert_eq!(node.with_tree(|t| t.get(5).0), Some(100));
        d.upsert(5, 200);
        assert_eq!(node.with_tree(|t| t.get(5).0), Some(200));
        d.insert(5, 300);
        let mut dup = Vec::new();
        node.with_tree(|t| t.range(5, 5, &mut dup));
        assert_eq!(dup.len(), 2, "insert replay keeps duplicate keys");
        d.delete(5);
        assert_eq!(node.with_tree(|t| t.get(5).0), Some(300), "first live gone");
        // Upsert of an absent key degrades to an insert.
        d.upsert(999, 1);
        assert_eq!(node.with_tree(|t| t.get(999).0), Some(1));
    }

    #[test]
    fn snapshot_of_empty_node_is_empty() {
        let node = Rc::new(ServerNode::new());
        let d = DurableTree::new(node, PageLayout::default(), 0.7);
        assert_eq!(d.snapshot(), Vec::new());
    }
}
