//! Per-memory-server software state and the handler CPU cost model.

use std::cell::RefCell;

use blink::{LocalTree, WorkStats};
use rdma_sim::spec::{CPU_PER_ENTRY, CPU_PER_NODE, CPU_PER_SPLIT};
use rdma_sim::ClusterSpec;
use simnet::SimDur;

use crate::lock::LockTable;

/// Software state of one memory server: the local B-link tree it serves
/// over RPC (a coarse-grained partition, or the hybrid design's upper
/// levels) and its virtual page-lock table.
pub struct ServerNode {
    /// The server's local tree, if this design gives it one.
    pub tree: RefCell<Option<LocalTree>>,
    /// Virtual page locks for handler spin-wait modelling.
    pub locks: LockTable,
}

impl ServerNode {
    /// Empty node (no tree installed yet).
    pub fn new() -> Self {
        ServerNode {
            tree: RefCell::new(None),
            locks: LockTable::new(),
        }
    }

    /// Install this server's local tree.
    pub fn install_tree(&self, tree: LocalTree) {
        *self.tree.borrow_mut() = Some(tree);
    }

    /// Run `f` against the installed tree. Panics if none is installed.
    pub fn with_tree<R>(&self, f: impl FnOnce(&mut LocalTree) -> R) -> R {
        f(self
            .tree
            .borrow_mut()
            .as_mut()
            .expect("no local tree installed on this server"))
    }

    /// Whether a tree is installed.
    pub fn has_tree(&self) -> bool {
        self.tree.borrow().is_some()
    }
}

impl Default for ServerNode {
    fn default() -> Self {
        Self::new()
    }
}

/// Translate the work an RPC handler performed into CPU service time
/// using the cost model: the spec's fixed per-RPC cost covers
/// receive/dispatch/send; traversal work scales with nodes visited,
/// entries scanned, and splits performed.
pub fn handler_cpu_time(spec: &ClusterSpec, work: WorkStats) -> SimDur {
    spec.rpc_fixed_cpu
        + CPU_PER_NODE * (work.nodes_visited + work.sibling_hops) as u64
        + CPU_PER_ENTRY * work.entries_scanned as u64
        + CPU_PER_SPLIT * work.splits as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink::PageLayout;

    #[test]
    fn install_and_use_tree() {
        let node = ServerNode::new();
        assert!(!node.has_tree());
        let mut tree = LocalTree::new(PageLayout::default());
        tree.insert(1, 10);
        node.install_tree(tree);
        assert!(node.has_tree());
        let v = node.with_tree(|t| t.get(1).0);
        assert_eq!(v, Some(10));
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
}
