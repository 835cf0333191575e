//! The catalog service.
//!
//! §4.2: "compute servers need to know the remote pointer for the root
//! node. This can be implemented as part of a catalog service that is
//! anyway used during query compilation and optimization." The catalog
//! maps index names to the metadata a compute server needs before its
//! first access: the design kind, the global root (fine-grained), and/or
//! the partition map (coarse-grained, hybrid).

use std::collections::BTreeMap;
use std::rc::Rc;

use learned_index::PgmModel;
use rdma_sim::RemotePtr;

use crate::partition::PartitionMap;

/// Which of the four designs an index uses (the paper's three plus the
/// learned-routing extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Design 1 (§3): coarse-grained distribution, two-sided access.
    CoarseGrained,
    /// Design 2 (§4): fine-grained distribution, one-sided access.
    FineGrained,
    /// Design 3 (§5): hybrid.
    Hybrid,
    /// Design 4: learned-index routing over the hybrid layout — the
    /// catalog additionally ships the trained model to clients.
    Learned,
}

impl IndexKind {
    /// All four designs, in the order every sweep and matrix visits them.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::CoarseGrained,
        IndexKind::FineGrained,
        IndexKind::Hybrid,
        IndexKind::Learned,
    ];

    /// `[key, name, label]` — the one table the three spellings read.
    const fn names(self) -> [&'static str; 3] {
        match self {
            IndexKind::CoarseGrained => ["cg", "coarse-grained", "Coarse-Grained"],
            IndexKind::FineGrained => ["fg", "fine-grained", "Fine-Grained"],
            IndexKind::Hybrid => ["hybrid", "hybrid", "Hybrid"],
            IndexKind::Learned => ["learned", "learned", "Learned"],
        }
    }

    /// Stable short name: CLI flags and env lists (`NAMDEX_DESIGNS=cg,fg`),
    /// counterexample files, artifact names.
    pub const fn key(self) -> &'static str {
        self.names()[0]
    }

    /// Report name (catalog entries, CSV `design` columns).
    pub const fn name(self) -> &'static str {
        self.names()[1]
    }

    /// Display name matching the paper's legends.
    pub const fn label(self) -> &'static str {
        self.names()[2]
    }

    /// Parse [`Self::key`] output.
    pub fn parse(key: &str) -> Option<IndexKind> {
        Self::ALL.into_iter().find(|k| k.key() == key)
    }
}

/// Everything a compute server must know to access an index.
#[derive(Clone, Debug)]
pub struct IndexDescriptor {
    /// The design this index uses.
    pub kind: IndexKind,
    /// Root remote pointer (fine-grained only; NULL otherwise).
    pub root: RemotePtr,
    /// Partition map (coarse-grained and hybrid; `None` for fine-grained).
    pub partition: Option<PartitionMap>,
    /// Trained routing model (learned design only). Shipped by value
    /// through the catalog like the root pointer: a client that resolves
    /// the descriptor can predict leaves with no further communication.
    pub model: Option<Rc<PgmModel>>,
}

/// Name → descriptor registry.
///
/// A memory-server restart does not go through the catalog: clients
/// learn of it from `rdma_sim::Cluster::restart_epoch` and flush what
/// they derived from remote memory (DESIGN.md §10).
#[derive(Default)]
pub struct Catalog {
    entries: BTreeMap<String, IndexDescriptor>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) an index.
    pub fn register(&mut self, name: impl Into<String>, desc: IndexDescriptor) {
        self.entries.insert(name.into(), desc);
    }

    /// Look up an index by name.
    pub fn lookup(&self, name: &str) -> Option<&IndexDescriptor> {
        self.entries.get(name)
    }

    /// Registered index names (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register(
            "orders_idx",
            IndexDescriptor {
                kind: IndexKind::FineGrained,
                root: RemotePtr::new(0, 64),
                partition: None,
                model: None,
            },
        );
        let d = cat.lookup("orders_idx").expect("registered");
        assert_eq!(d.kind, IndexKind::FineGrained);
        assert_eq!(d.root.server(), 0);
        assert!(cat.lookup("missing").is_none());
        assert_eq!(cat.names().count(), 1);
    }

    #[test]
    fn replace_updates() {
        let mut cat = Catalog::new();
        let mk = |server| IndexDescriptor {
            kind: IndexKind::CoarseGrained,
            root: RemotePtr::NULL,
            partition: Some(PartitionMap::range_uniform(server, 100)),
            model: None,
        };
        cat.register("t", mk(2));
        cat.register("t", mk(4));
        let d = cat.lookup("t").unwrap();
        assert_eq!(d.partition.as_ref().unwrap().num_servers(), 4);
    }
}
