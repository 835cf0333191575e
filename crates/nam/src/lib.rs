#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nam — the Network-Attached-Memory architecture assembly
//!
//! The NAM architecture (Figure 1 of the paper) logically separates
//! *compute servers*, which run query/transaction logic, from *memory
//! servers*, which expose a shared RDMA-accessible memory pool. This
//! crate provides everything the three index designs (in `namdex-core`)
//! need from that architecture:
//!
//! * [`partition`] — key-space partitioning for the coarse-grained and
//!   hybrid designs: range (uniform or with explicit fractions, used to
//!   induce the paper's 80/12/5/3 attribute-value skew) and hash.
//! * [`node`] — per-memory-server state: the server's local B-link tree
//!   (a CG partition or the hybrid design's upper levels) and the
//!   work→CPU-time cost model for RPC handlers.
//! * [`durable`] — the adapter that exposes a server's local tree to the
//!   transport's crash-recovery machinery (`Durability::Wal`): wipe on
//!   crash, snapshot into fuzzy checkpoints, replay logged mutations.
//! * [`lock`] — a virtual-time lock table modelling handler spin-waits on
//!   contended page locks; wait time occupies the handler core, which is
//!   the degradation mechanism of Fig. 12.
//! * [`msg`] — RPC wire-format sizes (requests/responses) so two-sided
//!   traffic is charged byte-accurately.
//! * [`kind`] — which of the four designs an index uses.
//! * [`NamCluster`] — the assembled deployment.

pub mod durable;
pub mod kind;
pub mod lock;
pub mod msg;
pub mod node;
pub mod partition;

pub use durable::DurableTree;
pub use kind::IndexKind;
pub use lock::LockTable;
pub use node::{handler_cpu_time, ServerNode};
pub use partition::PartitionMap;

use rdma_sim::{Cluster, ClusterSpec};
use simnet::Sim;

/// An assembled NAM deployment: the simulated RDMA cluster. Per-index
/// server-side state ([`ServerNode`]) is owned by each index, since a
/// memory server hosts one local tree per index it serves.
pub struct NamCluster {
    /// The underlying simulated RDMA cluster.
    pub rdma: Cluster,
}

impl NamCluster {
    /// Deploy a NAM cluster on `sim` with the given spec.
    pub fn new(sim: &Sim, spec: ClusterSpec) -> Self {
        NamCluster {
            rdma: Cluster::new(sim, spec),
        }
    }

    /// Number of memory servers.
    pub fn num_servers(&self) -> usize {
        self.rdma.num_servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_matches_spec() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::with_memory_servers(6));
        assert_eq!(nam.num_servers(), 6);
    }
}
