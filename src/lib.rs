#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # namdex — distributed tree-based index structures for fast
//! RDMA-capable networks
//!
//! A production-quality Rust reproduction of *Ziegler, Tumkur Vani,
//! Binnig, Fonseca, Kraska: "Designing Distributed Tree-based Index
//! Structures for Fast RDMA-capable Networks", SIGMOD 2019* — the three
//! distributed B-link tree designs for the Network-Attached-Memory (NAM)
//! architecture, complete with the simulated RDMA substrate the
//! evaluation runs on.
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`sim`] | `simnet` | deterministic virtual-time engine (executor, fluid resources, RNG, stats) |
//! | [`rdma`] | `rdma-sim` | simulated RDMA verbs: memory pools, remote pointers, one-/two-sided ops, NIC/QPI model |
//! | [`tree`] | `blink` | B-link tree pages and local trees with optimistic lock coupling |
//! | [`index`] | `namdex-core` | **the paper's contribution**: the coarse-grained, fine-grained and hybrid designs, plus the learned-routing extension |
//! | [`model`] | `namdex-core` | the §2.3 analytical scalability model |
//! | [`chaos`] | `rdma-sim` | deterministic fault injection: fault plans, client kills, server crashes, link degradation |
//! | [`workload`] | `ycsb` | the paper's modified YCSB (Table 3) |
//! | [`telemetry`] | `telemetry` | metrics registry, causal op spans, Chrome-trace/Perfetto export |
//! | [`racecheck`] | `racecheck` | the dynamic checker: protocol, happens-before and structural rules over one shadow page table fed by the verb-observer bus |
//!
//! ## Quickstart
//!
//! ```
//! use namdex::prelude::*;
//!
//! // A simulated 4-memory-server NAM cluster.
//! let sim = Sim::new();
//! let nam = NamCluster::new(&sim, ClusterSpec::default());
//!
//! // Build the hybrid index (Design 3) over 10k records.
//! let partition = PartitionMap::range_uniform(nam.num_servers(), 10_000 * 8);
//! let index = Design::Hybrid(Hybrid::build(
//!     &nam,
//!     FgConfig::default(),
//!     partition,
//!     (0..10_000u64).map(|i| (i * 8, i)),
//! ));
//!
//! // A compute-server client issues index operations over (simulated)
//! // RDMA verbs. Every operation is fallible: under fault injection
//! // (see [`chaos`]) a verb can time out, hit a crashed server, or be
//! // cancelled by a client kill; on this fault-free cluster the
//! // results are simply unwrapped.
//! let ep = Endpoint::new(&nam.rdma);
//! sim.spawn(async move {
//!     assert_eq!(index.lookup(&ep, 4_200 * 8).await.unwrap(), Some(4_200));
//!     index.insert(&ep, 33, 999).await.unwrap();
//!     let rows = index.range(&ep, 0, 100).await.unwrap();
//!     assert!(rows.len() >= 13);
//! });
//! sim.run();
//! ```

pub use blink as tree;
pub use namdex_core as index;
pub use namdex_core::model;
pub use racecheck;
pub use rdma_sim as rdma;
pub use rdma_sim::chaos;
pub use simnet as sim;
pub use telemetry;
pub use ycsb as workload;

/// Everything needed to build and query an index on a simulated NAM
/// cluster.
pub mod prelude {
    pub use blink::{Key, LocalTree, PageLayout, Value};
    pub use namdex_core::{
        CoarseGrained, Design, FgConfig, FineGrained, Hybrid, Index, IndexKind, Learned,
        LearnedStats, NamCluster, OpError, PartitionMap,
    };
    pub use racecheck::Racecheck;
    pub use rdma_sim::chaos::{ChaosController, FaultEvent, FaultPlan, RandomProfile};
    pub use rdma_sim::{
        Cluster, ClusterSpec, Durability, Endpoint, LinkDegrade, RecoveryRecord, RemotePtr,
        VerbError, WalStats,
    };
    pub use simnet::{Sim, SimDur, SimTime};
    pub use ycsb::{Dataset, Op, OpGen, RequestDist, Workload};
}
