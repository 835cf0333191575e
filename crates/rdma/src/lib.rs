#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # rdma-sim — simulated RDMA verbs over a modelled cluster
//!
//! A deterministic stand-in for an InfiniBand/RoCE fabric (the paper's
//! testbed is an 8-machine FDR 4× cluster with dual-port Connect-IB NICs).
//! The crate provides:
//!
//! * [`RemotePtr`] — the paper's 8-byte remote pointer: `(nullbit,
//!   node-ID (7 bit), offset (7 byte))` (§4.1),
//! * [`MemPool`] — a memory server's RDMA-registered region with
//!   `RDMA_ALLOC`-style bump allocation,
//! * [`Cluster`] — the machines, NIC ports, RPC handler cores, and QPI
//!   placement model,
//! * [`Endpoint`] — the client-side verb API: one-sided `READ` / `WRITE`
//!   / `CAS` / `FETCH_AND_ADD` plus a two-sided SEND/RECV RPC.
//!
//! ## Fidelity model
//!
//! Verb *timing* flows through fluid resources: each memory server's NIC
//! port is a FIFO link (wire time = per-message overhead + bytes /
//! effective bandwidth) and its RPC handlers are a k-core FIFO pool.
//! Verb *effects* (byte copies, compare-and-swap, fetch-and-add) apply
//! atomically at the verb's completion instant, so protocol-level races —
//! failed lock CAS, version bumps observed by concurrent readers, B-link
//! sibling chases after an in-flight split — genuinely occur between
//! verbs, exactly the behaviours the paper's protocols must handle.
//!
//! Memory servers co-resident on one machine share its QPI: the server
//! not attached to the NIC socket pays a bandwidth and CPU penalty,
//! reproducing the effect §6.1 identifies as the coarse-grained design's
//! saturation point.

pub mod buf;
pub mod chaos;
pub mod cluster;
pub mod endpoint;
pub mod fault;
pub mod observer;
pub mod pool;
pub mod ptr;
pub mod spec;
pub mod wal;

pub use buf::{BufArena, PageBuf};
pub use cluster::{Cluster, DurableState, RecoveryRecord, ServerStats};
pub use endpoint::{Endpoint, RpcReply};
pub use fault::{FaultStats, LinkDegrade, VerbError};
pub use observer::{FenceKind, OpKind, RegionKind, RpcEvent, VerbEvent, VerbKind, VerbObserver};
pub use pool::MemPool;
pub use ptr::{PtrDecodeError, RemotePtr};
pub use spec::{ClusterSpec, Durability, MAX_LOCK_HOLD_VERBS};
pub use wal::{WalRecord, WalStats};
