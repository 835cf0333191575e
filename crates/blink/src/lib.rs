#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # blink — B-link tree pages and local trees
//!
//! This crate implements the index structure of the paper: a B-link tree
//! (Lehman & Yao) adapted for RDMA access, following §2.2–§5 of
//! *"Designing Distributed Tree-based Index Structures for Fast
//! RDMA-capable Networks"* (SIGMOD '19).
//!
//! Five layers:
//!
//! * [`layout`] — the fixed binary page format: every node starts with an
//!   8-byte `(version, lock-bit)` word, carries a high key and sibling
//!   pointers, and stores sorted `(key, value)` entries. Pages are plain
//!   byte arrays so they can live in an RDMA-registered memory pool and be
//!   fetched with one-sided READs.
//! * [`node`] — node-level operations on page bytes: binary search,
//!   sorted insert, Lehman-Yao splits, tombstone deletes.
//! * [`load`] — the one bottom-up bulk loader: sorted entries streamed
//!   into pages that are built where a [`load::PageSink`] keeps them — a
//!   local tree's buffer, or remote memory pools.
//! * [`local`] — a complete single-machine B-link tree over an owned page
//!   pool. Memory servers in the coarse-grained and hybrid designs run
//!   this tree locally when serving two-sided RPCs; it also reports
//!   [`local::WorkStats`] so the simulator can charge CPU time
//!   proportional to real work.
//! * [`check`] — what a well-formed B-link tree is, written once: the
//!   sibling-chain walk and the invariant check, over pages read through
//!   a closure, so a local tree and the pages scattered over remote pools
//!   are checked by the same rules.
//!
//! A local tree's pages, and a memory server's registered region, live in
//! [`mem::PageMemory`]: a flat zero-filled buffer that grows to the byte
//! and, once large, is recycled on its thread when dropped.
//!
//! Keys are `u64`. Values are 63-bit (`value <= MAX_VALUE`): the top bit
//! of the value word is the per-entry *delete bit* the paper uses for
//! tombstone deletes reclaimed by epoch-based garbage collection.

pub mod check;
pub mod layout;
pub mod load;
pub mod local;
pub mod mem;
pub mod node;

pub use layout::{Key, PageLayout, Ptr, Value, KEY_MAX, MAX_VALUE};
pub use local::{LocalTree, WorkStats};
pub use node::{InnerNodeMut, InnerNodeRef, LeafNodeMut, LeafNodeRef, NodeKind};
