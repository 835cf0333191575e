//! Epoch-based garbage collection of tombstoned entries.
//!
//! Deletes only set a per-entry delete bit (§3.2); reclaiming the space
//! is deferred to epoch GC passes:
//!
//! * **Local trees** (§3.2): each memory server runs its own GC over
//!   its local tree "in regular intervals" — modelled as one RPC per
//!   server whose handler compacts every leaf, charged for the pages it
//!   touches ([`crate::local`]).
//! * **The leaf chain** (§4.2): GC runs *globally from a compute server*,
//!   because local and remote atomics must not mix on the same words
//!   (reference 10 in the paper): the collector walks the leaf chain with the
//!   one-sided protocol, locking and rewriting only leaves that carry
//!   tombstones.
//! * **Both** (§5.2, the hybrid layout): the leaf chain is collected by
//!   the global one-sided collector; upper levels by per-server local GC.
//!   No synchronisation between the two is needed since delete bits are
//!   set consistently.

use blink::node::{kind_of, HeadNodeRef, LeafNodeMut, LeafNodeRef, NodeKind};
use rdma_sim::{Endpoint, OpKind, RemotePtr, VerbError};

use crate::onesided::{lock_node, read_unlocked};
use crate::Design;

/// One GC epoch over whatever parts `design` has: the global one-sided
/// collector over the leaf chain, then local compaction of every
/// server's tree. Returns the entries reclaimed where the entries live —
/// on the chain if there is one (compacting upper levels then reclaims
/// only routing entries: stale leaf pointers are repointed, not
/// tombstoned, so it is usually a no-op, still charged as a pass), in
/// the local trees otherwise.
pub async fn gc_pass(design: &Design, ep: &Endpoint) -> Result<usize, VerbError> {
    let idx = design.index();
    ep.cluster().note_op_start(ep.client_id(), OpKind::Gc, None);
    let res = async {
        let on_chain = match idx.chain() {
            Some(chain) => Some(chain_gc(ep, chain.first(), idx.layout().page_size()).await?),
            None => None,
        };
        let in_trees = match idx.local() {
            Some(local) => local.compact(ep).await?,
            None => 0,
        };
        Ok(on_chain.unwrap_or(in_trees))
    }
    .await;
    ep.cluster()
        .note_op_end(ep.client_id(), OpKind::Gc, res.is_ok(), None);
    res
}

/// Walk the leaf chain from `first`, compacting tombstoned leaves with
/// the one-sided protocol. Returns entries reclaimed.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#[deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
async fn chain_gc(ep: &Endpoint, first: RemotePtr, page_size: usize) -> Result<usize, VerbError> {
    let mut reclaimed = 0;
    let mut cur = first;
    while !cur.is_null() {
        let page = read_unlocked(ep, cur, page_size).await?;
        // Chain-walk fence: the collector consults only monotone
        // structural fields of the optimistic snapshot — sibling
        // pointers (pools are bump allocators, pages are never reused)
        // and delete bits (only ever set). A stale skip is re-collected
        // by the next pass; a stale compact decision is revalidated by
        // the lock CAS below before any bytes are rewritten.
        crate::note_fence(ep, rdma_sim::FenceKind::Revalidate, cur);
        match kind_of(&page) {
            NodeKind::Head => {
                cur = RemotePtr::from_page_ptr(HeadNodeRef::new(&page).right_sibling());
            }
            NodeKind::Leaf => {
                let leaf = LeafNodeRef::new(&page);
                let next = RemotePtr::from_page_ptr(leaf.right_sibling());
                let has_tombstones = leaf.live_count() < leaf.count();
                if has_tombstones {
                    // Lock, compact a fresh copy, write back.
                    let mut locked = lock_node(ep, cur, page).await?;
                    reclaimed += LeafNodeMut::new(&mut locked.page).compact();
                    locked.commit(ep, None).await?;
                }
                cur = next;
            }
            NodeKind::Inner => return Err(VerbError::Invariant("inner node in the leaf chain")),
        }
    }
    Ok(reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::small_cfg;
    use crate::{CoarseGrained, FineGrained, Hybrid};
    use blink::layout::lock_word;
    use blink::node::version_lock_of;
    use blink::PageLayout;
    use nam::{NamCluster, PartitionMap};
    use rdma_sim::{Cluster, ClusterSpec};
    use simnet::Sim;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn cg_gc_reclaims() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(4, 1000 * 8);
        let idx = CoarseGrained::build(
            &nam,
            PageLayout::default(),
            partition,
            (0..1000u64).map(|i| (i * 8, i)),
            0.7,
        );
        let ep = Endpoint::new(&nam.rdma);
        let freed = Rc::new(Cell::new(0usize));
        {
            let idx = idx.clone();
            let freed = freed.clone();
            sim.spawn(async move {
                for i in (0..1000u64).step_by(2) {
                    idx.delete(&ep, i * 8).await.unwrap();
                }
                freed.set(gc_pass(&Design::Cg(idx.clone()), &ep).await.unwrap());
                // Survivors intact after compaction.
                assert_eq!(idx.lookup(&ep, 8).await.unwrap(), Some(1));
                assert_eq!(idx.lookup(&ep, 0).await.unwrap(), None);
            });
        }
        sim.run();
        assert_eq!(freed.get(), 500);
    }

    #[test]
    fn fg_gc_reclaims() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, small_cfg(), (0..500u64).map(|i| (i * 8, i)));
        let ep = Endpoint::new(&cluster);
        let freed = Rc::new(Cell::new(0usize));
        {
            let idx = idx.clone();
            let freed = freed.clone();
            sim.spawn(async move {
                for i in (0..500u64).step_by(5) {
                    assert!(idx.delete(&ep, i * 8).await.unwrap());
                }
                freed.set(gc_pass(&Design::Fg(idx.clone()), &ep).await.unwrap());
                assert_eq!(idx.lookup(&ep, 0).await.unwrap(), None);
                assert_eq!(idx.lookup(&ep, 8).await.unwrap(), Some(1));
                // Full scan sees exactly the survivors.
                let rows = idx.range(&ep, 0, u64::MAX - 1).await.unwrap();
                assert_eq!(rows.len(), 400);
            });
        }
        sim.run();
        assert_eq!(freed.get(), 100);
    }

    #[test]
    fn hybrid_gc_reclaims() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(4, 400 * 8);
        let idx = Hybrid::build(
            &nam,
            small_cfg(),
            partition,
            (0..400u64).map(|i| (i * 8, i)),
        );
        let ep = Endpoint::new(&nam.rdma);
        let freed = Rc::new(Cell::new(0usize));
        {
            let idx = idx.clone();
            let freed = freed.clone();
            sim.spawn(async move {
                for i in 0..50u64 {
                    idx.delete(&ep, i * 8).await.unwrap();
                }
                freed.set(gc_pass(&Design::Hybrid(idx.clone()), &ep).await.unwrap());
                let rows = idx.range(&ep, 0, u64::MAX - 1).await.unwrap();
                assert_eq!(rows.len(), 350);
            });
        }
        sim.run();
        assert_eq!(freed.get(), 50);
    }

    /// A refused write-back must not leak the collector's leaf lock for
    /// a lease: `gc_pass` fails, but the word is already unlocked and
    /// the next writer of that leaf gets straight in.
    #[test]
    fn refused_gc_write_back_releases_the_leaf_lock() {
        use crate::onesided::{abandoned_guards, tests::LockProbe};
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, small_cfg(), (0..500u64).map(|i| (i * 8, i)));
        let probe = LockProbe::install(&cluster);
        let collector = Endpoint::new(&cluster);
        let writer = Endpoint::new(&cluster);
        let lease = rdma_sim::spec::LEASE_DURATION;
        let s = sim.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        sim.spawn(async move {
            assert!(idx.delete(&writer, 80).await.unwrap());
            // Position 0 under the collector's lock is the write-back.
            probe.refuse_nth(0);
            let res = gc_pass(&Design::Fg(idx.clone()), &collector).await;
            assert!(matches!(res, Err(VerbError::Timeout { .. })), "{res:?}");
            let (leaf, _) = *probe.sections.borrow().last().unwrap();
            let word = version_lock_of(&idx.setup_source().cluster().setup_read(leaf, 8));
            assert!(!lock_word::is_locked(word), "GC leaked the leaf lock");
            let before = s.now();
            idx.insert(&writer, 81, 1, false).await.unwrap();
            assert!(s.now() - before < lease / 10, "insert waited out a lease");
            assert_eq!(probe.sections.borrow().last().unwrap().0, leaf);
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(abandoned_guards(), 0);
    }
}
