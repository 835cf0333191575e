//! The scattered leaf chain (§4, shared by designs 2–4) and the remotely
//! stored inner levels the fine-grained design builds over it.
//!
//! Leaves are scattered round-robin across all memory servers and
//! connected by 8-byte remote pointers; compute servers read them with
//! one-sided READs and update them with CAS / WRITE / FETCH_AND_ADD —
//! memory-server CPUs are never involved (Listing 2 + Listing 4). The
//! traversal/SMO protocol itself lives in [`crate::engine`]; this module
//! is the part an [`Index`] *has*: the bulk loaders (leaf
//! level; inner levels bottom-up for a remote upper level), the
//! round-robin placement cursor split pages are drawn from, and epoch
//! head-node maintenance.
//!
//! Range scans use the §4.3 optimisation: *head nodes* interposed in the
//! leaf chain every `head_stride` leaves redundantly store the remote
//! pointers of their group, letting a scan prefetch a whole group of
//! leaves with selectively signalled READs. Head nodes are only an
//! optimisation: direct sibling pointers are kept, and a scan that meets
//! a leaf absent from the prefetched group (a concurrent split) simply
//! issues one extra READ.
//!
//! Cost profile (Table 2): every level costs a round trip, so point
//! lookups over remote inner levels move `H·P` bytes; but the aggregated
//! bandwidth of *all* memory servers is available regardless of skew —
//! throughput scales with memory servers for every workload (Fig. 3,
//! Fig. 11).

use std::cell::Cell;

use blink::layout::KEY_MAX;
use blink::node::{kind_of, HeadNodeMut, InnerNodeMut, LeafNodeMut, NodeKind};
use blink::{Key, PageLayout, Ptr, Value};
use rdma_sim::{Cluster, RemotePtr};

use crate::resolve::Index;

/// Construction parameters of an index: page geometry and fill for
/// every part, plus the chain's head stride and the client cache size.
#[derive(Clone, Copy, Debug)]
pub struct FgConfig {
    /// Page geometry.
    pub layout: PageLayout,
    /// Bulk-load fill factor in `(0, 1]`.
    pub fill: f64,
    /// Install a head node before every `head_stride` leaves; `0`
    /// disables head nodes.
    pub head_stride: usize,
    /// Client-side cache capacity in entries per client (`Some(0)` =
    /// unbounded); `None` disables caching entirely — the descent is an
    /// exact pass-through to the wire.
    pub cache_capacity: Option<usize>,
}

impl Default for FgConfig {
    fn default() -> Self {
        FgConfig {
            layout: PageLayout::default(),
            fill: 0.7,
            head_stride: 8,
            cache_capacity: None,
        }
    }
}

/// The scattered leaf chain an index has (every design but the
/// coarse-grained one).
pub struct Chain {
    /// Start of the chain (a head node, if enabled, else the leftmost
    /// leaf).
    first: Cell<RemotePtr>,
    /// Round-robin cursor for new-page placement: setup-path loads and
    /// timed split-page allocation both draw from it.
    pub(crate) alloc_rr: Cell<usize>,
    head_stride: usize,
}

/// Round-robin allocation of one page (setup path, untimed).
fn alloc_rr(cluster: &Cluster, layout: PageLayout, rr: &Cell<usize>) -> RemotePtr {
    let s = rr.get();
    rr.set((s + 1) % cluster.num_servers());
    cluster.setup_alloc(s, layout.page_size() as u64)
}

impl Chain {
    /// Start of the leaf chain.
    pub fn first(&self) -> RemotePtr {
        self.first.get()
    }

    /// Build the remote leaf chain: leaves filled to `fill`, scattered
    /// round-robin, linked by remote pointers, with optional head nodes
    /// interposed every `head_stride` leaves. Setup path (untimed).
    /// Also returns `(high_key, ptr)` of every real leaf, in key order —
    /// what the upper level is built over.
    pub(crate) fn load(
        cluster: &Cluster,
        cfg: &FgConfig,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> (Chain, Vec<(Key, RemotePtr)>) {
        let rr = Cell::new(0);
        let per_leaf = ((cfg.layout.entry_capacity() as f64 * cfg.fill) as usize).max(2);

        // Chunk items into leaves, never splitting one key across leaves.
        // One flat buffer plus boundary ranges — bulk load touches millions
        // of entries, so per-chunk `Vec`s are measurable setup cost.
        let all: Vec<(Key, Value)> = items.collect();
        debug_assert!(
            all.windows(2).all(|w| w[0].0 <= w[1].0),
            "leaf-level input unsorted"
        );
        let mut chunks: Vec<(usize, usize)> = Vec::with_capacity(all.len() / per_leaf + 1);
        let mut start = 0;
        while start < all.len() {
            let mut end = (start + per_leaf).min(all.len());
            while end < all.len() && all[end].0 == all[end - 1].0 {
                end += 1;
            }
            chunks.push((start, end));
            start = end;
        }
        if chunks.is_empty() {
            chunks.push((0, 0)); // empty index: one empty leaf
        }

        // Allocate pages: leaves round-robin, plus one head per group.
        let n = chunks.len();
        let leaf_ptrs: Vec<RemotePtr> =
            (0..n).map(|_| alloc_rr(cluster, cfg.layout, &rr)).collect();
        let groups: usize = if cfg.head_stride > 0 {
            n.div_ceil(cfg.head_stride)
        } else {
            0
        };
        let head_ptrs: Vec<RemotePtr> = (0..groups)
            .map(|_| alloc_rr(cluster, cfg.layout, &rr))
            .collect();

        // Write leaves with chain links. A leaf's right sibling is the next
        // leaf, except the last leaf of a group, which points at the next
        // group's head.
        let mut leaves = Vec::with_capacity(n);
        // One page buffer reused for every node: `init` zero-fills before
        // writing, so the bytes shipped to the servers are identical to a
        // freshly allocated page without the per-leaf 1 KiB allocation.
        let mut page = cfg.layout.alloc_page();
        for (i, &(lo, hi)) in chunks.iter().enumerate() {
            let chunk = &all[lo..hi];
            let high = if i + 1 == n {
                KEY_MAX
            } else {
                chunk.last().expect("non-last leaves are non-empty").0
            };
            let right = if i + 1 == n {
                RemotePtr::NULL
            } else if cfg.head_stride > 0 && (i + 1) % cfg.head_stride == 0 {
                head_ptrs[(i + 1) / cfg.head_stride]
            } else {
                leaf_ptrs[i + 1]
            };
            let left = if i == 0 {
                RemotePtr::NULL
            } else {
                leaf_ptrs[i - 1]
            };
            let mut leaf =
                LeafNodeMut::init(&mut page, high, left.as_page_ptr(), right.as_page_ptr());
            for &(k, v) in chunk {
                leaf.push(k, v)
                    .expect("fill factor keeps leaves under capacity");
            }
            cluster.setup_write(leaf_ptrs[i], &page);
            leaves.push((high, leaf_ptrs[i]));
        }

        // Write head nodes: each lists its group's leaves and chains to the
        // group's first leaf.
        for (g, &head_ptr) in head_ptrs.iter().enumerate() {
            let lo = g * cfg.head_stride;
            let hi = (lo + cfg.head_stride).min(n);
            let ptrs: Vec<Ptr> = leaf_ptrs[lo..hi].iter().map(|p| p.as_page_ptr()).collect();
            HeadNodeMut::init(&mut page, &ptrs, leaf_ptrs[lo].as_page_ptr());
            cluster.setup_write(head_ptr, &page);
        }

        let first = if groups > 0 {
            head_ptrs[0]
        } else {
            leaf_ptrs[0]
        };
        let chain = Chain {
            first: Cell::new(first),
            alloc_rr: rr,
            head_stride: cfg.head_stride,
        };
        (chain, leaves)
    }

    /// Build remotely stored inner levels bottom-up over the leaves'
    /// `(high_key, ptr)` pairs, continuing the chain's round-robin
    /// placement; returns the root pointer. Setup path (untimed).
    pub(crate) fn load_inner_levels(
        &self,
        cluster: &Cluster,
        cfg: &FgConfig,
        mut level: Vec<(Key, RemotePtr)>,
    ) -> RemotePtr {
        let rr = &self.alloc_rr;
        let per_inner = ((cfg.layout.entry_capacity() as f64 * cfg.fill) as usize).max(2);
        let mut level_no: u8 = 0;
        let mut page = cfg.layout.alloc_page(); // reused; `init` zero-fills
        while level.len() > 1 {
            level_no += 1;
            let mut next = Vec::new();
            // Pre-compute node extents (rebalancing a trailing 1-entry node).
            let mut starts = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let mut take = per_inner.min(level.len() - i);
                if level.len() - i - take == 1 {
                    take -= 1;
                }
                starts.push((i, take));
                i += take;
            }
            let ptrs: Vec<RemotePtr> = starts
                .iter()
                .map(|_| alloc_rr(cluster, cfg.layout, rr))
                .collect();
            for (j, &(start, take)) in starts.iter().enumerate() {
                let right = if j + 1 == ptrs.len() {
                    RemotePtr::NULL
                } else {
                    ptrs[j + 1]
                };
                let high = level[start + take - 1].0;
                let mut node = InnerNodeMut::init(&mut page, level_no, high, right.as_page_ptr());
                for &(sep, child) in &level[start..start + take] {
                    node.push(sep, child.as_page_ptr()).expect("under capacity");
                }
                cluster.setup_write(ptrs[j], &page);
                next.push((high, ptrs[j]));
            }
            level = next;
        }
        level[0].1
    }
}

impl Index {
    /// Epoch head-node maintenance (§4.3): rebuild the head nodes' group
    /// pointer lists from the current leaf chain, folding in leaves added
    /// by splits. Runs on the control path (the paper runs it in a
    /// background thread in regular intervals). A no-op without a chain
    /// or with head nodes disabled.
    pub fn maintain_heads(&self) {
        let Some(chain) = self.chain().filter(|c| c.head_stride > 0) else {
            return;
        };
        let src = self.setup_source();
        let (cluster, layout) = (src.cluster(), src.layout());
        // Collect the real leaves in chain order; the head pages passed
        // on the way are about to be abandoned (epoch-retired).
        let mut leaves = Vec::new();
        let mut old_heads = Vec::new();
        for (ptr, page) in src.chain(chain.first.get()) {
            match kind_of(&page) {
                NodeKind::Head => old_heads.push(ptr),
                NodeKind::Leaf => leaves.push(ptr),
                NodeKind::Inner => unreachable!("inner node in the leaf chain"),
            }
        }
        // Rebuild groups of head_stride leaves with fresh head nodes.
        let groups: Vec<&[RemotePtr]> = leaves.chunks(chain.head_stride).collect();
        let head_ptrs: Vec<RemotePtr> = groups
            .iter()
            .map(|_| alloc_rr(cluster, layout, &chain.alloc_rr))
            .collect();
        for (g, group) in groups.iter().enumerate() {
            let ptrs: Vec<Ptr> = group.iter().map(|p| p.as_page_ptr()).collect();
            let mut page = layout.alloc_page();
            HeadNodeMut::init(&mut page, &ptrs, group[0].as_page_ptr());
            cluster.setup_write(head_ptrs[g], &page);
            // Link the previous group's last leaf to this head.
            let prev_last = if g == 0 {
                None
            } else {
                groups[g - 1].last().copied()
            };
            if let Some(last) = prev_last {
                let mut lp = src.load(last);
                // Last leaf of a group points at the next group's head,
                // whose sibling routes on to the group's first leaf.
                LeafNodeMut::new(&mut lp).set_right_sibling(head_ptrs[g].as_page_ptr());
                cluster.setup_write(last, &lp);
            }
        }
        if let Some(&h) = head_ptrs.first() {
            chain.first.set(h);
        }
        // The replaced heads are unreachable from the new chain: report
        // them retired, so the checker can flag any straggler access as a
        // use-after-free. (The simulator itself never reuses retired
        // regions — the pools are bump allocators — so reclamation is
        // purely a protocol-level event.)
        for h in old_heads {
            cluster.note_freed(h.server(), h.offset(), layout.page_size());
        }
    }
}

/// The small-page configuration the unit tests share: 10 entries per
/// node, so a few hundred keys already give a multi-level tree.
#[cfg(test)]
pub(crate) fn small_cfg() -> FgConfig {
    FgConfig {
        layout: PageLayout::new(200),
        fill: 0.7,
        head_stride: 4,
        cache_capacity: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FineGrained, Index};
    use rdma_sim::{ClusterSpec, Endpoint};
    use simnet::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn build(sim: &Sim, n: u64, cfg: FgConfig) -> (Cluster, Rc<Index>) {
        let cluster = Cluster::new(sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, cfg, (0..n).map(|i| (i * 8, i)));
        (cluster, idx)
    }

    #[test]
    fn nodes_scatter_across_all_servers() {
        let sim = Sim::new();
        let (cluster, _idx) = build(&sim, 5000, small_cfg());
        // Round-robin placement: every server received pages.
        for s in 0..cluster.num_servers() {
            let allocated = cluster.with_pool(s, |p| p.allocated());
            assert!(allocated > 100 * 200, "server {s} got {allocated} bytes");
        }
    }

    #[test]
    fn lookup_found_and_missing() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 5000, small_cfg());
        let ep = Endpoint::new(&cluster);
        let results = Rc::new(RefCell::new(Vec::new()));
        {
            let results = results.clone();
            sim.spawn(async move {
                for i in [0u64, 1, 2499, 4999] {
                    let got = idx.lookup(&ep, i * 8).await.unwrap();
                    results.borrow_mut().push(got);
                }
                let got = idx.lookup(&ep, 5).await.unwrap();
                results.borrow_mut().push(got);
            });
        }
        sim.run();
        assert_eq!(
            *results.borrow(),
            vec![Some(0), Some(1), Some(2499), Some(4999), None]
        );
    }

    #[test]
    fn lookup_costs_height_round_trips() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 5000, small_cfg());
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            idx.lookup(&ep, 2400 * 8).await.unwrap();
        });
        sim.run();
        let total_reads: u64 = (0..4).map(|s| cluster.server_stats(s).onesided_ops).sum();
        // 5000 keys / 7 per leaf ≈ 715 leaves; fanout 7 → height 4-5.
        assert!(
            (4..=6).contains(&total_reads),
            "expected height-many READs, got {total_reads}"
        );
    }

    #[test]
    fn range_with_head_prefetch() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 5000, small_cfg());
        let ep = Endpoint::new(&cluster);
        let out = Rc::new(RefCell::new(Vec::new()));
        {
            let out = out.clone();
            sim.spawn(async move {
                let rows = idx.range(&ep, 1000 * 8, 1499 * 8).await.unwrap();
                out.borrow_mut().extend(rows);
            });
        }
        sim.run();
        let rows = out.borrow();
        assert_eq!(rows.len(), 500);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(rows[0], (8000, 1000));
    }

    #[test]
    fn range_without_heads_matches() {
        let sim = Sim::new();
        let cfg = FgConfig {
            head_stride: 0,
            ..small_cfg()
        };
        let (cluster, idx) = build(&sim, 2000, cfg);
        let ep = Endpoint::new(&cluster);
        let out = Rc::new(RefCell::new(Vec::new()));
        {
            let out = out.clone();
            sim.spawn(async move {
                let rows = idx.range(&ep, 0, 1999 * 8).await.unwrap();
                out.borrow_mut().extend(rows);
            });
        }
        sim.run();
        assert_eq!(out.borrow().len(), 2000);
    }

    #[test]
    fn insert_and_split_propagation() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 500, small_cfg());
        let ep = Endpoint::new(&cluster);
        let idx2 = idx.clone();
        sim.spawn(async move {
            // Dense odd-key inserts force many leaf and inner splits.
            for i in 0..500u64 {
                idx2.insert(&ep, i * 8 + 1, 10_000 + i, false)
                    .await
                    .unwrap();
            }
            for i in 0..500u64 {
                assert_eq!(idx2.lookup(&ep, i * 8 + 1).await.unwrap(), Some(10_000 + i));
                assert_eq!(
                    idx2.lookup(&ep, i * 8).await.unwrap(),
                    Some(i),
                    "old key {i}"
                );
            }
        });
        sim.run();
        drop(cluster);
    }

    #[test]
    fn concurrent_inserts_all_survive() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 1000, small_cfg());
        for c in 0..8u64 {
            let idx = idx.clone();
            let ep = Endpoint::new(&cluster);
            sim.spawn(async move {
                for i in 0..60u64 {
                    idx.insert(&ep, (i * 1000 + c) * 16 + 1, c * 100 + i, false)
                        .await
                        .unwrap();
                }
            });
        }
        sim.run();
        let idx2 = idx.clone();
        let ep = Endpoint::new(&cluster);
        let ok = Rc::new(Cell::new(0u32));
        {
            let ok = ok.clone();
            sim.spawn(async move {
                for c in 0..8u64 {
                    for i in 0..60u64 {
                        if idx2.lookup(&ep, (i * 1000 + c) * 16 + 1).await.unwrap()
                            == Some(c * 100 + i)
                        {
                            ok.set(ok.get() + 1);
                        }
                    }
                }
            });
        }
        sim.run();
        assert_eq!(ok.get(), 480, "every concurrent insert must be found");
    }

    #[test]
    fn delete_tombstones() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 200, small_cfg());
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            assert!(idx.delete(&ep, 40 * 8).await.unwrap());
            assert_eq!(idx.lookup(&ep, 40 * 8).await.unwrap(), None);
            assert!(!idx.delete(&ep, 40 * 8).await.unwrap());
            // Neighbours unaffected.
            assert_eq!(idx.lookup(&ep, 39 * 8).await.unwrap(), Some(39));
            assert_eq!(idx.lookup(&ep, 41 * 8).await.unwrap(), Some(41));
        });
        sim.run();
    }

    #[test]
    fn root_growth_under_append_pressure() {
        let sim = Sim::new();
        // Tiny index: root is a leaf; appends must grow it multiple
        // levels.
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, small_cfg(), (0..5u64).map(|i| (i * 8, i)));
        let ep = Endpoint::new(&cluster);
        let idx2 = idx.clone();
        sim.spawn(async move {
            for i in 5..400u64 {
                idx2.insert(&ep, i * 8, i, false).await.unwrap();
            }
            for i in 0..400u64 {
                assert_eq!(idx2.lookup(&ep, i * 8).await.unwrap(), Some(i), "key {i}");
            }
        });
        sim.run();
    }

    #[test]
    fn maintain_heads_after_splits() {
        let sim = Sim::new();
        let (cluster, idx) = build(&sim, 300, small_cfg());
        let ep = Endpoint::new(&cluster);
        {
            let idx = idx.clone();
            sim.spawn(async move {
                for i in 0..300u64 {
                    idx.insert(&ep, i * 8 + 3, i, false).await.unwrap();
                }
            });
        }
        sim.run();
        idx.maintain_heads();
        // Scans still see everything after head rebuild.
        let ep = Endpoint::new(&cluster);
        let n = Rc::new(Cell::new(0usize));
        {
            let idx = idx.clone();
            let n = n.clone();
            sim.spawn(async move {
                n.set(idx.range(&ep, 0, KEY_MAX - 1).await.unwrap().len());
            });
        }
        sim.run();
        assert_eq!(n.get(), 600);
    }

    use std::cell::Cell;
}
