//! The scattered leaf chain (§4, shared by designs 2–4) and the remotely
//! stored inner levels the fine-grained design builds over it.
//!
//! Leaves are scattered round-robin across all memory servers and
//! connected by 8-byte remote pointers; compute servers read them with
//! one-sided READs and update them with CAS / WRITE / FETCH_AND_ADD —
//! memory-server CPUs are never involved (Listing 2 + Listing 4). The
//! traversal/SMO protocol itself lives in [`crate::engine`]; this module
//! is the part an [`Index`](crate::Index) *has*: the memory pools as
//! the sink [`blink::load`] builds the leaf level (and, for a remote
//! upper level, the inner levels) into, and the round-robin placement
//! cursor load and split pages are drawn from.
//!
//! The chain is only leaves. A range scan prefetches the leaves the node
//! above them names — a level-1 page, a local upper level's reply, a
//! model — `scan_batch` leaves to a READ batch ([`crate::engine`]), one
//! READ per run of leaves that abut in one server's pool, where
//! the paper's §4.3 interposes *head nodes* listing each group of
//! leaves; the sibling pointers carry it past anything that plan did
//! not name (a concurrent split).
//!
//! Cost profile (Table 2): every level costs a round trip, so point
//! lookups over remote inner levels move `H·P` bytes; but the aggregated
//! bandwidth of *all* memory servers is available regardless of skew —
//! throughput scales with memory servers for every workload (Fig. 3,
//! Fig. 11).

use std::cell::Cell;

use blink::load::{LeafLevel, Loader, PageSink};
use blink::{Key, PageLayout, Ptr, Value};
use rdma_sim::{Cluster, RemotePtr};

/// Construction parameters of an index: page geometry and fill for
/// every part, plus a scan's READ batch and the client cache size.
#[derive(Clone, Copy, Debug)]
pub struct FgConfig {
    /// Page geometry.
    pub layout: PageLayout,
    /// Bulk-load fill factor in `(0, 1]`.
    pub fill: f64,
    /// The number of planned leaves a scan READs in one batch (one when
    /// `0`). The default, 64, posts a bulk-loaded level-1 page's whole
    /// plan in one round; what bounds it is each server's READ clearing
    /// its port queue within `VERB_TIMEOUT` (DESIGN.md §15).
    pub scan_batch: usize,
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
            scan_batch: 64,
            cache_capacity: None,
        }
    }
}

/// The scattered leaf chain an index has (every design but the
/// coarse-grained one).
pub struct Chain {
    /// The leftmost leaf: every split keeps its left half in place, so
    /// it never changes.
    first: RemotePtr,
    /// Round-robin cursor for new-page placement: setup-path loads and
    /// timed split-page allocation both draw from it.
    alloc_rr: Cell<usize>,
    pub(crate) scan_batch: usize,
}

/// The memory pools as a bulk-load sink: pages placed round-robin from
/// a chain's cursor and built in pool memory, untimed (setup path).
struct PoolPages<'a> {
    chain: &'a Chain,
    cluster: &'a Cluster,
    layout: PageLayout,
}

impl PageSink for PoolPages<'_> {
    fn alloc(&mut self) -> Ptr {
        let s = self.chain.next_server(self.cluster);
        let size = self.layout.page_size() as u64;
        self.cluster.setup_alloc(s, size).as_page_ptr()
    }

    fn with_page(&mut self, ptr: Ptr, f: impl FnOnce(&mut [u8])) {
        let ptr = RemotePtr::from_page_ptr(ptr);
        self.cluster.setup_page(ptr, self.layout.page_size(), f)
    }
}

impl Chain {
    /// Start of the leaf chain: the leftmost leaf.
    pub fn first(&self) -> RemotePtr {
        self.first
    }

    /// The server the next new page goes to (and advance the cursor).
    pub(crate) fn next_server(&self, cluster: &Cluster) -> usize {
        let s = self.alloc_rr.get();
        self.alloc_rr.set((s + 1) % cluster.num_servers());
        s
    }

    fn pages<'a>(&'a self, cluster: &'a Cluster, layout: PageLayout) -> PoolPages<'a> {
        PoolPages {
            chain: self,
            cluster,
            layout,
        }
    }

    /// Build the remote leaf chain as `items` (sorted by key) stream
    /// past: leaves filled to `fill`, scattered round-robin, linked by
    /// remote pointers. Setup path (untimed). Also returns the leaf level
    /// — what the upper level is built over.
    pub(crate) fn load(
        cluster: &Cluster,
        cfg: &FgConfig,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> (Chain, LeafLevel) {
        let mut chain = Chain {
            first: RemotePtr::NULL,
            alloc_rr: Cell::new(0),
            scan_batch: cfg.scan_batch,
        };
        let pages = chain.pages(cluster, cfg.layout);
        let mut loader = Loader::new(pages, cfg.layout, cfg.fill);
        for (key, value) in items {
            loader.push(key, value);
        }
        let (_, level) = loader.finish();
        chain.first = RemotePtr::from_page_ptr(level.leaves[0].1);
        (chain, level)
    }

    /// Build remotely stored inner levels bottom-up over the leaf level,
    /// continuing the chain's round-robin placement; returns the root
    /// pointer. Setup path (untimed).
    pub(crate) fn load_upper(
        &self,
        cluster: &Cluster,
        layout: PageLayout,
        level: LeafLevel,
    ) -> RemotePtr {
        let (root, _height) = level.inner_levels(&mut self.pages(cluster, layout));
        RemotePtr::from_page_ptr(root)
    }
}

/// The small-page configuration the unit tests share: 10 entries per
/// node, so a few hundred keys already give a multi-level tree.
#[cfg(test)]
pub(crate) fn small_cfg() -> FgConfig {
    FgConfig {
        layout: PageLayout::new(200),
        fill: 0.7,
        scan_batch: 4,
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

    /// Bulk load streams: leaves are allocated (and written) as the
    /// input goes by, never after it has been collected.
    #[test]
    fn load_streams_its_input() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let cfg = small_cfg();
        let per_leaf = 7; // 10 entries per page at fill 0.7
        let pulled = Cell::new(0u64);
        let items = (0..2000u64).map(|i| {
            let bytes: u64 = (0..cluster.num_servers())
                .map(|s| cluster.with_pool(s, |p| p.allocated() - 8))
                .sum();
            let pages = bytes / cfg.layout.page_size() as u64;
            assert!(
                pages + 1 >= i / per_leaf,
                "item {i} pulled with only {pages} pages allocated"
            );
            pulled.set(i + 1);
            (i * 8, i)
        });
        let (_chain, level) = Chain::load(&cluster, &cfg, items);
        assert_eq!(pulled.get(), 2000);
        assert_eq!(level.leaves.len(), 2000usize.div_ceil(per_leaf as usize));
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
    fn range_with_batched_reads() {
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
    fn range_with_single_reads_matches() {
        let sim = Sim::new();
        let cfg = FgConfig {
            scan_batch: 0,
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

    use std::cell::Cell;
}
