//! Allocation-count regression gate for the zero-copy hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup phase has populated the `BufArena` free lists and grown every
//! executor structure (timing-wheel slot vectors, ready queue, arena
//! bins) to steady capacity, a window of fine-grained point lookups
//! must perform **zero** heap allocations — the property the PageBuf
//! arena exists to provide (DESIGN.md §17). A regression that
//! reintroduces a per-verb `Vec` shows up here as an exact count, not a
//! profile hunch. With the client cache on, allocation is per distinct
//! page content, never per client or per lookup: a hit takes a reference
//! to the cached frame, a miss whose READ matches the interned frame takes
//! one too, and only the first install of a page's bytes allocates — so
//! once every inner page has been READ the window is zero again, and the
//! whole run allocates no more frames than the tree has inner pages.
//! An installed observer adds nothing: the bus walks its list in place,
//! so the same window with a no-op observer is zero too.
//! A range scan cannot be allocation-free — its result is a `Vec` — but it
//! sizes that `Vec` once, from the first leaf's key density (DESIGN.md
//! §17.2): one large allocation per scan, no growth steps.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide; it counts per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use blink::node::InnerNodeRef;
use namdex_core::{FgConfig, FineGrained, Index, Learned};
use rdma_sim::{ClusterSpec, Endpoint, RemotePtr, VerbEvent, VerbObserver};
use simnet::rng::{DetRng, Zipf};
use simnet::Sim;

struct CountingAlloc;

// Per thread: the simulation runs on the thread of its test, and the
// test harness runs the tests of this file, and prints their results,
// on other threads at the same time.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Size of the last allocation, and how many had the size in
    /// `FRAME_BYTES` (none while that is 0).
    static LAST_BYTES: Cell<usize> = const { Cell::new(0) };
    static FRAME_BYTES: Cell<usize> = const { Cell::new(0) };
    static FRAME_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Counted allocations of at least `LARGE` bytes.
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Half the bytes of a 1 000-row result: a vector that doubles its way
/// there asks for this much, and then for all of it.
const LARGE: usize = 8 << 10;

fn count(bytes: usize) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        if bytes >= LARGE {
            LARGE_ALLOCS.set(LARGE_ALLOCS.get() + 1);
        }
    }
    LAST_BYTES.set(bytes);
    if bytes == FRAME_BYTES.get() {
        FRAME_ALLOCS.set(FRAME_ALLOCS.get() + 1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An observer that ignores every event: what remains is the bus's own
/// cost.
struct NoOp;

impl VerbObserver for NoOp {
    fn on_verb(&self, _ev: &VerbEvent) {}
}

/// Heap allocations made by the last 500 one-client point lookups of
/// keys from `next_key` on a fine-grained index over `data`, after
/// `warmup` others, with a [`NoOp`] observer on the bus if `observed`.
/// The warm-up fills the arena free lists and the client cache, and
/// grows every executor container (wheel slots, ready queue) to steady
/// capacity. Also returns how many allocations of the whole run had the
/// size of a cached page's frame, and the index.
fn allocations_in_window(
    data: ycsb::Dataset,
    cfg: FgConfig,
    warmup: u64,
    observed: bool,
    mut next_key: impl FnMut() -> u64 + 'static,
) -> (u64, u64, Rc<Index>) {
    let sim = Sim::new();
    let nam = namdex_core::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    nam.rdma.set_active_clients(1);
    if observed {
        nam.rdma.add_observer(Rc::new(NoOp));
    }
    let fg = FineGrained::build(&nam.rdma, cfg, data.iter());
    // What a frame asks of the allocator, observed rather than assumed.
    let probe: Rc<[u8]> = Rc::from(&*cfg.layout.alloc_page());
    FRAME_BYTES.set(LAST_BYTES.get());
    drop(probe);
    FRAME_ALLOCS.set(0);
    let cluster = nam.rdma.clone();
    let index = fg.clone();
    sim.spawn(async move {
        let ep = Endpoint::new(&cluster);
        for _ in 0..warmup {
            index.lookup(&ep, next_key()).await.expect("warmup lookup");
        }
        ALLOCS.set(0);
        COUNTING.set(true);
        for _ in 0..500 {
            index
                .lookup(&ep, next_key())
                .await
                .expect("measured lookup");
        }
        COUNTING.set(false);
    });
    sim.run();
    FRAME_BYTES.set(0);
    (ALLOCS.get(), FRAME_ALLOCS.get(), fg)
}

/// Pages above the leaves: every level walked along its sibling chain.
fn inner_pages(index: &Index) -> u64 {
    let src = index.setup_source();
    let mut leftmost = index.root().expect("remote inner levels");
    let mut pages = 0;
    loop {
        let mut cur = leftmost;
        while !cur.is_null() {
            pages += 1;
            cur = RemotePtr::from_page_ptr(InnerNodeRef::new(&src.load(cur)).right_sibling());
        }
        let page = src.load(leftmost);
        let node = InnerNodeRef::new(&page);
        if node.level() == 1 {
            return pages;
        }
        leftmost = RemotePtr::from_page_ptr(node.entry(0).1);
    }
}

/// Allocations in the uncached fine-grained lookup window.
fn fg_lookup_window(observed: bool) -> u64 {
    let data = ycsb::Dataset::new(20_000);
    let cfg = FgConfig {
        layout: blink::PageLayout::default(),
        fill: 0.7,
        scan_batch: 8,
        cache_capacity: None,
    };
    let domain = data.domain();
    let mut key = 1u64;
    let next = move || {
        key = key
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        key % domain
    };
    allocations_in_window(data, cfg, 1_000, observed, next).0
}

#[test]
fn steady_state_fg_lookups_allocate_nothing() {
    assert_eq!(
        fg_lookup_window(false),
        0,
        "steady-state fine-grained lookups must perform zero heap allocations"
    );
}

/// Every verb, fence and region crosses the bus; none may allocate.
#[test]
fn observed_steady_state_fg_lookups_allocate_nothing() {
    assert_eq!(
        fg_lookup_window(true),
        0,
        "an installed observer must not make the bus allocate per event"
    );
}

/// 20 000 keys on 256-byte pages sit under ~280 inner pages; the client
/// caches 32 of them and the keys are Zipfian, so the window holds hits,
/// misses and evictions. The warm-up first passes over the key domain, so
/// every inner page has been READ — and its frame interned — once.
#[test]
fn steady_state_cached_fg_lookups_allocate_per_page_content_only() {
    let data = ycsb::Dataset::new(20_000);
    let cfg = FgConfig {
        layout: blink::PageLayout::new(256),
        fill: 0.7,
        scan_batch: 8,
        cache_capacity: Some(32),
    };
    let zipf = Zipf::new(data.num_keys, Zipf::YCSB_THETA);
    let mut rng = DetRng::seed_from_u64(42);
    let mut pass = 0..data.num_keys;
    let next = move || {
        data.key(
            pass.next()
                .unwrap_or_else(|| zipf.sample_scrambled(&mut rng)),
        )
    };
    let lookups = data.num_keys + 1_500;
    let (allocs, frames, fg) = allocations_in_window(data, cfg, lookups - 500, false, next);
    let stats = fg.cache().expect("cache is attached").stats();
    // Every lookup counts its leaf load as a miss, so more misses than
    // lookups means inner pages were evicted and read again.
    assert!(stats.hits > 0 && stats.misses > lookups, "{stats:?}");
    assert_eq!(
        allocs, 0,
        "steady-state cached lookups — hit, miss and evict — must perform zero heap allocations"
    );
    let inner = inner_pages(&fg);
    assert!(
        (1..=inner).contains(&frames),
        "{frames} frames allocated for {inner} inner pages over {} misses",
        stats.misses
    );
}

/// Heap allocations made while building a learned index over `n` keys.
fn learned_build_allocations(n: u64) -> u64 {
    let sim = Sim::new();
    let nam = namdex_core::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    let data = ycsb::Dataset::new(n);
    let partition = namdex_core::PartitionMap::range_uniform(4, data.domain());
    ALLOCS.set(0);
    COUNTING.set(true);
    let index = Learned::build(&nam, FgConfig::default(), partition, data.iter());
    COUNTING.set(false);
    let model = index.router().and_then(|r| r.model()).expect("trained");
    let leaves = model.table().len();
    assert!(leaves as u64 > n / 61, "{n} keys, {leaves} leaves");
    ALLOCS.get()
}

/// Building a learned index allocates per structure, not per page: its
/// first model trains from the table the loader keeps of the leaves it
/// wrote. Reading that chain back made one allocation per chain page
/// (measured: 632 → 5 497 from 20 000 keys to 200 000). What is left
/// grows only by the doublings of a dozen growing buffers (88 → 128).
#[test]
fn learned_build_allocations_do_not_grow_with_the_pages() {
    const DOUBLINGS: u64 = 64;
    let (small, large) = (
        learned_build_allocations(20_000),
        learned_build_allocations(200_000),
    );
    assert!(
        large <= small + DOUBLINGS,
        "{small} allocations to build over 20 000 keys, {large} over 200 000"
    );
}

/// 1 000-row scans from 64 places in 60 000 evenly spaced keys: ~24
/// leaves in three or four `scan_batch` batches each, named by the
/// level-1 page the descent stops at, which the plan reads in place.
/// Once the arena holds a batch's buffers, a scan allocates its result
/// exactly once — the one large allocation it makes — and what is left
/// is small: each READ batch (its messages, their queue waits and its
/// buffer list), its prefetch map and one request buffer the batches
/// share.
#[test]
fn steady_state_fg_scans_allocate_their_result_once() {
    /// Measured: 14.6 a scan (16.8 while heads named the groups, each
    /// collected into a pointer list). A result that doubled its way
    /// from 4 rows to 1 024 made 8 more per scan, two of them large.
    const WINDOW_ALLOCS: u64 = 936;
    const ROWS: u64 = 1_000;
    const SCANS: u64 = 64;
    let data = ycsb::Dataset::new(60_000);
    let cfg = FgConfig {
        layout: blink::PageLayout::default(),
        fill: 0.7,
        scan_batch: 8,
        cache_capacity: None,
    };
    let sim = Sim::new();
    let nam = namdex_core::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    nam.rdma.set_active_clients(1);
    let index = FineGrained::build(&nam.rdma, cfg, data.iter());
    let cluster = nam.rdma.clone();
    sim.spawn(async move {
        let ep = Endpoint::new(&cluster);
        let scan = |i: u64| {
            let first = (i * 7_919) % (data.num_keys - ROWS);
            (data.key(first), data.key(first + ROWS - 1))
        };
        for i in 0..SCANS {
            let (lo, hi) = scan(i);
            index.range(&ep, lo, hi).await.expect("warm-up scan");
        }
        ALLOCS.set(0);
        LARGE_ALLOCS.set(0);
        COUNTING.set(true);
        for i in SCANS..2 * SCANS {
            let (lo, hi) = scan(i);
            let rows = index.range(&ep, lo, hi).await.expect("measured scan");
            assert_eq!(rows.len() as u64, ROWS);
        }
        COUNTING.set(false);
    });
    sim.run();
    assert_eq!(
        LARGE_ALLOCS.get(),
        SCANS,
        "a scan's result must be allocated once, at its final size"
    );
    assert!(
        ALLOCS.get() <= WINDOW_ALLOCS,
        "{} allocations in {SCANS} scans, were {WINDOW_ALLOCS}",
        ALLOCS.get()
    );
}

/// The same scans over a learned index: the model names every leaf, so
/// a scan READs them in `scan_batch` batches. Its result is
/// still allocated once, at its final size, and the plan allocates
/// nothing — it is a slice of the model's table, held through an `Rc`
/// clone — so what is left is each READ batch's messages, queue waits
/// and buffer list and its prefetch-map nodes, as for FG, and one
/// request buffer the batches share.
#[test]
fn steady_state_learned_scans_allocate_their_result_once() {
    /// Measured: 14.2 a scan.
    const WINDOW_ALLOCS: u64 = 909;
    const ROWS: u64 = 1_000;
    const SCANS: u64 = 64;
    let data = ycsb::Dataset::new(60_000);
    let sim = Sim::new();
    let nam = namdex_core::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    nam.rdma.set_active_clients(1);
    let partition = namdex_core::PartitionMap::range_uniform(4, data.domain());
    let index = Learned::build(&nam, FgConfig::default(), partition, data.iter());
    let cluster = nam.rdma.clone();
    sim.spawn(async move {
        let ep = Endpoint::new(&cluster);
        let scan = |i: u64| {
            let first = (i * 7_919) % (data.num_keys - ROWS);
            (data.key(first), data.key(first + ROWS - 1))
        };
        for i in 0..SCANS {
            let (lo, hi) = scan(i);
            index.range(&ep, lo, hi).await.expect("warm-up scan");
        }
        ALLOCS.set(0);
        LARGE_ALLOCS.set(0);
        COUNTING.set(true);
        for i in SCANS..2 * SCANS {
            let (lo, hi) = scan(i);
            let rows = index.range(&ep, lo, hi).await.expect("measured scan");
            assert_eq!(rows.len() as u64, ROWS);
        }
        COUNTING.set(false);
        let stats = index.router().expect("a router").stats();
        assert_eq!((stats.mispredicts, stats.fallbacks), (0, 0), "{stats:?}");
    });
    sim.run();
    assert_eq!(
        LARGE_ALLOCS.get(),
        SCANS,
        "a scan's result must be allocated once, at its final size"
    );
    assert!(
        ALLOCS.get() <= WINDOW_ALLOCS,
        "{} allocations in {SCANS} scans, were {WINDOW_ALLOCS}",
        ALLOCS.get()
    );
}

/// Heap allocations made by 500 one-client inserts of fresh keys into a
/// fine-grained index over 20 000 keys, after 1 000 others: descents,
/// lock CASes and write-back and unlock pairs, three or so inserts per
/// leaf, so no split. The pair's queue waits live on the stack and its
/// WAL records are built only under `Durability::Wal`, so a commit
/// allocates nothing; what is counted is one vector per insert, the
/// descent path a split would propagate along.
#[test]
fn steady_state_fg_inserts_allocate_no_more_than_measured() {
    /// Measured while the write-back and the unlock were two verbs, and
    /// since: one per insert.
    const WINDOW_ALLOCS: u64 = 500;
    let data = ycsb::Dataset::new(20_000);
    let cfg = FgConfig {
        layout: blink::PageLayout::default(),
        fill: 0.7,
        scan_batch: 8,
        cache_capacity: None,
    };
    let sim = Sim::new();
    let nam = namdex_core::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    nam.rdma.set_active_clients(1);
    let index = FineGrained::build(&nam.rdma, cfg, data.iter());
    let cluster = nam.rdma.clone();
    sim.spawn(async move {
        let ep = Endpoint::new(&cluster);
        // Distinct loaded keys in a scattered order (7 919 is prime to
        // the key count), each plus one: every insert is fresh.
        let key = |n: u64| data.key(n * 7_919 % data.num_keys) + 1;
        for n in 0..1_000 {
            index
                .insert(&ep, key(n), n, false)
                .await
                .expect("warm-up insert");
        }
        ALLOCS.set(0);
        COUNTING.set(true);
        for n in 1_000..1_500 {
            index
                .insert(&ep, key(n), n, false)
                .await
                .expect("measured insert");
        }
        COUNTING.set(false);
    });
    sim.run();
    assert!(
        ALLOCS.get() <= WINDOW_ALLOCS,
        "{} allocations in 500 inserts, were {WINDOW_ALLOCS}",
        ALLOCS.get()
    );
}
