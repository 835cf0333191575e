//! Allocation-count regression gate for the zero-copy hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup phase has populated the `BufArena` free lists and grown every
//! executor structure (timing-wheel slot vectors, ready queue, arena
//! bins) to steady capacity, a window of fine-grained point lookups
//! must perform **zero** heap allocations — the property the PageBuf
//! arena exists to provide (DESIGN.md §17). A regression that
//! reintroduces a per-verb `Vec` shows up here as an exact count, not a
//! profile hunch. The same holds with the client cache on: a hit copies
//! the cached frame into an arena buffer, a miss copies the READ's bytes
//! into the evicted entry's frame, and neither allocates.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide; it counts per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use namdex_core::{CacheStats, FgConfig, FineGrained};
use rdma_sim::{ClusterSpec, Endpoint};
use simnet::rng::{DetRng, Zipf};
use simnet::Sim;

struct CountingAlloc;

// Per thread: the simulation runs on the thread of its test, and the
// test harness runs the tests of this file, and prints their results,
// on other threads at the same time.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the last 500 of 1 500 one-client point
/// lookups of keys from `next_key` on a fine-grained index over `data`.
/// The first 1 000 fill the arena free lists and the client cache, and
/// grow every executor container (wheel slots, ready queue) to steady
/// capacity. Also returns the cache's counters over the whole run.
fn allocations_in_window(
    data: ycsb::Dataset,
    cfg: FgConfig,
    mut next_key: impl FnMut() -> u64 + 'static,
) -> (u64, Option<CacheStats>) {
    let sim = Sim::new();
    let nam = nam::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    nam.rdma.set_active_clients(1);
    let fg = FineGrained::build(&nam.rdma, cfg, data.iter());
    let cluster = nam.rdma.clone();
    let index = fg.clone();
    sim.spawn(async move {
        let ep = Endpoint::new(&cluster);
        for _ in 0..1_000 {
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
    (ALLOCS.get(), fg.cache().map(|c| c.stats()))
}

#[test]
fn steady_state_fg_lookups_allocate_nothing() {
    let data = ycsb::Dataset::new(20_000);
    let cfg = FgConfig {
        layout: blink::PageLayout::default(),
        fill: 0.7,
        head_stride: 8,
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
    let (allocs, _) = allocations_in_window(data, cfg, next);
    assert_eq!(
        allocs, 0,
        "steady-state fine-grained lookups must perform zero heap allocations"
    );
}

/// 20 000 keys on 256-byte pages sit under ~280 inner pages; the client
/// caches 32 of them and the keys are Zipfian, so the window holds hits,
/// misses and evictions.
#[test]
fn steady_state_cached_fg_lookups_allocate_nothing() {
    let data = ycsb::Dataset::new(20_000);
    let cfg = FgConfig {
        layout: blink::PageLayout::new(256),
        fill: 0.7,
        head_stride: 8,
        cache_capacity: Some(32),
    };
    let zipf = Zipf::new(data.num_keys, Zipf::YCSB_THETA);
    let mut rng = DetRng::seed_from_u64(42);
    let next = move || data.key(zipf.sample_scrambled(&mut rng));
    let (allocs, stats) = allocations_in_window(data, cfg, next);
    let stats = stats.expect("cache is attached");
    // Every lookup counts its leaf load as a miss, so more misses than
    // lookups means inner pages were evicted and read again.
    assert!(stats.hits > 0 && stats.misses > 1_500, "{stats:?}");
    assert_eq!(
        allocs, 0,
        "steady-state cached lookups — hit, miss and evict — must perform zero heap allocations"
    );
}
