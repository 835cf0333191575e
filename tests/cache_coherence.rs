//! Cache-coherence tests for the engine's client-side cache layer
//! (the optional `CacheLayer` part of an `Index`): a cached entry made stale by a
//! concurrent split must be *detected* (the fresh page's fence check
//! fails) and *invalidated*, never produce a wrong lookup — and a server
//! restart must flush the whole cache before any hit is served.
//!
//! Staleness here is only ever a too-far-LEFT route (splits move keys
//! right; leaves are never merged or reused), so the B-link sibling
//! chase corrects every stale hit; these tests pin that contract for
//! both cache policies — FG's inner-page cache and Hybrid's leaf-route
//! cache — and for the learned design's client-resident model, whose
//! stale predictions obey the same route-left discipline and whose
//! restart-epoch flush drops the whole model at once.

use namdex::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

const KEYS: u64 = 4_000;

fn cached_cfg() -> FgConfig {
    bounded_cfg(0) // unbounded
}

/// `capacity` entries per client. 4 000 keys on 256-byte pages make ~440
/// leaves under ~45 inner pages, so a capacity of [`SMALL`] evicts on
/// nearly every miss and eviction interleaves with whatever else the
/// scenario does.
fn bounded_cfg(capacity: usize) -> FgConfig {
    FgConfig {
        layout: PageLayout::new(256), // small pages: deep tree, easy splits
        fill: 0.7,
        scan_batch: 4,
        cache_capacity: Some(capacity),
    }
}

const SMALL: usize = 8;

fn cluster() -> (Sim, NamCluster) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    (sim, nam)
}

/// Warm `reader`'s cache with lookups, split a band of leaves out from
/// under it with `writer` inserts, then re-read through the (now stale)
/// cache. Returns the number of wrong lookups (must be 0).
fn stale_split_scenario(design: Design, nam: &NamCluster, sim: &Sim) -> u64 {
    let reader = Endpoint::new(&nam.rdma);
    let writer = Endpoint::new(&nam.rdma);

    // Phase 1: the reader warms its cache across the key space.
    {
        let design = design.clone();
        let ep = reader.clone();
        sim.spawn(async move {
            for i in (0..KEYS).step_by(8) {
                assert_eq!(design.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
    }
    sim.run();

    // Phase 2: a different client splits a band of leaves (fresh keys at
    // odd offsets). The reader's cached inner pages / routes still
    // describe the pre-split world.
    {
        let design = design.clone();
        let ep = writer.clone();
        sim.spawn(async move {
            for i in 1_000..1_600u64 {
                design.insert(&ep, i * 8 + 1, i).await.unwrap();
            }
        });
    }
    sim.run();

    // Phase 3: the reader re-reads the split band through its stale
    // cache. Every answer must be correct (stale hits self-correct via
    // the sibling chase) — a wrong result here is cache incoherence.
    let wrong = Rc::new(Cell::new(0u64));
    {
        let design = design.clone();
        let ep = reader.clone();
        let wrong = wrong.clone();
        sim.spawn(async move {
            for i in 1_000..1_600u64 {
                if design.lookup(&ep, i * 8 + 1).await.unwrap() != Some(i) {
                    wrong.set(wrong.get() + 1);
                }
                if design.lookup(&ep, i * 8).await.unwrap() != Some(i) {
                    wrong.set(wrong.get() + 1);
                }
            }
        });
    }
    sim.run();
    wrong.get()
}

#[test]
fn fg_stale_inner_page_is_detected_and_invalidated() {
    let (sim, nam) = cluster();
    let idx = FineGrained::build(&nam.rdma, cached_cfg(), (0..KEYS).map(|i| (i * 8, i)));
    let design = Design::Fg(idx);
    assert_eq!(stale_split_scenario(design.clone(), &nam, &sim), 0);
    let stats = design.cache_stats().expect("cache is attached");
    assert!(stats.hits > 0, "warmed cache must serve hits: {stats:?}");
    assert!(
        stats.invalidations > 0,
        "stale inner pages must be invalidated when detected: {stats:?}"
    );
}

#[test]
fn hybrid_stale_route_is_detected_and_invalidated() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let idx = Hybrid::build(&nam, cached_cfg(), partition, (0..KEYS).map(|i| (i * 8, i)));
    let design = Design::Hybrid(idx);
    assert_eq!(stale_split_scenario(design.clone(), &nam, &sim), 0);
    let stats = design.cache_stats().expect("cache is attached");
    assert!(
        stats.hits > 0,
        "warmed route cache must serve hits: {stats:?}"
    );
    assert!(
        stats.invalidations > 0,
        "stale leaf routes must be invalidated when detected: {stats:?}"
    );
}

/// The same scenario with a cache that cannot hold the reader's working
/// set: entries are evicted and reinstalled while the writer splits the
/// pages they describe. Answers stay correct and the bound holds for
/// both clients. (How many stale entries survive to be caught depends on
/// what the sweep kept, so invalidations are not asserted here.)
fn stale_split_under_eviction(
    design: Design,
    entries: impl Fn() -> usize,
    nam: &NamCluster,
    sim: &Sim,
) {
    assert_eq!(stale_split_scenario(design.clone(), nam, sim), 0);
    let stats = design.cache_stats().expect("cache is attached");
    assert!(stats.hits > 0, "{stats:?}");
    assert!(
        stats.misses > KEYS / 8,
        "the warm-up alone must overflow the cache: {stats:?}"
    );
    assert!(entries() <= 2 * SMALL, "reader + writer hold {}", entries());
}

#[test]
fn fg_stale_split_under_eviction() {
    let (sim, nam) = cluster();
    let items = (0..KEYS).map(|i| (i * 8, i));
    let idx = FineGrained::build(&nam.rdma, bounded_cfg(SMALL), items);
    let entries = || idx.cache().expect("cache is attached").entries();
    stale_split_under_eviction(Design::Fg(idx.clone()), entries, &nam, &sim);
}

#[test]
fn hybrid_stale_split_under_eviction() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let items = (0..KEYS).map(|i| (i * 8, i));
    let idx = Hybrid::build(&nam, bounded_cfg(SMALL), partition, items);
    let entries = || idx.cache().expect("cache is attached").entries();
    stale_split_under_eviction(Design::Hybrid(idx.clone()), entries, &nam, &sim);
}

/// Server restart invalidation: a crash/restart bumps the server's
/// restart epoch; the cache layer must flush *everything* before serving
/// another hit (remote state may have been rebuilt arbitrarily), and
/// lookups after the restart must still be correct.
fn restart_flush_scenario(design: Design, nam: &NamCluster, sim: &Sim) {
    let ep = Endpoint::new(&nam.rdma);

    // Warm the cache.
    {
        let design = design.clone();
        let ep = ep.clone();
        sim.spawn(async move {
            for i in (0..KEYS).step_by(4) {
                assert_eq!(design.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
    }
    sim.run();
    let warmed = design.cache_stats().expect("cache is attached");
    assert!(warmed.hits > 0, "cache must be warm before the restart");

    // Crash and immediately restart a server between operations (NAM
    // memory survives; the restart epoch is what matters to the cache).
    nam.rdma.fail_server(1);
    nam.rdma.restart_server(1);

    // Every post-restart answer must be correct, and the first access
    // must have flushed the cache rather than serve a pre-restart hit.
    {
        let design = design.clone();
        let ep = ep.clone();
        sim.spawn(async move {
            for i in (0..KEYS).step_by(4) {
                assert_eq!(design.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
    }
    sim.run();
    let stats = design.cache_stats().expect("cache is attached");
    assert!(
        stats.restart_flushes >= 1,
        "server restart must flush the client cache: {stats:?}"
    );
    assert!(
        stats.hits > warmed.hits,
        "cache must re-warm after the flush: {stats:?}"
    );
}

/// The learned design's analogue of a stale cache is a stale *model*:
/// its leaf table predates phase 2's splits, so phase-3 predictions
/// land at-or-left of the covering leaf and must self-correct through
/// the B-link chase (counted as mispredicts), never answer wrong. The
/// accumulated drift must also have triggered at least one retrain
/// beyond the one at build time.
#[test]
fn learned_stale_model_after_split_self_corrects() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let idx = Learned::build(&nam, cached_cfg(), partition, (0..KEYS).map(|i| (i * 8, i)));
    let design = Design::Learned(idx);
    assert_eq!(stale_split_scenario(design.clone(), &nam, &sim), 0);
    let stats = design.learned_stats().expect("learned design");
    assert!(stats.predictions > 0, "lookups must route via the model");
    assert!(
        stats.mispredicts > 0,
        "post-split predictions must be detected as stale: {stats:?}"
    );
    assert!(
        stats.retrains >= 2,
        "split drift must trigger retraining: {stats:?}"
    );
    assert_eq!(stats.fallbacks, 0, "model never vanished: {stats:?}");
}

/// Restart-epoch coherence for the model: a crash/restart bumps the
/// summed restart epoch, the next descent must drop the model wholesale
/// (like the cache layer's restart flush) and retrain it before serving
/// another prediction — with every post-restart answer correct.
#[test]
fn learned_model_flushes_on_server_restart() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let idx = Learned::build(&nam, cached_cfg(), partition, (0..KEYS).map(|i| (i * 8, i)));
    let design = Design::Learned(idx);
    let ep = Endpoint::new(&nam.rdma);

    // Warm the model's prediction counters.
    {
        let design = design.clone();
        let ep = ep.clone();
        sim.spawn(async move {
            for i in (0..KEYS).step_by(4) {
                assert_eq!(design.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
    }
    sim.run();
    let warmed = design.learned_stats().expect("learned design");
    assert!(warmed.predictions > 0, "model must be serving predictions");
    assert_eq!(warmed.epoch_flushes, 0);

    nam.rdma.fail_server(1);
    nam.rdma.restart_server(1);

    {
        let design = design.clone();
        let ep = ep.clone();
        sim.spawn(async move {
            for i in (0..KEYS).step_by(4) {
                assert_eq!(design.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
    }
    sim.run();
    let stats = design.learned_stats().expect("learned design");
    assert_eq!(
        stats.epoch_flushes, 1,
        "server restart must flush the model exactly once: {stats:?}"
    );
    assert!(
        stats.retrains > warmed.retrains,
        "flushed model must retrain before predicting again: {stats:?}"
    );
    assert!(
        stats.predictions > warmed.predictions,
        "model must serve predictions again after the flush: {stats:?}"
    );
}

/// Unbounded, and with a table whose hand is mid-sweep when the flush
/// empties it.
#[test]
fn fg_cache_flushes_on_server_restart() {
    for capacity in [0, SMALL] {
        let (sim, nam) = cluster();
        let items = (0..KEYS).map(|i| (i * 8, i));
        let idx = FineGrained::build(&nam.rdma, bounded_cfg(capacity), items);
        restart_flush_scenario(Design::Fg(idx), &nam, &sim);
    }
}

#[test]
fn hybrid_cache_flushes_on_server_restart() {
    for capacity in [0, SMALL] {
        let (sim, nam) = cluster();
        let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
        let items = (0..KEYS).map(|i| (i * 8, i));
        let idx = Hybrid::build(&nam, bounded_cfg(capacity), partition, items);
        restart_flush_scenario(Design::Hybrid(idx), &nam, &sim);
    }
}

/// Which pages a full cache gives up must not depend on where they live.
/// The fine-grained design scatters its nodes round-robin over the memory
/// servers, so with a cache far smaller than the inner level the misses —
/// and with them the one-sided READs — spread evenly. (A rule ordered by
/// remote address, whose top bits are the server id, gives up one
/// server's pages first and sends that server most of the READs.)
#[test]
fn bounded_cache_spreads_reads_over_all_servers() {
    use namdex::sim::rng::{DetRng, Zipf};
    const N: u64 = 20_000; // ~280 inner pages of 256 bytes
    let (sim, nam) = cluster();
    let idx = FineGrained::build(&nam.rdma, bounded_cfg(32), (0..N).map(|i| (i * 8, i)));
    let zipf = Zipf::new(N, Zipf::YCSB_THETA);
    for client in 0..8u64 {
        let (idx, zipf) = (idx.clone(), zipf.clone());
        let ep = Endpoint::new(&nam.rdma);
        let mut rng = DetRng::seed_from_u64(client);
        sim.spawn(async move {
            for _ in 0..2_000 {
                let i = zipf.sample_scrambled(&mut rng);
                assert_eq!(idx.lookup(&ep, i * 8).await.unwrap(), Some(i));
            }
        });
    }
    sim.run();
    let reads: Vec<u64> = (0..nam.num_servers())
        .map(|s| nam.rdma.server_stats(s).onesided_ops)
        .collect();
    let total: u64 = reads.iter().sum();
    for (server, &n) in reads.iter().enumerate() {
        assert!(
            n * 100 <= total * 40,
            "server {server} serves {n} of {total} READs: {reads:?}"
        );
    }
}

/// Cached behaviour as a golden, written and pinned at the commit before
/// cached frames became shared: who hits, who misses, what is invalidated
/// and flushed, and every verb and simulator event that follows from it
/// are a function of each client's *logical* cache alone, so they must not
/// move when the bytes behind the entries change owner. Twelve clients
/// run Zipfian lookups with 6 % inserts into one key band — leaves and
/// their inner parents split, so `drop_page`, `note_split`, stale hits
/// and re-installs of a changed inner page all occur — over a cache that
/// holds most of the inner level, one that evicts on nearly every miss
/// and an unbounded one, with a server restart (the flush) half way.
/// Re-pinned when a commit's write-back and unlock became one round: an
/// insert then ends a round trip sooner, which moves every interleaving.
#[test]
fn cached_cells_are_pinned() {
    use namdex::sim::rng::{DetRng, Zipf};
    const N: u64 = 60_000; // ~840 inner pages of 256 bytes
    const CLIENTS: u64 = 12;
    const OPS: u64 = 3_000; // per client and phase
    const BAND: u64 = 8_000; // first loaded key of the insert band
    const WIDTH: u64 = 300;
    let cell = |kind: IndexKind, capacity: usize| {
        let (sim, nam) = cluster();
        let partition = PartitionMap::range_uniform(nam.num_servers(), N * 8);
        let items = (0..N).map(|i| (i * 8, i));
        let design = Design::build(kind, &nam, bounded_cfg(capacity), partition, items);
        let zipf = Zipf::new(N, Zipf::YCSB_THETA);
        let ok = Rc::new(Cell::new(0u64));
        let eps: Vec<Endpoint> = (0..CLIENTS).map(|_| Endpoint::new(&nam.rdma)).collect();
        for phase in 0..2u64 {
            for (client, ep) in (0..CLIENTS).zip(&eps) {
                let (design, zipf, ok, ep) = (design.clone(), zipf.clone(), ok.clone(), ep.clone());
                let mut rng = DetRng::seed_from_u64(phase * CLIENTS + client);
                sim.spawn(async move {
                    let mut fresh = (phase * CLIENTS + client) * OPS;
                    for _ in 0..OPS {
                        let done = match rng.next_u64_below(100) {
                            0..6 => {
                                fresh += 1;
                                let key = (BAND + fresh % WIDTH) * 8 + 1 + fresh / WIDTH % 7;
                                design.insert(&ep, key, fresh).await.is_ok()
                            }
                            6..30 => {
                                let i = BAND + rng.next_u64_below(WIDTH);
                                design.lookup(&ep, i * 8).await == Ok(Some(i))
                            }
                            _ => {
                                let i = zipf.sample_scrambled(&mut rng);
                                design.lookup(&ep, i * 8).await == Ok(Some(i))
                            }
                        };
                        ok.set(ok.get() + u64::from(done));
                    }
                });
            }
            sim.run();
            if phase == 0 {
                nam.rdma.fail_server(1);
                nam.rdma.restart_server(1);
            }
        }
        let stats = design.cache_stats().expect("cache is attached");
        assert_eq!(ok.get(), 2 * CLIENTS * OPS, "every operation succeeds");
        assert!(stats.invalidations > 0, "stale entries were met: {stats:?}");
        assert_eq!(stats.restart_flushes, 1, "{stats:?}");
        let mut words = vec![
            stats.hits,
            stats.misses,
            stats.invalidations,
            stats.restart_flushes,
            ok.get(),
            sim.events_processed(),
        ];
        for s in nam.rdma.all_stats() {
            words.extend([s.onesided_ops, s.rpcs]);
        }
        let digest = words.iter().fold(0xcbf29ce484222325u64, |h, w| {
            (h ^ w).wrapping_mul(0x100000001b3)
        });
        (stats.hits, stats.misses, digest)
    };
    // (design, capacity, hits, misses, digest)
    let want = [
        (
            IndexKind::FineGrained,
            256,
            325_772,
            135_220,
            0x6132a162b13c56a4u64,
        ),
        (
            IndexKind::FineGrained,
            SMALL,
            163_683,
            268_471,
            0xad2cc8bd24c81bb0,
        ),
        (
            IndexKind::FineGrained,
            0,
            341_594,
            119_698,
            0x8eb12b6c976122af,
        ),
        (IndexKind::Hybrid, 256, 29_417, 42_583, 0x47c629ce27a88876),
        (IndexKind::Hybrid, SMALL, 3_905, 68_095, 0x017810547217d801),
        (IndexKind::Hybrid, 0, 38_690, 33_310, 0xc9a7d08e72843039),
    ];
    for (kind, capacity, hits, misses, digest) in want {
        let got = cell(kind, capacity);
        assert_eq!(
            got,
            (hits, misses, digest),
            "{kind:?} capacity {capacity}: digest {:#018x}",
            got.2
        );
    }
}
