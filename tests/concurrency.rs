//! Concurrency torture tests: many clients mutate one index while
//! others read and scan; everything inserted must be found, B-link
//! invariants must hold under interleaved splits, and epoch GC must run
//! safely alongside readers.

use namdex::index::gc;
use namdex::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

fn cluster() -> (Sim, NamCluster) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    (sim, nam)
}

/// Arm the protocol checker over the torture run; [`finish_checked`]
/// then requires a clean verdict.
fn arm_checker(nam: &NamCluster, design: &Design) -> Rc<Racecheck> {
    let race = Racecheck::install(&nam.rdma, design.index().layout().page_size());
    namdex::racecheck::walk::register_design(&race, design);
    race
}

fn finish_checked(race: &Racecheck, design: &Design) {
    assert_eq!(race.check_structure(design), 0, "structural walk");
    race.assert_clean();
}

fn small_fg_cfg() -> FgConfig {
    FgConfig {
        layout: PageLayout::new(256), // 13 entries/node: deep trees, many splits
        fill: 0.7,
        scan_batch: 4,
        cache_capacity: None,
    }
}

#[test]
fn fg_concurrent_writers_and_readers() {
    let (sim, nam) = cluster();
    let idx = FineGrained::build(&nam.rdma, small_fg_cfg(), (0..2_000u64).map(|i| (i * 8, i)));
    let design = Design::Fg(idx.clone());
    let race = arm_checker(&nam, &design);
    const WRITERS: u64 = 10;
    const PER: u64 = 80;

    // Writers insert disjoint fresh keys, forcing splits at every level.
    for w in 0..WRITERS {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..PER {
                idx.insert(&ep, (i * WRITERS + w) * 16 + 1, w * 1_000 + i, false)
                    .await
                    .unwrap();
            }
        });
    }
    // Readers hammer lookups and scans the whole time.
    let read_errs = Rc::new(Cell::new(0u32));
    for r in 0..6u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        let errs = read_errs.clone();
        sim.spawn(async move {
            for i in 0..60u64 {
                let key = ((i * 37 + r * 11) % 2_000) * 8;
                if idx.lookup(&ep, key).await.unwrap() != Some(key / 8) {
                    errs.set(errs.get() + 1);
                }
                if i % 10 == 0 {
                    let rows = idx.range(&ep, key, key + 50 * 8).await.unwrap();
                    if rows.is_empty() {
                        errs.set(errs.get() + 1);
                    }
                }
            }
        });
    }
    sim.run();
    assert_eq!(
        read_errs.get(),
        0,
        "loaded keys must stay visible throughout"
    );

    // Every insert must be found afterwards.
    let ok = Rc::new(Cell::new(0u64));
    {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        let ok = ok.clone();
        sim.spawn(async move {
            for w in 0..WRITERS {
                for i in 0..PER {
                    if idx.lookup(&ep, (i * WRITERS + w) * 16 + 1).await.unwrap()
                        == Some(w * 1_000 + i)
                    {
                        ok.set(ok.get() + 1);
                    }
                }
            }
            // Full scan sees loaded + inserted entries exactly once.
            let rows = idx.range(&ep, 0, u64::MAX - 1).await.unwrap();
            assert_eq!(rows.len() as u64, 2_000 + WRITERS * PER);
        });
    }
    sim.run();
    assert_eq!(ok.get(), WRITERS * PER);
    finish_checked(&race, &design);
}

#[test]
fn hybrid_concurrent_writers_and_readers() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), 2_000 * 8);
    let idx = Hybrid::build(
        &nam,
        small_fg_cfg(),
        partition,
        (0..2_000u64).map(|i| (i * 8, i)),
    );
    let design = Design::Hybrid(idx.clone());
    let race = arm_checker(&nam, &design);
    const WRITERS: u64 = 8;
    const PER: u64 = 60;
    for w in 0..WRITERS {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..PER {
                idx.insert(&ep, (i * WRITERS + w) * 16 + 3, w * 1_000 + i, false)
                    .await
                    .unwrap();
            }
        });
    }
    for r in 0..4u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..50u64 {
                let key = ((i * 41 + r * 13) % 2_000) * 8;
                assert_eq!(idx.lookup(&ep, key).await.unwrap(), Some(key / 8));
            }
        });
    }
    sim.run();
    let ep = Endpoint::new(&nam.rdma);
    let idx2 = idx.clone();
    sim.spawn(async move {
        let rows = idx2.range(&ep, 0, u64::MAX - 1).await.unwrap();
        assert_eq!(rows.len() as u64, 2_000 + WRITERS * PER);
    });
    sim.run();
    finish_checked(&race, &design);
}

/// The learned design under the same torture: concurrent writers split
/// leaves out from under the model while readers route through stale
/// predictions — every answer must stay correct (B-link self-repair),
/// and the structural walk must come back clean.
#[test]
fn learned_concurrent_writers_and_readers() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), 2_000 * 8);
    let idx = Learned::build(
        &nam,
        small_fg_cfg(),
        partition,
        (0..2_000u64).map(|i| (i * 8, i)),
    );
    let design = Design::Learned(idx.clone());
    let race = arm_checker(&nam, &design);
    const WRITERS: u64 = 8;
    const PER: u64 = 60;
    for w in 0..WRITERS {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..PER {
                idx.insert(&ep, (i * WRITERS + w) * 16 + 3, w * 1_000 + i, false)
                    .await
                    .unwrap();
            }
        });
    }
    for r in 0..4u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..50u64 {
                let key = ((i * 41 + r * 13) % 2_000) * 8;
                assert_eq!(idx.lookup(&ep, key).await.unwrap(), Some(key / 8));
            }
        });
    }
    sim.run();
    let ep = Endpoint::new(&nam.rdma);
    let idx2 = idx.clone();
    sim.spawn(async move {
        let rows = idx2.range(&ep, 0, u64::MAX - 1).await.unwrap();
        assert_eq!(rows.len() as u64, 2_000 + WRITERS * PER);
    });
    sim.run();
    assert!(
        design.learned_stats().is_some_and(|s| s.predictions > 0),
        "lookups route via the model"
    );
    finish_checked(&race, &design);
}

#[test]
fn gc_concurrent_with_readers() {
    let (sim, nam) = cluster();
    let idx = FineGrained::build(&nam.rdma, small_fg_cfg(), (0..3_000u64).map(|i| (i * 8, i)));
    let design = Design::Fg(idx.clone());
    let race = arm_checker(&nam, &design);

    // Delete a third of the keys.
    {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in (0..3_000u64).step_by(3) {
                assert!(idx.delete(&ep, i * 8).await.unwrap());
            }
        });
    }
    sim.run();

    // GC runs while readers scan.
    let freed = Rc::new(Cell::new(0usize));
    {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let freed = freed.clone();
        sim.spawn(async move {
            freed.set(gc::gc_pass(&design, &ep).await.unwrap());
        });
    }
    for r in 0..5u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..80u64 {
                let k = ((i * 29 + r * 7) % 3_000) * 8;
                let got = idx.lookup(&ep, k).await.unwrap();
                if (k / 8) % 3 == 0 {
                    assert_eq!(got, None, "deleted key {k} resurfaced");
                } else {
                    assert_eq!(got, Some(k / 8), "live key {k} lost during GC");
                }
            }
        });
    }
    sim.run();
    assert_eq!(freed.get(), 1_000);
    finish_checked(&race, &design);
}

#[test]
fn cg_insert_contention_burns_handler_cores() {
    // The Fig. 12 mechanism in isolation: hot-leaf inserts make handler
    // spin-waits occupy cores, inflating measured CPU busy time well
    // beyond the useful work.
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), 1_000 * 8);
    let idx = CoarseGrained::build(
        &nam,
        PageLayout::default(),
        partition,
        (0..1_000u64).map(|i| (i * 8, i)),
        0.7,
    );
    let design = Design::Cg(idx.clone());
    let race = arm_checker(&nam, &design);
    // 30 clients append into one tiny key neighbourhood -> one hot leaf.
    for c in 0..30u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..20u64 {
                idx.insert(&ep, 4_001 + (i * 30 + c) % 97, c, false)
                    .await
                    .unwrap();
            }
        });
    }
    sim.run();
    let busy: u64 = (0..4)
        .map(|s| nam.rdma.server_stats(s).cpu_busy_nanos)
        .sum();
    // 600 inserts of ~40us useful work; spinning must add visibly.
    assert!(
        busy > 600 * 40_000,
        "spin waits must occupy handler cores: busy={busy}ns"
    );
    finish_checked(&race, &design);
}
