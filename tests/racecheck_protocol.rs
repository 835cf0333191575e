//! Protocol rules of the dynamic checker (see `crates/racecheck`; the
//! happens-before rules are exercised in `tests/racecheck.rs`).
//!
//! Positive half: the three designs' torture workloads must run *clean*
//! under the checker and pass the end-of-run structural walk.
//! Negative half: deliberately injected protocol violations — an
//! unlocked WRITE, a version rollback, an unlock without a lock, an
//! early lease break, a blind write after an outage — must each be
//! reported under its rule id with server / byte-range / virtual-time /
//! client context.

use namdex::index::gc;
use namdex::prelude::*;
use namdex::racecheck::walk;
use namdex::tree::layout::lock_word;
use std::rc::Rc;

fn cluster() -> (Sim, NamCluster) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    (sim, nam)
}

fn small_fg_cfg() -> FgConfig {
    FgConfig {
        layout: PageLayout::new(256),
        fill: 0.7,
        scan_batch: 4,
        cache_capacity: None,
    }
}

// ---- positive: real workloads are clean -------------------------------

#[test]
fn fg_torture_is_clean_under_the_checker() {
    let (sim, nam) = cluster();
    let idx = FineGrained::build(&nam.rdma, small_fg_cfg(), (0..2_000u64).map(|i| (i * 8, i)));
    let race = Racecheck::install(&nam.rdma, 256);
    walk::register_design(&race, &Design::Fg(idx.clone()));

    const WRITERS: u64 = 10;
    const PER: u64 = 60;
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
    for r in 0..6u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..50u64 {
                let key = ((i * 37 + r * 11) % 2_000) * 8;
                assert_eq!(idx.lookup(&ep, key).await.unwrap(), Some(key / 8));
                if i % 10 == 0 {
                    idx.range(&ep, key, key + 50 * 8).await.unwrap();
                }
            }
        });
    }
    sim.run();

    assert!(
        race.counts().verbs_seen > 1_000,
        "the checker must actually observe the workload"
    );
    assert_eq!(race.check_structure(&Design::Fg(idx.clone())), 0);
    race.assert_clean();
}

#[test]
fn hybrid_torture_is_clean_under_the_checker() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), 2_000 * 8);
    let idx = Hybrid::build(
        &nam,
        small_fg_cfg(),
        partition,
        (0..2_000u64).map(|i| (i * 8, i)),
    );
    let race = Racecheck::install(&nam.rdma, 256);
    walk::register_design(&race, &Design::Hybrid(idx.clone()));

    const WRITERS: u64 = 8;
    const PER: u64 = 50;
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
            for i in 0..40u64 {
                let key = ((i * 41 + r * 13) % 2_000) * 8;
                assert_eq!(idx.lookup(&ep, key).await.unwrap(), Some(key / 8));
            }
        });
    }
    sim.run();

    assert!(race.counts().verbs_seen > 500);
    assert_eq!(race.check_structure(&Design::Hybrid(idx.clone())), 0);
    race.assert_clean();
}

#[test]
fn cg_workload_passes_structural_walk() {
    let (sim, nam) = cluster();
    let partition = PartitionMap::range_uniform(nam.num_servers(), 1_000 * 8);
    let idx = CoarseGrained::build(
        &nam,
        PageLayout::default(),
        partition,
        (0..1_000u64).map(|i| (i * 8, i)),
        0.7,
    );
    let race = Racecheck::install(&nam.rdma, PageLayout::DEFAULT_PAGE_SIZE);
    for c in 0..8u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..40u64 {
                idx.insert(&ep, 4_001 + (i * 8 + c) * 2, c, false)
                    .await
                    .unwrap();
                assert_eq!(
                    idx.lookup(&ep, ((i + c) % 1_000) * 8).await.unwrap(),
                    Some((i + c) % 1_000)
                );
            }
        });
    }
    sim.run();
    assert_eq!(race.check_structure(&Design::Cg(idx.clone())), 0);
    race.assert_clean();
}

#[test]
fn gc_with_readers_is_clean_under_the_checker() {
    let (sim, nam) = cluster();
    let idx = FineGrained::build(&nam.rdma, small_fg_cfg(), (0..3_000u64).map(|i| (i * 8, i)));
    let race = Racecheck::install(&nam.rdma, 256);
    walk::register_design(&race, &Design::Fg(idx.clone()));

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
    {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            gc::gc_pass(&Design::Fg(idx.clone()), &ep).await.unwrap();
        });
    }
    for r in 0..4u64 {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..60u64 {
                let k = ((i * 29 + r * 7) % 3_000) * 8;
                idx.lookup(&ep, k).await.unwrap();
            }
        });
    }
    sim.run();
    assert_eq!(race.check_structure(&Design::Fg(idx.clone())), 0);
    race.assert_clean();
}

// ---- negative: injected violations must be caught ---------------------

/// Build a small fine-grained index with the checker installed and every
/// page registered; returns the pieces the injection needs.
fn armed_fg(sim: &Sim, nam: &NamCluster) -> (Rc<Index>, Rc<Racecheck>) {
    let _ = sim;
    let idx = FineGrained::build(&nam.rdma, small_fg_cfg(), (0..500u64).map(|i| (i * 8, i)));
    let race = Racecheck::install(&nam.rdma, 256);
    walk::register_design(&race, &Design::Fg(idx.clone()));
    (idx, race)
}

#[test]
fn detects_unlocked_write() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let ep = Endpoint::new(&nam.rdma);
    let client = ep.client_id();
    sim.spawn(async move {
        // Stomp the root page's payload without taking its lock.
        let target = RemotePtr::new(root.server(), root.offset() + 40);
        ep.write(target, &[0xAB; 16]).await.unwrap();
    });
    sim.run();

    // One rogue WRITE, one finding: the lock-discipline rule has a single
    // copy, and nothing else about the write is wrong.
    let vs = race.violations();
    assert_eq!(vs.len(), 1, "{}", race.report());
    let hit = &vs[0];
    assert_eq!(hit.rule, "unlocked-write");
    assert_eq!(hit.server, root.server());
    assert_eq!(hit.offset, root.offset() + 40);
    assert_eq!(hit.len, 16);
    assert_eq!(hit.client, Some(client));
    assert!(hit.time.as_nanos() > 0, "violation carries virtual time");
    assert!(hit.detail.contains("lock is not held"), "{}", hit.detail);
}

#[test]
fn detects_version_rollback() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let nam2 = nam.rdma.clone();
    let ep = Endpoint::new(&nam.rdma);
    sim.spawn(async move {
        let word = u64::from_le_bytes(nam2.setup_read(root, 8).try_into().unwrap());
        // Jump the version forward outside the protocol, then roll it
        // back — both CAS transitions are illegal, the second is a
        // version rollback.
        let fwd = ep.cas(root, word, word + 4).await.unwrap();
        assert_eq!(fwd, word, "injection CAS must succeed");
        let back = ep.cas(root, word + 4, word + 2).await.unwrap();
        assert_eq!(back, word + 4, "injection CAS must succeed");
    });
    sim.run();

    let vs = race.violations();
    let protocol: Vec<_> = vs.iter().filter(|v| v.rule == "version-protocol").collect();
    assert!(
        protocol.len() >= 2,
        "both illegal CAS transitions flagged, got: {vs:?}"
    );
    let rollback = protocol
        .iter()
        .find(|v| v.detail.contains("version rollback"))
        .expect("rollback must be called out");
    assert_eq!(rollback.server, root.server());
    assert_eq!(rollback.offset, root.offset());
    assert!(rollback.time.as_nanos() > 0);
}

#[test]
fn detects_unlock_without_lock() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let ep = Endpoint::new(&nam.rdma);
    sim.spawn(async move {
        // The unlock FAA with no preceding lock CAS.
        ep.fetch_add(root, 1).await.unwrap();
    });
    sim.run();

    let hit = race
        .violations()
        .into_iter()
        .find(|v| v.rule == "version-protocol")
        .expect("unlock-without-lock must be flagged");
    assert_eq!(hit.offset, root.offset());
    assert!(hit.detail.contains("no lock held"), "{}", hit.detail);
}

#[test]
fn assert_clean_panics_with_context() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let ep = Endpoint::new(&nam.rdma);
    sim.spawn(async move {
        ep.write(RemotePtr::new(root.server(), root.offset() + 48), &[1])
            .await
            .unwrap();
    });
    sim.run();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| race.assert_clean()))
        .expect_err("assert_clean must panic on a dirty run");
    let msg = err.downcast_ref::<String>().expect("string panic payload");
    assert!(
        msg.contains("unlocked-write") && msg.contains("server"),
        "{msg}"
    );
}

// ---- lease-break legality ---------------------------------------------

#[test]
fn lease_break_after_expiry_is_clean() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let lease = namdex::rdma::spec::LEASE_DURATION;
    let nam2 = nam.rdma.clone();
    let victim = Endpoint::new(&nam.rdma);
    let contender = Endpoint::new(&nam.rdma);
    let sim2 = sim.clone();
    sim.spawn(async move {
        // The victim takes the lock and goes silent (killed elsewhere).
        let w = u64::from_le_bytes(nam2.setup_read(root, 8).try_into().unwrap());
        let locked = lock_word::locked_by(w, victim.client_id());
        assert_eq!(victim.cas(root, w, locked).await.unwrap(), w);
        // The contender waits out the full lease before breaking.
        sim2.sleep(lease).await;
        let broken = lock_word::break_lease(locked);
        assert_eq!(contender.cas(root, locked, broken).await.unwrap(), locked);
        assert!(!lock_word::is_locked(broken));
    });
    sim.run();
    assert!(
        !race.violations().iter().any(|v| v.rule == "lease-break"),
        "a break after lease expiry is the legal recovery transition: {:?}",
        race.violations()
    );
}

#[test]
fn detects_early_lease_break() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let nam2 = nam.rdma.clone();
    let victim = Endpoint::new(&nam.rdma);
    let contender = Endpoint::new(&nam.rdma);
    sim.spawn(async move {
        let w = u64::from_le_bytes(nam2.setup_read(root, 8).try_into().unwrap());
        let locked = lock_word::locked_by(w, victim.client_id());
        assert_eq!(victim.cas(root, w, locked).await.unwrap(), w);
        // Impatient contender: breaks immediately, long before expiry —
        // the holder may be alive and mid-write.
        let broken = lock_word::break_lease(locked);
        assert_eq!(contender.cas(root, locked, broken).await.unwrap(), locked);
    });
    sim.run();

    let vs = race.violations();
    let hit = vs
        .iter()
        .find(|v| v.rule == "lease-break")
        .expect("premature lease break must be flagged");
    assert_eq!(hit.server, root.server());
    assert_eq!(hit.offset, root.offset());
    assert!(hit.detail.contains("lease"), "{}", hit.detail);
}

// ---- writes after ServerUnreachable -----------------------------------

#[test]
fn detects_write_after_unreachable_without_revalidation() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let cluster = nam.rdma.clone();
    let ep = Endpoint::new(&nam.rdma);
    let sim2 = sim.clone();
    sim.spawn(async move {
        cluster.fail_server(root.server());
        // The client observes the outage...
        assert!(ep.write(root, &[0u8; 8]).await.is_err());
        cluster.restart_server(root.server());
        sim2.sleep(SimDur::from_micros(5)).await;
        // ...then mutates the same server with no re-validating READ:
        // it may be acting on pre-crash cached state.
        ep.write(RemotePtr::new(root.server(), root.offset() + 40), &[9u8; 8])
            .await
            .unwrap();
    });
    sim.run();

    let vs = race.violations();
    let hit = vs
        .iter()
        .find(|v| v.rule == "unreachable-write")
        .expect("blind write after an unreachable episode must be flagged");
    assert_eq!(hit.server, root.server());
    assert!(hit.detail.contains("unreachable"), "{}", hit.detail);
}

#[test]
fn initialising_a_page_allocated_after_an_outage_is_not_blind() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let cluster = nam.rdma.clone();
    let ep = Endpoint::new(&nam.rdma);
    let sim2 = sim.clone();
    sim.spawn(async move {
        cluster.fail_server(root.server());
        assert!(ep.read(root, 8).await.is_err());
        cluster.restart_server(root.server());
        sim2.sleep(SimDur::from_micros(5)).await;
        // A split's new right half: allocated after the outage and
        // filled from state read elsewhere.
        let fresh = ep.alloc(root.server(), 256).await.unwrap();
        ep.write(fresh, &[7u8; 256]).await.unwrap();
        // The episode is still open for the server's older pages.
        ep.write(RemotePtr::new(root.server(), root.offset() + 40), &[9u8; 8])
            .await
            .unwrap();
    });
    sim.run();
    let vs = race.violations();
    let hits: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "unreachable-write")
        .collect();
    assert_eq!(hits.len(), 1, "{vs:?}");
    assert_eq!(hits[0].offset, root.offset() + 40);
}

#[test]
fn read_revalidation_clears_the_unreachable_flag() {
    let (sim, nam) = cluster();
    let (idx, race) = armed_fg(&sim, &nam);
    let root = idx.root().expect("remote upper level");
    let cluster = nam.rdma.clone();
    let nam2 = nam.rdma.clone();
    let ep = Endpoint::new(&nam.rdma);
    let sim2 = sim.clone();
    sim.spawn(async move {
        cluster.fail_server(root.server());
        assert!(ep.read(root, 8).await.is_err());
        cluster.restart_server(root.server());
        sim2.sleep(SimDur::from_micros(5)).await;
        // Proper recovery: re-read first, then mutate (a legal lock
        // acquisition on the freshly observed word).
        assert_eq!(ep.read(root, 8).await.unwrap().len(), 8);
        let w = u64::from_le_bytes(nam2.setup_read(root, 8).try_into().unwrap());
        let locked = lock_word::locked_by(w, ep.client_id());
        assert_eq!(ep.cas(root, w, locked).await.unwrap(), w);
        assert_eq!(ep.fetch_add(root, 1).await.unwrap(), locked);
    });
    sim.run();
    assert!(
        !race
            .violations()
            .iter()
            .any(|v| v.rule == "unreachable-write"),
        "a re-validating READ legalises later writes: {:?}",
        race.violations()
    );
}
