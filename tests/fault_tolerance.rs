//! Fault-tolerance scenarios: the paper's protocols extended with
//! lease-based lock recovery (`blink::layout::lock_word`), bounded
//! retry (`namdex_core::OpError`), and the `chaos` fault injector.
//!
//! The headline scenario kills a client at the worst possible instant —
//! *between its lock-acquire CAS and its unlock FAA* — and requires
//! that every design completes the workload anyway: a contender breaks
//! the orphaned lease after its virtual-time expiry, no key is lost or
//! duplicated, and the run is violation-free under the dynamic
//! checker and passes its structural walk.

use namdex::index::OpError;
use namdex::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn cluster() -> (Sim, NamCluster) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    (sim, nam)
}

fn arm_checker(nam: &NamCluster, design: &Design) -> Rc<Racecheck> {
    let race = Racecheck::install(&nam.rdma, design.index().layout().page_size());
    namdex::racecheck::walk::register_design(&race, design);
    race
}

fn finish_checked(race: &Racecheck, design: &Design) {
    assert_eq!(race.check_structure(design), 0, "structural walk");
    race.assert_clean();
    // Every sim on this thread drained, so nothing died in flight: each
    // remote lock taken was discharged through its guard.
    assert_eq!(namdex::index::abandoned_guards(), 0, "lock guard dropped");
}

const KEYS: u64 = 500;

fn build(kind: IndexKind, nam: &NamCluster) -> Design {
    let items = (0..KEYS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    Design::build(kind, nam, FgConfig::default(), partition, items)
}

/// The one-sided designs die between CAS and FAA: the armed trigger
/// kills the victim the instant its lock-acquire CAS succeeds, so the
/// leaf lock is orphaned and the contender must break the lease.
fn lock_orphan_scenario(kind: IndexKind) {
    let (sim, nam) = cluster();
    let design = build(kind, &nam);
    let race = arm_checker(&nam, &design);
    let lease = nam.rdma.spec().lease_duration;

    let victim = Endpoint::new(&nam.rdma);
    let contender = Endpoint::new(&nam.rdma);
    let plan = FaultPlan::new().kill_on_lock_acquire(SimTime::ZERO, victim.client_id());
    ChaosController::install(&sim, &nam.rdma, plan);

    // Odd keys are fresh (the load uses multiples of 8); all land near
    // the same leaf so the contender meets the orphaned lock.
    let victim_key = 2_001u64;
    let contender_keys: Vec<u64> = (0..10u64).map(|i| 2_003 + 2 * i).collect();

    let victim_result = Rc::new(Cell::new(None));
    {
        let design = design.clone();
        let victim_result = victim_result.clone();
        sim.spawn(async move {
            victim_result.set(Some(design.insert(&victim, victim_key, 999).await));
        });
    }
    let recovered_at = Rc::new(Cell::new(SimTime::ZERO));
    {
        let design = design.clone();
        let keys = contender_keys.clone();
        let sim_c = sim.clone();
        let recovered_at = recovered_at.clone();
        sim.spawn(async move {
            // Start after the victim has taken (and orphaned) the lock.
            sim_c.sleep(SimDur::from_micros(5)).await;
            for k in keys {
                design
                    .insert(&contender, k, k * 10)
                    .await
                    .expect("contender must complete after breaking the lease");
            }
            recovered_at.set(sim_c.now());
        });
    }
    sim.run();

    // The victim died mid-operation, between its CAS and its FAA.
    assert_eq!(nam.rdma.fault_stats().lock_kills_fired, 1, "trigger fired");
    assert!(
        matches!(victim_result.get(), Some(Err(OpError::Cancelled))),
        "victim's insert must report the kill: {:?}",
        victim_result.get()
    );
    // The contender could only proceed by waiting out the lease.
    assert!(
        recovered_at.get() >= SimTime::ZERO + lease,
        "recovery at {:?} cannot precede lease expiry ({lease:?})",
        recovered_at.get()
    );

    // No key lost, none duplicated: the full scan is exactly the load
    // plus the contender's inserts, each once, sorted.
    let ep = Endpoint::new(&nam.rdma);
    let design2 = design.clone();
    let keys = contender_keys.clone();
    sim.spawn(async move {
        let rows = design2.range(&ep, 0, u64::MAX - 1).await.unwrap();
        assert_eq!(rows.len() as u64, KEYS + 10, "load + contender inserts");
        let mut expect: Vec<(u64, u64)> = (0..KEYS).map(|i| (i * 8, i)).collect();
        expect.extend(keys.iter().map(|&k| (k, k * 10)));
        expect.sort_unstable();
        assert_eq!(rows, expect, "contents after lease recovery");
        assert_eq!(
            design2.lookup(&ep, victim_key).await.unwrap(),
            None,
            "the victim died before publishing its insert"
        );
    });
    sim.run();
    finish_checked(&race, &design);
}

#[test]
fn fg_completes_after_client_dies_holding_a_lock() {
    lock_orphan_scenario(IndexKind::FineGrained);
}

#[test]
fn hybrid_completes_after_client_dies_holding_a_lock() {
    lock_orphan_scenario(IndexKind::Hybrid);
}

#[test]
fn learned_completes_after_client_dies_holding_a_lock() {
    lock_orphan_scenario(IndexKind::Learned);
}

/// The coarse-grained design has no client-held one-sided locks (its
/// latches live inside the server handlers), so "between two verbs" is
/// a timed kill mid-stream: RPCs already dispatched still apply
/// (at-least-once), later ones are refused at issue, and the client
/// finishes its stream after revival.
#[test]
fn cg_completes_after_timed_kill_between_rpcs() {
    let (sim, nam) = cluster();
    let design = build(IndexKind::CoarseGrained, &nam);
    let race = arm_checker(&nam, &design);

    let victim = Endpoint::new(&nam.rdma);
    let plan = FaultPlan::new()
        .kill_client(SimTime::from_micros(50), victim.client_id())
        .revive_client(SimTime::from_micros(250), victim.client_id());
    ChaosController::install(&sim, &nam.rdma, plan);

    let keys: Vec<u64> = (0..20u64).map(|i| 2_001 + 2 * i).collect();
    let acked = Rc::new(RefCell::new(Vec::new()));
    let cancelled = Rc::new(Cell::new(0u32));
    {
        let design = design.clone();
        let keys = keys.clone();
        let acked = acked.clone();
        let cancelled = cancelled.clone();
        let cluster = nam.rdma.clone();
        let sim_c = sim.clone();
        sim.spawn(async move {
            for k in keys {
                match design.insert(&victim, k, k * 10).await {
                    Ok(()) => acked.borrow_mut().push(k),
                    Err(OpError::Cancelled) => {
                        cancelled.set(cancelled.get() + 1);
                        while cluster.client_dead(victim.client_id()) {
                            sim_c.sleep(SimDur::from_micros(10)).await;
                        }
                        // The interrupted RPC may or may not have applied
                        // server-side (at-least-once); re-issue it.
                        design.insert(&victim, k, k * 10).await.unwrap();
                        acked.borrow_mut().push(k);
                    }
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            }
        });
    }
    sim.run();

    assert!(cancelled.get() >= 1, "the kill must interrupt the stream");
    assert_eq!(acked.borrow().len(), 20, "every insert eventually acked");

    let ep = Endpoint::new(&nam.rdma);
    let design2 = design.clone();
    sim.spawn(async move {
        let rows = design2.range(&ep, 0, u64::MAX - 1).await.unwrap();
        assert_eq!(rows.len() as u64, KEYS + 20, "no key lost or duplicated");
        for k in (0..20u64).map(|i| 2_001 + 2 * i) {
            assert_eq!(design2.lookup(&ep, k).await.unwrap(), Some(k * 10));
        }
    });
    sim.run();
    finish_checked(&race, &design);
}

/// Lossy links drop verbs at arbitrary points inside an insert —
/// including *after* the leaf's unlock FAA committed the install (a
/// refused split propagation, a refused unlock). The retry layer must
/// then re-run without duplicating the committed key: re-attempts check
/// the covering leaf for their own install and absorb it. Exactly-once
/// for the one-sided designs, under deterministic packet loss.
#[test]
fn lossy_links_never_lose_or_duplicate_inserts() {
    for kind in [
        IndexKind::FineGrained,
        IndexKind::Hybrid,
        IndexKind::Learned,
    ] {
        let (sim, nam) = cluster();
        let design = build(kind, &nam);
        let race = arm_checker(&nam, &design);
        // A bounded lossy window: every link drops a quarter of its
        // messages for the first 3ms of virtual time, then heals. (The
        // window must end: a client whose own unlock FAA was dropped can
        // only reclaim its lock by lease-breaking it, and the lease spin
        // itself needs the wire to carry READs again eventually.)
        //
        // Seed 3 is load-bearing: it drops a verb *after* a leaf commit,
        // so without re-attempt absorption this scan finds a duplicate.
        nam.rdma.set_fault_seed(3);
        for s in 0..nam.num_servers() {
            nam.rdma.degrade_link(
                s,
                LinkDegrade {
                    drop_chance: 0.25,
                    ..LinkDegrade::default()
                },
            );
        }
        {
            let rdma = nam.rdma.clone();
            let sim_c = sim.clone();
            let n = nam.num_servers();
            sim.spawn(async move {
                sim_c.sleep(SimDur::from_millis(3)).await;
                for s in 0..n {
                    rdma.restore_link(s);
                }
            });
        }

        let ep = Endpoint::new(&nam.rdma);
        let keys: Vec<u64> = (0..40u64).map(|i| 2_001 + 2 * i).collect();
        {
            let design = design.clone();
            let keys = keys.clone();
            sim.spawn(async move {
                for &k in &keys {
                    design
                        .insert(&ep, k, k * 10)
                        .await
                        .expect("retries must ride out the lossy window");
                }
            });
        }
        sim.run();
        assert!(
            nam.rdma.fault_stats().verbs_dropped > 0,
            "{kind:?}: the lossy window must actually drop verbs"
        );

        let ep = Endpoint::new(&nam.rdma);
        let design2 = design.clone();
        sim.spawn(async move {
            let rows = design2.range(&ep, 0, u64::MAX - 1).await.unwrap();
            let mut expect: Vec<(u64, u64)> = (0..KEYS).map(|i| (i * 8, i)).collect();
            expect.extend(keys.iter().map(|&k| (k, k * 10)));
            expect.sort_unstable();
            assert_eq!(
                rows.len(),
                expect.len(),
                "{kind:?}: a key was lost or duplicated"
            );
            assert_eq!(rows, expect, "{kind:?}: contents after lossy inserts");
        });
        sim.run();
        finish_checked(&race, &design);
    }
}

/// A memory-server outage in the middle of a read stream: retries ride
/// it out, the restart epoch moves so client-cached state is flushed,
/// and no operation returns a wrong answer.
#[test]
fn all_designs_ride_out_a_server_restart() {
    for kind in IndexKind::ALL {
        let (sim, nam) = cluster();
        let design = build(kind, &nam);
        let race = arm_checker(&nam, &design);
        let plan = FaultPlan::new()
            .crash_server(SimTime::from_micros(40), 1)
            .restart_server(SimTime::from_micros(140), 1);
        ChaosController::install(&sim, &nam.rdma, plan);
        assert_eq!(nam.rdma.restart_epoch(), 0);

        let ep = Endpoint::new(&nam.rdma);
        let design2 = design.clone();
        let wrong = Rc::new(Cell::new(0u32));
        let failed = Rc::new(Cell::new(0u32));
        {
            let wrong = wrong.clone();
            let failed = failed.clone();
            sim.spawn(async move {
                for i in 0..200u64 {
                    let k = (i * 37) % KEYS;
                    match design2.lookup(&ep, k * 8).await {
                        Ok(got) => {
                            if got != Some(k) {
                                wrong.set(wrong.get() + 1);
                            }
                        }
                        Err(_) => failed.set(failed.get() + 1),
                    }
                }
            });
        }
        sim.run();
        assert_eq!(wrong.get(), 0, "{kind:?}: a lookup returned bad data");
        assert_eq!(
            failed.get(),
            0,
            "{kind:?}: retries must outlast a 100us outage"
        );
        assert!(
            nam.rdma.fault_stats().verbs_unreachable > 0,
            "{kind:?}: the outage must actually be hit"
        );
        assert_eq!(
            nam.rdma.restart_epoch(),
            1,
            "{kind:?}: restart moves the restart epoch"
        );
        finish_checked(&race, &design);
    }
}
