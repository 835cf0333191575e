//! Durability end-to-end: crash a memory server *under load* with RAM
//! genuinely lost, recover from the simulated NVMe log device, and hold
//! all four designs to the contract that matters — **zero acknowledged
//! writes lost**. Plus the measurable properties of the subsystem: RTO
//! grows with the un-checkpointed log, group commit collapses device
//! ops, and the whole crash/replay cycle is seed-deterministic.
//!
//! The oracle rule: an insert/delete counts only once its `Ok` came
//! back. Under `Durability::Wal` every acknowledged mutation was
//! WAL-appended and flushed *before* the ack could form, so a crash at
//! any instant — mid-flush, mid-checkpoint, mid-RPC — may lose in-flight
//! unacknowledged work (at-least-once retries re-drive it) but never an
//! acknowledged write.

use namdex::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const KEYS: u64 = 400;

/// Wal-mode spec with a boot latency small enough that the bounded
/// retry layer (16 attempts, 256us backoff cap) rides out a full
/// crash + recovery cycle.
fn wal_spec() -> ClusterSpec {
    ClusterSpec {
        durability: Durability::Wal,
        wal_restart_boot_latency: SimDur::from_micros(200),
        ..ClusterSpec::default()
    }
}

fn build(kind: IndexKind, nam: &NamCluster) -> Design {
    let items = (0..KEYS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    Design::build(kind, nam, FgConfig::default(), partition, items)
}

/// Outcome of one crash-under-load run: what the clients got acked, and
/// what the recovered cluster actually holds.
struct RunOutcome {
    rows: Vec<(u64, u64)>,
    acked_inserts: Vec<(u64, u64)>,
    acked_deletes: Vec<u64>,
    recoveries: Vec<(usize, u64, u64)>, // (server, recovery_time_ns, replay_bytes)
}

/// Drive `writers` concurrent insert streams plus one delete stream into
/// a Wal-mode cluster while server 1 crashes and restarts mid-stream,
/// then scan the recovered index.
fn crash_under_load(kind: IndexKind, seed: u64) -> RunOutcome {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, wal_spec());
    let design = build(kind, &nam);
    let plan = FaultPlan::with_seed(seed)
        .crash_server(SimTime::from_micros(300), 1)
        .restart_server(SimTime::from_micros(400), 1);
    ChaosController::install(&sim, &nam.rdma, plan);

    let acked_inserts = Rc::new(RefCell::new(Vec::new()));
    let acked_deletes = Rc::new(RefCell::new(Vec::new()));
    for w in 0..3u64 {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let acked = acked_inserts.clone();
        sim.spawn(async move {
            for i in 0..40u64 {
                // Odd keys are fresh (the load uses multiples of 8),
                // unique per writer.
                let k = 2_001 + 2 * (w * 40 + i);
                if design.insert(&ep, k, k * 10 + w).await.is_ok() {
                    acked.borrow_mut().push((k, k * 10 + w));
                }
            }
        });
    }
    {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let acked = acked_deletes.clone();
        sim.spawn(async move {
            for i in 0..30u64 {
                // Loaded keys, spread over the space, deleted once each.
                let k = (i * 13) % KEYS * 8;
                if let Ok(true) = design.delete(&ep, k).await {
                    acked.borrow_mut().push(k);
                }
            }
        });
    }
    sim.run();
    assert_eq!(sim.live_tasks(), 0, "{kind:?}: no parked tasks");

    let rows = Rc::new(RefCell::new(Vec::new()));
    {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let rows = rows.clone();
        sim.spawn(async move {
            *rows.borrow_mut() = design.range(&ep, 0, u64::MAX - 1).await.unwrap();
        });
    }
    sim.run();

    let recoveries = nam
        .rdma
        .recovery_records()
        .iter()
        .map(|r| (r.server, r.recovery_time().as_nanos(), r.replay_bytes))
        .collect();
    let out = RunOutcome {
        rows: rows.borrow().clone(),
        acked_inserts: acked_inserts.borrow().clone(),
        acked_deletes: acked_deletes.borrow().clone(),
        recoveries,
    };
    out
}

/// The tentpole acceptance check: for every design, a crash that wipes
/// server RAM mid-workload loses not one acknowledged write.
#[test]
fn zero_acked_write_loss_across_all_designs() {
    for kind in IndexKind::ALL {
        let out = crash_under_load(kind, 7);
        assert_eq!(
            out.recoveries.len(),
            1,
            "{kind:?}: exactly one crash/recovery cycle"
        );
        let (server, rto_ns, _) = out.recoveries[0];
        assert_eq!(server, 1);
        assert!(
            rto_ns >= 200_000,
            "{kind:?}: RTO must include the 200us boot, got {rto_ns}ns"
        );
        assert!(
            !out.acked_inserts.is_empty(),
            "{kind:?}: the workload must ack inserts"
        );
        for &(k, v) in &out.acked_inserts {
            assert!(
                out.rows.contains(&(k, v)),
                "{kind:?}: acked insert ({k},{v}) lost by the crash"
            );
        }
        for &k in &out.acked_deletes {
            assert!(
                !out.rows.iter().any(|&(rk, _)| rk == k),
                "{kind:?}: acked delete of {k} resurrected by replay"
            );
        }
    }
}

/// Crash, recovery, and replay are part of the deterministic simulation:
/// the same seed reproduces the same acks, the same final contents, and
/// the same measured RTO, byte for byte.
#[test]
fn crash_recovery_is_seed_deterministic() {
    for kind in [IndexKind::CoarseGrained, IndexKind::Hybrid] {
        let a = crash_under_load(kind, 11);
        let b = crash_under_load(kind, 11);
        assert_eq!(a.rows, b.rows, "{kind:?}: final contents diverged");
        assert_eq!(a.acked_inserts, b.acked_inserts, "{kind:?}: acks");
        assert_eq!(a.acked_deletes, b.acked_deletes, "{kind:?}: deletes");
        assert_eq!(a.recoveries, b.recoveries, "{kind:?}: RTO diverged");
    }
}

/// Group commit is the point of the batching path: under concurrent
/// writers it must make far fewer device flushes than records, and
/// strictly fewer than per-record flushing does for the same workload.
#[test]
fn group_commit_reduces_device_flushes() {
    let run = |group_commit: bool| -> (u64, u64) {
        let sim = Sim::new();
        let spec = ClusterSpec {
            wal_group_commit: group_commit,
            // A wide fsync window (a disk-backed log, not Optane) is
            // where group commit pays: most writers' records arrive
            // while the previous flush is still in flight.
            wal_fsync_latency: SimDur::from_micros(50),
            ..wal_spec()
        };
        let nam = NamCluster::new(&sim, spec);
        let design = build(IndexKind::CoarseGrained, &nam);
        for w in 0..12u64 {
            let design = design.clone();
            let ep = Endpoint::new(&nam.rdma);
            sim.spawn(async move {
                for i in 0..25u64 {
                    let k = 2_001 + 2 * (w * 25 + i);
                    design.insert(&ep, k, k).await.unwrap();
                }
            });
        }
        sim.run();
        let mut flushes = 0;
        let mut records = 0;
        for s in 0..nam.num_servers() {
            let st = nam.rdma.wal_stats(s).expect("wal-mode server");
            flushes += st.device_flushes;
            records += st.records_flushed;
        }
        (flushes, records)
    };
    let (group_flushes, group_records) = run(true);
    let (per_flushes, per_records) = run(false);
    assert_eq!(group_records, 300, "every insert logs one record");
    assert_eq!(per_records, 300);
    assert_eq!(
        per_flushes, per_records,
        "per-record mode flushes one record per device op"
    );
    assert!(
        group_flushes * 2 <= per_flushes,
        "group commit must at least halve device ops under 12 concurrent \
         writers: {group_flushes} vs {per_flushes}"
    );
}

/// RTO scales with the un-checkpointed log: more acknowledged writes
/// since the last checkpoint mean more bytes streamed and replayed at
/// restart. (The recovery-curve experiment `ext_recovery` measures the
/// full curve; this pins the monotonicity.)
#[test]
fn rto_grows_with_replayed_log() {
    let run = |writes: u64| -> (u64, u64) {
        let sim = Sim::new();
        let spec = ClusterSpec {
            // No runtime checkpoint: everything since setup replays.
            wal_checkpoint_every_bytes: 1 << 30,
            ..wal_spec()
        };
        let nam = NamCluster::new(&sim, spec);
        let design = build(IndexKind::Hybrid, &nam);
        let sim_c = sim.clone();
        let cluster = nam.rdma.clone();
        {
            let design = design.clone();
            let ep = Endpoint::new(&nam.rdma);
            sim.spawn(async move {
                for i in 0..writes {
                    design.insert(&ep, 2_001 + 2 * i, i).await.unwrap();
                }
                cluster.fail_server(1);
                sim_c.sleep(SimDur::from_micros(50)).await;
                cluster.restart_server(1);
            });
        }
        sim.run();
        let rec = nam.rdma.recovery_records();
        assert_eq!(rec.len(), 1, "one recovery");
        (rec[0].recovery_time().as_nanos(), rec[0].replay_bytes)
    };
    let (rto_small, bytes_small) = run(20);
    let (rto_large, bytes_large) = run(400);
    assert!(
        bytes_large > bytes_small,
        "more writes, more log: {bytes_large} vs {bytes_small}"
    );
    assert!(
        rto_large > rto_small,
        "more log, longer recovery: {rto_large}ns vs {rto_small}ns"
    );
}

/// `Durability::Off` keeps the historical magic-durable behaviour: no
/// log device exists, restarts are instantaneous, and no WAL counters
/// move — the entire subsystem is opt-in.
#[test]
fn off_mode_changes_nothing_and_has_no_wal() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let design = build(IndexKind::CoarseGrained, &nam);
    assert!(nam.rdma.wal_stats(0).is_none());
    let survived = Rc::new(Cell::new(false));
    {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let cluster = nam.rdma.clone();
        let survived = survived.clone();
        sim.spawn(async move {
            design.insert(&ep, 2_001, 1).await.unwrap();
            cluster.fail_server(nam_server_of(2_001));
            cluster.restart_server(nam_server_of(2_001));
            survived.set(design.lookup(&ep, 2_001).await.unwrap() == Some(1));
        });
    }
    sim.run();
    assert!(survived.get(), "Off-mode RAM magically survives the crash");
    assert!(nam.rdma.recovery_records().is_empty(), "no RTO measured");
}

/// Server id covering `key` under the uniform range partition the tests
/// build (4 servers over `KEYS * 8`).
fn nam_server_of(key: u64) -> usize {
    PartitionMap::range_uniform(4, KEYS * 8).server_of(key)
}
