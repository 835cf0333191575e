//! Scheduler-equivalence golden tests: the timing-wheel timer queue
//! must be observationally identical to the reference `BinaryHeap` —
//! same event order, same virtual-time results — on pinned seeds,
//! including chaos and WAL-recovery schedules.
//!
//! Both backends pop timers in strict `(deadline, seq)` order, so the
//! entire simulation transcript is independent of the backend; these
//! tests pin that at the level of full experiments by fingerprinting
//! every deterministic field of the result. (The engine-parity golden
//! digest pins the same property against the *committed* pre-wheel
//! history; this test keeps working even when the golden is re-blessed.)

use bench::{run_experiment, ExperimentConfig, ExperimentResult};
use namdex_core::IndexKind;
use rdma_sim::chaos::FaultPlan;
use rdma_sim::{Durability, LinkDegrade};
use simnet::{SchedulerKind, SimDur, SimTime};
use ycsb::Workload;

/// Every deterministic field of a result, bit-exact.
fn fingerprint(r: &ExperimentResult) -> Vec<u64> {
    let mut fp = vec![
        r.ops,
        r.throughput.to_bits(),
        r.latency.percentile(0.5),
        r.latency.percentile(0.99),
        r.latency.mean().to_bits(),
        r.wire_bytes,
        r.aborts,
        r.sim_events,
        r.recoveries.len() as u64,
    ];
    for rec in &r.recoveries {
        fp.push(rec.replay_bytes);
        fp.push(rec.records_replayed);
    }
    fp
}

fn run_with(kind: SchedulerKind, cfg: &ExperimentConfig) -> Vec<u64> {
    let cfg = ExperimentConfig {
        scheduler: kind,
        ..cfg.clone()
    };
    fingerprint(&run_experiment(&cfg))
}

fn assert_equiv(label: &str, cfg: &ExperimentConfig) {
    let wheel = run_with(SchedulerKind::Wheel, cfg);
    let heap = run_with(SchedulerKind::Heap, cfg);
    assert_eq!(
        wheel, heap,
        "{label}: timing wheel diverged from the reference heap scheduler"
    );
    // Determinism within one backend too (a cheap canary: if this
    // fails, the divergence above would be noise, not signal).
    assert_eq!(
        wheel,
        run_with(SchedulerKind::Wheel, cfg),
        "{label}: wheel rerun"
    );
}

fn small(design: IndexKind, workload: Workload) -> ExperimentConfig {
    ExperimentConfig {
        design,
        workload,
        num_keys: 20_000,
        clients: 10,
        warmup: SimDur::from_millis(1),
        measure: SimDur::from_millis(5),
        seed: 42,
        ..ExperimentConfig::default()
    }
}

#[test]
fn wheel_matches_heap_on_point_lookups_all_designs() {
    for design in IndexKind::ALL {
        assert_equiv(&format!("{design:?}/point"), &small(design, Workload::a()));
    }
}

#[test]
fn wheel_matches_heap_on_ranges_and_inserts() {
    assert_equiv(
        "Fg/range",
        &small(IndexKind::FineGrained, Workload::b(0.001)),
    );
    assert_equiv("Hybrid/insert", &small(IndexKind::Hybrid, Workload::d()));
}

#[test]
fn wheel_matches_heap_under_chaos() {
    // Message loss + a client kill mid-window: fault timers, retry
    // backoffs, and lease machinery all go through the timer queue.
    let plan = FaultPlan::with_seed(9)
        .degrade_link(
            SimTime::from_millis(2),
            0,
            LinkDegrade {
                drop_chance: 0.2,
                extra_delay: SimDur::from_micros(2),
                bandwidth_factor: 1.0,
            },
        )
        .restore_link(SimTime::from_millis(3), 0)
        .kill_client(SimTime::from_millis(4), 3);
    let cfg = ExperimentConfig {
        fault_plan: Some(plan),
        measure: SimDur::from_millis(6),
        ..small(IndexKind::Hybrid, Workload::a())
    };
    assert_equiv("Hybrid/chaos", &cfg);
}

#[test]
fn wheel_matches_heap_through_wal_crash_recovery() {
    // Crash a server under `Durability::Wal` with writes in flight and
    // recover it mid-window: checkpoint/log streaming, replay CPU, and
    // the boot latency are all timer-driven.
    let plan = FaultPlan::with_seed(11)
        .crash_server(SimTime::from_millis(2), 1)
        .restart_server(SimTime::from_micros(2_300), 1);
    let cfg = ExperimentConfig {
        durability: Durability::Wal,
        fault_plan: Some(plan),
        measure: SimDur::from_millis(8),
        ..small(IndexKind::CoarseGrained, Workload::d())
    };
    let wheel = run_with(SchedulerKind::Wheel, &cfg);
    let heap = run_with(SchedulerKind::Heap, &cfg);
    assert_eq!(wheel, heap, "recovery schedule diverged");
    // The scenario must actually exercise recovery for the test to
    // mean anything.
    let r = run_experiment(&cfg);
    assert!(
        !r.recoveries.is_empty(),
        "crash/restart plan produced no completed recovery cycle"
    );
}
