//! Extension: behaviour under injected faults.
//!
//! The paper assumes a fault-free cluster; `ext_fault_tolerance`
//! measures how the designs ride out a deterministic fault schedule — a
//! client killed at the worst possible instant (between its lock CAS
//! and its unlock FAA), a memory-server crash/restart window, a burst
//! of client kills, and a link-degradation spike — and reports
//! per-millisecond throughput / abort-rate timelines next to a
//! fault-free baseline of the same seed.
//!
//! Each design additionally runs the same crash schedule under
//! `Durability::Wal` with a write-bearing workload: the crashed server
//! truly loses RAM and recovers from checkpoint + log replay, and every
//! completed cycle's measured RTO lands in
//! `ext_fault_tolerance_recovery.csv` (`recovery_time_us` per crash).
//!
//! `--seed N` changes the workload; `--fault-seed N` replaces the
//! scripted schedule with a randomized plan drawn from that seed
//! (`rdma_sim::chaos::FaultPlan::randomized`). Same seeds, same timelines — the
//! whole run is virtual-time deterministic.

use namdex_core::IndexKind;
use rdma_sim::chaos::{FaultPlan, RandomProfile};
use rdma_sim::{Durability, LinkDegrade};
use simnet::{SimDur, SimTime};
use ycsb::Workload;

use super::{Ctx, Rows};
use crate::driver::{metrics_csv_path, ExperimentConfig, ExperimentResult};
use crate::plot::{ascii_chart, Series};

const CLIENTS: u64 = 24;

/// The scripted schedule: one fault of every class, spread over the
/// 30ms run so each recovery is visible as its own timeline dip.
fn scripted_plan() -> FaultPlan {
    let ms = |m: u64| SimTime::from_millis(m);
    FaultPlan::new()
        // The worst instant for lock-based protocols: the victim dies
        // holding a leaf lock; a contender must break the lease.
        .kill_on_lock_acquire(ms(4), 1)
        .revive_client(ms(6), 1)
        // A full memory-server outage and recovery.
        .crash_server(ms(8), 1)
        .restart_server(ms(12), 1)
        // A burst of client kills.
        .kill_client(ms(16), 2)
        .kill_client(ms(16), 3)
        .revive_client(ms(18), 2)
        .revive_client(ms(18), 3)
        // A lossy, slow, narrow link for 4ms.
        .degrade_link(
            ms(22),
            0,
            LinkDegrade {
                drop_chance: 0.05,
                extra_delay: SimDur::from_micros(5),
                bandwidth_factor: 0.6,
            },
        )
        .restore_link(ms(26), 0)
}

fn config(ctx: &Ctx, design: IndexKind, plan: Option<FaultPlan>) -> ExperimentConfig {
    ExperimentConfig {
        design,
        workload: Workload::a(),
        num_keys: if ctx.quick { 50_000 } else { 200_000 },
        clients: CLIENTS as usize,
        warmup: SimDur::from_millis(2),
        measure: SimDur::from_millis(28),
        seed: ctx.seed,
        fault_plan: plan,
        timeline_window: SimDur::from_millis(1),
        ..ExperimentConfig::default()
    }
}

/// The durable variant of the same faulted run: `Durability::Wal`, so
/// the server crash genuinely wipes RAM and the restart pays boot +
/// checkpoint/log replay — the measured RTO. Workload D (50% inserts)
/// replaces the read-only A so the log actually accumulates records.
fn config_wal(ctx: &Ctx, design: IndexKind, plan: FaultPlan) -> ExperimentConfig {
    ExperimentConfig {
        workload: Workload::d(),
        durability: Durability::Wal,
        ..config(ctx, design, Some(plan))
    }
}

fn timeline_fingerprint(r: &ExperimentResult) -> Vec<(u64, u64)> {
    r.timeline.iter().map(|p| (p.ops, p.aborts)).collect()
}

/// The figure body: `[timeline rows, per-crash recovery rows]`.
pub fn ext_fault_tolerance(ctx: &Ctx) -> Vec<Rows> {
    let plan = match ctx.args.fault_seed {
        Some(fs) => FaultPlan::randomized(
            fs,
            4,
            CLIENTS,
            RandomProfile {
                horizon: SimDur::from_millis(30),
                ..RandomProfile::default()
            },
        ),
        None => scripted_plan(),
    };
    println!(
        "Extension: fault tolerance (workload A, seed {}, {} fault events)\n",
        ctx.seed,
        plan.events().len()
    );

    println!(
        "{:>16} {:>14} {:>14} {:>8} {:>8} {:>12} {:>10} {:>12}",
        "design",
        "ops/s (clean)",
        "ops/s (fault)",
        "aborts",
        "abort%",
        "unreachable",
        "cancelled",
        "RTO (us)"
    );
    let mut timeline_rows = Vec::new();
    let mut recovery_rows = Vec::new();
    let mut tput_series: Vec<Series> = Vec::new();
    let mut abort_series: Vec<Series> = Vec::new();
    for design in IndexKind::ALL {
        let clean = ctx.run(config(ctx, design, None));
        let faulted = ctx.run(config(ctx, design, Some(plan.clone())));
        // The durable run: same crash schedule, Wal mode, write-bearing
        // workload. Its recovery records carry the measured RTO.
        let durable = ctx.run(config_wal(ctx, design, plan.clone()));
        let rto_us = |r: &rdma_sim::RecoveryRecord| r.recovery_time().as_nanos() as f64 / 1_000.0;
        for (i, r) in durable.recoveries.iter().enumerate() {
            recovery_rows.push(strs![
                design.label(),
                i,
                r.server,
                format!("{:.1}", rto_us(r)),
                r.replay_bytes,
                r.records_replayed,
            ]);
        }
        // Same seed, same plan => byte-identical run (the determinism
        // gate's promise, restated here as a cheap self-check).
        let again = ctx.run(config(ctx, design, Some(plan.clone())));
        assert_eq!(
            timeline_fingerprint(&faulted),
            timeline_fingerprint(&again),
            "{design:?}: same seed + same plan must replay identically"
        );

        let total = faulted.ops + faulted.aborts;
        println!(
            "{:>16} {:>14.0} {:>14.0} {:>8} {:>7.2}% {:>12} {:>10} {:>12.1}",
            design.label(),
            clean.throughput,
            faulted.throughput,
            faulted.aborts,
            faulted.aborts as f64 / total.max(1) as f64 * 100.0,
            faulted.fault_stats.verbs_unreachable,
            faulted.fault_stats.verbs_cancelled,
            durable.recoveries.first().map(rto_us).unwrap_or(f64::NAN),
        );
        for p in &faulted.timeline {
            timeline_rows.push(strs![
                design.label(),
                format!("{:.1}", p.t_ms),
                p.ops,
                p.aborts,
                format!("{:.2}", p.mean_lat_ns / 1_000.0),
            ]);
        }
        let line = |y: fn(&crate::driver::TimelinePoint) -> f64| -> Series {
            let pts = faulted.timeline.iter().map(|p| (p.t_ms, y(p)));
            (design.label().to_string(), pts.collect())
        };
        tput_series.push(line(|p| p.ops as f64));
        abort_series.push(line(|p| p.aborts as f64));
    }

    for (title, ylabel, series) in [
        (
            "ops completed per 1ms window under the fault schedule",
            "ops",
            &tput_series,
        ),
        (
            "ops aborted per 1ms window (retries exhausted / client killed)",
            "aborts",
            &abort_series,
        ),
    ] {
        println!(
            "{}",
            ascii_chart(title, "virtual time (ms)", ylabel, series, false)
        );
    }
    vec![timeline_rows, recovery_rows]
}

/// Small seeded experiment that exercises every telemetry surface: op
/// spans across lookups/ranges/inserts, verb and RPC events, lock wait
/// and backoff regions, and fault instants from an injected schedule.
/// Writes a Chrome-trace/Perfetto JSON (open the file at
/// <https://ui.perfetto.dev>) plus a metrics-registry CSV.
///
/// `--trace PATH` picks the output (default `trace_demo.json` in the
/// results directory); `--seed N` varies the workload; the same seed
/// always produces a byte-identical trace — `cargo xtask trace-check`
/// relies on this.
pub fn trace_demo(ctx: &Ctx) -> Vec<Rows> {
    let trace_path = ctx
        .next_trace_path()
        .unwrap_or_else(|| ctx.results_dir.join("trace_demo.json"));
    // One fault of each flavour inside the 6ms window, so the trace
    // carries instants, Stall charges, and retry backoff regions.
    let plan = FaultPlan::with_seed(ctx.seed)
        .crash_server(SimTime::from_millis(2), 1)
        .restart_server(SimTime::from_millis(3), 1)
        .kill_client(SimTime::from_millis(4), 2)
        .revive_client(SimTime::from_micros(4_500), 2);
    let r = ctx.run(ExperimentConfig {
        design: IndexKind::Hybrid,
        workload: Workload::d(), // 50% inserts: locks, splits, CAS races
        num_keys: 20_000,
        clients: 8,
        warmup: SimDur::from_millis(1),
        measure: SimDur::from_millis(5),
        seed: ctx.seed,
        fault_plan: Some(plan),
        timeline_window: SimDur::from_millis(1),
        trace_path: Some(trace_path.clone()),
        ..ExperimentConfig::default()
    });
    println!("trace demo (hybrid, workload D, seed {})", ctx.seed);
    println!("  ops: {}  aborts: {}", r.ops, r.aborts);
    println!("  throughput: {:.0} ops/s", r.throughput);
    println!("  trace:   {}", trace_path.display());
    println!("  metrics: {}", metrics_csv_path(&trace_path).display());
    Vec::new()
}
