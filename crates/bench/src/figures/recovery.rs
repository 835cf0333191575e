//! Extension: the recovery-time objective (RTO) curve.
//!
//! The paper's NAM architecture treats memory servers as durable by
//! fiat; the durability subsystem (`rdma_sim::wal`, DESIGN.md §16) makes
//! the cost model honest. This experiment measures what that costs at
//! restart: for each design, grow the un-checkpointed log with batches
//! of acknowledged inserts, crash a memory server (RAM genuinely
//! wiped), and measure RTO = `healthy_at - restarted_at` — boot plus
//! checkpoint/log streaming off the simulated NVMe device plus replay
//! CPU. The curve's slope is the replay bandwidth; its intercept is the
//! fixed boot + checkpoint cost.
//!
//! A second section re-runs one insert workload with group commit on
//! and off and reports the durable device-op counts — the batching win
//! the WAL's group-commit path exists for.
//!
//! Outputs `ext_recovery.csv`, `BENCH_recovery.json` and an ASCII RTO
//! curve. `--seed N` reseeds the (deterministic) workload;
//! `NAMDEX_QUICK=1` shrinks the sweep.

use std::fmt::Write as _;

use namdex_core::{Design, IndexKind, NamCluster};
use rdma_sim::{ClusterSpec, Durability, Endpoint};
use simnet::{Sim, SimDur};

use super::{Ctx, Rows};
use crate::driver::{build_design, ExperimentConfig};
use crate::plot::{ascii_chart, Series};

/// Restart boot latency: deliberately small so the curve shows the
/// *replay* term growing, not a flat 2ms boot floor.
const BOOT: SimDur = SimDur::from_micros(100);

/// Memory server crashed and recovered (also the hot partition under
/// the uniform split — matches the other fault experiments).
const CRASH_SERVER: usize = 1;

fn spec() -> ClusterSpec {
    ClusterSpec {
        durability: Durability::Wal,
        wal_restart_boot_latency: BOOT,
        // No runtime checkpoint: every insert since setup replays, so
        // the log size is exactly the independent variable.
        wal_checkpoint_every_bytes: 1 << 30,
        ..ClusterSpec::with_memory_servers(4)
    }
}

/// `load_keys` records at multiples of 8 (inserted keys are odd, so
/// fresh).
fn build(kind: IndexKind, load_keys: u64, nam: &NamCluster) -> Design {
    let cfg = ExperimentConfig {
        design: kind,
        num_keys: load_keys,
        ..ExperimentConfig::default()
    };
    build_design(&cfg, nam)
}

/// One measured point of the curve.
struct Point {
    writes: u64,
    log_bytes: u64,
    replay_bytes: u64,
    rto_us: f64,
    replay_mbps: f64,
}

/// Drive `writes` acknowledged inserts (8 concurrent writers, fresh
/// odd keys spread over the whole domain), then crash + restart the
/// hot server and return the measured recovery.
fn measure(kind: IndexKind, load_keys: u64, writes: u64, seed: u64) -> Point {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, spec());
    let design = build(kind, load_keys, &nam);
    let domain = load_keys * 8;
    let stride = (domain / writes.max(1)).max(2) & !1;
    const WRITERS: u64 = 8;
    for w in 0..WRITERS {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            let mut j = w;
            while j < writes {
                // Odd keys are fresh (the load uses multiples of 8);
                // the stride spreads them over every partition.
                let key = (j * stride) | 1;
                design.insert(&ep, key, key ^ seed).await.expect("insert");
                j += WRITERS;
            }
        });
    }
    sim.run();
    let log_bytes = nam.rdma.wal_log_bytes(CRASH_SERVER).expect("wal mode");

    let cluster = nam.rdma.clone();
    let sim_c = sim.clone();
    sim.spawn(async move {
        cluster.fail_server(CRASH_SERVER);
        sim_c.sleep(SimDur::from_micros(50)).await;
        cluster.restart_server(CRASH_SERVER);
    });
    sim.run();

    let recs = nam.rdma.recovery_records();
    assert_eq!(recs.len(), 1, "exactly one crash/recovery cycle");
    let r = &recs[0];
    let rto_ns = r.recovery_time().as_nanos();
    let stream_ns = rto_ns.saturating_sub(BOOT.as_nanos()).max(1);
    Point {
        writes,
        log_bytes,
        replay_bytes: r.replay_bytes,
        rto_us: rto_ns as f64 / 1_000.0,
        replay_mbps: r.replay_bytes as f64 / 1e6 / (stream_ns as f64 / 1e9),
    }
}

/// Device-op counts for one fixed insert workload with and without
/// group commit (summed over all servers).
fn group_commit_ops(load_keys: u64, seed: u64, group_commit: bool) -> (u64, u64) {
    let sim = Sim::new();
    let nam = NamCluster::new(
        &sim,
        ClusterSpec {
            wal_group_commit: group_commit,
            ..spec()
        },
    );
    let design = build(IndexKind::CoarseGrained, load_keys, &nam);
    let domain = load_keys * 8;
    for w in 0..12u64 {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in 0..50u64 {
                let key = ((w * 50 + i) * (domain / 600).max(2)) | 1;
                design.insert(&ep, key, key ^ seed).await.expect("insert");
            }
        });
    }
    sim.run();
    let mut flushes = 0;
    let mut records = 0;
    for s in 0..nam.num_servers() {
        let st = nam.rdma.wal_stats(s).expect("wal mode");
        flushes += st.device_flushes;
        records += st.records_flushed;
    }
    (flushes, records)
}

/// The figure body.
pub fn ext_recovery(ctx: &Ctx) -> Vec<Rows> {
    let seed = ctx.seed;
    let load_keys: u64 = if ctx.quick { 20_000 } else { 50_000 };
    // Un-checkpointed insert batch sizes swept for the curve.
    let sweep: &[u64] = if ctx.quick {
        &[250, 1_000, 4_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    println!(
        "Extension: recovery curve (RTO vs un-checkpointed log, seed {seed}, \
         boot {}us)\n",
        BOOT.as_nanos() / 1_000
    );
    println!(
        "{:>16} {:>8} {:>12} {:>13} {:>10} {:>12}",
        "design", "writes", "log bytes", "replay bytes", "RTO (us)", "replay MB/s"
    );

    let mut rows = Vec::new();
    let mut series: Vec<Series> = Vec::new();
    let mut json_designs = String::new();
    for (di, design) in IndexKind::ALL.into_iter().enumerate() {
        let points: Vec<Point> = sweep
            .iter()
            .map(|&writes| measure(design, load_keys, writes, seed))
            .collect();
        for p in &points {
            println!(
                "{:>16} {:>8} {:>12} {:>13} {:>10.1} {:>12.1}",
                design.label(),
                p.writes,
                p.log_bytes,
                p.replay_bytes,
                p.rto_us,
                p.replay_mbps
            );
            rows.push(strs![
                design.label(),
                p.writes,
                p.log_bytes,
                p.replay_bytes,
                format!("{:.1}", p.rto_us),
                format!("{:.1}", p.replay_mbps),
            ]);
        }
        // More acknowledged writes since the checkpoint must mean more
        // replay and a longer RTO — the property the subsystem's tests
        // pin, restated here on the measured curve.
        for w in points.windows(2) {
            assert!(
                w[1].replay_bytes > w[0].replay_bytes && w[1].rto_us > w[0].rto_us,
                "{}: RTO curve must grow with the log",
                design.label()
            );
        }
        series.push((
            design.label().to_string(),
            points.iter().map(|p| (p.writes as f64, p.rto_us)).collect(),
        ));
        let pts = points
            .iter()
            .map(|p| {
                format!(
                    "{{\"writes\": {}, \"log_bytes\": {}, \"replay_bytes\": {}, \
                     \"rto_us\": {:.1}, \"replay_mbps\": {:.1}}}",
                    p.writes, p.log_bytes, p.replay_bytes, p.rto_us, p.replay_mbps
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json_designs,
            "    {{\"design\": \"{}\", \"points\": [{}]}}{}",
            design.label(),
            pts,
            if di + 1 == IndexKind::ALL.len() {
                ""
            } else {
                ","
            }
        );
    }

    let (group_flushes, group_records) = group_commit_ops(load_keys, seed, true);
    let (per_flushes, per_records) = group_commit_ops(load_keys, seed, false);
    assert_eq!(group_records, per_records, "same workload, same records");
    println!(
        "\ngroup commit: {group_records} records in {group_flushes} device ops \
         (per-record flushing: {per_flushes})"
    );

    println!(
        "{}",
        ascii_chart(
            "RTO vs un-checkpointed acknowledged writes",
            "acknowledged inserts since checkpoint",
            "RTO (us)",
            &series,
            false,
        )
    );

    let json = format!(
        "{{\n  \"figure\": \"recovery\",\n  \"seed\": {seed},\n  \"boot_us\": {},\n  \
         \"designs\": [\n{json_designs}  ],\n  \"group_commit\": {{\"records\": {group_records}, \
         \"device_flushes\": {group_flushes}, \"per_record_flushes\": {per_flushes}}}\n}}\n",
        BOOT.as_nanos() / 1_000
    );
    let path = ctx.results_dir.join("BENCH_recovery.json");
    std::fs::create_dir_all(&ctx.results_dir).expect("create results directory");
    std::fs::write(&path, json).expect("bench json");
    println!("wrote {}", path.display());
    vec![rows]
}
