//! Cell enumerators and row formatters of the grid figures.
//!
//! Cell order is CSV row order.

use namdex_core::IndexKind;
use simnet::SimDur;
use ycsb::{RequestDist, Workload};

use super::{Cell, Ctx};
use crate::driver::{CgPartition, DataDist, ExperimentConfig, ExperimentResult};

/// The settings every grid figure shares: the figure-scale key count, a
/// 3 ms warmup, a 25 ms window and the command line's seed.
pub fn base(ctx: &Ctx) -> ExperimentConfig {
    ExperimentConfig {
        num_keys: ctx.num_keys(),
        warmup: SimDur::from_millis(3),
        measure: SimDur::from_millis(25),
        seed: ctx.seed,
        ..ExperimentConfig::default()
    }
}

/// The four workload panels of Figs. 7/8/9/13/14/15.
pub fn panels() -> [(&'static str, Workload); 4] {
    [
        ("point", Workload::a()),
        ("range_sel0.001", Workload::b(0.001)),
        ("range_sel0.01", Workload::b(0.01)),
        ("range_sel0.1", Workload::b(0.1)),
    ]
}

/// `throughput, aborts` — the metric columns most figures report.
pub fn throughput_row(r: &ExperimentResult) -> Vec<String> {
    strs![format!("{:.1}", r.throughput), r.aborts]
}

/// Header of `sweep_<dist>_<keys>keys.csv`.
pub const SWEEP_HEADER: &str =
    "design,panel,clients,throughput,p50_ns,p99_ns,mean_ns,wire_gbps,max_bw_gbps,aborts";

/// The shared sweep: panels × designs × client counts under `dist`.
pub fn sweep_cells(ctx: &Ctx, dist: DataDist) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (panel, workload) in panels() {
        // Longer windows for longer operations: a sel=0.1 scan moves
        // thousands of pages and takes tens of virtual milliseconds
        // under load.
        let measure_ms = match panel {
            "range_sel0.1" => 300,
            "range_sel0.01" => 60,
            _ => 25,
        };
        for &design in &ctx.designs {
            for &clients in ctx.clients_sweep() {
                let cfg = ExperimentConfig {
                    design,
                    workload,
                    clients,
                    data_dist: dist,
                    measure: SimDur::from_millis(measure_ms),
                    cache_capacity: ctx.args.cache_capacity,
                    ..base(ctx)
                };
                let cell = Cell::new(strs![design.label(), panel, clients], cfg);
                cells.push(cell.plot(panel, design.label(), clients as f64));
            }
        }
    }
    cells
}

/// Every metric of a sweep cell.
pub fn sweep_row(r: &ExperimentResult) -> Vec<String> {
    strs![
        format!("{:.1}", r.throughput),
        r.latency.percentile(0.5),
        r.latency.percentile(0.99),
        format!("{:.1}", r.latency.mean()),
        format!("{:.4}", r.wire_gbps),
        format!("{:.4}", r.max_bandwidth_gbps),
        r.aborts,
    ]
}

/// Median latency in seconds (the y axis of Figs. 13/14).
pub fn p50_secs(r: &ExperimentResult) -> f64 {
    r.latency.percentile(0.5) as f64 / 1e9
}

/// Figs. 13/14: the sweep's latency columns.
pub fn latency_row(r: &ExperimentResult) -> Vec<String> {
    strs![
        r.latency.percentile(0.5),
        r.latency.percentile(0.99),
        format!("{:.1}", r.latency.mean()),
        r.aborts,
    ]
}

/// Fig. 9: the sweep's bandwidth columns at three decimals. The figure
/// is a view of the sweep CSV, so it rounds the four-decimal value that
/// file holds: `fig09_network.csv` is derivable from the sweep CSV alone.
pub fn network_row(r: &ExperimentResult) -> Vec<String> {
    let gbps = |v: f64| {
        let held: f64 = format!("{v:.4}").parse().expect("a formatted float parses");
        format!("{held:.3}")
    };
    strs![gbps(r.wire_gbps), gbps(r.max_bandwidth_gbps), r.aborts]
}

/// Figure 10. The paper sweeps 1M/10M/100M keys on hardware; the
/// simulated reproduction sweeps 100K/1M/10M (one decade down — same
/// index-height regime, see DESIGN.md).
pub fn fig10(ctx: &Ctx) -> Vec<Cell> {
    let sizes: &[u64] = if ctx.quick {
        &[10_000, 100_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    let mut cells = Vec::new();
    for (panel, workload) in [("point", Workload::a()), ("range_sel0.1", Workload::b(0.1))] {
        for design in IndexKind::ALL {
            for &num_keys in sizes {
                // sel=0.1 scans grow linearly with data size, so the
                // window must outlast individual operations.
                let measure_ms = match (panel, num_keys) {
                    ("point", _) => 25,
                    (_, 0..=200_000) => 150,
                    (_, 200_001..=2_000_000) => 800,
                    _ => 4_000,
                };
                let cfg = ExperimentConfig {
                    design,
                    workload,
                    num_keys,
                    clients: 240,
                    measure: SimDur::from_millis(measure_ms),
                    ..base(ctx)
                };
                let cell = Cell::new(strs![design.label(), panel, num_keys], cfg);
                cells.push(cell.plot(panel, design.label(), num_keys as f64));
            }
        }
    }
    cells
}

/// Figure 11: CG vs FG only (the paper omits the hybrid here: it tracks
/// CG for points and FG for ranges).
pub fn fig11(ctx: &Ctx) -> Vec<Cell> {
    let servers: &[usize] = if ctx.quick { &[2, 8] } else { &[2, 4, 6, 8] };
    let mut cells = Vec::new();
    for (dist, dist_name) in [(DataDist::Uniform, "uniform"), (DataDist::Skewed, "skew")] {
        for (panel, workload) in [
            ("point", Workload::a()),
            ("range_sel0.01", Workload::b(0.01)),
        ] {
            for design in [IndexKind::CoarseGrained, IndexKind::FineGrained] {
                for &n in servers {
                    let cfg = ExperimentConfig {
                        design,
                        workload,
                        clients: 120,
                        memory_servers: n,
                        data_dist: dist,
                        ..base(ctx)
                    };
                    let cell = Cell::new(strs![design.label(), panel, dist_name, n], cfg);
                    cells.push(cell.plot(
                        &format!("{panel}, {dist_name}"),
                        design.label(),
                        n as f64,
                    ));
                }
            }
        }
    }
    cells
}

/// Figure 12: one chart, a series per (design, insert share).
pub fn fig12(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (mix, workload) in [("5", Workload::c()), ("50", Workload::d())] {
        for design in IndexKind::ALL {
            let series = format!("{} {mix}", design.label());
            for &clients in ctx.clients_sweep() {
                let cfg = ExperimentConfig {
                    design,
                    workload,
                    clients,
                    ..base(ctx)
                };
                let cell = Cell::new(strs![series, clients], cfg);
                cells.push(cell.plot("", &series, clients as f64));
            }
        }
    }
    cells
}

/// Figure 15 (Appendix A.3).
pub fn fig15(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (panel, workload) in panels() {
        for design in [IndexKind::FineGrained, IndexKind::CoarseGrained] {
            for (colocated, deployment) in [(false, "distributed"), (true, "colocated")] {
                let cfg = ExperimentConfig {
                    design,
                    workload,
                    clients: 80,
                    colocated,
                    ..base(ctx)
                };
                cells.push(Cell::new(strs![design.label(), panel, deployment], cfg));
            }
        }
    }
    cells
}

/// The scan READ batch for fine-grained range scans: how many of the
/// leaves a level-1 page names go out in one round trip (the paper's
/// head-node stride, §4.3). Batch 0 reads as 1 (every leaf is a fresh
/// round trip); larger batches fetch bigger groups per round trip but
/// over-read more at scan tails.
pub fn ablation_heads(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for sel in [0.001, 0.01] {
        for stride in [0usize, 4, 8, 16] {
            let cfg = ExperimentConfig {
                design: IndexKind::FineGrained,
                workload: Workload::b(sel),
                clients: 120,
                scan_batch: stride,
                measure: SimDur::from_millis(60),
                ..base(ctx)
            };
            cells.push(Cell::new(strs![sel, stride], cfg));
        }
    }
    cells
}

/// `throughput, p50_ns, aborts`.
pub fn batch_row(r: &ExperimentResult) -> Vec<String> {
    strs![
        format!("{:.1}", r.throughput),
        r.latency.percentile(0.5),
        r.aborts,
    ]
}

/// Learned-design ablation: model mispredict rate vs. insert rate.
///
/// The learned design's one-RTT lookups hold only while the model's
/// leaf table matches the tree; every split made after training turns
/// the affected prediction into a B-link rightward chase (a mispredict)
/// until drift-triggered retraining refreshes the model. The sweep
/// raises the insert fraction from read-only (the control: a static
/// tree must hold a 0% mispredict rate) to insert-heavy — the data
/// behind the retrain-threshold default.
///
/// It pins its own tree scale instead of [`Ctx::num_keys`]: drift is
/// driven by *splits per loaded leaf*, so a measurement window has to
/// push each leaf toward overflow. Small pages over a 100k-key tree
/// give ~10 entries of headroom per leaf; at the paper-scale 1M keys
/// and 1KB pages the same window leaves every leaf unsplit and the
/// whole figure reads 0%.
pub fn ablation_mispredict(ctx: &Ctx) -> Vec<Cell> {
    let client_counts: &[usize] = if ctx.quick { &[40] } else { &[40, 160] };
    let mut cells = Vec::new();
    for &clients in client_counts {
        for frac in [0.0, 0.02, 0.05, 0.2, 0.5] {
            let cfg = ExperimentConfig {
                design: IndexKind::Learned,
                workload: Workload {
                    point_frac: 1.0 - frac,
                    range_frac: 0.0,
                    insert_frac: frac,
                    selectivity: 0.0,
                    dist: RequestDist::Uniform,
                },
                num_keys: 100_000,
                page_size: 256,
                clients,
                ..base(ctx)
            };
            let cell = Cell::new(strs![format!("{frac:.2}"), clients], cfg);
            cells.push(cell.plot("", &format!("{clients} clients"), frac * 100.0));
        }
    }
    cells
}

/// Share of model predictions that needed a rightward chase.
pub fn mispredict_rate(r: &ExperimentResult) -> f64 {
    let l = r.learned.expect("learned design reports model stats");
    if l.predictions > 0 {
        l.mispredicts as f64 / l.predictions as f64
    } else {
        0.0
    }
}

/// Throughput and the model's routing counters.
pub fn mispredict_row(r: &ExperimentResult) -> Vec<String> {
    let l = r.learned.expect("learned design reports model stats");
    strs![
        format!("{:.1}", r.throughput),
        l.predictions,
        l.mispredicts,
        format!("{:.5}", mispredict_rate(r)),
        l.retrains,
        l.fallbacks,
        l.epoch_flushes,
    ]
}

/// Index page size `P`. The paper fixes P = 1024 (Table 1). Smaller
/// pages mean taller trees (more round trips for the one-sided design)
/// but less wasted transfer per point lookup; larger pages flatten the
/// tree but move more bytes per level. Point queries and
/// mid-selectivity ranges respond in opposite directions.
pub fn ablation_pagesize(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (panel, workload, measure_ms) in [
        ("point", Workload::a(), 25),
        ("range_sel0.01", Workload::b(0.01), 60),
    ] {
        for design in [IndexKind::CoarseGrained, IndexKind::FineGrained] {
            for page_size in [512usize, 1024, 2048, 4096] {
                let cfg = ExperimentConfig {
                    design,
                    workload,
                    clients: 120,
                    page_size,
                    measure: SimDur::from_millis(measure_ms),
                    ..base(ctx)
                };
                cells.push(Cell::new(strs![design.label(), panel, page_size], cfg));
            }
        }
    }
    cells
}

/// Coarse-grained partitioning scheme — range vs hash (§2.2, Table 2,
/// Figure 3). Hash partitioning balances point queries perfectly but
/// must broadcast every range query to all servers (the `H·P·S` term of
/// Table 2), so range-partitioned CG should win on ranges and the gap
/// should grow with the number of servers.
pub fn ablation_partitioning(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (panel, workload, measure_ms) in [
        ("point", Workload::a(), 25),
        ("range_sel0.001", Workload::b(0.001), 25),
        ("range_sel0.01", Workload::b(0.01), 60),
    ] {
        for scheme in [CgPartition::Range, CgPartition::Hash] {
            let cfg = ExperimentConfig {
                design: IndexKind::CoarseGrained,
                cg_partition: scheme,
                workload,
                clients: 120,
                measure: SimDur::from_millis(measure_ms),
                ..base(ctx)
            };
            cells.push(Cell::new(strs![format!("{scheme:?}"), panel], cfg));
        }
    }
    cells
}

/// Request-side skew (Zipfian, YCSB theta = 0.99).
///
/// The paper's evaluation induces *attribute-value* (data placement)
/// skew; its discussion (§1, §2.2) also motivates robustness against
/// skewed *access patterns*. Zipfian point queries concentrate hot keys
/// on whichever server holds them, so the coarse-grained design loses
/// balance while the fine-grained design's per-node scatter keeps the
/// *traversal* traffic spread (only the hot leaf itself is pinned).
pub fn ext_request_skew(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for design in [
        IndexKind::CoarseGrained,
        IndexKind::FineGrained,
        IndexKind::Hybrid,
    ] {
        for dist in [RequestDist::Uniform, RequestDist::Zipfian(0.99)] {
            let cfg = ExperimentConfig {
                design,
                workload: Workload::a().with_dist(dist),
                clients: 120,
                ..base(ctx)
            };
            cells.push(Cell::new(strs![design.label(), format!("{dist:?}")], cfg));
        }
    }
    cells
}

/// Scaled sweep: 10M keys, up to 1,000 closed-loop clients, all four
/// designs.
pub fn scaled_sweep(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for design in IndexKind::ALL {
        for clients in [250usize, 500, 1_000] {
            let cfg = ExperimentConfig {
                design,
                num_keys: 10_000_000,
                clients,
                warmup: SimDur::from_millis(2),
                measure: SimDur::from_millis(10),
                ..base(ctx)
            };
            cells.push(Cell::new(strs![design.label(), clients], cfg));
        }
    }
    cells
}

/// `throughput, p50_ns, p99_ns, wire_gbps, sim_events`.
pub fn scaled_row(r: &ExperimentResult) -> Vec<String> {
    strs![
        format!("{:.1}", r.throughput),
        r.latency.percentile(0.5),
        r.latency.percentile(0.99),
        format!("{:.4}", r.wire_gbps),
        r.sim_events,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::BenchArgs;

    #[test]
    fn panels_cover_the_figure_grid() {
        let p = panels();
        assert_eq!(p[0].0, "point");
        for (name, w) in &p[1..] {
            assert!(name.starts_with("range_sel"));
            assert!(w.range_frac == 1.0);
        }
    }

    #[test]
    fn sweep_cells_are_panels_by_designs_by_clients() {
        let args = BenchArgs {
            seed: Some(7),
            cache_capacity: Some(64),
            ..BenchArgs::default()
        };
        let mut ctx = Ctx::new(args, true, "unused".into());
        ctx.designs = vec![IndexKind::CoarseGrained, IndexKind::FineGrained];
        let cells = sweep_cells(&ctx, DataDist::Skewed);
        assert_eq!(cells.len(), 4 * 2 * 3);
        assert_eq!(cells[0].key, ["Coarse-Grained", "point", "20"]);
        assert_eq!(cells[23].key, ["Fine-Grained", "range_sel0.1", "240"]);
        for c in &cells {
            assert_eq!((c.cfg.seed, c.cfg.num_keys), (7, 100_000));
            assert_eq!(c.cfg.cache_capacity, Some(64));
            assert_eq!(c.cfg.data_dist, DataDist::Skewed);
        }
    }
}
