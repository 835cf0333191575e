//! What one child process does: run a workload's cells back to back in
//! one single-threaded address space, as a sweep does, and turn the cell
//! results into metrics. An untraced child yields the seven end-to-end
//! metrics; a traced child yields the per-layer ledger.

use crate::cell::{run_cell, CellResult, Observer};
use crate::host::{self, Spans};
use crate::probe::{self, Ledger};
use crate::spec::{span_components, DesignKind, WorkloadSpec, ALL_DESIGNS};

/// A child's result: metrics plus the counts the parent sums or compares.
pub struct Outcome {
    pub metrics: Ledger,
    /// Operations that finished inside the measured windows.
    pub attempted: u64,
    /// Those of them that aborted.
    pub failed: u64,
    /// Oracle mismatches, cost-table deviations, observer violations.
    pub mismatches: u64,
    /// Operations the oracle's quiescent pass re-checked.
    pub verified: u64,
    /// Simulator events over all cells: equal on every repetition.
    pub sim_events: u64,
    /// Fewest latency samples behind any cell's percentiles.
    pub latency_samples_min: u64,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sum(cells: &[CellResult], f: impl Fn(&CellResult) -> u64) -> u64 {
    cells.iter().map(f).sum()
}

fn run_cells(w: &WorkloadSpec, seed: u64, observer: Observer, spans: &Spans) -> Vec<CellResult> {
    let pass = spans.enter(format!("pass.{observer:?}").to_lowercase());
    let cells = w
        .designs
        .iter()
        .map(|&d| run_cell(w, d, seed, observer, spans))
        .collect();
    spans.exit(pass);
    cells
}

fn outcome_of(cells: &[CellResult], metrics: Ledger) -> Outcome {
    Outcome {
        metrics,
        attempted: sum(cells, CellResult::ops),
        failed: sum(cells, |c| c.ops_aborted),
        mismatches: sum(cells, |c| c.verify_mismatches),
        verified: sum(cells, |c| c.verified),
        sim_events: sum(cells, |c| c.events_total),
        latency_samples_min: cells.iter().map(CellResult::ops).min().unwrap_or(0),
    }
}

/// The untraced run: no observer installed, full windows.
pub fn plain(w: &WorkloadSpec, seed: u64) -> Outcome {
    let spans = Spans::default();
    let cells = run_cells(w, seed, Observer::Off, &spans);
    let secs = |ns: u64| ns as f64 / 1e9;
    let metrics = vec![
        ("setup_s".into(), secs(sum(&cells, |c| c.setup_ns))),
        (
            "host_ns_per_op".into(),
            ratio(sum(&cells, |c| c.measure_ns), sum(&cells, CellResult::ops)),
        ),
        ("peak_rss_mib".into(), host::peak_rss_kib() as f64 / 1024.0),
        (
            "sim_ops_per_s".into(),
            geomean(cells.iter().map(|c| c.ops_ok as f64 / secs(c.window_ns))),
        ),
        (
            "sim_p99_us".into(),
            geomean(cells.iter().map(|c| c.p99_ns as f64 / 1e3)),
        ),
        (
            "sim_wire_bytes_per_op".into(),
            geomean(cells.iter().map(|c| ratio(c.wire_bytes, c.ops()))),
        ),
        (
            "ok_ops_ratio".into(),
            ratio(sum(&cells, |c| c.ops_ok), sum(&cells, CellResult::ops)),
        ),
    ];
    outcome_of(&cells, metrics)
}

/// The traced run: the workload at a fifth of its window, once without an
/// observer (the host numbers, and the base of the overhead ratios), once
/// under telemetry (the span shares) and, where the workload asks, once
/// under the race detector; then the probe stage. Writes the host spans
/// and the ledger under `out_dir`.
pub fn traced(w: &WorkloadSpec, seed: u64, out_dir: &str) -> Result<Outcome, String> {
    let spans = Spans::default();
    let run = spans.enter("run");
    let w5 = w.with_window_div(5);
    let off = run_cells(&w5, seed, Observer::Off, &spans);
    let tel = run_cells(&w5, seed, Observer::Telemetry, &spans);
    let race = if w.racecheck {
        run_cells(&w5, seed, Observer::Racecheck, &spans)
    } else {
        Vec::new()
    };

    let mut m = Ledger::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    let secs = |ns: u64| ns as f64 / 1e9;
    let ops = sum(&off, CellResult::ops);
    let cell_of = |d: DesignKind| w.designs.iter().position(|&x| x == d).map(|i| &off[i]);
    for d in ALL_DESIGNS {
        let c = cell_of(d);
        let k = d.key();
        put(
            &format!("core.{k}.sim_ops_per_s"),
            c.map_or(0.0, |c| c.ops_ok as f64 / secs(c.window_ns)),
        );
        put(
            &format!("core.{k}.host_ns_per_op"),
            c.map_or(0.0, |c| ratio(c.measure_ns, c.ops())),
        );
        put(
            &format!("core.{k}.bulkload_keys_per_s"),
            c.map_or(0.0, |c| w.keys as f64 / secs(c.build_ns)),
        );
    }
    let measure_ns = sum(&off, |c| c.measure_ns);
    put(
        "simnet.host_ns_per_event",
        ratio(measure_ns, sum(&off, |c| c.events)),
    );
    put("simnet.events_per_op", ratio(sum(&off, |c| c.events), ops));
    put("rdma.verbs_per_op", ratio(sum(&off, |c| c.verbs), ops));
    put(
        "rdma.wire_bytes_per_op",
        ratio(sum(&off, |c| c.wire_bytes), ops),
    );
    let max_of = |f: fn(&CellResult) -> f64| off.iter().map(f).fold(0.0, f64::max);
    put("rdma.nic_util_max", max_of(|c| c.nic_util_max));
    put(
        "rdma.timeouts_per_op",
        ratio(sum(&off, |c| c.timeouts), ops),
    );
    put("nam.cpu_util_max", max_of(|c| c.cpu_util_max));
    put("nam.rpcs_per_op", ratio(sum(&off, |c| c.rpcs), ops));
    put("nam.cluster_new_s", secs(sum(&off, |c| c.cluster_new_ns)));
    let span_total: u64 = tel.iter().flat_map(|c| c.span_ns).sum();
    for (i, c) in span_components().iter().enumerate() {
        put(
            &format!("span.{c}_share"),
            ratio(sum(&tel, |cell| cell.span_ns[i]), span_total),
        );
    }
    put(
        "core.inflight_at_end_share",
        off.iter().map(|c| c.inflight_share).sum::<f64>() / off.len() as f64,
    );
    let mut invalidations = 0;
    for d in [DesignKind::Fg, DesignKind::Hybrid] {
        let stats = cell_of(d).and_then(|c| c.cache);
        invalidations += stats.map_or(0, |s| s.invalidations);
        put(
            &format!("core.cache.{}.hit_ratio", d.key()),
            stats.map_or(0.0, |s| s.hit_ratio()),
        );
    }
    put("core.cache.invalidations_per_op", ratio(invalidations, ops));
    let learned = cell_of(DesignKind::Learned).and_then(|c| c.learned);
    put(
        "learned.mispredict_ratio",
        learned.map_or(0.0, |l| ratio(l.mispredicts, l.predictions)),
    );
    put(
        "learned.retrains",
        learned.map_or(0.0, |l| l.retrains as f64),
    );
    put("ycsb.zipf_build_s", secs(sum(&off, |c| c.zipf_build_ns)));
    put(
        "proc.setup_sys_share",
        ratio(sum(&off, |c| c.setup_stime), sum(&off, |c| c.setup_cputime)),
    );
    put(
        "proc.setup_minor_faults",
        sum(&off, |c| c.setup_minor_faults) as f64,
    );
    put(
        "proc.rss_retained_mib_per_cell",
        off.iter().map(|c| c.rss_retained_kib).sum::<i64>() as f64 / 1024.0 / off.len() as f64,
    );
    put("proc.teardown_s", secs(sum(&off, |c| c.teardown_ns)));

    let mut mismatches = 0;
    let mut overhead = |name: &str, observed: &[CellResult]| {
        // An observer must not perturb the simulation: same events.
        if !observed.is_empty()
            && sum(observed, |c| c.events_total) != sum(&off, |c| c.events_total)
        {
            eprintln!("{name}: observed and unobserved runs processed different event counts");
            mismatches += 1;
        }
        put(name, ratio(sum(observed, |c| c.measure_ns), measure_ns));
    };
    overhead("telemetry.host_overhead_ratio", &tel);
    overhead("racecheck.host_overhead_ratio", &race);

    let (probes, probe_mismatches) = probe::run(seed, &spans);
    let run_ns = spans.exit(run);
    // Emitted last, placed where the report order wants it.
    m.push(("proc.wall_s".into(), secs(run_ns)));
    m.extend(probes);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    std::fs::write(format!("{out_dir}/trace.json"), spans.chrome_trace_json())
        .map_err(|e| format!("write trace.json: {e}"))?;

    let cells: Vec<CellResult> = off.iter().chain(&tel).chain(&race).cloned().collect();
    let mut out = outcome_of(&cells, m);
    out.mismatches += mismatches + probe_mismatches;
    Ok(out)
}
