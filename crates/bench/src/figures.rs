//! The figure registry and its runner.
//!
//! Every table and figure of the evaluation is one [`Figure`] value in
//! [`FIGURES`]: a name (the CSV stem), the CSV header, and a body. A
//! [`Grid`] body enumerates experiment cells — `(key columns,
//! ExperimentConfig)` — and formats one CSV row per measured cell; the
//! runner farms the cells through [`crate::parallel::run_cells`]
//! (deterministic cell-order merge), writes the CSV and renders the
//! chart. Analytic and bespoke figures carry a custom body that returns
//! the rows of the CSVs the entry declares; they share the writer, the
//! parsed arguments ([`Ctx`]) and the footer.
//!
//! Figures 7, 9 and 13 (and 8, 14) are views of one underlying sweep —
//! {designs} × {client counts} × {workload A + three range
//! selectivities} under one data distribution. They declare the sweep
//! they view ([`Cells::Sweep`]) and [`Ctx::sweep`] measures each sweep
//! once per process, writing its full rows to `sweep_<dist>_<keys>keys.csv`.
//!
//! Scale note: the paper's headline runs use 100M keys on real FDR
//! hardware; the simulated reproduction defaults to 1M keys (same tree
//! heights at the default page size within one level) and scales down
//! client windows accordingly. Set `NAMDEX_QUICK=1` for a fast smoke
//! pass (100K keys, 3 client counts).

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use namdex_core::IndexKind;

use crate::cli::BenchArgs;
use crate::driver::{run_experiment, DataDist, ExperimentConfig, ExperimentResult};
use crate::plot::{ascii_chart, ascii_table, write_csv, Series};

/// `vec![a.to_string(), b.to_string(), …]` — CSV cells from mixed types.
macro_rules! strs {
    ($($x:expr),* $(,)?) => { vec![$($x.to_string()),*] };
}

mod analytic;
mod caching;
mod fault_tolerance;
mod gc;
mod grids;
mod recovery;

/// The rows of one CSV file.
pub type Rows = Vec<Vec<String>>;

/// A number read off a measured cell.
pub type Metric = fn(&ExperimentResult) -> f64;

/// The metric columns of a measured cell's CSV row.
pub type RowFn = fn(&ExperimentResult) -> Vec<String>;

/// One registry entry.
pub struct Figure {
    /// Name on the command line and stem of the entry's CSV.
    pub name: &'static str,
    /// One line for `list`.
    pub about: &'static str,
    /// Header line of `<name>.csv`; empty for the stdout-only entries.
    pub header: &'static str,
    /// Further CSVs `(stem, header line)` a custom body writes.
    pub also: &'static [(&'static str, &'static str)],
    /// Excluded from `all` because of its cost.
    pub heavy: bool,
    /// How the entry produces its rows.
    pub body: Body,
}

/// How a [`Figure`] produces its rows.
pub enum Body {
    /// A grid of experiments, one CSV row per cell.
    Grid(Grid),
    /// Anything else: returns the rows of each CSV the entry declares
    /// (`<name>.csv` if it has a header, then `also`), in that order.
    Custom(fn(&Ctx) -> Vec<Rows>),
}

/// An experiment grid.
pub struct Grid {
    /// Where the cells come from.
    pub cells: Cells,
    /// Metric columns appended to each cell's key columns.
    pub row: RowFn,
    /// Chart rendered to stdout; without one the rows print as a table.
    pub chart: Option<Chart>,
}

/// Where a [`Grid`]'s cells come from.
pub enum Cells {
    /// The figure's own enumerator.
    Own(fn(&Ctx) -> Vec<Cell>),
    /// The shared sweep under this data distribution (see [`Ctx::sweep`]).
    Sweep(DataDist),
}

/// One experiment of a grid.
pub struct Cell {
    /// Leading CSV columns identifying the cell.
    pub key: Vec<String>,
    /// The experiment to run.
    pub cfg: ExperimentConfig,
    /// Chart coordinates: `(panel, series, x)`.
    pub plot: (String, String, f64),
}

impl Cell {
    /// A cell that is not charted.
    pub fn new(key: Vec<String>, cfg: ExperimentConfig) -> Cell {
        Cell {
            key,
            cfg,
            plot: Default::default(),
        }
    }

    /// Place the cell on the figure's chart.
    pub fn plot(mut self, panel: &str, series: &str, x: f64) -> Cell {
        self.plot = (panel.to_string(), series.to_string(), x);
        self
    }
}

/// How a [`Grid`] charts its cells: one chart per panel, one line per
/// series.
pub struct Chart {
    /// Chart title (the panel name is appended).
    pub title: &'static str,
    /// X-axis label.
    pub xlabel: &'static str,
    /// Y-axis label.
    pub ylabel: &'static str,
    /// Logarithmic y axis.
    pub logy: bool,
    /// The plotted metric.
    pub y: Metric,
    /// A horizontal reference line `(label, value)` across each panel.
    pub ceiling: Option<(&'static str, Metric)>,
}

/// Measured cells, in cell order.
pub type Measured = Rc<Vec<(Cell, ExperimentResult)>>;

/// What every figure body reads: the command line parsed once, the
/// environment read once, and the sweeps measured so far.
pub struct Ctx {
    /// The parsed command line.
    pub args: BenchArgs,
    /// Workload seed (`--seed`, default 42).
    pub seed: u64,
    /// Quick mode (`NAMDEX_QUICK=1`): reduced scale for a smoke pass.
    pub quick: bool,
    /// Where CSVs go (`NAMDEX_RESULTS_DIR`, default `results`).
    pub results_dir: PathBuf,
    /// The designs the shared sweeps cover: all four by default, or the
    /// comma list in `NAMDEX_DESIGNS` (`cg,fg,hybrid,learned`). The
    /// engine-parity harness pins the original three so its golden
    /// digest stays independent of the learned design.
    pub designs: Vec<IndexKind>,
    traces: std::cell::Cell<u32>,
    sweeps: RefCell<Vec<(DataDist, Measured)>>,
}

impl Ctx {
    /// A context with explicit settings.
    pub fn new(args: BenchArgs, quick: bool, results_dir: PathBuf) -> Ctx {
        Ctx {
            seed: args.seed_or_default(),
            args,
            quick,
            results_dir,
            designs: IndexKind::ALL.to_vec(),
            traces: std::cell::Cell::new(0),
            sweeps: RefCell::new(Vec::new()),
        }
    }

    /// A context from the process environment.
    pub fn from_env(args: BenchArgs) -> Result<Ctx, String> {
        let quick = std::env::var("NAMDEX_QUICK").is_ok_and(|v| v == "1");
        let dir = std::env::var("NAMDEX_RESULTS_DIR").unwrap_or_else(|_| "results".into());
        let mut ctx = Ctx::new(args, quick, PathBuf::from(dir));
        if let Ok(list) = std::env::var("NAMDEX_DESIGNS") {
            ctx.designs = list
                .split(',')
                .map(|s| {
                    IndexKind::parse(s.trim()).ok_or_else(|| {
                        format!(
                            "NAMDEX_DESIGNS names unknown design {:?}; known: cg, fg, hybrid, learned",
                            s.trim()
                        )
                    })
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(ctx)
    }

    /// Loaded records for the figures at the default scale.
    pub fn num_keys(&self) -> u64 {
        if self.quick {
            100_000
        } else {
            1_000_000
        }
    }

    /// Client counts swept (the paper's x-axis is 0–240).
    pub fn clients_sweep(&self) -> &'static [usize] {
        if self.quick {
            &[20, 120, 240]
        } else {
            &[20, 60, 120, 180, 240]
        }
    }

    /// The `--trace` path for the next experiment of this process: the
    /// first keeps the path verbatim, later ones number themselves
    /// before the extension (`out.json` → `out.2.json`, …) so a sweep's
    /// traces never overwrite each other. Cells are numbered in cell
    /// order, so the numbering is deterministic for any thread count.
    pub fn next_trace_path(&self) -> Option<PathBuf> {
        let path = PathBuf::from(self.args.trace.as_ref()?);
        let seq = self.traces.get() + 1;
        self.traces.set(seq);
        Some(numbered(path, seq))
    }

    /// Run one experiment under the command line's `--trace` and
    /// `--racecheck`.
    pub fn run(&self, cfg: ExperimentConfig) -> ExperimentResult {
        run_experiment(&self.with_flags(cfg))
    }

    fn with_flags(&self, mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.racecheck |= self.args.racecheck;
        if cfg.trace_path.is_none() {
            cfg.trace_path = self.next_trace_path();
        }
        cfg
    }

    /// Measure every cell (whole independent simulations, farmed across
    /// `NAMDEX_SWEEP_THREADS`) and return them with their results in
    /// cell order.
    pub fn measure(&self, tag: &str, cells: Vec<Cell>) -> Vec<(Cell, ExperimentResult)> {
        let cells: Vec<Cell> = cells
            .into_iter()
            .map(|c| Cell {
                cfg: self.with_flags(c.cfg),
                ..c
            })
            .collect();
        let results = crate::parallel::run_cells(&cells, |cell| {
            let r = run_experiment(&cell.cfg);
            eprintln!("[{tag}] {}: {:.0} ops/s", cell.key.join(" "), r.throughput);
            r
        });
        cells.into_iter().zip(results).collect()
    }

    /// The shared sweep under `dist`, measured on first use and written
    /// to `sweep_<dist>_<keys>keys.csv`.
    pub fn sweep(&self, dist: DataDist) -> Measured {
        if let Some((_, m)) = self.sweeps.borrow().iter().find(|(d, _)| *d == dist) {
            return m.clone();
        }
        let tag = match dist {
            DataDist::Uniform => "uniform",
            DataDist::Skewed => "skew",
        };
        let stem = format!("sweep_{tag}_{}keys", self.num_keys());
        let measured = Rc::new(self.measure(&stem, grids::sweep_cells(self, dist)));
        self.write_csv(
            &stem,
            grids::SWEEP_HEADER,
            &rows(&measured, grids::sweep_row),
        );
        self.sweeps.borrow_mut().push((dist, measured.clone()));
        measured
    }

    /// Write `<stem>.csv` into the results directory and say so.
    pub fn write_csv(&self, stem: &str, header: &str, rows: &[Vec<String>]) {
        let columns = header.split(',').count();
        assert!(
            rows.iter().all(|r| r.len() == columns),
            "{stem}: every row must fill the header's {columns} columns"
        );
        let path = self.results_dir.join(format!("{stem}.csv"));
        write_csv(&path, header, rows).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

fn numbered(path: PathBuf, seq: u32) -> PathBuf {
    if seq <= 1 {
        return path;
    }
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{seq}.{}", ext.to_string_lossy()),
        None => format!("{stem}.{seq}"),
    };
    path.with_file_name(name)
}

/// Key columns followed by `row`'s metric columns, per measured cell.
fn rows(measured: &[(Cell, ExperimentResult)], row: RowFn) -> Rows {
    measured
        .iter()
        .map(|(c, r)| c.key.iter().cloned().chain(row(r)).collect())
        .collect()
}

/// Group plotted points `(panel, series, x, y)` into one series list
/// per panel, panels and series in order of first appearance.
fn chart_panels(points: &[(&str, &str, f64, f64)]) -> Vec<(String, Vec<Series>)> {
    let mut panels: Vec<(String, Vec<Series>)> = Vec::new();
    for &(panel, series, x, y) in points {
        let at = panels
            .iter()
            .position(|(p, _)| p == panel)
            .unwrap_or_else(|| {
                panels.push((panel.to_string(), Vec::new()));
                panels.len() - 1
            });
        let lines = &mut panels[at].1;
        match lines.iter_mut().find(|(name, _)| name == series) {
            Some((_, pts)) => pts.push((x, y)),
            None => lines.push((series.to_string(), vec![(x, y)])),
        }
    }
    panels
}

fn print_charts(chart: &Chart, measured: &[(Cell, ExperimentResult)]) {
    let points: Vec<_> = measured
        .iter()
        .map(|(c, r)| (c.plot.0.as_str(), c.plot.1.as_str(), c.plot.2, (chart.y)(r)))
        .collect();
    for (panel, mut series) in chart_panels(&points) {
        if let (Some((label, level)), Some((_, r))) = (chart.ceiling, measured.first()) {
            let xs = series[0].1.iter().map(|p| p.0);
            let (x0, x1) = (
                xs.clone().fold(f64::MAX, f64::min),
                xs.fold(f64::MIN, f64::max),
            );
            series.push((label.to_string(), vec![(x0, level(r)), (x1, level(r))]));
        }
        let title = if panel.is_empty() {
            chart.title.to_string()
        } else {
            format!("{} ({panel})", chart.title)
        };
        println!(
            "{}",
            ascii_chart(&title, chart.xlabel, chart.ylabel, &series, chart.logy)
        );
    }
}

/// Run one figure: measure, print, write its CSVs.
pub fn run_figure(fig: &Figure, ctx: &Ctx) {
    println!("\n================ {} ================", fig.name);
    let tables = match &fig.body {
        Body::Grid(grid) => {
            let measured = match grid.cells {
                Cells::Own(cells) => Rc::new(ctx.measure(fig.name, cells(ctx))),
                Cells::Sweep(dist) => ctx.sweep(dist),
            };
            let rows = rows(&measured, grid.row);
            match &grid.chart {
                Some(chart) => print_charts(chart, &measured),
                None => println!("{}\n{}", fig.about, ascii_table(fig.header, &rows)),
            }
            vec![rows]
        }
        Body::Custom(run) => run(ctx),
    };
    let csvs: Vec<_> = fig.csvs().collect();
    assert_eq!(tables.len(), csvs.len(), "{}: one table per CSV", fig.name);
    for ((stem, header), rows) in csvs.into_iter().zip(&tables) {
        ctx.write_csv(stem, header, rows);
    }
}

impl Figure {
    /// The CSV files this entry writes: `(stem, header line)`.
    pub fn csvs(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        let own = (!self.header.is_empty()).then_some((self.name, self.header));
        own.into_iter().chain(self.also.iter().copied())
    }
}

/// Resolve the command line's positional arguments to registry entries:
/// figure names in the order given, or `all` for every entry that is
/// not [`Figure::heavy`]. An unknown name is an error that lists the
/// known ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    let known = || {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        format!("known figures: {}, or `all` / `list`", names.join(", "))
    };
    if names.is_empty() {
        return Err(format!("no figure named; {}", known()));
    }
    let mut picked = Vec::new();
    for name in names {
        if name == "all" {
            picked.extend(FIGURES.iter().filter(|f| !f.heavy));
        } else {
            let fig = FIGURES.iter().find(|f| f.name == name);
            picked.push(fig.ok_or_else(|| format!("unknown figure {name:?}; {}", known()))?);
        }
    }
    Ok(picked)
}

/// The `list` output: one line per entry.
pub fn list() -> String {
    let mut out = String::new();
    for f in FIGURES {
        let note = if f.heavy { " [not in `all`]" } else { "" };
        out.push_str(&format!("{:<30} {}{note}\n", f.name, f.about));
    }
    out.push_str(&format!("flags: {}\n", crate::cli::FLAGS));
    out
}

const fn grid(
    name: &'static str,
    about: &'static str,
    header: &'static str,
    cells: Cells,
    row: RowFn,
    chart: Option<Chart>,
) -> Figure {
    Figure {
        name,
        about,
        header,
        also: &[],
        heavy: false,
        body: Body::Grid(Grid { cells, row, chart }),
    }
}

const fn custom(
    name: &'static str,
    about: &'static str,
    header: &'static str,
    run: fn(&Ctx) -> Vec<Rows>,
) -> Figure {
    Figure {
        name,
        about,
        header,
        also: &[],
        heavy: false,
        body: Body::Custom(run),
    }
}

const fn chart(
    title: &'static str,
    xlabel: &'static str,
    ylabel: &'static str,
    logy: bool,
    y: Metric,
) -> Option<Chart> {
    Some(Chart {
        title,
        xlabel,
        ylabel,
        logy,
        y,
        ceiling: None,
    })
}

const THROUGHPUT: Metric = |r| r.throughput;

const THROUGHPUT_VIEW: &str = "design,panel,clients,throughput,aborts";
const LATENCY_VIEW: &str = "design,panel,clients,p50_ns,p99_ns,mean_ns,aborts";

/// Every table and figure, in `all` order.
pub const FIGURES: &[Figure] = &[
    custom(
        "table1",
        "Table 1: the scalability model's symbols with the paper's example values",
        "",
        analytic::table1,
    ),
    custom(
        "table2",
        "Table 2: the three-step scalability analysis at the paper's example parameters",
        "",
        analytic::table2,
    ),
    custom(
        "fig03_theory",
        "Figure 3: theoretical maximal throughput vs memory servers (range, sel=0.001, z=10)",
        "series,servers,max_throughput",
        analytic::fig03,
    ),
    grid(
        "fig07_throughput_skew",
        "Figure 7: throughput, workloads A and B, skewed data, 0-240 clients",
        THROUGHPUT_VIEW,
        Cells::Sweep(DataDist::Skewed),
        grids::throughput_row,
        chart(
            "Figure 7: Throughput, Skewed Data",
            "clients",
            "ops/s",
            true,
            THROUGHPUT,
        ),
    ),
    grid(
        "fig08_throughput_unif",
        "Figure 8: throughput, workloads A and B, uniform data, 0-240 clients",
        THROUGHPUT_VIEW,
        Cells::Sweep(DataDist::Uniform),
        grids::throughput_row,
        chart(
            "Figure 8: Throughput, Uniform Data",
            "clients",
            "ops/s",
            true,
            THROUGHPUT,
        ),
    ),
    grid(
        "fig09_network",
        "Figure 9: network utilization (GB/s), skewed data, with the aggregate capacity line",
        "design,panel,clients,wire_gbps,max_bw_gbps,aborts",
        Cells::Sweep(DataDist::Skewed),
        grids::network_row,
        Some(Chart {
            title: "Figure 9: Network Utilization, Skewed Data",
            xlabel: "clients",
            ylabel: "GB/s",
            logy: false,
            y: |r| r.wire_gbps,
            ceiling: Some(("Max. Bandwidth", |r| r.max_bandwidth_gbps)),
        }),
    ),
    grid(
        "fig10_datasize",
        "Figure 10: throughput vs data size (uniform, 240 clients), point and sel=0.1 range",
        "design,panel,num_keys,throughput,aborts",
        Cells::Own(grids::fig10),
        grids::throughput_row,
        chart(
            "Figure 10: Varying Data Size, Uniform, 240 Clients",
            "keys (log-x as listed)",
            "ops/s",
            true,
            THROUGHPUT,
        ),
    ),
    grid(
        "fig11_servers",
        "Figure 11: throughput vs memory servers (120 clients), CG vs FG, uniform and skewed",
        "design,panel,dist,servers,throughput,aborts",
        Cells::Own(grids::fig11),
        grids::throughput_row,
        chart(
            "Figure 11: Varying Memory Servers, 120 Clients",
            "memory servers",
            "ops/s",
            false,
            THROUGHPUT,
        ),
    ),
    grid(
        "fig12_inserts",
        "Figure 12: workloads C (5% inserts) and D (50%), uniform data, 0-240 clients",
        "series,clients,throughput,aborts",
        Cells::Own(grids::fig12),
        grids::throughput_row,
        chart(
            "Figure 12: Workloads C & D with Inserts (Uniform Data)",
            "clients",
            "ops/s",
            true,
            THROUGHPUT,
        ),
    ),
    grid(
        "fig13_latency_skew",
        "Figure 13: operation latency, workloads A and B, skewed data",
        LATENCY_VIEW,
        Cells::Sweep(DataDist::Skewed),
        grids::latency_row,
        chart(
            "Figure 13: Latency (p50, seconds), Skewed Data",
            "clients",
            "latency s",
            true,
            grids::p50_secs,
        ),
    ),
    grid(
        "fig14_latency_unif",
        "Figure 14: operation latency, workloads A and B, uniform data",
        LATENCY_VIEW,
        Cells::Sweep(DataDist::Uniform),
        grids::latency_row,
        chart(
            "Figure 14: Latency (p50, seconds), Uniform Data",
            "clients",
            "latency s",
            true,
            grids::p50_secs,
        ),
    ),
    grid(
        "fig15_colocation",
        "Figure 15 (A.3): distributed vs co-located NAM, 80 clients, uniform, CG vs FG",
        "design,panel,deployment,throughput,aborts",
        Cells::Own(grids::fig15),
        grids::throughput_row,
        None,
    ),
    Figure {
        also: &[(
            "a04_cache_size",
            "design,dist,capacity,throughput,cache_hit_ratio",
        )],
        ..custom(
            "a04_caching",
            "Appendix A.4: point lookups with and without the engine's client cache, and by cache size (FG, Hybrid)",
            "design,clients,uncached_tput,cached_tput,cache_hit_ratio",
            caching::a04_caching,
        )
    },
    grid(
        "ablation_heads",
        "Ablation: scan READ batch (fine-grained range scans, 120 clients)",
        "selectivity,stride,throughput,p50_ns,aborts",
        Cells::Own(grids::ablation_heads),
        grids::batch_row,
        None,
    ),
    grid(
        "ablation_mispredict",
        "Ablation: learned-index mispredict rate vs insert rate",
        "insert_frac,clients,throughput,predictions,mispredicts,mispredict_rate,retrains,fallbacks,epoch_flushes",
        Cells::Own(grids::ablation_mispredict),
        grids::mispredict_row,
        chart(
            "Ablation: Learned-Index Mispredict Rate vs. Insert Rate",
            "insert %",
            "mispredict %",
            false,
            |r| grids::mispredict_rate(r) * 100.0,
        ),
    ),
    grid(
        "ablation_pagesize",
        "Ablation: index page size P (120 clients, uniform), CG vs FG",
        "design,panel,page_size,throughput,aborts",
        Cells::Own(grids::ablation_pagesize),
        grids::throughput_row,
        None,
    ),
    grid(
        "ablation_partitioning",
        "Ablation: CG partitioning, range vs hash (120 clients, uniform)",
        "scheme,panel,throughput,aborts",
        Cells::Own(grids::ablation_partitioning),
        grids::throughput_row,
        None,
    ),
    grid(
        "ext_request_skew",
        "Extension: Zipfian (theta 0.99) request skew, point queries, 120 clients",
        "design,dist,throughput,aborts",
        Cells::Own(grids::ext_request_skew),
        grids::throughput_row,
        None,
    ),
    custom(
        "ext_gc",
        "Extension: epoch garbage collection under read load",
        "design,reclaimed,gc_micros,reads_no_gc,reads_with_gc",
        gc::ext_gc,
    ),
    Figure {
        also: &[(
            "ext_fault_tolerance_recovery",
            "design,crash,server,recovery_time_us,replay_bytes,records_replayed",
        )],
        ..custom(
            "ext_fault_tolerance",
            "Extension: throughput/abort timelines under an injected fault schedule",
            "design,t_ms,ops,aborts,mean_lat_us",
            fault_tolerance::ext_fault_tolerance,
        )
    },
    custom(
        "ext_recovery",
        "Extension: recovery-time objective vs un-checkpointed log (also BENCH_recovery.json)",
        "design,writes,log_bytes,replay_bytes,rto_us,replay_mbps",
        recovery::ext_recovery,
    ),
    custom(
        "trace_demo",
        "Seeded faulted run exercising every telemetry surface; writes a Perfetto trace",
        "",
        fault_tolerance::trace_demo,
    ),
    // Not in `all` only because of its cost (twelve 10M-key cells,
    // minutes of bulk load); otherwise an entry like any other.
    Figure {
        heavy: true,
        ..grid(
            "scaled_sweep",
            "Scaled sweep: 10M keys, 250-1000 clients, all four designs",
            "design,clients,throughput,p50_ns,p99_ns,wire_gbps,sim_events",
            Cells::Own(grids::scaled_sweep),
            grids::scaled_row,
            None,
        )
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_csv_paths_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let mut stems: Vec<&str> = FIGURES.iter().flat_map(|f| f.csvs()).map(|c| c.0).collect();
        for list in [&mut names, &mut stems] {
            let n = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), n, "duplicate in {list:?}");
        }
        for f in FIGURES {
            assert!(!f.name.starts_with("sweep_"), "reserved for Ctx::sweep");
            assert!(!matches!(f.name, "all" | "list"), "reserved words");
        }
    }

    /// Schema drift shows without running a sweep: a renamed, reordered,
    /// dropped or undeclared column fails.
    #[test]
    fn committed_csvs_carry_the_declared_headers() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let sweep = ("sweep_uniform_100000keys", grids::SWEEP_HEADER);
        for (stem, header) in FIGURES.iter().flat_map(|f| f.csvs()).chain([sweep]) {
            let text = std::fs::read_to_string(results.join(format!("{stem}.csv")))
                .unwrap_or_else(|e| panic!("results/{stem}.csv is not committed: {e}"));
            let committed = text.lines().next().unwrap_or("");
            assert_eq!(header, committed, "{stem}");
        }
    }

    #[test]
    fn all_covers_every_entry_but_the_heavy_one() {
        let all = select(&["all".to_string()]).unwrap();
        let heavy: Vec<&str> = FIGURES.iter().filter(|f| f.heavy).map(|f| f.name).collect();
        assert_eq!(heavy, ["scaled_sweep"]);
        assert_eq!(all.len(), FIGURES.len() - 1);
        assert!(all.iter().all(|f| !f.heavy));
        assert!(all.iter().any(|f| f.name == "ablation_mispredict"));
    }

    #[test]
    fn select_keeps_order_and_rejects_unknown_names() {
        let picked = select(&["table2".to_string(), "table1".to_string()]).unwrap();
        assert_eq!(picked[0].name, "table2");
        assert_eq!(picked[1].name, "table1");
        let err = select(&["fig8".to_string()]).err().unwrap();
        assert!(
            err.contains("\"fig8\"") && err.contains("fig08_throughput_unif"),
            "{err}"
        );
        assert!(select(&[]).err().unwrap().contains("no figure named"));
        assert!(list().contains("scaled_sweep") && list().contains("--racecheck"));
    }

    #[test]
    fn chart_panels_group_in_first_appearance_order() {
        let points = [
            ("point", "Coarse-Grained", 20.0, 10.0),
            ("point", "Coarse-Grained", 240.0, 20.0),
            ("point", "Fine-Grained", 20.0, 5.0),
            ("range_sel0.01", "Fine-Grained", 20.0, 99.0),
            ("point", "Hybrid", 20.0, 7.0),
        ];
        let panels = chart_panels(&points);
        assert_eq!(panels.len(), 2);
        let (name, series) = &panels[0];
        assert_eq!(name, "point");
        assert_eq!(series.len(), 3, "one series per design");
        assert_eq!(series[0].0, "Coarse-Grained");
        assert_eq!(series[0].1, vec![(20.0, 10.0), (240.0, 20.0)]);
        assert_eq!(series[1].1, vec![(20.0, 5.0)], "other panels excluded");
        assert_eq!(panels[1].1[0].1, vec![(20.0, 99.0)]);
    }

    #[test]
    fn trace_paths_number_after_the_first() {
        let args = BenchArgs {
            trace: Some("/tmp/out.json".into()),
            ..BenchArgs::default()
        };
        let ctx = Ctx::new(args, true, PathBuf::from("unused"));
        assert_eq!(ctx.next_trace_path(), Some(PathBuf::from("/tmp/out.json")));
        assert_eq!(
            ctx.next_trace_path(),
            Some(PathBuf::from("/tmp/out.2.json"))
        );
        let cfg = ctx.with_flags(ExperimentConfig::default());
        assert_eq!(cfg.trace_path, Some(PathBuf::from("/tmp/out.3.json")));
        assert!(!cfg.racecheck);
        let plain = Ctx::new(BenchArgs::default(), true, PathBuf::from("unused"));
        assert_eq!(plain.next_trace_path(), None);
        assert_eq!(numbered(PathBuf::from("t"), 2), PathBuf::from("t.2"));
    }

    #[test]
    fn a_grid_figure_measures_once_and_writes_its_csv() {
        let dir = std::env::temp_dir().join("namdex_figures_runner_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = Ctx::new(BenchArgs::default(), true, dir.clone());
        fn cells(ctx: &Ctx) -> Vec<Cell> {
            [4usize, 8]
                .into_iter()
                .map(|clients| {
                    let cfg = ExperimentConfig {
                        num_keys: 5_000,
                        clients,
                        seed: ctx.seed,
                        ..grids::base(ctx)
                    };
                    Cell::new(strs!["t", clients], cfg).plot("", "t", clients as f64)
                })
                .collect()
        }
        let fig = grid(
            "runner_test",
            "test figure",
            "tag,clients,throughput,aborts",
            Cells::Own(cells),
            grids::throughput_row,
            chart("test", "clients", "ops/s", false, THROUGHPUT),
        );
        run_figure(&fig, &ctx);
        let text = std::fs::read_to_string(dir.join("runner_test.csv")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "tag,clients,throughput,aborts");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("t,4,") && lines[2].starts_with("t,8,"));
        std::fs::remove_dir_all(dir).ok();
    }
}
