//! One experiment = one deployed cluster + one index design + N
//! closed-loop clients, measured over a warmup-then-measure window of
//! virtual time.
//!
//! Matches the paper's methodology (§6.1): each client executes index
//! operations in a closed loop (waiting for one to finish before issuing
//! the next) and spreads lookups uniformly at random over the key space;
//! attribute-value skew assigns 80/12/5/3 of the key space to the four
//! servers for the coarse-grained/hybrid partitioning while fine-grained
//! leaves stay scattered round-robin.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use blink::PageLayout;
use namdex_core::{Design, FgConfig, IndexKind, LearnedStats, NamCluster, PartitionMap};
use rdma_sim::chaos::{ChaosController, FaultPlan};
use rdma_sim::{ClusterSpec, Durability, Endpoint, FaultStats, RecoveryRecord, ServerStats};
use simnet::rng::Zipf;
use simnet::stats::{Counter, Histogram};
use simnet::{Sim, SimDur};
use telemetry::{Registry, Telemetry};
use ycsb::{Dataset, Op, OpGen, RequestDist, Workload};

/// Coarse-grained partitioning flavour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CgPartition {
    /// Range partitioning.
    Range,
    /// Hash partitioning (range queries broadcast).
    Hash,
}

/// Data placement: uniform or attribute-value skewed (§6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataDist {
    /// Keys spread evenly over servers.
    Uniform,
    /// 80/12/5/3-style assignment: most keys on server 0.
    Skewed,
}

/// Fractions of the key space per server under attribute-value skew.
/// For 4 servers this is the paper's 80/12/5/3; other counts use a
/// geometric profile with the same character.
pub fn skew_fractions(n: usize) -> Vec<f64> {
    if n == 1 {
        return vec![1.0];
    }
    if n == 4 {
        return vec![0.80, 0.12, 0.05, 0.03];
    }
    let raw: Vec<f64> = (0..n).map(|i| 4.0f64.powi(-(i as i32))).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|f| f / total).collect()
}

/// Full description of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Index design under test.
    pub design: IndexKind,
    /// CG partitioning flavour (ignored by FG).
    pub cg_partition: CgPartition,
    /// Operation mix.
    pub workload: Workload,
    /// Loaded records.
    pub num_keys: u64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Memory servers (packed 2/machine).
    pub memory_servers: usize,
    /// Data placement.
    pub data_dist: DataDist,
    /// Co-locate compute with memory servers (Appendix A.3).
    pub colocated: bool,
    /// Virtual warmup before measuring.
    pub warmup: SimDur,
    /// Virtual measurement window.
    pub measure: SimDur,
    /// Workload seed.
    pub seed: u64,
    /// Index page size `P`.
    pub page_size: usize,
    /// Planned leaves a chain scan READs in one batch (0 reads as 1).
    pub scan_batch: usize,
    /// Client-side cache capacity in entries per client (`Some(0)` =
    /// unbounded, `None` = caching off). FG caches inner pages, Hybrid
    /// caches leaf routes; CG ignores it.
    pub cache_capacity: Option<usize>,
    /// Durability mode of the memory servers (`Wal` makes a crash wipe
    /// RAM and a restart replay the log).
    pub durability: Durability,
    /// Fault schedule to install (None = fault-free run).
    pub fault_plan: Option<FaultPlan>,
    /// Timeline sampling window; `SimDur::ZERO` disables the timeline.
    /// When set, every operation completion (warmup included) lands in
    /// the window of its completion instant, giving the
    /// throughput/abort-rate timelines of the fault-tolerance report.
    pub timeline_window: SimDur,
    /// Record a Chrome-trace/Perfetto JSON of the run to this path
    /// (plus a `*.metrics.csv` registry snapshot next to it). `None`
    /// leaves the run untelemetered — the verb layer's observer hooks
    /// stay behind their flag check and cost nothing measurable.
    pub trace_path: Option<PathBuf>,
    /// Timer-queue backend. Results are bit-identical across kinds
    /// (pinned by the scheduler-equivalence golden tests); the knob
    /// exists so those tests can run the same experiment on both.
    pub scheduler: simnet::SchedulerKind,
    /// Install the happens-before race detector on the cluster and
    /// panic at the end of the run if any rule fired (`--racecheck`).
    pub racecheck: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            design: IndexKind::CoarseGrained,
            cg_partition: CgPartition::Range,
            workload: Workload::a(),
            num_keys: 1_000_000,
            clients: 40,
            memory_servers: 4,
            data_dist: DataDist::Uniform,
            colocated: false,
            warmup: SimDur::from_millis(5),
            measure: SimDur::from_millis(40),
            seed: 42,
            page_size: PageLayout::DEFAULT_PAGE_SIZE,
            scan_batch: FgConfig::default().scan_batch,
            cache_capacity: None,
            durability: Durability::Off,
            fault_plan: None,
            timeline_window: SimDur::ZERO,
            trace_path: None,
            scheduler: simnet::SchedulerKind::default(),
            racecheck: false,
        }
    }
}

/// One timeline window's worth of completions (see
/// [`ExperimentConfig::timeline_window`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct TimelinePoint {
    /// Window start, milliseconds of virtual time.
    pub t_ms: f64,
    /// Operations completed in the window.
    pub ops: u64,
    /// Operations aborted in the window (retries exhausted or client
    /// killed mid-operation).
    pub aborts: u64,
    /// Mean latency of the window's completions, nanoseconds.
    pub mean_lat_ns: f64,
}

/// Measurements from one run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Operations completed inside the measurement window.
    pub ops: u64,
    /// Throughput in operations/second.
    pub throughput: f64,
    /// Latency histogram (nanoseconds) of measured operations.
    pub latency: Histogram,
    /// Wire bytes moved during the window (all servers, both
    /// directions).
    pub wire_bytes: u64,
    /// Wire bandwidth used, GB/s.
    pub wire_gbps: f64,
    /// Aggregate wire capacity of the deployment, GB/s (Fig. 9's "Max.
    /// Bandwidth" line).
    pub max_bandwidth_gbps: f64,
    /// Per-server counter deltas over the window.
    pub per_server: Vec<ServerStats>,
    /// Operations aborted inside the measurement window.
    pub aborts: u64,
    /// Cluster-wide fault/injection counters for the whole run.
    pub fault_stats: FaultStats,
    /// Per-window throughput/abort timeline (empty unless
    /// [`ExperimentConfig::timeline_window`] is set).
    pub timeline: Vec<TimelinePoint>,
    /// Model routing counters for the whole run (`None` unless the
    /// design is [`IndexKind::Learned`]).
    pub learned: Option<LearnedStats>,
    /// Scheduling events the simulator processed over the whole run
    /// (deterministic).
    pub sim_events: u64,
    /// Completed crash/recovery cycles, in completion order (empty
    /// unless [`ExperimentConfig::durability`] is `Wal` and the fault plan
    /// crashes a server).
    pub recoveries: Vec<RecoveryRecord>,
}

fn delta(end: &ServerStats, start: &ServerStats) -> ServerStats {
    ServerStats {
        bytes_in: end.bytes_in - start.bytes_in,
        bytes_out: end.bytes_out - start.bytes_out,
        local_bytes: end.local_bytes - start.local_bytes,
        onesided_ops: end.onesided_ops - start.onesided_ops,
        rpcs: end.rpcs - start.rpcs,
        nic_busy_nanos: end.nic_busy_nanos - start.nic_busy_nanos,
        cpu_busy_nanos: end.cpu_busy_nanos - start.cpu_busy_nanos,
    }
}

/// Build the configured design over the freshly loaded standard
/// dataset of `cfg.num_keys` records.
pub fn build_design(cfg: &ExperimentConfig, nam: &NamCluster) -> Design {
    let data = Dataset::new(cfg.num_keys);
    let layout = PageLayout::new(cfg.page_size);
    let n = nam.num_servers();
    let domain = data.domain();
    let range_partition = match cfg.data_dist {
        DataDist::Uniform => PartitionMap::range_uniform(n, domain),
        DataDist::Skewed => PartitionMap::range_fractions(&skew_fractions(n), domain),
    };
    let fg = FgConfig {
        layout,
        fill: 0.7,
        scan_batch: cfg.scan_batch,
        cache_capacity: cfg.cache_capacity,
    };
    // Only whole-operation trees can be hash-partitioned: upper levels
    // over a chain need routable high keys.
    let partition = match (cfg.design, cfg.cg_partition) {
        (IndexKind::CoarseGrained, CgPartition::Hash) => PartitionMap::hash(n),
        _ => range_partition,
    };
    Design::build(cfg.design, nam, fg, partition, data.iter())
}

/// Run one experiment to completion and return its measurements.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let sim = Sim::with_scheduler(cfg.scheduler);
    // Model-checker parity hook: route every scheduling decision through
    // the explicit FIFO policy so `cargo xtask mc` can prove the
    // controlled scheduler is bit-identical to the uncontrolled executor
    // on the engine-parity golden digest.
    if std::env::var_os("NAMDEX_MC_FIFO").is_some() {
        sim.set_schedule_policy(Box::new(simnet::FifoPolicy));
    }
    let spec = ClusterSpec {
        durability: cfg.durability,
        ..ClusterSpec::with_memory_servers(cfg.memory_servers)
    };
    let machines = spec.machines;
    let nam = NamCluster::new(&sim, spec);
    nam.rdma.set_active_clients(cfg.clients);

    // Telemetry (installed before the build so even setup-phase verbs,
    // if any, are observed; the run is untelemetered when no trace is
    // requested and the observer hooks stay behind their flag check).
    let tel = cfg.trace_path.as_ref().map(|_| {
        let tel = Telemetry::with_trace(Registry::new());
        tel.install(&nam.rdma);
        tel
    });

    // Dynamic checker (opt-in; installed before the build like telemetry
    // so every timed verb of the run is clocked, and told of the loaded
    // pages after it so their writes are judged from the first verb on).
    // The run *fails* on a violation — a race under a bench workload is
    // a protocol bug, not a statistic.
    let race = cfg
        .racecheck
        .then(|| racecheck::Racecheck::install(&nam.rdma, cfg.page_size));

    let data = Dataset::new(cfg.num_keys);
    let design = build_design(cfg, &nam);
    if let Some(race) = &race {
        racecheck::walk::register_design(race, &design);
    }

    let warmup_end = sim.now() + cfg.warmup;
    let end = warmup_end + cfg.measure;

    // Fault schedule (installed before any client issues a verb, so the
    // drop-roll RNG is seeded identically for every same-plan run).
    if let Some(plan) = &cfg.fault_plan {
        ChaosController::install(&sim, &nam.rdma, plan.clone());
    }

    // Shared measurement state.
    let ops = Rc::new(Counter::new());
    let aborts = Rc::new(Counter::new());
    let latency = Rc::new(RefCell::new(Histogram::new()));
    let win = cfg.timeline_window;
    let n_windows = if win == SimDur::ZERO {
        0
    } else {
        (end.as_nanos()).div_ceil(win.as_nanos()) as usize
    };
    // (ops, aborts, latency sum) per window.
    let windows = Rc::new(RefCell::new(vec![(0u64, 0u64, 0u64); n_windows]));

    // One Zipf table shared by all clients (it is O(num_keys) to build).
    let zipf = match cfg.workload.dist {
        RequestDist::Zipfian(theta) => Some(Rc::new(Zipf::new(cfg.num_keys, theta))),
        RequestDist::Uniform => None,
    };

    for c in 0..cfg.clients {
        let ep = if cfg.colocated {
            Endpoint::colocated(&nam.rdma, c % machines)
        } else {
            Endpoint::new(&nam.rdma)
        };
        let design = design.clone();
        let sim_c = sim.clone();
        let cluster = nam.rdma.clone();
        let ops = ops.clone();
        let aborts = aborts.clone();
        let latency = latency.clone();
        let windows = windows.clone();
        // Per-client zipf sampling goes through a shared table; OpGen
        // needs its own copy handle, so rebuild tiny per-client
        // generators around the shared table.
        let mut gen = OpGen::with_shared_zipf(
            cfg.workload,
            data,
            c as u64,
            cfg.clients as u64,
            cfg.seed,
            zipf.as_ref().map(|z| (**z).clone()),
        );
        sim.spawn(async move {
            loop {
                let op = gen.next_op();
                let t0 = sim_c.now();
                let outcome = match op {
                    Op::Point(k) => design.lookup(&ep, k).await.map(|_| ()),
                    Op::Range(lo, hi) => design.range(&ep, lo, hi).await.map(|_| ()),
                    Op::Insert(k, v) => design.insert(&ep, k, v).await.map(|_| ()),
                };
                let t1 = sim_c.now();
                // Completion-based counting: an operation belongs to the
                // window it completes in (long scans can outlive the
                // warmup or span window fractions).
                let measured = t1 > warmup_end && t1 <= end;
                let lat = (t1 - t0).as_nanos();
                match outcome {
                    Ok(()) => {
                        if measured {
                            ops.inc();
                            latency.borrow_mut().record(lat);
                        }
                        if win != SimDur::ZERO {
                            let i = (t1.as_nanos() / win.as_nanos()) as usize;
                            if let Some(w) = windows.borrow_mut().get_mut(i) {
                                w.0 += 1;
                                w.2 += lat;
                            }
                        }
                    }
                    Err(e) => {
                        if measured {
                            aborts.inc();
                        }
                        if win != SimDur::ZERO {
                            let i = (t1.as_nanos() / win.as_nanos()) as usize;
                            if let Some(w) = windows.borrow_mut().get_mut(i) {
                                w.1 += 1;
                            }
                        }
                        // A killed client parks until its revival instead
                        // of spinning on `Cancelled` at a frozen virtual
                        // instant.
                        if e.is_cancelled() {
                            while cluster.client_dead(ep.client_id()) {
                                sim_c.sleep(SimDur::from_micros(10)).await;
                            }
                        }
                    }
                }
            }
        });
    }

    // Snapshot counters at the end of warmup.
    let baseline = Rc::new(RefCell::new(Vec::<ServerStats>::new()));
    {
        let nam_rdma = nam.rdma.clone();
        let baseline = baseline.clone();
        let sim_c = sim.clone();
        sim.spawn(async move {
            sim_c.sleep_until(warmup_end).await;
            *baseline.borrow_mut() = nam_rdma.all_stats();
        });
    }

    sim.run_until(end);

    let start_stats = baseline.borrow().clone();
    assert!(
        !start_stats.is_empty(),
        "warmup snapshot task must have fired"
    );
    let end_stats = nam.rdma.all_stats();
    let per_server: Vec<ServerStats> = end_stats
        .iter()
        .zip(start_stats.iter())
        .map(|(e, s)| delta(e, s))
        .collect();
    let wire_bytes: u64 = per_server.iter().map(|s| s.bytes_in + s.bytes_out).sum();
    let secs = cfg.measure.as_secs_f64();
    let count = ops.get();
    let hist = latency.borrow().clone();

    let timeline = windows
        .borrow()
        .iter()
        .enumerate()
        .map(|(i, &(w_ops, w_aborts, lat_sum))| TimelinePoint {
            t_ms: i as f64 * win.as_nanos() as f64 / 1e6,
            ops: w_ops,
            aborts: w_aborts,
            mean_lat_ns: if w_ops > 0 {
                lat_sum as f64 / w_ops as f64
            } else {
                0.0
            },
        })
        .collect();

    if let (Some(tel), Some(path)) = (&tel, &cfg.trace_path) {
        assert_eq!(
            tel.breakdown_mismatches(),
            0,
            "span breakdowns must sum exactly to op latency"
        );
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create trace directory");
        }
        tel.write_chrome_trace(path).expect("write trace JSON");
        let metrics_path = metrics_csv_path(path);
        std::fs::write(&metrics_path, tel.registry().to_csv()).expect("write metrics CSV");
        eprintln!(
            "[trace] wrote {} and {}",
            path.display(),
            metrics_path.display()
        );
    }

    if let Some(race) = &race {
        let c = race.counts();
        eprintln!(
            "[racecheck] {} verbs, {} page reads checked, {} racy, {} dirty, {} validated, {} violations",
            c.verbs_seen, c.reads_checked, c.racy_reads, c.dirty_reads, c.validated, c.violations
        );
        race.assert_clean();
    }

    let result = ExperimentResult {
        ops: count,
        throughput: count as f64 / secs,
        latency: hist,
        wire_bytes,
        wire_gbps: wire_bytes as f64 / secs / 1e9,
        max_bandwidth_gbps: nam.rdma.aggregate_bandwidth() / 1e9,
        per_server,
        aborts: aborts.get(),
        fault_stats: nam.rdma.fault_stats(),
        timeline,
        learned: design.learned_stats(),
        sim_events: sim.events_processed(),
        recoveries: nam.rdma.recovery_records(),
    };
    // The clients loop forever holding `Sim` clones; only this frees the
    // cell. (A drain — a stop flag and `sim.run()` — would hang on killed
    // clients parked until a revival and on chaos and WAL tasks.)
    sim.shutdown();
    result
}

/// The metrics-snapshot path written next to a trace: `out.json` →
/// `out.metrics.csv`.
pub fn metrics_csv_path(trace_path: &std::path::Path) -> PathBuf {
    trace_path.with_extension("metrics.csv")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(design: IndexKind) -> ExperimentConfig {
        ExperimentConfig {
            design,
            num_keys: 20_000,
            clients: 8,
            warmup: SimDur::from_millis(1),
            measure: SimDur::from_millis(5),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn all_designs_produce_throughput() {
        for design in IndexKind::ALL {
            let r = run_experiment(&quick(design));
            assert!(r.ops > 100, "{design:?} completed only {} ops", r.ops);
            assert!(r.throughput > 0.0);
            assert!(r.latency.count() == r.ops);
            assert!(r.wire_bytes > 0);
            assert_eq!(r.learned.is_some(), design == IndexKind::Learned);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_experiment(&quick(IndexKind::FineGrained));
        let b = run_experiment(&quick(IndexKind::FineGrained));
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.wire_bytes, b.wire_bytes);
        assert_eq!(a.latency.percentile(0.5), b.latency.percentile(0.5));
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let mut last = 0.0;
        for clients in [2usize, 8, 32] {
            let cfg = ExperimentConfig {
                clients,
                ..quick(IndexKind::FineGrained)
            };
            let r = run_experiment(&cfg);
            assert!(
                r.throughput > last * 1.2,
                "{clients} clients: {} vs {last}",
                r.throughput
            );
            last = r.throughput;
        }
    }

    #[test]
    fn skewed_data_hurts_cg_only() {
        let mk = |design, dist| {
            let cfg = ExperimentConfig {
                data_dist: dist,
                clients: 32,
                ..quick(design)
            };
            run_experiment(&cfg).throughput
        };
        let cg_u = mk(IndexKind::CoarseGrained, DataDist::Uniform);
        let cg_s = mk(IndexKind::CoarseGrained, DataDist::Skewed);
        let fg_u = mk(IndexKind::FineGrained, DataDist::Uniform);
        let fg_s = mk(IndexKind::FineGrained, DataDist::Skewed);
        assert!(
            cg_s < cg_u * 0.9,
            "CG must lose under skew: {cg_s} vs {cg_u}"
        );
        assert!(
            fg_s > fg_u * 0.85,
            "FG must be robust to skew: {fg_s} vs {fg_u}"
        );
    }

    #[test]
    fn insert_workload_runs_on_all_designs() {
        for design in IndexKind::ALL {
            let cfg = ExperimentConfig {
                workload: Workload::d(),
                ..quick(design)
            };
            let r = run_experiment(&cfg);
            assert!(r.ops > 50, "{design:?}: {}", r.ops);
        }
    }

    #[test]
    fn learned_point_lookups_avoid_rpcs() {
        // Read-only uniform workload (A = 100% point queries): every
        // lookup routes through the model, so the run carries zero RPCs
        // and records predictions without a single fallback.
        let r = run_experiment(&quick(IndexKind::Learned));
        let rpcs: u64 = r.per_server.iter().map(|s| s.rpcs).sum();
        assert_eq!(rpcs, 0, "model-routed lookups must not RPC");
        let l = r.learned.expect("learned stats present");
        assert!(l.predictions > 0);
        assert_eq!(l.fallbacks, 0);
    }

    #[test]
    fn colocation_raises_throughput() {
        let base = quick(IndexKind::CoarseGrained);
        let distributed = run_experiment(&base).throughput;
        let colocated = run_experiment(&ExperimentConfig {
            colocated: true,
            ..base
        })
        .throughput;
        assert!(
            colocated > distributed,
            "co-location must help: {colocated} vs {distributed}"
        );
    }

    #[test]
    fn hash_partition_runs() {
        let cfg = ExperimentConfig {
            cg_partition: CgPartition::Hash,
            workload: Workload::b(0.01),
            ..quick(IndexKind::CoarseGrained)
        };
        let r = run_experiment(&cfg);
        assert!(
            r.ops > 20,
            "hash-partitioned ranges must complete: {}",
            r.ops
        );
    }

    #[test]
    fn more_servers_help_fg() {
        let small = run_experiment(&ExperimentConfig {
            memory_servers: 2,
            clients: 32,
            ..quick(IndexKind::FineGrained)
        })
        .throughput;
        let big = run_experiment(&ExperimentConfig {
            memory_servers: 8,
            clients: 32,
            ..quick(IndexKind::FineGrained)
        })
        .throughput;
        assert!(
            big > small * 1.2,
            "FG must scale with servers: {small} -> {big}"
        );
    }

    #[test]
    fn traced_runs_are_byte_identical_per_seed() {
        let dir = std::env::temp_dir().join("namdex_driver_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |name: &str| {
            let cfg = ExperimentConfig {
                clients: 4,
                num_keys: 5_000,
                warmup: SimDur::from_millis(1),
                measure: SimDur::from_millis(2),
                trace_path: Some(dir.join(name)),
                ..quick(IndexKind::Hybrid)
            };
            run_experiment(&cfg);
            let trace = std::fs::read_to_string(dir.join(name)).unwrap();
            let metrics = std::fs::read_to_string(metrics_csv_path(&dir.join(name))).unwrap();
            (trace, metrics)
        };
        let (trace_a, metrics_a) = run("a.json");
        let (trace_b, metrics_b) = run("b.json");
        assert_eq!(trace_a, trace_b, "same seed must give an identical trace");
        assert_eq!(metrics_a, metrics_b);
        assert!(trace_a.contains("\"ph\":\"X\""), "verb events present");
        assert!(trace_a.contains("\"ph\":\"B\""), "op spans present");
        assert!(metrics_a.contains("op.lookup.count"));
        std::fs::remove_dir_all(dir).ok();
    }

    /// A finished experiment frees its cell — with clients killed and
    /// never revived, a crashed server's WAL recovery and telemetry in
    /// the run — so its pools come back as this thread's spare memory.
    #[test]
    fn a_finished_run_frees_its_cell() {
        let dir = std::env::temp_dir().join("namdex_driver_frees_its_cell");
        let keys = 150_000;
        let cfg = ExperimentConfig {
            num_keys: keys,
            memory_servers: 2,
            workload: Workload::d(),
            durability: Durability::Wal,
            fault_plan: Some(
                FaultPlan::new()
                    .kill_client(simnet::SimTime::from_micros(1500), 1)
                    .crash_server(simnet::SimTime::from_micros(1200), 1)
                    .restart_server(simnet::SimTime::from_micros(1400), 1),
            ),
            trace_path: Some(dir.join("cell.json")),
            ..quick(IndexKind::FineGrained)
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(blink::mem::spare_bytes(), 0);
                let r = run_experiment(&cfg);
                assert!(r.ops > 0 && r.recoveries.len() == 1);
                let spare = blink::mem::spare_bytes() as u64;
                assert!(
                    spare >= keys * 16,
                    "only {spare} bytes of the cell's pools came back"
                );
            });
        });
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn skew_fractions_sum_to_one() {
        for n in 1..=8 {
            let f = skew_fractions(n);
            assert_eq!(f.len(), n);
            assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            if n > 1 {
                assert!(f[0] > 0.5, "first server dominates");
            }
        }
    }
}
