//! What the benchmark runs and what it reports: the six workloads, the
//! seven end-to-end metrics and the names of the per-layer ledger.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use namdex::prelude::*;

/// One of the four index designs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DesignKind {
    Cg,
    Fg,
    Hybrid,
    Learned,
}

pub const ALL_DESIGNS: [DesignKind; 4] = [
    DesignKind::Cg,
    DesignKind::Fg,
    DesignKind::Hybrid,
    DesignKind::Learned,
];

impl DesignKind {
    /// The design's key in metric names.
    pub fn key(self) -> &'static str {
        match self {
            DesignKind::Cg => "cg",
            DesignKind::Fg => "fg",
            DesignKind::Hybrid => "hybrid",
            DesignKind::Learned => "learned",
        }
    }
}

/// Operation mix of a workload (a row of the paper's Table 3).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Mix {
    /// YCSB A: 100 % point lookups, uniform keys.
    Point,
    /// YCSB A with scrambled-Zipfian keys, theta 0.99.
    PointZipf,
    /// YCSB B: 100 % range scans of selectivity 0.001.
    Range,
    /// YCSB D: 50 % point lookups, 50 % scattered inserts.
    PointInsert,
    /// 100 % scattered inserts (the WAL probe only).
    Insert,
}

impl Mix {
    pub fn workload(self) -> Workload {
        match self {
            Mix::Point => Workload::a(),
            Mix::PointZipf => Workload::a().with_dist(RequestDist::Zipfian(0.99)),
            Mix::Range => Workload::b(0.001),
            Mix::PointInsert => Workload::d(),
            Mix::Insert => Workload {
                point_frac: 0.0,
                insert_frac: 1.0,
                ..Workload::d()
            },
        }
    }

    /// No operation of the mix writes, so every range result is known.
    pub fn read_only(self) -> bool {
        matches!(self, Mix::Point | Mix::PointZipf | Mix::Range)
    }
}

/// One workload: closed-loop clients (paper §6.1) against each of its
/// designs in turn ("cells"), 4 memory servers, 1 KB pages, fill 0.7,
/// head stride 8, default `ClusterSpec`.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` carries it).
    pub why: &'static str,
    pub designs: &'static [DesignKind],
    pub keys: u64,
    pub clients: usize,
    pub mix: Mix,
    /// 80/12/5/3 attribute-value skew instead of uniform placement.
    pub skewed: bool,
    /// Client cache entries per client; `None` = caching off.
    pub cache: Option<usize>,
    /// Virtual warm-up before the measured window, microseconds.
    pub warmup_us: u64,
    /// Virtual measured window, microseconds.
    pub measure_us: u64,
    /// Also measure the race detector's host overhead on a traced run.
    pub racecheck: bool,
    /// Run under `Durability::Wal` (the WAL probe only).
    pub wal: bool,
}

use DesignKind::{Cg, Fg, Hybrid, Learned};

pub const BASE: WorkloadSpec = WorkloadSpec {
    name: "",
    why: "",
    designs: &[Cg, Fg, Hybrid, Learned],
    keys: 1_000_000,
    clients: 120,
    mix: Mix::Point,
    skewed: false,
    cache: None,
    warmup_us: 5_000,
    measure_us: 100_000,
    racecheck: false,
    wal: false,
};

/// The six workloads. The virtual windows are ISSUE 11's shortened
/// uniformly so that one repetition takes 1 to 2 host seconds and a
/// 15-second run holds enough repetitions for a steady median.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "point_uncached",
        why: "Fig 8 headline: uniform point lookups, cache off; executor, verb path and engine descent do the work, loader and cache idle",
        racecheck: true,
        ..BASE
    },
    WorkloadSpec {
        name: "cached_zipf",
        why: "Zipfian lookups through a 256-entry client cache smaller than the inner level, so eviction is active; the only workload with core::cache on the path",
        designs: &[Fg, Hybrid],
        mix: Mix::PointZipf,
        skewed: true,
        cache: Some(256),
        warmup_us: 10_000,
        measure_us: 200_000,
        ..BASE
    },
    WorkloadSpec {
        name: "range_scan",
        why: "1000-row range scans: bandwidth-bound, exercises read_many, head-node prefetch and row materialisation, which point lookups never touch",
        mix: Mix::Range,
        measure_us: 50_000,
        ..BASE
    },
    WorkloadSpec {
        name: "insert_mix",
        why: "50 % inserts beside lookups on skewed placement: lock CAS/FAA, splits, remote alloc, RPC insert handlers and Learned retraining; a read-path gain that taxes writers shows here",
        mix: Mix::PointInsert,
        skewed: true,
        racecheck: true,
        ..BASE
    },
    WorkloadSpec {
        name: "overload_edge",
        why: "250 clients on the RPC designs, the last step before the retry-storm cliff near 400: handler queues set p99 at 0.6 of verb_timeout with no operation failing yet",
        designs: &[Cg, Hybrid],
        clients: 250,
        warmup_us: 2_500,
        measure_us: 200_000,
        ..BASE
    },
    WorkloadSpec {
        name: "load_10m",
        why: "10M keys: bulk load and page faults are most of the wall, so setup_s and peak_rss_mib are the signal, and lookups run over a ~500 MB pool",
        // Without Learned: it completes 60 % of the four designs'
        // operations, and a repetition has to stay near 2 host seconds.
        designs: &[Cg, Fg, Hybrid],
        keys: 10_000_000,
        clients: 250,
        warmup_us: 2_000,
        measure_us: 100_000,
        ..BASE
    },
];

impl WorkloadSpec {
    /// The `--smoke` scale: 100k keys, windows divided by 20.
    pub fn smoke(self) -> Self {
        WorkloadSpec {
            keys: self.keys.min(100_000),
            ..self.with_window_div(20)
        }
    }

    /// The same workload with both virtual windows divided by `div`.
    pub fn with_window_div(self, div: u64) -> Self {
        WorkloadSpec {
            warmup_us: (self.warmup_us / div).max(200),
            measure_us: (self.measure_us / div).max(1_000),
            ..self
        }
    }
}

pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Host time or memory: noisy, reported as a median over repetitions.
    Host,
    /// Virtual time: a pure function of the seed, asserted bit-identical
    /// across repetitions.
    Virtual,
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ns_per_op",
        unit: "ns",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "ops/s",
        clock: Clock::Virtual,
        higher_is_better: true,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "us",
        clock: Clock::Virtual,
        higher_is_better: false,
        bound: 0.16,
    },
    EndToEnd {
        name: "sim_wire_bytes_per_op",
        unit: "bytes",
        clock: Clock::Virtual,
        higher_is_better: false,
        bound: 0.01,
    },
    EndToEnd {
        name: "ok_ops_ratio",
        unit: "ratio",
        clock: Clock::Virtual,
        higher_is_better: true,
        bound: 0.01,
    },
];

/// One per-layer metric: never gated, only explained.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn lower(name: impl Into<String>, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name: name.into(),
        unit,
        higher_is_better: false,
    }
}

fn higher(name: impl Into<String>, unit: &'static str) -> LayerMetric {
    LayerMetric {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// The telemetry's seven latency components, in its own order.
pub fn span_components() -> [&'static str; 7] {
    namdex::telemetry::COMPONENTS.map(|c| c.label())
}

/// The per-workload layer metrics (42), from the traced rerun of the
/// workload at a fifth of its window. A metric of a design the workload
/// does not run, or of an observer it does not install, reads 0.
fn workload_layer_metrics() -> Vec<LayerMetric> {
    let mut v = Vec::new();
    for d in ALL_DESIGNS.map(DesignKind::key) {
        v.push(higher(format!("core.{d}.sim_ops_per_s"), "ops/s"));
        v.push(lower(format!("core.{d}.host_ns_per_op"), "ns"));
        v.push(higher(format!("core.{d}.bulkload_keys_per_s"), "keys/s"));
    }
    v.extend([
        lower("simnet.host_ns_per_event", "ns"),
        lower("simnet.events_per_op", "count"),
        lower("rdma.verbs_per_op", "count"),
        lower("rdma.wire_bytes_per_op", "bytes"),
        lower("rdma.nic_util_max", "ratio"),
        lower("rdma.timeouts_per_op", "count"),
        lower("nam.cpu_util_max", "ratio"),
        lower("nam.rpcs_per_op", "count"),
        lower("nam.cluster_new_s", "s"),
    ]);
    v.extend(span_components().map(|c| lower(format!("span.{c}_share"), "ratio")));
    v.extend([
        lower("core.inflight_at_end_share", "ratio"),
        higher("core.cache.fg.hit_ratio", "ratio"),
        higher("core.cache.hybrid.hit_ratio", "ratio"),
        lower("core.cache.invalidations_per_op", "count"),
        lower("learned.mispredict_ratio", "ratio"),
        lower("learned.retrains", "count"),
        lower("ycsb.zipf_build_s", "s"),
        lower("proc.setup_sys_share", "ratio"),
        lower("proc.setup_minor_faults", "count"),
        lower("proc.rss_retained_mib_per_cell", "MiB"),
        lower("proc.teardown_s", "s"),
        lower("telemetry.host_overhead_ratio", "ratio"),
        lower("racecheck.host_overhead_ratio", "ratio"),
        lower("proc.wall_s", "s"),
    ]);
    v
}

/// The probe-stage layer metrics (74): one client, no contention, except
/// the `overload_1k` cells at the end.
fn probe_layer_metrics() -> Vec<LayerMetric> {
    let mut v = vec![
        lower("simnet.wheel.host_ns_per_event", "ns"),
        lower("simnet.heap.host_ns_per_event", "ns"),
        lower("simnet.fifolink.host_ns_per_acquire", "ns"),
        lower("simnet.cpupool.host_ns_per_grant", "ns"),
        lower("simnet.zipf.host_ns_per_sample", "ns"),
        lower("simnet.histogram.host_ns_per_record", "ns"),
    ];
    for verb in ["read", "write", "cas", "faa", "rpc", "read_many8"] {
        v.push(lower(format!("rdma.{verb}.host_ns"), "ns"));
        v.push(lower(format!("rdma.{verb}.sim_ns"), "ns"));
    }
    v.extend([
        higher("rdma.pool.setup_write_mib_per_s", "MiB/s"),
        lower("blink.leaf_get.host_ns", "ns"),
        lower("blink.leaf_insert.host_ns", "ns"),
        lower("blink.inner_find_child.host_ns", "ns"),
        lower("blink.localtree.get.host_ns", "ns"),
        lower("blink.localtree.insert.host_ns", "ns"),
        higher("blink.localtree.bulk_load_keys_per_s", "keys/s"),
        lower("ycsb.opgen.uniform.host_ns", "ns"),
        lower("ycsb.opgen.zipf.host_ns", "ns"),
    ]);
    for d in ALL_DESIGNS.map(DesignKind::key) {
        for op in ["lookup", "range100", "insert"] {
            v.push(lower(format!("core.{d}.{op}.host_ns"), "ns"));
            v.push(lower(format!("core.{d}.{op}.sim_ns"), "ns"));
            v.push(lower(format!("core.{d}.{op}.verbs"), "count"));
        }
    }
    v.extend([
        lower("core.cache.hit.host_ns", "ns"),
        lower("core.cache.miss.host_ns", "ns"),
        higher("wal.records_per_flush", "count"),
        lower("wal.device_util", "ratio"),
        lower("wal.insert.sim_ns_added", "ns"),
        lower("wal.insert.host_ns_added", "ns"),
        higher("overload_1k.sim_ops_per_s", "ops/s"),
        lower("overload_1k.failed_ops_ratio", "ratio"),
        lower("overload_1k.timeouts_per_op", "count"),
        lower("overload_1k.stall_share", "ratio"),
        lower("overload_1k.inflight_at_end_share", "ratio"),
    ]);
    v
}

/// Every per-layer metric, in report order.
pub fn layer_metrics() -> Vec<LayerMetric> {
    let mut v = workload_layer_metrics();
    v.extend(probe_layer_metrics());
    v
}
