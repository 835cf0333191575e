//! One cell: a fresh simulated cluster, one index design bulk-loaded
//! over it, and N closed-loop clients, taken through set-up, warm-up, the
//! measured window, the correctness oracle and teardown — each a host
//! span of its own, which `run_experiment` in `crates/bench` cannot give.
//!
//! The harness binds to the `namdex` façade only and hands the program
//! nothing but generated operations: the seed goes into `OpGen` and
//! nowhere else.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use namdex::index::{CacheStats, Design};
use namdex::prelude::*;
use namdex::rdma::ServerStats;
use namdex::sim::rng::Zipf;
use namdex::telemetry::{Registry, Telemetry, COMPONENTS};

use crate::host::{self, Spans};
use crate::spec::{DesignKind, WorkloadSpec};

/// Which verb-bus observer a cell runs under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Observer {
    /// None: the configuration every end-to-end metric is measured in.
    Off,
    /// `Telemetry::new(Registry)`: per-op latency breakdowns.
    Telemetry,
    /// `Racecheck::install`: the happens-before race detector.
    Racecheck,
}

/// Everything measured on one cell.
#[derive(Default, Clone)]
pub struct CellResult {
    // ---- host clock, nanoseconds, as the spans measured them ----
    pub setup_ns: u64,
    pub cluster_new_ns: u64,
    pub build_ns: u64,
    pub zipf_build_ns: u64,
    pub measure_ns: u64,
    pub teardown_ns: u64,
    /// Kernel-mode / total CPU ticks of set-up (100 Hz ticks).
    pub setup_stime: u64,
    pub setup_cputime: u64,
    pub setup_minor_faults: u64,
    /// RSS after dropping the cell minus RSS before building it, KiB.
    pub rss_retained_kib: i64,

    // ---- virtual clock, measured window ----
    pub window_ns: u64,
    pub ops_ok: u64,
    pub ops_aborted: u64,
    /// p99 latency over every operation finished in the window, a failed
    /// one counting as slower than any that succeeded.
    pub p99_ns: u64,
    /// Simulator events processed inside the window / over the cell.
    pub events: u64,
    pub events_total: u64,
    /// Virtual time at the end of the cell (after the oracle).
    pub virtual_total_ns: u64,
    pub verbs: u64,
    pub rpcs: u64,
    pub wire_bytes: u64,
    pub timeouts: u64,
    pub nic_util_max: f64,
    pub cpu_util_max: f64,
    /// Client-time of the window spent in operations still unfinished
    /// at its end, as a share of clients x window.
    pub inflight_share: f64,
    pub cache: Option<CacheStats>,
    pub learned: Option<LearnedStats>,
    /// Σ of each of the telemetry's seven span components over the
    /// whole cell (`Observer::Telemetry` only).
    pub span_ns: [u64; 7],
    /// WAL counters summed over servers (WAL cells only).
    pub wal_records_flushed: u64,
    pub wal_device_flushes: u64,
    pub wal_device_busy_ns: u64,

    // ---- oracle ----
    pub verified: u64,
    pub verify_mismatches: u64,
}

impl CellResult {
    pub fn ops(&self) -> u64 {
        self.ops_ok + self.ops_aborted
    }
}

/// State the clients share with the harness.
struct Shared {
    data: Dataset,
    /// No operation of the workload writes, so range results are known.
    read_only: bool,
    warmup_end: SimTime,
    end: SimTime,
    stop: Cell<bool>,
    ok: Cell<u64>,
    aborted: Cell<u64>,
    mismatches: Cell<u64>,
    /// Latency of every operation that finished inside the window; a
    /// failed one enters as [`FAILED_LATENCY`].
    latencies: RefCell<Vec<u32>>,
    /// Start instant of each client's current operation.
    started: Vec<Cell<u64>>,
    /// Every 64th acknowledged insert, for the quiescent re-read.
    acked: RefCell<Vec<(Key, Value)>>,
    acked_count: Cell<u64>,
}

/// The latency sample of an operation that aborted: it missed every
/// latency limit, so it sorts after every operation that succeeded and a
/// change that makes operations fail cannot improve a percentile.
const FAILED_LATENCY: u32 = u32::MAX;

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// The value `Dataset` loads under `key`.
fn loaded_value(data: &Dataset, key: Key) -> Value {
    key / data.gap
}

/// Whether `rows` is exactly the loaded records of `[lo, hi]`, sorted.
fn range_is_exact(data: &Dataset, rows: &[(Key, Value)], lo: Key, hi: Key) -> bool {
    rows.len() as u64 == (hi - lo) / data.gap + 1
        && rows
            .iter()
            .zip((lo..=hi).step_by(data.gap as usize))
            .all(|(&(k, v), want)| k == want && v == loaded_value(data, want))
}

/// The paper's attribute-value skew: shares of the key space per server.
const SKEW: [f64; 4] = [0.80, 0.12, 0.05, 0.03];

pub fn build_design(w: &WorkloadSpec, kind: DesignKind, nam: &NamCluster, data: Dataset) -> Design {
    let cfg = FgConfig {
        cache_capacity: w.cache,
        ..FgConfig::default()
    };
    let n = nam.num_servers();
    let partition = if w.skewed {
        PartitionMap::range_fractions(&SKEW, data.domain())
    } else {
        PartitionMap::range_uniform(n, data.domain())
    };
    match kind {
        DesignKind::Cg => Design::Cg(CoarseGrained::build(
            nam,
            cfg.layout,
            partition,
            data.iter(),
            cfg.fill,
        )),
        DesignKind::Fg => Design::Fg(FineGrained::build(&nam.rdma, cfg, data.iter())),
        DesignKind::Hybrid => Design::Hybrid(Hybrid::build(nam, cfg, partition, data.iter())),
        DesignKind::Learned => Design::Learned(Learned::build(nam, cfg, partition, data.iter())),
    }
}

async fn client_loop(
    shared: Rc<Shared>,
    sim: Sim,
    design: Design,
    ep: Endpoint,
    mut gen: OpGen,
    slot: usize,
) {
    let data = shared.data;
    while !shared.stop.get() {
        let op = gen.next_op();
        let t0 = sim.now();
        shared.started[slot].set(t0.as_nanos());
        // The O(1) part of the oracle runs in line; the row-by-row and
        // re-read checks run after the window, in `verify`.
        let ok = match op {
            Op::Point(k) => match design.lookup(&ep, k).await {
                Ok(v) => {
                    if v != Some(loaded_value(&data, k)) {
                        bump(&shared.mismatches);
                    }
                    true
                }
                Err(_) => false,
            },
            Op::Range(lo, hi) => match design.range(&ep, lo, hi).await {
                Ok(rows) => {
                    if shared.read_only
                        && (rows.len() as u64 != (hi - lo) / data.gap + 1
                            || rows.first() != Some(&(lo, loaded_value(&data, lo)))
                            || rows.last() != Some(&(hi, loaded_value(&data, hi))))
                    {
                        bump(&shared.mismatches);
                    }
                    true
                }
                Err(_) => false,
            },
            Op::Insert(k, v) => match design.insert(&ep, k, v).await {
                Ok(()) => {
                    let n = shared.acked_count.get();
                    shared.acked_count.set(n + 1);
                    if n.is_multiple_of(64) {
                        shared.acked.borrow_mut().push((k, v));
                    }
                    true
                }
                Err(_) => false,
            },
        };
        let t1 = sim.now();
        // Completion-based counting, as the figure driver does.
        if t1 > shared.warmup_end && t1 <= shared.end {
            let latency = if ok {
                bump(&shared.ok);
                (t1 - t0).as_nanos().min(FAILED_LATENCY as u64 - 1) as u32
            } else {
                bump(&shared.aborted);
                FAILED_LATENCY
            };
            shared.latencies.borrow_mut().push(latency);
        }
    }
    shared.started[slot].set(u64::MAX);
}

/// The oracle's quiescent pass: one client, nothing else running.
/// Re-reads every sampled acknowledged insert, 256 evenly spaced loaded
/// keys and 9 whole ranges row by row. Returns (checked, mismatches).
async fn verify(
    design: Design,
    ep: Endpoint,
    data: Dataset,
    acked: Vec<(Key, Value)>,
    range_records: u64,
) -> (u64, u64) {
    let mut checked = 0;
    let mut bad = 0;
    for (k, v) in acked {
        checked += 1;
        // The index is non-unique and two clients may have drawn the
        // same fresh key, so look for the pair, not the first value.
        match design.range(&ep, k, k).await {
            Ok(rows) if rows.contains(&(k, v)) => {}
            _ => bad += 1,
        }
    }
    let step = (data.num_keys / 256).max(1);
    for i in (0..data.num_keys).step_by(step as usize) {
        checked += 1;
        let k = data.key(i);
        if design.lookup(&ep, k).await != Ok(Some(loaded_value(&data, k))) {
            bad += 1;
        }
    }
    if range_records > 0 {
        let span = range_records.min(data.num_keys);
        let step = ((data.num_keys - span) / 8).max(1);
        for start in (0..=data.num_keys - span).step_by(step as usize) {
            checked += 1;
            let (lo, hi) = (data.key(start), data.key(start + span - 1));
            match design.range(&ep, lo, hi).await {
                Ok(rows) if range_is_exact(&data, &rows, lo, hi) => {}
                _ => bad += 1,
            }
        }
    }
    (checked, bad)
}

fn totals(stats: &[ServerStats]) -> (u64, u64, u64) {
    let verbs = stats.iter().map(|s| s.onesided_ops + s.rpcs).sum();
    let rpcs = stats.iter().map(|s| s.rpcs).sum();
    let wire = stats.iter().map(|s| s.bytes_in + s.bytes_out).sum();
    (verbs, rpcs, wire)
}

/// Run one cell of workload `w` on design `kind`.
pub fn run_cell(
    w: &WorkloadSpec,
    kind: DesignKind,
    seed: u64,
    observer: Observer,
    spans: &Spans,
) -> CellResult {
    let mut r = CellResult::default();
    let cell_span = spans.enter(format!("cell.{}", kind.key()));
    let rss_before = host::rss_kib();

    // ---- set-up: everything before the first `run_until` ----
    let setup_span = spans.enter("setup");
    let proc_before = host::proc_stat();
    let ((sim, nam), cluster_new_ns) = spans.time("nam.cluster_new", || {
        let sim = Sim::new();
        let spec = ClusterSpec {
            durability: if w.wal {
                Durability::Wal
            } else {
                Durability::Off
            },
            ..ClusterSpec::default()
        };
        let nam = NamCluster::new(&sim, spec);
        nam.rdma.set_active_clients(w.clients);
        (sim, nam)
    });
    r.cluster_new_ns = cluster_new_ns;
    let telemetry = (observer == Observer::Telemetry).then(|| {
        let t = Telemetry::new(Registry::new());
        t.install(&nam.rdma);
        t
    });
    let racecheck = (observer == Observer::Racecheck)
        .then(|| Racecheck::install(&nam.rdma, PageLayout::DEFAULT_PAGE_SIZE));

    let data = Dataset::new(w.keys);
    let (design, build_ns) = spans.time(format!("core.{}.build", kind.key()), || {
        build_design(w, kind, &nam, data)
    });
    r.build_ns = build_ns;

    let mix = w.mix.workload();
    let (zipf, zipf_build_ns) = spans.time("ycsb.zipf_build", || match mix.dist {
        RequestDist::Zipfian(theta) => Some(Zipf::new(w.keys, theta)),
        RequestDist::Uniform => None,
    });
    r.zipf_build_ns = zipf_build_ns;

    let warmup_end = sim.now() + SimDur::from_micros(w.warmup_us);
    let end = warmup_end + SimDur::from_micros(w.measure_us);
    let shared = Rc::new(Shared {
        data,
        read_only: w.mix.read_only(),
        warmup_end,
        end,
        stop: Cell::new(false),
        ok: Cell::new(0),
        aborted: Cell::new(0),
        mismatches: Cell::new(0),
        latencies: RefCell::new(Vec::with_capacity(1 << 20)),
        started: (0..w.clients).map(|_| Cell::new(u64::MAX)).collect(),
        acked: RefCell::new(Vec::new()),
        acked_count: Cell::new(0),
    });
    spans.time("spawn_clients", || {
        for c in 0..w.clients {
            let gen =
                OpGen::with_shared_zipf(mix, data, c as u64, w.clients as u64, seed, zipf.clone());
            sim.spawn(client_loop(
                shared.clone(),
                sim.clone(),
                design.clone(),
                Endpoint::new(&nam.rdma),
                gen,
                c,
            ));
        }
    });
    let proc_after = host::proc_stat();
    r.setup_ns = spans.exit(setup_span);
    r.setup_stime = proc_after.stime - proc_before.stime;
    r.setup_cputime = r.setup_stime + (proc_after.utime - proc_before.utime);
    r.setup_minor_faults = proc_after.minflt - proc_before.minflt;

    // ---- warm-up, then the measured window ----
    spans.time("warmup", || sim.run_until(warmup_end));
    let stats0 = nam.rdma.all_stats();
    let timeouts0 = nam.rdma.fault_stats().verbs_timed_out;
    let events0 = sim.events_processed();
    let (_, measure_ns) = spans.time("measure", || sim.run_until(end));
    r.measure_ns = measure_ns;
    r.events = sim.events_processed() - events0;
    r.window_ns = (end - warmup_end).as_nanos();

    let stats1 = nam.rdma.all_stats();
    let (v0, rpc0, wire0) = totals(&stats0);
    let (v1, rpc1, wire1) = totals(&stats1);
    r.verbs = v1 - v0;
    r.rpcs = rpc1 - rpc0;
    r.wire_bytes = wire1 - wire0;
    r.timeouts = nam.rdma.fault_stats().verbs_timed_out - timeouts0;
    let cores = nam.rdma.spec().rpc_cores_per_server as f64;
    for (a, b) in stats0.iter().zip(&stats1) {
        let window = r.window_ns as f64;
        r.nic_util_max = r
            .nic_util_max
            .max((b.nic_busy_nanos - a.nic_busy_nanos) as f64 / window);
        r.cpu_util_max = r
            .cpu_util_max
            .max((b.cpu_busy_nanos - a.cpu_busy_nanos) as f64 / (window * cores));
    }
    r.ops_ok = shared.ok.get();
    r.ops_aborted = shared.aborted.get();
    let inflight_ns: u64 = shared
        .started
        .iter()
        .map(|s| {
            end.as_nanos()
                .saturating_sub(s.get().max(warmup_end.as_nanos()))
        })
        .sum();
    r.inflight_share = inflight_ns as f64 / (r.window_ns as f64 * w.clients as f64);

    // ---- oracle: drain the clients, then one quiescent client ----
    let verify_span = spans.enter("verify");
    shared.stop.set(true);
    sim.run();
    {
        let mut lat = shared.latencies.borrow_mut();
        let n = lat.len();
        if n > 0 {
            r.p99_ns = *lat.select_nth_unstable(n * 99 / 100).1 as u64;
        }
    }
    let outcome = Rc::new(Cell::new((0, 0)));
    {
        let outcome = outcome.clone();
        let acked = shared.acked.take();
        let range_records = if w.mix.read_only() {
            (mix.selectivity * w.keys as f64) as u64
        } else {
            0
        };
        let fut = verify(
            design.clone(),
            Endpoint::new(&nam.rdma),
            data,
            acked,
            range_records,
        );
        sim.spawn(async move { outcome.set(fut.await) });
    }
    sim.run();
    let (verified, bad) = outcome.get();
    r.verified = verified;
    r.verify_mismatches = bad + shared.mismatches.get();
    if let Some(rc) = &racecheck {
        r.verify_mismatches += rc.counts().violations;
    }
    spans.exit(verify_span);

    r.events_total = sim.events_processed();
    r.virtual_total_ns = sim.now().as_nanos();
    r.cache = design.cache_stats();
    r.learned = design.learned_stats();
    if let Some(t) = &telemetry {
        r.verify_mismatches += t.breakdown_mismatches();
        for row in t.registry().snapshot() {
            let Some(rest) = row.name.strip_prefix("span.") else {
                continue;
            };
            for (i, c) in COMPONENTS.iter().enumerate() {
                if rest.ends_with(&format!(".{}_ns", c.label())) {
                    r.span_ns[i] += row.value as u64;
                }
            }
        }
    }
    for s in 0..nam.num_servers() {
        if let Some(ws) = nam.rdma.wal_stats(s) {
            r.wal_records_flushed += ws.records_flushed;
            r.wal_device_flushes += ws.device_flushes;
            r.wal_device_busy_ns += ws.device_busy_nanos;
        }
    }

    // ---- teardown: drop the index, the cluster and the simulator ----
    let (_, teardown_ns) = spans.time("teardown", move || {
        drop((shared, design, telemetry, racecheck, nam, sim));
    });
    r.teardown_ns = teardown_ns;
    r.rss_retained_kib = host::rss_kib() as i64 - rss_before as i64;
    spans.exit(cell_span);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BASE;

    /// Past the cliff operations abort, and each counts against p99: a
    /// change that tips a workload over cannot improve its latency.
    #[test]
    fn failed_operations_count_against_the_percentile() {
        let w = WorkloadSpec {
            keys: 100_000,
            clients: 1000,
            warmup_us: 2_000,
            measure_us: 30_000,
            ..BASE
        };
        let r = run_cell(&w, DesignKind::Cg, 7, Observer::Off, &Spans::default());
        assert!(
            r.timeouts > 0 && r.ops_aborted * 100 > r.ops(),
            "{} of {}",
            r.ops_aborted,
            r.ops()
        );
        assert_eq!(r.p99_ns, FAILED_LATENCY as u64);
        assert_eq!(r.verify_mismatches, 0);
    }
}
