//! The probe stage of a traced run: each layer on its own, one client,
//! no contention, timed around the layer's public calls. Every value is
//! the median of five batches. The `sim_ns` and `verbs` values are the
//! calibration guard: they do not depend on the host, and a change in one
//! is a change of the model.

use std::hint::black_box;
use std::rc::Rc;

use namdex::index::CacheLayer;
use namdex::prelude::*;
use namdex::rdma::RpcReply;
use namdex::sim::resource::{CpuPool, FifoLink};
use namdex::sim::rng::{DetRng, Zipf};
use namdex::sim::stats::Histogram;
use namdex::sim::SchedulerKind;
use namdex::telemetry::COMPONENTS;
use namdex::tree::{InnerNodeMut, InnerNodeRef, LeafNodeMut, LeafNodeRef, Ptr, KEY_MAX};

use crate::cell::{build_design, run_cell, CellResult, Observer};
use crate::host::{now_ns, Spans};
use crate::spec::{DesignKind, Mix, WorkloadSpec, ALL_DESIGNS, BASE};

const BATCHES: usize = 5;
const PAGE: usize = PageLayout::DEFAULT_PAGE_SIZE;

/// The per-layer ledger: `(metric name, value)` in emission order.
pub type Ledger = Vec<(String, f64)>;

/// Median of `values` (the mean of the middle two of an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// Median over the batches of the host nanoseconds `batch` takes per
/// item, `batch` returning how many items it processed.
fn host_ns_per_item(mut batch: impl FnMut() -> u64) -> f64 {
    median(
        (0..BATCHES)
            .map(|_| {
                let t0 = now_ns();
                let n = batch();
                (now_ns() - t0) as f64 / n as f64
            })
            .collect(),
    )
}

fn simnet(out: &mut Ledger) {
    for (name, kind) in [
        ("wheel", SchedulerKind::Wheel),
        ("heap", SchedulerKind::Heap),
    ] {
        let ns = host_ns_per_item(|| {
            let sim = Sim::with_scheduler(kind);
            for task in 0..64u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for i in 0..2_000u64 {
                        s.sleep(SimDur::from_nanos(300 + 37 * task + 50 * (i % 7)))
                            .await;
                    }
                });
            }
            sim.run();
            sim.events_processed()
        });
        out.push((format!("simnet.{name}.host_ns_per_event"), ns));
    }

    const N: u64 = 100_000;
    let dur = SimDur::from_nanos(700);
    let ns = host_ns_per_item(|| {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let link = FifoLink::new();
            for _ in 0..N {
                link.acquire(&s, dur).await;
            }
        });
        sim.run();
        N
    });
    out.push(("simnet.fifolink.host_ns_per_acquire".into(), ns));
    let ns = host_ns_per_item(|| {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let pool = CpuPool::new(4);
            for _ in 0..N {
                pool.run(&s, dur).await;
            }
        });
        sim.run();
        N
    });
    out.push(("simnet.cpupool.host_ns_per_grant".into(), ns));

    let zipf = Zipf::new(1_000_000, Zipf::YCSB_THETA);
    let mut rng = DetRng::seed_from_u64(1);
    let ns = host_ns_per_item(|| {
        for _ in 0..N {
            black_box(zipf.sample_scrambled(&mut rng));
        }
        N
    });
    out.push(("simnet.zipf.host_ns_per_sample".into(), ns));
    let mut hist = Histogram::new();
    let ns = host_ns_per_item(|| {
        for _ in 0..N {
            hist.record(black_box(rng.next_u64_below(1 << 20)));
        }
        N
    });
    black_box(hist.count());
    out.push(("simnet.histogram.host_ns_per_record".into(), ns));
}

/// One verb kind, issued `K` times by a single client against an idle
/// cluster: host and virtual nanoseconds per verb.
fn rdma(out: &mut Ledger) {
    const K: u64 = 2_000;
    #[derive(Clone, Copy)]
    enum Verb {
        Read,
        Write,
        Cas,
        Faa,
        Rpc,
        ReadMany8,
    }
    for (name, verb) in [
        ("read", Verb::Read),
        ("write", Verb::Write),
        ("cas", Verb::Cas),
        ("faa", Verb::Faa),
        ("rpc", Verb::Rpc),
        ("read_many8", Verb::ReadMany8),
    ] {
        let mut sim_ns = 0.0;
        let host_ns = host_ns_per_item(|| {
            let sim = Sim::new();
            let nam = NamCluster::new(&sim, ClusterSpec::default());
            let servers = nam.num_servers();
            let pages: Vec<(RemotePtr, usize)> = (0..8)
                .map(|i| (nam.rdma.setup_alloc(i % servers, PAGE as u64), PAGE))
                .collect();
            let ep = Endpoint::new(&nam.rdma);
            let cpu = nam.rdma.spec().rpc_fixed_cpu;
            sim.spawn(async move {
                let page = [7u8; PAGE];
                let ptr = pages[0].0;
                for _ in 0..K {
                    let ok = match verb {
                        Verb::Read => ep.read(ptr, PAGE).await.is_ok(),
                        Verb::Write => ep.write(ptr, &page).await.is_ok(),
                        Verb::Cas => ep.cas(ptr, 0, 0).await.is_ok(),
                        Verb::Faa => ep.fetch_add(ptr, 2).await.is_ok(),
                        Verb::Rpc => {
                            let reply = || RpcReply {
                                value: (),
                                cpu,
                                resp_bytes: 64,
                            };
                            ep.rpc(0, 64, reply).await.is_ok()
                        }
                        Verb::ReadMany8 => ep.read_many(&pages).await.is_ok(),
                    };
                    assert!(black_box(ok), "probe verb failed on an idle cluster");
                }
            });
            sim.run();
            sim_ns = sim.now().as_nanos() as f64 / K as f64;
            K
        });
        out.push((format!("rdma.{name}.host_ns"), host_ns));
        out.push((format!("rdma.{name}.sim_ns"), sim_ns));
    }

    const PAGES: u64 = 32 * 1024;
    let mib_per_s = median(
        (0..BATCHES)
            .map(|_| {
                let sim = Sim::new();
                let nam = NamCluster::new(&sim, ClusterSpec::default());
                let page = [7u8; PAGE];
                let t0 = now_ns();
                for _ in 0..PAGES {
                    let ptr = nam.rdma.setup_alloc(0, PAGE as u64);
                    nam.rdma.setup_write(ptr, &page);
                }
                let secs = (now_ns() - t0) as f64 / 1e9;
                (PAGES * PAGE as u64) as f64 / (1 << 20) as f64 / secs
            })
            .collect(),
    );
    out.push(("rdma.pool.setup_write_mib_per_s".into(), mib_per_s));
}

fn blink(out: &mut Ledger) {
    const N: u64 = 100_000;
    let layout = PageLayout::default();
    let per_page = (layout.entry_capacity() as f64 * 0.7) as u64;
    let mut rng = DetRng::seed_from_u64(2);

    let mut leaf = layout.alloc_page();
    let mut node = LeafNodeMut::init(&mut leaf, KEY_MAX, Ptr::NULL, Ptr::NULL);
    for i in 0..per_page {
        node.push(i * 8, i).expect("leaf below capacity");
    }
    let ns = host_ns_per_item(|| {
        let node = LeafNodeRef::new(&leaf);
        for _ in 0..N {
            black_box(node.get(rng.next_u64_below(per_page) * 8));
        }
        N
    });
    out.push(("blink.leaf_get.host_ns".into(), ns));
    // Each round copies the 0.7-full template and inserts 16 fresh keys;
    // the 1 KB copy is amortised over them.
    let ns = host_ns_per_item(|| {
        for _ in 0..N / 16 {
            let mut page = leaf.clone();
            let mut node = LeafNodeMut::new(&mut page);
            for j in 0..16 {
                node.insert(rng.next_u64_below(per_page) * 8 + 1 + j % 7, j)
                    .expect("leaf below capacity");
            }
            black_box(&page);
        }
        N
    });
    out.push(("blink.leaf_insert.host_ns".into(), ns));

    let mut inner = layout.alloc_page();
    let mut node = InnerNodeMut::init(&mut inner, 1, KEY_MAX, Ptr::NULL);
    for i in 0..per_page - 1 {
        node.push(i * 800, Ptr(i + 1))
            .expect("inner below capacity");
    }
    node.push(KEY_MAX, Ptr(per_page))
        .expect("inner below capacity");
    let ns = host_ns_per_item(|| {
        let node = InnerNodeRef::new(&inner);
        for _ in 0..N {
            black_box(node.find_child(rng.next_u64_below(per_page * 800)));
        }
        N
    });
    out.push(("blink.inner_find_child.host_ns".into(), ns));

    const KEYS: u64 = 200_000;
    let mut tree = None;
    let keys_per_s = median(
        (0..BATCHES)
            .map(|_| {
                let t0 = now_ns();
                tree = Some(LocalTree::bulk_load(
                    layout,
                    (0..KEYS).map(|i| (i * 8, i)),
                    0.7,
                ));
                KEYS as f64 / ((now_ns() - t0) as f64 / 1e9)
            })
            .collect(),
    );
    let mut tree = tree.expect("at least one batch ran");
    let ns = host_ns_per_item(|| {
        for _ in 0..N {
            black_box(tree.get(rng.next_u64_below(KEYS) * 8));
        }
        N
    });
    out.push(("blink.localtree.get.host_ns".into(), ns));
    let ns = host_ns_per_item(|| {
        for i in 0..N / 10 {
            black_box(tree.insert(rng.next_u64_below(KEYS * 8) | 1, i));
        }
        N / 10
    });
    out.push(("blink.localtree.insert.host_ns".into(), ns));
    out.push(("blink.localtree.bulk_load_keys_per_s".into(), keys_per_s));
}

fn ycsb(out: &mut Ledger) {
    const N: u64 = 100_000;
    let data = Dataset::new(1_000_000);
    for (name, mix) in [("uniform", Mix::Point), ("zipf", Mix::PointZipf)] {
        let mut gen = OpGen::new(mix.workload(), data, 0, 1, 3);
        let ns = host_ns_per_item(|| {
            for _ in 0..N {
                black_box(gen.next_op());
            }
            N
        });
        out.push((format!("ycsb.opgen.{name}.host_ns"), ns));
    }
}

/// Verbs per operation the protolint cost table (DESIGN.md §14) gives
/// for (lookup, insert without split); `None` = the tree height `L`
/// and `L + 3`, checked as a difference.
fn cost_table(kind: DesignKind) -> Option<(f64, f64)> {
    match kind {
        DesignKind::Cg => Some((1.0, 1.0)),
        DesignKind::Fg => None,
        DesignKind::Hybrid => Some((2.0, 5.0)),
        DesignKind::Learned => Some((1.0, 4.0)),
    }
}

/// Each design, each operation class, one client on an idle 100k-key
/// index. Returns the number of cost-table mismatches.
fn core(out: &mut Ledger) -> u64 {
    const KEYS: u64 = 100_000;
    const K: u64 = 200;
    /// Records kept clear of a partition boundary: the leaf spanning one
    /// resolves through the next partition and costs Hybrid an extra RPC,
    /// which the static table does not price.
    const MARGIN: u64 = 200;
    #[derive(Clone, Copy)]
    enum OpClass {
        Lookup,
        Range100,
        Insert,
    }
    let w = WorkloadSpec { keys: KEYS, ..BASE };
    let data = Dataset::new(KEYS);
    let partition = PartitionMap::range_uniform(4, data.domain());
    let records: Rc<Vec<u64>> = Rc::new(
        (0..K)
            .map(|j| {
                let i = j * (KEYS / K - 1);
                if partition.server_of(data.key(i)) != partition.server_of(data.key(i + MARGIN)) {
                    i + MARGIN
                } else {
                    i
                }
            })
            .collect(),
    );
    let mut mismatches = 0;
    for kind in ALL_DESIGNS {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let design = build_design(&w, kind, &nam, data);
        let mut verbs_of = [0.0; 3];
        for (slot, (name, class)) in [
            ("lookup", OpClass::Lookup),
            ("range100", OpClass::Range100),
            ("insert", OpClass::Insert),
        ]
        .into_iter()
        .enumerate()
        {
            let mut batch = 0u64;
            let mut sim_ns = 0.0;
            let mut verbs = Vec::new();
            let host_ns = host_ns_per_item(|| {
                batch += 1;
                let (design, ep) = (design.clone(), Endpoint::new(&nam.rdma));
                let records = records.clone();
                let failed = Rc::new(std::cell::Cell::new(0u64));
                let failed_in = failed.clone();
                sim.spawn(async move {
                    for &i in records.iter() {
                        let k = data.key(i);
                        let ok = match class {
                            OpClass::Lookup => design.lookup(&ep, k).await == Ok(Some(i)),
                            OpClass::Range100 => design
                                .range(&ep, k, k + 99 * data.gap)
                                .await
                                .is_ok_and(|rows| rows.len() == 100),
                            // A fresh key per batch, inside the loaded
                            // key's leaf: never a split.
                            OpClass::Insert => design.insert(&ep, k + batch, i).await.is_ok(),
                        };
                        if !ok {
                            failed_in.set(failed_in.get() + 1);
                        }
                    }
                });
                let stats = |nam: &NamCluster| -> u64 {
                    nam.rdma
                        .all_stats()
                        .iter()
                        .map(|s| s.onesided_ops + s.rpcs)
                        .sum()
                };
                let (t0, v0) = (sim.now(), stats(&nam));
                sim.run();
                sim_ns = (sim.now() - t0).as_nanos() as f64 / K as f64;
                verbs.push((stats(&nam) - v0) as f64 / K as f64);
                mismatches += failed.get();
                K
            });
            if verbs.iter().any(|&v| v != verbs[0]) {
                mismatches += 1;
            }
            verbs_of[slot] = verbs[0];
            let prefix = format!("core.{}.{name}", kind.key());
            out.push((format!("{prefix}.host_ns"), host_ns));
            out.push((format!("{prefix}.sim_ns"), sim_ns));
            out.push((format!("{prefix}.verbs"), verbs[0]));
        }
        let (lookup, insert) = (verbs_of[0], verbs_of[2]);
        let as_table = match cost_table(kind) {
            Some(want) => (lookup, insert) == want,
            None => lookup >= 2.0 && lookup.fract() == 0.0 && insert == lookup + 3.0,
        };
        if !as_table {
            eprintln!(
                "cost table mismatch: {} lookup {lookup} insert {insert} verbs/op",
                kind.key()
            );
            mismatches += 1;
        }
    }
    mismatches
}

fn cache(out: &mut Ledger) {
    const N: u64 = 100_000;
    const ENTRIES: u64 = 256;
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let layer = CacheLayer::new(&nam.rdma, 0);
    let ptr = |i: u64| RemotePtr::new(0, 8 + i * PAGE as u64);
    for i in 0..ENTRIES {
        layer.put_page(0, ptr(i), vec![7u8; PAGE]);
    }
    let mut rng = DetRng::seed_from_u64(4);
    for (name, base) in [("hit", 0), ("miss", ENTRIES)] {
        let ns = host_ns_per_item(|| {
            for _ in 0..N {
                black_box(layer.page_hit(0, ptr(base + rng.next_u64_below(ENTRIES))));
            }
            N
        });
        out.push((format!("core.cache.{name}.host_ns"), ns));
    }
}

/// An FG insert-only cell under `Durability::Wal` against the same cell
/// under `Durability::Off`.
fn wal(out: &mut Ledger, seed: u64, spans: &Spans) -> u64 {
    const CLIENTS: usize = 16;
    let off = WorkloadSpec {
        name: "wal_probe",
        keys: 100_000,
        clients: CLIENTS,
        mix: Mix::Insert,
        warmup_us: 1_000,
        measure_us: 10_000,
        ..BASE
    };
    let on = WorkloadSpec { wal: true, ..off };
    let run = |w: &WorkloadSpec| run_cell(w, DesignKind::Fg, seed, Observer::Off, spans);
    let (off, on) = (run(&off), run(&on));
    let per_op = |ns: u64, ops: u64| ns as f64 / ops.max(1) as f64;
    out.push((
        "wal.records_per_flush".into(),
        on.wal_records_flushed as f64 / on.wal_device_flushes.max(1) as f64,
    ));
    out.push((
        "wal.device_util".into(),
        on.wal_device_busy_ns as f64 / (4.0 * on.virtual_total_ns as f64),
    ));
    // Mean insert latency by Little's law: clients x window / inserts.
    let mean_ns = |c: &CellResult| per_op(c.window_ns * CLIENTS as u64, c.ops_ok);
    out.push((
        "wal.insert.sim_ns_added".into(),
        mean_ns(&on) - mean_ns(&off),
    ));
    out.push((
        "wal.insert.host_ns_added".into(),
        per_op(on.measure_ns, on.ops()) - per_op(off.measure_ns, off.ops()),
    ));
    off.verify_mismatches + on.verify_mismatches
}

/// ISSUE 11's `overload_1k`, which cannot be a gated workload (operations
/// fail on it, and past the cliff the model is bistable across seeds): the
/// RPC designs at 1000 clients, under telemetry for the stall share. This
/// is where handler queues, `verb_timeout` and `with_retry!` do the work,
/// so the failure path is measured on every traced run.
fn overload(out: &mut Ledger, seed: u64, spans: &Spans) -> u64 {
    let w = WorkloadSpec {
        name: "overload_1k",
        designs: &[DesignKind::Cg, DesignKind::Hybrid],
        clients: 1000,
        warmup_us: 2_000,
        measure_us: 100_000,
        ..BASE
    };
    let cells: Vec<CellResult> = w
        .designs
        .iter()
        .map(|&d| run_cell(&w, d, seed, Observer::Telemetry, spans))
        .collect();
    let sum = |f: fn(&CellResult) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let ops = sum(CellResult::ops).max(1.0);
    let mean = |f: fn(&CellResult) -> f64| cells.iter().map(f).sum::<f64>() / cells.len() as f64;
    let stall = COMPONENTS
        .iter()
        .position(|c| c.label() == "stall")
        .expect("the telemetry has a stall component");
    let stall_ns: u64 = cells.iter().map(|c| c.span_ns[stall]).sum();
    let span_ns: u64 = cells.iter().flat_map(|c| c.span_ns).sum();
    out.push((
        "overload_1k.sim_ops_per_s".into(),
        mean(|c| c.ops_ok as f64 / (c.window_ns as f64 / 1e9)),
    ));
    out.push((
        "overload_1k.failed_ops_ratio".into(),
        sum(|c| c.ops_aborted) / ops,
    ));
    out.push((
        "overload_1k.timeouts_per_op".into(),
        sum(|c| c.timeouts) / ops,
    ));
    out.push((
        "overload_1k.stall_share".into(),
        stall_ns as f64 / span_ns.max(1) as f64,
    ));
    out.push((
        "overload_1k.inflight_at_end_share".into(),
        mean(|c| c.inflight_share),
    ));
    cells.iter().map(|c| c.verify_mismatches).sum()
}

/// Run every probe; returns the ledger and the number of mismatches
/// (failed probe operations, cost-table deviations, oracle mismatches).
pub fn run(seed: u64, spans: &Spans) -> (Ledger, u64) {
    let mut out = Ledger::new();
    let span = spans.enter("probe");
    spans.time("probe.simnet", || simnet(&mut out));
    spans.time("probe.rdma", || rdma(&mut out));
    spans.time("probe.blink", || blink(&mut out));
    spans.time("probe.ycsb", || ycsb(&mut out));
    let (mut mismatches, _) = spans.time("probe.core", || core(&mut out));
    spans.time("probe.core.cache", || cache(&mut out));
    let wal_span = spans.enter("probe.wal");
    mismatches += wal(&mut out, seed, spans);
    spans.exit(wal_span);
    let overload_span = spans.enter("probe.overload_1k");
    mismatches += overload(&mut out, seed, spans);
    spans.exit(overload_span);
    spans.exit(span);
    (out, mismatches)
}
