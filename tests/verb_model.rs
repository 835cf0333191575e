//! The documented verbs-per-op model (DESIGN.md §14) checked against
//! verb counts measured from the simulator's server statistics.
//!
//! For each design a fresh single-client cluster runs four phases —
//! lookup (present keys), insert (fresh keys, no splits), delete (miss),
//! delete (hit) — of `K` widely-spaced ops each, and the per-phase delta
//! of summed `ServerStats { rpcs, onesided_ops }` must equal `K` times
//! the table's cost. The symbolic level count `L` of the fine-grained
//! design is derived from its measured lookup phase, not assumed, so the
//! check also pins the `L`-polynomials to the actual tree height. The
//! range row is one test per chain design: a scan over `n` leaves of a
//! static tree READs each once, plus what naming them costs — nothing
//! (Learned), the level-1 nodes (FG, all but the first batched with the
//! leaves), one RPC per partition server (Hybrid, with or without a
//! client cache).

use namdex::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const PAGE_SIZE: usize = 256;
/// Preloaded keys `0, 8, .., (KEYS-1)*8` (value = key/8).
const KEYS: u64 = 2_000;
/// Ops per phase.
const K: u64 = 32;
/// Leaves per scan READ batch.
const SCAN_BATCH: usize = 4;
/// Key-unit stride between ops: far enough apart that every op hits its
/// own leaf, so inserts never split a page another phase op touched.
const STRIDE: u64 = KEYS / K;

const PHASES: [&str; 4] = [
    "lookup",
    "insert (no split)",
    "delete (miss)",
    "delete (hit)",
];

/// One design's column of the model.
struct Row {
    design: IndexKind,
    /// Coefficient of `L` in the one-sided cost (1 for client descent).
    levels: u64,
    /// Per phase: `(RPCs, one-sided verbs on top of levels × L)`.
    cells: [(u64, u64); 4],
}

/// The DESIGN.md §14 table: cg 1 RPC; fg L / L+3 / L+2 / L+3; hybrid
/// 1 RPC + 1/4/3/4; learned 1/4/3/4.
const MODEL: [Row; 4] = [
    Row {
        design: IndexKind::CoarseGrained,
        levels: 0,
        cells: [(1, 0), (1, 0), (1, 0), (1, 0)],
    },
    Row {
        design: IndexKind::FineGrained,
        levels: 1,
        cells: [(0, 0), (0, 3), (0, 2), (0, 3)],
    },
    Row {
        design: IndexKind::Hybrid,
        levels: 0,
        cells: [(1, 1), (1, 4), (1, 3), (1, 4)],
    },
    Row {
        design: IndexKind::Learned,
        levels: 0,
        cells: [(0, 1), (0, 4), (0, 3), (0, 4)],
    },
];

fn build(kind: IndexKind, nam: &NamCluster) -> Design {
    build_cached(kind, nam, None)
}

fn build_cached(kind: IndexKind, nam: &NamCluster, cache_capacity: Option<usize>) -> Design {
    let items = (0..KEYS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let cfg = FgConfig {
        layout: PageLayout::new(PAGE_SIZE),
        fill: 0.7,
        scan_batch: SCAN_BATCH,
        cache_capacity,
    };
    Design::build(kind, nam, cfg, partition, items)
}

/// Partition-boundary-safe op index. A key that lives in the leaf
/// *spanning* a partition boundary resolves through the next partition
/// (the leaf is registered under its high key), so the hybrid's
/// leaf-pointer probe pays one extra RPC there. The model prices the
/// first probe only — fall-throughs are boundary/contention artifacts —
/// so the sweep samples keys at least one leaf width away from every
/// boundary. MARGIN (50 indexes) is several leaf widths at this page
/// size and below the op stride, so shifted indexes stay distinct.
fn safe_index(pm: &PartitionMap, i: u64) -> u64 {
    const MARGIN: u64 = 50;
    if pm.server_of(i * 8) != pm.server_of((i + MARGIN) * 8) {
        i + MARGIN
    } else {
        i
    }
}

/// Summed (rpcs, onesided_ops) across all servers.
fn totals(nam: &NamCluster) -> (u64, u64) {
    (0..nam.num_servers())
        .map(|s| nam.rdma.server_stats(s))
        .fold((0, 0), |(r, o), st| (r + st.rpcs, o + st.onesided_ops))
}

/// Run phase `phase` (`K` ops) and return the (rpc, onesided) verb delta.
fn run_phase(sim: &Sim, nam: &NamCluster, idx: &Design, phase: usize) -> (u64, u64) {
    let before = totals(nam);
    let ep = Endpoint::new(&nam.rdma);
    let idx = idx.clone();
    let errs: Rc<RefCell<Vec<String>>> = Rc::default();
    let errs2 = errs.clone();
    let pm = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    sim.spawn(async move {
        for j in 0..K {
            let base = safe_index(&pm, j * STRIDE);
            let outcome = match phase {
                0 => {
                    let got = idx.lookup(&ep, (base + 3) * 8).await;
                    (got == Ok(Some(base + 3)))
                        .then_some(())
                        .ok_or(format!("{got:?}"))
                }
                1 => {
                    let key = (base + 1) * 8 + 4;
                    idx.insert(&ep, key, key ^ 1)
                        .await
                        .map_err(|e| format!("{e:?}"))
                }
                2 => {
                    let got = idx.delete(&ep, (base + 5) * 8 + 2).await;
                    (got == Ok(false)).then_some(()).ok_or(format!("{got:?}"))
                }
                _ => {
                    let got = idx.delete(&ep, (base + 7) * 8).await;
                    (got == Ok(true)).then_some(()).ok_or(format!("{got:?}"))
                }
            };
            if let Err(e) = outcome {
                errs2
                    .borrow_mut()
                    .push(format!("{} #{j}: {e}", PHASES[phase]));
            }
        }
    });
    sim.run();
    assert!(errs.borrow().is_empty(), "ops failed: {:?}", errs.borrow());
    let after = totals(nam);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn measured_verbs_per_op_equal_the_documented_model() {
    let measured: Vec<[(u64, u64); 4]> = MODEL
        .iter()
        .map(|row| {
            let sim = Sim::new();
            let nam = NamCluster::new(&sim, ClusterSpec::default());
            let idx = build(row.design, &nam);
            std::array::from_fn(|phase| run_phase(&sim, &nam, &idx, phase))
        })
        .collect();

    // Derive L from the fine-grained lookup phase: with caching off, a
    // lookup is exactly one READ per level and nothing else.
    let (fg_rpc, fg_os) = measured[1][0];
    assert_eq!(MODEL[1].design, IndexKind::FineGrained);
    assert!(
        fg_rpc == 0 && fg_os > 0 && fg_os % K == 0,
        "fg lookup phase is not L reads/op (rpc delta {fg_rpc}, onesided delta {fg_os})"
    );
    let l = fg_os / K;
    assert!((2..=8).contains(&l), "implausible derived tree height {l}");

    for (row, per) in MODEL.iter().zip(&measured) {
        for (phase, (&(rpc, os), &got)) in row.cells.iter().zip(per).enumerate() {
            let want = (rpc * K, (row.levels * l + os) * K);
            assert_eq!(
                got,
                want,
                "{} {}: measured (rpc, os) != model at L = {l}",
                row.design.key(),
                PHASES[phase]
            );
        }
    }
}

/// The scanned ranges: 1 to ~450 keys (one leaf to several READ
/// batches), some across partition boundaries.
fn scan_ranges() -> Vec<(u64, u64)> {
    (0..K)
        .map(|j| {
            let lo = (j * STRIDE) * 8 + 3;
            (lo, (lo + (j * 113 % 450) * 8).min(KEYS * 8 - 5))
        })
        .collect()
}

/// The range row: on a static tree a scan READs each leaf it spans
/// exactly once, in batches named by the node above the leaves.
/// `cost(lo, hi)` is the design's `(rpc, os)` for a scan of `[lo, hi]`,
/// counted from that node level; this checks it over [`scan_ranges`],
/// each scanned by client `ep`.
fn check_scan_costs(
    idx: &Design,
    nam: &NamCluster,
    sim: &Sim,
    ep: &Endpoint,
    cost: impl Fn(u64, u64) -> (u64, u64),
) {
    let ranges = scan_ranges();
    // Per scan: (rows, RPCs, one-sided verbs).
    let want: Vec<(u64, u64, u64)> = ranges
        .iter()
        .map(|&(lo, hi)| {
            let (rpc, os) = cost(lo, hi);
            ((hi - lo) / 8, rpc, os)
        })
        .collect();
    let rows: Rc<Cell<u64>> = Rc::default();
    let measured: Vec<(u64, u64, u64)> = ranges
        .iter()
        .map(|&(lo, hi)| {
            let before = totals(nam);
            let (idx, ep, out) = (idx.clone(), ep.clone(), rows.clone());
            sim.spawn(async move {
                let got = idx.range(&ep, lo, hi).await.expect("range");
                out.set(got.len() as u64);
            });
            sim.run();
            let after = totals(nam);
            (rows.get(), after.0 - before.0, after.1 - before.1)
        })
        .collect();
    assert_eq!(measured, want, "(rows, rpc, os) per scan");
    assert!(want.iter().any(|&(_, _, os)| os > 30), "{want:?}");
}

/// The leaves of a `(high key, node)` table a scan of `[lo, hi]` spans:
/// from the one covering `lo` through the one covering `hi`, as `n`
/// leaves under `k` nodes.
fn spanned(table: &[(u64, usize)], lo: u64, hi: u64) -> (u64, u64) {
    let covering = |key: u64| table.partition_point(|&(high, _)| high < key);
    let (first, last) = (covering(lo), covering(hi));
    let n = (last - first + 1) as u64;
    let k = (table[last].1 - table[first].1 + 1) as u64;
    (n, k)
}

/// Learned: the model's table names the leaves, so a scan over `n` of
/// them is `n` READs and no RPC.
#[test]
fn a_learned_scan_reads_each_spanned_leaf_once() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(IndexKind::Learned, &nam);
    let model = idx.index().router().and_then(|r| r.model());
    let table = model.expect("a trained model").table().to_vec();
    let table: Vec<(u64, usize)> = table.iter().map(|&(high, _)| (high, 0)).collect();
    let ep = Endpoint::new(&nam.rdma);
    check_scan_costs(&idx, &nam, &sim, &ep, |lo, hi| {
        (0, spanned(&table, lo, hi).0)
    });
}

/// FG's tree height `L`, and its level-1 table: down the left edge to
/// level 1, then along it, every child's separator with the index of the
/// level-1 node holding it.
fn fg_level_one(idx: &Design) -> (u64, Vec<(u64, usize)>) {
    use blink::node::InnerNodeRef;
    let src = idx.index().setup_source();
    let root = idx.index().root().expect("remote inner levels");
    let height = InnerNodeRef::new(&src.load(root)).level() as u64 + 1;
    let mut cur = root;
    while InnerNodeRef::new(&src.load(cur)).level() > 1 {
        cur = RemotePtr::from_page_ptr(InnerNodeRef::new(&src.load(cur)).entry(0).1);
    }
    let mut table = Vec::new();
    let mut node = 0;
    while !cur.is_null() {
        let page = src.load(cur);
        let inner = InnerNodeRef::new(&page);
        table.extend((0..inner.count()).map(|i| (inner.entry(i).0, node)));
        cur = RemotePtr::from_page_ptr(inner.right_sibling());
        node += 1;
    }
    assert!(node > 4, "the ranges cross level-1 nodes: {node}");
    (height, table)
}

/// FG: the descent stops at the level-1 node covering `lo` (`L − 1`
/// READs), whose entries name the leaves; each further level-1 node the
/// range reaches is one READ of the right sibling. So `n` leaves under
/// `k` level-1 nodes cost `(L − 1) + (k − 1) + n` READs.
#[test]
fn an_fg_scan_reads_the_level_above_the_leaves_once_per_node() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(IndexKind::FineGrained, &nam);
    let (height, table) = fg_level_one(&idx);
    let ep = Endpoint::new(&nam.rdma);
    check_scan_costs(&idx, &nam, &sim, &ep, |lo, hi| {
        let (n, k) = spanned(&table, lo, hi);
        (0, (height - 1) + (k - 1) + n)
    });
}

/// FG's port time: a scan over `k` level-1 nodes holds ports for
/// exactly the descent's `L − 1` single-message READs, and every other
/// message rides in a batch: the READ of each further level-1 node rides
/// with the last leaves of the node before it. (A batch of one is the
/// single READ it is, and only the last node's final batch can be one.)
/// Per server, `ops` messages holding the port for `busy` nanoseconds
/// are `x` singles and `ops − x` batched exactly when
/// `busy = x·(OP + t) + (ops − x)·(BATCHED + t)`, with `t` the page's
/// wire time on that server's link.
#[test]
fn an_fg_scan_holds_ports_for_single_reads_only_in_its_descent() {
    use namdex::rdma::spec::{BATCHED_WIRE_OVERHEAD, OP_WIRE_OVERHEAD};
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(IndexKind::FineGrained, &nam);
    let (height, table) = fg_level_one(&idx);
    let per_server = |nam: &NamCluster| -> Vec<(u64, u64)> {
        (0..nam.num_servers())
            .map(|s| nam.rdma.server_stats(s))
            .map(|st| (st.onesided_ops, st.nic_busy_nanos))
            .collect()
    };
    let ep = Endpoint::new(&nam.rdma);
    let covering = |key: u64| table.partition_point(|&(high, _)| high < key);
    let (mut want, mut got, mut crossed) = (Vec::new(), Vec::new(), false);
    for (lo, hi) in scan_ranges() {
        // The leaves the scan spans under the last level-1 node it reaches.
        let (first, last) = (covering(lo), covering(hi));
        let on_last = table[first..=last].iter().filter(|e| e.1 == table[last].1);
        let lone = on_last.count() % SCAN_BATCH == 1;
        want.push((height - 1) + lone as u64);
        crossed |= table[first].1 != table[last].1;
        let before = per_server(&nam);
        let (idx, ep) = (idx.clone(), ep.clone());
        sim.spawn(async move {
            idx.range(&ep, lo, hi).await.expect("range");
        });
        sim.run();
        let mut singles = 0;
        for (s, (b, a)) in before.iter().zip(per_server(&nam)).enumerate() {
            let (ops, busy) = (a.0 - b.0, a.1 - b.1);
            let bw = nam.rdma.spec().effective_bandwidth(s);
            let page = SimDur::from_secs_f64(PAGE_SIZE as f64 / bw);
            let (one, many) = (OP_WIRE_OVERHEAD + page, BATCHED_WIRE_OVERHEAD + page);
            let (extra, step) = (busy - ops * many.as_nanos(), (one - many).as_nanos());
            assert_eq!(
                extra % step,
                0,
                "server {s}: {busy} ns is no mix of messages"
            );
            singles += extra / step;
        }
        got.push(singles);
    }
    assert_eq!(got, want, "single-message READs per scan at L = {height}");
    assert!(crossed, "some scan crosses level-1 nodes");
}

/// Hybrid: a resolution RPC returns the run of its partition's local
/// leaves from the one holding `lo`'s ceiling through the first whose
/// high key is `>= hi`, so `n` leaves cost `n` READs and one RPC per
/// partition server the range reaches: from `lo`'s through the one
/// holding the high key of the leaf covering `hi` (a chain leaf is
/// registered under its high key, so the leaf spanning a boundary
/// resolves through the next partition).
fn hybrid_scan_cost(idx: &Design, nam: &NamCluster) -> impl Fn(u64, u64) -> (u64, u64) {
    let local = idx.index().local().expect("local upper levels");
    // Every registered leaf high key, in key order.
    let mut table = Vec::new();
    for server in local.nodes() {
        server.with_tree(|t| {
            t.ceiling_run(0, |high, _| {
                table.push((high, 0));
                true
            })
        });
    }
    let pm = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    move |lo, hi| {
        let last = table[table.partition_point(|&(high, _)| high < hi)].0;
        let servers = (pm.server_of(last) - pm.server_of(lo) + 1) as u64;
        (servers, spanned(&table, lo, hi).0)
    }
}

#[test]
fn a_hybrid_scan_asks_each_partition_server_once() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(IndexKind::Hybrid, &nam);
    let ep = Endpoint::new(&nam.rdma);
    let cost = hybrid_scan_cost(&idx, &nam);
    assert!(
        scan_ranges().iter().any(|&(lo, hi)| cost(lo, hi).0 > 1),
        "some range crosses a partition boundary"
    );
    check_scan_costs(&idx, &nam, &sim, &ep, cost);
}

/// A cached route names one leaf, not the leaves after it: a Hybrid
/// scan whose first leaf the client has cached still takes its plan
/// from the server, at the uncached cost.
#[test]
fn a_cached_hybrid_scan_asks_the_server_as_an_uncached_one_does() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build_cached(IndexKind::Hybrid, &nam, Some(0));
    let ep = Endpoint::new(&nam.rdma);
    // Look every scan's low key up twice: the first round caches the
    // route to its leaf, the second hits it.
    for _ in 0..2 {
        let (idx, ep) = (idx.clone(), ep.clone());
        sim.spawn(async move {
            for (lo, _) in scan_ranges() {
                idx.lookup(&ep, lo).await.expect("lookup");
            }
        });
        sim.run();
    }
    let stats = idx.cache_stats().expect("a client cache");
    assert_eq!((stats.hits, stats.misses), (K, K), "{stats:?}");
    check_scan_costs(&idx, &nam, &sim, &ep, hybrid_scan_cost(&idx, &nam));
}

/// Every completed verb, in completion order.
#[derive(Default)]
struct Verbs(RefCell<Vec<namdex::rdma::VerbEvent>>);

impl namdex::rdma::VerbObserver for Verbs {
    fn on_verb(&self, ev: &namdex::rdma::VerbEvent) {
        self.0.borrow_mut().push(*ev);
    }
}

/// A one-sided commit posts its in-place WRITE and its unlock FAA
/// together (DESIGN.md §10): in every FG, Hybrid and Learned insert the
/// FAA is reported right after the WRITE of the same node, issued and
/// completed at the same instants.
#[test]
fn a_commit_writes_back_and_unlocks_in_one_round() {
    use namdex::rdma::VerbKind;
    for kind in [
        IndexKind::FineGrained,
        IndexKind::Hybrid,
        IndexKind::Learned,
    ] {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let idx = build(kind, &nam);
        let verbs = Rc::new(Verbs::default());
        nam.rdma.add_observer(verbs.clone());
        run_phase(&sim, &nam, &idx, 1);
        let events = verbs.0.borrow();
        let unlocks: Vec<_> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, VerbKind::Faa { .. }))
            .collect();
        assert_eq!(
            unlocks.len() as u64,
            K,
            "{}: one commit per insert",
            kind.key()
        );
        for (i, faa) in unlocks {
            let write = &events[i - 1];
            assert_eq!(
                (write.kind, write.client, write.server, write.offset),
                (VerbKind::Write, faa.client, faa.server, faa.offset),
                "{}: the unlock follows the write-back of its node",
                kind.key()
            );
            assert_eq!(
                (write.issued, write.time),
                (faa.issued, faa.time),
                "{}: write-back and unlock are one round",
                kind.key()
            );
        }
    }
}
