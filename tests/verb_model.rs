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
//! learned design's range row is its own test: a scan over `n` leaves
//! of a static tree is `n` one-sided READs and nothing else.

use namdex::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const PAGE_SIZE: usize = 256;
/// Preloaded keys `0, 8, .., (KEYS-1)*8` (value = key/8).
const KEYS: u64 = 2_000;
/// Ops per phase.
const K: u64 = 32;
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
    let items = (0..KEYS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let cfg = FgConfig {
        layout: PageLayout::new(PAGE_SIZE),
        fill: 0.7,
        head_stride: 4,
        cache_capacity: None,
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

/// The learned column's range row: on a static tree a scan READs each
/// leaf it spans exactly once and nothing else — for `n` leaves, `n`
/// one-sided READs and no RPC, so no head node is READ either. `n` is
/// counted from the trained leaf table: the leaves from the one covering
/// `lo` through the one covering `hi`.
#[test]
fn a_learned_scan_reads_each_spanned_leaf_once() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let idx = build(IndexKind::Learned, &nam);
    let model = idx.index().router().and_then(|r| r.model());
    let table = model.expect("a trained model").table().to_vec();
    let covering = |key: u64| table.partition_point(|&(high, _)| high < key) as u64;
    // Ranges of 1 to ~450 keys (one leaf to several head groups), some
    // across partition boundaries.
    let ranges: Vec<(u64, u64)> = (0..K)
        .map(|j| {
            let lo = (j * STRIDE) * 8 + 3;
            (lo, (lo + (j * 113 % 450) * 8).min(KEYS * 8 - 5))
        })
        .collect();
    // Per scan: (rows, RPCs, one-sided verbs).
    let want: Vec<(u64, u64, u64)> = ranges
        .iter()
        .map(|&(lo, hi)| ((hi - lo) / 8, 0, covering(hi) - covering(lo) + 1))
        .collect();
    let rows: Rc<Cell<u64>> = Rc::default();
    let measured: Vec<(u64, u64, u64)> = ranges
        .iter()
        .map(|&(lo, hi)| {
            let before = totals(&nam);
            let (idx, ep, out) = (idx.clone(), Endpoint::new(&nam.rdma), rows.clone());
            sim.spawn(async move {
                let got = idx.range(&ep, lo, hi).await.expect("range");
                out.set(got.len() as u64);
            });
            sim.run();
            let after = totals(&nam);
            (rows.get(), after.0 - before.0, after.1 - before.1)
        })
        .collect();
    assert_eq!(measured, want, "(rows, rpc, os) per scan");
    assert!(want.iter().any(|&(_, _, n)| n > 30), "{want:?}");
}
