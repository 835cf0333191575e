//! Extension: epoch garbage collection behaviour under load.
//!
//! The paper defers GC to epoch passes (§3.2, §4.2) but does not
//! evaluate them. This experiment deletes a fraction of a loaded index,
//! runs one GC epoch *while read clients keep querying*, and reports:
//! the reclaim rate, the GC pass's virtual duration per design, and the
//! read throughput with and without a concurrent GC pass.

use std::cell::Cell;
use std::rc::Rc;

use namdex_core::{gc, IndexKind, NamCluster};
use rdma_sim::{ClusterSpec, Endpoint};
use simnet::rng::DetRng;
use simnet::stats::Counter;
use simnet::{Sim, SimDur, SimTime};

use super::{Ctx, Rows};
use crate::driver::{build_design, ExperimentConfig};

/// One window of 40 readers over an index with every tenth key
/// tombstoned, optionally beside one GC pass: `(pages reclaimed, GC
/// pass duration in µs, reads/s)`.
fn measure(kind: IndexKind, keys: u64, seed: u64, with_gc: bool) -> (usize, u64, f64) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let cfg = ExperimentConfig {
        design: kind,
        num_keys: keys,
        ..ExperimentConfig::default()
    };
    let design = build_design(&cfg, &nam);

    // Tombstone every tenth key (untimed setup-style burst).
    {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            for i in (0..keys).step_by(10) {
                design.delete(&ep, i * 8).await.expect("fault-free run");
            }
        });
    }
    sim.run();

    // Readers + (optionally) one GC pass, measured over a window.
    let t0 = sim.now();
    let end = t0 + SimDur::from_millis(30);
    let reads = Rc::new(Counter::new());
    for c in 0..40u64 {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let reads = reads.clone();
        let sim_c = sim.clone();
        let mut rng = DetRng::seed_from_u64(seed ^ c);
        sim.spawn(async move {
            loop {
                let k = rng.next_u64_below(keys) * 8;
                design.lookup(&ep, k).await.expect("fault-free run");
                if sim_c.now() <= end {
                    reads.inc();
                }
            }
        });
    }
    let reclaimed = Rc::new(Cell::new(0usize));
    let gc_end = Rc::new(Cell::new(SimTime::ZERO));
    if with_gc {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let reclaimed = reclaimed.clone();
        let gc_end = gc_end.clone();
        let sim_c = sim.clone();
        sim.spawn(async move {
            let freed = gc::gc_pass(&design, &ep).await;
            reclaimed.set(freed.expect("fault-free run"));
            gc_end.set(sim_c.now());
        });
    }
    sim.run_until(end);
    // The one-sided collector may outlive the read window; let it
    // finish (readers keep running but are no longer counted).
    if with_gc && gc_end.get() == SimTime::ZERO {
        sim.run_until(end + SimDur::from_millis(500));
    }
    let gc_micros = if with_gc {
        assert!(gc_end.get() > t0, "GC pass must complete");
        (gc_end.get() - t0).as_micros()
    } else {
        0
    };
    sim.shutdown();
    (reclaimed.get(), gc_micros, reads.get() as f64 / 0.030)
}

/// The figure body.
pub fn ext_gc(ctx: &Ctx) -> Vec<Rows> {
    let keys = ctx.num_keys().min(200_000); // GC walks the whole leaf chain
    println!("Extension: epoch GC under load ({keys} keys, 10% deleted, 40 readers)\n");
    println!(
        "{:>16} {:>10} {:>12} {:>16} {:>16} {:>8}",
        "design", "reclaimed", "GC pass", "reads (no GC)", "reads (GC)", "impact"
    );
    let mut rows = Vec::new();
    for kind in [
        IndexKind::CoarseGrained,
        IndexKind::FineGrained,
        IndexKind::Hybrid,
    ] {
        let name = kind.name();
        let (_, _, baseline) = measure(kind, keys, ctx.seed, false);
        let (reclaimed, gc_micros, during) = measure(kind, keys, ctx.seed, true);
        println!(
            "{name:>16} {reclaimed:>10} {gc_micros:>9}us {baseline:>16.0} {during:>16.0} {:>7.0}%",
            during / baseline * 100.0
        );
        rows.push(strs![
            name,
            reclaimed,
            gc_micros,
            format!("{baseline:.1}"),
            format!("{during:.1}"),
        ]);
    }
    vec![rows]
}
