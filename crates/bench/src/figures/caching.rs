//! Appendix A.4: opportunities of client-side caching — point lookups
//! with and without the engine's cache layer, for both pointer-resolving
//! designs (read-mostly workload, concurrent splits kept out so the
//! numbers isolate the cache effect).
//!
//! Caching runs through the *integrated* operation path: the same
//! `Design::lookup` every other figure uses, with the index built under
//! `cache_capacity` so the index's client cache serves hits
//! (FG: inner pages; Hybrid: leaf routes). The hit ratio comes from
//! `Design::cache_stats()` and lands as a column of `a04_caching.csv`.
//!
//! A second table, `a04_cache_size.csv`, sweeps the per-client capacity
//! at 120 clients from far below the cacheable level to unbounded, under
//! uniform and Zipfian requests: what a client has to hold for the cache
//! to pay.

use std::rc::Rc;

use namdex_core::{IndexKind, NamCluster};
use rdma_sim::{ClusterSpec, Endpoint};
use simnet::rng::{DetRng, Zipf};
use simnet::stats::Counter;
use simnet::{Sim, SimDur, SimTime};

use super::{Ctx, Rows};
use crate::driver::{build_design, ExperimentConfig};

/// Throughput and cache hit ratio of one configuration: `cache` entries
/// per client (`Some(0)` = unbounded, `None` = no cache), request keys
/// uniform or, given a table, scrambled-Zipfian.
fn run(
    design: IndexKind,
    cache: Option<usize>,
    zipf: Option<&Zipf>,
    clients: usize,
    keys: u64,
) -> (f64, f64) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let cfg = ExperimentConfig {
        design,
        num_keys: keys,
        cache_capacity: cache,
        ..ExperimentConfig::default()
    };
    let idx = build_design(&cfg, &nam);
    let warmup = SimTime::from_millis(3);
    let end = warmup + SimDur::from_millis(25);
    let ops = Rc::new(Counter::new());
    for c in 0..clients {
        let idx = idx.clone();
        let ep = Endpoint::new(&nam.rdma);
        let sim_c = sim.clone();
        let ops = ops.clone();
        let zipf = zipf.cloned();
        let mut rng = DetRng::seed_from_u64(42 ^ c as u64);
        sim.spawn(async move {
            loop {
                let record = match &zipf {
                    Some(z) => z.sample_scrambled(&mut rng),
                    None => rng.next_u64_below(keys),
                };
                let key = record * 8;
                let t0 = sim_c.now();
                idx.lookup(&ep, key).await.expect("fault-free run");
                if t0 >= warmup && sim_c.now() <= end {
                    ops.inc();
                }
            }
        });
    }
    sim.run_until(end);
    let hit_ratio = idx.cache_stats().unwrap_or_default().hit_ratio();
    sim.shutdown();
    (ops.get() as f64 / 0.025, hit_ratio)
}

/// The figure body.
pub fn a04_caching(ctx: &Ctx) -> Vec<Rows> {
    println!("Appendix A.4: Client-side caching through the engine (point queries)\n");
    let mut rows = Vec::new();
    for (name, design) in [
        ("fg", IndexKind::FineGrained),
        ("hybrid", IndexKind::Hybrid),
    ] {
        println!(
            "{name}\n{:>8} {:>16} {:>16} {:>8} {:>10}",
            "clients", "uncached", "cached", "speedup", "hit ratio"
        );
        for clients in [20usize, 80, 160, 240] {
            let (base, _) = run(design, None, None, clients, ctx.num_keys());
            let (fast, hit_ratio) = run(design, Some(0), None, clients, ctx.num_keys());
            println!(
                "{clients:>8} {base:>16.0} {fast:>16.0} {:>7.1}x {hit_ratio:>10.4}",
                fast / base.max(1.0)
            );
            rows.push(strs![
                name,
                clients,
                format!("{base:.1}"),
                format!("{fast:.1}"),
                format!("{hit_ratio:.4}"),
            ]);
        }
        println!();
    }
    vec![rows, cache_size(ctx)]
}

/// Rows of `a04_cache_size.csv`. At 1M keys the fine-grained design has
/// ~570 inner pages to cache and the hybrid ~24k leaf routes.
fn cache_size(ctx: &Ctx) -> Rows {
    const CLIENTS: usize = 120;
    let keys = ctx.num_keys();
    let zipf = Zipf::new(keys, Zipf::YCSB_THETA);
    println!(
        "Cache size, {CLIENTS} clients\n{:>8} {:>8} {:>10} {:>16} {:>10}",
        "design", "dist", "capacity", "throughput", "hit ratio"
    );
    let mut rows = Vec::new();
    for (name, design) in [
        ("fg", IndexKind::FineGrained),
        ("hybrid", IndexKind::Hybrid),
    ] {
        for (dist, zipf) in [("uniform", None), ("zipfian", Some(&zipf))] {
            for capacity in [16usize, 64, 256, 1024, 4096, 0] {
                let (tput, hit_ratio) = run(design, Some(capacity), zipf, CLIENTS, keys);
                let capacity = match capacity {
                    0 => "unbounded".to_string(),
                    n => n.to_string(),
                };
                println!("{name:>8} {dist:>8} {capacity:>10} {tput:>16.0} {hit_ratio:>10.4}");
                rows.push(strs![
                    name,
                    dist,
                    capacity,
                    format!("{tput:.1}"),
                    format!("{hit_ratio:.4}"),
                ]);
            }
        }
    }
    rows
}
