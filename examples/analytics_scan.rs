//! OLAP scenario: analytical range scans at different selectivities.
//!
//! Sweeps the fine-grained design's scan READ batch (`scan_batch`: how
//! many of the leaves a level-1 page names go out in one round trip, the
//! paper's head-node stride, §4.3) from one leaf at a time up to the
//! default, 64, and shows how the scan cost scales with selectivity —
//! the effect behind Figures 7(b–d).
//!
//! ```sh
//! cargo run --release --example analytics_scan
//! ```

use namdex::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

const KEYS: u64 = 200_000;

fn scan_time(scan_batch: usize, sel: f64) -> (f64, usize) {
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::default());
    let cfg = FgConfig {
        scan_batch,
        ..FgConfig::default()
    };
    let index = FineGrained::build(&cluster, cfg, (0..KEYS).map(|i| (i * 8, i)));

    let span = (sel * KEYS as f64) as u64;
    let micros = Rc::new(Cell::new(0u64));
    let rows_out = Rc::new(Cell::new(0usize));
    {
        let micros = micros.clone();
        let rows_out = rows_out.clone();
        let sim_c = sim.clone();
        sim.spawn(async move {
            let ep = Endpoint::new(&cluster);
            let t0 = sim_c.now();
            // Ten scans starting at different offsets.
            let mut total = 0;
            for i in 0..10u64 {
                let lo = i * (KEYS / 16) * 8;
                let hi = lo + (span - 1) * 8;
                total += index
                    .range(&ep, lo, hi)
                    .await
                    .expect("fault-free run")
                    .len();
            }
            micros.set((sim_c.now() - t0).as_micros() / 10);
            rows_out.set(total / 10);
        });
    }
    sim.run();
    (micros.get() as f64, rows_out.get())
}

fn main() {
    const BATCHES: [usize; 5] = [1, 4, 8, 16, 64];
    println!("analytical scans over {KEYS} keys (fine-grained design), us per scan\n");
    print!("{:>10} {:>10}", "sel", "rows");
    for batch in BATCHES {
        print!(" {:>11}", format!("batch {batch}"));
    }
    println!(" {:>9}", "speedup");
    for sel in [0.001, 0.01, 0.1] {
        let runs = BATCHES.map(|batch| scan_time(batch, sel));
        let rows = runs[0].1;
        assert!(
            runs.iter().all(|r| r.1 == rows),
            "the batch changed results"
        );
        print!("{sel:>10} {rows:>10}");
        for (us, _) in runs {
            print!(" {us:>11.0}");
        }
        println!(" {:>8.2}x", runs[0].0 / runs[BATCHES.len() - 1].0);
    }
    println!(
        "\nA batch READs that many planned leaves per round trip, so the \
         speedup grows\nwith scan length (the paper's §4.3 'selectively \
         signaled READs')."
    );
}
