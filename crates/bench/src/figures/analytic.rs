//! The analytic entries: Tables 1–2 and Figure 3 evaluate the paper's
//! scalability model and run no simulation.

use namdex_core::model::{figure3, table1 as symbols, Dist, ModelParams, Query, Scheme};

use super::{Ctx, Rows};
use crate::plot::{ascii_chart, format_si, Series};

/// Table 1: the scalability model's symbols with the paper's example
/// values.
pub fn table1(_: &Ctx) -> Vec<Rows> {
    println!("Table 1: Overview of Symbols (paper's example column)\n");
    for (symbol, value) in symbols(ModelParams::default()) {
        println!("  {symbol:<38} {value}");
    }
    println!("\nFormulas: M = P/(3K); L = D/M; H = ceil(log_M(...)).");
    Vec::new()
}

/// Table 2: the three-step scalability analysis, evaluated with the
/// paper's example parameters.
pub fn table2(_: &Ctx) -> Vec<Rows> {
    let p = ModelParams::default();
    let z = 10.0;
    let s = 0.001;
    const SCHEMES: [Scheme; 3] = [Scheme::FineGrained, Scheme::CgRange, Scheme::CgHash];
    println!(
        "Table 2: Scalability Analysis (Theoretical), S={}, sel={s}, z={z}\n",
        p.servers
    );

    println!("Step (1): available bandwidth (GB/s)");
    for (name, scheme) in [
        "Fine-grained (1-sided)",
        "Coarse-grained Range (2-sided)",
        "Coarse-grained Hash (2-sided)",
    ]
    .into_iter()
    .zip(SCHEMES)
    {
        println!(
            "  {name:<32} uniform {:>8}   skew {:>8}",
            format_si(p.available_bandwidth(scheme, Dist::Uniform)),
            format_si(p.available_bandwidth(scheme, Dist::Skewed { z })),
        );
    }

    type Metric = fn(&ModelParams, Scheme, Dist, Query) -> f64;
    let steps: [(&str, Metric); 2] = [
        (
            "Step (2): bandwidth per query (bytes)",
            ModelParams::bytes_per_query,
        ),
        (
            "Step (3): max throughput (queries/s)",
            ModelParams::max_throughput,
        ),
    ];
    for (title, metric) in steps {
        println!("\n{title}");
        for (qname, q) in [("Point", Query::Point), ("Range", Query::Range { s })] {
            for (dname, d) in [("Unif", Dist::Uniform), ("Skew", Dist::Skewed { z })] {
                print!("  {qname} ({dname}):");
                for scheme in SCHEMES {
                    print!(" {:>12}", format_si(metric(&p, scheme, d, q)));
                }
                println!("   (FG / CG-range / CG-hash)");
            }
        }
    }
    Vec::new()
}

/// Figure 3: theoretical maximal throughput vs memory servers (range
/// queries, sel = 0.001, z = 10).
pub fn fig03(_: &Ctx) -> Vec<Rows> {
    let series = figure3(ModelParams::default(), &[2, 4, 8, 16, 32, 64]);
    let chart: Vec<Series> = series
        .iter()
        .map(|(name, pts)| {
            let pts = pts.iter().map(|p| (p.servers as f64, p.throughput));
            (name.to_string(), pts.collect())
        })
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Figure 3: Maximal Throughput (Theoretical) — Range Queries (sel=0.001, z=10)",
            "memory servers",
            "ops/s",
            &chart,
            false,
        )
    );
    let rows = series
        .iter()
        .flat_map(|(name, pts)| {
            pts.iter()
                .map(move |p| strs![name, p.servers, format!("{:.1}", p.throughput)])
        })
        .collect();
    vec![rows]
}
