//! # model — the paper's theoretical scalability model (§2.3)
//!
//! Implements Tables 1 and 2 and generates Figure 3: the maximal
//! theoretical throughput of each index design, computed as the total
//! aggregated (remote) memory bandwidth of all memory servers divided by
//! the per-query bandwidth requirement.
//!
//! The model's three steps (Table 2):
//!
//! 1. **Available bandwidth.** Fine-grained distribution always farms
//!    requests over all `S` servers (`S·BW`); coarse-grained drops to
//!    `1·BW` under attribute-value skew because one server holds most of
//!    the index.
//! 2. **Bandwidth per query.** A point query traverses `H` pages of `P`
//!    bytes; skew adds a read amplification of `z` leaf pages; a range
//!    query with selectivity `s` additionally retrieves `s·L` leaves;
//!    hash partitioning must traverse the index on *all* `S` servers.
//! 3. **Max throughput** = step 1 / step 2.

/// Table 1: the model's symbols with the paper's example values as
/// defaults.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// `S` — number of memory servers.
    pub servers: u64,
    /// `BW` — bandwidth per memory server, bytes/second.
    pub bandwidth: f64,
    /// `P` — page size of index nodes, bytes.
    pub page_size: u64,
    /// `D` — data size in tuples.
    pub data_size: u64,
    /// `K` — key size in bytes (same as value/pointer size).
    pub key_size: u64,
}

impl Default for ModelParams {
    /// The example column of Table 1: S=4, BW=50 GB/s, P=1024, D=100M,
    /// K=8.
    fn default() -> Self {
        ModelParams {
            servers: 4,
            bandwidth: 50e9,
            page_size: 1024,
            data_size: 100_000_000,
            key_size: 8,
        }
    }
}

/// Index scheme column of Table 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Fine-grained (1-sided).
    FineGrained,
    /// Coarse-grained, range partitioned (2-sided).
    CgRange,
    /// Coarse-grained, hash partitioned (2-sided).
    CgHash,
}

/// Workload distribution.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Dist {
    /// Uniform accesses.
    Uniform,
    /// Attribute-value skew with read amplification `z`.
    Skewed {
        /// Leaf-page read amplification.
        z: f64,
    },
}

/// Query shape.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Query {
    /// Point query (selectivity `1/L`, or `z/L` under skew).
    Point,
    /// Range query with selectivity `s` (fraction of leaves retrieved).
    Range {
        /// Selectivity.
        s: f64,
    },
}

impl ModelParams {
    /// `M = P / (3K)` — fanout per index node.
    pub fn fanout(&self) -> u64 {
        self.page_size / (3 * self.key_size)
    }

    /// `L = D / M` — number of leaf nodes.
    pub fn leaves(&self) -> u64 {
        self.data_size.div_ceil(self.fanout())
    }

    /// `H_FG = log_M(L)` — max index height of the fine-grained (global)
    /// tree; also `H_SCG` (the CG height under skew).
    pub fn height_fg(&self) -> u64 {
        log_ceil(self.leaves() as f64, self.fanout() as f64)
    }

    /// `H_UCG = log_M(L/S)` — max CG index height under uniform data.
    pub fn height_cg_uniform(&self) -> u64 {
        log_ceil(
            self.leaves() as f64 / self.servers as f64,
            self.fanout() as f64,
        )
    }

    /// Step 1: total effectively available bandwidth, bytes/second.
    pub fn available_bandwidth(&self, scheme: Scheme, dist: Dist) -> f64 {
        match (scheme, dist) {
            // FG farms out requests regardless of skew.
            (Scheme::FineGrained, _) => self.servers as f64 * self.bandwidth,
            (_, Dist::Uniform) => self.servers as f64 * self.bandwidth,
            // CG under attribute-value skew: one server holds the bulk.
            (_, Dist::Skewed { .. }) => self.bandwidth,
        }
    }

    /// Step 2: bandwidth requirement per query, bytes.
    pub fn bytes_per_query(&self, scheme: Scheme, dist: Dist, query: Query) -> f64 {
        let p = self.page_size as f64;
        let l = self.leaves() as f64;
        let s_srv = self.servers as f64;
        let h = match (scheme, dist) {
            (Scheme::FineGrained, _) => self.height_fg(),
            (_, Dist::Uniform) => self.height_cg_uniform(),
            (_, Dist::Skewed { .. }) => self.height_fg(), // H_SCG = H_FG
        } as f64;
        // Hash partitioning sends range queries to all servers.
        let traversals = match (scheme, query) {
            (Scheme::CgHash, Query::Range { .. }) => s_srv,
            _ => 1.0,
        };
        match (query, dist) {
            (Query::Point, Dist::Uniform) => h * p,
            (Query::Point, Dist::Skewed { z }) => h * p + z * p,
            (Query::Range { s }, Dist::Uniform) => traversals * h * p + s * l * p,
            (Query::Range { s }, Dist::Skewed { z }) => traversals * h * p + s * z * l * p,
        }
    }

    /// Step 3: theoretical max throughput, queries/second.
    pub fn max_throughput(&self, scheme: Scheme, dist: Dist, query: Query) -> f64 {
        self.available_bandwidth(scheme, dist) / self.bytes_per_query(scheme, dist, query)
    }
}

fn log_ceil(n: f64, base: f64) -> u64 {
    if n <= 1.0 {
        return 1;
    }
    (n.ln() / base.ln()).ceil() as u64
}

/// One point of a Figure 3 series.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Memory servers `S`.
    pub servers: u64,
    /// Max throughput (operations/second).
    pub throughput: f64,
}

/// The four series of Figure 3: range queries, sel = 0.001, z = 10, for
/// S in `servers`.
pub fn figure3(base: ModelParams, servers: &[u64]) -> Vec<(&'static str, Vec<Fig3Point>)> {
    let q = Query::Range { s: 0.001 };
    let skew = Dist::Skewed { z: 10.0 };
    let mk = |scheme: Scheme, dist: Dist| {
        servers
            .iter()
            .map(|&s| {
                let p = ModelParams { servers: s, ..base };
                Fig3Point {
                    servers: s,
                    throughput: p.max_throughput(scheme, dist, q),
                }
            })
            .collect::<Vec<_>>()
    };
    vec![
        (
            "Fine-Grained (Unif./Skew)",
            mk(Scheme::FineGrained, Dist::Uniform),
        ),
        (
            "Coarse-Grained Range (Unif.)",
            mk(Scheme::CgRange, Dist::Uniform),
        ),
        (
            "Coarse-Grained Hash (Unif.)",
            mk(Scheme::CgHash, Dist::Uniform),
        ),
        (
            "Coarse-Grained Range/Hash (Skew)",
            mk(Scheme::CgRange, skew),
        ),
    ]
}

/// Render Table 1 (symbol, value) rows for the given parameters.
pub fn table1(p: ModelParams) -> Vec<(String, String)> {
    vec![
        ("# of Memory Servers (S)".into(), p.servers.to_string()),
        (
            "Bandwidth per Memory Server (BW)".into(),
            format!("{:.0} GB/s", p.bandwidth / 1e9),
        ),
        (
            "Page Size of Index Nodes (P)".into(),
            format!("{} B", p.page_size),
        ),
        ("Data Size (D)".into(), format!("{}", p.data_size)),
        ("Key Size (K)".into(), format!("{} B", p.key_size)),
        ("Fanout M = P/(3K)".into(), p.fanout().to_string()),
        ("Leaves L = D/M".into(), p.leaves().to_string()),
        (
            "Max. height (FG, Unif./Skew)".into(),
            p.height_fg().to_string(),
        ),
        (
            "Max. height (CG, Unif.)".into(),
            p.height_cg_uniform().to_string(),
        ),
        ("Max. height (CG, Skew)".into(), p.height_fg().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_example_column() {
        // The paper's example values: M=42, L≈2.3M, heights 4/4/4.
        let p = ModelParams::default();
        assert_eq!(p.fanout(), 42);
        let l = p.leaves();
        assert!((2_300_000..2_500_000).contains(&l), "L = {l}");
        assert_eq!(p.height_fg(), 4);
        assert_eq!(p.height_cg_uniform(), 4);
    }

    #[test]
    fn available_bandwidth_step1() {
        let p = ModelParams::default();
        let sbw = 4.0 * 50e9;
        assert_eq!(
            p.available_bandwidth(Scheme::FineGrained, Dist::Uniform),
            sbw
        );
        assert_eq!(
            p.available_bandwidth(Scheme::FineGrained, Dist::Skewed { z: 10.0 }),
            sbw,
            "FG keeps S*BW under skew"
        );
        assert_eq!(p.available_bandwidth(Scheme::CgRange, Dist::Uniform), sbw);
        assert_eq!(
            p.available_bandwidth(Scheme::CgRange, Dist::Skewed { z: 10.0 }),
            50e9,
            "CG collapses to 1*BW under skew"
        );
    }

    #[test]
    fn point_query_bytes() {
        let p = ModelParams::default();
        let page = p.page_size as f64;
        assert_eq!(
            p.bytes_per_query(Scheme::FineGrained, Dist::Uniform, Query::Point),
            4.0 * page
        );
        assert_eq!(
            p.bytes_per_query(Scheme::FineGrained, Dist::Skewed { z: 10.0 }, Query::Point),
            4.0 * page + 10.0 * page
        );
    }

    #[test]
    fn hash_range_pays_s_traversals() {
        let p = ModelParams::default();
        let range = Query::Range { s: 0.001 };
        let h_hash = p.bytes_per_query(Scheme::CgHash, Dist::Uniform, range);
        let h_range = p.bytes_per_query(Scheme::CgRange, Dist::Uniform, range);
        let diff = h_hash - h_range;
        let expect = (p.servers - 1) as f64 * p.height_cg_uniform() as f64 * p.page_size as f64;
        assert!((diff - expect).abs() < 1.0);
    }

    #[test]
    fn figure3_shapes() {
        let servers = [2u64, 4, 8, 16, 32, 64];
        let series = figure3(ModelParams::default(), &servers);
        let by_name: std::collections::BTreeMap<_, _> = series.into_iter().collect();
        let fg = &by_name["Fine-Grained (Unif./Skew)"];
        let cg_skew = &by_name["Coarse-Grained Range/Hash (Skew)"];
        let cg_range = &by_name["Coarse-Grained Range (Unif.)"];
        let cg_hash = &by_name["Coarse-Grained Hash (Unif.)"];

        // FG scales ~linearly with S.
        let ratio = fg.last().unwrap().throughput / fg.first().unwrap().throughput;
        assert!(
            (25.0..40.0).contains(&ratio),
            "FG 2->64 servers should scale ~32x, got {ratio:.1}"
        );
        // CG under skew is flat (bounded by one server's bandwidth).
        let flat = cg_skew.last().unwrap().throughput / cg_skew.first().unwrap().throughput;
        assert!(flat < 1.2, "CG skew must stagnate, got {flat:.2}x");
        // Hash never beats range partitioning for range queries.
        for (h, r) in cg_hash.iter().zip(cg_range.iter()) {
            assert!(h.throughput <= r.throughput + 1.0);
        }
        // All uniform schemes scale well.
        let cr = cg_range.last().unwrap().throughput / cg_range.first().unwrap().throughput;
        assert!(cr > 20.0);
    }

    #[test]
    fn fig3_magnitude_matches_paper_axis() {
        // Figure 3 shows ~1.4M ops/s max at S=64 for FG with the example
        // parameters (sel=0.001, z=10).
        let p = ModelParams {
            servers: 64,
            ..ModelParams::default()
        };
        let t = p.max_throughput(
            Scheme::FineGrained,
            Dist::Uniform,
            Query::Range { s: 0.001 },
        );
        assert!(
            (0.8e6..2.0e6).contains(&t),
            "FG @64 servers ≈ 1.3M ops/s in Fig 3, got {t:.0}"
        );
    }

    #[test]
    fn table1_renders_all_rows() {
        let rows = table1(ModelParams::default());
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().any(|(k, v)| k.contains("Fanout") && v == "42"));
    }
}
