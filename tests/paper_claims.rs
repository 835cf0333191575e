//! The paper's claims as the committed `results/` CSVs state them: who
//! wins, by what factor, and where a crossover falls. Nothing is
//! simulated here; `cargo xtask figures --check` keeps those files what
//! the code prints, so a claim that fails here is a claim the model
//! lost. The one file it does not compare is `fig10_datasize.csv`: its
//! 10M-key cells outgrow the CI runner's memory until range results
//! stream (ROADMAP item 4), so fig10's rows here are only as current as
//! the last full-scale `bench all` that wrote them.

use std::path::Path;

/// One committed CSV: its column names and its rows as text.
struct Csv {
    stem: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

fn parse(stem: &str, text: &str) -> Csv {
    let mut lines = text.lines();
    let split = |l: &str| l.split(',').map(str::to_string).collect::<Vec<_>>();
    let header = split(lines.next().unwrap_or(""));
    let rows = lines.map(split).collect();
    Csv {
        stem: stem.to_string(),
        header,
        rows,
    }
}

fn csv(stem: &str) -> Csv {
    let path = results_dir().join(format!("{stem}.csv"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} is not committed: {e}", path.display()));
    parse(stem, &text)
}

impl Csv {
    fn col(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// Column `col` of the one row whose columns equal `key`.
    fn value(&self, key: &[(&str, &str)], col: &str) -> f64 {
        let at = |name: &str| {
            self.col(name)
                .unwrap_or_else(|| panic!("{}: no column {name}", self.stem))
        };
        let hits: Vec<_> = self
            .rows
            .iter()
            .filter(|r| key.iter().all(|&(k, v)| r[at(k)] == v))
            .collect();
        assert_eq!(hits.len(), 1, "{}: rows matching {key:?}", self.stem);
        hits[0][at(col)]
            .parse()
            .unwrap_or_else(|e| panic!("{}: {key:?} {col}: {e}", self.stem))
    }
}

/// A fault-free cell does not abort. The two exceptions are named:
/// `ext_fault_tolerance` injects faults on purpose, and fig10's CG
/// `range_sel0.1` cell at 10M keys ships each scan's rows in one RPC
/// response of over 20 MB, more than a port moves within the response
/// leg's `VERB_TIMEOUT`, so every attempt times out (ROADMAP item 1's
/// residual). fig10's other rows are checked too, but CI does not
/// regenerate that file (see the module doc): a change that makes one
/// of them abort fails here only once fig10 is regenerated.
#[test]
fn no_fault_free_cell_aborts() {
    let residual = |stem: &str, c: &Csv, row: &[String]| {
        let is = |col: &str, v: &str| c.col(col).is_some_and(|i| row[i] == v);
        stem == "fig10_datasize"
            && is("design", "Coarse-Grained")
            && is("panel", "range_sel0.1")
            && is("num_keys", "10000000")
    };
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(results_dir())
        .expect("results/ is committed")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if path.extension().is_none_or(|e| e != "csv") || stem == "ext_fault_tolerance" {
            continue;
        }
        let c = csv(stem);
        let Some(aborts) = c.col("aborts") else {
            continue;
        };
        checked += 1;
        for row in &c.rows {
            if residual(stem, &c, row) {
                continue;
            }
            assert_eq!(row[aborts], "0", "{stem}: {}", row.join(","));
        }
    }
    assert!(checked >= 15, "only {checked} CSVs carry an aborts column");
}

/// Skew caps CG near one server's bandwidth: with skewed data most of
/// a range falls in one partition, so at 120 clients CG's sel-0.01
/// scans run at least 2.5x faster on uniform data than on skewed.
#[test]
fn skew_caps_coarse_grained_range_scans() {
    let cell = |stem: &str| {
        let key = [
            ("design", "Coarse-Grained"),
            ("panel", "range_sel0.01"),
            ("clients", "120"),
        ];
        csv(stem).value(&key, "throughput")
    };
    let (uniform, skew) = (cell("fig08_throughput_unif"), cell("fig07_throughput_skew"));
    assert!(uniform >= 2.5 * skew, "uniform {uniform} vs skew {skew}");
}

/// Long scans use every server's port: on uniform data at 120 clients,
/// FG, Hybrid and Learned each run sel-0.1 scans at least 15 % faster
/// than CG. The margin clears the 3–12.5 % steps in which a sel-0.1
/// cell counts whole lockstep scans (ROADMAP Finding D).
#[test]
fn one_sided_designs_beat_coarse_grained_on_long_uniform_scans() {
    let c = csv("fig08_throughput_unif");
    let tput = |design: &str| {
        let key = [
            ("design", design),
            ("panel", "range_sel0.1"),
            ("clients", "120"),
        ];
        c.value(&key, "throughput")
    };
    let cg = tput("Coarse-Grained");
    for design in ["Fine-Grained", "Hybrid", "Learned"] {
        let t = tput(design);
        assert!(t >= 1.15 * cg, "{design} {t} vs CG {cg}");
    }
}

/// Fig 12's crossover: at 50 % inserts CG's handler cores beat FG's
/// lock traffic up to 120 clients, and FG wins from 180 on, once the
/// handler queues and the per-client RC state bind.
#[test]
fn fine_grained_overtakes_coarse_grained_on_inserts() {
    let c = csv("fig12_inserts");
    let tput = |series: &str, clients: &str| {
        c.value(&[("series", series), ("clients", clients)], "throughput")
    };
    let (fg, cg) = ("Fine-Grained 50", "Coarse-Grained 50");
    assert!(tput(fg, "120") < tput(cg, "120"), "CG-50 leads at 120");
    for clients in ["180", "240"] {
        assert!(
            tput(fg, clients) > tput(cg, clients),
            "FG-50 leads at {clients}"
        );
    }
}

/// Fig 11 at 120 clients: adding memory servers scales FG on either
/// distribution and CG only on uniform data. FG gains at least 5 % at
/// every step of S = 2 → 4 → 6 → 8 on both panels, and its skewed rows
/// are within 1 % of its uniform ones, since round-robin placement
/// spreads a skewed key range over every server. Uniform CG gains at
/// least 5 % per step too; skewed CG, bound to the server that holds
/// most of the range, gains at most 20 % from S = 2 to 8.
#[test]
fn memory_servers_scale_fine_grained_and_uniform_coarse_grained() {
    let c = csv("fig11_servers");
    let series = |design: &str, panel: &str, dist: &str| {
        ["2", "4", "6", "8"].map(|servers| {
            let key = [
                ("design", design),
                ("panel", panel),
                ("dist", dist),
                ("servers", servers),
            ];
            c.value(&key, "throughput")
        })
    };
    let rises = |t: &[f64; 4]| t.windows(2).all(|w| w[1] >= 1.05 * w[0]);
    for panel in ["point", "range_sel0.01"] {
        let fg = series("Fine-Grained", panel, "uniform");
        let fg_skew = series("Fine-Grained", panel, "skew");
        assert!(
            rises(&fg) && rises(&fg_skew),
            "FG {panel}: {fg:?}, skew {fg_skew:?}"
        );
        for (u, s) in fg.iter().zip(&fg_skew) {
            assert!(
                (s - u).abs() <= 0.01 * u,
                "FG {panel}: skew {s} vs uniform {u}"
            );
        }
        let cg = series("Coarse-Grained", panel, "uniform");
        assert!(rises(&cg), "uniform CG {panel}: {cg:?}");
        let cg_skew = series("Coarse-Grained", panel, "skew");
        assert!(
            cg_skew[3] <= 1.2 * cg_skew[0],
            "skewed CG {panel}: {cg_skew:?}"
        );
    }
}

/// At 10M keys and 250 → 1000 clients the one-sided designs are flat
/// (their ports are the ceiling, not the client count), and the RPC
/// designs decline with the per-client RC-state penalty but keep at
/// least 40 % of their 250-client throughput: a busy server queues, it
/// does not fail its callers.
#[test]
fn scaled_sweep_is_flat_one_sided_and_graceful_two_sided() {
    let c = csv("scaled_sweep");
    let tput = |design: &str, clients: &str| {
        c.value(&[("design", design), ("clients", clients)], "throughput")
    };
    for design in ["Fine-Grained", "Learned"] {
        let cells: Vec<_> = ["250", "500", "1000"]
            .iter()
            .map(|n| tput(design, n))
            .collect();
        let (lo, hi) = cells
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        assert!(hi <= 1.02 * lo, "{design} flat within 2 %: {cells:?}");
    }
    for design in ["Coarse-Grained", "Hybrid"] {
        let (few, many) = (tput(design, "250"), tput(design, "1000"));
        assert!(many >= 0.4 * few, "{design}: {few} -> {many}");
    }
}
