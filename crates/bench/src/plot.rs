//! ASCII charts, tables and CSV output for the figures.

use std::fmt::Write as _;
use std::path::Path;

/// One named data series: `(x, y)` points.
pub type Series = (String, Vec<(f64, f64)>);

/// Render a simple multi-series ASCII line chart (log-y optional), the
/// terminal stand-in for the paper's matplotlib figures.
pub fn ascii_chart(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &[Series],
    logy: bool,
) -> String {
    const W: usize = 68;
    const H: usize = 18;
    let marks = ['o', 'x', '+', '*', '#', '@'];

    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let tx = |v: f64| v;
    let ty = |v: f64| if logy { v.max(1e-12).log10() } else { v };
    let (xmin, xmax) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| {
        (lo.min(tx(x)), hi.max(tx(x)))
    });
    let (ymin, ymax) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
        (lo.min(ty(y)), hi.max(ty(y)))
    });
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);

    let mut grid = vec![vec![' '; W]; H];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        // Plot points and linear interpolation between consecutive ones.
        let cells: Vec<(usize, usize)> = pts
            .iter()
            .map(|&(x, y)| {
                let cx = (((tx(x) - xmin) / xspan) * (W - 1) as f64).round() as usize;
                let cy = (((ty(y) - ymin) / yspan) * (H - 1) as f64).round() as usize;
                (cx.min(W - 1), H - 1 - cy.min(H - 1))
            })
            .collect();
        for w in cells.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let steps = x1.abs_diff(x0).max(y1.abs_diff(y0)).max(1);
            for s in 0..=steps {
                let x = x0 as f64 + (x1 as f64 - x0 as f64) * s as f64 / steps as f64;
                let y = y0 as f64 + (y1 as f64 - y0 as f64) * s as f64 / steps as f64;
                let cell = &mut grid[y.round() as usize][x.round() as usize];
                if *cell == ' ' {
                    *cell = '.';
                }
            }
        }
        for &(cx, cy) in &cells {
            grid[cy][cx] = mark;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "\n  {title}");
    let ylab = |v: f64| {
        if logy {
            format_si(10f64.powf(v))
        } else {
            format_si(v)
        }
    };
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            ylab(ymax)
        } else if r == H - 1 {
            ylab(ymin)
        } else if r == H / 2 {
            ylab(ymin + yspan * 0.5)
        } else {
            String::new()
        };
        let _ = writeln!(out, "  {label:>8} |{}|", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "  {:>8} +{}+", "", "-".repeat(W));
    let _ = writeln!(
        out,
        "  {:>8}  {:<w$}{}",
        ylabel,
        format_si(xmin),
        format_si(xmax),
        w = W - format_si(xmax).len()
    );
    let _ = writeln!(out, "  {:>8}  x: {xlabel}", "");
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "      {} = {}", marks[si % marks.len()], name);
    }
    out
}

/// Format a number with SI suffixes (1.2M, 450K, 3.0).
pub fn format_si(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else if a >= 1.0 || a == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Write a CSV file under its header line (creating parent directories).
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Render rows under their CSV header line as a right-aligned text
/// table.
pub fn ascii_table(header: &str, rows: &[Vec<String>]) -> String {
    let head: Vec<String> = header.split(',').map(String::from).collect();
    let mut widths: Vec<usize> = head.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in std::iter::once(&head).chain(rows) {
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "  {cell:>w$}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_all_series() {
        let series = vec![
            ("a".to_string(), vec![(0.0, 1.0), (10.0, 100.0)]),
            ("b".to_string(), vec![(0.0, 50.0), (10.0, 2.0)]),
        ];
        let s = ascii_chart("test", "clients", "ops/s", &series, false);
        assert!(s.contains("test"));
        assert!(s.contains('o'));
        assert!(s.contains('x'));
        assert!(s.contains("a"));
    }

    #[test]
    fn chart_log_scale() {
        let series = vec![("a".to_string(), vec![(1.0, 10.0), (2.0, 1e6)])];
        let s = ascii_chart("log", "x", "y", &series, true);
        assert!(s.contains("1.0M"));
    }

    #[test]
    fn chart_empty() {
        let s = ascii_chart("none", "x", "y", &[], false);
        assert!(s.contains("no data"));
    }

    #[test]
    fn si_formats() {
        assert_eq!(format_si(1_500_000.0), "1.5M");
        assert_eq!(format_si(2_500.0), "2.5K");
        assert_eq!(format_si(3.0), "3.0");
        assert_eq!(format_si(0.001_2), "0.0012");
        assert_eq!(format_si(2.5e9), "2.5G");
    }

    #[test]
    fn table_aligns_columns() {
        let rows = vec![
            vec!["Fine-Grained".to_string(), "7".to_string()],
            vec!["Hybrid".to_string(), "1234".to_string()],
        ];
        assert_eq!(
            ascii_table("design,ops", &rows),
            "        design   ops\n  Fine-Grained     7\n        Hybrid  1234\n"
        );
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("namdex_plot_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            "a,b",
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
