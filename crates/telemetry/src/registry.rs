//! Named metrics registry.
//!
//! A [`Registry`] is a cheap-to-clone handle to a set of named counters
//! and histograms (reusing [`simnet::stats`]) that any layer can
//! register into. Names are dot-separated (`verb.read.count`,
//! `op.lookup.latency_ns`); iteration order is the lexicographic name
//! order (a `BTreeMap`), so serialization is deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use simnet::stats::{Counter, Histogram};

/// Shared handle to a metric set; clones observe the same metrics.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<Inner>,
}

#[derive(Default)]
struct Inner {
    counters: RefCell<BTreeMap<String, Rc<Counter>>>,
    histograms: RefCell<BTreeMap<String, Rc<RefCell<Histogram>>>>,
}

/// One serialized metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRow {
    /// Full metric name (histograms expand to `name.count`, `name.mean`,
    /// `name.p50`, `name.p99`, `name.max`).
    pub name: String,
    /// The value, as a double (counters are exact below 2^53).
    pub value: f64,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        self.inner
            .counters
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Add `n` to counter `name` (creating it at zero first).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Rc<RefCell<Histogram>> {
        self.inner
            .histograms
            .borrow_mut()
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(RefCell::new(Histogram::new())))
            .clone()
    }

    /// Record one sample into histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).borrow_mut().record(value);
    }

    /// Snapshot every metric as `(name, value)` rows in name order.
    pub fn snapshot(&self) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        for (name, c) in self.inner.counters.borrow().iter() {
            rows.push(MetricRow {
                name: name.clone(),
                value: c.get() as f64,
            });
        }
        for (name, h) in self.inner.histograms.borrow().iter() {
            let h = h.borrow();
            for (suffix, value) in [
                ("count", h.count() as f64),
                ("mean", h.mean()),
                ("p50", h.median() as f64),
                ("p99", h.percentile(0.99) as f64),
                ("max", h.max() as f64),
            ] {
                rows.push(MetricRow {
                    name: format!("{name}.{suffix}"),
                    value,
                });
            }
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Serialize the snapshot as `metric,value` CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for row in self.snapshot() {
            let _ = writeln!(out, "{},{}", row.name, fmt_value(row.value));
        }
        out
    }
}

/// Render a metric value: integers without a fraction, everything else
/// with enough digits to round-trip deterministically.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a.count").inc();
        r.add("a.count", 2);
        let r2 = r.clone();
        assert_eq!(r2.counter("a.count").get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_expands_histograms() {
        let r = Registry::new();
        r.add("z.count", 1);
        for v in [10u64, 20, 30] {
            r.record("a.lat", v);
        }
        let rows = r.snapshot();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "a.lat.count",
                "a.lat.max",
                "a.lat.mean",
                "a.lat.p50",
                "a.lat.p99",
                "z.count"
            ]
        );
        assert!(names.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn csv_renders() {
        let r = Registry::new();
        r.add("ops", 42);
        for v in [1u64, 2] {
            r.record("lat", v);
        }
        assert_eq!(r.to_csv(), "metric,value\nlat.count,2\nlat.max,2\nlat.mean,1.500000\nlat.p50,1\nlat.p99,2\nops,42\n");
    }
}
