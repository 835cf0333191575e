#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # telemetry — observability for the simulated NAM cluster
//!
//! Three pieces, all deterministic in virtual time:
//!
//! * [`Registry`] — named counters and histograms (reusing
//!   [`simnet::stats`]) that any layer can register into, serializable
//!   to CSV alongside bench results;
//! * causal **op spans** — a [`Telemetry`] observer installed on a
//!   [`rdma_sim::Cluster`] turns the verb-level event stream into
//!   per-operation virtual-time breakdowns (wire, NIC/QP queueing,
//!   server occupancy, lock wait, backoff, stalls, client compute)
//!   whose components sum *exactly* to the op's latency (see
//!   [`span`]);
//! * a **Chrome-trace/Perfetto exporter** — with tracing enabled the
//!   same observer records per-client tracks of op spans, protocol
//!   regions, verb completions, and fault instants; the JSON is
//!   byte-identical across same-seed runs (see [`trace`]).
//!
//! The observer hooks are always compiled into the verb layer but cost
//! one flag check when nothing is installed, so an untelemetered run
//! pays nothing measurable.

pub mod registry;
pub mod span;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rdma_sim::observer::{OpKind, RegionKind, RpcEvent, VerbEvent, VerbKind, VerbObserver};
use rdma_sim::Cluster;
use simnet::stats::Counter;
use simnet::SimTime;

pub use registry::{MetricRow, Registry};
pub use span::{Breakdown, Component, OpSpan, COMPONENTS};
pub use trace::{ArgValue, TraceBuf, TraceEvent};

fn verb_label(kind: &VerbKind) -> &'static str {
    match kind {
        VerbKind::Read => "read",
        VerbKind::Write => "write",
        VerbKind::Cas { .. } => "cas",
        VerbKind::Faa { .. } => "faa",
        VerbKind::Alloc => "alloc",
    }
}

#[derive(Default)]
struct ClientState {
    span: Option<OpSpan>,
}

/// The telemetry observer: feeds a [`Registry`] and (optionally) a
/// [`TraceBuf`] from the cluster's verb event stream.
pub struct Telemetry {
    registry: Registry,
    trace: Option<TraceBuf>,
    clients: RefCell<BTreeMap<u64, ClientState>>,
    mismatches: Counter,
}

impl Telemetry {
    /// Metrics-only telemetry (no trace buffer).
    pub fn new(registry: Registry) -> Rc<Self> {
        Rc::new(Telemetry {
            registry,
            trace: None,
            clients: RefCell::new(BTreeMap::new()),
            mismatches: Counter::new(),
        })
    }

    /// Telemetry that additionally records a Chrome trace.
    pub fn with_trace(registry: Registry) -> Rc<Self> {
        Rc::new(Telemetry {
            registry,
            trace: Some(TraceBuf::new()),
            clients: RefCell::new(BTreeMap::new()),
            mismatches: Counter::new(),
        })
    }

    /// Register this observer on `cluster` (alongside any others, e.g.
    /// the dynamic checker).
    pub fn install(self: &Rc<Self>, cluster: &Cluster) {
        cluster.add_observer(self.clone());
    }

    /// The registry this observer feeds.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// How many closed spans violated the exact-sum invariant. Zero by
    /// construction; a nonzero value is a telemetry bug.
    pub fn breakdown_mismatches(&self) -> u64 {
        self.mismatches.get()
    }

    /// Render the Chrome-trace JSON (empty array if tracing is off).
    pub fn chrome_trace_json(&self) -> String {
        let clients: Vec<u64> = self.clients.borrow().keys().copied().collect();
        match &self.trace {
            Some(buf) => buf.render(clients.into_iter()),
            None => TraceBuf::new().render(std::iter::empty()),
        }
    }

    /// Write the Chrome-trace JSON to `path` (open with
    /// <https://ui.perfetto.dev> or `chrome://tracing`).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    fn with_client<R>(&self, client: u64, f: impl FnOnce(&mut ClientState) -> R) -> R {
        let mut clients = self.clients.borrow_mut();
        f(clients.entry(client).or_default())
    }

    fn push_trace(&self, ev: TraceEvent) {
        if let Some(buf) = &self.trace {
            buf.push(ev);
        }
    }
}

impl VerbObserver for Telemetry {
    fn on_verb(&self, ev: &VerbEvent) {
        let label = verb_label(&ev.kind);
        self.registry.add(&format!("verb.{label}.count"), 1);
        self.registry.add("verb.queue_ns", ev.queue_nanos);
        self.with_client(ev.client, |st| {
            if let Some(span) = &mut st.span {
                span.attribute_verb(ev.issued.as_nanos(), ev.time.as_nanos(), ev.queue_nanos, 0);
            }
        });
        self.push_trace(TraceEvent {
            ph: 'X',
            name: label.into(),
            cat: "verb",
            ts_nanos: ev.issued.as_nanos(),
            dur_nanos: Some(ev.time.as_nanos() - ev.issued.as_nanos()),
            tid: ev.client,
            scope: None,
            args: vec![
                ("server", ArgValue::U64(ev.server as u64)),
                ("len", ArgValue::U64(ev.len as u64)),
                ("queue_ns", ArgValue::U64(ev.queue_nanos)),
            ],
        });
    }

    fn on_unreachable(&self, _client: u64, _server: usize, _time: SimTime) {
        self.registry.add("verb.unreachable.count", 1);
    }

    fn on_rpc(&self, ev: &RpcEvent) {
        self.registry.add("rpc.count", 1);
        self.registry.add("rpc.queue_ns", ev.queue_nanos);
        self.registry.add("rpc.server_ns", ev.server_nanos);
        self.with_client(ev.client, |st| {
            if let Some(span) = &mut st.span {
                span.attribute_verb(
                    ev.issued.as_nanos(),
                    ev.time.as_nanos(),
                    ev.queue_nanos,
                    ev.server_nanos,
                );
            }
        });
        self.push_trace(TraceEvent {
            ph: 'X',
            name: "rpc".into(),
            cat: "verb",
            ts_nanos: ev.issued.as_nanos(),
            dur_nanos: Some(ev.time.as_nanos() - ev.issued.as_nanos()),
            tid: ev.client,
            scope: None,
            args: vec![
                ("server", ArgValue::U64(ev.server as u64)),
                ("queue_ns", ArgValue::U64(ev.queue_nanos)),
                ("server_ns", ArgValue::U64(ev.server_nanos)),
            ],
        });
    }

    fn on_verb_failed(&self, client: u64, server: usize, time: SimTime) {
        self.registry.add("verb.failed.count", 1);
        self.with_client(client, |st| {
            if let Some(span) = &mut st.span {
                span.attribute_failure(time.as_nanos());
            }
        });
        self.push_trace(TraceEvent {
            ph: 'i',
            name: "verb_failed".into(),
            cat: "fault",
            ts_nanos: time.as_nanos(),
            dur_nanos: None,
            tid: client,
            scope: Some('t'),
            args: vec![("server", ArgValue::U64(server as u64))],
        });
    }

    fn on_op_start(&self, client: u64, kind: OpKind, time: SimTime) {
        self.with_client(client, |st| {
            debug_assert!(st.span.is_none(), "ops do not nest within a client");
            st.span = Some(OpSpan::new(kind, time.as_nanos()));
        });
        self.push_trace(TraceEvent {
            ph: 'B',
            name: kind.label().into(),
            cat: "op",
            ts_nanos: time.as_nanos(),
            dur_nanos: None,
            tid: client,
            scope: None,
            args: vec![],
        });
    }

    fn on_op_end(&self, client: u64, kind: OpKind, ok: bool, time: SimTime) {
        let closed = self.with_client(client, |st| {
            let mut span = st.span.take()?;
            let total = span.close(time.as_nanos());
            Some((span.kind, span.breakdown, total))
        });
        let Some((span_kind, breakdown, total)) = closed else {
            return;
        };
        let label = span_kind.label();
        self.registry.add(&format!("op.{label}.count"), 1);
        if !ok {
            self.registry.add(&format!("op.{label}.errors"), 1);
        }
        self.registry
            .record(&format!("op.{label}.latency_ns"), total);
        for c in COMPONENTS {
            let n = breakdown.get(c);
            if n > 0 {
                self.registry
                    .add(&format!("span.{label}.{}_ns", c.label()), n);
            }
        }
        if breakdown.total() != total {
            self.mismatches.inc();
            self.registry.add("span.mismatches", 1);
        }
        let mut args: Vec<(&'static str, ArgValue)> = vec![("ok", ArgValue::U64(ok as u64))];
        for c in COMPONENTS {
            args.push((c.label(), ArgValue::U64(breakdown.get(c))));
        }
        self.push_trace(TraceEvent {
            ph: 'E',
            name: kind.label().into(),
            cat: "op",
            ts_nanos: time.as_nanos(),
            dur_nanos: None,
            tid: client,
            scope: None,
            args,
        });
    }

    fn on_region(&self, client: u64, kind: RegionKind, enter: bool, time: SimTime) {
        self.with_client(client, |st| {
            if let Some(span) = &mut st.span {
                if enter {
                    // Attribute the gap before the region under the
                    // prevailing state, then open the region.
                    let c = span
                        .region
                        .map(Component::from)
                        .unwrap_or(Component::Compute);
                    span.attribute_all(time.as_nanos(), c);
                    span.region = Some(kind);
                } else {
                    span.attribute_all(time.as_nanos(), kind.into());
                    span.region = None;
                }
            }
        });
        self.push_trace(TraceEvent {
            ph: if enter { 'B' } else { 'E' },
            name: kind.label().into(),
            cat: "region",
            ts_nanos: time.as_nanos(),
            dur_nanos: None,
            tid: client,
            scope: None,
            args: vec![],
        });
    }

    fn on_instant(&self, label: &str, time: SimTime) {
        self.registry.add("fault.instants", 1);
        self.push_trace(TraceEvent {
            ph: 'i',
            name: label.into(),
            cat: "fault",
            ts_nanos: time.as_nanos(),
            dur_nanos: None,
            tid: 0,
            scope: Some('g'),
            args: vec![],
        });
    }
}
