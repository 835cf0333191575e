//! Observer-bus firing-order regression (see `rdma_sim::observer`).
//!
//! The race detector's happens-before edges are only sound if the
//! observer bus reports events **at the instant their memory effect
//! applies, in apply order** — a verb reported early (before its WAL
//! append landed) or late (after a later verb's event) would let the
//! vector clocks order accesses differently from the simulated memory
//! system. This pins that contract under `Durability::Wal`, where the
//! temptation to reorder is real: acks are deferred behind log flushes
//! and a crash/recovery cycle rewinds server memory mid-run.
//!
//! * every hook of the full surface (verbs, RPCs, fences, regions,
//!   failures, recovery) is recorded by two observers; they must see
//!   the identical sequence, strictly in registration order;
//! * event times are non-decreasing — nothing is reported out of apply
//!   order — and every verb completes no earlier than it was issued;
//! * the whole recorded sequence is pinned by an FNV-1a digest: any
//!   change to what fires, when it fires, or its order is a visible,
//!   deliberate golden update. That run calls single-attempt `Index`
//!   ops, which open no op span and never back off;
//! * a second run issues `Design` ops, which do: there each client's
//!   op starts and ends alternate, and every verb, RPC, failure, region
//!   and fence of a client falls inside one of its op windows.

use namdex::prelude::*;
use namdex::rdma::observer::{FenceKind, OpKind, RegionKind, RpcEvent, VerbEvent, VerbObserver};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Golden FNV-1a digest of the recorded event sequence. Regenerate by
/// running with `NAMDEX_PRINT_DIGEST=1` after a *deliberate* change to
/// the observer surface or the engine's verb schedule.
const OBSERVER_ORDER_GOLDEN: u64 = 0x154b_0f87_64f5_c3a3;

/// Records every observer hook as a rendered line with the client it
/// names (if any), tagging each with a ticket from the bus-wide sequence
/// counter shared by all recorders.
struct Recorder {
    seq: Rc<Cell<u64>>,
    lines: RefCell<Vec<String>>,
    clients: RefCell<Vec<Option<u64>>>,
    tickets: RefCell<Vec<u64>>,
    times: RefCell<Vec<u64>>,
}

impl Recorder {
    fn new(seq: &Rc<Cell<u64>>) -> Rc<Recorder> {
        Rc::new(Recorder {
            seq: seq.clone(),
            lines: RefCell::new(Vec::new()),
            clients: RefCell::new(Vec::new()),
            tickets: RefCell::new(Vec::new()),
            times: RefCell::new(Vec::new()),
        })
    }

    fn record(&self, time: SimTime, client: Option<u64>, line: String) {
        let t = self.seq.get();
        self.seq.set(t + 1);
        self.clients.borrow_mut().push(client);
        self.tickets.borrow_mut().push(t);
        self.times.borrow_mut().push(time.as_nanos());
        self.lines.borrow_mut().push(line);
    }
}

impl VerbObserver for Recorder {
    fn on_verb(&self, ev: &VerbEvent) {
        assert!(
            ev.time >= ev.issued,
            "verb completed before it was issued: {ev:?}"
        );
        self.record(
            ev.time,
            Some(ev.client),
            format!(
                "verb {:?} c{} s{} {:#x}+{} t={}",
                ev.kind, ev.client, ev.server, ev.offset, ev.len, ev.time
            ),
        );
    }
    fn on_unreachable(&self, client: u64, server: usize, time: SimTime) {
        self.record(
            time,
            Some(client),
            format!("unreachable c{client} s{server} t={time}"),
        );
    }
    fn on_rpc(&self, ev: &RpcEvent) {
        self.record(
            ev.time,
            Some(ev.client),
            format!("rpc c{} s{} t={}", ev.client, ev.server, ev.time),
        );
    }
    fn on_verb_failed(&self, client: u64, server: usize, time: SimTime) {
        self.record(
            time,
            Some(client),
            format!("verb-failed c{client} s{server} t={time}"),
        );
    }
    fn on_op_start(&self, client: u64, kind: OpKind, time: SimTime) {
        let line = format!("op-start c{client} {} t={time}", kind.label());
        self.record(time, Some(client), line);
    }
    fn on_op_end(&self, client: u64, kind: OpKind, ok: bool, time: SimTime) {
        let line = format!("op-end c{client} {} ok={ok} t={time}", kind.label());
        self.record(time, Some(client), line);
    }
    fn on_region(&self, client: u64, kind: RegionKind, enter: bool, time: SimTime) {
        self.record(
            time,
            Some(client),
            format!("region c{client} {} enter={enter} t={time}", kind.label()),
        );
    }
    fn on_instant(&self, label: &str, time: SimTime) {
        self.record(time, None, format!("instant {label} t={time}"));
    }
    fn on_fence(&self, client: u64, kind: FenceKind, server: usize, offset: u64, time: SimTime) {
        self.record(
            time,
            Some(client),
            format!("fence c{client} {kind:?} s{server} {offset:#x} t={time}"),
        );
    }
    fn on_server_recovered(&self, server: usize, time: SimTime) {
        self.record(time, None, format!("recovered s{server} t={time}"));
    }
}

fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Hybrid-design workload under `Durability::Wal` with a crash/recovery
/// of server 1 mid-run: one-sided reads, RPC writes, WAL-deferred acks,
/// unreachable windows and a recovery all cross the bus. With
/// `design_ops` the same ops go through the `Design` retry layer, which
/// brackets each in an op span and backs off between attempts.
fn recorded_run(design_ops: bool) -> (Rc<Recorder>, Rc<Recorder>) {
    const KEYS: u64 = 64;
    let sim = Sim::new();
    let nam = NamCluster::new(
        &sim,
        ClusterSpec {
            durability: Durability::Wal,
            wal_restart_boot_latency: SimDur::from_micros(200),
            ..ClusterSpec::default()
        },
    );
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let index = Hybrid::build(
        &nam,
        FgConfig::default(),
        partition,
        (0..KEYS).map(|i| (i * 8, i)),
    );

    let seq = Rc::new(Cell::new(0u64));
    let first = Recorder::new(&seq);
    let second = Recorder::new(&seq);
    nam.rdma.add_observer(first.clone());
    nam.rdma.add_observer(second.clone());

    let plan = FaultPlan::with_seed(7)
        .crash_server(SimTime::from_micros(300), 1)
        .restart_server(SimTime::from_micros(400), 1);
    ChaosController::install(&sim, &nam.rdma, plan);

    for w in 0..2u64 {
        let index = index.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            let design = Design::Hybrid(index.clone());
            for i in 0..12u64 {
                let k = 1 + 2 * (w * 12 + i);
                let (v, probe) = (k * 10 + w, (i % KEYS) * 8);
                // Crash-window ops may fail; the sequence of attempts is
                // still deterministic and that is all the digest pins.
                if design_ops {
                    let _ = design.insert(&ep, k, v).await;
                    let _ = design.lookup(&ep, probe).await;
                } else {
                    let _ = index.insert(&ep, k, v, false).await;
                    let _ = index.lookup(&ep, probe).await;
                }
            }
        });
    }
    sim.run();
    (first, second)
}

#[test]
fn observer_firing_order_is_pinned() {
    let (first, second) = recorded_run(false);
    let lines = first.lines.borrow();

    // Both observers saw the identical sequence...
    assert_eq!(*lines, *second.lines.borrow());
    assert!(!lines.is_empty(), "workload crossed the bus");
    // ...with a recovery in it (the Wal restart actually happened)...
    assert!(
        lines.iter().any(|l| l.starts_with("recovered s1")),
        "no recovery event recorded"
    );
    // ...and strictly in registration order at every single event: the
    // first observer drew the even tickets, the second the odd ones.
    for (i, (tf, ts)) in first
        .tickets
        .borrow()
        .iter()
        .zip(second.tickets.borrow().iter())
        .enumerate()
    {
        assert_eq!((*tf, *ts), (2 * i as u64, 2 * i as u64 + 1), "event {i}");
    }

    // Events are reported in apply order: times never go backwards.
    let times = first.times.borrow();
    for w in times.windows(2) {
        assert!(w[0] <= w[1], "event reported out of apply order");
    }

    let digest = fnv1a(&lines);
    if std::env::var_os("NAMDEX_PRINT_DIGEST").is_some() {
        eprintln!(
            "observer-order digest: {digest:#x} over {} events",
            lines.len()
        );
        for l in lines.iter().take(40) {
            eprintln!("  {l}");
        }
    }
    assert_eq!(
        digest,
        OBSERVER_ORDER_GOLDEN,
        "observer event sequence changed ({} events): rerun with \
         NAMDEX_PRINT_DIGEST=1, review the diff deliberately, then \
         update OBSERVER_ORDER_GOLDEN",
        lines.len()
    );
}

/// The digest is a run invariant, not an accident of one execution.
#[test]
fn recorded_sequence_is_deterministic() {
    let (a, _) = recorded_run(false);
    let (b, _) = recorded_run(false);
    assert_eq!(*a.lines.borrow(), *b.lines.borrow());
}

/// `Design` ops bracket their client's events: per client, op starts
/// and ends alternate, and every verb, RPC, failure, region and fence
/// falls inside one of that client's op windows.
#[test]
fn op_spans_bracket_their_clients_events() {
    let (first, second) = recorded_run(true);
    let lines = first.lines.borrow();
    assert_eq!(*lines, *second.lines.borrow());

    let mut open: BTreeMap<u64, bool> = BTreeMap::new();
    let (mut spans, mut backoffs) = (0, 0);
    for (line, client) in lines.iter().zip(first.clients.borrow().iter()) {
        let Some(c) = *client else { continue };
        let in_op = open.entry(c).or_default();
        if line.starts_with("op-start") {
            assert!(!*in_op, "op started inside an open op: {line}");
            *in_op = true;
            spans += 1;
        } else if line.starts_with("op-end") {
            assert!(*in_op, "op ended with none open: {line}");
            *in_op = false;
        } else {
            assert!(*in_op, "client event outside its op windows: {line}");
            backoffs += usize::from(line.contains(" backoff enter=true"));
        }
    }
    assert_eq!(spans, 2 * 12 * 2, "one span per issued op");
    assert!(open.values().all(|&in_op| !in_op), "every op ended");
    assert!(backoffs > 0, "the crash window forced a retry");
}
