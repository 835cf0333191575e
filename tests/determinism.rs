//! Determinism regression: the same seeded workload, run twice against a
//! fresh simulation, must produce *byte-identical* results for every
//! design — operation outcomes, latency histograms, and every per-server
//! traffic counter. This is the property the static determinism lint
//! (`cargo xtask lint`) protects: one stray wall-clock read or hash-order
//! iteration anywhere in the simulation stack breaks it.

use namdex::index::OpError;
use namdex::prelude::*;
use namdex::sim::stats::Histogram;
use std::cell::RefCell;
use std::rc::Rc;

const KEYS: u64 = 2_000;
const CLIENTS: u64 = 6;
const OPS_PER_CLIENT: u64 = 120;

/// FNV-1a over a stream of u64s: the run digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, v: u64) {
        let mut h = self.0;
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

fn build(kind: IndexKind, nam: &NamCluster) -> Design {
    let items = (0..KEYS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    Design::build(kind, nam, FgConfig::default(), partition, items)
}

/// Run a Fig.7-style mixed workload (zipfian YCSB-A over a loaded
/// dataset) and fold everything observable into one digest.
fn run_digest(kind: IndexKind, seed: u64) -> u64 {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let design = build(kind, &nam);
    nam.rdma.set_active_clients(CLIENTS as usize);

    let results = Rc::new(RefCell::new(Digest::new()));
    let latency = Rc::new(RefCell::new(Histogram::new()));
    let workload = Workload::a().with_dist(RequestDist::Zipfian(0.99));
    for c in 0..CLIENTS {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let sim_c = sim.clone();
        let results = results.clone();
        let latency = latency.clone();
        let mut gen = OpGen::new(workload, Dataset::new(KEYS), c, CLIENTS, seed);
        sim.spawn(async move {
            for _ in 0..OPS_PER_CLIENT {
                let op = gen.next_op();
                let t0 = sim_c.now();
                match op {
                    Op::Point(k) => {
                        let got = design.lookup(&ep, k).await.unwrap();
                        results.borrow_mut().push(got.map_or(u64::MAX, |v| v));
                    }
                    Op::Range(lo, hi) => {
                        let rows = design.range(&ep, lo, hi).await.unwrap();
                        let mut d = results.borrow_mut();
                        d.push(rows.len() as u64);
                        for (k, v) in rows {
                            d.push(k);
                            d.push(v);
                        }
                    }
                    Op::Insert(k, v) => {
                        design.insert(&ep, k, v).await.unwrap();
                        results.borrow_mut().push(k ^ v);
                    }
                }
                let t1 = sim_c.now();
                latency.borrow_mut().record((t1 - t0).as_nanos());
            }
        });
    }
    sim.run();

    let mut d = Digest::new();
    d.push(results.borrow().0);
    // Histogram digest: count, extremes, mean bits, a percentile ladder.
    let h = latency.borrow();
    d.push(h.count());
    d.push(h.min());
    d.push(h.max());
    d.push(h.mean().to_bits());
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
        d.push(h.percentile(q));
    }
    // Byte counters: final virtual time and every per-server stat.
    d.push(sim.now().as_nanos());
    d.push(nam.rdma.total_wire_bytes());
    for s in nam.rdma.all_stats() {
        d.push(s.bytes_in);
        d.push(s.bytes_out);
        d.push(s.local_bytes);
        d.push(s.onesided_ops);
        d.push(s.rpcs);
        d.push(s.nic_busy_nanos);
        d.push(s.cpu_busy_nanos);
    }
    d.0
}

/// Fold an operation outcome into the digest: success pushes the
/// payload, failure pushes a small error code (so aborted and completed
/// runs can never collide).
fn push_outcome<T>(d: &mut Digest, r: Result<T, OpError>, payload: impl FnOnce(T) -> u64) {
    match r {
        Ok(v) => d.push(payload(v)),
        Err(OpError::Cancelled) => d.push(u64::MAX - 1),
        Err(OpError::RetriesExhausted { attempts, .. }) => d.push(u64::MAX - 2 - attempts as u64),
        Err(OpError::Fatal(_)) => d.push(u64::MAX - 200),
    }
}

/// The faulted twin of [`run_digest`]: the same YCSB workload with a
/// seed-deterministic [`FaultPlan`] installed — a scripted server
/// outage, a kill-on-lock-acquire trigger, a client-kill window, and a
/// randomized tail drawn from `fault_seed`. Two runs with the same
/// `(seed, fault_seed)` must still be byte-identical.
fn run_fault_digest(kind: IndexKind, seed: u64, fault_seed: u64) -> u64 {
    let us = SimTime::from_micros;
    let plan_base = FaultPlan::new()
        .kill_on_lock_acquire(us(150), 0)
        .revive_client(us(400), 0)
        .crash_server(us(300), 1)
        .restart_server(us(600), 1)
        .kill_client(us(450), 2)
        .revive_client(us(700), 2)
        .degrade_link(
            us(800),
            0,
            LinkDegrade {
                drop_chance: 0.2,
                extra_delay: SimDur::from_micros(2),
                bandwidth_factor: 0.7,
            },
        )
        .restore_link(us(1_100), 0);
    let mut plan = FaultPlan::with_seed(fault_seed);
    for &(t, ev) in plan_base.events() {
        plan = plan.at(t, ev);
    }
    for &(t, ev) in FaultPlan::randomized(
        fault_seed,
        4,
        CLIENTS,
        RandomProfile {
            horizon: SimDur::from_millis(1),
            server_downtime: SimDur::from_micros(200),
            client_downtime: SimDur::from_micros(150),
            degrade_duration: SimDur::from_micros(300),
            ..RandomProfile::default()
        },
    )
    .events()
    {
        plan = plan.at(t, ev);
    }

    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let design = build(kind, &nam);
    nam.rdma.set_active_clients(CLIENTS as usize);
    ChaosController::install(&sim, &nam.rdma, plan);

    let results = Rc::new(RefCell::new(Digest::new()));
    let workload = Workload::a().with_dist(RequestDist::Zipfian(0.99));
    for c in 0..CLIENTS {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let cluster = nam.rdma.clone();
        let sim_c = sim.clone();
        let results = results.clone();
        let mut gen = OpGen::new(workload, Dataset::new(KEYS), c, CLIENTS, seed);
        sim.spawn(async move {
            for _ in 0..OPS_PER_CLIENT {
                let op = gen.next_op();
                match op {
                    Op::Point(k) => {
                        let got = design.lookup(&ep, k).await;
                        push_outcome(&mut results.borrow_mut(), got, |v| {
                            v.map_or(u64::MAX, |x| x)
                        });
                    }
                    Op::Range(lo, hi) => {
                        let rows = design.range(&ep, lo, hi).await;
                        push_outcome(&mut results.borrow_mut(), rows, |rows| {
                            let mut h = Digest::new();
                            h.push(rows.len() as u64);
                            for (k, v) in rows {
                                h.push(k);
                                h.push(v);
                            }
                            h.0
                        });
                    }
                    Op::Insert(k, v) => {
                        let got = design.insert(&ep, k, v).await;
                        push_outcome(&mut results.borrow_mut(), got, |()| k ^ v);
                    }
                }
                // A killed client parks until its scheduled revival
                // (every kill in the plan has one).
                while cluster.client_dead(ep.client_id()) {
                    sim_c.sleep(SimDur::from_micros(10)).await;
                }
            }
        });
    }
    sim.run();

    let mut d = Digest::new();
    d.push(results.borrow().0);
    d.push(sim.now().as_nanos());
    d.push(nam.rdma.total_wire_bytes());
    let fs = nam.rdma.fault_stats();
    d.push(fs.verbs_cancelled);
    d.push(fs.verbs_unreachable);
    d.push(fs.verbs_timed_out);
    d.push(fs.verbs_dropped);
    d.push(fs.lock_kills_fired);
    for s in nam.rdma.all_stats() {
        d.push(s.bytes_in);
        d.push(s.bytes_out);
        d.push(s.onesided_ops);
        d.push(s.rpcs);
    }
    d.0
}

#[test]
fn faulted_runs_same_seed_same_plan_are_byte_identical() {
    for kind in IndexKind::ALL {
        assert_eq!(
            run_fault_digest(kind, 42, 7),
            run_fault_digest(kind, 42, 7),
            "{kind:?} diverged under an identical fault plan"
        );
    }
}

#[test]
fn different_fault_seeds_differ() {
    // The randomized tail of the plan (and the drop-roll RNG) must
    // actually depend on the fault seed.
    assert_ne!(
        run_fault_digest(IndexKind::FineGrained, 42, 7),
        run_fault_digest(IndexKind::FineGrained, 42, 8)
    );
}

#[test]
fn cg_same_seed_is_byte_identical() {
    assert_eq!(
        run_digest(IndexKind::CoarseGrained, 42),
        run_digest(IndexKind::CoarseGrained, 42)
    );
}

#[test]
fn fg_same_seed_is_byte_identical() {
    assert_eq!(
        run_digest(IndexKind::FineGrained, 42),
        run_digest(IndexKind::FineGrained, 42)
    );
}

#[test]
fn hybrid_same_seed_is_byte_identical() {
    assert_eq!(
        run_digest(IndexKind::Hybrid, 42),
        run_digest(IndexKind::Hybrid, 42)
    );
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the digest actually covers the run: two seeds
    // must not collide (they drive different op streams).
    assert_ne!(
        run_digest(IndexKind::FineGrained, 1),
        run_digest(IndexKind::FineGrained, 2)
    );
}
