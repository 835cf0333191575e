//! Integration test for the exact-sum span invariant: under injected
//! faults (server crash + restart, client kill + revival) and the retry
//! traffic they provoke, every closed op span's component breakdown
//! still sums exactly to the op's latency — [`Telemetry`] checks the
//! invariant at close time and `breakdown_mismatches()` counts
//! violations.

use namdex_core::{Design, FgConfig, Hybrid, NamCluster, PartitionMap};
use rdma_sim::chaos::{ChaosController, FaultPlan};
use rdma_sim::{ClusterSpec, Endpoint};
use simnet::rng::DetRng;
use simnet::{Sim, SimDur, SimTime};
use std::rc::Rc;
use telemetry::{Registry, Telemetry};

const KEYS: u64 = 4_000;
const CLIENTS: usize = 4;

fn run_with_faults() -> (Rc<Telemetry>, u64) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    nam.rdma.set_active_clients(CLIENTS);

    let tel = Telemetry::with_trace(Registry::new());
    tel.install(&nam.rdma);

    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    // The `Design` wrapper is the op-span (and retry) layer: spans open
    // at `note_op_start` and close at `note_op_end`, retries included.
    let index = Design::Hybrid(Hybrid::build(
        &nam,
        FgConfig::default(),
        partition,
        (0..KEYS).map(|i| (i * 8, i)),
    ));

    // One fault of each flavour inside the run, so spans close across
    // verb failures, cancellations, and post-restart retries.
    let plan = FaultPlan::with_seed(7)
        .crash_server(SimTime::from_millis(1), 1)
        .restart_server(SimTime::from_millis(2), 1)
        .kill_client(SimTime::from_micros(2_500), 2)
        .revive_client(SimTime::from_millis(3), 2);
    ChaosController::install(&sim, &nam.rdma, plan);

    let aborts = Rc::new(simnet::stats::Counter::new());
    for c in 0..CLIENTS {
        let index = index.clone();
        let ep = Endpoint::new(&nam.rdma);
        let cluster = nam.rdma.clone();
        let sim_c = sim.clone();
        let aborts = aborts.clone();
        let mut rng = DetRng::seed_from_u64(1_000 + c as u64);
        sim.spawn(async move {
            loop {
                let key = rng.next_u64_below(KEYS) * 8;
                let res = if rng.next_u64_below(2) == 0 {
                    index.lookup(&ep, key).await.map(|_| ())
                } else {
                    index.insert(&ep, key, key).await.map(|_| ())
                };
                if let Err(e) = res {
                    aborts.inc();
                    // A killed client parks until revival instead of
                    // spinning on `Cancelled` at a frozen instant.
                    if e.is_cancelled() {
                        while cluster.client_dead(ep.client_id()) {
                            sim_c.sleep(SimDur::from_micros(10)).await;
                        }
                    }
                }
            }
        });
    }
    sim.run_until(SimTime::from_millis(5));
    (tel, aborts.get())
}

#[test]
fn span_breakdowns_sum_exactly_under_faults() {
    let (tel, aborts) = run_with_faults();
    let reg = tel.registry();

    // The fault schedule actually bit: ops aborted and verbs failed.
    let lookups = reg.counter("op.lookup.count").get();
    let inserts = reg.counter("op.insert.count").get();
    assert!(
        lookups > 0 && inserts > 0,
        "workload ran: {lookups}/{inserts}"
    );
    assert!(aborts > 0, "fault schedule produced no aborted ops");
    let failed =
        reg.counter("verb.failed.count").get() + reg.counter("verb.unreachable.count").get();
    assert!(failed > 0, "fault schedule produced no failed verbs");

    // The invariant under test: every closed span's breakdown summed
    // exactly to its latency, fault paths included.
    assert_eq!(
        tel.breakdown_mismatches(),
        0,
        "span component sums diverged from op latency"
    );
    assert_eq!(reg.counter("span.mismatches").get(), 0);

    // And the trace carries matched op spans plus fault instants.
    let trace = tel.chrome_trace_json();
    assert!(trace.contains("\"ph\":\"B\"") && trace.contains("\"ph\":\"E\""));
    assert!(trace.contains("crash_server(1)"));
    assert!(trace.contains("kill_client(2)"));
}
