//! Fault-injection quickstart: a hybrid index rides out a scripted
//! fault schedule.
//!
//! Demonstrates the `chaos` module end to end: a seed-deterministic
//! [`FaultPlan`] kills a client the instant its lock-acquire CAS
//! succeeds (orphaning a leaf lock that a contender must break after
//! the lease expires), crashes and restarts a memory server (moving
//! the cluster's restart epoch, which flushes client-cached state), and
//! degrades a link — while closed-loop clients keep issuing operations
//! through the bounded-retry layer. Each fault is printed as it lands,
//! read off the observer bus like any other listener would.
//!
//! Run with `cargo run --example fault_tolerance`.

use namdex::prelude::*;
use namdex::rdma::{VerbEvent, VerbObserver};
use std::cell::Cell;
use std::rc::Rc;

/// Prints every labelled instant on the bus: the chaos controller puts
/// each fault it applies there.
struct PrintFaults;

impl VerbObserver for PrintFaults {
    fn on_verb(&self, _ev: &VerbEvent) {}
    fn on_instant(&self, label: &str, _time: SimTime) {
        println!("  [chaos] {label}");
    }
}

const KEYS: u64 = 10_000;
const CLIENTS: u64 = 8;

fn main() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let partition = PartitionMap::range_uniform(nam.num_servers(), KEYS * 8);
    let index = Hybrid::build(
        &nam,
        FgConfig::default(),
        partition,
        (0..KEYS).map(|i| (i * 8, i)),
    );
    let design = Design::Hybrid(index);

    // One fault of every class, at scripted virtual instants. The same
    // plan replays identically on every run — faults are part of the
    // deterministic simulation, not an external disturbance.
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new()
        .kill_on_lock_acquire(ms(1), 0)
        .revive_client(ms(2), 0)
        .crash_server(ms(5), 1)
        .restart_server(ms(8), 1)
        .degrade_link(
            ms(12),
            0,
            LinkDegrade {
                drop_chance: 0.1,
                extra_delay: SimDur::from_micros(5),
                bandwidth_factor: 0.5,
            },
        )
        .restore_link(ms(15), 0);
    let controller = ChaosController::install(&sim, &nam.rdma, plan);
    nam.rdma.add_observer(Rc::new(PrintFaults));

    let end = ms(20);
    let completed = Rc::new(Cell::new(0u64));
    let aborted = Rc::new(Cell::new(0u64));
    for c in 0..CLIENTS {
        let design = design.clone();
        let ep = Endpoint::new(&nam.rdma);
        let cluster = nam.rdma.clone();
        let sim_c = sim.clone();
        let completed = completed.clone();
        let aborted = aborted.clone();
        sim.spawn(async move {
            let mut k = c;
            let mut fresh = 0u64;
            while sim_c.now() < end {
                k = k
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407)
                    % KEYS;
                // Mostly lookups, with enough inserts that the armed
                // kill-on-lock-acquire trigger meets a lock CAS.
                let outcome = if k % 4 == 0 {
                    fresh += 1;
                    let key = (KEYS + c * 1_000_000 + fresh) * 8 + 1;
                    design.insert(&ep, key, fresh).await
                } else {
                    design.lookup(&ep, k * 8).await.map(|got| {
                        assert_eq!(got, Some(k), "a completed lookup is never wrong");
                    })
                };
                match outcome {
                    Ok(()) => completed.set(completed.get() + 1),
                    Err(e) => {
                        aborted.set(aborted.get() + 1);
                        // A killed client parks until its revival.
                        if e.is_cancelled() {
                            while cluster.client_dead(ep.client_id()) {
                                sim_c.sleep(SimDur::from_micros(10)).await;
                            }
                        }
                    }
                }
            }
        });
    }

    println!("20ms of virtual time under the fault schedule:");
    sim.run_until(end);

    let fs = nam.rdma.fault_stats();
    println!(
        "\n  {:>8} operations completed (every lookup correct)",
        completed.get()
    );
    println!("  {:>8} operations aborted", aborted.get());
    println!(
        "  {:>8} verbs hit a dead server, {} were cancelled, {} dropped",
        fs.verbs_unreachable, fs.verbs_cancelled, fs.verbs_dropped
    );
    println!(
        "  {:>8} lock-kill trigger(s) fired; restart epoch now {}",
        fs.lock_kills_fired,
        nam.rdma.restart_epoch()
    );
    assert!(controller.done(), "every scheduled fault was applied");
}
