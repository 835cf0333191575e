//! OLTP scenario: a secondary order index under a mixed workload.
//!
//! Models the workload class that motivates the paper's evaluation
//! (§6.3): an `orders(customer_id)` secondary index serving "all orders
//! of this customer" queries mixed with a steady stream of new-order
//! inserts, with cancelled orders reclaimed by epoch GC.
//!
//! The index key is the classical composite `(customer_id, order_seq)`
//! packed into one u64 — like every disk-based secondary index, this
//! keeps keys unique no matter how many orders one customer places (a
//! single duplicated key may not exceed one leaf's capacity; see
//! `blink`'s split documentation). A customer's orders are then a range
//! scan over `[customer << 24, (customer + 1) << 24)`.
//!
//! ```sh
//! cargo run --release --example order_index
//! ```

use namdex::index::gc;
use namdex::prelude::*;
use namdex::sim::rng::DetRng;
use std::cell::Cell;
use std::rc::Rc;

const CUSTOMERS: u64 = 20_000;
const INITIAL_ORDERS: u64 = 100_000;
const CLIENTS: usize = 24;
/// Bits of the composite key reserved for the per-customer sequence.
const SEQ_BITS: u32 = 24;

fn composite(customer: u64, seq: u64) -> Key {
    debug_assert!(seq < (1 << SEQ_BITS));
    (customer << SEQ_BITS) | seq
}

fn main() {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());

    // Load ~5 orders per customer: composite(customer, seq) -> order_id.
    let mut rng = DetRng::seed_from_u64(7);
    let mut seqs = vec![0u64; CUSTOMERS as usize];
    let mut base: Vec<(Key, Value)> = (0..INITIAL_ORDERS)
        .map(|order| {
            let customer = rng.next_u64_below(CUSTOMERS);
            let seq = seqs[customer as usize];
            seqs[customer as usize] += 1;
            (composite(customer, seq), order)
        })
        .collect();
    base.sort_unstable();

    let domain = composite(CUSTOMERS, 0);
    let partition = PartitionMap::range_uniform(nam.num_servers(), domain);
    let index = Design::Hybrid(Hybrid::build(
        &nam,
        FgConfig::default(),
        partition,
        base.into_iter(),
    ));

    let lookups = Rc::new(Cell::new(0u64));
    let inserts = Rc::new(Cell::new(0u64));
    let found_orders = Rc::new(Cell::new(0u64));

    // Closed-loop clients: 80% customer lookups, 20% new orders. Each
    // client owns a disjoint slice of fresh sequence numbers.
    for c in 0..CLIENTS as u64 {
        let index = index.clone();
        let ep = Endpoint::new(&nam.rdma);
        let lookups = lookups.clone();
        let inserts = inserts.clone();
        let found = found_orders.clone();
        let mut rng = DetRng::seed_from_u64(100 + c);
        // Fresh sequences start above anything loaded (max ~25 per
        // customer) and are striped by client.
        let mut next_seq = 1_000 + c;
        let mut next_order = INITIAL_ORDERS + c;
        sim.spawn(async move {
            loop {
                let customer = rng.next_u64_below(CUSTOMERS);
                if rng.chance(0.8) {
                    // All orders of one customer: a range over its band.
                    let lo = composite(customer, 0);
                    let hi = composite(customer + 1, 0) - 1;
                    let orders = index.range(&ep, lo, hi).await.expect("fault-free run");
                    found.set(found.get() + orders.len() as u64);
                    lookups.set(lookups.get() + 1);
                } else {
                    index
                        .insert(&ep, composite(customer, next_seq), next_order)
                        .await
                        .expect("fault-free run");
                    next_seq += CLIENTS as u64;
                    next_order += CLIENTS as u64;
                    inserts.set(inserts.get() + 1);
                }
            }
        });
    }

    let horizon = SimTime::from_millis(50);
    sim.run_until(horizon);

    let secs = horizon.as_secs_f64();
    println!(
        "order index on {} memory servers, {CLIENTS} clients:",
        nam.num_servers()
    );
    println!(
        "  {:>9.0} customer lookups/s (avg {:.1} orders each)",
        lookups.get() as f64 / secs,
        found_orders.get() as f64 / lookups.get().max(1) as f64
    );
    println!("  {:>9.0} new orders/s", inserts.get() as f64 / secs);

    // Cancel the first order of 500 customers, then reclaim with an
    // epoch GC pass. (Clients keep running — GC is concurrent, as in the
    // paper.)
    let index2 = index.clone();
    let ep = Endpoint::new(&nam.rdma);
    let reclaimed = Rc::new(Cell::new(usize::MAX));
    {
        let reclaimed = reclaimed.clone();
        sim.spawn(async move {
            let mut cancelled = 0;
            for customer in 0..500u64 {
                if index2
                    .delete(&ep, composite(customer, 0))
                    .await
                    .expect("fault-free run")
                {
                    cancelled += 1;
                }
            }
            let freed = gc::gc_pass(&index2, &ep).await.expect("fault-free run");
            assert!(
                freed >= cancelled,
                "GC must reclaim at least what we cancelled"
            );
            reclaimed.set(freed);
        });
    }
    sim.run_until(horizon + SimDur::from_millis(200));
    assert_ne!(reclaimed.get(), usize::MAX, "GC pass must complete");
    println!(
        "  cancelled orders of 500 customers; epoch GC reclaimed {} entries",
        reclaimed.get()
    );
}
