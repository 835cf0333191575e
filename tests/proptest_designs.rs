//! Property-based tests: random operation scripts executed against each
//! index design must agree with a `BTreeMap` oracle, for any script and
//! any (small) page size.

use namdex::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A scripted operation over a bounded key space.
#[derive(Clone, Debug)]
enum ScriptOp {
    Insert(u64, u64),
    Delete(u64),
    Lookup(u64),
    Range(u64, u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0..key_space, 0..1_000_000u64).prop_map(|(k, v)| ScriptOp::Insert(k, v)),
        (0..key_space).prop_map(ScriptOp::Delete),
        (0..key_space).prop_map(ScriptOp::Lookup),
        (0..key_space, 0..200u64).prop_map(|(lo, span)| ScriptOp::Range(lo, lo + span)),
    ]
}

fn run_script(design_kind: u8, page_size: usize, loaded: u64, script: Vec<ScriptOp>) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let layout = PageLayout::new(page_size);
    let items = (0..loaded).map(|i| (i * 4, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), (loaded * 4).max(4));
    let design = match design_kind {
        0 => Design::Cg(CoarseGrained::build(&nam, layout, partition, items, 0.75)),
        1 => Design::Fg(FineGrained::build(
            &nam.rdma,
            FgConfig {
                layout,
                fill: 0.75,
                scan_batch: 3,
                cache_capacity: None,
            },
            items,
        )),
        _ => Design::Hybrid(Hybrid::build(
            &nam,
            FgConfig {
                layout,
                fill: 0.75,
                scan_batch: 3,
                cache_capacity: None,
            },
            partition,
            items,
        )),
    };

    // Every scripted run executes with the protocol checker active and
    // must stay violation-free.
    let race = Racecheck::install(&nam.rdma, page_size);
    namdex::racecheck::walk::register_design(&race, &design);
    let design_for_walk = design.clone();

    let ep = Endpoint::new(&nam.rdma);
    sim.spawn(async move {
        let mut oracle: BTreeMap<u64, u64> = (0..loaded).map(|i| (i * 4, i)).collect();
        for op in script {
            match op {
                ScriptOp::Insert(k, v) => {
                    // Keep keys unique so the first-live-match semantics
                    // of point lookups stay oracle-comparable.
                    if let std::collections::btree_map::Entry::Vacant(e) = oracle.entry(k) {
                        e.insert(v);
                        design.insert(&ep, k, v).await.unwrap();
                    }
                }
                ScriptOp::Delete(k) => {
                    let expected = oracle.remove(&k).is_some();
                    let got = design.delete(&ep, k).await.unwrap();
                    assert_eq!(got, expected, "delete({k})");
                }
                ScriptOp::Lookup(k) => {
                    assert_eq!(
                        design.lookup(&ep, k).await.unwrap(),
                        oracle.get(&k).copied(),
                        "lookup({k})"
                    );
                }
                ScriptOp::Range(lo, hi) => {
                    let got = design.range(&ep, lo, hi).await.unwrap();
                    let want: Vec<(u64, u64)> =
                        oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "range({lo}, {hi})");
                }
            }
        }
    });
    sim.run();
    assert_eq!(race.check_structure(&design_for_walk), 0, "structural walk");
    race.assert_clean();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn cg_matches_oracle(
        script in prop::collection::vec(op_strategy(2_000), 1..120),
        loaded in 1u64..400,
    ) {
        run_script(0, 256, loaded, script);
    }

    #[test]
    fn fg_matches_oracle(
        script in prop::collection::vec(op_strategy(2_000), 1..120),
        loaded in 1u64..400,
    ) {
        run_script(1, 256, loaded, script);
    }

    #[test]
    fn hybrid_matches_oracle(
        script in prop::collection::vec(op_strategy(2_000), 1..120),
        loaded in 1u64..400,
    ) {
        run_script(2, 256, loaded, script);
    }

    #[test]
    fn page_size_is_immaterial(
        script in prop::collection::vec(op_strategy(500), 1..60),
        page_size in 136usize..1024,
    ) {
        // Any page size that fits the header + 2 entries must behave
        // identically (modulo performance).
        run_script(1, page_size, 100, script);
    }
}
