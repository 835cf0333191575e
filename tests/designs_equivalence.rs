//! Cross-design equivalence: the four index designs are different
//! *distributions* of the same logical B-link tree, so identical
//! operation sequences must produce identical results — and must agree
//! with a std::BTreeMap oracle.

use namdex::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

type Shared<T> = Rc<RefCell<Vec<T>>>;

fn deploy(n_keys: u64) -> (Sim, NamCluster, Vec<Design>) {
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::default());
    let data = Dataset::new(n_keys);
    let partition = PartitionMap::range_uniform(nam.num_servers(), data.domain());
    let designs = IndexKind::ALL
        .into_iter()
        .map(|kind| {
            Design::build(
                kind,
                &nam,
                FgConfig::default(),
                partition.clone(),
                data.iter(),
            )
        })
        .collect();
    (sim, nam, designs)
}

#[test]
fn lookups_agree_across_designs() {
    let (sim, _nam, designs) = deploy(50_000);
    let results: Vec<Shared<Option<u64>>> = (0..designs.len())
        .map(|_| Rc::new(RefCell::new(Vec::new())))
        .collect();
    for (design, out) in designs.iter().zip(&results) {
        let design = design.clone();
        let out = out.clone();
        let ep = Endpoint::new(design_cluster(&design));
        sim.spawn(async move {
            for i in 0..500u64 {
                let key = (i * 97) % (50_000 * 8); // mix of hits and misses
                let got = design.lookup(&ep, key).await.unwrap();
                out.borrow_mut().push(got);
            }
        });
    }
    sim.run();
    let a = results[0].borrow();
    assert_eq!(*a, *results[1].borrow(), "CG vs FG disagree");
    assert_eq!(*a, *results[2].borrow(), "CG vs Hybrid disagree");
    assert_eq!(*a, *results[3].borrow(), "CG vs Learned disagree");
    // And against the oracle.
    for i in 0..500u64 {
        let key = (i * 97) % (50_000 * 8);
        let expect = if key % 8 == 0 { Some(key / 8) } else { None };
        assert_eq!(a[i as usize], expect, "key {key}");
    }
}

#[test]
fn ranges_agree_across_designs() {
    let (sim, _nam, designs) = deploy(20_000);
    let results: Vec<Shared<Vec<(u64, u64)>>> = (0..designs.len())
        .map(|_| Rc::new(RefCell::new(Vec::new())))
        .collect();
    for (design, out) in designs.iter().zip(&results) {
        let design = design.clone();
        let out = out.clone();
        let ep = Endpoint::new(design_cluster(&design));
        sim.spawn(async move {
            for i in 0..40u64 {
                let lo = i * 400 * 8;
                let hi = lo + 199 * 8;
                let rows = design.range(&ep, lo, hi).await.unwrap();
                out.borrow_mut().push(rows);
            }
        });
    }
    sim.run();
    let a = results[0].borrow();
    assert_eq!(*a, *results[1].borrow());
    assert_eq!(*a, *results[2].borrow());
    assert_eq!(*a, *results[3].borrow());
    for (i, rows) in a.iter().enumerate() {
        assert_eq!(rows.len(), 200, "scan {i}");
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "scan {i} unsorted"
        );
    }
}

#[test]
fn mixed_mutations_agree_with_oracle() {
    let (sim, _nam, designs) = deploy(5_000);
    // Deterministic op script: inserts of fresh odd keys, deletes of
    // loaded keys, lookups of both.
    let mut oracle: BTreeMap<u64, u64> = (0..5_000u64).map(|i| (i * 8, i)).collect();
    let mut script: Vec<(u8, u64, u64)> = Vec::new();
    let mut x = 12345u64;
    for step in 0..800u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match step % 4 {
            0 => {
                let key = (x % (5_000 * 8)) | 1;
                script.push((0, key, step)); // insert
                oracle.entry(key).or_insert(step);
            }
            1 => {
                let key = (x % 5_000) * 8;
                script.push((1, key, 0)); // delete
                oracle.remove(&key);
            }
            _ => {
                let key = x % (5_000 * 8 + 16);
                script.push((2, key, 0)); // lookup
            }
        }
    }

    for design in &designs {
        let design = design.clone();
        let script = script.clone();
        let oracle = oracle.clone();
        let ep = Endpoint::new(design_cluster(&design));
        let name = design.name();
        sim.spawn(async move {
            let mut local: BTreeMap<u64, u64> = (0..5_000u64).map(|i| (i * 8, i)).collect();
            for (op, key, val) in script {
                match op {
                    0 => {
                        // The index is non-unique; only insert fresh keys
                        // so the first-live-match lookup is predictable.
                        if let std::collections::btree_map::Entry::Vacant(e) = local.entry(key) {
                            e.insert(val);
                            design.insert(&ep, key, val).await.unwrap();
                        }
                    }
                    1 => {
                        let existed = local.remove(&key).is_some();
                        let deleted = design.delete(&ep, key).await.unwrap();
                        assert_eq!(deleted, existed, "{name}: delete {key}");
                    }
                    _ => {
                        let got = design.lookup(&ep, key).await.unwrap();
                        assert_eq!(got, local.get(&key).copied(), "{name}: lookup {key}");
                    }
                }
            }
            assert_eq!(local, oracle, "{name}: final state");
        });
        sim.run();
    }
}

/// Designs carry their own cluster handle; fetch it for endpoints.
fn design_cluster(design: &Design) -> &Cluster {
    design.index().setup_source().cluster()
}
