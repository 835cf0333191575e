//! Happens-before rules of the dynamic checker (see `crates/racecheck`;
//! the protocol rules are exercised in `tests/racecheck_protocol.rs`):
//!
//! * **clean matrix** — every design × fault mode runs violation-free
//!   with the checker installed (through the model-checker harness, which
//!   installs [`Racecheck`] on every run): the optimistic protocols
//!   validate every racy snapshot before its bytes escape;
//! * **seeded protocol races** — hand-driven verb sequences that break
//!   the protocol in each rule's characteristic way are reported, with
//!   the expected rule id and a causal-chain diagnostic;
//! * **benign validated races** — the same racy read followed by the
//!   engine's validation fence is *not* reported (the FastTrack-style
//!   classification the detector exists for);
//! * **zero perturbation** — installing the detector changes neither
//!   history digest nor virtual end time of a run.

use mc::{run_scenario, FaultMode, PolicyKind, Scenario};
use namdex::prelude::*;
use namdex::rdma::observer::{FenceKind, OpKind};
use namdex::tree::layout::lock_word;
use std::cell::Cell;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Clean matrix: the real designs, race-free under the detector.

/// Each cell runs with an unbounded client cache and with one of a single
/// entry per client. The harness tree has one inner page and a handful
/// of hot leaves, so any larger bound never fills; at one entry every
/// second hybrid lookup evicts, and eviction runs against splits, lease
/// breaks and the restart flush.
#[test]
fn clean_matrix_every_design_and_fault_mode() {
    for design in IndexKind::ALL {
        for fault in [FaultMode::None, FaultMode::Chaos, FaultMode::CrashRecover] {
            for cache in [0, 1] {
                let sc = Scenario::point_ops(design, fault, 0xACE).with_cache(Some(cache));
                let report = run_scenario(&sc, &PolicyKind::Uncontrolled);
                assert_eq!(report.abandoned_guards, 0, "lock guard dropped live");
                assert!(
                    report.violations.is_empty(),
                    "{}/{}/cache {cache}: unexpected race violations:\n{}",
                    design.key(),
                    fault.name(),
                    report
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }
}

#[test]
fn clean_under_adversarial_schedules() {
    for design in IndexKind::ALL {
        for policy in [
            PolicyKind::RandomWalk { seed: 0xBEEF },
            PolicyKind::Pct {
                seed: 0xBEEF,
                depth: 3,
            },
        ] {
            let sc = Scenario::point_ops(design, FaultMode::Chaos, 0xACE2);
            let report = run_scenario(&sc, &policy);
            assert_eq!(report.abandoned_guards, 0, "lock guard dropped live");
            assert!(
                report.violations.is_empty(),
                "{} under {:?}: {:?}",
                design.key(),
                policy,
                report
                    .violations
                    .iter()
                    .map(|v| &v.rule)
                    .collect::<Vec<_>>()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Seeded protocol races: raw verb sequences on a bare cluster.

const PAGE: usize = 256;

/// A cluster with one 256-byte "node" whose lock word (offset 0) is an
/// unlocked version-0 word.
fn cluster_with_page() -> (Sim, Cluster, RemotePtr) {
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::default());
    let ptr = cluster.setup_alloc(0, PAGE as u64);
    cluster.setup_write(ptr, &[0u8; PAGE]);
    (sim, cluster, ptr)
}

/// Writer critical section: CAS-acquire, WRITE the page (locked word in
/// the image, like `Locked::commit`), FAA-unlock. Returns the acquire CAS
/// expected/new words it used.
async fn locked_update(ep: &Endpoint, ptr: RemotePtr, fill: u8) {
    let cluster = ep.cluster();
    let word = u64::from_le_bytes(cluster.setup_read(ptr, 8)[..8].try_into().unwrap());
    let locked = lock_word::locked_by(word, ep.client_id());
    let prev = ep.cas(ptr, word, locked).await.unwrap();
    assert_eq!(prev, word, "uncontended acquire");
    let mut page = [fill; PAGE];
    page[..8].copy_from_slice(&locked.to_le_bytes());
    ep.write(ptr, &page).await.unwrap();
    ep.fetch_add(ptr, 1).await.unwrap();
}

#[test]
fn unvalidated_racy_read_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(writer.client_id(), OpKind::Insert);
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_end(writer.client_id(), OpKind::Insert, true);

            // The reader's clock has no edge from the writer: the read
            // races with the unlock FAA, and no fence ever validates it.
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "unvalidated-race");
    // The diagnostic names both sides of the race and the missing edge.
    assert!(
        violations[0].detail.contains("races with"),
        "{}",
        violations[0].detail
    );
    assert!(
        violations[0].detail.contains("missing HB edge"),
        "{}",
        violations[0].detail
    );
}

#[test]
fn validated_racy_read_is_benign() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(writer.client_id(), OpKind::Insert);
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_end(writer.client_id(), OpKind::Insert, true);

            // Same racy read — but the engine's validation fence
            // (covers()/find_child() re-check) closes the window before
            // the op completes: benign-validated, not a violation.
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Revalidate, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    race.assert_clean();
    let counts = race.counts();
    assert!(counts.racy_reads >= 1, "the read must have been racy");
    assert!(counts.validated >= 1, "the fence must have validated it");
}

#[test]
fn discarded_racy_read_is_benign() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(writer.client_id(), OpKind::Insert);
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_end(writer.client_id(), OpKind::Insert, true);

            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Discard, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    race.assert_clean();
}

#[test]
fn failed_op_does_not_report_its_racy_reads() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            // The attempt aborts: its bytes never reach a result.
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, false);
        });
    }
    sim.run();
    race.assert_clean();
}

#[test]
fn locked_snapshot_read_survives_version_recheck() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let holder = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            // Holder acquires and sits in its critical section.
            let locked = lock_word::locked_by(0, holder.client_id());
            holder.cas(ptr, 0, locked).await.unwrap();

            // The reader snapshots the foreign-locked page — torn by
            // construction. A version re-check does NOT validate it
            // (the version it would check is itself mid-update), so the
            // window survives to op end and is reported.
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Revalidate, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "locked-snapshot-read");
}

#[test]
fn locked_snapshot_read_is_judged_by_full_client_id() {
    // The lock word keeps only the low byte of its holder's id, so
    // clients 256 apart look alike in it: the reader must be told from
    // the holder by the id the checker saw acquire the lock.
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let mut eps: Vec<Endpoint> = (0..257).map(|_| Endpoint::new(&cluster)).collect();
        let (reader, holder) = (eps.pop().unwrap(), eps.swap_remove(0));
        assert_eq!(reader.client_id(), holder.client_id() + 256);
        sim.spawn(async move {
            let locked = lock_word::locked_by(0, holder.client_id());
            holder.cas(ptr, 0, locked).await.unwrap();

            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Revalidate, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    assert_eq!(race.counts().dirty_reads, 1);
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "locked-snapshot-read");
}

#[test]
fn unlock_before_write_reorder_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let writer = Endpoint::new(&cluster);
        sim.spawn(async move {
            // The seeded mutation's shape: acquire, unlock FAA *first*,
            // then the deferred in-place WRITE — page bytes published
            // outside the critical section.
            let locked = lock_word::locked_by(0, writer.client_id());
            writer.cas(ptr, 0, locked).await.unwrap();
            let prev = writer.fetch_add(ptr, 1).await.unwrap();
            let mut page = [9u8; PAGE];
            page[..8].copy_from_slice(&(prev.wrapping_add(1)).to_le_bytes());
            writer.write(ptr, &page).await.unwrap();
        });
    }
    sim.run();
    let violations = race.violations();
    assert!(
        violations.iter().any(|v| v.rule == "unlocked-write"),
        "{}",
        race.report()
    );
    let v = violations
        .iter()
        .find(|v| v.rule == "unlocked-write")
        .unwrap();
    assert!(
        v.detail.contains("outside its critical section"),
        "{}",
        v.detail
    );
}

#[test]
fn write_write_race_without_synchronization_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let a = Endpoint::new(&cluster);
        let b = Endpoint::new(&cluster);
        sim.spawn(async move {
            locked_update(&a, ptr, 1).await;
            // `b` blind-writes with no CAS: no HB edge from `a`'s
            // critical section.
            let mut page = [2u8; PAGE];
            page[..8].copy_from_slice(&2u64.to_le_bytes());
            b.write(ptr, &page).await.unwrap();
        });
    }
    sim.run();
    let violations = race.violations();
    assert!(
        violations.iter().any(|v| v.rule == "write-write-race"),
        "{}",
        race.report()
    );
}

#[test]
fn stale_epoch_cached_use_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let client = Endpoint::new(&cluster);
        sim.spawn(async move {
            // Client reconciles its cache against restart epoch 0 ...
            // (EpochCheck carries no page: server/offset are zero).
            cluster.note_fence(client.client_id(), FenceKind::EpochCheck, 0, 0);
            cluster.note_fence(client.client_id(), FenceKind::CachedUse, 0, ptr.offset());
            // ... then server 0 restarts (pool rebuilt, epoch bumps) and
            // the client serves from its cache without re-reconciling.
            cluster.fail_server(0);
            cluster.restart_server(0);
            cluster.note_fence(client.client_id(), FenceKind::CachedUse, 0, ptr.offset());
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "stale-epoch-cached-use");
}

// ---------------------------------------------------------------------
// WAL recovery: one hook rewinds the shadow state with the memory.

#[test]
fn recovery_resyncs_lock_words_and_clears_clocks_on_that_server_only() {
    let sim = Sim::new();
    let spec = ClusterSpec {
        durability: Durability::Wal,
        wal_restart_boot_latency: SimDur::from_micros(30),
        ..ClusterSpec::default()
    };
    let cluster = Cluster::new(&sim, spec);
    let page_on = |server| {
        let ptr = cluster.setup_alloc(server, PAGE as u64);
        cluster.setup_write(ptr, &[0u8; PAGE]);
        ptr
    };
    let (a, b) = (page_on(0), page_on(1));
    cluster.seal_setup();
    let race = Racecheck::install(&cluster, PAGE);
    race.register_page(a);
    race.register_page(b);
    {
        let cluster = cluster.clone();
        let sim2 = sim.clone();
        let race = race.clone();
        let ep = || Endpoint::new(&cluster);
        let (writer, reader, late_reader, holder, next_holder) = (ep(), ep(), ep(), ep(), ep());
        sim.spawn(async move {
            // Acknowledged, hence durable, updates of both pages ...
            locked_update(&writer, a, 1).await;
            locked_update(&writer, b, 1).await;
            // ... which a reader with no edge from the writer races with.
            cluster.note_op_start(reader.client_id(), OpKind::Range);
            reader.read(a, PAGE).await.unwrap();
            reader.read(b, PAGE).await.unwrap();
            assert_eq!(race.counts().racy_reads, 2);

            // A lock CAS on `a` lands — the checker sees it — but server 0
            // crashes before the log flush that would have made it
            // durable: recovery undoes it.
            let word = u64::from_le_bytes(cluster.setup_read(a, 8).try_into().unwrap());
            let seen = race.counts().verbs_seen;
            let refused = Rc::new(Cell::new(false));
            {
                let refused = refused.clone();
                let locked = lock_word::locked_by(word, holder.client_id());
                sim2.spawn(async move { refused.set(holder.cas(a, word, locked).await.is_err()) });
            }
            sim2.sleep(SimDur::from_micros(6)).await;
            assert_eq!(race.counts().verbs_seen, seen + 1, "the CAS applied");
            cluster.fail_server(0);
            cluster.restart_server(0);
            sim2.sleep(SimDur::from_micros(200)).await;
            assert!(refused.get(), "and was never acknowledged");
            assert_eq!(cluster.recovery_records().len(), 1);
            assert_eq!(cluster.setup_read(a, 8), word.to_le_bytes(), "undone");

            // The window on the rewound server is gone, the other escapes.
            cluster.note_op_end(reader.client_id(), OpKind::Range, true);
            // Pre-crash writes no longer order reads of `a`; those of `b` do.
            cluster.note_op_start(late_reader.client_id(), OpKind::Range);
            late_reader.read(a, PAGE).await.unwrap();
            late_reader.read(b, PAGE).await.unwrap();
            cluster.note_fence(
                late_reader.client_id(),
                FenceKind::Revalidate,
                1,
                b.offset(),
            );
            cluster.note_op_end(late_reader.client_id(), OpKind::Range, true);
            assert_eq!(race.counts().racy_reads, 3);
            // And the shadow word of `a` is the recovered one: a fresh
            // acquire of it is no unobserved mutation.
            locked_update(&next_holder, a, 2).await;
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "unvalidated-race");
    assert_eq!(
        (violations[0].server, violations[0].offset),
        (1, b.offset())
    );
}

// ---------------------------------------------------------------------
// Zero perturbation: the detector observes, it must not participate.

#[test]
fn detector_does_not_perturb_the_run() {
    // The same verb sequence with and without the detector installed
    // must reach quiescence at the same virtual time with the same
    // final page bytes: the detector observes, it never participates.
    let run = |install: bool| {
        let (sim, cluster, ptr) = cluster_with_page();
        let race = install.then(|| Racecheck::install(&cluster, PAGE));
        {
            let cluster = cluster.clone();
            let a = Endpoint::new(&cluster);
            let b = Endpoint::new(&cluster);
            sim.spawn(async move {
                cluster.note_op_start(a.client_id(), OpKind::Insert);
                locked_update(&a, ptr, 3).await;
                cluster.note_op_end(a.client_id(), OpKind::Insert, true);
                cluster.note_op_start(b.client_id(), OpKind::Lookup);
                b.read(ptr, PAGE).await.unwrap();
                cluster.note_fence(b.client_id(), FenceKind::Revalidate, 0, ptr.offset());
                cluster.note_op_end(b.client_id(), OpKind::Lookup, true);
            });
        }
        let end = sim.run();
        if let Some(race) = race {
            race.assert_clean();
        }
        (end, cluster.setup_read(ptr, PAGE))
    };
    assert_eq!(run(false), run(true));
}
