//! Schedule-space model-checker properties (see `crates/mc`):
//!
//! * the explicit FIFO schedule policy is **bit-identical** to the
//!   uncontrolled executor (property-tested over random seeds) — the
//!   controlled scheduler adds zero behavioural drift;
//! * a recorded random-walk decision trace **replays** to the same run
//!   (digests, virtual end time) — the counterexample format's
//!   foundational guarantee;
//! * PCT exploration under a pinned seed has a **stable coverage
//!   digest** — schedule search itself is deterministic;
//! * every no-fault harness run reaches **quiescence clean**: zero live
//!   tasks, zero held locks, linearizable history;
//! * the history holds **every op the scenario issues**, under every
//!   fault regime: each client's ops plus the final scan.

use mc::{run_scenario, FaultMode, PolicyKind, Scenario};
use namdex_core::IndexKind;
use proptest::prelude::*;

fn scenarios_for(seed: u64) -> Vec<Scenario> {
    let mut v = Vec::new();
    for design in IndexKind::ALL {
        for fault in [FaultMode::None, FaultMode::Chaos] {
            v.push(Scenario::point_ops(design, fault, seed));
        }
        v.push(Scenario::with_scans(design, FaultMode::None, seed));
    }
    v
}

fn assert_same_run(sc: &Scenario, a: &mc::RunReport, b: &mc::RunReport, what: &str) {
    assert_eq!(
        a.history_digest,
        b.history_digest,
        "{what}: history diverged for {}/{} seed {}",
        sc.design.key(),
        sc.fault.name(),
        sc.seed
    );
    assert_eq!(
        a.end_nanos,
        b.end_nanos,
        "{what}: virtual end time diverged for {}/{} seed {}",
        sc.design.key(),
        sc.fault.name(),
        sc.seed
    );
    assert_eq!(a.events, b.events, "{what}: op count diverged");
}

#[test]
fn fifo_policy_matches_uncontrolled_executor() {
    for sc in scenarios_for(0xF1F0) {
        let base = run_scenario(&sc, &PolicyKind::Uncontrolled);
        let fifo = run_scenario(&sc, &PolicyKind::Fifo);
        assert_same_run(&sc, &base, &fifo, "fifo-parity");
        // FIFO always picks candidate 0, so the trace is all zeros.
        assert!(
            fifo.decisions.iter().all(|&d| d == 0),
            "FIFO made a non-zero decision: {:?}",
            fifo.decisions
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Property form of FIFO parity: any workload seed, any design,
    /// with and without faults.
    #[test]
    fn fifo_parity_holds_for_arbitrary_seeds(
        seed in any::<u64>(),
        design_ix in 0usize..3,
        chaos in any::<bool>(),
    ) {
        let fault = if chaos { FaultMode::Chaos } else { FaultMode::None };
        let sc = Scenario::point_ops(IndexKind::ALL[design_ix], fault, seed);
        let base = run_scenario(&sc, &PolicyKind::Uncontrolled);
        let fifo = run_scenario(&sc, &PolicyKind::Fifo);
        assert_same_run(&sc, &base, &fifo, "fifo-parity(prop)");
    }
}

#[test]
fn random_walk_trace_replays_to_identical_run() {
    for sc in scenarios_for(0x5EED) {
        for walk_seed in [1u64, 99] {
            let walked = run_scenario(&sc, &PolicyKind::RandomWalk { seed: walk_seed });
            let replayed = run_scenario(
                &sc,
                &PolicyKind::Replay {
                    decisions: walked.decisions.clone(),
                },
            );
            assert_same_run(&sc, &walked, &replayed, "record-replay");
            assert_eq!(
                walked.schedule_digest, replayed.schedule_digest,
                "replay took a different schedule"
            );
        }
    }
}

/// Pinned PCT coverage: same seeds, same schedules, forever. If this
/// digest moves, schedule search stopped being a pure function of its
/// seeds — every saved counterexample in every CI artifact goes stale.
/// (An *intentional* scheduler/workload change may re-pin it; say so in
/// the PR and regenerate via the values in the assertion message.)
#[test]
fn pct_pinned_seed_coverage_is_stable() {
    let sc = Scenario::point_ops(IndexKind::FineGrained, FaultMode::None, 0x9C7);
    let mut digests = Vec::new();
    for pct_seed in 0..8u64 {
        let report = run_scenario(
            &sc,
            &PolicyKind::Pct {
                seed: pct_seed,
                depth: 3,
            },
        );
        assert!(report.clean(), "pinned PCT schedule found a violation");
        digests.push(report.schedule_digest);
    }
    let distinct = {
        let mut d = digests.clone();
        d.sort_unstable();
        d.dedup();
        d.len()
    };
    let mut combined = mc::scenario::Digest::new();
    for d in &digests {
        combined.word(*d);
    }
    let combined = combined.finish();
    assert_eq!(
        (distinct, combined),
        (3, 0x0709b8bf8cbe228d),
        "PCT coverage drifted: distinct={distinct} combined={combined:#x}"
    );
}

/// Quiescence: after every no-fault run — any design, any policy — the
/// sim has zero live tasks, no held locks, and a linearizable history.
#[test]
fn no_fault_runs_reach_clean_quiescence() {
    for design in IndexKind::ALL {
        for sc in [
            Scenario::point_ops(design, FaultMode::None, 7),
            Scenario::with_scans(design, FaultMode::None, 7),
        ] {
            for policy in [
                PolicyKind::Uncontrolled,
                PolicyKind::RandomWalk { seed: 3 },
                PolicyKind::Pct { seed: 3, depth: 3 },
            ] {
                let report = run_scenario(&sc, &policy);
                assert_eq!(report.task_leak, 0, "live tasks after drain");
                assert!(report.held_leaks.is_empty(), "locks held at quiescence");
                assert_eq!(report.abandoned_guards, 0, "lock guard dropped live");
                assert!(report.violations.is_empty(), "checker findings");
                assert!(
                    report.lin.is_ok(),
                    "non-linearizable no-fault history: {:?}",
                    report.lin
                );
            }
        }
    }
}

/// Chaos runs must also drain fully: the chaos driver task, killed
/// clients and fault timers all terminate, and any lock still held
/// belongs to the killed (dead) client only.
#[test]
fn chaos_runs_drain_without_task_leaks() {
    for design in IndexKind::ALL {
        let sc = Scenario::point_ops(design, FaultMode::Chaos, 11);
        let report = run_scenario(&sc, &PolicyKind::RandomWalk { seed: 4 });
        assert_eq!(report.task_leak, 0, "live tasks after chaos drain");
        assert_eq!(report.abandoned_guards, 0, "lock guard dropped live");
        assert!(
            report.held_leaks.is_empty(),
            "live-owner lock leak under chaos: {:?}",
            report.held_leaks
        );
    }
}

/// Linearizability across a real recovery: for every design, crash the
/// hot server mid-run under `Durability::Wal` (RAM wiped, checkpoint +
/// log replayed) under several schedule interleavings, and require a
/// clean quiescent state with a linearizable history every time. Each
/// walk seed moves the crash relative to in-flight appends, flushes and
/// acks — these are the recovery interleavings the durability design
/// must survive.
#[test]
fn crash_recovery_interleavings_stay_linearizable() {
    for design in IndexKind::ALL {
        for walk_seed in [5u64, 23] {
            let sc = Scenario::point_ops(design, FaultMode::CrashRecover, 13);
            let report = run_scenario(&sc, &PolicyKind::RandomWalk { seed: walk_seed });
            assert_eq!(
                report.recoveries,
                1,
                "{}: the crash/recovery cycle must complete",
                design.key()
            );
            assert_eq!(report.task_leak, 0, "{}: live tasks", design.key());
            assert_eq!(report.abandoned_guards, 0, "lock guard dropped live");
            assert!(
                report.held_leaks.is_empty(),
                "{}: live-owner lock leak across recovery: {:?}",
                design.key(),
                report.held_leaks
            );
            assert!(
                report.violations.is_empty(),
                "{}: checker findings across recovery: {:?}",
                design.key(),
                report.violations
            );
            assert!(
                report.lin.is_ok(),
                "{}: non-linearizable history across recovery (walk seed \
                 {walk_seed}): {:?}",
                design.key(),
                report.lin
            );
        }
    }
}

#[test]
fn history_holds_every_issued_op() {
    for design in IndexKind::ALL {
        for fault in [FaultMode::None, FaultMode::Chaos, FaultMode::CrashRecover] {
            for seed in 0..4 {
                let point = Scenario::point_ops(design, fault, seed);
                let scans = Scenario::with_scans(design, fault, seed);
                for sc in [point, scans] {
                    let r = run_scenario(&sc, &PolicyKind::RandomWalk { seed: 0x415 + seed });
                    assert_eq!(
                        r.events as u64,
                        sc.clients * sc.ops_per_client + 1,
                        "{}/{} seed {} scans={}: an issued op is missing from the history",
                        design.key(),
                        fault.name(),
                        seed,
                        sc.with_scans
                    );
                }
            }
        }
    }
}
