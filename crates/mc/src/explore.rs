//! Budgeted schedule-space exploration: the policy × fault × design
//! matrix, bounded-exhaustive DFS cells, and the mutation-testing
//! harness that proves the checker catches real (historical) bugs.

use crate::counterexample::{classify, minimize, Counterexample, ViolationClass};
use crate::policy::next_dfs_prefix;
use crate::scenario::{run_scenario, FaultMode, PolicyKind, RunReport, Scenario};
use namdex_core::{IndexKind, Mutation};
use simnet::rng::mix3;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Exploration budget and matrix shape.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Base seed; schedule `i` of a cell uses `mix3(base, cell, i)`.
    pub seed_base: u64,
    /// Random-walk schedules per cell.
    pub walk_schedules: u64,
    /// PCT schedules per cell.
    pub pct_schedules: u64,
    /// PCT bug depth (`d`).
    pub pct_depth: u32,
    /// Schedule cap for each bounded-DFS cell (0 disables DFS cells).
    pub dfs_schedules: u64,
    /// DFS preemption bound.
    pub dfs_preemption_bound: u32,
    /// Restrict the matrix to one design (CLI `--design`).
    pub only_design: Option<IndexKind>,
    /// Where counterexample artifacts are written.
    pub out_dir: PathBuf,
}

impl ExploreConfig {
    /// The `--quick` budget: small enough for CI.
    pub fn quick(out_dir: PathBuf) -> ExploreConfig {
        ExploreConfig {
            seed_base: 0xD15C0,
            walk_schedules: 12,
            pct_schedules: 12,
            pct_depth: 3,
            dfs_schedules: 40,
            dfs_preemption_bound: 2,
            only_design: None,
            out_dir,
        }
    }

    /// The full (default) budget.
    pub fn full(out_dir: PathBuf) -> ExploreConfig {
        ExploreConfig {
            walk_schedules: 60,
            pct_schedules: 60,
            dfs_schedules: 200,
            ..ExploreConfig::quick(out_dir)
        }
    }
}

/// Results of one matrix cell.
#[derive(Clone, Debug)]
pub struct CellStats {
    /// Cell label, e.g. `cg/chaos/walk`.
    pub label: String,
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct decision-trace digests seen (interleaving coverage).
    pub distinct_schedules: u64,
    /// Total choice points resolved across the cell.
    pub choice_points: u64,
    /// Violating schedules found.
    pub violations: u64,
    /// First violation's artifact path, when one was found and saved.
    pub counterexample: Option<PathBuf>,
}

/// A finished exploration.
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Per-cell statistics, in matrix order.
    pub cells: Vec<CellStats>,
}

impl ExploreReport {
    /// Total violations across all cells.
    pub fn violations(&self) -> u64 {
        self.cells.iter().map(|c| c.violations).sum()
    }

    /// Total schedules across all cells.
    pub fn schedules(&self) -> u64 {
        self.cells.iter().map(|c| c.schedules).sum()
    }

    /// Render a compact per-cell table.
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str("cell                     schedules  distinct  choice-pts  violations\n");
        for c in &self.cells {
            s.push_str(&format!(
                "{:<24} {:>9} {:>9} {:>11} {:>11}\n",
                c.label, c.schedules, c.distinct_schedules, c.choice_points, c.violations
            ));
        }
        s
    }
}

/// Whether `report`'s verdict is `class` and — for checker findings, when
/// `rules` names any — one of its violations carries one of those ids.
fn caught(report: &RunReport, class: ViolationClass, rules: &[&str]) -> bool {
    classify(report) == Some(class)
        && (rules.is_empty() || report.violations.iter().any(|v| rules.contains(&v.rule)))
}

/// One line on the finding that makes `report` a `class` violation; for
/// checker findings the first one whose rule is in `rules` (any, when
/// `rules` is empty).
fn violation_detail(report: &RunReport, class: ViolationClass, rules: &[&str]) -> String {
    match class {
        ViolationClass::Linearizability => report
            .lin
            .as_ref()
            .err()
            .map(|v| v.to_string())
            .unwrap_or_default(),
        ViolationClass::Racecheck => report
            .violations
            .iter()
            .find(|v| rules.is_empty() || rules.contains(&v.rule))
            .map(|v| {
                let by = v
                    .client
                    .map_or(String::new(), |c| format!(" by client {c}"));
                format!("{}{by} at server {} offset {}", v.rule, v.server, v.offset)
            })
            .unwrap_or_default(),
        ViolationClass::LockLeak => match report.held_leaks.first() {
            Some(l) => format!(
                "lock held at quiescence by live client {} (server {}, offset {})",
                l.owner, l.server, l.offset
            ),
            None => format!(
                "{} lock guard(s) dropped undischarged",
                report.abandoned_guards
            ),
        },
        ViolationClass::TaskLeak => {
            format!("{} tasks still live at quiescence", report.task_leak)
        }
    }
}

/// Minimize, save and replay-verify the first violation of a cell: the
/// minimized schedule still shows the same class and, when `rules` names
/// any, one of those rules. Returns the artifact path; panics if the
/// minimized trace fails to reproduce (that would mean the sim is
/// nondeterministic — a bug far worse than the one being reported).
fn save_counterexample(
    sc: &Scenario,
    report: &RunReport,
    rules: &[&str],
    out_dir: &Path,
    label: &str,
) -> PathBuf {
    let class = classify(report).expect("caller found a violation");
    let minimized = minimize(sc, &report.decisions, &|r| caught(r, class, rules));
    let cx = Counterexample {
        scenario: sc.clone(),
        class,
        detail: violation_detail(report, class, rules),
        decisions: minimized,
    };
    assert!(
        cx.replay().is_some_and(|r| caught(&r, class, rules)),
        "minimized counterexample failed to reproduce ({label}) — sim nondeterminism?"
    );
    let path = out_dir.join(format!("{}.trace", label.replace('/', "-")));
    cx.save(&path).expect("write counterexample");
    path
}

struct CellRun {
    stats: CellStats,
    first_violation: Option<(Scenario, RunReport)>,
}

fn run_cell(
    label: String,
    schedules: impl Iterator<Item = (Scenario, PolicyKind)>,
    stop_at_first_violation: bool,
) -> CellRun {
    let mut stats = CellStats {
        label,
        schedules: 0,
        distinct_schedules: 0,
        choice_points: 0,
        violations: 0,
        counterexample: None,
    };
    let mut digests: BTreeSet<u64> = BTreeSet::new();
    let mut first = None;
    for (sc, policy) in schedules {
        let report = run_scenario(&sc, &policy);
        stats.schedules += 1;
        stats.choice_points += report.decisions.len() as u64;
        digests.insert(report.schedule_digest);
        if classify(&report).is_some() {
            stats.violations += 1;
            if first.is_none() {
                first = Some((sc, report));
                if stop_at_first_violation {
                    break;
                }
            }
        }
    }
    stats.distinct_schedules = digests.len() as u64;
    CellRun {
        stats,
        first_violation: first,
    }
}

/// Bounded-exhaustive DFS over a tiny scenario: replay FIFO first, then
/// repeatedly take the next unexplored prefix (preemption-bounded),
/// until the space is exhausted or the schedule budget runs out.
fn run_dfs_cell(label: String, sc: Scenario, cfg: &ExploreConfig) -> CellRun {
    let mut stats = CellStats {
        label,
        schedules: 0,
        distinct_schedules: 0,
        choice_points: 0,
        violations: 0,
        counterexample: None,
    };
    let mut digests: BTreeSet<u64> = BTreeSet::new();
    let mut first = None;
    let mut prefix: Vec<u32> = Vec::new();
    loop {
        if stats.schedules >= cfg.dfs_schedules {
            break;
        }
        let report = run_scenario(
            &sc,
            &PolicyKind::Replay {
                decisions: prefix.clone(),
            },
        );
        stats.schedules += 1;
        stats.choice_points += report.decisions.len() as u64;
        digests.insert(report.schedule_digest);
        // The executed trace (prefix + FIFO tail, with real candidate
        // counts) drives the next-prefix enumeration.
        let trace: Vec<(u32, u32)> = report.trace_counts.clone();
        if classify(&report).is_some() {
            stats.violations += 1;
            if first.is_none() {
                first = Some((sc.clone(), report));
            }
        }
        match next_dfs_prefix(&trace, cfg.dfs_preemption_bound) {
            Some(p) => prefix = p,
            None => break,
        }
    }
    stats.distinct_schedules = digests.len() as u64;
    CellRun {
        stats,
        first_violation: first,
    }
}

fn designs(cfg: &ExploreConfig) -> Vec<IndexKind> {
    match cfg.only_design {
        Some(d) => vec![d],
        None => IndexKind::ALL.to_vec(),
    }
}

/// Client-cache bound of the `crash+cache` cells: one entry per client.
/// The harness tree has a single inner page and a few hot leaves, so a
/// larger bound never fills; at one entry the hybrid's route table evicts
/// on every change of leaf, against splits, lease breaks and the restart
/// flush.
const BOUNDED_CACHE: usize = 1;

/// One walk or PCT cell of the matrix; `idx` seeds its workload and its
/// schedules.
fn matrix_cell(
    cfg: &ExploreConfig,
    design: IndexKind,
    fault: FaultMode,
    cache: Option<usize>,
    pct: bool,
    idx: u64,
) -> CellStats {
    let label = format!(
        "{}/{}{}/{}",
        design.key(),
        fault.name(),
        if cache.is_some() { "+cache" } else { "" },
        if pct { "pct" } else { "walk" }
    );
    let base = cfg.seed_base;
    let n = if pct {
        cfg.pct_schedules
    } else {
        cfg.walk_schedules
    };
    let depth = cfg.pct_depth;
    let schedules = (0..n).map(move |i| {
        let sc = Scenario::point_ops(design, fault, mix3(base, idx, 0)).with_cache(cache);
        let seed = mix3(base, idx, i + 1);
        let policy = if pct {
            PolicyKind::Pct { seed, depth }
        } else {
            PolicyKind::RandomWalk { seed }
        };
        (sc, policy)
    });
    let mut run = run_cell(label.clone(), schedules, false);
    if let Some((sc, vr)) = &run.first_violation {
        run.stats.counterexample = Some(save_counterexample(sc, vr, &[], &cfg.out_dir, &label));
    }
    run.stats
}

/// Run the full exploration matrix. Every violation's first occurrence
/// per cell is minimized, written to `cfg.out_dir` and replay-verified.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut cell_idx: u64 = 0;
    for design in designs(cfg) {
        for fault in [FaultMode::None, FaultMode::Chaos, FaultMode::CrashRecover] {
            for pct in [false, true] {
                let stats = matrix_cell(cfg, design, fault, None, pct, cell_idx);
                report.cells.push(stats);
                cell_idx += 1;
            }
        }
        // Bounded-exhaustive DFS on a tiny scan workload — exhaustiveness
        // only makes sense when the schedule space is small, so the
        // scenario is minimal.
        if cfg.dfs_schedules > 0 {
            let label = format!("{}/nofault/dfs", design.key());
            let sc = Scenario {
                clients: 2,
                ops_per_client: 2,
                ..Scenario::with_scans(design, FaultMode::None, mix3(cfg.seed_base, 777, 0))
            };
            let mut run = run_dfs_cell(label.clone(), sc, cfg);
            if let Some((sc, vr)) = &run.first_violation {
                run.stats.counterexample =
                    Some(save_counterexample(sc, vr, &[], &cfg.out_dir, &label));
            }
            report.cells.push(run.stats);
        }
    }
    // Eviction against restart flush, split and lease break, for the two
    // designs that cache. Numbered after every other cell, so those keep
    // the seeds they had before these rows existed.
    for design in designs(cfg) {
        if matches!(design, IndexKind::FineGrained | IndexKind::Hybrid) {
            for pct in [false, true] {
                let cache = Some(BOUNDED_CACHE);
                let stats = matrix_cell(cfg, design, FaultMode::CrashRecover, cache, pct, cell_idx);
                report.cells.push(stats);
                cell_idx += 1;
            }
        }
    }
    report
}

/// Outcome of one mutation hunt.
#[derive(Debug)]
pub struct MutationResult {
    /// Mutation label ([`Mutation::key`]).
    pub label: String,
    /// Schedules explored before the first detection.
    pub schedules_to_detect: u64,
    /// The violation class that caught it.
    pub class: ViolationClass,
    /// What caught it: the linearizability verdict, or the checker rule
    /// id and where it fired.
    pub detail: String,
    /// Minimized, replay-verified artifact path.
    pub counterexample: PathBuf,
    /// Length of the minimized decision trace.
    pub minimized_len: usize,
}

/// Hunt seeded bug `m`: inject it into schedules of its plan until a
/// violation of the plan's class appears — found, if the plan names
/// rules, by one of those checker rules — then minimize + save +
/// replay-verify. Panics if `budget` schedules pass without a detection —
/// the whole point of the harness is that it *must* find these, and by
/// the rule that exists for them.
fn hunt(m: Mutation, budget: u64, out_dir: &Path) -> MutationResult {
    use FaultMode::{Chaos, CrashRecover};
    use IndexKind::{CoarseGrained, FineGrained, Learned};
    use ViolationClass::{Linearizability, Racecheck};
    // Design, fault regime, cache, seed base, and what must catch it.
    // Races need contention, not faults: clean runs, hot keys.
    let (design, fault, cache, base, want, rules): (_, _, _, u64, _, &[&str]) = match m {
        // Needs message loss, so a lost response is retried.
        Mutation::CgDuplicateInsert => (CoarseGrained, Chaos, None, 0xA_B06, Linearizability, &[]),
        // Needs an orphaned lock: kill-on-lock-acquire plus the
        // verifier scan's lease reclaim.
        Mutation::LeaseEpochElision => (
            FineGrained,
            Chaos,
            None,
            0xB_B06,
            Racecheck,
            &["version-protocol"],
        ),
        Mutation::DescendNoCovers => (
            FineGrained,
            FaultMode::None,
            None,
            0xC_B06,
            Racecheck,
            &["unvalidated-race"],
        ),
        // Stale cached artifacts need a restart and a cache to be stale.
        Mutation::CachedNoFence => (
            FineGrained,
            CrashRecover,
            Some(0),
            0xD_B06,
            Racecheck,
            &["stale-epoch-cached-use"],
        ),
        Mutation::LearnedNoReread => (
            Learned,
            FaultMode::None,
            None,
            0xE_B06,
            Racecheck,
            &["locked-snapshot-read"],
        ),
        Mutation::UnlockBeforeWrite => (
            FineGrained,
            FaultMode::None,
            None,
            0xF_B06,
            Racecheck,
            &["unlocked-write"],
        ),
        // Needs a leaf split the model has not retrained over when a
        // scan crosses it; the quiescent scan loses the split-born
        // leaf's keys.
        Mutation::LearnedScanSkipsSplit => (
            Learned,
            FaultMode::None,
            None,
            0x10_B06,
            Linearizability,
            &[],
        ),
    };
    let label = m.key();
    for i in 0..budget {
        let sc = Scenario {
            mutation: Some(m),
            ..Scenario::point_ops(design, fault, mix3(base, i, 0)).with_cache(cache)
        };
        let policy = PolicyKind::RandomWalk {
            seed: mix3(base, i, 1),
        };
        let report = run_scenario(&sc, &policy);
        if caught(&report, want, rules) {
            let path = save_counterexample(&sc, &report, rules, out_dir, label);
            let cx = Counterexample::load(&path).expect("just saved");
            return MutationResult {
                label: label.to_string(),
                schedules_to_detect: i + 1,
                class: want,
                detail: cx.detail,
                counterexample: path,
                minimized_len: cx.decisions.len(),
            };
        }
    }
    panic!(
        "mutation `{label}` not detected as {} {rules:?} within {budget} schedules — checker \
         is blind to it",
        want.name()
    );
}

/// Mutation-testing mode: with the `mutations` feature on, inject each
/// seeded bug ([`Mutation`]) in turn and prove the checker finds it.
///
/// Two are historical bugs:
///
/// * **cg-duplicate-insert** — an insert RPC lands, the response drops,
///   the client retries and the mutated engine re-applies instead of
///   absorbing. Caught as a linearizability violation (the quiescent
///   scan observes two live entries where the spec admits at most one).
///   Needs message loss, so it is hunted under [`FaultMode::Chaos`] on
///   CG.
/// * **lease-epoch-elision** — reclaiming an expired lease preserves
///   the epoch byte, so a reader that raced the break can validate
///   against a stale epoch. Caught by the checker's protocol rule on the
///   CAS shape (`version-protocol`). Needs an orphaned lock, so it is
///   hunted under [`FaultMode::Chaos`] on FG.
///
/// Four re-open classic optimistic-lock-coupling holes; each must be
/// caught by the happens-before rule named beside it:
///
/// * **descend-no-covers** — the descent trusts the leaf it READ
///   without the `covers()` fence, so a racy snapshot escapes into
///   lookup results unvalidated (`unvalidated-race`).
/// * **cached-no-fence** — the cache layer skips the restart-epoch
///   flush, serving cached artifacts against a rebuilt pool (hunted
///   under [`FaultMode::CrashRecover`] with the cache enabled;
///   `stale-epoch-cached-use`).
/// * **learned-no-reread** — the learned design reads predicted leaves
///   raw instead of through the self-validating spin-read, so a
///   mid-critical-section (torn) snapshot can escape
///   (`locked-snapshot-read`).
/// * **unlock-before-write** — the commit path publishes the unlock
///   FAA before the in-place WRITE, so the deferred WRITE races with
///   the next acquirer's critical section (`unlocked-write`, the
///   lockset rule).
///
/// One skips a step the learned design's range scan owes its soundness:
///
/// * **learned-scan-skips-split** — a scan following the leaves the
///   model names jumps from a planned leaf to the model's next one
///   without checking that its high key is still the trained one, so
///   a leaf split since training loses its split-born sibling's rows.
///   Caught as a linearizability violation (the quiescent scan misses
///   keys that are live).
pub fn run_mutation_hunts(budget: u64, out_dir: &Path) -> Vec<MutationResult> {
    assert!(
        namdex_core::mutations_enabled(),
        "mutation hunts require the `mutations` feature (cargo run -p mc --features mutations)"
    );
    Mutation::ALL
        .into_iter()
        .map(|m| hunt(m, budget, out_dir))
        .collect()
}
