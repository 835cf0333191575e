//! Counterexample artifacts: a violating schedule serialized to a file
//! that replays the exact interleaving, plus greedy minimization.
//!
//! Determinism makes the decision trace a complete witness: the
//! workload, fault plan, fault-RNG draws and injected mutation are all
//! pure functions of the scenario fields plus the schedule, so
//! `(Scenario, decisions)`
//! reproduces the violating run bit-for-bit. Past the end of the
//! recorded decisions the replayer plays FIFO, which is what makes
//! *truncation* a sound minimization move: a shorter prefix is still a
//! legal schedule, just one that deviates from FIFO in fewer places.

use crate::scenario::{run_scenario, FaultMode, PolicyKind, RunReport, Scenario};
use namdex_core::{IndexKind, Mutation};
use std::fmt::Write as _;
use std::path::Path;

/// Which checked property a run violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationClass {
    /// History rejected by the linearizability checker.
    Linearizability,
    /// Dynamic-checker finding: a protocol rule (unlocked write, version
    /// tamper, ...) or a happens-before rule (unvalidated optimistic
    /// read, write-write race, stale-epoch cached use). The rule id is in
    /// the counterexample's detail line.
    Racecheck,
    /// Lock held by a live owner at quiescence, or a lock guard dropped
    /// undischarged.
    LockLeak,
    /// Tasks still live after the sim drained.
    TaskLeak,
}

impl ViolationClass {
    const ALL: [ViolationClass; 4] = [
        ViolationClass::Linearizability,
        ViolationClass::Racecheck,
        ViolationClass::LockLeak,
        ViolationClass::TaskLeak,
    ];

    /// Stable name (file format).
    pub fn name(self) -> &'static str {
        match self {
            ViolationClass::Linearizability => "linearizability",
            ViolationClass::Racecheck => "racecheck",
            ViolationClass::LockLeak => "lock-leak",
            ViolationClass::TaskLeak => "task-leak",
        }
    }

    /// Parse [`Self::name`] output.
    pub fn parse(s: &str) -> Option<ViolationClass> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// The most severe violation in `report`, if any. Severity order:
/// linearizability (user-visible wrong answers) > racecheck (the protocol
/// was broken or a racy snapshot escaped validation — the precursor of a
/// wrong answer, even if answers happened to be right) > leaks.
pub fn classify(report: &RunReport) -> Option<ViolationClass> {
    if report.lin.is_err() {
        Some(ViolationClass::Linearizability)
    } else if !report.violations.is_empty() {
        Some(ViolationClass::Racecheck)
    } else if !report.held_leaks.is_empty() || report.abandoned_guards > 0 {
        Some(ViolationClass::LockLeak)
    } else if report.task_leak > 0 {
        Some(ViolationClass::TaskLeak)
    } else {
        None
    }
}

/// A serializable counterexample: scenario + violation + schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The scenario the schedule violates.
    pub scenario: Scenario,
    /// What the run violated.
    pub class: ViolationClass,
    /// One-line description of the original finding.
    pub detail: String,
    /// The (minimized) decision trace.
    pub decisions: Vec<u32>,
}

impl Counterexample {
    /// Serialize to the `namdex-mc counterexample v3` text format (v2
    /// added the `cache` line, v3 the `mutation` line).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# namdex-mc counterexample v3");
        let _ = writeln!(s, "design: {}", self.scenario.design.key());
        let _ = writeln!(s, "fault: {}", self.scenario.fault.name());
        let _ = writeln!(s, "seed: {}", self.scenario.seed);
        let _ = writeln!(s, "clients: {}", self.scenario.clients);
        let _ = writeln!(s, "ops_per_client: {}", self.scenario.ops_per_client);
        let _ = writeln!(s, "with_scans: {}", self.scenario.with_scans);
        let cache = match self.scenario.cache_capacity {
            None => "none".to_string(),
            Some(c) => c.to_string(),
        };
        let _ = writeln!(s, "cache: {cache}");
        let mutation = self.scenario.mutation.map_or("none", Mutation::key);
        let _ = writeln!(s, "mutation: {mutation}");
        let _ = writeln!(s, "violation: {}", self.class.name());
        let _ = writeln!(s, "detail: {}", self.detail.replace('\n', " "));
        let decisions: Vec<String> = self.decisions.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(s, "decisions: {}", decisions.join(","));
        s
    }

    /// Parse the text format back. Returns `None` on any malformed
    /// line, missing field, or version mismatch.
    pub fn from_text(text: &str) -> Option<Counterexample> {
        let mut lines = text.lines();
        if lines.next()?.trim() != "# namdex-mc counterexample v3" {
            return None;
        }
        let mut field = |name: &str| -> Option<String> {
            let line = lines.next()?;
            let rest = line.strip_prefix(name)?.strip_prefix(':')?;
            Some(rest.trim().to_string())
        };
        let design = IndexKind::parse(&field("design")?)?;
        let fault = FaultMode::parse(&field("fault")?)?;
        let seed = field("seed")?.parse().ok()?;
        let clients = field("clients")?.parse().ok()?;
        let ops_per_client = field("ops_per_client")?.parse().ok()?;
        let with_scans = field("with_scans")?.parse().ok()?;
        let cache_capacity = match field("cache")?.as_str() {
            "none" => None,
            c => Some(c.parse().ok()?),
        };
        let mutation = match field("mutation")?.as_str() {
            "none" => None,
            m => Some(Mutation::ALL.into_iter().find(|x| x.key() == m)?),
        };
        let class = ViolationClass::parse(&field("violation")?)?;
        let detail = field("detail")?;
        let raw = field("decisions")?;
        let decisions = if raw.is_empty() {
            Vec::new()
        } else {
            raw.split(',')
                .map(|d| d.trim().parse().ok())
                .collect::<Option<Vec<u32>>>()?
        };
        Some(Counterexample {
            scenario: Scenario {
                design,
                fault,
                seed,
                clients,
                ops_per_client,
                with_scans,
                cache_capacity,
                mutation,
            },
            class,
            detail,
            decisions,
        })
    }

    /// Write the artifact to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_text())
    }

    /// Load an artifact from `path`.
    pub fn load(path: &Path) -> std::io::Result<Counterexample> {
        let text = std::fs::read_to_string(path)?;
        Counterexample::from_text(&text).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed counterexample file {}", path.display()),
            )
        })
    }

    /// Replay this counterexample; `Some(report)` if the violation
    /// class still reproduces, `None` if it does not.
    pub fn replay(&self) -> Option<RunReport> {
        let report = run_scenario(
            &self.scenario,
            &PolicyKind::Replay {
                decisions: self.decisions.clone(),
            },
        );
        (classify(&report) == Some(self.class)).then_some(report)
    }
}

/// Greedy trace minimization by truncation: drop the FIFO tail (zeros
/// replay implicitly), then halve the prefix while `keep` still holds of
/// the replayed run, then shave single decisions off the end. Each kept
/// candidate is verified by a full replay, so the result is always a
/// schedule `keep` holds of.
pub fn minimize(sc: &Scenario, decisions: &[u32], keep: &dyn Fn(&RunReport) -> bool) -> Vec<u32> {
    let reproduces = |decisions: &[u32]| {
        let policy = PolicyKind::Replay {
            decisions: decisions.to_vec(),
        };
        keep(&run_scenario(sc, &policy))
    };
    let mut best: Vec<u32> = decisions.to_vec();
    // Trailing zeros are the FIFO default — always droppable.
    while best.last() == Some(&0) {
        best.pop();
    }
    if !best.is_empty() && !reproduces(&best) {
        // The zero-stripped trace must reproduce (replay pads FIFO);
        // if the sim disagrees something is nondeterministic — keep the
        // original rather than return a broken artifact.
        return decisions.to_vec();
    }
    // Exponential: halve while it still reproduces.
    while best.len() >= 2 {
        let half = &best[..best.len() / 2];
        if !reproduces(half) {
            break;
        }
        best = half.to_vec();
    }
    // Linear: shave the tail one decision at a time.
    while !best.is_empty() && reproduces(&best[..best.len() - 1]) {
        best.pop();
    }
    while best.last() == Some(&0) {
        best.pop();
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_roundtrips() {
        let cx = Counterexample {
            scenario: Scenario {
                mutation: Some(Mutation::DescendNoCovers),
                ..Scenario::point_ops(IndexKind::CoarseGrained, FaultMode::Chaos, 42)
            },
            class: ViolationClass::Linearizability,
            detail: "duplicate insert observed".into(),
            decisions: vec![0, 2, 1, 0, 3],
        };
        let text = cx.to_text();
        assert_eq!(Counterexample::from_text(&text), Some(cx));
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert_eq!(Counterexample::from_text(""), None);
        assert_eq!(Counterexample::from_text("# wrong header\n"), None);
        let cx = Counterexample {
            scenario: Scenario::point_ops(IndexKind::FineGrained, FaultMode::None, 1),
            class: ViolationClass::Racecheck,
            detail: "x".into(),
            decisions: vec![],
        };
        // Empty decision list roundtrips too.
        assert_eq!(Counterexample::from_text(&cx.to_text()), Some(cx));
    }
}
