#![forbid(unsafe_code)]

//! Schedule-space model checker for the simulated NAM index designs.
//!
//! The simulator is deterministic but, until now, explored exactly one
//! interleaving per seed: the executor's FIFO wake order. This crate
//! turns the scheduler into a *search space*:
//!
//! * [`policy`] — strategies for resolving executor choice points
//!   (random walk, PCT priority scheduling, bounded-exhaustive DFS,
//!   exact replay), each recording a decision trace that names the
//!   schedule;
//! * [`history`] — every index op's arguments, result and
//!   invoke/response window, recorded where the scenario issues it;
//! * [`lin`] — a Wing & Gong linearizability checker (with Lowe's
//!   per-key partitioning) validating each explored schedule against a
//!   sequential map spec; a scan is judged as one observation per key
//!   over its own window, the guarantee a B-link scan gives;
//! * [`scenario`] — tiny deterministic workloads over the four
//!   designs, with dynamic-checker, leak and quiescence checks folded
//!   into a single [`scenario::RunReport`];
//! * [`counterexample`] — violating schedules serialized as replayable,
//!   greedily minimized artifacts;
//! * [`explore`](mod@explore) — the budgeted exploration matrix and the mutation
//!   hunts (feature `mutations`) that prove the checker catches seven
//!   seeded bugs.
//!
//! Run it via `cargo xtask mc --quick` or the `mc_explore` binary.

pub mod counterexample;
pub mod explore;
pub mod history;
pub mod lin;
pub mod policy;
pub mod scenario;

pub use counterexample::{classify, minimize, Counterexample, ViolationClass};
pub use explore::{explore, run_mutation_hunts, CellStats, ExploreConfig, ExploreReport};
pub use history::{Event, History, OpArgs, OpOutcome};
pub use lin::{CheckStats, LinViolation, Spec};
pub use policy::{new_trace, next_dfs_prefix, Pct, RandomWalk, Replay, SharedTrace};
pub use scenario::{run_scenario, FaultMode, PolicyKind, RunReport, Scenario};
