#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation (§6 and
//! appendices) from one binary:
//!
//! ```text
//! cargo run --release -p bench -- <figure>… | all | list
//! ```
//!
//! [`driver`] runs one configuration — deploy a simulated NAM cluster,
//! build an index design, load YCSB data, drive closed-loop clients,
//! measure throughput/latency/network.
//! [`figures`] holds the registry: one table entry per figure, naming
//! its CSV, the experiment cells it sweeps and how a measured cell
//! becomes a row, plus the runner that farms cells through
//! [`parallel`]. [`plot`] renders ASCII charts and CSV files; [`cli`]
//! parses the command line.

pub mod cli;
pub mod driver;
pub mod figures;
pub mod parallel;
pub mod plot;

pub use cli::BenchArgs;
pub use driver::{
    metrics_csv_path, run_experiment, CgPartition, DataDist, ExperimentConfig, ExperimentResult,
    TimelinePoint,
};
