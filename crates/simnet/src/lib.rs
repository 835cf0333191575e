#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # simnet — deterministic virtual-time simulation engine
//!
//! `simnet` is the substrate on which the RDMA cluster simulation is built.
//! It provides:
//!
//! * a **virtual clock** ([`SimTime`], [`SimDur`]) measured in integer
//!   nanoseconds,
//! * a **single-threaded async executor** ([`Sim`]) whose only suspension
//!   point is a timer (`sleep_until`), driven by a binary-heap event queue,
//! * **fluid FIFO resources** ([`resource::FifoLink`], [`resource::CpuPool`])
//!   that model queueing delay analytically (no scheduler machinery),
//! * a **deterministic RNG** and the YCSB Zipfian generator
//!   ([`rng`]), and
//! * **streaming statistics** ([`stats`]) including log-bucketed latency
//!   histograms.
//!
//! Every run is reproducible from a seed: tasks are woken in
//! `(virtual time, sequence number)` order and no wall-clock or OS
//! scheduling leaks into results.
//!
//! ## Example
//!
//! ```
//! use simnet::{Sim, SimDur};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! sim.spawn(async move {
//!     s.sleep(SimDur::from_micros(5)).await;
//!     assert_eq!(s.now().as_micros(), 5);
//! });
//! sim.run();
//! ```

pub mod executor;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use executor::{FifoPolicy, SchedulePolicy, SchedulerKind, Sim, TaskId};
pub use time::{SimDur, SimTime};
