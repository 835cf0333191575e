//! Failure surface of the simulated RDMA layer.
//!
//! Real RDMA verbs complete with a status; lossy fabrics, crashed
//! memory servers and killed clients all surface as failed completions.
//! This module holds the error type every verb returns, the per-link
//! degradation knobs, and the counters the cluster keeps about injected
//! faults. The *schedule* of faults lives in `crates/chaos`; this layer
//! only exposes the mechanism (`Cluster::{fail_server, kill_client,
//! degrade_link, ...}`).

use std::fmt;

use simnet::SimDur;

/// Why a verb failed to complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerbError {
    /// The verb missed its completion deadline
    /// ([`crate::spec::VERB_TIMEOUT`]): the message was dropped,
    /// or queueing/degradation pushed completion past the deadline.
    Timeout {
        /// Target memory server.
        server: usize,
    },
    /// The target memory server is crashed; its registered regions are
    /// unreachable until it restarts.
    ServerUnreachable {
        /// Target memory server.
        server: usize,
    },
    /// The issuing client was killed; the verb was never issued and had
    /// no remote effect.
    Cancelled,
    /// The remote pointer does not decode to a server of this cluster
    /// (corrupt or stale pointer).
    InvalidPointer {
        /// The raw pointer bits.
        raw: u64,
    },
    /// A protocol invariant the caller relies on did not hold (e.g. a
    /// freshly split half-empty page refusing an insert). Never
    /// retryable: the state that produced it is deterministic, so the
    /// operation surfaces it instead of panicking on a hot path.
    Invariant(&'static str),
}

impl VerbError {
    /// Whether retrying the operation may succeed (transient fault).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            VerbError::Timeout { .. } | VerbError::ServerUnreachable { .. }
        )
    }

    /// The server involved, when the error names one.
    pub fn server(&self) -> Option<usize> {
        match self {
            VerbError::Timeout { server } | VerbError::ServerUnreachable { server } => {
                Some(*server)
            }
            _ => None,
        }
    }
}

impl fmt::Display for VerbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbError::Timeout { server } => {
                write!(f, "verb timed out against memory server {server}")
            }
            VerbError::ServerUnreachable { server } => {
                write!(f, "memory server {server} unreachable")
            }
            VerbError::Cancelled => write!(f, "issuing client was killed"),
            VerbError::InvalidPointer { raw } => {
                write!(f, "remote pointer {raw:#018x} does not decode")
            }
            VerbError::Invariant(what) => {
                write!(f, "protocol invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for VerbError {}

/// Degradation applied to one memory server's link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegrade {
    /// Probability that a remote verb's message is dropped (it then
    /// fails with [`VerbError::Timeout`] at its deadline).
    pub drop_chance: f64,
    /// Extra one-way delay added to every remote verb (delay spike).
    pub extra_delay: SimDur,
    /// Multiplier on the link's bandwidth (`0 < factor <= 1`).
    pub bandwidth_factor: f64,
}

impl Default for LinkDegrade {
    fn default() -> Self {
        LinkDegrade {
            drop_chance: 0.0,
            extra_delay: SimDur::ZERO,
            bandwidth_factor: 1.0,
        }
    }
}

/// Counters of fault effects the cluster has applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Verbs refused because the issuing client was dead.
    pub verbs_cancelled: u64,
    /// Verbs failed because the target server was down.
    pub verbs_unreachable: u64,
    /// Verbs that missed their completion deadline.
    pub verbs_timed_out: u64,
    /// Verb messages dropped by link degradation (subset of timeouts).
    pub verbs_dropped: u64,
    /// Clients killed by an armed kill-on-lock-acquire trigger.
    pub lock_kills_fired: u64,
}
