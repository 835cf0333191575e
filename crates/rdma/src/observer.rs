//! Verb-level observation hooks.
//!
//! Every one-sided verb an [`crate::Endpoint`] completes — READ, WRITE,
//! CAS, FETCH_AND_ADD, ALLOC — reports `(server, byte-range, kind,
//! virtual time, issuing client)` to each installed [`VerbObserver`] at
//! the instant its memory effect applies. Two-sided RPCs, failed verbs,
//! index-operation boundaries, protocol regions (lock wait, backoff) and
//! free-text instants flow through the same hook. An operation boundary
//! says when an operation ran — client, [`OpKind`], whether it
//! succeeded — never what it took or returned: the caller already holds
//! both (the model checker records its history where it issues each op).
//! The dynamic checker (`racecheck`) implements the observer to enforce
//! optimistic-lock-coupling invariants; the telemetry crate implements
//! it to build causal spans and Perfetto traces. This module only defines the reporting surface
//! so the verb layer stays free of checking/accounting policy.
//!
//! Multiple observers may be registered ([`crate::Cluster::add_observer`]);
//! they fire in registration order. With none registered the hot path
//! reduces to a single flag check ([`crate::Cluster::has_observers`]).
//!
//! Observers run synchronously on the simulated completion path and must
//! not charge simulated time or re-enter the verb layer; they may inspect
//! server memory through the untimed control path
//! ([`crate::Cluster::setup_read`]) — all pool borrows are released before
//! an event fires.

use simnet::SimTime;

/// The operation a [`VerbEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerbKind {
    /// One-sided `RDMA_READ` of `len` bytes.
    Read,
    /// One-sided `RDMA_WRITE` of `len` bytes.
    Write,
    /// One-sided `RDMA_CAS`: the swap happened iff `prev == expected`.
    Cas {
        /// Comparand.
        expected: u64,
        /// Value installed on success.
        new: u64,
        /// Word value before the operation.
        prev: u64,
    },
    /// One-sided `RDMA_FETCH_AND_ADD`.
    Faa {
        /// Addend.
        add: u64,
        /// Word value before the operation.
        prev: u64,
    },
    /// `RDMA_ALLOC` of a fresh region.
    Alloc,
}

/// One completed verb, reported at its completion instant.
#[derive(Clone, Copy, Debug)]
pub struct VerbEvent {
    /// Memory server the verb targeted.
    pub server: usize,
    /// Start offset of the affected byte range within the server's pool.
    pub offset: u64,
    /// Length of the affected byte range (8 for atomics).
    pub len: usize,
    /// Operation and its operands/result.
    pub kind: VerbKind,
    /// Virtual time the verb was issued by the client.
    pub issued: SimTime,
    /// Virtual time the verb completed (= when its effect applied).
    pub time: SimTime,
    /// The issuing client (endpoint id).
    pub client: u64,
    /// Nanoseconds of `[issued, time)` the verb spent queued behind
    /// earlier traffic on the target NIC port (zero for local verbs).
    pub queue_nanos: u64,
}

/// One completed two-sided RPC, reported at its completion instant.
#[derive(Clone, Copy, Debug)]
pub struct RpcEvent {
    /// The issuing client (endpoint id).
    pub client: u64,
    /// Memory server whose handler pool ran the RPC.
    pub server: usize,
    /// Virtual time the request was issued by the client.
    pub issued: SimTime,
    /// Virtual time the response arrived back at the client.
    pub time: SimTime,
    /// Nanoseconds of `[issued, time)` spent queued: NIC FIFO on both
    /// legs plus waiting for a free handler core.
    pub queue_nanos: u64,
    /// Nanoseconds of `[issued, time)` the handler core spent executing
    /// the request (server occupancy).
    pub server_nanos: u64,
}

/// The index-level operation an op span describes (see
/// [`VerbObserver::on_op_start`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup.
    Lookup,
    /// Range scan.
    Range,
    /// Insert / update.
    Insert,
    /// Delete.
    Delete,
    /// Epoch garbage-collection pass.
    Gc,
}

impl OpKind {
    /// Stable lower-case label (used for trace/metric names).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Lookup => "lookup",
            OpKind::Range => "range",
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
            OpKind::Gc => "gc",
        }
    }
}

/// A protocol region a client can enter within an op (see
/// [`VerbObserver::on_region`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// Spinning on a locked/contended node (re-reads, CAS retries).
    LockWait,
    /// Sleeping in exponential backoff between op attempts.
    Backoff,
}

impl RegionKind {
    /// Stable label (used for trace/metric names).
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::LockWait => "lock_wait",
            RegionKind::Backoff => "backoff",
        }
    }
}

/// A protocol-level fence the index engine evaluated (see
/// [`VerbObserver::on_fence`]). These notes carry no simulated cost and
/// exist so race detectors can tell a *validated* optimistic read (the
/// engine re-checked a version/fence before letting the bytes escape
/// into a result) from an unvalidated one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceKind {
    /// A version/fence re-check (`covers()`, `find_child()`, lock-word
    /// inspection) was *evaluated* on the page at `(server, offset)`,
    /// whatever its outcome — a failed check that discards the bytes is
    /// still a performed re-check.
    Revalidate,
    /// The bytes read from `(server, offset)` were discarded without
    /// flowing into an op result (e.g. an unconsumed prefetched page).
    Discard,
    /// A client-resident cached artifact derived from `(server, offset)`
    /// — a cached inner page, a leaf route, a learned-model prediction —
    /// was served without touching the wire.
    CachedUse,
    /// The client reconciled its cached state against the cluster
    /// restart epoch (cache/model wholesale-flush check). `server` and
    /// `offset` are zero; the event covers all of the client's cached
    /// artifacts.
    EpochCheck,
}

/// Receiver for verb events.
///
/// Only [`on_verb`](Self::on_verb) is required; every other hook
/// defaults to a no-op so existing observers (the checker) keep
/// compiling as the reporting surface grows.
pub trait VerbObserver {
    /// A verb completed and its memory effect has been applied.
    fn on_verb(&self, ev: &VerbEvent);

    /// `client` attempted a verb against a crashed `server` and received
    /// `ServerUnreachable`. The verb had no remote effect. Fires at issue
    /// time, before the failure is charged. Default: ignore.
    fn on_unreachable(&self, client: u64, server: usize, time: SimTime) {
        let _ = (client, server, time);
    }

    /// A two-sided RPC completed (response received). Default: ignore.
    fn on_rpc(&self, ev: &RpcEvent) {
        let _ = ev;
    }

    /// A verb or RPC by `client` against `server` failed (timeout or
    /// unreachable) after its failure latency was charged. Default: ignore.
    fn on_verb_failed(&self, client: u64, server: usize, time: SimTime) {
        let _ = (client, server, time);
    }

    /// `client` began an index-level operation, before any remote access
    /// is issued. Telemetry opens its span here. Default: ignore.
    fn on_op_start(&self, client: u64, kind: OpKind, time: SimTime) {
        let _ = (client, kind, time);
    }

    /// `client` finished the operation started by the matching
    /// [`on_op_start`](Self::on_op_start); `ok` is false when it returned
    /// an error. Default: ignore.
    fn on_op_end(&self, client: u64, kind: OpKind, ok: bool, time: SimTime) {
        let _ = (client, kind, ok, time);
    }

    /// `client` entered (`enter == true`) or left a protocol region.
    /// Regions of different kinds do not nest. Default: ignore.
    fn on_region(&self, client: u64, kind: RegionKind, enter: bool, time: SimTime) {
        let _ = (client, kind, enter, time);
    }

    /// A cluster-scoped event (fault injection, recovery) with a
    /// human-readable label. Default: ignore.
    fn on_instant(&self, label: &str, time: SimTime) {
        let _ = (label, time);
    }

    /// `client` evaluated a protocol-level fence: a version/fence
    /// re-check on a page, a discard of never-escaping bytes, a served
    /// cached artifact, or a restart-epoch reconciliation. Fires
    /// synchronously from the index engine with no simulated cost; race
    /// detectors use it to close (or open) validation windows on
    /// optimistic reads. Default: ignore.
    fn on_fence(&self, client: u64, kind: FenceKind, server: usize, offset: u64, time: SimTime) {
        let _ = (client, kind, server, offset, time);
    }

    /// `server` finished crash recovery: its memory now holds the
    /// replayed durable prefix — mutations that applied before the
    /// crash but never reached the log have been *undone*. Observers
    /// holding shadow copies of server state (the checker's lock
    /// words) must resync from memory. Fires only under
    /// `Durability::Wal`; Off-mode restarts preserve RAM and change
    /// nothing. Default: ignore.
    fn on_server_recovered(&self, server: usize, time: SimTime) {
        let _ = (server, time);
    }
}
