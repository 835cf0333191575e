//! Cluster configuration and cost model.
//!
//! The calibration of the simulation is a set of constants, matched to
//! the paper's testbed (§6: dual-port Mellanox Connect-IB on InfiniBand
//! FDR 4×, two Xeon E5-2660 v2 sockets per machine, two memory servers
//! per machine each on its own NIC port, the NIC attached to one socket
//! so the second server crosses QPI). [`ClusterSpec`] holds only what a
//! caller varies: the cluster's shape, the durability model and its
//! WAL knobs, and the RPC handler's cores and fixed cost.
//!
//! Absolute magnitudes are modelled, not measured; what the constants are
//! calibrated for is the *ordering of bottlenecks* the paper reports:
//! two-sided designs saturate memory-server CPU first, one-sided designs
//! saturate NIC bandwidth first, and the QPI-crossing server saturates
//! before its sibling.

use simnet::SimDur;

// --- transport ---

/// NIC port bandwidth per memory server, bytes/second (FDR 4× ≈ 6.8 GB/s).
pub const NIC_BANDWIDTH: f64 = 6.8e9;
/// Per-message wire/NIC processing overhead for synchronous verbs
/// (each READ in a descent pays full request processing).
pub const OP_WIRE_OVERHEAD: SimDur = SimDur::from_nanos(500);
/// Per-message overhead for *batched* (selectively signalled, §4.3)
/// verbs: pipelined request processing overlaps the wire, so a batch
/// approaches line rate — this is what lets range scans saturate the
/// aggregated bandwidth in Fig. 9.
pub const BATCHED_WIRE_OVERHEAD: SimDur = SimDur::from_nanos(60);
/// Extra wire overhead for remote atomics (CAS / FETCH_AND_ADD).
pub const ATOMIC_WIRE_OVERHEAD: SimDur = SimDur::from_nanos(500);
/// One-sided verb round-trip latency (uncontended).
pub const RT_LATENCY: SimDur = SimDur::from_nanos(2_500);

/// Bandwidth factor for the memory server that must cross QPI
/// (the one not co-located with the NIC socket). Mild: QPI capacity
/// exceeds one FDR port, so wire flows lose little.
pub const QPI_BANDWIDTH_FACTOR: f64 = 0.9;
/// CPU service-time multiplier for the QPI-crossing server. This is
/// where crossing QPI really hurts — every RPC's memory traffic
/// crosses the socket interconnect, which is §6.1's explanation for
/// the coarse-grained design saturating at ~20 clients/machine.
pub const QPI_CPU_FACTOR: f64 = 2.0;

/// Local-path latency (local memory access instead of the wire).
pub const LOCAL_LATENCY: SimDur = SimDur::from_nanos(300);
/// Local-path bandwidth, bytes/second (one socket's memory bus).
pub const LOCAL_BANDWIDTH: f64 = 40e9;

// --- CPU cost model for two-sided RPC handlers ---

/// Cost per index node visited by a handler.
pub const CPU_PER_NODE: SimDur = SimDur::from_nanos(250);
/// Cost per leaf entry scanned/copied by a handler.
pub const CPU_PER_ENTRY: SimDur = SimDur::from_nanos(15);
/// Cost per node split performed by a handler.
pub const CPU_PER_SPLIT: SimDur = SimDur::from_nanos(2_000);
/// Extra CPU a server-side *write* (insert/delete) costs beyond the
/// traversal: amortised page allocation, split bookkeeping, and the
/// per-server epoch GC / rebalancing the paper runs on memory servers
/// (§3.2). The fine-grained design pays none of this on servers — its
/// writes and GC run from compute servers (§4.2), which is why it
/// overtakes the two-sided designs under insert-heavy load (Fig. 12).
pub const CPU_INSERT_EXTRA: SimDur = SimDur::from_nanos(30_000);
/// Virtual lock hold time for a leaf update: the handler's whole
/// critical section (modify + response prep) holds the page lock, and
/// waiters *spin on a core* — the degradation mechanism §6.3 names
/// for the two-sided designs under insert-heavy load (Fig. 12).
pub const LEAF_LOCK_HOLD: SimDur = SimDur::from_nanos(6_000);
/// Extra CPU per RPC per connected client: reliable-connection QP
/// state thrashes CPU/NIC caches as clients scale (the effect FaSST
/// documents for RC; the paper's design uses RC + SRQs, §3.2).
/// This is what makes two-sided designs *decline* — not just plateau —
/// under high load (Fig. 7a, Fig. 12).
pub const RPC_CLIENT_PENALTY: SimDur = SimDur::from_nanos(25);

// --- failure model (fault injection + recovery) ---

/// Deadline of one round of messages from its send: a one-sided verb
/// (sent at its issue) or one leg of an RPC. A round that cannot complete
/// by then (queueing, degradation, a dropped message) fails with
/// `VerbError::Timeout` at it. A live but busy RPC server queues with no
/// deadline (§3.2). A response its port cannot move within it still
/// fails: fig10's 10M-key CG `range_sel0.1` cell (ROADMAP item 4(b)).
pub const VERB_TIMEOUT: SimDur = SimDur::from_millis(1);
/// First retry backoff step for retryable verb failures.
pub const RETRY_BACKOFF_BASE: SimDur = SimDur::from_micros(2);
/// Retry backoff ceiling (exponential growth is clamped here).
pub const RETRY_BACKOFF_CAP: SimDur = SimDur::from_micros(256);
/// Retries before an operation gives up with `OpError`.
pub const RETRY_LIMIT: u32 = 16;
/// Virtual-time lease on a held page lock: a contender observing the
/// *same* locked word for this long may break the lock via CAS
/// (see `blink::layout::lock_word::break_lease`).
///
/// Safety invariant (asserted at compile time below): the lease must
/// exceed the longest *legitimate* hold. A live holder's critical
/// section issues at most [`MAX_LOCK_HOLD_VERBS`] verbs after its
/// acquire CAS (page alloc, split-sibling WRITE, in-place WRITE-back,
/// unlock FAA), in at most as many sequential one-sided rounds, and
/// every round either applies its effects or fails with none by
/// `issue + VERB_TIMEOUT`. So after `MAX_LOCK_HOLD_VERBS * VERB_TIMEOUT`
/// of an unchanged locked word, no effect of a live holder can still
/// land — only then is the break CAS safe, and "a live holder can never
/// be broken" holds.
pub const LEASE_DURATION: SimDur = SimDur::from_millis(5);

/// Upper bound on the verbs a holder issues while a page lock is held:
/// remote page alloc + split-sibling WRITE + in-place WRITE-back +
/// unlock FAA, counted per message: the write-back and the unlock are
/// one round with one deadline (`Endpoint::write_fetch_add`) but count
/// two. Lower-bounds [`LEASE_DURATION`] against [`VERB_TIMEOUT`].
pub const MAX_LOCK_HOLD_VERBS: u32 = 4;

// A shorter lease would let a contender break a *live* holder whose
// write-back or unlock is still in flight (lost update / ghost lock).
const _: () =
    assert!(LEASE_DURATION.as_nanos() > VERB_TIMEOUT.as_nanos() * MAX_LOCK_HOLD_VERBS as u64);

// --- durability model (per-server WAL on a simulated NVMe device) ---

/// Log-device sequential write bandwidth, bytes/second (enterprise
/// NVMe, ≈2 GB/s sustained with forced-unit-access writes).
pub const WAL_WRITE_BANDWIDTH: f64 = 2.0e9;
/// Log-device sequential read bandwidth, bytes/second (recovery
/// replay streams the log back at read speed).
pub const WAL_READ_BANDWIDTH: f64 = 3.5e9;
/// CPU cost of applying one log record during recovery replay.
pub const WAL_REPLAY_CPU_PER_RECORD: SimDur = SimDur::from_nanos(150);

/// Durability model of the cluster's memory servers.
///
/// The NAM paper assumes recoverable memory regions and leaves the
/// mechanism open (§3.2 sketches battery-backed DRAM or logging to an
/// attached NVMe device). `Off` keeps the historical simulator behaviour:
/// a crashed server's memory magically survives, restart is instant.
/// `Wal` models the logging mechanism for real: every acknowledged
/// mutation is first made durable on a per-server simulated NVMe log
/// device (group-committed), a crash *wipes RAM*, and restart replays
/// checkpoint + log before the server reports healthy — so recovery time
/// is measured, not assumed away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Magic-durable memory: crashes keep RAM, restarts are instant.
    /// The default, byte-compatible with every pre-durability run.
    #[default]
    Off,
    /// Per-server WAL + fuzzy checkpoints on a simulated NVMe device;
    /// crashes lose RAM and recovery replays the log.
    Wal,
}

/// The parameters of the simulated cluster that a caller varies.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Physical machines hosting memory servers.
    pub machines: usize,
    /// Memory servers per machine (the paper deploys 2, one per NIC port).
    pub servers_per_machine: usize,
    /// RPC handler cores per memory server (one socket's worth).
    pub rpc_cores_per_server: usize,
    /// Fixed per-RPC handling cost (receive, dispatch, send).
    pub rpc_fixed_cpu: SimDur,

    // --- durability model (per-server WAL on a simulated NVMe device) ---
    /// Which durability model memory servers run (see [`Durability`]).
    pub durability: Durability,
    /// Fixed latency of one durable write (flush/FUA round trip into the
    /// device's power-loss-protected buffer). This is the cost group
    /// commit amortises: one coalesced flush pays it once.
    pub wal_fsync_latency: SimDur,
    /// Group commit: coalesce every record pending at flush time into one
    /// device write (`true`), or flush strictly one record per device
    /// write (`false`, the comparison baseline).
    pub wal_group_commit: bool,
    /// Take a fuzzy checkpoint once the log since the last checkpoint
    /// exceeds this many bytes. Bounds replay work — and therefore
    /// recovery time — at the cost of periodic image writes.
    pub wal_checkpoint_every_bytes: u64,
    /// Fixed restart cost before replay begins (process boot, device
    /// open, queue-pair re-establishment). Incurred once per recovery.
    pub wal_restart_boot_latency: SimDur,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            machines: 2,
            servers_per_machine: 2,
            rpc_cores_per_server: 10,
            rpc_fixed_cpu: SimDur::from_nanos(6_000),
            durability: Durability::Off,
            wal_fsync_latency: SimDur::from_micros(10),
            wal_group_commit: true,
            wal_checkpoint_every_bytes: 16 << 20,
            wal_restart_boot_latency: SimDur::from_millis(2),
        }
    }
}

impl ClusterSpec {
    /// Default spec with `n` memory servers (packed two per machine as in
    /// the paper's deployment).
    pub fn with_memory_servers(n: usize) -> Self {
        assert!(n > 0);
        let servers_per_machine = 2.min(n);
        ClusterSpec {
            machines: n.div_ceil(servers_per_machine),
            servers_per_machine,
            ..ClusterSpec::default()
        }
    }

    /// Total memory servers in the cluster.
    pub fn num_servers(&self) -> usize {
        self.machines * self.servers_per_machine
    }

    /// Machine hosting memory server `s`.
    pub fn machine_of(&self, s: usize) -> usize {
        s / self.servers_per_machine
    }

    /// Whether server `s` must cross QPI to reach its NIC port
    /// (every server on a machine except the first).
    pub fn crosses_qpi(&self, s: usize) -> bool {
        !s.is_multiple_of(self.servers_per_machine)
    }

    /// Effective NIC bandwidth of server `s` in bytes/second.
    pub fn effective_bandwidth(&self, s: usize) -> f64 {
        if self.crosses_qpi(s) {
            NIC_BANDWIDTH * QPI_BANDWIDTH_FACTOR
        } else {
            NIC_BANDWIDTH
        }
    }

    /// CPU service multiplier of server `s`.
    pub fn cpu_factor(&self, s: usize) -> f64 {
        if self.crosses_qpi(s) {
            QPI_CPU_FACTOR
        } else {
            1.0
        }
    }

    /// Local-path transfer time for `bytes`.
    pub fn local_time(&self, bytes: usize) -> SimDur {
        LOCAL_LATENCY + SimDur::from_secs_f64(bytes as f64 / LOCAL_BANDWIDTH)
    }

    /// Panic if the WAL knobs cannot run under `Durability::Wal`. Called
    /// by `Cluster::new`, so a bad configuration fails loudly at setup.
    pub fn validate(&self) {
        if self.durability == Durability::Wal {
            assert!(
                self.wal_checkpoint_every_bytes > 0,
                "wal_checkpoint_every_bytes must be positive when \
                 durability is Wal: a zero threshold triggers a checkpoint \
                 after every append and the log never accumulates",
            );
            // Tie the checkpoint interval to the log device's throughput:
            // accumulating one interval of log must take longer than a
            // single durable write's fixed fsync cost, or the device
            // spends its whole duty cycle writing checkpoint images
            // instead of group-committed appends and the flush queue
            // grows without bound.
            let interval =
                SimDur::from_secs_f64(self.wal_checkpoint_every_bytes as f64 / WAL_WRITE_BANDWIDTH);
            assert!(
                interval > self.wal_fsync_latency,
                "wal_checkpoint_every_bytes ({} bytes) is too small for the \
                 configured log device: streaming one checkpoint interval \
                 of log takes {}ns, within one fsync ({}ns) — checkpoints \
                 would fire faster than individual flushes complete. Raise \
                 the interval or lower wal_fsync_latency",
                self.wal_checkpoint_every_bytes,
                interval.as_nanos(),
                self.wal_fsync_latency.as_nanos(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let spec = ClusterSpec::default();
        assert_eq!(spec.num_servers(), 4);
        assert_eq!(spec.machine_of(0), 0);
        assert_eq!(spec.machine_of(1), 0);
        assert_eq!(spec.machine_of(2), 1);
        assert!(!spec.crosses_qpi(0));
        assert!(spec.crosses_qpi(1));
        assert!(!spec.crosses_qpi(2));
    }

    #[test]
    fn with_memory_servers_counts() {
        for n in 1..=8 {
            let spec = ClusterSpec::with_memory_servers(n);
            assert!(spec.num_servers() >= n, "n={n}");
            assert!(spec.num_servers() - n < 2);
        }
        assert_eq!(ClusterSpec::with_memory_servers(1).num_servers(), 1);
        assert_eq!(ClusterSpec::with_memory_servers(8).machines, 4);
    }

    #[test]
    fn qpi_penalises_second_server() {
        let spec = ClusterSpec::default();
        assert!(spec.effective_bandwidth(1) < spec.effective_bandwidth(0));
        assert!(spec.cpu_factor(1) > spec.cpu_factor(0));
    }

    #[test]
    fn wal_defaults_validate_under_wal_durability() {
        let spec = ClusterSpec {
            durability: Durability::Wal,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    fn off_durability_ignores_wal_knobs() {
        // Back-compat: with durability Off the WAL knobs are inert and a
        // nonsensical device must not fail validation.
        let spec = ClusterSpec {
            durability: Durability::Off,
            wal_checkpoint_every_bytes: 0,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "wal_checkpoint_every_bytes")]
    fn zero_checkpoint_interval_is_rejected() {
        let spec = ClusterSpec {
            durability: Durability::Wal,
            wal_checkpoint_every_bytes: 0,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "too small for the configured log device")]
    fn checkpoint_interval_must_outlast_one_fsync() {
        // 1 KiB interval at 2 GB/s streams in 500ns, far inside the 10us
        // fsync: the device would checkpoint continuously.
        let spec = ClusterSpec {
            durability: Durability::Wal,
            wal_checkpoint_every_bytes: 1024,
            ..ClusterSpec::default()
        };
        spec.validate();
    }
}
