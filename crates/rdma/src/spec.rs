//! Cluster configuration and cost model.
//!
//! One struct gathers every calibration constant of the simulation, with
//! defaults matched to the paper's testbed (§6: dual-port Mellanox
//! Connect-IB on InfiniBand FDR 4×, two Xeon E5-2660 v2 sockets per
//! machine, two memory servers per machine each on its own NIC port, the
//! NIC attached to one socket so the second server crosses QPI).
//!
//! Absolute magnitudes are modelled, not measured; what the defaults are
//! calibrated for is the *ordering of bottlenecks* the paper reports:
//! two-sided designs saturate memory-server CPU first, one-sided designs
//! saturate NIC bandwidth first, and the QPI-crossing server saturates
//! before its sibling.

use simnet::SimDur;

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

/// All tunable parameters of the simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Physical machines hosting memory servers.
    pub machines: usize,
    /// Memory servers per machine (the paper deploys 2, one per NIC port).
    pub servers_per_machine: usize,
    /// RPC handler cores per memory server (one socket's worth).
    pub rpc_cores_per_server: usize,

    /// NIC port bandwidth per memory server, bytes/second (FDR 4× ≈ 6.8 GB/s).
    pub nic_bandwidth: f64,
    /// Per-message wire/NIC processing overhead for synchronous verbs
    /// (each READ in a descent pays full request processing).
    pub op_wire_overhead: SimDur,
    /// Per-message overhead for *batched* (selectively signalled, §4.3)
    /// verbs: pipelined request processing overlaps the wire, so a batch
    /// approaches line rate — this is what lets range scans saturate the
    /// aggregated bandwidth in Fig. 9.
    pub batched_wire_overhead: SimDur,
    /// Extra wire overhead for remote atomics (CAS / FETCH_AND_ADD).
    pub atomic_wire_overhead: SimDur,
    /// One-sided verb round-trip latency (uncontended).
    pub rt_latency: SimDur,

    /// Bandwidth factor for the memory server that must cross QPI
    /// (the one not co-located with the NIC socket). Mild: QPI capacity
    /// exceeds one FDR port, so wire flows lose little.
    pub qpi_bandwidth_factor: f64,
    /// CPU service-time multiplier for the QPI-crossing server. This is
    /// where crossing QPI really hurts — every RPC's memory traffic
    /// crosses the socket interconnect, which is §6.1's explanation for
    /// the coarse-grained design saturating at ~20 clients/machine.
    pub qpi_cpu_factor: f64,

    /// Local-path latency (local memory access instead of the wire).
    pub local_latency: SimDur,
    /// Local-path bandwidth, bytes/second (one socket's memory bus).
    pub local_bandwidth: f64,

    // --- CPU cost model for two-sided RPC handlers ---
    /// Fixed per-RPC handling cost (receive, dispatch, send).
    pub rpc_fixed_cpu: SimDur,
    /// Cost per index node visited by a handler.
    pub cpu_per_node: SimDur,
    /// Cost per leaf entry scanned/copied by a handler.
    pub cpu_per_entry: SimDur,
    /// Cost per node split performed by a handler.
    pub cpu_per_split: SimDur,
    /// Extra CPU a server-side *write* (insert/delete) costs beyond the
    /// traversal: amortised page allocation, split bookkeeping, and the
    /// per-server epoch GC / rebalancing the paper runs on memory servers
    /// (§3.2). The fine-grained design pays none of this on servers — its
    /// writes and GC run from compute servers (§4.2), which is why it
    /// overtakes the two-sided designs under insert-heavy load (Fig. 12).
    pub cpu_insert_extra: SimDur,
    /// Virtual lock hold time for a leaf update: the handler's whole
    /// critical section (modify + response prep) holds the page lock, and
    /// waiters *spin on a core* — the degradation mechanism §6.3 names
    /// for the two-sided designs under insert-heavy load (Fig. 12).
    pub leaf_lock_hold: SimDur,
    /// Extra CPU per RPC per connected client: reliable-connection QP
    /// state thrashes CPU/NIC caches as clients scale (the effect FaSST
    /// FaSST documents for RC; the paper's design uses RC + SRQs, §3.2).
    /// This is what makes two-sided designs *decline* — not just plateau —
    /// under high load (Fig. 7a, Fig. 12).
    pub rpc_client_penalty: SimDur,

    // --- failure model (fault injection + recovery) ---
    /// Completion deadline for a single verb: if a verb cannot complete
    /// by `issue + verb_timeout` (queueing, degradation, or a dropped
    /// message), it fails with `VerbError::Timeout` at the deadline.
    /// Generous by default so fault-free RPC queueing never trips it.
    pub verb_timeout: SimDur,
    /// First retry backoff step for retryable verb failures.
    pub retry_backoff_base: SimDur,
    /// Retry backoff ceiling (exponential growth is clamped here).
    pub retry_backoff_cap: SimDur,
    /// Retries before an operation gives up with `OpError`.
    pub retry_limit: u32,
    /// Virtual-time lease on a held page lock: a contender observing the
    /// *same* locked word for this long may break the lock via CAS
    /// (see `blink::layout::lock_word::break_lease`).
    ///
    /// Safety invariant (checked by [`ClusterSpec::validate`]): the lease
    /// must exceed the longest *legitimate* hold. A live holder's
    /// critical section issues at most [`MAX_LOCK_HOLD_VERBS`] verbs
    /// after its acquire CAS (page alloc, split-sibling WRITE, in-place
    /// WRITE-back, unlock FAA), and every verb either applies its effect
    /// or fails with no effect by `issue + verb_timeout`. So after
    /// `MAX_LOCK_HOLD_VERBS * verb_timeout` of an unchanged locked word,
    /// no effect of a live holder can still land — only then is the
    /// break CAS safe, and "a live holder can never be broken" holds.
    pub lease_duration: SimDur,

    // --- durability model (per-server WAL on a simulated NVMe device) ---
    /// Which durability model memory servers run (see [`Durability`]).
    pub durability: Durability,
    /// Log-device sequential write bandwidth, bytes/second (enterprise
    /// NVMe, ≈2 GB/s sustained with forced-unit-access writes).
    pub wal_write_bandwidth: f64,
    /// Log-device sequential read bandwidth, bytes/second (recovery
    /// replay streams the log back at read speed).
    pub wal_read_bandwidth: f64,
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
    /// CPU cost of applying one log record during recovery replay.
    pub wal_replay_cpu_per_record: SimDur,
    /// Fixed restart cost before replay begins (process boot, device
    /// open, queue-pair re-establishment). Incurred once per recovery.
    pub wal_restart_boot_latency: SimDur,

    // --- learned-index design (design 4) knobs ---
    /// Error bound ε of the learned model's linear segments: a predicted
    /// table position is within ±ε of the true one at training time.
    /// Must be ≥ 1: a zero ε leaves float rounding nowhere to go.
    pub learned_epsilon: u32,
    /// Stale-prediction rate (mispredicts / predictions since the last
    /// training) at which the learned design retrains its model. Must be
    /// in (0, 1].
    pub learned_retrain_threshold: f64,
    /// Maximum segment count of the model's top level (the recursion
    /// stops once a level fits). Must be ≥ 2.
    pub learned_model_fanout: usize,
}

/// Upper bound on the verbs a holder issues while a page lock is held:
/// remote page alloc + split-sibling WRITE + in-place WRITE-back +
/// unlock FAA. Used by [`ClusterSpec::validate`] to lower-bound
/// `lease_duration` against `verb_timeout`.
pub const MAX_LOCK_HOLD_VERBS: u32 = 4;

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            machines: 2,
            servers_per_machine: 2,
            rpc_cores_per_server: 10,
            nic_bandwidth: 6.8e9,
            op_wire_overhead: SimDur::from_nanos(500),
            batched_wire_overhead: SimDur::from_nanos(60),
            atomic_wire_overhead: SimDur::from_nanos(500),
            rt_latency: SimDur::from_nanos(2_500),
            qpi_bandwidth_factor: 0.9,
            qpi_cpu_factor: 2.0,
            local_latency: SimDur::from_nanos(300),
            local_bandwidth: 40e9,
            rpc_fixed_cpu: SimDur::from_nanos(6_000),
            cpu_per_node: SimDur::from_nanos(250),
            cpu_per_entry: SimDur::from_nanos(15),
            cpu_per_split: SimDur::from_nanos(2_000),
            cpu_insert_extra: SimDur::from_nanos(30_000),
            leaf_lock_hold: SimDur::from_nanos(6_000),
            rpc_client_penalty: SimDur::from_nanos(25),
            verb_timeout: SimDur::from_millis(1),
            retry_backoff_base: SimDur::from_micros(2),
            retry_backoff_cap: SimDur::from_micros(256),
            retry_limit: 16,
            lease_duration: SimDur::from_millis(5),
            durability: Durability::Off,
            wal_write_bandwidth: 2.0e9,
            wal_read_bandwidth: 3.5e9,
            wal_fsync_latency: SimDur::from_micros(10),
            wal_group_commit: true,
            wal_checkpoint_every_bytes: 16 << 20,
            wal_replay_cpu_per_record: SimDur::from_nanos(150),
            wal_restart_boot_latency: SimDur::from_millis(2),
            learned_epsilon: 8,
            learned_retrain_threshold: 0.05,
            learned_model_fanout: 64,
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
            self.nic_bandwidth * self.qpi_bandwidth_factor
        } else {
            self.nic_bandwidth
        }
    }

    /// CPU service multiplier of server `s`.
    pub fn cpu_factor(&self, s: usize) -> f64 {
        if self.crosses_qpi(s) {
            self.qpi_cpu_factor
        } else {
            1.0
        }
    }

    /// Local-path transfer time for `bytes`.
    pub fn local_time(&self, bytes: usize) -> SimDur {
        self.local_latency + SimDur::from_secs_f64(bytes as f64 / self.local_bandwidth)
    }

    /// Panic if the failure-model parameters violate the lease-break
    /// safety invariant (see [`ClusterSpec::lease_duration`]). Called by
    /// `Cluster::new`, so an unsafe configuration fails loudly at setup
    /// instead of silently permitting lost updates.
    pub fn validate(&self) {
        let max_hold = self.verb_timeout * MAX_LOCK_HOLD_VERBS as u64;
        assert!(
            self.lease_duration > max_hold,
            "lease_duration ({}ns) must exceed the longest legitimate lock \
             hold, {MAX_LOCK_HOLD_VERBS} verbs x verb_timeout = {}ns; a \
             shorter lease lets a contender break a *live* holder whose \
             write-back or unlock is still in flight (lost update / ghost \
             lock)",
            self.lease_duration.as_nanos(),
            max_hold.as_nanos(),
        );
        assert!(
            self.learned_epsilon >= 1,
            "learned_epsilon must be >= 1: the model's bounded search \
             window needs at least one position of slack for float \
             rounding (got {})",
            self.learned_epsilon,
        );
        assert!(
            self.learned_retrain_threshold > 0.0 && self.learned_retrain_threshold <= 1.0,
            "learned_retrain_threshold must be in (0, 1]: it is a \
             stale-prediction *rate*; 0 would retrain on every mispredict \
             before the rate is even defined (got {})",
            self.learned_retrain_threshold,
        );
        if self.durability == Durability::Wal {
            assert!(
                self.wal_write_bandwidth > 0.0 && self.wal_read_bandwidth > 0.0,
                "wal_write_bandwidth / wal_read_bandwidth must be positive \
                 when durability is Wal: every acknowledged mutation waits \
                 on a log flush, a zero-throughput device never \
                 acknowledges anything (got {} / {})",
                self.wal_write_bandwidth,
                self.wal_read_bandwidth,
            );
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
            let interval = SimDur::from_secs_f64(
                self.wal_checkpoint_every_bytes as f64 / self.wal_write_bandwidth,
            );
            assert!(
                interval > self.wal_fsync_latency,
                "wal_checkpoint_every_bytes ({} bytes) is too small for the \
                 configured log device: streaming one checkpoint interval \
                 of log takes {}ns, within one fsync ({}ns) — checkpoints \
                 would fire faster than individual flushes complete. Raise \
                 the interval, raise wal_write_bandwidth, or lower \
                 wal_fsync_latency",
                self.wal_checkpoint_every_bytes,
                interval.as_nanos(),
                self.wal_fsync_latency.as_nanos(),
            );
        }
        assert!(
            self.learned_model_fanout >= 2,
            "learned_model_fanout must be >= 2: the segment recursion \
             shrinks by grouping, a top level of < 2 segments per step \
             cannot terminate meaningfully (got {})",
            self.learned_model_fanout,
        );
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
    fn default_spec_upholds_lease_invariant() {
        let spec = ClusterSpec::default();
        spec.validate();
        assert!(spec.lease_duration > spec.verb_timeout * MAX_LOCK_HOLD_VERBS as u64);
    }

    #[test]
    #[should_panic(expected = "lease_duration")]
    fn short_lease_is_rejected() {
        let spec = ClusterSpec {
            // One verb_timeout short of the safe bound: a holder's late
            // unlock FAA could land after a contender's break.
            lease_duration: SimDur::from_millis(3),
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "learned_epsilon")]
    fn zero_epsilon_is_rejected() {
        let spec = ClusterSpec {
            learned_epsilon: 0,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "learned_retrain_threshold")]
    fn zero_retrain_threshold_is_rejected() {
        let spec = ClusterSpec {
            learned_retrain_threshold: 0.0,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "learned_retrain_threshold")]
    fn over_unit_retrain_threshold_is_rejected() {
        let spec = ClusterSpec {
            learned_retrain_threshold: 1.5,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "learned_model_fanout")]
    fn degenerate_model_fanout_is_rejected() {
        let spec = ClusterSpec {
            learned_model_fanout: 1,
            ..ClusterSpec::default()
        };
        spec.validate();
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
            wal_write_bandwidth: 0.0,
            wal_checkpoint_every_bytes: 0,
            ..ClusterSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "wal_write_bandwidth")]
    fn zero_device_bandwidth_is_rejected() {
        let spec = ClusterSpec {
            durability: Durability::Wal,
            wal_write_bandwidth: 0.0,
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
