//! The simulated cluster: memory servers, their NIC ports, RPC cores,
//! registered memory, and traffic counters.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::{Rc, Weak};

use simnet::resource::{CpuPool, FifoLink};
use simnet::rng::DetRng;
use simnet::stats::Counter;
use simnet::{Sim, SimTime};

use wal::{CheckpointPayload, CheckpointSource, ServerWal, WalConfig, WalRecord, WalStats};

use crate::fault::{FaultStats, LinkDegrade};
use crate::observer::{OpArgs, OpKind, OpOutcome};
use crate::pool::MemPool;
use crate::ptr::RemotePtr;
use crate::spec::{
    ClusterSpec, Durability, WAL_READ_BANDWIDTH, WAL_REPLAY_CPU_PER_RECORD, WAL_WRITE_BANDWIDTH,
};

/// Server-local index state that must survive crashes under
/// [`Durability::Wal`]. Implemented by the layer that owns the state (the
/// NAM layer's local trees); the transport only needs wipe / snapshot /
/// replay, all in terms of the logical `(key, value)` pairs that
/// [`WalRecord::TreeUpsert`] / [`WalRecord::TreeDelete`] carry.
pub trait DurableState {
    /// Drop all in-RAM state, as a crash with volatile DRAM does.
    fn wipe(&self);
    /// Snapshot the live `(key, value)` entries for a checkpoint image.
    fn snapshot(&self) -> Vec<(u64, u64)>;
    /// Rebuild from a checkpoint's entry snapshot.
    fn restore(&self, entries: &[(u64, u64)]);
    /// Replay one logged in-place upsert (update the first live entry
    /// under `key`, inserting only when none exists).
    fn upsert(&self, key: u64, value: u64);
    /// Replay one logged fresh insert verbatim (duplicate keys allowed —
    /// entry multiplicity must match the pre-crash tree).
    fn insert(&self, key: u64, value: u64);
    /// Replay one logged delete (absent key is a no-op).
    fn delete(&self, key: u64);
}

/// One completed crash-recovery cycle under [`Durability::Wal`], with the
/// measured recovery time (the RTO numerator: restart command to healthy).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryRecord {
    /// Which server recovered.
    pub server: usize,
    /// When the server crashed (RAM lost).
    pub crashed_at: SimTime,
    /// When the restart was commanded (boot + replay start here).
    pub restarted_at: SimTime,
    /// When the server reported healthy (verbs succeed again).
    pub healthy_at: SimTime,
    /// Checkpoint + log bytes streamed back from the device.
    pub replay_bytes: u64,
    /// Log records re-applied.
    pub records_replayed: u64,
    /// Torn-tail bytes discarded by the CRC scan.
    pub torn_bytes: u64,
}

impl RecoveryRecord {
    /// Recovery time: restart command to healthy (boot + device read +
    /// replay CPU). Crash-to-restart detection lag is schedule policy,
    /// not recovery work, so it is excluded.
    pub fn recovery_time(&self) -> simnet::SimDur {
        self.healthy_at - self.restarted_at
    }
}

/// One memory server's simulated hardware and state.
pub(crate) struct MemServer {
    /// The server's NIC port (wire-time FIFO).
    pub nic: FifoLink,
    /// RPC handler cores.
    pub cpu: CpuPool,
    /// RDMA-registered memory.
    pub pool: RefCell<MemPool>,
    /// The server's durability subsystem (`None` under [`Durability::Off`]).
    pub wal: Option<Rc<ServerWal>>,
    /// Bytes received over the wire (writes, atomics, RPC requests), by
    /// admitted messages only.
    pub bytes_in: Counter,
    /// Bytes sent over the wire (reads, atomics, RPC responses), by
    /// admitted messages only.
    pub bytes_out: Counter,
    /// Bytes moved over the local path (co-located accesses).
    pub local_bytes: Counter,
    /// One-sided verbs served.
    pub onesided_ops: Counter,
    /// Two-sided RPCs served.
    pub rpcs: Counter,
}

struct Inner {
    sim: Sim,
    spec: ClusterSpec,
    servers: Vec<MemServer>,
    /// Connected compute clients (drives per-RPC RC state overhead).
    active_clients: std::cell::Cell<usize>,
    /// Endpoint id allocator (stable, creation-ordered).
    next_client: std::cell::Cell<u64>,
    /// Injected-fault state (all servers up, no faults, by default).
    faults: RefCell<FaultState>,
    /// Installed verb observers (checker, telemetry, ...), fired in
    /// registration order.
    observers: RefCell<Vec<Rc<dyn crate::observer::VerbObserver>>>,
    /// Mirror of `!observers.is_empty()`; a plain `Cell` read so the verb
    /// hot path pays one flag check when nothing is listening.
    observers_active: std::cell::Cell<bool>,
    /// Per-server registered durable index state (checkpoint capture +
    /// crash wipe + replay target under [`Durability::Wal`]).
    durable: RefCell<Vec<Option<Rc<dyn DurableState>>>>,
    /// Servers currently mid-recovery (restart commanded, replay not yet
    /// complete); guards double restarts.
    recovering: RefCell<Vec<bool>>,
    /// Completed crash-recovery cycles, in completion order.
    recovery_log: RefCell<Vec<RecoveryRecord>>,
    /// Reusable verb-payload buffers shared by every endpoint on this
    /// cluster; steady-state READs recycle instead of allocating.
    arena: crate::buf::BufArena,
}

/// Mutable fault-injection state; see [`crate::fault`].
struct FaultState {
    /// Per-server liveness. What a crash does to the server's memory is
    /// mode-dependent: under [`Durability::Off`] RAM magically survives
    /// (the NAM paper's recoverable-region assumption taken on faith);
    /// under [`Durability::Wal`] RAM is wiped and only the WAL +
    /// checkpoint on the server's log device persist.
    server_up: Vec<bool>,
    /// When each currently-down server crashed (None while up).
    crashed_at: Vec<Option<SimTime>>,
    /// Restarts of any server: client caches compare it on every page
    /// load.
    restart_epoch: u64,
    /// Killed compute clients; their verbs fail with `Cancelled`.
    dead_clients: BTreeSet<u64>,
    /// Clients to kill immediately after their next successful
    /// lock-acquire CAS (realises "die between lock CAS and unlock FAA"
    /// deterministically).
    kill_on_lock_acquire: BTreeSet<u64>,
    /// Predicate deciding whether a CAS `(expected, new)` has the shape
    /// of a lock acquire. Injected by the index layer that owns the
    /// lock-word encoding (the transport knows nothing about it); the
    /// kill-on-lock-acquire trigger cannot fire until one is installed.
    acquire_shape: Option<fn(u64, u64) -> bool>,
    /// Per-server link degradation, if any.
    degrade: Vec<Option<LinkDegrade>>,
    /// Drop-roll RNG; only consulted when a degraded link has a nonzero
    /// drop chance, so fault-free runs draw nothing from it.
    rng: DetRng,
    stats: FaultStats,
}

impl FaultState {
    fn new(n: usize) -> Self {
        FaultState {
            server_up: vec![true; n],
            crashed_at: vec![None; n],
            restart_epoch: 0,
            dead_clients: BTreeSet::new(),
            kill_on_lock_acquire: BTreeSet::new(),
            acquire_shape: None,
            degrade: vec![None; n],
            rng: DetRng::seed_from_u64(0),
            stats: FaultStats::default(),
        }
    }
}

/// Handle to the simulated cluster; cheap to clone.
#[derive(Clone)]
pub struct Cluster {
    inner: Rc<Inner>,
}

/// Checkpoint capturer for one server: pool image + allocator watermark +
/// the registered durable state's entry snapshot. Holds the cluster
/// weakly so a WAL outliving its cluster captures nothing instead of
/// leaking a cycle.
struct ServerSnapshot {
    inner: Weak<Inner>,
    server: usize,
}

impl CheckpointSource for ServerSnapshot {
    fn capture(&self) -> Option<CheckpointPayload> {
        let inner = self.inner.upgrade()?;
        let sv = &inner.servers[self.server];
        let (pool_image, allocated) = {
            let pool = sv.pool.borrow();
            (pool.image(), pool.allocated())
        };
        let state = inner.durable.borrow()[self.server].clone();
        let tree_entries = state.map(|st| st.snapshot()).unwrap_or_default();
        Some(CheckpointPayload {
            pool_image,
            allocated,
            tree_entries,
        })
    }
}

/// Snapshot of one memory server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Bytes received over the wire. Only admitted messages count: a
    /// dropped or deadline-refused message never reaches the wire.
    pub bytes_in: u64,
    /// Bytes sent over the wire, by admitted messages only.
    pub bytes_out: u64,
    /// Bytes moved over the local (co-located) path.
    pub local_bytes: u64,
    /// One-sided verbs served.
    pub onesided_ops: u64,
    /// Two-sided RPCs served.
    pub rpcs: u64,
    /// Cumulative NIC wire occupancy, nanoseconds.
    pub nic_busy_nanos: u64,
    /// Cumulative RPC core occupancy, nanoseconds.
    pub cpu_busy_nanos: u64,
}

impl Cluster {
    /// Build a cluster per `spec` on the given simulation.
    pub fn new(sim: &Sim, spec: ClusterSpec) -> Self {
        assert!(
            spec.num_servers() <= RemotePtr::MAX_SERVERS,
            "remote pointers address at most 128 servers"
        );
        spec.validate();
        let spec_servers = spec.num_servers();
        let servers = (0..spec_servers)
            .map(|_| MemServer {
                nic: FifoLink::new(),
                cpu: CpuPool::new(spec.rpc_cores_per_server),
                pool: RefCell::new(MemPool::new()),
                wal: match spec.durability {
                    Durability::Off => None,
                    Durability::Wal => Some(ServerWal::new(
                        sim,
                        WalConfig {
                            write_bandwidth: WAL_WRITE_BANDWIDTH,
                            read_bandwidth: WAL_READ_BANDWIDTH,
                            fsync_latency: spec.wal_fsync_latency,
                            group_commit: spec.wal_group_commit,
                            checkpoint_every_bytes: spec.wal_checkpoint_every_bytes,
                            replay_cpu_per_record: WAL_REPLAY_CPU_PER_RECORD,
                        },
                    )),
                },
                bytes_in: Counter::new(),
                bytes_out: Counter::new(),
                local_bytes: Counter::new(),
                onesided_ops: Counter::new(),
                rpcs: Counter::new(),
            })
            .collect();
        let cluster = Cluster {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                spec,
                servers,
                active_clients: std::cell::Cell::new(0),
                next_client: std::cell::Cell::new(0),
                faults: RefCell::new(FaultState::new(spec_servers)),
                observers: RefCell::new(Vec::new()),
                observers_active: std::cell::Cell::new(false),
                durable: RefCell::new(vec![None; spec_servers]),
                recovering: RefCell::new(vec![false; spec_servers]),
                recovery_log: RefCell::new(Vec::new()),
                arena: crate::buf::BufArena::new(),
            }),
        };
        for (s, sv) in cluster.inner.servers.iter().enumerate() {
            if let Some(w) = &sv.wal {
                w.set_source(Rc::new(ServerSnapshot {
                    inner: Rc::downgrade(&cluster.inner),
                    server: s,
                }));
            }
        }
        cluster
    }

    /// Declare how many compute clients are connected; RPC handler
    /// service time grows by [`crate::spec::RPC_CLIENT_PENALTY`] per
    /// client (RC QP state pressure).
    pub fn set_active_clients(&self, n: usize) {
        self.inner.active_clients.set(n);
    }

    /// Currently declared compute client count.
    pub fn active_clients(&self) -> usize {
        self.inner.active_clients.get()
    }

    /// The simulation this cluster runs on.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Cluster configuration.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// Number of memory servers.
    pub fn num_servers(&self) -> usize {
        self.inner.servers.len()
    }

    pub(crate) fn server(&self, s: usize) -> &MemServer {
        &self.inner.servers[s]
    }

    /// The cluster's shared verb-buffer arena.
    pub fn arena(&self) -> &crate::buf::BufArena {
        &self.inner.arena
    }

    /// Allocate a fresh endpoint (client) id.
    pub(crate) fn next_client_id(&self) -> u64 {
        let id = self.inner.next_client.get();
        self.inner.next_client.set(id + 1);
        id
    }

    // ---- fault injection (mechanism; schedules live in `chaos`) ----

    /// Seed the drop-roll RNG used by degraded links. Call before the
    /// run for reproducible probabilistic drops.
    pub fn set_fault_seed(&self, seed: u64) {
        self.inner.faults.borrow_mut().rng = DetRng::seed_from_u64(seed);
    }

    /// Crash memory server `s`: its regions become unreachable (verbs
    /// fail with `ServerUnreachable`) until [`Cluster::restart_server`].
    /// Under [`Durability::Off`] registered memory magically survives;
    /// under [`Durability::Wal`] RAM is *lost* — the pool and any
    /// registered [`DurableState`] are wiped, the WAL's pending buffer
    /// vanishes (verbs awaiting durability fail), and a log flush caught
    /// mid-device-write persists only its torn byte prefix.
    pub fn fail_server(&self, s: usize) {
        let now = self.inner.sim.now();
        {
            let mut f = self.inner.faults.borrow_mut();
            if !f.server_up[s] {
                return;
            }
            f.server_up[s] = false;
            f.crashed_at[s] = Some(now);
        }
        if let Some(w) = &self.inner.servers[s].wal {
            w.crash(now);
            self.inner.servers[s].pool.borrow_mut().wipe();
            let state = self.inner.durable.borrow()[s].clone();
            if let Some(state) = state {
                state.wipe();
            }
        }
    }

    /// Restart a crashed memory server.
    /// In-flight RPC core queues are not drained retroactively; requests
    /// granted a core after the crash fail at the grant.
    ///
    /// Under [`Durability::Off`] the restart is instant (memory
    /// survived): the server is up on return, its restart counter bumped,
    /// recovered hooks fired synchronously. Under [`Durability::Wal`]
    /// this *commands* a restart: a recovery task boots the process,
    /// streams checkpoint + log back from the log device, replays, and
    /// only then marks the server up — until that instant verbs keep
    /// failing with `ServerUnreachable`. Measured cycles appear in
    /// [`Cluster::recovery_records`].
    pub fn restart_server(&self, s: usize) {
        if self.inner.servers[s].wal.is_none() {
            let mut f = self.inner.faults.borrow_mut();
            if !f.server_up[s] {
                f.server_up[s] = true;
                f.crashed_at[s] = None;
                f.restart_epoch += 1;
            }
            return;
        }
        if self.inner.faults.borrow().server_up[s] || self.inner.recovering.borrow()[s] {
            return;
        }
        self.inner.recovering.borrow_mut()[s] = true;
        let cluster = self.clone();
        self.inner
            .sim
            .spawn(async move { cluster.recovery_task(s).await });
    }

    /// The Wal-mode recovery sequence: boot, stream checkpoint + log from
    /// the device, re-apply, mark healthy.
    async fn recovery_task(self, s: usize) {
        let sim = self.inner.sim.clone();
        let restarted_at = sim.now();
        sim.sleep(self.inner.spec.wal_restart_boot_latency).await;
        let w = self.inner.servers[s]
            .wal
            .as_ref()
            .expect("wal-mode server")
            .clone();
        let plan = w.recover();
        w.replay_read(plan.replay_bytes).await;
        sim.sleep(plan.cpu_duration).await;
        {
            let mut pool = self.inner.servers[s].pool.borrow_mut();
            pool.restore(&plan.pool_image, plan.allocated);
        }
        let state = self.inner.durable.borrow()[s].clone();
        if let Some(st) = &state {
            st.restore(&plan.tree_entries);
        }
        for rec in &plan.records {
            match rec {
                WalRecord::PoolWrite { offset, data } => {
                    self.inner.servers[s]
                        .pool
                        .borrow_mut()
                        .replay_write(*offset, data);
                }
                WalRecord::PoolWriteWord { offset, word } => {
                    self.inner.servers[s]
                        .pool
                        .borrow_mut()
                        .replay_write(*offset, &word.to_le_bytes());
                }
                WalRecord::PoolAllocTo { next } => {
                    self.inner.servers[s]
                        .pool
                        .borrow_mut()
                        .replay_alloc_to(*next);
                }
                WalRecord::TreeUpsert { key, value } => {
                    if let Some(st) = &state {
                        st.upsert(*key, *value);
                    }
                }
                WalRecord::TreeInsert { key, value } => {
                    if let Some(st) = &state {
                        st.insert(*key, *value);
                    }
                }
                WalRecord::TreeDelete { key } => {
                    if let Some(st) = &state {
                        st.delete(*key);
                    }
                }
            }
        }
        let healthy_at = sim.now();
        let crashed_at = {
            let mut f = self.inner.faults.borrow_mut();
            f.server_up[s] = true;
            f.restart_epoch += 1;
            f.crashed_at[s].take().unwrap_or(restarted_at)
        };
        self.inner.recovering.borrow_mut()[s] = false;
        self.inner.recovery_log.borrow_mut().push(RecoveryRecord {
            server: s,
            crashed_at,
            restarted_at,
            healthy_at,
            replay_bytes: plan.replay_bytes,
            records_replayed: plan.records.len() as u64,
            torn_bytes: plan.torn_bytes,
        });
        self.note_instant("server_recovered");
        let now = sim.now();
        self.each_observer(|o| o.on_server_recovered(s, now));
    }

    /// Whether server `s` is mid-recovery (restart commanded, replay not
    /// yet finished). Always `false` under [`Durability::Off`].
    pub fn server_recovering(&self, s: usize) -> bool {
        self.inner.recovering.borrow()[s]
    }

    /// Completed crash-recovery cycles (Wal mode), in completion order.
    pub fn recovery_records(&self) -> Vec<RecoveryRecord> {
        self.inner.recovery_log.borrow().clone()
    }

    /// Whether memory server `s` is up.
    pub fn server_up(&self, s: usize) -> bool {
        self.inner.faults.borrow().server_up[s]
    }

    /// Restarts of any server so far. Client-resident state derived from
    /// remote memory (cached pages and routes, the learned model) is
    /// valid for one value of this and flushed when it moves.
    pub fn restart_epoch(&self) -> u64 {
        self.inner.faults.borrow().restart_epoch
    }

    /// Kill compute client `client`: every verb it issues from now on
    /// fails with `Cancelled`. Verbs already past their issue point
    /// complete normally (their remote effects apply — the client just
    /// never sees the completion).
    pub fn kill_client(&self, client: u64) {
        self.inner.faults.borrow_mut().dead_clients.insert(client);
    }

    /// Revive a killed client (models a replacement process adopting the
    /// same client id).
    pub fn revive_client(&self, client: u64) {
        let mut f = self.inner.faults.borrow_mut();
        f.dead_clients.remove(&client);
        f.kill_on_lock_acquire.remove(&client);
    }

    /// Whether `client` is currently killed.
    pub fn client_dead(&self, client: u64) -> bool {
        self.inner.faults.borrow().dead_clients.contains(&client)
    }

    /// Install the predicate that recognises a lock-acquire CAS shape
    /// `(expected, new)`. The transport is agnostic to any index's
    /// lock-word encoding; the layer that owns the encoding (e.g.
    /// `namdex-core`, which installs `blink::layout::lock_word::is_acquire`
    /// when building an index) injects it here so the
    /// kill-on-lock-acquire trigger can recognise acquisitions.
    /// Replaces any previously installed shape.
    pub fn set_lock_acquire_shape(&self, shape: fn(u64, u64) -> bool) {
        self.inner.faults.borrow_mut().acquire_shape = Some(shape);
    }

    /// Arm a one-shot trigger: the next time `client` wins a
    /// lock-acquire CAS, kill it immediately after the CAS's remote
    /// effect applies — deterministically realising "client dies between
    /// its lock CAS and its unlock FAA". Requires a lock-acquire shape
    /// ([`Cluster::set_lock_acquire_shape`]) so the trigger cannot
    /// silently never fire.
    pub fn arm_kill_on_lock_acquire(&self, client: u64) {
        let mut f = self.inner.faults.borrow_mut();
        assert!(
            f.acquire_shape.is_some(),
            "arm_kill_on_lock_acquire needs a lock-acquire shape; install \
             one with Cluster::set_lock_acquire_shape (index builds in \
             namdex-core do this automatically)"
        );
        f.kill_on_lock_acquire.insert(client);
    }

    /// Fire the lock-kill trigger for `client` if it is armed and the
    /// successful CAS `expected -> new` matches the installed
    /// acquire shape. Returns whether the client was just killed.
    pub(crate) fn maybe_fire_lock_kill(&self, client: u64, expected: u64, new: u64) -> bool {
        let mut f = self.inner.faults.borrow_mut();
        if !f.kill_on_lock_acquire.contains(&client) {
            return false;
        }
        match f.acquire_shape {
            Some(shape) if shape(expected, new) => {
                f.kill_on_lock_acquire.remove(&client);
                f.dead_clients.insert(client);
                f.stats.lock_kills_fired += 1;
                true
            }
            _ => false,
        }
    }

    /// Degrade server `s`'s link (drops, delay spikes, reduced
    /// bandwidth) until [`Cluster::restore_link`].
    pub fn degrade_link(&self, s: usize, degrade: LinkDegrade) {
        assert!(
            degrade.bandwidth_factor > 0.0 && degrade.bandwidth_factor <= 1.0,
            "bandwidth_factor must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&degrade.drop_chance),
            "drop_chance must be a probability"
        );
        self.inner.faults.borrow_mut().degrade[s] = Some(degrade);
    }

    /// Remove any degradation from server `s`'s link.
    pub fn restore_link(&self, s: usize) {
        self.inner.faults.borrow_mut().degrade[s] = None;
    }

    /// Current degradation of server `s`'s link, if any.
    pub fn link_degrade(&self, s: usize) -> Option<LinkDegrade> {
        self.inner.faults.borrow().degrade[s]
    }

    /// Roll the drop die for one remote verb against server `s`. Only
    /// consumes randomness when a nonzero drop chance is configured, so
    /// fault-free runs stay byte-identical to pre-fault builds.
    pub(crate) fn roll_drop(&self, s: usize) -> bool {
        let mut f = self.inner.faults.borrow_mut();
        match f.degrade[s] {
            Some(d) if d.drop_chance > 0.0 => {
                let dropped = f.rng.chance(d.drop_chance);
                if dropped {
                    f.stats.verbs_dropped += 1;
                }
                dropped
            }
            _ => false,
        }
    }

    /// Fault-effect counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.faults.borrow().stats
    }

    pub(crate) fn note_cancelled(&self) {
        self.inner.faults.borrow_mut().stats.verbs_cancelled += 1;
    }

    pub(crate) fn note_unreachable(&self) {
        self.inner.faults.borrow_mut().stats.verbs_unreachable += 1;
    }

    pub(crate) fn note_timeout(&self) {
        self.inner.faults.borrow_mut().stats.verbs_timed_out += 1;
    }

    // ---- durability (per-server WAL; see `crate::spec::Durability`) ----

    /// Server `s`'s WAL handle, if durability is on.
    pub(crate) fn server_wal(&self, s: usize) -> Option<Rc<ServerWal>> {
        self.inner.servers[s].wal.clone()
    }

    /// Append one WAL record on server `s` (no-op under
    /// [`Durability::Off`]). Returns the record's LSN. The caller must
    /// ensure a durability barrier runs before the mutation is
    /// acknowledged — verb paths do this automatically; RPC handlers are
    /// covered by the response-leg barrier in `Endpoint::rpc`.
    pub fn wal_append(&self, s: usize, rec: WalRecord) -> Option<u64> {
        self.inner.servers[s].wal.as_ref().map(|w| w.append(rec))
    }

    /// Register the durable index state of server `s` (replaces any
    /// previous registration). Under [`Durability::Wal`] the state is
    /// wiped on crash, snapshotted into checkpoints, and replayed into on
    /// recovery; under [`Durability::Off`] registration is inert.
    pub fn register_durable_state(&self, s: usize, state: Rc<dyn DurableState>) {
        self.inner.durable.borrow_mut()[s] = Some(state);
    }

    /// Declare setup/loading complete: every server's WAL seals its
    /// setup-time base image (the checkpoint a recovery starts from, at
    /// no device cost — it models the initial-load image the server was
    /// provisioned from). Design builds call this once the bulk load and
    /// state registration are done. No-op under [`Durability::Off`].
    pub fn seal_setup(&self) {
        for sv in &self.inner.servers {
            if let Some(w) = &sv.wal {
                w.seal_base();
            }
        }
    }

    /// Server `s`'s durability counters (`None` under [`Durability::Off`]).
    pub fn wal_stats(&self, s: usize) -> Option<WalStats> {
        self.inner.servers[s].wal.as_ref().map(|w| w.stats())
    }

    /// Durable log bytes accumulated on server `s` since its last
    /// checkpoint (`None` under [`Durability::Off`]).
    pub fn wal_log_bytes(&self, s: usize) -> Option<u64> {
        self.inner.servers[s].wal.as_ref().map(|w| w.log_bytes())
    }

    // ---- verb observation ----

    /// Register `observer` to receive every completed verb and the wider
    /// event surface (see [`crate::observer`]). Observers fire in
    /// registration order; registering the same observer twice delivers
    /// its events twice.
    pub fn add_observer(&self, observer: Rc<dyn crate::observer::VerbObserver>) {
        self.inner.observers.borrow_mut().push(observer);
        self.inner.observers_active.set(true);
    }

    /// Whether any observer is installed. The verb layer checks this
    /// before assembling event payloads so an unobserved run pays only
    /// this flag read.
    #[inline]
    pub fn has_observers(&self) -> bool {
        self.inner.observers_active.get()
    }

    /// Run `f` over each installed observer, in registration order. No
    /// borrow of the list is held while `f` runs, so an observer may
    /// register another from inside its callback; it is reached in the
    /// same walk.
    fn each_observer(&self, f: impl Fn(&dyn crate::observer::VerbObserver)) {
        if !self.inner.observers_active.get() {
            return;
        }
        let mut i = 0;
        loop {
            let Some(o) = self.inner.observers.borrow().get(i).cloned() else {
                return;
            };
            f(o.as_ref());
            i += 1;
        }
    }

    /// Report a completed verb to the installed observers.
    pub(crate) fn observe(&self, ev: crate::observer::VerbEvent) {
        self.each_observer(|o| o.on_verb(&ev));
    }

    /// Report a verb attempt against a crashed server to the observers.
    pub(crate) fn observe_unreachable(&self, client: u64, server: usize) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_unreachable(client, server, now));
    }

    /// Report that epoch GC retired `[offset, offset + len)` on `server`;
    /// later verbs touching it are use-after-free (see
    /// [`crate::observer::VerbObserver::on_free`]).
    pub fn note_freed(&self, server: usize, offset: u64, len: usize) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_free(server, offset, len, now));
    }

    /// Report a completed two-sided RPC to the installed observers.
    pub(crate) fn observe_rpc(&self, ev: crate::observer::RpcEvent) {
        self.each_observer(|o| o.on_rpc(&ev));
    }

    /// Report a charged verb/RPC failure (timeout or unreachable).
    pub(crate) fn observe_verb_failed(&self, client: u64, server: usize) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_verb_failed(client, server, now));
    }

    /// Report that `client` began an index-level operation, with its
    /// arguments when it has any (a GC pass has none).
    pub fn note_op_start(&self, client: u64, kind: OpKind, args: Option<OpArgs>) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_op_start(client, kind, args, now));
    }

    /// Report that `client` finished its current index-level operation,
    /// with the outcome it returned when the caller built one.
    pub fn note_op_end(&self, client: u64, kind: OpKind, ok: bool, outcome: Option<&OpOutcome>) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_op_end(client, kind, ok, outcome, now));
    }

    /// Report that `client` entered (`enter`) or left a protocol region.
    pub fn note_region(&self, client: u64, kind: crate::observer::RegionKind, enter: bool) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_region(client, kind, enter, now));
    }

    /// Report that `client` evaluated a protocol-level fence on the page
    /// at `(server, offset)` (see [`crate::observer::FenceKind`]). The
    /// engine calls this through [`Cluster::has_observers`]-guarded
    /// helpers; with no observers it is never reached.
    pub fn note_fence(
        &self,
        client: u64,
        kind: crate::observer::FenceKind,
        server: usize,
        offset: u64,
    ) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_fence(client, kind, server, offset, now));
    }

    /// Report a cluster-scoped labelled instant (fault injection etc.).
    pub fn note_instant(&self, label: &str) {
        let now = self.inner.sim.now();
        self.each_observer(|o| o.on_instant(label, now));
    }

    // ---- control path (untimed; for loading / setup, not measurement) ----

    /// Allocate `size` bytes on server `s` without charging simulated
    /// time. Loading-phase only.
    pub fn setup_alloc(&self, s: usize, size: u64) -> RemotePtr {
        let off = self.server(s).pool.borrow_mut().alloc(size);
        RemotePtr::new(s, off)
    }

    /// Write bytes without charging simulated time. Loading-phase only.
    pub fn setup_write(&self, ptr: RemotePtr, data: &[u8]) {
        self.server(ptr.server())
            .pool
            .borrow_mut()
            .copy_in(ptr.offset(), data);
    }

    /// Run `f` over the `len` bytes at `ptr` where they live, without
    /// charging simulated time: loaders build pages in place instead of
    /// encoding them elsewhere and copying them in. Loading-phase only.
    pub fn setup_page<R>(&self, ptr: RemotePtr, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.with_pool(ptr.server(), |pool| f(pool.slice_mut(ptr.offset(), len)))
    }

    /// Read bytes without charging simulated time. Loading-phase only.
    pub fn setup_read(&self, ptr: RemotePtr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.server(ptr.server())
            .pool
            .borrow()
            .copy_out(ptr.offset(), &mut buf);
        buf
    }

    /// Run `f` with mutable access to server `s`'s memory pool, untimed.
    /// Loading-phase and GC bookkeeping only.
    pub fn with_pool<R>(&self, s: usize, f: impl FnOnce(&mut MemPool) -> R) -> R {
        f(&mut self.server(s).pool.borrow_mut())
    }

    // ---- statistics ----

    /// Snapshot one server's counters.
    pub fn server_stats(&self, s: usize) -> ServerStats {
        let sv = self.server(s);
        ServerStats {
            bytes_in: sv.bytes_in.get(),
            bytes_out: sv.bytes_out.get(),
            local_bytes: sv.local_bytes.get(),
            onesided_ops: sv.onesided_ops.get(),
            rpcs: sv.rpcs.get(),
            nic_busy_nanos: sv.nic.busy_time().as_nanos(),
            cpu_busy_nanos: sv.cpu.busy_time().as_nanos(),
        }
    }

    /// Snapshot all servers' counters.
    pub fn all_stats(&self) -> Vec<ServerStats> {
        (0..self.num_servers())
            .map(|s| self.server_stats(s))
            .collect()
    }

    /// Total bytes moved over the wire (both directions, all servers).
    pub fn total_wire_bytes(&self) -> u64 {
        self.inner
            .servers
            .iter()
            .map(|s| s.bytes_in.get() + s.bytes_out.get())
            .sum()
    }

    /// Aggregate theoretical wire capacity of all servers in bytes/second
    /// (the "Max. Bandwidth" line in Fig. 9).
    pub fn aggregate_bandwidth(&self) -> f64 {
        (0..self.num_servers())
            .map(|s| self.inner.spec.effective_bandwidth(s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{NIC_BANDWIDTH, QPI_BANDWIDTH_FACTOR};

    #[test]
    fn setup_round_trip() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        assert_eq!(cluster.num_servers(), 4);
        let ptr = cluster.setup_alloc(2, 64);
        assert_eq!(ptr.server(), 2);
        cluster.setup_write(ptr, &[9, 8, 7]);
        assert_eq!(cluster.setup_read(ptr, 3), vec![9, 8, 7]);
        // Untimed: the clock did not move.
        assert_eq!(sim.now().as_nanos(), 0);
    }

    #[test]
    fn stats_start_zero() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let stats = cluster.server_stats(0);
        assert_eq!(stats, ServerStats::default());
        assert_eq!(cluster.total_wire_bytes(), 0);
    }

    #[test]
    fn aggregate_bandwidth_counts_qpi() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let expect = 2.0 * NIC_BANDWIDTH + 2.0 * NIC_BANDWIDTH * QPI_BANDWIDTH_FACTOR;
        assert!((cluster.aggregate_bandwidth() - expect).abs() < 1.0);
    }
}
