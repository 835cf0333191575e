#![forbid(unsafe_code)]

//! # wal — per-memory-server durability
//!
//! A memory server that loses its RAM on a crash needs three things to
//! come back: a **write-ahead log** of every acknowledged state mutation,
//! a **checkpoint** bounding how much log a restart must replay, and a
//! **recovery** path that rebuilds pool + local-tree state from the two.
//! This module provides all three over a simulated NVMe device
//! ([`NvmeDevice`]) whose bandwidth/latency/queue model is a sibling of
//! this crate's NIC model.
//!
//! ## Write path (group commit)
//!
//! A verb's effect is applied to RAM, then its record is appended to the
//! in-memory pending buffer ([`ServerWal::append`]) and the verb awaits
//! [`ServerWal::wait_durable`] before acknowledging. A single *pump* task
//! per server drains the buffer: each flush coalesces every pending
//! record into one device write (group commit), so concurrent verbs share
//! one fsync. The pump is spawned on demand by the first append and exits
//! when the buffer drains — the simulation quiesces with no parked tasks.
//!
//! ## Checkpoints
//!
//! When the durable log since the last checkpoint exceeds the configured
//! threshold, the pump captures a consistent image of the server state
//! (via the registered [`CheckpointSource`]), streams it to the device,
//! and atomically switches to it (shadow-paged: a crash mid-write keeps
//! the old checkpoint), truncating the covered log prefix. The capture is
//! *fuzzy* with respect to the log: records still in the pending buffer
//! are covered by the image before they are durable, which is safe
//! because records carry post-state payloads and replay filters by LSN.
//!
//! ## Crash + recovery
//!
//! [`ServerWal::crash`] models RAM loss: the pending buffer vanishes,
//! waiting verbs fail, and a flush in flight persists only the byte
//! prefix proportional to the device time it had — a **torn tail** that
//! recovery's CRC scan discards ([`record::decode_log`]). A restart
//! replays checkpoint + surviving log through [`ServerWal::recover`]; the
//! returned plan carries the modelled device-read and CPU costs so the
//! caller can charge recovery time before marking the server healthy.

pub mod device;
pub mod record;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use simnet::{Sim, SimDur, SimTime};

use crate::spec::{
    ClusterSpec, WAL_READ_BANDWIDTH, WAL_REPLAY_CPU_PER_RECORD, WAL_WRITE_BANDWIDTH,
};

pub use device::NvmeDevice;
pub use record::{decode_log, DecodedLog, WalRecord};

/// A consistent snapshot of one server's recoverable state, captured by
/// the host layer at checkpoint time.
#[derive(Clone, Debug, Default)]
pub struct CheckpointPayload {
    /// The memory pool's bytes.
    pub pool_image: Vec<u8>,
    /// The pool's bump-allocator watermark.
    pub allocated: u64,
    /// Live `(key, value)` entries of the server's local tree (empty for
    /// servers that host no tree, e.g. under the fine-grained design).
    pub tree_entries: Vec<(u64, u64)>,
}

impl CheckpointPayload {
    /// Bytes this payload occupies on the device (image + entries + a
    /// fixed header).
    pub fn device_bytes(&self) -> u64 {
        self.pool_image.len() as u64 + self.tree_entries.len() as u64 * 16 + 16
    }
}

/// Capturer of [`CheckpointPayload`]s — implemented by the cluster layer,
/// which owns the pool and the per-design tree registry.
pub trait CheckpointSource {
    /// Capture the server's current recoverable state. Returns `None` if
    /// the server no longer exists (e.g. the cluster was dropped).
    fn capture(&self) -> Option<CheckpointPayload>;
}

/// The durable checkpoint (shadow-paged: replaced atomically at commit).
struct Checkpoint {
    payload: CheckpointPayload,
    /// Records with `lsn <= upto_lsn` are covered by the image and must
    /// not be replayed over it.
    upto_lsn: u64,
}

/// A log-flush batch occupying the device right now.
struct InFlight {
    bytes: Vec<u8>,
    start: SimTime,
    end: SimTime,
    last_lsn: u64,
    records: u64,
}

/// Counters for one server's durability subsystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Records appended (one per acknowledged state mutation).
    pub appends: u64,
    /// Records made durable by log flushes.
    pub records_flushed: u64,
    /// Durable log-device write ops (group commit makes this much
    /// smaller than `records_flushed`; per-record flushing makes them
    /// equal).
    pub device_flushes: u64,
    /// Log bytes flushed.
    pub flushed_bytes: u64,
    /// Runtime checkpoints committed (the setup base image is free).
    pub checkpoints: u64,
    /// Checkpoint bytes streamed to the device.
    pub checkpoint_bytes: u64,
    /// Torn-tail bytes discarded by recoveries.
    pub torn_bytes_discarded: u64,
    /// Completed recoveries.
    pub recoveries: u64,
    /// Records replayed by recoveries.
    pub records_replayed: u64,
    /// Virtual time the log device has been occupied, nanoseconds.
    pub device_busy_nanos: u64,
}

struct WalInner {
    /// Encoded records awaiting a flush (RAM — lost on crash).
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Next LSN to assign (LSN 0 is "nothing").
    next_lsn: u64,
    /// Highest LSN whose record is durable.
    durable_lsn: u64,
    /// The durable log image (device contents after the checkpoint).
    log: Vec<u8>,
    /// Crash epoch: bumped by [`ServerWal::crash`]; stale pump tasks and
    /// durability waiters compare against it.
    epoch: u64,
    pump_running: bool,
    in_flight: Option<InFlight>,
    /// FIFO of `(id, lsn, waker)` durability waiters.
    waiters: Vec<(u64, u64, Waker)>,
    next_waiter: u64,
    checkpoint: Option<Checkpoint>,
    source: Option<Rc<dyn CheckpointSource>>,
    /// Counters; the device's two are filled in by [`ServerWal::stats`].
    stats: WalStats,
}

/// One memory server's write-ahead log + checkpoint + recovery state.
pub struct ServerWal {
    sim: Sim,
    /// [`ClusterSpec::wal_group_commit`]: coalesce every pending record
    /// into one device write per flush.
    group_commit: bool,
    /// [`ClusterSpec::wal_checkpoint_every_bytes`]: take a checkpoint
    /// once the durable log reaches this many bytes.
    checkpoint_every_bytes: u64,
    dev: NvmeDevice,
    inner: RefCell<WalInner>,
}

/// Outcome of awaiting durability for an appended record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitOutcome {
    /// The record (and everything before it) is on the device.
    Durable,
    /// The server crashed before the record was flushed — the caller's
    /// mutation may or may not survive recovery and must not be
    /// acknowledged.
    Crashed,
}

/// Everything a restart needs to rebuild the server, plus the modelled
/// cost of doing so.
pub struct RecoveryPlan {
    /// Checkpoint pool image to restore (empty if no checkpoint was ever
    /// installed — the server rebuilds from the log alone).
    pub pool_image: Vec<u8>,
    /// Checkpoint allocator watermark.
    pub allocated: u64,
    /// Checkpoint tree entries.
    pub tree_entries: Vec<(u64, u64)>,
    /// Surviving log records *after* the checkpoint, in LSN order.
    pub records: Vec<WalRecord>,
    /// Checkpoint + log bytes the recovery reads from the device.
    pub replay_bytes: u64,
    /// Torn-tail bytes discarded by this recovery.
    pub torn_bytes: u64,
    /// CPU time to decode + apply the records.
    pub cpu_duration: SimDur,
}

impl ServerWal {
    /// New WAL over an idle device, configured by `spec`'s `wal_*`
    /// settings.
    pub fn new(sim: &Sim, spec: &ClusterSpec) -> Rc<Self> {
        Rc::new(ServerWal {
            sim: sim.clone(),
            group_commit: spec.wal_group_commit,
            checkpoint_every_bytes: spec.wal_checkpoint_every_bytes,
            dev: NvmeDevice::new(
                WAL_WRITE_BANDWIDTH,
                WAL_READ_BANDWIDTH,
                spec.wal_fsync_latency,
            ),
            inner: RefCell::new(WalInner {
                pending: VecDeque::new(),
                next_lsn: 1,
                durable_lsn: 0,
                log: Vec::new(),
                epoch: 0,
                pump_running: false,
                in_flight: None,
                waiters: Vec::new(),
                next_waiter: 0,
                checkpoint: None,
                source: None,
                stats: WalStats::default(),
            }),
        })
    }

    /// Register the state capturer used by checkpoints. Installed by the
    /// cluster right after construction.
    pub fn set_source(&self, source: Rc<dyn CheckpointSource>) {
        self.inner.borrow_mut().source = Some(source);
    }

    /// Install the setup-time base image: capture the server state *now*
    /// and make it the checkpoint, at no device cost (it models the
    /// initial-load image the server was provisioned from). Called when a
    /// design finishes building; also fired lazily by the first append so
    /// raw verb traffic is covered too. No-op if a checkpoint exists.
    pub fn seal_base(&self) {
        let source = {
            let inner = self.inner.borrow();
            if inner.checkpoint.is_some() {
                return;
            }
            match &inner.source {
                Some(s) => s.clone(),
                None => return,
            }
        };
        // Capture outside the borrow: the source reads cluster state.
        let Some(payload) = source.capture() else {
            return;
        };
        let mut inner = self.inner.borrow_mut();
        if inner.checkpoint.is_some() {
            return;
        }
        let upto_lsn = inner.next_lsn - 1;
        inner.log.clear();
        inner.checkpoint = Some(Checkpoint { payload, upto_lsn });
    }

    /// Append one record; returns its LSN (to pass to
    /// [`ServerWal::wait_durable`]). Spawns the flush pump if idle.
    pub fn append(self: &Rc<Self>, rec: WalRecord) -> u64 {
        self.seal_base();
        let (lsn, spawn_epoch) = {
            let mut inner = self.inner.borrow_mut();
            let lsn = inner.next_lsn;
            inner.next_lsn += 1;
            let encoded = rec.encode(lsn);
            inner.pending.push_back((lsn, encoded));
            inner.stats.appends += 1;
            let spawn = !inner.pump_running;
            if spawn {
                inner.pump_running = true;
            }
            (lsn, spawn.then_some(inner.epoch))
        };
        if let Some(epoch) = spawn_epoch {
            let wal = self.clone();
            self.sim.spawn(async move { wal.pump(epoch).await });
        }
        lsn
    }

    /// Highest LSN assigned so far (0 if none).
    pub fn appended_lsn(&self) -> u64 {
        self.inner.borrow().next_lsn - 1
    }

    /// Current crash epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// Await durability of `lsn` (or the server's crash, whichever comes
    /// first). Resolves immediately if already durable.
    pub fn wait_durable(&self, lsn: u64) -> DurableWait<'_> {
        let epoch = self.inner.borrow().epoch;
        DurableWait {
            wal: self,
            lsn,
            epoch,
            id: None,
        }
    }

    /// The flush pump: drains the pending buffer one device write at a
    /// time, then exits. Spawned on demand by [`ServerWal::append`]; a
    /// crash (epoch bump) makes a stale pump return without touching
    /// state.
    async fn pump(self: Rc<Self>, epoch: u64) {
        loop {
            let batch = {
                let mut inner = self.inner.borrow_mut();
                if inner.epoch != epoch {
                    return;
                }
                if inner.pending.is_empty() {
                    inner.pump_running = false;
                    return;
                }
                let take = if self.group_commit {
                    inner.pending.len()
                } else {
                    1
                };
                let mut bytes = Vec::new();
                let mut last_lsn = 0;
                for _ in 0..take {
                    let (lsn, enc) = inner.pending.pop_front().expect("batch within pending");
                    bytes.extend_from_slice(&enc);
                    last_lsn = lsn;
                }
                let now = self.sim.now();
                let (start, end) = self.dev.reserve_write(now, bytes.len() as u64);
                inner.in_flight = Some(InFlight {
                    bytes,
                    start,
                    end,
                    last_lsn,
                    records: take as u64,
                });
                end
            };
            self.sim.sleep_until(batch).await;
            let wakers = {
                let mut inner = self.inner.borrow_mut();
                if inner.epoch != epoch {
                    return;
                }
                let infl = inner.in_flight.take().expect("in-flight batch present");
                inner.log.extend_from_slice(&infl.bytes);
                inner.durable_lsn = infl.last_lsn;
                inner.stats.records_flushed += infl.records;
                inner.stats.flushed_bytes += infl.bytes.len() as u64;
                take_ready_waiters(&mut inner)
            };
            for w in wakers {
                w.wake();
            }
            self.maybe_checkpoint(epoch).await;
        }
    }

    /// Take a checkpoint if the durable log has outgrown the threshold.
    /// Runs inline in the pump (the device is a single FIFO anyway).
    async fn maybe_checkpoint(&self, epoch: u64) {
        let source = {
            let inner = self.inner.borrow();
            if (inner.log.len() as u64) < self.checkpoint_every_bytes {
                return;
            }
            match &inner.source {
                Some(s) => s.clone(),
                None => return,
            }
        };
        let Some(payload) = source.capture() else {
            return;
        };
        // The capture is consistent at this instant; everything appended
        // so far (durable or still pending) is reflected in it.
        let (upto_lsn, covered_bytes, end) = {
            let mut inner = self.inner.borrow_mut();
            if inner.epoch != epoch {
                return;
            }
            let upto = inner.next_lsn - 1;
            let covered = inner.log.len();
            let now = self.sim.now();
            let (_, end) = self.dev.reserve_write(now, payload.device_bytes());
            inner.stats.checkpoint_bytes += payload.device_bytes();
            (upto, covered, end)
        };
        self.sim.sleep_until(end).await;
        let mut inner = self.inner.borrow_mut();
        if inner.epoch != epoch {
            // Crashed mid-write: the shadow checkpoint is discarded, the
            // old one (and the full log) remain authoritative.
            return;
        }
        inner.log.drain(..covered_bytes);
        inner.checkpoint = Some(Checkpoint { payload, upto_lsn });
        inner.stats.checkpoints += 1;
    }

    /// The server's RAM is gone: drop the pending buffer, fail waiting
    /// verbs, and commit the deterministic torn prefix of any flush that
    /// was mid-device-write at `now` (the bytes the device had streamed
    /// by then; recovery's CRC scan discards the partial record at the
    /// cut).
    pub fn crash(&self, now: SimTime) {
        let wakers: Vec<Waker> = {
            let mut inner = self.inner.borrow_mut();
            inner.epoch += 1;
            inner.pump_running = false;
            inner.pending.clear();
            if let Some(infl) = inner.in_flight.take() {
                let total = (infl.end - infl.start).as_nanos();
                let elapsed = now.since(infl.start).as_nanos().min(total);
                let cut = if total == 0 {
                    infl.bytes.len()
                } else {
                    (infl.bytes.len() as u128 * elapsed as u128 / total as u128) as usize
                };
                let prefix = &infl.bytes[..cut];
                inner.log.extend_from_slice(prefix);
            }
            inner.waiters.drain(..).map(|(_, _, w)| w).collect()
        };
        for w in wakers {
            w.wake();
        }
    }

    /// Decode the durable state for a restart: checkpoint + the
    /// CRC-valid log prefix (the torn tail is truncated for good).
    /// Returns the plan with modelled read/CPU costs; the caller charges
    /// them, applies the plan, then marks the server healthy.
    pub fn recover(&self) -> RecoveryPlan {
        let mut inner = self.inner.borrow_mut();
        let decoded = decode_log(&inner.log);
        let valid = decoded.valid_bytes;
        let torn = decoded.torn_bytes as u64;
        inner.log.truncate(valid);
        let (pool_image, allocated, tree_entries, upto_lsn) = match &inner.checkpoint {
            Some(c) => (
                c.payload.pool_image.clone(),
                c.payload.allocated,
                c.payload.tree_entries.clone(),
                c.upto_lsn,
            ),
            None => (Vec::new(), 0, Vec::new(), 0),
        };
        let mut durable = upto_lsn;
        let records: Vec<WalRecord> = decoded
            .records
            .into_iter()
            .filter(|(lsn, _)| *lsn > upto_lsn)
            .map(|(lsn, r)| {
                durable = durable.max(lsn);
                r
            })
            .collect();
        inner.durable_lsn = durable;
        let ckpt_bytes = match &inner.checkpoint {
            Some(c) => c.payload.device_bytes(),
            None => 0,
        };
        let replay_bytes = ckpt_bytes + valid as u64;
        inner.stats.torn_bytes_discarded += torn;
        inner.stats.recoveries += 1;
        inner.stats.records_replayed += records.len() as u64;
        RecoveryPlan {
            pool_image,
            allocated,
            tree_entries,
            cpu_duration: WAL_REPLAY_CPU_PER_RECORD * records.len() as u64,
            records,
            replay_bytes,
            torn_bytes: torn,
        }
    }

    /// Occupy the device for the recovery's sequential read.
    pub async fn replay_read(&self, bytes: u64) {
        self.dev.read(&self.sim, bytes).await;
    }

    /// Durable log bytes currently on the device (since the checkpoint).
    pub fn log_bytes(&self) -> u64 {
        self.inner.borrow().log.len() as u64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStats {
        WalStats {
            device_flushes: self.dev.flushes(),
            device_busy_nanos: self.dev.busy_time().as_nanos(),
            ..self.inner.borrow().stats
        }
    }
}

/// Pop every waiter whose LSN is durable; wakers are returned so the
/// caller can wake outside the borrow.
fn take_ready_waiters(inner: &mut WalInner) -> Vec<Waker> {
    let durable = inner.durable_lsn;
    let mut ready = Vec::new();
    inner.waiters.retain(|(_, lsn, w)| {
        if *lsn <= durable {
            ready.push(w.clone());
            false
        } else {
            true
        }
    });
    ready
}

/// Future returned by [`ServerWal::wait_durable`].
pub struct DurableWait<'a> {
    wal: &'a ServerWal,
    lsn: u64,
    epoch: u64,
    id: Option<u64>,
}

impl Future for DurableWait<'_> {
    type Output = WaitOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<WaitOutcome> {
        let this = self.get_mut();
        let mut inner = this.wal.inner.borrow_mut();
        if inner.epoch != this.epoch {
            this.id = None;
            return Poll::Ready(WaitOutcome::Crashed);
        }
        if inner.durable_lsn >= this.lsn {
            if let Some(id) = this.id.take() {
                inner.waiters.retain(|(i, _, _)| *i != id);
            }
            return Poll::Ready(WaitOutcome::Durable);
        }
        match this.id {
            Some(id) => {
                if let Some(entry) = inner.waiters.iter_mut().find(|(i, _, _)| *i == id) {
                    entry.2 = cx.waker().clone();
                }
            }
            None => {
                let id = inner.next_waiter;
                inner.next_waiter += 1;
                this.id = Some(id);
                inner.waiters.push((id, this.lsn, cx.waker().clone()));
            }
        }
        Poll::Pending
    }
}

impl Drop for DurableWait<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.wal
                .inner
                .borrow_mut()
                .waiters
                .retain(|(i, _, _)| *i != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// The default WAL settings with runtime checkpoints out of reach.
    fn spec() -> ClusterSpec {
        ClusterSpec {
            wal_checkpoint_every_bytes: u64::MAX,
            ..ClusterSpec::default()
        }
    }

    fn rec(i: u64) -> WalRecord {
        WalRecord::TreeUpsert { key: i, value: i }
    }

    #[test]
    fn append_then_wait_becomes_durable_after_flush() {
        let sim = Sim::new();
        let wal = ServerWal::new(&sim, &spec());
        let done = Rc::new(Cell::new(0u64));
        {
            let wal = wal.clone();
            let sim_c = sim.clone();
            let done = done.clone();
            sim.spawn(async move {
                let lsn = wal.append(rec(1));
                assert_eq!(wal.wait_durable(lsn).await, WaitOutcome::Durable);
                done.set(sim_c.now().as_nanos());
            });
        }
        sim.run();
        // One flush: fsync + the record's bytes at the device's bandwidth.
        let bytes = rec(1).encoded_len() as f64;
        let flush = spec().wal_fsync_latency + SimDur::from_secs_f64(bytes / WAL_WRITE_BANDWIDTH);
        assert_eq!(done.get(), flush.as_nanos());
        assert_eq!(wal.stats().device_flushes, 1);
        assert_eq!(wal.stats().records_flushed, 1);
        assert_eq!(sim.live_tasks(), 0, "pump must have exited");
    }

    #[test]
    fn group_commit_coalesces_device_ops() {
        let flushes_for = |group: bool| {
            let sim = Sim::new();
            let wal = ServerWal::new(
                &sim,
                &ClusterSpec {
                    wal_group_commit: group,
                    ..spec()
                },
            );
            for i in 0..16u64 {
                let wal = wal.clone();
                sim.spawn(async move {
                    let lsn = wal.append(rec(i));
                    assert_eq!(wal.wait_durable(lsn).await, WaitOutcome::Durable);
                });
            }
            sim.run();
            let st = wal.stats();
            assert_eq!(st.records_flushed, 16);
            st.device_flushes
        };
        let grouped = flushes_for(true);
        let per_record = flushes_for(false);
        assert_eq!(per_record, 16, "per-record mode pays one op per record");
        assert!(
            grouped <= 2,
            "group commit must coalesce 16 same-instant appends into at \
             most the first flush plus one batch ({grouped} ops)"
        );
    }

    #[test]
    fn already_durable_wait_resolves_without_suspending() {
        let sim = Sim::new();
        let wal = ServerWal::new(&sim, &spec());
        {
            let wal = wal.clone();
            sim.spawn(async move {
                let lsn = wal.append(rec(7));
                wal.wait_durable(lsn).await;
                // Second wait on the same LSN must be instant.
                assert_eq!(wal.wait_durable(lsn).await, WaitOutcome::Durable);
            });
        }
        sim.run();
    }

    #[test]
    fn crash_fails_pending_waiters_and_keeps_torn_prefix() {
        let sim = Sim::new();
        let wal = ServerWal::new(&sim, &spec());
        let outcome = Rc::new(Cell::new(None));
        {
            let wal = wal.clone();
            let outcome = outcome.clone();
            sim.spawn(async move {
                let lsn = wal.append(rec(1));
                outcome.set(Some(wal.wait_durable(lsn).await));
            });
        }
        {
            // Crash 5us in: the 10us fsync hasn't finished, so less than
            // half the batch is on the device — the single record is torn.
            let wal = wal.clone();
            let sim_c = sim.clone();
            sim.spawn(async move {
                sim_c.sleep(SimDur::from_micros(5)).await;
                wal.crash(sim_c.now());
            });
        }
        sim.run();
        assert_eq!(outcome.get(), Some(WaitOutcome::Crashed));
        let plan = wal.recover();
        assert!(plan.records.is_empty(), "torn record must not replay");
        assert!(plan.torn_bytes > 0, "the partial prefix is discarded");
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn crash_after_flush_preserves_durable_records() {
        let sim = Sim::new();
        let wal = ServerWal::new(&sim, &spec());
        {
            let wal = wal.clone();
            let sim_c = sim.clone();
            sim.spawn(async move {
                let lsn = wal.append(rec(1));
                assert_eq!(wal.wait_durable(lsn).await, WaitOutcome::Durable);
                wal.crash(sim_c.now());
            });
        }
        sim.run();
        let plan = wal.recover();
        assert_eq!(plan.records, vec![rec(1)]);
        assert_eq!(plan.torn_bytes, 0);
    }

    struct FixedSource(CheckpointPayload);
    impl CheckpointSource for FixedSource {
        fn capture(&self) -> Option<CheckpointPayload> {
            Some(self.0.clone())
        }
    }

    #[test]
    fn checkpoint_truncates_log_and_bounds_replay() {
        let sim = Sim::new();
        let wal = ServerWal::new(
            &sim,
            &ClusterSpec {
                wal_checkpoint_every_bytes: 256,
                ..spec()
            },
        );
        wal.set_source(Rc::new(FixedSource(CheckpointPayload {
            pool_image: vec![0u8; 64],
            allocated: 64,
            tree_entries: vec![(1, 1)],
        })));
        {
            let wal = wal.clone();
            let sim_c = sim.clone();
            sim.spawn(async move {
                for i in 0..64u64 {
                    let lsn = wal.append(rec(i));
                    wal.wait_durable(lsn).await;
                    sim_c.sleep(SimDur::from_micros(2)).await;
                }
            });
        }
        sim.run();
        let st = wal.stats();
        assert!(st.checkpoints >= 1, "threshold must have fired");
        assert!(
            wal.log_bytes() < 64 * rec(0).encoded_len() as u64,
            "checkpoint must truncate the covered log prefix"
        );
        // A restart replays only the records after the last checkpoint.
        let plan = wal.recover();
        assert!(
            (plan.records.len() as u64) < 64,
            "replay is bounded by the checkpoint ({} records)",
            plan.records.len()
        );
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn seal_base_covers_prior_state_without_device_cost() {
        let sim = Sim::new();
        let wal = ServerWal::new(&sim, &spec());
        wal.set_source(Rc::new(FixedSource(CheckpointPayload {
            pool_image: vec![9u8; 128],
            allocated: 128,
            tree_entries: vec![(5, 50)],
        })));
        wal.seal_base();
        assert_eq!(wal.stats().device_flushes, 0);
        let plan = wal.recover();
        assert_eq!(plan.pool_image, vec![9u8; 128]);
        assert_eq!(plan.allocated, 128);
        assert_eq!(plan.tree_entries, vec![(5, 50)]);
    }

    #[test]
    fn waits_resolve_in_append_order() {
        let sim = Sim::new();
        let wal = ServerWal::new(&sim, &spec());
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let wal = wal.clone();
            let order = order.clone();
            sim.spawn(async move {
                let lsn = wal.append(rec(i));
                wal.wait_durable(lsn).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }
}
