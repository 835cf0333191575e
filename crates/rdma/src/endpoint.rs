//! Client-side verb API.
//!
//! An [`Endpoint`] is one compute thread's connection into the cluster
//! (conceptually its set of reliable-connection queue pairs). Verbs charge
//! simulated time through the target server's NIC link (and CPU pool for
//! RPCs) and apply their memory effects atomically at completion.
//!
//! If the endpoint's machine hosts the target memory server (co-location,
//! Appendix A.3), one-sided verbs take the local-memory path: no NIC
//! occupancy, local latency/bandwidth, counted separately.
//!
//! ## Completion status
//!
//! Every verb returns `Result<_, VerbError>`, mirroring real RDMA work
//! completions:
//!
//! * a verb issued by a killed client fails immediately with
//!   [`VerbError::Cancelled`] and has no remote effect — but a verb
//!   *already in flight* when its client dies completes normally (its
//!   remote effect applies; only the completion is never consumed),
//!   which is how a client can die between its lock CAS and its unlock
//!   FAA, orphaning a remote lock;
//! * a verb against a crashed memory server fails with
//!   [`VerbError::ServerUnreachable`] after a round-trip's detection
//!   delay (both at issue and, for crashes that land mid-flight, at
//!   completion — the effect is then *not* applied);
//! * a round — a one-sided verb, or one leg of an RPC — that is dropped
//!   or would complete past its send plus `VERB_TIMEOUT` (link
//!   degradation, NIC queueing) parks until then, fails with
//!   [`VerbError::Timeout`] and applies no effect. The deadline is
//!   computed analytically against the FIFO NIC model, so a refused verb
//!   does not occupy the wire and counts none of its bytes.
//!
//! ## One verb body
//!
//! READ, WRITE, CAS, FETCH_AND_ADD, ALLOC, a `read_many` batch and a
//! `write_fetch_add` pair share one path up to their effect
//! (`Endpoint::onesided`: the issue-time refusals, the verb count, one
//! round trip, the completion-time re-check), and every message onto
//! the wire — a one-sided verb's, a batch's, or either leg of an RPC —
//! crosses a port, or the local path, in one `Endpoint::round`. What stays per verb is its effect on the
//! pool, the event it reports, and its log record.

use simnet::{Sim, SimDur, SimTime};

use crate::wal::{ServerWal, WaitOutcome, WalRecord};

use crate::buf::PageBuf;
use crate::cluster::Cluster;
use crate::fault::VerbError;
use crate::observer::{RpcEvent, VerbEvent, VerbKind};
use crate::ptr::RemotePtr;
use crate::spec::{
    ATOMIC_WIRE_OVERHEAD, BATCHED_WIRE_OVERHEAD, OP_WIRE_OVERHEAD, RPC_CLIENT_PENALTY, RT_LATENCY,
    VERB_TIMEOUT,
};

/// What one message carries across a memory server's port.
#[derive(Clone, Copy)]
enum Msg {
    /// `n` bytes into the server: a WRITE, an RPC request, ALLOC's
    /// empty request.
    In(usize),
    /// `n` bytes out of the server: a READ, an RPC response.
    Out(usize),
    /// An atomic: an 8-byte operand in and the old word out, at the
    /// atomic per-message cost.
    Atomic,
    /// `n` bytes out of the server as one READ of a selectively
    /// signalled batch (§4.3), at the batched per-message cost.
    Batched(usize),
    /// `n` bytes into the server as a batch's WRITE, at the batched
    /// per-message cost.
    BatchedIn(usize),
}

impl Msg {
    /// (per-message cost, payload, bytes into the server, bytes out). A
    /// remote message holds its port for its cost plus its payload at
    /// the link's bandwidth.
    fn parts(self) -> (SimDur, usize, u64, u64) {
        match self {
            Msg::In(n) => (OP_WIRE_OVERHEAD, n, n as u64, 0),
            Msg::Out(n) => (OP_WIRE_OVERHEAD, n, 0, n as u64),
            Msg::Atomic => (ATOMIC_WIRE_OVERHEAD, 8, 8, 8),
            Msg::Batched(n) => (BATCHED_WIRE_OVERHEAD, n, 0, n as u64),
            Msg::BatchedIn(n) => (BATCHED_WIRE_OVERHEAD, n, n as u64, 0),
        }
    }
}

/// A single one-sided verb as `Endpoint::single` takes it (one small
/// value: an async fn keeps its arguments for its whole life).
#[derive(Clone, Copy)]
enum OneSided {
    /// READ of `len` bytes at a pointer; its target is prefetched at
    /// issue (DESIGN.md §17.2).
    Read(RemotePtr, usize),
    /// WRITE of `len` bytes at a pointer.
    Write(RemotePtr, usize),
    /// CAS or FETCH_AND_ADD on the word at a pointer.
    Atomic(RemotePtr),
    /// ALLOC on a server: a control message, not a one-sided op.
    Alloc(usize),
}

/// Whether request `i` of a READ batch starts on the byte where the
/// batch's previous request to its server ends: one READ carries both.
fn extends_run(reqs: &[(RemotePtr, usize)], i: usize) -> bool {
    let ptr = reqs[i].0;
    reqs[..i]
        .iter()
        .rfind(|(p, _)| p.server() == ptr.server())
        .is_some_and(|&(p, len)| p.offset() + len as u64 == ptr.offset())
}

/// What an RPC handler returns: the caller-visible value plus the costs
/// the simulator must charge.
pub struct RpcReply<R> {
    /// Value delivered to the caller.
    pub value: R,
    /// CPU service time the handler consumed (before any QPI factor).
    pub cpu: SimDur,
    /// Size of the response message in bytes.
    pub resp_bytes: usize,
}

/// A compute thread's connection into the cluster.
#[derive(Clone)]
pub struct Endpoint {
    cluster: Cluster,
    /// The physical machine this endpoint runs on; `None` = a dedicated
    /// compute machine (never local to any memory server).
    machine: Option<usize>,
    /// Stable client id (creation-ordered); clones share the id, as they
    /// represent the same logical compute thread.
    client: u64,
}

impl Endpoint {
    /// Endpoint on a dedicated compute machine.
    pub fn new(cluster: &Cluster) -> Self {
        Endpoint {
            cluster: cluster.clone(),
            machine: None,
            client: cluster.next_client_id(),
        }
    }

    /// Endpoint co-located on physical machine `machine` (Appendix A.3).
    pub fn colocated(cluster: &Cluster, machine: usize) -> Self {
        Endpoint {
            cluster: cluster.clone(),
            machine: Some(machine),
            client: cluster.next_client_id(),
        }
    }

    /// The cluster this endpoint talks to.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// This endpoint's stable client id.
    pub fn client_id(&self) -> u64 {
        self.client
    }

    fn sim(&self) -> &Sim {
        self.cluster.sim()
    }

    /// Whether accesses to server `s` take the local path.
    pub fn is_local(&self, s: usize) -> bool {
        self.machine == Some(self.cluster.spec().machine_of(s))
    }

    /// Report a completed verb to the cluster's observers. With none
    /// installed this is a flag check and nothing more.
    fn emit(
        &self,
        server: usize,
        offset: u64,
        len: usize,
        kind: VerbKind,
        issued: simnet::SimTime,
        queue_nanos: u64,
    ) {
        if !self.cluster.has_observers() {
            return;
        }
        self.cluster.observe(VerbEvent {
            server,
            offset,
            len,
            kind,
            issued,
            time: self.cluster.sim().now(),
            client: self.client,
            queue_nanos,
        });
    }

    // ------------------------------------------------- failure paths ----

    /// Refuse the verb at issue if this client has been killed.
    fn check_alive(&self) -> Result<(), VerbError> {
        if self.cluster.client_dead(self.client) {
            self.cluster.note_cancelled();
            return Err(VerbError::Cancelled);
        }
        Ok(())
    }

    /// Defensively decode `ptr` against this cluster.
    fn decode(&self, ptr: RemotePtr) -> Result<usize, VerbError> {
        ptr.checked_server(self.cluster.num_servers())
            .map_err(|e| VerbError::InvalidPointer { raw: e.raw })
    }

    /// Fail against a crashed server: detection costs one round trip
    /// (the NIC reports a retry-exhausted / receiver-not-ready error).
    async fn fail_unreachable(&self, s: usize) -> VerbError {
        self.cluster.note_unreachable();
        self.cluster.observe_unreachable(self.client, s);
        self.sim().sleep(RT_LATENCY).await;
        self.cluster.observe_verb_failed(self.client, s);
        VerbError::ServerUnreachable { server: s }
    }

    /// Park until the verb's deadline fires, then report the timeout.
    async fn fail_timeout(&self, s: usize, deadline: SimTime) -> VerbError {
        self.cluster.note_timeout();
        self.sim().sleep_until(deadline).await;
        self.cluster.observe_verb_failed(self.client, s);
        VerbError::Timeout { server: s }
    }

    /// Server `s`'s link as it is now: bandwidth in bytes per second and
    /// extra one-way delay, both after any degradation.
    fn link(&self, s: usize) -> (f64, SimDur) {
        let bw = self.cluster.spec().effective_bandwidth(s);
        match self.cluster.link_degrade(s) {
            Some(d) => (bw * d.bandwidth_factor, d.extra_delay),
            None => (bw, SimDur::ZERO),
        }
    }

    /// Carry one round of messages — a one-sided verb's, an RPC leg's or
    /// a READ batch's — to their servers, and return at its completion
    /// with each message's wait behind earlier NIC traffic in `queues`;
    /// no memory effect applies here. A co-located server takes the
    /// local path. Every remote message rolls its drop die before any
    /// wire time is reserved (FIFO reservations cannot be rolled back):
    /// one drop stalls the whole round, charged to the last dropped
    /// server. Each message queues behind its port's earlier traffic and
    /// this round's earlier messages to it, and the round is refused,
    /// charged to the slowest message, if its last arrival plus `latency`
    /// (the round trip for one-sided verbs, half of it per RPC leg)
    /// passes its deadline, `VERB_TIMEOUT` after it is sent. Only an
    /// admitted round counts bytes and occupies the wire.
    async fn round(
        &self,
        msgs: &[(usize, Msg)],
        queues: &mut [u64],
        latency: SimDur,
    ) -> Result<(), VerbError> {
        let sim = self.sim();
        let now = sim.now();
        let deadline = now + VERB_TIMEOUT;
        // The last drop, the last wire or local copy end, the last arrival
        // and whose it is, and whether any message leaves the machine.
        let (mut dropped, mut wired, mut arrival) = (None, now, now);
        let (mut slowest, mut remote) = (msgs[0].0, false);
        for (i, &(s, msg)) in msgs.iter().enumerate() {
            let (cost, payload, ..) = msg.parts();
            let (end, arrives) = if self.is_local(s) {
                queues[i] = 0;
                let end = now + self.cluster.spec().local_time(payload);
                (end, end)
            } else {
                remote = true;
                if self.cluster.roll_drop(s) {
                    dropped = Some(s);
                }
                let (bw, extra) = self.link(s);
                // Until admission, `queues` holds each remote message's
                // projected wire end.
                let start = match msgs[..i].iter().rposition(|&(t, _)| t == s) {
                    Some(j) => SimTime::from_nanos(queues[j]),
                    None => self.cluster.server(s).nic.busy_until().max(now),
                };
                let end = start + cost + SimDur::from_secs_f64(payload as f64 / bw);
                queues[i] = end.as_nanos();
                (end, end + extra)
            };
            wired = wired.max(end);
            if arrives > arrival {
                arrival = arrives;
                slowest = s;
            }
        }
        let completion = if remote { arrival + latency } else { arrival };
        if let Some(s) = dropped.or((completion > deadline).then_some(slowest)) {
            return Err(self.fail_timeout(s, deadline).await);
        }
        // Admitted. With no await since the projection, each message
        // starts at its port's `busy_until` after earlier reservations.
        for (&(s, msg), queue) in msgs.iter().zip(queues.iter_mut()) {
            let server = self.cluster.server(s);
            let (_, payload, into, out) = msg.parts();
            if self.is_local(s) {
                server.local_bytes.add(payload as u64);
            } else {
                server.bytes_in.add(into);
                server.bytes_out.add(out);
                let start = server.nic.busy_until().max(now);
                server.nic.reserve(now, SimTime::from_nanos(*queue) - start);
                *queue = (start - now).as_nanos();
            }
        }
        // Two timers, last wire end then completion, in one sleep: the
        // executor re-arms the first at the completion without polling
        // this task, drawing the sequence number a second sleep would. An
        // all-local round completes at its wire end. Read no argument
        // after the await: the future would keep a second copy of it.
        sim.sleep_until_then(wired, completion).await;
        Ok(())
    }

    /// Park until server `s`'s log `w` is durable through `lsn`. A crash
    /// while parked fails like any other unreachable-server completion —
    /// the effect may or may not survive recovery, and the caller must
    /// not treat it as acknowledged.
    async fn wait_durable(&self, s: usize, w: &ServerWal, lsn: u64) -> Result<(), VerbError> {
        match w.wait_durable(lsn).await {
            WaitOutcome::Durable => Ok(()),
            WaitOutcome::Crashed => Err(self.fail_unreachable(s).await),
        }
    }

    /// Make a just-applied mutation durable before it is acknowledged:
    /// append its WAL record on server `s` and park until the group-commit
    /// flush covering it lands. No-op (and no await) under
    /// `Durability::Off`. `rec` is a thunk so the default
    /// [`crate::spec::Durability::Off`] path never constructs (or
    /// heap-allocates) the record at all.
    async fn make_durable(
        &self,
        s: usize,
        rec: impl FnOnce() -> WalRecord,
    ) -> Result<(), VerbError> {
        let Some(w) = self.cluster.server_wal(s) else {
            return Ok(());
        };
        let lsn = w.append(rec());
        self.wait_durable(s, &w, lsn).await
    }

    /// Server `s`'s log position and crash epoch before a handler runs
    /// (`None` under `Durability::Off`), for [`Endpoint::ack_durable`].
    fn log_mark(&self, s: usize) -> Option<(u64, u64)> {
        self.cluster
            .server_wal(s)
            .map(|w| (w.appended_lsn(), w.epoch()))
    }

    /// WAL-before-ack for a handler that ran after `mark` on server `s`:
    /// park until everything logged since is durable (group commit
    /// coalesces concurrent handlers' records into shared flushes). A
    /// crash since `mark` fails the call: its records died with the RAM.
    async fn ack_durable(&self, s: usize, mark: Option<(u64, u64)>) -> Result<(), VerbError> {
        let Some((pre_lsn, pre_epoch)) = mark else {
            return Ok(());
        };
        let w = self
            .cluster
            .server_wal(s)
            .expect("wal is fixed per cluster");
        if w.epoch() != pre_epoch {
            return Err(self.fail_unreachable(s).await);
        }
        let post = w.appended_lsn();
        if post > pre_lsn {
            self.wait_durable(s, &w, post).await?;
        }
        Ok(())
    }

    // ------------------------------------------------- one-sided verbs ----

    /// The first of `msgs`' servers that is down, if any.
    fn down(&self, msgs: &[(usize, Msg)]) -> Option<usize> {
        msgs.iter()
            .map(|&(s, _)| s)
            .find(|&s| !self.cluster.server_up(s))
    }

    /// Everything one-sided verbs do between decoding their targets and
    /// applying their effects: refuse at issue if a server is down, count
    /// the verbs (unless `ops` is false: ALLOC is no one-sided op), carry
    /// their messages through one round, and re-check every server at
    /// completion. A single verb passes one message, a READ batch one per
    /// request; `queues` receives each message's NIC queue wait.
    async fn onesided(
        &self,
        msgs: &[(usize, Msg)],
        queues: &mut [u64],
        ops: bool,
    ) -> Result<(), VerbError> {
        if let Some(s) = self.down(msgs) {
            return Err(self.fail_unreachable(s).await);
        }
        if ops {
            for &(s, _) in msgs {
                self.cluster.server(s).onesided_ops.inc();
            }
        }
        self.round(msgs, queues, RT_LATENCY).await?;
        if let Some(s) = self.down(msgs) {
            return Err(self.fail_unreachable(s).await);
        }
        Ok(())
    }

    /// Everything a single one-sided verb does before its effect: refuse
    /// at issue (`Cancelled`, then `InvalidPointer`), then the shared
    /// [`Endpoint::onesided`] path for its one message. Returns the
    /// server, the issue instant and the NIC queue wait; the caller
    /// applies the effect, reports it and logs it.
    async fn single(&self, verb: OneSided) -> Result<(usize, SimTime, u64), VerbError> {
        let issued = self.sim().now();
        self.check_alive()?;
        let (s, msg) = match verb {
            OneSided::Read(ptr, len) => (self.decode(ptr)?, Msg::Out(len)),
            OneSided::Write(ptr, len) => (self.decode(ptr)?, Msg::In(len)),
            OneSided::Atomic(ptr) => (self.decode(ptr)?, Msg::Atomic),
            OneSided::Alloc(s) => (s, Msg::In(0)),
        };
        if let OneSided::Read(ptr, len) = verb {
            // Host-side only: the copy at completion runs many events
            // from now.
            self.cluster.server(s).pool.borrow().hint(ptr.offset(), len);
        }
        let mut queue = [0];
        let ops = !matches!(verb, OneSided::Alloc(_));
        self.onesided(&[(s, msg)], &mut queue, ops).await?;
        Ok((s, issued, queue[0]))
    }

    /// READ's effect at completion: the `len` bytes at `ptr` as they are
    /// *now*, in a recycled buffer from the cluster's arena.
    fn copy_out(&self, ptr: RemotePtr, len: usize) -> PageBuf {
        let mut buf = self.cluster.arena().checkout(len);
        let pool = &self.cluster.server(ptr.server()).pool;
        pool.borrow().copy_out(ptr.offset(), &mut buf);
        buf
    }

    /// One-sided `RDMA_READ` of `len` bytes.
    ///
    /// The payload arrives in a recycled [`PageBuf`] from the cluster's
    /// arena — steady-state descents re-use the same buffers instead of
    /// allocating per verb.
    pub async fn read(&self, ptr: RemotePtr, len: usize) -> Result<PageBuf, VerbError> {
        let (s, issued, queue) = self.single(OneSided::Read(ptr, len)).await?;
        let buf = self.copy_out(ptr, len);
        self.emit(s, ptr.offset(), len, VerbKind::Read, issued, queue);
        Ok(buf)
    }

    /// Fan out one-sided READs (selectively signalled, §4.3) as one
    /// round: all wires are reserved at once and the caller waits for the
    /// last completion, so transfers to different servers overlap. One
    /// READ carries each server run (DESIGN.md §10); each request is still
    /// copied and reported on its own. A batch of one is the single READ
    /// it is, priced as one, and a larger batch is never one message: it
    /// keeps one per request then, since a single READ costs more. An
    /// empty batch is no verb at all: nothing is counted, rolled or awaited.
    pub async fn read_many(&self, reqs: &[(RemotePtr, usize)]) -> Result<Vec<PageBuf>, VerbError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let issued = self.sim().now();
        self.check_alive()?;
        let n = reqs.len();
        let mut several = false;
        for (i, &(ptr, _)) in reqs.iter().enumerate() {
            self.decode(ptr)?;
            several |= i > 0 && !extends_run(reqs, i);
        }
        let msg = if n == 1 { Msg::Out } else { Msg::Batched };
        // Each message's queue wait, then the message each request rides in.
        let (mut msgs, mut queues) = (Vec::<(usize, Msg)>::with_capacity(n), vec![0; 2 * n]);
        for (i, &(ptr, len)) in reqs.iter().enumerate() {
            let run = msgs.iter().rposition(|&(s, _)| s == ptr.server());
            queues[n + i] = match run.filter(|_| several && extends_run(reqs, i)) {
                Some(j) => {
                    msgs[j].1 = Msg::Batched(msgs[j].1.parts().1 + len);
                    j
                }
                None => {
                    msgs.push((ptr.server(), msg(len)));
                    msgs.len() - 1
                }
            } as u64;
        }
        self.onesided(&msgs, &mut queues[..n], true).await?;
        let bufs: Vec<_> = reqs
            .iter()
            .map(|&(ptr, len)| self.copy_out(ptr, len))
            .collect();
        let (waits, rides) = queues.split_at(reqs.len());
        for (&(ptr, len), &j) in reqs.iter().zip(rides) {
            self.emit(
                ptr.server(),
                ptr.offset(),
                len,
                VerbKind::Read,
                issued,
                waits[j as usize],
            );
        }
        Ok(bufs)
    }

    /// One-sided `RDMA_WRITE` of `data`.
    pub async fn write(&self, ptr: RemotePtr, data: &[u8]) -> Result<(), VerbError> {
        let (s, issued, queue) = self.single(OneSided::Write(ptr, data.len())).await?;
        let pool = &self.cluster.server(s).pool;
        pool.borrow_mut().copy_in(ptr.offset(), data);
        // Observers (checker, telemetry) see the effect when it
        // applies — before the durability wait, during which concurrent
        // verbs can already read the new bytes.
        self.emit(s, ptr.offset(), data.len(), VerbKind::Write, issued, queue);
        self.make_durable(s, || WalRecord::PoolWrite {
            offset: ptr.offset(),
            data: data.to_vec(),
        })
        .await
    }

    /// One-sided `RDMA_CAS` on an 8-byte word. Returns the previous
    /// value; the swap happened iff it equals `expected`.
    pub async fn cas(&self, ptr: RemotePtr, expected: u64, new: u64) -> Result<u64, VerbError> {
        let (s, issued, queue) = self.single(OneSided::Atomic(ptr)).await?;
        let pool = &self.cluster.server(s).pool;
        let prev = pool.borrow_mut().cas(ptr.offset(), expected, new);
        // Observed at apply time (see `write`): a racing CAS can fail
        // against the new word while this one still awaits its flush.
        self.emit(
            s,
            ptr.offset(),
            8,
            VerbKind::Cas {
                expected,
                new,
                prev,
            },
            issued,
            queue,
        );
        if prev == expected {
            // Only a successful swap mutates state; log its post-word.
            // `PoolWriteWord` keeps the 8-byte payload on the stack.
            self.make_durable(s, || WalRecord::PoolWriteWord {
                offset: ptr.offset(),
                word: new,
            })
            .await?;
            // Fault-injection hook: a client armed with kill-on-lock-acquire
            // dies the instant its acquire CAS lands — after the remote
            // effect, before any later verb — orphaning the lock it just
            // won.
            self.cluster
                .maybe_fire_lock_kill(self.client, expected, new);
        }
        Ok(prev)
    }

    /// One-sided `RDMA_FETCH_AND_ADD` on an 8-byte word; returns the
    /// previous value.
    pub async fn fetch_add(&self, ptr: RemotePtr, add: u64) -> Result<u64, VerbError> {
        let (s, issued, queue) = self.single(OneSided::Atomic(ptr)).await?;
        let pool = &self.cluster.server(s).pool;
        let prev = pool.borrow_mut().fetch_add(ptr.offset(), add);
        self.emit(
            s,
            ptr.offset(),
            8,
            VerbKind::Faa { add, prev },
            issued,
            queue,
        );
        self.make_durable(s, || WalRecord::PoolWriteWord {
            offset: ptr.offset(),
            word: prev.wrapping_add(add),
        })
        .await?;
        Ok(prev)
    }

    /// A WRITE of `data` at `ptr`, then a FETCH_AND_ADD of `add` on the
    /// word at `ptr`, posted together on one queue pair (§4.3), which
    /// runs them in order: one round, the WRITE at the batched cost and
    /// the FAA behind it at the atomic one, one round trip and deadline.
    /// Both effects apply at completion, WRITE first, or neither does.
    /// Returns the FAA's previous word.
    pub async fn write_fetch_add(
        &self,
        ptr: RemotePtr,
        data: &[u8],
        add: u64,
    ) -> Result<u64, VerbError> {
        let issued = self.sim().now();
        self.check_alive()?;
        let (s, off) = (self.decode(ptr)?, ptr.offset());
        let msgs = [(s, Msg::BatchedIn(data.len())), (s, Msg::Atomic)];
        let mut queues = [0; 2];
        self.onesided(&msgs, &mut queues, true).await?;
        let pool = &self.cluster.server(s).pool;
        pool.borrow_mut().copy_in(off, data);
        self.emit(s, off, data.len(), VerbKind::Write, issued, queues[0]);
        let prev = pool.borrow_mut().fetch_add(off, add);
        self.emit(s, off, 8, VerbKind::Faa { add, prev }, issued, queues[1]);
        // Both records, one wait: the later LSN covers the earlier.
        if let Some(w) = self.cluster.server_wal(s) {
            let data = data.to_vec();
            w.append(WalRecord::PoolWrite { offset: off, data });
            let word = prev.wrapping_add(add);
            let lsn = w.append(WalRecord::PoolWriteWord { offset: off, word });
            self.wait_durable(s, &w, lsn).await?;
        }
        Ok(prev)
    }

    /// `RDMA_ALLOC` (Listing 4): reserve `size` bytes on server `s`.
    /// Costs one round trip (a tiny control message on the wire), and
    /// fails like every other verb: drop and deadline refusals, link
    /// degradation, and a crash that lands mid-flight all void the
    /// reservation — the allocation effect applies only at completion.
    pub async fn alloc(&self, s: usize, size: u64) -> Result<RemotePtr, VerbError> {
        let (s, issued, queue) = self.single(OneSided::Alloc(s)).await?;
        // Effect at completion: the bump reservation happens only once
        // the request has survived the wire and the server is still up.
        let ptr = self.cluster.setup_alloc(s, size);
        let watermark = self.cluster.server(s).pool.borrow().allocated();
        self.emit(
            s,
            ptr.offset(),
            size as usize,
            VerbKind::Alloc,
            issued,
            queue,
        );
        self.make_durable(s, || WalRecord::PoolAllocTo { next: watermark })
            .await?;
        Ok(ptr)
    }

    /// Co-located fast path (Appendix A.3), the in-place twin of
    /// [`Endpoint::rpc`]: the compute thread runs `handler` against a
    /// local memory server directly and pays the handler-reported CPU
    /// time on its own core plus the local-path transfer of the response
    /// — no NIC, no handler core. Like an RPC, the handler runs only
    /// after the client and the server are known to be alive, so a
    /// refused call has no server-side effect, and the call returns only
    /// once the records the handler logged are durable. Panics if the
    /// server is not local to this endpoint.
    pub async fn local_call<R>(
        &self,
        s: usize,
        handler: impl FnOnce() -> RpcReply<R>,
    ) -> Result<R, VerbError> {
        assert!(self.is_local(s), "local_call on a remote server");
        self.check_alive()?;
        if !self.cluster.server_up(s) {
            return Err(self.fail_unreachable(s).await);
        }
        let mark = self.log_mark(s);
        let reply = handler();
        self.cluster
            .server(s)
            .local_bytes
            .add(reply.resp_bytes as u64);
        let transfer = self.cluster.spec().local_time(reply.resp_bytes);
        self.sim().sleep(reply.cpu + transfer).await;
        self.ack_durable(s, mark).await?;
        Ok(reply.value)
    }

    // ------------------------------------------------- two-sided RPC ----

    /// Two-sided RPC (SEND/RECV over a reliable connection, served from a
    /// shared receive queue): ships `req_bytes`, queues for a handler
    /// core, runs `handler` at grant time, holds the core for the
    /// handler-reported CPU time (scaled by the server's QPI factor), and
    /// ships the handler-reported response.
    ///
    /// Each leg has its own deadline from its send; between them only a
    /// crash fails the call, restarted from or not. Failure semantics are
    /// at-least-once: once the request leg lands, the handler runs (and
    /// its server-side effects stick) even if the response is lost to a
    /// crash or deadline — the caller then sees an error and cannot tell
    /// whether the handler executed.
    pub async fn rpc<R>(
        &self,
        s: usize,
        req_bytes: usize,
        handler: impl FnOnce() -> RpcReply<R>,
    ) -> Result<R, VerbError> {
        let sim = self.sim();
        let issued = sim.now();
        self.check_alive()?;
        if !self.cluster.server_up(s) {
            return Err(self.fail_unreachable(s).await);
        }
        let spec = self.cluster.spec();
        let server = self.cluster.server(s);
        server.rpcs.inc();
        let half = RT_LATENCY / 2;
        // Time spent queued (NIC FIFO on both legs + waiting for a
        // handler core) and executing on the handler core, for the
        // completion event.
        let mut queue = [0];
        self.round(&[(s, Msg::In(req_bytes))], &mut queue, half)
            .await?;
        let mut queue_nanos = queue[0];
        let Some(landed) = self.cluster.incarnation(s) else {
            return Err(self.fail_unreachable(s).await);
        };

        // Handler: queue for a core, run, hold the core for the work done.
        // RC connection state adds per-client pressure (see
        // `RPC_CLIENT_PENALTY`).
        let cpu_wait_from = sim.now();
        let grant = server.cpu.acquire(sim).await;
        queue_nanos += (sim.now() - cpu_wait_from).as_nanos();
        if self.cluster.incarnation(s) != Some(landed) {
            // The server crashed while the request sat in its queue.
            grant.complete(sim, SimDur::ZERO).await;
            return Err(self.fail_unreachable(s).await);
        }
        let mark = self.log_mark(s);
        let reply = handler();
        let state_penalty = RPC_CLIENT_PENALTY * self.cluster.active_clients() as u64;
        let service =
            SimDur::from_secs_f64((reply.cpu + state_penalty).as_secs_f64() * spec.cpu_factor(s));
        grant.complete(sim, service).await;
        let server_nanos = service.as_nanos();
        if self.cluster.incarnation(s) != Some(landed) {
            return Err(self.fail_unreachable(s).await);
        }
        // The response leg releases only once the handler's records are
        // durable.
        self.ack_durable(s, mark).await?;

        let resp = Msg::Out(reply.resp_bytes);
        self.round(&[(s, resp)], &mut queue, half).await?;
        queue_nanos += queue[0];
        if self.cluster.has_observers() {
            self.cluster.observe_rpc(RpcEvent {
                client: self.client,
                server: s,
                issued,
                time: sim.now(),
                queue_nanos,
                server_nanos,
            });
        }
        Ok(reply.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultStats, LinkDegrade};
    use crate::spec::{ClusterSpec, NIC_BANDWIDTH};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Every completed verb, in completion order.
    struct Events(RefCell<Vec<VerbEvent>>);

    impl crate::observer::VerbObserver for Events {
        fn on_verb(&self, e: &VerbEvent) {
            self.0.borrow_mut().push(*e);
        }
    }

    fn harness() -> (Sim, Cluster) {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        (sim, cluster)
    }

    #[test]
    fn read_returns_written_bytes_and_costs_time() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 64);
        cluster.setup_write(ptr, &[42; 64]);
        let ep = Endpoint::new(&cluster);
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        let s = sim.clone();
        sim.spawn(async move {
            let data = ep.read(ptr, 64).await.unwrap();
            assert_eq!(data, vec![42; 64]);
            d.set(s.now().as_nanos());
        });
        sim.run();
        // At least the round-trip latency passed.
        assert!(done.get() >= 2_500, "took {}ns", done.get());
        assert_eq!(cluster.server_stats(0).bytes_out, 64);
        assert_eq!(cluster.server_stats(0).onesided_ops, 1);
    }

    #[test]
    fn write_then_read() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(1, 16);
        let ep = Endpoint::new(&cluster);
        sim.spawn({
            let ep = ep.clone();
            async move {
                ep.write(ptr, &[7; 16]).await.unwrap();
                let data = ep.read(ptr, 16).await.unwrap();
                assert_eq!(data, vec![7; 16]);
            }
        });
        sim.run();
        let stats = cluster.server_stats(1);
        assert_eq!(stats.bytes_in, 16);
        assert_eq!(stats.bytes_out, 16);
    }

    #[test]
    fn cas_success_and_failure_race() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 8);
        // Two clients CAS 0 -> themselves; exactly one must win.
        let wins = Rc::new(Cell::new(0u32));
        for id in 1..=2u64 {
            let ep = Endpoint::new(&cluster);
            let w = wins.clone();
            sim.spawn(async move {
                let old = ep.cas(ptr, 0, id).await.unwrap();
                if old == 0 {
                    w.set(w.get() + 1);
                }
            });
        }
        sim.run();
        assert_eq!(wins.get(), 1, "exactly one CAS winner");
    }

    #[test]
    fn fetch_add_accumulates() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 8);
        for _ in 0..10 {
            let ep = Endpoint::new(&cluster);
            sim.spawn(async move {
                ep.fetch_add(ptr, 2).await.unwrap();
            });
        }
        sim.run();
        assert_eq!(cluster.setup_read(ptr, 8), 20u64.to_le_bytes().to_vec());
    }

    #[test]
    fn rpc_runs_handler_and_charges_cpu() {
        let (sim, cluster) = harness();
        let ep = Endpoint::new(&cluster);
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        sim.spawn(async move {
            let v = ep
                .rpc(0, 32, || RpcReply {
                    value: 99u64,
                    cpu: SimDur::from_micros(5),
                    resp_bytes: 128,
                })
                .await
                .unwrap();
            g.set(v);
        });
        let end = sim.run();
        assert_eq!(got.get(), 99);
        let stats = cluster.server_stats(0);
        assert_eq!(stats.rpcs, 1);
        assert_eq!(stats.bytes_in, 32);
        assert_eq!(stats.bytes_out, 128);
        assert_eq!(stats.cpu_busy_nanos, 5_000);
        assert!(end.as_nanos() >= 5_000 + 2_500);
    }

    #[test]
    fn rpc_cpu_saturates_with_cores() {
        let (sim, cluster) = harness();
        // 30 concurrent RPCs of 10us on a 10-core server: three waves.
        let last = Rc::new(Cell::new(0u64));
        for _ in 0..30 {
            let ep = Endpoint::new(&cluster);
            let l = last.clone();
            let s = sim.clone();
            sim.spawn(async move {
                ep.rpc(0, 16, || RpcReply {
                    value: (),
                    cpu: SimDur::from_micros(10),
                    resp_bytes: 16,
                })
                .await
                .unwrap();
                l.set(l.get().max(s.now().as_micros()));
            });
        }
        sim.run();
        assert!(last.get() >= 30, "three service waves of 10us each");
    }

    #[test]
    fn qpi_server_slower() {
        let (sim, cluster) = harness();
        let p0 = cluster.setup_alloc(0, 1024);
        let p1 = cluster.setup_alloc(1, 1024); // server 1 crosses QPI
        let t0 = Rc::new(Cell::new(0u64));
        let t1 = Rc::new(Cell::new(0u64));
        for (ptr, cell) in [(p0, t0.clone()), (p1, t1.clone())] {
            let ep = Endpoint::new(&cluster);
            let s = sim.clone();
            sim.spawn(async move {
                let begin = s.now();
                // Many large reads so wire time dominates latency.
                for _ in 0..100 {
                    ep.read(ptr, 1024).await.unwrap();
                }
                cell.set((s.now() - begin).as_nanos());
            });
        }
        sim.run();
        assert!(t1.get() > t0.get(), "QPI-crossing server must be slower");
    }

    #[test]
    fn read_many_overlaps_servers() {
        let (sim, cluster) = harness();
        let ptrs: Vec<_> = (0..4)
            .map(|s| (cluster.setup_alloc(s, 1024), 1024usize))
            .collect();
        let seq = Rc::new(Cell::new(0u64));
        let par = Rc::new(Cell::new(0u64));
        {
            let ep = Endpoint::new(&cluster);
            let ptrs = ptrs.clone();
            let par = par.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let begin = s.now();
                let bufs = ep.read_many(&ptrs).await.unwrap();
                assert_eq!(bufs.len(), 4);
                par.set((s.now() - begin).as_nanos());
            });
        }
        sim.run();
        {
            let sim2 = Sim::new();
            let cluster2 = Cluster::new(&sim2, ClusterSpec::default());
            let ptrs2: Vec<_> = (0..4)
                .map(|s| (cluster2.setup_alloc(s, 1024), 1024usize))
                .collect();
            let ep = Endpoint::new(&cluster2);
            let seq = seq.clone();
            let s = sim2.clone();
            sim2.spawn(async move {
                let begin = s.now();
                for &(p, l) in &ptrs2 {
                    ep.read(p, l).await.unwrap();
                }
                seq.set((s.now() - begin).as_nanos());
            });
            sim2.run();
        }
        assert!(
            par.get() < seq.get(),
            "fanned-out reads ({}) must beat sequential ({})",
            par.get(),
            seq.get()
        );
    }

    #[test]
    fn local_call_counts_bytes_and_time() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ep = Endpoint::colocated(&cluster, 0);
        let s = sim.clone();
        sim.spawn(async move {
            let reply = || RpcReply {
                value: 9u8,
                cpu: SimDur::from_micros(7),
                resp_bytes: 64,
            };
            assert_eq!(ep.local_call(0, reply).await, Ok(9));
            assert!(s.now().as_nanos() >= 7_000);
        });
        sim.run();
        let stats = cluster.server_stats(0);
        assert_eq!(stats.local_bytes, 64);
        assert_eq!(stats.cpu_busy_nanos, 0, "local work uses compute cores");
        assert_eq!(stats.nic_busy_nanos, 0);
    }

    #[test]
    #[should_panic(expected = "local_call on a remote server")]
    fn local_call_rejects_remote() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let reply = || RpcReply {
                value: (),
                cpu: SimDur::ZERO,
                resp_bytes: 0,
            };
            ep.local_call(0, reply).await.unwrap();
        });
        sim.run();
    }

    #[test]
    fn rpc_client_state_penalty_applies() {
        let run = |clients: usize| {
            let sim = Sim::new();
            let cluster = Cluster::new(&sim, ClusterSpec::default());
            cluster.set_active_clients(clients);
            let ep = Endpoint::new(&cluster);
            sim.spawn(async move {
                ep.rpc(0, 16, || RpcReply {
                    value: (),
                    cpu: SimDur::from_micros(5),
                    resp_bytes: 16,
                })
                .await
                .unwrap();
            });
            sim.run();
            cluster.server_stats(0).cpu_busy_nanos
        };
        let lone = run(1);
        let crowded = run(240);
        assert!(
            crowded > lone + 2_000,
            "240 clients must add RC state pressure: {lone} vs {crowded}"
        );
    }

    /// Each RPC leg is one round with its own deadline, from its own
    /// send; the wait for a handler core and the handler's run have
    /// none. A leg's completion from `from` on idle, undegraded server
    /// 0: its port time plus half a round trip.
    fn rpc_leg(from: SimTime, bytes: usize) -> SimTime {
        from + OP_WIRE_OVERHEAD
            + SimDur::from_secs_f64(bytes as f64 / NIC_BANDWIDTH)
            + RT_LATENCY / 2
    }

    /// (a) A handler that runs three deadlines long still answers: the
    /// call returns at request leg + handler + response leg.
    #[test]
    fn rpc_handler_longer_than_the_verb_timeout_is_served() {
        let (sim, cluster) = harness();
        let cpu = SimDur::from_millis(3);
        assert!(cpu > VERB_TIMEOUT);
        let done = rpc_leg(rpc_leg(SimTime::ZERO, 32) + cpu, 128);
        let ep = Endpoint::new(&cluster);
        let outcome = Rc::new(Cell::new(None));
        let (out, s) = (outcome.clone(), sim.clone());
        sim.spawn(async move {
            let reply = || RpcReply {
                value: 5u8,
                cpu,
                resp_bytes: 128,
            };
            out.set(Some((ep.rpc(0, 32, reply).await, s.now())));
        });
        sim.run();
        assert_eq!(outcome.get(), Some((Ok(5), done)));
        assert_eq!(cluster.fault_stats().verbs_timed_out, 0);
    }

    /// (b) The 11th of 11 concurrent 1.5 ms RPCs on a 10-core server
    /// queues for the first core to free up, past its issue plus
    /// `VERB_TIMEOUT`, and is still served: a busy server queues.
    #[test]
    fn rpc_queued_for_a_core_past_the_verb_timeout_is_served() {
        let (sim, cluster) = harness();
        let cores = cluster.spec().rpc_cores_per_server;
        let cpu = SimDur::from_micros(1_500);
        // The requests cross port 0 one behind another; the last waits
        // for the core the first holds.
        let first = rpc_leg(SimTime::ZERO, 16);
        let wire = first - SimTime::ZERO - RT_LATENCY / 2;
        let last = first + wire * cores as u64;
        let granted = first + cpu;
        assert!(
            granted - last > VERB_TIMEOUT,
            "waits longer than a deadline"
        );
        let done = rpc_leg(granted + cpu, 16);
        let outcomes = Rc::new(RefCell::new(vec![]));
        for i in 0..=cores {
            let ep = Endpoint::new(&cluster);
            let (out, s) = (outcomes.clone(), sim.clone());
            sim.spawn(async move {
                let reply = || RpcReply {
                    value: i,
                    cpu,
                    resp_bytes: 16,
                };
                let r = ep.rpc(0, 16, reply).await;
                out.borrow_mut().push((r, s.now()));
            });
        }
        sim.run();
        let outcomes = outcomes.borrow();
        assert_eq!(outcomes.len(), cores + 1);
        assert!(outcomes.iter().all(|(r, _)| r.is_ok()), "{outcomes:?}");
        assert_eq!(outcomes.last(), Some(&(Ok(cores), done)));
        assert_eq!(cluster.fault_stats().verbs_timed_out, 0);
    }

    /// (c) A link that degrades past `VERB_TIMEOUT` while the handler
    /// runs refuses the response leg: the call fails with `Timeout` one
    /// `VERB_TIMEOUT` after the response's send, the handler's work
    /// stands (at-least-once), and the response never reaches the wire.
    #[test]
    fn rpc_response_leg_times_out_from_its_own_send() {
        let (sim, cluster) = harness();
        let cpu = SimDur::from_micros(100);
        let sent = rpc_leg(SimTime::ZERO, 16) + cpu;
        let ep = Endpoint::new(&cluster);
        let outcome = Rc::new(Cell::new(None));
        let (out, s) = (outcome.clone(), sim.clone());
        sim.spawn(async move {
            let reply = || RpcReply {
                value: (),
                cpu,
                resp_bytes: 16,
            };
            out.set(Some((ep.rpc(0, 16, reply).await, s.now())));
        });
        let (c, s) = (cluster.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(cpu / 2).await;
            let extra_delay = VERB_TIMEOUT + SimDur::from_micros(1);
            c.degrade_link(
                0,
                LinkDegrade {
                    extra_delay,
                    ..LinkDegrade::default()
                },
            );
        });
        sim.run();
        let timeout = Err(VerbError::Timeout { server: 0 });
        assert_eq!(outcome.get(), Some((timeout, sent + VERB_TIMEOUT)));
        let stats = cluster.server_stats(0);
        assert_eq!(
            (stats.bytes_in, stats.bytes_out, stats.cpu_busy_nanos),
            (16, 0, cpu.as_nanos())
        );
        assert_eq!(cluster.fault_stats().verbs_timed_out, 1);
    }

    /// A crash and an instant restart (`Durability::Off`) while ten
    /// handlers hold every core: the eleventh request, queued behind
    /// them, is granted a core by the new incarnation and refused
    /// unserved, and the ten fail too, since their responses died with
    /// the old one.
    #[test]
    fn rpc_granted_a_core_after_a_restart_is_refused() {
        let (sim, cluster) = harness();
        let cores = cluster.spec().rpc_cores_per_server;
        let cpu = SimDur::from_micros(100);
        let served = Rc::new(Cell::new(0));
        let outcomes = Rc::new(RefCell::new(vec![]));
        for _ in 0..=cores {
            let ep = Endpoint::new(&cluster);
            let (out, served) = (outcomes.clone(), served.clone());
            sim.spawn(async move {
                let reply = || {
                    served.set(served.get() + 1);
                    RpcReply {
                        value: (),
                        cpu,
                        resp_bytes: 16,
                    }
                };
                let r = ep.rpc(0, 16, reply).await;
                out.borrow_mut().push(r);
            });
        }
        let (c, s) = (cluster.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(cpu / 2).await;
            c.fail_server(0);
            c.restart_server(0);
            assert!(c.server_up(0));
        });
        sim.run();
        let unreachable = Err(VerbError::ServerUnreachable { server: 0 });
        assert_eq!(*outcomes.borrow(), vec![unreachable; cores + 1]);
        assert_eq!(served.get(), cores, "the eleventh handler never ran");
        let stats = cluster.server_stats(0);
        assert_eq!(
            (stats.bytes_out, stats.cpu_busy_nanos),
            (0, cores as u64 * cpu.as_nanos())
        );
        assert_eq!(cluster.incarnation(0), Some(1));
    }

    #[test]
    fn read_holds_port_for_overhead_plus_bytes() {
        let (sim, cluster) = harness();
        let len = 1 << 20;
        let ptr = cluster.setup_alloc(0, len as u64);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            ep.read(ptr, len).await.unwrap();
        });
        sim.run();
        let expect = OP_WIRE_OVERHEAD + SimDur::from_secs_f64(len as f64 / NIC_BANDWIDTH);
        let busy = cluster.server_stats(0).nic_busy_nanos;
        assert_eq!(busy, expect.as_nanos());
        // 1 MiB at 6.8 GB/s ≈ 154 µs.
        assert!(busy > 100_000 && busy < 300_000);
    }

    #[test]
    fn batched_reads_cheaper_per_message() {
        const PAGE: usize = 1024;
        let (sim, cluster) = harness();
        // Servers 0 and 2 are the first of their machines: no QPI hop.
        let pages = |s| -> Vec<_> {
            (0..8)
                .map(|_| (cluster.setup_alloc(s, PAGE as u64), PAGE))
                .collect()
        };
        let (batch, singles) = (pages(0), pages(2));
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            ep.read_many(&batch).await.unwrap();
            for &(ptr, len) in &singles {
                ep.read(ptr, len).await.unwrap();
            }
        });
        sim.run();
        let page_time = SimDur::from_secs_f64(PAGE as f64 / NIC_BANDWIDTH);
        let batched = cluster.server_stats(0).nic_busy_nanos;
        assert_eq!(batched, 8 * (BATCHED_WIRE_OVERHEAD + page_time).as_nanos());
        assert!(batched < cluster.server_stats(2).nic_busy_nanos);
    }

    /// A READ batch posts one message per server run: a request that
    /// starts where the batch's previous request to its server ends
    /// rides in that request's message, which holds the port for one
    /// batched cost plus the run's bytes. Gaps and other servers start
    /// new messages, a batch that would make one message keeps one per
    /// request, and every request is still reported once, with its own
    /// bytes.
    #[test]
    fn read_batches_post_one_message_per_server_run() {
        const PAGE: usize = 1024;
        let wire = |pages: usize| {
            (BATCHED_WIRE_OVERHEAD + SimDur::from_secs_f64((pages * PAGE) as f64 / NIC_BANDWIDTH))
                .as_nanos()
        };
        // Servers 0 and 2 are the first of their machines: no QPI hop.
        // (pages to allocate as (server, bytes), the batch as indexes
        // into them, per server 0 and 2 the messages and port time)
        type Case<'a> = (&'a [(usize, usize)], &'a [usize], [(u64, u64); 2]);
        let cases: [Case; 5] = [
            // two abutting pages on 0, out of order with one on 2
            (
                &[(0, PAGE), (0, PAGE), (2, PAGE)],
                &[0, 2, 1],
                [(1, wire(2)), (1, wire(1))],
            ),
            // a gap on 0 splits the run
            (
                &[(0, PAGE), (0, 8), (0, PAGE), (2, PAGE)],
                &[0, 2, 3],
                [(2, 2 * wire(1)), (1, wire(1))],
            ),
            // a run starts with its lowest page
            (
                &[(0, PAGE), (0, PAGE), (2, PAGE)],
                &[1, 0, 2],
                [(2, 2 * wire(1)), (1, wire(1))],
            ),
            // server 2's page starts at the byte where 0's ends
            (
                &[(0, PAGE), (2, PAGE), (2, PAGE)],
                &[0, 2],
                [(1, wire(1)), (1, wire(1))],
            ),
            // one message would be a single READ: priced as before
            (&[(0, PAGE), (0, PAGE)], &[0, 1], [(2, 2 * wire(1)), (0, 0)]),
        ];
        for (pages, batch, want) in cases {
            let (sim, cluster) = harness();
            let ptrs: Vec<_> = pages
                .iter()
                .enumerate()
                .map(|(i, &(s, len))| {
                    let ptr = cluster.setup_alloc(s, len as u64);
                    cluster.setup_write(ptr, &vec![i as u8 + 1; len]);
                    (ptr, len)
                })
                .collect();
            let reqs: Vec<_> = batch.iter().map(|&i| ptrs[i]).collect();
            let seen = Rc::new(Events(RefCell::new(vec![])));
            cluster.add_observer(seen.clone());
            let ep = Endpoint::new(&cluster);
            let (batch_reqs, fills) = (reqs.clone(), batch.iter().map(|&i| i as u8 + 1));
            let fills: Vec<_> = fills.collect();
            sim.spawn(async move {
                let bufs = ep.read_many(&batch_reqs).await.unwrap();
                for ((&(_, len), buf), fill) in batch_reqs.iter().zip(bufs).zip(fills) {
                    assert_eq!(&buf[..], &vec![fill; len][..]);
                }
            });
            sim.run();
            let got = [0, 2].map(|s| {
                let st = cluster.server_stats(s);
                (st.onesided_ops, st.nic_busy_nanos)
            });
            assert_eq!(got, want, "{batch:?}");
            let reported: Vec<_> = seen
                .0
                .borrow()
                .iter()
                .map(|e| (e.server, e.offset, e.len))
                .collect();
            let asked: Vec<_> = reqs
                .iter()
                .map(|&(p, len)| (p.server(), p.offset(), len))
                .collect();
            assert_eq!(reported, asked, "{batch:?}");
        }
    }

    #[test]
    fn colocated_read_skips_nic() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = cluster.setup_alloc(0, 64); // server 0 lives on machine 0
        cluster.setup_write(ptr, &[5; 64]);
        let ep = Endpoint::colocated(&cluster, 0);
        assert!(ep.is_local(0));
        assert!(ep.is_local(1), "both servers of machine 0 are local");
        assert!(!ep.is_local(2));
        sim.spawn(async move {
            let data = ep.read(ptr, 64).await.unwrap();
            assert_eq!(data[0], 5);
        });
        sim.run();
        let stats = cluster.server_stats(0);
        assert_eq!(stats.bytes_out, 0, "local path must not touch the wire");
        assert_eq!(stats.local_bytes, 64);
        assert_eq!(stats.nic_busy_nanos, 0);
    }

    // ---- failure surface ----

    #[test]
    fn crashed_server_is_unreachable_until_restart() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(2, 64);
        cluster.setup_write(ptr, &[3; 64]);
        cluster.fail_server(2);
        let ep = Endpoint::new(&cluster);
        let c = cluster.clone();
        let s = sim.clone();
        sim.spawn(async move {
            let begin = s.now();
            let err = ep.read(ptr, 64).await.unwrap_err();
            assert_eq!(err, VerbError::ServerUnreachable { server: 2 });
            assert!(err.is_retryable());
            // Detection charged a round trip.
            assert!((s.now() - begin).as_nanos() >= 2_500);
            c.restart_server(2);
            assert_eq!(c.restart_epoch(), 1);
            // Memory survived the crash.
            let data = ep.read(ptr, 64).await.unwrap();
            assert_eq!(data, vec![3; 64]);
        });
        sim.run();
        assert_eq!(cluster.fault_stats().verbs_unreachable, 1);
    }

    #[test]
    fn crash_mid_flight_voids_the_effect() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 8);
        let ep = Endpoint::new(&cluster);
        {
            let cluster = cluster.clone();
            let sim_c = sim.clone();
            sim.spawn(async move {
                // Crash the server while the write is on the wire.
                sim_c.sleep(SimDur::from_nanos(100)).await;
                cluster.fail_server(0);
            });
        }
        sim.spawn(async move {
            let err = ep.write(ptr, &7u64.to_le_bytes()).await.unwrap_err();
            assert_eq!(err, VerbError::ServerUnreachable { server: 0 });
        });
        sim.run();
        assert_eq!(cluster.setup_read(ptr, 8), vec![0; 8], "no effect applied");
    }

    #[test]
    fn killed_client_gets_cancelled() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 8);
        let ep = Endpoint::new(&cluster);
        cluster.kill_client(ep.client_id());
        sim.spawn(async move {
            let err = ep.cas(ptr, 0, 1).await.unwrap_err();
            assert_eq!(err, VerbError::Cancelled);
            assert!(!err.is_retryable());
        });
        sim.run();
        assert_eq!(cluster.setup_read(ptr, 8), vec![0; 8], "no effect applied");
        assert_eq!(cluster.fault_stats().verbs_cancelled, 1);
    }

    #[test]
    fn kill_on_lock_acquire_fires_between_cas_and_faa() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 8);
        let ep = Endpoint::new(&cluster);
        cluster.arm_kill_on_lock_acquire(ep.client_id());
        let c = cluster.clone();
        sim.spawn(async move {
            // The acquire CAS itself succeeds...
            let word = blink::layout::lock_word::locked_by(0, ep.client_id());
            let prev = ep.cas(ptr, 0, word).await.unwrap();
            assert_eq!(prev, 0);
            assert!(c.client_dead(ep.client_id()), "trigger fired");
            // ...and the unlock FAA never happens.
            let err = ep.fetch_add(ptr, 1).await.unwrap_err();
            assert_eq!(err, VerbError::Cancelled);
        });
        sim.run();
        // The lock word is orphaned in the locked state.
        let word = u64::from_le_bytes(cluster.setup_read(ptr, 8).try_into().unwrap());
        assert!(blink::layout::lock_word::is_locked(word));
        assert_eq!(cluster.fault_stats().lock_kills_fired, 1);
    }

    #[test]
    fn crash_mid_flight_voids_an_alloc() {
        let (sim, cluster) = harness();
        let before = cluster.server(0).pool.borrow().allocated();
        let ep = Endpoint::new(&cluster);
        {
            let cluster = cluster.clone();
            let sim_c = sim.clone();
            sim.spawn(async move {
                // Crash the server while the alloc request is on the wire.
                sim_c.sleep(SimDur::from_nanos(100)).await;
                cluster.fail_server(0);
            });
        }
        sim.spawn(async move {
            let err = ep.alloc(0, 256).await.unwrap_err();
            assert_eq!(err, VerbError::ServerUnreachable { server: 0 });
        });
        sim.run();
        assert_eq!(
            cluster.server(0).pool.borrow().allocated(),
            before,
            "a failed alloc must not leak its reservation"
        );
    }

    #[test]
    fn dropped_alloc_times_out_without_reserving() {
        let (sim, cluster) = harness();
        let before = cluster.server(0).pool.borrow().allocated();
        cluster.set_fault_seed(7);
        cluster.degrade_link(
            0,
            LinkDegrade {
                drop_chance: 1.0,
                ..LinkDegrade::default()
            },
        );
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let err = ep.alloc(0, 256).await.unwrap_err();
            assert_eq!(err, VerbError::Timeout { server: 0 });
        });
        sim.run();
        assert_eq!(cluster.server(0).pool.borrow().allocated(), before);
    }

    #[test]
    fn refused_read_many_batch_never_touches_the_wire() {
        let (sim, cluster) = harness();
        cluster.set_fault_seed(7);
        // Servers 1 and 3 drop; servers 0 and 2 are clean, yet the
        // refused batch must not occupy their NICs either. Every die is
        // rolled, and the round is charged to the last dropped server.
        for s in [1, 3] {
            let drop = LinkDegrade {
                drop_chance: 1.0,
                ..LinkDegrade::default()
            };
            cluster.degrade_link(s, drop);
        }
        let reqs: Vec<_> = (0..4)
            .map(|s| (cluster.setup_alloc(s, 512), 512usize))
            .collect();
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let err = ep.read_many(&reqs).await.unwrap_err();
            assert_eq!(err, VerbError::Timeout { server: 3 });
        });
        sim.run();
        assert_eq!(cluster.fault_stats().verbs_dropped, 2);
        for s in 0..4 {
            let stats = cluster.server_stats(s);
            assert_eq!(stats.nic_busy_nanos, 0, "server {s} wire stayed idle");
            assert_eq!(stats.bytes_out, 0, "server {s} shipped no bytes");
        }
    }

    #[test]
    fn empty_read_many_is_no_verb() {
        struct CountVerbs(Cell<u32>);
        impl crate::observer::VerbObserver for CountVerbs {
            fn on_verb(&self, _: &VerbEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let (sim, cluster) = harness();
        // Every die would come up "dropped" — if one were rolled.
        cluster.set_fault_seed(7);
        for s in 0..cluster.num_servers() {
            cluster.degrade_link(
                s,
                LinkDegrade {
                    drop_chance: 1.0,
                    ..LinkDegrade::default()
                },
            );
        }
        let verbs = Rc::new(CountVerbs(Cell::new(0)));
        cluster.add_observer(verbs.clone());
        let ep = Endpoint::new(&cluster);
        let s = sim.clone();
        sim.spawn(async move {
            let events = s.events_processed();
            assert_eq!(ep.read_many(&[]).await, Ok(Vec::new()));
            assert_eq!(s.events_processed(), events, "nothing was scheduled");
            assert_eq!(s.now(), SimTime::ZERO);
        });
        sim.run();
        assert_eq!(verbs.0.get(), 0, "no completion reported");
        assert_eq!(cluster.fault_stats(), FaultStats::default());
        for s in 0..cluster.num_servers() {
            let stats = cluster.server_stats(s);
            assert_eq!(stats.onesided_ops, 0, "server {s} counted a verb");
            assert_eq!(stats.nic_busy_nanos, 0, "server {s} reserved wire time");
        }
    }

    /// A READ's target is checked where its effect applies, at completion:
    /// memory that is allocated while the verb is in flight is readable,
    /// and the bytes are those of the completion instant. (An issue-time
    /// cache hint must therefore never check bounds.)
    #[test]
    fn read_checks_its_target_at_completion_not_at_issue() {
        let (sim, cluster) = harness();
        // Where server 0's next allocation will land.
        let ptr = RemotePtr::new(0, cluster.server(0).pool.borrow().allocated());
        {
            let cluster = cluster.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(1)).await;
                assert_eq!(cluster.setup_alloc(0, 64), ptr);
                cluster.setup_write(ptr, &[9; 64]);
            });
        }
        let ep = Endpoint::new(&cluster);
        let s = sim.clone();
        sim.spawn(async move {
            let data = ep.read(ptr, 64).await.unwrap();
            assert!(s.now() > SimTime::ZERO + SimDur::from_micros(1));
            assert_eq!(data, vec![9; 64]);
        });
        sim.run();
    }

    #[test]
    fn dropped_verbs_time_out_at_the_deadline() {
        let (sim, cluster) = harness();
        let ptr = cluster.setup_alloc(0, 64);
        cluster.set_fault_seed(7);
        cluster.degrade_link(
            0,
            LinkDegrade {
                drop_chance: 1.0,
                ..LinkDegrade::default()
            },
        );
        let ep = Endpoint::new(&cluster);
        let s = sim.clone();
        sim.spawn(async move {
            let begin = s.now();
            let err = ep.read(ptr, 64).await.unwrap_err();
            assert_eq!(err, VerbError::Timeout { server: 0 });
            assert_eq!((s.now() - begin).as_nanos(), VERB_TIMEOUT.as_nanos());
        });
        sim.run();
        let fs = cluster.fault_stats();
        assert_eq!(fs.verbs_dropped, 1);
        assert_eq!(fs.verbs_timed_out, 1);
        assert_eq!(
            cluster.server_stats(0).nic_busy_nanos,
            0,
            "never on the wire"
        );
    }

    /// A message the link drops, or the deadline projection refuses,
    /// never reaches the wire, so it counts no bytes either way.
    #[test]
    fn refused_one_sided_verbs_count_no_wire_bytes() {
        let refusals = [
            LinkDegrade {
                drop_chance: 1.0,
                ..LinkDegrade::default()
            },
            LinkDegrade {
                bandwidth_factor: 1e-6,
                ..LinkDegrade::default()
            },
        ];
        for degrade in refusals {
            let (sim, cluster) = harness();
            let ptr = cluster.setup_alloc(0, 1024);
            cluster.set_fault_seed(7);
            cluster.degrade_link(0, degrade);
            let ep = Endpoint::new(&cluster);
            sim.spawn(async move {
                let timeout = Err(VerbError::Timeout { server: 0 });
                assert_eq!(ep.read(ptr, 1024).await.map(|_| ()), timeout);
                assert_eq!(ep.write(ptr, &[1; 1024]).await, timeout);
                assert_eq!(ep.cas(ptr, 0, 1).await.map(|_| ()), timeout);
                assert_eq!(ep.fetch_add(ptr, 1).await.map(|_| ()), timeout);
                assert_eq!(ep.read_many(&[(ptr, 1024)]).await.map(|_| ()), timeout);
                let pair = ep.write_fetch_add(ptr, &[1; 1024], 1).await;
                assert_eq!(pair.map(|_| ()), timeout);
            });
            sim.run();
            let stats = cluster.server_stats(0);
            assert_eq!(
                (stats.bytes_in, stats.bytes_out, stats.nic_busy_nanos),
                (0, 0, 0),
                "{degrade:?}"
            );
            // The pair is two messages.
            assert_eq!(stats.onesided_ops, 7, "refused verbs are still issued");
            let untouched = cluster.setup_read(ptr, 1024) == vec![0; 1024];
            assert!(untouched, "a refused verb applies no effect: {degrade:?}");
        }
    }

    /// What a round of `(server, per-message cost, bytes)` messages does,
    /// worked out from the state before it: each message's NIC queue
    /// wait, the completion instant, and the server a deadline refusal is
    /// charged to. Port by port, a remote message starts when the port
    /// frees up and holds it for its cost plus its bytes at the degraded
    /// bandwidth; it arrives after any extra delay, a local copy when it
    /// ends, and the round completes a round trip after its last arrival.
    fn expected_round(
        ep: &Endpoint,
        msgs: &[(usize, SimDur, usize)],
    ) -> (Vec<u64>, SimTime, usize) {
        let cluster = ep.cluster();
        let now = cluster.sim().now();
        let mut free: Vec<_> = (0..cluster.num_servers())
            .map(|s| cluster.server(s).nic.busy_until().max(now))
            .collect();
        let (mut queues, mut last, mut slowest, mut remote) = (vec![], now, msgs[0].0, false);
        for &(s, cost, len) in msgs {
            let arrives = if ep.is_local(s) {
                queues.push(0);
                now + cluster.spec().local_time(len)
            } else {
                remote = true;
                let d = cluster.link_degrade(s).unwrap_or_default();
                let bw = cluster.spec().effective_bandwidth(s) * d.bandwidth_factor;
                queues.push((free[s] - now).as_nanos());
                free[s] += cost + SimDur::from_secs_f64(len as f64 / bw);
                free[s] + d.extra_delay
            };
            if arrives > last {
                (last, slowest) = (arrives, s);
            }
        }
        let done = if remote { last + RT_LATENCY } else { last };
        (queues, done, slowest)
    }

    /// A single READ, a `read_many` batch and a `write_fetch_add` pair
    /// cross the wire through one round, so each is exactly the
    /// arithmetic of the state it starts from: the completion instant,
    /// each message's queue wait, the bytes counted and the server a
    /// refusal is charged to.
    #[test]
    fn one_round_prices_single_reads_and_batches() {
        let slow = LinkDegrade {
            extra_delay: SimDur::from_nanos(3_000),
            bandwidth_factor: 0.25,
            ..LinkDegrade::default()
        };
        let stalled = LinkDegrade {
            bandwidth_factor: 1e-6,
            ..LinkDegrade::default()
        };
        type Case<'a> = (bool, bool, &'a [(usize, LinkDegrade)], &'a [(usize, usize)]);
        // (co-located on machine 0, a single READ, degraded links,
        // requests as (server, bytes))
        let cases: [Case; 5] = [
            // (a) one READ, (b) a one-element batch, priced alike
            (false, true, &[], &[(0, 1024)]),
            (false, false, &[], &[(0, 1024)]),
            // (c) four servers, two requests on port 0, a degraded link
            (
                false,
                false,
                &[(2, slow)],
                &[(0, 512), (2, 4096), (1, 256), (0, 2048), (3, 1024)],
            ),
            // (d) servers 0 and 1 are local, 2 and 3 remote
            (
                true,
                false,
                &[(2, slow)],
                &[(2, 1024), (0, 512), (3, 256), (1, 4096), (2, 64)],
            ),
            // (e) server 3's wire would outlast the deadline
            (
                false,
                false,
                &[(2, slow), (3, stalled)],
                &[(0, 512), (3, 512), (2, 512)],
            ),
        ];
        for (colocated, single, degrades, reqs) in cases {
            let (sim, cluster) = harness();
            // Earlier traffic still on two ports.
            cluster
                .server(0)
                .nic
                .reserve(SimTime::ZERO, SimDur::from_nanos(900));
            cluster
                .server(2)
                .nic
                .reserve(SimTime::ZERO, SimDur::from_nanos(400));
            for &(s, d) in degrades {
                cluster.degrade_link(s, d);
            }
            let ptrs: Vec<_> = reqs
                .iter()
                .map(|&(s, len)| (cluster.setup_alloc(s, len as u64), len))
                .collect();
            let ep = if colocated {
                Endpoint::colocated(&cluster, 0)
            } else {
                Endpoint::new(&cluster)
            };
            // A one-element batch is priced as the single READ it is.
            let cost = if single || reqs.len() == 1 {
                OP_WIRE_OVERHEAD
            } else {
                BATCHED_WIRE_OVERHEAD
            };
            // A server's requests are allocated back to back, so in a
            // batch its later ones ride in its first one's message, and
            // each request reports that message's queue wait.
            let (mut msgs, mut rides) = (vec![], vec![]);
            for &(s, len) in reqs {
                match msgs.iter().position(|m: &(usize, SimDur, usize)| m.0 == s) {
                    Some(j) if !single => {
                        msgs[j].2 += len;
                        rides.push(j);
                    }
                    _ => {
                        rides.push(msgs.len());
                        msgs.push((s, cost, len));
                    }
                }
            }
            let (waits, done, slowest) = expected_round(&ep, &msgs);
            let queues: Vec<_> = rides.iter().map(|&j| waits[j]).collect();
            let ports: Vec<_> = (0..4).map(|s| cluster.server(s).nic.busy_until()).collect();
            let local: Vec<_> = (0..4).map(|s| ep.is_local(s)).collect();
            let seen = Rc::new(Events(RefCell::new(vec![])));
            cluster.add_observer(seen.clone());
            let outcome = Rc::new(Cell::new(None));
            let (out, s) = (outcome.clone(), sim.clone());
            sim.spawn(async move {
                let r = if single {
                    ep.read(ptrs[0].0, ptrs[0].1).await.map(|_| ())
                } else {
                    ep.read_many(&ptrs).await.map(|_| ())
                };
                out.set(Some((r, s.now())));
            });
            sim.run();
            let deadline = SimTime::ZERO + VERB_TIMEOUT;
            let bytes = |s: usize| {
                let st = cluster.server_stats(s);
                (st.bytes_in, st.bytes_out, st.local_bytes)
            };
            if done > deadline {
                let timeout = Err(VerbError::Timeout { server: slowest });
                assert_eq!(outcome.get(), Some((timeout, deadline)));
                for (s, &port) in ports.iter().enumerate() {
                    assert_eq!(bytes(s), (0, 0, 0), "server {s}");
                    assert_eq!(cluster.server(s).nic.busy_until(), port);
                }
                continue;
            }
            assert_eq!(outcome.get(), Some((Ok(()), done)), "{reqs:?}");
            let waits: Vec<_> = seen.0.borrow().iter().map(|e| e.queue_nanos).collect();
            assert_eq!(waits, queues, "{reqs:?}");
            for (s, &local) in local.iter().enumerate() {
                let sent: u64 = reqs.iter().filter(|r| r.0 == s).map(|r| r.1 as u64).sum();
                let counted = if local { (0, 0, sent) } else { (0, sent, 0) };
                assert_eq!(bytes(s), counted, "server {s} of {reqs:?}");
            }
        }

        // (f) a write+add pair behind earlier traffic on port 0: the
        // WRITE at the batched cost, the FAA queued behind it at the
        // atomic cost, one round trip after both.
        let (sim, cluster) = harness();
        cluster
            .server(0)
            .nic
            .reserve(SimTime::ZERO, SimDur::from_nanos(900));
        let ptr = cluster.setup_alloc(0, 64);
        let ep = Endpoint::new(&cluster);
        let msgs = [(0, BATCHED_WIRE_OVERHEAD, 64), (0, ATOMIC_WIRE_OVERHEAD, 8)];
        let (queues, done, _) = expected_round(&ep, &msgs);
        assert!(queues[1] > queues[0], "the FAA waits behind the WRITE");
        let seen = Rc::new(Events(RefCell::new(vec![])));
        cluster.add_observer(seen.clone());
        let outcome = Rc::new(Cell::new(None));
        let (out, s) = (outcome.clone(), sim.clone());
        sim.spawn(async move {
            // The page carries word 41: the FAA sees it only if the
            // WRITE landed first.
            let mut page = [7; 64];
            page[..8].copy_from_slice(&41u64.to_le_bytes());
            let r = ep.write_fetch_add(ptr, &page, 1).await;
            out.set(Some((r, s.now())));
        });
        sim.run();
        assert_eq!(outcome.get(), Some((Ok(41), done)));
        let seen: Vec<_> = seen
            .0
            .borrow()
            .iter()
            .map(|e| (e.kind, e.issued, e.time, e.queue_nanos))
            .collect();
        let faa = VerbKind::Faa { add: 1, prev: 41 };
        let want = [
            (VerbKind::Write, SimTime::ZERO, done, queues[0]),
            (faa, SimTime::ZERO, done, queues[1]),
        ];
        assert_eq!(seen, want);
        let stats = cluster.server_stats(0);
        assert_eq!((stats.bytes_in, stats.bytes_out), (64 + 8, 8));
        let mut page = vec![7; 64];
        page[..8].copy_from_slice(&42u64.to_le_bytes());
        assert_eq!(cluster.setup_read(ptr, 64), page);
    }

    #[test]
    fn degraded_bandwidth_slows_reads() {
        let elapsed = |degrade: Option<LinkDegrade>| {
            let sim = Sim::new();
            let cluster = Cluster::new(&sim, ClusterSpec::default());
            let ptr = cluster.setup_alloc(0, 4096);
            if let Some(d) = degrade {
                cluster.degrade_link(0, d);
            }
            let ep = Endpoint::new(&cluster);
            let s = sim.clone();
            let t = Rc::new(Cell::new(0u64));
            let t2 = t.clone();
            sim.spawn(async move {
                for _ in 0..50 {
                    ep.read(ptr, 4096).await.unwrap();
                }
                t2.set(s.now().as_nanos());
            });
            sim.run();
            t.get()
        };
        let clean = elapsed(None);
        let slow = elapsed(Some(LinkDegrade {
            bandwidth_factor: 0.25,
            extra_delay: SimDur::from_nanos(400),
            ..LinkDegrade::default()
        }));
        assert!(
            slow > clean,
            "degraded link must be slower: {clean} vs {slow}"
        );
    }

    #[test]
    fn wal_crash_wipes_ram_and_recovery_replays_acked_writes() {
        use crate::spec::Durability;
        let sim = Sim::new();
        let cluster = Cluster::new(
            &sim,
            ClusterSpec {
                durability: Durability::Wal,
                ..ClusterSpec::default()
            },
        );
        let ptr = cluster.setup_alloc(0, 64);
        cluster.seal_setup();
        let ep = Endpoint::new(&cluster);
        let c = cluster.clone();
        let s = sim.clone();
        sim.spawn(async move {
            // An acknowledged write is durable by definition.
            ep.write(ptr, &[8; 64]).await.unwrap();
            c.fail_server(0);
            // RAM is gone at the crash instant: the pool reset to empty.
            c.with_pool(0, |p| {
                assert_eq!(p.allocated(), crate::pool::MemPool::ALIGN)
            });
            c.restart_server(0);
            assert!(!c.server_up(0), "recovery takes measurable time");
            assert!(c.server_recovering(0));
            while !c.server_up(0) {
                s.sleep(SimDur::from_micros(100)).await;
            }
            // Replay restored the acknowledged write.
            let data = ep.read(ptr, 64).await.unwrap();
            assert_eq!(data, vec![8; 64]);
        });
        sim.run();
        let recs = cluster.recovery_records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].recovery_time() >= cluster.spec().wal_restart_boot_latency);
        assert!(recs[0].replay_bytes > 0);
        assert_eq!(cluster.restart_epoch(), 1);
        assert_eq!(sim.live_tasks(), 0);
    }

    /// Every mutating verb logs its post-state before it returns: ten
    /// FAAs ten records, a write+add pair two, all flushed.
    #[test]
    fn wal_mode_charges_log_flushes_on_mutating_verbs() {
        use crate::spec::Durability;
        let elapsed = |durability: Durability| {
            let sim = Sim::new();
            let cluster = Cluster::new(
                &sim,
                ClusterSpec {
                    durability,
                    ..ClusterSpec::default()
                },
            );
            let ptr = cluster.setup_alloc(0, 16);
            cluster.seal_setup();
            let ep = Endpoint::new(&cluster);
            let s = sim.clone();
            let t = Rc::new(Cell::new(0u64));
            let t2 = t.clone();
            sim.spawn(async move {
                for i in 0..10u64 {
                    ep.fetch_add(ptr, i).await.unwrap();
                }
                t2.set(s.now().as_nanos());
                ep.write_fetch_add(ptr, &[3; 16], 1).await.unwrap();
            });
            sim.run();
            let logged = cluster.wal_stats(0).map(|w| (w.appends, w.records_flushed));
            (t.get(), logged)
        };
        let (off, unlogged) = elapsed(Durability::Off);
        let (on, logged) = elapsed(Durability::Wal);
        assert_eq!(unlogged, None);
        assert_eq!(logged, Some((12, 12)), "(appended, flushed)");
        // Ten sequential FAAs each wait one fsync (10us default).
        assert!(
            on >= off + 10 * 10_000,
            "durable acks must pay the log device: {off}ns vs {on}ns"
        );
    }

    #[test]
    fn invalid_pointer_is_a_typed_error() {
        let (sim, cluster) = harness();
        // Server id 9 does not exist in a 4-server cluster.
        let bogus = RemotePtr::new(9, 4096);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let err = ep.read(bogus, 8).await.unwrap_err();
            assert_eq!(err, VerbError::InvalidPointer { raw: bogus.raw() });
            assert!(!err.is_retryable());
        });
        sim.run();
    }
}
