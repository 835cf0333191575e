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
//! * a verb whose completion would miss `issue + verb_timeout` — link
//!   degradation, a dropped message, or NIC queueing — parks until the
//!   deadline and fails with [`VerbError::Timeout`]. Dropped and
//!   deadline-refused messages never apply their effect. The deadline is
//!   computed analytically against the FIFO NIC model, so a refused verb
//!   does not occupy the wire and counts none of its bytes.
//!
//! ## One verb body
//!
//! READ, WRITE, CAS, FETCH_AND_ADD and ALLOC share one path up to their
//! effect (`Endpoint::onesided`: the issue-time refusals, the verb count,
//! one leg of a round trip, the completion-time re-check), and every
//! single message — a one-sided verb or either leg of an RPC — crosses
//! a port, or the local path, through one `Endpoint::leg`. What stays
//! per verb is its effect on the pool, the event it reports, and its log
//! record.

use simnet::{Sim, SimDur, SimTime};

use wal::{ServerWal, WaitOutcome, WalRecord};

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
}

/// Port occupancy of one message: its per-message cost plus `bytes` at
/// `bw` bytes per second.
fn wire(overhead: SimDur, bytes: usize, bw: f64) -> SimDur {
    overhead + SimDur::from_secs_f64(bytes as f64 / bw)
}

/// A one-sided verb as its shared path sees it (one small value: an
/// async fn keeps its arguments for its whole life).
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

    /// Carry one message between this endpoint and server `s`; returns at
    /// its completion with the nanoseconds it waited behind earlier NIC
    /// traffic, and applies no memory effect. A co-located server takes
    /// the local path. A remote message rolls the drop die, then is
    /// projected against the FIFO port and refused if
    /// `now + queue + wire + latency + extra > deadline`; only an admitted
    /// message counts its bytes, occupies the wire and flies for
    /// `latency` plus any degradation delay. One-sided verbs pass the
    /// round trip, each RPC leg half of it.
    async fn leg(
        &self,
        s: usize,
        msg: Msg,
        latency: SimDur,
        deadline: SimTime,
    ) -> Result<u64, VerbError> {
        let sim = self.sim();
        let spec = self.cluster.spec();
        let server = self.cluster.server(s);
        // (per-message cost, payload, bytes into the server, bytes out)
        let (overhead, payload, into, out) = match msg {
            Msg::In(n) => (OP_WIRE_OVERHEAD, n, n, 0),
            Msg::Out(n) => (OP_WIRE_OVERHEAD, n, 0, n),
            Msg::Atomic => (ATOMIC_WIRE_OVERHEAD, 8, 8, 8),
        };
        if self.is_local(s) {
            server.local_bytes.add(payload as u64);
            sim.sleep(spec.local_time(payload)).await;
            return Ok(0);
        }
        let (bw, extra) = self.link(s);
        if self.cluster.roll_drop(s) {
            return Err(self.fail_timeout(s, deadline).await);
        }
        let wire = wire(overhead, payload, bw);
        let queue = server.nic.queue_delay(sim.now());
        if sim.now() + queue + wire + latency + extra > deadline {
            return Err(self.fail_timeout(s, deadline).await);
        }
        server.bytes_in.add(into as u64);
        server.bytes_out.add(out as u64);
        // Read no argument after an await: the future would keep a
        // second copy of it.
        let (flight, queue) = (latency + extra, queue.as_nanos());
        server.nic.acquire(sim, wire).await;
        sim.sleep(flight).await;
        Ok(queue)
    }

    /// This verb's completion deadline.
    fn deadline(&self) -> SimTime {
        self.cluster.sim().now() + VERB_TIMEOUT
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

    /// Everything a one-sided verb does before its effect: refuse at
    /// issue (`Cancelled`, then `InvalidPointer`, then
    /// `ServerUnreachable`), count the verb, carry its message through
    /// one leg of a round trip, and re-check the server at completion.
    /// Returns the server, the issue instant and the NIC queue wait; the
    /// caller applies the effect, reports it and logs it.
    async fn onesided(&self, verb: OneSided) -> Result<(usize, SimTime, u64), VerbError> {
        let issued = self.sim().now();
        self.check_alive()?;
        let (s, msg) = match verb {
            OneSided::Read(ptr, len) => (self.decode(ptr)?, Msg::Out(len)),
            OneSided::Write(ptr, len) => (self.decode(ptr)?, Msg::In(len)),
            OneSided::Atomic(ptr) => (self.decode(ptr)?, Msg::Atomic),
            OneSided::Alloc(s) => (s, Msg::In(0)),
        };
        if !self.cluster.server_up(s) {
            return Err(self.fail_unreachable(s).await);
        }
        let deadline = self.deadline();
        let server = self.cluster.server(s);
        if !matches!(verb, OneSided::Alloc(_)) {
            server.onesided_ops.inc();
        }
        if let OneSided::Read(ptr, len) = verb {
            // Host-side only: the copy at completion runs many events
            // from now.
            server.pool.borrow().hint(ptr.offset(), len);
        }
        let queue = self.leg(s, msg, RT_LATENCY, deadline).await?;
        if !self.cluster.server_up(s) {
            return Err(self.fail_unreachable(s).await);
        }
        Ok((s, issued, queue))
    }

    /// One-sided `RDMA_READ` of `len` bytes.
    ///
    /// The payload arrives in a recycled [`crate::buf::PageBuf`] from the
    /// cluster's arena — steady-state descents re-use the same buffers
    /// instead of allocating per verb.
    pub async fn read(&self, ptr: RemotePtr, len: usize) -> Result<crate::buf::PageBuf, VerbError> {
        let (s, issued, queue) = self.onesided(OneSided::Read(ptr, len)).await?;
        // Effect at completion: copy the bytes as they are *now*.
        let mut buf = self.cluster.arena().checkout(len);
        let pool = &self.cluster.server(s).pool;
        pool.borrow().copy_out(ptr.offset(), &mut buf);
        self.emit(s, ptr.offset(), len, VerbKind::Read, issued, queue);
        Ok(buf)
    }

    /// Fan out one-sided READs (selectively signalled, §4.3): all wires
    /// are reserved immediately and the caller waits for the last
    /// completion, so transfers to different servers overlap. An empty
    /// batch is no verb at all: nothing is counted, rolled or awaited.
    pub async fn read_many(
        &self,
        reqs: &[(RemotePtr, usize)],
    ) -> Result<Vec<crate::buf::PageBuf>, VerbError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let sim = self.sim();
        let issued = sim.now();
        self.check_alive()?;
        let mut servers = Vec::with_capacity(reqs.len());
        for &(ptr, _) in reqs {
            servers.push(self.decode(ptr)?);
        }
        for &s in &servers {
            if !self.cluster.server_up(s) {
                return Err(self.fail_unreachable(s).await);
            }
        }
        let deadline = self.deadline();
        // Roll every drop die up front, before any wire time is reserved:
        // one dropped message stalls the whole selectively-signalled batch
        // (the final completion never arrives), and a refused batch must
        // not occupy the wire — FIFO reservations cannot be rolled back.
        let mut dropped = None;
        for &s in &servers {
            if !self.is_local(s) && self.cluster.roll_drop(s) {
                dropped = Some(s);
            }
        }
        if let Some(s) = dropped {
            for &t in &servers {
                self.cluster.server(t).onesided_ops.inc();
            }
            return Err(self.fail_timeout(s, deadline).await);
        }
        // Project every completion against the FIFO NIC model without
        // reserving, so a batch that would miss its deadline never touches
        // the wire either. `projected` tracks per-server queue depth as
        // this batch's own requests stack up behind one another.
        let mut projected: Vec<(usize, SimTime)> = Vec::new();
        let mut wires: Vec<Option<SimDur>> = Vec::with_capacity(reqs.len());
        // Per-request NIC queue wait (behind earlier traffic *and* this
        // batch's own earlier requests to the same server).
        let mut queues: Vec<u64> = Vec::with_capacity(reqs.len());
        let mut latest = sim.now();
        let mut slowest = servers[0];
        let mut any_remote = false;
        for (&(_, len), &s) in reqs.iter().zip(&servers) {
            let server = self.cluster.server(s);
            server.onesided_ops.inc();
            let done;
            if self.is_local(s) {
                done = sim.now() + self.cluster.spec().local_time(len);
                wires.push(None);
                queues.push(0);
            } else {
                any_remote = true;
                let (bw, extra) = self.link(s);
                let wire = wire(BATCHED_WIRE_OVERHEAD, len, bw);
                let i = match projected.iter().position(|&(ps, _)| ps == s) {
                    Some(i) => i,
                    None => {
                        projected.push((s, server.nic.busy_until().max(sim.now())));
                        projected.len() - 1
                    }
                };
                queues.push((projected[i].1 - sim.now()).as_nanos());
                projected[i].1 += wire;
                done = projected[i].1 + extra;
                wires.push(Some(wire));
            }
            if done > latest {
                latest = done;
                slowest = s;
            }
        }
        let completion = if any_remote {
            latest + RT_LATENCY
        } else {
            latest
        };
        if completion > deadline {
            // Attribute the timeout to the server whose projected
            // completion pushed the batch past its deadline.
            return Err(self.fail_timeout(slowest, deadline).await);
        }
        // The batch is admitted: commit reservations and byte counters.
        // No await separates projection from reservation, so the
        // reserved times equal the projected ones exactly.
        for (&(_, len), (&s, wire)) in reqs.iter().zip(servers.iter().zip(&wires)) {
            let server = self.cluster.server(s);
            if let Some(wire) = wire {
                server.bytes_out.add(len as u64);
                server.nic.reserve(sim.now(), *wire);
            } else {
                server.local_bytes.add(len as u64);
            }
        }
        sim.sleep_until(latest).await;
        if any_remote {
            sim.sleep(RT_LATENCY).await;
        }
        for &s in &servers {
            if !self.cluster.server_up(s) {
                return Err(self.fail_unreachable(s).await);
            }
        }
        let bufs: Vec<crate::buf::PageBuf> = reqs
            .iter()
            .map(|&(ptr, len)| {
                let mut buf = self.cluster.arena().checkout(len);
                self.cluster
                    .server(ptr.server())
                    .pool
                    .borrow()
                    .copy_out(ptr.offset(), &mut buf);
                buf
            })
            .collect();
        for (&(ptr, len), &queue) in reqs.iter().zip(&queues) {
            self.emit(
                ptr.server(),
                ptr.offset(),
                len,
                VerbKind::Read,
                issued,
                queue,
            );
        }
        Ok(bufs)
    }

    /// One-sided `RDMA_WRITE` of `data`.
    pub async fn write(&self, ptr: RemotePtr, data: &[u8]) -> Result<(), VerbError> {
        let (s, issued, queue) = self.onesided(OneSided::Write(ptr, data.len())).await?;
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
        let (s, issued, queue) = self.onesided(OneSided::Atomic(ptr)).await?;
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
            // won. What counts as an acquire is a predicate injected by
            // the index layer (`Cluster::set_lock_acquire_shape`); the
            // transport knows nothing about any particular lock-word
            // encoding.
            self.cluster
                .maybe_fire_lock_kill(self.client, expected, new);
        }
        Ok(prev)
    }

    /// One-sided `RDMA_FETCH_AND_ADD` on an 8-byte word; returns the
    /// previous value.
    pub async fn fetch_add(&self, ptr: RemotePtr, add: u64) -> Result<u64, VerbError> {
        let (s, issued, queue) = self.onesided(OneSided::Atomic(ptr)).await?;
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

    /// `RDMA_ALLOC` (Listing 4): reserve `size` bytes on server `s`.
    /// Costs one round trip (a tiny control message on the wire), and
    /// fails like every other verb: drop and deadline refusals, link
    /// degradation, and a crash that lands mid-flight all void the
    /// reservation — the allocation effect applies only at completion.
    pub async fn alloc(&self, s: usize, size: u64) -> Result<RemotePtr, VerbError> {
        let (s, issued, queue) = self.onesided(OneSided::Alloc(s)).await?;
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
    /// Failure semantics are at-least-once: once the request leg lands,
    /// the handler runs (and its server-side effects stick) even if the
    /// response is lost to a crash or deadline — the caller then sees an
    /// error and cannot tell whether the handler executed.
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
        let deadline = self.deadline();
        let spec = self.cluster.spec();
        let server = self.cluster.server(s);
        server.rpcs.inc();
        let half = RT_LATENCY / 2;
        // Time spent queued (NIC FIFO on both legs + waiting for a
        // handler core) and executing on the handler core, for the
        // completion event.
        let mut queue_nanos = self.leg(s, Msg::In(req_bytes), half, deadline).await?;
        if !self.cluster.server_up(s) {
            return Err(self.fail_unreachable(s).await);
        }

        // Handler: queue for a core, run, hold the core for the work done.
        // RC connection state adds per-client pressure (see
        // `RPC_CLIENT_PENALTY`).
        let cpu_wait_from = sim.now();
        let grant = server.cpu.acquire(sim).await;
        queue_nanos += (sim.now() - cpu_wait_from).as_nanos();
        if !self.cluster.server_up(s) {
            // The server crashed while the request sat in its queue.
            grant.complete(sim, SimDur::ZERO).await;
            return Err(self.fail_unreachable(s).await);
        }
        if sim.now() > deadline {
            grant.complete(sim, SimDur::ZERO).await;
            return Err(self.fail_timeout(s, deadline).await);
        }
        let mark = self.log_mark(s);
        let reply = handler();
        let state_penalty = RPC_CLIENT_PENALTY * self.cluster.active_clients() as u64;
        let service =
            SimDur::from_secs_f64((reply.cpu + state_penalty).as_secs_f64() * spec.cpu_factor(s));
        grant.complete(sim, service).await;
        let server_nanos = service.as_nanos();
        if !self.cluster.server_up(s) {
            return Err(self.fail_unreachable(s).await);
        }
        // The response leg releases only once the handler's records are
        // durable.
        self.ack_durable(s, mark).await?;

        let resp = Msg::Out(reply.resp_bytes);
        queue_nanos += self.leg(s, resp, half, deadline).await?;
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
    use std::cell::Cell;
    use std::rc::Rc;

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
        // The transport is encoding-agnostic: the index layer injects
        // what an acquire CAS looks like before arming the trigger.
        cluster.set_lock_acquire_shape(blink::layout::lock_word::is_acquire);
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
        // Only server 2's link drops; servers 0 and 1 are clean, yet the
        // refused batch must not occupy their NICs either.
        cluster.degrade_link(
            2,
            LinkDegrade {
                drop_chance: 1.0,
                ..LinkDegrade::default()
            },
        );
        let reqs: Vec<_> = (0..3)
            .map(|s| (cluster.setup_alloc(s, 512), 512usize))
            .collect();
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let err = ep.read_many(&reqs).await.unwrap_err();
            assert_eq!(err, VerbError::Timeout { server: 2 });
        });
        sim.run();
        for s in 0..3 {
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
            fn on_free(&self, _: usize, _: u64, _: usize, _: SimTime) {}
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
            });
            sim.run();
            let stats = cluster.server_stats(0);
            assert_eq!(
                (stats.bytes_in, stats.bytes_out, stats.nic_busy_nanos),
                (0, 0, 0),
                "{degrade:?}"
            );
            assert_eq!(stats.onesided_ops, 4, "refused verbs are still issued");
        }
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
            let ptr = cluster.setup_alloc(0, 8);
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
            });
            sim.run();
            t.get()
        };
        let off = elapsed(Durability::Off);
        let on = elapsed(Durability::Wal);
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
