//! Fluid FIFO resources.
//!
//! Because the executor's only suspension point is a timer, a single-server
//! resource ([`FifoLink`]) is modelled *analytically*: it tracks when it next
//! becomes free, an acquirer computes its own start time as
//! `max(now, busy_until)`, reserves the slot, and sleeps until its service
//! completes. Calls arrive in non-decreasing virtual time, so program order
//! equals queue order and the model is an exact FIFO queue.
//!
//! A multi-server resource ([`CpuPool`]) needs true queueing because service
//! time is decided at *grant* time (the handler's work depends on state
//! observed when the core is granted), so it keeps an explicit ticketed
//! waiter queue.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::executor::Sim;
use crate::time::{SimDur, SimTime};

/// A single-server FIFO queue (e.g. one NIC port's wire).
///
/// `acquire(dur)` serialises holders: each holder occupies the link for its
/// duration, later arrivals queue behind it.
pub struct FifoLink {
    busy_until: Cell<SimTime>,
    busy_nanos: Cell<u64>,
}

impl Default for FifoLink {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoLink {
    /// Create an idle link.
    pub fn new() -> Self {
        FifoLink {
            busy_until: Cell::new(SimTime::ZERO),
            busy_nanos: Cell::new(0),
        }
    }

    /// Occupy the link for `dur`, queueing FIFO behind earlier holders.
    /// Resolves when this holder's occupancy ends.
    pub async fn acquire(&self, sim: &Sim, dur: SimDur) {
        let end = self.reserve(sim.now(), dur);
        sim.sleep_until(end).await;
    }

    /// Reserve `dur` of link time starting no earlier than `now`; returns
    /// the instant the occupancy ends, without sleeping. Lets a caller
    /// reserve several links in one step and then wait for the latest
    /// completion (e.g. prefetch READs fanned out across servers).
    pub fn reserve(&self, now: SimTime, dur: SimDur) -> SimTime {
        let start = self.busy_until.get().max(now);
        let end = start + dur;
        self.busy_until.set(end);
        self.busy_nanos.set(self.busy_nanos.get() + dur.as_nanos());
        end
    }

    /// Instant at which the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until.get()
    }

    /// Total virtual time the link has been occupied (for utilization).
    pub fn busy_time(&self) -> SimDur {
        SimDur::from_nanos(self.busy_nanos.get())
    }
}

struct PoolState {
    /// Free cores, keyed by the instant each becomes idle.
    free: BinaryHeap<Reverse<SimTime>>,
    /// FIFO of waiting acquirers: (ticket, waker).
    waiters: VecDeque<(u64, Waker)>,
    next_ticket: u64,
}

/// A `k`-server FIFO queue (e.g. the RPC handler cores of a memory server).
///
/// Acquisition is two-phase so service time may depend on state observed at
/// grant time: [`CpuPool::acquire`] waits for a free core, then
/// [`CpuGrant::complete`] holds it for the computed service time.
pub struct CpuPool {
    state: RefCell<PoolState>,
    size: usize,
    busy_nanos: Cell<u64>,
}

impl CpuPool {
    /// Create a pool of `size` idle cores. `size` must be nonzero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "CpuPool requires at least one core");
        let mut free = BinaryHeap::with_capacity(size);
        for _ in 0..size {
            free.push(Reverse(SimTime::ZERO));
        }
        CpuPool {
            state: RefCell::new(PoolState {
                free,
                waiters: VecDeque::new(),
                next_ticket: 0,
            }),
            size,
            busy_nanos: Cell::new(0),
        }
    }

    /// Number of cores.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Total core-occupancy time (for utilization: divide by
    /// `size * elapsed`).
    pub fn busy_time(&self) -> SimDur {
        SimDur::from_nanos(self.busy_nanos.get())
    }

    /// Number of acquirers currently waiting for a core.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().waiters.len()
    }

    /// Wait (FIFO) for a core; the future resolves at the instant the core
    /// is granted. Dropping the grant without completing releases the core
    /// immediately.
    pub async fn acquire<'a>(&'a self, sim: &Sim) -> CpuGrant<'a> {
        let slot = ObtainSlot {
            pool: self,
            ticket: None,
        }
        .await;
        let start = slot.max(sim.now());
        sim.sleep_until(start).await;
        CpuGrant {
            pool: self,
            start,
            completed: false,
        }
    }

    /// Convenience: acquire a core, hold it for `service`, release.
    /// Returns the grant start time (after any queueing delay).
    pub async fn run(&self, sim: &Sim, service: SimDur) -> SimTime {
        let grant = self.acquire(sim).await;
        let start = grant.start();
        grant.complete(sim, service).await;
        start
    }

    fn release(&self, free_at: SimTime) {
        let mut st = self.state.borrow_mut();
        st.free.push(Reverse(free_at));
        if let Some((_, waker)) = st.waiters.front() {
            waker.wake_by_ref();
        }
    }
}

/// Future waiting for a free core; resolves to the instant the core becomes
/// idle (the acquirer still sleeps until `max(now, that instant)`).
struct ObtainSlot<'a> {
    pool: &'a CpuPool,
    ticket: Option<u64>,
}

impl Future for ObtainSlot<'_> {
    type Output = SimTime;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SimTime> {
        let this = self.get_mut();
        let mut st = this.pool.state.borrow_mut();
        match this.ticket {
            None => {
                // First poll: take a core right away only if nobody is
                // already queued (FIFO fairness).
                if st.waiters.is_empty() {
                    if let Some(Reverse(slot)) = st.free.pop() {
                        return Poll::Ready(slot);
                    }
                }
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                this.ticket = Some(ticket);
                st.waiters.push_back((ticket, cx.waker().clone()));
                Poll::Pending
            }
            Some(ticket) => {
                let at_front = st.waiters.front().is_some_and(|(t, _)| *t == ticket);
                if at_front && !st.free.is_empty() {
                    st.waiters.pop_front();
                    let Reverse(slot) = st.free.pop().expect("checked non-empty");
                    // If further cores are free, let the next waiter proceed.
                    if !st.free.is_empty() {
                        if let Some((_, w)) = st.waiters.front() {
                            w.wake_by_ref();
                        }
                    }
                    Poll::Ready(slot)
                } else {
                    // Refresh our waker in place (rare: only the front is
                    // ever woken, so the scan almost never runs deep).
                    if let Some(entry) = st.waiters.iter_mut().find(|(t, _)| *t == ticket) {
                        entry.1 = cx.waker().clone();
                    }
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for ObtainSlot<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            let mut st = self.pool.state.borrow_mut();
            if let Some(pos) = st.waiters.iter().position(|(t, _)| *t == ticket) {
                let was_front = pos == 0;
                st.waiters.remove(pos);
                // A core may have been reserved for us; hand the wake on.
                if was_front && !st.free.is_empty() {
                    if let Some((_, w)) = st.waiters.front() {
                        w.wake_by_ref();
                    }
                }
            }
        }
    }
}

/// A reserved core of a [`CpuPool`]; see [`CpuPool::acquire`].
pub struct CpuGrant<'a> {
    pool: &'a CpuPool,
    start: SimTime,
    completed: bool,
}

impl CpuGrant<'_> {
    /// Virtual instant at which the core was granted.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Hold the core for `service` time, then release it. Resolves when the
    /// service period ends.
    pub async fn complete(mut self, sim: &Sim, service: SimDur) {
        self.completed = true;
        let end = self.start + service;
        self.pool
            .busy_nanos
            .set(self.pool.busy_nanos.get() + service.as_nanos());
        self.pool.release(end);
        sim.sleep_until(end).await;
    }
}

impl Drop for CpuGrant<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.pool.release(self.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fifo_link_serialises_holders() {
        let sim = Sim::new();
        let link = Rc::new(FifoLink::new());
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let s = sim.clone();
            let l = link.clone();
            let e = ends.clone();
            sim.spawn(async move {
                l.acquire(&s, SimDur::from_micros(10)).await;
                e.borrow_mut().push((i, s.now().as_micros()));
            });
        }
        sim.run();
        assert_eq!(*ends.borrow(), vec![(0, 10), (1, 20), (2, 30)]);
        assert_eq!(link.busy_time().as_micros(), 30);
    }

    #[test]
    fn fifo_link_idle_gap_not_counted() {
        let sim = Sim::new();
        let link = Rc::new(FifoLink::new());
        let s = sim.clone();
        let l = link.clone();
        sim.spawn(async move {
            l.acquire(&s, SimDur::from_micros(5)).await;
            s.sleep(SimDur::from_micros(100)).await;
            l.acquire(&s, SimDur::from_micros(5)).await;
            assert_eq!(s.now().as_micros(), 110);
        });
        sim.run();
        assert_eq!(link.busy_time().as_micros(), 10);
    }

    #[test]
    fn cpu_pool_parallelism_equals_size() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(2));
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let s = sim.clone();
            let p = pool.clone();
            let e = ends.clone();
            sim.spawn(async move {
                p.run(&s, SimDur::from_micros(10)).await;
                e.borrow_mut().push((i, s.now().as_micros()));
            });
        }
        sim.run();
        // Two run 0-10, two run 10-20.
        assert_eq!(*ends.borrow(), vec![(0, 10), (1, 10), (2, 20), (3, 20)]);
        assert_eq!(pool.busy_time().as_micros(), 40);
    }

    #[test]
    fn cpu_pool_more_waiters_than_cores() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(1));
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u64 {
            let s = sim.clone();
            let p = pool.clone();
            let e = ends.clone();
            sim.spawn(async move {
                p.run(&s, SimDur::from_micros(10)).await;
                e.borrow_mut().push((i, s.now().as_micros()));
            });
        }
        sim.run();
        assert_eq!(
            *ends.borrow(),
            vec![(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)]
        );
    }

    #[test]
    fn cpu_grant_two_phase_service() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u64 {
            let s = sim.clone();
            let p = pool.clone();
            let l = log.clone();
            sim.spawn(async move {
                let grant = p.acquire(&s).await;
                let granted_at = grant.start().as_micros();
                grant.complete(&s, SimDur::from_micros(7)).await;
                l.borrow_mut().push((i, granted_at, s.now().as_micros()));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, 0, 7), (1, 7, 14)]);
    }

    #[test]
    fn dropped_grant_releases_core() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(1));
        {
            let s = sim.clone();
            let p = pool.clone();
            sim.spawn(async move {
                let _grant = p.acquire(&s).await;
                // dropped without complete
            });
        }
        let s = sim.clone();
        let p = pool.clone();
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        sim.spawn(async move {
            s.sleep(SimDur::from_micros(1)).await;
            p.run(&s, SimDur::from_micros(2)).await;
            d.set(s.now().as_micros());
        });
        sim.run();
        assert_eq!(done.get(), 3);
    }

    #[test]
    fn pool_run_returns_queueing_start() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(1));
        let starts = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let s = sim.clone();
            let p = pool.clone();
            let st = starts.clone();
            sim.spawn(async move {
                let begin = p.run(&s, SimDur::from_micros(4)).await;
                st.borrow_mut().push(begin.as_micros());
            });
        }
        sim.run();
        assert_eq!(*starts.borrow(), vec![0, 4, 8]);
    }

    #[test]
    fn pool_grants_are_fifo_across_arrival_times() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(1));
        let order = Rc::new(RefCell::new(Vec::new()));
        // Client 0 arrives at t=0 and holds 100us. Clients 1..4 arrive at
        // 10, 20, 30us and must be served in arrival order.
        for (i, arrive) in [(0u64, 0u64), (1, 10), (2, 20), (3, 30)] {
            let s = sim.clone();
            let p = pool.clone();
            let o = order.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(arrive)).await;
                p.run(&s, SimDur::from_micros(100)).await;
                o.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_queue_len_observable() {
        let sim = Sim::new();
        let pool = Rc::new(CpuPool::new(1));
        for _ in 0..3 {
            let s = sim.clone();
            let p = pool.clone();
            sim.spawn(async move {
                p.run(&s, SimDur::from_micros(10)).await;
            });
        }
        let s = sim.clone();
        let p = pool.clone();
        let observed = Rc::new(Cell::new(usize::MAX));
        let ob = observed.clone();
        sim.spawn(async move {
            s.sleep(SimDur::from_micros(5)).await;
            ob.set(p.queue_len());
        });
        sim.run();
        // At t=5us: one holder on the core, one waiter already granted a
        // future start (released slots are handed out eagerly), one queued.
        assert_eq!(observed.get(), 1);
    }
}
