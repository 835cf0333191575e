//! Single-threaded async executor driven by a virtual clock.
//!
//! Tasks are ordinary Rust futures. The only primitive suspension point is a
//! timer ([`Sim::sleep_until`]); all higher-level constructs (NIC links, CPU
//! pools, spinlocks) are built on timers plus shared state, which keeps the
//! event loop tiny and every run deterministic: events fire in
//! `(virtual time, sequence number)` order.
//!
//! ## Two-instant sleeps
//!
//! [`Sim::sleep_until_then`] waits for one instant and then for a later
//! one, as two `sleep_until`s in a row would, but the task is polled only
//! at the second. Its first timer carries the task as usual; the second
//! instant waits in the task's slab entry. When the task comes off the
//! ready queue at or after the first instant, the executor draws the next
//! sequence number and pushes the timer at the second instant *instead of
//! polling the task* — at exactly the point where the poll that a second
//! `sleep_until` costs would have drawn it. Every same-instant tie and
//! [`Sim::events_processed`] therefore stay what the two sleeps give.
//!
//! ## Timer queue
//!
//! Two interchangeable timer-queue implementations exist, selected at
//! construction ([`Sim::with_scheduler`]): the reference `BinaryHeap`
//! (`O(log n)` per operation, kept as the equivalence oracle) and the
//! default calendar/timing-wheel queue (`O(1)` amortized insert, bitmap
//! slot scan on advance). Both pop events in identical `(at, seq)` order,
//! so a run is bit-for-bit the same under either — pinned by the
//! scheduler-equivalence tests and the engine-parity golden digest.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDur, SimTime};

/// The waker-shared ready queue. Locked only because `std::task::Wake`
/// requires `Send + Sync`; the executor is strictly single-threaded, so
/// the lock is never contended.
type ReadyQueue = Arc<UncontendedLock<VecDeque<TaskId>>>;

/// A minimal atomic-flag lock for state that must be nominally `Sync`
/// (waker plumbing) but is only ever touched from the executor's one
/// thread. An uncontended acquire/release pair is a single atomic swap
/// plus a store — several times cheaper than a `std::sync::Mutex` round
/// trip, which the event hot path pays three times per event.
struct UncontendedLock<T> {
    locked: std::sync::atomic::AtomicBool,
    value: std::cell::UnsafeCell<T>,
}

// SAFETY: access to `value` is serialised by the `locked` flag in
// `with`, so `UncontendedLock<T>` provides the same exclusive-access
// guarantee as a mutex for any `Send` payload.
unsafe impl<T: Send> Send for UncontendedLock<T> {}
// SAFETY: as above — `with` is the only way to `value`, and it hands out
// one `&mut T` at a time, so sharing the lock shares no unguarded `T`.
unsafe impl<T: Send> Sync for UncontendedLock<T> {}

impl<T: Default> Default for UncontendedLock<T> {
    fn default() -> Self {
        UncontendedLock {
            locked: std::sync::atomic::AtomicBool::new(false),
            value: std::cell::UnsafeCell::new(T::default()),
        }
    }
}

impl<T> UncontendedLock<T> {
    /// Run `f` with exclusive access to the value. `f` must not call
    /// back into the same lock (the executor's call graph never does:
    /// wakes push while no queue access is live, and the policy hook is
    /// documented to not re-enter the [`Sim`]).
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        use std::sync::atomic::Ordering;
        while self.locked.swap(true, Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // SAFETY: the flag above grants exclusive access until the
        // release store below; `f` does not re-enter this lock.
        let r = f(unsafe { &mut *self.value.get() });
        self.locked.store(false, Ordering::Release);
        r
    }
}

/// Identifier of a spawned task.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(u64);

impl TaskId {
    /// Construct from a raw spawn index. Ids are plain labels, so this
    /// is safe; it exists for schedule-policy tests and tooling.
    pub fn from_u64(v: u64) -> Self {
        TaskId(v)
    }
}

/// A pluggable strategy for resolving scheduler *choice points*.
///
/// Whenever more than one distinct live task is ready at the same virtual
/// instant, the executor asks the installed policy which one to poll next.
/// `ready` lists the candidates in FIFO wake order (duplicates and
/// completed tasks already filtered out); the returned index must be
/// `< ready.len()`. With zero or one candidate the choice is forced and
/// the policy is *not* consulted, so a policy sees exactly the genuine
/// schedule decisions.
///
/// A policy must not call back into the [`Sim`] that owns it (the
/// executor holds internal borrows while choosing).
pub trait SchedulePolicy {
    /// Pick the index (into `ready`) of the next task to poll.
    fn choose(&mut self, now: SimTime, ready: &[TaskId]) -> usize;
}

/// The executor's default tie-break, made explicit: always poll the first
/// ready task in wake order. Installing it is observationally identical
/// to running with no policy at all — every poll happens in the same
/// order — which is what lets golden digests survive under the
/// controlled scheduler.
#[derive(Default)]
pub struct FifoPolicy;

impl SchedulePolicy for FifoPolicy {
    fn choose(&mut self, _now: SimTime, _ready: &[TaskId]) -> usize {
        0
    }
}

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A timer registration: make `task` runnable at instant `at`.
///
/// Timers carry the *task id*, not a `Waker`: the executor has no
/// combinator layer (every `await` in the workspace is sequential), so
/// the waker a [`Sleep`] would capture is always the executor's own
/// waker for the task being polled. Registering the id directly makes a
/// timer event three plain words — no allocation, no reference-count
/// traffic on the hot path. Futures that genuinely need to park a waker
/// for a *later, externally triggered* wake (resource slots, WAL group
/// commit) still clone `cx.waker()` and go through the ready queue.
#[derive(Clone, Copy)]
struct TimerEvent {
    at: SimTime,
    seq: u64,
    task: TaskId,
}

impl TimerEvent {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for TimerEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEvent {}
impl PartialOrd for TimerEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Which timer-queue implementation a [`Sim`] runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Calendar / timing-wheel queue (the default): O(1) amortized
    /// insert, occupancy-bitmap slot scan on clock advance.
    #[default]
    Wheel,
    /// Reference `BinaryHeap` queue, kept as the equivalence oracle for
    /// the wheel (identical `(at, seq)` pop order by construction).
    Heap,
}

/// Timing-wheel slot width: `1 << WHEEL_SHIFT` nanoseconds (256 ns).
const WHEEL_SHIFT: u32 = 8;
/// Slots in the wheel window (must be a multiple of 64 for the bitmap):
/// 4096 × 256 ns ≈ 1.05 ms of look-ahead before events overflow.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// Initial per-slot event capacity. Slot vectors keep their capacity
/// when drained, so pre-sizing them here makes the steady state
/// allocation-free at typical slot occupancy (the allocation-count
/// regression test pins this); busier slots grow once and stay grown.
const WHEEL_SLOT_PREALLOC: usize = 8;

/// One wheel slot: its pending events, sorted lazily (descending by
/// `(at, seq)`, so the minimum pops from the back) the first time the
/// slot is inspected after a push.
#[derive(Default)]
struct WheelSlot {
    events: Vec<TimerEvent>,
    sorted: bool,
}

/// A calendar-queue timer wheel.
///
/// Events within `WHEEL_SLOTS` slots of the window base live in their
/// slot's vector; farther events sit in an overflow list that is
/// re-distributed whenever the window advances past it. Every insert
/// satisfies `at > now` ([`Sleep`] short-circuits past deadlines), so an
/// event can never land behind the scan cursor, and per-slot lazy sorting
/// by `(at, seq)` reproduces the global heap order exactly.
struct TimingWheel {
    /// Absolute slot index (`t >> WHEEL_SHIFT`) of relative slot 0.
    base: u64,
    /// Relative slot of the last occupied position found; slots below it
    /// are empty. The scan resumes here.
    cursor: usize,
    slots: Vec<WheelSlot>,
    /// One bit per slot: set while the slot holds events.
    occupied: [u64; WHEEL_WORDS],
    /// Events at or beyond the window end, un-ordered.
    overflow: Vec<TimerEvent>,
    /// Minimum `at` in `overflow` (`u64::MAX` when empty), nanoseconds.
    overflow_min: u64,
    len: usize,
}

impl TimingWheel {
    fn new() -> Self {
        TimingWheel {
            base: 0,
            cursor: 0,
            slots: (0..WHEEL_SLOTS)
                .map(|_| WheelSlot {
                    events: Vec::with_capacity(WHEEL_SLOT_PREALLOC),
                    sorted: false,
                })
                .collect(),
            occupied: [0; WHEEL_WORDS],
            overflow: Vec::with_capacity(WHEEL_SLOT_PREALLOC),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    fn push(&mut self, ev: TimerEvent) {
        self.len += 1;
        let abs = ev.at.as_nanos() >> WHEEL_SHIFT;
        let rel = abs.wrapping_sub(self.base);
        if rel < WHEEL_SLOTS as u64 {
            let i = rel as usize;
            // A push can land behind the scan cursor (the cursor may sit
            // on a later slot after draining the current instant, or past
            // a `run_until` horizon stop) — pull the cursor back so the
            // scan never skips it.
            if i < self.cursor {
                self.cursor = i;
            }
            let slot = &mut self.slots[i];
            slot.events.push(ev);
            slot.sorted = false;
            self.occupied[i / 64] |= 1u64 << (i % 64);
        } else {
            self.overflow_min = self.overflow_min.min(ev.at.as_nanos());
            self.overflow.push(ev);
        }
    }

    /// First occupied slot at or after `from`, via the bitmap.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WHEEL_WORDS {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Re-anchor the (empty) window at the earliest overflow event and
    /// pull every overflow event that now fits into its slot.
    fn rebase(&mut self) {
        debug_assert!(self.overflow_min != u64::MAX);
        self.base = self.overflow_min >> WHEEL_SHIFT;
        self.cursor = 0;
        self.overflow_min = u64::MAX;
        // In-place partition (keeping the vector's capacity — the
        // steady state must not allocate). `swap_remove` reorders the
        // remainder, which is fine: overflow is unordered, and slots
        // sort lazily by the unique `(at, seq)` key before popping.
        let mut j = 0;
        while j < self.overflow.len() {
            let rel = (self.overflow[j].at.as_nanos() >> WHEEL_SHIFT).wrapping_sub(self.base);
            if rel < WHEEL_SLOTS as u64 {
                let ev = self.overflow.swap_remove(j);
                let i = rel as usize;
                let slot = &mut self.slots[i];
                slot.events.push(ev);
                slot.sorted = false;
                self.occupied[i / 64] |= 1u64 << (i % 64);
            } else {
                self.overflow_min = self.overflow_min.min(self.overflow[j].at.as_nanos());
                j += 1;
            }
        }
    }

    /// Sort the slot (descending, so the minimum is at the back) if a
    /// push landed since the last sort.
    fn ensure_sorted(slot: &mut WheelSlot) {
        if !slot.sorted {
            slot.events.sort_unstable_by_key(|ev| Reverse(ev.key()));
            slot.sorted = true;
        }
    }

    /// The earliest pending deadline, advancing the cursor (and, when the
    /// window is exhausted, the window itself) past empty slots.
    fn next_at(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(i) = self.next_occupied(self.cursor) {
                self.cursor = i;
                let slot = &mut self.slots[i];
                Self::ensure_sorted(slot);
                return Some(slot.events.last().expect("occupied slot empty").at);
            }
            self.rebase();
        }
    }

    /// Pop the earliest event iff its deadline is exactly `at`.
    ///
    /// Addresses `at`'s slot directly and leaves the cursor alone: `at`
    /// is always the instant `next_at` just returned, and moving the
    /// cursor here could stride past slots that later pushes target.
    fn pop_at(&mut self, at: SimTime) -> Option<TaskId> {
        let rel = (at.as_nanos() >> WHEEL_SHIFT).wrapping_sub(self.base);
        if rel >= WHEEL_SLOTS as u64 {
            return None;
        }
        let i = rel as usize;
        if self.occupied[i / 64] & (1u64 << (i % 64)) == 0 {
            return None;
        }
        let slot = &mut self.slots[i];
        Self::ensure_sorted(slot);
        if slot.events.last().map(|ev| ev.at) != Some(at) {
            return None;
        }
        let ev = slot.events.pop().expect("checked non-empty");
        if slot.events.is_empty() {
            self.occupied[i / 64] &= !(1u64 << (i % 64));
        }
        self.len -= 1;
        Some(ev.task)
    }
}

/// The pluggable timer queue: both variants pop in `(at, seq)` order.
enum TimerQueue {
    Wheel(Box<TimingWheel>),
    Heap(BinaryHeap<Reverse<TimerEvent>>),
}

impl TimerQueue {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Wheel => TimerQueue::Wheel(Box::new(TimingWheel::new())),
            SchedulerKind::Heap => TimerQueue::Heap(BinaryHeap::new()),
        }
    }

    fn push(&mut self, ev: TimerEvent) {
        match self {
            TimerQueue::Wheel(w) => w.push(ev),
            TimerQueue::Heap(h) => h.push(Reverse(ev)),
        }
    }

    fn next_at(&mut self) -> Option<SimTime> {
        match self {
            TimerQueue::Wheel(w) => w.next_at(),
            TimerQueue::Heap(h) => h.peek().map(|Reverse(ev)| ev.at),
        }
    }

    fn clear(&mut self) {
        match self {
            TimerQueue::Wheel(w) => **w = TimingWheel::new(),
            TimerQueue::Heap(h) => h.clear(),
        }
    }

    fn pop_at(&mut self, at: SimTime) -> Option<TaskId> {
        match self {
            TimerQueue::Wheel(w) => w.pop_at(at),
            TimerQueue::Heap(h) => {
                if matches!(h.peek(), Some(Reverse(ev)) if ev.at == at) {
                    Some(h.pop().expect("peeked timer vanished").0.task)
                } else {
                    None
                }
            }
        }
    }
}

/// Wakes a task by pushing its id onto the shared ready queue.
///
/// The queue is behind an [`UncontendedLock`] only because `std::task::Wake`
/// requires `Send + Sync`; the executor itself is strictly single-threaded,
/// so the lock is never contended.
struct TaskWaker {
    task: TaskId,
    ready: ReadyQueue,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.with(|q| q.push_back(self.task));
    }
}

/// A live task: its future plus the one waker allocated for it at spawn
/// merge (cloning a `Waker` is a reference-count bump, so re-arming
/// timers never allocates).
struct TaskEntry {
    fut: BoxedFuture,
    waker: Waker,
    /// A [`Sim::sleep_until_then`]'s `(first, then)` while its timer at
    /// `first` is pending: the task's first ready pop at or after `first`
    /// re-arms the timer at `then` instead of polling the task.
    rearm: Option<(SimTime, SimTime)>,
}

struct SimInner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    next_task: Cell<u64>,
    timers: RefCell<TimerQueue>,
    /// Task slab indexed by spawn index (a [`TaskId`]'s value). Completed
    /// tasks leave a `None` behind (slots are never reused — ids stay
    /// stable labels), so the hot-path lookup is one bounds-checked
    /// array index instead of a map walk.
    tasks: RefCell<Vec<Option<TaskEntry>>>,
    /// Tasks spawned while the executor is mid-poll; merged before each poll.
    incoming: RefCell<Vec<(TaskId, BoxedFuture)>>,
    /// Mirrors `!incoming.is_empty()` so the drain loop's per-poll check
    /// is one `Cell` read instead of a `RefCell` borrow.
    has_incoming: Cell<bool>,
    ready: ReadyQueue,
    live_tasks: Cell<usize>,
    /// The task the executor is currently polling; [`Sleep`] reads it to
    /// register its timer without touching the context waker.
    current: Cell<TaskId>,
    /// A two-instant [`Sleep`]'s `(first, then)`, registered by the poll in
    /// progress; the executor moves it into the task's entry after the
    /// poll (the slab stays borrowed while a task runs).
    armed: Cell<Option<(SimTime, SimTime)>>,
    /// Installed schedule policy; `None` keeps the raw FIFO fast path.
    policy: RefCell<Option<Box<dyn SchedulePolicy>>>,
    /// Mirrors `policy.is_some()` (one `Cell` read on the hot path).
    has_policy: Cell<bool>,
}

/// Handle to the simulation: clock, spawner, and event loop.
///
/// Cheap to clone; all clones share the same world.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at `t = 0` on the default
    /// (timing-wheel) scheduler.
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::default())
    }

    /// Create an empty simulation at `t = 0` on the given timer-queue
    /// implementation. Runs are bit-identical across kinds.
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        Sim {
            inner: Rc::new(SimInner {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                next_task: Cell::new(0),
                timers: RefCell::new(TimerQueue::new(kind)),
                tasks: RefCell::new(Vec::new()),
                incoming: RefCell::new(Vec::new()),
                has_incoming: Cell::new(false),
                ready: ReadyQueue::default(),
                live_tasks: Cell::new(0),
                current: Cell::new(TaskId(0)),
                armed: Cell::new(None),
                policy: RefCell::new(None),
                has_policy: Cell::new(false),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.live_tasks.get()
    }

    /// Total scheduling events sequenced so far (timers, wakeups,
    /// spawns). Monotone over the life of the simulation — the raw
    /// event-loop work metric the benchmark divides host time by for
    /// its ns/event figure.
    pub fn events_processed(&self) -> u64 {
        self.inner.seq.get()
    }

    /// Install a [`SchedulePolicy`] that resolves every subsequent choice
    /// point. Replaces any previously installed policy.
    pub fn set_schedule_policy(&self, policy: Box<dyn SchedulePolicy>) {
        *self.inner.policy.borrow_mut() = Some(policy);
        self.inner.has_policy.set(true);
    }

    fn next_seq(&self) -> u64 {
        let s = self.inner.seq.get();
        self.inner.seq.set(s + 1);
        s
    }

    /// Spawn a task. It is polled for the first time when the event loop
    /// next runs (immediately at the current virtual time).
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let id = TaskId(self.inner.next_task.get());
        self.inner.next_task.set(id.0 + 1);
        self.inner.incoming.borrow_mut().push((id, Box::pin(fut)));
        self.inner.has_incoming.set(true);
        self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
        self.inner.ready.with(|q| q.push_back(id));
        id
    }

    /// Future resolving at virtual instant `deadline` (immediately if the
    /// deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        self.sleep_until_then(deadline, deadline)
    }

    /// Future resolving once virtual instant `first` and then `then` have
    /// passed: `sleep_until(first).await; sleep_until(then).await` with the
    /// same timers, sequence numbers and [`Sim::events_processed`], but
    /// with the task polled once, at `then`, instead of at both instants
    /// (module docs). A `then` not after `first` resolves at `first`.
    pub fn sleep_until_then(&self, first: SimTime, then: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            first,
            deadline: then.max(first),
            registered: false,
        }
    }

    /// Future resolving after `dur` of virtual time.
    pub fn sleep(&self, dur: SimDur) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Run until no timers or runnable tasks remain.
    ///
    /// Returns the final virtual time.
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run until the event queue is exhausted or the next timer lies
    /// strictly after `horizon`. The clock never exceeds `horizon`.
    ///
    /// Returns the virtual time at which execution stopped.
    pub fn run_until(&self, horizon: SimTime) -> SimTime {
        loop {
            self.drain_ready();
            // All tasks quiescent: advance the clock to the next timer.
            let next = match self.inner.timers.borrow_mut().next_at() {
                Some(at) => at,
                None => break,
            };
            if next > horizon {
                break;
            }
            self.inner.now.set(next);
            // Fire every timer scheduled for this instant before polling, so
            // same-instant wakeups are processed in seq order. Timer wakes
            // bypass the waker vtable entirely: the event carries its task
            // id, which goes straight onto the ready queue.
            {
                let mut timers = self.inner.timers.borrow_mut();
                self.inner.ready.with(|ready| {
                    while let Some(task) = timers.pop_at(next) {
                        ready.push_back(task);
                    }
                });
            }
        }
        if horizon != SimTime::MAX && self.inner.now.get() < horizon {
            self.inner.now.set(horizon);
        }
        self.inner.now.get()
    }

    /// Drop every task, whether live or spawned and not yet polled, with
    /// every pending timer and queued wake.
    ///
    /// A task that never finishes — a closed-loop client, a chaos or WAL
    /// background task, a client parked while killed — holds a clone of
    /// its `Sim`, and the `Sim` owns the task, so without this the two
    /// keep each other, and everything the task holds, alive after the
    /// last handle is dropped. Call it once every result of a run has
    /// been read, and not from inside a task. [`Sim::now`] and
    /// [`Sim::events_processed`] keep their values; a task spawned
    /// afterwards runs as usual.
    pub fn shutdown(&self) {
        // The tasks leave the slab before they drop: their drop glue may
        // wake other tasks (`ObtainSlot`, `CpuGrant`).
        let tasks = std::mem::take(&mut *self.inner.tasks.borrow_mut());
        let incoming = std::mem::take(&mut *self.inner.incoming.borrow_mut());
        self.inner.has_incoming.set(false);
        self.inner.live_tasks.set(0);
        drop((tasks, incoming));
        self.inner.timers.borrow_mut().clear();
        // Last, so that the wakes the drop glue queued go too.
        self.inner.ready.with(VecDeque::clear);
    }

    /// Poll every ready task until the ready queue is empty.
    ///
    /// The task map stays borrowed across a poll: nothing a task can
    /// reach re-borrows it (spawns land in `incoming`, timers in
    /// `timers`, wakes in `ready`), and holding the borrow lets each
    /// poll run in place with the task's cached waker — no per-poll
    /// allocation or map churn.
    fn drain_ready(&self) {
        loop {
            // Merge tasks spawned during the previous polls.
            if self.inner.has_incoming.get() {
                self.inner.has_incoming.set(false);
                let mut incoming = self.inner.incoming.borrow_mut();
                let mut tasks = self.inner.tasks.borrow_mut();
                for (id, fut) in incoming.drain(..) {
                    let waker = Waker::from(Arc::new(TaskWaker {
                        task: id,
                        ready: Arc::clone(&self.inner.ready),
                    }));
                    let slot = id.0 as usize;
                    if tasks.len() <= slot {
                        tasks.resize_with(slot + 1, || None);
                    }
                    tasks[slot] = Some(TaskEntry {
                        fut,
                        waker,
                        rearm: None,
                    });
                }
            }
            let id = if self.inner.has_policy.get() {
                match self.next_via_policy() {
                    Some(id) => id,
                    None => return,
                }
            } else {
                match self.inner.ready.with(|q| q.pop_front()) {
                    Some(id) => id,
                    None => return,
                }
            };
            let done = {
                let mut tasks = self.inner.tasks.borrow_mut();
                // The task may have completed already (spurious wake) — skip.
                // (With a policy installed the candidate list is pre-filtered,
                // so this never triggers on that path.)
                let Some(entry) = tasks.get_mut(id.0 as usize).and_then(Option::as_mut) else {
                    continue;
                };
                if let Some((first, then)) = entry.rearm {
                    // Its timer at `first` has fired: that pop comes
                    // before any wake at the same instant. The poll a
                    // second `sleep_until` would cost draws its timer's
                    // sequence number here (`then > first`, or `Sleep`
                    // would not have armed).
                    if self.inner.now.get() >= first {
                        entry.rearm = None;
                        let seq = self.next_seq();
                        let ev = TimerEvent {
                            at: then,
                            seq,
                            task: id,
                        };
                        self.inner.timers.borrow_mut().push(ev);
                        continue;
                    }
                }
                self.inner.current.set(id);
                let mut cx = Context::from_waker(&entry.waker);
                let done = entry.fut.as_mut().poll(&mut cx).is_ready();
                if let Some(armed) = self.inner.armed.take() {
                    entry.rearm = Some(armed);
                }
                done
            };
            if done {
                // Remove outside the poll borrow; drop the future after
                // releasing the slab (its drop glue may wake other tasks).
                let entry = self.inner.tasks.borrow_mut()[id.0 as usize].take();
                self.inner.live_tasks.set(self.inner.live_tasks.get() - 1);
                drop(entry);
            }
        }
    }

    /// Resolve the next task to poll through the installed policy.
    ///
    /// Builds the duplicate-free list of *live* ready tasks in wake order.
    /// Two or more candidates form a choice point and the policy picks;
    /// one candidate is a forced move; zero means every queued entry was a
    /// stale wake for a completed task, so the drain is over. The chosen
    /// task's first queue occurrence is consumed — this yields exactly the
    /// poll sequence the uncontrolled path produces when the policy always
    /// answers `0` (see [`FifoPolicy`]).
    fn next_via_policy(&self) -> Option<TaskId> {
        self.inner.ready.with(|ready| {
            let candidates: Vec<TaskId> = {
                let tasks = self.inner.tasks.borrow();
                let mut seen = Vec::new();
                for &id in ready.iter() {
                    let live = tasks.get(id.0 as usize).is_some_and(Option::is_some);
                    if live && !seen.contains(&id) {
                        seen.push(id);
                    }
                }
                seen
            };
            let chosen = match candidates.len() {
                0 => {
                    ready.clear();
                    return None;
                }
                1 => candidates[0],
                n => {
                    let mut policy = self.inner.policy.borrow_mut();
                    let p = policy.as_mut().expect("policy removed mid-drain");
                    let i = p.choose(self.inner.now.get(), &candidates);
                    assert!(i < n, "SchedulePolicy chose index {i} of {n} candidates");
                    candidates[i]
                }
            };
            let pos = ready
                .iter()
                .position(|&id| id == chosen)
                .expect("chosen task vanished from ready queue");
            ready.remove(pos);
            Some(chosen)
        })
    }
}

/// Timer future created by [`Sim::sleep_until`] and
/// [`Sim::sleep_until_then`] (`first == deadline` for the former).
pub struct Sleep {
    sim: Sim,
    first: SimTime,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let inner = &this.sim.inner;
        let now = inner.now.get();
        if now >= this.deadline {
            return Poll::Ready(());
        }
        if !this.registered {
            this.registered = true;
            let seq = this.sim.next_seq();
            // Register the *task*, not the context waker: `Sleep` is only
            // ever polled by this executor (the workspace has no
            // waker-wrapping combinators), so waking the owning task is
            // exactly what waking the context waker would do — minus the
            // clone, the allocation-backed vtable hop, and the
            // reference-count traffic.
            let task = inner.current.get();
            // A first instant still ahead carries the timer, and the
            // executor re-arms it at the deadline.
            let at = if now < this.first && this.first < this.deadline {
                inner.armed.set(Some((this.first, this.deadline)));
                this.first
            } else {
                this.deadline
            };
            inner.timers.borrow_mut().push(TimerEvent { at, seq, task });
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let s = sim.clone();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        sim.spawn(async move {
            s.sleep(SimDur::from_micros(10)).await;
            assert_eq!(s.now().as_micros(), 10);
            h.set(true);
        });
        let end = sim.run();
        assert!(hit.get());
        assert_eq!(end.as_micros(), 10);
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(delay)).await;
                l.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_fires_in_spawn_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["x", "y", "z"] {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(5)).await;
                l.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["x", "y", "z"]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Sim::new();
        let s = sim.clone();
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        sim.spawn(async move {
            for _ in 0..10 {
                s.sleep(SimDur::from_micros(10)).await;
                h.set(h.get() + 1);
            }
        });
        let end = sim.run_until(SimTime::from_micros(35));
        assert_eq!(hits.get(), 3); // 10, 20, 30 fired; 40 lies past horizon
        assert_eq!(end.as_micros(), 35);
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn spawn_from_within_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        sim.spawn(async move {
            let s2 = s.clone();
            s.sleep(SimDur::from_micros(1)).await;
            s.spawn(async move {
                s2.sleep(SimDur::from_micros(1)).await;
                h.set(true);
            });
        });
        sim.run();
        assert!(hit.get());
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn sleep_until_past_deadline_is_immediate() {
        let sim = Sim::new();
        let s = sim.clone();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        sim.spawn(async move {
            s.sleep(SimDur::from_micros(10)).await;
            o.borrow_mut().push("slept");
            s.sleep_until(SimTime::from_micros(5)).await; // already passed
            o.borrow_mut().push("immediate");
            assert_eq!(s.now().as_micros(), 10);
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["slept", "immediate"]);
    }

    /// Always picks the last candidate — the adversarial mirror of FIFO.
    struct ReversePolicy;
    impl SchedulePolicy for ReversePolicy {
        fn choose(&mut self, _now: SimTime, ready: &[TaskId]) -> usize {
            ready.len() - 1
        }
    }

    /// Records every candidate list it is offered, then plays FIFO.
    struct ProbePolicy {
        #[allow(clippy::type_complexity)]
        seen: Rc<RefCell<Vec<(SimTime, Vec<TaskId>)>>>,
    }
    impl SchedulePolicy for ProbePolicy {
        fn choose(&mut self, now: SimTime, ready: &[TaskId]) -> usize {
            self.seen.borrow_mut().push((now, ready.to_vec()));
            0
        }
    }

    fn interleave_log_on(kind: SchedulerKind, policy: Option<Box<dyn SchedulePolicy>>) -> Vec<u64> {
        let sim = Sim::with_scheduler(kind);
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..40u64 {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_nanos(i % 5 * 100)).await;
                s.sleep(SimDur::from_nanos(i % 3 * 50)).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        let result = log.borrow().clone();
        result
    }

    fn interleave_log(policy: Option<Box<dyn SchedulePolicy>>) -> Vec<u64> {
        interleave_log_on(SchedulerKind::default(), policy)
    }

    #[test]
    fn fifo_policy_is_bit_identical_to_uncontrolled() {
        assert_eq!(
            interleave_log(None),
            interleave_log(Some(Box::new(FifoPolicy)))
        );
    }

    #[test]
    fn wheel_and_heap_schedulers_are_bit_identical() {
        assert_eq!(
            interleave_log_on(SchedulerKind::Wheel, None),
            interleave_log_on(SchedulerKind::Heap, None)
        );
    }

    /// Deadlines far beyond the wheel window (overflow list, several
    /// rebases) and dense near deadlines interleave identically on both
    /// queue implementations.
    #[test]
    fn wheel_overflow_matches_heap_order() {
        let run = |kind: SchedulerKind| {
            let sim = Sim::with_scheduler(kind);
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..60u64 {
                let s = sim.clone();
                let l = log.clone();
                sim.spawn(async move {
                    // A mix of sub-slot, in-window, and multi-window sleeps
                    // (the wheel window is ~1 ms).
                    let nanos = match i % 4 {
                        0 => i * 7,                   // same-slot ties
                        1 => 10_000 + i * 131,        // in-window
                        2 => 3_000_000 + i * 977,     // ~3 ms: overflow
                        _ => 9_000_000 + (i % 3) * 5, // ~9 ms: deep overflow ties
                    };
                    s.sleep(SimDur::from_nanos(nanos)).await;
                    s.sleep(SimDur::from_nanos(i % 5 * 60)).await;
                    l.borrow_mut().push(i);
                });
            }
            sim.run();
            let result = log.borrow().clone();
            result
        };
        let wheel = run(SchedulerKind::Wheel);
        let heap = run(SchedulerKind::Heap);
        assert_eq!(wheel, heap);
        assert_eq!(wheel.len(), 60);
    }

    #[test]
    fn policy_reorders_same_instant_ties_only() {
        let fifo = interleave_log(None);
        let rev = interleave_log(Some(Box::new(ReversePolicy)));
        // The adversary produces a different interleaving...
        assert_ne!(fifo, rev);
        // ...but the same set of completions.
        let mut a = fifo.clone();
        let mut b = rev.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    /// Regression pin for same-instant `TimerEvent` wake ordering: two
    /// timers armed for the same deadline from different tasks wake in
    /// *registration* (global seq) order, and a task whose timer fires
    /// later — or that was registered at a later virtual time — can never
    /// be offered to the policy before its own timer has fired. The
    /// policy may reorder *polls* among woken tasks, but never the wake
    /// enqueue order itself.
    #[test]
    fn same_instant_timer_wakes_cannot_invert_causally() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        sim.set_schedule_policy(Box::new(ProbePolicy { seen: seen.clone() }));
        // Task A arms its deadline-100 timer at t=10; task B arms its own
        // deadline-100 timer at t=20; task C sleeps until 150.
        let ids: Vec<TaskId> = [(10u64, 100u64), (20, 100), (150, 150)]
            .into_iter()
            .map(|(first, last)| {
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep_until(SimTime::from_nanos(first)).await;
                    s.sleep_until(SimTime::from_nanos(last)).await;
                })
            })
            .collect();
        sim.run();
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let seen = seen.borrow();
        // The instant-100 choice point offers A before B (A's timer was
        // registered first) and never contains C (its timer is still
        // pending).
        let at_100: Vec<_> = seen.iter().filter(|(t, _)| t.as_nanos() == 100).collect();
        assert!(!at_100.is_empty(), "no choice point at t=100");
        for (_, cands) in &at_100 {
            assert!(!cands.contains(&c), "unwoken task offered to the policy");
            if let (Some(pa), Some(pb)) = (
                cands.iter().position(|&x| x == a),
                cands.iter().position(|&x| x == b),
            ) {
                assert!(pa < pb, "same-instant timer wakes inverted: {cands:?}");
            }
        }
        // And while C's timer is pending (registered at its t=0 spawn
        // poll, fires at 150) no choice point ever offers C.
        for (t, cands) in seen.iter() {
            if cands.contains(&c) {
                assert!(
                    t.as_nanos() == 0 || t.as_nanos() >= 150,
                    "task C offered at t={t:?} while its timer was pending"
                );
            }
        }
    }

    /// A task that never finishes, holding a clone of its `Sim`, keeps
    /// itself alive until `shutdown` drops it; afterwards the clock and
    /// the event count stand, and the `Sim` runs new tasks.
    #[test]
    fn shutdown_drops_tasks_that_never_finish() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let sim = Sim::with_scheduler(kind);
            let witness = Rc::new(());
            for delay in [3u64, 5_000_000] {
                let (s, w) = (sim.clone(), witness.clone());
                sim.spawn(async move {
                    let _w = w;
                    loop {
                        s.sleep(SimDur::from_nanos(delay)).await;
                    }
                });
            }
            // A task parked on a wake that never comes.
            let w = witness.clone();
            sim.spawn(async move {
                let _w = w;
                std::future::pending::<()>().await;
            });
            sim.run_until(SimTime::from_micros(10));
            // Spawned, never polled.
            let w = witness.clone();
            sim.spawn(async move { drop(w) });
            let (now, events) = (sim.now(), sim.events_processed());
            assert_eq!(Rc::strong_count(&witness), 5);
            sim.shutdown();
            assert_eq!(Rc::strong_count(&witness), 1, "a task outlived shutdown");
            assert_eq!(sim.live_tasks(), 0);
            assert_eq!((sim.now(), sim.events_processed()), (now, events));
            assert_eq!(
                sim.run_until(SimTime::from_millis(20)),
                SimTime::from_millis(20)
            );
            let hit = Rc::new(Cell::new(false));
            let (s, h) = (sim.clone(), hit.clone());
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(1)).await;
                h.set(true);
            });
            sim.run();
            assert!(hit.get());
            assert_eq!(sim.live_tasks(), 0);
        }
    }

    /// How a task waits for two instants in [`fused_mix`].
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Wait {
        TwoSleeps,
        Fused,
    }

    /// Forty tasks, each waiting three times for two instants `a <= b`
    /// (`a` at or after now, `a == b` in a third of the waits), beside ten
    /// tasks of plain sleeps landing on the same instants, and a waker
    /// that wakes every fourth task at instants before, at, between and
    /// after its two. Returns each task's `(task, instant)` log of its
    /// resumptions in global order, and the events sequenced.
    fn fused_mix(
        kind: SchedulerKind,
        policy: Option<Box<dyn SchedulePolicy>>,
        wait: Wait,
    ) -> (Vec<(u64, u64)>, u64) {
        let sim = Sim::with_scheduler(kind);
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let wakers: Rc<RefCell<Vec<Waker>>> = Rc::default();
        for i in 0..40u64 {
            let (s, l, w) = (sim.clone(), log.clone(), wakers.clone());
            sim.spawn(async move {
                if i % 4 == 0 {
                    std::future::poll_fn(|cx| {
                        w.borrow_mut().push(cx.waker().clone());
                        Poll::Ready(())
                    })
                    .await;
                }
                for round in 0..3 {
                    let a = s.now() + SimDur::from_nanos((i + round) % 4 * 100);
                    let b = a + SimDur::from_nanos((i + round) % 3 * 50);
                    match wait {
                        Wait::TwoSleeps => {
                            s.sleep_until(a).await;
                            s.sleep_until(b).await;
                        }
                        Wait::Fused => s.sleep_until_then(a, b).await,
                    }
                    l.borrow_mut().push((i, s.now().as_nanos()));
                }
            });
        }
        for i in 40..50u64 {
            let (s, l) = (sim.clone(), log.clone());
            sim.spawn(async move {
                for _ in 0..4 {
                    s.sleep(SimDur::from_nanos(i % 5 * 50)).await;
                    l.borrow_mut().push((i, s.now().as_nanos()));
                }
            });
        }
        let s = sim.clone();
        sim.spawn(async move {
            for t in [50u64, 100, 125, 150, 175, 200, 300, 400] {
                s.sleep_until(SimTime::from_nanos(t)).await;
                wakers.borrow().iter().for_each(Waker::wake_by_ref);
            }
        });
        sim.run();
        let log = log.borrow().clone();
        (log, sim.events_processed())
    }

    /// A two-instant sleep resumes every task at the instant and in the
    /// order two sleeps do, with as many events, on either timer queue,
    /// with or without a policy, past spurious wakes at any instant.
    #[test]
    fn a_fused_sleep_schedules_exactly_as_two_sleeps() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let policies = || -> [Option<Box<dyn SchedulePolicy>>; 2] {
                [None, Some(Box::new(ReversePolicy))]
            };
            for (two, fused) in policies().into_iter().zip(policies()) {
                let reverse = two.is_some();
                let want = fused_mix(kind, two, Wait::TwoSleeps);
                assert_eq!(want.0.len(), 40 * 3 + 10 * 4);
                assert_eq!(
                    fused_mix(kind, fused, Wait::Fused),
                    want,
                    "{kind:?}, reverse policy: {reverse}"
                );
            }
        }
        // The policy does reorder ties, so the mix has some.
        let fifo = fused_mix(SchedulerKind::Wheel, None, Wait::Fused);
        let rev = fused_mix(
            SchedulerKind::Wheel,
            Some(Box::new(ReversePolicy)),
            Wait::Fused,
        );
        assert_ne!(fifo.0, rev.0);
    }

    /// Polls of a task that sleeps until `a` and then `b`, given as
    /// nanoseconds, starting at `start`; and the instant it resumes.
    fn polls_for(wait: Wait, start: u64, a: u64, b: u64) -> (u32, u64) {
        let sim = Sim::new();
        let polls = Rc::new(Cell::new(0));
        let s = sim.clone();
        let mut body = Box::pin(async move {
            s.sleep_until(SimTime::from_nanos(start)).await;
            let (a, b) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            match wait {
                Wait::TwoSleeps => {
                    s.sleep_until(a).await;
                    s.sleep_until(b).await;
                }
                Wait::Fused => s.sleep_until_then(a, b).await,
            }
        });
        let p = polls.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            body.as_mut().poll(cx)
        }));
        let end = sim.run().as_nanos();
        (polls.get(), end)
    }

    /// The fused sleep saves the poll at `a` when `b` lies after it, and
    /// is a plain sleep when `a` is past at registration or `a == b`;
    /// a `b` before `a` resolves at `a`, as two sleeps do.
    #[test]
    fn a_fused_sleep_polls_its_task_once_per_wait() {
        // Spawn poll, the poll at `start`, then one at `b` (and at `a`).
        assert_eq!(polls_for(Wait::Fused, 10, 20, 30), (3, 30));
        assert_eq!(polls_for(Wait::TwoSleeps, 10, 20, 30), (4, 30));
        for (a, b) in [(5, 30), (10, 30), (20, 20), (30, 20)] {
            let two = polls_for(Wait::TwoSleeps, 10, a, b);
            assert_eq!(polls_for(Wait::Fused, 10, a, b), two, "a {a}, b {b}");
        }
    }

    /// `shutdown` with a fused sleep's first timer pending, or its second
    /// armed, leaves no timer behind: the clock and the event count stand
    /// through a later `run`, and the `Sim` runs new tasks.
    #[test]
    fn shutdown_leaves_no_fused_timer_behind() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            for horizon in [5u64, 10, 15] {
                let sim = Sim::with_scheduler(kind);
                let s = sim.clone();
                sim.spawn(async move {
                    let (a, b) = (SimTime::from_nanos(10), SimTime::from_nanos(20));
                    s.sleep_until_then(a, b).await;
                    unreachable!("shut down before {b:?}");
                });
                sim.run_until(SimTime::from_nanos(horizon));
                let events = sim.events_processed();
                assert_eq!(events, 1 + u64::from(horizon >= 10));
                sim.shutdown();
                assert_eq!(sim.run().as_nanos(), horizon, "a timer survived");
                assert_eq!(sim.events_processed(), events);
                let hit = Rc::new(Cell::new(false));
                let (s, h) = (sim.clone(), hit.clone());
                sim.spawn(async move {
                    s.sleep_until_then(SimTime::from_nanos(30), SimTime::from_nanos(40))
                        .await;
                    h.set(true);
                });
                assert_eq!(sim.run().as_nanos(), 40);
                assert!(hit.get());
                assert_eq!(sim.live_tasks(), 0);
            }
        }
    }

    #[test]
    fn many_tasks_deterministic() {
        let run = || {
            let sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..100u64 {
                let s = sim.clone();
                let l = log.clone();
                sim.spawn(async move {
                    s.sleep(SimDur::from_nanos(i % 7 * 100)).await;
                    s.sleep(SimDur::from_nanos(i % 3 * 50)).await;
                    l.borrow_mut().push(i);
                });
            }
            sim.run();
            let result = log.borrow().clone();
            result
        };
        assert_eq!(run(), run());
    }
}
