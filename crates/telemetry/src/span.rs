//! Causal op spans: virtual-time breakdown of one index operation.
//!
//! A span opens at `on_op_start` and closes at `on_op_end`. Between the
//! two, every observer event the client produces advances an
//! *attribution cursor*: the segment `[cursor, event time]` is split
//! among the breakdown components and the cursor moves to the event
//! time. At close, the residue `[cursor, end]` is attributed to client
//! compute. Because every attributed segment is a disjoint slice of
//! `[start, end]` and the split of each segment is clamped to its
//! length, the components sum *exactly* to the op's measured latency —
//! the invariant `Breakdown::total() == end - start` holds by
//! construction and is asserted by the telemetry layer.
//!
//! Attribution rules, in order:
//! 1. While a protocol region (lock wait, backoff) is open, the region
//!    claims every segment whole — time spent spinning on a lock is
//!    lock-wait even though it is physically wire time of the re-read
//!    verbs.
//! 2. Otherwise a verb/RPC completion splits its segment as: time
//!    before the verb was issued → `Compute`; then, of the remainder,
//!    up to the reported NIC/CPU queueing → `NicQueue`, up to the
//!    reported handler occupancy → `Server`, and the rest → `Wire`.
//! 3. A charged verb failure (timeout park, unreachable detection)
//!    attributes its segment to `Stall`.

use rdma_sim::observer::{OpKind, RegionKind};

/// One component of an op's virtual-time breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Wire occupancy + propagation of successful verbs/RPCs.
    Wire,
    /// Waiting behind other traffic: NIC FIFO backlog and RPC-core queues.
    NicQueue,
    /// RPC handler core occupancy (server compute).
    Server,
    /// Spinning on a locked/contended node.
    LockWait,
    /// Exponential backoff between op attempts.
    Backoff,
    /// Failure charges: timeout parks and unreachable-detection round trips.
    Stall,
    /// Client-side compute (everything between verbs).
    Compute,
}

/// All components, in serialization order.
pub const COMPONENTS: [Component; 7] = [
    Component::Wire,
    Component::NicQueue,
    Component::Server,
    Component::LockWait,
    Component::Backoff,
    Component::Stall,
    Component::Compute,
];

impl Component {
    /// Stable snake_case label (used for metric and trace-arg names).
    pub fn label(self) -> &'static str {
        match self {
            Component::Wire => "wire",
            Component::NicQueue => "nic_queue",
            Component::Server => "server",
            Component::LockWait => "lock_wait",
            Component::Backoff => "backoff",
            Component::Stall => "stall",
            Component::Compute => "compute",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::Wire => 0,
            Component::NicQueue => 1,
            Component::Server => 2,
            Component::LockWait => 3,
            Component::Backoff => 4,
            Component::Stall => 5,
            Component::Compute => 6,
        }
    }
}

impl From<RegionKind> for Component {
    fn from(r: RegionKind) -> Self {
        match r {
            RegionKind::LockWait => Component::LockWait,
            RegionKind::Backoff => Component::Backoff,
        }
    }
}

/// Virtual-time breakdown of one op, nanoseconds per component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    nanos: [u64; 7],
}

impl Breakdown {
    /// Add `n` nanoseconds to component `c`.
    pub fn add(&mut self, c: Component, n: u64) {
        self.nanos[c.index()] += n;
    }

    /// Nanoseconds attributed to component `c`.
    pub fn get(&self, c: Component) -> u64 {
        self.nanos[c.index()]
    }

    /// Sum over all components.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// One open op span (per client; ops do not overlap within a client).
#[derive(Debug)]
pub struct OpSpan {
    /// What the op is.
    pub kind: OpKind,
    /// Virtual start time, nanoseconds.
    pub start: u64,
    /// Attribution frontier: everything in `[start, cursor)` is already
    /// attributed.
    pub cursor: u64,
    /// Accumulated breakdown.
    pub breakdown: Breakdown,
    /// Open protocol region, if any (rule 1 above).
    pub region: Option<RegionKind>,
}

impl OpSpan {
    /// Open a span at virtual time `start`.
    pub fn new(kind: OpKind, start: u64) -> Self {
        OpSpan {
            kind,
            start,
            cursor: start,
            breakdown: Breakdown::default(),
            region: None,
        }
    }

    /// Attribute `[cursor, time]` wholly to `c` and advance the cursor.
    pub fn attribute_all(&mut self, time: u64, c: Component) {
        if time > self.cursor {
            self.breakdown.add(c, time - self.cursor);
            self.cursor = time;
        }
    }

    /// Attribute `[cursor, time]` for a successful verb/RPC completion
    /// (rules 1–2): `issued` is when the client issued it, `queue` the
    /// reported queueing nanos, `server` the reported handler-occupancy
    /// nanos (zero for one-sided verbs).
    pub fn attribute_verb(&mut self, issued: u64, time: u64, queue: u64, server: u64) {
        if time <= self.cursor {
            return;
        }
        if let Some(r) = self.region {
            self.attribute_all(time, r.into());
            return;
        }
        let seg = time - self.cursor;
        let pre = issued.saturating_sub(self.cursor).min(seg);
        let mut rest = seg - pre;
        self.breakdown.add(Component::Compute, pre);
        let q = queue.min(rest);
        rest -= q;
        self.breakdown.add(Component::NicQueue, q);
        let sv = server.min(rest);
        rest -= sv;
        self.breakdown.add(Component::Server, sv);
        self.breakdown.add(Component::Wire, rest);
        self.cursor = time;
    }

    /// Attribute `[cursor, time]` for a charged failure (rule 3).
    pub fn attribute_failure(&mut self, time: u64) {
        let c = self.region.map(Component::from).unwrap_or(Component::Stall);
        self.attribute_all(time, c);
    }

    /// Close the span at `time`: attribute the residue to compute (or
    /// the open region, defensively) and return the total latency.
    pub fn close(&mut self, time: u64) -> u64 {
        let c = self
            .region
            .map(Component::from)
            .unwrap_or(Component::Compute);
        self.attribute_all(time, c);
        time - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_exactly_by_construction() {
        let mut s = OpSpan::new(OpKind::Lookup, 100);
        // Verb issued at 120 (20ns compute), queued 30ns, completes at 200.
        s.attribute_verb(120, 200, 30, 0);
        assert_eq!(s.breakdown.get(Component::Compute), 20);
        assert_eq!(s.breakdown.get(Component::NicQueue), 30);
        assert_eq!(s.breakdown.get(Component::Wire), 50);
        // Lock-wait region claims everything inside it.
        s.region = Some(RegionKind::LockWait);
        s.attribute_verb(210, 400, 500, 0); // queue larger than segment
        assert_eq!(s.breakdown.get(Component::LockWait), 200);
        s.region = None;
        // Failure charge.
        s.attribute_failure(450);
        assert_eq!(s.breakdown.get(Component::Stall), 50);
        let total = s.close(500);
        assert_eq!(total, 400);
        assert_eq!(s.breakdown.total(), total);
        assert_eq!(s.breakdown.get(Component::Compute), 20 + 50);
    }

    #[test]
    fn clamps_overreported_queue_and_server() {
        let mut s = OpSpan::new(OpKind::Insert, 0);
        // Segment of 10ns but queue+server report 100ns: clamp, never
        // exceed the segment.
        s.attribute_verb(0, 10, 60, 40);
        assert_eq!(s.breakdown.total(), 10);
        assert_eq!(s.breakdown.get(Component::NicQueue), 10);
        assert_eq!(s.breakdown.get(Component::Server), 0);
    }

    #[test]
    fn stale_event_is_a_no_op() {
        let mut s = OpSpan::new(OpKind::Range, 50);
        s.attribute_verb(0, 40, 5, 0); // completion before span start
        assert_eq!(s.breakdown.total(), 0);
        assert_eq!(s.cursor, 50);
    }
}
