//! History recording: op start/end events off the observer bus.
//!
//! The recorder implements [`VerbObserver`] and subscribes to the
//! cluster's always-compiled observation hooks; the index layer reports
//! every `Design::{lookup, range, insert, delete}` invocation
//! ([`rdma_sim::OpArgs`]) and its result ([`rdma_sim::OpOutcome`]).
//! Each client runs its ops sequentially, so one pending slot per
//! client suffices; an op whose response never arrives (the client was
//! killed mid-await and its task cancelled) is closed out as
//! [`OpOutcome::Failed`] with an open-ended response time, which the
//! linearizability checker treats as "may or may not have taken
//! effect".

use rdma_sim::observer::{OpArgs, OpKind, OpOutcome, VerbEvent, VerbObserver};
use rdma_sim::Cluster;
use simnet::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One index-level operation with its concurrency window.
#[derive(Clone, Debug)]
pub struct Event {
    /// Issuing client (endpoint id).
    pub client: u64,
    /// Operation and arguments.
    pub args: OpArgs,
    /// Result; [`OpOutcome::Failed`] means indeterminate effects.
    pub outcome: OpOutcome,
    /// Virtual time of the invocation.
    pub invoke: SimTime,
    /// Virtual time the result returned to the caller;
    /// [`SimTime::MAX`] when it never did (the op is *pending*).
    pub response: SimTime,
}

#[derive(Default)]
struct Inner {
    pending: BTreeMap<u64, (OpArgs, SimTime)>,
    events: Vec<Event>,
}

/// Observer that turns op start/end notes carrying arguments and
/// outcomes into a history.
pub struct HistoryRecorder {
    state: RefCell<Inner>,
}

impl HistoryRecorder {
    /// Build a recorder and register it on `cluster`'s observer bus.
    pub fn install(cluster: &Cluster) -> Rc<HistoryRecorder> {
        let rec = Rc::new(HistoryRecorder {
            state: RefCell::new(Inner::default()),
        });
        cluster.add_observer(rec.clone());
        rec
    }

    /// The recorded history: completed events in response order, then
    /// any still-pending invocations closed out as `Failed` with an
    /// open-ended (`SimTime::MAX`) response.
    pub fn history(&self) -> Vec<Event> {
        let st = self.state.borrow();
        let mut events = st.events.clone();
        for (&client, &(args, invoke)) in &st.pending {
            events.push(Event {
                client,
                args,
                outcome: OpOutcome::Failed,
                invoke,
                response: SimTime::MAX,
            });
        }
        events
    }

    /// Number of completed events recorded so far.
    pub fn len(&self) -> usize {
        self.state.borrow().events.len()
    }

    /// Whether no event has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl VerbObserver for HistoryRecorder {
    fn on_verb(&self, _ev: &VerbEvent) {}

    fn on_free(&self, _server: usize, _offset: u64, _len: usize, _time: SimTime) {}

    fn on_op_start(&self, client: u64, _kind: OpKind, args: Option<OpArgs>, time: SimTime) {
        let Some(args) = args else { return };
        let prev = self.state.borrow_mut().pending.insert(client, (args, time));
        debug_assert!(prev.is_none(), "client {client} has overlapping ops");
    }

    fn on_op_end(
        &self,
        client: u64,
        _kind: OpKind,
        _ok: bool,
        outcome: Option<&OpOutcome>,
        time: SimTime,
    ) {
        let Some(outcome) = outcome else { return };
        let mut st = self.state.borrow_mut();
        if let Some((args, invoke)) = st.pending.remove(&client) {
            st.events.push(Event {
                client,
                args,
                outcome: outcome.clone(),
                invoke,
                response: time,
            });
        }
    }
}
