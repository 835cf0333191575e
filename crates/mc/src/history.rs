//! History recording: each index op's invoke/response window, taken
//! where the scenario issues the op.
//!
//! [`History::record`] wraps one `Design::{lookup, range, insert,
//! delete}` call with its arguments ([`OpArgs`]) and maps its result to
//! an [`OpOutcome`]. It stamps the invoke time before the op's first
//! poll and the response time once the result is in: the virtual
//! instants at which the design's observer bracket fires. Each client
//! runs its ops sequentially, so one pending slot per client suffices;
//! an op whose response never arrives (the client was killed mid-await
//! and its task cancelled) is closed out as [`OpOutcome::Failed`] with
//! an open-ended response time, which the linearizability checker
//! treats as "may or may not have taken effect".

use simnet::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;

/// Arguments of an index-level operation. Keys and values are the
/// plain `u64`s of the simulated index API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpArgs {
    /// Point lookup of `key`.
    Lookup {
        /// Key probed.
        key: u64,
    },
    /// Range scan over `[lo, hi]` inclusive.
    Range {
        /// Low key (inclusive).
        lo: u64,
        /// High key (inclusive).
        hi: u64,
    },
    /// Insert of `(key, value)`.
    Insert {
        /// Key inserted.
        key: u64,
        /// Value inserted.
        value: u64,
    },
    /// Delete of `key`.
    Delete {
        /// Key deleted.
        key: u64,
    },
}

/// Result of an index-level operation, as returned to its caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Lookup returned the value (or `None` if the key was absent).
    Lookup(Option<u64>),
    /// Range scan returned these rows, in key order.
    Range(Vec<(u64, u64)>),
    /// Insert succeeded.
    Insert,
    /// Delete returned whether a live entry was removed.
    Delete(bool),
    /// The operation returned an error; its effects are indeterminate
    /// (it may or may not have been applied).
    Failed,
}

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

/// The ops of one run, completed and pending.
#[derive(Default)]
pub struct History {
    /// Each client's op in flight, already closed out as `Failed` at
    /// [`SimTime::MAX`] in case its response never arrives.
    pending: RefCell<BTreeMap<u64, Event>>,
    events: RefCell<Vec<Event>>,
}

impl History {
    /// Run `op`, which `client` issues with `args`, and record its
    /// window. `outcome` maps a successful result; an error records
    /// [`OpOutcome::Failed`].
    pub async fn record<T, E>(
        &self,
        sim: &Sim,
        client: u64,
        args: OpArgs,
        op: impl Future<Output = Result<T, E>>,
        outcome: impl FnOnce(&T) -> OpOutcome,
    ) -> Result<T, E> {
        let open = Event {
            client,
            args,
            outcome: OpOutcome::Failed,
            invoke: sim.now(),
            response: SimTime::MAX,
        };
        let prev = self.pending.borrow_mut().insert(client, open);
        debug_assert!(prev.is_none(), "client {client} has overlapping ops");
        let res = op.await;
        if let Some(mut ev) = self.pending.borrow_mut().remove(&client) {
            ev.outcome = res.as_ref().map_or(OpOutcome::Failed, outcome);
            ev.response = sim.now();
            self.events.borrow_mut().push(ev);
        }
        res
    }

    /// The recorded history: completed events in response order, then
    /// the ops still in flight, by client.
    pub fn history(&self) -> Vec<Event> {
        let pending = self.pending.borrow();
        self.events
            .borrow()
            .iter()
            .chain(pending.values())
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDur;
    use std::rc::Rc;

    #[test]
    fn an_op_in_flight_at_the_end_is_reported_once_as_failed() {
        let sim = Sim::new();
        let history = Rc::new(History::default());
        let (h, s) = (history.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(SimDur::from_micros(1)).await;
            let op = async {
                s.sleep(SimDur::from_micros(2)).await;
                Ok::<_, ()>(Some(7))
            };
            let got = h.record(&s, 1, OpArgs::Lookup { key: 3 }, op, |v| {
                OpOutcome::Lookup(*v)
            });
            assert_eq!(got.await, Ok(Some(7)));
        });
        let (h, s) = (history.clone(), sim.clone());
        sim.spawn(async move {
            let op = std::future::pending::<Result<bool, ()>>();
            let deleted = |&f: &bool| OpOutcome::Delete(f);
            let _ = h
                .record(&s, 2, OpArgs::Delete { key: 5 }, op, deleted)
                .await;
        });
        sim.run();

        let events = history.history();
        assert_eq!(events.len(), 2, "{events:?}");
        let done = &events[0];
        assert_eq!(
            (done.client, done.outcome.clone()),
            (1, OpOutcome::Lookup(Some(7)))
        );
        assert!(done.invoke <= done.response);
        assert_eq!(done.invoke, SimTime::from_micros(1));
        assert_eq!(done.response, SimTime::from_micros(3));
        let pending = &events[1];
        assert_eq!(pending.client, 2);
        assert_eq!(pending.args, OpArgs::Delete { key: 5 });
        assert_eq!(pending.outcome, OpOutcome::Failed);
        assert_eq!(pending.response, SimTime::MAX);
        // Reading the history closes nothing out for good.
        assert_eq!(history.history().len(), 2);
    }
}
