//! Happens-before rules: vector clocks per client and server, the
//! release/write clocks each [`Page`] carries, pending-read windows, and
//! the restart-epoch rule for cached artifacts.
//!
//! Threads of the clock space are clients (endpoint ids) and servers
//! (at [`SERVER_BASE`]` + s`). Edges:
//!
//! * **lock-word CAS** — a successful CAS joins the page's release clock
//!   *and* write clock into the caller: it observed the word the previous
//!   holder's unlock FAA produced and, because verbs in a critical
//!   section are awaited in turn, everything written before it. Covers
//!   the acquire CAS of Listing 4 and the lease-break CAS of recovery. A
//!   failed CAS still observed the word: it joins the write clock.
//! * **unlock FAA** — publishes the holder's clock into the page's
//!   release clock and counts as a write to the page.
//! * **RPC** — request and reply join client and server clocks both ways
//!   (the two-sided designs synchronize only here).
//!
//! Rules: `unvalidated-race` and `locked-snapshot-read` (a pending window
//! still open when its op completes successfully), `write-write-race`,
//! `unlocked-write` (the lockset rule: the holder every lock-word verb
//! maintains in the shadow table stands in for a lockset),
//! `stale-epoch-cached-use`.

use std::collections::BTreeMap;

use rdma_sim::observer::{OpKind, VerbEvent};
use simnet::SimTime;

use crate::{Findings, Page, PageKey, Violation};

/// Clock-space id of memory server `s` is `SERVER_BASE + s`; ids below
/// it are client (endpoint) ids.
pub(crate) const SERVER_BASE: u64 = 1 << 48;

/// A vector clock over client/server thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(BTreeMap<u64, u64>);

impl VClock {
    /// Whether the event `epoch @ tid` happened-before (or at) this clock.
    pub(crate) fn covers(&self, tid: u64, epoch: u64) -> bool {
        self.0.get(&tid).copied().unwrap_or(0) >= epoch
    }

    pub(crate) fn bump(&mut self, tid: u64) -> u64 {
        let e = self.0.entry(tid).or_insert(0);
        *e += 1;
        *e
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        for (&tid, &v) in &other.0 {
            let e = self.0.entry(tid).or_insert(0);
            *e = (*e).max(v);
        }
    }

    fn render(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(&tid, v)| match tid.checked_sub(SERVER_BASE) {
                Some(s) => format!("srv{s}:{v}"),
                None => format!("c{tid}:{v}"),
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

fn tid_name(tid: u64) -> String {
    match tid.checked_sub(SERVER_BASE) {
        Some(s) => format!("server {s}"),
        None => format!("client {tid}"),
    }
}

/// The last write recorded against a page: one end of a potential race.
#[derive(Clone, Debug)]
struct WriteSite {
    tid: u64,
    epoch: u64,
    time: SimTime,
    what: &'static str,
}

/// The clock half of a [`Page`].
#[derive(Default)]
pub(crate) struct PageClocks {
    /// Join of every unlock-FAA holder clock: what an acquire CAS learns.
    release: VClock,
    /// Join of every writer clock: what observing the current word implies.
    write_clock: VClock,
    last_write: Option<WriteSite>,
}

/// An optimistic READ whose validation window is still open.
struct PendingRead {
    len: usize,
    time: SimTime,
    /// Who held the page's lock at read time, if it was not the reader:
    /// the snapshot is torn by construction.
    dirty: Option<u64>,
    /// The conflicting write this read races with, if any.
    writer: Option<WriteSite>,
    /// Reader's clock at read time, for the report.
    reader_clock: VClock,
}

/// Clock state that belongs to clients and servers, not to pages.
#[derive(Default)]
pub(crate) struct Threads {
    clocks: BTreeMap<u64, VClock>,
    pending: BTreeMap<u64, BTreeMap<PageKey, PendingRead>>,
    epoch_seen: BTreeMap<u64, u64>,
}

impl Threads {
    /// Classify a page READ: clean, racy (the page's last write is not in
    /// the reader's clock) or dirty (the lock was held by someone else).
    /// Racy and dirty reads open a pending window; a clean re-read
    /// supersedes one.
    pub(crate) fn on_read(
        &mut self,
        page: &Page,
        key: PageKey,
        ev: &VerbEvent,
        out: &mut Findings,
    ) {
        out.counts.reads_checked += 1;
        let dirty = page.locked_by_other(ev.client);
        let clock = self.clocks.entry(ev.client).or_default();
        let writer = page
            .clocks
            .last_write
            .as_ref()
            .filter(|w| w.tid != ev.client && !clock.covers(w.tid, w.epoch))
            .cloned();
        if dirty.is_some() {
            out.counts.dirty_reads += 1;
        } else if writer.is_some() {
            out.counts.racy_reads += 1;
        }
        if dirty.is_some() || writer.is_some() {
            let window = PendingRead {
                len: page.len,
                time: ev.time,
                dirty,
                writer,
                reader_clock: clock.clone(),
            };
            self.pending
                .entry(ev.client)
                .or_default()
                .insert(key, window);
        } else {
            self.close(ev.client, key, true, out);
        }
    }

    /// Record a write to `page` by `ev.client`: bump its clock, report a
    /// `write-write-race` if the page's last write was by another thread
    /// and is not in that clock, then fold the clock into the page.
    /// Returns the writer's clock.
    fn write(
        &mut self,
        page: &mut Page,
        key: PageKey,
        ev: &VerbEvent,
        what: &'static str,
        out: &mut Findings,
    ) -> &VClock {
        let tid = ev.client;
        let clk = self.clocks.entry(tid).or_default();
        let epoch = clk.bump(tid);
        let last = page.clocks.last_write.as_ref();
        if let Some(lw) = last.filter(|lw| lw.tid != tid && !clk.covers(lw.tid, lw.epoch)) {
            let detail = format!(
                "{what} by client {tid} races with {} by {} (epoch {}:{} at t={}): \
                 writer clock {} lacks it — missing HB edge {}:{} \u{2192} client {tid}",
                lw.what,
                tid_name(lw.tid),
                lw.tid,
                lw.epoch,
                lw.time,
                clk.render(),
                lw.tid,
                lw.epoch,
            );
            out.push(Violation {
                rule: "write-write-race",
                client: Some(tid),
                server: key.0,
                offset: key.1,
                len: page.len,
                time: ev.time,
                detail,
            });
        }
        page.clocks.write_clock.join(clk);
        page.clocks.last_write = Some(WriteSite {
            tid,
            epoch,
            time: ev.time,
            what,
        });
        clk
    }

    /// A plain WRITE landed on `page`, whose lock state is still that of
    /// the instant before. The lockset rule: a write to a lock-protected
    /// page by anyone but its lock's holder publishes bytes that no
    /// release edge orders — the signature of an unlock-before-write
    /// reorder. A private page and one that has seen no lock traffic (a
    /// split sibling or new root being initialised) are not protected yet.
    pub(crate) fn on_write(
        &mut self,
        page: &mut Page,
        key: PageKey,
        ev: &VerbEvent,
        out: &mut Findings,
    ) {
        if page.private_to.is_none() && page.sync_seen && !page.held_by(ev.client) {
            let holder = match page.locked_by_other(ev.client) {
                Some(c) => format!("its lock is held by client {c}"),
                None => "its lock is not held \u{2014} if it was, the unlock FAA published \
                         the page before these bytes landed"
                    .to_string(),
            };
            let detail = format!(
                "in-place WRITE by client {} to the lock-protected page [server {}, \
                 {:#x}+{}] outside its critical section ({holder}): optimistic readers \
                 can observe the bytes with no happens-before edge from this write",
                ev.client, key.0, key.1, page.len,
            );
            out.verb("unlocked-write", ev, detail);
        }
        self.write(page, key, ev, "WRITE", out);
    }

    /// A CAS on the page's lock word, swapped or not.
    pub(crate) fn on_cas(
        &mut self,
        page: &mut Page,
        key: PageKey,
        ev: &VerbEvent,
        swapped: bool,
        out: &mut Findings,
    ) {
        let clk = self.clocks.entry(ev.client).or_default();
        // Joining the write clock as well as the release clock covers pages
        // written but never yet released (a split sibling installed inside
        // the splitter's critical section).
        clk.join(&page.clocks.write_clock);
        if swapped {
            clk.join(&page.clocks.release);
            self.write(page, key, ev, "lock-word CAS", out);
            // The version the reader saw is the version it swapped: its
            // own open window on the page is validated.
            self.close(ev.client, key, true, out);
        }
    }

    /// The unlock FAA of Listing 4: a write that is also the release
    /// edge. The release clock includes the FAA's own epoch, so the next
    /// acquirer is ordered after the unlock itself.
    pub(crate) fn on_faa(
        &mut self,
        page: &mut Page,
        key: PageKey,
        ev: &VerbEvent,
        out: &mut Findings,
    ) {
        let clk = self.write(page, key, ev, "unlock FAA", out);
        page.clocks.release.join(clk);
    }

    /// Request and reply of a completed RPC order client and server.
    pub(crate) fn on_rpc(&mut self, client: u64, server: usize) {
        let stid = SERVER_BASE + server as u64;
        let mut c = self.clocks.remove(&client).unwrap_or_default();
        let s = self.clocks.entry(stid).or_default();
        c.bump(client);
        s.bump(stid);
        s.join(&c);
        c.join(s);
        self.clocks.insert(client, c);
    }

    /// Close `client`'s window on the page at `key`, if one is open. A
    /// dirty window closes only when `torn_too`: a version re-check cannot
    /// validate a torn snapshot (the version it would check is itself
    /// mid-update), so only a superseding re-read, a discard or the
    /// reader's own CAS does.
    pub(crate) fn close(&mut self, client: u64, key: PageKey, torn_too: bool, out: &mut Findings) {
        let Some(open) = self.pending.get_mut(&client) else {
            return;
        };
        if open
            .get(&key)
            .is_some_and(|w| torn_too || w.dirty.is_none())
        {
            open.remove(&key);
            out.counts.validated += 1;
        }
    }

    /// Drop every window of `client` unreported: the attempt failed or a
    /// new op began, so the bytes never reached a successful result.
    pub(crate) fn drop_pending(&mut self, client: u64) {
        if let Some(open) = self.pending.get_mut(&client) {
            open.clear();
        }
    }

    /// Drop every window on pages of `server`, whose memory was rewound.
    pub(crate) fn forget_server(&mut self, server: usize) {
        for open in self.pending.values_mut() {
            open.retain(|k, _| k.0 != server);
        }
    }

    /// `client`'s op completed successfully: every window still open is a
    /// racy or torn snapshot that escaped with no validating fence.
    pub(crate) fn report_pending(
        &mut self,
        client: u64,
        op: OpKind,
        time: SimTime,
        out: &mut Findings,
    ) {
        let Some(open) = self.pending.get_mut(&client) else {
            return;
        };
        for ((server, start), p) in std::mem::take(open) {
            let range = format!("[server {server}, {start:#x}+{}]", p.len);
            let (rule, detail) = if let Some(holder) = p.dirty {
                (
                    "locked-snapshot-read",
                    format!(
                        "READ at t={} of {range} observed the page while its lock was \
                         held by client {holder} (not the reader): the snapshot is torn \
                         by construction and no version re-check can validate it, yet \
                         it escaped into a completed {} result",
                        p.time,
                        op.label(),
                    ),
                )
            } else {
                let w = p.writer.as_ref().expect("racy or dirty");
                (
                    "unvalidated-race",
                    format!(
                        "optimistic READ at t={} of {range} races with {} by {} (epoch \
                         {}:{} at t={}); reader clock at read {} lacks it, and no \
                         validating fence (covers/find_child/lock-CAS) was observed on \
                         the page before the bytes escaped into a completed {} result \
                         — missing HB edge {}:{} \u{2192} client {client}",
                        p.time,
                        w.what,
                        tid_name(w.tid),
                        w.tid,
                        w.epoch,
                        w.time,
                        p.reader_clock.render(),
                        op.label(),
                        w.tid,
                        w.epoch,
                    ),
                )
            };
            out.push(Violation {
                rule,
                client: Some(client),
                server,
                offset: start,
                len: p.len,
                time,
                detail,
            });
        }
    }

    /// `client` reconciled its cached state against restart epoch `epoch`.
    pub(crate) fn on_epoch_check(&mut self, client: u64, epoch: u64) {
        self.epoch_seen.insert(client, epoch);
    }

    /// `client` served a cached artifact derived from `(server, offset)`
    /// while the cluster is at restart epoch `now_epoch`.
    pub(crate) fn on_cached_use(
        &mut self,
        client: u64,
        now_epoch: u64,
        server: usize,
        offset: u64,
        time: SimTime,
        out: &mut Findings,
    ) {
        let seen = self.epoch_seen.get(&client).copied().unwrap_or(0);
        if seen != now_epoch {
            let detail = format!(
                "cached artifact derived from [server {server}, {offset:#x}] served at \
                 restart epoch {now_epoch}, but client {client} last reconciled at epoch \
                 {seen}: the backing pool was rebuilt since the artifact was cached \
                 (missing restart-epoch flush edge)"
            );
            out.push(Violation {
                rule: "stale-epoch-cached-use",
                client: Some(client),
                server,
                offset,
                len: 0,
                time,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vclock_join_and_covers() {
        let mut a = VClock::default();
        a.bump(1);
        a.bump(1);
        let mut b = VClock::default();
        b.bump(2);
        b.join(&a);
        assert!(b.covers(1, 2));
        assert!(b.covers(2, 1));
        assert!(!b.covers(1, 3));
        assert!(!a.covers(2, 1));
    }

    #[test]
    fn rpc_orders_client_and_server_both_ways() {
        let mut t = Threads::default();
        t.on_rpc(7, 2);
        let (c, s) = (&t.clocks[&7], &t.clocks[&(SERVER_BASE + 2)]);
        assert!(c.covers(SERVER_BASE + 2, 1) && s.covers(7, 1));
    }
}
