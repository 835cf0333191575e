//! Happens-before race detector for one-sided verbs.
//!
//! A FastTrack-style vector-clock checker riding the always-compiled
//! [`VerbObserver`] bus: every completed verb, RPC, fence note and
//! recovery event updates per-client and per-page clock state, and every
//! optimistic READ is classified as *synchronized*, *benign-validated*
//! (a version/fence re-check was observed on the page before its bytes
//! escaped into a completed op result) or an **unvalidated race** — the
//! bug class the B-link optimistic-lock-coupling protocol (§3.2/§4.2 of
//! the paper) is one forgotten `covers()` away from.
//!
//! ## Happens-before model
//!
//! Threads of the clock space are clients (endpoint ids) and servers
//! (at [`SERVER_BASE`]` + s`). Edges:
//!
//! * **lock-word CAS** — a successful CAS on a page joins the page's
//!   release clock *and* write clock into the caller: the CAS observed
//!   the word the previous holder's unlock FAA produced (and, because
//!   verbs in a critical section are awaited sequentially, everything
//!   written before it). This covers both the acquire CAS of Listing 4
//!   and the lease-break CAS of recovery.
//! * **unlock FAA** — publishes the holder's clock into the page's
//!   release clock (release edge) and is recorded as a write to the
//!   page.
//! * **RPC** — request/reply pair mutually joins client and server
//!   clocks at completion time (the two-sided designs synchronize only
//!   here).
//! * **restart epoch** — [`FenceKind::EpochCheck`] records the cluster
//!   restart epoch a client has reconciled its cached state against;
//!   [`FenceKind::CachedUse`] against a stale epoch is a violation.
//! * **WAL recovery** — `on_server_recovered` resets the recovered
//!   server's page clocks: its memory was rewound to the durable
//!   prefix, so pre-crash shadow state must not order post-crash reads.
//!
//! Page clock state is kept at page granularity: the registry grows
//! from page-sized READ/WRITE/ALLOC events and atomics attach to the
//! containing page (offset-keyed fallback for a bare word).
//!
//! ## Read classification
//!
//! A page READ opens a *pending* window when it is **racy** (the page's
//! last write was performed by another thread and is not in the
//! reader's clock) or **dirty** (the lock word was held by another
//! client at read time). The window closes without a report when the
//! engine validates it — a [`FenceKind::Revalidate`] on the page
//! (`covers()` / `find_child()` / lock-word re-check, whatever its
//! outcome), a successful CAS on the page by the reader, a superseding
//! clean re-read, a [`FenceKind::Discard`], or failure of the attempt
//! (verb error / unsuccessful op). A pending window still open when the
//! op completes *successfully* is reported: a racy snapshot escaped
//! into a result no fence ever re-checked. Dirty windows are stricter —
//! a torn snapshot cannot be validated by a version re-check (the
//! version it would check is itself mid-update), so only supersession,
//! discard or attempt failure clears them.
//!
//! ## Write discipline (lockset rule)
//!
//! Every lock-word transition is itself a verb we observe, so the
//! detector also tracks the current lock holder per page and flags any
//! in-place WRITE to a lock-protected page by a non-holder
//! (`unlocked-write`): such bytes are published with no release edge
//! ordering them, the signature of an unlock-before-write reorder.
//! Pages that have never seen lock traffic (a fresh split sibling or
//! new root being initialized) are exempt until their first CAS/FAA.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use blink::layout::lock_word;
use rdma_sim::observer::{FenceKind, OpKind, RpcEvent, VerbEvent, VerbKind, VerbObserver};
use rdma_sim::{AttemptKind, Cluster, RemotePtr};
use simnet::SimTime;

/// Clock-space id of memory server `s` is `SERVER_BASE + s`; ids below
/// it are client (endpoint) ids.
pub const SERVER_BASE: u64 = 1 << 48;

/// Reads shorter than this are word probes of a synchronization word,
/// not page snapshots; they carry no data that can escape unvalidated.
const MIN_PAGE_READ: usize = 64;

/// Cap on retained violations (the counter keeps counting past it).
const MAX_VIOLATIONS: usize = 1024;

/// A vector clock over client/server thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(BTreeMap<u64, u64>);

impl VClock {
    /// This clock's component for `tid` (0 if never seen).
    pub fn get(&self, tid: u64) -> u64 {
        self.0.get(&tid).copied().unwrap_or(0)
    }

    /// Whether the event `epoch @ tid` happened-before (or at) this clock.
    pub fn covers(&self, tid: u64, epoch: u64) -> bool {
        self.get(tid) >= epoch
    }

    fn bump(&mut self, tid: u64) -> u64 {
        let e = self.0.entry(tid).or_insert(0);
        *e += 1;
        *e
    }

    fn join(&mut self, other: &VClock) {
        for (&tid, &v) in &other.0 {
            let e = self.0.entry(tid).or_insert(0);
            if *e < v {
                *e = v;
            }
        }
    }

    fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (tid, v)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            if *tid >= SERVER_BASE {
                s.push_str(&format!("srv{}:{v}", tid - SERVER_BASE));
            } else {
                s.push_str(&format!("c{tid}:{v}"));
            }
        }
        s.push('}');
        s
    }
}

fn tid_name(tid: u64) -> String {
    if tid >= SERVER_BASE {
        format!("server {}", tid - SERVER_BASE)
    } else {
        format!("client {tid}")
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

/// Per-page clock state (FastTrack page metadata).
#[derive(Default)]
struct PageState {
    len: usize,
    /// Join of every unlock-FAA holder clock: what an acquire CAS learns.
    release: VClock,
    /// Join of every writer clock: what observing the current word implies.
    write_clock: VClock,
    last_write: Option<WriteSite>,
    /// Client currently holding the page lock, tracked from observed
    /// lock-word transitions (acquire CAS sets it, unlock FAA and
    /// lease-break CAS clear it).
    locked_by: Option<u64>,
    /// Whether any lock-word traffic (CAS/FAA) was ever observed — a
    /// page that has seen none is being initialized (fresh split
    /// sibling, new root) and is not yet lock-protected.
    sync_seen: bool,
}

/// An optimistic READ whose validation window is still open.
#[derive(Clone, Debug)]
struct PendingRead {
    server: usize,
    start: u64,
    len: usize,
    time: SimTime,
    /// Owner-id field of the lock word if it was held by another client
    /// at read time (a torn snapshot — R1), else `None`.
    dirty: Option<u64>,
    /// The conflicting write this read races with, if any (R2).
    writer: Option<WriteSite>,
    /// Reader's clock at read time, for the report.
    reader_clock: VClock,
}

/// One reported race, with both access sites and the missing edge.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule id: `unvalidated-race`, `locked-snapshot-read`,
    /// `write-write-race`, `unlocked-write` or `stale-epoch-cached-use`.
    pub rule: &'static str,
    /// Client on whose access the rule fired.
    pub client: u64,
    /// Server holding the raced page.
    pub server: usize,
    /// Start offset of the raced page.
    pub offset: u64,
    /// Virtual time the rule fired.
    pub time: SimTime,
    /// Full causal chain: both access sites, clock states, missing edge.
    pub detail: String,
}

impl Violation {
    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "[racecheck:{}] client {} @ server {} offset {:#x} t={}: {}",
            self.rule, self.client, self.server, self.offset, self.time, self.detail
        )
    }
}

/// Aggregate counters (deterministic across runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Page READs classified.
    pub reads_checked: u64,
    /// READs that opened a racy pending window.
    pub racy_reads: u64,
    /// READs that observed a foreign-locked word (torn snapshot).
    pub dirty_reads: u64,
    /// Pending windows closed by a validation edge (fence, CAS,
    /// supersession, discard).
    pub validated: u64,
    /// Violations recorded (including any dropped past the cap).
    pub violations: u64,
}

#[derive(Default)]
struct State {
    clocks: BTreeMap<u64, VClock>,
    pages: BTreeMap<(usize, u64), PageState>,
    pending: BTreeMap<u64, BTreeMap<(usize, u64), PendingRead>>,
    epoch_seen: BTreeMap<u64, u64>,
    violations: Vec<Violation>,
    counts: Counts,
}

impl State {
    /// Page containing `(server, offset)`, registering `(offset, len)`
    /// when nothing does. Page-sized traffic self-registers; a bare
    /// atomic on an unseen region gets an offset-keyed word entry that a
    /// later page-sized access widens.
    fn page_key(&mut self, server: usize, offset: u64, len: usize) -> (usize, u64) {
        let hit = self
            .pages
            .range(..=(server, offset))
            .next_back()
            .filter(|&(&(s, start), p)| s == server && offset < start + p.len as u64)
            .map(|(&k, p)| (k, p.len));
        if let Some((key, cur_len)) = hit {
            // Widen a word entry to the page once page-sized traffic
            // shows its true extent.
            if offset == key.1 && len > cur_len {
                self.pages.get_mut(&key).expect("present").len = len;
            }
            return key;
        }
        self.pages.insert(
            (server, offset),
            PageState {
                len,
                ..PageState::default()
            },
        );
        (server, offset)
    }

    fn clock(&mut self, tid: u64) -> &mut VClock {
        self.clocks.entry(tid).or_default()
    }

    fn push_violation(&mut self, v: Violation) {
        self.counts.violations += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Bump `tid`'s own component; returns the post-bump clock and epoch.
    fn bumped(&mut self, tid: u64) -> (VClock, u64) {
        let c = self.clocks.entry(tid).or_default();
        let epoch = c.bump(tid);
        (c.clone(), epoch)
    }

    /// Write-write race check: the page's last write was by another
    /// thread and is not in the writer's clock.
    fn check_write_write(
        &mut self,
        tid: u64,
        clk: &VClock,
        key: (usize, u64),
        ev_time: SimTime,
        what: &'static str,
    ) {
        let race = self
            .pages
            .get(&key)
            .and_then(|p| p.last_write.clone())
            .filter(|lw| lw.tid != tid && !clk.covers(lw.tid, lw.epoch));
        if let Some(lw) = race {
            let detail = format!(
                "{what} by client {tid} races with {} by {} \
                 (epoch {}:{} at t={}): writer clock {} lacks it — \
                 missing HB edge {}:{} \u{2192} client {tid}",
                lw.what,
                tid_name(lw.tid),
                lw.tid,
                lw.epoch,
                lw.time,
                clk.render(),
                lw.tid,
                lw.epoch,
            );
            self.push_violation(Violation {
                rule: "write-write-race",
                client: tid,
                server: key.0,
                offset: key.1,
                time: ev_time,
                detail,
            });
        }
    }

    /// Record a write by `tid` (with pre-bumped clock `clk`/`epoch`)
    /// against the page at `key`.
    fn commit_write(
        &mut self,
        tid: u64,
        epoch: u64,
        clk: &VClock,
        key: (usize, u64),
        ev_time: SimTime,
        what: &'static str,
    ) {
        let page = self.pages.get_mut(&key).expect("registered");
        page.write_clock.join(clk);
        page.last_write = Some(WriteSite {
            tid,
            epoch,
            time: ev_time,
            what,
        });
    }

    /// Drop every pending window of `client` without reporting (the
    /// attempt failed or a new op span began; the bytes never reached a
    /// successful result).
    fn drop_pending(&mut self, client: u64) {
        if let Some(p) = self.pending.get_mut(&client) {
            p.clear();
        }
    }

    /// Report every still-open pending window of `client`: its op just
    /// completed successfully, so the racy/torn bytes escaped with no
    /// validating fence ever observed.
    fn report_pending(&mut self, client: u64, op: OpKind, time: SimTime) {
        let open = match self.pending.get_mut(&client) {
            Some(p) => std::mem::take(p),
            None => return,
        };
        for (_, p) in open {
            let (rule, chain) = if let Some(owner) = p.dirty {
                (
                    "locked-snapshot-read",
                    format!(
                        "READ at t={} of [server {}, {:#x}+{}] observed the page \
                         while its lock word was held by owner id {owner} (not the \
                         reader): the snapshot is torn by construction and no \
                         version re-check can validate it, yet it escaped into a \
                         completed {} result",
                        p.time,
                        p.server,
                        p.start,
                        p.len,
                        op.label(),
                    ),
                )
            } else {
                let w = p.writer.as_ref().expect("racy or dirty");
                (
                    "unvalidated-race",
                    format!(
                        "optimistic READ at t={} of [server {}, {:#x}+{}] races \
                         with {} by {} (epoch {}:{} at t={}); reader clock at read \
                         {} lacks it, and no validating fence (covers/find_child/\
                         lock-CAS) was observed on the page before the bytes \
                         escaped into a completed {} result — missing HB edge \
                         {}:{} \u{2192} client {client}",
                        p.time,
                        p.server,
                        p.start,
                        p.len,
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
            self.push_violation(Violation {
                rule,
                client,
                server: p.server,
                offset: p.start,
                time,
                detail: chain,
            });
        }
    }
}

/// The detector. Install once per cluster; query at end of run.
pub struct Racecheck {
    cluster: Cluster,
    state: RefCell<State>,
}

impl Racecheck {
    /// Install a detector on `cluster`. `page_size` is advisory (the
    /// page registry self-organizes from observed traffic); it bounds
    /// nothing but is kept for symmetry with the sanitizer's installer.
    pub fn install(cluster: &Cluster, page_size: usize) -> Rc<Racecheck> {
        let _ = page_size;
        let rc = Rc::new(Racecheck {
            cluster: cluster.clone(),
            state: RefCell::new(State::default()),
        });
        cluster.add_observer(rc.clone());
        rc
    }

    /// All recorded violations (capped at an internal maximum;
    /// [`Counts::violations`] keeps the true total).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// Whether no rule fired.
    pub fn is_clean(&self) -> bool {
        self.state.borrow().counts.violations == 0
    }

    /// Aggregate counters.
    pub fn counts(&self) -> Counts {
        self.state.borrow().counts
    }

    /// Multi-line report (empty string when clean).
    pub fn report(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::new();
        for v in &st.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        if st.counts.violations as usize > st.violations.len() {
            out.push_str(&format!(
                "[racecheck] ... and {} more (cap reached)\n",
                st.counts.violations as usize - st.violations.len()
            ));
        }
        out
    }

    /// Panic with the full report if any rule fired.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            panic!(
                "racecheck found {} violation(s):\n{}",
                self.counts().violations,
                self.report()
            );
        }
    }

    fn handle_read(&self, ev: &VerbEvent) {
        if ev.len < MIN_PAGE_READ {
            return; // word probe of a synchronization word
        }
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let key = st.page_key(ev.server, ev.offset, ev.len);
        let page_len = st.pages[&key].len;
        st.counts.reads_checked += 1;
        // Current lock word, via the untimed control path (all pool
        // borrows are released before an event fires). The word the
        // memory effect just copied out is the word in memory now: the
        // simulation is single-threaded and the event fires at apply time.
        let word_ptr = RemotePtr::new(key.0, key.1);
        let word = u64::from_le_bytes(
            self.cluster.setup_read(word_ptr, 8)[..8]
                .try_into()
                .expect("8-byte lock word"),
        );
        let dirty = (lock_word::is_locked(word) && lock_word::owner_of(word) != (ev.client & 0xff))
            .then(|| lock_word::owner_of(word));
        let reader_clock = st.clock(ev.client).clone();
        let writer = st.pages[&key]
            .last_write
            .clone()
            .filter(|w| w.tid != ev.client && !reader_clock.covers(w.tid, w.epoch));
        if dirty.is_some() {
            st.counts.dirty_reads += 1;
        } else if writer.is_some() {
            st.counts.racy_reads += 1;
        }
        let pending = st.pending.entry(ev.client).or_default();
        if dirty.is_some() || writer.is_some() {
            // A re-read supersedes any earlier window on the same page.
            pending.insert(
                key,
                PendingRead {
                    server: key.0,
                    start: key.1,
                    len: page_len,
                    time: ev.time,
                    dirty,
                    writer,
                    reader_clock,
                },
            );
        } else if pending.remove(&key).is_some() {
            // Clean re-read of a page with an open window: superseded.
            st.counts.validated += 1;
        }
    }

    fn handle_cas(&self, ev: &VerbEvent, expected: u64, new: u64, prev: u64) {
        let mut st = self.state.borrow_mut();
        let key = st.page_key(ev.server, ev.offset, 8);
        if prev == expected {
            // Track lock ownership from the installed word: an acquire
            // leaves it locked (by this client), a lease break leaves
            // it unlocked.
            let page = st.pages.get_mut(&key).expect("registered");
            page.sync_seen = true;
            page.locked_by = lock_word::is_locked(new).then_some(ev.client);
            // The CAS observed (and replaced) the word: acquire edge.
            // Joining the write clock as well as the release clock covers
            // pages that were written but never yet released (a fresh
            // split sibling installed inside the splitter's critical
            // section): with sequentially awaited verbs, observing the
            // word implies the writes that produced it have applied.
            let (rel, wcl) = {
                let page = &st.pages[&key];
                (page.release.clone(), page.write_clock.clone())
            };
            let clk = st.clock(ev.client);
            clk.join(&rel);
            clk.join(&wcl);
            let (clk, epoch) = st.bumped(ev.client);
            st.check_write_write(ev.client, &clk, key, ev.time, "lock-word CAS");
            st.commit_write(ev.client, epoch, &clk, key, ev.time, "lock-word CAS");
            // A successful CAS on the page validates the reader's own
            // open window (the version it read is the version it swapped).
            if st
                .pending
                .get_mut(&ev.client)
                .is_some_and(|p| p.remove(&key).is_some())
            {
                st.counts.validated += 1;
            }
        } else {
            // Failed CAS still observed the current word, which (with
            // sequentially awaited critical-section verbs) implies the
            // writes leading to it have applied.
            let wcl = st.pages[&key].write_clock.clone();
            st.clock(ev.client).join(&wcl);
        }
    }

    fn fence_page(&self, st: &mut State, server: usize, offset: u64) -> Option<(usize, u64)> {
        st.pages
            .range(..=(server, offset))
            .next_back()
            .filter(|&(&(s, start), p)| s == server && offset < start + p.len as u64)
            .map(|(&k, _)| k)
    }
}

impl VerbObserver for Racecheck {
    fn on_verb(&self, ev: &VerbEvent) {
        match ev.kind {
            VerbKind::Alloc => {
                let mut st = self.state.borrow_mut();
                st.page_key(ev.server, ev.offset, ev.len);
            }
            VerbKind::Read => self.handle_read(ev),
            VerbKind::Write => {
                let mut st = self.state.borrow_mut();
                let key = st.page_key(ev.server, ev.offset, ev.len);
                // Lockset check: an in-place WRITE to a lock-protected
                // page (one that has seen lock-word traffic) must come
                // from the current lock holder — otherwise the bytes
                // are published with no release edge ordering them, and
                // any concurrent optimistic reader races with them by
                // construction. Fresh pages being initialized (split
                // sibling, new root) have seen no lock traffic yet.
                let (held, protected) = {
                    let page = &st.pages[&key];
                    (page.locked_by, page.sync_seen)
                };
                if protected && held != Some(ev.client) {
                    let holder = match held {
                        Some(o) => format!("the lock is held by client {o}"),
                        None => "the lock was already released \u{2014} the \
                                 unlock FAA published the page before these \
                                 bytes landed"
                            .to_string(),
                    };
                    let detail = format!(
                        "in-place WRITE by client {} to the lock-protected page \
                         [server {}, {:#x}+{}] outside its critical section \
                         ({holder}): optimistic readers can observe the bytes \
                         with no happens-before edge from this write",
                        ev.client, key.0, key.1, ev.len,
                    );
                    st.push_violation(Violation {
                        rule: "unlocked-write",
                        client: ev.client,
                        server: key.0,
                        offset: key.1,
                        time: ev.time,
                        detail,
                    });
                }
                let (clk, epoch) = st.bumped(ev.client);
                st.check_write_write(ev.client, &clk, key, ev.time, "WRITE");
                st.commit_write(ev.client, epoch, &clk, key, ev.time, "WRITE");
            }
            VerbKind::Faa { .. } => {
                // The unlock FAA of Listing 4: release edge, then a write.
                // The release clock includes the FAA's own epoch so the
                // next acquirer is ordered after the unlock itself.
                let mut st = self.state.borrow_mut();
                let key = st.page_key(ev.server, ev.offset, 8);
                let (clk, epoch) = st.bumped(ev.client);
                st.check_write_write(ev.client, &clk, key, ev.time, "unlock FAA");
                let page = st.pages.get_mut(&key).expect("registered");
                page.sync_seen = true;
                page.locked_by = None;
                page.release.join(&clk);
                st.commit_write(ev.client, epoch, &clk, key, ev.time, "unlock FAA");
            }
            VerbKind::Cas {
                expected,
                new,
                prev,
            } => self.handle_cas(ev, expected, new, prev),
        }
    }

    fn on_free(&self, server: usize, offset: u64, len: usize, _time: SimTime) {
        let mut st = self.state.borrow_mut();
        let end = offset + len as u64;
        let keys: Vec<_> = st
            .pages
            .range((server, 0)..(server, end))
            .filter(|&(&(_, start), p)| start + p.len as u64 > offset)
            .map(|(&k, _)| k)
            .collect();
        for k in &keys {
            st.pages.remove(k);
        }
        for p in st.pending.values_mut() {
            p.retain(|k, _| !keys.contains(k));
        }
    }

    fn on_rpc(&self, ev: &RpcEvent) {
        let mut st = self.state.borrow_mut();
        let stid = SERVER_BASE + ev.server as u64;
        st.clock(ev.client).bump(ev.client);
        st.clock(stid).bump(stid);
        let c = st.clock(ev.client).clone();
        st.clock(stid).join(&c);
        let s = st.clock(stid).clone();
        st.clock(ev.client).join(&s);
    }

    fn on_verb_failed(&self, client: u64, _server: usize, _time: SimTime) {
        // The attempt aborts; its bytes never escape into a result.
        self.state.borrow_mut().drop_pending(client);
    }

    fn on_unreachable(&self, client: u64, _server: usize, _kind: AttemptKind, _time: SimTime) {
        self.state.borrow_mut().drop_pending(client);
    }

    fn on_op_start(&self, client: u64, _kind: OpKind, _time: SimTime) {
        self.state.borrow_mut().drop_pending(client);
    }

    fn on_op_end(&self, client: u64, kind: OpKind, time: SimTime, ok: bool) {
        let mut st = self.state.borrow_mut();
        if ok {
            st.report_pending(client, kind, time);
        } else {
            st.drop_pending(client);
        }
    }

    fn on_fence(&self, client: u64, kind: FenceKind, server: usize, offset: u64, time: SimTime) {
        let mut st = self.state.borrow_mut();
        match kind {
            FenceKind::Revalidate => {
                if let Some(key) = self.fence_page(&mut st, server, offset) {
                    let cleared = st.pending.get_mut(&client).is_some_and(|p| {
                        // A torn snapshot cannot be validated by a version
                        // re-check; only supersession/discard clears it.
                        match p.get(&key) {
                            Some(w) if w.dirty.is_none() => p.remove(&key).is_some(),
                            _ => false,
                        }
                    });
                    if cleared {
                        st.counts.validated += 1;
                    }
                }
            }
            FenceKind::Discard => {
                if let Some(key) = self.fence_page(&mut st, server, offset) {
                    if st
                        .pending
                        .get_mut(&client)
                        .is_some_and(|p| p.remove(&key).is_some())
                    {
                        st.counts.validated += 1;
                    }
                }
            }
            FenceKind::EpochCheck => {
                let epoch = self.cluster.restart_epoch();
                st.epoch_seen.insert(client, epoch);
            }
            FenceKind::CachedUse => {
                let now_epoch = self.cluster.restart_epoch();
                let seen = st.epoch_seen.get(&client).copied().unwrap_or(0);
                if seen != now_epoch {
                    let detail = format!(
                        "cached artifact derived from [server {server}, {offset:#x}] \
                         served at restart epoch {now_epoch}, but client {client} \
                         last reconciled at epoch {seen}: the backing pool was \
                         rebuilt since the artifact was cached (missing \
                         restart-epoch flush edge)"
                    );
                    st.push_violation(Violation {
                        rule: "stale-epoch-cached-use",
                        client,
                        server,
                        offset,
                        time,
                        detail,
                    });
                }
            }
        }
    }

    fn on_server_recovered(&self, server: usize, _time: SimTime) {
        let mut st = self.state.borrow_mut();
        // Memory rewound to the durable prefix: pre-crash clock shadow
        // state on this server must not order post-crash accesses.
        for ((_, _), page) in st.pages.range_mut((server, 0)..(server, u64::MAX)) {
            page.release = VClock::default();
            page.write_clock = VClock::default();
            page.last_write = None;
            // Whoever held the lock at the crash lost it with the
            // volatile state; survivors re-acquire before writing.
            page.locked_by = None;
        }
        for p in st.pending.values_mut() {
            p.retain(|&(s, _), _| s != server);
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
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn page_registry_contains_and_widens() {
        let mut st = State::default();
        // A bare atomic registers a word entry; a page read widens it.
        assert_eq!(st.page_key(0, 0x100, 8), (0, 0x100));
        assert_eq!(st.page_key(0, 0x100, 256), (0, 0x100));
        assert_eq!(st.pages[&(0, 0x100)].len, 256);
        // Offsets inside the page resolve to its start.
        assert_eq!(st.page_key(0, 0x1f0, 8), (0, 0x100));
        // The next page is distinct.
        assert_eq!(st.page_key(0, 0x200, 256), (0, 0x200));
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let mut st = State::default();
        for i in 0..(MAX_VIOLATIONS + 5) {
            st.push_violation(Violation {
                rule: "unvalidated-race",
                client: i as u64,
                server: 0,
                offset: 0x100,
                time: SimTime::ZERO,
                detail: String::new(),
            });
        }
        assert_eq!(st.violations.len(), MAX_VIOLATIONS);
        assert_eq!(st.counts.violations, (MAX_VIOLATIONS + 5) as u64);
    }
}
