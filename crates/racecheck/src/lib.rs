#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # racecheck — the dynamic checker of the simulated RDMA cluster
//!
//! The simulator applies verb effects atomically at their completion
//! instant, so protocol-level races (torn lock handoffs, version
//! rollbacks, writes landing on unlocked pages, optimistic reads nobody
//! re-checked) *happen* — but without a checker they only surface as
//! corrupted answers, far from the buggy verb. This crate rides the
//! always-compiled [`VerbObserver`] bus and checks the one concurrency
//! protocol every design shares: optimistic lock coupling over one 8-byte
//! `(version, lock-bit)` word per page (§3.2/§4.2 of the paper).
//!
//! ## One shadow page table
//!
//! All rules read one table, `(server, page start) -> Page`: the
//! page's length, a shadow copy of its lock word, who holds the lock
//! (a full client id when the acquire CAS was observed, *unknown* when
//! only the word says so), whether the page is still private to its
//! allocator, since when the current locked word has been held, whether
//! the page is lock-protected yet, and its happens-before clocks. Each
//! hook updates it once:
//!
//! * `on_verb` — one lookup (the page containing the access, registered
//!   on first sight: an `ALLOC` as private to its allocator, a page-sized
//!   READ/WRITE or an atomic as a published page whose word is seeded
//!   from memory or from the atomic's `prev`), then the rule modules;
//! * `on_free` — retired pages leave the table (and become
//!   use-after-free regions);
//! * `on_server_recovered` — WAL recovery rewound that server's memory to
//!   the durable prefix: lock words are resynced from memory and clocks
//!   and pending windows on that server are cleared, because pre-crash
//!   shadow state must neither judge nor order post-crash accesses.
//!
//! Pages built on the untimed setup path (bulk load) emit no verbs;
//! [`walk::register_design`] registers them up front, which also makes
//! them lock-protected from the first verb on. Without it the checker
//! learns pages as traffic touches them.
//!
//! ## Rule modules
//!
//! * `protocol` — version protocol of the lock word, lease-break
//!   legality, atomic hygiene, use-after-free, blind writes after an
//!   unreachable episode; the only code that moves a page's word, holder
//!   and privacy;
//! * `hb` — vector clocks: every page READ is *synchronized*,
//!   *benign-validated* (a version/fence re-check was observed before its
//!   bytes escaped into a completed op) or an unvalidated race;
//!   write-write races; the lockset rule (a WRITE to a lock-protected
//!   page by anyone but the shadow holder); cached artifacts served
//!   across a restart epoch;
//! * [`walk`] — the end-of-run structural walk over the B-link pages.
//!
//! ## Private pages
//!
//! A freshly `RDMA_ALLOC`ed page is *private* to its allocator: the
//! protocol prepares split siblings and new roots with plain unlocked
//! WRITEs before publishing a pointer to them, which is sound because no
//! other client can reach the page yet. The allocator's accesses to a
//! private page are unjudged; the first verb of any other client — or
//! any lock-word atomic — *publishes* it, for good.
//!
//! ## Read classification
//!
//! A page READ opens a *pending* window when it is **racy** (the page's
//! last write is by another thread and not in the reader's clock) or
//! **dirty** (the lock was held by another client at read time). The
//! engine closes it with a [`FenceKind::Revalidate`] on the page
//! (`covers()` / `find_child()` / lock-word re-check, whatever its
//! outcome), a successful CAS on the page by the reader, a superseding
//! clean re-read, a [`FenceKind::Discard`], or failure of the attempt. A
//! window still open when the op completes *successfully* is reported.
//! Dirty windows are stricter: a torn snapshot cannot be validated by a
//! version re-check, so a `Revalidate` does not close them.
//!
//! # Rules
//!
//! `version-protocol`, `version-tamper`, `lease-break`,
//! `misaligned-atomic`, `atomic-race`, `use-after-free`,
//! `unreachable-write` (protocol); `unvalidated-race`,
//! `locked-snapshot-read`, `write-write-race`, `unlocked-write`,
//! `stale-epoch-cached-use` (hb); `structural` (walk).
//! [`Violation::rule`] carries the id.

mod hb;
mod protocol;
pub mod walk;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use blink::layout::lock_word;
use rdma_sim::observer::{
    FenceKind, OpArgs, OpKind, OpOutcome, RpcEvent, VerbEvent, VerbKind, VerbObserver,
};
use rdma_sim::{Cluster, RemotePtr};
use simnet::SimTime;

/// Plain reads and writes shorter than this that land outside every known
/// page are word probes, not page images: they register nothing. Reads
/// shorter than this carry no snapshot that can escape unvalidated.
const MIN_PAGE_ACCESS: usize = 64;

/// Cap on retained violations ([`Counts::violations`] keeps counting).
const MAX_VIOLATIONS: usize = 1024;

/// One finding, with enough context to find the buggy verb.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule id (see the [crate docs](self#rules)).
    pub rule: &'static str,
    /// Client on whose access the rule fired; `None` for structural
    /// findings.
    pub client: Option<u64>,
    /// Memory server the access targeted.
    pub server: usize,
    /// Start offset of the offending range in the server's pool: the
    /// verb's range for protocol rules, the page for the others.
    pub offset: u64,
    /// Length of the offending range.
    pub len: usize,
    /// Virtual time the rule fired (structural findings: the walk's).
    pub time: SimTime,
    /// Specifics: both access sites, clock states, the missing edge.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[racecheck:{}] server {} range {:#x}+{} t={}",
            self.rule, self.server, self.offset, self.len, self.time
        )?;
        if let Some(c) = self.client {
            write!(f, " client {c}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Aggregate counters (deterministic across runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Verb events observed.
    pub verbs_seen: u64,
    /// Page READs classified.
    pub reads_checked: u64,
    /// READs that opened a racy pending window.
    pub racy_reads: u64,
    /// READs of a page whose lock another client held (torn snapshot).
    pub dirty_reads: u64,
    /// Pending windows closed by a validation edge (fence, CAS,
    /// supersession, discard).
    pub validated: u64,
    /// Violations found (including any dropped past the storage cap).
    pub violations: u64,
}

/// A page lock found still held by the quiescence scan
/// ([`Racecheck::held_locks`]).
#[derive(Clone, Copy, Debug)]
pub struct HeldLock {
    /// Memory server of the page.
    pub server: usize,
    /// Page-start offset.
    pub offset: u64,
    /// The in-memory lock word at scan time.
    pub word: u64,
    /// The holder: its full client id if the checker saw the acquire,
    /// else the owner byte recorded in the word
    /// ([`lock_word::owner_of`]).
    pub owner: u64,
}

/// Who holds a page's lock, per the shadow state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Holder {
    /// Lock bit clear.
    None,
    /// Locked by this client's observed acquire CAS.
    Client(u64),
    /// Lock bit set but the acquirer was not observed (the word was
    /// seeded, tampered with, or resynced after recovery); only the
    /// word's owner byte says who.
    Unknown,
}

/// `(server, page start)`.
type PageKey = (usize, u64);
type Pages = BTreeMap<PageKey, Page>;

/// One row of the shadow page table.
struct Page {
    len: usize,
    /// Shadow copy of the 8-byte `(version, lock-bit)` word. Not tracked
    /// while the page is private (its allocator writes it freely).
    word: u64,
    holder: Holder,
    /// `Some(allocator)` until the page is published.
    private_to: Option<u64>,
    /// When the current locked word was first observed (meaningless
    /// while unlocked).
    locked_since: SimTime,
    /// Whether the page is lock-protected yet: registered as a node,
    /// published, or seen lock-word traffic. Until then it is a page
    /// being initialised, and plain writes to it are not judged.
    sync_seen: bool,
    clocks: hb::PageClocks,
}

impl Page {
    /// A published page of `len` bytes whose lock word is `word`.
    fn new(len: usize, word: u64, time: SimTime) -> Page {
        let mut page = Page {
            len,
            word,
            holder: Holder::None,
            private_to: None,
            locked_since: time,
            sync_seen: false,
            clocks: hb::PageClocks::default(),
        };
        page.resync(word, time);
        page
    }

    /// Take `word` as the lock word with no acquirer observed.
    fn resync(&mut self, word: u64, time: SimTime) {
        self.word = word;
        self.holder = if lock_word::is_locked(word) {
            Holder::Unknown
        } else {
            Holder::None
        };
        self.locked_since = time;
    }

    /// Flip from private to published, seeding the shadow word.
    fn publish(&mut self, word: u64, time: SimTime) {
        self.private_to = None;
        self.sync_seen = true;
        self.resync(word, time);
    }

    /// Who holds the lock, if it is held by someone other than `client`.
    fn locked_by_other(&self, client: u64) -> Option<u64> {
        match self.holder {
            Holder::None => None,
            Holder::Client(c) => (c != client).then_some(c),
            // All the word keeps of the holder is its low byte.
            Holder::Unknown => {
                let owner = lock_word::owner_of(self.word);
                (owner != client & 0xff).then_some(owner)
            }
        }
    }

    fn held_by(&self, client: u64) -> bool {
        self.holder != Holder::None && self.locked_by_other(client).is_none()
    }
}

/// The one page lookup: the page containing `offset`, else the first page
/// starting inside `[offset, offset + len)`.
fn find(pages: &Pages, server: usize, offset: u64, len: usize) -> Option<PageKey> {
    pages
        .range(..=(server, offset))
        .next_back()
        .filter(|&(&(s, start), p)| s == server && offset < start + p.len as u64)
        .or_else(|| {
            pages
                .range((server, offset)..(server, offset + len as u64))
                .next()
        })
        .map(|(&key, _)| key)
}

/// Violations and counters: where every rule reports.
#[derive(Default)]
struct Findings {
    violations: Vec<Violation>,
    counts: Counts,
}

impl Findings {
    fn push(&mut self, v: Violation) {
        self.counts.violations += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// A finding about the verb `ev` itself.
    fn verb(&mut self, rule: &'static str, ev: &VerbEvent, detail: String) {
        self.push(Violation {
            rule,
            client: Some(ev.client),
            server: ev.server,
            offset: ev.offset,
            len: ev.len,
            time: ev.time,
            detail,
        });
    }
}

#[derive(Default)]
struct State {
    pages: Pages,
    traffic: protocol::Traffic,
    threads: hb::Threads,
    out: Findings,
}

/// The checker. Install once per cluster; query at end of run.
pub struct Racecheck {
    cluster: Cluster,
    page_size: usize,
    state: RefCell<State>,
}

impl Racecheck {
    /// Build a checker for `cluster`, whose index pages are `page_size`
    /// bytes, and register it as one of the cluster's verb observers
    /// (others — telemetry — may coexist). It costs nothing until
    /// installed: the bus checks a flag per event.
    pub fn install(cluster: &Cluster, page_size: usize) -> Rc<Racecheck> {
        assert!(page_size >= 8, "page must at least hold the lock word");
        let rc = Rc::new(Racecheck {
            cluster: cluster.clone(),
            page_size,
            state: RefCell::new(State::default()),
        });
        cluster.add_observer(rc.clone());
        rc
    }

    /// Register the page at `ptr` as a published, lock-protected node,
    /// seeding the shadow lock word from memory. For pages created on the
    /// untimed setup path; see [`walk::register_design`].
    pub fn register_page(&self, ptr: RemotePtr) {
        let key = (ptr.server(), ptr.offset());
        let mut page = Page::new(self.page_size, self.mem_word(key), self.cluster.sim().now());
        page.sync_seen = true;
        self.state.borrow_mut().pages.insert(key, page);
    }

    /// All recorded violations (capped at an internal maximum;
    /// [`Counts::violations`] keeps the true total).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().out.violations.clone()
    }

    /// Aggregate counters.
    pub fn counts(&self) -> Counts {
        self.state.borrow().out.counts
    }

    /// Multi-line report (empty string when clean).
    pub fn report(&self) -> String {
        let out = &self.state.borrow().out;
        let mut s: String = out.violations.iter().map(|v| format!("{v}\n")).collect();
        let dropped = out.counts.violations as usize - out.violations.len();
        if dropped > 0 {
            s.push_str(&format!(
                "[racecheck] ... and {dropped} more (cap reached)\n"
            ));
        }
        s
    }

    /// Panic with the full report if any rule fired.
    pub fn assert_clean(&self) {
        let counts = self.counts();
        assert!(
            counts.violations == 0,
            "racecheck found {} violation(s) over {} verbs:\n{}",
            counts.violations,
            counts.verbs_seen,
            self.report()
        );
    }

    /// Scan every tracked page's *current in-memory* lock word and report
    /// those still held — the orphaned-lock detector, meant to run at
    /// quiescence (`Sim::live_tasks() == 0`). A lock held with no task
    /// left to release it is a leak: either a client path exited without
    /// unlocking (a protocol bug) or the holder was killed and no
    /// contender has broken the lease yet (expected only in runs that
    /// kill clients). Callers decide which holders are excusable, e.g.
    /// by checking `Cluster::client_dead(h.owner)`.
    pub fn held_locks(&self) -> Vec<HeldLock> {
        let st = self.state.borrow();
        st.pages
            .iter()
            .filter_map(|(&key, page)| {
                let word = self.mem_word(key);
                lock_word::is_locked(word).then(|| HeldLock {
                    server: key.0,
                    offset: key.1,
                    word,
                    owner: match page.holder {
                        Holder::Client(c) if page.word == word => c,
                        _ => lock_word::owner_of(word),
                    },
                })
            })
            .collect()
    }

    /// Run the end-of-run structural walk for `design` and fold any
    /// findings into the violation list. Returns their number.
    pub fn check_structure(&self, design: &namdex_core::Design) -> usize {
        let found = walk::check_design(design);
        let n = found.len();
        let out = &mut self.state.borrow_mut().out;
        found.into_iter().for_each(|v| out.push(v));
        n
    }

    /// The lock word in memory now, via the untimed control path (all
    /// pool borrows are released before an event fires).
    fn mem_word(&self, (server, offset): PageKey) -> u64 {
        let mut word = [0u8; 8];
        self.cluster
            .with_pool(server, |p| p.copy_out(offset, &mut word));
        u64::from_le_bytes(word)
    }
}

impl VerbObserver for Racecheck {
    fn on_verb(&self, ev: &VerbEvent) {
        let State {
            pages,
            traffic,
            threads,
            out,
        } = &mut *self.state.borrow_mut();
        out.counts.verbs_seen += 1;
        traffic.check_access(pages, ev, out);

        let at = (ev.server, ev.offset);
        let prev = match ev.kind {
            VerbKind::Alloc => {
                let mut page = Page::new(ev.len, 0, ev.time);
                page.private_to = Some(ev.client);
                pages.insert(at, page);
                return;
            }
            VerbKind::Read | VerbKind::Write => None,
            VerbKind::Cas { prev, .. } | VerbKind::Faa { prev, .. } => Some(prev),
        };
        let short = prev.is_none() && ev.len < MIN_PAGE_ACCESS;
        let key = match find(pages, ev.server, ev.offset, ev.len) {
            Some(key) => key,
            None if short => return,
            None => {
                // The event fires at apply time, so for a READ or WRITE
                // the word in memory now is the word it saw or left.
                let word = prev.unwrap_or_else(|| self.mem_word(at));
                pages.insert(at, Page::new(self.page_size, word, ev.time));
                at
            }
        };
        let page = pages.get_mut(&key).expect("found or just registered");
        let mem_word = || self.mem_word(key);
        match ev.kind {
            VerbKind::Alloc => unreachable!("handled above"),
            VerbKind::Read => {
                protocol::on_read(page, ev, mem_word);
                if !short {
                    threads.on_read(page, key, ev, out);
                }
            }
            VerbKind::Write => {
                // `hb` first: it judges the write by the lock state the
                // write met, which `protocol` then moves (publication,
                // resync after a tamper).
                threads.on_write(page, key, ev, out);
                protocol::on_write(page, key, ev, mem_word, out);
            }
            // An atomic inside a page's payload is no part of the
            // protocol: only the access rules above apply.
            VerbKind::Cas { .. } | VerbKind::Faa { .. } if ev.offset != key.1 => {}
            VerbKind::Cas { expected, prev, .. } => {
                protocol::on_cas(page, ev, rdma_sim::spec::LEASE_DURATION, out);
                threads.on_cas(page, key, ev, prev == expected, out);
            }
            VerbKind::Faa { .. } => {
                protocol::on_faa(page, ev, out);
                threads.on_faa(page, key, ev, out);
            }
        }
    }

    fn on_free(&self, server: usize, offset: u64, len: usize, time: SimTime) {
        let st = &mut *self.state.borrow_mut();
        st.traffic.note_freed(server, offset, len, time);
        // Retired pages stop being protocol pages.
        while let Some(key) = find(&st.pages, server, offset, len) {
            st.pages.remove(&key);
            st.threads.forget_pages(|k| *k == key);
        }
    }

    fn on_server_recovered(&self, server: usize, time: SimTime) {
        // Recovery rewound this server's memory to the durable prefix: a
        // mutation that applied before the crash but never reached the
        // log has been *undone*, so shadow words tracked from pre-crash
        // verbs can be stale — legitimately — and pre-crash clocks must
        // not order post-crash accesses. Whoever held a lock at the crash
        // is known only by the recovered word now. Private pages keep
        // their owner: their raw writes are unjudged anyway, and a
        // reverted allocation is overwritten when the offset is handed
        // out again.
        let st = &mut *self.state.borrow_mut();
        for (&key, page) in st.pages.range_mut((server, 0)..=(server, u64::MAX)) {
            page.clocks = hb::PageClocks::default();
            if page.private_to.is_none() {
                page.resync(self.mem_word(key), time);
            }
        }
        st.threads.forget_pages(|k| k.0 == server);
    }

    fn on_rpc(&self, ev: &RpcEvent) {
        self.state.borrow_mut().threads.on_rpc(ev.client, ev.server);
    }

    fn on_unreachable(&self, client: u64, server: usize, time: SimTime) {
        let st = &mut *self.state.borrow_mut();
        st.traffic.note_unreachable(client, server, time);
        st.threads.drop_pending(client);
    }

    fn on_verb_failed(&self, client: u64, _server: usize, _time: SimTime) {
        // The attempt aborts; its bytes never escape into a result.
        self.state.borrow_mut().threads.drop_pending(client);
    }

    fn on_op_start(&self, client: u64, _kind: OpKind, _args: Option<OpArgs>, _time: SimTime) {
        self.state.borrow_mut().threads.drop_pending(client);
    }

    fn on_op_end(
        &self,
        client: u64,
        kind: OpKind,
        ok: bool,
        _outcome: Option<&OpOutcome>,
        time: SimTime,
    ) {
        let st = &mut *self.state.borrow_mut();
        if ok {
            st.threads.report_pending(client, kind, time, &mut st.out);
        } else {
            st.threads.drop_pending(client);
        }
    }

    fn on_fence(&self, client: u64, kind: FenceKind, server: usize, offset: u64, time: SimTime) {
        let st = &mut *self.state.borrow_mut();
        let (threads, out) = (&mut st.threads, &mut st.out);
        match kind {
            FenceKind::Revalidate | FenceKind::Discard => {
                if let Some(key) = find(&st.pages, server, offset, 1) {
                    threads.close(client, key, kind == FenceKind::Discard, out);
                }
            }
            FenceKind::EpochCheck => threads.on_epoch_check(client, self.cluster.restart_epoch()),
            FenceKind::CachedUse => {
                let epoch = self.cluster.restart_epoch();
                threads.on_cached_use(client, epoch, server, offset, time, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pages: &[(PageKey, usize)]) -> Pages {
        let entry = |&(key, len)| (key, Page::new(len, 0, SimTime::ZERO));
        pages.iter().map(entry).collect()
    }

    #[test]
    fn find_resolves_containing_then_first_touched_page() {
        let pages = table(&[((0, 0x100), 256), ((0, 0x200), 256), ((1, 0x100), 256)]);
        // Offsets inside a page resolve to its start; the next page and
        // the other server's page at the same offset are distinct.
        assert_eq!(find(&pages, 0, 0x100, 8), Some((0, 0x100)));
        assert_eq!(find(&pages, 0, 0x1f8, 8), Some((0, 0x100)));
        assert_eq!(find(&pages, 0, 0x200, 256), Some((0, 0x200)));
        assert_eq!(find(&pages, 1, 0x180, 1), Some((1, 0x100)));
        // An access that starts before a page and runs into it.
        assert_eq!(find(&pages, 0, 0xf0, 32), Some((0, 0x100)));
        // Past every page, and on a server with none.
        assert_eq!(find(&pages, 0, 0x300, 256), None);
        assert_eq!(find(&pages, 2, 0x100, 256), None);
    }

    #[test]
    fn unknown_holder_falls_back_to_the_owner_byte() {
        let mut page = Page::new(256, lock_word::locked_by(0, 0x105), SimTime::ZERO);
        assert_eq!(page.holder, Holder::Unknown);
        // Clients 5 and 0x105 share the owner byte: only the word can tell.
        assert!(page.held_by(5) && page.held_by(0x105));
        assert_eq!(page.locked_by_other(6), Some(5));
        // Once the acquire is observed the full id decides.
        page.holder = Holder::Client(0x105);
        assert!(page.held_by(0x105) && !page.held_by(5));
        assert_eq!(page.locked_by_other(5), Some(0x105));
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let mut out = Findings::default();
        for i in 0..(MAX_VIOLATIONS + 5) {
            out.push(Violation {
                rule: "unvalidated-race",
                client: Some(i as u64),
                server: 0,
                offset: 0x100,
                len: 256,
                time: SimTime::ZERO,
                detail: String::new(),
            });
        }
        assert_eq!(out.violations.len(), MAX_VIOLATIONS);
        assert_eq!(out.counts.violations, (MAX_VIOLATIONS + 5) as u64);
    }
}
