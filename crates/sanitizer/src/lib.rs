#![warn(missing_docs)]

//! # sanitizer — a race detector for the simulated RDMA cluster
//!
//! The simulator applies verb effects atomically at their completion
//! instant, so protocol-level races (torn lock handoffs, version
//! rollbacks, writes landing on unlocked pages, reads of epoch-retired
//! memory) *happen* — but without a checker they only surface as
//! corrupted answers, usually far from the buggy verb. This crate turns
//! the verb stream exposed by `rdma_sim::observer` into an
//! online checker of the optimistic-lock-coupling protocol shared by all
//! three index designs (§3.2/§4.2 of the paper), plus an end-of-run
//! structural walk over the B-link pages ([`walk`]).
//!
//! ## Invariants enforced on the verb stream
//!
//! 1. **Lock discipline** — a `WRITE` overlapping a published node's
//!    bytes is legal only while that node's lock bit is held *by the
//!    writer* (acquired via the CAS observed earlier).
//! 2. **Version protocol** — a node's `(version, lock-bit)` word may only
//!    move as `v --CAS--> v|1 --FAA(+1)--> v+2`: lock acquisition keeps
//!    the version, unlock bumps it, and the version never decreases.
//!    A plain `WRITE` that changes the word, an unlock `FAA` on an
//!    unlocked word, an unlock by a non-holder, or a `CAS` installing
//!    anything but the lock transition are violations.
//! 3. **Atomic hygiene** — atomics must be 8-byte aligned and must not
//!    overlap in-flight non-atomic `WRITE`s from other clients (except on
//!    the lock word itself, where the holder's write-back legally crosses
//!    a contender's failing CAS — legal precisely because the write-back
//!    does not change the word, which invariant 2 checks).
//! 4. **No use-after-free** — no verb may touch a region retired by epoch
//!    maintenance (`namdex_core::gc::note_freed`).
//!
//! ## Private pages
//!
//! A freshly `RDMA_ALLOC`ed page is *private* to its allocator: the
//! protocol prepares split siblings and new roots with plain unlocked
//! `WRITE`s before publishing a pointer to them, and that is sound
//! because no other client can reach the page yet. The checker models
//! this: an allocation registers the page as private, the owner's
//! accesses to it are unchecked, and the page is *published* (full
//! checking begins) the first time any other client's verb — or any
//! lock CAS — touches it. Publication is permanent.
//!
//! Pages created on the untimed setup path (initial bulk load) produce no
//! verb events; register them eagerly with [`Sanitizer::register_page`]
//! or the design-aware walkers in [`walk`].

pub mod walk;

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use blink::layout::lock_word;
use rdma_sim::observer::{AttemptKind, VerbEvent, VerbKind, VerbObserver};
use rdma_sim::{Cluster, RemotePtr};
use simnet::SimTime;

/// Classification of a protocol violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// WRITE overlapping a published node not holding its lock.
    UnlockedWrite,
    /// Lock word moved outside the CAS/FAA protocol (rollback, unlock
    /// without lock, non-holder unlock, non-transition CAS).
    VersionProtocol,
    /// A plain WRITE changed a node's version/lock word.
    VersionTamper,
    /// Atomic verb on a non-8-byte-aligned offset.
    MisalignedAtomic,
    /// Atomic overlapping an in-flight non-atomic WRITE (or vice versa)
    /// from another client outside the lock word.
    AtomicRace,
    /// Verb touched a region retired by epoch GC.
    UseAfterFree,
    /// A lease-break CAS fired before the holder's lease expired: the
    /// breaker cannot have proof the holder is dead.
    LeaseBreak,
    /// A mutating verb succeeded against a server the client had seen as
    /// unreachable, without an intervening re-validating READ — the
    /// client may be acting on pre-crash cached state.
    UnreachableWrite,
    /// End-of-run structural walk found a malformed page or chain.
    Structural,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::UnlockedWrite => "unlocked-write",
            ViolationKind::VersionProtocol => "version-protocol",
            ViolationKind::VersionTamper => "version-tamper",
            ViolationKind::MisalignedAtomic => "misaligned-atomic",
            ViolationKind::AtomicRace => "atomic-race",
            ViolationKind::UseAfterFree => "use-after-free",
            ViolationKind::LeaseBreak => "lease-break",
            ViolationKind::UnreachableWrite => "unreachable-write",
            ViolationKind::Structural => "structural",
        };
        f.write_str(s)
    }
}

/// One detected violation, with enough context to find the buggy verb:
/// which server and byte range, at what virtual time, issued by whom.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Memory server the access targeted.
    pub server: usize,
    /// Start offset of the offending range in the server's pool.
    pub offset: u64,
    /// Length of the offending range.
    pub len: usize,
    /// Virtual time of the offending verb's completion (structural
    /// findings use the time of the walk).
    pub time: SimTime,
    /// Issuing client (endpoint id); `None` for structural findings.
    pub client: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] server {} range {}+{} t={}ns",
            self.kind,
            self.server,
            self.offset,
            self.len,
            self.time.as_nanos()
        )?;
        if let Some(c) = self.client {
            write!(f, " client {c}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Who holds a node's lock, per the checker's shadow state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Holder {
    /// Lock bit clear.
    Unlocked,
    /// Locked by this client's observed CAS.
    LockedBy(u64),
    /// Lock bit set but the acquirer was not observed (page published
    /// while locked, or the word was tampered with). Checked leniently.
    LockedUnknown,
}

/// A node lock found still held by the quiescence scan
/// ([`Sanitizer::held_locks`]).
#[derive(Clone, Copy, Debug)]
pub struct HeldLock {
    /// Memory server of the node.
    pub server: usize,
    /// Page-start offset of the node.
    pub offset: u64,
    /// The in-memory lock word at scan time.
    pub word: u64,
    /// Owner id recorded in the word ([`lock_word::owner_of`]).
    pub owner: u64,
}

#[derive(Clone, Copy, Debug)]
struct NodeState {
    /// Shadow copy of the 8-byte `(version, lock-bit)` word.
    word: u64,
    holder: Holder,
    /// `Some(owner)` while the page is still private to its allocator.
    private_to: Option<u64>,
    /// When the current locked word was first observed (drives the
    /// lease-break legality check; meaningless while unlocked).
    locked_since: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct Access {
    offset: u64,
    len: usize,
    issued: SimTime,
    time: SimTime,
    client: u64,
}

#[derive(Clone, Copy, Debug)]
struct Freed {
    len: usize,
    time: SimTime,
}

/// How many recently completed writes/atomics are kept per server for the
/// in-flight overlap check. Verbs overlap only within a round trip, so a
/// small window is ample.
const RING: usize = 256;

/// Hard cap on stored violations; further ones are counted, not stored.
const MAX_VIOLATIONS: usize = 1024;

#[derive(Default)]
struct State {
    /// Registered page-sized nodes, keyed by `(server, start offset)`.
    nodes: BTreeMap<(usize, u64), NodeState>,
    /// Epoch-retired regions, keyed by `(server, start offset)`.
    freed: BTreeMap<(usize, u64), Freed>,
    max_freed_len: usize,
    writes: VecDeque<(usize, Access)>,
    atomics: VecDeque<(usize, Access)>,
    violations: Vec<Violation>,
    dropped: usize,
    verbs_seen: u64,
    /// `(client, server)` pairs that saw `ServerUnreachable` and have not
    /// re-validated with a successful READ since.
    unreachable: BTreeMap<(u64, usize), SimTime>,
}

/// The online protocol checker. Install it on a cluster with
/// [`Sanitizer::install`]; it receives every completed verb, maintains
/// shadow lock state per registered page, and accumulates [`Violation`]s.
pub struct Sanitizer {
    cluster: Cluster,
    page_size: usize,
    state: RefCell<State>,
}

impl Sanitizer {
    /// Build a checker for `cluster` (pages are `page_size` bytes) and
    /// register it as one of the cluster's verb observers (other
    /// observers — e.g. telemetry — may coexist).
    pub fn install(cluster: &Cluster, page_size: usize) -> Rc<Sanitizer> {
        assert!(page_size >= 8, "page must at least hold the lock word");
        let san = Rc::new(Sanitizer {
            cluster: cluster.clone(),
            page_size,
            state: RefCell::new(State::default()),
        });
        cluster.add_observer(san.clone());
        san
    }

    /// The cluster this checker observes.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Register the page at `ptr` as a published node, seeding the shadow
    /// lock word from current memory. Use for pages created on the
    /// untimed setup path (which emits no verb events).
    pub fn register_page(&self, ptr: RemotePtr) {
        let word = self.read_word(ptr.server(), ptr.offset());
        let holder = if lock_word::is_locked(word) {
            Holder::LockedUnknown
        } else {
            Holder::Unlocked
        };
        self.state.borrow_mut().nodes.insert(
            (ptr.server(), ptr.offset()),
            NodeState {
                word,
                holder,
                private_to: None,
                locked_since: self.cluster.sim().now(),
            },
        );
    }

    /// Number of registered (private or published) nodes.
    pub fn nodes_tracked(&self) -> usize {
        self.state.borrow().nodes.len()
    }

    /// Number of verb events observed so far.
    pub fn verbs_seen(&self) -> u64 {
        self.state.borrow().verbs_seen
    }

    /// Violations recorded so far (capped at an internal limit; see
    /// [`Sanitizer::dropped`]).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// Violations discarded after the storage cap was hit.
    pub fn dropped(&self) -> usize {
        self.state.borrow().dropped
    }

    /// Whether no violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.state.borrow().violations.is_empty()
    }

    /// Panic with a full report unless the run is clean.
    pub fn assert_clean(&self) {
        let st = self.state.borrow();
        if st.violations.is_empty() {
            return;
        }
        let mut msg = format!(
            "sanitizer: {} protocol violation(s) ({} dropped) over {} verbs:\n",
            st.violations.len(),
            st.dropped,
            st.verbs_seen
        );
        for v in &st.violations {
            msg.push_str(&format!("  {v}\n"));
        }
        drop(st);
        panic!("{msg}");
    }

    /// Scan every tracked node's *current in-memory* lock word and
    /// report those still held — the orphaned-lock detector, meant to
    /// run at quiescence (`Sim::live_tasks() == 0`). A lock held with no
    /// task left to release it is a leak: either a client path exited
    /// without unlocking (a protocol bug) or the holder was killed and
    /// no contender has broken the lease yet (expected only in runs that
    /// kill clients). Callers decide which holders are excusable, e.g.
    /// by checking `Cluster::client_dead(h.owner)`.
    pub fn held_locks(&self) -> Vec<HeldLock> {
        let keys: Vec<(usize, u64)> = self.state.borrow().nodes.keys().copied().collect();
        keys.into_iter()
            .filter_map(|(server, offset)| {
                let word = self.read_word(server, offset);
                lock_word::is_locked(word).then(|| HeldLock {
                    server,
                    offset,
                    word,
                    owner: lock_word::owner_of(word),
                })
            })
            .collect()
    }

    /// Run the end-of-run structural walk for `design` and fold any
    /// findings into this checker's violation list. Returns the number of
    /// structural findings.
    pub fn check_structure(&self, design: &namdex_core::Design) -> usize {
        let found = walk::check_design(design);
        let n = found.len();
        let mut st = self.state.borrow_mut();
        for v in found {
            push_violation(&mut st, v);
        }
        n
    }

    // ---- internals -----------------------------------------------------

    fn read_word(&self, server: usize, offset: u64) -> u64 {
        let b = self.cluster.setup_read(RemotePtr::new(server, offset), 8);
        u64::from_le_bytes(b.try_into().expect("8-byte word"))
    }

    /// Node start offsets whose page intersects `[off, off + len)` on
    /// `server`.
    fn intersecting_nodes(st: &State, ps: usize, server: usize, off: u64, len: usize) -> Vec<u64> {
        let lo = off.saturating_sub(ps as u64 - 1);
        let hi = off + len as u64;
        st.nodes
            .range((server, lo)..(server, hi))
            .filter(|(&(_, start), _)| start + ps as u64 > off)
            .map(|(&(_, start), _)| start)
            .collect()
    }

    fn violation(&self, st: &mut State, kind: ViolationKind, ev: &VerbEvent, detail: String) {
        push_violation(
            st,
            Violation {
                kind,
                server: ev.server,
                offset: ev.offset,
                len: ev.len,
                time: ev.time,
                client: Some(ev.client),
                detail,
            },
        );
    }

    /// Flip a node from private to published, seeding the shadow word.
    fn publish(st: &mut State, server: usize, start: u64, word: u64, time: SimTime) {
        if let Some(n) = st.nodes.get_mut(&(server, start)) {
            n.private_to = None;
            n.word = word;
            n.holder = if lock_word::is_locked(word) {
                Holder::LockedUnknown
            } else {
                Holder::Unlocked
            };
            n.locked_since = time;
        }
    }

    fn check_freed(&self, st: &mut State, ev: &VerbEvent) {
        if st.freed.is_empty() {
            return;
        }
        let lo = ev.offset.saturating_sub(st.max_freed_len.max(1) as u64 - 1);
        let hi = ev.offset + ev.len as u64;
        let hits: Vec<(u64, Freed)> = st
            .freed
            .range((ev.server, lo)..(ev.server, hi))
            .filter(|(&(_, start), f)| start + f.len as u64 > ev.offset)
            .map(|(&(_, start), f)| (start, *f))
            .collect();
        for (start, f) in hits {
            self.violation(
                st,
                ViolationKind::UseAfterFree,
                ev,
                format!(
                    "{:?} touches region {}+{} retired at t={}ns",
                    ev.kind,
                    start,
                    f.len,
                    f.time.as_nanos()
                ),
            );
        }
    }

    /// Record `ev` in `own` and flag time-and-range overlaps against
    /// `other` (accesses of the opposing kind) from different clients.
    /// Overlap confined to a registered lock word is exempt (see module
    /// docs, invariant 3).
    fn check_inflight(&self, st: &mut State, ev: &VerbEvent, atomic: bool) {
        let acc = Access {
            offset: ev.offset,
            len: ev.len,
            issued: ev.issued,
            time: ev.time,
            client: ev.client,
        };
        let ps = self.page_size as u64;
        let mut hits = Vec::new();
        {
            let other = if atomic { &st.writes } else { &st.atomics };
            for &(srv, a) in other.iter() {
                if srv != ev.server || a.client == ev.client {
                    continue;
                }
                let ilo = a.offset.max(ev.offset);
                let ihi = (a.offset + a.len as u64).min(ev.offset + ev.len as u64);
                if ilo >= ihi {
                    continue;
                }
                // Completed strictly before the other was issued → no
                // temporal overlap.
                if a.time <= ev.issued || ev.time <= a.issued {
                    continue;
                }
                // Exempt if the intersection sits inside some registered
                // node's lock word.
                let word_start = st
                    .nodes
                    .range((ev.server, ilo.saturating_sub(ps - 1))..(ev.server, ihi))
                    .map(|(&(_, s), _)| s)
                    .find(|&s| ilo >= s && ihi <= s + 8);
                if word_start.is_some() {
                    continue;
                }
                hits.push((a, ilo, ihi));
            }
        }
        for (a, ilo, ihi) in hits {
            self.violation(
                st,
                ViolationKind::AtomicRace,
                ev,
                format!(
                    "{} [{}, {}) overlaps in-flight {} by client {} (issued t={}ns, \
                     completed t={}ns) outside any lock word",
                    if atomic { "atomic" } else { "WRITE" },
                    ilo,
                    ihi,
                    if atomic { "WRITE" } else { "atomic" },
                    a.client,
                    a.issued.as_nanos(),
                    a.time.as_nanos()
                ),
            );
        }
        let ring = if atomic {
            &mut st.atomics
        } else {
            &mut st.writes
        };
        ring.push_back((ev.server, acc));
        if ring.len() > RING {
            ring.pop_front();
        }
    }

    fn on_write(&self, st: &mut State, ev: &VerbEvent) {
        let ps = self.page_size;
        for start in Self::intersecting_nodes(st, ps, ev.server, ev.offset, ev.len) {
            let node = st.nodes[&(ev.server, start)];
            match node.private_to {
                Some(owner) if owner == ev.client => continue, // private prep write
                Some(_) => {
                    // First touch by a non-owner publishes; the word is
                    // taken from memory (post-effect), so this write
                    // itself is not judged against pre-publication state.
                    let word = self.read_word(ev.server, start);
                    Self::publish(st, ev.server, start, word, ev.time);
                    continue;
                }
                None => {}
            }
            match node.holder {
                Holder::LockedBy(c) if c == ev.client => {}
                Holder::LockedUnknown => {}
                Holder::Unlocked => self.violation(
                    st,
                    ViolationKind::UnlockedWrite,
                    ev,
                    format!("WRITE overlaps node {start} whose lock is not held"),
                ),
                Holder::LockedBy(c) => self.violation(
                    st,
                    ViolationKind::UnlockedWrite,
                    ev,
                    format!("WRITE overlaps node {start} locked by client {c}"),
                ),
            }
            // A write fully covering the lock word must leave it intact.
            if ev.offset <= start && ev.offset + ev.len as u64 >= start + 8 {
                let mem = self.read_word(ev.server, start);
                if mem != node.word {
                    self.violation(
                        st,
                        ViolationKind::VersionTamper,
                        ev,
                        format!(
                            "WRITE changed node {start} version/lock word \
                             {:#x} -> {:#x}",
                            node.word, mem
                        ),
                    );
                    // Resync to memory so later checks stay meaningful.
                    if let Some(n) = st.nodes.get_mut(&(ev.server, start)) {
                        n.word = mem;
                        n.holder = if lock_word::is_locked(mem) {
                            Holder::LockedUnknown
                        } else {
                            Holder::Unlocked
                        };
                        n.locked_since = ev.time;
                    }
                }
            }
        }
        self.check_inflight(st, ev, false);
    }

    fn on_atomic(&self, st: &mut State, ev: &VerbEvent) {
        if !ev.offset.is_multiple_of(8) {
            self.violation(
                st,
                ViolationKind::MisalignedAtomic,
                ev,
                format!("{:?} at non-8-byte-aligned offset", ev.kind),
            );
        }
        let ps = self.page_size;
        // The (single) node whose page contains this word, if any.
        let start = Self::intersecting_nodes(st, ps, ev.server, ev.offset, ev.len)
            .into_iter()
            .next();
        match ev.kind {
            VerbKind::Cas {
                expected,
                new,
                prev,
            } => {
                let success = prev == expected;
                let acquire_shape = lock_word::is_acquire(expected, new);
                let break_shape = lock_word::is_lease_break(expected, new);
                match start {
                    None => {
                        // Unregistered: a successful acquire-shaped CAS is
                        // the protocol's lock acquisition — lazily adopt
                        // the page (covers runtime-split pages the eager
                        // walk never saw). Anything else is a raw atomic
                        // outside the checker's scope.
                        if success && acquire_shape {
                            st.nodes.insert(
                                (ev.server, ev.offset),
                                NodeState {
                                    word: new,
                                    holder: Holder::LockedBy(ev.client),
                                    private_to: None,
                                    locked_since: ev.time,
                                },
                            );
                        }
                    }
                    Some(start) if start == ev.offset => {
                        let node = st.nodes[&(ev.server, start)];
                        if node.private_to.is_some() {
                            // Any lock-word CAS publishes a private page.
                            Self::publish(st, ev.server, start, prev, ev.time);
                        }
                        let node = st.nodes[&(ev.server, start)];
                        if success {
                            if acquire_shape {
                                if node.word != prev && node.private_to.is_none() {
                                    self.violation(
                                        st,
                                        ViolationKind::VersionProtocol,
                                        ev,
                                        format!(
                                            "lock CAS found word {prev:#x} but checker \
                                             tracked {:#x} (unobserved mutation)",
                                            node.word
                                        ),
                                    );
                                }
                                if let Some(n) = st.nodes.get_mut(&(ev.server, start)) {
                                    n.word = new;
                                    n.holder = Holder::LockedBy(ev.client);
                                    n.locked_since = ev.time;
                                }
                            } else if break_shape {
                                // Lease break: legal only after the same
                                // locked word has been held a full lease.
                                let lease = self.cluster.spec().lease_duration;
                                let held = ev.time.since(node.locked_since);
                                if held < lease {
                                    self.violation(
                                        st,
                                        ViolationKind::LeaseBreak,
                                        ev,
                                        format!(
                                            "lease break of word {prev:#x} after only \
                                             {}ns held (lease is {}ns)",
                                            held.as_nanos(),
                                            lease.as_nanos()
                                        ),
                                    );
                                }
                                if let Some(n) = st.nodes.get_mut(&(ev.server, start)) {
                                    n.word = new;
                                    n.holder = Holder::Unlocked;
                                }
                            } else {
                                let mut what = format!(
                                    "CAS moved lock word {prev:#x} -> {new:#x}, not the \
                                     lock transition v -> v|1"
                                );
                                if new & !1 < prev & !1 {
                                    what.push_str(" (version rollback)");
                                }
                                self.violation(st, ViolationKind::VersionProtocol, ev, what);
                                if let Some(n) = st.nodes.get_mut(&(ev.server, start)) {
                                    n.word = new;
                                    n.holder = if lock_word::is_locked(new) {
                                        Holder::LockedUnknown
                                    } else {
                                        Holder::Unlocked
                                    };
                                    n.locked_since = ev.time;
                                }
                            }
                        } else if node.word != prev && node.private_to.is_none() {
                            self.violation(
                                st,
                                ViolationKind::VersionProtocol,
                                ev,
                                format!(
                                    "failed CAS observed word {prev:#x} but checker \
                                     tracked {:#x} (unobserved mutation)",
                                    node.word
                                ),
                            );
                            if let Some(n) = st.nodes.get_mut(&(ev.server, start)) {
                                n.word = prev;
                                n.holder = if lock_word::is_locked(prev) {
                                    Holder::LockedUnknown
                                } else {
                                    Holder::Unlocked
                                };
                                n.locked_since = ev.time;
                            }
                        }
                    }
                    Some(_) => {
                        // Atomic inside a node's payload: not part of the
                        // protocol; only the overlap check below applies.
                    }
                }
            }
            VerbKind::Faa { add, prev } => {
                if let Some(start) = start {
                    if start == ev.offset {
                        let node = st.nodes[&(ev.server, start)];
                        if node.private_to.is_some() {
                            Self::publish(st, ev.server, start, prev, ev.time);
                        }
                        let node = st.nodes[&(ev.server, start)];
                        let new = prev.wrapping_add(add);
                        if !lock_word::is_locked(prev) {
                            self.violation(
                                st,
                                ViolationKind::VersionProtocol,
                                ev,
                                format!("unlock FAA on unlocked word {prev:#x} (no lock held)"),
                            );
                        } else {
                            if add != 1 {
                                self.violation(
                                    st,
                                    ViolationKind::VersionProtocol,
                                    ev,
                                    format!("unlock FAA with addend {add}, expected 1"),
                                );
                            }
                            match node.holder {
                                Holder::LockedBy(c) if c != ev.client => self.violation(
                                    st,
                                    ViolationKind::VersionProtocol,
                                    ev,
                                    format!(
                                        "unlock FAA by client {} but node {start} is \
                                         locked by client {c}",
                                        ev.client
                                    ),
                                ),
                                _ => {}
                            }
                        }
                        if let Some(n) = st.nodes.get_mut(&(ev.server, start)) {
                            n.word = new;
                            n.holder = if lock_word::is_locked(new) {
                                Holder::LockedUnknown
                            } else {
                                Holder::Unlocked
                            };
                            n.locked_since = ev.time;
                        }
                    }
                }
            }
            _ => unreachable!("on_atomic only sees Cas/Faa"),
        }
        self.check_inflight(st, ev, true);
    }
}

impl Sanitizer {
    /// A mutating verb from a client whose last contact with this server
    /// ended in `ServerUnreachable` (no re-validating READ since) may be
    /// applying pre-crash cached state. Reported once per episode.
    fn check_unreachable_mutation(&self, st: &mut State, ev: &VerbEvent) {
        if let Some(seen) = st.unreachable.remove(&(ev.client, ev.server)) {
            self.violation(
                st,
                ViolationKind::UnreachableWrite,
                ev,
                format!(
                    "{:?} without re-validating READ after server was \
                     unreachable at t={}ns",
                    ev.kind,
                    seen.as_nanos()
                ),
            );
        }
    }
}

fn push_violation(st: &mut State, v: Violation) {
    if st.violations.len() >= MAX_VIOLATIONS {
        st.dropped += 1;
    } else {
        st.violations.push(v);
    }
}

impl VerbObserver for Sanitizer {
    fn on_verb(&self, ev: &VerbEvent) {
        let mut st = self.state.borrow_mut();
        st.verbs_seen += 1;
        match ev.kind {
            VerbKind::Alloc => {
                // Allocation of a page-sized region: track it as private
                // to the allocator. (Bump allocation never reuses freed
                // space, so no freed-overlap check applies.)
                if ev.len == self.page_size {
                    st.nodes.insert(
                        (ev.server, ev.offset),
                        NodeState {
                            word: 0,
                            holder: Holder::Unlocked,
                            private_to: Some(ev.client),
                            locked_since: ev.time,
                        },
                    );
                }
            }
            VerbKind::Read => {
                // A successful READ re-validates the client's view of
                // this server after an unreachable episode.
                st.unreachable.remove(&(ev.client, ev.server));
                self.check_freed(&mut st, ev);
                // A read by a non-owner publishes private pages it covers.
                let ps = self.page_size;
                let hits = Self::intersecting_nodes(&st, ps, ev.server, ev.offset, ev.len);
                for start in hits {
                    let node = st.nodes[&(ev.server, start)];
                    if matches!(node.private_to, Some(owner) if owner != ev.client) {
                        let word = self.read_word(ev.server, start);
                        Self::publish(&mut st, ev.server, start, word, ev.time);
                    }
                }
            }
            VerbKind::Write => {
                self.check_unreachable_mutation(&mut st, ev);
                self.check_freed(&mut st, ev);
                self.on_write(&mut st, ev);
            }
            VerbKind::Cas { .. } | VerbKind::Faa { .. } => {
                self.check_unreachable_mutation(&mut st, ev);
                self.check_freed(&mut st, ev);
                self.on_atomic(&mut st, ev);
            }
        }
    }

    fn on_unreachable(&self, client: u64, server: usize, kind: AttemptKind, time: SimTime) {
        let _ = kind;
        let mut st = self.state.borrow_mut();
        st.unreachable.entry((client, server)).or_insert(time);
    }

    fn on_server_recovered(&self, server: usize, time: SimTime) {
        // Recovery rewound this server's memory to the durable prefix:
        // a mutation that applied before the crash but never reached
        // the log has been *undone*, so shadow words tracked from
        // pre-crash verbs can be stale — legitimately, not through any
        // protocol violation. Resync every published node on the server
        // from the recovered memory. Private (pre-publish) pages keep
        // their owner: their raw writes are outside the protocol checks
        // anyway, and a reverted allocation is simply overwritten when
        // the offset is handed out again.
        let offsets: Vec<u64> = self
            .state
            .borrow()
            .nodes
            .iter()
            .filter(|(&(s, _), n)| s == server && n.private_to.is_none())
            .map(|(&(_, off), _)| off)
            .collect();
        for off in offsets {
            let word = self.read_word(server, off);
            if let Some(n) = self.state.borrow_mut().nodes.get_mut(&(server, off)) {
                n.word = word;
                n.holder = if lock_word::is_locked(word) {
                    Holder::LockedUnknown
                } else {
                    Holder::Unlocked
                };
                n.locked_since = time;
            }
        }
    }

    fn on_free(&self, server: usize, offset: u64, len: usize, time: SimTime) {
        let mut st = self.state.borrow_mut();
        st.freed.insert((server, offset), Freed { len, time });
        st.max_freed_len = st.max_freed_len.max(len);
        // Retired pages stop being protocol nodes.
        let ps = self.page_size as u64;
        let starts: Vec<u64> = st
            .nodes
            .range((server, offset.saturating_sub(ps - 1))..(server, offset + len as u64))
            .filter(|(&(_, s), _)| s + ps > offset)
            .map(|(&(_, s), _)| s)
            .collect();
        for s in starts {
            st.nodes.remove(&(server, s));
        }
    }
}
