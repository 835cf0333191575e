//! Protocol rules: what a verb may do to a page's `(version, lock-bit)`
//! word and bytes under the optimistic-lock-coupling protocol shared by
//! every design (§3.2/§4.2 of the paper, Listing 4).
//!
//! 1. **Version protocol** (`version-protocol`, `version-tamper`,
//!    `lease-break`) — the word may only move as `v --CAS--> v|1
//!    --FAA(+1)--> v+2`, or by a lease-break CAS once the same locked
//!    word has been held a full lease. A plain WRITE that changes the
//!    word, an unlock FAA on an unlocked word or by a non-holder, and a
//!    CAS installing anything else are violations.
//! 2. **Atomic hygiene** (`misaligned-atomic`, `atomic-race`) — atomics
//!    are 8-byte aligned and do not overlap in-flight WRITEs of other
//!    clients, except on a lock word: the holder's write-back legally
//!    crosses a contender's failing CAS, precisely because it leaves the
//!    word unchanged (which rule 1 checks).
//! 3. **No blind mutation** (`unreachable-write`) — a client that saw a
//!    server unreachable re-validates with a READ before it mutates
//!    there again; otherwise it may be applying pre-crash cached state.
//!    Initialising a page it allocated there since is not blind: the
//!    page holds nothing from before the outage (a split's new right
//!    half, built from the leaf the client has just locked and read).
//!
//! The page functions here are the only code that moves a [`Page`]'s
//! shadow word, holder, privacy and `sync_seen`; [`crate::hb`] reads
//! them (its lockset rule, `unlocked-write`, and dirty reads).

use std::collections::{BTreeMap, VecDeque};

use blink::layout::lock_word;
use rdma_sim::observer::{VerbEvent, VerbKind};
use simnet::{SimDur, SimTime};

use crate::{find, Findings, Holder, Page, PageKey, Pages};

/// How many recently completed writes/atomics are kept for the in-flight
/// overlap check. Verbs overlap only within a round trip, so a small
/// window is ample.
const RING: usize = 256;

#[derive(Clone, Copy)]
struct Access {
    server: usize,
    offset: u64,
    len: usize,
    issued: SimTime,
    time: SimTime,
    client: u64,
}

/// Rule state that is about regions and clients rather than pages.
#[derive(Default)]
pub(crate) struct Traffic {
    /// Recently completed WRITEs / atomics, in completion order.
    writes: VecDeque<Access>,
    atomics: VecDeque<Access>,
    /// `(client, server)` pairs that saw `ServerUnreachable` and have not
    /// re-validated with a successful READ since.
    unreachable: BTreeMap<(u64, usize), SimTime>,
}

impl Traffic {
    pub(crate) fn note_unreachable(&mut self, client: u64, server: usize, time: SimTime) {
        self.unreachable.entry((client, server)).or_insert(time);
    }

    /// Rules 2–3: judge the access itself, whatever page it lands on.
    pub(crate) fn check_access(&mut self, pages: &Pages, ev: &VerbEvent, out: &mut Findings) {
        let atomic = match ev.kind {
            VerbKind::Alloc => return,
            VerbKind::Read => {
                self.unreachable.remove(&(ev.client, ev.server));
                return;
            }
            VerbKind::Write => false,
            VerbKind::Cas { .. } | VerbKind::Faa { .. } => true,
        };
        // Reported once per unreachable episode. A WRITE into a page the
        // client allocated since the episode began leaves it open.
        let episode = (ev.client, ev.server);
        let initialises = |seen: &SimTime| {
            let page = find(pages, ev.server, ev.offset, ev.len).and_then(|key| pages.get(&key));
            !atomic && page.is_some_and(|p| p.private_to == Some(ev.client) && p.born >= *seen)
        };
        if let Some(seen) = self
            .unreachable
            .get(&episode)
            .copied()
            .filter(|t| !initialises(t))
        {
            self.unreachable.remove(&episode);
            let detail = format!(
                "{:?} without re-validating READ after server was unreachable at t={}ns",
                ev.kind,
                seen.as_nanos()
            );
            out.verb("unreachable-write", ev, detail);
        }
        if atomic && !ev.offset.is_multiple_of(8) {
            let detail = format!("{:?} at non-8-byte-aligned offset", ev.kind);
            out.verb("misaligned-atomic", ev, detail);
        }
        self.check_inflight(pages, ev, atomic, out);
    }

    /// Record `ev` among its own kind and report overlaps in time and
    /// range with the other kind (WRITE vs. atomic) from other clients.
    fn check_inflight(&mut self, pages: &Pages, ev: &VerbEvent, atomic: bool, out: &mut Findings) {
        let (own, other) = if atomic {
            (&mut self.atomics, &self.writes)
        } else {
            (&mut self.writes, &self.atomics)
        };
        let (name, other_name) = if atomic {
            ("atomic", "WRITE")
        } else {
            ("WRITE", "atomic")
        };
        // Completion order: nothing before the first access that completed
        // by the time `ev` was issued can overlap it in time.
        for a in other.iter().rev().take_while(|a| a.time > ev.issued) {
            let ilo = a.offset.max(ev.offset);
            let ihi = (a.offset + a.len as u64).min(ev.offset + ev.len as u64);
            if a.server != ev.server || a.client == ev.client || ilo >= ihi || ev.time <= a.issued {
                continue;
            }
            // An overlap confined to a page's lock word is the legal crossing.
            let on_lock_word = find(pages, ev.server, ilo, (ihi - ilo) as usize)
                .is_some_and(|(_, start)| ilo >= start && ihi <= start + 8);
            if !on_lock_word {
                let detail = format!(
                    "{name} [{ilo}, {ihi}) overlaps in-flight {other_name} by client {} (issued \
                     t={}ns, completed t={}ns) outside any lock word",
                    a.client,
                    a.issued.as_nanos(),
                    a.time.as_nanos()
                );
                out.verb("atomic-race", ev, detail);
            }
        }
        own.push_back(Access {
            server: ev.server,
            offset: ev.offset,
            len: ev.len,
            issued: ev.issued,
            time: ev.time,
            client: ev.client,
        });
        if own.len() > RING {
            own.pop_front();
        }
    }
}

/// A READ by anyone but its allocator publishes a private page.
pub(crate) fn on_read(page: &mut Page, ev: &VerbEvent, mem_word: impl FnOnce() -> u64) {
    if page.private_to.is_some_and(|owner| owner != ev.client) {
        page.publish(mem_word(), ev.time);
    }
}

/// The WRITE half of rule 1: who may write is [`crate::hb`]'s lockset
/// rule; what a write may not do is change the lock word. `mem_word`
/// reads the word the WRITE left in memory.
pub(crate) fn on_write(
    page: &mut Page,
    (_, start): PageKey,
    ev: &VerbEvent,
    mem_word: impl FnOnce() -> u64,
    out: &mut Findings,
) {
    match page.private_to {
        // The allocator prepares its page with plain writes.
        Some(owner) if owner == ev.client => return,
        // First touch by anyone else publishes; the word is taken from
        // memory, so this write is not judged against the state before.
        Some(_) => return page.publish(mem_word(), ev.time),
        None => {}
    }
    // A write covering the lock word must leave it intact.
    if ev.offset <= start && ev.offset + ev.len as u64 >= start + 8 {
        let mem = mem_word();
        if mem != page.word {
            let detail = format!(
                "WRITE changed node {start} version/lock word {:#x} -> {mem:#x}",
                page.word
            );
            out.verb("version-tamper", ev, detail);
            page.resync(mem, ev.time);
        }
    }
}

/// Rule 1 for a CAS on the page's lock word.
pub(crate) fn on_cas(page: &mut Page, ev: &VerbEvent, lease: SimDur, out: &mut Findings) {
    let VerbKind::Cas {
        expected,
        new,
        prev,
    } = ev.kind
    else {
        unreachable!("on_cas sees only CAS events");
    };
    // Any lock-word CAS publishes a private page.
    if page.private_to.is_some() {
        page.publish(prev, ev.time);
    }
    if page.word != prev {
        let detail = format!(
            "CAS observed word {prev:#x} but the checker tracked {:#x} (unobserved mutation)",
            page.word
        );
        out.verb("version-protocol", ev, detail);
        page.resync(prev, ev.time);
    }
    if prev != expected {
        return;
    }
    page.sync_seen = true;
    if lock_word::is_acquire(expected, new) {
        page.word = new;
        page.holder = Holder::Client(ev.client);
        page.locked_since = ev.time;
    } else if lock_word::is_lease_break(expected, new) {
        // Legal only after the same locked word has been held a full lease:
        // before that the breaker has no proof the holder is dead.
        let held = ev.time.since(page.locked_since);
        if held < lease {
            let detail = format!(
                "lease break of word {prev:#x} after only {}ns held (lease is {}ns)",
                held.as_nanos(),
                lease.as_nanos()
            );
            out.verb("lease-break", ev, detail);
        }
        page.word = new;
        page.holder = Holder::None;
    } else {
        let rollback = if new & !1 < prev & !1 {
            " (version rollback)"
        } else {
            ""
        };
        let detail = format!(
            "CAS moved lock word {prev:#x} -> {new:#x}, not the lock transition v -> v|1{rollback}"
        );
        out.verb("version-protocol", ev, detail);
        page.resync(new, ev.time);
    }
}

/// Rule 1 for an FAA on the page's lock word.
pub(crate) fn on_faa(page: &mut Page, ev: &VerbEvent, out: &mut Findings) {
    let VerbKind::Faa { add, prev } = ev.kind else {
        unreachable!("on_faa sees only FAA events");
    };
    if page.private_to.is_some() {
        page.publish(prev, ev.time);
    }
    page.sync_seen = true;
    if !lock_word::is_locked(prev) {
        let detail = format!("unlock FAA on unlocked word {prev:#x} (no lock held)");
        out.verb("version-protocol", ev, detail);
    } else {
        if add != 1 {
            let detail = format!("unlock FAA with addend {add}, expected 1");
            out.verb("version-protocol", ev, detail);
        }
        if let Holder::Client(c) = page.holder {
            if c != ev.client {
                let detail = format!(
                    "unlock FAA by client {} but the page is locked by client {c}",
                    ev.client
                );
                out.verb("version-protocol", ev, detail);
            }
        }
    }
    page.resync(prev.wrapping_add(add), ev.time);
}
