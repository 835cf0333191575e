//! The one-sided access protocol of §4.2 (Listing 4), shared by the
//! fine-grained design and the hybrid design's leaf level.
//!
//! * `remote_readLockOrRestart` → [`read_unlocked`]: READ the node; if
//!   its lock bit is set, spin by re-reading (a *remote* spinlock — each
//!   retry costs a round trip on the wire, not server CPU).
//! * `remote_upgradeToWriteLockOrRestart` → [`lock_node`]: CAS the
//!   `(version, lock-bit)` word from the observed unlocked value to its
//!   locked form; on CAS failure, re-read and retry.
//! * `remote_writeUnlock` → [`write_unlock`]: install the (optional)
//!   split sibling with a WRITE, write the modified node back, then
//!   FETCH_AND_ADD(+1) the lock word — clearing the lock bit and bumping
//!   the version in one atomic step.
//!
//! ## Lease-based lock recovery
//!
//! A client that dies between its lock CAS and its unlock FAA orphans
//! the node forever under the plain protocol. The lock word therefore
//! carries the holder's owner id and a lease epoch (see
//! [`blink::layout::lock_word`]): a contender that observes the *same*
//! locked word for [`rdma_sim::ClusterSpec::lease_duration`] of virtual
//! time concludes the holder is dead and breaks the lock with a CAS to
//! [`lock_word::break_lease`] — clearing the lock bit, bumping the
//! version (so optimistic readers restart) and the lease epoch. Because
//! every legitimate unlock changes the word, a live holder can never be
//! broken: observing an unchanged locked word for a full lease is proof
//! the unlock FAA never arrived. This argument needs the lease to
//! outlast every effect a live holder may still have in flight — at most
//! [`rdma_sim::MAX_LOCK_HOLD_VERBS`] verbs, each of which applies or is
//! refused by `issue + verb_timeout` — which `ClusterSpec::validate`
//! (run by `Cluster::new`) enforces as
//! `lease_duration > MAX_LOCK_HOLD_VERBS * verb_timeout`.
//!
//! ## Critical-section inventory (generated)
//!
//! [protolint:cs-inventory:begin]
//! Critical sections discovered by `cargo xtask protolint` (verbs issued
//! between a lock acquire and its happy-path release; the best-effort
//! rescue FAA on error paths reuses the unlock slot and is not counted):
//!
//! - `delete`: in-place WRITE + unlock FAA (2 verbs)
//! - `delete`: unlock FAA (1 verb)
//! - `insert`: alloc + sibling WRITE + in-place WRITE + unlock FAA (4 verbs)
//! - `insert`: in-place WRITE + unlock FAA (2 verbs)
//! - `insert`: unlock FAA (1 verb)
//! - `lock_covering_leaf`: unlock FAA (1 verb)
//! - `propagate_split`: alloc + sibling WRITE + in-place WRITE + unlock FAA (4 verbs)
//! - `propagate_split`: in-place WRITE + unlock FAA (2 verbs)
//! - `propagate_split`: unlock FAA (1 verb)
//!
//! Widest section: 4 verbs = MAX_LOCK_HOLD_VERBS (4), enforced statically by the `cs-verb-bound` rule.
//! [protolint:cs-inventory:end]

use blink::layout::lock_word;
use blink::node::version_lock_of;
use rdma_sim::{Endpoint, PageBuf, RegionKind, RemotePtr, VerbError};
use simnet::SimTime;

use crate::engine::spin_backoff as backoff;

/// Lease bookkeeping for one spin loop: tracks how long the *same*
/// locked word has been observed and breaks it once the lease expires.
struct LeaseWatch {
    held: Option<(u64, SimTime)>,
}

impl LeaseWatch {
    fn new() -> Self {
        LeaseWatch { held: None }
    }

    /// Observe the locked word `w` at time `now`; if it has stayed
    /// unchanged past the lease, attempt the break CAS. The version bump
    /// in the broken word makes any stale copy restart, so the caller
    /// simply re-reads regardless of who wins the break race.
    async fn observe(
        &mut self,
        ep: &Endpoint,
        ptr: RemotePtr,
        w: u64,
        now: SimTime,
    ) -> Result<(), VerbError> {
        let lease = ep.cluster().spec().lease_duration;
        match self.held {
            Some((prev, since)) if prev == w => {
                if now - since >= lease {
                    // Versions only move forward, so an unchanged word
                    // means no unlock happened: the holder is dead.
                    let mut broken = lock_word::break_lease(w);
                    // Mutation B (`mutations` builds only): forget the
                    // lease-epoch bump — the historical recovery bug the
                    // checker's `version-protocol` rule must flag.
                    if cfg!(feature = "mutations") {
                        broken = (broken & !lock_word::EPOCH_MASK) | (w & lock_word::EPOCH_MASK);
                    }
                    ep.cas(ptr, w, broken).await?;
                    self.held = None;
                }
            }
            _ => self.held = Some((w, now)),
        }
        Ok(())
    }
}

/// READ `ptr` until the copy observed is unlocked (remote spin with
/// exponential backoff; each retry is a fresh READ). Returns the page
/// bytes. Breaks an orphaned lock after the lease expires.
// protolint: role(spin-read), primitive -- one READ per attempt.
pub(crate) async fn read_unlocked(
    ep: &Endpoint,
    ptr: RemotePtr,
    page_size: usize,
) -> Result<PageBuf, VerbError> {
    let mut attempt = 0u32;
    let mut watch = LeaseWatch::new();
    // Telemetry region state. Opened on the first locked observation and
    // closed at the single exit below — explicit rather than a Drop guard
    // so a cancelled future cannot leak a half-open region.
    let mut waiting = false;
    let res = loop {
        let page = match ep.read(ptr, page_size).await {
            Ok(p) => p,
            Err(e) => break Err(e),
        };
        let w = version_lock_of(&page);
        if !lock_word::is_locked(w) {
            break Ok(page);
        }
        if !waiting {
            waiting = true;
            ep.cluster()
                .note_region(ep.client_id(), RegionKind::LockWait, true);
        }
        if let Err(e) = watch.observe(ep, ptr, w, ep.cluster().sim().now()).await {
            break Err(e);
        }
        ep.cluster().sim().clone().sleep(backoff(attempt)).await;
        attempt += 1;
    };
    if waiting {
        ep.cluster()
            .note_region(ep.client_id(), RegionKind::LockWait, false);
    }
    res
}

/// Acquire the node lock: CAS the lock word from the version observed in
/// `page` to its locked form (carrying this client's owner id); on
/// failure re-read and retry. On success, `page` holds a fresh unlocked
/// copy whose lock word has been updated to the locked value (mirroring
/// the remote state we just installed). Breaks an orphaned lock after
/// the lease expires.
// protolint: role(acquire), primitive -- the lock CAS of Listing 4.
pub(crate) async fn lock_node(
    ep: &Endpoint,
    ptr: RemotePtr,
    page: &mut PageBuf,
) -> Result<u64, VerbError> {
    let mut attempt = 0u32;
    let mut watch = LeaseWatch::new();
    // Telemetry region state. Opened on the first locked/contended
    // observation and closed at the single exit below — explicit rather
    // than a Drop guard so a cancelled future cannot leak a half-open
    // region.
    let mut waiting = false;
    let res = loop {
        let v = version_lock_of(page);
        let observed_locked = lock_word::is_locked(v);
        if !observed_locked {
            let locked = lock_word::locked_by(v, ep.client_id());
            match ep.cas(ptr, v, locked).await {
                Ok(old) if old == v => {
                    blink::node::set_version_lock(page, locked);
                    break Ok(locked);
                }
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        }
        // Lost the race (locked, or version moved): back off, refresh,
        // retry.
        if !waiting {
            waiting = true;
            ep.cluster()
                .note_region(ep.client_id(), RegionKind::LockWait, true);
        }
        if observed_locked {
            if let Err(e) = watch.observe(ep, ptr, v, ep.cluster().sim().now()).await {
                break Err(e);
            }
        }
        ep.cluster().sim().clone().sleep(backoff(attempt)).await;
        attempt += 1;
        *page = match ep.read(ptr, page.len()).await {
            Ok(p) => p,
            Err(e) => break Err(e),
        };
    };
    if waiting {
        ep.cluster()
            .note_region(ep.client_id(), RegionKind::LockWait, false);
    }
    res
}

/// Release the node lock *without* writing the page back (used when an
/// operation locked a node and then discovered it must move right).
// protolint: role(release), primitive -- the bare unlock FAA.
pub(crate) async fn unlock_only(ep: &Endpoint, ptr: RemotePtr) -> Result<(), VerbError> {
    ep.fetch_add(ptr, 1).await?;
    Ok(())
}

/// Pass through `res`, but on failure best-effort FAA-release the lock at
/// `ptr`, which the caller *knows is still held*: every verb inside the
/// critical section either applied its effect (then there is no error) or
/// was refused with no effect (then the unlock FAA never landed), so an
/// error from the section leaves the lock bit set. Releasing here keeps a
/// retrying client from stalling a full lease on its own abandoned lock
/// (and keeps the node available to everyone else).
///
/// Only sound *inside* the critical section — after a successful unlock,
/// a stray FAA(+1) would set the lock bit on the unlocked word and create
/// an ownerless ghost lock.
///
/// A `Cancelled` client skips the attempt (its verbs are refused anyway;
/// lease-based recovery is what cleans up after the dead): the release
/// failing is always tolerable, since lease expiry remains the backstop.
// protolint: role(rescue), primitive -- discharges the lock on Err.
pub(crate) async fn release_on_error<T>(
    ep: &Endpoint,
    ptr: RemotePtr,
    res: Result<T, VerbError>,
) -> Result<T, VerbError> {
    if let Err(e) = &res {
        if *e != VerbError::Cancelled {
            let _ = unlock_only(ep, ptr).await;
        }
    }
    res
}

/// `remote_writeUnlock` (Listing 4): if the node was split, WRITE the new
/// right sibling first; WRITE the modified node in place; FETCH_AND_ADD
/// the lock word to unlock-and-version-bump.
///
/// `page` must carry the *locked* lock word (as left by [`lock_node`]) so
/// that the in-place WRITE does not transiently unlock the node; the
/// final FAA performs the unlock.
// protolint: role(commit-release), primitive -- WRITE(s) then unlock FAA.
pub(crate) async fn write_unlock(
    ep: &Endpoint,
    ptr: RemotePtr,
    page: &[u8],
    split: Option<(RemotePtr, &[u8])>,
) -> Result<(), VerbError> {
    debug_assert!(
        lock_word::is_locked(version_lock_of(page)),
        "write_unlock requires the locked lock word in the page image"
    );
    if let Some((right_ptr, right_page)) = split {
        ep.write(right_ptr, right_page).await?;
    }
    // Mutation (race, `mutations` builds under
    // NAMDEX_RACE_MUT=unlock-before-write): publish the unlock/version
    // bump *before* the in-place write-back, opening a window where a
    // contender can acquire the lock while the page bytes still race
    // with this client's deferred WRITE.
    if crate::race_mut(crate::RaceMut::UnlockBeforeWrite) {
        let prev = ep.fetch_add(ptr, 1).await?;
        // Ship the page with the post-unlock word (a plain reorder, not
        // a stuck lock): readers can now observe a bumped version whose
        // page bytes have not landed yet.
        let mut stale = page.to_vec();
        // protolint: allow(hot-panic) -- fixed [..8] prefix of a page
        // image that is at least a lock word long by construction.
        stale[..8].copy_from_slice(&prev.wrapping_add(1).to_le_bytes());
        // protolint: allow(validated-before-use) -- seeded race
        // mutation; the clean path below writes before the unlock FAA.
        ep.write(ptr, &stale).await?;
        return Ok(());
    }
    ep.write(ptr, page).await?;
    ep.fetch_add(ptr, 1).await?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink::layout::{PageLayout, Ptr, KEY_MAX};
    use blink::node::LeafNodeMut;
    use rdma_sim::{Cluster, ClusterSpec};
    use simnet::{Sim, SimDur};
    use std::cell::Cell;
    use std::rc::Rc;

    fn setup_leaf(cluster: &Cluster) -> RemotePtr {
        let layout = PageLayout::default();
        let mut page = layout.alloc_page();
        let mut leaf = LeafNodeMut::init(&mut page, KEY_MAX, Ptr::NULL, Ptr::NULL);
        leaf.insert(5, 50).unwrap();
        let ptr = cluster.setup_alloc(0, layout.page_size() as u64);
        cluster.setup_write(ptr, &page);
        ptr
    }

    #[test]
    fn read_unlocked_spins_until_released() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        // Lock the node out-of-band.
        cluster.with_pool(0, |p| {
            p.write_u64(ptr.offset(), 1);
        });
        let reads_done = Rc::new(Cell::new(0u64));
        {
            let ep = Endpoint::new(&cluster);
            let r = reads_done.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let page = read_unlocked(&ep, ptr, 1024).await.unwrap();
                assert!(!lock_word::is_locked(version_lock_of(&page)));
                r.set(s.now().as_nanos());
            });
        }
        // Unlock after 50us.
        {
            let cluster2 = cluster.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(50)).await;
                cluster2.with_pool(0, |p| {
                    p.fetch_add(ptr.offset(), 1);
                });
            });
        }
        sim.run();
        assert!(
            reads_done.get() >= 50_000,
            "reader must spin until unlock (done at {}ns)",
            reads_done.get()
        );
        // Remote spinning cost wire traffic: several full-page reads.
        assert!(cluster.server_stats(0).onesided_ops > 5);
    }

    #[test]
    fn lock_contention_has_single_winner_at_a_time() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let in_cs = Rc::new(Cell::new(0i32));
        let max_in_cs = Rc::new(Cell::new(0i32));
        for _ in 0..8 {
            let ep = Endpoint::new(&cluster);
            let in_cs = in_cs.clone();
            let max_in_cs = max_in_cs.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let mut page = ep.read(ptr, 1024).await.unwrap();
                lock_node(&ep, ptr, &mut page).await.unwrap();
                in_cs.set(in_cs.get() + 1);
                max_in_cs.set(max_in_cs.get().max(in_cs.get()));
                s.sleep(SimDur::from_micros(3)).await; // critical section
                in_cs.set(in_cs.get() - 1);
                write_unlock(&ep, ptr, &page, None).await.unwrap();
            });
        }
        sim.run();
        assert_eq!(max_in_cs.get(), 1, "mutual exclusion violated");
        // Version advanced once per holder (owner bits of the last
        // unlocker linger above the version field).
        let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
        assert_eq!(
            lock_word::version_of(word),
            8,
            "8 lock/unlock cycles bump the version once each"
        );
        assert!(!lock_word::is_locked(word));
        assert_eq!(lock_word::epoch_of(word), 0, "no lease was ever broken");
    }

    #[test]
    fn write_unlock_installs_split_sibling_first() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let right_ptr = cluster.setup_alloc(1, 1024);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let mut page = ep.read(ptr, 1024).await.unwrap();
            lock_node(&ep, ptr, &mut page).await.unwrap();
            let layout = PageLayout::default();
            let mut right = layout.alloc_page();
            LeafNodeMut::init(&mut right, KEY_MAX, Ptr::NULL, Ptr::NULL);
            write_unlock(&ep, ptr, &page, Some((right_ptr, &right)))
                .await
                .unwrap();
        });
        sim.run();
        // Right page exists remotely and left is unlocked.
        let right = cluster.setup_read(right_ptr, 1024);
        assert_eq!(blink::node::kind_of(&right), blink::node::NodeKind::Leaf);
        let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
        assert!(!lock_word::is_locked(word));
    }

    #[test]
    fn unlock_only_releases() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let mut page = ep.read(ptr, 1024).await.unwrap();
            lock_node(&ep, ptr, &mut page).await.unwrap();
            unlock_only(&ep, ptr).await.unwrap();
            // Lock again to prove it is free.
            let mut page = ep.read(ptr, 1024).await.unwrap();
            lock_node(&ep, ptr, &mut page).await.unwrap();
            write_unlock(&ep, ptr, &page, None).await.unwrap();
        });
        sim.run();
        let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
        assert!(!lock_word::is_locked(word));
        assert_eq!(lock_word::version_of(word), 2);
    }

    #[test]
    fn orphaned_lock_is_broken_after_lease_expiry() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let victim = Endpoint::new(&cluster);
        let contender = Endpoint::new(&cluster);
        // Bare cluster (no index build ran): install the acquire shape
        // the builds would normally inject before arming the trigger.
        cluster.set_lock_acquire_shape(lock_word::is_acquire);
        cluster.arm_kill_on_lock_acquire(victim.client_id());
        let done = Rc::new(Cell::new(0u64));
        {
            let d = done.clone();
            let s = sim.clone();
            sim.spawn(async move {
                // The victim wins the lock and dies holding it.
                let mut page = victim.read(ptr, 1024).await.unwrap();
                lock_node(&victim, ptr, &mut page).await.unwrap();
                assert!(matches!(
                    write_unlock(&victim, ptr, &page, None).await,
                    Err(VerbError::Cancelled)
                ));
                // The contender must still get through.
                let mut page = contender.read(ptr, 1024).await.unwrap();
                lock_node(&contender, ptr, &mut page).await.unwrap();
                write_unlock(&contender, ptr, &page, None).await.unwrap();
                d.set(s.now().as_nanos());
            });
        }
        sim.run();
        let lease = ClusterSpec::default().lease_duration.as_nanos();
        assert!(
            done.get() >= lease,
            "the contender must wait out the lease ({}ns < {lease}ns)",
            done.get()
        );
        let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
        assert!(!lock_word::is_locked(word));
        assert_eq!(lock_word::epoch_of(word), 1, "one lease break happened");
        // Break bumped the version once, the contender's cycle once more.
        assert_eq!(lock_word::version_of(word), 2);
    }
}
