//! The one-sided access protocol of §4.2 (Listing 4), shared by the
//! fine-grained design and the hybrid design's leaf level.
//!
//! * `remote_readLockOrRestart` → [`read_unlocked`]: READ the node; if
//!   its lock bit is set, spin by re-reading (a *remote* spinlock — each
//!   retry costs a round trip on the wire, not server CPU).
//! * `remote_upgradeToWriteLockOrRestart` → [`lock_node`]: CAS the
//!   `(version, lock-bit)` word from the observed unlocked value to its
//!   locked form; on CAS failure, re-read and retry. Success yields a
//!   [`Locked`] guard — the only handle through which a verb can be
//!   issued under the remote lock.
//! * `remote_writeUnlock` → [`Locked::commit`]: install the (optional)
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
//! locked word for [`rdma_sim::spec::LEASE_DURATION`] of virtual
//! time concludes the holder is dead and breaks the lock with a CAS to
//! [`lock_word::break_lease`] — clearing the lock bit, bumping the
//! version (so optimistic readers restart) and the lease epoch. Because
//! every legitimate unlock changes the word, a live holder can never be
//! broken: observing an unchanged locked word for a full lease is proof
//! the unlock FAA never arrived. This argument needs the lease to
//! outlast every effect a live holder may still have in flight — at most
//! [`rdma_sim::MAX_LOCK_HOLD_VERBS`] verbs, each of which applies or is
//! refused by `issue + VERB_TIMEOUT` — which a compile-time assertion
//! in `rdma_sim::spec` enforces as
//! `LEASE_DURATION > MAX_LOCK_HOLD_VERBS * VERB_TIMEOUT`.
//!
//! ## Critical sections
//!
//! Verbs a [`Locked`] guard issues between the acquire CAS and its
//! unlock FAA (the best-effort rescue FAA on an error path reuses the
//! unlock slot and is not counted); the guard counts them on every run:
//!
//! - `release`: unlock FAA (1 verb)
//! - `commit`: in-place WRITE + unlock FAA (2 verbs)
//! - `under(alloc)` + split `commit`: alloc + sibling WRITE + in-place
//!   WRITE + unlock FAA (4 verbs = `MAX_LOCK_HOLD_VERBS`)

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]

use std::cell::Cell;
use std::future::Future;

use blink::layout::lock_word;
use blink::node::{set_version_lock, version_lock_of};
use rdma_sim::spec::LEASE_DURATION;
use rdma_sim::{Endpoint, PageBuf, RegionKind, RemotePtr, VerbError, MAX_LOCK_HOLD_VERBS};
use simnet::SimTime;

use crate::engine::spin_backoff as backoff;
use crate::Mutation;

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
        match self.held {
            Some((prev, since)) if prev == w => {
                if now - since >= LEASE_DURATION {
                    // Versions only move forward, so an unchanged word
                    // means no unlock happened: the holder is dead.
                    let mut broken = lock_word::break_lease(w);
                    // Mutation B: forget the lease-epoch bump — the
                    // historical recovery bug the checker's
                    // `version-protocol` rule must flag.
                    if crate::mutated(Mutation::LeaseEpochElision) {
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

thread_local! {
    static ABANDONED: Cell<u64> = const { Cell::new(0) };
}

/// Remote-lock guards dropped on this thread without being discharged: a
/// remote lock leaked until its lease expires. Zero after any run that
/// drained (a destructor cannot await the unlock FAA, so `Drop` only
/// counts); tearing a simulation down with operations still in flight
/// legitimately abandons theirs, so read this before the teardown.
pub fn abandoned_guards() -> u64 {
    ABANDONED.with(Cell::get)
}

/// A held remote node lock: the only handle through which a verb can be
/// issued under it. Move-only; each of [`under`](Self::under),
/// [`commit`](Self::commit) and [`release`](Self::release) consumes the
/// guard, so a second release is a use-after-move, and the guard counts
/// its own verbs against [`MAX_LOCK_HOLD_VERBS`] — the bound the lease
/// argument above rests on.
#[must_use = "a remote lock stays held until `commit` or `release`"]
pub(crate) struct Locked {
    /// Null once discharged (unlock issued, or the holder is dead).
    ptr: RemotePtr,
    /// The node image, carrying the *locked* lock word so the in-place
    /// WRITE of `commit` does not transiently unlock the node.
    pub(crate) page: PageBuf,
    verbs: u32,
}

impl Drop for Locked {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            ABANDONED.with(|n| n.set(n.get() + 1));
        }
    }
}

impl Locked {
    /// The locked node.
    pub(crate) fn ptr(&self) -> RemotePtr {
        self.ptr
    }

    /// Charge `n` verbs to the lock-hold budget.
    fn spend(&mut self, n: u32) -> Result<(), VerbError> {
        self.verbs += n;
        if self.verbs > MAX_LOCK_HOLD_VERBS {
            return Err(VerbError::Invariant(
                "more than MAX_LOCK_HOLD_VERBS verbs under one remote lock",
            ));
        }
        Ok(())
    }

    /// Discharge after a failed section: best-effort FAA-release the
    /// lock, which is *known to be still held* — every verb inside the
    /// critical section either applied its effect (then there is no
    /// error) or was refused with no effect (then the unlock FAA never
    /// landed). Releasing keeps a retrying client from stalling a full
    /// lease on its own abandoned lock. A `Cancelled` client skips the
    /// attempt (its verbs are refused anyway); the FAA failing is always
    /// tolerable, since lease expiry remains the backstop.
    async fn rescue(mut self, ep: &Endpoint, e: VerbError) -> VerbError {
        let ptr = std::mem::replace(&mut self.ptr, RemotePtr::NULL);
        if e != VerbError::Cancelled {
            let _ = ep.fetch_add(ptr, 1).await;
        }
        e
    }

    /// Run one fallible verb (the split's `alloc`) under the lock; on
    /// `Err` the lock is rescued and the guard is gone.
    pub(crate) async fn under<T>(
        mut self,
        ep: &Endpoint,
        verb: impl Future<Output = Result<T, VerbError>>,
    ) -> Result<(Locked, T), VerbError> {
        let res = match self.spend(1) {
            Ok(()) => verb.await,
            Err(e) => Err(e),
        };
        match res {
            Ok(v) => Ok((self, v)),
            Err(e) => Err(self.rescue(ep, e).await),
        }
    }

    /// `remote_writeUnlock` (Listing 4): if the node was split, WRITE the
    /// new right sibling first; WRITE the modified node in place;
    /// FETCH_AND_ADD the lock word to unlock-and-version-bump. The lock
    /// is rescued if any of them is refused.
    pub(crate) async fn commit(
        mut self,
        ep: &Endpoint,
        split: Option<(RemotePtr, &[u8])>,
    ) -> Result<(), VerbError> {
        match self.write_unlock(ep, split).await {
            Ok(()) => {
                self.ptr = RemotePtr::NULL;
                Ok(())
            }
            Err(e) => Err(self.rescue(ep, e).await),
        }
    }

    /// The one place the WRITE → FAA order of a commit is written.
    async fn write_unlock(
        &mut self,
        ep: &Endpoint,
        split: Option<(RemotePtr, &[u8])>,
    ) -> Result<(), VerbError> {
        debug_assert!(
            lock_word::is_locked(version_lock_of(&self.page)),
            "commit requires the locked lock word in the page image"
        );
        self.spend(2 + u32::from(split.is_some()))?;
        if let Some((right_ptr, right_page)) = split {
            ep.write(right_ptr, right_page).await?;
        }
        // Mutation `UnlockBeforeWrite`: publish the unlock/version bump
        // *before* the in-place write-back, opening a window where a
        // contender can acquire the lock while the page bytes still race
        // with this client's deferred WRITE.
        if crate::mutated(Mutation::UnlockBeforeWrite) {
            let prev = ep.fetch_add(self.ptr, 1).await?;
            // Ship the page with the post-unlock word (a plain reorder, not
            // a stuck lock): readers can now observe a bumped version whose
            // page bytes have not landed yet.
            set_version_lock(&mut self.page, prev.wrapping_add(1));
            ep.write(self.ptr, &self.page).await?;
            return Ok(());
        }
        ep.write(self.ptr, &self.page).await?;
        ep.fetch_add(self.ptr, 1).await?;
        Ok(())
    }

    /// Release the lock *without* writing the page back (an operation
    /// locked a node and then discovered it must move right, or has
    /// nothing to change). The one FAA is the whole section: there is no
    /// write-back to protect, so a refused FAA is not chased with a second
    /// one and the lock falls to the lease break.
    pub(crate) async fn release(mut self, ep: &Endpoint) -> Result<(), VerbError> {
        let ptr = std::mem::replace(&mut self.ptr, RemotePtr::NULL);
        let within_budget = self.spend(1);
        ep.fetch_add(ptr, 1).await?;
        within_budget
    }
}

/// Acquire the node lock: CAS the lock word from the version observed in
/// `page` to its locked form (carrying this client's owner id); on
/// failure re-read and retry. On success, the guard's `page` holds a
/// fresh unlocked copy whose lock word has been updated to the locked
/// value (mirroring the remote state we just installed). Breaks an
/// orphaned lock after the lease expires.
pub(crate) async fn lock_node(
    ep: &Endpoint,
    ptr: RemotePtr,
    mut page: PageBuf,
) -> Result<Locked, VerbError> {
    let mut attempt = 0u32;
    let mut watch = LeaseWatch::new();
    // Telemetry region state. Opened on the first locked/contended
    // observation and closed at the single exit below — explicit rather
    // than a Drop guard so a cancelled future cannot leak a half-open
    // region.
    let mut waiting = false;
    let res = loop {
        let v = version_lock_of(&page);
        let observed_locked = lock_word::is_locked(v);
        if !observed_locked {
            let locked = lock_word::locked_by(v, ep.client_id());
            match ep.cas(ptr, v, locked).await {
                Ok(old) if old == v => {
                    set_version_lock(&mut page, locked);
                    break Ok(Locked {
                        ptr,
                        page,
                        verbs: 0,
                    });
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
        page = match ep.read(ptr, page.len()).await {
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

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
pub(crate) mod tests {
    use super::*;
    use blink::layout::{PageLayout, Ptr, KEY_MAX};
    use blink::node::LeafNodeMut;
    use rdma_sim::{Cluster, ClusterSpec};
    use rdma_sim::{LinkDegrade, VerbEvent, VerbKind, VerbObserver};
    use simnet::{Sim, SimDur};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Test observer over remote critical sections: records how many
    /// verbs each one issued (acquire CAS exclusive, unlock FAA
    /// inclusive), and can refuse exactly one verb — the `n`-th issued
    /// under the next lock — by cutting every link until that verb's
    /// timeout fires, so the verb after it goes through again.
    pub(crate) struct LockProbe {
        cluster: Cluster,
        /// Verbs completed under the currently held lock.
        open: Cell<Option<u32>>,
        refuse: Cell<Option<u32>>,
        /// `(locked node, verbs)` per closed section.
        pub(crate) sections: RefCell<Vec<(RemotePtr, u32)>>,
    }

    impl LockProbe {
        pub(crate) fn install(cluster: &Cluster) -> Rc<LockProbe> {
            let probe = Rc::new(LockProbe {
                cluster: cluster.clone(),
                open: Cell::new(None),
                refuse: Cell::new(None),
                sections: RefCell::default(),
            });
            cluster.add_observer(probe.clone());
            probe
        }

        /// Refuse the verb at position `nth` (0 = first after the CAS)
        /// of the next critical section.
        pub(crate) fn refuse_nth(&self, nth: u32) {
            self.refuse.set(Some(nth));
        }
    }

    impl VerbObserver for LockProbe {
        fn on_verb(&self, ev: &VerbEvent) {
            let done = match (ev.kind, self.open.get()) {
                (
                    VerbKind::Cas {
                        expected,
                        new,
                        prev,
                    },
                    None,
                ) if prev == expected && lock_word::is_acquire(expected, new) => 0,
                (_, Some(done)) => done + 1,
                _ => return,
            };
            if matches!(ev.kind, VerbKind::Faa { .. }) {
                self.open.set(None);
                self.sections
                    .borrow_mut()
                    .push((RemotePtr::new(ev.server, ev.offset), done));
                return;
            }
            self.open.set(Some(done));
            if self.refuse.get() == Some(done) {
                self.refuse.set(None);
                for s in 0..self.cluster.num_servers() {
                    let cut = LinkDegrade {
                        drop_chance: 1.0,
                        ..LinkDegrade::default()
                    };
                    self.cluster.degrade_link(s, cut);
                }
            }
        }

        fn on_free(&self, _: usize, _: u64, _: usize, _: SimTime) {}

        fn on_verb_failed(&self, _: u64, _: usize, _: SimTime) {
            for s in 0..self.cluster.num_servers() {
                self.cluster.restore_link(s);
            }
        }
    }

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
                let page = ep.read(ptr, 1024).await.unwrap();
                let locked = lock_node(&ep, ptr, page).await.unwrap();
                in_cs.set(in_cs.get() + 1);
                max_in_cs.set(max_in_cs.get().max(in_cs.get()));
                s.sleep(SimDur::from_micros(3)).await; // critical section
                in_cs.set(in_cs.get() - 1);
                locked.commit(&ep, None).await.unwrap();
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
    fn commit_installs_split_sibling_first() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let right_ptr = cluster.setup_alloc(1, 1024);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let page = ep.read(ptr, 1024).await.unwrap();
            let locked = lock_node(&ep, ptr, page).await.unwrap();
            let layout = PageLayout::default();
            let mut right = layout.alloc_page();
            LeafNodeMut::init(&mut right, KEY_MAX, Ptr::NULL, Ptr::NULL);
            locked.commit(&ep, Some((right_ptr, &right))).await.unwrap();
        });
        sim.run();
        // Right page exists remotely and left is unlocked.
        let right = cluster.setup_read(right_ptr, 1024);
        assert_eq!(blink::node::kind_of(&right), blink::node::NodeKind::Leaf);
        let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
        assert!(!lock_word::is_locked(word));
    }

    #[test]
    fn release_unlocks_without_write_back() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let page = ep.read(ptr, 1024).await.unwrap();
            let locked = lock_node(&ep, ptr, page).await.unwrap();
            locked.release(&ep).await.unwrap();
            // Lock again to prove it is free.
            let page = ep.read(ptr, 1024).await.unwrap();
            let locked = lock_node(&ep, ptr, page).await.unwrap();
            locked.commit(&ep, None).await.unwrap();
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
                let page = victim.read(ptr, 1024).await.unwrap();
                let locked = lock_node(&victim, ptr, page).await.unwrap();
                assert!(matches!(
                    locked.commit(&victim, None).await,
                    Err(VerbError::Cancelled)
                ));
                // The contender must still get through.
                let page = contender.read(ptr, 1024).await.unwrap();
                let locked = lock_node(&contender, ptr, page).await.unwrap();
                locked.commit(&contender, None).await.unwrap();
                d.set(s.now().as_nanos());
            });
        }
        sim.run();
        let lease = LEASE_DURATION.as_nanos();
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

    /// One refused verb at each position of a split commit — alloc,
    /// sibling WRITE, in-place WRITE, unlock FAA — is rescued: the op
    /// fails, but the word is unlocked on return and no guard was
    /// dropped undischarged.
    #[test]
    fn a_refused_verb_at_any_position_of_a_split_commit_is_rescued() {
        for pos in 0..MAX_LOCK_HOLD_VERBS {
            let sim = Sim::new();
            let cluster = Cluster::new(&sim, ClusterSpec::default());
            let ptr = setup_leaf(&cluster);
            let probe = LockProbe::install(&cluster);
            probe.refuse_nth(pos);
            let ep = Endpoint::new(&cluster);
            let outcome = Rc::new(Cell::new(None));
            let out = outcome.clone();
            sim.spawn(async move {
                let page = ep.read(ptr, 1024).await.unwrap();
                let locked = lock_node(&ep, ptr, page).await.unwrap();
                let res = match locked.under(&ep, ep.alloc(1, 1024)).await {
                    Ok((locked, right_ptr)) => {
                        let right = PageLayout::default().alloc_page();
                        locked.commit(&ep, Some((right_ptr, &right))).await
                    }
                    Err(e) => Err(e),
                };
                out.set(Some(res));
            });
            sim.run();
            assert!(
                matches!(outcome.get(), Some(Err(VerbError::Timeout { .. }))),
                "position {pos}: {:?}",
                outcome.get()
            );
            assert_eq!(cluster.fault_stats().verbs_dropped, 1, "position {pos}");
            let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
            assert!(!lock_word::is_locked(word), "position {pos}: lock leaked");
            assert_eq!(lock_word::version_of(word), 1, "position {pos}");
            assert_eq!(abandoned_guards(), 0, "position {pos}");
        }
    }

    /// The widest critical sections — a leaf split and an inner split —
    /// issue exactly `MAX_LOCK_HOLD_VERBS` verbs, so the constant the
    /// lease argument rests on can drift neither up (this equality) nor
    /// down (the guard would refuse the splits).
    #[test]
    fn leaf_and_inner_splits_spend_exactly_the_verb_budget() {
        use crate::{FgConfig, FineGrained};
        use blink::node::{kind_of, NodeKind};
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let cfg = FgConfig {
            layout: PageLayout::new(200),
            fill: 0.7,
            head_stride: 4,
            cache_capacity: None,
        };
        let idx = FineGrained::build(&cluster, cfg, (0..100u64).map(|i| (i * 8, i)));
        let probe = LockProbe::install(&cluster);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            for k in 0..600u64 {
                idx.insert(&ep, 1_000 + k, k, false).await.unwrap();
            }
        });
        sim.run();
        let widest = |kind: NodeKind| {
            let sections = probe.sections.borrow();
            let of_kind = sections
                .iter()
                .filter(|(ptr, _)| kind_of(&cluster.setup_read(*ptr, 200)) == kind);
            of_kind.map(|&(_, verbs)| verbs).max()
        };
        assert_eq!(widest(NodeKind::Leaf), Some(MAX_LOCK_HOLD_VERBS));
        assert_eq!(widest(NodeKind::Inner), Some(MAX_LOCK_HOLD_VERBS));
        assert_eq!(abandoned_guards(), 0);
    }

    #[test]
    fn a_fifth_verb_under_the_lock_trips_the_budget() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let page = ep.read(ptr, 1024).await.unwrap();
            let locked = lock_node(&ep, ptr, page).await.unwrap();
            let (locked, _) = locked.under(&ep, ep.alloc(1, 1024)).await.unwrap();
            let (locked, right_ptr) = locked.under(&ep, ep.alloc(1, 1024)).await.unwrap();
            let right = PageLayout::default().alloc_page();
            // alloc + alloc + sibling WRITE + in-place WRITE + FAA = 5.
            let res = locked.commit(&ep, Some((right_ptr, &right))).await;
            assert!(matches!(res, Err(VerbError::Invariant(_))), "{res:?}");
        });
        sim.run();
        let word = cluster.with_pool(0, |p| p.read_u64(ptr.offset()));
        assert!(
            !lock_word::is_locked(word),
            "the refused section is rescued"
        );
        assert_eq!(abandoned_guards(), 0);
    }

    #[test]
    fn dropping_a_live_guard_is_counted() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = setup_leaf(&cluster);
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            let page = ep.read(ptr, 1024).await.unwrap();
            drop(lock_node(&ep, ptr, page).await.unwrap());
        });
        sim.run();
        assert_eq!(abandoned_guards(), 1);
    }
}
