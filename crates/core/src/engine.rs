//! The shared traversal/SMO engine: one OLC descent loop, one
//! lock-coupled write path, one split-propagation routine, and one
//! retry/backoff layer for every design.
//!
//! The paper's index distributions (§3–§5) share a single concurrency
//! substrate — optimistic lock coupling over an 8-byte
//! `(version, lock, owner, lease)` word per node, with B-link sibling
//! chases instead of descent restarts — yet they differ in how a node
//! reference becomes bytes. That difference is data: the parts an
//! [`Index`] has, consulted by its six resolution methods
//! ([`crate::resolve`]); everything protocol-shaped lives here, exactly
//! once:
//!
//! * `descend` — the optimistic read-validate-move-right loop
//!   (Listing 2's `remote_lookup` shape, shared with the chain walk
//!   below a local upper level);
//! * `lock_covering_leaf` + `insert`/`delete` — the lock-coupled
//!   write path (Listing 4), including the **exactly-once retry
//!   absorption**: a re-attempt (`retrying = true`) first checks the
//!   covering leaf for the exact `(key, value)` pair and absorbs the
//!   retry if its predecessor already committed. This hint is handled
//!   here and nowhere else — the PR-2 fix had to be applied twice
//!   because FG and Hybrid each had a copy of this path;
//! * `propagate_split` — upward split propagation over remotely
//!   stored inner levels (a local upper level instead takes split
//!   registrations over RPC, see `Index::complete_split`). Runs
//!   uncached on purpose: SMOs must observe fresh versions to CAS
//!   against;
//! * `scan_chain` — the §4.3 range scan: batched READs of the leaves
//!   the node above them names (a level-1 page, a resolution RPC's run,
//!   the model's table);
//! * `with_retry!` + `backoff_before_retry` — the operation retry
//!   layer with the single deterministic backoff/jitter source
//!   ([`expo_delay_nanos`]), shared with the remote-spin backoff of
//!   the one-sided verb helpers;
//! * [`RangeProgress`] — per-server completion tracking so a retried
//!   partitioned range (the coarse-grained design's broadcast) never
//!   re-ships work a previous attempt already finished.
//!
//! An index with no chain (the coarse-grained design) has no
//! client-side page resolution — whole operations ship to its local
//! trees — so its four operations branch to [`crate::local`] up front
//! and share only the retry layer and [`RangeProgress`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;

use crate::learned::PgmModel;
use blink::node::{kind_of, InnerNodeMut, InnerNodeRef, LeafNodeMut, LeafNodeRef, NodeKind};
use blink::{Key, Ptr, Value};
use rdma_sim::spec::{RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP, RETRY_LIMIT};
use rdma_sim::{Endpoint, FenceKind, OpKind, PageBuf, RegionKind, RemotePtr, VerbError};
use simnet::SimDur;

use crate::local::Local;
use crate::msg;
use crate::onesided::{lock_node, read_unlocked, Locked};
use crate::resolve::{Index, Page};
use crate::router::Router;
use crate::{Design, Mutation, OpError};

fn rp(p: Ptr) -> RemotePtr {
    RemotePtr::from_page_ptr(p)
}

// ---------------------------------------------------------------------------
// Backoff: the single deterministic delay/jitter source.
// ---------------------------------------------------------------------------

/// Bounded exponential delay in nanoseconds: `base << step`, saturating,
/// clamped to `cap` (but never below `base`). Both backoff consumers —
/// the operation retry layer and the one-sided remote-spin loop — derive
/// their schedules from this one helper.
pub fn expo_delay_nanos(base: u64, step: u32, cap: u64) -> u64 {
    base.saturating_mul(1u64 << step.min(20)).min(cap.max(base))
}

/// Remote-spin backoff (one-sided READ/CAS loops): doubling from 1 µs,
/// capped at 32 µs. Without backoff, spinning clients flood the lock
/// holder's NIC with re-READs and collapse the server under contention.
/// No jitter: the spin loop decorrelates through verb latencies.
pub(crate) fn spin_backoff(attempt: u32) -> SimDur {
    SimDur::from_nanos(expo_delay_nanos(1_000, attempt, 32_000))
}

/// Sleep the bounded exponential backoff before retry number `attempt`
/// (1-based): `RETRY_BACKOFF_BASE << (attempt - 1)`, capped at
/// `RETRY_BACKOFF_CAP`, plus a deterministic jitter in `[0, delay)`
/// derived from the client id, the attempt number, and the current
/// virtual time — so concurrent retriers decorrelate without any
/// wall-clock randomness.
pub(crate) async fn backoff_before_retry(ep: &Endpoint, attempt: u32) {
    let delay = expo_delay_nanos(
        RETRY_BACKOFF_BASE.as_nanos(),
        attempt - 1,
        RETRY_BACKOFF_CAP.as_nanos(),
    );
    let now = ep.cluster().sim().now().as_nanos();
    let jitter = simnet::rng::mix3(ep.client_id(), attempt as u64, now) % delay.max(1);
    ep.cluster()
        .note_region(ep.client_id(), RegionKind::Backoff, true);
    ep.cluster()
        .sim()
        .clone()
        .sleep(SimDur::from_nanos(delay + jitter))
        .await;
    ep.cluster()
        .note_region(ep.client_id(), RegionKind::Backoff, false);
}

/// Run `$op` (an expression producing a fresh future each evaluation —
/// the whole operation restarts from the root) until it succeeds, the
/// client dies, a fatal error occurs, or `RETRY_LIMIT` retries of
/// transient faults are spent.
///
/// Every call site declares how a re-run is safe: the literal
/// `idempotent` (re-running the attempt cannot duplicate a remote
/// effect), or an identifier that is bound in scope of `$op` as a `bool`
/// (false on the first attempt) and that `$op` must consume — an unused
/// one is an `unused_variables` error under `-D warnings` — so a
/// non-idempotent operation can tell a fresh run from a re-run whose
/// previous attempt may already have committed (see [`insert`]).
macro_rules! with_retry {
    ($ep:expr, idempotent, $op:expr) => {
        with_retry!($ep, _idempotent, $op)
    };
    ($ep:expr, $retrying:ident, $op:expr) => {{
        let mut attempt: u32 = 0;
        loop {
            let $retrying = attempt > 0;
            match $op.await {
                Ok(v) => break Ok(v),
                Err(VerbError::Cancelled) => break Err(OpError::Cancelled),
                Err(e) if e.is_retryable() && attempt < RETRY_LIMIT => {
                    attempt += 1;
                    backoff_before_retry($ep, attempt).await;
                }
                Err(e) if e.is_retryable() => {
                    break Err(OpError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: e,
                    })
                }
                Err(e) => break Err(OpError::Fatal(e)),
            }
        }
    }};
}

// ---------------------------------------------------------------------------
// Operations under the retry layer.
// ---------------------------------------------------------------------------

impl Design {
    /// Point lookup: first live value under `key`. Idempotent under
    /// retry: a lookup has no remote effect to duplicate.
    pub async fn lookup(&self, ep: &Endpoint, key: Key) -> Result<Option<Value>, OpError> {
        let idx = self.index();
        let op = async { with_retry!(ep, idempotent, idx.lookup(ep, key)) };
        observed(ep, OpKind::Lookup, op).await
    }

    /// Range query over `[lo, hi]` (inclusive); returns live entries in
    /// key order. A [`RangeProgress`] shared across attempts dedupes
    /// per-server work of shipped ranges, so a retried broadcast never
    /// re-ships (or re-counts in telemetry) partitions that already
    /// answered. Idempotent under retry: reads only.
    pub async fn range(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<(Key, Value)>, OpError> {
        let idx = self.index();
        let progress = RangeProgress::default();
        let op = async { with_retry!(ep, idempotent, idx.range_with(ep, lo, hi, &progress)) };
        observed(ep, OpKind::Range, op).await
    }

    /// Insert `(key, value)`; duplicates are allowed (non-unique index).
    ///
    /// Exactly-once under retries for every design: a *re*-attempt
    /// (`retrying = true`) first checks the covering leaf for a live
    /// `(key, value)` pair and absorbs the retry if its predecessor
    /// already committed. Over a leaf chain the check runs client-side
    /// in [`Index::insert`], the engine's single copy of the lock-coupled
    /// install; for shipped inserts (CG) the flag travels with the RPC
    /// and the server handler absorbs the duplicate through
    /// `apply_insert_local`. The absorption logic lives in this module
    /// and nowhere else.
    pub async fn insert(&self, ep: &Endpoint, key: Key, value: Value) -> Result<(), OpError> {
        let idx = self.index();
        let op = async { with_retry!(ep, retrying, idx.insert(ep, key, value, retrying)) };
        observed(ep, OpKind::Insert, op).await
    }

    /// Tombstone-delete the first live entry under `key`; returns whether
    /// an entry was deleted. Space is reclaimed by epoch GC
    /// ([`crate::gc`]). Idempotent under retry: tombstoning an
    /// already-deleted key is a no-op.
    pub async fn delete(&self, ep: &Endpoint, key: Key) -> Result<bool, OpError> {
        let idx = self.index();
        let op = async { with_retry!(ep, idempotent, idx.delete(ep, key)) };
        observed(ep, OpKind::Delete, op).await
    }
}

/// Bracket an operation for the observer bus with one start and one
/// end, retries included. With no observers installed each end is a
/// flag check.
pub(crate) async fn observed<T, E>(
    ep: &Endpoint,
    kind: OpKind,
    op: impl Future<Output = Result<T, E>>,
) -> Result<T, E> {
    let (cluster, client) = (ep.cluster(), ep.client_id());
    cluster.note_op_start(client, kind);
    let res = op.await;
    cluster.note_op_end(client, kind, res.is_ok());
    res
}

// ---------------------------------------------------------------------------
// The OLC descent loop.
// ---------------------------------------------------------------------------

impl Index {
    /// The local trees whole operations ship to: an index with no chain
    /// to resolve pages over keeps its entries there (the coarse-grained
    /// design).
    fn shipped(&self) -> Option<&Local> {
        self.local().filter(|_| self.chain().is_none())
    }

    /// Reach the chain position covering `key`. Over remote inner levels
    /// the client descends them itself and arrives with the covering
    /// leaf's page in hand (recording the inner trail into `path`, if
    /// given); a local upper level, a cached route or a prediction
    /// resolves straight to a chain page the caller has yet to load.
    async fn reach(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
        path: Option<&mut Vec<RemotePtr>>,
    ) -> Result<(RemotePtr, Option<PageBuf>), VerbError> {
        if self.root().is_some() {
            let (leaf, page) = self.descend(ep, key, req_bytes, path, 0).await?;
            return Ok((leaf, Some(page.into_owned())));
        }
        Ok((self.start(ep, key, req_bytes).await?, None))
    }

    /// Descend from the index's start to the node at `level` covering
    /// `key` (the leaf at level 0; a tree with no such level ends at its
    /// leaf): the optimistic read / fence-validate / move-right loop
    /// shared by every pointer-resolving traversal. When `path` is given,
    /// inner nodes crossed on a *descending* edge are recorded (sibling
    /// chases are not part of the path — Listing 2). Cache feedback: stale
    /// routing steps call [`Index::invalidate`]; the covering leaf is
    /// reported via [`Index::note_leaf`].
    async fn descend(
        &self,
        ep: &Endpoint,
        key: Key,
        req_bytes: usize,
        mut path: Option<&mut Vec<RemotePtr>>,
        level: u8,
    ) -> Result<(RemotePtr, Page), VerbError> {
        let mut parent = RemotePtr::NULL;
        let mut cur = self.start(ep, key, req_bytes).await?;
        loop {
            let page = self.load(ep, cur, None).await?;
            match kind_of(&page) {
                NodeKind::Inner => {
                    let node = InnerNodeRef::new(&page);
                    // `find_child` is this level's fence: it proves the
                    // (optimistically read) inner copy still routes the key.
                    crate::note_fence(ep, FenceKind::Revalidate, cur);
                    match node.find_child(key) {
                        Some(_) if node.level() == level => return Ok((cur, page)),
                        Some(c) => {
                            if let Some(p) = path.as_deref_mut() {
                                p.push(cur);
                            }
                            parent = cur;
                            cur = rp(c);
                        }
                        None => {
                            // The inner copy no longer covers the key (a
                            // concurrent split moved it right): chase.
                            self.invalidate(ep, key, cur);
                            cur = rp(node.right_sibling());
                        }
                    }
                }
                NodeKind::Leaf => {
                    let leaf = LeafNodeRef::new(&page);
                    // Mutation `DescendNoCovers`: return the leaf without
                    // evaluating the `covers()` fence, letting the
                    // optimistic read escape unvalidated.
                    let valid = if crate::mutated(Mutation::DescendNoCovers) {
                        true
                    } else {
                        crate::note_fence(ep, FenceKind::Revalidate, cur);
                        leaf.covers(key)
                    };
                    if valid {
                        self.note_leaf(ep, key, cur, &page);
                        return Ok((cur, page));
                    }
                    // Routed too far left (stale parent copy, stale cached
                    // route or prediction): invalidate the step that sent
                    // us here, chase.
                    self.invalidate(ep, key, parent);
                    cur = rp(leaf.right_sibling());
                }
            }
            assert!(!cur.is_null(), "fell off the B-link chain");
        }
    }

    /// One point-lookup attempt: descend, read the covering leaf.
    pub async fn lookup(&self, ep: &Endpoint, key: Key) -> Result<Option<Value>, VerbError> {
        if let Some(local) = self.shipped() {
            return local.lookup(ep, key).await;
        }
        let (_leaf, page) = self.descend(ep, key, msg::lookup_req(), None, 0).await?;
        Ok(LeafNodeRef::new(&page).get(key))
    }

    /// One range-query attempt over `[lo, hi]` (inclusive); live entries
    /// in key order.
    pub async fn range(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        self.range_with(ep, lo, hi, &RangeProgress::default()).await
    }

    /// [`Index::range`] as one attempt of a retried operation: shipped
    /// whole, or [`scan_chain`] over a chain. `progress` only matters to
    /// shipped ranges (see [`Local::range`]).
    pub(crate) async fn range_with(
        &self,
        ep: &Endpoint,
        lo: Key,
        hi: Key,
        progress: &RangeProgress,
    ) -> Result<Vec<(Key, Value)>, VerbError> {
        if let Some(local) = self.shipped() {
            return local.range(ep, lo, hi, progress).await;
        }
        scan_chain(self, ep, lo, hi).await
    }

    /// The plan after `plan`, whose last leaf was planned with high key
    /// `high < hi` (whether it kept it or split since): the level-1
    /// page's right sibling, taken from `prefetched` if a leaf batch
    /// brought it, or the RPC's next run. A model's plan covers `hi`
    /// already.
    async fn next_plan(
        &self,
        ep: &Endpoint,
        plan: &Plan,
        high: Key,
        hi: Key,
        prefetched: &mut BTreeMap<u64, PageBuf>,
    ) -> Result<Option<Plan>, VerbError> {
        Ok(match (&plan.src, self.local()) {
            (Source::Node(_, page), _) => {
                let next = rp(InnerNodeRef::new(page).right_sibling());
                let page = self.load(ep, next, prefetched.remove(&next.raw())).await?;
                if kind_of(&page) != NodeKind::Inner {
                    return Err(VerbError::Invariant("a level-1 sibling is no inner node"));
                }
                // Its `span` is this page's fence, as `find_child` is a descent's.
                crate::note_fence(ep, FenceKind::Revalidate, next);
                Some(Plan::new(Source::Node(next, page), high + 1, hi))
            }
            (Source::Reply(_), Some(local)) => {
                // The run ended with its partition's last local leaf.
                let run = local.leaf_plan(ep, local.past_partition(high), hi).await?;
                Some(Plan::new(Source::Reply(run), high + 1, hi))
            }
            _ => None,
        })
    }

    // -----------------------------------------------------------------------
    // The lock-coupled write path.
    // -----------------------------------------------------------------------

    /// Lock the leaf covering `key`, starting from `cur` (with `pending` as
    /// its already-fetched page, if any): lock, re-validate coverage under
    /// the lock, move right and retry on failure — the
    /// `remote_upgradeToWriteLockOrRestart` + move-right loop of Listing 4.
    async fn lock_covering_leaf(
        &self,
        ep: &Endpoint,
        key: Key,
        mut cur: RemotePtr,
        mut pending: Option<PageBuf>,
    ) -> Result<Locked, VerbError> {
        loop {
            // A client descent hands over its leaf copy; a resolved chain
            // position is loaded here.
            let page = match pending.take() {
                Some(p) => p,
                None => self.load(ep, cur, None).await?.into_owned(),
            };
            let locked = lock_node(ep, cur, page).await?;
            let leaf = LeafNodeRef::new(&locked.page);
            // Coverage re-check *under the lock* (the acquire CAS already
            // synchronized the copy; this is the semantic fence).
            crate::note_fence(ep, FenceKind::Revalidate, cur);
            if leaf.covers(key) {
                self.note_leaf(ep, key, cur, &locked.page);
                return Ok(locked);
            }
            let next = rp(leaf.right_sibling());
            locked.release(ep).await?;
            self.invalidate(ep, key, RemotePtr::NULL);
            cur = next;
        }
    }

    /// One insert attempt (`remote_insert`, Listing 2/4): descend (recording
    /// the inner path over remote inner levels), lock the covering leaf,
    /// install the pair, write back and FAA-unlock; splits allocate a remote
    /// page, write right-sibling-first, and register upward through
    /// `Index::complete_split`. Duplicates are allowed (non-unique
    /// index).
    ///
    /// **Exactly-once under retries** — the one place the `retrying` hint is
    /// interpreted: the attempt commits at the leaf's unlock FAA, so a later
    /// failure (split registration, a refused unlock) leaves the install in
    /// place; on `retrying = true` the covering leaf is first checked for a
    /// live `(key, value)` pair and the retry is absorbed if its predecessor
    /// already committed. (Non-unique-index caveat: a pair some concurrent
    /// operation installed independently is indistinguishable from our own
    /// committed install and is absorbed too.) Any lock the attempt holds
    /// when it fails is best-effort released so the retry does not stall on
    /// it until the lease break.
    pub async fn insert(
        &self,
        ep: &Endpoint,
        key: Key,
        value: Value,
        retrying: bool,
    ) -> Result<(), VerbError> {
        if let Some(local) = self.shipped() {
            return local.insert(ep, key, value, retrying).await;
        }
        let mut path = Vec::new();
        let (start, page) = self
            .reach(ep, key, msg::insert_req(), Some(&mut path))
            .await?;
        let mut locked = self.lock_covering_leaf(ep, key, start, page).await?;
        let cur = locked.ptr();

        if retrying && LeafNodeRef::new(&locked.page).contains(key, value) {
            // The previous attempt committed before its post-commit verb
            // failed. (If it had also split, the new leaf stays reachable
            // via the B-link sibling chain even when its parent entry is
            // missing; a later split re-propagates.)
            return locked.release(ep).await;
        }

        let full = LeafNodeMut::new(&mut locked.page)
            .insert(key, value)
            .is_err();
        if !full {
            return locked.commit(ep, None).await;
        }

        // Split: allocate remotely, split the local copy, write both halves
        // (right first, Listing 4), unlock, register upward.
        let (mut locked, right_ptr) = locked.under(ep, self.alloc(ep)).await?;
        let mut right_page = self.layout().alloc_page();
        let sep = LeafNodeMut::new(&mut locked.page).split_into(
            &mut right_page,
            cur.as_page_ptr(),
            right_ptr.as_page_ptr(),
        );
        let old_high = LeafNodeRef::new(&right_page).high_key();
        let target = if key <= sep {
            &mut locked.page
        } else {
            &mut *right_page
        };
        if LeafNodeMut::new(target).insert(key, value).is_err() {
            let _ = locked.release(ep).await;
            return Err(VerbError::Invariant("split leaf half refused the insert"));
        }
        locked.commit(ep, Some((right_ptr, &right_page))).await?;
        self.complete_split(ep, path, sep, cur, right_ptr, old_high)
            .await
    }

    /// One delete attempt: lock the covering leaf, tombstone the first live
    /// entry under `key`; returns whether an entry was deleted. Idempotent,
    /// so no retry hint is needed. Space is reclaimed by epoch GC
    /// ([`crate::gc`]).
    pub async fn delete(&self, ep: &Endpoint, key: Key) -> Result<bool, VerbError> {
        if let Some(local) = self.shipped() {
            return local.delete(ep, key).await;
        }
        let (start, page) = self.reach(ep, key, msg::delete_req(), None).await?;
        let mut locked = self.lock_covering_leaf(ep, key, start, page).await?;
        let deleted = LeafNodeMut::new(&mut locked.page).mark_deleted(key);
        if deleted {
            locked.commit(ep, None).await?;
        } else {
            locked.release(ep).await?;
        }
        Ok(deleted)
    }
}

/// The same exactly-once absorption rule, for inserts that ship whole to
/// the owning server (the coarse-grained design): a
/// retried attempt first probes the local tree for a live `(key, value)`
/// pair and absorbs the duplicate — the previous attempt's RPC may have
/// applied before its response was lost (server crash, dropped ack), and
/// re-applying would duplicate the entry. Runs inside the server's RPC
/// handler; returns the leaf to lock (`None` when the retry was
/// absorbed) and the CPU work to charge.
pub(crate) fn apply_insert_local(
    t: &mut blink::LocalTree,
    key: Key,
    value: Value,
    retrying: bool,
) -> (Option<Ptr>, blink::WorkStats) {
    // Mutation A: drop the retry flag, so a retried insert re-applies
    // unconditionally — the historical CG duplicate-insert-on-lost-
    // response bug, kept re-introducible so the model checker can prove
    // it detects this class of violation.
    let retrying = retrying && !crate::mutated(Mutation::CgDuplicateInsert);
    if retrying {
        let mut dup = Vec::new();
        let probe = t.range(key, key, &mut dup);
        if dup.iter().any(|&(_, v)| v == value) {
            return (None, probe);
        }
        let (leaf, mut work) = t.insert_at_leaf(key, value);
        work.absorb(probe);
        return (Some(leaf), work);
    }
    let (leaf, work) = t.insert_at_leaf(key, value);
    (Some(leaf), work)
}

// ---------------------------------------------------------------------------
// Split propagation over remotely stored inner levels.
// ---------------------------------------------------------------------------

impl Index {
    /// Install `(sep, right)` into the parent level under `root`,
    /// splitting parents as needed; grows a new root when the split
    /// reaches the top. Reads pages directly (uncached): SMOs must CAS
    /// against fresh versions.
    pub(crate) async fn propagate_split(
        &self,
        root: &Cell<RemotePtr>,
        ep: &Endpoint,
        mut path: Vec<RemotePtr>,
        mut sep: Key,
        mut left: RemotePtr,
        mut right: RemotePtr,
    ) -> Result<(), VerbError> {
        let ps = self.layout().page_size();
        // Level of the node `(sep, right)` goes into: 1 above the leaves.
        let mut level: u8 = 1;
        loop {
            let Some(mut cur) = path.pop() else {
                let grown = self.try_grow_root(root, ep, sep, left, right, level);
                if grown.await? {
                    return Ok(());
                }
                // The tree grew concurrently: locate the parent level
                // under the new root and continue there (the fresh path
                // ends at that level, so the next turn pops it).
                path = self.path_to_level(root.get(), ep, sep, level).await?;
                continue;
            };

            // Lock the covering inner node (move right as needed).
            let mut locked = loop {
                let page = read_unlocked(ep, cur, ps).await?;
                let node = InnerNodeRef::new(&page);
                crate::note_fence(ep, FenceKind::Revalidate, cur);
                if !node.covers(sep) {
                    cur = rp(node.right_sibling());
                    continue;
                }
                let locked = lock_node(ep, cur, page).await?;
                let node = InnerNodeRef::new(&locked.page);
                crate::note_fence(ep, FenceKind::Revalidate, cur);
                if node.covers(sep) {
                    break locked;
                }
                let next = rp(node.right_sibling());
                locked.release(ep).await?;
                cur = next;
            };

            let full = InnerNodeMut::new(&mut locked.page)
                .install_split(sep, right.as_page_ptr())
                .is_err();
            if !full {
                return locked.commit(ep, None).await;
            }

            // Parent full: split it (holding its lock), install into the
            // covering half, and carry the parent split upward.
            let (mut locked, parent_right) = locked.under(ep, self.alloc(ep)).await?;
            let mut pright_page = self.layout().alloc_page();
            let psep = InnerNodeMut::new(&mut locked.page).split_into(
                &mut pright_page,
                cur.as_page_ptr(),
                parent_right.as_page_ptr(),
            );
            let target = if sep <= psep {
                &mut locked.page
            } else {
                &mut *pright_page
            };
            if InnerNodeMut::new(target)
                .install_split(sep, right.as_page_ptr())
                .is_err()
            {
                let _ = locked.release(ep).await;
                return Err(VerbError::Invariant("split parent half refused the entry"));
            }
            locked
                .commit(ep, Some((parent_right, &pright_page)))
                .await?;
            sep = psep;
            left = cur;
            right = parent_right;
            level += 1;
        }
    }

    /// Attempt to install a new root above a split of the current root.
    /// Returns false if the root changed concurrently (the freshly written
    /// root page is leaked; harmless — pools are bump allocators).
    async fn try_grow_root(
        &self,
        root: &Cell<RemotePtr>,
        ep: &Endpoint,
        sep: Key,
        left: RemotePtr,
        right: RemotePtr,
        level: u8,
    ) -> Result<bool, VerbError> {
        if root.get() != left {
            return Ok(false);
        }
        let new_root = self.alloc(ep).await?;
        let mut page = self.layout().alloc_page();
        InnerNodeMut::init_root(
            &mut page,
            level,
            sep,
            left.as_page_ptr(),
            right.as_page_ptr(),
        );
        ep.write(new_root, &page).await?;
        // Root-pointer check-and-set: no await between check and set, so the
        // update is atomic with respect to other clients.
        let unchanged = root.get() == left;
        if unchanged {
            root.set(new_root);
        }
        Ok(unchanged)
    }

    /// Fresh descent from `root` down to (and including) an inner node at
    /// `level` covering `key`.
    async fn path_to_level(
        &self,
        root: RemotePtr,
        ep: &Endpoint,
        key: Key,
        level: u8,
    ) -> Result<Vec<RemotePtr>, VerbError> {
        let ps = self.layout().page_size();
        let mut path = Vec::new();
        let mut cur = root;
        loop {
            let page = read_unlocked(ep, cur, ps).await?;
            debug_assert_eq!(kind_of(&page), NodeKind::Inner, "levels > 0 are inner");
            let node = InnerNodeRef::new(&page);
            crate::note_fence(ep, FenceKind::Revalidate, cur);
            if !node.covers(key) {
                cur = rp(node.right_sibling());
                continue;
            }
            if node.level() == level {
                path.push(cur);
                return Ok(path);
            }
            match node.find_child(key) {
                Some(c) => {
                    path.push(cur);
                    cur = rp(c);
                }
                None => cur = rp(node.right_sibling()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Range scan over the leaf chain.
// ---------------------------------------------------------------------------

/// Where a scan's plan, `(high key, leaf)` pairs in chain order, comes
/// from: the node above the leaves (DESIGN.md §15, "Range scans").
enum Source {
    /// The model's leaf table: client-resident, as a prediction is.
    Model(Rc<PgmModel>),
    /// The level-1 page at the pointer, READ by this scan or cached.
    Node(RemotePtr, Page),
    /// A resolution RPC's run: its partition's leaves through the range's end.
    Reply(Vec<(Key, u64)>),
}

/// The leaves a scan expects to cross next: entries `span` of `src`.
struct Plan {
    src: Source,
    span: Range<usize>,
}

impl Plan {
    /// The entries of `src` a scan of `[lo, hi]` crosses.
    fn new(src: Source, lo: Key, hi: Key) -> Plan {
        let span = match &src {
            Source::Model(m) => m.predict_pos(lo)..m.predict_pos(hi) + 1,
            Source::Node(_, page) => InnerNodeRef::new(page).span(lo, hi),
            Source::Reply(run) => 0..run.len(),
        };
        Plan { src, span }
    }

    /// Planned entry `i`.
    fn entry(&self, i: usize) -> Option<(Key, RemotePtr)> {
        let (high, raw) = match &self.src {
            _ if !self.span.contains(&i) => return None,
            Source::Model(model) => *model.table().get(i)?,
            Source::Node(_, page) => {
                let (sep, child) = InnerNodeRef::new(page).entry(i);
                (sep, child.raw())
            }
            Source::Reply(run) => *run.get(i)?,
        };
        Some((high, RemotePtr::from_raw(raw)))
    }

    /// The next planned leaf.
    fn next(&self) -> Option<(Key, RemotePtr)> {
        self.entry(self.span.start)
    }
}

/// Scan the leaf chain collecting live entries in `[lo, hi]`, along the
/// plan the node above the first leaf gives (DESIGN.md §15): the level-1
/// page a remote upper level's descent stops at, the model's table, or
/// a local upper level's resolution RPC (a cached route names no plan,
/// so it is not consulted). While the restart epoch holds, planned
/// leaves are READ in `scan_batch` batches: a leaf that kept its planned
/// high key is followed by the plan's next, a split one by its sibling
/// until the plan resumes. A plan used up below `hi` is followed by the
/// source's next, split or not, from the sibling on. Off a plan (a
/// one-leaf tree, a restart mid-scan), each leaf is READ on its own.
async fn scan_chain(
    idx: &Index,
    ep: &Endpoint,
    lo: Key,
    hi: Key,
) -> Result<Vec<(Key, Value)>, VerbError> {
    // The epoch `start` checks, at the same instant.
    let epoch = ep.cluster().restart_epoch();
    let (mut cur, mut pending, mut plan) = (RemotePtr::NULL, None, None);
    if idx.root().is_some() {
        let (ptr, page) = idx.descend(ep, lo, msg::range_req(), None, 1).await?;
        match kind_of(&page) {
            NodeKind::Inner => plan = Some(Plan::new(Source::Node(ptr, page), lo, hi)),
            _ => (cur, pending) = (ptr, Some(page.into_owned())),
        }
    } else if idx.predicted_start(ep, lo).is_some() {
        plan = idx
            .router()
            .and_then(Router::model)
            .map(|m| Plan::new(Source::Model(m), lo, hi));
    } else if let Some(local) = idx.local() {
        plan = Some(Plan::new(
            Source::Reply(local.leaf_plan(ep, lo, hi).await?),
            lo,
            hi,
        ));
    }
    // A plan begins at its first leaf (for a model's, the one predicted).
    cur = plan.as_ref().and_then(Plan::next).map_or(cur, |e| e.1);
    let ps = idx.layout().page_size();
    let batch = idx.chain().map_or(0, |c| c.scan_batch).max(1);
    // A batch's leaves, and perhaps the next level-1 page.
    let mut batch_reqs: Vec<(RemotePtr, usize)> =
        Vec::with_capacity(plan.as_ref().map_or(0, |p| batch.min(p.span.len()) + 1));
    let mut out = Vec::new();
    let mut prefetched: BTreeMap<u64, PageBuf> = BTreeMap::new();
    // Keys below `from` lie in leaves already scanned.
    let mut from = lo;
    // The result is sized once, from the first leaf's key density.
    let mut first_leaf = true;
    // Unconsumed prefetched pages never escape into the result; tell the
    // observer bus so pending racy reads on them are closed as discards.
    let discard_rest = |ep: &Endpoint, rest: &BTreeMap<u64, PageBuf>| {
        for &raw in rest.keys() {
            crate::note_fence(ep, FenceKind::Discard, RemotePtr::from_raw(raw));
        }
    };
    loop {
        if cur.is_null() {
            discard_rest(ep, &prefetched);
            return Ok(out);
        }
        if plan.is_some() && ep.cluster().restart_epoch() != epoch {
            plan = None;
        }
        // The planned high key of `cur`, if it is the plan's next leaf.
        let planned = plan.as_ref().and_then(Plan::next).filter(|e| e.1 == cur);
        let unread = pending.is_none() && !prefetched.contains_key(&cur.raw());
        if let Some(plan) = plan.as_ref().filter(|_| planned.is_some() && unread) {
            // Pointers from client-resident state take the fence a
            // prediction takes; those this scan just read, none.
            let served = matches!(
                plan.src,
                Source::Model(_) | Source::Node(_, Page::Cached(_))
            );
            batch_reqs.clear();
            for (_, ptr) in plan.span.clone().take(batch).map_while(|i| plan.entry(i)) {
                if served {
                    crate::note_fence(ep, FenceKind::CachedUse, ptr);
                }
                batch_reqs.push((ptr, ps));
            }
            // A batch that finishes a level-1 page's span below `hi` also
            // READs its right sibling, unless the cache will serve it.
            if let Source::Node(_, page) = &plan.src {
                let node = InnerNodeRef::new(page);
                let next = rp(node.right_sibling());
                let cached = matches!(idx.cache(), Some(c) if c.holds_page(ep.client_id(), next));
                if plan.span.len() <= batch && node.high_key() < hi && !cached {
                    batch_reqs.push((next, ps));
                }
            }
            let pages = ep.read_many(&batch_reqs).await?;
            for ((p, _), bytes) in batch_reqs.iter().zip(pages) {
                prefetched.insert(p.raw(), bytes);
            }
        }
        let page = match pending.take() {
            Some(p) => p,
            None => match prefetched.remove(&cur.raw()) {
                Some(p)
                    if !blink::layout::lock_word::is_locked(blink::node::version_lock_of(&p)) =>
                {
                    // The prefetched copy's lock-word inspection is this
                    // page's fence: an unlocked snapshot is safe to scan
                    // under the B-link invariants.
                    crate::note_fence(ep, FenceKind::Revalidate, cur);
                    p
                }
                _ => read_unlocked(ep, cur, ps).await?,
            },
        };
        match kind_of(&page) {
            NodeKind::Leaf => {
                let leaf = LeafNodeRef::new(&page);
                crate::note_fence(ep, FenceKind::Revalidate, cur);
                if std::mem::take(&mut first_leaf) {
                    out.reserve(leaf.expected_rows(lo, hi));
                }
                leaf.collect_range(from, hi, &mut out);
                if leaf.high_key() >= hi {
                    discard_rest(ep, &prefetched);
                    return Ok(out);
                }
                // A planned leaf split left of `lo` since its plan was made
                // has a high key below `from`; its split-born sibling still
                // holds keys under `lo`.
                from = from.max(leaf.high_key() + 1);
                cur = rp(leaf.right_sibling());
                let Some(((high, _), p)) = planned.zip(plan.as_mut()) else {
                    continue;
                };
                p.span.start += 1;
                // Mutation `LearnedScanSkipsSplit`: skip the high-key check.
                let intact =
                    leaf.high_key() == high || crate::mutated(Mutation::LearnedScanSkipsSplit);
                if !intact {
                    // A stale level-1 page leaves the cache.
                    let origin = match p.src {
                        Source::Node(origin, _) => origin,
                        _ => RemotePtr::NULL,
                    };
                    idx.invalidate(ep, high, origin);
                }
                // A plan used up below `hi` is followed by its source's
                // next, keyed by the planned high key, split or not, from
                // the sibling on: a split since may put leaves before its
                // first (DESIGN.md §15). Past a split leaf, too, the walk
                // follows its sibling until it meets the plan again.
                if p.span.is_empty() && high < hi {
                    plan = idx.next_plan(ep, p, high, hi, &mut prefetched).await?;
                } else if intact {
                    cur = plan.as_ref().and_then(Plan::next).map_or(cur, |e| e.1);
                }
            }
            // Leaf chains never link to an inner node; reaching one means
            // corrupted pages, not a state an operation can recover from.
            NodeKind::Inner => return Err(VerbError::Invariant("inner node in the leaf chain")),
        }
    }
}

// ---------------------------------------------------------------------------
// Retried partitioned-range dedup.
// ---------------------------------------------------------------------------

/// Per-server completion tracking for a partitioned range query that may
/// be retried: servers that already shipped their rows are skipped by
/// later attempts, so a retried broadcast range (the coarse-grained
/// design on hash partitions) neither re-ships pages nor double-counts
/// bytes/RPCs in telemetry. Created once per *operation*, outside the
/// retry loop.
#[derive(Default)]
pub struct RangeProgress {
    done: RefCell<BTreeMap<usize, Vec<(Key, Value)>>>,
}

impl RangeProgress {
    /// Whether server `s` already shipped its rows in a prior attempt.
    pub fn is_done(&self, s: usize) -> bool {
        self.done.borrow().contains_key(&s)
    }

    /// Record server `s`'s rows.
    pub fn record(&self, s: usize, rows: Vec<(Key, Value)>) {
        self.done.borrow_mut().insert(s, rows);
    }

    /// Forget everything recorded so far. Range-partitioned retries call
    /// this at attempt start: their covering servers are re-queried
    /// wholesale (each attempt is a consistent fresh pass), while hash
    /// broadcasts keep progress across attempts and dedupe instead.
    pub fn reset(&self) {
        self.done.borrow_mut().clear();
    }

    /// Drain all recorded rows, concatenated in server order (key order
    /// for range partitions); `sort` re-sorts for hash partitions, whose
    /// per-server results interleave in key space.
    pub fn merge(&self, sort: bool) -> Vec<(Key, Value)> {
        let map = std::mem::take(&mut *self.done.borrow_mut());
        let total: usize = map.values().map(Vec::len).sum();
        let mut parts = map.into_values();
        // The first server's rows become the result; the rest move in
        // behind them after one reservation.
        let mut out = parts.next().unwrap_or_default();
        out.reserve(total - out.len());
        for mut part in parts {
            out.append(&mut part);
        }
        if sort {
            out.sort_unstable();
        }
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;
    use crate::chain::small_cfg;
    use crate::{CoarseGrained, Design, FineGrained, Hybrid, NamCluster, PartitionMap};
    use blink::PageLayout;
    use rdma_sim::{Cluster, ClusterSpec};
    use simnet::Sim;
    use std::cell::Cell;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Satellite: the merged backoff helper must reproduce both
    /// pre-merge schedules exactly. The lib.rs retry path is pinned by a
    /// digest over a (base, cap, attempt, client, now) matrix of
    /// delay+jitter values computed with the frozen pre-merge formula.
    #[test]
    fn merged_backoff_schedule_is_unchanged() {
        // Frozen copy of the pre-merge lib.rs formula.
        let old_retry = |base: u64, cap_raw: u64, attempt: u32| -> u64 {
            let cap = cap_raw.max(base);
            base.saturating_mul(1u64 << (attempt - 1).min(20)).min(cap)
        };
        let mut stream = Vec::new();
        for &(base, cap) in &[
            (1_000u64, 256_000u64),
            (500, 4_000),
            (1, u64::MAX),
            (8_000, 1_000), // cap below base: clamps to base
        ] {
            for attempt in 1u32..=24 {
                for &client in &[0u64, 7, 1_000_003] {
                    for &now in &[0u64, 123_456_789, u64::from(u32::MAX)] {
                        let old_delay = old_retry(base, cap, attempt);
                        let new_delay = expo_delay_nanos(base, attempt - 1, cap);
                        assert_eq!(old_delay, new_delay, "base={base} cap={cap} a={attempt}");
                        let jitter =
                            simnet::rng::mix3(client, attempt as u64, now) % old_delay.max(1);
                        stream.extend_from_slice(&(old_delay + jitter).to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(
            fnv1a(&stream),
            0x9a99_7462_081f_8a0b,
            "merged retry-backoff schedule drifted from the pre-merge golden"
        );

        // Frozen copy of the pre-merge onesided.rs spin formula.
        for attempt in 0u32..=64 {
            assert_eq!(
                spin_backoff(attempt),
                SimDur::from_micros(1 << attempt.min(5)),
                "spin schedule drifted at attempt {attempt}"
            );
        }
    }

    #[test]
    fn fg_retried_insert_is_absorbed_not_duplicated() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let idx = FineGrained::build(&cluster, small_cfg(), (0..100u64).map(|i| (i * 8, i)));
        let ep = rdma_sim::Endpoint::new(&cluster);
        sim.spawn(async move {
            // First attempt commits at the leaf unlock...
            idx.insert(&ep, 41, 999, false).await.unwrap();
            // ...then a post-commit verb "fails"; the retry layer re-runs
            // with `retrying = true`, which must absorb the install.
            idx.insert(&ep, 41, 999, true).await.unwrap();
            assert_eq!(idx.range(&ep, 41, 41).await.unwrap(), vec![(41, 999)]);
            // A genuinely fresh duplicate still installs (non-unique
            // index), and retrying with a different value installs too.
            idx.insert(&ep, 41, 999, false).await.unwrap();
            idx.insert(&ep, 41, 777, true).await.unwrap();
            let rows = idx.range(&ep, 41, 41).await.unwrap();
            assert_eq!(rows.len(), 3, "absorption is exact-pair only: {rows:?}");
        });
        sim.run();
    }

    #[test]
    fn hybrid_retried_insert_is_absorbed_not_duplicated() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), 100 * 8);
        let idx = Hybrid::build(
            &nam,
            small_cfg(),
            partition,
            (0..100u64).map(|i| (i * 8, i)),
        );
        let ep = rdma_sim::Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            idx.insert(&ep, 41, 999, false).await.unwrap();
            idx.insert(&ep, 41, 999, true).await.unwrap();
            assert_eq!(idx.range(&ep, 41, 41).await.unwrap(), vec![(41, 999)]);
            idx.insert(&ep, 41, 999, false).await.unwrap();
            idx.insert(&ep, 41, 777, true).await.unwrap();
            let rows = idx.range(&ep, 41, 41).await.unwrap();
            assert_eq!(rows.len(), 3, "absorption is exact-pair only: {rows:?}");
        });
        sim.run();
    }

    /// Which planned leaf of a scan splits.
    #[derive(Clone, Copy, PartialEq)]
    enum SplitAt {
        /// A leaf mid-range.
        Mid,
        /// The last leaf of the scan's first plan.
        PlanEnd,
        /// The first planned leaf, at a separator below `lo`.
        First,
    }

    /// A scan whose plan names a leaf that has split since — a split
    /// whose registration has not reached the level above yet, made here
    /// on the setup path — still returns every row: it leaves the plan at
    /// the split leaf, READs the split-born leaf through its sibling
    /// pointer and rejoins the plan at the next planned leaf, for one
    /// READ more than before the split. Mid-plan, that leaf is still in
    /// the plan; at the plan's end it is the first of the plan fetched
    /// next, exactly as without the split: a level-1 page's sibling READ
    /// or one RPC, and the planned leaves after it in batches (walking
    /// them singly instead READs no sibling page or asks no server). A
    /// first leaf split left of `lo` yields no row below `lo` from its
    /// split-born half. (The learned twin, whose plan is the model's, is
    /// in `router.rs`.)
    fn scan_survives_a_split_of_a_planned_leaf(nam: &NamCluster, idx: Rc<Index>, at: SplitAt) {
        use blink::node::LeafNodeMut;
        let src = idx.setup_source();
        let (head, page) = src
            .chain(idx.chain().unwrap().first())
            .find(|(_, page)| LeafNodeRef::new(page).high_key() >= 100 * 8)
            .unwrap();
        let (lo, hi) = match at {
            // The last key of its leaf, in the half a split moves right.
            SplitAt::First => {
                let leaf = LeafNodeRef::new(&page);
                (leaf.entry(leaf.count() - 1).0, 199 * 8)
            }
            SplitAt::Mid | SplitAt::PlanEnd => (100 * 8, 199 * 8),
        };
        let sim = nam.rdma.sim().clone();
        let split = match at {
            SplitAt::First => head,
            SplitAt::PlanEnd => {
                let (idx, ep) = (idx.clone(), rdma_sim::Endpoint::new(&nam.rdma));
                let last = Rc::new(Cell::new(RemotePtr::NULL));
                let out = last.clone();
                sim.spawn(async move {
                    let src = match idx.local() {
                        Some(local) => Source::Reply(local.leaf_plan(&ep, lo, hi).await.unwrap()),
                        None => {
                            let level1 = idx.descend(&ep, lo, msg::range_req(), None, 1);
                            let (ptr, page) = level1.await.unwrap();
                            Source::Node(ptr, page)
                        }
                    };
                    let plan = Plan::new(src, lo, hi);
                    let (high, ptr) = plan.entry(plan.span.end - 1).unwrap();
                    assert!(
                        (lo + 80..hi - 80).contains(&high),
                        "the scan goes on past {high}"
                    );
                    out.set(ptr);
                });
                sim.run();
                last.get()
            }
            SplitAt::Mid => {
                let inside: Vec<RemotePtr> = src
                    .chain(idx.chain().unwrap().first())
                    .filter(|(_, page)| {
                        (lo + 80..hi - 80).contains(&LeafNodeRef::new(page).high_key())
                    })
                    .map(|(ptr, _)| ptr)
                    .collect();
                inside[inside.len() / 2]
            }
        };
        let oracle: Vec<(Key, Value)> = (lo / 8..200u64).map(|i| (i * 8, i)).collect();
        let scan = || {
            let cluster = nam.rdma.clone();
            let verbs = move || {
                let stats = (0..4).map(|s| cluster.server_stats(s));
                stats.fold((0, 0), |(r, o), st| (r + st.rpcs, o + st.onesided_ops))
            };
            let got = Rc::new(RefCell::new(None));
            let (idx, out) = (idx.clone(), got.clone());
            let ep = rdma_sim::Endpoint::new(&nam.rdma);
            sim.spawn(async move {
                let (rpcs, reads) = verbs();
                let rows = idx.range(&ep, lo, hi).await.unwrap();
                let (rpcs2, reads2) = verbs();
                *out.borrow_mut() = Some((rows, rpcs2 - rpcs, reads2 - reads));
            });
            sim.run();
            got.take().unwrap()
        };
        let (rows, rpcs, reads) = scan();
        assert_eq!(rows, oracle);
        // Split the leaf in place; nothing above it learns of the split.
        let ps = idx.layout().page_size();
        let right = nam.rdma.setup_alloc(split.server(), ps as u64);
        let (mut left_page, mut right_page) = (src.load(split), vec![0; ps]);
        let sep = LeafNodeMut::new(&mut left_page).split_into(
            &mut right_page,
            split.as_page_ptr(),
            right.as_page_ptr(),
        );
        if at == SplitAt::First {
            assert!(sep < lo, "the split-born half holds keys in ({sep}, {lo})");
        } else {
            assert!((lo..hi).contains(&sep));
        }
        nam.rdma.setup_write(right, &right_page);
        nam.rdma.setup_write(split, &left_page);
        let (rows_after, rpcs_after, reads_after) = scan();
        // At a plan's end (`SplitAt::PlanEnd`) the split-born leaf holds
        // rows that the next plan's first leaf does not: a walk that
        // jumps to that leaf loses them.
        assert_eq!(rows_after, oracle, "rows lost past the split leaf");
        assert_eq!(
            (rpcs_after, reads_after),
            (rpcs, reads + 1),
            "the split-born leaf costs one READ"
        );
    }

    fn fg_twin(nam: &NamCluster) -> Rc<Index> {
        FineGrained::build(&nam.rdma, small_cfg(), (0..500u64).map(|i| (i * 8, i)))
    }

    fn hybrid_twin(nam: &NamCluster) -> Rc<Index> {
        let partition = PartitionMap::range_uniform(nam.num_servers(), 500 * 8);
        let items = (0..500u64).map(|i| (i * 8, i));
        Hybrid::build(nam, small_cfg(), partition, items)
    }

    #[test]
    fn an_fg_scan_leaves_the_plan_at_a_split_and_rejoins_it() {
        let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
        scan_survives_a_split_of_a_planned_leaf(&nam, fg_twin(&nam), SplitAt::Mid);
    }

    #[test]
    fn a_hybrid_scan_leaves_the_plan_at_a_split_and_rejoins_it() {
        let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
        scan_survives_a_split_of_a_planned_leaf(&nam, hybrid_twin(&nam), SplitAt::Mid);
    }

    #[test]
    fn an_fg_scan_fetches_the_next_plan_past_a_split_last_leaf() {
        let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
        scan_survives_a_split_of_a_planned_leaf(&nam, fg_twin(&nam), SplitAt::PlanEnd);
    }

    #[test]
    fn a_hybrid_scan_fetches_the_next_plan_past_a_split_last_leaf() {
        let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
        scan_survives_a_split_of_a_planned_leaf(&nam, hybrid_twin(&nam), SplitAt::PlanEnd);
    }

    #[test]
    fn an_fg_scan_skips_rows_below_lo_of_a_split_first_leaf() {
        let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
        scan_survives_a_split_of_a_planned_leaf(&nam, fg_twin(&nam), SplitAt::First);
    }

    #[test]
    fn a_hybrid_scan_skips_rows_below_lo_of_a_split_first_leaf() {
        let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
        scan_survives_a_split_of_a_planned_leaf(&nam, hybrid_twin(&nam), SplitAt::First);
    }

    /// A hybrid scan crossing a partition bound returns every row when
    /// the chain leaf spanning the bound splits on the bound's left side
    /// after the left partition's run came back and before the right
    /// one's is asked: that run ended before the leaf, and the right
    /// partition now maps its old high key to the split-off half. Both
    /// registration steps are made here on the setup path.
    #[test]
    fn a_hybrid_scan_keeps_a_leaf_split_left_of_a_partition_bound() {
        use blink::node::LeafNodeMut;
        let items = || (0..500u64).map(|i| (i * 8, i));
        let ps = small_cfg().layout.page_size();
        // Where the chain leaf holding key 2000 would split: its keys
        // follow from the items alone, so a twin shows them.
        let (sep, old_high) = {
            let twin = NamCluster::new(&Sim::new(), ClusterSpec::default());
            let idx = hybrid_twin(&twin);
            let src = idx.setup_source();
            let first = idx.chain().unwrap().first();
            let (_, mut page) = src
                .chain(first)
                .find(|(_, page)| LeafNodeRef::new(page).high_key() >= 2000)
                .unwrap();
            let old_high = LeafNodeRef::new(&page).high_key();
            let sep = LeafNodeMut::new(&mut page).split_into(
                &mut vec![0; ps],
                first.as_page_ptr(),
                first.as_page_ptr(),
            );
            (sep, old_high)
        };
        // Server 0's partition ends at the separator, so the leaf's
        // left half belongs to it and its old high key to server 1.
        let bounds = vec![sep, old_high + 400, old_high + 800, u64::MAX];
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::Range { bounds };
        let idx = Hybrid::build(&nam, small_cfg(), partition, items());
        let (lo, hi) = (sep - 200, old_high + 200);
        {
            let (idx, sim, cluster) = (idx.clone(), sim.clone(), nam.rdma.clone());
            sim.clone().spawn(async move {
                // The first leaf batch goes out once server 0's run is back.
                while (0..4).all(|s| cluster.server_stats(s).onesided_ops == 0) {
                    sim.sleep(SimDur::from_nanos(10)).await;
                }
                assert_eq!(cluster.server_stats(1).rpcs, 0, "server 1 not asked yet");
                let src = idx.setup_source();
                let first = idx.chain().unwrap().first();
                let (split, mut left) = src
                    .chain(first)
                    .find(|(_, page)| LeafNodeRef::new(page).high_key() == old_high)
                    .unwrap();
                let right = cluster.setup_alloc(split.server(), ps as u64);
                let mut right_page = vec![0; ps];
                let at = LeafNodeMut::new(&mut left).split_into(
                    &mut right_page,
                    split.as_page_ptr(),
                    right.as_page_ptr(),
                );
                assert_eq!(at, sep);
                cluster.setup_write(right, &right_page);
                cluster.setup_write(split, &left);
                let nodes = idx.local().unwrap().nodes();
                nodes[0].with_tree(|t| t.insert_at_leaf(sep, split.raw()));
                let repointed = nodes[1].with_tree(|t| t.update_value(old_high, right.raw()));
                assert!(repointed.0, "server 1 maps the old high key");
            });
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let (out, ep) = (got.clone(), rdma_sim::Endpoint::new(&nam.rdma));
        sim.spawn(async move {
            *out.borrow_mut() = idx.range(&ep, lo, hi).await.unwrap();
        });
        sim.run();
        let oracle: Vec<(Key, Value)> = items().filter(|&(k, _)| (lo..=hi).contains(&k)).collect();
        assert_eq!(*got.borrow(), oracle);
    }

    /// `merge` hands back every recorded row once, in server order or
    /// sorted, and leaves nothing recorded.
    #[test]
    fn merge_concatenates_in_server_order_or_sorts() {
        let rows =
            |keys: &[Key]| -> Vec<(Key, Value)> { keys.iter().map(|&k| (k, k + 1)).collect() };
        // Recorded out of server order; server 2 answered with no rows.
        let parts = [(3, rows(&[5, 40])), (0, rows(&[30, 31])), (2, rows(&[]))];
        for recorded in [0, 1, 3] {
            for sort in [false, true] {
                let progress = RangeProgress::default();
                for (s, part) in &parts[..recorded] {
                    progress.record(*s, part.clone());
                }
                let want = match (recorded, sort) {
                    (0, _) => rows(&[]),
                    (1, _) => rows(&[5, 40]),
                    (_, false) => rows(&[30, 31, 5, 40]),
                    (_, true) => rows(&[5, 30, 31, 40]),
                };
                assert_eq!(
                    progress.merge(sort),
                    want,
                    "{recorded} servers, sort {sort}"
                );
                assert!(!progress.is_done(3), "merge drains");
                assert_eq!(progress.merge(sort), rows(&[]));
            }
        }
    }

    /// Satellite fix: a retried broadcast range must not re-RPC servers
    /// that already shipped their rows in a failed attempt.
    #[test]
    fn retried_broadcast_range_skips_completed_servers() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::hash(nam.num_servers());
        let idx = Design::Cg(CoarseGrained::build(
            &nam,
            PageLayout::default(),
            partition,
            (0..1000u64).map(|i| (i * 8, i)),
            0.7,
        ));
        let cluster = nam.rdma.clone();
        let ep = rdma_sim::Endpoint::new(&cluster);
        // Servers are visited in order 0,1,2,3; kill 2 so the first
        // attempt completes 0 and 1, then aborts. Restart it later so a
        // retry finishes 2 and 3.
        cluster.fail_server(2);
        {
            let cluster = cluster.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(100)).await;
                cluster.restart_server(2);
            });
        }
        let got = Rc::new(Cell::new(0usize));
        {
            let got = got.clone();
            sim.spawn(async move {
                let rows = idx.range(&ep, 80, 160).await.unwrap();
                assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
                got.set(rows.len());
            });
        }
        sim.run();
        assert_eq!(got.get(), 11, "keys 80,88,...,160");
        // The dedup: servers 0 and 1 answered exactly once despite the
        // retries (before the fix every attempt re-broadcast to them).
        assert_eq!(cluster.server_stats(0).rpcs, 1, "server 0 re-broadcast");
        assert_eq!(cluster.server_stats(1).rpcs, 1, "server 1 re-broadcast");
        assert_eq!(cluster.server_stats(3).rpcs, 1, "server 3 answers once");
        assert!(
            cluster.fault_stats().verbs_unreachable >= 1,
            "at least one attempt must have hit the dead server"
        );
    }
}
