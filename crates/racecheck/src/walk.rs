//! End-of-run structural walk over B-link pages, and up-front
//! registration of the pages a bulk load built.
//!
//! Complements the online rules: after a workload quiesces, the
//! index must be a well-formed B-link structure — high keys ordered along
//! the sibling chain, every tree-referenced leaf reachable from the
//! chain, key counts within page capacity, no lock left held. The walk
//! reads pages through the index's [`SetupSource`] (the untimed control
//! path — no simulated cost, and page geometry agreed with the engine by
//! construction) and checks every part the index has:
//!
//! * **leaf chain** — the sibling-order walk;
//! * **remote upper level** — a top-down walk from the root over the
//!   distributed inner levels, including tree→chain reachability;
//! * **local upper level** — each server's local tree (via [`blink`]'s
//!   own `check_invariants`);
//! * **model router** — an audit of the shipped routing table.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blink::layout::lock_word;
use blink::node::{
    kind_of, level_of, version_lock_of, HeadNodeRef, InnerNodeRef, LeafNodeRef, NodeKind,
};
use blink::Key;
use namdex_core::{Design, SetupSource};
use rdma_sim::RemotePtr;
use simnet::SimTime;

use crate::{Racecheck, Violation};

/// Safety cap on the inner-level traversal (a cycle shows up long before).
const MAX_PAGES: usize = 1_000_000;

fn sv(ptr: RemotePtr, len: usize, time: SimTime, detail: String) -> Violation {
    Violation {
        rule: "structural",
        client: None,
        server: ptr.server(),
        offset: ptr.offset(),
        len,
        time,
        detail,
    }
}

fn rp(p: blink::layout::Ptr) -> RemotePtr {
    RemotePtr::from_page_ptr(p)
}

/// Walk the leaf chain from `first`: returns findings plus the set of
/// leaf pages seen (raw remote-pointer form) for reachability checks.
fn walk_chain(src: &SetupSource, first: RemotePtr, out: &mut Vec<Violation>) -> BTreeSet<u64> {
    let layout = src.layout();
    let ps = layout.page_size();
    let now = src.cluster().sim().now();
    let mut leaves = BTreeSet::new();
    let mut head_targets: Vec<(RemotePtr, u64)> = Vec::new();
    let mut prev_high: Option<Key> = None;
    // Where the last page walked points: non-null after the loop means
    // the iterator cut a cycle.
    let mut next = first;
    for (cur, page) in src.chain(first) {
        if lock_word::is_locked(version_lock_of(&page)) {
            out.push(sv(cur, ps, now, "page left locked after quiescence".into()));
        }
        match kind_of(&page) {
            NodeKind::Head => {
                let head = HeadNodeRef::new(&page);
                if head.count() > layout.head_capacity() {
                    out.push(sv(
                        cur,
                        ps,
                        now,
                        format!(
                            "head count {} exceeds capacity {}",
                            head.count(),
                            layout.head_capacity()
                        ),
                    ));
                }
                for p in head.ptrs() {
                    head_targets.push((cur, rp(p).raw()));
                }
                next = rp(head.right_sibling());
            }
            NodeKind::Leaf => {
                let leaf = LeafNodeRef::new(&page);
                if level_of(&page) != 0 {
                    out.push(sv(cur, ps, now, "leaf with non-zero level".into()));
                }
                if leaf.count() > layout.entry_capacity() {
                    out.push(sv(
                        cur,
                        ps,
                        now,
                        format!(
                            "leaf count {} exceeds capacity {}",
                            leaf.count(),
                            layout.entry_capacity()
                        ),
                    ));
                }
                let mut last: Option<Key> = None;
                for i in 0..leaf.count().min(layout.entry_capacity()) {
                    let (k, _, _) = leaf.entry(i);
                    if last.is_some_and(|l| l > k) {
                        out.push(sv(cur, ps, now, format!("leaf keys unsorted at slot {i}")));
                        break;
                    }
                    if k > leaf.high_key() {
                        out.push(sv(
                            cur,
                            ps,
                            now,
                            format!("key {k} above leaf high fence {}", leaf.high_key()),
                        ));
                        break;
                    }
                    if let Some(ph) = prev_high {
                        if k <= ph {
                            out.push(sv(
                                cur,
                                ps,
                                now,
                                format!("key {k} at or below previous high fence {ph}"),
                            ));
                            break;
                        }
                    }
                    last = Some(k);
                }
                if let Some(ph) = prev_high {
                    if leaf.high_key() < ph {
                        out.push(sv(
                            cur,
                            ps,
                            now,
                            format!(
                                "high keys not ascending along the chain: {} after {ph}",
                                leaf.high_key()
                            ),
                        ));
                    }
                }
                prev_high = Some(leaf.high_key());
                leaves.insert(cur.raw());
                next = rp(leaf.right_sibling());
            }
            NodeKind::Inner => {
                out.push(sv(cur, ps, now, "inner node in the leaf chain".into()));
                next = RemotePtr::NULL;
            }
        }
    }
    if !next.is_null() {
        out.push(sv(next, ps, now, "cycle in the leaf chain".into()));
    }
    if prev_high != Some(blink::layout::KEY_MAX) {
        out.push(sv(
            first,
            ps,
            now,
            format!(
                "rightmost leaf high fence is {:?}, must cover +inf",
                prev_high
            ),
        ));
    }
    // Head prefetch lists must only reference leaves on the chain.
    for (head, target) in head_targets {
        if !leaves.contains(&target) {
            out.push(sv(
                head,
                ps,
                now,
                format!(
                    "head references page {} which is not a chain leaf",
                    RemotePtr::from_raw(target).offset()
                ),
            ));
        }
    }
    leaves
}

/// High key of an arbitrary node page.
fn high_key_of(page: &[u8]) -> Key {
    match kind_of(page) {
        NodeKind::Leaf => LeafNodeRef::new(page).high_key(),
        NodeKind::Inner => InnerNodeRef::new(page).high_key(),
        NodeKind::Head => blink::layout::KEY_MAX,
    }
}

/// Walk the distributed inner levels top-down from `root`, including
/// tree→chain reachability against the `chain` leaves [`walk_chain`] saw.
fn walk_inner(src: &SetupSource, root: RemotePtr, chain: &BTreeSet<u64>, out: &mut Vec<Violation>) {
    let layout = src.layout();
    let ps = layout.page_size();
    let now = src.cluster().sim().now();

    let mut stack = vec![root];
    let mut visited = BTreeSet::new();
    while let Some(cur) = stack.pop() {
        if cur.is_null() || !visited.insert(cur.raw()) {
            continue;
        }
        if visited.len() > MAX_PAGES {
            out.push(sv(cur, ps, now, "inner walk exceeds page cap".into()));
            break;
        }
        let page = src.load(cur);
        match kind_of(&page) {
            NodeKind::Leaf => {
                if !chain.contains(&cur.raw()) {
                    out.push(sv(
                        cur,
                        ps,
                        now,
                        "leaf referenced by the tree is unreachable from the chain".into(),
                    ));
                }
            }
            NodeKind::Head => {
                out.push(sv(
                    cur,
                    ps,
                    now,
                    "head node referenced by inner level".into(),
                ));
            }
            NodeKind::Inner => {
                if lock_word::is_locked(version_lock_of(&page)) {
                    out.push(sv(cur, ps, now, "page left locked after quiescence".into()));
                }
                let node = InnerNodeRef::new(&page);
                if node.count() == 0 || node.count() > layout.entry_capacity() {
                    out.push(sv(
                        cur,
                        ps,
                        now,
                        format!(
                            "inner count {} outside [1, {}]",
                            node.count(),
                            layout.entry_capacity()
                        ),
                    ));
                    continue;
                }
                let mut prev: Option<Key> = None;
                for i in 0..node.count() {
                    let (sep, child) = node.entry(i);
                    if prev.is_some_and(|p| p >= sep) {
                        out.push(sv(
                            cur,
                            ps,
                            now,
                            format!("inner separators unsorted at slot {i}"),
                        ));
                    }
                    prev = Some(sep);
                    let cp = rp(child);
                    let child_page = src.load(cp);
                    let child_level = level_of(&child_page);
                    if child_level + 1 != level_of(&page) {
                        out.push(sv(
                            cur,
                            ps,
                            now,
                            format!(
                                "child level {child_level} under inner level {}",
                                level_of(&page)
                            ),
                        ));
                    }
                    let ch = high_key_of(&child_page);
                    if ch != sep {
                        out.push(sv(
                            cur,
                            ps,
                            now,
                            format!("child high fence {ch} != separator {sep} at slot {i}"),
                        ));
                    }
                    stack.push(cp);
                }
                if node.entry(node.count() - 1).0 != node.high_key() {
                    out.push(sv(cur, ps, now, "last separator != high key".into()));
                }
                stack.push(rp(node.right_sibling()));
            }
        }
    }
}

/// Check one server's local tree via blink's own invariant checker,
/// converting a panic into a structural finding.
fn check_local_tree(
    node: &std::rc::Rc<nam::ServerNode>,
    server: usize,
    now: SimTime,
    out: &mut Vec<Violation>,
) {
    if !node.has_tree() {
        return;
    }
    let res = catch_unwind(AssertUnwindSafe(|| {
        node.with_tree(|t| t.check_invariants())
    }));
    if let Err(e) = res {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("local tree invariant panic");
        out.push(Violation {
            rule: "structural",
            client: None,
            server,
            offset: 0,
            len: 0,
            time: now,
            detail: format!("local tree on server {server}: {msg}"),
        });
    }
}

/// Audit a model router's routing `table`. An entry may be *stale*
/// (after a split the leaf it points at covers less than the recorded
/// high key) but must never route *right* of the covering leaf: each
/// entry must point at a live chain page whose current high key is at
/// most the recorded one, and recorded highs must be strictly ascending
/// — the conditions under which the engine's sibling chase is
/// guaranteed to correct any prediction.
fn audit_model(src: &SetupSource, table: &[(Key, u64)], out: &mut Vec<Violation>) {
    let now = src.cluster().sim().now();
    let mut prev: Option<Key> = None;
    for &(high, raw) in table {
        let ptr = RemotePtr::from_raw(raw);
        if prev.is_some_and(|p| p >= high) {
            out.push(sv(
                ptr,
                0,
                now,
                format!("model table highs not strictly ascending at {high}"),
            ));
            continue;
        }
        prev = Some(high);
        let page = src.load(ptr);
        let stale_right = match kind_of(&page) {
            NodeKind::Leaf => LeafNodeRef::new(&page).high_key() > high,
            // Heads are legal chain interposers the engine skips.
            NodeKind::Head => false,
            NodeKind::Inner => true,
        };
        if stale_right {
            out.push(sv(
                ptr,
                0,
                now,
                format!(
                    "model entry {high} routes right of its leaf (or to a \
                     non-chain page): predictions there cannot self-correct"
                ),
            ));
        }
    }
}

/// Structural check for any design: every part it has, in turn.
pub fn check_design(design: &Design) -> Vec<Violation> {
    let idx = design.index();
    let src = idx.setup_source();
    let mut out = Vec::new();
    let chain = idx.chain().map(|c| walk_chain(src, c.first(), &mut out));
    if let (Some(root), Some(chain)) = (idx.root(), &chain) {
        walk_inner(src, root, chain, &mut out);
    }
    if let Some(local) = idx.local() {
        let now = src.cluster().sim().now();
        for (s, node) in local.nodes().iter().enumerate() {
            check_local_tree(node, s, now, &mut out);
        }
    }
    // A flushed model ships nothing, so there is nothing to audit.
    if let Some(model) = idx.router().and_then(|r| r.model()) {
        audit_model(src, model.table(), &mut out);
    }
    out
}

/// Register whatever `design` keeps in one-sided memory — the leaf chain
/// and remote inner levels, if it has them — with the checker: pages
/// built on the untimed setup path emit no `ALLOC` events, so the checker
/// would otherwise learn them only as traffic touches them, and judge
/// plain writes to them only after their first lock-word atomic. (Local
/// trees live behind RPC handlers and a model is client-resident:
/// nothing to register, [`check_design`] covers them.)
pub fn register_design(rc: &Racecheck, design: &Design) {
    let idx = design.index();
    let src = idx.setup_source();
    if let Some(chain) = idx.chain() {
        for (ptr, _) in src.chain(chain.first()) {
            rc.register_page(ptr);
        }
    }
    let mut stack = Vec::from_iter(idx.root());
    let mut visited = BTreeSet::new();
    while let Some(cur) = stack.pop() {
        if cur.is_null() || !visited.insert(cur.raw()) || visited.len() > MAX_PAGES {
            continue;
        }
        rc.register_page(cur);
        let page = src.load(cur);
        if kind_of(&page) == NodeKind::Inner {
            let node = InnerNodeRef::new(&page);
            // Children of level 1 are leaves: the chain walk has them.
            if level_of(&page) > 1 {
                stack.extend((0..node.count()).map(|i| rp(node.entry(i).1)));
            }
            stack.push(rp(node.right_sibling()));
        }
    }
}
