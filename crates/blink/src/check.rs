//! What a well-formed B-link tree is, written once for every place its
//! pages live: a [`crate::LocalTree`]'s own buffer, or a leaf chain and
//! inner levels scattered over remote memory pools.
//!
//! Pages are read through a closure `Fn(Ptr) -> Vec<u8>`, so the walk
//! never needs to know how a pointer is encoded. Every rule broken is
//! returned as a finding `(page, detail)`, not a panic, and a sibling
//! cycle is cut, not walked forever. (A page whose kind byte is neither
//! inner nor leaf still panics in [`kind_of`].)

use std::collections::BTreeSet;

use crate::layout::{lock_word, Key, PageLayout, Ptr, KEY_MAX};
use crate::node::{kind_of, level_of, version_lock_of, InnerNodeRef, LeafNodeRef, NodeKind};

/// Safety cap on the inner-level traversal (a cycle shows up long before).
pub const MAX_PAGES: usize = 1_000_000;

/// The leaf chain from `first` in sibling order: every leaf with its
/// bytes as `load` returns them. Ends at a null sibling, after
/// yielding a non-chain (inner) page — what a torn chain means is the
/// caller's call — or when the walk comes back to a page it has passed.
/// The cycle check is Brent's: constant state, so a cycle may be walked
/// twice before it is cut, never forever.
pub fn chain<L: Fn(Ptr) -> Vec<u8>>(first: Ptr, load: L) -> impl Iterator<Item = (Ptr, Vec<u8>)> {
    let mut cur = first;
    // `mark` trails at the page passed `span` steps after the last mark.
    let (mut mark, mut since_mark, mut span) = (Ptr::NULL, 0u64, 1u64);
    std::iter::from_fn(move || {
        if cur.is_null() || cur == mark {
            return None;
        }
        let at = cur;
        since_mark += 1;
        if since_mark == span {
            (mark, since_mark, span) = (at, 0, span * 2);
        }
        let page = load(at);
        cur = match kind_of(&page) {
            NodeKind::Leaf => LeafNodeRef::new(&page).right_sibling(),
            NodeKind::Inner => Ptr::NULL,
        };
        Some((at, page))
    })
}

/// Every broken B-link invariant of the tree whose leaf chain starts at
/// `first` and, if it has one, whose inner levels hang off `root`.
///
/// Along the chain: no page locked, leaves at level 0 within capacity,
/// keys sorted and inside `(previous high key, high key]`, high keys
/// ascending up to `KEY_MAX`, no inner page and no cycle. From the root
/// down: no page locked,
/// inner nodes hold `1..=capacity` strictly ascending separators, the
/// last equal to the node's own high key; children sit one level below;
/// every leaf reached is on the chain. A child's high key equals its
/// separator, or lies below it when the child's right-sibling run
/// reaches a node whose high key is the separator without passing it:
/// a split whose parent entry has not landed yet.
pub fn check(
    layout: PageLayout,
    first: Ptr,
    root: Option<Ptr>,
    load: impl Fn(Ptr) -> Vec<u8>,
) -> Vec<(Ptr, String)> {
    let mut out = Vec::new();
    let leaves = check_chain(layout, first, &load, &mut out);
    if let Some(root) = root {
        check_inner(layout, root, &leaves, &load, &mut out);
    }
    out
}

/// High key and right sibling of an arbitrary node page.
fn fences_of(page: &[u8]) -> (Key, Ptr) {
    match kind_of(page) {
        NodeKind::Leaf => {
            let node = LeafNodeRef::new(page);
            (node.high_key(), node.right_sibling())
        }
        NodeKind::Inner => {
            let node = InnerNodeRef::new(page);
            (node.high_key(), node.right_sibling())
        }
    }
}

/// Whether a node with high key `high` and right sibling `next` ends at
/// separator `sep`: its high key is `sep`, or its right-sibling run
/// reaches a node whose high key is `sep` through ascending high keys
/// below it (a split whose parent entry has not landed).
fn run_reaches(mut high: Key, mut next: Ptr, sep: Key, load: &impl Fn(Ptr) -> Vec<u8>) -> bool {
    while high < sep && !next.is_null() {
        let (h, sibling) = fences_of(&load(next));
        if h <= high {
            return false;
        }
        (high, next) = (h, sibling);
    }
    high == sep
}

/// The chain half of [`check`]: returns the leaves it passed, for the
/// tree→chain reachability check.
fn check_chain(
    layout: PageLayout,
    first: Ptr,
    load: &impl Fn(Ptr) -> Vec<u8>,
    out: &mut Vec<(Ptr, String)>,
) -> BTreeSet<Ptr> {
    let mut flag = |at: Ptr, detail: String| out.push((at, detail));
    let mut leaves = BTreeSet::new();
    let mut prev_high: Option<Key> = None;
    // Where the last page walked points: non-null after the loop means
    // the iterator cut a cycle.
    let mut next = first;
    for (cur, page) in chain(first, load) {
        if lock_word::is_locked(version_lock_of(&page)) {
            flag(cur, "page left locked after quiescence".into());
        }
        match kind_of(&page) {
            NodeKind::Leaf => {
                let (leaf, cap) = (LeafNodeRef::new(&page), layout.entry_capacity());
                let (n, high) = (leaf.count(), leaf.high_key());
                if level_of(&page) != 0 {
                    flag(cur, "leaf with non-zero level".into());
                }
                if n > cap {
                    flag(cur, format!("leaf count {n} exceeds capacity {cap}"));
                }
                let mut last: Option<Key> = None;
                for i in 0..n.min(cap) {
                    let (k, _, _) = leaf.entry(i);
                    let broken = if last.is_some_and(|l| l > k) {
                        Some(format!("leaf keys unsorted at slot {i}"))
                    } else if k > high {
                        Some(format!("key {k} above leaf high fence {high}"))
                    } else {
                        prev_high
                            .filter(|&ph| k <= ph)
                            .map(|ph| format!("key {k} at or below previous high fence {ph}"))
                    };
                    if let Some(detail) = broken {
                        flag(cur, detail);
                        break;
                    }
                    last = Some(k);
                }
                if let Some(ph) = prev_high.filter(|&ph| high < ph) {
                    let detail =
                        format!("high keys not ascending along the chain: {high} after {ph}");
                    flag(cur, detail);
                }
                prev_high = Some(high);
                leaves.insert(cur);
                next = leaf.right_sibling();
            }
            NodeKind::Inner => {
                flag(cur, "inner node in the leaf chain".into());
                next = Ptr::NULL;
            }
        }
    }
    if !next.is_null() {
        flag(next, "cycle in the leaf chain".into());
    }
    if prev_high != Some(KEY_MAX) {
        let detail = format!("rightmost leaf high fence is {prev_high:?}, must cover +inf");
        flag(first, detail);
    }
    leaves
}

/// The inner half of [`check`]: a top-down walk from `root`, including
/// tree→chain reachability against the `chain` leaves.
fn check_inner(
    layout: PageLayout,
    root: Ptr,
    chain: &BTreeSet<Ptr>,
    load: &impl Fn(Ptr) -> Vec<u8>,
    out: &mut Vec<(Ptr, String)>,
) {
    let mut flag = |at: Ptr, detail: String| out.push((at, detail));
    let mut stack = vec![root];
    let mut visited = BTreeSet::new();
    while let Some(cur) = stack.pop() {
        if cur.is_null() || !visited.insert(cur) {
            continue;
        }
        if visited.len() > MAX_PAGES {
            flag(cur, "inner walk exceeds page cap".into());
            break;
        }
        let page = load(cur);
        match kind_of(&page) {
            NodeKind::Leaf if !chain.contains(&cur) => {
                let detail = "leaf referenced by the tree is unreachable from the chain";
                flag(cur, detail.into());
            }
            NodeKind::Leaf => {}
            NodeKind::Inner => {
                if lock_word::is_locked(version_lock_of(&page)) {
                    flag(cur, "page left locked after quiescence".into());
                }
                let (node, cap) = (InnerNodeRef::new(&page), layout.entry_capacity());
                let n = node.count();
                if n == 0 || n > cap {
                    flag(cur, format!("inner count {n} outside [1, {cap}]"));
                    continue;
                }
                let level = level_of(&page);
                let mut prev: Option<Key> = None;
                for i in 0..n {
                    let (sep, child) = node.entry(i);
                    if prev.is_some_and(|p| p >= sep) {
                        flag(cur, format!("inner separators unsorted at slot {i}"));
                    }
                    prev = Some(sep);
                    let child_page = load(child);
                    let child_level = level_of(&child_page);
                    if level.checked_sub(1) != Some(child_level) {
                        let detail = format!("child level {child_level} under inner level {level}");
                        flag(cur, detail);
                    }
                    let (ch, sibling) = fences_of(&child_page);
                    if !run_reaches(ch, sibling, sep, load) {
                        let detail =
                            format!("child high fence {ch} != separator {sep} at slot {i}");
                        flag(cur, detail);
                    }
                    stack.push(child);
                }
                if node.entry(n - 1).0 != node.high_key() {
                    flag(cur, "last separator != high key".into());
                }
                stack.push(node.right_sibling());
            }
        }
    }
}
