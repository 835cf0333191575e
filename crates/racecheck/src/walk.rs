//! End-of-run structural walk over B-link pages, and up-front
//! registration of the pages a bulk load built.
//!
//! Complements the online rules: after a workload quiesces, the
//! index must be a well-formed B-link structure. What that means is
//! [`blink::check`]'s to say, once for every place pages live; this
//! module feeds it each part the index has and turns its findings into
//! `structural` violations:
//!
//! * **leaf chain and remote upper level** — the pool pages, read
//!   through the index's [`SetupSource`] (the untimed control path — no
//!   simulated cost, and page geometry agreed with the engine by
//!   construction);
//! * **local upper level** — each server's local tree
//!   ([`blink::LocalTree::problems`]);
//! * **model router** — an audit of the shipped routing table.

use std::collections::BTreeSet;

use blink::check::MAX_PAGES;
use blink::node::{kind_of, level_of, InnerNodeRef, LeafNodeRef, NodeKind};
use blink::Key;
use namdex_core::{Design, SetupSource};
use rdma_sim::RemotePtr;
use simnet::SimTime;

use crate::{Racecheck, Violation};

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
    let ps = src.layout().page_size();
    let now = src.cluster().sim().now();
    let mut out = Vec::new();
    if let Some(chain) = idx.chain() {
        let root = idx.root().map(RemotePtr::as_page_ptr);
        let load = |p| src.load(rp(p));
        let found = blink::check::check(src.layout(), chain.first().as_page_ptr(), root, load);
        out.extend(
            found
                .into_iter()
                .map(|(p, detail)| sv(rp(p), ps, now, detail)),
        );
    }
    if let Some(local) = idx.local() {
        for (server, node) in local.nodes().iter().enumerate() {
            let found = node.with_tree(|t| t.problems());
            out.extend(found.into_iter().map(|(p, detail)| Violation {
                rule: "structural",
                client: None,
                server,
                offset: p.raw(),
                len: 0,
                time: now,
                detail: format!("local tree on server {server}: {detail}"),
            }));
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

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use blink::layout::lock_word;
    use blink::node::{set_version_lock, LeafNodeMut};
    use blink::PageLayout;
    use namdex_core::{FgConfig, FineGrained, Hybrid, NamCluster, PartitionMap};
    use rdma_sim::{Cluster, ClusterSpec};
    use simnet::Sim;

    /// Byte offset of the high key in blink's page header.
    const HIGH_KEY: usize = 16;
    const PAGE: usize = 256;

    fn cfg() -> FgConfig {
        FgConfig {
            layout: PageLayout::new(PAGE),
            fill: 0.7,
            scan_batch: 4,
            cache_capacity: None,
        }
    }

    fn items() -> impl Iterator<Item = (Key, u64)> {
        (0..2_000u64).map(|i| (i * 8, i))
    }

    /// Each corruption of a pool page, in the chain designs that keep
    /// one, comes back as a `structural` violation naming it — no panic.
    #[test]
    fn corrupted_pool_pages_are_structural_violations() {
        type Corrupt = fn(&Cluster, &[RemotePtr]);
        let cases: [(&str, Corrupt); 3] = [
            ("left locked", |c, leaves| {
                c.setup_page(leaves[5], PAGE, |p| {
                    set_version_lock(p, lock_word::locked(0))
                })
            }),
            ("above leaf high fence", |c, leaves| {
                c.setup_page(leaves[5], PAGE, |p| {
                    let lowered = LeafNodeRef::new(p).entry(0).0 - 1;
                    p[HIGH_KEY..HIGH_KEY + 8].copy_from_slice(&lowered.to_le_bytes());
                })
            }),
            ("cycle in the leaf chain", |c, leaves| {
                let back = leaves[2].as_page_ptr();
                c.setup_page(leaves[8], PAGE, |p| {
                    LeafNodeMut::new(p).set_right_sibling(back)
                })
            }),
        ];
        let builds: [fn(&NamCluster) -> Design; 2] = [
            |nam| Design::Fg(FineGrained::build(&nam.rdma, cfg(), items())),
            |nam| {
                let partition = PartitionMap::range_uniform(nam.num_servers(), 2_000 * 8);
                Design::Hybrid(Hybrid::build(nam, cfg(), partition, items()))
            },
        ];
        for (want, corrupt) in cases {
            for build in builds {
                let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
                let design = build(&nam);
                assert!(
                    check_design(&design).is_empty(),
                    "a fresh load is well-formed"
                );
                let idx = design.index();
                let first = idx.chain().map(|c| c.first()).unwrap_or_default();
                let leaves: Vec<RemotePtr> = idx
                    .setup_source()
                    .chain(first)
                    .map(|(ptr, _)| ptr)
                    .collect();
                corrupt(&nam.rdma, &leaves);
                let found = check_design(&design);
                assert!(
                    found
                        .iter()
                        .any(|v| v.rule == "structural" && v.detail.contains(want)),
                    "{:?} / {want}: {found:?}",
                    design.kind()
                );
            }
        }
    }

    /// An FG leaf split on the setup path, its parent untouched, is the
    /// state a split leaves before its parent entry lands: well-formed,
    /// since the split-born half is the left half's sibling. Unlinking
    /// that half leaves a gap the parent's separator shows.
    #[test]
    fn a_split_missing_its_parent_entry_is_well_formed_unless_unlinked() {
        for linked in [true, false] {
            let nam = NamCluster::new(&Sim::new(), ClusterSpec::default());
            let design = Design::Fg(FineGrained::build(&nam.rdma, cfg(), items()));
            let idx = design.index();
            let src = idx.setup_source();
            let first = idx.chain().map(|c| c.first()).unwrap_or_default();
            let leaves: Vec<RemotePtr> = src.chain(first).map(|(ptr, _)| ptr).collect();
            let (left, next) = (leaves[5], leaves[6]);
            let right = nam.rdma.setup_alloc(left.server(), PAGE as u64);
            let (mut left_page, mut right_page) = (src.load(left), vec![0; PAGE]);
            let mut node = LeafNodeMut::new(&mut left_page);
            node.split_into(&mut right_page, left.as_page_ptr(), right.as_page_ptr());
            if !linked {
                node.set_right_sibling(next.as_page_ptr());
            }
            nam.rdma.setup_write(right, &right_page);
            nam.rdma.setup_write(left, &left_page);
            let found = check_design(&design);
            if linked {
                assert!(found.is_empty(), "{found:?}");
            } else {
                assert!(
                    found
                        .iter()
                        .any(|v| v.rule == "structural" && v.detail.contains("!= separator")),
                    "{found:?}"
                );
            }
        }
    }
}
