#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # namdex-core — distributed tree-based index structures for RDMA
//!
//! The paper's primary contribution: distributed B-link tree designs for
//! the NAM architecture, differing in *how the index is distributed*
//! across memory servers and *which RDMA primitives* access it — three
//! in the paper, plus our learned-routing extension.
//!
//! | Design | Distribution | Access |
//! |--------|--------------|--------|
//! | 1 (§3) [`CoarseGrained`] | classic partitioning, one local tree per memory server | two-sided SEND/RECV RPC |
//! | 2 (§4) [`FineGrained`] | one global tree, nodes scattered round-robin, remote pointers | one-sided READ/WRITE/CAS/FAA |
//! | 3 (§5) [`Hybrid`] | coarse-grained upper levels + fine-grained leaf level | RPC traversal + one-sided leaf access |
//! | 4 [`Learned`] | the hybrid layout | client-resident model + one-sided leaf access, RPC fallback |
//!
//! That table is data, not types: every design is one [`Index`] value
//! described by the parts it has — a scattered leaf [`chain`], an upper
//! level that is either remote inner pages or [`local`] per-server trees
//! behind RPC, an optional model [`router`], an optional client
//! [`cache`] (Appendix A.4) — and the four names above are constructors
//! ([`resolve`] has the parts table). All designs use the same
//! concurrency protocol — optimistic lock coupling over an 8-byte
//! `(version, lock-bit)` word per node — implemented once in the shared
//! traversal/SMO [`engine`] over the index's six page-resolution
//! methods, and share the same tombstone-delete / epoch-GC scheme
//! ([`gc`]); a range scan READs the leaves the node above them names, in
//! batches (where §4.3 reads head nodes).
//!
//! [`Design`] pairs an index with its name for benchmarks and examples,
//! and adds the *recovery* layer: transient verb failures (timeouts,
//! unreachable servers) are retried from the root with bounded
//! exponential backoff and deterministic jitter; permanent conditions
//! surface as [`OpError`].

pub mod cache;
pub mod chain;
pub mod engine;
pub mod gc;
pub mod learned;
pub mod local;
pub mod model;
mod msg;
pub(crate) mod onesided;
pub mod partition;
pub mod resolve;
pub mod router;

pub use cache::{CacheLayer, CacheStats};
pub use chain::{Chain, FgConfig};
pub use engine::RangeProgress;
pub use local::Local;
pub use onesided::abandoned_guards;
pub use partition::PartitionMap;
pub use resolve::{CoarseGrained, FineGrained, Hybrid, Index, Learned, SetupSource};
pub use router::{LearnedStats, Router};

use blink::{Key, Value};
use rdma_sim::{Cluster, ClusterSpec, Endpoint, RemotePtr, VerbError};
use simnet::Sim;
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// An assembled NAM deployment: the simulated RDMA cluster. Per-index
/// server-side state ([`local::ServerNode`]) is owned by each index,
/// since a memory server hosts one local tree per index it serves.
pub struct NamCluster {
    /// The underlying simulated RDMA cluster.
    pub rdma: Cluster,
}

impl NamCluster {
    /// Deploy a NAM cluster on `sim` with the given spec.
    pub fn new(sim: &Sim, spec: ClusterSpec) -> Self {
        NamCluster {
            rdma: Cluster::new(sim, spec),
        }
    }

    /// Number of memory servers.
    pub fn num_servers(&self) -> usize {
        self.rdma.num_servers()
    }
}

/// Which of the four designs an index uses (the paper's three plus the
/// learned-routing extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Design 1 (§3): coarse-grained distribution, two-sided access.
    CoarseGrained,
    /// Design 2 (§4): fine-grained distribution, one-sided access.
    FineGrained,
    /// Design 3 (§5): hybrid.
    Hybrid,
    /// Design 4: learned-index routing over the hybrid layout — clients
    /// additionally hold the trained model.
    Learned,
}

impl IndexKind {
    /// All four designs, in the order every sweep and matrix visits them.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::CoarseGrained,
        IndexKind::FineGrained,
        IndexKind::Hybrid,
        IndexKind::Learned,
    ];

    /// `[key, name, label]` — the one table the three spellings read.
    const fn names(self) -> [&'static str; 3] {
        match self {
            IndexKind::CoarseGrained => ["cg", "coarse-grained", "Coarse-Grained"],
            IndexKind::FineGrained => ["fg", "fine-grained", "Fine-Grained"],
            IndexKind::Hybrid => ["hybrid", "hybrid", "Hybrid"],
            IndexKind::Learned => ["learned", "learned", "Learned"],
        }
    }

    /// Stable short name: CLI flags and env lists (`NAMDEX_DESIGNS=cg,fg`),
    /// counterexample files, artifact names.
    pub const fn key(self) -> &'static str {
        self.names()[0]
    }

    /// Report name (CSV `design` columns).
    pub const fn name(self) -> &'static str {
        self.names()[1]
    }

    /// Display name matching the paper's legends.
    pub const fn label(self) -> &'static str {
        self.names()[2]
    }

    /// Parse [`Self::key`] output.
    pub fn parse(key: &str) -> Option<IndexKind> {
        Self::ALL.into_iter().find(|k| k.key() == key)
    }
}

/// Why an index operation failed after the retry layer gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The issuing client was killed; the operation cannot make progress
    /// and must not be retried (its worker is gone).
    Cancelled,
    /// Every retry of a transient fault failed;
    /// [`rdma_sim::spec::RETRY_LIMIT`] attempts were made.
    RetriesExhausted {
        /// Attempts performed (initial try + retries).
        attempts: u32,
        /// The verb error of the final attempt.
        last: VerbError,
    },
    /// A non-retryable verb failure (e.g. a corrupt remote pointer).
    Fatal(VerbError),
}

impl OpError {
    /// Whether the operation was aborted because the client died.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, OpError::Cancelled)
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Cancelled => write!(f, "operation cancelled: client killed"),
            OpError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            OpError::Fatal(e) => write!(f, "fatal verb failure: {e}"),
        }
    }
}

impl std::error::Error for OpError {}

/// An index under one of the four design names, behind the retry
/// layer. The variant is the name; the [`Index`] it holds is the
/// behaviour, and [`Design::build`] is where the two are paired.
///
/// All operations go through the retry layer: a [`VerbError::Timeout`]
/// or [`VerbError::ServerUnreachable`] aborts the attempt, backs off,
/// and restarts the whole operation from the root (every design's
/// per-attempt protocol is restartable: optimistic descents re-validate,
/// and leaf installs are idempotent under the B-link invariants).
#[derive(Clone)]
pub enum Design {
    /// Design 1: coarse-grained / two-sided.
    Cg(Rc<Index>),
    /// Design 2: fine-grained / one-sided.
    Fg(Rc<Index>),
    /// Design 3: hybrid.
    Hybrid(Rc<Index>),
    /// Design 4: learned-index routing over the hybrid layout.
    Learned(Rc<Index>),
}

/// Whether this build can re-introduce the seeded bugs ([`Mutation`])
/// used to mutation-test the model checker (the `mutations` cargo
/// feature). Nothing but the checker's own validation should inject one.
pub fn mutations_enabled() -> bool {
    cfg!(feature = "mutations")
}

/// A seeded bug of `mutations` builds: each re-opens one known hole so
/// the model checker (`crates/mc`) and the race detector
/// (`crates/racecheck`) can prove they catch it. A bug is live only on
/// the thread that [`inject`](Mutation::inject)s it, one at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// A: the CG insert handler ignores the retry flag, so a retried
    /// insert whose first attempt landed re-applies (the historical
    /// duplicate insert on a lost response).
    CgDuplicateInsert,
    /// B: a lease break keeps the lease-epoch byte (the historical
    /// recovery bug the `version-protocol` rule flags).
    LeaseEpochElision,
    /// Drop the `covers()` version re-check in the engine descent: the
    /// optimistically read leaf escapes into the op result unvalidated.
    DescendNoCovers,
    /// Skip the restart-epoch fence (`CacheLayer::flush_if_restarted`)
    /// in page resolution: cached pages/routes survive a server
    /// restart and are served against the rebuilt pool.
    CachedNoFence,
    /// Skip the learned design's locked-page re-read: a predicted leaf
    /// is read raw instead of through `read_unlocked`, so a mid-write
    /// snapshot can escape without the spin re-read.
    LearnedNoReread,
    /// Reorder the commit (`Locked::commit`, the only place the order is
    /// written): unlock FAA before the final in-place WRITE, publishing
    /// the version bump while the page bytes still race.
    UnlockBeforeWrite,
    /// A scan jumps to its plan's next leaf without checking for a
    /// split, skipping any split-born leaf and its rows (seeded in the
    /// one check every plan source shares; hunted over a learned model's
    /// plan).
    LearnedScanSkipsSplit,
}

thread_local! {
    static ACTIVE: Cell<Option<Mutation>> = const { Cell::new(None) };
}

impl Mutation {
    /// All seven seeded bugs.
    pub const ALL: [Mutation; 7] = [
        Mutation::CgDuplicateInsert,
        Mutation::LeaseEpochElision,
        Mutation::DescendNoCovers,
        Mutation::CachedNoFence,
        Mutation::LearnedNoReread,
        Mutation::UnlockBeforeWrite,
        Mutation::LearnedScanSkipsSplit,
    ];

    /// Stable name (hunt labels, counterexample files).
    pub fn key(self) -> &'static str {
        match self {
            Mutation::CgDuplicateInsert => "cg-duplicate-insert",
            Mutation::LeaseEpochElision => "lease-epoch-elision",
            Mutation::DescendNoCovers => "descend-no-covers",
            Mutation::CachedNoFence => "cached-no-fence",
            Mutation::LearnedNoReread => "learned-no-reread",
            Mutation::UnlockBeforeWrite => "unlock-before-write",
            Mutation::LearnedScanSkipsSplit => "learned-scan-skips-split",
        }
    }

    /// Make this the calling thread's active mutation until the returned
    /// guard drops. Panics in a build without the `mutations` feature,
    /// where no mutation can take effect.
    pub fn inject(self) -> Injected {
        assert!(
            mutations_enabled(),
            "injecting mutation `{}` needs the `mutations` feature",
            self.key()
        );
        Injected(ACTIVE.replace(Some(self)))
    }
}

/// The scope of an injected [`Mutation`]; dropping it restores the
/// thread's previous one.
#[must_use = "the mutation is active only while the guard lives"]
pub struct Injected(Option<Mutation>);

impl Drop for Injected {
    fn drop(&mut self) {
        ACTIVE.set(self.0);
    }
}

/// Whether `m` is live here: `mutations` builds only, and only while it
/// is the thread's injected mutation. Other builds compile it to `false`.
pub(crate) fn mutated(m: Mutation) -> bool {
    cfg!(feature = "mutations") && ACTIVE.get() == Some(m)
}

/// Report a protocol fence evaluation on the page at `ptr` to the
/// observer bus (race detector). A flag check with no observers.
pub(crate) fn note_fence(ep: &Endpoint, kind: rdma_sim::FenceKind, ptr: RemotePtr) {
    if ep.cluster().has_observers() {
        ep.cluster()
            .note_fence(ep.client_id(), kind, ptr.server(), ptr.offset());
    }
}

/// Report a restart-epoch reconciliation (cache/model flush check) by
/// this client. A flag check with no observers.
pub(crate) fn note_epoch_check(ep: &Endpoint) {
    if ep.cluster().has_observers() {
        ep.cluster()
            .note_fence(ep.client_id(), rdma_sim::FenceKind::EpochCheck, 0, 0);
    }
}

impl Design {
    /// Build the `kind` design over `items` (sorted by key). `partition`
    /// places the local trees of the designs that have them; the
    /// fine-grained design ignores it.
    pub fn build(
        kind: IndexKind,
        nam: &NamCluster,
        cfg: FgConfig,
        partition: PartitionMap,
        items: impl Iterator<Item = (Key, Value)>,
    ) -> Design {
        match kind {
            IndexKind::CoarseGrained => Design::Cg(CoarseGrained::build(
                nam, cfg.layout, partition, items, cfg.fill,
            )),
            IndexKind::FineGrained => Design::Fg(FineGrained::build(&nam.rdma, cfg, items)),
            IndexKind::Hybrid => Design::Hybrid(Hybrid::build(nam, cfg, partition, items)),
            IndexKind::Learned => Design::Learned(Learned::build(nam, cfg, partition, items)),
        }
    }

    /// Which of the four designs this is.
    pub fn kind(&self) -> IndexKind {
        match self {
            Design::Cg(_) => IndexKind::CoarseGrained,
            Design::Fg(_) => IndexKind::FineGrained,
            Design::Hybrid(_) => IndexKind::Hybrid,
            Design::Learned(_) => IndexKind::Learned,
        }
    }

    /// The index itself: its parts, and single-attempt operations.
    pub fn index(&self) -> &Rc<Index> {
        let (Design::Cg(idx) | Design::Fg(idx) | Design::Hybrid(idx) | Design::Learned(idx)) = self;
        idx
    }

    /// Aggregate client-cache statistics, if the index has a cache
    /// (`None` for CG, Learned — whose client-resident state is the
    /// model, see [`Design::learned_stats`] — and uncached builds).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.index().cache().map(CacheLayer::stats)
    }

    /// Counters of the model router, if the index has one.
    pub fn learned_stats(&self) -> Option<LearnedStats> {
        self.index().router().map(Router::stats)
    }

    /// Design name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink::PageLayout;
    use simnet::SimDur;

    #[test]
    fn deploy_matches_spec() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::with_memory_servers(6));
        assert_eq!(nam.num_servers(), 6);
    }

    #[test]
    fn retries_ride_out_a_server_restart() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), 1000 * 8);
        let idx = Design::Cg(CoarseGrained::build(
            &nam,
            PageLayout::default(),
            partition,
            (0..1000u64).map(|i| (i * 8, i)),
            0.7,
        ));
        let cluster = nam.rdma.clone();
        let ep = Endpoint::new(&cluster);
        // Key 10 lives on server 0; crash it now, restart it later.
        cluster.fail_server(0);
        {
            let cluster = cluster.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDur::from_micros(100)).await;
                cluster.restart_server(0);
            });
        }
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            sim.spawn(async move {
                got.set(Some(idx.lookup(&ep, 10 * 8).await));
            });
        }
        sim.run();
        assert_eq!(got.get(), Some(Ok(Some(10))));
        assert!(
            cluster.fault_stats().verbs_unreachable >= 1,
            "at least one attempt must have hit the dead server"
        );
    }

    #[test]
    fn retries_exhaust_when_the_server_stays_dead() {
        let sim = Sim::new();
        let nam = NamCluster::new(&sim, ClusterSpec::default());
        let partition = PartitionMap::range_uniform(nam.num_servers(), 1000 * 8);
        let idx = Design::Cg(CoarseGrained::build(
            &nam,
            PageLayout::default(),
            partition,
            (0..1000u64).map(|i| (i * 8, i)),
            0.7,
        ));
        let cluster = nam.rdma.clone();
        let ep = Endpoint::new(&cluster);
        cluster.fail_server(0);
        let got = Rc::new(Cell::new(None));
        {
            let got = got.clone();
            sim.spawn(async move {
                got.set(Some(idx.lookup(&ep, 10 * 8).await));
            });
        }
        sim.run();
        let limit = rdma_sim::spec::RETRY_LIMIT;
        assert_eq!(
            got.get(),
            Some(Err(OpError::RetriesExhausted {
                attempts: limit + 1,
                last: VerbError::ServerUnreachable { server: 0 },
            }))
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        // Two identical runs of the exhaust scenario end at the same
        // virtual instant: jitter comes from the DES state only.
        let end_time = |_: u32| {
            let sim = Sim::new();
            let nam = NamCluster::new(&sim, ClusterSpec::default());
            let partition = PartitionMap::range_uniform(nam.num_servers(), 100 * 8);
            let idx = Design::Cg(CoarseGrained::build(
                &nam,
                PageLayout::default(),
                partition,
                (0..100u64).map(|i| (i * 8, i)),
                0.7,
            ));
            let cluster = nam.rdma.clone();
            let ep = Endpoint::new(&cluster);
            cluster.fail_server(0);
            sim.spawn(async move {
                let _ = idx.lookup(&ep, 8).await;
            });
            sim.run();
            sim.now().as_nanos()
        };
        let a = end_time(0);
        let b = end_time(1);
        assert_eq!(a, b, "retry schedule must be deterministic");
        // Bounded: 16 retries capped at 256us each (plus jitter <= delay)
        // cannot exceed ~10ms.
        assert!(a < 10_000_000, "backoff ran away: {a}ns");
    }
}
