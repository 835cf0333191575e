//! Model-checking scenarios: tiny, fully deterministic concurrent
//! workloads over the four index designs, run under a chosen schedule
//! policy, with every checkable property gathered into a [`RunReport`].
//!
//! ## Workload discipline
//!
//! The linearizability spec ([`crate::lin`]) models each workload key
//! as a live-entry counter with one canonical value, which is only
//! sound if:
//!
//! * every insert of `key` carries `value_of(key)` — so scan rows are
//!   attributable to a key, not a specific insert;
//! * no client ever re-inserts a key it already inserted, and clients
//!   insert from **disjoint offset sets** — so at most one insert of
//!   any `(key, value)` pair is ever issued and the index layer's
//!   value-probe retry absorption is exact;
//! * preloaded keys (offset 0 of every unit) are never inserted or
//!   deleted — they are immutable ballast the scans validate exactly.
//!
//! Deletes and lookups intentionally target *any* workload offset, so
//! clients still contend on the same keys — that cross-client traffic
//! is where interleaving bugs live. Contention concentrates on
//! [`HOT_UNITS`] hot units of the loaded tree so schedules actually
//! collide instead of diffusing over the key space.

use crate::history::{Event, History, OpArgs, OpOutcome};
use crate::lin::{self, CheckStats, LinViolation, Spec};
use crate::policy::{new_trace, Pct, RandomWalk, Replay, SharedTrace};
use blink::PageLayout;
use namdex_core::{Design, FgConfig, IndexKind, Mutation, NamCluster, PartitionMap};
use racecheck::{HeldLock, Racecheck, Violation};
use rdma_sim::chaos::{ChaosController, FaultPlan};
use rdma_sim::{ClusterSpec, Durability, Endpoint, LinkDegrade};
use simnet::rng::DetRng;
use simnet::{FifoPolicy, Sim, SimDur, SimTime};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Loaded units; keys are `unit * 8 + offset`, unit `i` preloaded with
/// `(i * 8, i)`.
pub const LOAD_UNITS: u64 = 64;
/// Units the workload contends on.
pub const HOT_UNITS: std::ops::Range<u64> = 20..24;
/// Page size shared by the tree builds and the checker.
const PAGE_SIZE: usize = 256;

/// Fault regime a scenario runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// No faults: every op completes, delete flags are exact.
    None,
    /// Message-loss window on every link plus a client killed on its
    /// next lock acquire. Under loss the op layer retries, so delete
    /// found-flags become best-effort (see [`crate::lin`]).
    Chaos,
    /// Crash the hot server mid-run under `Durability::Wal` — RAM is
    /// genuinely wiped, then recovered from checkpoint + log replay
    /// while clients retry against it. Every interleaving the schedule
    /// policy picks moves the crash relative to in-flight appends,
    /// flushes and acks, so linearizability is checked *across* a
    /// recovery. Delete found-flags are best-effort (a landed delete's
    /// response can die with the server).
    CrashRecover,
}

impl FaultMode {
    /// Stable lowercase name (file format, reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::None => "nofault",
            FaultMode::Chaos => "chaos",
            FaultMode::CrashRecover => "crash",
        }
    }

    /// Parse [`Self::name`] output.
    pub fn parse(s: &str) -> Option<FaultMode> {
        [FaultMode::None, FaultMode::Chaos, FaultMode::CrashRecover]
            .into_iter()
            .find(|f| f.name() == s)
    }
}

/// A fully pinned workload: `(Scenario, PolicyKind)` names one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Index design under test.
    pub design: IndexKind,
    /// Fault regime.
    pub fault: FaultMode,
    /// Workload seed (op mix and key choices).
    pub seed: u64,
    /// Concurrent clients (at most 3: insert offsets partition 1..=6).
    pub clients: u64,
    /// Sequential ops each client issues.
    pub ops_per_client: u64,
    /// Issue mid-run range scans (forces whole-history linearizability
    /// checking — keep the workload tiny).
    pub with_scans: bool,
    /// Client-side cache capacity handed to the design build (`Some(0)`
    /// = unbounded, `None` = caching off). Cache-coherence bugs (a
    /// cached artifact served against a rebuilt pool) are invisible
    /// without it.
    pub cache_capacity: Option<usize>,
    /// Seeded bug injected for the run (`mutations` builds only).
    pub mutation: Option<Mutation>,
}

impl Scenario {
    /// Standard point-op scenario (per-key checkable).
    pub fn point_ops(design: IndexKind, fault: FaultMode, seed: u64) -> Scenario {
        Scenario {
            design,
            fault,
            seed,
            clients: 3,
            ops_per_client: 12,
            with_scans: false,
            cache_capacity: None,
            mutation: None,
        }
    }

    /// Tiny scenario with concurrent scans (whole-history checking).
    pub fn with_scans(design: IndexKind, fault: FaultMode, seed: u64) -> Scenario {
        Scenario {
            design,
            fault,
            seed,
            clients: 2,
            ops_per_client: 5,
            with_scans: true,
            cache_capacity: None,
            mutation: None,
        }
    }

    /// Same scenario with the client-side cache enabled (`Some(0)` =
    /// unbounded).
    pub fn with_cache(mut self, capacity: Option<usize>) -> Scenario {
        self.cache_capacity = capacity;
        self
    }
}

/// Schedule policy to install for a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// No policy installed: the executor's raw FIFO path (baseline).
    Uncontrolled,
    /// Explicit [`FifoPolicy`] — must be bit-identical to
    /// [`PolicyKind::Uncontrolled`].
    Fifo,
    /// Uniform random walk with its own seed.
    RandomWalk {
        /// Schedule seed (independent of the workload seed).
        seed: u64,
    },
    /// PCT priority scheduling.
    Pct {
        /// Schedule seed.
        seed: u64,
        /// Bug depth `d` (`d - 1` priority change points).
        depth: u32,
    },
    /// Replay a recorded decision list (counterexamples, DFS prefixes).
    Replay {
        /// Choice-point decisions, in order.
        decisions: Vec<u32>,
    },
}

/// Everything observed in one run.
#[derive(Debug)]
pub struct RunReport {
    /// Linearizability verdict over the recorded history.
    pub lin: Result<CheckStats, LinViolation>,
    /// Dynamic-checker findings: protocol rules (unlocked writes,
    /// version tampering, ...) and happens-before rules (unvalidated
    /// optimistic reads, write-write races, stale-epoch cached uses),
    /// told apart by [`Violation::rule`].
    pub violations: Vec<Violation>,
    /// Locks still held at quiescence by *live* clients (dead owners
    /// are excused under [`FaultMode::Chaos`] — lease recovery frees
    /// them lazily on next touch).
    pub held_leaks: Vec<HeldLock>,
    /// Lock guards dropped undischarged during the run
    /// ([`namdex_core::abandoned_guards`], read before the sim is torn
    /// down) — must be 0.
    pub abandoned_guards: u64,
    /// Tasks still live after the sim drained — must be 0.
    pub task_leak: usize,
    /// Virtual end time of the run, nanoseconds.
    pub end_nanos: u64,
    /// Order-insensitive-free digest of the completed history (event
    /// order, args, outcomes, timestamps).
    pub history_digest: u64,
    /// Digest of the decision trace.
    pub schedule_digest: u64,
    /// The decision trace itself (replayable).
    pub decisions: Vec<u32>,
    /// Full `(candidate count, chosen index)` record per choice point —
    /// what DFS enumeration needs to know where a successor exists.
    pub trace_counts: Vec<(u32, u32)>,
    /// Completed + pending events recorded.
    pub events: usize,
    /// Completed crash/recovery cycles (non-zero only under
    /// [`FaultMode::CrashRecover`]).
    pub recoveries: usize,
}

impl RunReport {
    /// No violation of any checked property.
    pub fn clean(&self) -> bool {
        self.lin.is_ok()
            && self.violations.is_empty()
            && self.held_leaks.is_empty()
            && self.abandoned_guards == 0
            && self.task_leak == 0
    }
}

/// FNV-1a over a stream of u64 words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// Fresh digest (FNV offset basis).
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Final value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

fn digest_history(events: &[Event]) -> u64 {
    let mut d = Digest::new();
    for ev in events {
        d.word(ev.client);
        match ev.args {
            OpArgs::Lookup { key } => {
                d.word(1);
                d.word(key);
            }
            OpArgs::Range { lo, hi } => {
                d.word(2);
                d.word(lo);
                d.word(hi);
            }
            OpArgs::Insert { key, value } => {
                d.word(3);
                d.word(key);
                d.word(value);
            }
            OpArgs::Delete { key } => {
                d.word(4);
                d.word(key);
            }
        }
        match &ev.outcome {
            OpOutcome::Lookup(v) => {
                d.word(10);
                d.word(v.map_or(u64::MAX, |v| v));
            }
            OpOutcome::Range(rows) => {
                d.word(11);
                d.word(rows.len() as u64);
                for &(k, v) in rows {
                    d.word(k);
                    d.word(v);
                }
            }
            OpOutcome::Insert => d.word(12),
            OpOutcome::Delete(f) => d.word(13 + *f as u64),
            OpOutcome::Failed => d.word(15),
        }
        d.word(ev.invoke.as_nanos());
        d.word(ev.response.as_nanos());
    }
    d.finish()
}

/// Digest of a decision trace.
pub fn digest_decisions(decisions: &[u32]) -> u64 {
    let mut d = Digest::new();
    for &c in decisions {
        d.word(c as u64);
    }
    d.finish()
}

/// Canonical value every insert of `key` carries.
pub fn value_of(key: u64) -> u64 {
    key ^ 0xABCD
}

fn build(sc: &Scenario, nam: &NamCluster) -> Design {
    let items = (0..LOAD_UNITS).map(|i| (i * 8, i));
    let partition = PartitionMap::range_uniform(nam.num_servers(), LOAD_UNITS * 8);
    let cfg = FgConfig {
        layout: PageLayout::new(PAGE_SIZE),
        fill: 0.7,
        scan_batch: 4,
        cache_capacity: sc.cache_capacity,
    };
    Design::build(sc.design, nam, cfg, partition, items)
}

/// One client's sequential op stream, each op recorded into `history`.
/// Insert keys come from the client's private offsets (`2c + 1`,
/// `2c + 2`); deletes and lookups hit any workload offset of the hot
/// units, so clients contend.
async fn client_loop(idx: Design, ep: Endpoint, c: u64, sc: Scenario, history: Rc<History>) {
    let (sim, client) = (ep.cluster().sim(), ep.client_id());
    let lookup = |key| {
        let op = idx.lookup(&ep, key);
        history.record(sim, client, OpArgs::Lookup { key }, op, |v| {
            OpOutcome::Lookup(*v)
        })
    };
    let mut rng = DetRng::seed_from_u64(sc.seed ^ (0x5CE_A127 + c));
    let my_offsets = [2 * c + 1, 2 * c + 2];
    let hot_span = HOT_UNITS.end - HOT_UNITS.start;
    let max_offset = 2 * sc.clients;
    let mut inserted: BTreeSet<u64> = BTreeSet::new();
    for _ in 0..sc.ops_per_client {
        let unit = HOT_UNITS.start + rng.next_u64_below(hot_span);
        let roll = rng.next_u64_below(100);
        let scan_cut = if sc.with_scans { 20 } else { 0 };
        if roll < scan_cut {
            let lo = HOT_UNITS.start * 8;
            let hi = HOT_UNITS.end * 8 - 1;
            let (args, op) = (OpArgs::Range { lo, hi }, idx.range(&ep, lo, hi));
            let rows = |r: &Vec<_>| OpOutcome::Range(r.clone());
            let _ = history.record(sim, client, args, op, rows).await;
        } else if roll < scan_cut + 40 {
            // Insert a fresh key from this client's private offsets.
            let key = unit * 8 + my_offsets[rng.next_u64_below(2) as usize];
            if inserted.insert(key) {
                let value = value_of(key);
                let (args, op) = (OpArgs::Insert { key, value }, idx.insert(&ep, key, value));
                let _ = history
                    .record(sim, client, args, op, |()| OpOutcome::Insert)
                    .await;
            } else {
                // Key already used: read it instead (keeps op count).
                let _ = lookup(key).await;
            }
        } else if roll < scan_cut + 65 {
            // Delete any workload key of the hot units — including
            // other clients' inserts (contention), never offset 0.
            let key = unit * 8 + 1 + rng.next_u64_below(max_offset);
            let (args, op) = (OpArgs::Delete { key }, idx.delete(&ep, key));
            let _ = history
                .record(sim, client, args, op, |&f| OpOutcome::Delete(f))
                .await;
        } else {
            // Lookup any key of the unit, loaded key included.
            let key = unit * 8 + rng.next_u64_below(max_offset + 1);
            let _ = lookup(key).await;
        }
    }
}

fn chaos_plan(victim: u64, servers: usize, seed: u64) -> FaultPlan {
    // A message-loss window across every link while the workload is in
    // full flight (drops hit request and response legs alike, so
    // landed-but-unacknowledged ops retry), then a client killed on its
    // next lock acquire once links heal. The plan seed drives the
    // cluster's drop-roll RNG — without it every run would share drop
    // seed 0 and the matrix would resample one drop pattern forever.
    let mut plan = FaultPlan::with_seed(seed);
    for s in 0..servers {
        plan = plan.degrade_link(
            SimTime::from_micros(3),
            s,
            LinkDegrade {
                drop_chance: 0.25,
                extra_delay: SimDur::ZERO,
                bandwidth_factor: 1.0,
            },
        );
        plan = plan.restore_link(SimTime::from_micros(120), s);
    }
    plan.kill_on_lock_acquire(SimTime::from_micros(130), victim)
}

/// Hot server under the scenario partition: [`HOT_UNITS`] maps to keys
/// 160..192, which land on server 1 of the uniform 4-way range split
/// over `LOAD_UNITS * 8` keys.
const CRASH_SERVER: usize = 1;

fn crash_plan(seed: u64) -> FaultPlan {
    // Crash the hot server while every client has ops in flight, bring
    // it back while they are still retrying. With the 30us boot the
    // recovery (boot + checkpoint/log stream + replay) completes well
    // inside the op layer's retry budget, so the workload rides it out.
    FaultPlan::with_seed(seed)
        .crash_server(SimTime::from_micros(20), CRASH_SERVER)
        .restart_server(SimTime::from_micros(45), CRASH_SERVER)
}

/// Run `sc` under `policy`, with its mutation injected, returning the
/// full report.
pub fn run_scenario(sc: &Scenario, policy: &PolicyKind) -> RunReport {
    assert!(
        (1..=3).contains(&sc.clients),
        "insert-offset partitioning supports 1..=3 clients"
    );
    let _mutation = sc.mutation.map(Mutation::inject);
    let abandoned_before = namdex_core::abandoned_guards();
    let sim = Sim::new();
    let trace: SharedTrace = new_trace();
    match policy {
        PolicyKind::Uncontrolled => {}
        PolicyKind::Fifo => sim.set_schedule_policy(Box::new(FifoPolicy)),
        PolicyKind::RandomWalk { seed } => {
            sim.set_schedule_policy(Box::new(RandomWalk::new(*seed, trace.clone())))
        }
        PolicyKind::Pct { seed, depth } => {
            // est_len sized to the observed choice-point counts of
            // these workloads (hundreds), so change points land mid-run.
            sim.set_schedule_policy(Box::new(Pct::new(*seed, *depth, 400, trace.clone())))
        }
        PolicyKind::Replay { decisions } => {
            sim.set_schedule_policy(Box::new(Replay::new(decisions.clone(), trace.clone())))
        }
    }

    let spec = match sc.fault {
        // Crash/recovery only means anything when RAM loss is real:
        // under Wal the restarted server replays checkpoint + log
        // before reporting healthy. The short boot keeps recovery
        // inside the op layer's bounded retry budget.
        FaultMode::CrashRecover => ClusterSpec {
            durability: Durability::Wal,
            wal_restart_boot_latency: SimDur::from_micros(30),
            ..ClusterSpec::default()
        },
        _ => ClusterSpec::default(),
    };
    let nam = NamCluster::new(&sim, spec);
    let idx = build(sc, &nam);
    let history = Rc::new(History::default());
    let race = Racecheck::install(&nam.rdma, PAGE_SIZE);
    racecheck::walk::register_design(&race, &idx);

    let eps: Vec<Endpoint> = (0..sc.clients).map(|_| Endpoint::new(&nam.rdma)).collect();
    match sc.fault {
        FaultMode::None => {}
        FaultMode::Chaos => {
            let victim = eps[sc.clients as usize - 1].client_id();
            ChaosController::install(
                &sim,
                &nam.rdma,
                chaos_plan(victim, nam.num_servers(), sc.seed),
            );
        }
        FaultMode::CrashRecover => {
            ChaosController::install(&sim, &nam.rdma, crash_plan(sc.seed));
        }
    }
    for (c, ep) in eps.into_iter().enumerate() {
        sim.spawn(client_loop(
            idx.clone(),
            ep,
            c as u64,
            sc.clone(),
            history.clone(),
        ));
    }
    sim.run();

    // Quiescent verification scan on a fresh endpoint: its full-range
    // rows become per-key count observations for the checker, and its
    // traversal reclaims any lease-expired lock left by a killed client
    // (which is what lets the checker judge the reclaim CAS).
    let ep = Endpoint::new(&nam.rdma);
    let (idx2, history2) = (idx.clone(), history.clone());
    sim.spawn(async move {
        let (lo, hi, client) = (0, u64::MAX - 1, ep.client_id());
        let (args, op) = (OpArgs::Range { lo, hi }, idx2.range(&ep, lo, hi));
        let rows = |r: &Vec<_>| OpOutcome::Range(r.clone());
        let scan = history2.record(ep.cluster().sim(), client, args, op, rows);
        scan.await.expect("final scan");
    });
    let end = sim.run();

    // Quiescence leak checks: every task drained, and no tracked lock
    // still held by a live owner. (A dead owner's lock is legal under
    // chaos — lease recovery frees it on next touch — but with no
    // faults every client is live, so any residue is a leak.)
    let task_leak = sim.live_tasks();
    let held_leaks: Vec<HeldLock> = race
        .held_locks()
        .into_iter()
        .filter(|l| !nam.rdma.client_dead(l.owner))
        .collect();

    let events = history.history();
    let spec = Spec {
        loaded: (0..LOAD_UNITS).map(|i| (i * 8, i)).collect(),
        value_of,
        strict_delete_flag: sc.fault == FaultMode::None,
    };
    let lin = lin::check(&events, &spec);
    let trace_counts: Vec<(u32, u32)> = trace.borrow().clone();
    let decisions: Vec<u32> = trace_counts.iter().map(|&(_, c)| c).collect();
    RunReport {
        lin,
        violations: race.violations(),
        held_leaks,
        abandoned_guards: namdex_core::abandoned_guards() - abandoned_before,
        task_leak,
        end_nanos: end.as_nanos(),
        history_digest: digest_history(&events),
        schedule_digest: digest_decisions(&decisions),
        decisions,
        trace_counts,
        events: events.len(),
        recoveries: nam.rdma.recovery_records().len(),
    }
}
