#![forbid(unsafe_code)]

//! # chaos — deterministic fault injection for the simulated NAM cluster
//!
//! A [`FaultPlan`] is a seed-deterministic schedule of fault events —
//! client kills/revivals, memory-server crashes/restarts, link
//! degradation windows, and armed kill-on-lock-acquire triggers. Plans
//! are either *scripted* (explicit `(time, event)` pairs) or
//! *randomized* (a [`RandomProfile`] materialized up-front from a seed
//! via [`simnet::rng::DetRng`]); either way the schedule is fully
//! decided before the simulation runs, so the same seed always produces
//! the same fault sequence at the same virtual instants — no wall clock
//! anywhere.
//!
//! [`ChaosController::install`] arms the plan on a cluster: a driver
//! task sleeps to each event's instant and applies it through the
//! cluster's fault API (`kill_client`, `fail_server`, `degrade_link`,
//! ...), then puts it on the cluster's observer bus as a labelled
//! instant (`VerbObserver::on_instant`) — the one channel through which
//! listeners (telemetry traces, tests, examples) learn of faults.
//! Clients learn of a memory server's recovery from
//! `Cluster::restart_epoch`, which moves at recovery completion: the
//! restart instant under `Durability::Off`, after checkpoint + log
//! replay under `Durability::Wal`.
//!
//! Recovery *policy* lives elsewhere: the verb layer surfaces failures
//! as [`crate::VerbError`], `namdex-core::Design` retries with bounded
//! backoff, and the lease encoding in `blink::layout::lock_word` lets a
//! contender break locks orphaned by killed clients.

use std::cell::Cell;
use std::rc::Rc;

use crate::{Cluster, LinkDegrade};
use simnet::rng::DetRng;
use simnet::{Sim, SimDur, SimTime};

/// One fault to apply at a scheduled virtual instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Kill compute client `0`'s endpoint: every verb it issues from now
    /// on fails with `VerbError::Cancelled`. Verbs already in flight
    /// still take effect remotely (the NIC does not recall messages) —
    /// which is exactly how a client dies between its lock CAS and its
    /// unlock FAA.
    KillClient(u64),
    /// Revive a killed client; its worker may resume issuing verbs.
    ReviveClient(u64),
    /// Crash a memory server: its registered regions are unreachable
    /// (verbs fail with `VerbError::ServerUnreachable`) until restart.
    CrashServer(usize),
    /// Restart a crashed server. What survives depends on the cluster's
    /// `Durability` mode: under `Off` memory contents magically survive
    /// and the server is healthy the same instant; under `Wal` the crash
    /// wiped RAM, so the restart boots, streams the latest checkpoint
    /// plus log tail from the server's simulated NVMe device, replays,
    /// and only then reports healthy. Either way the restart bumps the
    /// server's restart counter and `Cluster::restart_epoch` at recovery
    /// *completion*, not at the restart command.
    RestartServer(usize),
    /// Begin a degradation window on one server's link: probabilistic
    /// verb drops, added delay, and/or reduced NIC bandwidth.
    DegradeLink(usize, LinkDegrade),
    /// End the degradation window on a server's link.
    RestoreLink(usize),
    /// Arm a one-shot trigger: the client dies at the exact instant its
    /// next lock-acquire CAS succeeds — *between* the CAS and the unlock
    /// FAA, the worst instant for lock-based protocols.
    KillOnNextLockAcquire(u64),
}

/// Profile for randomized plan generation: how many faults of each
/// class to scatter over the horizon.
#[derive(Clone, Copy, Debug)]
pub struct RandomProfile {
    /// Events are scheduled in `[0, horizon)` (recovery counterparts may
    /// land past the horizon).
    pub horizon: SimDur,
    /// Crash/restart pairs to schedule on random servers.
    pub server_crashes: u32,
    /// Downtime between each crash and its restart.
    pub server_downtime: SimDur,
    /// Kill/revive pairs to schedule on random clients.
    pub client_kills: u32,
    /// Downtime between each kill and its revival.
    pub client_downtime: SimDur,
    /// Degrade/restore pairs to schedule on random links.
    pub degrade_spikes: u32,
    /// Degradation applied during each spike.
    pub degrade: LinkDegrade,
    /// Length of each degradation window.
    pub degrade_duration: SimDur,
}

impl Default for RandomProfile {
    fn default() -> Self {
        RandomProfile {
            horizon: SimDur::from_millis(20),
            server_crashes: 1,
            server_downtime: SimDur::from_millis(2),
            client_kills: 2,
            client_downtime: SimDur::from_millis(1),
            degrade_spikes: 1,
            degrade: LinkDegrade {
                drop_chance: 0.05,
                extra_delay: SimDur::from_micros(10),
                bandwidth_factor: 0.5,
            },
            degrade_duration: SimDur::from_millis(2),
        }
    }
}

/// A seed-deterministic schedule of fault events.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
    seed: u64,
}

impl FaultPlan {
    /// Empty plan (no faults). Installing it still seeds the cluster's
    /// fault RNG with `seed` 0 for drop rolls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty plan whose link-degradation drop rolls draw from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            events: Vec::new(),
            seed,
        }
    }

    /// Schedule `event` at virtual instant `at`.
    pub fn at(mut self, at: SimTime, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Schedule a client kill.
    pub fn kill_client(self, at: SimTime, client: u64) -> Self {
        self.at(at, FaultEvent::KillClient(client))
    }

    /// Schedule a client revival.
    pub fn revive_client(self, at: SimTime, client: u64) -> Self {
        self.at(at, FaultEvent::ReviveClient(client))
    }

    /// Schedule a memory-server crash.
    pub fn crash_server(self, at: SimTime, server: usize) -> Self {
        self.at(at, FaultEvent::CrashServer(server))
    }

    /// Schedule a memory-server restart.
    pub fn restart_server(self, at: SimTime, server: usize) -> Self {
        self.at(at, FaultEvent::RestartServer(server))
    }

    /// Schedule the start of a link-degradation window.
    pub fn degrade_link(self, at: SimTime, server: usize, degrade: LinkDegrade) -> Self {
        self.at(at, FaultEvent::DegradeLink(server, degrade))
    }

    /// Schedule the end of a link-degradation window.
    pub fn restore_link(self, at: SimTime, server: usize) -> Self {
        self.at(at, FaultEvent::RestoreLink(server))
    }

    /// Arm the kill-on-next-lock-acquire trigger for `client` at `at`.
    pub fn kill_on_lock_acquire(self, at: SimTime, client: u64) -> Self {
        self.at(at, FaultEvent::KillOnNextLockAcquire(client))
    }

    /// Generate a randomized plan: fault times and targets are drawn
    /// from a [`DetRng`] seeded with `seed`, so the schedule is a pure
    /// function of `(seed, servers, clients, profile)`. The whole
    /// schedule is materialized here, before any simulation runs.
    pub fn randomized(seed: u64, servers: usize, clients: u64, profile: RandomProfile) -> Self {
        assert!(servers > 0, "randomized plan needs at least one server");
        let mut rng = DetRng::seed_from_u64(seed);
        let horizon = profile.horizon.as_nanos().max(1);
        let mut plan = FaultPlan::with_seed(seed);
        for _ in 0..profile.server_crashes {
            let t = SimTime::from_nanos(rng.next_u64_below(horizon));
            let s = rng.next_u64_below(servers as u64) as usize;
            plan = plan
                .crash_server(t, s)
                .restart_server(t + profile.server_downtime, s);
        }
        if clients > 0 {
            for _ in 0..profile.client_kills {
                let t = SimTime::from_nanos(rng.next_u64_below(horizon));
                let c = rng.next_u64_below(clients);
                plan = plan
                    .kill_client(t, c)
                    .revive_client(t + profile.client_downtime, c);
            }
        }
        for _ in 0..profile.degrade_spikes {
            let t = SimTime::from_nanos(rng.next_u64_below(horizon));
            let s = rng.next_u64_below(servers as u64) as usize;
            plan = plan
                .degrade_link(t, s, profile.degrade)
                .restore_link(t + profile.degrade_duration, s);
        }
        plan
    }

    /// The scheduled events, unsorted (installation sorts them stably by
    /// time, preserving insertion order within an instant).
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// The seed the cluster's fault RNG (drop rolls) is set to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Stable label for a fault event, used for trace instants.
fn fault_label(ev: &FaultEvent) -> String {
    match *ev {
        FaultEvent::KillClient(c) => format!("kill_client({c})"),
        FaultEvent::ReviveClient(c) => format!("revive_client({c})"),
        FaultEvent::CrashServer(s) => format!("crash_server({s})"),
        FaultEvent::RestartServer(s) => format!("restart_server({s})"),
        FaultEvent::DegradeLink(s, _) => format!("degrade_link({s})"),
        FaultEvent::RestoreLink(s) => format!("restore_link({s})"),
        FaultEvent::KillOnNextLockAcquire(c) => format!("arm_lock_kill({c})"),
    }
}

/// Drives a [`FaultPlan`] against a cluster from inside the simulation.
#[derive(Clone)]
pub struct ChaosController {
    cluster: Cluster,
    done: Rc<Cell<bool>>,
}

impl ChaosController {
    /// Install `plan` on `cluster`: seed the fault RNG and spawn the
    /// driver task that applies each event at its instant.
    pub fn install(sim: &Sim, cluster: &Cluster, plan: FaultPlan) -> Self {
        cluster.set_fault_seed(plan.seed);
        let controller = ChaosController {
            cluster: cluster.clone(),
            done: Rc::new(Cell::new(plan.events.is_empty())),
        };
        let mut events = plan.events;
        events.sort_by_key(|&(t, _)| t);
        if !events.is_empty() {
            let driver = controller.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                for (t, ev) in events {
                    sim2.sleep_until(t).await;
                    driver.apply(&ev);
                }
                driver.done.set(true);
            });
        }
        controller
    }

    fn apply(&self, ev: &FaultEvent) {
        match *ev {
            FaultEvent::KillClient(c) => self.cluster.kill_client(c),
            FaultEvent::ReviveClient(c) => self.cluster.revive_client(c),
            FaultEvent::CrashServer(s) => self.cluster.fail_server(s),
            FaultEvent::RestartServer(s) => self.cluster.restart_server(s),
            FaultEvent::DegradeLink(s, d) => self.cluster.degrade_link(s, d),
            FaultEvent::RestoreLink(s) => self.cluster.restore_link(s),
            FaultEvent::KillOnNextLockAcquire(c) => self.cluster.arm_kill_on_lock_acquire(c),
        }
        if self.cluster.has_observers() {
            self.cluster.note_instant(&fault_label(ev));
        }
    }

    /// Whether every scheduled event has been applied.
    pub fn done(&self) -> bool {
        self.done.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Durability, Endpoint, VerbError, VerbEvent, VerbObserver};
    use blink::layout::lock_word;
    use std::cell::RefCell;

    /// Records every labelled instant the bus carries, with its time.
    #[derive(Default)]
    struct Instants(RefCell<Vec<(u64, String)>>);

    impl VerbObserver for Instants {
        fn on_verb(&self, _ev: &VerbEvent) {}
        fn on_instant(&self, label: &str, time: SimTime) {
            self.0
                .borrow_mut()
                .push((time.as_nanos(), label.to_owned()));
        }
    }

    #[test]
    fn scripted_plan_applies_in_order() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let plan = FaultPlan::new()
            .crash_server(SimTime::from_micros(10), 1)
            .restart_server(SimTime::from_micros(30), 1)
            .kill_client(SimTime::from_micros(20), 0);
        let ctrl = ChaosController::install(&sim, &cluster, plan);
        let seen = Rc::new(Instants::default());
        cluster.add_observer(seen.clone());
        sim.run();
        let expect = [
            (10_000, FaultEvent::CrashServer(1)),
            (20_000, FaultEvent::KillClient(0)),
            (30_000, FaultEvent::RestartServer(1)),
        ];
        let expect: Vec<_> = expect.iter().map(|(t, ev)| (*t, fault_label(ev))).collect();
        assert_eq!(*seen.0.borrow(), expect);
        assert!(ctrl.done());
        assert!(cluster.server_up(1));
        assert_eq!(cluster.restart_epoch(), 1);
    }

    #[test]
    fn crash_window_makes_verbs_fail() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = cluster.setup_alloc(0, 64);
        cluster.setup_write(ptr, &[7u8; 64]);
        let plan = FaultPlan::new()
            .crash_server(SimTime::from_micros(5), 0)
            .restart_server(SimTime::from_micros(50), 0);
        ChaosController::install(&sim, &cluster, plan);
        let ep = Endpoint::new(&cluster);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        {
            let outcomes = outcomes.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDur::from_micros(10)).await; // inside the window
                let during = ep.read(ptr, 64).await.is_err();
                outcomes.borrow_mut().push(during);
                sim2.sleep(SimDur::from_micros(60)).await; // after restart
                let after = ep.read(ptr, 64).await.is_err();
                outcomes.borrow_mut().push(after);
            });
        }
        sim.run();
        assert_eq!(*outcomes.borrow(), vec![true, false]);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let make = |seed| {
            FaultPlan::randomized(seed, 4, 8, RandomProfile::default())
                .events()
                .to_vec()
        };
        assert_eq!(make(7), make(7), "same seed, same schedule");
        assert_ne!(make(7), make(8), "different seed, different schedule");
        let plan = FaultPlan::randomized(7, 4, 8, RandomProfile::default());
        // Default profile: 1 crash + 2 kills + 1 spike, each paired with
        // its recovery.
        assert_eq!(plan.events().len(), 8);
    }

    /// The restart epoch at the instant `at`, sampled by a task.
    fn epoch_at(sim: &Sim, cluster: &Cluster, at: SimTime) -> Rc<Cell<u64>> {
        let seen = Rc::new(Cell::new(u64::MAX));
        let (seen2, sim2, cluster) = (seen.clone(), sim.clone(), cluster.clone());
        sim.spawn(async move {
            sim2.sleep_until(at).await;
            seen2.set(cluster.restart_epoch());
        });
        seen
    }

    #[test]
    fn restart_moves_restart_epoch() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let plan = FaultPlan::new()
            .crash_server(SimTime::from_micros(5), 2)
            .restart_server(SimTime::from_micros(15), 2);
        ChaosController::install(&sim, &cluster, plan);
        let down = epoch_at(&sim, &cluster, SimTime::from_micros(10));
        assert_eq!(cluster.restart_epoch(), 0);
        sim.run();
        assert_eq!(down.get(), 0, "a crash alone does not move the epoch");
        assert_eq!(
            cluster.restart_epoch(),
            1,
            "restart invalidates client state"
        );
    }

    #[test]
    fn wal_restart_moves_epoch_only_after_replay() {
        let sim = Sim::new();
        let spec = ClusterSpec {
            durability: Durability::Wal,
            ..ClusterSpec::default()
        };
        let cluster = Cluster::new(&sim, spec);
        let plan = FaultPlan::new()
            .crash_server(SimTime::from_micros(5), 1)
            .restart_server(SimTime::from_micros(15), 1);
        ChaosController::install(&sim, &cluster, plan);
        // Well inside the boot + replay window (2 ms boot).
        let mid = epoch_at(&sim, &cluster, SimTime::from_micros(100));
        sim.run();
        assert_eq!(mid.get(), 0, "no move before recovery completes");
        assert_eq!(cluster.restart_epoch(), 1, "move after replay");
        assert!(cluster.server_up(1));
    }

    #[test]
    fn kill_on_lock_acquire_arms_the_trigger() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::default());
        let ptr = cluster.setup_alloc(0, 64);
        let plan = FaultPlan::new().kill_on_lock_acquire(SimTime::from_nanos(0), 0);
        ChaosController::install(&sim, &cluster, plan);
        let ep = Endpoint::new(&cluster);
        let cluster2 = cluster.clone();
        sim.spawn(async move {
            // An acquire-shaped CAS (0 -> locked) fires the trigger.
            let locked = lock_word::locked_by(0, ep.client_id());
            assert_eq!(ep.cas(ptr, 0, locked).await.unwrap(), 0);
            assert!(cluster2.client_dead(ep.client_id()));
            assert!(matches!(
                ep.fetch_add(ptr, 1).await,
                Err(VerbError::Cancelled)
            ));
        });
        sim.run();
        assert_eq!(cluster.fault_stats().lock_kills_fired, 1);
    }

    #[test]
    fn degrade_window_drops_deterministically() {
        let run = |seed| {
            let sim = Sim::new();
            let cluster = Cluster::new(&sim, ClusterSpec::default());
            let ptr = cluster.setup_alloc(0, 64);
            let plan = FaultPlan::with_seed(seed).degrade_link(
                SimTime::from_nanos(0),
                0,
                LinkDegrade {
                    drop_chance: 0.5,
                    extra_delay: SimDur::ZERO,
                    bandwidth_factor: 1.0,
                },
            );
            ChaosController::install(&sim, &cluster, plan);
            let ep = Endpoint::new(&cluster);
            let fails = Rc::new(Cell::new(0u32));
            {
                let fails = fails.clone();
                sim.spawn(async move {
                    for _ in 0..40 {
                        if ep.read(ptr, 64).await.is_err() {
                            fails.set(fails.get() + 1);
                        }
                    }
                });
            }
            sim.run();
            fails.get()
        };
        let a = run(3);
        assert_eq!(a, run(3), "drop pattern is a function of the seed");
        assert!(a > 5 && a < 35, "~50% drop rate, got {a}/40");
    }
}
