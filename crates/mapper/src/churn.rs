//! Continuous mapping under churn (ROADMAP "streaming dynamic
//! workloads"): a [`ChurnController`] ingests a stream of typed events —
//! task arrival/departure (the `dynamic.rs` spawning model made
//! streaming), per-task load drift, and link/processor fault *and
//! recovery* — and maintains the **always-valid invariant**: after every
//! accepted event the task→processor assignment is valid on the current
//! degraded network, and a rejected event leaves the controller exactly
//! as it was, with a typed [`ChurnError`]. Never a panic, never a stale
//! mapping.
//!
//! Remapping is *not* free — a migration moves `state_volume × hops`
//! units of checkpointed task state (the `remap` cost model) — so
//! voluntary moves go through a hysteresis policy: per-task communication
//! cost is EWMA-smoothed (integer arithmetic, deterministic), a task may
//! only migrate when the smoothed gain exceeds its migration cost, never
//! twice within a debounce window, and never more than a configured cap
//! of migrations per window of events. Adversarial flap storms (fault →
//! recover → fault on the same link) therefore cannot thrash migrations:
//! the EWMA damps the transient and the debounce/cap bound the damage.
//! Candidate moves that survive the cheap screen are confirmed with an
//! exact [`MetricsEngine`] probe (`apply` the reassignment, compare
//! scalar cost, `undo` if it did not pay).
//!
//! Faults are handled locally first — stranded tasks migrate to the
//! nearest surviving processor with room — and escalate to
//! [`repair_mapping_cached`] only when local moves cannot restore an
//! acceptable mapping (no feasible placement, or post-fault communication
//! cost blowing past the escalation threshold). Probes and escalated
//! repairs run under a fixed `probe_steps` step quota from the config, so
//! a hung repair degrades gracefully instead of stalling the stream.
//!
//! Determinism contract: every decision is a pure function of the
//! accepted-event prefix and the [`ChurnConfig`] (event-count debounce
//! windows, integer EWMA, step-quota probe budgets). The caller-supplied
//! [`Budget`] is purely an *admission gate*: it is polled once before an
//! event is applied (a tripped budget rejects the event typed, and
//! rejected events are never journaled), and is deliberately **not**
//! threaded into probes or escalated repairs — a wall-clock deadline
//! there would make an accepted event's outcome nondeterministic and
//! break byte-identical journal replay. Replaying a journal of accepted
//! events therefore reproduces the controller state byte-identically
//! under *any* replay budget — the property the crash-safe stream resume
//! and the proptests in `tests/prop_churn.rs` assert.

use crate::budget::{Budget, Completion};
use crate::mapping::Mapping;
use crate::metrics_engine::{CostModel, Edit, EditError, MetricsEngine};
use crate::repair::{repair_mapping_cached, RepairError, RepairOptions};
use crate::routing::{route_all_phases, Matcher};
use oregami_graph::task_graph::Cost;
use oregami_graph::{TaskGraph, TaskId, TaskNode};
use oregami_topology::{
    DegradedNetwork, FaultSet, LinkId, Network, ProcId, RouteTable, RouteTableCache, TopologyError,
};
use std::collections::BTreeSet;
use std::fmt;

/// One event in a churn stream.
///
/// `Spawn.task` must be the next dense task id (`num_tasks()`): streams
/// are replayable logs, so ids are assigned by position, not negotiated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A task arrives, optionally spawned by a live parent it will
    /// exchange `volume` units with per phase execution.
    Spawn {
        /// Dense id of the new task (must equal the current task count).
        task: usize,
        /// Spawning task, if any (roots have none).
        parent: Option<usize>,
        /// Initial compute load estimate.
        load: u64,
        /// Communication volume on the spawn edge (0 = no edge).
        volume: u64,
    },
    /// A task finishes and leaves the computation.
    Depart {
        /// The departing task.
        task: usize,
    },
    /// A task's compute load estimate drifts to a new value.
    Load {
        /// The task whose load changed.
        task: usize,
        /// The new load estimate.
        load: u64,
    },
    /// Processors and/or links fail (cumulative with earlier faults).
    Fault {
        /// Newly failed processors.
        procs: Vec<ProcId>,
        /// Newly failed links.
        links: Vec<LinkId>,
    },
    /// Previously failed processors and/or links come back.
    Recover {
        /// Recovering processors.
        procs: Vec<ProcId>,
        /// Recovering links.
        links: Vec<LinkId>,
    },
}

impl ChurnEvent {
    /// Short tag for logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            ChurnEvent::Spawn { .. } => "spawn",
            ChurnEvent::Depart { .. } => "depart",
            ChurnEvent::Load { .. } => "load",
            ChurnEvent::Fault { .. } => "fault",
            ChurnEvent::Recover { .. } => "recover",
        }
    }
}

/// Hysteresis and budget knobs for a [`ChurnController`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Max live tasks per alive processor.
    pub load_bound: usize,
    /// Units of task state a migration moves per hop (the `remap` cost
    /// model's `state_volume`).
    pub state_volume: u64,
    /// EWMA smoothing: `α = 1 / 2^ewma_shift`. Larger = smoother = more
    /// hysteresis.
    pub ewma_shift: u32,
    /// A task that migrated voluntarily may not migrate again within
    /// this many accepted events.
    pub debounce_events: u64,
    /// Max voluntary migrations per `window_events` window.
    pub migration_cap: usize,
    /// Length of the migration-cap window, in accepted events.
    pub window_events: u64,
    /// Voluntary-remap decision points run every this many accepted
    /// events (0 disables voluntary migration entirely).
    pub probe_interval: u64,
    /// Step quota for each engine probe and each escalated repair.
    pub probe_steps: u64,
    /// Escalate a fault to full repair when the locally-repaired
    /// communication cost exceeds this percentage of the pre-fault
    /// smoothed cost (0 disables escalation-by-quality; placement
    /// failures still escalate).
    pub escalate_threshold_pct: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            load_bound: 8,
            state_volume: 1,
            ewma_shift: 3,
            debounce_events: 64,
            migration_cap: 4,
            window_events: 256,
            probe_interval: 32,
            probe_steps: 100_000,
            escalate_threshold_pct: 400,
        }
    }
}

impl ChurnConfig {
    /// Canonical single-line record of the config — journaled alongside
    /// the event stream so resume runs under identical hysteresis.
    pub fn to_record(&self) -> String {
        format!(
            "config bound={} sv={} shift={} debounce={} cap={} window={} interval={} steps={} escalate={}",
            self.load_bound,
            self.state_volume,
            self.ewma_shift,
            self.debounce_events,
            self.migration_cap,
            self.window_events,
            self.probe_interval,
            self.probe_steps,
            self.escalate_threshold_pct,
        )
    }

    /// Parses [`ChurnConfig::to_record`] output. Total: malformed input
    /// yields `Err`, never a panic.
    pub fn parse_record(line: &str) -> Result<ChurnConfig, String> {
        let mut toks = line.split_whitespace();
        if toks.next() != Some("config") {
            return Err("config record must start with 'config'".into());
        }
        let mut cfg = ChurnConfig::default();
        for tok in toks {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad config token '{tok}'"))?;
            let n: u64 = val
                .parse()
                .map_err(|_| format!("bad config value '{val}' for '{key}'"))?;
            match key {
                "bound" => cfg.load_bound = n as usize,
                "sv" => cfg.state_volume = n,
                "shift" => cfg.ewma_shift = (n as u32).min(16),
                "debounce" => cfg.debounce_events = n,
                "cap" => cfg.migration_cap = n as usize,
                "window" => cfg.window_events = n.max(1),
                "interval" => cfg.probe_interval = n,
                "steps" => cfg.probe_steps = n,
                "escalate" => cfg.escalate_threshold_pct = n,
                other => return Err(format!("unknown config key '{other}'")),
            }
        }
        if cfg.load_bound == 0 {
            return Err("load bound must be positive".into());
        }
        Ok(cfg)
    }
}

/// Why an event was rejected. A rejected event leaves the controller
/// state untouched — the previous mapping remains valid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// `Spawn.task` is not the next dense id.
    NonDenseSpawn {
        /// The id the event carried.
        task: usize,
        /// The id the controller expected.
        expected: usize,
    },
    /// Depart/Load named a task that does not exist or already departed.
    UnknownTask {
        /// The offending task id.
        task: usize,
    },
    /// A spawn named a parent that does not exist or already departed.
    BadParent {
        /// The spawned task.
        task: usize,
        /// Its claimed parent.
        parent: usize,
    },
    /// No alive processor has room under the load bound.
    NoCapacity {
        /// Live tasks needing placement.
        tasks: usize,
        /// `alive processors × load bound`.
        capacity: usize,
    },
    /// Fault/recover named a processor the network does not have.
    BadProc {
        /// The offending processor.
        proc: ProcId,
    },
    /// Fault/recover named a link the network does not have.
    BadLink {
        /// The offending link.
        link: LinkId,
    },
    /// A recovery named an element that is not currently failed.
    NotFailed {
        /// Human-readable identification of the element.
        what: String,
    },
    /// A fault or recover event named no processors and no links. The
    /// journal grammar cannot represent an empty element list, so
    /// accepting one would brick stream resume.
    Empty {
        /// `"fault"` or `"recover"`.
        kind: &'static str,
    },
    /// The [`ChurnConfig`] is unusable (reported by
    /// [`ChurnController::new`] before any event is ingested).
    Config {
        /// What is wrong with it.
        what: String,
    },
    /// The fault would kill every processor or partition the survivors
    /// (no route table exists for the alive component).
    Topology(TopologyError),
    /// Local moves could not restore validity and the escalated repair
    /// failed too.
    Repair(RepairError),
    /// The caller's budget was cancelled before the event was applied.
    Cancelled,
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::NonDenseSpawn { task, expected } => {
                write!(f, "spawn id {task} is not dense (expected {expected})")
            }
            ChurnError::UnknownTask { task } => {
                write!(f, "task {task} does not exist or has departed")
            }
            ChurnError::BadParent { task, parent } => {
                write!(f, "spawn of task {task}: parent {parent} is not alive")
            }
            ChurnError::NoCapacity { tasks, capacity } => {
                write!(f, "{tasks} live tasks exceed surviving capacity {capacity}")
            }
            ChurnError::BadProc { proc } => write!(f, "no such processor {proc:?}"),
            ChurnError::BadLink { link } => write!(f, "no such link {link:?}"),
            ChurnError::NotFailed { what } => write!(f, "{what} is not failed"),
            ChurnError::Empty { kind } => {
                write!(f, "{kind} event names no processors or links")
            }
            ChurnError::Config { what } => write!(f, "bad config: {what}"),
            ChurnError::Topology(e) => write!(f, "topology: {e}"),
            ChurnError::Repair(e) => write!(f, "repair: {e}"),
            ChurnError::Cancelled => write!(f, "cancelled before the event was applied"),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<TopologyError> for ChurnError {
    fn from(e: TopologyError) -> Self {
        ChurnError::Topology(e)
    }
}

/// What one accepted event did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Tasks forced off dead processors by this event.
    pub forced_migrations: u64,
    /// Tasks moved voluntarily by the hysteresis policy.
    pub voluntary_migrations: u64,
    /// `state_volume × hops` moved by this event's migrations.
    pub migration_traffic: u64,
    /// Whether the event escalated to `repair_mapping_cached`.
    pub escalated: bool,
    /// Engine probes run at this event's decision point.
    pub probes: u64,
    /// Worst completion of any budgeted work this event triggered.
    /// Degradation here always means a step quota ran out — never a
    /// failed repair, which is reported via `repair_failure` instead.
    pub completion: Completion,
    /// Why the escalated repair attempt failed while the locally
    /// repaired mapping stood (`None` when escalation succeeded or never
    /// ran). The mapping is valid either way.
    pub repair_failure: Option<String>,
}

impl Default for ChurnOutcome {
    fn default() -> Self {
        ChurnOutcome {
            forced_migrations: 0,
            voluntary_migrations: 0,
            migration_traffic: 0,
            escalated: false,
            probes: 0,
            completion: Completion::Optimal,
            repair_failure: None,
        }
    }
}

/// Running totals over a controller's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Accepted events.
    pub events: u64,
    /// Rejected events (typed errors; state untouched).
    pub rejected: u64,
    /// Accepted spawn events.
    pub spawns: u64,
    /// Accepted depart events.
    pub departures: u64,
    /// Accepted load-drift events.
    pub load_updates: u64,
    /// Accepted fault events.
    pub faults: u64,
    /// Accepted recovery events.
    pub recoveries: u64,
    /// Tasks migrated off dead processors.
    pub forced_migrations: u64,
    /// Tasks migrated by the hysteresis policy.
    pub voluntary_migrations: u64,
    /// Total `state_volume × hops` of state moved.
    pub migration_traffic: u64,
    /// Engine probes run.
    pub probes: u64,
    /// Probes whose exact delta rejected the candidate move.
    pub probe_rejected: u64,
    /// Fault events escalated to full repair.
    pub escalations: u64,
    /// Events whose budgeted work was cut short by a step quota.
    pub degraded_completions: u64,
    /// Escalated repair attempts that failed (non-budget error) while
    /// the locally repaired mapping stood.
    pub failed_escalations: u64,
    /// Max voluntary migrations observed in any one cap window.
    pub max_window_migrations: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct TaskState {
    alive: bool,
    load: u64,
    parent: Option<usize>,
    proc: ProcId,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct ChurnEdge {
    src: usize,
    dst: usize,
    volume: u64,
}

impl ChurnEdge {
    /// The endpoint that is not `t`.
    fn peer_of(&self, t: usize) -> usize {
        if self.src == t {
            self.dst
        } else {
            self.src
        }
    }
}

/// The streaming remapping controller. See the module docs for the
/// invariant and the hysteresis policy.
pub struct ChurnController {
    net: Network,
    cfg: ChurnConfig,
    healthy_table: RouteTable,
    /// Hierarchical domain map when the net was lowered from a
    /// `MachineModel`; makes escalated repair blast-radius-aware.
    domains: Option<std::sync::Arc<oregami_topology::DomainMap>>,
    tasks: Vec<TaskState>,
    edges: Vec<ChurnEdge>,
    /// `adj[t]` = indices into `edges` of the live edges incident to task
    /// `t` (pruned on depart, so a departed task's list is empty).
    adj: Vec<Vec<usize>>,
    /// Ids of the live tasks, ascending. `tasks`, `ewma` and
    /// `last_migrated` keep a slot for every task ever spawned (the
    /// journal grammar needs dense ids and `state_record` prints them);
    /// every event-path loop walks this index instead.
    live: Vec<usize>,
    /// Indices into `edges` of the live edges, ascending. An edge is
    /// live iff both endpoints are; ids are never reused, so edges only
    /// ever leave.
    live_edges: Vec<usize>,
    failed_procs: BTreeSet<u32>,
    failed_links: BTreeSet<u32>,
    degraded: DegradedNetwork,
    table: RouteTable,
    /// Live tasks per processor.
    load_per_proc: Vec<usize>,
    /// Fixed-point (×16) EWMA of each task's communication cost.
    ewma: Vec<u64>,
    /// Accepted-event counter at each task's last voluntary migration.
    last_migrated: Vec<u64>,
    window_index: u64,
    window_migrations: u64,
    stats: ChurnStats,
}

const EWMA_FP: u64 = 16;

impl ChurnController {
    /// A controller over a healthy `net` with no tasks yet.
    ///
    /// The config is validated here, not only in
    /// [`ChurnConfig::parse_record`], so a library caller building the
    /// pub-field struct directly gets a typed error instead of a
    /// divide-by-zero or shift-overflow panic later: `load_bound` and
    /// `window_events` must be positive, and `ewma_shift` is clamped to
    /// 16 (the same clamp `parse_record` applies).
    pub fn new(net: Network, mut cfg: ChurnConfig) -> Result<ChurnController, ChurnError> {
        if cfg.load_bound == 0 {
            return Err(ChurnError::Config {
                what: "load bound must be positive".into(),
            });
        }
        if cfg.window_events == 0 {
            return Err(ChurnError::Config {
                what: "window_events must be >= 1 (it divides the event counter)".into(),
            });
        }
        cfg.ewma_shift = cfg.ewma_shift.min(16);
        let healthy_table = RouteTable::try_new(&net)?;
        let degraded = net.degrade(&FaultSet::new())?;
        let table = degraded.route_table()?;
        let np = net.num_procs();
        Ok(ChurnController {
            net,
            cfg,
            healthy_table,
            domains: None,
            tasks: Vec::new(),
            edges: Vec::new(),
            adj: Vec::new(),
            live: Vec::new(),
            live_edges: Vec::new(),
            failed_procs: BTreeSet::new(),
            failed_links: BTreeSet::new(),
            degraded,
            table,
            load_per_proc: vec![0; np],
            ewma: Vec::new(),
            last_migrated: Vec::new(),
            window_index: 0,
            window_migrations: 0,
            stats: ChurnStats::default(),
        })
    }

    /// Makes escalated repair blast-radius-aware: displaced tasks prefer
    /// surviving processors of their own fault domain. Pure configuration
    /// — it does not enter the journal grammar, so resuming a stream on a
    /// machine-model network reattaches the map the same way the original
    /// run did (it is derived from the network spec, not from events).
    pub fn with_domains(
        mut self,
        domains: std::sync::Arc<oregami_topology::DomainMap>,
    ) -> ChurnController {
        self.domains = Some(domains);
        self
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// The healthy network the controller was built over.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Running totals.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// Accepted events so far.
    pub fn events(&self) -> u64 {
        self.stats.events
    }

    /// Total tasks ever spawned (dense id space, including departed).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Live task count.
    pub fn num_live(&self) -> usize {
        self.live.len()
    }

    /// The current cumulative fault set.
    pub fn fault_set(&self) -> FaultSet {
        let mut fs = FaultSet::new();
        for &p in &self.failed_procs {
            fs.fail_proc(ProcId(p));
        }
        for &l in &self.failed_links {
            fs.fail_link(LinkId(l));
        }
        fs
    }

    /// The current degraded network (healthy when no faults are active).
    pub fn degraded(&self) -> &DegradedNetwork {
        &self.degraded
    }

    /// Instantaneous communication cost of a live task: `Σ volume ×
    /// dist` over its active edges, on the current degraded network.
    fn inst_cost(&self, t: usize) -> u64 {
        let mut c = 0u64;
        for &ei in &self.adj[t] {
            let e = &self.edges[ei];
            let d = self.table.dist(self.tasks[e.src].proc, self.tasks[e.dst].proc);
            if d != u32::MAX {
                c = c.saturating_add(e.volume.saturating_mul(d as u64));
            }
        }
        c
    }

    /// Hypothetical communication cost of task `t` if it sat on `q`.
    fn hyp_cost(&self, t: usize, q: ProcId) -> u64 {
        let mut c = 0u64;
        for &ei in &self.adj[t] {
            let e = &self.edges[ei];
            let d = self.table.dist(q, self.tasks[e.peer_of(t)].proc);
            if d != u32::MAX {
                c = c.saturating_add(e.volume.saturating_mul(d as u64));
            }
        }
        c
    }

    /// One EWMA step folding the current instantaneous cost of `t`.
    fn fold_ewma(&mut self, t: usize) {
        let inst = self.inst_cost(t).saturating_mul(EWMA_FP);
        let s = self.cfg.ewma_shift;
        let old = self.ewma[t];
        self.ewma[t] = (old - (old >> s)).saturating_add(inst >> s);
    }

    /// Folds every live task's instantaneous cost (used after fault /
    /// recovery epochs, when every distance may have changed).
    fn fold_all_ewma(&mut self) {
        for i in 0..self.live.len() {
            self.fold_ewma(self.live[i]);
        }
    }

    /// Total smoothed communication cost over live tasks, in plain
    /// (non-fixed-point) units.
    fn total_ewma(&self) -> u64 {
        self.live
            .iter()
            .fold(0u64, |c, &t| c.saturating_add(self.ewma[t] / EWMA_FP))
    }

    /// Total instantaneous communication cost over active edges.
    pub fn total_comm_cost(&self) -> u64 {
        let mut c = 0u64;
        for &ei in &self.live_edges {
            let e = &self.edges[ei];
            let d = self.table.dist(self.tasks[e.src].proc, self.tasks[e.dst].proc);
            if d != u32::MAX {
                c = c.saturating_add(e.volume.saturating_mul(d as u64));
            }
        }
        c
    }

    /// Ingests one event under an unlimited budget.
    pub fn ingest(&mut self, ev: &ChurnEvent) -> Result<ChurnOutcome, ChurnError> {
        self.ingest_budgeted(ev, &Budget::unlimited())
    }

    /// Ingests one event. On `Ok` the mapping is valid on the (possibly
    /// new) degraded network; on `Err` the controller is unchanged.
    ///
    /// `budget` is an admission gate only: it is polled once, before the
    /// event is applied, and a tripped budget rejects the event with
    /// [`ChurnError::Cancelled`]. It is **not** threaded into the engine
    /// probes or escalated repairs the event triggers — those run under
    /// the config's fixed `probe_steps` quota, so an accepted event's
    /// outcome is a pure function of the accepted-event prefix and the
    /// config, never of wall-clock deadlines or cancel timing. Rejected
    /// events are not journaled, so cancellation never breaks replay
    /// determinism; accepted events replay identically under any budget.
    pub fn ingest_budgeted(
        &mut self,
        ev: &ChurnEvent,
        budget: &Budget,
    ) -> Result<ChurnOutcome, ChurnError> {
        if budget.poll().is_some() {
            self.stats.rejected += 1;
            return Err(ChurnError::Cancelled);
        }
        let result = match ev {
            ChurnEvent::Spawn {
                task,
                parent,
                load,
                volume,
            } => self.apply_spawn(*task, *parent, *load, *volume),
            ChurnEvent::Depart { task } => self.apply_depart(*task),
            ChurnEvent::Load { task, load } => self.apply_load(*task, *load),
            ChurnEvent::Fault { procs, links } => self.apply_fault(procs, links),
            ChurnEvent::Recover { procs, links } => self.apply_recover(procs, links),
        };
        match result {
            Ok(mut out) => {
                self.stats.events += 1;
                match ev {
                    ChurnEvent::Spawn { .. } => self.stats.spawns += 1,
                    ChurnEvent::Depart { .. } => self.stats.departures += 1,
                    ChurnEvent::Load { .. } => self.stats.load_updates += 1,
                    ChurnEvent::Fault { .. } => self.stats.faults += 1,
                    ChurnEvent::Recover { .. } => self.stats.recoveries += 1,
                }
                self.stats.forced_migrations += out.forced_migrations;
                self.stats.migration_traffic = self
                    .stats
                    .migration_traffic
                    .saturating_add(out.migration_traffic);
                if out.escalated {
                    self.stats.escalations += 1;
                }
                if out.repair_failure.is_some() {
                    self.stats.failed_escalations += 1;
                }
                if self.cfg.probe_interval > 0
                    && self.stats.events.is_multiple_of(self.cfg.probe_interval)
                {
                    self.voluntary_pass(&mut out);
                }
                if out.completion.is_degraded() {
                    self.stats.degraded_completions += 1;
                }
                Ok(out)
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    fn apply_spawn(
        &mut self,
        task: usize,
        parent: Option<usize>,
        load: u64,
        volume: u64,
    ) -> Result<ChurnOutcome, ChurnError> {
        if task != self.tasks.len() {
            return Err(ChurnError::NonDenseSpawn {
                task,
                expected: self.tasks.len(),
            });
        }
        if let Some(p) = parent {
            if self.tasks.get(p).is_none_or(|t| !t.alive) {
                return Err(ChurnError::BadParent { task, parent: p });
            }
        }
        let bound = self.cfg.load_bound;
        // Nearest alive processor to the parent with room (dynamic.rs'
        // placement rule, on the degraded network); roots go least-loaded.
        let home = parent.map(|p| self.tasks[p].proc);
        let q = self
            .degraded
            .alive_procs()
            .filter(|q| self.load_per_proc[q.index()] < bound)
            .min_by_key(|&q| {
                let d = home.map_or(0, |h| self.table.dist(q, h));
                (d, self.load_per_proc[q.index()], q.index())
            })
            .ok_or_else(|| ChurnError::NoCapacity {
                tasks: self.num_live() + 1,
                capacity: self.degraded.num_alive() * bound,
            })?;
        self.tasks.push(TaskState {
            alive: true,
            load,
            parent,
            proc: q,
        });
        self.adj.push(Vec::new());
        self.live.push(task);
        self.ewma.push(0);
        self.last_migrated.push(0);
        self.load_per_proc[q.index()] += 1;
        if let Some(p) = parent {
            if volume > 0 {
                let ei = self.edges.len();
                self.edges.push(ChurnEdge {
                    src: p,
                    dst: task,
                    volume,
                });
                self.adj[p].push(ei);
                self.adj[task].push(ei);
                self.live_edges.push(ei);
                self.fold_ewma(p);
            }
        }
        self.fold_ewma(task);
        Ok(ChurnOutcome::default())
    }

    fn apply_depart(&mut self, task: usize) -> Result<ChurnOutcome, ChurnError> {
        let t = self
            .tasks
            .get_mut(task)
            .filter(|t| t.alive)
            .ok_or(ChurnError::UnknownTask { task })?;
        t.alive = false;
        let q = t.proc;
        self.load_per_proc[q.index()] -= 1;
        self.ewma[task] = 0;
        if let Ok(i) = self.live.binary_search(&task) {
            self.live.remove(i);
        }
        // Its edges leave with it; peers lost an active edge, so refresh
        // their smoothed cost.
        let gone = std::mem::take(&mut self.adj[task]);
        if !gone.is_empty() {
            let edges = &self.edges;
            self.live_edges
                .retain(|&ei| edges[ei].src != task && edges[ei].dst != task);
        }
        for ei in gone {
            let p = self.edges[ei].peer_of(task);
            self.adj[p].retain(|&x| x != ei);
            self.fold_ewma(p);
        }
        Ok(ChurnOutcome::default())
    }

    fn apply_load(&mut self, task: usize, load: u64) -> Result<ChurnOutcome, ChurnError> {
        let t = self
            .tasks
            .get_mut(task)
            .filter(|t| t.alive)
            .ok_or(ChurnError::UnknownTask { task })?;
        t.load = load;
        self.fold_ewma(task);
        Ok(ChurnOutcome::default())
    }

    fn check_elements(&self, procs: &[ProcId], links: &[LinkId]) -> Result<(), ChurnError> {
        for &p in procs {
            if p.index() >= self.net.num_procs() {
                return Err(ChurnError::BadProc { proc: p });
            }
        }
        for &l in links {
            if l.index() >= self.net.num_links() {
                return Err(ChurnError::BadLink { link: l });
            }
        }
        Ok(())
    }

    fn rebuild_degraded(
        &self,
        fp: &BTreeSet<u32>,
        fl: &BTreeSet<u32>,
    ) -> Result<(DegradedNetwork, RouteTable), ChurnError> {
        let mut fs = FaultSet::new();
        for &p in fp {
            fs.fail_proc(ProcId(p));
        }
        for &l in fl {
            fs.fail_link(LinkId(l));
        }
        let degraded = self.net.degrade(&fs)?;
        let table = degraded.route_table()?;
        Ok((degraded, table))
    }

    /// The fixed, deterministic budget every probe and escalated repair
    /// runs under: the config's step quota, no deadline, no cancels.
    fn probe_budget(&self) -> Budget {
        Budget::unlimited().with_max_steps(self.cfg.probe_steps)
    }

    fn apply_fault(
        &mut self,
        procs: &[ProcId],
        links: &[LinkId],
    ) -> Result<ChurnOutcome, ChurnError> {
        if procs.is_empty() && links.is_empty() {
            return Err(ChurnError::Empty { kind: "fault" });
        }
        self.check_elements(procs, links)?;
        let mut fp = self.failed_procs.clone();
        let mut fl = self.failed_links.clone();
        for &p in procs {
            fp.insert(p.0);
        }
        for &l in links {
            fl.insert(l.0);
        }
        // Killing the whole machine or partitioning the survivors is
        // unserviceable: reject, keeping the previous valid mapping.
        let (degraded, table) = self.rebuild_degraded(&fp, &fl)?;

        let pre_cost = self.total_ewma();
        let mut out = ChurnOutcome::default();
        // Stranded tasks, ascending: the live ones whose processor the
        // new epoch lost.
        let displaced: Vec<usize> = self
            .live
            .iter()
            .copied()
            .filter(|&t| !degraded.is_alive(self.tasks[t].proc))
            .collect();
        // Survivors keep their load, and only alive processors are ever
        // candidates, so the stale entries of the dead ones are not read.
        let mut load = self.load_per_proc.clone();
        // `(task, new home)` of every task this event moves, ascending
        // by task.
        let mut moves: Vec<(usize, ProcId)> = Vec::with_capacity(displaced.len());

        // Local pass: move each stranded task to the surviving processor
        // closest to its live peers with room under the bound. Every
        // displaced peer is skipped, placed or not; `repair_mapping`'s
        // greedy pass skips only peers still stranded, so the two kernels
        // choose different homes and are deliberately not merged.
        let mut local_ok = true;
        for &t in &displaced {
            let best = degraded
                .alive_procs()
                .filter(|q| load[q.index()] < self.cfg.load_bound)
                .min_by_key(|&q| {
                    let mut c = 0u64;
                    for &ei in &self.adj[t] {
                        let e = &self.edges[ei];
                        let at = self.tasks[e.peer_of(t)].proc;
                        if !degraded.is_alive(at) {
                            continue;
                        }
                        let d = table.dist(q, at);
                        if d != u32::MAX {
                            c = c.saturating_add(e.volume.saturating_mul(d as u64));
                        }
                    }
                    (c, load[q.index()], q.index())
                });
            match best {
                Some(q) => {
                    // state comes off a checkpoint, charged on the
                    // healthy network's distance (remap's proxy).
                    let hops = self.healthy_table.dist(self.tasks[t].proc, q) as u64;
                    out.migration_traffic = out
                        .migration_traffic
                        .saturating_add(self.cfg.state_volume.saturating_mul(hops));
                    moves.push((t, q));
                    load[q.index()] += 1;
                    out.forced_migrations += 1;
                }
                None => {
                    local_ok = false;
                    break;
                }
            }
        }

        // Quality check on the locally-repaired mapping.
        let mut escalate = !local_ok;
        if local_ok && self.cfg.escalate_threshold_pct > 0 && pre_cost > 0 {
            let home = |t: usize| match moves.binary_search_by_key(&t, |m| m.0) {
                Ok(i) => moves[i].1,
                Err(_) => self.tasks[t].proc,
            };
            let mut post_cost = 0u64;
            for &ei in &self.live_edges {
                let e = &self.edges[ei];
                let d = table.dist(home(e.src), home(e.dst));
                if d != u32::MAX {
                    post_cost = post_cost.saturating_add(e.volume.saturating_mul(d as u64));
                }
            }
            if post_cost.saturating_mul(100) > pre_cost.saturating_mul(self.cfg.escalate_threshold_pct)
            {
                escalate = true;
            }
        }

        if escalate {
            match self.escalated_repair(&degraded) {
                Ok((repaired, report)) => {
                    out.escalated = true;
                    out.completion = out.completion.worst(report.completion);
                    // Count real moves relative to the pre-fault mapping.
                    moves.clear();
                    let mut traffic = 0u64;
                    for (&t, &q) in self.live.iter().zip(&repaired) {
                        let from = self.tasks[t].proc;
                        if q != from {
                            let hops = self.healthy_table.dist(from, q) as u64;
                            traffic =
                                traffic.saturating_add(self.cfg.state_volume.saturating_mul(hops));
                            moves.push((t, q));
                        }
                    }
                    out.forced_migrations = moves.len() as u64;
                    out.migration_traffic = traffic;
                }
                Err(e) => {
                    if !local_ok {
                        // Neither local moves nor repair could restore
                        // validity: reject the event.
                        return Err(e);
                    }
                    // The local mapping is valid; keep it. The repair
                    // failure is a real error (NoCapacity, contraction
                    // failure, ...), not budget exhaustion — a budget
                    // trip inside repair returns best-so-far `Ok` with a
                    // degraded completion — so report it distinctly
                    // instead of mislabeling it `BudgetExhausted`.
                    out.repair_failure = Some(e.to_string());
                }
            }
        }

        // Commit.
        self.failed_procs = fp;
        self.failed_links = fl;
        self.degraded = degraded;
        self.table = table;
        for &(t, q) in &moves {
            let from = std::mem::replace(&mut self.tasks[t].proc, q);
            self.load_per_proc[from.index()] -= 1;
            self.load_per_proc[q.index()] += 1;
        }
        self.fold_all_ewma();
        Ok(out)
    }

    /// Full repair from the pre-fault mapping via
    /// [`repair_mapping_cached`], translated through a compacted
    /// live-task graph. Returns the repaired assignment in compact ids,
    /// i.e. parallel to `self.live`.
    fn escalated_repair(
        &self,
        degraded: &DegradedNetwork,
    ) -> Result<(Vec<ProcId>, crate::repair::RepairReport), ChurnError> {
        let (tg, live, assignment) = self.materialize();
        if live.is_empty() {
            return Ok((Vec::new(), empty_report()));
        }
        let routes = route_all_phases(
            &tg,
            &assignment,
            &self.net,
            &self.healthy_table,
            Matcher::GreedyMaximal,
        );
        let mapping = Mapping { assignment, routes };
        let opts = RepairOptions {
            load_bound: Some(self.cfg.load_bound),
            state_volume: self.cfg.state_volume,
            matcher: Matcher::GreedyMaximal,
            domains: self.domains.clone(),
        };
        // A fixed step quota, NOT a child of the caller's budget: an
        // inherited deadline or cancel token would make the repaired
        // assignment depend on wall-clock timing, and this event is
        // journaled — resume replays under an unlimited budget and must
        // reproduce the same assignment byte-for-byte.
        let probe = self.probe_budget();
        let cache = RouteTableCache::new(4);
        let (repaired, report) =
            repair_mapping_cached(&tg, &self.net, degraded, &mapping, &opts, &probe, &cache)
                .map_err(ChurnError::Repair)?;
        Ok((repaired.assignment, report))
    }

    /// Compacts the live tasks into a routable [`TaskGraph`] (single comm
    /// phase of the active edges, per-task exec costs). Returns the
    /// graph, the compact→dense id translation, and the live assignment.
    fn materialize(&self) -> (TaskGraph, Vec<usize>, Vec<ProcId>) {
        // Ascending, so a task's compact id is its position here.
        let live = self.live.clone();
        let mut tg = TaskGraph::new("churn");
        for &t in &live {
            tg.add_node(TaskNode::scalar("t", t as i64));
        }
        let ph = tg.add_phase("stream");
        for &ei in &self.live_edges {
            let e = &self.edges[ei];
            if let (Ok(a), Ok(b)) = (live.binary_search(&e.src), live.binary_search(&e.dst)) {
                tg.add_edge(ph, TaskId::new(a), TaskId::new(b), e.volume);
            }
        }
        tg.add_exec_phase(
            "work",
            Cost::PerTask(live.iter().map(|&t| self.tasks[t].load).collect()),
        );
        let assignment = live.iter().map(|&t| self.tasks[t].proc).collect();
        (tg, live, assignment)
    }

    fn apply_recover(
        &mut self,
        procs: &[ProcId],
        links: &[LinkId],
    ) -> Result<ChurnOutcome, ChurnError> {
        if procs.is_empty() && links.is_empty() {
            return Err(ChurnError::Empty { kind: "recover" });
        }
        self.check_elements(procs, links)?;
        let mut fp = self.failed_procs.clone();
        let mut fl = self.failed_links.clone();
        for &p in procs {
            if !fp.remove(&p.0) {
                return Err(ChurnError::NotFailed {
                    what: format!("processor {}", p.0),
                });
            }
        }
        for &l in links {
            if !fl.remove(&l.0) {
                return Err(ChurnError::NotFailed {
                    what: format!("link {}", l.0),
                });
            }
        }
        // Recovery only adds capacity and routes; it cannot invalidate
        // the mapping — but distances change, so rebuild the epoch.
        let (degraded, table) = self.rebuild_degraded(&fp, &fl)?;
        self.failed_procs = fp;
        self.failed_links = fl;
        self.degraded = degraded;
        self.table = table;
        self.fold_all_ewma();
        Ok(ChurnOutcome::default())
    }

    /// The voluntary-remap decision point: pick the live task with the
    /// worst smoothed communication cost, screen a candidate move with
    /// the hysteresis rule, confirm with an exact engine probe, commit.
    fn voluntary_pass(&mut self, out: &mut ChurnOutcome) {
        // Cap window bookkeeping (event-count based: deterministic).
        let wi = self.stats.events / self.cfg.window_events;
        if wi != self.window_index {
            self.window_index = wi;
            self.window_migrations = 0;
        }
        if self.window_migrations >= self.cfg.migration_cap as u64 {
            return;
        }
        // Worst smoothed task outside its debounce window.
        let candidate = self
            .live
            .iter()
            .copied()
            .filter(|&t| {
                self.ewma[t] > 0
                    && (self.last_migrated[t] == 0
                        || self.stats.events - self.last_migrated[t]
                            >= self.cfg.debounce_events)
            })
            .max_by_key(|&t| (self.ewma[t], t));
        let Some(t) = candidate else { return };
        let cur = self.tasks[t].proc;
        let smoothed = self.ewma[t] / EWMA_FP;
        // Best alternative processor by hypothetical cost.
        let alt = self
            .degraded
            .alive_procs()
            .filter(|&q| q != cur && self.load_per_proc[q.index()] < self.cfg.load_bound)
            .map(|q| (self.hyp_cost(t, q), q))
            .min_by_key(|&(c, q)| (c, q.index()));
        let Some((alt_cost, q)) = alt else { return };
        let gain = smoothed.saturating_sub(alt_cost);
        let hops = self.table.dist(cur, q);
        if hops == u32::MAX {
            return;
        }
        let move_cost = self.cfg.state_volume.saturating_mul(hops as u64);
        // The hysteresis rule: smoothed gain must strictly beat the
        // migration cost.
        if gain <= move_cost {
            return;
        }
        // Exact confirmation: apply the reassignment on a MetricsEngine
        // over the live graph, keep it only if the scalar cost drops.
        let (tg, live, assignment) = self.materialize();
        let Ok(ci) = live.binary_search(&t) else {
            return;
        };
        let dnet = self.degraded.network().clone();
        let routes = route_all_phases(
            &tg,
            &assignment,
            &dnet,
            &self.table,
            Matcher::GreedyMaximal,
        );
        let mapping = Mapping { assignment, routes };
        let model = CostModel::default();
        let Ok(mut engine) = MetricsEngine::try_new(&tg, &dnet, &mapping, &model) else {
            return;
        };
        self.stats.probes += 1;
        out.probes += 1;
        let before = engine.scalar_cost();
        // Fixed step quota, budget-independent: see escalated_repair.
        let probe = self.probe_budget();
        match engine.apply_budgeted(Edit::Reassign { task: ci, proc: q }, &probe) {
            Ok(_) => {
                let after = engine.scalar_cost();
                if after.saturating_add(move_cost) < before {
                    // Commit the move.
                    self.load_per_proc[cur.index()] -= 1;
                    self.load_per_proc[q.index()] += 1;
                    self.tasks[t].proc = q;
                    self.last_migrated[t] = self.stats.events;
                    self.window_migrations += 1;
                    self.stats.voluntary_migrations += 1;
                    self.stats.max_window_migrations =
                        self.stats.max_window_migrations.max(self.window_migrations);
                    out.voluntary_migrations += 1;
                    out.migration_traffic = out.migration_traffic.saturating_add(move_cost);
                    self.stats.migration_traffic =
                        self.stats.migration_traffic.saturating_add(move_cost);
                    self.fold_ewma(t);
                    for i in 0..self.adj[t].len() {
                        let p = self.edges[self.adj[t][i]].peer_of(t);
                        self.fold_ewma(p);
                    }
                } else {
                    engine.undo();
                    self.stats.probe_rejected += 1;
                }
            }
            Err(EditError::Budget(c)) => {
                out.completion = out.completion.worst(c);
            }
            Err(_) => {
                self.stats.probe_rejected += 1;
            }
        }
    }

    /// Full validity check of the always-valid invariant: every live
    /// task on an alive processor within the load bound, every active
    /// edge routable on the degraded network. `Ok(())` or the first
    /// violation as text.
    pub fn validate(&self) -> Result<(), String> {
        let mut load = vec![0usize; self.net.num_procs()];
        for &i in &self.live {
            let t = &self.tasks[i];
            if !self.degraded.is_alive(t.proc) {
                return Err(format!("task {i} sits on dead processor {}", t.proc.0));
            }
            load[t.proc.index()] += 1;
        }
        for (p, &l) in load.iter().enumerate() {
            if l > self.cfg.load_bound {
                return Err(format!(
                    "processor {p} holds {l} tasks (bound {})",
                    self.cfg.load_bound
                ));
            }
        }
        for &ei in &self.live_edges {
            let e = &self.edges[ei];
            let d = self.table.dist(self.tasks[e.src].proc, self.tasks[e.dst].proc);
            if d == u32::MAX {
                return Err(format!(
                    "edge {ei} ({} -> {}) is unroutable on the degraded network",
                    e.src, e.dst
                ));
            }
        }
        if load != self.load_per_proc {
            return Err("internal load ledger out of sync".into());
        }
        if !self.live_index_in_sync() {
            return Err("internal live index out of sync".into());
        }
        Ok(())
    }

    /// Cross-check of `live` and `live_edges` against a fresh scan of
    /// the id tables — the one walk over the whole history outside
    /// [`ChurnController::state_record`] — and of the live tasks' `adj`
    /// lists against `live_edges`: every live edge listed at both ends,
    /// and nothing else listed.
    fn live_index_in_sync(&self) -> bool {
        let alive = |t: usize| self.tasks[t].alive;
        let live_tasks = (0..self.tasks.len()).filter(|&t| alive(t));
        let live_edges = (0..self.edges.len())
            .filter(|&ei| alive(self.edges[ei].src) && alive(self.edges[ei].dst));
        let listed: usize = self.live.iter().map(|&t| self.adj[t].len()).sum();
        live_tasks.eq(self.live.iter().copied())
            && live_edges.eq(self.live_edges.iter().copied())
            && listed == 2 * self.live_edges.len()
            && self.live_edges.iter().all(|&ei| {
                let e = &self.edges[ei];
                self.adj[e.src].contains(&ei) && self.adj[e.dst].contains(&ei)
            })
    }

    /// Canonical single-string state record: configuration, accepted
    /// events, fault state, and every task's (alive, proc, load). Two
    /// controllers that ingested the same accepted-event sequence under
    /// the same config produce byte-identical records — the property the
    /// crash-safe stream resume asserts.
    pub fn state_record(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.cfg.to_record());
        let _ = writeln!(s, "events {}", self.stats.events);
        let fp: Vec<String> = self.failed_procs.iter().map(|p| p.to_string()).collect();
        let fl: Vec<String> = self.failed_links.iter().map(|l| l.to_string()).collect();
        let _ = writeln!(s, "failed procs [{}] links [{}]", fp.join(","), fl.join(","));
        for (i, t) in self.tasks.iter().enumerate() {
            let _ = writeln!(
                s,
                "task {i} alive={} proc={} load={} ewma={}",
                t.alive, t.proc.0, t.load, self.ewma[i]
            );
        }
        let _ = writeln!(
            s,
            "migrations forced={} voluntary={} traffic={}",
            self.stats.forced_migrations,
            self.stats.voluntary_migrations,
            self.stats.migration_traffic
        );
        s
    }

    /// Compact JSON of the controller state for daemon snapshots (same
    /// determinism contract as [`ChurnController::state_record`]).
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"events\":{},\"rejected\":{},\"live\":{},\"spawned\":{},\"failed_procs\":[",
            self.stats.events,
            self.stats.rejected,
            self.num_live(),
            self.tasks.len()
        );
        for (i, p) in self.failed_procs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{p}");
        }
        let _ = write!(s, "],\"failed_links\":[");
        for (i, l) in self.failed_links.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{l}");
        }
        let _ = write!(s, "],\"assignment\":[");
        let mut first = true;
        for &i in &self.live {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "[{},{}]", i, self.tasks[i].proc.0);
        }
        let _ = write!(
            s,
            "],\"forced_migrations\":{},\"voluntary_migrations\":{},\"migration_traffic\":{},\"probes\":{},\"escalations\":{},\"comm_cost\":{}}}",
            self.stats.forced_migrations,
            self.stats.voluntary_migrations,
            self.stats.migration_traffic,
            self.stats.probes,
            self.stats.escalations,
            self.total_comm_cost()
        );
        s
    }
}

fn empty_report() -> crate::repair::RepairReport {
    crate::repair::RepairReport {
        edges_rerouted: 0,
        tasks_migrated: 0,
        migration_cost: 0,
        migrations_intra_domain: 0,
        migrations_cross_domain: 0,
        escalated: false,
        avg_dilation_before: 0.0,
        avg_dilation_after: 0.0,
        max_contention_before: 0,
        max_contention_after: 0,
        improve_probes: 0,
        completion: Completion::Optimal,
        notes: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Seeded event-stream generator
// ---------------------------------------------------------------------

/// Workload shapes the generator can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamProfile {
    /// Spawn/depart bursts with geometric sizes and background drift.
    Bursty,
    /// Slow triangle-wave load swings over the whole task set.
    Diurnal,
    /// Adversarial fault/recover flapping on a small victim set — the
    /// hysteresis stressor.
    FlapStorm,
    /// Correlated board-loss storms: whole fault domains fail and recover
    /// atomically (requires [`EventStream::with_domains`]; falls back to
    /// single-processor faults without one).
    BoardStorm,
}

impl StreamProfile {
    /// Parses a profile name.
    pub fn parse(s: &str) -> Option<StreamProfile> {
        match s {
            "bursty" => Some(StreamProfile::Bursty),
            "diurnal" => Some(StreamProfile::Diurnal),
            "flap-storm" | "flapstorm" | "flap" => Some(StreamProfile::FlapStorm),
            "board-storm" | "boardstorm" | "boards" => Some(StreamProfile::BoardStorm),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            StreamProfile::Bursty => "bursty",
            StreamProfile::Diurnal => "diurnal",
            StreamProfile::FlapStorm => "flap-storm",
            StreamProfile::BoardStorm => "board-storm",
        }
    }
}

/// A deterministic, seeded stream of churn events over a given network.
///
/// The generator mirrors the controller's task/fault bookkeeping so that
/// (capacity permitting) every emitted event is acceptable: spawn ids
/// are dense, departs name live tasks, recoveries name failed elements,
/// and fault candidates that would partition the surviving processors
/// are skipped (the controller would reject them typed).
pub struct EventStream {
    net: Network,
    profile: StreamProfile,
    rng: u64,
    load_bound: usize,
    emitted: u64,
    limit: u64,
    next_task: usize,
    live: Vec<usize>,
    failed_procs: BTreeSet<u32>,
    failed_links: BTreeSet<u32>,
    /// FlapStorm victim links, flapped round-robin.
    victims: Vec<u32>,
    flap_pos: usize,
    /// Fault-domain map for correlated board-loss events (BoardStorm).
    domains: Option<std::sync::Arc<oregami_topology::DomainMap>>,
}

impl EventStream {
    /// A stream of `limit` events with the given shape and seed.
    pub fn new(
        net: Network,
        profile: StreamProfile,
        seed: u64,
        limit: u64,
        load_bound: usize,
    ) -> EventStream {
        let nl = net.num_links() as u32;
        // A small stable victim set for flapping: every 4th link.
        let victims: Vec<u32> = (0..nl).step_by(4).take(8).collect();
        EventStream {
            net,
            profile,
            rng: seed ^ 0x6f72_6567_616d_6921, // "oregami!" tag so seed 0 works
            load_bound,
            emitted: 0,
            limit,
            next_task: 0,
            live: Vec::new(),
            failed_procs: BTreeSet::new(),
            failed_links: BTreeSet::new(),
            victims,
            flap_pos: 0,
            domains: None,
        }
    }

    /// Attaches a fault-domain map so the stream can emit correlated
    /// board-loss events (whole domains failing atomically). Pure
    /// generator configuration; emitted events are ordinary
    /// [`ChurnEvent::Fault`]s, so the journal grammar is unchanged.
    pub fn with_domains(
        mut self,
        domains: std::sync::Arc<oregami_topology::DomainMap>,
    ) -> EventStream {
        self.domains = Some(domains);
        self
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: deterministic, allocation-free, good enough for
        // workload shaping (not cryptography).
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn capacity(&self) -> usize {
        (self.net.num_procs() - self.failed_procs.len()) * self.load_bound
    }

    fn gen_spawn(&mut self) -> ChurnEvent {
        let parent = if self.live.is_empty() {
            None
        } else {
            let i = (self.next_u64() as usize) % self.live.len();
            Some(self.live[i])
        };
        let t = self.next_task;
        self.next_task += 1;
        self.live.push(t);
        ChurnEvent::Spawn {
            task: t,
            parent,
            load: 1 + self.next_u64() % 16,
            volume: 1 + self.next_u64() % 8,
        }
    }

    fn gen_depart(&mut self) -> Option<ChurnEvent> {
        if self.live.len() <= 1 {
            return None;
        }
        let i = (self.next_u64() as usize) % self.live.len();
        let t = self.live.swap_remove(i);
        Some(ChurnEvent::Depart { task: t })
    }

    fn gen_load(&mut self, load: u64) -> Option<ChurnEvent> {
        if self.live.is_empty() {
            return None;
        }
        let i = (self.next_u64() as usize) % self.live.len();
        Some(ChurnEvent::Load {
            task: self.live[i],
            load,
        })
    }

    /// A link fault that provably keeps the alive processors connected
    /// (checked by a tentative degrade), or `None` if the candidate
    /// would partition.
    fn gen_link_fault(&mut self, link: u32) -> Option<ChurnEvent> {
        if self.failed_links.contains(&link) {
            return None;
        }
        let mut fs = FaultSet::new();
        for &p in &self.failed_procs {
            fs.fail_proc(ProcId(p));
        }
        for &l in &self.failed_links {
            fs.fail_link(LinkId(l));
        }
        fs.fail_link(LinkId(link));
        let ok = self
            .net
            .degrade(&fs)
            .ok()
            .is_some_and(|d| d.route_table().is_ok());
        if !ok {
            return None;
        }
        self.failed_links.insert(link);
        Some(ChurnEvent::Fault {
            procs: Vec::new(),
            links: vec![LinkId(link)],
        })
    }

    /// A processor fault that keeps the survivors connected and leaves
    /// room for the live tasks, or `None`.
    fn gen_proc_fault(&mut self, proc: u32) -> Option<ChurnEvent> {
        if self.failed_procs.contains(&proc) {
            return None;
        }
        let survivors = self.net.num_procs() - self.failed_procs.len() - 1;
        if survivors * self.load_bound < self.live.len() || survivors == 0 {
            return None;
        }
        let mut fs = FaultSet::new();
        for &p in &self.failed_procs {
            fs.fail_proc(ProcId(p));
        }
        fs.fail_proc(ProcId(proc));
        for &l in &self.failed_links {
            fs.fail_link(LinkId(l));
        }
        let ok = self
            .net
            .degrade(&fs)
            .ok()
            .is_some_and(|d| d.route_table().is_ok());
        if !ok {
            return None;
        }
        self.failed_procs.insert(proc);
        Some(ChurnEvent::Fault {
            procs: vec![ProcId(proc)],
            links: Vec::new(),
        })
    }

    /// A correlated whole-board fault: every processor of one fault
    /// domain plus its intra-board links and uplinks fail in a single
    /// event. Boards already touched by faults, boards whose loss would
    /// strand the live tasks, and boards whose loss would partition the
    /// survivors are skipped.
    fn gen_board_fault(&mut self) -> Option<ChurnEvent> {
        let domains = self.domains.clone()?;
        let nd = domains.num_domains();
        if nd == 0 {
            return None;
        }
        let start = (self.next_u64() as usize) % nd;
        for off in 0..nd {
            let board = ((start + off) % nd) as u32;
            let procs: Vec<u32> = domains.procs_in(board).map(|p| p.0).collect();
            if procs.is_empty() || procs.iter().any(|p| self.failed_procs.contains(p)) {
                continue;
            }
            let survivors = self.net.num_procs() - self.failed_procs.len() - procs.len();
            if survivors == 0 || survivors * self.load_bound < self.live.len() {
                continue;
            }
            let Ok(board_fs) = domains.board_fault_set(&self.net, board) else {
                continue;
            };
            let mut fs = FaultSet::new();
            for &p in &self.failed_procs {
                fs.fail_proc(ProcId(p));
            }
            for &l in &self.failed_links {
                fs.fail_link(LinkId(l));
            }
            let mut new_links: Vec<u32> = Vec::new();
            for p in board_fs.procs() {
                fs.fail_proc(p);
            }
            for l in board_fs.links() {
                if !self.failed_links.contains(&l.0) {
                    new_links.push(l.0);
                }
                fs.fail_link(l);
            }
            let ok = self
                .net
                .degrade(&fs)
                .ok()
                .is_some_and(|d| d.route_table().is_ok());
            if !ok {
                continue;
            }
            self.failed_procs.extend(procs.iter().copied());
            self.failed_links.extend(new_links.iter().copied());
            return Some(ChurnEvent::Fault {
                procs: procs.into_iter().map(ProcId).collect(),
                links: new_links.into_iter().map(LinkId).collect(),
            });
        }
        None
    }

    /// Recovers a whole previously-failed board in one event (the repair
    /// crew swaps the board): every failed processor of the first fully
    /// failed domain, plus the failed links it touches.
    fn gen_board_recover(&mut self) -> Option<ChurnEvent> {
        let domains = self.domains.clone()?;
        let board = (0..domains.num_domains() as u32).find(|&d| {
            let mut any = false;
            for p in domains.procs_in(d) {
                if !self.failed_procs.contains(&p.0) {
                    return false;
                }
                any = true;
            }
            any
        })?;
        let procs: Vec<u32> = domains.procs_in(board).map(|p| p.0).collect();
        let Ok(board_fs) = domains.board_fault_set(&self.net, board) else {
            return None;
        };
        let links: Vec<u32> = board_fs
            .links()
            .map(|l| l.0)
            .filter(|l| self.failed_links.contains(l))
            .collect();
        for p in &procs {
            self.failed_procs.remove(p);
        }
        for l in &links {
            self.failed_links.remove(l);
        }
        Some(ChurnEvent::Recover {
            procs: procs.into_iter().map(ProcId).collect(),
            links: links.into_iter().map(LinkId).collect(),
        })
    }

    fn gen_recover(&mut self) -> Option<ChurnEvent> {
        if !self.failed_links.is_empty() && (self.next_u64().is_multiple_of(2) || self.failed_procs.is_empty())
        {
            let l = *self.failed_links.iter().next().unwrap();
            self.failed_links.remove(&l);
            Some(ChurnEvent::Recover {
                procs: Vec::new(),
                links: vec![LinkId(l)],
            })
        } else if !self.failed_procs.is_empty() {
            let p = *self.failed_procs.iter().next().unwrap();
            self.failed_procs.remove(&p);
            Some(ChurnEvent::Recover {
                procs: vec![ProcId(p)],
                links: Vec::new(),
            })
        } else {
            None
        }
    }

    fn gen_event(&mut self) -> ChurnEvent {
        // Warm-up: populate half the capacity before anything else.
        if self.next_task == 0 || (self.live.len() < 2 && self.next_task < self.capacity()) {
            return self.gen_spawn();
        }
        let roll = self.next_u64() % 100;
        let ev = match self.profile {
            StreamProfile::Bursty => match roll {
                0..=29 if self.live.len() + 1 < self.capacity() => Some(self.gen_spawn()),
                30..=54 => self.gen_depart(),
                55..=79 => {
                    let load = 1 + self.next_u64() % 32;
                    self.gen_load(load)
                }
                80..=89 => {
                    let l = (self.next_u64() % self.net.num_links() as u64) as u32;
                    self.gen_link_fault(l)
                }
                _ => self.gen_recover(),
            },
            StreamProfile::Diurnal => match roll {
                // Triangle wave over a 512-event day; loads swing 1..=33.
                0..=69 => {
                    let phase = self.emitted % 512;
                    let tri = if phase < 256 { phase } else { 511 - phase };
                    self.gen_load(1 + tri / 8)
                }
                70..=79 if self.live.len() + 1 < self.capacity() => Some(self.gen_spawn()),
                80..=89 => self.gen_depart(),
                90..=94 => {
                    let p = (self.next_u64() % self.net.num_procs() as u64) as u32;
                    self.gen_proc_fault(p)
                }
                _ => self.gen_recover(),
            },
            StreamProfile::FlapStorm => match roll {
                // Half the stream flaps the victim set as fast as it can.
                0..=24 => {
                    if self.victims.is_empty() {
                        None
                    } else {
                        let l = self.victims[self.flap_pos % self.victims.len()];
                        self.flap_pos += 1;
                        self.gen_link_fault(l)
                    }
                }
                25..=49 => self.gen_recover(),
                50..=69 => {
                    let load = 1 + self.next_u64() % 32;
                    self.gen_load(load)
                }
                70..=84 if self.live.len() + 1 < self.capacity() => Some(self.gen_spawn()),
                85..=94 => self.gen_depart(),
                _ => {
                    let p = (self.next_u64() % self.net.num_procs() as u64) as u32;
                    self.gen_proc_fault(p)
                }
            },
            StreamProfile::BoardStorm => match roll {
                // Correlated storms: whole boards die and come back.
                0..=14 => self.gen_board_fault().or_else(|| {
                    // No domain map (or no killable board): degrade to a
                    // single-processor fault so the storm still bites.
                    let p = (self.next_u64() % self.net.num_procs() as u64) as u32;
                    self.gen_proc_fault(p)
                }),
                15..=29 => self.gen_board_recover().or_else(|| self.gen_recover()),
                30..=54 => {
                    let load = 1 + self.next_u64() % 32;
                    self.gen_load(load)
                }
                55..=79 if self.live.len() + 1 < self.capacity() => Some(self.gen_spawn()),
                80..=89 => self.gen_depart(),
                _ => {
                    let l = (self.next_u64() % self.net.num_links() as u64) as u32;
                    self.gen_link_fault(l)
                }
            },
        };
        // Fallbacks keep the stream total: drift a load, else spawn.
        ev.or_else(|| self.gen_load(1))
            .unwrap_or_else(|| self.gen_spawn())
    }
}

impl Iterator for EventStream {
    type Item = ChurnEvent;

    fn next(&mut self) -> Option<ChurnEvent> {
        if self.emitted >= self.limit {
            return None;
        }
        self.emitted += 1;
        Some(self.gen_event())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_topology::builders;

    impl ChurnController {
        /// The processor of a live task, if it exists and is alive.
        fn task_proc(&self, task: usize) -> Option<ProcId> {
            self.tasks
                .get(task)
                .filter(|t| t.alive)
                .map(|t| t.proc)
        }
    }

    fn small() -> ChurnController {
        let net = builders::hypercube(3); // 8 procs, 12 links
        ChurnController::new(
            net,
            ChurnConfig {
                load_bound: 4,
                ..ChurnConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn spawn_depart_load_roundtrip() {
        let mut c = small();
        c.ingest(&ChurnEvent::Spawn {
            task: 0,
            parent: None,
            load: 3,
            volume: 0,
        })
        .unwrap();
        c.ingest(&ChurnEvent::Spawn {
            task: 1,
            parent: Some(0),
            load: 2,
            volume: 5,
        })
        .unwrap();
        assert_eq!(c.num_live(), 2);
        c.validate().unwrap();
        c.ingest(&ChurnEvent::Load { task: 1, load: 9 }).unwrap();
        c.ingest(&ChurnEvent::Depart { task: 0 }).unwrap();
        assert_eq!(c.num_live(), 1);
        c.validate().unwrap();
    }

    #[test]
    fn spawn_ids_must_be_dense() {
        let mut c = small();
        let err = c
            .ingest(&ChurnEvent::Spawn {
                task: 5,
                parent: None,
                load: 1,
                volume: 0,
            })
            .unwrap_err();
        assert_eq!(err, ChurnError::NonDenseSpawn { task: 5, expected: 0 });
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.events(), 0);
    }

    #[test]
    fn empty_fault_and_recover_are_rejected() {
        // The journal grammar cannot represent `fault`/`recover` with no
        // elements; accepting one would brick stream resume.
        let mut c = small();
        c.ingest(&ChurnEvent::Spawn {
            task: 0,
            parent: None,
            load: 1,
            volume: 0,
        })
        .unwrap();
        let before = c.state_record();
        assert_eq!(
            c.ingest(&ChurnEvent::Fault {
                procs: vec![],
                links: vec![],
            }),
            Err(ChurnError::Empty { kind: "fault" })
        );
        assert_eq!(
            c.ingest(&ChurnEvent::Recover {
                procs: vec![],
                links: vec![],
            }),
            Err(ChurnError::Empty { kind: "recover" })
        );
        assert_eq!(c.state_record(), before);
        assert_eq!(c.stats().rejected, 2);
        c.validate().unwrap();
    }

    #[test]
    fn bad_configs_are_typed_errors_not_panics() {
        let net = builders::hypercube(3);
        // window_events == 0 would divide-by-zero in voluntary_pass
        let err = match ChurnController::new(
            net.clone(),
            ChurnConfig {
                window_events: 0,
                ..ChurnConfig::default()
            },
        ) {
            Ok(_) => panic!("window_events == 0 must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, ChurnError::Config { .. }));
        // a zero load bound is a config error, not a capacity failure,
        // with the text parse_record gives it
        let err = match ChurnController::new(
            net.clone(),
            ChurnConfig {
                load_bound: 0,
                ..ChurnConfig::default()
            },
        ) {
            Ok(_) => panic!("load_bound == 0 must be rejected"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            ChurnError::Config {
                what: "load bound must be positive".into()
            }
        );
        assert_eq!(err.to_string(), "bad config: load bound must be positive");
        // ewma_shift >= 64 would overflow the shift in fold_ewma; new
        // clamps it (same clamp parse_record applies)
        let mut c = ChurnController::new(
            net,
            ChurnConfig {
                ewma_shift: 200,
                load_bound: 4,
                probe_interval: 4,
                ..ChurnConfig::default()
            },
        )
        .unwrap();
        assert_eq!(c.config().ewma_shift, 16);
        for t in 0..8 {
            c.ingest(&ChurnEvent::Spawn {
                task: t,
                parent: if t == 0 { None } else { Some(t - 1) },
                load: 1,
                volume: 3,
            })
            .unwrap();
        }
        c.validate().unwrap();
    }

    #[test]
    fn caller_budget_is_admission_only() {
        use std::time::Duration;
        // An already-expired deadline rejects every event typed and
        // leaves the controller untouched...
        let mut c = small();
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        let before = c.state_record();
        assert_eq!(
            c.ingest_budgeted(
                &ChurnEvent::Spawn {
                    task: 0,
                    parent: None,
                    load: 1,
                    volume: 0,
                },
                &expired,
            ),
            Err(ChurnError::Cancelled)
        );
        assert_eq!(c.state_record(), before);
        // ...and accepted-event outcomes are budget-independent: the
        // same stream under a live deadline budget and under an
        // unlimited one produces byte-identical state (the property
        // journaled resume relies on — resume replays unlimited).
        let run = |budget: &Budget| {
            let net = builders::hypercube(3);
            let cfg = ChurnConfig {
                load_bound: 4,
                probe_interval: 8,
                ..ChurnConfig::default()
            };
            let mut c = ChurnController::new(net.clone(), cfg.clone()).unwrap();
            let stream =
                EventStream::new(net, StreamProfile::FlapStorm, 5, 400, cfg.load_bound);
            for ev in stream {
                let _ = c.ingest_budgeted(&ev, budget);
            }
            c.state_record()
        };
        let generous = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(run(&generous), run(&Budget::unlimited()));
    }

    #[test]
    fn depart_unknown_task_rejected() {
        let mut c = small();
        assert!(matches!(
            c.ingest(&ChurnEvent::Depart { task: 0 }),
            Err(ChurnError::UnknownTask { task: 0 })
        ));
    }

    #[test]
    fn proc_fault_migrates_stranded_tasks() {
        let mut c = small();
        for t in 0..8 {
            c.ingest(&ChurnEvent::Spawn {
                task: t,
                parent: if t == 0 { None } else { Some(t - 1) },
                load: 1,
                volume: 2,
            })
            .unwrap();
        }
        let victim = c.task_proc(0).unwrap();
        let out = c
            .ingest(&ChurnEvent::Fault {
                procs: vec![victim],
                links: vec![],
            })
            .unwrap();
        assert!(out.forced_migrations > 0);
        assert!(out.migration_traffic > 0);
        c.validate().unwrap();
        // Nobody sits on the dead processor.
        for t in 0..8 {
            if let Some(p) = c.task_proc(t) {
                assert_ne!(p, victim);
            }
        }
    }

    #[test]
    fn fault_then_recover_restores_capacity() {
        let mut c = small();
        for t in 0..4 {
            c.ingest(&ChurnEvent::Spawn {
                task: t,
                parent: None,
                load: 1,
                volume: 0,
            })
            .unwrap();
        }
        c.ingest(&ChurnEvent::Fault {
            procs: vec![ProcId(0)],
            links: vec![],
        })
        .unwrap();
        assert_eq!(c.degraded().num_alive(), 7);
        c.ingest(&ChurnEvent::Recover {
            procs: vec![ProcId(0)],
            links: vec![],
        })
        .unwrap();
        assert_eq!(c.degraded().num_alive(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn recover_of_healthy_element_rejected() {
        let mut c = small();
        assert!(matches!(
            c.ingest(&ChurnEvent::Recover {
                procs: vec![ProcId(0)],
                links: vec![],
            }),
            Err(ChurnError::NotFailed { .. })
        ));
        c.validate().unwrap();
    }

    #[test]
    fn killing_every_proc_is_rejected_and_state_survives() {
        let mut c = small();
        c.ingest(&ChurnEvent::Spawn {
            task: 0,
            parent: None,
            load: 1,
            volume: 0,
        })
        .unwrap();
        let before = c.state_record();
        let err = c
            .ingest(&ChurnEvent::Fault {
                procs: (0..8).map(ProcId).collect(),
                links: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, ChurnError::Topology(_)));
        // The only permitted difference is the rejection counter, which
        // state_record does not include.
        assert_eq!(before, c.state_record());
        c.validate().unwrap();
    }

    #[test]
    fn capacity_exhaustion_is_typed() {
        let net = builders::chain(2);
        let mut c = ChurnController::new(
            net,
            ChurnConfig {
                load_bound: 1,
                ..ChurnConfig::default()
            },
        )
        .unwrap();
        c.ingest(&ChurnEvent::Spawn {
            task: 0,
            parent: None,
            load: 1,
            volume: 0,
        })
        .unwrap();
        c.ingest(&ChurnEvent::Spawn {
            task: 1,
            parent: None,
            load: 1,
            volume: 0,
        })
        .unwrap();
        assert!(matches!(
            c.ingest(&ChurnEvent::Spawn {
                task: 2,
                parent: None,
                load: 1,
                volume: 0,
            }),
            Err(ChurnError::NoCapacity { .. })
        ));
        c.validate().unwrap();
    }

    #[test]
    fn huge_state_volume_saturates_instead_of_overflowing() {
        let spawn = |c: &mut ChurnController, task, parent, volume| {
            c.ingest(&ChurnEvent::Spawn {
                task,
                parent,
                load: 1,
                volume,
            })
            .unwrap();
        };
        // A fault that migrates. Task 0 and two children fill processor
        // A, a third child sits next door; losing A strands three tasks,
        // and three moves of `u64::MAX - 1` state units each overflow a
        // plain sum. The local pass ignores edges between stranded tasks,
        // so it scatters the heavy 0-1 and 0-2 edges and the quality
        // check escalates: the repair's recount has to saturate too.
        let cfg = ChurnConfig {
            load_bound: 3,
            state_volume: u64::MAX - 1,
            probe_interval: 0,
            ..ChurnConfig::default()
        };
        let mut c = ChurnController::new(builders::hypercube(3), cfg).unwrap();
        spawn(&mut c, 0, None, 0);
        spawn(&mut c, 1, Some(0), 1000);
        spawn(&mut c, 2, Some(0), 1000);
        spawn(&mut c, 3, Some(0), 8);
        let a = c.task_proc(0).unwrap();
        assert_eq!(c.task_proc(2), Some(a));
        assert_ne!(c.task_proc(3), Some(a));
        let out = c
            .ingest(&ChurnEvent::Fault {
                procs: vec![a],
                links: vec![],
            })
            .unwrap();
        assert!(out.escalated);
        assert!(out.forced_migrations >= 3);
        assert_eq!(out.migration_traffic, u64::MAX);
        assert_eq!(c.stats().migration_traffic, u64::MAX);
        c.validate().unwrap();
        // The fold into the running total: a second saturated event.
        c.ingest(&ChurnEvent::Recover {
            procs: vec![a],
            links: vec![],
        })
        .unwrap();
        let b = c.task_proc(0).unwrap();
        let out = c
            .ingest(&ChurnEvent::Fault {
                procs: vec![b],
                links: vec![],
            })
            .unwrap();
        assert!(out.migration_traffic > 0);
        assert_eq!(c.stats().migration_traffic, u64::MAX);
        c.validate().unwrap();

        // A voluntary move. The hysteresis rule compares a smoothed cost
        // of at most `u64::MAX / 16` with the migration cost, so the state
        // volume stays under that; the running total starts one short of
        // the top. Task 2 lands a hop from its parent behind task 1, which
        // then leaves, and the `u64::MAX / 2` edge pulls task 2 home.
        let cfg = ChurnConfig {
            load_bound: 2,
            state_volume: u64::MAX / 64,
            ewma_shift: 1,
            probe_interval: 4,
            debounce_events: 4,
            ..ChurnConfig::default()
        };
        let mut c = ChurnController::new(builders::hypercube(3), cfg).unwrap();
        c.stats.migration_traffic = u64::MAX - 1;
        spawn(&mut c, 0, None, 0);
        spawn(&mut c, 1, Some(0), 0);
        spawn(&mut c, 2, Some(0), u64::MAX / 2);
        assert_ne!(c.task_proc(2), c.task_proc(0));
        // the fourth event is a decision point
        let out = c.ingest(&ChurnEvent::Depart { task: 1 }).unwrap();
        assert_eq!(out.voluntary_migrations, 1);
        assert_eq!(out.migration_traffic, u64::MAX / 64);
        c.validate().unwrap();
        assert_eq!(c.task_proc(2), c.task_proc(0));
        assert_eq!(c.stats().migration_traffic, u64::MAX);

        // `total_ewma`: seventeen saturated tasks overflow a plain sum.
        let mut c = small();
        for t in 0..17 {
            spawn(&mut c, t, None, 0);
        }
        c.ewma.fill(u64::MAX);
        assert_eq!(c.total_ewma(), u64::MAX);
    }

    #[test]
    fn flap_storm_respects_migration_cap() {
        let net = builders::hypercube(3);
        let cfg = ChurnConfig {
            load_bound: 4,
            probe_interval: 8,
            migration_cap: 2,
            window_events: 64,
            debounce_events: 16,
            ..ChurnConfig::default()
        };
        let mut c = ChurnController::new(net.clone(), cfg.clone()).unwrap();
        let stream = EventStream::new(net, StreamProfile::FlapStorm, 7, 2000, cfg.load_bound);
        for ev in stream {
            // Typed rejections are allowed; panics and invalid states are not.
            let _ = c.ingest(&ev);
            c.validate().unwrap();
        }
        assert!(c.stats().events > 0);
        assert!(
            c.stats().max_window_migrations <= cfg.migration_cap as u64,
            "voluntary migrations {} exceeded cap {}",
            c.stats().max_window_migrations,
            cfg.migration_cap
        );
    }

    #[test]
    fn generator_streams_apply_cleanly() {
        for profile in [
            StreamProfile::Bursty,
            StreamProfile::Diurnal,
            StreamProfile::FlapStorm,
        ] {
            let net = builders::hypercube(3);
            let cfg = ChurnConfig {
                load_bound: 4,
                ..ChurnConfig::default()
            };
            let mut c = ChurnController::new(net.clone(), cfg.clone()).unwrap();
            let stream = EventStream::new(net, profile, 42, 1500, cfg.load_bound);
            let mut rejected = 0u64;
            for ev in stream {
                if c.ingest(&ev).is_err() {
                    rejected += 1;
                }
                c.validate().unwrap();
            }
            // The generator mirrors controller state, so nearly every
            // event must apply (a few capacity races are tolerated).
            assert!(
                rejected <= 5,
                "{}: {rejected} events rejected",
                profile.name()
            );
        }
    }

    #[test]
    fn board_storm_emits_correlated_faults_and_stays_valid() {
        use oregami_topology::MachineModel;
        // 4 boards × 2×2 mesh = 16 procs, torus between boards.
        let lowered = MachineModel::parse("mesh-boards:2x2x2x2").unwrap().lower();
        let cfg = ChurnConfig {
            load_bound: 4,
            ..ChurnConfig::default()
        };
        let mut c = ChurnController::new(lowered.net.clone(), cfg.clone())
            .unwrap()
            .with_domains(lowered.domains.clone());
        let stream = EventStream::new(
            lowered.net.clone(),
            StreamProfile::BoardStorm,
            17,
            1200,
            cfg.load_bound,
        )
        .with_domains(lowered.domains.clone());
        let board_size = lowered.net.num_procs() / lowered.domains.num_domains();
        let mut board_faults = 0u64;
        let mut board_recovers = 0u64;
        let mut rejected = 0u64;
        for ev in stream {
            match &ev {
                ChurnEvent::Fault { procs, .. } if procs.len() == board_size => {
                    // a correlated whole-board loss names one domain
                    let d = lowered.domains.domain_of(procs[0]);
                    assert!(procs.iter().all(|&p| lowered.domains.domain_of(p) == d));
                    board_faults += 1;
                }
                ChurnEvent::Recover { procs, .. } if procs.len() == board_size => {
                    board_recovers += 1;
                }
                _ => {}
            }
            if c.ingest(&ev).is_err() {
                rejected += 1;
            }
            c.validate().unwrap();
        }
        assert!(board_faults >= 1, "storm never lost a board");
        assert!(board_recovers >= 1, "storm never swapped a board back");
        assert!(rejected <= 5, "{rejected} events rejected");
    }

    #[test]
    fn same_stream_is_deterministic() {
        let run = || {
            let net = builders::hypercube(3);
            let cfg = ChurnConfig {
                load_bound: 4,
                probe_interval: 16,
                ..ChurnConfig::default()
            };
            let mut c = ChurnController::new(net.clone(), cfg.clone()).unwrap();
            let stream = EventStream::new(net, StreamProfile::Bursty, 99, 1200, cfg.load_bound);
            for ev in stream {
                let _ = c.ingest(&ev);
            }
            c.state_record()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_record_round_trips() {
        let cfg = ChurnConfig {
            load_bound: 3,
            state_volume: 7,
            ewma_shift: 2,
            debounce_events: 10,
            migration_cap: 5,
            window_events: 100,
            probe_interval: 9,
            probe_steps: 123,
            escalate_threshold_pct: 250,
        };
        let parsed = ChurnConfig::parse_record(&cfg.to_record()).unwrap();
        assert_eq!(parsed, cfg);
        assert!(ChurnConfig::parse_record("nonsense").is_err());
        assert!(ChurnConfig::parse_record("config bound=zero").is_err());
    }

    #[test]
    fn voluntary_migration_improves_comm_cost() {
        // Two heavy communicators placed far apart by interleaving
        // spawns; the hysteresis policy should eventually pull them
        // together.
        let net = builders::hypercube(3);
        let cfg = ChurnConfig {
            load_bound: 2,
            probe_interval: 4,
            debounce_events: 4,
            migration_cap: 8,
            window_events: 1024,
            ewma_shift: 1,
            ..ChurnConfig::default()
        };
        let mut c = ChurnController::new(net, cfg).unwrap();
        // Root spreads; then a far child with a fat edge to task 0.
        for t in 0..6 {
            c.ingest(&ChurnEvent::Spawn {
                task: t,
                parent: None,
                load: 1,
                volume: 0,
            })
            .unwrap();
        }
        c.ingest(&ChurnEvent::Spawn {
            task: 6,
            parent: Some(0),
            load: 1,
            volume: 0,
        })
        .unwrap();
        // Manually widen the distance by faulting nothing — instead give
        // 6 a fat edge via a fresh spawn from 5 that lands far from 0.
        c.ingest(&ChurnEvent::Spawn {
            task: 7,
            parent: Some(5),
            load: 1,
            volume: 50,
        })
        .unwrap();
        let before = c.total_comm_cost();
        // Load ticks advance the event counter to decision points.
        for _ in 0..64 {
            c.ingest(&ChurnEvent::Load { task: 7, load: 2 }).unwrap();
            c.validate().unwrap();
        }
        let after = c.total_comm_cost();
        assert!(
            after <= before,
            "hysteresis made things worse: {before} -> {after}"
        );
    }
}
