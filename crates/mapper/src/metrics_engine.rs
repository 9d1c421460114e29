//! The incremental METRICS engine: delta-driven metric recomputation.
//!
//! The paper's METRICS component was an *interactive* tool — every
//! click-and-drag remap recomputed load balance, dilation, contention, and
//! completion time (paper §5). Batch recomputation pays
//! `O(phases × edges × path-length)` per edit; this module keeps the
//! metric state in per-phase and per-processor **ledgers** and updates
//! only the entries an edit's affected edges touch, so the recompute loop
//! behind every edit, repair probe, and remap comparison is proportional
//! to the edit, not to the mapping.
//!
//! The engine owns:
//!
//! * per-phase link ledgers — per-link message counts and volumes, the
//!   edge dilation vector, and the phase's dilation sum;
//! * per-processor compute ledgers — task counts, summed execution time,
//!   and per-execution-phase time;
//! * the IPC split (crossing vs internalised volume);
//! * incrementally maintained aggregates, each amortised O(1) per touched
//!   entry: a histogram of edges per hop count gives each phase's maximum
//!   dilation as its highest non-empty bucket; the link maxima (contention
//!   and volume per phase, the global busiest link) and the processor
//!   maxima (execution time, per-execution-phase time) each keep how many
//!   entries hold the maximum, so a ledger is marked dirty, and rescanned
//!   once at the next [`refresh`](MetricsEngine::snapshot), only when the
//!   *last* entry at its maximum drops.
//!
//! [`MetricsEngine::apply`] takes an [`Edit`] — `Reassign`, `Reroute`, or
//! `Fault` — and returns a [`MetricsDelta`] carrying the metric snapshot
//! before and after. Every edit is atomic: it either applies fully or
//! returns an [`EditError`] leaving the engine untouched. Each applied
//! edit pushes an undo record, and [`MetricsEngine::undo`] reverts the
//! most recent one — the probe-and-revert primitive the mapper's search
//! loops (`repair`, `remap`, the fallback-chain ranking) are built on.
//! [`MetricsEngine::cost_floor_without`] gives those loops an exact lower
//! bound on every reassign of one task, so a scan that cannot beat the
//! incumbent is never started.
//!
//! Ownership is copy-on-write: the engine holds the task graph, network
//! and mapping as [`Cow`]s. The borrowed constructors ("build engine,
//! read report", repair and churn probes) clone nothing; the first edit
//! clones the mapping, and a `Fault` edit swaps in an owned degraded
//! network. [`MetricsEngine::try_new_owned`] takes all three by value and
//! yields a `MetricsEngine<'static>` a long-lived session can hold.

use crate::budget::{Budget, Completion};
use crate::mapping::{Mapping, MappingError};
use oregami_graph::{PhaseExpr, TaskGraph};
use oregami_topology::{FaultSet, Network, ProcId, RouteTable, TopologyError};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The synchronous communication/computation cost model (paper §5).
///
/// Lives here (rather than in `oregami-metrics`) so the mapper's search
/// loops and the metrics views rank candidates under the *same* model;
/// `oregami_metrics::CostModel` re-exports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Time to move one volume unit over one link.
    pub byte_time: u64,
    /// Per-hop latency added for the longest route of the phase.
    pub hop_latency: u64,
    /// Fixed per-phase startup cost (software overhead).
    pub startup: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            byte_time: 1,
            hop_latency: 1,
            startup: 0,
        }
    }
}

/// One interactive edit of a mapping — the engine's unit of change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Move `task` to `proc`, re-routing every incident edge along a
    /// deterministic shortest path (exactly [`Mapping::reassign`]).
    Reassign {
        /// The task to move.
        task: usize,
        /// Its new processor.
        proc: ProcId,
    },
    /// Replace one edge's route with an explicit path (exactly
    /// [`Mapping::reroute`]; the path is checked).
    Reroute {
        /// Phase of the edge.
        phase: usize,
        /// Edge index within the phase.
        edge: usize,
        /// The new processor path, sender's processor first.
        path: Vec<ProcId>,
    },
    /// Degrade the network by a fault set; routes broken by the faults
    /// are re-routed along surviving shortest paths. Errors (leaving the
    /// engine untouched) if a task sits on a processor the faults kill
    /// or the survivors are partitioned.
    Fault(FaultSet),
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::Reassign { task, proc } => write!(f, "reassign task {task} -> proc {}", proc.0),
            Edit::Reroute { phase, edge, path } => {
                write!(f, "reroute phase {phase} edge {edge} via {} hops", path.len().saturating_sub(1))
            }
            Edit::Fault(fs) => {
                let procs: Vec<u32> = fs.procs().map(|p| p.0).collect();
                let links: Vec<u32> = fs.links().map(|l| l.0).collect();
                write!(f, "fault procs {procs:?} links {links:?}")
            }
        }
    }
}

/// Why an edit could not be applied. The engine state is unchanged on
/// every variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// `Reassign` named a task the graph does not have.
    TaskOutOfRange {
        /// The offending task index.
        task: usize,
        /// Number of tasks in the graph.
        num_tasks: usize,
    },
    /// `Reroute` named a phase the graph does not have.
    PhaseOutOfRange {
        /// The offending phase index.
        phase: usize,
        /// Number of communication phases.
        num_phases: usize,
    },
    /// `Reroute` named an edge the phase does not have.
    EdgeOutOfRange {
        /// Phase of the offending edge.
        phase: usize,
        /// The offending edge index.
        edge: usize,
        /// Number of edges in the phase.
        num_edges: usize,
    },
    /// A `Fault` would kill a processor that still hosts a task; migrate
    /// the task first (or use `repair_mapping`, which does).
    TaskOnDeadProc {
        /// The stranded task.
        task: usize,
        /// Its (newly dead) processor.
        proc: ProcId,
    },
    /// The edit produced or required an invalid mapping element.
    Mapping(MappingError),
    /// The network rejected the edit (bad ids, or a fault partitioned
    /// the survivors).
    Topology(TopologyError),
    /// No surviving route exists between two processors the edit needs
    /// to connect.
    Unroutable {
        /// Route source.
        from: ProcId,
        /// Route destination.
        to: ProcId,
    },
    /// [`MetricsEngine::apply_budgeted`]: the budget was already spent
    /// or cancelled before the edit started.
    Budget(Completion),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::TaskOutOfRange { task, num_tasks } => {
                write!(f, "task {task} out of range (graph has {num_tasks})")
            }
            EditError::PhaseOutOfRange { phase, num_phases } => {
                write!(f, "phase {phase} out of range (graph has {num_phases})")
            }
            EditError::EdgeOutOfRange { phase, edge, num_edges } => {
                write!(f, "edge {edge} out of range (phase {phase} has {num_edges})")
            }
            EditError::TaskOnDeadProc { task, proc } => {
                write!(f, "task {task} is hosted on failed {proc:?}; migrate it before the fault")
            }
            EditError::Mapping(e) => write!(f, "mapping: {e}"),
            EditError::Topology(e) => write!(f, "topology: {e}"),
            EditError::Unroutable { from, to } => {
                write!(f, "no surviving route {from:?} -> {to:?}")
            }
            EditError::Budget(c) => write!(f, "budget: {c}"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<MappingError> for EditError {
    fn from(e: MappingError) -> Self {
        EditError::Mapping(e)
    }
}

impl From<TopologyError> for EditError {
    fn from(e: TopologyError) -> Self {
        EditError::Topology(e)
    }
}

/// The derived metric values the engine exposes after any edit — the
/// numbers the paper's METRICS display showed per recompute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Busiest link's total volume across all phases.
    pub max_link_volume: u64,
    /// Average dilation over every edge of every phase (×1000).
    pub avg_dilation_millis: u64,
    /// Maximum dilation across all phases.
    pub max_dilation: usize,
    /// Maximum per-link message contention over all phases.
    pub max_contention: u64,
    /// Total interprocessor communication volume.
    pub total_ipc: u64,
    /// Volume internalised by co-location.
    pub internalized_volume: u64,
    /// Maximum per-processor execution time.
    pub max_exec_time: u64,
    /// Load-imbalance ratio ×1000 (max/mean of per-processor exec time).
    pub imbalance_millis: u64,
    /// Completion-time estimate (None without a phase expression).
    pub completion_time: Option<u64>,
    /// Communication share of the completion time.
    pub comm_time: Option<u64>,
}

/// What one edit changed: the metric snapshot before and after, plus how
/// many edge routes the edit touched (the budget charge unit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsDelta {
    /// Metrics before the edit.
    pub before: MetricSnapshot,
    /// Metrics after the edit.
    pub after: MetricSnapshot,
    /// Edge routes the edit rewrote.
    pub edges_touched: usize,
}

/// A load vector (per link or per processor) with its maximum and how
/// many entries hold it. While the owner's dirty flag is clear, `set` keeps
/// both exact in O(1); it raises the flag only when the last entry at the
/// maximum drops, and the owner's next refresh rescans.
#[derive(Clone, Debug)]
struct Ledger {
    entries: Vec<u64>,
    max: u64,
    at_max: usize,
}

impl Ledger {
    /// A ledger over `entries` whose maximum is unknown until
    /// [`Ledger::rescan`].
    fn new(entries: Vec<u64>) -> Ledger {
        Ledger {
            entries,
            max: 0,
            at_max: 0,
        }
    }

    fn rescan(&mut self) {
        self.max = self.entries.iter().copied().max().unwrap_or(0);
        self.at_max = self.entries.iter().filter(|&&x| x == self.max).count();
    }

    /// Sets entry `i` to `new`.
    fn set(&mut self, i: usize, new: u64, dirty: &mut bool) {
        let old = std::mem::replace(&mut self.entries[i], new);
        if *dirty || new == old {
            return;
        }
        if new > self.max {
            self.max = new;
            self.at_max = 1;
        } else if new == self.max {
            self.at_max += 1;
        } else if old == self.max {
            self.at_max -= 1;
            *dirty = self.at_max == 0;
        }
    }
}

/// Per-phase link-load ledger plus its aggregates.
#[derive(Clone, Debug)]
struct PhaseLedger {
    /// Dilation of every edge of the phase (hops; 0 = co-located).
    dilations: Vec<usize>,
    /// `dil_hist[d]` = number of `dilations` entries equal to `d`.
    dil_hist: Vec<usize>,
    /// max(dilations): the highest non-empty `dil_hist` bucket, always valid.
    max_dilation: usize,
    /// Σ dilations, maintained incrementally.
    dil_sum: u64,
    /// Messages crossing each link during the phase; its maximum, the
    /// phase's contention, is valid when `!dirty`.
    link_messages: Ledger,
    /// Volume crossing each link during the phase; its maximum is valid
    /// when `!dirty`.
    link_volume: Ledger,
    /// Set when an edit lost a link maximum; cleared by the next refresh.
    dirty: bool,
}

impl PhaseLedger {
    /// A ledger over `dilations` with nothing on its links yet.
    fn new(num_links: usize, dilations: Vec<usize>, dil_sum: u64) -> PhaseLedger {
        let max_dilation = dilations.iter().copied().max().unwrap_or(0);
        let mut dil_hist = vec![0; max_dilation + 1];
        for &d in &dilations {
            dil_hist[d] += 1;
        }
        PhaseLedger {
            dilations,
            dil_hist,
            max_dilation,
            dil_sum,
            link_messages: Ledger::new(vec![0; num_links]),
            link_volume: Ledger::new(vec![0; num_links]),
            dirty: true,
        }
    }

    /// Sets edge `i`'s dilation to `d`, moving it between histogram buckets.
    fn set_dilation(&mut self, i: usize, d: usize) {
        let old = std::mem::replace(&mut self.dilations[i], d);
        self.dil_hist[old] -= 1;
        if d >= self.dil_hist.len() {
            self.dil_hist.resize(d + 1, 0);
        }
        self.dil_hist[d] += 1;
        if d > self.max_dilation {
            self.max_dilation = d;
        }
        while self.max_dilation > 0 && self.dil_hist[self.max_dilation] == 0 {
            self.max_dilation -= 1;
        }
    }
}

/// Everything a `Fault` edit replaces wholesale — snapshotted for undo
/// (faults re-identify link ids, so their ledgers cannot be patched
/// entry-wise; they are rare, and the snapshot is `O(links × phases)`).
#[derive(Clone, Debug)]
struct EngineState {
    net: Network,
    table: Option<Arc<RouteTable>>,
    mapping: Mapping,
    phases: Vec<PhaseLedger>,
    total_link_volume: Ledger,
    tasks_per_proc: Vec<usize>,
    exec_time_per_proc: Ledger,
    exec_per_proc: Vec<Ledger>,
    total_ipc: u64,
    internalized: u64,
}

/// The inverse of one applied edit.
#[derive(Clone, Debug)]
enum UndoRecord {
    /// Put `task` back on `old_proc` and restore the displaced routes.
    Reassign {
        task: usize,
        old_proc: ProcId,
        old_routes: Vec<(usize, usize, Vec<ProcId>)>,
    },
    /// Restore one edge's previous route.
    Reroute {
        phase: usize,
        edge: usize,
        old_path: Vec<ProcId>,
    },
    /// Restore the full pre-fault engine state.
    Fault(Box<EngineState>),
}

/// The stateful incremental METRICS engine. See the module docs.
#[derive(Clone, Debug)]
pub struct MetricsEngine<'a> {
    tg: Cow<'a, TaskGraph>,
    net: Cow<'a, Network>,
    mapping: Cow<'a, Mapping>,
    model: CostModel,
    /// Shortest-path table for the current network; built lazily on the
    /// first `Reassign` (the batch read-only path never pays the BFS),
    /// seeded by [`MetricsEngine::try_new_with_table`], replaced by
    /// `Fault` edits with the degraded masked table.
    table: Option<Arc<RouteTable>>,
    /// `incident[incident_at[t]..incident_at[t + 1]]` = every `(phase,
    /// edge)` touching task `t`, in phase then edge order — precomputed so
    /// a reassign walks its incident edges, not the graph.
    incident: Vec<(usize, usize)>,
    incident_at: Vec<usize>,
    phases: Vec<PhaseLedger>,
    /// Volume over each link across all phases; its maximum is valid when
    /// `!total_dirty`.
    total_link_volume: Ledger,
    total_dirty: bool,
    tasks_per_proc: Vec<usize>,
    /// Execution time per processor; its maximum is valid when
    /// `!exec_dirty`.
    exec_time_per_proc: Ledger,
    /// `exec_per_proc[x]` = execution time of phase `x` per processor;
    /// each maximum, the phase's slot cost, is valid when `!exec_dirty`.
    exec_per_proc: Vec<Ledger>,
    /// Σ `exec_time_per_proc`; a reassign moves time, never changes it.
    exec_total: u64,
    exec_dirty: bool,
    total_ipc: u64,
    internalized: u64,
    undo_log: Vec<UndoRecord>,
}

impl<'a> MetricsEngine<'a> {
    /// Builds the engine over a routed mapping, validating it first. The
    /// borrow-only construction is the batch `try_analyze_mapping` path:
    /// nothing is cloned until the first edit.
    pub fn try_new(
        tg: &'a TaskGraph,
        net: &'a Network,
        mapping: &'a Mapping,
        model: &CostModel,
    ) -> Result<MetricsEngine<'a>, MappingError> {
        Self::build(Cow::Borrowed(tg), Cow::Borrowed(net), Cow::Borrowed(mapping), model, None)
    }

    /// [`MetricsEngine::try_new`] seeded with a prebuilt route table —
    /// hot paths with a [`oregami_topology::RouteTableCache`] in hand
    /// (repair probes, remap walks) skip the lazy BFS. The table must
    /// belong to `net` (for a degraded network: its masked table).
    pub fn try_new_with_table(
        tg: &'a TaskGraph,
        net: &'a Network,
        mapping: &'a Mapping,
        model: &CostModel,
        table: Arc<RouteTable>,
    ) -> Result<MetricsEngine<'a>, MappingError> {
        Self::build(
            Cow::Borrowed(tg),
            Cow::Borrowed(net),
            Cow::Borrowed(mapping),
            model,
            Some(table),
        )
    }

    /// The owning mode: the engine takes its inputs by value and borrows
    /// nothing, so it can outlive the call that built them (an
    /// interactive session held across requests). Edits cost exactly
    /// what they cost a borrowed engine.
    pub fn try_new_owned(
        tg: TaskGraph,
        net: Network,
        mapping: Mapping,
        model: &CostModel,
        table: Arc<RouteTable>,
    ) -> Result<MetricsEngine<'static>, MappingError> {
        MetricsEngine::build(
            Cow::Owned(tg),
            Cow::Owned(net),
            Cow::Owned(mapping),
            model,
            Some(table),
        )
    }

    fn build(
        tg: Cow<'a, TaskGraph>,
        net: Cow<'a, Network>,
        mapping: Cow<'a, Mapping>,
        model: &CostModel,
        table: Option<Arc<RouteTable>>,
    ) -> Result<MetricsEngine<'a>, MappingError> {
        mapping.validate(&tg, &net)?;
        let (incident, incident_at) = incidence(&tg);
        let mut engine = MetricsEngine {
            tg,
            net,
            mapping,
            model: model.clone(),
            table,
            incident,
            incident_at,
            phases: Vec::new(),
            total_link_volume: Ledger::new(Vec::new()),
            total_dirty: true,
            tasks_per_proc: Vec::new(),
            exec_time_per_proc: Ledger::new(Vec::new()),
            exec_per_proc: Vec::new(),
            exec_total: 0,
            exec_dirty: true,
            total_ipc: 0,
            internalized: 0,
            undo_log: Vec::new(),
        };
        engine.rebuild_ledgers();
        engine.refresh();
        Ok(engine)
    }

    /// Recomputes every ledger from the current network/mapping — the
    /// from-scratch path used at construction and after `Fault` edits
    /// (whose link re-identification invalidates link-indexed ledgers).
    fn rebuild_ledgers(&mut self) {
        let tg: &TaskGraph = &self.tg;
        let net: &Network = &self.net;
        let mapping: &Mapping = &self.mapping;
        let nl = net.num_links();
        let np = net.num_procs();

        // `validate` also accepts route-less mappings (load-only analysis);
        // those get zeroed link ledgers.
        let routed = !mapping.routes.is_empty();
        let mut total_link_volume = vec![0u64; nl];
        let mut phases = Vec::with_capacity(tg.num_phases());
        for (k, phase) in tg.comm_phases.iter().enumerate() {
            if !routed {
                phases.push(PhaseLedger::new(nl, vec![0; phase.edges.len()], 0));
                continue;
            }
            let dilations: Vec<usize> = mapping.routes[k].iter().map(|p| p.len() - 1).collect();
            let dil_sum = dilations.iter().map(|&d| d as u64).sum();
            let mut led = PhaseLedger::new(nl, dilations, dil_sum);
            for (i, e) in phase.edges.iter().enumerate() {
                let path = &mapping.routes[k][i];
                for w in path.windows(2) {
                    let l = net
                        .link_between(w[0], w[1])
                        .expect("validated route")
                        .index();
                    led.link_messages.entries[l] += 1;
                    let v = &mut led.link_volume.entries[l];
                    *v = v.saturating_add(e.volume);
                    total_link_volume[l] = total_link_volume[l].saturating_add(e.volume);
                }
            }
            phases.push(led);
        }

        let mut tasks_per_proc = vec![0usize; np];
        let mut exec_time_per_proc = vec![0u64; np];
        let mut exec_per_proc = vec![vec![0u64; np]; tg.exec_phases.len()];
        for t in 0..tg.num_tasks() {
            let p = mapping.proc_of(t).index();
            tasks_per_proc[p] += 1;
            exec_time_per_proc[p] += tg.exec_cost(t.into());
            for (x, ph) in tg.exec_phases.iter().enumerate() {
                exec_per_proc[x][p] += ph.cost.of(t.into());
            }
        }

        let mut total_ipc = 0u64;
        let mut internalized = 0u64;
        for (_, e) in tg.all_edges() {
            if mapping.proc_of(e.src.index()) == mapping.proc_of(e.dst.index()) {
                internalized = internalized.saturating_add(e.volume);
            } else {
                total_ipc = total_ipc.saturating_add(e.volume);
            }
        }

        self.phases = phases;
        self.total_link_volume = Ledger::new(total_link_volume);
        self.total_dirty = true;
        self.tasks_per_proc = tasks_per_proc;
        self.exec_time_per_proc = Ledger::new(exec_time_per_proc);
        self.exec_per_proc = exec_per_proc.into_iter().map(Ledger::new).collect();
        self.exec_dirty = true;
        self.total_ipc = total_ipc;
        self.internalized = internalized;
    }

    /// Re-scans the maxima of dirty ledgers. Every public entry point
    /// leaves the engine refreshed, so accessors never see stale maxima.
    fn refresh(&mut self) {
        for led in &mut self.phases {
            if led.dirty {
                led.link_messages.rescan();
                led.link_volume.rescan();
                led.dirty = false;
            }
        }
        if self.total_dirty {
            self.total_link_volume.rescan();
            self.total_dirty = false;
        }
        if self.exec_dirty {
            self.exec_time_per_proc.rescan();
            self.exec_total = self.exec_time_per_proc.entries.iter().sum();
            self.exec_per_proc.iter_mut().for_each(Ledger::rescan);
            self.exec_dirty = false;
        }
    }

    fn ensure_table(&mut self) -> Result<&RouteTable, EditError> {
        if self.table.is_none() {
            let t = RouteTable::try_new(&self.net).map_err(EditError::Topology)?;
            self.table = Some(Arc::new(t));
        }
        Ok(self.table.as_deref().expect("just built"))
    }

    // ---- edits ----

    /// Applies one edit, returning the before/after metric delta.
    /// Atomic: on `Err` the engine is unchanged. Pushes an undo record.
    pub fn apply(&mut self, edit: Edit) -> Result<MetricsDelta, EditError> {
        match edit {
            Edit::Reassign { task, proc } => self.apply_reassign(task, proc),
            Edit::Reroute { phase, edge, path } => self.apply_reroute(phase, edge, path),
            Edit::Fault(fs) => self.apply_fault(&fs),
        }
    }

    /// [`MetricsEngine::apply`] under a [`Budget`]: polls for
    /// cancellation/exhaustion before starting (returning
    /// [`EditError::Budget`] with the engine untouched) and charges one
    /// step per touched edge route plus one for the edit itself.
    pub fn apply_budgeted(&mut self, edit: Edit, budget: &Budget) -> Result<MetricsDelta, EditError> {
        if let Some(c) = budget.poll() {
            return Err(EditError::Budget(c));
        }
        let delta = self.apply(edit)?;
        budget.charge(delta.edges_touched as u64 + 1);
        Ok(delta)
    }

    /// Reverts the most recent applied edit, returning the delta of the
    /// reversion, or `None` when nothing is left to undo.
    pub fn undo(&mut self) -> Option<MetricsDelta> {
        let rec = self.undo_log.pop()?;
        let before = self.snapshot();
        let edges_touched = match rec {
            UndoRecord::Reassign {
                task,
                old_proc,
                old_routes,
            } => {
                let n = old_routes.len();
                self.install_reassign(task, old_proc, old_routes);
                n
            }
            UndoRecord::Reroute {
                phase,
                edge,
                old_path,
            } => {
                self.install_route(phase, edge, old_path);
                1
            }
            UndoRecord::Fault(state) => {
                let touched = self.tg.num_edges();
                let EngineState {
                    net,
                    table,
                    mapping,
                    phases,
                    total_link_volume,
                    tasks_per_proc,
                    exec_time_per_proc,
                    exec_per_proc,
                    total_ipc,
                    internalized,
                } = *state;
                self.net = Cow::Owned(net);
                self.table = table;
                self.mapping = Cow::Owned(mapping);
                self.phases = phases;
                self.total_link_volume = total_link_volume;
                self.total_dirty = true;
                self.tasks_per_proc = tasks_per_proc;
                self.exec_time_per_proc = exec_time_per_proc;
                self.exec_per_proc = exec_per_proc;
                self.exec_dirty = true;
                self.total_ipc = total_ipc;
                self.internalized = internalized;
                touched
            }
        };
        self.refresh();
        let after = self.snapshot();
        Some(MetricsDelta {
            before,
            after,
            edges_touched,
        })
    }

    /// Number of applied edits available to [`MetricsEngine::undo`].
    pub fn undo_depth(&self) -> usize {
        self.undo_log.len()
    }

    fn apply_reassign(&mut self, task: usize, proc: ProcId) -> Result<MetricsDelta, EditError> {
        if task >= self.tg.num_tasks() {
            return Err(EditError::TaskOutOfRange {
                task,
                num_tasks: self.tg.num_tasks(),
            });
        }
        if proc.index() >= self.net.num_procs() {
            return Err(EditError::Mapping(MappingError::ProcOutOfRange {
                task,
                proc,
                num_procs: self.net.num_procs(),
            }));
        }
        // Compute every replacement route before mutating anything, so a
        // routing failure leaves the engine untouched. Route-less mappings
        // (load-only analysis) move the assignment alone, like
        // [`Mapping::reassign`].
        let incident = self.incident_at[task]..self.incident_at[task + 1];
        let mut new_routes = Vec::with_capacity(incident.len());
        if !self.mapping.routes.is_empty() {
            self.ensure_table()?;
            let table = self.table.as_deref().expect("ensured above");
            let tg: &TaskGraph = &self.tg;
            let net: &Network = &self.net;
            let mapping: &Mapping = &self.mapping;
            for &(k, i) in &self.incident[incident] {
                let e = &tg.comm_phases[k].edges[i];
                let from = if e.src.index() == task { proc } else { mapping.assignment[e.src.index()] };
                let to = if e.dst.index() == task { proc } else { mapping.assignment[e.dst.index()] };
                let path = table.first_path(net, from, to);
                if path.is_empty() {
                    return Err(EditError::Unroutable { from, to });
                }
                new_routes.push((k, i, path));
            }
        }

        let before = self.snapshot();
        let old_proc = self.mapping.assignment[task];
        let edges_touched = new_routes.len();
        let old_routes = self.install_reassign(task, proc, new_routes);
        self.undo_log.push(UndoRecord::Reassign {
            task,
            old_proc,
            old_routes,
        });
        self.refresh();
        let after = self.snapshot();
        Ok(MetricsDelta {
            before,
            after,
            edges_touched,
        })
    }

    /// Moves `task` to `new_proc` installing the given incident-edge
    /// routes, updating every touched ledger entry; returns the displaced
    /// routes (the undo payload). Shared by apply and undo — undo is a
    /// reassign back to the old processor with the recorded old routes.
    fn install_reassign(
        &mut self,
        task: usize,
        new_proc: ProcId,
        new_routes: Vec<(usize, usize, Vec<ProcId>)>,
    ) -> Vec<(usize, usize, Vec<ProcId>)> {
        let tg: &TaskGraph = &self.tg;
        let old_proc = self.mapping.assignment[task];
        let (from, to) = (old_proc.index(), new_proc.index());

        // per-processor compute ledgers
        self.tasks_per_proc[from] -= 1;
        self.tasks_per_proc[to] += 1;
        let dirty = &mut self.exec_dirty;
        let costs = std::iter::once(tg.exec_cost(task.into()))
            .chain(tg.exec_phases.iter().map(|ph| ph.cost.of(task.into())));
        let ledgers = std::iter::once(&mut self.exec_time_per_proc).chain(&mut self.exec_per_proc);
        for (led, c) in ledgers.zip(costs) {
            led.set(from, led.entries[from] - c, dirty);
            led.set(to, led.entries[to] + c, dirty);
        }

        // IPC split: colocation of each incident edge before vs after the
        // move (driven by the incidence list, not the routes, so the split
        // stays right for route-less mappings too). Only `task` moves, so
        // an edge is co-located before (after) the move iff its other end
        // sits on `old_proc` (`new_proc`); a self-edge always is.
        self.mapping.to_mut().assignment[task] = new_proc;
        for &(k, i) in &self.incident[self.incident_at[task]..self.incident_at[task + 1]] {
            let e = &tg.comm_phases[k].edges[i];
            let other = if e.src.index() == task {
                e.dst.index()
            } else {
                e.src.index()
            };
            if other == task {
                continue;
            }
            let at = self.mapping.assignment[other];
            match (at == old_proc, at == new_proc) {
                (true, false) => {
                    self.internalized = self.internalized.saturating_sub(e.volume);
                    self.total_ipc = self.total_ipc.saturating_add(e.volume);
                }
                (false, true) => {
                    self.total_ipc = self.total_ipc.saturating_sub(e.volume);
                    self.internalized = self.internalized.saturating_add(e.volume);
                }
                _ => {}
            }
        }

        let mut old_routes = Vec::with_capacity(new_routes.len());
        for (k, i, path) in new_routes {
            let old = self.install_route(k, i, path);
            old_routes.push((k, i, old));
        }
        old_routes
    }

    /// Swaps one edge's route in the mapping and patches the touched
    /// ledger entries; returns the displaced path.
    fn install_route(&mut self, k: usize, i: usize, path: Vec<ProcId>) -> Vec<ProcId> {
        self.unledger_route(k, i, path.len() - 1);
        let old = std::mem::replace(&mut self.mapping.to_mut().routes[k][i], path);
        self.ledger_route(k, i);
        old
    }

    /// Takes the route currently in the mapping for edge `(k, i)` out of
    /// the ledgers; `d_next` is the dilation the edge holds until
    /// [`ledger_route`](Self::ledger_route) runs again (the replacement
    /// route's, or 0 for an edge lifted out altogether). Maxima only
    /// shrink on this side: the dilation histogram finds its new top
    /// itself, and a link ledger is marked dirty (rescanned at the next
    /// refresh) only when the last link at its maximum drops, so the
    /// common edit keeps every aggregate in O(1).
    fn unledger_route(&mut self, k: usize, i: usize, d_next: usize) {
        let net: &Network = &self.net;
        let volume = self.tg.comm_phases[k].edges[i].volume;
        let led = &mut self.phases[k];
        let old = &self.mapping.routes[k][i];
        led.set_dilation(i, d_next);
        led.dil_sum -= (old.len() - 1) as u64;
        for w in old.windows(2) {
            let l = net.link_between(w[0], w[1]).expect("ledgered route").index();
            let m = led.link_messages.entries[l] - 1;
            led.link_messages.set(l, m, &mut led.dirty);
            let v = led.link_volume.entries[l].saturating_sub(volume);
            led.link_volume.set(l, v, &mut led.dirty);
            let t = self.total_link_volume.entries[l].saturating_sub(volume);
            self.total_link_volume.set(l, t, &mut self.total_dirty);
        }
    }

    /// Enters the route currently in the mapping for edge `(k, i)` into
    /// the ledgers. Maxima only grow on this side, so a clean ledger
    /// stays clean under O(1) updates.
    fn ledger_route(&mut self, k: usize, i: usize) {
        let net: &Network = &self.net;
        let volume = self.tg.comm_phases[k].edges[i].volume;
        let led = &mut self.phases[k];
        let new = &self.mapping.routes[k][i];
        let d_new = new.len() - 1;
        led.set_dilation(i, d_new);
        led.dil_sum += d_new as u64;
        for w in new.windows(2) {
            let l = net.link_between(w[0], w[1]).expect("checked route").index();
            let m = led.link_messages.entries[l] + 1;
            led.link_messages.set(l, m, &mut led.dirty);
            let v = led.link_volume.entries[l].saturating_add(volume);
            led.link_volume.set(l, v, &mut led.dirty);
            let t = self.total_link_volume.entries[l].saturating_add(volume);
            self.total_link_volume.set(l, t, &mut self.total_dirty);
        }
    }

    fn apply_reroute(
        &mut self,
        phase: usize,
        edge: usize,
        path: Vec<ProcId>,
    ) -> Result<MetricsDelta, EditError> {
        if phase >= self.tg.num_phases() {
            return Err(EditError::PhaseOutOfRange {
                phase,
                num_phases: self.tg.num_phases(),
            });
        }
        let num_edges = self.tg.comm_phases[phase].edges.len();
        if edge >= num_edges {
            return Err(EditError::EdgeOutOfRange {
                phase,
                edge,
                num_edges,
            });
        }
        if self.mapping.routes.is_empty() {
            return Err(EditError::Mapping(MappingError::PhaseCountMismatch {
                got: 0,
                expected: self.tg.num_phases(),
            }));
        }
        // the same checks as Mapping::reroute, before any mutation
        let e = &self.tg.comm_phases[phase].edges[edge];
        if path.first() != Some(&self.mapping.assignment[e.src.index()]) {
            return Err(EditError::Mapping(MappingError::RouteStartsOffSender {
                phase,
                edge,
            }));
        }
        if path.last() != Some(&self.mapping.assignment[e.dst.index()]) {
            return Err(EditError::Mapping(MappingError::RouteEndsOffReceiver {
                phase,
                edge,
            }));
        }
        for w in path.windows(2) {
            if self.net.link_between(w[0], w[1]).is_none() {
                return Err(EditError::Mapping(MappingError::NotALink {
                    phase,
                    edge,
                    from: w[0],
                    to: w[1],
                }));
            }
        }

        let before = self.snapshot();
        let old_path = self.install_route(phase, edge, path);
        self.undo_log.push(UndoRecord::Reroute {
            phase,
            edge,
            old_path,
        });
        self.refresh();
        let after = self.snapshot();
        Ok(MetricsDelta {
            before,
            after,
            edges_touched: 1,
        })
    }

    fn apply_fault(&mut self, fs: &FaultSet) -> Result<MetricsDelta, EditError> {
        let degraded = self.net.degrade(fs).map_err(EditError::Topology)?;
        for (t, p) in self.mapping.assignment.iter().enumerate() {
            if !degraded.is_alive(*p) {
                return Err(EditError::TaskOnDeadProc { task: t, proc: *p });
            }
        }
        // Masked table over the survivors; errors if they are partitioned.
        let masked = degraded.route_table().map_err(EditError::Topology)?;

        // Replacement routes for everything the faults broke, computed
        // before mutation so the whole edit stays atomic.
        let mut replacements: Vec<(usize, usize, Vec<ProcId>)> = Vec::new();
        let routed = !self.mapping.routes.is_empty();
        for (k, phase) in self.tg.comm_phases.iter().enumerate().filter(|_| routed) {
            for (i, e) in phase.edges.iter().enumerate() {
                let path = &self.mapping.routes[k][i];
                let broken = path.iter().any(|&p| !degraded.is_alive(p))
                    || path
                        .windows(2)
                        .any(|w| degraded.network().link_between(w[0], w[1]).is_none());
                if broken {
                    let from = self.mapping.assignment[e.src.index()];
                    let to = self.mapping.assignment[e.dst.index()];
                    let new = masked.first_path(degraded.network(), from, to);
                    if new.is_empty() {
                        return Err(EditError::Unroutable { from, to });
                    }
                    replacements.push((k, i, new));
                }
            }
        }

        let before = self.snapshot();
        let edges_touched = replacements.len();
        self.undo_log.push(UndoRecord::Fault(Box::new(EngineState {
            net: (*self.net).clone(),
            table: self.table.clone(),
            mapping: (*self.mapping).clone(),
            phases: self.phases.clone(),
            total_link_volume: self.total_link_volume.clone(),
            tasks_per_proc: self.tasks_per_proc.clone(),
            exec_time_per_proc: self.exec_time_per_proc.clone(),
            exec_per_proc: self.exec_per_proc.clone(),
            total_ipc: self.total_ipc,
            internalized: self.internalized,
        })));

        {
            let mapping = self.mapping.to_mut();
            for (k, i, path) in replacements {
                mapping.routes[k][i] = path;
            }
        }
        self.net = Cow::Owned(degraded.network().clone());
        self.table = Some(Arc::new(masked));
        // Link ids were re-identified by the degradation: rebuild the
        // link-indexed ledgers from scratch (assignment-derived ledgers
        // are rebuilt too; they are unchanged but cheap).
        self.rebuild_ledgers();
        self.refresh();
        let after = self.snapshot();
        Ok(MetricsDelta {
            before,
            after,
            edges_touched,
        })
    }

    // ---- views ----

    /// The task graph the engine analyses.
    pub fn task_graph(&self) -> &TaskGraph {
        &self.tg
    }

    /// The current network (the degraded survivor network after `Fault`
    /// edits).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The current mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The cost model metrics are derived under.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Consumes the engine, returning the (possibly edited) mapping.
    pub fn into_mapping(self) -> Mapping {
        self.mapping.into_owned()
    }

    /// Number of communication phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Dilation of every edge of phase `k`.
    pub fn phase_dilations(&self, k: usize) -> &[usize] {
        &self.phases[k].dilations
    }

    /// Messages crossing each link during phase `k`.
    pub fn phase_link_messages(&self, k: usize) -> &[u64] {
        &self.phases[k].link_messages.entries
    }

    /// Volume crossing each link during phase `k`.
    pub fn phase_link_volume(&self, k: usize) -> &[u64] {
        &self.phases[k].link_volume.entries
    }

    /// Maximum dilation of phase `k`.
    pub fn phase_max_dilation(&self, k: usize) -> usize {
        self.phases[k].max_dilation
    }

    /// Maximum link contention of phase `k`.
    pub fn phase_max_contention(&self, k: usize) -> u64 {
        self.phases[k].link_messages.max
    }

    /// Average dilation of phase `k` (×1000).
    pub fn phase_avg_dilation_millis(&self, k: usize) -> u64 {
        let led = &self.phases[k];
        (led.dil_sum * 1000)
            .checked_div(led.dilations.len() as u64)
            .unwrap_or(0)
    }

    /// Total volume over each link across all phases.
    pub fn total_link_volume(&self) -> &[u64] {
        &self.total_link_volume.entries
    }

    /// Average dilation across every edge of every phase (×1000).
    pub fn avg_dilation_millis(&self) -> u64 {
        let sum: u64 = self.phases.iter().map(|p| p.dil_sum).sum();
        let count: u64 = self.phases.iter().map(|p| p.dilations.len() as u64).sum();
        (sum * 1000).checked_div(count).unwrap_or(0)
    }

    /// Maximum dilation across all phases.
    pub fn max_dilation(&self) -> usize {
        self.phases.iter().map(|p| p.max_dilation).max().unwrap_or(0)
    }

    /// Number of tasks hosted by each processor.
    pub fn tasks_per_proc(&self) -> &[usize] {
        &self.tasks_per_proc
    }

    /// Total execution time per processor.
    pub fn exec_time_per_proc(&self) -> &[u64] {
        &self.exec_time_per_proc.entries
    }

    /// Maximum per-processor execution time.
    pub fn max_exec_time(&self) -> u64 {
        self.exec_time_per_proc.max
    }

    /// Load-imbalance ratio ×1000 (max/mean; 0 without execution cost).
    pub fn imbalance_millis(&self) -> u64 {
        (self.max_exec_time().saturating_mul(1000).saturating_mul(self.net.num_procs() as u64))
            .checked_div(self.exec_total)
            .unwrap_or(0)
    }

    /// Total interprocessor communication volume.
    pub fn total_ipc(&self) -> u64 {
        self.total_ipc
    }

    /// Volume internalised by co-location.
    pub fn internalized_volume(&self) -> u64 {
        self.internalized
    }

    /// Cost of one occurrence of communication phase `k` under the cost
    /// model: 0 for a fully internalised phase, else `startup +
    /// busiest-link volume × byte_time + max hops × hop_latency`.
    pub fn comm_slot_cost(&self, k: usize) -> u64 {
        let led = &self.phases[k];
        if led.max_dilation == 0 {
            0
        } else {
            self.model
                .startup
                .saturating_add(led.link_volume.max.saturating_mul(self.model.byte_time))
                .saturating_add((led.max_dilation as u64).saturating_mul(self.model.hop_latency))
        }
    }

    /// Cost of one occurrence of execution phase `x`: the maximum over
    /// processors of their summed task cost in that phase.
    pub fn exec_slot_cost(&self, x: usize) -> u64 {
        self.exec_per_proc[x].max
    }

    /// `(completion_time, comm_time)` of one pass of the phase
    /// expression; `None` when the graph declares none.
    pub fn completion_times(&self) -> Option<(u64, u64)> {
        let expr = self.tg.phase_expr.as_ref()?;
        Some(self.walk(expr))
    }

    /// Walks the phase expression without expanding repetitions,
    /// returning `(total_time, comm_time)`.
    fn walk(&self, expr: &PhaseExpr) -> (u64, u64) {
        match expr {
            PhaseExpr::Idle => (0, 0),
            PhaseExpr::Comm(p) => {
                let c = self.comm_slot_cost(p.index());
                (c, c)
            }
            PhaseExpr::Exec(e) => (self.exec_slot_cost(e.index()), 0),
            PhaseExpr::Seq(a, b) => {
                let (ta, ca) = self.walk(a);
                let (tb, cb) = self.walk(b);
                (ta.saturating_add(tb), ca.saturating_add(cb))
            }
            PhaseExpr::Repeat(a, k) => {
                let (ta, ca) = self.walk(a);
                (ta.saturating_mul(*k), ca.saturating_mul(*k))
            }
            PhaseExpr::Par(a, b) => {
                // both sides run concurrently; the slot costs the longer
                // side (upper-bound model: resources assumed disjoint)
                let (ta, ca) = self.walk(a);
                let (tb, cb) = self.walk(b);
                (ta.max(tb), ca.max(cb))
            }
        }
    }

    /// The scalar ranking cost of the current mapping: the completion
    /// time when a phase expression exists, else the sum of the per-phase
    /// communication slot costs. This is the single cost the fallback
    /// chain ranks candidates by and the repair/remap probes minimise —
    /// the served candidate and the reported metrics always agree.
    pub fn scalar_cost(&self) -> u64 {
        match self.completion_times() {
            Some((total, _)) => total,
            None => (0..self.phases.len())
                .fold(0u64, |a, k| a.saturating_add(self.comm_slot_cost(k))),
        }
    }

    /// A lower bound on [`scalar_cost`](Self::scalar_cost) after *any*
    /// `Reassign { task, .. }`: the scalar cost of the current mapping
    /// with `task`'s incident routes and execution time lifted out of the
    /// ledgers. A reassign is exactly that lift followed by ledgering
    /// non-negative amounts back in; every slot cost is a maximum over
    /// ledger entries and the phase expression combines slots with `+`,
    /// `×k` and `max` only, so no placement of `task` can cost less. A
    /// search loop whose incumbent is already at the floor can skip the
    /// task's candidate scan without changing its outcome.
    ///
    /// The lift is put back before returning: ledgers, aggregates,
    /// mapping and undo log are as they were. Costs about one
    /// apply+undo probe.
    ///
    /// # Panics
    /// If `task` is out of range.
    pub fn cost_floor_without(&mut self, task: usize) -> u64 {
        let proc = self.mapping.assignment[task].index();
        // route-less mappings (load-only analysis) have nothing ledgered
        let lifted = if self.mapping.routes.is_empty() {
            0..0
        } else {
            self.incident_at[task]..self.incident_at[task + 1]
        };
        for idx in lifted.clone() {
            let (k, i) = self.incident[idx];
            self.unledger_route(k, i, 0);
        }
        for (led, ph) in self.exec_per_proc.iter_mut().zip(&self.tg.exec_phases) {
            let c = ph.cost.of(task.into());
            led.set(proc, led.entries[proc] - c, &mut self.exec_dirty);
        }
        self.refresh();
        let floor = self.scalar_cost();

        for idx in lifted {
            let (k, i) = self.incident[idx];
            self.ledger_route(k, i);
        }
        for (led, ph) in self.exec_per_proc.iter_mut().zip(&self.tg.exec_phases) {
            let c = ph.cost.of(task.into());
            led.set(proc, led.entries[proc] + c, &mut self.exec_dirty);
        }
        self.refresh();
        floor
    }

    /// The current derived metric values (what [`MetricsDelta`] carries
    /// on both sides of an edit).
    pub fn snapshot(&self) -> MetricSnapshot {
        let (completion_time, comm_time) = match self.completion_times() {
            Some((t, c)) => (Some(t), Some(c)),
            None => (None, None),
        };
        MetricSnapshot {
            max_link_volume: self.total_link_volume.max,
            avg_dilation_millis: self.avg_dilation_millis(),
            max_dilation: self.max_dilation(),
            max_contention: self
                .phases
                .iter()
                .map(|p| p.link_messages.max)
                .max()
                .unwrap_or(0),
            total_ipc: self.total_ipc,
            internalized_volume: self.internalized,
            max_exec_time: self.max_exec_time(),
            imbalance_millis: self.imbalance_millis(),
            completion_time,
            comm_time,
        }
    }
}

/// The engine's incidence lists in CSR form: for every task, the `(phase,
/// edge)` pairs touching it in phase then edge order, and each task's start.
fn incidence(tg: &TaskGraph) -> (Vec<(usize, usize)>, Vec<usize>) {
    let mut at = vec![0usize; tg.num_tasks() + 1];
    for (_, e) in tg.all_edges() {
        at[e.src.index() + 1] += 1;
        if e.dst.index() != e.src.index() {
            at[e.dst.index() + 1] += 1;
        }
    }
    for t in 0..tg.num_tasks() {
        at[t + 1] += at[t];
    }
    let mut cursor = at[..tg.num_tasks()].to_vec();
    let mut incident = vec![(0, 0); at[tg.num_tasks()]];
    for (k, phase) in tg.comm_phases.iter().enumerate() {
        for (i, e) in phase.edges.iter().enumerate() {
            for t in [e.src.index(), e.dst.index()] {
                incident[cursor[t]] = (k, i);
                cursor[t] += 1;
                if e.dst.index() == e.src.index() {
                    break;
                }
            }
        }
    }
    (incident, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{route_all_phases, Matcher};
    use oregami_graph::task_graph::Cost;
    use oregami_graph::{Family, PhaseExpr, PhaseId, TaskId};
    use oregami_topology::{builders, LinkId};

    fn ring4_on_q2() -> (TaskGraph, Network, Mapping) {
        let mut tg = Family::Ring(4).build();
        let work = tg.add_exec_phase("work", Cost::Uniform(5));
        tg.phase_expr = Some(PhaseExpr::seq(
            PhaseExpr::Comm(PhaseId(0)),
            PhaseExpr::Exec(work),
        ));
        let net = builders::hypercube(2);
        let table = RouteTable::try_new(&net).unwrap();
        let assignment = vec![ProcId(0), ProcId(1), ProcId(3), ProcId(2)];
        let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
        (tg, net, Mapping { assignment, routes })
    }

    #[test]
    fn engine_matches_batch_figures() {
        let (tg, net, mapping) = ring4_on_q2();
        let engine = MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        assert_eq!(engine.avg_dilation_millis(), 1000);
        assert_eq!(engine.max_dilation(), 1);
        assert_eq!(engine.total_ipc(), 4);
        assert_eq!(engine.internalized_volume(), 0);
        assert_eq!(engine.tasks_per_proc(), &[1, 1, 1, 1]);
        assert_eq!(engine.max_exec_time(), 5);
        // comm slot: busiest link 1 + max hops 1 = 2; exec slot 5
        assert_eq!(engine.completion_times(), Some((7, 2)));
        assert_eq!(engine.scalar_cost(), 7);
    }

    /// Asserts every incrementally kept aggregate equals a freshly built
    /// engine's over the same mapping.
    fn assert_fresh(engine: &mut MetricsEngine<'_>, tg: &TaskGraph, net: &Network) {
        let mapping = engine.mapping().clone();
        let mut fresh = MetricsEngine::try_new(tg, net, &mapping, engine.cost_model()).unwrap();
        assert_eq!(engine.snapshot(), fresh.snapshot());
        for k in 0..tg.num_phases() {
            assert_eq!(engine.phase_max_dilation(k), fresh.phase_max_dilation(k));
            assert_eq!(
                engine.phase_max_contention(k),
                fresh.phase_max_contention(k)
            );
            assert_eq!(engine.comm_slot_cost(k), fresh.comm_slot_cost(k));
        }
        for t in 0..tg.num_tasks() {
            assert_eq!(
                engine.cost_floor_without(t),
                fresh.cost_floor_without(t),
                "task {t}"
            );
        }
        assert_eq!(
            engine.snapshot(),
            fresh.snapshot(),
            "the floor put everything back"
        );
    }

    #[test]
    fn aggregates_match_a_fresh_engine_while_max_dilation_edges_lift_and_return() {
        // a hub on the corner of a 3x3 mesh, its three spokes on the procs
        // two hops away: every edge of the phase sits at the max dilation
        let mut tg = TaskGraph::new("spokes");
        tg.add_scalar_nodes("t", 4);
        let ph = tg.add_phase("in");
        for t in 1..4 {
            tg.add_edge(ph, TaskId::new(t), TaskId::new(0), 2 + t as u64);
        }
        let work = tg.add_exec_phase("work", Cost::PerTask(vec![5, 3, 3, 3]));
        tg.phase_expr = Some(PhaseExpr::seq(PhaseExpr::Comm(ph), PhaseExpr::Exec(work)));
        let net = builders::mesh2d(3, 3);
        let table = RouteTable::try_new(&net).unwrap();
        let assignment = vec![ProcId(0), ProcId(2), ProcId(4), ProcId(6)];
        let routes = crate::routing::baseline::baseline_route_all(&tg, &assignment, &net, &table);
        let mapping = Mapping { assignment, routes };
        let mut engine =
            MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        assert_eq!(engine.phase_dilations(0), &[2, 2, 2]);
        assert_fresh(&mut engine, &tg, &net);
        // lift the spokes onto the hub's processor one by one
        for t in 1..4 {
            engine
                .apply(Edit::Reassign {
                    task: t,
                    proc: ProcId(0),
                })
                .unwrap();
            assert_eq!(engine.phase_max_dilation(0), if t < 3 { 2 } else { 0 });
            assert_fresh(&mut engine, &tg, &net);
        }
        assert_eq!(
            engine.comm_slot_cost(0),
            0,
            "an all-internal phase costs nothing"
        );
        while engine.undo().is_some() {
            assert_fresh(&mut engine, &tg, &net);
        }
        assert_eq!(engine.mapping(), &mapping);
    }

    #[test]
    fn reassign_updates_only_touched_entries_and_undoes() {
        let (tg, net, mapping) = ring4_on_q2();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        let initial = engine.snapshot();
        let delta = engine
            .apply(Edit::Reassign { task: 1, proc: ProcId(0) })
            .unwrap();
        assert_eq!(delta.before, initial);
        assert_eq!(delta.edges_touched, 2); // ring task: one in, one out
        assert_eq!(engine.total_ipc(), 3);
        assert_eq!(engine.internalized_volume(), 1);
        assert_eq!(engine.tasks_per_proc(), &[2, 0, 1, 1]);
        // parity with the Mapping-level edit
        let mut by_hand = mapping.clone();
        let table = RouteTable::try_new(&net).unwrap();
        by_hand.reassign(&tg, &net, &table, 1, ProcId(0));
        assert_eq!(engine.mapping(), &by_hand);
        // probe-and-revert restores everything
        let undo = engine.undo().unwrap();
        assert_eq!(undo.after, initial);
        assert_eq!(engine.mapping(), &mapping);
        assert_eq!(engine.undo_depth(), 0);
    }

    #[test]
    fn reroute_applies_checked_paths_and_undoes() {
        let (tg, net, mapping) = ring4_on_q2();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        // edge 1 (ring 1->2) runs proc 1 -> 3; detour 1-0-2-3 dilates to 3
        let err = engine
            .apply(Edit::Reroute {
                phase: 0,
                edge: 1,
                path: vec![ProcId(1), ProcId(0), ProcId(2)],
            })
            .unwrap_err();
        assert!(matches!(err, EditError::Mapping(MappingError::RouteEndsOffReceiver { .. })));
        let before = engine.snapshot();
        let delta = engine
            .apply(Edit::Reroute {
                phase: 0,
                edge: 1,
                path: vec![ProcId(1), ProcId(0), ProcId(2), ProcId(3)],
            })
            .unwrap();
        assert_eq!(delta.after.max_dilation, 3);
        assert_eq!(engine.phase_dilations(0)[1], 3);
        let undo = engine.undo().unwrap();
        assert_eq!(undo.after, before);
    }

    #[test]
    fn fault_edit_degrades_reroutes_and_undoes() {
        let (tg, net, mapping) = ring4_on_q2();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        let initial = engine.snapshot();
        // kill the link some route crosses
        let used = mapping.routes[0]
            .iter()
            .find(|p| p.len() == 2)
            .map(|p| net.link_between(p[0], p[1]).unwrap())
            .unwrap();
        let delta = engine
            .apply(Edit::Fault(FaultSet::new().with_link(used)))
            .unwrap();
        assert!(delta.edges_touched >= 1);
        assert_eq!(engine.network().num_links(), net.num_links() - 1);
        engine.mapping().validate(&tg, engine.network()).unwrap();
        // a proc fault stranding a task is rejected atomically
        let s = engine.snapshot();
        let err = engine
            .apply(Edit::Fault(FaultSet::new().with_proc(ProcId(0))))
            .unwrap_err();
        assert!(matches!(err, EditError::TaskOnDeadProc { .. }));
        assert_eq!(engine.snapshot(), s);
        // undo restores the healthy network and figures
        let undo = engine.undo().unwrap();
        assert_eq!(undo.after, initial);
        assert_eq!(engine.network().num_links(), net.num_links());
        assert_eq!(engine.mapping(), &mapping);
    }

    #[test]
    fn budgeted_apply_charges_and_respects_exhaustion() {
        let (tg, net, mapping) = ring4_on_q2();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        let budget = Budget::unlimited().with_max_steps(4);
        engine
            .apply_budgeted(Edit::Reassign { task: 1, proc: ProcId(0) }, &budget)
            .unwrap();
        assert_eq!(budget.steps_used(), 3); // 2 touched edges + 1
        // drain the rest: the next edit is refused with the engine intact
        budget.charge(10);
        let s = engine.snapshot();
        let err = engine
            .apply_budgeted(Edit::Reassign { task: 2, proc: ProcId(0) }, &budget)
            .unwrap_err();
        assert!(matches!(err, EditError::Budget(Completion::BudgetExhausted)));
        assert_eq!(engine.snapshot(), s);
    }

    #[test]
    fn out_of_range_edits_are_rejected() {
        let (tg, net, mapping) = ring4_on_q2();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &CostModel::default()).unwrap();
        assert!(matches!(
            engine.apply(Edit::Reassign { task: 99, proc: ProcId(0) }),
            Err(EditError::TaskOutOfRange { .. })
        ));
        assert!(matches!(
            engine.apply(Edit::Reassign { task: 0, proc: ProcId(40) }),
            Err(EditError::Mapping(MappingError::ProcOutOfRange { .. }))
        ));
        assert!(matches!(
            engine.apply(Edit::Reroute { phase: 7, edge: 0, path: vec![] }),
            Err(EditError::PhaseOutOfRange { .. })
        ));
        assert!(matches!(
            engine.apply(Edit::Fault(FaultSet::new().with_link(LinkId(999)))),
            Err(EditError::Topology(_))
        ));
        assert_eq!(engine.undo_depth(), 0);
    }
}
