//! # OREGAMI
//!
//! A from-scratch reproduction of **OREGAMI: Software Tools for Mapping
//! Parallel Computations to Parallel Architectures** (Lo, Rajopadhye,
//! Gupta, Keldsen, Mohamed, Telle — University of Oregon, 1990).
//!
//! OREGAMI solves the *mapping problem* for message-passing machines: given
//! a parallel computation described compactly in the **LaRCS** language,
//! assign its tasks to processors (contraction + embedding) and its
//! messages to network links (routing), exploiting whatever regularity the
//! description reveals — well-known graph families, group-theoretic node
//! symmetry, affine recurrences — and falling back on polynomial-time
//! matching-based heuristics for arbitrary graphs. **METRICS** then
//! evaluates the mapping (load balance, dilation, contention, completion
//! time) and supports programmatic modification.
//!
//! ## Quickstart
//!
//! ```
//! use oregami::{Oregami, topology::builders};
//!
//! // the paper's running example: the n-body computation, 16 bodies
//! let source = oregami::larcs::programs::nbody();
//! let system = Oregami::new(builders::hypercube(3));
//! let result = system
//!     .map_source(&source, &[("n", 16), ("s", 4), ("msgsize", 8)])
//!     .unwrap();
//!
//! assert_eq!(result.task_graph.num_tasks(), 16);
//! // 16 tasks on 8 processors: two per processor
//! assert_eq!(result.report.mapping.tasks_per_proc(8), vec![2; 8]);
//! println!("{}", result.metrics.render());
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper |
//! |---|---|---|
//! | [`graph`] | colored multi-phase task graphs, phase expressions, families | §2 |
//! | [`larcs`] | the LaRCS language: parser, elaborator, regularity analyses | §3 |
//! | [`mapper`] | canned / group-theoretic / systolic / general mapping + MM-Route | §4 |
//! | [`metrics`] | load, link, and completion-time metrics; ASCII reports | §5 |
//! | [`topology`] | processor networks and multipath route tables | §2, §4.4 |
//! | [`group`] | permutation groups, Cayley graphs, quotient contraction | §4.2.2 |
//! | [`matching`] | blossom maximum-weight matching | §4.3 |

#![deny(clippy::too_many_lines)]

pub use oregami_graph as graph;
pub use oregami_group as group;
pub use oregami_larcs as larcs;
pub use oregami_mapper as mapper;
pub use oregami_matching as matching;
pub use oregami_metrics as metrics;
pub use oregami_topology as topology;

pub mod journal;
pub mod replay;
pub mod stream;

pub use journal::{Journal, JournalRecovery};
pub use replay::ReplayOp;
pub use stream::{StreamError, StreamSession};

pub use oregami_larcs::LarcsError;
pub use oregami_mapper::{
    BreakerConfig, BreakerState, Budget, CancelToken, ChaosConfig, ChurnConfig, ChurnController,
    ChurnError, ChurnEvent, ChurnOutcome, ChurnStats, Completion, EngineConfig, EngineReport,
    EventStream, FallbackChain, MapperOptions, MapperReport, Mapping, MappingError, RepairError,
    RepairOptions, RepairReport, RetryPolicy, ServiceHealth, StageKind, StageStatus,
    StreamProfile, Strategy, SupervisorConfig, SupervisorState,
};
pub use oregami_metrics::{
    capacity_links, capacity_load, CapacityLinkMetrics, CapacityLoadMetrics, CostModel, Edit,
    EditError, MetricSnapshot, MetricsDelta, MetricsEngine, MetricsReport,
};
pub use oregami_topology::{
    boot_scan, compress_routes, CacheStats, CompressionConfig, DegradedNetwork, DomainMap,
    FaultDomain, FaultSet, HealthReport, LoweredMachine, MachineAttrs, MachineModel, Network,
    RouteCompression, RouteTableCache, TopologyError,
};

use oregami_graph::TaskGraph;
use std::sync::{Arc, Mutex};

/// The LaRCS text and parameter bindings a task graph was compiled from.
type Source = Arc<(String, Vec<(String, i64)>)>;

/// One complete run of the OREGAMI toolchain.
#[derive(Clone, Debug)]
pub struct OregamiResult {
    /// The elaborated task graph (LaRCS output).
    pub task_graph: TaskGraph,
    /// MAPPER's output: strategy, contraction, mapping, notes.
    pub report: MapperReport,
    /// METRICS' evaluation of the mapping.
    pub metrics: MetricsReport,
    /// The fallback-chain execution record, present when the mapping was
    /// produced through [`Oregami::map_source_with_budget`].
    pub engine: Option<EngineReport>,
    /// `None` for a prebuilt graph; otherwise what a session's `program`
    /// edits splice into and recompile.
    source: Option<Source>,
}

impl OregamiResult {
    fn compiled_from(mut self, source: &str, params: &[(&str, i64)]) -> OregamiResult {
        let params = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        self.source = Some(Arc::new((source.to_string(), params)));
        self
    }

    /// Whether a budget cut any search short: the mapping is valid but
    /// possibly worse than an unbudgeted run would produce.
    pub fn is_degraded(&self) -> bool {
        self.engine.as_ref().is_some_and(EngineReport::is_degraded)
    }
}

/// The outcome of [`Oregami::repair`]: a mapping salvaged onto the
/// surviving machine, with METRICS recomputed on the degraded network.
#[derive(Clone, Debug)]
pub struct FaultRecovery {
    /// The network with the fault set applied.
    pub degraded: DegradedNetwork,
    /// The repaired mapping, valid on `degraded.network()`.
    pub mapping: Mapping,
    /// What repair did (reroutes, migrations, escalation, deltas).
    pub repair: RepairReport,
    /// METRICS recomputed on the degraded network.
    pub metrics: MetricsReport,
}

/// One applied edit (or undo) in an [`InteractiveSession`]'s log.
#[derive(Clone, Debug)]
pub struct EditRecord {
    /// The edit's display form (`reassign task 3 -> proc 1`, `undo`, …).
    pub description: String,
    /// The metric values before/after and the ledger entries touched.
    pub delta: MetricsDelta,
}

/// What [`InteractiveSession::dispatch`] did with one [`ReplayOp`].
#[derive(Debug)]
pub enum Dispatched {
    /// An edit applied; its metric delta.
    Applied(MetricsDelta),
    /// An undo ran; `None` when nothing was left to undo.
    Undone(Option<MetricsDelta>),
    /// A `program` edit recompiled and remapped the session's source; the
    /// session now edits this result, its log and undo stack empty.
    Recompiled(Box<OregamiResult>),
}

/// Why [`InteractiveSession::dispatch`] refused an op. Except for
/// [`Journal`](DispatchError::Journal), the session is unchanged.
#[derive(Debug)]
pub enum DispatchError {
    /// The engine rejected the edit (or the budget was spent).
    Edit(EditError),
    /// A churn-stream event: those belong to a [`StreamSession`].
    Stream,
    /// A `program` edit on a session mapped from a prebuilt graph.
    NoSource,
    /// The replacement rule did not splice into the source.
    Rule(LarcsError),
    /// The edited source did not compile or map.
    Remap(OregamiError),
    /// The caller's `persist` hook refused the new source.
    Persist(String),
    /// The program edit took effect but its journal could not be
    /// restarted; journalling is detached.
    Journal(String),
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Edit(e) => e.fmt(f),
            DispatchError::Rule(e) => e.fmt(f),
            DispatchError::Remap(e) => e.fmt(f),
            DispatchError::Persist(e) | DispatchError::Journal(e) => f.write_str(e),
            DispatchError::Stream => {
                f.write_str("stream events (spawn/depart/load/recover) need a stream session")
            }
            DispatchError::NoSource => {
                f.write_str("program edits need a session opened from a LaRCS source")
            }
        }
    }
}

/// The frame a program edit's restarted journal opens with: which source
/// the frames after it were recorded against (the stream journal's
/// `config` frame is the precedent).
fn source_pin(source: &str) -> String {
    let crc = journal::crc32(source.as_bytes());
    format!("source {} {crc:08x}", source.len())
}

/// A live METRICS session over one mapped result — the paper §5 loop
/// ("the user modifies the mapping and the metrics are recomputed") as an
/// API. Holds the incremental [`MetricsEngine`], the log of applied
/// edits, and free-form annotations folded into every rendered report.
///
/// Obtain one from [`Oregami::interactive`]. The session owns what it
/// needs — a clone of the toolchain (sharing its caches), the source it
/// was mapped from, and an owning engine — so it can be held across
/// requests and moved between threads.
pub struct InteractiveSession {
    system: Oregami,
    source: Option<Source>,
    engine: MetricsEngine<'static>,
    log: Vec<EditRecord>,
    annotations: Vec<String>,
    journal: Option<Journal>,
    journal_error: Option<String>,
}

impl InteractiveSession {
    /// Applies one edit, logging it; returns the metric delta. A rejected
    /// edit leaves the session (and the log) unchanged. With a journal
    /// attached, the edit is framed to disk after it applies.
    pub fn apply(&mut self, edit: Edit) -> Result<MetricsDelta, EditError> {
        self.apply_budgeted(edit, &Budget::unlimited())
    }

    /// [`apply`](Self::apply) under an execution budget: the budget is
    /// polled before the edit and charged per ledger entry touched, so a
    /// replay can be deadline-bounded like any other search.
    fn apply_budgeted(&mut self, edit: Edit, budget: &Budget) -> Result<MetricsDelta, EditError> {
        let description = edit.to_string();
        let record = replay::to_record(&ReplayOp::Apply(edit.clone()));
        let delta = self.engine.apply_budgeted(edit, budget)?;
        self.log.push(EditRecord {
            description,
            delta: delta.clone(),
        });
        self.journal_append(&record);
        Ok(delta)
    }

    /// Reverts the most recent not-yet-undone edit, logging the reversal;
    /// `None` when nothing is left to undo.
    pub fn undo(&mut self) -> Option<MetricsDelta> {
        let delta = self.engine.undo()?;
        self.log.push(EditRecord {
            description: "undo".to_string(),
            delta: delta.clone(),
        });
        self.journal_append("undo");
        Some(delta)
    }

    /// Runs one op of the replay dialect — the single dispatcher behind
    /// journal resume, the CLI's `--edits` replay and the daemon's
    /// `session_edit`. Edits apply under `budget`. A `program` edit
    /// rebuilds the session on the edited source; `persist(source, pin)`
    /// runs once that edit has validated and before anything changes, so
    /// a caller keeping its own record of the source (the daemon's
    /// sidecar) writes it ahead of the journal restart. `pin` is the
    /// frame the restarted journal opens with.
    pub fn dispatch(
        &mut self,
        op: ReplayOp,
        budget: &Budget,
        persist: impl FnOnce(&str, &str) -> Result<(), String>,
    ) -> Result<Dispatched, DispatchError> {
        match op {
            ReplayOp::Apply(edit) => self
                .apply_budgeted(edit, budget)
                .map(Dispatched::Applied)
                .map_err(DispatchError::Edit),
            ReplayOp::Undo => Ok(Dispatched::Undone(self.undo())),
            ReplayOp::Stream(_) => Err(DispatchError::Stream),
            ReplayOp::Program { phase, rule, text } => self
                .rebuild_program(&phase, rule, &text, persist)
                .map(|r| Dispatched::Recompiled(Box::new(r))),
        }
    }

    /// The program-edit rebuild: splice the rule into the source through
    /// the shared incremental front end (only the edited rule
    /// re-expands), remap, and move the session onto the new result — all
    /// validated before the old state is touched, so a rejected edit
    /// leaves the session exactly as it was. Earlier edits described the
    /// old mapping: the log resets and an attached journal restarts,
    /// pinned to the new source.
    fn rebuild_program(
        &mut self,
        phase: &str,
        rule: usize,
        text: &str,
        persist: impl FnOnce(&str, &str) -> Result<(), String>,
    ) -> Result<OregamiResult, DispatchError> {
        let (source, params) = &**self.source.as_ref().ok_or(DispatchError::NoSource)?;
        let edited = {
            let mut db = self.system.frontend.lock().unwrap_or_else(|p| p.into_inner());
            db.edit_rule(source, phase, rule, text)
                .map_err(DispatchError::Rule)?
        };
        let params: Vec<(&str, i64)> = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let result = self
            .system
            .map_source(&edited, &params)
            .map_err(DispatchError::Remap)?;
        let fresh = self.system.interactive(&result).map_err(DispatchError::Remap)?;
        let pin = source_pin(&edited);
        persist(&edited, &pin).map_err(DispatchError::Persist)?;
        self.source = fresh.source;
        self.engine = fresh.engine;
        self.log.clear();
        self.annotations.clear();
        if let Some(old) = self.journal.take() {
            match Journal::create(old.path()).and_then(|mut j| j.append(&pin).map(|()| j)) {
                Ok(j) => self.journal = Some(j),
                Err(e) => {
                    self.journal_error = Some(format!("journalling abandoned: {e}"));
                    return Err(DispatchError::Journal(e.to_string()));
                }
            }
        }
        Ok(result)
    }

    /// Attaches a write-ahead journal: every subsequently applied edit
    /// (and undo) is framed, checksummed, and fsynced to it after it
    /// applies. Journalling is best-effort — an I/O failure detaches the
    /// journal and latches [`journal_error`](Self::journal_error) instead
    /// of failing the edit, so a full disk degrades durability, not the
    /// session.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// The latched warning from a failed journal append, if journalling
    /// has been abandoned mid-session.
    pub fn journal_error(&self) -> Option<&str> {
        self.journal_error.as_deref()
    }

    fn journal_append(&mut self, record: &str) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.append(record) {
                self.journal_error = Some(format!("journalling abandoned: {e}"));
                self.journal = None;
            }
        }
    }

    /// Appends a free-form note rendered at the end of every
    /// [`report`](InteractiveSession::report).
    pub fn annotate(&mut self, note: impl Into<String>) {
        self.annotations.push(note.into());
    }

    /// The full METRICS report for the session's current state, with the
    /// session's annotations attached.
    pub fn report(&self) -> MetricsReport {
        let mut report = oregami_metrics::report_from_engine(&self.engine);
        report.annotations = self.annotations.clone();
        report
    }

    /// The current derived metric values (cheap; no report assembly).
    pub fn snapshot(&self) -> MetricSnapshot {
        self.engine.snapshot()
    }

    /// The mapping as edited so far.
    pub fn mapping(&self) -> &Mapping {
        self.engine.mapping()
    }

    /// The network as edited so far (fault edits shrink it).
    pub fn network(&self) -> &Network {
        self.engine.network()
    }

    /// Every edit applied (and undo performed) this session, in order.
    pub fn edit_log(&self) -> &[EditRecord] {
        &self.log
    }

    /// How many edits are currently revertible.
    pub fn undo_depth(&self) -> usize {
        self.engine.undo_depth()
    }
}

/// Any failure along the pipeline.
#[derive(Clone, Debug)]
pub enum OregamiError {
    /// LaRCS front-end failure (lex/parse/elaborate).
    Larcs(LarcsError),
    /// MAPPER failure (infeasible contraction, bad network).
    Map(oregami_mapper::pipeline::MapError),
    /// Fault-injection failure (bad fault ids, all processors dead).
    Fault(TopologyError),
    /// Mapping-repair failure (partitioned survivors, no capacity).
    Repair(RepairError),
    /// Session-journal failure during resume (unreadable file, corrupt
    /// frame, or a journalled record the session refuses to apply).
    Journal(String),
    /// Churn-stream failure (the controller rejected the setup — bad
    /// bound, dead network).
    Churn(ChurnError),
}

impl std::fmt::Display for OregamiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OregamiError::Larcs(e) => write!(f, "LaRCS: {e}"),
            OregamiError::Map(e) => write!(f, "MAPPER: {e}"),
            OregamiError::Fault(e) => write!(f, "FAULT: {e}"),
            OregamiError::Repair(e) => write!(f, "REPAIR: {e}"),
            OregamiError::Journal(e) => write!(f, "JOURNAL: {e}"),
            OregamiError::Churn(e) => write!(f, "CHURN: {e}"),
        }
    }
}

impl std::error::Error for OregamiError {}

impl From<LarcsError> for OregamiError {
    fn from(e: LarcsError) -> Self {
        OregamiError::Larcs(e)
    }
}

impl From<oregami_mapper::pipeline::MapError> for OregamiError {
    fn from(e: oregami_mapper::pipeline::MapError) -> Self {
        OregamiError::Map(e)
    }
}

impl From<TopologyError> for OregamiError {
    fn from(e: TopologyError) -> Self {
        OregamiError::Fault(e)
    }
}

impl From<RepairError> for OregamiError {
    fn from(e: RepairError) -> Self {
        OregamiError::Repair(e)
    }
}

/// The OREGAMI toolchain bound to one target architecture.
///
/// Configure with [`with_options`](Oregami::with_options) /
/// [`with_cost_model`](Oregami::with_cost_model), then map LaRCS sources
/// ([`map_source`](Oregami::map_source)) or prebuilt task graphs
/// ([`map_graph`](Oregami::map_graph)).
#[derive(Clone, Debug)]
pub struct Oregami {
    network: Arc<Network>,
    options: MapperOptions,
    cost_model: CostModel,
    cache: Arc<RouteTableCache>,
    supervisor: Option<SupervisorConfig>,
    frontend: Arc<Mutex<larcs::Db>>,
}

impl Oregami {
    /// A toolchain instance targeting `network` with default options and
    /// a fresh shared route-table cache (clones share the cache).
    pub fn new(network: Network) -> Oregami {
        Oregami {
            network: Arc::new(network),
            options: MapperOptions::default(),
            cost_model: CostModel::default(),
            cache: Arc::new(RouteTableCache::new(16)),
            supervisor: None,
            frontend: Arc::new(Mutex::new(larcs::Db::new())),
        }
    }

    /// Overrides the MAPPER options.
    pub fn with_options(mut self, options: MapperOptions) -> Oregami {
        self.options = options;
        self
    }

    /// Overrides the METRICS cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Oregami {
        self.cost_model = model;
        self
    }

    /// Replaces the shared route-table cache (e.g. to share one cache
    /// across toolchain instances targeting the same machine).
    pub fn with_cache(mut self, cache: Arc<RouteTableCache>) -> Oregami {
        self.cache = cache;
        self
    }

    /// Replaces the shared LaRCS front end (e.g. to share one
    /// incremental [`larcs::Db`] across toolchain instances compiling
    /// the same sources).
    pub fn with_frontend(mut self, frontend: Arc<Mutex<larcs::Db>>) -> Oregami {
        self.frontend = frontend;
        self
    }

    /// Runs budgeted mappings under a stage supervisor: each chain stage
    /// gets a watchdog (hung workers are detached at deadline + grace),
    /// bounded retries for transient panics, and a per-stage circuit
    /// breaker that persists across runs through the config's shared
    /// [`SupervisorState`]. Failures surface as
    /// [`mapper::MapError::Unserviceable`] instead of a generic
    /// all-stages-failed error.
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Oregami {
        self.supervisor = Some(config);
        self
    }

    /// The target network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Hit/miss/eviction counters of the shared route-table cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The instance's shared incremental LaRCS front end. Every
    /// `map_source*` call compiles through this [`larcs::Db`], so
    /// re-mapping an edited source reuses cached tokens, ASTs, and rule
    /// fragments; callers can use it directly for [`larcs::Db::fmt`] or
    /// [`larcs::Db::edit_rule`]. Clones of the toolchain share it, like
    /// the route-table cache.
    pub fn frontend(&self) -> Arc<Mutex<larcs::Db>> {
        Arc::clone(&self.frontend)
    }

    /// Compiles a LaRCS source through the shared incremental front end.
    pub fn compile_source(
        &self,
        source: &str,
        params: &[(&str, i64)],
    ) -> Result<TaskGraph, OregamiError> {
        let mut db = self.frontend.lock().unwrap_or_else(|p| p.into_inner());
        Ok((*db.compile(source, params)?).clone())
    }

    /// Compiles a LaRCS source with the given parameter bindings and maps
    /// the resulting task graph.
    pub fn map_source(
        &self,
        source: &str,
        params: &[(&str, i64)],
    ) -> Result<OregamiResult, OregamiError> {
        let tg = self.compile_source(source, params)?;
        Ok(self.map_graph(tg)?.compiled_from(source, params))
    }

    /// Injects faults into the target network and repairs an existing
    /// mapping against the degraded machine, re-running METRICS on what
    /// survives.
    ///
    /// The repair escalates re-route → migrate → full re-embed as needed
    /// (see [`oregami_mapper::repair`]); an unrepairable situation — a
    /// partitioned network, or more tasks than surviving capacity —
    /// surfaces as [`OregamiError::Repair`].
    pub fn repair(
        &self,
        result: &OregamiResult,
        faults: &FaultSet,
        opts: &RepairOptions,
    ) -> Result<FaultRecovery, OregamiError> {
        let degraded = self.network.degrade(faults)?;
        let (mapping, repair) = oregami_mapper::repair_mapping_cached(
            &result.task_graph,
            &self.network,
            &degraded,
            &result.report.mapping,
            opts,
            &Budget::unlimited(),
            &self.cache,
        )?;
        let metrics = oregami_metrics::try_analyze_mapping(
            &result.task_graph,
            degraded.network(),
            &mapping,
            &self.cost_model,
        )
        .map_err(|e| OregamiError::Repair(RepairError::Mapping(e)))?;
        Ok(FaultRecovery {
            degraded,
            mapping,
            repair,
            metrics,
        })
    }

    /// Opens an interactive METRICS session on a mapped result: edits
    /// ([`Edit::Reassign`] / [`Edit::Reroute`] / [`Edit::Fault`]) apply
    /// incrementally with per-edit metric deltas and undo, and
    /// [`InteractiveSession::report`] reads the full suite at any point.
    /// The session owns its inputs — the graph, mapping and network are
    /// cloned once here, never per edit. The engine's route table is
    /// seeded from the instance's shared cache, so opening a session
    /// never re-runs all-pairs routing on a machine the toolchain has
    /// already seen.
    pub fn interactive(&self, result: &OregamiResult) -> Result<InteractiveSession, OregamiError> {
        let table = self
            .cache
            .get_or_build(&self.network)
            .map_err(oregami_mapper::MapError::from)?;
        let engine = MetricsEngine::try_new_owned(
            result.task_graph.clone(),
            (*self.network).clone(),
            result.report.mapping.clone(),
            &self.cost_model,
            table,
        )
        .map_err(|e| OregamiError::Map(oregami_mapper::MapError::Mapping(e)))?;
        Ok(InteractiveSession {
            system: self.clone(),
            source: result.source.clone(),
            engine,
            log: Vec::new(),
            annotations: Vec::new(),
            journal: None,
            journal_error: None,
        })
    }

    /// Reopens a crashed session from its journal: recovers the frames
    /// (truncating a torn tail — the one write a crash can sever),
    /// replays every journalled record through a fresh incremental
    /// engine, and re-attaches the journal in append mode so the resumed
    /// session keeps journalling where the old one stopped. Returns the
    /// session plus the recovery record (replayed edits, torn bytes).
    ///
    /// A journal restarted by a program edit begins with a frame pinning
    /// the edited source. Such a journal replays only onto that source:
    /// on any other, its frames describe a mapping this session never had,
    /// so the session opens with zero edits on a fresh journal. The pin is
    /// not an edit and is left out of the recovery's records.
    ///
    /// A journal that is readable but semantically stale — e.g. written
    /// against a different mapping — surfaces as
    /// [`OregamiError::Journal`] naming the offending frame.
    pub fn resume(
        &self,
        result: &OregamiResult,
        path: &std::path::Path,
    ) -> Result<(InteractiveSession, JournalRecovery), OregamiError> {
        let journal_err = |e: journal::JournalError| OregamiError::Journal(e.to_string());
        let mut recovery = journal::recover(path, true).map_err(journal_err)?;
        let mut session = self.interactive(result)?;
        if recovery.records.first().is_some_and(|r| r.starts_with("source ")) {
            let pinned = recovery.records.remove(0);
            let ours = session.source.as_ref().map(|s| source_pin(&s.0));
            if ours.as_deref() != Some(pinned.as_str()) {
                recovery.records.clear();
                let mut fresh = Journal::create(path).map_err(journal_err)?;
                if let Some(pin) = &ours {
                    fresh.append(pin).map_err(journal_err)?;
                }
            }
        }
        // program edits are never journalled (their source lives with
        // whoever opened the session), so one in a journal is refused
        let no_program = |_: &str, _: &str| {
            Err("program edit in a metric-session journal (program edits recompile \
                 and remap — they live in the daemon's session meta, not the edit \
                 journal)"
                .to_string())
        };
        for (i, record) in recovery.records.iter().enumerate() {
            let fail = |why: String| {
                OregamiError::Journal(format!("{}: frame {}: {why}", path.display(), i + 1))
            };
            let op = match replay::parse_line(record) {
                Ok(Some(op)) => op,
                // journals only ever hold canonical records, but recovery
                // must be total over whatever the file contains
                Ok(None) => continue,
                Err(e) => return Err(fail(e)),
            };
            session
                .dispatch(op, &Budget::unlimited(), no_program)
                .map_err(|e| {
                    fail(match e {
                        DispatchError::Edit(e) => format!("journalled edit rejected: {e}"),
                        DispatchError::Stream => "stream event in an edit-session journal \
                                                  (resume it with --stream)"
                            .to_string(),
                        other => other.to_string(),
                    })
                })?;
        }
        session.attach_journal(Journal::open_append(path).map_err(journal_err)?);
        Ok((session, recovery))
    }

    /// Maps an already-built task graph.
    pub fn map_graph(&self, task_graph: TaskGraph) -> Result<OregamiResult, OregamiError> {
        let table = self
            .cache
            .get_or_build(&self.network)
            .map_err(oregami_mapper::MapError::from)?;
        let (report, _) = oregami_mapper::map_task_graph_budgeted_with_table(
            &task_graph,
            &self.network,
            &self.options,
            &Budget::unlimited(),
            &table,
        )?;
        let metrics = oregami_metrics::analyze_mapping(
            &task_graph,
            &self.network,
            &report.mapping,
            &self.cost_model,
        );
        Ok(OregamiResult {
            task_graph,
            report,
            metrics,
            engine: None,
            source: None,
        })
    }

    /// Compiles a LaRCS source and maps it through the fallback-chain
    /// engine under an execution budget: the chain's stages run in
    /// priority order, each panic-isolated, sharing `budget`; the cheapest
    /// candidate mapping is served even when the budget cuts the searches
    /// short. The result's [`OregamiResult::engine`] holds the per-stage
    /// record, and METRICS is annotated when the chain degraded.
    pub fn map_source_with_budget(
        &self,
        source: &str,
        params: &[(&str, i64)],
        chain: &FallbackChain,
        budget: &Budget,
    ) -> Result<OregamiResult, OregamiError> {
        let task_graph = self.compile_source(source, params)?;
        let config = EngineConfig {
            cache: Some(Arc::clone(&self.cache)),
            cost_model: self.cost_model.clone(),
            supervisor: self.supervisor.clone(),
        };
        let outcome = oregami_mapper::run_engine_with(
            &task_graph,
            &self.network,
            &self.options,
            chain,
            budget,
            &config,
        )?;
        let mut metrics = oregami_metrics::analyze_mapping(
            &task_graph,
            &self.network,
            &outcome.report.mapping,
            &self.cost_model,
        );
        if outcome.engine.is_degraded() {
            metrics.annotate(format!(
                "degraded mapping: served by stage '{}' under a tripped budget ({})",
                outcome.engine.served_by, outcome.engine.completion
            ));
            for s in &outcome.engine.stages {
                if s.completion.is_some_and(|c| c.is_degraded()) {
                    metrics.annotate(format!(
                        "stage '{}' stopped early: {} after {} steps",
                        s.stage,
                        s.completion.unwrap(),
                        s.steps
                    ));
                }
            }
        }
        Ok(OregamiResult {
            task_graph,
            report: outcome.report,
            metrics,
            engine: Some(outcome.engine),
            source: None,
        }
        .compiled_from(source, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_topology::builders;

    #[test]
    fn end_to_end_nbody() {
        let sys = Oregami::new(builders::hypercube(3));
        let r = sys
            .map_source(
                &larcs::programs::nbody(),
                &[("n", 16), ("s", 2), ("msgsize", 4)],
            )
            .unwrap();
        assert_eq!(r.task_graph.num_tasks(), 16);
        assert_eq!(r.report.mapping.tasks_per_proc(8), vec![2; 8]);
        assert!(r.metrics.overall.completion_time.is_some());
        r.report
            .mapping
            .validate(&r.task_graph, sys.network())
            .unwrap();
    }

    #[test]
    fn all_builtin_programs_map_onto_q3() {
        let sys = Oregami::new(builders::hypercube(3));
        for (name, src, params) in larcs::programs::all_programs() {
            let r = sys
                .map_source(&src, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            r.report
                .mapping
                .validate(&r.task_graph, sys.network())
                .unwrap();
            assert!(
                r.metrics.overall.completion_time.is_some(),
                "{name} should have a completion-time estimate"
            );
        }
    }

    #[test]
    fn fault_injection_repairs_nbody() {
        use oregami_topology::{LinkId, ProcId};
        let sys = Oregami::new(builders::hypercube(3));
        let r = sys
            .map_source(
                &larcs::programs::nbody(),
                &[("n", 16), ("s", 2), ("msgsize", 4)],
            )
            .unwrap();
        let faults = FaultSet::new()
            .with_proc(ProcId(5))
            .with_link(LinkId(2));
        let rec = sys.repair(&r, &faults, &RepairOptions::default()).unwrap();
        rec.mapping
            .validate(&r.task_graph, rec.degraded.network())
            .unwrap();
        // the two tasks hosted on dead proc 5 must have moved
        assert!(rec.repair.tasks_migrated >= 2);
        assert!(rec.metrics.overall.completion_time.is_some());
        // no repaired route touches the dead processor
        for phase in &rec.mapping.routes {
            for path in phase {
                assert!(!path.contains(&ProcId(5)));
            }
        }
    }

    #[test]
    fn unrepairable_partition_surfaces_as_repair_error() {
        let sys = Oregami::new(builders::chain(4));
        let r = sys
            .map_source(
                "algorithm ring(n);\n\
                 nodetype t: 0..n-1;\n\
                 comphase c: forall i in 0..n-1 { t(i) -> t((i+1) mod n); }",
                &[("n", 4)],
            )
            .unwrap();
        let faults = FaultSet::new().with_proc(topology::ProcId(1));
        let err = sys
            .repair(&r, &faults, &RepairOptions::default())
            .unwrap_err();
        assert!(matches!(
            err,
            OregamiError::Repair(RepairError::Topology(TopologyError::Disconnected { .. }))
        ));
    }

    #[test]
    fn interactive_session_applies_edits_and_reports() {
        use oregami_topology::ProcId;
        let sys = Oregami::new(builders::hypercube(3));
        let r = sys
            .map_source(
                &larcs::programs::nbody(),
                &[("n", 16), ("s", 2), ("msgsize", 4)],
            )
            .unwrap();
        let mut session = sys.interactive(&r).unwrap();
        // before any edit the session reads back the batch report exactly
        assert_eq!(session.report(), r.metrics);
        let before = session.snapshot();
        let delta = session
            .apply(Edit::Reassign {
                task: 0,
                proc: ProcId(7),
            })
            .unwrap();
        assert_eq!(delta.before, before);
        assert_eq!(session.edit_log().len(), 1);
        assert_eq!(session.mapping().assignment[0], ProcId(7));
        // the incremental report equals a from-scratch recompute
        let recomputed = metrics::try_analyze_mapping(
            &r.task_graph,
            session.network(),
            session.mapping(),
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(session.report(), recomputed);
        // undo restores the pre-edit figures and is itself logged
        assert_eq!(session.undo(), Some(MetricsDelta {
            before: delta.after,
            after: before,
            edges_touched: delta.edges_touched,
        }));
        assert_eq!(session.snapshot(), before);
        assert_eq!(session.edit_log().len(), 2);
        assert_eq!(session.undo_depth(), 0);
        // rejected edits change nothing and are not logged
        assert!(session
            .apply(Edit::Reassign {
                task: 999,
                proc: ProcId(0)
            })
            .is_err());
        assert_eq!(session.edit_log().len(), 2);
        session.annotate("probe");
        assert!(session.report().render().contains("note: probe"));
    }

    #[test]
    fn journalled_session_survives_a_torn_tail_and_resumes() {
        use oregami_topology::ProcId;
        let sys = Oregami::new(builders::hypercube(3));
        let r = sys
            .map_source(
                &larcs::programs::nbody(),
                &[("n", 16), ("s", 2), ("msgsize", 4)],
            )
            .unwrap();
        let path = std::env::temp_dir().join(format!(
            "oregami-core-resume-{}.jrnl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut session = sys.interactive(&r).unwrap();
        session.attach_journal(Journal::create(&path).unwrap());
        assert_eq!(session.journal.as_ref().map(Journal::path), Some(path.as_path()));
        for (task, proc) in [(0, 7), (1, 6)] {
            session
                .apply(Edit::Reassign {
                    task,
                    proc: ProcId(proc),
                })
                .unwrap();
        }
        session.undo().unwrap();
        session
            .apply(Edit::Reassign {
                task: 2,
                proc: ProcId(5),
            })
            .unwrap();
        assert!(session.journal_error().is_none());
        let full = session.snapshot();
        drop(session);

        // sever the last frame mid-write, as a crash would
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (resumed, recovery) = sys.resume(&r, &path).unwrap();
        assert!(recovery.truncated);
        assert_eq!(
            recovery.records,
            vec!["reassign 0 7", "reassign 1 6", "undo"]
        );
        // the resumed state is byte-identical to the surviving prefix's
        let mut expect = sys.interactive(&r).unwrap();
        expect
            .apply(Edit::Reassign {
                task: 0,
                proc: ProcId(7),
            })
            .unwrap();
        expect
            .apply(Edit::Reassign {
                task: 1,
                proc: ProcId(6),
            })
            .unwrap();
        expect.undo().unwrap();
        assert_eq!(resumed.snapshot(), expect.snapshot());
        assert_eq!(resumed.mapping().assignment, expect.mapping().assignment);
        assert_ne!(resumed.snapshot(), full, "the torn edit must be gone");

        // the re-attached journal keeps recording where the old one
        // stopped: one more edit, then a second resume carries it forward
        let mut resumed = resumed;
        resumed
            .apply(Edit::Reassign {
                task: 3,
                proc: ProcId(4),
            })
            .unwrap();
        let after = resumed.snapshot();
        drop(resumed);
        let (again, rec2) = sys.resume(&r, &path).unwrap();
        assert!(!rec2.truncated);
        assert_eq!(rec2.records.len(), 4);
        assert_eq!(again.snapshot(), after);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn program_edit_rebuilds_the_session_and_pins_its_journal() {
        use oregami_topology::ProcId;
        let src = "algorithm ring(n);\n\
                   nodetype cell: 0..n-1;\n\
                   comphase step:\n\
                   forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1); }\n\
                   exephase update cost 2;\n\
                   phaseexpr (step; update)^2;\n";
        let sys = Oregami::new(builders::ring(4));
        let old = sys.map_source(src, &[("n", 6)]).unwrap();
        let path = std::env::temp_dir().join(format!(
            "oregami-core-program-{}.jrnl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let unlimited = Budget::unlimited();
        let program = |text: &str| replay::parse_line(text).unwrap().unwrap();

        let mut session = sys.interactive(&old).unwrap();
        session.attach_journal(Journal::create(&path).unwrap());
        session
            .apply(Edit::Reassign { task: 0, proc: ProcId(1) })
            .unwrap();
        // refused edits leave the session, and the caller's record, alone
        let before = session.snapshot();
        let refused = session.dispatch(
            program("program nophase 0 cell(0) -> cell(1);"),
            &unlimited,
            |_, _| panic!("nothing to persist for a refused edit"),
        );
        assert!(matches!(refused, Err(DispatchError::Rule(_))));
        let refused = session.dispatch(
            program("program step 0 forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1) volume 5; }"),
            &unlimited,
            |_, _| Err("disk full".to_string()),
        );
        assert!(matches!(refused, Err(DispatchError::Persist(_))));
        assert!(matches!(
            session.dispatch(program("depart 3"), &unlimited, |_, _| Ok(())),
            Err(DispatchError::Stream)
        ));
        assert_eq!(session.snapshot(), before);
        assert_eq!(session.edit_log().len(), 1);

        let mut persisted = None;
        let new = match session.dispatch(
            program("program step 0 forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1) volume 5; }"),
            &unlimited,
            |source, pin| {
                persisted = Some((source.to_string(), pin.to_string()));
                Ok(())
            },
        ) {
            Ok(Dispatched::Recompiled(new)) => *new,
            other => panic!("expected a recompile, got {other:?}"),
        };
        let (source, pin) = persisted.expect("persist ran");
        assert!(source.contains("volume 5"));
        assert_eq!(new.source.as_ref().unwrap().0, source);
        assert!(session.edit_log().is_empty());
        assert_eq!(session.snapshot().max_link_volume, 5);
        assert_eq!(journal::recover(&path, false).unwrap().records, vec![pin]);
        session
            .apply(Edit::Reassign { task: 1, proc: ProcId(2) })
            .unwrap();
        let after = session.snapshot();
        drop(session);

        // onto the edited source the journal replays, the pin uncounted
        let (resumed, recovery) = sys.resume(&new, &path).unwrap();
        assert_eq!(recovery.records, vec!["reassign 1 2"]);
        assert_eq!(resumed.snapshot(), after);
        drop(resumed);
        // onto any other source its frames are stale: zero edits, and a
        // fresh journal for the source actually resumed
        let (stale, recovery) = sys.resume(&old, &path).unwrap();
        assert!(recovery.records.is_empty());
        assert_eq!(stale.snapshot(), sys.interactive(&old).unwrap().snapshot());
        drop(stale);
        assert_eq!(
            journal::recover(&path, false).unwrap().records,
            vec![source_pin(src)]
        );

        // a result mapped from a prebuilt graph has no source to edit
        let mut graph_only = sys
            .interactive(&sys.map_graph(old.task_graph.clone()).unwrap())
            .unwrap();
        assert!(matches!(
            graph_only.dispatch(program("program step 0 cell(0) -> cell(1);"), &unlimited, |_, _| Ok(())),
            Err(DispatchError::NoSource)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_a_journal_is_a_journal_error() {
        let sys = Oregami::new(builders::hypercube(2));
        let r = sys
            .map_source(&larcs::programs::jacobi(), &[("n", 2), ("iters", 1)])
            .unwrap();
        let path = std::env::temp_dir().join(format!(
            "oregami-core-no-such-{}.jrnl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let err = match sys.resume(&r, &path) {
            Err(e) => e,
            Ok(_) => panic!("resume from a missing journal must fail"),
        };
        assert!(matches!(err, OregamiError::Journal(_)), "{err}");
        assert!(err.to_string().starts_with("JOURNAL:"));
    }

    #[test]
    fn supervised_toolchain_reports_health() {
        let config = SupervisorConfig::default();
        let state = Arc::clone(&config.state);
        let sys = Oregami::new(builders::hypercube(2)).with_supervisor(config);
        let r = sys
            .map_source_with_budget(
                &larcs::programs::jacobi(),
                &[("n", 2), ("iters", 1)],
                &FallbackChain::full(),
                &Budget::unlimited(),
            )
            .unwrap();
        let engine = r.engine.as_ref().unwrap();
        assert_eq!(engine.health, ServiceHealth::Healthy);
        assert!(!r.is_degraded());
        assert!(!state.any_tripped());
        assert!(engine.to_string().contains("health: healthy"));
    }

    #[test]
    fn larcs_errors_surface() {
        let sys = Oregami::new(builders::ring(4));
        let err = sys.map_source("algorithm broken(", &[]).unwrap_err();
        assert!(matches!(err, OregamiError::Larcs(_)));
        assert!(err.to_string().starts_with("LaRCS:"));
    }

    #[test]
    fn custom_cost_model_changes_estimate() {
        let src = larcs::programs::jacobi();
        let params = [("n", 4), ("iters", 2)];
        let base = Oregami::new(builders::mesh2d(2, 2));
        let r1 = base.map_source(&src, &params).unwrap();
        let slow = Oregami::new(builders::mesh2d(2, 2)).with_cost_model(CostModel {
            byte_time: 10,
            hop_latency: 5,
            startup: 100,
        });
        let r2 = slow.map_source(&src, &params).unwrap();
        assert!(r2.metrics.overall.completion_time > r1.metrics.overall.completion_time);
    }

    #[test]
    fn budgeted_map_degrades_and_annotates() {
        // 16 tasks on 16 processors: the exhaustive stage faces a 16!
        // search; a starved budget forces the chain to serve best-so-far.
        let sys = Oregami::new(builders::hypercube(4));
        let r = sys
            .map_source_with_budget(
                &larcs::programs::jacobi(),
                &[("n", 4), ("iters", 1)],
                &FallbackChain::full(),
                &Budget::unlimited().with_max_steps(1),
            )
            .unwrap();
        assert!(r.is_degraded());
        r.report
            .mapping
            .validate(&r.task_graph, sys.network())
            .unwrap();
        let engine = r.engine.as_ref().unwrap();
        assert_eq!(engine.completion, Completion::BudgetExhausted);
        let rendered = r.metrics.render();
        assert!(rendered.contains("degraded mapping"), "{rendered}");
        // an unbudgeted engine run on the same input is not degraded
        let full = sys
            .map_source_with_budget(
                &larcs::programs::jacobi(),
                &[("n", 4), ("iters", 1)],
                &FallbackChain::default(),
                &Budget::unlimited(),
            )
            .unwrap();
        assert!(!full.is_degraded());
        assert!(!full.metrics.render().contains("degraded mapping"));
    }

    #[test]
    fn engine_run_reuses_the_shared_cache() {
        let src = larcs::programs::jacobi();
        let params = [("n", 4), ("iters", 1)];
        let sys = Oregami::new(builders::hypercube(2));
        sys.map_source_with_budget(&src, &params, &FallbackChain::full(), &Budget::unlimited())
            .unwrap();
        // one table build serves the whole run: every stage after the
        // first lookup hits the instance's shared cache
        assert_eq!(sys.cache_stats().misses, 1);
        assert!(sys.cache_stats().hits >= 1, "{:?}", sys.cache_stats());
    }

    #[test]
    fn repeated_repairs_hit_the_shared_cache() {
        use oregami_topology::ProcId;
        let sys = Oregami::new(builders::hypercube(3));
        let r = sys
            .map_source(
                &larcs::programs::nbody(),
                &[("n", 16), ("s", 2), ("msgsize", 4)],
            )
            .unwrap();
        for _ in 0..3 {
            let faults = FaultSet::new().with_proc(ProcId(5));
            sys.repair(&r, &faults, &RepairOptions::default()).unwrap();
        }
        let stats = sys.cache_stats();
        assert!(
            stats.hits >= 4,
            "repeat fault scenarios must reuse cached tables: {stats:?}"
        );
    }

    #[test]
    fn board_loss_repair_prunes_most_improve_probes() {
        let lowered = MachineModel::parse("mesh-boards:2x2x4x4").unwrap().lower();
        let sys = Oregami::new(lowered.net.clone()).with_options(MapperOptions {
            load_bound: Some(2),
            ..MapperOptions::default()
        });
        let r = sys
            .map_source(&larcs::programs::jacobi(), &[("n", 8), ("iters", 2)])
            .unwrap();
        let faults = lowered.domains.board_fault_set(sys.network(), 1).unwrap();
        let opts = RepairOptions {
            domains: Some(lowered.domains.clone()),
            ..RepairOptions::default()
        };
        let rec = sys.repair(&r, &faults, &opts).unwrap();
        assert!(!rec.repair.escalated, "{:?}", rec.repair);
        assert!(rec.repair.tasks_migrated > 0, "{:?}", rec.repair);
        // the exhaustive scan probes every migrated task against every
        // survivor with room under the load bound; the cost floor rules
        // most tasks out unprobed
        let all_pairs = rec.repair.tasks_migrated * rec.degraded.num_alive();
        assert!(
            rec.repair.improve_probes < all_pairs / 4,
            "{} probes for {} migrated x {} alive",
            rec.repair.improve_probes,
            rec.repair.tasks_migrated,
            rec.degraded.num_alive()
        );
    }

    /// The routing hardware bound at machine scale: a 1024-task Jacobi
    /// sweep on the 1024-processor board machine compresses its route
    /// tables under the 1024-entry per-processor budget.
    #[test]
    fn machine_routes_compress_under_the_hardware_budget_at_1024_procs() {
        let lowered = MachineModel::parse("mesh-boards:4x4x8x8,bw=1000/250")
            .unwrap()
            .lower();
        assert_eq!(lowered.net.num_procs(), 1024);
        let sys = Oregami::new(lowered.net).with_options(MapperOptions {
            load_bound: Some(2),
            ..MapperOptions::default()
        });
        let r = sys
            .map_source(&larcs::programs::jacobi(), &[("n", 32), ("iters", 2)])
            .unwrap();
        let routes = r.report.mapping.routes.iter().flatten().map(Vec::as_slice);
        let c = compress_routes(
            sys.network(),
            routes,
            CompressionConfig {
                entries_per_proc: 1024,
            },
        )
        .expect("a healthy mapping fits the hardware budget");
        assert!(c.max_entries_per_proc <= 1024, "{c:?}");
        assert!(c.compressed_entries < c.raw_entries, "{c:?}");
    }

    #[test]
    fn cancelled_budget_surfaces_as_map_error() {
        let sys = Oregami::new(builders::hypercube(2));
        let token = CancelToken::new();
        token.cancel();
        let err = sys
            .map_source_with_budget(
                &larcs::programs::jacobi(),
                &[("n", 2), ("iters", 1)],
                &FallbackChain::full(),
                &Budget::unlimited().with_cancel(token),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            OregamiError::Map(mapper::MapError::Cancelled)
        ));
    }
}
