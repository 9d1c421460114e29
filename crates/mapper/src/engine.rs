//! The mapping engine: declarative fallback chains with panic isolation
//! and structured reporting.
//!
//! The paper's interactive workflow (§3) promises the user always gets
//! *a* mapping back; MAPPER's individual algorithms do not — the
//! exhaustive embedder is factorial, and any stage can reject its inputs
//! or (defensively) panic. [`run_engine_with`] closes that gap: it runs the
//! stages of a [`FallbackChain`] in priority order under one shared
//! [`Budget`], isolates each stage behind `catch_unwind`, collects every
//! stage's candidate mapping, and serves the cheapest one under the
//! METRICS cost model ([`crate::metrics_engine::MetricsEngine::scalar_cost`]
//! with [`EngineConfig::cost_model`]) — so the served candidate and the
//! metrics reported for it always agree. The [`EngineReport`] records
//! which stages ran, why each one stopped, and how much time and budget
//! each consumed.
//!
//! Chain semantics:
//!
//! * a stage that completes [`Completion::Optimal`] ends the chain — no
//!   cheaper-quality stage can beat a finished search, so later stages
//!   are marked skipped;
//! * a stage cut short by the budget still contributes its best-so-far
//!   candidate, and the chain continues to cheaper stages (which, being
//!   polynomial, finish even on a spent budget);
//! * a stage that errors or panics contributes nothing and the chain
//!   continues;
//! * cancellation stops the chain immediately; whatever candidate exists
//!   is served, else [`MapError::Cancelled`].
//!
//! The stages run one after another in chain order, and each result is
//! folded into the report as soon as its stage returns. A plain run
//! launches a stage in place; a supervised run launches it on a watched
//! worker thread ([`crate::supervisor`]). Either way the fold is the same,
//! so a supervised run in which no stage failed, hung or retried reports
//! the same stage records as a plain run.

use crate::budget::{Budget, Completion};
use crate::mapping::Mapping;
use crate::metrics_engine::{CostModel, MetricsEngine};
use crate::multilevel::multilevel_map_with_report;
use crate::pipeline::{
    check_inputs, collapse_for, contraction_from_assignment, map_exhaustive,
    map_task_graph_budgeted_with_table, MapError, MapperOptions, MapperReport, Strategy,
};
use crate::routing::baseline::baseline_route_all;
use crate::supervisor::{served_health, supervised_launcher, ServiceHealth, SupervisorConfig};
use oregami_graph::TaskGraph;
use oregami_topology::{Network, ProcId, RouteTable, RouteTableCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stage of a fallback chain, ordered from highest mapping quality
/// (and cost) to cheapest guaranteed-success placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Branch-and-bound exhaustive embedding over the contracted cluster
    /// graph — optimal when run to completion, factorial in the worst
    /// case, anytime under a budget (seeded with the NN-Embed incumbent).
    Exhaustive,
    /// The regular MAPPER dispatch ([`map_task_graph_budgeted_with_table`]): canned /
    /// systolic / group-theoretic recognition, else MWM-Contract +
    /// NN-Embed. Polynomial.
    Heuristic,
    /// Round-robin task→processor placement with deterministic
    /// shortest-path routes. Linear, cannot fail on a connected network —
    /// the chain's safety net.
    Identity,
    /// Multilevel coarsen–map–refine ([`crate::multilevel`]): near-linear,
    /// built for 100k–1M-task graphs where the other search stages cannot
    /// even finish a first pass.
    Multilevel,
}

impl StageKind {
    /// Every stage kind, in declaration order — for views that must not
    /// forget one (the daemon's per-stage breaker listing).
    pub const ALL: [StageKind; 4] = [
        StageKind::Exhaustive,
        StageKind::Heuristic,
        StageKind::Identity,
        StageKind::Multilevel,
    ];

    /// Stable lower-case name used in reports and `--chain` specs.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Exhaustive => "exhaustive",
            StageKind::Heuristic => "heuristic",
            StageKind::Identity => "identity",
            StageKind::Multilevel => "multilevel",
        }
    }
}

impl std::str::FromStr for StageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<StageKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exhaustive" => Ok(StageKind::Exhaustive),
            "heuristic" | "general" => Ok(StageKind::Heuristic),
            "identity" => Ok(StageKind::Identity),
            "multilevel" | "ml" => Ok(StageKind::Multilevel),
            other => Err(format!(
                "unknown stage '{other}' (expected exhaustive, heuristic, multilevel, \
                 or identity)"
            )),
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered list of stages to attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FallbackChain {
    /// Stages in priority order, best quality first.
    pub stages: Vec<StageKind>,
}

impl Default for FallbackChain {
    /// Just the regular MAPPER dispatch — the behaviour of
    /// [`crate::pipeline::map_task_graph`].
    fn default() -> FallbackChain {
        FallbackChain {
            stages: vec![StageKind::Heuristic],
        }
    }
}

impl FallbackChain {
    /// The full chain: exhaustive → heuristic → identity.
    pub fn full() -> FallbackChain {
        FallbackChain {
            stages: vec![
                StageKind::Exhaustive,
                StageKind::Heuristic,
                StageKind::Identity,
            ],
        }
    }

    /// Parses a comma-separated spec like `"exhaustive,heuristic,identity"`.
    pub fn parse(spec: &str) -> Result<FallbackChain, String> {
        let stages: Vec<StageKind> = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        if stages.is_empty() {
            return Err("fallback chain spec names no stages".into());
        }
        Ok(FallbackChain { stages })
    }
}

impl std::fmt::Display for FallbackChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            f.write_str(s.name())?;
        }
        Ok(())
    }
}

/// Engine-level configuration: an optional shared route-table cache, the
/// cost model candidates are ranked under, and optional supervision.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Route tables for `net` are taken from (and inserted into) this
    /// cache. `None` gives the run a small private cache, which still
    /// spares the per-stage rebuilds within one chain; pass a shared
    /// cache (as `core::Oregami` does) to also reuse tables across runs.
    pub cache: Option<Arc<RouteTableCache>>,
    /// The METRICS cost model candidates are ranked under — the same
    /// model the metrics report for the served mapping uses.
    pub cost_model: CostModel,
    /// When set, stages run under the supervisor: each on a watched
    /// worker thread with a deadline watchdog (non-polling stages get
    /// killed and, past the grace window, detached and reported
    /// [`StageStatus::Hung`]), bounded retry for transient failures, and
    /// persistent per-stage circuit breakers.
    pub supervisor: Option<SupervisorConfig>,
}

impl EngineConfig {
    /// An unsupervised run with a shared cache.
    pub fn with_cache(cache: Arc<RouteTableCache>) -> EngineConfig {
        EngineConfig {
            cache: Some(cache),
            cost_model: CostModel::default(),
            supervisor: None,
        }
    }

    /// Enables supervised stage execution (watchdog + retry + circuit
    /// breakers). See [`crate::supervisor`].
    pub fn supervised(mut self, cfg: SupervisorConfig) -> EngineConfig {
        self.supervisor = Some(cfg);
        self
    }

    /// Sets the cost model candidates are ranked under.
    pub fn with_cost_model(mut self, model: CostModel) -> EngineConfig {
        self.cost_model = model;
        self
    }
}

/// How a stage fared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageStatus {
    /// Produced the mapping the engine served.
    Served,
    /// Produced a valid candidate that a cheaper one beat.
    Candidate,
    /// Never ran: an earlier stage finished optimally or the run was
    /// cancelled.
    Skipped,
    /// Returned a typed error.
    Failed(String),
    /// Panicked; the panic was contained and the chain continued.
    Panicked(String),
    /// Never responded to its kill token within the deadline + grace
    /// window: the supervisor detached its worker thread and moved on
    /// (supervised runs only).
    Hung,
    /// Skipped because the stage's circuit breaker is open after too
    /// many consecutive panics/hangs (supervised runs only).
    CircuitOpen,
}

/// One stage's entry in the [`EngineReport`].
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Which stage.
    pub stage: StageKind,
    /// How it fared.
    pub status: StageStatus,
    /// How its search ended (candidates only).
    pub completion: Option<Completion>,
    /// Wall-clock time the stage consumed.
    pub elapsed: Duration,
    /// Budget steps the stage consumed.
    pub steps: u64,
    /// METRICS scalar cost of its candidate under the engine's cost
    /// model (candidates only).
    pub cost: Option<u64>,
    /// How many times the stage was attempted (supervised runs retry
    /// transient failures; unsupervised runs report 1, skips 0).
    pub attempts: u32,
}

/// The engine's structured account of a chain run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Per-stage outcomes, in chain order.
    pub stages: Vec<StageReport>,
    /// The stage whose candidate was served.
    pub served_by: StageKind,
    /// Worst completion over every stage that produced a candidate: if
    /// any search was cut short, the served mapping may be suboptimal
    /// and this is degraded even when a later (cheaper) stage finished.
    pub completion: Completion,
    /// Total wall-clock time of the chain.
    pub elapsed: Duration,
    /// Budget steps the chain consumed: the steps charged to the budget
    /// during this run, not any charged before it.
    pub steps: u64,
    /// The service-level verdict: [`ServiceHealth::Healthy`] only when
    /// the run served optimally with no failures, hangs, retries, or
    /// tripped breakers; a served run is otherwise
    /// [`ServiceHealth::Degraded`]. ([`ServiceHealth::Unserviceable`]
    /// runs don't produce a report — they are the
    /// [`MapError::Unserviceable`] error path.)
    pub health: ServiceHealth,
}

impl EngineReport {
    /// Whether any attempted search was cut short (deadline, quota, or
    /// cancellation) — the served mapping is valid but possibly worse
    /// than an unbudgeted run would produce.
    pub fn is_degraded(&self) -> bool {
        self.completion.is_degraded()
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine: served by {} ({}), {} steps in {:.1?}",
            self.served_by, self.completion, self.steps, self.elapsed
        )?;
        for s in &self.stages {
            write!(f, "  stage {:<10} : ", s.stage.name())?;
            match &s.status {
                StageStatus::Served | StageStatus::Candidate => {
                    let completion = s.completion.unwrap_or(Completion::Optimal);
                    write!(
                        f,
                        "{completion} after {} steps in {:.1?} (cost {})",
                        s.steps,
                        s.elapsed,
                        s.cost.unwrap_or(0)
                    )?;
                    if s.status == StageStatus::Served {
                        write!(f, " [served]")?;
                    }
                }
                StageStatus::Skipped => write!(f, "skipped")?,
                StageStatus::Failed(e) => write!(f, "failed: {e}")?,
                StageStatus::Panicked(msg) => write!(f, "panicked: {msg}")?,
                StageStatus::Hung => write!(
                    f,
                    "hung: no response within deadline + grace; worker detached"
                )?,
                StageStatus::CircuitOpen => write!(f, "skipped: circuit breaker open")?,
            }
            if s.attempts > 1 {
                write!(f, " [{} attempts]", s.attempts)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  health: {}", self.health)?;
        Ok(())
    }
}

/// A served mapping plus the engine's account of how it was produced.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// The mapping report of the served stage.
    pub report: MapperReport,
    /// The chain's structured execution record.
    pub engine: EngineReport,
}

/// The single ranking the chain serves by: the METRICS engine's scalar
/// cost of the candidate (completion time when the graph declares a phase
/// expression, else the summed per-phase communication slot costs), under
/// the configured cost model. A candidate the metrics engine rejects
/// ranks last rather than failing the chain.
fn candidate_cost(tg: &TaskGraph, net: &Network, mapping: &Mapping, model: &CostModel) -> u64 {
    MetricsEngine::try_new(tg, net, mapping, model)
        .map(|e| e.scalar_cost())
        .unwrap_or(u64::MAX)
}

/// Runs the fallback chain on `tg`/`net` under `budget` and serves the
/// cheapest candidate. See the module docs for the chain semantics;
/// `config` supplies the route-table cache, the cost model and optional
/// supervision.
pub fn run_engine_with(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    chain: &FallbackChain,
    budget: &Budget,
    config: &EngineConfig,
) -> Result<EngineOutcome, MapError> {
    if chain.stages.is_empty() {
        return Err(MapError::AllStagesFailed("empty fallback chain".into()));
    }
    check_inputs(tg, net)?;
    let cache = config
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(RouteTableCache::new(4)));
    // Warm the cache (one build, every stage hits) and fail fast on a
    // disconnected network before any stage spends budget.
    cache.get_or_build(net)?;
    let start = Instant::now();
    let steps_before = budget.steps_used();

    // Run each stage in chain order and fold its result in as it returns;
    // once a result ends the chain, the stages after it are skipped.
    let mut launch: Box<dyn FnMut(StageKind) -> RawStage + '_> = match &config.supervisor {
        Some(sup) => Box::new(supervised_launcher(tg, net, opts, budget, &cache, sup)),
        None => Box::new(|kind| execute_stage(kind, tg, net, opts, budget, &cache)),
    };
    let mut fold = ChainFold::new(tg, net, &config.cost_model, chain.stages.len());
    for &kind in &chain.stages {
        if fold.stop {
            fold.skip(kind);
        } else {
            fold.push(kind, launch(kind));
        }
    }

    let ChainFold {
        mut stages,
        best,
        worst_completion,
        cancelled,
        ..
    } = fold;
    let sup_state = config.supervisor.as_ref().map(|s| &*s.state);
    match best {
        Some((report, _, idx)) => {
            stages[idx].status = StageStatus::Served;
            let health = served_health(&stages, worst_completion, sup_state);
            let engine = EngineReport {
                served_by: stages[idx].stage,
                completion: worst_completion,
                elapsed: start.elapsed(),
                steps: budget.steps_used() - steps_before,
                health,
                stages,
            };
            Ok(EngineOutcome { report, engine })
        }
        None if cancelled => Err(MapError::Cancelled),
        None => Err(unserved(&stages, config.supervisor.is_some())),
    }
}

/// The error of a chain that produced no candidate, naming every
/// stage's fate.
fn unserved(stages: &[StageReport], supervised: bool) -> MapError {
    let details = stages
        .iter()
        .map(|s| {
            let fate = match &s.status {
                StageStatus::Failed(e) => e.clone(),
                StageStatus::Panicked(msg) => format!("panic: {msg}"),
                StageStatus::Skipped => "skipped".into(),
                StageStatus::Hung => "hung (worker detached)".into(),
                StageStatus::CircuitOpen => "circuit breaker open".into(),
                _ => "no candidate".into(),
            };
            format!("{}: {}", s.stage, fate)
        })
        .collect::<Vec<_>>()
        .join("; ");
    if supervised {
        // A supervised run that serves nothing is the Unserviceable
        // health verdict, as a typed error.
        MapError::Unserviceable(details)
    } else {
        MapError::AllStagesFailed(details)
    }
}

/// The chain-order fold: stage results in, stage reports and the
/// cheapest candidate out, under the chain semantics.
struct ChainFold<'a> {
    tg: &'a TaskGraph,
    net: &'a Network,
    cost_model: &'a CostModel,
    stages: Vec<StageReport>,
    /// The cheapest candidate so far: (report, cost, stage index).
    best: Option<(MapperReport, u64, usize)>,
    worst_completion: Completion,
    /// A result ended the chain: the stages after it are skipped.
    stop: bool,
    cancelled: bool,
}

impl<'a> ChainFold<'a> {
    fn new(
        tg: &'a TaskGraph,
        net: &'a Network,
        cost_model: &'a CostModel,
        stages: usize,
    ) -> ChainFold<'a> {
        ChainFold {
            tg,
            net,
            cost_model,
            stages: Vec::with_capacity(stages),
            best: None,
            worst_completion: Completion::Optimal,
            stop: false,
            cancelled: false,
        }
    }

    /// Folds one stage's result in.
    fn push(&mut self, kind: StageKind, raw: RawStage) {
        let RawStage {
            outcome,
            elapsed,
            steps,
            attempts,
        } = raw;
        let (status, completion, cost) = self.status_of(outcome);
        self.stages.push(StageReport {
            stage: kind,
            status,
            completion,
            elapsed,
            steps,
            cost,
            attempts,
        });
    }

    /// Records a stage the chain ended before it started.
    fn skip(&mut self, kind: StageKind) {
        self.stages.push(StageReport {
            stage: kind,
            status: StageStatus::Skipped,
            completion: None,
            elapsed: Duration::ZERO,
            steps: 0,
            cost: None,
            attempts: 0,
        });
    }

    /// An outcome's status, completion and cost; a candidate competes for
    /// `best`, and an Optimal or cancelled result ends the chain.
    fn status_of(&mut self, outcome: RawOutcome) -> (StageStatus, Option<Completion>, Option<u64>) {
        match outcome {
            RawOutcome::Candidate(report, completion) => {
                let cost = candidate_cost(self.tg, self.net, &report.mapping, self.cost_model);
                self.worst_completion = self.worst_completion.worst(completion);
                if self.best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                    self.best = Some((report, cost, self.stages.len()));
                }
                match completion {
                    Completion::Optimal => self.stop = true,
                    Completion::Cancelled => self.end_cancelled(),
                    Completion::BudgetExhausted => {}
                }
                (StageStatus::Candidate, Some(completion), Some(cost))
            }
            RawOutcome::Failed(e) => {
                if matches!(e, MapError::Cancelled) {
                    self.end_cancelled();
                }
                (StageStatus::Failed(e.to_string()), None, None)
            }
            RawOutcome::Panicked(msg) => (StageStatus::Panicked(msg), None, None),
            RawOutcome::Hung => (StageStatus::Hung, None, None),
            RawOutcome::CircuitOpen => (StageStatus::CircuitOpen, None, None),
        }
    }

    fn end_cancelled(&mut self) {
        self.stop = true;
        self.cancelled = true;
    }
}

/// What one stage execution produced, before the chain-order fold.
pub(crate) enum RawOutcome {
    Candidate(MapperReport, Completion),
    Failed(MapError),
    Panicked(String),
    /// The stage's worker never responded to its kill token within the
    /// grace window; the supervisor detached it (supervised runs only).
    Hung,
    /// The stage's circuit breaker is open; the supervisor skipped it
    /// (supervised runs only).
    CircuitOpen,
}

pub(crate) struct RawStage {
    pub(crate) outcome: RawOutcome,
    pub(crate) elapsed: Duration,
    pub(crate) steps: u64,
    pub(crate) attempts: u32,
}

/// One isolated stage execution: panics contained, steps measured.
fn execute_stage(
    kind: StageKind,
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    cache: &RouteTableCache,
) -> RawStage {
    let steps_before = budget.steps_used();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_stage(kind, tg, net, opts, budget, cache)
    }));
    let elapsed = t0.elapsed();
    let steps = budget.steps_used() - steps_before;
    let outcome = match outcome {
        Ok(Ok((report, completion))) => RawOutcome::Candidate(report, completion),
        Ok(Err(e)) => RawOutcome::Failed(e),
        Err(panic) => RawOutcome::Panicked(panic_message(&*panic)),
    };
    RawStage {
        outcome,
        elapsed,
        steps,
        attempts: 1,
    }
}

pub(crate) fn run_stage(
    kind: StageKind,
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    cache: &RouteTableCache,
) -> Result<(MapperReport, Completion), MapError> {
    let table = cache.get_or_build(net)?;
    match kind {
        StageKind::Heuristic => map_task_graph_budgeted_with_table(tg, net, opts, budget, &table),
        StageKind::Exhaustive => map_exhaustive(tg, net, opts, budget, &table),
        StageKind::Identity => identity_stage(tg, net, &table),
        StageKind::Multilevel => multilevel_map_with_report(tg, net, opts, budget, table)
            .map(|(report, completion, _)| (report, completion)),
    }
}

/// Round-robin placement with fixed shortest-path routes: linear work,
/// no search to cut short, valid on any connected network.
fn identity_stage(
    tg: &TaskGraph,
    net: &Network,
    table: &RouteTable,
) -> Result<(MapperReport, Completion), MapError> {
    let n = tg.num_tasks();
    let p = net.num_procs();
    let assignment: Vec<ProcId> = (0..n).map(|t| ProcId((t % p) as u32)).collect();
    let routes = baseline_route_all(tg, &assignment, net, table);
    let mapping = Mapping { assignment, routes };
    mapping.validate(tg, net)?;
    let contraction = contraction_from_assignment(&mapping.assignment, p);
    Ok((
        MapperReport {
            strategy: Strategy::Identity,
            contraction,
            mapping,
            collapsed: collapse_for(tg),
            notes: vec![
                "identity placement: round-robin task assignment, shortest-path routes".into(),
            ],
        },
        Completion::Optimal,
    ))
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_larcs::{compile, programs};
    use oregami_topology::builders;

    fn jacobi16() -> TaskGraph {
        compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).unwrap()
    }

    #[test]
    fn stage_kind_parses_round_trip() {
        for kind in [
            StageKind::Exhaustive,
            StageKind::Heuristic,
            StageKind::Identity,
            StageKind::Multilevel,
        ] {
            assert_eq!(kind.name().parse::<StageKind>().unwrap(), kind);
        }
        assert_eq!("ml".parse::<StageKind>().unwrap(), StageKind::Multilevel);
        assert!("bogus".parse::<StageKind>().is_err());
        let chain = FallbackChain::parse("exhaustive, heuristic,identity").unwrap();
        assert_eq!(chain, FallbackChain::full());
        assert!(FallbackChain::parse(",,").is_err());
        assert_eq!(chain.to_string(), "exhaustive -> heuristic -> identity");
    }

    #[test]
    fn default_chain_matches_plain_pipeline() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::default(),
            &Budget::unlimited(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.engine.served_by, StageKind::Heuristic);
        assert_eq!(outcome.engine.completion, Completion::Optimal);
        assert!(!outcome.engine.is_degraded());
        let plain =
            crate::pipeline::map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(outcome.report.mapping.assignment, plain.mapping.assignment);
    }

    #[test]
    fn exhausted_exhaustive_falls_through_and_still_serves() {
        // 16 tasks on 16 procs: the exhaustive stage faces 16! placements
        // and a 1-step budget; the chain must still serve a valid mapping
        // and the report must name the exhausted stage.
        let tg = jacobi16();
        let net = builders::hypercube(4);
        let budget = Budget::unlimited().with_max_steps(1);
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &budget,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.engine.is_degraded());
        assert_eq!(outcome.engine.completion, Completion::BudgetExhausted);
        outcome.report.mapping.validate(&tg, &net).unwrap();
        let rendered = outcome.engine.to_string();
        assert!(
            rendered.contains("exhaustive") && rendered.contains("budget exhausted"),
            "report must name the exhausted stage:\n{rendered}"
        );
    }

    #[test]
    fn optimal_first_stage_skips_the_rest() {
        // 4 tasks on 4 procs: the exhaustive stage finishes optimally, so
        // heuristic and identity never run.
        let tg = oregami_graph::Family::Ring(4).build();
        let net = builders::hypercube(2);
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.engine.served_by, StageKind::Exhaustive);
        assert_eq!(outcome.engine.completion, Completion::Optimal);
        assert_eq!(outcome.engine.stages[0].status, StageStatus::Served);
        assert_eq!(outcome.engine.stages[1].status, StageStatus::Skipped);
        assert_eq!(outcome.engine.stages[2].status, StageStatus::Skipped);
    }

    #[test]
    fn identity_stage_always_serves() {
        let tg = jacobi16();
        let net = builders::chain(5); // 16 tasks on 5 procs, nothing regular
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain {
                stages: vec![StageKind::Identity],
            },
            &Budget::unlimited(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.report.strategy, Strategy::Identity);
        outcome.report.mapping.validate(&tg, &net).unwrap();
        // round-robin: loads differ by at most one
        let loads = outcome.report.mapping.tasks_per_proc(5);
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
    }

    #[test]
    fn cancelled_before_start_is_an_error() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let err = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain {
                stages: vec![StageKind::Exhaustive, StageKind::Heuristic],
            },
            &budget,
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::Cancelled));
    }

    #[test]
    fn panicking_stage_is_contained() {
        // Drive the engine's catch_unwind path directly: a panicking
        // closure must surface as StageStatus::Panicked, not a crash.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), MapError> {
            panic!("stage blew up")
        }));
        assert!(outcome.is_err());
        assert_eq!(panic_message(&*outcome.unwrap_err()), "stage blew up");
    }

    fn served_cost(outcome: &EngineOutcome) -> Option<u64> {
        outcome
            .engine
            .stages
            .iter()
            .find(|s| s.status == StageStatus::Served)
            .and_then(|s| s.cost)
    }

    #[test]
    fn four_stage_chain_serves_the_cheapest_candidate_deterministically() {
        // A 4-stage chain under a bounded step quota: every step the
        // stages charge shows in the report, the served stage has the
        // lowest cost on offer, and repeated runs serve byte-identically.
        // 64 tasks on 5 procs: above the 4×P coarsening threshold, so
        // multilevel's matching charges a step per examined edge and the
        // 40-step quota cuts it short instead of ending the chain.
        let tg = compile(&programs::jacobi(), &[("n", 8), ("iters", 1)]).unwrap();
        let net = builders::chain(5);
        let chain = FallbackChain::parse("multilevel,exhaustive,heuristic,identity").unwrap();
        assert_eq!(chain.stages.len(), 4);
        let run = || {
            run_engine_with(
                &tg,
                &net,
                &MapperOptions::default(),
                &chain,
                &Budget::unlimited().with_max_steps(40),
                &EngineConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        a.report.mapping.validate(&tg, &net).unwrap();
        // the budget accounts for every stage's charged steps
        assert_eq!(
            a.engine.steps,
            a.engine.stages.iter().map(|s| s.steps).sum::<u64>()
        );
        // serving rule: the served stage has the minimum cost on offer
        let served = served_cost(&a).unwrap();
        let min = a.engine.stages.iter().filter_map(|s| s.cost).min().unwrap();
        assert_eq!(served, min);
        // byte-determinism across runs
        let b = run();
        assert_eq!(a.engine.served_by, b.engine.served_by);
        assert_eq!(a.report.mapping.assignment, b.report.mapping.assignment);
    }

    #[test]
    fn report_counts_only_the_steps_of_its_own_run() {
        // One budget reused across runs: the second report's steps are the
        // second run's work, not the first run's as well.
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let budget = Budget::unlimited();
        let run = || {
            run_engine_with(
                &tg,
                &net,
                &MapperOptions::default(),
                &FallbackChain::full(),
                &budget,
                &EngineConfig::default(),
            )
            .unwrap()
        };
        let first = run();
        assert!(first.engine.steps > 0);
        let second = run();
        assert_eq!(
            second.engine.steps,
            second.engine.stages.iter().map(|s| s.steps).sum::<u64>()
        );
        assert_eq!(
            budget.steps_used(),
            first.engine.steps + second.engine.steps
        );
    }

    #[test]
    fn shared_cache_is_hit_across_stages_and_runs() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let cache = Arc::new(RouteTableCache::new(4));
        let config = EngineConfig::with_cache(Arc::clone(&cache));
        for _ in 0..2 {
            run_engine_with(
                &tg,
                &net,
                &MapperOptions::default(),
                &FallbackChain::full(),
                &Budget::unlimited(),
                &config,
            )
            .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one BFS sweep for the whole pair of runs");
        assert!(stats.hits >= 3, "engine + stages must hit, got {stats:?}");
    }

    #[test]
    fn empty_chain_rejected() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let err = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain { stages: vec![] },
            &Budget::unlimited(),
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::AllStagesFailed(_)));
    }
}
