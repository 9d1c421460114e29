//! The MAPPER dispatch (paper Fig 3): pick the mapping strategy from the
//! regularity of the task graph, then contract, embed, and route.
//!
//! ```text
//!          ┌─ nameable?  ──────────► canned contraction/embedding (§4.1)
//! LaRCS ──►├─ all phases bijective? ► group-theoretic contraction (§4.2.2)
//!          ├─ affine + array target? ► systolic synthesis (§4.2.1)
//!          └─ otherwise ────────────► MWM-Contract + NN-Embed (§4.3)
//!                                       │
//!                all strategies ──────► MM-Route (§4.4)
//! ```

use crate::budget::{Budget, Completion};
use crate::canned::{canned_contraction, canned_embedding, quotient_family};
use crate::contraction::{group_contraction, mwm_contract_budgeted, ContractError, Contraction};
use crate::embedding::{exhaustive_embed_budgeted, nn_embed, EmbedError};
use crate::mapping::Mapping;
use crate::routing::{route_all_phases, Matcher};
use crate::systolic;
use oregami_graph::{Family, TaskGraph, WeightedGraph};
use oregami_larcs::analyze;
use oregami_topology::{Network, ProcId, RouteTable, TopologyKind};

/// Which of MAPPER's algorithm classes produced the mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Canned lookup for a nameable task graph (§4.1).
    Canned,
    /// Group-theoretic quotient contraction (§4.2.2).
    GroupTheoretic,
    /// Systolic space-time synthesis for a uniform recurrence (§4.2.1).
    Systolic,
    /// General-graph MWM-Contract + NN-Embed (§4.3).
    General,
    /// Branch-and-bound exhaustive embedding (the engine's highest-quality
    /// fallback-chain stage; anytime under a [`Budget`]).
    Exhaustive,
    /// Last-resort round-robin placement with deterministic shortest-path
    /// routes (the engine's always-succeeds fallback-chain stage).
    Identity,
    /// Multilevel coarsen–map–refine (the engine's huge-graph stage; see
    /// [`crate::multilevel`]).
    Multilevel,
}

/// Tuning knobs for the pipeline.
#[derive(Clone, Debug, Default)]
pub struct MapperOptions {
    /// Load bound `B` (max tasks per processor). Defaults to
    /// `ceil(n / P)` — perfectly balanced spreading; raise it to let
    /// MWM-Contract consolidate communicating tasks onto fewer
    /// processors.
    pub load_bound: Option<usize>,
    /// Bipartite matcher used by MM-Route.
    pub matcher: Matcher,
}

/// The pipeline's full output.
#[derive(Clone, Debug)]
pub struct MapperReport {
    /// Which algorithm class was dispatched.
    pub strategy: Strategy,
    /// The contraction (identity when tasks ≤ processors).
    pub contraction: Contraction,
    /// The finished mapping (assignment + routes).
    pub mapping: Mapping,
    /// The collapsed, multiplicity-weighted communication graph the
    /// decisions were made on.
    pub collapsed: WeightedGraph,
    /// Human-readable notes about the decisions taken.
    pub notes: Vec<String>,
}

/// Pipeline failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The network has no processors or is disconnected.
    BadNetwork(String),
    /// The task graph is empty.
    EmptyTaskGraph,
    /// No feasible contraction under the load bound.
    Contract(ContractError),
    /// Topology-level failure (disconnected network, bad fault ids).
    Topology(oregami_topology::TopologyError),
    /// A produced mapping failed validation.
    Mapping(crate::mapping::MappingError),
    /// Embedding rejected its inputs (more clusters than processors).
    Embed(EmbedError),
    /// The budget's [`crate::budget::CancelToken`] fired before any stage
    /// produced a mapping.
    Cancelled,
    /// Every stage of a fallback chain failed or panicked; the message
    /// summarises each stage's fate.
    AllStagesFailed(String),
    /// A supervised stage was killed by the watchdog at the deadline and
    /// returned no candidate. Unlike [`MapError::Cancelled`] this does
    /// not end the chain — cheaper stages still get their grace-window
    /// chance to serve.
    StageKilled,
    /// A *supervised* chain could serve nothing: every stage failed,
    /// panicked, hung past its grace window, or was skipped by an open
    /// circuit breaker. The service-level verdict
    /// [`crate::supervisor::ServiceHealth::Unserviceable`] as a typed
    /// error; the CLI maps it to exit code 7.
    Unserviceable(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::BadNetwork(msg) => write!(f, "bad network: {msg}"),
            MapError::EmptyTaskGraph => write!(f, "task graph has no tasks"),
            MapError::Contract(e) => write!(f, "contraction failed: {e}"),
            MapError::Topology(e) => write!(f, "topology: {e}"),
            MapError::Mapping(e) => write!(f, "invalid mapping: {e}"),
            MapError::Embed(e) => write!(f, "embedding failed: {e}"),
            MapError::Cancelled => write!(f, "mapping cancelled before any result"),
            MapError::AllStagesFailed(details) => {
                write!(f, "every fallback stage failed: {details}")
            }
            MapError::StageKilled => {
                write!(f, "stage killed at deadline with no candidate")
            }
            MapError::Unserviceable(details) => {
                write!(f, "unserviceable: {details}")
            }
        }
    }
}

impl std::error::Error for MapError {}

impl From<EmbedError> for MapError {
    fn from(e: EmbedError) -> Self {
        MapError::Embed(e)
    }
}

impl From<ContractError> for MapError {
    fn from(e: ContractError) -> Self {
        MapError::Contract(e)
    }
}

impl From<oregami_topology::TopologyError> for MapError {
    fn from(e: oregami_topology::TopologyError) -> Self {
        MapError::Topology(e)
    }
}

impl From<crate::mapping::MappingError> for MapError {
    fn from(e: crate::mapping::MappingError) -> Self {
        MapError::Mapping(e)
    }
}

/// Maps `tg` onto `net`: dispatch → contraction → embedding → routing.
pub fn map_task_graph(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
) -> Result<MapperReport, MapError> {
    check_inputs(tg, net)?;
    // a disconnected network surfaces here as MapError::Topology
    let table = RouteTable::try_new(net)?;
    map_task_graph_budgeted_with_table(tg, net, opts, &Budget::unlimited(), &table)
        .map(|(report, _)| report)
}

/// The checks every mapper entry makes before any work: a graph with
/// tasks, a network with processors.
pub(crate) fn check_inputs(tg: &TaskGraph, net: &Network) -> Result<(), MapError> {
    if tg.num_tasks() == 0 {
        return Err(MapError::EmptyTaskGraph);
    }
    if net.num_procs() == 0 {
        return Err(MapError::BadNetwork("network has no processors".into()));
    }
    Ok(())
}

/// The communication graph MAPPER makes its decisions on: collapsed over
/// phases, each phase weighted by its repetition count in the phase
/// expression when there is one (frequently repeated phases dominate
/// contraction decisions).
pub(crate) fn collapse_for(tg: &TaskGraph) -> WeightedGraph {
    if let Some(expr) = &tg.phase_expr {
        let mult = expr.comm_multiplicities();
        return tg.collapse_weighted(|ph| mult.get(ph.index()).copied().unwrap_or(1).max(1));
    }
    tg.collapse()
}

/// [`map_task_graph`] under an execution budget, with a caller-supplied
/// routing table — typically an `Arc<RouteTable>` handed out by
/// `oregami_topology::cache::RouteTableCache`, so the engine's stages and
/// repair's sweeps stop paying a fresh all-pairs BFS per call. `table`
/// must have been built for `net`.
///
/// The general path's pre-merge and matching charge budget steps and
/// stop early when the budget trips, falling through to the
/// always-polynomial bin-packing + NN-Embed tail. The returned
/// [`Completion`] reports whether any search was cut short; the mapping
/// itself is always complete and valid.
///
/// The dispatch takes the first arm the graph's regularity admits, in the
/// paper's order (declared family, systolic, group, recognised family),
/// and falls through to the general arm; one tail then embeds, routes and
/// reports whatever the arm placed.
pub fn map_task_graph_budgeted_with_table(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    table: &RouteTable,
) -> Result<(MapperReport, Completion), MapError> {
    let ctx = MapCtx::new(tg, net, opts, budget, table)?;
    const ARMS: [Arm; 4] = [
        declared_canned_arm,
        systolic_arm,
        group_arm,
        recognised_canned_arm,
    ];
    let placed = match ARMS.iter().find_map(|arm| arm(&ctx).transpose()) {
        Some(placed) => placed?,
        None => general_arm(&ctx)?,
    };
    ctx.place_and_route(placed)
}

/// One dispatch arm: `Ok(None)` when the graph or the target does not
/// admit its algorithm class.
type Arm = fn(&MapCtx) -> Result<Option<Placed>, MapError>;

/// Everything one dispatch reads, built once.
struct MapCtx<'a> {
    tg: &'a TaskGraph,
    net: &'a Network,
    table: &'a RouteTable,
    opts: &'a MapperOptions,
    budget: &'a Budget,
    n: usize,
    p: usize,
    collapsed: WeightedGraph,
    /// Every collapsed edge carries the same volume. Canned mappings
    /// presume the family's symmetric, unweighted structure, so they only
    /// apply then.
    uniform_weights: bool,
}

/// What an arm placed, before the shared tail embeds and routes it.
struct Placed {
    strategy: Strategy,
    contraction: Contraction,
    embed: Embed,
    notes: Vec<String>,
    completion: Completion,
}

/// How the tail turns a [`Placed`] contraction into an assignment.
enum Embed {
    /// The arm already placed every task.
    Assigned(Vec<ProcId>),
    /// Embed the quotient by the contraction: by the canned embedding of
    /// this quotient family when there is one, else NN-Embed.
    Quotient(Option<Family>),
}

impl Placed {
    fn new(strategy: Strategy, contraction: Contraction, embed: Embed, note: String) -> Placed {
        Placed {
            strategy,
            contraction,
            embed,
            notes: vec![note],
            completion: Completion::Optimal,
        }
    }
}

impl<'a> MapCtx<'a> {
    fn new(
        tg: &'a TaskGraph,
        net: &'a Network,
        opts: &'a MapperOptions,
        budget: &'a Budget,
        table: &'a RouteTable,
    ) -> Result<MapCtx<'a>, MapError> {
        check_inputs(tg, net)?;
        if let Some(Completion::Cancelled) = budget.poll() {
            return Err(MapError::Cancelled);
        }
        let collapsed = collapse_for(tg);
        let uniform_weights = {
            let mut it = collapsed.edges().iter().map(|e| e.w);
            let first = it.next();
            first.is_none() || it.all(|w| Some(w) == first)
        };
        Ok(MapCtx {
            tg,
            net,
            table,
            opts,
            budget,
            n: tg.num_tasks(),
            p: net.num_procs(),
            collapsed,
            uniform_weights,
        })
    }

    /// MWM-Contract into at most `P` clusters under the load bound
    /// (default `ceil(n / P)`). Returns the bound, the contraction and how
    /// the budgeted search ended.
    fn mwm_contract(&self) -> Result<(usize, Contraction, Completion), MapError> {
        let (n, p) = (self.n, self.p);
        let bound = self.opts.load_bound.unwrap_or_else(|| n.div_ceil(p).max(1));
        let (contraction, completion) =
            mwm_contract_budgeted(&self.collapsed, p, bound, self.budget)?;
        Ok((bound, contraction, completion))
    }

    /// The one tail: embed what the arm contracted, route with MM-Route,
    /// and report.
    fn place_and_route(self, placed: Placed) -> Result<(MapperReport, Completion), MapError> {
        let Placed {
            strategy,
            contraction,
            embed,
            mut notes,
            completion,
        } = placed;
        let assignment = match embed {
            Embed::Assigned(assignment) => assignment,
            Embed::Quotient(family) => {
                let placement = self.embed_quotient(&contraction, family, &mut notes)?;
                clusters_to_procs(&contraction, &placement)
            }
        };
        let mapping = finish(self.tg, self.net, self.table, assignment, self.opts);
        let report = MapperReport {
            strategy,
            contraction,
            mapping,
            collapsed: self.collapsed,
            notes,
        };
        Ok((report, completion))
    }

    /// Places the quotient graph of `contraction` on the processors. The
    /// quotient of a family contraction is itself a family instance:
    /// prefer its canned embedding over greedy placement.
    fn embed_quotient(
        &self,
        contraction: &Contraction,
        family: Option<Family>,
        notes: &mut Vec<String>,
    ) -> Result<Vec<ProcId>, MapError> {
        let canned = family
            .and_then(|f| quotient_family(f, self.p))
            .and_then(|qf| canned_embedding(qf, self.net));
        if let Some(placement) = canned {
            notes.push("canned embedding of the quotient family".into());
            return Ok(placement);
        }
        let (quotient, _) = self
            .collapsed
            .quotient(&contraction.cluster_of, contraction.num_clusters);
        Ok(nn_embed(&quotient, self.net, self.table)?)
    }

    /// The canned mapping of `family` (§4.1): an embedding when tasks and
    /// processors match one to one, a contraction when there are more
    /// tasks.
    fn canned(&self, family: Family) -> Option<Placed> {
        let (n, p) = (self.n, self.p);
        if !self.uniform_weights {
            return None;
        }
        if n == p {
            let assignment = canned_embedding(family, self.net)?;
            let note = format!(
                "canned embedding: {}({n}) onto {}",
                family.name(),
                self.net.name
            );
            let (contraction, embed) = (Contraction::identity(n), Embed::Assigned(assignment));
            Some(Placed::new(Strategy::Canned, contraction, embed, note))
        } else if n > p {
            let contraction = canned_contraction(family, p)?;
            let note = format!(
                "canned contraction: {}({n}) into {p} clusters",
                family.name()
            );
            let embed = Embed::Quotient(Some(family));
            Some(Placed::new(Strategy::Canned, contraction, embed, note))
        } else {
            None
        }
    }
}

/// Arm 1: the canned mapping of the family the program declared.
fn declared_canned_arm(ctx: &MapCtx) -> Result<Option<Placed>, MapError> {
    Ok(ctx.tg.family.and_then(|family| ctx.canned(family)))
}

/// Arm 2: systolic synthesis (§4.2.1) for a uniform recurrence on a
/// chain or mesh.
fn systolic_arm(ctx: &MapCtx) -> Result<Option<Placed>, MapError> {
    let dims = match ctx.net.kind {
        TopologyKind::Chain(_) => 1,
        TopologyKind::Mesh2D(..) => 2,
        _ => return Ok(None),
    };
    if !analyze::all_phases_uniform(ctx.tg) {
        return Ok(None);
    }
    let Ok(sm) = systolic::synthesize(ctx.tg, dims) else {
        return Ok(None);
    };
    let Some(assignment) = systolic_assignment(&sm, ctx.net) else {
        return Ok(None);
    };
    let note = format!(
        "systolic synthesis: schedule {:?}, allocation {:?}, makespan {}",
        sm.schedule, sm.allocation, sm.makespan
    );
    let contraction = contraction_from_assignment(&assignment, ctx.p);
    let embed = Embed::Assigned(assignment);
    let placed = Placed::new(Strategy::Systolic, contraction, embed, note);
    Ok(Some(placed))
}

/// Arm 3: group-theoretic contraction (§4.2.2) when every phase is a
/// bijection and the processors divide the tasks.
fn group_arm(ctx: &MapCtx) -> Result<Option<Placed>, MapError> {
    let (n, p) = (ctx.n, ctx.p);
    if !n.is_multiple_of(p) || !analyze::all_phases_bijective(ctx.tg) {
        return Ok(None);
    }
    // circulant fast path (the paper's "syntactic characterization"
    // future work): translations on Z_n contract in O(n) with no group
    // closure at all
    if let Some(cc) = oregami_group::circulant_contract(ctx.tg, p).filter(|cc| cc.regular) {
        let note = format!(
            "circulant fast path: shifts {:?} generate Z_{n}; \
             contraction by residues (no closure)",
            cc.shifts
        );
        let contraction = Contraction {
            cluster_of: cc.cluster_of,
            num_clusters: cc.num_clusters,
        };
        let embed = Embed::Quotient(None);
        let placed = Placed::new(Strategy::GroupTheoretic, contraction, embed, note);
        return Ok(Some(placed));
    }
    let Ok((contraction, gc)) = group_contraction(ctx.tg, p) else {
        return Ok(None);
    };
    let note = format!(
        "group-theoretic contraction: |G| = {}, subgroup of order {}{}",
        gc.group.order(),
        gc.subgroup.order(),
        if gc.subgroup_is_normal {
            " (normal)"
        } else {
            " (non-normal Schreier contraction)"
        }
    );
    let embed = Embed::Quotient(None);
    let placed = Placed::new(Strategy::GroupTheoretic, contraction, embed, note);
    Ok(Some(placed))
}

/// Arm 4: the canned mapping of a family recognised in an undeclared
/// graph. Recognition is an isomorphism search, so it runs only when
/// [`MapCtx::canned`] could use what it finds: uniform weights and at
/// least as many tasks as processors.
fn recognised_canned_arm(ctx: &MapCtx) -> Result<Option<Placed>, MapError> {
    if ctx.tg.family.is_some() || !ctx.uniform_weights || ctx.n < ctx.p {
        return Ok(None);
    }
    Ok(analyze::recognize_family(ctx.tg).and_then(|family| ctx.canned(family)))
}

/// The general arm (§4.3): MWM-Contract under the load bound, then
/// NN-Embed. It admits every graph, so it is the dispatch's fallthrough.
fn general_arm(ctx: &MapCtx) -> Result<Placed, MapError> {
    let (bound, contraction, completion) = ctx.mwm_contract()?;
    let note = format!(
        "MWM-Contract: {} clusters, load bound {bound}, IPC {}{}",
        contraction.num_clusters,
        contraction.total_ipc(&ctx.collapsed),
        if completion.is_degraded() {
            format!(" ({completion})")
        } else {
            String::new()
        }
    );
    Ok(Placed {
        completion,
        ..Placed::new(Strategy::General, contraction, Embed::Quotient(None), note)
    })
}

/// The engine's exhaustive stage: MWM-Contract to at most `P` clusters,
/// then place the quotient with the anytime branch-and-bound embedder
/// instead of NN-Embed, through the dispatch's tail.
pub(crate) fn map_exhaustive(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    table: &RouteTable,
) -> Result<(MapperReport, Completion), MapError> {
    let ctx = MapCtx::new(tg, net, opts, budget, table)?;
    let (_, contraction, completion) = ctx.mwm_contract()?;
    let (quotient, _) = ctx
        .collapsed
        .quotient(&contraction.cluster_of, contraction.num_clusters);
    let embed = exhaustive_embed_budgeted(&quotient, net, table, budget)?;
    let note = format!(
        "exhaustive embedding: {} clusters on {} processors, quotient cost {} ({})",
        contraction.num_clusters, ctx.p, embed.cost, embed.completion
    );
    let assignment = Embed::Assigned(clusters_to_procs(&contraction, &embed.placement));
    let placed = Placed::new(Strategy::Exhaustive, contraction, assignment, note);
    ctx.place_and_route(Placed {
        completion: completion.worst(embed.completion),
        ..placed
    })
}

pub(crate) fn clusters_to_procs(contraction: &Contraction, placement: &[ProcId]) -> Vec<ProcId> {
    contraction
        .cluster_of
        .iter()
        .map(|&c| placement[c])
        .collect()
}

pub(crate) fn contraction_from_assignment(assignment: &[ProcId], procs: usize) -> Contraction {
    Contraction {
        cluster_of: assignment.iter().map(|p| p.index()).collect(),
        num_clusters: procs,
    }
    .compact()
}

pub(crate) fn finish(
    tg: &TaskGraph,
    net: &Network,
    table: &RouteTable,
    assignment: Vec<ProcId>,
    opts: &MapperOptions,
) -> Mapping {
    debug_assert_eq!(assignment.len(), tg.num_tasks());
    let routes = route_all_phases(tg, &assignment, net, table, opts.matcher);
    let mapping = Mapping { assignment, routes };
    debug_assert!(mapping.validate(tg, net).is_ok());
    mapping
}

/// Maps the virtual systolic array onto the physical network: linear
/// arrays index directly into a chain, meshes row-major into a mesh.
/// `None` when the virtual array exceeds the hardware (MAPPER then falls
/// back to the general path, which can fold).
fn systolic_assignment(sm: &systolic::SystolicMapping, net: &Network) -> Option<Vec<ProcId>> {
    match net.kind {
        TopologyKind::Chain(len) => {
            if sm.array_dims.len() != 1 || sm.array_dims[0] as usize > len {
                return None;
            }
            Some(
                sm.proc_of
                    .iter()
                    .map(|p| ProcId(p[0] as u32))
                    .collect(),
            )
        }
        TopologyKind::Mesh2D(r, c) => {
            match sm.array_dims.as_slice() {
                [rows, cols] => {
                    if *rows as usize > r || *cols as usize > c {
                        return None;
                    }
                    Some(
                        sm.proc_of
                            .iter()
                            .map(|p| ProcId((p[0] as usize * c + p[1] as usize) as u32))
                            .collect(),
                    )
                }
                [len] => {
                    // linear virtual array snaked into the mesh
                    if *len as usize > r * c {
                        return None;
                    }
                    Some(
                        sm.proc_of
                            .iter()
                            .map(|p| {
                                let i = p[0] as usize;
                                let (row, col) = (i / c, i % c);
                                let col = if row % 2 == 0 { col } else { c - 1 - col };
                                ProcId((row * c + col) as u32)
                            })
                            .collect(),
                    )
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_larcs::{compile, programs};
    use oregami_topology::builders;

    #[test]
    fn ring_on_hypercube_dispatches_canned() {
        let tg = oregami_graph::Family::Ring(8).build();
        let net = builders::hypercube(3);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(report.strategy, Strategy::Canned);
        report.mapping.validate(&tg, &net).unwrap();
        // gray-code embedding: every route is a single hop
        for path in &report.mapping.routes[0] {
            assert_eq!(path.len(), 2);
        }
    }

    #[test]
    fn broadcast8_dispatches_group_theoretic() {
        let tg = compile(&programs::broadcast8(), &[]).unwrap();
        let net = builders::hypercube(2); // 4 procs, 8 tasks
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(report.strategy, Strategy::GroupTheoretic);
        assert_eq!(report.contraction.sizes(), vec![2; 4]);
        report.mapping.validate(&tg, &net).unwrap();
    }

    #[test]
    fn matmul_on_chain_dispatches_systolic() {
        let tg = compile(&programs::matmul(), &[("n", 4)]).unwrap();
        let net = builders::chain(4);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(report.strategy, Strategy::Systolic);
        report.mapping.validate(&tg, &net).unwrap();
        // 16 tasks on ≤ 4 processors
        let counts = report.mapping.tasks_per_proc(4);
        assert_eq!(counts.iter().sum::<usize>(), 16);
    }

    #[test]
    fn irregular_graph_dispatches_general() {
        let src = "algorithm odd(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: x(0) -> x(1); x(0) -> x(2); x(1) -> x(3); \
                               x(2) -> x(4); x(4) -> x(5); x(3) -> x(5); x(1) -> x(4);";
        let tg = compile(src, &[("n", 6)]).unwrap();
        let net = builders::mesh2d(2, 2);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(report.strategy, Strategy::General);
        report.mapping.validate(&tg, &net).unwrap();
        report.contraction.validate(4, 3).unwrap();
    }

    #[test]
    fn nbody_on_hypercube_uses_group_path() {
        // n-body phases are bijections (rotations) — the Cayley path
        // applies when 8 procs divide 16 tasks.
        let tg = compile(&programs::nbody(), &[("n", 16), ("s", 2), ("msgsize", 4)]).unwrap();
        let net = builders::hypercube(3);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(report.strategy, Strategy::GroupTheoretic);
        assert_eq!(report.contraction.sizes(), vec![2; 8]);
        report.mapping.validate(&tg, &net).unwrap();
    }

    #[test]
    fn empty_graph_and_bad_network_rejected() {
        let tg = TaskGraph::new("empty");
        let net = builders::chain(2);
        assert!(matches!(
            map_task_graph(&tg, &net, &MapperOptions::default()),
            Err(MapError::EmptyTaskGraph)
        ));
    }

    #[test]
    fn load_bound_respected() {
        let tg = compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).unwrap();
        let net = builders::mesh2d(2, 2);
        let opts = MapperOptions {
            load_bound: Some(4),
            ..MapperOptions::default()
        };
        let report = map_task_graph(&tg, &net, &opts).unwrap();
        // 16 tasks on 4 procs with bound 4: perfectly balanced
        assert_eq!(report.mapping.tasks_per_proc(4), vec![4; 4]);
    }

    #[test]
    fn phase_multiplicities_bias_contraction() {
        // two phases: a heavy-looking edge in a once-run phase vs a light
        // edge repeated 100x. With multiplicities the repeated edge wins.
        let src = "algorithm m(n);\n\
                   nodetype x: 0..3;\n\
                   comphase once: x(0) -> x(1) volume 50; x(2) -> x(3) volume 50;\n\
                   comphase often: x(1) -> x(2) volume 1; x(0) -> x(3) volume 1;\n\
                   exephase work;\n\
                   phaseexpr once; (often; work)^100;";
        let tg = compile(src, &[("n", 4)]).unwrap();
        let net = builders::chain(2);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        // multiplicity-weighted: pairing {1,2} and {0,3} internalises
        // 2*100 = 200 > 100 from pairing {0,1},{2,3}
        let c = &report.contraction;
        assert_eq!(c.cluster_of[1], c.cluster_of[2]);
        assert_eq!(c.cluster_of[0], c.cluster_of[3]);
    }
}
