//! Mapping repair after processor/link failures.
//!
//! OREGAMI computes mappings offline for a healthy machine; this module
//! answers "the machine just lost processor 5 and two links — salvage the
//! mapping" without recompiling the LaRCS program. Repair escalates
//! through three levels, cheapest first:
//!
//! 1. **Re-route** (link faults only touch routes): every edge whose
//!    route traverses an out-of-service link or a dead processor is
//!    re-routed along a surviving shortest path
//!    ([`oregami_topology::DegradedNetwork::route_table`]).
//! 2. **Migrate intra-domain** (processor faults move tasks): tasks
//!    hosted on dead processors move to surviving ones, chosen greedily
//!    to minimise the task's communication affinity (volume ×
//!    surviving-network distance to its neighbors' hosts) under the load
//!    bound. When the machine carries a hierarchical
//!    [`DomainMap`] ([`RepairOptions::domains`]), candidates are first
//!    restricted to the dead processor's own domain (board/group/pod) —
//!    faults are correlated, and keeping a displaced task on its
//!    surviving board avoids crossing the narrow uplinks.
//! 3. **Migrate cross-domain** — only when the home domain has no
//!    capacity left (or died entirely) does the candidate scan widen to
//!    the whole surviving machine. Greedy homes are then refined by a
//!    probe-improve pass that re-costs each candidate exactly via
//!    incremental [`MetricsEngine`] apply+undo probes (never trading an
//!    intra-domain placement for a cross-domain one), skipping every
//!    task whose incumbent cost already sits at its exact floor
//!    ([`MetricsEngine::cost_floor_without`]). The cost charged
//!    per migration follows the [`crate::remap`] model: `state_volume ·
//!    hops`, with hops measured on the *healthy* network — the proxy for
//!    shipping the task's checkpointed state from stable storage along
//!    the route it originally occupied.
//! 4. **Escalate** — when migration cannot respect the load bound, the
//!    local repair is abandoned and the whole graph is re-contracted
//!    (MWM-Contract) and re-embedded (NN-Embed) on the compacted
//!    surviving machine, then translated back to original processor
//!    numbering.
//!
//! The result is a [`RepairReport`]: what was done, and the
//! dilation/contention deltas versus the pre-fault mapping.

use crate::budget::{Budget, Completion};
use crate::contraction::{mwm_contract_budgeted, ContractError};
use crate::embedding::nn_embed;
use crate::mapping::{Mapping, MappingError};
use crate::metrics_engine::{CostModel, Edit, MetricsEngine};
use crate::routing::{route_all_phases, Matcher};
use oregami_graph::TaskGraph;
use oregami_topology::{
    DegradedNetwork, DomainMap, Network, ProcId, RouteTable, RouteTableCache, TopologyError,
};
use std::fmt;
use std::sync::Arc;

/// Tuning knobs for repair.
#[derive(Clone, Debug)]
pub struct RepairOptions {
    /// Load bound (max tasks per surviving processor). Defaults to
    /// `ceil(tasks / alive processors)` — the tightest balanced bound.
    pub load_bound: Option<usize>,
    /// Units of task state a migration must move (the remap cost model's
    /// `state_volume`).
    pub state_volume: u64,
    /// Matcher used when escalation re-routes from scratch.
    pub matcher: Matcher,
    /// Hierarchical domain map of the machine, when it was lowered from a
    /// `MachineModel`. Makes migration blast-radius-aware: displaced
    /// tasks prefer surviving processors of their own domain, and the
    /// report splits migrations into intra- vs cross-domain.
    pub domains: Option<Arc<DomainMap>>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            load_bound: None,
            state_volume: 1,
            matcher: Matcher::Maximum,
            domains: None,
        }
    }
}

/// What repair did, and what it cost.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairReport {
    /// Edges whose routes were recomputed (counted across phases).
    pub edges_rerouted: usize,
    /// Tasks moved off dead processors.
    pub tasks_migrated: usize,
    /// Migrations that stayed inside the victim's fault domain (0 when no
    /// [`RepairOptions::domains`] map was supplied).
    pub migrations_intra_domain: usize,
    /// Migrations that crossed into another fault domain (0 without a
    /// domain map).
    pub migrations_cross_domain: usize,
    /// Total migration cost: `state_volume · hops` summed over moved
    /// tasks, hops on the healthy network (checkpoint-transfer proxy).
    pub migration_cost: u64,
    /// Whether local repair was abandoned for a full re-contract +
    /// re-embed on the surviving machine.
    pub escalated: bool,
    /// Mean route dilation (hops per routed edge) before the faults.
    pub avg_dilation_before: f64,
    /// Mean route dilation after repair, on the degraded network.
    pub avg_dilation_after: f64,
    /// Max per-link message contention before the faults.
    pub max_contention_before: u64,
    /// Max per-link message contention after repair.
    pub max_contention_after: u64,
    /// Exact apply+undo probes the probe-improve pass ran (0 when it was
    /// skipped or the repair escalated). Not rendered by `Display`.
    pub improve_probes: usize,
    /// Whether the repair search ran to completion or was cut short by
    /// its [`Budget`] (the repaired mapping is valid either way; budgeted
    /// placement just falls back to load-only choices).
    pub completion: Completion,
    /// Human-readable notes on the decisions taken.
    pub notes: Vec<String>,
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== REPAIR ==")?;
        writeln!(
            f,
            "strategy          : {}",
            if self.escalated {
                "escalated (re-contract + re-embed)"
            } else {
                "local (re-route + migrate)"
            }
        )?;
        writeln!(f, "edges rerouted    : {}", self.edges_rerouted)?;
        writeln!(f, "tasks migrated    : {}", self.tasks_migrated)?;
        if self.migrations_intra_domain + self.migrations_cross_domain > 0 {
            writeln!(
                f,
                "blast radius      : {} intra-domain, {} cross-domain",
                self.migrations_intra_domain, self.migrations_cross_domain
            )?;
        }
        writeln!(f, "migration cost    : {}", self.migration_cost)?;
        writeln!(
            f,
            "avg dilation      : {:.3} -> {:.3}",
            self.avg_dilation_before, self.avg_dilation_after
        )?;
        writeln!(
            f,
            "max contention    : {} -> {}",
            self.max_contention_before, self.max_contention_after
        )?;
        if self.completion.is_degraded() {
            writeln!(f, "completion        : {}", self.completion)?;
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// Repair failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The faults disconnected the surviving machine (or named bad ids);
    /// no mapping can serve a partitioned network.
    Topology(TopologyError),
    /// Escalation could not find a feasible contraction on the survivors.
    Contract(ContractError),
    /// The input mapping was not valid for the healthy network.
    Mapping(MappingError),
    /// More tasks than the surviving machine can hold under any bound.
    NoCapacity {
        /// Tasks needing placement.
        tasks: usize,
        /// `alive processors × load bound`.
        capacity: usize,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Topology(e) => write!(f, "topology: {e}"),
            RepairError::Contract(e) => write!(f, "re-contraction failed: {e}"),
            RepairError::Mapping(e) => write!(f, "invalid input mapping: {e}"),
            RepairError::NoCapacity { tasks, capacity } => write!(
                f,
                "{tasks} tasks exceed surviving capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<TopologyError> for RepairError {
    fn from(e: TopologyError) -> Self {
        RepairError::Topology(e)
    }
}

impl From<ContractError> for RepairError {
    fn from(e: ContractError) -> Self {
        RepairError::Contract(e)
    }
}

impl From<MappingError> for RepairError {
    fn from(e: MappingError) -> Self {
        RepairError::Mapping(e)
    }
}

/// Repairs `mapping` (valid on the healthy `net`) against the fault set
/// already applied in `degraded`, returning the repaired mapping (valid
/// on `degraded.network()`) and a [`RepairReport`].
pub fn repair_mapping(
    tg: &TaskGraph,
    net: &Network,
    degraded: &DegradedNetwork,
    mapping: &Mapping,
    opts: &RepairOptions,
) -> Result<(Mapping, RepairReport), RepairError> {
    let (budget, cache) = (Budget::unlimited(), RouteTableCache::new(4));
    repair_mapping_cached(tg, net, degraded, mapping, opts, &budget, &cache)
}

/// [`repair_mapping`] under an execution budget, drawing every routing
/// table (healthy, degraded, and escalation's compacted survivor network)
/// from a shared [`RouteTableCache`]. Fault sweeps that revisit fault
/// scenarios — the CLI's `--fault-sweep` wraps its victim index — hit the
/// cache instead of re-running three BFS sweeps per scenario.
///
/// One budget step is charged per displaced task whose new home is scored
/// by communication affinity, and one more per migrated task the
/// probe-improve pass re-examines with exact [`MetricsEngine`] deltas.
/// When the budget trips, the remaining displaced tasks are placed on the
/// least-loaded surviving processor instead (load-only, no affinity
/// scan), the improve pass stops, and escalation's re-contraction
/// degrades the same way [`mwm_contract_budgeted`] does. The repaired
/// mapping is always complete and valid; [`RepairReport::completion`]
/// records the cut.
pub fn repair_mapping_cached(
    tg: &TaskGraph,
    net: &Network,
    degraded: &DegradedNetwork,
    mapping: &Mapping,
    opts: &RepairOptions,
    budget: &Budget,
    cache: &RouteTableCache,
) -> Result<(Mapping, RepairReport), RepairError> {
    mapping.validate(tg, net)?;
    let healthy_table = cache.get_or_build(net)?;
    // Partitioned survivors are unrepairable; surfaces the components.
    let degraded_table = cache.get_or_build_degraded(degraded)?;

    let n = tg.num_tasks();
    let alive = degraded.num_alive();
    let bound = opts.load_bound.unwrap_or_else(|| n.div_ceil(alive).max(1));
    if n > alive * bound {
        return Err(RepairError::NoCapacity {
            tasks: n,
            capacity: alive * bound,
        });
    }
    let ctx = Repair {
        tg,
        degraded,
        old: mapping,
        opts,
        budget,
        healthy_table,
        degraded_table,
        bound,
    };
    let before = route_stats(net, &mapping.routes);
    let mut notes = Vec::new();

    // ---- level 2: migrate tasks off dead processors ----
    let Migration {
        assignment,
        mut load,
        moves,
        feasible,
        mut completion,
    } = ctx.migrate(&mut notes);
    if !feasible {
        let stranded = |p: &&ProcId| !degraded.is_alive(**p);
        let displaced = mapping.assignment.iter().filter(stranded).count();
        notes.push(format!(
            "local migration of {displaced} displaced tasks violates load bound {bound}; \
             escalating to re-contract + re-embed on {alive} survivors"
        ));
        let (repaired, contract_completion) = ctx.escalate(cache)?;
        let report = RepairReport {
            completion: contract_completion.worst(completion),
            ..ctx.report(&repaired, true, before, notes)
        };
        return Ok((repaired, report));
    }
    if !moves.is_empty() {
        notes.push(format!(
            "migrated {} tasks off {} dead processors",
            moves.len(),
            degraded.failed_procs().len()
        ));
    }

    // ---- level 1: re-route broken or endpoint-moved edges ----
    let mut repaired = ctx.reroute(assignment);
    repaired.validate(tg, degraded.network())?;

    // ---- probe-improve: refine the greedy homes with exact deltas ----
    let mut improve_probes = 0usize;
    if !moves.is_empty() && completion == Completion::Optimal {
        (repaired, improve_probes) =
            ctx.probe_improve(repaired, &moves, &mut load, &mut completion, &mut notes)?;
    }

    let report = RepairReport {
        improve_probes,
        completion,
        ..ctx.report(&repaired, false, before, notes)
    };
    Ok((repaired, report))
}

/// What every step of one repair reads.
struct Repair<'a> {
    tg: &'a TaskGraph,
    degraded: &'a DegradedNetwork,
    /// The pre-fault mapping, valid on the healthy network.
    old: &'a Mapping,
    opts: &'a RepairOptions,
    budget: &'a Budget,
    healthy_table: Arc<RouteTable>,
    degraded_table: Arc<RouteTable>,
    bound: usize,
}

/// Level 2's outcome.
struct Migration {
    assignment: Vec<ProcId>,
    /// Tasks per processor under `assignment`.
    load: Vec<usize>,
    /// `(task, old home, new home)` per migrated task, in migration order.
    moves: Vec<(usize, ProcId, ProcId)>,
    /// Every displaced task found a home under the load bound; when not,
    /// local repair must escalate.
    feasible: bool,
    completion: Completion,
}

impl Repair<'_> {
    /// Level 2: moves every task off a dead processor, greedily by
    /// communication affinity while the budget lasts, by load only after.
    fn migrate(&self, notes: &mut Vec<String>) -> Migration {
        let (tg, degraded, opts) = (self.tg, self.degraded, self.opts);
        let n = tg.num_tasks();
        let mut assignment = self.old.assignment.clone();
        let is_displaced: Vec<bool> = assignment.iter().map(|&p| !degraded.is_alive(p)).collect();
        let displaced: Vec<usize> = (0..n).filter(|&t| is_displaced[t]).collect();

        let mut load = vec![0usize; degraded.network().num_procs()];
        for (t, p) in assignment.iter().enumerate() {
            if !is_displaced[t] {
                load[p.index()] += 1;
            }
        }

        // `peers[t]` = (neighbor, volume) per edge incident to displaced task
        // `t`, so scoring a candidate home walks the task's own edges only.
        let mut peers: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        for (_, e) in tg.all_edges() {
            let (s, d) = (e.src.index(), e.dst.index());
            if s == d {
                continue;
            }
            if is_displaced[s] {
                peers[s].push((d, e.volume));
            }
            if is_displaced[d] {
                peers[d].push((s, e.volume));
            }
        }

        let mut moves = Vec::with_capacity(displaced.len());
        let mut feasible = true;
        let mut completion = Completion::Optimal;
        for &t in &displaced {
            if completion == Completion::Optimal {
                if let Some(c) = self.budget.tick() {
                    completion = c;
                    notes.push(
                        "repair budget exhausted: remaining displaced tasks placed by load only"
                            .into(),
                    );
                }
            }
            // Blast-radius ladder: a displaced task first looks for a home
            // inside its own fault domain; only when that domain has no
            // capacity (or died entirely) does the scan widen cross-domain.
            let home_domain = opts
                .domains
                .as_ref()
                .map(|d| d.domain_of(self.old.assignment[t]));
            let prefer = opts.domains.as_deref().zip(home_domain);
            let free = |p: &ProcId| load[p.index()] < self.bound;
            let home = if completion == Completion::Optimal {
                let (table, peers) = (&self.degraded_table, &peers[t]);
                let key = |p: &ProcId| {
                    let affinity = affinity(table, degraded, &assignment, peers, *p);
                    (affinity, load[p.index()], *p)
                };
                home_in(degraded, prefer, free, key)
            } else {
                home_in(degraded, prefer, free, |&p| (load[p.index()], p))
            };
            let Some(p) = home else {
                // Greedy placement hit the load bound everywhere useful:
                // local repair violates the bound, escalate.
                feasible = false;
                break;
            };
            moves.push((t, assignment[t], p));
            assignment[t] = p;
            load[p.index()] += 1;
        }
        Migration {
            assignment,
            load,
            moves,
            feasible,
            completion,
        }
    }

    /// Level 1: re-routes every edge whose endpoint moved or whose route
    /// crosses a dead processor or link, along a surviving shortest path.
    fn reroute(&self, assignment: Vec<ProcId>) -> Mapping {
        let degraded = self.degraded;
        let mut routes = self.old.routes.clone();
        for (k, phase) in self.tg.comm_phases.iter().enumerate() {
            for (i, e) in phase.edges.iter().enumerate() {
                let (src, dst) = (e.src.index(), e.dst.index());
                let endpoint_moved = assignment[src] != self.old.assignment[src]
                    || assignment[dst] != self.old.assignment[dst];
                if endpoint_moved || route_broken(degraded, &routes[k][i]) {
                    let (from, to) = (assignment[src], assignment[dst]);
                    routes[k][i] = self.degraded_table.first_path(degraded.network(), from, to);
                }
            }
        }
        Mapping { assignment, routes }
    }

    /// Refines the greedy homes with exact deltas. The affinity score
    /// ranks candidate homes without contention or slot-cost awareness.
    /// With the incremental METRICS engine, the exact scalar cost of a
    /// candidate migration is one apply+undo probe, so each migrated task
    /// re-examines every surviving processor under the load bound and
    /// keeps a strictly better home when one exists.
    ///
    /// Branch-and-bound: `cost_floor_without(t)` is the cost with `t`
    /// lifted out of the ledgers, which no placement of `t` can beat. When
    /// the incumbent already sits at that floor no candidate is strictly
    /// cheaper, so the whole scan is skipped — the bound is exact, and the
    /// accepted moves are those of the exhaustive scan.
    ///
    /// Returns the refined mapping and the number of probes run.
    fn probe_improve(
        &self,
        repaired: Mapping,
        moves: &[(usize, ProcId, ProcId)],
        load: &mut [usize],
        completion: &mut Completion,
        notes: &mut Vec<String>,
    ) -> Result<(Mapping, usize), RepairError> {
        let mut engine = MetricsEngine::try_new_with_table(
            self.tg,
            self.degraded.network(),
            &repaired,
            &CostModel::default(),
            Arc::clone(&self.degraded_table),
        )?;
        let mut cur_cost = engine.scalar_cost();
        let (mut probes, mut improved) = (0usize, 0usize);
        for &(t, _, _) in moves {
            if let Some(c) = self.budget.tick() {
                *completion = c;
                notes.push(
                    "improve budget exhausted: remaining migrated tasks keep greedy homes".into(),
                );
                break;
            }
            if engine.cost_floor_without(t) >= cur_cost {
                continue;
            }
            let cur = engine.mapping().assignment[t];
            let mut best: Option<(u64, ProcId)> = None;
            for p in self.degraded.alive_procs() {
                if p == cur || load[p.index()] >= self.bound || self.widens_blast(t, cur, p) {
                    continue;
                }
                if engine.apply(Edit::Reassign { task: t, proc: p }).is_ok() {
                    probes += 1;
                    let cost = engine.scalar_cost();
                    engine.undo();
                    if cost < cur_cost && best.is_none_or(|b| (cost, p) < b) {
                        best = Some((cost, p));
                    }
                }
            }
            if let Some((cost, p)) = best {
                engine
                    .apply(Edit::Reassign { task: t, proc: p })
                    .expect("probed edit re-applies");
                load[cur.index()] -= 1;
                load[p.index()] += 1;
                cur_cost = cost;
                improved += 1;
            }
        }
        if improved > 0 {
            notes.push(format!(
                "probe-improve moved {improved} migrated task(s) to metric-cheaper homes"
            ));
        }
        Ok((engine.into_mapping(), probes))
    }

    /// Whether moving task `t` from `cur` to `p` would trade an
    /// intra-domain placement for a cross-domain one: the metric gain
    /// would come at the price of a wider blast radius next time this
    /// domain flaps.
    fn widens_blast(&self, t: usize, cur: ProcId, p: ProcId) -> bool {
        self.opts.domains.as_deref().is_some_and(|domains| {
            let home = domains.domain_of(self.old.assignment[t]);
            domains.domain_of(cur) == home && domains.domain_of(p) != home
        })
    }

    /// Level 3: throws the old placement away; re-contracts and re-embeds
    /// on the compacted surviving machine, routes from scratch, and
    /// translates back to original processor numbering. Returns the
    /// validated mapping and how the re-contraction's search ended.
    fn escalate(&self, cache: &RouteTableCache) -> Result<(Mapping, Completion), RepairError> {
        let (tg, degraded) = (self.tg, self.degraded);
        let (compact, to_orig) = degraded.compact();
        let compact_table = cache.get_or_build(&compact)?;
        let collapsed = tg.collapse();
        let (contraction, completion) =
            mwm_contract_budgeted(&collapsed, compact.num_procs(), self.bound, self.budget)?;
        let (quotient, _) = collapsed.quotient(&contraction.cluster_of, contraction.num_clusters);
        let placement = nn_embed(&quotient, &compact, &compact_table)
            .expect("contraction produces at most `procs` clusters");
        let compact_assignment: Vec<ProcId> = contraction
            .cluster_of
            .iter()
            .map(|&c| placement[c])
            .collect();
        let (table, matcher) = (&compact_table, self.opts.matcher);
        let compact_routes = route_all_phases(tg, &compact_assignment, &compact, table, matcher);

        // translate processors back to original numbering (links line up by
        // construction: compact links are the degraded links renamed)
        let orig = |p: ProcId| to_orig[p.index()];
        let assignment: Vec<ProcId> = compact_assignment.into_iter().map(orig).collect();
        let routes: Vec<Vec<Vec<ProcId>>> = compact_routes
            .into_iter()
            .map(|phase| {
                phase
                    .into_iter()
                    .map(|path| path.into_iter().map(orig).collect())
                    .collect()
            })
            .collect();
        let repaired = Mapping { assignment, routes };
        repaired.validate(tg, degraded.network())?;
        Ok((repaired, completion))
    }

    /// The report of a repair, its figures taken by diff against the
    /// pre-fault mapping, so the probe-improve pass is accounted for;
    /// an escalation re-routed every edge. `before` is the pre-fault
    /// (dilation, contention).
    fn report(
        &self,
        repaired: &Mapping,
        escalated: bool,
        before: (f64, u64),
        mut notes: Vec<String>,
    ) -> RepairReport {
        let old = self.old;
        let moved = || {
            let pairs = old.assignment.iter().zip(&repaired.assignment);
            pairs.filter(|(before, after)| before != after)
        };
        let tasks_migrated = moved().count();
        // state_volume · hops on the healthy network, saturating like every
        // other volume sum
        let migration_cost = moved().fold(0u64, |sum, (&before, &after)| {
            let hops = u64::from(self.healthy_table.dist(before, after));
            sum.saturating_add(hops.saturating_mul(self.opts.state_volume))
        });
        let edges_rerouted = if escalated {
            self.tg.comm_phases.iter().map(|p| p.edges.len()).sum()
        } else {
            repaired
                .routes
                .iter()
                .zip(&old.routes)
                .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x != y).count())
                .sum()
        };
        // migrations that stayed inside the victim's fault domain, and
        // those that crossed; (0, 0) without a domain map
        let (migrations_intra_domain, migrations_cross_domain) = match &self.opts.domains {
            Some(d) => {
                let intra = moved()
                    .filter(|(before, after)| d.domain_of(**before) == d.domain_of(**after))
                    .count();
                (intra, tasks_migrated - intra)
            }
            None => (0, 0),
        };
        if !escalated && migrations_intra_domain + migrations_cross_domain > 0 {
            notes.push(format!(
                "blast radius: {migrations_intra_domain} migration(s) stayed inside the \
                 failing domain, {migrations_cross_domain} crossed domains"
            ));
        }
        let (avg_dilation_after, max_contention_after) =
            route_stats(self.degraded.network(), &repaired.routes);
        RepairReport {
            edges_rerouted,
            tasks_migrated,
            migration_cost,
            migrations_intra_domain,
            migrations_cross_domain,
            escalated,
            avg_dilation_before: before.0,
            avg_dilation_after,
            max_contention_before: before.1,
            max_contention_after,
            improve_probes: 0,
            completion: Completion::Optimal,
            notes,
        }
    }
}

/// The blast-radius ladder: the surviving processor with the least `key`
/// among those `free` to take a task, searched inside the home domain
/// first when a domain map is supplied, and across the whole surviving
/// machine only when the domain offers no capacity. `None` if no
/// surviving processor is free.
fn home_in<K: Ord>(
    degraded: &DegradedNetwork,
    prefer: Option<(&DomainMap, u32)>,
    free: impl Fn(&ProcId) -> bool,
    key: impl Fn(&ProcId) -> K,
) -> Option<ProcId> {
    let intra = prefer.and_then(|(domains, home)| {
        degraded
            .alive_procs()
            .filter(|p| free(p) && domains.domain_of(*p) == home)
            .min_by_key(&key)
    });
    intra.or_else(|| degraded.alive_procs().filter(&free).min_by_key(&key))
}

/// A displaced task's communication affinity to candidate home `p`:
/// Σ volume × distance to its `(neighbor, volume)` peers' hosts. Peers
/// still stranded on dead processors are placed later; they are skipped
/// rather than routed toward a corpse.
fn affinity(
    table: &RouteTable,
    degraded: &DegradedNetwork,
    assignment: &[ProcId],
    peers: &[(usize, u64)],
    p: ProcId,
) -> u64 {
    let mut affinity = 0u64;
    for &(other, volume) in peers {
        let q = assignment[other];
        if degraded.is_alive(q) {
            affinity = affinity.saturating_add(volume.saturating_mul(u64::from(table.dist(p, q))));
        }
    }
    affinity
}

/// Whether a healthy-network route is unusable on the degraded machine:
/// it visits a dead processor or crosses an out-of-service link.
fn route_broken(degraded: &DegradedNetwork, path: &[ProcId]) -> bool {
    if path.iter().any(|&p| !degraded.is_alive(p)) {
        return true;
    }
    path.windows(2)
        .any(|w| degraded.network().link_between(w[0], w[1]).is_none())
}

/// (mean hops per routed edge, max per-link message count) over all
/// phases' routes.
fn route_stats(net: &Network, routes: &[Vec<Vec<ProcId>>]) -> (f64, u64) {
    let mut edges = 0usize;
    let mut hops = 0usize;
    let mut usage = vec![0u64; net.num_links()];
    for phase in routes {
        for path in phase {
            edges += 1;
            hops += path.len().saturating_sub(1);
            for w in path.windows(2) {
                if let Some(l) = net.link_between(w[0], w[1]) {
                    usage[l.index()] += 1;
                }
            }
        }
    }
    let avg = if edges == 0 {
        0.0
    } else {
        hops as f64 / edges as f64
    };
    (avg, usage.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_task_graph, MapperOptions};
    use oregami_graph::{Family, TaskId};
    use oregami_topology::{builders, FaultSet, LinkId};

    fn healthy_ring8_on_q3() -> (TaskGraph, Network, Mapping) {
        let tg = Family::Ring(8).build();
        let net = builders::hypercube(3);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        (tg, net, report.mapping)
    }

    #[test]
    fn link_fault_only_reroutes() {
        let (tg, net, mapping) = healthy_ring8_on_q3();
        // fail a link some route uses
        let used = mapping.routes[0]
            .iter()
            .find(|p| p.len() == 2)
            .map(|p| net.link_between(p[0], p[1]).unwrap())
            .unwrap();
        let degraded = net.degrade(&FaultSet::new().with_link(used)).unwrap();
        let (repaired, report) =
            repair_mapping(&tg, &net, &degraded, &mapping, &RepairOptions::default()).unwrap();
        assert!(!report.escalated);
        assert_eq!(report.tasks_migrated, 0);
        assert_eq!(report.migration_cost, 0);
        assert!(report.edges_rerouted >= 1);
        repaired.validate(&tg, degraded.network()).unwrap();
        // no repaired route crosses the failed link
        let (u, v) = net.link_endpoints(used);
        for phase in &repaired.routes {
            for path in phase {
                for w in path.windows(2) {
                    assert!(!((w[0] == u && w[1] == v) || (w[0] == v && w[1] == u)));
                }
            }
        }
    }

    #[test]
    fn starved_budget_repair_is_still_valid() {
        let (tg, net, mapping) = healthy_ring8_on_q3();
        let degraded = net.degrade(&FaultSet::new().with_proc(ProcId(5))).unwrap();
        let budget = Budget::unlimited().with_max_steps(0);
        let cache = RouteTableCache::new(4);
        let (repaired, report) = repair_mapping_cached(
            &tg,
            &net,
            &degraded,
            &mapping,
            &RepairOptions::default(),
            &budget,
            &cache,
        )
        .unwrap();
        assert_eq!(report.completion, Completion::BudgetExhausted);
        assert!(report.tasks_migrated >= 1);
        repaired.validate(&tg, degraded.network()).unwrap();
        // unlimited repair reports an untruncated search on the same input
        let (_, full) =
            repair_mapping(&tg, &net, &degraded, &mapping, &RepairOptions::default()).unwrap();
        assert_eq!(full.completion, Completion::Optimal);
    }

    #[test]
    fn proc_fault_migrates_and_charges_state() {
        let (tg, net, mapping) = healthy_ring8_on_q3();
        let victim = ProcId(5);
        let displaced: Vec<usize> = (0..tg.num_tasks())
            .filter(|&t| mapping.assignment[t] == victim)
            .collect();
        assert!(!displaced.is_empty());
        let degraded = net.degrade(&FaultSet::new().with_proc(victim)).unwrap();
        let opts = RepairOptions {
            state_volume: 10,
            // 8 tasks on 7 procs: allow 2 per proc
            ..RepairOptions::default()
        };
        let (repaired, report) = repair_mapping(&tg, &net, &degraded, &mapping, &opts).unwrap();
        assert_eq!(report.tasks_migrated, displaced.len());
        assert!(report.migration_cost >= 10 * displaced.len() as u64);
        repaired.validate(&tg, degraded.network()).unwrap();
        for t in displaced {
            assert_ne!(repaired.assignment[t], victim);
            assert!(degraded.is_alive(repaired.assignment[t]));
        }
        // nothing still routes through the corpse
        for phase in &repaired.routes {
            for path in phase {
                assert!(!path.contains(&victim));
            }
        }
    }

    #[test]
    fn tight_bound_escalates() {
        let (tg, net, mapping) = healthy_ring8_on_q3();
        let degraded = net
            .degrade(&FaultSet::new().with_proc(ProcId(5)))
            .unwrap();
        // bound 1 on 7 survivors cannot hold 8 tasks at all → NoCapacity
        let opts = RepairOptions {
            load_bound: Some(1),
            ..RepairOptions::default()
        };
        assert!(matches!(
            repair_mapping(&tg, &net, &degraded, &mapping, &opts),
            Err(RepairError::NoCapacity { tasks: 8, capacity: 7 })
        ));
        // two dead procs, bound 2 on 6 survivors: capacity fine, but the
        // greedy local migration may or may not need escalation — verify
        // validity either way
        let degraded2 = net
            .degrade(&FaultSet::new().with_proc(ProcId(5)).with_proc(ProcId(6)))
            .unwrap();
        let opts2 = RepairOptions {
            load_bound: Some(2),
            ..RepairOptions::default()
        };
        let (repaired, report) =
            repair_mapping(&tg, &net, &degraded2, &mapping, &opts2).unwrap();
        repaired.validate(&tg, degraded2.network()).unwrap();
        let max_load = repaired
            .tasks_per_proc(net.num_procs())
            .into_iter()
            .max()
            .unwrap();
        assert!(max_load <= 2, "load bound violated: {max_load} ({report:?})");
    }

    #[test]
    fn partitioned_network_is_an_error() {
        let tg = Family::Ring(4).build();
        let net = builders::chain(4);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        // killing middle proc 1 partitions {0} from {2,3}
        let degraded = net
            .degrade(&FaultSet::new().with_proc(ProcId(1)))
            .unwrap();
        let err = repair_mapping(
            &tg,
            &net,
            &degraded,
            &report.mapping,
            &RepairOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RepairError::Topology(TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn escalation_respects_bound_and_validates() {
        // a graph whose affinity forces escalation: star traffic toward
        // task 0, with the bound exactly tight after one processor dies.
        let mut tg = TaskGraph::new("star6");
        tg.add_scalar_nodes("t", 6);
        let p = tg.add_phase("x");
        for i in 1..6 {
            tg.add_edge(p, TaskId(0), TaskId(i), 10);
        }
        let net = builders::mesh2d(2, 3);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        let degraded = net
            .degrade(&FaultSet::new().with_proc(report.mapping.assignment[0]))
            .unwrap();
        let opts = RepairOptions {
            load_bound: Some(2),
            ..RepairOptions::default()
        };
        let (repaired, rep) =
            repair_mapping(&tg, &net, &degraded, &report.mapping, &opts).unwrap();
        repaired.validate(&tg, degraded.network()).unwrap();
        let max_load = repaired
            .tasks_per_proc(net.num_procs())
            .into_iter()
            .max()
            .unwrap();
        assert!(max_load <= 2, "bound violated ({rep:?})");
    }

    #[test]
    fn no_faults_is_a_cheap_noop() {
        let (tg, net, mapping) = healthy_ring8_on_q3();
        let degraded = net.degrade(&FaultSet::new()).unwrap();
        let (repaired, report) =
            repair_mapping(&tg, &net, &degraded, &mapping, &RepairOptions::default()).unwrap();
        assert_eq!(report.edges_rerouted, 0);
        assert_eq!(report.tasks_migrated, 0);
        assert!(!report.escalated);
        assert_eq!(repaired.assignment, mapping.assignment);
        assert_eq!(report.avg_dilation_before, report.avg_dilation_after);
    }

    #[test]
    fn domain_aware_repair_prefers_intra_board_migration() {
        use oregami_topology::MachineModel;
        // 2 boards × 2×2 mesh = 8 procs; kill one proc, leaving three
        // board-mates with spare capacity under the derived bound.
        let lowered = MachineModel::parse("mesh-boards:1x2x2x2").unwrap().lower();
        let net = lowered.net.clone();
        let tg = Family::Ring(8).build();
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        let mapping = report.mapping;
        let victim = mapping.assignment[0];
        let degraded = net.degrade(&FaultSet::new().with_proc(victim)).unwrap();
        let opts = RepairOptions {
            domains: Some(lowered.domains.clone()),
            ..RepairOptions::default()
        };
        let (repaired, rep) = repair_mapping(&tg, &net, &degraded, &mapping, &opts).unwrap();
        repaired.validate(&tg, degraded.network()).unwrap();
        assert!(rep.tasks_migrated >= 1);
        assert_eq!(
            rep.migrations_intra_domain, rep.tasks_migrated,
            "board-mates had capacity, so every migration stays on the victim's board ({rep:?})"
        );
        assert_eq!(rep.migrations_cross_domain, 0, "{rep:?}");
        let text = rep.to_string();
        assert!(text.contains("blast radius"), "{text}");
    }

    #[test]
    fn report_renders() {
        let (tg, net, mapping) = healthy_ring8_on_q3();
        let l = LinkId(0);
        let degraded = net.degrade(&FaultSet::new().with_link(l)).unwrap();
        let (_, report) =
            repair_mapping(&tg, &net, &degraded, &mapping, &RepairOptions::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("== REPAIR =="), "{text}");
        assert!(text.contains("edges rerouted"), "{text}");
    }
}
