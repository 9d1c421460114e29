//! Multilevel coarsen–map–refine: the engine's huge-graph stage.
//!
//! The paper's MAPPER tops out around hundreds of tasks — exhaustive
//! embedding is factorial and blossom matching is O(n³), so the fallback
//! chain degrades to round-robin on anything large. This module implements
//! the scalable shape (Glantz/Meyerhenke/Noe; SpiNNTools): recursively
//! coarsen the collapsed communication graph by size-aware heavy-edge
//! matching until at most ~4 × P clusters remain, place the coarsest level
//! (best-fit-decreasing packing into P processor bins, NN-Embed over the
//! bin graph), then walk back down level by level, projecting the
//! placement and greedily refining it with the incremental
//! [`MetricsEngine`]'s `apply`/`undo` as the probe-and-revert kernel.
//!
//! Invariants:
//!
//! * **Coarsening respects the load bound.** A merge only happens when the
//!   combined task count fits one processor (`size[u] + size[v] ≤ B`), so
//!   every level's node maps onto a single processor and the final
//!   assignment never overloads.
//! * **Each level is a pure function of the one below**: the level graph is
//!   the flat [`WeightedGraph::quotient`] of its parent by the matching —
//!   O(V + E) per level, no hashing.
//! * **Refinement never regresses.** Every probe is applied with
//!   [`MetricsEngine::apply_budgeted`], compared, and reverted with
//!   [`MetricsEngine::undo`] unless it *strictly* lowers
//!   [`MetricsEngine::scalar_cost`] — so per-level cost is monotonically
//!   non-increasing.
//! * **A probe costs what it touches.** Each refined level builds one
//!   owned engine ([`MetricsEngine::try_new_owned`]) over a synthetic
//!   single-phase graph whose nodes carry no label, so probes never copy
//!   the level mapping. A probe re-routes the moved node's edges and
//!   updates the engine's maxima in amortised O(1) (a dilation histogram,
//!   link and processor peaks), never rescanning every edge or link.
//! * **Anytime.** Coarsening charges the [`Budget`] per examined edge and
//!   refinement probes are budgeted; a spent (or cancelled) budget degrades
//!   the stage to projection-without-refinement, which still always serves
//!   a valid mapping.

use crate::budget::{Budget, Completion};
use crate::embedding::nn_embed;
use crate::mapping::Mapping;
use crate::metrics_engine::{CostModel, Edit, EditError, MetricsEngine};
use crate::pipeline::{
    check_inputs, collapse_for, contraction_from_assignment, finish, MapError, MapperOptions,
    MapperReport, Strategy,
};
use crate::routing::baseline::baseline_route_all;
use oregami_graph::{CommEdge, TaskGraph, TaskId, TaskNode, WeightedGraph};
use oregami_topology::{Network, ProcId, RouteTable};
use std::sync::Arc;
use std::time::Instant;

/// Coarsening stops once a level has at most `COARSEN_FACTOR × P` nodes.
const COARSEN_FACTOR: usize = 4;
/// Hard cap on levels — heavy-edge matching shrinks the node count every
/// level, so this is never the binding limit in practice.
const MAX_LEVELS: usize = 64;
/// Refinement passes per level (a pass with no improving move ends early).
const REFINE_PASSES: usize = 2;

/// Per-level accounting for benchmarks and reports. Levels are indexed
/// finest-first: level 0 is the original collapsed graph.
#[derive(Clone, Debug)]
pub struct LevelStats {
    /// Nodes in this level's graph.
    pub nodes: usize,
    /// Edges in this level's graph.
    pub edges: usize,
    /// Wall-clock seconds spent coarsening this level into the next.
    pub coarsen_secs: f64,
    /// Wall-clock seconds spent refining the placement at this level.
    pub refine_secs: f64,
    /// Refinement objective before the level's passes.
    pub cost_before: u64,
    /// Refinement objective after the level's passes (≤ `cost_before`).
    pub cost_after: u64,
    /// Improving moves kept at this level.
    pub moves: usize,
}

/// The multilevel stage's structured account of one run.
#[derive(Clone, Debug)]
pub struct MultilevelReport {
    /// Per-level stats, finest (level 0) first.
    pub levels: Vec<LevelStats>,
    /// Node count of the coarsest level actually reached.
    pub coarsest_nodes: usize,
    /// Whether the coarsest packing had to split a cluster's tasks across
    /// processors (when no bin can take some cluster whole — possible under
    /// tight load bounds). Refinement then runs at task granularity only,
    /// since intermediate levels no longer map nodes onto single
    /// processors.
    pub split_packing: bool,
    /// How the stage's search ended.
    pub completion: Completion,
}

/// Runs the full coarsen–map–refine pipeline and returns the per-level
/// report alongside the mapping — the benchmark and property tests use
/// the extra detail; the engine stage discards it.
pub fn multilevel_map_with_report(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    table: Arc<RouteTable>,
) -> Result<(MapperReport, Completion, MultilevelReport), MapError> {
    check_inputs(tg, net)?;
    let n = tg.num_tasks();
    let p = net.num_procs();
    let bound = opts.load_bound.unwrap_or_else(|| n.div_ceil(p).max(1));
    if p.saturating_mul(bound) < n {
        return Err(MapError::Contract(
            crate::contraction::ContractError::Infeasible {
                tasks: n,
                procs: p,
                bound,
            },
        ));
    }

    // ---- 1. coarsen: size-aware heavy-edge matching per level ----
    let target = (COARSEN_FACTOR * p).max(1);
    let (mut levels, mut completion) = Hierarchy::coarsen(collapse_for(tg), target, bound, budget);
    let mut level_stats = levels.stats();

    // ---- 2. map the coarsest level ----
    // Pack coarse clusters whole into P processor-bins when possible; the
    // per-level node → processor identification survives and every level
    // gets refined. Only when some cluster fits no bin (tight bounds) does
    // packing drop to task granularity, which breaks the level structure
    // and restricts refinement to level 0.
    let top = levels.graphs.len() - 1;
    let (coarsest, coarsest_sizes) = &levels.graphs[top];
    let coarsest_nodes = coarsest.num_nodes();
    let whole_pack = pack_comm(coarsest, coarsest_sizes, p, bound);
    let split_packing = whole_pack.is_none();
    let (start, bin_of) = match whole_pack {
        Some(bin_of_coarse) => (top, bin_of_coarse),
        None => {
            // compose the per-level maps into task → coarsest node
            let mut coarse_of: Vec<usize> = (0..n).collect();
            for map in &levels.maps {
                for c in coarse_of.iter_mut() {
                    *c = map[*c];
                }
            }
            (0, pack_with_splits(&coarse_of, coarsest_sizes, n, p, bound))
        }
    };
    let (bin_graph, _) = levels.graphs[start].0.quotient(&bin_of, p);
    let placement = nn_embed(&bin_graph, net, &table)?;
    let mut proc_of: Vec<ProcId> = bin_of.iter().map(|&b| placement[b]).collect();

    // ---- 3. uncoarsen with budgeted greedy refinement ----
    let refine = Refine {
        net,
        table: &table,
        bound,
        budget,
    };
    for l in (0..=start).rev() {
        if l < start {
            // project the level-(l+1) placement down to level l
            let map = &levels.maps[l];
            proc_of = map.iter().map(|&parent| proc_of[parent]).collect();
        }
        // a spent budget leaves pure projection, no refinement
        if !completion.is_degraded() {
            let c = refine.level(&levels.graphs[l], &mut proc_of, &mut level_stats[l]);
            completion = completion.worst(c);
        }
    }

    // ---- 4. route + report ----
    let mapping = finish(tg, net, &table, proc_of, opts);
    mapping.validate(tg, net)?;
    let contraction = contraction_from_assignment(&mapping.assignment, p);
    let total_moves: usize = level_stats.iter().map(|s| s.moves).sum();
    let notes = vec![format!(
        "multilevel: {} levels, coarsest {coarsest_nodes} clusters \
         (target ≤ {target}), load bound {bound}, {total_moves} refinement moves{}{}",
        levels.graphs.len(),
        if split_packing { ", split packing" } else { "" },
        if completion.is_degraded() {
            format!(" ({completion})")
        } else {
            String::new()
        }
    )];
    let collapsed = std::mem::take(&mut levels.graphs[0].0);
    let ml = MultilevelReport {
        levels: level_stats,
        coarsest_nodes,
        split_packing,
        completion,
    };
    let report = MapperReport {
        strategy: Strategy::Multilevel,
        contraction,
        mapping,
        collapsed,
        notes,
    };
    Ok((report, completion, ml))
}

/// The coarsening hierarchy, finest level first.
struct Hierarchy {
    /// Each level's graph and the task count of each of its nodes; level 0
    /// is the collapsed task graph.
    graphs: Vec<(WeightedGraph, Vec<usize>)>,
    /// `maps[l][u]` = the level-(l+1) node that level-l node `u` merged into.
    maps: Vec<Vec<usize>>,
    /// Seconds spent building each level from the one below.
    coarsen_secs: Vec<f64>,
}

impl Hierarchy {
    /// Coarsens `collapsed` level by level until at most `target` nodes
    /// remain, no merge fits under `bound`, or the budget trips. A tripped
    /// pass is discarded, so the levels built so far stay exact.
    fn coarsen(
        collapsed: WeightedGraph,
        target: usize,
        bound: usize,
        budget: &Budget,
    ) -> (Hierarchy, Completion) {
        let n = collapsed.num_nodes();
        let mut h = Hierarchy {
            graphs: vec![(collapsed, vec![1; n])],
            maps: Vec::new(),
            coarsen_secs: Vec::new(),
        };
        let mut completion = Completion::Optimal;
        while h.graphs.last().expect("level 0 exists").0.num_nodes() > target
            && h.maps.len() < MAX_LEVELS
        {
            let t0 = Instant::now();
            let (g, sizes) = h.graphs.last().expect("level exists");
            let mut mate = vec![usize::MAX; g.num_nodes()];
            let mut tripped = None;
            for e in g.edges_by_weight_desc() {
                if let Some(c) = budget.tick() {
                    tripped = Some(c);
                    break;
                }
                if mate[e.u] == usize::MAX
                    && mate[e.v] == usize::MAX
                    && sizes[e.u] + sizes[e.v] <= bound
                {
                    mate[e.u] = e.v;
                    mate[e.v] = e.u;
                }
            }
            if let Some(c) = tripped {
                completion = completion.worst(c);
                break;
            }
            let (cluster_of, next) = merge_ids(&mate);
            if next == mate.len() {
                // No merge fits under the load bound — coarsening has converged.
                break;
            }
            let level = contract(g, sizes, &cluster_of, next);
            h.maps.push(cluster_of);
            h.graphs.push(level);
            h.coarsen_secs.push(t0.elapsed().as_secs_f64());
        }
        (h, completion)
    }

    /// Empty per-level stats, with each level's size and coarsening time.
    fn stats(&self) -> Vec<LevelStats> {
        self.graphs
            .iter()
            .enumerate()
            .map(|(l, (g, _))| LevelStats {
                nodes: g.num_nodes(),
                edges: g.num_edges(),
                coarsen_secs: self.coarsen_secs.get(l).copied().unwrap_or(0.0),
                refine_secs: 0.0,
                cost_before: 0,
                cost_after: 0,
                moves: 0,
            })
            .collect()
    }
}

/// Dense ids for a matching, in node order: deterministic, and a matched
/// pair takes the id slot of its lower-indexed member. Returns the ids
/// and their count.
fn merge_ids(mate: &[usize]) -> (Vec<usize>, usize) {
    let mut id = vec![usize::MAX; mate.len()];
    let mut next = 0usize;
    for u in 0..mate.len() {
        if id[u] != usize::MAX {
            continue;
        }
        id[u] = next;
        if mate[u] != usize::MAX {
            id[mate[u]] = next;
        }
        next += 1;
    }
    (id, next)
}

/// The quotient of `g` by `id` (`count` ids), with each new node's summed
/// task count.
fn contract(
    g: &WeightedGraph,
    sizes: &[usize],
    id: &[usize],
    count: usize,
) -> (WeightedGraph, Vec<usize>) {
    let (q, _) = g.quotient(id, count);
    let mut merged = vec![0usize; count];
    for (u, &size) in sizes.iter().enumerate() {
        merged[id[u]] += size;
    }
    (q, merged)
}

/// Communication-aware packing of the coarsest clusters into ≤ `p`
/// processor bins: repeated heavy-edge matching passes on the group
/// quotient graph merge the most-communicating groups first (never past
/// `bound`), so a bin holds clusters that actually talk to each other —
/// a size-only best-fit pack co-locates strangers and squanders the
/// locality coarsening just built. When matching stalls above `p` groups
/// (isolated nodes, tight bounds), the comm-coherent groups fall back to
/// best-fit-decreasing; `None` when even that cannot place some group
/// whole. The coarsest graph is ≤ ~4P nodes, so no budget is charged.
fn pack_comm(g: &WeightedGraph, sizes: &[usize], p: usize, bound: usize) -> Option<Vec<usize>> {
    let m = g.num_nodes();
    let mut group_of: Vec<usize> = (0..m).collect();
    let mut gg = g.clone();
    let mut gsizes = sizes.to_vec();
    while gg.num_nodes() > p {
        let k = gg.num_nodes();
        let mut mate = vec![usize::MAX; k];
        let mut merges = 0usize;
        for e in gg.edges_by_weight_desc() {
            if mate[e.u] == usize::MAX
                && mate[e.v] == usize::MAX
                && gsizes[e.u] + gsizes[e.v] <= bound
            {
                mate[e.u] = e.v;
                mate[e.v] = e.u;
                merges += 1;
                if k - merges <= p {
                    break; // this pass already reaches the target
                }
            }
        }
        if merges == 0 {
            break; // no merge fits under the bound — matching has stalled
        }
        let (new_id, next) = merge_ids(&mate);
        for gid in group_of.iter_mut() {
            *gid = new_id[*gid];
        }
        (gg, gsizes) = contract(&gg, &gsizes, &new_id, next);
    }
    if gg.num_nodes() <= p {
        return Some(group_of); // the groups themselves are the bins
    }
    if let Some(bin_of_group) = pack_whole(&gsizes, p, bound) {
        return Some(group_of.iter().map(|&gid| bin_of_group[gid]).collect());
    }
    // Pairwise doubling can fragment (nine groups of 16 never fit eight
    // bins of 24 even though the raw clusters do) — retry on the
    // unmerged clusters before giving up on whole packing entirely.
    pack_whole(sizes, p, bound)
}

/// Best-fit-decreasing packing of coarse clusters, whole, into `p` bins of
/// capacity `bound`. `Some(bin_of_cluster)` when every cluster fits a bin;
/// `None` when some cluster would have to be split. Deterministic.
fn pack_whole(sizes: &[usize], p: usize, bound: usize) -> Option<Vec<usize>> {
    let m = sizes.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    let mut load = vec![0usize; p];
    let mut bin_of = vec![0usize; m];
    for &c in &order {
        // best fit: the fullest bin that still takes the whole cluster
        let fit = (0..p)
            .filter(|&b| load[b] + sizes[c] <= bound)
            .max_by_key(|&b| (load[b], std::cmp::Reverse(b)))?;
        bin_of[c] = fit;
        load[fit] += sizes[c];
    }
    Some(bin_of)
}

/// Task-granularity fallback packing: best-fit-decreasing over clusters,
/// spilling a cluster's tasks across bins in index order when no bin takes
/// it whole. Feasible whenever `p × bound ≥ n`. Deterministic.
fn pack_with_splits(
    coarse_of: &[usize],
    sizes: &[usize],
    n: usize,
    p: usize,
    bound: usize,
) -> Vec<usize> {
    let m = sizes.len();
    // members of each coarse cluster, grouped by counting sort
    let mut count = vec![0usize; m + 1];
    for &c in coarse_of {
        count[c + 1] += 1;
    }
    for c in 0..m {
        count[c + 1] += count[c];
    }
    let mut members = vec![0usize; n];
    let mut cursor = count[..m].to_vec();
    for (t, &c) in coarse_of.iter().enumerate() {
        members[cursor[c]] = t;
        cursor[c] += 1;
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    let mut load = vec![0usize; p];
    let mut bin_of_task = vec![0usize; n];
    for &c in &order {
        let tasks = &members[count[c]..count[c + 1]];
        let fit = (0..p)
            .filter(|&b| load[b] + sizes[c] <= bound)
            .max_by_key(|&b| (load[b], std::cmp::Reverse(b)));
        match fit {
            Some(b) => {
                for &t in tasks {
                    bin_of_task[t] = b;
                }
                load[b] += sizes[c];
            }
            None => {
                // split: spill tasks into bins in index order
                let mut b = 0usize;
                for &t in tasks {
                    while load[b] >= bound {
                        b += 1;
                    }
                    bin_of_task[t] = b;
                    load[b] += 1;
                }
            }
        }
    }
    bin_of_task
}

/// The machine, load bound and budget every level's refinement shares.
struct Refine<'a> {
    net: &'a Network,
    table: &'a Arc<RouteTable>,
    bound: usize,
    budget: &'a Budget,
}

impl Refine<'_> {
    /// One level's refinement: greedy single-node moves to neighbor
    /// processors, probed through the incremental metrics engine and kept
    /// only when they strictly lower the scalar cost. Records the level's
    /// time, `cost_before`, `cost_after` and moves in `stats`, and returns
    /// the worst completion.
    fn level(
        &self,
        (g, sizes): &(WeightedGraph, Vec<usize>),
        proc_of: &mut Vec<ProcId>,
        stats: &mut LevelStats,
    ) -> Completion {
        let t0 = Instant::now();
        let (net, table) = (self.net, self.table);
        let m = g.num_nodes();
        // Synthetic single-phase task graph over this level's nodes: scalar_cost
        // without a phase expression is exactly the summed per-phase slot cost
        // of the level's cross-processor traffic. Nothing reads a level node's
        // label or coordinates, so they stay empty and allocate nothing.
        let mut stg = TaskGraph::new("multilevel-level");
        stg.nodes = vec![
            TaskNode {
                label: String::new(),
                coords: Vec::new()
            };
            m
        ];
        let ph = stg.add_phase("w");
        stg.comm_phases[ph.index()].edges = g
            .edges()
            .iter()
            .map(|e| CommEdge {
                src: TaskId::new(e.u),
                dst: TaskId::new(e.v),
                volume: e.w,
            })
            .collect();
        let mapping = Mapping {
            assignment: proc_of.clone(),
            routes: baseline_route_all(&stg, proc_of, net, table),
        };
        // The engine owns its graph and mapping, so no probe copies them.
        let mut eng = match MetricsEngine::try_new_owned(
            stg,
            net.clone(),
            mapping,
            &CostModel::default(),
            Arc::clone(table),
        ) {
            Ok(e) => e,
            // A projection the metrics engine rejects cannot be refined; serve
            // it as-is (final validation will surface any real problem).
            Err(_) => return Completion::Optimal,
        };
        let mut load = vec![0usize; net.num_procs()];
        for (u, pr) in proc_of.iter().enumerate() {
            load[pr.index()] += sizes[u];
        }
        let cost_before = eng.scalar_cost();
        let mut moves = 0usize;
        let mut completion = Completion::Optimal;
        let mut cands: Vec<ProcId> = Vec::new();
        // Small levels are cheap to sweep, so let them run to a local optimum;
        // huge levels cap at REFINE_PASSES to keep level-0 work linear.
        let passes = if m <= 2048 {
            4 * REFINE_PASSES
        } else {
            REFINE_PASSES
        };
        'passes: for _ in 0..passes {
            let mut improved = false;
            for (u, &task_size) in sizes.iter().enumerate().take(m) {
                let from = eng.mapping().assignment[u];
                cands.clear();
                g.for_each_neighbor(u, |v, _| {
                    let q = eng.mapping().assignment[v];
                    if q != from {
                        cands.push(q);
                    }
                });
                cands.sort_unstable();
                cands.dedup();
                for &q in &cands {
                    if load[q.index()] + task_size > self.bound {
                        continue;
                    }
                    let before = eng.scalar_cost();
                    match eng.apply_budgeted(Edit::Reassign { task: u, proc: q }, self.budget) {
                        Ok(_) => {
                            if eng.scalar_cost() < before {
                                load[from.index()] -= task_size;
                                load[q.index()] += task_size;
                                moves += 1;
                                improved = true;
                                break; // first improving move wins; next node
                            }
                            eng.undo();
                        }
                        Err(EditError::Budget(c)) => {
                            completion = completion.worst(c);
                            break 'passes;
                        }
                        Err(_) => {} // defensive: skip an unappliable probe
                    }
                }
            }
            if !improved {
                break;
            }
        }
        stats.refine_secs = t0.elapsed().as_secs_f64();
        stats.cost_before = cost_before;
        stats.cost_after = eng.scalar_cost();
        stats.moves = moves;
        *proc_of = eng.into_mapping().assignment;
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_topology::builders;

    fn run(
        tg: &TaskGraph,
        net: &Network,
        budget: &Budget,
    ) -> (MapperReport, Completion, MultilevelReport) {
        let table = Arc::new(RouteTable::try_new(net).unwrap());
        multilevel_map_with_report(tg, net, &MapperOptions::default(), budget, table).unwrap()
    }

    #[test]
    fn maps_a_mesh_validly_with_monotone_refinement() {
        let tg = oregami_graph::Family::Mesh2D(12, 12).build();
        let net = builders::hypercube(3);
        let (report, completion, ml) = run(&tg, &net, &Budget::unlimited());
        report.mapping.validate(&tg, &net).unwrap();
        assert_eq!(report.strategy, Strategy::Multilevel);
        assert_eq!(completion, Completion::Optimal);
        assert!(ml.levels.len() > 1, "144 tasks on 8 procs must coarsen");
        for ls in &ml.levels {
            assert!(
                ls.cost_after <= ls.cost_before,
                "refinement must never regress a level"
            );
        }
        // load bound ceil(144/8) = 18 respected
        let loads = report.mapping.tasks_per_proc(8);
        assert!(loads.iter().all(|&l| l <= 18), "loads {loads:?}");
    }

    #[test]
    fn spent_budget_still_serves_a_valid_mapping() {
        let tg = oregami_graph::Family::Mesh2D(10, 10).build();
        let net = builders::torus2d(4, 4);
        let budget = Budget::unlimited().with_max_steps(1);
        let (report, completion, _) = run(&tg, &net, &budget);
        assert_eq!(completion, Completion::BudgetExhausted);
        report.mapping.validate(&tg, &net).unwrap();
    }

    #[test]
    fn small_graph_skips_coarsening() {
        let tg = oregami_graph::Family::Ring(8).build();
        let net = builders::hypercube(3);
        let (report, completion, ml) = run(&tg, &net, &Budget::unlimited());
        assert_eq!(completion, Completion::Optimal);
        assert_eq!(ml.levels.len(), 1, "8 tasks ≤ 4×8 procs: no coarsening");
        report.mapping.validate(&tg, &net).unwrap();
    }

    #[test]
    fn slack_load_bound_packs_whole_and_refines_every_level() {
        let tg = oregami_graph::Family::Mesh2D(12, 12).build();
        let net = builders::hypercube(3);
        let table = Arc::new(RouteTable::try_new(&net).unwrap());
        let opts = MapperOptions {
            load_bound: Some(24), // slack over ceil(144/8) = 18
            ..MapperOptions::default()
        };
        let (report, _, ml) =
            multilevel_map_with_report(&tg, &net, &opts, &Budget::unlimited(), table).unwrap();
        assert!(!ml.split_packing, "slack bound must pack clusters whole");
        report.mapping.validate(&tg, &net).unwrap();
        let loads = report.mapping.tasks_per_proc(8);
        assert!(loads.iter().all(|&l| l <= 24), "loads {loads:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let tg = oregami_graph::Family::Mesh2D(9, 7).build();
        let net = builders::mesh2d(3, 3);
        let (a, _, _) = run(&tg, &net, &Budget::unlimited());
        let (b, _, _) = run(&tg, &net, &Budget::unlimited());
        assert_eq!(a.mapping.assignment, b.mapping.assignment);
    }
}
