//! Dynamically spawned tasks (paper §6, "Dynamically spawned tasks" —
//! future work implemented here):
//!
//! "We wish to extend our software to handle computations with dynamically
//! spawned tasks when the spawning pattern is regular and predictable. For
//! example, parallel divide and conquer algorithms dynamically spawn tasks
//! based on the size of the problem instance; however, it is known a priori
//! that the spawning pattern will produce a full binary tree. We plan to
//! augment LaRCS with the capacity to describe regular spawning patterns,
//! and to design task assignment and routing algorithms to accomodate
//! dynamically growing parallel computations."
//!
//! A [`DynamicComputation`] is a sequence of *generations* — snapshots of
//! the task graph as it grows — where tasks keep their ids across
//! generations (prefix stability) and every new task records its spawner.
//! Generations come either from a generator function (e.g.
//! [`binomial_growth`]) or from a *parametric LaRCS program* re-elaborated
//! at successive values of its generation parameter
//! ([`DynamicComputation::from_larcs`]) — the promised LaRCS extension,
//! realised through the language's existing parametricity.
//!
//! [`incremental_map`] then assigns tasks generation by generation:
//! existing tasks never move (no migration), and each new task lands on
//! the processor nearest its spawner with room under the load bound.

use crate::budget::{Budget, Completion};
use oregami_graph::{TaskGraph, TaskId};
use oregami_larcs::{elaborate, parse, ElabOptions, LarcsError};
use oregami_topology::{Network, ProcId, RouteTable};

/// One growth step: the task graph after spawning, plus `(child, parent)`
/// records for every task that did not exist in the previous generation.
#[derive(Clone, Debug)]
pub struct SpawnStep {
    /// The task graph of this generation (task ids are prefix-stable:
    /// tasks of generation `g` keep their ids in generation `g+1`).
    pub graph: TaskGraph,
    /// `(child, parent)` for each newly spawned task. Roots (generation 0
    /// tasks) have no record.
    pub spawned_by: Vec<(TaskId, TaskId)>,
}

/// A regularly growing computation.
#[derive(Clone, Debug)]
pub struct DynamicComputation {
    /// The generations, smallest first.
    pub steps: Vec<SpawnStep>,
}

/// Why a dynamic computation could not be built from LaRCS.
#[derive(Debug)]
pub enum DynamicError {
    /// The program failed to parse or elaborate at some generation.
    Larcs(LarcsError),
    /// Task ids are not prefix-stable across generations (labels must
    /// enumerate old tasks first).
    NotPrefixStable {
        /// The generation where stability broke.
        generation: usize,
    },
    /// The designated spawn phase does not give every new task exactly one
    /// parent among the pre-existing or earlier-spawned tasks.
    BadSpawnPhase {
        /// The generation where the violation occurred.
        generation: usize,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Larcs(e) => write!(f, "{e}"),
            DynamicError::NotPrefixStable { generation } => {
                write!(f, "task ids are not prefix-stable at generation {generation}")
            }
            DynamicError::BadSpawnPhase { generation, reason } => {
                write!(f, "bad spawn phase at generation {generation}: {reason}")
            }
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<LarcsError> for DynamicError {
    fn from(e: LarcsError) -> Self {
        DynamicError::Larcs(e)
    }
}

impl DynamicComputation {
    /// Builds the generations by re-elaborating a parametric LaRCS program
    /// at `gen_param = lo, lo+1, .., hi`. The program must contain a
    /// communication phase named `spawn_phase` whose edges point from
    /// parents to the children they spawn; parentage of each generation's
    /// new tasks is read off that phase.
    pub fn from_larcs(
        source: &str,
        fixed_params: &[(&str, i64)],
        gen_param: &str,
        range: std::ops::RangeInclusive<i64>,
        spawn_phase: &str,
    ) -> Result<DynamicComputation, DynamicError> {
        let program = parse(source)?;
        let mut steps: Vec<SpawnStep> = Vec::new();
        for (gi, g) in range.enumerate() {
            let mut params: Vec<(&str, i64)> = fixed_params.to_vec();
            params.push((gen_param, g));
            let graph = elaborate(&program, &params, &ElabOptions::default())?;
            let prev_n = steps.last().map_or(0, |s| s.graph.num_tasks());
            if graph.num_tasks() < prev_n {
                return Err(DynamicError::NotPrefixStable { generation: gi });
            }
            // prefix stability: the first prev_n labels must match
            if let Some(prev) = steps.last() {
                for t in 0..prev_n {
                    if prev.graph.nodes[t].label != graph.nodes[t].label {
                        return Err(DynamicError::NotPrefixStable { generation: gi });
                    }
                }
            }
            // parentage of new tasks from the spawn phase
            let mut spawned_by = Vec::new();
            if prev_n > 0 {
                let k = graph
                    .phase_by_name(spawn_phase)
                    .ok_or_else(|| DynamicError::BadSpawnPhase {
                        generation: gi,
                        reason: format!("no phase named '{spawn_phase}'"),
                    })?;
                let mut parent = vec![None; graph.num_tasks()];
                for e in &graph.comm_phases[k.index()].edges {
                    if e.dst.index() >= prev_n {
                        parent[e.dst.index()] = Some(e.src);
                    }
                }
                for (t, p) in parent.iter().enumerate().skip(prev_n) {
                    let p = p.ok_or_else(|| DynamicError::BadSpawnPhase {
                        generation: gi,
                        reason: format!("new task {t} has no spawner"),
                    })?;
                    spawned_by.push((TaskId::new(t), p));
                }
            }
            steps.push(SpawnStep { graph, spawned_by });
        }
        Ok(DynamicComputation { steps })
    }

    /// The final (largest) task graph.
    pub fn final_graph(&self) -> &TaskGraph {
        &self.steps.last().expect("at least one generation").graph
    }
}

/// The canonical regular spawning pattern: divide-and-conquer growing a
/// binomial tree — generation `g` is `B_g`, and task `i + 2^(g-1)` is
/// spawned by task `i`.
pub fn binomial_growth(k: usize) -> DynamicComputation {
    let mut steps = Vec::with_capacity(k + 1);
    for g in 0..=k {
        let graph = oregami_graph::Family::BinomialTree(g).build();
        let spawned_by = if g == 0 {
            Vec::new()
        } else {
            let half = 1usize << (g - 1);
            (0..half)
                .map(|i| (TaskId::new(i + half), TaskId::new(i)))
                .collect()
        };
        steps.push(SpawnStep { graph, spawned_by });
    }
    DynamicComputation { steps }
}

/// Incrementally maps a growing computation: generation-0 tasks are spread
/// round-robin; each newly spawned task is placed on the processor closest
/// to its spawner that still has room under `bound` (ties: lower load,
/// then lower id). Existing placements never change.
///
/// Returns one assignment per generation (each a prefix-consistent
/// extension of the previous).
pub fn incremental_map(
    dc: &DynamicComputation,
    net: &Network,
    bound: usize,
) -> Result<Vec<Vec<ProcId>>, String> {
    incremental_map_budgeted(dc, net, bound, &Budget::unlimited()).map(|(maps, _)| maps)
}

/// [`incremental_map`] under an execution [`Budget`], one step charged
/// per placed task. When the budget trips mid-generation, the remaining
/// spawned tasks fall back to the least-loaded processor (no affinity
/// scan) — every placement stays valid under the bound — and the
/// returned [`Completion`] records the cut, like every other search in
/// this crate. A cancelled or deadline-blown budget can no longer hang a
/// large generation.
fn incremental_map_budgeted(
    dc: &DynamicComputation,
    net: &Network,
    bound: usize,
    budget: &Budget,
) -> Result<(Vec<Vec<ProcId>>, Completion), String> {
    let table = RouteTable::try_new(net).map_err(|e| format!("route table: {e}"))?;
    let p = net.num_procs();
    let final_n = dc.final_graph().num_tasks();
    if p * bound < final_n {
        return Err(format!(
            "{final_n} tasks cannot fit on {p} processors with load bound {bound}"
        ));
    }
    let mut completion = Completion::Optimal;
    let mut load = vec![0usize; p];
    let mut assignment: Vec<ProcId> = Vec::new();
    let mut out = Vec::with_capacity(dc.steps.len());
    for (gi, step) in dc.steps.iter().enumerate() {
        let n = step.graph.num_tasks();
        if gi == 0 {
            for t in 0..n {
                let q = ProcId((t % p) as u32);
                assignment.push(q);
                load[q.index()] += 1;
            }
        } else {
            let prev_n = assignment.len();
            let mut by_child: Vec<Option<TaskId>> = vec![None; n];
            for &(child, parent) in &step.spawned_by {
                by_child[child.index()] = Some(parent);
            }
            for (t, entry) in by_child.iter().enumerate().skip(prev_n) {
                let parent = entry.ok_or_else(|| format!("task {t} has no spawner"))?;
                if completion == Completion::Optimal {
                    if let Some(c) = budget.tick() {
                        completion = c;
                    }
                }
                let q = if completion == Completion::Optimal {
                    let home = assignment[parent.index()];
                    (0..p)
                        .filter(|&q| load[q] < bound)
                        .min_by_key(|&q| {
                            (
                                table.dist(ProcId(q as u32), home),
                                load[q],
                                q,
                            )
                        })
                        .ok_or_else(|| "no processor has room".to_string())?
                } else {
                    (0..p)
                        .filter(|&q| load[q] < bound)
                        .min_by_key(|&q| (load[q], q))
                        .ok_or_else(|| "no processor has room".to_string())?
                };
                assignment.push(ProcId(q as u32));
                load[q] += 1;
            }
        }
        out.push(assignment.clone());
    }
    Ok((out, completion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;
    use oregami_topology::builders;

    #[test]
    fn binomial_growth_structure() {
        let dc = binomial_growth(4);
        assert_eq!(dc.steps.len(), 5);
        assert_eq!(dc.final_graph().num_tasks(), 16);
        // generation g spawns 2^(g-1) new tasks
        for (g, step) in dc.steps.iter().enumerate().skip(1) {
            assert_eq!(step.spawned_by.len(), 1 << (g - 1));
            // every spawn record is a real tree edge of the final graph
            for &(child, parent) in &step.spawned_by {
                let has = dc.final_graph().comm_phases[0]
                    .edges
                    .iter()
                    .any(|e| e.src == parent && e.dst == child);
                assert!(has, "spawn ({parent:?} -> {child:?}) must be a tree edge");
            }
        }
    }

    #[test]
    fn incremental_map_is_prefix_stable_and_bounded() {
        let dc = binomial_growth(4); // 16 tasks
        let net = builders::hypercube(2); // 4 procs
        let maps = incremental_map(&dc, &net, 4).unwrap();
        assert_eq!(maps.len(), 5);
        for w in maps.windows(2) {
            assert_eq!(&w[1][..w[0].len()], &w[0][..], "tasks never migrate");
        }
        // final load respects the bound and is perfectly balanced here
        let mut load = vec![0usize; 4];
        for p in maps.last().unwrap() {
            load[p.index()] += 1;
        }
        assert_eq!(load, vec![4; 4]);
    }

    #[test]
    fn children_land_near_parents() {
        let dc = binomial_growth(3); // 8 tasks
        let net = builders::hypercube(3); // 8 procs, room everywhere
        let maps = incremental_map(&dc, &net, 1).unwrap();
        let table = RouteTable::try_new(&net).expect("connected network");
        let final_map = maps.last().unwrap();
        // with bound 1 each child takes the nearest free processor; spawn
        // edges in B_3 on Q3 can always be dilation 1 (it's a subgraph):
        for step in &dc.steps {
            for &(child, parent) in &step.spawned_by {
                let d = table.dist(final_map[child.index()], final_map[parent.index()]);
                assert!(d <= 2, "spawn edge stretched to {d} hops");
            }
        }
    }

    #[test]
    fn budget_exhaustion_degrades_placement_but_stays_valid() {
        let dc = binomial_growth(5); // 32 tasks
        let net = builders::hypercube(3); // 8 procs
        // One step per placed spawn: 31 spawns total, allow 4.
        let budget = Budget::unlimited().with_max_steps(4);
        let (maps, completion) = incremental_map_budgeted(&dc, &net, 4, &budget).unwrap();
        assert_eq!(completion, Completion::BudgetExhausted);
        // Degraded placements are still prefix-stable and bounded.
        for w in maps.windows(2) {
            assert_eq!(&w[1][..w[0].len()], &w[0][..]);
        }
        let mut load = [0usize; 8];
        for p in maps.last().unwrap() {
            load[p.index()] += 1;
        }
        assert!(load.iter().all(|&l| l <= 4));
    }

    #[test]
    fn cancelled_budget_degrades_immediately() {
        let dc = binomial_growth(4);
        let net = builders::hypercube(2);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let (maps, completion) = incremental_map_budgeted(&dc, &net, 4, &budget).unwrap();
        assert_eq!(completion, Completion::Cancelled);
        assert_eq!(maps.len(), 5);
    }

    #[test]
    fn unbudgeted_and_budgeted_agree_when_budget_is_ample() {
        let dc = binomial_growth(4);
        let net = builders::hypercube(2);
        let plain = incremental_map(&dc, &net, 4).unwrap();
        let (budgeted, completion) =
            incremental_map_budgeted(&dc, &net, 4, &Budget::unlimited()).unwrap();
        assert_eq!(completion, Completion::Optimal);
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn infeasible_bound_rejected() {
        let dc = binomial_growth(3);
        let net = builders::chain(2);
        assert!(incremental_map(&dc, &net, 2).is_err());
    }

    #[test]
    fn from_larcs_binomial_generations() {
        // the built-in binomial D&C program, re-elaborated per generation:
        // the scatter phase doubles as the spawn phase.
        let dc = DynamicComputation::from_larcs(
            &oregami_larcs::programs::binomial_dnc(),
            &[],
            "k",
            0..=4,
            "scatter",
        )
        .unwrap();
        assert_eq!(dc.steps.len(), 5);
        assert_eq!(dc.final_graph().num_tasks(), 16);
        for (g, step) in dc.steps.iter().enumerate().skip(1) {
            assert_eq!(step.spawned_by.len(), 1 << (g - 1), "generation {g}");
        }
        // and the growth agrees with the native generator
        let native = binomial_growth(4);
        for (a, b) in dc.steps.iter().zip(&native.steps) {
            assert_eq!(a.graph.num_tasks(), b.graph.num_tasks());
            let mut sa = a.spawned_by.clone();
            let mut sb = b.spawned_by.clone();
            sa.sort();
            sb.sort();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn from_larcs_rejects_missing_spawn_phase() {
        let err = DynamicComputation::from_larcs(
            &oregami_larcs::programs::binomial_dnc(),
            &[],
            "k",
            0..=2,
            "nonexistent",
        )
        .unwrap_err();
        assert!(matches!(err, DynamicError::BadSpawnPhase { .. }));
    }
}
