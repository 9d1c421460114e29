//! Per-phase remapping with task migration (paper §6, "Mapping
//! algorithms" — future work implemented here):
//!
//! "algorithms that consider migrating processes at run time in order to
//! accomodate phase shifts (as opposed to our current approach of finding
//! one mapping that accomodates all the phases)".
//!
//! Instead of one assignment serving every communication phase, each phase
//! gets its own contraction + embedding optimised for that phase's traffic
//! alone, and tasks migrate between consecutive phases of the schedule.
//! Migration moves the task's state (`state_volume` units) over the
//! network, so the trade-off is:
//!
//! ```text
//! single mapping:   Σ_k  comm_k(one assignment)
//! per-phase:        Σ_k  comm_k(assignment_k) + state·Σ dist(move_k)
//! ```
//!
//! [`compare`] evaluates both sides under the METRICS cost model — the
//! crossover as `state_volume` grows is the `remap` ablation bench. Both
//! sides are costed by one incremental [`MetricsEngine`]: the per-phase
//! side walks the schedule by applying [`Edit::Reassign`] for each task
//! that migrates and [`Edit::Reroute`] for the matcher's routes, reading
//! each phase's comm slot cost as it goes.

use crate::contraction::mwm_contract;
use crate::embedding::nn_embed;
use crate::mapping::Mapping;
use crate::metrics_engine::{CostModel, Edit, MetricsEngine};
use crate::routing::{mm_route, route_all_phases, Matcher};
use oregami_graph::{PhaseId, TaskGraph};
use oregami_topology::{Network, ProcId, RouteTable};
use std::sync::Arc;

/// One assignment per communication phase, plus the migration volumes
/// between consecutive phases of the (flattened) phase order.
#[derive(Clone, Debug)]
pub struct PhaseRemapping {
    /// `assignments[k][task]` = processor of `task` during phase `k`.
    pub assignments: Vec<Vec<ProcId>>,
    /// `migration_hops[k]` = total `state · hops` moved when switching
    /// from phase `k` to phase `k+1` (cyclically, as phases repeat).
    pub migration_hops: Vec<u64>,
    /// Per-phase communication cost — the [`MetricsEngine`] comm slot
    /// cost of phase `k` under `assignments[k]` (unit cost model).
    pub comm_cost: Vec<u64>,
}

/// Builds a per-phase remapping: every phase is contracted and embedded
/// on its own traffic (volumes scaled by the phase expression's
/// multiplicities are irrelevant here — each phase is considered alone).
///
/// `bound` is the load bound per processor; `state_volume` the units of
/// task state a migration must move.
fn per_phase_remap(
    tg: &TaskGraph,
    net: &Network,
    bound: usize,
    state_volume: u64,
) -> Result<PhaseRemapping, crate::contraction::ContractError> {
    let table = Arc::new(RouteTable::try_new(net).expect("connected network"));
    let procs = net.num_procs();
    let mut assignments = Vec::with_capacity(tg.num_phases());
    for k in 0..tg.num_phases() {
        // single-phase view of the graph
        let single = tg.collapse_weighted(|ph| if ph == PhaseId::new(k) { 1 } else { 0 });
        let contraction = mwm_contract(&single, procs, bound)?;
        let (quotient, _) = single.quotient(&contraction.cluster_of, contraction.num_clusters);
        let placement = nn_embed(&quotient, net, &table)
            .expect("contraction produces at most `procs` clusters");
        let assignment: Vec<ProcId> = contraction
            .cluster_of
            .iter()
            .map(|&c| placement[c])
            .collect();
        assignments.push(assignment);
    }
    // Cost every phase with one engine walked along the schedule: start
    // from phase 0's fully routed mapping, then for each later phase
    // apply only the reassignments that differ and install the matcher's
    // routes for that phase — each step touches only the ledger entries
    // the migrations and reroutes cross.
    let mut comm_cost = Vec::with_capacity(tg.num_phases());
    if tg.num_phases() > 0 {
        let m0 = Mapping {
            assignment: assignments[0].clone(),
            routes: route_all_phases(tg, &assignments[0], net, &table, Matcher::Maximum),
        };
        let mut engine =
            MetricsEngine::try_new_with_table(tg, net, &m0, &CostModel::default(), Arc::clone(&table))
                .expect("per-phase mapping is valid on its own network");
        comm_cost.push(engine.comm_slot_cost(0));
        for (k, target) in assignments.iter().enumerate().skip(1) {
            for (t, &proc) in target.iter().enumerate() {
                if engine.mapping().assignment[t] != proc {
                    engine
                        .apply(Edit::Reassign { task: t, proc })
                        .expect("migration stays on the healthy connected network");
                }
            }
            let routed = mm_route(tg, k, target, net, &table, Matcher::Maximum);
            for (i, path) in routed.paths.into_iter().enumerate() {
                engine
                    .apply(Edit::Reroute { phase: k, edge: i, path })
                    .expect("matcher route is valid for the phase assignment");
            }
            comm_cost.push(engine.comm_slot_cost(k));
        }
    }
    // migration between consecutive phases (cyclic: the schedule repeats)
    let mut migration_hops = Vec::with_capacity(tg.num_phases());
    for k in 0..tg.num_phases() {
        let next = (k + 1) % tg.num_phases();
        let hops: u64 = (0..tg.num_tasks())
            .map(|t| u64::from(table.dist(assignments[k][t], assignments[next][t])))
            .sum();
        migration_hops.push(hops * state_volume);
    }
    Ok(PhaseRemapping {
        assignments,
        migration_hops,
        comm_cost,
    })
}

/// Side-by-side totals for one pass over all phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemapComparison {
    /// Σ per-phase comm cost of the single fixed mapping.
    pub single_mapping_cost: u64,
    /// Σ per-phase comm cost of the per-phase mappings (without migration).
    pub per_phase_comm_cost: u64,
    /// Σ migration cost between phases.
    pub migration_cost: u64,
}

impl RemapComparison {
    /// Whether remapping wins once migration is paid.
    pub fn remap_wins(&self) -> bool {
        self.per_phase_comm_cost + self.migration_cost < self.single_mapping_cost
    }
}

/// Evaluates the fixed single `mapping` against a freshly computed
/// per-phase remapping at the given `state_volume`.
pub fn compare(
    tg: &TaskGraph,
    net: &Network,
    mapping: &Mapping,
    bound: usize,
    state_volume: u64,
) -> Result<RemapComparison, crate::contraction::ContractError> {
    let engine = MetricsEngine::try_new(tg, net, mapping, &CostModel::default())
        .expect("mapping must be valid for remap comparison");
    let single_mapping_cost = (0..tg.num_phases())
        .map(|k| engine.comm_slot_cost(k))
        .sum();
    let remap = per_phase_remap(tg, net, bound, state_volume)?;
    Ok(RemapComparison {
        single_mapping_cost,
        per_phase_comm_cost: remap.comm_cost.iter().sum(),
        migration_cost: remap.migration_hops.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_graph::TaskId;
    use oregami_topology::builders;

    /// Two phases with opposed affinity: phase A wants pairs (0,1),(2,3);
    /// phase B wants pairs (1,2),(3,0). No single 2-processor mapping
    /// satisfies both; per-phase remapping internalises each phase fully.
    fn conflicted_graph() -> TaskGraph {
        let mut tg = TaskGraph::new("conflict");
        tg.add_scalar_nodes("t", 4);
        let a = tg.add_phase("a");
        tg.add_edge(a, TaskId(0), TaskId(1), 10);
        tg.add_edge(a, TaskId(2), TaskId(3), 10);
        let b = tg.add_phase("b");
        tg.add_edge(b, TaskId(1), TaskId(2), 10);
        tg.add_edge(b, TaskId(3), TaskId(0), 10);
        tg
    }

    #[test]
    fn per_phase_internalises_each_phase() {
        let tg = conflicted_graph();
        let net = builders::chain(2);
        let remap = per_phase_remap(&tg, &net, 2, 1).unwrap();
        // each phase's own assignment internalises all of its traffic
        assert_eq!(remap.comm_cost, vec![0, 0]);
        // but tasks move between phases
        assert!(remap.migration_hops.iter().sum::<u64>() > 0);
    }

    #[test]
    fn remap_wins_with_cheap_state_loses_with_heavy_state() {
        let tg = conflicted_graph();
        let net = builders::chain(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        // fixed mapping: pairs (0,1) and (2,3) — phase B fully crosses
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(1)];
        let routes = crate::routing::route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
        let mapping = Mapping { assignment, routes };
        let cheap = compare(&tg, &net, &mapping, 2, 0).unwrap();
        assert!(cheap.remap_wins(), "free migration must win: {cheap:?}");
        let heavy = compare(&tg, &net, &mapping, 2, 1000).unwrap();
        assert!(!heavy.remap_wins(), "heavy state must lose: {heavy:?}");
    }

    #[test]
    fn aligned_phases_make_remap_pointless() {
        // both phases want the same pairs: single mapping already optimal
        let mut tg = TaskGraph::new("aligned");
        tg.add_scalar_nodes("t", 4);
        for name in ["a", "b"] {
            let p = tg.add_phase(name);
            tg.add_edge(p, TaskId(0), TaskId(1), 5);
            tg.add_edge(p, TaskId(2), TaskId(3), 5);
        }
        let net = builders::chain(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(1)];
        let routes = crate::routing::route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
        let mapping = Mapping { assignment, routes };
        let cmp = compare(&tg, &net, &mapping, 2, 1).unwrap();
        assert_eq!(cmp.single_mapping_cost, 0);
        assert!(!cmp.remap_wins());
    }
}
