//! The greedy pre-merge heuristic of Algorithm MWM-Contract (paper §4.3,
//! Fig 5).
//!
//! "The greedy heuristic merges tasks into clusters until the number of
//! clusters is less than or equal to two times the number of processors. In
//! order to satisfy the load balancing constraint of B tasks per processor,
//! the greedy heuristic ensures that no cluster size exceeds B/2. This is
//! achieved by examining edges in the task graph in non-increasing order
//! based on the edge weights. ... When an edge is examined, the two
//! clusters are merged if the total number of tasks in the resulting
//! combined cluster does not exceed B/2."
//!
//! The heuristic makes repeated passes (edge weights between clusters
//! accumulate as clusters merge) until the target is reached or no merge is
//! possible.

use super::Contraction;
use crate::budget::{Budget, Completion};
use oregami_graph::WeightedGraph;

/// Runs the greedy merge on `g` until at most `target_clusters` clusters
/// remain, never letting a cluster exceed `max_cluster_size` tasks.
/// Returns the (compacted) contraction; the cluster count may stay above
/// the target when the size cap makes further merging impossible.
pub fn greedy_premerge(
    g: &WeightedGraph,
    target_clusters: usize,
    max_cluster_size: usize,
) -> Contraction {
    greedy_premerge_budgeted(g, target_clusters, max_cluster_size, &Budget::unlimited()).0
}

/// [`greedy_premerge`] under an execution budget: one step is charged per
/// examined quotient edge, and on budget exhaustion the merging stops
/// where it stands. Every intermediate state is a valid contraction (the
/// size cap is never violated), so the early result is usable — just less
/// consolidated.
pub fn greedy_premerge_budgeted(
    g: &WeightedGraph,
    target_clusters: usize,
    max_cluster_size: usize,
    budget: &Budget,
) -> (Contraction, Completion) {
    let n = g.num_nodes();
    let mut cluster_of: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    // Each cluster's tasks as a list threaded through `next`, headed by the
    // cluster's id (its smallest task): a merge relabels only the tasks of
    // the cluster it drops, at most `max_cluster_size` of them.
    let mut next = vec![usize::MAX; n];
    let mut tail: Vec<usize> = (0..n).collect();
    let mut count = n;
    let mut stopped = None;
    // Repeated passes over the quotient graph: cluster-to-cluster weights
    // accumulate as merging proceeds, changing the scan order.
    'outer: while count > target_clusters {
        // Cluster ids are representative task ids (sparse in 0..n); the
        // quotient ignores the empty slots.
        let (q, _) = g.quotient(&cluster_of, n);
        let mut merged_any = false;
        for e in q.edges_by_weight_desc() {
            if let Some(c) = budget.tick() {
                stopped = Some(c);
                break 'outer;
            }
            if count <= target_clusters {
                break;
            }
            // e.u, e.v are cluster ids (possibly stale after a merge this
            // pass — re-resolve through the union map).
            let (cu, cv) = (resolve(&cluster_of, e.u), resolve(&cluster_of, e.v));
            if cu == cv {
                continue;
            }
            if size[cu] + size[cv] > max_cluster_size {
                continue;
            }
            // merge cv into cu
            let (keep, drop) = (cu.min(cv), cu.max(cv));
            let mut t = drop;
            while t != usize::MAX {
                cluster_of[t] = keep;
                t = next[t];
            }
            next[tail[keep]] = drop;
            tail[keep] = tail[drop];
            size[keep] += size[drop];
            size[drop] = 0;
            count -= 1;
            merged_any = true;
        }
        if !merged_any {
            break;
        }
    }
    (
        Contraction {
            cluster_of,
            num_clusters: n,
        }
        .compact(),
        stopped.unwrap_or(Completion::Optimal),
    )
}

/// After merges within a pass, a quotient-graph endpoint may name a cluster
/// that has been absorbed; the representative is whatever the tasks of that
/// cluster now map to. Cluster ids here are task ids of representatives, so
/// the map is direct.
fn resolve(cluster_of: &[usize], c: usize) -> usize {
    cluster_of[c]
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::contraction::fig5_example_graph;

    #[test]
    fn fig5_greedy_produces_six_pairs() {
        let g = fig5_example_graph();
        let c = greedy_premerge(&g, 6, 2);
        assert_eq!(c.num_clusters, 6);
        assert_eq!(c.sizes(), vec![2; 6]);
        // the weight-15 edge did NOT merge tasks 1 and 2
        assert_ne!(c.cluster_of[1], c.cluster_of[2]);
        // the pairs merged
        for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)] {
            assert_eq!(c.cluster_of[a], c.cluster_of[b], "pair ({a},{b})");
        }
    }

    #[test]
    fn respects_size_cap_even_under_target() {
        // a triangle with cap 1: no merging possible at all
        let mut g = WeightedGraph::new(3);
        g.add_or_accumulate(0, 1, 5);
        g.add_or_accumulate(1, 2, 5);
        let c = greedy_premerge(&g, 1, 1);
        assert_eq!(c.num_clusters, 3);
    }

    #[test]
    fn stops_at_target() {
        // a chain of equal weights: merging stops as soon as count == target
        let mut g = WeightedGraph::new(8);
        for i in 0..7 {
            g.add_or_accumulate(i, i + 1, 10);
        }
        let c = greedy_premerge(&g, 4, 4);
        assert_eq!(c.num_clusters, 4);
        c.validate(4, 4).unwrap();
    }

    #[test]
    fn accumulated_weights_drive_later_passes() {
        // After merging (0,1) and (2,3), the two inter-cluster edges 0-2
        // and 1-3 (weight 6 each) accumulate to 12, beating the single
        // 11-weight edge 4-5 in the second pass.
        let mut g = WeightedGraph::new(6);
        g.add_or_accumulate(0, 1, 20);
        g.add_or_accumulate(2, 3, 19);
        g.add_or_accumulate(0, 2, 6);
        g.add_or_accumulate(1, 3, 6);
        g.add_or_accumulate(4, 5, 11);
        let c = greedy_premerge(&g, 2, 4);
        assert_eq!(c.num_clusters, 2);
        // {0,1,2,3} and {4,5}
        assert_eq!(c.cluster_of[0], c.cluster_of[3]);
        assert_ne!(c.cluster_of[0], c.cluster_of[4]);
        assert_eq!(c.cluster_of[4], c.cluster_of[5]);
    }

    #[test]
    fn exhausted_budget_stops_mid_merge_but_stays_valid() {
        let mut g = WeightedGraph::new(16);
        for i in 0..15 {
            g.add_or_accumulate(i, i + 1, 10);
        }
        let budget = Budget::unlimited().with_max_steps(3);
        let (c, completion) = greedy_premerge_budgeted(&g, 2, 8, &budget);
        assert_eq!(completion, Completion::BudgetExhausted);
        // fewer merges happened than requested, but the contraction is valid
        assert!(c.num_clusters > 2);
        c.validate(c.num_clusters, 8).unwrap();
    }

    #[test]
    fn isolated_nodes_stay_single() {
        let g = WeightedGraph::new(5); // no edges at all
        let c = greedy_premerge(&g, 2, 4);
        assert_eq!(c.num_clusters, 5); // nothing to merge by edges
    }
}
