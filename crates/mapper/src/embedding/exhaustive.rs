//! Exhaustive optimal embedding — the oracle used to measure how far
//! NN-Embed's greedy placements are from optimal (the C8 ablation in
//! DESIGN.md), and the highest-quality stage of the engine's fallback
//! chains.
//!
//! The branch-and-bound search is *anytime*: it is seeded with the
//! NN-Embed placement (so there is always a valid best-so-far), and a
//! [`Budget`] checked at every search node lets it stop early and return
//! that best-so-far tagged [`Completion::BudgetExhausted`] or
//! [`Completion::Cancelled`] instead of running for `P!/(P-C)!` nodes.

use super::{nn_embed, weighted_dilation_cost, EmbedError};
use crate::budget::{Budget, Completion};
use oregami_graph::WeightedGraph;
use oregami_topology::{Network, ProcId, RouteTable};

/// The outcome of a budgeted embedding search: a valid placement, its
/// cost, and how the search ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnytimeEmbed {
    /// `placement[cluster] = processor`; injective, always valid.
    pub placement: Vec<ProcId>,
    /// Weighted-dilation cost of `placement`.
    pub cost: u64,
    /// [`Completion::Optimal`] when the search space was exhausted.
    pub completion: Completion,
}

/// Finds a placement minimising [`weighted_dilation_cost`] by
/// branch-and-bound over all injective cluster→processor assignments.
/// Exponential (`P!/(P-C)!`); intended for C ≤ 8 or so — for larger
/// instances use [`exhaustive_embed_budgeted`] with a deadline.
pub fn exhaustive_embed(
    cluster_graph: &WeightedGraph,
    net: &Network,
    table: &RouteTable,
) -> Result<(Vec<ProcId>, u64), EmbedError> {
    let r = exhaustive_embed_budgeted(cluster_graph, net, table, &Budget::unlimited())?;
    Ok((r.placement, r.cost))
}

/// Branch-and-bound embedding under an execution budget. Seeds the
/// incumbent with NN-Embed, then explores cluster→processor assignments
/// in decreasing-weighted-degree order, charging one budget step per
/// search node. On budget exhaustion or cancellation the incumbent —
/// always a complete, valid placement — is returned with the
/// corresponding [`Completion`].
pub fn exhaustive_embed_budgeted(
    cluster_graph: &WeightedGraph,
    net: &Network,
    table: &RouteTable,
    budget: &Budget,
) -> Result<AnytimeEmbed, EmbedError> {
    let c = cluster_graph.num_nodes();
    let p = net.num_procs();
    // Seed: the greedy placement is the anytime guarantee (and a strong
    // initial bound for pruning). Also surfaces TooManyClusters.
    let seed = nn_embed(cluster_graph, net, table)?;
    let mut best_cost = weighted_dilation_cost(cluster_graph, &seed, table);
    let mut best = seed;
    let mut placement = vec![ProcId(u32::MAX); c];
    let mut used = vec![false; p];

    // Order clusters by decreasing weighted degree for stronger pruning.
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_by_key(|&x| std::cmp::Reverse(cluster_graph.weighted_degree(x)));

    #[allow(clippy::too_many_arguments)] // recursion threads the whole search state
    fn rec(
        depth: usize,
        order: &[usize],
        g: &WeightedGraph,
        table: &RouteTable,
        p: usize,
        placement: &mut Vec<ProcId>,
        used: &mut Vec<bool>,
        partial: u64,
        best_cost: &mut u64,
        best: &mut Vec<ProcId>,
        budget: &Budget,
        stopped: &mut Option<Completion>,
    ) {
        if stopped.is_some() {
            return;
        }
        if let Some(c) = budget.tick() {
            *stopped = Some(c);
            return;
        }
        if partial >= *best_cost {
            return; // bound
        }
        if depth == order.len() {
            *best_cost = partial;
            best.clone_from(placement);
            return;
        }
        let cluster = order[depth];
        for q in 0..p {
            if used[q] {
                continue;
            }
            let proc = ProcId(q as u32);
            // incremental cost against already-placed neighbors
            let add: u64 = g
                .neighbors(cluster)
                .iter()
                .filter(|(nb, _)| placement[*nb] != ProcId(u32::MAX))
                .map(|&(nb, w)| w * u64::from(table.dist(proc, placement[nb])))
                .sum();
            placement[cluster] = proc;
            used[q] = true;
            rec(
                depth + 1,
                order,
                g,
                table,
                p,
                placement,
                used,
                partial + add,
                best_cost,
                best,
                budget,
                stopped,
            );
            placement[cluster] = ProcId(u32::MAX);
            used[q] = false;
            if stopped.is_some() {
                return;
            }
        }
    }
    let mut stopped = None;
    rec(
        0,
        &order,
        cluster_graph,
        table,
        p,
        &mut placement,
        &mut used,
        0,
        &mut best_cost,
        &mut best,
        budget,
        &mut stopped,
    );
    debug_assert_eq!(
        weighted_dilation_cost(cluster_graph, &best, table),
        best_cost
    );
    Ok(AnytimeEmbed {
        placement: best,
        cost: best_cost,
        completion: stopped.unwrap_or(Completion::Optimal),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::nn::nn_embed_with_cost;
    use crate::embedding::validate_embedding;
    use oregami_topology::builders;

    #[test]
    fn ring_on_ring_optimum_is_weight_sum() {
        let mut g = WeightedGraph::new(5);
        for i in 0..5 {
            g.add_or_accumulate(i, (i + 1) % 5, 7);
        }
        let net = builders::ring(5);
        let table = RouteTable::try_new(&net).expect("connected network");
        let (placement, cost) = exhaustive_embed(&g, &net, &table).unwrap();
        validate_embedding(&placement, &net).unwrap();
        assert_eq!(cost, 35);
    }

    #[test]
    fn nn_embed_never_beats_exhaustive() {
        let mut seed = 0x5EED5u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let c = 3 + (next() % 4) as usize; // 3..=6
            let mut g = WeightedGraph::new(c);
            for u in 0..c {
                for v in u + 1..c {
                    if next() % 100 < 60 {
                        g.add_or_accumulate(u, v, next() % 20 + 1);
                    }
                }
            }
            let net = builders::mesh2d(2, 3);
            let table = RouteTable::try_new(&net).expect("connected network");
            let (_, opt) = exhaustive_embed(&g, &net, &table).unwrap();
            let (_, greedy) = nn_embed_with_cost(&g, &net, &table).unwrap();
            assert!(greedy >= opt, "exhaustive must lower-bound greedy");
        }
    }

    #[test]
    fn star_hub_lands_on_center() {
        // a star cluster graph on a chain: the optimum puts the hub centrally
        let mut g = WeightedGraph::new(3);
        g.add_or_accumulate(0, 1, 10);
        g.add_or_accumulate(0, 2, 10);
        let net = builders::chain(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let (placement, cost) = exhaustive_embed(&g, &net, &table).unwrap();
        assert_eq!(placement[0], ProcId(1));
        assert_eq!(cost, 20);
    }

    #[test]
    fn too_many_clusters_is_a_typed_error() {
        let net = builders::chain(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        assert_eq!(
            exhaustive_embed(&WeightedGraph::new(3), &net, &table).unwrap_err(),
            EmbedError::TooManyClusters {
                clusters: 3,
                procs: 2
            }
        );
    }

    #[test]
    fn exhausted_budget_returns_seed_quality_or_better() {
        // a dense 8-cluster instance with a 1-step budget: the search stops
        // immediately but the result must still be the (valid) NN seed.
        let mut g = WeightedGraph::new(8);
        for u in 0..8 {
            for v in u + 1..8 {
                g.add_or_accumulate(u, v, ((u * 7 + v * 3) % 13 + 1) as u64);
            }
        }
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let budget = Budget::unlimited().with_max_steps(1);
        let r = exhaustive_embed_budgeted(&g, &net, &table, &budget).unwrap();
        assert_eq!(r.completion, Completion::BudgetExhausted);
        validate_embedding(&r.placement, &net).unwrap();
        let (_, seed_cost) = nn_embed_with_cost(&g, &net, &table).unwrap();
        assert!(r.cost <= seed_cost);
        // unlimited budget beats-or-ties the truncated run
        let full = exhaustive_embed_budgeted(&g, &net, &table, &Budget::unlimited()).unwrap();
        assert_eq!(full.completion, Completion::Optimal);
        assert!(full.cost <= r.cost);
    }

    #[test]
    fn cancelled_budget_reports_cancelled() {
        use crate::budget::CancelToken;
        let mut g = WeightedGraph::new(6);
        for i in 0..6 {
            g.add_or_accumulate(i, (i + 1) % 6, 5);
        }
        let net = builders::ring(6);
        let table = RouteTable::try_new(&net).expect("connected network");
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let r = exhaustive_embed_budgeted(&g, &net, &table, &budget).unwrap();
        assert_eq!(r.completion, Completion::Cancelled);
        validate_embedding(&r.placement, &net).unwrap();
    }
}
