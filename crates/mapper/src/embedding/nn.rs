//! Algorithm NN-Embed (paper §4.3): greedy nearest-neighbor embedding.
//!
//! "After contraction, embedding is achieved by Algorithm NN-Embed which
//! uses a greedy approach to place highly communicating clusters on
//! adjacent neighbors in the network graph."
//!
//! The greedy order: the cluster with the largest weighted degree is placed
//! first (on a maximum-degree processor); thereafter, the unplaced cluster
//! with the heaviest communication to already-placed clusters is placed on
//! the free processor minimising its weighted distance to those placed
//! neighbors.

use super::{weighted_dilation_cost, EmbedError};
use oregami_graph::WeightedGraph;
use oregami_topology::{Network, ProcId, RouteTable};

/// Greedily embeds `cluster_graph` (one node per cluster) into `net`.
/// Returns `placement[cluster] = processor`, or
/// [`EmbedError::TooManyClusters`] when no injective placement exists.
pub fn nn_embed(
    cluster_graph: &WeightedGraph,
    net: &Network,
    table: &RouteTable,
) -> Result<Vec<ProcId>, EmbedError> {
    let c = cluster_graph.num_nodes();
    let p = net.num_procs();
    if c > p {
        return Err(EmbedError::TooManyClusters {
            clusters: c,
            procs: p,
        });
    }
    if c == 0 {
        return Ok(Vec::new());
    }
    let mut placement = vec![ProcId(u32::MAX); c];
    let mut placed = vec![false; c];
    let mut proc_used = vec![false; p];

    let weighted_degree: Vec<u64> = (0..c).map(|x| cluster_graph.weighted_degree(x)).collect();
    // Seed: heaviest cluster on a max-degree processor (a "central" spot).
    let seed_cluster = (0..c)
        .max_by_key(|&x| (weighted_degree[x], std::cmp::Reverse(x)))
        .unwrap();
    let seed_proc = (0..p)
        .max_by_key(|&q| (net.degree(ProcId(q as u32)), std::cmp::Reverse(q)))
        .unwrap();
    // Each cluster's weight to the clusters placed so far, brought up to
    // date from the neighbours of each cluster as it is placed (saturating
    // adds commute, so the sums are those a fresh scan per step would give).
    let mut to_placed = vec![0u64; c];
    let mut chosen = (seed_cluster, seed_proc);
    for step in 1..=c {
        let (x, q) = chosen;
        placement[x] = ProcId(q as u32);
        placed[x] = true;
        proc_used[q] = true;
        if step == c {
            break;
        }
        cluster_graph.for_each_neighbor(x, |nb, w| {
            to_placed[nb] = to_placed[nb].saturating_add(w);
        });
        // next cluster: max total weight to placed clusters (ties: max
        // weighted degree, then smallest id for determinism)
        let next = (0..c)
            .filter(|&x| !placed[x])
            .max_by_key(|&x| (to_placed[x], weighted_degree[x], std::cmp::Reverse(x)))
            .unwrap();
        // best free processor: minimise weighted distance to placed
        // neighbors (ties: lowest id)
        let anchors: Vec<(ProcId, u64)> = cluster_graph
            .neighbors(next)
            .into_iter()
            .filter(|&(nb, _)| placed[nb])
            .map(|(nb, w)| (placement[nb], w))
            .collect();
        let best_proc = (0..p)
            .filter(|&q| !proc_used[q])
            .min_by_key(|&q| {
                let cost = anchors.iter().fold(0u64, |acc, &(at, w)| {
                    let d = u64::from(table.dist(ProcId(q as u32), at));
                    acc.saturating_add(w.saturating_mul(d))
                });
                (cost, q)
            })
            .unwrap();
        chosen = (next, best_proc);
    }
    Ok(placement)
}

/// Convenience: NN-Embed and report the resulting weighted-dilation cost.
pub fn nn_embed_with_cost(
    cluster_graph: &WeightedGraph,
    net: &Network,
    table: &RouteTable,
) -> Result<(Vec<ProcId>, u64), EmbedError> {
    let placement = nn_embed(cluster_graph, net, table)?;
    let cost = weighted_dilation_cost(cluster_graph, &placement, table);
    Ok((placement, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::validate_embedding;
    use oregami_topology::builders;

    #[test]
    fn heavy_pair_lands_adjacent() {
        // two clusters with heavy traffic + two light ones, on a chain:
        // the heavy pair must be adjacent.
        let mut g = WeightedGraph::new(4);
        g.add_or_accumulate(0, 1, 100);
        g.add_or_accumulate(2, 3, 1);
        g.add_or_accumulate(1, 2, 1);
        let net = builders::chain(4);
        let table = RouteTable::try_new(&net).expect("connected network");
        let placement = nn_embed(&g, &net, &table).unwrap();
        validate_embedding(&placement, &net).unwrap();
        assert_eq!(table.dist(placement[0], placement[1]), 1);
    }

    #[test]
    fn injective_on_equal_sizes() {
        let mut g = WeightedGraph::new(8);
        for i in 0..8 {
            g.add_or_accumulate(i, (i + 1) % 8, 3);
        }
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let placement = nn_embed(&g, &net, &table).unwrap();
        validate_embedding(&placement, &net).unwrap();
        assert_eq!(placement.len(), 8);
    }

    #[test]
    fn ring_on_ring_is_perfect() {
        // a ring cluster graph embedded in a same-size ring network should
        // achieve cost == total weight (every edge dilation 1).
        let mut g = WeightedGraph::new(6);
        for i in 0..6 {
            g.add_or_accumulate(i, (i + 1) % 6, 10);
        }
        let net = builders::ring(6);
        let table = RouteTable::try_new(&net).expect("connected network");
        let (placement, cost) = nn_embed_with_cost(&g, &net, &table).unwrap();
        validate_embedding(&placement, &net).unwrap();
        assert_eq!(cost, 60, "greedy must walk the ring around");
    }

    #[test]
    fn fewer_clusters_than_procs() {
        let mut g = WeightedGraph::new(3);
        g.add_or_accumulate(0, 1, 4);
        g.add_or_accumulate(1, 2, 4);
        let net = builders::mesh2d(3, 3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let placement = nn_embed(&g, &net, &table).unwrap();
        validate_embedding(&placement, &net).unwrap();
        // chain of three embeds with both edges adjacent
        assert_eq!(table.dist(placement[0], placement[1]), 1);
        assert_eq!(table.dist(placement[1], placement[2]), 1);
    }

    #[test]
    fn empty_and_single_cluster() {
        let net = builders::chain(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        assert!(nn_embed(&WeightedGraph::new(0), &net, &table)
            .unwrap()
            .is_empty());
        let placement = nn_embed(&WeightedGraph::new(1), &net, &table).unwrap();
        assert_eq!(placement.len(), 1);
    }

    #[test]
    fn too_many_clusters_is_a_typed_error() {
        let net = builders::chain(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        let err = nn_embed(&WeightedGraph::new(3), &net, &table).unwrap_err();
        assert_eq!(
            err,
            super::EmbedError::TooManyClusters {
                clusters: 3,
                procs: 2
            }
        );
        assert!(err.to_string().contains("more clusters (3)"));
    }
}
