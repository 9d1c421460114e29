//! Property-based validation of contraction, embedding, and routing.

use oregami_graph::{TaskGraph, TaskId, WeightedGraph};
use oregami_mapper::contraction::{exhaustive_optimal_ipc, mwm_contract};
use oregami_mapper::embedding::{nn_embed, validate_embedding};
use oregami_mapper::routing::{mm_route, Matcher};
use oregami_mapper::{run_engine_with, Budget, EngineConfig, FallbackChain, MapperOptions};
use oregami_topology::{builders, Network, ProcId, RouteTable};
use proptest::prelude::*;

fn weighted_graph(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (2usize..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        proptest::collection::vec((0usize..m, 1u64..50), 0..=m).prop_map(move |picks| {
            let mut g = WeightedGraph::new(n);
            for (i, w) in picks {
                let (u, v) = pairs[i];
                g.add_or_accumulate(u, v, w);
            }
            g
        })
    })
}

fn small_network(idx: usize) -> Network {
    match idx % 6 {
        0 => builders::hypercube(2),
        1 => builders::hypercube(3),
        2 => builders::mesh2d(2, 3),
        3 => builders::ring(5),
        4 => builders::chain(6),
        _ => builders::complete(4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MWM-Contract always satisfies the processor and load-bound
    /// constraints and never cuts more than the total weight.
    #[test]
    fn mwm_contract_respects_constraints(
        g in weighted_graph(12),
        procs in 1usize..6,
        slack in 0usize..3,
    ) {
        let n = g.num_nodes();
        let bound = n.div_ceil(procs) + slack;
        let c = mwm_contract(&g, procs, bound).unwrap();
        prop_assert!(c.validate(procs, bound).is_ok());
        prop_assert!(c.total_ipc(&g) <= g.total_weight());
        prop_assert_eq!(c.cluster_of.len(), n);
    }

    /// The paper's optimality regime: tasks ≤ 2 · processors with B = 2.
    #[test]
    fn mwm_contract_optimal_in_pairing_regime(g in weighted_graph(8), procs in 2usize..5) {
        let n = g.num_nodes();
        prop_assume!(n <= 2 * procs);
        let c = mwm_contract(&g, procs, 2).unwrap();
        let opt = exhaustive_optimal_ipc(&g, procs, 2).unwrap();
        prop_assert_eq!(c.total_ipc(&g), opt);
    }

    /// NN-Embed is always injective and in-range.
    #[test]
    fn nn_embed_is_injective(g in weighted_graph(8), which in 0usize..6) {
        let net = small_network(which);
        prop_assume!(g.num_nodes() <= net.num_procs());
        let table = RouteTable::try_new(&net).expect("connected network");
        let placement = nn_embed(&g, &net, &table).unwrap();
        prop_assert!(validate_embedding(&placement, &net).is_ok());
    }

    /// MM-Route produces valid shortest routes for random traffic under
    /// random assignments, with both matchers.
    #[test]
    fn mm_route_produces_valid_shortest_routes(
        edges in proptest::collection::vec((0usize..10, 0usize..10, 1u64..20), 1..25),
        procs_seed in any::<u64>(),
        which in 0usize..6,
        use_greedy in any::<bool>(),
    ) {
        let net = small_network(which);
        let mut tg = TaskGraph::new("rand");
        tg.add_scalar_nodes("t", 10);
        let p = tg.add_phase("c");
        for &(u, v, w) in &edges {
            if u != v {
                tg.add_edge(p, TaskId::new(u), TaskId::new(v), w);
            }
        }
        prop_assume!(tg.num_edges() > 0);
        let mut s = procs_seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let assignment: Vec<ProcId> =
            (0..10).map(|_| ProcId((next() % net.num_procs() as u64) as u32)).collect();
        let table = RouteTable::try_new(&net).expect("connected network");
        let matcher = if use_greedy { Matcher::GreedyMaximal } else { Matcher::Maximum };
        let routed = mm_route(&tg, 0, &assignment, &net, &table, matcher);
        for (i, e) in tg.comm_phases[0].edges.iter().enumerate() {
            let path = &routed.paths[i];
            let from = assignment[e.src.index()];
            let to = assignment[e.dst.index()];
            prop_assert_eq!(path[0], from);
            prop_assert_eq!(*path.last().unwrap(), to);
            prop_assert_eq!(path.len() as u32 - 1, table.dist(from, to));
            for w in path.windows(2) {
                prop_assert!(net.link_between(w[0], w[1]).is_some());
            }
        }
    }

    /// Contraction + embedding compose: cluster-graph placement assigns
    /// every task, and co-clustered tasks share a processor.
    #[test]
    fn contraction_then_embedding_is_consistent(
        g in weighted_graph(10),
        which in 0usize..6,
    ) {
        let net = small_network(which);
        let procs = net.num_procs();
        let n = g.num_nodes();
        let bound = n.div_ceil(procs) + 1;
        let c = mwm_contract(&g, procs, bound).unwrap();
        let (q, internal) = g.quotient(&c.cluster_of, c.num_clusters);
        prop_assert_eq!(q.total_weight() + internal, g.total_weight());
        let table = RouteTable::try_new(&net).expect("connected network");
        let placement = nn_embed(&q, &net, &table).unwrap();
        prop_assert!(validate_embedding(&placement, &net).is_ok());
        let assignment: Vec<ProcId> =
            c.cluster_of.iter().map(|&cl| placement[cl]).collect();
        for u in 0..n {
            for v in 0..n {
                if c.cluster_of[u] == c.cluster_of[v] {
                    prop_assert_eq!(assignment[u], assignment[v]);
                }
            }
        }
    }

    /// Anytime contract: under ANY budget — even a starved one — the
    /// full fallback chain serves a mapping that validates, and the
    /// served completion is honest (degraded only when a search was cut).
    #[test]
    fn engine_always_serves_valid_mapping_under_any_budget(
        edges in proptest::collection::vec((0usize..10, 0usize..10, 1u64..20), 1..25),
        which in 0usize..6,
        max_steps in 0u64..200,
    ) {
        let net = small_network(which);
        let mut tg = TaskGraph::new("rand");
        tg.add_scalar_nodes("t", 10);
        let p = tg.add_phase("c");
        for &(u, v, w) in &edges {
            if u != v {
                tg.add_edge(p, TaskId::new(u), TaskId::new(v), w);
            }
        }
        prop_assume!(tg.num_edges() > 0);
        let budget = Budget::unlimited().with_max_steps(max_steps);
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &budget,
            &EngineConfig::default(),
        ).unwrap();
        prop_assert!(outcome.report.mapping.validate(&tg, &net).is_ok());
        if !outcome.engine.is_degraded() {
            // an undegraded chain must match what an unlimited run finds
            let unlimited = run_engine_with(
                &tg,
                &net,
                &MapperOptions::default(),
                &FallbackChain::full(),
                &Budget::unlimited(),
                &EngineConfig::default(),
            ).unwrap();
            prop_assert_eq!(
                outcome.report.mapping.assignment,
                unlimited.report.mapping.assignment
            );
        }
    }
}
