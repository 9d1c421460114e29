//! Property-based validation of the multilevel coarsen–map–refine stage:
//! every mapping it serves must validate, refinement must never regress a
//! level's objective, and the whole pipeline — contraction, quotient
//! accumulation, metrics — must survive near-`u64::MAX` edge weights
//! without panicking on overflow.

use oregami_graph::{TaskGraph, TaskId, WeightedGraph};
use oregami_mapper::contraction::mwm_contract;
use oregami_mapper::{multilevel_map_with_report, Budget, MapperOptions};
use oregami_topology::{builders, Network, RouteTable};
use proptest::prelude::*;
use std::sync::Arc;

fn small_network(which: usize) -> Network {
    match which % 6 {
        0 => builders::hypercube(2),
        1 => builders::hypercube(3),
        2 => builders::mesh2d(2, 3),
        3 => builders::mesh2d(3, 3),
        4 => builders::ring(6),
        _ => builders::torus2d(3, 4),
    }
}

/// A random single-phase task graph with `n` tasks and arbitrary edges.
fn task_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = TaskGraph> {
    (4usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0usize..n, 0usize..n, 1u64..=max_w), 1..3 * n).prop_map(
            move |edges| {
                let mut tg = TaskGraph::new("prop-ml");
                tg.add_scalar_nodes("t", n);
                let p = tg.add_phase("c");
                for &(u, v, w) in &edges {
                    if u != v {
                        tg.add_edge(p, TaskId::new(u), TaskId::new(v), w);
                    }
                }
                tg
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The served mapping always validates (assignment in range, load
    /// bound respected, routes consistent) and refinement never
    /// increases a level's objective — on any graph, any small network,
    /// with or without load-bound slack.
    #[test]
    fn multilevel_is_valid_and_monotone(
        tg in task_graph(96, 50),
        which in 0usize..6,
        slack in 0usize..3,
    ) {
        let net = small_network(which);
        let n = tg.num_tasks();
        let p = net.num_procs();
        let opts = MapperOptions {
            load_bound: Some(n.div_ceil(p) + slack),
            ..MapperOptions::default()
        };
        let table = Arc::new(RouteTable::try_new(&net).expect("connected"));
        let (report, completion, ml) =
            multilevel_map_with_report(&tg, &net, &opts, &Budget::unlimited(), table)
                .expect("multilevel serves");
        prop_assert!(report.mapping.validate(&tg, &net).is_ok());
        prop_assert!(!completion.is_degraded(), "unlimited budget never degrades");
        for ls in &ml.levels {
            prop_assert!(
                ls.cost_after <= ls.cost_before,
                "refinement regressed a level: {} -> {}",
                ls.cost_before,
                ls.cost_after
            );
        }
    }

    /// Anytime contract: an arbitrarily small step budget still serves a
    /// valid mapping, only the completion degrades.
    #[test]
    fn multilevel_is_anytime_under_tiny_budgets(
        tg in task_graph(64, 20),
        which in 0usize..6,
        steps in 1u64..40,
    ) {
        let net = small_network(which);
        let table = Arc::new(RouteTable::try_new(&net).expect("connected"));
        let budget = Budget::unlimited().with_max_steps(steps);
        let (report, _, _) = multilevel_map_with_report(
            &tg, &net, &MapperOptions::default(), &budget, table,
        )
        .expect("multilevel serves under any budget");
        prop_assert!(report.mapping.validate(&tg, &net).is_ok());
    }

    /// Overflow hardening: weights within a few ULPs of `u64::MAX` flow
    /// through collapse, coarsening quotients, contraction, and the
    /// metrics engine without panicking — sums saturate instead.
    #[test]
    fn near_max_weights_never_panic(
        tg in task_graph(32, 4),
        which in 0usize..6,
        huge in (u64::MAX - 8)..=u64::MAX,
    ) {
        // Re-weight every edge near the top of the range.
        let mut big = TaskGraph::new("prop-ml-huge");
        big.add_scalar_nodes("t", tg.num_tasks());
        let p = big.add_phase("c");
        for e in &tg.comm_phases[0].edges {
            big.add_edge(p, e.src, e.dst, huge - (e.src.index() as u64 % 4));
        }
        let net = small_network(which);
        let table = Arc::new(RouteTable::try_new(&net).expect("connected"));
        let (report, _, _) = multilevel_map_with_report(
            &big, &net, &MapperOptions::default(), &Budget::unlimited(), table,
        )
        .expect("huge weights still map");
        prop_assert!(report.mapping.validate(&big, &net).is_ok());
    }

    /// The same hardening on the raw weighted-graph path: accumulating
    /// parallel edges and quotienting near-`u64::MAX` weights saturates,
    /// and MWM contraction still returns a bound-respecting clustering.
    #[test]
    fn quotient_and_contract_saturate_on_huge_weights(
        n in 4usize..24,
        procs in 2usize..5,
        huge in (u64::MAX / 2)..=u64::MAX,
    ) {
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            g.add_or_accumulate(u, (u + 1) % n, huge);
            g.add_or_accumulate(u, (u + 1) % n, huge); // forces saturation
        }
        prop_assert_eq!(g.total_weight(), u64::MAX, "accumulation saturates");
        let parts: Vec<usize> = (0..n).map(|u| u % procs).collect();
        let (q, internal) = g.quotient(&parts, procs);
        // consecutive ring nodes land in different parts (procs >= 2), so
        // at least n-1 near-saturated edges cross into the quotient graph,
        // whose accumulated weight must saturate rather than wrap; the one
        // possible internal edge (the ring wrap) is itself near-saturated
        prop_assert_eq!(q.total_weight(), u64::MAX, "quotient weight saturates");
        prop_assert!(internal == 0 || internal >= u64::MAX - 1, "internal saturates");
        prop_assert!(q.num_nodes() == procs);
        let bound = n.div_ceil(procs);
        let c = mwm_contract(&g, procs, bound).expect("contract succeeds");
        prop_assert!(c.validate(procs, bound).is_ok());
    }
}
