//! Multilevel quality on small graphs: on the fixed instances the
//! multilevel stage is measured on (a grid, a torus stencil and a random
//! geometric graph, each at most 512 tasks), its mapping costs at most
//! 1.2x what the flat heuristic chain serves, both scored by the one
//! METRICS scalar under the same slackened load bound.

use oregami::graph::TaskGraph;
use oregami::mapper::{multilevel_map_with_report, run_engine_with, EngineConfig};
use oregami::topology::{builders, RouteTable};
use oregami::{Budget, CostModel, FallbackChain, MapperOptions, Mapping, MetricsEngine, Network};
use oregami_bench::{grid_tasks, random_geometric_tasks, torus_tasks};
use std::sync::Arc;

fn scalar_cost(tg: &TaskGraph, net: &Network, mapping: &Mapping, table: &Arc<RouteTable>) -> u64 {
    MetricsEngine::try_new_with_table(tg, net, mapping, &CostModel::default(), Arc::clone(table))
        .expect("mapping is valid for metrics")
        .scalar_cost()
}

#[test]
fn multilevel_costs_at_most_1_2x_the_heuristic_on_small_graphs() {
    let cases = [
        ("grid16x16", grid_tasks(16, 16), builders::torus2d(4, 4)),
        ("torus16x32", torus_tasks(16, 32), builders::hypercube(4)),
        (
            "rgg400",
            random_geometric_tasks(400, 0.09, 5),
            builders::torus2d(4, 4),
        ),
    ];
    for (name, tg, net) in cases {
        let (n, p) = (tg.num_tasks(), net.num_procs());
        assert!(n <= 512, "{name}: the bar is for small graphs");
        // 3/2 of perfectly balanced, so refinement has room to move
        let opts = MapperOptions {
            load_bound: Some((n.div_ceil(p) * 3 / 2).max(2)),
            ..MapperOptions::default()
        };
        let table = Arc::new(RouteTable::try_new(&net).expect("connected"));

        let heuristic = run_engine_with(
            &tg,
            &net,
            &opts,
            &FallbackChain::parse("heuristic,identity").unwrap(),
            &Budget::unlimited(),
            &EngineConfig::default(),
        )
        .expect("heuristic serves");
        let heuristic_cost = scalar_cost(&tg, &net, &heuristic.report.mapping, &table);

        let (ml, _, _) =
            multilevel_map_with_report(&tg, &net, &opts, &Budget::unlimited(), Arc::clone(&table))
                .expect("multilevel serves");
        ml.mapping
            .validate(&tg, &net)
            .expect("multilevel mapping valid");
        let ml_cost = scalar_cost(&tg, &net, &ml.mapping, &table);

        assert!(
            ml_cost * 10 <= heuristic_cost * 12,
            "{name}: multilevel cost {ml_cost} exceeds 1.2x the heuristic's {heuristic_cost}"
        );
    }
}
