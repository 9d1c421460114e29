//! MM-Route on benchmark-sized phases equals the per-message oracle.
//!
//! `mm_route` matches classes of messages that share `(cur, dest)`; the
//! oracle (`oregami-mapper`'s `tests/mm_route_oracle/`) rebuilds a
//! per-message Hopcroft–Karp or greedy matching every round. On the
//! mappings `general_scale` routes — geometric graphs whose classes
//! have many members and permutations whose classes are mostly single —
//! and on a 1024-processor torus, both matchers must return the same
//! paths and the same number of matching rounds.

#[path = "../../mapper/tests/mm_route_oracle/mod.rs"]
mod mm_route_oracle;

use mm_route_oracle::reference_mm_route;
use oregami::graph::TaskGraph;
use oregami::mapper::routing::{mm_route, Matcher};
use oregami::topology::{builders, RouteTable};
use oregami::{Network, Oregami};
use oregami_bench::{random_geometric_tasks, random_permutation_traffic};

/// Maps `tg` onto `net` the way `general_scale` does and checks every
/// phase against the oracle with both matchers; returns the rounds the
/// default matcher needed.
fn routes_equal_the_oracle(name: &str, tg: TaskGraph, net: Network) -> usize {
    let sys = Oregami::new(net);
    let r = sys.map_graph(tg).expect("maps");
    let (tg, net) = (&r.task_graph, sys.network());
    let assignment = &r.report.mapping.assignment;
    let table = RouteTable::try_new(net).expect("connected");
    let mut rounds = 0;
    for matcher in [Matcher::Maximum, Matcher::GreedyMaximal] {
        for k in 0..tg.num_phases() {
            let got = mm_route(tg, k, assignment, net, &table, matcher);
            let (paths, want_rounds) = reference_mm_route(tg, k, assignment, net, &table, matcher);
            assert!(got.paths == paths, "{name}: {matcher:?} phase {k}: paths differ");
            assert_eq!(got.matching_rounds, want_rounds, "{name}: {matcher:?} phase {k}");
            if matcher == Matcher::Maximum {
                rounds += got.matching_rounds;
            }
        }
    }
    rounds
}

/// `general_scale`'s radius for an average degree of six.
fn rgg(n: usize, seed: u64) -> TaskGraph {
    random_geometric_tasks(n, (6.0 / (n as f64 * std::f64::consts::PI)).sqrt(), seed)
}

#[test]
fn mm_route_equals_the_per_message_oracle_on_benchmark_phases() {
    // the first draw of general_scale at seed 11
    let rounds = routes_equal_the_oracle("rgg4000", rgg(4000, 342), builders::hypercube(6));
    assert!(rounds >= 50, "rgg4000 took only {rounds} rounds");
    routes_equal_the_oracle(
        "perm1024",
        random_permutation_traffic(1024, 345),
        builders::hypercube(8),
    );
    let rounds = routes_equal_the_oracle("rgg8192", rgg(8192, 7), builders::torus2d(32, 32));
    assert!(rounds >= 10, "rgg8192 on the torus took only {rounds} rounds");
}
