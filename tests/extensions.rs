//! Integration coverage for the §6 future-work extensions through the
//! public `oregami` API: per-phase remapping, aggregate synthesis, dynamic
//! spawning, synchrony scheduling, and the circulant fast path.

use oregami::topology::{builders, ProcId, RouteTable};
use oregami::{Oregami, Strategy};

#[test]
fn circulant_fast_path_drives_the_pipeline() {
    // the n-body program is a translation system: the pipeline should note
    // the fast path and still produce the balanced group-theoretic result
    let sys = Oregami::new(builders::hypercube(3));
    let r = sys
        .map_source(
            &oregami::larcs::programs::nbody(),
            &[("n", 16), ("s", 2), ("msgsize", 4)],
        )
        .unwrap();
    assert_eq!(r.report.strategy, Strategy::GroupTheoretic);
    assert!(
        r.report.notes.iter().any(|n| n.contains("circulant fast path")),
        "notes: {:?}",
        r.report.notes
    );
    assert_eq!(r.report.mapping.tasks_per_proc(8), vec![2; 8]);
    // residue clustering pairs i with i+8 — the chordal phase internalises
    let chordal = r.task_graph.phase_by_name("chordal").unwrap().index();
    assert!(r.report.mapping.routes[chordal]
        .iter()
        .all(|path| path.len() == 1));
}

#[test]
fn remapping_beats_fixed_mapping_with_free_state() {
    use oregami::graph::{TaskGraph, TaskId};
    use oregami::mapper::remap;
    use oregami::mapper::routing::{route_all_phases, Matcher};
    let mut tg = TaskGraph::new("conflict");
    tg.add_scalar_nodes("t", 4);
    let a = tg.add_phase("a");
    tg.add_edge(a, TaskId(0), TaskId(1), 10);
    tg.add_edge(a, TaskId(2), TaskId(3), 10);
    let b = tg.add_phase("b");
    tg.add_edge(b, TaskId(1), TaskId(2), 10);
    tg.add_edge(b, TaskId(3), TaskId(0), 10);
    let net = builders::chain(2);
    let table = RouteTable::try_new(&net).expect("connected network");
    let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(1)];
    let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
    let fixed = oregami::Mapping { assignment, routes };
    let free = remap::compare(&tg, &net, &fixed, 2, 0).unwrap();
    assert!(free.remap_wins());
    let heavy = remap::compare(&tg, &net, &fixed, 2, 10_000).unwrap();
    assert!(!heavy.remap_wins());
}

#[test]
fn aggregate_synthesis_end_to_end() {
    use oregami::graph::{TaskGraph, TaskId};
    use oregami::mapper::aggregate;
    use oregami::mapper::routing::{max_contention, route_all_phases, Matcher};
    let n = 16;
    let mut tg = TaskGraph::new("agg");
    tg.add_scalar_nodes("t", n);
    let ph = tg.add_phase("aggregate");
    for i in 1..n {
        tg.add_edge(ph, TaskId::new(i), TaskId(0), 2);
    }
    let net = builders::hypercube(4);
    let table = RouteTable::try_new(&net).expect("connected network");
    let assignment: Vec<ProcId> = (0..n).map(|i| ProcId(i as u32)).collect();
    let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
    let mut mapping = oregami::Mapping { assignment, routes };
    let before = max_contention(&net, &mapping.routes[0]);
    let rewritten =
        aggregate::synthesize_aggregate(&tg, &net, &table, &mut mapping, 0).unwrap();
    let after = max_contention(&net, &mapping.routes[0]);
    assert!(after < before);
    mapping.validate(&rewritten, &net).unwrap();
    // the rewritten phase is a BFS tree of the hypercube rooted at 0 — the
    // binomial tree — so the pipeline maps it dilation-1
    let r = Oregami::new(builders::hypercube(4))
        .map_graph(rewritten)
        .unwrap();
    assert_eq!(r.metrics.links.max_dilation, 1);
}

#[test]
fn dynamic_growth_through_larcs() {
    use oregami::mapper::dynamic::{incremental_map, DynamicComputation};
    let dc = DynamicComputation::from_larcs(
        &oregami::larcs::programs::binomial_dnc(),
        &[],
        "k",
        0..=5,
        "scatter",
    )
    .unwrap();
    assert_eq!(dc.final_graph().num_tasks(), 32);
    let net = builders::hypercube(3);
    let maps = incremental_map(&dc, &net, 4).unwrap();
    // prefix stability across all generations
    for w in maps.windows(2) {
        assert_eq!(&w[1][..w[0].len()], &w[0][..]);
    }
    // final balance
    let mut load = vec![0usize; 8];
    for p in maps.last().unwrap() {
        load[p.index()] += 1;
    }
    assert_eq!(load, vec![4; 8]);
}

#[test]
fn schedule_and_visualization_through_facade() {
    use oregami::metrics::{local_directives, mapping_to_dot, network_to_dot, synchrony_sets};
    let sys = Oregami::new(builders::mesh2d(2, 2));
    let r = sys
        .map_source(
            &oregami::larcs::programs::jacobi(),
            &[("n", 4), ("iters", 5)],
        )
        .unwrap();
    let sets = synchrony_sets(&r.task_graph, sys.network(), &r.report.mapping);
    assert_eq!(sets.len(), 4); // 16 tasks / 4 procs
    let ds = local_directives(&r.task_graph, sys.network(), &r.report.mapping);
    assert_eq!(ds.len(), 4);
    let map_dot = mapping_to_dot(&r.task_graph, sys.network(), &r.report.mapping);
    assert!(map_dot.contains("cluster_p3"));
    let net_dot = network_to_dot(&r.task_graph, sys.network(), &r.report.mapping);
    assert!(net_dot.contains("p0 -- "));
}

#[test]
fn timeline_reconciles_with_completion_time() {
    use oregami::metrics::timeline;
    use oregami::CostModel;
    for (name, src, params) in oregami::larcs::programs::all_programs() {
        let sys = Oregami::new(builders::hypercube(2));
        let r = sys.map_source(&src, &params).unwrap();
        let tl = timeline(
            &r.task_graph,
            sys.network(),
            &r.report.mapping,
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(
            tl.completion_time,
            r.metrics.overall.completion_time.unwrap(),
            "{name}"
        );
        let attributed: u64 = tl.rows.iter().map(|row| row.total_cost).sum();
        assert!(
            attributed >= tl.completion_time,
            "{name}: rows must cover the estimate (equality unless || overlaps)"
        );
        if tl.is_exact {
            assert_eq!(attributed, tl.completion_time, "{name}");
        }
    }
}
