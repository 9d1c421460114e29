//! Property-based validation of the incremental [`MetricsEngine`]: after
//! any interleaving of Reassign / Reroute / Fault edits and undos, the
//! engine's report equals a from-scratch batch analysis of its current
//! mapping and network, rejected edits leave the engine untouched, and
//! undo restores the previous report exactly.

use oregami_graph::task_graph::Cost;
use oregami_graph::{PhaseExpr, PhaseId, TaskGraph, TaskId};
use oregami_mapper::routing::{route_all_phases, Matcher};
use oregami_mapper::Mapping;
use oregami_metrics::{
    report_from_engine, try_analyze_mapping, CostModel, Edit, MetricsEngine,
};
use oregami_topology::{builders, FaultSet, Network, ProcId, RouteTable};
use proptest::prelude::*;

fn network(which: usize) -> Network {
    match which % 4 {
        0 => builders::hypercube(2),
        1 => builders::mesh2d(2, 3),
        2 => builders::ring(5),
        _ => builders::chain(4),
    }
}

/// A random routed workload: 8 tasks, `phases` comm phases plus one exec
/// phase, a phase expression so completion time is exercised, and a
/// random assignment routed shortest-path.
fn random_setup(
    edges: &[(usize, usize, u64)],
    phases: usize,
    which: usize,
    seed: u64,
) -> (TaskGraph, Network, Mapping) {
    let n = 8;
    let mut tg = TaskGraph::new("rand");
    tg.add_scalar_nodes("t", n);
    for k in 0..phases {
        tg.add_phase(format!("p{k}"));
    }
    for (i, &(u, v, w)) in edges.iter().enumerate() {
        if u != v {
            let ph = PhaseId::new(i % phases);
            tg.add_edge(ph, TaskId::new(u % n), TaskId::new(v % n), w);
        }
    }
    let work = tg.add_exec_phase("w", Cost::Uniform(5));
    let mut expr = PhaseExpr::Exec(work);
    for k in (0..phases).rev() {
        expr = PhaseExpr::seq(PhaseExpr::Comm(PhaseId::new(k)), expr);
    }
    tg.phase_expr = Some(expr);
    let net = network(which);
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let assignment: Vec<ProcId> = (0..n)
        .map(|_| ProcId((next() % net.num_procs() as u64) as u32))
        .collect();
    let table = RouteTable::try_new(&net).expect("connected network");
    let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
    (tg, net, Mapping { assignment, routes })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ≥64-edit sessions: the incremental report matches batch analysis
    /// after every single edit, and the undo stack replays backwards to
    /// byte-identical reports.
    #[test]
    fn interleaved_edit_sessions_match_batch_analysis(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..20), 1..16),
        phases in 1usize..3,
        which in 0usize..4,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..16, 0usize..64, 0usize..64), 64..96),
    ) {
        let (tg, net, mapping) = random_setup(&edges, phases, which, seed);
        let model = CostModel::default();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &model).unwrap();
        // history[i] = the report after i successful (not-undone) edits
        let mut history = vec![report_from_engine(&engine)];
        prop_assert_eq!(
            history[0].clone(),
            try_analyze_mapping(&tg, &net, &mapping, &model).unwrap()
        );
        for &(op, a, b) in &ops {
            let before = history.last().unwrap().clone();
            match op {
                // undo: restores the previous report exactly
                14 | 15 => {
                    if engine.undo().is_some() {
                        history.pop();
                        prop_assert_eq!(
                            report_from_engine(&engine),
                            history.last().unwrap().clone()
                        );
                    } else {
                        prop_assert_eq!(history.len(), 1);
                    }
                }
                op => {
                    let edit = match op {
                        0..=7 => Some(Edit::Reassign {
                            task: a % tg.num_tasks(),
                            proc: ProcId((b % engine.network().num_procs()) as u32),
                        }),
                        8..=11 => {
                            let k = a % tg.num_phases();
                            let num_edges = tg.comm_phases[k].edges.len();
                            if num_edges == 0 {
                                None
                            } else {
                                // reroute along the current network's
                                // shortest path between the endpoints;
                                // after a fault the masked network looks
                                // disconnected to a fresh all-pairs build
                                // (dead procs stay as isolated nodes), so
                                // fall back to re-installing the current
                                // route
                                let i = b % num_edges;
                                let e = &tg.comm_phases[k].edges[i];
                                let from = engine.mapping().assignment[e.src.index()];
                                let to = engine.mapping().assignment[e.dst.index()];
                                let path = match RouteTable::try_new(engine.network()) {
                                    Ok(table) => table.first_path(engine.network(), from, to),
                                    Err(_) => engine.mapping().routes[k][i].clone(),
                                };
                                Some(Edit::Reroute { phase: k, edge: i, path })
                            }
                        }
                        _ => Some(Edit::Fault(FaultSet::new().with_proc(ProcId(
                            (a % engine.network().num_procs()) as u32,
                        )))),
                    };
                    if let Some(edit) = edit {
                        match engine.apply(edit) {
                            Ok(delta) => {
                                prop_assert_eq!(delta.before, before_snapshot(&before));
                                history.push(report_from_engine(&engine));
                            }
                            Err(_) => {
                                // rejected edits leave the engine untouched
                                prop_assert_eq!(report_from_engine(&engine), before.clone());
                            }
                        }
                    }
                }
            }
            // the incremental report always equals a from-scratch batch
            // analysis of the engine's current mapping and network
            let batch = try_analyze_mapping(&tg, engine.network(), engine.mapping(), &model)
                .unwrap();
            prop_assert_eq!(report_from_engine(&engine), batch);
        }
    }

    /// A 100-edit reassign-only session, the interactive loop itself: the
    /// engine ends on the mapping `Mapping::reassign` reaches edit by edit,
    /// and its report equals a batch analysis of that mapping.
    #[test]
    fn reassign_only_session_matches_the_replayed_mapping(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..20), 1..16),
        phases in 1usize..3,
        which in 0usize..4,
        seed in any::<u64>(),
        moves in proptest::collection::vec((0usize..8, 0usize..64), 100),
    ) {
        let (tg, net, mapping) = random_setup(&edges, phases, which, seed);
        let model = CostModel::default();
        let table = RouteTable::try_new(&net).unwrap();
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &model).unwrap();
        let mut replayed = mapping.clone();
        for &(task, p) in &moves {
            let proc = ProcId((p % net.num_procs()) as u32);
            engine.apply(Edit::Reassign { task, proc }).unwrap();
            replayed.reassign(&tg, &net, &table, task, proc);
        }
        prop_assert_eq!(engine.mapping(), &replayed);
        prop_assert_eq!(
            report_from_engine(&engine),
            try_analyze_mapping(&tg, &net, &replayed, &model).unwrap()
        );
    }
}

/// `undo()` called immediately after a budget-stopped `apply_budgeted`
/// must revert the last *successful* edit exactly: the refused edit may
/// leave no partial state and no undo record behind.
#[test]
fn undo_immediately_after_budget_stopped_apply_restores_exactly() {
    use oregami_mapper::Budget;
    let edges = [(0, 1, 5), (1, 2, 7), (2, 3, 3), (3, 4, 9), (4, 5, 2), (5, 6, 4)];
    let (tg, net, mapping) = random_setup(&edges, 2, 0, 0xBEEF);
    let model = CostModel::default();
    let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &model).unwrap();
    let initial = report_from_engine(&engine);

    let budget = Budget::unlimited().with_max_steps(512);
    engine
        .apply_budgeted(
            Edit::Reassign {
                task: 0,
                proc: ProcId(1),
            },
            &budget,
        )
        .unwrap();
    let after_first = report_from_engine(&engine);
    let depth = engine.undo_depth();

    // drain the quota: the next apply is refused with the engine intact
    budget.charge(512);
    let err = engine
        .apply_budgeted(
            Edit::Reassign {
                task: 1,
                proc: ProcId(2),
            },
            &budget,
        )
        .unwrap_err();
    assert!(matches!(err, oregami_metrics::EditError::Budget(_)));
    assert_eq!(report_from_engine(&engine), after_first);
    assert_eq!(engine.undo_depth(), depth);

    // undo immediately after the stop reverts the last successful edit to
    // a byte-identical initial report, cross-checked against batch
    assert!(engine.undo().is_some());
    assert_eq!(report_from_engine(&engine), initial);
    let batch = try_analyze_mapping(&tg, engine.network(), engine.mapping(), &model).unwrap();
    assert_eq!(report_from_engine(&engine), batch);
    // the refused edit must not have pushed an undo record
    assert!(engine.undo().is_none());
}

/// The scalar figures a [`oregami_metrics::MetricSnapshot`] carries, read
/// out of a full report, for checking an edit's `delta.before`.
fn before_snapshot(r: &oregami_metrics::MetricsReport) -> oregami_metrics::MetricSnapshot {
    oregami_metrics::MetricSnapshot {
        max_link_volume: r.links.total_link_volume.iter().copied().max().unwrap_or(0),
        avg_dilation_millis: r.links.avg_dilation_millis,
        max_dilation: r.links.max_dilation,
        max_contention: r.links.phases.iter().map(|p| p.max_contention).max().unwrap_or(0),
        total_ipc: r.overall.total_ipc,
        internalized_volume: r.overall.internalized_volume,
        max_exec_time: r.load.exec_time_per_proc.iter().copied().max().unwrap_or(0),
        imbalance_millis: r.load.imbalance_millis,
        completion_time: r.overall.completion_time,
        comm_time: r.overall.comm_time,
    }
}
