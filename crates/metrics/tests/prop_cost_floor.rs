//! Property-based validation of [`MetricsEngine::cost_floor_without`]:
//! for any graph × network × mapping × task the floor is a lower bound on
//! the scalar cost after *every* `Reassign` of that task, and computing
//! it leaves the engine indistinguishable from one freshly built over the
//! same mapping — report, per-phase ledgers and undo depth.

use oregami_graph::task_graph::Cost;
use oregami_graph::{PhaseExpr, PhaseId, TaskGraph, TaskId};
use oregami_mapper::routing::{route_all_phases, Matcher};
use oregami_mapper::Mapping;
use oregami_metrics::{report_from_engine, CostModel, Edit, MetricsEngine};
use oregami_topology::{builders, FaultSet, LinkId, Network, ProcId, RouteTable};
use proptest::prelude::*;

const TASKS: usize = 8;

fn network(which: usize) -> Network {
    match which % 4 {
        0 => builders::hypercube(3),
        1 => builders::mesh2d(2, 3),
        2 => builders::ring(5),
        _ => builders::chain(4),
    }
}

/// A random routed workload: 8 tasks, `phases` random comm phases plus a
/// `solo` phase holding the single edge 0→1 (lifting either endpoint
/// internalises that phase fully), two exec phases with per-task costs,
/// and one of four phase-expression shapes (none, a `Seq` chain, `Par` of
/// comm against exec, `Repeat` around a `Par`).
fn random_setup(
    edges: &[(usize, usize, u64)],
    phases: usize,
    shape: usize,
    which: usize,
    seed: u64,
) -> (TaskGraph, Network, Mapping) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut tg = TaskGraph::new("rand");
    tg.add_scalar_nodes("t", TASKS);
    for k in 0..phases {
        tg.add_phase(format!("p{k}"));
    }
    for (i, &(u, v, w)) in edges.iter().enumerate() {
        if u != v {
            tg.add_edge(PhaseId::new(i % phases), TaskId::new(u), TaskId::new(v), w);
        }
    }
    let solo = tg.add_phase("solo");
    tg.add_edge(solo, TaskId::new(0), TaskId::new(1), 1 + next() % 30);
    let heavy = tg.add_exec_phase(
        "heavy",
        Cost::PerTask((0..TASKS).map(|_| next() % 40).collect()),
    );
    let light = tg.add_exec_phase(
        "light",
        Cost::PerTask((0..TASKS).map(|_| next() % 5).collect()),
    );

    let comms = || (0..=phases).map(|k| PhaseExpr::Comm(PhaseId::new(k)));
    tg.phase_expr = match shape % 4 {
        0 => None,
        1 => Some(PhaseExpr::seq_all(
            comms().chain([PhaseExpr::Exec(heavy), PhaseExpr::Exec(light)]),
        )),
        2 => Some(PhaseExpr::seq(
            PhaseExpr::par(PhaseExpr::seq_all(comms()), PhaseExpr::Exec(heavy)),
            PhaseExpr::Exec(light),
        )),
        _ => Some(PhaseExpr::repeat(
            PhaseExpr::seq(
                PhaseExpr::par(PhaseExpr::Comm(solo), PhaseExpr::Exec(light)),
                PhaseExpr::seq_all(comms().take(phases).chain([PhaseExpr::Exec(heavy)])),
            ),
            1 + next() % 7,
        )),
    };

    let net = network(which);
    let assignment: Vec<ProcId> = (0..TASKS)
        .map(|_| ProcId((next() % net.num_procs() as u64) as u32))
        .collect();
    let table = RouteTable::try_new(&net).expect("connected network");
    let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
    (tg, net, Mapping { assignment, routes })
}

/// Everything observable about `engine` equals a fresh engine built over
/// a copy of its current network and mapping.
fn assert_equals_fresh_build(engine: &MetricsEngine<'_>, tg: &TaskGraph, model: &CostModel) {
    let net = engine.network().clone();
    let mapping = engine.mapping().clone();
    let fresh = MetricsEngine::try_new(tg, &net, &mapping, model).unwrap();
    assert_eq!(engine.snapshot(), fresh.snapshot());
    assert_eq!(engine.scalar_cost(), fresh.scalar_cost());
    assert_eq!(report_from_engine(engine), report_from_engine(&fresh));
    for k in 0..engine.num_phases() {
        assert_eq!(engine.phase_dilations(k), fresh.phase_dilations(k));
        assert_eq!(engine.phase_link_messages(k), fresh.phase_link_messages(k));
        assert_eq!(engine.phase_link_volume(k), fresh.phase_link_volume(k));
        assert_eq!(engine.phase_max_dilation(k), fresh.phase_max_dilation(k));
        assert_eq!(
            engine.phase_max_contention(k),
            fresh.phase_max_contention(k)
        );
        assert_eq!(engine.comm_slot_cost(k), fresh.comm_slot_cost(k));
    }
    for x in 0..tg.exec_phases.len() {
        assert_eq!(engine.exec_slot_cost(x), fresh.exec_slot_cost(x));
    }
    assert_eq!(engine.total_link_volume(), fresh.total_link_volume());
    assert_eq!(engine.tasks_per_proc(), fresh.tasks_per_proc());
    assert_eq!(engine.exec_time_per_proc(), fresh.exec_time_per_proc());
}

/// The floor of every task bounds every reassign of it from below, and
/// asking for it changes nothing.
fn check_all_floors(engine: &mut MetricsEngine<'_>, tg: &TaskGraph, model: &CostModel) {
    let depth = engine.undo_depth();
    for t in 0..TASKS {
        let floor = engine.cost_floor_without(t);
        assert_eq!(engine.undo_depth(), depth);
        assert_equals_fresh_build(engine, tg, model);
        assert!(
            floor <= engine.scalar_cost(),
            "task {t}: floor above the incumbent"
        );
        for p in 0..engine.network().num_procs() {
            let proc = ProcId(p as u32);
            if engine.apply(Edit::Reassign { task: t, proc }).is_ok() {
                let cost = engine.scalar_cost();
                engine.undo();
                assert!(
                    floor <= cost,
                    "task {t} -> proc {p}: floor {floor} above the probed cost {cost}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn floor_bounds_every_reassign_and_leaves_no_trace(
        edges in proptest::collection::vec((0usize..TASKS, 0usize..TASKS, 1u64..20), 1..16),
        phases in 1usize..3,
        shape in 0usize..4,
        which in 0usize..4,
        seed in any::<u64>(),
        model in (1u64..4, 0u64..4, 0u64..6),
        fault_link in 0u32..10,
        walk in proptest::collection::vec((0usize..TASKS, 0usize..8), 0..6),
    ) {
        let (tg, net, mapping) = random_setup(&edges, phases, shape, which, seed);
        let model = CostModel { byte_time: model.0, hop_latency: model.1, startup: model.2 };
        let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &model).unwrap();
        prop_assert_eq!(engine.undo_depth(), 0);
        check_all_floors(&mut engine, &tg, &model);
        prop_assert_eq!(engine.undo_depth(), 0);
        prop_assert_eq!(engine.mapping(), &mapping);

        // the same on a degraded network (link ids re-identified) and on
        // ledgers that kept edits; a partitioning fault or a link the
        // network does not have is simply refused
        let _ = engine.apply(Edit::Fault(FaultSet::new().with_link(LinkId(fault_link))));
        for &(t, p) in &walk {
            let proc = ProcId((p % engine.network().num_procs()) as u32);
            if engine.apply(Edit::Reassign { task: t, proc }).is_ok() {
                check_all_floors(&mut engine, &tg, &model);
            }
        }
    }
}

/// The floor drops a phase to zero when lifting the task leaves nothing
/// of it crossing a link, and charges the task's execution time to
/// nobody.
#[test]
fn floor_internalises_a_phase_and_lifts_exec_time() {
    let mut tg = TaskGraph::new("pair");
    tg.add_scalar_nodes("t", 3);
    let wide = tg.add_phase("wide");
    tg.add_edge(wide, TaskId::new(0), TaskId::new(1), 9);
    let narrow = tg.add_phase("narrow");
    tg.add_edge(narrow, TaskId::new(1), TaskId::new(2), 2);
    let work = tg.add_exec_phase("work", Cost::PerTask(vec![7, 3, 3]));
    tg.phase_expr = Some(PhaseExpr::seq_all([
        PhaseExpr::Comm(wide),
        PhaseExpr::Comm(narrow),
        PhaseExpr::Exec(work),
    ]));
    let net = builders::chain(3);
    let table = RouteTable::try_new(&net).unwrap();
    let assignment = vec![ProcId(0), ProcId(1), ProcId(2)];
    let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
    let mapping = Mapping { assignment, routes };
    let model = CostModel::default();
    let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &model).unwrap();
    // wide 9+1, narrow 2+1, work max(7,3,3)
    assert_eq!(engine.scalar_cost(), 10 + 3 + 7);
    // without task 0: `wide` is gone entirely and the exec slot falls to 3
    assert_eq!(engine.cost_floor_without(0), 3 + 3);
    // without task 2: only `narrow` goes; task 0 still holds the exec slot
    assert_eq!(engine.cost_floor_without(2), 10 + 7);
    assert_eq!(engine.scalar_cost(), 20);
    assert_equals_fresh_build(&engine, &tg, &model);

    // a route-less mapping (load-only analysis) ledgers no routes: only
    // the exec slot is there to lift
    let bare = Mapping {
        assignment: mapping.assignment.clone(),
        routes: Vec::new(),
    };
    let mut engine = MetricsEngine::try_new(&tg, &net, &bare, &model).unwrap();
    assert_eq!(engine.scalar_cost(), 7);
    assert_eq!(engine.cost_floor_without(0), 3);
    assert_equals_fresh_build(&engine, &tg, &model);
}
