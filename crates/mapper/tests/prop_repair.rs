//! Property-based validation of fault repair: on any connected network,
//! killing a single link that leaves the network connected must always be
//! locally repairable, and the repaired mapping must be valid on the
//! degraded network without ever touching the dead link. The pruned
//! probe-improve pass and the O(deg) placement are checked against a
//! test-local copy of the exhaustive repair they replaced.

use oregami_graph::task_graph::Cost;
use oregami_graph::{Family, PhaseExpr, PhaseId, TaskGraph};
use oregami_mapper::pipeline::{map_task_graph, MapperOptions};
use oregami_mapper::repair::{
    repair_mapping, repair_mapping_cached, RepairOptions, RepairReport,
};
use oregami_mapper::{Budget, Completion, CostModel, Edit, Mapping, MetricsEngine};
use oregami_topology::{
    DegradedNetwork, DomainMap, FaultSet, LinkId, MachineModel, Network, ProcId, RouteTable,
    RouteTableCache, TopologyKind,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random connected network on `n` processors: a random spanning tree
/// plus `extra` random non-duplicate links.
fn random_network(n: usize, extra: usize, seed: u64) -> Network {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut links: Vec<(u32, u32)> = Vec::new();
    let mut have = std::collections::HashSet::new();
    for v in 1..n as u64 {
        let u = next() % v;
        links.push((u as u32, v as u32));
        have.insert((u.min(v), u.max(v)));
    }
    for _ in 0..extra {
        let a = next() % n as u64;
        let b = next() % n as u64;
        if a != b && have.insert((a.min(b), a.max(b))) {
            links.push((a.min(b) as u32, a.max(b) as u32));
        }
    }
    Network::from_links("random", TopologyKind::Custom, n, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-link fault on a still-connected network: repair always
    /// succeeds, validates on the degraded network, and no surviving
    /// route crosses the failed link.
    #[test]
    fn single_link_fault_is_always_repairable(
        n in 3usize..12,
        extra in 0usize..10,
        seed in any::<u64>(),
        link_pick in any::<u64>(),
        tasks in 3usize..16,
    ) {
        let net = random_network(n, extra, seed);
        let dead = LinkId((link_pick % net.num_links() as u64) as u32);
        let degraded = net.degrade(&FaultSet::new().with_link(dead)).unwrap();
        // only the still-connected case is in scope for local repair
        prop_assume!(degraded.route_table().is_ok());

        let tg = Family::Ring(tasks).build();
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        let (repaired, rep) = repair_mapping(
            &tg,
            &net,
            &degraded,
            &report.mapping,
            &RepairOptions::default(),
        )
        .unwrap();

        repaired.validate(&tg, degraded.network()).unwrap();
        // a pure link fault displaces no tasks
        prop_assert_eq!(rep.tasks_migrated, 0);
        prop_assert_eq!(&repaired.assignment, &report.mapping.assignment);
        // no route may cross the failed link in either direction
        let (u, v) = net.link_endpoints(dead);
        for phase in &repaired.routes {
            for path in phase {
                for w in path.windows(2) {
                    prop_assert!(
                        !((w[0] == u && w[1] == v) || (w[0] == v && w[1] == u)),
                        "repaired route {:?} crosses failed link {:?}",
                        path,
                        dead
                    );
                }
            }
        }
    }

    /// Single-processor fault on a still-connected network: the repaired
    /// mapping is valid, assigns nothing to the dead processor, and no
    /// route passes through it.
    #[test]
    fn single_proc_fault_avoids_the_dead_processor(
        n in 3usize..10,
        extra in 1usize..10,
        seed in any::<u64>(),
        proc_pick in any::<u64>(),
        tasks in 3usize..14,
    ) {
        let net = random_network(n, extra, seed);
        let victim = ProcId((proc_pick % n as u64) as u32);
        let degraded = net.degrade(&FaultSet::new().with_proc(victim)).unwrap();
        prop_assume!(degraded.route_table().is_ok());

        let tg = Family::Ring(tasks).build();
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        let result = repair_mapping(
            &tg,
            &net,
            &degraded,
            &report.mapping,
            &RepairOptions::default(),
        );
        // capacity can genuinely run out when the default per-proc bound
        // is tight; anything else must succeed
        let (repaired, _rep) = match result {
            Ok(ok) => ok,
            Err(oregami_mapper::repair::RepairError::NoCapacity { .. }) => return,
            Err(e) => panic!("repair failed: {e}"),
        };

        repaired.validate(&tg, degraded.network()).unwrap();
        for &p in &repaired.assignment {
            prop_assert_ne!(p, victim);
        }
        for phase in &repaired.routes {
            for path in phase {
                prop_assert!(
                    !path.contains(&victim),
                    "route {:?} visits dead processor {:?}",
                    path,
                    victim
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Oracle: the exhaustive repair the pruned one must be equivalent to
// ---------------------------------------------------------------------

/// (mean hops per routed edge, max per-link message count).
fn route_stats(net: &Network, routes: &[Vec<Vec<ProcId>>]) -> (f64, u64) {
    let mut edges = 0usize;
    let mut hops = 0usize;
    let mut usage = vec![0u64; net.num_links()];
    for path in routes.iter().flatten() {
        edges += 1;
        hops += path.len().saturating_sub(1);
        for w in path.windows(2) {
            if let Some(l) = net.link_between(w[0], w[1]) {
                usage[l.index()] += 1;
            }
        }
    }
    let avg = if edges == 0 {
        0.0
    } else {
        hops as f64 / edges as f64
    };
    (avg, usage.into_iter().max().unwrap_or(0))
}

/// Greedy home by rescanning every edge of the graph per candidate — the
/// O(E) scorer `best_new_home` replaced.
#[allow(clippy::too_many_arguments)]
fn oracle_best_home(
    tg: &TaskGraph,
    degraded: &DegradedNetwork,
    table: &RouteTable,
    assignment: &[ProcId],
    load: &[usize],
    bound: usize,
    t: usize,
    prefer: Option<(&DomainMap, u32)>,
) -> Option<ProcId> {
    let scan = |intra_only: bool| {
        let mut best: Option<(u64, usize, ProcId)> = None;
        for p in degraded.alive_procs() {
            if load[p.index()] >= bound {
                continue;
            }
            if intra_only && prefer.is_some_and(|(d, home)| d.domain_of(p) != home) {
                continue;
            }
            let mut affinity = 0u64;
            for (_, e) in tg.all_edges() {
                let other = if e.src.index() == t {
                    e.dst.index()
                } else if e.dst.index() == t {
                    e.src.index()
                } else {
                    continue;
                };
                let q = assignment[other];
                if other != t && degraded.is_alive(q) {
                    affinity += e.volume * u64::from(table.dist(p, q));
                }
            }
            let key = (affinity, load[p.index()], p);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, p)| p)
    };
    prefer.and_then(|_| scan(true)).or_else(|| scan(false))
}

fn oracle_least_loaded(
    degraded: &DegradedNetwork,
    load: &[usize],
    bound: usize,
    prefer: Option<(&DomainMap, u32)>,
) -> Option<ProcId> {
    let pick = |intra_only: bool| {
        degraded
            .alive_procs()
            .filter(|p| load[p.index()] < bound)
            .filter(|p| !intra_only || prefer.is_some_and(|(d, home)| d.domain_of(*p) == home))
            .min_by_key(|p| (load[p.index()], *p))
    };
    prefer.and_then(|_| pick(true)).or_else(|| pick(false))
}

/// The local repair ladder as it stood before pruning: O(E) greedy
/// placement, re-route, then a probe-improve pass that tries every
/// surviving processor for every migrated task through the engine's
/// public `apply`/`undo`/`scalar_cost`. Returns the repaired mapping, its
/// report and the number of probes run, or `None` where the real repair
/// escalates (greedy placement ran out of room).
fn oracle_repair(
    tg: &TaskGraph,
    net: &Network,
    degraded: &DegradedNetwork,
    mapping: &Mapping,
    opts: &RepairOptions,
    budget: &Budget,
) -> Option<(Mapping, RepairReport, usize)> {
    let healthy_table = RouteTable::try_new(net).unwrap();
    let degraded_table = Arc::new(degraded.route_table().unwrap());
    let n = tg.num_tasks();
    let bound = opts
        .load_bound
        .unwrap_or_else(|| n.div_ceil(degraded.num_alive()).max(1));
    let (avg_dilation_before, max_contention_before) = route_stats(net, &mapping.routes);
    let mut notes = Vec::new();
    let domains = opts.domains.as_deref();

    let mut assignment = mapping.assignment.clone();
    let displaced: Vec<usize> = (0..n)
        .filter(|&t| !degraded.is_alive(assignment[t]))
        .collect();
    let mut load = vec![0usize; net.num_procs()];
    for (t, p) in assignment.iter().enumerate() {
        if !displaced.contains(&t) {
            load[p.index()] += 1;
        }
    }
    let mut migrated = Vec::new();
    let mut completion = Completion::Optimal;
    for &t in &displaced {
        if completion == Completion::Optimal {
            if let Some(c) = budget.tick() {
                completion = c;
                notes.push(
                    "repair budget exhausted: remaining displaced tasks placed by load only".into(),
                );
            }
        }
        let prefer = domains.map(|d| (d, d.domain_of(mapping.assignment[t])));
        let home = if completion == Completion::Optimal {
            oracle_best_home(
                tg,
                degraded,
                &degraded_table,
                &assignment,
                &load,
                bound,
                t,
                prefer,
            )
        } else {
            oracle_least_loaded(degraded, &load, bound, prefer)
        };
        let p = home?;
        migrated.push(t);
        assignment[t] = p;
        load[p.index()] += 1;
    }
    if !migrated.is_empty() {
        notes.push(format!(
            "migrated {} tasks off {} dead processors",
            migrated.len(),
            degraded.failed_procs().len()
        ));
    }

    let mut routes = mapping.routes.clone();
    for (k, phase) in tg.comm_phases.iter().enumerate() {
        for (i, e) in phase.edges.iter().enumerate() {
            let (s, d) = (e.src.index(), e.dst.index());
            let endpoint_moved =
                assignment[s] != mapping.assignment[s] || assignment[d] != mapping.assignment[d];
            let path = &routes[k][i];
            let broken = path.iter().any(|&p| !degraded.is_alive(p))
                || path
                    .windows(2)
                    .any(|w| degraded.network().link_between(w[0], w[1]).is_none());
            if endpoint_moved || broken {
                routes[k][i] =
                    degraded_table.first_path(degraded.network(), assignment[s], assignment[d]);
            }
        }
    }
    let mut repaired = Mapping { assignment, routes };
    repaired.validate(tg, degraded.network()).unwrap();

    let mut probes = 0usize;
    if !migrated.is_empty() && completion == Completion::Optimal {
        let mut improved = 0usize;
        let mut engine = MetricsEngine::try_new_with_table(
            tg,
            degraded.network(),
            &repaired,
            &CostModel::default(),
            Arc::clone(&degraded_table),
        )
        .unwrap();
        let mut cur_cost = engine.scalar_cost();
        for &t in &migrated {
            if let Some(c) = budget.tick() {
                completion = c;
                notes.push(
                    "improve budget exhausted: remaining migrated tasks keep greedy homes".into(),
                );
                break;
            }
            let cur = engine.mapping().assignment[t];
            let mut best: Option<(u64, ProcId)> = None;
            for p in degraded.alive_procs() {
                if p == cur || load[p.index()] >= bound {
                    continue;
                }
                if let Some(d) = domains {
                    let home = d.domain_of(mapping.assignment[t]);
                    if d.domain_of(cur) == home && d.domain_of(p) != home {
                        continue;
                    }
                }
                if engine.apply(Edit::Reassign { task: t, proc: p }).is_ok() {
                    probes += 1;
                    let cost = engine.scalar_cost();
                    engine.undo();
                    if cost < cur_cost && best.is_none_or(|b| (cost, p) < b) {
                        best = Some((cost, p));
                    }
                }
            }
            if let Some((cost, p)) = best {
                engine.apply(Edit::Reassign { task: t, proc: p }).unwrap();
                load[cur.index()] -= 1;
                load[p.index()] += 1;
                cur_cost = cost;
                improved += 1;
            }
        }
        let refined = engine.into_mapping();
        repaired = refined;
        if improved > 0 {
            notes.push(format!(
                "probe-improve moved {improved} migrated task(s) to metric-cheaper homes"
            ));
        }
    }

    let changed = |t: &usize| repaired.assignment[*t] != mapping.assignment[*t];
    let tasks_migrated = (0..n).filter(changed).count();
    let migration_cost = (0..n)
        .map(|t| {
            u64::from(healthy_table.dist(mapping.assignment[t], repaired.assignment[t]))
                * opts.state_volume
        })
        .sum();
    let edges_rerouted = repaired
        .routes
        .iter()
        .flatten()
        .zip(mapping.routes.iter().flatten())
        .filter(|(a, b)| a != b)
        .count();
    let (mut intra, mut cross) = (0, 0);
    if let Some(d) = domains {
        for t in (0..n).filter(changed) {
            if d.domain_of(mapping.assignment[t]) == d.domain_of(repaired.assignment[t]) {
                intra += 1;
            } else {
                cross += 1;
            }
        }
    }
    if intra + cross > 0 {
        notes.push(format!(
            "blast radius: {intra} migration(s) stayed inside the \
             failing domain, {cross} crossed domains"
        ));
    }
    let (avg_dilation_after, max_contention_after) =
        route_stats(degraded.network(), &repaired.routes);
    let report = RepairReport {
        edges_rerouted,
        tasks_migrated,
        migrations_intra_domain: intra,
        migrations_cross_domain: cross,
        migration_cost,
        escalated: false,
        avg_dilation_before,
        avg_dilation_after,
        max_contention_before,
        max_contention_after,
        improve_probes: 0,
        completion,
        notes,
    };
    Some((repaired, report, probes))
}

/// A task graph whose scalar cost has something to prune against: the
/// family's comm phase, a per-task exec phase, and (by `shape`) no phase
/// expression, a `Seq`, or a `Repeat` around a `Par`.
fn workload(family: usize, tasks: usize, shape: usize, seed: u64) -> TaskGraph {
    let mut tg = match family % 3 {
        0 => Family::Ring(tasks).build(),
        1 => Family::Mesh2D(2, tasks.div_ceil(2)).build(),
        _ => Family::ChordalRing(tasks, tasks.div_ceil(2)).build(),
    };
    let mut s = seed | 1;
    let costs = (0..tg.num_tasks())
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 12
        })
        .collect();
    let work = tg.add_exec_phase("work", Cost::PerTask(costs));
    let comms = (0..tg.num_phases()).map(|k| PhaseExpr::Comm(PhaseId::new(k)));
    tg.phase_expr = match shape % 3 {
        0 => None,
        1 => Some(PhaseExpr::seq_all(comms.chain([PhaseExpr::Exec(work)]))),
        _ => Some(PhaseExpr::repeat(
            PhaseExpr::par(PhaseExpr::seq_all(comms), PhaseExpr::Exec(work)),
            3,
        )),
    };
    tg
}

/// Real against oracle for one scenario and one budget; returns the
/// (pruned, exhaustive) probe counts when the repair stayed local.
fn assert_matches_oracle(
    tg: &TaskGraph,
    net: &Network,
    degraded: &DegradedNetwork,
    mapping: &Mapping,
    opts: &RepairOptions,
    max_steps: Option<u64>,
) -> Option<(usize, usize)> {
    let budget = || match max_steps {
        Some(q) => Budget::unlimited().with_max_steps(q),
        None => Budget::unlimited(),
    };
    let cache = RouteTableCache::new(4);
    let real = repair_mapping_cached(tg, net, degraded, mapping, opts, &budget(), &cache);
    let Some((want_mapping, mut want_report, exhaustive)) =
        oracle_repair(tg, net, degraded, mapping, opts, &budget())
    else {
        // greedy placement ran out of room: the real repair escalates
        // (or fails to), and never reaches the improve pass
        if let Ok((_, report)) = real {
            assert!(report.escalated, "{report:?}");
            assert_eq!(report.improve_probes, 0);
        }
        return None;
    };
    let (got_mapping, got_report) = real.unwrap();
    assert!(got_report.improve_probes <= exhaustive);
    want_report.improve_probes = got_report.improve_probes;
    assert_eq!(got_mapping, want_mapping, "quota {max_steps:?}");
    assert_eq!(got_report, want_report, "quota {max_steps:?}");
    Some((got_report.improve_probes, exhaustive))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat networks, random processor + link fault sets: the pruned
    /// repair returns the exhaustive repair's mapping and report under an
    /// unlimited budget and under every step quota 0..40.
    #[test]
    fn pruned_repair_equals_exhaustive_repair(
        n in 4usize..12,
        extra in 2usize..12,
        seed in any::<u64>(),
        family in 0usize..3,
        shape in 0usize..3,
        tasks in 4usize..24,
        dead_procs in proptest::collection::vec(any::<u64>(), 1..4),
        dead_links in proptest::collection::vec(any::<u64>(), 0..3),
        slack in 0usize..2,
    ) {
        let net = random_network(n, extra, seed);
        let mut faults = FaultSet::new();
        for pick in &dead_procs {
            faults.fail_proc(ProcId((pick % n as u64) as u32));
        }
        for pick in &dead_links {
            faults.fail_link(LinkId((pick % net.num_links() as u64) as u32));
        }
        let degraded = net.degrade(&faults).unwrap();
        prop_assume!(degraded.num_alive() > 0 && degraded.route_table().is_ok());

        let tg = workload(family, tasks, shape, seed);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        let tight = tg.num_tasks().div_ceil(degraded.num_alive()).max(1);
        let opts = RepairOptions {
            load_bound: Some(tight + slack),
            state_volume: 3,
            ..RepairOptions::default()
        };
        assert_matches_oracle(&tg, &net, &degraded, &report.mapping, &opts, None);
        for quota in 0..40 {
            assert_matches_oracle(&tg, &net, &degraded, &report.mapping, &opts, Some(quota));
        }
    }

    /// Board machines with their `DomainMap`: scattered processor losses
    /// and whole-board losses, same equivalence.
    #[test]
    fn pruned_repair_equals_exhaustive_repair_with_domains(
        spec in 0usize..3,
        seed in any::<u64>(),
        family in 0usize..3,
        shape in 0usize..3,
        fill in 1usize..3,
        board in any::<u32>(),
        dead_procs in proptest::collection::vec(any::<u64>(), 0..4),
        slack in 0usize..2,
    ) {
        let spec = ["mesh-boards:1x2x2x2", "mesh-boards:2x2x2x2", "mesh-boards:2x2x2x3"][spec];
        let lowered = MachineModel::parse(spec).unwrap().lower();
        let net = lowered.net.clone();
        let procs = net.num_procs();
        // no scattered losses: lose a whole board instead
        let mut faults = if dead_procs.is_empty() {
            let boards = lowered.domains.num_domains() as u32;
            lowered.domains.board_fault_set(&net, board % boards).unwrap()
        } else {
            FaultSet::new()
        };
        for pick in &dead_procs {
            faults.fail_proc(ProcId((pick % procs as u64) as u32));
        }
        let degraded = net.degrade(&faults).unwrap();
        prop_assume!(degraded.route_table().is_ok());

        let tg = workload(family, procs * fill, shape, seed);
        let report = map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        let tight = tg.num_tasks().div_ceil(degraded.num_alive()).max(1);
        let opts = RepairOptions {
            load_bound: Some(tight + slack),
            domains: Some(lowered.domains.clone()),
            ..RepairOptions::default()
        };
        assert_matches_oracle(&tg, &net, &degraded, &report.mapping, &opts, None);
        for quota in 0..40 {
            assert_matches_oracle(&tg, &net, &degraded, &report.mapping, &opts, Some(quota));
        }
    }
}

/// The bound actually bites on the machine the benchmark's smoke run
/// uses: a Jacobi-shaped sweep on `mesh-boards:2x2x4x4` losing one board
/// keeps the exhaustive repair's result with a fraction of its probes.
#[test]
fn board_loss_prunes_probes_and_keeps_the_exhaustive_result() {
    let lowered = MachineModel::parse("mesh-boards:2x2x4x4").unwrap().lower();
    let net = lowered.net.clone();
    let tg = workload(1, 128, 1, 7);
    let opts = MapperOptions {
        load_bound: Some(2),
        ..MapperOptions::default()
    };
    let mapping = map_task_graph(&tg, &net, &opts).unwrap().mapping;
    let faults = lowered.domains.board_fault_set(&net, 2).unwrap();
    let degraded = net.degrade(&faults).unwrap();
    let opts = RepairOptions {
        domains: Some(lowered.domains.clone()),
        ..RepairOptions::default()
    };
    let (pruned, exhaustive) =
        assert_matches_oracle(&tg, &net, &degraded, &mapping, &opts, None).unwrap();
    assert!(exhaustive > 0);
    assert!(
        pruned < exhaustive / 4,
        "{pruned} of {exhaustive} probes survived pruning"
    );
}

/// Edge volumes and state volumes near `u64::MAX` used to overflow the
/// affinity and migration-cost sums (panic in debug, wrapped placement
/// keys in release); every volume sum saturates now.
#[test]
fn huge_volumes_saturate_instead_of_overflowing() {
    let mut tg = Family::Ring(8).build();
    for phase in &mut tg.comm_phases {
        for e in &mut phase.edges {
            e.volume = u64::MAX / 2;
        }
    }
    let net = oregami_topology::builders::hypercube(3);
    let mapping = map_task_graph(&tg, &net, &MapperOptions::default())
        .unwrap()
        .mapping;
    let degraded = net
        .degrade(&FaultSet::new().with_proc(ProcId(5)).with_proc(ProcId(6)))
        .unwrap();
    let opts = RepairOptions {
        load_bound: Some(2),
        state_volume: u64::MAX,
        ..RepairOptions::default()
    };
    let (repaired, report) = repair_mapping(&tg, &net, &degraded, &mapping, &opts).unwrap();
    repaired.validate(&tg, degraded.network()).unwrap();
    assert!(report.tasks_migrated >= 2, "{report:?}");
    assert_eq!(report.migration_cost, u64::MAX, "{report:?}");
}
