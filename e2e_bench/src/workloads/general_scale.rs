//! `general_scale`: prebuilt random task graphs through
//! `Oregami::map_graph` with a warm route cache. No LaRCS, no regular
//! structure: every instance takes the general arm, so the time is
//! MWM-Contract (greedy pre-merge + blossom matching), NN-Embed and
//! MM-Route.

use super::{scalar_cost, Workload};
use crate::harness::trace::{SpanId, Tracer};
use crate::harness::{closed_loop, Checked, Cycle, Digest, Layers, Timed};
use oregami::graph::TaskGraph;
use oregami::larcs::analyze::analyze;
use oregami::mapper::contraction::group_contraction;
use oregami::mapper::routing::route_all_phases;
use oregami::mapper::{
    greedy_premerge, map_task_graph_budgeted_with_table, mwm_contract_budgeted, nn_embed,
};
use oregami::matching::max_weight_matching;
use oregami::metrics::analyze_mapping;
use oregami::topology::{builders, ProcId, RouteTable};
use oregami::{Budget, CostModel, MapperOptions, Network, Oregami, OregamiResult, Strategy};
use oregami_bench::{random_geometric_tasks, random_permutation_traffic};
use std::sync::Arc;
use std::time::Duration;

struct Instance {
    name: &'static str,
    tg: TaskGraph,
    /// Index into `systems`.
    system: usize,
}

/// Sweeps per cycle, each over its own draw of the five random graphs.
/// One draw would make the sweep time a property of the seed (rgg16000,
/// 70 % of the sweep, took 309 to 368 ms across six seeds); a run's median
/// over three draws moves a third as much.
const DRAWS: usize = 3;

pub struct GeneralScale {
    systems: Vec<(Oregami, Arc<RouteTable>)>,
    /// One list of five instances per sweep of the cycle.
    sweeps: Vec<Vec<Instance>>,
    /// What the staged replays counted, summed over `replayed_ops`.
    replay: StageCounts,
    replayed_ops: usize,
}

/// Work counts of the general arm's stages.
#[derive(Default)]
pub struct StageCounts {
    pub group_attempts: usize,
    pub group_successes: usize,
    pub mwm_nodes: usize,
    pub clusters: usize,
    pub route_edges: usize,
}

impl StageCounts {
    pub fn add(&mut self, other: &StageCounts) {
        self.group_attempts += other.group_attempts;
        self.group_successes += other.group_successes;
        self.mwm_nodes += other.mwm_nodes;
        self.clusters += other.clusters;
        self.route_edges += other.route_edges;
    }

    /// The per-op values of the counts, and the self times of the mapper
    /// call and of the `core.map_graph` facade call from the stage times
    /// already in `out`.
    pub fn report(&self, ops: usize, tr: &Tracer, out: &mut Layers) {
        let per_op = |n: usize| n as f64 / ops.max(1) as f64;
        out.set("group.attempts", per_op(self.group_attempts));
        out.set(
            "group.success_share",
            self.group_successes as f64 / self.group_attempts.max(1) as f64,
        );
        out.set("matching.mwm_nodes", per_op(self.mwm_nodes));
        out.set("mapper.contract_clusters", per_op(self.clusters));
        out.set("mapper.route_edges", per_op(self.route_edges));
        let staged = out.sum(&[
            "group.contract_ms",
            "graph.collapse_ms",
            "mapper.contract_ms",
            "graph.quotient_ms",
            "mapper.embed_ms",
            "mapper.route_ms",
        ]);
        out.set("mapper.map_self_ms", out.get("mapper.map_ms") - staged);
        if let Some(facade) = tr.totals_ms().get("core.map_graph") {
            let children = out.sum(&["mapper.map_ms", "metrics.analyze_ms"]);
            out.set("core.facade_self_ms", facade / ops.max(1) as f64 - children);
        }
    }
}

/// Radius giving a random geometric graph on `n` points an average
/// degree of six, the density of the multilevel bench's rgg250k.
fn rgg_radius(n: usize) -> f64 {
    (6.0 / (n as f64 * std::f64::consts::PI)).sqrt()
}

impl Workload for GeneralScale {
    fn setup(seed: u64, smoke: bool) -> GeneralScale {
        let dims = if smoke { [3, 4] } else { [6, 8] };
        let systems = dims
            .iter()
            .map(|&d| {
                let sys = Oregami::new(builders::hypercube(d));
                // warm the instance's route cache: the table is set-up
                // cost here, and corpus_map's to pay per op
                let table = RouteTable::try_new(sys.network()).expect("hypercube is connected");
                sys.map_graph(random_permutation_traffic(1 << d, seed))
                    .expect("warm-up maps");
                (sys, Arc::new(table))
            })
            .collect();
        let sizes: [(&'static str, usize, usize, bool); 5] = if smoke {
            [
                ("rgg200", 200, 0, true),
                ("rgg300", 300, 0, true),
                ("rgg400", 400, 1, true),
                ("perm64", 64, 1, false),
                ("perm128", 128, 1, false),
            ]
        } else {
            [
                ("rgg4000", 4000, 0, true),
                ("rgg8000", 8000, 0, true),
                ("rgg16000", 16000, 1, true),
                ("perm1024", 1024, 1, false),
                ("perm2048", 2048, 1, false),
            ]
        };
        let mut graph_seed = seed.wrapping_mul(31);
        let sweeps = (0..if smoke { 1 } else { DRAWS })
            .map(|_| {
                sizes
                    .iter()
                    .map(|&(name, n, system, geometric)| {
                        graph_seed = graph_seed.wrapping_add(1);
                        let tg = if geometric {
                            random_geometric_tasks(n, rgg_radius(n), graph_seed)
                        } else {
                            random_permutation_traffic(n, graph_seed)
                        };
                        Instance { name, tg, system }
                    })
                    .collect()
            })
            .collect();
        GeneralScale {
            systems,
            sweeps,
            replay: StageCounts::default(),
            replayed_ops: 0,
        }
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        closed_loop(self, seconds, tr, usize::MAX)
    }

    fn layers(&mut self, tr: &mut Tracer, _traced: &Timed, out: &mut Layers) {
        out.set("mapper.strategy.general", self.sweeps[0].len() as f64);
        self.replay.report(self.replayed_ops, tr, out);
    }
}

impl Cycle for GeneralScale {
    const LIMIT_MS: f64 = 4000.0;

    /// One op: one sweep over five instances. A cycle is one sweep per
    /// draw.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let mut cost = 0u64;
        for sweep in &self.sweeps {
            let mut op_time = Duration::ZERO;
            for inst in sweep {
                let (sys, table) = &self.systems[inst.system];
                let tg = inst.tg.clone();
                let (r, dur) = tr.time("core.map_graph", || sys.map_graph(tg));
                let span = tr.last_span();
                op_time += dur;
                let r = r.map_err(|e| format!("{}: {e}", inst.name))?;
                r.report
                    .mapping
                    .validate(&r.task_graph, sys.network())
                    .map_err(|e| format!("{}: invalid mapping: {e}", inst.name))?;
                let c = scalar_cost(&r.task_graph, sys.network(), &r.report.mapping, table)?;
                digest.procs(&r.report.mapping.assignment);
                digest.u64(c);
                cost += c;
                if tr.enabled() {
                    let counts = replay_map_graph(tr, span, sys.network(), table, &r)
                        .map_err(|e| format!("{}: staged replay: {e}", inst.name))?;
                    self.replay.add(&counts);
                }
            }
            op_times.push(op_time);
            if tr.enabled() {
                self.replayed_ops += 1;
            }
        }
        Ok(Checked {
            digest: digest.finish(),
            mapping_cost: cost,
        })
    }
}

/// Replays what `Oregami::map_graph` did for `facade`, one public call
/// per span, and checks that the replay lands on the facade's mapping.
///
/// Level one splits the facade call into `mapper.map_ms` +
/// `metrics.analyze_ms` (the rest is `core.facade_self_ms`). Level two
/// splits the mapper call into the group-contraction attempt, the general
/// arm's stages and MM-Route (the rest is `mapper.map_self_ms`: dispatch,
/// and the canned and systolic arms' own work). `matching.mwm_ms` times
/// the blossom matching inside MWM-Contract on its own and is not part of
/// the sum. Shared with `corpus_map`, which decomposes the same way.
pub fn replay_map_graph(
    tr: &mut Tracer,
    facade: SpanId,
    net: &Network,
    table: &RouteTable,
    r: &OregamiResult,
) -> Result<StageCounts, String> {
    let tg = &r.task_graph;
    let opts = MapperOptions::default();
    let g = tr.replay_under(facade);
    let (mapped, _) = tr.time("mapper.map_ms", || {
        map_task_graph_budgeted_with_table(tg, net, &opts, &Budget::unlimited(), table)
    });
    let map_span = tr.last_span();
    let (report, _) = mapped.map_err(|e| e.to_string())?;
    let (metrics, _) = tr.time("metrics.analyze_ms", || {
        analyze_mapping(tg, net, &report.mapping, &CostModel::default())
    });
    tr.end_replay(g);
    if report.mapping.assignment != r.report.mapping.assignment || metrics != r.metrics {
        return Err("the direct mapper call disagrees with the facade".into());
    }

    let mut counts = StageCounts::default();
    let (n, p) = (tg.num_tasks(), net.num_procs());
    let g = tr.replay_under(map_span);
    // The dispatch reaches the group arm after the canned lookup on a
    // declared family and after systolic synthesis, when every phase is a
    // bijection and the tasks divide evenly among the processors.
    let served_by_group = report.strategy == Strategy::GroupTheoretic;
    let reached = match report.strategy {
        Strategy::GroupTheoretic | Strategy::General => true,
        Strategy::Canned => tg.family.is_none(),
        _ => false,
    };
    if reached && n % p == 0 && analyze(tg).all_bijective {
        let (ok, _) = tr.time("group.contract_ms", || {
            oregami::group::circulant_contract(tg, p).is_some_and(|c| c.regular)
                || group_contraction(tg, p).is_ok()
        });
        counts.group_attempts = 1;
        counts.group_successes = usize::from(ok);
        if ok != served_by_group {
            return Err("the group-contraction replay disagrees with the dispatch".into());
        }
    }
    if report.strategy != Strategy::General {
        let (routes, _) = tr.time("mapper.route_ms", || {
            route_all_phases(tg, &report.mapping.assignment, net, table, opts.matcher)
        });
        tr.end_replay(g);
        if routes != r.report.mapping.routes {
            return Err("the replayed routes disagree with the facade".into());
        }
        counts.route_edges = tg.num_edges();
        return Ok(counts);
    }

    let bound = n.div_ceil(p).max(1);
    let (collapsed, _) = tr.time("graph.collapse_ms", || match &tg.phase_expr {
        Some(expr) => {
            let mult = expr.comm_multiplicities();
            tg.collapse_weighted(|ph| mult.get(ph.index()).copied().unwrap_or(1).max(1))
        }
        None => tg.collapse(),
    });
    let (contracted, _) = tr.time("mapper.contract_ms", || {
        mwm_contract_budgeted(&collapsed, p, bound, &Budget::unlimited())
    });
    let contract_span = tr.last_span();
    let (contraction, _) = contracted.map_err(|e| e.to_string())?;
    let (quotient, _) = tr.time("graph.quotient_ms", || {
        collapsed
            .quotient(&contraction.cluster_of, contraction.num_clusters)
            .0
    });
    let (placement, _) = tr.time("mapper.embed_ms", || nn_embed(&quotient, net, table));
    let placement = placement.map_err(|e| e.to_string())?;
    let assignment: Vec<ProcId> = contraction
        .cluster_of
        .iter()
        .map(|&c| placement[c])
        .collect();
    let (routes, _) = tr.time("mapper.route_ms", || {
        route_all_phases(tg, &assignment, net, table, opts.matcher)
    });
    tr.end_replay(g);
    if assignment != r.report.mapping.assignment || routes != r.report.mapping.routes {
        return Err("the staged pipeline disagrees with the facade".into());
    }
    counts.clusters = contraction.num_clusters;
    counts.route_edges = tg.num_edges();

    // the blossom matching inside MWM-Contract, on the cluster graph the
    // greedy pre-merge leaves (the same two steps mwm_contract runs)
    if n > 1 && bound > 1 {
        let g = tr.replay_under(contract_span);
        let pre = if n > 2 * p {
            greedy_premerge(&collapsed, 2 * p, (bound / 2).max(1))
        } else {
            oregami::mapper::Contraction::identity(n)
        };
        let (q, _) = collapsed.quotient(&pre.cluster_of, pre.num_clusters);
        let sizes = pre.sizes();
        let edges: Vec<(usize, usize, u64)> = q
            .edges()
            .iter()
            .filter(|e| sizes[e.u] + sizes[e.v] <= bound)
            .map(|e| (e.u, e.v, e.w))
            .collect();
        let (matching, _) = tr.time("matching.mwm_ms", || {
            max_weight_matching(pre.num_clusters, &edges)
        });
        std::hint::black_box(matching);
        tr.end_replay(g);
        counts.mwm_nodes = pre.num_clusters;
    }
    Ok(counts)
}
