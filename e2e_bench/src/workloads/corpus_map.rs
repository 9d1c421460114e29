//! `corpus_map`: the paper's programs through the path a CLI run pays.
//! Every instance gets a fresh `Oregami` — cold `larcs::Db`, cold route
//! cache — then `map_source` and the rendered METRICS report.

use super::general_scale::{replay_map_graph, StageCounts};
use super::{scalar_cost, Workload};
use crate::harness::trace::Tracer;
use crate::harness::{closed_loop, Checked, Cycle, Digest, Layers, Rng, Timed};
use oregami::larcs::programs::all_programs;
use oregami::topology::{builders, RouteTable};
use oregami::{Network, Oregami, Strategy};
use std::sync::Arc;
use std::time::Duration;

struct Instance {
    label: String,
    source: String,
    params: Vec<(&'static str, i64)>,
    /// Index into `nets`.
    net: usize,
}

pub struct CorpusMap {
    /// The eight target machines, each with the route table the checks
    /// (not the timed calls) score mappings against.
    nets: Vec<(Network, Arc<RouteTable>)>,
    instances: Vec<Instance>,
    counts: Counts,
}

/// What the traced replays counted, summed over `ops` sweeps.
#[derive(Default)]
struct Counts {
    ops: usize,
    tasks: usize,
    edges: usize,
    strategies: [usize; 4],
    stages: StageCounts,
}

/// The ten parametric programs at sizes that fill the larger machines.
fn scaled(name: &str) -> Option<Vec<(&'static str, i64)>> {
    Some(match name {
        "nbody" => vec![("n", 63), ("s", 3), ("msgsize", 8)],
        "jacobi" | "sor" => vec![("n", 32), ("iters", 10)],
        "sormulticolor" => vec![("n", 32), ("iters", 2)],
        "binomialdnc" => vec![("k", 9)],
        "fft" => vec![("k", 7)],
        "matmul" => vec![("n", 16)],
        "pipeline" => vec![("n", 256), ("rounds", 5)],
        "wavefront" => vec![("n", 8)],
        "annealing" => vec![("n", 128), ("sweeps", 4)],
        _ => return None,
    })
}

impl Workload for CorpusMap {
    fn setup(seed: u64, smoke: bool) -> CorpusMap {
        let nets: Vec<(Network, Arc<RouteTable>)> = [
            builders::hypercube(3),
            builders::hypercube(4),
            builders::mesh2d(4, 4),
            builders::torus2d(4, 4),
            builders::ring(8),
            builders::hypercube(6),
            builders::mesh2d(8, 8),
            builders::torus2d(8, 8),
        ]
        .into_iter()
        .map(|net| {
            let table = RouteTable::try_new(&net).expect("builder networks are connected");
            (net, Arc::new(table))
        })
        .collect();
        let (small, large) = (0..5, 5..8);
        let mut instances = Vec::new();
        for (name, source, params) in all_programs() {
            for net in small.clone() {
                instances.push(Instance {
                    label: format!("{name}@{}", nets[net].0.name),
                    source: source.clone(),
                    params: params.clone(),
                    net,
                });
            }
            if let (Some(params), false) = (scaled(name), smoke) {
                for net in large.clone() {
                    instances.push(Instance {
                        label: format!("{name}*@{}", nets[net].0.name),
                        source: source.clone(),
                        params: params.clone(),
                        net,
                    });
                }
            }
        }
        // The programs are the paper's and do not vary; the seed sets the
        // order the small ones arrive in. The scaled ones come first, in a
        // fixed order: they set the peak heap, and shuffled it came out at
        // 8.8 or at 10.2 MB.
        instances.sort_by_key(|inst| !large.contains(&inst.net));
        let scaled = instances.partition_point(|inst| large.contains(&inst.net));
        Rng::new(seed).shuffle(&mut instances[scaled..]);
        CorpusMap {
            nets,
            instances,
            counts: Counts::default(),
        }
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        closed_loop(self, seconds, tr, usize::MAX)
    }

    fn layers(&mut self, tr: &mut Tracer, _traced: &Timed, out: &mut Layers) {
        let c = &self.counts;
        let ops = c.ops.max(1) as f64;
        out.set("larcs.tasks", c.tasks as f64 / ops);
        out.set("larcs.edges", c.edges as f64 / ops);
        for (name, n) in [
            "mapper.strategy.canned",
            "mapper.strategy.group",
            "mapper.strategy.systolic",
            "mapper.strategy.general",
        ]
        .into_iter()
        .zip(c.strategies)
        {
            out.set(name, n as f64 / ops);
        }
        c.stages.report(c.ops, tr, out);
        let facade = tr.totals_ms().get("core.cli_path").copied().unwrap_or(0.0) / ops;
        let children = out.sum(&[
            "larcs.compile_cold_ms",
            "topology.route_table_ms",
            "mapper.map_ms",
            "metrics.analyze_ms",
            "metrics.render_ms",
        ]);
        out.set("core.facade_self_ms", facade - children);
    }
}

impl Cycle for CorpusMap {
    const LIMIT_MS: f64 = 2000.0;

    /// One op: one sweep over every instance.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let (mut cost, mut op_time) = (0u64, Duration::ZERO);
        for inst in &self.instances {
            let (net, table) = &self.nets[inst.net];
            let fresh = net.clone();
            let (out, dur) = tr.time("core.cli_path", || {
                let sys = Oregami::new(fresh);
                let result = sys.map_source(&inst.source, &inst.params);
                let rendered = result.as_ref().map(|r| r.metrics.render()).ok();
                (sys, result, rendered)
            });
            let facade = tr.last_span();
            op_time += dur;
            let (sys, result, rendered) = out;
            let r = result.map_err(|e| format!("{}: {e}", inst.label))?;
            r.report
                .mapping
                .validate(&r.task_graph, sys.network())
                .map_err(|e| format!("{}: invalid mapping: {e}", inst.label))?;
            if !rendered.is_some_and(|text| text.contains("METRICS")) {
                return Err(format!(
                    "{}: the rendered report has no METRICS block",
                    inst.label
                ));
            }
            let c = scalar_cost(&r.task_graph, net, &r.report.mapping, table)?;
            digest.procs(&r.report.mapping.assignment);
            digest.u64(c);
            cost += c;

            if tr.enabled() {
                let g = tr.replay_under(facade);
                let cold = Oregami::new(net.clone());
                let (tg, _) = tr.time("larcs.compile_cold_ms", || {
                    cold.compile_source(&inst.source, &inst.params)
                });
                let (_, _) = tr.time("topology.route_table_ms", || RouteTable::try_new(net));
                let (_, _) = tr.time("metrics.render_ms", || r.metrics.render());
                tr.end_replay(g);
                if tg.map_err(|e| e.to_string())? != r.task_graph {
                    return Err(format!(
                        "{}: cold recompile disagrees with the facade",
                        inst.label
                    ));
                }
                let stages = replay_map_graph(tr, facade, net, table, &r)
                    .map_err(|e| format!("{}: staged replay: {e}", inst.label))?;
                let counts = &mut self.counts;
                counts.stages.add(&stages);
                counts.tasks += r.task_graph.num_tasks();
                counts.edges += r.task_graph.num_edges();
                let arm = match r.report.strategy {
                    Strategy::Canned => 0,
                    Strategy::GroupTheoretic => 1,
                    Strategy::Systolic => 2,
                    _ => 3,
                };
                counts.strategies[arm] += 1;
            }
        }
        op_times.push(op_time);
        if tr.enabled() {
            self.counts.ops += 1;
        }
        Ok(Checked {
            digest: digest.finish(),
            mapping_cost: cost,
        })
    }
}
