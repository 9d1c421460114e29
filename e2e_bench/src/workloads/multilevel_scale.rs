//! `multilevel_scale`: 100k–250k-task graphs through the multilevel
//! coarsen–map–refine mapper. Level-0 refinement dominates here, which is
//! where a V-cycle change claims its gain; the flat workloads never reach
//! this code.

use super::{scalar_cost, Workload};
use crate::harness::trace::Tracer;
use crate::harness::{closed_loop, Checked, Cycle, Digest, Layers, Timed};
use oregami::graph::TaskGraph;
use oregami::mapper::{multilevel_map_with_report, MultilevelReport};
use oregami::topology::{builders, RouteTable};
use oregami::{Budget, MapperOptions, Network};
use oregami_bench::{grid_tasks, random_geometric_tasks, torus_tasks};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Instance {
    name: &'static str,
    tg: TaskGraph,
    /// Index into `nets`.
    net: usize,
    /// Assignment digest and scalar cost of the first, fully checked
    /// mapping. Later sweeps must reproduce the assignment bit for bit,
    /// which makes them valid at that cost without a second 250k-task
    /// validation.
    verified: Option<(u64, u64)>,
}

/// Sweeps per cycle, each with its own draw of the random geometric
/// graph (the grid and the torus are the same in all of them). Its
/// bottleneck cost moved 15 % and its time 10 % across seeds; the sum and
/// the median over three draws move about half as much.
const DRAWS: usize = 3;

pub struct MultilevelScale {
    nets: Vec<(Network, Arc<RouteTable>)>,
    instances: Vec<Instance>,
    /// The instances of each sweep of the cycle, as indices.
    sweeps: Vec<[usize; 3]>,
    smoke: bool,
    /// The reports of the traced sweeps.
    reports: Vec<(Duration, MultilevelReport)>,
    traced_ops: usize,
}

/// The multilevel bench's step quota: ~30 steps per task covers full
/// coarsening plus two refinement passes, and the stage is anytime.
fn budget_for(tg: &TaskGraph) -> Budget {
    Budget::unlimited().with_max_steps(30 * tg.num_tasks() as u64)
}

impl Workload for MultilevelScale {
    fn setup(seed: u64, smoke: bool) -> MultilevelScale {
        let nets = if smoke {
            [builders::torus2d(4, 4), builders::hypercube(4)]
        } else {
            [builders::torus2d(32, 32), builders::hypercube(10)]
        }
        .into_iter()
        .map(|net| {
            let table = RouteTable::try_new(&net).expect("builder networks are connected");
            (net, Arc::new(table))
        })
        .collect();
        let draws = if smoke { 1 } else { DRAWS };
        let rgg = |draw: usize| {
            let s = seed.wrapping_mul(DRAWS as u64).wrapping_add(draw as u64);
            if smoke {
                ("rgg", random_geometric_tasks(2000, 0.03, s), 1)
            } else {
                ("rgg250k", random_geometric_tasks(250_000, 0.0028, s), 1)
            }
        };
        let fixed: [(&'static str, TaskGraph, usize); 2] = if smoke {
            [
                ("grid", grid_tasks(31, 30), 0),
                ("torus", torus_tasks(40, 40), 0),
            ]
        } else {
            [
                ("grid100k", grid_tasks(317, 316), 0),
                ("torus250k", torus_tasks(500, 500), 0),
            ]
        };
        MultilevelScale {
            nets,
            instances: fixed
                .into_iter()
                .chain((0..draws).map(rgg))
                .map(|(name, tg, net)| Instance {
                    name,
                    tg,
                    net,
                    verified: None,
                })
                .collect(),
            sweeps: (0..draws).map(|draw| [0, 2 + draw, 1]).collect(),
            smoke,
            reports: Vec::new(),
            traced_ops: 0,
        }
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        closed_loop(self, seconds, tr, usize::MAX)
    }

    fn layers(&mut self, _tr: &mut Tracer, _traced: &Timed, out: &mut Layers) {
        // Read from the reports the mapper returns: they are its own
        // account of where one call's time went.
        let ops = self.traced_ops.max(1) as f64;
        let (mut whole, mut coarsen, mut refine, mut levels, mut moves, mut split) =
            (0.0, 0.0, 0.0, 0usize, 0usize, 0usize);
        for (dur, report) in &self.reports {
            whole += dur.as_secs_f64() * 1e3;
            coarsen += report.levels.iter().map(|l| l.coarsen_secs).sum::<f64>() * 1e3;
            refine += report.levels.iter().map(|l| l.refine_secs).sum::<f64>() * 1e3;
            levels += report.levels.len();
            moves += report.levels.iter().map(|l| l.moves).sum::<usize>();
            split += usize::from(report.split_packing);
        }
        out.set("multilevel.coarsen_ms", coarsen / ops);
        out.set("multilevel.refine_ms", refine / ops);
        out.set("multilevel.other_ms", (whole - coarsen - refine) / ops);
        out.set("multilevel.levels", levels as f64 / ops);
        out.set("multilevel.moves", moves as f64 / ops);
        out.set(
            "multilevel.refine_ms_per_move",
            refine / moves.max(1) as f64,
        );
        out.set("multilevel.split_packing", split as f64 / ops);

        // One run at the size the roadmap's win condition names.
        let side = if self.smoke { 60 } else { 1000 };
        let tg = torus_tasks(side, side);
        let (net, table) = &self.nets[0];
        let t0 = Instant::now();
        let mapped = multilevel_map_with_report(
            &tg,
            net,
            &MapperOptions::default(),
            &budget_for(&tg),
            Arc::clone(table),
        );
        let secs = t0.elapsed().as_secs_f64();
        match mapped {
            Ok((report, _, _)) if report.mapping.validate(&tg, net).is_ok() => {
                out.set("multilevel.torus1M_s", secs);
            }
            _ => {
                eprintln!("torus1M did not map to a valid mapping; multilevel.torus1M_s left at 0")
            }
        }
    }
}

impl Cycle for MultilevelScale {
    const LIMIT_MS: f64 = 15_000.0;

    /// One op: one sweep over three instances (grid, a random geometric
    /// graph, torus). A cycle is one sweep per draw.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let mut cost = 0u64;
        for sweep in &self.sweeps {
            let mut op_time = Duration::ZERO;
            for &i in sweep {
                let inst = &mut self.instances[i];
                let (net, table) = &self.nets[inst.net];
                let budget = budget_for(&inst.tg);
                let shared = Arc::clone(table);
                let (mapped, dur) = tr.time("multilevel.map", || {
                    multilevel_map_with_report(
                        &inst.tg,
                        net,
                        &MapperOptions::default(),
                        &budget,
                        shared,
                    )
                });
                op_time += dur;
                let (report, _, ml) = mapped.map_err(|e| format!("{}: {e}", inst.name))?;
                let mut d = Digest::default();
                d.procs(&report.mapping.assignment);
                let c = match inst.verified {
                    Some((seen, c)) if seen == d.finish() => c,
                    Some(_) => {
                        return Err(format!("{}: the mapping changed between sweeps", inst.name))
                    }
                    None => {
                        report
                            .mapping
                            .validate(&inst.tg, net)
                            .map_err(|e| format!("{}: invalid mapping: {e}", inst.name))?;
                        let c = scalar_cost(&inst.tg, net, &report.mapping, table)?;
                        inst.verified = Some((d.finish(), c));
                        c
                    }
                };
                digest.u64(d.finish());
                digest.u64(c);
                cost += c;
                if tr.enabled() {
                    self.reports.push((dur, ml));
                }
            }
            op_times.push(op_time);
            if tr.enabled() {
                self.traced_ops += 1;
            }
        }
        Ok(Checked {
            digest: digest.finish(),
            mapping_cost: cost,
        })
    }
}
