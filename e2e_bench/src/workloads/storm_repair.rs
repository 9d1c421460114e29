//! `storm_repair`: processor-loss and board-loss storms against a mapped
//! 1024-processor board machine, through `Oregami::repair` with the
//! machine's fault domains. The other caller, besides churn, of the
//! displaced-task placement the roadmap wants merged.

use super::Workload;
use crate::harness::stats::{median, percentile};
use crate::harness::trace::Tracer;
use crate::harness::{closed_loop, Checked, Cycle, Digest, Layers, Rng, Timed};
use oregami::larcs::programs::jacobi;
use oregami::{
    FaultSet, MachineModel, MapperOptions, Oregami, OregamiResult, RepairOptions, RouteTableCache,
};
use std::sync::Arc;
use std::time::Duration;

struct Storm {
    whole_boards: bool,
    faults: FaultSet,
}

pub struct StormRepair {
    spec: &'static str,
    sys: Oregami,
    healthy: OregamiResult,
    repair: RepairOptions,
    storms: Vec<Storm>,
    traced: Traced,
}

#[derive(Default)]
struct Traced {
    proc_loss_ms: Vec<f64>,
    board_loss_ms: Vec<f64>,
    intra: usize,
    cross: usize,
    escalations: usize,
    cycles: usize,
}

impl Workload for StormRepair {
    fn setup(seed: u64, smoke: bool) -> StormRepair {
        let (spec, n) = if smoke {
            ("mesh-boards:2x2x4x4", 8)
        } else {
            ("mesh-boards:4x4x8x8", 32)
        };
        let lowered = MachineModel::parse(spec).expect("machine spec").lower();
        let domains = lowered.domains;
        let sys = Oregami::new(lowered.net).with_options(MapperOptions {
            load_bound: Some(2),
            ..MapperOptions::default()
        });
        // one Jacobi cell per processor, as in the hierarchical bench
        let healthy = sys
            .map_source(&jacobi(), &[("n", n), ("iters", 2)])
            .expect("jacobi maps onto the machine");
        let mut rng = Rng::new(seed);
        // A board-loss repair costs about 20 ms per displaced task, and the
        // healthy mapping loads the boards unevenly (0 to 126 tasks of
        // 1024), so two boards drawn freely would make the run's time a
        // property of the seed. The seed draws 64 pairs; the one whose
        // boards host closest to a fair share of the tasks is lost.
        let boards = domains.num_domains();
        let mut hosted = vec![0usize; boards];
        for p in &healthy.report.mapping.assignment {
            hosted[domains.domain_of(*p) as usize] += 1;
        }
        let fair = 2 * healthy.task_graph.num_tasks() / boards;
        let mut order: Vec<u32> = (0..boards as u32).collect();
        let lost_boards = (0..64)
            .map(|_| {
                rng.shuffle(&mut order);
                [order[0], order[1]]
            })
            .min_by_key(|pair| (hosted[pair[0] as usize] + hosted[pair[1] as usize]).abs_diff(fair))
            .expect("64 draws");
        // Storms come in groups of thirteen: twelve processor losses, then
        // one board loss. The processor losses set `op_ms_p50`, and over
        // eight of them it was the seed's to decide (16 to 25 ms).
        let storms = (0..26)
            .map(|i| {
                let mut faults = FaultSet::new();
                let whole_boards = i % 13 == 12;
                if whole_boards {
                    let lost = domains
                        .board_fault_set(sys.network(), lost_boards[i / 13])
                        .expect("board id in range");
                    lost.procs().for_each(|p| {
                        faults.fail_proc(p);
                    });
                    lost.links().for_each(|l| {
                        faults.fail_link(l);
                    });
                } else {
                    // three processors of one board die; its survivors
                    // have room for the displaced tasks
                    let mut members: Vec<_> = domains.procs_in(rng.below(boards) as u32).collect();
                    rng.shuffle(&mut members);
                    for &victim in &members[..3] {
                        faults.fail_proc(victim);
                    }
                }
                Storm {
                    whole_boards,
                    faults,
                }
            })
            .collect();
        StormRepair {
            spec,
            sys,
            healthy,
            repair: RepairOptions {
                domains: Some(domains),
                ..RepairOptions::default()
            },
            storms,
            traced: Traced::default(),
        }
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        closed_loop(self, seconds, tr, usize::MAX)
    }

    fn layers(&mut self, tr: &mut Tracer, _traced: &Timed, out: &mut Layers) {
        let t = &self.traced;
        let cycles = t.cycles.max(1) as f64;
        out.set("repair.proc_loss_ms_p50", median(&t.proc_loss_ms));
        out.set("repair.board_loss_ms_p50", median(&t.board_loss_ms));
        out.set(
            "repair.board_loss_ms_max",
            percentile(&t.board_loss_ms, 100.0),
        );
        out.set("repair.intra_migrations", t.intra as f64 / cycles);
        out.set("repair.cross_migrations", t.cross as f64 / cycles);
        out.set("repair.escalations", t.escalations as f64 / cycles);
        let cache = self.sys.cache_stats();
        out.set("topology.cache_hit_share", cache.hit_rate());
        let (_, dur) = tr.time("topology.machine_lower_ms", || {
            MachineModel::parse(self.spec)
                .expect("machine spec")
                .lower()
        });
        out.set("topology.machine_lower_ms", dur.as_secs_f64() * 1e3);
    }
}

impl Cycle for StormRepair {
    const LIMIT_MS: f64 = 10_000.0;

    /// One op: one storm repaired. A cycle is the 26 storms.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let mut cost = 0u64;
        // A cycle is one session on a toolchain with a cold route cache.
        // Sharing one cache across cycles would make later cycles hit
        // where the first missed, and the op time would depend on how
        // many cycles a run got through.
        self.sys = self
            .sys
            .clone()
            .with_cache(Arc::new(RouteTableCache::new(16)));
        for (i, storm) in self.storms.iter().enumerate() {
            let (rec, dur) = tr.time("core.repair", || {
                self.sys.repair(&self.healthy, &storm.faults, &self.repair)
            });
            let facade = tr.last_span();
            op_times.push(dur);
            let rec = rec.map_err(|e| format!("storm {i}: {e}"))?;
            rec.mapping
                .validate(&self.healthy.task_graph, rec.degraded.network())
                .map_err(|e| format!("storm {i}: invalid mapping: {e}"))?;
            let c =
                rec.metrics.overall.completion_time.ok_or_else(|| {
                    format!("storm {i}: no completion time on the degraded machine")
                })?;
            digest.procs(&rec.mapping.assignment);
            digest.u64(c);
            cost += c;
            if tr.enabled() {
                let g = tr.replay_under(facade);
                let (degraded, _) = tr.time("topology.degrade_ms", || {
                    self.sys.network().degrade(&storm.faults)
                });
                tr.end_replay(g);
                if degraded.map_err(|e| e.to_string())?.num_alive() != rec.degraded.num_alive() {
                    return Err(format!(
                        "storm {i}: degrade replay disagrees with the facade"
                    ));
                }
                let t = &mut self.traced;
                let ms = dur.as_secs_f64() * 1e3;
                if storm.whole_boards {
                    t.board_loss_ms.push(ms);
                } else {
                    t.proc_loss_ms.push(ms);
                }
                t.intra += rec.repair.migrations_intra_domain;
                t.cross += rec.repair.migrations_cross_domain;
                t.escalations += usize::from(rec.repair.escalated);
            }
        }
        if tr.enabled() {
            self.traced.cycles += 1;
        }
        Ok(Checked {
            digest: digest.finish(),
            mapping_cost: cost,
        })
    }
}
