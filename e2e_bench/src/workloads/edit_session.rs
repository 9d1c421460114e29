//! `edit_session`: seeded edit scripts against a mapped program, in the
//! dialect the CLI's `--edits` replay and the session journal share. It
//! uses `larcs` and `metrics` the other way round from `corpus_map`: warm
//! incremental `Db::edit_rule` against a cold compile, `MetricsEngine`
//! deltas against a full `analyze_mapping`.

use super::{scalar_cost, Workload};
use crate::harness::stats::median;
use crate::harness::trace::Tracer;
use crate::harness::{closed_loop, Checked, Cycle, Digest, Layers, Rng, Timed};
use oregami::journal::{self, Journal};
use oregami::larcs::programs::sor_multicolor;
use oregami::metrics::try_analyze_mapping;
use oregami::replay::{self, ReplayOp};
use oregami::topology::{builders, ProcId, RouteTable};
use oregami::{CostModel, Mapping, Network, Oregami, OregamiResult};
use std::sync::Arc;
use std::time::Duration;

const OPS_PER_SCRIPT: usize = 200;

pub struct EditSession {
    sys: Oregami,
    table: Arc<RouteTable>,
    source: String,
    params: Vec<(&'static str, i64)>,
    base: OregamiResult,
    /// One seed per script; a cycle replays every script from the base.
    scripts: Vec<u64>,
    traced: Traced,
}

/// What the traced replays saw, for the per-layer metrics.
#[derive(Default)]
struct Traced {
    apply_us: Vec<f64>,
    undo_us: Vec<f64>,
    edges_touched: usize,
    stages: super::general_scale::StageCounts,
    /// The canonical records of the last script, for the journaled leg.
    records: Vec<String>,
}

#[derive(Clone, Copy)]
enum Kind {
    Reassign,
    Reroute,
    Undo,
    Program,
}

/// The kinds of a script's ops: exactly 55 % reassign, 20 % reroute, 15 %
/// undo and 10 % program rule edits, in seeded order. The counts are
/// fixed because a program edit costs a thousand reassigns: drawing the
/// kinds independently would let the seed, not the program, set the time.
fn script_kinds(rng: &mut Rng) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = [
        (Kind::Reassign, 55),
        (Kind::Reroute, 20),
        (Kind::Undo, 15),
        (Kind::Program, 10),
    ]
    .into_iter()
    .flat_map(|(k, pct)| std::iter::repeat_n(k, OPS_PER_SCRIPT * pct / 100))
    .collect();
    rng.shuffle(&mut kinds);
    kinds
}

/// One script line of `kind`, drawn against the session's current
/// mapping so every line is one the session accepts.
fn line_for(
    kind: Kind,
    rng: &mut Rng,
    net: &Network,
    table: &RouteTable,
    r: &OregamiResult,
    now: &Mapping,
) -> String {
    let tg = &r.task_graph;
    match kind {
        Kind::Reassign => format!(
            "reassign {} {}",
            rng.below(tg.num_tasks()),
            rng.below(net.num_procs())
        ),
        Kind::Reroute => {
            let phase = rng.below(tg.num_phases());
            let edge = rng.below(tg.comm_phases[phase].edges.len());
            let e = &tg.comm_phases[phase].edges[edge];
            // a random shortest path between the edge's current endpoints
            let (mut at, to) = (now.assignment[e.src.index()], now.assignment[e.dst.index()]);
            let mut line = format!("reroute {phase} {edge} {}", at.0);
            while at != to {
                let hops: Vec<ProcId> = table.next_hops(net, at, to);
                at = hops[rng.below(hops.len())];
                line.push_str(&format!(" {}", at.0));
            }
            line
        }
        Kind::Undo => "undo".to_string(),
        Kind::Program => {
            // the one-token tweak of larcs_bench: the same rule with an
            // explicit volume
            let (c, d, vol) = (rng.below(8), rng.below(4), 2 + rng.below(7));
            let (guard, edge) = [
                ("i > 0", "cell(i,j) -> cell(i-1,j)"),
                ("i < n-1", "cell(i,j) -> cell(i+1,j)"),
                ("j > 0", "cell(i,j) -> cell(i,j-1)"),
                ("j < n-1", "cell(i,j) -> cell(i,j+1)"),
            ][d];
            format!(
                "program color{c} {d} forall i in 0..n-1, j in 0..n-1 where (2*i+j) mod 8 == {c} \
                 and {guard} {{ {edge} volume {vol}; }}"
            )
        }
    }
}

impl Workload for EditSession {
    fn setup(seed: u64, smoke: bool) -> EditSession {
        let (dim, n, scripts) = if smoke { (3, 8, 2) } else { (6, 32, 6) };
        let sys = Oregami::new(builders::hypercube(dim));
        let table = Arc::new(RouteTable::try_new(sys.network()).expect("hypercube is connected"));
        let source = sor_multicolor();
        let params = vec![("n", n), ("iters", 2)];
        let base = sys
            .map_source(&source, &params)
            .expect("the base program maps");
        let mut rng = Rng::new(seed);
        EditSession {
            sys,
            table,
            source,
            params,
            base,
            scripts: (0..scripts).map(|_| rng.next_u64()).collect(),
            traced: Traced::default(),
        }
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        // edits are microseconds: cap the trace, not the time
        closed_loop(self, seconds, tr, 200_000)
    }

    fn layers(&mut self, tr: &mut Tracer, traced: &Timed, out: &mut Layers) {
        let t = &self.traced;
        let ops = traced.op_ms.len();
        out.set("metrics_engine.apply_us_p50", median(&t.apply_us));
        out.set("metrics_engine.undo_us_p50", median(&t.undo_us));
        out.set(
            "metrics_engine.edges_touched",
            t.edges_touched as f64 / t.apply_us.len().max(1) as f64,
        );
        let frontend = self.sys.frontend();
        let db = frontend
            .lock()
            .expect("no panic while the front end was locked");
        let (hits, misses) = (db.elab_cache().hits, db.elab_cache().misses);
        out.set(
            "larcs.fragment_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        drop(db);
        t.stages.report(ops, tr, out);

        // The journaled leg: one script's records through the write-ahead
        // journal and back. It feeds journal.* and nothing else.
        let dir = crate::scratch_dir();
        let path = dir.join(format!("edit-session-{}.jrnl", std::process::id()));
        let appended: Result<Vec<f64>, String> = std::fs::create_dir_all(&dir)
            .map_err(|e| e.to_string())
            .and_then(|()| Journal::create(&path).map_err(|e| e.to_string()))
            .and_then(|mut j| {
                t.records
                    .iter()
                    .map(|rec| {
                        let (r, dur) = tr.time("journal.append", || j.append(rec));
                        r.map(|()| dur.as_secs_f64() * 1e6)
                            .map_err(|e| e.to_string())
                    })
                    .collect()
            });
        match appended {
            Ok(us) if !us.is_empty() => {
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                let (recovered, took) =
                    tr.time("journal.recover_ms", || journal::recover(&path, true));
                if recovered.is_ok_and(|r| r.records == t.records) {
                    out.set("journal.append_us_p50", median(&us));
                    out.set("journal.bytes_per_edit", bytes as f64 / us.len() as f64);
                    out.set("journal.recover_ms", took.as_secs_f64() * 1e3);
                } else {
                    eprintln!("journal recovery did not return the appended records");
                }
            }
            Ok(_) => {}
            Err(e) => eprintln!("journaled leg skipped: {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

impl Cycle for EditSession {
    const LIMIT_MS: f64 = 250.0;

    /// One op: one edit. A cycle replays every script from the base
    /// mapping and checks each script's final state.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String> {
        let EditSession {
            sys,
            table,
            source,
            params,
            base,
            scripts,
            traced,
        } = self;
        let net = sys.network().clone();
        let mut digest = Digest::default();
        let mut cost = 0u64;
        for &script in scripts.iter() {
            let mut rng = Rng::new(script);
            let mut source = source.clone();
            let mut result = base.clone();
            let (opened, _) = tr.time("metrics_engine.build_ms", || sys.interactive(&result));
            let mut session = opened.map_err(|e| e.to_string())?;
            traced.records.clear();
            for kind in script_kinds(&mut rng) {
                let line = line_for(kind, &mut rng, &net, table, &result, session.mapping());
                let op = replay::parse_line(&line)?.ok_or("a script line parsed to nothing")?;
                if tr.enabled() && !matches!(op, ReplayOp::Program { .. }) {
                    traced.records.push(replay::to_record(&op));
                }
                match op {
                    ReplayOp::Apply(edit) => {
                        let (delta, dur) = tr.time("metrics_engine.apply", || session.apply(edit));
                        let delta = delta.map_err(|e| format!("'{line}' rejected: {e}"))?;
                        op_times.push(dur);
                        if tr.enabled() {
                            traced.apply_us.push(dur.as_secs_f64() * 1e6);
                            traced.edges_touched += delta.edges_touched;
                        }
                    }
                    ReplayOp::Undo => {
                        let (_, dur) = tr.time("metrics_engine.undo", || session.undo());
                        op_times.push(dur);
                        if tr.enabled() {
                            traced.undo_us.push(dur.as_secs_f64() * 1e6);
                        }
                    }
                    ReplayOp::Program { phase, rule, text } => {
                        // what the CLI does: splice the rule through the
                        // shared front end, recompile, remap, and restart
                        // the session on the new graph
                        let frontend = sys.frontend();
                        let (edited, t_edit) = tr.time("larcs.edit_rule_ms", || {
                            let mut db = frontend.lock().expect("front end lock");
                            db.edit_rule(&source, &phase, rule, &text)
                        });
                        let edited = edited.map_err(|e| format!("'{line}' rejected: {e}"))?;
                        let (tg, t_compile) = tr.time("larcs.compile_warm_ms", || {
                            sys.compile_source(&edited, params)
                        });
                        let tg = tg.map_err(|e| e.to_string())?;
                        let (mapped, t_map) = tr.time("core.map_graph", || sys.map_graph(tg));
                        let facade = tr.last_span();
                        let mapped = mapped.map_err(|e| e.to_string())?;
                        drop(session);
                        source = edited;
                        result = mapped;
                        let (opened, t_open) =
                            tr.time("metrics_engine.build_ms", || sys.interactive(&result));
                        session = opened.map_err(|e| e.to_string())?;
                        op_times.push(t_edit + t_compile + t_map + t_open);
                        if tr.enabled() {
                            let stages = super::general_scale::replay_map_graph(
                                tr, facade, &net, table, &result,
                            )?;
                            traced.stages.add(&stages);
                        }
                    }
                    ReplayOp::Stream(_) => return Err(format!("'{line}' is not an edit")),
                }
            }
            // the script's final state: valid, and the incremental report
            // equal to a from-scratch analysis of the same mapping
            let tg = &result.task_graph;
            session
                .mapping()
                .validate(tg, session.network())
                .map_err(|e| format!("script {script:#x}: invalid mapping: {e}"))?;
            let batch = try_analyze_mapping(
                tg,
                session.network(),
                session.mapping(),
                &CostModel::default(),
            )
            .map_err(|e| e.to_string())?;
            if session.report() != batch {
                return Err(format!(
                    "script {script:#x}: incremental report differs from batch analysis"
                ));
            }
            let c = scalar_cost(tg, session.network(), session.mapping(), table)?;
            digest.procs(&session.mapping().assignment);
            digest.u64(c);
            cost += c;
        }
        Ok(Checked {
            digest: digest.finish(),
            mapping_cost: cost,
        })
    }
}
