//! `churn_stream`: fixed-length bursty, diurnal and flap-storm event
//! streams through the always-valid `ChurnController`. The controller's
//! probes (`MetricsEngine` apply/undo) do all the work, and the fixed
//! stream length pins the cost of a long stream, which grows with the
//! live task count.

use super::Workload;
use crate::harness::stats::{median, percentile};
use crate::harness::trace::Tracer;
use crate::harness::{closed_loop, Checked, Cycle, Digest, Layers, Timed};
use oregami::topology::builders;
use oregami::{
    ChurnConfig, ChurnController, ChurnEvent, ChurnStats, EventStream, Network, StreamProfile,
};
use std::time::{Duration, Instant};

const BATCH: usize = 1000;

pub struct ChurnStream {
    net: Network,
    config: ChurnConfig,
    /// One pre-generated stream per profile.
    legs: Vec<(StreamProfile, Vec<ChurnEvent>)>,
    traced: Traced,
}

#[derive(Default)]
struct Traced {
    event_us: Vec<f64>,
    first_batch_ms: Vec<f64>,
    last_batch_ms: Vec<f64>,
    /// Controller counters summed over the traced legs.
    stats: Option<ChurnStats>,
    events: u64,
    legs: usize,
}

impl Workload for ChurnStream {
    fn setup(seed: u64, smoke: bool) -> ChurnStream {
        let net = builders::hypercube(4);
        let config = ChurnConfig {
            load_bound: 8,
            ..ChurnConfig::default()
        };
        let events = if smoke { 2_000 } else { 100_000 };
        let legs = [
            StreamProfile::Bursty,
            StreamProfile::Diurnal,
            StreamProfile::FlapStorm,
        ]
        .into_iter()
        .map(|p| {
            // The generator fills the machine to one task per processor
            // below the controller's bound. It takes a recovery for granted
            // that the controller refuses (the processor's links are still
            // down); at the same bound one spawn is then turned away for
            // lack of room, every later spawn for its id, and one seed in
            // ten ran a fifth of its events as rejections.
            let stream = EventStream::new(net.clone(), p, seed, events, config.load_bound - 1);
            (p, stream.collect())
        })
        .collect();
        ChurnStream {
            net,
            config,
            legs,
            traced: Traced::default(),
        }
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        closed_loop(self, seconds, tr, usize::MAX)
    }

    fn layers(&mut self, _tr: &mut Tracer, _traced: &Timed, out: &mut Layers) {
        let t = &self.traced;
        let Some(stats) = &t.stats else { return };
        let legs = t.legs.max(1) as f64;
        out.set("churn.event_us_p50", median(&t.event_us));
        out.set("churn.event_us_p99", percentile(&t.event_us, 99.0));
        out.set("churn.batch_ms_first", median(&t.first_batch_ms));
        out.set("churn.batch_ms_last", median(&t.last_batch_ms));
        out.set("churn.probes", stats.probes as f64 / legs);
        out.set(
            "churn.accept_share",
            stats.events as f64 / t.events.max(1) as f64,
        );
        out.set(
            "churn.voluntary_migrations",
            stats.voluntary_migrations as f64 / legs,
        );
        out.set(
            "churn.forced_migrations",
            stats.forced_migrations as f64 / legs,
        );
        out.set("churn.rejected", stats.rejected as f64 / legs);
    }
}

impl Cycle for ChurnStream {
    const LIMIT_MS: f64 = 1000.0;

    /// One op: a batch of 1000 events. A cycle runs the three streams
    /// end to end, each through a fresh controller.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let mut cost = 0u64;
        for (profile, events) in &self.legs {
            let mut ctl = ChurnController::new(self.net.clone(), self.config.clone())
                .map_err(|e| format!("{}: {e}", profile.name()))?;
            let (mut comm, mut batches) = (0u64, 0u64);
            let mut batch_ms = Vec::new();
            for batch in events.chunks(BATCH) {
                let span = tr.begin("churn.batch");
                let t0 = Instant::now();
                if tr.enabled() {
                    // per-event times without a span each: 300k spans
                    // would cost more than the events
                    for ev in batch {
                        let e0 = Instant::now();
                        let _ = std::hint::black_box(ctl.ingest(ev));
                        self.traced.event_us.push(e0.elapsed().as_secs_f64() * 1e6);
                    }
                } else {
                    for ev in batch {
                        // a rejected event is the controller's answer, not
                        // a failure: it leaves the state unchanged
                        let _ = std::hint::black_box(ctl.ingest(ev));
                    }
                }
                let dur = t0.elapsed();
                tr.end(span);
                op_times.push(dur);
                batch_ms.push(dur.as_secs_f64() * 1e3);
                ctl.validate().map_err(|e| {
                    format!("{}: invalid mapping after a batch: {e}", profile.name())
                })?;
                comm += ctl.total_comm_cost();
                batches += 1;
            }
            if ctl.stats().max_window_migrations > self.config.migration_cap as u64 {
                return Err(format!(
                    "{}: a window exceeded the migration cap",
                    profile.name()
                ));
            }
            digest.bytes(ctl.state_record().as_bytes());
            // the leg's steady communication cost: the mean over batch ends
            cost += comm / batches.max(1);
            if tr.enabled() {
                let t = &mut self.traced;
                t.first_batch_ms.push(batch_ms[0]);
                t.last_batch_ms.push(batch_ms[batch_ms.len() - 1]);
                t.events += events.len() as u64;
                t.legs += 1;
                let s = ctl.stats();
                let sum = t.stats.get_or_insert_with(ChurnStats::default);
                sum.events += s.events;
                sum.rejected += s.rejected;
                sum.probes += s.probes;
                sum.voluntary_migrations += s.voluntary_migrations;
                sum.forced_migrations += s.forced_migrations;
            }
        }
        Ok(Checked {
            digest: digest.finish(),
            mapping_cost: cost,
        })
    }
}
