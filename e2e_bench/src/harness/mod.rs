//! What every workload shares: the closed-loop runner, process
//! accounting from `/proc`, a seeded generator, the output digest and the
//! metric tables that `BENCHMARK.json` mirrors.

pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;
use trace::Tracer;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("mapping_cost", "count"),
    ("within_limit_share", "share"),
];

/// `(name, unit)` of every per-layer metric. A workload reports the ones
/// its layers produce; the rest read 0 on it, which is the prediction
/// for a layer the workload leaves idle.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("larcs.compile_cold_ms", "ms"),
    ("larcs.tasks", "count"),
    ("larcs.edges", "count"),
    ("larcs.compile_warm_ms", "ms"),
    ("larcs.edit_rule_ms", "ms"),
    ("larcs.fragment_hit_share", "share"),
    ("graph.collapse_ms", "ms"),
    ("graph.quotient_ms", "ms"),
    ("topology.route_table_ms", "ms"),
    ("topology.cache_hit_share", "share"),
    ("topology.degrade_ms", "ms"),
    ("topology.machine_lower_ms", "ms"),
    ("group.contract_ms", "ms"),
    ("group.attempts", "count"),
    ("group.success_share", "share"),
    ("matching.mwm_ms", "ms"),
    ("matching.mwm_nodes", "count"),
    ("mapper.contract_ms", "ms"),
    ("mapper.contract_clusters", "count"),
    ("mapper.embed_ms", "ms"),
    ("mapper.route_ms", "ms"),
    ("mapper.route_edges", "count"),
    ("mapper.map_ms", "ms"),
    ("mapper.map_self_ms", "ms"),
    ("mapper.strategy.canned", "count"),
    ("mapper.strategy.group", "count"),
    ("mapper.strategy.systolic", "count"),
    ("mapper.strategy.general", "count"),
    ("engine.run_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("multilevel.coarsen_ms", "ms"),
    ("multilevel.refine_ms", "ms"),
    ("multilevel.other_ms", "ms"),
    ("multilevel.levels", "count"),
    ("multilevel.moves", "count"),
    ("multilevel.refine_ms_per_move", "ms"),
    ("multilevel.split_packing", "count"),
    ("multilevel.torus1M_s", "s"),
    ("metrics.analyze_ms", "ms"),
    ("metrics.render_ms", "ms"),
    ("metrics_engine.build_ms", "ms"),
    ("metrics_engine.apply_us_p50", "us"),
    ("metrics_engine.undo_us_p50", "us"),
    ("metrics_engine.edges_touched", "count"),
    ("churn.event_us_p50", "us"),
    ("churn.event_us_p99", "us"),
    ("churn.batch_ms_first", "ms"),
    ("churn.batch_ms_last", "ms"),
    ("churn.probes", "count"),
    ("churn.accept_share", "share"),
    ("churn.voluntary_migrations", "count"),
    ("churn.forced_migrations", "count"),
    ("churn.rejected", "count"),
    ("repair.proc_loss_ms_p50", "ms"),
    ("repair.board_loss_ms_p50", "ms"),
    ("repair.board_loss_ms_max", "ms"),
    ("repair.intra_migrations", "count"),
    ("repair.cross_migrations", "count"),
    ("repair.escalations", "count"),
    ("core.facade_self_ms", "ms"),
    ("journal.append_us_p50", "us"),
    ("journal.bytes_per_edit", "count"),
    ("journal.recover_ms", "ms"),
    ("daemon.encode_us_p50", "us"),
    ("daemon.decode_us_p50", "us"),
    ("daemon.lat_ms_p50_low", "ms"),
    ("daemon.lat_ms_p99", "ms"),
    ("daemon.overhead_ms_p50", "ms"),
    ("daemon.queue_ms_p50", "ms"),
    ("daemon.coalesced", "count"),
    ("daemon.shed", "count"),
    ("daemon.ewma_service_us", "us"),
    ("daemon.route_cache_hit_share", "share"),
    ("daemon.gen_late_ms_p99", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.first_op_ms", "ms"),
    ("bench.sys_cpu_share", "share"),
];

/// Per-layer values a traced run collected, by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "'{name}' is not a per-layer metric of BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }

    /// Every span whose name is a per-layer `_ms` metric becomes that
    /// metric: total span time divided by the ops traced, so the layer
    /// times of one workload add up to its op time.
    pub fn absorb_spans(&mut self, tracer: &Tracer, ops: usize) {
        for (name, total) in tracer.totals_ms() {
            if name.ends_with("_ms") && PER_LAYER.iter().any(|(n, _)| *n == name) {
                self.set(name, total / ops.max(1) as f64);
            }
        }
    }
}

/// What a checked set of outputs boils down to: a digest of assignments
/// and costs, and the summed scalar cost of the final mappings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checked {
    pub digest: u64,
    pub mapping_cost: u64,
}

/// The result of one timed pass.
pub struct Timed {
    /// Duration of every timed op, in milliseconds.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Ops that succeeded within the workload's latency limit.
    pub within_limit: u64,
    /// Seconds the pass measured: the sum of op times for a closed loop,
    /// the length of the schedule for an open one.
    pub timed_s: f64,
    /// User+system CPU seconds the process spent over the pass.
    pub cpu_s: f64,
    /// Digest and cost of the first full cycle; `None` if none completed.
    pub checked: Option<Checked>,
    /// Duration of the very first op after set-up, in milliseconds.
    pub first_op_ms: f64,
}

/// A closed-loop workload: a fixed cycle of ops, repeated. Every cycle
/// does the same work on the same inputs, so every cycle must end in the
/// same [`Checked`].
pub trait Cycle {
    /// An op slower than this misses the latency limit.
    const LIMIT_MS: f64;

    /// Runs the cycle once. Pushes one duration per op — the time spent
    /// inside the program's public calls, excluding the benchmark's own
    /// checks — and returns the cycle's digest, or what went wrong.
    fn cycle(&mut self, tr: &mut Tracer, op_times: &mut Vec<Duration>) -> Result<Checked, String>;
}

/// Runs whole cycles until `seconds` of wall time (checks included) have
/// passed or the tracer holds `span_cap` spans; the last cycle runs to
/// its end, so every op of the cycle weighs the same in the result. A
/// failed cycle counts as one failed op.
pub fn closed_loop<C: Cycle>(c: &mut C, seconds: f64, tr: &mut Tracer, span_cap: usize) -> Timed {
    let mut times: Vec<Duration> = Vec::new();
    let (mut failed, mut first) = (0u64, None);
    let cpu0 = cpu_seconds();
    let started = std::time::Instant::now();
    for cycle in 0.. {
        if started.elapsed().as_secs_f64() >= seconds || tr.len() >= span_cap {
            break;
        }
        tr.set_op(cycle);
        match c.cycle(tr, &mut times) {
            Ok(checked) => match first {
                None => first = Some(checked),
                Some(f) if f != checked => {
                    eprintln!("output digest changed between cycles: {f:?} then {checked:?}");
                    failed += 1;
                }
                Some(_) => {}
            },
            Err(e) => {
                eprintln!("op failed: {e}");
                failed += 1;
            }
        }
    }
    let cpu = cpu_seconds();
    let op_ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    Timed {
        attempted: op_ms.len() as u64 + failed,
        failed,
        within_limit: op_ms.iter().filter(|&&ms| ms <= C::LIMIT_MS).count() as u64,
        timed_s: times.iter().map(Duration::as_secs_f64).sum(),
        cpu_s: (cpu.0 + cpu.1) - (cpu0.0 + cpu0.1),
        checked: first,
        first_op_ms: op_ms.first().copied().unwrap_or(f64::NAN),
        op_ms,
    }
}

/// `(user, system)` CPU seconds of this process from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // the command name may hold spaces; fields are counted after its ')'
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .expect("cpu ticks")
    };
    (ticks() / 100.0, ticks() / 100.0)
}

/// Peak resident set (`VmHWM`) of this process in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// SplitMix64: the benchmark's own generator, so the inputs a seed names
/// do not change when the repository's `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the values folded in: the per-workload `output_digest`.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn procs(&mut self, assignment: &[oregami::topology::ProcId]) {
        for p in assignment {
            self.bytes(&p.0.to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_proc() {
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn rng_and_digest_are_deterministic() {
        let (mut a, mut b) = (Rng::new(11), Rng::new(11));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(12).next_u64(), Rng::new(11).next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!((0..100).all(|_| a.below(7) < 7));
        let (mut d, mut e) = (Digest::default(), Digest::default());
        d.u64(5);
        e.u64(6);
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
    }
}
