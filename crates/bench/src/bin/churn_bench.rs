//! Streaming-churn harness for the always-valid churn controller,
//! emitting `BENCH_churn.json` (the CI churn-smoke artifact).
//!
//! ```sh
//! cargo run --release -p oregami-bench --bin churn_bench              # 1M events
//! cargo run --release -p oregami-bench --bin churn_bench -- --quick  # 30k
//! cargo run --release -p oregami-bench --bin churn_bench -- --events 200000 --seed 7
//! ```
//!
//! Three seeded event streams (bursty, diurnal, adversarial flap-storm)
//! drive the controller with the **always-valid invariant asserted
//! after every single event** — a validation failure, a panic, or a
//! flap-storm window exceeding the configured migration cap exits
//! non-zero so CI fails loudly. Each leg reports events per second of
//! `ingest` time, overall and over its first and last tenth (equal when
//! an event costs what the live tasks cost). A journaled leg kills the
//! session mid-stream and resumes it, demanding byte-identical state
//! against an uninterrupted shadow. A hysteresis sweep over `state_volume` reports
//! the steady-state contention vs. migration-traffic trade-off for
//! EXPERIMENTS table A6.

use oregami::topology::builders;
use oregami::{
    Budget, ChurnConfig, ChurnController, EventStream, StreamProfile, StreamSession,
};
use std::time::{Duration, Instant};

struct Leg {
    profile: &'static str,
    events: u64,
    accepted: u64,
    rejected: u64,
    forced_migrations: u64,
    voluntary_migrations: u64,
    migration_traffic: u64,
    escalations: u64,
    probes: u64,
    max_window_migrations: u64,
    steady_comm: u64,
    final_comm: u64,
    live_tasks: usize,
    /// Events per second of `ingest` time (validation not counted).
    events_per_sec: f64,
    /// The same over the first and the last tenth of the stream: equal
    /// when an event costs what the live set costs, apart when it costs
    /// what the history costs.
    events_per_sec_first_tenth: f64,
    events_per_sec_last_tenth: f64,
}

fn cfg() -> ChurnConfig {
    ChurnConfig {
        load_bound: 8,
        ..ChurnConfig::default()
    }
}

/// Drives one profile stream through a controller, validating the
/// mapping after every event. Returns the leg summary; flips
/// `invariant_ok` on any violation.
fn run_leg(
    profile: StreamProfile,
    seed: u64,
    events: u64,
    config: ChurnConfig,
    invariant_ok: &mut bool,
) -> Leg {
    let net = builders::hypercube(4);
    let mut ctl = ChurnController::new(net.clone(), config.clone()).expect("controller");
    let mut rejected = 0u64;
    let mut comm_samples: Vec<u64> = Vec::new();
    // The rates time `ingest` alone. `validate` cross-checks the
    // controller's live index against a scan of every task ever spawned,
    // so timing it too would report the harness, not the controller.
    let tenth = (events / 10).max(1);
    let mut ingest = Duration::ZERO;
    let (mut first_tenth, mut last_tenth_from) = (Duration::ZERO, Duration::ZERO);
    for (i, ev) in EventStream::new(net, profile, seed, events, config.load_bound).enumerate() {
        if i as u64 == tenth {
            first_tenth = ingest;
        }
        if i as u64 == events - tenth {
            last_tenth_from = ingest;
        }
        let t0 = Instant::now();
        let accepted = ctl.ingest(&ev).is_ok();
        ingest += t0.elapsed();
        if !accepted {
            rejected += 1;
        }
        if let Err(e) = ctl.validate() {
            eprintln!(
                "INVARIANT VIOLATED: {} event {i} left an invalid mapping: {e}",
                profile.name()
            );
            *invariant_ok = false;
        }
        if i % 1024 == 0 {
            comm_samples.push(ctl.total_comm_cost());
        }
    }
    let rate = |n: u64, d: Duration| n as f64 / d.as_secs_f64().max(1e-9);
    let stats = ctl.stats().clone();
    if stats.max_window_migrations > config.migration_cap as u64 {
        eprintln!(
            "INVARIANT VIOLATED: {} window saw {} voluntary migrations (cap {})",
            profile.name(),
            stats.max_window_migrations,
            config.migration_cap
        );
        *invariant_ok = false;
    }
    // steady state: average the second half of the comm-cost samples,
    // past the warm-up ramp
    let tail = &comm_samples[comm_samples.len() / 2..];
    let steady_comm = if tail.is_empty() {
        0
    } else {
        tail.iter().sum::<u64>() / tail.len() as u64
    };
    Leg {
        profile: profile.name(),
        events,
        accepted: stats.events,
        rejected,
        forced_migrations: stats.forced_migrations,
        voluntary_migrations: stats.voluntary_migrations,
        migration_traffic: stats.migration_traffic,
        escalations: stats.escalations,
        probes: stats.probes,
        max_window_migrations: stats.max_window_migrations,
        steady_comm,
        final_comm: ctl.total_comm_cost(),
        live_tasks: ctl.num_live(),
        events_per_sec: rate(events, ingest),
        events_per_sec_first_tenth: rate(tenth, first_tenth),
        events_per_sec_last_tenth: rate(tenth, ingest - last_tenth_from),
    }
}

/// The crash leg: journal a flap-storm stream, kill the session halfway
/// (drop, no handshake), resume from the journal, finish the stream —
/// byte-identical at the crash point and at the end against an
/// uninterrupted shadow session.
fn run_crash_leg(seed: u64, events: u64, invariant_ok: &mut bool) -> (u64, bool) {
    let dir = std::env::temp_dir().join(format!("oregami-churn-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("crash.jrnl");
    let net = builders::hypercube(4);
    let budget = Budget::unlimited();
    let all: Vec<_> =
        EventStream::new(net.clone(), StreamProfile::FlapStorm, seed, events, 8).collect();
    let half = all.len() / 2;

    let mut shadow = StreamSession::new(net.clone(), cfg()).expect("shadow");
    let mut live = StreamSession::create(net.clone(), cfg(), &path).expect("journaled");
    for ev in &all[..half] {
        let _ = shadow.ingest_event(ev, &budget);
        let _ = live.ingest_event(ev, &budget);
    }
    drop(live); // SIGKILL stand-in: no flush, no close handshake

    let (mut resumed, recovery) = StreamSession::resume(net, &path).expect("resume");
    let mut byte_identical = true;
    if recovery.truncated {
        eprintln!("INVARIANT VIOLATED: clean kill produced a torn journal tail");
        *invariant_ok = false;
    }
    if resumed.state_record() != shadow.state_record() {
        eprintln!("INVARIANT VIOLATED: resumed state diverged from the shadow at the crash point");
        *invariant_ok = false;
        byte_identical = false;
    }
    for ev in &all[half..] {
        let _ = shadow.ingest_event(ev, &budget);
        let _ = resumed.ingest_event(ev, &budget);
    }
    if resumed.state_record() != shadow.state_record() {
        eprintln!("INVARIANT VIOLATED: resumed stream diverged from the shadow at the end");
        *invariant_ok = false;
        byte_identical = false;
    }
    if resumed.controller().validate().is_err() {
        eprintln!("INVARIANT VIOLATED: crash leg ended with an invalid mapping");
        *invariant_ok = false;
    }
    let replayed = recovery.records.len().saturating_sub(1) as u64;
    let _ = std::fs::remove_dir_all(&dir);
    (replayed, byte_identical)
}

fn main() {
    let mut events = 1_000_000u64;
    let mut seed = 0x0C0Au64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => events = 30_000,
            "--events" => {
                events = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--events needs a count");
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            other => panic!("unknown argument '{other}'"),
        }
    }
    let mut invariant_ok = true;
    let per_leg = (events / 3).max(1);
    println!(
        "churn bench: {events} events total ({per_leg} per profile), seed {seed}, \
         hypercube:4, validated after every event"
    );

    let start_all = Instant::now();
    let legs: Vec<Leg> = [
        StreamProfile::Bursty,
        StreamProfile::Diurnal,
        StreamProfile::FlapStorm,
    ]
    .into_iter()
    .map(|p| run_leg(p, seed, per_leg, cfg(), &mut invariant_ok))
    .collect();
    for l in &legs {
        println!(
            "  {:<10} {} accepted / {} rejected  {} forced + {} voluntary migrations \
             ({} traffic)  steady comm {}  {:.0} ev/s (first tenth {:.0}, last tenth {:.0})",
            l.profile,
            l.accepted,
            l.rejected,
            l.forced_migrations,
            l.voluntary_migrations,
            l.migration_traffic,
            l.steady_comm,
            l.events_per_sec,
            l.events_per_sec_first_tenth,
            l.events_per_sec_last_tenth
        );
    }

    // mid-stream kill + resume, byte-compared against an uninterrupted shadow
    let crash_events = (events / 100).clamp(500, 5_000);
    let (replayed, byte_identical) = run_crash_leg(seed, crash_events, &mut invariant_ok);
    println!(
        "  crash leg: {crash_events} events, killed halfway, {replayed} frames replayed, \
         byte-identical: {byte_identical}"
    );

    // hysteresis sweep: the contention/migration trade-off table (A6)
    let sweep_events = (events / 10).max(1);
    let mut sweep: Vec<(u64, Leg)> = Vec::new();
    for sv in [0u64, 1, 8, 64] {
        let config = ChurnConfig {
            state_volume: sv,
            ..cfg()
        };
        let leg = run_leg(
            StreamProfile::Bursty,
            seed ^ sv,
            sweep_events,
            config,
            &mut invariant_ok,
        );
        println!(
            "  state_volume {sv:>3}: steady comm {}  migration traffic {}  \
             {} voluntary",
            leg.steady_comm, leg.migration_traffic, leg.voluntary_migrations
        );
        sweep.push((sv, leg));
    }
    let wall = start_all.elapsed();
    println!(
        "  total {:.2}s  invariant: {}",
        wall.as_secs_f64(),
        if invariant_ok { "ok" } else { "VIOLATED" }
    );

    let leg_json = |l: &Leg| {
        format!(
            "{{\"profile\": \"{}\", \"events\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"forced_migrations\": {}, \"voluntary_migrations\": {}, \
             \"migration_traffic\": {}, \"escalations\": {}, \"probes\": {}, \
             \"max_window_migrations\": {}, \"steady_comm\": {}, \"final_comm\": {}, \
             \"live_tasks\": {}, \"events_per_sec\": {:.0}, \
             \"events_per_sec_first_tenth\": {:.0}, \"events_per_sec_last_tenth\": {:.0}}}",
            l.profile,
            l.events,
            l.accepted,
            l.rejected,
            l.forced_migrations,
            l.voluntary_migrations,
            l.migration_traffic,
            l.escalations,
            l.probes,
            l.max_window_migrations,
            l.steady_comm,
            l.final_comm,
            l.live_tasks,
            l.events_per_sec,
            l.events_per_sec_first_tenth,
            l.events_per_sec_last_tenth
        )
    };
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"churn\",\n");
    json.push_str(&format!("  \"events\": {events},\n  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"migration_cap\": {},\n  \"topology\": \"hypercube:4\",\n",
        cfg().migration_cap
    ));
    json.push_str("  \"legs\": [\n");
    let legs_rendered: Vec<String> = legs.iter().map(|l| format!("    {}", leg_json(l))).collect();
    json.push_str(&legs_rendered.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"crash_leg\": {{\"events\": {crash_events}, \"frames_replayed\": {replayed}, \
         \"byte_identical\": {byte_identical}}},\n"
    ));
    json.push_str("  \"hysteresis_sweep\": [\n");
    let sweep_rendered: Vec<String> = sweep
        .iter()
        .map(|(sv, l)| format!("    {{\"state_volume\": {sv}, \"leg\": {}}}", leg_json(l)))
        .collect();
    json.push_str(&sweep_rendered.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"total_s\": {:.3},\n  \"invariant_ok\": {invariant_ok}\n",
        wall.as_secs_f64()
    ));
    json.push_str("}\n");
    let path = "BENCH_churn.json";
    std::fs::write(path, &json).expect("write benchmark artifact");
    println!("  wrote {path}");

    if !invariant_ok {
        std::process::exit(1);
    }
}
