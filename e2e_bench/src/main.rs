//! `e2e_bench`: the repo's one benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```sh
//! # one workload, the way the benchmark driver runs it
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload general_scale --seed 11 --seconds 15 --trace 0
//! # every workload, each in its own child process, untraced then traced
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- --seed 11
//! ```

mod harness;
mod workloads;

use harness::stats::{median, quartiles, tail};
use harness::trace::Tracer;
use harness::{Layers, Timed, END_TO_END, PER_LAYER};
use oregami_daemon::json::{self, obj, Json};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: e2e_bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] [--selfcheck]";

/// Mapper threads, daemon workers, load-generator threads: fixed, and
/// stamped into the output because the numbers depend on them.
pub const MAPPER_THREADS: usize = 1;
pub const DAEMON_WORKERS: usize = 2;
pub const GENERATOR_CONNECTIONS: usize = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: 15.0,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                seconds_given = true;
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes 0 or 1
                a.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.smoke && !seconds_given {
        a.seconds = 0.2;
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => {
            use workloads::*;
            match name.as_str() {
                "corpus_map" => run::<corpus_map::CorpusMap>(name, &args),
                "general_scale" => run::<general_scale::GeneralScale>(name, &args),
                "multilevel_scale" => run::<multilevel_scale::MultilevelScale>(name, &args),
                "edit_session" => run::<edit_session::EditSession>(name, &args),
                "churn_stream" => run::<churn_stream::ChurnStream>(name, &args),
                "storm_repair" => run::<storm_repair::StormRepair>(name, &args),
                "daemon_open_loop" => run::<daemon_open_loop::DaemonOpenLoop>(name, &args),
                _ => {
                    eprintln!("unknown workload '{name}'\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        None if args.selfcheck => selfcheck(&args),
        None => match run_set(&args) {
            Ok(doc) => {
                println!("{}", doc.render());
                doc.get("correct").and_then(Json::as_bool) == Some(true)
            }
            Err(e) => {
                eprintln!("{e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result: a detail
/// line (digest, sample counts, tail), then the contract's result line.
fn run<W: Workload>(name: &str, a: &Args) -> bool {
    // Set-up runs several times so its reported time is a median; only
    // the last instance is kept. Quick set-ups repeat more often, up to
    // about a second and a half in all.
    let mut setups: Vec<f64> = Vec::new();
    let mut w = None;
    while setups.len() < 3 || (setups.len() < 100 && setups.iter().sum::<f64>() < 1.5) {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(W::setup(a.seed, a.smoke));
        setups.push(t0.elapsed().as_secs_f64());
        if a.smoke {
            break;
        }
    }
    let mut w = w.expect("set-up ran");

    let mut tr = Tracer::new(false);
    let (timed, metrics) = if !a.trace {
        let timed = w.timed(a.seconds, &mut tr);
        let metrics = end_to_end(&timed, median(&setups));
        (timed, metrics)
    } else {
        // A short untraced leg first: it is the reference the traced
        // leg's overhead is measured against, and it warms the caches.
        let base = w.timed(a.seconds * 0.25, &mut tr);
        tr.set_enabled(true);
        let cpu0 = harness::cpu_seconds();
        let traced = w.timed(a.seconds * 0.75, &mut tr);
        let cpu = harness::cpu_seconds();
        let mut layers = Layers::default();
        layers.absorb_spans(&tr, traced.op_ms.len());
        w.layers(&mut tr, &traced, &mut layers);
        // the very first op runs cold and is reported on its own
        let warm = &base.op_ms[usize::from(base.op_ms.len() > 1)..];
        layers.set(
            "bench.trace_overhead_share",
            median(&traced.op_ms) / median(warm) - 1.0,
        );
        layers.set("bench.first_op_ms", base.first_op_ms);
        let (user, sys) = (cpu.0 - cpu0.0, cpu.1 - cpu0.1);
        layers.set("bench.sys_cpu_share", sys / (user + sys).max(1e-9));
        write_trace(name, &tr);
        let mut merged = traced;
        merged.failed += base.failed;
        merged.attempted += base.attempted;
        if base.checked != merged.checked {
            eprintln!("output digest differs between the untraced and the traced leg");
            merged.failed += 1;
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(n, unit)| (n, unit, layers.get(n)))
            .collect();
        (merged, metrics)
    };
    drop(w);

    let correct = timed.failed == 0 && timed.checked.is_some();
    let (tail_p, tail_ms) = tail(&timed.op_ms);
    let detail = obj()
        .field("workload", name)
        .field("seed", a.seed)
        .field("traced", a.trace)
        .field(
            "output_digest",
            timed
                .checked
                .map_or(Json::Null, |c| format!("{:016x}", c.digest).into()),
        )
        .field("op_samples", timed.op_ms.len())
        .field(
            "op_ms_quartiles",
            match timed.op_ms.len() {
                0 | 1 => Json::Null,
                _ => Json::Arr(quartiles(&timed.op_ms).map(Json::from).to_vec()),
            },
        )
        .field(
            "op_ms_tail",
            obj()
                .field("percentile", tail_p)
                .field("value", tail_ms)
                .build(),
        )
        .field(
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&s| s.into()).collect()),
        )
        .build();
    println!("{}", detail.render());
    let mut fields = obj();
    for (n, unit, value) in metrics {
        fields = fields.field(n, obj().field("value", value).field("unit", unit).build());
    }
    let result = obj()
        .field("correct", correct)
        .field("attempted", timed.attempted.max(1))
        .field("failed", timed.failed)
        .field("metrics", fields.build())
        .build();
    println!("{}", result.render());
    correct
}

fn end_to_end(t: &Timed, setup_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let ops = t.op_ms.len().max(1) as f64;
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "ops_per_s" => t.op_ms.len() as f64 / t.timed_s,
        "op_ms_p50" => median(&t.op_ms),
        "cpu_ms_per_op" => t.cpu_s * 1e3 / ops,
        "peak_rss_mb" => harness::peak_rss_mb(),
        "mapping_cost" => t.checked.map_or(f64::NAN, |c| c.mapping_cost as f64),
        "within_limit_share" => t.within_limit as f64 / t.attempted.max(1) as f64,
        other => unreachable!("end-to-end metric '{other}' has no definition"),
    };
    END_TO_END
        .iter()
        .map(|&(n, unit)| (n, unit, value(n)))
        .collect()
}

/// Where the benchmark keeps its own files (traces, the daemon's socket
/// and state, the journaled leg): under the build directory, which
/// `.gitignore` names. Relative, so a Unix socket path stays short.
pub fn scratch_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("e2e_bench")
}

fn write_trace(name: &str, tr: &Tracer) {
    let dir = scratch_dir();
    let path = dir.join(format!("trace-{name}.json"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json().render()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process and returns its two result
/// lines `(detail, result)` parsed.
fn child(a: &Args, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parsed = || {
        lines
            .next()
            .and_then(|l| json::parse(l).ok())
            .ok_or_else(|| format!("{workload} printed no result (exit {})", out.status))
    };
    let result = parsed()?;
    Ok((parsed()?, result))
}

/// One full set: every workload untraced, then every workload traced,
/// as one JSON document.
fn run_set(a: &Args) -> Result<Json, String> {
    let mut all_correct = true;
    let mut rows = obj();
    for &name in WORKLOADS {
        eprintln!("e2e_bench: {name}");
        let (detail, untraced) = child(a, name, false)?;
        let (traced_detail, traced) = child(a, name, true)?;
        let correct = [&untraced, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
            && detail.get("output_digest") == traced_detail.get("output_digest");
        all_correct &= correct;
        let failed = |r: &Json| r.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let attempted = |r: &Json| r.get("attempted").and_then(Json::as_u64).unwrap_or(1);
        let mut row = obj().field("correct", correct);
        for key in [
            "output_digest",
            "op_samples",
            "op_ms_quartiles",
            "op_ms_tail",
        ] {
            row = row.field(key, detail.get(key).cloned().unwrap_or(Json::Null));
        }
        rows = rows.field(
            name,
            row.field(
                "failed_share",
                (failed(&untraced) + failed(&traced)) as f64
                    / (attempted(&untraced) + attempted(&traced)) as f64,
            )
            .field(
                "end_to_end",
                untraced.get("metrics").cloned().unwrap_or(Json::Null),
            )
            .field(
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Json::Null),
            )
            .build(),
        );
    }
    Ok(obj()
        .field("bench", "e2e")
        .field("correct", all_correct)
        .field("seed", a.seed)
        .field("seconds", a.seconds)
        .field("git_rev", tool_line("git", &["rev-parse", "HEAD"]))
        .field("rustc", tool_line("rustc", &["--version"]))
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        )
        .field("mapper_threads", MAPPER_THREADS)
        .field("daemon_workers", DAEMON_WORKERS)
        .field("generator_connections", GENERATOR_CONNECTIONS)
        .field("workloads", rows.build())
        .build())
}

/// Two full sets of the same build, compared the way the driver compares
/// a change with its parent: the second set may not be worse than the
/// first by more than a metric's bound, and the exact outputs (digest,
/// `mapping_cost`) must repeat bit for bit.
fn selfcheck(a: &Args) -> bool {
    let bounds = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("--selfcheck reads BENCHMARK.json from the current directory: {e}");
            return false;
        }
    };
    let sets: Vec<Json> = match (0..2).map(|_| run_set(a)).collect() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let mut ok = sets
        .iter()
        .all(|s| s.get("correct").and_then(Json::as_bool) == Some(true));
    for &w in WORKLOADS {
        let row = |i: usize| sets[i].get("workloads").and_then(|r| r.get(w));
        if row(0).and_then(|r| r.get("output_digest"))
            != row(1).and_then(|r| r.get("output_digest"))
        {
            println!("{w}: output_digest differs between the two sets");
            ok = false;
        }
        for m in bounds
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let value = |i: usize| {
                row(i)
                    .and_then(|r| r.get("end_to_end"))
                    .and_then(|e| e.get(name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let (first, second) = (value(0), value(1));
            let worse = if lower {
                second / first - 1.0
            } else {
                1.0 - second / first
            };
            let exact = name == "mapping_cost";
            let pass = if exact {
                first == second
            } else {
                worse <= bound
            };
            println!(
                "{w:<18} {name:<20} {first:>14.4} {second:>14.4}  worse by {:>7.4} (bound {bound}) {}",
                worse,
                if pass { "ok" } else { "FAIL" }
            );
            ok &= pass;
        }
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    ok
}
