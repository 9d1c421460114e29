//! The local driver: map here, then run whatever the flags ask of the
//! mapping — route compression, edit replay, fault injection, a fault
//! sweep, the views — as a sequence of short steps over one toolchain.
//!
//! A plain run maps through `map_source` and is unsupervised; any
//! budget, chain or supervision flag routes through the
//! fallback-chain engine instead (and prints its record). The daemon
//! always does the latter; both read the request off the same `MapSpec`.

use crate::args::{self, Args};
use crate::{journal_xor_resume, need, report_recovery, usage, CliError, NO_PROGRAM, NO_TOPOLOGY};
use oregami::metrics::schedule;
use oregami::replay::{self, ReplayOp};
use oregami::topology::ProcId;
use oregami::{
    DispatchError, Dispatched, DomainMap, EditError, FaultSet, InteractiveSession, Journal,
    MetricsDelta, Oregami, OregamiError, OregamiResult, SupervisorConfig,
};
use oregami_daemon::request::compress_machine_routes;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

type Domains = Option<Arc<DomainMap>>;

pub(crate) fn run(args: &Args) -> Result<ExitCode, CliError> {
    need(&args.spec.source, NO_PROGRAM)?;
    need(&args.spec.topology, NO_TOPOLOGY)?;
    let (system, domains) = toolchain(args)?;
    let boot_faults = boot_scan(args, &system, &domains);
    let mut result = map(args, &system)?;
    if domains.is_some() {
        compress_routes(args, &system, &result)?;
    }
    let replay_degraded = replay(args, &system, &mut result)?;
    inject_faults(args, &system, &domains, &result, boot_faults)?;
    if let Some(k) = args.fault_sweep {
        fault_sweep(args, &system, &domains, &result, k);
    }
    views(args, &system, &result)?;
    if result.is_degraded() || replay_degraded {
        // served, but a budget cut the search short: dedicated exit code
        // so scripts can tell "best possible" from "best we had time for"
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}

/// --grace-ms / --chaos only make sense supervised; they imply the flag.
fn supervised(args: &Args) -> bool {
    args.supervise || args.grace_ms.is_some() || args.spec.chaos.is_some()
}

/// The request's toolchain plus what is the CLI's: the cost model and a
/// private supervisor when asked.
fn toolchain(args: &Args) -> Result<(Oregami, Domains), CliError> {
    let (system, domains) = args.spec.toolchain()?;
    if domains.is_none() && (!args.fail_boards.is_empty() || args.boot_dead.is_some()) {
        return Err(usage(
            "--fail-board and --boot-dead need --machine (flat topologies have \
             no fault domains)",
        ));
    }
    let mut system = system.with_cost_model(args.cost.clone());
    if supervised(args) {
        let mut sup = SupervisorConfig::default();
        if let Some(ms) = args.grace_ms {
            sup = sup.with_grace(Duration::from_millis(ms));
        }
        if let Some(chaos) = args.spec.chaos().map_err(|e| format!("--chaos: {e}"))? {
            sup = sup.with_chaos(chaos);
        }
        system = system.with_supervisor(sup);
    }
    Ok((system, domains))
}

/// Boot-time health discovery (SpiNNTools-style dead-at-boot scan):
/// discovered faults are folded into the fault-injection set so the
/// served mapping is repaired around them from the start.
fn boot_scan(args: &Args, system: &Oregami, domains: &Domains) -> FaultSet {
    let (Some(domains), Some(permille)) = (domains, args.boot_dead) else {
        return FaultSet::new();
    };
    let health = oregami::boot_scan(system.network(), domains, args.boot_seed, permille);
    println!(
        "boot scan (seed {}): {} processor(s) dead, {} extra link(s) dead, \
         {}/{} domain(s) degraded",
        health.seed,
        health.dead_procs.len(),
        health.dead_links.len(),
        health.domains_degraded,
        health.domains_total,
    );
    health.fault_set()
}

/// Maps the program and prints the report.
fn map(args: &Args, system: &Oregami) -> Result<OregamiResult, CliError> {
    let spec = &args.spec;
    let budgeted = spec.deadline_ms.is_some()
        || spec.max_steps.is_some()
        || spec.chain.is_some()
        || supervised(args);
    let result = if budgeted {
        let chain = spec.chain()?;
        system.map_source_with_budget(&spec.source, &spec.param_refs(), &chain, &spec.budget())?
    } else {
        system.map_source(&spec.source, &spec.param_refs())?
    };
    println!(
        "mapped '{}' ({} tasks, {} phases) onto {} ({} processors)",
        spec.label,
        result.task_graph.num_tasks(),
        result.task_graph.num_phases(),
        system.network().name,
        system.network().num_procs(),
    );
    println!("strategy: {:?}", result.report.strategy);
    for note in &result.report.notes {
        println!("note: {note}");
    }
    if let Some(engine) = &result.engine {
        println!("{engine}");
    }
    println!();
    println!("{}", result.metrics.render());
    Ok(result)
}

/// Machine mappings must fit the per-processor routing hardware:
/// compress the route tables against the budget and fail typed (exit 4)
/// when even compression cannot fit them.
fn compress_routes(args: &Args, system: &Oregami, result: &OregamiResult) -> Result<(), CliError> {
    let compression = compress_machine_routes(system, result, args.route_budget.unwrap_or(1024))
        .map_err(OregamiError::Fault)?;
    println!(
        "route compression: {} -> {} entries (budget {}/proc, max {} at P{}, \
         headroom {})",
        compression.raw_entries,
        compression.compressed_entries,
        compression.budget,
        compression.max_entries_per_proc,
        compression.hottest_proc.0,
        compression.headroom(),
    );
    Ok(())
}

/// One compact line summarising what an edit changed.
fn delta_line(d: &MetricsDelta) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
    format!(
        "  max-volume {} -> {}  max-dilation {} -> {}  completion {} -> {}  ({} ledger entries touched)",
        d.before.max_link_volume,
        d.after.max_link_volume,
        d.before.max_dilation,
        d.after.max_dilation,
        opt(d.before.completion_time),
        opt(d.after.completion_time),
        d.edges_touched
    )
}

/// Interactive replay: apply an edit script through the incremental
/// METRICS engine, printing the per-edit deltas the paper's GUI showed
/// after each mouse-driven modification. With --journal every applied
/// edit is also framed to a crash-safe write-ahead log; --resume reopens
/// a session from such a log first. Returns whether a budget stopped the
/// replay early; a `program` edit replaces `result`.
fn replay(args: &Args, system: &Oregami, result: &mut OregamiResult) -> Result<bool, CliError> {
    journal_xor_resume(args)?;
    if args.edits.is_none() && args.journal.is_none() && args.resume.is_none() {
        return Ok(false);
    }
    let mut session = if let Some(jpath) = &args.resume {
        let (session, recovery) = system.resume(result, Path::new(jpath))?;
        report_recovery(jpath, &recovery, recovery.records.len(), "edit");
        session
    } else {
        let mut session = system.interactive(result)?;
        if let Some(jpath) = &args.journal {
            let journal = Journal::create(Path::new(jpath))
                .map_err(|e| format!("cannot create journal: {e}"))?;
            session.attach_journal(journal);
            println!("journalling edits to {jpath}");
        }
        session
    };
    let mut degraded = false;
    if let Some(path) = &args.edits {
        degraded = replay_script(args, path, &mut session, result)?;
    }
    println!(
        "replayed {} edit(s); final session state:",
        session.edit_log().len()
    );
    println!("{}", session.report().render());
    if let Some(warning) = session.journal_error() {
        eprintln!("warning: {warning}");
    }
    Ok(degraded)
}

/// Dispatches the script's lines one by one; `Ok(true)` when the budget
/// stopped it early.
fn replay_script(
    args: &Args,
    path: &str,
    session: &mut InteractiveSession,
    result: &mut OregamiResult,
) -> Result<bool, CliError> {
    let text = args::read(path)?;
    // a fresh budget: the replay's deadline and step quota are its own,
    // not what the mapping left over
    let budget = args.spec.budget();
    println!("-- interactive replay from {path} --");
    for (lineno, raw) in text.lines().enumerate() {
        let n = lineno + 1;
        let op = match replay::parse_line(raw) {
            Ok(Some(op)) => op,
            Ok(None) => continue,
            Err(e) => return Err(usage(format!("{path}:{n}: {e}"))),
        };
        match &op {
            ReplayOp::Apply(edit) => println!("{path}:{n}: {edit}"),
            ReplayOp::Program { phase, rule, text } => {
                println!("{path}:{n}: program {phase} {rule} {text}")
            }
            ReplayOp::Undo | ReplayOp::Stream(_) => {}
        }
        match session.dispatch(op, &budget, |_, _| Ok(())) {
            Ok(Dispatched::Applied(delta)) => println!("{}", delta_line(&delta)),
            Ok(Dispatched::Undone(Some(delta))) => {
                println!("{path}:{n}: undo");
                println!("{}", delta_line(&delta));
            }
            Ok(Dispatched::Undone(None)) => println!("{path}:{n}: undo (nothing to undo)"),
            // A program edit changes the computation itself, not just its
            // placement: the session recompiled, remapped and restarted
            // on the new graph (edit log reset, any active journal
            // restarted); everything after reports on the new result.
            Ok(Dispatched::Recompiled(remapped)) => {
                *result = *remapped;
                println!(
                    "  recompiled: {} tasks remapped; session restarted",
                    result.task_graph.num_tasks()
                );
            }
            Err(DispatchError::Edit(EditError::Budget(c))) => {
                session.annotate(format!("replay stopped early at {path}:{n}: {c}"));
                return Ok(true);
            }
            Err(DispatchError::Stream) => {
                return Err(usage(format!(
                    "{path}:{n}: stream events (spawn/depart/load/recover) \
                     replay with --stream, not --edits"
                )));
            }
            Err(DispatchError::Remap(e)) => return Err(e.into()),
            Err(DispatchError::Journal(e)) => {
                return Err(usage(format!("cannot restart journal: {e}")));
            }
            Err(e) => return Err(usage(format!("{path}:{n}: {e}"))),
        }
    }
    Ok(false)
}

/// `--fail-proc` / `--fail-link` / `--fail-board` plus whatever the boot
/// scan found dead: degrade, repair, and re-run METRICS.
fn inject_faults(
    args: &Args,
    system: &Oregami,
    domains: &Domains,
    result: &OregamiResult,
    boot_faults: FaultSet,
) -> Result<(), CliError> {
    let mut faults = boot_faults;
    let mut fail = |set: FaultSet| {
        for p in set.procs() {
            faults.fail_proc(p);
        }
        for l in set.links() {
            faults.fail_link(l);
        }
    };
    fail(args.spec.fault_set());
    for &board in &args.fail_boards {
        // `toolchain` refused board faults on a flat topology
        let domains = domains
            .as_ref()
            .expect("--fail-board was checked to have a machine");
        fail(
            domains
                .board_fault_set(system.network(), board)
                .map_err(OregamiError::Fault)?,
        );
    }
    if faults.is_empty() {
        return Ok(());
    }
    let rec = system.repair(result, &faults, &args.spec.repair_options(domains.as_ref()))?;
    if !args.fail_boards.is_empty() {
        println!(
            "-- board loss: board(s) {:?} failed atomically (processors, \
             intra-board links, uplinks) --",
            args.fail_boards
        );
    }
    println!(
        "-- fault injection: {} processor(s) + {} link(s) failed ({} links out of service) --",
        rec.degraded.failed_procs().len(),
        faults.links().count(),
        rec.degraded.failed_links().len(),
    );
    println!("{}", rec.repair);
    println!("METRICS recomputed on the degraded network:");
    println!("{}", rec.metrics.render());
    Ok(())
}

/// `--fault-sweep K`: K single-processor-failure scenarios, summarised.
fn fault_sweep(args: &Args, system: &Oregami, domains: &Domains, result: &OregamiResult, k: usize) {
    let ropts = args.spec.repair_options(domains.as_ref());
    let num_procs = system.network().num_procs();
    let (mut repaired, mut escalated, mut unrepairable) = (0usize, 0usize, 0usize);
    for i in 0..k {
        let victim = ProcId((i % num_procs) as u32);
        match system.repair(result, &FaultSet::new().with_proc(victim), &ropts) {
            Ok(rec) => {
                repaired += 1;
                escalated += usize::from(rec.repair.escalated);
            }
            Err(_) => unrepairable += 1,
        }
    }
    println!(
        "fault sweep: {k} single-processor scenarios — {repaired} repaired \
         ({escalated} escalated), {unrepairable} unrepairable"
    );
    let stats = system.cache_stats();
    println!(
        "route-table cache: {} hits, {} misses over the sweep ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
}

/// `--timeline`, `--directives`, and the three Graphviz outputs.
fn views(args: &Args, system: &Oregami, result: &OregamiResult) -> Result<(), CliError> {
    let (tg, net, mapping) = (&result.task_graph, system.network(), &result.report.mapping);
    if args.timeline {
        if let Some(tl) = oregami::metrics::timeline(tg, net, mapping, &args.cost) {
            println!("{}", tl.render());
        }
    }
    if args.directives {
        println!("-- scheduling directives (task synchrony) --");
        for d in &schedule::local_directives(tg, net, mapping) {
            let line = schedule::render_directive(tg, d);
            if !line.ends_with(": ") {
                println!("{line}");
            }
        }
        let sets = schedule::synchrony_sets(tg, net, mapping);
        println!("{} synchrony set(s) per execution slot", sets.len());
    }
    write_dot(&args.dot, "task graph", || oregami::graph::dot::to_dot(tg))?;
    write_dot(&args.map_dot, "mapping", || {
        oregami::metrics::mapping_to_dot(tg, net, mapping)
    })?;
    write_dot(&args.net_dot, "network heat view", || {
        oregami::metrics::network_to_dot(tg, net, mapping)
    })
}

fn write_dot(
    path: &Option<String>,
    what: &str,
    dot: impl FnOnce() -> String,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, dot()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("{what} written to {path}");
    Ok(())
}
