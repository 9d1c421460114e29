//! The `oregami` command-line tool: map a LaRCS program onto a target
//! architecture and print the METRICS report.
//!
//! ```sh
//! oregami --program nbody --topology hypercube:3 -P n=16 -P s=4 -P msgsize=8
//! oregami --file myalgo.larcs --topology mesh2d:4x4 -P n=8 --dot out.dot
//! oregami --program nbody --topology hypercube:3 --fail-proc 5 --fail-link 2
//! oregami --list                      # built-in programs and topologies
//! ```
//!
//! Exit codes: 0 success, 2 usage/input error, 3 mapping failure,
//! 4 fault-injection error (bad ids), 5 unrepairable fault, 6 a budget
//! (--deadline-ms / --max-steps) cut the search short and a valid but
//! possibly suboptimal mapping was served, 7 the supervised engine
//! could not serve any mapping (every stage failed, hung, or was
//! breaker-skipped).

use oregami::larcs::programs;
use oregami::metrics::schedule;
use oregami::replay::{self, ReplayOp};
use oregami::topology::{LinkId, Network, ProcId};
use oregami::{
    Budget, ChaosConfig, ChurnConfig, CostModel, DispatchError, Dispatched, EditError,
    FallbackChain, FaultSet, Journal, MapperOptions, MetricsDelta, Oregami, OregamiError,
    RepairOptions, StreamError, StreamSession, SupervisorConfig,
};
use oregami_daemon::json::{obj, Json};
use oregami_daemon::topo::parse_target;
use oregami_daemon::Client;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    source: Option<String>,
    source_label: String,
    default_params: Vec<(String, i64)>,
    topology: Option<Network>,
    /// The raw `--topology` / `--machine` spec string, for daemon client
    /// mode.
    topology_spec: Option<String>,
    /// The fault-domain map of a lowered `--machine`, for blast-radius
    /// repair and `--fail-board`.
    machine_domains: Option<std::sync::Arc<oregami::DomainMap>>,
    fail_boards: Vec<u32>,
    boot_seed: u64,
    boot_dead: Option<u32>,
    route_budget: usize,
    params: Vec<(String, i64)>,
    load_bound: Option<usize>,
    dot: Option<String>,
    map_dot: Option<String>,
    net_dot: Option<String>,
    directives: bool,
    timeline: bool,
    cost: CostModel,
    list: bool,
    fail_procs: Vec<u32>,
    fail_links: Vec<u32>,
    fault_sweep: Option<usize>,
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    fallback: bool,
    chain: Option<String>,
    threads: usize,
    edits: Option<String>,
    fmt: Option<String>,
    stream: Option<String>,
    supervise: bool,
    grace_ms: Option<u64>,
    chaos: Option<String>,
    journal: Option<String>,
    resume: Option<String>,
    socket: Option<String>,
    remote_health: bool,
    remote_shutdown: bool,
}

/// CLI failure with a dedicated exit code per class, so scripts driving
/// fault sweeps can tell "bad invocation" from "unrepairable fault".
enum CliError {
    /// Bad arguments / unreadable input (exit 2).
    Usage(String),
    /// LaRCS or MAPPER failure (exit 3).
    Map(OregamiError),
    /// Fault injection rejected the fault ids (exit 4).
    Fault(OregamiError),
    /// The mapping could not be repaired (exit 5).
    Repair(OregamiError),
    /// The supervised engine could not serve any mapping (exit 7).
    Unserviceable(OregamiError),
    /// A typed error from a daemon in `--socket` mode: `(kind, message)`.
    /// Shed work (`overloaded` / `shutting_down`) exits 8 so retry loops
    /// can tell "back off" from "give up".
    Remote(String, String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Map(_) => 3,
            CliError::Fault(_) => 4,
            CliError::Repair(_) => 5,
            CliError::Unserviceable(_) => 7,
            CliError::Remote(kind, _) => match kind.as_str() {
                "overloaded" | "shutting_down" => 8,
                "unserviceable" => 7,
                "repair" => 5,
                "fault" => 4,
                "map" | "internal" => 3,
                _ => 2,
            },
        }
    }

    fn message(&self) -> String {
        match self {
            CliError::Usage(m) => m.clone(),
            CliError::Map(e)
            | CliError::Fault(e)
            | CliError::Repair(e)
            | CliError::Unserviceable(e) => e.to_string(),
            CliError::Remote(kind, m) => format!("daemon ({kind}): {m}"),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<OregamiError> for CliError {
    fn from(e: OregamiError) -> Self {
        match &e {
            OregamiError::Fault(_) => CliError::Fault(e),
            OregamiError::Repair(_) => CliError::Repair(e),
            OregamiError::Map(oregami::mapper::MapError::Unserviceable(_)) => {
                CliError::Unserviceable(e)
            }
            OregamiError::Journal(_) => CliError::Usage(e.to_string()),
            _ => CliError::Map(e),
        }
    }
}

fn usage() -> &'static str {
    "oregami — map parallel computations to parallel architectures\n\
     \n\
     USAGE:\n\
       oregami (--program NAME | --file PATH.larcs) --topology KIND[:ARGS] [options]\n\
       oregami --list\n\
     \n\
     OPTIONS:\n\
       --program NAME         built-in LaRCS program (see --list)\n\
       --file PATH            LaRCS source file\n\
       --topology SPEC        hypercube:D | mesh2d:RxC | torus2d:RxC | ring:N |\n\
                              chain:N | complete:N | star:N | tree:H | butterfly:D\n\
       --machine SPEC         hierarchical machine, lowered to a flat network\n\
                              with fault domains: mesh-boards:RxCxrxc (R×C\n\
                              boards of r×c meshes, torus between boards) |\n\
                              fat-tree:AxH | dragonfly:GxAxP | rc-array[:PHASES]\n\
                              Optional attrs: ,bw=L0/L1 ,speed=S0/S1 ,mem=M\n\
                              ,reconfig=MS (e.g. mesh-boards:4x4x8x8,bw=1000/250)\n\
       -P, --param NAME=VAL   bind a LaRCS parameter (repeatable)\n\
       -B, --load-bound B     max tasks per processor\n\
       --byte-time T          cost model: time per volume unit     (default 1)\n\
       --hop-latency T        cost model: per-hop latency          (default 1)\n\
       --startup T            cost model: per-phase startup        (default 0)\n\
       --dot PATH             also write the task graph as Graphviz\n\
       --map-dot PATH         write the mapping (clustered by processor)\n\
       --net-dot PATH         write the network with routed volumes\n\
       --directives           print per-processor scheduling directives\n\
       --timeline             print the completion-time breakdown\n\
       --fail-proc P          fail processor P, repair the mapping (repeatable)\n\
       --fail-link L          fail link L, repair the mapping (repeatable)\n\
       --fail-board B         fail every processor and link of board B plus its\n\
                              uplinks atomically, then repair blast-radius-aware\n\
                              (repeatable; needs --machine)\n\
       --boot-seed N          seed for the boot-time health scan (default 0)\n\
       --boot-dead PM         boot-time health scan: each processor is dead at\n\
                              boot with probability PM permille; discovered\n\
                              faults feed the initial degraded mapping\n\
                              (needs --machine)\n\
       --route-budget N       per-processor routing-table hardware entries;\n\
                              machine mappings are compressed against this\n\
                              budget and over-budget is a typed fault (exit 4)\n\
       --fault-sweep K        try K single-processor-failure scenarios and\n\
                              summarise repairability\n\
       --deadline-ms MS       stop searching after MS milliseconds and serve the\n\
                              best mapping found (exit 6 when the deadline fired)\n\
       --max-steps N          cap total search steps (same anytime semantics)\n\
       --fallback             run the full fallback chain\n\
                              (exhaustive -> heuristic -> identity)\n\
       --chain A,B,..         custom fallback chain from: exhaustive, heuristic,\n\
                              multilevel (alias ml), identity; multilevel\n\
                              coarsens-maps-refines and scales to 100k+ tasks\n\
       --threads N            run fallback-chain stages on N worker threads\n\
                              (deterministic outcome; implies the engine path)\n\
       --edits PATH           replay an edit script against the mapping through\n\
                              the incremental METRICS engine, printing per-edit\n\
                              metric deltas and the final session report.\n\
                              Lines: reassign T P | reroute K E P0 P1.. |\n\
                              fault proc:N link:N.. | undo |\n\
                              program COMPHASE RULE# NEW-RULE-TEXT | # comment\n\
                              (a program line splices the rule through the\n\
                              incremental LaRCS front end, recompiles, remaps,\n\
                              and restarts the session; budget flags bound the\n\
                              replay too; exit 6 when the budget stops it early)\n\
       --fmt PATH             reformat a LaRCS source file to canonical style,\n\
                              print it to stdout, and exit (idempotent; needs\n\
                              no --topology; exit 2 on a parse error)\n\
       --stream FILE|-        ingest a churn event stream (FILE, or stdin with\n\
                              '-') through the always-valid churn controller.\n\
                              Needs --topology but no program. Lines:\n\
                              spawn T P|- L W | depart T | load T L |\n\
                              fault proc:N link:N.. | recover proc:N link:N..\n\
                              Rejected events (capacity, partition) are warned\n\
                              and skipped; the mapping stays valid throughout.\n\
                              With --journal every accepted event is framed to\n\
                              a crash-safe log; --resume replays such a log\n\
                              byte-identically and continues on it\n\
       --journal PATH         start a crash-safe write-ahead journal: every\n\
                              applied edit is framed, checksummed, and fsynced\n\
                              to PATH (truncates an existing file)\n\
       --resume PATH          reopen a crashed session from its journal: a torn\n\
                              final frame is truncated with a warning, every\n\
                              surviving record replays through the incremental\n\
                              engine, and journalling continues on PATH\n\
       --supervise            run chain stages under a supervisor: watchdog\n\
                              (hung stages detached at deadline + grace),\n\
                              bounded retries, per-stage circuit breaker\n\
                              (implies the engine path; exit 7 when no stage\n\
                              could serve)\n\
       --grace-ms MS          post-deadline grace before a hung stage is\n\
                              detached (default 200; implies --supervise)\n\
       --chaos SPEC           seeded fault injection for resilience testing:\n\
                              seed=N,panic=P,stall=P,stall-ms=MS[,only=STAGE]\n\
                              (implies --supervise; in --socket mode, sent with\n\
                              the request for the daemon to inject)\n\
       --list                 list built-in programs and exit\n\
     \n\
     DAEMON CLIENT (talk to a running oregamid instead of mapping locally):\n\
       --socket PATH          send the request to the oregamid at PATH; map\n\
                              flags (--program/--file, --topology, -P, -B,\n\
                              --deadline-ms, --max-steps, --chain, --fail-proc,\n\
                              --fail-link, --chaos) are forwarded\n\
       --health               query daemon health + counters, print JSON\n\
       --shutdown             ask the daemon to drain gracefully\n\
     \n\
     EXIT CODES:\n\
       0 success    2 usage    3 mapping failed    4 bad fault ids\n\
       5 unrepairable fault    6 budget exhausted but a mapping was served\n\
       7 unserviceable: the supervised chain could not serve any mapping\n\
       8 shed by the daemon (overloaded or shutting down) — retry later\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        source: None,
        source_label: String::new(),
        default_params: Vec::new(),
        topology: None,
        topology_spec: None,
        machine_domains: None,
        fail_boards: Vec::new(),
        boot_seed: 0,
        boot_dead: None,
        route_budget: 1024,
        params: Vec::new(),
        load_bound: None,
        dot: None,
        map_dot: None,
        net_dot: None,
        directives: false,
        timeline: false,
        cost: CostModel::default(),
        list: false,
        fail_procs: Vec::new(),
        fail_links: Vec::new(),
        fault_sweep: None,
        deadline_ms: None,
        max_steps: None,
        fallback: false,
        chain: None,
        threads: 1,
        edits: None,
        fmt: None,
        stream: None,
        supervise: false,
        grace_ms: None,
        chaos: None,
        journal: None,
        resume: None,
        socket: None,
        remote_health: false,
        remote_shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    let next_val = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--program" => {
                let name = next_val(&mut it, "--program")?;
                let found = programs::all_programs()
                    .into_iter()
                    .find(|(n, _, _)| *n == name)
                    .ok_or_else(|| format!("unknown program '{name}' (try --list)"))?;
                args.source = Some(found.1);
                args.default_params = found
                    .2
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect();
                args.source_label = name;
            }
            "--file" => {
                let path = next_val(&mut it, "--file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                args.source = Some(text);
                args.source_label = path;
            }
            "--topology" => {
                let spec = next_val(&mut it, "--topology")?;
                let (net, domains) = parse_target(&spec)?;
                args.topology = Some(net);
                args.machine_domains = domains;
                args.topology_spec = Some(spec);
            }
            "--machine" => {
                let spec = next_val(&mut it, "--machine")?;
                let lowered = oregami::MachineModel::parse(&spec)?.lower();
                args.topology = Some(lowered.net);
                args.machine_domains = Some(lowered.domains);
                args.topology_spec = Some(spec);
            }
            "--fail-board" => {
                args.fail_boards.push(
                    next_val(&mut it, "--fail-board")?
                        .parse()
                        .map_err(|_| "bad --fail-board id".to_string())?,
                );
            }
            "--boot-seed" => {
                args.boot_seed = next_val(&mut it, "--boot-seed")?
                    .parse()
                    .map_err(|_| "bad --boot-seed value".to_string())?;
            }
            "--boot-dead" => {
                args.boot_dead = Some(
                    next_val(&mut it, "--boot-dead")?
                        .parse()
                        .map_err(|_| "bad --boot-dead permille".to_string())?,
                );
            }
            "--route-budget" => {
                args.route_budget = next_val(&mut it, "--route-budget")?
                    .parse::<usize>()
                    .map_err(|_| "bad --route-budget value".to_string())?
                    .max(1);
            }
            "-P" | "--param" => {
                let kv = next_val(&mut it, "--param")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("expected NAME=VALUE, got '{kv}'"))?;
                let v: i64 = v.parse().map_err(|_| format!("bad value in '{kv}'"))?;
                args.params.push((k.to_string(), v));
            }
            "-B" | "--load-bound" => {
                args.load_bound = Some(
                    next_val(&mut it, "--load-bound")?
                        .parse()
                        .map_err(|_| "bad load bound".to_string())?,
                );
            }
            "--byte-time" => {
                args.cost.byte_time = next_val(&mut it, "--byte-time")?
                    .parse()
                    .map_err(|_| "bad byte-time".to_string())?;
            }
            "--hop-latency" => {
                args.cost.hop_latency = next_val(&mut it, "--hop-latency")?
                    .parse()
                    .map_err(|_| "bad hop-latency".to_string())?;
            }
            "--startup" => {
                args.cost.startup = next_val(&mut it, "--startup")?
                    .parse()
                    .map_err(|_| "bad startup".to_string())?;
            }
            "--fail-proc" => {
                args.fail_procs.push(
                    next_val(&mut it, "--fail-proc")?
                        .parse()
                        .map_err(|_| "bad --fail-proc id".to_string())?,
                );
            }
            "--fail-link" => {
                args.fail_links.push(
                    next_val(&mut it, "--fail-link")?
                        .parse()
                        .map_err(|_| "bad --fail-link id".to_string())?,
                );
            }
            "--fault-sweep" => {
                args.fault_sweep = Some(
                    next_val(&mut it, "--fault-sweep")?
                        .parse()
                        .map_err(|_| "bad --fault-sweep count".to_string())?,
                );
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    next_val(&mut it, "--deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms value".to_string())?,
                );
            }
            "--max-steps" => {
                args.max_steps = Some(
                    next_val(&mut it, "--max-steps")?
                        .parse()
                        .map_err(|_| "bad --max-steps value".to_string())?,
                );
            }
            "--threads" => {
                args.threads = next_val(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_string())?;
            }
            "--edits" => args.edits = Some(next_val(&mut it, "--edits")?),
            "--fmt" => args.fmt = Some(next_val(&mut it, "--fmt")?),
            "--stream" => args.stream = Some(next_val(&mut it, "--stream")?),
            "--journal" => args.journal = Some(next_val(&mut it, "--journal")?),
            "--resume" => args.resume = Some(next_val(&mut it, "--resume")?),
            "--supervise" => args.supervise = true,
            "--grace-ms" => {
                args.grace_ms = Some(
                    next_val(&mut it, "--grace-ms")?
                        .parse()
                        .map_err(|_| "bad --grace-ms value".to_string())?,
                );
            }
            "--chaos" => args.chaos = Some(next_val(&mut it, "--chaos")?),
            "--socket" => args.socket = Some(next_val(&mut it, "--socket")?),
            "--health" => args.remote_health = true,
            "--shutdown" => args.remote_shutdown = true,
            "--fallback" => args.fallback = true,
            "--chain" => args.chain = Some(next_val(&mut it, "--chain")?),
            "--dot" => args.dot = Some(next_val(&mut it, "--dot")?),
            "--map-dot" => args.map_dot = Some(next_val(&mut it, "--map-dot")?),
            "--net-dot" => args.net_dot = Some(next_val(&mut it, "--net-dot")?),
            "--directives" => args.directives = true,
            "--timeline" => args.timeline = true,
            "--list" => args.list = true,
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{}", usage())),
        }
    }
    Ok(args)
}

/// The `--deadline-ms` / `--max-steps` budget (unlimited without them).
fn budget_of(deadline_ms: Option<u64>, max_steps: Option<u64>) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(steps) = max_steps {
        budget = budget.with_max_steps(steps);
    }
    budget
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

fn run() -> Result<ExitCode, CliError> {
    let args = parse_args()?;
    if args.list {
        println!("built-in LaRCS programs (with sample parameters):");
        for (name, _, params) in programs::all_programs() {
            let ps: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("  {name:<12} {}", ps.join(" "));
        }
        println!("\ntopologies: hypercube:D mesh2d:RxC torus2d:RxC ring:N chain:N");
        println!("            complete:N star:N tree:H butterfly:D");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = &args.fmt {
        // Formatter mode: parse + pretty-print and exit. No topology, no
        // mapping — a plain source-to-source transform, so parse errors
        // (rendered with their caret excerpt) are usage errors here.
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
        let formatted =
            oregami::larcs::fmt(&text).map_err(|e| CliError::Usage(e.to_string()))?;
        print!("{formatted}");
        return Ok(ExitCode::SUCCESS);
    }
    if args.socket.is_some() {
        return run_client(&args);
    }
    if args.stream.is_some() {
        return run_stream(&args);
    }
    let source = args.source.clone().ok_or_else(|| {
        format!("no program given (--program or --file)\n\n{}", usage())
    })?;
    let net = args
        .topology
        .ok_or_else(|| format!("no --topology given\n\n{}", usage()))?;
    let net_name = net.name.clone();
    let num_procs = net.num_procs();
    if args.machine_domains.is_none()
        && (!args.fail_boards.is_empty() || args.boot_dead.is_some())
    {
        return Err(CliError::Usage(
            "--fail-board and --boot-dead need --machine (flat topologies have \
             no fault domains)"
                .into(),
        ));
    }

    // --grace-ms / --chaos only make sense supervised; imply the flag
    let supervise = args.supervise || args.grace_ms.is_some() || args.chaos.is_some();
    let mut system = Oregami::new(net)
        .with_options(MapperOptions {
            load_bound: args.load_bound,
            ..MapperOptions::default()
        })
        .with_cost_model(args.cost.clone())
        .with_threads(args.threads);
    if supervise {
        let mut sup = SupervisorConfig::default();
        if let Some(ms) = args.grace_ms {
            sup = sup.with_grace(Duration::from_millis(ms));
        }
        if let Some(spec) = &args.chaos {
            sup = sup.with_chaos(
                ChaosConfig::parse(spec).map_err(|e| CliError::Usage(format!("--chaos: {e}")))?,
            );
        }
        system = system.with_supervisor(sup);
    }
    // Boot-time health discovery (SpiNNTools-style dead-at-boot scan):
    // discovered faults are folded into the fault-injection set below so
    // the served mapping is repaired around them from the start.
    let mut boot_faults = FaultSet::new();
    if let (Some(domains), Some(permille)) = (&args.machine_domains, args.boot_dead) {
        let health =
            oregami::boot_scan(system.network(), domains, args.boot_seed, permille);
        println!(
            "boot scan (seed {}): {} processor(s) dead, {} extra link(s) dead, \
             {}/{} domain(s) degraded",
            health.seed,
            health.dead_procs.len(),
            health.dead_links.len(),
            health.domains_degraded,
            health.domains_total,
        );
        boot_faults = health.fault_set();
    }
    // Explicit -P bindings win; a built-in program's sample parameters fill
    // any gaps so `--program NAME` alone is runnable.
    let mut params: Vec<(&str, i64)> =
        args.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (k, v) in &args.default_params {
        if !params.iter().any(|(name, _)| name == k) {
            params.push((k.as_str(), *v));
        }
    }
    // any budget/chain/threads/supervision flag routes through the
    // fallback-chain engine
    let budgeted = args.deadline_ms.is_some()
        || args.max_steps.is_some()
        || args.fallback
        || args.chain.is_some()
        || args.threads > 1
        || supervise;
    let mut result = if budgeted {
        let chain = match &args.chain {
            Some(spec) => FallbackChain::parse(spec).map_err(CliError::Usage)?,
            None if args.fallback => FallbackChain::full(),
            None => FallbackChain::default(),
        };
        system.map_source_with_budget(
            &source,
            &params,
            &chain,
            &budget_of(args.deadline_ms, args.max_steps),
        )?
    } else {
        system.map_source(&source, &params)?
    };

    println!(
        "mapped '{}' ({} tasks, {} phases) onto {net_name} ({num_procs} processors)",
        args.source_label,
        result.task_graph.num_tasks(),
        result.task_graph.num_phases()
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

    // Machine mappings must fit the per-processor routing hardware:
    // compress the route tables against the budget and fail typed
    // (exit 4) when even compression cannot fit them.
    if args.machine_domains.is_some() {
        let compression = oregami::compress_routes(
            system.network(),
            result.report.mapping.routes.iter().flatten().map(Vec::as_slice),
            oregami::CompressionConfig { entries_per_proc: args.route_budget },
        )
        .map_err(|e| CliError::Fault(OregamiError::Fault(e)))?;
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
    }

    // Interactive replay: apply an edit script through the incremental
    // METRICS engine, printing the per-edit deltas the paper's GUI showed
    // after each mouse-driven modification. With --journal every applied
    // edit is also framed to a crash-safe write-ahead log; --resume
    // reopens a session from such a log first.
    let mut replay_degraded = false;
    if args.journal.is_some() && args.resume.is_some() {
        return Err(CliError::Usage(
            "--journal starts a fresh journal and --resume continues an existing \
             one; give only one"
                .into(),
        ));
    }
    if args.edits.is_some() || args.journal.is_some() || args.resume.is_some() {
        let mut session = if let Some(jpath) = &args.resume {
            let (session, recovery) = system.resume(&result, std::path::Path::new(jpath))?;
            if recovery.truncated {
                println!(
                    "warning: {jpath}: torn tail ({} byte(s)) truncated — the last \
                     frame was never fully written",
                    recovery.torn_bytes
                );
            }
            println!(
                "resumed {} journalled edit(s) from {jpath}",
                recovery.records.len()
            );
            session
        } else {
            let mut session = system.interactive(&result)?;
            if let Some(jpath) = &args.journal {
                let journal = Journal::create(std::path::Path::new(jpath))
                    .map_err(|e| CliError::Usage(format!("cannot create journal: {e}")))?;
                session.attach_journal(journal);
                println!("journalling edits to {jpath}");
            }
            session
        };
        if let Some(path) = &args.edits {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
            // a fresh budget: the replay's deadline and step quota are its
            // own, not what the mapping left over
            let budget = budget_of(args.deadline_ms, args.max_steps);
            println!("-- interactive replay from {path} --");
            for (lineno, raw) in text.lines().enumerate() {
                let n = lineno + 1;
                let op = match replay::parse_line(raw) {
                    Ok(Some(op)) => op,
                    Ok(None) => continue,
                    Err(e) => return Err(CliError::Usage(format!("{path}:{n}: {e}"))),
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
                    // A program edit changes the computation itself, not
                    // just its placement: the session recompiled, remapped
                    // and restarted on the new graph (edit log reset, any
                    // active journal restarted); everything below reports
                    // on the new result.
                    Ok(Dispatched::Recompiled(remapped)) => {
                        result = *remapped;
                        println!(
                            "  recompiled: {} tasks remapped; session restarted",
                            result.task_graph.num_tasks()
                        );
                    }
                    Err(DispatchError::Edit(EditError::Budget(c))) => {
                        session.annotate(format!("replay stopped early at {path}:{n}: {c}"));
                        replay_degraded = true;
                        break;
                    }
                    Err(DispatchError::Stream) => {
                        return Err(CliError::Usage(format!(
                            "{path}:{n}: stream events (spawn/depart/load/recover) \
                             replay with --stream, not --edits"
                        )));
                    }
                    Err(DispatchError::Remap(e)) => return Err(e.into()),
                    Err(DispatchError::Journal(e)) => {
                        return Err(CliError::Usage(format!("cannot restart journal: {e}")));
                    }
                    Err(e) => return Err(CliError::Usage(format!("{path}:{n}: {e}"))),
                }
            }
        }
        println!(
            "replayed {} edit(s); final session state:",
            session.edit_log().len()
        );
        println!("{}", session.report().render());
        if let Some(warning) = session.journal_error() {
            eprintln!("warning: {warning}");
        }
    }

    if !args.fail_procs.is_empty()
        || !args.fail_links.is_empty()
        || !args.fail_boards.is_empty()
        || !boot_faults.is_empty()
    {
        let mut faults = boot_faults.clone();
        for &p in &args.fail_procs {
            faults.fail_proc(ProcId(p));
        }
        for &l in &args.fail_links {
            faults.fail_link(LinkId(l));
        }
        for &b in &args.fail_boards {
            let domains = args.machine_domains.as_ref().expect("checked above");
            let board = domains
                .board_fault_set(system.network(), b)
                .map_err(|e| CliError::Fault(OregamiError::Fault(e)))?;
            for p in board.procs() {
                faults.fail_proc(p);
            }
            for l in board.links() {
                faults.fail_link(l);
            }
        }
        let ropts = RepairOptions {
            load_bound: args.load_bound,
            domains: args.machine_domains.clone(),
            ..RepairOptions::default()
        };
        let rec = system.repair(&result, &faults, &ropts)?;
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
    }

    if let Some(k) = args.fault_sweep {
        let ropts = RepairOptions {
            load_bound: args.load_bound,
            domains: args.machine_domains.clone(),
            ..RepairOptions::default()
        };
        let (mut repaired, mut escalated, mut unrepairable) = (0usize, 0usize, 0usize);
        for i in 0..k {
            let victim = ProcId((i % num_procs) as u32);
            let faults = FaultSet::new().with_proc(victim);
            match system.repair(&result, &faults, &ropts) {
                Ok(rec) => {
                    repaired += 1;
                    if rec.repair.escalated {
                        escalated += 1;
                    }
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

    if args.timeline {
        if let Some(tl) = oregami::metrics::timeline(
            &result.task_graph,
            system.network(),
            &result.report.mapping,
            &args.cost,
        ) {
            println!("{}", tl.render());
        }
    }

    if args.directives {
        println!("-- scheduling directives (task synchrony) --");
        let ds = schedule::local_directives(&result.task_graph, system.network(), &result.report.mapping);
        for d in &ds {
            let line = schedule::render_directive(&result.task_graph, d);
            if !line.ends_with(": ") {
                println!("{line}");
            }
        }
        let sets = schedule::synchrony_sets(&result.task_graph, system.network(), &result.report.mapping);
        println!("{} synchrony set(s) per execution slot", sets.len());
    }

    if let Some(path) = args.dot {
        let dot = oregami::graph::dot::to_dot(&result.task_graph);
        std::fs::write(&path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("task graph written to {path}");
    }
    if let Some(path) = args.map_dot {
        let dot = oregami::metrics::mapping_to_dot(
            &result.task_graph,
            system.network(),
            &result.report.mapping,
        );
        std::fs::write(&path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("mapping written to {path}");
    }
    if let Some(path) = args.net_dot {
        let dot = oregami::metrics::network_to_dot(
            &result.task_graph,
            system.network(),
            &result.report.mapping,
        );
        std::fs::write(&path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("network heat view written to {path}");
    }
    if result.is_degraded() || replay_degraded {
        // served, but a budget cut the search short: dedicated exit code
        // so scripts can tell "best possible" from "best we had time for"
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}

/// Churn-stream mode (`--stream FILE|-`): feed a stream of spawn /
/// depart / load / fault / recover events through the always-valid
/// churn controller, optionally journaled for crash-safe resume.
/// Rejected events (capacity exhaustion, partitioning faults) are
/// warned and skipped — the mapping is valid after every event either
/// way. `--deadline-ms`/`--max-steps` gate event *admission* only:
/// once tripped, remaining events are rejected typed; they never alter
/// an accepted event's outcome, so a journaled run under a deadline
/// still resumes byte-identically. Exit 6 when any event's handling
/// was cut short by the config's probe step quota.
fn run_stream(args: &Args) -> Result<ExitCode, CliError> {
    let spec = args.stream.as_deref().expect("checked by caller");
    if args.journal.is_some() && args.resume.is_some() {
        return Err(CliError::Usage(
            "--journal starts a fresh journal and --resume continues an existing \
             one; give only one"
                .into(),
        ));
    }
    if args.edits.is_some() {
        return Err(CliError::Usage(
            "--stream ingests churn events; --edits replays engine edits — give only one".into(),
        ));
    }
    let net = args
        .topology
        .clone()
        .ok_or_else(|| CliError::Usage(format!("no --topology given\n\n{}", usage())))?;
    let budget = budget_of(args.deadline_ms, args.max_steps);
    let mut session = if let Some(jpath) = &args.resume {
        let (session, recovery) = StreamSession::resume(net, std::path::Path::new(jpath))?;
        if recovery.truncated {
            println!(
                "warning: {jpath}: torn tail ({} byte(s)) truncated — the last \
                 frame was never fully written",
                recovery.torn_bytes
            );
        }
        println!(
            "resumed {} journalled event(s) from {jpath}",
            recovery.records.len().saturating_sub(1)
        );
        session
    } else {
        let cfg = ChurnConfig {
            load_bound: args.load_bound.unwrap_or(ChurnConfig::default().load_bound),
            ..ChurnConfig::default()
        };
        if let Some(jpath) = &args.journal {
            let session = StreamSession::create(net, cfg, std::path::Path::new(jpath))?;
            println!("journalling events to {jpath}");
            session
        } else {
            StreamSession::new(net, cfg).map_err(OregamiError::Churn)?
        }
    };
    let text = if spec == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Usage(format!("cannot read stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(spec)
            .map_err(|e| CliError::Usage(format!("cannot read {spec}: {e}")))?
    };
    let label = if spec == "-" { "<stdin>" } else { spec };
    println!("-- churn stream from {label} --");
    let mut degraded = false;
    let mut rejected = 0u64;
    for (lineno, raw) in text.lines().enumerate() {
        let n = lineno + 1;
        match session.ingest_line(raw, &budget) {
            Ok(Some(out)) => {
                if out.escalated || out.forced_migrations + out.voluntary_migrations > 0 {
                    println!(
                        "{label}:{n}: {} migration(s), {} byte(s) moved{}",
                        out.forced_migrations + out.voluntary_migrations,
                        out.migration_traffic,
                        if out.escalated { " (escalated to global repair)" } else { "" }
                    );
                }
                if out.completion.is_degraded() {
                    degraded = true;
                }
            }
            Ok(None) => {}
            Err(StreamError::Churn(e)) => {
                rejected += 1;
                eprintln!("warning: {label}:{n}: event rejected: {e}");
            }
            Err(e) => return Err(CliError::Usage(format!("{label}:{n}: {e}"))),
        }
    }
    let stats = session.controller().stats();
    println!(
        "stream done: {} event(s) accepted, {rejected} rejected",
        stats.events
    );
    println!(
        "  {} spawn(s)  {} departure(s)  {} load update(s)  {} fault(s)  {} recovery(ies)",
        stats.spawns, stats.departures, stats.load_updates, stats.faults, stats.recoveries
    );
    println!(
        "  migrations: {} forced + {} voluntary ({} byte(s) of state moved), \
         {} escalation(s), {} probe(s)",
        stats.forced_migrations,
        stats.voluntary_migrations,
        stats.migration_traffic,
        stats.escalations,
        stats.probes
    );
    if let Err(e) = session.controller().validate() {
        return Err(CliError::Usage(format!(
            "internal error: always-valid invariant violated after the stream: {e}"
        )));
    }
    println!(
        "final mapping valid: {} live task(s) on {} alive processor(s)",
        session.controller().num_live(),
        session.controller().degraded().num_alive()
    );
    if let Some(warning) = session.journal_error() {
        eprintln!("warning: {warning}");
    }
    if degraded {
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}

/// Daemon client mode: forward the request to a running oregamid over
/// its Unix socket instead of mapping locally. Typed daemon errors map
/// onto the same exit codes as local failures, plus 8 for shed work.
fn run_client(args: &Args) -> Result<ExitCode, CliError> {
    let socket = args.socket.as_deref().expect("checked by caller");
    let mut client =
        Client::connect(std::path::Path::new(socket)).map_err(CliError::Usage)?;
    let rpc = |client: &mut Client, req: &Json| -> Result<Json, CliError> {
        client
            .request(req)
            .map_err(|(kind, msg)| CliError::Remote(kind, msg))
    };
    if args.remote_shutdown {
        rpc(&mut client, &obj().field("op", "shutdown").build())?;
        println!("daemon at {socket} is draining");
        return Ok(ExitCode::SUCCESS);
    }
    if args.remote_health {
        let health = rpc(&mut client, &obj().field("op", "health").build())?;
        println!("{}", health.render());
        return Ok(ExitCode::SUCCESS);
    }
    let source = args
        .source
        .as_ref()
        .ok_or_else(|| CliError::Usage(format!("no program given (--program or --file)\n\n{}", usage())))?;
    let topology = args
        .topology_spec
        .as_ref()
        .ok_or_else(|| CliError::Usage(format!("no --topology given\n\n{}", usage())))?;
    let op = if args.fail_procs.is_empty() && args.fail_links.is_empty() {
        "map"
    } else {
        "repair"
    };
    // explicit -P bindings win; built-in sample parameters fill gaps
    let mut params: Vec<(String, i64)> = args.params.clone();
    for (k, v) in &args.default_params {
        if !params.iter().any(|(name, _)| name == k) {
            params.push((k.clone(), *v));
        }
    }
    let mut req = obj()
        .field("op", op)
        .field("source", source.as_str())
        .field("topology", topology.as_str())
        .field(
            "params",
            Json::Obj(
                params
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        );
    if let Some(ms) = args.deadline_ms {
        req = req.field("deadline_ms", ms);
    }
    if let Some(n) = args.max_steps {
        req = req.field("max_steps", n);
    }
    if let Some(chain) = &args.chain {
        req = req.field("chain", chain.as_str());
    } else if args.fallback {
        req = req.field("chain", "exhaustive,heuristic,identity");
    }
    if let Some(b) = args.load_bound {
        req = req.field("load_bound", b);
    }
    if let Some(chaos) = &args.chaos {
        req = req.field("chaos", chaos.as_str());
    }
    if !args.fail_procs.is_empty() {
        let ids: Vec<Json> = args.fail_procs.iter().map(|&p| Json::from(u64::from(p))).collect();
        req = req.field("fail_procs", Json::Arr(ids));
    }
    if !args.fail_links.is_empty() {
        let ids: Vec<Json> = args.fail_links.iter().map(|&l| Json::from(u64::from(l))).collect();
        req = req.field("fail_links", Json::Arr(ids));
    }
    let result = rpc(&mut client, &req.build())?;
    if op == "map" {
        println!(
            "daemon mapped '{}' ({} tasks) onto {} ({} processors)",
            args.source_label,
            result.get("tasks").and_then(Json::as_u64).unwrap_or(0),
            topology,
            result.get("procs").and_then(Json::as_u64).unwrap_or(0),
        );
        if let Some(s) = result.get("strategy").and_then(Json::as_str) {
            println!("strategy: {s}");
        }
        if let Some(engine) = result.get("engine") {
            println!(
                "engine: served by {} ({}), health: {}",
                engine.get("served_by").and_then(Json::as_str).unwrap_or("?"),
                engine.get("completion").and_then(Json::as_str).unwrap_or("?"),
                engine.get("health").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    } else {
        println!(
            "daemon repaired '{}' on {topology}: {} processor(s) failed, {} link(s) out of service",
            args.source_label,
            result.get("failed_procs").and_then(Json::as_u64).unwrap_or(0),
            result.get("failed_links").and_then(Json::as_u64).unwrap_or(0),
        );
        if let Some(r) = result.get("repair").and_then(Json::as_str) {
            println!("{r}");
        }
    }
    if let Some(report) = result.get("report").or_else(|| result.get("metrics")) {
        if let Some(text) = report.as_str() {
            println!();
            println!("{text}");
        }
    }
    if result.get("degraded").and_then(Json::as_bool) == Some(true) {
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
