//! The flag parser: command line → [`Args`], a [`MapSpec`] plus the flags
//! only this binary honours.

use oregami::{CostModel, FallbackChain};
use oregami_daemon::flags::{parsed, value};
use oregami_daemon::request::{builtin, MapSpec};
use oregami_daemon::topo::is_machine_spec;

type Argv<'a> = &'a mut dyn Iterator<Item = String>;

#[derive(Default)]
pub(crate) struct Args {
    /// The map/repair request the map flags describe: what a local run
    /// maps and what `--socket` mode forwards.
    pub spec: MapSpec,
    /// Every local-only flag that was given, in order; `--socket` mode
    /// refuses them instead of silently dropping them.
    pub local_only: Vec<String>,
    pub fail_boards: Vec<u32>,
    pub boot_seed: u64,
    pub boot_dead: Option<u32>,
    pub route_budget: Option<usize>,
    pub cost: CostModel,
    pub supervise: bool,
    pub grace_ms: Option<u64>,
    pub edits: Option<String>,
    pub journal: Option<String>,
    pub resume: Option<String>,
    pub stream: Option<String>,
    pub fault_sweep: Option<usize>,
    pub timeline: bool,
    pub directives: bool,
    pub dot: Option<String>,
    pub map_dot: Option<String>,
    pub net_dot: Option<String>,
    pub list: bool,
    pub fmt: Option<String>,
    pub socket: Option<String>,
    pub remote_health: bool,
    pub remote_shutdown: bool,
}

pub(crate) const USAGE: &str = "oregami — map parallel computations to parallel architectures\n\
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
                              (e.g. mesh-boards:4x4x8x8)\n\
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
       8 shed by the daemon (overloaded or shutting down) — retry later\n";

/// Parses the command line. `-h`/`--help` prints [`USAGE`] and exits.
pub(crate) fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    // a builtin's sample parameters and `--fallback`: both fold into the
    // spec once every flag is in
    let mut samples = Vec::new();
    let mut fallback = false;
    while let Some(arg) = argv.next() {
        let flag = arg.as_str();
        if map_flag(&mut args.spec, &mut samples, flag, &mut argv)? {
            continue;
        }
        if local_flag(&mut args, flag, &mut argv)? {
            args.local_only.push(arg);
            continue;
        }
        match flag {
            "--fallback" => fallback = true,
            "--list" => args.list = true,
            "--fmt" => args.fmt = Some(value(&mut argv, flag)?),
            "--socket" => args.socket = Some(value(&mut argv, flag)?),
            "--health" => args.remote_health = true,
            "--shutdown" => args.remote_shutdown = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    // Explicit -P bindings win; a built-in program's sample parameters fill
    // any gaps so `--program NAME` alone is runnable.
    for (k, v) in samples {
        if !args.spec.params.iter().any(|(name, _)| *name == k) {
            args.spec.params.push((k, v));
        }
    }
    if fallback && args.spec.chain.is_none() {
        let full: Vec<&str> = FallbackChain::full()
            .stages
            .iter()
            .map(|s| s.name())
            .collect();
        args.spec.chain = Some(full.join(","));
    }
    Ok(args)
}

/// The flags that fill the [`MapSpec`] — the ones `--socket` mode
/// forwards. `Ok(false)`: not one of them.
fn map_flag(
    spec: &mut MapSpec,
    samples: &mut Vec<(String, i64)>,
    flag: &str,
    argv: Argv,
) -> Result<bool, String> {
    match flag {
        "--program" => {
            let name = value(argv, flag)?;
            (spec.source, *samples) =
                builtin(&name).ok_or_else(|| format!("unknown program '{name}' (try --list)"))?;
            spec.label = name;
        }
        "--file" => {
            let path = value(argv, flag)?;
            spec.source = read(&path)?;
            spec.label = path;
        }
        "--topology" => spec.topology = value(argv, flag)?,
        "--machine" => {
            // the same target field, lowered the same way; a kind that is
            // no machine gets the machine parser's list of those that are
            spec.topology = value(argv, flag)?;
            if !is_machine_spec(&spec.topology) {
                oregami::MachineModel::parse(&spec.topology)?;
            }
        }
        "-P" | "--param" => {
            let kv = value(argv, "--param")?;
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("expected NAME=VALUE, got '{kv}'"))?;
            let v: i64 = v.parse().map_err(|_| format!("bad value in '{kv}'"))?;
            spec.params.push((k.to_string(), v));
        }
        "-B" | "--load-bound" => spec.load_bound = Some(parsed(argv, "--load-bound", "value")?),
        "--fail-proc" => spec.fail_procs.push(parsed(argv, flag, "id")?),
        "--fail-link" => spec.fail_links.push(parsed(argv, flag, "id")?),
        "--deadline-ms" => spec.deadline_ms = Some(parsed(argv, flag, "value")?),
        "--max-steps" => spec.max_steps = Some(parsed(argv, flag, "value")?),
        "--chain" => spec.chain = Some(value(argv, flag)?),
        "--chaos" => spec.chaos = Some(value(argv, flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// The flags only a local run honours. `Ok(false)`: not one of them.
fn local_flag(args: &mut Args, flag: &str, argv: Argv) -> Result<bool, String> {
    match flag {
        "--fail-board" => args.fail_boards.push(parsed(argv, flag, "id")?),
        "--boot-seed" => args.boot_seed = parsed(argv, flag, "value")?,
        "--boot-dead" => args.boot_dead = Some(parsed(argv, flag, "permille")?),
        "--route-budget" => args.route_budget = Some(parsed::<usize>(argv, flag, "value")?.max(1)),
        "--byte-time" => args.cost.byte_time = parsed(argv, flag, "value")?,
        "--hop-latency" => args.cost.hop_latency = parsed(argv, flag, "value")?,
        "--startup" => args.cost.startup = parsed(argv, flag, "value")?,
        "--supervise" => args.supervise = true,
        "--grace-ms" => args.grace_ms = Some(parsed(argv, flag, "value")?),
        "--edits" => args.edits = Some(value(argv, flag)?),
        "--journal" => args.journal = Some(value(argv, flag)?),
        "--resume" => args.resume = Some(value(argv, flag)?),
        "--stream" => args.stream = Some(value(argv, flag)?),
        "--fault-sweep" => args.fault_sweep = Some(parsed(argv, flag, "count")?),
        "--timeline" => args.timeline = true,
        "--directives" => args.directives = true,
        "--dot" => args.dot = Some(value(argv, flag)?),
        "--map-dot" => args.map_dot = Some(value(argv, flag)?),
        "--net-dot" => args.net_dot = Some(value(argv, flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Reads an input file, or says which one could not be read.
pub(crate) fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn map_flags_fill_the_spec_and_samples_fill_gaps() {
        let args = parse(&[
            "--program",
            "nbody",
            "--machine",
            "mesh-boards:2x2x2x2",
            "-P",
            "s=9",
            "-B",
            "3",
            "--fail-proc",
            "1",
            "--fail-link",
            "2",
            "--deadline-ms",
            "50",
            "--fallback",
        ])
        .unwrap();
        let spec = &args.spec;
        assert_eq!(
            (spec.label.as_str(), spec.topology.as_str()),
            ("nbody", "mesh-boards:2x2x2x2")
        );
        // the explicit binding first, then the samples it did not cover
        assert_eq!(spec.params[0], ("s".to_string(), 9));
        assert!(spec.params.iter().any(|(k, _)| k == "n") && spec.params.len() == 3);
        assert_eq!((spec.load_bound, spec.deadline_ms), (Some(3), Some(50)));
        assert_eq!(
            (spec.fail_procs.as_slice(), spec.fail_links.as_slice()),
            ([1].as_slice(), [2].as_slice())
        );
        assert_eq!(
            spec.chain().unwrap(),
            FallbackChain::full(),
            "--fallback is the full chain"
        );
        assert!(args.local_only.is_empty());
        // an explicit chain wins over --fallback
        let args = parse(&["--fallback", "--chain", "identity"]).unwrap();
        assert_eq!(args.spec.chain.as_deref(), Some("identity"));
    }

    #[test]
    fn local_only_flags_are_recorded_and_bad_values_name_the_flag() {
        let args = parse(&[
            "--fault-sweep",
            "4",
            "--timeline",
            "--socket",
            "s",
            "--fail-board",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args.local_only,
            ["--fault-sweep", "--timeline", "--fail-board"]
        );
        assert_eq!(args.fault_sweep, Some(4));
        for (argv, message) in [
            (&["--fail-proc", "banana"][..], "bad --fail-proc id"),
            (&["--boot-dead", "x"][..], "bad --boot-dead permille"),
            (&["--fault-sweep", "x"][..], "bad --fault-sweep count"),
            (&["-B", "x"][..], "bad --load-bound value"),
            (&["--chain"][..], "--chain needs a value"),
            (&["-P", "n"][..], "expected NAME=VALUE, got 'n'"),
            (
                &["--program", "nope"][..],
                "unknown program 'nope' (try --list)",
            ),
        ] {
            assert_eq!(parse(argv).err().as_deref(), Some(message));
        }
        assert!(parse(&["--frob"])
            .err()
            .unwrap()
            .starts_with("unknown argument '--frob'\n\noregami"));
        assert!(parse(&["--threads", "4"])
            .err()
            .unwrap()
            .starts_with("unknown argument '--threads'\n\noregami"));
        assert!(parse(&["--machine", "ring:8"])
            .err()
            .unwrap()
            .starts_with("unknown machine 'ring'"));
        assert_eq!(
            parse(&["--topology", "rc-array"]).unwrap().spec.topology,
            "rc-array"
        );
    }
}
