//! The oregamid daemon binary: serve mapping requests on a Unix domain
//! socket until SIGTERM/SIGINT, then drain gracefully.
//!
//! ```sh
//! oregamid --socket /run/oregamid.sock --state-dir /var/lib/oregamid
//! oregamid --socket o.sock --state-dir state --resume      # after a crash
//! oregamid --socket o.sock --state-dir state --chaos seed=7,panic=0.2
//! ```
//!
//! Exit codes: 0 clean drain, 2 usage/bind error.

#![deny(clippy::too_many_lines)]

use oregami_daemon::flags::{parsed, value};
use oregami_daemon::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set from the signal handler; polled by the accept loop. An atomic
/// store is async-signal-safe.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const USAGE: &str = "oregamid — mapping-as-a-service daemon for the OREGAMI toolchain\n\
     \n\
     USAGE:\n\
       oregamid --socket PATH [options]\n\
     \n\
     OPTIONS:\n\
       --socket PATH      Unix domain socket to serve on (required;\n\
                          a stale socket file is replaced)\n\
       --state-dir PATH   directory for session journals + meta files\n\
                          (default: <socket>.state)\n\
       --workers N        scheduler worker threads (default: cores, 2-8)\n\
       --max-queue N      outstanding jobs before shedding (default 64)\n\
       --resume           restore journaled sessions from the state dir\n\
       --chaos SPEC       inject seeded faults into every request's\n\
                          supervisor: seed=N,panic=P,stall=P,stall-ms=MS\n\
                          [,only=STAGE] — for resilience testing\n\
       --machine SPEC     hierarchical machine this daemon fronts\n\
                          (mesh-boards:RxCxrxc | fat-tree:AxH |\n\
                          dragonfly:GxAxP | rc-array[:PHASES]); runs a\n\
                          boot-time health scan and reports per-domain\n\
                          liveness in health responses\n\
       --boot-seed N      seed for the boot-time health scan (default 0)\n\
       --boot-dead PM     dead-at-boot probability in permille (default 0)\n\
       --route-budget N   per-processor routing-table hardware entries\n\
                          for machine mappings (default 1024)\n\
       -h, --help         this text\n\
     \n\
     PROTOCOL: length-prefixed JSON frames (u32 LE length + payload,\n\
     1 MiB cap). Ops: map, repair, metrics, health, session_open,\n\
     session_edit, session_snapshot, session_close, shutdown. Typed\n\
     error kinds: overloaded (shed — retry later), unserviceable,\n\
     shutting_down, bad_request, map, fault, repair, session, internal.\n\
     \n\
     EXIT CODES: 0 clean drain (SIGTERM/SIGINT/shutdown op), 2 usage\n";

fn parse_config() -> Result<ServerConfig, String> {
    // the two paths are filled in last: the state dir defaults off the socket
    let mut config = ServerConfig::new("", "");
    let mut socket: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let argv: &mut dyn Iterator<Item = String> = &mut std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let flag = arg.as_str();
        match flag {
            "--socket" => socket = Some(value(argv, flag)?),
            "--state-dir" => state_dir = Some(value(argv, flag)?),
            "--workers" => config.workers = parsed::<usize>(argv, flag, "value")?.clamp(1, 64),
            "--max-queue" => config.max_queue = parsed::<usize>(argv, flag, "value")?.max(1),
            "--resume" => config.resume = true,
            "--chaos" => config.chaos = Some(value(argv, flag)?),
            "--machine" => config.machine = Some(value(argv, flag)?),
            "--boot-seed" => config.boot_seed = parsed(argv, flag, "value")?,
            "--boot-dead" => config.boot_dead_permille = parsed(argv, flag, "value")?,
            "--route-budget" => config.route_budget = parsed::<usize>(argv, flag, "value")?.max(1),
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    let socket = socket.ok_or_else(|| format!("--socket is required\n\n{USAGE}"))?;
    config.state_dir = state_dir
        .unwrap_or_else(|| format!("{socket}.state"))
        .into();
    config.socket = socket.into();
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
    eprintln!("oregamid: serving");
    let stats = server.serve(&STOP);
    // final stats on stdout so wrappers can scrape a clean drain
    println!("{}", stats.render());
    ExitCode::SUCCESS
}
