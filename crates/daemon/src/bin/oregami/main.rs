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
//! [`args`] turns the command line into a `MapSpec` (the request model
//! shared with the daemon) plus the local-only flags; `run` picks one
//! driver per mode: `--list`, `--fmt`, [`client`] (`--socket`),
//! [`stream`] (`--stream`), or [`local`].
//!
//! Exit codes: 0 success, 2 usage/input error, 3 mapping failure,
//! 4 fault-injection error (bad ids), 5 unrepairable fault, 6 a budget
//! (--deadline-ms / --max-steps) cut the search short and a valid but
//! possibly suboptimal mapping was served, 7 the supervised engine
//! could not serve any mapping (every stage failed, hung, or was
//! breaker-skipped), 8 shed by a daemon in `--socket` mode.

#![deny(clippy::too_many_lines)]

mod args;
mod client;
mod local;
mod stream;

use args::{Args, USAGE};
use oregami::larcs::programs;
use oregami::{JournalRecovery, OregamiError};
use oregami_daemon::request::FailureClass;
use std::process::ExitCode;

/// A failed run: what to say on stderr and the exit code of its failure
/// class (`FailureClass::exit_code`), so scripts driving fault sweeps can
/// tell "bad invocation" from "unrepairable fault".
struct CliError {
    code: u8,
    message: String,
}

/// Bad arguments / unreadable input (exit 2).
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            code: FailureClass::BadRequest.exit_code(),
            message,
        }
    }
}

impl From<OregamiError> for CliError {
    fn from(e: OregamiError) -> Self {
        CliError {
            code: FailureClass::of(&e).exit_code(),
            message: e.to_string(),
        }
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::from(message.into())
}

const NO_PROGRAM: &str = "no program given (--program or --file)";
const NO_TOPOLOGY: &str = "no --topology given";

/// A required part of the request, or the usage error for its absence.
fn need<'a>(value: &'a str, missing: &str) -> Result<&'a str, CliError> {
    match value {
        "" => Err(usage(format!("{missing}\n\n{USAGE}"))),
        value => Ok(value),
    }
}

fn journal_xor_resume(args: &Args) -> Result<(), CliError> {
    if args.journal.is_some() && args.resume.is_some() {
        return Err(usage(
            "--journal starts a fresh journal and --resume continues an existing \
             one; give only one",
        ));
    }
    Ok(())
}

/// What `--resume` found in the journal: `replayed` records of `what`.
fn report_recovery(jpath: &str, recovery: &JournalRecovery, replayed: usize, what: &str) {
    if recovery.truncated {
        println!(
            "warning: {jpath}: torn tail ({} byte(s)) truncated — the last \
             frame was never fully written",
            recovery.torn_bytes
        );
    }
    println!("resumed {replayed} journalled {what}(s) from {jpath}");
}

fn list() {
    println!("built-in LaRCS programs (with sample parameters):");
    for (name, _, params) in programs::all_programs() {
        let ps: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  {name:<12} {}", ps.join(" "));
    }
    println!("\ntopologies: hypercube:D mesh2d:RxC torus2d:RxC ring:N chain:N");
    println!("            complete:N star:N tree:H butterfly:D");
}

/// Formatter mode: parse + pretty-print and exit. No topology, no
/// mapping — a plain source-to-source transform, so parse errors
/// (rendered with their caret excerpt) are usage errors here.
fn fmt(path: &str) -> Result<(), CliError> {
    let formatted = oregami::larcs::fmt(&args::read(path)?).map_err(|e| usage(e.to_string()))?;
    print!("{formatted}");
    Ok(())
}

fn run() -> Result<ExitCode, CliError> {
    let args = args::parse_args(std::env::args().skip(1))?;
    if args.list {
        list();
    } else if let Some(path) = &args.fmt {
        fmt(path)?;
    } else if let Some(socket) = &args.socket {
        return client::run(&args, socket);
    } else if let Some(events) = &args.stream {
        return stream::run(&args, events);
    } else {
        return local::run(&args);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
