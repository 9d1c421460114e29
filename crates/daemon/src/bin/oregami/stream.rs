//! Churn-stream mode (`--stream FILE|-`): feed a stream of spawn /
//! depart / load / fault / recover events through the always-valid
//! churn controller, optionally journaled for crash-safe resume.
//!
//! Rejected events (capacity exhaustion, partitioning faults) are
//! warned and skipped — the mapping is valid after every event either
//! way. `--deadline-ms`/`--max-steps` gate event *admission* only: once
//! tripped, remaining events are rejected typed; they never alter an
//! accepted event's outcome, so a journaled run under a deadline still
//! resumes byte-identically. Exit 6 when any event's handling was cut
//! short by the config's probe step quota.

use crate::args::{self, Args};
use crate::{journal_xor_resume, need, report_recovery, usage, CliError, NO_TOPOLOGY};
use oregami::{ChurnConfig, OregamiError, StreamError, StreamSession};
use oregami_daemon::topo::parse_target;
use std::path::Path;
use std::process::ExitCode;

pub(crate) fn run(args: &Args, events: &str) -> Result<ExitCode, CliError> {
    journal_xor_resume(args)?;
    if args.edits.is_some() {
        return Err(usage(
            "--stream ingests churn events; --edits replays engine edits — give only one",
        ));
    }
    let mut session = open(args)?;
    let (text, label) = if events == "-" {
        let text = std::io::read_to_string(std::io::stdin())
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        (text, "<stdin>")
    } else {
        (args::read(events)?, events)
    };
    println!("-- churn stream from {label} --");
    let (degraded, rejected) = ingest(args, &mut session, &text, label)?;
    summarise(&session, rejected)?;
    if degraded {
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}

/// A fresh session on the target network, journaled with `--journal`, or
/// the one `--resume` finds in its journal.
fn open(args: &Args) -> Result<StreamSession, CliError> {
    let (net, _) = parse_target(need(&args.spec.topology, NO_TOPOLOGY)?)?;
    if let Some(jpath) = &args.resume {
        let (session, recovery) = StreamSession::resume(net, Path::new(jpath))?;
        // the first frame pins the config; the rest are events
        report_recovery(
            jpath,
            &recovery,
            recovery.records.len().saturating_sub(1),
            "event",
        );
        return Ok(session);
    }
    let cfg = ChurnConfig {
        load_bound: args
            .spec
            .load_bound
            .unwrap_or(ChurnConfig::default().load_bound),
        ..ChurnConfig::default()
    };
    match &args.journal {
        Some(jpath) => {
            let session = StreamSession::create(net, cfg, Path::new(jpath))?;
            println!("journalling events to {jpath}");
            Ok(session)
        }
        None => Ok(StreamSession::new(net, cfg).map_err(OregamiError::Churn)?),
    }
}

/// Feeds every line; returns whether any event completed degraded and
/// how many the controller rejected.
fn ingest(
    args: &Args,
    session: &mut StreamSession,
    text: &str,
    label: &str,
) -> Result<(bool, u64), CliError> {
    let budget = args.spec.budget();
    let (mut degraded, mut rejected) = (false, 0u64);
    for (lineno, raw) in text.lines().enumerate() {
        let n = lineno + 1;
        match session.ingest_line(raw, &budget) {
            Ok(Some(out)) => {
                let migrations = out.forced_migrations + out.voluntary_migrations;
                if out.escalated || migrations > 0 {
                    println!(
                        "{label}:{n}: {migrations} migration(s), {} byte(s) moved{}",
                        out.migration_traffic,
                        if out.escalated {
                            " (escalated to global repair)"
                        } else {
                            ""
                        }
                    );
                }
                degraded |= out.completion.is_degraded();
            }
            Ok(None) => {}
            Err(StreamError::Churn(e)) => {
                rejected += 1;
                eprintln!("warning: {label}:{n}: event rejected: {e}");
            }
            Err(e) => return Err(usage(format!("{label}:{n}: {e}"))),
        }
    }
    Ok((degraded, rejected))
}

fn summarise(session: &StreamSession, rejected: u64) -> Result<(), CliError> {
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
        return Err(usage(format!(
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
    Ok(())
}
