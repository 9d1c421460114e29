//! The edit-script dialect shared by `--edits` replay and the session
//! journal: one op per line, parsed into [`ReplayOp`]s and serialised
//! back to canonical records.
//!
//! Syntax (whitespace-separated tokens; `#` starts a comment line):
//!
//! ```text
//! reassign T P            move task T to processor P
//! reroute K E P0 P1 ..    replace phase K edge E's route with the path
//! fault proc:N link:M ..  fail processors/links
//! undo                    revert the most recent edit
//! program C R <text>      replace rule R (0-based) of comphase C with
//!                         <text> (the rest of the line), recompile the
//!                         LaRCS source incrementally, and remap
//! ```
//!
//! Stream sessions (`--stream`, the daemon's `session_stream` op) add
//! the churn-event ops; classic edit sessions reject them typed:
//!
//! ```text
//! spawn T P L W           task T arrives, spawned by P (or '-' for a
//!                         root), compute load L, spawn-edge volume W
//! depart T                task T leaves the computation
//! load T L                task T's load estimate drifts to L
//! recover proc:N link:M   failed processors/links come back
//! ```
//!
//! [`parse_line`] is total over arbitrary text: blank lines,
//! whitespace-only lines, CRLF line endings, and comments parse to
//! `Ok(None)` instead of panicking (the old CLI tokenizer `expect`ed the
//! caller to pre-filter blanks — a whitespace-only line was a latent
//! panic); anything else is a typed error the CLI reports as
//! `file:line` with exit code 2. [`to_record`] writes the canonical form
//! journal frames use; `parse → serialise → parse` is the identity on
//! the op.

use oregami_mapper::churn::ChurnEvent;
use oregami_mapper::metrics_engine::Edit;
use oregami_topology::{FaultSet, LinkId, ProcId};

/// One line of an edit script or journal: an edit to apply, an undo, or
/// a churn-stream event.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayOp {
    /// Apply this edit through the incremental engine.
    Apply(Edit),
    /// Revert the most recent edit.
    Undo,
    /// A churn-stream event (spawn/depart/load/recover) for a
    /// [`oregami_mapper::ChurnController`]-backed stream session. A
    /// `fault` line doubles as [`ChurnEvent::Fault`] in stream context —
    /// [`fault_event`] performs that reinterpretation.
    Stream(ChurnEvent),
    /// Replace one rule of the session's LaRCS source and recompile
    /// incrementally (`program <comphase> <rule#> <rule text>`). Only
    /// meaningful where a source is in scope (CLI `--edits`, daemon
    /// sessions); metric-journal replay rejects it typed.
    Program {
        /// The comphase whose rule is replaced.
        phase: String,
        /// 0-based index of the rule within the comphase.
        rule: usize,
        /// Replacement rule text (whitespace-normalized in the canonical
        /// record — the journal is line-based, so the text is one line).
        text: String,
    },
}

/// Reinterprets an op as a churn event where the stream dialect overlaps
/// the edit dialect: `fault proc:N link:M` is an engine edit in an edit
/// session and a cumulative fault event in a stream session. Returns
/// `None` for ops with no stream meaning (reassign/reroute/undo).
pub fn fault_event(op: &ReplayOp) -> Option<ChurnEvent> {
    match op {
        ReplayOp::Stream(ev) => Some(ev.clone()),
        ReplayOp::Apply(Edit::Fault(fs)) => {
            let mut procs: Vec<ProcId> = fs.procs().collect();
            procs.sort_unstable_by_key(|p| p.0);
            let mut links: Vec<LinkId> = fs.links().collect();
            links.sort_unstable_by_key(|l| l.0);
            Some(ChurnEvent::Fault { procs, links })
        }
        _ => None,
    }
}

/// Parses one raw script line. `Ok(None)` for blank, whitespace-only,
/// and `#`-comment lines (CRLF tolerated); `Err` carries a message
/// without file/line context — the caller prefixes its own.
pub fn parse_line(raw: &str) -> Result<Option<ReplayOp>, String> {
    let line = raw.trim_end_matches('\r').trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tok = line.split_whitespace();
    let Some(op) = tok.next() else {
        // unreachable after the blank check above, but never a panic:
        // the tokenizer must be total over arbitrary file contents
        return Ok(None);
    };
    let op = match op {
        "reassign" => parse_reassign(tok)?,
        "reroute" => parse_reroute(tok)?,
        "fault" => {
            let (procs, links) = parse_elements("fault", tok)?;
            let mut faults = FaultSet::new();
            for p in procs {
                faults.fail_proc(p);
            }
            for l in links {
                faults.fail_link(l);
            }
            ReplayOp::Apply(Edit::Fault(faults))
        }
        "undo" => {
            no_trailing(tok, "undo")?;
            ReplayOp::Undo
        }
        "spawn" => parse_spawn(tok)?,
        "depart" => {
            let task = number::<u32>(tok.next(), "task id")? as usize;
            no_trailing(tok, "depart T")?;
            ReplayOp::Stream(ChurnEvent::Depart { task })
        }
        "load" => {
            let task = number::<u32>(tok.next(), "task id")? as usize;
            let load = number(tok.next(), "load")?;
            no_trailing(tok, "load T L")?;
            ReplayOp::Stream(ChurnEvent::Load { task, load })
        }
        "recover" => {
            let (mut procs, mut links) = parse_elements("recover", tok)?;
            procs.sort_unstable_by_key(|p| p.0);
            procs.dedup();
            links.sort_unstable_by_key(|l| l.0);
            links.dedup();
            ReplayOp::Stream(ChurnEvent::Recover { procs, links })
        }
        "program" => parse_program(line)?,
        other => {
            return Err(format!(
                "unknown edit '{other}' (expected reassign, reroute, fault, undo, program, spawn, depart, load, recover)"
            ))
        }
    };
    Ok(Some(op))
}

type Tokens<'a> = std::str::SplitWhitespace<'a>;

/// The next token as a number; `what` names it in the error.
fn number<T: std::str::FromStr>(s: Option<&str>, what: &str) -> Result<T, String> {
    s.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

/// Rejects anything after a fixed-arity op; `usage` is its syntax.
fn no_trailing(mut tok: Tokens, usage: &str) -> Result<(), String> {
    match tok.next() {
        Some(_) => Err(format!("trailing tokens after '{usage}'")),
        None => Ok(()),
    }
}

/// `reassign T P`.
fn parse_reassign(mut tok: Tokens) -> Result<ReplayOp, String> {
    let task = number::<u32>(tok.next(), "task id")? as usize;
    let proc = ProcId(number(tok.next(), "processor id")?);
    no_trailing(tok, "reassign T P")?;
    Ok(ReplayOp::Apply(Edit::Reassign { task, proc }))
}

/// `reroute K E P0 P1 ..`.
fn parse_reroute(mut tok: Tokens) -> Result<ReplayOp, String> {
    let phase = number::<u32>(tok.next(), "phase id")? as usize;
    let edge = number::<u32>(tok.next(), "edge id")? as usize;
    let path: Vec<ProcId> = tok
        .map(|t| {
            t.parse()
                .map(ProcId)
                .map_err(|_| format!("bad processor id '{t}'"))
        })
        .collect::<Result<_, _>>()?;
    if path.is_empty() {
        return Err("reroute needs a path of processor ids".into());
    }
    Ok(ReplayOp::Apply(Edit::Reroute { phase, edge, path }))
}

/// The `proc:N` / `link:N` list of a `fault` or `recover` line, in line
/// order; the first bad token is the error.
fn parse_elements(op: &str, tok: Tokens) -> Result<(Vec<ProcId>, Vec<LinkId>), String> {
    let (mut procs, mut links) = (Vec::new(), Vec::new());
    let mut any = false;
    for t in tok {
        any = true;
        if let Some(id) = t.strip_prefix("proc:") {
            procs.push(ProcId(
                id.parse().map_err(|_| format!("bad processor id '{t}'"))?,
            ));
        } else if let Some(id) = t.strip_prefix("link:") {
            links.push(LinkId(
                id.parse().map_err(|_| format!("bad link id '{t}'"))?,
            ));
        } else {
            return Err(format!("expected proc:<id> or link:<id>, got '{t}'"));
        }
    }
    if !any {
        return Err(format!("{op} needs at least one proc:<id> or link:<id>"));
    }
    Ok((procs, links))
}

/// `spawn T P L W`, with `-` for a root's parent.
fn parse_spawn(mut tok: Tokens) -> Result<ReplayOp, String> {
    let task = number::<u32>(tok.next(), "task id")? as usize;
    let parent = match tok.next() {
        Some("-") => None,
        Some(s) => Some(
            s.parse::<u32>()
                .map_err(|_| format!("bad parent id '{s}'"))? as usize,
        ),
        None => return Err("missing parent id (task id or '-')".into()),
    };
    let load = number(tok.next(), "load")?;
    let volume = number(tok.next(), "volume")?;
    no_trailing(tok, "spawn T P L W")?;
    Ok(ReplayOp::Stream(ChurnEvent::Spawn {
        task,
        parent,
        load,
        volume,
    }))
}

/// `program C R <text>`: the rule text is the raw remainder of the line,
/// so it is recovered from `line` rather than the whitespace tokenizer.
fn parse_program(line: &str) -> Result<ReplayOp, String> {
    let rest = line["program".len()..].trim_start();
    let (phase, rest) = rest
        .split_once(char::is_whitespace)
        .ok_or("missing rule index and text after comphase name")?;
    let (rule_s, text) = rest
        .trim_start()
        .split_once(char::is_whitespace)
        .ok_or("missing rule text after rule index")?;
    let rule: usize = rule_s
        .parse()
        .map_err(|_| format!("bad rule index '{rule_s}'"))?;
    let text = text.trim();
    if text.is_empty() {
        return Err("missing rule text".into());
    }
    Ok(ReplayOp::Program {
        phase: phase.to_string(),
        rule,
        text: text.to_string(),
    })
}

/// The canonical one-line record of an op — what journal frames hold.
/// Round-trips: `parse_line(&to_record(op)) == Ok(Some(op))`.
pub fn to_record(op: &ReplayOp) -> String {
    match op {
        ReplayOp::Undo => "undo".to_string(),
        ReplayOp::Apply(Edit::Reassign { task, proc }) => {
            format!("reassign {task} {}", proc.0)
        }
        ReplayOp::Apply(Edit::Reroute { phase, edge, path }) => {
            let hops: Vec<String> = path.iter().map(|p| p.0.to_string()).collect();
            format!("reroute {phase} {edge} {}", hops.join(" "))
        }
        ReplayOp::Apply(Edit::Fault(fs)) => {
            // sort for determinism: FaultSet iteration order is the
            // backing set's, but the record should be stable
            let mut parts: Vec<String> = Vec::new();
            let mut procs: Vec<u32> = fs.procs().map(|p| p.0).collect();
            procs.sort_unstable();
            parts.extend(procs.iter().map(|p| format!("proc:{p}")));
            let mut links: Vec<u32> = fs.links().map(|l| l.0).collect();
            links.sort_unstable();
            parts.extend(links.iter().map(|l| format!("link:{l}")));
            format!("fault {}", parts.join(" "))
        }
        ReplayOp::Stream(ev) => event_record(ev),
        ReplayOp::Program { phase, rule, text } => {
            // normalize the text's whitespace: the record must stay one
            // line, and rule text is structural (layout-insensitive)
            let flat: Vec<&str> = text.split_whitespace().collect();
            format!("program {phase} {rule} {}", flat.join(" "))
        }
    }
}

/// The canonical one-line record of a churn event — what stream-session
/// journal frames hold. `Fault` events share the edit dialect's `fault`
/// line, so `parse_line(&event_record(ev))` yields `Apply(Edit::Fault)`
/// for them; [`fault_event`] reinterprets either form back to the event:
/// `fault_event(&parse_line(&event_record(ev))?) == Some(ev)` for every
/// canonical (sorted, deduplicated) event.
pub fn event_record(ev: &ChurnEvent) -> String {
    match ev {
        ChurnEvent::Spawn {
            task,
            parent,
            load,
            volume,
        } => match parent {
            Some(p) => format!("spawn {task} {p} {load} {volume}"),
            None => format!("spawn {task} - {load} {volume}"),
        },
        ChurnEvent::Depart { task } => format!("depart {task}"),
        ChurnEvent::Load { task, load } => format!("load {task} {load}"),
        ChurnEvent::Fault { procs, links } => {
            let mut parts: Vec<String> = Vec::new();
            let mut ps: Vec<u32> = procs.iter().map(|p| p.0).collect();
            ps.sort_unstable();
            parts.extend(ps.iter().map(|p| format!("proc:{p}")));
            let mut ls: Vec<u32> = links.iter().map(|l| l.0).collect();
            ls.sort_unstable();
            parts.extend(ls.iter().map(|l| format!("link:{l}")));
            format!("fault {}", parts.join(" "))
        }
        ChurnEvent::Recover { procs, links } => {
            let mut parts: Vec<String> = Vec::new();
            let mut ps: Vec<u32> = procs.iter().map(|p| p.0).collect();
            ps.sort_unstable();
            parts.extend(ps.iter().map(|p| format!("proc:{p}")));
            let mut ls: Vec<u32> = links.iter().map(|l| l.0).collect();
            ls.sort_unstable();
            parts.extend(ls.iter().map(|l| format!("link:{l}")));
            format!("recover {}", parts.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_whitespace_crlf_and_comment_lines_are_skipped() {
        for line in ["", "   ", "\t", "\r", "   \r", "# comment", "  # indented\r"] {
            assert_eq!(parse_line(line), Ok(None), "line {line:?}");
        }
    }

    #[test]
    fn ops_parse_with_crlf_endings() {
        assert_eq!(
            parse_line("reassign 3 1\r"),
            Ok(Some(ReplayOp::Apply(Edit::Reassign {
                task: 3,
                proc: ProcId(1)
            })))
        );
        assert_eq!(parse_line("undo\r"), Ok(Some(ReplayOp::Undo)));
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        for line in [
            "reassign",
            "reassign 1",
            "reassign 1 2 3",
            "reassign x y",
            "reroute 0 0",
            "reroute a b 0",
            "fault",
            "fault bogus",
            "fault proc:x",
            "undo now",
            "frobnicate 1",
        ] {
            assert!(parse_line(line).is_err(), "line {line:?} must error");
        }
    }

    #[test]
    fn records_round_trip() {
        let ops = vec![
            ReplayOp::Apply(Edit::Reassign {
                task: 7,
                proc: ProcId(3),
            }),
            ReplayOp::Apply(Edit::Reroute {
                phase: 1,
                edge: 4,
                path: vec![ProcId(0), ProcId(2), ProcId(3)],
            }),
            ReplayOp::Apply(Edit::Fault(
                {
                    let mut f = FaultSet::new();
                    f.fail_proc(ProcId(5));
                    f.fail_link(LinkId(2));
                    f.fail_proc(ProcId(1));
                    f
                },
            )),
            ReplayOp::Undo,
        ];
        for op in ops {
            let record = to_record(&op);
            let parsed = parse_line(&record).unwrap().unwrap();
            assert_eq!(parsed, op, "record {record:?}");
            // canonical form is a fixed point
            assert_eq!(to_record(&parsed), record);
        }
    }

    #[test]
    fn stream_ops_parse() {
        assert_eq!(
            parse_line("spawn 3 1 5 7"),
            Ok(Some(ReplayOp::Stream(ChurnEvent::Spawn {
                task: 3,
                parent: Some(1),
                load: 5,
                volume: 7,
            })))
        );
        assert_eq!(
            parse_line("spawn 0 - 2 0\r"),
            Ok(Some(ReplayOp::Stream(ChurnEvent::Spawn {
                task: 0,
                parent: None,
                load: 2,
                volume: 0,
            })))
        );
        assert_eq!(
            parse_line("depart 4"),
            Ok(Some(ReplayOp::Stream(ChurnEvent::Depart { task: 4 })))
        );
        assert_eq!(
            parse_line("load 2 99"),
            Ok(Some(ReplayOp::Stream(ChurnEvent::Load { task: 2, load: 99 })))
        );
        assert_eq!(
            parse_line("recover link:3 proc:1 link:0"),
            Ok(Some(ReplayOp::Stream(ChurnEvent::Recover {
                procs: vec![ProcId(1)],
                links: vec![LinkId(0), LinkId(3)],
            })))
        );
    }

    #[test]
    fn malformed_stream_ops_are_typed_errors() {
        for line in [
            "spawn",
            "spawn 1",
            "spawn 1 -",
            "spawn 1 - 2",
            "spawn 1 x 2 3",
            "spawn 1 - 2 3 4",
            "depart",
            "depart x",
            "depart 1 2",
            "load 1",
            "load 1 x",
            "recover",
            "recover bogus",
            "recover proc:x",
        ] {
            assert!(parse_line(line).is_err(), "line {line:?} must error");
        }
    }

    #[test]
    fn stream_records_round_trip_through_fault_event() {
        let events = vec![
            ChurnEvent::Spawn {
                task: 9,
                parent: None,
                load: 3,
                volume: 0,
            },
            ChurnEvent::Spawn {
                task: 10,
                parent: Some(9),
                load: 1,
                volume: 4,
            },
            ChurnEvent::Depart { task: 9 },
            ChurnEvent::Load { task: 10, load: 8 },
            ChurnEvent::Fault {
                procs: vec![ProcId(1), ProcId(2)],
                links: vec![LinkId(0)],
            },
            ChurnEvent::Recover {
                procs: vec![ProcId(1)],
                links: vec![LinkId(0)],
            },
        ];
        for ev in events {
            let record = event_record(&ev);
            let op = parse_line(&record).unwrap().unwrap();
            // fault lines parse as engine edits; fault_event reinterprets
            // both forms back to the canonical churn event.
            assert_eq!(fault_event(&op), Some(ev.clone()), "record {record:?}");
            assert_eq!(to_record(&op), record, "canonical form is a fixed point");
        }
    }

    #[test]
    fn program_op_parses_keeps_rule_text_and_round_trips() {
        let op = parse_line("program ring 0 forall i in 0..n-1 { body(i) -> body((i+2) mod n); }")
            .unwrap()
            .unwrap();
        assert_eq!(
            op,
            ReplayOp::Program {
                phase: "ring".into(),
                rule: 0,
                text: "forall i in 0..n-1 { body(i) -> body((i+2) mod n); }".into(),
            }
        );
        let record = to_record(&op);
        assert_eq!(parse_line(&record), Ok(Some(op.clone())));
        assert_eq!(to_record(&parse_line(&record).unwrap().unwrap()), record);
        // internal runs of whitespace are normalized in the canonical record
        let messy = ReplayOp::Program {
            phase: "ring".into(),
            rule: 2,
            text: "x(0)   ->\tx(1);".into(),
        };
        assert_eq!(to_record(&messy), "program ring 2 x(0) -> x(1);");
    }

    #[test]
    fn malformed_program_ops_are_typed_errors() {
        for line in ["program", "program ring", "program ring 0", "program ring x y(0) -> y(1);"] {
            assert!(parse_line(line).is_err(), "line {line:?} must error");
        }
    }

    #[test]
    fn fault_event_ignores_pure_edit_ops() {
        let op = parse_line("reassign 1 2").unwrap().unwrap();
        assert_eq!(fault_event(&op), None);
        assert_eq!(fault_event(&ReplayOp::Undo), None);
    }
}
