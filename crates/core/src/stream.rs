//! Crash-safe churn-stream sessions: a [`ChurnController`] wrapped with
//! the CRC-framed [`Journal`] so a SIGKILLed controller resumes
//! mid-stream byte-identically.
//!
//! The journal layout is one frame per *accepted* event in the canonical
//! replay dialect (`spawn`/`depart`/`load`/`fault`/`recover` lines),
//! preceded by a single `config ...` frame pinning the hysteresis
//! configuration. Rejected events are never journaled, and the
//! controller's decisions are a pure function of (config,
//! accepted-event prefix), so recovery — truncate the torn tail, parse
//! the config frame, replay every event frame — reproduces the
//! controller state byte-for-byte ([`ChurnController::state_record`]).

use crate::journal::{self, Journal, JournalRecovery};
use crate::replay::{self, ReplayOp};
use crate::OregamiError;
use oregami_mapper::churn::{
    ChurnConfig, ChurnController, ChurnError, ChurnEvent, ChurnOutcome,
};
use oregami_mapper::Budget;
use oregami_topology::Network;
use std::path::Path;

/// Why a stream line was not applied.
#[derive(Debug)]
pub enum StreamError {
    /// The line did not parse in the replay dialect.
    Parse(String),
    /// The line parsed to an edit-session op (reassign/reroute/undo)
    /// that has no meaning in a churn stream.
    NotAStreamOp(String),
    /// The controller rejected the event (state unchanged).
    Churn(ChurnError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Parse(e) => write!(f, "{e}"),
            StreamError::NotAStreamOp(op) => {
                write!(f, "'{op}' is an edit-session op, not a stream event")
            }
            StreamError::Churn(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// A journaled churn-stream session. See the module docs for the
/// crash-safety contract.
pub struct StreamSession {
    controller: ChurnController,
    journal: Option<Journal>,
    journal_error: Option<String>,
}

impl StreamSession {
    /// An unjournaled in-memory session (used by `--stream` without
    /// `--journal`, and by benches).
    pub fn new(net: Network, cfg: ChurnConfig) -> Result<StreamSession, ChurnError> {
        Ok(StreamSession {
            controller: ChurnController::new(net, cfg)?,
            journal: None,
            journal_error: None,
        })
    }

    /// Creates a fresh journaled session at `path` (truncating any
    /// previous journal) and pins the config as the first frame.
    pub fn create(
        net: Network,
        cfg: ChurnConfig,
        path: &Path,
    ) -> Result<StreamSession, OregamiError> {
        let controller =
            ChurnController::new(net, cfg.clone()).map_err(OregamiError::Churn)?;
        let mut journal =
            Journal::create(path).map_err(|e| OregamiError::Journal(e.to_string()))?;
        journal
            .append(&cfg.to_record())
            .map_err(|e| OregamiError::Journal(e.to_string()))?;
        Ok(StreamSession {
            controller,
            journal: Some(journal),
            journal_error: None,
        })
    }

    /// Reopens a crashed stream session: recovers the journal frames
    /// (truncating a torn tail), reads the pinned config from the first
    /// frame, replays every accepted event through a fresh controller,
    /// and re-attaches the journal in append mode. The resumed
    /// controller state is byte-identical to the pre-crash state
    /// ([`ChurnController::state_record`]) because every decision is a
    /// pure function of the journaled prefix.
    pub fn resume(
        net: Network,
        path: &Path,
    ) -> Result<(StreamSession, JournalRecovery), OregamiError> {
        let recovery =
            journal::recover(path, true).map_err(|e| OregamiError::Journal(e.to_string()))?;
        let mut records = recovery.records.iter();
        let cfg = match records.next() {
            Some(first) if first.starts_with("config ") || first == "config" => {
                ChurnConfig::parse_record(first).map_err(|e| {
                    OregamiError::Journal(format!("{}: frame 1: {e}", path.display()))
                })?
            }
            Some(other) => {
                return Err(OregamiError::Journal(format!(
                    "{}: frame 1: expected a stream config record, got '{other}'",
                    path.display()
                )));
            }
            None => {
                return Err(OregamiError::Journal(format!(
                    "{}: empty journal has no config frame",
                    path.display()
                )));
            }
        };
        let mut controller = ChurnController::new(net, cfg).map_err(OregamiError::Churn)?;
        for (i, record) in records.enumerate() {
            let frame = i + 2;
            let ev = parse_event(record).map_err(|e| {
                OregamiError::Journal(format!("{}: frame {frame}: {e}", path.display()))
            })?;
            controller.ingest(&ev).map_err(|e| {
                OregamiError::Journal(format!(
                    "{}: frame {frame}: journalled event rejected: {e}",
                    path.display()
                ))
            })?;
        }
        let journal =
            Journal::open_append(path).map_err(|e| OregamiError::Journal(e.to_string()))?;
        Ok((
            StreamSession {
                controller,
                journal: Some(journal),
                journal_error: None,
            },
            recovery,
        ))
    }

    /// Ingests one raw stream line: parse, apply, journal. `Ok(None)`
    /// for blank/comment lines. Rejected events and non-stream ops leave
    /// both the controller and the journal untouched.
    ///
    /// `budget` is an admission gate only (polled before the event is
    /// applied); accepted-event outcomes are budget-independent, which
    /// is why [`StreamSession::resume`] can replay the journal under an
    /// unlimited budget and still be byte-identical.
    pub fn ingest_line(
        &mut self,
        line: &str,
        budget: &Budget,
    ) -> Result<Option<ChurnOutcome>, StreamError> {
        let op = match replay::parse_line(line).map_err(StreamError::Parse)? {
            Some(op) => op,
            None => return Ok(None),
        };
        let ev = match replay::fault_event(&op) {
            Some(ev) => ev,
            None => {
                let name = match op {
                    ReplayOp::Undo => "undo",
                    ReplayOp::Apply(_) => "reassign/reroute",
                    ReplayOp::Program { .. } => "program",
                    ReplayOp::Stream(_) => unreachable!("stream ops always convert"),
                };
                return Err(StreamError::NotAStreamOp(name.into()));
            }
        };
        self.ingest_event(&ev, budget).map(Some)
    }

    /// Ingests one parsed event (the daemon's `session_stream` path).
    /// Every accepted event's canonical record re-parses — the
    /// controller rejects events the journal grammar cannot represent
    /// (e.g. a `Fault`/`Recover` with no elements), so a journaled
    /// session can always be resumed.
    pub fn ingest_event(
        &mut self,
        ev: &ChurnEvent,
        budget: &Budget,
    ) -> Result<ChurnOutcome, StreamError> {
        let out = self
            .controller
            .ingest_budgeted(ev, budget)
            .map_err(StreamError::Churn)?;
        // Journal after acceptance: rejected events must not pollute the
        // replay prefix. Journalling is best-effort like the interactive
        // session's — an append failure latches the error and detaches,
        // keeping the stream serving (resume fidelity is surfaced via
        // `journal_error`).
        if let Some(j) = self.journal.as_mut() {
            if let Err(e) = j.append(&replay::event_record(ev)) {
                self.journal_error = Some(e.to_string());
                self.journal = None;
            }
        }
        Ok(out)
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &ChurnController {
        &self.controller
    }

    /// The latched journal failure, if appends started failing.
    pub fn journal_error(&self) -> Option<&str> {
        self.journal_error.as_deref()
    }

    /// Canonical state record (byte-compared by resume tests).
    pub fn state_record(&self) -> String {
        self.controller.state_record()
    }

    /// Compact JSON snapshot (the daemon's `session_stream` response).
    pub fn snapshot_json(&self) -> String {
        self.controller.snapshot_json()
    }
}

/// Parses a single stream record to its churn event. Errors on blank
/// lines and on edit-session ops — journal frames are never blank and
/// never hold undo/reassign in a stream journal.
fn parse_event(record: &str) -> Result<ChurnEvent, String> {
    match replay::parse_line(record)? {
        Some(op) => replay::fault_event(&op)
            .ok_or_else(|| format!("'{record}' is not a stream event")),
        None => Err("blank frame in stream journal".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_mapper::churn::{EventStream, StreamProfile};
    use oregami_topology::builders;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            load_bound: 4,
            probe_interval: 16,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn stream_session_applies_lines_and_rejects_edit_ops() {
        let mut s = StreamSession::new(builders::hypercube(3), cfg()).unwrap();
        let b = Budget::unlimited();
        assert!(s.ingest_line("# comment", &b).unwrap().is_none());
        assert!(s.ingest_line("spawn 0 - 3 0", &b).unwrap().is_some());
        assert!(s.ingest_line("spawn 1 0 2 5", &b).unwrap().is_some());
        assert!(matches!(
            s.ingest_line("undo", &b),
            Err(StreamError::NotAStreamOp(_))
        ));
        assert!(matches!(
            s.ingest_line("reassign 0 1", &b),
            Err(StreamError::NotAStreamOp(_))
        ));
        assert!(matches!(
            s.ingest_line("garbage", &b),
            Err(StreamError::Parse(_))
        ));
        assert_eq!(s.controller().events(), 2);
    }

    #[test]
    fn journaled_stream_resumes_byte_identically() {
        let dir = std::env::temp_dir().join(format!("oregami-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.jrnl");
        let net = builders::hypercube(3);
        let b = Budget::unlimited();

        let mut s = StreamSession::create(net.clone(), cfg(), &path).unwrap();
        let stream = EventStream::new(net.clone(), StreamProfile::FlapStorm, 11, 600, 4);
        for ev in stream {
            let _ = s.ingest_event(&ev, &b);
        }
        assert!(s.journal_error().is_none());
        let before = s.state_record();
        drop(s); // simulated crash: no clean shutdown handshake exists

        let (resumed, recovery) = StreamSession::resume(net, &path).unwrap();
        assert!(!recovery.truncated);
        assert_eq!(resumed.state_record(), before, "resume must be byte-identical");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_resumes() {
        let dir = std::env::temp_dir().join(format!("oregami-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jrnl");
        let net = builders::hypercube(3);
        let b = Budget::unlimited();

        let mut s = StreamSession::create(net.clone(), cfg(), &path).unwrap();
        for line in ["spawn 0 - 1 0", "spawn 1 0 2 3", "load 1 9"] {
            s.ingest_line(line, &b).unwrap();
        }
        drop(s);
        // Tear the tail mid-frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (resumed, recovery) = StreamSession::resume(net, &path).unwrap();
        assert!(recovery.truncated);
        // The torn frame (load) is gone; the intact prefix survives.
        assert_eq!(resumed.controller().events(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_fault_event_is_rejected_not_journaled() {
        // Regression: an accepted empty Fault/Recover would journal as
        // "fault "/"recover ", which parse_line rejects — bricking every
        // subsequent resume of the session.
        let dir = std::env::temp_dir().join(format!("oregami-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.jrnl");
        let net = builders::hypercube(3);
        let b = Budget::unlimited();

        let mut s = StreamSession::create(net.clone(), cfg(), &path).unwrap();
        s.ingest_line("spawn 0 - 1 0", &b).unwrap();
        for ev in [
            ChurnEvent::Fault {
                procs: vec![],
                links: vec![],
            },
            ChurnEvent::Recover {
                procs: vec![],
                links: vec![],
            },
        ] {
            assert!(matches!(
                s.ingest_event(&ev, &b),
                Err(StreamError::Churn(_))
            ));
        }
        assert!(s.journal_error().is_none());
        let before = s.state_record();
        drop(s);

        let (resumed, _) = StreamSession::resume(net, &path).unwrap();
        assert_eq!(resumed.state_record(), before);
        assert_eq!(resumed.controller().events(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_journal_without_config_frame() {
        let dir = std::env::temp_dir().join(format!("oregami-nocfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("n.jrnl");
        let mut j = Journal::create(&path).unwrap();
        j.append("spawn 0 - 1 0").unwrap();
        drop(j);
        let err = match StreamSession::resume(builders::hypercube(2), &path) {
            Ok(_) => panic!("resume without a config frame must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, OregamiError::Journal(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
