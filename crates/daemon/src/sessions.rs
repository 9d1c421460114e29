//! Crash-safe interactive sessions hosted inside the daemon.
//!
//! Both session kinds are owned values ([`InteractiveSession`],
//! [`StreamSession`]), so the registry is one table: name →
//! `Arc<Mutex<Option<Session>>>`. The table lock is held only to look a
//! name up, reserve it, or remove it; each operation then runs under its
//! own session's mutex on the connection thread that asked, so a long
//! replay or event batch serialises only with that session.
//!
//! Crash safety reuses the journal WAL (`core::journal`): every applied
//! edit is framed, checksummed, and fsync'd to
//! `<state-dir>/<name>.jrnl` before the response goes out, and a
//! sidecar `<name>.meta.json` records how to rebuild the session's
//! inputs. The sidecar is written before the journal it describes and
//! replaced atomically, so a crash leaves the old sidecar or the new
//! one, never a torn one. A SIGKILL'd daemon restarted with `--resume`
//! rescans the state dir, re-maps each session's program
//! (deterministic), and replays its journal — restoring the exact
//! session state, verified byte-for-byte by the kill-and-restart test.

use crate::json::{obj, Json};
use crate::request::{Failure, FailureClass, MapSpec};
use crate::topo::parse_target;
use oregami::journal::{self, Journal};
use oregami::replay;
use oregami::{
    Budget, ChurnConfig, DispatchError, Dispatched, InteractiveSession, MetricSnapshot,
    MetricsDelta, RouteTableCache, StreamError, StreamSession,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Each lives in its own [`Slot`] allocation, so the variants' sizes are
/// not worth a second box.
#[allow(clippy::large_enum_variant)]
enum Session {
    /// An edit session and the spec its sidecar was written from (a
    /// `program` edit rewrites the sidecar with the new source).
    Edit(InteractiveSession, MapSpec),
    Stream(StreamSession),
}

/// `None` is a name with nothing behind it: an open still building, or a
/// session closed while another request held the slot.
type Slot = Arc<Mutex<Option<Session>>>;

/// The daemon's session table.
pub struct SessionRegistry {
    state_dir: PathBuf,
    cache: Arc<RouteTableCache>,
    /// Shared incremental LaRCS front end: session opens, resumes, and
    /// `program` rule edits all compile through it, so a session edit
    /// re-expands only the rule that changed.
    frontend: Arc<Mutex<oregami::larcs::Db>>,
    sessions: Mutex<HashMap<String, Slot>>,
    /// Torn-tail truncations observed while resuming journals — a
    /// monitoring counter, not just a one-shot warning.
    truncations: AtomicU64,
}

type OpResult = Result<Json, Failure>;

fn internal(msg: impl Into<String>) -> Failure {
    FailureClass::Session.fail(msg)
}

fn bad_request(msg: impl Into<String>) -> Failure {
    FailureClass::BadRequest.fail(msg)
}

impl SessionRegistry {
    pub fn new(
        state_dir: PathBuf,
        cache: Arc<RouteTableCache>,
        frontend: Arc<Mutex<oregami::larcs::Db>>,
    ) -> SessionRegistry {
        SessionRegistry {
            state_dir,
            cache,
            frontend,
            sessions: Mutex::new(HashMap::new()),
            truncations: AtomicU64::new(0),
        }
    }

    /// The table lock. Every update under it is one insert or remove, so
    /// the map is valid even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn count(&self) -> usize {
        self.lock().len()
    }

    /// Torn-tail truncations recovered across every resume so far.
    pub fn truncations(&self) -> u64 {
        self.truncations.load(Ordering::Relaxed)
    }

    fn journal_path(&self, name: &str) -> PathBuf {
        self.state_dir.join(format!("{name}.jrnl"))
    }

    fn meta_path(&self, name: &str) -> PathBuf {
        self.state_dir.join(format!("{name}.meta.json"))
    }

    /// Runs `op` on the named session, holding that session's lock and no
    /// other. A poisoned lock means an earlier operation panicked part-way
    /// through an update: the state behind it is not trusted, and every
    /// later operation gets a typed error until the session is closed.
    fn with<T>(
        &self,
        name: &str,
        op: impl FnOnce(&mut Session) -> Result<T, Failure>,
    ) -> Result<T, Failure> {
        let none = || bad_request(format!("no session '{name}'"));
        let slot = self.lock().get(name).map(Arc::clone).ok_or_else(none)?;
        let mut guard = slot
            .lock()
            .map_err(|_| internal("an earlier operation on this session panicked; close it"))?;
        op(guard.as_mut().ok_or_else(none)?)
    }

    /// Reserves `name` and builds its session, or reports the name taken
    /// (`Ok(None)`). The reservation is made under the table lock before
    /// `build` touches any file, so of two requests opening one name
    /// exactly one writes a sidecar and a journal; `build` itself runs
    /// without the table lock, and the name is given back if it fails or
    /// panics.
    fn open_with(
        &self,
        name: &str,
        build: impl FnOnce() -> Result<(Session, Json), Failure>,
    ) -> Result<Option<Json>, Failure> {
        let slot = Slot::default();
        {
            let mut table = self.lock();
            if table.contains_key(name) {
                return Ok(None);
            }
            table.insert(name.to_string(), Arc::clone(&slot));
        }
        let built = catch_unwind(AssertUnwindSafe(build))
            .unwrap_or_else(|_| Err(internal("session open panicked")));
        match built {
            Ok((session, info)) => {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(session);
                Ok(Some(info))
            }
            Err(e) => {
                self.lock().remove(name);
                Err(e)
            }
        }
    }

    /// Opens a fresh journaled session. Fails if the name is taken.
    pub fn open(&self, name: &str, spec: MapSpec) -> OpResult {
        if let Some(opened) = self.open_with(name, || self.build_edit(name, spec, false))? {
            return Ok(opened);
        }
        let is_stream = self.with(name, |s| Ok(matches!(s, Session::Stream(_))));
        Err(bad_request(if is_stream.unwrap_or(false) {
            format!("'{name}' is a stream session")
        } else {
            format!("session '{name}' already exists")
        }))
    }

    /// Maps `spec` and opens an edit session on the result — fresh, or
    /// with `resume` replaying the journal already on disk.
    fn build_edit(&self, name: &str, spec: MapSpec, resume: bool) -> Result<(Session, Json), Failure> {
        let (system, _) = spec.toolchain().map_err(bad_request)?;
        let system = system
            .with_cache(Arc::clone(&self.cache))
            .with_frontend(Arc::clone(&self.frontend));
        let result = system
            .map_source(&spec.source, &spec.param_refs())
            .map_err(|e| FailureClass::wire(&e))?;
        let journal_path = self.journal_path(name);
        let (session, replayed) = if resume {
            let (s, recovery) = system
                .resume(&result, &journal_path)
                .map_err(|e| internal(e.to_string()))?;
            if recovery.truncated {
                self.truncations.fetch_add(1, Ordering::Relaxed);
            }
            (s, recovery.records.len())
        } else {
            // meta first, journal second: a crash in between leaves a meta
            // file without a journal, which resume reports and skips — never
            // a journal that can't be interpreted
            write_meta(&self.meta_path(name), &spec, None).map_err(internal)?;
            let mut s = system.interactive(&result).map_err(|e| FailureClass::wire(&e))?;
            s.attach_journal(Journal::create(&journal_path).map_err(|e| internal(e.to_string()))?);
            (s, 0)
        };
        let opened = obj()
            .field("session", name)
            .field("resumed", replayed)
            .field("tasks", result.task_graph.num_tasks())
            .field("procs", system.network().num_procs())
            .field("snapshot", snapshot_json(name, &session))
            .build();
        Ok((Session::Edit(session, spec), opened))
    }

    /// Opens (on first use, when `topology` is given) and feeds a
    /// journaled churn-stream session. Each event line is a stream-
    /// dialect record (`spawn`/`depart`/`load`/`fault`/`recover`); a
    /// controller-rejected event is reported per-event and the batch
    /// continues — the mapping is valid after every event either way.
    pub fn stream(
        &self,
        name: &str,
        topology: Option<&str>,
        load_bound: Option<usize>,
        events: &[String],
        draining: bool,
    ) -> OpResult {
        if !self.lock().contains_key(name) {
            if draining {
                return Err(FailureClass::ShuttingDown.fail("daemon is draining; no new sessions"));
            }
            let topo = topology.ok_or_else(|| {
                bad_request(format!("no stream session '{name}'; give 'topology' to open one"))
            })?;
            // losing a race for the name just means feeding the winner
            self.open_with(name, || {
                let (net, _) = parse_target(topo).map_err(bad_request)?;
                let cfg = ChurnConfig {
                    load_bound: load_bound.unwrap_or(ChurnConfig::default().load_bound),
                    ..ChurnConfig::default()
                };
                // meta first, journal second: same crash ordering as edit
                // sessions
                // sidecar: just the topology (the churn config is pinned
                // inside the journal itself, as its first frame)
                let meta = obj()
                    .field("kind", "stream")
                    .field("topology", topo)
                    .field("load_bound", load_bound.map_or(Json::Null, Json::from));
                write_meta_json(&self.meta_path(name), &meta.build()).map_err(internal)?;
                let session = StreamSession::create(net, cfg, &self.journal_path(name))
                    .map_err(|e| internal(e.to_string()))?;
                Ok((Session::Stream(session), Json::Null))
            })?;
        }
        self.with(name, |session| {
            let Session::Stream(session) = session else {
                return Err(bad_request(format!(
                    "'{name}' is an edit session; stream events need a stream session"
                )));
            };
            let budget = Budget::unlimited();
            let mut accepted = 0u64;
            let mut rejected = Vec::new();
            for (i, line) in events.iter().enumerate() {
                match session.ingest_line(line, &budget) {
                    Ok(Some(_)) => accepted += 1,
                    Ok(None) => {}
                    Err(StreamError::Churn(e)) => rejected.push(
                        obj().field("event", i).field("message", e.to_string()).build(),
                    ),
                    Err(e) => {
                        return Err(bad_request(format!(
                            "event {i}: {e} ({accepted} earlier event(s) were applied)"
                        )))
                    }
                }
            }
            let snapshot = crate::json::parse(&session.snapshot_json()).unwrap_or(Json::Null);
            let mut out = obj()
                .field("session", name)
                .field("accepted", accepted)
                .field("rejected", Json::Arr(rejected))
                .field("snapshot", snapshot);
            if let Some(w) = session.journal_error() {
                out = out.field("journal_warning", w);
            }
            Ok(out.build())
        })
    }

    /// Rebuilds every session recorded in the state dir (its meta file
    /// plus journal), replaying each journal. Returns `(resumed,
    /// failures)` — a failure names the session and why.
    pub fn resume_all(&self) -> (Vec<String>, Vec<(String, String)>) {
        let mut resumed = Vec::new();
        let mut failed = Vec::new();
        let entries = match std::fs::read_dir(&self.state_dir) {
            Ok(e) => e,
            Err(_) => return (resumed, failed),
        };
        for entry in entries.flatten() {
            let file = entry.file_name();
            let file = file.to_string_lossy();
            let Some(name) = file.strip_suffix(".meta.json") else {
                continue;
            };
            match self.open_with(name, || self.resume_one(name)) {
                Ok(Some(_)) => resumed.push(name.to_string()),
                Ok(None) => failed.push((name.to_string(), "already open".to_string())),
                Err((_, msg)) => failed.push((name.to_string(), msg)),
            }
        }
        resumed.sort();
        (resumed, failed)
    }

    /// The one resume path: read the sidecar, then rebuild whichever kind
    /// of session it describes from its journal.
    fn resume_one(&self, name: &str) -> Result<(Session, Json), Failure> {
        let meta_text = std::fs::read_to_string(self.meta_path(name))
            .map_err(|e| internal(format!("cannot read meta: {e}")))?;
        let meta = crate::json::parse(&meta_text)
            .map_err(|e| internal(format!("corrupt meta: {e}")))?;
        let journal_path = self.journal_path(name);
        if !journal_path.exists() {
            return Err(internal("meta present but journal missing"));
        }
        if meta.get("kind").and_then(Json::as_str) == Some("stream") {
            // byte-identical by the determinism contract of
            // `StreamSession::resume`: config frame + accepted-event prefix
            let topo = meta
                .get("topology")
                .and_then(Json::as_str)
                .ok_or_else(|| internal("stream meta missing 'topology'"))?;
            let (net, _) = parse_target(topo).map_err(internal)?;
            let (session, recovery) = StreamSession::resume(net, &journal_path)
                .map_err(|e| internal(e.to_string()))?;
            if recovery.truncated {
                self.truncations.fetch_add(1, Ordering::Relaxed);
            }
            return Ok((Session::Stream(session), Json::Null));
        }
        // A sidecar naming a `journal_pin` was written by a program edit,
        // just before the edit restarted the journal with that pin as its
        // first frame. A journal that does not open with it means the
        // daemon died between the two steps: its frames were recorded
        // against the previous source, so replace it with the empty
        // pinned journal the edit was about to create.
        if let Some(pin) = meta.get("journal_pin").and_then(Json::as_str) {
            let on_disk = journal::recover(&journal_path, false)
                .map_err(|e| internal(e.to_string()))?
                .records;
            if on_disk.first().map(String::as_str) != Some(pin) {
                Journal::create(&journal_path)
                    .and_then(|mut j| j.append(pin))
                    .map_err(|e| internal(e.to_string()))?;
            }
        }
        // the sidecar is a stored request
        let spec = MapSpec::from_json(&meta).map_err(|e| internal(e.to_string()))?;
        self.build_edit(name, spec, true)
    }

    /// Applies one replay-dialect edit line (`reassign 3 1`, `undo`,
    /// `program step 0 ...`). A `program` edit replaces the sidecar with
    /// the edited source before the session's journal restarts.
    pub fn edit(&self, name: &str, line: &str) -> OpResult {
        let meta_path = self.meta_path(name);
        self.with(name, |session| {
            let Session::Edit(session, spec) = session else {
                return Err(bad_request(format!("no session '{name}'")));
            };
            let op = match replay::parse_line(line) {
                Ok(Some(op)) => op,
                Ok(None) => return Err(bad_request("empty edit line")),
                Err(e) => return Err(bad_request(e)),
            };
            let done = session.dispatch(op, &Budget::unlimited(), |source, pin| {
                let edited = MapSpec { source: source.to_string(), ..spec.clone() };
                write_meta(&meta_path, &edited, Some(pin))?;
                *spec = edited;
                Ok(())
            });
            let delta = match done {
                Ok(Dispatched::Applied(d)) => Some(d),
                Ok(Dispatched::Undone(d)) => d,
                Ok(Dispatched::Recompiled(result)) => {
                    return Ok(obj()
                        .field("recompiled", true)
                        .field("tasks", result.task_graph.num_tasks())
                        .field("snapshot", snapshot_json(name, session))
                        .build())
                }
                Err(e) => {
                    return Err(match e {
                        DispatchError::Stream => bad_request(format!("{e} (op session_stream)")),
                        DispatchError::NoSource | DispatchError::Rule(_) => {
                            bad_request(e.to_string())
                        }
                        DispatchError::Remap(_) => FailureClass::Map.fail(e.to_string()),
                        _ => internal(e.to_string()),
                    })
                }
            };
            let mut out = obj()
                .field("applied", line)
                .field("edits", session.edit_log().len())
                .field("delta", delta.as_ref().map_or(Json::Null, delta_json));
            if let Some(warning) = session.journal_error() {
                out = out.field("journal_warning", warning);
            }
            Ok(out.build())
        })
    }

    /// A deterministic snapshot of the session's full state.
    pub fn snapshot(&self, name: &str) -> OpResult {
        self.with(name, |session| match session {
            Session::Edit(session, _) => Ok(snapshot_json(name, session)),
            Session::Stream(s) => Ok(crate::json::parse(&s.snapshot_json()).unwrap_or(Json::Null)),
        })
    }

    /// Ends the session and deletes its journal and meta file (a closed
    /// session must not resurrect on the next `--resume`).
    pub fn close(&self, name: &str) -> OpResult {
        let slot = self.lock().get(name).map(Arc::clone);
        // wait out any in-flight operation, then take the session out of
        // its slot (a poisoned session is closable like any other)
        let session = slot.and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take());
        if session.is_none() {
            return Err(bad_request(format!("no session '{name}'")));
        }
        // drop the journal handle, delete the files, and only then free
        // the name, so a re-open of it cannot have its new files deleted
        drop(session);
        let _ = std::fs::remove_file(self.journal_path(name));
        let _ = std::fs::remove_file(self.meta_path(name));
        self.lock().remove(name);
        Ok(obj().field("session", name).field("closed", true).build())
    }

    /// Drops every session without touching journals or meta files, so a
    /// drained daemon's sessions resume on the next start. Every accepted
    /// edit and event is already fsync'd; this waits out operations still
    /// in flight and closes the journal handles.
    pub fn shutdown(&self) {
        let slots: Vec<Slot> = self.lock().drain().map(|(_, slot)| slot).collect();
        for slot in slots {
            slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        }
    }
}

/// Everything a client (or the kill-and-restart test) needs to compare
/// session state byte-for-byte: rendered deterministically, field order
/// fixed.
fn snapshot_json(name: &str, session: &InteractiveSession) -> Json {
    obj()
        .field("session", name)
        .field("edits", session.edit_log().len())
        .field("undo_depth", session.undo_depth())
        .field("assignment", assignment_json(session.mapping()))
        .field("metrics", metric_json(&session.snapshot()))
        .field("report", session.report().render())
        .build()
}

/// A mapping's task → processor vector.
pub fn assignment_json(mapping: &oregami::Mapping) -> Json {
    Json::Arr(mapping.assignment.iter().map(|p| Json::from(u64::from(p.0))).collect())
}

/// One metric snapshot as an ordered object.
pub fn metric_json(s: &MetricSnapshot) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    obj()
        .field("max_link_volume", s.max_link_volume)
        .field("avg_dilation_millis", s.avg_dilation_millis)
        .field("max_dilation", s.max_dilation)
        .field("max_contention", s.max_contention)
        .field("total_ipc", s.total_ipc)
        .field("internalized_volume", s.internalized_volume)
        .field("max_exec_time", s.max_exec_time)
        .field("imbalance_millis", s.imbalance_millis)
        .field("completion_time", opt(s.completion_time))
        .field("comm_time", opt(s.comm_time))
        .build()
}

/// What one edit changed.
fn delta_json(d: &MetricsDelta) -> Json {
    obj()
        .field("edges_touched", d.edges_touched)
        .field("before", metric_json(&d.before))
        .field("after", metric_json(&d.after))
        .build()
}

/// An edit session's sidecar is its request as [`MapSpec::to_json`]
/// writes it, so [`MapSpec::from_json`] reads it back on resume.
/// `journal_pin` is the frame a program edit's restarted journal opens
/// with (see [`SessionRegistry::resume_one`]); `None` at open.
fn write_meta(path: &Path, spec: &MapSpec, journal_pin: Option<&str>) -> Result<(), String> {
    let mut meta = spec.to_json();
    if let (Json::Obj(fields), Some(pin)) = (&mut meta, journal_pin) {
        fields.push(("journal_pin".to_string(), Json::from(pin)));
    }
    write_meta_json(path, &meta)
}

fn write_meta_json(path: &Path, meta: &Json) -> Result<(), String> {
    journal::write_atomic(path, meta.render().as_bytes())
        .map_err(|e| format!("cannot write meta: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami::larcs::programs;
    use std::sync::Barrier;

    fn spec() -> MapSpec {
        MapSpec {
            source: programs::nbody(),
            label: "nbody".to_string(),
            params: vec![
                ("msgsize".to_string(), 4),
                ("n".to_string(), 16),
                ("s".to_string(), 2),
            ],
            topology: "hypercube:3".to_string(),
            deadline_ms: None,
            max_steps: None,
            chain: None,
            load_bound: None,
            fail_procs: Vec::new(),
            fail_links: Vec::new(),
            chaos: None,
        }
    }

    /// A six-cell chain on a four-ring, with one rule a `program` edit
    /// can re-weight.
    fn ring_spec() -> MapSpec {
        MapSpec {
            source: "algorithm ring(n);\n\
                     nodetype cell: 0..n-1;\n\
                     comphase step:\n\
                     forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1); }\n\
                     exephase update cost 2;\n\
                     phaseexpr (step; update)^2;\n"
                .to_string(),
            label: "inline".to_string(),
            params: vec![("n".to_string(), 6)],
            topology: "ring:4".to_string(),
            ..spec()
        }
    }

    const VOLUME_5: &str =
        "program step 0 forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1) volume 5; }";

    fn temp_dir(tag: &str) -> PathBuf {
        let mut d = std::env::temp_dir();
        d.push(format!("oregamid-sessions-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn registry(dir: &Path) -> SessionRegistry {
        SessionRegistry::new(
            dir.to_path_buf(),
            Arc::new(RouteTableCache::new(4)),
            Arc::new(Mutex::new(oregami::larcs::Db::new())),
        )
    }

    fn edits(snapshot: &Json) -> u64 {
        snapshot.get("edits").unwrap().as_u64().unwrap()
    }

    #[test]
    fn open_edit_snapshot_close_lifecycle() {
        let dir = temp_dir("lifecycle");
        let reg = registry(&dir);
        let opened = reg.open("alpha", spec()).unwrap();
        assert_eq!(opened.get("resumed").unwrap().as_u64(), Some(0));
        assert!(dir.join("alpha.jrnl").exists());
        assert!(dir.join("alpha.meta.json").exists());

        // duplicate name is refused
        assert!(reg.open("alpha", spec()).is_err());

        let r = reg.edit("alpha", "reassign 3 1").unwrap();
        assert_eq!(r.get("edits").unwrap().as_u64(), Some(1));
        assert!(r.get("delta").unwrap().get("edges_touched").is_some());
        // a bad edit is a typed error, the session survives
        assert!(reg.edit("alpha", "reassign 9999 0").is_err());
        let snap = reg.snapshot("alpha").unwrap();
        assert_eq!(edits(&snap), 1);

        reg.close("alpha").unwrap();
        assert!(!dir.join("alpha.jrnl").exists());
        assert!(!dir.join("alpha.meta.json").exists());
        assert!(reg.edit("alpha", "undo").is_err());
        assert_eq!(reg.count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_byte_identical_snapshots() {
        let dir = temp_dir("resume");
        let snap_before;
        {
            let reg = registry(&dir);
            reg.open("beta", spec()).unwrap();
            reg.edit("beta", "reassign 3 1").unwrap();
            reg.edit("beta", "reassign 4 2").unwrap();
            reg.edit("beta", "undo").unwrap();
            reg.edit("beta", "reassign 5 0").unwrap();
            snap_before = reg.snapshot("beta").unwrap().render();
            // shutdown WITHOUT close: what a dying daemon leaves behind
            // (journal and meta survive)
            reg.shutdown();
        }
        let reg = registry(&dir);
        let (resumed, failed) = reg.resume_all();
        assert_eq!(resumed, vec!["beta".to_string()]);
        assert!(failed.is_empty(), "{failed:?}");
        let snap_after = reg.snapshot("beta").unwrap().render();
        assert_eq!(snap_before, snap_after, "resume must restore state byte-identically");
        // and the resumed session keeps journalling
        reg.edit("beta", "undo").unwrap();
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sidecar is the request as `MapSpec::to_json` writes it. The
    /// one the previous release wrote by hand (`source` and a `label` for
    /// a builtin too, an explicit null `load_bound`) reads back as the
    /// same request, and a machine target opens like a flat one.
    #[test]
    fn sidecar_is_the_serialised_request_and_the_old_field_set_still_resumes() {
        let dir = temp_dir("sidecar");
        let before;
        {
            let reg = registry(&dir);
            let machine = MapSpec { topology: "mesh-boards:2x2x2x2".to_string(), ..spec() };
            reg.open("delta", machine.clone()).unwrap();
            reg.edit("delta", "reassign 3 1").unwrap();
            before = reg.snapshot("delta").unwrap().render();
            reg.shutdown();
            let meta = std::fs::read_to_string(dir.join("delta.meta.json")).unwrap();
            assert_eq!(meta, machine.to_json().render());
            assert_eq!(MapSpec::from_json(&crate::json::parse(&meta).unwrap()).unwrap(), machine);
        }
        let old = obj()
            .field("topology", "mesh-boards:2x2x2x2")
            .field("source", programs::nbody())
            .field("label", "nbody")
            .field("params", obj().field("msgsize", 4i64).field("n", 16i64).field("s", 2i64).build())
            .field("load_bound", Json::Null)
            .build();
        std::fs::write(dir.join("delta.meta.json"), old.render()).unwrap();
        let reg = registry(&dir);
        assert_eq!(reg.resume_all(), (vec!["delta".to_string()], Vec::new()));
        assert_eq!(reg.snapshot("delta").unwrap().render(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task").unwrap().count()
    }

    /// Sessions are values in a table, not threads: opening ten of them
    /// starts nothing. Other tests of this binary run concurrently and
    /// do spawn threads, so the count is sampled until it holds still.
    #[test]
    fn edit_sessions_spawn_no_threads() {
        let dir = temp_dir("threads");
        let reg = registry(&dir);
        // warm the shared caches so nothing lazily initialised is counted
        reg.open("warm", spec()).unwrap();
        let spawned_none = (0..50).any(|round| {
            let before = thread_count();
            for i in 0..10 {
                reg.open(&format!("s{round}-{i}"), spec()).unwrap();
            }
            let after = thread_count();
            for i in 0..10 {
                reg.edit(&format!("s{round}-{i}"), "reassign 3 1").unwrap();
                reg.close(&format!("s{round}-{i}")).unwrap();
            }
            after <= before
        });
        assert!(spawned_none, "opening edit sessions must not start threads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Racing opens of one name: exactly one wins, the rest are refused
    /// before they touch the winner's files, and the winner's journal
    /// resumes.
    #[test]
    fn concurrent_opens_of_one_name_admit_exactly_one() {
        let dir = temp_dir("race-open");
        let reg = registry(&dir);
        let barrier = Barrier::new(8);
        let outcomes: Vec<OpResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        reg.open("dup", spec())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 1);
        for refused in outcomes.iter().filter_map(|r| r.as_ref().err()) {
            assert_eq!(refused.0, "bad_request", "{refused:?}");
        }
        assert_eq!(reg.count(), 1);
        reg.edit("dup", "reassign 3 1").unwrap();
        let before = reg.snapshot("dup").unwrap().render();
        reg.shutdown();

        let reg = registry(&dir);
        assert_eq!(reg.resume_all(), (vec!["dup".to_string()], Vec::new()));
        assert_eq!(reg.snapshot("dup").unwrap().render(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An edit-session open racing a stream-session open of the same
    /// name: one of them gets the name (and its `<name>.jrnl`), the other
    /// a `bad_request`, whichever way the race falls.
    #[test]
    fn open_racing_stream_on_one_name_admits_exactly_one() {
        let dir = temp_dir("race-kinds");
        for round in 0..8 {
            let reg = registry(&dir);
            let name = format!("both{round}");
            let barrier = Barrier::new(2);
            let events = ["spawn 0 - 3 0".to_string()];
            let (edit, stream) = std::thread::scope(|scope| {
                let edit = scope.spawn(|| {
                    barrier.wait();
                    reg.open(&name, spec())
                });
                let stream = scope.spawn(|| {
                    barrier.wait();
                    reg.stream(&name, Some("hypercube:3"), None, &events, false)
                });
                (edit.join().unwrap(), stream.join().unwrap())
            });
            assert_ne!(edit.is_ok(), stream.is_ok(), "{edit:?} / {stream:?}");
            let refused = edit.err().or(stream.err()).unwrap();
            assert_eq!(refused.0, "bad_request", "{refused:?}");
            let before = reg.snapshot(&name).unwrap().render();
            reg.shutdown();

            let reg = registry(&dir);
            let (resumed, failed) = reg.resume_all();
            assert!(failed.is_empty(), "{failed:?}");
            assert!(resumed.contains(&name));
            assert_eq!(reg.snapshot(&name).unwrap().render(), before);
            reg.close(&name).unwrap();
            reg.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic inside a session operation poisons that session only:
    /// later operations on it are typed errors, its neighbours and the
    /// table carry on, and it can still be closed.
    #[test]
    fn a_poisoned_session_is_a_typed_error_until_closed() {
        let dir = temp_dir("poison");
        let reg = registry(&dir);
        reg.open("bad", spec()).unwrap();
        reg.open("good", spec()).unwrap();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            reg.with("bad", |_| -> OpResult { panic!("injected mid-operation panic") })
        }));
        assert!(panicked.is_err());
        for refused in [reg.edit("bad", "undo"), reg.snapshot("bad")] {
            assert_eq!(refused.unwrap_err().0, "session");
        }
        reg.edit("good", "reassign 3 1").unwrap();
        assert_eq!(reg.count(), 2);
        reg.close("bad").unwrap();
        assert!(!dir.join("bad.jrnl").exists());
        reg.open("bad", spec()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The two states a crash inside a `program` edit can leave, built by
    /// hand. The edit replaces the sidecar (temp file, then rename) and
    /// only then restarts the journal.
    #[test]
    fn program_edit_crash_windows_resume_consistently() {
        // The sidecar and journal of a ring session after two edits, and
        // the sidecar a `volume 5` program edit would replace it with.
        let dir = temp_dir("crash-window");
        let (old_meta, old_journal, new_meta, after_edit);
        {
            let reg = registry(&dir);
            reg.open("ring", ring_spec()).unwrap();
            reg.edit("ring", "reassign 0 1").unwrap();
            reg.edit("ring", "reassign 1 2").unwrap();
            old_meta = std::fs::read(dir.join("ring.meta.json")).unwrap();
            old_journal = std::fs::read(dir.join("ring.jrnl")).unwrap();
            let r = reg.edit("ring", VOLUME_5).unwrap();
            after_edit = r.get("snapshot").unwrap().render();
            new_meta = std::fs::read(dir.join("ring.meta.json")).unwrap();
            reg.shutdown();
        }
        assert!(String::from_utf8_lossy(&new_meta).contains("volume 5"));

        // Crash before the rename: the new sidecar exists only as a
        // (here half-written) temp file. The old source resumes with its
        // full log.
        std::fs::write(dir.join("ring.meta.json"), &old_meta).unwrap();
        std::fs::write(dir.join("ring.jrnl"), &old_journal).unwrap();
        std::fs::write(dir.join("ring.meta.json.tmp"), &new_meta[..new_meta.len() / 2]).unwrap();
        let reg = registry(&dir);
        assert_eq!(reg.resume_all(), (vec!["ring".to_string()], Vec::new()));
        let snap = reg.snapshot("ring").unwrap();
        assert_eq!(edits(&snap), 2);
        assert!(!snap.render().contains("volume 5"));
        reg.shutdown();

        // Crash after the rename, before the journal restart: the new
        // source beside the old frames. Those frames describe a mapping
        // the new source never had; it resumes with an empty log, exactly
        // as the edit's own reply showed it.
        std::fs::write(dir.join("ring.meta.json"), &new_meta).unwrap();
        std::fs::write(dir.join("ring.jrnl"), &old_journal).unwrap();
        let reg = registry(&dir);
        assert_eq!(reg.resume_all(), (vec!["ring".to_string()], Vec::new()));
        assert_eq!(reg.snapshot("ring").unwrap().render(), after_edit);
        // the restarted journal is live: an edit now survives a resume
        reg.edit("ring", "reassign 1 0").unwrap();
        let before = reg.snapshot("ring").unwrap().render();
        reg.shutdown();
        let reg = registry(&dir);
        assert_eq!(reg.resume_all(), (vec!["ring".to_string()], Vec::new()));
        assert_eq!(reg.snapshot("ring").unwrap().render(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
