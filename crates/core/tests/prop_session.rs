//! One cross-layer differential suite for edit sessions. A random script
//! over the replay dialect (reassign / reroute / undo / fault / `program`
//! rule edits, some of them deliberately invalid) is driven through both
//! front doors of the one owned session — the library path the CLI uses
//! (`Oregami::interactive` / `Oregami::resume` + `InteractiveSession::
//! dispatch`) and the daemon's session table (`SessionRegistry::open` /
//! `edit` / `snapshot`, in-process) — and every standing contract is
//! asserted at once:
//!
//! * a rejected line leaves the snapshot unchanged;
//! * the session's incremental report equals a from-scratch
//!   `try_analyze_mapping` of its mapping on its network;
//! * the library path and the daemon path end in the same snapshot;
//! * on either path, a run killed at a random line — its journal's last
//!   frame torn, as a crash mid-append leaves it — then resumed and fed
//!   the rest of the script ends byte-identical to the uninterrupted run
//!   (assignment, metric snapshot, rendered report, edit-log length, undo
//!   depth).

use oregami::journal::Journal;
use oregami::larcs::programs;
use oregami::metrics::try_analyze_mapping;
use oregami::topology::{builders, ProcId, RouteTable};
use oregami::{
    replay, Budget, CostModel, Dispatched, InteractiveSession, Oregami, OregamiResult,
    RouteTableCache,
};
use oregami_daemon::json::{obj, Json};
use oregami_daemon::request::MapSpec;
use oregami_daemon::sessions::{metric_json, SessionRegistry};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const NAME: &str = "s";
const PARAMS: [(&str, i64); 2] = [("n", 3), ("iters", 1)];
const TOPOLOGY: &str = "hypercube:3";

/// What a driver did with one script line.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    /// Applied and framed to the journal.
    Journaled,
    /// Applied with nothing journaled: an `undo` with nothing to undo.
    Nothing,
    /// A program edit: the session rebuilt and its journal restarted.
    Rebuilt,
    /// Refused; the session must be exactly as it was.
    Rejected,
}

/// One way of hosting a journaled edit session.
trait Driver: Sized {
    fn open(dir: &Path) -> Self;
    fn line(&mut self, line: &str) -> Outcome;
    /// The session's full observable state, in the daemon's snapshot
    /// format.
    fn snapshot(&self) -> String;
    /// Drops the session as a SIGKILL would (no close, files stay) and
    /// resumes it from what is on disk.
    fn kill_and_resume(self, dir: &Path) -> Self;
}

/// The library path: what the CLI's `--edits` / `--journal` / `--resume`
/// do, minus the printing.
struct Library {
    sys: Oregami,
    /// The result the session currently edits: a program edit hands back
    /// a new one, which is also what a resume must be given.
    result: OregamiResult,
    session: InteractiveSession,
}

impl Library {
    fn check_against_batch(&self) {
        let batch = try_analyze_mapping(
            &self.result.task_graph,
            self.session.network(),
            self.session.mapping(),
            &CostModel::default(),
        )
        .expect("the session's mapping validates on its network");
        assert_eq!(
            self.session.report(),
            batch,
            "incremental report ≠ batch analysis"
        );
    }
}

impl Driver for Library {
    fn open(dir: &Path) -> Library {
        let sys = Oregami::new(builders::hypercube(3));
        let result = sys.map_source(&programs::jacobi(), &PARAMS).unwrap();
        let mut session = sys.interactive(&result).unwrap();
        session.attach_journal(Journal::create(&dir.join("s.jrnl")).unwrap());
        Library {
            sys,
            result,
            session,
        }
    }

    fn line(&mut self, line: &str) -> Outcome {
        let Ok(Some(op)) = replay::parse_line(line) else {
            return Outcome::Rejected;
        };
        match self
            .session
            .dispatch(op, &Budget::unlimited(), |_, _| Ok(()))
        {
            Ok(Dispatched::Applied(_) | Dispatched::Undone(Some(_))) => Outcome::Journaled,
            Ok(Dispatched::Undone(None)) => Outcome::Nothing,
            Ok(Dispatched::Recompiled(result)) => {
                self.result = *result;
                Outcome::Rebuilt
            }
            Err(_) => Outcome::Rejected,
        }
    }

    fn snapshot(&self) -> String {
        let s = &self.session;
        let assignment = s.mapping().assignment.iter();
        obj()
            .field("session", NAME)
            .field("edits", s.edit_log().len())
            .field("undo_depth", s.undo_depth())
            .field(
                "assignment",
                Json::Arr(assignment.map(|p| Json::from(u64::from(p.0))).collect()),
            )
            .field("metrics", metric_json(&s.snapshot()))
            .field("report", s.report().render())
            .build()
            .render()
    }

    fn kill_and_resume(self, dir: &Path) -> Library {
        let Library {
            sys,
            result,
            session,
        } = self;
        drop(session);
        let (session, _) = sys.resume(&result, &dir.join("s.jrnl")).unwrap();
        Library {
            sys,
            result,
            session,
        }
    }
}

/// The daemon path: the session table, in-process.
struct Daemon(SessionRegistry);

fn registry(dir: &Path) -> SessionRegistry {
    SessionRegistry::new(
        dir.to_path_buf(),
        Arc::new(RouteTableCache::new(4)),
        Arc::new(Mutex::new(oregami::larcs::Db::new())),
    )
}

impl Driver for Daemon {
    fn open(dir: &Path) -> Daemon {
        let reg = registry(dir);
        let mut params: Vec<(String, i64)> =
            PARAMS.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        params.sort();
        let spec = MapSpec {
            source: programs::jacobi(),
            label: "jacobi".to_string(),
            params,
            topology: TOPOLOGY.to_string(),
            deadline_ms: None,
            max_steps: None,
            chain: None,
            load_bound: None,
            fail_procs: Vec::new(),
            fail_links: Vec::new(),
            chaos: None,
        };
        reg.open(NAME, spec).unwrap();
        Daemon(reg)
    }

    fn line(&mut self, line: &str) -> Outcome {
        match self.0.edit(NAME, line) {
            Err(_) => Outcome::Rejected,
            Ok(r) if r.get("recompiled").is_some() => Outcome::Rebuilt,
            Ok(r) if matches!(r.get("delta"), Some(Json::Null)) => Outcome::Nothing,
            Ok(_) => Outcome::Journaled,
        }
    }

    fn snapshot(&self) -> String {
        self.0.snapshot(NAME).unwrap().render()
    }

    fn kill_and_resume(self, dir: &Path) -> Daemon {
        drop(self);
        let reg = registry(dir);
        assert_eq!(reg.resume_all(), (vec![NAME.to_string()], Vec::new()));
        Daemon(reg)
    }
}

/// A tiny seeded generator (the proptest shim supplies the seed).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        // SplitMix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The next script line, drawn against the reference session's current
/// state so that most lines apply; about one in eight is invalid on
/// purpose.
fn next_line(rng: &mut Rng, lib: &Library) -> String {
    let tg = &lib.result.task_graph;
    let net = lib.session.network();
    let now = lib.session.mapping();
    match rng.below(16) {
        0 => "reassign 99 0".to_string(),
        1 => format!("fault proc:{}", rng.below(8)), // refused while it hosts a task
        2 => format!("fault link:{}", rng.below(net.num_links() + 1)),
        3 | 4 => {
            let (phase, guard, edge) = [
                ("north", "i > 0", "cell(i,j) -> cell(i-1,j)"),
                ("south", "i < n-1", "cell(i,j) -> cell(i+1,j)"),
                ("west", "j > 0", "cell(i,j) -> cell(i,j-1)"),
                ("east", "j < n-1", "cell(i,j) -> cell(i,j+1)"),
                ("nowhere", "i > 0", "cell(i,j) -> cell(i,j)"), // no such comphase
            ][rng.below(5)];
            format!(
                "program {phase} 0 forall i in 0..n-1, j in 0..n-1 where {guard} \
                 {{ {edge} volume {}; }}",
                2 + rng.below(7)
            )
        }
        5..=7 => "undo".to_string(),
        8..=10 => match RouteTable::try_new(net) {
            // a random shortest path between the edge's current endpoints
            Ok(table) => {
                let phase = rng.below(tg.num_phases());
                let edge = rng.below(tg.comm_phases[phase].edges.len());
                let e = &tg.comm_phases[phase].edges[edge];
                let (mut at, to) = (now.assignment[e.src.index()], now.assignment[e.dst.index()]);
                let mut line = format!("reroute {phase} {edge} {}", at.0);
                while at != to {
                    let hops: Vec<ProcId> = table.next_hops(net, at, to);
                    at = hops[rng.below(hops.len())];
                    line.push_str(&format!(" {}", at.0));
                }
                line
            }
            Err(_) => "undo".to_string(),
        },
        _ => format!("reassign {} {}", rng.below(tg.num_tasks()), rng.below(8)),
    }
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oregami-prop-session-{tag}-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `script` on a fresh `D`, killing it after line `kill_at`: the
/// journal's last frame is torn (when it holds an edit frame to tear),
/// the session resumed, and the script continued from the line the tear
/// lost. Returns the final snapshot.
fn killed_run<D: Driver>(tag: &str, seed: u64, script: &[String], kill_at: usize) -> String {
    let dir = scratch(tag, seed);
    let mut driver = D::open(&dir);
    // the last line whose frame is still the journal's tail
    let mut tail = None;
    for (i, line) in script[..kill_at].iter().enumerate() {
        match driver.line(line) {
            Outcome::Journaled => tail = Some(i),
            Outcome::Rebuilt => tail = None,
            Outcome::Nothing | Outcome::Rejected => {}
        }
    }
    let journal = dir.join("s.jrnl");
    if tail.is_some() {
        let len = std::fs::metadata(&journal).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap();
        file.set_len(len - 1 - seed % 3).unwrap();
    }
    let mut driver = driver.kill_and_resume(&dir);
    // lines after the torn one changed nothing before the kill, so
    // replaying from it reproduces the uninterrupted run
    for line in &script[tail.unwrap_or(kill_at)..] {
        driver.line(line);
    }
    let snapshot = driver.snapshot();
    drop(driver);
    let _ = std::fs::remove_dir_all(&dir);
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_script_every_path_one_state(seed in any::<u64>(), len in 8usize..40) {
        let mut rng = Rng(seed);

        // the reference run: the library path, uninterrupted; it also
        // writes the script
        let dir = scratch("ref", seed);
        let mut reference = Library::open(&dir);
        let mut script = Vec::with_capacity(len);
        for _ in 0..len {
            let line = next_line(&mut rng, &reference);
            let before = reference.snapshot();
            if reference.line(&line) == Outcome::Rejected {
                prop_assert_eq!(reference.snapshot(), before, "'{}' was refused yet changed state", line);
            }
            reference.check_against_batch();
            script.push(line);
        }
        let want = reference.snapshot();
        drop(reference);
        let _ = std::fs::remove_dir_all(&dir);

        // the daemon path, uninterrupted
        let dir = scratch("daemon", seed);
        let mut daemon = Daemon::open(&dir);
        for line in &script {
            let before = daemon.snapshot();
            if daemon.line(line) == Outcome::Rejected {
                prop_assert_eq!(daemon.snapshot(), before, "'{}' was refused yet changed state", line);
            }
        }
        prop_assert_eq!(daemon.snapshot(), want.clone(), "daemon path ≠ library path");
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);

        // both paths, killed mid-script with a torn tail, then resumed
        let kill_at = 1 + rng.below(len);
        prop_assert_eq!(
            killed_run::<Library>("lib-kill", seed, &script, kill_at),
            want.clone(),
            "library path: resumed ≠ uninterrupted (killed after line {})", kill_at
        );
        prop_assert_eq!(
            killed_run::<Daemon>("daemon-kill", seed, &script, kill_at),
            want,
            "daemon path: resumed ≠ uninterrupted (killed after line {})", kill_at
        );
    }
}
