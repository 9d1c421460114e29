//! End-to-end tests of the oregamid daemon: real processes on real
//! sockets for the crash/restart and signal paths, in-process servers
//! for storms, shedding, and coalescing.

use oregami_daemon::json::{obj, Json};
use oregami_daemon::{Client, Server, ServerConfig};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oregamid-it-{}-{tag}", std::process::id()))
}

/// Kills the child on drop so a failed assertion never leaks a daemon.
struct DaemonProc(Child);

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(socket: &Path, state: &Path, extra: &[&str]) -> DaemonProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_oregamid"));
    cmd.arg("--socket")
        .arg(socket)
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    DaemonProc(cmd.spawn().expect("spawn oregamid"))
}

fn connect_within(socket: &Path, timeout: Duration) -> Client {
    let t0 = Instant::now();
    loop {
        if let Ok(client) = Client::connect(socket) {
            return client;
        }
        assert!(
            t0.elapsed() < timeout,
            "daemon did not come up on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn nbody_params(msgsize: i64) -> Json {
    obj()
        .field("n", 16i64)
        .field("s", 2i64)
        .field("msgsize", msgsize)
        .build()
}

fn map_request(msgsize: i64) -> Json {
    obj()
        .field("op", "map")
        .field("program", "nbody")
        .field("topology", "hypercube:3")
        .field("params", nbody_params(msgsize))
        .build()
}

fn with_field(mut request: Json, key: &str, value: Json) -> Json {
    if let Json::Obj(fields) = &mut request {
        fields.push((key.to_string(), value));
    }
    request
}

fn session_op(op: &str, name: &str) -> Json {
    obj().field("op", op).field("session", name).build()
}

fn edit_request(name: &str, line: &str) -> Json {
    obj()
        .field("op", "session_edit")
        .field("session", name)
        .field("edit", line)
        .build()
}

/// The tentpole crash-safety test: SIGKILL the daemon mid-life, restart
/// with `--resume`, and demand byte-identical session snapshots.
#[test]
fn sigkill_and_resume_restores_sessions_byte_identically() {
    let socket = scratch("kill.sock");
    let state = scratch("kill.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    for name in ["alpha", "beta"] {
        let open = obj()
            .field("op", "session_open")
            .field("session", name)
            .field("program", "nbody")
            .field("topology", "hypercube:3")
            .field("params", nbody_params(4))
            .build();
        client.request(&open).expect("session_open");
    }
    for line in ["reassign 3 1", "reassign 4 2", "undo", "reassign 5 0"] {
        client.request(&edit_request("alpha", line)).expect("edit alpha");
    }
    client.request(&edit_request("beta", "reassign 1 3")).expect("edit beta");

    let before_alpha = client
        .request(&session_op("session_snapshot", "alpha"))
        .unwrap()
        .render();
    let before_beta = client
        .request(&session_op("session_snapshot", "beta"))
        .unwrap()
        .render();

    // SIGKILL: no drain, no flush, no goodbye.
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    drop(daemon);

    // the journals and meta sidecars must have survived the kill
    for f in ["alpha.jrnl", "alpha.meta.json", "beta.jrnl", "beta.meta.json"] {
        assert!(state.join(f).exists(), "{f} missing after SIGKILL");
    }

    let _daemon2 = spawn_daemon(&socket, &state, &["--resume"]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let health = client.request(&obj().field("op", "health").build()).unwrap();
    assert_eq!(
        health.get("resumed_sessions").and_then(Json::as_u64),
        Some(2),
        "health: {}",
        health.render()
    );
    assert_eq!(health.get("sessions").and_then(Json::as_u64), Some(2));

    let after_alpha = client
        .request(&session_op("session_snapshot", "alpha"))
        .unwrap()
        .render();
    let after_beta = client
        .request(&session_op("session_snapshot", "beta"))
        .unwrap()
        .render();
    assert_eq!(after_alpha, before_alpha, "alpha diverged across the crash");
    assert_eq!(after_beta, before_beta, "beta diverged across the crash");

    // resumed sessions are live, not read-only husks
    let applied = client
        .request(&edit_request("alpha", "reassign 2 6"))
        .expect("edit after resume");
    assert_eq!(applied.get("edits").and_then(Json::as_u64), Some(5));

    client
        .request(&session_op("session_close", "alpha"))
        .expect("close alpha");
    assert!(!state.join("alpha.jrnl").exists(), "close must delete the journal");
}

/// A `program` line through `session_edit` changes the computation
/// itself: the rule is spliced through the shared incremental front
/// end, recompiled and remapped, and the session rebuilt — edit log
/// reset, fresh journal, meta rewritten to the new source. The
/// rewritten meta must survive a SIGKILL + `--resume`, and a bad edit
/// must be a typed refusal that leaves the session untouched.
#[test]
fn program_edit_recompiles_session_and_survives_resume() {
    let socket = scratch("prog.sock");
    let state = scratch("prog.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let src = "algorithm ring(n);\n\
               nodetype cell: 0..n-1;\n\
               comphase step:\n\
               forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1); }\n\
               exephase update cost 2;\n\
               phaseexpr (step; update)^2;\n";
    let open = obj()
        .field("op", "session_open")
        .field("session", "gamma")
        .field("source", src)
        .field("topology", "ring:4")
        .field("params", obj().field("n", 6i64).build())
        .build();
    let opened = client.request(&open).expect("session_open");
    assert_eq!(opened.get("tasks").and_then(Json::as_u64), Some(6));

    client
        .request(&edit_request("gamma", "reassign 0 1"))
        .expect("placement edit before the program edit");

    // bad addressing: typed refusal, session intact
    let err = client
        .request(&edit_request("gamma", "program nophase 0 cell(0) -> cell(1);"))
        .unwrap_err();
    assert_eq!(err.0, "bad_request", "{}: {}", err.0, err.1);
    // bad syntax in the new rule text: also refused, with a rendered span
    let err = client
        .request(&edit_request("gamma", "program step 0 forall i in {"))
        .unwrap_err();
    assert_eq!(err.0, "bad_request", "{}: {}", err.0, err.1);

    let r = client
        .request(&edit_request(
            "gamma",
            "program step 0 forall i in 0..n-1 where i < n-1 \
             { cell(i) -> cell(i+1) volume 5; }",
        ))
        .expect("program edit");
    assert_eq!(r.get("recompiled").and_then(Json::as_bool), Some(true), "{}", r.render());
    assert_eq!(r.get("tasks").and_then(Json::as_u64), Some(6));
    let snap = r.get("snapshot").expect("snapshot in recompile reply");
    assert_eq!(
        snap.get("edits").and_then(Json::as_u64),
        Some(0),
        "edit log must reset with the recompile: {}",
        r.render()
    );

    // the rebuilt session is live on the new program
    let applied = client
        .request(&edit_request("gamma", "reassign 1 2"))
        .expect("edit after recompile");
    assert_eq!(applied.get("edits").and_then(Json::as_u64), Some(1));

    let before = client
        .request(&session_op("session_snapshot", "gamma"))
        .unwrap()
        .render();

    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    drop(daemon);

    // meta was rewritten before the journal restarted, so resume sees the
    // edited source plus only post-recompile frames
    let meta = std::fs::read_to_string(state.join("gamma.meta.json")).unwrap();
    assert!(meta.contains("volume 5"), "meta must hold the edited source: {meta}");

    let _daemon2 = spawn_daemon(&socket, &state, &["--resume"]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let after = client
        .request(&session_op("session_snapshot", "gamma"))
        .unwrap()
        .render();
    assert_eq!(after, before, "session diverged across the crash");

    client
        .request(&session_op("session_close", "gamma"))
        .expect("close gamma");
}

/// The `fmt` op is a stateless source-to-source query: canonical output,
/// idempotent, and a typed `bad_request` (with a caret excerpt) on a
/// parse error.
#[test]
fn fmt_op_formats_canonically_and_rejects_bad_source() {
    let socket = scratch("fmt.sock");
    let state = scratch("fmt.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let config = ServerConfig::new(&socket, &state);
    let _handle = Server::start(config).expect("start server");
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let messy = "algorithm   t( n );\nnodetype cell :0..n-1;\n\
                 comphase c: forall i in 0..n-1 where i<n-1 { cell(i)->cell(i+1) ; }\n";
    let r = client
        .request(&obj().field("op", "fmt").field("source", messy).build())
        .expect("fmt");
    let formatted = r.get("formatted").and_then(Json::as_str).expect("formatted field");
    assert!(formatted.contains("algorithm t(n);"), "{formatted}");

    let again = client
        .request(&obj().field("op", "fmt").field("source", formatted).build())
        .expect("refmt");
    assert_eq!(
        again.get("formatted").and_then(Json::as_str),
        Some(formatted),
        "fmt must be idempotent over the wire"
    );

    // builtins resolve by name, same as `map`
    let builtin = client
        .request(&obj().field("op", "fmt").field("program", "nbody").build())
        .expect("fmt builtin");
    assert!(builtin.get("formatted").is_some());

    let err = client
        .request(&obj().field("op", "fmt").field("source", "algorithm ???").build())
        .unwrap_err();
    assert_eq!(err.0, "bad_request");
    assert!(err.1.contains('^'), "parse error must carry its excerpt: {}", err.1);
}

fn stream_request(name: &str, events: &[&str]) -> Json {
    let lines: Vec<Json> = events.iter().map(|e| Json::from(*e)).collect();
    obj()
        .field("op", "session_stream")
        .field("session", name)
        .field("topology", "hypercube:3")
        .field("events", Json::Arr(lines))
        .build()
}

/// Churn-stream crash safety end to end: SIGKILL the daemon mid-stream,
/// tear the journal tail the way a crash mid-write would, restart with
/// `--resume` — the surviving prefix must restore byte-identically and
/// the truncation must show up in the health counters.
#[test]
fn sigkill_and_resume_restores_stream_session_with_torn_tail() {
    let socket = scratch("stream.sock");
    let state = scratch("stream.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let r = client
        .request(&stream_request(
            "churn",
            &[
                "spawn 0 - 2 0",
                "spawn 1 0 3 4",
                "spawn 2 0 1 2",
                "load 1 5",
                "fault proc:1",
                "recover proc:1",
            ],
        ))
        .expect("open + first batch");
    assert_eq!(r.get("accepted").and_then(Json::as_u64), Some(6), "{}", r.render());

    // an edit on a stream session (and vice versa) is a typed refusal
    let err = client
        .request(&edit_request("churn", "reassign 0 1"))
        .unwrap_err();
    assert_eq!(err.0, "bad_request", "{}: {}", err.0, err.1);

    let before = client
        .request(&session_op("session_snapshot", "churn"))
        .unwrap()
        .render();

    // one more event that the torn tail will erase again
    client
        .request(&stream_request("churn", &["load 2 7"]))
        .expect("post-snapshot event");

    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    drop(daemon);

    let journal = state.join("churn.jrnl");
    assert!(journal.exists(), "stream journal missing after SIGKILL");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).unwrap();

    let _daemon2 = spawn_daemon(&socket, &state, &["--resume"]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let health = client.request(&obj().field("op", "health").build()).unwrap();
    assert_eq!(
        health.get("resumed_sessions").and_then(Json::as_u64),
        Some(1),
        "{}",
        health.render()
    );
    assert_eq!(
        health.get("journal_truncations").and_then(Json::as_u64),
        Some(1),
        "torn-tail recovery must be counted: {}",
        health.render()
    );

    let after = client
        .request(&session_op("session_snapshot", "churn"))
        .unwrap()
        .render();
    assert_eq!(after, before, "stream session diverged across the crash");

    // the resumed session is live: more events apply and journal on
    let more = client
        .request(&stream_request("churn", &["depart 2", "spawn 3 1 2 3"]))
        .expect("events after resume");
    assert_eq!(more.get("accepted").and_then(Json::as_u64), Some(2));

    client
        .request(&session_op("session_close", "churn"))
        .expect("close stream session");
    assert!(!journal.exists(), "close must delete the stream journal");
    assert!(!state.join("churn.meta.json").exists());
}

/// SIGTERM must drain gracefully: exit 0, socket unlinked, final stats
/// on stdout.
#[test]
fn sigterm_drains_cleanly_and_removes_socket() {
    let socket = scratch("term.sock");
    let state = scratch("term.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    client.request(&map_request(4)).expect("map before drain");

    let pid = daemon.0.id().to_string();
    let ok = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM")
        .success();
    assert!(ok, "kill -TERM failed");

    let t0 = Instant::now();
    let status = loop {
        if let Some(s) = daemon.0.try_wait().expect("try_wait") {
            break s;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "daemon did not drain within 15 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(30));
    };
    assert_eq!(status.code(), Some(0), "drain must exit 0, got {status:?}");
    assert!(!socket.exists(), "socket file must be unlinked on drain");

    let mut stdout = String::new();
    daemon
        .0
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(
        stdout.contains("\"service\"") && stdout.contains("\"draining\":true"),
        "final stats missing from stdout: {stdout}"
    );
}

/// 50 concurrent requests — 5 of them chaos-injected — and every single
/// one gets a typed answer. The daemon survives with zero worker
/// deaths and keeps answering afterwards.
#[test]
fn concurrent_storm_answers_every_request() {
    let socket = scratch("storm.sock");
    let state = scratch("storm.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 4;
    config.max_queue = 64;
    let handle = Server::start(config).expect("start server");

    const THREADS: u64 = 10;
    const PER_THREAD: u64 = 5;
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let sock = socket.clone();
        let gate = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = connect_within(&sock, Duration::from_secs(15));
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            gate.wait();
            let mut outcomes = Vec::new();
            for i in 0..PER_THREAD {
                let seq = t * PER_THREAD + i;
                let mut req = map_request(1 + (seq % 4) as i64);
                if seq.is_multiple_of(10) {
                    // every tenth request brings its own chaos, scoped to
                    // the exhaustive stage so the fallback chain (not
                    // luck) is what absorbs every injected panic
                    if let Json::Obj(fields) = &mut req {
                        fields.push((
                            "chaos".to_string(),
                            Json::from(format!(
                                "seed={seq},panic=0.9,stall=0.2,stall-ms=10,only=exhaustive"
                            )),
                        ));
                    }
                }
                outcomes.push(client.request(&req));
            }
            outcomes
        }));
    }

    let allowed = [
        "overloaded",
        "unserviceable",
        "shutting_down",
        "map",
        "fault",
        "repair",
        "internal",
    ];
    let mut total = 0usize;
    let mut served = 0usize;
    for join in joins {
        for outcome in join.join().expect("storm thread panicked") {
            total += 1;
            match outcome {
                Ok(result) => {
                    served += 1;
                    assert!(result.get("assignment").is_some(), "{}", result.render());
                }
                Err((kind, msg)) => assert!(
                    allowed.contains(&kind.as_str()),
                    "untyped outcome {kind}: {msg}"
                ),
            }
        }
    }
    assert_eq!(total, (THREADS * PER_THREAD) as usize);
    assert!(served >= 45, "only {served}/{total} requests served");

    // the daemon is still standing and says so
    let mut client = connect_within(&socket, Duration::from_secs(5));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let health = client.request(&obj().field("op", "health").build()).unwrap();
    assert!(
        health.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 50,
        "{}",
        health.render()
    );
    assert!(health.get("completed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    drop(client);

    let stats = handle.shutdown();
    assert_eq!(
        stats.get("draining").and_then(Json::as_bool),
        Some(true),
        "{}",
        stats.render()
    );
}

/// Three storms in a row on one daemon — identical requests (coalesced),
/// a mixed load with chaos on every fifth request (panics anywhere in
/// the chain), and distinct stalled requests with hopeless deadlines
/// against a queue smaller than the client count. Every request gets a
/// reply or a typed error, the daemon still answers `health`, and no
/// scheduler worker dies: stage panics stay inside the engine.
#[test]
fn uniform_chaos_and_overload_storms_kill_no_worker() {
    let socket = scratch("phases.sock");
    let state = scratch("phases.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 4;
    config.max_queue = 4;
    let handle = Server::start(config).expect("start server");

    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 10;
    let typed = [
        "overloaded",
        "unserviceable",
        "shutting_down",
        "map",
        "fault",
        "repair",
        "internal",
    ];
    let storm = |request: fn(u64) -> Json| {
        let barrier = Arc::new(Barrier::new(CLIENTS as usize));
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let sock = socket.clone();
                let gate = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = connect_within(&sock, Duration::from_secs(15));
                    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
                    gate.wait();
                    (0..PER_CLIENT)
                        .map(|i| client.request(&request(c * PER_CLIENT + i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut answered = 0;
        for join in joins {
            for outcome in join.join().expect("storm client panicked") {
                if let Err((kind, msg)) = outcome {
                    assert!(
                        typed.contains(&kind.as_str()),
                        "untyped outcome {kind}: {msg}"
                    );
                }
                answered += 1;
            }
        }
        assert_eq!(answered, CLIENTS * PER_CLIENT);
    };
    storm(|_| map_request(4));
    storm(|i| {
        let req = map_request(1 + (i % 4) as i64);
        if !i.is_multiple_of(5) {
            return req;
        }
        let chaos = format!("seed={},panic=0.3,stall=0.2,stall-ms=5", 0xDAE0 + i);
        with_field(req, "chaos", Json::from(chaos))
    });
    storm(|i| {
        let chaos = format!("seed={},stall=1,stall-ms=20", 0xDAE0 + i);
        let req = with_field(map_request(1 + i as i64), "chaos", Json::from(chaos));
        with_field(req, "deadline_ms", Json::from(5u64))
    });

    let mut client = connect_within(&socket, Duration::from_secs(5));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
        .request(&obj().field("op", "health").build())
        .expect("health after the storms");
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(
        stats.get("panicked").and_then(Json::as_u64),
        Some(0),
        "{}",
        stats.render()
    );
}

/// `oregami --socket S --shutdown` stops a live `oregamid`: the client
/// exits 0, the daemon process drains and exits 0, and `S` is gone.
#[test]
fn cli_shutdown_stops_the_daemon_and_removes_its_socket() {
    let socket = scratch("cli-shutdown.sock");
    let state = scratch("cli-shutdown.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    drop(connect_within(&socket, Duration::from_secs(15)));
    let out = Command::new(env!("CARGO_BIN_EXE_oregami"))
        .arg("--socket")
        .arg(&socket)
        .arg("--shutdown")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let t0 = Instant::now();
    let status = loop {
        if let Some(s) = daemon.0.try_wait().expect("try_wait") {
            break s;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "daemon still running 15 s after --shutdown"
        );
        std::thread::sleep(Duration::from_millis(30));
    };
    assert_eq!(status.code(), Some(0), "shutdown must exit 0, got {status:?}");
    assert!(!socket.exists(), "socket file must be unlinked on shutdown");
}

/// With one slow worker and a tiny queue, a burst of distinct requests
/// must be shed with the typed `overloaded` error — not queued into a
/// universal timeout.
#[test]
fn overload_sheds_typed_overloaded_errors() {
    let socket = scratch("shed.sock");
    let state = scratch("shed.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 1;
    config.max_queue = 2;
    let handle = Server::start(config).expect("start server");

    const CLIENTS: usize = 12;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let sock = socket.clone();
        let gate = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = connect_within(&sock, Duration::from_secs(15));
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            let mut req = map_request(c as i64 + 1); // distinct: no coalescing
            if let Json::Obj(fields) = &mut req {
                fields.push((
                    "chaos".to_string(),
                    // stall every stage so the queue actually backs up
                    Json::from(format!("seed={c},stall=1,stall-ms=250")),
                ));
            }
            gate.wait();
            client.request(&req)
        }));
    }

    let mut shed = 0usize;
    let mut served = 0usize;
    for join in joins {
        match join.join().expect("client thread panicked") {
            Ok(_) => served += 1,
            Err((kind, msg)) => {
                assert_eq!(kind, "overloaded", "unexpected shed kind {kind}: {msg}");
                shed += 1;
            }
        }
    }
    assert!(served >= 1, "nothing was served at all");
    assert!(
        shed >= 1,
        "12 stalled requests against queue=2/workers=1 shed nothing"
    );

    let stats = handle.shutdown();
    let shed_counter = stats
        .get("shed")
        .and_then(|s| s.get("overloaded"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(shed_counter as usize, shed, "{}", stats.render());
}

/// Identical in-flight requests coalesce: one computation, every waiter
/// answered with the same payload, and the health counter shows it.
#[test]
fn identical_inflight_requests_coalesce() {
    let socket = scratch("coal.sock");
    let state = scratch("coal.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 2;
    let handle = Server::start(config).expect("start server");

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let sock = socket.clone();
        let gate = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = connect_within(&sock, Duration::from_secs(15));
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            let mut req = map_request(7);
            if let Json::Obj(fields) = &mut req {
                // one identical stall spec for everyone: same coalesce
                // key, and a wide window for the others to pile into
                fields.push(("chaos".to_string(), Json::from("seed=3,stall=1,stall-ms=400")));
            }
            gate.wait();
            client.request(&req)
        }));
    }

    let mut renders = Vec::new();
    for join in joins {
        let result = join
            .join()
            .expect("client thread panicked")
            .expect("coalesced request failed");
        renders.push(result.render());
    }
    renders.dedup();
    assert_eq!(renders.len(), 1, "waiters saw different payloads");

    let stats = handle.shutdown();
    let coalesced = stats.get("coalesced").and_then(Json::as_u64).unwrap_or(0);
    assert!(coalesced >= 1, "no coalescing observed: {}", stats.render());
}

#[test]
fn health_lists_a_breaker_for_every_stage_kind() {
    let socket = scratch("breakers.sock");
    let state = scratch("breakers.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    let handle = Server::start(ServerConfig::new(&socket, &state)).expect("start server");

    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let health = client.request(&obj().field("op", "health").build()).unwrap();
    let Some(Json::Obj(breakers)) = health.get("breakers") else {
        panic!("no breakers object: {}", health.render());
    };
    let names: Vec<&str> = breakers.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["exhaustive", "heuristic", "identity", "multilevel"]);
    for (name, view) in breakers {
        assert_eq!(view.get("state").and_then(Json::as_str), Some("closed"), "{name}");
    }
    assert_eq!(health.get("service").and_then(Json::as_str), Some("healthy"));
    drop(client);
    handle.shutdown();
}

#[test]
fn machine_daemon_health_reports_domains_and_compression() {
    let socket = scratch("machine.sock");
    let state = scratch("machine.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    let _daemon = spawn_daemon(
        &socket,
        &state,
        &[
            "--machine", "mesh-boards:2x2x2x2",
            "--boot-dead", "150",
            "--boot-seed", "3",
            "--route-budget", "512",
        ],
    );
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let params = obj().field("n", 8i64).field("iters", 2i64).build();

    // A machine-spec map runs route compression against the budget and
    // reports the result inline.
    let map = obj()
        .field("op", "map")
        .field("program", "jacobi")
        .field("topology", "mesh-boards:2x2x2x2")
        .field("params", params.clone())
        .build();
    let text = client.request(&map).expect("machine map").render();
    assert!(text.contains("route_compression"), "{text}");

    // A repair on the machine reports the blast-radius migration split.
    let repair = obj()
        .field("op", "repair")
        .field("program", "jacobi")
        .field("topology", "mesh-boards:2x2x2x2")
        .field("params", params)
        .field("fail_procs", Json::Arr(vec![Json::from(5u64)]))
        .build();
    let text = client.request(&repair).expect("machine repair").render();
    assert!(text.contains("migrations_intra_domain"), "{text}");
    assert!(text.contains("migrations_cross_domain"), "{text}");

    // Client-visible health: the stock CLI client must surface the
    // per-domain liveness and the compression budget headroom.
    let out = Command::new(env!("CARGO_BIN_EXE_oregami"))
        .arg("--socket")
        .arg(&socket)
        .arg("--health")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let health = String::from_utf8(out.stdout).unwrap();
    for key in [
        "\"machine\"",
        "mesh-boards:2x2x2x2",
        "domains_total",
        "domains_degraded",
        "alive_per_domain",
        "route_compression",
        "\"budget\"",
        "headroom",
    ] {
        assert!(health.contains(key), "health JSON missing {key}: {health}");
    }
}

/// An oversized topology used to pass the parser's 2^20-processor guard
/// and then abort the whole daemon on allocation — on the connection
/// thread, inside `parse_request`, where no `catch_unwind` helps. It is a
/// typed `bad_request` now, and the daemon keeps serving.
#[test]
fn oversized_topology_is_a_bad_request_and_the_daemon_survives() {
    let socket = scratch("oversized.sock");
    let state = scratch("oversized.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    let handle = Server::start(ServerConfig::new(&socket, &state)).expect("start server");
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    for spec in ["complete:1048576", "hypercube:20", "mesh-boards:32x32x32x32"] {
        for op in ["map", "repair", "metrics", "session_open", "session_stream"] {
            let request = obj()
                .field("op", op)
                .field("session", "big")
                .field("program", "jacobi")
                .field("topology", spec)
                .build();
            let (kind, message) = client.request(&request).unwrap_err();
            assert_eq!(kind, "bad_request", "{op} {spec}: {message}");
            assert!(message.contains("processor limit"), "{op} {spec}: {message}");
        }
    }
    let health = client.request(&obj().field("op", "health").build()).expect("health");
    assert_eq!(health.get("service").and_then(Json::as_str), Some("healthy"));
    assert_eq!(health.get("sessions").and_then(Json::as_u64), Some(0));
    drop(client);
    handle.shutdown();
}

/// A flat topology below its builder's smallest shape (`ring:2`) used to
/// trip the builder's assertion on the connection thread, inside
/// `parse_request`: the thread died and its client waited forever on a
/// socket the daemon still held open. It is a typed `bad_request` naming
/// the spec, and the same connection keeps being served.
#[test]
fn degenerate_topology_is_a_bad_request_on_a_connection_that_keeps_serving() {
    let socket = scratch("degenerate.sock");
    let state = scratch("degenerate.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    let handle = Server::start(ServerConfig::new(&socket, &state)).expect("start server");
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    for spec in [
        "ring:2",
        "chain:1",
        "mesh2d:0x3",
        "hypercube:0",
        "star:1",
        "complete:1",
    ] {
        let request = obj()
            .field("op", "map")
            .field("program", "jacobi")
            .field("topology", spec)
            .build();
        let (kind, message) = client.request(&request).unwrap_err();
        assert_eq!(kind, "bad_request", "{spec}: {message}");
        assert!(
            message.contains(&format!("topology '{spec}'")),
            "{spec}: {message}"
        );
        let health = client
            .request(&obj().field("op", "health").build())
            .expect("health");
        assert_eq!(
            health.get("service").and_then(Json::as_str),
            Some("healthy"),
            "{spec}"
        );
    }
    drop(client);
    handle.shutdown();
}

fn open_fds(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("read /proc/<pid>/fd")
        .count()
}

/// The daemon used to keep a clone of every socket it had ever accepted
/// (and the reader's `JoinHandle`) until shutdown: one descriptor per CLI
/// invocation, so a default 1024-descriptor daemon stopped accepting after
/// about a thousand. A connection's descriptors now go when its handler
/// returns.
#[test]
fn closed_connections_do_not_accumulate_descriptors() {
    let socket = scratch("fds.sock");
    let state = scratch("fds.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    let daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
        .request(&obj().field("op", "health").build())
        .expect("health");
    let pid = daemon.0.id();
    let before = open_fds(pid);

    for i in 0..600 {
        let mut c = Client::connect(&socket).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        if i % 100 == 0 {
            // a few of them talk before they go
            c.request(&obj().field("op", "health").build())
                .expect("health");
        }
    }
    // the handlers notice their clients' hang-ups on their own threads
    let t0 = Instant::now();
    let mut after = open_fds(pid);
    while after > before + 4 && t0.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(50));
        after = open_fds(pid);
    }
    assert!(
        after <= before + 4,
        "{before} descriptors before 600 connect-and-close clients, {after} after"
    );
    let health = client
        .request(&obj().field("op", "health").build())
        .expect("health");
    assert_eq!(
        health.get("service").and_then(Json::as_str),
        Some("healthy")
    );
}

/// What one front end said about a request: exit code / error kind
/// folded onto the exit code, and the texts it showed.
#[derive(Debug, PartialEq)]
struct Said {
    exit: i32,
    /// The METRICS report (of the mapping, or of the repaired mapping).
    report: String,
    /// `(processors failed, links out of service, repair report)`.
    repair: Option<(u64, u64, String)>,
}

/// `text` from `marker` to the blank line that ends a rendered report.
fn block(text: &str, marker: &str) -> String {
    let from = text.find(marker).unwrap_or_else(|| panic!("no {marker:?} in:\n{text}"));
    let rest = &text[from..];
    rest[..rest.find("\n\n").map_or(rest.len(), |at| at + 1)].to_string()
}

/// The number written just before `what` in `line`.
fn number_before(line: &str, what: &str) -> Option<u64> {
    let head = line[..line.find(what)?].trim_end();
    let digits = head.len() - head.chars().rev().take_while(char::is_ascii_digit).count();
    head[digits..].parse().ok()
}

fn cli_said(args: &[&str], repair: bool) -> Said {
    let out = Command::new(env!("CARGO_BIN_EXE_oregami")).args(args).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let exit = out.status.code().unwrap();
    if !matches!(exit, 0 | 6) {
        return Said { exit, report: String::new(), repair: None };
    }
    if !repair {
        return Said { exit, report: block(&stdout, "== METRICS =="), repair: None };
    }
    // local: "-- fault injection: P processor(s) + L link(s) failed (N links out of service) --"
    // socket: "daemon repaired '..' on T: P processor(s) failed, N link(s) out of service"
    let line = stdout
        .lines()
        .find(|l| l.starts_with("-- fault injection:") || l.starts_with("daemon repaired"))
        .unwrap_or_else(|| panic!("no repair line in:\n{stdout}"));
    let failed_procs = number_before(line, "processor(s)").expect("processors failed");
    let failed_links = number_before(line, "links out of service")
        .or_else(|| number_before(line, "link(s) out of service"))
        .expect("links out of service");
    let after = &stdout[stdout.find("== REPAIR ==").expect("repair report")..];
    Said {
        exit,
        report: block(after, "== METRICS =="),
        repair: Some((failed_procs, failed_links, block(after, "== REPAIR ==").trim_end().to_string())),
    }
}

fn raw_said(client: &mut Client, request: &Json, repair: bool) -> (Said, Option<Vec<u64>>) {
    use oregami_daemon::request::FailureClass;
    match client.request(request) {
        Err((kind, _)) => {
            let exit = i32::from(FailureClass::from_kind(&kind).exit_code());
            (Said { exit, report: String::new(), repair: None }, None)
        }
        Ok(reply) => {
            let text = |key: &str| reply.get(key).and_then(Json::as_str).unwrap_or_default().to_string();
            let count = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap();
            let degraded = reply.get("degraded").and_then(Json::as_bool) == Some(true);
            let assignment = reply
                .get("assignment")
                .and_then(Json::as_arr)
                .map(|a| a.iter().map(|p| p.as_u64().unwrap()).collect());
            let said = Said {
                exit: if degraded { 6 } else { 0 },
                report: if repair { text("metrics") } else { text("report") },
                repair: repair.then(|| {
                    (count("failed_procs"), count("failed_links"), text("repair").trim_end().to_string())
                }),
            };
            (said, assignment)
        }
    }
}

/// Task → processor, read back out of `--map-dot`'s clusters.
fn assignment_of(map_dot: &Path) -> Vec<u64> {
    let mut placed = Vec::new();
    let mut proc = 0u64;
    for line in std::fs::read_to_string(map_dot).unwrap().lines() {
        let line = line.trim();
        if let Some(p) = line.strip_prefix("subgraph cluster_p") {
            proc = p.trim_end_matches(" {").parse().unwrap();
        } else if let Some((task, _)) = line.strip_prefix('n').and_then(|l| l.split_once(" [label=")) {
            placed.push((task.parse::<usize>().unwrap(), proc));
        }
    }
    placed.sort_unstable();
    assert!(placed.iter().enumerate().all(|(i, (t, _))| i == *t), "every task once");
    placed.into_iter().map(|(_, p)| p).collect()
}

/// ROADMAP aim 3's "CLI ≡ daemon response", over the whole builtin
/// corpus: a local `oregami` run, `oregami --socket`, and a raw frame are
/// three routes to one answer. All three are built from the same
/// `MapSpec`, so the METRICS report, the assignment, the repair report,
/// the failed-element counts — and, where a request fails, the failure
/// class — must agree.
#[test]
fn cli_local_socket_and_raw_replies_agree_on_every_builtin() {
    let socket = scratch("diff.sock");
    let state = scratch("diff.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    std::fs::create_dir_all(&state).unwrap();
    let handle = Server::start(ServerConfig::new(&socket, &state)).expect("start server");
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let sock = socket.to_str().unwrap();
    let dot = state.join("map.dot");

    let mut compared = 0;
    for (program, _, samples) in oregami::larcs::programs::all_programs() {
        for topology in ["hypercube:3", "mesh2d:3x3", "mesh-boards:2x2x2x2"] {
            let what = format!("{program} on {topology}");
            let base = ["--program", program, "--topology", topology];
            let params = Json::Obj(samples.iter().map(|(k, v)| (k.to_string(), Json::from(*v))).collect());
            let frame = |op: &str| {
                obj().field("op", op).field("program", program).field("topology", topology)
                    .field("params", params.clone())
            };

            // map: report three ways, assignment local vs raw
            let local = cli_said(&[&base[..], &["--map-dot", dot.to_str().unwrap()]].concat(), false);
            let remote = cli_said(&[&["--socket", sock], &base[..]].concat(), false);
            let (raw, assignment) = raw_said(&mut client, &frame("map").build(), false);
            assert_eq!(local, raw, "{what}: local run vs raw map reply");
            assert_eq!(remote, raw, "{what}: --socket vs raw map reply");
            if let Some(assignment) = assignment {
                assert_eq!(assignment_of(&dot), assignment, "{what}: assignment");
            }

            // repair: a dead processor and a dead link the network survives,
            // then a pair that cuts processor 0 off (exit 5 = kind `repair`)
            for (proc, link, repairable) in [(4u64, 0u64, true), (1, 0, topology == "hypercube:3")] {
                let (p, l) = (proc.to_string(), link.to_string());
                let faults = ["--fail-proc", p.as_str(), "--fail-link", l.as_str()];
                let local = cli_said(&[&base[..], &faults].concat(), true);
                let remote = cli_said(&[&["--socket", sock], &base[..], &faults].concat(), true);
                let one = |id: u64| Json::Arr(vec![Json::from(id)]);
                let request = frame("repair").field("fail_procs", one(proc)).field("fail_links", one(link));
                let (raw, _) = raw_said(&mut client, &request.build(), true);
                assert_eq!(local, raw, "{what}: local repair vs raw repair reply");
                assert_eq!(remote, raw, "{what}: --socket repair vs raw repair reply");
                if repairable {
                    assert!(raw.repair.is_some(), "{what}: {raw:?}");
                } else {
                    assert_eq!(raw.exit, 5, "{what}: {raw:?}");
                }
            }
            compared += 1;
        }
    }
    assert!(compared >= 30, "the corpus shrank to {compared} cases");
    drop(client);
    handle.shutdown();
}
