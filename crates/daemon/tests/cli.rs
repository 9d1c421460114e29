//! End-to-end tests of the `oregami` command-line binary.

use std::process::Command;

fn oregami() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oregami"))
}

#[test]
fn list_shows_builtins() {
    let out = oregami().arg("--list").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["nbody", "broadcast8", "jacobi", "matmul", "wavefront"] {
        assert!(text.contains(name), "--list must mention {name}");
    }
}

#[test]
fn maps_builtin_program() {
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "-P", "n=16", "-P", "s=4", "-P", "msgsize=8",
            "--timeline", "--directives",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("strategy: GroupTheoretic"));
    assert!(text.contains("== METRICS =="));
    assert!(text.contains("completion-time breakdown"));
    assert!(text.contains("synchrony set"));
}

#[test]
fn maps_file_and_writes_dot() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("ring.larcs");
    std::fs::write(
        &src,
        "algorithm r(n);\n\
         nodetype t: 0..n-1 nodesymmetric family(ring);\n\
         comphase c: forall i in 0..n-1 { t(i) -> t((i+1) mod n); }\n\
         exephase w; phaseexpr (c; w)^3;",
    )
    .unwrap();
    let dot = dir.join("map.dot");
    let out = oregami()
        .args([
            "--file",
            src.to_str().unwrap(),
            "--topology",
            "mesh2d:2x4",
            "-P",
            "n=8",
            "--map-dot",
            dot.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("strategy: Canned"));
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.contains("cluster_p0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    // unknown program
    let out = oregami()
        .args(["--program", "nope", "--topology", "ring:4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown program"));
    // malformed topology
    let out = oregami()
        .args(["--program", "nbody", "--topology", "mesh2d:banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // missing required args
    let out = oregami().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no program"));
    // --socket mode forwards the map flags and nothing else: a flag the
    // daemon cannot honour is refused by name (before any connection is
    // tried), not silently dropped
    for local_only in [
        &["--fail-board", "1"][..],
        &["--boot-seed", "3"],
        &["--boot-dead", "10"],
        &["--route-budget", "64"],
        &["--byte-time", "99"],
        &["--hop-latency", "2"],
        &["--startup", "5"],
        &["--supervise"],
        &["--grace-ms", "50"],
        &["--edits", "nosuchfile"],
        &["--journal", "nosuchfile"],
        &["--resume", "nosuchfile"],
        &["--stream", "nosuchfile"],
        &["--fault-sweep", "3"],
        &["--timeline"],
        &["--directives"],
        &["--dot", "t.dot"],
        &["--map-dot", "m.dot"],
        &["--net-dot", "n.dot"],
    ] {
        let out = oregami()
            .args(["--socket", "/nonexistent/oregamid.sock"])
            .args(["--program", "jacobi", "--topology", "hypercube:2"])
            .args(local_only)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{local_only:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {} only works on a local run", local_only[0])),
            "{local_only:?}: {stderr}"
        );
    }
    // the same holds beside --health, and the first such flag is the one named
    let out = oregami()
        .args(["--socket", "/nonexistent/oregamid.sock", "--health"])
        .args(["--fault-sweep", "3", "--timeline"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fault-sweep only works"));
    // every forwarded flag still reaches the connect step
    let out = oregami()
        .args(["--socket", "/nonexistent/oregamid.sock"])
        .args(["--program", "jacobi", "--topology", "hypercube:2", "-P", "n=2", "-B", "4"])
        .args(["--deadline-ms", "50", "--max-steps", "9", "--chain", "identity", "--fallback"])
        .args(["--fail-proc", "1", "--fail-link", "0", "--chaos", "seed=1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot connect"));
    // a flat topology below the smallest shape its builder accepts is a
    // usage error naming the spec; each of these used to trip the
    // builder's assertion (exit 101 and a backtrace)
    for spec in [
        "ring:2",
        "chain:1",
        "mesh2d:0x3",
        "hypercube:0",
        "star:1",
        "complete:1",
        "torus2d:3x0",
    ] {
        let out = oregami()
            .args(["--program", "jacobi", "--topology", spec])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(
            stderr.contains(&format!("topology '{spec}'")),
            "{spec}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
    }
}

#[test]
fn edits_replay_prints_deltas_and_final_report() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-edits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("session.edits");
    std::fs::write(
        &script,
        "# probe a migration, revert it, then commit it\n\
         reassign 0 7\n\
         undo\n\
         reassign 0 7\n",
    )
    .unwrap();
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("interactive replay"), "{text}");
    assert!(text.contains("reassign task 0 -> proc 7"), "{text}");
    assert!(text.contains("ledger entries touched"), "{text}");
    assert!(text.contains("replayed 3 edit(s)"), "{text}");
    // initial report + final session report
    assert_eq!(text.matches("== METRICS ==").count(), 2, "{text}");

    // malformed and invalid scripts are usage errors with line positions
    std::fs::write(&script, "reassign 0 banana\n").unwrap();
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains(":1:"));
    std::fs::write(&script, "reassign 999 0\n").unwrap();
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fmt_flag_prints_canonical_source_idempotently() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-fmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("messy.larcs");
    std::fs::write(
        &src,
        "algorithm   r( n );\n  nodetype t :0..n-1;\n\
         comphase c: forall i in 0..n-1 where i<n-1 { t(i)->t(i+1) ; }\n",
    )
    .unwrap();
    let out = oregami().args(["--fmt", src.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let formatted = String::from_utf8(out.stdout).unwrap();
    assert!(formatted.contains("algorithm r(n);"), "{formatted}");

    // feeding the output back in is a fixed point
    std::fs::write(&src, &formatted).unwrap();
    let again = oregami().args(["--fmt", src.to_str().unwrap()]).output().unwrap();
    assert!(again.status.success());
    assert_eq!(String::from_utf8(again.stdout).unwrap(), formatted);

    // a parse error is a usage error carrying the caret excerpt
    std::fs::write(&src, "algorithm ???").unwrap();
    let bad = oregami().args(["--fmt", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains('^'));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edits_program_line_recompiles_and_restarts_session() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-prog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("ring.larcs");
    std::fs::write(
        &src,
        "algorithm r(n);\n\
         nodetype cell: 0..n-1;\n\
         comphase step:\n\
         forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1); }\n\
         exephase update cost 2;\n\
         phaseexpr (step; update)^2;\n",
    )
    .unwrap();
    let script = dir.join("session.edits");
    std::fs::write(
        &script,
        "reassign 0 1\n\
         program step 0 forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1) volume 5; }\n\
         reassign 1 0\n",
    )
    .unwrap();
    let out = oregami()
        .args([
            "--file", src.to_str().unwrap(),
            "--topology", "ring:4",
            "-P", "n=6",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recompiled: 6 tasks remapped"), "{text}");
    // the program edit reset the log, so only the trailing reassign counts
    assert!(text.contains("replayed 1 edit(s)"), "{text}");
    // the trailing reassign's delta sees the new volume-5 edge
    assert!(text.contains("max-volume 5 -> 5"), "{text}");

    // a program line addressing a missing comphase is a usage error with
    // the script position
    std::fs::write(&script, "program nophase 0 cell(0) -> cell(1);\n").unwrap();
    let out = oregami()
        .args([
            "--file", src.to_str().unwrap(),
            "--topology", "ring:4",
            "-P", "n=6",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown comphase"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_repairs_and_reports() {
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--fail-proc", "5", "--fail-link", "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("== REPAIR =="));
    assert!(text.contains("METRICS recomputed on the degraded network"));
}

#[test]
fn fault_sweep_summarises() {
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--fault-sweep", "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("fault sweep: 4 single-processor scenarios"));
}

#[test]
fn fault_errors_use_dedicated_exit_codes() {
    // out-of-range processor id: fault-injection error, exit 4
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--fail-proc", "99",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    // killing an interior chain processor partitions the network: exit 5
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "chain:4",
            "--fail-proc", "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8_lossy(&out.stderr).contains("disconnected"));
    // usage errors stay exit 2
    let out = oregami().args(["--fail-proc", "banana"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn deadline_serves_degraded_mapping_with_exit_6() {
    // 16 tasks on 16 processors: the exhaustive stage faces a 16!-node
    // search an unbudgeted run would chew on for a very long time. With a
    // 50ms deadline the chain must serve a valid mapping quickly, exit
    // with the dedicated budget-exhausted code, and name the stage that
    // was cut short.
    let start = std::time::Instant::now();
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "hypercube:4",
            "-P", "n=4", "-P", "iters=1",
            "--deadline-ms", "50", "--fallback",
        ])
        .output()
        .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    // generous margin over the 50ms deadline: process spawn + routing +
    // metrics, but nowhere near the unbudgeted exhaustive search
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "deadline run took {elapsed:?}"
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stage exhaustive"), "{text}");
    assert!(text.contains("budget exhausted"), "{text}");
    assert!(text.contains("== METRICS =="));
    assert!(text.contains("degraded mapping"), "{text}");
}

#[test]
fn unbudgeted_small_chain_run_is_optimal_with_exit_0() {
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "hypercube:2",
            "-P", "n=2", "-P", "iters=1", "--fallback",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("served by exhaustive (optimal)"), "{text}");
    assert!(!text.contains("degraded mapping"));
}

/// A fault sweep repairs through the toolchain's shared route cache:
/// the summary line reports cache hits.
#[test]
fn fault_sweep_hits_the_route_table_cache() {
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--fault-sweep", "8",
        ])
        .output()
        .unwrap();
    assert!(matches!(out.status.code(), Some(0 | 6)), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("route-table cache: "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no route-table cache line in\n{text}"));
    assert!(hits > 0, "{text}");
}

/// A journalled churn stream, then a resume of that journal with no new
/// events: both runs end on a valid mapping.
#[test]
fn journalled_stream_resumes_to_a_valid_mapping() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stream = dir.join("w.stream");
    let journal = dir.join("w.jrnl");
    std::fs::write(
        &stream,
        "spawn 0 - 2 0\nspawn 1 0 3 4\nfault proc:3\nload 1 6\nrecover proc:3\ndepart 0\n",
    )
    .unwrap();
    for (input, flag) in [(stream.to_str().unwrap(), "--journal"), ("/dev/null", "--resume")] {
        let out = oregami()
            .args(["--topology", "hypercube:3", "--stream", input, flag])
            .arg(&journal)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("final mapping valid"), "{flag}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_chain_and_bad_chain_spec() {
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "chain:5",
            "-P", "n=4", "-P", "iters=1", "--chain", "identity",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("strategy: Identity"), "{text}");
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "chain:5",
            "--chain", "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown stage"));
}

#[test]
fn oversized_topology_is_a_usage_error() {
    let out = oregami()
        .args(["--program", "jacobi", "--topology", "hypercube:62"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("processor limit"));
    // under the old 2^20-processor guard these passed it and then aborted
    // the process (exit 134) allocating a terabyte-scale link list or
    // route table; the bound is now what those allocations may take
    for spec in ["complete:1048576", "hypercube:20", "mesh-boards:32x32x32x32"] {
        for flag in ["--topology", "--machine"] {
            if flag == "--machine" && !spec.starts_with("mesh-boards") {
                continue;
            }
            let out = oregami().args(["--program", "jacobi", flag, spec]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {spec}: {stderr}");
            assert!(stderr.contains("processor limit"), "{flag} {spec}: {stderr}");
        }
    }
}

#[test]
fn edits_tokenizer_tolerates_whitespace_and_crlf_lines() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-crlf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("session.edits");
    // CRLF endings, a whitespace-only line, and an indented comment: none
    // of these may panic or error — only the two real ops replay
    std::fs::write(
        &script,
        "reassign 0 7\r\n   \r\n\t\r\n  # indented comment\r\nundo\r\n",
    )
    .unwrap();
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("replayed 2 edit(s)"), "{text}");

    // a malformed op on a CRLF line still reports its position, exit 2
    std::fs::write(&script, "reassign 0 7\r\nfrobnicate\r\n").unwrap();
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains(":2:"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash-recovery acceptance path: journal a session, sever the last
/// frame as a crash would, resume — the surviving prefix must restore
/// byte-identical state with exit 0 and a torn-tail warning.
#[test]
fn journalled_session_resumes_after_torn_tail() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-jrnl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("session.edits");
    let journal = dir.join("session.jrnl");
    std::fs::write(
        &script,
        "reassign 0 7\nreassign 1 6\nundo\nreassign 2 5\n",
    )
    .unwrap();
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
            "--journal", journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("journalling edits to"), "{text}");
    assert!(text.contains("replayed 4 edit(s)"), "{text}");

    // sever the final frame mid-write, as a crash would
    let len = std::fs::metadata(&journal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&journal).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--resume", journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let resumed = String::from_utf8(out.stdout).unwrap();
    assert!(resumed.contains("torn tail"), "{resumed}");
    assert!(resumed.contains("resumed 3 journalled edit(s)"), "{resumed}");

    // byte-identical state: the resumed final report must equal a fresh
    // replay of exactly the surviving prefix
    std::fs::write(&script, "reassign 0 7\nreassign 1 6\nundo\n").unwrap();
    let reference = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--edits", script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let reference = String::from_utf8(reference.stdout).unwrap();
    let tail = |s: &str| {
        let at = s.find("final session state:").expect("marker");
        s[at..].to_string()
    };
    assert_eq!(tail(&resumed), tail(&reference));

    // the resume already truncated the tail: a second resume is clean
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--resume", journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let again = String::from_utf8(out.stdout).unwrap();
    assert!(!again.contains("torn tail"), "{again}");
    assert_eq!(tail(&again), tail(&reference));

    // --journal and --resume together is a usage error
    let out = oregami()
        .args([
            "--program", "nbody", "--topology", "hypercube:3",
            "--journal", journal.to_str().unwrap(),
            "--resume", journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervised_run_reports_health_and_chaos_storm_exits_7() {
    // a clean supervised run serves optimally and reports healthy
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "hypercube:2",
            "-P", "n=2", "-P", "iters=1", "--supervise", "--fallback",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("health: healthy"), "{text}");

    // chaos panics in every stage of a single-stage chain: nothing can
    // serve, so the supervised engine reports unserviceable with exit 7
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "hypercube:2",
            "-P", "n=2", "-P", "iters=1",
            "--chain", "exhaustive", "--chaos", "seed=1,panic=1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unserviceable"));

    // a bad chaos spec is a usage error
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "hypercube:2",
            "--chaos", "panic=banana",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // so is a key the chaos spec does not know, rather than being ignored
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "hypercube:2",
            "--chaos", "seed=1,board-loss=0.5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown chaos key 'board-loss'"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn larcs_errors_reported_with_position() {
    let dir = std::env::temp_dir().join(format!("oregami-cli-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("broken.larcs");
    std::fs::write(&src, "algorithm broken(").unwrap();
    let out = oregami()
        .args(["--file", src.to_str().unwrap(), "--topology", "ring:4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn machine_board_loss_repairs_blast_radius_aware() {
    let out = oregami()
        .args([
            "--program", "jacobi", "--machine", "mesh-boards:2x2x2x2",
            "--fail-board", "1", "--boot-dead", "100", "--boot-seed", "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("boot scan (seed 7)"), "{text}");
    assert!(text.contains("route compression:"), "{text}");
    assert!(text.contains("board loss: board(s) [1]"), "{text}");
    assert!(text.contains("blast radius"), "{text}");
    assert!(text.contains("METRICS recomputed on the degraded network"), "{text}");
}

#[test]
fn machine_flags_are_guarded_and_budget_overflow_is_typed() {
    // board faults without a machine model are a usage error
    let out = oregami()
        .args([
            "--program", "jacobi", "--topology", "ring:8",
            "--fail-board", "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machine"));
    // an impossible hardware budget is a typed fault, exit 4
    let out = oregami()
        .args([
            "--program", "jacobi", "--machine", "mesh-boards:2x2x2x2",
            "--route-budget", "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget"));
    // a board id past the machine's boards is a typed fault too
    let out = oregami()
        .args([
            "--program", "jacobi", "--machine", "mesh-boards:2x2x2x2",
            "--fail-board", "99",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
}
