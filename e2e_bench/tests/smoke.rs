//! `--smoke` runs every workload, untraced and traced, at toy sizes. The
//! names it emits must be exactly the names `BENCHMARK.json` declares:
//! the driver refuses a run whose metrics differ from the contract.

use oregami_daemon::json::{self, Json};
use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

fn names(list: &Json) -> BTreeSet<(String, String)> {
    list.as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &Json) -> BTreeSet<(String, String)> {
    let Json::Obj(fields) = metrics else {
        panic!("metrics is not an object")
    };
    fields
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_contract() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let contract =
        std::fs::read_to_string(format!("{manifest}/../BENCHMARK.json")).expect("BENCHMARK.json");
    let contract = json::parse(&contract).expect("BENCHMARK.json parses");

    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_oregami-e2e-bench"))
        .args(["--smoke", "--seed", "11"])
        .current_dir(format!("{manifest}/.."))
        .output()
        .expect("run e2e_bench --smoke");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "--smoke took {:?}",
        started.elapsed()
    );
    assert!(
        out.status.success(),
        "--smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(stdout.lines().last().expect("one JSON document"))
        .expect("the document parses");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    for key in [
        "git_rev",
        "rustc",
        "nproc",
        "seed",
        "mapper_threads",
        "daemon_workers",
    ] {
        assert!(doc.get(key).is_some(), "the document carries no '{key}'");
    }

    let declared: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let Some(Json::Obj(rows)) = doc.get("workloads") else {
        panic!("no workloads in the document")
    };
    let ran: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(ran, declared, "workloads run differ from BENCHMARK.json");

    let end_to_end = names(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = names(contract.get("per_layer").expect("per_layer"));
    for (workload, row) in rows {
        assert_eq!(
            row.get("failed_share").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert_eq!(
            emitted(row.get("end_to_end").expect("end_to_end")),
            end_to_end,
            "{workload}"
        );
        assert_eq!(
            emitted(row.get("per_layer").expect("per_layer")),
            per_layer,
            "{workload}"
        );
    }
}
