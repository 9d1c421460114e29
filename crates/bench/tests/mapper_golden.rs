//! Golden pins on the mapper's spine: the MAPPER dispatch over the paper's
//! corpus, the fallback-chain engine's per-stage record, and multilevel's
//! per-level statistics. Every value was taken before the dispatch, the
//! chain runners and the multilevel stage were split into named steps,
//! and must reproduce bit for bit after any refactor of them.
//!
//! A mismatch prints the whole table of actual values, so an intended
//! change of behaviour re-pins in one copy.

use oregami::graph::TaskGraph;
use oregami::larcs::analyze::analyze;
use oregami::larcs::programs::all_programs;
use oregami::mapper::routing::{route_all_phases, Matcher};
use oregami::mapper::{
    map_task_graph_budgeted_with_table, multilevel_map_with_report, run_engine_with, EngineConfig,
    MapperReport, StageStatus,
};
use oregami::topology::{builders, RouteTable};
use oregami::{Budget, FallbackChain, MapperOptions, Network, Oregami, Strategy, SupervisorConfig};
use oregami_bench::{grid_tasks, random_geometric_tasks, torus_tasks};
use std::fmt::Write as _;
use std::sync::Arc;

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn assignment_digest(h: &mut Fnv, assignment: &[oregami::topology::ProcId]) {
    h.u64(assignment.len() as u64);
    for p in assignment {
        h.u64(u64::from(p.0));
    }
}

/// Strategy, notes, contraction, assignment and routes of one report.
fn report_digest(report: &MapperReport) -> u64 {
    let mut h = Fnv::new();
    h.str(&format!("{:?}", report.strategy));
    h.u64(report.notes.len() as u64);
    for note in &report.notes {
        h.str(note);
    }
    h.u64(report.contraction.num_clusters as u64);
    h.u64(report.contraction.cluster_of.len() as u64);
    for &c in &report.contraction.cluster_of {
        h.u64(c as u64);
    }
    assignment_digest(&mut h, &report.mapping.assignment);
    h.u64(report.mapping.routes.len() as u64);
    for phase in &report.mapping.routes {
        h.u64(phase.len() as u64);
        for path in phase {
            assignment_digest(&mut h, path);
        }
    }
    h.0
}

/// Compares `actual` to `expected` line by line; on a mismatch prints the
/// full actual table before failing.
fn check(what: &str, actual: &[String], expected: &[&str]) {
    if actual
        .iter()
        .map(String::as_str)
        .ne(expected.iter().copied())
    {
        let mut table = String::new();
        for line in actual {
            let _ = writeln!(table, "        \"{line}\",");
        }
        panic!("{what} moved; actual values:\n{table}");
    }
}

/// The ten parametric programs at the sizes that fill the larger
/// machines: the `corpus_map` benchmark's table.
fn scaled(name: &str) -> Option<Vec<(&'static str, i64)>> {
    Some(match name {
        "nbody" => vec![("n", 63), ("s", 3), ("msgsize", 8)],
        "jacobi" | "sor" => vec![("n", 32), ("iters", 10)],
        "sormulticolor" => vec![("n", 32), ("iters", 2)],
        "binomialdnc" => vec![("k", 9)],
        "fft" => vec![("k", 7)],
        "matmul" => vec![("n", 16)],
        "pipeline" => vec![("n", 256), ("rounds", 5)],
        "wavefront" => vec![("n", 8)],
        "annealing" => vec![("n", 128), ("sweeps", 4)],
        _ => return None,
    })
}

/// The 85 `corpus_map` instances: every program at its sample size on
/// the five small machines, and the scaled ones on the three large.
fn corpus() -> Vec<(String, TaskGraph, Network)> {
    let small = [
        builders::hypercube(3),
        builders::hypercube(4),
        builders::mesh2d(4, 4),
        builders::torus2d(4, 4),
        builders::ring(8),
    ];
    let large = [
        builders::hypercube(6),
        builders::mesh2d(8, 8),
        builders::torus2d(8, 8),
    ];
    let mut out = Vec::new();
    for (name, source, params) in all_programs() {
        let mut add = |label: String, params: &[(&str, i64)], net: &Network| {
            let tg = Oregami::new(net.clone())
                .compile_source(&source, params)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            out.push((label, tg, net.clone()));
        };
        for net in &small {
            add(format!("{name}@{}", net.name), &params, net);
        }
        if let Some(params) = scaled(name) {
            for net in &large {
                add(format!("{name}*@{}", net.name), &params, net);
            }
        }
    }
    out
}

#[test]
fn corpus_dispatch_reproduces_the_pinned_reports() {
    let instances = corpus();
    assert_eq!(instances.len(), 85);
    let mut actual = Vec::new();
    let mut counts = [0usize; 4];
    for (label, tg, net) in &instances {
        let table = RouteTable::try_new(net).expect("builder networks are connected");
        let (report, completion) = map_task_graph_budgeted_with_table(
            tg,
            net,
            &MapperOptions::default(),
            &Budget::unlimited(),
            &table,
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        report.mapping.validate(tg, net).expect("valid mapping");
        counts[match report.strategy {
            Strategy::Canned => 0,
            Strategy::GroupTheoretic => 1,
            Strategy::Systolic => 2,
            _ => 3,
        }] += 1;
        actual.push(format!(
            "{label} {:?} {completion} {:016x}",
            report.strategy,
            report_digest(&report)
        ));
    }
    assert_eq!(
        counts,
        [29, 2, 2, 52],
        "canned / group / systolic / general"
    );
    check("corpus dispatch", &actual, CORPUS);
}

/// The regularity findings MAPPER's dispatch keys on, for every corpus
/// instance: the family (declared or recognised) and whether every phase
/// is bijective and uniform. The dispatch now asks for each on demand;
/// whole-graph `analyze` must still report what it did.
#[test]
fn analysis_of_every_corpus_instance_is_pinned() {
    let actual: Vec<String> = corpus()
        .iter()
        .map(|(label, tg, _)| {
            let a = analyze(tg);
            format!(
                "{label} {:?} bijective={} uniform={}",
                a.family, a.all_bijective, a.all_uniform
            )
        })
        .collect();
    check("corpus analysis", &actual, ANALYSIS);
}

/// One engine run rendered as a pin line: the served stage and
/// completion, then each stage's status, cost, steps and attempts.
fn engine_line(label: &str, outcome: &oregami::mapper::EngineOutcome) -> String {
    let e = &outcome.engine;
    let mut line = format!("{label}: {} {}", e.served_by, e.completion);
    for s in &e.stages {
        let status = match &s.status {
            StageStatus::Failed(msg) => format!("failed({msg})"),
            other => format!("{other:?}").to_lowercase(),
        };
        let _ = write!(
            line,
            " | {} {status} cost={:?} steps={} attempts={}",
            s.stage, s.cost, s.steps, s.attempts
        );
    }
    let _ = write!(line, " | {:016x}", report_digest(&outcome.report));
    line
}

#[test]
fn engine_chains_reproduce_the_pinned_stage_records() {
    let cases: Vec<(&str, TaskGraph, Network)> = vec![
        (
            "ring8@q3",
            oregami::graph::Family::Ring(8).build(),
            builders::hypercube(3),
        ),
        ("grid4x4@q2", grid_tasks(4, 4), builders::hypercube(2)),
        (
            "rgg24@mesh2x2",
            random_geometric_tasks(24, 0.3, 7),
            builders::mesh2d(2, 2),
        ),
        ("torus4x6@ring4", torus_tasks(4, 6), builders::ring(4)),
    ];
    let mut actual = Vec::new();
    for (name, tg, net) in &cases {
        for quota in [Some(0u64), Some(40), None] {
            for supervised in [false, true] {
                let budget = match quota {
                    Some(q) => Budget::unlimited().with_max_steps(q),
                    None => Budget::unlimited(),
                };
                let config = if supervised {
                    EngineConfig::default().supervised(SupervisorConfig::default())
                } else {
                    EngineConfig::default()
                };
                let outcome = run_engine_with(
                    tg,
                    net,
                    &MapperOptions::default(),
                    &FallbackChain::full(),
                    &budget,
                    &config,
                )
                .unwrap_or_else(|e| panic!("{name}: {e}"));
                let label = format!(
                    "{name} quota={} {}",
                    quota.map_or("none".to_string(), |q| q.to_string()),
                    if supervised {
                        "supervised"
                    } else {
                        "sequential"
                    }
                );
                actual.push(engine_line(&label, &outcome));
            }
        }
    }
    check("engine stage records", &actual, ENGINE);
    // one chain loop: a supervised run in which nothing failed records
    // exactly what a plain run does
    for pair in actual.chunks(2) {
        assert_eq!(pair[0].replacen(" sequential:", " supervised:", 1), pair[1]);
    }
}

/// Multilevel instances at the benchmark's smoke sizes, under its
/// 30-steps-per-task quota. The torus gets half again the balanced load
/// bound, so its clusters pack whole and every level is refined; the
/// other two split their packing and refine level 0 only.
fn multilevel_cases() -> Vec<(&'static str, TaskGraph, Network, Option<usize>)> {
    vec![
        (
            "grid31x30@torus4x4",
            grid_tasks(31, 30),
            builders::torus2d(4, 4),
            None,
        ),
        (
            "torus40x40@torus4x4",
            torus_tasks(40, 40),
            builders::torus2d(4, 4),
            Some(150),
        ),
        (
            "rgg2000@q4",
            random_geometric_tasks(2000, 0.03, 11),
            builders::hypercube(4),
            None,
        ),
    ]
}

#[test]
fn multilevel_reproduces_the_pinned_levels() {
    let mut actual = Vec::new();
    for (name, tg, net, load_bound) in multilevel_cases() {
        let table = Arc::new(RouteTable::try_new(&net).expect("connected"));
        let budget = Budget::unlimited().with_max_steps(30 * tg.num_tasks() as u64);
        let opts = MapperOptions {
            load_bound,
            ..MapperOptions::default()
        };
        let (report, completion, ml) = multilevel_map_with_report(&tg, &net, &opts, &budget, table)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut h = Fnv::new();
        assignment_digest(&mut h, &report.mapping.assignment);
        let mut line = format!(
            "{name}: {completion} coarsest={} split={} {:016x}",
            ml.coarsest_nodes, ml.split_packing, h.0
        );
        for l in &ml.levels {
            let _ = write!(
                line,
                " | {}n {}e {}->{} {}mv",
                l.nodes, l.edges, l.cost_before, l.cost_after, l.moves
            );
        }
        actual.push(line);
    }
    check("multilevel levels", &actual, MULTILEVEL);
}

/// Multilevel's final routes are MM-Route's at every size: equal to
/// `route_all_phases` over its own assignment, below and above the 4096
/// tasks where a contention-oblivious router once took over.
#[test]
fn multilevel_routes_with_mm_route_at_every_size() {
    let cases = [
        (
            "grid31x30@torus4x4",
            grid_tasks(31, 30),
            builders::torus2d(4, 4),
        ),
        (
            "grid80x80@torus8x8",
            grid_tasks(80, 80),
            builders::torus2d(8, 8),
        ),
    ];
    for (name, tg, net) in cases {
        let table = Arc::new(RouteTable::try_new(&net).expect("connected"));
        let budget = Budget::unlimited().with_max_steps(30 * tg.num_tasks() as u64);
        let opts = MapperOptions::default();
        let (report, _, _) =
            multilevel_map_with_report(&tg, &net, &opts, &budget, Arc::clone(&table))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        let routes = route_all_phases(
            &tg,
            &report.mapping.assignment,
            &net,
            &table,
            Matcher::Maximum,
        );
        assert!(
            report.mapping.routes == routes,
            "{name}: multilevel's routes are not MM-Route's"
        );
    }
}

const CORPUS: &[&str] = &[
    "nbody@hypercube(3) General optimal ffea4c9550845089",
    "nbody@hypercube(4) General optimal cf23d0411e5e106e",
    "nbody@mesh2d(4x4) General optimal 76d552e5ed246043",
    "nbody@torus2d(4x4) General optimal 01ba6899ab24c58e",
    "nbody@ring(8) General optimal 67a16f31b3c9ec2c",
    "nbody*@hypercube(6) General optimal 7efa85962dfb883c",
    "nbody*@mesh2d(8x8) General optimal d435c8113a105a31",
    "nbody*@torus2d(8x8) General optimal 0938462bb42a1a26",
    "broadcast8@hypercube(3) GroupTheoretic optimal 90115744d254a40d",
    "broadcast8@hypercube(4) General optimal dd8c8a5ccf716bc1",
    "broadcast8@mesh2d(4x4) General optimal 1ab13c359b64cf01",
    "broadcast8@torus2d(4x4) General optimal 46e53bb569c41c83",
    "broadcast8@ring(8) GroupTheoretic optimal f93e4d8590e115ea",
    "jacobi@hypercube(3) Canned optimal 7ea110d344bc9712",
    "jacobi@hypercube(4) Canned optimal 7f70b6354cce6fee",
    "jacobi@mesh2d(4x4) Canned optimal bb9a2782a861bcee",
    "jacobi@torus2d(4x4) Canned optimal 387f4749af219833",
    "jacobi@ring(8) Canned optimal 3a3a7fc0d8dec181",
    "jacobi*@hypercube(6) General optimal 425a457e6c25dc67",
    "jacobi*@mesh2d(8x8) General optimal a66aa7ad16e9a787",
    "jacobi*@torus2d(8x8) General optimal 43b6efe9d4cd403e",
    "sor@hypercube(3) Canned optimal 2402244f34562354",
    "sor@hypercube(4) Canned optimal ca55e15c6b698828",
    "sor@mesh2d(4x4) Canned optimal 44a5566a2d7e6b28",
    "sor@torus2d(4x4) Canned optimal 1154e1d49c707475",
    "sor@ring(8) Canned optimal 02d30d9c89b49c83",
    "sor*@hypercube(6) General optimal 7e07209f51f39c7f",
    "sor*@mesh2d(8x8) General optimal ee471af3b81fb4f4",
    "sor*@torus2d(8x8) General optimal e00b91d548467424",
    "sormulticolor@hypercube(3) Canned optimal 90578464dec2b09e",
    "sormulticolor@hypercube(4) Canned optimal d9e1d5b6769c7e62",
    "sormulticolor@mesh2d(4x4) Canned optimal 217bdf4175737862",
    "sormulticolor@torus2d(4x4) Canned optimal 65ad11efdd5d64bf",
    "sormulticolor@ring(8) Canned optimal 001fe24e4aca474d",
    "sormulticolor*@hypercube(6) General optimal 672f9ac355840e9a",
    "sormulticolor*@mesh2d(8x8) General optimal cb171ecc2b9a04e3",
    "sormulticolor*@torus2d(8x8) General optimal c566758a5214a069",
    "binomialdnc@hypercube(3) Canned optimal a607a77ce25dd975",
    "binomialdnc@hypercube(4) Canned optimal 154f9a70c016b036",
    "binomialdnc@mesh2d(4x4) Canned optimal 7b3cea0ace6630fb",
    "binomialdnc@torus2d(4x4) General optimal 2a7e2ec7b6f5e1d8",
    "binomialdnc@ring(8) Canned optimal 0180bae148094ef4",
    "binomialdnc*@hypercube(6) Canned optimal d1c3e723d957e724",
    "binomialdnc*@mesh2d(8x8) Canned optimal 299e9ca0d3702e14",
    "binomialdnc*@torus2d(8x8) Canned optimal c420fca8a8c375a8",
    "fft@hypercube(3) General optimal 052a92fdbce19bb1",
    "fft@hypercube(4) General optimal d2b2d90d3b14230a",
    "fft@mesh2d(4x4) General optimal d75600b33c06c66b",
    "fft@torus2d(4x4) General optimal e330fed10edad7ef",
    "fft@ring(8) General optimal 44aa3a1500a6aad7",
    "fft*@hypercube(6) General optimal c16461860470c67f",
    "fft*@mesh2d(8x8) General optimal 07adc2880cd463ff",
    "fft*@torus2d(8x8) General optimal 8e5ac79eb9ce7152",
    "matmul@hypercube(3) Canned optimal 5d1539e52e63d659",
    "matmul@hypercube(4) Canned optimal 33a4d26b1cfce7b6",
    "matmul@mesh2d(4x4) Systolic optimal c5862fa22c3222e7",
    "matmul@torus2d(4x4) General optimal 9c68d6f7d179d662",
    "matmul@ring(8) Canned optimal ce00040f0d75061d",
    "matmul*@hypercube(6) General optimal 5941e6e7187c1da9",
    "matmul*@mesh2d(8x8) Systolic optimal eaa76b4f9ea6c8b5",
    "matmul*@torus2d(8x8) General optimal 891c61d8c99086ab",
    "pipeline@hypercube(3) Canned optimal d562a12481402fcc",
    "pipeline@hypercube(4) General optimal fbbb255c52b493f3",
    "pipeline@mesh2d(4x4) General optimal 8f96ea1bee067a30",
    "pipeline@torus2d(4x4) General optimal b62acef2fa041c52",
    "pipeline@ring(8) General optimal bfce4eea2a563270",
    "pipeline*@hypercube(6) General optimal 59b480fc6bd75bff",
    "pipeline*@mesh2d(8x8) General optimal b78d21e8b645723f",
    "pipeline*@torus2d(8x8) General optimal 3553315c17ac3e56",
    "wavefront@hypercube(3) General optimal d4ea95d00cf000db",
    "wavefront@hypercube(4) General optimal 66ca3e63340b3d18",
    "wavefront@mesh2d(4x4) General optimal bd7f36fe9ed5ab97",
    "wavefront@torus2d(4x4) General optimal 5e5da621d2dbf7f6",
    "wavefront@ring(8) General optimal 6881347248168afb",
    "wavefront*@hypercube(6) General optimal cd22b4af29abdfa4",
    "wavefront*@mesh2d(8x8) General optimal 48aa9227e034080a",
    "wavefront*@torus2d(8x8) General optimal adf397b93e0ac26c",
    "annealing@hypercube(3) General optimal 0a152bee35d2f7a2",
    "annealing@hypercube(4) General optimal 829171b3961dd615",
    "annealing@mesh2d(4x4) General optimal ba20bb89e284a49f",
    "annealing@torus2d(4x4) General optimal 666fea4fe13ddbd7",
    "annealing@ring(8) General optimal df36ca828e9dfc62",
    "annealing*@hypercube(6) Canned optimal 7c9d8e08a4e32ae6",
    "annealing*@mesh2d(8x8) Canned optimal 35b4d1a4ff78dea6",
    "annealing*@torus2d(8x8) Canned optimal 35b4d1a4ff78dea6",
];

const ANALYSIS: &[&str] = &[
    "nbody@hypercube(3) None bijective=true uniform=false",
    "nbody@hypercube(4) None bijective=true uniform=false",
    "nbody@mesh2d(4x4) None bijective=true uniform=false",
    "nbody@torus2d(4x4) None bijective=true uniform=false",
    "nbody@ring(8) None bijective=true uniform=false",
    "nbody*@hypercube(6) None bijective=true uniform=false",
    "nbody*@mesh2d(8x8) None bijective=true uniform=false",
    "nbody*@torus2d(8x8) None bijective=true uniform=false",
    "broadcast8@hypercube(3) None bijective=true uniform=false",
    "broadcast8@hypercube(4) None bijective=true uniform=false",
    "broadcast8@mesh2d(4x4) None bijective=true uniform=false",
    "broadcast8@torus2d(4x4) None bijective=true uniform=false",
    "broadcast8@ring(8) None bijective=true uniform=false",
    "jacobi@hypercube(3) Some(Mesh2D(8, 8)) bijective=false uniform=true",
    "jacobi@hypercube(4) Some(Mesh2D(8, 8)) bijective=false uniform=true",
    "jacobi@mesh2d(4x4) Some(Mesh2D(8, 8)) bijective=false uniform=true",
    "jacobi@torus2d(4x4) Some(Mesh2D(8, 8)) bijective=false uniform=true",
    "jacobi@ring(8) Some(Mesh2D(8, 8)) bijective=false uniform=true",
    "jacobi*@hypercube(6) None bijective=false uniform=true",
    "jacobi*@mesh2d(8x8) None bijective=false uniform=true",
    "jacobi*@torus2d(8x8) None bijective=false uniform=true",
    "sor@hypercube(3) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sor@hypercube(4) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sor@mesh2d(4x4) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sor@torus2d(4x4) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sor@ring(8) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sor*@hypercube(6) None bijective=false uniform=false",
    "sor*@mesh2d(8x8) None bijective=false uniform=false",
    "sor*@torus2d(8x8) None bijective=false uniform=false",
    "sormulticolor@hypercube(3) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sormulticolor@hypercube(4) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sormulticolor@mesh2d(4x4) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sormulticolor@torus2d(4x4) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sormulticolor@ring(8) Some(Mesh2D(8, 8)) bijective=false uniform=false",
    "sormulticolor*@hypercube(6) None bijective=false uniform=false",
    "sormulticolor*@mesh2d(8x8) None bijective=false uniform=false",
    "sormulticolor*@torus2d(8x8) None bijective=false uniform=false",
    "binomialdnc@hypercube(3) Some(BinomialTree(4)) bijective=false uniform=false",
    "binomialdnc@hypercube(4) Some(BinomialTree(4)) bijective=false uniform=false",
    "binomialdnc@mesh2d(4x4) Some(BinomialTree(4)) bijective=false uniform=false",
    "binomialdnc@torus2d(4x4) Some(BinomialTree(4)) bijective=false uniform=false",
    "binomialdnc@ring(8) Some(BinomialTree(4)) bijective=false uniform=false",
    "binomialdnc*@hypercube(6) Some(BinomialTree(9)) bijective=false uniform=false",
    "binomialdnc*@mesh2d(8x8) Some(BinomialTree(9)) bijective=false uniform=false",
    "binomialdnc*@torus2d(8x8) Some(BinomialTree(9)) bijective=false uniform=false",
    "fft@hypercube(3) Some(Butterfly(3)) bijective=false uniform=false",
    "fft@hypercube(4) Some(Butterfly(3)) bijective=false uniform=false",
    "fft@mesh2d(4x4) Some(Butterfly(3)) bijective=false uniform=false",
    "fft@torus2d(4x4) Some(Butterfly(3)) bijective=false uniform=false",
    "fft@ring(8) Some(Butterfly(3)) bijective=false uniform=false",
    "fft*@hypercube(6) Some(Butterfly(7)) bijective=false uniform=false",
    "fft*@mesh2d(8x8) Some(Butterfly(7)) bijective=false uniform=false",
    "fft*@torus2d(8x8) Some(Butterfly(7)) bijective=false uniform=false",
    "matmul@hypercube(3) Some(Mesh2D(4, 4)) bijective=false uniform=true",
    "matmul@hypercube(4) Some(Mesh2D(4, 4)) bijective=false uniform=true",
    "matmul@mesh2d(4x4) Some(Mesh2D(4, 4)) bijective=false uniform=true",
    "matmul@torus2d(4x4) Some(Mesh2D(4, 4)) bijective=false uniform=true",
    "matmul@ring(8) Some(Mesh2D(4, 4)) bijective=false uniform=true",
    "matmul*@hypercube(6) None bijective=false uniform=true",
    "matmul*@mesh2d(8x8) None bijective=false uniform=true",
    "matmul*@torus2d(8x8) None bijective=false uniform=true",
    "pipeline@hypercube(3) Some(Chain(8)) bijective=false uniform=true",
    "pipeline@hypercube(4) Some(Chain(8)) bijective=false uniform=true",
    "pipeline@mesh2d(4x4) Some(Chain(8)) bijective=false uniform=true",
    "pipeline@torus2d(4x4) Some(Chain(8)) bijective=false uniform=true",
    "pipeline@ring(8) Some(Chain(8)) bijective=false uniform=true",
    "pipeline*@hypercube(6) None bijective=false uniform=true",
    "pipeline*@mesh2d(8x8) None bijective=false uniform=true",
    "pipeline*@torus2d(8x8) None bijective=false uniform=true",
    "wavefront@hypercube(3) None bijective=false uniform=true",
    "wavefront@hypercube(4) None bijective=false uniform=true",
    "wavefront@mesh2d(4x4) None bijective=false uniform=true",
    "wavefront@torus2d(4x4) None bijective=false uniform=true",
    "wavefront@ring(8) None bijective=false uniform=true",
    "wavefront*@hypercube(6) None bijective=false uniform=true",
    "wavefront*@mesh2d(8x8) None bijective=false uniform=true",
    "wavefront*@torus2d(8x8) None bijective=false uniform=true",
    "annealing@hypercube(3) Some(Ring(12)) bijective=true uniform=false",
    "annealing@hypercube(4) Some(Ring(12)) bijective=true uniform=false",
    "annealing@mesh2d(4x4) Some(Ring(12)) bijective=true uniform=false",
    "annealing@torus2d(4x4) Some(Ring(12)) bijective=true uniform=false",
    "annealing@ring(8) Some(Ring(12)) bijective=true uniform=false",
    "annealing*@hypercube(6) Some(Ring(128)) bijective=true uniform=false",
    "annealing*@mesh2d(8x8) Some(Ring(128)) bijective=true uniform=false",
    "annealing*@torus2d(8x8) Some(Ring(128)) bijective=true uniform=false",
];

const ENGINE: &[&str] = &[
    "ring8@q3 quota=0 sequential: heuristic budget exhausted | exhaustive candidate cost=Some(5) steps=1 attempts=1 | heuristic served cost=Some(2) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | a91d658d12aa68d3",
    "ring8@q3 quota=0 supervised: heuristic budget exhausted | exhaustive candidate cost=Some(5) steps=1 attempts=1 | heuristic served cost=Some(2) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | a91d658d12aa68d3",
    "ring8@q3 quota=40 sequential: heuristic budget exhausted | exhaustive candidate cost=Some(5) steps=41 attempts=1 | heuristic served cost=Some(2) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | a91d658d12aa68d3",
    "ring8@q3 quota=40 supervised: heuristic budget exhausted | exhaustive candidate cost=Some(5) steps=41 attempts=1 | heuristic served cost=Some(2) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | a91d658d12aa68d3",
    "ring8@q3 quota=none sequential: exhaustive optimal | exhaustive served cost=Some(2) steps=35340 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | 9eb672eb0bb34f53",
    "ring8@q3 quota=none supervised: exhaustive optimal | exhaustive served cost=Some(2) steps=35340 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | 9eb672eb0bb34f53",
    "grid4x4@q2 quota=0 sequential: heuristic budget exhausted | exhaustive candidate cost=Some(5) steps=3 attempts=1 | heuristic served cost=Some(3) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | d6b3f4af8a9f716a",
    "grid4x4@q2 quota=0 supervised: heuristic budget exhausted | exhaustive candidate cost=Some(5) steps=3 attempts=1 | heuristic served cost=Some(3) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | d6b3f4af8a9f716a",
    "grid4x4@q2 quota=40 sequential: exhaustive budget exhausted | exhaustive served cost=Some(3) steps=41 attempts=1 | heuristic candidate cost=Some(3) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | 22c454a83f7ad05a",
    "grid4x4@q2 quota=40 supervised: exhaustive budget exhausted | exhaustive served cost=Some(3) steps=41 attempts=1 | heuristic candidate cost=Some(3) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | 22c454a83f7ad05a",
    "grid4x4@q2 quota=none sequential: exhaustive optimal | exhaustive served cost=Some(3) steps=93 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | 0926319252580287",
    "grid4x4@q2 quota=none supervised: exhaustive optimal | exhaustive served cost=Some(3) steps=93 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | 0926319252580287",
    "rgg24@mesh2x2 quota=0 sequential: exhaustive budget exhausted | exhaustive served cost=Some(20) steps=3 attempts=1 | heuristic candidate cost=Some(20) steps=2 attempts=1 | identity candidate cost=Some(22) steps=0 attempts=1 | 83c7b41c406d915b",
    "rgg24@mesh2x2 quota=0 supervised: exhaustive budget exhausted | exhaustive served cost=Some(20) steps=3 attempts=1 | heuristic candidate cost=Some(20) steps=2 attempts=1 | identity candidate cost=Some(22) steps=0 attempts=1 | 83c7b41c406d915b",
    "rgg24@mesh2x2 quota=40 sequential: exhaustive budget exhausted | exhaustive served cost=Some(12) steps=43 attempts=1 | heuristic candidate cost=Some(20) steps=2 attempts=1 | identity candidate cost=Some(22) steps=0 attempts=1 | be4327d6323454de",
    "rgg24@mesh2x2 quota=40 supervised: exhaustive budget exhausted | exhaustive served cost=Some(12) steps=43 attempts=1 | heuristic candidate cost=Some(20) steps=2 attempts=1 | identity candidate cost=Some(22) steps=0 attempts=1 | be4327d6323454de",
    "rgg24@mesh2x2 quota=none sequential: exhaustive optimal | exhaustive served cost=Some(10) steps=130 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | 060e84d231809a1f",
    "rgg24@mesh2x2 quota=none supervised: exhaustive optimal | exhaustive served cost=Some(10) steps=130 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | 060e84d231809a1f",
    "torus4x6@ring4 quota=0 sequential: exhaustive budget exhausted | exhaustive served cost=Some(7) steps=3 attempts=1 | heuristic candidate cost=Some(7) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | 0885c500b365087b",
    "torus4x6@ring4 quota=0 supervised: exhaustive budget exhausted | exhaustive served cost=Some(7) steps=3 attempts=1 | heuristic candidate cost=Some(7) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | 0885c500b365087b",
    "torus4x6@ring4 quota=40 sequential: heuristic budget exhausted | exhaustive candidate cost=Some(15) steps=43 attempts=1 | heuristic served cost=Some(7) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | f6c396b377fbb903",
    "torus4x6@ring4 quota=40 supervised: heuristic budget exhausted | exhaustive candidate cost=Some(15) steps=43 attempts=1 | heuristic served cost=Some(7) steps=0 attempts=1 | identity skipped cost=None steps=0 attempts=0 | f6c396b377fbb903",
    "torus4x6@ring4 quota=none sequential: exhaustive optimal | exhaustive served cost=Some(10) steps=146 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | a9abc38168872f52",
    "torus4x6@ring4 quota=none supervised: exhaustive optimal | exhaustive served cost=Some(10) steps=146 attempts=1 | heuristic skipped cost=None steps=0 attempts=0 | identity skipped cost=None steps=0 attempts=0 | a9abc38168872f52",
];

const MULTILEVEL: &[&str] = &[
    "grid31x30@torus4x4: optimal coarsest=60 split=true 83ac0184f54db42d | 930n 1799e 61->47 13mv | 465n 884e 0->0 0mv | 233n 442e 0->0 0mv | 117n 221e 0->0 0mv | 60n 111e 0->0 0mv",
    "torus40x40@torus4x4: optimal coarsest=50 split=false d18471ae4d1234e3 | 1600n 3200e 43->43 0mv | 800n 1600e 43->43 0mv | 400n 800e 43->43 0mv | 200n 400e 43->43 0mv | 100n 200e 43->43 0mv | 50n 100e 43->43 0mv",
    "rgg2000@q4: optimal coarsest=63 split=true 8c1aea6725cf5638 | 2000n 5539e 88->88 0mv | 1111n 2454e 0->0 0mv | 639n 1068e 0->0 0mv | 386n 538e 0->0 0mv | 248n 315e 0->0 0mv | 162n 194e 0->0 0mv | 112n 127e 0->0 0mv | 81n 82e 0->0 0mv | 63n 58e 0->0 0mv",
];
