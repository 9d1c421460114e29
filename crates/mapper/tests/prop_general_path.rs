//! The general path's kernels against the code they replaced.
//!
//! `greedy_premerge_budgeted`, `mm_route` and `nn_embed` were rewritten to
//! cost what their sparse inputs cost (member lists instead of a full
//! relabel per merge, one matching over classes of messages that share
//! `(cur, dest)` instead of one per message, a running weight-to-placed
//! per cluster). None of them may change one mapping, so each is pinned
//! here to a copy of the implementation it replaced, kept test-side only:
//! same contraction and `Completion` under any step quota, same paths and
//! round counts on both matchers (the copy is `mm_route_oracle/`), same
//! placement.

mod mm_route_oracle;

use mm_route_oracle::reference_mm_route;
use oregami_graph::{TaskGraph, TaskId, WeightedGraph};
use oregami_mapper::contraction::Contraction;
use oregami_mapper::routing::{mm_route, Matcher};
use oregami_mapper::{greedy_premerge_budgeted, nn_embed, Budget, Completion};
use oregami_topology::{builders, Network, ProcId, RouteTable, TopologyKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// About `n * avg_degree / 2` random edges; few distinct weights when
/// `max_w` is small, so later passes see accumulated ties.
fn random_graph(rng: &mut StdRng, n: usize, avg_degree: usize, max_w: u64) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for _ in 0..n * avg_degree / 2 {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        g.add_or_accumulate(u, v, rng.random_range(1..=max_w));
    }
    g
}

// ---- (b) greedy pre-merge -------------------------------------------------

/// `greedy_premerge_budgeted` as it was: every merge rewrites the whole
/// `cluster_of` vector.
fn reference_premerge(
    g: &WeightedGraph,
    target_clusters: usize,
    max_cluster_size: usize,
    budget: &Budget,
) -> (Contraction, Completion) {
    let n = g.num_nodes();
    let mut cluster_of: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    let mut count = n;
    let mut stopped = None;
    'outer: while count > target_clusters {
        let (q, _) = g.quotient(&cluster_of, n);
        let mut merged_any = false;
        for e in q.edges_by_weight_desc() {
            if let Some(c) = budget.tick() {
                stopped = Some(c);
                break 'outer;
            }
            if count <= target_clusters {
                break;
            }
            let (cu, cv) = (cluster_of[e.u], cluster_of[e.v]);
            if cu == cv {
                continue;
            }
            if size[cu] + size[cv] > max_cluster_size {
                continue;
            }
            let (keep, drop) = (cu.min(cv), cu.max(cv));
            for c in cluster_of.iter_mut() {
                if *c == drop {
                    *c = keep;
                }
            }
            size[keep] += size[drop];
            size[drop] = 0;
            count -= 1;
            merged_any = true;
        }
        if !merged_any {
            break;
        }
    }
    (
        Contraction {
            cluster_of,
            num_clusters: n,
        }
        .compact(),
        stopped.unwrap_or(Completion::Optimal),
    )
}

// ---- (c) MM-Route ---------------------------------------------------------

/// Twelve processors: a hub 0 with spokes 1..=6, and five destinations
/// two hops out, 7 (via 1, 2), 8 (via 3, 4), 9 (via 5, 6), 10 (via 1, 3,
/// 5) and 11 (via 3). One task per processor.
fn twin_hub() -> Network {
    let mut links: Vec<(u32, u32)> = (1..=6).map(|s| (0, s)).collect();
    links.extend([(1, 7), (2, 7), (3, 8), (4, 8), (5, 9), (6, 9)]);
    links.extend([(1, 10), (3, 10), (5, 10), (3, 11)]);
    Network::from_links("twin-hub", TopologyKind::Custom, 12, links)
}

/// An augmentation falls between two twins of one class. All six
/// messages start on the hub; messages 3 and 5 are the class
/// `(0, 10)`. Hopcroft–Karp's greedy first phase gives links 0-1, 0-3
/// and 0-5 to messages 0, 1 and 2, and every later message finds its row
/// full. In the second phase, message 3 augments through message 0 (which
/// moves to 0-2) and takes 0-1; message 4, a different class, augments
/// through message 1 (to 0-4) and takes 0-3; only then is message 5, the
/// twin of 3, tried, and it takes 0-5 by moving message 2 to 0-6. One
/// round serves the whole first hop.
#[test]
fn an_augmentation_between_two_twins_matches_the_per_message_rounds() {
    let net = twin_hub();
    let table = RouteTable::try_new(&net).unwrap();
    let mut tg = TaskGraph::new("twins");
    tg.add_scalar_nodes("t", 12);
    let ph = tg.add_phase("out");
    for dest in [7, 8, 9, 10, 11, 10] {
        tg.add_edge(ph, TaskId::new(0), TaskId::new(dest), 1);
    }
    let assignment: Vec<ProcId> = (0..12).map(ProcId).collect();
    let path = |hops: &[u32]| hops.iter().copied().map(ProcId).collect::<Vec<_>>();
    let want_max = [
        [0, 2, 7],
        [0, 4, 8],
        [0, 6, 9],
        [0, 1, 10],
        [0, 3, 11],
        [0, 5, 10],
    ];
    // greedy: round one serves messages 0-2, round two messages 3-5
    let want_greedy = [
        [0, 1, 7],
        [0, 3, 8],
        [0, 5, 9],
        [0, 1, 10],
        [0, 3, 11],
        [0, 5, 10],
    ];
    for (matcher, want, rounds) in [
        (Matcher::Maximum, want_max, 2),
        (Matcher::GreedyMaximal, want_greedy, 3),
    ] {
        let got = mm_route(&tg, 0, &assignment, &net, &table, matcher);
        let want: Vec<Vec<ProcId>> = want.iter().map(|p| path(p)).collect();
        assert_eq!(got.paths, want, "{matcher:?}");
        assert_eq!(got.matching_rounds, rounds, "{matcher:?}");
        assert_eq!(
            (got.paths, got.matching_rounds),
            reference_mm_route(&tg, 0, &assignment, &net, &table, matcher),
            "{matcher:?}"
        );
    }
}

fn route_network(idx: usize) -> Network {
    match idx % 4 {
        0 => builders::hypercube(4),
        1 => builders::mesh2d(4, 4),
        2 => builders::torus2d(4, 4),
        _ => builders::ring(8),
    }
}

// ---- (d) NN-Embed ---------------------------------------------------------

/// `nn_embed` as it was: each step rescans every unplaced cluster's
/// neighbours for its weight to the placed ones.
fn reference_nn_embed(
    cluster_graph: &WeightedGraph,
    net: &Network,
    table: &RouteTable,
) -> Vec<ProcId> {
    let c = cluster_graph.num_nodes();
    let p = net.num_procs();
    assert!(c >= 1 && c <= p);
    let mut placement = vec![ProcId(u32::MAX); c];
    let mut placed = vec![false; c];
    let mut proc_used = vec![false; p];
    let seed_cluster = (0..c)
        .max_by_key(|&x| (cluster_graph.weighted_degree(x), std::cmp::Reverse(x)))
        .unwrap();
    let seed_proc = (0..p)
        .max_by_key(|&q| (net.degree(ProcId(q as u32)), std::cmp::Reverse(q)))
        .unwrap();
    placement[seed_cluster] = ProcId(seed_proc as u32);
    placed[seed_cluster] = true;
    proc_used[seed_proc] = true;
    for _ in 1..c {
        let next = (0..c)
            .filter(|&x| !placed[x])
            .max_by_key(|&x| {
                let to_placed: u64 = cluster_graph
                    .neighbors(x)
                    .iter()
                    .filter(|(nb, _)| placed[*nb])
                    .fold(0u64, |acc, &(_, w)| acc.saturating_add(w));
                (
                    to_placed,
                    cluster_graph.weighted_degree(x),
                    std::cmp::Reverse(x),
                )
            })
            .unwrap();
        let best_proc = (0..p)
            .filter(|&q| !proc_used[q])
            .min_by_key(|&q| {
                let cost: u64 = cluster_graph
                    .neighbors(next)
                    .iter()
                    .filter(|(nb, _)| placed[*nb])
                    .fold(0u64, |acc, &(nb, w)| {
                        let d = u64::from(table.dist(ProcId(q as u32), placement[nb]));
                        acc.saturating_add(w.saturating_mul(d))
                    });
                (cost, q)
            })
            .unwrap();
        placement[next] = ProcId(best_proc as u32);
        placed[next] = true;
        proc_used[best_proc] = true;
    }
    placement
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same contraction and completion, run to the end and under a step
    /// quota that stops it anywhere — including mid-pass, with merges of
    /// the pass already applied.
    #[test]
    fn greedy_premerge_equals_the_full_relabel_implementation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..122usize);
        let avg_degree = rng.random_range(1..7usize);
        let max_w = [1, 3, 50][rng.random_range(0..3usize)];
        let g = random_graph(&mut rng, n, avg_degree, max_w);
        let target = 1 + rng.random_range(0..n);
        let cap = rng.random_range(1..13usize);

        let unlimited = Budget::unlimited();
        let got = greedy_premerge_budgeted(&g, target, cap, &unlimited);
        let want = reference_premerge(&g, target, cap, &Budget::unlimited());
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.1, Completion::Optimal);

        // every edge examined ticks once: stop after each possible count
        // for small runs, a sample of them for long ones
        let steps = unlimited.steps_used();
        let quotas: Vec<u64> = if steps <= 24 {
            (0..=steps).collect()
        } else {
            (0..12).map(|_| rng.random_range(0..steps + 1)).collect()
        };
        for quota in quotas {
            let got = greedy_premerge_budgeted(&g, target, cap, &Budget::unlimited().with_max_steps(quota));
            let want = reference_premerge(&g, target, cap, &Budget::unlimited().with_max_steps(quota));
            prop_assert_eq!(&got, &want, "quota {}", quota);
            if quota < steps {
                prop_assert_eq!(got.1, Completion::BudgetExhausted, "quota {} of {}", quota, steps);
            }
        }
    }

    /// Same paths, same number of matching rounds: random phases on four
    /// networks, both matchers.
    #[test]
    fn mm_route_equals_the_per_round_rebuild(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = route_network(rng.random_range(0..4usize));
        let table = RouteTable::try_new(&net).unwrap();
        let p = net.num_procs();
        let tasks = 1 + rng.random_range(0..8 * p);
        let mut tg = TaskGraph::new("random-phases");
        tg.add_scalar_nodes("t", tasks);
        let phases = rng.random_range(1..4usize);
        for k in 0..phases {
            let ph = tg.add_phase(format!("p{k}"));
            for _ in 0..rng.random_range(0..4 * tasks + 1) {
                let (s, d) = (rng.random_range(0..tasks), rng.random_range(0..tasks));
                if s != d {
                    tg.add_edge(ph, TaskId::new(s), TaskId::new(d), rng.random_range(1..10u64));
                }
            }
        }
        // several tasks share a processor, so messages share (cur, dest);
        // packed onto a few hosts, a phase is congested and its classes
        // have many members each
        let hosts: Vec<u32> = (0..1 + rng.random_range(0..p)).map(|_| rng.random_range(0..p) as u32).collect();
        let assignment: Vec<ProcId> = (0..tasks).map(|_| ProcId(hosts[rng.random_range(0..hosts.len())])).collect();
        for matcher in [Matcher::Maximum, Matcher::GreedyMaximal] {
            for k in 0..phases {
                let got = mm_route(&tg, k, &assignment, &net, &table, matcher);
                let (paths, rounds) = reference_mm_route(&tg, k, &assignment, &net, &table, matcher);
                prop_assert_eq!(&got.paths, &paths, "{:?} phase {} on {}", matcher, k, &net.name);
                prop_assert_eq!(got.matching_rounds, rounds);
            }
        }
    }

    /// Same placement on random cluster graphs, tie-rich and near
    /// saturation alike.
    #[test]
    fn nn_embed_equals_the_per_step_rescan(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = match rng.random_range(0..5usize) {
            0 => builders::hypercube(5),
            1 => builders::mesh2d(5, 6),
            2 => builders::torus2d(4, 6),
            3 => builders::ring(17),
            _ => builders::star(12),
        };
        let table = RouteTable::try_new(&net).unwrap();
        let c = 1 + rng.random_range(0..net.num_procs());
        let avg_degree = rng.random_range(0..7usize);
        let max_w = [1, 4, 1000, u64::MAX][rng.random_range(0..4usize)];
        let g = random_graph(&mut rng, c, avg_degree, max_w);
        let got = nn_embed(&g, &net, &table).unwrap();
        prop_assert_eq!(got, reference_nn_embed(&g, &net, &table));
    }
}
