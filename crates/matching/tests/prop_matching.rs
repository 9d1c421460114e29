//! Property-based validation of the matching algorithms against exact
//! oracles — the safety net under MWM-Contract's optimality claims — and
//! of the test-side bipartite matchers MM-Route's oracle rebuilds its
//! rounds with (`tests/bipartite/mod.rs`).

mod bipartite;

use bipartite::{greedy_bipartite_matching, hopcroft_karp};
use oregami_matching::{brute_force_max_weight_matching, max_weight_matching};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random small weighted graphs: `(n, edges)`.
fn weighted_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (2usize..=9).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        (
            Just(n),
            proptest::collection::vec((0usize..m, 1u64..100), 0..=m.min(18)),
        )
            .prop_map(move |(n, picks)| {
                let edges = picks
                    .into_iter()
                    .map(|(i, w)| {
                        let (u, v) = pairs[i];
                        (u, v, w)
                    })
                    .collect();
                (n, edges)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The blossom matcher always equals the exponential oracle.
    #[test]
    fn blossom_matches_brute_force((n, edges) in weighted_graph()) {
        let m = max_weight_matching(n, &edges);
        prop_assert!(m.is_valid());
        prop_assert_eq!(m.total_weight, brute_force_max_weight_matching(n, &edges));
    }

    /// Matched weight only uses existing edges (the matching is a subgraph).
    #[test]
    fn matching_uses_real_edges((n, edges) in weighted_graph()) {
        let m = max_weight_matching(n, &edges);
        for (u, v) in m.pairs() {
            prop_assert!(
                edges.iter().any(|&(a, b, w)| w > 0
                    && ((a, b) == (u, v) || (a, b) == (v, u))),
                "pair ({u},{v}) is not an input edge"
            );
        }
    }

    /// Hopcroft–Karp matchings are valid and maximal (no augmenting edge
    /// between two free vertices remains).
    #[test]
    fn hopcroft_karp_is_valid_and_maximal(
        nx in 1usize..8,
        ny in 1usize..8,
        density in 0u32..100,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let adj: Vec<Vec<usize>> = (0..nx)
            .map(|_| (0..ny).filter(|_| (next() % 100) < density as u64).collect())
            .collect();
        let m = hopcroft_karp(nx, ny, &adj);
        prop_assert!(m.is_valid());
        for (x, nbrs) in adj.iter().enumerate() {
            if m.left_to_right[x].is_none() {
                prop_assert!(
                    nbrs.iter().all(|&y| m.right_to_left[y].is_some()),
                    "free-free edge remains"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The bipartite oracle on its own: Hopcroft–Karp is maximum (against an
// exhaustive search), greedy is maximal and at least half of it.
// ---------------------------------------------------------------------

#[test]
fn perfect_matching_in_k33() {
    let adj = vec![vec![0, 1, 2]; 3];
    let m = hopcroft_karp(3, 3, &adj);
    assert_eq!(m.size(), 3);
    assert!(m.is_valid());
}

#[test]
fn augmenting_path_needed() {
    // x0-{y0}, x1-{y0,y1}: greedy in bad order could strand x0.
    let adj = vec![vec![0], vec![0, 1]];
    let m = hopcroft_karp(2, 2, &adj);
    assert_eq!(m.size(), 2);
    assert_eq!(m.left_to_right[0], Some(0));
    assert_eq!(m.left_to_right[1], Some(1));
}

#[test]
fn greedy_is_maximal() {
    let adj = vec![vec![0, 1], vec![0], vec![1]];
    let m = greedy_bipartite_matching(3, 2, &adj);
    assert!(m.is_valid());
    // Maximality: every left vertex with an edge to a free right vertex
    // is matched.
    for (x, nbrs) in adj.iter().enumerate() {
        if m.left_to_right[x].is_none() {
            assert!(nbrs.iter().all(|&y| m.right_to_left[y].is_some()));
        }
    }
}

#[test]
fn greedy_at_least_half_of_maximum() {
    let mut seed = 0xC0FFEEu64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for _ in 0..100 {
        let nx = 1 + (next() % 8) as usize;
        let ny = 1 + (next() % 8) as usize;
        let mut adj = vec![Vec::new(); nx];
        for (x, row) in adj.iter_mut().enumerate() {
            for y in 0..ny {
                if next() % 100 < 40 {
                    row.push(y);
                }
            }
            let _ = x;
        }
        let g = greedy_bipartite_matching(nx, ny, &adj).size();
        let h = hopcroft_karp(nx, ny, &adj).size();
        assert!(g <= h);
        assert!(2 * g >= h, "greedy {g} vs max {h}");
    }
}

#[test]
fn empty_graph() {
    let m = hopcroft_karp(3, 3, &vec![Vec::new(); 3]);
    assert_eq!(m.size(), 0);
    let g = greedy_bipartite_matching(0, 0, &[]);
    assert_eq!(g.size(), 0);
}

#[test]
fn hk_matches_brute_on_randoms() {
    // Compare Hopcroft–Karp size with an exhaustive max computed by
    // recursion on left vertices.
    fn brute(x: usize, nx: usize, adj: &[Vec<usize>], used: &mut Vec<bool>) -> usize {
        if x == nx {
            return 0;
        }
        let mut best = brute(x + 1, nx, adj, used);
        for &y in &adj[x] {
            if !used[y] {
                used[y] = true;
                best = best.max(1 + brute(x + 1, nx, adj, used));
                used[y] = false;
            }
        }
        best
    }
    let mut seed = 42u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for _ in 0..60 {
        let nx = 1 + (next() % 6) as usize;
        let ny = 1 + (next() % 6) as usize;
        let mut adj = vec![Vec::new(); nx];
        for row in adj.iter_mut() {
            for y in 0..ny {
                if next() % 100 < 50 {
                    row.push(y);
                }
            }
        }
        let mut used = vec![false; ny];
        let expect = brute(0, nx, &adj, &mut used);
        assert_eq!(hopcroft_karp(nx, ny, &adj).size(), expect);
    }
}

// ---------------------------------------------------------------------
// Differential suite: the sparse production solver against the dense
// matrix solver it replaced (`tests/dense/mod.rs`). "Same order as the
// dense formulation" is checked literally: the same `mate` vector, the
// same `completed` flag and the same number of `poll` consultations, on
// whole runs and on runs a poll cuts short.
// ---------------------------------------------------------------------

mod dense;

use dense::dense_max_weight_matching_budgeted;
use oregami_matching::{max_weight_matching_budgeted, Matching};

type Edges = Vec<(usize, usize, u64)>;

/// The weight ranges the issue's sweep used: tie-rich to wide.
const WEIGHT_RANGES: [u64; 4] = [1, 3, 20, 1000];

/// The budgeted entry point, production or oracle.
type Solver = fn(usize, &[(usize, usize, u64)], &mut dyn FnMut() -> bool) -> (Matching, bool);

/// Runs one solver with a poll that fires at its `stop_at`-th consultation
/// (never, for `None`); returns the matching, the flag and the number of
/// consultations made.
fn run(
    solver: Solver,
    n: usize,
    edges: &[(usize, usize, u64)],
    stop_at: Option<u64>,
) -> (Matching, bool, u64) {
    let mut polls = 0u64;
    let (m, completed) = solver(n, edges, &mut || {
        polls += 1;
        stop_at.is_some_and(|k| polls > k)
    });
    (m, completed, polls)
}

/// Sparse ≡ dense on a full run, and on `cuts` runs stopped after a
/// random number of poll consultations. Returns the full run's poll count.
fn assert_same_as_dense(
    n: usize,
    edges: &[(usize, usize, u64)],
    rng: &mut StdRng,
    cuts: usize,
) -> u64 {
    let sparse = run(max_weight_matching_budgeted, n, edges, None);
    let dense = run(dense_max_weight_matching_budgeted, n, edges, None);
    assert_eq!(sparse, dense, "full run: n={n} edges={edges:?}");
    assert!(sparse.1, "an un-polled run completes");
    assert!(sparse.0.is_valid());
    let total = sparse.2;
    for _ in 0..cuts {
        let k = rng.random_range(0..total + 1);
        let sparse = run(max_weight_matching_budgeted, n, edges, Some(k));
        let dense = run(dense_max_weight_matching_budgeted, n, edges, Some(k));
        assert_eq!(
            sparse, dense,
            "stopped after {k} polls: n={n} edges={edges:?}"
        );
        assert!(sparse.0.is_valid());
        assert_eq!(sparse.1, k >= total, "poll {k} of {total}");
    }
    total
}

/// `n` vertices, each unordered pair an edge with probability
/// `per_mille`/1000, weights in `1..=max_w`.
fn gnp(rng: &mut StdRng, n: usize, per_mille: u64, max_w: u64) -> Edges {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_range(0..1000u64) < per_mille {
                edges.push((u, v, rng.random_range(1..=max_w)));
            }
        }
    }
    edges
}

/// `n` vertices and about `n * avg_degree / 2` random edges, repeats and
/// both orientations included (the solver merges them to the heaviest).
fn sparse_random(rng: &mut StdRng, n: usize, avg_degree: usize, max_w: u64) -> Edges {
    let mut edges = Vec::new();
    for _ in 0..n * avg_degree / 2 {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v {
            edges.push((u, v, rng.random_range(1..=max_w)));
        }
    }
    edges
}

/// A random forest: vertex `v` hangs off an earlier vertex, or starts a
/// new tree one time in eight.
fn forest(rng: &mut StdRng, n: usize, max_w: u64) -> Edges {
    let mut edges = Vec::new();
    for v in 1..n {
        if rng.random_range(0..8usize) != 0 {
            edges.push((rng.random_range(0..v), v, rng.random_range(1..=max_w)));
        }
    }
    edges
}

/// Odd cycles of length 3 to 7 glued at shared vertices and joined by a
/// few chords: blossoms nest, expand and get reused here.
fn odd_cycle_cactus(rng: &mut StdRng, cycles: usize, max_w: u64) -> (usize, Edges) {
    let mut n = 1usize;
    let mut edges = Vec::new();
    for _ in 0..cycles {
        let len = 3 + 2 * rng.random_range(0..3usize);
        let hub = rng.random_range(0..n);
        let fresh: Vec<usize> = (n..n + len - 1).collect();
        n += len - 1;
        let ring: Vec<usize> = std::iter::once(hub).chain(fresh).collect();
        for i in 0..len {
            edges.push((ring[i], ring[(i + 1) % len], rng.random_range(1..=max_w)));
        }
    }
    for _ in 0..cycles / 2 {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v {
            edges.push((u, v, rng.random_range(1..=max_w)));
        }
    }
    (n, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense graphs, n ≤ 40: every row is long, every blossom has many
    /// neighbours to fold over.
    #[test]
    fn sparse_solver_equals_dense_on_dense_graphs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..41usize);
        let per_mille = rng.random_range(300..1001u64);
        let max_w = WEIGHT_RANGES[rng.random_range(0..4usize)];
        let edges = gnp(&mut rng, n, per_mille, max_w);
        assert_same_as_dense(n, &edges, &mut rng, 3);
    }

    /// Sparse graphs of average degree 2 to 6 — the cluster graphs
    /// MWM-Contract offers.
    #[test]
    fn sparse_solver_equals_dense_on_sparse_graphs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..161usize);
        let avg_degree = rng.random_range(2..7usize);
        let max_w = WEIGHT_RANGES[rng.random_range(0..4usize)];
        let edges = sparse_random(&mut rng, n, avg_degree, max_w);
        assert_same_as_dense(n, &edges, &mut rng, 3);
    }

    /// Forests: no blossom ever forms; perm1024's cluster graph is one.
    #[test]
    fn sparse_solver_equals_dense_on_forests(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..201usize);
        let max_w = WEIGHT_RANGES[rng.random_range(0..4usize)];
        let edges = forest(&mut rng, n, max_w);
        assert_same_as_dense(n, &edges, &mut rng, 2);
    }

    /// Odd-cycle-rich graphs with few distinct weights: nested blossoms,
    /// expansions, slot reuse, and ties everywhere.
    #[test]
    fn sparse_solver_equals_dense_on_odd_cycle_rich_graphs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cycles = rng.random_range(1..17usize);
        let max_w = WEIGHT_RANGES[rng.random_range(0..3usize)];
        let (n, edges) = odd_cycle_cactus(&mut rng, cycles, max_w);
        assert_same_as_dense(n, &edges, &mut rng, 3);
    }

    /// Weights within 8 of `u64::MAX` (saturated volumes upstream): all
    /// clamp to one value, so this is also an all-ties instance.
    #[test]
    fn sparse_solver_equals_dense_near_u64_max(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..32usize);
        let per_mille = rng.random_range(150..650u64);
        let mut edges = gnp(&mut rng, n, per_mille, 8);
        for e in &mut edges {
            e.2 = u64::MAX - (e.2 - 1);
        }
        assert_same_as_dense(n, &edges, &mut rng, 2);
        let m = max_weight_matching(n, &edges);
        prop_assert!(m.is_valid());
    }
}

/// The production solver is also exact where the dense one is: the
/// brute-force oracle on the families above, at sizes it can enumerate.
#[test]
fn sparse_solver_is_optimal_on_small_instances_of_every_family() {
    let mut rng = StdRng::seed_from_u64(0x9E3779B97F4A7C15);
    for trial in 0..400 {
        let max_w = WEIGHT_RANGES[rng.random_range(0..4usize)];
        let (n, edges) = match trial % 4 {
            0 => {
                let (n, per_mille) = (rng.random_range(2..13usize), rng.random_range(300..1001u64));
                (n, gnp(&mut rng, n, per_mille, max_w))
            }
            1 => {
                let (n, avg_degree) = (rng.random_range(2..15usize), rng.random_range(2..7usize));
                (n, sparse_random(&mut rng, n, avg_degree, max_w))
            }
            2 => {
                let n = rng.random_range(1..15usize);
                (n, forest(&mut rng, n, max_w))
            }
            _ => {
                let cycles = rng.random_range(1..4usize);
                odd_cycle_cactus(&mut rng, cycles, max_w)
            }
        };
        if n > 14 {
            continue;
        }
        let m = max_weight_matching(n, &edges);
        assert!(m.is_valid());
        assert_eq!(
            m.total_weight,
            brute_force_max_weight_matching(n, &edges),
            "trial {trial}: n={n} edges={edges:?}"
        );
    }
}

/// The larger end of the sparse range, where the dense oracle is slow:
/// a handful of fixed instances up to n = 600.
#[test]
fn sparse_solver_equals_dense_up_to_600_vertices() {
    let mut rng = StdRng::seed_from_u64(0xD1B54A32D192ED03);
    for (n, avg_degree, max_w) in [
        (300, 2, 20),
        (300, 6, 3),
        (450, 3, 1000),
        (600, 3, 20),
        (600, 4, 1),
    ] {
        let edges = sparse_random(&mut rng, n, avg_degree, max_w);
        assert_same_as_dense(n, &edges, &mut rng, 1);
    }
}

/// All weights equal, on every family: every comparison is a tie, so the
/// matching is decided by scan order alone.
#[test]
fn sparse_solver_equals_dense_on_all_equal_weights() {
    let mut rng = StdRng::seed_from_u64(0xA0761D6478BD642F);
    for trial in 0..120 {
        let (n, mut edges) = match trial % 4 {
            0 => {
                let (n, per_mille) = (rng.random_range(2..32usize), rng.random_range(200..1001u64));
                (n, gnp(&mut rng, n, per_mille, 1))
            }
            1 => {
                let (n, avg_degree) = (rng.random_range(2..122usize), rng.random_range(2..7usize));
                (n, sparse_random(&mut rng, n, avg_degree, 1))
            }
            2 => {
                let n = rng.random_range(1..121usize);
                (n, forest(&mut rng, n, 1))
            }
            _ => {
                let cycles = rng.random_range(1..13usize);
                odd_cycle_cactus(&mut rng, cycles, 1)
            }
        };
        let w = [1, 7, u64::MAX][trial % 3];
        for e in &mut edges {
            e.2 = w;
        }
        assert_same_as_dense(n, &edges, &mut rng, 2);
    }
}

/// Every possible stopping point of a few instances, not a sample: the
/// partial matching after k polls agrees for every k.
#[test]
fn partial_matchings_agree_at_every_poll() {
    let mut rng = StdRng::seed_from_u64(0xE7037ED1A0B428DB);
    for _ in 0..6 {
        let (n, edges) = odd_cycle_cactus(&mut rng, 4, 3);
        let total = assert_same_as_dense(n, &edges, &mut rng, 0);
        for k in 0..=total {
            let sparse = run(max_weight_matching_budgeted, n, &edges, Some(k));
            let dense = run(dense_max_weight_matching_budgeted, n, &edges, Some(k));
            assert_eq!(
                sparse, dense,
                "stopped after {k} of {total} polls: edges={edges:?}"
            );
        }
    }
}

/// Memory is O(n + m): a 50 000-vertex path, whose matrix would be
/// 100 002² cells of 24 bytes (240 GB). Uniform weights pair the
/// vertices off from the low end; with the heavier edges on the odd
/// positions the optimum is those edges (any matching holds at most
/// ⌊n/2⌋ edges, and every vertex but the two ends is covered by a
/// heavy one).
#[test]
fn a_50_000_vertex_path_is_matched_in_linear_space() {
    let n = 50_000usize;
    let t0 = std::time::Instant::now();
    let uniform: Edges = (0..n - 1).map(|i| (i, i + 1, 5)).collect();
    let m = max_weight_matching(n, &uniform);
    assert!(m.is_valid());
    assert_eq!(m.num_pairs(), n / 2);
    assert_eq!(m.total_weight, 5 * (n as u64 / 2));
    assert_eq!(m.mate[0], Some(1));

    // light, heavy, light, ...: vertex 0 and vertex n-1 stay single
    let alternating: Edges = (0..n - 1)
        .map(|i| (i, i + 1, if i % 2 == 1 { 9 } else { 4 }))
        .collect();
    let m = max_weight_matching(n, &alternating);
    assert!(m.is_valid());
    assert_eq!(m.total_weight, 9 * (n as u64 / 2 - 1));
    assert_eq!((m.mate[0], m.mate[n - 1]), (None, None));
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(20),
        "a sparse instance must not cost matrix time (took {:?})",
        t0.elapsed()
    );
}
