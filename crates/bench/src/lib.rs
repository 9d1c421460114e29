//! Deterministic workload generators shared by the end-to-end benchmark
//! (`e2e_bench/`, the repo's one timing harness) and the `figures`
//! binary (which regenerates every table/figure of the paper — see
//! `DESIGN.md` §3 for the experiment index).

use oregami::graph::{TaskGraph, TaskId, WeightedGraph};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Deterministic RNG for reproducible benchmark workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A random weighted communication graph: `n` nodes, edge probability
/// `density` percent, weights in `1..=max_w`.
pub fn random_weighted_graph(n: usize, density: u32, max_w: u64, seed: u64) -> WeightedGraph {
    let mut r = rng(seed);
    let mut g = WeightedGraph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if r.random_range(0..100u32) < density {
                g.add_or_accumulate(u, v, r.random_range(1..=max_w));
            }
        }
    }
    g
}

/// The perfect-broadcast task graph on `n` tasks (`n` a power of two):
/// one phase per power-of-two stride — the group-theoretic workload family
/// of the paper's Fig 4, scaled.
pub fn perfect_broadcast(n: usize) -> TaskGraph {
    assert!(n.is_power_of_two() && n >= 2);
    let mut g = TaskGraph::new(format!("broadcast{n}"));
    g.add_scalar_nodes("task", n);
    let mut step = 1;
    while step < n {
        let p = g.add_phase(format!("comm{step}"));
        for i in 0..n {
            g.add_edge(p, TaskId::new(i), TaskId::new((i + step) % n), 1);
        }
        step *= 2;
    }
    g
}

/// The chordal phase of the `n`-body problem as a standalone task graph
/// (the paper's Fig 6 routing workload).
pub fn nbody_chordal(n: usize) -> TaskGraph {
    let mut g = TaskGraph::new(format!("nbody{n}-chordal"));
    g.add_scalar_nodes("body", n);
    let p = g.add_phase("chordal");
    let half = n.div_ceil(2);
    for i in 0..n {
        g.add_edge(p, TaskId::new(i), TaskId::new((i + half) % n), 1);
    }
    g
}

/// A `rows x cols` 2-D grid stencil task graph: one phase, unit-weight
/// edges between 4-neighbors. The canonical "huge but structured"
/// workload for the multilevel mapper (100k tasks = a 317x317 grid).
pub fn grid_tasks(rows: usize, cols: usize) -> TaskGraph {
    let n = rows * cols;
    let mut g = TaskGraph::new(format!("grid{rows}x{cols}"));
    g.add_scalar_nodes("cell", n);
    let p = g.add_phase("halo");
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            if c + 1 < cols {
                g.add_edge(p, TaskId::new(u), TaskId::new(u + 1), 1);
            }
            if r + 1 < rows {
                g.add_edge(p, TaskId::new(u), TaskId::new(u + cols), 1);
            }
        }
    }
    g
}

/// Like [`grid_tasks`] but with wraparound edges in both dimensions, so
/// every task has exactly four neighbors (a torus stencil).
pub fn torus_tasks(rows: usize, cols: usize) -> TaskGraph {
    assert!(rows >= 2 && cols >= 2, "torus needs at least 2x2");
    let n = rows * cols;
    let mut g = TaskGraph::new(format!("torus{rows}x{cols}"));
    g.add_scalar_nodes("cell", n);
    let p = g.add_phase("halo");
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            // 2-wide dimensions would otherwise emit each edge twice.
            if right != u && !(cols == 2 && c == 1) {
                g.add_edge(p, TaskId::new(u), TaskId::new(right), 1);
            }
            if down != u && !(rows == 2 && r == 1) {
                g.add_edge(p, TaskId::new(u), TaskId::new(down), 1);
            }
        }
    }
    g
}

/// A random geometric task graph: `n` points in the unit square,
/// unit-weight edges between pairs closer than `radius`. Uses a cell
/// grid so construction stays near-linear even at 1M nodes — pick
/// `radius ~ sqrt(deg / (n * pi))` for average degree `deg`.
pub fn random_geometric_tasks(n: usize, radius: f64, seed: u64) -> TaskGraph {
    let mut r = rng(seed);
    let mut unit = move || (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (unit(), unit())).collect();
    let cells_per_side = ((1.0 / radius).floor() as usize).clamp(1, 4096);
    let cell = |x: f64| ((x * cells_per_side as f64) as usize).min(cells_per_side - 1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets[cell(y) * cells_per_side + cell(x)].push(i as u32);
    }
    let mut g = TaskGraph::new(format!("rgg{n}"));
    g.add_scalar_nodes("pt", n);
    let p = g.add_phase("prox");
    let r2 = radius * radius;
    for cy in 0..cells_per_side {
        for cx in 0..cells_per_side {
            for &u in &buckets[cy * cells_per_side + cx] {
                let (ux, uy) = pts[u as usize];
                // scan this cell and the 4 forward neighbor cells so each
                // pair is examined exactly once
                for (dy, dx) in [(0i64, 0i64), (0, 1), (1, -1), (1, 0), (1, 1)] {
                    let (ny, nx) = (cy as i64 + dy, cx as i64 + dx);
                    if ny < 0 || nx < 0 {
                        continue;
                    }
                    let (ny, nx) = (ny as usize, nx as usize);
                    if ny >= cells_per_side || nx >= cells_per_side {
                        continue;
                    }
                    for &v in &buckets[ny * cells_per_side + nx] {
                        if (dy, dx) == (0, 0) && v <= u {
                            continue;
                        }
                        let (vx, vy) = pts[v as usize];
                        let (ex, ey) = (ux - vx, uy - vy);
                        if ex * ex + ey * ey <= r2 {
                            g.add_edge(p, TaskId::new(u as usize), TaskId::new(v as usize), 1);
                        }
                    }
                }
            }
        }
    }
    g
}

/// Random permutation traffic on `n` tasks (one phase, unit volumes).
pub fn random_permutation_traffic(n: usize, seed: u64) -> TaskGraph {
    let mut r = rng(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, r.random_range(0..=i));
    }
    let mut g = TaskGraph::new("perm");
    g.add_scalar_nodes("t", n);
    let p = g.add_phase("x");
    for (i, &d) in perm.iter().enumerate() {
        if i != d {
            g.add_edge(p, TaskId::new(i), TaskId::new(d), 1);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = random_weighted_graph(10, 50, 20, 7);
        let b = random_weighted_graph(10, 50, 20, 7);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), random_weighted_graph(10, 50, 20, 8).edges());
    }

    #[test]
    fn broadcast_has_log_phases() {
        let g = perfect_broadcast(16);
        assert_eq!(g.num_phases(), 4);
        assert_eq!(g.num_edges(), 64);
    }

    #[test]
    fn chordal_matches_paper() {
        let g = nbody_chordal(15);
        for e in &g.comm_phases[0].edges {
            assert_eq!(e.dst.0, (e.src.0 + 8) % 15);
        }
    }

    #[test]
    fn grid_and_torus_have_expected_degree_sums() {
        let g = grid_tasks(5, 7);
        assert_eq!(g.num_tasks(), 35);
        // interior edges only: r*(c-1) + (r-1)*c
        assert_eq!(g.num_edges(), 5 * 6 + 4 * 7);
        let t = torus_tasks(5, 7);
        assert_eq!(t.num_edges(), 2 * 35); // every node exactly 4 neighbors
        let t2 = torus_tasks(2, 2); // degenerate wraps collapse, no dup edges
        assert_eq!(t2.num_edges(), 4);
    }

    #[test]
    fn geometric_graph_is_deterministic_and_local() {
        let a = random_geometric_tasks(500, 0.08, 11);
        let b = random_geometric_tasks(500, 0.08, 11);
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.num_edges() > 0);
        assert_ne!(
            a.num_edges(),
            random_geometric_tasks(500, 0.08, 12).num_edges()
        );
    }

    #[test]
    fn permutation_traffic_is_loop_free() {
        let g = random_permutation_traffic(16, 3);
        let mut outs = [0; 16];
        for e in &g.comm_phases[0].edges {
            outs[e.src.index()] += 1;
            assert_ne!(e.src, e.dst);
        }
        assert!(outs.iter().all(|&d| d <= 1));
    }
}
