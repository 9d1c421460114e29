//! Generators for the "nameable" task-graph families (paper §4.1).
//!
//! Many parallel algorithms have well-known communication structures — rings,
//! meshes, hypercubes, full binary trees, binomial trees, butterflies — and a
//! LaRCS program may simply *declare* the family instead of (or in addition
//! to) spelling out the edges. MAPPER's canned-mapping library hashes on the
//! (family, topology) pair to look up a precomputed contraction/embedding.
//!
//! Every generator here produces a [`TaskGraph`] with a single communication
//! phase named `comm` whose edges all have unit volume, nodes labelled in the
//! family's standard scheme, and [`TaskGraph::family`] set.

use crate::ids::{PhaseId, TaskId};
use crate::task_graph::{TaskGraph, TaskNode};

/// A well-known graph family, with its size parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Cycle on `n` nodes: `i -> (i+1) mod n`.
    Ring(usize),
    /// Path on `n` nodes: `i -> i+1`.
    Chain(usize),
    /// `rows × cols` 2-D mesh, 4-neighbor.
    Mesh2D(usize, usize),
    /// `rows × cols` 2-D torus (wrap-around mesh).
    Torus2D(usize, usize),
    /// Boolean `d`-cube on `2^d` nodes; edges flip one bit.
    Hypercube(usize),
    /// Complete graph on `n` nodes.
    Complete(usize),
    /// Star: node 0 adjacent to nodes `1..n`.
    Star(usize),
    /// Full binary tree of height `h` (`2^(h+1) - 1` nodes), edges
    /// parent→child, nodes numbered level-order from 1 (heap order,
    /// stored 0-based).
    FullBinaryTree(usize),
    /// Binomial tree `B_k` on `2^k` nodes: node `i` is adjacent to
    /// `i ^ 2^j` for each bit `j` below `i`'s lowest set bit — equivalently,
    /// built by joining two `B_{k-1}`s by an edge between their roots.
    BinomialTree(usize),
    /// Butterfly with `d` levels: `(d+1) * 2^d` nodes; node `(l, r)` connects
    /// straight to `(l+1, r)` and cross to `(l+1, r ^ 2^l)`.
    Butterfly(usize),
    /// Chordal ring: a ring of `n` nodes plus chords `i -> (i + c) mod n`
    /// — the shape of the paper's n-body task graph (with `c = (n+1)/2`).
    ChordalRing(usize, usize),
}

impl Family {
    /// The family's display name (the canned-library hash key component).
    pub fn name(&self) -> &'static str {
        match self {
            Family::Ring(_) => "ring",
            Family::Chain(_) => "chain",
            Family::Mesh2D(..) => "mesh2d",
            Family::Torus2D(..) => "torus2d",
            Family::Hypercube(_) => "hypercube",
            Family::Complete(_) => "complete",
            Family::Star(_) => "star",
            Family::FullBinaryTree(_) => "fullbinarytree",
            Family::BinomialTree(_) => "binomialtree",
            Family::Butterfly(_) => "butterfly",
            Family::ChordalRing(..) => "chordalring",
        }
    }

    /// Number of nodes the family instance has.
    pub fn num_nodes(&self) -> usize {
        match *self {
            Family::Ring(n) | Family::Chain(n) | Family::Complete(n) | Family::Star(n) => n,
            Family::Mesh2D(r, c) | Family::Torus2D(r, c) => r * c,
            Family::Hypercube(d) => 1 << d,
            Family::FullBinaryTree(h) => (1 << (h + 1)) - 1,
            Family::BinomialTree(k) => 1 << k,
            Family::Butterfly(d) => (d + 1) << d,
            Family::ChordalRing(n, _) => n,
        }
    }

    /// Builds the task graph: standard labels, one unit-volume `comm` phase.
    pub fn build(&self) -> TaskGraph {
        let mut g = TaskGraph::new(self.name());
        g.family = Some(*self);
        let phase = g.add_phase("comm");
        self.add_nodes(&mut g);
        g.node_symmetric = matches!(
            self,
            Family::Ring(_)
                | Family::Torus2D(..)
                | Family::Hypercube(_)
                | Family::Complete(_)
                | Family::ChordalRing(..)
        );
        self.add_edges(&mut g, phase);
        debug_assert_eq!(g.num_tasks(), self.num_nodes());
        debug_assert!(g.validate().is_ok());
        g
    }

    /// The family's nodes in its standard labelling: `t[i][j]` for the
    /// meshes and tori (row-major) and `t[level][row]` for the butterfly,
    /// scalar `t[i]` for every other family.
    fn add_nodes(&self, g: &mut TaskGraph) {
        match *self {
            Family::Mesh2D(r, c) | Family::Torus2D(r, c) => {
                for i in 0..r {
                    for j in 0..c {
                        g.add_node(TaskNode::tuple("t", vec![i as i64, j as i64]));
                    }
                }
            }
            Family::Butterfly(d) => {
                for level in 0..=d {
                    for r in 0..1usize << d {
                        g.add_node(TaskNode::tuple("t", vec![level as i64, r as i64]));
                    }
                }
            }
            _ => g.add_scalar_nodes("t", self.num_nodes()),
        }
    }

    /// The family's unit-volume edges, all in `phase` except the chordal
    /// ring's chords, which get a second phase of their own.
    fn add_edges(&self, g: &mut TaskGraph, phase: PhaseId) {
        let t = TaskId::new;
        match *self {
            Family::Ring(n) => {
                assert!(n >= 3, "ring needs >= 3 nodes");
                for i in 0..n {
                    g.add_edge(phase, t(i), t((i + 1) % n), 1);
                }
            }
            Family::Chain(n) => {
                assert!(n >= 2, "chain needs >= 2 nodes");
                for i in 0..n - 1 {
                    g.add_edge(phase, t(i), t(i + 1), 1);
                }
            }
            Family::Mesh2D(r, c) | Family::Torus2D(r, c) => {
                assert!(r >= 1 && c >= 1, "mesh needs positive dimensions");
                let wrap = matches!(self, Family::Torus2D(..));
                let id = |i: usize, j: usize| t(i * c + j);
                for i in 0..r {
                    for j in 0..c {
                        if i + 1 < r {
                            g.add_edge(phase, id(i, j), id(i + 1, j), 1);
                        } else if wrap && r > 2 {
                            g.add_edge(phase, id(i, j), id(0, j), 1);
                        }
                        if j + 1 < c {
                            g.add_edge(phase, id(i, j), id(i, j + 1), 1);
                        } else if wrap && c > 2 {
                            g.add_edge(phase, id(i, j), id(i, 0), 1);
                        }
                    }
                }
            }
            Family::Hypercube(d) => {
                let n = 1usize << d;
                for i in 0..n {
                    for b in 0..d {
                        let j = i ^ (1 << b);
                        if i < j {
                            g.add_edge(phase, t(i), t(j), 1);
                        }
                    }
                }
            }
            Family::Complete(n) => {
                assert!(n >= 2, "complete graph needs >= 2 nodes");
                for i in 0..n {
                    for j in i + 1..n {
                        g.add_edge(phase, t(i), t(j), 1);
                    }
                }
            }
            Family::Star(n) => {
                assert!(n >= 2, "star needs >= 2 nodes");
                for i in 1..n {
                    g.add_edge(phase, t(0), t(i), 1);
                }
            }
            Family::FullBinaryTree(h) => {
                let n = (1usize << (h + 1)) - 1;
                // Heap numbering (0-based): children of i are 2i+1, 2i+2.
                for i in 0..n {
                    for child in [2 * i + 1, 2 * i + 2] {
                        if child < n {
                            g.add_edge(phase, t(i), t(child), 1);
                        }
                    }
                }
            }
            Family::BinomialTree(k) => {
                let n = 1usize << k;
                // B_k = two B_{k-1} joined at the roots: node i != 0 has
                // parent i with its highest set bit cleared.
                for i in 1..n {
                    let parent = i & !(1 << (usize::BITS - 1 - i.leading_zeros()));
                    g.add_edge(phase, t(parent), t(i), 1);
                }
            }
            Family::ChordalRing(n, c) => {
                assert!(n >= 3, "chordal ring needs >= 3 nodes");
                let c = c % n;
                assert!(c >= 2 && c != n - 1, "chord must differ from ring steps");
                for i in 0..n {
                    g.add_edge(phase, t(i), t((i + 1) % n), 1);
                }
                let chord = g.add_phase("chord");
                for i in 0..n {
                    g.add_edge(chord, t(i), t((i + c) % n), 1);
                }
            }
            Family::Butterfly(d) => {
                let cols = 1usize << d;
                let id = |level: usize, r: usize| t(level * cols + r);
                for level in 0..d {
                    for r in 0..cols {
                        g.add_edge(phase, id(level, r), id(level + 1, r), 1);
                        g.add_edge(phase, id(level, r), id(level + 1, r ^ (1 << level)), 1);
                    }
                }
            }
        }
    }

    /// Number of edges the family instance has (single phase).
    pub fn num_edges(&self) -> usize {
        match *self {
            Family::Ring(n) => n,
            Family::Chain(n) => n - 1,
            Family::Mesh2D(r, c) => r * (c - 1) + c * (r - 1),
            Family::Torus2D(r, c) => {
                // wrap edges only added along a dimension longer than 2
                let row_edges = if c > 2 { r * c } else { r * (c - 1) };
                let col_edges = if r > 2 { r * c } else { c * (r - 1) };
                row_edges + col_edges
            }
            Family::Hypercube(d) => d * (1 << (d - 1)),
            Family::Complete(n) => n * (n - 1) / 2,
            Family::Star(n) => n - 1,
            Family::FullBinaryTree(h) => (1 << (h + 1)) - 2,
            Family::BinomialTree(k) => (1 << k) - 1,
            Family::Butterfly(d) => d << (d + 1),
            Family::ChordalRing(n, _) => 2 * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(f: Family) {
        let g = f.build();
        assert_eq!(g.num_tasks(), f.num_nodes(), "{f:?} node count");
        assert_eq!(g.num_edges(), f.num_edges(), "{f:?} edge count");
        assert!(g.validate().is_ok());
        assert_eq!(g.family, Some(f));
    }

    #[test]
    fn all_families_consistent() {
        for f in [
            Family::Ring(8),
            Family::Chain(5),
            Family::Mesh2D(3, 4),
            Family::Torus2D(4, 4),
            Family::Torus2D(2, 5),
            Family::Hypercube(4),
            Family::Complete(6),
            Family::Star(7),
            Family::FullBinaryTree(3),
            Family::BinomialTree(4),
            Family::Butterfly(3),
            Family::ChordalRing(15, 8),
        ] {
            check(f);
        }
    }

    /// Every family instance of 2..=64 nodes that structural recognition
    /// tries as a candidate.
    fn recognition_candidates() -> Vec<Family> {
        let mut out = Vec::new();
        for n in 2..=64usize {
            if n >= 3 {
                out.push(Family::Ring(n));
            }
            out.extend([Family::Chain(n), Family::Complete(n), Family::Star(n)]);
            for r in (2..=n).filter(|r| n % r == 0 && r * r <= n) {
                out.extend([Family::Mesh2D(r, n / r), Family::Torus2D(r, n / r)]);
            }
        }
        for d in 1..=6 {
            out.extend([Family::Hypercube(d), Family::BinomialTree(d)]);
        }
        out.extend((1..=5).map(Family::FullBinaryTree));
        out.extend((1..=3).map(Family::Butterfly));
        out
    }

    #[test]
    fn closed_form_edge_count_is_half_the_collapsed_arc_count() {
        // recognition skips a candidate on `2 * num_edges` before building
        // it, which is sound only if that is the built graph's arc count
        for f in recognition_candidates() {
            let g = f.build();
            let w = g.collapse();
            let csr = crate::Csr::undirected(g.num_tasks(), w.edges().iter().map(|e| (e.u, e.v)));
            assert_eq!(2 * f.num_edges(), csr.num_arcs(), "{f:?}");
        }
    }

    #[test]
    fn chordal_ring_matches_nbody_shape() {
        let g = Family::ChordalRing(15, 8).build();
        assert_eq!(g.num_phases(), 2); // ring + chord colors
        assert!(g.node_symmetric);
        for e in &g.comm_phases[1].edges {
            assert_eq!(e.dst.0, (e.src.0 + 8) % 15);
        }
    }

    #[test]
    fn ring_edges_wrap() {
        let g = Family::Ring(4).build();
        let edges: Vec<(u32, u32)> = g.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
    }

    #[test]
    fn binomial_tree_structure() {
        // B_3: parent of i clears its highest bit.
        let g = Family::BinomialTree(3).build();
        let mut edges: Vec<(u32, u32)> = g.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 6), (3, 7)]
        );
    }

    #[test]
    fn hypercube_degree_is_dimension() {
        let g = Family::Hypercube(3).build();
        let w = g.collapse();
        for i in 0..8 {
            assert_eq!(w.neighbors(i).len(), 3);
        }
    }

    #[test]
    fn full_binary_tree_is_heap_shaped() {
        let g = Family::FullBinaryTree(2).build(); // 7 nodes
        let edges: Vec<(u32, u32)> = g.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(0, 2)));
        assert!(edges.contains(&(2, 6)));
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn butterfly_levels_connect_straight_and_cross() {
        let g = Family::Butterfly(2).build(); // 3 levels of 4
        assert_eq!(g.num_tasks(), 12);
        let edges: Vec<(u32, u32)> = g.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        // level 0 row 1 -> level 1 row 1 (straight) and row 0 (cross, bit 0)
        assert!(edges.contains(&(1, 5)));
        assert!(edges.contains(&(1, 4)));
    }

    #[test]
    fn torus_small_dims_avoid_duplicate_wrap() {
        // 2xN torus: wrap along the length-2 dimension would duplicate the
        // mesh edge, so it is suppressed.
        let g = Family::Torus2D(2, 4).build();
        let w = g.collapse();
        // Every edge distinct: collapse() keeps count if duplicates merge,
        // so num_edges of collapse equals declared edges.
        assert_eq!(w.num_edges(), Family::Torus2D(2, 4).num_edges());
    }
}
