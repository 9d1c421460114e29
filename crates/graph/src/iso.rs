//! Small-graph isomorphism testing.
//!
//! The group-theoretic contraction (paper §4.2.2) needs to verify that the
//! Cayley graph `CG` built from the communication generators is isomorphic to
//! the task graph `T` — the paper proves a cheap criterion (regular action),
//! and this module provides the direct check used to validate it in tests and
//! to recognise nameable families structurally when they are not declared.
//!
//! The algorithm is a straightforward backtracking search with degree-
//! sequence pruning (a simplified VF2). It is exponential in the worst case
//! and intended for the small graphs these checks run on (tens of nodes).

use crate::csr::Csr;

/// Outcome of a budgeted isomorphism search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsoResult {
    /// An isomorphism was found (node mapping `a -> b`).
    Found(Vec<usize>),
    /// The search space was exhausted: provably not isomorphic.
    NotIsomorphic,
    /// The step budget ran out before an answer (regular graphs can make
    /// the backtracking blow up); treat as "unknown".
    BudgetExhausted,
}

/// Attempts to find an isomorphism from `a` to `b` (both as undirected,
/// simple adjacencies), giving up after `max_steps` candidate placements:
/// callers that merely *recognise* structure (the canned library) prefer a
/// fast "unknown" over an exponential stall.
pub fn find_isomorphism_budgeted(a: &Csr, b: &Csr, max_steps: u64) -> IsoResult {
    let n = a.num_nodes();
    if n != b.num_nodes() || a.num_arcs() != b.num_arcs() {
        return IsoResult::NotIsomorphic;
    }
    let mut deg_a: Vec<usize> = (0..n).map(|u| a.degree(u)).collect();
    let mut deg_b: Vec<usize> = (0..n).map(|u| b.degree(u)).collect();
    {
        let mut sa = deg_a.clone();
        let mut sb = deg_b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        if sa != sb {
            return IsoResult::NotIsomorphic;
        }
    }
    // Order the nodes of `a` by decreasing degree so constrained nodes map
    // first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(deg_a[u]));

    let mut mapping = vec![usize::MAX; n]; // a -> b
    let mut used = vec![false; n]; // b side
    let mut budget = max_steps;
    match backtrack(
        a, b, &order, 0, &mut mapping, &mut used, &mut deg_a, &mut deg_b, &mut budget,
    ) {
        Some(true) => IsoResult::Found(mapping),
        Some(false) => IsoResult::NotIsomorphic,
        None => IsoResult::BudgetExhausted,
    }
}

/// `Some(true)` found, `Some(false)` exhausted the space, `None` ran out
/// of budget.
#[allow(clippy::too_many_arguments)]
fn backtrack(
    a: &Csr,
    b: &Csr,
    order: &[usize],
    depth: usize,
    mapping: &mut Vec<usize>,
    used: &mut Vec<bool>,
    deg_a: &mut [usize],
    deg_b: &mut [usize],
    budget: &mut u64,
) -> Option<bool> {
    if depth == order.len() {
        return Some(true);
    }
    let u = order[depth];
    'candidates: for v in 0..b.num_nodes() {
        if used[v] || deg_a[u] != deg_b[v] {
            continue;
        }
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        // Consistency: every already-mapped neighbor of u must map to a
        // neighbor of v, and u must not be adjacent to the image of a
        // non-neighbor (checked by counting).
        let mut mapped_neighbors = 0;
        for &w in a.neighbors(u) {
            let w = w as usize;
            if mapping[w] != usize::MAX {
                mapped_neighbors += 1;
                if !b.neighbors(v).contains(&(mapping[w] as u32)) {
                    continue 'candidates;
                }
            }
        }
        // v must have exactly the same number of already-mapped neighbors,
        // otherwise some mapped node is adjacent to v but not to u's image.
        let v_mapped_neighbors = b
            .neighbors(v)
            .iter()
            .filter(|&&w| used[w as usize])
            .count();
        if v_mapped_neighbors != mapped_neighbors {
            continue;
        }
        mapping[u] = v;
        used[v] = true;
        match backtrack(a, b, order, depth + 1, mapping, used, deg_a, deg_b, budget) {
            Some(true) => return Some(true),
            Some(false) => {}
            None => return None,
        }
        mapping[u] = usize::MAX;
        used[v] = false;
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Family;

    /// The unbudgeted search's node mapping `a -> b`, if one exists.
    fn find_isomorphism(a: &Csr, b: &Csr) -> Option<Vec<usize>> {
        match find_isomorphism_budgeted(a, b, u64::MAX) {
            IsoResult::Found(m) => Some(m),
            _ => None,
        }
    }

    fn are_isomorphic(a: &Csr, b: &Csr) -> bool {
        find_isomorphism(a, b).is_some()
    }

    fn csr_of(f: Family) -> Csr {
        let g = f.build();
        let edges: Vec<(usize, usize)> = g
            .all_edges()
            .map(|(_, e)| (e.src.index(), e.dst.index()))
            .collect();
        Csr::undirected(g.num_tasks(), edges.iter().copied())
    }

    #[test]
    fn ring4_equals_torus_like_cycle() {
        // C4 under two different labelings.
        let a = Csr::undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)].into_iter());
        let b = Csr::undirected(4, [(0, 2), (2, 1), (1, 3), (3, 0)].into_iter());
        let m = find_isomorphism(&a, &b).expect("isomorphic");
        // Verify the mapping is edge-preserving.
        for u in 0..4 {
            for &v in a.neighbors(u) {
                assert!(b.neighbors(m[u]).contains(&(m[v as usize] as u32)));
            }
        }
    }

    #[test]
    fn hypercube3_vs_ring8_not_isomorphic() {
        assert!(!are_isomorphic(
            &csr_of(Family::Hypercube(3)),
            &csr_of(Family::Ring(8))
        ));
    }

    #[test]
    fn q2_is_c4() {
        assert!(are_isomorphic(
            &csr_of(Family::Hypercube(2)),
            &csr_of(Family::Ring(4))
        ));
    }

    #[test]
    fn torus_4x4_is_vertex_transitive_relabel() {
        // Shift every label of a 4x4 torus by one row: still isomorphic.
        let g = Family::Torus2D(4, 4).build();
        let edges: Vec<(usize, usize)> = g
            .all_edges()
            .map(|(_, e)| (e.src.index(), e.dst.index()))
            .collect();
        let a = Csr::undirected(16, edges.iter().copied());
        let shifted: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(u, v)| ((u + 4) % 16, (v + 4) % 16))
            .collect();
        let b = Csr::undirected(16, shifted.iter().copied());
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn different_sizes_rejected_quickly() {
        assert!(!are_isomorphic(
            &csr_of(Family::Ring(6)),
            &csr_of(Family::Ring(8))
        ));
    }

    #[test]
    fn budget_exhaustion_reported() {
        // two large 4-regular graphs: a tiny budget must give up cleanly
        let a = csr_of(Family::Torus2D(6, 6));
        let b = csr_of(Family::Torus2D(6, 6));
        match find_isomorphism_budgeted(&a, &b, 3) {
            IsoResult::BudgetExhausted => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // with a real budget the identity pair resolves
        assert!(matches!(
            find_isomorphism_budgeted(&a, &b, u64::MAX),
            IsoResult::Found(_)
        ));
    }

    #[test]
    fn same_degree_sequence_different_structure() {
        // Two 6-node cubic graphs: K_{3,3} vs the prism (C3 x K2).
        // Both 3-regular; K33 is bipartite and triangle-free, prism has
        // triangles — not isomorphic.
        let k33 = Csr::undirected(
            6,
            [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)].into_iter(),
        );
        let prism = Csr::undirected(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)].into_iter(),
        );
        assert!(!are_isomorphic(&k33, &prism));
        assert!(are_isomorphic(&k33, &k33));
    }
}
