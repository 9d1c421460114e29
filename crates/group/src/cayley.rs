//! The regular-action test and the Cayley-graph correspondence.
//!
//! The Cayley graph `CG` of a group `G` with generator set `C` has the
//! elements of `G` as nodes and an edge `a → b` (colored by generator `c`)
//! whenever `a · c = b`. The paper's key observation: `CG` is isomorphic to
//! the task graph `T` precisely when the action of `G` on the task set `X`
//! is **regular**, which holds iff `|G| = |X|` and all elements of `G` have
//! equal-length cycles. Under the correspondence `g ↔ g(x₀)` (with `x₀` the
//! smallest task label), generator `cᵢ`'s Cayley edges map exactly onto
//! communication phase `i`'s task edges.

use crate::group::PermGroup;

/// Whether the group's action on its points is regular: `|G| = |X|`,
/// the action is transitive, and every element's cycles have equal length
/// (the paper's criterion).
pub fn is_regular_action(g: &PermGroup) -> bool {
    g.order() == g.degree()
        && g.is_transitive()
        && g.elements().iter().all(|e| e.has_equal_cycle_lengths())
}

/// The correspondence `g ↔ g(x₀)` between element indices and task labels
/// for a regularly-acting group: `result[element_index] = task`.
/// `x0` is the smallest point, 0.
///
/// Returns `None` when the action is not regular (the correspondence is
/// only a bijection in that case).
pub fn element_to_task(g: &PermGroup) -> Option<Vec<u32>> {
    if !is_regular_action(g) {
        return None;
    }
    let map: Vec<u32> = g.elements().iter().map(|e| e.apply(0)).collect();
    // Regularity guarantees bijectivity; double-check in debug builds.
    debug_assert_eq!(
        {
            let mut s = map.clone();
            s.sort_unstable();
            s
        },
        (0..g.degree() as u32).collect::<Vec<_>>()
    );
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::Perm;

    /// Builds the Cayley graph of `g` under its generators: for each generator
    /// `c` (in order), the edge list `a → a·c` over element indices. Returned
    /// as one edge set per generator — the same "colored" shape as a task
    /// graph's communication phases.
    fn cayley_graph(g: &PermGroup) -> Vec<Vec<(usize, usize)>> {
        g.generators()
            .iter()
            .map(|c| {
                let ci = g
                    .index_of(c)
                    .expect("generator must belong to its own closure");
                (0..g.order()).map(|a| (a, g.product(a, ci))).collect()
            })
            .collect()
    }

    fn broadcast8() -> PermGroup {
        let gens = vec![
            Perm::from_cycles(8, &[&[0, 1, 2, 3, 4, 5, 6, 7]]).unwrap(),
            Perm::from_cycles(8, &[&[0, 2, 4, 6], &[1, 3, 5, 7]]).unwrap(),
            Perm::from_cycles(8, &[&[0, 4], &[1, 5], &[2, 6], &[3, 7]]).unwrap(),
        ];
        PermGroup::close_with_bound(&gens, 8).unwrap()
    }

    #[test]
    fn broadcast_action_is_regular() {
        assert!(is_regular_action(&broadcast8()));
    }

    #[test]
    fn s3_action_is_not_regular() {
        let gens = vec![
            Perm::from_cycles(3, &[&[0, 1]]).unwrap(),
            Perm::from_cycles(3, &[&[1, 2]]).unwrap(),
        ];
        let g = PermGroup::close(&gens).unwrap();
        assert!(!is_regular_action(&g)); // |G| = 6 != 3 = |X|
        assert_eq!(element_to_task(&g), None);
    }

    #[test]
    fn intransitive_rejected() {
        // Z2 acting on 4 points with two fixed: |G| = 2 != 4.
        let gens = vec![Perm::from_cycles(4, &[&[0, 1]]).unwrap()];
        let g = PermGroup::close(&gens).unwrap();
        assert!(!is_regular_action(&g));
    }

    #[test]
    fn cayley_edges_match_task_edges_under_correspondence() {
        let g = broadcast8();
        let to_task = element_to_task(&g).unwrap();
        let cg = cayley_graph(&g);
        assert_eq!(cg.len(), 3);
        // Phase 0 (comm1 = +1 mod 8): task edges are t -> (t+1) mod 8.
        for &(a, b) in &cg[0] {
            let (ta, tb) = (to_task[a], to_task[b]);
            assert_eq!(tb, (ta + 1) % 8);
        }
        // Phase 1 (comm2 = +2): t -> (t+2) mod 8.
        for &(a, b) in &cg[1] {
            assert_eq!(to_task[b], (to_task[a] + 2) % 8);
        }
        // Phase 2 (comm3 = +4): t -> (t+4) mod 8.
        for &(a, b) in &cg[2] {
            assert_eq!(to_task[b], (to_task[a] + 4) % 8);
        }
    }

    #[test]
    fn cayley_graph_is_regular_out_degree_one_per_generator() {
        let g = broadcast8();
        for edges in cayley_graph(&g) {
            assert_eq!(edges.len(), g.order());
            let mut outs = vec![0; g.order()];
            for (a, _) in edges {
                outs[a] += 1;
            }
            assert!(outs.iter().all(|&d| d == 1));
        }
    }
}
