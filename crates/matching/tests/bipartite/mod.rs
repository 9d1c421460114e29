//! The bipartite matchers MM-Route ran before it matched classes of
//! messages: Hopcroft–Karp maximum matching and greedy maximal matching
//! over one left vertex per message. Kept test-side as the oracle
//! `tests/mm_route_oracle/` rebuilds every matching round with, which the
//! class-level router must equal message for message.
//!
//! MM-Route (paper §4.4) builds, for each communication phase and each hop,
//! a bipartite graph `G = (X, Y, E)` where `X` is the set of yet-unrouted
//! message edges and `Y` the set of network links that can serve as the next
//! hop, then repeatedly extracts a *maximal matching* — each round assigns a
//! set of messages to pairwise-distinct links, which is what bounds link
//! contention. The paper quotes `O(|X|²|Y|)` for the simple maximal-matching
//! formulation; the greedy maximal matcher here is that formulation, and
//! Hopcroft–Karp (`O(E√V)`) maximises each round.

// Each test binary that includes this file uses a different part of it.
#![allow(dead_code)]

/// A matching in a bipartite graph with `nx` left and `ny` right vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteMatching {
    /// `left_to_right[x]` = matched right vertex of left `x`, or `None`.
    pub left_to_right: Vec<Option<usize>>,
    /// `right_to_left[y]` = matched left vertex of right `y`, or `None`.
    pub right_to_left: Vec<Option<usize>>,
}

impl BipartiteMatching {
    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.left_to_right.iter().flatten().count()
    }

    /// Consistency of the two directions.
    pub fn is_valid(&self) -> bool {
        self.left_to_right
            .iter()
            .enumerate()
            .all(|(x, m)| m.is_none_or(|y| self.right_to_left[y] == Some(x)))
            && self
                .right_to_left
                .iter()
                .enumerate()
                .all(|(y, m)| m.is_none_or(|x| self.left_to_right[x] == Some(y)))
    }
}

/// Maximum bipartite matching by Hopcroft–Karp. `adj[x]` lists the right
/// vertices adjacent to left vertex `x`. `O(E√V)`.
pub fn hopcroft_karp(nx: usize, ny: usize, adj: &[Vec<usize>]) -> BipartiteMatching {
    assert_eq!(adj.len(), nx, "adjacency must cover every left vertex");
    const INF: u32 = u32::MAX;
    let mut mx: Vec<Option<usize>> = vec![None; nx];
    let mut my: Vec<Option<usize>> = vec![None; ny];
    let mut dist = vec![INF; nx];
    let mut queue = std::collections::VecDeque::new();

    loop {
        // BFS layering from free left vertices.
        queue.clear();
        for x in 0..nx {
            if mx[x].is_none() {
                dist[x] = 0;
                queue.push_back(x);
            } else {
                dist[x] = INF;
            }
        }
        let mut found = false;
        while let Some(x) = queue.pop_front() {
            for &y in &adj[x] {
                debug_assert!(y < ny, "right vertex out of range");
                match my[y] {
                    None => found = true,
                    Some(x2) => {
                        if dist[x2] == INF {
                            dist[x2] = dist[x] + 1;
                            queue.push_back(x2);
                        }
                    }
                }
            }
        }
        if !found {
            break;
        }
        // DFS augmentation along layered paths.
        fn try_augment(
            x: usize,
            adj: &[Vec<usize>],
            mx: &mut [Option<usize>],
            my: &mut [Option<usize>],
            dist: &mut [u32],
        ) -> bool {
            for i in 0..adj[x].len() {
                let y = adj[x][i];
                let ok = match my[y] {
                    None => true,
                    Some(x2) => dist[x2] == dist[x] + 1 && try_augment(x2, adj, mx, my, dist),
                };
                if ok {
                    mx[x] = Some(y);
                    my[y] = Some(x);
                    return true;
                }
            }
            dist[x] = u32::MAX;
            false
        }
        for x in 0..nx {
            if mx[x].is_none() {
                try_augment(x, adj, &mut mx, &mut my, &mut dist);
            }
        }
    }
    let m = BipartiteMatching {
        left_to_right: mx,
        right_to_left: my,
    };
    debug_assert!(m.is_valid());
    m
}

/// Greedy maximal bipartite matching: scans left vertices in order and
/// takes the first free neighbor. `O(E)`. The result is maximal but can be
/// half the maximum.
pub fn greedy_bipartite_matching(nx: usize, ny: usize, adj: &[Vec<usize>]) -> BipartiteMatching {
    assert_eq!(adj.len(), nx, "adjacency must cover every left vertex");
    let mut mx: Vec<Option<usize>> = vec![None; nx];
    let mut my: Vec<Option<usize>> = vec![None; ny];
    for x in 0..nx {
        for &y in &adj[x] {
            debug_assert!(y < ny, "right vertex out of range");
            if my[y].is_none() {
                mx[x] = Some(y);
                my[y] = Some(x);
                break;
            }
        }
    }
    BipartiteMatching {
        left_to_right: mx,
        right_to_left: my,
    }
}
