//! Breadth-first traversal utilities: distances, connected components,
//! bipartiteness.
//!
//! These back several analyses in the toolchain: topology distance matrices,
//! NN-Embed's frontier expansion, and the regularity checks in the LaRCS
//! analyzer.

use crate::csr::Csr;

/// BFS distances from `src`; unreachable nodes get `u32::MAX`.
pub fn bfs_distances(g: &Csr, src: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_nodes()];
    // every node enters the queue at most once, so a vector read from the
    // front by a cursor is the whole FIFO, with no wrap-around or regrowth
    let mut queue = Vec::with_capacity(g.num_nodes());
    dist[src] = 0;
    queue.push(src as u32);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u as usize];
        for &v in g.neighbors(u as usize) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
    dist
}

/// Connected components (of the adjacency as given — pass an undirected CSR
/// for the usual notion). Returns `(component_of, count)`.
pub fn components(g: &Csr) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if comp[v] == usize::MAX {
                    comp[v] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Whether the graph is connected (every node reachable from node 0;
/// trivially true for `n <= 1`).
pub fn is_connected(g: &Csr) -> bool {
    components(g).1 <= 1
}

/// 2-colors the graph if bipartite, returning the side of each node;
/// `None` if an odd cycle exists.
pub fn bipartition(g: &Csr) -> Option<Vec<bool>> {
    let n = g.num_nodes();
    let mut side = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if side[start].is_some() {
            continue;
        }
        side[start] = Some(false);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let su = side[u].unwrap();
            for &v in g.neighbors(u) {
                let v = v as usize;
                match side[v] {
                    None => {
                        side[v] = Some(!su);
                        queue.push_back(v);
                    }
                    Some(sv) if sv == su => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(side.into_iter().map(|s| s.unwrap()).collect())
}

/// Graph diameter via all-pairs BFS (∞-free only for connected graphs;
/// returns `None` when disconnected). `O(V · E)` — fine for the network
/// sizes OREGAMI targets.
pub fn diameter(g: &Csr) -> Option<u32> {
    let mut best = 0;
    for u in 0..g.num_nodes() {
        let d = bfs_distances(g, u);
        for &x in &d {
            if x == u32::MAX {
                return None;
            }
            best = best.max(x);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Family;

    fn csr_of(f: Family) -> Csr {
        let g = f.build();
        let edges: Vec<(usize, usize)> = g
            .all_edges()
            .map(|(_, e)| (e.src.index(), e.dst.index()))
            .collect();
        Csr::undirected(g.num_tasks(), edges.iter().copied())
    }

    #[test]
    fn ring_distances() {
        let g = csr_of(Family::Ring(8));
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[4], 4);
        assert_eq!(d[7], 1);
    }

    #[test]
    fn hypercube_diameter_is_dimension() {
        assert_eq!(diameter(&csr_of(Family::Hypercube(4))), Some(4));
    }

    #[test]
    fn mesh_diameter() {
        assert_eq!(diameter(&csr_of(Family::Mesh2D(3, 5))), Some(6));
    }

    #[test]
    fn components_of_disconnected() {
        let g = Csr::undirected(5, [(0, 1), (2, 3)].into_iter());
        let (comp, count) = components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[4]);
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn hypercube_is_bipartite_odd_ring_is_not() {
        assert!(bipartition(&csr_of(Family::Hypercube(3))).is_some());
        assert!(bipartition(&csr_of(Family::Ring(5))).is_none());
        let sides = bipartition(&csr_of(Family::Ring(6))).unwrap();
        assert_eq!(sides.iter().filter(|&&s| s).count(), 3);
    }

    #[test]
    fn all_families_connected() {
        for f in [
            Family::Ring(6),
            Family::Chain(4),
            Family::Mesh2D(2, 3),
            Family::Torus2D(3, 3),
            Family::Hypercube(3),
            Family::Complete(5),
            Family::Star(5),
            Family::FullBinaryTree(3),
            Family::BinomialTree(4),
            Family::Butterfly(2),
        ] {
            assert!(is_connected(&csr_of(f)), "{f:?} should be connected");
        }
    }
}
