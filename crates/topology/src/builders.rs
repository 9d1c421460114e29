//! Constructors for the regular network topologies OREGAMI targets.
//!
//! Processor numbering conventions match the task-graph family generators in
//! `oregami-graph::families`, so identity embeddings line up:
//!
//! * hypercube — processor index is the binary corner label, links flip bits;
//! * mesh/torus — row-major `(i, j) ↦ i·cols + j`;
//! * tree — 0-based heap order;
//! * butterfly — `(level, row) ↦ level·2^d + row`.

use crate::network::{Network, TopologyKind};

/// Boolean `d`-cube: `2^d` processors, links flip single address bits.
pub fn hypercube(d: usize) -> Network {
    assert!((1..=20).contains(&d), "hypercube dimension out of range");
    let n = 1u32 << d;
    let mut links = Vec::with_capacity(d << (d - 1));
    for i in 0..n {
        for b in 0..d {
            let j = i ^ (1 << b);
            if i < j {
                links.push((i, j));
            }
        }
    }
    Network::from_links(
        format!("hypercube({d})"),
        TopologyKind::Hypercube(d),
        n as usize,
        links,
    )
}

/// `rows × cols` 2-D mesh (no wrap-around).
pub fn mesh2d(rows: usize, cols: usize) -> Network {
    assert!(rows >= 1 && cols >= 1, "mesh dimensions must be positive");
    let id = |i: usize, j: usize| (i * cols + j) as u32;
    let mut links = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            if i + 1 < rows {
                links.push((id(i, j), id(i + 1, j)));
            }
            if j + 1 < cols {
                links.push((id(i, j), id(i, j + 1)));
            }
        }
    }
    Network::from_links(
        format!("mesh2d({rows}x{cols})"),
        TopologyKind::Mesh2D(rows, cols),
        rows * cols,
        links,
    )
}

/// `rows × cols` 2-D torus. Wrap links are only added along dimensions of
/// length > 2 (length-2 wrap would duplicate the mesh link).
pub fn torus2d(rows: usize, cols: usize) -> Network {
    assert!(rows >= 1 && cols >= 1, "torus dimensions must be positive");
    let id = |i: usize, j: usize| (i * cols + j) as u32;
    let mut links = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            if i + 1 < rows {
                links.push((id(i, j), id(i + 1, j)));
            } else if rows > 2 {
                links.push((id(i, j), id(0, j)));
            }
            if j + 1 < cols {
                links.push((id(i, j), id(i, j + 1)));
            } else if cols > 2 {
                links.push((id(i, j), id(i, 0)));
            }
        }
    }
    Network::from_links(
        format!("torus2d({rows}x{cols})"),
        TopologyKind::Torus2D(rows, cols),
        rows * cols,
        links,
    )
}

/// Cycle of `n` processors.
pub fn ring(n: usize) -> Network {
    assert!(n >= 3, "ring needs >= 3 processors");
    let links = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32))
        .collect();
    Network::from_links(format!("ring({n})"), TopologyKind::Ring(n), n, links)
}

/// Linear array (chain) of `n` processors.
pub fn chain(n: usize) -> Network {
    assert!(n >= 2, "chain needs >= 2 processors");
    let links = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    Network::from_links(format!("chain({n})"), TopologyKind::Chain(n), n, links)
}

/// Fully connected `n` processors.
pub fn complete(n: usize) -> Network {
    assert!(n >= 2, "complete network needs >= 2 processors");
    let mut links = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            links.push((i, j));
        }
    }
    Network::from_links(format!("complete({n})"), TopologyKind::Complete(n), n, links)
}

/// Star: processor 0 is the hub.
pub fn star(n: usize) -> Network {
    assert!(n >= 2, "star needs >= 2 processors");
    let links = (1..n as u32).map(|i| (0, i)).collect();
    Network::from_links(format!("star({n})"), TopologyKind::Star(n), n, links)
}

/// Full binary tree of height `h` (`2^(h+1) - 1` processors, 0-based heap
/// numbering).
pub fn full_binary_tree(h: usize) -> Network {
    let n = (1usize << (h + 1)) - 1;
    let mut links = Vec::with_capacity(n - 1);
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                links.push((i as u32, child as u32));
            }
        }
    }
    Network::from_links(
        format!("fullbinarytree({h})"),
        TopologyKind::FullBinaryTree(h),
        n,
        links,
    )
}

/// Butterfly with `d` levels (`(d+1)·2^d` processors).
pub fn butterfly(d: usize) -> Network {
    let cols = 1usize << d;
    let n = (d + 1) * cols;
    let id = |level: usize, r: usize| (level * cols + r) as u32;
    let mut links = Vec::with_capacity(2 * d * cols);
    for level in 0..d {
        for r in 0..cols {
            links.push((id(level, r), id(level + 1, r)));
            links.push((id(level, r), id(level + 1, r ^ (1 << level))));
        }
    }
    Network::from_links(
        format!("butterfly({d})"),
        TopologyKind::Butterfly(d),
        n,
        links,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ProcId;

    #[test]
    fn hypercube_counts_and_diameter() {
        let q3 = hypercube(3);
        assert_eq!(q3.num_procs(), 8);
        assert_eq!(q3.num_links(), 12);
        assert_eq!(q3.diameter(), Some(3));
        for p in 0..8 {
            assert_eq!(q3.degree(ProcId(p)), 3);
        }
    }

    #[test]
    fn mesh_counts() {
        let m = mesh2d(3, 4);
        assert_eq!(m.num_procs(), 12);
        assert_eq!(m.num_links(), 3 * 3 + 4 * 2); // 9 horizontal + 8 vertical
        assert_eq!(m.diameter(), Some(5));
    }

    #[test]
    fn torus_diameter_halves() {
        let t = torus2d(4, 4);
        assert_eq!(t.num_links(), 32);
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn ring_and_chain() {
        assert_eq!(ring(6).diameter(), Some(3));
        assert_eq!(chain(6).diameter(), Some(5));
    }

    #[test]
    fn complete_and_star() {
        assert_eq!(complete(5).num_links(), 10);
        assert_eq!(complete(5).diameter(), Some(1));
        assert_eq!(star(5).num_links(), 4);
        assert_eq!(star(5).diameter(), Some(2));
    }

    #[test]
    fn tree_counts() {
        let t = full_binary_tree(3);
        assert_eq!(t.num_procs(), 15);
        assert_eq!(t.num_links(), 14);
        assert_eq!(t.diameter(), Some(6));
    }

    #[test]
    fn butterfly_counts() {
        let b = butterfly(3);
        assert_eq!(b.num_procs(), 32);
        assert_eq!(b.num_links(), 48);
        assert!(b.is_connected());
    }

    #[test]
    fn every_builder_records_its_kind_and_connects() {
        for (n, kind) in [
            (hypercube(3), TopologyKind::Hypercube(3)),
            (mesh2d(2, 3), TopologyKind::Mesh2D(2, 3)),
            (torus2d(3, 3), TopologyKind::Torus2D(3, 3)),
            (ring(5), TopologyKind::Ring(5)),
            (chain(4), TopologyKind::Chain(4)),
            (complete(4), TopologyKind::Complete(4)),
            (star(4), TopologyKind::Star(4)),
            (full_binary_tree(2), TopologyKind::FullBinaryTree(2)),
            (butterfly(2), TopologyKind::Butterfly(2)),
        ] {
            assert_eq!(n.kind, kind);
            assert!(n.is_connected(), "{kind:?} must be connected");
        }
    }
}
