//! Compressed sparse row adjacency.
//!
//! A compact, cache-friendly adjacency structure built once from an edge
//! list and then queried read-only. Used by the traversal routines and by
//! the topology crate's BFS route-table construction, where the per-query
//! cost matters (all-pairs BFS is `O(V · E)`).

use std::fmt;

/// Typed construction failure for [`Csr`].
///
/// The library contract is never-panic on untrusted input: callers that
/// cannot pre-validate their edge lists use the `try_` constructors and
/// propagate this error instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// An edge endpoint `u` or `v` was `>= n`.
    EndpointOutOfRange { u: usize, v: usize, n: usize },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::EndpointOutOfRange { u, v, n } => write!(
                f,
                "edge endpoint out of range: ({u}, {v}) with {n} nodes"
            ),
        }
    }
}

impl std::error::Error for CsrError {}

/// Immutable CSR adjacency over nodes `0..n`.
///
/// Construction is `O(V + E)`; `neighbors(u)` is a contiguous slice.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a **directed** adjacency from an edge list.
    ///
    /// Panics on an out-of-range endpoint.
    pub fn directed(n: usize, edges: impl Iterator<Item = (usize, usize)> + Clone) -> Csr {
        Self::try_directed(n, edges).expect("edge endpoint out of range")
    }

    /// Builds an **undirected** adjacency: each `(u, v)` is inserted in both
    /// directions.
    ///
    /// Panics on an out-of-range endpoint.
    pub fn undirected(n: usize, edges: impl Iterator<Item = (usize, usize)> + Clone) -> Csr {
        Self::try_undirected(n, edges).expect("edge endpoint out of range")
    }

    /// Fallible **directed** construction returning a typed error on an
    /// out-of-range endpoint.
    fn try_directed(
        n: usize,
        edges: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> Result<Csr, CsrError> {
        Self::build(n, edges, false, None)
    }

    /// Fallible **undirected** construction returning a typed error on an
    /// out-of-range endpoint.
    fn try_undirected(
        n: usize,
        edges: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> Result<Csr, CsrError> {
        Self::build(n, edges, true, None)
    }

    /// Fallible **undirected** construction that also reports where each
    /// input edge landed: `edge_of[s]` is the index, in `edges`, of the
    /// edge that filled arc slot `s` (the slots of `u` start at
    /// [`Csr::arc_offset`]`(u)`), filled in the same pass as the targets.
    pub fn try_undirected_with_edge_ids(
        n: usize,
        edges: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> Result<(Csr, Vec<u32>), CsrError> {
        let mut edge_of = Vec::new();
        let csr = Self::build(n, edges, true, Some(&mut edge_of))?;
        Ok((csr, edge_of))
    }

    fn build(
        n: usize,
        edges: impl Iterator<Item = (usize, usize)> + Clone,
        both: bool,
        mut edge_of: Option<&mut Vec<u32>>,
    ) -> Result<Csr, CsrError> {
        let mut degree = vec![0u32; n];
        for (u, v) in edges.clone() {
            if u >= n || v >= n {
                return Err(CsrError::EndpointOutOfRange { u, v, n });
            }
            degree[u] += 1;
            if both {
                degree[v] += 1;
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        if let Some(ids) = edge_of.as_deref_mut() {
            *ids = vec![0u32; targets.len()];
        }
        let mut cursor = offsets[..n].to_vec();
        for (i, (u, v)) in edges.enumerate() {
            targets[cursor[u] as usize] = v as u32;
            if let Some(ids) = edge_of.as_deref_mut() {
                ids[cursor[u] as usize] = i as u32;
            }
            cursor[u] += 1;
            if both {
                targets[cursor[v] as usize] = u as u32;
                if let Some(ids) = edge_of.as_deref_mut() {
                    ids[cursor[v] as usize] = i as u32;
                }
                cursor[v] += 1;
            }
        }
        Ok(Csr { offsets, targets })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (twice the edge count for undirected builds).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `u` as a slice.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Index of `u`'s first arc slot: `neighbors(u)[j]` sits at slot
    /// `arc_offset(u) + j`.
    #[inline]
    pub fn arc_offset(&self, u: usize) -> usize {
        self.offsets[u] as usize
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_preserves_direction() {
        let g = Csr::directed(3, [(0, 1), (0, 2), (2, 1)].into_iter());
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn undirected_mirrors() {
        let g = Csr::undirected(3, [(0, 1), (1, 2)].into_iter());
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.num_arcs(), 4);
    }

    #[test]
    fn edge_ids_follow_the_arc_slots() {
        let (g, edge_of) =
            Csr::try_undirected_with_edge_ids(3, [(0, 1), (2, 1), (0, 2)].into_iter()).unwrap();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(&edge_of[g.arc_offset(1)..g.arc_offset(1) + 2], &[0, 1]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(&edge_of[g.arc_offset(0)..g.arc_offset(0) + 2], &[0, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::undirected(4, std::iter::empty());
        assert_eq!(g.num_nodes(), 4);
        for u in 0..4 {
            assert!(g.neighbors(u).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Csr::directed(2, [(0, 3)].into_iter());
    }

    #[test]
    fn try_constructors_return_typed_error() {
        let err = Csr::try_directed(2, [(0, 3)].into_iter()).unwrap_err();
        assert_eq!(err, CsrError::EndpointOutOfRange { u: 0, v: 3, n: 2 });
        assert!(err.to_string().contains("out of range"));
        let err = Csr::try_undirected(4, [(0, 1), (5, 2)].into_iter()).unwrap_err();
        assert_eq!(err, CsrError::EndpointOutOfRange { u: 5, v: 2, n: 4 });
        assert!(Csr::try_undirected(3, [(0, 1), (1, 2)].into_iter()).is_ok());
    }
}
