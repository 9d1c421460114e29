//! The processor-network model: homogeneous processors joined by undirected
//! links, each link carrying a stable [`LinkId`] that routing decisions
//! reference. A network is its wiring — the processor count and the
//! ordered link list — whether built from a paper topology or lowered from
//! a hierarchical [`crate::machine::MachineModel`].

use oregami_graph::Csr;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a processor in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

/// Identifier of an undirected link in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl ProcId {
    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The shape of a regular network, used as the canned-mapping hash key
/// (paper §4.1: "hashing on the name of the task graph and the name of the
/// network topology").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Boolean `d`-cube.
    Hypercube(usize),
    /// `rows × cols` mesh.
    Mesh2D(usize, usize),
    /// `rows × cols` torus.
    Torus2D(usize, usize),
    /// Cycle of `n` processors.
    Ring(usize),
    /// Linear array of `n` processors.
    Chain(usize),
    /// Fully connected `n` processors.
    Complete(usize),
    /// Star on `n` processors (hub = processor 0).
    Star(usize),
    /// Full binary tree of height `h`.
    FullBinaryTree(usize),
    /// Butterfly with `d` levels.
    Butterfly(usize),
    /// Anything hand-built.
    Custom,
}

impl TopologyKind {
    /// Display name used by the canned-mapping library and reports.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Hypercube(_) => "hypercube",
            TopologyKind::Mesh2D(..) => "mesh2d",
            TopologyKind::Torus2D(..) => "torus2d",
            TopologyKind::Ring(_) => "ring",
            TopologyKind::Chain(_) => "chain",
            TopologyKind::Complete(_) => "complete",
            TopologyKind::Star(_) => "star",
            TopologyKind::FullBinaryTree(_) => "fullbinarytree",
            TopologyKind::Butterfly(_) => "butterfly",
            TopologyKind::Custom => "custom",
        }
    }
}

/// An undirected processor network.
///
/// Links are stored once and identified by [`LinkId`]. An undirected CSR
/// adjacency is kept for traversal, with each arc's link id in a slice
/// aligned with the CSR slots, so `link_between` resolves an (unordered)
/// processor pair by scanning the shorter of the two adjacency lists.
#[derive(Clone, Debug)]
pub struct Network {
    /// Human-readable name, e.g. `hypercube(3)`.
    pub name: String,
    /// Structural kind for canned-mapping dispatch.
    pub kind: TopologyKind,
    num_procs: usize,
    links: Vec<(ProcId, ProcId)>,
    adj: Csr,
    /// `arc_link[s]` = the link of the CSR arc at slot `s`.
    arc_link: Vec<LinkId>,
}

impl Network {
    /// Builds a network from an explicit link list. Duplicate links and
    /// self-loops are rejected.
    ///
    /// # Panics
    /// On out-of-range endpoints, self-loops, or duplicate links.
    pub fn from_links(
        name: impl Into<String>,
        kind: TopologyKind,
        num_procs: usize,
        links: Vec<(u32, u32)>,
    ) -> Network {
        match Self::try_from_links(name, kind, num_procs, links) {
            Ok(net) => net,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction from an explicit link list, returning a typed
    /// [`TopologyError`] on out-of-range endpoints, self-loops, or duplicate
    /// links instead of panicking.
    fn try_from_links(
        name: impl Into<String>,
        kind: TopologyKind,
        num_procs: usize,
        links: Vec<(u32, u32)>,
    ) -> Result<Network, crate::fault::TopologyError> {
        use crate::fault::TopologyError;
        // The first bad endpoint wins unless an earlier link duplicates
        // another, so only the links before it go into the adjacency.
        let bad = links
            .iter()
            .position(|&(u, v)| (u as usize) >= num_procs || (v as usize) >= num_procs || u == v);
        let good = &links[..bad.unwrap_or(links.len())];
        let (adj, arc_edge) = Csr::try_undirected_with_edge_ids(
            num_procs,
            good.iter().map(|&(u, v)| (u as usize, v as usize)),
        )
        .expect("endpoints checked above");
        if let Some(i) = first_duplicate(&adj, &arc_edge) {
            let (u, v) = links[i];
            return Err(TopologyError::DuplicateLink {
                u: u.min(v),
                v: u.max(v),
            });
        }
        if let Some(i) = bad {
            let (u, v) = links[i];
            return Err(if u == v && (u as usize) < num_procs {
                TopologyError::SelfLoopLink { proc: ProcId(u) }
            } else {
                TopologyError::LinkEndpointOutOfRange { u, v, num_procs }
            });
        }
        Ok(Network {
            name: name.into(),
            kind,
            num_procs,
            links: links
                .into_iter()
                .map(|(u, v)| (ProcId(u), ProcId(v)))
                .collect(),
            adj,
            arc_link: arc_edge.into_iter().map(LinkId).collect(),
        })
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Number of undirected links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The endpoints of a link.
    #[inline]
    pub fn link_endpoints(&self, l: LinkId) -> (ProcId, ProcId) {
        self.links[l.index()]
    }

    /// The link joining `u` and `v`, if the pair is adjacent.
    #[inline]
    pub fn link_between(&self, u: ProcId, v: ProcId) -> Option<LinkId> {
        if u.index() >= self.num_procs || v.index() >= self.num_procs {
            return None;
        }
        let (a, b) = if self.adj.degree(u.index()) <= self.adj.degree(v.index()) {
            (u.index(), v.0)
        } else {
            (v.index(), u.0)
        };
        let j = self.adj.neighbors(a).iter().position(|&w| w == b)?;
        Some(self.arc_link[self.adj.arc_offset(a) + j])
    }

    /// Neighboring processors of `u`.
    pub fn neighbors(&self, u: ProcId) -> impl Iterator<Item = ProcId> + '_ {
        self.adj.neighbors(u.index()).iter().map(|&v| ProcId(v))
    }

    /// Degree of processor `u`.
    pub fn degree(&self, u: ProcId) -> usize {
        self.adj.degree(u.index())
    }

    /// The underlying undirected adjacency.
    #[inline]
    pub fn adjacency(&self) -> &Csr {
        &self.adj
    }

    /// All links with ids, in id order.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, ProcId, ProcId)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (LinkId(i as u32), u, v))
    }

    /// A structural signature of the network: a hash over the processor
    /// count and the ordered link list, which is all a route table depends
    /// on. Two networks with the same signature have the same routing
    /// structure (identical all-pairs distances and next-hop order), which
    /// is what `cache::RouteTableCache` keys on. Names and [`TopologyKind`]
    /// tags are deliberately excluded — a hand-built `Custom` 3-cube routes
    /// identically to `builders::hypercube(3)`, and a lowered machine
    /// identically to a `Custom` network over its links.
    ///
    /// `DefaultHasher` with fixed keys is used, so the signature is stable
    /// within (and across) processes for a given link list.
    pub fn structural_signature(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.num_procs.hash(&mut h);
        for &(u, v) in &self.links {
            (u.0, v.0).hash(&mut h);
        }
        h.finish()
    }

    /// Network diameter (None if disconnected).
    pub fn diameter(&self) -> Option<u32> {
        oregami_graph::traversal::diameter(&self.adj)
    }

    /// Whether every processor can reach every other.
    pub fn is_connected(&self) -> bool {
        oregami_graph::traversal::is_connected(&self.adj)
    }
}

/// The index of the first link that repeats an earlier one, in link order.
/// Within each node's adjacency the arcs sit in link order, so the first
/// repeat of a pair at `u` is that pair's second link, and the least such
/// index over all nodes is the first repeat overall.
fn first_duplicate(adj: &Csr, arc_edge: &[u32]) -> Option<usize> {
    let n = adj.num_nodes();
    // seen[w] = 1 + the node whose adjacency last listed `w`
    let mut seen = vec![0u32; n];
    let mut first: Option<u32> = None;
    for u in 0..n {
        let base = adj.arc_offset(u);
        for (j, &w) in adj.neighbors(u).iter().enumerate() {
            if seen[w as usize] == u as u32 + 1 {
                let i = arc_edge[base + j];
                first = Some(first.map_or(i, |f| f.min(i)));
            }
            seen[w as usize] = u as u32 + 1;
        }
    }
    first.map(|i| i as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        Network::from_links("tri", TopologyKind::Custom, 3, vec![(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_queries() {
        let n = triangle();
        assert_eq!(n.num_procs(), 3);
        assert_eq!(n.num_links(), 3);
        assert_eq!(n.link_between(ProcId(2), ProcId(0)), Some(LinkId(2)));
        assert_eq!(n.link_between(ProcId(0), ProcId(2)), Some(LinkId(2)));
        assert_eq!(n.degree(ProcId(1)), 2);
        assert!(n.is_connected());
        assert_eq!(n.diameter(), Some(1));
    }

    #[test]
    fn link_endpoints_roundtrip() {
        let n = triangle();
        for (id, u, v) in n.links() {
            assert_eq!(n.link_between(u, v), Some(id));
            assert_eq!(n.link_endpoints(id), (u, v));
        }
    }

    #[test]
    fn missing_link_is_none() {
        let n = Network::from_links("path", TopologyKind::Custom, 3, vec![(0, 1), (1, 2)]);
        assert_eq!(n.link_between(ProcId(0), ProcId(2)), None);
        assert_eq!(n.link_between(ProcId(1), ProcId(1)), None);
        assert_eq!(
            n.link_between(ProcId(1), ProcId(7)),
            None,
            "out of range is no link"
        );
    }

    #[test]
    fn link_between_finds_hub_links_from_either_end() {
        let links = vec![(0, 3), (2, 0), (0, 1), (4, 0)];
        let star = Network::from_links("star", TopologyKind::Custom, 5, links);
        for (id, u, v) in star.links() {
            assert_eq!(star.link_between(u, v), Some(id));
            assert_eq!(star.link_between(v, u), Some(id));
        }
        assert_eq!(star.link_between(ProcId(1), ProcId(2)), None);
    }

    #[test]
    fn structural_signature_tracks_structure_not_names() {
        let a = triangle();
        let mut b = triangle();
        b.name = "renamed".into();
        b.kind = TopologyKind::Ring(3);
        assert_eq!(a.structural_signature(), b.structural_signature());
        let path = Network::from_links("path", TopologyKind::Custom, 3, vec![(0, 1), (1, 2)]);
        assert_ne!(a.structural_signature(), path.structural_signature());
        // more processors with the same links is a different structure
        let wide = Network::from_links("wide", TopologyKind::Custom, 4, vec![(0, 1), (1, 2)]);
        assert_ne!(path.structural_signature(), wide.structural_signature());
    }

    #[test]
    fn try_from_links_returns_typed_errors() {
        use crate::fault::TopologyError;
        let err =
            Network::try_from_links("bad", TopologyKind::Custom, 2, vec![(0, 5)]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::LinkEndpointOutOfRange { u: 0, v: 5, num_procs: 2 }
        );
        assert!(err.to_string().contains("out of range"));
        let err =
            Network::try_from_links("bad", TopologyKind::Custom, 2, vec![(1, 1)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoopLink { proc: ProcId(1) });
        let err = Network::try_from_links("bad", TopologyKind::Custom, 2, vec![(0, 1), (1, 0)])
            .unwrap_err();
        assert_eq!(err, TopologyError::DuplicateLink { u: 0, v: 1 });
        assert!(Network::try_from_links("ok", TopologyKind::Custom, 2, vec![(0, 1)]).is_ok());
        // the first offending link in list order wins, whatever its kind
        let links = vec![(0, 1), (1, 0), (2, 2)];
        let err = Network::try_from_links("bad", TopologyKind::Custom, 3, links).unwrap_err();
        assert_eq!(err, TopologyError::DuplicateLink { u: 0, v: 1 });
        let links = vec![(2, 2), (0, 1), (1, 0)];
        let err = Network::try_from_links("bad", TopologyKind::Custom, 3, links).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoopLink { proc: ProcId(2) });
        let links = vec![(0, 2), (0, 1), (1, 2), (1, 0), (2, 0)];
        let err = Network::try_from_links("bad", TopologyKind::Custom, 3, links).unwrap_err();
        assert_eq!(err, TopologyError::DuplicateLink { u: 0, v: 1 });
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected() {
        Network::from_links("bad", TopologyKind::Custom, 2, vec![(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Network::from_links("bad", TopologyKind::Custom, 2, vec![(1, 1)]);
    }
}
