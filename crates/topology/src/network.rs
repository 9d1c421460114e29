//! The processor-network model: homogeneous processors joined by undirected
//! links, each link carrying a stable [`LinkId`] that routing decisions
//! reference.

use crate::machine::MachineAttrs;
use oregami_graph::Csr;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
/// Links are stored once and identified by [`LinkId`]; `link_between`
/// resolves an (unordered) processor pair to its link. An undirected CSR
/// adjacency is kept for traversal.
#[derive(Clone, Debug)]
pub struct Network {
    /// Human-readable name, e.g. `hypercube(3)`.
    pub name: String,
    /// Structural kind for canned-mapping dispatch.
    pub kind: TopologyKind,
    num_procs: usize,
    links: Vec<(ProcId, ProcId)>,
    link_of: HashMap<(u32, u32), LinkId>,
    adj: Csr,
    /// Per-component machine attributes (speeds, memories, bandwidths) when
    /// this network was lowered from a hierarchical [`crate::machine::MachineModel`];
    /// `None` for the paper's plain homogeneous topologies.
    attrs: Option<Arc<MachineAttrs>>,
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
        let mut link_of = HashMap::with_capacity(links.len());
        let mut stored = Vec::with_capacity(links.len());
        for (i, &(u, v)) in links.iter().enumerate() {
            if (u as usize) >= num_procs || (v as usize) >= num_procs {
                return Err(TopologyError::LinkEndpointOutOfRange { u, v, num_procs });
            }
            if u == v {
                return Err(TopologyError::SelfLoopLink { proc: ProcId(u) });
            }
            let key = (u.min(v), u.max(v));
            if link_of.insert(key, LinkId(i as u32)).is_some() {
                return Err(TopologyError::DuplicateLink { u: key.0, v: key.1 });
            }
            stored.push((ProcId(u), ProcId(v)));
        }
        let adj = Csr::try_undirected(
            num_procs,
            stored
                .iter()
                .map(|&(u, v)| (u.index(), v.index()))
                .collect::<Vec<_>>()
                .into_iter(),
        )
        .map_err(|e| match e {
            oregami_graph::CsrError::EndpointOutOfRange { u, v, n } => {
                TopologyError::LinkEndpointOutOfRange {
                    u: u as u32,
                    v: v as u32,
                    num_procs: n,
                }
            }
        })?;
        Ok(Network {
            name: name.into(),
            kind,
            num_procs,
            links: stored,
            link_of,
            adj,
            attrs: None,
        })
    }

    /// Attaches machine attributes (per-processor speed/memory, per-link
    /// bandwidth) produced by lowering a hierarchical machine model. The
    /// attribute fingerprint is folded into [`Network::structural_signature`],
    /// so two machines that differ only in level parameters (say, uplink
    /// bandwidth) can never alias each other in the route-table cache.
    ///
    /// # Panics
    /// If the attribute vectors do not match this network's processor and
    /// link counts.
    pub fn with_machine_attrs(mut self, attrs: Arc<MachineAttrs>) -> Network {
        assert_eq!(
            attrs.num_procs(),
            self.num_procs,
            "machine attrs sized for a different processor count"
        );
        assert_eq!(
            attrs.num_links(),
            self.links.len(),
            "machine attrs sized for a different link count"
        );
        self.attrs = Some(attrs);
        self
    }

    /// The machine attributes attached by [`Network::with_machine_attrs`],
    /// if any.
    #[inline]
    pub fn machine_attrs(&self) -> Option<&Arc<MachineAttrs>> {
        self.attrs.as_ref()
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
    pub fn link_between(&self, u: ProcId, v: ProcId) -> Option<LinkId> {
        let key = (u.0.min(v.0), u.0.max(v.0));
        self.link_of.get(&key).copied()
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
    /// count, the ordered link list, and the machine-attribute fingerprint
    /// (0 when no attributes are attached). Two networks with the same
    /// signature have the same routing structure (identical all-pairs
    /// distances) *and* the same per-component capacities, which is what
    /// `cache::RouteTableCache` keys on. Names and [`TopologyKind`] tags
    /// are deliberately excluded — a hand-built `Custom` 3-cube routes
    /// identically to `builders::hypercube(3)` — but attribute differences
    /// are included so two lowered machines that differ only in level
    /// parameters (bandwidths, speeds, domain layout) never alias.
    ///
    /// `DefaultHasher` with fixed keys is used, so the signature is stable
    /// within (and across) processes for a given link list.
    pub fn structural_signature(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.num_procs.hash(&mut h);
        for &(u, v) in &self.links {
            (u.0, v.0).hash(&mut h);
        }
        self.attrs
            .as_ref()
            .map(|a| a.fingerprint())
            .unwrap_or(0)
            .hash(&mut h);
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
