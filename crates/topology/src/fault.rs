//! Fault modelling: failed processors/links and the degraded network view.
//!
//! OREGAMI's paper assumes a healthy, regular interconnect, but real
//! machines lose processors and links at runtime. This module models a
//! fault event as a [`FaultSet`] and lets a [`Network`] produce a
//! [`DegradedNetwork`] — the same machine with failed components taken out
//! of service — against which mappings can be repaired
//! (`oregami-mapper`'s `repair` module) and re-scored (`oregami-metrics`).
//!
//! Design choices:
//!
//! * **Processor numbering is preserved.** A degraded network keeps the
//!   original `ProcId`s so a surviving mapping's assignment vector remains
//!   meaningful; failed processors simply become isolated (degree 0).
//! * **Links are re-identified compactly.** Surviving links receive fresh
//!   dense [`LinkId`]s (metrics index per-link arrays by id), and the
//!   degraded network remembers the original id of each surviving link and
//!   which original ids went out of service.
//! * **Nothing panics on disconnection.** Routing over a degraded network
//!   goes through [`DegradedNetwork::route_table`], which reports the
//!   surviving connected components in a [`TopologyError`] instead of
//!   asserting.

use crate::network::{LinkId, Network, ProcId, TopologyKind};
use crate::routes::RouteTable;
use oregami_graph::traversal::components;
use std::collections::BTreeSet;
use std::fmt;

/// Errors from topology construction and fault-aware routing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The (possibly degraded) network does not connect every live
    /// processor; the surviving connected components are listed in
    /// ascending order of their smallest member.
    Disconnected {
        /// Live processors grouped by connected component.
        components: Vec<Vec<ProcId>>,
    },
    /// A fault named a processor the network does not have.
    ProcOutOfRange {
        /// The offending processor id.
        proc: ProcId,
        /// Number of processors in the network.
        num_procs: usize,
    },
    /// A fault named a link the network does not have.
    LinkOutOfRange {
        /// The offending link id.
        link: LinkId,
        /// Number of links in the network.
        num_links: usize,
    },
    /// Every processor failed; there is nothing left to map onto.
    NoAliveProcs,
    /// A link list named a processor outside `0..num_procs` (surfaced from
    /// the CSR adjacency build as a typed error instead of a panic).
    LinkEndpointOutOfRange {
        /// One endpoint of the offending link.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Number of processors in the network.
        num_procs: usize,
    },
    /// A link list contained a self-loop `(u, u)`.
    SelfLoopLink {
        /// The looping processor.
        proc: ProcId,
    },
    /// A link list contained the same unordered pair twice.
    DuplicateLink {
        /// One endpoint of the duplicated link.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// A fault named a hierarchy domain the machine does not have.
    DomainOutOfRange {
        /// Hierarchy level of the offending domain (0 = top).
        level: usize,
        /// The offending domain index.
        index: u32,
        /// Number of domains at that level.
        num_domains: usize,
    },
    /// A per-processor routing table exceeded the hardware entry budget
    /// even after compression (see `compress::compress_routes`).
    RouteBudgetExceeded {
        /// The processor whose table overflowed.
        proc: ProcId,
        /// Entries required after compression.
        entries: usize,
        /// The hardware budget.
        budget: usize,
    },
    /// The network is larger than [`check_size`](crate::routes::check_size)
    /// admits: building it or its route table would take more memory than
    /// [`MAX_TABLE_BYTES`](crate::routes::MAX_TABLE_BYTES).
    TooLarge {
        /// Most processors a network may have.
        max_procs: usize,
        /// Most links a network may have.
        max_links: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Disconnected { components } => {
                write!(
                    f,
                    "network is disconnected: {} surviving components (",
                    components.len()
                )?;
                for (i, comp) in components.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    // Keep the message bounded on large networks.
                    for (j, p) in comp.iter().take(8).enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{p}")?;
                    }
                    if comp.len() > 8 {
                        write!(f, ",… ({} procs)", comp.len())?;
                    }
                }
                write!(f, ")")
            }
            TopologyError::ProcOutOfRange { proc, num_procs } => write!(
                f,
                "failed processor {proc} out of range (network has {num_procs} processors)"
            ),
            TopologyError::LinkOutOfRange { link, num_links } => write!(
                f,
                "failed link {link} out of range (network has {num_links} links)"
            ),
            TopologyError::NoAliveProcs => write!(f, "all processors failed"),
            TopologyError::LinkEndpointOutOfRange { u, v, num_procs } => write!(
                f,
                "link endpoint out of range: ({u}, {v}) with {num_procs} processors"
            ),
            TopologyError::SelfLoopLink { proc } => write!(f, "self-loop link at {proc}"),
            TopologyError::DuplicateLink { u, v } => write!(f, "duplicate link ({u}, {v})"),
            TopologyError::DomainOutOfRange {
                level,
                index,
                num_domains,
            } => write!(
                f,
                "fault domain {index} at level {level} out of range (machine has {num_domains} domains at that level)"
            ),
            TopologyError::RouteBudgetExceeded {
                proc,
                entries,
                budget,
            } => write!(
                f,
                "routing table at processor {proc} needs {entries} entries after compression (hardware budget {budget})"
            ),
            TopologyError::TooLarge { max_procs, max_links } => write!(
                f,
                "network exceeds the {max_procs}-processor limit or the {max_links}-link \
                 limit: a route table (4n^2 bytes) and a link list are capped at {} MiB",
                crate::routes::MAX_TABLE_BYTES >> 20
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A set of failed processors and links.
///
/// Failing a processor implicitly takes every incident link out of
/// service; failing a link leaves its endpoints alive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    procs: BTreeSet<ProcId>,
    links: BTreeSet<LinkId>,
}

impl FaultSet {
    /// The empty fault set (a healthy machine).
    pub fn new() -> FaultSet {
        FaultSet::default()
    }

    /// Marks processor `p` as failed.
    pub fn fail_proc(&mut self, p: ProcId) -> &mut Self {
        self.procs.insert(p);
        self
    }

    /// Marks link `l` as failed.
    pub fn fail_link(&mut self, l: LinkId) -> &mut Self {
        self.links.insert(l);
        self
    }

    /// Builder-style [`FaultSet::fail_proc`].
    pub fn with_proc(mut self, p: ProcId) -> Self {
        self.fail_proc(p);
        self
    }

    /// Builder-style [`FaultSet::fail_link`].
    pub fn with_link(mut self, l: LinkId) -> Self {
        self.fail_link(l);
        self
    }

    /// Whether no component has failed.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty() && self.links.is_empty()
    }

    /// Whether link `l` is marked failed.
    pub fn contains_link(&self, l: LinkId) -> bool {
        self.links.contains(&l)
    }

    /// Failed processors in ascending order.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.procs.iter().copied()
    }

    /// Explicitly failed links in ascending order (links lost to failed
    /// processors are not listed here; see
    /// [`DegradedNetwork::failed_links`]).
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links.iter().copied()
    }
}

/// A [`Network`] with a [`FaultSet`] applied.
///
/// Processor ids are unchanged from the healthy network (failed processors
/// are isolated); surviving links carry fresh dense ids with a recorded
/// translation back to the originals.
#[derive(Clone, Debug)]
pub struct DegradedNetwork {
    net: Network,
    alive: Vec<bool>,
    failed_procs: Vec<ProcId>,
    /// Original ids of every out-of-service link (explicitly failed or
    /// incident to a failed processor), ascending.
    failed_links: Vec<LinkId>,
    /// New link id -> original link id.
    orig_link: Vec<LinkId>,
}

impl Network {
    /// Applies a fault set, producing the degraded network.
    ///
    /// Fails with [`TopologyError::ProcOutOfRange`] /
    /// [`TopologyError::LinkOutOfRange`] on faults naming components the
    /// network does not have, and [`TopologyError::NoAliveProcs`] if the
    /// faults kill every processor. A *disconnected* survivor network is
    /// **not** an error here — partition detection happens in
    /// [`DegradedNetwork::route_table`], so callers can still inspect the
    /// wreckage.
    pub fn degrade(&self, faults: &FaultSet) -> Result<DegradedNetwork, TopologyError> {
        for p in faults.procs() {
            if p.index() >= self.num_procs() {
                return Err(TopologyError::ProcOutOfRange {
                    proc: p,
                    num_procs: self.num_procs(),
                });
            }
        }
        for l in faults.links() {
            if l.index() >= self.num_links() {
                return Err(TopologyError::LinkOutOfRange {
                    link: l,
                    num_links: self.num_links(),
                });
            }
        }

        let mut alive = vec![true; self.num_procs()];
        for p in faults.procs() {
            alive[p.index()] = false;
        }
        if alive.iter().all(|&a| !a) {
            return Err(TopologyError::NoAliveProcs);
        }

        let mut surviving: Vec<(u32, u32)> = Vec::with_capacity(self.num_links());
        let mut failed_links = Vec::new();
        let mut orig_link = Vec::new();
        for (id, u, v) in self.links() {
            if faults.contains_link(id) || !alive[u.index()] || !alive[v.index()] {
                failed_links.push(id);
            } else {
                orig_link.push(id);
                surviving.push((u.0, v.0));
            }
        }

        let mut net = Network::from_links(
            format!("{}!degraded", self.name),
            TopologyKind::Custom,
            self.num_procs(),
            surviving,
        );
        if let Some(attrs) = self.machine_attrs() {
            // Machine attributes survive the fault: processor vectors are
            // positional (numbering preserved), link vectors re-indexed to
            // the fresh dense ids.
            net = net.with_machine_attrs(std::sync::Arc::new(
                attrs.for_surviving_links(&orig_link),
            ));
        }
        Ok(DegradedNetwork {
            net,
            alive,
            failed_procs: faults.procs().collect(),
            failed_links,
            orig_link,
        })
    }
}

impl DegradedNetwork {
    /// The surviving machine, with original processor numbering and fresh
    /// dense link ids. Failed processors are present but isolated.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Whether processor `p` survived.
    #[inline]
    pub fn is_alive(&self, p: ProcId) -> bool {
        self.alive[p.index()]
    }

    /// The per-processor liveness mask (indexed by `ProcId`). This is the
    /// fault mask `cache::RouteTableCache` folds into its key alongside
    /// the network's structural signature.
    #[inline]
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// Surviving processors in ascending order.
    pub fn alive_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| ProcId(i as u32))
    }

    /// Number of surviving processors.
    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Failed processors, ascending.
    pub fn failed_procs(&self) -> &[ProcId] {
        &self.failed_procs
    }

    /// Original ids of all out-of-service links (explicit faults plus
    /// links incident to failed processors), ascending.
    pub fn failed_links(&self) -> &[LinkId] {
        &self.failed_links
    }

    /// Translates a degraded-network link id back to the healthy
    /// network's id.
    ///
    /// # Panics
    /// If `l` is not a valid degraded-network link id.
    pub fn original_link(&self, l: LinkId) -> LinkId {
        self.orig_link[l.index()]
    }

    /// Fault-aware routing table over the surviving processors.
    ///
    /// Fails with [`TopologyError::Disconnected`] (listing the surviving
    /// connected components) if the faults partitioned the machine.
    /// Distances involving failed processors are `u32::MAX` in the
    /// resulting table; callers must route between live processors only.
    pub fn route_table(&self) -> Result<RouteTable, TopologyError> {
        RouteTable::masked(&self.net, &self.alive)
    }

    /// A compacted copy of the surviving machine: alive processors are
    /// renumbered densely `0..num_alive`, preserving relative order.
    /// Returns the compact network and the translation from compact ids
    /// back to original ids.
    ///
    /// This is the view MAPPER's full re-contract/re-embed escalation path
    /// runs on, since the embedding algorithms expect every processor to
    /// be usable.
    pub fn compact(&self) -> (Network, Vec<ProcId>) {
        let to_orig: Vec<ProcId> = self.alive_procs().collect();
        let mut to_compact = vec![u32::MAX; self.alive.len()];
        for (c, p) in to_orig.iter().enumerate() {
            to_compact[p.index()] = c as u32;
        }
        let links: Vec<(u32, u32)> = self
            .net
            .links()
            .map(|(_, u, v)| (to_compact[u.index()], to_compact[v.index()]))
            .collect();
        let mut net = Network::from_links(
            format!("{}!compact", self.net.name),
            TopologyKind::Custom,
            to_orig.len(),
            links,
        );
        if let Some(attrs) = self.net.machine_attrs() {
            let link_ids: Vec<LinkId> = self.net.links().map(|(l, _, _)| l).collect();
            net = net.with_machine_attrs(std::sync::Arc::new(
                attrs.for_compacted(&to_orig, &link_ids),
            ));
        }
        (net, to_orig)
    }
}

/// Live processors of `net` grouped by connected component (dead
/// processors, per `alive`, are omitted), components ordered by smallest
/// member.
pub(crate) fn alive_components(net: &Network, alive: &[bool]) -> Vec<Vec<ProcId>> {
    let (comp, count) = components(net.adjacency());
    let mut groups: Vec<Vec<ProcId>> = vec![Vec::new(); count];
    for p in 0..net.num_procs() {
        if alive[p] {
            groups[comp[p]].push(ProcId(p as u32));
        }
    }
    groups.retain(|g| !g.is_empty());
    groups.sort_by_key(|g| g[0]);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn degrade_removes_incident_links() {
        let q = builders::hypercube(3); // 8 procs, 12 links
        let faults = FaultSet::new().with_proc(ProcId(0));
        let d = q.degrade(&faults).unwrap();
        assert_eq!(d.network().num_procs(), 8);
        assert_eq!(d.num_alive(), 7);
        assert!(!d.is_alive(ProcId(0)));
        assert_eq!(d.network().degree(ProcId(0)), 0);
        // 3 links incident to proc 0 go out of service
        assert_eq!(d.network().num_links(), 9);
        assert_eq!(d.failed_links().len(), 3);
    }

    #[test]
    fn link_id_translation_roundtrips() {
        let q = builders::hypercube(3);
        let victim = q.link_between(ProcId(0), ProcId(1)).unwrap();
        let d = q.degrade(&FaultSet::new().with_link(victim)).unwrap();
        assert_eq!(d.network().num_links(), 11);
        assert_eq!(d.failed_links(), &[victim]);
        for (new_id, u, v) in d.network().links() {
            let orig = d.original_link(new_id);
            assert_ne!(orig, victim);
            assert_eq!(q.link_endpoints(orig), (u, v));
        }
    }

    #[test]
    fn route_table_avoids_failures() {
        let q = builders::hypercube(3);
        // kill both shortest routes' first hops from 0 toward 3 except via 2
        let faults = FaultSet::new().with_proc(ProcId(1));
        let d = q.degrade(&faults).unwrap();
        let rt = d.route_table().unwrap();
        // 0->3 now must detour around dead proc 1: still distance 2 via 2
        assert_eq!(rt.dist(ProcId(0), ProcId(3)), 2);
        let path = rt.first_path(d.network(), ProcId(0), ProcId(3));
        assert!(!path.contains(&ProcId(1)));
        // 0->1 is not routable; distance reads as MAX
        assert_eq!(rt.dist(ProcId(0), ProcId(1)), u32::MAX);
    }

    #[test]
    fn partition_is_reported_with_components() {
        let c = builders::chain(5); // 0-1-2-3-4
        let d = c.degrade(&FaultSet::new().with_proc(ProcId(2))).unwrap();
        let err = d.route_table().unwrap_err();
        match err {
            TopologyError::Disconnected { components } => {
                assert_eq!(
                    components,
                    vec![
                        vec![ProcId(0), ProcId(1)],
                        vec![ProcId(3), ProcId(4)],
                    ]
                );
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_faults_rejected() {
        let r = builders::ring(4);
        assert!(matches!(
            r.degrade(&FaultSet::new().with_proc(ProcId(9))),
            Err(TopologyError::ProcOutOfRange { .. })
        ));
        assert!(matches!(
            r.degrade(&FaultSet::new().with_link(LinkId(99))),
            Err(TopologyError::LinkOutOfRange { .. })
        ));
        let mut all = FaultSet::new();
        for p in 0..4 {
            all.fail_proc(ProcId(p));
        }
        assert!(matches!(
            r.degrade(&all),
            Err(TopologyError::NoAliveProcs)
        ));
    }

    #[test]
    fn fault_insertion_deduplicates_and_is_idempotent() {
        // fail_proc/fail_link insert into sets: repeating a fault must not
        // accumulate duplicates or change any downstream view
        let mut once = FaultSet::new();
        once.fail_proc(ProcId(2)).fail_link(LinkId(1));
        let mut thrice = FaultSet::new();
        for _ in 0..3 {
            thrice.fail_proc(ProcId(2)).fail_link(LinkId(1));
        }
        assert_eq!(once, thrice);
        assert_eq!(thrice.procs().count(), 1);
        assert_eq!(thrice.links().count(), 1);

        let q = builders::hypercube(3);
        let d_once = q.degrade(&once).unwrap();
        let d_thrice = q.degrade(&thrice).unwrap();
        assert_eq!(d_once.failed_procs(), d_thrice.failed_procs());
        assert_eq!(d_once.failed_links(), d_thrice.failed_links());
        assert_eq!(d_once.alive_mask(), d_thrice.alive_mask());
        assert_eq!(
            d_once.network().structural_signature(),
            d_thrice.network().structural_signature()
        );
        // failed_procs carries each victim exactly once
        let mut seen = d_thrice.failed_procs().to_vec();
        seen.dedup();
        assert_eq!(seen.len(), d_thrice.failed_procs().len());
    }

    #[test]
    fn compact_renumbers_alive_procs() {
        let q = builders::hypercube(2); // square 0-1-3-2
        let d = q.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        let (compact, to_orig) = d.compact();
        assert_eq!(compact.num_procs(), 3);
        assert_eq!(to_orig, vec![ProcId(0), ProcId(2), ProcId(3)]);
        // surviving links 0-2 and 2-3 map to compact 0-1 and 1-2
        assert_eq!(compact.num_links(), 2);
        assert!(compact.link_between(ProcId(0), ProcId(1)).is_some());
        assert!(compact.link_between(ProcId(1), ProcId(2)).is_some());
    }

    #[test]
    fn empty_fault_set_is_identity_modulo_ids() {
        let m = builders::mesh2d(2, 3);
        let d = m.degrade(&FaultSet::new()).unwrap();
        assert_eq!(d.network().num_links(), m.num_links());
        assert_eq!(d.num_alive(), m.num_procs());
        let rt = d.route_table().unwrap();
        let healthy = RouteTable::try_new(&m).unwrap();
        for u in 0..m.num_procs() as u32 {
            for v in 0..m.num_procs() as u32 {
                assert_eq!(
                    rt.dist(ProcId(u), ProcId(v)),
                    healthy.dist(ProcId(u), ProcId(v))
                );
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let c = builders::chain(3);
        let d = c.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        let msg = d.route_table().unwrap_err().to_string();
        assert!(msg.contains("disconnected"), "{msg}");
        assert!(msg.contains("2 surviving components"), "{msg}");
    }
}
