//! All-pairs shortest-path routing tables.
//!
//! MM-Route (paper §4.4) consults "a table of routing information" listing,
//! for each sender/receiver pair, every shortest route through the network —
//! e.g. on the 8-processor hypercube, messages from processor 0 to 3 may go
//! via links (0–1, 1–3) or (0–2, 2–3). [`RouteTable`] precomputes all-pairs
//! distances by BFS (`O(P·L)` total) and answers:
//!
//! * `dist(u, v)` — hop distance;
//! * `next_hops(u, v)` — every neighbor of `u` one step closer to `v`
//!   (the candidate **first-hop links** MM-Route's bipartite graph uses);
//! * `all_shortest_paths(u, v, cap)` — explicit path enumeration (the
//!   paper's Fig 6b table);
//! * `first_path(u, v)` — the deterministic lowest-numbered-neighbor path,
//!   our contention-oblivious baseline router (e-cube order on hypercubes).

use crate::fault::{alive_components, TopologyError};
use crate::network::{LinkId, Network, ProcId};
use oregami_graph::traversal::bfs_distances;

/// The most memory one all-pairs table may take. Every mapping path builds
/// a [`RouteTable`] of `4·n²` bytes (`u32` hop counts), so this is what
/// bounds the size of a network: 8192 processors. An allocation that fails
/// aborts the process, which no `catch_unwind` contains, so the bound is
/// checked before anything is reserved.
pub const MAX_TABLE_BYTES: usize = 256 << 20;

/// Admits a network of `procs` processors and `links` links, or reports
/// [`TopologyError::TooLarge`]. Spec parsers call this before they build
/// (`links` matters for the all-to-all kinds, whose link lists grow as
/// `n²/2`); [`RouteTable::try_new`] calls it for networks built by hand.
pub fn check_size(procs: usize, links: usize) -> Result<(), TopologyError> {
    // a link costs about 64 bytes across `Network`'s link list, its
    // endpoint index and the two adjacency entries
    let max_links = MAX_TABLE_BYTES / 64;
    let table_bytes = procs.checked_mul(procs).and_then(|sq| sq.checked_mul(4));
    if table_bytes.is_some_and(|b| b <= MAX_TABLE_BYTES) && links <= max_links {
        return Ok(());
    }
    Err(TopologyError::TooLarge {
        max_procs: (MAX_TABLE_BYTES / 4).isqrt(),
        max_links,
    })
}

/// Precomputed all-pairs hop distances for a [`Network`], with shortest-path
/// queries.
#[derive(Clone, Debug)]
pub struct RouteTable {
    n: usize,
    dist: Vec<u32>, // row-major n×n
}

impl RouteTable {
    /// Runs BFS from every processor. A disconnected network is reported
    /// as [`TopologyError::Disconnected`] listing the connected
    /// components, one past [`check_size`] as [`TopologyError::TooLarge`].
    pub fn try_new(net: &Network) -> Result<RouteTable, TopologyError> {
        let n = net.num_procs();
        check_size(n, net.num_links())?;
        let mut dist = Vec::with_capacity(n * n);
        for src in 0..n {
            let d = bfs_distances(net.adjacency(), src);
            if d.contains(&u32::MAX) {
                return Err(TopologyError::Disconnected {
                    components: alive_components(net, &vec![true; n]),
                });
            }
            dist.extend_from_slice(&d);
        }
        Ok(RouteTable { n, dist })
    }

    /// Fault-aware construction: runs BFS from live processors only and
    /// requires every live pair to be mutually reachable. Rows/columns of
    /// dead processors read `u32::MAX` (except the trivial diagonal).
    /// `net` must already have dead processors isolated — this is the
    /// `DegradedNetwork` invariant.
    pub(crate) fn masked(net: &Network, alive: &[bool]) -> Result<RouteTable, TopologyError> {
        let n = net.num_procs();
        debug_assert_eq!(alive.len(), n);
        check_size(n, net.num_links())?;
        let mut dist = vec![u32::MAX; n * n];
        for src in 0..n {
            if !alive[src] {
                dist[src * n + src] = 0;
                continue;
            }
            let d = bfs_distances(net.adjacency(), src);
            let reaches_all_alive = d
                .iter()
                .zip(alive)
                .all(|(&x, &a)| !a || x != u32::MAX);
            if !reaches_all_alive {
                return Err(TopologyError::Disconnected {
                    components: alive_components(net, alive),
                });
            }
            dist[src * n..(src + 1) * n].copy_from_slice(&d);
        }
        Ok(RouteTable { n, dist })
    }

    /// Hop distance between two processors. `u32::MAX` is the
    /// *unreachable* sentinel, produced by masked (degraded) tables for
    /// pairs involving a dead or partitioned processor.
    #[inline]
    pub fn dist(&self, u: ProcId, v: ProcId) -> u32 {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Whether `v` is reachable from `u` in this table.
    #[inline]
    pub fn reachable(&self, u: ProcId, v: ProcId) -> bool {
        self.dist(u, v) != u32::MAX
    }

    /// Neighbors of `from` that lie on some shortest path to `to`, in the
    /// network's adjacency order (link-insertion order, not processor
    /// order: on `mesh2d(3, 3)`, `next_hops(4, 8)` is `[7, 5]`). Empty iff
    /// `from == to` or `to` is unreachable from `from` (the `u32::MAX`
    /// sentinel of masked tables); the sentinel never enters the
    /// `dist + 1` arithmetic.
    pub fn next_hops(&self, net: &Network, from: ProcId, to: ProcId) -> Vec<ProcId> {
        if from == to {
            return Vec::new();
        }
        let d = self.dist(from, to);
        if d == u32::MAX {
            return Vec::new();
        }
        net.neighbors(from)
            .filter(|&w| self.dist(w, to).checked_add(1) == Some(d))
            .collect()
    }

    /// Enumerates shortest paths from `src` to `dst` as processor sequences
    /// (inclusive of both endpoints), up to `cap` paths, in lexicographic
    /// next-hop order. `src == dst` yields one trivial path; an
    /// unreachable `dst` yields no paths.
    pub fn all_shortest_paths(
        &self,
        net: &Network,
        src: ProcId,
        dst: ProcId,
        cap: usize,
    ) -> Vec<Vec<ProcId>> {
        if !self.reachable(src, dst) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut prefix = vec![src];
        self.enumerate(net, src, dst, cap, &mut prefix, &mut out);
        out
    }

    fn enumerate(
        &self,
        net: &Network,
        at: ProcId,
        dst: ProcId,
        cap: usize,
        prefix: &mut Vec<ProcId>,
        out: &mut Vec<Vec<ProcId>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if at == dst {
            out.push(prefix.clone());
            return;
        }
        let mut hops = self.next_hops(net, at, dst);
        hops.sort();
        for w in hops {
            prefix.push(w);
            self.enumerate(net, w, dst, cap, prefix, out);
            prefix.pop();
            if out.len() >= cap {
                return;
            }
        }
    }

    /// Number of distinct shortest paths from `src` to `dst` (dynamic
    /// programming over the shortest-path DAG; no enumeration). Zero when
    /// `dst` is unreachable from `src`.
    pub fn count_shortest_paths(&self, net: &Network, src: ProcId, dst: ProcId) -> u64 {
        if src == dst {
            return 1;
        }
        if !self.reachable(src, dst) {
            return 0;
        }
        // Order nodes by distance-to-dst and accumulate counts.
        let mut count = vec![0u64; self.n];
        count[dst.index()] = 1;
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&u| self.dist(ProcId(u as u32), dst));
        for u in order {
            let pu = ProcId(u as u32);
            if count[u] == 0 {
                continue;
            }
            let du = self.dist(pu, dst);
            if du == u32::MAX {
                // unreachable nodes (masked tables) are not in the DAG
                continue;
            }
            // propagate to nodes one hop farther from dst
            for w in net.neighbors(pu) {
                if self.dist(w, dst) == du + 1 {
                    count[w.index()] += count[u];
                }
            }
        }
        count[src.index()]
    }

    /// The deterministic first shortest path (always taking the
    /// lowest-numbered next hop). On a hypercube with our numbering this is
    /// dimension-ordered (e-cube) routing. Used as the contention-oblivious
    /// baseline router. Empty when `dst` is unreachable from `src` (the
    /// `u32::MAX` sentinel of masked tables); callers routing on degraded
    /// networks must check for that before treating the result as a route.
    pub fn first_path(&self, net: &Network, src: ProcId, dst: ProcId) -> Vec<ProcId> {
        if !self.reachable(src, dst) {
            return Vec::new();
        }
        let mut path = Vec::with_capacity(self.dist(src, dst) as usize + 1);
        path.push(src);
        let mut at = src;
        while at != dst {
            let d = self.dist(at, dst);
            let next = net
                .neighbors(at)
                .filter(|&w| self.dist(w, dst).checked_add(1) == Some(d))
                .min();
            match next {
                Some(w) => at = w,
                // every intermediate node of a reachable pair has a next
                // hop; this arm only guards masked-table inconsistencies
                None => return Vec::new(),
            }
            path.push(at);
        }
        path
    }

    /// Converts a processor path to its link sequence.
    ///
    /// # Panics
    /// If consecutive processors in the path are not adjacent.
    pub fn path_links(net: &Network, path: &[ProcId]) -> Vec<LinkId> {
        path.windows(2)
            .map(|w| {
                net.link_between(w[0], w[1])
                    .expect("path step is not a network link")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn hypercube_distance_is_hamming() {
        let q = builders::hypercube(4);
        let rt = RouteTable::try_new(&q).expect("connected network");
        for u in 0..16u32 {
            for v in 0..16u32 {
                assert_eq!(rt.dist(ProcId(u), ProcId(v)), (u ^ v).count_ones());
            }
        }
    }

    #[test]
    fn next_hops_flip_one_wrong_bit() {
        let q = builders::hypercube(3);
        let rt = RouteTable::try_new(&q).expect("connected network");
        let hops = rt.next_hops(&q, ProcId(0), ProcId(0b101));
        let mut got: Vec<u32> = hops.iter().map(|p| p.0).collect();
        got.sort();
        assert_eq!(got, vec![0b001, 0b100]);
        assert!(rt.next_hops(&q, ProcId(3), ProcId(3)).is_empty());
    }

    #[test]
    fn path_count_is_hamming_factorial() {
        let q = builders::hypercube(3);
        let rt = RouteTable::try_new(&q).expect("connected network");
        // distance-k pairs in a hypercube have k! shortest paths
        assert_eq!(rt.count_shortest_paths(&q, ProcId(0), ProcId(0b111)), 6);
        assert_eq!(rt.count_shortest_paths(&q, ProcId(0), ProcId(0b011)), 2);
        assert_eq!(rt.count_shortest_paths(&q, ProcId(0), ProcId(0b010)), 1);
        assert_eq!(rt.count_shortest_paths(&q, ProcId(5), ProcId(5)), 1);
    }

    #[test]
    fn enumeration_matches_count_and_is_valid() {
        let q = builders::hypercube(3);
        let rt = RouteTable::try_new(&q).expect("connected network");
        let paths = rt.all_shortest_paths(&q, ProcId(0), ProcId(7), 100);
        assert_eq!(paths.len(), 6);
        for p in &paths {
            assert_eq!(p.len(), 4);
            assert_eq!(p[0], ProcId(0));
            assert_eq!(p[3], ProcId(7));
            // consecutive nodes adjacent
            let links = RouteTable::path_links(&q, p);
            assert_eq!(links.len(), 3);
        }
        // all distinct
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn enumeration_respects_cap() {
        let q = builders::hypercube(4);
        let rt = RouteTable::try_new(&q).expect("connected network");
        let paths = rt.all_shortest_paths(&q, ProcId(0), ProcId(15), 5);
        assert_eq!(paths.len(), 5);
    }

    #[test]
    fn first_path_is_ecube_on_hypercube() {
        let q = builders::hypercube(3);
        let rt = RouteTable::try_new(&q).expect("connected network");
        // 0 -> 7 flipping lowest bits first: 0,1,3,7
        let p = rt.first_path(&q, ProcId(0), ProcId(7));
        let ids: Vec<u32> = p.iter().map(|x| x.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 7]);
    }

    #[test]
    fn first_path_takes_the_lowest_numbered_hop_when_adjacency_is_unsorted() {
        // the mesh builder adds each node's down link before its right
        // link, so proc 4's adjacency lists 7 before 5
        let m = builders::mesh2d(3, 3);
        let rt = RouteTable::try_new(&m).expect("connected network");
        assert_eq!(
            rt.next_hops(&m, ProcId(4), ProcId(8)),
            vec![ProcId(7), ProcId(5)]
        );
        assert_eq!(
            rt.first_path(&m, ProcId(4), ProcId(8)),
            vec![ProcId(4), ProcId(5), ProcId(8)]
        );
    }

    #[test]
    fn mesh_path_count() {
        let m = builders::mesh2d(3, 3);
        let rt = RouteTable::try_new(&m).expect("connected network");
        // corner to corner on a 3x3 mesh: C(4,2) = 6 monotone lattice paths
        assert_eq!(rt.count_shortest_paths(&m, ProcId(0), ProcId(8)), 6);
        assert_eq!(
            rt.all_shortest_paths(&m, ProcId(0), ProcId(8), 100).len(),
            6
        );
    }

    #[test]
    fn try_new_reports_disconnection() {
        use crate::network::TopologyKind;
        let two = crate::Network::from_links("2islands", TopologyKind::Custom, 4, vec![(0, 1), (2, 3)]);
        match RouteTable::try_new(&two) {
            Err(crate::TopologyError::Disconnected { components }) => {
                assert_eq!(components.len(), 2);
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn try_new_works_on_connected() {
        let q = builders::hypercube(2);
        let rt = RouteTable::try_new(&q).expect("connected network");
        assert_eq!(rt.dist(ProcId(0), ProcId(3)), 2);
        assert!(rt.reachable(ProcId(0), ProcId(3)));
    }

    #[test]
    fn try_new_errs_on_disconnected() {
        use crate::network::TopologyKind;
        let two = crate::Network::from_links("2islands", TopologyKind::Custom, 4, vec![(0, 1), (2, 3)]);
        assert!(matches!(
            RouteTable::try_new(&two),
            Err(crate::TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn unreachable_queries_return_empty_not_overflow() {
        use crate::fault::FaultSet;
        // kill proc 1 on a 2-cube: the masked table keeps 0<->1 at the
        // u32::MAX sentinel; every query toward the corpse must come back
        // empty/zero instead of wrapping `MAX + 1` (panic in debug).
        let q = builders::hypercube(2);
        let d = q.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        let rt = d.route_table().unwrap();
        let dead = ProcId(1);
        assert_eq!(rt.dist(ProcId(0), dead), u32::MAX);
        assert!(!rt.reachable(ProcId(0), dead));
        assert!(rt.next_hops(d.network(), ProcId(0), dead).is_empty());
        assert!(rt.next_hops(d.network(), dead, ProcId(0)).is_empty());
        assert!(rt.all_shortest_paths(d.network(), ProcId(0), dead, 10).is_empty());
        assert_eq!(rt.count_shortest_paths(d.network(), ProcId(0), dead), 0);
        assert_eq!(rt.count_shortest_paths(d.network(), dead, ProcId(0)), 0);
        assert!(rt.first_path(d.network(), ProcId(0), dead).is_empty());
        // live pairs still route around the corpse
        assert_eq!(rt.dist(ProcId(0), ProcId(3)), 2);
        let p = rt.first_path(d.network(), ProcId(0), ProcId(3));
        assert_eq!(p.len(), 3);
        assert!(!p.contains(&dead));
    }

    #[test]
    fn dead_diagonal_is_trivially_reachable() {
        use crate::fault::FaultSet;
        let q = builders::hypercube(2);
        let d = q.degrade(&FaultSet::new().with_proc(ProcId(1))).unwrap();
        let rt = d.route_table().unwrap();
        // masked tables keep the diagonal at 0 even for dead processors
        assert_eq!(rt.dist(ProcId(1), ProcId(1)), 0);
        assert!(rt.next_hops(d.network(), ProcId(1), ProcId(1)).is_empty());
        assert_eq!(rt.count_shortest_paths(d.network(), ProcId(1), ProcId(1)), 1);
    }

    #[test]
    fn ring_two_paths_at_antipode() {
        let r = builders::ring(6);
        let rt = RouteTable::try_new(&r).expect("connected network");
        assert_eq!(rt.count_shortest_paths(&r, ProcId(0), ProcId(3)), 2);
        assert_eq!(rt.dist(ProcId(0), ProcId(3)), 3);
    }
}
