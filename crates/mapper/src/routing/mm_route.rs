//! Algorithm MM-Route (paper §4.4): contention-minimising routing via
//! repeated bipartite matchings.
//!
//! For each communication phase (a set of synchronous messages) the router
//! advances all messages one hop at a time. At each hop level it builds the
//! bipartite graph `G = (X, Y, E)` of the paper's Fig 6c — `X` the messages
//! still needing this hop, `Y` the network links, with an edge whenever a
//! link can serve as the message's next hop on *some* shortest path — and
//! repeatedly extracts a matching, removing matched messages, until every
//! message has a link for this hop. Each matching round uses a link at most
//! once, which is what spreads synchronous messages across distinct links
//! and keeps contention low.
//!
//! The paper's formulation uses a *maximal* matching (`O(|X|²|Y|)`) — kept
//! here as [`Matcher::GreedyMaximal`] for the faithful variant and the
//! ablation benchmark. The default [`Matcher::Maximum`] uses Hopcroft–Karp,
//! which can only reduce the number of rounds.

use oregami_graph::TaskGraph;
use oregami_matching::{greedy_bipartite_matching, hopcroft_karp};
use oregami_topology::{Network, ProcId, RouteTable};

/// Which bipartite matcher each round uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Matcher {
    /// Hopcroft–Karp maximum matching (default; fewest rounds).
    #[default]
    Maximum,
    /// Greedy maximal matching — the paper's original formulation.
    GreedyMaximal,
}

/// The routed paths of one communication phase.
#[derive(Clone, Debug)]
pub struct RoutedPhase {
    /// `paths[edge_index]` = processor path (sender's processor first).
    pub paths: Vec<Vec<ProcId>>,
    /// Total number of matching rounds across all hop levels (the quantity
    /// the paper's complexity bound is about).
    pub matching_rounds: usize,
}

/// Routes one phase of `tg` under the given task→processor `assignment`.
pub fn mm_route(
    tg: &TaskGraph,
    phase: usize,
    assignment: &[ProcId],
    net: &Network,
    table: &RouteTable,
    matcher: Matcher,
) -> RoutedPhase {
    let edges = &tg.comm_phases[phase].edges;
    let mut paths: Vec<Vec<ProcId>> = edges
        .iter()
        .map(|e| vec![assignment[e.src.index()]])
        .collect();
    let dests: Vec<ProcId> = edges.iter().map(|e| assignment[e.dst.index()]).collect();
    let mut rounds = 0;
    // `hop_links[p]`: the link to each neighbour of `p`, in neighbour
    // order, resolved the first time a message stands on `p`.
    let mut hop_links: Vec<Vec<usize>> = Vec::new();

    loop {
        // messages that still need to advance
        let active: Vec<usize> = (0..edges.len())
            .filter(|&m| *paths[m].last().unwrap() != dests[m])
            .collect();
        if active.is_empty() {
            break;
        }
        hop_links.resize(net.num_procs(), Vec::new());
        // The bipartite graph: left = messages, right = links. A message's
        // candidate links depend only on where it stands and where it is
        // going, neither of which changes within a hop level, so they are
        // computed here once and the rounds below only drop the rows of
        // the messages already served.
        let mut adj: Vec<Vec<usize>> = active
            .iter()
            .map(|&m| {
                let cur = *paths[m].last().unwrap();
                candidate_links(net, table, &mut hop_links, cur, dests[m])
            })
            .collect();
        // Assign every active message a link for THIS hop level via
        // repeated matchings.
        let mut unassigned: Vec<usize> = active;
        let mut chosen: Vec<Option<ProcId>> = vec![None; edges.len()];
        while !unassigned.is_empty() {
            let matching = match matcher {
                Matcher::Maximum => hopcroft_karp(unassigned.len(), net.num_links(), &adj),
                Matcher::GreedyMaximal => {
                    greedy_bipartite_matching(unassigned.len(), net.num_links(), &adj)
                }
            };
            rounds += 1;
            let mut still = Vec::new();
            let mut still_adj = Vec::new();
            for (x, &m) in unassigned.iter().enumerate() {
                match matching.left_to_right[x] {
                    Some(link) => {
                        let (a, b) = net.link_endpoints(oregami_topology::LinkId(link as u32));
                        let cur = *paths[m].last().unwrap();
                        let next = if a == cur { b } else { a };
                        chosen[m] = Some(next);
                    }
                    None => {
                        still.push(m);
                        still_adj.push(std::mem::take(&mut adj[x]));
                    }
                }
            }
            assert!(
                still.len() < unassigned.len(),
                "matching made no progress — every active message has a candidate link"
            );
            unassigned = still;
            adj = still_adj;
        }
        // advance all messages one hop
        for (m, c) in chosen.iter().enumerate() {
            if let Some(next) = c {
                paths[m].push(*next);
            }
        }
    }
    RoutedPhase {
        paths,
        matching_rounds: rounds,
    }
}

/// The links a message standing on `cur` may take towards `dest`: one per
/// neighbour on some shortest path, in neighbour order — the links of
/// [`RouteTable::next_hops`], read off `hop_links` instead of one
/// [`Network::link_between`] lookup per candidate. Empty when `dest` is
/// unreachable.
fn candidate_links(
    net: &Network,
    table: &RouteTable,
    hop_links: &mut [Vec<usize>],
    cur: ProcId,
    dest: ProcId,
) -> Vec<usize> {
    let d = table.dist(cur, dest);
    if d == u32::MAX {
        return Vec::new();
    }
    let links = &mut hop_links[cur.index()];
    if links.is_empty() {
        links.extend(net.neighbors(cur).map(|w| {
            net.link_between(cur, w)
                .expect("next hop must be a link")
                .index()
        }));
    }
    net.neighbors(cur)
        .zip(links.iter())
        .filter(|&(w, _)| table.dist(w, dest).checked_add(1) == Some(d))
        .map(|(_, &link)| link)
        .collect()
}

/// Routes every phase of `tg`, producing the `routes` field of a
/// [`crate::Mapping`].
pub fn route_all_phases(
    tg: &TaskGraph,
    assignment: &[ProcId],
    net: &Network,
    table: &RouteTable,
    matcher: Matcher,
) -> Vec<Vec<Vec<ProcId>>> {
    (0..tg.num_phases())
        .map(|k| mm_route(tg, k, assignment, net, table, matcher).paths)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::max_contention;
    use oregami_graph::{Family, TaskId};
    use oregami_topology::builders;

    /// The paper's Fig 6 scenario: the 15-body problem's chordal phase on
    /// an 8-processor hypercube. Tasks 0..14; chordal partner i -> i+8 mod
    /// 15.
    fn fig6_setup() -> (TaskGraph, Vec<ProcId>) {
        let mut tg = TaskGraph::new("nbody15-chordal");
        tg.add_scalar_nodes("body", 15);
        let p = tg.add_phase("chordal");
        for i in 0..15usize {
            tg.add_edge(p, TaskId::new(i), TaskId::new((i + 8) % 15), 1);
        }
        // Contract 15 tasks onto 8 processors: pair (i, i+8) for i<7 — the
        // chordal partners — would internalise everything; to exercise the
        // router, use the ring-contiguous contraction instead: tasks 2i and
        // 2i+1 on processor i (task 14 alone on processor 7).
        let assignment: Vec<ProcId> = (0..15).map(|i| ProcId((i / 2) as u32)).collect();
        (tg, assignment)
    }

    #[test]
    fn fig6_all_messages_routed_shortest() {
        let (tg, assignment) = fig6_setup();
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routed = mm_route(&tg, 0, &assignment, &net, &table, Matcher::Maximum);
        assert_eq!(routed.paths.len(), 15);
        for (i, e) in tg.comm_phases[0].edges.iter().enumerate() {
            let path = &routed.paths[i];
            let from = assignment[e.src.index()];
            let to = assignment[e.dst.index()];
            assert_eq!(path[0], from);
            assert_eq!(*path.last().unwrap(), to);
            // shortest: hop count equals hypercube distance
            assert_eq!(path.len() as u32 - 1, table.dist(from, to));
        }
    }

    #[test]
    fn contention_no_worse_than_baseline() {
        let (tg, assignment) = fig6_setup();
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routed = mm_route(&tg, 0, &assignment, &net, &table, Matcher::Maximum);
        let baseline = crate::routing::baseline_route(&tg, 0, &assignment, &net, &table);
        let c_mm = max_contention(&net, &routed.paths);
        let c_base = max_contention(&net, &baseline);
        assert!(
            c_mm <= c_base,
            "MM-Route contention {c_mm} must not exceed e-cube baseline {c_base}"
        );
    }

    #[test]
    fn local_messages_have_trivial_paths() {
        let tg = Family::Ring(4).build();
        // all tasks on one processor
        let assignment = vec![ProcId(0); 4];
        let net = builders::hypercube(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routed = mm_route(&tg, 0, &assignment, &net, &table, Matcher::Maximum);
        assert!(routed.paths.iter().all(|p| p.len() == 1));
        assert_eq!(routed.matching_rounds, 0);
    }

    #[test]
    fn one_way_dimension_exchange_gets_contention_1() {
        // Even tasks send across bit 0: four messages, four distinct
        // links — MM-Route must achieve contention exactly 1 in one round.
        let mut tg = TaskGraph::new("xchg");
        tg.add_scalar_nodes("t", 8);
        let p = tg.add_phase("dim0");
        for i in (0..8usize).step_by(2) {
            tg.add_edge(p, TaskId::new(i), TaskId::new(i ^ 1), 1);
        }
        let assignment: Vec<ProcId> = (0..8).map(|i| ProcId(i as u32)).collect();
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routed = mm_route(&tg, 0, &assignment, &net, &table, Matcher::Maximum);
        assert_eq!(max_contention(&net, &routed.paths), 1);
        assert_eq!(routed.matching_rounds, 1);
    }

    #[test]
    fn full_exchange_needs_two_rounds_on_undirected_links() {
        // Every task sends across bit 0: the two antiparallel messages of
        // each pair share one undirected link, so contention 2 is the
        // optimum and MM-Route reaches it in exactly two matching rounds.
        let mut tg = TaskGraph::new("xchg2");
        tg.add_scalar_nodes("t", 8);
        let p = tg.add_phase("dim0");
        for i in 0..8usize {
            tg.add_edge(p, TaskId::new(i), TaskId::new(i ^ 1), 1);
        }
        let assignment: Vec<ProcId> = (0..8).map(|i| ProcId(i as u32)).collect();
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routed = mm_route(&tg, 0, &assignment, &net, &table, Matcher::Maximum);
        assert_eq!(max_contention(&net, &routed.paths), 2);
        assert_eq!(routed.matching_rounds, 2);
    }

    #[test]
    fn greedy_matcher_also_routes_everything() {
        let (tg, assignment) = fig6_setup();
        let net = builders::hypercube(3);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routed = mm_route(&tg, 0, &assignment, &net, &table, Matcher::GreedyMaximal);
        for path in &routed.paths {
            assert!(!path.is_empty());
        }
        // greedy needs at least as many rounds as maximum matching
        let routed_max = mm_route(&tg, 0, &assignment, &net, &table, Matcher::Maximum);
        assert!(routed.matching_rounds >= routed_max.matching_rounds);
    }

    #[test]
    fn route_all_phases_covers_every_phase() {
        let tg = Family::Hypercube(2).build();
        let assignment: Vec<ProcId> = (0..4).map(|i| ProcId(i as u32)).collect();
        let net = builders::hypercube(2);
        let table = RouteTable::try_new(&net).expect("connected network");
        let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
        assert_eq!(routes.len(), tg.num_phases());
        assert_eq!(routes[0].len(), tg.comm_phases[0].edges.len());
    }
}
