//! `mm_route` as it was before it matched classes of messages: every
//! matching round rebuilds every waiting message's candidate list from
//! `next_hops` and `link_between` and runs the per-message bipartite
//! matcher of `oregami-matching`'s `tests/bipartite/` over them. The
//! router must return the same paths and the same number of rounds.
//! Included by `prop_general_path.rs` and by `oregami-bench`'s
//! `mm_route_classes.rs`.

#[path = "../../../matching/tests/bipartite/mod.rs"]
mod bipartite;

use bipartite::{greedy_bipartite_matching, hopcroft_karp};
use oregami_graph::TaskGraph;
use oregami_mapper::routing::Matcher;
use oregami_topology::{LinkId, Network, ProcId, RouteTable};

/// Routes one phase the per-message way; returns the paths and the
/// number of matching rounds.
pub fn reference_mm_route(
    tg: &TaskGraph,
    phase: usize,
    assignment: &[ProcId],
    net: &Network,
    table: &RouteTable,
    matcher: Matcher,
) -> (Vec<Vec<ProcId>>, usize) {
    let edges = &tg.comm_phases[phase].edges;
    let mut paths: Vec<Vec<ProcId>> = edges
        .iter()
        .map(|e| vec![assignment[e.src.index()]])
        .collect();
    let dests: Vec<ProcId> = edges.iter().map(|e| assignment[e.dst.index()]).collect();
    let mut rounds = 0;
    loop {
        let active: Vec<usize> = (0..edges.len())
            .filter(|&m| *paths[m].last().unwrap() != dests[m])
            .collect();
        if active.is_empty() {
            break;
        }
        let mut unassigned: Vec<usize> = active;
        let mut chosen: Vec<Option<ProcId>> = vec![None; edges.len()];
        while !unassigned.is_empty() {
            let adj: Vec<Vec<usize>> = unassigned
                .iter()
                .map(|&m| {
                    let cur = *paths[m].last().unwrap();
                    table
                        .next_hops(net, cur, dests[m])
                        .into_iter()
                        .map(|next| net.link_between(cur, next).unwrap().index())
                        .collect()
                })
                .collect();
            let matching = match matcher {
                Matcher::Maximum => hopcroft_karp(unassigned.len(), net.num_links(), &adj),
                Matcher::GreedyMaximal => {
                    greedy_bipartite_matching(unassigned.len(), net.num_links(), &adj)
                }
            };
            rounds += 1;
            let mut still = Vec::new();
            for (x, &m) in unassigned.iter().enumerate() {
                match matching.left_to_right[x] {
                    Some(link) => {
                        let (a, b) = net.link_endpoints(LinkId(link as u32));
                        let cur = *paths[m].last().unwrap();
                        chosen[m] = Some(if a == cur { b } else { a });
                    }
                    None => still.push(m),
                }
            }
            assert!(still.len() < unassigned.len());
            unassigned = still;
        }
        for (m, c) in chosen.iter().enumerate() {
            if let Some(next) = c {
                paths[m].push(*next);
            }
        }
    }
    (paths, rounds)
}
