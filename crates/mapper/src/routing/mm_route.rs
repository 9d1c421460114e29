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
//! A round is Hopcroft–Karp over the waiting messages in message order
//! ([`Matcher::Maximum`], the default: a maximum matching, so the fewest
//! rounds), or its first phase alone, which is the paper's greedy maximal
//! matching ([`Matcher::GreedyMaximal`]).
//!
//! # Classes, not messages
//!
//! Messages that stand on the same processor and go to the same one —
//! a *class*, keyed by `(cur, dest)` — have the same row of candidate
//! links. A round works on classes, and it returns exactly the matching
//! the per-message formulation returns, message for message, because of
//! this lemma: *within one round, the matched members of a class are
//! always its first `k` in message order, and once a free member fails
//! as a search root in a phase, every later member fails in that phase
//! too, without changing anything.*
//! - The first phase is greedy: a root takes the first free link of its
//!   row, and once one member finds its row full, every later member
//!   does too.
//! - In a later phase every free message is a root at BFS layer 0, so
//!   every link in its class's row is matched to a layer-1 message. An
//!   augmentation re-points the first link of its path to the path's
//!   root (layer 0) and every later link to a message one layer nearer
//!   the roots, from a layer of 2 or more. So a link in a layer-0 row is
//!   only ever matched to a layer-1 message or a root. A failed root has
//!   tried every layer-1 owner in its row and found each dead for the
//!   phase, so its later twins meet only dead owners and roots.
//!
//! So per class a round keeps only how many members it has matched; the
//! free ones are the rest, a suffix. Matched messages are tracked one by
//! one (at most one per link). The BFS scans one row per class; a twin at
//! the same layer would scan nothing new. The DFS visits roots in message
//! order, one candidate per class at a time, through a bitset over the
//! level's message positions, and a class leaves the phase at its first
//! failure. The first phase runs without a BFS: nothing is matched yet,
//! so it could only report that an augmenting path exists. Classes are
//! found per hop level with a counting sort by `cur` and one
//! slot per destination; there is no `P²` table. The per-message
//! formulation is kept, test-side, as the oracle the paths and
//! `matching_rounds` are checked against (`tests/mm_route_oracle/`).
//!
//! A message whose destination is unreachable (a degraded machine) has an
//! empty row. It leaves the active set with its partial path, which
//! [`crate::Mapping::validate`] reports as a route that ends off the
//! receiver.

use oregami_graph::TaskGraph;
use oregami_topology::{LinkId, Network, ProcId, RouteTable};

/// Which bipartite matcher each round uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Matcher {
    /// Hopcroft–Karp maximum matching (default; fewest rounds).
    #[default]
    Maximum,
    /// Greedy maximal matching in message order — the paper's original
    /// formulation, and Hopcroft–Karp's first phase.
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
    // messages that still need to advance, in message order; each has
    // `hops` processors on its path so far
    let mut active: Vec<usize> = (0..edges.len())
        .filter(|&m| paths[m][0] != dests[m])
        .collect();
    let mut hops = 1;
    let mut ws = Workspace::new(net);
    let mut rounds = 0;
    while !active.is_empty() {
        ws.group(&active, &paths, &dests, net, table);
        // Assign every active message a link for THIS hop level via
        // repeated matchings.
        while !ws.open.is_empty() {
            ws.match_round(matcher);
            rounds += 1;
            ws.commit(&active, &mut paths, net);
        }
        // a message with an unreachable destination did not advance
        hops += 1;
        active.retain(|&m| paths[m].len() == hops && paths[m][hops - 1] != dests[m]);
    }
    RoutedPhase {
        paths,
        matching_rounds: rounds,
    }
}

/// "No matched message" in [`Workspace::owner`], "unreached" as a BFS
/// layer.
const NONE: u32 = u32::MAX;

/// A message matched in the current round.
#[derive(Clone, Copy)]
struct Matched {
    class: u32,
    /// Position in the hop level's active list.
    member: u32,
    link: u32,
    /// BFS layer in the current phase; 0 for a root matched in it.
    dist: u32,
}

/// The state of one `mm_route` call, reused across its hop levels and
/// rounds. Classes and members are indexed per hop level; a member is a
/// position in that level's active list.
struct Workspace {
    /// `hop_links[p]`: the link to each neighbour of `p`, in neighbour
    /// order, resolved the first time a message stands on `p`.
    hop_links: Vec<Vec<u32>>,
    /// Active positions bucketed by `cur` (a counting sort): bucket `p`
    /// ends at `bucket_end[p]` and starts where bucket `p - 1` ends.
    bucket_end: Vec<u32>,
    bucket: Vec<u32>,
    /// `slot[d]`: the class opened for destination `d` in the bucket
    /// numbered `slot_gen[d]`.
    slot: Vec<u32>,
    slot_gen: Vec<u32>,
    gen: u32,
    /// Where each class's messages stand.
    cur: Vec<ProcId>,
    /// Class `k`'s candidate links are `row[row_at[k]..row_at[k + 1]]`.
    row_at: Vec<u32>,
    row: Vec<u32>,
    /// Class `k`'s members, ascending, are
    /// `members[member_at[k]..member_at[k + 1]]`.
    member_at: Vec<u32>,
    members: Vec<u32>,
    class_of: Vec<u32>,
    /// Members of each class matched in earlier rounds of the level.
    served: Vec<u32>,
    /// Members of each class matched in the current round.
    taken: Vec<u32>,
    /// Classes with a non-empty row and members left to serve.
    open: Vec<u32>,
    /// The matched message holding each link this round, or [`NONE`].
    owner: Vec<u32>,
    matched: Vec<Matched>,
    /// DFS roots waiting in the current phase, by active position.
    roots: Vec<u64>,
    queue: Vec<u32>,
    /// The BFS that last scanned each class's row.
    scanned: Vec<u32>,
    bfs: u32,
}

impl Workspace {
    fn new(net: &Network) -> Workspace {
        let p = net.num_procs();
        Workspace {
            hop_links: vec![Vec::new(); p],
            bucket_end: Vec::new(),
            bucket: Vec::new(),
            slot: vec![0; p],
            slot_gen: vec![0; p],
            gen: 0,
            cur: Vec::new(),
            row_at: Vec::new(),
            row: Vec::new(),
            member_at: Vec::new(),
            members: Vec::new(),
            class_of: Vec::new(),
            served: Vec::new(),
            taken: Vec::new(),
            open: Vec::new(),
            owner: vec![NONE; net.num_links()],
            matched: Vec::new(),
            roots: Vec::new(),
            queue: Vec::new(),
            scanned: Vec::new(),
            bfs: 0,
        }
    }

    /// Groups one hop level's active messages into classes, in order of
    /// `cur` and then of first member, and builds each class's row.
    fn group(
        &mut self,
        active: &[usize],
        paths: &[Vec<ProcId>],
        dests: &[ProcId],
        net: &Network,
        table: &RouteTable,
    ) {
        let cur_of = |pos: usize| *paths[active[pos]].last().unwrap();
        self.bucket_end.clear();
        self.bucket_end.resize(net.num_procs() + 1, 0);
        for pos in 0..active.len() {
            self.bucket_end[cur_of(pos).index() + 1] += 1;
        }
        for p in 1..self.bucket_end.len() {
            self.bucket_end[p] += self.bucket_end[p - 1];
        }
        self.bucket.resize(active.len(), 0);
        for pos in 0..active.len() {
            let at = &mut self.bucket_end[cur_of(pos).index()];
            self.bucket[*at as usize] = pos as u32;
            *at += 1;
        }

        self.cur.clear();
        self.row_at.clear();
        self.row_at.push(0);
        self.row.clear();
        self.member_at.clear();
        self.member_at.push(0);
        self.class_of.resize(active.len(), 0);
        let mut start = 0;
        for p in 0..net.num_procs() {
            let end = self.bucket_end[p] as usize;
            if start == end {
                continue;
            }
            self.gen += 1;
            let cur = ProcId(p as u32);
            for &pos in &self.bucket[start..end] {
                let dest = dests[active[pos as usize]].index();
                if self.slot_gen[dest] != self.gen {
                    self.slot_gen[dest] = self.gen;
                    self.slot[dest] = self.cur.len() as u32;
                    self.cur.push(cur);
                    candidate_links(
                        net,
                        table,
                        &mut self.hop_links,
                        cur,
                        ProcId(dest as u32),
                        &mut self.row,
                    );
                    self.row_at.push(self.row.len() as u32);
                    self.member_at.push(0);
                }
                let k = self.slot[dest];
                self.class_of[pos as usize] = k;
                self.member_at[k as usize + 1] += 1;
            }
            start = end;
        }

        let classes = self.cur.len();
        for k in 0..classes {
            self.member_at[k + 1] += self.member_at[k];
        }
        self.members.resize(active.len(), 0);
        self.taken.clear();
        self.taken.resize(classes, 0);
        for (pos, &k) in self.class_of.iter().enumerate() {
            let k = k as usize;
            self.members[(self.member_at[k] + self.taken[k]) as usize] = pos as u32;
            self.taken[k] += 1;
        }
        self.taken.fill(0);
        self.served.clear();
        self.served.resize(classes, 0);
        self.scanned.clear();
        self.scanned.resize(classes, 0);
        self.open.clear();
        self.open.extend(
            (0..classes as u32).filter(|&k| self.row_at[k as usize] < self.row_at[k as usize + 1]),
        );
        self.roots.clear();
        self.roots.resize(active.len().div_ceil(64), 0);
    }

    /// The next free member of class `k` this round, if any.
    fn next_free(&self, k: usize) -> Option<u32> {
        let at = self.member_at[k] + self.served[k] + self.taken[k];
        (at < self.member_at[k + 1]).then(|| self.members[at as usize])
    }

    fn row_of(&self, k: usize) -> std::ops::Range<usize> {
        self.row_at[k] as usize..self.row_at[k + 1] as usize
    }

    /// One matching round over the open classes: Hopcroft–Karp's phases
    /// until no augmenting path is left, or only its first phase.
    fn match_round(&mut self, matcher: Matcher) {
        self.dfs_phase();
        if matcher == Matcher::Maximum {
            while self.bfs_layers() {
                self.dfs_phase();
            }
        }
    }

    /// Hopcroft–Karp's BFS: layers every matched message reachable from a
    /// free one; true when some free link is reachable.
    fn bfs_layers(&mut self) -> bool {
        self.bfs += 1;
        for m in &mut self.matched {
            m.dist = NONE;
        }
        self.queue.clear();
        let mut found = false;
        for i in 0..self.open.len() {
            let k = self.open[i] as usize;
            if self.next_free(k).is_some() {
                self.scanned[k] = self.bfs;
                found |= self.scan(k, 0);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let m = self.matched[self.queue[head] as usize];
            head += 1;
            let k = m.class as usize;
            if self.scanned[k] != self.bfs {
                self.scanned[k] = self.bfs;
                found |= self.scan(k, m.dist);
            }
        }
        found
    }

    /// Puts the unreached owners of class `k`'s links on layer `dist + 1`;
    /// true when one of the links is free.
    fn scan(&mut self, k: usize, dist: u32) -> bool {
        let mut free = false;
        for i in self.row_of(k) {
            match self.owner[self.row[i] as usize] {
                NONE => free = true,
                r => {
                    if self.matched[r as usize].dist == NONE {
                        self.matched[r as usize].dist = dist + 1;
                        self.queue.push(r);
                    }
                }
            }
        }
        free
    }

    /// Hopcroft–Karp's DFS: tries the free messages as roots in message
    /// order, each class's next free member once the one before it is
    /// matched.
    fn dfs_phase(&mut self) {
        for i in 0..self.open.len() {
            if let Some(pos) = self.next_free(self.open[i] as usize) {
                self.roots[pos as usize / 64] |= 1 << (pos % 64);
            }
        }
        for w in 0..self.roots.len() {
            while self.roots[w] != 0 {
                let pos = (w * 64) as u32 + self.roots[w].trailing_zeros();
                self.roots[w] &= self.roots[w] - 1;
                let k = self.class_of[pos as usize] as usize;
                if self.try_root(k, pos) {
                    self.taken[k] += 1;
                    // a later position: this scan or a later one meets it
                    if let Some(next) = self.next_free(k) {
                        self.roots[next as usize / 64] |= 1 << (next % 64);
                    }
                }
            }
        }
    }

    /// Matches the free member at `pos` of class `k` along an augmenting
    /// path, if there is one.
    fn try_root(&mut self, k: usize, pos: u32) -> bool {
        for i in self.row_of(k) {
            let link = self.row[i];
            let r = self.owner[link as usize];
            if r == NONE || (self.matched[r as usize].dist == 1 && self.augment(r)) {
                self.owner[link as usize] = self.matched.len() as u32;
                self.matched.push(Matched {
                    class: k as u32,
                    member: pos,
                    link,
                    dist: 0,
                });
                return true;
            }
        }
        false
    }

    /// Moves matched message `r` to another link of its row, through the
    /// next layer; on failure it is dead for the rest of the phase.
    fn augment(&mut self, r: u32) -> bool {
        let Matched { class, dist, .. } = self.matched[r as usize];
        for i in self.row_of(class as usize) {
            let link = self.row[i];
            let next = self.owner[link as usize];
            if next == NONE || (self.matched[next as usize].dist == dist + 1 && self.augment(next))
            {
                self.matched[r as usize].link = link;
                self.owner[link as usize] = r;
                return true;
            }
        }
        self.matched[r as usize].dist = NONE;
        false
    }

    /// Advances every message matched this round one hop, frees the links
    /// and closes the classes with no member left.
    fn commit(&mut self, active: &[usize], paths: &mut [Vec<ProcId>], net: &Network) {
        debug_assert!(
            !self.matched.is_empty(),
            "every open class has a candidate link"
        );
        for m in self.matched.drain(..) {
            let (a, b) = net.link_endpoints(LinkId(m.link));
            let cur = self.cur[m.class as usize];
            paths[active[m.member as usize]].push(if a == cur { b } else { a });
            self.owner[m.link as usize] = NONE;
        }
        let (served, taken, member_at) = (&mut self.served, &mut self.taken, &self.member_at);
        self.open.retain(|&k| {
            let k = k as usize;
            served[k] += std::mem::take(&mut taken[k]);
            served[k] < member_at[k + 1] - member_at[k]
        });
    }
}

/// Appends to `row` the links a message standing on `cur` may take
/// towards `dest`: one per neighbour on some shortest path, in neighbour
/// order — the links of [`RouteTable::next_hops`], read off `hop_links`
/// instead of one [`Network::link_between`] lookup per candidate. None
/// when `dest` is unreachable.
fn candidate_links(
    net: &Network,
    table: &RouteTable,
    hop_links: &mut [Vec<u32>],
    cur: ProcId,
    dest: ProcId,
    row: &mut Vec<u32>,
) {
    let d = table.dist(cur, dest);
    if d == u32::MAX {
        return;
    }
    let links = &mut hop_links[cur.index()];
    if links.is_empty() {
        links.extend(
            net.neighbors(cur)
                .map(|w| net.link_between(cur, w).expect("next hop must be a link").0),
        );
    }
    row.extend(
        net.neighbors(cur)
            .zip(links.iter())
            .filter(|&(w, _)| table.dist(w, dest).checked_add(1) == Some(d))
            .map(|(_, &link)| link),
    );
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
    use oregami_topology::{builders, FaultSet};

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

    /// Processor 5 of a 3-cube has failed, so a message from 0 to 5 has
    /// no candidate link: it keeps its partial path, and validation
    /// reports it instead of the router panicking.
    fn unreachable_destination(matcher: Matcher) {
        let degraded = builders::hypercube(3)
            .degrade(&FaultSet::new().with_proc(ProcId(5)))
            .expect("valid fault set");
        let table = degraded.route_table().expect("survivors stay connected");
        let net = degraded.network();
        let mut tg = TaskGraph::new("to-the-dead");
        tg.add_scalar_nodes("t", 2);
        let p = tg.add_phase("p");
        tg.add_edge(p, TaskId::new(0), TaskId::new(1), 1);
        let assignment = vec![ProcId(0), ProcId(5)];
        let routed = mm_route(&tg, 0, &assignment, net, &table, matcher);
        assert_eq!(routed.paths, vec![vec![ProcId(0)]]);
        assert_eq!(routed.matching_rounds, 0);
        let mapping = crate::Mapping {
            assignment,
            routes: vec![routed.paths],
        };
        assert_eq!(
            mapping.validate(&tg, net),
            Err(crate::MappingError::RouteEndsOffReceiver { phase: 0, edge: 0 })
        );
    }

    #[test]
    fn unreachable_destination_leaves_a_partial_path_with_maximum_matching() {
        unreachable_destination(Matcher::Maximum);
    }

    #[test]
    fn unreachable_destination_leaves_a_partial_path_with_greedy_matching() {
        unreachable_destination(Matcher::GreedyMaximal);
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
