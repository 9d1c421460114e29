//! Plain undirected weighted graphs.
//!
//! The general contraction algorithms (paper §4.3) operate on an undirected
//! view of the task graph in which all message volumes between a pair of
//! tasks — in either direction, in any phase — are summed into a single edge
//! weight. [`WeightedGraph`] is that view. It is also the shape of the
//! intermediate "cluster graphs" built during greedy merging and multilevel
//! coarsening.
//!
//! The structure is deliberately flat: edges live in one `Vec`, adjacency is
//! per-node lists of `(neighbor, edge index)` pairs, and the quotient-graph
//! build is a counting sort + epoch-marker dedup with no hashing anywhere.
//! This keeps coarsening a 1M-edge graph at `O(V + E)` allocations per level
//! instead of rehashing every edge.

/// An undirected weighted edge `{u, v}` with weight `w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WEdge {
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Edge weight (accumulated communication volume).
    pub w: u64,
}

/// An undirected weighted simple graph on `n` nodes.
///
/// Edges are stored once with `u < v`;
/// [`add_or_accumulate`](WeightedGraph::add_or_accumulate) merges parallel edges by summing
/// weights (saturating at `u64::MAX`), so the graph is always simple.
#[derive(Clone, Debug, Default)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<WEdge>,
    /// `adj[u]` lists `(neighbor, index into edges)` for every edge at `u`.
    adj: Vec<Vec<(u32, u32)>>,
}

impl WeightedGraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of (merged) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (each undirected edge appears once, `u < v`).
    #[inline]
    pub fn edges(&self) -> &[WEdge] {
        &self.edges
    }

    /// Adds weight `w` to the undirected edge `{u, v}`, creating it if
    /// absent. Self-loops are ignored. Zero-weight additions still create
    /// the edge (an unweighted adjacency). Accumulation saturates rather
    /// than overflowing on adversarial volumes.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn add_or_accumulate(&mut self, u: usize, v: usize, w: u64) {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        if u == v {
            return;
        }
        // Scan the shorter adjacency list; bounded-degree graphs make this
        // effectively O(1) and it avoids any hashing on the hot path.
        let probe = if self.adj[u].len() <= self.adj[v].len() { u } else { v };
        let target = (u ^ v ^ probe) as u32;
        if let Some(&(_, ei)) = self.adj[probe].iter().find(|&&(nb, _)| nb == target) {
            let e = &mut self.edges[ei as usize];
            e.w = e.w.saturating_add(w);
            return;
        }
        let ei = self.edges.len() as u32;
        self.edges.push(WEdge {
            u: u.min(v),
            v: u.max(v),
            w,
        });
        self.adj[u].push((v as u32, ei));
        self.adj[v].push((u as u32, ei));
    }

    /// The weight of edge `{u, v}`, or 0 if absent (or if `u == v`).
    pub fn weight_between(&self, u: usize, v: usize) -> u64 {
        if u == v || u >= self.n || v >= self.n {
            return 0;
        }
        let probe = if self.adj[u].len() <= self.adj[v].len() { u } else { v };
        let target = (u ^ v ^ probe) as u32;
        self.adj[probe]
            .iter()
            .find(|&&(nb, _)| nb == target)
            .map_or(0, |&(_, ei)| self.edges[ei as usize].w)
    }

    /// Sum of all edge weights (the total communication volume of the
    /// collapsed task graph). Saturating.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().fold(0u64, |a, e| a.saturating_add(e.w))
    }

    /// Neighbors of `u` with the connecting edge weights.
    pub fn neighbors(&self, u: usize) -> Vec<(usize, u64)> {
        self.adj[u]
            .iter()
            .map(|&(nb, ei)| (nb as usize, self.edges[ei as usize].w))
            .collect()
    }

    /// Visits each `(neighbor, weight)` of `u` without allocating.
    pub fn for_each_neighbor(&self, u: usize, mut f: impl FnMut(usize, u64)) {
        for &(nb, ei) in &self.adj[u] {
            f(nb as usize, self.edges[ei as usize].w);
        }
    }

    /// Degree of `u` (number of incident edges).
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree of `u` (sum of incident edge weights, saturating).
    pub fn weighted_degree(&self, u: usize) -> u64 {
        self.adj[u]
            .iter()
            .fold(0u64, |a, &(_, ei)| a.saturating_add(self.edges[ei as usize].w))
    }

    /// Returns the edges sorted by non-increasing weight (ties broken by
    /// endpoint order for determinism). This is the scan order of the greedy
    /// contraction heuristic. An edge is its `(w, u, v)`, so the unstable
    /// sort gives the same order a stable one would.
    pub fn edges_by_weight_desc(&self) -> Vec<WEdge> {
        let mut es = self.edges.clone();
        es.sort_unstable_by(|a, b| b.w.cmp(&a.w).then(a.u.cmp(&b.u)).then(a.v.cmp(&b.v)));
        es
    }

    /// Builds the quotient graph induced by a partition of the nodes into
    /// clusters: node `i` of the result is cluster `i`, and the weight
    /// between clusters is the (saturating) sum of the weights of all
    /// crossing edges. Intra-cluster weight is returned separately as the
    /// "internalised" volume.
    ///
    /// Runs in `O(V + E)` with no hashing: crossing edges are counting-sorted
    /// into per-cluster buckets keyed on the smaller cluster id, then merged
    /// with an epoch-marker array. The result's edge order is therefore
    /// bucket order (ascending smaller endpoint, first-seen neighbor), which
    /// is deterministic.
    ///
    /// `cluster_of[u]` must be a cluster index in `0..num_clusters`.
    pub fn quotient(&self, cluster_of: &[usize], num_clusters: usize) -> (WeightedGraph, u64) {
        assert_eq!(cluster_of.len(), self.n);
        let mut internal = 0u64;
        // Pass 1: bucket counts (cross edges keyed on the smaller cluster).
        let mut count = vec![0u32; num_clusters + 1];
        for e in &self.edges {
            let cu = cluster_of[e.u];
            let cv = cluster_of[e.v];
            assert!(cu < num_clusters && cv < num_clusters, "bad cluster index");
            if cu == cv {
                internal = internal.saturating_add(e.w);
            } else {
                count[cu.min(cv) + 1] += 1;
            }
        }
        for c in 0..num_clusters {
            count[c + 1] += count[c];
        }
        // Pass 2: scatter cross edges into the buckets.
        let cross = count[num_clusters] as usize;
        let mut other = vec![0u32; cross];
        let mut wt = vec![0u64; cross];
        let mut cursor = count[..num_clusters].to_vec();
        for e in &self.edges {
            let cu = cluster_of[e.u];
            let cv = cluster_of[e.v];
            if cu != cv {
                let at = cursor[cu.min(cv)] as usize;
                other[at] = cu.max(cv) as u32;
                wt[at] = e.w;
                cursor[cu.min(cv)] += 1;
            }
        }
        // Pass 3: per-bucket dedup via epoch markers (epoch = bucket id).
        let mut q = WeightedGraph::new(num_clusters);
        let mut mark = vec![u32::MAX; num_clusters];
        let mut slot = vec![0u32; num_clusters];
        for c in 0..num_clusters {
            for i in count[c] as usize..count[c + 1] as usize {
                let o = other[i] as usize;
                if mark[o] == c as u32 {
                    let e = &mut q.edges[slot[o] as usize];
                    e.w = e.w.saturating_add(wt[i]);
                } else {
                    mark[o] = c as u32;
                    let ei = q.edges.len() as u32;
                    slot[o] = ei;
                    q.edges.push(WEdge { u: c, v: o, w: wt[i] });
                    q.adj[c].push((o as u32, ei));
                    q.adj[o].push((c as u32, ei));
                }
            }
        }
        (q, internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_merges_parallel_edges() {
        let mut g = WeightedGraph::new(3);
        g.add_or_accumulate(0, 1, 4);
        g.add_or_accumulate(1, 0, 6);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight_between(0, 1), 10);
        assert_eq!(g.total_weight(), 10);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = WeightedGraph::new(2);
        g.add_or_accumulate(1, 1, 100);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn neighbors_and_degree() {
        let mut g = WeightedGraph::new(4);
        g.add_or_accumulate(0, 1, 1);
        g.add_or_accumulate(0, 2, 2);
        g.add_or_accumulate(3, 0, 3);
        let mut nb = g.neighbors(0);
        nb.sort();
        assert_eq!(nb, vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(g.weighted_degree(0), 6);
        assert_eq!(g.weighted_degree(1), 1);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn edges_sorted_desc() {
        let mut g = WeightedGraph::new(4);
        g.add_or_accumulate(0, 1, 5);
        g.add_or_accumulate(1, 2, 9);
        g.add_or_accumulate(2, 3, 7);
        let es = g.edges_by_weight_desc();
        let ws: Vec<u64> = es.iter().map(|e| e.w).collect();
        assert_eq!(ws, vec![9, 7, 5]);
    }

    #[test]
    fn quotient_splits_internal_and_cut() {
        let mut g = WeightedGraph::new(4);
        g.add_or_accumulate(0, 1, 5); // internal to cluster 0
        g.add_or_accumulate(2, 3, 7); // internal to cluster 1
        g.add_or_accumulate(1, 2, 9); // cut
        g.add_or_accumulate(0, 3, 1); // cut
        let (q, internal) = g.quotient(&[0, 0, 1, 1], 2);
        assert_eq!(internal, 12);
        assert_eq!(q.num_nodes(), 2);
        assert_eq!(q.weight_between(0, 1), 10);
    }

    #[test]
    fn quotient_matches_naive_on_a_dense_partition() {
        // Cross-check the flat counting-sort build against per-pair lookups.
        let mut g = WeightedGraph::new(9);
        for u in 0..9usize {
            for v in (u + 1)..9 {
                g.add_or_accumulate(u, v, (u * 10 + v) as u64);
            }
        }
        let cluster_of: Vec<usize> = (0..9).map(|u| u % 3).collect();
        let (q, internal) = g.quotient(&cluster_of, 3);
        let mut want_internal = 0u64;
        let mut want = [[0u64; 3]; 3];
        for e in g.edges() {
            let (cu, cv) = (cluster_of[e.u], cluster_of[e.v]);
            if cu == cv {
                want_internal += e.w;
            } else {
                want[cu.min(cv)][cu.max(cv)] += e.w;
            }
        }
        assert_eq!(internal, want_internal);
        #[allow(clippy::needless_range_loop)] // a and b are cluster ids, not just indices
        for a in 0..3 {
            for b in (a + 1)..3 {
                assert_eq!(q.weight_between(a, b), want[a][b], "clusters {a},{b}");
            }
        }
    }

    #[test]
    fn accumulation_saturates_instead_of_overflowing() {
        let mut g = WeightedGraph::new(3);
        g.add_or_accumulate(0, 1, u64::MAX - 1);
        g.add_or_accumulate(0, 1, 5);
        assert_eq!(g.weight_between(0, 1), u64::MAX);
        g.add_or_accumulate(1, 2, u64::MAX);
        assert_eq!(g.total_weight(), u64::MAX);
        assert_eq!(g.weighted_degree(1), u64::MAX);
        let (q, internal) = g.quotient(&[0, 0, 0], 1);
        assert_eq!(q.num_edges(), 0);
        assert_eq!(internal, u64::MAX);
        let (q2, _) = g.quotient(&[0, 1, 0], 2);
        assert_eq!(q2.weight_between(0, 1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn add_out_of_range_panics() {
        let mut g = WeightedGraph::new(2);
        g.add_or_accumulate(0, 2, 1);
    }
}
