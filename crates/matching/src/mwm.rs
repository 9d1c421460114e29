//! Maximum-weight matching in general graphs.
//!
//! This is the engine behind MWM-Contract (paper §4.3): pairing clusters so
//! that the total *internalised* communication volume is maximised —
//! equivalently, total interprocessor communication is minimised — in
//! polynomial time.
//!
//! The algorithm is the classical primal–dual blossom algorithm for
//! maximum-weight matching (Galil's formulation): maintain dual variables
//! on vertices and (contracted) blossoms, grow alternating forests from free
//! vertices over tight edges, shrink odd cycles into blossoms, adjust duals
//! by the minimum slack, expand zero-dual blossoms, and augment when two
//! forests meet. Each phase ends at its first augmenting path.
//!
//! # Same order as the dense formulation
//!
//! The widely used arrangement of this algorithm keeps a `(2n+2)²` matrix
//! of edge cells (plus an `n`-wide membership row per blossom) and scans a
//! full row of it per queue pop, per slack recomputation and per blossom
//! member, whatever the graph's degree. The cluster graphs MWM-Contract
//! hands over average under three edges a node, so this solver stores the
//! same information sparsely — the input as an adjacency sorted by
//! neighbour, a blossom's best edges only towards nodes it has an edge to,
//! blossom membership as parent links — and leaves the **control flow
//! untouched**: every scan visits the cells the matrix scan would find
//! non-empty, in the same ascending index order; every comparison is the
//! same strict `<`, so ties fall to the same edge; flowers are oriented,
//! reversed and rotated the same way; blossom slots are reused lowest
//! first; and `poll` is consulted at the same points (once per queue pop,
//! once per dual adjustment). The returned `mate` vector, the `completed`
//! flag and the number of `poll` consultations are therefore identical to
//! the matrix solver's on every input — `tests/prop_matching.rs` holds
//! that solver as the oracle and checks all three — which is what keeps
//! every mapping built on a matching byte-identical.
//!
//! One corner of the matrix is reproduced deliberately: when a blossom's
//! edge towards an outside node is chosen among its members, a member with
//! *no* edge there still takes part, with the pseudo-slack
//! `lab[u] + lab[v]` of its empty cell, and can displace a real edge. The
//! fold here answers that comparison the way the matrix does (see
//! `Solver::collect_blossom_edges`).
//!
//! Connected components are **not** solved separately, although the duals
//! of one never constrain another: phases are global. One augmentation
//! anywhere ends the phase and every forest is regrown in queue order, so
//! a component solved alone grows forests of different shapes and breaks
//! ties differently — the same weight, a different matching.
//!
//! # Cost
//!
//! Memory is `O(n + m)` plus the recorded blossom cells: one per (blossom,
//! adjacent node) pair at any nesting level, so `O(m)` while blossoms nest
//! to bounded depth and never more than the matrix's `O(n²)`. Nothing is
//! sized by `n²` up front.
//!
//! Time: there are at most `n/2` phases. A phase pops every free vertex
//! unless it augments first, and a pop scans one adjacency row: `O(n + m)`
//! a phase, where the matrix pays `O(n²)`. A dual adjustment is a few
//! passes over the `n` labels, and a phase can need `O(n)` of them, so the
//! worst case stays `O(n³)` — `O(n·(n + m) + n·A)` for `A` adjustments in
//! all — with nothing in it that scans a matrix row. What that buys on
//! MWM-Contract's inputs: 956 cluster nodes and 1376 offered edges take
//! 4 ms instead of 265. Starting a phase costs what the last one touched,
//! not `n` (state sits behind a phase stamp, roots come lazily off the
//! free list), so an instance whose edges are tight from the start is
//! `O(n + m)` overall: a uniformly weighted path of 50 000 vertices takes
//! milliseconds, and its matrix would take 240 GB.
//!
//! The matching maximises total weight; vertices stay unmatched when no
//! positive-weight augmentation exists (weights are nonnegative; zero-weight
//! edges are treated as absent).

use std::collections::VecDeque;

/// Result of a matching computation on `n` vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// `mate[v]` is the vertex matched to `v`, or `None`.
    pub mate: Vec<Option<usize>>,
    /// Sum of weights of matched edges.
    pub total_weight: u64,
}

impl Matching {
    /// Number of matched pairs.
    pub fn num_pairs(&self) -> usize {
        self.mate.iter().flatten().count() / 2
    }

    /// The matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, m) in self.mate.iter().enumerate() {
            if let Some(v) = *m {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Validates symmetry (`mate[mate[v]] == v`).
    pub fn is_valid(&self) -> bool {
        self.mate.iter().enumerate().all(|(u, m)| match m {
            None => true,
            Some(v) => *v != u && self.mate[*v] == Some(u),
        })
    }
}

/// How one augmenting phase of the solver ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PhaseOutcome {
    /// An augmenting path was found; run another phase.
    Augmented,
    /// No augmenting path exists; the matching is maximum.
    Done,
    /// The poll callback asked to stop; the matching built so far is a
    /// valid (partial) matching but not necessarily maximum.
    Aborted,
}

/// A directed view of one edge: `u` lies in the row node, `v` in the column
/// node, `w` is the (clamped) weight. `w == 0` marks an *absent* cell; its
/// endpoints still matter, because the blossom-edge fold compares an
/// absent cell by the pseudo-slack `lab[u] + lab[v]` (see
/// [`Solver::collect_blossom_edges`]).
#[derive(Clone, Copy, Debug)]
struct Cell {
    u: usize,
    v: usize,
    w: i64,
}

impl Cell {
    /// "No edge recorded" (`u == 0` is the null vertex).
    const NONE: Cell = Cell { u: 0, v: 0, w: 0 };

    /// The same edge seen from the other side.
    fn reversed(self) -> Cell {
        Cell {
            u: self.v,
            v: self.u,
            w: self.w,
        }
    }
}

/// Appends the vertices of node `x` to `out` in flower order.
fn push_vertices(flower: &[Vec<usize>], n: usize, x: usize, out: &mut VecDeque<usize>) {
    if x <= n {
        out.push_back(x);
    } else {
        for &y in &flower[x] {
            push_vertices(flower, n, y, out);
        }
    }
}

/// Sparse blossom solver state. All indices are 1-based internally; index 0
/// is the null sentinel. Vertices are `1..=n`; blossom ids occupy
/// `n+1..=n_x` and their slots are reused lowest-first. Every per-node
/// vector has one entry per node id in use, and grows by one when a new
/// blossom slot is opened.
///
/// The dense formulation keeps a cell `g[a][c]` for every pair of node ids.
/// Here a cell is one of three things:
///
/// * vertex–vertex: the input graph, as a CSR adjacency sorted by
///   neighbour (`adj_start`/`adj`), absent pairs reading `(a, c, 0)`;
/// * recorded in `cells[a]` (sorted by `c`), for pairs with a blossom on
///   either side that some input edge joins — written when the younger of
///   the two blossoms is formed, mirrored in `cells[c]`, erased when
///   either blossom is expanded;
/// * neither: the pair has no edge between its vertex sets, and the matrix
///   would hold `(anchor[a], anchor[c], 0)` — the absent cell of the last
///   member at each level, which is what `anchor` records.
struct Solver {
    n: usize,
    n_x: usize,
    adj_start: Vec<usize>,
    adj: Vec<(usize, i64)>,
    cells: Vec<Vec<(usize, Cell)>>,
    /// The vertex an absent cell of this node names (itself for a vertex).
    anchor: Vec<usize>,
    /// The blossom this node is a direct member of, or 0 at top level.
    parent: Vec<usize>,
    lab: Vec<i64>,           // dual variables
    mate: Vec<usize>,        // mate[x] = matched vertex (original id) or 0
    slack: Vec<Cell>,        // per representative: the min-slack edge (u, x) into it
    st: Vec<usize>,          // representative (top-level blossom) of each node; 0 = free slot
    pa: Vec<usize>,          // parent edge endpoint in the alternating tree
    flower: Vec<Vec<usize>>, // blossom cycles
    s: Vec<i8>,              // -1 unvisited, 0 even (S), 1 odd (T); valid when `seen == phase`
    /// Phase in which `s`/`slack` of a node were last written. A node not
    /// written this phase is in its phase-start state ([`Solver::rest_state`],
    /// no slack edge), so starting a phase resets nothing.
    seen: Vec<u32>,
    phase: u32,
    vis: Vec<u32>,
    vis_t: u32,
    // scratch of `collect_blossom_edges`
    mark: Vec<u32>,
    mark_t: u32,
    slot: Vec<usize>,
    /// Free vertices in ascending order as a linked list from the null
    /// vertex (`next_free[0]` is the first); a matched vertex is unlinked
    /// the next time the walk meets it.
    next_free: Vec<usize>,
    /// Last free vertex handed out this phase (0 before the first).
    root_at: usize,
    /// Free top-level blossoms at phase start, ascending, and how many of
    /// them have been handed out.
    root_blossoms: Vec<usize>,
    root_blossom_at: usize,
    /// Vertices of the root last handed out, ahead of everything in `q`.
    root_buf: VecDeque<usize>,
    q: VecDeque<usize>,
}

impl Solver {
    /// Builds the solver over the input edges (0-based endpoints), merging
    /// parallel edges to the heaviest and dropping zero weights.
    fn new(n: usize, edges: &[(usize, usize, u64)]) -> Solver {
        // The blossom duals sum a handful of labels, each bounded by the
        // largest weight, so weights are clamped well below `i64::MAX` to
        // keep every dual computation overflow-free. Near-`u64::MAX` volumes
        // (saturated accumulations upstream) lose only their magnitude, not
        // their relative order below the clamp.
        const W_CLAMP: i64 = i64::MAX / 8;
        let mut w_max: i64 = 0;
        let mut directed = Vec::with_capacity(2 * edges.len());
        for &(u, v, w) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert_ne!(u, v, "self-loop edge");
            let w = i64::try_from(w).unwrap_or(i64::MAX).min(W_CLAMP);
            w_max = w_max.max(w);
            if w > 0 {
                directed.push((u + 1, v + 1, w));
                directed.push((v + 1, u + 1, w));
            }
        }
        // ascending (row, neighbour, weight): the last of a run of equal
        // (row, neighbour) is the heaviest parallel edge
        directed.sort_unstable();
        let mut adj_start = vec![0usize; n + 2];
        let mut adj: Vec<(usize, i64)> = Vec::with_capacity(directed.len());
        let mut last = (0, 0);
        for &(a, b, w) in &directed {
            if (a, b) == last {
                adj.last_mut().expect("a run has a first entry").1 = w;
            } else {
                adj.push((b, w));
                adj_start[a + 1] += 1;
                last = (a, b);
            }
        }
        for a in 1..=n {
            adj_start[a + 1] += adj_start[a];
        }
        let mut lab = vec![w_max; n + 1];
        lab[0] = 0;
        let mut next_free: Vec<usize> = (1..=n + 1).collect();
        next_free[n] = 0;
        Solver {
            n,
            n_x: n,
            adj_start,
            adj,
            cells: vec![Vec::new(); n + 1],
            anchor: (0..=n).collect(),
            parent: vec![0; n + 1],
            lab,
            mate: vec![0; n + 1],
            slack: vec![Cell::NONE; n + 1],
            st: (0..=n).collect(),
            pa: vec![0; n + 1],
            flower: vec![Vec::new(); n + 1],
            s: vec![-1; n + 1],
            seen: vec![0; n + 1],
            phase: 0,
            vis: vec![0; n + 1],
            vis_t: 0,
            mark: vec![0; n + 1],
            mark_t: 0,
            slot: vec![0; n + 1],
            next_free,
            root_at: 0,
            root_blossoms: Vec::new(),
            root_blossom_at: 0,
            root_buf: VecDeque::new(),
            q: VecDeque::new(),
        }
    }

    /// Opens node id `n_x + 1`.
    fn open_slot(&mut self) {
        self.n_x += 1;
        self.cells.push(Vec::new());
        self.anchor.push(0);
        self.parent.push(0);
        self.lab.push(0);
        self.mate.push(0);
        self.slack.push(Cell::NONE);
        self.st.push(0);
        self.pa.push(0);
        self.flower.push(Vec::new());
        self.s.push(-1);
        self.seen.push(0);
        self.vis.push(0);
        self.mark.push(0);
        self.slot.push(0);
    }

    /// The input edges at vertex `u`, ascending by neighbour.
    #[inline]
    fn neighbours(&self, u: usize) -> &[(usize, i64)] {
        &self.adj[self.adj_start[u]..self.adj_start[u + 1]]
    }

    /// The cell the dense matrix holds at `[a][c]`, for `a` and `c` in
    /// use and neither inside the other.
    fn cell(&self, a: usize, c: usize) -> Cell {
        if a <= self.n && c <= self.n {
            let row = self.neighbours(a);
            let w = row
                .binary_search_by_key(&c, |&(v, _)| v)
                .map_or(0, |i| row[i].1);
            return Cell { u: a, v: c, w };
        }
        match self.cells[a].binary_search_by_key(&c, |&(x, _)| x) {
            Ok(i) => self.cells[a][i].1,
            Err(_) => self.absent(a, c),
        }
    }

    /// The cell the matrix holds for a pair no input edge joins.
    #[inline]
    fn absent(&self, a: usize, c: usize) -> Cell {
        Cell {
            u: self.anchor[a],
            v: self.anchor[c],
            w: 0,
        }
    }

    /// Slack of the edge cell (twice the LP slack, kept integral).
    #[inline]
    fn e_delta(&self, e: Cell) -> i64 {
        self.lab[e.u] + self.lab[e.v] - 2 * e.w
    }

    /// What `s` reads for a node nothing has written this phase: a free
    /// top-level node is an even root, everything else unvisited.
    #[inline]
    fn rest_state(&self, x: usize) -> i8 {
        if self.st[x] == x && self.mate[x] == 0 {
            0
        } else {
            -1
        }
    }

    #[inline]
    fn state(&self, x: usize) -> i8 {
        if self.seen[x] == self.phase {
            self.s[x]
        } else {
            self.rest_state(x)
        }
    }

    #[inline]
    fn slack_of(&self, x: usize) -> Cell {
        if self.seen[x] == self.phase {
            self.slack[x]
        } else {
            Cell::NONE
        }
    }

    /// Materialises `s[x]` and `slack[x]` for this phase before a write.
    #[inline]
    fn touch(&mut self, x: usize) {
        if self.seen[x] != self.phase {
            self.s[x] = self.rest_state(x);
            self.slack[x] = Cell::NONE;
            self.seen[x] = self.phase;
        }
    }

    /// Offers `e`, an edge from an even vertex into `x`, as `x`'s slack
    /// edge; the incumbent stays on a tie.
    fn update_slack(&mut self, e: Cell, x: usize) {
        self.touch(x);
        if self.slack[x].u == 0 || self.e_delta(e) < self.e_delta(self.slack[x]) {
            self.slack[x] = e;
        }
    }

    /// Recomputes `x`'s slack edge over the even vertices outside it, in
    /// ascending vertex order.
    fn set_slack(&mut self, x: usize) {
        self.touch(x);
        self.slack[x] = Cell::NONE;
        if x <= self.n {
            for i in self.adj_start[x]..self.adj_start[x + 1] {
                let (u, w) = self.adj[i];
                if self.st[u] != x && self.state(self.st[u]) == 0 {
                    self.update_slack(Cell { u, v: x, w }, x);
                }
            }
        } else {
            // vertex keys sort before blossom keys
            for i in 0..self.cells[x].len() {
                let (u, from_x) = self.cells[x][i];
                if u > self.n {
                    break;
                }
                if from_x.w > 0 && self.st[u] != x && self.state(self.st[u]) == 0 {
                    self.update_slack(from_x.reversed(), x);
                }
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        push_vertices(&self.flower, self.n, x, &mut self.q);
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            for i in 0..self.flower[x].len() {
                let y = self.flower[x][i];
                self.set_st(y, b);
            }
        }
    }

    /// The direct member of blossom `b` that contains vertex `x` (the
    /// matrix's `flower_from[b][x]`), 0 when `x` is not inside `b`.
    fn member_containing(&self, b: usize, x: usize) -> usize {
        let mut y = x;
        while y != 0 && self.parent[y] != b {
            y = self.parent[y];
        }
        y
    }

    /// Position of sub-blossom `xr` in flower `b`, normalising so the walk
    /// from the base to `xr` has even length (reversing the cycle if
    /// needed).
    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.flower[b].iter().position(|&x| x == xr).unwrap();
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        let e = self.cell(u, v);
        self.mate[u] = e.v;
        if u > self.n {
            let xr = self.member_containing(u, e.u);
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let a = self.flower[u][i];
                let b = self.flower[u][i ^ 1];
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pa_xnv = self.pa[xnv];
            self.set_match(xnv, self.st[pa_xnv]);
            u = self.st[pa_xnv];
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_t += 1;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == self.vis_t {
                    return u;
                }
                self.vis[u] = self.vis_t;
                u = self.st[self.mate[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.open_slot();
        }
        self.lab[b] = 0;
        self.touch(b);
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        self.collect_blossom_edges(b);
        self.set_slack(b);
    }

    /// Fills the cells between the new blossom `b` and every node outside
    /// it, as the matrix fold does: for each outside node `x`, the members
    /// are visited in flower order and a member's cell `[xs][x]` replaces
    /// the blossom's when that one is still absent or this one's slack is
    /// strictly smaller. An absent member cell takes part with the
    /// pseudo-slack `lab[u] + lab[v]` of the endpoints it names, so it can
    /// displace a real edge, exactly as in the matrix. Only nodes some
    /// member has a recorded cell to need the fold; for every other node
    /// all member cells are absent and the last member's wins, which is
    /// what `anchor[b]` stands for.
    fn collect_blossom_edges(&mut self, b: usize) {
        let members = self.flower[b].clone();
        self.mark_t += 1;
        let t = self.mark_t;
        let mut keys: Vec<usize> = Vec::new();
        for &xs in &members {
            let vertex_row = if xs <= self.n {
                self.adj_start[xs]..self.adj_start[xs + 1]
            } else {
                0..0
            };
            let recorded = vertex_row
                .map(|i| self.adj[i].0)
                .chain(self.cells[xs].iter().map(|&(x, _)| x));
            for x in recorded {
                // `st[x] == b` covers `b` itself and everything inside it
                if self.st[x] != b && self.mark[x] != t {
                    self.mark[x] = t;
                    self.slot[x] = keys.len();
                    keys.push(x);
                }
            }
        }
        let mut best = vec![Cell::NONE; keys.len()];
        let mut own = vec![(usize::MAX, Cell::NONE); keys.len()];
        for (i, &xs) in members.iter().enumerate() {
            if xs <= self.n {
                for &(v, w) in self.neighbours(xs) {
                    if self.mark[v] == t {
                        own[self.slot[v]] = (i, Cell { u: xs, v, w });
                    }
                }
            }
            for &(x, c) in &self.cells[xs] {
                if self.mark[x] == t {
                    own[self.slot[x]] = (i, c);
                }
            }
            for (k, &x) in keys.iter().enumerate() {
                let sx = if own[k].0 == i {
                    own[k].1
                } else {
                    self.absent(xs, x)
                };
                if best[k].w == 0 || self.e_delta(sx) < self.e_delta(best[k]) {
                    best[k] = sx;
                }
            }
        }
        for &m in &members {
            self.parent[m] = b;
        }
        self.anchor[b] = self.anchor[*members.last().expect("a flower has members")];
        let mut row: Vec<(usize, Cell)> = keys.into_iter().zip(best).collect();
        row.sort_unstable_by_key(|&(x, _)| x);
        for &(x, c) in &row {
            let at = self.cells[x]
                .binary_search_by_key(&b, |&(y, _)| y)
                .expect_err("a new blossom has no cells yet");
            self.cells[x].insert(at, (b, c.reversed()));
        }
        self.cells[b] = row;
    }

    fn expand_blossom(&mut self, b: usize) {
        let members = self.flower[b].clone();
        for &m in &members {
            self.set_st(m, m);
        }
        let xr = self.member_containing(b, self.cell(b, self.pa[b]).u);
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.cell(xns, xs).u;
            self.touch(xs);
            self.touch(xns);
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = Cell::NONE;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.touch(xr);
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in pr + 1..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.touch(xs);
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
        // the slot is free: forget its members and its cells
        for &m in &members {
            self.parent[m] = 0;
        }
        for (x, _) in std::mem::take(&mut self.cells[b]) {
            if let Ok(at) = self.cells[x].binary_search_by_key(&b, |&(y, _)| y) {
                self.cells[x].remove(at);
            }
        }
    }

    /// Processes a tight edge found between an even node and `v`'s blossom.
    /// Returns `true` if an augmentation happened.
    fn on_found_edge(&mut self, e: Cell) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        match self.state(v) {
            -1 => {
                self.pa[v] = e.u;
                self.touch(v);
                self.s[v] = 1;
                let nu = self.st[self.mate[v]];
                self.touch(nu);
                self.slack[v] = Cell::NONE;
                self.slack[nu] = Cell::NONE;
                self.s[nu] = 0;
                self.q_push(nu);
            }
            0 => {
                let lca = self.get_lca(u, v);
                if lca == 0 {
                    self.augment(u, v);
                    self.augment(v, u);
                    return true;
                }
                self.add_blossom(u, lca, v);
            }
            _ => {}
        }
        false
    }

    /// The next free top-level node in ascending id order — vertices off
    /// the free list, then the blossoms noted at phase start.
    fn next_root(&mut self) -> Option<usize> {
        loop {
            let v = self.next_free[self.root_at];
            if v == 0 {
                break;
            }
            if self.mate[v] != 0 {
                self.next_free[self.root_at] = self.next_free[v];
                continue;
            }
            self.root_at = v;
            if self.st[v] == v {
                return Some(v);
            }
        }
        let b = self.root_blossoms.get(self.root_blossom_at).copied();
        self.root_blossom_at += usize::from(b.is_some());
        b
    }

    /// Pops the queue. The dense formulation enqueues every free top-level
    /// node at phase start, ahead of whatever the forests add; here the
    /// roots are drawn one at a time as the pops reach them, in the same
    /// order. An unpopped root cannot change before its turn (it is even,
    /// so any edge found into it augments and ends the phase).
    fn pop(&mut self) -> Option<usize> {
        if self.root_buf.is_empty() && !self.stage_next_root() {
            return self.q.pop_front();
        }
        self.root_buf.pop_front()
    }

    /// Moves the next root's vertices into `root_buf`; `false` when the
    /// roots are spent.
    fn stage_next_root(&mut self) -> bool {
        match self.next_root() {
            Some(x) => {
                push_vertices(&self.flower, self.n, x, &mut self.root_buf);
                true
            }
            None => false,
        }
    }

    /// One phase: grows forests, adjusts duals, returns whether an
    /// augmenting path was found. `poll` is consulted once per queue pop
    /// and per dual adjustment; returning `true` aborts the phase.
    fn matching_phase(&mut self, poll: &mut dyn FnMut() -> bool) -> PhaseOutcome {
        self.phase += 1;
        self.q.clear();
        self.root_buf.clear();
        self.root_at = 0;
        self.root_blossom_at = 0;
        self.root_blossoms.clear();
        for b in self.n + 1..=self.n_x {
            if self.st[b] == b && self.mate[b] == 0 {
                self.root_blossoms.push(b);
            }
        }
        if !self.stage_next_root() {
            return PhaseOutcome::Done;
        }
        loop {
            while let Some(u) = self.pop() {
                if poll() {
                    return PhaseOutcome::Aborted;
                }
                if self.state(self.st[u]) == 1 {
                    continue;
                }
                for i in self.adj_start[u]..self.adj_start[u + 1] {
                    let (v, w) = self.adj[i];
                    if self.st[u] != self.st[v] {
                        let e = Cell { u, v, w };
                        if self.e_delta(e) == 0 {
                            if self.on_found_edge(e) {
                                return PhaseOutcome::Augmented;
                            }
                        } else {
                            let sv = self.st[v];
                            let into = if sv == v { e } else { self.cell(u, sv) };
                            self.update_slack(into, sv);
                        }
                    }
                }
            }
            // Dual adjustment. The sentinel is finite so the label updates
            // below cannot overflow when the forest has no outgoing slack
            // (the phase then terminates at the first free even vertex).
            if poll() {
                return PhaseOutcome::Aborted;
            }
            const INF: i64 = i64::MAX / 4;
            let mut d = INF;
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.state(b) == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack_of(x).u != 0 {
                    let delta = self.e_delta(self.slack[x]);
                    match self.state(x) {
                        -1 => d = d.min(delta),
                        0 => d = d.min(delta / 2),
                        _ => {}
                    }
                }
            }
            for u in 1..=self.n {
                match self.state(self.st[u]) {
                    0 => {
                        if self.lab[u] <= d {
                            // dual hit zero: no more augmenting
                            return PhaseOutcome::Done;
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b {
                    match self.state(b) {
                        0 => self.lab[b] += 2 * d,
                        1 => self.lab[b] -= 2 * d,
                        _ => {}
                    }
                }
            }
            self.q.clear();
            for x in 1..=self.n_x {
                let e = self.slack_of(x);
                if self.st[x] == x
                    && e.u != 0
                    && self.st[e.u] != x
                    && self.e_delta(e) == 0
                    && self.on_found_edge(e)
                {
                    return PhaseOutcome::Augmented;
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.state(b) == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }
}

/// Computes a maximum-weight matching of an undirected graph on `n`
/// vertices given as `(u, v, w)` edges (0-indexed; parallel edges are merged
/// by keeping the heaviest; zero-weight edges never match).
///
/// Memory is `O(n + m)` for `m` edges. Time is `O(n + m)` per phase plus
/// `O(n)` per dual adjustment — still `O(n³)` in the worst case, but with
/// no term that scans `n` cells per pop (see the module docs). The result
/// is the matching the dense matrix formulation returns, pair for pair.
///
/// # Panics
/// If an endpoint is out of range or an edge is a self-loop.
///
/// # Examples
/// ```
/// use oregami_matching::max_weight_matching;
/// // Path 0-1-2 with weights 3, 4: optimum picks the single edge (1,2).
/// let m = max_weight_matching(3, &[(0, 1, 3), (1, 2, 4)]);
/// assert_eq!(m.total_weight, 4);
/// assert_eq!(m.mate[1], Some(2));
/// assert_eq!(m.mate[0], None);
/// ```
pub fn max_weight_matching(n: usize, edges: &[(usize, usize, u64)]) -> Matching {
    let (m, completed) = max_weight_matching_budgeted(n, edges, &mut || false);
    debug_assert!(completed, "an un-polled run always completes");
    m
}

/// Budget-aware maximum-weight matching: `poll` is consulted regularly
/// inside the solver's phases (once per queue pop and once per dual
/// adjustment), and returning `true` stops the search.
///
/// Returns the matching plus a flag: `true` means the solver ran to
/// optimality, `false` means it was stopped early and the matching is a
/// valid but possibly non-maximum *partial* matching (every pair it did
/// form is still symmetric and usable).
///
/// The solver itself is polynomial; this hook exists so callers holding a
/// nearly spent deadline can skip the tail of the computation rather than
/// blow the deadline on a large instance.
pub fn max_weight_matching_budgeted(
    n: usize,
    edges: &[(usize, usize, u64)],
    poll: &mut dyn FnMut() -> bool,
) -> (Matching, bool) {
    if n == 0 {
        return (
            Matching {
                mate: Vec::new(),
                total_weight: 0,
            },
            true,
        );
    }
    let mut sv = Solver::new(n, edges);
    let completed = loop {
        match sv.matching_phase(poll) {
            PhaseOutcome::Augmented => continue,
            PhaseOutcome::Done => break true,
            PhaseOutcome::Aborted => break false,
        }
    };
    let mut mate = vec![None; n];
    let mut total = 0u64;
    for u in 1..=n {
        if sv.mate[u] != 0 {
            mate[u - 1] = Some(sv.mate[u] - 1);
            if sv.mate[u] < u {
                total = total.saturating_add(sv.cell(u, sv.mate[u]).w as u64);
            }
        }
    }
    let m = Matching {
        mate,
        total_weight: total,
    };
    debug_assert!(m.is_valid());
    (m, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_max_weight_matching;

    #[test]
    fn empty_and_single() {
        assert_eq!(max_weight_matching(0, &[]).total_weight, 0);
        let m = max_weight_matching(1, &[]);
        assert_eq!(m.mate, vec![None]);
    }

    #[test]
    fn single_edge() {
        let m = max_weight_matching(2, &[(0, 1, 7)]);
        assert_eq!(m.total_weight, 7);
        assert_eq!(m.pairs(), vec![(0, 1)]);
    }

    #[test]
    fn triangle_picks_heaviest_edge() {
        let m = max_weight_matching(3, &[(0, 1, 5), (1, 2, 6), (0, 2, 4)]);
        assert_eq!(m.total_weight, 6);
        assert_eq!(m.num_pairs(), 1);
    }

    #[test]
    fn square_prefers_opposite_pairs() {
        // C4 with weights: (0-1)=10, (1-2)=9, (2-3)=10, (3-0)=9
        let m = max_weight_matching(4, &[(0, 1, 10), (1, 2, 9), (2, 3, 10), (3, 0, 9)]);
        assert_eq!(m.total_weight, 20);
        assert_eq!(m.num_pairs(), 2);
    }

    #[test]
    fn greedy_trap() {
        // Path a-b-c-d with weights 8, 10, 8: greedy takes 10, optimum 16.
        let m = max_weight_matching(4, &[(0, 1, 8), (1, 2, 10), (2, 3, 8)]);
        assert_eq!(m.total_weight, 16);
    }

    #[test]
    fn blossom_required_odd_cycle() {
        // C5 plus pendant: forces blossom handling.
        let edges = [
            (0, 1, 6),
            (1, 2, 7),
            (2, 3, 6),
            (3, 4, 7),
            (4, 0, 6),
            (2, 5, 10),
        ];
        let m = max_weight_matching(6, &edges);
        let b = brute_force_max_weight_matching(6, &edges);
        assert_eq!(m.total_weight, b);
    }

    #[test]
    fn petersen_like_stress_vs_brute() {
        // Petersen graph with varying weights.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut edges = Vec::new();
        for (i, &(u, v)) in outer.iter().chain(&spokes).chain(&inner).enumerate() {
            edges.push((u, v, (i as u64 * 13 + 7) % 23 + 1));
        }
        let m = max_weight_matching(10, &edges);
        let b = brute_force_max_weight_matching(10, &edges);
        assert_eq!(m.total_weight, b);
        assert!(m.is_valid());
    }

    #[test]
    fn zero_weight_edges_never_match() {
        let m = max_weight_matching(4, &[(0, 1, 0), (2, 3, 5)]);
        assert_eq!(m.total_weight, 5);
        assert_eq!(m.mate[0], None);
        assert_eq!(m.mate[1], None);
    }

    #[test]
    fn parallel_edges_keep_heaviest() {
        let m = max_weight_matching(2, &[(0, 1, 3), (1, 0, 9), (0, 1, 4)]);
        assert_eq!(m.total_weight, 9);
    }

    #[test]
    fn complete_graph_even_perfect() {
        // K6 with weight u+v+1: optimum pairs (0,5),(1,4),(2,3) or similar.
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in u + 1..6 {
                edges.push((u, v, (u + v + 1) as u64));
            }
        }
        let m = max_weight_matching(6, &edges);
        let b = brute_force_max_weight_matching(6, &edges);
        assert_eq!(m.total_weight, b);
        assert_eq!(m.num_pairs(), 3);
    }

    #[test]
    fn aborted_run_returns_valid_partial_matching() {
        // abort immediately: the matching must still be symmetric/valid
        let mut edges = Vec::new();
        for u in 0..8usize {
            for v in u + 1..8 {
                edges.push((u, v, ((u * 5 + v) % 11 + 1) as u64));
            }
        }
        let (m, completed) = max_weight_matching_budgeted(8, &edges, &mut || true);
        assert!(!completed);
        assert!(m.is_valid());
        // a never-firing poll reproduces the plain entry point exactly
        let (m2, completed2) = max_weight_matching_budgeted(8, &edges, &mut || false);
        assert!(completed2);
        assert_eq!(m2, max_weight_matching(8, &edges));
        assert!(m2.total_weight >= m.total_weight);
    }

    #[test]
    fn poll_fires_after_some_progress() {
        // stop after the poll has been consulted a few times: partial
        // matchings formed by completed augmentations stay valid
        let mut edges = Vec::new();
        for u in 0..16usize {
            for v in u + 1..16 {
                edges.push((u, v, ((u * 7 + v * 3) % 13 + 1) as u64));
            }
        }
        let mut calls = 0u32;
        let (m, completed) = max_weight_matching_budgeted(16, &edges, &mut || {
            calls += 1;
            calls > 10
        });
        assert!(!completed);
        assert!(m.is_valid());
    }

    #[test]
    fn random_graphs_match_brute_force() {
        // Deterministic LCG sweep over many small random instances,
        // including odd-cycle-rich ones that exercise blossoms.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..200 {
            let n = 3 + (next() % 8) as usize; // 3..=10
            let density = 30 + (next() % 60); // percent
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if next() % 100 < density {
                        edges.push((u, v, next() % 50 + 1));
                    }
                }
            }
            let m = max_weight_matching(n, &edges);
            let b = brute_force_max_weight_matching(n, &edges);
            assert_eq!(
                m.total_weight, b,
                "trial {trial}: n={n}, edges={edges:?}"
            );
            assert!(m.is_valid());
        }
    }
}
