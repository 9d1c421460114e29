//! The dense-matrix blossom solver `oregami-matching` shipped before the
//! sparse rewrite, kept verbatim as the differential oracle: the production
//! solver must return the same `mate` vector, the same `completed` flag and
//! consult `poll` the same number of times on every input. It allocates a
//! `(2n+2)^2` matrix of 24-byte cells, so keep `n` in the hundreds.

use oregami_matching::Matching;
use std::collections::VecDeque;

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

#[derive(Clone, Copy, Debug)]
struct Cell {
    u: usize,
    v: usize,
    w: i64,
}

/// Dense-matrix blossom solver state. All indices are 1-based internally;
/// index 0 is the null sentinel. Vertices are `1..=n`; blossom ids occupy
/// `n+1..=n_x`.
struct Solver {
    n: usize,
    n_x: usize,
    cap: usize,
    g: Vec<Cell>,                 // cap×cap edge matrix (by st-representatives)
    lab: Vec<i64>,                // dual variables
    mate: Vec<usize>,             // match[v] = matched vertex (original id) or 0
    slack: Vec<usize>,            // per representative: vertex giving min slack
    st: Vec<usize>,               // representative (blossom) of each node
    pa: Vec<usize>,               // parent edge endpoint in the alternating tree
    flower: Vec<Vec<usize>>,      // blossom cycles
    flower_from: Vec<Vec<usize>>, // flower_from[b][x]: sub-blossom of b containing x
    s: Vec<i8>,                   // -1 unvisited, 0 even (S), 1 odd (T)
    vis: Vec<u32>,
    vis_t: u32,
    q: VecDeque<usize>,
}

impl Solver {
    fn new(n: usize) -> Solver {
        let cap = 2 * n + 2;
        Solver {
            n,
            n_x: n,
            cap,
            g: vec![Cell { u: 0, v: 0, w: 0 }; cap * cap],
            lab: vec![0; cap],
            mate: vec![0; cap],
            slack: vec![0; cap],
            st: (0..cap).collect(),
            pa: vec![0; cap],
            flower: vec![Vec::new(); cap],
            flower_from: vec![vec![0; n + 1]; cap],
            s: vec![-1; cap],
            vis: vec![0; cap],
            vis_t: 0,
            q: VecDeque::new(),
        }
    }

    #[inline]
    fn cell(&self, a: usize, b: usize) -> Cell {
        self.g[a * self.cap + b]
    }

    #[inline]
    fn cell_mut(&mut self, a: usize, b: usize) -> &mut Cell {
        &mut self.g[a * self.cap + b]
    }

    /// Slack of the edge cell (twice the LP slack, kept integral).
    #[inline]
    fn e_delta(&self, e: Cell) -> i64 {
        self.lab[e.u] + self.lab[e.v] - 2 * e.w
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0
            || self.e_delta(self.cell(u, x)) < self.e_delta(self.cell(self.slack[x], x))
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.cell(u, x).w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            let children = self.flower[x].clone();
            for y in children {
                self.q_push(y);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let children = self.flower[x].clone();
            for y in children {
                self.set_st(y, b);
            }
        }
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
            let xr = self.flower_from[u][e.u];
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
            self.n_x += 1;
        }
        assert!(b < self.cap, "blossom capacity exceeded");
        self.lab[b] = 0;
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
        for x in 1..=self.n_x {
            self.cell_mut(b, x).w = 0;
            self.cell_mut(x, b).w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b][x] = 0;
        }
        let members = self.flower[b].clone();
        for &xs in &members {
            for x in 1..=self.n_x {
                let bx = self.cell(b, x);
                let sx = self.cell(xs, x);
                if bx.w == 0 || self.e_delta(sx) < self.e_delta(bx) {
                    *self.cell_mut(b, x) = sx;
                    *self.cell_mut(x, b) = self.cell(x, xs);
                }
            }
            for x in 1..=self.n {
                if xs <= self.n {
                    if xs == x {
                        self.flower_from[b][x] = xs;
                    }
                } else if self.flower_from[xs][x] != 0 {
                    self.flower_from[b][x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let members = self.flower[b].clone();
        for &m in &members {
            self.set_st(m, m);
        }
        let xr = self.flower_from[b][self.cell(b, self.pa[b]).u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.cell(xns, xs).u;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in pr + 1..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Processes a tight edge found between an even node and `v`'s blossom.
    /// Returns `true` if an augmentation happened.
    fn on_found_edge(&mut self, e: Cell) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.s[v] == -1 {
            self.pa[v] = e.u;
            self.s[v] = 1;
            let nu = self.st[self.mate[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grows forests, adjusts duals, returns whether an
    /// augmenting path was found. `poll` is consulted once per queue pop
    /// and per dual adjustment; returning `true` aborts the phase.
    fn matching_phase(&mut self, poll: &mut dyn FnMut() -> bool) -> PhaseOutcome {
        for x in 1..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.mate[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.q.is_empty() {
            return PhaseOutcome::Done;
        }
        loop {
            while let Some(u) = self.q.pop_front() {
                if poll() {
                    return PhaseOutcome::Aborted;
                }
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.cell(u, v).w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(self.cell(u, v)) == 0 {
                            if self.on_found_edge(self.cell(u, v)) {
                                return PhaseOutcome::Augmented;
                            }
                        } else {
                            let sv = self.st[v];
                            self.update_slack(u, sv);
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
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(self.cell(self.slack[x], x));
                    if self.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
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
                    match self.s[b] {
                        0 => self.lab[b] += 2 * d,
                        1 => self.lab[b] -= 2 * d,
                        _ => {}
                    }
                }
            }
            self.q.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(self.cell(self.slack[x], x)) == 0
                    && self.on_found_edge(self.cell(self.slack[x], x))
                {
                    return PhaseOutcome::Augmented;
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }
}

/// Budget-aware maximum-weight matching: `poll` is consulted regularly
/// inside the solver's phases, and returning `true` stops the search.
///
/// Returns the matching plus a flag: `true` means the solver ran to
/// optimality, `false` means it was stopped early and the matching is a
/// valid but possibly non-maximum *partial* matching (every pair it did
/// form is still symmetric and usable).
///
/// The solver itself is polynomial (`O(n³)`); this hook exists so callers
/// holding a nearly spent deadline can skip the tail of the computation
/// rather than blow the deadline on a large instance.
pub(crate) fn dense_max_weight_matching_budgeted(
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
    let mut sv = Solver::new(n);
    let mut w_max: i64 = 0;
    for x in 1..=n {
        for y in 1..=n {
            *sv.cell_mut(x, y) = Cell { u: x, v: y, w: 0 };
        }
        sv.flower_from[x][x] = x;
    }
    // The blossom duals sum a handful of labels, each bounded by the
    // largest weight, so weights are clamped well below `i64::MAX` to
    // keep every dual computation overflow-free. Near-`u64::MAX` volumes
    // (saturated accumulations upstream) lose only their magnitude, not
    // their relative order below the clamp.
    const W_CLAMP: i64 = i64::MAX / 8;
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loop edge");
        let (a, b) = (u + 1, v + 1);
        let w = i64::try_from(w).unwrap_or(i64::MAX).min(W_CLAMP);
        if w > sv.cell(a, b).w {
            sv.cell_mut(a, b).w = w;
            sv.cell_mut(b, a).w = w;
        }
        w_max = w_max.max(w);
    }
    for x in 1..=n {
        sv.lab[x] = w_max;
    }
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
