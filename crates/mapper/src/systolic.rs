//! Mapping affine recurrences to systolic arrays (paper §4.2.1).
//!
//! When the LaRCS analysis finds that (a) node labels live on an integer
//! lattice polytope and (b) every communication phase displaces labels by a
//! constant *dependence vector*, the computation is a uniform recurrence
//! and the classical space-time synthesis applies (Rajopadhye & Fujimoto
//! \[RF88\]; Cappello & Steiglitz \[CS84\]):
//!
//! * a **schedule vector** `τ` with `τ·d ≥ 1` for every dependence `d`
//!   (causality: a value is produced before it is used) gives every lattice
//!   point `x` the firing time `τ·x`;
//! * an **allocation matrix** `σ` (one row for a linear array, two for a
//!   mesh) with `[τ; σ]` nonsingular maps `x` to processor `σ·x`; the
//!   systolic locality constraint `‖σ·d‖∞ ≤ 1` keeps every dependence a
//!   nearest-neighbor channel.
//!
//! Both are found by exhaustive search over small integer vectors —
//! legitimate because dependence vectors of practical recurrences are tiny
//! and the search space is constant-size (the paper calls the whole
//! detection "constant time compiler tests").

use oregami_graph::TaskGraph;
use oregami_larcs::analyze::uniform_dependence;

/// A synthesised space-time mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystolicMapping {
    /// The schedule vector `τ`.
    pub schedule: Vec<i64>,
    /// The allocation matrix `σ` (row-major; `target_dims` rows).
    pub allocation: Vec<Vec<i64>>,
    /// Firing time of every task (normalised to start at 0).
    pub time_of: Vec<i64>,
    /// Processor coordinates of every task (normalised to start at 0).
    pub proc_of: Vec<Vec<i64>>,
    /// Total time steps (makespan).
    pub makespan: i64,
    /// Extent of the processor array per dimension.
    pub array_dims: Vec<i64>,
}

/// Why synthesis failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystolicError {
    /// Some phase has no constant dependence vector.
    NotUniform {
        /// The offending phase name.
        phase: String,
    },
    /// Node labels are not all of the same dimensionality.
    BadLabels,
    /// No schedule vector satisfies causality within the search bounds
    /// (e.g. a zero dependence vector: a value would depend on itself).
    NoSchedule,
    /// No allocation satisfying nonsingularity + locality was found.
    NoAllocation,
}

impl std::fmt::Display for SystolicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystolicError::NotUniform { phase } => {
                write!(f, "phase '{phase}' is not a uniform dependence")
            }
            SystolicError::BadLabels => write!(f, "node labels are not a uniform-dimension lattice"),
            SystolicError::NoSchedule => write!(f, "no causal schedule vector found"),
            SystolicError::NoAllocation => write!(f, "no conflict-free local allocation found"),
        }
    }
}

impl std::error::Error for SystolicError {}

/// Synthesises a systolic mapping of `tg` onto a `target_dims`-dimensional
/// processor array (1 = linear array, 2 = mesh).
pub fn synthesize(tg: &TaskGraph, target_dims: usize) -> Result<SystolicMapping, SystolicError> {
    // 1. dependence vectors
    let mut deps = Vec::new();
    for k in 0..tg.num_phases() {
        match uniform_dependence(tg, k) {
            Some(d) => deps.push(d),
            None => {
                return Err(SystolicError::NotUniform {
                    phase: tg.comm_phases[k].name.clone(),
                })
            }
        }
    }
    let m = tg.nodes.first().map_or(0, |n| n.coords.len());
    if m == 0 || tg.nodes.iter().any(|n| n.coords.len() != m) {
        return Err(SystolicError::BadLabels);
    }
    if deps.iter().any(|d| d.len() != m) {
        return Err(SystolicError::BadLabels);
    }
    let target_dims = target_dims.min(m.saturating_sub(1)).max(1).min(m);

    // 2. schedule vector: smallest makespan, entries in -2..=2
    let coords: Vec<&[i64]> = tg.nodes.iter().map(|n| n.coords.as_slice()).collect();
    let mut best_tau: Option<(i64, Vec<i64>)> = None;
    for tau in small_vectors(m, 2) {
        if deps.iter().any(|d| dot(&tau, d) < 1) {
            continue;
        }
        let times: Vec<i64> = coords.iter().map(|x| dot(&tau, x)).collect();
        let makespan = times.iter().max().unwrap() - times.iter().min().unwrap() + 1;
        if best_tau.as_ref().is_none_or(|(bm, _)| makespan < *bm) {
            best_tau = Some((makespan, tau));
        }
    }
    let (makespan, tau) = best_tau.ok_or(SystolicError::NoSchedule)?;

    // 3. allocation rows: entries in -1..=1, rows independent of each other
    //    and of τ, every dependence local (|σ_r · d| ≤ 1), and the full
    //    space-time map injective on the actual lattice (conflict-free).
    //    When rows + 1 < label dimension the map cannot be injective by rank
    //    alone, so candidates are checked against the real node set.
    let sigma = find_allocation(&tau, &deps, m, target_dims, &coords)
        .ok_or(SystolicError::NoAllocation)?;

    // 4. materialise
    let times: Vec<i64> = coords.iter().map(|x| dot(&tau, x)).collect();
    let t0 = *times.iter().min().unwrap();
    let time_of: Vec<i64> = times.iter().map(|t| t - t0).collect();
    let raw_procs: Vec<Vec<i64>> = coords
        .iter()
        .map(|x| sigma.iter().map(|row| dot(row, x)).collect())
        .collect();
    let mins: Vec<i64> = (0..target_dims)
        .map(|r| raw_procs.iter().map(|p| p[r]).min().unwrap())
        .collect();
    let proc_of: Vec<Vec<i64>> = raw_procs
        .iter()
        .map(|p| p.iter().zip(&mins).map(|(v, lo)| v - lo).collect())
        .collect();
    let array_dims: Vec<i64> = (0..target_dims)
        .map(|r| raw_procs.iter().map(|p| p[r]).max().unwrap() - mins[r] + 1)
        .collect();

    // conflict-freedom audit (debug builds): no two tasks share (proc, time)
    #[cfg(debug_assertions)]
    {
        let mut seen = std::collections::HashSet::new();
        for (t, p) in time_of.iter().zip(&proc_of) {
            assert!(seen.insert((*t, p.clone())), "space-time conflict");
        }
    }

    Ok(SystolicMapping {
        schedule: tau,
        allocation: sigma,
        time_of,
        proc_of,
        makespan,
        array_dims,
    })
}

fn dot(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// All nonzero integer vectors of dimension `m` with entries in
/// `-bound..=bound`.
fn small_vectors(m: usize, bound: i64) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut v = vec![-bound; m];
    loop {
        if v.iter().any(|&x| x != 0) {
            out.push(v.clone());
        }
        let mut d = 0;
        loop {
            v[d] += 1;
            if v[d] <= bound {
                break;
            }
            v[d] = -bound;
            d += 1;
            if d == m {
                return out;
            }
        }
    }
}

fn find_allocation(
    tau: &[i64],
    deps: &[Vec<i64>],
    m: usize,
    rows: usize,
    coords: &[&[i64]],
) -> Option<Vec<Vec<i64>>> {
    let candidates: Vec<Vec<i64>> = small_vectors(m, 1)
        .into_iter()
        .filter(|row| deps.iter().all(|d| dot(row, d).abs() <= 1))
        .collect();
    let mut chosen: Vec<Vec<i64>> = Vec::new();
    try_rows(tau, &candidates, rows, &mut chosen, coords)
}

fn try_rows(
    tau: &[i64],
    candidates: &[Vec<i64>],
    rows: usize,
    chosen: &mut Vec<Vec<i64>>,
    coords: &[&[i64]],
) -> Option<Vec<Vec<i64>>> {
    if chosen.len() == rows {
        // full row rank of [tau; chosen] is necessary...
        let mut mat: Vec<Vec<i64>> = vec![tau.to_vec()];
        mat.extend(chosen.iter().cloned());
        if rank(mat) != rows + 1 {
            return None;
        }
        // ...and injectivity on the actual lattice is what conflict-freedom
        // really needs (rank suffices only when rows + 1 == dimension)
        if is_conflict_free(tau, chosen, coords) {
            return Some(chosen.clone());
        }
        return None;
    }
    for cand in candidates {
        chosen.push(cand.clone());
        // quick partial rank check
        let mut mat: Vec<Vec<i64>> = vec![tau.to_vec()];
        mat.extend(chosen.iter().cloned());
        if rank(mat) == chosen.len() + 1 {
            if let Some(found) = try_rows(tau, candidates, rows, chosen, coords) {
                return Some(found);
            }
        }
        chosen.pop();
    }
    None
}

/// No two lattice points may share the same (time, processor) image.
fn is_conflict_free(tau: &[i64], sigma: &[Vec<i64>], coords: &[&[i64]]) -> bool {
    let mut seen = std::collections::HashSet::with_capacity(coords.len());
    coords.iter().all(|x| {
        let t = dot(tau, x);
        let p: Vec<i64> = sigma.iter().map(|row| dot(row, x)).collect();
        seen.insert((t, p))
    })
}

/// Rank of a small integer matrix by fraction-free Gaussian elimination.
fn rank(mut mat: Vec<Vec<i64>>) -> usize {
    let rows = mat.len();
    if rows == 0 {
        return 0;
    }
    let cols = mat[0].len();
    let mut r = 0;
    for c in 0..cols {
        if r == rows {
            break;
        }
        let pivot = (r..rows).find(|&i| mat[i][c] != 0);
        let Some(pivot) = pivot else { continue };
        mat.swap(r, pivot);
        for i in r + 1..rows {
            if mat[i][c] != 0 {
                let (a, b) = (mat[r][c], mat[i][c]);
                let (head, tail) = mat.split_at_mut(i);
                for (x, &pivot) in tail[0].iter_mut().zip(&head[r]) {
                    *x = *x * a - pivot * b;
                }
            }
        }
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_larcs::{compile, programs};

    #[test]
    fn matmul_synthesises_to_linear_array() {
        let tg = compile(&programs::matmul(), &[("n", 4)]).unwrap();
        let sm = synthesize(&tg, 1).unwrap();
        // causality on both dependencies
        for d in [[0i64, 1], [1, 0]] {
            let tau_d: i64 = sm.schedule.iter().zip(&d).map(|(a, b)| a * b).sum();
            assert!(tau_d >= 1);
        }
        // minimal makespan for a 4x4 grid with τ·d ≥ 1 is τ=(1,1): 7 steps
        assert_eq!(sm.makespan, 7);
        assert_eq!(sm.allocation.len(), 1);
        // locality: each dependence moves at most one processor
        for d in [[0i64, 1], [1, 0]] {
            let s_d: i64 = sm.allocation[0].iter().zip(&d).map(|(a, b)| a * b).sum();
            assert!(s_d.abs() <= 1);
        }
    }

    #[test]
    fn conflict_freedom_holds() {
        let tg = compile(&programs::matmul(), &[("n", 5)]).unwrap();
        let sm = synthesize(&tg, 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (t, p) in sm.time_of.iter().zip(&sm.proc_of) {
            assert!(seen.insert((*t, p.clone())), "two tasks share (proc, time)");
        }
    }

    #[test]
    fn wavefront_synthesises_to_2d_mesh() {
        // 3-D lattice with dependences (1,0,0), (0,1,0), (0,0,1):
        // tau = (1,1,1), sigma = two independent local rows — the 2-row
        // allocation path.
        let tg = compile(&programs::wavefront(), &[("n", 4)]).unwrap();
        let sm = synthesize(&tg, 2).unwrap();
        assert_eq!(sm.allocation.len(), 2);
        // causality and locality on all three dependences
        for d in [[1i64, 0, 0], [0, 1, 0], [0, 0, 1]] {
            let tau_d: i64 = sm.schedule.iter().zip(&d).map(|(a, b)| a * b).sum();
            assert!(tau_d >= 1);
            for row in &sm.allocation {
                let s_d: i64 = row.iter().zip(&d).map(|(a, b)| a * b).sum();
                assert!(s_d.abs() <= 1);
            }
        }
        // minimal makespan for tau=(1,1,1) over a 4^3 lattice: 3*3+1 = 10
        assert_eq!(sm.makespan, 10);
        // conflict-free
        let mut seen = std::collections::HashSet::new();
        for (t, p) in sm.time_of.iter().zip(&sm.proc_of) {
            assert!(seen.insert((*t, p.clone())));
        }
        // 2-D virtual array
        assert_eq!(sm.array_dims.len(), 2);
    }

    #[test]
    fn jacobi_has_no_causal_schedule() {
        // Jacobi's dependences include both +1 and -1 along each axis:
        // τ·d ≥ 1 and τ·(-d) ≥ 1 cannot both hold, so no linear schedule
        // exists (the recurrence is iterative, not systolic).
        let tg = compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).unwrap();
        assert_eq!(synthesize(&tg, 1), Err(SystolicError::NoSchedule));
    }

    #[test]
    fn nonuniform_graph_rejected() {
        let tg = compile(
            &programs::nbody(),
            &[("n", 8), ("s", 1), ("msgsize", 1)],
        )
        .unwrap();
        assert!(matches!(
            synthesize(&tg, 1),
            Err(SystolicError::NotUniform { .. })
        ));
    }

    #[test]
    fn rank_function_is_correct() {
        assert_eq!(rank(vec![vec![1, 0], vec![0, 1]]), 2);
        assert_eq!(rank(vec![vec![1, 1], vec![2, 2]]), 1);
        assert_eq!(rank(vec![vec![0, 0]]), 0);
        assert_eq!(rank(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]), 2);
    }

    #[test]
    fn small_vectors_enumerates_correct_count() {
        assert_eq!(small_vectors(2, 1).len(), 8); // 3^2 - 1
        assert_eq!(small_vectors(3, 1).len(), 26); // 3^3 - 1
    }
}
