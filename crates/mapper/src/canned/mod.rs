//! The canned-mapping library (paper §4.1).
//!
//! "These graphs can be described as belonging to a well-known graph family
//! such as ring, mesh, hypercube, full binary tree, etc. In this case,
//! contraction and embedding can often be accomplished in constant time by
//! hashing on the name of the task graph and the name of the network
//! topology to lookup a precomputed mapping."
//!
//! [`canned_embedding`] covers the size-matched (task count = processor
//! count) pairs with the classical constructions — Gray-code ring/torus/
//! mesh→hypercube [FF82 and folklore], snake and Hamiltonian-cycle
//! ring→mesh, binomial tree→hypercube, and the project's own binomial
//! tree→mesh embedding ([`binomial_mesh`], after [LRG⁺89]).
//! [`canned_contraction`] covers the size-mismatched same-family quotients
//! (ring→ring blocks, hypercube→subcube bit-masking, mesh→mesh tiling —
//! the quotient networks of [FF82]).

pub mod binomial_mesh;

use crate::contraction::Contraction;
use oregami_graph::Family;
use oregami_topology::gray::{bits_for, gray, mesh_to_hypercube};
use oregami_topology::{Network, ProcId, TopologyKind};

/// Looks up a precomputed one-task-per-processor embedding for
/// `(family, net.kind)`. Returns `placement[task] = processor`, or `None`
/// when no canned entry exists (MAPPER then falls back to the general
/// algorithms).
///
/// Requires `family.num_nodes() == net.num_procs()` for a `Some` result.
pub fn canned_embedding(family: Family, net: &Network) -> Option<Vec<ProcId>> {
    if family.num_nodes() != net.num_procs() {
        return None;
    }
    let n = net.num_procs();
    let p = |x: usize| ProcId(x as u32);
    match (family, net.kind) {
        // ---- identity pairs ----
        (Family::Ring(a), TopologyKind::Ring(b)) if a == b => Some((0..n).map(p).collect()),
        (Family::Chain(a), TopologyKind::Chain(b)) if a == b => Some((0..n).map(p).collect()),
        (Family::Hypercube(a), TopologyKind::Hypercube(b)) if a == b => {
            Some((0..n).map(p).collect())
        }
        (Family::Mesh2D(a, b), TopologyKind::Mesh2D(c, d)) if a == c && b == d => {
            Some((0..n).map(p).collect())
        }
        (Family::Torus2D(a, b), TopologyKind::Torus2D(c, d)) if a == c && b == d => {
            Some((0..n).map(p).collect())
        }
        (Family::FullBinaryTree(a), TopologyKind::FullBinaryTree(b)) if a == b => {
            Some((0..n).map(p).collect())
        }
        (Family::Butterfly(a), TopologyKind::Butterfly(b)) if a == b => {
            Some((0..n).map(p).collect())
        }
        (Family::Star(a), TopologyKind::Star(b)) if a == b => Some((0..n).map(p).collect()),

        // ---- ring / chain into hypercube: Gray code, dilation 1 ----
        (Family::Ring(_) | Family::Chain(_), TopologyKind::Hypercube(_)) => {
            Some((0..n).map(|i| p(gray(i as u64) as usize)).collect())
        }

        // ---- ring / chain into mesh: Hamiltonian cycle (an even side)
        //      or snake path ----
        (Family::Ring(_), TopologyKind::Mesh2D(r, c) | TopologyKind::Torus2D(r, c)) => {
            Some(ring_into_mesh(r, c).into_iter().map(p).collect())
        }
        (Family::Chain(_), TopologyKind::Mesh2D(r, c) | TopologyKind::Torus2D(r, c)) => {
            Some(snake(r, c).into_iter().map(p).collect())
        }

        // ---- mesh / torus into hypercube: per-axis Gray codes,
        //      dilation 1 when both sides are powers of two ----
        (Family::Mesh2D(r, c) | Family::Torus2D(r, c), TopologyKind::Hypercube(d)) => {
            if !r.is_power_of_two() || !c.is_power_of_two() {
                return None;
            }
            let cb = bits_for(c);
            debug_assert_eq!(bits_for(r) + cb, d as u32);
            let mut placement = Vec::with_capacity(n);
            for i in 0..r {
                for j in 0..c {
                    placement.push(p(mesh_to_hypercube(i as u64, j as u64, cb) as usize));
                }
            }
            Some(placement)
        }

        // ---- binomial tree into hypercube: the identity numbering is a
        //      dilation-1 spanning-tree embedding ----
        (Family::BinomialTree(_), TopologyKind::Hypercube(_)) => Some((0..n).map(p).collect()),

        // ---- binomial tree into mesh ([LRG+89], average dilation <= 1.2):
        //      DP-optimal construction when the table is cheap, greedy
        //      recursion beyond ----
        (Family::BinomialTree(k), TopologyKind::Mesh2D(r, c)) => {
            let placement = if k <= binomial_mesh::MAX_OPTIMAL_K {
                binomial_mesh::embed_optimal(k, r, c)
            } else {
                binomial_mesh::embed(k, r, c)
            };
            placement.map(|v| v.into_iter().map(p).collect())
        }

        // ---- star into anything: hub on a max-degree processor ----
        (Family::Star(_), _) => {
            let hub = (0..n)
                .max_by_key(|&q| (net.degree(p(q)), std::cmp::Reverse(q)))
                .unwrap();
            let mut placement = vec![p(hub)];
            placement.extend((0..n).filter(|&q| q != hub).map(p));
            Some(placement)
        }

        _ => None,
    }
}

/// Row-major boustrophedon (snake) numbering of an `r × c` mesh: a
/// Hamiltonian path, so chain edges all have dilation 1; a ring's closing
/// edge has dilation `r - 1`.
fn snake(r: usize, c: usize) -> Vec<usize> {
    let mut placement = Vec::with_capacity(r * c);
    for i in 0..r {
        for j in 0..c {
            let col = if i % 2 == 0 { j } else { c - 1 - j };
            placement.push(i * c + col);
        }
    }
    placement
}

/// Ring into mesh: a Hamiltonian cycle when some side is even (every ring
/// edge dilation 1); otherwise both sides are odd — no Hamiltonian cycle
/// exists (bipartite parity) — and the snake path is used (one edge of
/// dilation `r-1`).
fn ring_into_mesh(r: usize, c: usize) -> Vec<usize> {
    if r.is_multiple_of(2) || r * c <= 2 {
        // go down column 0, then snake back up through columns 1..c-1
        let mut placement = Vec::with_capacity(r * c);
        for i in 0..r {
            placement.push(i * c);
        }
        for step in 0..r {
            let i = r - 1 - step;
            if step % 2 == 0 {
                for j in 1..c {
                    placement.push(i * c + j);
                }
            } else {
                for j in (1..c).rev() {
                    placement.push(i * c + j);
                }
            }
        }
        placement
    } else if c.is_multiple_of(2) {
        // transpose the even-rows construction
        let t = ring_into_mesh(c, r);
        // positions were produced for a c×r mesh; transpose indices
        t.into_iter()
            .map(|pos| {
                let (i, j) = (pos / r, pos % r);
                j * c + i
            })
            .collect()
    } else {
        // odd×odd: no Hamiltonian cycle exists (the bipartite color
        // classes are unequal), so use a spiral — all edges dilation 1
        // except the single closing edge back to the start
        spiral(r, c)
    }
}

/// Clockwise spiral numbering from the top-left corner inward. Every
/// consecutive pair is mesh-adjacent; the spiral ends at the center.
fn spiral(r: usize, c: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(r * c);
    let (mut top, mut bottom, mut left, mut right) = (0usize, r - 1, 0usize, c - 1);
    loop {
        for j in left..=right {
            out.push(top * c + j);
        }
        if top == bottom {
            break;
        }
        for i in top + 1..=bottom {
            out.push(i * c + right);
        }
        if left == right {
            break;
        }
        for j in (left..right).rev() {
            out.push(bottom * c + j);
        }
        if top + 1 == bottom {
            break;
        }
        for i in (top + 1..bottom).rev() {
            out.push(i * c + left);
        }
        top += 1;
        bottom -= 1;
        left += 1;
        right -= 1;
        if top > bottom || left > right {
            break;
        }
    }
    out
}

/// Looks up a canned contraction for a family task graph onto `procs`
/// processors — the quotient-network constructions of [FF82]:
///
/// * ring → contiguous blocks;
/// * hypercube → subcube (mask off high dimensions);
/// * binomial tree → low-bit mask (quotient is the smaller binomial tree);
/// * 2-D mesh/torus → rectangular tiles (when an aligned tiling exists).
pub fn canned_contraction(family: Family, procs: usize) -> Option<Contraction> {
    let n = family.num_nodes();
    if procs == 0 || !n.is_multiple_of(procs) {
        return None;
    }
    let per = n / procs;
    match family {
        Family::Ring(_) | Family::Chain(_) => Some(Contraction {
            cluster_of: (0..n).map(|i| i / per).collect(),
            num_clusters: procs,
        }),
        Family::Hypercube(_) | Family::BinomialTree(_) => {
            if !procs.is_power_of_two() {
                return None;
            }
            let mask = procs - 1;
            Some(Contraction {
                cluster_of: (0..n).map(|i| i & mask).collect(),
                num_clusters: procs,
            })
        }
        Family::Mesh2D(r, c) | Family::Torus2D(r, c) => {
            // find a tile (tr, tc) with tr | r, tc | c and tr*tc == per,
            // preferring square-ish tiles
            let mut best: Option<(usize, usize)> = None;
            for tr in 1..=r {
                if r % tr != 0 || !per.is_multiple_of(tr) {
                    continue;
                }
                let tc = per / tr;
                if tc >= 1 && c % tc == 0 {
                    let score = tr.abs_diff(tc);
                    if best.is_none_or(|(btr, btc)| score < btr.abs_diff(btc)) {
                        best = Some((tr, tc));
                    }
                }
            }
            let (tr, tc) = best?;
            let tiles_per_row = c / tc;
            Some(Contraction {
                cluster_of: (0..n)
                    .map(|i| {
                        let (row, col) = (i / c, i % c);
                        (row / tr) * tiles_per_row + col / tc
                    })
                    .collect(),
                num_clusters: procs,
            })
        }
        _ => None,
    }
}

/// The family of the quotient graph produced by [`canned_contraction`]:
/// contracting a family onto `procs` processors yields a smaller instance
/// of a related family (ring blocks → smaller ring, hypercube subcube →
/// smaller hypercube, mesh tiles → smaller mesh, binomial low-bit mask →
/// smaller binomial tree). `None` when no canned contraction exists.
pub fn quotient_family(family: Family, procs: usize) -> Option<Family> {
    let n = family.num_nodes();
    if procs == 0 || !n.is_multiple_of(procs) {
        return None;
    }
    match family {
        Family::Ring(_) => (procs >= 3).then_some(Family::Ring(procs)),
        Family::Chain(_) => (procs >= 2).then_some(Family::Chain(procs)),
        Family::Hypercube(_) => procs
            .is_power_of_two()
            .then(|| Family::Hypercube(procs.trailing_zeros() as usize)),
        Family::BinomialTree(_) => procs
            .is_power_of_two()
            .then(|| Family::BinomialTree(procs.trailing_zeros() as usize)),
        Family::Mesh2D(r, c) | Family::Torus2D(r, c) => {
            // must mirror canned_contraction's tile choice
            let per = n / procs;
            let mut best: Option<(usize, usize)> = None;
            for tr in 1..=r {
                if r % tr != 0 || !per.is_multiple_of(tr) {
                    continue;
                }
                let tc = per / tr;
                if tc >= 1 && c % tc == 0 {
                    let score = tr.abs_diff(tc);
                    if best.is_none_or(|(btr, btc)| score < btr.abs_diff(btc)) {
                        best = Some((tr, tc));
                    }
                }
            }
            let (tr, tc) = best?;
            match family {
                Family::Mesh2D(..) => Some(Family::Mesh2D(r / tr, c / tc)),
                _ => Some(Family::Torus2D(r / tr, c / tc)),
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_topology::{builders, RouteTable};

    /// Sum and max dilation of a family's edges under a placement.
    fn dilation_stats(family: Family, net: &Network, placement: &[ProcId]) -> (f64, u32) {
        let tg = family.build();
        let table = RouteTable::try_new(net).expect("connected network");
        let mut total = 0u64;
        let mut max = 0u32;
        let mut count = 0u64;
        for (_, e) in tg.all_edges() {
            let d = table.dist(placement[e.src.index()], placement[e.dst.index()]);
            total += u64::from(d);
            max = max.max(d);
            count += 1;
        }
        (total as f64 / count as f64, max)
    }

    #[test]
    fn ring_into_hypercube_dilation_1() {
        for d in 2..=6 {
            let net = builders::hypercube(d);
            let fam = Family::Ring(1 << d);
            let placement = canned_embedding(fam, &net).unwrap();
            let (avg, max) = dilation_stats(fam, &net, &placement);
            assert_eq!(max, 1, "d={d}");
            assert_eq!(avg, 1.0);
        }
    }

    #[test]
    fn torus_into_hypercube_dilation_1() {
        let net = builders::hypercube(4);
        let fam = Family::Torus2D(4, 4);
        let placement = canned_embedding(fam, &net).unwrap();
        let (_, max) = dilation_stats(fam, &net, &placement);
        assert_eq!(max, 1);
    }

    #[test]
    fn mesh_into_hypercube_dilation_1() {
        let net = builders::hypercube(5);
        let fam = Family::Mesh2D(4, 8);
        let placement = canned_embedding(fam, &net).unwrap();
        let (_, max) = dilation_stats(fam, &net, &placement);
        assert_eq!(max, 1);
    }

    #[test]
    fn ring_into_even_mesh_is_hamiltonian_cycle() {
        for (r, c) in [(4, 4), (2, 6), (4, 3), (3, 4), (6, 5)] {
            let net = builders::mesh2d(r, c);
            let fam = Family::Ring(r * c);
            let placement = canned_embedding(fam, &net).unwrap();
            let (_, max) = dilation_stats(fam, &net, &placement);
            assert_eq!(max, 1, "{r}x{c} has a Hamiltonian cycle");
        }
    }

    #[test]
    fn ring_into_odd_mesh_spirals() {
        // no Hamiltonian cycle exists in an odd×odd mesh (bipartite color
        // classes are unequal): the spiral gives dilation 1 everywhere
        // except the single closing edge from the center back to the corner.
        for (rc, expect_close) in [(3usize, 2u32), (5, 4)] {
            let net = builders::mesh2d(rc, rc);
            let fam = Family::Ring(rc * rc);
            let placement = canned_embedding(fam, &net).unwrap();
            let tg = fam.build();
            let table = RouteTable::try_new(&net).expect("connected network");
            let dil: Vec<u32> = tg
                .all_edges()
                .map(|(_, e)| table.dist(placement[e.src.index()], placement[e.dst.index()]))
                .collect();
            let long: Vec<u32> = dil.iter().copied().filter(|&d| d > 1).collect();
            assert_eq!(long, vec![expect_close], "{rc}x{rc}");
        }
    }

    #[test]
    fn chain_into_mesh_dilation_1() {
        let net = builders::mesh2d(3, 5);
        let fam = Family::Chain(15);
        let placement = canned_embedding(fam, &net).unwrap();
        let (avg, max) = dilation_stats(fam, &net, &placement);
        assert_eq!(max, 1);
        assert_eq!(avg, 1.0);
    }

    #[test]
    fn binomial_into_hypercube_dilation_1() {
        let net = builders::hypercube(4);
        let fam = Family::BinomialTree(4);
        let placement = canned_embedding(fam, &net).unwrap();
        let (avg, max) = dilation_stats(fam, &net, &placement);
        assert_eq!(max, 1);
        assert_eq!(avg, 1.0);
    }

    #[test]
    fn star_hub_gets_max_degree_processor() {
        let net = builders::star(6);
        let placement = canned_embedding(Family::Star(6), &net).unwrap();
        assert_eq!(placement[0], ProcId(0)); // star network's hub is proc 0
        let (_, max) = dilation_stats(Family::Star(6), &net, &placement);
        assert_eq!(max, 1);
    }

    #[test]
    fn size_mismatch_returns_none() {
        let net = builders::hypercube(3);
        assert!(canned_embedding(Family::Ring(6), &net).is_none());
    }

    #[test]
    fn unknown_pair_returns_none() {
        let net = builders::butterfly(2);
        assert!(canned_embedding(Family::Ring(12), &net).is_none());
    }

    #[test]
    fn canned_ring_contraction_blocks() {
        let c = canned_contraction(Family::Ring(12), 4).unwrap();
        assert_eq!(c.num_clusters, 4);
        assert_eq!(c.sizes(), vec![3; 4]);
        // contiguous: only 4 ring edges cut
        let g = Family::Ring(12).build().collapse();
        assert_eq!(c.total_ipc(&g), 4);
    }

    #[test]
    fn canned_hypercube_contraction_subcube() {
        let c = canned_contraction(Family::Hypercube(4), 4).unwrap();
        assert_eq!(c.sizes(), vec![4; 4]);
        // quotient of Q4 by masking 2 bits: each cluster internalises the
        // edges of a Q2
        let g = Family::Hypercube(4).build().collapse();
        assert_eq!(c.internalized(&g), 16); // 4 clusters × 4 edges... Q2 has 4 edges
    }

    #[test]
    fn canned_mesh_contraction_tiles() {
        let c = canned_contraction(Family::Mesh2D(4, 6), 6).unwrap();
        assert_eq!(c.num_clusters, 6);
        assert_eq!(c.sizes(), vec![4; 6]);
    }

    #[test]
    fn quotient_families_match_contraction() {
        // the tiled 8x8 mesh onto 16 procs is a 4x4 mesh
        assert_eq!(
            quotient_family(Family::Mesh2D(8, 8), 16),
            Some(Family::Mesh2D(4, 4))
        );
        assert_eq!(quotient_family(Family::Ring(12), 4), Some(Family::Ring(4)));
        assert_eq!(
            quotient_family(Family::Hypercube(4), 4),
            Some(Family::Hypercube(2))
        );
        assert_eq!(
            quotient_family(Family::BinomialTree(6), 16),
            Some(Family::BinomialTree(4))
        );
        assert_eq!(quotient_family(Family::Ring(10), 3), None);
        // quotient structure check: every cut edge of the tiling connects
        // adjacent tiles, so the quotient of the collapsed graph embeds
        // with dilation 1 under the canned identity
        let fam = Family::Mesh2D(4, 6);
        let c = canned_contraction(fam, 6).unwrap();
        let qf = quotient_family(fam, 6).unwrap();
        assert_eq!(qf, Family::Mesh2D(2, 3));
        let (q, _) = fam.build().collapse().quotient(&c.cluster_of, 6);
        // quotient adjacency equals the 2x3 mesh adjacency
        let expect = qf.build().collapse();
        for e in q.edges() {
            assert!(expect.weight_between(e.u, e.v) > 0, "edge {e:?}");
        }
    }

    #[test]
    fn contraction_requires_divisibility() {
        assert!(canned_contraction(Family::Ring(10), 3).is_none());
        assert!(canned_contraction(Family::Hypercube(3), 3).is_none());
    }
}
