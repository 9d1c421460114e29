//! End-to-end group-theoretic contraction of a task graph (paper §4.2.2).
//!
//! Given a task graph whose communication phases are each a bijection on
//! the task set, this module:
//!
//! 1. reads each phase as a permutation (the group **generators**);
//! 2. closes the group with the paper's `|X|`-bounded BFS (`O(|X|²)` when
//!    the action is regular);
//! 3. verifies the action is regular (`|G| = |X|`, all elements with
//!    equal-length cycles) so the Cayley graph is isomorphic to the task
//!    graph;
//! 4. finds a subgroup of order `|X| / clusters` (Sylow's corollary
//!    guarantees one when that ratio is a prime power), preferring normal
//!    subgroups;
//! 5. contracts: each coset becomes one equal-sized cluster, and the
//!    internalised message count per cluster is identical across clusters.

use crate::cayley::{element_to_task, is_regular_action};
use crate::group::{ClosureError, PermGroup};
use crate::perm::Perm;
use crate::subgroup::{cosets, find_subgroups_of_order, is_normal, Subgroup};
use oregami_graph::TaskGraph;

/// Why the group-theoretic contraction is not applicable to a task graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupContractError {
    /// The requested cluster count does not divide the task count.
    ClusterCountMustDivide {
        /// Number of tasks.
        tasks: usize,
        /// Requested cluster count.
        clusters: usize,
    },
    /// A communication phase is not a bijection on the tasks (some task
    /// does not send exactly one message, or two tasks send to the same
    /// target).
    PhaseNotBijective {
        /// Name of the offending phase.
        phase: String,
        /// Detail of the violation.
        reason: String,
    },
    /// The generated group has more than `|X|` elements — the action cannot
    /// be regular, and per the paper the closure is aborted early.
    GroupTooLarge,
    /// `|G| = |X|` but the action is not regular (unequal cycle lengths or
    /// intransitive).
    NotRegular,
    /// No subgroup of the required order was found.
    NoSubgroup {
        /// The required subgroup order `|X| / clusters`.
        order: usize,
    },
}

impl std::fmt::Display for GroupContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupContractError::ClusterCountMustDivide { tasks, clusters } => {
                write!(f, "{clusters} clusters do not evenly divide {tasks} tasks")
            }
            GroupContractError::PhaseNotBijective { phase, reason } => {
                write!(f, "communication phase '{phase}' is not a bijection: {reason}")
            }
            GroupContractError::GroupTooLarge => {
                write!(f, "generated group exceeds |X| elements; action is not regular")
            }
            GroupContractError::NotRegular => write!(f, "group action is not regular"),
            GroupContractError::NoSubgroup { order } => {
                write!(f, "no subgroup of order {order} found")
            }
        }
    }
}

impl std::error::Error for GroupContractError {}

/// A successful group-theoretic contraction.
#[derive(Clone, Debug)]
pub struct GroupContraction {
    /// The generated permutation group (|G| = |X|).
    pub group: PermGroup,
    /// The subgroup whose cosets form the clusters.
    pub subgroup: Subgroup,
    /// Whether that subgroup is normal (quotient is itself a Cayley graph).
    pub subgroup_is_normal: bool,
    /// Cluster index of every task.
    pub cluster_of: Vec<usize>,
    /// Number of clusters (= number of cosets).
    pub num_clusters: usize,
    /// Number of task-graph message edges internalised within each cluster
    /// (identical across clusters for a valid group contraction), indexed
    /// by cluster.
    pub internalized_messages_per_cluster: Vec<usize>,
    /// Total internalised communication volume (sum of volumes of
    /// intra-cluster edges, all phases).
    pub internalized_volume: u64,
    /// Total cut volume (inter-cluster edges, all phases).
    pub cut_volume: u64,
}

/// Extracts the permutation defined by one communication phase: every task
/// must send exactly one message, and targets must be distinct.
fn phase_permutation(tg: &TaskGraph, phase: usize) -> Result<Perm, GroupContractError> {
    let n = tg.num_tasks();
    let p = &tg.comm_phases[phase];
    let mut img = vec![u32::MAX; n];
    for e in &p.edges {
        if img[e.src.index()] != u32::MAX {
            return Err(GroupContractError::PhaseNotBijective {
                phase: p.name.clone(),
                reason: format!("task {} sends more than one message", e.src),
            });
        }
        img[e.src.index()] = e.dst.0;
    }
    if let Some(t) = img.iter().position(|&x| x == u32::MAX) {
        return Err(GroupContractError::PhaseNotBijective {
            phase: p.name.clone(),
            reason: format!("task {t} sends no message"),
        });
    }
    Perm::from_images(img).map_err(|reason| GroupContractError::PhaseNotBijective {
        phase: p.name.clone(),
        reason,
    })
}

/// Runs the full group-theoretic contraction of `tg` into `num_clusters`
/// equal-sized clusters.
pub fn group_contract(
    tg: &TaskGraph,
    num_clusters: usize,
) -> Result<GroupContraction, GroupContractError> {
    let n = tg.num_tasks();
    if num_clusters == 0 || !n.is_multiple_of(num_clusters) {
        return Err(GroupContractError::ClusterCountMustDivide {
            tasks: n,
            clusters: num_clusters,
        });
    }
    // 1. Generators from the communication phases.
    let gens: Vec<Perm> = (0..tg.num_phases())
        .map(|k| phase_permutation(tg, k))
        .collect::<Result<_, _>>()?;
    // 2. Bounded closure.
    let group = PermGroup::close_with_bound(&gens, n).map_err(|e| match e {
        ClosureError::ExceedsBound(_) => GroupContractError::GroupTooLarge,
        ClosureError::BadGenerators(reason) => GroupContractError::PhaseNotBijective {
            phase: "<generators>".into(),
            reason,
        },
    })?;
    // 3. Regularity.
    if !is_regular_action(&group) {
        return Err(GroupContractError::NotRegular);
    }
    let elem_to_task = element_to_task(&group).expect("checked regular");
    let mut task_to_elem = vec![0usize; n];
    for (e, &t) in elem_to_task.iter().enumerate() {
        task_to_elem[t as usize] = e;
    }
    // 4. Subgroup of order |X| / clusters.
    let order = n / num_clusters;
    let candidates = find_subgroups_of_order(&group, order);
    let subgroup = candidates
        .into_iter()
        .next()
        .ok_or(GroupContractError::NoSubgroup { order })?;
    let subgroup_is_normal = is_normal(&group, &subgroup);
    // 5. Clusters from cosets, via the element<->task correspondence.
    let (coset_of, count) = cosets(&group, &subgroup);
    debug_assert_eq!(count, num_clusters);
    let cluster_of: Vec<usize> = (0..n).map(|t| coset_of[task_to_elem[t]]).collect();
    // 6. Internalisation accounting.
    let mut per_cluster = vec![0usize; count];
    let mut internal_vol = 0u64;
    let mut cut_vol = 0u64;
    for (_, e) in tg.all_edges() {
        if cluster_of[e.src.index()] == cluster_of[e.dst.index()] {
            per_cluster[cluster_of[e.src.index()]] += 1;
            internal_vol += e.volume;
        } else {
            cut_vol += e.volume;
        }
    }
    Ok(GroupContraction {
        group,
        subgroup,
        subgroup_is_normal,
        cluster_of,
        num_clusters: count,
        internalized_messages_per_cluster: per_cluster,
        internalized_volume: internal_vol,
        cut_volume: cut_vol,
    })
}

/// A contraction derived from the circulant fast path (no group closure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CirculantContraction {
    /// Detected per-phase shifts (`dst - src mod n`, constant per phase).
    pub shifts: Vec<usize>,
    /// Cluster of each task (`i mod procs` — the cosets of `⟨procs⟩ ≤ Z_n`).
    pub cluster_of: Vec<usize>,
    /// Number of clusters.
    pub num_clusters: usize,
    /// Whether the shifts generate all of `Z_n` (regular action — the
    /// paper's Cayley-isomorphism condition). Contraction by residues is
    /// valid either way; regularity additionally guarantees the graph is
    /// connected and the quotient is itself circulant.
    pub regular: bool,
}

/// The semantic side of the paper's proposed *syntactic characterization*
/// (§4.2.2 closing paragraph): detects in `O(E)` that every communication
/// phase is a **translation** on `Z_n` (`dst − src ≡ c_k (mod n)` with the
/// same `c_k` for all edges of phase `k`, each task sending exactly once).
/// Returns the shifts, or `None` for anything non-circulant.
pub fn detect_circulant(tg: &TaskGraph) -> Option<Vec<usize>> {
    let n = tg.num_tasks();
    if n < 2 || tg.num_phases() == 0 {
        return None;
    }
    let mut shifts = Vec::with_capacity(tg.num_phases());
    for phase in &tg.comm_phases {
        if phase.edges.len() != n {
            return None;
        }
        let mut seen = vec![false; n];
        let mut shift: Option<usize> = None;
        for e in &phase.edges {
            if seen[e.src.index()] {
                return None; // a task sends twice
            }
            seen[e.src.index()] = true;
            let d = (e.dst.index() + n - e.src.index()) % n;
            match shift {
                None => shift = Some(d),
                Some(s) if s == d => {}
                _ => return None,
            }
        }
        shifts.push(shift?);
    }
    Some(shifts)
}

/// The `O(n)` contraction of a circulant task graph onto `procs`
/// processors — the cosets of `⟨procs⟩ ≤ Z_n` are the residue classes
/// `i mod procs`, so no group is ever materialised. This is the payoff of
/// the paper's "avoid computation of the cycle notation" future work: it
/// produces the same clustering as [`group_contract`] (which finds the
/// subgroup by closure and search) at a fraction of the cost.
pub fn circulant_contract(tg: &TaskGraph, procs: usize) -> Option<CirculantContraction> {
    let n = tg.num_tasks();
    if procs == 0 || !n.is_multiple_of(procs) {
        return None;
    }
    let shifts = detect_circulant(tg)?;
    let mut g = n;
    for &s in &shifts {
        g = gcd(g, s);
    }
    Some(CirculantContraction {
        cluster_of: (0..n).map(|i| i % procs).collect(),
        num_clusters: procs,
        regular: g == 1,
        shifts,
    })
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_graph::{Family, TaskId};

    /// The paper's 8-node perfect broadcast task graph: three phases
    /// comm1 (+1), comm2 (+2), comm3 (+4) mod 8.
    fn perfect_broadcast(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new("broadcast");
        g.add_scalar_nodes("task", n);
        let mut step = 1;
        while step < n {
            let p = g.add_phase(format!("comm{step}"));
            for i in 0..n {
                g.add_edge(p, TaskId::new(i), TaskId::new((i + step) % n), 1);
            }
            step *= 2;
        }
        g
    }

    #[test]
    fn paper_figure4_contraction() {
        // 8 tasks onto 4 processors: |T|/|A| = 2 = prime, so a perfectly
        // balanced contraction exists; the subgroup {E0, E4} internalises
        // 2 messages per cluster.
        let tg = perfect_broadcast(8);
        let c = group_contract(&tg, 4).unwrap();
        assert_eq!(c.num_clusters, 4);
        assert!(c.subgroup_is_normal);
        assert_eq!(c.subgroup.order(), 2);
        // Equal-sized clusters of 2 tasks.
        let mut sizes = vec![0; 4];
        for &cl in &c.cluster_of {
            sizes[cl] += 1;
        }
        assert_eq!(sizes, vec![2, 2, 2, 2]);
        // Exactly 2 messages internalised in each cluster (the comm3 pair
        // i <-> i+4).
        assert_eq!(c.internalized_messages_per_cluster, vec![2, 2, 2, 2]);
        // Tasks i and i+4 share a cluster.
        for i in 0..4 {
            assert_eq!(c.cluster_of[i], c.cluster_of[i + 4]);
        }
    }

    #[test]
    fn contraction_to_two_clusters() {
        let tg = perfect_broadcast(8);
        let c = group_contract(&tg, 2).unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.subgroup.order(), 4);
        let sizes = {
            let mut s = vec![0; 2];
            for &cl in &c.cluster_of {
                s[cl] += 1;
            }
            s
        };
        assert_eq!(sizes, vec![4, 4]);
    }

    #[test]
    fn ring_task_graph_contracts() {
        // A plain ring is a Cayley graph of Z_n with one generator.
        let tg = Family::Ring(12).build();
        let c = group_contract(&tg, 4).unwrap();
        assert_eq!(c.num_clusters, 4);
        let mut sizes = vec![0; 4];
        for &cl in &c.cluster_of {
            sizes[cl] += 1;
        }
        assert_eq!(sizes, vec![3, 3, 3, 3]);
        // Ring has 12 edges; 4 clusters of 3 consecutive?? No — the
        // subgroup of order 3 in Z12 is {0,4,8}: clusters are arithmetic
        // progressions with stride 4, so NO ring edge is internal.
        // Internalised messages may be zero; the contraction is still
        // balanced and valid.
        assert_eq!(c.internalized_volume + c.cut_volume, 12);
    }

    #[test]
    fn non_bijective_phase_rejected() {
        let tg = Family::Star(4).build(); // hub sends 3 messages
        let err = group_contract(&tg, 2).unwrap_err();
        assert!(matches!(err, GroupContractError::PhaseNotBijective { .. }));
    }

    #[test]
    fn non_dividing_cluster_count_rejected() {
        let tg = perfect_broadcast(8);
        assert!(matches!(
            group_contract(&tg, 3),
            Err(GroupContractError::ClusterCountMustDivide { .. })
        ));
    }

    #[test]
    fn non_regular_action_rejected() {
        // Build a 4-task graph whose single phase is the transposition
        // (0 1)(2)(3) — not even a derangement-free bijection... it IS a
        // bijection but with unequal cycle lengths {2,1,1}: the closure has
        // order 2 < 4, so the action is intransitive => not regular.
        let mut g = TaskGraph::new("bad");
        g.add_scalar_nodes("t", 4);
        let p = g.add_phase("swap");
        g.add_edge(p, TaskId(0), TaskId(1), 1);
        g.add_edge(p, TaskId(1), TaskId(0), 1);
        g.add_edge(p, TaskId(2), TaskId(2), 1);
        g.add_edge(p, TaskId(3), TaskId(3), 1);
        assert!(matches!(group_contract(&g, 2), Err(GroupContractError::NotRegular)));
    }

    #[test]
    fn group_too_large_aborts() {
        // Phases (01)(23) and (12)(03)... choose generators of a dihedral
        // group acting on 4 points: rotations+reflection generate D4 of
        // order 8 > 4.
        let mut g = TaskGraph::new("d4");
        g.add_scalar_nodes("t", 4);
        let rot = g.add_phase("rot"); // (0123)
        for i in 0..4 {
            g.add_edge(rot, TaskId::new(i), TaskId::new((i + 1) % 4), 1);
        }
        let refl = g.add_phase("refl"); // (0)(13)(2) -> reflection fixing 0 and 2
        g.add_edge(refl, TaskId(0), TaskId(0), 1);
        g.add_edge(refl, TaskId(1), TaskId(3), 1);
        g.add_edge(refl, TaskId(2), TaskId(2), 1);
        g.add_edge(refl, TaskId(3), TaskId(1), 1);
        assert!(matches!(group_contract(&g, 2), Err(GroupContractError::GroupTooLarge)));
    }

    #[test]
    fn circulant_fast_path_matches_group_machinery() {
        let tg = perfect_broadcast(16);
        let fast = circulant_contract(&tg, 4).unwrap();
        assert_eq!(fast.shifts, vec![1, 2, 4, 8]);
        assert!(fast.regular);
        let slow = group_contract(&tg, 4).unwrap();
        // identical clusterings up to renaming: same partition
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(
                    fast.cluster_of[i] == fast.cluster_of[j],
                    slow.cluster_of[i] == slow.cluster_of[j],
                    "tasks {i},{j}"
                );
            }
        }
    }

    #[test]
    fn circulant_detection_rejects_non_translations() {
        assert_eq!(detect_circulant(&Family::Star(5).build()), None);
        assert_eq!(detect_circulant(&Family::Chain(5).build()), None);
        // hypercube XOR phases are bijective but not translations
        let mut g = TaskGraph::new("xor");
        g.add_scalar_nodes("t", 8);
        let p = g.add_phase("dim1");
        for i in 0..8usize {
            g.add_edge(p, TaskId::new(i), TaskId::new(i ^ 2), 1);
        }
        assert_eq!(detect_circulant(&g), None);
        // ring IS a translation
        assert_eq!(detect_circulant(&Family::Ring(6).build()), Some(vec![1]));
    }

    #[test]
    fn non_generating_circulant_flagged_irregular() {
        let mut g = TaskGraph::new("even");
        g.add_scalar_nodes("t", 8);
        let p = g.add_phase("two");
        for i in 0..8usize {
            g.add_edge(p, TaskId::new(i), TaskId::new((i + 2) % 8), 1);
        }
        let c = circulant_contract(&g, 4).unwrap();
        assert!(!c.regular); // gcd(2, 8) = 2
        assert_eq!(c.num_clusters, 4);
    }

    #[test]
    fn hypercube_like_xor_phases_contract() {
        // Phases i -> i XOR 2^b form (Z2)^3 acting on 8 tasks — regular.
        let mut g = TaskGraph::new("xor");
        g.add_scalar_nodes("t", 8);
        for b in 0..3 {
            let p = g.add_phase(format!("dim{b}"));
            for i in 0..8usize {
                g.add_edge(p, TaskId::new(i), TaskId::new(i ^ (1 << b)), 1);
            }
        }
        let c = group_contract(&g, 4).unwrap();
        assert_eq!(c.num_clusters, 4);
        // Every cluster internalises the same number of messages.
        let first = c.internalized_messages_per_cluster[0];
        assert!(c
            .internalized_messages_per_cluster
            .iter()
            .all(|&m| m == first));
        assert!(first > 0);
    }
}
