//! Built-in LaRCS programs.
//!
//! The paper reports that "LaRCS has been used to describe a wide variety of
//! parallel algorithms including matrix multiplication, fast Fourier
//! transform, topological sort, divide and conquer using binomial trees,
//! simulated annealing, Jacobi iterative method ..., successive
//! over-relaxation ..., and perfect broadcast distributed voting". This
//! module carries that library: each function returns the LaRCS source for
//! one of those algorithms, and [`all_programs`] enumerates them with
//! working sample parameters (used by the integration tests and benches).

/// The paper's running example (Fig 2): Seitz's Cosmic-Cube n-body
/// algorithm — a ring of `n` identical tasks with an extra chordal exchange
/// halfway around, repeated `s` sweeps. Parameters: `n` bodies, `s`
/// iterations; imports: `msgsize` bytes per message.
pub fn nbody() -> String {
    "\
algorithm nbody(n, s);
import msgsize;

nodetype body: 0..n-1 nodesymmetric;

-- pass accumulated forces to the ring successor
comphase ring:
  forall i in 0..n-1 { body(i) -> body((i+1) mod n) volume msgsize; }

-- acquire the remaining half from the chordal neighbor
comphase chordal:
  forall i in 0..n-1 { body(i) -> body((i + (n+1)/2) mod n) volume msgsize; }

exephase compute1 cost 50;
exephase compute2 cost 20;

phaseexpr ((ring; compute1)^((n-1)/2); chordal; compute2)^s;
"
    .to_string()
}

/// The paper's Fig 4 example: the 8-node perfect broadcast ("elect a
/// leader") algorithm whose three communication functions generate Z8 —
/// the showcase for the group-theoretic contraction.
pub fn broadcast8() -> String {
    "\
algorithm broadcast8();

nodetype task: 0..7 nodesymmetric;

comphase comm1:
  forall i in 0..7 { task(i) -> task((i+1) mod 8); }
comphase comm2:
  forall i in 0..7 { task(i) -> task((i+2) mod 8); }
comphase comm3:
  forall i in 0..7 { task(i) -> task((i+4) mod 8); }

exephase vote cost 10;

phaseexpr comm1; vote; comm2; vote; comm3; vote;
"
    .to_string()
}

/// Jacobi iteration for Laplace's equation on an `n × n` grid: four
/// nearest-neighbor exchange phases plus the relaxation update, repeated
/// `iters` times.
pub fn jacobi() -> String {
    "\
algorithm jacobi(n, iters);

nodetype cell: (0..n-1, 0..n-1);

comphase north:
  forall i in 0..n-1, j in 0..n-1 where i > 0 { cell(i,j) -> cell(i-1,j); }
comphase south:
  forall i in 0..n-1, j in 0..n-1 where i < n-1 { cell(i,j) -> cell(i+1,j); }
comphase west:
  forall i in 0..n-1, j in 0..n-1 where j > 0 { cell(i,j) -> cell(i,j-1); }
comphase east:
  forall i in 0..n-1, j in 0..n-1 where j < n-1 { cell(i,j) -> cell(i,j+1); }

exephase relax cost 4;

phaseexpr ((north || south || east || west); relax)^iters;
"
    .to_string()
}

/// Successive over-relaxation with red/black ordering on an `n × n` grid:
/// red cells update from black neighbors, then black from red.
pub fn sor() -> String {
    "\
algorithm sor(n, iters);

nodetype cell: (0..n-1, 0..n-1);

-- black neighbors feed red cells ((i+j) even = red)
comphase blacktored:
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 1 and i > 0   { cell(i,j) -> cell(i-1,j); }
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 1 and i < n-1 { cell(i,j) -> cell(i+1,j); }
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 1 and j > 0   { cell(i,j) -> cell(i,j-1); }
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 1 and j < n-1 { cell(i,j) -> cell(i,j+1); }
comphase redtoblack:
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 0 and i > 0   { cell(i,j) -> cell(i-1,j); }
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 0 and i < n-1 { cell(i,j) -> cell(i+1,j); }
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 0 and j > 0   { cell(i,j) -> cell(i,j-1); }
  forall i in 0..n-1, j in 0..n-1 where (i+j) mod 2 == 0 and j < n-1 { cell(i,j) -> cell(i,j+1); }

exephase updatered cost 4;
exephase updateblack cost 4;

phaseexpr (blacktored; updatered; redtoblack; updateblack)^iters;
"
    .to_string()
}

/// Parallel divide-and-conquer on the binomial tree `B_k` (`2^k` tasks):
/// scatter down the tree, compute at the leaves, combine back up. The
/// paper ([LRG+89]) shows `B_k` is the natural task graph for this class.
pub fn binomial_dnc() -> String {
    "\
algorithm binomialdnc(k);

nodetype node: 0..2**k-1 family(binomialtree);

-- parent i spawns child i + 2**j for each level j
comphase scatter:
  forall j in 0..k-1, i in 0..2**j-1 { node(i) -> node(i + 2**j); }
comphase combine:
  forall j in 0..k-1, i in 0..2**j-1 { node(i + 2**j) -> node(i); }

exephase solve cost 100;
exephase merge cost 10;

phaseexpr scatter; solve; combine; merge;
"
    .to_string()
}

/// FFT dataflow on the butterfly graph with `k` rank levels
/// (`(k+1) * 2^k` tasks): each level feeds the next straight and across
/// (the XOR partner, expressed arithmetically).
pub fn fft() -> String {
    "\
algorithm fft(k);

nodetype bf: (0..k, 0..2**k-1) family(butterfly);

comphase wire:
  forall l in 0..k-1, r in 0..2**k-1 {
    bf(l,r) -> bf(l+1, r);
    -- the cross edge goes to r XOR 2**l: +2**l when bit l of r is 0, else -2**l
    bf(l,r) -> bf(l+1, r + 2**l * (1 - 2*((r / 2**l) mod 2)));
  }

exephase twiddle cost 6;

phaseexpr (wire; twiddle)^k;
"
    .to_string()
}

/// Systolic-style matrix multiplication on an `n × n` processor grid:
/// operands stream east and south one step per beat — uniform (affine)
/// dependencies, the showcase for the systolic synthesis path (§4.2.1).
pub fn matmul() -> String {
    "\
algorithm matmul(n);

nodetype pe: (0..n-1, 0..n-1);

comphase east:
  forall i in 0..n-1, j in 0..n-2 { pe(i,j) -> pe(i,j+1); }
comphase south:
  forall i in 0..n-2, j in 0..n-1 { pe(i,j) -> pe(i+1,j); }

exephase mac cost 2;

phaseexpr ((east || south); mac)^(2*n);
"
    .to_string()
}

/// Topological-sort pipeline: a chain of `n` stages passing partial orders
/// forward (the paper lists topological sort among its described
/// algorithms).
pub fn pipeline() -> String {
    "\
algorithm pipeline(n, rounds);

nodetype stage: 0..n-1;

comphase forward:
  forall i in 0..n-2 { stage(i) -> stage(i+1) volume 16; }

exephase work cost 25;

phaseexpr (forward; work)^rounds;
"
    .to_string()
}

/// Simulated annealing on a ring of workers exchanging boundary state with
/// both neighbors each sweep.
pub fn annealing() -> String {
    "\
algorithm annealing(n, sweeps);

nodetype worker: 0..n-1 nodesymmetric family(ring);

comphase exchange:
  forall i in 0..n-1 { worker(i) -> worker((i+1) mod n); }
comphase backexchange:
  forall i in 0..n-1 { worker(i) -> worker((i+n-1) mod n); }

exephase anneal cost 80;

phaseexpr ((exchange || backexchange); anneal)^sweeps;
"
    .to_string()
}

/// Eight-color ordering of SOR on an `n × n` grid: cells are colored by
/// `(2i + j) mod 8` and each color class updates in turn, reading all four
/// mesh neighbors (which never share its color). Semantically a finer
/// partition of the same mesh exchange as [`sor`]; its 8 comphases × 4
/// rules = 32 distinct rules make it the stress program for the
/// incremental front end — editing one rule leaves 31 cached fragments
/// untouched (`tests/prop_query.rs`, EXPERIMENTS.md A8).
pub fn sor_multicolor() -> String {
    let mut s = String::from(
        "algorithm sormulticolor(n, iters);\n\nnodetype cell: (0..n-1, 0..n-1);\n",
    );
    for c in 0..8 {
        s.push_str(&format!("\ncomphase color{c}:\n"));
        for (guard, edge) in [
            ("i > 0", "cell(i,j) -> cell(i-1,j)"),
            ("i < n-1", "cell(i,j) -> cell(i+1,j)"),
            ("j > 0", "cell(i,j) -> cell(i,j-1)"),
            ("j < n-1", "cell(i,j) -> cell(i,j+1)"),
        ] {
            s.push_str(&format!(
                "  forall i in 0..n-1, j in 0..n-1 where (2*i+j) mod 8 == {c} and {guard} {{ {edge}; }}\n"
            ));
        }
    }
    s.push_str("\nexephase update cost 4;\n\nphaseexpr (");
    for c in 0..8 {
        if c > 0 {
            s.push_str("; ");
        }
        s.push_str(&format!("color{c}; update"));
    }
    s.push_str(")^iters;\n");
    s
}

/// `(name, source, sample parameters)` of one built-in program.
pub type ProgramEntry = (&'static str, String, Vec<(&'static str, i64)>);

/// 3-D wavefront relaxation (Gauss–Seidel-style sweep): values flow along
/// all three axes of an `n × n × n` lattice — three uniform dependence
/// vectors, the showcase for systolic synthesis onto a 2-D mesh
/// (projection along the schedule direction).
pub fn wavefront() -> String {
    "\
algorithm wavefront(n);

nodetype cell: (0..n-1, 0..n-1, 0..n-1);

comphase flowi:
  forall i in 0..n-2, j in 0..n-1, k in 0..n-1 { cell(i,j,k) -> cell(i+1,j,k); }
comphase flowj:
  forall i in 0..n-1, j in 0..n-2, k in 0..n-1 { cell(i,j,k) -> cell(i,j+1,k); }
comphase flowk:
  forall i in 0..n-1, j in 0..n-1, k in 0..n-2 { cell(i,j,k) -> cell(i,j,k+1); }

exephase update cost 3;

phaseexpr ((flowi || flowj || flowk); update)^(3*n);
"
    .to_string()
}

/// Every built-in program with working sample parameters.
pub fn all_programs() -> Vec<ProgramEntry> {
    vec![
        ("nbody", nbody(), vec![("n", 15), ("s", 3), ("msgsize", 8)]),
        ("broadcast8", broadcast8(), vec![]),
        ("jacobi", jacobi(), vec![("n", 8), ("iters", 10)]),
        ("sor", sor(), vec![("n", 8), ("iters", 10)]),
        ("sormulticolor", sor_multicolor(), vec![("n", 8), ("iters", 2)]),
        ("binomialdnc", binomial_dnc(), vec![("k", 4)]),
        ("fft", fft(), vec![("k", 3)]),
        ("matmul", matmul(), vec![("n", 4)]),
        ("pipeline", pipeline(), vec![("n", 8), ("rounds", 5)]),
        ("wavefront", wavefront(), vec![("n", 3)]),
        ("annealing", annealing(), vec![("n", 12), ("sweeps", 4)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn all_programs_compile() {
        for (name, src, params) in all_programs() {
            let g = compile(&src, &params).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.num_tasks() > 0, "{name} has tasks");
            assert!(g.num_edges() > 0, "{name} has edges");
            assert!(g.phase_expr.is_some(), "{name} has a phase expression");
            g.validate().unwrap();
        }
    }

    #[test]
    fn broadcast8_is_the_paper_graph() {
        let g = compile(&broadcast8(), &[]).unwrap();
        assert_eq!(g.num_tasks(), 8);
        assert_eq!(g.num_phases(), 3);
        for (k, step) in [(0usize, 1u32), (1, 2), (2, 4)] {
            for e in &g.comm_phases[k].edges {
                assert_eq!(e.dst.0, (e.src.0 + step) % 8);
            }
        }
    }

    #[test]
    fn binomial_dnc_builds_binomial_tree() {
        let g = compile(&binomial_dnc(), &[("k", 3)]).unwrap();
        assert_eq!(g.num_tasks(), 8);
        use oregami_graph::Family;
        assert_eq!(g.family, Some(Family::BinomialTree(3)));
        // scatter edges match Family::BinomialTree(3)
        let expect = Family::BinomialTree(3).build();
        let mut ours: Vec<(u32, u32)> = g.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        let mut theirs: Vec<(u32, u32)> = expect.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn fft_wires_match_butterfly_family() {
        let g = compile(&fft(), &[("k", 3)]).unwrap();
        use oregami_graph::Family;
        assert_eq!(g.family, Some(Family::Butterfly(3)));
        assert_eq!(g.num_tasks(), 32);
        let expect = Family::Butterfly(3).build();
        let mut ours: Vec<(u32, u32)> = g.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        let mut theirs: Vec<(u32, u32)> = expect.comm_phases[0]
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs, "XOR arithmetic must reproduce butterfly cross edges");
    }

    #[test]
    fn sor_phases_partition_mesh_edges() {
        let g = compile(&sor(), &[("n", 4), ("iters", 1)]).unwrap();
        // every directed mesh edge appears exactly once across both phases
        // (each edge connects a red and a black cell)
        let total: usize = g.comm_phases.iter().map(|p| p.edges.len()).sum();
        assert_eq!(total, 2 * 24); // 24 undirected mesh edges, both directions
    }

    #[test]
    fn sor_multicolor_partitions_mesh_edges_across_32_rules() {
        let src = sor_multicolor();
        let p = crate::parse(&src).unwrap();
        assert_eq!(p.comphases.len(), 8);
        assert_eq!(p.comphases.iter().map(|c| c.rules.len()).sum::<usize>(), 32);
        let g = compile(&src, &[("n", 4), ("iters", 1)]).unwrap();
        // the 8 color phases partition the same directed mesh edges as sor
        let total: usize = g.comm_phases.iter().map(|ph| ph.edges.len()).sum();
        assert_eq!(total, 2 * 24);
    }

    #[test]
    fn nbody_compactness_claim() {
        // C2 (paper §3): the LaRCS description is an order of magnitude
        // smaller than the task graph it denotes.
        let src = nbody();
        let g = compile(&src, &[("n", 1000), ("s", 5), ("msgsize", 8)]).unwrap();
        let description_size = src.len();
        let graph_size = g.num_tasks() + g.num_edges();
        assert!(graph_size > 10 * description_size / 10); // 3000 entities
        assert!(description_size < 1000);
    }
}
