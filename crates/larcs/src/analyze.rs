//! Regularity analyses — the checks MAPPER's dispatch (paper Fig 3) keys on.
//!
//! Three kinds of regularity are detected:
//!
//! 1. **Nameable** (§4.1): the task graph belongs to a well-known family —
//!    either declared via the `family(...)` attribute or recognised
//!    structurally (small graphs, by isomorphism against candidates of the
//!    right size);
//! 2. **Affine / systolic-mappable** (§4.2.1): node labels form an integer
//!    lattice polytope (guaranteed by LaRCS's range-based labeling) and the
//!    communication functions are affine — checked *syntactically* on the
//!    AST ([`syntactic_affine`]), exactly the paper's constant-time compiler
//!    test, and *semantically* on the elaborated graph by extracting
//!    constant dependence vectors ([`analyze`]);
//! 3. **Node-symmetric / Cayley** (§4.2.2): every communication phase is a
//!    bijection on the tasks, making the phases group generators. Whether
//!    those generators are translations on `Z_n` (the circulant fast path
//!    that stands in for the paper's syntactic Cayley test) is decided on
//!    the elaborated graph, by `oregami-group`'s `detect_circulant`.
//!
//! [`lint`] runs the source-level checks as span-carrying [`Diagnostic`]
//! warnings, so interactive tooling can underline e.g. the exact label
//! expression that blocks the systolic path.

use crate::ast::Program;
use crate::error::{Diagnostic, Stage};
use crate::intern::Symbol;
use oregami_graph::{iso, Csr, Family, TaskGraph, TaskId};

/// Step budget for structural family recognition: enough to resolve every
/// true family match at n <= 64 instantly, small enough that a regular
/// imposter (e.g. an n-body graph vs a torus) fails fast instead of
/// stalling the pipeline.
const RECOGNITION_BUDGET: u64 = 200_000;

/// Per-phase regularity findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseAnalysis {
    /// Phase name.
    pub name: String,
    /// Whether the phase's edges form a bijection on the task set
    /// (every task sends exactly one message and receives exactly one).
    pub bijective: bool,
    /// If every edge of the phase displaces node labels by the same
    /// constant vector, that vector (a *uniform dependence*, the systolic
    /// synthesis input).
    pub uniform_dependence: Option<Vec<i64>>,
}

/// Whole-graph regularity findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    /// Known family (declared, or structurally recognised for small graphs).
    pub family: Option<Family>,
    /// `nodesymmetric` was declared in the LaRCS program.
    pub node_symmetric_declared: bool,
    /// Per-phase findings, in phase order.
    pub phases: Vec<PhaseAnalysis>,
    /// All phases bijective — the precondition for the group-theoretic path.
    pub all_bijective: bool,
    /// All phases carry a uniform dependence vector — the precondition for
    /// the systolic path.
    pub all_uniform: bool,
}

/// Analyses an elaborated task graph: every finding at once. MAPPER's
/// dispatch does not call this; each arm asks for the one finding it
/// reads ([`all_phases_uniform`], [`all_phases_bijective`],
/// [`recognize_family`]).
pub fn analyze(tg: &TaskGraph) -> Analysis {
    let phases: Vec<PhaseAnalysis> = (0..tg.num_phases())
        .map(|k| PhaseAnalysis {
            name: tg.comm_phases[k].name.clone(),
            bijective: phase_is_bijective(tg, k),
            uniform_dependence: uniform_dependence(tg, k),
        })
        .collect();
    let all_bijective = !phases.is_empty() && phases.iter().all(|p| p.bijective);
    let all_uniform = !phases.is_empty() && phases.iter().all(|p| p.uniform_dependence.is_some());
    Analysis {
        family: tg.family.or_else(|| recognize_family(tg)),
        node_symmetric_declared: tg.node_symmetric,
        phases,
        all_bijective,
        all_uniform,
    }
}

/// Whether every phase is a bijection — the group-theoretic path's
/// precondition. A graph with no phases is not.
pub fn all_phases_bijective(tg: &TaskGraph) -> bool {
    tg.num_phases() > 0 && (0..tg.num_phases()).all(|k| phase_is_bijective(tg, k))
}

/// Whether every phase carries a uniform dependence vector — the systolic
/// path's precondition. A graph with no phases does not.
pub fn all_phases_uniform(tg: &TaskGraph) -> bool {
    tg.num_phases() > 0 && (0..tg.num_phases()).all(|k| uniform_dependence(tg, k).is_some())
}

/// Whether phase `k` of `tg` is a bijection: out-degree and in-degree
/// exactly 1 for every task.
fn phase_is_bijective(tg: &TaskGraph, k: usize) -> bool {
    let n = tg.num_tasks();
    let phase = &tg.comm_phases[k];
    if phase.edges.len() != n {
        return false;
    }
    // u32, not u8: a task may legitimately carry hundreds of parallel
    // edges (the phase has exactly n edges total, so u32 cannot wrap).
    let mut outs = vec![0u32; n];
    let mut ins = vec![0u32; n];
    for e in &phase.edges {
        outs[e.src.index()] += 1;
        ins[e.dst.index()] += 1;
    }
    outs.iter().all(|&d| d == 1) && ins.iter().all(|&d| d == 1)
}

/// The constant label displacement of phase `k`, if all its edges share
/// one (`dst.coords - src.coords`). Self-loop-only phases or phases with
/// mixed displacements return `None`. Each edge is compared against the
/// first in place; only the answer is allocated.
pub fn uniform_dependence(tg: &TaskGraph, k: usize) -> Option<Vec<i64>> {
    let coords = |t: TaskId| tg.nodes[t.index()].coords.as_slice();
    let (first, rest) = tg.comm_phases[k].edges.split_first()?;
    let (s0, d0) = (coords(first.src), coords(first.dst));
    if s0.len() != d0.len() {
        return None;
    }
    for e in rest {
        let (s, d) = (coords(e.src), coords(e.dst));
        let same = s.len() == s0.len()
            && d.len() == s0.len()
            && (0..s0.len()).all(|i| d[i] - s[i] == d0[i] - s0[i]);
        if !same {
            return None;
        }
    }
    Some(d0.iter().zip(s0).map(|(a, b)| a - b).collect())
}

/// Attempts to recognise the (undeclared) graph family of a small task
/// graph by isomorphism against every candidate family of the same size.
/// Intended for graphs up to a few dozen nodes — the check is exponential
/// in the worst case.
///
/// A candidate whose closed-form edge count differs from ours is skipped
/// before it is built: the isomorphism search would reject it on that
/// arc count first, so the findings are the same.
pub fn recognize_family(tg: &TaskGraph) -> Option<Family> {
    let n = tg.num_tasks();
    if !(2..=64).contains(&n) {
        return None;
    }
    let ours = undirected_csr(tg);
    candidates_of_size(n)
        .into_iter()
        .filter(|candidate| 2 * candidate.num_edges() == ours.num_arcs())
        .find(|candidate| {
            let theirs = undirected_csr(&candidate.build());
            matches!(
                iso::find_isomorphism_budgeted(&ours, &theirs, RECOGNITION_BUDGET),
                iso::IsoResult::Found(_)
            )
        })
}

fn undirected_csr(tg: &TaskGraph) -> Csr {
    // dedupe opposite/parallel edges through the collapse
    let w = tg.collapse();
    let edges: Vec<(usize, usize)> = w.edges().iter().map(|e| (e.u, e.v)).collect();
    Csr::undirected(tg.num_tasks(), edges.into_iter())
}

fn candidates_of_size(n: usize) -> Vec<Family> {
    let mut out = Vec::new();
    if n >= 3 {
        out.push(Family::Ring(n));
    }
    out.push(Family::Chain(n));
    out.push(Family::Complete(n));
    out.push(Family::Star(n));
    if n.is_power_of_two() {
        let d = n.trailing_zeros() as usize;
        if d >= 1 {
            out.push(Family::Hypercube(d));
        }
        out.push(Family::BinomialTree(d));
    }
    if (n + 1).is_power_of_two() && n >= 3 {
        out.push(Family::FullBinaryTree((n + 1).trailing_zeros() as usize - 1));
    }
    for r in 2..=n {
        if n.is_multiple_of(r) {
            let c = n / r;
            if r <= c && c >= 2 {
                out.push(Family::Mesh2D(r, c));
                out.push(Family::Torus2D(r, c));
            }
        }
    }
    for d in 1..6 {
        if (d + 1) << d == n {
            out.push(Family::Butterfly(d));
        }
    }
    out
}

/// The paper's **syntactic** affinity check (§4.2.1), per communication
/// phase of the *unelaborated* program: every edge's source and destination
/// label expressions must be affine in the rule's binder variables
/// (coefficients may involve parameters). Returns one flag per comphase.
pub fn syntactic_affine(program: &Program) -> Vec<bool> {
    program
        .comphases
        .iter()
        .map(|cp| {
            cp.rules.iter().all(|rule| {
                let vars: Vec<Symbol> = rule.binders.iter().map(|b| b.var.sym).collect();
                rule.edges.iter().all(|e| {
                    e.src_args.iter().all(|&a| program.ast.is_affine_in(a, &vars))
                        && e.dst_args.iter().all(|&a| program.ast.is_affine_in(a, &vars))
                })
            })
        })
        .collect()
}

/// Source-level regularity lints, as span-carrying warnings:
///
/// - a label expression that is non-affine in its rule's binders (the
///   systolic path of MAPPER's dispatch is unavailable for that phase);
/// - a declared comphase the phase expression never references (its edges
///   never contribute to dynamic metrics).
pub fn lint(program: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cp in &program.comphases {
        for rule in &cp.rules {
            let vars: Vec<Symbol> = rule.binders.iter().map(|b| b.var.sym).collect();
            for e in &rule.edges {
                for &a in e.src_args.iter().chain(&e.dst_args) {
                    if !program.ast.is_affine_in(a, &vars) {
                        out.push(
                            Diagnostic::warning(
                                Stage::Analyze,
                                format!(
                                    "comphase '{}': label expression is not affine \
                                     in the binder variables",
                                    program.str(cp.name.sym)
                                ),
                            )
                            .with_label(
                                program.ast.expr_span(a),
                                "non-affine label expression",
                            )
                            .with_note(
                                "systolic mapping (paper §4.2.1) needs affine \
                                 communication functions",
                            ),
                        );
                    }
                }
            }
        }
    }
    if let Some(pe) = program.phase_expr {
        let mut referenced = Vec::new();
        collect_pexp_names(program, pe, &mut referenced);
        for cp in &program.comphases {
            if !referenced.contains(&cp.name.sym) {
                out.push(
                    Diagnostic::warning(
                        Stage::Analyze,
                        format!(
                            "comphase '{}' is never referenced by the phase expression",
                            program.str(cp.name.sym)
                        ),
                    )
                    .with_label(cp.name.span, "declared here but unused")
                    .with_note("its edges never contribute to dynamic metrics"),
                );
            }
        }
    }
    out
}

fn collect_pexp_names(program: &Program, pe: crate::ast::PExpId, out: &mut Vec<Symbol>) {
    use crate::ast::PExpKind;
    match program.ast.pexp(pe) {
        PExpKind::Eps => {}
        PExpKind::Name(s) => out.push(s),
        PExpKind::Seq(a, b) | PExpKind::Par(a, b) => {
            collect_pexp_names(program, a, out);
            collect_pexp_names(program, b, out);
        }
        PExpKind::Repeat(a, _) => collect_pexp_names(program, a, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, parse, programs};

    #[test]
    fn nbody_phases_are_bijective_not_uniform() {
        let g = compile(&programs::nbody(), &[("n", 8), ("s", 1), ("msgsize", 1)]).unwrap();
        let a = analyze(&g);
        assert!(a.all_bijective);
        // (i+1) mod n is not a constant displacement on the label line
        // (wraps at the boundary), so not uniform.
        assert!(!a.all_uniform);
        assert!(a.node_symmetric_declared);
    }

    #[test]
    fn matmul_is_uniform_and_affine() {
        let g = compile(&programs::matmul(), &[("n", 4)]).unwrap();
        let a = analyze(&g);
        assert!(a.all_uniform);
        assert_eq!(a.phases[0].uniform_dependence, Some(vec![0, 1])); // east
        assert_eq!(a.phases[1].uniform_dependence, Some(vec![1, 0])); // south
        // syntactic check agrees
        let p = parse(&programs::matmul()).unwrap();
        assert_eq!(syntactic_affine(&p), vec![true, true]);
        // boundary cells don't send — not bijective
        assert!(!a.all_bijective);
    }

    #[test]
    fn nbody_is_syntactically_nonaffine() {
        let p = parse(&programs::nbody()).unwrap();
        // both phases use mod — not affine
        assert_eq!(syntactic_affine(&p), vec![false, false]);
    }

    #[test]
    fn jacobi_phases_uniform() {
        let g = compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).unwrap();
        let a = analyze(&g);
        assert!(a.all_uniform);
        let deps: Vec<_> = a
            .phases
            .iter()
            .map(|p| p.uniform_dependence.clone().unwrap())
            .collect();
        assert!(deps.contains(&vec![-1, 0]));
        assert!(deps.contains(&vec![1, 0]));
        assert!(deps.contains(&vec![0, -1]));
        assert!(deps.contains(&vec![0, 1]));
    }

    #[test]
    fn broadcast8_all_bijective() {
        let g = compile(&programs::broadcast8(), &[]).unwrap();
        let a = analyze(&g);
        assert!(a.all_bijective);
        assert!(a.phases.iter().all(|p| p.bijective));
    }

    #[test]
    fn recognizes_undeclared_ring() {
        let src = "algorithm r(n);\n\
                   nodetype t: 0..n-1;\n\
                   comphase c: forall i in 0..n-1 { t(i) -> t((i+1) mod n); }";
        let g = compile(src, &[("n", 8)]).unwrap();
        assert_eq!(g.family, None);
        assert_eq!(recognize_family(&g), Some(Family::Ring(8)));
    }

    #[test]
    fn recognizes_hypercube_structurally() {
        let mut g = oregami_graph::TaskGraph::new("q3");
        g.add_scalar_nodes("t", 8);
        let p = g.add_phase("c");
        for i in 0..8usize {
            for b in 0..3 {
                let j = i ^ (1 << b);
                if i < j {
                    g.add_edge(p, oregami_graph::TaskId::new(i), oregami_graph::TaskId::new(j), 1);
                }
            }
        }
        // Q3 is also recognisable as other families? Ring(8) no (degree 3).
        assert_eq!(recognize_family(&g), Some(Family::Hypercube(3)));
    }

    /// Recognition as it was before candidates were filtered on their
    /// closed-form edge count: build every candidate, then search.
    fn recognize_family_unfiltered(tg: &TaskGraph) -> Option<Family> {
        let n = tg.num_tasks();
        if !(2..=64).contains(&n) {
            return None;
        }
        let ours = undirected_csr(tg);
        for candidate in candidates_of_size(n) {
            let theirs = undirected_csr(&candidate.build());
            if matches!(
                iso::find_isomorphism_budgeted(&ours, &theirs, RECOGNITION_BUDGET),
                iso::IsoResult::Found(_)
            ) {
                return Some(candidate);
            }
        }
        None
    }

    /// The scaled parameters of the `corpus_map` benchmark's programs.
    fn corpus_scaled(name: &str) -> Option<Vec<(&'static str, i64)>> {
        Some(match name {
            "nbody" => vec![("n", 63), ("s", 3), ("msgsize", 8)],
            "jacobi" | "sor" => vec![("n", 32), ("iters", 10)],
            "sormulticolor" => vec![("n", 32), ("iters", 2)],
            "binomialdnc" => vec![("k", 9)],
            "fft" => vec![("k", 7)],
            "matmul" => vec![("n", 16)],
            "pipeline" => vec![("n", 256), ("rounds", 5)],
            "wavefront" => vec![("n", 8)],
            "annealing" => vec![("n", 128), ("sweeps", 4)],
            _ => return None,
        })
    }

    #[test]
    fn recognition_equals_the_unfiltered_loop() {
        let mut graphs: Vec<TaskGraph> = (2..=64)
            .flat_map(candidates_of_size)
            .map(|f| f.build())
            .collect();
        for (name, source, params) in programs::all_programs() {
            graphs.push(compile(&source, &params).unwrap());
            if let Some(scaled) = corpus_scaled(name) {
                graphs.push(compile(&source, &scaled).unwrap());
            }
        }
        for g in &graphs {
            assert_eq!(
                recognize_family(g),
                recognize_family_unfiltered(g),
                "{} with {} tasks",
                g.name,
                g.num_tasks()
            );
        }
    }

    #[test]
    fn high_degree_phase_does_not_overflow_counters() {
        // 300 parallel edges out of one node: a u8 out-degree counter
        // would wrap (panic in debug builds). Must simply report
        // non-bijective.
        let mut g = oregami_graph::TaskGraph::new("fan");
        g.add_scalar_nodes("t", 300);
        let p = g.add_phase("c");
        for i in 0..300usize {
            g.add_edge(p, oregami_graph::TaskId::new(0), oregami_graph::TaskId::new(i), 1);
        }
        assert!(!phase_is_bijective(&g, 0));
    }

    #[test]
    fn declared_family_short_circuits() {
        let g = compile(&programs::binomial_dnc(), &[("k", 3)]).unwrap();
        let a = analyze(&g);
        assert_eq!(a.family, Some(Family::BinomialTree(3)));
    }

    #[test]
    fn unrecognizable_graph_returns_none() {
        // A 6-node graph with an odd structure (triangle + pendant path).
        let src = "algorithm t();\n\
                   nodetype x: 0..5;\n\
                   comphase c: x(0) -> x(1); x(1) -> x(2); x(2) -> x(0); \
                               x(2) -> x(3); x(3) -> x(4); x(4) -> x(5);";
        let g = compile(src, &[]).unwrap();
        assert_eq!(recognize_family(&g), None);
    }

    #[test]
    fn lint_underlines_nonaffine_label_expression() {
        let src = &programs::nbody();
        let p = parse(src).unwrap();
        let warnings = lint(&p);
        // nbody's `(i+1) mod n` destinations are non-affine in `i`
        assert!(!warnings.is_empty());
        let shown = warnings[0].render(src);
        assert!(shown.contains("analyze warning"), "{shown}");
        assert!(shown.contains("-->") && shown.contains('^'), "{shown}");
        assert!(shown.contains("not affine"), "{shown}");
    }

    #[test]
    fn lint_flags_comphase_unreferenced_by_phaseexpr() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase used: forall i in 0..n-2 { x(i) -> x(i+1); }\n\
                   comphase unused: forall i in 0..n-2 { x(i+1) -> x(i); }\n\
                   phaseexpr used;";
        let p = parse(src).unwrap();
        let warnings = lint(&p);
        assert_eq!(warnings.len(), 1);
        let shown = warnings[0].render(src);
        assert!(shown.contains("'unused'"), "{shown}");
        assert!(shown.contains('^'), "{shown}");
    }

    #[test]
    fn lint_is_quiet_on_affine_programs() {
        let p = parse(&programs::matmul()).unwrap();
        let affine_warnings: Vec<_> = lint(&p)
            .into_iter()
            .filter(|d| d.message.contains("affine"))
            .collect();
        assert!(affine_warnings.is_empty());
    }
}
