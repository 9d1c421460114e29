//! Task synchrony sets and local scheduling directives (paper §6,
//! "Scheduling" — implemented here as the paper proposed).
//!
//! "A task synchrony set is a set of tasks, one on each processor, that
//! should be executing at the same time. Identification of these synchrony
//! sets can be used ... to produce local scheduling directives for each
//! processor that ensure synchronous execution of the tasks in each set.
//! The scheduling directives can be expressed in a notation similar to path
//! expressions \[CH74\] that specify the allowable ways to multiplex the
//! tasks assigned to a given processor."
//!
//! For OREGAMI's synchronous model every task participates in every phase,
//! so within one execution slot a processor must multiplex all of its
//! hosted tasks; the synchrony structure lives in the *rounds*: round `r`
//! of a slot runs the `r`-th task of every processor concurrently. This
//! module derives:
//!
//! * [`synchrony_sets`] — the rounds: `sets[r]` holds at most one task per
//!   processor, all executable simultaneously;
//! * [`local_directives`] — a per-processor path-expression-like directive
//!   (`work: t3 ; t7` = "in each work slot, run t3 then t7") covering the
//!   whole phase expression.

use oregami_graph::TaskGraph;
use oregami_mapper::Mapping;
use oregami_topology::Network;

/// One synchrony set: at most one task per processor (indexed position =
/// processor), all scheduled for the same round of the same execution slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynchronySet {
    /// `tasks[p]` = the task processor `p` runs in this round, if any.
    pub tasks: Vec<Option<usize>>,
}

/// The scheduling directive of one processor: for each execution phase,
/// the local task order (a path-expression-style sequence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessorDirective {
    /// The processor.
    pub proc: usize,
    /// `per_exec_phase[x]` = ordered task list the processor multiplexes
    /// during execution phase `x`.
    pub per_exec_phase: Vec<Vec<usize>>,
}

/// Derives the synchrony sets of a mapping: round `r` pairs the `r`-th
/// hosted task of every processor (tasks ordered by id — the same order
/// the directives use). The number of sets equals the maximum tasks per
/// processor, and every task appears in exactly one set.
pub fn synchrony_sets(tg: &TaskGraph, net: &Network, mapping: &Mapping) -> Vec<SynchronySet> {
    let p = net.num_procs();
    let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); p];
    for t in 0..tg.num_tasks() {
        hosted[mapping.proc_of(t).index()].push(t);
    }
    let rounds = hosted.iter().map(|h| h.len()).max().unwrap_or(0);
    (0..rounds)
        .map(|r| SynchronySet {
            tasks: hosted.iter().map(|h| h.get(r).copied()).collect(),
        })
        .collect()
}

/// Derives each processor's local scheduling directive: for every
/// execution phase, run the hosted tasks in ascending id order (matching
/// [`synchrony_sets`], so round `r` is globally synchronous).
pub fn local_directives(tg: &TaskGraph, net: &Network, mapping: &Mapping) -> Vec<ProcessorDirective> {
    let p = net.num_procs();
    let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); p];
    for t in 0..tg.num_tasks() {
        hosted[mapping.proc_of(t).index()].push(t);
    }
    (0..p)
        .map(|proc| ProcessorDirective {
            proc,
            per_exec_phase: (0..tg.exec_phases.len())
                .map(|_| hosted[proc].clone())
                .collect(),
        })
        .collect()
}

/// Renders a directive in the paper's path-expression-like notation, e.g.
/// `p2: compute1:(t4; t12) compute2:(t4; t12)`.
pub fn render_directive(tg: &TaskGraph, d: &ProcessorDirective) -> String {
    let mut parts = Vec::new();
    for (x, order) in d.per_exec_phase.iter().enumerate() {
        if order.is_empty() {
            continue;
        }
        let seq: Vec<String> = order.iter().map(|t| format!("t{t}")).collect();
        parts.push(format!("{}:({})", tg.exec_phases[x].name, seq.join("; ")));
    }
    format!("p{}: {}", d.proc, parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_graph::task_graph::Cost;
    use oregami_graph::{Family, PhaseExpr, PhaseId};
    use oregami_mapper::Mapping;
    use oregami_topology::{builders, ProcId};

    fn setup() -> (TaskGraph, Network, Mapping) {
        let mut tg = Family::Ring(6).build();
        let w = tg.add_exec_phase("work", Cost::Uniform(3));
        tg.phase_expr = Some(PhaseExpr::repeat(
            PhaseExpr::seq(PhaseExpr::Comm(PhaseId(0)), PhaseExpr::Exec(w)),
            4,
        ));
        let net = builders::chain(3);
        // 2 tasks per processor: (0,1)->p0, (2,3)->p1, (4,5)->p2
        let mapping = Mapping::unrouted(
            vec![ProcId(0), ProcId(0), ProcId(1), ProcId(1), ProcId(2), ProcId(2)],
        );
        (tg, net, mapping)
    }

    #[test]
    fn synchrony_sets_cover_every_task_once() {
        let (tg, net, mapping) = setup();
        let sets = synchrony_sets(&tg, &net, &mapping);
        assert_eq!(sets.len(), 2);
        // round 0 = {0, 2, 4}, round 1 = {1, 3, 5}
        assert_eq!(sets[0].tasks, vec![Some(0), Some(2), Some(4)]);
        assert_eq!(sets[1].tasks, vec![Some(1), Some(3), Some(5)]);
        let mut seen = vec![false; 6];
        for s in &sets {
            for t in s.tasks.iter().flatten() {
                assert!(!seen[*t]);
                seen[*t] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn uneven_hosting_leaves_gaps() {
        let tg = Family::Ring(3).build();
        let net = builders::chain(2);
        let mapping = Mapping::unrouted(vec![ProcId(0), ProcId(0), ProcId(1)]);
        let sets = synchrony_sets(&tg, &net, &mapping);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[1].tasks, vec![Some(1), None]);
    }

    #[test]
    fn directives_render_as_path_expressions() {
        let (tg, net, mapping) = setup();
        let ds = local_directives(&tg, &net, &mapping);
        assert_eq!(ds.len(), 3);
        assert_eq!(render_directive(&tg, &ds[1]), "p1: work:(t2; t3)");
    }
}
