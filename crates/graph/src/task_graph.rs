//! The colored, weighted, multi-phase task graph `G = (V, E_1, ..., E_c)`.
//!
//! This is OREGAMI's model of a parallel computation (paper §2): a static set
//! of communicating tasks whose communication edges are partitioned into
//! *communication phases* (edge colors), each representing one synchronous
//! message-passing step, plus *execution phases* carrying per-task execution
//! cost estimates, plus an optional phase expression describing dynamic
//! behaviour.

use crate::ids::{ExecId, PhaseId, TaskId};
use crate::phase_expr::PhaseExpr;
use crate::weighted::WeightedGraph;
use crate::Family;

/// A task node. `coords` is the numeric label tuple assigned by the LaRCS
/// node-labeling scheme (one entry for 1-D decimal labels, `k` entries for
/// k-dimensional labels); it drives the affine/lattice analyses and the
/// canned-mapping library. `label` is the human-readable display form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskNode {
    /// Display label, e.g. `body(3)` or `cell(1,2)`.
    pub label: String,
    /// Numeric label tuple from the LaRCS labeling scheme.
    pub coords: Vec<i64>,
}

impl TaskNode {
    /// A node with a 1-D numeric label.
    pub fn scalar(name: &str, i: i64) -> Self {
        TaskNode {
            label: format!("{name}({i})"),
            coords: vec![i],
        }
    }

    /// A node with a k-D numeric label.
    pub fn tuple(name: &str, coords: Vec<i64>) -> Self {
        use std::fmt::Write as _;
        let mut label = String::with_capacity(name.len() + 2 + 4 * coords.len());
        label.push_str(name);
        label.push('(');
        for (k, c) in coords.iter().enumerate() {
            if k > 0 {
                label.push(',');
            }
            let _ = write!(label, "{c}");
        }
        label.push(')');
        TaskNode { label, coords }
    }
}

/// One directed communication edge within a phase: `src` sends `volume`
/// units of data to `dst` during that phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommEdge {
    /// Sending task.
    pub src: TaskId,
    /// Receiving task.
    pub dst: TaskId,
    /// Message volume (bytes or abstract units) sent in one occurrence of the
    /// phase.
    pub volume: u64,
}

/// One communication phase `E_k` — a set of edges involved in synchronous
/// message passing, conceptually assigned a unique color.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommPhase {
    /// Phase name from the LaRCS `comphase` declaration, e.g. `ring`.
    pub name: String,
    /// The directed edges of this color.
    pub edges: Vec<CommEdge>,
}

/// Per-task execution cost of an execution phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cost {
    /// Every task spends the same time in this phase.
    Uniform(u64),
    /// Task `t` spends `costs[t]` time in this phase.
    PerTask(Vec<u64>),
}

impl Cost {
    /// Cost of `task` under this spec.
    pub fn of(&self, task: TaskId) -> u64 {
        match self {
            Cost::Uniform(c) => *c,
            Cost::PerTask(v) => v[task.index()],
        }
    }
}

/// An execution phase — a body of code bracketed by two successive
/// communication phases, with an estimated cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecPhase {
    /// Phase name from the LaRCS `exephase` declaration, e.g. `compute1`.
    pub name: String,
    /// Estimated execution cost.
    pub cost: Cost,
}

/// OREGAMI's weighted, colored, directed task graph.
///
/// Implements `PartialEq` structurally, which is how the incremental
/// front end asserts that a cached re-elaboration is identical to a
/// from-scratch one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskGraph {
    /// Name of the parallel algorithm (from the LaRCS `algorithm` header).
    pub name: String,
    /// Task nodes.
    pub nodes: Vec<TaskNode>,
    /// Communication phases (the edge colors `E_1 .. E_c`).
    pub comm_phases: Vec<CommPhase>,
    /// Execution phases with cost estimates.
    pub exec_phases: Vec<ExecPhase>,
    /// Dynamic behaviour, if declared.
    pub phase_expr: Option<PhaseExpr>,
    /// `true` when the LaRCS program declared the graph node-symmetric.
    pub node_symmetric: bool,
    /// Declared graph family, when the computation is "nameable" (§4.1).
    pub family: Option<Family>,
}

impl TaskGraph {
    /// An empty graph with the given algorithm name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Number of task nodes.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of communication phases (colors).
    #[inline]
    pub fn num_phases(&self) -> usize {
        self.comm_phases.len()
    }

    /// Appends a task node and returns its id.
    pub fn add_node(&mut self, node: TaskNode) -> TaskId {
        let id = TaskId::new(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Appends `n` anonymous scalar-labelled nodes `name(0) .. name(n-1)`.
    pub fn add_scalar_nodes(&mut self, name: &str, n: usize) {
        self.nodes.reserve(n);
        for i in 0..n {
            self.nodes.push(TaskNode::scalar(name, i as i64));
        }
    }

    /// Appends an empty communication phase and returns its id.
    pub fn add_phase(&mut self, name: impl Into<String>) -> PhaseId {
        let id = PhaseId::new(self.comm_phases.len());
        self.comm_phases.push(CommPhase {
            name: name.into(),
            edges: Vec::new(),
        });
        id
    }

    /// Adds a directed edge with `volume` to phase `phase`.
    ///
    /// # Panics
    /// If the phase or either endpoint is out of range.
    pub fn add_edge(&mut self, phase: PhaseId, src: TaskId, dst: TaskId, volume: u64) {
        assert!(src.index() < self.nodes.len(), "edge source out of range");
        assert!(dst.index() < self.nodes.len(), "edge target out of range");
        self.comm_phases[phase.index()]
            .edges
            .push(CommEdge { src, dst, volume });
    }

    /// Appends an execution phase and returns its id.
    pub fn add_exec_phase(&mut self, name: impl Into<String>, cost: Cost) -> ExecId {
        let id = ExecId::new(self.exec_phases.len());
        self.exec_phases.push(ExecPhase {
            name: name.into(),
            cost,
        });
        id
    }

    /// The communication phase with the given name, if any.
    pub fn phase_by_name(&self, name: &str) -> Option<PhaseId> {
        self.comm_phases
            .iter()
            .position(|p| p.name == name)
            .map(PhaseId::new)
    }

    /// The execution phase with the given name, if any.
    pub fn exec_by_name(&self, name: &str) -> Option<ExecId> {
        self.exec_phases
            .iter()
            .position(|p| p.name == name)
            .map(ExecId::new)
    }

    /// Iterates over `(phase, edge)` for every communication edge of every
    /// color.
    pub fn all_edges(&self) -> impl Iterator<Item = (PhaseId, CommEdge)> + '_ {
        self.comm_phases.iter().enumerate().flat_map(|(k, p)| {
            p.edges
                .iter()
                .map(move |&e| (PhaseId::new(k), e))
        })
    }

    /// Total number of communication edges across all phases.
    pub fn num_edges(&self) -> usize {
        self.comm_phases.iter().map(|p| p.edges.len()).sum()
    }

    /// Total execution cost of `task` summed over all execution phases
    /// (each counted once; phase-expression repetition is applied by the
    /// METRICS completion-time model, not here).
    pub fn exec_cost(&self, task: TaskId) -> u64 {
        self.exec_phases.iter().map(|p| p.cost.of(task)).sum()
    }

    /// Collapses the colored multigraph into a plain undirected weighted
    /// graph: parallel and anti-parallel edges between the same task pair are
    /// merged, volumes summed across **all** phases. Self-loops are dropped.
    ///
    /// This is the input to the general contraction algorithms (§4.3), which
    /// minimise total interprocessor communication irrespective of direction
    /// or color.
    pub fn collapse(&self) -> WeightedGraph {
        self.collapse_weighted(|_| 1)
    }

    /// Like [`collapse`](Self::collapse) but scaling each phase's volumes by
    /// a multiplicity (e.g. the phase's repetition count from the phase
    /// expression), so that frequently repeated phases dominate contraction
    /// decisions.
    pub fn collapse_weighted(&self, multiplicity: impl Fn(PhaseId) -> u64) -> WeightedGraph {
        let mut g = WeightedGraph::new(self.num_tasks());
        for (k, phase) in self.comm_phases.iter().enumerate() {
            let m = multiplicity(PhaseId::new(k));
            if m == 0 {
                continue;
            }
            for e in &phase.edges {
                if e.src != e.dst {
                    g.add_or_accumulate(e.src.index(), e.dst.index(), e.volume.saturating_mul(m));
                }
            }
        }
        g
    }

    /// Checks internal consistency: all edge endpoints in range, per-task
    /// cost vectors of the right length. Returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        for (k, p) in self.comm_phases.iter().enumerate() {
            for e in &p.edges {
                if e.src.index() >= n || e.dst.index() >= n {
                    return Err(format!(
                        "phase {} ({}): edge {:?} -> {:?} out of range (n = {n})",
                        k, p.name, e.src, e.dst
                    ));
                }
            }
        }
        for p in &self.exec_phases {
            if let Cost::PerTask(v) = &p.cost {
                if v.len() != n {
                    return Err(format!(
                        "exec phase {}: {} costs for {n} tasks",
                        p.name,
                        v.len()
                    ));
                }
            }
        }
        if let Some(expr) = &self.phase_expr {
            expr.validate(self.comm_phases.len(), self.exec_phases.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_graph() -> TaskGraph {
        let mut g = TaskGraph::new("test");
        g.add_scalar_nodes("t", 4);
        let a = g.add_phase("a");
        let b = g.add_phase("b");
        g.add_edge(a, TaskId(0), TaskId(1), 5);
        g.add_edge(a, TaskId(1), TaskId(0), 3);
        g.add_edge(b, TaskId(2), TaskId(3), 7);
        g.add_edge(b, TaskId(3), TaskId(3), 9); // self-loop, dropped on collapse
        g
    }

    #[test]
    fn tuple_labels_join_coordinates_with_commas() {
        assert_eq!(
            TaskNode::tuple("cell", vec![3, -12, 0]).label,
            "cell(3,-12,0)"
        );
        assert_eq!(
            TaskNode::tuple("t", vec![i64::MIN]).label,
            format!("t({})", i64::MIN)
        );
        assert_eq!(TaskNode::tuple("e", Vec::new()).label, "e()");
        assert_eq!(TaskNode::scalar("body", 4).label, "body(4)");
    }

    #[test]
    fn build_and_count() {
        let g = two_phase_graph();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_phases(), 2);
        assert_eq!(g.num_edges(), 4);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn phase_lookup_by_name() {
        let g = two_phase_graph();
        assert_eq!(g.phase_by_name("b"), Some(PhaseId(1)));
        assert_eq!(g.phase_by_name("zzz"), None);
    }

    #[test]
    fn collapse_merges_antiparallel_edges_and_drops_loops() {
        let g = two_phase_graph();
        let w = g.collapse();
        assert_eq!(w.num_nodes(), 4);
        // 0<->1 merged to weight 8; 2-3 weight 7; self-loop gone.
        assert_eq!(w.weight_between(0, 1), 8);
        assert_eq!(w.weight_between(2, 3), 7);
        assert_eq!(w.weight_between(3, 3), 0);
        assert_eq!(w.num_edges(), 2);
    }

    #[test]
    fn collapse_weighted_scales_by_phase_multiplicity() {
        let g = two_phase_graph();
        let w = g.collapse_weighted(|ph| if ph == PhaseId(0) { 10 } else { 0 });
        assert_eq!(w.weight_between(0, 1), 80);
        assert_eq!(w.weight_between(2, 3), 0);
    }

    #[test]
    fn exec_costs_sum_over_phases() {
        let mut g = two_phase_graph();
        g.add_exec_phase("c1", Cost::Uniform(10));
        g.add_exec_phase("c2", Cost::PerTask(vec![1, 2, 3, 4]));
        assert_eq!(g.exec_cost(TaskId(2)), 13);
        assert!(g.validate().is_ok());
        assert_eq!(g.exec_by_name("c2"), Some(ExecId(1)));
    }

    #[test]
    fn validate_catches_bad_cost_vector() {
        let mut g = two_phase_graph();
        g.add_exec_phase("bad", Cost::PerTask(vec![1, 2]));
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_panics_out_of_range() {
        let mut g = TaskGraph::new("x");
        g.add_scalar_nodes("t", 2);
        let p = g.add_phase("p");
        g.add_edge(p, TaskId(0), TaskId(5), 1);
    }
}
