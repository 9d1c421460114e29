//! # oregami-graph
//!
//! The task-graph model underlying the OREGAMI mapping toolchain.
//!
//! OREGAMI (Lo et al., 1990) models a parallel computation as a *weighted and
//! colored directed graph* `G = (V, E_1, E_2, ..., E_c)`:
//!
//! * each task `t_i` is a node `v_i ∈ V`, weighted with an (approximate)
//!   execution cost per execution phase;
//! * each edge set `E_k` is one **communication phase** of the computation,
//!   conceptually assigned a unique color; a directed edge `(i, j) ∈ E_k`
//!   means task `i` sends to task `j` during phase `k`, weighted with the
//!   message volume.
//!
//! The dynamic behaviour of the computation over time is captured by a
//! [`PhaseExpr`] (phase expression) — a regular-expression-like term over
//! communication and execution phases supporting sequencing, repetition and
//! parallelism.
//!
//! This crate provides:
//!
//! * [`TaskGraph`] — the colored multi-phase graph, plus collapsed
//!   single-color views ([`TaskGraph::collapse`]) used by contraction;
//! * [`PhaseExpr`] — phase expressions and their linearisation into a
//!   [`schedule`](PhaseExpr::linearize) of phase steps;
//! * [`families`] — generators for the "nameable" task-graph families the
//!   paper's canned-mapping library keys on (ring, mesh, hypercube, binomial
//!   tree, ...);
//! * [`WeightedGraph`] — a plain undirected weighted graph used by the
//!   contraction algorithms;
//! * graph utilities: CSR adjacency ([`Csr`]), traversal
//!   ([`traversal`]), small-graph isomorphism ([`iso`]), Graphviz export
//!   ([`dot`]).

#![deny(clippy::too_many_lines)]

pub mod csr;
pub mod dot;
pub mod families;
pub mod ids;
pub mod iso;
pub mod phase_expr;
pub mod task_graph;
pub mod traversal;
pub mod weighted;

pub use csr::{Csr, CsrError};
pub use families::Family;
pub use ids::{EdgeId, ExecId, PhaseId, TaskId};
pub use phase_expr::{PhaseExpr, PhaseStep, ScheduleEntry};
pub use task_graph::{CommEdge, CommPhase, ExecPhase, TaskGraph, TaskNode};
pub use weighted::{WEdge, WeightedGraph};
