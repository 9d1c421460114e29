//! # oregami-larcs
//!
//! LaRCS — the **La**nguage for **R**egular **C**ommunication **S**tructures
//! (paper §3).
//!
//! LaRCS lets the programmer describe the static and dynamic communication
//! structure of a parallel algorithm compactly and parametrically: node
//! types with labeling schemes, communication phases as simple functions of
//! the node labels, execution phases with cost estimates, and a phase
//! expression describing behaviour over time. A LaRCS description is
//! independent of the task-graph size — `nbody(1000)` is the same few lines
//! as `nbody(8)` — which is what lets MAPPER reason about regularity
//! without materialising the whole graph.
//!
//! The paper shows fragments of the surface syntax; this crate pins down a
//! complete grammar faithful to every construct the paper names (see
//! `DESIGN.md` §4 for the grammar). The front end is organised as a set of
//! memoized *queries* over an interned arena AST:
//!
//! ```text
//! source --lex--> tokens (+ content fingerprint)
//!        --parse--> ast::Program (arena nodes, interned names, byte spans)
//!        --elaborate(params)--> oregami_graph::TaskGraph (per-rule fragments)
//! ```
//!
//! The regularity findings MAPPER dispatches on (bijective? affine?
//! nameable?) are functions of the graph in [`analyze`](mod@analyze), each computed
//! when asked for. Circulant detection, the paper's Cayley shortcut, reads
//! the elaborated graph too and lives in `oregami-group`.
//!
//! Batch callers use [`compile`]; interactive callers keep a [`query::Db`]
//! across edits, and each query re-runs only the stages whose *content*
//! inputs changed — reformatting never re-parses, editing one comphase
//! re-expands only that rule. Every diagnostic carries byte spans and
//! renders a caret-underlined source excerpt ([`error::Diagnostic`]).
//! [`fmt`] is the canonical formatter behind `larcs fmt`.
//!
//! A library of built-in LaRCS programs for the algorithms the paper lists
//! (n-body, perfect broadcast, Jacobi, SOR, divide-and-conquer on binomial
//! trees, FFT, matrix multiplication, ...) lives in [`programs`].

#![deny(clippy::too_many_lines)]

pub mod analyze;
pub mod ast;
pub mod elaborate;
pub mod error;
pub mod expr;
pub mod format;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod programs;
pub mod query;

pub use analyze::{analyze, lint, Analysis};
pub use ast::Program;
pub use elaborate::{elaborate, elaborate_with_cache, ElabCache, ElabOptions};
pub use error::{Diagnostic, LarcsError, Severity, Span, Stage};
pub use format::{format_program, format_rule};
pub use intern::{StringInterner, Symbol};
pub use parser::{parse, parse_tokens};
pub use query::{Db, QueryStats};

use oregami_graph::TaskGraph;

/// One-call convenience: parse `source` and elaborate it with the given
/// parameter bindings into a task graph.
///
/// # Examples
/// ```
/// let src = oregami_larcs::programs::nbody();
/// let g = oregami_larcs::compile(&src, &[("n", 8), ("s", 3), ("msgsize", 4)]).unwrap();
/// assert_eq!(g.num_tasks(), 8);
/// assert_eq!(g.num_phases(), 2); // ring + chordal
/// ```
pub fn compile(source: &str, params: &[(&str, i64)]) -> Result<TaskGraph, LarcsError> {
    let program = parse(source).map_err(|e| e.with_source(source))?;
    elaborate(&program, params, &ElabOptions::default()).map_err(|e| e.with_source(source))
}

/// One-call convenience: render `source` in canonical form (`larcs fmt`).
/// Idempotent, and round-trip stable: the output parses and elaborates to
/// the same task graph as the input.
pub fn fmt(source: &str) -> Result<String, LarcsError> {
    let program = parse(source).map_err(|e| e.with_source(source))?;
    Ok(format_program(&program))
}
