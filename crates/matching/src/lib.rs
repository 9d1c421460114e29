//! # oregami-matching
//!
//! The combinatorial matching algorithms that power MAPPER.
//!
//! The paper's general contraction algorithm, **MWM-Contract** (§4.3), calls
//! a polynomial-time *maximum weight matching* on general graphs to pair
//! clusters optimally; its routing algorithm, **MM-Route** (§4.4), calls a
//! *maximal matching* on bipartite graphs to assign message edges to links
//! one round at a time. This crate provides:
//!
//! * [`max_weight_matching`] — maximum-weight matching in a general graph
//!   (blossom algorithm with dual variables over sparse storage: `O(n + m)`
//!   memory, pops and scans that cost a vertex's degree rather than a row
//!   of the usual `(2n+2)²` matrix, and the matching that dense formulation
//!   returns, pair for pair — see [`mwm`]);
//! * [`brute_force_max_weight_matching`] — exact exponential reference used
//!   to validate the blossom implementation in tests (the dense matrix
//!   solver is the second oracle, in `tests/dense/`);
//! * [`greedy_matching`] — linear-time greedy maximal matching (weight-
//!   ordered), the cheap heuristic baseline;
//! * [`bipartite`] — Hopcroft–Karp maximum bipartite matching and a greedy
//!   maximal variant (the building blocks of MM-Route).

pub mod bipartite;
pub mod brute;
pub mod greedy;
pub mod mwm;

pub use bipartite::{greedy_bipartite_matching, hopcroft_karp, BipartiteMatching};
pub use brute::brute_force_max_weight_matching;
pub use greedy::greedy_matching;
pub use mwm::{max_weight_matching, max_weight_matching_budgeted, Matching};
