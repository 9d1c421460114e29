//! # oregami-matching
//!
//! The combinatorial matching algorithms that power MAPPER.
//!
//! The paper's general contraction algorithm, **MWM-Contract** (§4.3), calls
//! a polynomial-time *maximum weight matching* on general graphs to pair
//! clusters optimally. This crate provides:
//!
//! * [`max_weight_matching`] — maximum-weight matching in a general graph
//!   (blossom algorithm with dual variables over sparse storage: `O(n + m)`
//!   memory, pops and scans that cost a vertex's degree rather than a row
//!   of the usual `(2n+2)²` matrix, and the matching that dense formulation
//!   returns, pair for pair — see [`mwm`]);
//! * [`brute_force_max_weight_matching`] — exact exponential reference used
//!   to validate the blossom implementation in tests (the dense matrix
//!   solver is the second oracle, in `tests/dense/`).
//!
//! The bipartite matching of the routing algorithm, **MM-Route** (§4.4),
//! lives with the router (`oregami-mapper`'s `routing::mm_route`), which
//! matches classes of messages rather than messages. The per-message
//! Hopcroft–Karp and greedy matchers it replaced are a test-side oracle
//! in `tests/bipartite/`.

pub mod brute;
pub mod mwm;

pub use brute::brute_force_max_weight_matching;
pub use mwm::{max_weight_matching, max_weight_matching_budgeted, Matching};
