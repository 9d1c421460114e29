//! # oregami-group
//!
//! Permutation-group machinery for OREGAMI's group-theoretic contraction
//! (paper §4.2.2).
//!
//! When every communication function of a LaRCS program is a bijection on
//! the task set `X`, the functions can be read as the *generators* of a
//! permutation group `G` acting on `X`. If that action is **regular**
//! (`|G| = |X|` and every element's cycles all have the same length), the
//! Cayley graph of `G` under those generators is isomorphic to the task
//! graph — and then every subgroup `H ≤ G` yields a contraction of the task
//! graph into equal-sized clusters (the cosets of `H`), with an identical
//! number of messages of each communication type internalised per cluster.
//!
//! Modules:
//!
//! * [`perm`] — permutations in image form with the paper's left-to-right
//!   composition and cycle-notation display;
//! * [`group`] — group closure from generators with the paper's `O(|X|²)`
//!   early-abort bound;
//! * [`cayley`] — the regular-action test and the Cayley-graph
//!   correspondence;
//! * [`subgroup`] — subgroup search, normality, cosets, quotient graphs;
//! * [`contract`] — the end-to-end group-theoretic contraction of a
//!   [`oregami_graph::TaskGraph`].

#![deny(clippy::too_many_lines)]

pub mod cayley;
pub mod contract;
pub mod group;
pub mod perm;
pub mod subgroup;

pub use cayley::is_regular_action;
pub use contract::{
    circulant_contract, detect_circulant, group_contract, CirculantContraction,
    GroupContractError, GroupContraction,
};
pub use group::{ClosureError, PermGroup};
pub use perm::Perm;
pub use subgroup::{cosets, find_subgroups_of_order, is_normal, Subgroup};
