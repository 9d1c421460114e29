//! # oregami-topology
//!
//! Interconnection-network models for OREGAMI's target architectures.
//!
//! The paper assumes "homogeneous processors connected by some regular
//! network topology" (iPSC/2 and NCUBE hypercubes, Transputer meshes, ...).
//! This crate provides:
//!
//! * [`Network`] — an undirected processor/link graph with stable link ids
//!   (routing assigns task-graph edges to link sequences);
//! * [`builders`] — constructors for every topology the paper mentions:
//!   hypercube, 2-D mesh and torus, ring, chain/linear array, complete,
//!   star, full binary tree, butterfly;
//! * [`routes::RouteTable`] — all-pairs distances plus *all-shortest-path*
//!   enumeration, the "table of routing information" MM-Route (paper §4.4)
//!   draws candidate hops from;
//! * [`gray`] — binary-reflected Gray codes used by the canned
//!   ring/mesh→hypercube embeddings;
//! * [`fault`] — failed processors/links ([`fault::FaultSet`]) and the
//!   degraded surviving machine ([`fault::DegradedNetwork`]) that mapping
//!   repair and fault-aware metrics run against;
//! * [`machine`] — hierarchical machine models ([`machine::MachineModel`]:
//!   torus-of-meshes boards, fat-tree, dragonfly, the MorphoSys 8×8 RC
//!   array) lowered deterministically into a flat [`Network`] plus a
//!   [`machine::DomainMap`], with correlated [`machine::FaultDomain`]
//!   masks and the boot-time [`machine::boot_scan`] health pass;
//! * [`compress`] — SpiNNTools-style route-table compression against a
//!   per-processor hardware entry budget;
//! * [`cache`] — a shared LRU [`cache::RouteTableCache`] keyed by network
//!   structure and fault mask, so the mapping engine, repair sweeps, and
//!   interactive metrics stop rebuilding the same table.

#![deny(clippy::too_many_lines)]

pub mod builders;
pub mod cache;
pub mod compress;
pub mod fault;
pub mod gray;
pub mod machine;
pub mod network;
pub mod routes;

pub use cache::{CacheStats, RouteTableCache};
pub use compress::{compress_routes, CompressionConfig, RouteCompression};
pub use fault::{DegradedNetwork, FaultSet, TopologyError};
pub use machine::{
    boot_scan, DomainMap, FaultDomain, HealthReport, LoweredMachine, MachineKind, MachineModel,
};
pub use network::{LinkId, Network, ProcId, TopologyKind};
pub use routes::RouteTable;
