//! oregamid: mapping-as-a-service on a Unix domain socket.
//!
//! The OREGAMI toolchain maps parallel computations onto parallel
//! architectures; this crate wraps it in a long-running, crash-safe
//! daemon so many clients can share one warm process — one route-table
//! cache, one compiled-program cache, one set of circuit breakers —
//! instead of paying cold-start per invocation.
//!
//! The robustness layers, bottom to top:
//!
//! * [`wire`] — length-prefixed frames (u32 LE + payload, 1 MiB cap)
//!   carrying [`json`] messages; malformed input of any kind surfaces
//!   as a typed [`wire::WireError`], never a panic or a hang.
//! * [`request`] — [`request::MapSpec`], the one description of a
//!   map/repair request: its JSON form both ways, everything the CLI and
//!   the daemon derive from it (toolchain, budget, chain, fault set,
//!   repair options, coalescing identity), and the one table from a
//!   toolchain error to a wire `kind` and a CLI exit code.
//! * [`protocol`] — the request/response envelope and its ops.
//! * [`topo`] — the one lowering of a topology or machine spec string to
//!   a network, bounded by what its route table may allocate.
//! * [`admission`] — the load-shedding gate: queue depth, deadline
//!   feasibility against an EWMA of service times, breaker health, and
//!   drain state are checked *before* work is queued.
//! * [`scheduler`] — a worker pool with per-connection round-robin
//!   fairness and panic isolation.
//! * [`coalesce`] — identical in-flight computations dedup onto one
//!   run whose result fans out to every waiter.
//! * [`sessions`] — journaled edit and stream sessions in one table of
//!   owned values, each behind its own mutex; the WAL plus an atomically
//!   replaced meta sidecar make a SIGKILL'd daemon resumable
//!   byte-identically with `--resume`.
//! * [`server`] — the accept loop, dispatch, and graceful drain.
//! * [`client`] — the synchronous client the CLI and bench use.
//! * [`flags`] — the flag-value helper the two binaries' parsers share.

pub mod admission;
pub mod client;
pub mod coalesce;
pub mod flags;
pub mod json;
pub mod protocol;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod sessions;
pub mod topo;
pub mod wire;

pub use client::Client;
pub use server::{Server, ServerConfig, ServerHandle};
