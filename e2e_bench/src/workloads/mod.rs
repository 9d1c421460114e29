//! The seven workloads. Each one builds its inputs from the seed, runs a
//! timed pass, and — in a traced run — fills in the per-layer metrics of
//! the layers it exercises.

pub mod churn_stream;
pub mod corpus_map;
pub mod daemon_open_loop;
pub mod edit_session;
pub mod general_scale;
pub mod multilevel_scale;
pub mod storm_repair;

use crate::harness::trace::Tracer;
use crate::harness::{Layers, Timed};
use oregami::graph::TaskGraph;
use oregami::topology::RouteTable;
use oregami::{CostModel, Mapping, MetricsEngine, Network};
use std::sync::Arc;

/// Every workload, in `BENCHMARK.json` order (which also records why
/// each one exists).
pub const WORKLOADS: &[&str] = &[
    "corpus_map",
    "general_scale",
    "multilevel_scale",
    "edit_session",
    "churn_stream",
    "storm_repair",
    "daemon_open_loop",
];

/// What the runner needs from a workload.
pub trait Workload: Sized {
    /// Builds the inputs, route tables and base mappings for `seed`.
    /// `smoke` shrinks sizes so a test can run every workload in seconds.
    fn setup(seed: u64, smoke: bool) -> Self;

    /// One timed pass of about `seconds`, checking every output.
    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed;

    /// Per-layer metrics that are not plain span totals. Called after a
    /// traced pass with the pass's result.
    fn layers(&mut self, tr: &mut Tracer, traced: &Timed, out: &mut Layers);
}

/// The one scalar every workload scores a mapping by: the quality guard.
pub fn scalar_cost(
    tg: &TaskGraph,
    net: &Network,
    mapping: &Mapping,
    table: &Arc<RouteTable>,
) -> Result<u64, String> {
    MetricsEngine::try_new_with_table(tg, net, mapping, &CostModel::default(), Arc::clone(table))
        .map(|e| e.scalar_cost())
        .map_err(|e| format!("mapping rejected by the metrics engine: {e}"))
}
