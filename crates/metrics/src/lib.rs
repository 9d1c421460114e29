//! # oregami-metrics
//!
//! METRICS — the mapping analysis component of OREGAMI (paper §5).
//!
//! The original METRICS was an interactive Mac II graphics tool; its
//! substance — the metric suite and the recompute-after-edit loop — is all
//! here, with rendering to ASCII tables ([`report`]) and Graphviz
//! ([`oregami_graph::dot`]) instead of a color display. The metrics computed
//! are exactly the paper's list:
//!
//! * **load balancing**: tasks per processor, total execution time per
//!   processor ([`load`]);
//! * **link metrics**: dilation, volume of communication, communication
//!   contention with respect to the phases ([`links`]);
//! * **overall mapping**: completion time of the computation under a
//!   synchronous cost model driven by the phase expression, and total
//!   interprocessor communication ([`overall`]).
//!
//! All of these are views over the incremental [`MetricsEngine`], which
//! owns per-phase link ledgers and per-processor compute ledgers and
//! recomputes only what an edit touches. Interactive modification — the
//! loop the mouse-driven tool ran — is [`MetricsEngine::apply`] with a
//! [`Reassign`](Edit::Reassign) / [`Reroute`](Edit::Reroute) /
//! [`Fault`](Edit::Fault) edit, which returns the metric delta and
//! supports [`undo`](MetricsEngine::undo); batch analysis
//! ([`analyze_mapping`]) is "build the engine, read the report".

#![deny(clippy::too_many_lines)]

pub mod links;
pub mod load;
pub mod overall;
pub mod report;
pub mod schedule;
#[cfg(test)]
mod testutil;
pub mod timeline;
pub mod visualize;

pub use links::{LinkMetrics, PhaseLinkMetrics};
pub use load::LoadMetrics;
pub use overall::{CostModel, OverallMetrics};
pub use report::MetricsReport;
pub use schedule::{local_directives, synchrony_sets, ProcessorDirective, SynchronySet};
pub use timeline::{timeline, Timeline, TimelineRow};
pub use visualize::{mapping_to_dot, network_to_dot};

pub use oregami_mapper::metrics_engine::{
    Edit, EditError, MetricSnapshot, MetricsDelta, MetricsEngine,
};

use oregami_graph::TaskGraph;
use oregami_mapper::{Mapping, MappingError};
use oregami_topology::Network;

/// Assembles the full METRICS report from an engine's current state (no
/// annotations; callers append their own).
pub fn report_from_engine(engine: &MetricsEngine<'_>) -> MetricsReport {
    MetricsReport {
        load: load::from_engine(engine),
        links: links::from_engine(engine),
        overall: overall::from_engine(engine),
        annotations: Vec::new(),
    }
}

/// Computes the full METRICS suite for a routed mapping, validating it
/// first.
///
/// `net` may be any network the mapping is valid on — in particular a
/// [`oregami_topology::DegradedNetwork`]'s surviving machine
/// (`degraded.network()`), so every metric can be recomputed after faults
/// and repair.
pub fn try_analyze_mapping(
    tg: &TaskGraph,
    net: &Network,
    mapping: &Mapping,
    model: &CostModel,
) -> Result<MetricsReport, MappingError> {
    let engine = MetricsEngine::try_new(tg, net, mapping, model)?;
    Ok(report_from_engine(&engine))
}

/// Computes the full METRICS suite for a routed mapping.
///
/// # Panics
/// If the mapping fails validation against `tg`/`net` (callers should have
/// produced it through `oregami-mapper`, which guarantees validity).
/// Fallible callers (e.g. after faults) should use
/// [`try_analyze_mapping`].
pub fn analyze_mapping(
    tg: &TaskGraph,
    net: &Network,
    mapping: &Mapping,
    model: &CostModel,
) -> MetricsReport {
    try_analyze_mapping(tg, net, mapping, model)
        .expect("mapping must be valid before analysis")
}
