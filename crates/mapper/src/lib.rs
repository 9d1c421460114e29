//! # oregami-mapper
//!
//! MAPPER — OREGAMI's library of contraction, embedding, and routing
//! algorithms (paper §4).
//!
//! MAPPER handles three classes of task graphs, dispatched by the
//! regularity information in the LaRCS description (see
//! [`pipeline::map_task_graph`], reproducing the paper's Fig 3):
//!
//! 1. **Nameable** task graphs (§4.1): contraction and embedding by lookup
//!    in the [`canned`] library (Gray-code ring/mesh→hypercube, binomial
//!    tree→hypercube, the binomial tree→mesh embedding with low average
//!    dilation, ...);
//! 2. **Regular** task graphs (§4.2): [`contraction::group`] for node-
//!    symmetric (Cayley) graphs via quotient groups, and [`systolic`] for
//!    affine recurrences targeting systolic arrays / MIMD meshes;
//! 3. **Arbitrary** task graphs (§4.3): [`contraction::mwm_contract`]
//!    (greedy pre-merge + optimal maximum-weight matching under a load
//!    bound), then [`embedding::nn_embed`].
//!
//! Routing for all classes is [`routing::mm_route()`] (§4.4), which assigns
//! message edges to links one hop at a time with repeated bipartite
//! matchings to minimise link contention; a contention-oblivious
//! fixed-shortest-path baseline ([`routing::baseline_route`]) is provided
//! for comparison.
//!
//! Two of the paper's §6 future-work directions are implemented as
//! extensions: [`remap`] (per-phase remapping with task migration) and
//! [`aggregate`] (re-synthesising over-specified aggregation phases as
//! network-compatible spanning trees). Beyond the paper, [`repair`]
//! salvages a computed mapping after processor/link failures
//! (re-route → migrate → escalate to re-contract + re-embed).

#![deny(clippy::too_many_lines)]

pub mod aggregate;
pub mod budget;
pub mod canned;
pub mod churn;
pub mod contraction;
pub mod dynamic;
pub mod embedding;
pub mod engine;
pub mod mapping;
pub mod metrics_engine;
pub mod multilevel;
pub mod pipeline;
pub mod remap;
pub mod repair;
pub mod routing;
pub mod supervisor;
pub mod systolic;

pub use budget::{Budget, CancelToken, Completion};
pub use churn::{
    ChurnConfig, ChurnController, ChurnError, ChurnEvent, ChurnOutcome, ChurnStats, EventStream,
    StreamProfile,
};
pub use contraction::{
    greedy_premerge, greedy_premerge_budgeted, mwm_contract, mwm_contract_budgeted, ContractError,
    Contraction,
};
pub use embedding::{
    exhaustive_embed, exhaustive_embed_budgeted, nn_embed, AnytimeEmbed, EmbedError,
};
pub use engine::{
    run_engine_with, EngineConfig, EngineOutcome, EngineReport, FallbackChain, StageKind,
    StageReport, StageStatus,
};
pub use mapping::{Mapping, MappingError};
pub use metrics_engine::{CostModel, Edit, EditError, MetricSnapshot, MetricsDelta, MetricsEngine};
pub use multilevel::{multilevel_map_with_report, LevelStats, MultilevelReport};
pub use pipeline::{
    map_task_graph, map_task_graph_budgeted_with_table, MapError, MapperOptions, MapperReport,
    Strategy,
};
pub use repair::{repair_mapping, repair_mapping_cached, RepairError, RepairOptions, RepairReport};
pub use routing::{mm_route, RoutedPhase};
pub use supervisor::{
    BreakerConfig, BreakerState, BreakerView, ChaosConfig, RetryPolicy, ServiceHealth,
    SupervisorConfig, SupervisorState,
};
