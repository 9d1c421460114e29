//! The one description of a map/repair request, shared by the CLI and
//! the daemon.
//!
//! A [`MapSpec`] is what a `map` / `repair` / `metrics` / `session_open`
//! frame carries, what `oregami`'s map flags fill in, and what a session's
//! meta sidecar stores. What either front end needs of one is decided
//! here, once: its JSON form both ways ([`MapSpec::from_json`],
//! [`MapSpec::to_json`]), the toolchain and options it stands for
//! ([`MapSpec::toolchain`] and the derivations beside it), and the class
//! of a failure ([`FailureClass`]: wire `kind` and CLI exit code).
//!
//! The front ends share these derivations, not one `execute`: a plain
//! local run maps unsupervised through `map_source`, the daemon always
//! runs the supervised engine, and that difference is on purpose.

use crate::json::Json;
use crate::topo::parse_target;
use crate::wire::WireError;
use oregami::larcs::programs;
use oregami::topology::{LinkId, ProcId};
use oregami::{
    Budget, ChaosConfig, DomainMap, FallbackChain, FaultSet, MapperOptions, Oregami, OregamiError,
    OregamiResult, RepairOptions, RouteCompression,
};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// What to map and under which constraints — shared by `map`, `repair`,
/// `metrics`, `session_open`, and the CLI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapSpec {
    /// LaRCS source text (resolved from `program` name or given inline).
    pub source: String,
    /// Display label (`program` name, a file path, or `"inline"`). The
    /// wire carries a label only as a builtin's `program` name.
    pub label: String,
    /// Parameter bindings; sorted by name when parsed off the wire
    /// (canonical for coalescing).
    pub params: Vec<(String, i64)>,
    /// Topology or machine spec string (`hypercube:3`,
    /// `mesh-boards:2x2x4x4`, ...), validated at parse.
    pub topology: String,
    pub deadline_ms: Option<u64>,
    pub max_steps: Option<u64>,
    pub chain: Option<String>,
    pub load_bound: Option<usize>,
    pub fail_procs: Vec<u32>,
    pub fail_links: Vec<u32>,
    /// Per-request chaos spec (`seed=7,panic=0.3,...`) for resilience
    /// testing; chaos-injected requests never coalesce with clean ones.
    pub chaos: Option<String>,
}

/// The builtin program called `name`: its source and sample parameters.
pub fn builtin(name: &str) -> Option<(String, Vec<(String, i64)>)> {
    let (_, source, params) = programs::all_programs()
        .into_iter()
        .find(|(n, _, _)| *n == name)?;
    Some((
        source,
        params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    ))
}

pub(crate) fn bad(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

pub(crate) fn get_str(msg: &Json, key: &str) -> Result<Option<String>, WireError> {
    match msg.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad(format!("'{key}' must be a string"))),
    }
}

pub(crate) fn get_u64(msg: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match msg.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

fn get_id_list(msg: &Json, key: &str) -> Result<Vec<u32>, WireError> {
    match msg.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad(format!("'{key}' must hold small integers")))
            })
            .collect(),
        Some(_) => Err(bad(format!("'{key}' must be an array"))),
    }
}

/// The `program` | `source` pair every source-carrying op shares:
/// `(source text, label)`.
pub(crate) fn source_of(msg: &Json) -> Result<(String, String), WireError> {
    match (get_str(msg, "program")?, get_str(msg, "source")?) {
        (Some(_), Some(_)) => Err(bad("give 'program' or 'source', not both")),
        (Some(name), None) => match builtin(&name) {
            Some((source, _)) => Ok((source, name)),
            None => Err(bad(format!("unknown program '{name}'"))),
        },
        (None, Some(text)) => Ok((text, "inline".to_string())),
        (None, None) => Err(bad("missing 'program' or 'source'")),
    }
}

impl MapSpec {
    /// Parses and validates the request fields of one message: the
    /// target must lower, the chain and chaos specs must parse.
    pub fn from_json(msg: &Json) -> Result<MapSpec, WireError> {
        let (source, label) = source_of(msg)?;
        let topology = get_str(msg, "topology")?.ok_or_else(|| bad("missing 'topology'"))?;
        parse_target(&topology).map_err(bad)?;
        let mut params: Vec<(String, i64)> = match msg.get("params") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| bad(format!("param '{k}' must be an integer")))
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err(bad("'params' must be an object")),
        };
        params.sort();
        params.dedup_by(|a, b| a.0 == b.0);
        let mut spec = MapSpec {
            source,
            label,
            params,
            topology,
            chaos: get_str(msg, "chaos")?,
            ..MapSpec::default()
        };
        spec.chaos().map_err(|e| bad(format!("bad 'chaos': {e}")))?;
        spec.chain = get_str(msg, "chain")?;
        spec.chain().map_err(bad)?;
        spec.deadline_ms = get_u64(msg, "deadline_ms")?;
        spec.max_steps = get_u64(msg, "max_steps")?;
        spec.load_bound = get_u64(msg, "load_bound")?.map(|n| n as usize);
        spec.fail_procs = get_id_list(msg, "fail_procs")?;
        spec.fail_links = get_id_list(msg, "fail_links")?;
        Ok(spec)
    }

    /// The request as the fields [`MapSpec::from_json`] reads — its
    /// inverse. A label that is a builtin's name (with that builtin's
    /// text) travels as `program`; any other source travels inline and
    /// parses back labelled `"inline"`. Unset options are left out.
    pub fn to_json(&self) -> Json {
        let source = match builtin(&self.label) {
            Some((text, _)) if text == self.source => ("program", self.label.as_str()),
            _ => ("source", self.source.as_str()),
        };
        let params = self.params.iter().map(|(k, v)| (k.clone(), Json::from(*v)));
        let ids = |ids: &[u32]| {
            let ids: Vec<Json> = ids.iter().map(|&i| Json::from(u64::from(i))).collect();
            (!ids.is_empty()).then_some(Json::Arr(ids))
        };
        let fields = [
            (source.0, Some(Json::from(source.1))),
            ("topology", Some(Json::from(self.topology.as_str()))),
            ("params", Some(Json::Obj(params.collect()))),
            ("deadline_ms", self.deadline_ms.map(Json::from)),
            ("max_steps", self.max_steps.map(Json::from)),
            ("chain", self.chain.as_deref().map(Json::from)),
            ("load_bound", self.load_bound.map(Json::from)),
            ("chaos", self.chaos.as_deref().map(Json::from)),
            ("fail_procs", ids(&self.fail_procs)),
            ("fail_links", ids(&self.fail_links)),
        ];
        let set = |(key, value): (&str, Option<Json>)| Some((key.to_string(), value?));
        Json::Obj(fields.into_iter().filter_map(set).collect())
    }

    /// The bindings in the borrowed form the toolchain's `map_source*`
    /// entry points take.
    pub fn param_refs(&self) -> Vec<(&str, i64)> {
        self.params.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }

    /// The `deadline_ms` / `max_steps` budget (unlimited without them).
    /// Each call starts a fresh budget: the deadline counts from now.
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(steps) = self.max_steps {
            budget = budget.with_max_steps(steps);
        }
        budget
    }

    /// The fallback chain the request names (the default chain without
    /// one).
    pub fn chain(&self) -> Result<FallbackChain, String> {
        self.chain
            .as_deref()
            .map_or_else(|| Ok(FallbackChain::default()), FallbackChain::parse)
    }

    /// The request's own chaos injection, if it brings one.
    pub fn chaos(&self) -> Result<Option<ChaosConfig>, String> {
        self.chaos.as_deref().map(ChaosConfig::parse).transpose()
    }

    /// The processors and links the request fails.
    pub fn fault_set(&self) -> FaultSet {
        let mut faults = FaultSet::new();
        for &p in &self.fail_procs {
            faults.fail_proc(ProcId(p));
        }
        for &l in &self.fail_links {
            faults.fail_link(LinkId(l));
        }
        faults
    }

    /// Repair options: the load bound, and blast-radius awareness when
    /// the target was a machine (`domains` as [`MapSpec::toolchain`]
    /// returned them).
    pub fn repair_options(&self, domains: Option<&Arc<DomainMap>>) -> RepairOptions {
        RepairOptions {
            load_bound: self.load_bound,
            domains: domains.cloned(),
            ..RepairOptions::default()
        }
    }

    /// Lowers the target — flat topology or hierarchical machine, one
    /// path — into a toolchain with the request's load bound, plus the
    /// fault-domain map a machine spec yields. Callers add what is
    /// theirs: caches and a supervisor in the daemon, the cost model and
    /// a private supervisor in the CLI.
    pub fn toolchain(&self) -> Result<(Oregami, Option<Arc<DomainMap>>), String> {
        let (net, domains) = parse_target(&self.topology)?;
        let options = MapperOptions {
            load_bound: self.load_bound,
            ..MapperOptions::default()
        };
        Ok((Oregami::new(net).with_options(options), domains))
    }

    /// Buckets the budget into a coarse class so "effectively the same
    /// patience" requests coalesce while a 10 ms and a 10 s deadline
    /// never share a computation.
    pub fn budget_class(&self) -> String {
        let deadline = match self.deadline_ms {
            None => "inf".to_string(),
            Some(ms) if ms < 50 => "xs".to_string(),
            Some(ms) if ms < 250 => "s".to_string(),
            Some(ms) if ms < 1000 => "m".to_string(),
            Some(_) => "l".to_string(),
        };
        let steps = match self.max_steps {
            None => "inf".to_string(),
            Some(n) => format!("e{}", (n.max(1) as f64).log10() as u32),
        };
        // Multilevel requests scale to graphs orders of magnitude larger
        // than the flat stages, so the same nominal budget buys a very
        // different amount of work — keep them in their own bucket.
        let ml = if self.chain.as_deref().is_some_and(|c| {
            c.split(',')
                .any(|s| matches!(s.trim(), "multilevel" | "ml"))
        }) {
            "/ml"
        } else {
            ""
        };
        format!("{deadline}/{steps}{ml}")
    }

    /// The coalescing key: identical `(op, program, params, topology,
    /// fault-mask, budget-class)` requests dedup onto one in-flight
    /// computation. Chain/load-bound/chaos all change the answer, so
    /// they are part of the identity.
    pub fn coalesce_key(&self, op: &str) -> String {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.source.hash(&mut h);
        let src = h.finish();
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{op}|{src:016x}|{}|{}|p{:?}l{:?}|{}|{:?}|{:?}|{:?}",
            params.join(","),
            self.topology,
            self.fail_procs,
            self.fail_links,
            self.budget_class(),
            self.chain,
            self.load_bound,
            self.chaos,
        )
    }
}

/// Compresses a machine mapping's routing tables against the
/// per-processor hardware budget; over budget even after compression is
/// [`TopologyError::RouteBudgetExceeded`](oregami::topology::TopologyError).
pub fn compress_machine_routes(
    system: &Oregami,
    result: &OregamiResult,
    entries_per_proc: usize,
) -> Result<RouteCompression, oregami::topology::TopologyError> {
    oregami::compress_routes(
        system.network(),
        result
            .report
            .mapping
            .routes
            .iter()
            .flatten()
            .map(Vec::as_slice),
        oregami::CompressionConfig { entries_per_proc },
    )
}

/// A failed request on the wire: `(kind, message)`.
pub type Failure = (String, String);

/// How a request can fail, as both front ends report it: the daemon as
/// the error `kind` on the wire, the CLI as its exit code — for a local
/// failure and for a `kind` received from a daemon alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Malformed or semantically invalid request; a usage error.
    BadRequest,
    /// LaRCS or MAPPER failure.
    Map,
    /// Fault injection rejected the fault ids.
    Fault,
    /// The mapping could not be repaired.
    Repair,
    /// No stage could serve (breakers all open, or the supervised chain
    /// failed outright).
    Unserviceable,
    /// Shed by admission control — retry later.
    Overloaded,
    /// Refused during graceful drain — retry elsewhere.
    ShuttingDown,
    /// A session or its journal refused the operation.
    Session,
    /// A panic isolated inside a request.
    Internal,
}

impl FailureClass {
    pub const ALL: [FailureClass; 9] = [
        FailureClass::BadRequest,
        FailureClass::Map,
        FailureClass::Fault,
        FailureClass::Repair,
        FailureClass::Unserviceable,
        FailureClass::Overloaded,
        FailureClass::ShuttingDown,
        FailureClass::Session,
        FailureClass::Internal,
    ];

    /// The one `OregamiError → class` table.
    pub fn of(e: &OregamiError) -> FailureClass {
        match e {
            OregamiError::Map(oregami::mapper::MapError::Unserviceable(_)) => {
                FailureClass::Unserviceable
            }
            OregamiError::Map(_) | OregamiError::Larcs(_) | OregamiError::Churn(_) => {
                FailureClass::Map
            }
            OregamiError::Fault(_) => FailureClass::Fault,
            OregamiError::Repair(_) => FailureClass::Repair,
            OregamiError::Journal(_) => FailureClass::Session,
        }
    }

    /// Each class's wire `kind` and `oregami` exit code. Shed work
    /// exits 8 so retry loops can tell "back off" from "give up".
    const fn row(self) -> (&'static str, u8) {
        match self {
            FailureClass::BadRequest => ("bad_request", 2),
            FailureClass::Map => ("map", 3),
            FailureClass::Fault => ("fault", 4),
            FailureClass::Repair => ("repair", 5),
            FailureClass::Unserviceable => ("unserviceable", 7),
            FailureClass::Overloaded => ("overloaded", 8),
            FailureClass::ShuttingDown => ("shutting_down", 8),
            FailureClass::Session => ("session", 2),
            FailureClass::Internal => ("internal", 3),
        }
    }

    /// The error `kind` on the wire.
    pub fn kind(self) -> &'static str {
        self.row().0
    }

    /// The `oregami` exit code.
    pub fn exit_code(self) -> u8 {
        self.row().1
    }

    /// The class a received `kind` names. Anything else a daemon can say
    /// (`io`, the framing kinds) is the request's or the transport's
    /// fault: a usage error.
    pub fn from_kind(kind: &str) -> FailureClass {
        Self::ALL
            .into_iter()
            .find(|c| c.kind() == kind)
            .unwrap_or(FailureClass::BadRequest)
    }

    /// `e` as a wire failure.
    pub(crate) fn wire(e: &OregamiError) -> Failure {
        (Self::of(e).kind().to_string(), e.to_string())
    }

    /// A wire failure of this class.
    pub(crate) fn fail(self, message: impl Into<String>) -> Failure {
        (self.kind().to_string(), message.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use proptest::prelude::*;

    fn spec_of(text: &str) -> MapSpec {
        MapSpec::from_json(&json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn derivations_follow_the_request() {
        let spec = spec_of(
            r#"{"program":"jacobi","topology":"mesh-boards:2x2x2x2","load_bound":5,
                "max_steps":9,"chain":"identity","chaos":"seed=4,panic=1",
                "fail_procs":[3,1],"fail_links":[2]}"#,
        );
        assert_eq!(spec.chain().unwrap().stages.len(), 1);
        assert_eq!(spec.chaos().unwrap().unwrap().seed, 4);
        let faults = spec.fault_set();
        assert_eq!(faults.procs().map(|p| p.0).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(faults.links().map(|l| l.0).collect::<Vec<_>>(), [2]);
        let (system, domains) = spec.toolchain().unwrap();
        assert_eq!(system.network().num_procs(), 16);
        let ropts = spec.repair_options(domains.as_ref());
        assert_eq!(ropts.load_bound, Some(5));
        assert_eq!(ropts.domains.unwrap().num_domains(), 4);
        let budget = spec.budget();
        assert!(budget.time_remaining().is_none());
        budget.charge(9);
        assert!(budget.poll().is_some(), "the step quota is the request's");

        let plain = MapSpec {
            topology: "ring:4".into(),
            ..MapSpec::default()
        };
        assert_eq!(plain.chain().unwrap(), FallbackChain::default());
        assert!(plain.chaos().unwrap().is_none() && plain.fault_set().is_empty());
        assert!(plain.toolchain().unwrap().1.is_none());
        assert!(plain.budget().poll().is_none());
    }

    /// Every toolchain error has a class, every class a wire kind and an
    /// exit code, and reading a kind back lands on the same exit code —
    /// so a failure exits `oregami` the same whether it happened locally
    /// or behind `--socket`.
    #[test]
    fn one_table_classifies_every_error_for_both_front_ends() {
        use oregami::mapper::MapError;
        use oregami::topology::TopologyError;
        let larcs = oregami::larcs::compile("algorithm broken(", &[]).unwrap_err();
        let repair = oregami::mapper::RepairError::Topology(TopologyError::NoAliveProcs);
        let churn = oregami::ChurnController::new(
            oregami::topology::builders::ring(4),
            oregami::ChurnConfig {
                load_bound: 0,
                ..oregami::ChurnConfig::default()
            },
        )
        .err()
        .expect("a zero load bound is rejected");
        // one of each variant (this match breaks when a variant is added)
        let variants = [
            OregamiError::Larcs(larcs),
            OregamiError::Map(MapError::Cancelled),
            OregamiError::Map(MapError::Unserviceable("x".into())),
            OregamiError::Fault(TopologyError::NoAliveProcs),
            OregamiError::Repair(repair),
            OregamiError::Journal("x".into()),
            OregamiError::Churn(churn),
        ];
        let expected = [
            ("map", 3),
            ("map", 3),
            ("unserviceable", 7),
            ("fault", 4),
            ("repair", 5),
            ("session", 2),
            ("map", 3),
        ];
        for (e, (kind, code)) in variants.iter().zip(expected) {
            match e {
                OregamiError::Larcs(_)
                | OregamiError::Map(_)
                | OregamiError::Fault(_)
                | OregamiError::Repair(_)
                | OregamiError::Journal(_)
                | OregamiError::Churn(_) => {}
            }
            let class = FailureClass::of(e);
            assert_eq!((class.kind(), class.exit_code()), (kind, code), "{e}");
            assert_eq!(FailureClass::wire(e), (kind.to_string(), e.to_string()));
        }
        for class in FailureClass::ALL {
            assert_eq!(FailureClass::from_kind(class.kind()), class);
            assert!(matches!(class.exit_code(), 2..=5 | 7 | 8), "{class:?}");
        }
        assert_eq!(FailureClass::Overloaded.exit_code(), 8);
        assert_eq!(FailureClass::ShuttingDown.exit_code(), 8);
        // what is not a class is the transport's or the request's fault
        for kind in [
            "io",
            "oversized",
            "truncated",
            "bad_json",
            "bad_utf8",
            "???",
        ] {
            assert_eq!(FailureClass::from_kind(kind).exit_code(), 2, "{kind}");
        }
    }

    const TOPOLOGIES: [&str; 4] = ["hypercube:3", "ring:5", "mesh2d:2x3", "mesh-boards:2x2x2x2"];
    const CHAINS: [&str; 4] = [
        "exhaustive,heuristic,identity",
        "ml",
        "identity",
        "heuristic",
    ];
    const CHAOS: [&str; 2] = [
        "seed=7,panic=0.3",
        "seed=1,stall=1,stall-ms=5,only=heuristic",
    ];

    fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
    }

    fn pick(from: &'static [&'static str]) -> impl Strategy<Value = String> {
        (0..from.len()).prop_map(move |i| from[i].to_string())
    }

    /// Specs as the wire can carry them: a builtin by name or an inline
    /// source, sorted distinct bindings, every option present or absent.
    fn arb_spec() -> impl Strategy<Value = MapSpec> {
        let builtins: Vec<String> = programs::all_programs()
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect();
        let source = prop_oneof![
            (0..builtins.len()).prop_map(move |i| {
                let name = builtins[i].clone();
                (builtin(&name).unwrap().0, name)
            }),
            // text the JSON renderer has to escape
            "[a-z \n\t\"\\\\é(){};]{0,40}".prop_map(|text| (text, "inline".to_string())),
        ];
        let ids = || proptest::collection::vec(0..64u32, 0..4);
        (
            source,
            proptest::collection::vec(("[a-z]{1,6}", -1000i64..1000), 0..4),
            pick(&TOPOLOGIES),
            (opt(0..10_000u64), opt(0..10_000_000u64), opt(0..64usize)),
            (opt(pick(&CHAINS)), opt(pick(&CHAOS)), ids(), ids()),
        )
            .prop_map(|((source, label), mut params, topology, budget, opts)| {
                params.sort();
                params.dedup_by(|a, b| a.0 == b.0);
                MapSpec {
                    source,
                    label,
                    params,
                    topology,
                    deadline_ms: budget.0,
                    max_steps: budget.1,
                    load_bound: budget.2,
                    chain: opts.0,
                    chaos: opts.1,
                    fail_procs: opts.2,
                    fail_links: opts.3,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `to_json` is the inverse of `from_json`, through the renderer
        /// and the parser a frame really crosses: same spec, same
        /// coalescing identity.
        #[test]
        fn serialise_then_parse_is_the_identity(spec in arb_spec()) {
            let wire = spec.to_json().render();
            let back = MapSpec::from_json(&json::parse(&wire).unwrap()).unwrap();
            prop_assert_eq!(&back, &spec, "{}", wire);
            for op in ["map", "repair", "metrics"] {
                prop_assert_eq!(back.coalesce_key(op), spec.coalesce_key(op));
            }
            // and the serialised form is a fixed point
            prop_assert_eq!(back.to_json().render(), wire);
        }
    }
}
