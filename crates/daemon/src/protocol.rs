//! The daemon's request/response protocol over the JSON wire format.
//!
//! Every request is one object: `{"id": N, "op": "...", ...}`. Every
//! response echoes the id: `{"id": N, "ok": true, "result": {...}}` or
//! `{"id": N, "ok": false, "error": {"kind": "...", "message": "..."}}`.
//!
//! Operations:
//!
//! | op                 | fields                                            |
//! |--------------------|---------------------------------------------------|
//! | `map`              | `program`\|`source`, `topology`, `params?`, `deadline_ms?`, `max_steps?`, `chain?`, `load_bound?`, `chaos?` |
//! | `repair`           | map fields + `fail_procs?`, `fail_links?`         |
//! | `metrics`          | map fields; returns the full metric snapshot      |
//! | `health`           | `reset_stats?` — service health + counters        |
//! | `fmt`              | `program`\|`source` — canonical LaRCS formatting  |
//! | `session_open`     | `session`, map fields — journaled session         |
//! | `session_edit`     | `session`, `edit` (replay-dialect line)           |
//! | `session_stream`   | `session`, `topology?` (opens on first use), `load_bound?`, `events?` (stream-dialect lines) — journaled churn-stream session |
//! | `session_snapshot` | `session` — deterministic state snapshot          |
//! | `session_close`    | `session` — ends it and removes its journal       |
//! | `shutdown`         | graceful drain                                    |
//!
//! Error kinds: `overloaded` (shed by admission control — retry later),
//! `unserviceable` (every stage breaker open / nothing could serve),
//! `shutting_down`, `bad_request`, `map`, `fault`, `repair`, `session`,
//! `internal`.

use crate::json::{obj, Json};
use crate::wire::WireError;
use oregami::larcs::programs;
use std::hash::{Hash, Hasher};

/// Error kind for work shed by admission control.
pub const KIND_OVERLOADED: &str = "overloaded";
/// Error kind for "no stage can serve" (breakers all open, or the
/// supervised chain failed outright).
pub const KIND_UNSERVICEABLE: &str = "unserviceable";
/// Error kind for requests refused during graceful drain.
pub const KIND_SHUTTING_DOWN: &str = "shutting_down";
/// Error kind for malformed or semantically invalid requests.
pub const KIND_BAD_REQUEST: &str = "bad_request";
/// Error kind for a panic isolated inside a request.
pub const KIND_INTERNAL: &str = "internal";

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub id: u64,
    pub op: Op,
}

/// The operation a request asks for.
#[derive(Debug)]
pub enum Op {
    Map(MapSpec),
    Repair(MapSpec),
    Metrics(MapSpec),
    Health { reset_stats: bool },
    Fmt { source: String },
    SessionOpen { name: String, spec: MapSpec },
    SessionEdit { name: String, line: String },
    SessionStream {
        name: String,
        topology: Option<String>,
        load_bound: Option<usize>,
        events: Vec<String>,
    },
    SessionSnapshot { name: String },
    SessionClose { name: String },
    Shutdown,
}

/// What to map and under which constraints — shared by `map`, `repair`,
/// `metrics`, and `session_open`.
#[derive(Debug, Clone)]
pub struct MapSpec {
    /// LaRCS source text (resolved from `program` name or given inline).
    pub source: String,
    /// Display label (`program` name or `"inline"`).
    pub label: String,
    /// Parameter bindings, sorted by name (canonical for coalescing).
    pub params: Vec<(String, i64)>,
    /// Topology spec string (`hypercube:3`, ...), validated at parse.
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

impl MapSpec {
    /// The bindings in the borrowed form the toolchain's `map_source*`
    /// entry points take.
    pub(crate) fn param_refs(&self) -> Vec<(&str, i64)> {
        self.params.iter().map(|(k, v)| (k.as_str(), *v)).collect()
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
            c.split(',').any(|s| matches!(s.trim(), "multilevel" | "ml"))
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
        let params: Vec<String> =
            self.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
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

fn bad(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

fn get_str(msg: &Json, key: &str) -> Result<Option<String>, WireError> {
    match msg.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad(format!("'{key}' must be a string"))),
    }
}

fn get_u64(msg: &Json, key: &str) -> Result<Option<u64>, WireError> {
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

/// Session names become journal/meta file names, so they are restricted
/// to a safe alphabet — no separators, no dots, no traversal.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

fn get_session(msg: &Json) -> Result<String, WireError> {
    let name = get_str(msg, "session")?.ok_or_else(|| bad("missing 'session'"))?;
    if !valid_session_name(&name) {
        return Err(bad(
            "'session' must be 1-64 chars of [a-zA-Z0-9_-]",
        ));
    }
    Ok(name)
}

pub(crate) fn parse_spec(msg: &Json) -> Result<MapSpec, WireError> {
    let source = match (get_str(msg, "program")?, get_str(msg, "source")?) {
        (Some(_), Some(_)) => return Err(bad("give 'program' or 'source', not both")),
        (Some(name), None) => {
            let found = programs::all_programs()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .ok_or_else(|| bad(format!("unknown program '{name}'")))?;
            (found.1, name)
        }
        (None, Some(text)) => (text, "inline".to_string()),
        (None, None) => return Err(bad("missing 'program' or 'source'")),
    };
    let topology = get_str(msg, "topology")?.ok_or_else(|| bad("missing 'topology'"))?;
    crate::topo::parse_target(&topology).map_err(bad)?;
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
    let chaos = get_str(msg, "chaos")?;
    if let Some(spec) = &chaos {
        oregami::ChaosConfig::parse(spec).map_err(|e| bad(format!("bad 'chaos': {e}")))?;
    }
    let chain = get_str(msg, "chain")?;
    if let Some(spec) = &chain {
        oregami::FallbackChain::parse(spec).map_err(bad)?;
    }
    Ok(MapSpec {
        source: source.0,
        label: source.1,
        params,
        topology,
        deadline_ms: get_u64(msg, "deadline_ms")?,
        max_steps: get_u64(msg, "max_steps")?,
        chain,
        load_bound: get_u64(msg, "load_bound")?.map(|n| n as usize),
        fail_procs: get_id_list(msg, "fail_procs")?,
        fail_links: get_id_list(msg, "fail_links")?,
        chaos,
    })
}

/// Parses one request message. `id` defaults to 0 when absent so even
/// malformed requests can be answered with a correlatable error.
pub fn parse_request(msg: &Json) -> Result<Request, WireError> {
    if !matches!(msg, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let id = get_u64(msg, "id")?.unwrap_or(0);
    let op_name = get_str(msg, "op")?.ok_or_else(|| bad("missing 'op'"))?;
    let op = match op_name.as_str() {
        "map" => Op::Map(parse_spec(msg)?),
        "repair" => Op::Repair(parse_spec(msg)?),
        "metrics" => Op::Metrics(parse_spec(msg)?),
        "health" => Op::Health {
            reset_stats: msg.get("reset_stats").and_then(Json::as_bool).unwrap_or(false),
        },
        "fmt" => {
            let source = match (get_str(msg, "program")?, get_str(msg, "source")?) {
                (Some(_), Some(_)) => {
                    return Err(bad("give 'program' or 'source', not both"))
                }
                (Some(name), None) => {
                    programs::all_programs()
                        .into_iter()
                        .find(|(n, _, _)| *n == name)
                        .ok_or_else(|| bad(format!("unknown program '{name}'")))?
                        .1
                }
                (None, Some(text)) => text,
                (None, None) => return Err(bad("missing 'program' or 'source'")),
            };
            Op::Fmt { source }
        }
        "session_open" => Op::SessionOpen {
            name: get_session(msg)?,
            spec: parse_spec(msg)?,
        },
        "session_edit" => Op::SessionEdit {
            name: get_session(msg)?,
            line: get_str(msg, "edit")?.ok_or_else(|| bad("missing 'edit'"))?,
        },
        "session_stream" => {
            let topology = get_str(msg, "topology")?;
            if let Some(t) = &topology {
                crate::topo::parse_topology(t).map_err(bad)?;
            }
            let events = match msg.get("events") {
                None | Some(Json::Null) => Vec::new(),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("'events' must hold strings"))
                    })
                    .collect::<Result<_, _>>()?,
                Some(_) => return Err(bad("'events' must be an array")),
            };
            Op::SessionStream {
                name: get_session(msg)?,
                topology,
                load_bound: get_u64(msg, "load_bound")?.map(|n| n as usize),
                events,
            }
        }
        "session_snapshot" => Op::SessionSnapshot {
            name: get_session(msg)?,
        },
        "session_close" => Op::SessionClose {
            name: get_session(msg)?,
        },
        "shutdown" => Op::Shutdown,
        other => return Err(bad(format!("unknown op '{other}'"))),
    };
    Ok(Request { id, op })
}

/// A success response.
pub fn ok_response(id: u64, result: Json) -> Json {
    obj().field("id", id).field("ok", true).field("result", result).build()
}

/// A typed error response.
pub fn err_response(id: u64, kind: &str, message: &str) -> Json {
    obj()
        .field("id", id)
        .field("ok", false)
        .field(
            "error",
            obj().field("kind", kind).field("message", message).build(),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn req(text: &str) -> Result<Request, WireError> {
        parse_request(&json::parse(text).unwrap())
    }

    #[test]
    fn map_request_parses_and_canonicalizes_params() {
        let r = req(
            r#"{"id":3,"op":"map","program":"nbody","topology":"hypercube:3",
                "params":{"s":2,"n":16,"msgsize":4},"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.id, 3);
        let Op::Map(spec) = r.op else { panic!("expected map") };
        assert_eq!(spec.label, "nbody");
        assert_eq!(
            spec.params,
            vec![
                ("msgsize".to_string(), 4),
                ("n".to_string(), 16),
                ("s".to_string(), 2)
            ]
        );
        assert_eq!(spec.budget_class(), "m/inf");
    }

    #[test]
    fn multilevel_chains_get_their_own_budget_bucket() {
        let r = req(
            r#"{"id":4,"op":"map","program":"nbody","topology":"hypercube:3",
                "params":{"s":2,"n":16,"msgsize":4},"deadline_ms":250,
                "chain":"multilevel,heuristic,identity"}"#,
        )
        .unwrap();
        let Op::Map(spec) = r.op else { panic!("expected map") };
        assert_eq!(spec.budget_class(), "m/inf/ml");

        // The short alias counts too; an unrelated chain does not.
        let mut spec = spec;
        spec.chain = Some("ml".to_string());
        assert_eq!(spec.budget_class(), "m/inf/ml");
        spec.chain = Some("heuristic,identity".to_string());
        assert_eq!(spec.budget_class(), "m/inf");
    }

    #[test]
    fn identical_work_shares_a_coalesce_key() {
        let a = req(
            r#"{"id":1,"op":"map","program":"nbody","topology":"hypercube:3",
                "params":{"n":16,"s":2,"msgsize":4},"deadline_ms":300}"#,
        )
        .unwrap();
        let b = req(
            r#"{"id":99,"op":"map","program":"nbody","topology":"hypercube:3",
                "params":{"msgsize":4,"s":2,"n":16},"deadline_ms":700}"#,
        )
        .unwrap();
        let c = req(
            r#"{"id":2,"op":"map","program":"nbody","topology":"hypercube:4",
                "params":{"n":16,"s":2,"msgsize":4},"deadline_ms":300}"#,
        )
        .unwrap();
        let (Op::Map(a), Op::Map(b), Op::Map(c)) = (a.op, b.op, c.op) else {
            panic!()
        };
        assert_eq!(a.coalesce_key("map"), b.coalesce_key("map"));
        assert_ne!(a.coalesce_key("map"), c.coalesce_key("map"));
        assert_ne!(a.coalesce_key("map"), a.coalesce_key("metrics"));
    }

    #[test]
    fn malformed_requests_are_typed_protocol_errors() {
        for bad in [
            r#"[1,2]"#,
            r#"{"op":"map"}"#,
            r#"{"op":"map","program":"nope","topology":"ring:4"}"#,
            r#"{"op":"map","program":"nbody","topology":"warp:4"}"#,
            r#"{"op":"map","program":"nbody","source":"x","topology":"ring:4"}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"session_edit","session":"a/b","edit":"undo"}"#,
            r#"{"op":"session_open","session":"x","program":"nbody","topology":"ring:4","chaos":"seed=?"}"#,
            r#"{"id":-1,"op":"health"}"#,
        ] {
            let err = req(bad).unwrap_err();
            assert!(
                matches!(err, WireError::Protocol(_)),
                "{bad} must be a protocol error, got {err:?}"
            );
        }
    }

    #[test]
    fn responses_have_the_documented_shape() {
        let ok = ok_response(7, json::obj().field("x", 1u64).build());
        assert_eq!(ok.render(), r#"{"id":7,"ok":true,"result":{"x":1}}"#);
        let e = err_response(8, KIND_OVERLOADED, "queue full");
        assert_eq!(
            e.render(),
            r#"{"id":8,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }
}
