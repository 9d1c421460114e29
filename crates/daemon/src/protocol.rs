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
//! The map fields are a [`MapSpec`] (see [`crate::request`], which also
//! owns the error kinds: `overloaded` — shed by admission control, retry
//! later — `unserviceable`, `shutting_down`, `bad_request`, `map`,
//! `fault`, `repair`, `session`, `internal`).

use crate::json::{obj, Json};
use crate::request::{bad, get_str, get_u64, source_of, MapSpec};
use crate::wire::WireError;

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

/// Session names become journal/meta file names, so they are restricted
/// to a safe alphabet — no separators, no dots, no traversal.
fn valid_session_name(name: &str) -> bool {
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

/// Parses one request message. `id` defaults to 0 when absent so even
/// malformed requests can be answered with a correlatable error.
pub fn parse_request(msg: &Json) -> Result<Request, WireError> {
    if !matches!(msg, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let id = get_u64(msg, "id")?.unwrap_or(0);
    let op_name = get_str(msg, "op")?.ok_or_else(|| bad("missing 'op'"))?;
    let op = match op_name.as_str() {
        "map" => Op::Map(MapSpec::from_json(msg)?),
        "repair" => Op::Repair(MapSpec::from_json(msg)?),
        "metrics" => Op::Metrics(MapSpec::from_json(msg)?),
        "health" => Op::Health {
            reset_stats: msg.get("reset_stats").and_then(Json::as_bool).unwrap_or(false),
        },
        "fmt" => Op::Fmt { source: source_of(msg)?.0 },
        "session_open" => Op::SessionOpen {
            name: get_session(msg)?,
            spec: MapSpec::from_json(msg)?,
        },
        "session_edit" => Op::SessionEdit {
            name: get_session(msg)?,
            line: get_str(msg, "edit")?.ok_or_else(|| bad("missing 'edit'"))?,
        },
        "session_stream" => {
            let topology = get_str(msg, "topology")?;
            if let Some(t) = &topology {
                crate::topo::parse_target(t).map_err(bad)?;
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
        let e = err_response(8, "overloaded", "queue full");
        assert_eq!(
            e.render(),
            r#"{"id":8,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }
}
