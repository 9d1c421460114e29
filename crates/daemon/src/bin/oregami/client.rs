//! Daemon client mode (`--socket PATH`): forward the request to a
//! running oregamid over its Unix socket instead of mapping locally.
//!
//! The request is the run's `MapSpec`, serialised by the one serialiser
//! the daemon's parser inverts. A typed daemon error exits with the code
//! its `kind` has in the failure-class table — the same code the failure
//! has locally, plus 8 for shed work.

use crate::args::Args;
use crate::{need, usage, CliError, NO_PROGRAM, NO_TOPOLOGY};
use oregami_daemon::json::{obj, Json};
use oregami_daemon::request::FailureClass;
use oregami_daemon::Client;
use std::path::Path;
use std::process::ExitCode;

fn rpc(client: &mut Client, request: &Json) -> Result<Json, CliError> {
    client.request(request).map_err(|(kind, message)| CliError {
        code: FailureClass::from_kind(&kind).exit_code(),
        message: format!("daemon ({kind}): {message}"),
    })
}

fn text<'a>(of: &'a Json, key: &str) -> Option<&'a str> {
    of.get(key).and_then(Json::as_str)
}

pub(crate) fn run(args: &Args, socket: &str) -> Result<ExitCode, CliError> {
    // a flag the daemon cannot honour must not look honoured
    if let Some(flag) = args.local_only.first() {
        return Err(usage(format!(
            "{flag} only works on a local run: --socket mode forwards the map flags \
             (see --help) and nothing else"
        )));
    }
    let mut client = Client::connect(Path::new(socket))?;
    if args.remote_shutdown {
        rpc(&mut client, &obj().field("op", "shutdown").build())?;
        println!("daemon at {socket} is draining");
        return Ok(ExitCode::SUCCESS);
    }
    if args.remote_health {
        let health = rpc(&mut client, &obj().field("op", "health").build())?;
        println!("{}", health.render());
        return Ok(ExitCode::SUCCESS);
    }
    let spec = &args.spec;
    need(&spec.source, NO_PROGRAM)?;
    let topology = need(&spec.topology, NO_TOPOLOGY)?;
    let repair = !(spec.fail_procs.is_empty() && spec.fail_links.is_empty());
    let mut request = spec.to_json();
    if let Json::Obj(fields) = &mut request {
        let op = if repair { "repair" } else { "map" };
        fields.insert(0, ("op".to_string(), Json::from(op)));
    }
    let result = rpc(&mut client, &request)?;
    let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    if repair {
        println!(
            "daemon repaired '{}' on {topology}: {} processor(s) failed, {} link(s) out of service",
            spec.label,
            count("failed_procs"),
            count("failed_links"),
        );
        if let Some(r) = text(&result, "repair") {
            println!("{r}");
        }
    } else {
        println!(
            "daemon mapped '{}' ({} tasks) onto {topology} ({} processors)",
            spec.label,
            count("tasks"),
            count("procs"),
        );
        if let Some(s) = text(&result, "strategy") {
            println!("strategy: {s}");
        }
        if let Some(engine) = result.get("engine") {
            let field = |key: &str| text(engine, key).unwrap_or("?");
            println!(
                "engine: served by {} ({}), health: {}",
                field("served_by"),
                field("completion"),
                field("health"),
            );
        }
    }
    if let Some(report) = text(&result, "report").or_else(|| text(&result, "metrics")) {
        println!();
        println!("{report}");
    }
    if result.get("degraded").and_then(Json::as_bool) == Some(true) {
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}
