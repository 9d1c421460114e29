//! The `oregamid` server: accept loop, connection readers, dispatch.
//!
//! One thread accepts connections (nonblocking, so it can poll the stop
//! flag a SIGTERM handler sets); each connection gets a reader thread
//! that parses frames and dispatches, and is tracked — a socket clone for
//! drain, a join handle — only until its handler returns or unwinds. Cheap operations — health,
//! session commands, shutdown — are answered inline on the reader.
//! Compute operations (`map`/`repair`/`metrics`) pass the admission
//! gate, coalesce with identical in-flight work, and run on the
//! work-stealing scheduler; their responses are published through the
//! coalescer to every waiter.
//!
//! Graceful drain (SIGTERM or a `shutdown` request): admission starts
//! shedding with `shutting_down`, the listener closes and the socket
//! file is unlinked, queued jobs run to completion and their responses
//! flush, the session table is emptied (journals intact, so `--resume`
//! restores them), connections are shut down, readers joined.

use crate::admission::AdmissionGate;
use crate::coalesce::{Coalescer, Payload, Waiter};
use crate::json::{obj, Json};
use crate::protocol::{self, Op};
use crate::request::{compress_machine_routes, Failure, FailureClass, MapSpec};
use crate::scheduler::{Job, Scheduler};
use crate::sessions::{assignment_json, metric_json, SessionRegistry};
use crate::wire::{self, WireError};
use oregami::{
    ChaosConfig, CostModel, MetricsEngine, Oregami, OregamiError, OregamiResult, RouteTableCache,
    StageKind, SupervisorConfig, SupervisorState,
};

use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the daemon is wired together.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix domain socket path. A stale file is replaced at bind.
    pub socket: PathBuf,
    /// Directory for session journals and meta sidecars.
    pub state_dir: PathBuf,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Max outstanding compute jobs before admission sheds `overloaded`.
    pub max_queue: usize,
    /// Restore journaled sessions from the state dir at startup.
    pub resume: bool,
    /// Daemon-wide chaos spec injected into every compute request's
    /// supervisor (per-request `chaos` overrides it).
    pub chaos: Option<String>,
    /// Route-table cache capacity (distinct topologies kept hot).
    pub cache_capacity: usize,
    /// Hierarchical machine spec this daemon fronts (e.g.
    /// `mesh-boards:4x4x8x8`). When set, a boot-time health scan runs at
    /// bind and `health` reports per-domain liveness.
    pub machine: Option<String>,
    /// Seed for the boot-time health scan.
    pub boot_seed: u64,
    /// Dead-at-boot probability in permille for the health scan
    /// (0 = everything boots).
    pub boot_dead_permille: u32,
    /// Per-processor routing-table hardware budget used to compress the
    /// routes of machine-spec mappings.
    pub route_budget: usize,
}

impl ServerConfig {
    pub fn new(socket: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> ServerConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ServerConfig {
            socket: socket.into(),
            state_dir: state_dir.into(),
            workers,
            max_queue: 64,
            resume: false,
            chaos: None,
            cache_capacity: 32,
            machine: None,
            boot_seed: 0,
            boot_dead_permille: 0,
            route_budget: 1024,
        }
    }
}

/// Shared daemon state: every connection reader and scheduler worker
/// holds an `Arc` of this.
struct Daemon {
    cache: Arc<RouteTableCache>,
    /// The shared incremental LaRCS front end: every compile in the
    /// daemon — compute requests, `fmt`, session opens, and session
    /// `program` edits — goes through this one `Db`, so repeated and
    /// lightly edited sources reuse cached tokens/ASTs/rule fragments.
    frontend: Arc<Mutex<oregami::larcs::Db>>,
    supervisor: Arc<SupervisorState>,
    gate: AdmissionGate,
    sched: Arc<Scheduler>,
    coalescer: Coalescer<UnixStream>,
    sessions: SessionRegistry,
    chaos: Option<String>,
    /// The hierarchical machine this daemon fronts, with its boot-time
    /// health, when configured.
    machine: Option<MachineStatus>,
    /// Per-processor routing-table hardware budget for machine mappings.
    route_budget: usize,
    /// Compression result of the most recent machine-spec mapping.
    compression: Mutex<Option<oregami::RouteCompression>>,
    /// Set by `shutdown` requests and by the stop flag: admission sheds,
    /// the accept loop exits.
    draining: AtomicBool,
    requests: AtomicU64,
    started: Instant,
    resumed_sessions: usize,
    resume_failures: usize,
}

/// The configured machine plus its boot-scan verdict.
struct MachineStatus {
    spec: String,
    num_procs: usize,
    health: oregami::HealthReport,
}

/// A bound, not-yet-serving daemon. [`Server::bind`] resolves every
/// startup error (bad socket path, unreadable state dir, resume
/// failures) synchronously; [`Server::serve`] then blocks until drain.
pub struct Server {
    listener: UnixListener,
    daemon: Arc<Daemon>,
    socket: PathBuf,
}

/// An in-process daemon for tests and benches.
pub struct ServerHandle {
    pub socket: PathBuf,
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<Json>,
}

impl ServerHandle {
    /// Signals drain and waits for it to finish; returns the final
    /// health/stats object.
    pub fn shutdown(self) -> Json {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().unwrap_or(Json::Null)
    }
}

impl Server {
    /// Binds the socket, builds the shared state, and (with
    /// `config.resume`) restores journaled sessions — all before the
    /// first request can arrive.
    pub fn bind(config: ServerConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&config.state_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", config.state_dir.display()))?;
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)
                .map_err(|e| format!("cannot replace stale socket {}: {e}", config.socket.display()))?;
        }
        if let Some(spec) = &config.chaos {
            ChaosConfig::parse(spec).map_err(|e| format!("bad chaos spec: {e}"))?;
        }
        let machine = match &config.machine {
            Some(spec) => {
                let lowered = oregami::MachineModel::parse(spec)
                    .map_err(|e| format!("bad machine spec: {e}"))?
                    .lower();
                let health = oregami::boot_scan(
                    &lowered.net,
                    &lowered.domains,
                    config.boot_seed,
                    config.boot_dead_permille,
                );
                eprintln!(
                    "oregamid: machine {spec}: {}/{} processors booted, {}/{} domains healthy",
                    lowered.net.num_procs() - health.dead_procs.len(),
                    lowered.net.num_procs(),
                    health.domains_total - health.domains_degraded,
                    health.domains_total,
                );
                Some(MachineStatus {
                    spec: spec.clone(),
                    num_procs: lowered.net.num_procs(),
                    health,
                })
            }
            None => None,
        };
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let cache = Arc::new(RouteTableCache::new(config.cache_capacity));
        let supervisor = Arc::new(SupervisorState::new());
        let frontend = Arc::new(Mutex::new(oregami::larcs::Db::new()));
        let sessions = SessionRegistry::new(
            config.state_dir.clone(),
            Arc::clone(&cache),
            Arc::clone(&frontend),
        );
        let (resumed, failed) = if config.resume {
            sessions.resume_all()
        } else {
            (Vec::new(), Vec::new())
        };
        for (name, why) in &failed {
            eprintln!("oregamid: session '{name}' not resumed: {why}");
        }
        let daemon = Arc::new(Daemon {
            cache,
            frontend,
            supervisor: Arc::clone(&supervisor),
            gate: AdmissionGate::new(config.max_queue, config.workers, supervisor),
            sched: Scheduler::start(config.workers),
            coalescer: Coalescer::default(),
            sessions,
            chaos: config.chaos.clone(),
            machine,
            route_budget: config.route_budget,
            compression: Mutex::new(None),
            draining: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            started: Instant::now(),
            resumed_sessions: resumed.len(),
            resume_failures: failed.len(),
        });
        Ok(Server {
            listener,
            daemon,
            socket: config.socket,
        })
    }

    /// Binds and serves on a background thread; startup errors are
    /// returned synchronously.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
        let server = Server::bind(config)?;
        let socket = server.socket.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("oregamid-accept".to_string())
            .spawn(move || server.serve(&flag))
            .map_err(|e| format!("cannot spawn server thread: {e}"))?;
        Ok(ServerHandle { socket, stop, join })
    }

    /// Accepts and serves until `stop` is set (SIGTERM handler) or a
    /// `shutdown` request arrives, then drains gracefully. Returns the
    /// final health/stats object.
    pub fn serve(self, stop: &AtomicBool) -> Json {
        let daemon = self.daemon;
        let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let conns = Conns::default();
        let mut next_conn = 0u64;
        loop {
            if stop.load(Ordering::SeqCst) || daemon.draining.load(Ordering::SeqCst) {
                break;
            }
            // reap the readers whose clients have gone: a daemon holds
            // handles (and descriptors, see `OpenConn`) for the connections
            // it is serving, not for every one it has ever accepted
            let mut i = 0;
            while i < readers.len() {
                if readers[i].is_finished() {
                    let _ = readers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    next_conn += 1;
                    let conn_id = next_conn;
                    let _ = stream.set_nonblocking(false);
                    let d = Arc::clone(&daemon);
                    if let Ok(h) = spawn_conn(&conns, conn_id, stream, move |stream| {
                        handle_conn(&d, conn_id, stream)
                    }) {
                        readers.push(h);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(15)),
            }
        }
        // ---- graceful drain ----
        daemon.draining.store(true, Ordering::SeqCst);
        drop(self.listener);
        let _ = std::fs::remove_file(&self.socket);
        // queued compute jobs finish and their responses flush first
        daemon.sched.drain();
        // sessions drop; journals and meta files stay for --resume
        daemon.sessions.shutdown();
        // now unblock every reader still waiting on its client
        for (_, s) in conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain()
        {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in readers {
            let _ = h.join();
        }
        daemon.health_json()
    }
}

/// The connections being served, by connection id: a clone of each socket,
/// which is what lets drain shut down a reader blocked on its client.
type Conns = Arc<Mutex<HashMap<u64, UnixStream>>>;

/// One connection's entry in [`Conns`], removed when this is dropped.
struct OpenConn {
    conns: Conns,
    id: u64,
}

impl Drop for OpenConn {
    fn drop(&mut self) {
        self.conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&self.id);
    }
}

/// Runs `handler` over `stream` on the connection's own thread, with the
/// connection listed in `conns` for exactly as long as the handler runs:
/// the entry goes when the handler returns, and when it panics, so the
/// client of a handler that dies reads end-of-file instead of waiting on
/// a socket nobody serves.
fn spawn_conn(
    conns: &Conns,
    id: u64,
    stream: UnixStream,
    handler: impl FnOnce(UnixStream) + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    if let Ok(clone) = stream.try_clone() {
        conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, clone);
    }
    // moved into the thread; dropped there, or here if it never starts
    let open = OpenConn {
        conns: Arc::clone(conns),
        id,
    };
    std::thread::Builder::new()
        .name(format!("oregamid-conn-{id}"))
        .spawn(move || {
            let _open = open;
            handler(stream)
        })
}

/// One connection: read frames, dispatch, answer. Returns when the
/// client hangs up, the framing breaks, or the daemon drains.
fn handle_conn(daemon: &Arc<Daemon>, conn_id: u64, stream: UnixStream) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    let respond = |response: &Json| {
        if let Ok(mut w) = writer.lock() {
            let _ = wire::write_message(&mut *w, response);
        }
    };
    loop {
        let msg = match wire::read_message(&mut reader) {
            Ok(m) => m,
            Err(WireError::Closed) => return,
            Err(e @ (WireError::Oversized(_) | WireError::Truncated)) => {
                // framing is lost: answer once, then hang up
                respond(&protocol::err_response(0, e.kind(), &e.to_string()));
                return;
            }
            Err(WireError::Io(_)) => return,
            Err(e) => {
                // well-framed but undecodable: typed error, keep serving
                respond(&protocol::err_response(0, e.kind(), &e.to_string()));
                continue;
            }
        };
        daemon.requests.fetch_add(1, Ordering::Relaxed);
        let req = match protocol::parse_request(&msg) {
            Ok(r) => r,
            Err(e) => {
                let id = msg.get("id").and_then(Json::as_u64).unwrap_or(0);
                respond(&protocol::err_response(id, e.kind(), &e.to_string()));
                continue;
            }
        };
        let draining = daemon.draining.load(Ordering::SeqCst);
        match req.op {
            Op::Health { reset_stats } => {
                if reset_stats {
                    daemon.cache.reset_stats();
                }
                respond(&protocol::ok_response(req.id, daemon.health_json()));
            }
            Op::Shutdown => {
                respond(&protocol::ok_response(
                    req.id,
                    obj().field("draining", true).build(),
                ));
                daemon.draining.store(true, Ordering::SeqCst);
            }
            Op::Fmt { source } => {
                let r = {
                    let mut db = daemon
                        .frontend
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    db.fmt(&source)
                };
                let payload = match r {
                    Ok(formatted) => Ok(obj().field("formatted", formatted).build()),
                    Err(e) => Err(FailureClass::BadRequest.fail(e.to_string())),
                };
                respond(&to_response(req.id, &payload));
            }
            // Session operations run here, on the connection's thread,
            // each under its own session's lock. The guard turns a panic
            // into a typed `session` error for this one request: the
            // session it happened in is poisoned, the connection and
            // every other session carry on.
            Op::SessionOpen { name, spec } => {
                let r = if draining {
                    Err(FailureClass::ShuttingDown.fail("daemon is draining; no new sessions"))
                } else {
                    isolated(FailureClass::Session, || daemon.sessions.open(&name, spec))
                };
                respond(&to_response(req.id, &r));
            }
            Op::SessionEdit { name, line } => {
                let r = isolated(FailureClass::Session, || daemon.sessions.edit(&name, &line));
                respond(&to_response(req.id, &r));
            }
            Op::SessionStream {
                name,
                topology,
                load_bound,
                events,
            } => {
                let r = isolated(FailureClass::Session, || {
                    daemon
                        .sessions
                        .stream(&name, topology.as_deref(), load_bound, &events, draining)
                });
                respond(&to_response(req.id, &r));
            }
            Op::SessionSnapshot { name } => {
                let r = isolated(FailureClass::Session, || daemon.sessions.snapshot(&name));
                respond(&to_response(req.id, &r));
            }
            Op::SessionClose { name } => {
                let r = isolated(FailureClass::Session, || daemon.sessions.close(&name));
                respond(&to_response(req.id, &r));
            }
            Op::Map(spec) => {
                dispatch_compute(daemon, conn_id, req.id, "map", spec, &writer, draining)
            }
            Op::Repair(spec) => {
                dispatch_compute(daemon, conn_id, req.id, "repair", spec, &writer, draining)
            }
            Op::Metrics(spec) => {
                dispatch_compute(daemon, conn_id, req.id, "metrics", spec, &writer, draining)
            }
        }
    }
}

/// Admission → coalescing → scheduling for one compute request. A shed
/// request is answered immediately with its typed error; a coalesced
/// follower registers and returns; the leader enqueues the job whose
/// completion publishes to every waiter.
fn dispatch_compute(
    daemon: &Arc<Daemon>,
    conn_id: u64,
    req_id: u64,
    op_name: &'static str,
    spec: MapSpec,
    writer: &Arc<Mutex<UnixStream>>,
    draining: bool,
) {
    let respond = |response: &Json| {
        if let Ok(mut w) = writer.lock() {
            let _ = wire::write_message(&mut *w, response);
        }
    };
    if let Err(shed) = daemon
        .gate
        .admit(daemon.sched.depth(), spec.deadline_ms, draining)
    {
        respond(&protocol::err_response(req_id, shed.kind(), &shed.message()));
        return;
    }
    let key = spec.coalesce_key(op_name);
    let leader = daemon.coalescer.join(
        &key,
        Waiter {
            id: req_id,
            writer: Arc::clone(writer),
        },
    );
    if !leader {
        return; // the in-flight computation's fan-out will answer
    }
    let d = Arc::clone(daemon);
    daemon.sched.enqueue(Job {
        conn: conn_id,
        exec: Box::new(move || {
            let t0 = Instant::now();
            // second line of defence behind the scheduler's catch: if
            // execute itself panics, every waiter still gets an answer
            let payload = isolated(FailureClass::Internal, || d.execute(op_name, &spec));
            d.gate.observe_service(t0.elapsed());
            d.coalescer.publish(&key, &payload);
        }),
    });
}

/// Runs one request's work with panics contained: a panic becomes a
/// typed error of `class` for that request instead of unwinding the
/// thread that serves it.
fn isolated(class: FailureClass, work: impl FnOnce() -> Payload) -> Payload {
    catch_unwind(AssertUnwindSafe(work))
        .unwrap_or_else(|_| Err(class.fail("request panicked; worker isolated it")))
}

fn to_response(id: u64, payload: &Payload) -> Json {
    match payload {
        Ok(result) => protocol::ok_response(id, result.clone()),
        Err((kind, msg)) => protocol::err_response(id, kind, msg),
    }
}

fn bad_request(msg: String) -> Failure {
    FailureClass::BadRequest.fail(msg)
}

impl Daemon {
    /// A toolchain instance for one request: the spec's own lowering and
    /// options, plus what is the daemon's — shared route-table cache,
    /// shared front end, shared supervisor breaker state, per-request (or
    /// daemon-wide) chaos injection. Machine specs (`mesh-boards:...`)
    /// also yield the lowered domain map for blast-radius-aware repair.
    fn system_for(&self, spec: &MapSpec) -> Result<(Oregami, Option<Arc<oregami::DomainMap>>), Failure> {
        let (system, domains) = spec.toolchain().map_err(bad_request)?;
        let mut sup = SupervisorConfig::default().with_state(Arc::clone(&self.supervisor));
        // parsed per request: every request replays the spec's storm from
        // its start (a `ChaosConfig` clone would share one event counter)
        if let Some(c) = spec.chaos.as_ref().or(self.chaos.as_ref()) {
            sup = sup.with_chaos(ChaosConfig::parse(c).map_err(bad_request)?);
        }
        let system = system
            .with_cache(Arc::clone(&self.cache))
            .with_frontend(Arc::clone(&self.frontend))
            .with_supervisor(sup);
        Ok((system, domains))
    }

    /// Compiles `spec`'s source through the shared incremental front end
    /// (a repeat of `(source, params)` is a pure cache hit; a lightly
    /// edited source re-expands only the rules that changed) and maps it
    /// under the request's budget.
    fn map_budgeted(&self, system: &Oregami, spec: &MapSpec) -> Result<OregamiResult, Failure> {
        let chain = spec.chain().map_err(bad_request)?;
        system
            .map_source_with_budget(&spec.source, &spec.param_refs(), &chain, &spec.budget())
            .map_err(|e| FailureClass::wire(&e))
    }

    /// Runs one compute operation to its result object (worker thread).
    fn execute(&self, op_name: &str, spec: &MapSpec) -> Payload {
        let (system, domains) = self.system_for(spec)?;
        let result = self.map_budgeted(&system, spec)?;
        match op_name {
            "map" => {
                let mut out = map_json(spec, &system, &result);
                if let (Some(_), Json::Obj(fields)) = (&domains, &mut out) {
                    // a machine mapping must fit the routing hardware:
                    // over budget is a typed `repair` error (it cannot be
                    // loaded); the result is kept for `health`
                    let c = compress_machine_routes(&system, &result, self.route_budget)
                        .map_err(|e| FailureClass::Repair.fail(e.to_string()))?;
                    fields.push((
                        "route_compression".to_string(),
                        compression_json(&c, self.route_budget),
                    ));
                    *self
                        .compression
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(c);
                }
                Ok(out)
            }
            "metrics" => {
                // a borrowed engine over the result: nothing is cloned
                // just to read the figures back
                let table = self
                    .cache
                    .get_or_build(system.network())
                    .map_err(|e| FailureClass::wire(&OregamiError::Map(e.into())))?;
                let engine = MetricsEngine::try_new_with_table(
                    &result.task_graph,
                    system.network(),
                    &result.report.mapping,
                    &CostModel::default(),
                    table,
                )
                .map_err(|e| FailureClass::wire(&OregamiError::Map(e.into())))?;
                Ok(obj()
                    .field("program", spec.label.as_str())
                    .field("topology", spec.topology.as_str())
                    .field("metrics", metric_json(&engine.snapshot()))
                    .field(
                        "report",
                        oregami::metrics::report_from_engine(&engine).render(),
                    )
                    .build())
            }
            "repair" => {
                let rec = system
                    .repair(&result, &spec.fault_set(), &spec.repair_options(domains.as_ref()))
                    .map_err(|e| FailureClass::wire(&e))?;
                let mut out = obj()
                    .field("program", spec.label.as_str())
                    .field("topology", spec.topology.as_str())
                    .field("failed_procs", rec.degraded.failed_procs().len())
                    .field("failed_links", rec.degraded.failed_links().len())
                    .field("escalated", rec.repair.escalated)
                    .field("repair", rec.repair.to_string());
                if domains.is_some() {
                    out = out
                        .field(
                            "migrations_intra_domain",
                            rec.repair.migrations_intra_domain,
                        )
                        .field(
                            "migrations_cross_domain",
                            rec.repair.migrations_cross_domain,
                        );
                }
                Ok(out.field("metrics", rec.metrics.render()).build())
            }
            other => Err(FailureClass::Internal.fail(format!("unknown compute op '{other}'"))),
        }
    }

    /// The daemon-level service verdict plus every counter a client (or
    /// the storm bench) wants in one read.
    fn health_json(&self) -> Json {
        let mut breakers = obj();
        for kind in StageKind::ALL {
            let v = self.supervisor.breaker(kind);
            breakers = breakers.field(
                kind.name(),
                obj()
                    .field("state", v.state.to_string())
                    .field("consecutive_failures", u64::from(v.consecutive_failures))
                    .field("trips", v.trips)
                    .field("probes", v.probes)
                    .build(),
            );
        }
        let draining = self.draining.load(Ordering::SeqCst);
        // the same test admission sheds `unserviceable` on
        let service = if self.gate.all_breakers_open() {
            "unserviceable"
        } else if draining || self.supervisor.any_tripped() {
            "degraded"
        } else {
            "healthy"
        };
        let stats = self.cache.stats();
        let mut out = obj()
            .field("service", service)
            .field("draining", draining)
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("requests", self.requests.load(Ordering::Relaxed))
            .field("admitted", self.gate.admitted.load(Ordering::Relaxed))
            .field(
                "shed",
                obj()
                    .field(
                        "overloaded",
                        self.gate.shed_overloaded.load(Ordering::Relaxed),
                    )
                    .field(
                        "unserviceable",
                        self.gate.shed_unserviceable.load(Ordering::Relaxed),
                    )
                    .field("draining", self.gate.shed_draining.load(Ordering::Relaxed))
                    .build(),
            )
            .field("coalesced", self.coalescer.coalesced.load(Ordering::Relaxed))
            .field("inflight_keys", self.coalescer.distinct_inflight())
            .field("queue_depth", self.sched.depth())
            .field("completed", self.sched.completed.load(Ordering::Relaxed))
            .field("panicked", self.sched.panicked.load(Ordering::Relaxed))
            .field("ewma_service_micros", self.gate.ewma_micros())
            .field("sessions", self.sessions.count())
            .field("resumed_sessions", self.resumed_sessions)
            .field("resume_failures", self.resume_failures)
            .field("journal_truncations", self.sessions.truncations())
            .field(
                "route_cache",
                obj()
                    .field("hits", stats.hits)
                    .field("misses", stats.misses)
                    .field("evictions", stats.evictions)
                    .build(),
            );
        if let Some(m) = &self.machine {
            let alive: Vec<Json> = m
                .health
                .alive_per_domain
                .iter()
                .map(|&c| Json::from(u64::from(c)))
                .collect();
            out = out.field(
                "machine",
                obj()
                    .field("spec", m.spec.as_str())
                    .field("procs", m.num_procs)
                    .field("dead_procs", m.health.dead_procs.len())
                    .field("dead_links", m.health.dead_links.len())
                    .field("domains_total", m.health.domains_total)
                    .field("domains_degraded", m.health.domains_degraded)
                    .field("boot_seed", m.health.seed)
                    .field("alive_per_domain", Json::Arr(alive))
                    .build(),
            );
        }
        let compression = self
            .compression
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let rc = match compression {
            Some(c) => compression_json(&c, self.route_budget),
            None => obj().field("budget", self.route_budget).build(),
        };
        out.field("route_compression", rc)
            .field("breakers", breakers.build())
            .build()
    }
}

/// The route-compression result object shared by `map` responses and
/// `health`.
fn compression_json(c: &oregami::RouteCompression, budget: usize) -> Json {
    obj()
        .field("budget", budget)
        .field("raw_entries", c.raw_entries)
        .field("compressed_entries", c.compressed_entries)
        .field("max_entries_per_proc", c.max_entries_per_proc)
        .field("hottest_proc", u64::from(c.hottest_proc.0))
        .field("headroom", c.headroom())
        .field("savings_millis", u64::from(c.savings_millis()))
        .build()
}

/// The `map` result object: what was mapped, how, and what METRICS
/// thought of it.
fn map_json(spec: &MapSpec, system: &Oregami, result: &OregamiResult) -> Json {
    let mut out = obj()
        .field("program", spec.label.as_str())
        .field("topology", spec.topology.as_str())
        .field("tasks", result.task_graph.num_tasks())
        .field("procs", system.network().num_procs())
        .field("strategy", format!("{:?}", result.report.strategy))
        .field("degraded", result.is_degraded())
        .field("assignment", assignment_json(&result.report.mapping));
    if let Some(engine) = &result.engine {
        out = out.field(
            "engine",
            obj()
                .field("served_by", engine.served_by.to_string())
                .field("completion", engine.completion.to_string())
                .field("health", engine.health.to_string())
                .build(),
        );
    }
    out.field("report", result.metrics.render()).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A handler that panics must cost its client an end-of-file, not a
    /// hang: the registry's clone of the socket goes with the handler, so
    /// nothing keeps the connection open once the thread has unwound.
    #[test]
    fn a_panicking_handler_closes_its_connection() {
        let conns = Conns::default();
        let (served, mut client) = UnixStream::pair().expect("socket pair");
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("set timeout");
        let handle = spawn_conn(&conns, 7, served, |_stream| {
            panic!("handler dies mid-request");
        })
        .expect("spawn handler");
        let mut buf = [0u8; 1];
        let read = client.read(&mut buf).expect("end-of-file, not a timeout");
        assert_eq!(read, 0, "the client must see the connection close");
        assert!(handle.join().is_err(), "the handler did panic");
        assert!(conns.lock().unwrap().is_empty(), "its entry is gone");
    }

    /// A handler that returns leaves nothing behind either, and while it
    /// runs the registry can shut its socket down (what drain does).
    #[test]
    fn a_connection_is_listed_only_while_its_handler_runs() {
        let conns = Conns::default();
        let (served, _client) = UnixStream::pair().expect("socket pair");
        let handle = spawn_conn(&conns, 1, served, |mut stream| {
            // blocks until the registry's clone is shut down
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf);
        })
        .expect("spawn handler");
        let listed = conns
            .lock()
            .unwrap()
            .get(&1)
            .map(|s| s.try_clone().unwrap());
        listed
            .expect("listed while the handler runs")
            .shutdown(std::net::Shutdown::Both)
            .expect("shutdown");
        handle.join().expect("handler returns");
        assert!(conns.lock().unwrap().is_empty());
    }
}
