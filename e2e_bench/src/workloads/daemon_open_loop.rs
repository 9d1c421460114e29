//! `daemon_open_loop`: the warm service path. An in-process `oregamid`
//! takes requests at a fixed rate, in bursts of four, from one generator
//! thread over two pipelined connections; every reply is checked against
//! the direct in-process call. The loop is open: a request is sent when it
//! is due, whatever became of the ones before it, and its latency runs from
//! the due time, so a stall is charged to every request it delays.

use super::Workload;
use crate::harness::stats::{median, percentile};
use crate::harness::trace::Tracer;
use crate::harness::{cpu_seconds, Checked, Digest, Layers, Rng, Timed};
use crate::{DAEMON_WORKERS, GENERATOR_CONNECTIONS};
use oregami::larcs::programs::all_programs;
use oregami::mapper::{map_task_graph_budgeted_with_table, run_engine_with, EngineConfig};
use oregami::{Budget, FallbackChain, MapperOptions, Oregami, RouteTableCache, SupervisorConfig};
use oregami_daemon::json::{self, obj, Json};
use oregami_daemon::server::ServerHandle;
use oregami_daemon::{wire, Server, ServerConfig};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests per second of the loaded leg, fixed after a one-off
/// calibration on the 2-core reference box: the daemon levelled off near
/// 2200/s, and 800/s was the highest rate whose median latency stayed put
/// through the box's noisy-neighbour periods (see README, "Calibration").
/// The unloaded leg runs at a third of it.
const RATE_PER_S: f64 = 800.0;
/// Requests that fall due at the same instant, two per connection. Sent
/// one by one, each request wakes an idle daemon, and what waking an idle
/// vCPU costs is the noisiest thing on the reference box: in alternating
/// runs the median latency then spread over 0.16 of itself, against 0.09
/// in bursts of four (where half of it is time spent behind burst-mates).
const BURST: usize = 4;
/// A reply later than this after its due time misses the limit.
const LIMIT_MS: f64 = 25.0;
const TOPOLOGIES: [&str; 5] = [
    "hypercube:3",
    "hypercube:4",
    "mesh2d:4x4",
    "torus2d:4x4",
    "ring:8",
];

/// What the direct in-process call says the reply must contain.
enum Expect {
    Map {
        assignment: Vec<u64>,
        report: String,
    },
    Metrics {
        report: String,
    },
    Fmt {
        formatted: String,
    },
    Health,
}

struct Request {
    body: Json,
    expect: Expect,
    /// Digest of the request and the reply it must get.
    fingerprint: u64,
}

impl Request {
    fn new(body: Json, expect: Expect) -> Request {
        let mut d = Digest::default();
        d.bytes(body.render().as_bytes());
        match &expect {
            Expect::Map { assignment, report } => {
                assignment.iter().for_each(|&p| d.u64(p));
                d.bytes(report.as_bytes());
            }
            Expect::Metrics { report } => d.bytes(report.as_bytes()),
            Expect::Fmt { formatted } => d.bytes(formatted.as_bytes()),
            Expect::Health => {}
        }
        Request {
            body,
            expect,
            fingerprint: d.finish(),
        }
    }
}

/// One compiled corpus instance, kept for the direct-call legs.
struct Direct {
    system: usize,
    source: String,
    params: Vec<(&'static str, i64)>,
}

pub struct DaemonOpenLoop {
    server: Option<ServerHandle>,
    connections: Vec<UnixStream>,
    state_dir: std::path::PathBuf,
    /// Requests by kind: map, metrics, fmt, health.
    requests: [Vec<Request>; 4],
    systems: Vec<Oregami>,
    direct: Vec<Direct>,
    mapping_cost: u64,
    seed: u64,
    next_id: u64,
    traced: Traced,
}

#[derive(Default)]
struct Traced {
    low_ms: Vec<f64>,
    high_ms: Vec<f64>,
    late_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// What one reader thread saw of one reply.
struct Reply {
    id: u64,
    at: Instant,
    decode: Duration,
    problem: Option<String>,
}

struct Leg {
    /// Latency from due time, per request, `None` when no good reply came.
    latency_ms: Vec<Option<f64>>,
    late_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    /// Seconds from the first due time to the last reply.
    span_s: f64,
}

fn check(reply: &Json, expect: &Expect) -> Option<String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Some(format!("daemon answered {}", reply.render()));
    }
    let result = reply.get("result")?;
    let text = |key: &str| result.get(key).and_then(Json::as_str);
    let same = match expect {
        Expect::Map { assignment, report } => {
            let got: Option<Vec<u64>> = result
                .get("assignment")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect());
            got.as_ref() == Some(assignment) && text("report") == Some(report)
        }
        Expect::Metrics { report } => text("report") == Some(report),
        Expect::Fmt { formatted } => text("formatted") == Some(formatted),
        Expect::Health => text("service") == Some("healthy"),
    };
    (!same).then(|| "reply differs from the direct in-process call".to_string())
}

/// The next request of a leg: 60 % map, 25 % metrics, 10 % fmt, 5 %
/// health, each over a uniformly drawn instance.
fn pick<'a>(requests: &'a [Vec<Request>; 4], rng: &mut Rng) -> &'a Request {
    let kind = match rng.below(100) {
        0..60 => 0,
        60..85 => 1,
        85..95 => 2,
        _ => 3,
    };
    let pool = &requests[kind];
    &pool[rng.below(pool.len())]
}

impl DaemonOpenLoop {
    /// Sends `count` requests at `rate` per second and collects the
    /// replies. The calling thread is the generator; one reader thread
    /// per connection timestamps, decodes and checks the replies.
    fn leg(&mut self, rate: f64, count: usize, leg_seed: u64) -> Result<Leg, String> {
        let mut rng = Rng::new(leg_seed);
        let plan: Vec<&Request> = (0..count).map(|_| pick(&self.requests, &mut rng)).collect();
        let base_id = self.next_id;
        self.next_id += count as u64;
        let conns = self.connections.len();
        let mut writers: Vec<UnixStream> = Vec::new();
        for c in &self.connections {
            c.set_read_timeout(Some(Duration::from_secs(20)))
                .map_err(|e| e.to_string())?;
            writers.push(c.try_clone().map_err(|e| e.to_string())?);
        }
        let replies: Mutex<Vec<Reply>> = Mutex::new(Vec::with_capacity(count));
        let start = Instant::now() + Duration::from_millis(5);
        let due = |i: usize| start + Duration::from_secs_f64((i - i % BURST) as f64 / rate);
        let (mut late_ms, mut encode_us) = (Vec::with_capacity(count), Vec::with_capacity(count));

        std::thread::scope(|scope| -> Result<(), String> {
            for (c, conn) in self.connections.iter().enumerate() {
                let expected = (count + conns - 1 - c) / conns;
                let (plan, replies) = (&plan, &replies);
                scope.spawn(move || {
                    let mut conn = conn;
                    let mut mine = Vec::with_capacity(expected);
                    for _ in 0..expected {
                        let Ok(frame) = wire::read_frame(&mut conn) else {
                            break;
                        };
                        let at = Instant::now();
                        let parsed = std::str::from_utf8(&frame)
                            .ok()
                            .and_then(|t| json::parse(t).ok());
                        let decode = at.elapsed();
                        let Some(reply) = parsed else { continue };
                        let Some(id) = reply.get("id").and_then(Json::as_u64) else {
                            continue;
                        };
                        let problem = match plan.get((id - base_id) as usize) {
                            Some(req) => check(&reply, &req.expect),
                            None => Some(format!("reply to unknown request {id}")),
                        };
                        mine.push(Reply {
                            id,
                            at,
                            decode,
                            problem,
                        });
                    }
                    replies.lock().expect("reader lock").extend(mine);
                });
            }
            for (i, req) in plan.iter().enumerate() {
                // Sleep, never spin: on two cores a spinning generator
                // takes time from the daemon it measures. What the sleep
                // overshoots is reported as generator lateness.
                let due = due(i);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t0 = Instant::now();
                let mut stamped = vec![("id".to_string(), Json::from(base_id + i as u64))];
                if let Json::Obj(fields) = &req.body {
                    stamped.extend(fields.iter().cloned());
                }
                let payload = Json::Obj(stamped).render();
                encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
                late_ms.push(t0.duration_since(due).as_secs_f64() * 1e3);
                wire::write_frame(&mut writers[i % conns], payload.as_bytes())
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;

        let mut replies = replies.into_inner().expect("reader lock");
        replies.sort_by_key(|r| r.id);
        let mut latency_ms = vec![None; count];
        let mut last = start;
        for r in &replies {
            let i = (r.id - base_id) as usize;
            last = last.max(r.at);
            match &r.problem {
                None => latency_ms[i] = Some(r.at.duration_since(due(i)).as_secs_f64() * 1e3),
                Some(p) => eprintln!("request {i}: {p}"),
            }
        }
        Ok(Leg {
            latency_ms,
            late_ms,
            encode_us,
            decode_us: replies
                .iter()
                .map(|r| r.decode.as_secs_f64() * 1e6)
                .collect(),
            span_s: last.duration_since(start).as_secs_f64(),
        })
    }

    fn health(&mut self) -> Option<Json> {
        let conn = &mut self.connections[0];
        self.next_id += 1;
        wire::write_message(
            conn,
            &obj()
                .field("id", self.next_id)
                .field("op", "health")
                .build(),
        )
        .ok()?;
        wire::read_message(conn).ok()?.get("result").cloned()
    }
}

impl Workload for DaemonOpenLoop {
    fn setup(seed: u64, smoke: bool) -> DaemonOpenLoop {
        let dir = crate::scratch_dir();
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
        let socket = dir.join(format!("d{}.sock", std::process::id()));
        let state_dir = dir.join(format!("d{}.state", std::process::id()));
        let mut config = ServerConfig::new(&socket, &state_dir);
        config.workers = DAEMON_WORKERS;
        // A hypervisor stall of 100 ms releases a burst of due requests;
        // with the default queue of 64 the daemon would shed them and the
        // run would fail on the box's noise. They are queued instead, and
        // count as late.
        config.max_queue = 4096;
        let server = Server::start(config).expect("start the in-process daemon");

        // The direct calls: the daemon's own recipe (shared cache and
        // front end, supervised default chain) without the daemon.
        let topologies = if smoke {
            &TOPOLOGIES[..2]
        } else {
            &TOPOLOGIES[..]
        };
        let cache = Arc::new(RouteTableCache::new(32));
        let frontend = Arc::new(Mutex::new(oregami::larcs::Db::new()));
        let systems: Vec<Oregami> = topologies
            .iter()
            .map(|t| {
                let (net, _) = oregami_daemon::topo::parse_target(t).expect("topology spec");
                Oregami::new(net)
                    .with_cache(Arc::clone(&cache))
                    .with_frontend(Arc::clone(&frontend))
                    .with_supervisor(SupervisorConfig::default())
            })
            .collect();
        let mut requests: [Vec<Request>; 4] = Default::default();
        let mut direct = Vec::new();
        let mut mapping_cost = 0u64;
        for (name, source, sample) in all_programs() {
            // four variants: the sample parameters with the last one
            // bumped, so the requests are distinct computations
            for bump in 0..if sample.is_empty() { 1 } else { 4 } {
                let mut params = sample.clone();
                if let Some(last) = params.last_mut() {
                    last.1 += bump;
                }
                let mut wire_params = obj();
                for (k, v) in &params {
                    wire_params = wire_params.field(k, *v);
                }
                let wire_params = wire_params.build();
                for (system, topology) in topologies.iter().enumerate() {
                    let sys = &systems[system];
                    let result = sys
                        .map_source_with_budget(
                            &source,
                            &params,
                            &FallbackChain::default(),
                            &Budget::unlimited(),
                        )
                        .unwrap_or_else(|e| panic!("{name} {params:?} on {topology}: {e}"));
                    let session = sys.interactive(&result).expect("metrics session opens");
                    mapping_cost += result.metrics.overall.completion_time.unwrap_or(0);
                    let body = |op: &str| {
                        obj()
                            .field("op", op)
                            .field("program", name)
                            .field("topology", *topology)
                            .field("params", wire_params.clone())
                            .build()
                    };
                    requests[0].push(Request::new(
                        body("map"),
                        Expect::Map {
                            assignment: result
                                .report
                                .mapping
                                .assignment
                                .iter()
                                .map(|p| u64::from(p.0))
                                .collect(),
                            report: result.metrics.render(),
                        },
                    ));
                    requests[1].push(Request::new(
                        body("metrics"),
                        Expect::Metrics {
                            report: session.report().render(),
                        },
                    ));
                    direct.push(Direct {
                        system,
                        source: source.clone(),
                        params: params.clone(),
                    });
                }
            }
            requests[2].push(Request::new(
                obj().field("op", "fmt").field("program", name).build(),
                Expect::Fmt {
                    formatted: oregami::larcs::fmt(&source).expect("builtin programs format"),
                },
            ));
        }
        requests[3].push(Request::new(
            obj().field("op", "health").build(),
            Expect::Health,
        ));

        let connections = (0..GENERATOR_CONNECTIONS)
            .map(|_| UnixStream::connect(&server.socket).expect("connect to the in-process daemon"))
            .collect();
        let mut w = DaemonOpenLoop {
            server: Some(server),
            connections,
            state_dir,
            requests,
            systems,
            direct,
            mapping_cost,
            seed,
            next_id: 0,
            traced: Traced::default(),
        };
        // warm-up: a short unloaded leg fills the daemon's Db and route
        // cache, as a long-running service's would be
        let warm = if smoke { 50 } else { 400 };
        w.leg(RATE_PER_S, warm, seed ^ 0x77).expect("warm-up leg");
        w
    }

    /// A leg at a third of the rate for a quarter of the time (unloaded
    /// latency), then the loaded leg for the rest.
    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Timed {
        let cpu0 = cpu_seconds();
        let (low_rate, high_rate) = (RATE_PER_S / 3.0, RATE_PER_S);
        let low_n = ((seconds * 0.25 * low_rate) as usize).max(10);
        let high_n = ((seconds * 0.75 * high_rate) as usize).max(10);
        let span = tr.begin("daemon.legs");
        let legs = self
            .leg(low_rate, low_n, self.seed)
            .and_then(|low| Ok((low, self.leg(high_rate, high_n, self.seed ^ 0x5eed)?)));
        tr.end(span);
        let cpu = cpu_seconds();
        let (low, high) = match legs {
            Ok(l) => l,
            Err(e) => {
                eprintln!("open loop broke: {e}");
                return Timed {
                    op_ms: Vec::new(),
                    attempted: (low_n + high_n) as u64,
                    failed: (low_n + high_n) as u64,
                    within_limit: 0,
                    timed_s: seconds,
                    cpu_s: 0.0,
                    checked: None,
                    first_op_ms: f64::NAN,
                };
            }
        };
        let all = || low.latency_ms.iter().chain(&high.latency_ms);
        let good: Vec<f64> = all().flatten().copied().collect();
        if tr.enabled() {
            let t = &mut self.traced;
            t.low_ms.extend(low.latency_ms.iter().flatten());
            t.high_ms.extend(high.latency_ms.iter().flatten());
            t.late_ms.extend(low.late_ms.iter().chain(&high.late_ms));
            t.encode_us
                .extend(low.encode_us.iter().chain(&high.encode_us));
            t.decode_us
                .extend(low.decode_us.iter().chain(&high.decode_us));
        }
        // Every reply was compared with the direct call, so with no
        // failure the outputs are the catalogue's expected replies.
        let mut digest = Digest::default();
        for r in self.requests.iter().flatten() {
            digest.u64(r.fingerprint);
        }
        Timed {
            attempted: (low_n + high_n) as u64,
            failed: all().filter(|l| l.is_none()).count() as u64,
            within_limit: good.iter().filter(|&&ms| ms <= LIMIT_MS).count() as u64,
            timed_s: high.span_s,
            cpu_s: (cpu.0 + cpu.1) - (cpu0.0 + cpu0.1),
            checked: Some(Checked {
                digest: digest.finish(),
                mapping_cost: self.mapping_cost,
            }),
            first_op_ms: good.first().copied().unwrap_or(f64::NAN),
            // the loaded leg's latencies are the op times
            op_ms: high.latency_ms.iter().flatten().copied().collect(),
        }
    }

    fn layers(&mut self, tr: &mut Tracer, _traced: &Timed, out: &mut Layers) {
        let t = &self.traced;
        let low_p50 = median(&t.low_ms);
        out.set("daemon.encode_us_p50", median(&t.encode_us));
        out.set("daemon.decode_us_p50", median(&t.decode_us));
        out.set("daemon.lat_ms_p50_low", low_p50);
        out.set("daemon.lat_ms_p99", percentile(&t.high_ms, 99.0));
        out.set("daemon.queue_ms_p50", median(&t.high_ms) - low_p50);
        out.set("daemon.gen_late_ms_p99", percentile(&t.late_ms, 99.0));

        // The same corpus without the daemon, warm: the direct call the
        // replies were checked against, its compile alone, and the engine
        // chain against the bare mapper call.
        let (mut direct_ms, mut compile_ms, mut engine_ms, mut bare_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for d in &self.direct {
            let sys = &self.systems[d.system];
            let (r, direct) = tr.time("daemon.direct_call", || {
                sys.map_source_with_budget(
                    &d.source,
                    &d.params,
                    &FallbackChain::default(),
                    &Budget::unlimited(),
                )
            });
            let Ok(r) = r else { continue };
            let (_, compile) = tr.time("larcs.compile_warm_ms", || {
                sys.compile_source(&d.source, &d.params)
            });
            let net = sys.network();
            let cache = Arc::new(RouteTableCache::new(4));
            let table = cache.get_or_build(net).expect("connected");
            let opts = MapperOptions::default();
            let (_, engine) = tr.time("engine.run_ms", || {
                run_engine_with(
                    &r.task_graph,
                    net,
                    &opts,
                    &FallbackChain::default(),
                    &Budget::unlimited(),
                    &EngineConfig::with_cache(Arc::clone(&cache)),
                )
            });
            let (_, bare) = tr.time("mapper.map_ms", || {
                map_task_graph_budgeted_with_table(
                    &r.task_graph,
                    net,
                    &opts,
                    &Budget::unlimited(),
                    &table,
                )
            });
            direct_ms.push(ms(direct));
            compile_ms.push(ms(compile));
            engine_ms.push(ms(engine));
            bare_ms.push(ms(bare));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.set("larcs.compile_warm_ms", mean(&compile_ms));
        out.set("engine.run_ms", mean(&engine_ms));
        out.set("mapper.map_ms", mean(&bare_ms));
        out.set("engine.overhead_ms", mean(&engine_ms) - mean(&bare_ms));
        out.set("daemon.overhead_ms_p50", low_p50 - median(&direct_ms));

        if let Some(h) = self.health() {
            let num = |path: &[&str]| {
                path.iter()
                    .try_fold(&h, |v, k| v.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            out.set("daemon.coalesced", num(&["coalesced"]));
            out.set("daemon.shed", num(&["shed", "overloaded"]));
            out.set("daemon.ewma_service_us", num(&["ewma_service_micros"]));
            let (hits, misses) = (
                num(&["route_cache", "hits"]),
                num(&["route_cache", "misses"]),
            );
            out.set(
                "daemon.route_cache_hit_share",
                hits / (hits + misses).max(1.0),
            );
        }
    }
}

impl Drop for DaemonOpenLoop {
    /// Drains the daemon and joins its threads; the socket is unlinked by
    /// the drain, the (empty) state directory here.
    fn drop(&mut self) {
        self.connections.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}
