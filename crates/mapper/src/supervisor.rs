//! The stage supervisor: watchdogs, bounded retry, circuit breakers,
//! and seeded chaos injection for the fallback-chain engine.
//!
//! The engine's budgets (PR 2) are *cooperative*: a stage that calls
//! [`Budget::tick`] stops at its deadline, but a stage that never
//! charges — a stuck loop, a blocking call, an injected stall — holds
//! `run_engine_with` hostage forever. The supervisor closes that hole
//! by running every stage on its own watched worker thread:
//!
//! * a **watchdog** fires the stage's kill token when the budget's
//!   deadline passes, then waits one [`SupervisorConfig::grace`] window
//!   for the stage to come back; a stage that still hasn't responded is
//!   **detached** (its thread is abandoned, its partial step usage
//!   charged back) and recorded as [`StageStatus::Hung`] — the chain
//!   moves on and still serves the best remaining candidate;
//! * a panic is a transient failure and is **retried** under a bounded
//!   exponential backoff ([`RetryPolicy`]) while deadline time remains;
//!   a typed [`MapError`] is a function of the request (an infeasible
//!   load bound fails the same way every time), so it ends the stage's
//!   attempts at once;
//! * a per-stage **circuit breaker** ([`BreakerConfig`]) trips `Closed →
//!   Open` after K consecutive panics/hangs, skips the stage
//!   ([`StageStatus::CircuitOpen`]) while open, and re-probes one
//!   attempt in `HalfOpen` once the cooldown elapses. Breaker state
//!   lives in a shared [`SupervisorState`] that persists across
//!   `run_engine_with` calls (e.g. inside `core::Oregami`), so a stage that
//!   keeps blowing up stops being scheduled at all.
//!
//! [`ServiceHealth`] condenses an engine run plus the breaker states
//! into the verdict a service front-end needs: `Healthy`, `Degraded`
//! (served, but something was cut short, hung, panicked, or a breaker
//! is tripped), or `Unserviceable` (nothing could be served — surfaced
//! as [`MapError::Unserviceable`](crate::pipeline::MapError) and CLI
//! exit code 7).
//!
//! [`ChaosConfig`] is the seeded fault injector behind the chaos
//! tests (`tests/prop_supervisor.rs`, the daemon's storms): per stage
//! attempt it may inject a panic or a non-cooperative stall, driven by
//! a deterministic counter-keyed stream, so every storm reproduces from
//! its seed.

use crate::budget::{Budget, CancelToken, Completion};
use crate::engine::{run_stage, RawOutcome, RawStage, StageKind, StageStatus};
use crate::pipeline::{MapError, MapperOptions};
use oregami_graph::TaskGraph;
use oregami_topology::{Network, RouteTableCache};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Bounded retry with exponential backoff for transient stage failures
/// (panics). Hangs are never retried — by the time a stage is declared
/// hung the deadline is already spent — and neither are typed errors,
/// which the same inputs would only reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (1-based).
    fn backoff_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        (self.backoff * factor).min(self.backoff_cap)
    }
}

/// Circuit-breaker tuning: how many consecutive panics/hangs open the
/// circuit, and how long it stays open before a half-open probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive panics/hangs (across engine runs) that trip the
    /// breaker from `Closed` to `Open`.
    pub failure_threshold: u32,
    /// How long an open breaker skips its stage before allowing one
    /// half-open probe. `Duration::ZERO` probes on the very next run.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// The circuit-breaker state machine (per stage kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Failures below threshold: the stage runs normally.
    Closed,
    /// Threshold reached: the stage is skipped until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: exactly one probe attempt is admitted; success
    /// closes the breaker, failure re-opens it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => f.write_str("closed"),
            BreakerState::Open => f.write_str("open"),
            BreakerState::HalfOpen => f.write_str("half-open"),
        }
    }
}

/// A point-in-time view of one stage's breaker, for reports and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerView {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive panics/hangs recorded since the last success.
    pub consecutive_failures: u32,
    /// How many times the breaker has tripped open, ever.
    pub trips: u64,
    /// Half-open probes admitted, ever.
    pub probes: u64,
}

#[derive(Clone, Debug, Default)]
struct BreakerCell {
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    half_open: bool,
    trips: u64,
    probes: u64,
}

impl BreakerCell {
    fn state(&self) -> BreakerState {
        if self.half_open {
            BreakerState::HalfOpen
        } else if self.opened_at.is_some() {
            BreakerState::Open
        } else {
            BreakerState::Closed
        }
    }
}

/// Whether a stage is admitted to run this engine call.
enum Admission {
    /// Run normally (breaker closed).
    Run,
    /// Run exactly one half-open probe attempt (no retries).
    Probe,
    /// Breaker open, cooldown not elapsed: skip the stage.
    Skip,
}

/// Shared, persistent supervisor state: one circuit breaker per stage
/// kind. Clone the [`Arc`] holding it into every [`SupervisorConfig`]
/// whose runs should share failure history (as `core::Oregami` does),
/// so a stage that keeps panicking across calls stops being scheduled.
///
/// Lock-poisoning-safe: a panicking holder never wedges the breakers —
/// the per-stage cells are always internally consistent, so the lock is
/// recovered from a [`std::sync::PoisonError`] instead of propagating
/// the panic.
#[derive(Default)]
pub struct SupervisorState {
    breakers: Mutex<HashMap<StageKind, BreakerCell>>,
}

impl std::fmt::Debug for SupervisorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cells = self.lock();
        let mut dbg = f.debug_struct("SupervisorState");
        for (kind, cell) in cells.iter() {
            dbg.field(kind.name(), &cell.state());
        }
        dbg.finish()
    }
}

impl SupervisorState {
    /// Fresh state: every breaker closed.
    pub fn new() -> SupervisorState {
        SupervisorState::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<StageKind, BreakerCell>> {
        self.breakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admission decision for `stage`, performing the `Open → HalfOpen`
    /// transition when the cooldown has elapsed. While a half-open probe
    /// is in flight (`half_open` set, verdict not yet recorded), further
    /// callers are skipped: exactly one probe tests the water, everyone
    /// else keeps shedding until `record_success`/`record_failure`
    /// settles it. Without that guard, two engine calls racing on a
    /// shared `Arc<SupervisorState>` would both be admitted as probes.
    fn admit(&self, stage: StageKind, cfg: &BreakerConfig) -> Admission {
        let mut cells = self.lock();
        let cell = cells.entry(stage).or_default();
        match cell.opened_at {
            None => Admission::Run,
            Some(at) if at.elapsed() >= cfg.cooldown && !cell.half_open => {
                cell.half_open = true;
                cell.probes += 1;
                Admission::Probe
            }
            Some(_) => Admission::Skip,
        }
    }

    /// Records a successful stage outcome: closes the breaker and
    /// resets the failure streak.
    fn record_success(&self, stage: StageKind) {
        let mut cells = self.lock();
        let cell = cells.entry(stage).or_default();
        cell.consecutive_failures = 0;
        cell.opened_at = None;
        cell.half_open = false;
    }

    /// Records a panic or hang: bumps the streak and trips the breaker
    /// open at the threshold (a failed half-open probe re-opens it
    /// immediately).
    fn record_failure(&self, stage: StageKind, cfg: &BreakerConfig) {
        let mut cells = self.lock();
        let cell = cells.entry(stage).or_default();
        cell.consecutive_failures = cell.consecutive_failures.saturating_add(1);
        let trip = cell.half_open || cell.consecutive_failures >= cfg.failure_threshold;
        if trip {
            if cell.opened_at.is_none() || cell.half_open {
                cell.trips += 1;
            }
            cell.opened_at = Some(Instant::now());
            cell.half_open = false;
        }
    }

    /// The breaker view for one stage kind.
    pub fn breaker(&self, stage: StageKind) -> BreakerView {
        let cells = self.lock();
        let cell = cells.get(&stage).cloned().unwrap_or_default();
        BreakerView {
            state: cell.state(),
            consecutive_failures: cell.consecutive_failures,
            trips: cell.trips,
            probes: cell.probes,
        }
    }

    /// Whether any stage's breaker is currently open or half-open — a
    /// degraded-service signal even when the last run served cleanly.
    pub fn any_tripped(&self) -> bool {
        self.lock().values().any(|c| c.opened_at.is_some() || c.half_open)
    }

    /// Resets every breaker to closed (counters kept). Operator escape
    /// hatch after the underlying fault is fixed.
    pub fn reset(&self) {
        let mut cells = self.lock();
        for cell in cells.values_mut() {
            cell.consecutive_failures = 0;
            cell.opened_at = None;
            cell.half_open = false;
        }
    }
}

/// What the chaos injector does to one stage attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChaosAction {
    None,
    Panic,
    Stall,
}

/// Seeded fault injection for supervised stage execution: per stage
/// attempt, injects a panic or a *non-cooperative* stall (a sleep that
/// never charges the budget — exactly the failure mode the watchdog
/// exists for). Decisions come from a SplitMix64 stream keyed on the
/// seed and a shared monotone event counter, so a given seed replays
/// the identical storm under sequential supervised execution.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Stream seed; equal seeds replay equal storms.
    pub seed: u64,
    /// Probability (0..=1) a stage attempt panics on entry.
    pub panic_prob: f64,
    /// Probability (0..=1) a stage attempt stalls before running.
    pub stall_prob: f64,
    /// How long a stalled attempt sleeps without polling its budget.
    pub stall: Duration,
    /// When set, chaos only targets this stage kind; other stages run
    /// clean (lets a test hang `exhaustive` while the rest of the chain
    /// serves).
    pub only: Option<StageKind>,
    counter: Arc<AtomicU64>,
}

impl ChaosConfig {
    /// A chaos stream with no faults enabled; dial in probabilities
    /// with the builder methods.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_prob: 0.0,
            stall_prob: 0.0,
            stall: Duration::from_millis(500),
            only: None,
            counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets the per-attempt panic probability.
    pub fn with_panic_prob(mut self, p: f64) -> ChaosConfig {
        self.panic_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-attempt stall probability and stall duration.
    pub fn with_stall(mut self, p: f64, stall: Duration) -> ChaosConfig {
        self.stall_prob = p.clamp(0.0, 1.0);
        self.stall = stall;
        self
    }

    /// Restricts chaos to one stage kind.
    pub fn with_only(mut self, stage: StageKind) -> ChaosConfig {
        self.only = Some(stage);
        self
    }

    /// Parses a CLI spec like `seed=7,panic=0.3,stall=0.2,stall-ms=500,only=exhaustive`.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut chaos = ChaosConfig::new(0);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value in chaos spec, got '{part}'"))?;
            let (key, val) = (key.trim(), val.trim());
            match key {
                "seed" => {
                    chaos.seed = val.parse().map_err(|_| format!("bad chaos seed '{val}'"))?;
                }
                "panic" => {
                    let p: f64 =
                        val.parse().map_err(|_| format!("bad panic probability '{val}'"))?;
                    chaos.panic_prob = p.clamp(0.0, 1.0);
                }
                "stall" => {
                    let p: f64 =
                        val.parse().map_err(|_| format!("bad stall probability '{val}'"))?;
                    chaos.stall_prob = p.clamp(0.0, 1.0);
                }
                "stall-ms" => {
                    let ms: u64 =
                        val.parse().map_err(|_| format!("bad stall-ms '{val}'"))?;
                    chaos.stall = Duration::from_millis(ms);
                }
                "only" => {
                    chaos.only = Some(val.parse()?);
                }
                other => {
                    return Err(format!(
                        "unknown chaos key '{other}' (expected seed, panic, stall, stall-ms, only)"
                    ))
                }
            }
        }
        Ok(chaos)
    }

    /// Draws the action for the next stage attempt.
    fn draw(&self, stage: StageKind) -> ChaosAction {
        let u = self.roll();
        if self.only.is_some_and(|k| k != stage) {
            return ChaosAction::None;
        }
        if u < self.panic_prob {
            ChaosAction::Panic
        } else if u < self.panic_prob + self.stall_prob {
            ChaosAction::Stall
        } else {
            ChaosAction::None
        }
    }

    /// Advances the stream one event: SplitMix64 over seed ^ event index,
    /// deterministic per stream position and independent of wall clock
    /// and thread timing. Returns the draw as a uniform [0,1).
    fn roll(&self) -> f64 {
        let event = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(event + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Runs the drawn action inside the worker thread (so an injected
    /// panic is contained by the stage's `catch_unwind` and an injected
    /// stall blocks without polling — the watchdog's job to catch).
    /// Public so harnesses can replay a stream's decisions.
    pub fn inject(&self, stage: StageKind) {
        match self.draw(stage) {
            ChaosAction::None => {}
            ChaosAction::Panic => panic!("chaos: injected panic in stage {stage}"),
            ChaosAction::Stall => std::thread::sleep(self.stall),
        }
    }
}

/// Supervised-execution configuration. Carries the shared breaker
/// [`SupervisorState`]; clone the config (the state is behind an
/// [`Arc`]) to let successive engine runs share failure history.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// How long past the deadline a stage may run after its kill token
    /// fires before it is detached and recorded [`StageStatus::Hung`].
    pub grace: Duration,
    /// Watchdog cap for budgets *without* a deadline: a stage exceeding
    /// this wall-clock bound is killed/detached the same way. `None`
    /// leaves deadline-less stages unwatched (cooperative behaviour).
    pub stage_timeout: Option<Duration>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Optional seeded fault injection (tests, chaos benches).
    pub chaos: Option<ChaosConfig>,
    /// Shared persistent breaker state.
    pub state: Arc<SupervisorState>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            grace: Duration::from_millis(200),
            stage_timeout: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            chaos: None,
            state: Arc::new(SupervisorState::new()),
        }
    }
}

impl SupervisorConfig {
    /// Sets the post-deadline grace window.
    pub fn with_grace(mut self, grace: Duration) -> SupervisorConfig {
        self.grace = grace;
        self
    }

    /// Sets the deadline-less watchdog cap.
    pub fn with_stage_timeout(mut self, timeout: Duration) -> SupervisorConfig {
        self.stage_timeout = Some(timeout);
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> SupervisorConfig {
        self.retry = retry;
        self
    }

    /// Sets the breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> SupervisorConfig {
        self.breaker = breaker;
        self
    }

    /// Enables chaos injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> SupervisorConfig {
        self.chaos = Some(chaos);
        self
    }

    /// Replaces the shared breaker state (to share history across
    /// configs/instances).
    pub fn with_state(mut self, state: Arc<SupervisorState>) -> SupervisorConfig {
        self.state = state;
        self
    }
}

/// The service-level verdict over an engine run plus breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceHealth {
    /// Served the optimal candidate; no stage failed, hung, or was
    /// breaker-skipped; every breaker closed.
    Healthy,
    /// A mapping was served, but something was cut short, panicked,
    /// hung, was retried, or a breaker is open/half-open.
    Degraded,
    /// No mapping could be served (every stage failed, hung, or was
    /// breaker-skipped) — callers see
    /// [`MapError::Unserviceable`](crate::pipeline::MapError), the CLI
    /// exits 7.
    Unserviceable,
}

impl std::fmt::Display for ServiceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceHealth::Healthy => f.write_str("healthy"),
            ServiceHealth::Degraded => f.write_str("degraded"),
            ServiceHealth::Unserviceable => f.write_str("unserviceable"),
        }
    }
}

/// Derives the health verdict of a *served* run from its per-stage
/// statuses, its worst completion, and (when supervised) the breaker
/// states. The unserviceable case never reaches this function — it is
/// the engine's error path.
pub(crate) fn served_health(
    stages: &[crate::engine::StageReport],
    completion: Completion,
    state: Option<&SupervisorState>,
) -> ServiceHealth {
    let clean = stages.iter().all(|s| {
        matches!(
            s.status,
            StageStatus::Served | StageStatus::Candidate | StageStatus::Skipped
        ) && s.attempts <= 1
    });
    if completion == Completion::Optimal && clean && !state.is_some_and(SupervisorState::any_tripped)
    {
        ServiceHealth::Healthy
    } else {
        ServiceHealth::Degraded
    }
}

/// What one watched attempt produced.
enum AttemptOutcome {
    Done(Result<Result<(crate::pipeline::MapperReport, Completion), MapError>, String>),
    Hung,
}

/// One supervised engine run: the caller's budget and supervisor config,
/// and the run's own copies of the stage inputs. Workers must be
/// detachable ('static), so they share these copies across attempts;
/// they are cloned once per engine run.
struct Supervised<'a> {
    budget: &'a Budget,
    cfg: &'a SupervisorConfig,
    tg: Arc<TaskGraph>,
    net: Arc<Network>,
    opts: Arc<MapperOptions>,
    cache: Arc<RouteTableCache>,
}

/// Runs one stage attempt on its own worker thread under the watchdog.
/// Returns the attempt outcome plus the steps the attempt charged.
fn watched_attempt(kind: StageKind, sup: &Supervised) -> (AttemptOutcome, u64) {
    let (budget, cfg) = (sup.budget, sup.cfg);
    let kill = CancelToken::new();
    let child = Arc::new(budget.child(kill.clone()));
    let (tx, rx) = mpsc::channel();
    let worker = {
        let (tg, net) = (Arc::clone(&sup.tg), Arc::clone(&sup.net));
        let (opts, cache) = (Arc::clone(&sup.opts), Arc::clone(&sup.cache));
        let child = Arc::clone(&child);
        let chaos = cfg.chaos.clone();
        std::thread::Builder::new()
            .name(format!("oregami-stage-{}", kind.name()))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(chaos) = &chaos {
                        chaos.inject(kind);
                    }
                    run_stage(kind, &tg, &net, &opts, &child, &cache)
                }))
                .map_err(|p| crate::engine::panic_message(&*p));
                let _ = tx.send(result);
            })
            .expect("spawn supervised stage worker")
    };

    // Watchdog wait: until the budget deadline (or the stage-timeout cap
    // for deadline-less budgets), then fire the kill token and allow one
    // grace window for a cooperative wind-down.
    let cap = match (budget.time_remaining(), cfg.stage_timeout) {
        (Some(d), Some(t)) => Some(d.min(t)),
        (d, t) => d.or(t),
    };
    let first = match cap {
        Some(wait) => rx.recv_timeout(wait),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    };
    let outcome = match first {
        Ok(result) => {
            let _ = worker.join();
            AttemptOutcome::Done(result)
        }
        Err(RecvTimeoutError::Disconnected) => {
            // worker vanished without sending (cannot normally happen —
            // the send is unconditional); treat as a contained panic
            let _ = worker.join();
            AttemptOutcome::Done(Err("stage worker disappeared".into()))
        }
        Err(RecvTimeoutError::Timeout) => {
            kill.cancel();
            match rx.recv_timeout(cfg.grace) {
                Ok(result) => {
                    let _ = worker.join();
                    AttemptOutcome::Done(result)
                }
                Err(_) => {
                    // Unresponsive past deadline + grace: detach. The
                    // thread keeps running (briefly, for stalls) but the
                    // engine no longer waits on it; `child` is an Arc so
                    // its eventual ticks land on a budget nobody reads.
                    drop(worker);
                    AttemptOutcome::Hung
                }
            }
        }
    };
    (outcome, child.steps_used())
}

/// The supervised launcher for the engine's chain loop: each stage
/// passes its circuit breaker, then runs on a watched worker thread with
/// bounded retry, producing the same [`RawStage`] the engine's
/// chain-order fold consumes.
pub(crate) fn supervised_launcher<'a>(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &'a Budget,
    cache: &Arc<RouteTableCache>,
    cfg: &'a SupervisorConfig,
) -> impl FnMut(StageKind) -> RawStage + 'a {
    let sup = Supervised {
        budget,
        cfg,
        tg: Arc::new(tg.clone()),
        net: Arc::new(net.clone()),
        opts: Arc::new(opts.clone()),
        cache: Arc::clone(cache),
    };
    move |kind| supervised_stage(kind, &sup)
}

/// One supervised stage: admission by its breaker, then attempts until
/// one settles the stage or the retries run out.
fn supervised_stage(kind: StageKind, sup: &Supervised) -> RawStage {
    let (budget, cfg) = (sup.budget, sup.cfg);
    let max_attempts = match cfg.state.admit(kind, &cfg.breaker) {
        Admission::Skip => {
            return RawStage {
                outcome: RawOutcome::CircuitOpen,
                elapsed: Duration::ZERO,
                steps: 0,
                attempts: 0,
            };
        }
        Admission::Probe => 1,
        Admission::Run => 1 + cfg.retry.max_retries,
    };

    let t0 = Instant::now();
    let mut steps = 0u64;
    let mut attempts = 0u32;
    let mut outcome = RawOutcome::Panicked("stage never attempted".into());
    while attempts < max_attempts {
        if attempts > 0 {
            // Transient failure: back off, but never past the
            // deadline — a retry that cannot finish is wasted work.
            let backoff = cfg.retry.backoff_for(attempts);
            if budget.time_remaining().is_some_and(|left| left < backoff) {
                break;
            }
            std::thread::sleep(backoff);
        }
        attempts += 1;
        if let Some(Completion::Cancelled) = budget.poll() {
            outcome = RawOutcome::Failed(MapError::Cancelled);
            break;
        }
        let (attempt, attempt_steps) = watched_attempt(kind, sup);
        budget.charge(attempt_steps);
        steps += attempt_steps;
        // Cancellation observed by the stage is genuine only when the
        // *parent* budget (no kill token attached) reports it too;
        // otherwise it came from the watchdog's kill, which is
        // deadline enforcement, not a caller abort.
        let caller_cancelled = matches!(budget.poll(), Some(Completion::Cancelled));
        match attempt {
            AttemptOutcome::Hung => {
                cfg.state.record_failure(kind, &cfg.breaker);
                outcome = RawOutcome::Hung;
                break; // the deadline is spent; retrying cannot help
            }
            AttemptOutcome::Done(Err(panic_msg)) => {
                cfg.state.record_failure(kind, &cfg.breaker);
                outcome = RawOutcome::Panicked(panic_msg);
            }
            AttemptOutcome::Done(Ok(Err(MapError::Cancelled))) if !caller_cancelled => {
                outcome = RawOutcome::Failed(MapError::StageKilled);
                break; // deadline spent with nothing to show; move on
            }
            AttemptOutcome::Done(Ok(Err(e))) => {
                // a typed rejection is deterministic: retrying would
                // sleep and then fail the same way
                outcome = RawOutcome::Failed(e);
                break;
            }
            AttemptOutcome::Done(Ok(Ok((report, completion)))) => {
                cfg.state.record_success(kind);
                // A watchdog-killed stage that still produced its
                // best-so-far was cut short, not caller-cancelled.
                let completion = if completion == Completion::Cancelled && !caller_cancelled {
                    Completion::BudgetExhausted
                } else {
                    completion
                };
                outcome = RawOutcome::Candidate(report, completion);
                break;
            }
        }
    }
    RawStage {
        outcome,
        elapsed: t0.elapsed(),
        steps,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_retries: 5,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
        };
        assert_eq!(r.backoff_for(1), Duration::from_millis(10));
        assert_eq!(r.backoff_for(2), Duration::from_millis(20));
        assert_eq!(r.backoff_for(3), Duration::from_millis(35));
        assert_eq!(r.backoff_for(4), Duration::from_millis(35));
    }

    #[test]
    fn breaker_state_machine_trips_probes_and_closes() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::ZERO,
        };
        let state = SupervisorState::new();
        let stage = StageKind::Exhaustive;
        assert!(matches!(state.admit(stage, &cfg), Admission::Run));
        state.record_failure(stage, &cfg);
        assert_eq!(state.breaker(stage).state, BreakerState::Closed);
        assert!(matches!(state.admit(stage, &cfg), Admission::Run));
        state.record_failure(stage, &cfg);
        let view = state.breaker(stage);
        assert_eq!(view.state, BreakerState::Open);
        assert_eq!(view.trips, 1);
        assert!(state.any_tripped());
        // zero cooldown: the next admission is a half-open probe
        assert!(matches!(state.admit(stage, &cfg), Admission::Probe));
        assert_eq!(state.breaker(stage).state, BreakerState::HalfOpen);
        // probe failure re-opens immediately (streak, not threshold)
        state.record_failure(stage, &cfg);
        assert_eq!(state.breaker(stage).state, BreakerState::Open);
        assert_eq!(state.breaker(stage).trips, 2);
        // probe success closes
        assert!(matches!(state.admit(stage, &cfg), Admission::Probe));
        state.record_success(stage);
        let view = state.breaker(stage);
        assert_eq!(view.state, BreakerState::Closed);
        assert_eq!(view.consecutive_failures, 0);
        assert_eq!(view.probes, 2);
        assert!(!state.any_tripped());
    }

    #[test]
    fn concurrent_admits_yield_exactly_one_probe() {
        // Regression: with the cooldown elapsed, two threads racing on
        // one shared state both used to match the probe arm (the second
        // saw `opened_at` still set and `half_open` already true) and
        // both were admitted. Exactly one may probe; the other sheds.
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        };
        let state = SupervisorState::new();
        state.record_failure(StageKind::Exhaustive, &cfg);
        assert_eq!(state.breaker(StageKind::Exhaustive).state, BreakerState::Open);

        let barrier = std::sync::Barrier::new(2);
        let admissions: Vec<Admission> = std::thread::scope(|s| {
            let spawn_admit = || {
                s.spawn(|| {
                    barrier.wait();
                    state.admit(StageKind::Exhaustive, &cfg)
                })
            };
            [spawn_admit(), spawn_admit()]
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let probes = admissions
            .iter()
            .filter(|a| matches!(a, Admission::Probe))
            .count();
        let skips = admissions
            .iter()
            .filter(|a| matches!(a, Admission::Skip))
            .count();
        assert_eq!((probes, skips), (1, 1), "exactly one probe, one shed");
        assert_eq!(state.breaker(StageKind::Exhaustive).probes, 1);
        assert_eq!(state.breaker(StageKind::Exhaustive).state, BreakerState::HalfOpen);
        // until the probe's verdict lands, further admits keep shedding
        assert!(matches!(
            state.admit(StageKind::Exhaustive, &cfg),
            Admission::Skip
        ));
        // the verdict settles it: success closes and admits normally
        state.record_success(StageKind::Exhaustive);
        assert!(matches!(
            state.admit(StageKind::Exhaustive, &cfg),
            Admission::Run
        ));
    }

    #[test]
    fn breaker_with_nonzero_cooldown_skips() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        };
        let state = SupervisorState::new();
        state.record_failure(StageKind::Heuristic, &cfg);
        assert!(matches!(
            state.admit(StageKind::Heuristic, &cfg),
            Admission::Skip
        ));
        state.reset();
        assert!(matches!(
            state.admit(StageKind::Heuristic, &cfg),
            Admission::Run
        ));
    }

    /// A typed error is a function of the request: the stage is attempted
    /// once and the supervisor neither sleeps a backoff nor spawns a
    /// second worker for it. (That a panicked stage still retries is
    /// `prop_supervisor::transient_panic_is_retried_and_recovers`.)
    #[test]
    fn typed_stage_error_ends_the_attempts_without_backoff() {
        let tg = oregami_larcs::compile(&oregami_larcs::programs::jacobi(), &[("n", 8), ("iters", 2)])
            .unwrap();
        let net = oregami_topology::builders::hypercube(2);
        let opts = MapperOptions {
            load_bound: Some(1), // 64 tasks cannot fit on 4 processors
            ..MapperOptions::default()
        };
        let cfg = SupervisorConfig::default().with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_secs(2),
            backoff_cap: Duration::from_secs(2),
        });
        let t0 = Instant::now();
        let budget = Budget::unlimited();
        let cache = Arc::new(RouteTableCache::new(2));
        let mut launch = supervised_launcher(&tg, &net, &opts, &budget, &cache, &cfg);
        let raw = launch(StageKind::Exhaustive);
        assert!(matches!(raw.outcome, RawOutcome::Failed(_)));
        assert_eq!(raw.attempts, 1);
        assert!(t0.elapsed() < cfg.retry.backoff, "slept a backoff: {:?}", t0.elapsed());
        // a typed error is not a breaker failure either
        assert_eq!(cfg.state.breaker(StageKind::Exhaustive).consecutive_failures, 0);
    }

    #[test]
    fn chaos_stream_is_deterministic_and_respects_only() {
        let a = ChaosConfig::new(42).with_panic_prob(0.5);
        let b = ChaosConfig::new(42).with_panic_prob(0.5);
        let draws_a: Vec<ChaosAction> =
            (0..64).map(|_| a.draw(StageKind::Exhaustive)).collect();
        let draws_b: Vec<ChaosAction> =
            (0..64).map(|_| b.draw(StageKind::Exhaustive)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.contains(&ChaosAction::Panic));
        assert!(draws_a.contains(&ChaosAction::None));
        let only = ChaosConfig::new(7)
            .with_panic_prob(1.0)
            .with_only(StageKind::Identity);
        assert_eq!(only.draw(StageKind::Exhaustive), ChaosAction::None);
        assert_eq!(only.draw(StageKind::Identity), ChaosAction::Panic);
    }

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let c = ChaosConfig::parse("seed=9,panic=0.25,stall=0.5,stall-ms=40,only=heuristic")
            .unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.panic_prob, 0.25);
        assert_eq!(c.stall_prob, 0.5);
        assert_eq!(c.stall, Duration::from_millis(40));
        assert_eq!(c.only, Some(StageKind::Heuristic));
        assert!(ChaosConfig::parse("panic=two").is_err());
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
        // board-loss draws are not a chaos option: the keys are unknown
        for spec in ["board-loss=0.5", "boards=4"] {
            let err = ChaosConfig::parse(spec).unwrap_err();
            assert!(err.contains("unknown chaos key"), "{spec}: {err}");
        }
        // probabilities clamp rather than error
        assert_eq!(ChaosConfig::parse("panic=7").unwrap().panic_prob, 1.0);
    }

    #[test]
    fn health_display_and_ordering_of_verdicts() {
        assert_eq!(ServiceHealth::Healthy.to_string(), "healthy");
        assert_eq!(ServiceHealth::Degraded.to_string(), "degraded");
        assert_eq!(ServiceHealth::Unserviceable.to_string(), "unserviceable");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }
}
