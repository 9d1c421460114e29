//! Admission control and load shedding.
//!
//! Every compute request passes the gate *before* it is queued. The
//! gate rejects early — with a typed error the client can act on —
//! instead of letting the queue grow until every request times out:
//!
//! * **queue depth**: beyond `max_queue` outstanding jobs the daemon is
//!   overloaded; new work is shed with `overloaded`.
//! * **deadline feasibility**: an EWMA of recent service times predicts
//!   the queueing delay; a request whose deadline cannot survive the
//!   wait is shed immediately rather than served a guaranteed timeout.
//! * **breaker health**: when the circuit breaker of *every* fallback
//!   stage is open, no mapping can possibly be served — requests are
//!   shed with `unserviceable` until a probe closes a breaker.
//! * **drain**: during graceful shutdown new work is refused with
//!   `shutting_down` while queued work finishes.

use crate::request::FailureClass;
use oregami::{BreakerState, StageKind, SupervisorState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the gate refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shed {
    /// Queue full or deadline infeasible; retry later.
    Overloaded(String),
    /// Every stage breaker is open; nothing can serve.
    Unserviceable(String),
    /// The daemon is draining for shutdown.
    Draining,
}

impl Shed {
    pub fn kind(&self) -> &'static str {
        match self {
            Shed::Overloaded(_) => FailureClass::Overloaded.kind(),
            Shed::Unserviceable(_) => FailureClass::Unserviceable.kind(),
            Shed::Draining => FailureClass::ShuttingDown.kind(),
        }
    }

    pub fn message(&self) -> String {
        match self {
            Shed::Overloaded(m) | Shed::Unserviceable(m) => m.clone(),
            Shed::Draining => "daemon is draining; no new work accepted".to_string(),
        }
    }
}

/// The load-shedding gate. Shared across all connections.
pub struct AdmissionGate {
    max_queue: usize,
    workers: usize,
    /// EWMA of observed job service time, in microseconds.
    ewma_micros: AtomicU64,
    /// When the last observation landed, in microseconds since `epoch`
    /// — the idle-decay reference point.
    last_service_micros: AtomicU64,
    epoch: Instant,
    supervisor: Arc<SupervisorState>,
    pub admitted: AtomicU64,
    pub shed_overloaded: AtomicU64,
    pub shed_unserviceable: AtomicU64,
    pub shed_draining: AtomicU64,
}

/// Seed for the service-time EWMA before any observation lands (5 ms —
/// the order of a small supervised map). Also the prior the estimate
/// decays toward over idle gaps.
const EWMA_SEED_MICROS: u64 = 5_000;

/// Idle shorter than this leaves the EWMA untouched — normal gaps
/// between requests of one busy period are not "idle".
const IDLE_DECAY_GRACE_MICROS: u64 = 1_000_000;

/// Past the grace period, the EWMA's distance from the prior halves
/// every this many microseconds of idleness.
const IDLE_DECAY_HALF_LIFE_MICROS: u64 = 10_000_000;

/// The service-time estimate after `idle_micros` without observations:
/// the distance from the seed prior halves every half-life (with linear
/// interpolation inside the current one). A gate that served a burst of
/// 400 ms jobs and then sat quiet for a minute predicts milliseconds
/// again, not the memory of the burst — so the first request of a quiet
/// period is not shed against a stale estimate.
fn decay_toward_prior(ewma: u64, idle_micros: u64) -> u64 {
    if idle_micros <= IDLE_DECAY_GRACE_MICROS {
        return ewma;
    }
    let idle = idle_micros - IDLE_DECAY_GRACE_MICROS;
    let whole = (idle / IDLE_DECAY_HALF_LIFE_MICROS).min(63) as u32;
    let frac = (idle % IDLE_DECAY_HALF_LIFE_MICROS) as i128;
    let prior = EWMA_SEED_MICROS as i128;
    let mut gap = (ewma as i128 - prior) >> whole;
    gap -= gap * frac / (2 * IDLE_DECAY_HALF_LIFE_MICROS as i128);
    (prior + gap).max(1) as u64
}

impl AdmissionGate {
    pub fn new(max_queue: usize, workers: usize, supervisor: Arc<SupervisorState>) -> Self {
        AdmissionGate {
            max_queue: max_queue.max(1),
            workers: workers.max(1),
            ewma_micros: AtomicU64::new(EWMA_SEED_MICROS),
            last_service_micros: AtomicU64::new(0),
            epoch: Instant::now(),
            supervisor,
            admitted: AtomicU64::new(0),
            shed_overloaded: AtomicU64::new(0),
            shed_unserviceable: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
        }
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The EWMA as of `now`, idle decay applied.
    fn ewma_at(&self, now: u64) -> u64 {
        let ewma = self.ewma_micros.load(Ordering::Relaxed);
        let last = self.last_service_micros.load(Ordering::Relaxed);
        decay_toward_prior(ewma, now.saturating_sub(last))
    }

    /// Decides whether a compute request may be queued. `queue_depth` is
    /// the scheduler's current queued+inflight count.
    pub fn admit(
        &self,
        queue_depth: usize,
        deadline_ms: Option<u64>,
        draining: bool,
    ) -> Result<(), Shed> {
        self.admit_at(queue_depth, deadline_ms, draining, self.now_micros())
    }

    fn admit_at(
        &self,
        queue_depth: usize,
        deadline_ms: Option<u64>,
        draining: bool,
        now: u64,
    ) -> Result<(), Shed> {
        if draining {
            self.shed_draining.fetch_add(1, Ordering::Relaxed);
            return Err(Shed::Draining);
        }
        if self.all_breakers_open() {
            self.shed_unserviceable.fetch_add(1, Ordering::Relaxed);
            return Err(Shed::Unserviceable(
                "every stage circuit breaker is open; awaiting a successful probe".into(),
            ));
        }
        if queue_depth >= self.max_queue {
            self.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(Shed::Overloaded(format!(
                "queue full ({queue_depth}/{} outstanding jobs)",
                self.max_queue
            )));
        }
        if let Some(ms) = deadline_ms {
            let wait = self.estimated_wait_at(queue_depth, now);
            if ms.saturating_mul(1_000) < wait {
                self.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                return Err(Shed::Overloaded(format!(
                    "deadline of {ms} ms cannot survive the estimated {} ms queueing delay",
                    wait / 1_000
                )));
            }
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Predicted wait before a newly queued job starts: the outstanding
    /// jobs ahead of it, served `workers`-wide at the (idle-decayed)
    /// EWMA service time.
    fn estimated_wait_at(&self, queue_depth: usize, now: u64) -> u64 {
        (queue_depth as u64).saturating_mul(self.ewma_at(now)) / self.workers as u64
    }

    /// Folds one observed service time into the EWMA (α = 0.2). Any
    /// idle decay accrued before this observation is applied first, so
    /// the stored estimate never resurrects a stale burst.
    pub fn observe_service(&self, elapsed: Duration) {
        self.observe_service_at(elapsed, self.now_micros());
    }

    fn observe_service_at(&self, elapsed: Duration, now: u64) {
        let obs = (elapsed.as_micros() as u64).min(60_000_000);
        // racy read-modify-write is fine: the EWMA is advisory
        let old = self.ewma_at(now);
        let new = (old.saturating_mul(4) + obs) / 5;
        self.ewma_micros.store(new.max(1), Ordering::Relaxed);
        self.last_service_micros.store(now, Ordering::Relaxed);
    }

    /// Current EWMA service-time estimate in microseconds (idle decay
    /// applied — this is what admission actually predicts with).
    pub fn ewma_micros(&self) -> u64 {
        self.ewma_at(self.now_micros())
    }

    /// Whether the breaker of every stage of the full fallback chain is
    /// open (`multilevel` only runs when a request's chain names it, so
    /// its breaker cannot hold the service up on its own).
    pub(crate) fn all_breakers_open(&self) -> bool {
        [StageKind::Exhaustive, StageKind::Heuristic, StageKind::Identity]
            .iter()
            .all(|&k| self.supervisor.breaker(k).state == BreakerState::Open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_queue: usize, workers: usize) -> AdmissionGate {
        AdmissionGate::new(max_queue, workers, Arc::new(SupervisorState::new()))
    }

    #[test]
    fn queue_depth_sheds_overloaded() {
        let g = gate(4, 2);
        assert!(g.admit(3, None, false).is_ok());
        let shed = g.admit(4, None, false).unwrap_err();
        assert!(matches!(shed, Shed::Overloaded(_)));
        assert_eq!(shed.kind(), "overloaded");
        assert_eq!(g.shed_overloaded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn infeasible_deadlines_are_shed_before_queueing() {
        let g = gate(1000, 1);
        for _ in 0..20 {
            g.observe_service(Duration::from_millis(100));
        }
        // ~100 ms per job, 50 queued => ~5 s wait; a 20 ms deadline is hopeless
        let shed = g.admit(50, Some(20), false).unwrap_err();
        assert!(matches!(shed, Shed::Overloaded(_)), "{shed:?}");
        assert!(shed.message().contains("deadline"));
        // the same deadline with an empty queue is fine
        assert!(g.admit(0, Some(20), false).is_ok());
        // a patient request survives the same queue
        assert!(g.admit(50, Some(60_000), false).is_ok());
    }

    #[test]
    fn draining_refuses_everything() {
        let g = gate(8, 2);
        assert_eq!(g.admit(0, None, true).unwrap_err(), Shed::Draining);
        assert_eq!(Shed::Draining.kind(), "shutting_down");
    }

    #[test]
    fn ewma_tracks_observations() {
        let g = gate(8, 1);
        for _ in 0..50 {
            g.observe_service(Duration::from_millis(10));
        }
        let e = g.ewma_micros();
        assert!((8_000..=12_000).contains(&e), "ewma {e}");
    }

    /// Regression: a burst of slow jobs must not poison admission for
    /// the first request of a quiet period. Driven with synthetic
    /// timestamps so no wall-clock sleeps are needed.
    #[test]
    fn idle_gap_decays_ewma_toward_prior() {
        let g = gate(1000, 1);
        // a burst of 400 ms jobs, back to back at t = 0
        for _ in 0..50 {
            g.observe_service_at(Duration::from_millis(400), 0);
        }
        let burst = g.ewma_at(0);
        assert!(burst > 300_000, "burst ewma {burst}");
        // right after the burst, a tight deadline behind one queued job
        // is (correctly) hopeless: ~400 ms predicted wait
        assert!(g.admit_at(1, Some(20), false, 0).is_err());

        // sub-grace gaps do not decay: the busy period keeps its estimate
        assert_eq!(g.ewma_at(500_000), burst);

        // a minute of quiet: the estimate must have collapsed toward the
        // 5 ms prior, and the same request is now admitted
        let minute = 60_000_000;
        let decayed = g.ewma_at(minute);
        assert!(
            decayed < 40_000,
            "stale burst must decay over a minute idle, got {decayed}"
        );
        assert!(g.admit_at(1, Some(20), false, minute).is_ok());

        // decay is monotone toward the prior and bottoms out there
        assert!(g.ewma_at(10 * minute) >= EWMA_SEED_MICROS);
        assert!(g.ewma_at(10 * minute) <= g.ewma_at(minute));

        // a fresh observation after the gap folds into the *decayed*
        // value, not the stale burst
        g.observe_service_at(Duration::from_millis(2), minute);
        let resumed = g.ewma_at(minute);
        assert!(
            resumed < decayed,
            "post-idle observation must not resurrect the burst: {resumed}"
        );
    }
}
