//! Execution budgets: deadlines, step quotas, and cooperative
//! cancellation for MAPPER's searches.
//!
//! OREGAMI mixes polynomial heuristics with exponential oracles
//! (`exhaustive_embed` is `P!/(P-C)!`), and the paper's interactive
//! METRICS workflow assumes the user always gets *a* mapping back quickly
//! and refines it later. A [`Budget`] makes that contract explicit: the
//! hot loops of exhaustive embedding, contraction, matching, and repair
//! call [`Budget::tick`], and when the deadline passes, the step quota
//! runs out, or the [`CancelToken`] fires, the search stops and returns
//! its best-so-far result tagged with a [`Completion`] instead of hanging
//! or being killed.
//!
//! The deadline clock is only consulted every `CLOCK_STRIDE` ticks so a
//! tick in an inner loop costs one relaxed atomic increment, not a
//! syscall.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a search run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Completion {
    /// The search ran to its natural end; the result is as good as the
    /// algorithm can produce.
    Optimal,
    /// The deadline or step quota ran out; the result is the best found
    /// so far and is valid but possibly suboptimal.
    BudgetExhausted,
    /// The [`CancelToken`] fired; the result (if any) is best-so-far.
    Cancelled,
}

impl Completion {
    /// Whether the result was produced under a cut-short search.
    pub fn is_degraded(self) -> bool {
        !matches!(self, Completion::Optimal)
    }

    /// Combines two completions: the worse (more degraded) one wins.
    /// `Cancelled > BudgetExhausted > Optimal`.
    pub fn worst(self, other: Completion) -> Completion {
        self.max(other)
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completion::Optimal => write!(f, "optimal"),
            Completion::BudgetExhausted => write!(f, "budget exhausted"),
            Completion::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A cooperative cancellation flag, shareable across threads. Cloning
/// yields another handle on the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token; every budget sharing it reports
    /// [`Completion::Cancelled`] on its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called.
    fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Ticks between deadline-clock reads (power of two). Cancellation is
/// checked at the same stride: a cancel is observed within this many
/// steps of the hot loop.
const CLOCK_STRIDE: u64 = 1024;

/// An execution budget: optional deadline, optional step quota, optional
/// cancel token. [`Budget::unlimited`] never trips; searches given it
/// behave exactly like their unbudgeted originals.
///
/// The budget is shared by reference across the stages of one engine run,
/// so a stage that burns the whole quota leaves nothing for its
/// successors — that is what makes the engine's total latency bounded.
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    cancels: Vec<CancelToken>,
    steps: AtomicU64,
}

impl Budget {
    /// A budget that never trips.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps wall-clock time at `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Caps the total number of [`tick`](Budget::tick)s across every
    /// search sharing this budget.
    pub fn with_max_steps(mut self, steps: u64) -> Budget {
        self.max_steps = Some(steps);
        self
    }

    /// Attaches a cancellation token. May be called repeatedly: the
    /// budget trips when *any* attached token fires, which is how the
    /// parallel engine layers a per-stage kill switch on top of the
    /// caller's own token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancels.push(token);
        self
    }

    /// Steps consumed so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// The absolute wall-clock deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wall-clock time left before the deadline (zero once it has
    /// passed), or `None` when the budget has no deadline. The
    /// supervisor's watchdog uses this to size its wait: fire the kill
    /// token when this runs out, declare the stage hung a grace window
    /// later.
    pub fn time_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The step quota left before [`tick`](Budget::tick) starts reporting
    /// [`Completion::BudgetExhausted`], or `None` when unmetered.
    fn remaining_steps(&self) -> Option<u64> {
        self.max_steps.map(|m| m.saturating_sub(self.steps_used()))
    }

    /// A child budget for one watched stage attempt: same deadline, all
    /// of this budget's cancel tokens **plus** `extra_cancel` (the
    /// attempt's kill switch), its own zeroed step counter capped at the
    /// steps this budget has left. The child counts steps independently;
    /// fold its usage back with [`charge`](Budget::charge) so the
    /// parent's [`steps_used`](Budget::steps_used) stays the whole-run
    /// total.
    pub fn child(&self, extra_cancel: CancelToken) -> Budget {
        let mut cancels = self.cancels.clone();
        cancels.push(extra_cancel);
        Budget {
            deadline: self.deadline,
            max_steps: self.remaining_steps(),
            cancels,
            steps: AtomicU64::new(0),
        }
    }

    /// Records `n` steps of work done elsewhere (a child budget) without
    /// tripping any check.
    pub fn charge(&self, n: u64) {
        self.steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one unit of search work and reports whether the budget has
    /// tripped. `None` means keep going. Hot-loop safe: one relaxed
    /// atomic increment per call; the deadline clock and cancel flag are
    /// consulted every `CLOCK_STRIDE` calls (and on the first).
    #[inline]
    pub fn tick(&self) -> Option<Completion> {
        let n = self.steps.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = self.max_steps {
            if n >= max {
                return Some(Completion::BudgetExhausted);
            }
        }
        if n.is_multiple_of(CLOCK_STRIDE) {
            return self.poll();
        }
        None
    }

    /// Checks the deadline and cancel token *now* without counting a
    /// step. Use at coarse boundaries (between stages, per repair pass).
    pub fn poll(&self) -> Option<Completion> {
        if self.cancels.iter().any(CancelToken::is_cancelled) {
            return Some(Completion::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Completion::BudgetExhausted);
            }
        }
        if let Some(max) = self.max_steps {
            if self.steps_used() >= max {
                return Some(Completion::BudgetExhausted);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert_eq!(b.tick(), None);
        }
        assert_eq!(b.poll(), None);
        assert_eq!(b.steps_used(), 10_000);
    }

    #[test]
    fn step_quota_trips_exactly() {
        let b = Budget::unlimited().with_max_steps(5);
        for _ in 0..5 {
            assert_eq!(b.tick(), None);
        }
        assert_eq!(b.tick(), Some(Completion::BudgetExhausted));
        assert_eq!(b.poll(), Some(Completion::BudgetExhausted));
    }

    #[test]
    fn expired_deadline_trips_on_first_tick() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        // first tick lands on the clock stride
        assert_eq!(b.tick(), Some(Completion::BudgetExhausted));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        for _ in 0..5000 {
            assert_eq!(b.tick(), None);
        }
    }

    #[test]
    fn cancel_token_wins_over_everything() {
        let token = CancelToken::new();
        let b = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_cancel(token.clone());
        token.cancel();
        assert_eq!(b.poll(), Some(Completion::Cancelled));
        assert_eq!(b.tick(), Some(Completion::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_observed_within_stride() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert_eq!(b.tick(), None);
        token.cancel();
        let tripped = (0..2048).find_map(|_| b.tick());
        assert_eq!(tripped, Some(Completion::Cancelled));
    }

    #[test]
    fn child_budget_inherits_tokens_and_charges_back() {
        let parent_token = CancelToken::new();
        let parent = Budget::unlimited()
            .with_max_steps(100)
            .with_cancel(parent_token.clone());
        assert_eq!(parent.remaining_steps(), Some(100));

        let kill = CancelToken::new();
        let child = parent.child(kill.clone());
        // child has its own counter, capped at the parent's remaining quota
        for _ in 0..5 {
            assert_eq!(child.tick(), None);
        }
        assert_eq!(parent.steps_used(), 0);
        parent.charge(child.steps_used());
        assert_eq!(parent.steps_used(), 5);
        assert_eq!(parent.remaining_steps(), Some(95));

        // the kill switch cancels only the child...
        let child2 = parent.child(kill.clone());
        assert!((0..95).all(|_| child2.tick().is_none()));
        assert_eq!(child2.tick(), Some(Completion::BudgetExhausted));
        kill.cancel();
        assert_eq!(child2.poll(), Some(Completion::Cancelled));
        assert_eq!(parent.poll(), None);
        // ...while the parent token cancels every child
        let child3 = parent.child(CancelToken::new());
        parent_token.cancel();
        assert_eq!(child3.poll(), Some(Completion::Cancelled));
        assert_eq!(parent.poll(), Some(Completion::Cancelled));
    }

    #[test]
    fn any_of_several_tokens_cancels() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let budget = Budget::unlimited().with_cancel(a).with_cancel(b.clone());
        assert_eq!(budget.poll(), None);
        b.cancel();
        assert_eq!(budget.poll(), Some(Completion::Cancelled));
    }

    #[test]
    fn completion_ordering_and_display() {
        use Completion::*;
        assert_eq!(Optimal.worst(BudgetExhausted), BudgetExhausted);
        assert_eq!(Cancelled.worst(BudgetExhausted), Cancelled);
        assert_eq!(Optimal.worst(Optimal), Optimal);
        assert!(!Optimal.is_degraded());
        assert!(BudgetExhausted.is_degraded());
        assert_eq!(BudgetExhausted.to_string(), "budget exhausted");
    }
}
