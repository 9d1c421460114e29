//! A work-stealing job scheduler with per-connection fairness.
//!
//! Jobs are queued per connection; a fixed pool of workers pulls from
//! *any* non-empty queue, visiting connections round-robin from a
//! rotating cursor — a chatty client can keep its own queue deep, but
//! cannot starve another connection's single request. Each job runs
//! under `catch_unwind`, so a panic inside one request (a poisoned
//! program, an injected chaos panic that escapes the engine) is
//! isolated: the worker survives, the daemon keeps serving.
//!
//! Graceful drain: [`Scheduler::drain`] stops intake (the server's
//! admission gate has already begun refusing new work), lets every
//! queued job run to completion, then stops and joins the workers.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One unit of queued work. The closure owns everything it needs —
/// including writing its own response to its requester — and must
/// not panic (the worker catches a panic anyway, but then nobody can
/// respond for it, so closures wrap their fallible core themselves).
pub struct Job {
    /// Originating connection, for fairness bucketing.
    pub conn: u64,
    pub exec: Box<dyn FnOnce() + Send>,
}

struct SchedState {
    queues: HashMap<u64, VecDeque<Job>>,
    /// Round-robin visit order over connections with live queues.
    order: Vec<u64>,
    cursor: usize,
    queued: usize,
    inflight: usize,
    stop: bool,
}

/// The shared scheduler. Create with [`Scheduler::start`].
pub struct Scheduler {
    state: Mutex<SchedState>,
    wake: Condvar,
    idle: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs whose closure panicked clear through to here (each one also
    /// shows up as an `internal` error on the wire if the closure's own
    /// catch failed before it could respond).
    pub panicked: AtomicU64,
    pub completed: AtomicU64,
}

impl Scheduler {
    /// Spawns `workers` worker threads and returns the shared handle.
    pub fn start(workers: usize) -> Arc<Scheduler> {
        let sched = Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                queues: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                queued: 0,
                inflight: 0,
                stop: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            panicked: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let mut handles = Vec::new();
        for i in 0..workers.max(1) {
            let s = Arc::clone(&sched);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("oregamid-worker-{i}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn scheduler worker"),
            );
        }
        *sched.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = handles;
        sched
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        // jobs never run under this lock, and every mutation leaves the
        // counters consistent, so poison carries no information
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Queued plus in-flight jobs — the depth admission control checks.
    pub fn depth(&self) -> usize {
        let s = self.lock();
        s.queued + s.inflight
    }

    /// Enqueues a job on its connection's queue and wakes a worker.
    pub fn enqueue(&self, job: Job) {
        let mut s = self.lock();
        let conn = job.conn;
        if !s.queues.contains_key(&conn) {
            s.order.push(conn);
        }
        s.queues.entry(conn).or_default().push_back(job);
        s.queued += 1;
        drop(s);
        self.wake.notify_one();
    }

    /// Round-robin steal: the next job from the first non-empty queue at
    /// or after the cursor. Empty queues encountered on the way are
    /// garbage-collected from the rotation.
    fn take(s: &mut SchedState) -> Option<Job> {
        let mut visited = 0;
        while visited < s.order.len() {
            if s.order.is_empty() {
                return None;
            }
            let idx = s.cursor % s.order.len();
            let conn = s.order[idx];
            let empty = match s.queues.get_mut(&conn) {
                Some(q) => match q.pop_front() {
                    Some(job) => {
                        s.cursor = (idx + 1) % s.order.len();
                        s.queued -= 1;
                        if q.is_empty() {
                            s.queues.remove(&conn);
                            s.order.retain(|&c| c != conn);
                            if s.cursor >= s.order.len() {
                                s.cursor = 0;
                            }
                        }
                        return Some(job);
                    }
                    None => true,
                },
                None => true,
            };
            if empty {
                s.order.retain(|&c| c != conn);
                if !s.order.is_empty() {
                    s.cursor %= s.order.len();
                } else {
                    s.cursor = 0;
                }
            }
            visited += 1;
        }
        None
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut s = self.lock();
                loop {
                    if let Some(job) = Self::take(&mut s) {
                        s.inflight += 1;
                        break job;
                    }
                    if s.stop {
                        return;
                    }
                    s = self
                        .wake
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            // Panic isolation: the closure is expected to catch its own
            // fallible core and respond; this outer catch guarantees a
            // worker survives even a panic in the response path.
            if catch_unwind(AssertUnwindSafe(job.exec)).is_err() {
                self.panicked.fetch_add(1, Ordering::Relaxed);
            }
            self.completed.fetch_add(1, Ordering::Relaxed);
            let mut s = self.lock();
            s.inflight -= 1;
            let empty = s.queued == 0 && s.inflight == 0;
            drop(s);
            if empty {
                self.idle.notify_all();
            }
        }
    }

    /// Waits until every queued and in-flight job has completed, then
    /// stops and joins the workers. Intake must already be fenced by the
    /// caller (admission refuses work while draining), or this can wait
    /// on a moving target.
    pub fn drain(&self) {
        let mut s = self.lock();
        while s.queued + s.inflight > 0 {
            s = self
                .idle
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        s.stop = true;
        drop(s);
        self.wake.notify_all();
        let handles = std::mem::take(
            &mut *self.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn all_jobs_run_and_drain_completes() {
        let sched = Scheduler::start(4);
        let count = Arc::new(AtomicUsize::new(0));
        for conn in 0..8u64 {
            for _ in 0..25 {
                let c = Arc::clone(&count);
                sched.enqueue(Job {
                    conn,
                    exec: Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                });
            }
        }
        sched.drain();
        assert_eq!(count.load(Ordering::Relaxed), 200);
        assert_eq!(sched.completed.load(Ordering::Relaxed), 200);
        assert_eq!(sched.depth(), 0);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sched = Scheduler::start(1);
        let ran = Arc::new(AtomicUsize::new(0));
        sched.enqueue(Job {
            conn: 1,
            exec: Box::new(|| panic!("poisoned request")),
        });
        let r = Arc::clone(&ran);
        sched.enqueue(Job {
            conn: 1,
            exec: Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }),
        });
        sched.drain();
        std::panic::set_hook(prev);
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the single worker survived");
        assert_eq!(sched.panicked.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn per_connection_fairness_interleaves_a_flood_with_a_single_request() {
        // conn 1 floods 50 slow jobs; conn 2 submits one. With FIFO
        // the single request would wait behind all 50; round-robin
        // serves it within the first few slots.
        let sched = Scheduler::start(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        // stall the worker so the flood queues up before anything runs
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let g = Arc::clone(&gate);
            sched.enqueue(Job {
                conn: 9,
                exec: Box::new(move || {
                    let (m, cv) = &*g;
                    let mut open = m.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }),
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        for i in 0..50 {
            let l = Arc::clone(&log);
            sched.enqueue(Job {
                conn: 1,
                exec: Box::new(move || l.lock().unwrap().push((1u64, i))),
            });
        }
        let l = Arc::clone(&log);
        sched.enqueue(Job {
            conn: 2,
            exec: Box::new(move || l.lock().unwrap().push((2u64, 0))),
        });
        {
            let (m, cv) = &*gate;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        sched.drain();
        let order = log.lock().unwrap();
        let pos = order.iter().position(|&(c, _)| c == 2).unwrap();
        assert!(
            pos <= 2,
            "conn 2's single request ran at position {pos}, expected near the front: {order:?}"
        );
    }
}
