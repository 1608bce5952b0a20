//! A fixed worker pool for handing oracle work off the reactor thread.
//!
//! The reactor must never block: a frame's analysis (EXPTIME-bounded
//! decision procedures, admission waits) runs on one of these workers,
//! and its completion travels back through the reactor's mailbox. The
//! pool is a plain `Mutex` + `Condvar` job queue — jobs are coarse
//! (whole frames), so queue contention is noise next to the work. A job
//! that panics is caught: its worker lives on to run the next job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks `m` even when a panicking holder poisoned it. The server's locks
/// guard job queues, session maps, admission counters and the response
/// memo: after a holder's panic the worst left behind is one stale entry
/// or count, while refusing the lock would fail every later frame that
/// takes it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Inner {
    queue: Mutex<(VecDeque<Job>, bool)>, // (jobs, shutting_down)
    cv: Condvar,
}

/// The pool; dropping it without [`WorkerPool::shutdown_and_join`]
/// detaches the workers (they drain the queue and exit).
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) named `name-N`.
    pub fn new(workers: usize, name: &str) -> WorkerPool {
        let inner =
            Arc::new(Inner { queue: Mutex::new((VecDeque::new(), false)), cv: Condvar::new() });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs queued but not yet picked up.
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.queue).0.len()
    }

    /// Enqueues a job; `false` (job dropped) after shutdown began.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut q = lock(&self.inner.queue);
        if q.1 {
            return false;
        }
        q.0.push_back(Box::new(job));
        drop(q);
        self.inner.cv.notify_one();
        true
    }

    /// Stops accepting jobs, lets the workers drain what is already
    /// queued, and joins them. Every accepted job runs before this
    /// returns — the drain path depends on it.
    pub fn shutdown_and_join(mut self) {
        lock(&self.inner.queue).1 = true;
        self.inner.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(job) = q.0.pop_front() {
                    break job;
                }
                if q.1 {
                    return;
                }
                q = inner.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The job's owner learns of the panic through its own channel (a
        // response that never arrives is the reactor's to time out); the
        // worker must survive it.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn all_submitted_jobs_run_before_join_returns() {
        let pool = WorkerPool::new(4, "test-worker");
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = Arc::clone(&done);
            assert!(pool.execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown_and_join();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_after_shutdown_are_refused() {
        let pool = WorkerPool::new(1, "test-worker");
        let inner = Arc::clone(&pool.inner);
        pool.shutdown_and_join();
        // The pool is consumed by shutdown; poke the inner state the way
        // a racing execute would see it.
        assert!(lock(&inner.queue).1);
    }

    #[test]
    fn workers_run_concurrently() {
        let pool = WorkerPool::new(2, "test-worker");
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        // Two jobs that each wait for the other to start: completes only
        // if two workers run them at the same time.
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                let (count, cv) = &*gate;
                let mut n = lock(count);
                *n += 1;
                cv.notify_all();
                while *n < 2 {
                    let (guard, timeout) = cv.wait_timeout(n, Duration::from_secs(5)).unwrap();
                    n = guard;
                    if timeout.timed_out() {
                        panic!("second worker never arrived");
                    }
                }
            });
        }
        pool.shutdown_and_join();
        assert_eq!(*lock(&gate.0), 2);
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_running() {
        let pool = WorkerPool::new(1, "test-worker");
        let done = Arc::new(AtomicUsize::new(0));
        assert!(pool.execute(|| panic!("job panics")));
        let after = Arc::clone(&done);
        assert!(pool.execute(move || {
            after.fetch_add(1, Ordering::SeqCst);
        }));
        pool.shutdown_and_join();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(1));
        let holder = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let _guard = lock(&holder);
            panic!("poison the mutex");
        })
        .join();
        assert!(joined.is_err());
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }
}
