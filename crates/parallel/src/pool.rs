//! The scoped worker pool.
//!
//! A fixed set of worker threads drains a shared FIFO of boxed jobs.
//! Borrowing closures are made `'static` by a lifetime-erasing
//! transmute inside [`Scope::execute`]; soundness rests on the scope
//! joining every submitted job before it is dropped, which both
//! [`ThreadPool::scoped`] and the `Drop` impl guarantee.
//!
//! Threads that wait on a scope *help*: while their own jobs are
//! pending they pop and run whatever is queued, so nested scopes
//! (a cone-projection job that itself calls a parallel `eigh`) can
//! never deadlock the pool.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use gfp_telemetry as telemetry;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    job: Job,
    latch: Arc<Latch>,
}

/// Countdown latch: one scope's outstanding-job counter.
struct Latch {
    pending: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new() -> Self {
        Latch {
            pending: Mutex::new(0),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn increment(&self) {
        *self.pending.lock().expect("latch lock") += 1;
    }

    fn decrement(&self) {
        let mut p = self.pending.lock().expect("latch lock");
        *p -= 1;
        if *p == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.pending.lock().expect("latch lock") == 0
    }
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    job_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn try_pop(&self) -> Option<Task> {
        self.queue.lock().expect("queue lock").pop_front()
    }
}

fn run_task(task: Task) {
    let result = catch_unwind(AssertUnwindSafe(task.job));
    if result.is_err() {
        task.latch.panicked.store(true, Ordering::SeqCst);
    }
    task.latch.decrement();
}

/// A fixed-size pool of worker threads executing scoped jobs.
///
/// Construct directly for tests ([`ThreadPool::new`]) or use the
/// process-wide instance behind [`crate::global`], sized by the
/// `GFP_THREADS` environment variable.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `nthreads` workers (clamped to at least 1).
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.clamp(1, 256);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(nthreads);
        for idx in 0..nthreads {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("gfp-pool-{idx}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        ThreadPool {
            shared,
            handles,
            nthreads,
        }
    }

    /// Number of worker threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Runs `f` with a [`Scope`] on which borrowing jobs can be
    /// spawned; returns once `f` and every spawned job finished.
    ///
    /// The calling thread *helps*: while waiting it executes queued
    /// jobs, so nested scopes cannot starve the pool.
    ///
    /// # Panics
    ///
    /// Re-raises a panic if any spawned job panicked.
    pub fn scoped<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            latch: Arc::new(Latch::new()),
            joined: std::cell::Cell::new(false),
            _marker: PhantomData,
        };
        let ret = f(&scope);
        scope.join_all();
        ret
    }

    fn push(&self, task: Task) {
        let depth = {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.push_back(task);
            q.len()
        };
        if telemetry::enabled() {
            // Per-job hot path: cached handles, not registry probes.
            static JOBS_SUBMITTED: telemetry::CounterHandle =
                telemetry::CounterHandle::new("pool.jobs.submitted");
            static QUEUE_DEPTH_PEAK: telemetry::CounterHandle =
                telemetry::CounterHandle::new("pool.queue_depth.peak");
            JOBS_SUBMITTED.add(1);
            QUEUE_DEPTH_PEAK
                .cell()
                .fetch_max(depth as u64, Ordering::Relaxed);
        }
        self.shared.job_cv.notify_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(t) = q.pop_front() {
                    break Some(t);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.job_cv.wait(q).expect("queue lock");
            }
        };
        match task {
            Some(t) => run_task(t),
            None => return,
        }
    }
}

/// Handle for spawning borrowing jobs inside [`ThreadPool::scoped`].
pub struct Scope<'pool, 'scope> {
    pool: &'pool ThreadPool,
    latch: Arc<Latch>,
    joined: std::cell::Cell<bool>,
    // Invariant over 'scope so the borrow checker pins captured
    // references for the whole scope.
    _marker: PhantomData<std::cell::Cell<&'scope mut ()>>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Submits `f` to the pool. `f` may borrow data living at least
    /// as long as `'scope`; the scope joins it before returning.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the job is joined before 'scope ends (join_all runs
        // in `scoped` and again — idempotently — in Drop, covering
        // panics inside the scope body), so the erased lifetime never
        // actually outlives the borrows it captures.
        let job: Job = unsafe { std::mem::transmute(boxed) };
        self.latch.increment();
        self.pool.push(Task {
            job,
            latch: Arc::clone(&self.latch),
        });
    }

    fn join_all(&self) {
        if self.joined.get() {
            return;
        }
        loop {
            if self.latch.is_done() {
                break;
            }
            // Help: run whatever is queued (possibly other scopes'
            // jobs) instead of blocking a thread that could work.
            if let Some(task) = self.pool.shared.try_pop() {
                run_task(task);
                continue;
            }
            let pending = self.latch.pending.lock().expect("latch lock");
            if *pending > 0 {
                drop(self.latch.cv.wait(pending).expect("latch lock"));
            }
        }
        self.joined.set(true);
        if self.latch.panicked.load(Ordering::SeqCst) && !std::thread::panicking() {
            panic!("gfp-parallel: a pool job panicked");
        }
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        self.join_all();
    }
}
