//! Std-only data parallelism for the `gfp` numeric kernels.
//!
//! The convex-iteration pipeline spends nearly all of its time in a
//! handful of kernels (PSD-cone reconstruction, the bisection and
//! reflector application of the partial eigensolver). This crate
//! gives them a shared, dependency-free worker pool plus a
//! deterministic fan-out helper:
//!
//! * [`ThreadPool`] — fixed worker set with **scoped** job submission
//!   ([`ThreadPool::scoped`]): jobs may borrow stack data, and waiting
//!   threads *help* by draining the queue so nested parallelism never
//!   deadlocks.
//! * [`global`] — the process-wide pool, sized by the `GFP_THREADS`
//!   environment variable (default:
//!   [`std::thread::available_parallelism`]).
//! * [`parallel_for_each_chunk`] — the one structured helper, with a
//!   **determinism contract** (below).
//! * [`should_parallelize`] — the size-only serial/parallel cutover
//!   every dispatching kernel goes through.
//! * [`with_pool`] — thread-local pool override so tests can compare
//!   1/2/8-worker executions inside one process.
//!
//! # Determinism contract
//!
//! Results must be bitwise identical for every worker count.
//! [`parallel_for_each_chunk`] runs a closure over pre-split disjoint
//! output chunks, so each output element is written by exactly one
//! job. A kernel keeps its bits by computing every element with a
//! fixed inner order; its chunk partition may then depend on sizes
//! and the worker count, never on data values.
//!
//! # Example
//!
//! ```
//! let mut out = vec![0.0f64; 1000];
//! {
//!     let chunks: Vec<&mut [f64]> = out.chunks_mut(100).collect();
//!     gfp_parallel::parallel_for_each_chunk(chunks, |idx, chunk| {
//!         for (k, v) in chunk.iter_mut().enumerate() {
//!             *v = (idx * 100 + k) as f64;
//!         }
//!     });
//! }
//! assert_eq!(out[123], 123.0);
//! ```

mod pool;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use pool::{Scope, ThreadPool};

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

static HOST_CPUS: OnceLock<usize> = OnceLock::new();

/// When set (the default), [`effective_num_threads`] clamps the active
/// pool width to the host's CPU count so oversubscribed pools take the
/// serial path. Benches and determinism tests flip it off to exercise
/// parallel code paths on small hosts.
static HOST_CLAMP: AtomicBool = AtomicBool::new(true);

thread_local! {
    static OVERRIDE: Cell<Option<*const ThreadPool>> = const { Cell::new(None) };
}

/// Worker count requested by the environment: `GFP_THREADS` if it
/// parses to a positive integer, otherwise the machine's available
/// parallelism (at least 1).
pub fn env_num_threads() -> usize {
    if let Ok(s) = std::env::var("GFP_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(256);
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool, created on first use with
/// [`env_num_threads`] workers.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(env_num_threads()))
}

/// Runs `f` with `pool` substituted for the global pool on this
/// thread (the override does not propagate into pool workers, so it
/// governs top-level dispatch only). Restores the previous override
/// on exit, including on panic.
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const ThreadPool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(pool as *const ThreadPool)));
    let _restore = Restore(prev);
    f()
}

/// The pool that [`parallel_for_each_chunk`] on this thread
/// dispatches to: the [`with_pool`] override if one is active, else
/// the global pool.
fn active<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    match OVERRIDE.with(|o| o.get()) {
        // SAFETY: the pointer was set by `with_pool`, whose borrow of
        // the pool is alive for the whole dynamic extent of its
        // closure — which is where we are now.
        Some(ptr) => f(unsafe { &*ptr }),
        None => f(global()),
    }
}

/// Worker count of the currently active pool.
pub fn current_num_threads() -> usize {
    active(ThreadPool::num_threads)
}

/// Number of CPUs the host actually has (cached on first call).
pub fn host_cpus() -> usize {
    *HOST_CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Enables or disables the host-CPU clamp used by
/// [`effective_num_threads`]; returns the previous setting.
///
/// The clamp is on by default: a 4-worker pool on a 1-CPU host cannot
/// run jobs concurrently, so kernels should take their serial path.
/// Tests that verify the bitwise-determinism contract across worker
/// counts turn the clamp off so the parallel code paths still execute
/// on small hosts. Cutover decisions only pick between bitwise-equal
/// serial/parallel paths, so flipping this never changes results.
pub fn set_host_clamp(on: bool) -> bool {
    HOST_CLAMP.swap(on, Ordering::Relaxed)
}

/// Worker count kernels should plan for: the active pool width,
/// clamped to [`host_cpus`] unless the clamp is disabled via
/// [`set_host_clamp`]. Extra workers beyond the physical CPU count
/// only add scheduling overhead, so cutover heuristics use this
/// instead of [`current_num_threads`].
pub fn effective_num_threads() -> usize {
    let n = current_num_threads();
    if HOST_CLAMP.load(Ordering::Relaxed) {
        n.min(host_cpus())
    } else {
        n
    }
}

/// Adaptive serial/parallel cutover decision shared by the numeric
/// kernels.
///
/// Parallel dispatch pays off only when (a) more than one worker can
/// actually run ([`effective_num_threads`] > 1), (b) the total amount
/// of work clears a per-kernel floor (`min_total`, in kernel-specific
/// units such as flops, nonzeros or rows), and (c) each worker's share
/// clears `min_per_worker` so the per-job overhead amortizes.
///
/// The decision is a pure function of the work size and the
/// environment — never of the data values — so it preserves the
/// bitwise-determinism contract: whichever path is chosen produces
/// identical bits.
pub fn should_parallelize(work: usize, min_total: usize, min_per_worker: usize) -> bool {
    let eff = effective_num_threads();
    let go = eff > 1 && work >= min_total && work / eff >= min_per_worker;
    // Cutover telemetry (cached handles — this runs per kernel call):
    // hit/serial counters say how often dispatch pays off, the gauge
    // reports the worker count kernels are currently planning for.
    static CUTOVER_PARALLEL: gfp_telemetry::CounterHandle =
        gfp_telemetry::CounterHandle::new("parallel.cutover.parallel");
    static CUTOVER_SERIAL: gfp_telemetry::CounterHandle =
        gfp_telemetry::CounterHandle::new("parallel.cutover.serial");
    static EFFECTIVE_WORKERS: gfp_telemetry::GaugeHandle =
        gfp_telemetry::GaugeHandle::new("pool.effective_workers");
    if go {
        CUTOVER_PARALLEL.add(1);
    } else {
        CUTOVER_SERIAL.add(1);
    }
    EFFECTIVE_WORKERS.set(eff as f64);
    go
}

/// Runs `f(chunk_index, chunk)` over pre-split mutable chunks in
/// parallel. Chunks are disjoint by construction, so this is the
/// easiest deterministic way to fill an output buffer.
pub fn parallel_for_each_chunk<T, F>(chunks: Vec<&mut [T]>, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if chunks.is_empty() {
        return;
    }
    active(|pool| {
        if chunks.len() == 1 || pool.num_threads() == 1 {
            for (idx, chunk) in chunks.into_iter().enumerate() {
                f(idx, chunk);
            }
            return;
        }
        pool.scoped(|scope| {
            let f = &f;
            for (idx, chunk) in chunks.into_iter().enumerate() {
                scope.execute(move || f(idx, chunk));
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        let pool_ref = &pool;
        pool.scoped(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.execute(move || {
                    // Nested scope on the same (fully busy) pool: the
                    // waiting job must help drain the queue.
                    pool_ref.scoped(|inner| {
                        for _ in 0..4 {
                            inner.execute(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "pool job panicked")]
    fn job_panic_propagates_to_scope() {
        let pool = ThreadPool::new(2);
        pool.scoped(|scope| {
            scope.execute(|| panic!("boom"));
        });
    }

    /// Serializes tests that flip the process-global host clamp.
    static CLAMP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cutover_is_size_and_worker_aware() {
        let _guard = CLAMP_LOCK.lock().unwrap();
        let prev = set_host_clamp(false);
        let pool = ThreadPool::new(4);
        with_pool(&pool, || {
            assert_eq!(effective_num_threads(), 4);
            // Big enough in total and per worker.
            assert!(should_parallelize(4096, 1024, 256));
            // Total below the kernel floor.
            assert!(!should_parallelize(512, 1024, 64));
            // Per-worker share too small to amortize dispatch.
            assert!(!should_parallelize(1100, 1024, 512));
        });
        let one = ThreadPool::new(1);
        with_pool(&one, || {
            // One worker never parallelizes regardless of size.
            assert!(!should_parallelize(usize::MAX / 2, 1, 1));
        });
        set_host_clamp(prev);
    }

    #[test]
    fn host_clamp_limits_effective_threads() {
        let _guard = CLAMP_LOCK.lock().unwrap();
        let pool = ThreadPool::new(256);
        with_pool(&pool, || {
            let prev = set_host_clamp(true);
            assert!(effective_num_threads() <= host_cpus());
            set_host_clamp(false);
            assert_eq!(effective_num_threads(), 256);
            set_host_clamp(prev);
        });
    }

    #[test]
    fn env_threads_clamps() {
        // Can't mutate the env safely in tests; just check the global
        // pool exists and reports a sane count.
        assert!(global().num_threads() >= 1);
    }
}
