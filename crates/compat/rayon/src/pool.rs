//! The persistent worker pool behind the shim's parallel regions.
//!
//! The first version of this shim spawned fresh `std::thread::scope` threads
//! for every parallel region, which made many-small-region callers (the
//! engine's sweep cells, the streaming clusterer's localized re-runs) pay a
//! thread-spawn latency per region. This module replaces that with a pool of
//! `available_parallelism() - 1` workers, started lazily on the first region
//! that actually wins budget tokens, and a [`scope`] primitive that submits
//! borrowing jobs to them.
//!
//! ## Soundness
//!
//! Jobs borrow the caller's stack (`'env`), but a persistent worker is a
//! `'static` thread, so [`Scope::submit`] erases the lifetime with a
//! `transmute`. That is sound if and only if every submitted job has
//! *finished running* before the borrows expire — which [`scope`] enforces
//! unconditionally: it waits on the scope's completion latch after the
//! caller's closure returns **and** when it unwinds (the closure runs under
//! `catch_unwind`, and the latch wait happens before the panic is resumed).
//! Nothing else in this module hands a job to a worker.
//!
//! ## No deadlocks under nesting
//!
//! A thread only blocks in [`scope`] if it submitted jobs, and it can only
//! submit jobs while holding at least one token of the global thread budget
//! (the callers in `lib.rs` gate submission on `acquire_tokens`). The budget
//! equals the worker count, so "every worker is blocked in a nested scope"
//! would require `workers + 1` tokens (the outermost waiter holds one too) —
//! more than the budget. At least one worker is therefore always free to
//! drain the queue, and every job terminates.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The payload of a panicking job, carried back to the scope that waits.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased, lifetime-erased unit of work that returns its panic
/// payload instead of unwinding, plus the latch of the scope that waits for
/// it. The worker completes the latch only after it has counted the job.
type QueuedJob = (
    Box<dyn FnOnce() -> Option<PanicPayload> + Send + 'static>,
    Arc<Latch>,
);

struct Queue {
    jobs: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
}

/// Locks ignoring poisoning: workers never panic while holding the queue
/// lock (job panics are caught around the job call, outside the lock).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide queue; spawns the workers on first use.
fn queue() -> &'static Queue {
    static QUEUE: OnceLock<Queue> = OnceLock::new();
    QUEUE.get_or_init(|| Queue {
        jobs: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
    })
}

/// Per-worker profiling counters, updated by the worker itself (uncontended
/// relaxed atomics) and read by [`pool_stats`] and the registry callbacks.
#[derive(Default)]
struct WorkerCounters {
    tasks: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// One counter block per pool worker, allocated once for the process's fixed
/// worker count (the pool never grows or shrinks after start).
fn worker_counters() -> &'static [WorkerCounters] {
    static COUNTERS: OnceLock<Box<[WorkerCounters]>> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (0..crate::pool_worker_count())
            .map(|_| WorkerCounters::default())
            .collect()
    })
}

static STARTED: OnceLock<()> = OnceLock::new();

/// Ensures the worker threads exist (idempotent, racing initializers spawn
/// once). Separate from `queue()` so the queue can be constructed inside the
/// `OnceLock` initializer without self-reference.
fn ensure_workers() {
    STARTED.get_or_init(|| {
        let count = crate::pool_worker_count();
        for i in 0..count {
            std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{i}"))
                .spawn(move || worker_loop(queue(), &worker_counters()[i]))
                .expect("rayon-shim: failed to spawn pool worker");
        }
        // Surface the pool through the metrics registry: the aggregate
        // counters are evaluated lazily at snapshot time, so the hot path
        // pays nothing beyond the workers' own relaxed stores.
        static POOL_PEAK: obs::LazyGauge = obs::LazyGauge::with_help(
            "dbscan_pool_workers_peak",
            "Largest worker count the persistent pool has reached",
        );
        POOL_PEAK.set_max(count as i64);
        obs::describe(
            "dbscan_pool_tasks_total",
            "Jobs completed by the worker pool",
        );
        obs::describe(
            "dbscan_pool_busy_nanos_total",
            "Cumulative nanoseconds pool workers spent running jobs",
        );
        obs::describe(
            "dbscan_pool_idle_nanos_total",
            "Cumulative nanoseconds pool workers spent waiting for work",
        );
        obs::register_gauge_fn("dbscan_pool_tasks_total", || {
            worker_counters()
                .iter()
                .map(|c| c.tasks.load(Ordering::Relaxed))
                .sum::<u64>() as i64
        });
        obs::register_gauge_fn("dbscan_pool_busy_nanos_total", || {
            worker_counters()
                .iter()
                .map(|c| c.busy_ns.load(Ordering::Relaxed))
                .sum::<u64>() as i64
        });
        obs::register_gauge_fn("dbscan_pool_idle_nanos_total", || {
            worker_counters()
                .iter()
                .map(|c| c.idle_ns.load(Ordering::Relaxed))
                .sum::<u64>() as i64
        });
    });
}

fn worker_loop(queue: &'static Queue, counters: &'static WorkerCounters) {
    loop {
        let wait_start = Instant::now();
        let (job, latch) = {
            let mut jobs = lock(&queue.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue
                    .available
                    .wait(jobs)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        counters
            .idle_ns
            .fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let busy_start = Instant::now();
        let panic = job();
        counters
            .busy_ns
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        counters.tasks.fetch_add(1, Ordering::Relaxed);
        // Count first, then wake the scope: a caller that reads the pool
        // counters after its scope returns sees every job it submitted.
        latch.complete(panic);
    }
}

/// Profiling counters of one pool worker, as captured by [`pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Jobs this worker has completed.
    pub tasks: u64,
    /// Total time spent running jobs.
    pub busy: Duration,
    /// Total time spent waiting for work (only counted once a wait ends, so
    /// a currently-parked worker's ongoing wait is not yet included).
    pub idle: Duration,
}

/// Point-in-time profiling view of the persistent worker pool.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// One entry per worker, in spawn order. Empty until the pool starts.
    pub workers: Vec<WorkerProfile>,
    /// Largest worker count the pool has reached (the pool is fixed-size,
    /// so this is the worker count once started, 0 before).
    pub peak_size: usize,
    /// Whether the pool's threads have been spawned.
    pub started: bool,
}

impl PoolStats {
    /// Total jobs completed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total busy time summed across all workers. With a phase's wall time,
    /// this is the pool half of a parallel-efficiency estimate:
    /// `(busy_delta + wall) / (wall × threads)` — the `+ wall` term credits
    /// the caller thread, which works alongside the pool in every region.
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }
}

/// Captures the pool's per-worker task counts and busy/idle time. Cheap
/// (relaxed loads), safe to call whether or not the pool ever started.
pub fn pool_stats() -> PoolStats {
    let started = STARTED.get().is_some();
    if !started {
        return PoolStats::default();
    }
    let workers: Vec<WorkerProfile> = worker_counters()
        .iter()
        .map(|c| WorkerProfile {
            tasks: c.tasks.load(Ordering::Relaxed),
            busy: Duration::from_nanos(c.busy_ns.load(Ordering::Relaxed)),
            idle: Duration::from_nanos(c.idle_ns.load(Ordering::Relaxed)),
        })
        .collect();
    PoolStats {
        peak_size: workers.len(),
        workers,
        started,
    }
}

/// Allocation-free sample of the pool's cumulative busy nanoseconds summed
/// across workers — the scoped-delta primitive `obs::OpScope` brackets
/// operations with (sample before and after, subtract). Returns 0 until the
/// pool starts, so deltas stay correct across the pool's lazy spawn.
pub fn pool_busy_nanos() -> u64 {
    if STARTED.get().is_none() {
        return 0;
    }
    worker_counters()
        .iter()
        .map(|c| c.busy_ns.load(Ordering::Relaxed))
        .sum()
}

/// Parallelism available to a pool-backed operation: the pool's worker
/// count plus the calling thread, which always works alongside the pool.
pub fn pool_threads() -> usize {
    crate::pool_worker_count() + 1
}

/// Completion latch of one scope: outstanding job count plus the first
/// panic payload any of them produced.
struct Latch {
    state: Mutex<(usize, Option<PanicPayload>)>,
    done: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            state: Mutex::new((0, None)),
            done: Condvar::new(),
        }
    }

    fn add(&self) {
        lock(&self.state).0 += 1;
    }

    fn complete(&self, panic: Option<PanicPayload>) {
        let mut state = lock(&self.state);
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<PanicPayload> {
        let mut state = lock(&self.state);
        while state.0 > 0 {
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.1.take()
    }
}

/// Handle for submitting borrowing jobs to the pool from within [`scope`].
pub(crate) struct Scope<'env> {
    latch: Arc<Latch>,
    /// Invariant over `'env` so the compiler never shortens the jobs'
    /// lifetime behind the scope's back.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Hands `job` to a pool worker. The job may borrow anything that lives
    /// for `'env`; [`scope`] guarantees it completes before `'env` ends.
    pub(crate) fn submit(&mut self, job: Box<dyn FnOnce() + Send + 'env>) {
        self.latch.add();
        // SAFETY: `scope` waits on the latch before returning or resuming a
        // panic, so the job (and everything it borrows from `'env`) is done
        // executing before the borrows can expire. See the module docs.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        ensure_workers();
        let queue = queue();
        lock(&queue.jobs).push_back((
            Box::new(move || catch_unwind(AssertUnwindSafe(job)).err()),
            Arc::clone(&self.latch),
        ));
        queue.available.notify_one();
    }
}

/// Runs `f` with a [`Scope`] it can submit pool jobs through, returning once
/// `f` **and every submitted job** have finished. A panic from `f` or from a
/// job is re-raised here (after all jobs completed, so no borrow escapes).
pub(crate) fn scope<'env, R>(f: impl FnOnce(&mut Scope<'env>) -> R) -> R {
    let mut s = Scope {
        latch: Arc::new(Latch::new()),
        _env: std::marker::PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&mut s)));
    let job_panic = s.latch.wait();
    match result {
        Err(panic) => resume_unwind(panic),
        Ok(value) => {
            if let Some(panic) = job_panic {
                resume_unwind(panic);
            }
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_scope_has_counted_every_job_it_submitted() {
        if crate::pool_worker_count() == 0 {
            return; // no workers: nothing may be submitted
        }
        const JOBS: u64 = 64;
        for _ in 0..500 {
            let before = pool_stats().total_tasks();
            // The test thread is not a pool worker, so waiting here without
            // a budget token cannot starve the pool.
            scope(|s| {
                for i in 0..JOBS {
                    s.submit(Box::new(move || {
                        std::hint::black_box(i);
                    }));
                }
            });
            let after = pool_stats().total_tasks();
            assert!(
                after - before >= JOBS,
                "{} of {JOBS} jobs counted when the scope returned",
                after - before
            );
        }
    }
}
