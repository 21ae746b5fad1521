//! The persistent solver runtime: one locked task queue.
//!
//! Parallel maps used to spawn fresh scoped threads on every call; at
//! real batch sizes the spawn/join overhead ate the parallelism
//! (`BENCH_search.json` recorded `parallel_speedup ≈ 1.0`). This module
//! replaces that with **one lazily-initialized pool of persistent
//! workers** around a single `Mutex<VecDeque>` and a single condvar:
//!
//! * workers pop from the front of the queue and wait on the condvar
//!   while it is empty;
//! * external threads push their tasks to the back and wait on the same
//!   condvar until their job completes. A job's last task notifies it
//!   after its final access to job memory, so the job can live on the
//!   submitter's stack;
//! * **nested submission** is first-class: a task that itself calls
//!   [`WorkPool::map`] pushes its tasks to the *front* and *helps* —
//!   running queued tasks, its own newest first, until its job drains —
//!   so concurrent `ContextPool` solves share the pool without convoying
//!   and without deadlock (workers never block on a job);
//! * every task is **one item**: the pool's callers map a few long items
//!   (best-first lanes, fault-campaign lanes), so any free worker takes
//!   the next one.
//!
//! One queue is enough: the solver's parallel work is a handful of
//! long tasks per solve (one per best-first lane, see
//! [`crate::search`]), nearly all submitted from outside the pool, so
//! per-worker queues would have almost nothing to balance (README
//! "Solver runtime" gives the measured task and steal counts).
//!
//! The global pool is sized once from [`available_workers`] (which
//! honors `TEMP_THREADS`) on first use. Explicit pools with any worker
//! count can be built for tests and benchmarks; dropping one wakes,
//! joins and frees its workers.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle for bounded solves.
///
/// A token is shared between the thread that owns a deadline and the
/// costing stream working on its behalf: the stream polls
/// [`CancelToken::is_cancelled`] between positions and, once it reports
/// true, stops as soon as it holds a feasible plan. Cancellation is *cooperative* — an item already
/// executing runs to completion — so the pool is never poisoned.
///
/// Tokens are cheap to clone (an `Arc` around an atomic) and may carry a
/// deadline: once the deadline passes, `is_cancelled` latches the flag so
/// later polls short-circuit without reading the clock.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that self-cancels once `budget` has elapsed from now (and
    /// can still be cancelled early by hand).
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested or the deadline has
    /// passed. An expired deadline latches the flag, so subsequent polls
    /// are a single atomic load.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Error returned by [`WorkPool::try_map`] when a task's closure
/// panicked: the failed job is surfaced to the submitter instead of
/// re-panicking, and the pool keeps serving (no worker died — the task
/// caught the unwind and completed its bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPanicked;

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a solver pool map task panicked")
    }
}

impl std::error::Error for TaskPanicked {}

/// One schedulable unit: one item of a job.
struct Task {
    job: *const JobHeader,
    index: usize,
}

// SAFETY: a task is moved through the queue to exactly one executing
// thread; the job it points at outlives it (the submitter waits for
// `pending` to reach zero) and is `Sync` (see `MapJob`).
unsafe impl Send for Task {}

/// The type-erased, job-generic header every job embeds first (`repr(C)`
/// in the concrete job type guarantees the cast back).
struct JobHeader {
    /// Runs one item of the job. Must not unwind.
    run: unsafe fn(*const JobHeader, usize),
    /// Tasks not yet finished. The submitter frees the job only after
    /// observing zero, and executors never touch job memory after their
    /// decrement — the decrement is the last job access.
    pending: AtomicUsize,
    /// Set when any task's closure panicked.
    panicked: AtomicBool,
}

/// Counters the benchmarks and stress tests read.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Tasks executed by any thread.
    pub executed: u64,
}

struct PoolShared {
    queue: Mutex<VecDeque<Task>>,
    /// Signals new tasks, job completions and shutdown, always with the
    /// queue lock taken in between, so no check-then-wait misses one.
    /// It lives in the pool (not the job) so a completing executor never
    /// touches a possibly-freed job to wake its submitter.
    wake: Condvar,
    executed: AtomicU64,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Task>> {
        self.queue.lock().expect("pool queue lock")
    }

    fn pop(&self) -> Option<Task> {
        self.lock().pop_front()
    }
}

/// A persistent thread pool over one shared task queue. See the module
/// docs.
pub struct WorkPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

thread_local! {
    /// Identity of the pool the current thread works for, when it is a
    /// pool worker — lets `map` detect nested submission.
    static CURRENT_POOL: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The global pool, sized from [`available_workers`] on first use
/// (honoring `TEMP_THREADS`).
pub fn global() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| WorkPool::with_workers(available_workers()))
}

/// Number of workers the global pool runs on this machine.
///
/// Honors a `TEMP_THREADS` environment override (clamped to the machine's
/// `available_parallelism`) so CI and benchmarks can pin worker counts
/// reproducibly; unset, zero or unparsable values fall back to the
/// hardware count.
pub fn available_workers() -> usize {
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    clamp_override(std::env::var("TEMP_THREADS").ok().as_deref(), hardware)
}

/// The `TEMP_THREADS` clamping rule, factored out so it is testable
/// without mutating process environment (setenv racing getenv across
/// test threads is undefined behavior on glibc).
fn clamp_override(raw: Option<&str>, hardware: usize) -> usize {
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(hardware),
        _ => hardware,
    }
}

impl WorkPool {
    /// Builds a pool with `workers` persistent worker threads (at least
    /// one). Worker counts above the machine's core count are legal —
    /// correctness tests use them to force preemption-heavy schedules.
    pub fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            executed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("temp-worker-{index}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Execution counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
        }
    }

    /// Maps `f` over `items` on the pool, preserving order, one task per
    /// item. Results are written straight into their output slots — no
    /// `Vec<Option<R>>` pass, no per-item `Option`.
    ///
    /// Safe to call from inside a pool task (nested submission: the
    /// worker helps instead of blocking) and from any number of external
    /// threads concurrently.
    ///
    /// # Panics
    ///
    /// Propagates (as a fresh panic) any panic raised by `f`; already
    /// computed results are leaked, never dropped uninitialized. Use
    /// [`WorkPool::try_map`] to receive the failure as an error instead.
    pub fn map<T, R, F>(&self, items: &[T], f: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_map(items, f) {
            Ok(out) => out,
            Err(TaskPanicked) => panic!("solver pool: a map task panicked"),
        }
    }

    /// As [`WorkPool::map`], but a panicking closure is surfaced as
    /// `Err(TaskPanicked)` instead of re-panicking in the submitter. The
    /// failed job is fully drained first (every task completes its
    /// bookkeeping, the panic is caught inside the task), so the pool —
    /// including the shared global one — keeps serving subsequent jobs.
    /// Already computed results of the failed job are leaked, never
    /// dropped uninitialized.
    ///
    /// # Errors
    ///
    /// Returns [`TaskPanicked`] when any invocation of `f` panicked.
    pub fn try_map<T, R, F>(&self, items: &[T], f: &F) -> std::result::Result<Vec<R>, TaskPanicked>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let nested = self.on_this_pool();
        if n == 1 || self.workers() == 1 && !nested {
            // One item (or a 1-worker pool called externally, where
            // dispatch would serialize anyway with extra hops): run
            // inline, catching the unwind so the error contract holds on
            // this path too.
            return catch_unwind(AssertUnwindSafe(|| items.iter().map(f).collect()))
                .map_err(|_| TaskPanicked);
        }

        let mut out: Vec<R> = Vec::with_capacity(n);
        let job = MapJob::<T, R, F> {
            header: JobHeader {
                run: run_map_item::<T, R, F>,
                pending: AtomicUsize::new(n),
                panicked: AtomicBool::new(false),
            },
            items: items.as_ptr(),
            f,
            out: out.as_mut_ptr(),
        };
        let header = &job.header as *const JobHeader;
        let tasks = (0..n).map(|index| Task { job: header, index });

        let mut queue = self.shared.lock();
        if nested {
            // Nested submission: queue at the front (pushed in order, so
            // the newest task runs first and the working set stays hot)
            // and help until the job drains.
            for task in tasks {
                queue.push_front(task);
            }
            drop(queue);
            self.shared.wake.notify_all();
            while job.header.pending.load(Ordering::Acquire) > 0 {
                match self.shared.pop() {
                    Some(task) => execute(&self.shared, task),
                    None => std::thread::yield_now(),
                }
            }
        } else {
            // External submission: queue at the back, then wait on the
            // pool's condvar. The job's last task takes the queue lock
            // before notifying, so the check-then-wait below cannot miss
            // the wakeup.
            queue.extend(tasks);
            self.shared.wake.notify_all();
            while job.header.pending.load(Ordering::Acquire) > 0 {
                queue = self.shared.wake.wait(queue).expect("pool queue lock");
            }
        }

        if job.header.panicked.load(Ordering::Acquire) {
            // `out` still has length 0: computed results leak, nothing
            // uninitialized is dropped.
            return Err(TaskPanicked);
        }
        // SAFETY: all `n` tasks completed without panic, so every slot
        // `0..n` was written exactly once.
        unsafe { out.set_len(n) };
        Ok(out)
    }

    /// Tries to execute one queued task on the calling thread and
    /// returns whether it did. Safe from workers and from external
    /// threads alike.
    ///
    /// This is the help-while-waiting hook for code that must park on an
    /// external condition (e.g. a single-flight follower waiting for the
    /// leader's evaluation, see [`crate::shard::Flight::wait`]): instead
    /// of blocking idle while the pool is busy — possibly with the very
    /// fan-out the awaited computation submitted — the waiter drains one
    /// task per call and re-checks its condition in between.
    pub fn help_one(&self) -> bool {
        match self.shared.pop() {
            Some(task) => {
                execute(&self.shared, task);
                true
            }
            None => false,
        }
    }

    /// Whether the current thread is a worker of *this* pool.
    fn on_this_pool(&self) -> bool {
        CURRENT_POOL.with(|c| c.get()) == Some(Arc::as_ptr(&self.shared) as usize)
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.lock());
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: run queued tasks front first, and wait on the condvar
/// while the queue is empty, until the pool shuts down.
fn worker_loop(shared: Arc<PoolShared>) {
    CURRENT_POOL.with(|c| c.set(Some(Arc::as_ptr(&shared) as usize)));
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.pop_front() {
            drop(queue);
            execute(&shared, task);
            queue = shared.lock();
        } else if shared.shutdown.load(Ordering::Acquire) {
            return;
        } else {
            queue = shared.wake.wait(queue).expect("pool queue lock");
        }
    }
}

/// Executes one task and publishes its completion. The `pending`
/// decrement is the executor's final access to job memory; the waiter
/// wake-up goes through pool state only.
fn execute(shared: &PoolShared, task: Task) {
    // SAFETY: the job outlives its tasks because the submitter waits
    // until `pending` reaches zero, and `run` never unwinds.
    unsafe { ((*task.job).run)(task.job, task.index) };
    shared.executed.fetch_add(1, Ordering::Relaxed);
    // SAFETY: last access to job memory (see above).
    let remaining = unsafe { (*task.job).pending.fetch_sub(1, Ordering::AcqRel) };
    if remaining == 1 {
        // Job complete: taking the queue lock orders this wakeup after a
        // waiting submitter's `pending` check.
        drop(shared.lock());
        shared.wake.notify_all();
    }
}

/// The concrete map job. `repr(C)` pins the header first so the
/// type-erased `*const JobHeader` round-trips.
#[repr(C)]
struct MapJob<'a, T, R, F> {
    header: JobHeader,
    items: *const T,
    f: &'a F,
    out: *mut R,
}

// SAFETY: the raw pointers stand for `&[T]` (T: Sync at the call site)
// and an exclusively-partitioned output buffer (R: Send); each task
// writes its own slot, so no slot is written twice.
unsafe impl<T: Sync, R: Send, F: Sync> Sync for MapJob<'_, T, R, F> {}

/// Runs item `index` of a [`MapJob`], writing its result directly into
/// its output slot. A panic from `f` is caught and recorded; the task
/// still completes (its unwritten slot is never read — the submitter
/// propagates the panic instead).
///
/// # Safety
///
/// `header` must point at the header of a live `MapJob<T, R, F>` whose
/// `items` and `out` hold more than `index` elements, and no other task
/// of that job may run with the same `index`.
unsafe fn run_map_item<T, R, F>(header: *const JobHeader, index: usize)
where
    F: Fn(&T) -> R,
{
    let job = header as *const MapJob<T, R, F>;
    let result = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: per the contract above, `index` is in bounds of both
        // buffers and this task is the only writer of slot `index`.
        let value = ((*job).f)(&*(*job).items.add(index));
        (*job).out.add(index).write(value);
    }));
    if result.is_err() {
        (*job).header.panicked.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_preserve_order_and_values() {
        let pool = WorkPool::with_workers(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map(&items, &|x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        assert!(pool.stats().executed > 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = WorkPool::with_workers(2);
        let empty: Vec<u32> = vec![];
        assert!(pool.map(&empty, &|x| *x).is_empty());
        assert_eq!(pool.map(&[5u32], &|x| x + 1), vec![6]);
    }

    #[test]
    fn nested_submission_from_inside_a_task() {
        let pool = WorkPool::with_workers(3);
        let rows: Vec<u64> = (0..16).collect();
        let out = pool.map(&rows, &|&r| {
            let inner: Vec<u64> = (0..64).collect();
            pool.map(&inner, &|&c| r * 1000 + c).iter().sum::<u64>()
        });
        let expect: Vec<u64> = rows
            .iter()
            .map(|&r| (0..64).map(|c| r * 1000 + c).sum::<u64>())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_external_submitters_share_the_pool() {
        let pool = Arc::new(WorkPool::with_workers(4));
        let handles: Vec<_> = (0..6u64)
            .map(|s| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..500).collect();
                    pool.map(&items, &|x| x + s)
                })
            })
            .collect();
        for (s, h) in handles.into_iter().enumerate() {
            let out = h.join().expect("submitter panicked");
            assert_eq!(out, (0..500).map(|x| x + s as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn task_panics_propagate_to_the_submitter() {
        let pool = WorkPool::with_workers(2);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, &|&x| {
                assert!(x != 13, "boom");
                x
            })
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps serving jobs.
        assert_eq!(pool.map(&[1u32, 2], &|x| x * 2), vec![2, 4]);
    }

    #[test]
    fn try_map_surfaces_a_panicked_task_as_an_error() {
        let pool = WorkPool::with_workers(2);
        let items: Vec<u32> = (0..64).collect();
        let result = pool.try_map(&items, &|&x| {
            assert!(x != 13, "boom");
            x
        });
        assert_eq!(result, Err(TaskPanicked));
        // The failed job drained cleanly: the same pool serves the next
        // job, and a clean job returns Ok.
        assert_eq!(pool.try_map(&[1u32, 2], &|x| x * 2), Ok(vec![2, 4]));
        // The inline path (single item) honors the same contract.
        let inline = pool.try_map(&[7u32], &|_| -> u32 { panic!("boom") });
        assert_eq!(inline, Err(TaskPanicked));
    }

    #[test]
    fn cancel_token_latches_manual_and_deadline_cancellation() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "clones share one flag");

        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(expired.is_cancelled(), "zero budget expires immediately");
        assert!(expired.is_cancelled(), "expiry latches");

        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!generous.is_cancelled());
        generous.cancel();
        assert!(generous.is_cancelled(), "manual cancel beats the deadline");
    }

    /// Runs `body` on a fresh thread and fails the test if it has not
    /// returned within a minute, so a scheduling deadlock fails instead
    /// of hanging the suite.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => runner.join().expect("test body panicked"),
            Err(_) if runner.is_finished() => {
                std::panic::resume_unwind(runner.join().expect_err("body did not finish"))
            }
            Err(_) => panic!("pool deadlocked"),
        }
    }

    #[test]
    fn a_nested_job_is_drained_by_its_own_submitter() {
        within_a_minute(|| {
            let pool = WorkPool::with_workers(2);
            let inner_done = AtomicBool::new(false);
            let inner: Vec<u64> = (0..64).collect();
            let out = pool.map(&[0u64, 1], &|&outer| {
                if outer == 0 {
                    // Task A occupies its worker without helping
                    // until B's nested map has returned.
                    while !inner_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    0
                } else {
                    // Task B: with A's worker spinning, B's worker
                    // must run all 64 tasks of its own job.
                    let sum = pool.map(&inner, &|&c| c * 2).iter().sum::<u64>();
                    inner_done.store(true, Ordering::Release);
                    sum
                }
            });
            assert_eq!(out, vec![0, (0..64).map(|c| c * 2).sum::<u64>()]);
        });
    }

    #[test]
    fn a_nested_panic_fails_only_the_outer_job() {
        within_a_minute(|| {
            let pool = WorkPool::with_workers(2);
            let inner: Vec<u32> = (0..32).collect();
            let result = pool.try_map(&[0u32, 1, 2, 3], &|&outer| {
                pool.try_map(&inner, &|&x| {
                    assert!(x != 7, "boom");
                    outer + x
                })
                .expect("the inner job panicked")
                .len()
            });
            assert_eq!(result, Err(TaskPanicked));
            // Both workers survived: two tasks that wait for each other
            // only finish if they run at the same time.
            let meet = std::sync::Barrier::new(2);
            let out = pool.try_map(&[1u32, 2], &|&x| {
                meet.wait();
                x * 10
            });
            assert_eq!(out, Ok(vec![10, 20]));
        });
    }

    #[test]
    fn one_worker_pool_runs_inline_for_external_callers() {
        let pool = WorkPool::with_workers(1);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(
            pool.map(&items, &|x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn temp_threads_override_clamps_and_falls_back() {
        assert_eq!(clamp_override(Some("1"), 8), 1);
        assert_eq!(clamp_override(Some(" 4 "), 8), 4, "whitespace tolerated");
        assert_eq!(clamp_override(Some("1000000"), 8), 8, "clamped to machine");
        assert_eq!(clamp_override(Some("0"), 8), 8, "zero is ignored");
        assert_eq!(clamp_override(Some("not-a-number"), 8), 8);
        assert_eq!(clamp_override(None, 8), 8);
    }
}
