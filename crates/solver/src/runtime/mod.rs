//! The persistent work-stealing solver runtime.
//!
//! Candidate costing used to spawn fresh scoped threads on every
//! `par_map` call; at real batch sizes the spawn/join overhead ate the
//! parallelism (`BENCH_search.json` recorded `parallel_speedup ≈ 1.0`).
//! This module replaces that with **one lazily-initialized pool of
//! persistent workers**:
//!
//! * each worker owns a Chase–Lev deque ([`deque`]) — LIFO for its own
//!   tasks, stolen FIFO by idle peers, so skewed per-candidate costing
//!   times load-balance without a central queue;
//! * external threads submit through a shared injector and block on a
//!   pool-wide condvar until their job completes (the waiting protocol
//!   never touches job memory after the final task decrement, so the
//!   job can live on the submitter's stack);
//! * **nested submission** is first-class: a task that itself calls
//!   [`WorkPool::map`] pushes its chunks onto its own deque and *helps*
//!   — popping local work and stealing from peers until its job drains —
//!   so concurrent `ContextPool` solves share the pool without convoying
//!   and without deadlock (workers never block on a job);
//! * work is submitted in **chunks** sized by the caller so fine-grained
//!   items amortize dispatch, while expensive items (candidate costing)
//!   keep chunk = 1 for maximal stealing.
//!
//! The global pool is sized once from [`crate::par::available_workers`]
//! (which honors `TEMP_THREADS`) on first use. Explicit pools with any
//! worker count can be built for tests and benchmarks; dropping one
//! parks, joins and frees its workers.

pub(crate) mod deque;

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deque::{Steal, WsDeque};

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
/// re-panicking, and the pool keeps serving (no worker died — the chunk
/// caught the unwind and completed its bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPanicked;

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a work-stealing pool map task panicked")
    }
}

impl std::error::Error for TaskPanicked {}

/// One schedulable unit: a contiguous chunk of a job's items.
struct Task {
    job: *const JobHeader,
    start: usize,
    end: usize,
}

/// Raw task pointer that may cross threads (ownership is transferred
/// through the queues: exactly one thread executes and frees each task).
struct TaskPtr(*mut Task);
// SAFETY: see above — queue ownership transfer, never aliased execution.
unsafe impl Send for TaskPtr {}

/// The type-erased, job-generic header every job embeds first (`repr(C)`
/// in the concrete job type guarantees the cast back).
struct JobHeader {
    /// Runs items `[start, end)` of the job. Must not unwind.
    run: unsafe fn(*const JobHeader, usize, usize),
    /// Chunks not yet finished. The submitter frees the job only after
    /// observing zero, and executors never touch job memory after their
    /// decrement — the decrement is the last job access.
    pending: AtomicUsize,
    /// Set when any chunk's closure panicked.
    panicked: AtomicBool,
}

/// Counters the benchmarks and stress tests read.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Tasks executed by any thread.
    pub executed: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
}

struct PoolShared {
    deques: Vec<WsDeque<Task>>,
    injector: Mutex<VecDeque<TaskPtr>>,
    /// Worker parking and job-completion signaling. The condvar lives in
    /// the pool (not the job) so a completing executor never touches a
    /// possibly-freed job to wake its submitter.
    idle: Mutex<IdleState>,
    wake: Condvar,
    executed: AtomicU64,
    steals: AtomicU64,
    shutdown: AtomicBool,
}

#[derive(Default)]
struct IdleState {
    /// Workers currently parked on the condvar.
    sleepers: usize,
    /// Bumped on every job completion; external submitters wait on it.
    completions: u64,
}

/// A persistent work-stealing thread pool. See the module docs.
pub struct WorkPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

thread_local! {
    /// (pool identity, worker index) of the current thread, when it is a
    /// pool worker — lets `map` detect nested submission and find the
    /// worker's own deque.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// The global pool, sized from [`crate::par::available_workers`] on first
/// use (honoring `TEMP_THREADS`).
pub fn global() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| WorkPool::with_workers(crate::par::available_workers()))
}

impl WorkPool {
    /// Builds a pool with `workers` persistent worker threads (at least
    /// one). Worker counts above the machine's core count are legal —
    /// correctness tests use them to force preemption-heavy schedules.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            deques: (0..workers).map(|_| WsDeque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Mutex::new(IdleState::default()),
            wake: Condvar::new(),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("temp-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
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
        self.shared.deques.len()
    }

    /// Execution counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
        }
    }

    /// Maps `f` over `items` on the pool, preserving order, splitting the
    /// range into chunks of `chunk` items (clamped to at least 1).
    /// Results are written straight into their output slots — no
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
    pub fn map<T, R, F>(&self, items: &[T], f: &F, chunk: usize) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_map(items, f, chunk) {
            Ok(out) => out,
            Err(TaskPanicked) => panic!("work-stealing pool: a map task panicked"),
        }
    }

    /// As [`WorkPool::map`], but a panicking closure is surfaced as
    /// `Err(TaskPanicked)` instead of re-panicking in the submitter. The
    /// failed job is fully drained first (every chunk completes its
    /// bookkeeping, the panic is caught inside the chunk), so the pool —
    /// including the shared global one — keeps serving subsequent jobs.
    /// Already computed results of the failed job are leaked, never
    /// dropped uninitialized.
    ///
    /// # Errors
    ///
    /// Returns [`TaskPanicked`] when any invocation of `f` panicked.
    pub fn try_map<T, R, F>(
        &self,
        items: &[T],
        f: &F,
        chunk: usize,
    ) -> std::result::Result<Vec<R>, TaskPanicked>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let chunk = chunk.max(1);
        if n <= chunk || self.workers() == 1 && !self.on_this_pool() {
            // One chunk (or a 1-worker pool called externally, where
            // dispatch would serialize anyway with extra hops): run
            // inline, catching the unwind so the error contract holds on
            // this path too.
            return catch_unwind(AssertUnwindSafe(|| items.iter().map(f).collect()))
                .map_err(|_| TaskPanicked);
        }

        let mut out: Vec<R> = Vec::with_capacity(n);
        let chunks = n.div_ceil(chunk);
        let job = MapJob::<T, R, F> {
            header: JobHeader {
                run: run_map_chunk::<T, R, F>,
                pending: AtomicUsize::new(chunks),
                panicked: AtomicBool::new(false),
            },
            items: items.as_ptr(),
            f,
            out: out.as_mut_ptr(),
        };
        let header = &job.header as *const JobHeader;
        let tasks = (0..chunks).map(|c| {
            TaskPtr(Box::into_raw(Box::new(Task {
                job: header,
                start: c * chunk,
                end: ((c + 1) * chunk).min(n),
            })))
        });

        match self.worker_index() {
            Some(me) => {
                // Nested submission: queue on our own deque (newest-first
                // execution keeps the working set hot; peers steal the
                // oldest chunks) and help until the job drains.
                for t in tasks {
                    self.shared.deques[me].push(t.0);
                }
                self.notify_all();
                while job.header.pending.load(Ordering::Acquire) > 0 {
                    match find_task(&self.shared, Some(me)) {
                        Some(task) => execute(&self.shared, task),
                        None => std::thread::yield_now(),
                    }
                }
            }
            None => {
                // External submission: through the injector, then block
                // on the pool-wide completion condvar. Executors bump
                // `completions` under the idle lock, so the check-then-
                // wait below cannot miss a wakeup.
                {
                    let mut inj = self.shared.injector.lock().expect("injector lock");
                    inj.extend(tasks);
                }
                self.notify_all();
                let mut idle = self.shared.idle.lock().expect("idle lock");
                while job.header.pending.load(Ordering::Acquire) > 0 {
                    idle = self.shared.wake.wait(idle).expect("idle lock");
                }
                drop(idle);
            }
        }

        if job.header.panicked.load(Ordering::Acquire) {
            // `out` still has length 0: computed results leak, nothing
            // uninitialized is dropped.
            return Err(TaskPanicked);
        }
        // SAFETY: all `chunks` tasks completed without panic, so every
        // slot `0..n` was written exactly once.
        unsafe { out.set_len(n) };
        Ok(out)
    }

    /// Tries to execute one queued task on the calling thread and
    /// returns whether it did. Safe from workers (own deque first) and
    /// from external threads (injector, then stealing) alike.
    ///
    /// This is the help-while-waiting hook for code that must park on an
    /// external condition (e.g. a single-flight follower waiting for the
    /// leader's evaluation, see [`crate::shard::Flight::wait`]): instead
    /// of blocking idle while the pool is busy — possibly with the very
    /// fan-out the awaited computation submitted — the waiter drains one
    /// task per call and re-checks its condition in between.
    pub fn help_one(&self) -> bool {
        match find_task(&self.shared, self.worker_index()) {
            Some(task) => {
                execute(&self.shared, task);
                true
            }
            None => false,
        }
    }

    /// Whether the current thread is a worker of *this* pool.
    fn on_this_pool(&self) -> bool {
        self.worker_index().is_some()
    }

    fn worker_index(&self) -> Option<usize> {
        let id = Arc::as_ptr(&self.shared) as usize;
        CURRENT_WORKER.with(|c| match c.get() {
            Some((pool, index)) if pool == id => Some(index),
            _ => None,
        })
    }

    fn notify_all(&self) {
        // Taking the lock orders the notification after any sleeper's
        // queue re-scan, closing the lost-wakeup window.
        let _guard = self.shared.idle.lock().expect("idle lock");
        self.shared.wake.notify_all();
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.idle.lock().expect("idle lock");
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop own deque, else steal (injector first, then peers),
/// else park until new work is submitted.
fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    let id = Arc::as_ptr(&shared) as usize;
    CURRENT_WORKER.with(|c| c.set(Some((id, index))));
    loop {
        if let Some(task) = find_task(&shared, Some(index)) {
            execute(&shared, task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Park: announce sleepiness, re-scan once (a submitter that
        // missed our announcement published its tasks before we got the
        // lock — `notify_all` takes the same lock), then wait.
        let mut idle = shared.idle.lock().expect("idle lock");
        idle.sleepers += 1;
        drop(idle);
        if let Some(task) = find_task(&shared, Some(index)) {
            let mut idle = shared.idle.lock().expect("idle lock");
            idle.sleepers -= 1;
            drop(idle);
            execute(&shared, task);
            continue;
        }
        let mut idle = shared.idle.lock().expect("idle lock");
        // Re-check under the lock: a completion/submission may have
        // signaled between the scan and re-acquiring the lock.
        if !has_visible_work(&shared) && !shared.shutdown.load(Ordering::Acquire) {
            idle = shared.wake.wait(idle).expect("idle lock");
        }
        idle.sleepers -= 1;
        drop(idle);
    }
}

/// Racy check whether any queue looks non-empty.
fn has_visible_work(shared: &PoolShared) -> bool {
    if !shared.injector.lock().expect("injector lock").is_empty() {
        return true;
    }
    shared.deques.iter().any(|d| !d.is_empty())
}

/// Finds one task: own deque (LIFO), then the injector, then stealing
/// from peers (FIFO). `me` is `None` for external helper threads.
fn find_task(shared: &PoolShared, me: Option<usize>) -> Option<*mut Task> {
    if let Some(me) = me {
        if let Some(task) = shared.deques[me].take() {
            return Some(task);
        }
    }
    if let Some(TaskPtr(task)) = shared.injector.lock().expect("injector lock").pop_front() {
        return Some(task);
    }
    // Steal sweep, starting after our own index so victims spread.
    let n = shared.deques.len();
    let start = me.map(|m| m + 1).unwrap_or(0);
    let mut retry = true;
    while retry {
        retry = false;
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            match shared.deques[victim].steal() {
                Steal::Success(task) => {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(task);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
    }
    None
}

/// Executes one task and publishes its completion. The `pending`
/// decrement is the executor's final access to job memory; the waiter
/// wake-up goes through pool state only.
fn execute(shared: &PoolShared, task: *mut Task) {
    // SAFETY: `task` came out of a queue exactly once (deque/injector
    // ownership transfer); the job outlives its tasks because the
    // submitter blocks until `pending` reaches zero.
    let task = unsafe { Box::from_raw(task) };
    let header = task.job;
    unsafe {
        ((*header).run)(header, task.start, task.end);
    }
    shared.executed.fetch_add(1, Ordering::Relaxed);
    // SAFETY: last access to job memory (see above).
    let remaining = unsafe { (*header).pending.fetch_sub(1, Ordering::AcqRel) };
    if remaining == 1 {
        // Job complete: wake external waiters through the pool.
        let mut idle = shared.idle.lock().expect("idle lock");
        idle.completions = idle.completions.wrapping_add(1);
        drop(idle);
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
// and an exclusively-partitioned output buffer (R: Send); chunks never
// overlap, so no slot is written twice.
unsafe impl<T: Sync, R: Send, F: Sync> Sync for MapJob<'_, T, R, F> {}

/// Runs items `[start, end)` of a [`MapJob`], writing each result
/// directly into its output slot. Panics from `f` are caught and
/// recorded; the chunk still completes (its unwritten slots are never
/// read — the submitter propagates the panic instead).
unsafe fn run_map_chunk<T, R, F>(header: *const JobHeader, start: usize, end: usize)
where
    F: Fn(&T) -> R,
{
    let job = header as *const MapJob<T, R, F>;
    let result = catch_unwind(AssertUnwindSafe(|| {
        for i in start..end {
            let value = ((*job).f)(&*(*job).items.add(i));
            (*job).out.add(i).write(value);
        }
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
        let out = pool.map(&items, &|x| x * 3 + 1, 1);
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        // Chunked dispatch agrees with chunk = 1.
        let chunked = pool.map(&items, &|x| x * 3 + 1, 17);
        assert_eq!(out, chunked);
        assert!(pool.stats().executed > 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = WorkPool::with_workers(2);
        let empty: Vec<u32> = vec![];
        assert!(pool.map(&empty, &|x| *x, 1).is_empty());
        assert_eq!(pool.map(&[5u32], &|x| x + 1, 1), vec![6]);
    }

    #[test]
    fn nested_submission_from_inside_a_task() {
        let pool = WorkPool::with_workers(3);
        let rows: Vec<u64> = (0..16).collect();
        let out = pool.map(
            &rows,
            &|&r| {
                let inner: Vec<u64> = (0..64).collect();
                pool.map(&inner, &|&c| r * 1000 + c, 4).iter().sum::<u64>()
            },
            1,
        );
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
                    pool.map(&items, &|x| x + s, 1)
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
            pool.map(
                &items,
                &|&x| {
                    assert!(x != 13, "boom");
                    x
                },
                1,
            )
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps serving jobs.
        assert_eq!(pool.map(&[1u32, 2], &|x| x * 2, 1), vec![2, 4]);
    }

    #[test]
    fn try_map_surfaces_a_panicked_task_as_an_error() {
        let pool = WorkPool::with_workers(2);
        let items: Vec<u32> = (0..64).collect();
        let result = pool.try_map(
            &items,
            &|&x| {
                assert!(x != 13, "boom");
                x
            },
            1,
        );
        assert_eq!(result, Err(TaskPanicked));
        // The failed job drained cleanly: the same pool serves the next
        // job, and a clean job returns Ok.
        assert_eq!(pool.try_map(&[1u32, 2], &|x| x * 2, 1), Ok(vec![2, 4]));
        // The inline path (single chunk) honors the same contract.
        let inline = pool.try_map(&[7u32], &|_| -> u32 { panic!("boom") }, 8);
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

    #[test]
    fn one_worker_pool_runs_inline_for_external_callers() {
        let pool = WorkPool::with_workers(1);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(
            pool.map(&items, &|x| x + 1, 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }
}
