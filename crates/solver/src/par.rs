//! Data-parallel map facade over the work-stealing runtime.
//!
//! The offline build environment has no rayon, so candidate costing uses
//! this hand-rolled equivalent of `par_iter().map().collect()`:
//! [`par_map`] dispatches onto the persistent [`crate::runtime`]
//! work-stealing pool, with an **adaptive serial cutoff**. Each call site
//! class keeps an EWMA of its observed per-item cost (`ParClass`); when
//! `items × estimate` falls below the dispatch threshold the map runs
//! inline, so tiny batches (a handful of DP transitions) never pay queue
//! traffic, while real batches fan out in chunks of about 100 µs of work
//! each — one item per task when an item costs more than that, as an
//! exact candidate evaluation does, so idle workers steal single
//! candidates.
//!
//! `TEMP_THREADS` (clamped to the machine's `available_parallelism`)
//! controls the worker count and the size of the global pool.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::runtime;

/// Number of workers a parallel map would use on this machine.
///
/// Honors a `TEMP_THREADS` environment override (clamped to the machine's
/// `available_parallelism`) so CI and benchmarks can pin worker counts
/// reproducibly; unset, zero or unparsable values fall back to the
/// hardware count. The global pool is sized from this on first use.
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

/// Dispatching below this total estimated batch cost is not worth the
/// queue round-trip (measured: external submission costs tens of µs).
const DISPATCH_THRESHOLD_NS: u64 = 300_000;

/// Target per-chunk duration: long enough to amortize one task's queue
/// traffic, short enough that a skewed batch still steals well.
const TARGET_CHUNK_NS: u64 = 100_000;

/// Per-call-site cost class: a lock-free EWMA of observed per-item nanos.
///
/// Each logical kind of batch (candidate costing, stage winner scan, ...)
/// declares one `static CLASS: ParClass = ParClass::new();` so cheap maps
/// do not pollute the estimate of expensive ones. A fresh class starts
/// with no estimate and dispatches its first non-trivial batch to the
/// pool to learn one. Crate-private: every class is a solver call site.
pub(crate) struct ParClass {
    /// EWMA of per-item nanos; 0 = no observation yet.
    ewma_ns: AtomicU64,
}

impl ParClass {
    /// Const-constructible so classes can live in statics.
    pub(crate) const fn new() -> Self {
        ParClass {
            ewma_ns: AtomicU64::new(0),
        }
    }

    /// Current per-item estimate, if any batch has been observed.
    pub(crate) fn estimate_ns(&self) -> Option<u64> {
        match self.ewma_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Folds one observed batch into the EWMA (α = 1/4). Racy updates
    /// just blend two observations — precision is not needed here.
    fn observe(&self, total_ns: u64, items: usize) {
        if items == 0 {
            return;
        }
        let per_item = (total_ns / items as u64).max(1);
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            per_item
        } else {
            old - old / 4 + per_item / 4
        };
        self.ewma_ns.store(new.max(1), Ordering::Relaxed);
    }

    /// Whether a batch of `n` items is worth dispatching, and with what
    /// chunk size. `None` = run serial.
    fn plan(&self, n: usize, workers: usize) -> Option<usize> {
        if workers <= 1 || n <= 1 {
            return None;
        }
        match self.estimate_ns() {
            Some(est) => {
                if (n as u64).saturating_mul(est) < DISPATCH_THRESHOLD_NS {
                    return None;
                }
                let chunk = (TARGET_CHUNK_NS / est).max(1) as usize;
                // Keep at least ~2 chunks per worker for stealing slack.
                Some(chunk.min(n.div_ceil(workers * 2)).max(1))
            }
            // Unknown cost: dispatch to learn, with conservative chunks.
            None => Some((n / (workers * 8)).max(1)),
        }
    }
}

/// The default cost class used by [`par_map`] — candidate costing, the
/// dominant batch shape in the solver.
static COSTING_CLASS: ParClass = ParClass::new();

/// Maps `f` over `items`, preserving order, on the global work-stealing
/// pool, with the default (candidate-costing) cost class. Falls back to a
/// plain serial map when the batch is too small to be worth dispatching.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_class(&COSTING_CLASS, items, f)
}

/// As [`par_map`] with an explicit [`ParClass`], so call sites with very
/// different per-item costs keep separate serial-cutoff estimates.
pub(crate) fn par_map_class<T, R, F>(class: &ParClass, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let pool = runtime::global();
    let Some(chunk) = class.plan(n, pool.workers()) else {
        return items.iter().map(f).collect();
    };
    let start = std::time::Instant::now();
    let out = pool.map(items, &f, chunk);
    class.observe(start.elapsed().as_nanos() as u64, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn class_cutoff_learns_and_stays_serial_for_tiny_batches() {
        let class = ParClass::new();
        assert_eq!(class.estimate_ns(), None);
        // A fresh class dispatches (to learn) whenever workers > 1.
        assert!(class.plan(100, 4).is_some());
        assert_eq!(class.plan(100, 1), None, "single worker is always serial");

        // Teach it the batch was cheap: 100 items in 50 µs = 500 ns/item.
        class.observe(50_000, 100);
        let est = class.estimate_ns().expect("observed");
        assert!(est >= 1);
        // 100 items * 500 ns = 50 µs < 300 µs threshold: stay serial.
        assert_eq!(class.plan(100, 4), None);
        // 10_000 items clears the threshold and chunks sensibly.
        let chunk = class.plan(10_000, 4).expect("dispatch");
        assert!((1..=10_000 / 8 + 1).contains(&chunk));

        // An expensive class (1 ms/item) dispatches even small batches.
        let heavy = ParClass::new();
        heavy.observe(1_000_000_000, 1_000);
        assert!(heavy.plan(4, 4).is_some());
    }

    #[test]
    fn ewma_blends_observations() {
        let class = ParClass::new();
        class.observe(1_000_000, 1_000); // 1000 ns/item
        let first = class.estimate_ns().unwrap();
        class.observe(8_000_000, 1_000); // 8000 ns/item
        let second = class.estimate_ns().unwrap();
        assert!(second > first, "EWMA must move toward new observations");
        assert!(
            second < 8_000,
            "EWMA must not jump all the way to the new value"
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
