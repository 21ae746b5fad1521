//! Allocation smoke for the warm-cache costing loop: once the candidate
//! cache is populated, repeated exact costing must not touch the heap.
//! Every hot-path structure is scalar-only ([`CostReport`] clones are
//! flat copies, collective times are computed in closed form,
//! per-eval scratch lives in reusable arenas), so a single allocation
//! here is a regression, not noise.
//!
//! The counting allocator is thread-local-gated: only allocations made
//! by the measuring thread between `start()` and `stop()` are counted,
//! so runtime worker threads parked in the background cannot pollute
//! the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use temp_graph::models::ModelZoo;
use temp_graph::workload::Workload;
use temp_mapping::engines::MappingEngine;
use temp_sim::network::{ContentionSim, Flow};
use temp_solver::cost::WaferCostModel;
use temp_solver::search::SearchContext;
use temp_wsc::config::WaferConfig;
use temp_wsc::topology::{Coord, DieId};
use temp_wsc::units::MB;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn start_counting() {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
}

fn stop_counting() -> u64 {
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// After two warm-up passes (cache fill + lazy-init settle), a sweep of
/// warm-cache `cost_of` evaluations performs zero heap allocations.
#[test]
fn warm_cache_costing_is_allocation_free() {
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let ctx = SearchContext::new(WaferCostModel::new(WaferConfig::hpca(), model, workload));
    // The measurement is per-thread; keep the costing on this thread.
    ctx.set_parallel(false);
    let candidates: Vec<_> = ctx.candidates().iter().take(32).copied().collect();
    assert!(!candidates.is_empty());

    // Pass 1 fills the candidate cache (cold evaluations allocate
    // freely); pass 2 settles any remaining lazy initialization (lock
    // shards, thread-local tables) on the warm path.
    for _ in 0..2 {
        for cfg in &candidates {
            let _ = ctx.cost_of(cfg, MappingEngine::Tcme);
        }
    }

    start_counting();
    let mut acc = 0.0f64;
    for _ in 0..32 {
        for cfg in &candidates {
            let (t, _) = ctx.cost_of(cfg, MappingEngine::Tcme);
            if t.is_finite() {
                acc += t;
            }
        }
    }
    let allocs = stop_counting();
    assert!(acc.is_finite());
    assert_eq!(
        allocs, 0,
        "warm-cache costing loop made {allocs} heap allocations \
         (expected zero after warm-up)"
    );
}

/// After one warm-up solve, repeated `makespan_of` on a round of tiled
/// rings — many link-disjoint components, some of them copies, with row
/// rings joining some blocks — performs zero heap allocations: the
/// completions, component lists and water-filling scratch all live in the
/// thread's simulation arena.
#[test]
fn contention_makespan_is_allocation_free() {
    let wafer = WaferConfig::with_array(16, 8).expect("16x8 wafer");
    let (mesh, sim) = (wafer.mesh(), ContentionSim::new(&wafer));
    let die = |x: u32, y: u32| -> DieId { mesh.die_at(Coord::new(x, y)).expect("die in mesh") };
    let ring = |group: &[DieId], bytes: f64| -> Vec<Flow> {
        (0..group.len())
            .map(|i| Flow::xy(&mesh, group[i], group[(i + 1) % group.len()], bytes))
            .collect()
    };
    let mut flows = Vec::new();
    for y in (0..8).step_by(2) {
        for x in (0..16).step_by(2) {
            let bytes = if x % 4 == 0 { 16.0 } else { 24.0 } * MB;
            flows.extend(ring(
                &[die(x, y), die(x + 1, y), die(x + 1, y + 1), die(x, y + 1)],
                bytes,
            ));
        }
    }
    for x in (0..16).step_by(8) {
        let row: Vec<DieId> = (x..x + 4).map(|x| die(x, 0)).collect();
        flows.extend(ring(&row, 40.0 * MB));
    }
    let warm = sim.makespan_of(&flows);
    assert!(warm > 0.0);

    start_counting();
    let mut acc = 0.0f64;
    for _ in 0..64 {
        acc += sim.makespan_of(&flows);
    }
    let allocs = stop_counting();
    assert_eq!(
        acc.to_bits(),
        (0..64).fold(0.0f64, |a, _| a + warm).to_bits()
    );
    assert_eq!(
        allocs, 0,
        "repeated makespan_of made {allocs} heap allocations (expected zero after warm-up)"
    );
}
