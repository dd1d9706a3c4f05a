//! Allocation budget of one search step: once a search has warmed up its
//! proposal slots and kernel scratch, an iteration allocates (almost)
//! nothing, whatever the engine, process count or neighborhood size.
//!
//! Steady-state allocations are measured as the difference between two
//! runs of the same seeded search that differ only in iteration count:
//! the longer run repeats the shorter one and then continues, so set-up,
//! warm-up and the trace buffer cancel out and what remains is the cost of
//! the extra iterations.
//!
//! The count comes from a test-only global allocator that forwards every
//! call to [`System`] and counts allocations per thread.

use ftes_ft::PolicyAssignment;
use ftes_gen::{generate_application, GeneratorConfig};
use ftes_model::{Mapping, Time};
use ftes_opt::{search, EngineKind, PolicyMoves, SearchConfig, Synthesized};
use ftes_sched::SystemEvaluator;
use ftes_tdma::Platform;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to the system allocator, counting `alloc`, `alloc_zeroed` and
/// `realloc` calls on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above; `ptr` came from this allocator, hence `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per steady-state iteration may not exceed this, at any
/// process count or neighborhood size.
const PER_ITERATION_BOUND: f64 = 1.0;

/// Iteration counts of the short and the long run.
const SHORT: usize = 40;
const LONG: usize = 120;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

struct Instance {
    platform: Platform,
    initial: Synthesized,
    app: ftes_model::Application,
}

fn instance(processes: usize, k: u32) -> Instance {
    let app = generate_application(&GeneratorConfig::new(processes, 3), 11).expect("valid app");
    let platform = Platform::homogeneous(3, Time::new(8)).expect("platform");
    let mapping = Mapping::cheapest(&app, platform.architecture()).expect("mappable");
    let policies = PolicyAssignment::uniform_reexecution(&app, k);
    let initial = Synthesized::evaluate(&app, &platform, mapping, policies, k).expect("feasible");
    Instance { platform, initial, app }
}

fn config(iterations: usize, neighborhood: usize) -> SearchConfig {
    SearchConfig { iterations, neighborhood, seed: 3, ..SearchConfig::default() }
}

/// Allocations of one search of `iterations` iterations, kernel
/// construction and the initial state's copy excluded.
fn search_allocations(
    inst: &Instance,
    engine: EngineKind,
    k: u32,
    iterations: usize,
    neighborhood: usize,
) -> u64 {
    let mut evaluator = SystemEvaluator::new(&inst.app, &inst.platform, k);
    let initial = inst.initial.clone();
    let cfg = config(iterations, neighborhood);
    let (result, count) = allocations_during(|| {
        search(&mut evaluator, engine, initial, PolicyMoves::Full, cfg, None).expect("search runs")
    });
    drop(result);
    count
}

fn steady_state_per_iteration(allocations: impl Fn(usize) -> u64) -> f64 {
    let short = allocations(SHORT);
    let long = allocations(LONG);
    long.saturating_sub(short) as f64 / (LONG - SHORT) as f64
}

/// Checks `engine` at two process counts and the given neighborhood sizes.
fn assert_within_bound(engine: EngineKind, neighborhoods: &[usize]) {
    let k = 2;
    for processes in [10, 40] {
        let inst = instance(processes, k);
        for &neighborhood in neighborhoods {
            let per_iteration = steady_state_per_iteration(|iterations| {
                search_allocations(&inst, engine, k, iterations, neighborhood)
            });
            assert!(
                per_iteration <= PER_ITERATION_BOUND,
                "n={processes}, neighborhood={neighborhood}: \
                 {per_iteration:.2} allocations per {engine} iteration"
            );
        }
    }
}

#[test]
fn tabu_iterations_stay_within_the_allocation_bound() {
    assert_within_bound(EngineKind::Tabu, &[24, 48]);
}

#[test]
fn annealing_iterations_stay_within_the_allocation_bound() {
    assert_within_bound(EngineKind::Anneal, &[24]);
}

#[test]
fn greedy_iterations_stay_within_the_allocation_bound() {
    assert_within_bound(EngineKind::Greedy, &[24]);
}
