//! Allocation budget of FT-CPG construction: a build that runs into the
//! node limit allocates a small constant number of times per node slot,
//! however many predecessor-context conjunctions it tries and rejects.
//!
//! The configurations are the large estimate-only points of the paper's
//! grid (80 processes, 5 nodes, k = 5): their arrival enumeration tries
//! millions of conjunctions and keeps a few percent, so an allocation per
//! tried conjunction shows up as tens of allocations per node.
//!
//! The count comes from a test-only global allocator that forwards every
//! call to [`System`] and counts allocations per thread.

use ftes::ft::PolicyAssignment;
use ftes::ftcpg::{build_ftcpg, BuildConfig, CopyMapping, CpgError};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{Architecture, FaultModel, Mapping, Transparency};
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

/// Allocations per node slot of [`BuildConfig::node_limit`] may not exceed
/// this on a build that ends over budget.
const PER_NODE_BOUND: f64 = 8.0;

/// The paper-grid point: processes, nodes, fault budget.
const PROCESSES: usize = 80;
const NODES: usize = 5;
const K: u32 = 5;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn over_budget_builds_stay_within_the_allocation_bound() {
    let config = BuildConfig::default();
    let mut per_node_slot = Vec::new();
    for seed in 0..4 {
        let app = generate_application(&GeneratorConfig::new(PROCESSES, NODES), seed)
            .expect("valid application");
        let arch = Architecture::homogeneous(NODES).expect("architecture");
        let mapping = Mapping::cheapest(&app, &arch).expect("mappable");
        let policies = PolicyAssignment::uniform_reexecution(&app, K);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).expect("placeable");
        let (result, count) = allocations_during(|| {
            build_ftcpg(&app, &policies, &copies, FaultModel::new(K), &Transparency::none(), config)
        });
        assert_eq!(
            result.map(|cpg| cpg.node_count()),
            Err(CpgError::GraphTooLarge { limit: config.node_limit }),
            "seed {seed}: the point must exceed the build budget"
        );
        let per_node = count as f64 / config.node_limit as f64;
        eprintln!("seed {seed}: {count} allocations, {per_node:.2} per node slot");
        per_node_slot.push((seed, per_node));
    }
    for (seed, per_node) in per_node_slot {
        assert!(
            per_node <= PER_NODE_BOUND,
            "seed {seed}: {per_node:.2} allocations per node slot (bound {PER_NODE_BOUND})"
        );
    }
}
