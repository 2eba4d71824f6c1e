//! Allocation budget of the control plane (DESIGN.md §17): one fixed fuzz
//! program through `AosSystem::run` under the benchmark's `control_dense`
//! configuration, with every call into the allocator counted. The budgets
//! are what keeps a sample, an organizer tick and a compile step off the
//! allocator: a `clone` that creeps back into one of them moves the counts
//! by whole multiples of the sample count, far past the slack pinned here.

use aoci_aos::AosSystem;
use aoci_fuzz::oracle::{config, policy_for};
use aoci_fuzz::sample_spec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the measuring thread only: the harness's own threads allocate
    /// too. `const` and without a destructor, so reading it from inside the
    /// allocator can neither allocate nor run after the slot is gone.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count() {
    if COUNTING.with(Cell::get) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Calls into the allocator one run may make per timer sample and per
/// optimizing compile. Both divide the same total, so either fails when a
/// sample, an organizer tick or a compile step starts cloning again. The
/// run reads 8.6 and 70.5 since the simplifier and the inliner's candidate
/// query stopped allocating; 14.2 and 116.8 before that, and 28.3 and 231.8
/// before the first budget.
const PER_SAMPLE: f64 = 10.0;
const PER_COMPILE: f64 = 85.0;

#[test]
fn one_control_dense_run_stays_inside_its_allocation_budget() {
    // The campaign-1 program with the most compiles of the first 60.
    let spec = sample_spec(1, 1);
    let program = aoci_workloads::build_fuzz(&spec).expect("campaign 1 specs build").program;
    // The oracle's configuration, which `control_dense` copies, with OSR,
    // async compile, faults and the recorder off.
    let system = AosSystem::new(&program, config(policy_for(&spec)));
    COUNTING.with(|c| c.set(true));
    let report = system.run();
    COUNTING.with(|c| c.set(false));
    let report = report.expect("the program runs clean");
    let calls = CALLS.load(Ordering::Relaxed) as f64;
    let (samples, compiles) = (report.samples as f64, f64::from(report.opt_compilations));
    println!(
        "{calls} allocations and reallocations: {:.1} per sample ({samples}), {:.1} per optimizing compile ({compiles})",
        calls / samples,
        calls / compiles,
    );
    assert!(samples >= 300.0 && compiles >= 40.0, "the program no longer exercises the control plane");
    assert!(calls / samples <= PER_SAMPLE, "{:.1} allocator calls per sample", calls / samples);
    assert!(calls / compiles <= PER_COMPILE, "{:.1} allocator calls per compile", calls / compiles);
}
