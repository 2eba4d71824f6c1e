//! Allocation budget of the control plane (DESIGN.md §17), of metering
//! (§14) and of program load (§18): one fixed fuzz program through
//! `AosSystem::run` under the benchmark's `control_dense` configuration,
//! the suite's programs through `typecheck::verify`, and bodies of more and
//! fewer calls through building, baseline compiling and decoding, with every
//! call into the allocator counted. The budgets are what keeps a sample, an organizer
//! tick, a compile step, a metrics epoch and a verified instruction off the
//! allocator: a `clone` that creeps back into one of them moves the counts
//! by whole multiples of the sample (epoch, method) count, far past the
//! slack pinned here.

use aoci_aos::{AosConfig, AosReport, AosSystem};
use aoci_fuzz::oracle::{config, policy_for};
use aoci_fuzz::sample_spec;
use aoci_ir::{
    decode_body, fusion_plan, typecheck, BinOp, Cond, Program, ProgramBuilder,
};
use aoci_vm::MethodVersion;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Set on the measuring thread only: the harness's own threads allocate
    /// too. `const` and without a destructor, so reading it from inside the
    /// allocator can neither allocate nor run after the slot is gone.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// The measuring thread's calls, so tests running side by side never
    /// count each other's.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
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
/// run reads 8.2 and 66.8 since call arguments live in one pool per body
/// (no `Vec` per call instruction for the inliner to clone); 8.6 and 70.5
/// since the simplifier and the inliner's candidate query stopped
/// allocating; 14.2 and 116.8 before that, and 28.3 and 231.8 before the
/// first budget.
const PER_SAMPLE: f64 = 10.0;
const PER_COMPILE: f64 = 75.0;

/// Calls into the allocator metering may add per epoch. The run reads 2.4
/// (113 calls over 47 epochs) since the series is stored as value rows over
/// shared name tables and metric names are static: all of it each name's
/// first record and the tables' growth, none of it the epochs themselves
/// (metering every sample instead, 370 epochs, makes no more calls). It read
/// 86.6 when every epoch cloned both maps and formatted twelve names.
const PER_EPOCH: f64 = 3.0;

/// Calls into the allocator `typecheck::verify` may make per method of the
/// suite's programs. It reads 1.1 since bodies are read in place, register
/// variables are one base per method and definite assignment reuses its
/// rows; 74.5 before, when every body was cloned and every instruction
/// visit cloned a row and built its operand lists.
const VERIFY_PER_METHOD: f64 = 2.0;

/// The campaign-1 program with the most compiles of the first 60, and the
/// oracle's configuration, which `control_dense` copies, with OSR, async
/// compile, faults and the recorder off.
fn control_dense() -> (Program, AosConfig) {
    let spec = sample_spec(1, 1);
    let program = aoci_workloads::build_fuzz(&spec).expect("campaign 1 specs build").program;
    (program, config(policy_for(&spec)))
}

/// `f()` with the allocator calls it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.with(Cell::get))
}

/// One run with the allocator calls it made on this thread.
fn counted_run(program: &Program, config: AosConfig) -> (AosReport, u64) {
    let system = AosSystem::new(program, config);
    let (report, calls) = counted(|| system.run());
    (report.expect("the program runs clean"), calls)
}

#[test]
fn one_control_dense_run_stays_inside_its_allocation_budget() {
    let (program, config) = control_dense();
    let (report, calls) = counted_run(&program, config);
    let calls = calls as f64;
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

/// The same run metered: what the registry adds, spread over its epochs.
/// Metering charges no simulated cycles, so both runs take the same path
/// and the difference is the registry's own.
#[test]
fn metering_stays_inside_its_allocation_budget_per_epoch() {
    let (program, config) = control_dense();
    let (_, plain) = counted_run(&program, config.clone());
    let (report, metered) = counted_run(&program, config.enable_metrics());
    let epochs = report.telemetry.expect("metrics were enabled").series.len() as f64;
    let per_epoch = (metered as f64 - plain as f64) / epochs;
    println!("{metered} allocator calls metered, {plain} unmetered: {per_epoch:.1} per epoch ({epochs})");
    assert!(epochs >= 40.0, "the run no longer meters enough epochs");
    assert!(per_epoch <= PER_EPOCH, "{per_epoch:.1} allocator calls per metrics epoch");
}

/// `ProgramBuilder::finish` (layouts, dispatch rows, then `validate`) on a
/// program whose entry repeats every instruction kind that names a register
/// `reps` times: the allocator calls it made and the instructions it
/// validated.
fn counted_finish(reps: usize) -> (u64, usize) {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("f", 1);
    let a = b.class("A", None);
    let field = b.field(a, "x");
    let global = b.global("g");
    {
        let mut m = b.virtual_method("A.f", a, sel);
        m.ret(Some(m.param(0)));
        m.finish();
    }
    let id = {
        let mut m = b.static_method("id", 1);
        m.ret(Some(m.param(0)));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let [o, x, y, arr] = [(); 4].map(|_| m.fresh_reg());
        let out = m.label();
        m.new_obj(o, a);
        m.const_int(x, 1);
        m.arr_new(arr, x);
        for _ in 0..reps {
            m.mov(y, x);
            m.bin(BinOp::Add, y, y, x);
            m.put_field(o, field, y);
            m.get_field(y, o, field);
            m.put_global(global, y);
            m.get_global(y, global);
            m.arr_set(arr, x, y);
            m.arr_get(y, arr, x);
            m.arr_len(y, arr);
            m.instance_of(y, o, a);
            m.const_null(y);
            m.call_static(Some(y), id, &[x]);
            m.call_virtual(Some(y), sel, o, &[x]);
            m.branch(Cond::Lt, x, y, out);
        }
        m.bind(out);
        m.ret(None);
        m.finish()
    };
    let (program, calls) = counted(|| b.finish(main));
    let program = program.expect("the program is valid");
    (calls, program.methods().map(|m| m.body().len()).sum())
}

#[test]
fn program_load_stays_inside_its_allocation_budget() {
    let programs: Vec<Program> =
        aoci_workloads::suite().iter().map(|s| aoci_workloads::build(s).program).collect();
    let methods: usize = programs.iter().map(Program::num_methods).sum();
    let instrs: usize = programs.iter().flat_map(Program::methods).map(|m| m.body().len()).sum();
    let (_, calls) = counted(|| {
        for p in &programs {
            typecheck::verify(p).expect("the suite verifies");
        }
    });
    let per_method = calls as f64 / methods as f64;
    println!(
        "verify: {calls} allocator calls for {methods} methods ({per_method:.2} per method) \
         and {instrs} instructions"
    );
    assert!(per_method <= VERIFY_PER_METHOD, "{per_method:.2} allocator calls per verified method");

    // Validation allocates nothing per instruction: doubling the body adds
    // no call.
    let (small, small_instrs) = counted_finish(200);
    let (large, large_instrs) = counted_finish(400);
    println!(
        "finish: {small} allocator calls for {small_instrs} instructions, {large} for {large_instrs}"
    );
    assert!(large_instrs >= small_instrs + 2_800, "the larger body is larger");
    assert_eq!(large, small, "validation allocates per instruction");
}

/// A program whose entry makes `calls` calls of one static callee, passing
/// `per_call` argument registers each, padded with `Work` to `len`
/// instructions: the allocator calls that building it made (emission and
/// `ProgramBuilder::finish`), then those that baseline-compiling and
/// decoding its entry made (what the VM's decoded body is built from).
fn counted_calls(calls: usize, per_call: usize, len: usize) -> (u64, u64) {
    let (program, build) = counted(|| {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("callee", u16::try_from(per_call).unwrap());
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            let x = m.fresh_reg();
            let args = vec![x; per_call];
            m.const_int(x, 1);
            for _ in 0..calls {
                m.call_static(None, callee, &args);
            }
            for _ in calls..len {
                m.work(1);
            }
            m.ret(None);
            m.finish()
        };
        b.finish(main).expect("the program is valid")
    });
    let entry = program.method(program.entry());
    let (_, decode) = counted(|| {
        let version = MethodVersion::baseline(entry);
        let ops = decode_body(&version.body, &program);
        let plan = fusion_plan(&ops);
        (plan, version)
    });
    (build, decode)
}

#[test]
fn call_instructions_make_no_allocator_calls() {
    // The same instructions and argument registers in all, in half as many
    // calls or in twice as many.
    let (fewer_build, fewer_decode) = counted_calls(300, 2, 600);
    let (more_build, more_decode) = counted_calls(600, 1, 600);
    println!(
        "300 or 600 calls: build {fewer_build} or {more_build} allocator calls, \
         baseline compile and decode {fewer_decode} or {more_decode}"
    );
    assert_eq!(more_build, fewer_build, "building allocates per call instruction");
    assert_eq!(more_decode, fewer_decode, "baseline compiling or decoding allocates per call");
}
