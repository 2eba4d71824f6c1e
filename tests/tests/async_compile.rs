//! Asynchronous background compilation through the differential oracle.
//!
//! Two properties anchor the subsystem:
//!
//! * **Degenerate equivalence.** One worker with zero queue latency is the
//!   synchronous system re-expressed: every plan dispatches and completes
//!   inside its tick with its full cost charged as foreground stall. Such a
//!   configuration must reproduce the legacy synchronous run's report
//!   bit-for-bit — same cycles per component, same counters, same
//!   compilations — differing only in the async activity ledger itself and
//!   in within-tick compilation-log order (priority order vs FIFO order;
//!   see [`sorted_log`]).
//! * **Reproducibility.** A genuinely concurrent configuration (multiple
//!   workers, real compile latency) runs on the same deterministic
//!   simulated clock, so same-seed reruns are bit-identical across the
//!   policy × OSR × chaos matrix.

use aoci_aos::{
    AosConfig, AosReport, AosSystem, AsyncCompileConfig, AsyncCompileEvents, FaultConfig,
};
use aoci_core::PolicyKind;
use aoci_vm::{CostModel, Value, Vm, COMPONENTS};
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

fn oracle_seed() -> u64 {
    // Through the unified knob registry — no scattered env parsing.
    aoci_bench::EnvConfig::from_env().oracle_seed
}

fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 120;
    spec
}

fn oracle_result(program: &aoci_ir::Program) -> Option<Value> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    Vm::new(program, cost)
        .run_to_completion()
        .expect("oracle run succeeds")
}

/// The differential-oracle configuration (same knobs as
/// `differential_oracle.rs`), synchronous compilation.
fn sync_config(policy: PolicyKind, osr: bool, fault: Option<FaultConfig>) -> AosConfig {
    let mut c = if osr { AosConfig::new(policy).enable_osr() } else { AosConfig::new(policy) };
    c.cost = CostModel { sample_period: 2_003, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.vm.osr_backedge_threshold = 48;
    c.recovery.monitor_guard_health = true;
    c.fault = fault;
    c
}

/// The degenerate async pool: one worker, zero latency, effectively
/// unbounded queue — synchronous semantics through the async machinery.
fn degenerate(mut c: AosConfig) -> AosConfig {
    c.async_compile = Some(AsyncCompileConfig {
        workers: 1,
        queue_capacity: usize::MAX / 2,
        zero_latency: true,
    });
    c
}

/// A genuinely concurrent pool (the `AosConfig::enable_async_compile`
/// defaults: two workers, bounded queue, real compile latency).
fn concurrent(mut c: AosConfig) -> AosConfig {
    c.async_compile = Some(AsyncCompileConfig::default());
    c
}

fn run(program: &aoci_ir::Program, c: AosConfig) -> AosReport {
    AosSystem::new(program, c).run().expect("adaptive run succeeds")
}

/// Asserts every metric of the two reports matches bit-for-bit, except the
/// async activity ledger itself (`async_compile`), which by construction
/// differs between a synchronous run (all zeros) and its degenerate-async
/// mirror (counts the queue traffic).
fn assert_metrics_identical(a: &AosReport, b: &AosReport, what: &str) {
    assert_eq!(a.result, b.result, "{what}: result diverged");
    for c in COMPONENTS {
        assert_eq!(a.clock.component(c), b.clock.component(c), "{what}: component {c} diverged");
    }
    assert_eq!(a.total_cycles(), b.total_cycles(), "{what}: cycle totals diverged");
    assert_eq!(a.optimized_code_size, b.optimized_code_size, "{what}: code size diverged");
    assert_eq!(
        a.current_optimized_size, b.current_optimized_size,
        "{what}: current size diverged"
    );
    assert_eq!(a.opt_compilations, b.opt_compilations, "{what}: opt compilations diverged");
    assert_eq!(
        a.baseline_compilations, b.baseline_compilations,
        "{what}: baseline compilations diverged"
    );
    assert_eq!(a.samples, b.samples, "{what}: sample counts diverged");
    assert_eq!(a.traces_recorded, b.traces_recorded, "{what}: trace counts diverged");
    assert_eq!(a.frames_walked, b.frames_walked, "{what}: frames walked diverged");
    assert_eq!(a.dcg_entries, b.dcg_entries, "{what}: DCG sizes diverged");
    assert_eq!(a.final_rules, b.final_rules, "{what}: rule counts diverged");
    assert_eq!(a.trace_stats, b.trace_stats, "{what}: trace stats diverged");
    assert_eq!(a.counters, b.counters, "{what}: exec counters diverged");
    assert_eq!(a.recovery, b.recovery, "{what}: recovery events diverged");
    assert_eq!(a.osr, b.osr, "{what}: OSR events diverged");
}

/// The compilation log as a sorted multiset. Within one tick the sync FIFO
/// completes plans in enqueue order while the async priority queue completes
/// them in benefit order — an intentional scheduling difference that permutes
/// log entries without changing what was compiled, when (to the cycle), or
/// at what cost. Cross-tick order is preserved by both, so the sorted logs
/// must agree exactly.
fn sorted_log(r: &AosReport) -> Vec<(usize, u64, u32, u32)> {
    let mut v: Vec<_> = r
        .compilations
        .iter()
        .map(|c| (c.method.index(), c.generated_size as u64, c.inlines, c.guarded))
        .collect();
    v.sort_unstable();
    v
}

const ALL_POLICIES: [PolicyKind; 3] = [
    PolicyKind::ContextInsensitive,
    PolicyKind::Fixed { max: 3 },
    PolicyKind::AdaptiveResolving { max: 3 },
];

/// S4: the degenerate-equivalence oracle. One worker + zero latency must
/// reproduce the legacy synchronous report bit-identically (faultless: the
/// injector's draw sequence is keyed to compile dispatch order, which the
/// priority queue deliberately changes).
#[test]
fn degenerate_async_reproduces_sync_bit_for_bit() {
    for name in ["compress", "db"] {
        let w = build(&small(name));
        let expected = oracle_result(&w.program);
        for policy in ALL_POLICIES {
            for osr in [false, true] {
                let what = format!("{name}/{policy}/osr={osr}/degenerate-async");
                let sync = run(&w.program, sync_config(policy, osr, None));
                let degen = run(&w.program, degenerate(sync_config(policy, osr, None)));
                assert_eq!(sync.result, expected, "{what}: sync diverged from oracle");
                assert_metrics_identical(&sync, &degen, &what);
                assert_eq!(
                    sorted_log(&sync),
                    sorted_log(&degen),
                    "{what}: compilation logs diverged beyond within-tick order"
                );
                assert_eq!(
                    sync.async_compile,
                    AsyncCompileEvents::default(),
                    "{what}: sync run booked async activity"
                );
                let ev = degen.async_compile;
                if ev.dispatched > 0 {
                    assert_eq!(
                        ev.background_overlap_cycles, 0,
                        "{what}: zero-latency compiles cannot overlap: {ev:?}"
                    );
                }
            }
        }
    }
}

/// Concurrent async runs stay deterministic across the policy × OSR × chaos
/// matrix, reproduce the oracle's program result, and actually overlap
/// compilation with execution on at least one configuration.
#[test]
fn concurrent_async_is_reproducible_and_overlaps() {
    let seed = oracle_seed();
    let w = build(&small("compress"));
    let expected = oracle_result(&w.program);
    let mut any_overlap = 0u64;
    for policy in ALL_POLICIES {
        for osr in [false, true] {
            for fault in [None, Some(FaultConfig::chaos(seed))] {
                let what = format!(
                    "compress/{policy}/osr={osr}/fault={}/seed={seed}/async",
                    fault.is_some()
                );
                let a = run(&w.program, concurrent(sync_config(policy, osr, fault.clone())));
                let b = run(&w.program, concurrent(sync_config(policy, osr, fault.clone())));
                assert_eq!(a.result, expected, "{what}: diverged from the oracle");
                assert_metrics_identical(&a, &b, &what);
                assert_eq!(a.compilations, b.compilations, "{what}: compilation logs diverged");
                assert_eq!(a.async_compile, b.async_compile, "{what}: async ledgers diverged");
                any_overlap += a.async_compile.background_overlap_cycles;
            }
        }
    }
    assert!(
        any_overlap > 0,
        "at least one concurrent configuration should overlap compiles with execution"
    );
}

/// The overlap/stall split accounts for every compilation-thread cycle in a
/// faultless, OSR-less async run: the thread is only ever charged the stall.
#[test]
fn async_stall_accounts_for_all_compile_cycles() {
    for name in ["mtrt", "jess"] {
        let w = build(&small(name));
        let report = run(
            &w.program,
            concurrent(sync_config(PolicyKind::Fixed { max: 3 }, false, None)),
        );
        let ev = report.async_compile;
        assert_eq!(
            report.compile_cycles(),
            ev.foreground_stall_cycles,
            "{name}: compilation-thread cycles must equal the booked stall: {ev:?}"
        );
        assert!(
            ev.dispatched >= ev.completed,
            "{name}: completions cannot exceed dispatches: {ev:?}"
        );
        assert!(
            ev.enqueued >= ev.dispatched,
            "{name}: dispatches cannot exceed enqueues: {ev:?}"
        );
    }
}
