//! Differential oracle: every suite workload runs under a baseline-only VM
//! (the oracle) and under the adaptive system for each inliner policy, with
//! and without OSR, with and without fault injection. Every configuration
//! must (a) produce the oracle's program result — optimization, on-stack
//! replacement and recovery are never allowed to change semantics — and
//! (b) replay bit-identically: a same-seed rerun reproduces the exact cycle
//! counts, counters and event tallies, because the whole system runs on a
//! deterministic simulated clock.
//!
//! The fault seed comes from `AOCI_ORACLE_SEED` (default 1), so a CI matrix
//! can sweep seeds without touching the code; `AOCI_ASYNC=1` reruns the
//! whole matrix with the asynchronous background-compilation pool on — the
//! CI `async-smoke` job sweeps the same seeds through this switch. Both
//! knobs arrive through the unified [`EnvConfig`] (parsed once per test),
//! and each workload's policy × OSR × chaos matrix is executed across the
//! `AOCI_JOBS` sweep pool: every configuration is a pure `Send` job, and
//! the assertions walk the results in canonical matrix order, so the test
//! outcome — and the serialized reports, see `parallel_determinism.rs` —
//! is identical for any worker count.
//!
//! Each cell's rerun records an unbounded trace, so the rerun comparison
//! also proves the recorder's zero overhead, and [`assert_counters_fold`]
//! proves that every counter the report carries is a fold of that stream.

use aoci_aos::{
    AosConfig, AosReport, AosSystem, AsyncCompileConfig, AsyncCompileEvents, FaultConfig,
    OsrEvents, RecoveryEvents, TraceConfig, TraceEvent,
};
use aoci_bench::EnvConfig;
use aoci_core::PolicyKind;
use aoci_trace::{FaultKind, OsrFallbackReason, RetryCause};
use aoci_vm::{CostModel, Value, Vm, COMPONENTS};
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

/// A shrunken suite workload: same structure, short run (debug mode), but
/// long enough for the main loop to cross the OSR back-edge threshold the
/// configs below use.
fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 120;
    spec
}

/// The baseline-only oracle: a pure interpreter run, no sampling, no
/// optimization, no OSR — semantics by construction.
fn oracle_result(program: &aoci_ir::Program) -> Option<Value> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    Vm::new(program, cost)
        .run_to_completion()
        .expect("oracle run succeeds")
}

/// One adaptive configuration of the matrix. A prime sample period keeps
/// the deterministic sampler from aliasing against fixed loop costs, and a
/// low back-edge threshold lets the short runs exercise promotion.
fn config(policy: PolicyKind, osr: bool, fault: Option<FaultConfig>, env: &EnvConfig) -> AosConfig {
    let mut c = AosConfig::new(policy).enable_guard_monitoring();
    if osr {
        c = c.enable_osr();
        // `AOCI_DEOPTLESS=1` reruns every OSR-on cell with dispatched OSR
        // and context-specialized version retention (DESIGN.md §16) — the
        // CI `deoptless-matrix` job sweeps this switch. OSR-off cells are
        // untouched so the osr-while-disabled assertion keeps its teeth.
        if env.deoptless {
            c = c.enable_deoptless();
        }
    }
    if env.async_compile {
        c = c.enable_async_compile_with(AsyncCompileConfig::default());
    }
    if let Some(f) = fault {
        c = c.enable_faults(f);
    }
    c.cost = CostModel { sample_period: 2_003, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.vm.osr_backedge_threshold = 48;
    c
}

fn run(program: &aoci_ir::Program, c: AosConfig) -> AosReport {
    AosSystem::new(program, c).run().expect("adaptive run succeeds")
}

/// A cell's rerun: the same configuration with an unbounded trace and no
/// post-mortem window, so its report must equal the untraced first run's.
fn rerun_traced(program: &aoci_ir::Program, c: AosConfig) -> AosReport {
    run(program, c.enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 }))
}

/// Asserts that every counter `r` reports is a fold of its unbounded
/// trace. The fold is written here, independently of the driver's.
fn assert_counters_fold(r: &AosReport, what: &str) {
    let log = r.trace_log.as_ref().expect("the rerun is traced");
    assert_eq!(log.dropped, 0, "{what}: the trace is unbounded");
    let mut rec = RecoveryEvents::default();
    let mut osr = OsrEvents::default();
    let mut queue = AsyncCompileEvents::default();
    let (mut guard_misses, mut samples, mut walks, mut frames, mut installs) = (0, 0, 0, 0, 0);
    let mut finishes = 0;
    for event in log.events.iter().map(|e| &e.event) {
        match event {
            TraceEvent::Invalidate { .. } => rec.invalidations += 1,
            TraceEvent::Quarantine { .. } => rec.quarantined_methods += 1,
            TraceEvent::TraceRejected => rec.rejected_traces += 1,
            TraceEvent::RetryScheduled { cause, .. } => {
                rec.compile_retries += u64::from(*cause == RetryCause::CompileFailure);
            }
            TraceEvent::FaultInjected { kind } => match kind {
                FaultKind::CompileBailout | FaultKind::CompileOversize => {
                    rec.injected_compile_faults += 1;
                }
                FaultKind::CorruptTrace => rec.injected_corrupt_traces += 1,
                FaultKind::DroppedSample => rec.dropped_samples += 1,
                FaultKind::ReceiverBurst => rec.receiver_bursts += 1,
            },
            TraceEvent::OsrRequest { .. } => osr.requests += 1,
            TraceEvent::OsrDeny { .. } => osr.denied += 1,
            TraceEvent::OsrEnter { .. } => osr.entries += 1,
            TraceEvent::OsrExit { .. } => osr.exits += 1,
            TraceEvent::OsrTransfer { .. } => osr.dispatched_transfers += 1,
            TraceEvent::OsrFallback { reason, .. } => match reason {
                OsrFallbackReason::NoVersion => osr.falls_no_version += 1,
                OsrFallbackReason::IncompatibleFrame => osr.falls_incompatible += 1,
                OsrFallbackReason::Rearmed => osr.falls_rearmed += 1,
            },
            TraceEvent::CompileEnqueue { queue_depth, .. } => {
                queue.enqueued += 1;
                queue.max_queue_depth = queue.max_queue_depth.max(u64::from(*queue_depth));
            }
            TraceEvent::CompileStart { .. } => queue.dispatched += 1,
            TraceEvent::CompileFinish { overlap_cycles, stall_cycles, landed, .. } => {
                finishes += 1;
                queue.completed += u64::from(*landed);
                queue.background_overlap_cycles += overlap_cycles;
                queue.foreground_stall_cycles += stall_cycles;
            }
            TraceEvent::CompileDequeueStale { .. } => queue.stale_drops += 1,
            TraceEvent::CompileQueueFull { .. } => queue.queue_full_drops += 1,
            TraceEvent::GuardMiss { .. } => guard_misses += 1,
            TraceEvent::SampleTick { .. } => samples += 1,
            TraceEvent::TraceWalk { depth, .. } => {
                walks += 1;
                frames += u64::from(*depth);
            }
            TraceEvent::Install { .. } => installs += 1,
            _ => {}
        }
    }
    queue.abandoned_in_flight = queue.dispatched - finishes;
    assert_eq!(r.recovery, rec, "{what}: recovery counters vs the trace");
    assert_eq!(r.osr, osr, "{what}: OSR counters vs the trace");
    assert_eq!(r.async_compile, queue, "{what}: async counters vs the trace");
    assert_eq!(r.counters.guard_misses, guard_misses, "{what}: guard misses vs the trace");
    assert_eq!(r.samples, samples, "{what}: samples vs the trace");
    assert_eq!(r.traces_recorded, walks, "{what}: traces recorded vs the trace");
    assert_eq!(r.frames_walked, frames, "{what}: frames walked vs the trace");
    assert_eq!(r.compilations.len(), installs, "{what}: compilations vs the trace");
    assert_eq!(u64::from(r.opt_compilations), installs as u64, "{what}: installs vs the trace");
}

/// Asserts two same-seed runs are bit-identical, field by field.
fn assert_identical(a: &AosReport, b: &AosReport, what: &str) {
    assert_eq!(a.result, b.result, "{what}: result diverged between reruns");
    assert_eq!(a.total_cycles(), b.total_cycles(), "{what}: cycle totals diverged");
    for c in COMPONENTS {
        assert_eq!(
            a.clock.component(c),
            b.clock.component(c),
            "{what}: component {c} cycles diverged"
        );
    }
    assert_eq!(a.samples, b.samples, "{what}: sample counts diverged");
    assert_eq!(a.counters, b.counters, "{what}: exec counters diverged");
    assert_eq!(a.osr, b.osr, "{what}: OSR events diverged");
    assert_eq!(a.recovery, b.recovery, "{what}: recovery events diverged");
    assert_eq!(a.async_compile, b.async_compile, "{what}: async compile ledgers diverged");
    assert_eq!(a.opt_compilations, b.opt_compilations, "{what}: compilations diverged");
    assert_eq!(a.optimized_code_size, b.optimized_code_size, "{what}: code size diverged");
    assert_eq!(a.dcg_entries, b.dcg_entries, "{what}: DCG sizes diverged");
    assert_eq!(a.final_rules, b.final_rules, "{what}: rule counts diverged");
}

const ALL_POLICIES: [PolicyKind; 3] = [
    PolicyKind::ContextInsensitive,
    PolicyKind::Fixed { max: 3 },
    PolicyKind::AdaptiveResolving { max: 3 },
];

/// The policy × ±OSR × ±chaos configuration matrix for one workload, in
/// canonical order (policy-major, then OSR, then fault).
fn matrix(policies: &[PolicyKind], seed: u64) -> Vec<(PolicyKind, bool, Option<FaultConfig>)> {
    let mut m = Vec::new();
    for &policy in policies {
        for osr in [false, true] {
            for fault in [None, Some(FaultConfig::chaos(seed))] {
                m.push((policy, osr, fault));
            }
        }
    }
    m
}

/// Runs `name` under each policy in `policies`, crossed with ±OSR and
/// ±fault injection, each twice (the rerun traced) — the whole matrix
/// executed across the `AOCI_JOBS` sweep pool, one (config, rerun) pair
/// per job. The full
/// 3-policy cross on all eight workloads costs minutes of 1-core wall
/// clock, so only the cheapest workload gets `ALL_POLICIES`; the rest
/// rotate through single policies such that the suite as a whole still
/// covers every policy several times.
fn check_workload(name: &str, policies: &[PolicyKind]) {
    let env = EnvConfig::from_env();
    let seed = env.oracle_seed;
    let w = build(&small(name));
    let expected = oracle_result(&w.program);
    let cells = matrix(policies, seed);
    let results = env.pool().map(cells.clone(), |(policy, osr, fault)| {
        let a = run(&w.program, config(*policy, *osr, fault.clone(), &env));
        let b = rerun_traced(&w.program, config(*policy, *osr, fault.clone(), &env));
        (a, b)
    });
    for ((policy, osr, fault), (a, b)) in cells.iter().zip(results) {
        let what =
            format!("{name}/{policy}/osr={osr}/fault={}/seed={seed}", fault.is_some());
        assert_eq!(a.result, expected, "{what}: diverged from the oracle");
        assert_identical(&a, &b, &what);
        assert_counters_fold(&b, &what);
        if !osr {
            assert_eq!(
                a.osr,
                OsrEvents::default(),
                "{what}: OSR events recorded while disabled"
            );
        }
    }
}

#[test]
fn oracle_compress() {
    check_workload("compress", &ALL_POLICIES);
}

#[test]
fn oracle_jess() {
    check_workload("jess", &[PolicyKind::ContextInsensitive]);
}

#[test]
fn oracle_db() {
    check_workload("db", &[PolicyKind::Fixed { max: 3 }]);
}

#[test]
fn oracle_javac() {
    check_workload("javac", &[PolicyKind::AdaptiveResolving { max: 3 }]);
}

#[test]
fn oracle_mpegaudio() {
    check_workload("mpegaudio", &[PolicyKind::ContextInsensitive]);
}

#[test]
fn oracle_mtrt() {
    check_workload("mtrt", &[PolicyKind::Fixed { max: 3 }]);
}

#[test]
fn oracle_jack() {
    check_workload("jack", &[PolicyKind::AdaptiveResolving { max: 3 }]);
}

#[test]
fn oracle_jbb() {
    check_workload("jbb", &[PolicyKind::Fixed { max: 3 }]);
}

/// The flight recorder through the oracle: a same-seed rerun of a traced
/// configuration must emit a **bit-identical event stream** — same events,
/// same order, same simulated-cycle timestamps, same rendered bytes — and
/// turning the recorder on must not change a single metric relative to an
/// untraced run of the same configuration.
#[test]
fn oracle_traced_reruns_are_bit_identical() {
    let env = EnvConfig::from_env();
    let seed = env.oracle_seed;
    let w = build(&small("compress"));
    let resolve = |m: aoci_ir::MethodId| w.program.method(m).name().to_string();
    // OSR + chaos faults on, so the stream covers promotion, denial,
    // recovery and injection events, not just the steady-state loop.
    let traced = |policy| {
        config(policy, true, Some(FaultConfig::chaos(seed)), &env)
            .enable_trace_with(TraceConfig::default())
    };
    // Three runs per policy (two traced, one untraced), fanned out across
    // the sweep pool; assertions walk the results in policy order.
    let runs = env.pool().map(ALL_POLICIES.to_vec(), |&policy| {
        let a = run(&w.program, traced(policy));
        let b = run(&w.program, traced(policy));
        let untraced = run(&w.program, config(policy, true, Some(FaultConfig::chaos(seed)), &env));
        (a, b, untraced)
    });
    for (policy, (a, b, untraced)) in ALL_POLICIES.into_iter().zip(runs) {
        let what = format!("traced compress/{policy}/seed={seed}");
        assert_identical(&a, &b, &what);

        let (log_a, log_b) = (a.trace_log.as_ref().unwrap(), b.trace_log.as_ref().unwrap());
        assert_eq!(log_a.emitted, log_b.emitted, "{what}: emitted counts diverged");
        assert_eq!(log_a.dropped, log_b.dropped, "{what}: dropped counts diverged");
        assert_eq!(
            log_a.render_lines(&resolve),
            log_b.render_lines(&resolve),
            "{what}: rendered event streams diverged"
        );
        assert_eq!(
            log_a.to_chrome_string(&resolve),
            log_b.to_chrome_string(&resolve),
            "{what}: Chrome exports diverged"
        );
        assert!(
            log_a.kinds().len() >= 6,
            "{what}: expected >= 6 distinct event kinds, got {:?}",
            log_a.kinds()
        );

        // Zero-overhead: the traced run's metrics equal the untraced run's.
        // Only the post-mortem dump (which an untraced run cannot carry)
        // differs; every measured quantity must agree.
        let mut scrubbed = a.clone();
        scrubbed.recovery.trace_dump.clear();
        assert_identical(&scrubbed, &untraced, &format!("{what} vs untraced"));
    }
}

/// The deoptless axis, unconditionally on: every policy × ±chaos cell runs
/// with dispatched OSR and context-specialized version retention, and must
/// still (a) produce the oracle's result — transferring into a specialized
/// version on a guard shift is never allowed to change semantics — and
/// (b) replay bit-identically on a same-seed rerun, dispatch decisions
/// included. This covers the axis even when `AOCI_DEOPTLESS` is unset; the
/// CI matrix job additionally sweeps the whole suite through the env knob.
#[test]
fn oracle_deoptless_dispatched_osr() {
    let env = EnvConfig::from_env();
    let seed = env.oracle_seed;
    let w = build(&small("compress"));
    let expected = oracle_result(&w.program);
    let cells: Vec<(PolicyKind, Option<FaultConfig>)> = ALL_POLICIES
        .into_iter()
        .flat_map(|p| [(p, None), (p, Some(FaultConfig::chaos(seed)))])
        .collect();
    let results = env.pool().map(cells.clone(), |(policy, fault)| {
        let deoptless = |f: &Option<FaultConfig>| {
            config(*policy, true, f.clone(), &env).enable_deoptless()
        };
        let a = run(&w.program, deoptless(fault));
        let b = rerun_traced(&w.program, deoptless(fault));
        (a, b)
    });
    for ((policy, fault), (a, b)) in cells.iter().zip(results) {
        let what = format!("deoptless compress/{policy}/fault={}/seed={seed}", fault.is_some());
        assert_eq!(a.result, expected, "{what}: diverged from the oracle");
        assert_identical(&a, &b, &what);
        assert_counters_fold(&b, &what);
    }
}

/// The Figure 1 motivating example through the same oracle.
#[test]
fn oracle_hashmap_motivation() {
    let env = EnvConfig::from_env();
    let program = aoci_workloads::hashmap_test(600);
    let expected = oracle_result(&program);
    let seed = env.oracle_seed;
    let cells = matrix(&[PolicyKind::Fixed { max: 3 }], seed);
    let results = env.pool().map(cells.clone(), |(policy, osr, fault)| {
        let a = run(&program, config(*policy, *osr, fault.clone(), &env));
        let b = rerun_traced(&program, config(*policy, *osr, fault.clone(), &env));
        (a, b)
    });
    for ((_, osr, fault), (a, b)) in cells.iter().zip(results) {
        let what = format!("hashmap/osr={osr}/fault={}", fault.is_some());
        assert_eq!(a.result, expected, "{what}: diverged from the oracle");
        assert_identical(&a, &b, &what);
        assert_counters_fold(&b, &what);
    }
}
