//! End-to-end integration: every context-sensitivity policy must preserve
//! program semantics on real (generated) workloads, and the adaptive
//! system's reports must be internally consistent.

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::PolicyKind;
use aoci_vm::{Component, CostModel, Vm};
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

/// A shrunken suite workload: same structure, short run (tests run in
/// debug mode).
fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 400;
    spec
}

fn baseline_result(program: &aoci_ir::Program) -> Option<aoci_vm::Value> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    Vm::new(program, cost)
        .run_to_completion()
        .expect("baseline run succeeds")
}

fn all_policies(max: u8) -> Vec<PolicyKind> {
    let mut v = vec![PolicyKind::ContextInsensitive];
    v.extend(PolicyKind::evaluated(max));
    v.push(PolicyKind::AdaptiveResolving { max });
    v
}

#[test]
fn every_policy_preserves_semantics_on_jess() {
    let w = build(&small("jess"));
    let expected = baseline_result(&w.program);
    for policy in all_policies(3) {
        let report = AosSystem::new(&w.program, AosConfig::new(policy))
            .run()
            .unwrap_or_else(|e| panic!("{policy} faulted: {e}"));
        assert_eq!(report.result, expected, "policy {policy} changed semantics");
    }
}

#[test]
fn every_policy_preserves_semantics_on_db_and_mtrt() {
    for name in ["db", "mtrt"] {
        let w = build(&small(name));
        let expected = baseline_result(&w.program);
        for policy in all_policies(4) {
            let report = AosSystem::new(&w.program, AosConfig::new(policy))
                .run()
                .unwrap_or_else(|e| panic!("{name}/{policy} faulted: {e}"));
            assert_eq!(report.result, expected, "{name}/{policy} changed semantics");
        }
    }
}

#[test]
fn phase_shift_workload_is_sound_with_and_without_decay() {
    let mut spec = small("jbb");
    spec.iterations = 600;
    let w = build(&spec);
    let expected = baseline_result(&w.program);
    for decay in [0.95, 1.0] {
        let mut config = AosConfig::new(PolicyKind::Fixed { max: 3 });
        config.decay_factor = decay;
        let report = AosSystem::new(&w.program, config).run().expect("runs");
        assert_eq!(report.result, expected);
    }
}

#[test]
fn reports_are_internally_consistent() {
    let w = build(&small("jack"));
    let report = AosSystem::new(&w.program, AosConfig::new(PolicyKind::Fixed { max: 3 }))
        .run()
        .expect("runs");
    // Component fractions sum to 1 (everything is accounted somewhere).
    let total: f64 = aoci_vm::COMPONENTS
        .iter()
        .map(|&c| report.fraction(c))
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    // Current resident optimized code cannot exceed cumulative.
    assert!(report.current_optimized_size <= report.optimized_code_size);
    // Guard misses cannot exceed checks.
    assert!(report.counters.guard_misses <= report.counters.guard_checks);
    // Compile cycles reported match the clock's compilation component.
    assert_eq!(
        report.compile_cycles(),
        report.clock.component(Component::CompilationThread)
    );
    // The compilation log matches the registry count.
    assert_eq!(report.compilations.len() as u32, report.opt_compilations);
}

#[test]
fn runs_are_deterministic() {
    let w = build(&small("compress"));
    let a = AosSystem::new(&w.program, AosConfig::new(PolicyKind::Fixed { max: 3 }))
        .run()
        .expect("runs");
    let b = AosSystem::new(&w.program, AosConfig::new(PolicyKind::Fixed { max: 3 }))
        .run()
        .expect("runs");
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.optimized_code_size, b.optimized_code_size);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.opt_compilations, b.opt_compilations);
    assert_eq!(a.result, b.result);
}

#[test]
fn deeper_fixed_policies_walk_more_frames() {
    let w = build(&small("javac"));
    let frames_at = |max: u8| {
        AosSystem::new(&w.program, AosConfig::new(PolicyKind::Fixed { max }))
            .run()
            .expect("runs")
            .frames_walked
    };
    let f2 = frames_at(2);
    let f5 = frames_at(5);
    assert!(
        f5 > f2,
        "fixed(5) should walk more frames than fixed(2): {f5} vs {f2}"
    );
}

#[test]
fn early_termination_reduces_walked_frames() {
    let w = build(&small("jack"));
    let frames = |policy| {
        AosSystem::new(&w.program, AosConfig::new(policy))
            .run()
            .expect("runs")
            .frames_walked
    };
    let fixed = frames(PolicyKind::Fixed { max: 5 });
    let hybrid = frames(PolicyKind::ParameterlessLarge { max: 5 });
    assert!(
        hybrid < fixed,
        "hybrid2 must terminate walks early: {hybrid} vs fixed {fixed}"
    );
}

/// One compiled version per method serves every caller, so the repo
/// benchmark's `features_on` configuration, which still calls
/// `enable_deoptless`, runs jack exactly as it does without that call. Two
/// iterations is the shortest jack run on which compiles specialized for
/// one caller changed the report.
#[test]
fn enable_deoptless_changes_no_report() {
    let mut spec = spec_by_name("jack").expect("suite workload");
    spec.iterations = 2;
    let w = build(&spec);
    let run = |config: AosConfig| {
        let config = config
            .enable_async_compile()
            .enable_trace()
            .enable_metrics()
            .enable_guard_monitoring();
        let report = AosSystem::new(&w.program, config).run().expect("jack runs");
        aoci_json::to_string_pretty(&report.to_value())
    };
    let features = AosConfig::new(PolicyKind::ParameterlessClass { max: 3 }).enable_osr();
    assert_eq!(run(features.clone().enable_deoptless()), run(features));
}
