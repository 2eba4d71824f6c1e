//! The suite through the differential oracle (`aoci_fuzz::oracle`,
//! DESIGN.md §12): every workload runs under the baseline-only reference
//! and under the adaptive system, ±OSR × ±async × ±chaos, each cell traced
//! and untraced. Every cell must reproduce the reference's program result,
//! report the same whole report with the recorder on as off, report only
//! counters that are a fold of its unbounded event stream, and report no
//! OSR events with OSR off — optimization, on-stack replacement,
//! background compilation and recovery never change semantics.
//!
//! The fault seed comes from `AOCI_ORACLE_SEED` (default 1) through the
//! unified [`EnvConfig`], and a workload's policies fan out across the
//! `AOCI_JOBS` pool. The full 3-policy cross on all eight
//! workloads costs minutes in debug, so only the cheapest workload gets
//! every policy; the rest rotate through single policies such that the
//! suite as a whole covers each several times.

use aoci_aos::{AosSystem, FaultConfig, TraceConfig};
use aoci_bench::EnvConfig;
use aoci_core::PolicyKind;
use aoci_fuzz::oracle::{self, RunOpts, ALL_POLICIES};
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

/// A shrunken suite workload: same structure, short run (debug mode), but
/// long enough for the main loop to cross the oracle's OSR back-edge
/// threshold.
fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 120;
    spec
}

/// Runs `program` through the oracle under each of `policies`, one pool
/// job per policy, and asserts that no cell found anything.
fn check(name: &str, program: &aoci_ir::Program, policies: &[PolicyKind]) {
    let env = EnvConfig::from_env();
    let findings = env
        .pool()
        .map(policies.to_vec(), |&policy| {
            oracle::run_program(name, program, policy, env.oracle_seed, RunOpts::default())
        })
        .concat();
    assert!(findings.is_empty(), "seed {}: {findings:#?}", env.oracle_seed);
}

fn check_workload(name: &str, policies: &[PolicyKind]) {
    check(name, &build(&small(name)).program, policies);
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

/// The Figure 1 motivating example through the same oracle.
#[test]
fn oracle_hashmap_motivation() {
    check("hashmap", &aoci_workloads::hashmap_test(600), &[PolicyKind::Fixed { max: 3 }]);
}

/// The flight recorder's own determinism, which the matrix does not reach:
/// two same-seed traced runs on the default bounded ring must emit a
/// **bit-identical event stream** — same events, same order, same
/// simulated-cycle timestamps, same rendered bytes and Chrome export, same
/// drops — and the same report, post-mortem dump included.
#[test]
fn oracle_traced_reruns_are_bit_identical() {
    let env = EnvConfig::from_env();
    let seed = env.oracle_seed;
    let w = build(&small("compress"));
    let resolve = |m: aoci_ir::MethodId| w.program.method(m).name().to_string();
    // OSR + chaos faults on, so the stream covers promotion, denial,
    // recovery and injection events, not just the steady-state loop.
    let runs = env.pool().map(ALL_POLICIES.to_vec(), |&policy| {
        let run = || {
            let c = oracle::config(policy)
                .enable_osr()
                .enable_faults(FaultConfig::chaos(seed))
                .enable_trace_with(TraceConfig::default());
            AosSystem::new(&w.program, c).run().expect("adaptive run succeeds")
        };
        (run(), run())
    });
    for (policy, (a, b)) in ALL_POLICIES.into_iter().zip(runs) {
        let what = format!("traced compress/{policy}/seed={seed}");
        assert_eq!(a.to_value(), b.to_value(), "{what}: reports diverged");
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
    }
}
