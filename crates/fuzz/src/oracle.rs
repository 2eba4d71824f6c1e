//! The per-case differential matrix: ground truth, equivalence checks,
//! and the coverage fingerprint.
//!
//! For one generated program the runner executes:
//!
//! 1. the **oracle** — a baseline-only interpreter (`sample_period: 0`):
//!    no sampling, no optimization, no OSR, semantics by construction;
//! 2. the **matrix** — ±OSR × ±async × ±chaos under the case's policy
//!    (the policy rotates with the spec seed so a 3× policy cross is not
//!    paid per case, yet the campaign as a whole covers all three). Each
//!    cell runs twice: once with the flight recorder on, once off.
//!
//! The traced run's metrics, with only the post-mortem
//! `recovery.trace_dump` scrubbed, must equal the untraced run's **field
//! by field** — one comparison that simultaneously asserts same-seed
//! bit-identity and the recorder's zero-overhead guarantee. Every cell
//! must also reproduce the oracle's program result, and a cell with OSR
//! off must report zero OSR events. Violations become [`Finding`]s; the
//! union of the traced runs' coverage sets becomes the case fingerprint.

use aoci_aos::{AosConfig, AosReport, AosSystem, FaultConfig, OsrEvents, TraceConfig};
use aoci_core::PolicyKind;
use aoci_vm::{CostModel, Value, Vm, COMPONENTS};
use aoci_workloads::{build_fuzz, FuzzSpec};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The three inliner policies the campaign rotates through.
pub const ALL_POLICIES: [PolicyKind; 3] = [
    PolicyKind::ContextInsensitive,
    PolicyKind::Fixed { max: 3 },
    PolicyKind::AdaptiveResolving { max: 3 },
];

/// One rule violation observed while running a case. `kind` is a stable
/// machine-readable tag (regression files key on it); `detail` is the
/// human-readable story.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable tag: `generator-error`, `typecheck-error`, `oracle-vm-error`,
    /// `adaptive-vm-error`, `oracle-divergence`, `rerun-divergence`,
    /// `osr-while-disabled`, or `panic`.
    pub kind: String,
    /// Human-readable description (config cell, field, values).
    pub detail: String,
}

impl Finding {
    fn new(kind: &str, detail: impl Into<String>) -> Self {
        Finding { kind: kind.to_string(), detail: detail.into() }
    }
}

/// Everything one case produced: the spec it ran, the decision-space
/// coverage fingerprint of its traced runs, and any findings.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The spec as given (un-normalized; replay normalizes identically).
    pub spec: FuzzSpec,
    /// Union of the traced runs' coverage features.
    pub fingerprint: BTreeSet<String>,
    /// Violations, empty on a clean case.
    pub findings: Vec<Finding>,
}

impl CaseOutcome {
    /// Whether the case violated no rule.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The policy a spec's matrix runs under (rotates with the seed).
pub fn policy_for(spec: &FuzzSpec) -> PolicyKind {
    ALL_POLICIES[(spec.seed % ALL_POLICIES.len() as u64) as usize]
}

/// One cell of the matrix: OSR on?, async compile on?, chaos faults.
type Cell = (bool, bool, Option<FaultConfig>);

/// What a whole case runs with, on top of its cells: the telemetry registry
/// and deoptless dispatched OSR (the latter only reaches OSR-on cells).
#[derive(Clone, Copy)]
struct RunOpts {
    metrics: bool,
    deoptless: bool,
}

/// One adaptive configuration of the matrix — the differential-oracle
/// idiom: a prime sample period avoids aliasing against fixed loop costs,
/// low thresholds let short fuzz programs exercise promotion and OSR, and
/// guard monitoring is always on so megamorphic thrash reaches the
/// recovery paths.
fn config(policy: PolicyKind, cell: &Cell, opts: RunOpts, traced: bool) -> AosConfig {
    let (osr, async_on, fault) = cell;
    let mut c = AosConfig::new(policy).enable_guard_monitoring();
    if *osr {
        c = c.enable_osr();
        if opts.deoptless {
            c = c.enable_deoptless();
        }
    }
    if *async_on {
        c = c.enable_async_compile();
    }
    if opts.metrics {
        c = c.enable_metrics();
    }
    if let Some(f) = fault {
        c = c.enable_faults(f.clone());
    }
    if traced {
        c = c.enable_trace_with(TraceConfig::default());
    }
    c.cost = CostModel { sample_period: 2_003, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.vm.osr_backedge_threshold = 48;
    c
}

/// The ±OSR × ±async × ±chaos cells, in canonical (OSR-major) order. The
/// chaos seed is the spec seed, so fault schedules vary across the
/// campaign but are fixed per case.
fn cells(seed: u64) -> Vec<Cell> {
    let mut m = Vec::new();
    for osr in [false, true] {
        for async_on in [false, true] {
            for fault in [None, Some(FaultConfig::chaos(seed))] {
                m.push((osr, async_on, fault));
            }
        }
    }
    m
}

/// First field on which two same-configuration runs disagree, if any —
/// the non-panicking mirror of the differential oracle's
/// `assert_identical`.
fn diff_reports(a: &AosReport, b: &AosReport) -> Option<String> {
    if a.result != b.result {
        return Some(format!("result: {:?} vs {:?}", a.result, b.result));
    }
    for c in COMPONENTS {
        if a.clock.component(c) != b.clock.component(c) {
            return Some(format!(
                "clock[{c}]: {} vs {}",
                a.clock.component(c),
                b.clock.component(c)
            ));
        }
    }
    if a.samples != b.samples {
        return Some(format!("samples: {} vs {}", a.samples, b.samples));
    }
    if a.counters != b.counters {
        return Some(format!("counters: {:?} vs {:?}", a.counters, b.counters));
    }
    if a.osr != b.osr {
        return Some(format!("osr: {:?} vs {:?}", a.osr, b.osr));
    }
    if a.recovery != b.recovery {
        return Some(format!("recovery: {:?} vs {:?}", a.recovery, b.recovery));
    }
    if a.async_compile != b.async_compile {
        return Some(format!("async: {:?} vs {:?}", a.async_compile, b.async_compile));
    }
    if a.opt_compilations != b.opt_compilations {
        return Some(format!("opt_compilations: {} vs {}", a.opt_compilations, b.opt_compilations));
    }
    if a.optimized_code_size != b.optimized_code_size {
        return Some(format!(
            "optimized_code_size: {} vs {}",
            a.optimized_code_size, b.optimized_code_size
        ));
    }
    if a.dcg_entries != b.dcg_entries {
        return Some(format!("dcg_entries: {} vs {}", a.dcg_entries, b.dcg_entries));
    }
    if a.final_rules != b.final_rules {
        return Some(format!("final_rules: {} vs {}", a.final_rules, b.final_rules));
    }
    None
}

/// Runs the full differential matrix for `spec`. Never panics on rule
/// violations — they come back as findings; panics from the system under
/// test are the caller's concern (see [`run_case_caught`]).
pub fn run_case(spec: &FuzzSpec) -> CaseOutcome {
    run_case_with(spec, false)
}

/// [`run_case`] with the telemetry registry optionally on in every matrix
/// cell. Since the oracle compares runs field-by-field and the registry
/// charges zero simulated cycles, `metrics: true` must produce the exact
/// same outcome (fingerprint *and* findings) as `metrics: false` — the
/// campaign-scale form of the PR-3 invariant, asserted by
/// `tests/tests/telemetry.rs`.
pub fn run_case_with(spec: &FuzzSpec, metrics: bool) -> CaseOutcome {
    run_case_with_opts(spec, metrics, false)
}

/// [`run_case_with`] with deoptless dispatched OSR optionally layered onto
/// the matrix: with `deoptless: true` every OSR-on cell runs with
/// context-specialized version retention and dispatched transfers
/// (DESIGN.md §16), widening the matrix to policy × OSR × deoptless ×
/// async × chaos. OSR-off cells are untouched — deoptless without OSR is
/// meaningless — so the `osr-while-disabled` rule still applies, and with
/// `deoptless: false` the matrix (and its fingerprint) is byte-identical
/// to the pre-deoptless campaign.
pub fn run_case_with_opts(spec: &FuzzSpec, metrics: bool, deoptless: bool) -> CaseOutcome {
    let opts = RunOpts { metrics, deoptless };
    let mut out =
        CaseOutcome { spec: spec.clone(), fingerprint: BTreeSet::new(), findings: Vec::new() };

    let program = match build_fuzz(spec) {
        Ok(w) => w.program,
        Err(e) => {
            out.findings.push(Finding::new("generator-error", format!("{e:?}")));
            return out;
        }
    };
    if let Err(e) = aoci_ir::typecheck::verify(&program) {
        out.findings.push(Finding::new("typecheck-error", format!("{e:?}")));
        return out;
    }

    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let expected: Option<Value> = match Vm::new(&program, cost).run_to_completion() {
        Ok(r) => r,
        Err(e) => {
            out.findings.push(Finding::new("oracle-vm-error", format!("{e}")));
            return out;
        }
    };

    let policy = policy_for(spec);
    for cell in cells(spec.seed) {
        let (osr, async_on, ref fault) = cell;
        let what = format!(
            "{}/{policy}/osr={osr}/deoptless={}/async={async_on}/chaos={}",
            spec.name,
            deoptless && osr,
            fault.is_some()
        );
        let traced = AosSystem::new(&program, config(policy, &cell, opts, true)).run();
        let untraced = AosSystem::new(&program, config(policy, &cell, opts, false)).run();
        let (a, b) = match (traced, untraced) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                out.findings.push(Finding::new(
                    "adaptive-vm-error",
                    format!("{what}: adaptive run faulted: {e}"),
                ));
                continue;
            }
        };

        if let Some(log) = &a.trace_log {
            out.fingerprint.extend(log.coverage());
        }
        if a.result != expected {
            out.findings.push(Finding::new(
                "oracle-divergence",
                format!("{what}: result {:?} differs from oracle {:?}", a.result, expected),
            ));
        }
        // Traced vs untraced, post-mortem dump scrubbed: one comparison
        // proving same-seed bit-identity AND recorder zero-overhead.
        let mut scrubbed = a.clone();
        scrubbed.recovery.trace_dump.clear();
        if let Some(field) = diff_reports(&scrubbed, &b) {
            out.findings
                .push(Finding::new("rerun-divergence", format!("{what}: {field}")));
        }
        if !osr && a.osr != OsrEvents::default() {
            out.findings.push(Finding::new(
                "osr-while-disabled",
                format!("{what}: OSR events {:?} recorded while disabled", a.osr),
            ));
        }
    }
    out
}

/// [`run_case`] behind `catch_unwind`: a panic anywhere in the system
/// under test becomes a `panic` finding instead of killing the campaign
/// (or poisoning the job pool's result lock).
pub fn run_case_caught(spec: &FuzzSpec) -> CaseOutcome {
    run_case_caught_with(spec, false)
}

/// [`run_case_caught`] with the telemetry registry optionally on (see
/// [`run_case_with`]).
pub fn run_case_caught_with(spec: &FuzzSpec, metrics: bool) -> CaseOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_case_with(spec, metrics))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            CaseOutcome {
                spec: spec.clone(),
                fingerprint: BTreeSet::new(),
                findings: vec![Finding::new("panic", format!("{}: {msg}", spec.name))],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sample_spec;

    #[test]
    fn a_minimal_case_is_clean_and_deterministic() {
        let spec = FuzzSpec::minimal("unit", 5);
        let a = run_case(&spec);
        let b = run_case(&spec);
        assert!(a.clean(), "findings: {:?}", a.findings);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn a_sampled_case_produces_decision_coverage() {
        let out = run_case(&sample_spec(1, 0));
        assert!(out.clean(), "findings: {:?}", out.findings);
        assert!(
            out.fingerprint.iter().any(|f| f.starts_with("inline:")),
            "expected inlining coverage, got {:?}",
            out.fingerprint
        );
        assert!(
            out.fingerprint.iter().any(|f| f.starts_with("fault:")),
            "chaos cells must contribute fault coverage: {:?}",
            out.fingerprint
        );
    }

    #[test]
    fn metering_does_not_change_a_case() {
        // The campaign-scale PR-3 invariant in miniature: the registry
        // charges no simulated cycles, so the full differential matrix
        // is blind to it.
        let spec = sample_spec(1, 0);
        let plain = run_case_with(&spec, false);
        let metered = run_case_with(&spec, true);
        assert_eq!(plain.findings, metered.findings);
        assert_eq!(plain.fingerprint, metered.fingerprint);
    }

    #[test]
    fn deoptless_axis_is_clean_and_deterministic() {
        // The PR-10 matrix widening: every OSR-on cell reruns with
        // dispatched OSR, and the oracle must still prove both
        // result-equivalence against the reference VM and bit-identical
        // same-seed reruns.
        let spec = sample_spec(1, 0);
        let a = run_case_with_opts(&spec, false, true);
        let b = run_case_with_opts(&spec, false, true);
        assert!(a.clean(), "findings: {:?}", a.findings);
        assert_eq!(a.fingerprint, b.fingerprint);
        // OSR-out of a fused superinstruction region must dispatch as it
        // did under an interpreter that never fused: the decisions this
        // case reached when that comparison was last made.
        let pinned = [
            "async:enqueue",
            "async:overlap",
            "fault:compile-bailout",
            "fault:compile-oversize",
            "fault:corrupt-trace",
            "fault:dropped-sample",
            "fault:receiver-burst",
            "inline:depth:0",
            "inline:depth:1",
            "inline:depth:2",
            "inline:guarded",
            "inline:rule-fired",
            "inline:unguarded",
            "osr:enter",
            "osr:request",
            "plan:hot-method",
            "plan:missing-edge",
            "plan:retry",
            "profile:sample-dropped",
            "recovery:invalidate",
            "recovery:quarantine",
            "recovery:retry",
            "recovery:trace-rejected",
            "refuse:callee too large",
            "refuse:code expansion exceeded",
            "refuse:cold",
            "refuse:depth:0",
            "refuse:depth:1",
            "refuse:depth:2",
            "refuse:hot",
            "refuse:medium callee without profile support",
            "refuse:per-site guarded-inline limit reached",
            "vm:guard-miss",
        ];
        assert_eq!(a.fingerprint.iter().map(String::as_str).collect::<Vec<_>>(), pinned);
    }

    #[test]
    fn deoptless_off_matrix_is_unchanged() {
        // Corpus byte-identity guard: the default entry points must run
        // the exact pre-deoptless matrix, so the campaign fingerprint
        // (and the committed corpus.json) cannot move.
        let spec = sample_spec(2, 1);
        let default_path = run_case(&spec);
        let explicit_off = run_case_with_opts(&spec, false, false);
        assert_eq!(default_path.findings, explicit_off.findings);
        assert_eq!(default_path.fingerprint, explicit_off.fingerprint);
    }

    #[test]
    fn policies_rotate_with_the_seed() {
        let kinds: BTreeSet<String> = (0..9)
            .map(|s| {
                let mut spec = FuzzSpec::minimal("p", s);
                spec.seed = s;
                format!("{}", policy_for(&spec))
            })
            .collect();
        assert_eq!(kinds.len(), 3, "all three policies in 9 consecutive seeds");
    }

    #[test]
    fn caught_runner_converts_panics_to_findings() {
        // A spec is just data; panic conversion is tested via a poisoned
        // closure stand-in: force a panic through the catch path by
        // running a case against a spec whose generator we make panic is
        // not possible from here, so assert the pass-through contract on
        // a clean case instead.
        let spec = FuzzSpec::minimal("caught", 3);
        let direct = run_case(&spec);
        let caught = run_case_caught(&spec);
        assert_eq!(direct.findings, caught.findings);
        assert_eq!(direct.fingerprint, caught.fingerprint);
    }
}
