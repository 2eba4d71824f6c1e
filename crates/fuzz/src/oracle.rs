//! The workspace's one differential oracle: ground truth, the adaptive
//! matrix, the checks every cell passes, and the coverage fingerprint.
//!
//! For any program — a generated spec, a suite workload, the HashMap
//! example — [`run_program`] executes:
//!
//! 1. the **reference** — a baseline-only interpreter (`sample_period: 0`):
//!    no sampling, no optimization, no OSR, semantics by construction;
//! 2. the **matrix** — ±OSR × ±async × ±chaos under one policy, each cell
//!    twice: once with the flight recorder on an unbounded ring, once off.
//!
//! Every cell must pass four checks; a violation becomes a [`Finding`]:
//!
//! * its program result equals the reference's (`oracle-divergence`);
//! * the traced report's `to_value()`, with only the post-mortem
//!   `recovery.trace_dump` scrubbed, equals the untraced one's — one
//!   comparison that asserts same-seed bit-identity and the recorder's
//!   zero overhead (`rerun-divergence`);
//! * every counter the traced report carries is a fold of its event
//!   stream, re-derived here independently of the driver's `Ledger`
//!   (`ledger-fold`);
//! * a cell with OSR off reports no OSR events (`osr-while-disabled`).
//!
//! A fuzz case ([`run_case`]) runs its generated program under the policy
//! its seed selects, with its seed as the chaos seed; the union of its
//! traced runs' coverage sets is the case fingerprint.

use aoci_aos::{
    AosConfig, AosReport, AosSystem, AsyncCompileEvents, FaultConfig, OsrEvents, RecoveryEvents,
    TraceConfig, TraceEvent,
};
use aoci_core::PolicyKind;
use aoci_ir::Program;
use aoci_json::Value as Json;
use aoci_trace::{FaultKind, RetryCause};
use aoci_vm::{CostModel, Value, Vm};
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
    /// `ledger-fold`, `osr-while-disabled`, or `panic`.
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

/// What a whole matrix runs with on top of its cells.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// The telemetry registry on in every cell. It charges no simulated
    /// cycles, so no outcome — fingerprint or findings — may move.
    pub metrics: bool,
}

/// The policy a spec's matrix runs under (rotates with the seed).
pub fn policy_for(spec: &FuzzSpec) -> PolicyKind {
    ALL_POLICIES[(spec.seed % ALL_POLICIES.len() as u64) as usize]
}

/// The oracle's adaptive configuration before a cell's axes are added: a
/// prime sample period avoids aliasing against fixed loop costs, low
/// thresholds let short programs exercise promotion and OSR, and guard
/// monitoring is always on so megamorphic thrash reaches the recovery
/// paths. Tests that run this configuration outside the matrix start here.
pub fn config(policy: PolicyKind) -> AosConfig {
    let mut c = AosConfig::new(policy).enable_guard_monitoring();
    c.cost = CostModel { sample_period: 2_003, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.vm.osr_backedge_threshold = 48;
    c
}

/// One cell of the matrix: OSR on?, async compile on?, chaos faults.
type Cell = (bool, bool, Option<FaultConfig>);

/// The ±OSR × ±async × ±chaos cells, in canonical (OSR-major) order.
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

/// [`config`] with one cell's axes. The traced twin's ring is unbounded,
/// so the fold sees every event and the coverage set every decision.
fn cell_config(policy: PolicyKind, cell: &Cell, opts: RunOpts, traced: bool) -> AosConfig {
    let (osr, async_on, fault) = cell;
    let mut c = config(policy);
    if *osr {
        c = c.enable_osr();
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
        c = c.enable_trace_with(TraceConfig { capacity: usize::MAX, ..TraceConfig::default() });
    }
    c
}

/// The first top-level field on which two report values disagree.
fn diverging_field(a: &Json, b: &Json) -> String {
    let render = |v: Option<&Json>| v.map_or_else(|| "absent".to_string(), aoci_json::to_string);
    match a.as_obj().and_then(|m| m.iter().find(|(k, v)| b.get(k) != Some(*v))) {
        Some((k, v)) => format!("{k}: {} vs {}", render(Some(v)), render(b.get(k))),
        None => "the untraced report has a field the traced one lacks".to_string(),
    }
}

/// The first counter of `r` that is not a fold of its unbounded trace, if
/// any. The fold is written here, independently of the driver's `Ledger`,
/// and also covers the counters the VM and the trace listener keep.
fn ledger_fold(r: &AosReport) -> Option<String> {
    let Some(log) = r.trace_log.as_ref() else {
        return Some("the run carries no trace".to_string());
    };
    if log.dropped > 0 {
        return Some(format!("the unbounded ring dropped {} events", log.dropped));
    }
    let mut rec = RecoveryEvents::default();
    let mut osr = OsrEvents::default();
    let mut queue = AsyncCompileEvents::default();
    let (mut guard_misses, mut samples, mut walks, mut frames) = (0u64, 0u64, 0u64, 0u64);
    let (mut installs, mut finishes) = (0u64, 0u64);
    let (mut server_hits, mut server_misses) = (0u64, 0u64);
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
            TraceEvent::CompileEnqueue { queue_depth, .. } => {
                queue.enqueued += 1;
                queue.max_queue_depth = queue.max_queue_depth.max(u64::from(*queue_depth));
            }
            TraceEvent::CompileStart { .. } => queue.dispatched += 1,
            TraceEvent::CompileFinish { landed, cycles, .. } => {
                finishes += 1;
                queue.completed += u64::from(*landed);
                queue.background_overlap_cycles += cycles.overlap_cycles;
                queue.foreground_stall_cycles += cycles.stall_cycles;
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
            TraceEvent::ServerLookup { hit: true, .. } => server_hits += 1,
            TraceEvent::ServerLookup { hit: false, .. } => server_misses += 1,
            _ => {}
        }
    }
    queue.abandoned_in_flight = queue.dispatched.wrapping_sub(finishes);
    let reported = RecoveryEvents { trace_dump: Vec::new(), ..r.recovery.clone() };
    [
        ("recovery", format!("{reported:?}"), format!("{rec:?}")),
        ("osr", format!("{:?}", r.osr), format!("{osr:?}")),
        ("async_compile", format!("{:?}", r.async_compile), format!("{queue:?}")),
        ("counters.guard_misses", r.counters.guard_misses.to_string(), guard_misses.to_string()),
        ("samples", r.samples.to_string(), samples.to_string()),
        ("traces_recorded", r.traces_recorded.to_string(), walks.to_string()),
        ("frames_walked", r.frames_walked.to_string(), frames.to_string()),
        ("opt_compilations", r.opt_compilations.to_string(), installs.to_string()),
        ("compilations", r.compilations.len().to_string(), installs.to_string()),
        ("compile_server.hits", r.compile_server.hits.to_string(), server_hits.to_string()),
        ("compile_server.misses", r.compile_server.misses.to_string(), server_misses.to_string()),
    ]
    .into_iter()
    .find(|(_, reported, folded)| reported != folded)
    .map(|(field, reported, folded)| format!("{field}: report {reported} vs fold {folded}"))
}

/// The four checks of one cell. `traced` arrives with its post-mortem dump
/// scrubbed: the one thing an untraced run cannot carry.
fn check_cell(
    what: &str,
    osr: bool,
    expected: Option<Value>,
    traced: &AosReport,
    untraced: &AosReport,
    findings: &mut Vec<Finding>,
) {
    if traced.result != expected {
        findings.push(Finding::new(
            "oracle-divergence",
            format!("{what}: result {:?} differs from the reference {expected:?}", traced.result),
        ));
    }
    let (a, b) = (traced.to_value(), untraced.to_value());
    if a != b {
        let field = diverging_field(&a, &b);
        findings.push(Finding::new("rerun-divergence", format!("{what}: {field}")));
    }
    if let Some(field) = ledger_fold(traced) {
        findings.push(Finding::new("ledger-fold", format!("{what}: {field}")));
    }
    if !osr && traced.osr != OsrEvents::default() {
        findings.push(Finding::new(
            "osr-while-disabled",
            format!("{what}: OSR events {:?} recorded while disabled", traced.osr),
        ));
    }
}

/// The reference and the matrix for `program`: its coverage and findings.
fn matrix(
    name: &str,
    program: &Program,
    policy: PolicyKind,
    seed: u64,
    opts: RunOpts,
) -> (BTreeSet<String>, Vec<Finding>) {
    let mut fingerprint = BTreeSet::new();
    let mut findings = Vec::new();
    if let Err(e) = aoci_ir::typecheck::verify(program) {
        findings.push(Finding::new("typecheck-error", format!("{name}: {e:?}")));
        return (fingerprint, findings);
    }
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let expected = match Vm::new(program, cost).run_to_completion() {
        Ok(r) => r,
        Err(e) => {
            findings.push(Finding::new("oracle-vm-error", format!("{name}: {e}")));
            return (fingerprint, findings);
        }
    };
    for cell in cells(seed) {
        let (osr, async_on, ref fault) = cell;
        let what = format!(
            "{name}/{policy}/osr={osr}/async={async_on}/chaos={}",
            fault.is_some()
        );
        let traced = AosSystem::new(program, cell_config(policy, &cell, opts, true)).run();
        let untraced = AosSystem::new(program, cell_config(policy, &cell, opts, false)).run();
        let (mut a, b) = match (traced, untraced) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                findings.push(Finding::new(
                    "adaptive-vm-error",
                    format!("{what}: adaptive run faulted: {e}"),
                ));
                continue;
            }
        };
        if let Some(log) = &a.trace_log {
            fingerprint.extend(log.coverage());
        }
        a.recovery.trace_dump.clear();
        check_cell(&what, osr, expected, &a, &b, &mut findings);
    }
    (fingerprint, findings)
}

/// Runs `program` through the reference and the ±OSR × ±async × ±chaos
/// matrix under `policy`, with `seed` as the chaos cells' fault seed;
/// `name` starts every finding's detail. A rule violation comes back as a
/// finding; a panic in the system under test propagates.
pub fn run_program(
    name: &str,
    program: &Program,
    policy: PolicyKind,
    seed: u64,
    opts: RunOpts,
) -> Vec<Finding> {
    matrix(name, program, policy, seed, opts).1
}

/// Builds `spec`'s program and runs it through the matrix under
/// [`policy_for`] with the spec seed as the chaos seed.
fn case(spec: &FuzzSpec, opts: RunOpts) -> CaseOutcome {
    let (fingerprint, findings) = match build_fuzz(spec) {
        Ok(w) => matrix(&spec.name, &w.program, policy_for(spec), spec.seed, opts),
        Err(e) => (BTreeSet::new(), vec![Finding::new("generator-error", format!("{e:?}"))]),
    };
    CaseOutcome { spec: spec.clone(), fingerprint, findings }
}

/// Runs the full differential matrix for `spec` with default options.
/// Never panics on rule violations — they come back as findings; panics
/// from the system under test are the caller's concern (see
/// [`run_case_caught`]).
pub fn run_case(spec: &FuzzSpec) -> CaseOutcome {
    case(spec, RunOpts::default())
}

/// [`run_case`] behind `catch_unwind`: a panic anywhere in the system
/// under test becomes a `panic` finding instead of killing the campaign
/// (or poisoning the job pool's result lock).
pub fn run_case_caught(spec: &FuzzSpec) -> CaseOutcome {
    run_case_caught_with(spec, RunOpts::default())
}

/// [`run_case_caught`] with [`RunOpts`]: the telemetry registry on.
/// Metering must not change any outcome.
pub fn run_case_caught_with(spec: &FuzzSpec, opts: RunOpts) -> CaseOutcome {
    caught(spec, || case(spec, opts))
}

/// Runs `run` behind `catch_unwind`, turning a panic into the case's one
/// `panic` finding.
fn caught(spec: &FuzzSpec, run: impl FnOnce() -> CaseOutcome) -> CaseOutcome {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
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
    })
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
        let plain = run_case_caught_with(&spec, RunOpts { metrics: false });
        let metered = run_case_caught_with(&spec, RunOpts { metrics: true });
        assert!(metered.clean(), "findings: {:?}", metered.findings);
        assert_eq!(plain.findings, metered.findings);
        assert_eq!(plain.fingerprint, metered.fingerprint);
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
        let spec = FuzzSpec::minimal("caught", 3);
        let direct = run_case(&spec);
        let passed = caught(&spec, || direct.clone());
        assert_eq!((passed.findings, passed.fingerprint), (direct.findings, direct.fingerprint));
        let detail = |run: fn() -> CaseOutcome| {
            let out = caught(&spec, run);
            assert!(out.fingerprint.is_empty());
            assert_eq!(out.findings.len(), 1);
            assert_eq!(out.findings[0].kind, "panic");
            out.findings[0].detail.clone()
        };
        assert_eq!(detail(|| panic!("formatted {}", 7)), "caught: formatted 7");
        assert_eq!(detail(|| panic!("a literal")), "caught: a literal");
        assert_eq!(
            detail(|| std::panic::panic_any(7u32)),
            "caught: <non-string panic payload>"
        );
    }

    #[test]
    fn each_check_fires_on_its_own_doctored_field() {
        let spec = sample_spec(1, 0);
        let program = build_fuzz(&spec).expect("campaign 1 specs build").program;
        let cell = (true, true, Some(FaultConfig::chaos(spec.seed)));
        let run = |traced| {
            let c = cell_config(policy_for(&spec), &cell, RunOpts::default(), traced);
            AosSystem::new(&program, c).run().expect("the case runs clean")
        };
        let (mut a, b) = (run(true), run(false));
        a.recovery.trace_dump.clear();
        let expected = a.result;
        let kinds = |osr, expected: Option<Value>, a: &AosReport, b: &AosReport| {
            let mut findings = Vec::new();
            check_cell("cell", osr, expected, a, b, &mut findings);
            findings.into_iter().map(|f| f.kind).collect::<Vec<_>>()
        };
        assert!(kinds(true, expected, &a, &b).is_empty());
        assert_eq!(kinds(true, Some(Value::Int(i64::MIN)), &a, &b), ["oracle-divergence"]);
        let mut moved = b.clone();
        moved.current_optimized_size += 1;
        assert_eq!(kinds(true, expected, &a, &moved), ["rerun-divergence"]);
        let (mut a2, mut b2) = (a.clone(), b.clone());
        a2.recovery.invalidations += 1;
        b2.recovery.invalidations += 1;
        assert_eq!(kinds(true, expected, &a2, &b2), ["ledger-fold"]);
        assert_ne!(a.osr, OsrEvents::default(), "the OSR-on cell promotes");
        assert_eq!(kinds(false, expected, &a, &b), ["osr-while-disabled"]);
    }
}
