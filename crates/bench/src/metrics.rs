//! Single-run measurement and derived metrics.
//!
//! The unit of work is one **repetition**: [`run_rep`] is a pure function
//! of `(program, policy, rep, EnvConfig)` with no ambient environment
//! reads, so repetitions are `Send` jobs the parallel sweep pool can
//! execute in any order. [`aggregate`] folds a rep-ordered report slice
//! into one [`RunMetrics`] deterministically, which keeps
//! `results/grid.json` byte-identical for any `AOCI_JOBS` worker count.

use crate::env::EnvConfig;
use aoci_aos::{AosConfig, AosReport, AosSystem};
use aoci_core::PolicyKind;
use aoci_json::Value;
use aoci_vm::{Component, COMPONENTS};
use aoci_workloads::{build, WorkloadSpec};

/// Constructor for one policy group: the max context depth selects the
/// concrete [`PolicyKind`].
pub type PolicyCtor = fn(u8) -> PolicyKind;

/// The six policy groups of the paper's Figures 4/5, in subfigure order
/// (a)–(f), keyed by the short label used throughout the harness output.
pub const POLICY_GROUPS: [(&str, PolicyCtor); 6] = [
    ("fixed", |max| PolicyKind::Fixed { max }),
    ("paramLess", |max| PolicyKind::Parameterless { max }),
    ("class", |max| PolicyKind::ClassMethods { max }),
    ("large", |max| PolicyKind::LargeMethods { max }),
    ("hybrid1", |max| PolicyKind::ParameterlessClass { max }),
    ("hybrid2", |max| PolicyKind::ParameterlessLarge { max }),
];

/// Canonical label for a policy configuration (e.g. `fixed/3`, `cins`).
pub fn policy_label(policy: PolicyKind) -> String {
    match policy {
        PolicyKind::ContextInsensitive => "cins".to_string(),
        PolicyKind::Fixed { max } => format!("fixed/{max}"),
        PolicyKind::Parameterless { max } => format!("paramLess/{max}"),
        PolicyKind::ClassMethods { max } => format!("class/{max}"),
        PolicyKind::LargeMethods { max } => format!("large/{max}"),
        PolicyKind::ParameterlessClass { max } => format!("hybrid1/{max}"),
        PolicyKind::ParameterlessLarge { max } => format!("hybrid2/{max}"),
        PolicyKind::IdealApprox { max } => format!("ideal/{max}"),
        PolicyKind::AdaptiveResolving { max } => format!("adaptive/{max}"),
    }
}

/// Aggregated measurements of one (workload, policy) configuration.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Workload name.
    pub workload: String,
    /// Policy label ([`policy_label`]).
    pub policy: String,
    /// Median total simulated cycles over the repetitions (wall-clock
    /// analogue).
    pub total_cycles: u64,
    /// Mean cumulative optimized code size (all optimized code generated).
    pub cumulative_code: f64,
    /// Mean resident optimized code size at end of run.
    pub current_code: f64,
    /// Mean cycles in the optimizing compilation thread.
    pub compile_cycles: f64,
    /// Mean optimizing compilations.
    pub opt_compilations: f64,
    /// Mean fraction of execution per component, in [`COMPONENTS`] order.
    pub component_fracs: Vec<f64>,
    /// Mean samples taken.
    pub samples: f64,
    /// Mean trace samples recorded.
    pub traces_recorded: f64,
    /// Mean stack frames walked by the trace listener.
    pub frames_walked: f64,
    /// Mean guard checks executed.
    pub guard_checks: f64,
    /// Mean guard misses.
    pub guard_misses: f64,
    /// Mean virtual dispatches.
    pub virtual_dispatches: f64,
    /// Trace-walk statistics (from the first repetition).
    pub stats_immediately_parameterless: f64,
    /// Fraction with a parameterless method within 5 levels.
    pub stats_parameterless_within_5: f64,
    /// Fraction with a class method within 2 levels.
    pub stats_class_within_2: f64,
    /// Fraction needing ≥ 4 levels to reach a large method.
    pub stats_large_at_or_beyond_4: f64,
    /// Methods dynamically (baseline-)compiled — Table 1 "Methods".
    pub methods_compiled: u32,
    /// Program return value (sanity: must agree across policies).
    pub result: Option<i64>,
    /// Mean OSR promotion requests raised by hot back-edges.
    pub osr_requests: f64,
    /// Mean OSR requests the driver denied (quarantine/budget/refused map).
    pub osr_denied: f64,
    /// Mean OSR-in transfers (baseline activation promoted mid-loop).
    pub osr_entries: f64,
    /// Mean OSR-out transfers (optimized activation deoptimized mid-loop).
    pub osr_exits: f64,
    /// Mean compiled-code invalidations (guard-thrash recovery).
    pub recovery_invalidations: f64,
    /// Mean compile retries after injected/organic compile failures.
    pub recovery_retries: f64,
    /// Mean methods quarantined from optimizing compilation.
    pub recovery_quarantined: f64,
    /// Mean profile traces rejected by sanitization.
    pub recovery_rejected_traces: f64,
}

/// Builds the AOS configuration for one repetition: repetitions perturb the
/// sampling period slightly, emulating the timer non-determinism the paper
/// handles with a best-of-20 protocol. A pure function of its arguments —
/// the sweep flags (OSR, tracing, async compilation) come from the
/// [`EnvConfig`] parsed once at the entry point, never from ambient reads.
pub fn run_config(env: &EnvConfig, policy: PolicyKind, rep: usize) -> AosConfig {
    let mut config = AosConfig::new(policy);
    if env.osr {
        config = config.enable_osr();
    }
    if env.trace {
        config = config.enable_trace();
    }
    if env.async_compile {
        config = config.enable_async_compile();
    }
    if env.metrics {
        config = config.enable_metrics();
    }
    config.cost.sample_period += (rep as u64) * 37;
    config
}

/// Runs one repetition of one (workload, policy) configuration — the
/// sweep pool's job function. Deterministic: the run is a pure function of
/// `(program, policy, rep, env)` on its own simulated clock.
pub fn run_rep(
    program: &aoci_ir::Program,
    workload: &str,
    policy: PolicyKind,
    rep: usize,
    env: &EnvConfig,
) -> AosReport {
    AosSystem::new(program, run_config(env, policy, rep))
        .run()
        .unwrap_or_else(|e| panic!("{workload}/{policy:?} rep {rep} faulted: {e}"))
}

/// Runs one (workload, policy) configuration `env.reps` times — across the
/// sweep pool when `env.jobs > 1` — and aggregates.
pub fn run_one(spec: &WorkloadSpec, policy: PolicyKind, env: &EnvConfig) -> RunMetrics {
    let w = build(spec);
    let reports = env.pool().map((0..env.reps).collect(), |&rep| {
        run_rep(&w.program, spec.name, policy, rep, env)
    });
    aggregate(spec.name, policy, &reports)
}

/// Folds the rep-ordered reports of one (workload, policy) cell into its
/// [`RunMetrics`] entry. The fold iterates reports **in repetition order**
/// whatever order the pool finished them in, so every float accumulation
/// happens in the same sequence as a plain serial loop — byte-identical
/// aggregates for any worker count.
pub fn aggregate(workload: &str, policy: PolicyKind, reports: &[AosReport]) -> RunMetrics {
    let n = reports.len();
    assert!(n > 0, "at least one repetition");
    let mut totals: Vec<u64> = Vec::with_capacity(n);
    let mut cumulative = 0.0;
    let mut current = 0.0;
    let mut compile = 0.0;
    let mut compilations = 0.0;
    let mut fracs = vec![0.0; COMPONENTS.len()];
    let mut samples = 0.0;
    let mut traces = 0.0;
    let mut frames = 0.0;
    let mut guard_checks = 0.0;
    let mut guard_misses = 0.0;
    let mut dispatches = 0.0;
    let mut first_stats = None;
    let mut methods_compiled = 0;
    let mut result = None;
    let mut invalidations = 0.0;
    let mut retries = 0.0;
    let mut quarantined = 0.0;
    let mut rejected_traces = 0.0;
    let mut osr_requests = 0.0;
    let mut osr_denied = 0.0;
    let mut osr_entries = 0.0;
    let mut osr_exits = 0.0;
    for report in reports {
        totals.push(report.total_cycles());
        cumulative += report.optimized_code_size as f64;
        current += report.current_optimized_size as f64;
        compile += report.compile_cycles() as f64;
        compilations += report.opt_compilations as f64;
        for (i, c) in COMPONENTS.iter().enumerate() {
            fracs[i] += report.fraction(*c);
        }
        samples += report.samples as f64;
        traces += report.traces_recorded as f64;
        frames += report.frames_walked as f64;
        guard_checks += report.counters.guard_checks as f64;
        guard_misses += report.counters.guard_misses as f64;
        dispatches += report.counters.virtual_dispatches as f64;
        invalidations += report.recovery.invalidations as f64;
        retries += report.recovery.compile_retries as f64;
        quarantined += report.recovery.quarantined_methods as f64;
        rejected_traces += report.recovery.rejected_traces as f64;
        osr_requests += report.osr.requests as f64;
        osr_denied += report.osr.denied as f64;
        osr_entries += report.osr.entries as f64;
        osr_exits += report.osr.exits as f64;
        if first_stats.is_none() {
            first_stats = Some(report.trace_stats);
            methods_compiled = report.baseline_compilations;
            result = report.result.and_then(|v| v.as_int());
        } else {
            let r = report.result.and_then(|v| v.as_int());
            assert_eq!(r, result, "nondeterministic program result");
        }
    }
    totals.sort_unstable();
    let inv = 1.0 / n as f64;
    let stats = first_stats.expect("at least one repetition");
    RunMetrics {
        workload: workload.to_string(),
        policy: policy_label(policy),
        total_cycles: totals[totals.len() / 2],
        cumulative_code: cumulative * inv,
        current_code: current * inv,
        compile_cycles: compile * inv,
        opt_compilations: compilations * inv,
        component_fracs: fracs.iter().map(|f| f * inv).collect(),
        samples: samples * inv,
        traces_recorded: traces * inv,
        frames_walked: frames * inv,
        guard_checks: guard_checks * inv,
        guard_misses: guard_misses * inv,
        virtual_dispatches: dispatches * inv,
        stats_immediately_parameterless: stats.immediately_parameterless,
        stats_parameterless_within_5: stats.parameterless_within_5,
        stats_class_within_2: stats.class_method_within_2,
        stats_large_at_or_beyond_4: stats.large_at_or_beyond_4,
        methods_compiled,
        result,
        osr_requests: osr_requests * inv,
        osr_denied: osr_denied * inv,
        osr_entries: osr_entries * inv,
        osr_exits: osr_exits * inv,
        recovery_invalidations: invalidations * inv,
        recovery_retries: retries * inv,
        recovery_quarantined: quarantined * inv,
        recovery_rejected_traces: rejected_traces * inv,
    }
}

impl RunMetrics {
    /// Serializes to an [`aoci_json::Value`] object (one grid entry).
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("workload".to_string(), Value::from(self.workload.clone())),
            ("policy".to_string(), Value::from(self.policy.clone())),
            ("total_cycles".to_string(), Value::from(self.total_cycles)),
            ("cumulative_code".to_string(), Value::from(self.cumulative_code)),
            ("current_code".to_string(), Value::from(self.current_code)),
            ("compile_cycles".to_string(), Value::from(self.compile_cycles)),
            ("opt_compilations".to_string(), Value::from(self.opt_compilations)),
            (
                "component_fracs".to_string(),
                Value::Arr(self.component_fracs.iter().map(|&f| Value::from(f)).collect()),
            ),
            ("samples".to_string(), Value::from(self.samples)),
            ("traces_recorded".to_string(), Value::from(self.traces_recorded)),
            ("frames_walked".to_string(), Value::from(self.frames_walked)),
            ("guard_checks".to_string(), Value::from(self.guard_checks)),
            ("guard_misses".to_string(), Value::from(self.guard_misses)),
            ("virtual_dispatches".to_string(), Value::from(self.virtual_dispatches)),
            (
                "stats_immediately_parameterless".to_string(),
                Value::from(self.stats_immediately_parameterless),
            ),
            (
                "stats_parameterless_within_5".to_string(),
                Value::from(self.stats_parameterless_within_5),
            ),
            ("stats_class_within_2".to_string(), Value::from(self.stats_class_within_2)),
            (
                "stats_large_at_or_beyond_4".to_string(),
                Value::from(self.stats_large_at_or_beyond_4),
            ),
            ("methods_compiled".to_string(), Value::from(self.methods_compiled)),
            (
                "result".to_string(),
                self.result.map_or(Value::Null, Value::from),
            ),
            ("osr_requests".to_string(), Value::from(self.osr_requests)),
            ("osr_denied".to_string(), Value::from(self.osr_denied)),
            ("osr_entries".to_string(), Value::from(self.osr_entries)),
            ("osr_exits".to_string(), Value::from(self.osr_exits)),
            ("recovery_invalidations".to_string(), Value::from(self.recovery_invalidations)),
            ("recovery_retries".to_string(), Value::from(self.recovery_retries)),
            ("recovery_quarantined".to_string(), Value::from(self.recovery_quarantined)),
            (
                "recovery_rejected_traces".to_string(),
                Value::from(self.recovery_rejected_traces),
            ),
        ])
    }

    /// Deserializes one grid entry; `None` if the value has the wrong shape.
    pub fn from_value(v: &Value) -> Option<RunMetrics> {
        let f = |key: &str| v.get(key).and_then(Value::as_f64);
        Some(RunMetrics {
            workload: v.get("workload")?.as_str()?.to_string(),
            policy: v.get("policy")?.as_str()?.to_string(),
            total_cycles: v.get("total_cycles")?.as_u64()?,
            cumulative_code: f("cumulative_code")?,
            current_code: f("current_code")?,
            compile_cycles: f("compile_cycles")?,
            opt_compilations: f("opt_compilations")?,
            component_fracs: v
                .get("component_fracs")?
                .as_arr()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<Vec<f64>>>()?,
            samples: f("samples")?,
            traces_recorded: f("traces_recorded")?,
            frames_walked: f("frames_walked")?,
            guard_checks: f("guard_checks")?,
            guard_misses: f("guard_misses")?,
            virtual_dispatches: f("virtual_dispatches")?,
            stats_immediately_parameterless: f("stats_immediately_parameterless")?,
            stats_parameterless_within_5: f("stats_parameterless_within_5")?,
            stats_class_within_2: f("stats_class_within_2")?,
            stats_large_at_or_beyond_4: f("stats_large_at_or_beyond_4")?,
            methods_compiled: u32::try_from(v.get("methods_compiled")?.as_u64()?).ok()?,
            result: match v.get("result") {
                None | Some(Value::Null) => None,
                Some(r) => Some(r.as_i64()?),
            },
            osr_requests: f("osr_requests").unwrap_or(0.0),
            osr_denied: f("osr_denied").unwrap_or(0.0),
            osr_entries: f("osr_entries").unwrap_or(0.0),
            osr_exits: f("osr_exits").unwrap_or(0.0),
            recovery_invalidations: f("recovery_invalidations").unwrap_or(0.0),
            recovery_retries: f("recovery_retries").unwrap_or(0.0),
            recovery_quarantined: f("recovery_quarantined").unwrap_or(0.0),
            recovery_rejected_traces: f("recovery_rejected_traces").unwrap_or(0.0),
        })
    }

    /// Fraction of execution in `component`.
    pub fn fraction(&self, component: Component) -> f64 {
        let idx = COMPONENTS
            .iter()
            .position(|&c| c == component)
            .expect("known component");
        self.component_fracs[idx]
    }
}

/// Figure 4 y-axis: percent wall-clock speedup of `policy` over the
/// context-insensitive baseline (positive = faster).
pub fn speedup_pct(cins: &RunMetrics, policy: &RunMetrics) -> f64 {
    (cins.total_cycles as f64 / policy.total_cycles as f64 - 1.0) * 100.0
}

/// Figure 5 y-axis: percent change in optimized code space over the
/// context-insensitive baseline (negative = smaller, desirable).
pub fn code_delta_pct(cins: &RunMetrics, policy: &RunMetrics) -> f64 {
    (policy.cumulative_code / cins.cumulative_code - 1.0) * 100.0
}

/// Percent change in optimizing-compilation time over the baseline.
pub fn compile_delta_pct(cins: &RunMetrics, policy: &RunMetrics) -> f64 {
    (policy.compile_cycles / cins.compile_cycles - 1.0) * 100.0
}

/// The paper's `harMean` bar: harmonic mean of the per-benchmark runtime
/// ratios, expressed as a percent speedup.
pub fn harmonic_mean_speedup_pct(pairs: &[(&RunMetrics, &RunMetrics)]) -> f64 {
    let n = pairs.len() as f64;
    let denom: f64 = pairs
        .iter()
        .map(|(cins, p)| 1.0 / (cins.total_cycles as f64 / p.total_cycles as f64))
        .sum();
    (n / denom - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: u64, code: f64) -> RunMetrics {
        RunMetrics {
            workload: "w".into(),
            policy: "p".into(),
            total_cycles: cycles,
            cumulative_code: code,
            current_code: code,
            compile_cycles: 1.0,
            opt_compilations: 1.0,
            component_fracs: vec![0.0; COMPONENTS.len()],
            samples: 0.0,
            traces_recorded: 0.0,
            frames_walked: 0.0,
            guard_checks: 0.0,
            guard_misses: 0.0,
            virtual_dispatches: 0.0,
            stats_immediately_parameterless: 0.0,
            stats_parameterless_within_5: 0.0,
            stats_class_within_2: 0.0,
            stats_large_at_or_beyond_4: 0.0,
            methods_compiled: 0,
            result: None,
            osr_requests: 0.0,
            osr_denied: 0.0,
            osr_entries: 0.0,
            osr_exits: 0.0,
            recovery_invalidations: 0.0,
            recovery_retries: 0.0,
            recovery_quarantined: 0.0,
            recovery_rejected_traces: 0.0,
        }
    }

    #[test]
    fn json_round_trip() {
        let m = metrics(1234, 56.0);
        let v = m.to_value();
        let back = RunMetrics::from_value(&v).expect("round trip");
        assert_eq!(back.workload, m.workload);
        assert_eq!(back.total_cycles, m.total_cycles);
        assert_eq!(back.component_fracs.len(), m.component_fracs.len());
        assert_eq!(back.result, m.result);
    }

    #[test]
    fn speedup_sign_convention() {
        let cins = metrics(1100, 100.0);
        let faster = metrics(1000, 100.0);
        assert!(speedup_pct(&cins, &faster) > 9.9);
        let slower = metrics(1200, 100.0);
        assert!(speedup_pct(&cins, &slower) < 0.0);
    }

    #[test]
    fn code_delta_sign_convention() {
        let cins = metrics(1000, 100.0);
        let smaller = metrics(1000, 90.0);
        assert!((code_delta_pct(&cins, &smaller) + 10.0).abs() < 1e-9);
    }

    #[test]
    fn harmonic_mean_of_equal_ratios() {
        let cins = metrics(1000, 100.0);
        let p = metrics(800, 100.0);
        let hm = harmonic_mean_speedup_pct(&[(&cins, &p), (&cins, &p)]);
        assert!((hm - 25.0).abs() < 1e-9);
    }

    /// Satellite guard for the tentpole's zero-overhead claim: a traced run
    /// must produce metrics **byte-identical** (as serialized JSON) to an
    /// untraced run of the same workload — so `results/grid.json` cannot
    /// depend on whether the build recorded events.
    #[test]
    fn tracing_does_not_perturb_metrics() {
        use aoci_workloads::{build, suite};
        let spec = suite().into_iter().next().expect("non-empty suite");
        let w = build(&spec);
        let policy = PolicyKind::Fixed { max: 3 };
        let untraced = AosSystem::new(&w.program, AosConfig::new(policy))
            .run()
            .expect("untraced run");
        let traced = AosSystem::new(&w.program, AosConfig::new(policy).enable_trace())
            .run()
            .expect("traced run");
        assert!(
            traced.trace_log.as_ref().is_some_and(|l| l.emitted > 0),
            "the traced run must actually record events"
        );
        assert!(untraced.trace_log.is_none());
        assert_eq!(traced.total_cycles(), untraced.total_cycles());
        assert_eq!(
            aoci_json::to_string(&traced.to_value()),
            aoci_json::to_string(&untraced.to_value()),
            "recording events must not perturb any metric"
        );
    }

    /// The telemetry mirror of `tracing_does_not_perturb_metrics`: a
    /// metered run's report must serialize byte-identically to an
    /// unmetered one (the telemetry log travels outside `to_value`).
    #[test]
    fn metering_does_not_perturb_metrics() {
        use aoci_workloads::{build, suite};
        let spec = suite().into_iter().next().expect("non-empty suite");
        let w = build(&spec);
        let policy = PolicyKind::Fixed { max: 3 };
        let plain = AosSystem::new(&w.program, AosConfig::new(policy))
            .run()
            .expect("unmetered run");
        let metered = AosSystem::new(&w.program, AosConfig::new(policy).enable_metrics())
            .run()
            .expect("metered run");
        let log = metered.telemetry.as_ref().expect("metered run carries a log");
        assert!(!log.series.is_empty(), "the metered run must record epochs");
        assert!(plain.telemetry.is_none());
        assert_eq!(metered.total_cycles(), plain.total_cycles());
        assert_eq!(
            aoci_json::to_string(&metered.to_value()),
            aoci_json::to_string(&plain.to_value()),
            "recording metrics must not perturb any metric"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(policy_label(PolicyKind::ContextInsensitive), "cins");
        assert_eq!(policy_label(PolicyKind::Fixed { max: 4 }), "fixed/4");
        assert_eq!(
            policy_label(PolicyKind::ParameterlessLarge { max: 2 }),
            "hybrid2/2"
        );
    }
}
