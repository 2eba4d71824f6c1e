//! Single-run measurement and the folds the figures take over it.
//!
//! The unit of work is one **repetition**: [`run_rep`] is a pure function
//! of `(program, policy, rep, EnvConfig)` with no ambient environment
//! reads, so repetitions are `Send` jobs the parallel sweep pool can
//! execute in any order. [`row_of`] reads each report into one fixed-width
//! [`Row`], the grid keeps every row, and a figure folds a [`Cell`]'s rows
//! in rep order when it renders — so its numbers do not depend on the
//! `AOCI_JOBS` worker count.

use crate::env::EnvConfig;
use aoci_aos::{AosConfig, AosReport, AosSystem};
use aoci_core::PolicyKind;
use aoci_vm::{Component, COMPONENTS};

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
        PolicyKind::AdaptiveResolving { max } => format!("adaptive/{max}"),
    }
}

/// A report value one row keeps: its column name and how to read it.
type Reader = (&'static str, fn(&AosReport) -> f64);

/// The row's values before the component cycles, in row order. An absent
/// program result is NaN (written `null`).
const READERS: [Reader; 23] = [
    ("total_cycles", |r| r.total_cycles() as f64),
    ("cumulative_code", |r| r.optimized_code_size as f64),
    ("current_code", |r| r.current_optimized_size as f64),
    ("opt_compilations", |r| r.opt_compilations as f64),
    ("samples", |r| r.samples as f64),
    ("traces_recorded", |r| r.traces_recorded as f64),
    ("frames_walked", |r| r.frames_walked as f64),
    ("guard_checks", |r| r.counters.guard_checks as f64),
    ("guard_misses", |r| r.counters.guard_misses as f64),
    ("virtual_dispatches", |r| r.counters.virtual_dispatches as f64),
    ("osr_requests", |r| r.osr.requests as f64),
    ("osr_denied", |r| r.osr.denied as f64),
    ("osr_entries", |r| r.osr.entries as f64),
    ("recovery_invalidations", |r| r.recovery.invalidations as f64),
    ("recovery_retries", |r| r.recovery.compile_retries as f64),
    ("recovery_quarantined", |r| r.recovery.quarantined_methods as f64),
    ("recovery_rejected_traces", |r| r.recovery.rejected_traces as f64),
    ("baseline_compilations", |r| f64::from(r.baseline_compilations)),
    ("result", |r| r.result.and_then(|v| v.as_int()).map_or(f64::NAN, |v| v as f64)),
    ("stats_immediately_parameterless", |r| r.trace_stats.immediately_parameterless),
    ("stats_parameterless_within_5", |r| r.trace_stats.parameterless_within_5),
    ("stats_class_within_2", |r| r.trace_stats.class_method_within_2),
    ("stats_large_at_or_beyond_4", |r| r.trace_stats.large_at_or_beyond_4),
];

/// Values in one row: the readers', then the cycles of each component in
/// [`COMPONENTS`] order.
pub const WIDTH: usize = READERS.len() + COMPONENTS.len();

/// One repetition of one (workload, policy) cell: every value the figures
/// fold, as read from its report by [`row_of`].
pub type Row = [f64; WIDTH];

/// Column of the total simulated cycles (the wall-clock analogue).
pub const TOTAL_CYCLES: usize = 0;
/// Column of the cumulative optimized code size (all code generated).
pub const CUMULATIVE_CODE: usize = 1;
/// Column of the resident optimized code size at the end of the run.
pub const CURRENT_CODE: usize = 2;
/// Columns of the recovery layer's invalidations, compile retries,
/// quarantined methods and rejected traces.
pub const RECOVERY: [usize; 4] = [13, 14, 15, 16];
/// Column of the program's return value (sanity: agrees across reps).
pub const RESULT: usize = 18;
/// Columns of the Section 4 trace-walk statistics.
pub const TRACE_STATS: [usize; 4] = [19, 20, 21, 22];

/// Column of the cycles charged to `component`.
pub fn cycles(component: Component) -> usize {
    READERS.len() + component as usize
}

/// A grid document's column names: the `(workload, policy, rep)` key, then
/// one name per [`Row`] value (component cycles under their metric names).
pub fn columns() -> Vec<&'static str> {
    let mut names = vec!["workload", "policy", "rep"];
    names.extend(READERS.iter().map(|(name, _)| *name));
    names.extend(COMPONENTS.iter().map(|c| c.metric_name()));
    names
}

/// Reads one repetition's report into its row.
pub fn row_of(report: &AosReport) -> Row {
    let mut row = [0.0; WIDTH];
    for (value, (_, read)) in row.iter_mut().zip(READERS) {
        *value = read(report);
    }
    for c in COMPONENTS {
        row[cycles(c)] = report.clock.component(c) as f64;
    }
    row
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

/// One (workload, policy) cell: a view over its rows in rep order. Every
/// figure number is one of its folds, taken when the figure renders.
#[derive(Clone, Copy, Debug)]
pub struct Cell<'a>(pub &'a [Row]);

impl Cell<'_> {
    /// The median of `col` over the reps (the upper one for an even count).
    pub fn median(self, col: usize) -> f64 {
        let mut values: Vec<f64> = self.0.iter().map(|r| r[col]).collect();
        values.sort_unstable_by(f64::total_cmp);
        values[values.len() / 2]
    }

    /// The mean of a per-rep expression: summed in rep order, then scaled
    /// by `1 / n`, so the bits do not depend on which worker ran a rep.
    pub fn mean_by(self, f: impl Fn(&Row) -> f64) -> f64 {
        let sum = self.0.iter().fold(0.0, |acc, r| acc + f(r));
        sum * (1.0 / self.0.len() as f64)
    }

    /// The mean of `col` over the reps.
    pub fn mean(self, col: usize) -> f64 {
        self.mean_by(|r| r[col])
    }

    /// Rep 0's value of `col` (the trace statistics and the result).
    pub fn first(self, col: usize) -> f64 {
        self.0[0][col]
    }

    /// Mean fraction of execution spent in `component`.
    pub fn fraction(self, component: Component) -> f64 {
        self.mean_by(|r| r[cycles(component)] / r[TOTAL_CYCLES])
    }
}

/// Figure 4 y-axis: percent wall-clock speedup of `policy` over the
/// context-insensitive baseline (positive = faster).
pub fn speedup_pct(cins: Cell, policy: Cell) -> f64 {
    (cins.median(TOTAL_CYCLES) / policy.median(TOTAL_CYCLES) - 1.0) * 100.0
}

/// Figure 5 y-axis: percent change in optimized code space over the
/// context-insensitive baseline (negative = smaller, desirable).
pub fn code_delta_pct(cins: Cell, policy: Cell) -> f64 {
    (policy.mean(CUMULATIVE_CODE) / cins.mean(CUMULATIVE_CODE) - 1.0) * 100.0
}

/// Percent change in optimizing-compilation time over the baseline.
pub fn compile_delta_pct(cins: Cell, policy: Cell) -> f64 {
    let compile = cycles(Component::CompilationThread);
    (policy.mean(compile) / cins.mean(compile) - 1.0) * 100.0
}

/// The paper's `harMean` bar: harmonic mean of the per-benchmark runtime
/// ratios, expressed as a percent speedup.
pub fn harmonic_mean_speedup_pct(pairs: &[(Cell, Cell)]) -> f64 {
    let n = pairs.len() as f64;
    let denom: f64 = pairs
        .iter()
        .map(|(cins, p)| 1.0 / (cins.median(TOTAL_CYCLES) / p.median(TOTAL_CYCLES)))
        .sum();
    (n / denom - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-rep cell's row with the given total cycles and cumulative code.
    fn row(cycles: f64, code: f64) -> Row {
        let mut row = [0.0; WIDTH];
        row[TOTAL_CYCLES] = cycles;
        row[CUMULATIVE_CODE] = code;
        row
    }

    /// The figures address columns by index: each index names its column.
    #[test]
    fn column_indices_name_their_columns() {
        let names = columns();
        let name = |col: usize| names[3 + col];
        assert_eq!(names.len(), 3 + WIDTH);
        assert_eq!(name(TOTAL_CYCLES), "total_cycles");
        assert_eq!(name(CUMULATIVE_CODE), "cumulative_code");
        assert_eq!(name(CURRENT_CODE), "current_code");
        assert_eq!(name(RESULT), "result");
        assert_eq!(
            RECOVERY.map(name),
            [
                "recovery_invalidations",
                "recovery_retries",
                "recovery_quarantined",
                "recovery_rejected_traces",
            ]
        );
        assert_eq!(
            TRACE_STATS.map(name),
            [
                "stats_immediately_parameterless",
                "stats_parameterless_within_5",
                "stats_class_within_2",
                "stats_large_at_or_beyond_4",
            ]
        );
        assert_eq!(name(cycles(Component::CompilationThread)), "cycles_compilation_thread");
    }

    /// The three rows `results/grid.json` holds for `compress` × `adaptive/2`
    /// fold to the numbers the cell's aggregate entry held before the grid
    /// kept rows, bit for bit.
    #[test]
    fn folds_reproduce_the_aggregate_entry() {
        let rows: [Row; 3] = [
            [44_794_464.0, 7721.0, 4642.0, 35.0, 1100.0, 551.0, 1188.0, 246_230.0, 76246.0,
                124_699.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 24.0, 2_469_000.0,
                0.42105263157894735, 0.9437386569872959, 0.867513611615245, 0.5190562613430127,
                71456.0, 1_368_150.0, 5856.0, 76284.0, 13152.0, 5250.0, 11292.0, 0.0, 0.0,
                5_736_728.0, 37_413_266.0, 93030.0],
            [43_378_110.0, 6422.0, 4321.0, 28.0, 1065.0, 419.0, 838.0, 293_594.0, 77079.0, 82420.0,
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 24.0, 2_469_000.0, 0.2935560859188544,
                0.9427207637231504, 0.8257756563245824, 0.39379474940334125, 65436.0, 1_131_300.0,
                3936.0, 50496.0, 12768.0, 4200.0, 9564.0, 0.0, 0.0, 5_523_784.0, 36_483_596.0,
                93030.0],
            [43_855_033.0, 8685.0, 4979.0, 33.0, 1068.0, 475.0, 977.0, 268_631.0, 80093.0, 94379.0,
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 24.0, 2_469_000.0, 0.3094736842105263,
                0.9031578947368422, 0.8821052631578947, 0.4842105263157894, 67260.0, 1_500_750.0,
                5436.0, 68328.0, 12768.0, 4950.0, 10644.0, 0.0, 0.0, 5_499_360.0, 36_592_507.0,
                93030.0],
        ];
        let cell = Cell(&rows);
        let names = columns();
        let col = |name: &str| names.iter().position(|n| *n == name).expect("a column") - 3;
        assert_eq!(cell.median(TOTAL_CYCLES), 43_855_033.0);
        assert_eq!(cell.mean(CUMULATIVE_CODE), 7609.333333333333);
        assert_eq!(cell.mean(CURRENT_CODE), 4647.333333333333);
        assert_eq!(cell.mean(col("samples")), 1077.6666666666665);
        assert_eq!(cell.mean(col("traces_recorded")), 481.66666666666663);
        assert_eq!(cell.mean(col("virtual_dispatches")), 100499.33333333333);
        assert_eq!(cell.mean(cycles(Component::CompilationThread)), 1_333_400.0);
        assert_eq!(cell.first(TRACE_STATS[0]), 0.42105263157894735);
        assert_eq!(cell.first(RESULT), 2_469_000.0);
        assert_eq!(
            COMPONENTS.map(|c| cell.fraction(c)),
            [
                0.0015457964429470587, 0.030281170935801783, 0.00011514043202890401,
                0.0014750367073130494, 0.0002930302533255531, 0.00010896563041778347,
                0.00023842444505797885, 0.0, 0.0, 0.1269355841330657, 0.836892598857015,
                0.0021142521630271964,
            ]
        );
    }

    #[test]
    fn speedup_sign_convention() {
        let [cins, faster, slower] = [1100.0, 1000.0, 1200.0].map(|c| [row(c, 100.0)]);
        assert!(speedup_pct(Cell(&cins), Cell(&faster)) > 9.9);
        assert!(speedup_pct(Cell(&cins), Cell(&slower)) < 0.0);
    }

    #[test]
    fn code_delta_sign_convention() {
        let (cins, smaller) = ([row(1000.0, 100.0)], [row(1000.0, 90.0)]);
        assert!((code_delta_pct(Cell(&cins), Cell(&smaller)) + 10.0).abs() < 1e-9);
    }

    #[test]
    fn harmonic_mean_of_equal_ratios() {
        let (cins, p) = ([row(1000.0, 100.0)], [row(800.0, 100.0)]);
        let hm = harmonic_mean_speedup_pct(&[(Cell(&cins), Cell(&p)), (Cell(&cins), Cell(&p))]);
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
