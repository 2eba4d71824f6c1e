//! Simulated time with per-component accounting.
//!
//! Everything in the AOCI system — application execution, listeners,
//! organizers, the controller and both compilers — charges cycles to one
//! [`Component`] of a shared [`Clock`]. The resulting breakdown reproduces
//! the paper's Figure 6 ("percent of execution time spent in each component
//! of the adaptive optimization system").

use std::fmt;

/// The system components that consume simulated time.
///
/// The first group corresponds to the bars of the paper's Figure 6; the
/// second group (application execution and baseline compilation) makes up
/// the remainder of execution time that the figure leaves implicit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Component {
    /// AOS listeners: taking method/edge/trace samples (Figure 6 "AOS
    /// Listeners").
    Listeners,
    /// The optimizing compilation thread (Figure 6 "CompilationThread").
    ///
    /// Under the default synchronous model every compile's full cost lands
    /// here. With background compilation on (`AsyncCompileConfig`) only the
    /// **foreground stall** — the part of a compile the application had to
    /// wait for — is charged; cycles a compile overlaps with execution are
    /// booked in the report's `async_compile` ledger instead of the clock.
    CompilationThread,
    /// The decay organizer (Figure 6 "DecayOrganizer").
    DecayOrganizer,
    /// The adaptive-inlining organizer, including the dynamic-call-graph
    /// organizer it feeds (Figure 6 "AIOrganizer").
    AiOrganizer,
    /// The hot-methods organizer (Figure 6 "MethodSampleOrganizer").
    MethodSampleOrganizer,
    /// The controller thread (Figure 6 "ControllerThread").
    ControllerThread,
    /// The AI missing-edge organizer (folded into AIOrganizer in the paper's
    /// figure; tracked separately here and merged by the harness).
    MissingEdgeOrganizer,
    /// Recovery machinery: guard-health bookkeeping, code invalidation,
    /// compile-retry scheduling and profile sanitization. Not a Figure 6
    /// bar — the paper's system has no fault model — but charged like any
    /// other AOS component so degradation shows up in the cost breakdown.
    Recovery,
    /// On-stack replacement transitions: frame-state mapping for OSR-in
    /// (hot-loop promotion into optimized code) and OSR-out
    /// (deoptimization back to baseline). Not a Figure 6 bar — the
    /// paper's system switches versions only at invocations — but charged
    /// like any other AOS component so the transfer cost is visible.
    Osr,
    /// Application code running in baseline-compiled methods.
    AppBaseline,
    /// Application code running in optimized methods.
    AppOptimized,
    /// The non-optimizing baseline compiler (runs at first invocation).
    BaselineCompilation,
}

/// All components, in a fixed order usable for dense tables.
pub const COMPONENTS: [Component; 12] = [
    Component::Listeners,
    Component::CompilationThread,
    Component::DecayOrganizer,
    Component::AiOrganizer,
    Component::MethodSampleOrganizer,
    Component::ControllerThread,
    Component::MissingEdgeOrganizer,
    Component::Recovery,
    Component::Osr,
    Component::AppBaseline,
    Component::AppOptimized,
    Component::BaselineCompilation,
];

impl Component {
    /// Position in [`COMPONENTS`]: the discriminant (the list is in
    /// declaration order, pinned by a test).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// A stable `snake_case` identifier for metric names (the suffix of
    /// [`Component::metric_name`]).
    pub fn slug(self) -> &'static str {
        match self {
            Component::Listeners => "listeners",
            Component::CompilationThread => "compilation_thread",
            Component::DecayOrganizer => "decay_organizer",
            Component::AiOrganizer => "ai_organizer",
            Component::MethodSampleOrganizer => "method_sample_organizer",
            Component::ControllerThread => "controller_thread",
            Component::MissingEdgeOrganizer => "missing_edge_organizer",
            Component::Recovery => "recovery",
            Component::Osr => "osr",
            Component::AppBaseline => "app_baseline",
            Component::AppOptimized => "app_optimized",
            Component::BaselineCompilation => "baseline_compilation",
        }
    }

    /// The telemetry counter of the cycles charged to this component:
    /// `cycles_<slug>`, spelled out so that recording it allocates nothing.
    pub fn metric_name(self) -> &'static str {
        match self {
            Component::Listeners => "cycles_listeners",
            Component::CompilationThread => "cycles_compilation_thread",
            Component::DecayOrganizer => "cycles_decay_organizer",
            Component::AiOrganizer => "cycles_ai_organizer",
            Component::MethodSampleOrganizer => "cycles_method_sample_organizer",
            Component::ControllerThread => "cycles_controller_thread",
            Component::MissingEdgeOrganizer => "cycles_missing_edge_organizer",
            Component::Recovery => "cycles_recovery",
            Component::Osr => "cycles_osr",
            Component::AppBaseline => "cycles_app_baseline",
            Component::AppOptimized => "cycles_app_optimized",
            Component::BaselineCompilation => "cycles_baseline_compilation",
        }
    }

    /// Returns `true` for the components counted as adaptive-optimization-
    /// system overhead in Figure 6.
    pub fn is_aos_overhead(self) -> bool {
        !matches!(
            self,
            Component::AppBaseline | Component::AppOptimized | Component::BaselineCompilation
        )
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::Listeners => "AOS Listeners",
            Component::CompilationThread => "CompilationThread",
            Component::DecayOrganizer => "DecayOrganizer",
            Component::AiOrganizer => "AIOrganizer",
            Component::MethodSampleOrganizer => "MethodSampleOrganizer",
            Component::ControllerThread => "ControllerThread",
            Component::MissingEdgeOrganizer => "MissingEdgeOrganizer",
            Component::Recovery => "Recovery",
            Component::Osr => "OSR",
            Component::AppBaseline => "App(baseline)",
            Component::AppOptimized => "App(optimized)",
            Component::BaselineCompilation => "BaselineCompilation",
        };
        f.write_str(s)
    }
}

/// A monotone cycle counter with a per-component breakdown.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    total: u64,
    by_component: [u64; COMPONENTS.len()],
}

impl Clock {
    /// Creates a clock at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` to `component`, advancing total time.
    #[inline]
    pub fn charge(&mut self, component: Component, cycles: u64) {
        self.total += cycles;
        self.by_component[component.index()] += cycles;
    }

    /// Returns total elapsed cycles.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns the cycles charged to `component`.
    pub fn component(&self, component: Component) -> u64 {
        self.by_component[component.index()]
    }

    /// Returns the fraction (0–1) of total time spent in `component`.
    /// Returns 0 when no time has elapsed.
    pub fn fraction(&self, component: Component) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.component(component) as f64 / self.total as f64
        }
    }

    /// Sum of cycles across all AOS overhead components (see
    /// [`Component::is_aos_overhead`]).
    pub fn aos_overhead(&self) -> u64 {
        COMPONENTS
            .iter()
            .filter(|c| c.is_aos_overhead())
            .map(|&c| self.component(c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut c = Clock::new();
        c.charge(Component::AppBaseline, 100);
        c.charge(Component::Listeners, 10);
        c.charge(Component::Listeners, 5);
        assert_eq!(c.total(), 115);
        assert_eq!(c.component(Component::Listeners), 15);
        assert_eq!(c.component(Component::AppBaseline), 100);
        assert!((c.fraction(Component::Listeners) - 15.0 / 115.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_excludes_app_and_baseline_compile() {
        let mut c = Clock::new();
        c.charge(Component::AppOptimized, 50);
        c.charge(Component::BaselineCompilation, 20);
        c.charge(Component::CompilationThread, 7);
        c.charge(Component::ControllerThread, 3);
        assert_eq!(c.aos_overhead(), 10);
    }

    #[test]
    fn zero_total_fraction_is_zero() {
        let c = Clock::new();
        assert_eq!(c.fraction(Component::Listeners), 0.0);
    }

    #[test]
    fn metric_names_are_cycles_and_the_slug() {
        for c in COMPONENTS {
            assert_eq!(c.metric_name(), format!("cycles_{}", c.slug()));
        }
    }

    #[test]
    fn components_list_is_exhaustive_and_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = COMPONENTS.iter().map(|c| format!("{c}")).collect();
        assert_eq!(set.len(), COMPONENTS.len());
        for (i, c) in COMPONENTS.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c} must sit at its discriminant");
        }
    }
}
