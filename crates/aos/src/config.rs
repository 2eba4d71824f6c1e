//! Configuration of the adaptive optimization system.

use crate::fault::FaultConfig;
use aoci_core::{MatchMode, PolicyKind};
use aoci_ir::MethodId;
use aoci_opt::Compilation;
use aoci_profile::DcgConfig;
use aoci_trace::TraceConfig;
use aoci_vm::{CostModel, VmConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Guard-miss rate (misses / checks over the current observation window)
/// above which guard-health monitoring invalidates an optimized version.
/// Deliberately high: a guarded inline of one target of a 50/50
/// polymorphic site misses ~half its checks *by design* (the virtual
/// fallback keeps it profitable), so only near-total miss rates — a phase
/// shift defeating the speculation outright, or the guards an adversarial
/// receiver burst forced to miss — count as thrash.
pub(crate) const GUARD_MISS_THRESHOLD: f64 = 0.9;

/// Guard checks an observation window needs before its miss rate is judged.
pub(crate) const GUARD_MISS_MIN_CHECKS: u64 = 48;

/// Backoff before the first retry of a failed compilation, in simulated
/// cycles; doubles per consecutive failure of the same method.
pub(crate) const RETRY_BACKOFF_BASE_CYCLES: u64 = 25_000;

/// Upper bound on one retry backoff, in simulated cycles.
pub(crate) const RETRY_BACKOFF_CAP_CYCLES: u64 = 400_000;

/// Consecutive compile failures, or consecutive invalidations, of one
/// method after which it is quarantined: blocked from optimizing
/// compilation for the rest of the run.
pub(crate) const QUARANTINE_AFTER_FAILURES: u32 = 3;

/// Cycles charged to [`Component::Recovery`](aoci_vm::Component) per
/// recovery event (invalidation, retry scheduling, quarantine, rejected
/// trace).
pub(crate) const RECOVERY_COST_PER_EVENT: u64 = 200;

/// Organizer cost: cycles charged per buffered item processed.
pub(crate) const ORGANIZER_COST_PER_ITEM: u64 = 12;

/// Controller cost: cycles charged per event considered.
pub(crate) const CONTROLLER_COST_PER_EVENT: u64 = 150;

/// How many trailing flight-recorder events the recovery ledger keeps as
/// its post-mortem dump when recovery or a VM fault fires.
pub(crate) const DUMP_LAST_EVENTS: usize = 32;

/// Simulated compiler workers of the background-compilation pool (the
/// paper's — and Jikes RVM's — compilation *thread*, modelled in
/// deterministic simulated time): how many plans can be in flight at once.
pub(crate) const ASYNC_WORKERS: usize = 2;

/// Capacity of the background scheduler's priority queue; a plan arriving
/// at a full queue evicts the lowest-priority resident (or is itself
/// dropped when it *is* the lowest) — the backpressure counter records
/// either way.
pub(crate) const ASYNC_QUEUE_CAPACITY: usize = 16;

/// A shared fleet **compile server**'s code-cache snapshot for this
/// replica's program (DESIGN.md §15): method → compilation to install on a
/// hit, shared read-only across every replica of a phase. When a method
/// the controller wants to optimize is present, the replica installs the
/// server's pre-compiled version for [`SERVER_HIT_COST`] instead of the
/// full optimizing-compile cost; on a miss it compiles locally and logs
/// the method in its request outbox
/// ([`ServerEvents::requests`](crate::ServerEvents)) for the server to
/// batch-compile between traffic phases.
///
/// The snapshot is only meaningful for the *same program* the server
/// compiled against (fleet replicas of one workload share their program
/// verbatim).
pub type ServerSnapshot = Arc<HashMap<MethodId, Arc<Compilation>>>;

/// Simulated cycles charged to the compilation thread for installing a
/// version from the [`ServerSnapshot`] (code transfer + relocation
/// stand-in). Far below any real optimizing compile, which is the warmup
/// amortization the fleet simulation measures.
pub const SERVER_HIT_COST: u64 = 500;

/// Tunables of the whole adaptive system; [`AosConfig::new`] supplies
/// defaults matching the paper's setup where it states them (1.5% hot
/// threshold, decay toward recent samples) and plausible Jikes-era values
/// elsewhere.
#[derive(Clone, Debug)]
pub struct AosConfig {
    /// The context-sensitivity policy (paper Section 4).
    pub policy: PolicyKind,
    /// Hot-trace threshold as a fraction of total DCG weight (paper: 1.5%).
    pub hot_edge_threshold: f64,
    /// Method-listener samples a method must accumulate before the
    /// controller selects it for optimizing recompilation.
    pub hot_method_samples: u32,
    /// Additionally, a method must hold at least this fraction of all
    /// method samples so far — the stand-in for the Jikes controller's
    /// analytic cost/benefit model, which only recompiles methods expected
    /// to account for a significant share of future execution.
    pub hot_method_fraction: f64,
    /// Organizer wake-up period, in samples (listener buffers are drained
    /// and rules regenerated every this many samples).
    pub organizer_period_samples: u64,
    /// Decay-organizer period, in samples.
    pub decay_period_samples: u64,
    /// DCG decay factor applied at each decay-organizer wake-up.
    pub decay_factor: f64,
    /// Missing-edge-organizer period, in samples.
    pub missing_edge_period_samples: u64,
    /// Upper bound on optimizing recompilations of a single method
    /// (bounds recompilation churn from the missing-edge organizer).
    pub max_recompiles_per_method: u32,
    /// DCG collection behaviour (the merge ablation).
    pub dcg: DcgConfig,
    /// Oracle matching mode (exact matching is an ablation).
    pub match_mode: MatchMode,
    /// Simulated-machine costs (sampling period lives here).
    pub cost: CostModel,
    /// VM behaviour (source-level stack walking, OSR).
    pub vm: VmConfig,
    /// Whether guard-health monitoring (and thrash invalidation) runs even
    /// without fault injection. A thrash also records the invalidated
    /// version's guarded inlines as thrashed, and no later compilation
    /// speculates on them again (DESIGN.md §6). Defaults to
    /// `false`: a guarded inline that misses falls back to virtual
    /// dispatch — degraded, never wrong — and the paper's AOS adapts to
    /// receiver shifts through decay and recompilation, not
    /// deoptimization, so unconditional monitoring would distort the
    /// reproduction sweeps. Fault injection ([`AosConfig::fault`]) enables
    /// monitoring automatically, since an adversary that forces guard
    /// misses is exactly what invalidation is for. Trace sanitization and
    /// compile retry are always active; they cost nothing on clean runs.
    pub monitor_guard_health: bool,
    /// Fault injection; `None` (the default) runs faultless and the system
    /// is bit-identical to one built before this subsystem existed.
    pub fault: Option<FaultConfig>,
    /// Flight-recorder event tracing; `None` (the default) skips every
    /// emit site with a single branch, and — since recording charges no
    /// simulated cycles — a traced run produces exactly the metrics of an
    /// untraced one.
    pub trace: Option<TraceConfig>,
    /// Asynchronous background compilation on two simulated workers fed by
    /// a queue of 16 plans; `false` (the default) compiles every plan
    /// synchronously inside its epoch tick, bit-identical to the pre-async
    /// system.
    pub async_compile: bool,
    /// Telemetry metrics registry; `false` (the default) skips every record
    /// site with a single branch, and — since recording charges no
    /// simulated cycles — a metered run produces exactly the report of an
    /// unmetered one (DESIGN.md §14).
    pub metrics: bool,
    /// The shared compile server's snapshot (fleet serving simulation);
    /// `None` (the default) compiles everything locally and the system is
    /// bit-identical to one built before this subsystem existed.
    pub compile_server: Option<ServerSnapshot>,
}

impl AosConfig {
    /// Default configuration for a given policy.
    pub fn new(policy: PolicyKind) -> Self {
        AosConfig {
            policy,
            hot_edge_threshold: 0.015,
            hot_method_samples: 3,
            hot_method_fraction: 0.01,
            organizer_period_samples: 8,
            decay_period_samples: 96,
            decay_factor: 0.95,
            missing_edge_period_samples: 24,
            max_recompiles_per_method: 4,
            dcg: DcgConfig::default(),
            match_mode: MatchMode::Partial,
            cost: CostModel::default(),
            vm: VmConfig::default(),
            monitor_guard_health: false,
            fault: None,
            trace: None,
            async_compile: false,
            metrics: false,
            compile_server: None,
        }
    }

    // --- Opt-in subsystems (builder-style, chainable) -------------------
    //
    // Every subsystem that is off by default — OSR, the flight recorder,
    // asynchronous compilation, fault injection, guard-health monitoring —
    // is enabled through one uniformly named, chainable `enable_*` method:
    //
    // ```
    // # use aoci_aos::AosConfig;
    // # use aoci_core::PolicyKind;
    // let config = AosConfig::new(PolicyKind::Fixed { max: 3 })
    //     .enable_osr()
    //     .enable_trace();
    // ```
    //
    // Each `enable_x` switches the subsystem on with its default tunables;
    // only the recorder has tunables of its own (its ring capacity),
    // supplied through `enable_trace_with`. Disabled remains the default
    // everywhere, and every subsystem documents that its *off* state is
    // bit-identical to the system before the subsystem existed.

    /// Enables on-stack replacement: hot baseline loops are promoted into
    /// optimized code mid-activation (DESIGN.md §7). Promotion is the only
    /// transfer: an activation whose version is invalidated finishes on
    /// that code, and the method's next invocation gets new code.
    pub fn enable_osr(mut self) -> Self {
        self.vm.osr_enabled = true;
        self
    }

    /// Returns `self` unchanged. Kept only because the repo benchmark's
    /// `features_config` (`benchmark/src/workload.rs`) still calls it; it
    /// goes when that benchmark is next re-measured.
    pub fn enable_deoptless(self) -> Self {
        self
    }

    /// Enables the flight recorder with default tunables: every layer
    /// emits typed, cycle-timestamped events into a ring buffer the final
    /// [`AosReport`](crate::AosReport) carries (DESIGN.md §8).
    pub fn enable_trace(self) -> Self {
        self.enable_trace_with(TraceConfig::default())
    }

    /// Enables the flight recorder with an explicit ring capacity.
    pub fn enable_trace_with(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enables asynchronous background compilation: plans queue by
    /// predicted benefit, a simulated worker pool compiles them while the
    /// application keeps executing baseline or stale code, and only the
    /// unoverlapped remainder of each compile stalls the virtual clock
    /// (DESIGN.md §10).
    pub fn enable_async_compile(mut self) -> Self {
        self.async_compile = true;
        self
    }

    /// Enables fault injection with the given profile (see
    /// [`FaultConfig::chaos`] for the everything-on profile); also implies
    /// guard-health monitoring, as documented on
    /// [`AosConfig::monitor_guard_health`] (DESIGN.md §6).
    pub fn enable_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables the telemetry metrics registry: counters, gauges and
    /// histograms over AOS/VM internals, snapshotted into a per-epoch time
    /// series on the simulated clock and carried by the final
    /// [`AosReport`](crate::AosReport) (DESIGN.md §14).
    pub fn enable_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Attaches a shared compile server's cache snapshot: hot-method
    /// compilations present in it install the server's version for
    /// [`SERVER_HIT_COST`]; misses compile locally and are logged in the
    /// request outbox (DESIGN.md §15).
    pub fn enable_compile_server(mut self, snapshot: ServerSnapshot) -> Self {
        self.compile_server = Some(snapshot);
        self
    }

    /// Enables guard-health monitoring (and thrash invalidation) even
    /// without fault injection — see [`AosConfig::monitor_guard_health`]
    /// for why it is off by default. An invalidated method's recompile is
    /// planned in the tick that invalidates it (DESIGN.md §6).
    pub fn enable_guard_monitoring(mut self) -> Self {
        self.monitor_guard_health = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// The configuration surface is closed: 41 values are reachable from
    /// [`AosConfig`]. A scalar field is one value, a nested struct
    /// contributes its fields, and an `Option` of a struct is one value plus
    /// the struct's fields. Every struct is destructured without `..`, so a
    /// new field fails to compile here until it is listed and counted.
    #[test]
    fn config_surface_is_closed() {
        let AosConfig {
            policy,
            hot_edge_threshold,
            hot_method_samples,
            hot_method_fraction,
            organizer_period_samples,
            decay_period_samples,
            decay_factor,
            missing_edge_period_samples,
            max_recompiles_per_method,
            dcg,
            match_mode,
            cost,
            vm,
            monitor_guard_health,
            fault,
            trace,
            async_compile,
            metrics,
            compile_server,
        } = AosConfig::new(PolicyKind::ContextInsensitive)
            .enable_faults(FaultConfig::default())
            .enable_trace();
        let DcgConfig { merge_on_collect } = dcg;
        let CostModel {
            baseline_factor,
            optimized_factor,
            static_call_cost,
            virtual_dispatch_cost,
            guard_cost,
            alloc_cost,
            baseline_compile_per_unit,
            opt_compile_per_unit,
            opt_compile_fixed,
            sample_period,
            listener_base_cost,
            listener_per_frame,
            osr_transition_cost,
            osr_per_slot_cost,
        } = cost;
        let VmConfig { source_level_walk, osr_enabled, osr_backedge_threshold } = vm;
        let faulted = fault.is_some();
        let FaultConfig {
            seed,
            compile_bailout_prob,
            oversize_code_prob,
            trace_corruption_prob,
            sampler_dropout_prob,
            receiver_burst_prob,
        } = fault.expect("faults are on");
        let traced = trace.is_some();
        let TraceConfig { capacity } = trace.expect("tracing is on");
        let surface: [&dyn Debug; 41] = [
            &policy,
            &hot_edge_threshold,
            &hot_method_samples,
            &hot_method_fraction,
            &organizer_period_samples,
            &decay_period_samples,
            &decay_factor,
            &missing_edge_period_samples,
            &max_recompiles_per_method,
            &merge_on_collect,
            &match_mode,
            &baseline_factor,
            &optimized_factor,
            &static_call_cost,
            &virtual_dispatch_cost,
            &guard_cost,
            &alloc_cost,
            &baseline_compile_per_unit,
            &opt_compile_per_unit,
            &opt_compile_fixed,
            &sample_period,
            &listener_base_cost,
            &listener_per_frame,
            &osr_transition_cost,
            &osr_per_slot_cost,
            &source_level_walk,
            &osr_enabled,
            &osr_backedge_threshold,
            &monitor_guard_health,
            &faulted,
            &seed,
            &compile_bailout_prob,
            &oversize_code_prob,
            &trace_corruption_prob,
            &sampler_dropout_prob,
            &receiver_burst_prob,
            &traced,
            &capacity,
            &async_compile,
            &metrics,
            &compile_server,
        ];
        assert_eq!(surface.len(), 41);
    }

    #[test]
    fn defaults_match_paper_constants() {
        let c = AosConfig::new(PolicyKind::Fixed { max: 3 });
        assert!((c.hot_edge_threshold - 0.015).abs() < 1e-12);
        assert!(!c.vm.osr_enabled, "OSR must be opt-in");
        assert!(c.decay_factor > 0.0 && c.decay_factor < 1.0);
        assert_eq!(c.policy, PolicyKind::Fixed { max: 3 });
    }

    #[test]
    fn cins_helper() {
        // The paper's baseline is a policy, not a separate configuration.
        let c = AosConfig::new(PolicyKind::ContextInsensitive);
        assert_eq!(c.policy.max_depth(), 1);
    }

    #[test]
    fn enable_builders_chain_and_compose() {
        let c = AosConfig::new(PolicyKind::Fixed { max: 3 })
            .enable_osr()
            .enable_trace()
            .enable_async_compile()
            .enable_metrics()
            .enable_guard_monitoring()
            .enable_compile_server(ServerSnapshot::default());
        assert!(c.vm.osr_enabled);
        assert!(c.trace.is_some());
        assert!(c.async_compile);
        assert!(c.metrics);
        assert!(c.monitor_guard_health);
        assert!(c.compile_server.is_some());
    }
}
