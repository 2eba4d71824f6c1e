//! The AOS driver: the online feedback loop of paper Figure 3.

use crate::config::{AosConfig, RecoveryConfig};
use crate::database::AosDatabase;
use crate::fault::{CompileFault, FaultInjector, TraceCorruption};
use crate::report::{AosReport, AsyncCompileEvents, OsrEvents, RecoveryEvents};
use aoci_core::{InlineOracle, PolicyEngine, RuleSet};
use aoci_ir::{CallSiteRef, MethodId, Program, SiteIdx};
use aoci_profile::{
    validate_trace, CallingContextTree, Dcg, MethodListener, ProfileStore, TraceKey,
    TraceListener, TraceStatsCollector,
};
use aoci_telemetry::{MetricsLog, MetricsSink};
use aoci_trace::{
    FaultKind, OsrDenyReason, PlanReason, Recorded, StaleReason, TraceEvent, TraceLog, TraceSink,
};
use aoci_vm::{
    Component, ContextFingerprint, MethodGuardStats, MethodVersion, OptLevel, OsrRequest,
    RunOutcome, StackSnapshot, VersionId, VersionKey, Vm, VmError, COMPONENTS,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Everything a finished run yields: the report, the final AOS database,
/// and the trace profile (saveable for offline profile-directed runs).
pub type FullRunResult = Result<(AosReport, AosDatabase, Vec<(TraceKey, f64)>), VmError>;

/// Compile-server interaction ledger of one run. Stays all-zero unless
/// [`AosConfig::compile_server`] is set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerEvents {
    /// Optimizing compilations satisfied from the shared cache snapshot.
    pub hits: u64,
    /// Optimizing compilations that missed the snapshot and ran locally.
    pub misses: u64,
    /// Distinct methods that missed, in first-miss order — the request
    /// outbox a fleet driver ships to the compile server for batching.
    pub requests: Vec<MethodId>,
    /// Distinct methods served from the cache, in first-hit order — lets
    /// the fleet driver refresh each entry's LRU recency.
    pub hit_methods: Vec<MethodId>,
}

/// The outcome of [`AosSystem::run_serving`]: the run report plus the
/// fleet-facing artifacts — the final trace profile (for fleet-wide
/// aggregation) and the compile-server ledger.
#[derive(Debug)]
pub struct ServingOutcome {
    /// The ordinary run report; `report.compilations[..].cycle` carries
    /// the install times warmup amortization is computed from.
    pub report: AosReport,
    /// Final trace profile, as [`AosSystem::run_full`] returns.
    pub profile: Vec<(TraceKey, f64)>,
    /// Compile-server hits, misses and the request outbox.
    pub server: ServerEvents,
}

/// The resolution of one OSR promotion request, returned by
/// [`AosSystem::dispatch_osr`] — the single entry point every OSR path
/// (enter the installed version, enter a context-specialized surviving
/// version, compile-and-enter, deny) flows through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsrOutcome {
    /// The activation entered the already-installed optimized version.
    Entered {
        /// The version the frame transferred into.
        version: VersionId,
    },
    /// Deoptless mode: the activation entered a surviving version
    /// specialized for its observed calling context (a non-root
    /// [`VersionKey`]) rather than the generic installed one.
    EnteredSpecialized {
        /// The context-specialized version the frame transferred into.
        version: VersionId,
    },
    /// A fresh compilation was installed and the activation entered it.
    CompiledAndEntered {
        /// The just-installed version the frame transferred into.
        version: VersionId,
    },
    /// The request was denied; the activation keeps running baseline.
    Denied(OsrDenyReason),
}

/// A compilation plan waiting in the asynchronous priority queue.
#[derive(Clone, Debug)]
struct PendingPlan {
    method: MethodId,
    reason: PlanReason,
    /// Predicted benefit ([`aoci_opt::estimate_benefit`]) under the rules
    /// current at enqueue time; higher runs first.
    priority: f64,
    /// Staleness baseline: the plan is dropped at dequeue if the method was
    /// recompiled through another path (e.g. OSR) while it waited.
    recompiles_at_enqueue: u32,
}

/// `Greater` means `a` dispatches first: higher predicted benefit, ties
/// broken toward the lower method id (so the order is total and
/// deterministic — `total_cmp` keeps even NaN priorities ordered).
fn plan_order(a: &PendingPlan, b: &PendingPlan) -> std::cmp::Ordering {
    a.priority
        .total_cmp(&b.priority)
        .then_with(|| b.method.index().cmp(&a.method.index()))
}

/// What a dispatched background compile will deliver at its deadline.
#[derive(Debug)]
enum CompileOutcome {
    /// The optimizing compiler produced installable code.
    Built(Box<aoci_opt::Compilation>),
    /// An injected fault discarded the work; failure bookkeeping (retry
    /// backoff or quarantine) applies at completion.
    Faulted,
}

/// A compile occupying a simulated worker between dispatch and completion.
/// The work itself is computed at dispatch (the simulation has no real
/// concurrency); only its *effects* — install, cycle charges, failure
/// bookkeeping — wait for the deadline.
#[derive(Debug)]
struct InFlightCompile {
    method: MethodId,
    worker: u32,
    started_at: u64,
    /// `started_at + cost` (or `started_at` in zero-latency mode): the
    /// virtual-clock cycle at which the compile completes.
    deadline: u64,
    cost: u64,
    outcome: CompileOutcome,
    /// Staleness baseline for completion revalidation: if the method was
    /// recompiled while this compile ran, the result is stale and dropped.
    recompiles_at_dispatch: u32,
    /// The oracle snapshot the compiler ran against; unrealized-rule
    /// marking at install must use the rules the compiler saw, not the
    /// (possibly regenerated) rules current at completion.
    rules_at_dispatch: Arc<RuleSet>,
    generation_at_dispatch: u64,
    /// The calling context the compile was specialized for (empty outside
    /// deoptless mode); the install is keyed by its fingerprint.
    context: Vec<CallSiteRef>,
}

/// The complete adaptive optimization system: VM, listeners, organizers,
/// controller, compilation thread and the AOS database, on one simulated
/// clock.
#[derive(Debug)]
pub struct AosSystem<'p> {
    program: &'p Program,
    config: AosConfig,
    vm: Vm<'p>,
    policy: PolicyEngine,
    method_listener: MethodListener,
    trace_listener: TraceListener,
    profile: Box<dyn ProfileStore>,
    rules: Arc<RuleSet>,
    db: AosDatabase,
    method_samples: HashMap<MethodId, u32>,
    total_method_samples: u64,
    /// AI-organizer run counter; the generation at which each trace first
    /// became a hot rule gates the missing-edge organizer ("the edge became
    /// hot after the method was last compiled", paper Section 3.2).
    ai_generation: u64,
    first_hot: HashMap<aoci_profile::TraceKey, u64>,
    compile_queue: VecDeque<MethodId>,
    /// Methods with a live plan: queued (sync FIFO or async priority queue)
    /// or — in async mode — currently in flight on a worker.
    queued: HashSet<MethodId>,
    /// Async mode: plans awaiting a free worker, ordered by [`plan_order`]
    /// at each dispatch (kept unsorted; the queue is small and bounded).
    pending_plans: Vec<PendingPlan>,
    /// Async mode: one slot per simulated worker, `Some` while occupied.
    in_flight: Vec<Option<InFlightCompile>>,
    /// Async-mode activity counters and overlap/stall accounting.
    async_events: AsyncCompileEvents,
    sample_count: u64,
    stats: TraceStatsCollector,
    /// Set once the program returns from its entry point.
    finished: Option<Option<aoci_vm::Value>>,
    /// The adversary, when fault injection is configured.
    fault: Option<FaultInjector>,
    /// Recovery actions taken so far (injected-fault counters are merged in
    /// from the injector when reporting).
    recovery: RecoveryEvents,
    /// The raw last-`dump_last` recorder events as of the latest recovery
    /// action; [`AosSystem::recovery_events`] renders them into
    /// [`RecoveryEvents::trace_dump`] (which stays empty in `recovery`).
    dump_tail: Vec<Recorded>,
    /// Per optimized method: guard counters at the start of the current
    /// observation window (reset at install and at invalidation).
    guard_window_start: HashMap<MethodId, MethodGuardStats>,
    /// Synthetic guard misses delivered by receiver bursts, folded into the
    /// window on top of the VM's organic counters.
    synthetic_misses: HashMap<MethodId, u64>,
    /// Per method: consecutive failed compilations (cleared on success).
    compile_failures: HashMap<MethodId, u32>,
    /// Per method: consecutive guard-thrash invalidations (cleared by a
    /// healthy observation window); reaching the quarantine limit blocks
    /// the method instead of letting it cycle invalidate → recompile.
    invalidation_streaks: HashMap<MethodId, u32>,
    /// Failed compilations awaiting their backoff deadline, as
    /// `(due_cycle, method)` in scheduling order.
    retry_after: Vec<(u64, MethodId)>,
    /// Methods blocked from optimizing compilation for the rest of the run.
    quarantined: HashSet<MethodId>,
    /// OSR promotion requests received / denied so far (the transition
    /// counts themselves live in the VM's [`aoci_vm::ExecCounters`]).
    osr: OsrEvents,
    /// The flight recorder, when tracing is configured; clones of this sink
    /// live in the VM and the trace listener.
    trace: Option<TraceSink>,
    /// The telemetry registry, when metrics are configured. Recording
    /// charges no simulated cycles and reads only simulated-clock state, so
    /// a metered run's report (minus the log itself) is bit-identical to an
    /// unmetered one.
    metrics: Option<MetricsSink>,
    /// Compile-server ledger; stays default unless
    /// [`AosConfig::compile_server`] is set.
    server: ServerEvents,
}

impl<'p> AosSystem<'p> {
    /// Creates a system ready to run `program` under `config`.
    pub fn new(program: &'p Program, config: AosConfig) -> Self {
        let mut vm = Vm::with_config(program, config.cost.clone(), config.vm.clone());
        if config.vm.deoptless {
            // Dispatched OSR needs superseded versions to survive so guard
            // shifts can transfer into them (DESIGN.md §16).
            vm.registry_mut().retain_versions(true);
        }
        let trace = config.trace.clone().map(TraceSink::new);
        let mut trace_listener = TraceListener::new();
        if let Some(t) = &trace {
            vm.set_trace_sink(t.clone());
            trace_listener.set_trace_sink(t.clone());
        }
        let mut policy = PolicyEngine::with_adaptive_config(config.policy, config.adaptive);
        if matches!(config.policy, aoci_core::PolicyKind::IdealApprox { .. }) {
            policy.set_dependence(aoci_core::DependenceAnalysis::analyze(program));
        }
        let profile: Box<dyn ProfileStore> = match config.profile_backend {
            crate::config::ProfileBackend::FlatTraces => Box::new(Dcg::new(config.dcg)),
            crate::config::ProfileBackend::ContextTree => {
                Box::new(CallingContextTree::new(config.dcg.prune_epsilon))
            }
        };
        AosSystem {
            program,
            vm,
            policy,
            method_listener: MethodListener::new(),
            trace_listener,
            profile,
            rules: Arc::new(RuleSet::new()),
            db: AosDatabase::new(),
            method_samples: HashMap::new(),
            total_method_samples: 0,
            ai_generation: 0,
            first_hot: HashMap::new(),
            compile_queue: VecDeque::new(),
            queued: HashSet::new(),
            pending_plans: Vec::new(),
            in_flight: Vec::new(),
            async_events: AsyncCompileEvents::default(),
            sample_count: 0,
            stats: TraceStatsCollector::new(),
            finished: None,
            fault: config.fault.clone().map(FaultInjector::new),
            recovery: RecoveryEvents::default(),
            dump_tail: Vec::new(),
            guard_window_start: HashMap::new(),
            synthetic_misses: HashMap::new(),
            compile_failures: HashMap::new(),
            invalidation_streaks: HashMap::new(),
            retry_after: Vec::new(),
            quarantined: HashSet::new(),
            osr: OsrEvents::default(),
            trace,
            metrics: config.metrics.clone().map(MetricsSink::new),
            server: ServerEvents::default(),
            config,
        }
    }

    /// Records `event` in the flight recorder (no-op when tracing is off).
    /// Events are timestamped with the simulated clock and charge no
    /// cycles, so traced runs are metrically identical to untraced ones.
    fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.trace {
            t.emit(self.vm.clock().total(), event);
        }
    }

    /// Copies the last-N recorder events into the recovery ledger (the
    /// automatic flight-recorder dump attached to [`RecoveryEvents`]). Only
    /// the latest capture is ever read, so the events stay raw until then.
    fn capture_trace_dump(&mut self) {
        let Some(t) = &self.trace else { return };
        let n = self.config.trace.as_ref().map_or(0, |c| c.dump_last);
        t.copy_tail(n, &mut self.dump_tail);
    }

    /// Renders the captured dump, one line per event.
    fn render_trace_dump(&self) -> Vec<String> {
        let resolve = |m: MethodId| self.program.method(m).name().to_string();
        self.dump_tail.iter().map(|r| r.dump_line(&resolve)).collect()
    }

    /// Seeds the profile store with offline-gathered trace data (e.g. a
    /// [`aoci_profile::SavedProfile`] from a training run), emulating the
    /// classic offline profile-directed pipeline the paper's related work
    /// describes. Rules form at the first AI-organizer tick, so hot methods
    /// compile with good inlining decisions immediately instead of after a
    /// warm-up.
    ///
    /// Entries pass the same sanitization as online traces: malformed ones
    /// (unknown methods or sites, non-finite or non-positive weights) are
    /// rejected and counted in [`RecoveryEvents::rejected_traces`], so a
    /// corrupted saved profile degrades the warm-up instead of crashing the
    /// run.
    pub fn seed_profile(&mut self, entries: impl IntoIterator<Item = (aoci_profile::TraceKey, f64)>) {
        for (k, w) in entries {
            if validate_trace(self.program, &k, w).is_ok() {
                self.profile.record(k, w);
            } else {
                self.reject_trace();
            }
        }
    }

    /// Runs the program to completion under adaptive optimization.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the program raises (a fault in optimized
    /// code would indicate a compiler bug — the test suite leans on this).
    pub fn run(mut self) -> Result<AosReport, VmError> {
        let result = self.run_to_completion()?;
        Ok(self.into_report(result).0)
    }

    /// Like [`AosSystem::run`], but also returns the final [`AosDatabase`]
    /// so callers can inspect the full inline-decision and refusal logs.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the program raises.
    pub fn run_detailed(mut self) -> Result<(AosReport, AosDatabase), VmError> {
        let result = self.run_to_completion()?;
        Ok(self.into_report(result))
    }

    /// Like [`AosSystem::run_detailed`], but additionally returns the final
    /// trace profile — suitable for saving as an offline profile (see
    /// [`aoci_profile::SavedProfile`] and the `offline_profile` example).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the program raises.
    pub fn run_full(mut self) -> FullRunResult {
        let result = self.run_to_completion()?;
        let profile = self.profile.entries();
        let (report, db) = self.into_report(result);
        Ok((report, db, profile))
    }

    /// Runs the program to completion as one fleet replica serving run:
    /// like [`AosSystem::run_full`], but returns the compile-server ledger
    /// alongside the report and final profile (and skips the database
    /// clone the fleet driver does not need).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the program raises.
    pub fn run_serving(mut self) -> Result<ServingOutcome, VmError> {
        let result = self.run_to_completion()?;
        let profile = self.profile.entries();
        let server = std::mem::take(&mut self.server);
        Ok(ServingOutcome { report: self.into_report(result).0, profile, server })
    }

    /// Steps until the program returns; yields its return value.
    fn run_to_completion(&mut self) -> Result<Option<aoci_vm::Value>, VmError> {
        while self.step()? {}
        // `step` only reports completion once `finished` is set; if that
        // invariant ever breaks, degrade to "no return value" rather than
        // panicking out of an otherwise-successful run.
        Ok(self.finished.take().flatten())
    }

    /// Advances execution to the next timer sample (processing it through
    /// the listeners/organizers/compilation pipeline) or to program
    /// completion. Returns `false` once the program has finished; the
    /// introspection accessors ([`AosSystem::profile`],
    /// [`AosSystem::rules`], [`AosSystem::database`],
    /// [`AosSystem::policy`]) remain usable between steps.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the program raises.
    pub fn step(&mut self) -> Result<bool, VmError> {
        if self.finished.is_some() {
            return Ok(false);
        }
        let outcome = match self.vm.run(u64::MAX) {
            Ok(outcome) => outcome,
            Err(e) => {
                // The run is about to abort: record the fault, attach the
                // last-N dump to the recovery ledger, and surface the
                // recorder's tail on stderr — the post-mortem the flight
                // recorder exists for.
                self.emit(TraceEvent::VmFault { message: e.to_string() });
                self.capture_trace_dump();
                for line in self.render_trace_dump() {
                    eprintln!("[aoci-trace] {line}");
                }
                return Err(e);
            }
        };
        match outcome {
            RunOutcome::Finished(result) => {
                self.finished = Some(result);
                Ok(false)
            }
            RunOutcome::Sample(snapshot) => {
                self.on_sample(&snapshot);
                Ok(true)
            }
            RunOutcome::OsrRequest(req) => {
                self.dispatch_osr(req);
                Ok(true)
            }
            RunOutcome::BudgetExhausted => unreachable!("unbounded budget"),
        }
    }

    /// One timer tick: listeners record, organizers run on their cadences,
    /// the controller plans, the compilation thread compiles and installs.
    fn on_sample(&mut self, snapshot: &StackSnapshot) {
        self.sample_count += 1;

        // --- Fault injection (per tick) ---------------------------------
        // A dropped sample still advances the tick (organizer cadences are
        // wall-clock driven) but its payload never reaches the listeners.
        let dropped = self.fault.as_mut().is_some_and(|f| f.drop_sample());
        self.emit(TraceEvent::SampleTick {
            tick: self.sample_count,
            method: snapshot.root_method,
            in_prologue: snapshot.top_in_prologue,
            dropped,
        });
        if dropped {
            self.emit(TraceEvent::FaultInjected { kind: FaultKind::DroppedSample });
        }
        self.deliver_receiver_burst();

        // --- Listeners -------------------------------------------------
        if dropped {
            let listener_cycles = self.config.cost.sample_cost(1);
            self.vm.clock_mut().charge(Component::Listeners, listener_cycles);
        } else {
            self.method_listener.on_sample(snapshot);
            let site = immediate_site(snapshot);
            let max = self.policy.max_context_for(site);
            let walked = {
                let policy = &self.policy;
                let program = self.program;
                self.trace_listener
                    .on_sample(snapshot, max, |m| policy.keep_extending(program, m))
            };
            let listener_cycles = self.config.cost.sample_cost(walked + 1);
            self.vm.clock_mut().charge(Component::Listeners, listener_cycles);
            if snapshot.top_in_prologue {
                self.stats.observe(snapshot, self.program);
            }
        }

        // --- Recovery: guard health + due compile retries ---------------
        self.check_guard_health();
        self.schedule_due_retries();

        // --- Organizers (periodic) --------------------------------------
        if self.sample_count.is_multiple_of(self.config.organizer_period_samples) {
            self.hot_methods_organizer();
            self.dcg_and_ai_organizer();
        }
        if self.sample_count.is_multiple_of(self.config.decay_period_samples) {
            self.decay_organizer();
        }
        if self.sample_count.is_multiple_of(self.config.missing_edge_period_samples) {
            self.missing_edge_organizer();
        }

        // --- Compilation thread -----------------------------------------
        self.process_compile_queue();

        // --- Telemetry (epoch cadence; records nothing, charges nothing,
        // when metrics are off) ------------------------------------------
        let epoch = self.metrics.as_ref().map(MetricsSink::epoch_samples);
        if epoch.is_some_and(|e| self.sample_count.is_multiple_of(e)) {
            self.record_metrics_snapshot();
        }
    }

    /// Freezes one telemetry time-series snapshot: samples every cumulative
    /// counter and instantaneous gauge from authoritative AOS/VM state at
    /// the current simulated-clock instant. No-op when metrics are off;
    /// charges no simulated cycles when on.
    fn record_metrics_snapshot(&self) {
        let Some(sink) = &self.metrics else { return };
        let counters = self.vm.counters();
        sink.counter_set("samples", self.sample_count);
        sink.counter_set("calls", counters.calls);
        sink.counter_set("virtual_dispatches", counters.virtual_dispatches);
        sink.counter_set("guard_checks", counters.guard_checks);
        sink.counter_set("guard_misses", counters.guard_misses);
        let osr = self.osr_events();
        sink.counter_set("osr_requests", osr.requests);
        sink.counter_set("osr_denied", osr.denied);
        sink.counter_set("osr_entries", osr.entries);
        sink.counter_set("osr_exits", osr.exits);
        let recovery = self.recovery_counters();
        sink.counter_set("recovery_invalidations", recovery.invalidations);
        sink.counter_set("recovery_compile_retries", recovery.compile_retries);
        sink.counter_set("recovery_rejected_traces", recovery.rejected_traces);
        sink.counter_set("recovery_injected_compile_faults", recovery.injected_compile_faults);
        sink.counter_set("recovery_injected_corrupt_traces", recovery.injected_corrupt_traces);
        sink.counter_set("recovery_dropped_samples", recovery.dropped_samples);
        sink.counter_set("recovery_receiver_bursts", recovery.receiver_bursts);
        let async_ev = &self.async_events;
        sink.counter_set("async_enqueued", async_ev.enqueued);
        sink.counter_set("async_dispatched", async_ev.dispatched);
        sink.counter_set("async_completed", async_ev.completed);
        sink.counter_set("async_stale_drops", async_ev.stale_drops);
        sink.counter_set("async_queue_full_drops", async_ev.queue_full_drops);
        sink.counter_set("async_overlap_cycles", async_ev.background_overlap_cycles);
        sink.counter_set("async_stall_cycles", async_ev.foreground_stall_cycles);
        let clock = self.vm.clock();
        sink.counter_set("cycles_total", clock.total());
        for c in COMPONENTS {
            sink.counter_set(&format!("cycles_{}", c.slug()), clock.component(c));
        }
        let registry = self.vm.registry();
        sink.gauge_set(
            "compile_queue_depth",
            (self.compile_queue.len() + self.pending_plans.len()) as u64,
        );
        sink.gauge_set(
            "compiles_in_flight",
            self.in_flight.iter().filter(|slot| slot.is_some()).count() as u64,
        );
        sink.gauge_set("code_cache_bytes", registry.current_optimized_size());
        sink.gauge_set("code_cache_cumulative_bytes", registry.cumulative_optimized_size());
        sink.gauge_set("code_versions", u64::from(registry.opt_compilations()));
        sink.gauge_set("baseline_methods", u64::from(registry.baseline_compilations()));
        sink.gauge_set("rules_active", self.rules.len() as u64);
        sink.gauge_set("dcg_entries", self.profile.len() as u64);
        sink.gauge_set("quarantined_methods", self.quarantined.len() as u64);
        sink.gauge_set("retry_backlog", self.retry_after.len() as u64);
        sink.snapshot(self.sample_count, clock.total());
    }

    /// Aggregates method samples; methods crossing the hotness threshold
    /// are handed to the controller for (first) optimizing compilation.
    fn hot_methods_organizer(&mut self) {
        let drained = self.method_listener.drain();
        self.charge(
            Component::MethodSampleOrganizer,
            self.config.organizer_cost_per_item * drained.len() as u64,
        );
        for m in drained {
            *self.method_samples.entry(m).or_insert(0) += 1;
            self.total_method_samples += 1;
        }
        let min_share =
            (self.config.hot_method_fraction * self.total_method_samples as f64) as u32;
        let mut hot: Vec<MethodId> = self
            .method_samples
            .iter()
            .filter(|&(&m, &count)| {
                count >= self.config.hot_method_samples.max(min_share)
                    && !self.db.is_optimized(m)
                    && !self.queued.contains(&m)
                    && !self.quarantined.contains(&m)
                    // Bounds churn from the invalidate→reselect cycle; only
                    // reachable post-invalidation (an optimized method is
                    // filtered out above).
                    && self.db.recompiles(m) < self.config.max_recompiles_per_method
            })
            .map(|(&m, _)| m)
            .collect();
        // HashMap iteration order is arbitrary; sort so the compile queue
        // (and anything keyed to it, like the fault injector's draw
        // sequence) is deterministic.
        hot.sort_unstable_by_key(|m| m.index());
        if self.config.debug_hot {
            eprintln!("tick {}: samples={:?} min_share={} hot={:?}", self.sample_count, self.method_samples, min_share, hot);
        }
        for m in hot {
            let samples = self.method_samples.get(&m).copied().unwrap_or(0);
            self.emit(TraceEvent::HotMethod { method: m, samples });
            self.controller_enqueue(m, PlanReason::HotMethod);
        }
    }

    /// Folds trace buffers into the DCG and regenerates inlining rules from
    /// traces above the hot threshold; feeds the adaptive-resolving policy.
    fn dcg_and_ai_organizer(&mut self) {
        let traces = self.trace_listener.drain();
        self.charge(
            Component::AiOrganizer,
            self.config.organizer_cost_per_item * (traces.len() + self.profile.len()) as u64,
        );
        for t in traces {
            let (key, weight) = self.maybe_corrupt(t);
            match validate_trace(self.program, &key, weight) {
                Ok(()) => self.profile.record(key, weight),
                Err(_) => self.reject_trace(),
            }
        }
        self.ai_generation += 1;
        self.rules =
            Arc::new(RuleSet::from_hot_traces(self.profile.hot(self.config.hot_edge_threshold)));
        for rule in self.rules.iter() {
            // Rules are rarely new: clone the key only on vacancy.
            if !self.first_hot.contains_key(&rule.trace) {
                self.first_hot.insert(rule.trace.clone(), self.ai_generation);
            }
        }
        self.policy.adaptive_feedback(self.profile.as_ref());
    }

    /// Ages the DCG toward recent behaviour (phase-shift adaptation).
    fn decay_organizer(&mut self) {
        self.charge(
            Component::DecayOrganizer,
            self.config.organizer_cost_per_item * self.profile.len() as u64,
        );
        self.profile.decay(self.config.decay_factor);
    }

    /// Returns `true` if `method` currently satisfies the hot-method
    /// criterion (same test the hot-methods organizer applies).
    fn is_hot_method(&self, method: MethodId) -> bool {
        let min_share =
            (self.config.hot_method_fraction * self.total_method_samples as f64) as u32;
        self.method_samples
            .get(&method)
            .is_some_and(|&c| c >= self.config.hot_method_samples.max(min_share))
    }

    /// Requests recompilation of *hot* optimized methods for which new hot,
    /// uninlined, unrefused rules have appeared since their last
    /// compilation (paper: "examines the current set of hot optimized
    /// methods and inlining rules").
    fn missing_edge_organizer(&mut self) {
        self.charge(
            Component::MissingEdgeOrganizer,
            self.config.organizer_cost_per_item * self.rules.len() as u64,
        );
        let mut to_queue: Vec<MethodId> = Vec::new();
        for rule in self.rules.iter() {
            let site = rule.trace.immediate_caller();
            let callee = rule.trace.callee();
            let became_hot_at = self
                .first_hot
                .get(&rule.trace)
                .copied()
                .unwrap_or(self.ai_generation);
            // A rule can be realised by compiling its immediate caller, or
            // by a deeper compilation rooted at the outermost context
            // method; check both hosts. A host is reconsidered only when
            // the rule became hot *after* its last compilation (the paper's
            // condition) and the oracle's partial-match intersection would
            // actually yield the callee in the context that compilation
            // presents.
            let Some(outer) = rule.trace.context().last().map(|c| c.method) else {
                continue; // malformed rule: no context to host a compilation
            };
            for (host, ctx) in [
                (site.method, &rule.trace.context()[..1]),
                (outer, rule.trace.context()),
            ] {
                // The outer host is only worth recompiling once its code
                // already contains the rule's immediate caller; until then
                // the caller's own edge rule is the effective trigger.
                let chain_present =
                    host == site.method || self.db.inlines_method(host, site.method);
                if chain_present
                    && self.db.is_optimized(host)
                    && self.is_hot_method(host)
                    && self.db.compiled_generation(host) < Some(became_hot_at)
                    && !self.db.has_inlined(host, site, callee)
                    && !self.db.was_refused(site, callee)
                    && !self.db.is_unrealized(host, site, callee)
                    && self.db.recompiles(host) < self.config.max_recompiles_per_method
                    && !self.queued.contains(&host)
                    && !to_queue.contains(&host)
                    && self.rules.candidates(ctx).iter().any(|&(c, _)| c == callee)
                {
                    to_queue.push(host);
                }
            }
        }
        // Rule iteration follows HashMap order; sort so the compile queue
        // (and the fault injector's per-compilation draw sequence) is
        // deterministic across processes.
        to_queue.sort_unstable_by_key(|m| m.index());
        for m in to_queue {
            self.controller_enqueue(m, PlanReason::MissingEdge);
        }
    }

    /// The controller: accepts an organizer event and creates a compilation
    /// plan (the oracle snapshot is taken when the plan executes).
    fn controller_enqueue(&mut self, method: MethodId, reason: PlanReason) {
        if self.quarantined.contains(&method) {
            return;
        }
        if self.config.async_compile.is_some() {
            self.async_enqueue(method, reason);
            return;
        }
        self.charge(Component::ControllerThread, self.config.controller_cost_per_event);
        if self.queued.insert(method) {
            self.emit(TraceEvent::RecompilePlan { method, reason });
            self.compile_queue.push_back(method);
        }
    }

    /// Async-mode controller path: prices the plan by predicted benefit and
    /// admits it to the bounded priority queue, evicting the worst resident
    /// (or dropping the incoming plan when it *is* the worst) under
    /// backpressure.
    fn async_enqueue(&mut self, method: MethodId, reason: PlanReason) {
        let capacity =
            self.config.async_compile.as_ref().map_or(usize::MAX, |c| c.queue_capacity.max(1));
        self.charge(Component::ControllerThread, self.config.controller_cost_per_event);
        if !self.queued.insert(method) {
            return; // already queued or in flight
        }
        self.emit(TraceEvent::RecompilePlan { method, reason });
        let oracle = InlineOracle::with_mode(Arc::clone(&self.rules), self.config.match_mode);
        // Price the plan in the context the eventual compile will be
        // specialized for; with deoptless off the context is empty and this
        // is exactly the historical `estimate_benefit`.
        let context = self.dominant_context(method);
        let plan = PendingPlan {
            method,
            reason,
            priority: aoci_opt::estimate_benefit_in_context(self.program, method, &oracle, &context),
            recompiles_at_enqueue: self.db.recompiles(method),
        };
        if self.pending_plans.len() >= capacity {
            let worst = self
                .pending_plans
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| plan_order(a, b))
                .map(|(i, _)| i)
                .expect("capacity >= 1, so a full queue is non-empty");
            if plan_order(&plan, &self.pending_plans[worst]) == std::cmp::Ordering::Greater {
                let evicted = self.pending_plans.swap_remove(worst);
                self.queued.remove(&evicted.method);
                self.async_events.queue_full_drops += 1;
                self.emit(TraceEvent::CompileQueueFull { method: evicted.method, evicted: true });
            } else {
                self.queued.remove(&method);
                self.async_events.queue_full_drops += 1;
                self.emit(TraceEvent::CompileQueueFull { method, evicted: false });
                return;
            }
        }
        self.pending_plans.push(plan);
        self.async_events.enqueued += 1;
        self.async_events.max_queue_depth =
            self.async_events.max_queue_depth.max(self.pending_plans.len() as u64);
        self.emit(TraceEvent::CompileEnqueue {
            method,
            reason,
            priority: self.pending_plans.last().map_or(0.0, |p| p.priority),
            queue_depth: self.pending_plans.len() as u32,
        });
    }

    /// The compilation thread: executes queued plans, charging compile
    /// cycles and installing the resulting code (effective at each method's
    /// next invocation — or mid-activation, when a later OSR request
    /// promotes a running frame into the installed version). In synchronous
    /// mode up to [`AosConfig::max_compiles_per_epoch`] plans compile inside
    /// this tick (the default cap is unlimited — the historical
    /// drain-everything behaviour); leftovers stay queued for the next tick.
    /// In async mode this is the pump: due compiles complete, then free
    /// workers pick up the highest-priority live plans.
    fn process_compile_queue(&mut self) {
        if self.config.async_compile.is_some() {
            self.complete_due_compiles();
            self.dispatch_pending_plans();
            return;
        }
        let mut started = 0u32;
        while started < self.config.max_compiles_per_epoch {
            let Some(method) = self.compile_queue.pop_front() else { break };
            self.queued.remove(&method);
            if self.quarantined.contains(&method) {
                continue; // quarantined while waiting in the queue: a free skip
            }
            started += 1;
            self.compile_and_install(method);
        }
    }

    /// Retires every in-flight compile whose deadline the virtual clock has
    /// reached, earliest deadline first (ties to the lower worker index).
    /// Completion charges the unoverlapped stall, which advances the clock
    /// and may make further deadlines due — hence the re-scan.
    fn complete_due_compiles(&mut self) {
        loop {
            let now = self.vm.clock().total();
            let due = self
                .in_flight
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.as_ref().map(|c| (c.deadline, i)))
                .filter(|&(deadline, _)| deadline <= now)
                .min();
            let Some((_, slot)) = due else { break };
            let compile = self.in_flight[slot].take().expect("slot was just observed occupied");
            self.finish_compile(compile);
        }
    }

    /// Hands the highest-priority live plans to free workers, revalidating
    /// each plan at dequeue: a method that was quarantined, recompiled
    /// through another path, or has cooled below the hot threshold while it
    /// waited is dropped, not compiled.
    fn dispatch_pending_plans(&mut self) {
        let (workers, zero_latency) = match self.config.async_compile.as_ref() {
            Some(c) => (c.workers.max(1), c.zero_latency),
            None => return,
        };
        if self.in_flight.len() < workers {
            self.in_flight.resize_with(workers, || None);
        }
        let mut started = 0u32;
        while started < self.config.max_compiles_per_epoch {
            let Some(worker) = self.in_flight.iter().position(Option::is_none) else { break };
            let Some(plan) = self.pop_best_live_plan() else { break };
            started += 1;
            let compile = self.dispatch_plan(plan, worker as u32, zero_latency);
            if zero_latency {
                // Degenerate mode: the compile completes at dispatch with
                // zero overlap — the synchronous system, re-expressed.
                self.finish_compile(compile);
            } else {
                self.in_flight[worker] = Some(compile);
            }
        }
    }

    /// Pops pending plans best-first until one survives revalidation; stale
    /// plans are dropped with a traced reason.
    fn pop_best_live_plan(&mut self) -> Option<PendingPlan> {
        loop {
            let best = self
                .pending_plans
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| plan_order(a, b))
                .map(|(i, _)| i)?;
            let plan = self.pending_plans.swap_remove(best);
            let stale = if self.quarantined.contains(&plan.method) {
                Some(StaleReason::Quarantined)
            } else if self.db.recompiles(plan.method) != plan.recompiles_at_enqueue {
                Some(StaleReason::Recompiled)
            } else if plan.reason == PlanReason::HotMethod && !self.is_hot_method(plan.method) {
                Some(StaleReason::NoLongerHot)
            } else {
                None
            };
            match stale {
                Some(reason) => {
                    self.queued.remove(&plan.method);
                    self.async_events.stale_drops += 1;
                    self.emit(TraceEvent::CompileDequeueStale { method: plan.method, reason });
                }
                None => return Some(plan),
            }
        }
    }

    /// Starts one background compile: the work (and any injected fault) is
    /// resolved now, its effects are deferred to the deadline. The method
    /// stays in `queued` until completion so no second plan can race it.
    fn dispatch_plan(&mut self, plan: PendingPlan, worker: u32, zero_latency: bool) -> InFlightCompile {
        let rules = Arc::clone(&self.rules);
        let oracle = InlineOracle::with_mode(Arc::clone(&rules), self.config.match_mode);
        let context = self.dominant_context(plan.method);
        let (outcome, cost) = match self.fault.as_mut().and_then(|f| f.compile_fault()) {
            Some(CompileFault::Bailout) => {
                self.emit(TraceEvent::FaultInjected { kind: FaultKind::CompileBailout });
                (CompileOutcome::Faulted, self.config.cost.opt_compile_fixed)
            }
            Some(CompileFault::Oversize) => {
                let c = aoci_opt::compile_in_context(
                    self.program,
                    plan.method,
                    &oracle,
                    &self.config.opt,
                    &context,
                );
                self.emit(TraceEvent::FaultInjected { kind: FaultKind::CompileOversize });
                (CompileOutcome::Faulted, self.config.cost.opt_compile_cost(c.generated_size))
            }
            None => {
                let c = aoci_opt::compile_in_context(
                    self.program,
                    plan.method,
                    &oracle,
                    &self.config.opt,
                    &context,
                );
                let cost = self.config.cost.opt_compile_cost(c.generated_size);
                (CompileOutcome::Built(Box::new(c)), cost)
            }
        };
        let now = self.vm.clock().total();
        self.async_events.dispatched += 1;
        self.emit(TraceEvent::CompileStart { method: plan.method, worker, cost });
        InFlightCompile {
            method: plan.method,
            worker,
            started_at: now,
            deadline: if zero_latency { now } else { now + cost },
            cost,
            outcome,
            recompiles_at_dispatch: self.db.recompiles(plan.method),
            rules_at_dispatch: rules,
            generation_at_dispatch: self.ai_generation,
            context,
        }
    }

    /// Completes a background compile at (or after) its deadline: splits its
    /// cost into the portion that overlapped application execution and the
    /// stall the application must still wait out, charges only the stall,
    /// then installs the result — unless the world moved on while the
    /// compile ran, in which case the stale result is dropped.
    fn finish_compile(&mut self, compile: InFlightCompile) {
        let now = self.vm.clock().total();
        let overlap = compile.cost.min(now.saturating_sub(compile.started_at));
        let stall = compile.cost - overlap;
        self.charge(Component::CompilationThread, stall);
        self.async_events.background_overlap_cycles += overlap;
        self.async_events.foreground_stall_cycles += stall;
        self.emit(TraceEvent::CompileFinish {
            method: compile.method,
            worker: compile.worker,
            overlap_cycles: overlap,
            stall_cycles: stall,
        });
        self.queued.remove(&compile.method);
        match compile.outcome {
            CompileOutcome::Faulted => {
                self.async_events.completed += 1;
                self.handle_compile_failure(compile.method);
            }
            CompileOutcome::Built(compilation) => {
                let stale = if self.quarantined.contains(&compile.method) {
                    Some(StaleReason::Quarantined)
                } else if self.db.recompiles(compile.method) != compile.recompiles_at_dispatch {
                    Some(StaleReason::Recompiled)
                } else {
                    None
                };
                if let Some(reason) = stale {
                    self.async_events.stale_drops += 1;
                    self.emit(TraceEvent::CompileDequeueStale { method: compile.method, reason });
                    return;
                }
                self.async_events.completed += 1;
                self.install_compilation(
                    compile.method,
                    *compilation,
                    compile.cost,
                    compile.generation_at_dispatch,
                    &compile.rules_at_dispatch,
                    ContextFingerprint::of(&compile.context),
                );
            }
        }
    }

    /// The calling context a non-OSR compilation of `method` should be
    /// specialized for in deoptless mode: the immediate caller of the
    /// max-weight rule naming `method` as callee (ties broken toward the
    /// lower call site, so the chain is deterministic), or the empty chain
    /// when no rule names it. Always empty with deoptless off, keeping the
    /// default system's compilations and keys bit-identical.
    fn dominant_context(&self, method: MethodId) -> Vec<CallSiteRef> {
        if !self.config.vm.deoptless {
            return Vec::new();
        }
        let mut best: Option<(f64, CallSiteRef)> = None;
        for rule in self.rules.iter() {
            if rule.trace.callee() != method {
                continue;
            }
            let site = rule.trace.immediate_caller();
            let better = match best {
                None => true,
                Some((w, s)) => {
                    rule.weight > w
                        || (rule.weight == w
                            && (site.method.index(), site.site.index())
                                < (s.method.index(), s.site.index()))
                }
            };
            if better {
                best = Some((rule.weight, site));
            }
        }
        best.map(|(_, site)| vec![site]).unwrap_or_default()
    }

    /// Executes one compilation plan specialized for no particular context:
    /// runs the optimizing compiler under the fault injector, charges
    /// compile cycles, and installs the result (keyed by the dominant
    /// context in deoptless mode). Returns the installed version, or `None`
    /// when an injected fault discarded the compilation (failure
    /// bookkeeping already applied).
    fn compile_and_install(&mut self, method: MethodId) -> Option<Arc<MethodVersion>> {
        let outer = self.dominant_context(method);
        self.compile_and_install_ctx(method, &outer)
    }

    /// Like [`AosSystem::compile_and_install`], but compiles specialized
    /// for (and keys the install by) the calling context `outer`, innermost
    /// caller first. The empty chain reproduces the context-free compile.
    fn compile_and_install_ctx(
        &mut self,
        method: MethodId,
        outer: &[CallSiteRef],
    ) -> Option<Arc<MethodVersion>> {
        // Shared compile server (fleet serving): a cache hit installs the
        // server's pre-compiled version for a small fixed cost, bypassing
        // the local compiler — and with it compile-fault injection —
        // entirely. A miss falls through to the local compile below and is
        // logged in the request outbox for the server to batch.
        if let Some(server) = &self.config.compile_server {
            if let Some(cached) = server.cache.get(&method) {
                let compilation = (**cached).clone();
                let cost = server.hit_cost;
                self.charge(Component::CompilationThread, cost);
                self.server.hits += 1;
                if !self.server.hit_methods.contains(&method) {
                    self.server.hit_methods.push(method);
                }
                if let Some(sink) = &self.metrics {
                    sink.counter_add("compile_server_hits", 1);
                }
                let rules = Arc::clone(&self.rules);
                // Server versions are generic (compiled context-free), so
                // they install under the root key regardless of `outer`.
                return Some(self.install_compilation(
                    method,
                    compilation,
                    cost,
                    self.ai_generation,
                    &rules,
                    ContextFingerprint::ROOT,
                ));
            }
            self.server.misses += 1;
            if !self.server.requests.contains(&method) {
                self.server.requests.push(method);
            }
            if let Some(sink) = &self.metrics {
                sink.counter_add("compile_server_misses", 1);
            }
        }
        if let Some(kind) = self.fault.as_mut().and_then(|f| f.compile_fault()) {
            let (wasted, fault_kind) = match kind {
                // Aborted partway: only the fixed setup cost was spent.
                CompileFault::Bailout => {
                    (self.config.cost.opt_compile_fixed, FaultKind::CompileBailout)
                }
                // Completed then rejected as oversized: full cost spent,
                // output discarded.
                CompileFault::Oversize => {
                    let oracle = InlineOracle::with_mode(
                        Arc::clone(&self.rules),
                        self.config.match_mode,
                    );
                    let c = aoci_opt::compile_in_context(
                        self.program,
                        method,
                        &oracle,
                        &self.config.opt,
                        outer,
                    );
                    (
                        self.config.cost.opt_compile_cost(c.generated_size),
                        FaultKind::CompileOversize,
                    )
                }
            };
            self.charge(Component::CompilationThread, wasted);
            self.emit(TraceEvent::FaultInjected { kind: fault_kind });
            self.handle_compile_failure(method);
            return None;
        }
        let oracle = InlineOracle::with_mode(Arc::clone(&self.rules), self.config.match_mode);
        let compilation =
            aoci_opt::compile_in_context(self.program, method, &oracle, &self.config.opt, outer);
        let cost = self.config.cost.opt_compile_cost(compilation.generated_size);
        self.charge(Component::CompilationThread, cost);
        let rules = Arc::clone(&self.rules);
        let key = ContextFingerprint::of(outer);
        Some(self.install_compilation(method, compilation, cost, self.ai_generation, &rules, key))
    }

    /// Books and installs a finished compilation: database record, trace
    /// events, registry install, guard-window and failure-streak resets, and
    /// unrealized-rule marking. `generation` and `rules` are the AI state
    /// the compiler ran against — for a background compile that is the
    /// dispatch-time snapshot, not the state current at completion. `key`
    /// is the context fingerprint the version is registered under
    /// ([`ContextFingerprint::ROOT`] outside deoptless mode).
    fn install_compilation(
        &mut self,
        method: MethodId,
        compilation: aoci_opt::Compilation,
        cost: u64,
        generation: u64,
        rules: &RuleSet,
        key: ContextFingerprint,
    ) -> Arc<MethodVersion> {
        self.db.record_compilation(method, &compilation, generation, self.vm.clock().total());
        if self.trace.is_some() {
            for d in &compilation.decisions {
                // The context always starts at the decision's own call site.
                let Some(&site) = d.context.first() else { continue };
                self.emit(TraceEvent::InlineDecision {
                    host: method,
                    site,
                    callee: d.callee,
                    guarded: d.guarded,
                    provenance: d.provenance,
                });
            }
            for r in &compilation.refusals {
                self.emit(TraceEvent::InlineRefusal {
                    host: method,
                    site: r.site,
                    callee: r.callee,
                    reason: r.reason,
                    hot: r.hot,
                    provenance: r.provenance,
                });
            }
            self.emit(TraceEvent::Compile {
                method,
                generated_size: compilation.generated_size,
                inlines: compilation.decisions.len() as u32,
                guarded: compilation.guarded_count() as u32,
                cycles: cost,
            });
        }
        if let Some(sink) = &self.metrics {
            sink.counter_add("compiles_installed", 1);
            sink.counter_add("inline_decisions", compilation.decisions.len() as u64);
            sink.counter_add("inline_decisions_guarded", compilation.guarded_count() as u64);
            for d in &compilation.decisions {
                // DecisionProvenance carries no rule name, so "per rule"
                // resolves to the rule-backed / speculative split.
                sink.counter_add(
                    if d.provenance.rule_fired {
                        "inline_decisions_rule_backed"
                    } else {
                        "inline_decisions_speculative"
                    },
                    1,
                );
                sink.observe("inline_context_depth", u64::from(d.provenance.context_depth));
            }
            sink.counter_add("inline_refusals", compilation.refusals.len() as u64);
            for r in &compilation.refusals {
                sink.counter_add(&format!("inline_refusals_{}", r.reason.slug()), 1);
            }
            sink.observe("compile_cost_cycles", cost);
            sink.observe("compile_generated_size", u64::from(compilation.generated_size));
        }
        let installed = self.vm.registry_mut().install_keyed(compilation.version, key);
        self.emit(TraceEvent::Install { method, version_id: installed.version_id.raw() });
        // A successful install opens a fresh guard-observation window
        // and clears the failure streak.
        self.compile_failures.remove(&method);
        self.guard_window_start.insert(method, self.vm.guard_stats(method));
        self.synthetic_misses.remove(&method);
        // Any rule this compilation was expected to realise but did not
        // is marked unrealized: re-requesting the same compilation under
        // the same rules cannot succeed.
        let mut unrealized: Vec<(CallSiteRef, MethodId)> = Vec::new();
        for rule in rules.iter() {
            let site = rule.trace.immediate_caller();
            let callee = rule.trace.callee();
            let Some(outer) = rule.trace.context().last().map(|c| c.method) else {
                continue;
            };
            if (site.method == method || outer == method)
                && !self.db.has_inlined(method, site, callee)
            {
                unrealized.push((site, callee));
            }
        }
        for (site, callee) in unrealized {
            self.db.mark_unrealized(method, site, callee);
        }
        installed
    }

    /// Handles a hot-loop promotion request from the interpreter: obtain an
    /// optimized version with an OSR entry at the loop's header and transfer
    /// the running baseline activation into it mid-loop. This is the single
    /// OSR dispatch entry point — every resolution (enter installed code,
    /// enter a context-specialized surviving version, compile-and-enter,
    /// deny) is named by the returned [`OsrOutcome`].
    ///
    /// In deoptless mode the dispatch is context-sensitive: the observed
    /// calling context of the requesting activation is fingerprinted and
    /// the registry is queried for the best surviving version specialized
    /// for it (deepest context prefix first), before falling back to the
    /// generic installed version; a fresh compilation is likewise
    /// specialized for (and keyed by) the observed context.
    ///
    /// Any reason the promotion cannot happen — the method is quarantined,
    /// its recompile budget is spent, the compilation faulted, or the
    /// optimized body keeps no entry point at this header (the loop was
    /// folded away) — denies the request; where a future request could
    /// never fare better, further requests are suppressed so the loop stops
    /// paying back-edge bookkeeping. The activation keeps running baseline:
    /// degraded, never wrong.
    pub fn dispatch_osr(&mut self, req: OsrRequest) -> OsrOutcome {
        self.osr.requests += 1;
        let method = req.method;
        self.emit(TraceEvent::OsrRequest { method, loop_header: req.loop_header });
        if self.quarantined.contains(&method) {
            return self.deny_osr(method, OsrDenyReason::Quarantined, true);
        }
        // Deoptless: prefer a surviving version specialized for the calling
        // context this activation actually runs in, deepest prefix first.
        // Depth 0 (the root key) is the generic installed version, which
        // the ordinary path below already handles.
        if self.config.vm.deoptless {
            let context = self.vm.osr_context();
            for depth in (1..=context.len()).rev() {
                let key = VersionKey::new(method, ContextFingerprint::of(&context[..depth]));
                let Some(v) = self.vm.registry().best_surviving(key).cloned() else { continue };
                if self.vm.osr_enter(&v, req.loop_header) {
                    return OsrOutcome::EnteredSpecialized { version: v.version_id };
                }
            }
        }
        // An optimized version may already be installed (this activation
        // simply predates the install): enter it directly, no compilation.
        let current = self.vm.registry().current(method).cloned();
        if let Some(v) = current.filter(|v| v.level == OptLevel::Optimized) {
            if self.vm.osr_enter(&v, req.loop_header) {
                return OsrOutcome::Entered { version: v.version_id };
            }
            // The installed body has no entry at this header; a repeat
            // request against the same version cannot do better.
            return self.deny_osr(method, OsrDenyReason::NoEntryPoint, true);
        }
        if self.db.recompiles(method) >= self.config.max_recompiles_per_method {
            return self.deny_osr(method, OsrDenyReason::Budget, true);
        }
        // Compile on the spot — the requesting loop is burning baseline
        // cycles right now; waiting for the hot-methods organizer only
        // helps the *next* invocation.
        self.charge(Component::ControllerThread, self.config.controller_cost_per_event);
        self.emit(TraceEvent::RecompilePlan { method, reason: PlanReason::OsrPromotion });
        let outer = if self.config.vm.deoptless { self.vm.osr_context() } else { Vec::new() };
        match self.compile_and_install_ctx(method, &outer) {
            Some(v) => {
                // The install satisfies any queued plan for this method —
                // in synchronous mode it can be removed silently. Async
                // plans are left alone: the queue owns their lifecycle, and
                // the pending plan (or in-flight compile) will be dropped
                // as stale (already recompiled) with a traced reason.
                if self.config.async_compile.is_none() && self.queued.remove(&method) {
                    self.compile_queue.retain(|&m| m != method);
                }
                if self.vm.osr_enter(&v, req.loop_header) {
                    OsrOutcome::CompiledAndEntered { version: v.version_id }
                } else {
                    // No entry point survived optimization; the next
                    // invocation still benefits from the install.
                    self.deny_osr(method, OsrDenyReason::NoEntryPoint, true)
                }
            }
            None => {
                // Injected fault; retry/backoff booked by the failure path.
                self.deny_osr(method, OsrDenyReason::CompileFault, false)
            }
        }
    }

    /// Books one OSR denial: counter, trace event and — when a future
    /// request could never fare better — request suppression.
    fn deny_osr(&mut self, method: MethodId, reason: OsrDenyReason, suppress: bool) -> OsrOutcome {
        self.osr.denied += 1;
        self.emit(TraceEvent::OsrDeny { method, reason });
        if suppress {
            self.vm.suppress_osr(method);
        }
        OsrOutcome::Denied(reason)
    }

    // ---- Recovery layer -------------------------------------------------

    /// Counts a rejected profile trace and charges its handling cost.
    fn reject_trace(&mut self) {
        self.recovery.rejected_traces += 1;
        self.charge(Component::Recovery, self.config.recovery.recovery_cost_per_event);
        self.emit(TraceEvent::TraceRejected);
        self.capture_trace_dump();
    }

    /// Applies an injected corruption to a drained trace, if the injector
    /// elects one. Returns the (possibly corrupted) key and weight exactly
    /// as the sanitizer will see them.
    fn maybe_corrupt(&mut self, key: aoci_profile::TraceKey) -> (aoci_profile::TraceKey, f64) {
        let Some(kind) = self.fault.as_mut().and_then(|f| f.corrupt_trace()) else {
            return (key, 1.0);
        };
        self.emit(TraceEvent::FaultInjected { kind: FaultKind::CorruptTrace });
        match kind {
            TraceCorruption::UnknownCallee => {
                let bogus = MethodId::from_index(self.program.num_methods() + 7);
                (TraceKey::new(bogus, key.context().to_vec()), 1.0)
            }
            TraceCorruption::UnknownCallSite => {
                let mut ctx = key.context().to_vec();
                if let Some(first) = ctx.first_mut() {
                    *first = CallSiteRef::new(first.method, SiteIdx(u16::MAX));
                }
                (TraceKey::new(key.callee(), ctx), 1.0)
            }
            TraceCorruption::NanWeight => (key, f64::NAN),
            TraceCorruption::NegativeWeight => (key, -1.0),
        }
    }

    /// Delivers an injected receiver burst: synthetic guard misses against
    /// one deterministically-selected currently-optimized method.
    fn deliver_receiver_burst(&mut self) {
        let Some((misses, selector)) = self.fault.as_mut().and_then(|f| f.receiver_burst())
        else {
            return;
        };
        let mut victims: Vec<MethodId> = self.db.optimized_methods().collect();
        if victims.is_empty() {
            return; // burst fired before anything was optimized: no target
        }
        victims.sort_unstable_by_key(|m| m.index());
        let victim = victims[(selector % victims.len() as u64) as usize];
        *self.synthetic_misses.entry(victim).or_insert(0) += misses;
        self.emit(TraceEvent::FaultInjected { kind: FaultKind::ReceiverBurst });
    }

    /// Scans every currently-optimized method's guard-observation window;
    /// a miss rate above the threshold (over enough checks) invalidates the
    /// optimized version — the method falls back to baseline at its next
    /// invocation, and when [`aoci_vm::VmConfig::osr_enabled`] is set any
    /// in-flight activation of the invalidated version deoptimizes back to
    /// an equivalent baseline frame at its next loop back-edge (OSR-out)
    /// instead of finishing on the stale code.
    ///
    /// Windows *roll*: once a window accumulates enough checks it is judged
    /// and then reset, so a phase shift is detected from the post-shift
    /// window alone rather than being diluted by a long healthy history.
    fn check_guard_health(&mut self) {
        if !self.config.recovery.monitor_guard_health && self.fault.is_none() {
            return;
        }
        let rc = self.config.recovery.clone();
        let mut candidates: Vec<MethodId> = self.db.optimized_methods().collect();
        candidates.sort_unstable_by_key(|m| m.index());
        for m in candidates {
            let stats = self.vm.guard_stats(m);
            let base = self.guard_window_start.get(&m).copied().unwrap_or_default();
            let synth = self.synthetic_misses.get(&m).copied().unwrap_or(0);
            let checks = stats.checks.saturating_sub(base.checks) + synth;
            if checks < rc.guard_miss_min_checks {
                continue;
            }
            let misses = stats.misses.saturating_sub(base.misses) + synth;
            if misses as f64 / checks as f64 > rc.guard_miss_threshold {
                self.invalidate_method(m, &rc);
            } else {
                // Healthy window: start the next one. The recompiled code
                // holds up under the current receiver distribution, so the
                // invalidation streak is over — a later, separate phase
                // shift starts counting from zero rather than compounding
                // toward quarantine.
                self.guard_window_start.insert(m, stats);
                self.synthetic_misses.remove(&m);
                self.invalidation_streaks.remove(&m);
            }
        }
    }

    /// Invalidates `method`'s optimized version (guard thrash): the registry
    /// slot is cleared, the database drops its currently-optimized status
    /// (so the hot-methods organizer may reselect it once the profile has
    /// shifted), and *consecutive* invalidations — without a healthy guard
    /// window in between — quarantine it.
    fn invalidate_method(&mut self, method: MethodId, rc: &RecoveryConfig) {
        if !self.vm.registry_mut().invalidate(method) {
            return; // registry and database out of sync; nothing installed
        }
        self.db.record_invalidation(method);
        self.recovery.invalidations += 1;
        self.charge(Component::Recovery, rc.recovery_cost_per_event);
        self.emit(TraceEvent::Invalidate { method });
        self.capture_trace_dump();
        self.guard_window_start.insert(method, self.vm.guard_stats(method));
        self.synthetic_misses.remove(&method);
        let streak = {
            let s = self.invalidation_streaks.entry(method).or_insert(0);
            *s += 1;
            *s
        };
        if streak >= rc.quarantine_after_failures {
            self.quarantine(method);
        } else if self.db.recompiles(method) < self.config.max_recompiles_per_method {
            // The method was hot enough to compile and is thrashing *now*,
            // so don't wait for the hot organizer to re-notice it: schedule
            // a recompilation after one base backoff — long enough for the
            // post-shift profile to accumulate, short enough to bound the
            // baseline-fallback window. The recompile budget shared with
            // the missing-edge organizer bounds the churn a perpetually
            // phase-flipping method could otherwise generate; past it the
            // method settles at baseline — degraded, stable, correct.
            let due = self.vm.clock().total() + rc.retry_backoff_base_cycles;
            self.emit(TraceEvent::RetryScheduled { method, due_cycle: due });
            self.retry_after.push((due, method));
        }
    }

    /// Books a compile failure of `method`: schedules a retry after
    /// exponential backoff (in simulated cycles, capped), or quarantines the
    /// method once its failure streak reaches the configured limit.
    fn handle_compile_failure(&mut self, method: MethodId) {
        let failures = {
            let streak = self.compile_failures.entry(method).or_insert(0);
            *streak += 1;
            *streak
        };
        let rc = self.config.recovery.clone();
        if failures >= rc.quarantine_after_failures {
            self.quarantine(method);
        } else {
            let backoff = rc
                .retry_backoff_base_cycles
                .saturating_mul(1u64 << (failures - 1).min(20))
                .min(rc.retry_backoff_cap_cycles);
            let due = self.vm.clock().total() + backoff;
            self.retry_after.push((due, method));
            self.recovery.compile_retries += 1;
            self.charge(Component::Recovery, rc.recovery_cost_per_event);
            self.emit(TraceEvent::RetryScheduled { method, due_cycle: due });
            self.capture_trace_dump();
        }
    }

    /// Re-enqueues failed compilations whose backoff deadline has passed.
    fn schedule_due_retries(&mut self) {
        if self.retry_after.is_empty() {
            return;
        }
        let now = self.vm.clock().total();
        let mut due: Vec<MethodId> = Vec::new();
        self.retry_after.retain(|&(deadline, m)| {
            if deadline <= now {
                due.push(m);
                false
            } else {
                true
            }
        });
        for m in due {
            self.controller_enqueue(m, PlanReason::Retry);
        }
    }

    /// Blocks `method` from optimizing compilation for the rest of the run.
    /// Also stops the interpreter raising OSR promotion requests for it —
    /// they could only be denied.
    fn quarantine(&mut self, method: MethodId) {
        if self.quarantined.insert(method) {
            self.recovery.quarantined_methods += 1;
            self.charge(Component::Recovery, self.config.recovery.recovery_cost_per_event);
            self.retry_after.retain(|&(_, m)| m != method);
            self.vm.suppress_osr(method);
            self.emit(TraceEvent::Quarantine { method });
            self.capture_trace_dump();
        }
    }

    fn charge(&mut self, component: Component, cycles: u64) {
        self.vm.clock_mut().charge(component, cycles);
    }

    /// Consumes the system into its report and database. The flight
    /// recorder's ring moves into [`AosReport::trace_log`] rather than being
    /// cloned beside itself, so the VM and the trace listener (which hold
    /// the other sink handles) are dropped first.
    fn into_report(self, result: Option<aoci_vm::Value>) -> (AosReport, AosDatabase) {
        // Close the time series with an end-of-run snapshot, so the final
        // state is visible even when the run ended mid-epoch.
        self.record_metrics_snapshot();
        let mut async_compile = self.async_events;
        // Compiles still on a worker when the program returned: their work
        // is abandoned — nothing is installed and no cycles are charged
        // (the application never waited on them).
        async_compile.abandoned_in_flight +=
            self.in_flight.iter().filter(|slot| slot.is_some()).count() as u64;
        let recovery = self.recovery_events();
        let osr = self.osr_events();
        let AosSystem {
            vm, trace_listener, trace, db, profile, rules, stats, metrics, sample_count, ..
        } = self;
        let registry = vm.registry();
        let mut report = AosReport {
            result,
            clock: vm.clock().clone(),
            optimized_code_size: registry.cumulative_optimized_size(),
            current_optimized_size: registry.current_optimized_size(),
            opt_compilations: registry.opt_compilations(),
            baseline_compilations: registry.baseline_compilations(),
            samples: sample_count,
            traces_recorded: trace_listener.samples_recorded(),
            frames_walked: trace_listener.frames_walked(),
            dcg_entries: profile.len(),
            final_rules: rules.len(),
            trace_stats: stats.report(),
            counters: vm.counters(),
            compilations: db.compilation_log().to_vec(),
            recovery,
            osr,
            async_compile,
            trace_log: None,
            telemetry: metrics.as_ref().map(MetricsSink::log),
        };
        drop((vm, trace_listener));
        report.trace_log = trace.map(TraceSink::into_log);
        (report, db)
    }

    // ---- Introspection (tests, examples) -------------------------------

    /// The profile store (dynamic call graph) in its current state.
    pub fn profile(&self) -> &dyn ProfileStore {
        self.profile.as_ref()
    }

    /// The current inlining rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The AOS database.
    pub fn database(&self) -> &AosDatabase {
        &self.db
    }

    /// The policy engine (including adaptive per-site state).
    pub fn policy(&self) -> &PolicyEngine {
        &self.policy
    }

    /// A snapshot of the flight recorder, when tracing is configured (also
    /// usable mid-run between [`AosSystem::step`]s).
    pub fn trace_log(&self) -> Option<TraceLog> {
        self.trace.as_ref().map(TraceSink::log)
    }

    /// A snapshot of the telemetry registry, when metrics are configured
    /// (also usable mid-run between [`AosSystem::step`]s).
    pub fn metrics_log(&self) -> Option<MetricsLog> {
        self.metrics.as_ref().map(MetricsSink::log)
    }

    /// OSR activity so far: driver-side request/denial counts merged with
    /// the VM's transition and dispatched-transfer counters (also usable
    /// mid-run between [`AosSystem::step`]s).
    pub fn osr_events(&self) -> OsrEvents {
        let counters = self.vm.counters();
        let dispatch = self.vm.osr_dispatch();
        OsrEvents {
            entries: counters.osr_entries,
            exits: counters.osr_exits,
            dispatched_transfers: dispatch.dispatched_transfers,
            falls_no_version: dispatch.falls_no_version,
            falls_incompatible: dispatch.falls_incompatible,
            falls_rearmed: dispatch.falls_rearmed,
            ..self.osr
        }
    }

    /// Background-compilation activity so far (also usable mid-run between
    /// [`AosSystem::step`]s). All zeros when async compilation is off.
    pub fn async_events(&self) -> AsyncCompileEvents {
        self.async_events
    }

    /// Recovery actions taken so far, with the injector's delivered-fault
    /// counters merged in (also usable mid-run between [`AosSystem::step`]s).
    pub fn recovery_events(&self) -> RecoveryEvents {
        let mut ev = self.recovery_counters();
        ev.trace_dump = self.render_trace_dump();
        ev
    }

    /// [`AosSystem::recovery_events`] minus the rendered dump.
    fn recovery_counters(&self) -> RecoveryEvents {
        let mut ev = self.recovery.clone();
        if let Some(f) = &self.fault {
            let inj = f.injected();
            ev.injected_compile_faults = inj.compile_bailouts + inj.oversize_rejections;
            ev.injected_corrupt_traces = inj.corrupted_traces;
            ev.dropped_samples = inj.dropped_samples;
            ev.receiver_bursts = inj.receiver_bursts;
        }
        ev
    }
}

/// The call site through which the sampled frame was entered, if the
/// snapshot exposes a caller: the key the adaptive-resolving policy uses to
/// pick a per-site collection depth.
fn immediate_site(snapshot: &StackSnapshot) -> Option<CallSiteRef> {
    let caller = snapshot.frames.get(1)?;
    Some(CallSiteRef::new(caller.method, caller.callsite_to_inner?))
}

#[cfg(test)]
mod tests;
