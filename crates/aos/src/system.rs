//! The AOS driver: the online feedback loop of paper Figure 3.

use crate::config::{AosConfig, ASYNC_WORKERS, DUMP_LAST_EVENTS};
use crate::database::AosDatabase;
use crate::fault::FaultInjector;
use crate::report::{AosReport, Ledger, OsrEvents, RecoveryEvents, ServerEvents};
use aoci_core::{PolicyEngine, RuleSet};
use aoci_ir::{CallSiteRef, IdHashMap, MethodId, Program};
use aoci_profile::{
    validate_trace, Dcg, MethodListener, TraceKey, TraceListener, TraceStatsCollector,
};
use aoci_telemetry::{MetricsRegistry, EPOCH_SAMPLES};
use aoci_trace::{FaultKind, PlanReason, Recorded, TraceEvent, TraceLog, TraceSink};
use aoci_vm::{Component, MethodGuardStats, RunOutcome, StackSnapshot, Vm, VmError, COMPONENTS};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

/// Everything a finished run yields: the report, the final AOS database,
/// and the trace profile (saveable for offline profile-directed runs).
pub type FullRunResult = Result<(AosReport, AosDatabase, Vec<(TraceKey, f64)>), VmError>;

/// A compilation plan waiting for the compilation thread.
#[derive(Clone, Debug)]
struct PendingPlan {
    method: MethodId,
    reason: PlanReason,
    /// Background scheduler: predicted benefit
    /// ([`aoci_opt::estimate_benefit`]) under the rules current
    /// at enqueue time; higher runs first. The foreground scheduler is FIFO
    /// and leaves its plans unpriced.
    priority: f64,
    /// Staleness baseline: a background plan is dropped at dequeue if the
    /// method was recompiled through another path (e.g. OSR) while it
    /// waited.
    recompiles_at_enqueue: u32,
}

/// `Greater` means `a` dispatches first: higher predicted benefit, ties
/// broken toward the lower method id (so the order is total and
/// deterministic — `total_cmp` keeps even NaN priorities ordered).
fn plan_order(a: &PendingPlan, b: &PendingPlan) -> Ordering {
    a.priority
        .total_cmp(&b.priority)
        .then_with(|| b.method.index().cmp(&a.method.index()))
}

/// Finished compiler work for one method, between [`AosSystem::build`] and
/// [`AosSystem::land`]; how `cost` is charged is the scheduler's business.
#[derive(Debug)]
struct Built {
    method: MethodId,
    /// Installable code, or the injected fault that discarded the work.
    outcome: Result<Box<aoci_opt::Compilation>, FaultKind>,
    cost: u64,
    /// The AI state the compiler ran against: unrealized-rule marking at
    /// install must use the rules the compiler saw, not the (possibly
    /// regenerated) rules current when a background compile completes.
    rules: Arc<RuleSet>,
    generation: u64,
}

/// A compile occupying a simulated worker between dispatch and completion.
/// The work itself is computed at dispatch (the simulation has no real
/// concurrency); only its *effects* — install, cycle charges, failure
/// bookkeeping — wait for the deadline.
#[derive(Debug)]
struct InFlightCompile {
    built: Built,
    worker: u32,
    started_at: u64,
    /// `started_at + built.cost`: the virtual-clock cycle at which the
    /// compile completes.
    deadline: u64,
    /// Staleness baseline for completion revalidation: if the method was
    /// recompiled while this compile ran, the result is stale and dropped.
    recompiles_at_dispatch: u32,
}

/// Driver-side state of one method, at `MethodId::index()` of
/// `AosSystem::methods`.
#[derive(Clone, Debug, Default)]
struct MethodState {
    /// Method-listener samples accumulated so far.
    samples: u32,
    /// The method has a live plan: waiting in the queue or — under the
    /// background scheduler — in flight on a worker.
    queued: bool,
    /// Blocked from optimizing compilation for the rest of the run.
    quarantined: bool,
    /// Guard counters at the start of the current observation window
    /// (reset at install and at invalidation).
    guard_window_start: MethodGuardStats,
    /// Consecutive failed compilations (cleared on success).
    compile_failures: u32,
    /// The cycle at which a failed compilation is retried. Set by a
    /// failure, cleared when the retry is planned, when code installs (a
    /// method that got new code has nothing left to retry) and at
    /// quarantine.
    retry_at: Option<u64>,
    /// Consecutive guard-thrash invalidations (cleared by a healthy
    /// observation window); reaching the quarantine limit blocks the method
    /// instead of letting it cycle invalidate → recompile.
    invalidation_streak: u32,
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
    profile: Dcg,
    rules: Arc<RuleSet>,
    db: AosDatabase,
    /// One entry per method of `program`.
    methods: Vec<MethodState>,
    total_method_samples: u64,
    /// AI-organizer run counter; the generation at which each trace first
    /// became a hot rule gates the missing-edge organizer ("the edge became
    /// hot after the method was last compiled", paper Section 3.2).
    ai_generation: u64,
    first_hot: IdHashMap<TraceKey, u64>,
    /// Plans awaiting the compilation thread. The foreground scheduler pops
    /// them first-in first-out; the background scheduler picks by
    /// [`plan_order`] at each dispatch (kept unsorted; the queue is small
    /// and bounded).
    pending_plans: VecDeque<PendingPlan>,
    /// One slot per simulated background worker, `Some` while occupied.
    in_flight: Vec<Option<InFlightCompile>>,
    sample_count: u64,
    stats: TraceStatsCollector,
    /// Set once the program returns from its entry point.
    finished: Option<Option<aoci_vm::Value>>,
    /// The adversary, when fault injection is configured.
    fault: Option<FaultInjector>,
    /// The recovery, OSR-request, background-compile and compile-server
    /// ledgers: a fold over every event [`AosSystem::emit`] sees.
    ledger: Ledger,
    /// The raw last-[`DUMP_LAST_EVENTS`] recorder events as of the latest recovery
    /// action; [`AosSystem::recovery_events`] renders them into
    /// [`RecoveryEvents::trace_dump`].
    dump_tail: Vec<Recorded>,
    /// The sequence number of `dump_tail[0]`.
    dump_first_seq: u64,
    /// The flight recorder, when tracing is configured; clones of this sink
    /// live in the VM and the trace listener.
    trace: Option<TraceSink>,
    /// The telemetry registry, when metrics are configured. Recording
    /// charges no simulated cycles and reads only simulated-clock state, so
    /// a metered run's report (minus the log itself) is bit-identical to an
    /// unmetered one.
    metrics: Option<MetricsRegistry>,
}

impl<'p> AosSystem<'p> {
    /// Creates a system ready to run `program` under `config`.
    pub fn new(program: &'p Program, config: AosConfig) -> Self {
        let mut vm = Vm::with_config(program, config.cost.clone(), config.vm.clone());
        let trace = config.trace.clone().map(TraceSink::new);
        let mut trace_listener = TraceListener::new();
        if let Some(t) = &trace {
            vm.set_trace_sink(t.clone());
            trace_listener.set_trace_sink(t.clone());
        }
        let workers = if config.async_compile { ASYNC_WORKERS } else { 0 };
        AosSystem {
            program,
            vm,
            policy: PolicyEngine::new(config.policy),
            method_listener: MethodListener::new(),
            trace_listener,
            profile: Dcg::new(config.dcg),
            rules: Arc::new(RuleSet::new()),
            db: AosDatabase::new(),
            methods: vec![MethodState::default(); program.num_methods()],
            total_method_samples: 0,
            ai_generation: 0,
            first_hot: IdHashMap::default(),
            pending_plans: VecDeque::new(),
            in_flight: std::iter::repeat_with(|| None).take(workers).collect(),
            sample_count: 0,
            stats: TraceStatsCollector::new(),
            finished: None,
            fault: config.fault.clone().map(FaultInjector::new),
            ledger: Ledger::default(),
            dump_tail: Vec::new(),
            dump_first_seq: 0,
            trace,
            metrics: config.metrics.then(MetricsRegistry::new),
            config,
        }
    }

    /// The driver's one instrumentation call (DESIGN.md §8): folds `event`
    /// into the ledger, records it when tracing is on, and after a recovery
    /// action or a VM fault copies the recorder's tail as the post-mortem
    /// dump. Charges no cycles: traced runs equal untraced ones.
    fn emit(&mut self, event: TraceEvent) {
        let dump = self.ledger.observe(&event);
        let Some(t) = &self.trace else { return };
        t.emit(self.vm.clock().total(), event);
        if dump {
            self.dump_first_seq = t.copy_tail(DUMP_LAST_EVENTS, &mut self.dump_tail);
        }
    }

    /// Seeds the profile store with trace data gathered elsewhere — a
    /// training run's [`AosSystem::run_full`] profile, or a fleet's
    /// [`aoci_profile::merge_profiles`] result — emulating the classic
    /// offline profile-directed pipeline the paper's related work
    /// describes. Rules form at the first AI-organizer tick, so hot methods
    /// compile with good inlining decisions immediately instead of after a
    /// warm-up.
    ///
    /// Entries pass the same sanitization as online traces: malformed ones
    /// (unknown methods or sites, non-finite or non-positive weights) are
    /// rejected and counted in [`RecoveryEvents::rejected_traces`], so a
    /// corrupted profile degrades the warm-up instead of crashing the run.
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
    /// (the full inline-decision log and the refused set) and the final
    /// trace profile, which [`AosSystem::seed_profile`] accepts as a later
    /// run's starting profile (see the `offline_profile` example).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the program raises.
    pub fn run_full(mut self) -> FullRunResult {
        let result = self.run_to_completion()?;
        let profile = self.profile.iter().map(|(k, w)| (k.clone(), w)).collect();
        let (report, db) = self.into_report(result);
        Ok((report, db, profile))
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
                // The run is about to abort: record the fault (which attaches
                // the last-N dump to the recovery ledger) and surface the
                // recorder's tail on stderr — the post-mortem the flight
                // recorder exists for.
                self.emit(TraceEvent::VmFault { message: e.to_string().into() });
                for line in self.recovery_events().trace_dump {
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
            // Even `u64::MAX` cycles are a budget; spending it is not the
            // end of the program.
            RunOutcome::BudgetExhausted => Ok(true),
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
        if self.metrics.is_some() && self.sample_count.is_multiple_of(EPOCH_SAMPLES) {
            self.record_metrics_snapshot();
        }
    }

    /// Freezes one telemetry time-series snapshot: samples every cumulative
    /// counter and instantaneous gauge from authoritative AOS/VM state at
    /// the current simulated-clock instant. No-op when metrics are off;
    /// charges no simulated cycles when on.
    fn record_metrics_snapshot(&mut self) {
        // Out of `self` while the rest of it is read.
        let Some(mut sink) = self.metrics.take() else { return };
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
        let recovery = &self.ledger.recovery;
        sink.counter_set("recovery_invalidations", recovery.invalidations);
        sink.counter_set("recovery_compile_retries", recovery.compile_retries);
        sink.counter_set("recovery_rejected_traces", recovery.rejected_traces);
        sink.counter_set("recovery_injected_compile_faults", recovery.injected_compile_faults);
        sink.counter_set("recovery_injected_corrupt_traces", recovery.injected_corrupt_traces);
        sink.counter_set("recovery_dropped_samples", recovery.dropped_samples);
        sink.counter_set("recovery_receiver_bursts", recovery.receiver_bursts);
        let async_ev = &self.ledger.async_compile;
        sink.counter_set("async_enqueued", async_ev.enqueued);
        sink.counter_set("async_dispatched", async_ev.dispatched);
        sink.counter_set("async_completed", async_ev.completed);
        sink.counter_set("async_stale_drops", async_ev.stale_drops);
        sink.counter_set("async_queue_full_drops", async_ev.queue_full_drops);
        sink.counter_set("async_overlap_cycles", async_ev.background_overlap_cycles);
        sink.counter_set("async_stall_cycles", async_ev.foreground_stall_cycles);
        // Like the event-driven counters, these appear with the first hit
        // or miss.
        let ServerEvents { hits, misses, .. } = self.ledger.server;
        for (name, n) in [("compile_server_hits", hits), ("compile_server_misses", misses)] {
            if n > 0 {
                sink.counter_set(name, n);
            }
        }
        let clock = self.vm.clock();
        sink.counter_set("cycles_total", clock.total());
        for c in COMPONENTS {
            sink.counter_set(c.metric_name(), clock.component(c));
        }
        let registry = self.vm.registry();
        sink.gauge_set("compile_queue_depth", self.pending_plans.len() as u64);
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
        sink.gauge_set("quarantined_methods", recovery.quarantined_methods);
        let retry_backlog = self.methods.iter().filter(|m| m.retry_at.is_some()).count();
        sink.gauge_set("retry_backlog", retry_backlog as u64);
        sink.snapshot(self.sample_count, clock.total());
        self.metrics = Some(sink);
    }

    fn charge(&mut self, component: Component, cycles: u64) {
        self.vm.clock_mut().charge(component, cycles);
    }

    /// Consumes the system into its report and database. The flight
    /// recorder's ring moves into [`AosReport::trace_log`] rather than being
    /// cloned beside itself, so the VM and the trace listener (which hold
    /// the other sink handles) are dropped first.
    fn into_report(mut self, result: Option<aoci_vm::Value>) -> (AosReport, AosDatabase) {
        // Close the time series with an end-of-run snapshot, so the final
        // state is visible even when the run ended mid-epoch; it reads the
        // ledger, which moves into the report below.
        self.record_metrics_snapshot();
        // Compiles still on a worker when the program returned count as
        // abandoned: nothing is installed and no cycles are charged (the
        // application never waited on them).
        let async_compile = self.ledger.async_compile;
        let recovery = self.recovery_events();
        let osr = self.osr_events();
        let AosSystem {
            vm, trace_listener, trace, db, profile, rules, stats, metrics, sample_count, ledger, ..
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
            compile_server: ledger.server,
            trace_log: None,
            telemetry: metrics.map(MetricsRegistry::into_log),
        };
        drop((vm, trace_listener));
        report.trace_log = trace.map(TraceSink::into_log);
        (report, db)
    }

    // ---- Introspection (tests, examples) -------------------------------

    /// The dynamic call graph in its current state.
    pub fn profile(&self) -> &Dcg {
        &self.profile
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

    /// OSR activity so far: the ledger's request/denial counts merged with
    /// the VM's promotion counter (also usable mid-run between
    /// [`AosSystem::step`]s).
    pub fn osr_events(&self) -> OsrEvents {
        OsrEvents { entries: self.vm.counters().osr_entries, ..self.ledger.osr }
    }

    /// Recovery actions taken and faults injected so far, with the rendered
    /// post-mortem dump (also usable mid-run between [`AosSystem::step`]s).
    pub fn recovery_events(&self) -> RecoveryEvents {
        let resolve = |m: MethodId| self.program.method(m).name().to_string();
        let numbered = (self.dump_first_seq..).zip(&self.dump_tail);
        let trace_dump = numbered.map(|(seq, r)| r.dump_line(seq, &resolve)).collect();
        RecoveryEvents { trace_dump, ..self.ledger.recovery.clone() }
    }
}

/// The call site through which the sampled frame was entered, if the
/// snapshot exposes a caller: the key the adaptive-resolving policy uses to
/// pick a per-site collection depth.
fn immediate_site(snapshot: &StackSnapshot) -> Option<CallSiteRef> {
    let caller = snapshot.frames.get(1)?;
    Some(CallSiteRef::new(caller.method, caller.callsite_to_inner?))
}

mod compile;
mod organizers;
mod osr;
mod recovery;
#[cfg(test)]
mod tests;
