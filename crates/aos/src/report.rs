//! The end-of-run report: everything the evaluation harness needs to
//! reproduce the paper's Figures 4–6 and summary statistics, plus hand-
//! written `aoci-json` conversions for persisting a report.

use crate::database::CompilationRecord;
use aoci_ir::MethodId;
use aoci_json::Value as Json;
use aoci_profile::TraceStatsReport;
use aoci_telemetry::MetricsLog;
use aoci_trace::{FaultKind, TraceEvent, TraceLog};
use aoci_vm::{Clock, Component, ExecCounters, Value, COMPONENTS};

/// Everything the recovery layer did during a run — the degradation story
/// of a faulted execution. All zeros (and an empty dump) in an unfaulted,
/// healthy run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryEvents {
    /// Optimized versions invalidated for guard thrash (the method fell
    /// back to baseline at its next invocation).
    pub invalidations: u64,
    /// Compile retries scheduled after failed compilations, one
    /// `retry-scheduled` event each (an invalidation's recompile is planned
    /// at once, not retried: the invalidation is the action).
    pub compile_retries: u64,
    /// Methods quarantined (blocked from optimizing compilation) after
    /// repeated failures or invalidations.
    pub quarantined_methods: u64,
    /// Profile traces rejected by sanitization at the store boundary.
    pub rejected_traces: u64,
    /// Injected compile-thread faults (bailouts + oversize rejections).
    pub injected_compile_faults: u64,
    /// Injected corrupt traces handed to the sanitizer.
    pub injected_corrupt_traces: u64,
    /// Timer samples lost to injected sampler dropout.
    pub dropped_samples: u64,
    /// Adversarial receiver bursts fired, whether or not a method with a
    /// guarded inline was there to take the misses.
    pub receiver_bursts: u64,
    /// When flight-recorder tracing is on: the rendered last-N events as of
    /// the most recent recovery action — the automatic post-mortem context
    /// for "why did the system degrade here?". Empty when tracing is off or
    /// no recovery action fired.
    pub trace_dump: Vec<String>,
}

impl RecoveryEvents {
    /// Total recovery actions taken (the system *reacting*, as opposed to
    /// the injected-fault counters which record the adversary acting).
    pub fn total_actions(&self) -> u64 {
        self.invalidations + self.compile_retries + self.quarantined_methods + self.rejected_traces
    }

    /// Serializes to an `aoci-json` object (every counter plus the dump).
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("invalidations".to_string(), Json::from(self.invalidations)),
            ("compile_retries".to_string(), Json::from(self.compile_retries)),
            ("quarantined_methods".to_string(), Json::from(self.quarantined_methods)),
            ("rejected_traces".to_string(), Json::from(self.rejected_traces)),
            ("injected_compile_faults".to_string(), Json::from(self.injected_compile_faults)),
            ("injected_corrupt_traces".to_string(), Json::from(self.injected_corrupt_traces)),
            ("dropped_samples".to_string(), Json::from(self.dropped_samples)),
            ("receiver_bursts".to_string(), Json::from(self.receiver_bursts)),
            (
                "trace_dump".to_string(),
                Json::Arr(self.trace_dump.iter().map(|s| Json::from(s.as_str())).collect()),
            ),
        ])
    }
}

/// On-stack-replacement activity of a run: what the VM asked for, what the
/// driver granted, and the promotions actually performed. All zeros when
/// OSR is disabled (the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OsrEvents {
    /// Promotion requests the VM raised (hot baseline loops).
    pub requests: u64,
    /// Requests the driver declined (quarantined method, recompile budget
    /// exhausted, or no usable OSR entry point).
    pub denied: u64,
    /// OSR-in transitions performed: baseline activations promoted into
    /// optimized code mid-loop.
    pub entries: u64,
}

impl OsrEvents {
    /// Serializes to an `aoci-json` object.
    pub fn to_value(&self) -> Json {
        Json::obj(vec![
            ("requests".to_string(), Json::from(self.requests)),
            ("denied".to_string(), Json::from(self.denied)),
            ("entries".to_string(), Json::from(self.entries)),
        ])
    }
}

/// Background-compilation activity of a run: queue traffic, staleness
/// drops, backpressure, and the overlap/stall split of compile cycles. All
/// zeros when asynchronous compilation is disabled (the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncCompileEvents {
    /// Plans accepted into the priority queue.
    pub enqueued: u64,
    /// Plans handed to a worker (includes compiles that later faulted).
    pub dispatched: u64,
    /// Compiles that landed: ran to completion and were installed, or
    /// booked as a failure. A result dropped as stale did not land.
    pub completed: u64,
    /// Plans dropped because the world moved on: at dequeue (quarantined,
    /// already recompiled, or no longer hot) or, for a compile that ran,
    /// at completion (quarantined or already recompiled meanwhile).
    pub stale_drops: u64,
    /// Plans dropped (incoming or evicted) because the bounded queue was
    /// full — the backpressure counter.
    pub queue_full_drops: u64,
    /// Compiles still in flight when the program finished; their work is
    /// abandoned, not installed.
    pub abandoned_in_flight: u64,
    /// High-water mark of the pending queue.
    pub max_queue_depth: u64,
    /// Compile cycles that overlapped application execution (the win from
    /// going asynchronous: the app ran baseline or stale code meanwhile).
    pub background_overlap_cycles: u64,
    /// Compile cycles the application had to wait out — the unoverlapped
    /// remainder, charged to the compilation thread as in synchronous mode.
    pub foreground_stall_cycles: u64,
}

impl AsyncCompileEvents {
    /// Serializes to an `aoci-json` object.
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("enqueued".to_string(), Json::from(self.enqueued)),
            ("dispatched".to_string(), Json::from(self.dispatched)),
            ("completed".to_string(), Json::from(self.completed)),
            ("stale_drops".to_string(), Json::from(self.stale_drops)),
            ("queue_full_drops".to_string(), Json::from(self.queue_full_drops)),
            ("abandoned_in_flight".to_string(), Json::from(self.abandoned_in_flight)),
            ("max_queue_depth".to_string(), Json::from(self.max_queue_depth)),
            ("background_overlap_cycles".to_string(), Json::from(self.background_overlap_cycles)),
            ("foreground_stall_cycles".to_string(), Json::from(self.foreground_stall_cycles)),
        ])
    }
}

/// Compile-server traffic of a run: what the replica's snapshot lookups
/// found. All zeros (and empty) unless
/// [`AosConfig::compile_server`](crate::AosConfig::compile_server) is set.
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

impl ServerEvents {
    /// Serializes the two counters to an `aoci-json` object; the method
    /// lists are the fleet driver's, not the report's.
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("hits".to_string(), Json::from(self.hits)),
            ("misses".to_string(), Json::from(self.misses)),
        ])
    }
}

/// The driver's ledgers as one fold over its event stream: every event
/// `AosSystem::emit` sees passes through [`Ledger::observe`], and the
/// recovery, OSR-request, background-compile and compile-server counters
/// are its running totals. The driver reads the fields; only `observe`
/// writes them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger {
    /// Never carries the dump: the driver renders it at read time.
    pub(crate) recovery: RecoveryEvents,
    /// Only `requests` and `denied`; the transitions are the VM's counters.
    pub(crate) osr: OsrEvents,
    /// `abandoned_in_flight` counts compiles started and not yet finished.
    pub(crate) async_compile: AsyncCompileEvents,
    pub(crate) server: ServerEvents,
}

impl Ledger {
    /// Folds `event` in. Returns `true` for the events that call for a
    /// post-mortem dump: a VM fault, and every event that moves
    /// [`RecoveryEvents::total_actions`] — a recovery action.
    pub(crate) fn observe(&mut self, event: &TraceEvent) -> bool {
        use FaultKind::*;
        use TraceEvent as E;
        let actions = self.recovery.total_actions();
        let (rec, osr, queue, server) =
            (&mut self.recovery, &mut self.osr, &mut self.async_compile, &mut self.server);
        match event {
            E::Invalidate { .. } => rec.invalidations += 1,
            E::Quarantine { .. } => rec.quarantined_methods += 1,
            E::TraceRejected => rec.rejected_traces += 1,
            E::RetryScheduled { .. } => rec.compile_retries += 1,
            E::FaultInjected { kind: CompileBailout | CompileOversize } => {
                rec.injected_compile_faults += 1;
            }
            E::FaultInjected { kind: CorruptTrace } => rec.injected_corrupt_traces += 1,
            E::FaultInjected { kind: DroppedSample } => rec.dropped_samples += 1,
            E::FaultInjected { kind: ReceiverBurst } => rec.receiver_bursts += 1,
            E::VmFault { .. } => return true,
            E::OsrRequest { .. } => osr.requests += 1,
            E::OsrDeny { .. } => osr.denied += 1,
            E::CompileEnqueue { queue_depth, .. } => {
                queue.enqueued += 1;
                queue.max_queue_depth = queue.max_queue_depth.max(u64::from(*queue_depth));
            }
            E::CompileStart { .. } => {
                queue.dispatched += 1;
                queue.abandoned_in_flight += 1;
            }
            E::CompileFinish { landed, cycles, .. } => {
                queue.abandoned_in_flight -= 1;
                queue.completed += u64::from(*landed);
                queue.background_overlap_cycles += cycles.overlap_cycles;
                queue.foreground_stall_cycles += cycles.stall_cycles;
            }
            E::CompileDequeueStale { .. } => queue.stale_drops += 1,
            E::CompileQueueFull { .. } => queue.queue_full_drops += 1,
            E::ServerLookup { method, hit } => {
                let (count, firsts) = if *hit {
                    (&mut server.hits, &mut server.hit_methods)
                } else {
                    (&mut server.misses, &mut server.requests)
                };
                *count += 1;
                if !firsts.contains(method) {
                    firsts.push(*method);
                }
            }
            // Steps of the pipeline no ledger counts.
            E::SampleTick { .. } | E::HotMethod { .. } | E::RecompilePlan { .. } => {}
            E::InlineDecision { .. } | E::InlineRefusal { .. } => {}
            E::Compile { .. } | E::Install { .. } => {}
            // Emitted by the VM and the trace listener straight into the
            // ring, never through the driver: their counters (`ExecCounters`,
            // the listener's) sit on the interpreter's hot path or inside
            // `Vm::run`.
            E::TraceWalk { .. } | E::GuardMiss { .. } => {}
            E::OsrEnter { .. } => {}
        }
        self.recovery.total_actions() > actions
    }
}

/// Metrics of one complete AOS run.
#[derive(Clone, Debug)]
pub struct AosReport {
    /// The program's return value.
    pub result: Option<Value>,
    /// Full per-component cycle breakdown (Figure 6 source data).
    pub clock: Clock,
    /// Cumulative abstract size of all optimized code generated (Figure 5
    /// metric).
    pub optimized_code_size: u64,
    /// Abstract size of the currently-installed optimized versions.
    pub current_optimized_size: u64,
    /// Optimizing compilations performed.
    pub opt_compilations: u32,
    /// Baseline compilations performed (= methods dynamically compiled).
    pub baseline_compilations: u32,
    /// Timer samples taken.
    pub samples: u64,
    /// Trace samples recorded (prologue samples with a caller).
    pub traces_recorded: u64,
    /// Total stack frames walked by the trace listener.
    pub frames_walked: u64,
    /// Distinct traces in the final DCG.
    pub dcg_entries: usize,
    /// Inlining rules active at the end of the run.
    pub final_rules: usize,
    /// Section 4 trace-walk statistics.
    pub trace_stats: TraceStatsReport,
    /// Dynamic execution counters (guards, dispatches).
    pub counters: ExecCounters,
    /// Every optimizing compilation performed, in order.
    pub compilations: Vec<CompilationRecord>,
    /// What the recovery layer did (invalidations, retries, quarantines,
    /// rejected traces) and what the fault injector delivered.
    pub recovery: RecoveryEvents,
    /// On-stack-replacement activity (requests, grants, transitions).
    pub osr: OsrEvents,
    /// Background-compilation activity (queue traffic, staleness drops,
    /// overlap/stall accounting).
    pub async_compile: AsyncCompileEvents,
    /// Compile-server lookups (hits, misses and the request outbox).
    pub compile_server: ServerEvents,
    /// The flight recorder's final log, when tracing was on. Excluded from
    /// [`AosReport::to_value`] — events are exported through their own
    /// sinks (Chrome trace, rendered lines), not the metrics JSON.
    pub trace_log: Option<TraceLog>,
    /// The telemetry registry's final log (time series + histograms), when
    /// metrics were on. Excluded from [`AosReport::to_value`] — snapshots
    /// are exported through their own sinks (JSONL, Prometheus text,
    /// dashboards), keeping the primary report bytes identical on/off.
    pub telemetry: Option<MetricsLog>,
}

impl AosReport {
    /// Total simulated cycles — the wall-clock analogue for speedup
    /// computations (includes application, compilation and AOS overhead, as
    /// wall-clock time does).
    pub fn total_cycles(&self) -> u64 {
        self.clock.total()
    }

    /// Cycles spent in the optimizing compilation thread.
    pub fn compile_cycles(&self) -> u64 {
        self.clock.component(Component::CompilationThread)
    }

    /// Fraction of execution spent in a component (a Figure 6 bar segment).
    pub fn fraction(&self, c: Component) -> f64 {
        self.clock.fraction(c)
    }

    /// Total AOS overhead cycles (all non-application components except
    /// baseline compilation).
    pub fn aos_overhead(&self) -> u64 {
        self.clock.aos_overhead()
    }

    /// Guard-miss rate (misses / checks), 0 when no guards executed.
    pub fn guard_miss_rate(&self) -> f64 {
        if self.counters.guard_checks == 0 {
            0.0
        } else {
            self.counters.guard_misses as f64 / self.counters.guard_checks as f64
        }
    }

    /// Flight-recorder summary, when tracing was on: `(emitted, dropped,
    /// distinct kinds retained)`.
    pub fn trace_summary(&self) -> Option<(u64, u64, usize)> {
        let log = self.trace_log.as_ref()?;
        Some((log.emitted, log.dropped, log.kinds().len()))
    }

    /// Serializes the report to an `aoci-json` object.
    ///
    /// A [`Value::Ref`] result keeps only its kind (a heap reference has no
    /// meaning outside its run); [`AosReport::trace_log`] and
    /// [`AosReport::telemetry`] are exported through their own sinks.
    /// `compile_server` is written only when a lookup happened, so a run
    /// without a compile server keeps the bytes it had before one existed.
    pub fn to_value(&self) -> Json {
        let result = match &self.result {
            None => Json::Null,
            Some(Value::Null) => Json::obj([("kind".to_string(), Json::from("null"))]),
            Some(Value::Int(i)) => Json::obj([
                ("kind".to_string(), Json::from("int")),
                ("value".to_string(), Json::from(*i)),
            ]),
            Some(Value::Ref(_)) => Json::obj([("kind".to_string(), Json::from("ref"))]),
        };
        let clock = Json::obj(
            COMPONENTS
                .iter()
                .map(|&c| (c.to_string(), Json::from(self.clock.component(c)))),
        );
        let counters = Json::obj([
            ("calls".to_string(), Json::from(self.counters.calls)),
            ("virtual_dispatches".to_string(), Json::from(self.counters.virtual_dispatches)),
            ("guard_checks".to_string(), Json::from(self.counters.guard_checks)),
            ("guard_misses".to_string(), Json::from(self.counters.guard_misses)),
            ("osr_entries".to_string(), Json::from(self.counters.osr_entries)),
        ]);
        let stats = Json::obj([
            ("samples".to_string(), Json::from(self.trace_stats.samples)),
            (
                "immediately_parameterless".to_string(),
                Json::from(self.trace_stats.immediately_parameterless),
            ),
            (
                "parameterless_within_5".to_string(),
                Json::from(self.trace_stats.parameterless_within_5),
            ),
            (
                "class_method_within_2".to_string(),
                Json::from(self.trace_stats.class_method_within_2),
            ),
            (
                "large_at_or_beyond_4".to_string(),
                Json::from(self.trace_stats.large_at_or_beyond_4),
            ),
        ]);
        let compilations = Json::Arr(
            self.compilations
                .iter()
                .map(|c| {
                    Json::obj([
                        ("method".to_string(), Json::from(c.method.index() as u64)),
                        ("generated_size".to_string(), Json::from(c.generated_size)),
                        ("inlines".to_string(), Json::from(c.inlines)),
                        ("guarded".to_string(), Json::from(c.guarded)),
                        ("cycle".to_string(), Json::from(c.cycle)),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("result".to_string(), result),
            ("clock".to_string(), clock),
            ("optimized_code_size".to_string(), Json::from(self.optimized_code_size)),
            ("current_optimized_size".to_string(), Json::from(self.current_optimized_size)),
            ("opt_compilations".to_string(), Json::from(self.opt_compilations)),
            ("baseline_compilations".to_string(), Json::from(self.baseline_compilations)),
            ("samples".to_string(), Json::from(self.samples)),
            ("traces_recorded".to_string(), Json::from(self.traces_recorded)),
            ("frames_walked".to_string(), Json::from(self.frames_walked)),
            ("dcg_entries".to_string(), Json::from(self.dcg_entries as u64)),
            ("final_rules".to_string(), Json::from(self.final_rules as u64)),
            ("trace_stats".to_string(), stats),
            ("counters".to_string(), counters),
            ("compilations".to_string(), compilations),
            ("recovery".to_string(), self.recovery.to_value()),
            ("osr".to_string(), self.osr.to_value()),
            ("async_compile".to_string(), self.async_compile.to_value()),
        ];
        let server = &self.compile_server;
        if server.hits + server.misses > 0 {
            fields.push(("compile_server".to_string(), server.to_value()));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_report() -> AosReport {
        let mut clock = Clock::new();
        clock.charge(Component::AppOptimized, 900);
        clock.charge(Component::CompilationThread, 100);
        clock.charge(Component::Recovery, 40);
        clock.charge(Component::Osr, 25);
        AosReport {
            result: Some(Value::Int(-42)),
            clock,
            optimized_code_size: 310,
            current_optimized_size: 180,
            opt_compilations: 3,
            baseline_compilations: 7,
            samples: 55,
            traces_recorded: 31,
            frames_walked: 96,
            dcg_entries: 12,
            final_rules: 4,
            trace_stats: TraceStatsReport {
                samples: 31,
                immediately_parameterless: 0.25,
                parameterless_within_5: 0.75,
                class_method_within_2: 0.5,
                large_at_or_beyond_4: 0.125,
            },
            counters: ExecCounters {
                calls: 1000,
                virtual_dispatches: 400,
                guard_checks: 64,
                guard_misses: 9,
                osr_entries: 2,
                osr_exits: 0,
            },
            compilations: vec![
                CompilationRecord {
                    method: MethodId::from_index(4),
                    generated_size: 120,
                    inlines: 3,
                    guarded: 1,
                    cycle: 10_500,
                },
                CompilationRecord {
                    method: MethodId::from_index(9),
                    generated_size: 60,
                    inlines: 0,
                    guarded: 0,
                    cycle: 42_000,
                },
            ],
            recovery: RecoveryEvents {
                invalidations: 2,
                compile_retries: 3,
                quarantined_methods: 1,
                rejected_traces: 4,
                injected_compile_faults: 5,
                injected_corrupt_traces: 6,
                dropped_samples: 7,
                receiver_bursts: 8,
                trace_dump: vec![
                    "#10 @900 invalidate method=\"hot\"".to_string(),
                    "#11 @940 quarantine method=\"hot\"".to_string(),
                ],
            },
            osr: OsrEvents {
                requests: 17,
                denied: 5,
                entries: 9,
            },
            async_compile: AsyncCompileEvents {
                enqueued: 11,
                dispatched: 9,
                completed: 8,
                stale_drops: 2,
                queue_full_drops: 1,
                abandoned_in_flight: 3,
                max_queue_depth: 5,
                background_overlap_cycles: 700,
                foreground_stall_cycles: 300,
            },
            compile_server: ServerEvents {
                hits: 13,
                misses: 14,
                requests: vec![MethodId::from_index(9)],
                hit_methods: vec![MethodId::from_index(4)],
            },
            trace_log: None,
            telemetry: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let mut r = populated_report();
        r.recovery = RecoveryEvents::default();
        r.osr = OsrEvents::default();
        assert_eq!(r.total_cycles(), 1065);
        assert_eq!(r.compile_cycles(), 100);
        assert!((r.fraction(Component::CompilationThread) - 100.0 / 1065.0).abs() < 1e-12);
        assert!((r.guard_miss_rate() - 9.0 / 64.0).abs() < 1e-12);
        assert_eq!(r.aos_overhead(), 165);
        assert_eq!(r.trace_summary(), None);
    }

    #[test]
    fn recovery_actions_exclude_injected_counters_and_dump() {
        let ev = RecoveryEvents {
            invalidations: 1,
            compile_retries: 2,
            quarantined_methods: 3,
            rejected_traces: 4,
            injected_compile_faults: 100,
            injected_corrupt_traces: 200,
            dropped_samples: 300,
            receiver_bursts: 400,
            trace_dump: vec!["#0 @1 sample-tick".to_string(); 32],
        };
        assert_eq!(ev.total_actions(), 10, "dump lines are context, not actions");
    }

    #[test]
    fn recovery_defaults_are_empty() {
        let ev = RecoveryEvents::default();
        assert_eq!(ev.total_actions(), 0);
        assert!(ev.trace_dump.is_empty());
    }

    #[test]
    fn osr_events_serialization_is_stable_when_dispatch_counters_are_zero() {
        // The OSR object carries exactly its three counters.
        let ev = OsrEvents { requests: 9, denied: 3, entries: 2 };
        let text = aoci_json::to_string_pretty(&ev.to_value());
        assert_eq!(text, "{\n  \"denied\": 3,\n  \"entries\": 2,\n  \"requests\": 9\n}");
    }

    #[test]
    fn a_zero_server_ledger_writes_no_key() {
        // Every report of a run without a compile server keeps its bytes.
        let report = AosReport { compile_server: ServerEvents::default(), ..populated_report() };
        let text = aoci_json::to_string_pretty(&report.to_value());
        assert!(!text.contains("compile_server"), "unexpected new key in {text}");
    }

    /// Every field, written under its name: the values of one object are
    /// pairwise distinct, so no two can trade places unnoticed.
    #[test]
    fn to_value_is_the_committed_text() {
        let text = aoci_json::to_string_pretty(&populated_report().to_value());
        assert_eq!(text, EXPECTED_TEXT);
    }

    const EXPECTED_TEXT: &str = r##"{
  "async_compile": {
    "abandoned_in_flight": 3,
    "background_overlap_cycles": 700,
    "completed": 8,
    "dispatched": 9,
    "enqueued": 11,
    "foreground_stall_cycles": 300,
    "max_queue_depth": 5,
    "queue_full_drops": 1,
    "stale_drops": 2
  },
  "baseline_compilations": 7,
  "clock": {
    "AIOrganizer": 0,
    "AOS Listeners": 0,
    "App(baseline)": 0,
    "App(optimized)": 900,
    "BaselineCompilation": 0,
    "CompilationThread": 100,
    "ControllerThread": 0,
    "DecayOrganizer": 0,
    "MethodSampleOrganizer": 0,
    "MissingEdgeOrganizer": 0,
    "OSR": 25,
    "Recovery": 40
  },
  "compilations": [
    {
      "cycle": 10500,
      "generated_size": 120,
      "guarded": 1,
      "inlines": 3,
      "method": 4
    },
    {
      "cycle": 42000,
      "generated_size": 60,
      "guarded": 0,
      "inlines": 0,
      "method": 9
    }
  ],
  "compile_server": {
    "hits": 13,
    "misses": 14
  },
  "counters": {
    "calls": 1000,
    "guard_checks": 64,
    "guard_misses": 9,
    "osr_entries": 2,
    "virtual_dispatches": 400
  },
  "current_optimized_size": 180,
  "dcg_entries": 12,
  "final_rules": 4,
  "frames_walked": 96,
  "opt_compilations": 3,
  "optimized_code_size": 310,
  "osr": {
    "denied": 5,
    "entries": 9,
    "requests": 17
  },
  "recovery": {
    "compile_retries": 3,
    "dropped_samples": 7,
    "injected_compile_faults": 5,
    "injected_corrupt_traces": 6,
    "invalidations": 2,
    "quarantined_methods": 1,
    "receiver_bursts": 8,
    "rejected_traces": 4,
    "trace_dump": [
      "#10 @900 invalidate method=\"hot\"",
      "#11 @940 quarantine method=\"hot\""
    ]
  },
  "result": {
    "kind": "int",
    "value": -42
  },
  "samples": 55,
  "trace_stats": {
    "class_method_within_2": 0.5,
    "immediately_parameterless": 0.25,
    "large_at_or_beyond_4": 0.125,
    "parameterless_within_5": 0.75,
    "samples": 31
  },
  "traces_recorded": 31
}"##;
}
