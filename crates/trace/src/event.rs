//! The typed event vocabulary of the flight recorder.

use aoci_ir::{CallSiteRef, MethodId};
use aoci_json::Value;
use std::fmt::Write as _;

/// Resolves a [`MethodId`] to a human-readable name (the trace crate has no
/// access to the program; the embedding layer passes a closure over it).
pub type Resolve<'a> = &'a dyn Fn(MethodId) -> String;

/// First Chrome `tid` used for per-worker compile lanes: worker `k` renders
/// in lane `WORKER_LANE_BASE + k`, above the six fixed category lanes.
pub(crate) const WORKER_LANE_BASE: u32 = 10;

/// Why the controller created a recompilation plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanReason {
    /// The hot-methods organizer promoted the method past the sample
    /// threshold.
    HotMethod,
    /// The missing-edge organizer found a hot, uninlined, unrefused rule
    /// realizable by recompiling this host.
    MissingEdge,
    /// A failed compilation's backoff deadline expired.
    Retry,
    /// A hot baseline loop requested on-stack promotion.
    OsrPromotion,
}

impl PlanReason {
    /// Short stable label (used by both sinks).
    pub fn label(self) -> &'static str {
        match self {
            PlanReason::HotMethod => "hot-method",
            PlanReason::MissingEdge => "missing-edge",
            PlanReason::Retry => "retry",
            PlanReason::OsrPromotion => "osr-promotion",
        }
    }
}

/// Why a queued background-compilation plan was judged stale and dropped
/// (at dequeue, or — for an in-flight compile — at completion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleReason {
    /// The method was quarantined while the plan waited.
    Quarantined,
    /// The method was recompiled through another path (e.g. an on-the-spot
    /// OSR promotion) while the plan waited or the compile ran.
    Recompiled,
    /// The method no longer satisfies the hot-method criterion that
    /// motivated the plan.
    NoLongerHot,
}

impl StaleReason {
    /// Short stable label (used by both sinks).
    pub fn label(self) -> &'static str {
        match self {
            StaleReason::Quarantined => "quarantined",
            StaleReason::Recompiled => "already-recompiled",
            StaleReason::NoLongerHot => "no-longer-hot",
        }
    }
}

/// Why the driver denied an OSR promotion request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsrDenyReason {
    /// The method is quarantined from optimizing compilation.
    Quarantined,
    /// The method's recompile budget is exhausted.
    Budget,
    /// The optimized body keeps no OSR entry point at the requested loop
    /// header.
    NoEntryPoint,
    /// The on-the-spot compilation faulted (injected failure).
    CompileFault,
}

impl OsrDenyReason {
    /// Short stable label (used by both sinks).
    pub fn label(self) -> &'static str {
        match self {
            OsrDenyReason::Quarantined => "quarantined",
            OsrDenyReason::Budget => "recompile-budget",
            OsrDenyReason::NoEntryPoint => "no-entry-point",
            OsrDenyReason::CompileFault => "compile-fault",
        }
    }
}

/// The injected-fault kinds the adversary can deliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A compilation aborted partway through.
    CompileBailout,
    /// A compilation completed but was rejected as oversized.
    CompileOversize,
    /// A drained profile trace was corrupted before sanitization.
    CorruptTrace,
    /// A timer sample's payload was lost before the listeners.
    DroppedSample,
    /// A burst of synthetic guard misses against an optimized method.
    ReceiverBurst,
}

impl FaultKind {
    /// Short stable label (used by both sinks).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CompileBailout => "compile-bailout",
            FaultKind::CompileOversize => "compile-oversize",
            FaultKind::CorruptTrace => "corrupt-trace",
            FaultKind::DroppedSample => "dropped-sample",
            FaultKind::ReceiverBurst => "receiver-burst",
        }
    }
}

/// What a scheduled recompilation follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryCause {
    /// A failed compilation; the retry is itself a recovery action.
    CompileFailure,
    /// A guard-thrash invalidation, which was the recovery action.
    Invalidation,
}

impl RetryCause {
    /// Short stable label (used by both sinks).
    pub fn label(self) -> &'static str {
        match self {
            RetryCause::CompileFailure => "compile-failure",
            RetryCause::Invalidation => "invalidation",
        }
    }
}

/// Why the optimizing compiler declined to inline a callee at a call site
/// (decided by `aoci-opt`, which re-exports this type; it lives here, like
/// [`DecisionProvenance`], so the event carries it in one byte).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RefusalReason {
    /// The callee's size class is large — never inlined.
    TooLarge,
    /// The soft (or hard) inlining-depth budget was exhausted.
    DepthExceeded,
    /// The code-expansion budget was exhausted (or register space ran out).
    ExpansionExceeded,
    /// The callee is already on the current inline chain.
    Recursive,
    /// A medium-sized callee without profile support (medium methods are
    /// candidates for profile-directed inlining only).
    NotHot,
    /// A hot guarded-inline candidate skipped because the per-site guard
    /// limit was reached.
    GuardLimit,
    /// The callee's calls could take the compiled body's argument pool past
    /// the registers an `ArgSpan` can name.
    ArgPoolFull,
}

impl RefusalReason {
    /// A stable `snake_case` identifier for metric names (the suffix of
    /// [`RefusalReason::metric_name`]).
    pub fn slug(self) -> &'static str {
        match self {
            RefusalReason::TooLarge => "too_large",
            RefusalReason::DepthExceeded => "depth_exceeded",
            RefusalReason::ExpansionExceeded => "expansion_exceeded",
            RefusalReason::Recursive => "recursive",
            RefusalReason::NotHot => "not_hot",
            RefusalReason::GuardLimit => "guard_limit",
            RefusalReason::ArgPoolFull => "arg_pool_full",
        }
    }

    /// The telemetry counter of refusals for this reason:
    /// `inline_refusals_<slug>`, spelled out so that recording it allocates
    /// nothing.
    pub fn metric_name(self) -> &'static str {
        match self {
            RefusalReason::TooLarge => "inline_refusals_too_large",
            RefusalReason::DepthExceeded => "inline_refusals_depth_exceeded",
            RefusalReason::ExpansionExceeded => "inline_refusals_expansion_exceeded",
            RefusalReason::Recursive => "inline_refusals_recursive",
            RefusalReason::NotHot => "inline_refusals_not_hot",
            RefusalReason::GuardLimit => "inline_refusals_guard_limit",
            RefusalReason::ArgPoolFull => "inline_refusals_arg_pool_full",
        }
    }

    /// The human-readable reason, as [`std::fmt::Display`] renders it.
    pub fn as_str(self) -> &'static str {
        match self {
            RefusalReason::TooLarge => "callee too large",
            RefusalReason::DepthExceeded => "inline depth exceeded",
            RefusalReason::ExpansionExceeded => "code expansion exceeded",
            RefusalReason::Recursive => "recursive inline",
            RefusalReason::NotHot => "medium callee without profile support",
            RefusalReason::GuardLimit => "per-site guarded-inline limit reached",
            RefusalReason::ArgPoolFull => "argument pool full",
        }
    }
}

impl std::fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The facts the inliner weighed at one call-site decision — the
/// provenance attached to every inline decision and refusal, recorded by
/// `aoci-opt` and carried into the flight recorder unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecisionProvenance {
    /// Whether a profile-derived inlining rule supported this edge in the
    /// compilation context presented to the oracle.
    pub rule_fired: bool,
    /// Aggregate profile weight backing the prediction (0 when no rule
    /// fired).
    pub predicted_benefit: f64,
    /// Inline depth at the decision point (0 = a call site in the root
    /// body).
    pub context_depth: u32,
    /// Abstract code size already emitted when the decision was taken.
    pub size_before: u32,
    /// The hard code-expansion budget the compilation ran under.
    pub size_budget: u32,
}

/// Where an inlining decision or refusal was taken, and the facts the
/// inliner weighed there: the one boxed payload of
/// [`TraceEvent::InlineDecision`] and [`TraceEvent::InlineRefusal`].
#[derive(Clone, Debug, PartialEq)]
pub struct InlineFacts {
    /// The method whose compilation made the decision.
    pub host: MethodId,
    /// The source-level call site.
    pub site: CallSiteRef,
    /// The callee inlined, or not.
    pub callee: MethodId,
    /// Why: the inputs the inliner weighed.
    pub provenance: DecisionProvenance,
}

/// What one optimizing compilation produced: the boxed payload of
/// [`TraceEvent::Compile`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompileStats {
    /// Abstract size of the generated code.
    pub generated_size: u32,
    /// Inlinings performed.
    pub inlines: u32,
    /// Of which guarded.
    pub guarded: u32,
    /// Simulated cycles charged to the compilation thread.
    pub cycles: u64,
}

/// How a background compile's cost split against application execution:
/// the boxed payload of [`TraceEvent::CompileFinish`].
#[derive(Clone, Debug, PartialEq)]
pub struct FinishCycles {
    /// Compile cycles that overlapped application execution (charged
    /// nowhere: the app kept running).
    pub overlap_cycles: u64,
    /// Compile cycles the application had to stall for (charged to the
    /// compilation thread).
    pub stall_cycles: u64,
}

/// One flight-recorder event. Every variant is timestamped by the ring
/// buffer with the simulated-cycle clock at emission.
///
/// An event is 24 bytes. A ring of thousands of samples and guard misses
/// pays for the widest variant in every slot, so the variants that would
/// be wider keep their payload behind one box (`VmFault` its message as a
/// `Box<str>`).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A timer sample was taken (`dropped` when injected sampler dropout
    /// discarded its payload before the listeners).
    SampleTick {
        /// Running sample count (1-based).
        tick: u64,
        /// The sampled (machine-level) root method.
        method: MethodId,
        /// Whether the sample landed in a method prologue.
        in_prologue: bool,
        /// Whether the payload was lost to injected sampler dropout.
        dropped: bool,
    },
    /// The trace listener recorded a context-sensitive call trace.
    TraceWalk {
        /// The sampled callee the trace starts from.
        callee: MethodId,
        /// Stack frames walked (callee + caller levels collected).
        depth: u32,
    },
    /// A method crossed the hotness threshold in the hot-methods organizer.
    HotMethod {
        /// The newly hot method.
        method: MethodId,
        /// Its accumulated method-listener samples.
        samples: u32,
    },
    /// The controller created a recompilation plan.
    RecompilePlan {
        /// The method to be (re)compiled.
        method: MethodId,
        /// Which organizer/path requested it.
        reason: PlanReason,
    },
    /// The optimizing compiler inlined a callee.
    InlineDecision {
        /// Whether a method-test guard protects the inlined body.
        guarded: bool,
        /// Host, site, callee and provenance.
        facts: Box<InlineFacts>,
    },
    /// The optimizing compiler declined an inlining opportunity.
    InlineRefusal {
        /// Why `aoci-opt` declined.
        reason: RefusalReason,
        /// Whether the profile supported inlining this edge.
        hot: bool,
        /// Host, site, callee and provenance.
        facts: Box<InlineFacts>,
    },
    /// An optimizing compilation completed.
    Compile {
        /// The compiled method.
        method: MethodId,
        /// Its size, inlinings and cost.
        stats: Box<CompileStats>,
    },
    /// An optimized version was installed in the code registry.
    Install {
        /// The method whose slot was filled.
        method: MethodId,
        /// The registry-assigned version id.
        version_id: u32,
    },
    /// An optimized version was invalidated for guard thrash.
    Invalidate {
        /// The method falling back to baseline.
        method: MethodId,
    },
    /// A method was quarantined from optimizing compilation.
    Quarantine {
        /// The blocked method.
        method: MethodId,
    },
    /// A recompilation was scheduled to run after a backoff.
    RetryScheduled {
        /// The method awaiting retry.
        method: MethodId,
        /// The simulated cycle at which the retry becomes due.
        due_cycle: u64,
        /// What the recompilation follows: a failed compilation or an
        /// invalidation.
        cause: RetryCause,
    },
    /// A profile trace was rejected by sanitization at the store boundary.
    TraceRejected,
    /// An inline guard missed into its fallback path.
    GuardMiss {
        /// The compiled host method executing the guard.
        method: MethodId,
        /// The pc of the guard in the optimized body.
        pc: u32,
    },
    /// A hot baseline loop requested on-stack promotion.
    OsrRequest {
        /// The method whose activation is hot.
        method: MethodId,
        /// The loop header (source pc) the activation is parked on.
        loop_header: u32,
    },
    /// The driver denied an OSR promotion request.
    OsrDeny {
        /// The method whose request was denied.
        method: MethodId,
        /// Why.
        reason: OsrDenyReason,
    },
    /// OSR-in: a baseline activation was promoted into optimized code.
    OsrEnter {
        /// The promoted method.
        method: MethodId,
        /// The loop header the transfer happened at.
        loop_header: u32,
    },
    /// The controller inserted a plan into the background priority queue.
    CompileEnqueue {
        /// The method to be (re)compiled.
        method: MethodId,
        /// Which organizer/path requested it.
        reason: PlanReason,
        /// The predicted-benefit priority assigned at enqueue.
        priority: f64,
        /// Queue depth after insertion.
        queue_depth: u32,
    },
    /// A queued plan (or in-flight compile) was judged stale and dropped.
    CompileDequeueStale {
        /// The method whose plan was dropped.
        method: MethodId,
        /// Why the plan no longer applies.
        reason: StaleReason,
    },
    /// The bounded queue was full: the lowest-priority plan was dropped.
    CompileQueueFull {
        /// The method whose plan was dropped.
        method: MethodId,
        /// `true` when a resident plan was evicted in favour of a
        /// higher-priority arrival; `false` when the arrival itself was
        /// dropped.
        evicted: bool,
    },
    /// The driver looked a method up in the compile server's snapshot
    /// before compiling it (fleet serving only).
    ServerLookup {
        /// The method the controller wants optimized.
        method: MethodId,
        /// `true` when the snapshot held a version to install; `false`
        /// when the method compiles locally and joins the request outbox.
        hit: bool,
    },
    /// A background worker started executing a compilation plan.
    CompileStart {
        /// The method being compiled.
        method: MethodId,
        /// The simulated worker lane executing the plan.
        worker: u32,
        /// Compile-cycle cost the plan will take on the virtual clock.
        cost: u64,
    },
    /// A background worker finished a compilation plan.
    CompileFinish {
        /// The compiled method.
        method: MethodId,
        /// The simulated worker lane that executed the plan.
        worker: u32,
        /// `false` when the result was dropped as stale (a
        /// `dequeue-stale-drop` follows); a failed compile still lands, as
        /// a booked failure.
        landed: bool,
        /// The cost's split into overlap and stall.
        cycles: Box<FinishCycles>,
    },
    /// The fault injector delivered a fault.
    FaultInjected {
        /// What was injected.
        kind: FaultKind,
    },
    /// The VM raised an execution fault (the run is about to abort).
    VmFault {
        /// The rendered `VmError`.
        message: Box<str>,
    },
}

impl TraceEvent {
    /// Stable event-type name (the Chrome `name` field; also the first
    /// token of the rendered line).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SampleTick { .. } => "sample-tick",
            TraceEvent::TraceWalk { .. } => "trace-walk",
            TraceEvent::HotMethod { .. } => "hot-method",
            TraceEvent::RecompilePlan { .. } => "recompile-plan",
            TraceEvent::InlineDecision { .. } => "inline-decision",
            TraceEvent::InlineRefusal { .. } => "inline-refusal",
            TraceEvent::Compile { .. } => "compile",
            TraceEvent::Install { .. } => "install",
            TraceEvent::Invalidate { .. } => "invalidate",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::RetryScheduled { .. } => "retry-scheduled",
            TraceEvent::TraceRejected => "trace-rejected",
            TraceEvent::GuardMiss { .. } => "guard-miss",
            TraceEvent::OsrRequest { .. } => "osr-request",
            TraceEvent::OsrDeny { .. } => "osr-deny",
            TraceEvent::OsrEnter { .. } => "osr-enter",
            TraceEvent::CompileEnqueue { .. } => "compile-enqueue",
            TraceEvent::CompileDequeueStale { .. } => "dequeue-stale-drop",
            TraceEvent::CompileQueueFull { .. } => "queue-full-drop",
            TraceEvent::ServerLookup { .. } => "server-lookup",
            TraceEvent::CompileStart { .. } => "compile-start",
            TraceEvent::CompileFinish { .. } => "compile-finish",
            TraceEvent::FaultInjected { .. } => "fault-injected",
            TraceEvent::VmFault { .. } => "vm-fault",
        }
    }

    /// The emitting layer (the Chrome `cat` field and lane name).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::SampleTick { .. } | TraceEvent::TraceWalk { .. } => "profile",
            TraceEvent::HotMethod { .. }
            | TraceEvent::RecompilePlan { .. }
            | TraceEvent::CompileEnqueue { .. }
            | TraceEvent::CompileDequeueStale { .. }
            | TraceEvent::CompileQueueFull { .. } => "controller",
            TraceEvent::InlineDecision { .. }
            | TraceEvent::InlineRefusal { .. }
            | TraceEvent::Compile { .. }
            | TraceEvent::Install { .. }
            | TraceEvent::ServerLookup { .. }
            | TraceEvent::CompileStart { .. }
            | TraceEvent::CompileFinish { .. } => "compiler",
            TraceEvent::GuardMiss { .. } | TraceEvent::VmFault { .. } => "vm",
            TraceEvent::OsrRequest { .. }
            | TraceEvent::OsrDeny { .. }
            | TraceEvent::OsrEnter { .. } => "osr",
            TraceEvent::Invalidate { .. }
            | TraceEvent::Quarantine { .. }
            | TraceEvent::RetryScheduled { .. }
            | TraceEvent::TraceRejected
            | TraceEvent::FaultInjected { .. } => "recovery",
        }
    }

    /// The Chrome lane (`tid`) of this event's category. Lanes and their
    /// metadata names are listed in [`crate::recorder::TraceLog::to_chrome_value`].
    /// Worker start/finish events get one lane *per simulated compile
    /// worker* (tid `10 + worker`), so overlapping background compiles
    /// render side by side instead of stacking.
    pub(crate) fn tid(&self) -> u32 {
        if let TraceEvent::CompileStart { worker, .. } | TraceEvent::CompileFinish { worker, .. } =
            self
        {
            return WORKER_LANE_BASE + worker;
        }
        match self.category() {
            "profile" => 1,
            "controller" => 2,
            "compiler" => 3,
            "vm" => 4,
            "osr" => 5,
            _ => 6, // recovery
        }
    }

    /// The event's payload as deterministic key/value pairs — the Chrome
    /// `args` object, and the `key=value` tokens of the rendered line.
    pub fn args(&self, resolve: Resolve) -> Vec<(&'static str, Value)> {
        fn m(resolve: Resolve, id: MethodId) -> Value {
            Value::from(resolve(id))
        }
        fn prov(p: &DecisionProvenance) -> Vec<(&'static str, Value)> {
            vec![
                ("rule_fired", Value::Bool(p.rule_fired)),
                ("predicted_benefit", Value::from(p.predicted_benefit)),
                ("context_depth", Value::from(p.context_depth)),
                ("size_before", Value::from(p.size_before)),
                ("size_budget", Value::from(p.size_budget)),
            ]
        }
        match self {
            TraceEvent::SampleTick { tick, method, in_prologue, dropped } => vec![
                ("tick", Value::from(*tick)),
                ("method", m(resolve, *method)),
                ("in_prologue", Value::Bool(*in_prologue)),
                ("dropped", Value::Bool(*dropped)),
            ],
            TraceEvent::TraceWalk { callee, depth } => vec![
                ("callee", m(resolve, *callee)),
                ("depth", Value::from(*depth)),
            ],
            TraceEvent::HotMethod { method, samples } => vec![
                ("method", m(resolve, *method)),
                ("samples", Value::from(*samples)),
            ],
            TraceEvent::RecompilePlan { method, reason } => vec![
                ("method", m(resolve, *method)),
                ("reason", Value::from(reason.label())),
            ],
            TraceEvent::InlineDecision { guarded, facts } => {
                let mut v = vec![
                    ("host", m(resolve, facts.host)),
                    ("site", Value::from(facts.site.to_string())),
                    ("callee", m(resolve, facts.callee)),
                    ("inlined", Value::Bool(true)),
                    ("guarded", Value::Bool(*guarded)),
                ];
                v.extend(prov(&facts.provenance));
                v
            }
            TraceEvent::InlineRefusal { reason, hot, facts } => {
                let mut v = vec![
                    ("host", m(resolve, facts.host)),
                    ("site", Value::from(facts.site.to_string())),
                    ("callee", m(resolve, facts.callee)),
                    ("inlined", Value::Bool(false)),
                    ("reason", Value::from(reason.as_str())),
                    ("hot", Value::Bool(*hot)),
                ];
                v.extend(prov(&facts.provenance));
                v
            }
            TraceEvent::Compile { method, stats } => vec![
                ("method", m(resolve, *method)),
                ("generated_size", Value::from(stats.generated_size)),
                ("inlines", Value::from(stats.inlines)),
                ("guarded", Value::from(stats.guarded)),
                ("cycles", Value::from(stats.cycles)),
            ],
            TraceEvent::Install { method, version_id } => vec![
                ("method", m(resolve, *method)),
                ("version_id", Value::from(*version_id)),
            ],
            TraceEvent::Invalidate { method } => vec![("method", m(resolve, *method))],
            TraceEvent::Quarantine { method } => vec![("method", m(resolve, *method))],
            TraceEvent::RetryScheduled { method, due_cycle, cause } => vec![
                ("method", m(resolve, *method)),
                ("due_cycle", Value::from(*due_cycle)),
                ("cause", Value::from(cause.label())),
            ],
            TraceEvent::TraceRejected => vec![],
            TraceEvent::GuardMiss { method, pc } => vec![
                ("method", m(resolve, *method)),
                ("pc", Value::from(*pc)),
            ],
            TraceEvent::OsrRequest { method, loop_header } => vec![
                ("method", m(resolve, *method)),
                ("loop_header", Value::from(*loop_header)),
            ],
            TraceEvent::OsrDeny { method, reason } => vec![
                ("method", m(resolve, *method)),
                ("reason", Value::from(reason.label())),
            ],
            TraceEvent::OsrEnter { method, loop_header } => vec![
                ("method", m(resolve, *method)),
                ("loop_header", Value::from(*loop_header)),
            ],
            TraceEvent::CompileEnqueue { method, reason, priority, queue_depth } => vec![
                ("method", m(resolve, *method)),
                ("reason", Value::from(reason.label())),
                ("priority", Value::from(*priority)),
                ("queue_depth", Value::from(*queue_depth)),
            ],
            TraceEvent::CompileDequeueStale { method, reason } => vec![
                ("method", m(resolve, *method)),
                ("reason", Value::from(reason.label())),
            ],
            TraceEvent::CompileQueueFull { method, evicted } => vec![
                ("method", m(resolve, *method)),
                ("evicted", Value::Bool(*evicted)),
            ],
            TraceEvent::ServerLookup { method, hit } => {
                vec![("method", m(resolve, *method)), ("hit", Value::Bool(*hit))]
            }
            TraceEvent::CompileStart { method, worker, cost } => vec![
                ("method", m(resolve, *method)),
                ("worker", Value::from(*worker)),
                ("cost", Value::from(*cost)),
            ],
            TraceEvent::CompileFinish { method, worker, landed, cycles } => vec![
                ("method", m(resolve, *method)),
                ("worker", Value::from(*worker)),
                ("overlap_cycles", Value::from(cycles.overlap_cycles)),
                ("stall_cycles", Value::from(cycles.stall_cycles)),
                ("landed", Value::Bool(*landed)),
            ],
            TraceEvent::FaultInjected { kind } => vec![("kind", Value::from(kind.label()))],
            TraceEvent::VmFault { message } => vec![("message", Value::from(&**message))],
        }
    }

    /// Renders the event as one deterministic human-readable line:
    /// `kind key=value key=value …`.
    pub fn render(&self, resolve: Resolve) -> String {
        let mut line = self.kind().to_string();
        for (key, value) in self.args(resolve) {
            let _ = write!(line, " {key}={}", aoci_json::to_string(&value));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::SiteIdx;

    fn resolve(m: MethodId) -> String {
        format!("M{}", m.index())
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        let facts = Box::new(InlineFacts {
            host: MethodId::from_index(1),
            site: CallSiteRef::new(MethodId::from_index(0), SiteIdx(1)),
            callee: MethodId::from_index(2),
            provenance: DecisionProvenance::default(),
        });
        let events = [
            TraceEvent::SampleTick {
                tick: 1,
                method: MethodId::from_index(0),
                in_prologue: true,
                dropped: false,
            },
            TraceEvent::TraceWalk { callee: MethodId::from_index(1), depth: 2 },
            TraceEvent::HotMethod { method: MethodId::from_index(1), samples: 3 },
            TraceEvent::RecompilePlan {
                method: MethodId::from_index(1),
                reason: PlanReason::HotMethod,
            },
            TraceEvent::InlineDecision { guarded: true, facts: facts.clone() },
            TraceEvent::InlineRefusal { reason: RefusalReason::TooLarge, hot: true, facts },
            TraceEvent::Compile {
                method: MethodId::from_index(1),
                stats: Box::new(CompileStats {
                    generated_size: 10,
                    inlines: 1,
                    guarded: 0,
                    cycles: 99,
                }),
            },
            TraceEvent::Install { method: MethodId::from_index(1), version_id: 7 },
            TraceEvent::GuardMiss { method: MethodId::from_index(1), pc: 5 },
            TraceEvent::OsrEnter { method: MethodId::from_index(1), loop_header: 0 },
            TraceEvent::RetryScheduled {
                method: MethodId::from_index(1),
                due_cycle: 500,
                cause: RetryCause::Invalidation,
            },
            TraceEvent::FaultInjected { kind: FaultKind::CorruptTrace },
            TraceEvent::VmFault { message: "boom".into() },
            TraceEvent::CompileEnqueue {
                method: MethodId::from_index(1),
                reason: PlanReason::HotMethod,
                priority: 12.5,
                queue_depth: 2,
            },
            TraceEvent::CompileDequeueStale {
                method: MethodId::from_index(1),
                reason: StaleReason::NoLongerHot,
            },
            TraceEvent::CompileQueueFull { method: MethodId::from_index(2), evicted: false },
            TraceEvent::ServerLookup { method: MethodId::from_index(3), hit: true },
            TraceEvent::CompileStart { method: MethodId::from_index(1), worker: 0, cost: 400 },
            TraceEvent::CompileFinish {
                method: MethodId::from_index(1),
                worker: 0,
                landed: true,
                cycles: Box::new(FinishCycles { overlap_cycles: 300, stall_cycles: 100 }),
            },
        ];
        let kinds: std::collections::BTreeSet<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len(), "kind strings must be distinct");
        assert!(kinds.contains("inline-decision"));
        assert!(kinds.contains("sample-tick"));
    }

    #[test]
    fn render_carries_provenance() {
        let e = TraceEvent::InlineDecision {
            guarded: false,
            facts: Box::new(InlineFacts {
                host: MethodId::from_index(4),
                site: CallSiteRef::new(MethodId::from_index(4), SiteIdx(3)),
                callee: MethodId::from_index(9),
                provenance: DecisionProvenance {
                    rule_fired: true,
                    predicted_benefit: 2.5,
                    context_depth: 1,
                    size_before: 120,
                    size_budget: 960,
                },
            }),
        };
        let line = e.render(&resolve);
        assert!(line.starts_with("inline-decision "), "{line}");
        assert!(line.contains("host=\"M4\""), "{line}");
        assert!(line.contains("rule_fired=true"), "{line}");
        assert!(line.contains("size_budget=960"), "{line}");
    }

    #[test]
    fn the_stream_fixes_render_as_tokens() {
        let method = MethodId::from_index(3);
        let retry = TraceEvent::RetryScheduled {
            method,
            due_cycle: 900,
            cause: RetryCause::CompileFailure,
        };
        assert_eq!(
            retry.render(&resolve),
            "retry-scheduled method=\"M3\" due_cycle=900 cause=\"compile-failure\""
        );
        let finish = TraceEvent::CompileFinish {
            method,
            worker: 1,
            landed: false,
            cycles: Box::new(FinishCycles { overlap_cycles: 40, stall_cycles: 0 }),
        };
        assert!(finish.render(&resolve).ends_with(" landed=false"), "{}", finish.render(&resolve));
    }

    #[test]
    fn render_is_deterministic() {
        let e = TraceEvent::Compile {
            method: MethodId::from_index(2),
            stats: Box::new(CompileStats {
                generated_size: 64,
                inlines: 3,
                guarded: 1,
                cycles: 1234,
            }),
        };
        assert_eq!(e.render(&resolve), e.render(&resolve));
    }

    #[test]
    fn refusal_metric_names_are_the_prefix_and_the_slug() {
        use RefusalReason::*;
        let all = [TooLarge, DepthExceeded, ExpansionExceeded, Recursive, NotHot, GuardLimit, ArgPoolFull];
        for r in all {
            assert_eq!(r.metric_name(), format!("inline_refusals_{}", r.slug()));
        }
    }
}
