//! OSR promotion requests: the one dispatch entry point (DESIGN.md §7).

use super::AosSystem;
use aoci_ir::MethodId;
use aoci_trace::{OsrDenyReason, PlanReason, TraceEvent};
use aoci_vm::{Component, OptLevel, OsrRequest};

impl AosSystem<'_> {
    /// Handles a hot-loop promotion request from the interpreter: obtain an
    /// optimized version with an OSR entry at the loop's header and transfer
    /// the running baseline activation into it mid-loop. This is the single
    /// OSR dispatch entry point — every resolution (enter existing code,
    /// compile-and-enter, deny) goes through it.
    ///
    /// The activation enters the method's installed optimized version
    /// ([`aoci_vm::Vm::osr_enter`]).
    ///
    /// Any reason the promotion cannot happen — the method is quarantined,
    /// its recompile budget is spent, the compilation faulted, or the
    /// optimized body keeps no entry point at this header (the loop was
    /// folded away) — denies the request; where a future request could
    /// never fare better, further requests are suppressed so the loop stops
    /// paying back-edge bookkeeping. The activation keeps running baseline:
    /// degraded, never wrong.
    pub(super) fn dispatch_osr(&mut self, req: OsrRequest) {
        let method = req.method;
        self.emit(TraceEvent::OsrRequest { method, loop_header: req.loop_header });
        if self.methods[method.index()].quarantined {
            return self.deny_osr(method, OsrDenyReason::Quarantined, true);
        }
        if self.vm.osr_enter(req.loop_header) {
            return;
        }
        if self.vm.registry().current(method).is_some_and(|v| v.level == OptLevel::Optimized) {
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
        if self.compile_foreground(method).is_none() {
            // Injected fault; retry/backoff booked by the failure path.
            return self.deny_osr(method, OsrDenyReason::CompileFault, false);
        }
        // The install satisfies any queued plan for this method — under the
        // foreground scheduler it can be removed silently. Background plans
        // are left alone: the queue owns their lifecycle, and the pending
        // plan (or in-flight compile) will be dropped as stale (already
        // recompiled) with a traced reason.
        if !self.config.async_compile && std::mem::take(&mut self.methods[method.index()].queued) {
            self.pending_plans.retain(|plan| plan.method != method);
        }
        if !self.vm.osr_enter(req.loop_header) {
            // No entry point survived optimization; the next invocation
            // still benefits from the install.
            self.deny_osr(method, OsrDenyReason::NoEntryPoint, true);
        }
    }

    /// Books one OSR denial: its event and — when a future request could
    /// never fare better — request suppression.
    fn deny_osr(&mut self, method: MethodId, reason: OsrDenyReason, suppress: bool) {
        self.emit(TraceEvent::OsrDeny { method, reason });
        if suppress {
            self.vm.suppress_osr(method);
        }
    }
}
