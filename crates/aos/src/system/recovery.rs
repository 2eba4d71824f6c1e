//! The recovery layer: trace sanitization, injected faults, guard-health
//! invalidation and its immediate recompile, compile retry/backoff and
//! quarantine (DESIGN.md §6).

use super::AosSystem;
use crate::config::{
    GUARD_MISS_MIN_CHECKS, GUARD_MISS_THRESHOLD, QUARANTINE_AFTER_FAILURES,
    RECOVERY_COST_PER_EVENT, RETRY_BACKOFF_BASE_CYCLES, RETRY_BACKOFF_CAP_CYCLES,
};
use crate::fault::TraceCorruption;
use aoci_ir::{CallSiteRef, MethodId, SiteIdx};
use aoci_profile::TraceKey;
use aoci_trace::{FaultKind, PlanReason, TraceEvent};
use aoci_vm::Component;

impl AosSystem<'_> {
    /// Books a rejected profile trace and charges its handling cost.
    pub(super) fn reject_trace(&mut self) {
        self.charge(Component::Recovery, RECOVERY_COST_PER_EVENT);
        self.emit(TraceEvent::TraceRejected);
    }

    /// Applies an injected corruption to a drained trace, if the injector
    /// elects one. Returns the (possibly corrupted) key and weight exactly
    /// as the sanitizer will see them.
    pub(super) fn maybe_corrupt(&mut self, key: aoci_profile::TraceKey) -> (aoci_profile::TraceKey, f64) {
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

    /// Delivers an injected receiver burst: forces the next guards of one
    /// deterministically-selected method whose current optimized version
    /// holds a guarded inline to miss ([`Vm::force_guard_misses`]) — code
    /// without a guard has none to flood. A forced miss takes the virtual
    /// fallback, so the application pays for it, and the monitor counts it
    /// like any other miss once the guard has run. The burst is an injected
    /// fault as soon as it fires, victim or not.
    ///
    /// [`Vm::force_guard_misses`]: aoci_vm::Vm::force_guard_misses
    pub(super) fn deliver_receiver_burst(&mut self) {
        let Some((misses, selector)) = self.fault.as_mut().and_then(|f| f.receiver_burst())
        else {
            return;
        };
        self.emit(TraceEvent::FaultInjected { kind: FaultKind::ReceiverBurst });
        // In index order, which is what `selector` picks from.
        let victims: Vec<MethodId> = self.db.guarded_methods().collect();
        if victims.is_empty() {
            return; // no guarded code installed yet: no target
        }
        let victim = victims[(selector % victims.len() as u64) as usize];
        self.vm.force_guard_misses(victim, misses);
    }

    /// Scans the guard-observation window of every method whose current
    /// optimized version holds a guarded inline; a miss rate above the
    /// threshold (over enough checks) invalidates that version — the method
    /// falls back to baseline at its next invocation, while any in-flight
    /// activation of the invalidated version finishes on it, OSR or not. A
    /// version without a guarded inline is never judged: it runs no guard,
    /// so it cannot thrash one. The window reads the method's guard
    /// counters, not the version's, so a stale activation's misses still
    /// count against a next version that keeps a guarded inline. A miss a
    /// burst forced is a miss: only guards that ran are judged, so a method
    /// whose guards run fewer than the window's checks is never judged.
    ///
    /// Windows *roll*: once a window accumulates enough checks it is judged
    /// and then reset, so a phase shift is detected from the post-shift
    /// window alone rather than being diluted by a long healthy history.
    pub(super) fn check_guard_health(&mut self) {
        if !self.config.monitor_guard_health && self.fault.is_none() {
            return;
        }
        // In index order; an invalidation only ever touches its own method.
        for m in (0..self.methods.len()).map(MethodId::from_index) {
            if !self.db.is_guarded(m) {
                continue;
            }
            let stats = self.vm.guard_stats(m);
            let state = &mut self.methods[m.index()];
            let checks = stats.checks - state.guard_window_start.checks;
            if checks < GUARD_MISS_MIN_CHECKS {
                continue;
            }
            let misses = stats.misses - state.guard_window_start.misses;
            if misses as f64 / checks as f64 > GUARD_MISS_THRESHOLD {
                self.invalidate_method(m);
            } else {
                // Healthy window: start the next one. The recompiled code
                // holds up under the current receiver distribution, so the
                // invalidation streak is over — a later, separate phase
                // shift starts counting from zero rather than compounding
                // toward quarantine.
                state.guard_window_start = stats;
                state.invalidation_streak = 0;
            }
        }
    }

    /// Invalidates `method`'s optimized version (guard thrash): the VM drops
    /// the version and any forced misses aimed at it, the database drops its
    /// currently-optimized status and adds the version's guarded inlines to
    /// the thrashed set — so the recompile planned here and every later
    /// compilation leave those speculations out — and *consecutive*
    /// invalidations, without a healthy guard window in between, quarantine
    /// it.
    fn invalidate_method(&mut self, method: MethodId) {
        if !self.vm.invalidate(method) {
            return; // registry and database out of sync; nothing installed
        }
        self.db.record_invalidation(method);
        self.charge(Component::Recovery, RECOVERY_COST_PER_EVENT);
        self.emit(TraceEvent::Invalidate { method });
        let guard_stats = self.vm.guard_stats(method);
        let state = &mut self.methods[method.index()];
        state.guard_window_start = guard_stats;
        state.invalidation_streak += 1;
        if state.invalidation_streak >= QUARANTINE_AFTER_FAILURES {
            self.quarantine(method);
        } else if self.db.recompiles(method) < self.config.max_recompiles_per_method {
            // The method was hot enough to compile and is thrashing *now*,
            // so don't wait for the hot organizer to re-notice it: plan the
            // recompile in this tick. What changes the recompiled code is
            // the thrashed set, which drops the failed guards. The
            // recompile budget shared with the missing-edge organizer bounds
            // the churn a perpetually phase-flipping method could otherwise
            // generate; past it the method settles at baseline — degraded,
            // stable, correct.
            self.controller_enqueue(method, PlanReason::Invalidation);
        }
    }

    /// Books a compile failure of `method`: schedules its retry after
    /// exponential backoff (in simulated cycles, capped), or quarantines the
    /// method once its failure streak reaches the limit.
    pub(super) fn handle_compile_failure(&mut self, method: MethodId) {
        let state = &mut self.methods[method.index()];
        state.compile_failures += 1;
        let failures = state.compile_failures;
        if failures >= QUARANTINE_AFTER_FAILURES {
            self.quarantine(method);
        } else {
            let backoff = RETRY_BACKOFF_BASE_CYCLES
                .saturating_mul(1u64 << (failures - 1).min(20))
                .min(RETRY_BACKOFF_CAP_CYCLES);
            let due = self.vm.clock().total() + backoff;
            state.retry_at = Some(due);
            self.charge(Component::Recovery, RECOVERY_COST_PER_EVENT);
            self.emit(TraceEvent::RetryScheduled { method, due_cycle: due });
        }
    }

    /// Plans the retry of every failed compilation whose backoff deadline
    /// has passed, in method-index order.
    pub(super) fn schedule_due_retries(&mut self) {
        // Only an injected fault fails a compilation: without the injector
        // no method has a retry pending.
        if self.fault.is_none() {
            return;
        }
        let now = self.vm.clock().total();
        for m in (0..self.methods.len()).map(MethodId::from_index) {
            let retry_at = &mut self.methods[m.index()].retry_at;
            if retry_at.is_some_and(|due| due <= now) {
                *retry_at = None;
                self.controller_enqueue(m, PlanReason::Retry);
            }
        }
    }

    /// Blocks `method` from optimizing compilation for the rest of the run.
    /// Also stops the interpreter raising OSR promotion requests for it —
    /// they could only be denied.
    pub(super) fn quarantine(&mut self, method: MethodId) {
        if !std::mem::replace(&mut self.methods[method.index()].quarantined, true) {
            self.methods[method.index()].retry_at = None;
            self.charge(Component::Recovery, RECOVERY_COST_PER_EVENT);
            self.vm.suppress_osr(method);
            self.emit(TraceEvent::Quarantine { method });
        }
    }
}
