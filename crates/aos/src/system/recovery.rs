//! The recovery layer: trace sanitization, injected faults, guard-health
//! invalidation, compile retry/backoff and quarantine (DESIGN.md §6).

use super::AosSystem;
use crate::fault::TraceCorruption;
use aoci_ir::{CallSiteRef, MethodId, SiteIdx};
use aoci_profile::TraceKey;
use aoci_trace::{FaultKind, PlanReason, RetryCause, TraceEvent};
use aoci_vm::Component;

impl AosSystem<'_> {
    /// Books a rejected profile trace and charges its handling cost.
    pub(super) fn reject_trace(&mut self) {
        self.charge(Component::Recovery, self.config.recovery.recovery_cost_per_event);
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

    /// Delivers an injected receiver burst: synthetic guard misses against
    /// one deterministically-selected currently-optimized method. The burst
    /// is an injected fault as soon as it fires, victim or not.
    pub(super) fn deliver_receiver_burst(&mut self) {
        let Some((misses, selector)) = self.fault.as_mut().and_then(|f| f.receiver_burst())
        else {
            return;
        };
        self.emit(TraceEvent::FaultInjected { kind: FaultKind::ReceiverBurst });
        // In index order, which is what `selector` picks from.
        let victims: Vec<MethodId> = self.db.optimized_methods().collect();
        if victims.is_empty() {
            return; // burst fired before anything was optimized: no target
        }
        let victim = victims[(selector % victims.len() as u64) as usize];
        self.methods[victim.index()].synthetic_misses += misses;
    }

    /// Scans every currently-optimized method's guard-observation window;
    /// a miss rate above the threshold (over enough checks) invalidates the
    /// optimized version — the method falls back to baseline at its next
    /// invocation, while any in-flight activation of the invalidated version
    /// finishes on it, OSR or not. The window reads the method's guard
    /// counters, not the version's, so such an activation's misses also
    /// count against the method's next version.
    ///
    /// Windows *roll*: once a window accumulates enough checks it is judged
    /// and then reset, so a phase shift is detected from the post-shift
    /// window alone rather than being diluted by a long healthy history.
    pub(super) fn check_guard_health(&mut self) {
        if !self.config.recovery.monitor_guard_health && self.fault.is_none() {
            return;
        }
        let min_checks = self.config.recovery.guard_miss_min_checks;
        let threshold = self.config.recovery.guard_miss_threshold;
        // In index order; an invalidation only ever touches its own method.
        for m in (0..self.methods.len()).map(MethodId::from_index) {
            if !self.db.is_optimized(m) {
                continue;
            }
            let stats = self.vm.guard_stats(m);
            let state = &mut self.methods[m.index()];
            let base = state.guard_window_start;
            let synth = state.synthetic_misses;
            let organic_checks = stats.checks.saturating_sub(base.checks);
            let organic_misses = stats.misses.saturating_sub(base.misses);
            let checks = organic_checks + synth;
            if checks < min_checks {
                continue;
            }
            let misses = organic_misses + synth;
            if misses as f64 / checks as f64 > threshold {
                // Organic: the window's own counters thrash, without the
                // injected misses.
                let organic = organic_checks >= min_checks
                    && organic_misses as f64 / organic_checks as f64 > threshold;
                self.invalidate_method(m, organic);
            } else {
                // Healthy window: start the next one. The recompiled code
                // holds up under the current receiver distribution, so the
                // invalidation streak is over — a later, separate phase
                // shift starts counting from zero rather than compounding
                // toward quarantine.
                state.guard_window_start = stats;
                state.synthetic_misses = 0;
                state.invalidation_streak = 0;
            }
        }
    }

    /// Invalidates `method`'s optimized version (guard thrash): the registry
    /// slot is cleared, the database drops its currently-optimized status
    /// (so the hot-methods organizer may reselect it), and *consecutive*
    /// invalidations — without a healthy guard window in between —
    /// quarantine it. An `organic` thrash (the version's own guards, not
    /// injected misses) adds the version's guarded inlines to the
    /// database's thrashed set, so the recompile scheduled here and every
    /// later compilation leave those speculations out.
    fn invalidate_method(&mut self, method: MethodId, organic: bool) {
        if !self.vm.registry_mut().invalidate(method) {
            return; // registry and database out of sync; nothing installed
        }
        self.db.record_invalidation(method, organic);
        self.charge(Component::Recovery, self.config.recovery.recovery_cost_per_event);
        self.emit(TraceEvent::Invalidate { method });
        let guard_stats = self.vm.guard_stats(method);
        let state = &mut self.methods[method.index()];
        state.guard_window_start = guard_stats;
        state.synthetic_misses = 0;
        state.invalidation_streak += 1;
        if state.invalidation_streak >= self.config.recovery.quarantine_after_failures {
            self.quarantine(method);
        } else if self.db.recompiles(method) < self.config.max_recompiles_per_method {
            // The method was hot enough to compile and is thrashing *now*,
            // so don't wait for the hot organizer to re-notice it: schedule
            // a recompilation after one base backoff, which bounds the
            // baseline-fallback window. The rules have rarely moved by
            // then; what changes the recompiled code is the thrashed set,
            // which drops the failed guards. The recompile budget shared with
            // the missing-edge organizer bounds the churn a perpetually
            // phase-flipping method could otherwise generate; past it the
            // method settles at baseline — degraded, stable, correct.
            let due = self.vm.clock().total() + self.config.recovery.retry_backoff_base_cycles;
            let cause = RetryCause::Invalidation;
            self.emit(TraceEvent::RetryScheduled { method, due_cycle: due, cause });
            self.retry_after.push((due, method));
        }
    }

    /// Books a compile failure of `method`: schedules a retry after
    /// exponential backoff (in simulated cycles, capped), or quarantines the
    /// method once its failure streak reaches the configured limit.
    pub(super) fn handle_compile_failure(&mut self, method: MethodId) {
        let rc = &self.config.recovery;
        let state = &mut self.methods[method.index()];
        state.compile_failures += 1;
        let failures = state.compile_failures;
        if failures >= rc.quarantine_after_failures {
            self.quarantine(method);
        } else {
            let backoff = rc
                .retry_backoff_base_cycles
                .saturating_mul(1u64 << (failures - 1).min(20))
                .min(rc.retry_backoff_cap_cycles);
            let due = self.vm.clock().total() + backoff;
            self.retry_after.push((due, method));
            self.charge(Component::Recovery, self.config.recovery.recovery_cost_per_event);
            let cause = RetryCause::CompileFailure;
            self.emit(TraceEvent::RetryScheduled { method, due_cycle: due, cause });
        }
    }

    /// Re-enqueues failed compilations whose backoff deadline has passed.
    pub(super) fn schedule_due_retries(&mut self) {
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
    pub(super) fn quarantine(&mut self, method: MethodId) {
        if !std::mem::replace(&mut self.methods[method.index()].quarantined, true) {
            self.charge(Component::Recovery, self.config.recovery.recovery_cost_per_event);
            self.retry_after.retain(|&(_, m)| m != method);
            self.vm.suppress_osr(method);
            self.emit(TraceEvent::Quarantine { method });
        }
    }
}
