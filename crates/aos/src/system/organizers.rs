//! The organizers: they turn listener buffers into hot methods, rules and
//! recompilation requests, and hand the controller its events.

use super::AosSystem;
use crate::config::ORGANIZER_COST_PER_ITEM;
use aoci_core::RuleSet;
use aoci_ir::MethodId;
use aoci_profile::validate_trace;
use aoci_trace::{PlanReason, TraceEvent};
use aoci_vm::Component;
use std::sync::Arc;

impl AosSystem<'_> {
    /// Aggregates method samples; methods crossing the hotness threshold
    /// are handed to the controller for (first) optimizing compilation.
    pub(super) fn hot_methods_organizer(&mut self) {
        self.charge(
            Component::MethodSampleOrganizer,
            ORGANIZER_COST_PER_ITEM * self.method_listener.buffered() as u64,
        );
        for m in self.method_listener.drain() {
            self.methods[m.index()].samples += 1;
            self.total_method_samples += 1;
        }
        let hot: Vec<MethodId> = (0..self.methods.len())
            .map(MethodId::from_index)
            .filter(|&m| {
                let state = &self.methods[m.index()];
                self.is_hot_method(m)
                    && !self.db.is_optimized(m)
                    && !state.queued
                    && !state.quarantined
                    // Bounds churn from the invalidate→reselect cycle; only
                    // reachable post-invalidation (an optimized method is
                    // filtered out above).
                    && self.db.recompiles(m) < self.config.max_recompiles_per_method
            })
            .collect();
        for m in hot {
            self.emit(TraceEvent::HotMethod { method: m, samples: self.methods[m.index()].samples });
            self.controller_enqueue(m, PlanReason::HotMethod);
        }
    }

    /// Folds trace buffers into the DCG and regenerates inlining rules from
    /// traces above the hot threshold; feeds the adaptive-resolving policy.
    pub(super) fn dcg_and_ai_organizer(&mut self) {
        // Out of `self` while its buffer drains into the rest of it.
        let mut listener = std::mem::take(&mut self.trace_listener);
        self.charge(
            Component::AiOrganizer,
            ORGANIZER_COST_PER_ITEM * (listener.buffered() + self.profile.len()) as u64,
        );
        for t in listener.drain() {
            let (key, weight) = self.maybe_corrupt(t);
            match validate_trace(self.program, &key, weight) {
                Ok(()) => self.profile.record(key, weight),
                Err(_) => self.reject_trace(),
            }
        }
        self.trace_listener = listener;
        self.ai_generation += 1;
        self.rules =
            Arc::new(RuleSet::from_hot_traces(self.profile.hot(self.config.hot_edge_threshold)));
        for rule in self.rules.iter() {
            // Rules are rarely new: clone the key only on vacancy.
            if !self.first_hot.contains_key(&rule.trace) {
                self.first_hot.insert(rule.trace.clone(), self.ai_generation);
            }
        }
        self.policy.adaptive_feedback(&self.profile);
    }

    /// Ages the DCG toward recent behaviour (phase-shift adaptation).
    pub(super) fn decay_organizer(&mut self) {
        self.charge(
            Component::DecayOrganizer,
            ORGANIZER_COST_PER_ITEM * self.profile.len() as u64,
        );
        self.profile.decay(self.config.decay_factor);
    }

    /// The share criterion: a hot method holds at least this many of all
    /// method samples so far.
    fn min_share(&self) -> u32 {
        (self.config.hot_method_fraction * self.total_method_samples as f64) as u32
    }

    /// Returns `true` if `method` currently satisfies the hot-method
    /// criterion. A method never sampled is not hot, whatever the threshold.
    pub(super) fn is_hot_method(&self, method: MethodId) -> bool {
        let samples = self.methods[method.index()].samples;
        samples > 0 && samples >= self.config.hot_method_samples.max(self.min_share())
    }

    /// Requests recompilation of *hot* optimized methods for which new hot,
    /// uninlined, unrefused rules have appeared since their last
    /// compilation (paper: "examines the current set of hot optimized
    /// methods and inlining rules").
    pub(super) fn missing_edge_organizer(&mut self) {
        self.charge(
            Component::MissingEdgeOrganizer,
            ORGANIZER_COST_PER_ITEM * self.rules.len() as u64,
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
                    && !self.methods[host.index()].queued
                    && !to_queue.contains(&host)
                    && self.rules.candidate_weight(ctx, callee).is_some()
                {
                    to_queue.push(host);
                }
            }
        }
        // Rules iterate by call site; the compile queue (and the fault
        // injector's per-compilation draw sequence, and so the committed
        // artifacts) is in method-index order.
        to_queue.sort_unstable_by_key(|m| m.index());
        for m in to_queue {
            self.controller_enqueue(m, PlanReason::MissingEdge);
        }
    }
}
