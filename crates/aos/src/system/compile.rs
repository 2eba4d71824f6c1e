//! The controller and the compilation thread: one way to compile (`build`,
//! then `land`) under a foreground and a background scheduler (DESIGN.md §10).

use super::{plan_order, AosSystem, Built, InFlightCompile, PendingPlan};
use crate::config::{ASYNC_QUEUE_CAPACITY, SERVER_HIT_COST};
use crate::fault::CompileFault;
use aoci_core::{InlineOracle, RuleSet};
use aoci_ir::{CallSiteRef, MethodId};
use aoci_trace::{
    CompileStats, FaultKind, FinishCycles, InlineFacts, PlanReason, StaleReason, TraceEvent,
};
use aoci_vm::{Component, MethodVersion};
use std::cmp::Ordering;
use std::sync::Arc;

impl AosSystem<'_> {
    /// The controller: accepts an organizer event and creates a compilation
    /// plan (the oracle snapshot is taken when the plan executes), queued
    /// first-in first-out for the foreground scheduler and by
    /// [`AosSystem::admit_background`] for the background one.
    pub(super) fn controller_enqueue(&mut self, method: MethodId, reason: PlanReason) {
        if self.methods[method.index()].quarantined {
            return;
        }
        self.charge(Component::ControllerThread, self.config.controller_cost_per_event);
        if std::mem::replace(&mut self.methods[method.index()].queued, true) {
            return; // already queued or in flight
        }
        self.emit(TraceEvent::RecompilePlan { method, reason });
        let plan = PendingPlan {
            method,
            reason,
            priority: 0.0,
            recompiles_at_enqueue: self.db.recompiles(method),
        };
        if self.config.async_compile {
            self.admit_background(plan);
        } else {
            self.pending_plans.push_back(plan);
        }
    }

    /// Background admission: prices the plan by predicted benefit and admits
    /// it to the bounded priority queue, evicting the worst resident (or
    /// dropping the incoming plan when it *is* the worst) under backpressure.
    fn admit_background(&mut self, mut plan: PendingPlan) {
        let PendingPlan { method, reason, .. } = plan;
        let oracle = InlineOracle::with_mode(Arc::clone(&self.rules), self.config.match_mode);
        plan.priority = aoci_opt::estimate_benefit(self.program, method, &oracle);
        if self.pending_plans.len() >= ASYNC_QUEUE_CAPACITY {
            let worst = self
                .pending_plans
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| plan_order(a, b))
                .map(|(i, _)| i)
                .expect("capacity >= 1, so a full queue is non-empty");
            if plan_order(&plan, &self.pending_plans[worst]) == Ordering::Greater {
                let evicted = self
                    .pending_plans
                    .swap_remove_back(worst)
                    .expect("`worst` indexes the queue");
                self.methods[evicted.method.index()].queued = false;
                self.emit(TraceEvent::CompileQueueFull { method: evicted.method, evicted: true });
            } else {
                self.methods[method.index()].queued = false;
                self.emit(TraceEvent::CompileQueueFull { method, evicted: false });
                return;
            }
        }
        let priority = plan.priority;
        self.pending_plans.push_back(plan);
        self.emit(TraceEvent::CompileEnqueue {
            method,
            reason,
            priority,
            queue_depth: self.pending_plans.len() as u32,
        });
    }

    /// The compilation thread: executes queued plans and installs the
    /// resulting code (effective at each method's next invocation — or
    /// mid-activation, when a later OSR request promotes a running frame
    /// into the installed version). The foreground scheduler compiles every
    /// queued plan inside this tick, in arrival order. The background
    /// scheduler is a pump: due compiles complete, then free workers pick up
    /// the highest-priority live plans.
    pub(super) fn process_compile_queue(&mut self) {
        if self.config.async_compile {
            self.complete_due_compiles();
            self.dispatch_pending_plans();
            return;
        }
        while let Some(plan) = self.pending_plans.pop_front() {
            let state = &mut self.methods[plan.method.index()];
            state.queued = false;
            if state.quarantined {
                continue; // quarantined while waiting in the queue: a free skip
            }
            self.compile_foreground(plan.method);
        }
    }

    /// Compiles `method` on the spot: the application waits out the whole
    /// cost. Returns the installed version, or `None` when an injected fault
    /// discarded the compilation (failure bookkeeping already applied).
    pub(super) fn compile_foreground(&mut self, method: MethodId) -> Option<Arc<MethodVersion>> {
        let built = self.build(method);
        self.charge(Component::CompilationThread, built.cost);
        if let Err(kind) = built.outcome {
            self.emit(TraceEvent::FaultInjected { kind });
        }
        self.land(built)
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
        while let Some(worker) = self.in_flight.iter().position(Option::is_none) {
            let Some(plan) = self.pop_best_live_plan() else { break };
            self.in_flight[worker] = Some(self.dispatch_plan(plan, worker as u32));
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
            let plan = self.pending_plans.swap_remove_back(best)?;
            let stale = if self.methods[plan.method.index()].quarantined {
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
                    self.methods[plan.method.index()].queued = false;
                    self.emit(TraceEvent::CompileDequeueStale { method: plan.method, reason });
                }
                None => return Some(plan),
            }
        }
    }

    /// Starts one background compile: the work (and any injected fault) is
    /// resolved now, its effects are deferred to the deadline. The method
    /// stays `queued` until completion so no second plan can race it.
    fn dispatch_plan(&mut self, plan: PendingPlan, worker: u32) -> InFlightCompile {
        let built = self.build(plan.method);
        if let Err(kind) = built.outcome {
            self.emit(TraceEvent::FaultInjected { kind });
        }
        let now = self.vm.clock().total();
        self.emit(TraceEvent::CompileStart { method: plan.method, worker, cost: built.cost });
        InFlightCompile {
            worker,
            started_at: now,
            deadline: now + built.cost,
            recompiles_at_dispatch: self.db.recompiles(plan.method),
            built,
        }
    }

    /// Completes a background compile at (or after) its deadline: splits its
    /// cost into the portion that overlapped application execution and the
    /// stall the application must still wait out, charges only the stall,
    /// then lands the result — unless the world moved on while the compile
    /// ran, in which case the stale result is dropped (and the finish event
    /// says it did not land).
    fn finish_compile(&mut self, compile: InFlightCompile) {
        let InFlightCompile { built, worker, started_at, recompiles_at_dispatch, .. } = compile;
        let method = built.method;
        let now = self.vm.clock().total();
        let overlap = built.cost.min(now.saturating_sub(started_at));
        let stall = built.cost - overlap;
        self.charge(Component::CompilationThread, stall);
        let stale = if built.outcome.is_err() {
            None // a failure lands as a booked failure
        } else if self.methods[method.index()].quarantined {
            Some(StaleReason::Quarantined)
        } else if self.db.recompiles(method) != recompiles_at_dispatch {
            Some(StaleReason::Recompiled)
        } else {
            None
        };
        self.emit(TraceEvent::CompileFinish {
            method,
            worker,
            landed: stale.is_none(),
            cycles: Box::new(FinishCycles { overlap_cycles: overlap, stall_cycles: stall }),
        });
        self.methods[method.index()].queued = false;
        if let Some(reason) = stale {
            self.emit(TraceEvent::CompileDequeueStale { method, reason });
        } else {
            self.land(built);
        }
    }

    /// The one way to get compiler work done: compiles `method` against the
    /// current rules, under the fault injector — or takes the version a
    /// shared compile server (fleet serving) already built. Charges, emits
    /// and installs nothing: that is what the two schedulers differ in.
    fn build(&mut self, method: MethodId) -> Built {
        let rules = Arc::clone(&self.rules);
        let generation = self.ai_generation;
        // A cache hit installs the server's pre-compiled version for a small
        // fixed cost, bypassing the local compiler — and with it
        // compile-fault injection and the thrashed-guard exclusion —
        // entirely (the fleet runs without guard monitoring, so its
        // thrashed set stays empty). A miss falls through to the local
        // compile below; the ledger logs it in the request outbox for the
        // server to batch.
        if let Some(snapshot) = &self.config.compile_server {
            let cached = snapshot.get(&method).map(|c| Box::new((**c).clone()));
            self.emit(TraceEvent::ServerLookup { method, hit: cached.is_some() });
            if let Some(compilation) = cached {
                return Built {
                    method,
                    outcome: Ok(compilation),
                    cost: SERVER_HIT_COST,
                    rules,
                    generation,
                };
            }
        }
        let fault = self.fault.as_mut().and_then(|f| f.compile_fault());
        let (outcome, cost) = if fault == Some(CompileFault::Bailout) {
            // Aborted partway: only the fixed setup cost was spent.
            (Err(FaultKind::CompileBailout), self.config.cost.opt_compile_fixed)
        } else {
            let oracle = InlineOracle::with_mode(Arc::clone(&rules), self.config.match_mode)
                .excluding(Arc::clone(self.db.thrashed()));
            let c = aoci_opt::compile(self.program, method, &oracle, &self.config.opt);
            let cost = self.config.cost.opt_compile_cost(c.generated_size);
            match fault {
                // Completed then rejected as oversized: full cost spent,
                // output discarded.
                Some(_) => (Err(FaultKind::CompileOversize), cost),
                None => (Ok(Box::new(c)), cost),
            }
        };
        Built { method, outcome, cost, rules, generation }
    }

    /// Lands finished compiler work: installs the code, or books the
    /// failure (retry backoff or quarantine). Returns the installed version.
    fn land(&mut self, built: Built) -> Option<Arc<MethodVersion>> {
        let Built { method, outcome, cost, rules, generation } = built;
        let Ok(compilation) = outcome else {
            self.handle_compile_failure(method);
            return None;
        };
        Some(self.install_compilation(method, *compilation, cost, generation, &rules))
    }

    /// Books and installs a finished compilation: database record, trace
    /// events, registry install, guard-window and failure-streak resets, and
    /// unrealized-rule marking. `generation` and `rules` are the AI state
    /// the compiler ran against — for a background compile that is the
    /// dispatch-time snapshot, not the state current at completion.
    fn install_compilation(
        &mut self,
        method: MethodId,
        compilation: aoci_opt::Compilation,
        cost: u64,
        generation: u64,
        rules: &RuleSet,
    ) -> Arc<MethodVersion> {
        self.db.record_compilation(method, &compilation, generation, self.vm.clock().total());
        if self.trace.is_some() {
            for d in &compilation.decisions {
                // The context always starts at the decision's own call site.
                let Some(&site) = d.context.first() else { continue };
                self.emit(TraceEvent::InlineDecision {
                    guarded: d.guarded,
                    facts: Box::new(InlineFacts {
                        host: method,
                        site,
                        callee: d.callee,
                        provenance: d.provenance,
                    }),
                });
            }
            for r in &compilation.refusals {
                self.emit(TraceEvent::InlineRefusal {
                    reason: r.reason,
                    hot: r.hot,
                    facts: Box::new(InlineFacts {
                        host: method,
                        site: r.site,
                        callee: r.callee,
                        provenance: r.provenance,
                    }),
                });
            }
            self.emit(TraceEvent::Compile {
                method,
                stats: Box::new(CompileStats {
                    generated_size: compilation.generated_size,
                    inlines: compilation.decisions.len() as u32,
                    guarded: compilation.guarded_count() as u32,
                    cycles: cost,
                }),
            });
        }
        if let Some(sink) = &mut self.metrics {
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
                sink.counter_add(r.reason.metric_name(), 1);
            }
            sink.observe("compile_cost_cycles", cost);
            sink.observe("compile_generated_size", u64::from(compilation.generated_size));
        }
        let installed = self.vm.registry_mut().install(compilation.version);
        self.emit(TraceEvent::Install { method, version_id: installed.version_id.raw() });
        // A successful install opens a fresh guard-observation window
        // and clears the failure streak.
        let guard_stats = self.vm.guard_stats(method);
        let state = &mut self.methods[method.index()];
        state.compile_failures = 0;
        state.guard_window_start = guard_stats;
        state.synthetic_misses = 0;
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
}
