use super::*;
use crate::AosConfig;
use aoci_core::{MatchMode, PolicyKind};
use aoci_ir::{BinOp, Cond, ProgramBuilder};
use aoci_vm::{CostModel, Value};

/// A program with a hot loop: `main` iterates `n` times calling
/// `compute(i)`, a medium-sized method that virtually calls `val` on a
/// receiver chosen by the iteration's parity. With `poly = false` only one
/// receiver class exists (monomorphic site); with `poly = true` the site
/// alternates A/B 50/50 — but each *call site of main* is monomorphic, so
/// context distinguishes them.
fn hot_loop_program(n: i64, poly: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let cb = b.class("B", Some(a));
    {
        let mut m = b.virtual_method("A.val", a, sel);
        m.work(10);
        let r = m.fresh_reg();
        m.const_int(r, 1);
        m.ret(Some(r));
        m.finish();
    }
    if poly {
        let mut m = b.virtual_method("B.val", cb, sel);
        m.work(10);
        let r = m.fresh_reg();
        m.const_int(r, 2);
        m.ret(Some(r));
        m.finish();
    }
    let ga = b.global("objA");
    let gb = b.global("objB");
    let compute = {
        let mut m = b.static_method("compute", 1);
        m.work(60); // medium with the call: profile-directed only
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        let two = m.fresh_reg();
        let rem = m.fresh_reg();
        m.const_int(two, 2);
        m.bin(BinOp::Rem, rem, m.param(0), two);
        let use_b = m.label();
        let call = m.label();
        let zero = m.fresh_reg();
        m.const_int(zero, 0);
        m.branch(Cond::Ne, rem, zero, use_b);
        m.get_global(o, ga);
        m.jump(call);
        m.bind(use_b);
        m.get_global(o, gb);
        m.bind(call);
        m.call_virtual(Some(r), sel, o, &[]);
        m.bin(BinOp::Add, r, r, m.param(0));
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let oa = m.fresh_reg();
        let ob = m.fresh_reg();
        m.new_obj(oa, a);
        m.put_global(ga, oa);
        m.new_obj(ob, if poly { cb } else { a });
        m.put_global(gb, ob);
        let i = m.fresh_reg();
        let nn = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(nn, n);
        m.const_int(one, 1);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Ge, i, nn, out);
        m.call_static(Some(r), compute, &[i]);
        m.bin(BinOp::Add, acc, acc, r);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };
    b.finish(main).unwrap()
}

fn fast_config(policy: PolicyKind) -> AosConfig {
    let mut c = AosConfig::new(policy);
    c.cost = CostModel { sample_period: 3_000, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.decay_period_samples = 64;
    c
}

fn baseline_result(p: &Program) -> Option<Value> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    Vm::new(p, cost).run_to_completion().expect("baseline runs")
}

#[test]
fn optimizes_hot_methods_and_preserves_semantics() {
    let p = hot_loop_program(400, false);
    let expected = baseline_result(&p);
    let report = AosSystem::new(&p, fast_config(PolicyKind::ContextInsensitive))
        .run()
        .expect("aos run succeeds");
    assert_eq!(report.result, expected);
    assert!(report.opt_compilations >= 1, "hot method should be recompiled");
    assert!(report.optimized_code_size > 0);
    assert!(report.samples > 20);
    assert!(report.final_rules > 0, "hot edges should become rules");
}

#[test]
fn context_sensitive_run_matches_baseline_too() {
    let p = hot_loop_program(400, true);
    let expected = baseline_result(&p);
    for policy in [
        PolicyKind::Fixed { max: 3 },
        PolicyKind::Parameterless { max: 4 },
        PolicyKind::ParameterlessLarge { max: 4 },
        PolicyKind::AdaptiveResolving { max: 4 },
    ] {
        let report = AosSystem::new(&p, fast_config(policy)).run().expect("runs");
        assert_eq!(report.result, expected, "policy {policy:?} changed semantics");
    }
}

#[test]
fn fixed_policy_collects_deep_traces_cins_does_not() {
    let p = hot_loop_program(400, true);

    let mut cs_sys = AosSystem::new(&p, fast_config(PolicyKind::Fixed { max: 3 }));
    // Drive manually so we can inspect the DCG before the run ends.
    loop {
        match cs_sys.vm.run(u64::MAX).expect("runs") {
            RunOutcome::Finished(_) => break,
            RunOutcome::Sample(s) => cs_sys.on_sample(&s),
            RunOutcome::BudgetExhausted => unreachable!(),
            RunOutcome::OsrRequest(_) => unreachable!("osr disabled"),
        }
    }
    assert!(
        cs_sys.profile().iter().any(|(k, _)| k.depth() >= 2),
        "fixed(3) should record multi-edge traces"
    );

    let mut ci_sys = AosSystem::new(&p, fast_config(PolicyKind::ContextInsensitive));
    loop {
        match ci_sys.vm.run(u64::MAX).expect("runs") {
            RunOutcome::Finished(_) => break,
            RunOutcome::Sample(s) => ci_sys.on_sample(&s),
            RunOutcome::BudgetExhausted => unreachable!(),
            RunOutcome::OsrRequest(_) => unreachable!("osr disabled"),
        }
    }
    assert!(
        ci_sys.profile().iter().all(|(k, _)| k.depth() == 1),
        "cins must record single edges only"
    );
}

#[test]
fn recompilations_stay_bounded() {
    let p = hot_loop_program(600, true);
    let mut config = fast_config(PolicyKind::Fixed { max: 2 });
    config.max_recompiles_per_method = 3;
    let mut sys = AosSystem::new(&p, config);
    loop {
        match sys.vm.run(u64::MAX).expect("runs") {
            RunOutcome::Finished(_) => break,
            RunOutcome::Sample(s) => sys.on_sample(&s),
            RunOutcome::BudgetExhausted => unreachable!(),
            RunOutcome::OsrRequest(_) => unreachable!("osr disabled"),
        }
    }
    for m in sys.database().optimized_methods() {
        assert!(sys.database().recompiles(m) <= 3);
    }
}

#[test]
fn report_accounts_listener_and_compilation_time() {
    let p = hot_loop_program(8_000, false);
    let report = AosSystem::new(&p, fast_config(PolicyKind::Fixed { max: 3 }))
        .run()
        .expect("runs");
    assert!(report.fraction(Component::Listeners) > 0.0);
    assert!(report.compile_cycles() > 0);
    assert!(report.aos_overhead() < report.total_cycles());
    // Application time dominates.
    let app = report.fraction(Component::AppBaseline) + report.fraction(Component::AppOptimized);
    assert!(app > 0.5, "application should dominate, got {app}");
}

#[test]
fn optimized_code_eliminates_dispatch_over_time() {
    // With a monomorphic hot call, the optimized version inlines the callee
    // (CHA): virtual dispatches per iteration drop after recompilation, so
    // the total is well below one dispatch per iteration.
    let n = 2_000;
    let p = hot_loop_program(n, false);
    let report = AosSystem::new(&p, fast_config(PolicyKind::ContextInsensitive))
        .run()
        .expect("runs");
    assert!(report.opt_compilations >= 1);
    assert!(
        (report.counters.virtual_dispatches as i64) < n,
        "dispatches {} should be below iterations {n}",
        report.counters.virtual_dispatches
    );
}

#[test]
fn adaptive_resolving_escalates_unskewed_sites() {
    let p = hot_loop_program(1_500, true);
    let mut sys = AosSystem::new(&p, fast_config(PolicyKind::AdaptiveResolving { max: 4 }));
    loop {
        match sys.vm.run(u64::MAX).expect("runs") {
            RunOutcome::Finished(_) => break,
            RunOutcome::Sample(s) => sys.on_sample(&s),
            RunOutcome::BudgetExhausted => unreachable!(),
            RunOutcome::OsrRequest(_) => unreachable!("osr disabled"),
        }
    }
    assert!(
        sys.policy().adaptive().flagged() > 0,
        "the 50/50 site should have been flagged for escalation"
    );
}

// ---- Recovery layer -----------------------------------------------------

use crate::fault::FaultConfig;

/// Phase-shift program: `compute` virtually calls `val` on a global
/// receiver that `main` swaps from class A to class B (which overrides
/// `val`) halfway through the loop. A guarded inline of `A.val` compiled in
/// phase 1 misses on every check in phase 2 — organic guard thrash.
fn phase_shift_program(n: i64) -> (Program, MethodId) {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let cb = b.class("B", Some(a));
    {
        let mut m = b.virtual_method("A.val", a, sel);
        m.work(10);
        let r = m.fresh_reg();
        m.const_int(r, 1);
        m.ret(Some(r));
        m.finish();
    }
    {
        let mut m = b.virtual_method("B.val", cb, sel);
        m.work(10);
        let r = m.fresh_reg();
        m.const_int(r, 2);
        m.ret(Some(r));
        m.finish();
    }
    let g = b.global("obj");
    let compute = {
        let mut m = b.static_method("compute", 1);
        m.work(60);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.get_global(o, g);
        m.call_virtual(Some(r), sel, o, &[]);
        m.bin(BinOp::Add, r, r, m.param(0));
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let oa = m.fresh_reg();
        let ob = m.fresh_reg();
        m.new_obj(oa, a);
        m.new_obj(ob, cb);
        m.put_global(g, oa);
        let i = m.fresh_reg();
        let nn = m.fresh_reg();
        let one = m.fresh_reg();
        let half = m.fresh_reg();
        let acc = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(nn, n);
        m.const_int(one, 1);
        m.const_int(half, n / 2);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        let skip = m.label();
        m.bind(top);
        m.branch(Cond::Ge, i, nn, out);
        m.branch(Cond::Ne, i, half, skip);
        m.put_global(g, ob);
        m.bind(skip);
        m.call_static(Some(r), compute, &[i]);
        m.bin(BinOp::Add, acc, acc, r);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };
    (b.finish(main).unwrap(), compute)
}

#[test]
fn guard_thrash_invalidates_and_recovers() {
    let (p, compute) = phase_shift_program(6_000);
    let expected = baseline_result(&p);
    let mut config = fast_config(PolicyKind::ContextInsensitive)
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    config.recovery.monitor_guard_health = true;
    let mut sys = AosSystem::new(&p, config);
    loop {
        match sys.vm.run(u64::MAX).expect("runs") {
            RunOutcome::Finished(r) => {
                assert_eq!(r, expected, "recovery must not change semantics");
                break;
            }
            RunOutcome::Sample(s) => sys.on_sample(&s),
            RunOutcome::BudgetExhausted => unreachable!(),
            RunOutcome::OsrRequest(_) => unreachable!("osr disabled"),
        }
    }
    let ev = sys.recovery_events();
    assert!(ev.invalidations >= 1, "phase shift should thrash the guarded inline: {ev:?}");
    let log = sys.trace_log().expect("tracing is on");
    assert!(
        log.events.iter().any(|r| r.event == TraceEvent::Invalidate { method: compute }),
        "the thrashing method itself should have been invalidated"
    );
    assert!(
        sys.database().recompiles(compute) >= 2,
        "the invalidated method should be recompiled once reselected"
    );
    // The run never ends mid-thrash: the method is either re-optimized
    // with a healthy guard window (the health check would otherwise have
    // invalidated it again) or it has been quarantined to baseline.
    if sys.database().is_optimized(compute) {
        let stats = sys.vm.guard_stats(compute);
        let base = sys.methods[compute.index()].guard_window_start;
        let checks = stats.checks - base.checks;
        if checks >= sys.config.recovery.guard_miss_min_checks {
            let rate = (stats.misses - base.misses) as f64 / checks as f64;
            assert!(
                rate <= sys.config.recovery.guard_miss_threshold,
                "final window must be healthy, got miss rate {rate}"
            );
        }
    } else {
        assert!(
            sys.methods[compute.index()].quarantined
                || sys.database().recompiles(compute)
                    >= sys.config.max_recompiles_per_method,
            "a de-optimized method left unoptimized must be quarantined or \
             out of recompile budget"
        );
    }
}

#[test]
fn failing_compiles_back_off_then_quarantine() {
    let p = hot_loop_program(6_000, false);
    let expected = baseline_result(&p);
    let mut config = fast_config(PolicyKind::ContextInsensitive);
    config.fault = Some(FaultConfig { compile_bailout_prob: 1.0, ..FaultConfig::default() });
    let report = AosSystem::new(&p, config).run().expect("runs despite compile faults");
    assert_eq!(report.result, expected);
    assert_eq!(report.opt_compilations, 0, "every compilation bails out");
    assert!(
        report.recovery.compile_retries >= 2,
        "retries precede quarantine: {:?}",
        report.recovery
    );
    assert!(report.recovery.quarantined_methods >= 1);
    assert_eq!(
        report.recovery.injected_compile_faults,
        report.recovery.compile_retries + report.recovery.quarantined_methods,
        "each bailout either schedules a retry or quarantines"
    );
    assert!(
        report.clock.component(Component::Recovery) > 0,
        "recovery events are charged to the cost model"
    );
}

#[test]
fn corrupted_traces_are_rejected_at_the_store_boundary() {
    let p = hot_loop_program(2_000, true);
    let expected = baseline_result(&p);
    let mut config = fast_config(PolicyKind::Fixed { max: 3 });
    config.fault = Some(FaultConfig { trace_corruption_prob: 1.0, ..FaultConfig::default() });
    let report = AosSystem::new(&p, config).run().expect("runs despite corrupt traces");
    assert_eq!(report.result, expected);
    assert!(report.recovery.injected_corrupt_traces > 0);
    assert_eq!(
        report.recovery.rejected_traces, report.recovery.injected_corrupt_traces,
        "every corrupted trace must be caught by sanitization"
    );
    assert_eq!(report.dcg_entries, 0, "nothing malformed reaches the profile store");
    assert_eq!(report.final_rules, 0);
}

#[test]
fn seed_profile_rejects_malformed_entries() {
    let p = hot_loop_program(50, false);
    let mut sys = AosSystem::new(&p, fast_config(PolicyKind::ContextInsensitive));
    let bogus_method = MethodId::from_index(p.num_methods() + 1);
    let site = CallSiteRef::new(bogus_method, aoci_ir::SiteIdx(0));
    sys.seed_profile([
        (aoci_profile::TraceKey::new(bogus_method, vec![site]), 1.0),
        (aoci_profile::TraceKey::new(bogus_method, vec![site]), f64::NAN),
    ]);
    assert_eq!(sys.recovery_events().rejected_traces, 2);
    assert_eq!(sys.profile().len(), 0);
}

#[test]
fn chaos_run_degrades_gracefully() {
    let p = hot_loop_program(6_000, true);
    let expected = baseline_result(&p);
    let mut config = fast_config(PolicyKind::Fixed { max: 3 });
    config.fault = Some(FaultConfig::chaos(42));
    let report = AosSystem::new(&p, config).run().expect("faulted run completes");
    assert_eq!(report.result, expected, "faults must not change program semantics");
    let ev = report.recovery;
    assert!(
        ev.injected_compile_faults + ev.injected_corrupt_traces + ev.dropped_samples > 0,
        "chaos config should actually deliver faults: {ev:?}"
    );
    assert!(ev.total_actions() > 0, "the system should visibly react: {ev:?}");
}

#[test]
fn faulted_runs_with_same_seed_are_deterministic() {
    let p = hot_loop_program(4_000, true);
    let run = || {
        let mut config = fast_config(PolicyKind::Fixed { max: 3 });
        config.fault = Some(FaultConfig::chaos(9));
        AosSystem::new(&p, config).run().expect("runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.result, b.result);
    assert_eq!(a.clock.total(), b.clock.total());
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn unfaulted_runs_are_deterministic() {
    let p = hot_loop_program(3_000, true);
    let run = || {
        AosSystem::new(&p, fast_config(PolicyKind::Fixed { max: 3 }))
            .run()
            .expect("runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.result, b.result);
    assert_eq!(a.clock.total(), b.clock.total());
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.opt_compilations, b.opt_compilations);
    assert_eq!(a.optimized_code_size, b.optimized_code_size);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.recovery, b.recovery);
    // No injector: only organic recovery actions, never injected faults.
    assert_eq!(a.recovery.injected_compile_faults, 0);
    assert_eq!(a.recovery.injected_corrupt_traces, 0);
    assert_eq!(a.recovery.dropped_samples, 0);
    assert_eq!(a.recovery.receiver_bursts, 0);
}

// ---- Asynchronous background compilation --------------------------------

use crate::config::ASYNC_QUEUE_CAPACITY;

#[test]
fn async_run_preserves_semantics_and_overlaps_compiles() {
    let p = hot_loop_program(6_000, true);
    let expected = baseline_result(&p);
    let config = fast_config(PolicyKind::Fixed { max: 3 }).enable_async_compile();
    let report = AosSystem::new(&p, config).run().expect("async run succeeds");
    assert_eq!(report.result, expected, "background compilation must not change semantics");
    let ev = report.async_compile;
    assert!(ev.enqueued >= 1, "hot methods should queue plans: {ev:?}");
    assert!(ev.dispatched >= 1 && ev.completed >= 1, "plans should run to completion: {ev:?}");
    assert!(
        ev.background_overlap_cycles > 0,
        "compiles should overlap application execution: {ev:?}"
    );
    assert_eq!(
        report.compile_cycles(),
        ev.foreground_stall_cycles,
        "without OSR or faults, every compilation-thread cycle is async stall"
    );
}

/// `n` leaf methods, then a `main` that calls none of them: methods enough
/// to fill the background queue.
fn many_methods_program(n: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for k in 0..n {
        let mut m = b.static_method(format!("leaf{k}"), 0);
        m.ret(None);
        m.finish();
    }
    let main = {
        let mut m = b.static_method("main", 0);
        m.ret(None);
        m.finish()
    };
    b.finish(main).unwrap()
}

#[test]
fn async_queue_backpressure_evicts_worst() {
    let full = ASYNC_QUEUE_CAPACITY;
    let p = many_methods_program(full + 2);
    let config = fast_config(PolicyKind::ContextInsensitive).enable_async_compile();
    let mut sys = AosSystem::new(&p, config);
    // No rules yet: every plan prices at benefit 0, so ordering falls back
    // to the deterministic method-id tie-break (lower id runs first).
    for idx in 1..=full + 1 {
        sys.controller_enqueue(MethodId::from_index(idx), PlanReason::MissingEdge);
    }
    // The last method arrived at a full queue as the worst plan: dropped.
    assert_eq!(sys.ledger.async_compile.enqueued, full as u64);
    assert_eq!(sys.ledger.async_compile.queue_full_drops, 1);
    assert!(!sys.methods[full + 1].queued);
    // Method 0 outranks every resident: the worst resident is evicted.
    sys.controller_enqueue(MethodId::from_index(0), PlanReason::MissingEdge);
    assert_eq!(sys.ledger.async_compile.enqueued, full as u64 + 1);
    assert_eq!(sys.ledger.async_compile.queue_full_drops, 2);
    assert!(sys.methods[0].queued);
    assert!(!sys.methods[full].queued);
    assert!((1..full).all(|idx| sys.methods[idx].queued));
    assert_eq!(sys.ledger.async_compile.max_queue_depth, full as u64);
}

#[test]
fn stale_plans_drop_at_dequeue_with_reasons() {
    let p = hot_loop_program(50, true);
    let config = fast_config(PolicyKind::ContextInsensitive).enable_async_compile();
    let mut sys = AosSystem::new(&p, config);
    // Quarantined while waiting.
    let quarantined = MethodId::from_index(2);
    sys.controller_enqueue(quarantined, PlanReason::MissingEdge);
    sys.quarantine(quarantined);
    // A hot-method plan whose method never accumulated samples: by dispatch
    // time it no longer (here: never) satisfies the hotness criterion.
    let cooled = MethodId::from_index(1);
    sys.controller_enqueue(cooled, PlanReason::HotMethod);
    sys.process_compile_queue();
    assert_eq!(sys.ledger.async_compile.stale_drops, 2, "{:?}", sys.ledger.async_compile);
    assert_eq!(sys.ledger.async_compile.dispatched, 0);
    assert!(!sys.methods[quarantined.index()].queued);
    assert!(!sys.methods[cooled.index()].queued);
}

// ---- Recovery-ledger dump: captured raw at the action, rendered at read --

use aoci_trace::{FaultKind, Recorded, RetryCause, TraceConfig, TraceLog};

/// The `n` dump lines ending at (and including) event index `last` of an
/// unbounded log — what the ledger must hold if the latest recovery action
/// fired right after that event.
fn dump_ending_at(log: &TraceLog, last: usize, n: usize, p: &Program) -> Vec<String> {
    let resolve = |m: MethodId| p.method(m).name().to_string();
    let first = (last + 1).saturating_sub(n);
    let tail = log.numbered().take(last + 1).skip(first);
    tail.map(|(seq, r)| r.dump_line(seq, &resolve)).collect()
}

/// Index of the last event that triggered a dump capture: every recovery
/// action captures as it is emitted, and the event says which it is.
fn last_recovery_trigger(events: &[Recorded]) -> Option<usize> {
    events.iter().rposition(|r| {
        matches!(
            r.event,
            TraceEvent::TraceRejected
                | TraceEvent::Invalidate { .. }
                | TraceEvent::Quarantine { .. }
                | TraceEvent::RetryScheduled { cause: RetryCause::CompileFailure, .. }
        )
    })
}

#[test]
fn trace_dump_is_the_tail_as_of_the_last_recovery_action() {
    let p = hot_loop_program(6_000, true);
    let mut triggers = std::collections::BTreeSet::new();
    // Chaos runs usually end on a rejected trace; without trace corruption
    // the last action is a retry, an invalidation or a quarantine.
    let faults = [42, 4, 18].into_iter().flat_map(|seed| {
        let chaos = FaultConfig::chaos(seed);
        [chaos.clone(), FaultConfig { trace_corruption_prob: 0.0, ..chaos }]
    });
    for fault in faults {
        let seed = fault.seed;
        let mut config = fast_config(PolicyKind::Fixed { max: 3 })
            .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 32 });
        config.fault = Some(fault);
        let report = AosSystem::new(&p, config).run().expect("faulted run completes");
        let log = report.trace_log.expect("tracing is on");
        assert_eq!(log.dropped, 0, "the log is unbounded");
        let last = last_recovery_trigger(&log.events).expect("chaos triggers recovery");
        assert!(
            last + 1 < log.events.len(),
            "seed {seed}: the run must go on after the last recovery action, \
             or the end-of-run tail would pass too"
        );
        assert_eq!(
            report.recovery.trace_dump,
            dump_ending_at(&log, last, 32, &p),
            "seed {seed}: dump ends at event #{last}"
        );
        assert_eq!(report.recovery.trace_dump.len(), 32);
        triggers.insert(log.events[last].event.kind());
    }
    assert_eq!(
        Vec::from_iter(triggers),
        ["invalidate", "quarantine", "retry-scheduled", "trace-rejected"],
        "the runs should end on every kind of recovery action"
    );
}

// ---- The three places where the counters and the stream used to disagree --

/// Every event of `log` matching `pick`, in order.
fn events_where(log: &TraceLog, pick: impl Fn(&TraceEvent) -> bool) -> Vec<&TraceEvent> {
    log.events.iter().map(|r| &r.event).filter(|e| pick(e)).collect()
}

#[test]
fn a_recompile_after_an_invalidation_is_not_a_retry() {
    // Organic thrash, no faults: the one `retry-scheduled` follows the
    // invalidation, which is the recovery action and the dump trigger.
    let (p, compute) = phase_shift_program(6_000);
    let config = fast_config(PolicyKind::ContextInsensitive)
        .enable_guard_monitoring()
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 4 });
    let report = AosSystem::new(&p, config).run().expect("runs");
    let log = report.trace_log.as_ref().expect("tracing is on");
    let retries = events_where(log, |e| matches!(e, TraceEvent::RetryScheduled { .. }));
    assert!(
        matches!(
            retries[..],
            [TraceEvent::RetryScheduled { method, cause: RetryCause::Invalidation, .. }]
                if *method == compute
        ),
        "{retries:?}"
    );
    assert_eq!(report.recovery.compile_retries, 0, "no compilation failed");
    assert!(report.recovery.invalidations >= 1);
    assert!(log.coverage().contains("recovery:retry"), "the coverage feature stays");
    let last = last_recovery_trigger(&log.events).expect("the thrash was acted on");
    assert_eq!(report.recovery.trace_dump, dump_ending_at(log, last, 4, &p));
}

#[test]
fn a_compile_dropped_as_stale_at_completion_did_not_land() {
    // Seed 0: an OSR promotion recompiles a method while its background
    // compile runs.
    let p = hot_loop_program(6_000, true);
    let mut config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_async_compile()
        .enable_osr()
        .enable_faults(FaultConfig::chaos(0))
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    config.vm.osr_backedge_threshold = 48;
    let report = AosSystem::new(&p, config).run().expect("runs");
    let log = report.trace_log.as_ref().expect("tracing is on");
    let finishes = events_where(log, |e| matches!(e, TraceEvent::CompileFinish { .. }));
    let landed = events_where(log, |e| matches!(e, TraceEvent::CompileFinish { landed: true, .. }));
    assert_eq!(finishes.len() - landed.len(), 1, "one result dropped as stale");
    let ev = report.async_compile;
    assert_eq!(ev.completed, landed.len() as u64);
    assert_eq!(ev.dispatched, finishes.len() as u64 + ev.abandoned_in_flight);
    for (i, r) in log.events.iter().enumerate() {
        if let TraceEvent::CompileFinish { method, landed: false, .. } = r.event {
            assert!(
                matches!(
                    log.events[i + 1].event,
                    TraceEvent::CompileDequeueStale { method: m, .. } if m == method
                ),
                "event #{i}: the drop follows the finish"
            );
        }
    }
}

#[test]
fn a_burst_before_anything_is_optimized_is_still_injected() {
    // Seed 0: the first burst fires within the first ticks, before the
    // first install — no victim, but a fault all the same.
    let p = hot_loop_program(6_000, true);
    let config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_faults(FaultConfig::chaos(0))
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    let report = AosSystem::new(&p, config).run().expect("runs");
    let log = report.trace_log.as_ref().expect("tracing is on");
    let is_burst =
        |e: &TraceEvent| matches!(e, TraceEvent::FaultInjected { kind: FaultKind::ReceiverBurst });
    let first_burst = log.events.iter().position(|r| is_burst(&r.event));
    let first_install =
        log.events.iter().position(|r| matches!(r.event, TraceEvent::Install { .. }));
    assert!(first_burst < first_install, "{first_burst:?} vs {first_install:?}");
    assert_eq!(report.recovery.receiver_bursts, events_where(log, is_burst).len() as u64);
}

#[test]
fn trace_dump_is_empty_with_a_zero_window() {
    let p = hot_loop_program(6_000, true);
    let mut config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_trace_with(TraceConfig { capacity: 8192, dump_last: 0 });
    config.fault = Some(FaultConfig::chaos(42));
    let report = AosSystem::new(&p, config).run().expect("faulted run completes");
    assert!(report.recovery.total_actions() > 0);
    assert!(report.recovery.trace_dump.is_empty());
}

#[test]
fn vm_fault_dump_reaches_the_ledger() {
    // A warm loop, then a division by zero.
    let p = {
        let mut b = ProgramBuilder::new();
        let mut m = b.static_method("main", 0);
        let (i, n, one, zero) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(i, 0);
        m.const_int(n, 400);
        m.const_int(one, 1);
        m.const_int(zero, 0);
        let (top, out) = (m.label(), m.label());
        m.bind(top);
        m.branch(Cond::Ge, i, n, out);
        m.work(50);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.bin(BinOp::Div, i, i, zero);
        m.ret(Some(i));
        let main = m.finish();
        b.finish(main).unwrap()
    };
    let config = fast_config(PolicyKind::ContextInsensitive)
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 4 });
    let mut sys = AosSystem::new(&p, config);
    let err = loop {
        match sys.step() {
            Ok(true) => {}
            Ok(false) => panic!("the program must fault"),
            Err(e) => break e,
        }
    };
    // `step` echoed exactly these lines on stderr, `[aoci-trace]`-prefixed.
    let dump = sys.recovery_events().trace_dump;
    let log = sys.trace_log().expect("tracing is on");
    assert_eq!(dump, dump_ending_at(&log, log.events.len() - 1, 4, &p));
    assert_eq!(dump.len(), 4);
    assert!(dump[3].contains("vm-fault"), "{}", dump[3]);
    assert!(dump[3].contains(&err.to_string()), "{} vs {err}", dump[3]);
}

// ---- One way to compile: the compile server and the fault draw in `build` --

use crate::config::{ServerSnapshot, SERVER_HIT_COST};

/// A compile-server snapshot holding context-free compilations of `methods`.
fn server_snapshot(p: &Program, methods: impl IntoIterator<Item = MethodId>) -> ServerSnapshot {
    let oracle = aoci_core::InlineOracle::with_mode(Arc::new(RuleSet::new()), MatchMode::Partial);
    let opt = aoci_opt::OptConfig::default();
    let compile = |m| Arc::new(aoci_opt::compile(p, m, &oracle, &opt));
    Arc::new(methods.into_iter().map(|m| (m, compile(m))).collect())
}

#[test]
fn a_background_compile_is_served_from_the_compile_server() {
    let p = hot_loop_program(6_000, true);
    let compute = p.method_by_name("compute").expect("the hot method");
    let config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_compile_server(server_snapshot(&p, [compute]))
        .enable_async_compile()
        .enable_metrics()
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    let report = AosSystem::new(&p, config).run().expect("runs");
    assert_eq!(report.result, baseline_result(&p));
    let server = &report.compile_server;
    assert!(server.hits >= 1, "{server:?}");
    assert!(server.hit_methods.contains(&compute), "{server:?}");
    // The metrics read the server ledger, through the end-of-run snapshot.
    let metrics = report.telemetry.as_ref().expect("metrics are on");
    let (hits, misses) = (server.hits, server.misses);
    for (name, n) in [("compile_server_hits", hits), ("compile_server_misses", misses)] {
        let last = metrics.series_of(name).and_then(|s| s.last().copied());
        assert_eq!(last, (n > 0).then_some(n), "{name}");
        assert_eq!(metrics.counters.get(name).copied(), (n > 0).then_some(n), "{name}");
    }
    let log = report.trace_log.as_ref().expect("tracing is on");
    let starts: Vec<u64> = log
        .events
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::CompileStart { method, cost, .. } if method == compute => Some(cost),
            _ => None,
        })
        .collect();
    assert!(!starts.is_empty(), "the hit went through a background worker");
    assert!(starts.iter().all(|&cost| cost == SERVER_HIT_COST), "{starts:?} vs {SERVER_HIT_COST}");
}

#[test]
fn a_server_hit_draws_no_compile_fault() {
    let p = hot_loop_program(6_000, true);
    let mut config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_compile_server(server_snapshot(&p, p.methods().map(|m| m.id())));
    config.fault = Some(FaultConfig::chaos(42));
    let report = AosSystem::new(&p, config).run().expect("runs");
    assert_eq!(report.result, baseline_result(&p));
    let server = &report.compile_server;
    assert!(server.hits >= 1, "{server:?}");
    assert_eq!(server.misses, 0, "the snapshot covers the program");
    let ev = report.recovery;
    assert_eq!(ev.injected_compile_faults, 0, "a hit bypasses the local compiler: {ev:?}");
    assert!(ev.injected_corrupt_traces > 0 && ev.dropped_samples > 0, "chaos is on: {ev:?}");
}

#[test]
fn the_server_ledger_is_a_fold_of_the_lookup_events() {
    let p = hot_loop_program(6_000, true);
    let compute = p.method_by_name("compute").expect("the hot method");
    let config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_compile_server(server_snapshot(&p, [compute]))
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    let report = AosSystem::new(&p, config).run().expect("runs");
    let log = report.trace_log.as_ref().expect("tracing is on");
    assert_eq!(log.dropped, 0, "the ring is unbounded");
    let lookups: Vec<(MethodId, bool)> = (log.events.iter())
        .filter_map(|r| match r.event {
            TraceEvent::ServerLookup { method, hit } => Some((method, hit)),
            _ => None,
        })
        .collect();
    let count = |hit| lookups.iter().filter(|l| l.1 == hit).count() as u64;
    let first_seen = |hit| {
        let mut methods = Vec::new();
        for &(m, _) in lookups.iter().filter(|l| l.1 == hit) {
            if !methods.contains(&m) {
                methods.push(m);
            }
        }
        methods
    };
    let server = &report.compile_server;
    assert!(count(true) > 0 && count(false) > 0, "both paths ran: {lookups:?}");
    assert_eq!((server.hits, server.misses), (count(true), count(false)));
    assert_eq!(server.hit_methods, first_seen(true));
    assert_eq!(server.requests, first_seen(false));
    assert_eq!(server.hit_methods, [compute], "only the snapshot's method hits");
}

#[test]
fn a_zero_threshold_still_needs_a_sample() {
    let p = hot_loop_program(400, true);
    let mut config = fast_config(PolicyKind::ContextInsensitive)
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    config.hot_method_samples = 0;
    config.hot_method_fraction = 0.0;
    let report = AosSystem::new(&p, config).run().expect("runs");
    let log = report.trace_log.expect("tracing is on");
    let hot: Vec<u32> = log
        .events
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::HotMethod { samples, .. } => Some(samples),
            _ => None,
        })
        .collect();
    assert!(!hot.is_empty(), "sampled methods are planned at once");
    assert!(hot.iter().all(|&samples| samples >= 1), "{hot:?}");
}


// ---- The thrashed set: a speculation that failed is not installed again ---

use aoci_ir::IdHashSet;

#[test]
fn a_thrashed_guard_is_not_speculated_again() {
    // Organic thrash, no faults: the guarded inline of `A.val` misses on
    // every check once `main` swaps the receiver to a `B`. Without decay
    // and with a low hot threshold, the pre-shift rule for `A.val` is still
    // hot when the recompile comes, as the suite's slowly-moving rules are.
    let (p, compute) = phase_shift_program(6_000);
    let mut config = fast_config(PolicyKind::ContextInsensitive)
        .enable_guard_monitoring()
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    config.decay_factor = 1.0;
    config.hot_edge_threshold = 0.001;
    let (report, db, _) = AosSystem::new(&p, config).run_full().expect("runs");
    let log = report.trace_log.as_ref().expect("tracing is on");
    // Replay the stream: an install's `inline-decision` events precede its
    // `compile` event, and an invalidation (all organic here) thrashes the
    // guarded inlines of its method's latest install.
    let mut thrashed: IdHashSet<(CallSiteRef, MethodId)> = IdHashSet::default();
    let mut latest: IdHashMap<MethodId, Vec<(CallSiteRef, MethodId)>> = IdHashMap::default();
    let mut installing = Vec::new();
    let mut checked_after_thrash = 0;
    for (i, r) in log.events.iter().enumerate() {
        match &r.event {
            TraceEvent::InlineDecision { guarded: true, facts } => {
                let pair = (facts.site, facts.callee);
                assert!(
                    !thrashed.contains(&pair),
                    "event #{i}: host {:?} guard-inlines the thrashed {pair:?}",
                    facts.host
                );
                installing.push(pair);
            }
            TraceEvent::Compile { method, .. } => {
                latest.insert(*method, std::mem::take(&mut installing));
                checked_after_thrash += usize::from(!thrashed.is_empty());
            }
            TraceEvent::Invalidate { method } => {
                thrashed.extend(latest.remove(method).unwrap_or_default());
            }
            _ => {}
        }
    }
    assert!(!thrashed.is_empty(), "the phase shift thrashes a guarded inline");
    assert!(checked_after_thrash > 0, "some compile follows the thrash");
    assert_eq!(thrashed, **db.thrashed(), "the database records what the stream shows");
    assert!(db.is_optimized(compute), "the thrashing host ends the run optimized");
}

/// One install's inline decisions, as `(site, callee, guarded)`.
type Decisions = Vec<(CallSiteRef, MethodId, bool)>;

/// Each `compile` event's method and decisions, in stream order.
fn compiles(log: &TraceLog) -> Vec<(MethodId, Decisions)> {
    let mut out = Vec::new();
    let mut decisions = Vec::new();
    for r in &log.events {
        match &r.event {
            TraceEvent::InlineDecision { guarded, facts } => {
                decisions.push((facts.site, facts.callee, *guarded));
            }
            TraceEvent::Compile { method, .. } => {
                out.push((*method, std::mem::take(&mut decisions)));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn receiver_bursts_thrash_nothing() {
    // Guards that hold organically; only the injected misses invalidate.
    let p = hot_loop_program(6_000, true);
    let fault = FaultConfig {
        seed: 0,
        receiver_burst_prob: 0.05,
        receiver_burst_misses: 96,
        ..FaultConfig::default()
    };
    let config = fast_config(PolicyKind::Fixed { max: 3 })
        .enable_faults(fault)
        .enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 0 });
    let (report, db, _) = AosSystem::new(&p, config).run_full().expect("runs");
    assert!(report.recovery.invalidations > 0, "{:?}", report.recovery);
    assert!(db.thrashed().is_empty(), "{:?}", db.thrashed());
    // The compile after each burst-driven invalidation equals the one
    // before it.
    let log = report.trace_log.as_ref().expect("tracing is on");
    let all = compiles(log);
    let mut compiled = 0;
    let mut recompared = 0;
    for r in &log.events {
        match r.event {
            TraceEvent::Compile { .. } => compiled += 1,
            TraceEvent::Invalidate { method } => {
                let before = all[..compiled].iter().rev().find(|(m, _)| *m == method);
                let after = all[compiled..].iter().find(|(m, _)| *m == method);
                if let (Some(before), Some(after)) = (before, after) {
                    assert_eq!(after, before, "{method:?}");
                    recompared += usize::from(before.1.iter().any(|&(.., guarded)| guarded));
                }
            }
            _ => {}
        }
    }
    assert!(recompared > 0, "some method with a guard is invalidated and recompiled");
}
