//! On-stack replacement integration: hot-loop promotion (OSR-in) must
//! transfer a running baseline activation into optimized code mid-loop and
//! save cycles; promotion is the only transfer, so an optimized activation
//! whose version is invalidated finishes on that code.

use aoci_aos::{AosConfig, AosReport, AosSystem, FaultConfig, OsrEvents};
use aoci_core::PolicyKind;
use aoci_ir::{decode_body, fusion_plan, BinOp, Cond, DecodedOp, FusedKind, Program, ProgramBuilder};
use aoci_vm::{Component, CostModel, ExecCounters, Value, Vm};

fn baseline_result(p: &Program) -> Option<Value> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    Vm::new(p, cost).run_to_completion().expect("baseline run succeeds")
}

/// Tightens the sampling/organizer cadences so the adaptive pipeline acts
/// within a debug-mode-sized run (same knobs the aos crate's own tests use).
fn fast(mut c: AosConfig) -> AosConfig {
    // A *prime* period: these tiny programs have a fixed per-iteration
    // cycle cost, and a period sharing a factor with it makes the
    // deterministic sampler alias onto one spot in the loop body forever.
    c.cost = CostModel { sample_period: 3_001, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.decay_period_samples = 64;
    c
}

fn run(p: &Program, config: AosConfig) -> AosReport {
    AosSystem::new(p, config).run().expect("aos run succeeds")
}

/// A loop-dominated `main`: the entry method itself iterates `n` times,
/// virtually calling `val` on a global receiver that shifts from class A to
/// class B halfway through. `main` is invoked exactly once, so without OSR
/// it can never run optimized; the A/B refs it holds in registers across
/// the whole loop make the frame transfer carry reference-typed locals.
fn loop_in_main(n: i64) -> Program {
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
        let o = m.fresh_reg();
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
        m.get_global(o, g);
        m.call_virtual(Some(r), sel, o, &[]);
        m.bin(BinOp::Add, acc, acc, r);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };
    b.finish(main).unwrap()
}

/// Warm-then-thrash: `spin(n)` owns a loop virtually calling `val` on a
/// global receiver. `main` warms `spin` with receiver A (`warm_calls` short
/// invocations — enough for it to be optimized with a guarded inline of
/// `A.val` at an invocation boundary), swaps the global to a B instance,
/// then makes one long `spin(big_n)` call whose every guard check misses.
fn warm_then_thrash(warm_calls: i64, warm_n: i64, big_n: i64) -> Program {
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
    let spin = {
        let mut m = b.static_method("spin", 1);
        let i = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(one, 1);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Ge, i, m.param(0), out);
        m.get_global(o, g);
        m.call_virtual(Some(r), sel, o, &[]);
        // Self-work inside the loop: without it nearly every timer sample
        // lands on the expensive call step and is attributed to the callee,
        // so the hot-methods organizer would never select `spin` itself.
        m.work(24);
        m.bin(BinOp::Add, acc, acc, r);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let oa = m.fresh_reg();
        let ob = m.fresh_reg();
        m.new_obj(oa, a);
        m.new_obj(ob, cb);
        m.put_global(g, oa);
        let j = m.fresh_reg();
        let calls = m.fresh_reg();
        let one = m.fresh_reg();
        let wn = m.fresh_reg();
        let bn = m.fresh_reg();
        let acc = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(j, 0);
        m.const_int(calls, warm_calls);
        m.const_int(one, 1);
        m.const_int(wn, warm_n);
        m.const_int(bn, big_n);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Ge, j, calls, out);
        m.call_static(Some(r), spin, &[wn]);
        m.bin(BinOp::Add, acc, acc, r);
        m.bin(BinOp::Add, j, j, one);
        m.jump(top);
        m.bind(out);
        m.put_global(g, ob);
        m.call_static(Some(r), spin, &[bn]);
        m.bin(BinOp::Add, acc, acc, r);
        m.ret(Some(acc));
        m.finish()
    };
    b.finish(main).unwrap()
}

#[test]
fn hot_main_loop_is_promoted_and_saves_cycles() {
    let p = loop_in_main(6_000);
    let expected = baseline_result(&p);

    let mut with_osr = fast(AosConfig::new(PolicyKind::Fixed { max: 3 }).enable_osr());
    with_osr.recovery.monitor_guard_health = true;
    let mut without_osr = fast(AosConfig::new(PolicyKind::Fixed { max: 3 }));
    without_osr.recovery.monitor_guard_health = true;

    let promoted = run(&p, with_osr);
    let stuck = run(&p, without_osr);

    assert_eq!(promoted.result, expected, "OSR must not change semantics");
    assert_eq!(stuck.result, expected);
    assert!(promoted.osr.requests >= 1, "hot main loop should request promotion");
    assert!(
        promoted.osr.entries >= 1,
        "the single main activation should be promoted mid-loop: {:?}",
        promoted.osr
    );
    assert!(
        promoted.clock.component(Component::Osr) > 0,
        "frame transfers are charged to the cost model"
    );
    assert_eq!(stuck.osr, OsrEvents::default(), "no OSR activity when disabled");
    assert!(
        promoted.total_cycles() < stuck.total_cycles(),
        "promotion must pay off on a loop-dominated main: {} vs {} cycles",
        promoted.total_cycles(),
        stuck.total_cycles()
    );
}

/// The guard monitor invalidates `spin`'s thrashing version while its one
/// long activation runs it; with promotion out of reach, OSR has nothing
/// to do, and the activation finishes on the invalidated code exactly as
/// it does with OSR off.
#[test]
fn an_invalidated_activation_finishes_on_its_own_code() {
    let p = warm_then_thrash(8, 300, 4_000);
    let expected = baseline_result(&p);

    let mut config = fast(AosConfig::new(PolicyKind::ContextInsensitive).enable_osr());
    config.recovery.monitor_guard_health = true;
    // Promotion would need a back-edge count no loop here reaches.
    config.vm.osr_backedge_threshold = 1_000_000;
    let report = run(&p, config);
    assert_eq!(report.result, expected);
    assert!(report.recovery.invalidations >= 1, "the thrash is detected: {:?}", report.recovery);
    assert_eq!(report.osr, OsrEvents::default());
    assert_eq!(report.clock.component(Component::Osr), 0);

    let mut no_osr = fast(AosConfig::new(PolicyKind::ContextInsensitive));
    no_osr.recovery.monitor_guard_health = true;
    let stale = run(&p, no_osr);
    assert_eq!(report.to_value(), stale.to_value(), "OSR that never promotes changes nothing");
}

/// Under `AOCI_OSR=1 AOCI_FAULTS=42`'s switches (OSR and the chaos fault
/// profile, seed 42) with the tests' fast cadences, `main`'s loop is
/// promoted and its optimized versions are invalidated repeatedly while
/// the one activation runs: it keeps running the code it entered, and
/// nothing counts an OSR-out.
#[test]
fn chaos_with_osr_leaves_osr_exits_at_zero() {
    let p = loop_in_main(6_000);
    let expected = baseline_result(&p);
    let config = fast(
        AosConfig::new(PolicyKind::Fixed { max: 3 })
            .enable_osr()
            .enable_faults(FaultConfig::chaos(42)),
    );
    let report = run(&p, config);
    assert_eq!(report.result, expected);
    assert!(report.osr.entries >= 1, "the main loop is promoted: {:?}", report.osr);
    assert!(report.recovery.invalidations >= 1, "chaos invalidates: {:?}", report.recovery);
    assert_eq!(report.counters.osr_exits, 0);
}

/// Like [`loop_in_main`], but shaped so the decoded form's
/// superinstruction fusion (DESIGN.md §13) overlaps both ends of the
/// loop's back edge: the loop-top instruction is the *second half* of a
/// fused `Const+Bin` pair (the jump target lands mid-superinstruction),
/// and the back edge itself is the *second half* of a fused `Bin+Branch`
/// pair (the back-edge counter fires from inside a superinstruction).
/// `fused_boundaries_are_where_this_test_thinks` pins the shape down so
/// a fusion-table change can't silently turn these tests into no-ops.
fn fused_loop_in_main(n: i64) -> Program {
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
        let zero = m.fresh_reg();
        let half = m.fresh_reg();
        let acc = m.fresh_reg();
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(nn, n);
        m.const_int(one, 1);
        m.const_int(zero, 0);
        m.const_int(half, n / 2);
        let top = m.label();
        let skip = m.label();
        // Const directly before the loop top, Bin directly at it: the
        // back edge below jumps into the middle of this fused pair.
        m.const_int(acc, 0);
        m.bind(top);
        m.bin(BinOp::Add, acc, acc, zero);
        m.branch(Cond::Ne, i, half, skip);
        m.put_global(g, ob);
        m.bind(skip);
        m.get_global(o, g);
        m.call_virtual(Some(r), sel, o, &[]);
        m.bin(BinOp::Add, acc, acc, r);
        // Bin directly before the bottom-tested back edge: the back-edge
        // branch executes as the second half of a fused pair.
        m.bin(BinOp::Add, i, i, one);
        m.branch(Cond::Lt, i, nn, top);
        m.ret(Some(acc));
        m.finish()
    };
    b.finish(main).unwrap()
}

/// Finds `main`'s back edge (the one Branch whose target precedes it)
/// and returns `(branch_pc, target_pc)` in the decoded body.
fn back_edge(p: &Program) -> (usize, usize) {
    let main = p.methods().find(|m| m.name() == "main").expect("main exists");
    let decoded = decode_body(main.body(), p);
    for (pc, op) in decoded.iter().enumerate() {
        if let DecodedOp::Branch { target, .. } = op {
            if (*target as usize) < pc {
                return (pc, *target as usize);
            }
        }
    }
    panic!("main has no back edge");
}

/// Pins down the shape `fused_loop_in_main` claims: both the back-edge
/// branch and its target are second halves of fused pairs.
#[test]
fn fused_boundaries_are_where_this_test_thinks() {
    let p = fused_loop_in_main(6_000);
    let main = p.methods().find(|m| m.name() == "main").expect("main exists");
    let decoded = decode_body(main.body(), &p);
    let plan = fusion_plan(&decoded);
    let (branch_pc, top_pc) = back_edge(&p);
    assert_eq!(
        plan[branch_pc - 1],
        Some(FusedKind::BinBranch),
        "back edge is not the second half of a fused Bin+Branch pair"
    );
    assert_eq!(
        plan[top_pc - 1],
        Some(FusedKind::ConstBin),
        "loop top is not the second half of a fused Const+Bin pair"
    );
}

/// OSR-in across fused superinstruction boundaries: the back-edge
/// counter fires from inside a fused pair, and the promoted frame's
/// entry pc is the second half of another fused pair. Because decoded pc
/// == source pc (1:1 layout), that pc is a legal place to resume — the run
/// must finish with the baseline result, actually promote, and cost
/// exactly the pinned cycles. Guard monitoring is on: after the receiver
/// shift the promoted activation keeps running its version past that
/// version's invalidation, so its guard misses (3 000, one per remaining
/// iteration) go on counting against `main` and the recompiles are
/// invalidated in turn until `main` is quarantined — which is what the
/// pinned total and guard counters reflect.
#[test]
fn osr_in_crosses_fused_superinstruction_boundary() {
    let p = fused_loop_in_main(6_000);
    let expected = baseline_result(&p);
    let mut c = fast(AosConfig::new(PolicyKind::Fixed { max: 3 }).enable_osr());
    c.recovery.monitor_guard_health = true;
    let report = run(&p, c);
    assert_eq!(report.result, expected, "OSR through fused dispatch must not change semantics");
    assert!(
        report.osr.entries >= 1,
        "the single main activation should be promoted mid-loop: {:?}",
        report.osr
    );
    assert_eq!(report.total_cycles(), 324_036);
    assert_eq!(
        report.counters,
        ExecCounters {
            calls: 3_256,
            virtual_dispatches: 3_256,
            guard_checks: 5_744,
            guard_misses: 3_000,
            osr_entries: 1,
            osr_exits: 0,
        }
    );
    assert_eq!(report.osr, OsrEvents { requests: 1, entries: 1, ..OsrEvents::default() });
    assert_eq!((report.recovery.invalidations, report.recovery.quarantined_methods), (3, 1));
}

#[test]
fn osr_runs_are_deterministic() {
    let p = loop_in_main(4_000);
    let make = || {
        let mut c = fast(AosConfig::new(PolicyKind::Fixed { max: 3 }).enable_osr());
        c.recovery.monitor_guard_health = true;
        c
    };
    let a = run(&p, make());
    let b = run(&p, make());
    assert_eq!(a.result, b.result);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.osr, b.osr);
    assert_eq!(a.recovery, b.recovery);
}
