//! Deoptless dispatched OSR integration (DESIGN.md §16): a guard shift
//! inside an optimized activation must *transfer* into the best surviving
//! context-specialized version of the method — baseline is the fallback,
//! not the destination — and the transfer must pay off against the
//! classic OSR configuration that deoptimizes the same activation to
//! baseline. The exit's baseline continuation pc sits mid-fused-
//! superinstruction (second half of a `Const+Branch` pair), and the
//! dispatched transfer must cost what it did before pairs fused.

use aoci_aos::{AosConfig, AosReport, AosSystem, OsrEvents};
use aoci_core::PolicyKind;
use aoci_ir::{decode_body, fusion_plan, BinOp, Cond, DecodedOp, FusedKind, Program, ProgramBuilder};
use aoci_vm::{CostModel, ExecCounters, Value, Vm};

fn baseline_result(p: &Program) -> Option<Value> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    Vm::new(p, cost).run_to_completion().expect("baseline run succeeds")
}

/// Same cadence tightening as `osr.rs`, plus a low back-edge threshold so
/// the first phase's loop raises its OSR request *before* the sampling
/// pipeline has formed any inline rules — that early context-keyed
/// compile is the guard-free specialized version the final phase's
/// dispatched transfer lands in.
fn fast(mut c: AosConfig) -> AosConfig {
    c.cost = CostModel { sample_period: 3_001, ..CostModel::default() };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.decay_period_samples = 64;
    c.vm.osr_backedge_threshold = 4;
    c
}

fn run(p: &Program, config: AosConfig) -> AosReport {
    AosSystem::new(p, config).run().expect("aos run succeeds")
}

/// Phased `spin` activations that make the version registry accumulate
/// differently-keyed versions before the guard shift:
///
/// - **Phase 1** (receiver A, call site S1, short): `spin` is still
///   baseline, so the loop raises an OSR request; the promotion compile
///   is keyed by the observed context `[main@S1]` and happens before any
///   inline rules exist — a guard-free optimized version specialized for
///   that context.
/// - **Phase 2** (receiver B, call site S2, long): teaches the profile
///   that `spin`'s call site now sees `B.val`.
/// - **Phase 3a** (receiver B, call site S1 — the same instruction as
///   phase 1, via the phase loop): the missing-edge organizer reacts to
///   the now-unambiguous `B.val` rule with a guarded recompile, installed
///   under a different context key — with version retention on this
///   *supersedes*, but does not release, the phase-1 version.
/// - **Phase 3b** (receiver B, same call site S1): enters the current
///   B-guarded version, which runs fine until `spin` itself swaps the
///   receiver back to A mid-loop. The guard shift arms OSR-out; the
///   dispatched exit observes context `[main@S1]`, finds the surviving
///   phase-1 version, and transfers into it instead of deoptimizing —
///   the rest of the loop stays optimized.
fn phased_receiver_shift(n1: i64, n2: i64, n3: i64) -> Program {
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
    let ga = b.global("obj_a");
    let spin = {
        // spin(n, shift_at): loop `n` times virtually calling `val` on the
        // global receiver; at iteration `shift_at` (if >= 0) swaps the
        // receiver to the stashed A instance mid-loop — the guard shift.
        let mut m = b.static_method("spin", 2);
        let i = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        let o = m.fresh_reg();
        let t = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(one, 1);
        let top = m.label();
        let out = m.label();
        let keep = m.label();
        // Const directly before the loop-top branch: the OSR exit's
        // baseline continuation pc is the second half of a fused
        // Const+Branch pair (pinned below).
        m.const_int(acc, 0);
        m.bind(top);
        m.branch(Cond::Ge, i, m.param(0), out);
        m.branch(Cond::Ne, i, m.param(1), keep);
        m.get_global(t, ga);
        m.put_global(g, t);
        m.bind(keep);
        m.get_global(o, g);
        m.call_virtual(Some(r), sel, o, &[]);
        // Self-work so timer samples attribute to `spin` itself (see the
        // identical note in osr.rs).
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
        m.put_global(ga, oa);
        let j = m.fresh_reg();
        let zero = m.fresh_reg();
        let one = m.fresh_reg();
        let two = m.fresh_reg();
        let three = m.fresh_reg();
        let c1 = m.fresh_reg();
        let c2 = m.fresh_reg();
        let c3 = m.fresh_reg();
        let neg = m.fresh_reg();
        let half = m.fresh_reg();
        let nn = m.fresh_reg();
        let shift = m.fresh_reg();
        let acc = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(j, 0);
        m.const_int(zero, 0);
        m.const_int(one, 1);
        m.const_int(two, 2);
        m.const_int(three, 3);
        m.const_int(c1, n1);
        m.const_int(c2, n2);
        m.const_int(c3, n3);
        m.const_int(neg, -1);
        m.const_int(half, n3 / 2);
        m.const_int(acc, 0);
        let loop_j = m.label();
        let out = m.label();
        let late = m.label();
        let docall = m.label();
        let skip2 = m.label();
        m.bind(loop_j);
        m.branch(Cond::Ge, j, three, out);
        m.branch(Cond::Ne, j, zero, late);
        // Phase 1: receiver A, short, no mid-loop shift.
        m.put_global(g, oa);
        m.bin(BinOp::Add, nn, c1, zero);
        m.bin(BinOp::Add, shift, neg, zero);
        m.jump(docall);
        m.bind(late);
        // Phases 3a/3b: receiver B. 3a (j == 1) just runs — its samples
        // teach the profile that this context now sees B, letting the
        // missing-edge organizer install the B-guarded recompile; 3b
        // (j == 2) shifts back to A halfway through, springing the guard.
        m.put_global(g, ob);
        m.bin(BinOp::Add, nn, c3, zero);
        m.bin(BinOp::Add, shift, half, zero);
        m.branch(Cond::Ne, j, one, docall);
        m.bin(BinOp::Add, shift, neg, zero);
        m.bind(docall);
        // Call site S1 — shared by phases 1 and 3, so both activations
        // observe the same calling context.
        m.call_static(Some(r), spin, &[nn, shift]);
        m.bin(BinOp::Add, acc, acc, r);
        m.branch(Cond::Ne, j, zero, skip2);
        // Phase 2: receiver B, long, no shift, from a distinct call site S2.
        m.put_global(g, ob);
        m.call_static(Some(r), spin, &[c2, neg]);
        m.bin(BinOp::Add, acc, acc, r);
        m.bind(skip2);
        m.bin(BinOp::Add, j, j, one);
        m.jump(loop_j);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };
    b.finish(main).unwrap()
}

/// Pins the shape the module doc claims: `spin`'s loop top — every OSR
/// exit's baseline continuation pc — is the second half of a fused
/// Const+Branch pair, so a dispatched transfer always leaves from (and
/// re-enters at) a pc inside a superinstruction.
#[test]
fn exit_pc_is_mid_fused_superinstruction() {
    let p = phased_receiver_shift(30, 8_000, 4_000);
    let spin = p.methods().find(|m| m.name() == "spin").expect("spin exists");
    let decoded = decode_body(spin.body(), &p);
    let plan = fusion_plan(&decoded);
    let top = decoded
        .iter()
        .enumerate()
        .find_map(|(pc, op)| match op {
            DecodedOp::Jump { target } if (*target as usize) < pc => Some(*target as usize),
            _ => None,
        })
        .expect("spin has a back edge");
    assert_eq!(
        plan[top - 1],
        Some(FusedKind::ConstBranch),
        "spin's loop top is not the second half of a fused Const+Branch pair"
    );
}

#[test]
fn guard_shift_transfers_into_specialized_version_and_saves_cycles() {
    let p = phased_receiver_shift(30, 8_000, 4_000);
    let expected = baseline_result(&p);

    // Identical configurations except for the deoptless flag: the classic
    // arm takes the very same guard-shift OSR exit but lands in baseline.
    let deoptless =
        fast(AosConfig::new(PolicyKind::Fixed { max: 3 }).enable_guard_monitoring())
            .enable_deoptless();
    let classic =
        fast(AosConfig::new(PolicyKind::Fixed { max: 3 }).enable_guard_monitoring()).enable_osr();

    let dispatched = run(&p, deoptless.clone());
    let fell_back = run(&p, classic);

    assert_eq!(dispatched.result, expected, "dispatched OSR must not change semantics");
    assert_eq!(fell_back.result, expected);
    assert!(
        dispatched.osr.dispatched_transfers >= 1,
        "the phase-3 guard shift must transfer into the surviving specialized \
         version, not baseline: {:?}",
        dispatched.osr
    );
    // The classic configuration has no dispatch machinery at all.
    assert_eq!(fell_back.osr.dispatched_transfers, 0);
    // The transfer pays off: the classic run deoptimizes the phase-3
    // activation to baseline and crawls, the dispatched run keeps it in
    // optimized code.
    assert!(
        dispatched.total_cycles() < fell_back.total_cycles(),
        "dispatched OSR must beat falling back to baseline: {} vs {} cycles",
        dispatched.total_cycles(),
        fell_back.total_cycles()
    );

    // Same-seed determinism, dispatch decisions included.
    let again = run(&p, deoptless);
    assert_eq!(dispatched.result, again.result);
    assert_eq!(dispatched.total_cycles(), again.total_cycles());
    assert_eq!(dispatched.counters, again.counters);
    assert_eq!(dispatched.osr, again.osr);
    assert_eq!(dispatched.recovery, again.recovery);
}

/// The dispatched transfer crossed a fused superinstruction boundary
/// (pinned above): the whole deoptless run must still cost exactly what it
/// cost when it was first pinned against an interpreter that never fused.
#[test]
fn dispatched_transfer_is_identical_across_dispatch_modes() {
    let p = phased_receiver_shift(30, 8_000, 4_000);
    let expected = baseline_result(&p);
    let c = fast(AosConfig::new(PolicyKind::Fixed { max: 3 }).enable_guard_monitoring())
        .enable_deoptless();
    let report = run(&p, c);
    assert_eq!(report.result, expected, "dispatch through fused code must not change semantics");
    assert!(
        report.osr.dispatched_transfers >= 1,
        "the scenario must actually dispatch: {:?}",
        report.osr
    );
    assert_eq!(report.total_cycles(), 1_132_827);
    assert_eq!(
        report.counters,
        ExecCounters {
            calls: 14_034,
            virtual_dispatches: 14_030,
            guard_checks: 2_091,
            guard_misses: 91,
            osr_entries: 1,
            osr_exits: 0,
            dispatched_transfers: 1,
            ..ExecCounters::default()
        }
    );
    let osr = OsrEvents { requests: 1, entries: 1, dispatched_transfers: 1, ..OsrEvents::default() };
    assert_eq!(report.osr, osr);
}
