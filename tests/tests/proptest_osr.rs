//! Property-based tests on OSR transfers: a round trip through an
//! [`OsrPoint`] — in at a loop header, out at the same header — must give
//! back every register of the root window (including reference-typed
//! ones), a frame smaller than the root window must be *refused* — never
//! a panic and never a silently corrupt frame — and an [`OsrMap`] must
//! reject duplicate points.

use aoci_ir::{BinOp, Cond, Instr, MethodId, Program, ProgramBuilder, Reg};
use aoci_vm::{
    Component, CostModel, InlineMap, MethodVersion, OptLevel, OsrError, OsrMap, OsrPoint,
    RunOutcome, Value, Vm, VmConfig,
};
use proptest::prelude::*;

/// How `main` fills one register of its root window before the loop.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Null,
    Int(i64),
    /// A fresh object.
    New,
    /// A copy of an earlier register (of itself, when it is the first).
    Alias(usize),
}

fn slots_strategy() -> impl Strategy<Value = Vec<Slot>> {
    let slot = prop_oneof![
        Just(Slot::Null),
        any::<i64>().prop_map(Slot::Int),
        Just(Slot::New),
        (0usize..12).prop_map(Slot::Alias),
    ];
    prop::collection::vec(slot, 1..12)
}

/// `main` fills one register per slot, runs a loop of 12 iterations headed
/// at the returned pc, then copies the slot registers into a fresh array
/// and returns it. `pad` registers above the rest are never touched.
fn frame_program(slots: &[Slot], pad: u16) -> (Program, MethodId, u32) {
    let mut b = ProgramBuilder::new();
    let class = b.class("A", None);
    let (main, header) = {
        let mut m = b.static_method("main", 0);
        let regs: Vec<Reg> = slots.iter().map(|_| m.fresh_reg()).collect();
        let [i, n, one, arr, idx] = [(); 5].map(|()| m.fresh_reg());
        for _ in 0..pad {
            m.fresh_reg();
        }
        for (k, (&r, slot)) in regs.iter().zip(slots).enumerate() {
            match *slot {
                Slot::Null => m.const_null(r),
                Slot::Int(v) => m.const_int(r, v),
                Slot::New => m.new_obj(r, class),
                Slot::Alias(j) => m.mov(r, regs[j % (k + 1)]),
            }
        }
        m.const_int(i, 0);
        m.const_int(n, 12);
        m.const_int(one, 1);
        let (top, out) = (m.label(), m.label());
        let header = u32::try_from(m.next_index()).expect("small body");
        m.bind(top);
        m.branch(Cond::Ge, i, n, out);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.const_int(idx, i64::try_from(regs.len()).expect("small frame"));
        m.arr_new(arr, idx);
        for (k, &r) in regs.iter().enumerate() {
            m.const_int(idx, i64::try_from(k).expect("small frame"));
            m.arr_set(arr, idx, r);
        }
        m.ret(Some(arr));
        (m.finish(), header)
    };
    (b.finish(main).expect("valid program"), main, header)
}

/// `main`'s body behind `shift` `Work` instructions, as optimized code of
/// `num_regs` registers with one point at `header`.
fn optimized(p: &Program, main: MethodId, header: u32, shift: u32, num_regs: u16) -> MethodVersion {
    let mut body = vec![Instr::Work { units: 1 }; shift as usize];
    body.extend(p.method(main).body().iter().map(|i| match *i {
        Instr::Jump { target } => Instr::Jump { target: target + shift },
        Instr::Branch { cond, lhs, rhs, target } => {
            Instr::Branch { cond, lhs, rhs, target: target + shift }
        }
        other => other,
    }));
    let point = OsrPoint { baseline_pc: header, opt_pc: header + shift };
    MethodVersion {
        level: OptLevel::Optimized,
        num_regs,
        inline_map: InlineMap::baseline(main, body.len()),
        body,
        osr_map: OsrMap::new(vec![point]).expect("one point"),
        ..MethodVersion::baseline(p.method(main))
    }
}

fn cost() -> CostModel {
    CostModel { sample_period: 0, ..CostModel::default() }
}

fn osr_vm(p: &Program) -> Vm<'_> {
    let config = VmConfig { osr_enabled: true, osr_backedge_threshold: 4, ..VmConfig::default() };
    Vm::with_config(p, cost(), config)
}

/// Runs until the loop asks for promotion at `header`.
fn until_hot(vm: &mut Vm<'_>, header: u32) {
    loop {
        match vm.run(u64::MAX).expect("no fault") {
            RunOutcome::OsrRequest(req) => return assert_eq!(req.loop_header, header),
            RunOutcome::Finished(_) => panic!("the loop never got hot"),
            _ => {}
        }
    }
}

/// Runs to completion and reads back the array `main` returns.
fn finish(vm: &mut Vm<'_>, len: usize) -> Vec<Value> {
    let Some(Value::Ref(arr)) = vm.run_to_completion().expect("no fault") else {
        panic!("main returns its array");
    };
    (0..len as i64).map(|k| vm.heap().arr_get(arr, k).expect("in bounds")).collect()
}

/// The registers a run without OSR ends with.
fn reference(p: &Program, len: usize) -> Vec<Value> {
    finish(&mut Vm::new(p, cost()), len)
}

proptest! {
    /// In at the loop header and straight back out: every register of the
    /// root window — nulls, integers, references, aliased references —
    /// comes back as a run without OSR has it, and each side is charged
    /// the root window.
    #[test]
    fn identity_roundtrip_is_lossless(
        slots in slots_strategy(),
        extra in 0u16..6,
        shift in 0u32..4,
    ) {
        let (p, main, header) = frame_program(&slots, 0);
        let n = p.method(main).num_regs();
        let mut vm = osr_vm(&p);
        until_hot(&mut vm, header);
        vm.registry_mut().install(optimized(&p, main, header, shift, n + extra));
        prop_assert!(vm.osr_enter(header));
        prop_assert!(vm.registry_mut().invalidate(main));
        prop_assert_eq!(finish(&mut vm, slots.len()), reference(&p, slots.len()));
        prop_assert_eq!((vm.counters().osr_entries, vm.counters().osr_exits), (1, 1));
        let charged = 2 * vm.cost_model().osr_transfer_cost(usize::from(n));
        prop_assert_eq!(vm.clock().component(Component::Osr), charged);
    }

    /// A frame with fewer registers than the root window is refused in
    /// both directions, and the activation finishes where it was with the
    /// registers a run without OSR ends with.
    #[test]
    fn short_frames_are_refused(
        slots in slots_strategy(),
        pad in 1u16..4,
        shift in 0u32..4,
    ) {
        let (p, main, header) = frame_program(&slots, pad);
        let n = p.method(main).num_regs();
        let expected = reference(&p, slots.len());
        // OSR-in from a baseline frame `pad` registers short.
        let mut vm = osr_vm(&p);
        let baseline =
            MethodVersion { num_regs: n - pad, ..MethodVersion::baseline(p.method(main)) };
        vm.registry_mut().install(baseline);
        until_hot(&mut vm, header);
        vm.registry_mut().install(optimized(&p, main, header, shift, n));
        prop_assert!(!vm.osr_enter(header));
        prop_assert_eq!(finish(&mut vm, slots.len()), expected.clone());
        // OSR-out from an optimized frame `pad` registers short.
        let mut vm = osr_vm(&p);
        vm.registry_mut().install(optimized(&p, main, header, shift, n - pad));
        prop_assert!(matches!(vm.run(1), Ok(RunOutcome::BudgetExhausted)));
        prop_assert!(vm.registry_mut().invalidate(main));
        prop_assert_eq!(finish(&mut vm, slots.len()), expected);
        prop_assert_eq!((vm.counters().osr_entries, vm.counters().osr_exits), (0, 0));
        prop_assert_eq!(vm.clock().component(Component::Osr), 0);
    }

    /// `OsrMap::new` accepts a point list exactly when no two points share
    /// a pc on either side, and the accepted map answers both lookups.
    #[test]
    fn map_construction_rejects_exactly_duplicates(
        pcs in prop::collection::vec((0u32..6, 0u32..6), 0..6),
    ) {
        let points: Vec<OsrPoint> =
            pcs.iter().map(|&(baseline_pc, opt_pc)| OsrPoint { baseline_pc, opt_pc }).collect();
        let mut base: Vec<u32> = pcs.iter().map(|p| p.0).collect();
        let mut opt: Vec<u32> = pcs.iter().map(|p| p.1).collect();
        base.sort_unstable();
        base.dedup();
        opt.sort_unstable();
        opt.dedup();
        let unique = base.len() == pcs.len() && opt.len() == pcs.len();
        match OsrMap::new(points) {
            Ok(map) => {
                prop_assert!(unique);
                prop_assert_eq!(map.len(), pcs.len());
                for &(b, o) in &pcs {
                    prop_assert_eq!(map.entry_at_baseline(b).unwrap().opt_pc, o);
                    prop_assert_eq!(map.exit_at_opt(o).unwrap().baseline_pc, b);
                }
            }
            Err(e) => {
                prop_assert!(!unique);
                prop_assert_eq!(e, OsrError::DuplicatePoint);
            }
        }
    }
}
