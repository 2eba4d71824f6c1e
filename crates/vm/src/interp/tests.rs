use super::*;
use crate::code::{InlineMapBuilder, MethodVersion, OptLevel};
use aoci_ir::{BinOp, Cond, ProgramBuilder, SiteIdx};

fn run_main(build: impl FnOnce(&mut ProgramBuilder) -> aoci_ir::MethodId) -> Option<Value> {
    let mut b = ProgramBuilder::new();
    let main = build(&mut b);
    let p = b.finish(main).expect("valid program");
    let mut vm = Vm::new(&p, CostModel::default());
    vm.run_to_completion().expect("no fault")
}

/// The decoded form pins its layout: a `Copy` op of 16 bytes that owns no
/// allocation (call arguments sit in the body's pool), in a 32-byte slot.
#[test]
fn decoded_slots_are_32_bytes() {
    fn copy<T: Copy>() {}
    copy::<aoci_ir::DecodedOp>();
    assert_eq!(std::mem::size_of::<aoci_ir::DecodedOp>(), 16);
    assert_eq!(std::mem::size_of::<decode::DecodedInstr>(), 32);
}

/// An activation is its code slot, its window base, its return register and
/// its pc: 24 bytes, copied out and back at every call, return and yield.
#[test]
fn frames_are_24_bytes() {
    assert_eq!(std::mem::size_of::<Frame>(), 24);
}

#[test]
fn arithmetic_and_branches() {
    // Compute sum 1..=5 with a loop.
    let v = run_main(|b| {
        let mut m = b.static_method("main", 0);
        let i = m.fresh_reg();
        let sum = m.fresh_reg();
        let limit = m.fresh_reg();
        let one = m.fresh_reg();
        m.const_int(i, 1);
        m.const_int(sum, 0);
        m.const_int(limit, 5);
        m.const_int(one, 1);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Gt, i, limit, out);
        m.bin(BinOp::Add, sum, sum, i);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(sum));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(15));
}

#[test]
fn fields_and_objects() {
    let v = run_main(|b| {
        let a = b.class("A", None);
        let f = b.field(a, "x");
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(o, a);
        m.const_int(r, 77);
        m.put_field(o, f, r);
        let out = m.fresh_reg();
        m.get_field(out, o, f);
        m.ret(Some(out));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(77));
}

#[test]
fn arrays_and_globals() {
    let v = run_main(|b| {
        let g = b.global("counter");
        let mut m = b.static_method("main", 0);
        let len = m.fresh_reg();
        let arr = m.fresh_reg();
        let idx = m.fresh_reg();
        let val = m.fresh_reg();
        m.const_int(len, 4);
        m.arr_new(arr, len);
        m.const_int(idx, 2);
        m.const_int(val, 9);
        m.arr_set(arr, idx, val);
        let got = m.fresh_reg();
        m.arr_get(got, arr, idx);
        m.put_global(g, got);
        let out = m.fresh_reg();
        m.get_global(out, g);
        let n = m.fresh_reg();
        m.arr_len(n, arr);
        m.bin(BinOp::Add, out, out, n);
        m.ret(Some(out));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(13));
}

#[test]
fn virtual_dispatch_picks_dynamic_class() {
    let v = run_main(|b| {
        let sel = b.selector("val", 0);
        let a = b.class("A", None);
        let c = b.class("B", Some(a));
        {
            let mut m = b.virtual_method("A.val", a, sel);
            let r = m.fresh_reg();
            m.const_int(r, 1);
            m.ret(Some(r));
            m.finish();
        }
        {
            let mut m = b.virtual_method("B.val", c, sel);
            let r = m.fresh_reg();
            m.const_int(r, 2);
            m.ret(Some(r));
            m.finish();
        }
        let mut m = b.static_method("main", 0);
        let oa = m.fresh_reg();
        let ob = m.fresh_reg();
        let ra = m.fresh_reg();
        let rb = m.fresh_reg();
        m.new_obj(oa, a);
        m.new_obj(ob, c);
        m.call_virtual(Some(ra), sel, oa, &[]);
        m.call_virtual(Some(rb), sel, ob, &[]);
        let shift = m.fresh_reg();
        m.const_int(shift, 10);
        m.bin(BinOp::Mul, rb, rb, shift);
        m.bin(BinOp::Add, ra, ra, rb);
        m.ret(Some(ra));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(21));
}

#[test]
fn inherited_method_dispatch() {
    let v = run_main(|b| {
        let sel = b.selector("val", 0);
        let a = b.class("A", None);
        let sub = b.class("Sub", Some(a)); // does not override
        {
            let mut m = b.virtual_method("A.val", a, sel);
            let r = m.fresh_reg();
            m.const_int(r, 5);
            m.ret(Some(r));
            m.finish();
        }
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(o, sub);
        m.call_virtual(Some(r), sel, o, &[]);
        m.ret(Some(r));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(5));
}

#[test]
fn recursion_with_arguments() {
    // fib(10) = 55 via naive recursion.
    let v = run_main(|b| {
        let fib = {
            let mut m = b.static_method("fib", 1);
            let n = m.param(0);
            let two = m.fresh_reg();
            m.const_int(two, 2);
            let recurse = m.label();
            m.branch(Cond::Ge, n, two, recurse);
            m.ret(Some(n));
            m.bind(recurse);
            let one = m.fresh_reg();
            let a = m.fresh_reg();
            let c = m.fresh_reg();
            let t = m.fresh_reg();
            m.const_int(one, 1);
            m.bin(BinOp::Sub, t, n, one);
            m.call_static(Some(a), m.id(), &[t]);
            m.bin(BinOp::Sub, t, n, two);
            m.call_static(Some(c), m.id(), &[t]);
            m.bin(BinOp::Add, a, a, c);
            m.ret(Some(a));
            m.finish()
        };
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(n, 10);
        m.call_static(Some(r), fib, &[n]);
        m.ret(Some(r));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(55));
}

#[test]
fn instance_of_respects_subtyping() {
    let v = run_main(|b| {
        let a = b.class("A", None);
        let sub = b.class("Sub", Some(a));
        let other = b.class("Other", None);
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        m.new_obj(o, sub);
        let r1 = m.fresh_reg();
        let r2 = m.fresh_reg();
        let r3 = m.fresh_reg();
        m.instance_of(r1, o, a); // 1: Sub <: A
        m.instance_of(r2, o, other); // 0
        let n = m.fresh_reg();
        m.const_null(n);
        m.instance_of(r3, n, a); // 0: null
        let ten = m.fresh_reg();
        m.const_int(ten, 10);
        m.bin(BinOp::Mul, r1, r1, ten);
        m.bin(BinOp::Add, r1, r1, r2);
        m.bin(BinOp::Add, r1, r1, r3);
        m.ret(Some(r1));
        m.finish()
    });
    assert_eq!(v.and_then(Value::as_int), Some(10));
}

/// The budget of a free `run`, or — `stepped` — of one instruction per
/// `run`: no superinstruction ever fuses, and every check of the schedule
/// runs after every step.
fn budget(stepped: bool) -> u64 {
    if stepped {
        1
    } else {
        u64::MAX
    }
}

/// Runs to completion, freely or `stepped` (see [`budget`]).
fn complete(vm: &mut Vm<'_>, stepped: bool) -> Result<Option<Value>, VmError> {
    loop {
        if let RunOutcome::Finished(v) = vm.run(budget(stepped))? {
            return Ok(v);
        }
    }
}

fn faulting_program(
    build: impl FnOnce(&mut ProgramBuilder) -> aoci_ir::MethodId,
) -> VmError {
    let mut b = ProgramBuilder::new();
    let main = build(&mut b);
    let p = b.finish(main).expect("valid program");
    let mut vm = Vm::new(&p, CostModel::default());
    vm.run_to_completion().expect_err("program faults")
}

#[test]
fn null_deref_faults() {
    let e = faulting_program(|b| {
        let a = b.class("A", None);
        let f = b.field(a, "x");
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_null(o);
        m.get_field(r, o, f);
        m.ret(None);
        m.finish()
    });
    assert!(matches!(e, VmError::NullDeref { .. }));
}

#[test]
fn divide_by_zero_faults() {
    let e = faulting_program(|b| {
        let mut m = b.static_method("main", 0);
        let a = m.fresh_reg();
        let z = m.fresh_reg();
        m.const_int(a, 1);
        m.const_int(z, 0);
        m.bin(BinOp::Div, a, a, z);
        m.ret(None);
        m.finish()
    });
    assert!(matches!(e, VmError::DivideByZero { .. }));
}

#[test]
fn index_out_of_bounds_faults() {
    let e = faulting_program(|b| {
        let mut m = b.static_method("main", 0);
        let len = m.fresh_reg();
        let arr = m.fresh_reg();
        let idx = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(len, 2);
        m.arr_new(arr, len);
        m.const_int(idx, 5);
        m.arr_get(r, arr, idx);
        m.ret(None);
        m.finish()
    });
    assert!(matches!(e, VmError::IndexOutOfBounds { index: 5, .. }));
}

/// A length that does not fit the heap's `u32` faults at the `ArrNew`; it is
/// not truncated (`2^32 + 3` used to allocate three elements).
#[test]
fn array_length_beyond_u32_faults() {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        let (n, arr) = (m.fresh_reg(), m.fresh_reg());
        m.const_int(n, (1 << 32) + 3);
        m.arr_new(arr, n);
        m.arr_len(n, arr);
        m.ret(Some(n));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let mut vm = Vm::new(&p, CostModel::default());
        let e = complete(&mut vm, stepped).expect_err("no such array");
        let expect = VmError::ArrayTooLarge { method: main, pc: 1, len: (1 << 32) + 3 };
        assert_eq!(e, expect, "stepped={stepped}");
        assert!(vm.heap().is_empty(), "stepped={stepped}: nothing was allocated");
    }
}

/// `StackOverflow` fires at exactly `MAX_STACK_DEPTH` frames, and the call
/// that overflows leaves the register stack as it found it.
#[test]
fn stack_overflow_faults() {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        for _ in 0..3 {
            m.fresh_reg();
        }
        m.call_static(None, m.id(), &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let mut vm = Vm::new(&p, CostModel::default());
        let e = complete(&mut vm, stepped).expect_err("overflows");
        assert!(matches!(e, VmError::StackOverflow { limit: 4096 }), "stepped={stepped}: {e:?}");
        assert_eq!(vm.stack_depth(), 4096, "stepped={stepped}: the 4097th frame is the one refused");
        assert_eq!(vm.regs.len(), 4096 * 3, "stepped={stepped}: the refused call grew no window");
    }
}

/// A hand-compiled 2-register `main`, installed as optimized code so that
/// the run pays no baseline compile of its own: `first`, then `call`, whose
/// arguments are `arg_pool`.
fn two_register_main(
    main: aoci_ir::MethodId,
    first: Instr,
    call: Instr,
    arg_pool: Vec<Reg>,
) -> MethodVersion {
    let body = vec![first, call, Instr::Return { src: None }];
    MethodVersion {
        method: main,
        level: OptLevel::Optimized,
        inline_map: crate::InlineMap::baseline(main, body.len()),
        body,
        arg_pool: arg_pool.into(),
        num_regs: 2,
        code_size: 3,
        version_id: crate::VersionId::default(),
        osr_map: crate::OsrMap::empty(),
    }
}

/// An unreadable argument register is the *caller's* fault, found before
/// anything about the callee happens: no baseline compile is charged for
/// it, no frame or window is opened.
#[test]
fn unreadable_argument_faults_in_the_caller_before_the_callee_compiles() {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("take", 1);
    let a = b.class("A", None);
    let a_take = {
        let mut m = b.virtual_method("A.take", a, sel);
        m.ret(None);
        m.finish()
    };
    let callee = {
        let mut m = b.static_method("callee", 1);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        m.new_obj(o, a);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    // Both calls pass register 9 of the 2-register frame.
    let new_receiver = Instr::New { dst: Reg(0), class: a };
    let nine = aoci_ir::ArgSpan::new(0, 1).expect("one argument");
    let static_call = Instr::CallStatic { site: SiteIdx(0), dst: None, callee, args: nine };
    let virtual_call =
        Instr::CallVirtual { site: SiteIdx(0), dst: None, selector: sel, recv: Reg(0), args: nine };
    for stepped in [false, true] {
        for (call, target) in [(&static_call, callee), (&virtual_call, a_take)] {
            let version = two_register_main(main, new_receiver, *call, vec![Reg(9)]);
            let mut vm = Vm::new(&p, CostModel::default());
            vm.registry_mut().install(version);
            let e = complete(&mut vm, stepped).expect_err("register 9 does not exist");
            assert!(
                matches!(e, VmError::BadRegister { method, pc: 1, reg: 9 } if method == main),
                "stepped={stepped}: the fault names the caller and its call instruction: {e:?}"
            );
            assert_eq!(vm.clock().component(Component::BaselineCompilation), 0, "stepped={stepped}");
            assert!(vm.registry().current(target).is_none(), "stepped={stepped}: callee untouched");
            assert_eq!((vm.stack_depth(), vm.regs.len()), (1, 2), "stepped={stepped}");
            assert_eq!(vm.counters().calls, 1, "stepped={stepped}: the call itself was counted");
        }
    }
}

/// The callee's window is wider than the caller's and it writes all of it;
/// the return value lands in the caller's destination register and the
/// caller's other registers survive.
#[test]
fn wide_callee_returns_into_the_right_caller_slot() {
    let mut b = ProgramBuilder::new();
    let wide = {
        let mut m = b.static_method("wide", 1);
        let regs: Vec<Reg> = (0..12).map(|_| m.fresh_reg()).collect();
        for (i, r) in regs.iter().enumerate() {
            m.const_int(*r, 1000 + i as i64);
        }
        m.bin(BinOp::Add, regs[11], regs[11], m.param(0));
        m.ret(Some(regs[11]));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let keep = m.fresh_reg();
        let arg = m.fresh_reg();
        let got = m.fresh_reg();
        m.const_int(keep, 7);
        m.const_int(arg, 30);
        m.const_int(got, -1);
        m.call_static(Some(got), wide, &[arg]);
        // keep * 10_000 + got: both halves must be intact.
        let k = m.fresh_reg();
        m.const_int(k, 10_000);
        m.bin(BinOp::Mul, keep, keep, k);
        m.bin(BinOp::Add, keep, keep, got);
        m.ret(Some(keep));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let mut vm = Vm::new(&p, CostModel::default());
        let v = complete(&mut vm, stepped).expect("no fault");
        assert_eq!(v.and_then(Value::as_int), Some(70_000 + 1011 + 30), "stepped={stepped}");
        assert!(vm.regs.is_empty(), "stepped={stepped}: every window was given back");
    }
}

/// 4 000 nested activations (just under the default depth limit) grow the
/// register stack to 4 001 windows and unwind it to the reference result.
#[test]
fn deep_recursion_unwinds_to_the_reference_result() {
    let mut b = ProgramBuilder::new();
    let sum = {
        let mut m = b.static_method("sum", 1);
        let n = m.param(0);
        let zero = m.fresh_reg();
        m.const_int(zero, 0);
        let recurse = m.label();
        m.branch(Cond::Gt, n, zero, recurse);
        m.ret(Some(zero));
        m.bind(recurse);
        let one = m.fresh_reg();
        let t = m.fresh_reg();
        m.const_int(one, 1);
        m.bin(BinOp::Sub, t, n, one);
        m.call_static(Some(t), m.id(), &[t]);
        m.bin(BinOp::Add, t, t, n);
        m.ret(Some(t));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        m.const_int(n, 4000);
        m.call_static(Some(n), sum, &[n]);
        m.ret(Some(n));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let cost = CostModel { sample_period: 0, ..CostModel::default() };
        let mut vm = Vm::new(&p, cost);
        let mut deepest = 0;
        // One instruction per `run` observes the deepest point; so do two
        // instructions' worth of cycles, which lets `sum`'s leading
        // Const+Branch fuse and still stops inside every activation.
        let slice = if stepped { 1 } else { 2 * vm.cost_model().baseline_factor };
        let v = loop {
            match vm.run(slice).expect("no fault") {
                RunOutcome::Finished(v) => break v,
                _ => deepest = deepest.max(vm.stack_depth()),
            }
        };
        assert_eq!(v.and_then(Value::as_int), Some(4000 * 4001 / 2), "stepped={stepped}");
        assert_eq!(deepest, 4002, "stepped={stepped}: main + sum(4000) ..= sum(0)");
        assert!(vm.regs.is_empty(), "stepped={stepped}");
    }
}

/// `main` (3 registers, one a sentinel) suspended on a call to `looper`,
/// whose baseline code has 4 registers and whose hand-compiled optimized
/// code has 7. Returns the program, `looper`, its optimized version (OSR
/// point at the loop header: baseline pc 3, optimized pc 4) and the
/// program's result.
fn osr_resize_fixture() -> (aoci_ir::Program, aoci_ir::MethodId, MethodVersion, i64) {
    let mut b = ProgramBuilder::new();
    let looper = {
        let mut m = b.static_method("looper", 1);
        let (i, sum, one) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(i, 0);
        m.const_int(sum, 0);
        m.const_int(one, 1);
        let (top, out) = (m.label(), m.label());
        m.bind(top);
        m.branch(Cond::Ge, i, m.param(0), out);
        m.bin(BinOp::Add, sum, sum, i);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(sum));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let (sentinel, n, got) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(sentinel, 1234);
        m.const_int(n, 1000);
        m.call_static(Some(got), looper, &[n]);
        m.bin(BinOp::Add, got, got, sentinel);
        m.ret(Some(got));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    // The baseline loop behind one extra instruction, with three scratch
    // registers above the root window that the loop body keeps touching.
    let (n, i, sum, one) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let body = vec![
        Instr::Const { dst: Reg(6), value: 99 },
        Instr::Const { dst: i, value: 0 },
        Instr::Const { dst: sum, value: 0 },
        Instr::Const { dst: one, value: 1 },
        Instr::Branch { cond: Cond::Ge, lhs: i, rhs: n, target: 9 },
        Instr::Move { dst: Reg(5), src: Reg(6) },
        Instr::Bin { op: BinOp::Add, dst: sum, lhs: sum, rhs: i },
        Instr::Bin { op: BinOp::Add, dst: i, lhs: i, rhs: one },
        Instr::Jump { target: 4 },
        Instr::Return { src: Some(sum) },
    ];
    let version = MethodVersion {
        method: looper,
        level: OptLevel::Optimized,
        inline_map: crate::InlineMap::baseline(looper, body.len()),
        body,
        arg_pool: Vec::new().into(),
        num_regs: 7,
        code_size: 10,
        version_id: crate::VersionId::default(),
        osr_map: crate::OsrMap::new(vec![crate::OsrPoint { baseline_pc: 3, opt_pc: 4 }])
            .expect("one point"),
    };
    (p, looper, version, 1234 + 999 * 1000 / 2)
}

/// OSR-in widens the top window from 4 to 7 registers where it sits; the
/// suspended caller's window beneath it is untouched.
#[test]
fn osr_in_resizes_the_top_window_above_a_suspended_caller() {
    let (p, looper, version, expect) = osr_resize_fixture();
    for stepped in [false, true] {
        let config =
            VmConfig { osr_enabled: true, osr_backedge_threshold: 16, ..VmConfig::default() };
        let cost = CostModel { sample_period: 0, ..CostModel::default() };
        let mut vm = Vm::with_config(&p, cost, config);
        let req = loop {
            match vm.run(budget(stepped)).expect("no fault") {
                RunOutcome::OsrRequest(req) => break req,
                RunOutcome::Finished(_) => panic!("stepped={stepped}: the loop never got hot"),
                _ => {}
            }
        };
        assert_eq!((req.method, req.loop_header), (looper, 3), "stepped={stepped}");
        let caller = vm.regs[..3].to_vec();
        assert_eq!((vm.stack_depth(), vm.regs.len()), (2, 3 + 4), "stepped={stepped}");
        vm.registry_mut().install(version.clone());
        assert!(vm.osr_enter(req.loop_header), "stepped={stepped}");
        assert_eq!(vm.regs.len(), 3 + 7, "stepped={stepped}: the top window grew in place");
        assert_eq!(&vm.regs[..3], &caller[..], "stepped={stepped}: caller window untouched");
        assert_eq!(&vm.regs[7..], &[Value::Null; 3], "stepped={stepped}: new registers start null");
        let v = complete(&mut vm, stepped).expect("no fault");
        assert_eq!(v.and_then(Value::as_int), Some(expect), "stepped={stepped}");
        assert_eq!(vm.counters().osr_entries, 1, "stepped={stepped}");
        assert!(vm.regs.is_empty(), "stepped={stepped}");
    }
}

#[test]
fn baseline_compilation_charged_once_per_method() {
    let mut b = ProgramBuilder::new();
    let callee = {
        let mut m = b.static_method("callee", 0);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, callee, &[]);
        m.call_static(None, callee, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    let mut vm = Vm::new(&p, CostModel::default());
    vm.run_to_completion().expect("ok");
    assert_eq!(vm.registry().baseline_compilations(), 2); // main + callee
    assert!(vm.clock().component(Component::BaselineCompilation) > 0);
}

#[test]
fn samples_fire_periodically() {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        for _ in 0..100 {
            m.work(100);
        }
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    let cost = CostModel { sample_period: 1000, baseline_factor: 1, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    let mut samples = 0;
    loop {
        match vm.run(u64::MAX).expect("ok") {
            RunOutcome::Sample(s) => {
                samples += 1;
                assert_eq!(s.top_method(), Some(main));
                assert_eq!(s.root_method, main);
            }
            RunOutcome::Finished(_) => break,
            RunOutcome::BudgetExhausted | RunOutcome::OsrRequest(_) => unreachable!(),
        }
    }
    // ~10_000 cycles of work at period 1000 (+ compile time) → around 10.
    assert!((8..=13).contains(&samples), "got {samples} samples");
}

#[test]
fn budget_exhaustion_is_resumable() {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        for _ in 0..10 {
            m.work(100);
        }
        let r = m.fresh_reg();
        m.const_int(r, 4);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    let mut exhausted = 0;
    let result = loop {
        match vm.run(500).expect("ok") {
            RunOutcome::BudgetExhausted => exhausted += 1,
            RunOutcome::Finished(v) => break v,
            RunOutcome::Sample(_) | RunOutcome::OsrRequest(_) => unreachable!("sampling disabled"),
        }
    };
    assert!(exhausted > 1);
    assert_eq!(result.and_then(Value::as_int), Some(4));
}

#[test]
fn snapshot_reports_call_chain_and_prologue() {
    let mut b = ProgramBuilder::new();
    let leaf = {
        let mut m = b.static_method("leaf", 0);
        m.work(10_000);
        m.ret(None);
        m.finish()
    };
    let mid = {
        let mut m = b.static_method("mid", 0);
        m.call_static(None, leaf, &[]);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, mid, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    let cost = CostModel { sample_period: 5000, baseline_factor: 1, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    let snap = loop {
        match vm.run(u64::MAX).expect("ok") {
            RunOutcome::Sample(s) if s.top_method() == Some(leaf) => break s,
            RunOutcome::Sample(_) => continue,
            RunOutcome::Finished(_) => panic!("expected a sample in leaf"),
            RunOutcome::BudgetExhausted | RunOutcome::OsrRequest(_) => unreachable!(),
        }
    };
    let methods: Vec<_> = snap.frames.iter().map(|f| f.method).collect();
    assert_eq!(methods, vec![leaf, mid, main]);
    // mid called leaf at its site 0; main called mid at its site 0.
    assert_eq!(snap.frames[1].callsite_to_inner, Some(SiteIdx(0)));
    assert_eq!(snap.frames[2].callsite_to_inner, Some(SiteIdx(0)));
    assert_eq!(snap.frames[0].callsite_to_inner, None);
}

/// Builds an optimized version by hand (the inliner does this in `aoci-opt`)
/// and checks that (a) the VM executes it, (b) snapshots see through the
/// inlining via the inline map.
#[test]
fn optimized_code_with_inline_map_recovers_source_frames() {
    let mut b = ProgramBuilder::new();
    let inner = {
        let mut m = b.static_method("inner", 0);
        m.work(50_000);
        let r = m.fresh_reg();
        m.const_int(r, 3);
        m.ret(Some(r));
        m.finish()
    };
    let outer = {
        let mut m = b.static_method("outer", 0);
        let r = m.fresh_reg();
        m.call_static(Some(r), inner, &[]);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(outer).expect("valid program");

    // Hand-inlined body of `outer` with `inner` spliced at site 0:
    //   0: work 50_000        (inner)
    //   1: r1 = const 3       (inner, renamed)
    //   2: r0 = r1            (inner's return feeding outer's r0)
    //   3: return r0          (outer)
    let mut map = InlineMapBuilder::new(outer);
    let node = map.add_node(map.root(), SiteIdx(0), inner, 0);
    map.push_instr(node);
    map.push_instr(node);
    map.push_instr(node);
    map.push_instr(map.root());
    let body = vec![
        Instr::Work { units: 50_000 },
        Instr::Const { dst: Reg(1), value: 3 },
        Instr::Move { dst: Reg(0), src: Reg(1) },
        Instr::Return { src: Some(Reg(0)) },
    ];
    let version = MethodVersion {
        method: outer,
        level: OptLevel::Optimized,
        body,
        arg_pool: Vec::new().into(),
        num_regs: 2,
        inline_map: map.finish(),
        code_size: 50_003,
        version_id: crate::VersionId::default(),
        osr_map: crate::OsrMap::empty(),
    };

    let cost = CostModel { sample_period: 10_000, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    vm.registry_mut().install(version);
    let mut saw_inlined_frame = false;
    let result = loop {
        match vm.run(u64::MAX).expect("ok") {
            RunOutcome::Sample(s) => {
                if s.top_method() == Some(inner) {
                    saw_inlined_frame = true;
                    // Source-level stack: inner (inlined at outer@0) → outer.
                    assert_eq!(s.frames.len(), 2);
                    assert_eq!(s.frames[1].method, outer);
                    assert_eq!(s.frames[1].callsite_to_inner, Some(SiteIdx(0)));
                    // Machine-level root is the optimized `outer`.
                    assert_eq!(s.root_method, outer);
                }
            }
            RunOutcome::Finished(v) => break v,
            RunOutcome::BudgetExhausted | RunOutcome::OsrRequest(_) => unreachable!(),
        }
    };
    assert_eq!(result.and_then(Value::as_int), Some(3));
    assert!(saw_inlined_frame, "expected a sample inside the inlined body");
    assert!(vm.clock().component(Component::AppOptimized) > 0);
}

/// Same as above but with the naive (non-source-level) walk: the inlined
/// frame must be invisible, demonstrating the misleading-sample problem the
/// paper describes.
#[test]
fn naive_walk_hides_inlined_frames() {
    let mut b = ProgramBuilder::new();
    let inner = {
        let mut m = b.static_method("inner", 0);
        m.work(50_000);
        m.ret(None);
        m.finish()
    };
    let outer = {
        let mut m = b.static_method("outer", 0);
        m.call_static(None, inner, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(outer).expect("valid program");

    let mut map = InlineMapBuilder::new(outer);
    let node = map.add_node(map.root(), SiteIdx(0), inner, 0);
    map.push_instr(node);
    map.push_instr(map.root());
    let version = MethodVersion {
        method: outer,
        level: OptLevel::Optimized,
        body: vec![Instr::Work { units: 50_000 }, Instr::Return { src: None }],
        arg_pool: Vec::new().into(),
        num_regs: 0,
        inline_map: map.finish(),
        code_size: 50_001,
        version_id: crate::VersionId::default(),
        osr_map: crate::OsrMap::empty(),
    };

    let cost = CostModel { sample_period: 10_000, ..CostModel::default() };
    let config = VmConfig { source_level_walk: false, ..VmConfig::default() };
    let mut vm = Vm::with_config(&p, cost, config);
    vm.registry_mut().install(version);
    let mut samples = 0;
    loop {
        match vm.run(u64::MAX).expect("ok") {
            RunOutcome::Sample(s) => {
                samples += 1;
                // The naive walk attributes everything to `outer`.
                assert_eq!(s.top_method(), Some(outer));
            }
            RunOutcome::Finished(_) => break,
            RunOutcome::BudgetExhausted | RunOutcome::OsrRequest(_) => unreachable!(),
        }
    }
    assert!(samples > 0);
}

/// `main` returns `call(A) + 10 * call(B)`, where `A.val` is 1 and `B.val`
/// 2, so 21; with it, a guarded-inline version of `call`: guard the
/// receiver is an `A` → inlined const 1, else virtual call (fallback).
fn guarded_call_fixture() -> (aoci_ir::Program, MethodVersion) {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let c = b.class("B", Some(a));
    let a_val = {
        let mut m = b.virtual_method("A.val", a, sel);
        let r = m.fresh_reg();
        m.const_int(r, 1);
        m.ret(Some(r));
        m.finish()
    };
    {
        let mut m = b.virtual_method("B.val", c, sel);
        let r = m.fresh_reg();
        m.const_int(r, 2);
        m.ret(Some(r));
        m.finish();
    }
    let call = {
        let mut m = b.static_method("call", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), sel, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let oa = m.fresh_reg();
        let ob = m.fresh_reg();
        let ra = m.fresh_reg();
        let rb = m.fresh_reg();
        m.new_obj(oa, a);
        m.new_obj(ob, c);
        m.call_static(Some(ra), call, &[oa]);
        m.call_static(Some(rb), call, &[ob]);
        let ten = m.fresh_reg();
        m.const_int(ten, 10);
        m.bin(BinOp::Mul, rb, rb, ten);
        m.bin(BinOp::Add, ra, ra, rb);
        m.ret(Some(ra));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");

    // Hand-build guarded-inline version of `call`:
    //   0: guard r0 is A else 4
    //   1: r2 = const 1        (inlined A.val, renamed)
    //   2: r1 = r2
    //   3: jump 5
    //   4: r1 = vcall val(r0)  (fallback)
    //   5: return r1
    let mut map = InlineMapBuilder::new(call);
    let node = map.add_node(map.root(), SiteIdx(0), a_val, 1);
    map.push_instr(map.root());
    map.push_instr(node);
    map.push_instr(node);
    map.push_instr(map.root());
    map.push_instr(map.root());
    map.push_instr(map.root());
    let body = vec![
        Instr::GuardClass { recv: Reg(0), class: a, else_target: 4 },
        Instr::Const { dst: Reg(2), value: 1 },
        Instr::Move { dst: Reg(1), src: Reg(2) },
        Instr::Jump { target: 5 },
        Instr::CallVirtual {
            site: SiteIdx(0),
            dst: Some(Reg(1)),
            selector: sel,
            recv: Reg(0),
            args: aoci_ir::ArgSpan::default(),
        },
        Instr::Return { src: Some(Reg(1)) },
    ];
    let version = MethodVersion {
        method: call,
        level: OptLevel::Optimized,
        body,
        arg_pool: Vec::new().into(),
        num_regs: 3,
        inline_map: map.finish(),
        code_size: 20,
        version_id: crate::VersionId::default(),
        osr_map: crate::OsrMap::empty(),
    };
    (p, version)
}

#[test]
fn guard_class_dispatches_inline_vs_fallback() {
    let (p, version) = guarded_call_fixture();
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    vm.registry_mut().install(version);
    let v = vm.run_to_completion().expect("ok");
    // A-receiver takes the inlined path (1); B-receiver fails the guard and
    // falls back to virtual dispatch (2): result 1 + 2*10 = 21.
    assert_eq!(v.and_then(Value::as_int), Some(21));
}

#[test]
fn forced_misses_fail_the_next_guards_and_are_booked_as_misses() {
    let (p, version) = guarded_call_fixture();
    let call = version.method;
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let reference = Vm::new(&p, cost.clone()).run_to_completion().expect("ok");
    assert_eq!(reference.and_then(Value::as_int), Some(21));
    // The run executes two guards: the `A` one passes on its own, the `B`
    // one misses on its own. A budget of `n` fails the first `n` of them.
    for (n, misses) in [(0, 1), (1, 2), (2, 2), (5, 2)] {
        let mut vm = Vm::new(&p, cost.clone());
        let sink = TraceSink::new(aoci_trace::TraceConfig::default());
        vm.set_trace_sink(sink.clone());
        vm.registry_mut().install(version.clone());
        vm.force_guard_misses(call, n);
        assert_eq!(vm.run_to_completion().expect("ok"), reference, "n={n}");
        let c = vm.counters();
        assert_eq!((c.guard_checks, c.guard_misses), (2, misses), "n={n}");
        assert_eq!(c.virtual_dispatches, misses, "n={n}: every miss dispatches");
        assert_eq!(vm.guard_stats(call), MethodGuardStats { checks: 2, misses }, "n={n}");
        let events = sink.log().events;
        let logged = events.iter().filter(|r| matches!(r.event, TraceEvent::GuardMiss { .. }));
        assert_eq!(logged.count() as u64, misses, "n={n}: one event per miss");
    }
    // An invalidation drops what is left: a version installed after it
    // runs its guards on their receivers.
    let mut vm = Vm::new(&p, cost);
    vm.registry_mut().install(version.clone());
    vm.force_guard_misses(call, 5);
    assert!(vm.invalidate(call));
    assert!(!vm.invalidate(call), "nothing optimized left to invalidate");
    vm.registry_mut().install(version);
    assert_eq!(vm.run_to_completion().expect("ok"), reference);
    assert_eq!(vm.guard_stats(call), MethodGuardStats { checks: 2, misses: 1 });
}

#[test]
fn deep_recursion_snapshot_truncates_at_max_walk() {
    let mut b = ProgramBuilder::new();
    let rec = {
        let mut m = b.static_method("rec", 1);
        let zero = m.fresh_reg();
        m.const_int(zero, 0);
        let base = m.label();
        m.branch(Cond::Le, m.param(0), zero, base);
        let one = m.fresh_reg();
        let t = m.fresh_reg();
        m.const_int(one, 1);
        m.bin(BinOp::Sub, t, m.param(0), one);
        m.call_static(None, m.id(), &[t]);
        m.ret(None);
        m.bind(base);
        m.work(100_000); // deep leaf: samples land here
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        m.const_int(n, 100);
        m.call_static(None, rec, &[n]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid");
    let cost = CostModel { sample_period: 20_000, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    let mut saw_truncated = false;
    loop {
        match vm.run(u64::MAX).expect("ok") {
            RunOutcome::Sample(s) => {
                assert!(s.frames.len() <= 64, "walk must respect the cap");
                if s.frames.len() == 64 {
                    saw_truncated = true;
                }
            }
            RunOutcome::Finished(_) => break,
            RunOutcome::BudgetExhausted | RunOutcome::OsrRequest(_) => unreachable!(),
        }
    }
    assert!(saw_truncated, "the 101-deep stack should hit the 64-frame cap");
}

#[test]
fn counters_start_at_zero_and_accumulate() {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("v", 0);
    let a = b.class("A", None);
    {
        let mut m = b.virtual_method("A.v", a, sel);
        m.ret(None);
        m.finish();
    }
    let main = {
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        m.new_obj(o, a);
        m.call_virtual(None, sel, o, &[]);
        m.call_virtual(None, sel, o, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid");
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let mut vm = Vm::new(&p, cost);
    assert_eq!(vm.counters(), ExecCounters::default());
    vm.run_to_completion().expect("ok");
    let c = vm.counters();
    assert_eq!(c.calls, 2);
    assert_eq!(c.virtual_dispatches, 2);
    assert_eq!(c.guard_checks, 0);
}

/// One cycle per baseline instruction, free baseline compiles, no sampling:
/// the clock of a baseline run reads as its instruction count.
fn unit_cost() -> CostModel {
    CostModel {
        baseline_factor: 1,
        baseline_compile_per_unit: 0,
        sample_period: 0,
        ..CostModel::default()
    }
}

/// `main` for the event-boundary tests: under [`unit_cost`], pc 1 (`Const`,
/// heading a Const+Bin pair) is charged at cycle 2 and pc 2 (`Bin` into the
/// otherwise unwritten register 2) at cycle 3. The program returns 12.
fn boundary_fixture() -> aoci_ir::Program {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        let (x, y, sum) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(x, 5);
        m.const_int(y, 7);
        m.bin(BinOp::Add, sum, x, y);
        m.ret(Some(sum));
        m.finish()
    };
    b.finish(main).expect("valid program")
}

/// Where the interrupted pair of [`boundary_fixture`] must rest: on its
/// second half, which has not run.
fn assert_rests_between_the_halves(vm: &Vm<'_>) {
    assert_eq!(vm.clock().total(), 2, "the first half was charged, the second was not");
    assert_eq!(vm.stack.last().expect("in main").pc, 2, "resting on the second half");
    assert_eq!(vm.regs, [Value::Int(5), Value::Int(7), Value::Null], "`Bin` has not run");
}

/// A pair whose first half's charge lands exactly on the due sample does
/// not fuse: the sample is taken between the halves, at that cycle.
#[test]
fn a_sample_due_after_the_first_half_splits_the_pair() {
    let p = boundary_fixture();
    let mut vm = Vm::new(&p, CostModel { sample_period: 2, ..unit_cost() });
    match vm.run(u64::MAX).expect("no fault") {
        RunOutcome::Sample(s) => assert_eq!((s.cycles, s.top_method()), (2, Some(p.entry()))),
        other => panic!("expected the sample due at cycle 2, got {other:?}"),
    }
    assert_rests_between_the_halves(&vm);
    let v = vm.run_to_completion().expect("no fault");
    assert_eq!(v.and_then(Value::as_int), Some(12));
}

/// A pair whose first half's charge lands exactly on the budget's end does
/// not fuse either: the run stops between the halves.
#[test]
fn a_budget_ending_after_the_first_half_splits_the_pair() {
    let p = boundary_fixture();
    let mut vm = Vm::new(&p, unit_cost());
    assert!(matches!(vm.run(2).expect("no fault"), RunOutcome::BudgetExhausted));
    assert_rests_between_the_halves(&vm);
    let v = vm.run_to_completion().expect("no fault");
    assert_eq!(v.and_then(Value::as_int), Some(12));
    assert_eq!(vm.clock().total(), 4);
}

/// A back-edge raises an OSR request on the very step a sample falls due:
/// the request is returned first, at that cycle; the sample comes from the
/// next `run`, one instruction later.
#[test]
fn an_osr_request_is_returned_before_the_sample_due_on_the_same_step() {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        let (i, n, one) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(i, 0); // cycle 1
        m.const_int(n, 10); // 2
        m.const_int(one, 1); // 3
        let (top, out) = (m.label(), m.label());
        m.bind(top);
        m.branch(Cond::Ge, i, n, out); // pc 3: cycles 4, 7, 10
        m.bin(BinOp::Add, i, i, one); // 5, 8
        m.jump(top); // 6, 9: the second taken back-edge is the request
        m.bind(out);
        m.ret(Some(i));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let cost = CostModel { sample_period: 9, ..unit_cost() };
        let config =
            VmConfig { osr_enabled: true, osr_backedge_threshold: 2, ..VmConfig::default() };
        let mut vm = Vm::with_config(&p, cost, config);
        let mut next = || loop {
            match vm.run(budget(stepped)).expect("no fault") {
                RunOutcome::BudgetExhausted => {}
                other => break (other, vm.clock().total(), vm.stack.last().map(|f| f.pc)),
            }
        };
        let (first, cycles, pc) = next();
        let expect = OsrRequest { method: main, loop_header: 3 };
        assert!(
            matches!(first, RunOutcome::OsrRequest(r) if r == expect),
            "stepped={stepped}: {first:?}"
        );
        assert_eq!((cycles, pc), (9, Some(3)), "stepped={stepped}: parked on the header");
        let (second, cycles, pc) = next();
        assert!(
            matches!(&second, RunOutcome::Sample(s) if s.cycles == 10),
            "stepped={stepped}: {second:?}"
        );
        assert_eq!((cycles, pc), (10, Some(4)), "stepped={stepped}: one instruction later");
        let v = complete(&mut vm, stepped).expect("no fault");
        assert_eq!(v.and_then(Value::as_int), Some(10), "stepped={stepped}");
    }
}

/// A taken branch that ran as the second half of a pair is a back-edge
/// judged from its own pc, not the pair's: one that targets itself counts
/// from its first execution.
#[test]
fn a_fused_branch_to_itself_is_a_back_edge() {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        let x = m.fresh_reg();
        let this = m.label();
        m.const_int(x, 0); // cycle 1
        m.bind(this);
        m.branch(Cond::Eq, x, x, this); // pc 1: cycles 2, 3, 4, …
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let config =
            VmConfig { osr_enabled: true, osr_backedge_threshold: 3, ..VmConfig::default() };
        let mut vm = Vm::with_config(&p, unit_cost(), config);
        let request = loop {
            match vm.run(budget(stepped)).expect("no fault") {
                RunOutcome::OsrRequest(r) => break r,
                RunOutcome::BudgetExhausted => {}
                other => panic!("stepped={stepped}: {other:?}"),
            }
        };
        assert_eq!(request, OsrRequest { method: main, loop_header: 1 }, "stepped={stepped}");
        assert_eq!(vm.clock().total(), 4, "stepped={stepped}: the third execution of the branch");
    }
}

/// [`unit_cost`] with calls and allocations at one cycle too: the clock of a
/// baseline run reads as its instruction count across calls.
fn call_unit_cost() -> CostModel {
    CostModel { static_call_cost: 1, virtual_dispatch_cost: 0, alloc_cost: 1, ..unit_cost() }
}

/// The next outcome that is not the end of a budget, running freely or
/// `stepped` (see [`budget`]).
fn next_outcome(vm: &mut Vm<'_>, stepped: bool) -> RunOutcome {
    loop {
        match vm.run(budget(stepped)).expect("no fault") {
            RunOutcome::BudgetExhausted => {}
            other => break other,
        }
    }
}

/// `main` calls `double` twice — `double(41)` into `got`, then `double(got)`
/// into `got` — so that the first call compiles its callee in `run` and the
/// second stays inside the dispatch loop. Under [`call_unit_cost`]: cycle 1
/// `Const`; 2 the first call, 3 and 4 `double`'s `Bin` and `Return`; 5 the
/// second call (`main`'s pc 2), 6 and 7 `double` again; 8 `main`'s `Return`.
fn call_boundary_fixture() -> (aoci_ir::Program, aoci_ir::MethodId) {
    let mut b = ProgramBuilder::new();
    let double = {
        let mut m = b.static_method("double", 1);
        m.bin(BinOp::Add, m.param(0), m.param(0), m.param(0));
        m.ret(Some(m.param(0)));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let (arg, got) = (m.fresh_reg(), m.fresh_reg());
        m.const_int(arg, 41);
        m.call_static(Some(got), double, &[arg]);
        m.call_static(Some(got), double, &[got]);
        m.ret(Some(got));
        m.finish()
    };
    (b.finish(main).expect("valid program"), double)
}

/// Samples due exactly on a call's charge see the callee on top before its
/// first instruction, with its argument passed; due on a `Return`'s charge,
/// the caller past its call with the value delivered; due on the entry
/// frame's `Return`, they are never taken — the program has finished.
#[test]
fn samples_due_on_a_call_and_on_a_return_see_the_stack_after_the_switch() {
    let (p, double) = call_boundary_fixture();
    let main = p.entry();
    let (arg, once, twice) = (Value::Int(41), Value::Int(82), Value::Int(164));
    // Per sampling period, every sample taken: its cycle, the method on top,
    // that frame's pc and the register stack.
    let schedules = [
        // The call that compiles its callee, the first return, an ordinary
        // instruction; the sample due at cycle 8 falls on `main`'s `Return`.
        (
            2,
            vec![
                (2, double, 0, vec![arg, Value::Null, arg]),
                (4, main, 2, vec![arg, once]),
                (6, double, 1, vec![arg, once, twice]),
            ],
        ),
        // The call that stays inside the loop, and the return from it.
        (5, vec![(5, double, 0, vec![arg, once, once])]),
        (7, vec![(7, main, 3, vec![arg, twice])]),
    ];
    for stepped in [false, true] {
        for (period, samples) in &schedules {
            let mut vm = Vm::new(&p, CostModel { sample_period: *period, ..call_unit_cost() });
            for (cycles, top, pc, regs) in samples {
                let at = format!("stepped={stepped}, period {period}, cycle {cycles}");
                match next_outcome(&mut vm, stepped) {
                    RunOutcome::Sample(s) => {
                        assert_eq!((s.cycles, s.root_method), (*cycles, *top), "{at}");
                        assert_eq!(s.top_in_prologue, *pc < 3, "{at}");
                        let depth = if *top == main { 1 } else { 2 };
                        assert_eq!((s.frames.len(), vm.stack_depth()), (depth, depth), "{at}");
                    }
                    other => panic!("{at}: expected a sample, got {other:?}"),
                }
                assert_eq!(vm.stack.last().expect("running").pc, *pc, "{at}");
                assert_eq!(&vm.regs, regs, "{at}");
            }
            let last = next_outcome(&mut vm, stepped);
            assert!(
                matches!(last, RunOutcome::Finished(v) if v == Some(twice)),
                "stepped={stepped}, period {period}: {last:?}"
            );
            assert_eq!(vm.clock().total(), 8, "stepped={stepped}, period {period}");
        }
    }
}

/// A budget that ends on a call's charge stops with the callee's frame
/// pushed; resuming runs the callee's first instruction. Cycle 2 is the call
/// that compiles its callee, cycle 5 the one that finds it compiled.
#[test]
fn a_budget_ending_on_a_call_stops_with_the_callee_pushed() {
    let (p, _) = call_boundary_fixture();
    for stepped in [false, true] {
        for (call_cycle, call_pc) in [(2, 1), (5, 2)] {
            let at = format!("stepped={stepped}, call at cycle {call_cycle}");
            let mut vm = Vm::new(&p, call_unit_cost());
            let slices = if stepped { vec![1; call_cycle as usize] } else { vec![call_cycle] };
            for slice in slices {
                assert!(matches!(vm.run(slice).expect("no fault"), RunOutcome::BudgetExhausted));
            }
            assert_eq!((vm.clock().total(), vm.stack_depth()), (call_cycle, 2), "{at}");
            assert_eq!((vm.stack[0].pc, vm.stack[1].pc), (call_pc, 0), "{at}");
            assert!(matches!(vm.run(1).expect("no fault"), RunOutcome::BudgetExhausted));
            assert_eq!((vm.clock().total(), vm.stack[1].pc), (call_cycle + 1, 1), "{at}");
            let v = complete(&mut vm, stepped).expect("no fault");
            assert_eq!((v, vm.clock().total()), (Some(Value::Int(164)), 8), "{at}");
        }
    }
}

/// A first invocation: the callee's baseline compile is charged between the
/// call's own charge and the callee's first instruction, the call is counted
/// once, and a sample that falls due because of the compile charge is taken
/// after it, with the callee on top.
#[test]
fn a_first_invocation_compiles_between_the_call_and_the_callee() {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let a_val = {
        let mut m = b.virtual_method("A.val", a, sel);
        let r = m.fresh_reg();
        m.const_int(r, 9);
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let (o, got) = (m.fresh_reg(), m.fresh_reg());
        m.new_obj(o, a); // cycle c0 + 1
        m.call_virtual(Some(got), sel, o, &[]); // c0 + 2, then A.val's compile
        m.ret(Some(got));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    // `main`'s own compile comes before the first sample is scheduled.
    let c0 = 10 * u64::from(p.method(main).size_estimate());
    let compile = 10 * u64::from(p.method(a_val).size_estimate());
    assert!(compile >= 1, "the sample below falls due inside the compile charge");
    for stepped in [false, true] {
        let cost =
            CostModel { baseline_compile_per_unit: 10, sample_period: 3, ..call_unit_cost() };
        let mut vm = Vm::new(&p, cost);
        match next_outcome(&mut vm, stepped) {
            RunOutcome::Sample(s) => {
                assert_eq!((s.cycles, s.root_method), (c0 + 2 + compile, a_val), "stepped={stepped}");
                assert!(s.top_in_prologue, "stepped={stepped}");
            }
            other => panic!("stepped={stepped}: expected the sample due at c0 + 3, got {other:?}"),
        }
        assert_eq!((vm.stack_depth(), vm.stack[1].pc), (2, 0), "stepped={stepped}");
        let clock = vm.clock();
        assert_eq!(clock.component(Component::BaselineCompilation), c0 + compile, "stepped={stepped}");
        assert_eq!(clock.component(Component::AppBaseline), 2, "stepped={stepped}: New and the call");
        let counters = vm.counters();
        assert_eq!((counters.calls, counters.virtual_dispatches), (1, 1), "stepped={stepped}");
        let v = complete(&mut vm, stepped).expect("no fault");
        assert_eq!(v, Some(Value::Int(9)), "stepped={stepped}");
        assert_eq!(vm.clock().total(), c0 + compile + 5, "stepped={stepped}");
        assert_eq!(vm.counters().calls, 1, "stepped={stepped}");
    }
}

/// A fault leaves the clock at the cycles up to and including the faulting
/// instruction — here the second half of a Const+Bin pair, three instructions
/// into a callee's frame.
#[test]
fn a_fault_inside_a_frame_leaves_the_clock_on_the_faulting_instruction() {
    let mut b = ProgramBuilder::new();
    let div = {
        let mut m = b.static_method("div", 0);
        let (x, zero) = (m.fresh_reg(), m.fresh_reg());
        m.const_int(x, 1); // cycle 3
        m.const_int(zero, 0); // 4
        m.bin(BinOp::Div, x, x, zero); // 5
        m.ret(Some(x));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.work(1); // cycle 1
        m.call_static(None, div, &[]); // 2
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let mut vm = Vm::new(&p, call_unit_cost());
        let e = complete(&mut vm, stepped).expect_err("divides by zero");
        assert_eq!(e, VmError::DivideByZero { method: div, pc: 2 }, "stepped={stepped}");
        let clock = vm.clock();
        assert_eq!(
            (clock.total(), clock.component(Component::AppBaseline)),
            (5, 5),
            "stepped={stepped}"
        );
        assert_eq!(vm.stack[1].pc, 2, "stepped={stepped}: the pc rests on the fault");
    }
}

/// An installed version, cloned, with `edit` applied to the clone's body.
fn edited_clone(vm: &Vm<'_>, method: aoci_ir::MethodId, edit: impl FnOnce(&mut Vec<Instr>)) -> MethodVersion {
    let mut v = MethodVersion::clone(vm.registry().current(method).expect("installed"));
    edit(&mut v.body);
    v.inline_map = crate::InlineMap::baseline(method, v.body.len());
    v
}

/// Installing an edited clone of an installed version runs the edited body
/// from the next invocation on — nothing decoded from the original is served
/// for it — while the activation suspended in the original finishes there.
#[test]
fn an_edited_clone_runs_from_the_next_invocation_on() {
    let mut b = ProgramBuilder::new();
    let g = {
        let mut m = b.static_method("g", 0);
        m.work(1);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, g, &[]);
        m.call_static(None, g, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let mut vm = Vm::new(&p, call_unit_cost());
        // The first call's charge: `g` is on top and has run nothing.
        assert!(matches!(vm.run(1).expect("no fault"), RunOutcome::BudgetExhausted));
        assert_eq!((vm.stack_depth(), vm.stack[1].pc), (2, 0), "stepped={stepped}");
        let longer = edited_clone(&vm, g, |body| body.insert(0, Instr::Work { units: 1 }));
        vm.registry_mut().install(longer);
        complete(&mut vm, stepped).expect("no fault");
        // call, Work, Return; call, Work, Work, Return; Return.
        assert_eq!(vm.clock().total(), 8, "stepped={stepped}");
    }
}

/// `f(n) = if n <= 0 { 0 } else { f(n - 1) + C }` recursing nine deep while
/// `f`'s code changes under it: `C` is 1 in the baseline body, 100 in a
/// successor installed at depth 3, and 1 again in the baseline recompiled
/// after that successor is invalidated at depth 6. Every activation adds its
/// `C` after its callee returned, so the result says which body each one
/// came back to: the one it started in.
#[test]
fn suspended_activations_return_through_the_code_they_started_in() {
    let mut b = ProgramBuilder::new();
    let f = {
        let mut m = b.static_method("f", 1);
        let (n, zero) = (m.param(0), m.fresh_reg());
        m.const_int(zero, 0);
        let recurse = m.label();
        m.branch(Cond::Gt, n, zero, recurse);
        m.ret(Some(zero));
        m.bind(recurse);
        let (one, t, c) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(one, 1);
        m.bin(BinOp::Sub, t, n, one);
        m.call_static(Some(t), m.id(), &[t]);
        m.const_int(c, 1); // pc 6: `C`, read after the callee returned
        m.bin(BinOp::Add, t, t, c);
        m.ret(Some(t));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        m.const_int(n, 9);
        m.call_static(Some(n), f, &[n]);
        m.ret(Some(n));
        m.finish()
    };
    let p = b.finish(main).expect("valid program");
    for stepped in [false, true] {
        let mut vm = Vm::new(&p, unit_cost());
        // Budgets too small to cross more than one call.
        let slice = if stepped { 1 } else { 3 };
        let run_to_depth = |vm: &mut Vm<'_>, depth: usize| {
            while vm.stack_depth() < depth {
                assert!(matches!(vm.run(slice).expect("no fault"), RunOutcome::BudgetExhausted));
            }
            assert_eq!(vm.stack_depth(), depth, "stepped={stepped}");
        };
        run_to_depth(&mut vm, 1 + 3); // main, f(9), f(8), f(7)
        let mut successor = edited_clone(&vm, f, |body| {
            let Instr::Const { dst, value: 1 } = body[6] else { panic!("pc 6 is `C`") };
            body[6] = Instr::Const { dst, value: 100 };
        });
        successor.level = OptLevel::Optimized;
        vm.registry_mut().install(successor);
        run_to_depth(&mut vm, 1 + 6); // f(6), f(5), f(4) started in the successor
        assert!(vm.registry_mut().invalidate(f), "stepped={stepped}");
        // f(3) ..= f(0) start in the baseline its first call recompiles.
        let v = complete(&mut vm, stepped).expect("no fault");
        assert_eq!(v, Some(Value::Int(3 + 300 + 3)), "stepped={stepped}");
        let registry = vm.registry();
        assert_eq!(
            (registry.baseline_compilations(), registry.opt_compilations(), registry.arena_len()),
            (3, 1, 4),
            "stepped={stepped}: main, f, the successor, f again — and no version let go of"
        );
    }
}
