use super::*;
use crate::builder::ProgramBuilder;
use crate::instr::BinOp;

fn verify_build(
    build: impl FnOnce(&mut ProgramBuilder) -> MethodId,
) -> Result<TypeReport, TypeError> {
    let mut b = ProgramBuilder::new();
    let main = build(&mut b);
    let p = b.finish(main).expect("structurally valid");
    verify(&p)
}

#[test]
fn accepts_simple_arithmetic() {
    let report = verify_build(|b| {
        let mut m = b.static_method("main", 0);
        let r = m.fresh_reg();
        let s = m.fresh_reg();
        m.const_int(r, 1);
        m.const_int(s, 2);
        m.bin(BinOp::Add, r, r, s);
        m.ret(Some(r));
        m.finish()
    })
    .expect("verifies");
    assert_eq!(report.methods[0].1, Some(Shape::Int));
}

#[test]
fn rejects_arithmetic_on_references() {
    let err = verify_build(|b| {
        let a = b.class("A", None);
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(o, a);
        m.const_int(r, 1);
        m.bin(BinOp::Add, r, r, o);
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::Mismatch { .. }), "{err}");
}

#[test]
fn rejects_register_shape_reuse() {
    // Flow-insensitive: one register cannot hold both an int and an object.
    let err = verify_build(|b| {
        let a = b.class("A", None);
        let mut m = b.static_method("main", 0);
        let r = m.fresh_reg();
        m.const_int(r, 1);
        m.new_obj(r, a);
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

#[test]
fn infers_parameter_types_through_calls() {
    let report = verify_build(|b| {
        let a = b.class("A", None);
        let f = b.field(a, "x");
        let callee = {
            let mut m = b.static_method("takesObj", 1);
            let r = m.fresh_reg();
            m.get_field(r, m.param(0), f);
            m.ret(Some(r));
            m.finish()
        };
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(o, a);
        m.call_static(Some(r), callee, &[o]);
        m.ret(Some(r));
        m.finish()
    })
    .expect("verifies");
    // takesObj's parameter inferred as an object; field x flows to int? No:
    // x is only read, so it stays unknown, and the return shares its shape.
    assert_eq!(report.methods[0].0, vec![Shape::Obj]);
}

#[test]
fn field_types_unify_across_methods() {
    let err = verify_build(|b| {
        let a = b.class("A", None);
        let f = b.field(a, "x");
        // One method stores an int, another stores an object.
        {
            let mut m = b.static_method("storeInt", 1);
            let o = m.fresh_reg();
            m.new_obj(o, a);
            m.put_field(o, f, m.param(0)); // param is Int by later use
            let i = m.fresh_reg();
            m.const_int(i, 1);
            m.bin(BinOp::Add, i, i, m.param(0));
            m.ret(None);
            m.finish();
        }
        {
            let mut m = b.static_method("storeObj", 0);
            let o = m.fresh_reg();
            m.new_obj(o, a);
            m.put_field(o, f, o);
            m.ret(None);
            m.finish();
        }
        let mut m = b.static_method("main", 0);
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

#[test]
fn arrays_are_homogeneous() {
    let err = verify_build(|b| {
        let a = b.class("A", None);
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        let arr = m.fresh_reg();
        let o = m.fresh_reg();
        let i = m.fresh_reg();
        let zero = m.fresh_reg();
        m.const_int(n, 2);
        m.arr_new(arr, n);
        m.new_obj(o, a);
        m.const_int(zero, 0);
        m.arr_set(arr, zero, o); // object element...
        m.arr_get(i, arr, zero);
        m.bin(BinOp::Add, i, i, zero); // ...used as int
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

#[test]
fn null_is_compatible_with_any_reference() {
    verify_build(|b| {
        let a = b.class("A", None);
        let f = b.field(a, "next");
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let nil = m.fresh_reg();
        m.new_obj(o, a);
        m.const_null(nil);
        m.put_field(o, f, nil);
        m.put_field(o, f, o);
        m.ret(None);
        m.finish()
    })
    .expect("null unifies with object references");
}

#[test]
fn uninitialised_on_one_path_is_rejected() {
    let err = verify_build(|b| {
        let mut m = b.static_method("main", 0);
        let c = m.fresh_reg();
        let r = m.fresh_reg();
        let join = m.label();
        m.const_int(c, 0);
        m.branch(crate::instr::Cond::Eq, c, c, join); // may skip the write
        m.const_int(r, 1);
        m.bind(join);
        m.bin(BinOp::Add, c, c, r); // r undefined on the taken path
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::MaybeUninitialised { .. }), "{err}");
}

#[test]
fn loop_carried_definitions_are_accepted() {
    verify_build(|b| {
        let mut m = b.static_method("main", 0);
        let i = m.fresh_reg();
        let one = m.fresh_reg();
        let n = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(one, 1);
        m.const_int(n, 5);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(crate::instr::Cond::Ge, i, n, out);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(i));
        m.finish()
    })
    .expect("loop verifies");
}

#[test]
fn inconsistent_returns_rejected() {
    let err = verify_build(|b| {
        let mut m = b.static_method("main", 0);
        let c = m.fresh_reg();
        let v = m.label();
        m.const_int(c, 0);
        m.branch(crate::instr::Cond::Eq, c, c, v);
        m.ret(None);
        m.bind(v);
        m.ret(Some(c));
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::InconsistentReturns { .. }));
}

#[test]
fn void_result_use_rejected() {
    let err = verify_build(|b| {
        let void = {
            let mut m = b.static_method("void", 0);
            m.ret(None);
            m.finish()
        };
        let mut m = b.static_method("main", 0);
        let r = m.fresh_reg();
        m.call_static(Some(r), void, &[]);
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::VoidResultUsed { .. }));
}

#[test]
fn virtual_void_result_use_rejected() {
    // `A.f` returns a value, `B.f` does not; a call through `f` that keeps
    // the result can reach `B.f`, and the later `add` would read nothing.
    let mut void_impl = None;
    let err = verify_build(|b| {
        let sel = b.selector("f", 0);
        let a = b.class("A", None);
        let c2 = b.class("B", Some(a));
        {
            let mut m = b.virtual_method("A.f", a, sel);
            let r = m.fresh_reg();
            m.const_int(r, 1);
            m.ret(Some(r));
            m.finish();
        }
        void_impl = Some({
            let mut m = b.virtual_method("B.f", c2, sel);
            m.ret(None);
            m.finish()
        });
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(o, c2);
        m.call_virtual(Some(r), sel, o, &[]);
        m.bin(BinOp::Add, r, r, r);
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    let main = MethodId::from_index(2);
    let callee = void_impl.expect("built");
    assert_eq!(err, TypeError::VoidResultUsed { method: main, at: 1, callee });
}

#[test]
fn virtual_call_without_a_result_may_reach_void_implementations() {
    verify_build(|b| {
        let sel = b.selector("f", 0);
        let a = b.class("A", None);
        {
            let mut m = b.virtual_method("A.f", a, sel);
            m.ret(None);
            m.finish();
        }
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        m.new_obj(o, a);
        m.call_virtual(None, sel, o, &[]);
        m.ret(None);
        m.finish()
    })
    .expect("the result is not kept");
}

#[test]
fn selector_parameter_conflict_rejected() {
    let err = verify_build(|b| {
        let sel = b.selector("f", 1);
        let a = b.class("A", None);
        let c2 = b.class("B", Some(a));
        {
            let mut m = b.virtual_method("A.f", a, sel);
            let r = m.fresh_reg();
            m.const_int(r, 1);
            m.bin(BinOp::Add, r, r, m.param(0)); // param: int
            m.ret(Some(r));
            m.finish();
        }
        {
            let mut m = b.virtual_method("B.f", c2, sel);
            let r = m.fresh_reg();
            m.instance_of(r, m.param(0), a); // param: reference
            m.ret(Some(r));
            m.finish();
        }
        let mut m = b.static_method("main", 0);
        m.ret(None);
        m.finish()
    })
    .unwrap_err();
    assert!(matches!(err, TypeError::Mismatch { .. }), "{err}");
}

#[test]
fn error_display_is_informative() {
    let e = TypeError::Mismatch {
        method: MethodId::from_index(2),
        at: 7,
        expected: Shape::Int,
        found: Shape::Obj,
    };
    assert!(e.to_string().contains("m2"));
    assert!(e.to_string().contains("int"));
}
