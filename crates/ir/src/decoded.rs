//! Pre-decoded instruction form and the static superinstruction fusion
//! table.
//!
//! The interpreter historically re-examined each [`Instr`] on every
//! execution: matching on the enum and chasing [`FieldId`]/[`ClassId`]
//! lookups through the program tables per step. The pre-decode pass lowers
//! a method body once into a flat [`DecodedOp`] array in which every
//! operand is resolved up front: register numbers as raw `u16`s, field
//! offsets and class layout sizes pre-looked-up, branch targets absolute.
//! Call arguments stay where the source body keeps them: a decoded call
//! carries the source call's [`ArgSpan`] into the same argument pool, so
//! no decoded op owns an allocation. This is
//! the idiom of pre-decoded/threaded interpreters ("An Attempt to Catch Up
//! with JIT Compilers", Poirier et al.): pay decode cost once per
//! installed code version, not once per executed instruction.
//!
//! Two properties are load-bearing for the VM's bit-identity guarantee
//! (DESIGN.md §13):
//!
//! * **Decoding is lossless.** Every decoded op retains the source-level
//!   identifiers (field, class, site, selector) next to the resolved
//!   values, so [`encode_op`] is a strict inverse of [`decode_op`]:
//!   `encode(decode(body)) == body` instruction for instruction. The
//!   `proptest_decode` suite leans on this.
//! * **Decoding is 1:1.** `decode_body` emits exactly one [`DecodedOp`]
//!   per source instruction at the same index, so *decoded pc == source
//!   pc*. Branch targets, OSR anchor pcs, inline-map indices and sample
//!   attribution all carry over unchanged — no remapping layer exists to
//!   get wrong.
//!
//! Superinstruction fusion ([`fusion_plan`]) follows the same discipline:
//! a fused pair at pc `i` is an *execution fast path*, not a layout
//! change. The op at `i + 1` keeps its plain decoded form, so a branch
//! landing between the halves — or an OSR entry on the second half —
//! executes it exactly as unfused code would.

use crate::ids::{ClassId, FieldId, GlobalId, MethodId, Reg, SelectorId, SiteIdx};
use crate::instr::{ArgSpan, BinOp, Cond, Instr};
use crate::program::Program;

/// One pre-decoded instruction: the execution-ready mirror of [`Instr`].
///
/// Register operands are raw `u16` indices (what the interpreter actually
/// indexes frames with); memory operands carry both the resolved value
/// (`offset`, `layout`) **and** the id it was resolved from, keeping
/// [`encode_op`] exact. Like [`Instr`], it is `Copy` and 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DecodedOp {
    /// `dst = value`.
    Const { dst: u16, value: i64 },
    /// `dst = null`.
    ConstNull { dst: u16 },
    /// `dst = src`.
    Move { dst: u16, src: u16 },
    /// `dst = lhs op rhs`.
    Bin { op: BinOp, dst: u16, lhs: u16, rhs: u16 },
    /// Abstract straight-line work of `units` instructions.
    Work { units: u32 },
    /// `dst = new class`; `layout` is the class's pre-looked-up layout size.
    New { dst: u16, class: ClassId, layout: u32 },
    /// `dst = obj.field`; `offset` is the field's pre-looked-up offset.
    GetField { dst: u16, obj: u16, field: FieldId, offset: u32 },
    /// `obj.field = src`; `offset` is the field's pre-looked-up offset.
    PutField { obj: u16, field: FieldId, offset: u32, src: u16 },
    /// `dst = global`.
    GetGlobal { dst: u16, global: GlobalId },
    /// `global = src`.
    PutGlobal { global: GlobalId, src: u16 },
    /// `dst = new array[len]`.
    ArrNew { dst: u16, len: u16 },
    /// `dst = arr[idx]`.
    ArrGet { dst: u16, arr: u16, idx: u16 },
    /// `arr[idx] = src`.
    ArrSet { arr: u16, idx: u16, src: u16 },
    /// `dst = arr.length`.
    ArrLen { dst: u16, arr: u16 },
    /// `dst = obj instanceof class`.
    InstanceOf { dst: u16, obj: u16, class: ClassId },
    /// Unconditional jump to absolute index `target`.
    Jump { target: u32 },
    /// Conditional jump to absolute index `target`.
    Branch { cond: Cond, lhs: u16, rhs: u16, target: u32 },
    /// Static call; `args` spans the decoded argument pool.
    CallStatic { site: SiteIdx, dst: Option<u16>, callee: MethodId, args: ArgSpan },
    /// Virtual call; `args` excludes the receiver, as in [`Instr`].
    CallVirtual { site: SiteIdx, dst: Option<u16>, selector: SelectorId, recv: u16, args: ArgSpan },
    /// Return, optionally with a value.
    Return { src: Option<u16> },
    /// Class-test guard; `else_target` is absolute.
    GuardClass { recv: u16, class: ClassId, else_target: u32 },
    /// Method-test guard; `else_target` is absolute.
    GuardMethod { recv: u16, selector: SelectorId, target: MethodId, else_target: u32 },
}

/// Lowers one instruction, resolving field offsets and class layouts
/// against `program`.
pub fn decode_op(instr: &Instr, program: &Program) -> DecodedOp {
    let r = |reg: Reg| reg.0;
    match instr {
        Instr::Const { dst, value } => DecodedOp::Const { dst: r(*dst), value: *value },
        Instr::ConstNull { dst } => DecodedOp::ConstNull { dst: r(*dst) },
        Instr::Move { dst, src } => DecodedOp::Move { dst: r(*dst), src: r(*src) },
        Instr::Bin { op, dst, lhs, rhs } => {
            DecodedOp::Bin { op: *op, dst: r(*dst), lhs: r(*lhs), rhs: r(*rhs) }
        }
        Instr::Work { units } => DecodedOp::Work { units: *units },
        Instr::New { dst, class } => DecodedOp::New {
            dst: r(*dst),
            class: *class,
            layout: program.class(*class).layout_size(),
        },
        Instr::GetField { dst, obj, field } => DecodedOp::GetField {
            dst: r(*dst),
            obj: r(*obj),
            field: *field,
            offset: program.field(*field).offset(),
        },
        Instr::PutField { obj, field, src } => DecodedOp::PutField {
            obj: r(*obj),
            field: *field,
            offset: program.field(*field).offset(),
            src: r(*src),
        },
        Instr::GetGlobal { dst, global } => {
            DecodedOp::GetGlobal { dst: r(*dst), global: *global }
        }
        Instr::PutGlobal { global, src } => {
            DecodedOp::PutGlobal { global: *global, src: r(*src) }
        }
        Instr::ArrNew { dst, len } => DecodedOp::ArrNew { dst: r(*dst), len: r(*len) },
        Instr::ArrGet { dst, arr, idx } => {
            DecodedOp::ArrGet { dst: r(*dst), arr: r(*arr), idx: r(*idx) }
        }
        Instr::ArrSet { arr, idx, src } => {
            DecodedOp::ArrSet { arr: r(*arr), idx: r(*idx), src: r(*src) }
        }
        Instr::ArrLen { dst, arr } => DecodedOp::ArrLen { dst: r(*dst), arr: r(*arr) },
        Instr::InstanceOf { dst, obj, class } => {
            DecodedOp::InstanceOf { dst: r(*dst), obj: r(*obj), class: *class }
        }
        Instr::Jump { target } => DecodedOp::Jump { target: *target },
        Instr::Branch { cond, lhs, rhs, target } => DecodedOp::Branch {
            cond: *cond,
            lhs: r(*lhs),
            rhs: r(*rhs),
            target: *target,
        },
        Instr::CallStatic { site, dst, callee, args } => DecodedOp::CallStatic {
            site: *site,
            dst: dst.map(|d| d.0),
            callee: *callee,
            args: *args,
        },
        Instr::CallVirtual { site, dst, selector, recv, args } => DecodedOp::CallVirtual {
            site: *site,
            dst: dst.map(|d| d.0),
            selector: *selector,
            recv: r(*recv),
            args: *args,
        },
        Instr::Return { src } => DecodedOp::Return { src: src.map(|s| s.0) },
        Instr::GuardClass { recv, class, else_target } => DecodedOp::GuardClass {
            recv: r(*recv),
            class: *class,
            else_target: *else_target,
        },
        Instr::GuardMethod { recv, selector, target, else_target } => DecodedOp::GuardMethod {
            recv: r(*recv),
            selector: *selector,
            target: *target,
            else_target: *else_target,
        },
    }
}

/// Lowers a whole body. The result is exactly `body.len()` ops with
/// *decoded pc == source pc* (see the module docs).
pub fn decode_body(body: &[Instr], program: &Program) -> Vec<DecodedOp> {
    body.iter().map(|i| decode_op(i, program)).collect()
}

/// The exact inverse of [`decode_op`].
pub fn encode_op(op: &DecodedOp) -> Instr {
    let r = |reg: u16| Reg(reg);
    match op {
        DecodedOp::Const { dst, value } => Instr::Const { dst: r(*dst), value: *value },
        DecodedOp::ConstNull { dst } => Instr::ConstNull { dst: r(*dst) },
        DecodedOp::Move { dst, src } => Instr::Move { dst: r(*dst), src: r(*src) },
        DecodedOp::Bin { op, dst, lhs, rhs } => {
            Instr::Bin { op: *op, dst: r(*dst), lhs: r(*lhs), rhs: r(*rhs) }
        }
        DecodedOp::Work { units } => Instr::Work { units: *units },
        DecodedOp::New { dst, class, .. } => Instr::New { dst: r(*dst), class: *class },
        DecodedOp::GetField { dst, obj, field, .. } => {
            Instr::GetField { dst: r(*dst), obj: r(*obj), field: *field }
        }
        DecodedOp::PutField { obj, field, src, .. } => {
            Instr::PutField { obj: r(*obj), field: *field, src: r(*src) }
        }
        DecodedOp::GetGlobal { dst, global } => {
            Instr::GetGlobal { dst: r(*dst), global: *global }
        }
        DecodedOp::PutGlobal { global, src } => {
            Instr::PutGlobal { global: *global, src: r(*src) }
        }
        DecodedOp::ArrNew { dst, len } => Instr::ArrNew { dst: r(*dst), len: r(*len) },
        DecodedOp::ArrGet { dst, arr, idx } => {
            Instr::ArrGet { dst: r(*dst), arr: r(*arr), idx: r(*idx) }
        }
        DecodedOp::ArrSet { arr, idx, src } => {
            Instr::ArrSet { arr: r(*arr), idx: r(*idx), src: r(*src) }
        }
        DecodedOp::ArrLen { dst, arr } => Instr::ArrLen { dst: r(*dst), arr: r(*arr) },
        DecodedOp::InstanceOf { dst, obj, class } => {
            Instr::InstanceOf { dst: r(*dst), obj: r(*obj), class: *class }
        }
        DecodedOp::Jump { target } => Instr::Jump { target: *target },
        DecodedOp::Branch { cond, lhs, rhs, target } => Instr::Branch {
            cond: *cond,
            lhs: r(*lhs),
            rhs: r(*rhs),
            target: *target,
        },
        DecodedOp::CallStatic { site, dst, callee, args } => Instr::CallStatic {
            site: *site,
            dst: dst.map(Reg),
            callee: *callee,
            args: *args,
        },
        DecodedOp::CallVirtual { site, dst, selector, recv, args } => Instr::CallVirtual {
            site: *site,
            dst: dst.map(Reg),
            selector: *selector,
            recv: r(*recv),
            args: *args,
        },
        DecodedOp::Return { src } => Instr::Return { src: src.map(Reg) },
        DecodedOp::GuardClass { recv, class, else_target } => Instr::GuardClass {
            recv: r(*recv),
            class: *class,
            else_target: *else_target,
        },
        DecodedOp::GuardMethod { recv, selector, target, else_target } => Instr::GuardMethod {
            recv: r(*recv),
            selector: *selector,
            target: *target,
            else_target: *else_target,
        },
    }
}

/// The exact inverse of [`decode_body`].
pub fn encode_body(ops: &[DecodedOp]) -> Vec<Instr> {
    ops.iter().map(encode_op).collect()
}

/// The superinstructions the static fusion table knows how to build.
///
/// The pairs are shapes chosen as likely hot (constant feeding an ALU op,
/// field load feeding an ALU op, ALU op or constant feeding a
/// compare-and-branch), and measured, few of them fire. Per `suite_steady`
/// pass (146.3 M instructions) only `ConstBin` fires, 21.2 M times:
/// `MoveBin`, `GetFieldBin` and `ConstBranch` never fire, and `BinBranch` at
/// most 28 k times. The hottest unfused pairs there are `Bin`+`GetGlobal`
/// 13.7 M, `Bin`+`Const` 13.7 M, `Work`+`Const` 11.2 M and
/// `GetGlobal`+`ArrGet` 9.3 M. On `control_dense`'s population (18.2 M
/// instructions) `ConstBin` fires 2.09 M times, `ConstBranch` 0.80 M and
/// `BinBranch` 0.17 M. More pairs and fewer pairs each measured slower, and
/// no fusion at all within noise (EXPERIMENTS.md, "Metering in rows").
///
/// The *first* op of a pair is always straight-line (it can neither
/// branch, call, return, nor raise an OSR request), which is what makes
/// fusing the interpreter's per-instruction event checks across the
/// boundary sound — see DESIGN.md §13.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FusedKind {
    /// `Const` + `Bin`.
    ConstBin,
    /// `Move` + `Bin`.
    MoveBin,
    /// `GetField` + `Bin`.
    GetFieldBin,
    /// `Bin` + `Branch` (compute, compare-and-branch).
    BinBranch,
    /// `Const` + `Branch` (immediate compare-and-branch).
    ConstBranch,
}

/// The static fusion table: which adjacent pair, if any, `a; b` fuses
/// into. Pure structure — independent of operands, cost model and
/// compilation level.
pub fn fused_kind(a: &DecodedOp, b: &DecodedOp) -> Option<FusedKind> {
    match (a, b) {
        (DecodedOp::Const { .. }, DecodedOp::Bin { .. }) => Some(FusedKind::ConstBin),
        (DecodedOp::Move { .. }, DecodedOp::Bin { .. }) => Some(FusedKind::MoveBin),
        (DecodedOp::GetField { .. }, DecodedOp::Bin { .. }) => Some(FusedKind::GetFieldBin),
        (DecodedOp::Bin { .. }, DecodedOp::Branch { .. }) => Some(FusedKind::BinBranch),
        (DecodedOp::Const { .. }, DecodedOp::Branch { .. }) => Some(FusedKind::ConstBranch),
        _ => None,
    }
}

/// Per-pc fusion plan for a decoded body: `plan[i]` is the
/// superinstruction starting at `i`, if the table fuses `ops[i]` with
/// `ops[i + 1]`. Because fusion never changes layout, overlapping entries
/// (e.g. `Bin Bin Branch` fusing at both 0 and 1) are fine: whichever pc
/// control actually reaches uses its own entry.
pub fn fusion_plan(ops: &[DecodedOp]) -> Vec<Option<FusedKind>> {
    (0..ops.len())
        .map(|i| ops.get(i + 1).and_then(|b| fused_kind(&ops[i], b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sample_program() -> (Program, MethodId) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let point = b.class("Point", Some(obj));
        let x = b.field(point, "x");
        let main = {
            let mut m = b.static_method("main", 0);
            let p = m.fresh_reg();
            let acc = m.fresh_reg();
            let one = m.fresh_reg();
            m.new_obj(p, point);
            m.const_int(acc, 0);
            m.const_int(one, 1);
            m.put_field(p, x, acc);
            let top = m.label();
            m.bind(top);
            m.get_field(acc, p, x);
            m.bin(BinOp::Add, acc, acc, one);
            m.put_field(p, x, acc);
            let limit = m.fresh_reg();
            m.const_int(limit, 10);
            m.branch(Cond::Lt, acc, limit, top);
            m.ret(Some(acc));
            m.finish()
        };
        let program = b.finish(main).expect("valid program");
        (program, main)
    }

    #[test]
    fn decode_encode_is_identity() {
        let (program, main) = sample_program();
        let body = program.method(main).body();
        let ops = decode_body(body, &program);
        assert_eq!(ops.len(), body.len(), "decode must be 1:1");
        assert_eq!(encode_body(&ops), body, "encode must invert decode");
    }

    #[test]
    fn decode_resolves_layout_and_offsets() {
        let (program, main) = sample_program();
        let ops = decode_body(program.method(main).body(), &program);
        let mut saw_new = false;
        let mut saw_field = false;
        for op in &ops {
            match op {
                DecodedOp::New { class, layout, .. } => {
                    assert_eq!(*layout, program.class(*class).layout_size());
                    saw_new = true;
                }
                DecodedOp::GetField { field, offset, .. }
                | DecodedOp::PutField { field, offset, .. } => {
                    assert_eq!(*offset, program.field(*field).offset());
                    saw_field = true;
                }
                _ => {}
            }
        }
        assert!(saw_new && saw_field);
    }

    #[test]
    fn fusion_table_matches_documented_pairs() {
        let c = DecodedOp::Const { dst: 0, value: 1 };
        let b = DecodedOp::Bin { op: BinOp::Add, dst: 0, lhs: 0, rhs: 1 };
        let br = DecodedOp::Branch { cond: Cond::Lt, lhs: 0, rhs: 1, target: 0 };
        let g = DecodedOp::GetField { dst: 0, obj: 1, field: FieldId::from_index(0), offset: 0 };
        let m = DecodedOp::Move { dst: 0, src: 1 };
        assert_eq!(fused_kind(&c, &b), Some(FusedKind::ConstBin));
        assert_eq!(fused_kind(&m, &b), Some(FusedKind::MoveBin));
        assert_eq!(fused_kind(&g, &b), Some(FusedKind::GetFieldBin));
        assert_eq!(fused_kind(&b, &br), Some(FusedKind::BinBranch));
        assert_eq!(fused_kind(&c, &br), Some(FusedKind::ConstBranch));
        // Control flow, calls and effects never lead a pair.
        assert_eq!(fused_kind(&br, &b), None);
        assert_eq!(fused_kind(&DecodedOp::Return { src: None }, &b), None);
        assert_eq!(fused_kind(&b, &c), None);
    }

    #[test]
    fn fusion_plan_is_per_pc_and_allows_overlap() {
        let b = DecodedOp::Bin { op: BinOp::Add, dst: 0, lhs: 0, rhs: 1 };
        let br = DecodedOp::Branch { cond: Cond::Lt, lhs: 0, rhs: 1, target: 0 };
        let ops = vec![b, b, br];
        let plan = fusion_plan(&ops);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0], None, "Bin+Bin is not in the table");
        assert_eq!(plan[1], Some(FusedKind::BinBranch));
        assert_eq!(plan[2], None, "the tail never starts a pair");
    }
}
