//! Instruction set of the AOCI bytecode.
//!
//! The IR is register-based three-address code. Control flow uses absolute
//! instruction indices as branch targets (the builder provides labels).
//!
//! Two instruction groups exist:
//!
//! * **source instructions** — everything a front end / workload generator
//!   emits;
//! * **compiler-introduced instructions** — [`Instr::GuardClass`] and
//!   [`Instr::GuardMethod`], emitted by the optimizing compiler to implement
//!   *guarded inlining* of virtual call targets (paper Section 3.1). The VM
//!   executes them like any other instruction; a failed guard branches to
//!   the retained virtual-dispatch fallback.

use crate::ids::{ClassId, FieldId, GlobalId, MethodId, Reg, SelectorId, SiteIdx};
use std::fmt;
use std::ops::Range;

/// Binary arithmetic/logic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero is a VM runtime error.
    Div,
    /// Remainder; remainder by zero is a VM runtime error.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// Comparison conditions for [`Instr::Branch`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal (integers by value, references by identity, null == null).
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than (integers only).
    Lt,
    /// Signed less-or-equal (integers only).
    Le,
    /// Signed greater-than (integers only).
    Gt,
    /// Signed greater-or-equal (integers only).
    Ge,
}

impl Cond {
    /// Returns the condition with operands swapped-and-negated semantics
    /// inverted, i.e. `a OP b == !(a inverse(OP) b)`.
    pub fn inverse(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Where a call's argument registers sit in its body's argument pool:
/// `len` registers from `start` (DESIGN.md §18).
///
/// Three bytes at alignment 1, so that a call fits the 16 bytes every
/// other instruction fits: the start is a `u16` and the length a `u8`. A
/// body's pool therefore holds at most [`ArgSpan::MAX_POOL`] registers and
/// one call passes at most [`ArgSpan::MAX_ARGS`]; the builder reports a
/// body over either bound as [`IrError::TooManyCallArgs`], and the inliner
/// refuses an inline that could take its pool over the first.
///
/// [`IrError::TooManyCallArgs`]: crate::IrError::TooManyCallArgs
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(C, packed)]
pub struct ArgSpan {
    start: u16,
    len: u8,
}

impl ArgSpan {
    /// The most argument registers one call passes.
    pub const MAX_ARGS: usize = u8::MAX as usize;
    /// The most registers one body's argument pool holds.
    pub const MAX_POOL: usize = u16::MAX as usize;

    /// The span of `len` registers from `start`, if it ends within
    /// [`ArgSpan::MAX_POOL`] and `len` is at most [`ArgSpan::MAX_ARGS`].
    pub fn new(start: usize, len: usize) -> Option<ArgSpan> {
        if start.checked_add(len)? > Self::MAX_POOL {
            return None;
        }
        Some(ArgSpan { start: u16::try_from(start).ok()?, len: u8::try_from(len).ok()? })
    }

    /// Appends `args` to `pool` and returns their span; or, when the span
    /// would break a bound, leaves `pool` as it was and returns `None`.
    pub fn append(pool: &mut Vec<Reg>, args: impl IntoIterator<Item = Reg>) -> Option<ArgSpan> {
        let start = pool.len();
        pool.extend(args);
        let span = ArgSpan::new(start, pool.len() - start);
        if span.is_none() {
            pool.truncate(start);
        }
        span
    }

    /// The number of registers.
    #[inline]
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// Whether the call passes no registers here.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The pool indices the span covers.
    #[inline]
    pub fn range(self) -> Range<usize> {
        let start = usize::from(self.start);
        start..start + self.len()
    }

    /// The registers the span names in `pool`, the argument pool of the
    /// body its call sits in.
    ///
    /// # Panics
    ///
    /// Panics if the span reaches past the end of `pool`.
    #[inline]
    pub fn of<T>(self, pool: &[T]) -> &[T] {
        &pool[self.range()]
    }
}

impl fmt::Debug for ArgSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.range())
    }
}

/// One bytecode instruction.
///
/// `Copy` and 16 bytes: a call's argument registers are not in the
/// instruction but in its body's argument pool, named by an [`ArgSpan`].
///
/// Operand fields follow a fixed naming convention — `dst` destination
/// register, `src` source register, `lhs`/`rhs` operands, `obj`/`arr`/`recv`
/// reference operands, `target`/`else_target` branch targets — documented
/// once here rather than per variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Instr {
    /// `dst = value`.
    Const { dst: Reg, value: i64 },
    /// `dst = null`.
    ConstNull { dst: Reg },
    /// `dst = src`.
    Move { dst: Reg, src: Reg },
    /// `dst = lhs op rhs` (integer operands).
    Bin { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg },
    /// Straight-line computational work of `units` abstract instructions.
    ///
    /// `Work` models a block of arithmetic of the given size without
    /// materialising that many `Instr`s: it costs `units` execution cycles
    /// and counts as `units` toward code-size estimates. Workload generators
    /// use it to give methods realistic bodies cheaply.
    Work { units: u32 },
    /// `dst = new class`.
    New { dst: Reg, class: ClassId },
    /// `dst = obj.field`. Null `obj` is a runtime error.
    GetField { dst: Reg, obj: Reg, field: FieldId },
    /// `obj.field = src`. Null `obj` is a runtime error.
    PutField { obj: Reg, field: FieldId, src: Reg },
    /// `dst = global`.
    GetGlobal { dst: Reg, global: GlobalId },
    /// `global = src`.
    PutGlobal { global: GlobalId, src: Reg },
    /// `dst = new array[len]` (elements initialised to integer 0).
    ArrNew { dst: Reg, len: Reg },
    /// `dst = arr[idx]`. Out-of-bounds or null array is a runtime error.
    ArrGet { dst: Reg, arr: Reg, idx: Reg },
    /// `arr[idx] = src`. Out-of-bounds or null array is a runtime error.
    ArrSet { arr: Reg, idx: Reg, src: Reg },
    /// `dst = arr.length`.
    ArrLen { dst: Reg, arr: Reg },
    /// `dst = obj instanceof class` (1 or 0; null is 0). Respects subtyping.
    InstanceOf { dst: Reg, obj: Reg, class: ClassId },
    /// Unconditional jump to instruction index `target`.
    Jump { target: u32 },
    /// Conditional jump to `target` when `lhs cond rhs` holds.
    Branch { cond: Cond, lhs: Reg, rhs: Reg, target: u32 },
    /// Direct call of a static (class) method.
    CallStatic {
        /// Source-level call-site index within the enclosing method.
        site: SiteIdx,
        /// Destination for the return value, if used.
        dst: Option<Reg>,
        /// Statically-bound target.
        callee: MethodId,
        /// Argument registers in the body's pool (must match the callee's
        /// arity).
        args: ArgSpan,
    },
    /// Virtual call: dispatch on the dynamic class of `recv`.
    CallVirtual {
        /// Source-level call-site index within the enclosing method.
        site: SiteIdx,
        /// Destination for the return value, if used.
        dst: Option<Reg>,
        /// Selector looked up against the receiver's class.
        selector: SelectorId,
        /// Receiver register (becomes callee register 0).
        recv: Reg,
        /// Additional argument registers, in the body's pool.
        args: ArgSpan,
    },
    /// Return from the method, optionally with a value.
    Return { src: Option<Reg> },
    /// Compiler-introduced class-test guard: continue in-line when the
    /// dynamic class of `recv` is exactly `class`, otherwise jump to
    /// `else_target` (the guarded-inline fallback path).
    GuardClass { recv: Reg, class: ClassId, else_target: u32 },
    /// Compiler-introduced method-test guard: continue in-line when virtual
    /// dispatch of `selector` on `recv`'s dynamic class would select exactly
    /// `target`, otherwise jump to `else_target`. Sound in the presence of
    /// inherited (non-overridden) implementations, where a single exact
    /// class test would spuriously fail.
    GuardMethod { recv: Reg, selector: SelectorId, target: MethodId, else_target: u32 },
}

impl Instr {
    /// Returns `true` for the call instructions ([`Instr::CallStatic`] and
    /// [`Instr::CallVirtual`]).
    pub fn is_call(&self) -> bool {
        matches!(self, Instr::CallStatic { .. } | Instr::CallVirtual { .. })
    }

    /// Returns the call-site index if this is a call instruction.
    pub fn call_site(&self) -> Option<SiteIdx> {
        match self {
            Instr::CallStatic { site, .. } | Instr::CallVirtual { site, .. } => Some(*site),
            _ => None,
        }
    }

    /// Returns the branch target if this instruction may transfer control
    /// non-sequentially.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Instr::Jump { target }
            | Instr::Branch { target, .. }
            | Instr::GuardClass { else_target: target, .. }
            | Instr::GuardMethod { else_target: target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Rewrites the branch target through `f`, if the instruction has one.
    /// Used by the builder's label fixups and by the optimizing compiler
    /// when splicing and simplifying bodies.
    pub fn map_branch_target(&mut self, f: impl FnOnce(u32) -> u32) {
        match self {
            Instr::Jump { target }
            | Instr::Branch { target, .. }
            | Instr::GuardClass { else_target: target, .. }
            | Instr::GuardMethod { else_target: target, .. } => *target = f(*target),
            _ => {}
        }
    }

    /// Calls `f` on each register the instruction reads, in operand order
    /// (a virtual call's receiver before its arguments). A call's arguments
    /// are read from `pool`, the argument pool of the body the instruction
    /// sits in. Every pass that walks operands uses this one list; the order
    /// is the one in which the verifier and `validate` report the first bad
    /// read.
    #[inline]
    pub fn for_each_use(&self, pool: &[Reg], mut f: impl FnMut(Reg)) {
        match self {
            Instr::Move { src: a, .. }
            | Instr::GetField { obj: a, .. }
            | Instr::PutGlobal { src: a, .. }
            | Instr::ArrNew { len: a, .. }
            | Instr::ArrLen { arr: a, .. }
            | Instr::InstanceOf { obj: a, .. }
            | Instr::Return { src: Some(a) }
            | Instr::GuardClass { recv: a, .. }
            | Instr::GuardMethod { recv: a, .. } => f(*a),
            Instr::Bin { lhs: a, rhs: b, .. }
            | Instr::Branch { lhs: a, rhs: b, .. }
            | Instr::PutField { obj: a, src: b, .. }
            | Instr::ArrGet { arr: a, idx: b, .. } => {
                f(*a);
                f(*b);
            }
            Instr::ArrSet { arr, idx, src } => {
                f(*arr);
                f(*idx);
                f(*src);
            }
            Instr::CallStatic { args, .. } => args.of(pool).iter().copied().for_each(f),
            Instr::CallVirtual { recv, args, .. } => {
                f(*recv);
                args.of(pool).iter().copied().for_each(f);
            }
            Instr::Const { .. }
            | Instr::ConstNull { .. }
            | Instr::Work { .. }
            | Instr::New { .. }
            | Instr::GetGlobal { .. }
            | Instr::Jump { .. }
            | Instr::Return { src: None } => {}
        }
    }

    /// The register the instruction writes, if any (at most one).
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::ConstNull { dst }
            | Instr::Move { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::New { dst, .. }
            | Instr::GetField { dst, .. }
            | Instr::GetGlobal { dst, .. }
            | Instr::ArrNew { dst, .. }
            | Instr::ArrGet { dst, .. }
            | Instr::ArrLen { dst, .. }
            | Instr::InstanceOf { dst, .. } => Some(*dst),
            Instr::CallStatic { dst, .. } | Instr::CallVirtual { dst, .. } => *dst,
            Instr::Work { .. }
            | Instr::PutField { .. }
            | Instr::PutGlobal { .. }
            | Instr::ArrSet { .. }
            | Instr::Jump { .. }
            | Instr::Branch { .. }
            | Instr::Return { .. }
            | Instr::GuardClass { .. }
            | Instr::GuardMethod { .. } => None,
        }
    }

    /// The control-flow successors of this instruction at index `at` of a
    /// body of `len` instructions: the branch target (if any), then the
    /// fall-through (if any; the last instruction has none).
    #[inline]
    pub fn successors(&self, at: usize, len: usize) -> [Option<usize>; 2] {
        let next = (at + 1 < len).then_some(at + 1);
        match self {
            Instr::Return { .. } => [None, None],
            Instr::Jump { target } => [Some(*target as usize), None],
            Instr::Branch { target, .. }
            | Instr::GuardClass { else_target: target, .. }
            | Instr::GuardMethod { else_target: target, .. } => [Some(*target as usize), next],
            _ => [None, next],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_predicates() {
        let c = Instr::CallStatic {
            site: SiteIdx(3),
            dst: None,
            callee: MethodId(0),
            args: ArgSpan::default(),
        };
        assert!(c.is_call());
        assert_eq!(c.call_site(), Some(SiteIdx(3)));
        let w = Instr::Work { units: 5 };
        assert!(!w.is_call());
        assert_eq!(w.call_site(), None);
    }

    #[test]
    fn branch_targets() {
        let j = Instr::Jump { target: 9 };
        assert_eq!(j.branch_target(), Some(9));
        let g = Instr::GuardClass {
            recv: Reg(0),
            class: ClassId(1),
            else_target: 4,
        };
        assert_eq!(g.branch_target(), Some(4));
        assert_eq!(Instr::Return { src: None }.branch_target(), None);
    }

    #[test]
    fn map_branch_target_rewrites() {
        let mut b = Instr::Branch {
            cond: Cond::Lt,
            lhs: Reg(0),
            rhs: Reg(1),
            target: 2,
        };
        b.map_branch_target(|t| t + 10);
        assert_eq!(b.branch_target(), Some(12));
    }

    /// Which variant an instruction is. No wildcard arm: a new variant fails
    /// to compile here until the operand table below covers it.
    fn variant(i: &Instr) -> usize {
        match i {
            Instr::Const { .. } => 0,
            Instr::ConstNull { .. } => 1,
            Instr::Move { .. } => 2,
            Instr::Bin { .. } => 3,
            Instr::Work { .. } => 4,
            Instr::New { .. } => 5,
            Instr::GetField { .. } => 6,
            Instr::PutField { .. } => 7,
            Instr::GetGlobal { .. } => 8,
            Instr::PutGlobal { .. } => 9,
            Instr::ArrNew { .. } => 10,
            Instr::ArrGet { .. } => 11,
            Instr::ArrSet { .. } => 12,
            Instr::ArrLen { .. } => 13,
            Instr::InstanceOf { .. } => 14,
            Instr::Jump { .. } => 15,
            Instr::Branch { .. } => 16,
            Instr::CallStatic { .. } => 17,
            Instr::CallVirtual { .. } => 18,
            Instr::Return { .. } => 19,
            Instr::GuardClass { .. } => 20,
            Instr::GuardMethod { .. } => 21,
        }
    }
    const VARIANTS: usize = 22;

    /// An instruction, the registers it reads in order, the one it writes,
    /// and its successors at index 1 of a three-instruction body.
    type Row = (Instr, Vec<u16>, Option<u16>, [Option<usize>; 2]);

    #[test]
    fn operand_vocabulary_of_every_variant() {
        let r = Reg;
        let (c, f, g, s) = (ClassId(0), FieldId(0), GlobalId(0), SelectorId(0));
        let site = SiteIdx(0);
        let fall = [None, Some(2)];
        // r9 pads the pool so the spans do not start at 0.
        let pool = [r(9), r(3), r(2)];
        let two = ArgSpan::new(1, 2).unwrap();
        let none = ArgSpan::new(3, 0).unwrap();
        let table: Vec<Row> = vec![
            (Instr::Const { dst: r(1), value: 7 }, vec![], Some(1), fall),
            (Instr::ConstNull { dst: r(1) }, vec![], Some(1), fall),
            (Instr::Move { dst: r(1), src: r(2) }, vec![2], Some(1), fall),
            (Instr::Bin { op: BinOp::Sub, dst: r(1), lhs: r(2), rhs: r(3) }, vec![2, 3], Some(1), fall),
            (Instr::Work { units: 4 }, vec![], None, fall),
            (Instr::New { dst: r(1), class: c }, vec![], Some(1), fall),
            (Instr::GetField { dst: r(1), obj: r(2), field: f }, vec![2], Some(1), fall),
            (Instr::PutField { obj: r(2), field: f, src: r(3) }, vec![2, 3], None, fall),
            (Instr::GetGlobal { dst: r(1), global: g }, vec![], Some(1), fall),
            (Instr::PutGlobal { global: g, src: r(2) }, vec![2], None, fall),
            (Instr::ArrNew { dst: r(1), len: r(2) }, vec![2], Some(1), fall),
            (Instr::ArrGet { dst: r(1), arr: r(2), idx: r(3) }, vec![2, 3], Some(1), fall),
            (Instr::ArrSet { arr: r(2), idx: r(3), src: r(4) }, vec![2, 3, 4], None, fall),
            (Instr::ArrLen { dst: r(1), arr: r(2) }, vec![2], Some(1), fall),
            (Instr::InstanceOf { dst: r(1), obj: r(2), class: c }, vec![2], Some(1), fall),
            (Instr::Jump { target: 0 }, vec![], None, [Some(0), None]),
            (
                Instr::Branch { cond: Cond::Lt, lhs: r(2), rhs: r(3), target: 0 },
                vec![2, 3],
                None,
                [Some(0), Some(2)],
            ),
            (
                Instr::CallStatic { site, dst: Some(r(1)), callee: MethodId(0), args: two },
                vec![3, 2],
                Some(1),
                fall,
            ),
            (
                Instr::CallStatic { site, dst: None, callee: MethodId(0), args: none },
                vec![],
                None,
                fall,
            ),
            (
                Instr::CallVirtual { site, dst: Some(r(1)), selector: s, recv: r(4), args: two },
                vec![4, 3, 2],
                Some(1),
                fall,
            ),
            (
                Instr::CallVirtual { site, dst: None, selector: s, recv: r(4), args: none },
                vec![4],
                None,
                fall,
            ),
            (Instr::Return { src: Some(r(2)) }, vec![2], None, [None, None]),
            (Instr::Return { src: None }, vec![], None, [None, None]),
            (
                Instr::GuardClass { recv: r(2), class: c, else_target: 0 },
                vec![2],
                None,
                [Some(0), Some(2)],
            ),
            (
                Instr::GuardMethod { recv: r(2), selector: s, target: MethodId(0), else_target: 0 },
                vec![2],
                None,
                [Some(0), Some(2)],
            ),
        ];
        let mut covered = [false; VARIANTS];
        for (instr, uses, def, succ) in &table {
            covered[variant(instr)] = true;
            let mut got = Vec::new();
            instr.for_each_use(&pool, |r| got.push(r.0));
            assert_eq!(&got, uses, "uses of {instr:?}");
            assert_eq!(instr.def(), def.map(Reg), "def of {instr:?}");
            assert_eq!(instr.successors(1, 3), *succ, "successors of {instr:?}");
            // The last instruction of a body never falls through.
            assert_eq!(instr.successors(2, 3)[1], None, "{instr:?} at the end");
        }
        assert_eq!(covered, [true; VARIANTS], "every variant has a row");
    }

    #[test]
    fn instructions_are_copy_and_sixteen_bytes() {
        fn copy<T: Copy>() {}
        copy::<Instr>();
        assert_eq!(std::mem::size_of::<Instr>(), 16);
        assert_eq!(std::mem::size_of::<ArgSpan>(), 3);
    }

    #[test]
    fn arg_spans_stop_at_their_bounds() {
        let (pool, args) = (ArgSpan::MAX_POOL, ArgSpan::MAX_ARGS);
        assert_eq!(ArgSpan::new(pool - args, args).map(ArgSpan::range), Some(pool - args..pool));
        assert_eq!(ArgSpan::new(pool - args + 1, args), None, "past the pool");
        assert_eq!(ArgSpan::new(pool, 0).map(ArgSpan::len), Some(0));
        assert_eq!(ArgSpan::new(0, args + 1), None, "one call's arguments");
        let mut regs = vec![Reg(7); pool - 1];
        assert_eq!(ArgSpan::append(&mut regs, [Reg(1), Reg(2)]), None);
        assert_eq!(regs.len(), pool - 1, "a refused append leaves the pool as it was");
        let span = ArgSpan::append(&mut regs, [Reg(1)]).unwrap();
        assert_eq!(span.of(&regs), [Reg(1)]);
        assert_eq!(format!("{span:?}"), format!("{}..{pool}", pool - 1));
    }

    #[test]
    fn cond_inverse_round_trips() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.inverse().inverse(), c);
        }
    }
}
