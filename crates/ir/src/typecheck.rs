//! Whole-program type inference and verification.
//!
//! The AOCI bytecode is untyped at the instruction level (like Java
//! bytecode before verification). This module reconstructs types by
//! **unification**: every register, method parameter, method return, field,
//! global, selector slot and array-element position gets a type variable;
//! instructions contribute equality and shape constraints; conflicts are
//! reported with their location.
//!
//! Verification is flow-insensitive over value *shapes* (a register keeps
//! one shape for the whole method body) plus a flow-sensitive
//! **definite-assignment** analysis (every register is written on all paths
//! before any read). Programs produced by the builders in this workspace
//! are effectively SSA-like and verify cleanly; the pass exists to catch
//! generator and compiler bugs early and to document the typing discipline
//! the VM's runtime checks enforce dynamically.
//!
//! Both passes read bodies in place through [`Instr`]'s operand vocabulary
//! ([`Instr::for_each_use`], [`Instr::def`], [`Instr::successors`]), and
//! definite assignment keeps one bit row of `u64` words per instruction in
//! buffers reused from method to method, so verifying a program makes a
//! handful of allocations per method, not per instruction (DESIGN.md §18).
//!
//! ## Guarantee and caveat
//!
//! For a program that verifies, no *register* use can fault with a type
//! error or read an uninitialised register. That includes the result of a
//! call: a call that captures a result must not reach a method that returns
//! none, whether it is bound statically or dispatched through a selector
//! (any implementation of the selector counts). Heap locations (fields,
//! array elements, globals) are typed consistently across all reads and
//! writes, but a read *before any write* observes the VM's default value
//! (null / integer 0), which can still fault downstream; write-before-read
//! discipline remains the program's responsibility.
//!
//! ```
//! use aoci_ir::{typecheck, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let main = {
//!     let mut m = b.static_method("main", 0);
//!     let r = m.fresh_reg();
//!     m.const_int(r, 1);
//!     m.ret(Some(r));
//!     m.finish()
//! };
//! let program = b.finish(main)?;
//! typecheck::verify(&program)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::ids::{MethodId, Reg, SelectorId};
use crate::instr::{Cond, Instr};
use crate::method::{MethodDef, MethodKind};
use crate::program::Program;
use std::error::Error;
use std::fmt;

/// A resolved value shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// 64-bit integer.
    Int,
    /// Reference to an object.
    Obj,
    /// Reference to an array (element shape may itself be unresolved).
    Array,
    /// Never constrained — the slot is unused.
    Unknown,
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Shape::Int => "int",
            Shape::Obj => "object",
            Shape::Array => "array",
            Shape::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// A verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// Two incompatible shapes met in one equivalence class.
    Mismatch {
        /// Method containing the conflicting constraint.
        method: MethodId,
        /// Instruction index of the conflicting constraint.
        at: usize,
        /// Shape already established.
        expected: Shape,
        /// Shape the instruction required.
        found: Shape,
    },
    /// A register may be read before it is written on some path.
    MaybeUninitialised {
        /// Method containing the use.
        method: MethodId,
        /// Instruction index of the use.
        at: usize,
        /// The offending register.
        reg: Reg,
    },
    /// A method mixes `return` with and without a value.
    InconsistentReturns {
        /// The offending method.
        method: MethodId,
    },
    /// A caller uses the return value of a method that never returns one.
    VoidResultUsed {
        /// Method containing the call.
        method: MethodId,
        /// Instruction index of the call.
        at: usize,
        /// The void callee; for a virtual call, the lowest-numbered void
        /// implementation of its selector.
        callee: MethodId,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Mismatch { method, at, expected, found } => write!(
                f,
                "type mismatch in {method} at {at}: {expected} vs {found}"
            ),
            TypeError::MaybeUninitialised { method, at, reg } => write!(
                f,
                "register {reg} may be read before assignment in {method} at {at}"
            ),
            TypeError::InconsistentReturns { method } => {
                write!(f, "method {method} mixes value and void returns")
            }
            TypeError::VoidResultUsed { method, at, callee } => write!(
                f,
                "call in {method} at {at} uses the result of void method {callee}"
            ),
        }
    }
}

impl Error for TypeError {}

/// Types inferred for a verified program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeReport {
    /// Shape of each global variable.
    pub globals: Vec<Shape>,
    /// Shape of each field.
    pub fields: Vec<Shape>,
    /// Per method: parameter shapes (including the receiver for virtual
    /// methods) and the return shape (`None` for void methods).
    pub methods: Vec<(Vec<Shape>, Option<Shape>)>,
}

// ---------------------------------------------------------------------------
// Union-find over shape variables.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tag {
    Int,
    Obj,
    /// Array whose element variable is the payload.
    Array(u32),
    /// Some reference (null literal) — compatible with Obj and Array.
    AnyRef,
}

#[derive(Default)]
struct Table {
    parent: Vec<u32>,
    tag: Vec<Option<Tag>>,
}

impl Table {
    /// Allocates `n` consecutive fresh variables and returns the first.
    fn fresh_block(&mut self, n: usize) -> u32 {
        let len = self.parent.len();
        let ids = u32::try_from(len).ok().zip(u32::try_from(len + n).ok());
        let (first, end) = ids.expect("a program has fewer than 2^32 type variables");
        self.parent.extend(first..end);
        self.tag.resize(len + n, None);
        first
    }

    fn fresh(&mut self) -> u32 {
        self.fresh_block(1)
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Unifies two variables; on conflict returns the two irreconcilable
    /// shapes.
    fn unify(&mut self, a: u32, b: u32) -> Result<(), (Shape, Shape)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        let merged = match (self.tag[ra as usize], self.tag[rb as usize]) {
            (None, t) | (t, None) => t,
            (Some(x), Some(y)) => Some(self.merge_tags(x, y)?),
        };
        self.parent[rb as usize] = ra;
        self.tag[ra as usize] = merged;
        Ok(())
    }

    fn merge_tags(&mut self, x: Tag, y: Tag) -> Result<Tag, (Shape, Shape)> {
        match (x, y) {
            (Tag::Int, Tag::Int) => Ok(Tag::Int),
            (Tag::Obj, Tag::Obj) => Ok(Tag::Obj),
            (Tag::AnyRef, Tag::AnyRef) => Ok(Tag::AnyRef),
            (Tag::AnyRef, t @ (Tag::Obj | Tag::Array(_)))
            | (t @ (Tag::Obj | Tag::Array(_)), Tag::AnyRef) => Ok(t),
            (Tag::Array(e1), Tag::Array(e2)) => {
                self.unify(e1, e2)?;
                Ok(Tag::Array(e1))
            }
            (a, b) => Err((tag_shape(a), tag_shape(b))),
        }
    }

    /// Constrains a variable to a tag.
    fn require(&mut self, v: u32, t: Tag) -> Result<(), (Shape, Shape)> {
        let r = self.find(v);
        match self.tag[r as usize] {
            None => {
                self.tag[r as usize] = Some(t);
                Ok(())
            }
            Some(existing) => {
                let merged = self.merge_tags(existing, t)?;
                let r = self.find(v);
                self.tag[r as usize] = Some(merged);
                Ok(())
            }
        }
    }

    fn shape(&mut self, v: u32) -> Shape {
        let r = self.find(v);
        match self.tag[r as usize] {
            None => Shape::Unknown,
            Some(t) => tag_shape(t),
        }
    }
}

fn tag_shape(t: Tag) -> Shape {
    match t {
        Tag::Int => Shape::Int,
        Tag::Obj => Shape::Obj,
        Tag::Array(_) => Shape::Array,
        Tag::AnyRef => Shape::Obj,
    }
}

// ---------------------------------------------------------------------------

struct Checker {
    table: Table,
    /// First register variable of each method: a method's registers are
    /// allocated as one block, so register `r` of method `m` is variable
    /// `reg_base[m] + r`.
    reg_base: Vec<u32>,
    global_vars: Vec<u32>,
    field_vars: Vec<u32>,
    /// Return variable per method, plus whether it returns a value
    /// (`None` = not yet known).
    ret_vars: Vec<u32>,
    returns_value: Vec<Option<bool>>,
    /// First parameter variable of each selector (one block per selector,
    /// like registers), and its return variable.
    selector_param_base: Vec<u32>,
    selector_ret_vars: Vec<u32>,
}

/// Infers and verifies types for the whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found: a shape conflict, a possibly
/// uninitialised register read, inconsistent returns, or use of a void
/// result.
pub fn verify(program: &Program) -> Result<TypeReport, TypeError> {
    let mut table = Table::default();
    let reg_base: Vec<u32> =
        program.methods().map(|m| table.fresh_block(usize::from(m.num_regs()))).collect();
    let global_vars: Vec<u32> = (0..program.num_globals()).map(|_| table.fresh()).collect();
    let field_vars: Vec<u32> = (0..program.classes().map(|c| c.declared_fields().len()).sum())
        .map(|_| table.fresh())
        .collect();
    let ret_vars: Vec<u32> = program.methods().map(|_| table.fresh()).collect();
    let selector_param_base: Vec<u32> = (0..program.num_selectors())
        .map(|s| {
            let arity = program.selector(SelectorId::from_index(s)).arity();
            table.fresh_block(usize::from(arity))
        })
        .collect();
    let selector_ret_vars: Vec<u32> =
        (0..program.num_selectors()).map(|_| table.fresh()).collect();

    // Per-method return discipline: all returns agree on value vs void.
    let mut returns_value: Vec<Option<bool>> = vec![None; program.num_methods()];
    for m in program.methods() {
        for instr in m.body() {
            if let Instr::Return { src } = instr {
                let has = src.is_some();
                match returns_value[m.id().index()] {
                    None => returns_value[m.id().index()] = Some(has),
                    Some(prev) if prev != has => {
                        return Err(TypeError::InconsistentReturns { method: m.id() });
                    }
                    _ => {}
                }
            }
        }
    }

    let mut checker = Checker {
        table,
        reg_base,
        global_vars,
        field_vars,
        ret_vars,
        returns_value,
        selector_param_base,
        selector_ret_vars,
    };

    // Receivers are objects; virtual methods agree with their selector.
    for m in program.methods() {
        if let MethodKind::Virtual { selector, .. } = m.kind() {
            let mid = m.id();
            let at_entry = |(e, f)| mismatch(mid, 0, e, f);
            checker.table.require(checker.rv(mid, Reg(0)), Tag::Obj).map_err(at_entry)?;
            for k in 0..m.arity() {
                let pv = checker.rv(mid, Reg(k + 1));
                let sv = checker.selector_param_base[selector.index()] + u32::from(k);
                checker.table.unify(pv, sv).map_err(at_entry)?;
            }
            checker
                .table
                .unify(checker.ret_vars[mid.index()], checker.selector_ret_vars[selector.index()])
                .map_err(at_entry)?;
        }
    }

    let mut rows = Rows::default();
    for m in program.methods() {
        checker.check_method(m)?;
        definite_assignment(m, &mut rows)?;
    }

    // Void-result consistency: a call that captures a result requires every
    // method it can reach to return one.
    let void = |callee: &MethodId| checker.returns_value[callee.index()] == Some(false);
    for m in program.methods() {
        for (at, instr) in m.body().iter().enumerate() {
            let callee = match instr {
                Instr::CallStatic { dst: Some(_), callee, .. } => Some(callee).filter(|c| void(c)),
                Instr::CallVirtual { dst: Some(_), selector, .. } => {
                    program.implementations(*selector).iter().find(|c| void(c))
                }
                _ => None,
            };
            if let Some(&callee) = callee {
                return Err(TypeError::VoidResultUsed { method: m.id(), at, callee });
            }
        }
    }

    let Checker { mut table, reg_base, global_vars, field_vars, ret_vars, returns_value, .. } =
        checker;
    let globals = global_vars.iter().map(|&v| table.shape(v)).collect();
    let fields = field_vars.iter().map(|&v| table.shape(v)).collect();
    let methods = program
        .methods()
        .map(|m| {
            let base = reg_base[m.id().index()];
            let params = (0..m.total_args()).map(|k| table.shape(base + u32::from(k))).collect();
            let ret = (returns_value[m.id().index()] == Some(true))
                .then(|| table.shape(ret_vars[m.id().index()]));
            (params, ret)
        })
        .collect();
    Ok(TypeReport { globals, fields, methods })
}

fn mismatch(method: MethodId, at: usize, expected: Shape, found: Shape) -> TypeError {
    TypeError::Mismatch { method, at, expected, found }
}

impl Checker {
    fn rv(&self, m: MethodId, r: Reg) -> u32 {
        self.reg_base[m.index()] + u32::from(r.0)
    }

    fn check_method(&mut self, m: &MethodDef) -> Result<(), TypeError> {
        let mid = m.id();
        for (at, instr) in m.body().iter().enumerate() {
            self.check_instr(mid, instr, m.arg_pool()).map_err(|(e, f)| mismatch(mid, at, e, f))?;
        }
        Ok(())
    }

    fn check_instr(
        &mut self,
        m: MethodId,
        instr: &Instr,
        pool: &[Reg],
    ) -> Result<(), (Shape, Shape)> {
        match instr {
            Instr::Const { dst, .. } => self.table.require(self.rv(m, *dst), Tag::Int),
            Instr::ConstNull { dst } => self.table.require(self.rv(m, *dst), Tag::AnyRef),
            Instr::Move { dst, src } => self.table.unify(self.rv(m, *dst), self.rv(m, *src)),
            Instr::Bin { dst, lhs, rhs, .. } => {
                self.table.require(self.rv(m, *dst), Tag::Int)?;
                self.table.require(self.rv(m, *lhs), Tag::Int)?;
                self.table.require(self.rv(m, *rhs), Tag::Int)
            }
            Instr::Work { .. } | Instr::Jump { .. } => Ok(()),
            Instr::New { dst, .. } => self.table.require(self.rv(m, *dst), Tag::Obj),
            Instr::GetField { dst, obj, field } => {
                self.table.require(self.rv(m, *obj), Tag::Obj)?;
                self.table.unify(self.rv(m, *dst), self.field_vars[field.index()])
            }
            Instr::PutField { obj, field, src } => {
                self.table.require(self.rv(m, *obj), Tag::Obj)?;
                self.table.unify(self.rv(m, *src), self.field_vars[field.index()])
            }
            Instr::GetGlobal { dst, global } => {
                self.table.unify(self.rv(m, *dst), self.global_vars[global.index()])
            }
            Instr::PutGlobal { global, src } => {
                self.table.unify(self.rv(m, *src), self.global_vars[global.index()])
            }
            Instr::ArrNew { dst, len } => {
                self.table.require(self.rv(m, *len), Tag::Int)?;
                let elem = self.table.fresh();
                self.table.require(self.rv(m, *dst), Tag::Array(elem))
            }
            Instr::ArrGet { dst, arr, idx } => {
                self.table.require(self.rv(m, *idx), Tag::Int)?;
                let elem = self.table.fresh();
                self.table.require(self.rv(m, *arr), Tag::Array(elem))?;
                self.table.unify(self.rv(m, *dst), elem)
            }
            Instr::ArrSet { arr, idx, src } => {
                self.table.require(self.rv(m, *idx), Tag::Int)?;
                let elem = self.table.fresh();
                self.table.require(self.rv(m, *arr), Tag::Array(elem))?;
                self.table.unify(self.rv(m, *src), elem)
            }
            Instr::ArrLen { dst, arr } => {
                let elem = self.table.fresh();
                self.table.require(self.rv(m, *arr), Tag::Array(elem))?;
                self.table.require(self.rv(m, *dst), Tag::Int)
            }
            Instr::InstanceOf { dst, obj, .. } => {
                self.table.require(self.rv(m, *obj), Tag::AnyRef)?;
                self.table.require(self.rv(m, *dst), Tag::Int)
            }
            Instr::Branch { cond, lhs, rhs, .. } => match cond {
                Cond::Eq | Cond::Ne => self.table.unify(self.rv(m, *lhs), self.rv(m, *rhs)),
                _ => {
                    self.table.require(self.rv(m, *lhs), Tag::Int)?;
                    self.table.require(self.rv(m, *rhs), Tag::Int)
                }
            },
            Instr::CallStatic { dst, callee, args, .. } => {
                // Argument `k` lands in the callee's register `k`.
                for (param, a) in (0..).map(Reg).zip(args.of(pool)) {
                    self.table.unify(self.rv(m, *a), self.rv(*callee, param))?;
                }
                if let Some(d) = dst {
                    self.table.unify(self.rv(m, *d), self.ret_vars[callee.index()])?;
                }
                Ok(())
            }
            Instr::CallVirtual { dst, selector, recv, args, .. } => {
                self.table.require(self.rv(m, *recv), Tag::Obj)?;
                let params = self.selector_param_base[selector.index()];
                for (pv, a) in (params..).zip(args.of(pool)) {
                    self.table.unify(self.rv(m, *a), pv)?;
                }
                if let Some(d) = dst {
                    self.table.unify(self.rv(m, *d), self.selector_ret_vars[selector.index()])?;
                }
                Ok(())
            }
            Instr::Return { src } => {
                if let Some(r) = src {
                    self.table.unify(self.rv(m, *r), self.ret_vars[m.index()])?;
                }
                Ok(())
            }
            Instr::GuardClass { recv, .. } | Instr::GuardMethod { recv, .. } => {
                self.table.require(self.rv(m, *recv), Tag::Obj)
            }
        }
    }
}

/// The buffers of [`definite_assignment`], reused from method to method:
/// each is cleared and sized by the method that fills it.
#[derive(Default)]
struct Rows {
    /// Registers definitely assigned at entry to each instruction: row `i`
    /// is the `words` words from `i * words`, bit `r` set iff register `r`
    /// is written on every path found so far.
    entry: Vec<u64>,
    /// `seen[i]`: some path has reached instruction `i`, so its row holds
    /// a meet (an unseen row stands for "every register").
    seen: Vec<bool>,
    /// The worklist, last in first out.
    work: Vec<usize>,
    /// The row of the instruction being visited.
    state: Vec<u64>,
}

/// Flow-sensitive definite assignment: every register is written on all
/// paths before any read. Parameters count as written.
///
/// A forward dataflow whose meet is intersection, run as a last-in,
/// first-out worklist from instruction 0: an instruction's uses are checked
/// against its entry row in [`Instr::for_each_use`] order, and a successor
/// whose row shrinks (or that is reached for the first time) is pushed
/// again, branch target before fall-through. The first error is therefore
/// that of the first failing visit in that order.
fn definite_assignment(m: &MethodDef, rows: &mut Rows) -> Result<(), TypeError> {
    let body = m.body();
    let n = body.len();
    if n == 0 {
        return Ok(());
    }
    let words = usize::from(m.num_regs()).div_ceil(64);
    let bit = |r: usize| (r / 64, 1u64 << (r % 64));
    let Rows { entry, seen, work, state } = rows;
    entry.clear();
    entry.resize(n * words, 0);
    seen.clear();
    seen.resize(n, false);
    state.clear();
    state.resize(words, 0);
    for p in 0..usize::from(m.total_args()) {
        let (word, mask) = bit(p);
        entry[word] |= mask;
    }
    seen[0] = true;
    work.clear();
    work.push(0);
    while let Some(i) = work.pop() {
        state.copy_from_slice(&entry[i * words..(i + 1) * words]);
        let mut uninitialised = None;
        body[i].for_each_use(m.arg_pool(), |r| {
            let (word, mask) = bit(r.index());
            if uninitialised.is_none() && state[word] & mask == 0 {
                uninitialised = Some(r);
            }
        });
        if let Some(reg) = uninitialised {
            return Err(TypeError::MaybeUninitialised { method: m.id(), at: i, reg });
        }
        if let Some(d) = body[i].def() {
            let (word, mask) = bit(d.index());
            state[word] |= mask;
        }
        for s in body[i].successors(i, n).into_iter().flatten() {
            let row = &mut entry[s * words..(s + 1) * words];
            let first = !seen[s];
            seen[s] = true;
            let mut changed = first;
            for (e, &st) in row.iter_mut().zip(state.iter()) {
                let met = if first { st } else { *e & st };
                changed |= met != *e;
                *e = met;
            }
            if changed {
                work.push(s);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
