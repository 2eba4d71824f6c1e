//! Instruction execution over pre-decoded bodies (DESIGN.md §13).
//!
//! [`Vm::run`](super::Vm::run) owns the event schedule; this module owns the
//! steps. It executes the [`DecodedBody`] the registry builds lazily beside
//! each [`MethodVersion`] it owns: a flat array of [`DecodedInstr`]s, each
//! carrying its precomputed simulated cost, the superinstruction it heads
//! (if any), and the fully resolved operands ([`DecodedOp`]). Dispatch is a
//! jump table over the pre-fetched op with every handler forced inline into
//! the loop body — no refcount on the version the loop runs or calls, no
//! `Instr` clone, no program-table lookups, no re-resolution of fields or
//! layouts. (See the [`DecodedInstr`] docs for why per-slot function
//! pointers were tried and dropped.)
//!
//! ## What [`run_frames`] guarantees the schedule
//!
//! Running many instructions per call must be indistinguishable from
//! running one and going back through `run`'s checks — same simulated
//! cycles per component, same counters, same trace events, same errors at
//! the same sites, same [`RunOutcome`](super::RunOutcome) sequence:
//!
//! * **It stops wherever a check can fire.** It compares the clock against
//!   `event`, the earlier of the due sample and the budget's end, after
//!   every instruction, push and pop; a back-edge says whether it raised an
//!   OSR request (a call or a return cannot). It goes back to `run` to
//!   yield, to take an OSR exit, when the entry frame returned, and with a
//!   call whose callee has no code yet.
//! * **The registry owns, the loop borrows, frames name.** Code lives as
//!   long as its `Vm`, so the loop holds `&CodeRegistry` and the running
//!   slot's `&DecodedBody` across pushes and pops. Handlers take what they
//!   mutate ([`Exec`], [`Act`]), never the frame stack or the registry.
//!   While a frame runs, its pc and the clock are locals; leaving it —
//!   call, return, OSR exit, yield or fault — stores the pc back and
//!   charges the cycles it ran, then the stack changes.
//! * **Superinstructions are compositions.** A fused handler is literally
//!   `first_half(); boundary(); second_half()` where the halves are the
//!   plain handlers and `boundary` performs exactly what happens between
//!   two adjacent instructions (store the advanced pc, charge the second
//!   instruction's cost). A pair runs fused only when the clock, after the
//!   first half's charge, is strictly below `event` — precisely when no
//!   check could have fired between the halves. First halves are
//!   straight-line ops (`Const`, `Move`, `GetField`, `Bin`): they cannot
//!   branch, call, return, finish, or raise an OSR request — and each
//!   costs `level_factor >= 1` cycles, so under `run(1)` the first half's
//!   charge reaches `event` and nothing fuses: single-stepping is the
//!   fusion-free reference the tests compare against.
//! * **Fusion never changes layout.** Decoded pc == source pc, and the
//!   second instruction of a fused pair keeps its own plain entry, so
//!   branch targets, OSR anchors and sample attribution are untouched
//!   (a jump *into* the middle of a pair executes the second op plainly).

use super::{enter, Act, Exec, Frame};
use crate::clock::Component;
use crate::code::{MethodVersion, OptLevel};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::registry::{CodeRegistry, CodeSlot};
use crate::value::Value;
use aoci_ir::{decode_body, fusion_plan, BinOp, Cond, DecodedOp, FusedKind, MethodId, Program, Reg};
use std::sync::Arc;

/// The operands of a call instruction: where its value goes, and which of
/// the caller's registers become the callee's first ones.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallOps<'b> {
    /// Where the caller wants the return value.
    pub(crate) dst: Option<u16>,
    /// The receiver register (virtual calls): the first argument.
    pub(crate) recv: Option<Reg>,
    /// The remaining argument registers.
    pub(crate) args: &'b [Reg],
}

impl<'b> CallOps<'b> {
    /// Reads them off `op`, which is a call in the body whose argument
    /// pool is `pool`.
    #[inline(always)]
    pub(super) fn of(op: &DecodedOp, pool: &'b [Reg]) -> Self {
        let (dst, recv, args) = match *op {
            DecodedOp::CallStatic { dst, args, .. } => (dst, None, args),
            DecodedOp::CallVirtual { dst, recv, args, .. } => (dst, Some(Reg(recv)), args),
            _ => unreachable!("only a call has call operands"),
        };
        CallOps { dst, recv, args: args.of(pool) }
    }
}

/// What a handler tells the dispatch loop to do next.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Flow<'b> {
    /// Fall through to `pc + 1`.
    Advance,
    /// A fused pair fell through: continue at `pc + 2`; the second half
    /// (the instruction that just executed) sat at `pc + 1`.
    AdvanceFused,
    /// Transfer to `target`. `fused` marks a taken branch that executed as
    /// the second half of a pair at `pc + 1` (the back-edge hook needs the
    /// branch's own pc).
    Jump {
        /// Absolute target pc.
        target: u32,
        /// Whether the branch ran as a fused second half.
        fused: bool,
    },
    /// A call resolved its callee and found its argument registers
    /// readable; the loop opens the callee's frame.
    Call {
        /// The method to invoke.
        callee: MethodId,
        /// The call instruction; its operands are read ([`CallOps::of`],
        /// with the caller's argument pool) only where the callee's frame
        /// is opened.
        op: &'b DecodedOp,
    },
    /// A `Return` read its value; the loop pops the frame.
    Ret(Option<Value>),
}

/// Why the top frame stopped running: what [`run_frame`] hands
/// [`run_frames`], which hands `run` what it cannot complete itself.
pub(super) enum Switch<'b> {
    /// A call, charged and counted, its arguments readable. To `run`: the
    /// callee has no code yet.
    Call {
        /// The method to invoke.
        callee: MethodId,
        /// The call instruction the top frame rests on.
        op: &'b DecodedOp,
    },
    /// A return with this value. To `run`: the entry frame's — the frame
    /// stack is empty and the program has finished.
    Ret(Option<Value>),
    /// An optimized activation must leave its code at this loop header.
    OsrExit(u32),
    /// A sample, the budget's end or an OSR request may be due.
    Yield,
}

/// One slot of a pre-decoded body: the execution-ready form of one source
/// instruction. 32 bytes: the 16-byte op, its cost and its fusion tag.
///
/// Dispatch is a jump table over [`DecodedOp`]'s tag (and [`FusedKind`]
/// for superinstructions), with every handler inlined into the run loop.
/// An earlier revision threaded dispatch through per-slot function
/// pointers; on this workload mix the indirect calls defeated handler
/// inlining and measured ~30% *slower* than a plain `match` over [`Instr`]
/// in release mode, so the explicit pointer table was dropped — the decoded
/// win comes from pre-resolved operands, precomputed costs and fusion,
/// not from the dispatch mechanism itself.
///
/// [`Instr`]: aoci_ir::Instr
#[derive(Clone, Debug)]
pub(crate) struct DecodedInstr {
    /// Precomputed simulated cost of this instruction (charged by the
    /// dispatch loop before the handler runs).
    pub(crate) cost: u64,
    /// The superinstruction this pc heads, when it heads one.
    pub(crate) fused: Option<FusedKind>,
    /// The decoded operands.
    pub(crate) op: DecodedOp,
}

/// A fully pre-decoded method body plus the per-body constants the
/// dispatch loop needs (charge component, method id for fault sites).
#[derive(Clone, Debug)]
pub(crate) struct DecodedBody {
    /// The method this body compiles (fault attribution).
    pub(crate) method: MethodId,
    /// Registers an activation of this body needs.
    pub(crate) num_regs: u16,
    /// Compilation level (drives the back-edge hook's direction).
    pub(crate) level: OptLevel,
    /// The clock component application cycles are charged to.
    pub(crate) component: Component,
    /// One decoded slot per source instruction; decoded pc == source pc.
    pub(crate) instrs: Box<[DecodedInstr]>,
    /// The version's argument pool, shared: the registers the calls'
    /// [`ArgSpan`](aoci_ir::ArgSpan)s name.
    pub(crate) arg_pool: Arc<[Reg]>,
}

impl DecodedBody {
    /// Lowers `version.body` into its decoded form under `cost`. Costs and
    /// the charge component are precomputed per instruction; the fusion
    /// plan marks each pc that heads a fused pair. The argument pool is the
    /// version's own, shared: decoded spans are the source spans.
    pub(crate) fn build(version: &MethodVersion, program: &Program, cost: &CostModel) -> Self {
        let ops = decode_body(&version.body, program);
        let plan = fusion_plan(&ops);
        let costs: Vec<u64> =
            version.body.iter().map(|i| cost.instr_cost(i, version.level)).collect();
        let component = match version.level {
            OptLevel::Baseline => Component::AppBaseline,
            OptLevel::Optimized => Component::AppOptimized,
        };
        let instrs = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| {
                DecodedInstr { cost: costs[i], fused: plan[i], op }
            })
            .collect();
        let num_regs = version.num_regs;
        let arg_pool = Arc::clone(&version.arg_pool);
        DecodedBody {
            method: version.method,
            num_regs,
            level: version.level,
            component,
            instrs,
            arg_pool,
        }
    }
}

/// Executes the plain (single-instruction) handler for `op`, the
/// instruction at `a.pc`. One jump table; every handler inlines into the
/// caller's loop body.
#[inline(always)]
fn dispatch_plain<'b>(
    x: &mut Exec<'_>,
    a: &mut Act<'_>,
    op: &'b DecodedOp,
    pool: &[Reg],
) -> Result<Flow<'b>, VmError> {
    match op {
        DecodedOp::Const { .. } => op_const(x, a, op),
        DecodedOp::ConstNull { .. } => op_const_null(x, a, op),
        DecodedOp::Move { .. } => op_move(x, a, op),
        DecodedOp::Bin { .. } => op_bin(x, a, op),
        DecodedOp::Work { .. } => Ok(Flow::Advance),
        DecodedOp::New { .. } => op_new(x, a, op),
        DecodedOp::GetField { .. } => op_get_field(x, a, op),
        DecodedOp::PutField { .. } => op_put_field(x, a, op),
        DecodedOp::GetGlobal { .. } => op_get_global(x, a, op),
        DecodedOp::PutGlobal { .. } => op_put_global(x, a, op),
        DecodedOp::ArrNew { .. } => op_arr_new(x, a, op),
        DecodedOp::ArrGet { .. } => op_arr_get(x, a, op),
        DecodedOp::ArrSet { .. } => op_arr_set(x, a, op),
        DecodedOp::ArrLen { .. } => op_arr_len(x, a, op),
        DecodedOp::InstanceOf { .. } => op_instance_of(x, a, op),
        DecodedOp::Jump { target } => Ok(Flow::Jump { target: *target, fused: false }),
        DecodedOp::Branch { .. } => op_branch(x, a, op),
        DecodedOp::CallStatic { .. } => op_call_static(x, a, op, pool),
        DecodedOp::CallVirtual { .. } => op_call_virtual(x, a, op, pool),
        DecodedOp::Return { .. } => op_return(x, a, op),
        DecodedOp::GuardClass { .. } => op_guard_class(x, a, op),
        DecodedOp::GuardMethod { .. } => op_guard_method(x, a, op),
    }
}

/// Executes the superinstruction for the fused pair headed at `a.pc`:
/// the first half's plain handler, the inter-instruction boundary, the
/// second half's plain handler. The boundary is what the interpreter does
/// between two adjacent instructions: advance the pc (so fault sites and
/// register errors in the second half see the second instruction's pc) and
/// charge the second instruction's cost.
/// First halves are straight-line: they always fall through.
#[inline(always)]
fn dispatch_fused<'b>(
    kind: FusedKind,
    x: &mut Exec<'_>,
    a: &mut Act<'_>,
    body: &'b DecodedBody,
) -> Result<Flow<'b>, VmError> {
    // A macro, not a function over the two handlers: passed as values they
    // are reached through a `call_once` shim that is not inlined.
    macro_rules! fused {
        ($first:ident, $second:ident) => {{
            let pc = a.pc;
            $first(x, a, &body.instrs[pc].op)?;
            a.pc = pc + 1;
            a.now += body.instrs[pc + 1].cost;
            $second(x, a, &body.instrs[pc + 1].op)?
        }};
    }
    let second_half = match kind {
        FusedKind::ConstBin => fused!(op_const, op_bin),
        FusedKind::MoveBin => fused!(op_move, op_bin),
        FusedKind::GetFieldBin => fused!(op_get_field, op_bin),
        FusedKind::BinBranch => fused!(op_bin, op_branch),
        FusedKind::ConstBranch => fused!(op_const, op_branch),
    };
    // Lift the second half's flow into its fused form: the dispatch loop
    // must know the instruction that produced it sat at `pc + 1`.
    Ok(match second_half {
        Flow::Advance => Flow::AdvanceFused,
        Flow::Jump { target, .. } => Flow::Jump { target, fused: true },
        other => other,
    })
}

/// Runs the top frame, and every frame a call or a return puts on top, until
/// the loop may have to yield or meets one of the three things it leaves to
/// `run` (see [`Switch`]). Whenever it returns — a fault included — the
/// frames' pcs and the clock are current, with the top frame's `pc`
/// on the instruction that stopped the loop or, for a yield, the next one to
/// run.
#[inline]
pub(super) fn run_frames<'r>(
    x: &mut Exec<'_>,
    registry: &'r CodeRegistry,
    stack: &mut Vec<Frame>,
    regs: &mut Vec<Value>,
    event: u64,
) -> Result<Switch<'r>, VmError> {
    loop {
        let frame =
            *stack.last().ok_or(VmError::NoActiveFrame { context: "executing an instruction" })?;
        let body = registry.body(frame.code, x.program, &x.cost);
        let t0 = x.clock.total();
        let win = &mut regs[frame.base..];
        let mut a = Act { method: body.method, win, pc: frame.pc, now: t0 };
        let left = run_frame(x, registry, frame.code, body, &mut a, event);
        // The one place the frame's locals go back: before the stack changes,
        // before anything can observe them (yield), and on a fault.
        x.clock.charge(body.component, a.now - t0);
        stack.last_mut().expect("fetched above").pc = a.pc;
        match left? {
            Switch::Call { callee, op } => match registry.current_slot(callee) {
                Some(code) => {
                    enter(x, registry, stack, regs, code, CallOps::of(op, &body.arg_pool))?
                }
                None => return Ok(Switch::Call { callee, op }),
            },
            Switch::Ret(value) => {
                stack.pop();
                regs.truncate(frame.base);
                let Some(caller) = stack.last_mut() else { return Ok(Switch::Ret(value)) };
                if let (Some(dst), Some(v)) = (frame.ret_dst, value) {
                    let slot = regs[caller.base..].get_mut(dst.index()).ok_or_else(|| {
                        let method = registry.version(caller.code).method;
                        VmError::BadRegister { method, pc: caller.pc, reg: dst.index() }
                    })?;
                    *slot = v;
                }
                caller.pc += 1; // advance past the call instruction
            }
            leave => return Ok(leave),
        }
        // All that `run`'s checks come to after a push or a pop: neither can
        // raise an OSR request, so only the clock can make one fire.
        if x.clock.total() >= event {
            return Ok(Switch::Yield);
        }
    }
}

/// Runs the frame `a` describes — `body`, in slot `code` — until the stack
/// has to change or the loop may have to yield, the clock being `a.now`.
#[inline(always)]
fn run_frame<'b>(
    x: &mut Exec<'_>,
    registry: &CodeRegistry,
    code: CodeSlot,
    body: &'b DecodedBody,
    a: &mut Act<'_>,
    event: u64,
) -> Result<Switch<'b>, VmError> {
    loop {
        let pc = a.pc;
        let di = body
            .instrs
            .get(pc)
            .ok_or(VmError::PcOutOfRange { method: body.method, pc })?;
        a.now += di.cost;
        // Fused fast path only while the clock stays strictly below the
        // next event boundary after the first half's charge — exactly when
        // no check of the schedule could fire between the two halves.
        let flow = match di.fused {
            Some(kind) if a.now < event => dispatch_fused(kind, x, a, body)?,
            _ => dispatch_plain(x, a, &di.op, &body.arg_pool)?,
        };
        let mut raised = false;
        a.pc = match flow {
            Flow::Advance => pc + 1,
            Flow::AdvanceFused => pc + 2,
            Flow::Jump { target, fused } => {
                // Taken backward control flow = a loop back-edge: the OSR
                // hook in both directions. (Only `Jump`/`Branch` can move
                // the pc backward; guard else-targets always point
                // forward.) `from` is the pc of the branch itself — the
                // second half, for a fused pair.
                let (next_pc, from) = (target as usize, pc + usize::from(fused));
                if x.config.osr_enabled && next_pc <= from {
                    match body.level {
                        OptLevel::Baseline => raised = x.count_backedge(body.method, target),
                        OptLevel::Optimized => {
                            // The version was invalidated, and the header is
                            // an exit.
                            let version = registry.version(code);
                            if registry.is_invalidated(version.version_id)
                                && version.osr_map.exit_at_opt(target).is_some()
                            {
                                return Ok(Switch::OsrExit(target));
                            }
                        }
                    }
                }
                next_pc
            }
            // The caller's pc stays on the call instruction while the callee
            // runs (stack walks read the site from it); it is advanced on
            // return.
            Flow::Call { callee, op } => return Ok(Switch::Call { callee, op }),
            Flow::Ret(value) => return Ok(Switch::Ret(value)),
        };
        if raised || a.now >= event {
            return Ok(Switch::Yield);
        }
    }
}

// ---------------------------------------------------------------------------
// Plain handlers: the semantics of each opcode, reading operands from the
// decoded form. Faults name `a.method` / `a.pc` (the dispatch loop keeps
// `a.pc` on the executing instruction).
// ---------------------------------------------------------------------------

#[inline(always)]
fn op_const<'b>(_x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::Const { dst, value } = op else { unreachable!() };
    a.set_reg(Reg(dst), Value::Int(value))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_const_null<'b>(_x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::ConstNull { dst } = op else { unreachable!() };
    a.set_reg(Reg(dst), Value::Null)?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_move<'b>(_x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::Move { dst, src } = op else { unreachable!() };
    let v = a.reg(Reg(src))?;
    a.set_reg(Reg(dst), v)?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_bin<'b>(_x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::Bin { op, dst, lhs, rhs } = op else { unreachable!() };
    let (method, pc) = (a.method, a.pc);
    let l = a.int(a.reg(Reg(lhs))?)?;
    let r = a.int(a.reg(Reg(rhs))?)?;
    let r = match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return Err(VmError::DivideByZero { method, pc });
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return Err(VmError::DivideByZero { method, pc });
            }
            l.wrapping_rem(r)
        }
        BinOp::And => l & r,
        BinOp::Or => l | r,
        BinOp::Xor => l ^ r,
    };
    a.set_reg(Reg(dst), Value::Int(r))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_new<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::New { dst, class, layout } = op else { unreachable!() };
    let r = x.heap.alloc_object(class, layout);
    a.set_reg(Reg(dst), Value::Ref(r))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_get_field<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::GetField { dst, obj, offset, .. } = op else {
        unreachable!()
    };
    let (method, pc) = (a.method, a.pc);
    let r = a.reg(Reg(obj))?.as_ref().ok_or(VmError::NullDeref { method, pc })?;
    let v = x
        .heap
        .get_field(r, offset)
        .ok_or(VmError::TypeError { method, pc, expected: "object" })?;
    a.set_reg(Reg(dst), v)?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_put_field<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::PutField { obj, offset, src, .. } = op else {
        unreachable!()
    };
    let (method, pc) = (a.method, a.pc);
    let r = a.reg(Reg(obj))?.as_ref().ok_or(VmError::NullDeref { method, pc })?;
    let v = a.reg(Reg(src))?;
    if !x.heap.put_field(r, offset, v) {
        return Err(VmError::TypeError { method, pc, expected: "object" });
    }
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_get_global<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::GetGlobal { dst, global } = op else { unreachable!() };
    let v = x.globals[global.index()];
    a.set_reg(Reg(dst), v)?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_put_global<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::PutGlobal { global, src } = op else { unreachable!() };
    x.globals[global.index()] = a.reg(Reg(src))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_arr_new<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::ArrNew { dst, len } = op else { unreachable!() };
    let n = a.int(a.reg(Reg(len))?)?;
    if n < 0 {
        return Err(VmError::NegativeArrayLength { method: a.method, pc: a.pc });
    }
    let len = u32::try_from(n)
        .map_err(|_| VmError::ArrayTooLarge { method: a.method, pc: a.pc, len: n })?;
    let r = x.heap.alloc_array(len);
    a.set_reg(Reg(dst), Value::Ref(r))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_arr_get<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::ArrGet { dst, arr, idx } = op else { unreachable!() };
    let (method, pc) = (a.method, a.pc);
    let r = a.reg(Reg(arr))?.as_ref().ok_or(VmError::NullDeref { method, pc })?;
    let i = a.int(a.reg(Reg(idx))?)?;
    let v = x
        .heap
        .arr_get(r, i)
        .ok_or(VmError::IndexOutOfBounds { method, pc, index: i })?;
    a.set_reg(Reg(dst), v)?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_arr_set<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::ArrSet { arr, idx, src } = op else { unreachable!() };
    let (method, pc) = (a.method, a.pc);
    let r = a.reg(Reg(arr))?.as_ref().ok_or(VmError::NullDeref { method, pc })?;
    let i = a.int(a.reg(Reg(idx))?)?;
    let v = a.reg(Reg(src))?;
    if !x.heap.arr_set(r, i, v) {
        return Err(VmError::IndexOutOfBounds { method, pc, index: i });
    }
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_arr_len<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::ArrLen { dst, arr } = op else { unreachable!() };
    let (method, pc) = (a.method, a.pc);
    let r = a.reg(Reg(arr))?.as_ref().ok_or(VmError::NullDeref { method, pc })?;
    let n = x
        .heap
        .arr_len(r)
        .ok_or(VmError::TypeError { method, pc, expected: "array" })?;
    a.set_reg(Reg(dst), Value::Int(n))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_instance_of<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::InstanceOf { dst, obj, class } = op else { unreachable!() };
    let result = match a.reg(Reg(obj))? {
        Value::Ref(r) => match x.heap.class_of(r) {
            Some(c) => x.program.is_subclass(c, class),
            None => false,
        },
        _ => false,
    };
    a.set_reg(Reg(dst), Value::Int(result as i64))?;
    Ok(Flow::Advance)
}

#[inline(always)]
fn op_branch<'b>(_x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::Branch { cond, lhs, rhs, target } = op else {
        unreachable!()
    };
    let l = a.reg(Reg(lhs))?;
    let r = a.reg(Reg(rhs))?;
    let taken = match cond {
        Cond::Eq => l.vm_eq(r),
        Cond::Ne => !l.vm_eq(r),
        Cond::Lt => a.int(l)? < a.int(r)?,
        Cond::Le => a.int(l)? <= a.int(r)?,
        Cond::Gt => a.int(l)? > a.int(r)?,
        Cond::Ge => a.int(l)? >= a.int(r)?,
    };
    Ok(if taken { Flow::Jump { target, fused: false } } else { Flow::Advance })
}

#[inline(always)]
fn op_guard_class<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::GuardClass { recv, class, else_target } = op else {
        unreachable!()
    };
    let pass = match a.reg(Reg(recv))? {
        Value::Ref(r) => x.heap.class_of(r) == Some(class),
        _ => false,
    };
    Ok(match x.note_guard(a, pass) {
        true => Flow::Advance,
        false => Flow::Jump { target: else_target, fused: false },
    })
}

#[inline(always)]
fn op_guard_method<'b>(x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::GuardMethod { recv, selector, target, else_target } = op
    else {
        unreachable!()
    };
    let pass = match a.reg(Reg(recv))? {
        Value::Ref(r) => {
            x.heap.class_of(r).and_then(|c| x.program.lookup_virtual(c, selector)) == Some(target)
        }
        _ => false,
    };
    Ok(match x.note_guard(a, pass) {
        true => Flow::Advance,
        false => Flow::Jump { target: else_target, fused: false },
    })
}

#[inline(always)]
fn op_call_static<'b>(
    x: &mut Exec<'_>,
    a: &mut Act<'_>,
    op: &'b DecodedOp,
    pool: &[Reg],
) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::CallStatic { callee, args, .. } = op else { unreachable!() };
    x.counters.calls += 1;
    a.check_args(args.of(pool).iter().copied())?;
    Ok(Flow::Call { callee, op })
}

#[inline(always)]
fn op_call_virtual<'b>(
    x: &mut Exec<'_>,
    a: &mut Act<'_>,
    op: &'b DecodedOp,
    pool: &[Reg],
) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::CallVirtual { selector, recv, args, .. } = op else { unreachable!() };
    x.counters.calls += 1;
    x.counters.virtual_dispatches += 1;
    let callee = x.virtual_target(a, Reg(recv), selector)?;
    a.check_args(args.of(pool).iter().copied())?;
    Ok(Flow::Call { callee, op })
}

#[inline(always)]
fn op_return<'b>(_x: &mut Exec<'_>, a: &mut Act<'_>, op: &'b DecodedOp) -> Result<Flow<'b>, VmError> {
    let &DecodedOp::Return { src } = op else { unreachable!() };
    Ok(Flow::Ret(match src {
        Some(r) => Some(a.reg(Reg(r))?),
        None => None,
    }))
}
