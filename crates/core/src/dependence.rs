//! Static parameter-dependence analysis — the paper's approximation of
//! *ideal* context sensitivity (Section 4.1).
//!
//! > "One possible approach that might closely approximate this ideal would
//! > be to analyze each method and identify call sites that are data or
//! > control dependent on parameters to the method. These call sites would
//! > then be flagged as requiring additional context when sampled. As the
//! > listener sampled the stack, it would continue to trace the stack until
//! > it encountered a call site that was not flagged."
//!
//! [`DependenceAnalysis`] computes, per method, whether any of its call
//! sites is data- or control-dependent on the method's parameters, via a
//! simple intra-procedural taint analysis: parameters (including the
//! receiver) are taint sources; `Move`/`Bin`/array/field reads propagate
//! taint through registers; a call site *needs context* when its receiver
//! or an argument is tainted, or when it is control-dependent on a tainted
//! branch (approximated as: a tainted branch exists in the method). The
//! [`PolicyKind::IdealApprox`](crate::PolicyKind) policy keeps extending a
//! trace exactly while the walk is inside such methods.

use aoci_ir::{Instr, MethodId, Program, Reg};

/// Per-method parameter-dependence facts.
#[derive(Clone, Debug)]
pub struct DependenceAnalysis {
    /// `true` when any call site of the method depends (data or control)
    /// on the method's parameters — i.e. its callers' identity can change
    /// its call behaviour, so additional context is informative.
    needs_context: Vec<bool>,
}

impl DependenceAnalysis {
    /// Analyzes every method of `program`.
    pub fn analyze(program: &Program) -> Self {
        let needs_context = program
            .methods()
            .map(|m| method_needs_context(m.body(), m.arg_pool(), m.total_args(), m.num_regs()))
            .collect();
        DependenceAnalysis { needs_context }
    }

    /// Returns `true` if context beyond `method` is predicted useful.
    pub fn needs_context(&self, method: MethodId) -> bool {
        self.needs_context
            .get(method.index())
            .copied()
            .unwrap_or(false)
    }

    /// Number of methods whose call sites are parameter-dependent.
    pub fn dependent_methods(&self) -> usize {
        self.needs_context.iter().filter(|&&b| b).count()
    }
}

/// Flow-insensitive taint fixpoint over one body, with its argument pool,
/// whose registers are all below `num_regs` (a validated method's).
fn method_needs_context(body: &[Instr], pool: &[Reg], total_args: u16, num_regs: u16) -> bool {
    if total_args == 0 {
        // No parameters — callers cannot influence behaviour (modulo
        // globals, the paper's acknowledged exception).
        return false;
    }
    let mut tainted = vec![false; usize::from(num_regs)];
    for t in tainted.iter_mut().take(usize::from(total_args)) {
        *t = true;
    }
    // Iterate to fixpoint (flow-insensitive; bodies are small).
    loop {
        let mut changed = false;
        for instr in body.iter().filter(|i| propagates_taint(i)) {
            let Some(d) = instr.def() else { continue };
            if tainted[d.index()] {
                continue;
            }
            let mut from_tainted = false;
            instr.for_each_use(pool, |s| from_tainted |= tainted[s.index()]);
            if from_tainted {
                tainted[d.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let tainted_branch = body.iter().any(|i| match i {
        Instr::Branch { lhs, rhs, .. } => tainted[lhs.index()] || tainted[rhs.index()],
        _ => false,
    });

    // A call depends on the parameters through a tainted branch or a
    // tainted operand (a virtual call's receiver among them).
    body.iter().filter(|i| i.is_call()).any(|i| {
        let mut operand = false;
        i.for_each_use(pool, |r| operand |= tainted[r.index()]);
        tainted_branch || operand
    })
}

/// Whether taint flows from the registers an instruction reads into the one
/// it writes. Constants, allocations, global reads and call results are
/// caller-independent.
fn propagates_taint(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Move { .. }
            | Instr::Bin { .. }
            | Instr::GetField { .. }
            | Instr::ArrGet { .. }
            | Instr::ArrLen { .. }
            | Instr::InstanceOf { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::{BinOp, Cond, ProgramBuilder};

    fn analyze(build: impl FnOnce(&mut ProgramBuilder) -> MethodId) -> (Program, DependenceAnalysis) {
        let mut b = ProgramBuilder::new();
        let main = build(&mut b);
        let p = b.finish(main).expect("valid");
        let a = DependenceAnalysis::analyze(&p);
        (p, a)
    }

    use aoci_ir::Program;

    #[test]
    fn receiver_from_parameter_needs_context() {
        let (p, a) = analyze(|b| {
            let sel = b.selector("f", 0);
            let c = b.class("A", None);
            {
                let mut m = b.virtual_method("A.f", c, sel);
                m.ret(None);
                m.finish();
            }
            {
                let mut m = b.static_method("callsOnParam", 1);
                m.call_virtual(None, sel, m.param(0), &[]);
                m.ret(None);
                m.finish();
            }
            let mut m = b.static_method("main", 0);
            m.ret(None);
            m.finish()
        });
        let target = p.method_by_name("callsOnParam").unwrap();
        assert!(a.needs_context(target));
        assert!(!a.needs_context(p.entry()));
    }

    #[test]
    fn receiver_from_global_does_not_need_context() {
        let (p, a) = analyze(|b| {
            let sel = b.selector("f", 0);
            let c = b.class("A", None);
            let g = b.global("recv");
            {
                let mut m = b.virtual_method("A.f", c, sel);
                m.ret(None);
                m.finish();
            }
            {
                // Takes a parameter but never lets it reach a call or branch.
                let mut m = b.static_method("callsOnGlobal", 1);
                let r = m.fresh_reg();
                m.get_global(r, g);
                m.call_virtual(None, sel, r, &[]);
                m.ret(None);
                m.finish();
            }
            let mut m = b.static_method("main", 0);
            m.ret(None);
            m.finish()
        });
        let target = p.method_by_name("callsOnGlobal").unwrap();
        assert!(!a.needs_context(target));
    }

    #[test]
    fn control_dependence_on_parameter_counts() {
        let (p, a) = analyze(|b| {
            let callee = {
                let mut m = b.static_method("leaf", 0);
                m.ret(None);
                m.finish()
            };
            {
                // The call executes only when param > 0: control-dependent.
                let mut m = b.static_method("conditional", 1);
                let zero = m.fresh_reg();
                m.const_int(zero, 0);
                let skip = m.label();
                m.branch(Cond::Le, m.param(0), zero, skip);
                m.call_static(None, callee, &[]);
                m.bind(skip);
                m.ret(None);
                m.finish();
            }
            let mut m = b.static_method("main", 0);
            m.ret(None);
            m.finish()
        });
        let target = p.method_by_name("conditional").unwrap();
        assert!(a.needs_context(target));
    }

    #[test]
    fn taint_propagates_through_arithmetic() {
        let (p, a) = analyze(|b| {
            let callee = {
                let mut m = b.static_method("leaf", 1);
                m.ret(None);
                m.finish()
            };
            {
                let mut m = b.static_method("derived", 1);
                let t = m.fresh_reg();
                let one = m.fresh_reg();
                m.const_int(one, 1);
                m.bin(BinOp::Add, t, m.param(0), one);
                m.call_static(None, callee, &[t]); // tainted argument
                m.ret(None);
                m.finish();
            }
            let mut m = b.static_method("main", 0);
            m.ret(None);
            m.finish()
        });
        let target = p.method_by_name("derived").unwrap();
        assert!(a.needs_context(target));
        assert_eq!(a.dependent_methods(), 1);
    }

    #[test]
    fn parameterless_methods_never_need_context() {
        let (p, a) = analyze(|b| {
            let callee = {
                let mut m = b.static_method("leaf", 0);
                m.ret(None);
                m.finish()
            };
            {
                let mut m = b.static_method("noParams", 0);
                m.call_static(None, callee, &[]);
                m.ret(None);
                m.finish();
            }
            let mut m = b.static_method("main", 0);
            m.ret(None);
            m.finish()
        });
        let target = p.method_by_name("noParams").unwrap();
        assert!(!a.needs_context(target));
    }
}
