//! Whole-program validation, run by [`ProgramBuilder::finish`].
//!
//! [`ProgramBuilder::finish`]: crate::ProgramBuilder::finish

use crate::error::IrError;
use crate::instr::Instr;
use crate::method::MethodDef;
use crate::program::Program;

/// Validates every method of `program`.
///
/// # Errors
///
/// Returns the first violation found: out-of-range branch targets or
/// registers, call-arity mismatches, fall-off-the-end bodies, a bad entry
/// point, or a selector/method arity mismatch.
pub fn validate(program: &Program) -> Result<(), IrError> {
    let entry = program.method(program.entry());
    if !entry.kind().is_static() || entry.arity() != 0 {
        return Err(IrError::BadEntryPoint { method: entry.id() });
    }
    for m in program.methods() {
        validate_method(program, m)?;
    }
    for c in program.classes() {
        for (sel, mid) in c.declared_methods() {
            let m = program.method(mid);
            if m.arity() != program.selector(sel).arity() {
                return Err(IrError::SelectorArityMismatch { selector: sel, method: mid });
            }
        }
    }
    Ok(())
}

fn validate_method(program: &Program, m: &MethodDef) -> Result<(), IrError> {
    let len = m.body().len();
    let nregs = m.num_regs();

    for (at, instr) in m.body().iter().enumerate() {
        if let Some(t) = instr.branch_target() {
            if !usize::try_from(t).is_ok_and(|t| t < len) {
                return Err(IrError::BranchOutOfRange { method: m.id(), at, target: t });
            }
        }
        // The first register out of range, reads before the write.
        let mut bad = None;
        instr.for_each_use(m.arg_pool(), |r| {
            if bad.is_none() && r.0 >= nregs {
                bad = Some(r);
            }
        });
        if let Some(reg) = bad.or(instr.def().filter(|r| r.0 >= nregs)) {
            return Err(IrError::RegisterOutOfRange { method: m.id(), at, reg });
        }
        let (expected, args) = match instr {
            Instr::CallStatic { callee, args, .. } => (program.method(*callee).total_args(), args),
            Instr::CallVirtual { selector, args, .. } => {
                (program.selector(*selector).arity(), args)
            }
            _ => continue,
        };
        if args.len() != usize::from(expected) {
            // Saturates: more than `u16::MAX` arguments read as `u16::MAX`.
            let supplied = u16::try_from(args.len()).unwrap_or(u16::MAX);
            return Err(IrError::ArityMismatch { method: m.id(), at, expected, supplied });
        }
    }

    // The final instruction must not fall off the end of the body.
    match m.body().last() {
        Some(Instr::Return { .. }) | Some(Instr::Jump { .. }) => Ok(()),
        _ => Err(IrError::MissingReturn { method: m.id() }),
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::error::IrError;
    use crate::ids::Reg;
    use crate::instr::BinOp;

    #[test]
    fn rejects_register_out_of_range() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("main", 0);
            // Reg(5) was never allocated (num_regs tracks fresh_reg).
            m.bin(BinOp::Add, Reg(5), Reg(5), Reg(5));
            m.ret(None);
            m.finish()
        };
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, IrError::RegisterOutOfRange { .. }));
    }

    #[test]
    fn rejects_fall_off_end() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.const_int(r, 1);
            m.finish()
        };
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, IrError::MissingReturn { .. }));
    }

    #[test]
    fn rejects_static_call_arity_mismatch() {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("callee", 2);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.const_int(r, 0);
            m.call_static(None, callee, &[r]); // needs 2 args
            m.ret(None);
            m.finish()
        };
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, IrError::ArityMismatch { expected: 2, supplied: 1, .. }));
    }

    #[test]
    fn rejects_virtual_call_arity_mismatch() {
        let mut b = ProgramBuilder::new();
        let sel = b.selector("f", 1);
        let a = b.class("A", None);
        {
            let mut m = b.virtual_method("A.f", a, sel);
            m.ret(None);
            m.finish();
        }
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.new_obj(r, a);
            m.call_virtual(None, sel, r, &[]); // selector takes 1 arg
            m.ret(None);
            m.finish()
        };
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, IrError::ArityMismatch { expected: 1, supplied: 0, .. }));
    }

    #[test]
    fn rejects_non_static_entry() {
        let mut b = ProgramBuilder::new();
        let sel = b.selector("run", 0);
        let a = b.class("A", None);
        let run = {
            let mut m = b.virtual_method("A.run", a, sel);
            m.ret(None);
            m.finish()
        };
        let err = b.finish(run).unwrap_err();
        assert!(matches!(err, IrError::BadEntryPoint { .. }));
    }

    #[test]
    fn accepts_branch_to_last_instruction() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("main", 0);
            let end = m.label();
            m.jump(end);
            m.bind(end);
            m.ret(None);
            m.finish()
        };
        assert!(b.finish(main).is_ok());
    }
}
