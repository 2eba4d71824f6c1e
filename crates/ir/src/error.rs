//! IR construction and validation errors.

use crate::ids::{ClassId, MethodId, Reg, SelectorId};
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a [`Program`](crate::Program).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IrError {
    /// A branch target is outside the method body.
    BranchOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Instruction index of the branch.
        at: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// An instruction references a register ≥ the method's register count.
    RegisterOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Instruction index.
        at: usize,
        /// The out-of-range register.
        reg: Reg,
    },
    /// A method body does not end every path with a return (specifically,
    /// the final instruction can fall off the end).
    MissingReturn {
        /// Offending method.
        method: MethodId,
    },
    /// A call passes the wrong number of arguments for its callee.
    ArityMismatch {
        /// Method containing the call.
        method: MethodId,
        /// Instruction index of the call.
        at: usize,
        /// Arguments expected by the callee/selector.
        expected: u16,
        /// Arguments supplied.
        supplied: u16,
    },
    /// A virtual method is installed under a selector whose arity differs
    /// from the method's.
    SelectorArityMismatch {
        /// The selector.
        selector: SelectorId,
        /// The method installed under it.
        method: MethodId,
    },
    /// A label was used but never bound.
    UnboundLabel {
        /// Method being built.
        method: String,
    },
    /// A class was declared with a superclass from a different builder or an
    /// otherwise unknown id.
    UnknownClass {
        /// The unknown id.
        class: ClassId,
    },
    /// The program entry point is not a parameterless static method.
    BadEntryPoint {
        /// The offending entry method.
        method: MethodId,
    },
    /// Two classes with the same name were declared (names must be unique to
    /// keep diagnostics unambiguous).
    DuplicateClassName {
        /// The duplicated name.
        name: String,
    },
    /// A method allocated more registers than a register count (`u16`)
    /// can hold.
    TooManyRegisters {
        /// The offending method.
        method: MethodId,
    },
    /// A method emitted more call sites than a site count (`u16`) can hold.
    TooManySites {
        /// The offending method.
        method: MethodId,
    },
    /// A method's calls pass more argument registers than its argument pool
    /// can name: more than [`ArgSpan::MAX_ARGS`] in one call, or more than
    /// [`ArgSpan::MAX_POOL`] in all.
    ///
    /// [`ArgSpan::MAX_ARGS`]: crate::ArgSpan::MAX_ARGS
    /// [`ArgSpan::MAX_POOL`]: crate::ArgSpan::MAX_POOL
    TooManyCallArgs {
        /// The offending method.
        method: MethodId,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::BranchOutOfRange { method, at, target } => write!(
                f,
                "branch at {method}:{at} targets instruction {target} outside the body"
            ),
            IrError::RegisterOutOfRange { method, at, reg } => write!(
                f,
                "instruction {method}:{at} references register {reg} beyond the declared count"
            ),
            IrError::MissingReturn { method } => {
                write!(f, "method {method} can fall off the end of its body")
            }
            IrError::ArityMismatch { method, at, expected, supplied } => write!(
                f,
                "call at {method}:{at} supplies {supplied} arguments, callee expects {expected}"
            ),
            IrError::SelectorArityMismatch { selector, method } => write!(
                f,
                "method {method} installed under selector {selector} with mismatched arity"
            ),
            IrError::UnboundLabel { method } => {
                write!(f, "method `{method}` uses a label that was never bound")
            }
            IrError::UnknownClass { class } => write!(f, "unknown class id {class}"),
            IrError::BadEntryPoint { method } => write!(
                f,
                "entry point {method} must be a parameterless static method"
            ),
            IrError::DuplicateClassName { name } => {
                write!(f, "duplicate class name `{name}`")
            }
            IrError::TooManyRegisters { method } => write!(
                f,
                "method {method} allocates more than {} registers",
                u16::MAX
            ),
            IrError::TooManySites { method } => write!(
                f,
                "method {method} emits more than {} call sites",
                u16::MAX
            ),
            IrError::TooManyCallArgs { method } => write!(
                f,
                "method {method} passes more than {} arguments in one call or {} in all",
                crate::ArgSpan::MAX_ARGS,
                crate::ArgSpan::MAX_POOL
            ),
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IrError::ArityMismatch {
            method: MethodId(1),
            at: 4,
            expected: 2,
            supplied: 3,
        };
        let s = e.to_string();
        assert!(s.contains("m1:4"));
        assert!(s.contains("3 arguments"));
    }
}
