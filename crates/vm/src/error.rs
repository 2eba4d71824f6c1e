//! Runtime errors.

use aoci_ir::{MethodId, SelectorId};
use std::error::Error;
use std::fmt;

/// Errors raised during execution.
///
/// Well-formed workloads never raise these; they exist so the VM fails
/// loudly instead of mis-executing when a program or a compiler transform is
/// wrong — which makes them load-bearing for the inliner's test suite.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// Field/array access or virtual call on null.
    NullDeref {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
    },
    /// An operand had the wrong kind (e.g. arithmetic on a reference).
    TypeError {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
        /// What the instruction needed.
        expected: &'static str,
    },
    /// Integer division or remainder by zero.
    DivideByZero {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
    },
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
        /// The offending index.
        index: i64,
    },
    /// Virtual dispatch found no implementation of the selector for the
    /// receiver's class.
    NoSuchMethod {
        /// The selector being dispatched.
        selector: SelectorId,
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
    },
    /// Negative array length.
    NegativeArrayLength {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
    },
    /// Array length beyond what the heap can address (`u32::MAX` elements).
    ArrayTooLarge {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
        /// The requested length.
        len: i64,
    },
    /// The call stack exceeded the configured maximum depth.
    StackOverflow {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// An instruction referenced a register outside the frame's register
    /// file — compiled code and its frame disagree, which indicates a
    /// corrupt or mis-installed [`MethodVersion`](crate::MethodVersion).
    BadRegister {
        /// Method executing when the fault occurred.
        method: MethodId,
        /// Program counter within the executing version.
        pc: usize,
        /// The out-of-range register index.
        reg: usize,
    },
    /// The program counter ran past the end of a method body without
    /// reaching a `Return` — a malformed or truncated code version.
    PcOutOfRange {
        /// Method whose body was overrun.
        method: MethodId,
        /// The offending program counter.
        pc: usize,
    },
    /// The interpreter needed an active frame and found none — an
    /// internally inconsistent machine state (e.g. executing after the
    /// entry frame returned).
    NoActiveFrame {
        /// What the interpreter was doing when the stack came up empty.
        context: &'static str,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NullDeref { method, pc } => {
                write!(f, "null dereference in {method} at pc {pc}")
            }
            VmError::TypeError { method, pc, expected } => {
                write!(f, "type error in {method} at pc {pc}: expected {expected}")
            }
            VmError::DivideByZero { method, pc } => {
                write!(f, "division by zero in {method} at pc {pc}")
            }
            VmError::IndexOutOfBounds { method, pc, index } => {
                write!(f, "index {index} out of bounds in {method} at pc {pc}")
            }
            VmError::NoSuchMethod { selector, method, pc } => {
                write!(f, "no implementation of {selector} found, in {method} at pc {pc}")
            }
            VmError::NegativeArrayLength { method, pc } => {
                write!(f, "negative array length in {method} at pc {pc}")
            }
            VmError::ArrayTooLarge { method, pc, len } => {
                write!(f, "array length {len} too large in {method} at pc {pc}")
            }
            VmError::StackOverflow { limit } => {
                write!(f, "call stack exceeded the configured limit of {limit} frames")
            }
            VmError::BadRegister { method, pc, reg } => {
                write!(f, "register r{reg} out of range in {method} at pc {pc}")
            }
            VmError::PcOutOfRange { method, pc } => {
                write!(f, "pc {pc} past the end of {method}'s body")
            }
            VmError::NoActiveFrame { context } => {
                write!(f, "no active frame while {context}")
            }
        }
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_location() {
        let e = VmError::NullDeref { method: MethodId::from_index(2), pc: 7 };
        assert!(e.to_string().contains("m2"));
        assert!(e.to_string().contains("pc 7"));
    }
}
