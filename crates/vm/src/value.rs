//! Runtime values.

use crate::heap::ObjRef;
use std::fmt;

/// A runtime value: a 64-bit integer, a heap reference, or null.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Value {
    /// The null reference (also the default / uninitialised value of
    /// reference-typed slots; integer slots default to `Int(0)` where the
    /// context demands an integer).
    #[default]
    Null,
    /// A signed 64-bit integer.
    Int(i64),
    /// A reference to a heap object or array.
    Ref(ObjRef),
}

impl Value {
    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Returns the reference payload, if this is a [`Value::Ref`].
    pub fn as_ref(self) -> Option<ObjRef> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }

    /// Equality as the VM's `eq`/`ne` conditions see it: integers by value,
    /// references by identity, null equal only to null, and mixed kinds
    /// unequal.
    pub fn vm_eq(self, other: Value) -> bool {
        self == other
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<ObjRef> for Value {
    fn from(r: ObjRef) -> Self {
        Value::Ref(r)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Null.as_ref(), None);
        let r = ObjRef(3);
        assert_eq!(Value::Ref(r).as_ref(), Some(r));
    }

    #[test]
    fn vm_eq_semantics() {
        assert!(Value::Int(1).vm_eq(Value::Int(1)));
        assert!(!Value::Int(1).vm_eq(Value::Int(2)));
        assert!(Value::Null.vm_eq(Value::Null));
        assert!(!Value::Int(0).vm_eq(Value::Null));
        assert!(Value::Ref(ObjRef(7)).vm_eq(Value::Ref(ObjRef(7))));
        assert!(!Value::Ref(ObjRef(7)).vm_eq(Value::Ref(ObjRef(8))));
        assert!(!Value::Ref(ObjRef(0)).vm_eq(Value::Int(0)));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }
}
