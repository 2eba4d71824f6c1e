//! A simple non-moving heap of objects and arrays.
//!
//! The paper's evaluation uses Jikes RVM's semispace copying collector; GC
//! behaviour is orthogonal to inlining policy, so this heap never collects —
//! workloads are sized to fit. Allocation cost is modelled by the
//! [`CostModel`](crate::CostModel) instead.

use crate::value::Value;
use aoci_ir::ClassId;
use std::fmt;

/// A reference to a heap entry (object or array).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjRef(pub(crate) u32);

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[derive(Clone, Debug)]
enum Entry {
    Object { class: ClassId, fields: Vec<Value> },
    Array { elems: Vec<Value> },
}

/// The VM heap.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    entries: Vec<Entry>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference the next allocation gets. An entry takes 32 bytes or
    /// more, so the host is out of memory long before the count leaves `u32`.
    fn next_ref(&self) -> ObjRef {
        ObjRef(u32::try_from(self.entries.len()).expect("the heap holds under 2^32 entries"))
    }

    /// Allocates an object of `class` with `layout_size` null-initialised
    /// field slots.
    pub fn alloc_object(&mut self, class: ClassId, layout_size: u32) -> ObjRef {
        let r = self.next_ref();
        self.entries.push(Entry::Object {
            class,
            fields: vec![Value::Null; layout_size as usize],
        });
        r
    }

    /// Allocates an array of `len` elements initialised to integer 0.
    pub fn alloc_array(&mut self, len: u32) -> ObjRef {
        let r = self.next_ref();
        self.entries.push(Entry::Array {
            elems: vec![Value::Int(0); len as usize],
        });
        r
    }

    /// Returns the dynamic class of an object, or `None` for arrays.
    pub fn class_of(&self, r: ObjRef) -> Option<ClassId> {
        match &self.entries[r.0 as usize] {
            Entry::Object { class, .. } => Some(*class),
            Entry::Array { .. } => None,
        }
    }

    /// Reads object field slot `offset`. Returns `None` if `r` is an array
    /// or the offset is out of range.
    pub fn get_field(&self, r: ObjRef, offset: u32) -> Option<Value> {
        match &self.entries[r.0 as usize] {
            Entry::Object { fields, .. } => fields.get(offset as usize).copied(),
            Entry::Array { .. } => None,
        }
    }

    /// Writes object field slot `offset`. Returns `false` if `r` is an array
    /// or the offset is out of range.
    pub fn put_field(&mut self, r: ObjRef, offset: u32, v: Value) -> bool {
        match &mut self.entries[r.0 as usize] {
            Entry::Object { fields, .. } => match fields.get_mut(offset as usize) {
                Some(slot) => {
                    *slot = v;
                    true
                }
                None => false,
            },
            Entry::Array { .. } => false,
        }
    }

    /// Reads array element `idx`. Returns `None` if `r` is not an array or
    /// the index is out of bounds.
    pub fn arr_get(&self, r: ObjRef, idx: i64) -> Option<Value> {
        match &self.entries[r.0 as usize] {
            Entry::Array { elems } => usize::try_from(idx).ok().and_then(|i| elems.get(i)).copied(),
            Entry::Object { .. } => None,
        }
    }

    /// Writes array element `idx`. Returns `false` if `r` is not an array or
    /// the index is out of bounds.
    pub fn arr_set(&mut self, r: ObjRef, idx: i64, v: Value) -> bool {
        match &mut self.entries[r.0 as usize] {
            Entry::Array { elems } => {
                if let Some(slot) = usize::try_from(idx).ok().and_then(|i| elems.get_mut(i)) {
                    *slot = v;
                    true
                } else {
                    false
                }
            }
            Entry::Object { .. } => false,
        }
    }

    /// Returns the length of an array, or `None` if `r` is not an array.
    pub fn arr_len(&self, r: ObjRef) -> Option<i64> {
        match &self.entries[r.0 as usize] {
            Entry::Array { elems } => Some(elems.len() as i64),
            Entry::Object { .. } => None,
        }
    }

    /// Number of heap entries ever allocated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_fields_round_trip() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId::from_index(0), 2);
        assert_eq!(h.get_field(o, 0), Some(Value::Null));
        assert!(h.put_field(o, 1, Value::Int(9)));
        assert_eq!(h.get_field(o, 1), Some(Value::Int(9)));
        assert_eq!(h.get_field(o, 2), None);
        assert!(!h.put_field(o, 5, Value::Int(1)));
        assert_eq!(h.class_of(o), Some(ClassId::from_index(0)));
    }

    #[test]
    fn arrays_round_trip() {
        let mut h = Heap::new();
        let a = h.alloc_array(3);
        assert_eq!(h.arr_len(a), Some(3));
        assert_eq!(h.arr_get(a, 0), Some(Value::Int(0)));
        assert!(h.arr_set(a, 2, Value::Int(7)));
        assert_eq!(h.arr_get(a, 2), Some(Value::Int(7)));
        assert_eq!(h.arr_get(a, 3), None);
        assert_eq!(h.arr_get(a, -1), None);
        assert!(!h.arr_set(a, -1, Value::Int(0)));
        assert_eq!(h.class_of(a), None);
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId::from_index(1), 1);
        let a = h.alloc_array(1);
        assert_eq!(h.arr_len(o), None);
        assert_eq!(h.get_field(a, 0), None);
        assert!(!h.put_field(a, 0, Value::Int(1)));
        assert!(!h.arr_set(o, 0, Value::Int(1)));
    }
}
