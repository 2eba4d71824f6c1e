//! The top-level program container.

use crate::class::{ClassDef, FieldDef, SelectorDef};
use crate::ids::{ClassId, FieldId, GlobalId, MethodId, SelectorId};
use crate::method::MethodDef;
use std::collections::HashMap;

/// A complete, validated program: classes, methods, fields, selectors,
/// globals and an entry point.
///
/// `Program` is immutable after construction via
/// [`ProgramBuilder`](crate::ProgramBuilder); the optimizing compiler never
/// mutates it, it produces separate compiled-code artifacts.
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) classes: Vec<ClassDef>,
    pub(crate) methods: Vec<MethodDef>,
    pub(crate) fields: Vec<FieldDef>,
    pub(crate) selectors: Vec<SelectorDef>,
    pub(crate) global_names: Vec<String>,
    pub(crate) entry: MethodId,
    /// selector → every implementation in the program, used for class
    /// hierarchy analysis.
    pub(crate) impls_by_selector: HashMap<SelectorId, Vec<MethodId>>,
    /// Where each class's row sits in `dispatch`.
    pub(crate) dispatch_rows: Vec<DispatchRow>,
    /// The virtual-dispatch table, row after row: for each class, one entry
    /// per selector of the range it understands — the raw id of the method
    /// a receiver of that class runs for the selector (inherited
    /// implementations included), or [`NO_METHOD`] for a selector inside
    /// the range that the class does not understand.
    pub(crate) dispatch: Vec<u32>,
}

/// One class's row of the dispatch table: `dispatch[start..][..len]` are
/// the entries of selectors `first..first + len`, the smallest range that
/// covers every selector the class understands (a hierarchy's selectors
/// are declared together, so rows are short and dense).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DispatchRow {
    pub(crate) start: usize,
    pub(crate) first: u32,
    pub(crate) len: u32,
}

/// Dispatch-table entry of a (class, selector) pair nothing implements.
pub(crate) const NO_METHOD: u32 = u32::MAX;

impl Program {
    /// Returns the entry-point method (a parameterless static method).
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Returns the class definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.index()]
    }

    /// Returns the method definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.index()]
    }

    /// Returns the field definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.index()]
    }

    /// Returns the selector definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn selector(&self, id: SelectorId) -> &SelectorDef {
        &self.selectors[id.index()]
    }

    /// Returns the number of classes in the program.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Table slots allocated past their entries, over the method, class,
    /// field, selector, global-name and dispatch tables: 0 for a program
    /// [`crate::ProgramBuilder::finish`] built, which sizes each to fit.
    pub fn table_slack(&self) -> usize {
        fn slack<T>(table: &Vec<T>) -> usize {
            table.capacity() - table.len()
        }
        slack(&self.methods)
            + slack(&self.classes)
            + slack(&self.fields)
            + slack(&self.selectors)
            + slack(&self.global_names)
            + slack(&self.dispatch_rows)
            + slack(&self.dispatch)
    }

    /// Returns the number of methods in the program.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Returns the number of global variables in the program.
    pub fn num_globals(&self) -> usize {
        self.global_names.len()
    }

    /// Returns the number of selectors in the program.
    pub fn num_selectors(&self) -> usize {
        self.selectors.len()
    }

    /// Returns the name of global `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn global_name(&self, id: GlobalId) -> &str {
        &self.global_names[id.index()]
    }

    /// Iterates over all classes.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.iter()
    }

    /// Iterates over all methods.
    pub fn methods(&self) -> impl Iterator<Item = &MethodDef> {
        self.methods.iter()
    }

    /// Total abstract bytecode size across all method bodies.
    ///
    /// This is the "Bytecodes" column of the paper's Table 1.
    pub fn total_bytecode_size(&self) -> u64 {
        self.methods.iter().map(|m| m.size_estimate() as u64).sum()
    }

    /// Performs virtual-method lookup: finds the implementation of
    /// `selector` for a receiver of dynamic class `class` — declared on the
    /// class or inherited from a superclass — by indexing the dispatch
    /// table [`ProgramBuilder::finish`](crate::ProgramBuilder::finish)
    /// precomputed: the class's row, then the selector's entry in it.
    ///
    /// Returns `None` if neither the class nor any superclass implements the
    /// selector (a runtime dispatch error in the VM).
    ///
    /// # Panics
    ///
    /// Panics if `class` does not belong to this program.
    #[inline]
    pub fn lookup_virtual(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let row = self.dispatch_rows[class.index()];
        // Selectors below `first` wrap around to a huge offset.
        let offset = selector.0.wrapping_sub(row.first);
        if offset >= row.len {
            return None;
        }
        let entry = self.dispatch[row.start + offset as usize];
        (entry != NO_METHOD).then_some(MethodId(entry))
    }

    /// Returns every implementation of `selector` in the program.
    ///
    /// This is the (whole-program) class-hierarchy-analysis answer used by
    /// the optimizer: a virtual call whose selector has exactly one
    /// implementation can be statically bound without a guard.
    pub fn implementations(&self, selector: SelectorId) -> &[MethodId] {
        self.impls_by_selector
            .get(&selector)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Returns `true` if `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass();
        }
        false
    }

    /// Looks up a method by name. Intended for tests and diagnostics; O(n).
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods.iter().find(|m| m.name == name).map(|m| m.id)
    }

    /// Looks up a class by name. Intended for tests and diagnostics; O(n).
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes.iter().find(|c| c.name == name).map(|c| c.id)
    }
}
