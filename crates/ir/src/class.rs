//! Class, field and selector definitions.

use crate::ids::{ClassId, FieldId, MethodId, SelectorId};
use std::collections::HashMap;

/// A class definition: name, optional superclass, declared fields and the
/// virtual-method table mapping selectors to implementations.
///
/// Classes use single inheritance. Method lookup (see
/// [`Program::lookup_virtual`](crate::Program::lookup_virtual)) resolves a
/// selector to the nearest implementation up the superclass chain, so a
/// class inherits every selector implementation it does not override.
#[derive(Clone, Debug)]
pub struct ClassDef {
    pub(crate) id: ClassId,
    pub(crate) name: String,
    pub(crate) superclass: Option<ClassId>,
    /// Fields declared directly on this class (not inherited).
    pub(crate) declared_fields: Vec<FieldId>,
    /// Total number of field slots in instances (inherited + declared).
    pub(crate) layout_size: u32,
    /// Selector → implementation for methods declared directly on this class.
    pub(crate) vtable: HashMap<SelectorId, MethodId>,
    /// Depth in the inheritance tree (root classes have depth 0).
    pub(crate) depth: u32,
}

impl ClassDef {
    /// Returns this class's id.
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// Returns the class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the direct superclass, if any.
    pub fn superclass(&self) -> Option<ClassId> {
        self.superclass
    }

    /// Returns the fields declared directly on this class.
    pub fn declared_fields(&self) -> &[FieldId] {
        &self.declared_fields
    }

    /// Returns the number of field slots an instance of this class has,
    /// including inherited fields.
    pub fn layout_size(&self) -> u32 {
        self.layout_size
    }

    /// Returns the method implementing `selector` declared *directly* on
    /// this class (not inherited).
    pub fn declared_impl(&self, selector: SelectorId) -> Option<MethodId> {
        self.vtable.get(&selector).copied()
    }

    /// Returns this class's depth in the inheritance tree.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Iterates over `(selector, method)` pairs declared directly on this
    /// class, in unspecified order.
    pub fn declared_methods(&self) -> impl Iterator<Item = (SelectorId, MethodId)> + '_ {
        self.vtable.iter().map(|(&s, &m)| (s, m))
    }
}

/// A field definition.
#[derive(Clone, Debug)]
pub struct FieldDef {
    pub(crate) id: FieldId,
    pub(crate) name: String,
    pub(crate) owner: ClassId,
    /// Slot index within instances of the owning class (and subclasses).
    pub(crate) offset: u32,
}

impl FieldDef {
    /// Returns this field's id.
    pub fn id(&self) -> FieldId {
        self.id
    }

    /// Returns the field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the class that declares this field.
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// Returns the slot index of this field within object layouts.
    pub fn offset(&self) -> u32 {
        self.offset
    }
}

/// A virtual-dispatch selector: a method name plus arity (excluding the
/// receiver).
#[derive(Clone, Debug)]
pub struct SelectorDef {
    pub(crate) id: SelectorId,
    pub(crate) name: String,
    pub(crate) arity: u16,
}

impl SelectorDef {
    /// Returns this selector's id.
    pub fn id(&self) -> SelectorId {
        self.id
    }

    /// Returns the selector name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of arguments (excluding the receiver) that calls
    /// through this selector pass.
    pub fn arity(&self) -> u16 {
        self.arity
    }
}
