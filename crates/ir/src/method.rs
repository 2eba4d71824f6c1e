//! Method definitions.

use crate::ids::{ClassId, MethodId, Reg, SelectorId, SiteIdx};
use crate::instr::Instr;
use crate::size::{self, SizeClass};

/// Whether a method is a static (class) method or a virtual (instance)
/// method.
///
/// The distinction matters to two of the paper's adaptive policies:
/// *Parameterless Methods* treats the receiver as an implicit parameter, and
/// *Class Methods* terminates trace collection at the first static method
/// because no `this` state flows through it (Section 4.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MethodKind {
    /// A static method: no receiver; dispatched directly.
    Static,
    /// An instance method: register 0 is the receiver; dispatched virtually
    /// through a selector unless the compiler can bind it statically.
    Virtual {
        /// The class that declares this implementation.
        owner: ClassId,
        /// The selector under which the implementation is installed.
        selector: SelectorId,
    },
}

impl MethodKind {
    /// Returns `true` for static (class) methods.
    pub fn is_static(&self) -> bool {
        matches!(self, MethodKind::Static)
    }
}

/// A method definition: signature, body and derived size information.
#[derive(Clone, Debug)]
pub struct MethodDef {
    pub(crate) id: MethodId,
    pub(crate) name: String,
    pub(crate) kind: MethodKind,
    /// Number of declared parameters, excluding the receiver.
    pub(crate) arity: u16,
    /// Total registers used by the body (≥ `total_args()`).
    pub(crate) num_regs: u16,
    pub(crate) body: Vec<Instr>,
    /// The argument pool of the body: every call's argument registers, at
    /// the call's [`ArgSpan`](crate::ArgSpan).
    pub(crate) arg_pool: Vec<Reg>,
    /// Number of call sites in the body (site indices are `0..num_sites`).
    pub(crate) num_sites: u16,
    /// Cached size estimate in abstract instruction units.
    pub(crate) size_estimate: u32,
}

impl MethodDef {
    /// Returns this method's id.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// Returns the method name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns whether the method is static or virtual.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }

    /// Returns the number of declared parameters, excluding the receiver.
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// Returns the number of incoming argument registers, including the
    /// receiver for virtual methods.
    pub fn total_args(&self) -> u16 {
        match self.kind {
            MethodKind::Static => self.arity,
            MethodKind::Virtual { .. } => self.arity + 1,
        }
    }

    /// Returns the number of registers the body uses.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Returns the instruction sequence of the body.
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// Returns the argument pool of the body: the registers every call's
    /// [`ArgSpan`](crate::ArgSpan) names.
    pub fn arg_pool(&self) -> &[Reg] {
        &self.arg_pool
    }

    /// Returns the number of call sites in the body.
    pub fn num_sites(&self) -> u16 {
        self.num_sites
    }

    /// Returns `true` if the method passes no explicit parameters.
    ///
    /// The receiver does **not** count as a parameter here, mirroring the
    /// paper's *Parameterless Methods* heuristic ("there are certainly
    /// exceptions, such as global variables and the `this` parameter").
    pub fn is_parameterless(&self) -> bool {
        self.arity == 0
    }

    /// Returns the method's size estimate in abstract instruction units.
    ///
    /// This is the quantity Jikes RVM compares against multiples of the call
    /// sequence size to classify methods as tiny/small/medium/large.
    pub fn size_estimate(&self) -> u32 {
        self.size_estimate
    }

    /// Returns the method's inlining size class (paper Section 3.1).
    pub fn size_class(&self) -> SizeClass {
        size::classify(self.size_estimate)
    }

    /// Returns the instruction index of the call instruction with site index
    /// `site`, or `None` if out of range.
    pub fn site_instr_index(&self, site: SiteIdx) -> Option<usize> {
        self.body
            .iter()
            .position(|i| i.call_site() == Some(site))
    }

    /// Iterates over `(site, instruction)` pairs for every call site in the
    /// body, in instruction order.
    pub fn call_sites(&self) -> impl Iterator<Item = (SiteIdx, &Instr)> + '_ {
        self.body
            .iter()
            .filter_map(|i| i.call_site().map(|s| (s, i)))
    }
}
