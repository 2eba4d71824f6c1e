//! Typed identifiers for IR entities.
//!
//! All entities in a [`Program`](crate::Program) are referred to by small,
//! copyable, newtype-wrapped indices (C-NEWTYPE). Indices are only meaningful
//! relative to the `Program` that produced them.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of maps keyed by program-internal ids ([`IdHashMap`],
/// [`IdHashSet`]): one rotate, xor and multiply per integer the derived
/// `Hash` impls of the id types write. It is deterministic — iteration order
/// is a function of the insertions, not of the process — and has no HashDoS
/// resistance, so keys must never come from outside the process.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // 2^64 / golden ratio, odd: the multiply carries every input bit
        // towards the top of the state.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    /// The table takes its bucket from the low bits and its control tag from
    /// the top seven; the multiply leaves the best-mixed bits at the top, so
    /// the rotation hands those to the bucket index and well-mixed middle
    /// bits to the tag.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` on [`IdHasher`], for keys built from the id types.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` on [`IdHasher`], for keys built from the id types.
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the raw index of this identifier.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a raw index.
            ///
            /// Only meaningful for indices previously obtained from the same
            /// [`Program`](crate::Program); mainly useful for dense tables
            /// keyed by id.
            pub fn from_index(index: usize) -> Self {
                $name(index as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a class definition within a [`Program`](crate::Program).
    ClassId,
    "c"
);
id_type!(
    /// Identifies a method definition within a [`Program`](crate::Program).
    MethodId,
    "m"
);
id_type!(
    /// Identifies a field definition within a [`Program`](crate::Program).
    ///
    /// Field ids are global: each declared field of each class gets a unique
    /// id, and the id also determines the field's slot in object layouts.
    FieldId,
    "f"
);
id_type!(
    /// Identifies a virtual-dispatch selector (name + arity) within a
    /// [`Program`](crate::Program).
    SelectorId,
    "s"
);
id_type!(
    /// Identifies a global (static) variable within a
    /// [`Program`](crate::Program).
    GlobalId,
    "g"
);

/// A virtual register within a method body.
///
/// Registers `0..arity` hold the incoming arguments (for virtual methods,
/// register 0 is the receiver).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u16);

impl Reg {
    /// Returns the raw index of this register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Index of a call site within its enclosing method.
///
/// Call sites are numbered densely in the order the builder emitted them, so
/// `(MethodId, SiteIdx)` — see [`CallSiteRef`] — names a *source-level* call
/// site stably across recompilations, which is what the paper's
/// ⟨caller, callsite, callee⟩ tuples require.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteIdx(pub u16);

impl SiteIdx {
    /// Returns the raw index of this call site.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A source-level call site: a method plus the index of one of its call
/// instructions.
///
/// This is the `⟨caller, callsite⟩` pair from the paper's profile tuples
/// (Equations 1 and 2) and is the unit from which calling contexts are
/// assembled.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CallSiteRef {
    /// The method whose body contains the call instruction.
    pub method: MethodId,
    /// The call instruction's site index within that method.
    pub site: SiteIdx,
}

impl CallSiteRef {
    /// Creates a call-site reference.
    pub fn new(method: MethodId, site: SiteIdx) -> Self {
        CallSiteRef { method, site }
    }
}

impl fmt::Display for CallSiteRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.method, self.site)
    }
}

/// A forward-reference label used by [`MethodBuilder`](crate::MethodBuilder)
/// to express branch targets before they are bound.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub(crate) u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ClassId(3).to_string(), "c3");
        assert_eq!(MethodId(0).to_string(), "m0");
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(SiteIdx(2).to_string(), "@2");
        assert_eq!(
            CallSiteRef::new(MethodId(4), SiteIdx(1)).to_string(),
            "m4@1"
        );
        assert_eq!(Label(9).to_string(), "L9");
    }

    #[test]
    fn index_round_trip() {
        let m = MethodId::from_index(12);
        assert_eq!(m.index(), 12);
        assert_eq!(m, MethodId(12));
    }

    #[test]
    fn id_hasher_spreads_call_sites_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        // hashbrown takes the bucket from the low bits and the control tag
        // from the top seven: a mix that is degenerate in either shows here.
        let hashes: Vec<u64> = (0..100)
            .flat_map(|m| (0..100).map(move |s| CallSiteRef::new(MethodId(m), SiteIdx(s))))
            .map(|site| build.hash_one(site))
            .collect();
        let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        // 10 000 balls into 65 536 bins: an ideal function fills about 9 270.
        assert!(buckets.len() >= 9_000, "{} distinct low-16-bit values", buckets.len());
        assert_eq!(tags.len(), 128, "every control tag occurs");
        // Deterministic, and a function of the writes alone.
        let site = CallSiteRef::new(MethodId(7), SiteIdx(3));
        assert_eq!(build.hash_one(site), build.hash_one(CallSiteRef::new(MethodId(7), SiteIdx(3))));
        assert_ne!(build.hash_one(site), build.hash_one(CallSiteRef::new(MethodId(3), SiteIdx(7))));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ClassId(1));
        set.insert(ClassId(1));
        set.insert(ClassId(2));
        assert_eq!(set.len(), 2);
        assert!(ClassId(1) < ClassId(2));
    }
}
