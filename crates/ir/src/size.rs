//! Method size estimation and the Jikes RVM size classes.
//!
//! The paper (Section 3.1) classifies inlining candidates by an estimate of
//! the machine code a method would expand to, expressed as a multiple of the
//! code required for a method-call sequence:
//!
//! * **tiny** — `< 2×` a call: unconditionally inlined when statically
//!   bindable without a guard;
//! * **small** — `2–5×`: inlined when statically bindable (possibly with a
//!   guard), subject to code-expansion and depth heuristics;
//! * **medium** — `5–25×`: candidates for *profile-directed* inlining only;
//! * **large** — `> 25×`: never inlined.

use crate::instr::Instr;

/// Abstract size of the instruction sequence required to perform a method
/// call (argument setup, dispatch, frame setup, return).
///
/// Size-class thresholds are multiples of this constant.
pub const CALL_SEQUENCE_SIZE: u32 = 8;

/// Methods below `TINY_FACTOR × CALL_SEQUENCE_SIZE` are tiny.
pub const TINY_FACTOR: u32 = 2;
/// Methods below `SMALL_FACTOR × CALL_SEQUENCE_SIZE` are small.
pub const SMALL_FACTOR: u32 = 5;
/// Methods below `MEDIUM_FACTOR × CALL_SEQUENCE_SIZE` are medium.
pub const MEDIUM_FACTOR: u32 = 25;
/// Alias making the "never inline above this" bound explicit.
pub const LARGE_FACTOR: u32 = MEDIUM_FACTOR;

/// The four inlining size classes of paper Section 3.1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SizeClass {
    /// `< 2×` call size; unconditionally inlined when statically bindable.
    Tiny,
    /// `2–5×` call size; inlined subject to expansion/depth budgets.
    Small,
    /// `5–25×` call size; inlined only under profile direction.
    Medium,
    /// `> 25×` call size; never inlined.
    Large,
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SizeClass::Tiny => "tiny",
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        };
        f.write_str(s)
    }
}

/// Returns the abstract size of a single instruction.
///
/// Calls cost a full [`CALL_SEQUENCE_SIZE`]; [`Instr::Work`] counts as its
/// declared number of abstract instructions; everything else counts 1.
pub fn instr_size(instr: &Instr) -> u32 {
    match instr {
        Instr::CallStatic { .. } | Instr::CallVirtual { .. } => CALL_SEQUENCE_SIZE,
        Instr::Work { units } => *units,
        _ => 1,
    }
}

/// Returns the total abstract size of an instruction sequence.
pub fn body_size(body: &[Instr]) -> u32 {
    body.iter().map(instr_size).sum()
}

/// Classifies a size estimate into the Jikes size classes.
pub fn classify(size_estimate: u32) -> SizeClass {
    if size_estimate < TINY_FACTOR * CALL_SEQUENCE_SIZE {
        SizeClass::Tiny
    } else if size_estimate < SMALL_FACTOR * CALL_SEQUENCE_SIZE {
        SizeClass::Small
    } else if size_estimate < MEDIUM_FACTOR * CALL_SEQUENCE_SIZE {
        SizeClass::Medium
    } else {
        SizeClass::Large
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MethodId, Reg, SiteIdx};

    #[test]
    fn class_boundaries() {
        assert_eq!(classify(0), SizeClass::Tiny);
        assert_eq!(classify(TINY_FACTOR * CALL_SEQUENCE_SIZE - 1), SizeClass::Tiny);
        assert_eq!(classify(TINY_FACTOR * CALL_SEQUENCE_SIZE), SizeClass::Small);
        assert_eq!(classify(SMALL_FACTOR * CALL_SEQUENCE_SIZE - 1), SizeClass::Small);
        assert_eq!(classify(SMALL_FACTOR * CALL_SEQUENCE_SIZE), SizeClass::Medium);
        assert_eq!(classify(MEDIUM_FACTOR * CALL_SEQUENCE_SIZE - 1), SizeClass::Medium);
        assert_eq!(classify(MEDIUM_FACTOR * CALL_SEQUENCE_SIZE), SizeClass::Large);
        assert_eq!(classify(u32::MAX), SizeClass::Large);
    }

    #[test]
    fn sizes_of_instructions() {
        assert_eq!(instr_size(&Instr::Work { units: 40 }), 40);
        assert_eq!(
            instr_size(&Instr::CallStatic {
                site: SiteIdx(0),
                dst: None,
                callee: MethodId(0),
                args: crate::ArgSpan::default()
            }),
            CALL_SEQUENCE_SIZE
        );
        assert_eq!(instr_size(&Instr::Move { dst: Reg(0), src: Reg(1) }), 1);
    }

    #[test]
    fn body_size_sums() {
        let body = vec![
            Instr::Work { units: 10 },
            Instr::Move { dst: Reg(0), src: Reg(1) },
            Instr::Return { src: None },
        ];
        assert_eq!(body_size(&body), 12);
    }

    #[test]
    fn size_class_display() {
        assert_eq!(SizeClass::Tiny.to_string(), "tiny");
        assert_eq!(SizeClass::Large.to_string(), "large");
    }
}
