//! On-stack replacement maps: checked, reversible frame-state mappings
//! between a method's baseline frame and an optimized frame, anchored at
//! loop headers.
//!
//! The paper's AOS (like the Jikes RVM system it models) switches code
//! versions at method invocation boundaries; a long-running activation —
//! a loop-dominated `main`, say — would never benefit from (or escape)
//! optimized code. OSR closes that gap in both directions, following the
//! standard treatment of "On-Stack Replacement à la Carte" (D'Elia &
//! Demetrescu):
//!
//! * **OSR-in (promotion)**: a baseline activation that trips a loop
//!   back-edge counter transfers mid-loop into freshly optimized code.
//! * **OSR-out (deoptimization)**: an optimized activation whose version
//!   was invalidated (guard thrash) or whose own guards are thrashing
//!   transfers back to an equivalent baseline frame instead of finishing
//!   on stale code.
//!
//! Both transfers happen at an [`OsrPoint`]: a loop header of the *root*
//! method that survives optimization as a control-flow join. The register
//! correspondence at such a point is the **frame-mapping invariant** (see
//! DESIGN.md §7): optimized code produced by the inliner keeps the root
//! method's register window unrenamed — inlined callees live in windows
//! above it and the simplifier only rewrites *uses*, never definitions —
//! so every baseline register maps to the same-numbered optimized
//! register. The map still carries the correspondence explicitly, per
//! slot, and every transfer is checked: a malformed map refuses to
//! transfer (the activation stays where it was — degraded, never wrong)
//! rather than building a corrupt frame.

use crate::value::Value;
use aoci_ir::Reg;

/// Why an OSR map (or a transfer through it) was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsrError {
    /// Two points share a baseline pc or an optimized pc.
    DuplicatePoint,
    /// A slot names a register outside the frame it addresses.
    SlotOutOfRange {
        /// The offending register index.
        reg: u16,
    },
    /// Two slots read or write the same register (the mapping would not
    /// be reversible).
    SlotAliased {
        /// The register claimed twice.
        reg: u16,
    },
    /// A frame handed to a transfer was smaller than the map requires.
    FrameTooSmall {
        /// Registers the frame actually has.
        have: usize,
        /// Registers the map requires.
        need: usize,
    },
}

impl std::fmt::Display for OsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsrError::DuplicatePoint => write!(f, "duplicate OSR point"),
            OsrError::SlotOutOfRange { reg } => write!(f, "OSR slot register r{reg} out of range"),
            OsrError::SlotAliased { reg } => write!(f, "OSR slot register r{reg} aliased"),
            OsrError::FrameTooSmall { have, need } => {
                write!(f, "frame has {have} registers, OSR map needs {need}")
            }
        }
    }
}

impl std::error::Error for OsrError {}

/// One local/stack slot correspondence: the value in baseline register
/// `baseline` lives in optimized register `optimized` at this point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OsrSlot {
    /// Register in the baseline frame.
    pub baseline: Reg,
    /// Register in the optimized frame.
    pub optimized: Reg,
}

/// One OSR anchor: a root-method loop header with its frame mapping.
///
/// `baseline_pc` indexes the baseline body (== the source body: baseline
/// compilation is the identity translation), `opt_pc` the optimized body.
/// Both sides are control-flow leaders, so the abstract state the
/// simplifier assumed at `opt_pc` holds for *any* incoming frame — the
/// property that makes transferring an interpreter frame there sound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OsrPoint {
    /// Loop-header pc in the baseline (source) body.
    pub baseline_pc: u32,
    /// The corresponding pc in the optimized body.
    pub opt_pc: u32,
    /// Slot correspondences; registers not listed are dead at the header
    /// (this reproduction lists the whole root window, so nothing is).
    pub slots: Vec<OsrSlot>,
}

impl OsrPoint {
    /// The identity mapping over the root register window `0..num_regs`,
    /// the shape the inliner emits (see the frame-mapping invariant).
    pub fn identity(baseline_pc: u32, opt_pc: u32, num_regs: u16) -> Self {
        OsrPoint {
            baseline_pc,
            opt_pc,
            slots: (0..num_regs)
                .map(|r| OsrSlot { baseline: Reg(r), optimized: Reg(r) })
                .collect(),
        }
    }

    /// Checks the point's internal consistency: every slot in range for
    /// the given frame sizes and no register claimed twice on either side
    /// (which is exactly reversibility of the mapping).
    pub fn validate(&self, baseline_regs: u16, opt_regs: u16) -> Result<(), OsrError> {
        let mut seen_base = vec![false; baseline_regs as usize];
        let mut seen_opt = vec![false; opt_regs as usize];
        for s in &self.slots {
            let b = s.baseline.index();
            let o = s.optimized.index();
            if b >= baseline_regs as usize {
                return Err(OsrError::SlotOutOfRange { reg: s.baseline.0 });
            }
            if o >= opt_regs as usize {
                return Err(OsrError::SlotOutOfRange { reg: s.optimized.0 });
            }
            if std::mem::replace(&mut seen_base[b], true) {
                return Err(OsrError::SlotAliased { reg: s.baseline.0 });
            }
            if std::mem::replace(&mut seen_opt[o], true) {
                return Err(OsrError::SlotAliased { reg: s.optimized.0 });
            }
        }
        Ok(())
    }

    /// Maps a baseline frame's registers into a fresh optimized frame of
    /// `opt_num_regs` registers (OSR-in). Unmapped optimized registers
    /// start `Null`, exactly as a fresh invocation frame would.
    ///
    /// # Errors
    ///
    /// Rejects (without transferring) if any slot is out of range for
    /// either frame.
    pub fn map_to_optimized(
        &self,
        baseline_regs: &[Value],
        opt_num_regs: u16,
    ) -> Result<Vec<Value>, OsrError> {
        self.map(baseline_regs, opt_num_regs, |s| (s.baseline, s.optimized))
    }

    /// Maps an optimized frame's registers back into a fresh baseline
    /// frame of `baseline_num_regs` registers (OSR-out). The inverse of
    /// [`OsrPoint::map_to_optimized`] on every register the map covers.
    ///
    /// # Errors
    ///
    /// Rejects (without transferring) if any slot is out of range for
    /// either frame.
    pub fn map_to_baseline(
        &self,
        opt_regs: &[Value],
        baseline_num_regs: u16,
    ) -> Result<Vec<Value>, OsrError> {
        self.map(opt_regs, baseline_num_regs, |s| (s.optimized, s.baseline))
    }

    /// The checked body of both directions: copies each slot's `from`
    /// register (the first of `ends`) into its `to` register (the second)
    /// of a fresh `Null`-filled frame of `num_regs` registers.
    fn map(
        &self,
        from: &[Value],
        num_regs: u16,
        ends: fn(&OsrSlot) -> (Reg, Reg),
    ) -> Result<Vec<Value>, OsrError> {
        let mut out = vec![Value::Null; usize::from(num_regs)];
        for s in &self.slots {
            let (src, dst) = ends(s);
            let too_small = OsrError::FrameTooSmall { have: from.len(), need: src.index() + 1 };
            let v = *from.get(src.index()).ok_or(too_small)?;
            *out.get_mut(dst.index()).ok_or(OsrError::SlotOutOfRange { reg: dst.0 })? = v;
        }
        Ok(out)
    }
}

/// The OSR anchors of one [`MethodVersion`](crate::MethodVersion): one
/// [`OsrPoint`] per root-method loop header that survived optimization.
/// Baseline versions carry an empty map (a baseline frame *is* the source
/// frame; there is nothing to transfer into).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OsrMap {
    points: Vec<OsrPoint>,
}

impl OsrMap {
    /// The empty map (baseline code, or optimized code with no loops).
    pub fn empty() -> Self {
        OsrMap::default()
    }

    /// Builds a map from explicit points, checking that no two points
    /// share a pc on either side.
    ///
    /// # Errors
    ///
    /// Returns [`OsrError::DuplicatePoint`] on a pc collision. Per-point
    /// slot consistency is checked by [`OsrPoint::validate`] /
    /// [`OsrMap::validate`], which need the frame sizes.
    pub fn new(points: Vec<OsrPoint>) -> Result<Self, OsrError> {
        for (i, p) in points.iter().enumerate() {
            for q in &points[..i] {
                if p.baseline_pc == q.baseline_pc || p.opt_pc == q.opt_pc {
                    return Err(OsrError::DuplicatePoint);
                }
            }
        }
        Ok(OsrMap { points })
    }

    /// Validates every point against the two frame sizes (see
    /// [`OsrPoint::validate`]).
    pub fn validate(&self, baseline_regs: u16, opt_regs: u16) -> Result<(), OsrError> {
        for p in &self.points {
            p.validate(baseline_regs, opt_regs)?;
        }
        Ok(())
    }

    /// True when the map has no points (OSR cannot target this version).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of OSR points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// All points, in emission order.
    pub fn points(&self) -> &[OsrPoint] {
        &self.points
    }

    /// The point anchored at baseline (source) pc `pc`, if any — the
    /// OSR-in lookup.
    pub fn entry_at_baseline(&self, pc: u32) -> Option<&OsrPoint> {
        self.points.iter().find(|p| p.baseline_pc == pc)
    }

    /// The point anchored at optimized pc `pc`, if any — the OSR-out
    /// lookup.
    pub fn exit_at_opt(&self, pc: u32) -> Option<&OsrPoint> {
        self.points.iter().find(|p| p.opt_pc == pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;

    #[test]
    fn identity_point_roundtrips() {
        let p = OsrPoint::identity(3, 7, 4);
        p.validate(4, 9).unwrap();
        let mut heap = Heap::new();
        let r = heap.alloc_object(aoci_ir::ClassId::from_index(0), 1);
        let base = vec![Value::Int(1), Value::Null, Value::Ref(r), Value::Int(-9)];
        let opt = p.map_to_optimized(&base, 9).unwrap();
        assert_eq!(opt.len(), 9);
        assert_eq!(&opt[..4], &base[..]);
        assert!(opt[4..].iter().all(|v| matches!(v, Value::Null)));
        let back = p.map_to_baseline(&opt, 4).unwrap();
        assert_eq!(back, base);
    }

    #[test]
    fn permuted_slots_roundtrip() {
        let p = OsrPoint {
            baseline_pc: 0,
            opt_pc: 0,
            slots: vec![
                OsrSlot { baseline: Reg(0), optimized: Reg(2) },
                OsrSlot { baseline: Reg(1), optimized: Reg(0) },
                OsrSlot { baseline: Reg(2), optimized: Reg(1) },
            ],
        };
        p.validate(3, 3).unwrap();
        let base = vec![Value::Int(10), Value::Int(20), Value::Int(30)];
        let opt = p.map_to_optimized(&base, 3).unwrap();
        assert_eq!(opt, vec![Value::Int(20), Value::Int(30), Value::Int(10)]);
        assert_eq!(p.map_to_baseline(&opt, 3).unwrap(), base);
    }

    #[test]
    fn validation_rejects_aliases_and_ranges() {
        let aliased = OsrPoint {
            baseline_pc: 0,
            opt_pc: 0,
            slots: vec![
                OsrSlot { baseline: Reg(0), optimized: Reg(0) },
                OsrSlot { baseline: Reg(0), optimized: Reg(1) },
            ],
        };
        assert_eq!(aliased.validate(2, 2), Err(OsrError::SlotAliased { reg: 0 }));
        let oob = OsrPoint::identity(0, 0, 4);
        assert_eq!(oob.validate(3, 4), Err(OsrError::SlotOutOfRange { reg: 3 }));
        assert_eq!(oob.validate(4, 3), Err(OsrError::SlotOutOfRange { reg: 3 }));
    }

    #[test]
    fn transfers_are_checked_not_trusted() {
        let p = OsrPoint::identity(0, 0, 4);
        // A frame smaller than the map refuses to transfer.
        let short = vec![Value::Int(1); 2];
        assert!(matches!(
            p.map_to_optimized(&short, 8),
            Err(OsrError::FrameTooSmall { have: 2, .. })
        ));
        assert!(matches!(
            p.map_to_baseline(&short, 4),
            Err(OsrError::FrameTooSmall { have: 2, .. })
        ));
        // A target window smaller than the map refuses too.
        let full = vec![Value::Int(1); 4];
        assert!(p.map_to_optimized(&full, 3).is_err());
    }

    #[test]
    fn map_rejects_duplicate_points() {
        let a = OsrPoint::identity(1, 5, 2);
        let b = OsrPoint::identity(1, 9, 2);
        assert_eq!(OsrMap::new(vec![a.clone(), b]), Err(OsrError::DuplicatePoint));
        let c = OsrPoint::identity(3, 5, 2);
        assert_eq!(OsrMap::new(vec![a.clone(), c]), Err(OsrError::DuplicatePoint));
        let d = OsrPoint::identity(3, 9, 2);
        let m = OsrMap::new(vec![a, d]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.entry_at_baseline(1).unwrap().opt_pc, 5);
        assert_eq!(m.exit_at_opt(9).unwrap().baseline_pc, 3);
        assert!(m.entry_at_baseline(2).is_none());
        assert!(!m.is_empty());
        assert!(OsrMap::empty().is_empty());
    }
}
