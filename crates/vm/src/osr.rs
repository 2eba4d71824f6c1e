//! On-stack replacement maps: the loop-header pc pairs at which a baseline
//! activation may move into an optimized version of its method.
//!
//! The paper's AOS (like the Jikes RVM system it models) switches code
//! versions at method invocation boundaries; a long-running activation —
//! a loop-dominated `main`, say — would never benefit from optimized code.
//! OSR closes that gap in one direction, promotion (OSR-in), following the
//! treatment of "On-Stack Replacement à la Carte" (D'Elia & Demetrescu): a
//! baseline activation that trips a loop back-edge counter transfers
//! mid-loop into freshly optimized code. Nothing transfers the other way:
//! an optimized activation whose version was invalidated finishes on that
//! code, its guards falling back to virtual dispatch (DESIGN.md §7).
//!
//! The transfer happens at an [`OsrPoint`]: a loop header of the *root*
//! method that survives optimization as a control-flow join. The register
//! correspondence at such a point is the **frame-mapping invariant** (see
//! DESIGN.md §7): optimized code produced by the inliner keeps the root
//! method's register window unrenamed — inlined callees live in windows
//! above it and the simplifier only rewrites *uses*, never definitions —
//! so a point is just its two pcs, and a transfer carries the root window
//! across as it is. The transfer is still checked: a frame holding fewer
//! registers than the root window refuses to transfer (the activation
//! stays where it was — degraded, never wrong) rather than building a
//! corrupt frame.

/// Why an OSR map was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsrError {
    /// Two points share a baseline pc or an optimized pc.
    DuplicatePoint,
}

impl std::fmt::Display for OsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsrError::DuplicatePoint => write!(f, "duplicate OSR point"),
        }
    }
}

impl std::error::Error for OsrError {}

/// One OSR anchor: a root-method loop header in both bodies.
///
/// `baseline_pc` indexes the baseline body (== the source body: baseline
/// compilation is the identity translation), `opt_pc` the optimized body.
/// Both sides are control-flow leaders, so the abstract state the
/// simplifier assumed at `opt_pc` holds for *any* incoming frame — the
/// property that makes transferring an interpreter frame there sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OsrPoint {
    /// Loop-header pc in the baseline (source) body.
    pub baseline_pc: u32,
    /// The corresponding pc in the optimized body.
    pub opt_pc: u32,
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
    /// Returns [`OsrError::DuplicatePoint`] on a pc collision.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, CostModel, InlineMap, MethodVersion, OptLevel, RunOutcome, Value};
    use crate::{Vm, VmConfig};
    use aoci_ir::{BinOp, Cond, Instr, MethodId, Program, ProgramBuilder};

    fn point(baseline_pc: u32, opt_pc: u32) -> OsrPoint {
        OsrPoint { baseline_pc, opt_pc }
    }

    /// `main` holds an int, a reference (whose field holds 5) and a null
    /// across a loop headed at pc 8 that counts to 20, then returns
    /// `int + field + count + (null instanceof A)` = 32 — only when every
    /// register outlived the loop. `pad` registers above are never touched.
    fn held_across_a_loop(pad: u16) -> (Program, MethodId) {
        let mut b = ProgramBuilder::new();
        let a = b.class("A", None);
        let f = b.field(a, "f");
        let main = {
            let mut m = b.static_method("main", 0);
            let [int, obj, null, i, n, one, t] = [(); 7].map(|()| m.fresh_reg());
            for _ in 0..pad {
                m.fresh_reg();
            }
            m.const_int(int, 7);
            m.new_obj(obj, a);
            m.const_int(t, 5);
            m.put_field(obj, f, t);
            m.const_null(null);
            m.const_int(i, 0);
            m.const_int(n, 20);
            m.const_int(one, 1);
            let (top, out) = (m.label(), m.label());
            m.bind(top);
            m.branch(Cond::Ge, i, n, out);
            m.bin(BinOp::Add, i, i, one);
            m.jump(top);
            m.bind(out);
            m.get_field(t, obj, f);
            m.bin(BinOp::Add, t, t, int);
            m.bin(BinOp::Add, t, t, i);
            m.instance_of(one, null, a);
            m.bin(BinOp::Add, t, t, one);
            m.ret(Some(t));
            m.finish()
        };
        (b.finish(main).expect("valid program"), main)
    }

    const HEADER: u32 = 8;

    /// `main`'s body behind two `Work` instructions, as optimized code of
    /// `num_regs` registers with one point at the loop header.
    fn optimized(p: &Program, main: MethodId, num_regs: u16) -> MethodVersion {
        let shift = |t: u32| t + 2;
        let mut body = vec![Instr::Work { units: 1 }; 2];
        body.extend(p.method(main).body().iter().map(|i| match *i {
            Instr::Jump { target } => Instr::Jump { target: shift(target) },
            Instr::Branch { cond, lhs, rhs, target } => {
                Instr::Branch { cond, lhs, rhs, target: shift(target) }
            }
            other => other,
        }));
        MethodVersion {
            level: OptLevel::Optimized,
            num_regs,
            inline_map: InlineMap::baseline(main, body.len()),
            body,
            osr_map: OsrMap::new(vec![point(HEADER, shift(HEADER))]).expect("one point"),
            ..MethodVersion::baseline(p.method(main))
        }
    }

    fn osr_vm(p: &Program) -> Vm<'_> {
        let config =
            VmConfig { osr_enabled: true, osr_backedge_threshold: 4, ..VmConfig::default() };
        Vm::with_config(p, CostModel { sample_period: 0, ..CostModel::default() }, config)
    }

    /// Runs until the loop asks for promotion.
    fn until_hot(vm: &mut Vm<'_>) {
        loop {
            match vm.run(u64::MAX).expect("no fault") {
                RunOutcome::OsrRequest(req) => return assert_eq!(req.loop_header, HEADER),
                RunOutcome::Finished(_) => panic!("the loop never got hot"),
                _ => {}
            }
        }
    }

    #[test]
    fn map_rejects_duplicate_points() {
        let a = point(1, 5);
        assert_eq!(OsrMap::new(vec![a, point(1, 9)]), Err(OsrError::DuplicatePoint));
        assert_eq!(OsrMap::new(vec![a, point(3, 5)]), Err(OsrError::DuplicatePoint));
        let m = OsrMap::new(vec![a, point(3, 9)]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.entry_at_baseline(1).unwrap().opt_pc, 5);
        assert_eq!(m.entry_at_baseline(3).unwrap().opt_pc, 9);
        assert!(m.entry_at_baseline(2).is_none());
        assert!(!m.is_empty());
        assert!(OsrMap::empty().is_empty());
    }

    /// In through the point and on to the end: the int, the reference and
    /// the null come back out in the result, the transfer is charged the
    /// root window once, and an invalidation after the transfer leaves the
    /// activation on the code it entered.
    #[test]
    fn identity_point_roundtrips() {
        let (p, main) = held_across_a_loop(0);
        let n = usize::from(p.method(main).num_regs());
        let mut vm = osr_vm(&p);
        until_hot(&mut vm);
        vm.registry_mut().install(optimized(&p, main, 10));
        assert!(vm.osr_enter(HEADER));
        assert!(vm.registry_mut().invalidate(main));
        assert_eq!(vm.run_to_completion().expect("no fault"), Some(Value::Int(32)));
        assert_eq!(vm.counters().osr_entries, 1);
        assert_eq!(vm.clock().component(Component::Osr), vm.cost_model().osr_transfer_cost(n));
        assert!(vm.clock().component(Component::AppOptimized) > 0);
        assert_eq!(vm.registry().baseline_compilations(), 1, "no baseline rebuilt for main");
    }

    /// A window shorter than the root window — the running one or the
    /// target's — refuses the transfer and leaves the activation running
    /// where it was.
    #[test]
    fn transfers_are_checked_not_trusted() {
        let (p, main) = held_across_a_loop(2);
        let short = p.method(main).num_regs() - 2;
        // OSR-in into an optimized version of `short` registers.
        let mut vm = osr_vm(&p);
        until_hot(&mut vm);
        vm.registry_mut().install(optimized(&p, main, short));
        assert!(!vm.osr_enter(HEADER));
        assert_eq!(vm.clock().component(Component::Osr), 0);
        // OSR-in from a baseline frame of `short` registers.
        let mut vm = osr_vm(&p);
        let baseline = MethodVersion { num_regs: short, ..MethodVersion::baseline(p.method(main)) };
        vm.registry_mut().install(baseline);
        until_hot(&mut vm);
        vm.registry_mut().install(optimized(&p, main, 12));
        assert!(!vm.osr_enter(HEADER));
        assert_eq!(vm.run_to_completion().expect("no fault"), Some(Value::Int(32)));
        assert_eq!(vm.counters().osr_entries, 0);
        assert_eq!(vm.clock().component(Component::Osr), 0);
    }
}
