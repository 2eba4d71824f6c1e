//! Compilation results: the optimized version plus the decision record.

use aoci_ir::{CallSiteRef, MethodId};
use aoci_vm::MethodVersion;

pub use aoci_trace::{DecisionProvenance, RefusalReason};

/// A declined inlining opportunity.
///
/// Hot refusals are recorded in the AOS database so the missing-edge
/// organizer does not keep recommending recompilation for an edge the
/// compiler will never inline (paper Section 3.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Refusal {
    /// The source-level call site.
    pub site: CallSiteRef,
    /// The callee that was not inlined.
    pub callee: MethodId,
    /// Why.
    pub reason: RefusalReason,
    /// Whether the profile supported inlining this edge (only hot refusals
    /// matter to the missing-edge organizer).
    pub hot: bool,
    /// The inputs the inliner weighed when it declined (flight-recorder
    /// provenance).
    pub provenance: DecisionProvenance,
}

/// A performed inlining.
#[derive(Clone, PartialEq, Debug)]
pub struct InlineDecision {
    /// The compilation context at the decision point: the call site itself
    /// first, then the inline chain outward to the method being compiled.
    pub context: Vec<CallSiteRef>,
    /// The inlined callee.
    pub callee: MethodId,
    /// Whether a method-test guard protects the inlined body.
    pub guarded: bool,
    /// The inputs the inliner weighed when it inlined (flight-recorder
    /// provenance).
    pub provenance: DecisionProvenance,
}

/// The result of optimizing-compiling one method.
#[derive(Clone, Debug)]
pub struct Compilation {
    /// The optimized code, ready to install.
    pub version: MethodVersion,
    /// Every inlining performed, in emission order.
    pub decisions: Vec<InlineDecision>,
    /// Every inlining declined.
    pub refusals: Vec<Refusal>,
    /// Abstract size of the generated code (drives compile-time cost and
    /// the Figure 5 code-space metric).
    pub generated_size: u32,
}

impl Compilation {
    /// Convenience: whether `callee` was inlined anywhere in this
    /// compilation.
    pub fn inlined(&self, callee: MethodId) -> bool {
        self.decisions.iter().any(|d| d.callee == callee)
    }

    /// Number of guarded inline bodies.
    pub fn guarded_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.guarded).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusal_reasons_display() {
        assert_eq!(RefusalReason::TooLarge.to_string(), "callee too large");
        assert_eq!(
            RefusalReason::NotHot.to_string(),
            "medium callee without profile support"
        );
    }
}
