//! The inline oracle: the policy object the optimizing compiler consults
//! per call site (paper Section 3.1).

use crate::rules::RuleSet;
use aoci_ir::{CallSiteRef, MethodId};
use std::sync::Arc;

/// How the oracle matches rule contexts against compilation contexts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatchMode {
    /// The paper's Equation 3 partial match plus target-set intersection.
    #[default]
    Partial,
    /// Ablation: a rule applies only when its context length equals the
    /// compilation context's and every level matches. Demonstrates why
    /// partial matching is load-bearing — profile data usually has more
    /// (often irrelevant) context than the compiler has at a call site.
    Exact,
}

/// A profile-directed inlining candidate returned by the oracle.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Candidate {
    /// The callee predicted for the call site in this context.
    pub target: MethodId,
    /// Aggregate profile weight supporting the prediction.
    pub weight: f64,
}

/// Encapsulates the inlining rules applicable to one compilation (paper:
/// "when a method is selected for recompilation, a compilation plan is
/// created that includes an Inlining Oracle object that encapsulates the
/// applicable inlining rules").
///
/// The optimizing compiler, while compiling method `M` and recursively
/// considering a call site inside an already-inlined body, queries the
/// oracle with the *compilation context*: the call site itself plus the
/// chain of ⟨caller, callsite⟩ pairs produced by the inlining decisions made
/// so far. The oracle applies the Equation 3 partial match and target-set
/// intersection to produce candidates.
#[derive(Clone, Debug)]
pub struct InlineOracle {
    rules: Arc<RuleSet>,
    mode: MatchMode,
}

impl InlineOracle {
    /// Creates an oracle over a snapshot of the current rules, using the
    /// paper's partial matching.
    pub fn new(rules: Arc<RuleSet>) -> Self {
        Self::with_mode(rules, MatchMode::Partial)
    }

    /// Creates an oracle with an explicit [`MatchMode`].
    pub fn with_mode(rules: Arc<RuleSet>, mode: MatchMode) -> Self {
        InlineOracle { rules, mode }
    }

    /// An oracle with no profile data (static heuristics only).
    pub fn empty() -> Self {
        InlineOracle { rules: Arc::new(RuleSet::new()), mode: MatchMode::Partial }
    }

    /// The underlying rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Profile-directed candidates for the call site at the head of
    /// `compile_context` (innermost first: `compile_context[0]` is the
    /// ⟨method-containing-the-site, site⟩ pair; subsequent entries are the
    /// inline chain, then the method being compiled).
    pub fn candidates(&self, compile_context: &[CallSiteRef]) -> Vec<Candidate> {
        let raw = match self.mode {
            MatchMode::Partial => self.rules.candidates(compile_context),
            MatchMode::Exact => self.rules.candidates_exact(compile_context),
        };
        raw.into_iter()
            .map(|(target, weight)| Candidate { target, weight })
            .collect()
    }

    /// The weight of `callee` among [`InlineOracle::candidates`] of
    /// `compile_context` (the first entry naming it), or `None` when the
    /// profile does not support inlining it there: the question a call site
    /// with a known callee asks, answered without the candidate list in the
    /// paper's partial-match mode.
    pub fn weight_of(&self, compile_context: &[CallSiteRef], callee: MethodId) -> Option<f64> {
        match self.mode {
            MatchMode::Partial => self.rules.candidate_weight(compile_context, callee),
            MatchMode::Exact => self
                .rules
                .candidates_exact(compile_context)
                .into_iter()
                .find(|&(target, _)| target == callee)
                .map(|(_, weight)| weight),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::SiteIdx;
    use aoci_profile::TraceKey;

    fn cs(m: usize, s: u16) -> CallSiteRef {
        CallSiteRef::new(MethodId::from_index(m), SiteIdx(s))
    }

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    #[test]
    fn empty_oracle_has_no_candidates() {
        let o = InlineOracle::empty();
        assert!(o.candidates(&[cs(0, 0)]).is_empty());
        assert_eq!(o.weight_of(&[cs(0, 0)], mid(1)), None);
    }

    #[test]
    fn a_site_inside_an_inlined_body_is_asked_with_its_chain() {
        let rules = RuleSet::from_rules(
            vec![(TraceKey::new(mid(5), vec![cs(3, 1), cs(0, 0)]), 7.0)],
            7.0,
        );
        for mode in [MatchMode::Partial, MatchMode::Exact] {
            let o = InlineOracle::with_mode(rules.clone().into(), mode);
            // Compiling method 0; site 1 of inlined method 3; chain = [m0@0].
            let ctx = [cs(3, 1), cs(0, 0)];
            assert_eq!(o.candidates(&ctx), vec![Candidate { target: mid(5), weight: 7.0 }]);
            assert_eq!(o.weight_of(&ctx, mid(5)), Some(7.0), "{mode:?}");
            assert_eq!(o.weight_of(&ctx, mid(3)), None, "{mode:?}: a callee no rule names");
            // A divergent chain does not match.
            let divergent = [cs(3, 1), cs(9, 9)];
            assert!(o.candidates(&divergent).is_empty());
            assert_eq!(o.weight_of(&divergent, mid(5)), None, "{mode:?}");
        }
    }
}
