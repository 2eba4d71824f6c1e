//! The inline oracle: the policy object the optimizing compiler consults
//! per call site (paper Section 3.1).

use crate::rules::RuleSet;
use aoci_ir::{CallSiteRef, IdHashSet, MethodId};
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
///
/// An oracle may also carry an *exclusion set* of `(site, target)` pairs
/// ([`InlineOracle::excluding`]): speculations that already failed at run
/// time, which no rule can bring back.
#[derive(Clone, Debug)]
pub struct InlineOracle {
    rules: Arc<RuleSet>,
    mode: MatchMode,
    excluded: Option<Arc<IdHashSet<(CallSiteRef, MethodId)>>>,
}

impl InlineOracle {
    /// Creates an oracle over a snapshot of the current rules, using the
    /// paper's partial matching.
    pub fn new(rules: Arc<RuleSet>) -> Self {
        Self::with_mode(rules, MatchMode::Partial)
    }

    /// Creates an oracle with an explicit [`MatchMode`].
    pub fn with_mode(rules: Arc<RuleSet>, mode: MatchMode) -> Self {
        InlineOracle { rules, mode, excluded: None }
    }

    /// An oracle with no profile data (static heuristics only).
    pub fn empty() -> Self {
        Self::new(Arc::new(RuleSet::new()))
    }

    /// Never offers `target` at `site` for any `(site, target)` pair in
    /// `excluded`, whatever the rules say and whatever chain the site is
    /// reached through: a call site keeps its virtual dispatch, or its
    /// other predicted targets. An empty set changes no answer.
    pub fn excluding(mut self, excluded: Arc<IdHashSet<(CallSiteRef, MethodId)>>) -> Self {
        self.excluded = Some(excluded);
        self
    }

    /// Whether `target` is excluded at the site at the head of
    /// `compile_context`.
    fn is_excluded(&self, compile_context: &[CallSiteRef], target: MethodId) -> bool {
        match (&self.excluded, compile_context.first()) {
            (Some(excluded), Some(&site)) => excluded.contains(&(site, target)),
            _ => false,
        }
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
            .filter(|&(target, _)| !self.is_excluded(compile_context, target))
            .map(|(target, weight)| Candidate { target, weight })
            .collect()
    }

    /// The weight of `callee` among [`InlineOracle::candidates`] of
    /// `compile_context` (the first entry naming it), or `None` when the
    /// profile does not support inlining it there: the question a call site
    /// with a known callee asks, answered without the candidate list in the
    /// paper's partial-match mode.
    pub fn weight_of(&self, compile_context: &[CallSiteRef], callee: MethodId) -> Option<f64> {
        if self.is_excluded(compile_context, callee) {
            return None;
        }
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

    #[test]
    fn an_excluded_pair_leaves_the_candidates_and_other_targets_stay() {
        // Site m0@0 predicts 5 and 6, alone and when reached from m1@0.
        let rules = RuleSet::from_rules(
            vec![
                (TraceKey::edge(cs(0, 0), mid(5)), 6.0),
                (TraceKey::edge(cs(0, 0), mid(6)), 4.0),
                (TraceKey::new(mid(5), vec![cs(0, 0), cs(1, 0)]), 3.0),
                (TraceKey::new(mid(6), vec![cs(0, 0), cs(1, 0)]), 1.0),
                (TraceKey::edge(cs(2, 0), mid(5)), 2.0),
            ],
            6.0,
        );
        let excluded: IdHashSet<_> = [(cs(0, 0), mid(5))].into_iter().collect();
        for mode in [MatchMode::Partial, MatchMode::Exact] {
            let all = InlineOracle::with_mode(rules.clone().into(), mode);
            let o = all.clone().excluding(Arc::new(excluded.clone()));
            for ctx in [&[cs(0, 0)][..], &[cs(0, 0), cs(1, 0)]] {
                let kept: Vec<Candidate> =
                    all.candidates(ctx).into_iter().filter(|c| c.target != mid(5)).collect();
                assert!(!kept.is_empty(), "{mode:?} {ctx:?}: 6 is predicted at the site");
                assert_eq!(o.candidates(ctx), kept, "{mode:?} {ctx:?}");
                assert_eq!(o.weight_of(ctx, mid(5)), None, "{mode:?} {ctx:?}");
                assert_eq!(o.weight_of(ctx, mid(6)), all.weight_of(ctx, mid(6)), "{mode:?}");
            }
            // The same target at another site is not excluded.
            assert_eq!(o.candidates(&[cs(2, 0)]), all.candidates(&[cs(2, 0)]), "{mode:?}");
            assert_eq!(o.weight_of(&[cs(2, 0)], mid(5)), Some(2.0), "{mode:?}");
            // An empty set changes no answer.
            let none = all.clone().excluding(Arc::default());
            assert_eq!(none.candidates(&[cs(0, 0)]), all.candidates(&[cs(0, 0)]), "{mode:?}");
        }
    }
}
