//! Inlining rules and the Equation 3 partial-match query.

use aoci_ir::{CallSiteRef, IdHashMap, IdHashSet, MethodId};
use aoci_profile::{HotTrace, TraceKey};

/// One inlining rule: a hot trace that should be inlined when possible.
#[derive(Clone, PartialEq, Debug)]
pub struct InlineRule {
    /// The hot trace (callee + context, innermost caller first).
    pub trace: TraceKey,
    /// The trace's profile weight when the rule was formed.
    pub weight: f64,
    /// The trace's fraction of total profile weight when the rule was
    /// formed.
    pub fraction: f64,
}

/// A set of inlining rules derived from the hot traces of the dynamic call
/// graph, indexed by immediate call site.
///
/// Rules are kept exactly as collected — partial matches are *not* merged
/// (paper Section 3.3); combining information across rules happens at query
/// time in [`RuleSet::candidates`].
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    /// Sorted by immediate call site, stably: the rules of one site are one
    /// run, in the order they were given. The AI organizer rebuilds the set
    /// on every tick, so it is one allocation (none, when built from the hot
    /// list's own vector) and a site lookup is a binary search.
    rules: Vec<InlineRule>,
}

impl RuleSet {
    /// A content fingerprint over the rule *traces* (weights excluded, so
    /// ordinary weight drift does not change the fingerprint). The fleet's
    /// compile server takes it as its rules generation
    /// (`CompileServer::set_generation`): a changed fingerprint clears the
    /// cache.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut keys: Vec<&TraceKey> = self.iter().map(|r| &r.trace).collect();
        keys.sort();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for k in keys {
            k.hash(&mut h);
        }
        h.finish()
    }
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a rule set from the DCG's hot traces. Depth-0 (root edge)
    /// traces name no call site, so no inlining rule can form from them;
    /// they are skipped.
    pub fn from_hot_traces(hot: impl IntoIterator<Item = HotTrace>) -> Self {
        Self::from_unsorted(
            hot.into_iter()
                .filter(|h| h.key.depth() > 0)
                .map(|h| InlineRule { trace: h.key, weight: h.weight, fraction: h.fraction })
                .collect(),
        )
    }

    /// Builds a rule set from raw `(trace, weight)` pairs and the total
    /// profile weight (mainly for tests and examples). Depth-0 (root edge)
    /// traces are skipped as in [`RuleSet::from_hot_traces`].
    pub fn from_rules(rules: impl IntoIterator<Item = (TraceKey, f64)>, total: f64) -> Self {
        Self::from_unsorted(
            rules
                .into_iter()
                .filter(|(trace, _)| trace.depth() > 0)
                .map(|(trace, weight)| {
                    let fraction = if total > 0.0 { weight / total } else { 0.0 };
                    InlineRule { trace, weight, fraction }
                })
                .collect(),
        )
    }

    /// `rules`, none of depth 0, in the order they were given.
    fn from_unsorted(mut rules: Vec<InlineRule>) -> Self {
        rules.sort_by_key(|r| r.trace.immediate_caller());
        RuleSet { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules whose immediate call site is `site`.
    pub fn rules_for_site(&self, site: CallSiteRef) -> &[InlineRule] {
        let start = self.rules.partition_point(|r| r.trace.immediate_caller() < site);
        let len = self.rules[start..].partition_point(|r| r.trace.immediate_caller() == site);
        &self.rules[start..start + len]
    }

    /// Iterates over all rules in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &InlineRule> {
        self.rules.iter()
    }

    /// Returns the rules *applicable* to a compilation context (Equation 3):
    /// those agreeing with `compile_context` on every level both have, in
    /// the order the site holds them. `compile_context[0]` must be the call
    /// site being compiled; an empty context has no applicable rules.
    pub fn applicable<'a>(
        &'a self,
        compile_context: &'a [CallSiteRef],
    ) -> impl Iterator<Item = &'a InlineRule> + Clone + 'a {
        let site_rules = match compile_context.first() {
            Some(&site) => self.rules_for_site(site),
            None => &[],
        };
        site_rules.iter().filter(move |r| {
            r.trace
                .context()
                .iter()
                .zip(compile_context.iter())
                .all(|(a, b)| a == b)
        })
    }

    /// Exact-match variant (the oracle's ablation mode): only rules whose
    /// context is *identical* to `compile_context` contribute, one entry per
    /// rule.
    pub fn candidates_exact(&self, compile_context: &[CallSiteRef]) -> Vec<(MethodId, f64)> {
        let mut out: Vec<(MethodId, f64)> = self
            .applicable(compile_context)
            .filter(|r| r.trace.context() == compile_context)
            .map(|r| (r.trace.callee(), r.weight))
            .collect();
        out.sort_by(heaviest_first);
        out
    }

    /// The weight [`RuleSet::candidates`] gives `callee` in
    /// `compile_context`, bit for bit, or `None` when `callee` is not among
    /// them: the inliner's question about one call it already knows the
    /// callee of, answered by walking the site's applicable rules without
    /// building the candidate list.
    ///
    /// `callee` survives the target-set intersection iff every context group
    /// of applicable rules names it — iff each applicable rule shares its
    /// context with some applicable rule for `callee` — and its weight is the
    /// sum, from `0.0` in applicable order, of the weights of its applicable
    /// rules, which is the order and the start `candidates` sums in.
    pub fn candidate_weight(
        &self,
        compile_context: &[CallSiteRef],
        callee: MethodId,
    ) -> Option<f64> {
        let applicable = self.applicable(compile_context);
        let mut named = applicable.clone().filter(|r| r.trace.callee() == callee).peekable();
        named.peek()?;
        let every_group_names_it = applicable.clone().all(|r| {
            r.trace.callee() == callee
                || applicable
                    .clone()
                    .any(|q| q.trace.callee() == callee && q.trace.context() == r.trace.context())
        });
        every_group_names_it.then(|| named.fold(0.0, |sum, r| sum + r.weight))
    }

    /// The paper's candidate-selection algorithm: group applicable rules by
    /// identical (full) context, form each group's set of target methods,
    /// and intersect the sets. A callee frequently invoked from *every*
    /// traced context applicable here is predicted to be a good inlining
    /// candidate even without an exact context match.
    ///
    /// Returns `(callee, total weight across applicable rules)` pairs,
    /// heaviest first (ties broken by callee id for determinism).
    pub fn candidates(&self, compile_context: &[CallSiteRef]) -> Vec<(MethodId, f64)> {
        let applicable: Vec<&InlineRule> = self.applicable(compile_context).collect();
        if applicable.is_empty() {
            return Vec::new();
        }
        let mut groups: IdHashMap<&[CallSiteRef], Vec<&InlineRule>> = IdHashMap::default();
        for r in &applicable {
            groups.entry(r.trace.context()).or_default().push(r);
        }
        let mut weights: IdHashMap<MethodId, f64> = IdHashMap::default();
        let mut in_all: Option<IdHashSet<MethodId>> = None;
        for rules in groups.values() {
            let set: IdHashSet<MethodId> = rules.iter().map(|r| r.trace.callee()).collect();
            in_all = Some(match in_all {
                None => set,
                Some(acc) => acc.intersection(&set).copied().collect(),
            });
        }
        for r in &applicable {
            *weights.entry(r.trace.callee()).or_insert(0.0) += r.weight;
        }
        let survivors = in_all.unwrap_or_default();
        let mut out: Vec<(MethodId, f64)> = survivors
            .into_iter()
            .map(|m| (m, weights.get(&m).copied().unwrap_or(0.0)))
            .collect();
        out.sort_by(heaviest_first);
        out
    }
}

/// Candidate order: heaviest first, ties broken by callee id. A total order
/// on every weight `from_rules` accepts, NaN included; on the finite,
/// positive weights the profile produces it is the numeric order.
fn heaviest_first(a: &(MethodId, f64), b: &(MethodId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::SiteIdx;

    fn cs(m: usize, s: u16) -> CallSiteRef {
        CallSiteRef::new(MethodId::from_index(m), SiteIdx(s))
    }

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    fn set(rules: Vec<(TraceKey, f64)>) -> RuleSet {
        let total: f64 = rules.iter().map(|(_, w)| w).sum();
        RuleSet::from_rules(rules, total)
    }

    #[test]
    fn exact_match_single_rule() {
        let s = set(vec![(TraceKey::edge(cs(0, 0), mid(1)), 5.0)]);
        let c = s.candidates(&[cs(0, 0)]);
        assert_eq!(c, vec![(mid(1), 5.0)]);
        assert!(s.candidates(&[cs(0, 1)]).is_empty());
    }

    #[test]
    fn rule_with_more_context_than_compilation_applies() {
        // Rule: X@1 => A@0 => callee. Compiling with context just [A@0]:
        // "it is often the case that the profile data has more (often
        // irrelevant) context than is available at the call site".
        let s = set(vec![(
            TraceKey::new(mid(9), vec![cs(0, 0), cs(1, 1)]),
            4.0,
        )]);
        let c = s.candidates(&[cs(0, 0)]);
        assert_eq!(c, vec![(mid(9), 4.0)]);
    }

    #[test]
    fn compilation_with_more_context_than_rule_applies() {
        // Rule is a plain edge; compilation context is deeper.
        let s = set(vec![(TraceKey::edge(cs(0, 0), mid(9)), 4.0)]);
        let c = s.candidates(&[cs(0, 0), cs(1, 1), cs(2, 2)]);
        assert_eq!(c, vec![(mid(9), 4.0)]);
    }

    #[test]
    fn divergent_context_rules_out() {
        let s = set(vec![(
            TraceKey::new(mid(9), vec![cs(0, 0), cs(1, 1)]),
            4.0,
        )]);
        // Second level disagrees (cs(7,7) vs rule's cs(1,1)).
        assert!(s.candidates(&[cs(0, 0), cs(7, 7)]).is_empty());
    }

    #[test]
    fn intersection_across_context_groups() {
        // Two applicable context groups:
        //   group A (deep ctx via X): targets {1, 2}
        //   group B (deep ctx via Y): targets {1}
        // Intersection = {1}: callee 2 was hot only in one context group.
        let s = set(vec![
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(10, 0)]), 3.0),
            (TraceKey::new(mid(2), vec![cs(0, 0), cs(10, 0)]), 3.0),
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(11, 0)]), 3.0),
        ]);
        // Compile with only the site available: both groups applicable.
        let c = s.candidates(&[cs(0, 0)]);
        assert_eq!(c, vec![(mid(1), 6.0)]);
    }

    #[test]
    fn disambiguation_with_full_context() {
        // The HashMap example: same site, two contexts, opposite targets.
        let s = set(vec![
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(9, 0)]), 5.0),
            (TraceKey::new(mid(2), vec![cs(0, 0), cs(9, 1)]), 5.0),
        ]);
        // Compiling within context cs(9,0): only the first rule applies.
        assert_eq!(s.candidates(&[cs(0, 0), cs(9, 0)]), vec![(mid(1), 5.0)]);
        assert_eq!(s.candidates(&[cs(0, 0), cs(9, 1)]), vec![(mid(2), 5.0)]);
        // Without context, the groups disagree → intersection is empty.
        assert!(s.candidates(&[cs(0, 0)]).is_empty());
    }

    #[test]
    fn candidates_ordered_by_weight() {
        let s = set(vec![
            (TraceKey::edge(cs(0, 0), mid(1)), 2.0),
            (TraceKey::edge(cs(0, 0), mid(2)), 7.0),
        ]);
        let c = s.candidates(&[cs(0, 0)]);
        assert_eq!(c, vec![(mid(2), 7.0), (mid(1), 2.0)]);
    }

    #[test]
    fn empty_context_yields_nothing() {
        let s = set(vec![(TraceKey::edge(cs(0, 0), mid(1)), 2.0)]);
        assert!(s.candidates(&[]).is_empty());
        assert!(s.applicable(&[]).next().is_none());
        assert_eq!(s.candidate_weight(&[], mid(1)), None);
    }

    #[test]
    fn a_nan_weight_orders_deterministically_and_panics_nothing() {
        // `from_rules` takes weights as given; a NaN used to panic the sort.
        let s = set(vec![
            (TraceKey::edge(cs(0, 0), mid(1)), f64::NAN),
            (TraceKey::edge(cs(0, 0), mid(2)), 3.0),
            (TraceKey::edge(cs(0, 0), mid(3)), f64::INFINITY),
        ]);
        let ctx = [cs(0, 0)];
        let bits = |c: Vec<(MethodId, f64)>| -> Vec<(MethodId, u64)> {
            c.into_iter().map(|(m, w)| (m, w.to_bits())).collect()
        };
        let partial = bits(s.candidates(&ctx));
        assert_eq!(partial, bits(s.candidates(&ctx)));
        assert_eq!(bits(s.candidates_exact(&ctx)), bits(s.candidates_exact(&ctx)));
        // A positive NaN sorts above every number.
        let order: Vec<MethodId> = partial.iter().map(|&(m, _)| m).collect();
        assert_eq!(order, [mid(1), mid(3), mid(2)]);
        for (m, w) in partial {
            let weight = s.candidate_weight(&ctx, m).map(f64::to_bits);
            assert_eq!(weight, Some(w));
            assert_eq!(weight, s.candidate_weight(&ctx, m).map(f64::to_bits));
        }
    }

    #[test]
    fn candidate_weight_is_the_weight_candidates_gives() {
        // Three context groups at one site, all naming 1 (twice in the
        // first); 2 and 3 named by one group each; the third group deeper
        // than some queries and diverging from others at its third level.
        let s = set(vec![
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(10, 0)]), 0.1),
            (TraceKey::new(mid(2), vec![cs(0, 0), cs(10, 0)]), 3.0),
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(10, 0)]), 0.2),
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(11, 0)]), 0.7),
            (TraceKey::new(mid(3), vec![cs(0, 0), cs(12, 0), cs(13, 0)]), 5.0),
            (TraceKey::new(mid(1), vec![cs(0, 0), cs(12, 0), cs(13, 0)]), 0.4),
        ]);
        let contexts: [&[CallSiteRef]; 5] = [
            &[cs(0, 0)],
            &[cs(0, 0), cs(10, 0)],
            &[cs(0, 0), cs(12, 0)],
            &[cs(0, 0), cs(12, 0), cs(14, 0)],
            &[cs(1, 0)],
        ];
        for ctx in contexts {
            let all = s.candidates(ctx);
            for m in (0..5).map(mid) {
                let expected = all.iter().find(|c| c.0 == m).map(|c| c.1.to_bits());
                assert_eq!(s.candidate_weight(ctx, m).map(f64::to_bits), expected, "{ctx:?} {m:?}");
            }
        }
        // Summed from 0.0 in the site's order.
        assert_eq!(s.candidate_weight(&[cs(0, 0)], mid(1)), Some(0.0 + 0.1 + 0.2 + 0.7 + 0.4));
        assert_eq!(s.candidate_weight(&[cs(0, 0)], mid(2)), None, "named by one group of three");
        assert_eq!(s.candidate_weight(&[cs(0, 0), cs(12, 0)], mid(3)), Some(5.0));
    }

    #[test]
    fn exact_match_requires_identical_context() {
        let s = set(vec![
            (TraceKey::new(mid(9), vec![cs(0, 0), cs(1, 1)]), 4.0),
            (TraceKey::edge(cs(0, 0), mid(8)), 2.0),
        ]);
        // Exact: context [cs(0,0)] matches only the depth-1 rule.
        assert_eq!(s.candidates_exact(&[cs(0, 0)]), vec![(mid(8), 2.0)]);
        // The deep rule needs the full context.
        assert_eq!(
            s.candidates_exact(&[cs(0, 0), cs(1, 1)]),
            vec![(mid(9), 4.0)]
        );
        // Partial matching at the shallow context sees two disagreeing
        // context groups — the intersection is empty (ambiguous site).
        assert!(s.candidates(&[cs(0, 0)]).is_empty());
    }


    #[test]
    fn fingerprint_ignores_weights_but_not_traces() {
        let a = set(vec![
            (TraceKey::edge(cs(0, 0), mid(1)), 2.0),
            (TraceKey::edge(cs(0, 1), mid(2)), 3.0),
        ]);
        let b = set(vec![
            (TraceKey::edge(cs(0, 1), mid(2)), 30.0),
            (TraceKey::edge(cs(0, 0), mid(1)), 20.0),
        ]);
        // Same traces (any order, any weights) → same fingerprint.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = set(vec![(TraceKey::edge(cs(0, 0), mid(1)), 2.0)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(RuleSet::new().fingerprint(), RuleSet::new().fingerprint());
    }

    #[test]
    fn a_site_keeps_its_rules_together_and_in_the_order_given() {
        // Given interleaved across three sites, heaviest first as the hot
        // list gives them.
        let s = set(vec![
            (TraceKey::edge(cs(2, 0), mid(1)), 9.0),
            (TraceKey::new(mid(2), vec![cs(0, 1), cs(5, 0)]), 8.0),
            (TraceKey::edge(cs(2, 0), mid(3)), 7.0),
            (TraceKey::edge(cs(0, 0), mid(4)), 6.0),
            (TraceKey::new(mid(5), vec![cs(0, 1), cs(6, 0)]), 5.0),
            (TraceKey::root(mid(9)), 4.0), // names no site: skipped
        ]);
        assert_eq!(s.len(), 5);
        let callees = |site| -> Vec<MethodId> {
            s.rules_for_site(site).iter().map(|r| r.trace.callee()).collect()
        };
        assert_eq!(callees(cs(2, 0)), [mid(1), mid(3)]);
        assert_eq!(callees(cs(0, 1)), [mid(2), mid(5)]);
        assert_eq!(callees(cs(0, 0)), [mid(4)]);
        assert!(callees(cs(1, 0)).is_empty() && callees(cs(3, 0)).is_empty());
        assert_eq!(s.iter().count(), 5);
    }

    #[test]
    fn fingerprint_of_a_literal_set_is_pinned() {
        // The value the parent of the shared-slice key printed for this set:
        // the fingerprint reaches `fleet.json` generations, so the key's
        // representation may not move it.
        let s = set(vec![
            (TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1), cs(3, 2)]), 1.0),
            (TraceKey::edge(cs(4, 7), mid(5)), 1.0),
            (TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 2)]), 1.0),
        ]);
        assert_eq!(s.fingerprint(), 0x585a_21b2_2f78_17be);
    }

    #[test]
    fn from_hot_traces_builds_fractions() {
        let mut dcg = aoci_profile::Dcg::default();
        dcg.record(TraceKey::edge(cs(0, 0), mid(1)), 98.0);
        dcg.record(TraceKey::edge(cs(0, 1), mid(2)), 2.0);
        let rs = RuleSet::from_hot_traces(dcg.hot(0.015));
        assert_eq!(rs.len(), 2);
        let r = &rs.rules_for_site(cs(0, 0))[0];
        assert!((r.fraction - 0.98).abs() < 1e-12);
    }
}
