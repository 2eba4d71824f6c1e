//! Trace keys: the unit of profile data.

use aoci_ir::{CallSiteRef, MethodId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A call trace of the paper's Equation 2:
/// `⟨caller_n, callsite_n, …, caller_1, callsite_1, callee⟩`.
///
/// The context is stored innermost-first: `context[0]` is the immediate
/// caller edge (`caller_1, callsite_1`), matching the index convention of
/// the paper's Equation 3 partial-match rule. A length-1 context is a plain
/// context-insensitive call edge (Equation 1). A length-0 context is a
/// **root edge**: weight observed for a method with no recorded caller
/// (e.g. a program entry point in an aggregated fleet profile). Root edges
/// never arise from the online trace listener — it always records at least
/// the immediate caller — but merged profiles must keep them (see
/// [`merge_profiles`]), so every consumer that needs a caller edge checks
/// [`TraceKey::depth`] before calling [`TraceKey::immediate_caller`].
///
/// The context is a shared slice: the DCG, the hot list, the rules and the
/// fleet's merged profile hold one key each, and a clone is a refcount. It
/// hashes, compares, orders and prints as the `Vec` it replaced.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TraceKey {
    callee: MethodId,
    context: Arc<[CallSiteRef]>,
}

impl TraceKey {
    /// Creates a trace key. An empty `context` is a root edge — weight for
    /// `callee` with no recorded caller.
    pub fn new(callee: MethodId, context: impl Into<Arc<[CallSiteRef]>>) -> Self {
        TraceKey { callee, context: context.into() }
    }

    /// Creates a depth-0 (root edge) key: `callee` with no caller context.
    pub fn root(callee: MethodId) -> Self {
        TraceKey::new(callee, [])
    }

    /// Creates a length-1 (context-insensitive edge) key.
    pub fn edge(caller: CallSiteRef, callee: MethodId) -> Self {
        TraceKey::new(callee, [caller])
    }

    /// The callee — the method whose invocation this trace describes.
    pub fn callee(&self) -> MethodId {
        self.callee
    }

    /// The calling context, innermost caller first.
    pub fn context(&self) -> &[CallSiteRef] {
        &self.context
    }

    /// The immediate caller edge (`context[0]`).
    ///
    /// # Panics
    ///
    /// Panics on a depth-0 (root edge) key, which has no caller; check
    /// [`TraceKey::depth`] first when root edges can reach the call site.
    pub fn immediate_caller(&self) -> CallSiteRef {
        self.context[0]
    }

    /// Number of context levels (0 for a root edge, 1 for a plain call
    /// edge, more for deeper contexts).
    pub fn depth(&self) -> usize {
        self.context.len()
    }

    /// Returns this trace truncated to its first `k` context levels.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`TraceKey::depth`].
    pub fn prefix(&self, k: usize) -> TraceKey {
        assert!(k >= 1 && k <= self.context.len(), "prefix length out of range");
        TraceKey::new(self.callee, &self.context[..k])
    }

    /// Returns `true` if `self` and `other` describe the same callee and
    /// their contexts agree on every level both have — the applicability
    /// condition of the paper's Equation 3.
    pub fn partial_matches(&self, other: &TraceKey) -> bool {
        if self.callee != other.callee {
            return false;
        }
        self.context
            .iter()
            .zip(other.context.iter())
            .all(|(a, b)| a == b)
    }

    /// Returns `true` if `other`'s context is a (non-strict) prefix of
    /// `self`'s and the callees agree.
    pub fn extends(&self, other: &TraceKey) -> bool {
        other.context.len() <= self.context.len() && self.partial_matches(other)
    }
}

impl fmt::Display for TraceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print outermost-first, the paper's A ⇒ B ⇒ C reading order.
        for cs in self.context.iter().rev() {
            write!(f, "{cs} => ")?;
        }
        write!(f, "{}", self.callee)
    }
}

/// Merges trace profiles by summing the weights of identical keys.
///
/// The result is canonical: one entry per distinct key, sorted by key
/// (callee, then the context's `(method, site)` pairs innermost first),
/// duplicates within one input combined too. A key's weights are summed in
/// input order, so the same inputs in the same order give the same bits.
/// Up to float rounding the merge is commutative and associative and
/// conserves total weight; with integer-valued weights it is exact.
pub fn merge_profiles<'a>(
    profiles: impl IntoIterator<Item = &'a [(TraceKey, f64)]>,
) -> Vec<(TraceKey, f64)> {
    let mut acc: BTreeMap<TraceKey, f64> = BTreeMap::new();
    for profile in profiles {
        for (key, weight) in profile {
            *acc.entry(key.clone()).or_insert(0.0) += weight;
        }
    }
    acc.into_iter().collect()
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

    #[test]
    fn root_key_has_depth_zero() {
        let k = TraceKey::root(mid(3));
        assert_eq!(k.depth(), 0);
        assert_eq!(k.callee(), mid(3));
        assert_eq!(k, TraceKey::new(mid(3), vec![]));
        assert_eq!(k.to_string(), "m3");
        // A root edge partial-matches (and is extended by) any deeper
        // trace of the same callee: zero shared levels agree vacuously.
        let deeper = TraceKey::new(mid(3), vec![cs(1, 0)]);
        assert!(k.partial_matches(&deeper));
        assert!(deeper.extends(&k));
    }

    #[test]
    fn edge_is_depth_one() {
        let k = TraceKey::edge(cs(1, 0), mid(2));
        assert_eq!(k.depth(), 1);
        assert_eq!(k.immediate_caller(), cs(1, 0));
        assert_eq!(k.callee(), mid(2));
    }

    #[test]
    fn prefix_truncates_outer_context() {
        let k = TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1), cs(3, 2)]);
        let p = k.prefix(2);
        assert_eq!(p.context(), &[cs(1, 0), cs(2, 1)]);
        assert_eq!(p.callee(), mid(9));
    }

    #[test]
    fn partial_match_is_symmetric_on_shared_levels() {
        let long = TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1), cs(3, 2)]);
        let short = TraceKey::new(mid(9), vec![cs(1, 0)]);
        assert!(long.partial_matches(&short));
        assert!(short.partial_matches(&long));
        assert!(long.extends(&short));
        assert!(!short.extends(&long));
    }

    #[test]
    fn partial_match_fails_on_divergence() {
        let a = TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1)]);
        let b = TraceKey::new(mid(9), vec![cs(1, 0), cs(5, 1)]);
        assert!(!a.partial_matches(&b));
        let c = TraceKey::new(mid(8), vec![cs(1, 0)]);
        assert!(!a.partial_matches(&c));
    }

    #[test]
    fn equal_keys_hash_equal_however_they_were_built() {
        use std::hash::BuildHasher;
        let build = std::hash::BuildHasherDefault::<aoci_ir::IdHasher>::default();
        let context = [cs(1, 0), cs(2, 1)];
        let keys = [
            TraceKey::new(mid(9), context.to_vec()),
            TraceKey::new(mid(9), &context[..]),
            TraceKey::new(mid(9), context),
            TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1), cs(3, 2)]).prefix(2),
        ];
        for k in &keys {
            assert_eq!(k, &keys[0]);
            assert_eq!(build.hash_one(k), build.hash_one(&keys[0]));
        }
        assert_eq!(build.hash_one(TraceKey::edge(cs(1, 0), mid(9))), build.hash_one(keys[0].prefix(1)));
        assert_ne!(build.hash_one(&keys[0]), build.hash_one(TraceKey::edge(cs(1, 0), mid(9))));
    }

    #[test]
    fn display_and_order_are_those_of_the_vec_representation() {
        // Sorted and printed by the parent of the shared-slice context:
        // `merge_profiles` order and every rendered trace depend on both.
        let mut keys = [
            TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1), cs(3, 2)]),
            TraceKey::edge(cs(4, 7), mid(5)),
            TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 2)]),
            TraceKey::root(mid(9)),
            TraceKey::root(mid(2)),
        ];
        keys.sort();
        let printed: Vec<String> = keys.iter().map(TraceKey::to_string).collect();
        assert_eq!(
            printed,
            ["m2", "m4@7 => m5", "m9", "m3@2 => m2@1 => m1@0 => m9", "m2@2 => m1@0 => m9"]
        );
        assert_eq!(
            format!("{:?}", keys[1]),
            "TraceKey { callee: MethodId(5), context: [CallSiteRef { method: MethodId(4), site: SiteIdx(7) }] }"
        );
    }

    #[test]
    fn display_reads_outermost_first() {
        let k = TraceKey::new(mid(9), vec![cs(1, 0), cs(2, 1)]);
        assert_eq!(k.to_string(), "m2@1 => m1@0 => m9");
    }

    #[test]
    fn merge_sums_weights_and_canonicalizes() {
        let a = [
            (TraceKey::edge(cs(1, 0), mid(2)), 3.0),
            (TraceKey::root(mid(1)), 1.0),
        ];
        let b = [
            (TraceKey::edge(cs(1, 0), mid(2)), 2.0),
            (TraceKey::new(mid(2), vec![cs(1, 0), cs(4, 2)]), 5.0),
        ];
        let merged = merge_profiles([&a[..], &b[..]]);
        assert_eq!(
            merged,
            [
                (TraceKey::root(mid(1)), 1.0),
                (TraceKey::edge(cs(1, 0), mid(2)), 5.0),
                (TraceKey::new(mid(2), vec![cs(1, 0), cs(4, 2)]), 5.0),
            ]
        );
        let total = |p: &[(TraceKey, f64)]| p.iter().map(|(_, w)| w).sum::<f64>();
        assert_eq!(total(&merged), total(&a) + total(&b));
    }

    #[test]
    fn merge_combines_duplicates_within_one_input() {
        let k = TraceKey::edge(cs(0, 1), mid(5));
        let one = [(k.clone(), 2.0), (TraceKey::edge(cs(0, 0), mid(5)), 1.0), (k.clone(), 7.5)];
        let merged = merge_profiles([&one[..]]);
        assert_eq!(merged, [(TraceKey::edge(cs(0, 0), mid(5)), 1.0), (k, 9.5)]);
    }

    #[test]
    fn merge_keeps_depth_zero_keys() {
        // A depth-0 key is a valid root edge, not corruption: dropping it
        // would lose all root-edge weight on every warm start.
        let root = [(TraceKey::root(mid(1)), 1.5)];
        assert_eq!(merge_profiles([&root[..], &root[..]]), [(TraceKey::root(mid(1)), 3.0)]);
    }

    #[test]
    fn empty_merge_is_empty() {
        assert!(merge_profiles([]).is_empty());
        assert!(merge_profiles([&[][..], &[][..]]).is_empty());
    }
}
