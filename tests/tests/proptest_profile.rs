//! Property-based tests on the profiling data structures: trace keys,
//! the dynamic call graph, rule-set queries and the fleet's profile merge.

use aoci_ir::{CallSiteRef, MethodId, SiteIdx};
use aoci_profile::{merge_profiles, Dcg, DcgConfig, TraceKey};
use aoci_core::{InlineOracle, MatchMode, RuleSet};
use proptest::prelude::*;

fn cs_strategy() -> impl Strategy<Value = CallSiteRef> {
    (0usize..8, 0u16..4)
        .prop_map(|(m, s)| CallSiteRef::new(MethodId::from_index(m), SiteIdx(s)))
}

/// Call sites of three methods with two sites each.
fn small_cs_strategy() -> impl Strategy<Value = CallSiteRef> {
    (0usize..3, 0u16..2).prop_map(|(m, s)| CallSiteRef::new(MethodId::from_index(m), SiteIdx(s)))
}

fn trace_strategy() -> impl Strategy<Value = TraceKey> {
    (0usize..8, prop::collection::vec(cs_strategy(), 1..5))
        .prop_map(|(callee, ctx)| TraceKey::new(MethodId::from_index(callee), ctx))
}

proptest! {
    /// Every prefix of a trace partial-matches it (and vice versa), and the
    /// trace extends each of its prefixes.
    #[test]
    fn prefixes_always_match(trace in trace_strategy(), k in 1usize..5) {
        let k = k.min(trace.depth());
        let prefix = trace.prefix(k);
        prop_assert!(trace.partial_matches(&prefix));
        prop_assert!(prefix.partial_matches(&trace));
        prop_assert!(trace.extends(&prefix));
        prop_assert_eq!(prefix.depth(), k);
        prop_assert_eq!(prefix.immediate_caller(), trace.immediate_caller());
    }

    /// Partial matching is symmetric and reflexive.
    #[test]
    fn partial_match_symmetry(a in trace_strategy(), b in trace_strategy()) {
        prop_assert!(a.partial_matches(&a));
        prop_assert_eq!(a.partial_matches(&b), b.partial_matches(&a));
    }

    /// The DCG's incremental total always equals the sum of its entries,
    /// through arbitrary record/decay interleavings.
    #[test]
    fn dcg_total_weight_invariant(
        ops in prop::collection::vec(
            prop_oneof![
                (trace_strategy(), 0.1f64..10.0).prop_map(|(t, w)| (Some((t, w)), 0.0)),
                (0.5f64..1.0).prop_map(|f| (None, f)),
            ],
            1..40,
        )
    ) {
        let mut dcg = Dcg::new(DcgConfig::default());
        for (record, decay) in ops {
            match record {
                Some((t, w)) => dcg.record(t, w),
                None => dcg.decay(decay),
            }
            let sum: f64 = dcg.iter().map(|(_, w)| w).sum();
            prop_assert!((dcg.total_weight() - sum).abs() < 1e-6,
                "total {} != sum {sum}", dcg.total_weight());
        }
    }

    /// Every hot trace really holds at least the threshold fraction, and
    /// hot output is sorted by descending weight.
    #[test]
    fn hot_respects_threshold(
        entries in prop::collection::vec((trace_strategy(), 0.1f64..10.0), 1..30),
        threshold in 0.01f64..0.5,
    ) {
        let mut dcg = Dcg::new(DcgConfig::default());
        for (t, w) in entries {
            dcg.record(t, w);
        }
        let hot = dcg.hot(threshold);
        for h in &hot {
            prop_assert!(h.fraction >= threshold - 1e-12);
            prop_assert!((h.weight / dcg.total_weight() - h.fraction).abs() < 1e-9);
        }
        for pair in hot.windows(2) {
            prop_assert!(pair[0].weight >= pair[1].weight);
        }
    }

    /// Rule-set candidate targets always come from applicable rules, and a
    /// lone rule queried with its own full context yields its callee.
    #[test]
    fn candidates_are_sound(
        rules in prop::collection::vec((trace_strategy(), 0.5f64..5.0), 1..20),
        probe in trace_strategy(),
    ) {
        let total: f64 = rules.iter().map(|(_, w)| w).sum();
        let set = RuleSet::from_rules(rules.clone(), total);
        let candidates = set.candidates(probe.context());
        let applicable_callees: Vec<MethodId> = set
            .applicable(probe.context())
            .map(|r| r.trace.callee())
            .collect();
        for (c, w) in &candidates {
            prop_assert!(applicable_callees.contains(c));
            prop_assert!(*w > 0.0);
        }

        // A singleton rule set answers its own context.
        let (lone, w) = rules[0].clone();
        let lone_set = RuleSet::from_rules([(lone.clone(), w)], w);
        let own = lone_set.candidates(lone.context());
        prop_assert_eq!(own, vec![(lone.callee(), w)]);
    }

    /// The oracle's one-callee answer is the callee's entry in its full
    /// candidate list, to the bit, for every callee of the id space, in both
    /// match modes. Three methods with two sites each make sites, callees and
    /// context prefixes collide, so queries meet several context groups,
    /// duplicate contexts and equal weights; each rule is also asked about
    /// at every prefix of its context (rules deeper than the query), one
    /// level beyond it (shallower), and with its last level changed.
    #[test]
    fn weight_of_is_the_weight_candidates_gives(
        rules in prop::collection::vec(
            (
                0usize..4,
                prop::collection::vec(small_cs_strategy(), 1..4),
                prop_oneof![Just(1.0f64), Just(2.5), 0.1f64..5.0],
            ),
            1..16,
        ),
        extra in small_cs_strategy(),
        random in prop::collection::vec(prop::collection::vec(small_cs_strategy(), 0..5), 4..5),
    ) {
        let traces: Vec<(TraceKey, f64)> = rules
            .iter()
            .map(|(callee, ctx, w)| (TraceKey::new(MethodId::from_index(*callee), ctx.clone()), *w))
            .collect();
        let total = traces.iter().map(|(_, w)| w).sum();
        let set = std::sync::Arc::new(RuleSet::from_rules(traces, total));
        let mut queries = random;
        for (_, ctx, _) in &rules {
            queries.extend((1..=ctx.len()).map(|k| ctx[..k].to_vec()));
            queries.push([&ctx[..], &[extra]].concat());
            let mut changed = ctx.clone();
            *changed.last_mut().expect("contexts are non-empty") = extra;
            queries.push(changed);
        }
        queries.push(Vec::new());
        for mode in [MatchMode::Partial, MatchMode::Exact] {
            let oracle = InlineOracle::with_mode(set.clone(), mode);
            for ctx in &queries {
                let candidates = oracle.candidates(ctx);
                for callee in (0..4).map(MethodId::from_index) {
                    let expected =
                        candidates.iter().find(|c| c.target == callee).map(|c| c.weight.to_bits());
                    prop_assert_eq!(
                        oracle.weight_of(ctx, callee).map(f64::to_bits),
                        expected,
                        "{:?} {:?} {:?}", mode, ctx, callee
                    );
                }
            }
        }
    }

    /// Merge-on-collect (the ablation mode) conserves total weight.
    #[test]
    fn merge_mode_conserves_weight(
        entries in prop::collection::vec((trace_strategy(), 0.1f64..10.0), 1..30),
    ) {
        let mut plain = Dcg::new(DcgConfig::default());
        let mut merged = Dcg::new(DcgConfig { merge_on_collect: true });
        for (t, w) in entries {
            plain.record(t.clone(), w);
            merged.record(t, w);
        }
        prop_assert!((plain.total_weight() - merged.total_weight()).abs() < 1e-9);
        prop_assert!(merged.len() <= plain.len());
    }
}

// ---------------------------------------------------------------------------
// merge_profiles: the fleet-merge laws.
// ---------------------------------------------------------------------------

/// Trace keys including depth-0 (empty-context root edges), which a merge
/// must keep.
fn merge_key_strategy() -> impl Strategy<Value = TraceKey> {
    (0usize..8, prop::collection::vec(cs_strategy(), 0..4))
        .prop_map(|(callee, ctx)| TraceKey::new(MethodId::from_index(callee), ctx))
}

/// Profiles with integer-valued weights, so merge arithmetic is exact and
/// the laws below can assert bitwise equality.
fn profile_strategy() -> impl Strategy<Value = Vec<(TraceKey, f64)>> {
    prop::collection::vec((merge_key_strategy(), 1u32..1_000), 0..16).prop_map(|entries| {
        entries.into_iter().map(|(k, w)| (k, f64::from(w))).collect()
    })
}

fn total_weight(p: &[(TraceKey, f64)]) -> f64 {
    p.iter().map(|(_, w)| w).sum()
}

proptest! {
    /// Fleet merge is commutative: replica arrival order cannot change the
    /// aggregated profile.
    #[test]
    fn merge_is_commutative(a in profile_strategy(), b in profile_strategy()) {
        prop_assert_eq!(merge_profiles([&a[..], &b[..]]), merge_profiles([&b[..], &a[..]]));
    }

    /// Fleet merge is associative: phase-by-phase accumulation equals one
    /// big merge, however the driver chunks the inputs.
    #[test]
    fn merge_is_associative(
        a in profile_strategy(),
        b in profile_strategy(),
        c in profile_strategy(),
    ) {
        let left = merge_profiles([&merge_profiles([&a[..], &b[..]])[..], &c[..]]);
        let right = merge_profiles([&a[..], &merge_profiles([&b[..], &c[..]])[..]]);
        let flat = merge_profiles([&a[..], &b[..], &c[..]]);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &flat);
    }

    /// Fleet merge conserves total weight exactly (integer weights) and
    /// emits a canonical form: sorted keys, no duplicates.
    #[test]
    fn merge_conserves_weight_and_canonicalizes(
        profiles in prop::collection::vec(profile_strategy(), 0..5),
    ) {
        let merged = merge_profiles(profiles.iter().map(Vec::as_slice));
        let expected: f64 = profiles.iter().map(|p| total_weight(p)).sum();
        prop_assert_eq!(total_weight(&merged), expected);
        for pair in merged.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0, "canonical output is sorted and duplicate-free");
        }
    }
}
