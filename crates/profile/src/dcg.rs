//! The dynamic call graph: weighted trace profiles with decay and
//! hot-trace extraction.

use crate::key::TraceKey;
use aoci_ir::{CallSiteRef, IdHashMap, MethodId};

/// Entries whose weight falls below this value after decay are removed.
const PRUNE_EPSILON: f64 = 0.01;

/// Configuration of the dynamic call graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcgConfig {
    /// When `true`, recording a trace whose context extends an
    /// already-present shorter trace folds the weight into the longest such
    /// existing prefix instead of creating a separate entry.
    ///
    /// The paper's hybrid scheme keeps this **off** — partial matches are
    /// *not* merged at collection time; the inline oracle combines them at
    /// query time instead (Section 3.3). The `true` setting exists as the
    /// ablation for that design decision.
    pub merge_on_collect: bool,
}

/// A hot trace extracted from the DCG.
#[derive(Clone, PartialEq, Debug)]
pub struct HotTrace {
    /// The trace.
    pub key: TraceKey,
    /// Its absolute weight.
    pub weight: f64,
    /// Its fraction of the DCG's total weight at extraction time.
    pub fraction: f64,
}

/// The dynamic call graph: a weighted multiset of [`TraceKey`]s.
///
/// Maintained online by the DCG organizer from edge/trace listener buffers.
/// Total weight is tracked incrementally so hot extraction
/// ("edges/traces contributing more than a threshold percentage of the
/// total weight of the profile data", Section 4 — 1.5% in the paper's
/// experiments) is cheap.
#[derive(Clone, Debug)]
pub struct Dcg {
    entries: IdHashMap<TraceKey, f64>,
    total_weight: f64,
    config: DcgConfig,
}

impl Default for Dcg {
    fn default() -> Self {
        Self::new(DcgConfig::default())
    }
}

impl Dcg {
    /// Creates an empty DCG.
    pub fn new(config: DcgConfig) -> Self {
        Dcg { entries: IdHashMap::default(), total_weight: 0.0, config }
    }

    /// Records one observation of `key` with the given weight.
    pub fn record(&mut self, key: TraceKey, weight: f64) {
        self.total_weight += weight;
        if self.config.merge_on_collect && key.depth() > 1 {
            // Fold into the longest existing strict prefix, if any.
            for k in (1..key.depth()).rev() {
                let prefix = key.prefix(k);
                if let Some(w) = self.entries.get_mut(&prefix) {
                    *w += weight;
                    return;
                }
            }
        }
        *self.entries.entry(key).or_insert(0.0) += weight;
    }

    /// Total weight across all entries.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of distinct trace entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no samples have been recorded (or all decayed away).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight currently associated with exactly `key`.
    pub fn weight(&self, key: &TraceKey) -> f64 {
        self.entries.get(key).copied().unwrap_or(0.0)
    }

    /// Multiplies every weight by `factor` (0 < factor ≤ 1), pruning entries
    /// that drop below 0.01. This is the decay organizer's operation: it
    /// biases hot detection toward recently sampled traces so the system
    /// adapts to phase shifts.
    pub fn decay(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor must be in (0, 1]");
        let mut new_total = 0.0;
        self.entries.retain(|_, w| {
            *w *= factor;
            if *w < PRUNE_EPSILON {
                false
            } else {
                new_total += *w;
                true
            }
        });
        self.total_weight = new_total;
    }

    /// Returns every trace whose weight is at least `threshold_fraction` of
    /// the total weight, sorted by descending weight (ties broken by key for
    /// determinism).
    pub fn hot(&self, threshold_fraction: f64) -> Vec<HotTrace> {
        if self.total_weight <= 0.0 {
            return Vec::new();
        }
        let is_hot = |w: f64| w / self.total_weight >= threshold_fraction;
        // Counted first: the organizer asks on every tick, and the answer is
        // one allocation of the right size.
        let mut v = Vec::with_capacity(self.entries.values().filter(|&&w| is_hot(w)).count());
        v.extend(self.entries.iter().filter(|(_, &w)| is_hot(w)).map(|(k, &w)| HotTrace {
            key: k.clone(),
            weight: w,
            fraction: w / self.total_weight,
        }));
        // `total_cmp`, not `partial_cmp(..).expect(..)`: weights are
        // sanitized at the store boundary, but repeated decay of a denormal
        // can reach states no one anticipated — a poisoned weight must sort
        // deterministically, never panic mid-run.
        v.sort_by(|a, b| b.weight.total_cmp(&a.weight).then_with(|| a.key.cmp(&b.key)));
        v
    }

    /// Aggregated weight of every entry whose *immediate caller* is `site`,
    /// grouped by callee — the receiver/callee distribution of a call site,
    /// used by the iterative imprecision-resolving policy to find
    /// polymorphic sites without a skewed distribution. Callers may assume
    /// no iteration order of the result: a callee's weight sums in the
    /// store's own (unspecified) entry order.
    pub fn site_distribution(&self, site: CallSiteRef) -> IdHashMap<MethodId, f64> {
        let mut out = IdHashMap::default();
        for (k, &w) in &self.entries {
            if k.depth() > 0 && k.immediate_caller() == site {
                *out.entry(k.callee()).or_insert(0.0) += w;
            }
        }
        out
    }

    /// Iterates over all `(trace, weight)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&TraceKey, f64)> {
        self.entries.iter().map(|(k, &w)| (k, w))
    }
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
    fn record_and_totals() {
        let mut d = Dcg::default();
        d.record(TraceKey::edge(cs(0, 0), mid(1)), 1.0);
        d.record(TraceKey::edge(cs(0, 0), mid(1)), 1.0);
        d.record(TraceKey::edge(cs(0, 1), mid(2)), 1.0);
        assert_eq!(d.len(), 2);
        assert!((d.total_weight() - 3.0).abs() < 1e-12);
        assert!((d.weight(&TraceKey::edge(cs(0, 0), mid(1))) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_merge_by_default() {
        let mut d = Dcg::default();
        let short = TraceKey::edge(cs(0, 0), mid(1));
        let long = TraceKey::new(mid(1), vec![cs(0, 0), cs(5, 2)]);
        d.record(short.clone(), 1.0);
        d.record(long.clone(), 1.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.weight(&short), 1.0);
        assert_eq!(d.weight(&long), 1.0);
    }

    #[test]
    fn merge_on_collect_folds_into_prefix() {
        let mut d = Dcg::new(DcgConfig { merge_on_collect: true });
        let short = TraceKey::edge(cs(0, 0), mid(1));
        let long = TraceKey::new(mid(1), vec![cs(0, 0), cs(5, 2)]);
        d.record(short.clone(), 1.0);
        d.record(long.clone(), 1.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d.weight(&short), 2.0);
    }

    #[test]
    fn decay_scales_and_prunes() {
        let mut d = Dcg::default();
        d.record(TraceKey::edge(cs(0, 0), mid(1)), 0.04);
        d.record(TraceKey::edge(cs(0, 1), mid(2)), 0.01);
        d.decay(0.5);
        // 0.04 → 0.02 survives; 0.01 → 0.005 falls below 0.01 and is pruned.
        assert_eq!(d.len(), 1);
        assert!((d.total_weight() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn denormal_decay_and_nan_poison_never_panic_hot() {
        // A decay would prune a zero or denormal weight at once, so both
        // enter the store through `record`: the smallest positive denormal,
        // and exactly 0.0 — the poisoned-weight states the sort must
        // tolerate — beside a normal weight that decays.
        let mut d = Dcg::default();
        d.record(TraceKey::edge(cs(0, 0), mid(1)), 1.0);
        for _ in 0..4 {
            d.decay(0.5);
            d.record(TraceKey::edge(cs(0, 1), mid(2)), 5e-324);
            d.record(TraceKey::edge(cs(0, 3), mid(4)), 0.0);
            assert_eq!(d.hot(0.0), d.hot(0.0), "hot() must stay deterministic");
        }
        // `record` is public and unvalidated (the AOS sanitizes at its own
        // boundary), so a NaN can be injected directly: extraction must
        // degrade deterministically, never panic in the weight sort.
        d.record(TraceKey::edge(cs(0, 2), mid(3)), f64::NAN);
        assert_eq!(d.hot(0.015), d.hot(0.015));
        assert_eq!(d.hot(0.0), d.hot(0.0));
    }

    #[test]
    fn hot_extraction_respects_threshold_and_order() {
        let mut d = Dcg::default();
        d.record(TraceKey::edge(cs(0, 0), mid(1)), 80.0);
        d.record(TraceKey::edge(cs(0, 1), mid(2)), 19.0);
        d.record(TraceKey::edge(cs(0, 2), mid(3)), 1.0);
        let hot = d.hot(0.015);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].key.callee(), mid(1));
        assert_eq!(hot[1].key.callee(), mid(2));
        assert!((hot[0].fraction - 0.8).abs() < 1e-12);
        // 1% entry is below the 1.5% threshold.
        assert!(hot.iter().all(|h| h.key.callee() != mid(3)));
        // Exactly at the threshold is hot (1.0 / 100.0 == 0.01).
        assert_eq!(d.hot(0.01).len(), 3);
        // Equal weights come out in key order, whatever the hash order.
        let mut tied = Dcg::default();
        for site in [4, 1, 5, 0, 3, 2] {
            tied.record(TraceKey::edge(cs(0, site), mid(1)), 2.0);
        }
        let sites: Vec<_> =
            tied.hot(0.1).iter().map(|h| h.key.immediate_caller().site).collect();
        assert_eq!(sites, (0..6).map(SiteIdx).collect::<Vec<_>>());
    }

    #[test]
    fn profile_dilution_pushes_traces_below_threshold() {
        // The same call edge, context-insensitively, is clearly hot; spread
        // across 4 contexts evenly, each falls below a 30% threshold.
        let mut insensitive = Dcg::default();
        let mut sensitive = Dcg::default();
        for i in 0..4 {
            insensitive.record(TraceKey::edge(cs(0, 0), mid(1)), 1.0);
            sensitive.record(
                TraceKey::new(mid(1), vec![cs(0, 0), cs(10 + i, 0)]),
                1.0,
            );
        }
        assert_eq!(insensitive.hot(0.3).len(), 1);
        assert!(sensitive.hot(0.3).is_empty());
        // But the aggregated edge view still sees the full weight.
        assert!((sensitive.site_distribution(cs(0, 0))[&mid(1)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn site_distribution_groups_by_callee() {
        let mut d = Dcg::default();
        d.record(TraceKey::new(mid(1), vec![cs(0, 0), cs(7, 0)]), 2.0);
        d.record(TraceKey::new(mid(1), vec![cs(0, 0), cs(8, 0)]), 3.0);
        d.record(TraceKey::edge(cs(0, 0), mid(2)), 5.0);
        d.record(TraceKey::edge(cs(0, 1), mid(1)), 9.0); // different site
        let dist = d.site_distribution(cs(0, 0));
        assert_eq!(dist.len(), 2);
        assert!((dist[&mid(1)] - 5.0).abs() < 1e-12);
        assert!((dist[&mid(2)] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hot_on_empty_is_empty() {
        let d = Dcg::default();
        assert!(d.hot(0.015).is_empty());
        assert!(d.is_empty());
    }
}
