//! Per-site state for the "Adaptively Resolving Imprecisions" policy
//! (paper Section 4.3, final policy).
//!
//! The policy starts with context-insensitive collection everywhere. As the
//! DCG organizer processes profile data, call sites that are polymorphic
//! *without* a skewed callee distribution are flagged: no inlining decision
//! can be made for them from edge data alone, so they (and only they) get
//! additional levels of context sensitivity. Escalation continues until the
//! per-context distributions become skewed (resolved) or the maximum level
//! is reached without resolution (inherently too polymorphic — collection
//! falls back to level 1 to stop paying for useless context).

use aoci_ir::{CallSiteRef, IdHashMap, MethodId};
use aoci_profile::Dcg;

/// A callee distribution counts as *skewed* (predictable) when its dominant
/// target holds at least this fraction of the weight.
const SKEW_THRESHOLD: f64 = 0.8;

/// Sites whose total weight is below this fraction of the DCG total are
/// ignored — too cold to matter. Half the hot-rule threshold: an unskewed
/// 50/50 site whose aggregate just reaches rule-hotness has two edges of
/// ~0.75% each — exactly the sites escalation must catch.
const MIN_SITE_FRACTION: f64 = 0.0075;

/// Lifecycle of a flagged call site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SiteStatus {
    /// Still gaining context levels.
    Escalating,
    /// Context resolved the imprecision: every observed context has a
    /// dominant target.
    Resolved,
    /// Hit the maximum level without resolving — inherently polymorphic.
    TooPolymorphic,
}

#[derive(Clone, Copy, Debug)]
struct SiteState {
    level: u8,
    status: SiteStatus,
}

/// Per-site escalation state.
#[derive(Clone, Debug)]
pub struct AdaptiveState {
    sites: IdHashMap<CallSiteRef, SiteState>,
    /// Maximum escalation level (the policy's `max`).
    max_level: u8,
}

impl AdaptiveState {
    /// Creates empty state whose sites escalate up to `max_level`.
    pub fn new(max_level: u8) -> Self {
        AdaptiveState { sites: IdHashMap::default(), max_level }
    }

    /// The collection depth for a sample whose immediate call site is
    /// `site`: 1 unless the site has been flagged for escalation.
    pub fn level_for(&self, site: Option<CallSiteRef>) -> usize {
        site.and_then(|s| self.sites.get(&s))
            .map(|st| st.level as usize)
            .unwrap_or(1)
    }

    /// Returns the status of a site, if it has been flagged.
    pub fn status(&self, site: CallSiteRef) -> Option<SiteStatus> {
        self.sites.get(&site).map(|s| s.status)
    }

    /// Number of flagged sites.
    pub fn flagged(&self) -> usize {
        self.sites.len()
    }

    /// Processes one round of DCG feedback: flags unskewed polymorphic
    /// sites, escalates flagged sites that remain unresolved, resolves those
    /// whose per-context distributions became skewed, and writes off sites
    /// that hit the maximum level unresolved.
    ///
    /// What it decides is pinned byte for byte by
    /// `parallel_determinism::golden_cells_match_the_committed_grid`
    /// (`db × adaptive/3`).
    pub fn update(&mut self, dcg: &Dcg) {
        let total = dcg.total_weight();
        if total <= 0.0 {
            return;
        }
        // Group DCG entries by immediate call site.
        let mut site_weight: IdHashMap<CallSiteRef, f64> = IdHashMap::default();
        for (key, w) in dcg.iter() {
            if key.depth() == 0 {
                continue; // root edges name no call site
            }
            *site_weight.entry(key.immediate_caller()).or_insert(0.0) += w;
        }
        for (site, weight) in site_weight {
            if weight / total < MIN_SITE_FRACTION {
                continue;
            }
            let overall = dcg.site_distribution(site);
            let polymorphic_unskewed = overall.len() >= 2 && !is_skewed(&overall);

            match self.sites.get(&site).copied() {
                None => {
                    if polymorphic_unskewed {
                        self.sites.insert(
                            site,
                            SiteState {
                                level: 2.min(self.max_level),
                                status: SiteStatus::Escalating,
                            },
                        );
                    }
                }
                Some(state) if state.status == SiteStatus::Escalating => {
                    if self.contexts_resolved(dcg, site, state.level) {
                        self.sites.insert(
                            site,
                            SiteState { level: state.level, status: SiteStatus::Resolved },
                        );
                    } else if state.level < self.max_level {
                        self.sites.insert(
                            site,
                            SiteState { level: state.level + 1, status: SiteStatus::Escalating },
                        );
                    } else {
                        // Give up: collection reverts to plain edges.
                        self.sites.insert(
                            site,
                            SiteState { level: 1, status: SiteStatus::TooPolymorphic },
                        );
                    }
                }
                Some(_) => {} // Resolved / TooPolymorphic: terminal.
            }
        }
    }

    /// A site's imprecision is resolved at `level` when every observed
    /// context of at least that depth has a skewed callee distribution.
    fn contexts_resolved(&self, dcg: &Dcg, site: CallSiteRef, level: u8) -> bool {
        // context (full) → callee → weight
        let mut by_context: IdHashMap<&[CallSiteRef], IdHashMap<MethodId, f64>> =
            IdHashMap::default();
        for (key, w) in dcg.iter() {
            if key.depth() > 0 && key.immediate_caller() == site && key.depth() >= level as usize {
                *by_context
                    .entry(key.context())
                    .or_default()
                    .entry(key.callee())
                    .or_insert(0.0) += w;
            }
        }
        if by_context.is_empty() {
            // No deep samples yet — not resolved.
            return false;
        }
        by_context.values().all(is_skewed)
    }
}

fn is_skewed(dist: &IdHashMap<MethodId, f64>) -> bool {
    let total: f64 = dist.values().sum();
    if total <= 0.0 {
        return true;
    }
    dist.values().any(|&w| w / total >= SKEW_THRESHOLD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::{MethodId, SiteIdx};
    use aoci_profile::TraceKey;

    fn cs(m: usize, s: u16) -> CallSiteRef {
        CallSiteRef::new(MethodId::from_index(m), SiteIdx(s))
    }

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    #[test]
    fn monomorphic_sites_never_flagged() {
        let mut dcg = Dcg::default();
        dcg.record(TraceKey::edge(cs(0, 0), mid(1)), 10.0);
        let mut st = AdaptiveState::new(3);
        st.update(&dcg);
        assert_eq!(st.flagged(), 0);
        assert_eq!(st.level_for(Some(cs(0, 0))), 1);
    }

    #[test]
    fn skewed_polymorphic_sites_not_flagged() {
        let mut dcg = Dcg::default();
        dcg.record(TraceKey::edge(cs(0, 0), mid(1)), 90.0);
        dcg.record(TraceKey::edge(cs(0, 0), mid(2)), 10.0);
        let mut st = AdaptiveState::new(3);
        st.update(&dcg);
        assert_eq!(st.flagged(), 0);
    }

    #[test]
    fn unskewed_sites_escalate_then_resolve() {
        // The paper's HashMap example: a 50/50 site that becomes 100/0 per
        // context once one more level is collected.
        let mut dcg = Dcg::default();
        dcg.record(TraceKey::edge(cs(0, 0), mid(1)), 10.0);
        dcg.record(TraceKey::edge(cs(0, 0), mid(2)), 10.0);
        let mut st = AdaptiveState::new(3);
        st.update(&dcg);
        assert_eq!(st.level_for(Some(cs(0, 0))), 2);
        assert_eq!(st.status(cs(0, 0)), Some(SiteStatus::Escalating));

        // Depth-2 samples arrive and are perfectly context-determined.
        dcg.record(TraceKey::new(mid(1), vec![cs(0, 0), cs(9, 0)]), 10.0);
        dcg.record(TraceKey::new(mid(2), vec![cs(0, 0), cs(9, 1)]), 10.0);
        st.update(&dcg);
        assert_eq!(st.status(cs(0, 0)), Some(SiteStatus::Resolved));
        assert_eq!(st.level_for(Some(cs(0, 0))), 2);
    }

    #[test]
    fn unresolvable_sites_become_too_polymorphic() {
        let mut dcg = Dcg::default();
        // 50/50 at every depth: context never helps.
        dcg.record(TraceKey::edge(cs(0, 0), mid(1)), 10.0);
        dcg.record(TraceKey::edge(cs(0, 0), mid(2)), 10.0);
        let mut st = AdaptiveState::new(3);
        st.update(&dcg); // flag at level 2
        for depth in 2..=3 {
            // Same unskewed distribution within a single deeper context.
            let ctx: Vec<_> = std::iter::once(cs(0, 0))
                .chain((0..depth - 1).map(|i| cs(20 + i, 0)))
                .collect();
            dcg.record(TraceKey::new(mid(1), ctx.clone()), 10.0);
            dcg.record(TraceKey::new(mid(2), ctx), 10.0);
            st.update(&dcg);
        }
        // level 2 → unresolved → level 3 (max) → unresolved → give up.
        st.update(&dcg);
        assert_eq!(st.status(cs(0, 0)), Some(SiteStatus::TooPolymorphic));
        assert_eq!(st.level_for(Some(cs(0, 0))), 1);
    }

    #[test]
    fn cold_sites_ignored() {
        let mut dcg = Dcg::default();
        dcg.record(TraceKey::edge(cs(0, 0), mid(1)), 1.0);
        dcg.record(TraceKey::edge(cs(0, 0), mid(2)), 1.0);
        dcg.record(TraceKey::edge(cs(5, 0), mid(3)), 998.0);
        let mut st = AdaptiveState::new(3);
        st.update(&dcg);
        // The 0.2%-weight polymorphic site, below the 0.75% floor, stays
        // unflagged.
        assert_eq!(st.flagged(), 0);
    }

    #[test]
    fn no_feedback_without_weight() {
        let dcg = Dcg::default();
        let mut st = AdaptiveState::new(3);
        st.update(&dcg);
        assert_eq!(st.flagged(), 0);
    }
}
