//! The campaign driver: fan the case list over the job pool, merge in
//! index order, grow the corpus coverage-first, minimize findings.
//!
//! Determinism argument, end to end: [`sample_spec`] is a pure function
//! of `(campaign_seed, index)`; [`run_case_caught`] is a pure function of
//! the spec (every `AosSystem` run owns its state and simulated clock);
//! [`JobPool::run`] returns outputs in job order regardless of worker
//! interleaving; and the corpus fold below walks that vector in index
//! order. Every campaign artifact — corpus entries, the feature set, the
//! findings list — is therefore byte-identical for any `AOCI_JOBS`.

use crate::minimize::minimize;
use crate::oracle::{run_case_caught, run_case_caught_with, CaseOutcome, RunOpts};
use crate::persist::CorpusEntry;
use crate::sampler::sample_spec;
use aoci_core::JobPool;
use aoci_workloads::FuzzSpec;
use std::collections::BTreeSet;

/// Campaign parameters (CLI binds these to `AOCI_FUZZ_SEED` /
/// `AOCI_FUZZ_ITERS`).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Campaign seed; case `i` runs `sample_spec(seed, i)`.
    pub seed: u64,
    /// Number of generated programs.
    pub iters: usize,
    /// Run every matrix cell with the telemetry registry on
    /// (`AOCI_METRICS=1`). Must not change any campaign artifact — the
    /// registry charges zero simulated cycles, so corpus, features and
    /// findings stay byte-identical either way (`tests/tests/telemetry.rs`
    /// holds this at campaign scale).
    pub metrics: bool,
}

/// One finding after minimization: the original case, the smallest spec
/// that still reproduces the finding kind, and the finding as observed on
/// that minimized spec.
#[derive(Clone, Debug)]
pub struct MinimizedFinding {
    /// Index of the campaign case that first exhibited the finding.
    pub index: usize,
    /// Smallest spec still producing a finding of the same kind.
    pub spec: FuzzSpec,
    /// Stable finding tag (see [`crate::oracle::Finding`]).
    pub kind: String,
    /// Detail as reported on the minimized spec.
    pub detail: String,
}

/// Everything a campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The campaign seed.
    pub seed: u64,
    /// Per-case outcomes, in index order.
    pub cases: Vec<CaseOutcome>,
    /// Cases whose fingerprint added new decision-space coverage.
    pub corpus: Vec<CorpusEntry>,
    /// Union of all case fingerprints.
    pub features: BTreeSet<String>,
    /// Minimized findings (empty on a clean campaign).
    pub findings: Vec<MinimizedFinding>,
}

impl CampaignOutcome {
    /// Whether every case ran clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Re-observes `spec` and returns the finding of kind `kind`, if the
/// spec still produces one — the minimization predicate.
fn finds_kind(spec: &FuzzSpec, kind: &str) -> Option<(String, String)> {
    run_case_caught(spec)
        .findings
        .into_iter()
        .find(|f| f.kind == kind)
        .map(|f| (f.kind, f.detail))
}

/// Runs a full campaign: `iters` cases over `pool`, corpus fold in index
/// order, then serial minimization of every finding (minimization re-runs
/// the matrix per shrink step, so it happens after the parallel sweep, on
/// the — normally empty — failing subset only).
pub fn run_campaign(cfg: &CampaignConfig, pool: &JobPool) -> CampaignOutcome {
    let jobs: Vec<usize> = (0..cfg.iters).collect();
    let opts = RunOpts { metrics: cfg.metrics };
    let (results, _stats) =
        pool.run(jobs, |&i| run_case_caught_with(&sample_spec(cfg.seed, i), opts));
    let cases: Vec<CaseOutcome> = results.into_iter().map(|r| r.output).collect();

    let mut features: BTreeSet<String> = BTreeSet::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut findings: Vec<MinimizedFinding> = Vec::new();

    for (index, case) in cases.iter().enumerate() {
        let new_features: Vec<String> = case
            .fingerprint
            .iter()
            .filter(|f| !features.contains(*f))
            .cloned()
            .collect();
        if !new_features.is_empty() {
            features.extend(new_features.iter().cloned());
            corpus.push(CorpusEntry { index, name: case.spec.name.clone(), new_features });
        }

        for finding in &case.findings {
            let kind = finding.kind.clone();
            let min_spec = minimize(&case.spec, |s| finds_kind(s, &kind).is_some());
            let (kind, detail) = finds_kind(&min_spec, &kind)
                .unwrap_or((kind, finding.detail.clone()));
            findings.push(MinimizedFinding { index, spec: min_spec, kind, detail });
        }
    }

    CampaignOutcome { seed: cfg.seed, cases, corpus, features, findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::corpus_to_value;

    fn tiny(seed: u64, iters: usize, workers: usize) -> CampaignOutcome {
        run_campaign(&CampaignConfig { seed, iters, metrics: false }, &JobPool::new(workers))
    }

    #[test]
    fn a_small_campaign_is_clean_and_covers_decisions() {
        let out = tiny(1, 6, 2);
        assert!(out.clean(), "findings: {:?}", out.findings);
        assert_eq!(out.cases.len(), 6);
        assert!(!out.corpus.is_empty());
        assert!(out.features.iter().any(|f| f.starts_with("inline:")), "{:?}", out.features);
    }

    #[test]
    fn corpus_is_identical_across_worker_counts() {
        let render = |out: &CampaignOutcome| {
            aoci_json::to_string_pretty(&corpus_to_value(out.seed, 6, &out.corpus, &out.features))
        };
        let serial = render(&tiny(42, 6, 1));
        let two = render(&tiny(42, 6, 2));
        let eight = render(&tiny(42, 6, 8));
        assert_eq!(serial, two);
        assert_eq!(serial, eight);
    }

    #[test]
    fn the_first_case_always_seeds_the_corpus() {
        let out = tiny(7, 3, 1);
        assert!(out.clean(), "findings: {:?}", out.findings);
        assert_eq!(out.corpus.first().map(|e| e.index), Some(0));
        let claimed: usize = out.corpus.iter().map(|e| e.new_features.len()).sum();
        assert_eq!(claimed, out.features.len(), "every feature claimed exactly once");
    }
}
