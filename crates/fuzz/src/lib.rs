//! # aoci-fuzz — coverage-guided differential fuzzing campaign
//!
//! The adaptive system's central robustness claim is that every opt-in
//! feature — policy choice, OSR, asynchronous compilation, chaos faults —
//! is *semantically invisible*: same program result as a baseline-only
//! interpreter, and bit-identical metrics on a same-seed rerun. This
//! crate's differential oracle earns that claim on the 8 curated workloads
//! (`tests/tests/differential_oracle.rs`) and **at scale** over randomly
//! generated programs (DESIGN.md §12).
//!
//! The pipeline, module by module:
//!
//! * [`sampler`] — draws a [`FuzzSpec`](aoci_workloads::FuzzSpec) as a
//!   pure function of `(campaign_seed, case_index)`, covering shapes the
//!   curated suite never reaches (deep inheritance chains, megamorphic
//!   sites, mutual recursion, unwind-style control flow, degenerate
//!   method sizes);
//! * [`oracle`] — the workspace's one differential oracle, which the suite
//!   tests call too: a baseline-only interpreter run is ground truth, then
//!   ±OSR × ±async × ±chaos under one policy, each cell once traced and
//!   once untraced. Every cell must reproduce the reference result, match
//!   its twin's whole report (same-seed bit-identity *and* flight-recorder
//!   zero overhead), and report only counters that are a fold of its
//!   event stream. Any violation — including a panic anywhere in
//!   aos/vm/opt — becomes a [`Finding`];
//! * [`oracle::CaseOutcome::fingerprint`] — the decision-space coverage
//!   set read from the flight recorder
//!   ([`TraceLog::coverage`](aoci_trace::TraceLog)); the campaign keeps a
//!   case in its corpus only if its fingerprint adds a feature no earlier
//!   case reached;
//! * [`minimize()`] — shrinks a failing spec field-by-field to the smallest
//!   spec still exhibiting the finding (strictly monotone measure, so
//!   shrinking provably terminates);
//! * [`campaign`] — fans the case list over
//!   [`JobPool`](aoci_core::JobPool) (each case is a pure function of its
//!   index, results merged in index order, so the corpus is byte-identical
//!   at any `AOCI_JOBS`);
//! * [`persist`] — `FuzzSpec` ⇄ JSON, the `results/fuzz/corpus.json`
//!   fingerprint artifact, and replayable `regress-*.json` regression
//!   files consumed by the `fuzzck` bin.
//!
//! Two binaries: `fuzz` runs a campaign bounded by `AOCI_FUZZ_ITERS` /
//! `AOCI_FUZZ_SEED`; `fuzzck` replays every committed regression file.

#![warn(missing_docs)]

pub mod campaign;
pub mod minimize;
pub mod oracle;
pub mod persist;
pub mod sampler;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, MinimizedFinding};
pub use minimize::{measure, minimize, shrink_candidates};
pub use oracle::{run_case, run_case_caught, run_case_caught_with, CaseOutcome, Finding, RunOpts};
pub use persist::{corpus_to_value, spec_from_value, spec_to_value, CorpusEntry, Regression};
pub use sampler::{case_name, sample_spec};
