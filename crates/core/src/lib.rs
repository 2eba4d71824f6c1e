//! # aoci-core — adaptive context-sensitive inlining policies and oracle
//!
//! The primary contribution of *Adaptive Online Context-Sensitive Inlining*
//! (CGO 2003), as a library:
//!
//! * [`PolicyKind`] / [`PolicyEngine`] — the context-sensitivity policies of
//!   paper Section 4: context-insensitive baseline, fixed-level sensitivity
//!   (Section 4.2), the three early-termination heuristics (*Parameterless
//!   Methods*, *Class Methods*, *Large Methods*), the two hybrids, and the
//!   iterative *Adaptively Resolving Imprecisions* policy of Section 4.3
//!   (described but not implemented in the paper; implemented here as an
//!   extension). A policy's one parameter is its maximum depth; the
//!   adaptive policy's skew threshold (80 %) and cold-site floor (0.75 % of
//!   the DCG weight) are constants.
//! * [`RuleSet`] / [`InlineRule`] — inlining rules derived from hot traces,
//!   with the Equation 3 **partial context match**: a rule applies to a
//!   compilation context when the two agree on every context level both
//!   have. Rules are *not* merged at collection time; combination happens
//!   at query time via target-set intersection (Section 3.3).
//! * [`InlineOracle`] — the compiler-facing policy object: given a call site
//!   and the compilation context produced by prior inlining decisions, it
//!   answers which callees are profile-directed inlining candidates.
//!
//! ```
//! use aoci_core::{InlineOracle, PolicyEngine, PolicyKind, RuleSet};
//! use aoci_profile::TraceKey;
//! use aoci_ir::{CallSiteRef, MethodId, SiteIdx};
//!
//! let caller = CallSiteRef::new(MethodId::from_index(0), SiteIdx(0));
//! let callee = MethodId::from_index(1);
//! let rules = RuleSet::from_rules(vec![(TraceKey::edge(caller, callee), 10.0)], 10.0);
//! let oracle = InlineOracle::new(rules.into());
//! let candidates = oracle.candidates(&[caller]);
//! assert_eq!(candidates.len(), 1);
//! assert_eq!(candidates[0].target, callee);
//!
//! let policy = PolicyEngine::new(PolicyKind::ParameterlessLarge { max: 4 });
//! assert_eq!(policy.max_context_for(None), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod oracle;
mod policy;
pub mod pool;
mod rules;

pub use adaptive::{AdaptiveState, SiteStatus};
pub use oracle::{Candidate, InlineOracle, MatchMode};
pub use policy::{PolicyEngine, PolicyKind};
pub use pool::{default_workers, JobPool, JobResult, SweepStats};
pub use rules::{InlineRule, RuleSet};
