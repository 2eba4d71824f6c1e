//! # aoci-profile — online sampling profiles
//!
//! The profiling side of *Adaptive Online Context-Sensitive Inlining*
//! (CGO 2003): listeners that turn timer-sample stack snapshots into raw
//! profile data, and the **dynamic call graph** (DCG) that aggregates them.
//!
//! * [`TraceKey`] — the paper's Equation 2 record: a callee plus a
//!   variable-length chain of ⟨caller, callsite⟩ pairs (innermost caller
//!   first). Length-1 contexts are the classic context-insensitive call
//!   edges of Equation 1.
//! * [`MethodListener`], [`TraceListener`] — consume [`StackSnapshot`]s.
//!   The method listener feeds hot-method detection; the trace listener
//!   records only *prologue* samples, as in Jikes RVM. It accepts a
//!   per-sample maximum depth and an early-termination predicate, which is
//!   how the `aoci-core` policies plug in without this crate depending on
//!   them; at depth 1 it records the call edges of Equation 1.
//! * [`Dcg`] — weighted trace store with decay (phase-shift adaptation) and
//!   hot extraction against a total-weight threshold (1.5% in the paper).
//!   Collection does **not** merge partial matches (the paper's hybrid
//!   scheme leaves matching to the inline oracle); an opt-in
//!   [`DcgConfig::merge_on_collect`] mode exists as an ablation, and is the
//!   DCG's one setting: decay prunes entries below a fixed 0.01.
//! * [`TraceStatsCollector`] — reproduces the Section 4 trace-walk
//!   statistics (how soon a parameterless / class / large method appears in
//!   sampled call chains).
//!
//! [`StackSnapshot`]: aoci_vm::StackSnapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcg;
mod key;
mod listeners;
mod sanitize;
mod stats;

pub use dcg::{Dcg, DcgConfig, HotTrace};
pub use key::{merge_profiles, TraceKey};
pub use listeners::{MethodListener, TraceListener};
pub use sanitize::{validate_trace, TraceDefect};
pub use stats::{DepthHistogram, TraceStatsCollector, TraceStatsReport};
