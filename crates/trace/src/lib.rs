//! # aoci-trace — the flight recorder
//!
//! A fixed-capacity ring buffer of typed, deterministically-timestamped
//! events emitted from every layer of the adaptive optimization system:
//! sampler ticks and trace walks (profile), hot-method promotions and
//! recompilation plans (controller), per-candidate inlining decisions with
//! full provenance (optimizer), compile/install/invalidate/quarantine,
//! guard misses, OSR transitions, and injected faults.
//!
//! Three properties make the recorder usable inside the reproduction
//! sweeps:
//!
//! * **Deterministic timestamps.** Events carry the simulated-cycle clock,
//!   never wall-clock time, so two same-seed runs emit bit-identical event
//!   streams (asserted by the differential oracle).
//! * **Zero overhead when off.** Emit sites are a single
//!   `Option<TraceSink>` test, and recording charges no simulated cycles —
//!   a traced run produces exactly the metrics of an untraced one.
//! * **Bounded memory.** The ring keeps the last
//!   [`TraceConfig::capacity`] events, dropping the oldest; drop counts
//!   are reported so truncation is never silent.
//!
//! Three sinks consume the recorded [`TraceLog`]: a Chrome `trace_event`
//! JSON exporter ([`TraceLog::to_chrome_value`], loadable in
//! `chrome://tracing` or Perfetto), a human-readable `explain` filter
//! ([`TraceLog::explain`] — "why was method M (not) inlined at site C?"),
//! and the last-N-events dump ([`TraceSink::copy_tail`], rendered with
//! [`Recorded::dump_line`]) the AOS attaches to its recovery ledger
//! whenever recovery or a VM fault fires.
//!
//! The fuzzing campaign reads a fourth view: the **decision-space coverage
//! fingerprint** ([`TraceLog::coverage`] over
//! [`TraceEvent::coverage_features`]) — the set of inlining rules fired,
//! refusal reasons, OSR and recovery paths a run exercised.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod event;
mod recorder;
mod sinks;

pub use event::{
    CompileStats, DecisionProvenance, FaultKind, FinishCycles, InlineFacts, OsrDenyReason,
    PlanReason, RefusalReason, StaleReason, TraceEvent,
};
pub use recorder::{Recorded, TraceConfig, TraceLog, TraceSink};
