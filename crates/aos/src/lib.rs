//! # aoci-aos — the adaptive optimization system
//!
//! The top-level driver reproducing the Jikes RVM adaptive optimization
//! system architecture of *Adaptive Online Context-Sensitive Inlining*
//! (CGO 2003), Figure 3: listeners feed organizers, organizers feed the
//! controller, the controller plans compilations, and the compilation
//! thread installs optimized code — all **online**, interleaved with
//! program execution on a shared simulated clock.
//!
//! [`AosSystem`] owns the VM and runs the whole feedback loop:
//!
//! 1. every timer sample drives the **method listener** (hot-method
//!    detection) and the **trace listener** (context-sensitive call traces,
//!    shaped per the configured [`PolicyKind`]);
//! 2. the **DCG / AI organizers** periodically fold trace buffers into the
//!    dynamic call graph and regenerate inlining rules from traces above
//!    the hot threshold (1.5% of total profile weight);
//! 3. the **decay organizer** ages the DCG so the system adapts to phase
//!    shifts;
//! 4. the **AI missing-edge organizer** requests recompilation of optimized
//!    methods for which new hot, uninlined, unrefused rules have appeared;
//! 5. the **controller** turns hot-method counts into compilation plans,
//!    each carrying an [`InlineOracle`] snapshot of the current rules;
//! 6. the **compilation thread** runs the `aoci-opt` inliner, charges
//!    compile cycles, installs the result, and records refusals in the
//!    [`AosDatabase`].
//!
//! Every step charges its cycles to a [`Component`], producing the
//! Figure 6 overhead breakdown in the final [`AosReport`].
//!
//! A **recovery layer** hardens the loop against a hostile environment
//! (see [`FaultConfig`] for the adversary and [`RecoveryEvents`] for the
//! ledger): guard-thrashing optimized code is invalidated back to baseline
//! and recompiled at once, failed compilations retry under capped
//! exponential backoff (and are quarantined after repeated failures), and
//! malformed profile traces are rejected at the store boundary.
//!
//! A **flight recorder** ([`AosConfig::enable_trace`], `aoci-trace`) captures
//! every layer's activity — sampler ticks, trace walks, promotions,
//! per-candidate inlining decisions with full provenance, installs,
//! invalidations, OSR transitions, injected faults — as typed events
//! timestamped in simulated cycles, so same-seed reruns record
//! bit-identical streams. Recording charges no cycles: a traced run's
//! metrics are exactly an untraced run's.
//!
//! ```
//! use aoci_aos::{AosConfig, AosSystem};
//! use aoci_core::PolicyKind;
//! use aoci_ir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let main = {
//!     let mut m = b.static_method("main", 0);
//!     let r = m.fresh_reg();
//!     m.const_int(r, 1);
//!     m.ret(Some(r));
//!     m.finish()
//! };
//! let program = b.finish(main)?;
//! let config = AosConfig::new(PolicyKind::Fixed { max: 3 });
//! let report = AosSystem::new(&program, config).run()?;
//! assert_eq!(report.result.and_then(|v| v.as_int()), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`PolicyKind`]: aoci_core::PolicyKind
//! [`InlineOracle`]: aoci_core::InlineOracle
//! [`Component`]: aoci_vm::Component

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod database;
mod fault;
mod report;
mod system;

pub use config::{AosConfig, ServerSnapshot, SERVER_HIT_COST};
pub use database::{AosDatabase, CompilationRecord};
pub use fault::FaultConfig;
pub use aoci_telemetry::MetricsLog;
pub use aoci_trace::{TraceConfig, TraceEvent, TraceLog};
pub use report::{AosReport, AsyncCompileEvents, OsrEvents, RecoveryEvents, ServerEvents};
pub use system::{AosSystem, FullRunResult};
