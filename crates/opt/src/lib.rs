//! # aoci-opt — the optimizing, inlining compiler
//!
//! The optimizing-compiler half of *Adaptive Online Context-Sensitive
//! Inlining* (CGO 2003): consumes a method, an [`InlineOracle`] snapshot and
//! an [`OptConfig`], and produces an optimized [`MethodVersion`] in which
//! inlining has genuinely been performed on the IR:
//!
//! * statically-bound calls (static calls, and virtual calls with a single
//!   implementation per class-hierarchy analysis) are inlined **unguarded**;
//! * polymorphic virtual calls are inlined **guarded**, one method-test
//!   guard per profile-predicted target, with the original virtual dispatch
//!   retained as the fallback path;
//! * inlining recurses into inlined bodies, threading the growing
//!   *compilation context* through every oracle query — the mechanism that
//!   makes context-sensitive rules pay off (paper Section 3.3);
//! * size-class heuristics follow Section 3.1: tiny methods always inline
//!   when statically bindable, small methods inline within code-expansion /
//!   depth budgets (or beyond them when profile-hot), medium methods only
//!   under profile direction, large methods never;
//! * refused-but-hot edges are reported so the AOS database can stop the
//!   missing-edge organizer from re-requesting them.
//!
//! A post-inline [`simplify`] pass (constant folding, copy propagation, dead
//! code elimination, jump threading) models the optimization benefit that
//! inlining unlocks — notably shrinking the argument-transfer sequences and
//! constant-parameter bodies, the effect the paper's footnote 1 describes.
//!
//! ```
//! use aoci_ir::ProgramBuilder;
//! use aoci_core::InlineOracle;
//! use aoci_opt::{compile, OptConfig};
//!
//! let mut b = ProgramBuilder::new();
//! let tiny = {
//!     let mut m = b.static_method("tiny", 0);
//!     let r = m.fresh_reg();
//!     m.const_int(r, 7);
//!     m.ret(Some(r));
//!     m.finish()
//! };
//! let main = {
//!     let mut m = b.static_method("main", 0);
//!     let r = m.fresh_reg();
//!     m.call_static(Some(r), tiny, &[]);
//!     m.ret(Some(r));
//!     m.finish()
//! };
//! let program = b.finish(main)?;
//! let compilation = compile(&program, main, &InlineOracle::empty(), &OptConfig::default());
//! // The tiny callee was inlined: no calls remain.
//! assert!(compilation.version.body.iter().all(|i| !i.is_call()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decision;
mod estimate;
mod inliner;
mod simplify;

pub use config::OptConfig;
pub use decision::{Compilation, InlineDecision, Refusal, RefusalReason};
pub use estimate::estimate_benefit;
pub use inliner::compile;
pub use simplify::{simplify, simplify_with_anchors};

#[cfg(doc)]
use aoci_core::InlineOracle;
#[cfg(doc)]
use aoci_vm::MethodVersion;
