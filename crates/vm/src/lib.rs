//! # aoci-vm — execution engine and simulated machine
//!
//! Executes [`aoci-ir`](../aoci_ir/index.html) programs under a deterministic
//! simulated clock, playing the role of the hardware + Jikes RVM execution
//! substrate in *Adaptive Online Context-Sensitive Inlining* (CGO 2003).
//!
//! Key pieces:
//!
//! * [`Vm`] — the interpreter. It executes *compiled method versions* (either
//!   baseline code — the method body as written — or optimized code produced
//!   by the `aoci-opt` inliner), charging simulated cycles per instruction
//!   according to a [`CostModel`]. Optimized code runs at a lower per-
//!   instruction cost, guards cost cycles and may fail into virtual-dispatch
//!   fallbacks, and eliminated calls save real call overhead — so speedup,
//!   slowdown and guard misprediction are emergent, not assumed.
//! * [`Clock`] — simulated time with per-[`Component`] accounting, the basis
//!   of the paper's Figure 6 (fraction of execution spent in each part of
//!   the adaptive optimization system).
//! * [`MethodVersion`] / [`InlineMap`] — compiled code artifacts. Inline maps
//!   record, for every instruction of optimized code, which source method it
//!   was inlined from, enabling the *source-level stack walk* the paper's
//!   trace listener depends on (Section 3.3, "Optimized Stack Frames").
//! * [`StackSnapshot`] — what a timer-based sample observes: the source-level
//!   call stack, the machine-level root method, and whether the sample
//!   landed in a method prologue (the condition under which Jikes RVM's edge
//!   listener records a call edge).
//!
//! ## Quick example
//!
//! ```
//! use aoci_ir::ProgramBuilder;
//! use aoci_vm::{CostModel, Vm};
//!
//! let mut b = ProgramBuilder::new();
//! let main = {
//!     let mut m = b.static_method("main", 0);
//!     let r = m.fresh_reg();
//!     m.const_int(r, 42);
//!     m.ret(Some(r));
//!     m.finish()
//! };
//! let program = b.finish(main)?;
//! let mut vm = Vm::new(&program, CostModel::default());
//! let result = vm.run_to_completion()?;
//! assert_eq!(result.and_then(|v| v.as_int()), Some(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod code;
mod cost;
mod error;
mod heap;
mod interp;
mod osr;
mod registry;
mod stack;
mod value;

pub use clock::{Clock, Component, COMPONENTS};
pub use code::{InlineMap, InlineMapBuilder, InlineNode, MethodVersion, OptLevel};
pub use cost::CostModel;
pub use error::VmError;
pub use heap::{Heap, ObjRef};
pub use interp::{ExecCounters, MethodGuardStats, OsrRequest, RunOutcome, Vm, VmConfig};
pub use osr::{OsrError, OsrMap, OsrPoint};
pub use registry::{CodeRegistry, VersionId};
pub use stack::{SourceFrame, StackSnapshot};
pub use value::Value;
