//! # aoci-ir — object-oriented bytecode IR
//!
//! This crate defines the program representation used throughout the AOCI
//! workspace: a compact, register-based, object-oriented bytecode with
//! classes, single inheritance, virtual and static dispatch, fields, globals
//! and arrays. It plays the role that Java bytecode plays for Jikes RVM in
//! the paper *Adaptive Online Context-Sensitive Inlining* (CGO 2003): the
//! common input language of the baseline interpreter (`aoci-vm`) and the
//! optimizing, inlining compiler (`aoci-opt`).
//!
//! The IR is deliberately small but is a *real* executable representation —
//! inlining in this workspace is a genuine IR-to-IR transform whose output
//! the VM executes, so guard failures, virtual-dispatch fallbacks and
//! call-overhead elimination are observable behaviours rather than modelled
//! constants.
//!
//! ## Quick example
//!
//! ```
//! use aoci_ir::{ProgramBuilder, BinOp};
//!
//! let mut b = ProgramBuilder::new();
//! let object = b.class("Object", None);
//! let main = {
//!     let mut m = b.static_method("Main.main", 0);
//!     let r = m.fresh_reg();
//!     m.const_int(r, 21);
//!     m.bin(BinOp::Add, r, r, r);
//!     m.ret(Some(r));
//!     m.finish()
//! };
//! let program = b.finish(main).expect("valid program");
//! assert_eq!(program.method(main).name(), "Main.main");
//! assert!(program.class(object).superclass().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod class;
mod decoded;
mod disasm;
mod error;
mod ids;
mod instr;
mod method;
mod program;
pub mod size;
pub mod typecheck;
mod validate;

pub use builder::{MethodBuilder, ProgramBuilder};
pub use class::{ClassDef, FieldDef, SelectorDef};
pub use decoded::{
    decode_body, decode_op, encode_body, encode_op, fused_kind, fusion_plan, DecodedOp,
    FusedKind,
};
pub use disasm::{disassemble, disassemble_method};
pub use error::IrError;
pub use ids::{
    CallSiteRef, ClassId, FieldId, GlobalId, IdHashMap, IdHashSet, IdHasher, Label, MethodId, Reg,
    SelectorId, SiteIdx,
};
pub use instr::{ArgSpan, BinOp, Cond, Instr};
pub use method::{MethodDef, MethodKind};
pub use program::Program;
pub use size::{
    SizeClass, CALL_SEQUENCE_SIZE, LARGE_FACTOR, MEDIUM_FACTOR, SMALL_FACTOR, TINY_FACTOR,
};
