//! The simulated-machine cost model.
//!
//! All costs are in abstract cycles. Absolute values are uncalibrated — the
//! reproduction targets the paper's *relative* results (speedup over
//! context-insensitive inlining, code-size deltas, component fractions) —
//! but the ratios are chosen to be plausible for the paper's era: baseline
//! code roughly an order of magnitude slower than optimized code, virtual
//! dispatch a few times the cost of a direct call, optimizing compilation
//! orders of magnitude more expensive per instruction than execution.

use crate::code::OptLevel;
use aoci_ir::{Instr, CALL_SEQUENCE_SIZE};

/// Cycle costs for execution, dispatch, compilation and sampling.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Multiplier applied to instruction costs in baseline-compiled code.
    pub baseline_factor: u64,
    /// Multiplier applied to instruction costs in optimized code.
    pub optimized_factor: u64,
    /// Cost of a statically-bound call (argument setup + frame + return).
    pub static_call_cost: u64,
    /// Additional cost of a virtual dispatch on top of the call cost.
    pub virtual_dispatch_cost: u64,
    /// Cost of one compiler-inserted class-test guard.
    pub guard_cost: u64,
    /// Cost of allocating an object or array.
    pub alloc_cost: u64,
    /// Baseline-compilation cycles per abstract instruction unit.
    pub baseline_compile_per_unit: u64,
    /// Optimizing-compilation cycles per abstract instruction unit of
    /// *generated* code (so inlining bloat directly costs compile time).
    pub opt_compile_per_unit: u64,
    /// Fixed per-method optimizing-compilation overhead.
    pub opt_compile_fixed: u64,
    /// Simulated cycles between timer samples (the paper samples at ~100 Hz;
    /// with the default workload lengths this period yields a comparable
    /// number of samples per run).
    pub sample_period: u64,
    /// Listener cycles charged per taken sample, plus
    /// [`CostModel::listener_per_frame`] per stack frame a trace listener
    /// walks.
    pub listener_base_cost: u64,
    /// Listener cycles per walked stack frame.
    pub listener_per_frame: u64,
    /// Fixed cycles per on-stack-replacement transition (either
    /// direction): locating the OSR point and setting up the new frame.
    pub osr_transition_cost: u64,
    /// Additional OSR cycles per frame slot the mapping transfers.
    pub osr_per_slot_cost: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            baseline_factor: 8,
            optimized_factor: 1,
            static_call_cost: CALL_SEQUENCE_SIZE as u64,
            virtual_dispatch_cost: 2 * CALL_SEQUENCE_SIZE as u64,
            guard_cost: 2,
            alloc_cost: 20,
            baseline_compile_per_unit: 30,
            opt_compile_per_unit: 150,
            opt_compile_fixed: 6_000,
            sample_period: 40_000,
            listener_base_cost: 40,
            listener_per_frame: 12,
            osr_transition_cost: 120,
            osr_per_slot_cost: 2,
        }
    }
}

impl CostModel {
    /// Returns the execution-speed multiplier for `level`.
    pub fn level_factor(&self, level: OptLevel) -> u64 {
        match level {
            OptLevel::Baseline => self.baseline_factor,
            OptLevel::Optimized => self.optimized_factor,
        }
    }

    /// Returns the cost in cycles of executing `instr` at `level`,
    /// *excluding* callee execution for calls.
    pub fn instr_cost(&self, instr: &Instr, level: OptLevel) -> u64 {
        let factor = self.level_factor(level);
        match instr {
            Instr::Work { units } => *units as u64 * factor,
            Instr::CallStatic { .. } => self.static_call_cost * factor,
            Instr::CallVirtual { .. } => {
                (self.static_call_cost + self.virtual_dispatch_cost) * factor
            }
            Instr::GuardClass { .. } | Instr::GuardMethod { .. } => self.guard_cost * factor,
            Instr::New { .. } | Instr::ArrNew { .. } => self.alloc_cost * factor,
            _ => factor,
        }
    }

    /// Cycles to baseline-compile a method of the given abstract size.
    pub fn baseline_compile_cost(&self, size_units: u32) -> u64 {
        self.baseline_compile_per_unit * size_units as u64
    }

    /// Cycles to optimize-compile a method whose *generated* code has the
    /// given abstract size.
    pub fn opt_compile_cost(&self, generated_units: u32) -> u64 {
        self.opt_compile_fixed + self.opt_compile_per_unit * generated_units as u64
    }

    /// Cycles charged to the listeners component for one sample that walked
    /// `frames` stack frames.
    pub fn sample_cost(&self, frames: usize) -> u64 {
        self.listener_base_cost + self.listener_per_frame * frames as u64
    }

    /// Cycles charged to the OSR component for one on-stack-replacement
    /// transition whose frame mapping transferred `slots` slots.
    pub fn osr_transfer_cost(&self, slots: usize) -> u64 {
        self.osr_transition_cost + self.osr_per_slot_cost * slots as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::{MethodId, Reg, SiteIdx};

    #[test]
    fn baseline_code_is_slower() {
        let m = CostModel::default();
        let w = Instr::Work { units: 10 };
        assert!(m.instr_cost(&w, OptLevel::Baseline) > m.instr_cost(&w, OptLevel::Optimized));
        assert_eq!(m.instr_cost(&w, OptLevel::Optimized), 10);
    }

    #[test]
    fn virtual_calls_cost_more_than_static() {
        let m = CostModel::default();
        let args = aoci_ir::ArgSpan::default();
        let callee = MethodId::from_index(0);
        let s = Instr::CallStatic { site: SiteIdx(0), dst: None, callee, args };
        let v = Instr::CallVirtual {
            site: SiteIdx(0),
            dst: None,
            selector: aoci_ir::SelectorId::from_index(0),
            recv: Reg(0),
            args,
        };
        assert!(m.instr_cost(&v, OptLevel::Optimized) > m.instr_cost(&s, OptLevel::Optimized));
    }

    #[test]
    fn guards_are_cheaper_than_dispatch() {
        let m = CostModel::default();
        let g = Instr::GuardClass {
            recv: Reg(0),
            class: aoci_ir::ClassId::from_index(0),
            else_target: 0,
        };
        assert!(m.instr_cost(&g, OptLevel::Optimized) < m.virtual_dispatch_cost);
    }

    #[test]
    fn compile_costs_scale_with_size() {
        let m = CostModel::default();
        assert!(m.opt_compile_cost(200) > m.opt_compile_cost(100));
        assert!(m.opt_compile_cost(100) > m.baseline_compile_cost(100));
        assert_eq!(
            m.baseline_compile_cost(10),
            10 * m.baseline_compile_per_unit
        );
    }


    #[test]
    fn level_factor_matches_fields() {
        let m = CostModel::default();
        assert_eq!(m.level_factor(OptLevel::Baseline), m.baseline_factor);
        assert_eq!(m.level_factor(OptLevel::Optimized), m.optimized_factor);
    }

    #[test]
    fn allocation_is_costed() {
        let m = CostModel::default();
        let new = Instr::New { dst: Reg(0), class: aoci_ir::ClassId::from_index(0) };
        assert_eq!(m.instr_cost(&new, OptLevel::Optimized), m.alloc_cost);
        let arr = Instr::ArrNew { dst: Reg(0), len: Reg(1) };
        assert_eq!(m.instr_cost(&arr, OptLevel::Optimized), m.alloc_cost);
    }

    #[test]
    fn osr_transfer_cost_scales_with_slots() {
        let m = CostModel::default();
        assert_eq!(m.osr_transfer_cost(0), m.osr_transition_cost);
        assert!(m.osr_transfer_cost(16) > m.osr_transfer_cost(4));
        assert_eq!(
            m.osr_transfer_cost(5),
            m.osr_transition_cost + 5 * m.osr_per_slot_cost
        );
    }

    #[test]
    fn sample_cost_scales_with_depth() {
        let m = CostModel::default();
        assert!(m.sample_cost(10) > m.sample_cost(1));
        assert_eq!(m.sample_cost(0), m.listener_base_cost);
    }
}
