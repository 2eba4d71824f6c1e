//! Seeded, deterministic fault injection for robustness testing.
//!
//! The paper's adaptive optimization system assumes a cooperative
//! environment: compilations succeed, profile data is well-formed, the
//! sampler never misses. A production VM gets none of those guarantees.
//! This module provides the adversary: a [`FaultInjector`] that, driven by
//! its own seeded RNG (independent of program execution), perturbs the
//! system at its trust boundaries —
//!
//! * **compile-thread bailouts** — an optimizing compilation aborts partway
//!   (simulating a compiler bug or resource exhaustion);
//! * **oversized-code bailouts** — the compilation finishes but the
//!   generated code trips the code-space guard and is discarded;
//! * **trace corruption** — profile traces arrive with unknown method or
//!   call-site indices, or NaN / negative weights;
//! * **sampler dropouts** — a timer sample is lost before the listeners
//!   see it;
//! * **receiver bursts** — an adversarial phase shift forces the next
//!   inline guards of a method whose optimized version holds a guarded
//!   inline to miss: they run in the VM and take the virtual fallback, so
//!   the application pays for them, and the guard-health monitor counts
//!   them like any miss. Code without a guard is never a victim: it has no
//!   guard to flood.
//!
//! Everything is deterministic for a given [`FaultConfig::seed`]: the same
//! configuration over the same program produces the same fault schedule,
//! which is what makes backoff and recovery behaviour unit-testable.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Guard misses one receiver burst forces: the victim's next this many
/// executed guards miss.
const RECEIVER_BURST_MISSES: u64 = 96;

/// Probabilities and intensities of each injected fault class.
///
/// `Default` disables every fault (all probabilities zero) — an injector
/// built from it is a deterministic no-op, so production configurations pay
/// nothing. Use [`FaultConfig::chaos`] for an everything-on profile.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed of the injector's private RNG.
    pub seed: u64,
    /// Probability that an optimizing compilation bails out partway.
    pub compile_bailout_prob: f64,
    /// Probability that a completed compilation is rejected as oversized.
    pub oversize_code_prob: f64,
    /// Probability that a drained profile trace is corrupted.
    pub trace_corruption_prob: f64,
    /// Probability that a timer sample is dropped before the listeners.
    pub sampler_dropout_prob: f64,
    /// Probability (per sample) of an adversarial receiver burst: the next
    /// 96 guards executed by one method whose current optimized version
    /// holds a guarded inline are forced to miss.
    pub receiver_burst_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0x5EED,
            compile_bailout_prob: 0.0,
            oversize_code_prob: 0.0,
            trace_corruption_prob: 0.0,
            sampler_dropout_prob: 0.0,
            receiver_burst_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// An everything-on profile: every fault class enabled at rates high
    /// enough that short runs exercise all recovery paths.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            compile_bailout_prob: 0.25,
            oversize_code_prob: 0.10,
            trace_corruption_prob: 0.20,
            sampler_dropout_prob: 0.10,
            receiver_burst_prob: 0.05,
        }
    }
}

/// How an injected compilation failure presents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CompileFault {
    /// The compilation aborted partway; only its fixed overhead was spent.
    Bailout,
    /// The compilation completed (full cost) but the generated code was
    /// rejected by the code-space guard and discarded.
    Oversize,
}

/// How an injected trace corruption presents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TraceCorruption {
    /// The callee method index is replaced with a non-existent one.
    UnknownCallee,
    /// A context call-site index is replaced with an out-of-range one.
    UnknownCallSite,
    /// The weight becomes NaN.
    NanWeight,
    /// The weight becomes negative.
    NegativeWeight,
}

/// The fault injector: draws from its own seeded RNG at each decision
/// point, so the fault schedule is a pure function of the seed and the
/// sequence of queries (which is deterministic for a deterministic system).
#[derive(Clone, Debug)]
pub(crate) struct FaultInjector {
    config: FaultConfig,
    rng: SmallRng,
}

impl FaultInjector {
    /// Creates an injector from `config`, seeding its private RNG.
    pub(crate) fn new(config: FaultConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        FaultInjector { config, rng }
    }

    /// Consulted once per optimizing compilation: should it fail, and how?
    pub(crate) fn compile_fault(&mut self) -> Option<CompileFault> {
        if self.roll(self.config.compile_bailout_prob) {
            return Some(CompileFault::Bailout);
        }
        if self.roll(self.config.oversize_code_prob) {
            return Some(CompileFault::Oversize);
        }
        None
    }

    /// Consulted once per timer sample: is this sample lost?
    pub(crate) fn drop_sample(&mut self) -> bool {
        self.roll(self.config.sampler_dropout_prob)
    }

    /// Consulted once per drained profile trace: corrupt it, and how?
    pub(crate) fn corrupt_trace(&mut self) -> Option<TraceCorruption> {
        if !self.roll(self.config.trace_corruption_prob) {
            return None;
        }
        Some(match self.rng.gen_range(0..4u32) {
            0 => TraceCorruption::UnknownCallee,
            1 => TraceCorruption::UnknownCallSite,
            2 => TraceCorruption::NanWeight,
            _ => TraceCorruption::NegativeWeight,
        })
    }

    /// Consulted once per timer sample: deliver a receiver burst? Returns
    /// the number of guard misses to force and a selector value used to
    /// pick the victim among the methods whose current optimized version
    /// holds a guarded inline.
    pub(crate) fn receiver_burst(&mut self) -> Option<(u64, u64)> {
        // Unlike the other classes, bursts skip their draw while off, as
        // they always have: profiles without bursts keep their schedules.
        if self.config.receiver_burst_prob == 0.0 || !self.roll(self.config.receiver_burst_prob) {
            return None;
        }
        Some((RECEIVER_BURST_MISSES, self.rng.gen::<u64>()))
    }

    fn roll(&mut self, p: f64) -> bool {
        // Draw even for p == 0 so enabling one fault class does not shift
        // the schedule of another: each decision consumes exactly one draw.
        let draw = self.rng.gen::<f64>();
        p > 0.0 && draw < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(inj: &mut FaultInjector, n: usize) -> Vec<Option<CompileFault>> {
        (0..n).map(|_| inj.compile_fault()).collect()
    }

    /// Per-class counts of the faults `inj` hands out over `rounds` rounds
    /// of one query each: compile bailouts, oversize rejections, dropped
    /// samples, corrupted traces, receiver bursts.
    fn tally(inj: &mut FaultInjector, rounds: usize) -> [u64; 5] {
        let mut n = [0u64; 5];
        for _ in 0..rounds {
            match inj.compile_fault() {
                Some(CompileFault::Bailout) => n[0] += 1,
                Some(CompileFault::Oversize) => n[1] += 1,
                None => {}
            }
            n[2] += u64::from(inj.drop_sample());
            n[3] += u64::from(inj.corrupt_trace().is_some());
            n[4] += u64::from(inj.receiver_burst().is_some());
        }
        n
    }

    #[test]
    fn default_config_is_inert() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        for _ in 0..200 {
            assert_eq!(inj.compile_fault(), None);
            assert!(!inj.drop_sample());
            assert_eq!(inj.corrupt_trace(), None);
            assert_eq!(inj.receiver_burst(), None);
        }
        assert_eq!(tally(&mut inj, 200), [0; 5]);
    }

    #[test]
    fn chaos_delivers_every_class() {
        let got = tally(&mut FaultInjector::new(FaultConfig::chaos(11)), 400);
        assert!(got.iter().all(|&n| n > 0), "{got:?}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultInjector::new(FaultConfig::chaos(99));
        let mut b = FaultInjector::new(FaultConfig::chaos(99));
        assert_eq!(drain(&mut a, 100), drain(&mut b, 100));
        assert_eq!(tally(&mut a, 100), tally(&mut b, 100));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultInjector::new(FaultConfig::chaos(1));
        let mut b = FaultInjector::new(FaultConfig::chaos(2));
        assert_ne!(drain(&mut a, 100), drain(&mut b, 100));
    }

    #[test]
    fn fault_classes_draw_independently() {
        // Turning sampler dropouts on must not change the compile-fault
        // schedule: every decision consumes exactly one draw either way.
        let mut quiet = FaultConfig::chaos(5);
        quiet.sampler_dropout_prob = 0.0;
        let mut a = FaultInjector::new(FaultConfig::chaos(5));
        let mut b = FaultInjector::new(quiet);
        let mut faults_a = Vec::new();
        let mut faults_b = Vec::new();
        let mut dropped_b = 0;
        for _ in 0..100 {
            let _ = a.drop_sample();
            dropped_b += u64::from(b.drop_sample());
            faults_a.push(a.compile_fault());
            faults_b.push(b.compile_fault());
        }
        assert_eq!(faults_a, faults_b);
        assert_eq!(dropped_b, 0);
    }
}
