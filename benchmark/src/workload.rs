//! The four workloads: how the seed becomes inputs, and how one pass over a
//! workload's fixed op list runs, with and without the span recorder.
//!
//! All load comes from this one process, as a closed loop: ops are issued
//! back to back, the next one only after the previous one returned.

use crate::spans::{Recorder, NO_OP};
use aoci_aos::{AosConfig, AosReport, AosSystem, FaultConfig};
use aoci_core::{JobPool, PolicyKind, RuleSet};
use aoci_fleet::schedule::splitmix64;
use aoci_fleet::{run_fleet, FleetConfig, FleetReport};
use aoci_fuzz::oracle::policy_for;
use aoci_fuzz::sample_spec;
use aoci_ir::Program;
use aoci_profile::TraceKey;
use aoci_vm::{CostModel, Value, Vm, VmError, COMPONENTS};
use aoci_workloads::{build, build_fuzz, suite, FuzzSpec, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SuiteSteady,
    ControlDense,
    FeaturesOn,
    FleetServing,
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    pub threads: usize,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "suite_steady",
        kind: Kind::SuiteSteady,
        threads: 1,
    },
    WorkloadDef {
        name: "control_dense",
        kind: Kind::ControlDense,
        threads: 1,
    },
    WorkloadDef {
        name: "features_on",
        kind: Kind::FeaturesOn,
        threads: 1,
    },
    WorkloadDef {
        name: "fleet_serving",
        kind: Kind::FleetServing,
        threads: FLEET_THREADS,
    },
];

/// The suite programs run a third of their Table 1 iteration counts, so a
/// pass fits several times into one measured run. The interpreter still
/// takes over nine tenths of a `suite_steady` pass at this length.
const SUITE_ITERATION_DIVISOR: i64 = 3;

/// `control_dense` runs the first 60 programs of fuzz campaign 1 — the
/// population the committed `results/fuzz/corpus.json` starts with.
pub const FUZZ_CAMPAIGN: u64 = 1;
const FUZZ_PROGRAMS: usize = 60;

/// The fleet: 6 replicas on schedule 1 serve 21 replica-phase runs over six
/// of the eight tenants. `run_fleet` builds its tenants itself, so the seed
/// cannot reach this workload (see README, "What the seed does").
const FLEET: FleetConfig = FleetConfig {
    replicas: 6,
    cache_capacity: 64,
    seed: 1,
};
const FLEET_THREADS: usize = 2;

/// The seed moves each program's iteration count by up to ±2 %, in steps of
/// 0.1 %. Program *structure* stays at its committed seed: regenerating it
/// moves a pass's cycles and wall time by 2–3x (README), which no bound on a
/// metric could absorb.
fn jitter(iterations: i64, seed: u64, index: usize) -> i64 {
    let draw = splitmix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64) % 41;
    let permille = i64::try_from(draw).expect("below 41") - 20;
    iterations + iterations * permille / 1000
}

/// Exact counters of one op, one pass or one fleet run, by short name.
pub type Counts = BTreeMap<&'static str, u64>;

fn add(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        *into.entry(k).or_insert(0) += v;
    }
}

pub struct Prog {
    pub program: Program,
    /// Result of the bare baseline interpreter: the reference every
    /// adaptive run of the program must reproduce.
    pub expected: Option<Value>,
}

pub struct Op {
    pub name: String,
    pub prog: usize,
    /// The AOS runs that make up the op. With [`Inputs::twins`] they come
    /// in (recorder on, recorder off) pairs that must agree.
    pub configs: Vec<AosConfig>,
}

pub struct Inputs {
    pub kind: Kind,
    pub progs: Vec<Prog>,
    pub ops: Vec<Op>,
}

impl Inputs {
    /// Whether the ops' runs come in (recorder on, recorder off) pairs.
    pub fn twins(&self) -> bool {
        self.kind == Kind::ControlDense
    }
}

/// Wall seconds and sizes of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub build_s: f64,
    pub verify_s: f64,
    pub baseline_s: f64,
    pub baseline_cycles: u64,
    pub ir_instrs: u64,
}

enum Spec {
    Suite(WorkloadSpec),
    Fuzz(FuzzSpec),
}

fn suite_specs(seed: u64) -> Vec<Spec> {
    suite()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            Spec::Suite(WorkloadSpec {
                iterations: jitter(s.iterations / SUITE_ITERATION_DIVISOR, seed, i),
                ..s
            })
        })
        .collect()
}

/// The fuzz oracle's adaptive configuration (`aoci_fuzz::oracle`): a prime
/// sample period and low thresholds, so that short programs reach
/// promotion, OSR and the recovery paths.
fn dense_config(
    policy: PolicyKind,
    osr: bool,
    async_on: bool,
    fault: Option<FaultConfig>,
    traced: bool,
) -> AosConfig {
    let mut c = AosConfig::new(policy).enable_guard_monitoring();
    if osr {
        c = c.enable_osr();
    }
    if async_on {
        c = c.enable_async_compile();
    }
    if let Some(f) = fault {
        c = c.enable_faults(f);
    }
    if traced {
        c = c.enable_trace();
    }
    c.cost = CostModel {
        sample_period: 2_003,
        ..CostModel::default()
    };
    c.hot_method_samples = 2;
    c.organizer_period_samples = 4;
    c.missing_edge_period_samples = 8;
    c.vm.osr_backedge_threshold = 48;
    c
}

/// ±OSR × ±async × ±chaos, each cell traced then untraced: 16 runs.
fn dense_matrix(spec: &FuzzSpec) -> Vec<AosConfig> {
    let mut configs = Vec::new();
    for osr in [false, true] {
        for async_on in [false, true] {
            for fault in [None, Some(FaultConfig::chaos(spec.seed))] {
                for traced in [true, false] {
                    configs.push(dense_config(
                        policy_for(spec),
                        osr,
                        async_on,
                        fault.clone(),
                        traced,
                    ));
                }
            }
        }
    }
    configs
}

fn features_config() -> AosConfig {
    AosConfig::new(PolicyKind::ParameterlessClass { max: 3 })
        .enable_osr()
        .enable_deoptless()
        .enable_async_compile()
        .enable_trace()
        .enable_metrics()
        .enable_guard_monitoring()
}

/// Builds, type-checks and reference-runs the workload's programs. Timed as
/// a whole for `setup_s`; the three phases are spans of their own.
pub fn setup(kind: Kind, seed: u64, rec: &mut Recorder) -> Result<(Inputs, SetupTimes), String> {
    let started = Instant::now();
    let specs: Vec<Spec> = match kind {
        Kind::SuiteSteady | Kind::FeaturesOn => suite_specs(seed),
        // The fleet's tenants, exactly as `run_fleet` will rebuild them.
        Kind::FleetServing => suite().into_iter().map(Spec::Suite).collect(),
        Kind::ControlDense => (0..FUZZ_PROGRAMS)
            .map(|i| {
                let mut spec = sample_spec(FUZZ_CAMPAIGN, i);
                spec.iterations = jitter(spec.iterations, seed, i);
                Spec::Fuzz(spec)
            })
            .collect(),
    };

    let mut times = SetupTimes::default();
    let mut inputs = Inputs {
        kind,
        progs: Vec::new(),
        ops: Vec::new(),
    };
    rec.span("bench.setup", NO_OP, |rec| -> Result<(), String> {
        for spec in &specs {
            let t = Instant::now();
            let (name, program) = rec.span("workloads.build", NO_OP, |_| match spec {
                Spec::Suite(s) => Ok((s.name.to_string(), build(s).program)),
                Spec::Fuzz(s) => build_fuzz(s)
                    .map(|w| (w.name, w.program))
                    .map_err(|e| format!("{}: generator error: {e:?}", s.name)),
            })?;
            times.build_s += t.elapsed().as_secs_f64();
            times.ir_instrs += program
                .methods()
                .map(|m| m.body().len() as u64)
                .sum::<u64>();

            let t = Instant::now();
            rec.span("ir.verify", NO_OP, |_| aoci_ir::typecheck::verify(&program))
                .map_err(|e| format!("{name}: typecheck error: {e:?}"))?;
            times.verify_s += t.elapsed().as_secs_f64();

            // The fleet report exposes no per-run result to check against,
            // so its set-up stops at build + verify.
            let expected = if kind == Kind::FleetServing {
                None
            } else {
                let t = Instant::now();
                let (result, cycles) = rec
                    .span("vm.baseline", NO_OP, |_| {
                        let cost = CostModel {
                            sample_period: 0,
                            ..CostModel::default()
                        };
                        let mut vm = Vm::new(&program, cost);
                        vm.run_to_completion().map(|r| (r, vm.clock().total()))
                    })
                    .map_err(|e| format!("{name}: reference run faulted: {e}"))?;
                times.baseline_s += t.elapsed().as_secs_f64();
                times.baseline_cycles += cycles;
                result
            };

            let prog = inputs.progs.len();
            match (kind, spec) {
                (Kind::SuiteSteady, _) => {
                    for (tag, policy) in [
                        ("cins", PolicyKind::ContextInsensitive),
                        ("fixed3", PolicyKind::Fixed { max: 3 }),
                    ] {
                        inputs.ops.push(Op {
                            name: format!("{name}/{tag}"),
                            prog,
                            configs: vec![AosConfig::new(policy)],
                        });
                    }
                }
                (Kind::FeaturesOn, _) => {
                    inputs.ops.push(Op {
                        name: name.clone(),
                        prog,
                        configs: vec![features_config()],
                    });
                }
                (Kind::ControlDense, Spec::Fuzz(s)) => {
                    inputs.ops.push(Op {
                        name: name.clone(),
                        prog,
                        configs: dense_matrix(s),
                    });
                }
                (Kind::ControlDense, Spec::Suite(_)) | (Kind::FleetServing, _) => {}
            }
            inputs.progs.push(Prog { program, expected });
        }
        Ok(())
    })?;
    times.total_s = started.elapsed().as_secs_f64();
    Ok((inputs, times))
}

/// One checked unit of a pass: an op, or the whole fleet run.
pub struct Unit {
    /// Ops this unit stands for (the fleet run: every replica-phase run).
    pub ops: usize,
    pub wall_ms: f64,
    pub counts: Counts,
    /// The fleet report as JSON; must be byte-identical on every pass.
    pub text: String,
    pub ok: bool,
}

pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub units: Vec<Unit>,
    /// Wall seconds of the recorder-on and recorder-off twin runs.
    pub twin_traced_s: f64,
    pub twin_untraced_s: f64,
}

impl Pass {
    pub fn counts(&self) -> Counts {
        let mut total = Counts::new();
        for u in &self.units {
            add(&mut total, &u.counts);
        }
        total
    }

    pub fn ops(&self) -> usize {
        self.units.iter().map(|u| u.ops).sum()
    }

    pub fn failed_ops(&self) -> usize {
        self.units.iter().filter(|u| !u.ok).map(|u| u.ops).sum()
    }

    /// Marks every unit whose exact counters or report text differ from the
    /// same unit of `reference`: simulated results must repeat on every pass.
    pub fn check_against(&mut self, reference: &Pass) {
        for (u, r) in self.units.iter_mut().zip(&reference.units) {
            u.ok &= u.counts == r.counts && u.text == r.text;
        }
    }
}

/// What the probes need from a real run of a program.
pub struct Harvest {
    pub prog: usize,
    pub policy: PolicyKind,
    pub rules: RuleSet,
    pub profile: Vec<(TraceKey, f64)>,
}

/// Extras only the traced pass collects.
#[derive(Default)]
pub struct Traced {
    pub harvest: Vec<Harvest>,
    pub reports: Vec<AosReport>,
    pub fleet: Option<FleetReport>,
}

fn counts_of(r: &AosReport) -> Counts {
    let mut c = Counts::from([
        ("sim_cycles", r.total_cycles()),
        ("vm.calls", r.counters.calls),
        ("vm.virtual_dispatches", r.counters.virtual_dispatches),
        ("vm.guard_checks", r.counters.guard_checks),
        ("vm.guard_misses", r.counters.guard_misses),
        ("vm.osr_entries", r.counters.osr_entries),
        ("vm.osr_exits", r.counters.osr_exits),
        ("aos.samples", r.samples),
        ("aos.opt_compiles", u64::from(r.opt_compilations)),
        ("aos.opt_code_bytes", r.optimized_code_size),
        ("aos.rules_final", r.final_rules as u64),
        ("aos.dcg_entries", r.dcg_entries as u64),
        ("aos.invalidations", r.recovery.invalidations),
        ("aos.compile_retries", r.recovery.compile_retries),
        ("aos.async_stale_drops", r.async_compile.stale_drops),
        (
            "aos.async_queue_full_drops",
            r.async_compile.queue_full_drops,
        ),
        ("aos.osr_requests", r.osr.requests),
        ("aos.osr_denied", r.osr.denied),
        (
            "trace.events",
            r.trace_log.as_ref().map_or(0, |l| l.emitted),
        ),
        (
            "trace.dropped",
            r.trace_log.as_ref().map_or(0, |l| l.dropped),
        ),
        (
            "telemetry.snapshots",
            r.telemetry.as_ref().map_or(0, |m| m.series.len() as u64),
        ),
    ]);
    for component in COMPONENTS {
        c.insert(component.slug(), r.clock.component(component));
    }
    c
}

/// The rules and the trace profile a run ended with.
type RunHarvest = (RuleSet, Vec<(TraceKey, f64)>);

/// One adaptive run. Untraced it is a single `AosSystem::run`; traced, the
/// same loop `run` performs is driven from here so that construction, every
/// `step` and the final report each get a span. A step is a *compile* step
/// when the compilation log grew during it, else an *organizer* step when it
/// ended in a sample on which the organizers tick, else *quiet*.
fn run_aos(
    program: &Program,
    config: &AosConfig,
    op: u32,
    tracer: Option<(&mut Recorder, &mut Option<RunHarvest>)>,
) -> Result<AosReport, VmError> {
    let Some((rec, harvest)) = tracer else {
        return AosSystem::new(program, config.clone()).run();
    };
    rec.span("aos.run", op, |rec| {
        let t0 = Instant::now();
        let mut sys = AosSystem::new(program, config.clone());
        let mut t = Instant::now();
        rec.leaf("aos.new", op, t0, t);
        let (mut compiled, mut osr_requests, mut samples) = (0, 0, 0u64);
        loop {
            let more = sys.step()?;
            let now = Instant::now();
            let log = sys.database().compilation_log().len();
            // A step ends in completion, an OSR request or a timer sample;
            // the hot-method and DCG/AI organizers tick on every
            // `organizer_period_samples`-th sample.
            let requests = sys.osr_events().requests;
            let sampled = more && requests == osr_requests;
            samples += u64::from(sampled);
            let class = if log > compiled {
                "aos.step_compile"
            } else if sampled && samples.is_multiple_of(config.organizer_period_samples) {
                "aos.step_organizer"
            } else {
                "aos.step_quiet"
            };
            rec.leaf(class, op, t, now);
            (compiled, osr_requests) = (log, requests);
            if !more {
                break;
            }
            t = Instant::now();
        }
        let rules = sys.rules().clone();
        let t = Instant::now();
        let (report, _, profile) = sys.run_full()?;
        rec.leaf("aos.report", op, t, Instant::now());
        *harvest = Some((rules, profile));
        Ok(report)
    })
}

fn aos_pass(inputs: &Inputs, mut tracer: Option<(&mut Recorder, &mut Traced)>) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        units: Vec::new(),
        twin_traced_s: 0.0,
        twin_untraced_s: 0.0,
    };
    for (i, op) in inputs.ops.iter().enumerate() {
        let op_id = u32::try_from(i).expect("a few hundred ops");
        let prog = &inputs.progs[op.prog];
        let mut unit = Unit {
            ops: 1,
            wall_ms: 0.0,
            counts: Counts::new(),
            text: String::new(),
            ok: true,
        };
        let mut reports = Vec::with_capacity(op.configs.len());
        let started = Instant::now();
        if let Some((rec, _)) = &mut tracer {
            rec.enter("bench.op", op_id);
        }
        for (ci, config) in op.configs.iter().enumerate() {
            let t = Instant::now();
            let mut harvested = None;
            let result = match &mut tracer {
                Some((rec, _)) => {
                    run_aos(&prog.program, config, op_id, Some((rec, &mut harvested)))
                }
                None => run_aos(&prog.program, config, op_id, None),
            };
            if inputs.twins() {
                let twin = if ci % 2 == 0 {
                    &mut pass.twin_traced_s
                } else {
                    &mut pass.twin_untraced_s
                };
                *twin += t.elapsed().as_secs_f64();
            }
            let Ok(report) = result else {
                unit.ok = false;
                continue;
            };
            // Every adaptive run must reproduce the baseline interpreter.
            unit.ok &= report.result == prog.expected;
            add(&mut unit.counts, &counts_of(&report));
            if let (Some((_, traced)), Some((rules, profile)), 0) = (&mut tracer, harvested, ci) {
                traced.harvest.retain(|h| h.prog != op.prog);
                traced.harvest.push(Harvest {
                    prog: op.prog,
                    policy: config.policy,
                    rules,
                    profile,
                });
            }
            reports.push(report);
        }
        if let Some((rec, _)) = &mut tracer {
            rec.exit();
        }
        unit.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        if inputs.twins() {
            // The flight recorder charges no simulated cycles: each traced
            // run must agree with its untraced twin.
            unit.ok &= reports.len() == op.configs.len()
                && reports.chunks(2).all(|t| {
                    t[0].result == t[1].result
                        && t[0].total_cycles() == t[1].total_cycles()
                        && t[0].optimized_code_size == t[1].optimized_code_size
                });
        }
        if let Some((_, traced)) = &mut tracer {
            traced.reports.append(&mut reports);
        }
        pass.units.push(unit);
    }
    pass
}

fn fleet_counts(r: &FleetReport) -> Counts {
    let sum = |f: fn(&aoci_fleet::PhaseReport) -> u64| r.phases.iter().map(f).sum::<u64>();
    Counts::from([
        ("sim_cycles", sum(|p| p.total_cycles)),
        ("aos.opt_compiles", sum(|p| p.opt_compilations)),
        ("fleet.cache_hits", sum(|p| p.cache_hits)),
        ("fleet.cache_misses", sum(|p| p.cache_misses)),
        ("fleet.server_compiles", sum(|p| p.server_compiles)),
        ("fleet.evictions", sum(|p| p.evictions)),
        ("fleet.invalidations", sum(|p| p.invalidations)),
        ("fleet.warm_starts", sum(|p| p.warm_starts)),
        ("fleet.cycles_to_peak_cold", r.warmup.cycles_to_peak_first),
        ("fleet.cycles_to_peak_warm", r.warmup.cycles_to_peak_last),
    ])
}

fn fleet_pass(tracer: Option<(&mut Recorder, &mut Traced)>) -> Pass {
    let pool = JobPool::new(FLEET_THREADS);
    let started = Instant::now();
    let (report, tracer) = match tracer {
        Some((rec, traced)) => (
            rec.span("fleet.run_fleet", 0, |_| run_fleet(&FLEET, &pool)),
            Some(traced),
        ),
        None => (run_fleet(&FLEET, &pool), None),
    };
    let unit = Unit {
        ops: report.phases.iter().map(|p| p.active_replicas).sum(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        counts: fleet_counts(&report),
        text: aoci_json::to_string(&report.to_value()),
        ok: true,
    };
    if let Some(traced) = tracer {
        traced.fleet = Some(report);
    }
    Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        units: vec![unit],
        twin_traced_s: 0.0,
        twin_untraced_s: 0.0,
    }
}

/// Runs the workload's op list once. With a tracer, every call into the
/// crates is wrapped in a span and the probes' inputs are harvested.
pub fn run_pass(inputs: &Inputs, mut tracer: Option<(&mut Recorder, &mut Traced)>) -> Pass {
    let cpu = crate::host::cpu_seconds();
    let started = Instant::now();
    if let Some((rec, _)) = &mut tracer {
        rec.enter("bench.pass", NO_OP);
    }
    let reborrowed = tracer
        .as_mut()
        .map(|(rec, traced)| (&mut **rec, &mut **traced));
    let mut pass = match inputs.kind {
        Kind::FleetServing => fleet_pass(reborrowed),
        _ => aos_pass(inputs, reborrowed),
    };
    if let Some((rec, _)) = &mut tracer {
        rec.exit();
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.cpu_s = crate::host::cpu_seconds() - cpu;
    pass
}
