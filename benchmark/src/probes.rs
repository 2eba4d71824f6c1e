//! Per-layer probes of `profile`, `core`, `opt`, `json` and `fuzz`: direct
//! timed calls into their public functions, run once per workload after the
//! traced pass, on inputs harvested from that pass's real runs.

use crate::metrics::{median_of, single, Metrics};
use crate::spans::{Recorder, NO_OP};
use crate::stats::{percentile, rate};
use crate::workload::{Harvest, Inputs, Kind, Traced, FUZZ_CAMPAIGN};
use aoci_core::{InlineOracle, RuleSet};
use aoci_ir::MethodId;
use aoci_opt::OptConfig;
use aoci_profile::{Dcg, DcgConfig, TraceListener};
use aoci_vm::{CostModel, RunOutcome, StackSnapshot, Vm};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The AI organizer's hot threshold and the decay organizer's factor.
const HOT_FRACTION: f64 = 0.015;
const DECAY_FACTOR: f64 = 0.95;
/// Stack snapshots taken per program, one every `SNAPSHOT_BUDGET` cycles of
/// a bare interpreter run (a prime, like the samplers' periods).
const SNAPSHOTS_PER_PROGRAM: usize = 400;
const SNAPSHOT_BUDGET: u64 = 10_007;
/// Each profile is folded into the DCG this many times, so that the
/// recording probe runs long enough to time.
const RECORD_ROUNDS: usize = 20;
/// `fuzz.*` runs the whole differential oracle on the first cases.
const FUZZ_CASES: usize = 20;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Snapshots of the program's stack at budgeted stops of a bare run, each
/// marked as a prologue sample so that the listener walks it.
fn snapshots(program: &aoci_ir::Program) -> Vec<StackSnapshot> {
    let mut vm = Vm::new(
        program,
        CostModel {
            sample_period: 0,
            ..CostModel::default()
        },
    );
    let mut out = Vec::new();
    while out.len() < SNAPSHOTS_PER_PROGRAM {
        match vm.run(SNAPSHOT_BUDGET) {
            Ok(RunOutcome::Finished(_)) | Err(_) => break,
            Ok(_) => out.push(StackSnapshot {
                top_in_prologue: true,
                ..vm.snapshot()
            }),
        }
    }
    out
}

fn profile_core_opt(inputs: &Inputs, harvest: &[Harvest], rec: &mut Recorder, m: &mut Metrics) {
    let (mut frames, mut walk_s) = (0u64, 0.0);
    let (mut recorded, mut record_s) = (0u64, 0.0);
    let (mut hot_us, mut decay_us, mut rules_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queries, mut query_s) = (0u64, 0.0);
    let (mut compile_us, mut instrs) = (Vec::new(), 0u64);
    let (mut inlines, mut refusals, mut generated) = (0u64, 0u64, 0u64);
    let opt = OptConfig::default();

    for h in harvest {
        let program = &inputs.progs[h.prog].program;

        let snaps = snapshots(program);
        let mut listener = TraceListener::new();
        let depth = usize::from(h.policy.max_depth());
        let t = Instant::now();
        for s in &snaps {
            listener.on_sample(s, depth, |_| true);
        }
        rec.leaf("profile.walk", NO_OP, t, Instant::now());
        walk_s += t.elapsed().as_secs_f64();
        frames += listener.frames_walked();

        let mut dcg = Dcg::new(DcgConfig::default());
        let t = Instant::now();
        for _ in 0..RECORD_ROUNDS {
            for (key, weight) in &h.profile {
                dcg.record(key.clone(), *weight);
            }
        }
        rec.leaf("profile.dcg_record", NO_OP, t, Instant::now());
        record_s += t.elapsed().as_secs_f64();
        recorded += (RECORD_ROUNDS * h.profile.len()) as u64;

        let t = Instant::now();
        let hot = dcg.hot(HOT_FRACTION);
        rec.leaf("profile.dcg_hot", NO_OP, t, Instant::now());
        hot_us.push(us(t.elapsed().as_secs_f64()));

        let t = Instant::now();
        black_box(RuleSet::from_hot_traces(hot));
        rec.leaf("core.rules_build", NO_OP, t, Instant::now());
        rules_us.push(us(t.elapsed().as_secs_f64()));

        let t = Instant::now();
        dcg.decay(DECAY_FACTOR);
        rec.leaf("profile.dcg_decay", NO_OP, t, Instant::now());
        decay_us.push(us(t.elapsed().as_secs_f64()));
        black_box(&dcg);

        // Queries and compiles use the rules the real run ended with.
        let oracle = InlineOracle::new(Arc::new(h.rules.clone()));
        let contexts: Vec<_> = h.rules.iter().map(|r| r.trace.context().to_vec()).collect();
        let t = Instant::now();
        for c in &contexts {
            black_box(oracle.candidates(c));
        }
        rec.leaf("core.oracle_query", NO_OP, t, Instant::now());
        query_s += t.elapsed().as_secs_f64();
        queries += contexts.len() as u64;

        for method in program.methods() {
            let id: MethodId = method.id();
            let t = Instant::now();
            let c = aoci_opt::compile(program, id, &oracle, &opt);
            rec.leaf("opt.compile", NO_OP, t, Instant::now());
            compile_us.push(us(t.elapsed().as_secs_f64()));
            instrs += method.body().len() as u64;
            inlines += c.decisions.len() as u64;
            refusals += c.refusals.len() as u64;
            generated += u64::from(c.generated_size);
        }
    }

    m.insert("profile.walk_frames_per_s", single(rate(frames, walk_s)));
    m.insert("profile.dcg_record_per_s", single(rate(recorded, record_s)));
    m.insert("core.oracle_queries_per_s", single(rate(queries, query_s)));
    if !hot_us.is_empty() {
        m.insert("profile.dcg_hot_us", median_of(&hot_us));
        m.insert("profile.dcg_decay_us", median_of(&decay_us));
        m.insert("core.rules_build_us", median_of(&rules_us));
    }
    if !compile_us.is_empty() {
        let total_s: f64 = compile_us.iter().sum::<f64>() / 1e6;
        m.insert("opt.compile_us_p50", median_of(&compile_us));
        m.insert("opt.compile_us_p90", single(percentile(&compile_us, 90.0)));
        m.insert("opt.compiles", single(compile_us.len() as f64));
        m.insert("opt.inlines", single(inlines as f64));
        m.insert("opt.refusals", single(refusals as f64));
        m.insert(
            "opt.inline_ratio",
            single(inlines as f64 / ((inlines + refusals).max(1)) as f64),
        );
        m.insert("opt.generated_size", single(generated as f64));
        m.insert("opt.ir_instrs_per_s", single(rate(instrs, total_s)));
    }
}

/// Encodes every report of the traced pass and parses the text back.
fn json(traced: &Traced, rec: &mut Recorder, m: &mut Metrics) {
    let values: Vec<aoci_json::Value> = match &traced.fleet {
        Some(fleet) => vec![fleet.to_value()],
        None => traced
            .reports
            .iter()
            .map(aoci_aos::AosReport::to_value)
            .collect(),
    };
    let t = Instant::now();
    let texts: Vec<String> = values.iter().map(aoci_json::to_string).collect();
    rec.leaf("json.encode", NO_OP, t, Instant::now());
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for text in &texts {
        black_box(aoci_json::parse(text).expect("the encoder's output parses"));
    }
    rec.leaf("json.parse", NO_OP, t, Instant::now());
    let parse_s = t.elapsed().as_secs_f64();
    let bytes: usize = texts.iter().map(String::len).sum();
    m.insert("json.report_bytes", single(bytes as f64));
    m.insert(
        "json.encode_mb_per_s",
        single(bytes as f64 / 1e6 / encode_s),
    );
    m.insert("json.parse_mb_per_s", single(bytes as f64 / 1e6 / parse_s));
}

/// The fuzz campaign's own per-case cost: generator, type-check, oracle run
/// and the 16-run matrix behind `catch_unwind`.
fn fuzz(inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) {
    let (mut case_ms, mut features, mut findings) = (Vec::new(), BTreeSet::new(), 0usize);
    for i in 0..FUZZ_CASES.min(inputs.ops.len()) {
        let spec = aoci_fuzz::sample_spec(FUZZ_CAMPAIGN, i);
        let t = Instant::now();
        let out = aoci_fuzz::run_case_caught(&spec);
        rec.leaf("fuzz.case", NO_OP, t, Instant::now());
        case_ms.push(t.elapsed().as_secs_f64() * 1e3);
        findings += out.findings.len();
        features.extend(out.fingerprint);
    }
    m.insert("fuzz.case_ms_p50", median_of(&case_ms));
    m.insert("fuzz.case_ms_p90", single(percentile(&case_ms, 90.0)));
    m.insert("fuzz.features", single(features.len() as f64));
    m.insert("fuzz.findings", single(findings as f64));
}

pub fn run(inputs: &Inputs, traced: &Traced, rec: &mut Recorder, m: &mut Metrics) {
    rec.span("bench.probes", NO_OP, |rec| {
        profile_core_opt(inputs, &traced.harvest, rec, m);
        json(traced, rec, m);
        if inputs.kind == Kind::ControlDense {
            fuzz(inputs, rec, m);
        }
    });
}
