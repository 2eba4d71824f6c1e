//! The repo benchmark: `BENCHMARK.json` at the repository root names this
//! package's command, workloads and metrics; `README.md` beside this
//! package defines them.
//!
//! ```text
//! benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` measures one workload, or every workload in a child process each
//! (so that peak memory and CPU time are the workload's own). For each it
//! sets up several times, runs one warm-up pass, runs measured passes with
//! the span recorder off until `--seconds` have elapsed, and with
//! `--trace 1` (the default) one further pass with the recorder on plus the
//! per-layer probes. Every output is checked. Results go to
//! `out/result.json` and `out/spans.json` next to this package's manifest,
//! a table of every metric to standard output, and — for a single workload —
//! the one-line JSON summary `BENCHMARK.json`'s contract asks for: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! The exit code is non-zero when an output was wrong.

mod compare;
mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workload;

use aoci_json::Value;
use metrics::{
    end_to_end_with_failed, median_of, single, Metric, Metrics, END_TO_END, FAILED_OPS_SHARE,
    PER_LAYER,
};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Kind, Pass, SetupTimes, Traced, WorkloadDef, WORKLOADS};

const SCHEMA: &str = "aoci-benchmark/1";
/// Quartiles need a few passes even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;
/// Set-up repeats in two windows, before the warm-up pass and after the
/// measured passes, so that one burst of host noise cannot cover every
/// sample. Each window lasts this long and runs at least `MIN_SETUPS` (the
/// first) or one (the second) and at most `MAX_SETUPS` repetitions.
const SETUP_WINDOW_SECONDS: f64 = 0.5;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;

struct RunArgs {
    workload: Option<WorkloadDef>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark run [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       benchmark compare <a.json> <b.json>",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let def = WORKLOADS.iter().find(|w| w.name == value);
                out.workload = Some(*def.ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|e| format!("bad --seed {value:?}: {e}"))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    aoci_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Slow-downs on a shared host come in bursts and only ever add time, so a
/// repeated timing is read at its first quartile (nearest rank): up to three
/// quarters of the samples may be disturbed before the reading moves.
fn low_quartile(values: impl Iterator<Item = f64>) -> f64 {
    stats::percentile(&values.collect::<Vec<_>>(), 25.0)
}

/// Wall seconds of one pass, estimated from the passes `picked`: each op at
/// the first quartile of its own timings, summed over the op list. A burst
/// that hits one op in one pass then leaves the estimate alone, where it
/// would move that pass's total and with it a median of totals.
fn pass_wall_s(passes: &[Pass], picked: &[usize]) -> f64 {
    let ms: f64 = (0..passes[0].units.len())
        .map(|unit| low_quartile(picked.iter().map(|&p| passes[p].units[unit].wall_ms)))
        .sum();
    ms / 1e3
}

/// An estimate over all of `raw.len()` samples, repeated on the even and on
/// the odd ones alone; `raw` is kept for the summary shown beside it.
fn estimate(raw: &[f64], f: impl Fn(&[usize]) -> f64) -> Metric {
    let all: Vec<usize> = (0..raw.len()).collect();
    let (even, odd): (Vec<usize>, Vec<usize>) = all.iter().partition(|&&i| i % 2 == 0);
    Metric {
        value: f(&all),
        samples: Some(stats::summarize(raw)),
        halves: Some((f(&even), f(&odd))),
    }
}

/// One window of set-up repetitions; returns the inputs of the last.
fn setup_window(
    kind: Kind,
    seed: u64,
    at_least: usize,
    rec: &mut Recorder,
    setups: &mut Vec<SetupTimes>,
) -> Result<workload::Inputs, String> {
    let started = Instant::now();
    let mut done = 0;
    loop {
        let (inputs, times) = workload::setup(kind, seed, rec)?;
        setups.push(times);
        done += 1;
        let enough = done >= at_least && started.elapsed().as_secs_f64() >= SETUP_WINDOW_SECONDS;
        if enough || done >= MAX_SETUPS {
            return Ok(inputs);
        }
    }
}

/// Everything one workload's run produced.
struct Measured {
    def: WorkloadDef,
    attempted: usize,
    failed: usize,
    passes: usize,
    setups: usize,
    end_to_end: Metrics,
    per_layer: Metrics,
    /// Per op: name, simulated cycles, first-quartile wall milliseconds.
    ops: Vec<(String, u64, f64)>,
    spans: String,
}

fn measure(def: WorkloadDef, args: &RunArgs) -> Result<Measured, String> {
    let mut rec = Recorder::new();

    let mut setups: Vec<SetupTimes> = Vec::new();
    let inputs = setup_window(def.kind, args.seed, MIN_SETUPS, &mut rec, &mut setups)?;

    // The warm-up pass fills allocator and caches, and is the reference
    // every later pass's simulated results must repeat exactly.
    let reference = workload::run_pass(&inputs, None);
    let (mut attempted, mut failed) = (reference.ops(), reference.failed_ops());
    let mut check = |pass: &mut Pass| {
        pass.check_against(&reference);
        attempted += pass.ops();
        failed += pass.failed_ops();
    };

    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let mut pass = workload::run_pass(&inputs, None);
        check(&mut pass);
        passes.push(pass);
    }
    let peak_rss_mb = host::peak_rss_mb();
    setup_window(def.kind, args.seed, 1, &mut rec, &mut setups)?;

    let counts = reference.counts();
    let sim_cycles = counts.get("sim_cycles").copied().unwrap_or(0);
    let setup_totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let pass_cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let pass_rates: Vec<f64> = pass_walls
        .iter()
        .map(|w| sim_cycles as f64 / 1e6 / w)
        .collect();
    let cpu_per_wall = |picked: &[usize]| {
        stats::median(
            &picked
                .iter()
                .map(|&i| passes[i].cpu_s / passes[i].wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let wall = |picked: &[usize]| pass_wall_s(&passes, picked);

    let mut end_to_end = Metrics::new();
    end_to_end.insert(
        "setup_s",
        estimate(&setup_totals, |picked| {
            low_quartile(picked.iter().map(|&i| setup_totals[i]))
        }),
    );
    end_to_end.insert("wall_s", estimate(&pass_walls, wall));
    end_to_end.insert(
        "cpu_s",
        estimate(&pass_cpus, |picked| wall(picked) * cpu_per_wall(picked)),
    );
    end_to_end.insert(
        "sim_mcycles_per_s",
        estimate(&pass_rates, |picked| sim_cycles as f64 / 1e6 / wall(picked)),
    );
    end_to_end.insert("peak_rss_mb", single(peak_rss_mb));
    end_to_end.insert("sim_cycles", single(sim_cycles as f64));

    let mut per_layer = Metrics::new();
    if args.traced {
        let mut traced = Traced::default();
        let mut pass = workload::run_pass(&inputs, Some((&mut rec, &mut traced)));
        check(&mut pass);
        let wall_s = end_to_end["wall_s"].value;
        per_layer.insert(
            "bench.trace_overhead_pct",
            single(100.0 * (pass.wall_s / wall_s - 1.0)),
        );
        layer_metrics(&mut per_layer, &inputs, &setups, &passes, &counts, &rec);
        probes::run(&inputs, &traced, &mut rec, &mut per_layer);
        let cpu_s = end_to_end["cpu_s"].value;
        if def.kind == Kind::FleetServing {
            let threads = def.threads as f64;
            per_layer.insert(
                "fleet.parallel_efficiency",
                single(cpu_s / (wall_s * threads)),
            );
        }
    }
    end_to_end.insert(
        FAILED_OPS_SHARE.name,
        single(failed as f64 / attempted as f64),
    );

    let ops = inputs
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let cycles = reference.units[i]
                .counts
                .get("sim_cycles")
                .copied()
                .unwrap_or(0);
            (
                op.name.clone(),
                cycles,
                low_quartile(passes.iter().map(|p| p.units[i].wall_ms)),
            )
        })
        .collect();
    Ok(Measured {
        def,
        attempted,
        failed,
        passes: passes.len(),
        setups: setups.len(),
        end_to_end,
        per_layer,
        ops,
        spans: rec.to_json(),
    })
}

/// The per-layer metrics that need no probe: set-up phases, exact counters
/// of a pass, per-op wall over the measured passes, and the traced pass's
/// spans.
fn layer_metrics(
    m: &mut Metrics,
    inputs: &workload::Inputs,
    setups: &[SetupTimes],
    passes: &[Pass],
    counts: &workload::Counts,
    rec: &Recorder,
) {
    let of = |f: fn(&SetupTimes) -> f64| median_of(&setups.iter().map(f).collect::<Vec<_>>());
    let last = setups.last().expect("set up at least once");
    m.insert("workloads.build_s", of(|s| s.build_s));
    m.insert("workloads.programs", single(inputs.progs.len() as f64));
    m.insert("workloads.ir_instrs", single(last.ir_instrs as f64));
    m.insert("ir.verify_s", of(|s| s.verify_s));
    m.insert(
        "ir.verify_instrs_per_s",
        single(stats::rate(last.ir_instrs, m["ir.verify_s"].value)),
    );
    m.insert("vm.baseline_s", of(|s| s.baseline_s));
    m.insert(
        "vm.baseline_mcycles_per_s",
        single(stats::rate(last.baseline_cycles, m["vm.baseline_s"].value) / 1e6),
    );

    let total = counts.get("sim_cycles").copied().unwrap_or(0);
    for def in PER_LAYER {
        if let Some(v) = counts.get(def.name) {
            m.insert(def.name, single(*v as f64));
        } else if let Some(slug) = def.name.strip_prefix("aos.sim_share.") {
            let cycles = counts.get(slug).copied().unwrap_or(0);
            m.insert(def.name, single(stats::rate(cycles, total as f64)));
        }
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    if count("vm.guard_checks") > 0.0 {
        m.insert(
            "vm.guard_hit_ratio",
            single(1.0 - count("vm.guard_misses") / count("vm.guard_checks")),
        );
    }
    let served = count("fleet.cache_hits") + count("fleet.cache_misses");
    if served > 0.0 {
        m.insert(
            "fleet.cache_hit_ratio",
            single(count("fleet.cache_hits") / served),
        );
    }

    if inputs.kind != Kind::FleetServing {
        let op_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.units.iter().map(|u| u.wall_ms))
            .collect();
        m.insert("aos.run_ms_p50", median_of(&op_ms));
        m.insert("aos.run_ms_p90", single(stats::percentile(&op_ms, 90.0)));
    }
    if inputs.twins() {
        let traced: f64 = passes.iter().map(|p| p.twin_traced_s).sum();
        let untraced: f64 = passes.iter().map(|p| p.twin_untraced_s).sum();
        m.insert(
            "trace.overhead_pct",
            single(100.0 * (traced / untraced - 1.0)),
        );
    }
    if inputs.kind == Kind::SuiteSteady {
        // Geometric mean over programs of cins cycles / fixed-3 cycles; the
        // ops alternate (cins, fixed3) per program.
        let units = &passes[0].units;
        let log_sum: f64 = units
            .chunks(2)
            .map(|pair| {
                (pair[0].counts["sim_cycles"] as f64 / pair[1].counts["sim_cycles"] as f64).ln()
            })
            .sum();
        let geomean = (log_sum / (units.len() / 2) as f64).exp();
        m.insert("aos.cs_speedup_pct", single(100.0 * (geomean - 1.0)));
    }

    let layers = rec.layers();
    let total_s = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s);
    m.insert("aos.new_s", single(total_s("aos.new")));
    m.insert("aos.report_s", single(total_s("aos.report")));
    for (span, total, count, p50) in [
        (
            "aos.step_quiet",
            "aos.step_quiet_s",
            "aos.step_quiet_count",
            "aos.step_quiet_us_p50",
        ),
        (
            "aos.step_organizer",
            "aos.step_organizer_s",
            "aos.step_organizer_count",
            "aos.step_organizer_us_p50",
        ),
        (
            "aos.step_compile",
            "aos.step_compile_s",
            "aos.step_compile_count",
            "aos.step_compile_us_p50",
        ),
    ] {
        let us: Vec<f64> = rec.durations(span).iter().map(|s| s * 1e6).collect();
        m.insert(total, single(total_s(span)));
        m.insert(count, single(us.len() as f64));
        if !us.is_empty() {
            m.insert(p50, median_of(&us));
        }
    }
}

fn workload_value(r: &Measured) -> Value {
    Value::obj([
        ("threads".to_string(), Value::from(r.def.threads as u64)),
        ("passes".to_string(), Value::from(r.passes as u64)),
        ("setups".to_string(), Value::from(r.setups as u64)),
        ("attempted".to_string(), Value::from(r.attempted as u64)),
        ("failed".to_string(), Value::from(r.failed as u64)),
        (
            "end_to_end".to_string(),
            metrics::to_value(&end_to_end_with_failed(), &r.end_to_end, true),
        ),
        (
            "per_layer".to_string(),
            metrics::to_value(PER_LAYER, &r.per_layer, true),
        ),
        (
            "ops".to_string(),
            Value::Arr(
                r.ops
                    .iter()
                    .map(|(name, cycles, ms)| {
                        Value::obj([
                            ("name".to_string(), Value::from(name.as_str())),
                            ("sim_cycles".to_string(), Value::from(*cycles)),
                            ("wall_ms_p25".to_string(), Value::from(*ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn result_value(args: &RunArgs, workloads: Vec<(String, Value)>) -> Value {
    Value::obj([
        ("schema".to_string(), Value::from(SCHEMA)),
        ("seed".to_string(), Value::from(args.seed)),
        ("seconds".to_string(), Value::from(args.seconds)),
        ("traced".to_string(), Value::Bool(args.traced)),
        ("nproc".to_string(), Value::from(host::nproc() as u64)),
        ("workloads".to_string(), Value::obj(workloads)),
    ])
}

/// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`.
fn contract_line(r: &Measured, traced: bool) -> String {
    let metrics = if traced {
        metrics::to_value(PER_LAYER, &r.per_layer, false)
    } else {
        metrics::to_value(END_TO_END, &r.end_to_end, false)
    };
    aoci_json::to_string(&Value::obj([
        ("correct".to_string(), Value::Bool(r.failed == 0)),
        ("attempted".to_string(), Value::from(r.attempted as u64)),
        ("failed".to_string(), Value::from(r.failed as u64)),
        ("metrics".to_string(), metrics),
    ]))
}

fn run_one(def: WorkloadDef, args: &RunArgs) -> Result<bool, String> {
    let r = measure(def, args)?;
    println!(
        "workload {} seed {} threads {} setups {} passes {} ops attempted {} failed {}",
        def.name, args.seed, def.threads, r.setups, r.passes, r.attempted, r.failed
    );
    println!("end to end (recorder off):");
    print!(
        "{}",
        metrics::render(&end_to_end_with_failed(), &r.end_to_end)
    );
    if args.traced {
        println!("per layer:");
        print!("{}", metrics::render(PER_LAYER, &r.per_layer));
    }
    let result = result_value(args, vec![(def.name.to_string(), workload_value(&r))]);
    write(
        &out_dir().join("result.json"),
        &format!("{}\n", aoci_json::to_string_pretty(&result)),
    )?;
    write(
        &out_dir().join("spans.json"),
        &format!("{{\"{}\":{}}}\n", def.name, r.spans),
    )?;
    println!("{}", contract_line(&r, args.traced));
    Ok(r.failed == 0)
}

/// Runs every workload in a child process of its own and merges what each
/// wrote into one `result.json` and one `spans.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let (mut results, mut spans, mut clean) = (Vec::new(), Vec::new(), true);
    for def in WORKLOADS {
        let status = Command::new(&exe)
            .args(["run", "--workload", def.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        clean &= status.success();
        let result = read_json(&out_dir().join("result.json"))?;
        let one = result
            .get("workloads")
            .and_then(|w| w.get(def.name))
            .ok_or(format!("{}: the child wrote no result", def.name))?;
        results.push((def.name.to_string(), one.clone()));
        let text = std::fs::read_to_string(out_dir().join("spans.json"))
            .map_err(|e| format!("spans.json: {e}"))?;
        // `{"<name>":<spans>}` per child: drop the outer braces to splice.
        let inner = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or(format!("{}: the child wrote no spans", def.name))?;
        spans.push(inner.to_string());
    }
    let result = result_value(args, results);
    write(
        &out_dir().join("result.json"),
        &format!("{}\n", aoci_json::to_string_pretty(&result)),
    )?;
    write(
        &out_dir().join("spans.json"),
        &format!("{{{}}}\n", spans.join(",")),
    )?;
    println!(
        "wrote {} and spans.json for {} workloads",
        out_dir().join("result.json").display(),
        WORKLOADS.len()
    );
    Ok(clean)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let manifest = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    compare::compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &manifest,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|run| match run.workload {
            Some(def) => run_one(def, &run),
            None => run_all(&run),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
