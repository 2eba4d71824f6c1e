use aoci_aos::{AosConfig, AosSystem, FaultConfig, TraceConfig};
use aoci_bench::EnvConfig;
use aoci_core::PolicyKind;
use aoci_telemetry::{dashboard, to_jsonl, to_prometheus, write_text};
use aoci_workloads::{build, suite};

/// The flight recorder's ring capacity per run: the window the Chrome-trace
/// export chooses from.
const TRACE_CAPACITY: usize = 1 << 16;

/// Quick end-to-end sanity run over the whole suite, executed across the
/// `AOCI_JOBS` sweep pool (default: all cores; the per-run lines print in
/// canonical suite × policy order whatever order the workers finish in).
///
/// Set `AOCI_FAULTS=<seed>` to enable the everything-on fault-injection
/// profile ([`FaultConfig::chaos`]) with that seed: every run must still
/// complete, and the per-run line gains the recovery-event counts. Set
/// `AOCI_OSR=1` to enable on-stack replacement; the per-run line then
/// gains the OSR request/denial/entry counts. Set `AOCI_ASYNC=1` to compile
/// on the simulated background worker pool; the per-run line then gains
/// the queue/overlap counters.
///
/// Set `AOCI_TRACE=1` to turn the flight recorder on: the per-run line
/// gains the emitted/dropped/kind counts, the richest retained window of
/// the sweep (preferring windows that span inlining decisions, then most
/// distinct event kinds) is written as Chrome-trace JSON to
/// `AOCI_TRACE_OUT` (default `results/smoke_trace.json`, loadable in
/// `chrome://tracing` / Perfetto), and `AOCI_EXPLAIN=<pattern>`
/// additionally prints one `explain: …` line per inlining decision or
/// refusal whose host, callee or call site matches the pattern (empty
/// pattern matches all).
///
/// Set `AOCI_METRICS=1` to turn the telemetry registry on: the per-run
/// line gains the epoch/counter/histogram counts, every run's time series
/// is appended to the JSONL export at `AOCI_METRICS_OUT` (default
/// `results/smoke_metrics.jsonl`; a Prometheus text dump lands next to it
/// with a `.prom` extension), and the richest run renders as a terminal
/// sparkline dashboard. Zero simulated-cycle overhead: all printed cycle
/// metrics are identical with metrics on or off.
///
/// Run `diag --knobs` for the full knob table.
fn main() {
    let env = EnvConfig::from_env();
    let workloads: Vec<_> = suite().iter().map(build).collect();
    let policies = [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }];

    // The (workload × policy) smoke matrix as a job list; each job is a
    // pure function of its descriptor and the shared immutable programs.
    let jobs: Vec<(usize, PolicyKind)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| policies.iter().map(move |&p| (wi, p)))
        .collect();
    let (results, stats) = env.pool().run(jobs, |&(wi, policy)| {
        let mut config = AosConfig::new(policy);
        if env.osr {
            config = config.enable_osr();
        }
        if env.trace {
            config = config
                .enable_trace_with(TraceConfig { capacity: TRACE_CAPACITY });
        }
        if env.async_compile {
            config = config.enable_async_compile();
        }
        if env.metrics {
            config = config.enable_metrics();
        }
        if let Some(seed) = env.faults {
            config = config.enable_faults(FaultConfig::chaos(seed));
        }
        AosSystem::new(&workloads[wi].program, config).run().expect("runs")
    });

    // Best export candidate so far: (spans inline decisions, distinct
    // kinds) lexicographically, with the run label and rendered JSON.
    let mut best_trace: Option<((bool, usize), String, String)> = None;
    // Metrics exports accumulate across the sweep: JSONL + Prometheus text
    // for every run, one dashboard for the richest run (most epochs).
    let (mut jsonl, mut prom) = (String::new(), String::new());
    let mut best_dash: Option<(usize, String)> = None;
    for (i, jr) in results.iter().enumerate() {
        let (wi, policy) = (i / policies.len(), policies[i % policies.len()]);
        let (report, wall) = (&jr.output, jr.wall);
        let w = &workloads[wi];
        print!(
            "{:<10} {:?}: wall={:?} cycles={} cum={} cur={} compiles={} samples={} rules={} baseline_methods={} frac_compile={:.3}% frac_listen={:.3}%",
            w.name,
            policy,
            wall,
            report.total_cycles(),
            report.optimized_code_size,
            report.current_optimized_size,
            report.opt_compilations,
            report.samples,
            report.final_rules,
            report.baseline_compilations,
            report.fraction(aoci_vm::Component::CompilationThread) * 100.0,
            report.fraction(aoci_vm::Component::Listeners) * 100.0,
        );
        if env.osr {
            print!(
                " | osr: requests={} denied={} entries={}",
                report.osr.requests, report.osr.denied, report.osr.entries,
            );
        }
        if env.async_compile {
            let ev = &report.async_compile;
            print!(
                " | async: enqueued={} dispatched={} completed={} stale={} full={} abandoned={} depth={} overlap={} stall={}",
                ev.enqueued,
                ev.dispatched,
                ev.completed,
                ev.stale_drops,
                ev.queue_full_drops,
                ev.abandoned_in_flight,
                ev.max_queue_depth,
                ev.background_overlap_cycles,
                ev.foreground_stall_cycles,
            );
        }
        if env.faults.is_some() {
            let ev = &report.recovery;
            print!(
                " | recovery: inval={} retries={} quarantined={} rejected={} (injected: compile={} traces={} drops={} bursts={})",
                ev.invalidations,
                ev.compile_retries,
                ev.quarantined_methods,
                ev.rejected_traces,
                ev.injected_compile_faults,
                ev.injected_corrupt_traces,
                ev.dropped_samples,
                ev.receiver_bursts,
            );
        }
        if let Some((emitted, dropped, kinds)) = report.trace_summary() {
            print!(" | trace: emitted={emitted} dropped={dropped} kinds={kinds}");
        }
        if let Some(log) = &report.telemetry {
            print!(
                " | metrics: epochs={} counters={} hists={}",
                log.series.len(),
                log.counters.len(),
                log.histograms.len(),
            );
        }
        println!();
        if let Some(log) = &report.telemetry {
            let label = format!("{}/{policy:?}", w.name);
            jsonl.push_str(&to_jsonl(&label, log));
            prom.push_str(&to_prometheus(&label, log));
            if best_dash.as_ref().is_none_or(|(n, _)| log.series.len() > *n) {
                best_dash = Some((log.series.len(), dashboard(&label, log)));
            }
        }
        if let Some(log) = &report.trace_log {
            let resolve = |m: aoci_ir::MethodId| w.program.method(m).name().to_string();
            if let Some(pattern) = &env.explain {
                for line in log.explain(pattern, &resolve) {
                    println!("explain: {line}");
                }
            }
            let kinds = log.kinds();
            let score = (kinds.contains("inline-decision"), kinds.len());
            if best_trace.as_ref().is_none_or(|(s, _, _)| score > *s) {
                let label = format!("{} {policy:?}", w.name);
                best_trace = Some((score, label, log.to_chrome_string(&resolve)));
            }
        }
    }
    if let Some((_, label, json)) = best_trace {
        if let Err(e) = write_text(std::path::Path::new(&env.trace_out), &json) {
            eprintln!("smoke: {e}");
            std::process::exit(1);
        }
        println!("trace smoke complete: Chrome trace of `{label}` written to {}", env.trace_out);
    }
    if let Some((_, dash)) = best_dash {
        let jsonl_path = std::path::PathBuf::from(&env.metrics_out);
        let prom_path = jsonl_path.with_extension("prom");
        if let Err(e) =
            write_text(&jsonl_path, &jsonl).and_then(|()| write_text(&prom_path, &prom))
        {
            eprintln!("smoke: {e}");
            std::process::exit(1);
        }
        print!("{dash}");
        println!(
            "metrics smoke complete: JSONL time series written to {}, Prometheus dump to {}",
            jsonl_path.display(),
            prom_path.display(),
        );
    }
    if env.faults.is_some() {
        println!("fault-injected smoke complete: every run degraded gracefully");
    }
    if env.osr {
        println!("osr smoke complete: every run finished with OSR enabled");
    }
    if env.async_compile {
        println!("async smoke complete: every run finished with background compilation");
    }
    println!("smoke sweep: {}", stats.render());
}
