//! Per-method compilation diagnostics, plus the experiment-knob table and
//! telemetry dashboards.
//!
//! * `diag [workload]` — runs the workload (default `compress`) under the
//!   baseline and `fixed/3` policies and dumps every optimizing
//!   compilation per method.
//! * `diag --knobs [--md]` — prints the generated table of every `AOCI_*`
//!   environment variable: name, type, default, and effect. Rendered
//!   straight from the [`aoci_bench::env`] knob registry — the same
//!   descriptors the parser reads through — so the table cannot drift
//!   from the implementation. `--md` emits the markdown flavour that the
//!   EXPERIMENTS.md knob table (and its CI drift check) uses.
//! * `diag --metrics [workload]` — runs the workload with the telemetry
//!   registry on and renders the per-policy sparkline dashboards plus the
//!   final counter/histogram summary (DESIGN.md §14).

use aoci_aos::{AosConfig, AosSystem};
use aoci_bench::{render_table, EnvConfig};
use aoci_core::PolicyKind;
use aoci_telemetry::dashboard;
use aoci_workloads::{build, spec_by_name};
use std::collections::HashMap;

fn print_knobs(markdown: bool) {
    if markdown {
        print!("{}", EnvConfig::knob_markdown());
        return;
    }
    println!("AOCI_* experiment knobs (all parsed once, in aoci_bench::env):\n");
    let header =
        vec!["variable".to_string(), "type".to_string(), "default".to_string(), "effect".to_string()];
    println!("{}", render_table(&header, &EnvConfig::knob_rows()));
}

/// `diag --metrics`: both policies with the registry on, dashboards and
/// final aggregates on stdout.
fn print_metrics(name: &str) {
    let Some(spec) = spec_by_name(name) else {
        eprintln!("diag: unknown workload {name:?}");
        std::process::exit(2);
    };
    let w = build(&spec);
    for policy in [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }] {
        let report = AosSystem::new(&w.program, AosConfig::new(policy).enable_metrics())
            .run()
            .expect("metered diag run");
        let log = report.telemetry.as_ref().expect("metrics were enabled");
        print!("{}", dashboard(&format!("{name}/{policy:?}"), log));
        println!("  final: {} counters, {} gauges, {} histograms", log.counters.len(), log.gauges.len(), log.histograms.len());
        for (hname, h) in &log.histograms {
            println!(
                "  hist {hname}: n={} mean={:.1} p50={} max={}",
                h.count(),
                h.mean().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--knobs") => {
            print_knobs(args.get(1).map(String::as_str) == Some("--md"));
            return;
        }
        Some("--metrics") => {
            print_metrics(args.get(1).map_or("compress", String::as_str));
            return;
        }
        _ => {}
    }
    let name = args.first().map_or("compress", String::as_str);
    let Some(spec) = spec_by_name(name) else {
        eprintln!("diag: unknown workload or flag {name:?}");
        eprintln!("usage: diag [workload] | diag --knobs [--md] | diag --metrics [workload]");
        std::process::exit(2);
    };
    let w = build(&spec);
    for policy in [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }] {
        let report = AosSystem::new(&w.program, AosConfig::new(policy)).run().unwrap();
        println!("=== {policy:?}: cumulative={} current={} compiles={} total_cycles={}",
            report.optimized_code_size, report.current_optimized_size,
            report.opt_compilations, report.total_cycles());
        let mut per_method: HashMap<_, Vec<_>> = HashMap::new();
        for c in &report.compilations {
            per_method.entry(c.method).or_default().push(c);
        }
        let mut rows: Vec<_> = per_method.into_iter().collect();
        rows.sort_by_key(|(m, _)| *m);
        for (m, cs) in rows {
            let name = w.program.method(m).name();
            let sizes: Vec<_> = cs.iter().map(|c| (c.generated_size, c.inlines, c.guarded)).collect();
            println!("  {name:<10} x{}: {:?} (orig {})", cs.len(), sizes, w.program.method(m).size_estimate());
        }
    }
}
