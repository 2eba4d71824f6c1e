//! Metric names, units and directions — the code-side twin of
//! `BENCHMARK.json` (a test keeps the two in step) — and the value type the
//! run reports them in.

use crate::stats::Summary;
use aoci_json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees, per workload. `failed_ops_share` is
/// reported beside these (and through the contract's `attempted`/`failed`
/// keys) but is not in `BENCHMARK.json`, whose metrics may never be 0.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    higher("sim_mcycles_per_s", "Mcycles/s"),
    lower("peak_rss_mb", "MB"),
    lower("sim_cycles", "cycles"),
];

/// `compare` bounds it at 0: any rise is a regression.
pub const FAILED_OPS_SHARE: Def = lower("failed_ops_share", "share");

/// The end-to-end metrics as `result.json` and the tables list them.
pub fn end_to_end_with_failed() -> Vec<Def> {
    END_TO_END
        .iter()
        .copied()
        .chain([FAILED_OPS_SHARE])
        .collect()
}

/// Single-layer metrics; prefixes are crate names. A metric a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[Def] = &[
    lower("workloads.build_s", "s"),
    higher("workloads.programs", "count"),
    higher("workloads.ir_instrs", "count"),
    lower("ir.verify_s", "s"),
    higher("ir.verify_instrs_per_s", "instrs/s"),
    lower("vm.baseline_s", "s"),
    higher("vm.baseline_mcycles_per_s", "Mcycles/s"),
    lower("vm.calls", "count"),
    lower("vm.virtual_dispatches", "count"),
    lower("vm.guard_checks", "count"),
    lower("vm.guard_misses", "count"),
    higher("vm.guard_hit_ratio", "ratio"),
    higher("vm.osr_entries", "count"),
    lower("vm.osr_exits", "count"),
    lower("aos.new_s", "s"),
    lower("aos.step_quiet_s", "s"),
    lower("aos.step_quiet_count", "count"),
    lower("aos.step_quiet_us_p50", "us"),
    lower("aos.step_organizer_s", "s"),
    lower("aos.step_organizer_count", "count"),
    lower("aos.step_organizer_us_p50", "us"),
    lower("aos.step_compile_s", "s"),
    lower("aos.step_compile_count", "count"),
    lower("aos.step_compile_us_p50", "us"),
    lower("aos.report_s", "s"),
    lower("aos.run_ms_p50", "ms"),
    lower("aos.run_ms_p90", "ms"),
    lower("aos.samples", "count"),
    lower("aos.opt_compiles", "count"),
    lower("aos.opt_code_bytes", "bytes"),
    higher("aos.rules_final", "count"),
    lower("aos.dcg_entries", "count"),
    lower("aos.invalidations", "count"),
    lower("aos.compile_retries", "count"),
    lower("aos.async_stale_drops", "count"),
    lower("aos.async_queue_full_drops", "count"),
    higher("aos.osr_requests", "count"),
    lower("aos.osr_denied", "count"),
    lower("aos.sim_share.listeners", "share"),
    lower("aos.sim_share.compilation_thread", "share"),
    lower("aos.sim_share.decay_organizer", "share"),
    lower("aos.sim_share.ai_organizer", "share"),
    lower("aos.sim_share.method_sample_organizer", "share"),
    lower("aos.sim_share.controller_thread", "share"),
    lower("aos.sim_share.missing_edge_organizer", "share"),
    lower("aos.sim_share.recovery", "share"),
    lower("aos.sim_share.osr", "share"),
    lower("aos.sim_share.app_baseline", "share"),
    higher("aos.sim_share.app_optimized", "share"),
    lower("aos.sim_share.baseline_compilation", "share"),
    higher("aos.cs_speedup_pct", "%"),
    higher("profile.walk_frames_per_s", "frames/s"),
    higher("profile.dcg_record_per_s", "entries/s"),
    lower("profile.dcg_hot_us", "us"),
    lower("profile.dcg_decay_us", "us"),
    lower("core.rules_build_us", "us"),
    higher("core.oracle_queries_per_s", "queries/s"),
    lower("opt.compile_us_p50", "us"),
    lower("opt.compile_us_p90", "us"),
    lower("opt.compiles", "count"),
    higher("opt.inlines", "count"),
    lower("opt.refusals", "count"),
    higher("opt.inline_ratio", "ratio"),
    lower("opt.generated_size", "units"),
    higher("opt.ir_instrs_per_s", "instrs/s"),
    lower("trace.events", "count"),
    lower("trace.dropped", "count"),
    lower("trace.overhead_pct", "%"),
    lower("telemetry.snapshots", "count"),
    lower("json.report_bytes", "bytes"),
    higher("json.encode_mb_per_s", "MB/s"),
    higher("json.parse_mb_per_s", "MB/s"),
    lower("fuzz.case_ms_p50", "ms"),
    lower("fuzz.case_ms_p90", "ms"),
    higher("fuzz.features", "count"),
    lower("fuzz.findings", "count"),
    higher("fleet.cache_hits", "count"),
    lower("fleet.cache_misses", "count"),
    higher("fleet.cache_hit_ratio", "ratio"),
    lower("fleet.server_compiles", "count"),
    lower("fleet.evictions", "count"),
    lower("fleet.invalidations", "count"),
    higher("fleet.warm_starts", "count"),
    lower("fleet.cycles_to_peak_cold", "cycles"),
    lower("fleet.cycles_to_peak_warm", "cycles"),
    higher("fleet.parallel_efficiency", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
];

/// Units of metrics that must repeat exactly at one commit and seed.
pub fn is_exact_unit(unit: &str) -> bool {
    matches!(unit, "count" | "cycles" | "bytes" | "units")
}

/// One measured value. `samples` summarises the passes (or calls) behind
/// it and is absent for a single reading. `halves` repeats an estimate on
/// the even and on the odd passes alone: how far the two disagree is the
/// run's own measure of how well the value repeats, which `compare` uses.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub samples: Option<Summary>,
    pub halves: Option<(f64, f64)>,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn single(value: f64) -> Metric {
    Metric {
        value,
        samples: None,
        halves: None,
    }
}

pub fn median_of(values: &[f64]) -> Metric {
    let s = crate::stats::summarize(values);
    Metric {
        value: s.median,
        samples: Some(s),
        halves: None,
    }
}

/// `{value, unit}` for every definition — 0 where the workload did not
/// produce the metric — plus, with `detail`, the sample summary `n, min, max`
/// and the half-sample estimates `lo, hi` where there are any.
pub fn to_value(defs: &[Def], metrics: &Metrics, detail: bool) -> Value {
    Value::obj(defs.iter().map(|d| {
        let m = metrics.get(d.name);
        let mut fields = vec![
            ("value", Value::from(m.map_or(0.0, |m| m.value))),
            ("unit", Value::from(d.unit)),
        ];
        if let Some(s) = m.and_then(|m| m.samples).filter(|_| detail) {
            fields.extend([
                ("n", Value::from(s.n as u64)),
                ("min", Value::from(s.min)),
                ("max", Value::from(s.max)),
            ]);
        }
        if let Some((a, b)) = m.and_then(|m| m.halves).filter(|_| detail) {
            fields.extend([("lo", Value::from(a.min(b))), ("hi", Value::from(a.max(b)))]);
        }
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        (d.name.to_string(), Value::obj(fields))
    }))
}

/// One table line per definition: name, value, unit, the sample summary and
/// the two half-sample estimates.
pub fn render(defs: &[Def], metrics: &Metrics) -> String {
    let mut out = String::new();
    for d in defs {
        let m = metrics.get(d.name);
        out += &format!(
            "  {:<40} {:>18.6} {:<10}",
            d.name,
            m.map_or(0.0, |m| m.value),
            d.unit
        );
        if let Some(s) = m.and_then(|m| m.samples) {
            out += &format!(" n={} min={:.6} max={:.6}", s.n, s.min, s.max);
        }
        if let Some((a, b)) = m.and_then(|m| m.halves) {
            out += &format!(" halves={:.6},{:.6}", a, b);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        aoci_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_arr()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn defined(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_reports() {
        let m = manifest();
        assert_eq!(
            listed(m.get("end_to_end").expect("end_to_end")),
            defined(END_TO_END)
        );
        assert_eq!(
            listed(m.get("per_layer").expect("per_layer")),
            defined(PER_LAYER)
        );
        let names: Vec<String> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_cover_every_clock_component() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        for c in aoci_vm::COMPONENTS {
            let name = format!("aos.sim_share.{}", c.slug());
            assert!(all.contains(&name.as_str()), "{name} missing");
        }
    }
}
