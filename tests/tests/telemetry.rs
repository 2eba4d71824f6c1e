//! The telemetry subsystem's standing invariant (DESIGN.md §14): turning
//! the metrics registry on charges **zero simulated cycles** and changes
//! **no deterministic artifact**. `results/grid.json` and the fuzz
//! corpus must serialize to the same bytes with `AOCI_METRICS` on or off
//! (the property the CI `metrics-identity` jobs enforce at scale), and
//! the metric snapshots themselves are a deterministic artifact: bit-
//! identical across same-seed reruns and any `AOCI_JOBS` worker count,
//! and their exports are pinned to the bytes the owned per-epoch maps
//! rendered before the series was stored as value rows.

use aoci_aos::{AosConfig, AosSystem, FaultConfig};
use aoci_bench::{sweep_into, EnvConfig, GridStore};
use aoci_core::{JobPool, PolicyKind};
use aoci_fuzz::persist::corpus_to_value;
use aoci_fuzz::{run_campaign, CampaignConfig};
use aoci_telemetry::{dashboard, to_jsonl, to_prometheus};
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

/// A shrunken suite workload: same structure, short run.
fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 150;
    spec
}

/// An explicit configuration differing from the defaults only where the
/// test says so — never the ambient process environment.
fn env_metrics(metrics: bool) -> EnvConfig {
    EnvConfig { jobs: 2, reps: 2, metrics, ..EnvConfig::default() }
}

/// `grid.json` bytes are identical whether the sweep ran with the
/// registry on or off.
#[test]
fn grid_json_is_byte_identical_with_metrics_on() {
    let specs = vec![small("compress"), small("db")];
    let policies = vec![PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 2 }];
    let render = |metrics: bool| {
        let mut store = GridStore::default();
        sweep_into(&mut store, &specs, &policies, &env_metrics(metrics))
            .expect("an empty store has cells to measure");
        store.to_json()
    };
    assert_eq!(render(false), render(true), "AOCI_METRICS=1 perturbed grid.json");
}

/// The fuzz corpus fingerprint is identical whether every matrix cell ran
/// with the registry on or off.
#[test]
fn fuzz_corpus_is_byte_identical_with_metrics_on() {
    let render = |metrics: bool| {
        let out =
            run_campaign(&CampaignConfig { seed: 5, iters: 6, metrics }, &JobPool::new(2));
        assert!(out.clean(), "findings: {:?}", out.findings);
        aoci_json::to_string_pretty(&corpus_to_value(out.seed, 6, &out.corpus, &out.features))
    };
    assert_eq!(render(false), render(true), "AOCI_METRICS=1 perturbed corpus.json");
}

/// The snapshots themselves are deterministic artifacts: same-seed reruns
/// serialize every epoch to the same bytes at any worker count.
#[test]
fn metric_snapshots_are_byte_identical_across_worker_counts() {
    let workloads: Vec<_> =
        [small("compress"), small("db"), small("jess")].iter().map(build).collect();
    let policies = [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }];
    let jobs: Vec<(usize, PolicyKind)> = (0..workloads.len())
        .flat_map(|wi| policies.iter().map(move |&p| (wi, p)))
        .collect();
    let render = |workers: usize| -> String {
        let (results, _stats) = JobPool::new(workers).run(jobs.clone(), |&(wi, policy)| {
            let report =
                AosSystem::new(&workloads[wi].program, AosConfig::new(policy).enable_metrics())
                    .run()
                    .expect("metered run completes");
            let log = report.telemetry.expect("metrics were enabled");
            assert!(!log.series.is_empty(), "at least the final epoch snapshot");
            aoci_json::to_string(&log.to_value())
        });
        results.into_iter().map(|r| r.output).collect::<Vec<_>>().join("\n")
    };
    let serial = render(1);
    assert!(serial.contains("counters"));
    for workers in [2, 8] {
        assert_eq!(render(workers), serial, "metric snapshots diverged at jobs={workers}");
    }
}

/// Zero-cycle metering, end to end: the full report (clock components,
/// counters, code sizes — everything `to_value` serializes) is identical
/// with the registry on, not just the headline cycle total.
#[test]
fn metered_report_serializes_identically() {
    let w = build(&small("mtrt"));
    let run = |config: AosConfig| {
        let report = AosSystem::new(&w.program, config).run().expect("run completes");
        aoci_json::to_string(&report.to_value())
    };
    let policy = PolicyKind::AdaptiveResolving { max: 3 };
    assert_eq!(
        run(AosConfig::new(policy)),
        run(AosConfig::new(policy).enable_metrics()),
        "enable_metrics changed the serialized report"
    );
}

/// One metered run with every opt-in path on, whose three exports are
/// folded into a literal printed by this body at the commit *before* the
/// time series became value rows over shared name tables (one owned
/// `BTreeMap` snapshot per epoch then), and re-pinned once since, when the
/// always-zero `osr_exits` series left the exports (the only bytes that
/// moved: its JSONL key and its two Prometheus lines). Its 14 epochs see
/// names first recorded mid-run (the install counters at epoch 3,
/// `inline_refusals_not_hot` at 4, `inline_refusals_too_large` at 7), so a
/// reader that walks names by id instead of by bytes, or a row read at the
/// wrong width, moves the fold.
#[test]
fn metered_exports_match_the_parent_commit() {
    let w = build(&small("compress"));
    let config = AosConfig::new(PolicyKind::ParameterlessClass { max: 3 })
        .enable_osr()
        .enable_async_compile()
        .enable_faults(FaultConfig::chaos(42))
        .enable_metrics();
    let report = AosSystem::new(&w.program, config).run().expect("metered chaos run completes");
    let log = report.telemetry.expect("metrics were enabled");
    assert_eq!(log.series.len(), 14);
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for text in [to_jsonl("compress", &log), to_prometheus("compress", &log), dashboard("compress", &log)] {
        for byte in text.bytes() {
            fold = (fold ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(fold, 0xf6c2_81c9_f1c7_197e, "the metered exports moved");
}

/// The series' footprint, on the largest run the repo benchmark meters: the
/// javac suite program under `features_on`'s configuration (OSR, async
/// compile, the flight recorder, metrics and guard monitoring). Its rows are
/// stored as coded differences from the previous row: 1.25 bytes a cell
/// (234 057 bytes for 187 993 cells over 3 423 epochs), where a `u64` cell
/// took 8.
#[test]
fn the_javac_series_stays_within_two_bytes_a_cell() {
    let w = build(&spec_by_name("javac").expect("suite workload"));
    let config = AosConfig::new(PolicyKind::ParameterlessClass { max: 3 })
        .enable_osr()
        .enable_async_compile()
        .enable_trace()
        .enable_metrics()
        .enable_guard_monitoring();
    let report = AosSystem::new(&w.program, config).run().expect("javac run completes");
    let series = report.telemetry.expect("metrics were enabled").series;
    let (bytes, cells) = (series.row_bytes(), series.cells());
    println!("{} epochs, {cells} cells in {bytes} bytes", series.len());
    assert!(series.len() > 1_000, "javac no longer runs long enough: {} epochs", series.len());
    assert!(bytes <= 2 * cells, "{bytes} bytes for {cells} cells: over 2 bytes a cell");
}
