//! The parallel sweep harness's core guarantee: **worker count is not an
//! input to any measured result**. The grid's rows and the
//! differential-oracle reports must serialize to the same bytes under
//! `AOCI_JOBS=1` (the caller runs every job itself), `2` and `8` — the job pool only
//! reorders *when* work happens on the wall clock, never *what* any job
//! computes or the order results are merged in.

use aoci_aos::FaultConfig;
use aoci_bench::{policy_label, sweep_into, Cell, EnvConfig, GridStore};
use aoci_core::PolicyKind;
use aoci_fuzz::oracle;
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

/// Worker counts the determinism contract is asserted over.
const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// An explicit configuration differing from the defaults only in worker
/// count and a short rep count — tests never read the ambient environment,
/// so they cannot be perturbed by (or race on) process-global state.
fn env_with_jobs(jobs: usize) -> EnvConfig {
    EnvConfig { jobs, reps: 2, ..EnvConfig::default() }
}

/// A shrunken suite workload: same structure, short run.
fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 150;
    spec
}

/// `grid.json` bytes are identical whether the sweep ran serially or on 2
/// or 8 workers.
#[test]
fn grid_json_is_byte_identical_across_job_counts() {
    let specs = vec![small("compress"), small("db")];
    let policies = vec![
        PolicyKind::ContextInsensitive,
        PolicyKind::Fixed { max: 2 },
        PolicyKind::AdaptiveResolving { max: 2 },
    ];
    let mut baseline: Option<String> = None;
    for jobs in JOB_COUNTS {
        let mut store = GridStore::default();
        let stats = sweep_into(&mut store, &specs, &policies, &env_with_jobs(jobs))
            .expect("an empty store has cells to measure");
        assert_eq!(stats.jobs, specs.len() * policies.len() * 2, "jobs={jobs}");
        let json = store.to_json();
        match &baseline {
            None => baseline = Some(json),
            Some(b) => assert_eq!(
                &json, b,
                "grid.json bytes diverged between AOCI_JOBS=1 and AOCI_JOBS={jobs}"
            ),
        }
    }
}

/// Golden cells: the tests above (and every CI `cmp`) compare two runs of
/// today's code with each other; this one compares today's code with the
/// committed `results/grid.json`, row for row and bit for bit, so a change
/// that moves simulated numbers in *every* mode still shows. The cells are
/// full-size, measured by the one sweep path under the configuration the
/// committed sweep ran with (no knob set).
#[test]
fn golden_cells_match_the_committed_grid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/grid.json");
    let text = std::fs::read_to_string(path).expect("results/grid.json is readable");
    let committed = GridStore::from_json(&text).expect("results/grid.json parses");
    assert!(!committed.osr && !committed.async_compile, "the committed sweep runs with no flag");
    let db = [
        PolicyKind::ContextInsensitive,
        PolicyKind::Fixed { max: 3 },
        PolicyKind::ParameterlessClass { max: 3 },
        PolicyKind::AdaptiveResolving { max: 3 },
    ];
    let compress = [PolicyKind::Fixed { max: 3 }];
    let env = EnvConfig::default();
    let mut measured = GridStore::default();
    for (workload, policies) in [("db", &db[..]), ("compress", &compress[..])] {
        let spec = spec_by_name(workload).expect("suite workload");
        sweep_into(&mut measured, &[spec], policies, &env).expect("an empty store measures");
        for &policy in policies {
            let label = policy_label(policy);
            let bits = |cell: Option<Cell>| -> Vec<u64> {
                cell.expect("cell is present").0.iter().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(measured.get(workload, &label)),
                bits(committed.get(workload, &label)),
                "{workload}::{label} moved"
            );
        }
    }
}

/// A cached grid is not re-measured: sweeping the same matrix into a full
/// store is a no-op for any worker count.
#[test]
fn full_store_sweeps_nothing() {
    let specs = vec![small("db")];
    let policies = vec![PolicyKind::Fixed { max: 2 }];
    let mut store = GridStore::default();
    sweep_into(&mut store, &specs, &policies, &env_with_jobs(2)).expect("measures the cell");
    let before = store.to_json();
    assert!(sweep_into(&mut store, &specs, &policies, &env_with_jobs(8)).is_none());
    assert_eq!(store.to_json(), before);
}

/// A cell is cached only with every rep the sweep asks for: a 2-rep store
/// swept at 3 reps runs one job per cell and ends byte-identical to a fresh
/// 3-rep sweep; swept back at 2 it measures nothing and keeps reps 0 and 1.
#[test]
fn a_short_store_measures_only_the_missing_reps() {
    let specs = vec![small("compress"), small("db")];
    let policies = vec![PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 2 }];
    let at = |reps: usize| EnvConfig { reps, ..env_with_jobs(2) };
    let fresh = |reps: usize| {
        let mut store = GridStore::default();
        sweep_into(&mut store, &specs, &policies, &at(reps)).expect("an empty store measures");
        store.to_json()
    };
    let mut store = GridStore::default();
    sweep_into(&mut store, &specs, &policies, &at(2)).expect("an empty store measures");
    let stats = sweep_into(&mut store, &specs, &policies, &at(3)).expect("rep 2 is missing");
    assert_eq!(stats.jobs, specs.len() * policies.len(), "one job per cell");
    assert_eq!(store.to_json(), fresh(3));
    assert!(sweep_into(&mut store, &specs, &policies, &at(2)).is_none());
    assert_eq!(store.to_json(), fresh(2));
}

/// The document records the flags its rows were measured under: a store
/// swept without OSR (or background compilation) is measured afresh when
/// the sweep turns it on, and ends byte-identical to a fresh sweep with it.
#[test]
fn a_store_measured_under_other_flags_is_remeasured() {
    let specs = vec![small("db")];
    let policies = vec![PolicyKind::Fixed { max: 2 }];
    let plain = env_with_jobs(2);
    for flagged in [
        EnvConfig { osr: true, ..plain.clone() },
        EnvConfig { async_compile: true, ..plain.clone() },
    ] {
        let mut store = GridStore::default();
        sweep_into(&mut store, &specs, &policies, &plain).expect("an empty store measures");
        let stats = sweep_into(&mut store, &specs, &policies, &flagged).expect("re-measured");
        assert_eq!(stats.jobs, flagged.reps);
        assert_eq!((store.osr, store.async_compile), (flagged.osr, flagged.async_compile));
        let mut fresh = GridStore::default();
        sweep_into(&mut fresh, &specs, &policies, &flagged).expect("an empty store measures");
        assert_eq!(store.to_json(), fresh.to_json());
    }
}

/// Policy × ±OSR × ±chaos under the differential oracle's configuration
/// serializes to byte-identical reports for any worker count.
#[test]
fn oracle_reports_are_byte_identical_across_job_counts() {
    let w = build(&small("compress"));
    let seed = 7;
    let mut cells: Vec<(PolicyKind, bool, bool)> = Vec::new();
    for policy in [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }] {
        for osr in [false, true] {
            for chaos in [false, true] {
                cells.push((policy, osr, chaos));
            }
        }
    }
    let render = |jobs: usize| -> String {
        let env = env_with_jobs(jobs);
        env.pool()
            .map(cells.clone(), |&(policy, osr, chaos)| {
                let mut c = oracle::config(policy);
                if osr {
                    c = c.enable_osr();
                }
                if chaos {
                    c = c.enable_faults(FaultConfig::chaos(seed));
                }
                let report = aoci_aos::AosSystem::new(&w.program, c).run().expect("runs");
                format!("{policy}/osr={osr}/chaos={chaos}: {}\n", aoci_json::to_string(&report.to_value()))
            })
            .concat()
    };
    let serial = render(1);
    assert!(serial.len() > cells.len(), "reports rendered");
    for jobs in [2, 8] {
        assert_eq!(render(jobs), serial, "oracle reports diverged at jobs={jobs}");
    }
}
