//! The shared (workload × policy) measurement grid with JSON caching and
//! a deterministic parallel sweep.
//!
//! The sweep materializes the (workload × policy × rep) matrix as a
//! [`SweepJob`] list in **canonical order** (suite order, then policy
//! roster order, then repetition index), runs it across the fixed-worker
//! [`JobPool`](aoci_core::JobPool), and merges results back by walking the
//! job list in that same canonical order. Each job is a pure function of its
//! descriptor (see [`run_rep`]), the pool returns results in job-list order
//! regardless of scheduling, and [`GridStore`] is a
//! `BTreeMap` keyed by `"workload::policy"` — three layers of ordering
//! that together make `results/grid.json` byte-identical for any
//! `AOCI_JOBS` value (asserted by `tests/parallel_determinism.rs`).

use crate::env::EnvConfig;
use crate::metrics::{aggregate, policy_label, run_rep, RunMetrics, POLICY_GROUPS};
use aoci_core::{PolicyKind, SweepStats};
use aoci_json::Value;
use aoci_workloads::{build, suite, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A `(workload, policy-label)` key into the grid.
pub type GridKey = (String, String);

/// The cached measurement grid.
#[derive(Debug, Default)]
pub struct GridStore {
    /// Keyed as `"workload::policy"`.
    pub entries: BTreeMap<String, RunMetrics>,
}

impl GridStore {
    fn key(workload: &str, policy: &str) -> String {
        format!("{workload}::{policy}")
    }

    /// Serializes the grid as a JSON document.
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|(k, m)| (k.clone(), m.to_value()))
            .collect::<BTreeMap<_, _>>();
        let doc = Value::obj([("entries".to_string(), Value::Obj(entries))]);
        aoci_json::to_string_pretty(&doc)
    }

    /// Deserializes a grid; `None` for malformed documents.
    pub fn from_json(s: &str) -> Option<GridStore> {
        let doc = aoci_json::parse(s).ok()?;
        let mut entries = BTreeMap::new();
        for (k, v) in doc.get("entries")?.as_obj()? {
            entries.insert(k.clone(), RunMetrics::from_value(v)?);
        }
        Some(GridStore { entries })
    }

    /// Fetches an entry.
    pub fn get(&self, workload: &str, policy: &str) -> Option<&RunMetrics> {
        self.entries.get(&Self::key(workload, policy))
    }

    /// Inserts an entry.
    pub fn insert(&mut self, m: RunMetrics) {
        self.entries
            .insert(Self::key(&m.workload, &m.policy), m);
    }
}

/// Path of the cached grid: `grid.json` under the configured results
/// directory (`AOCI_RESULTS_DIR`).
pub fn grid_path(env: &EnvConfig) -> PathBuf {
    PathBuf::from(&env.results_dir).join("grid.json")
}

/// The sensitivity sweep of the paper's figures: 2–5 normally, 2–3 in
/// quick mode (`AOCI_QUICK`).
pub fn max_levels(quick: bool) -> Vec<u8> {
    if quick {
        vec![2, 3]
    } else {
        vec![2, 3, 4, 5]
    }
}

/// All policies the figures need: the context-insensitive baseline plus
/// every group × max level (and the adaptive-resolving extension).
pub fn all_policies(quick: bool) -> Vec<PolicyKind> {
    let mut v = vec![PolicyKind::ContextInsensitive];
    for max in max_levels(quick) {
        for (_, make) in POLICY_GROUPS {
            v.push(make(max));
        }
        v.push(PolicyKind::AdaptiveResolving { max });
    }
    v
}

/// One repetition of one (workload × policy) cell — the unit the sweep
/// pool schedules. `workload` indexes the spec list the job list was built
/// from (jobs stay `Copy + Send`; the program itself is shared by
/// reference).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepJob {
    /// Index into the sweep's spec list.
    pub workload: usize,
    /// Index into the sweep's policy roster.
    pub policy: usize,
    /// Repetition index, `0..reps`.
    pub rep: usize,
}

/// Materializes the (workload × policy × rep) matrix as a job list in
/// **canonical order**: workload-major, then policy, then repetition — a
/// pure function of the three extents (property-tested in
/// `tests/proptest_sweep.rs`). `cells` restricts the matrix to the listed
/// (workload, policy) pairs, preserving canonical order; pass the full
/// cross product to sweep everything.
pub fn job_list(cells: &[(usize, usize)], reps: usize) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(cells.len() * reps);
    for &(workload, policy) in cells {
        for rep in 0..reps {
            jobs.push(SweepJob { workload, policy, rep });
        }
    }
    jobs
}

/// Measures every (spec × policy) cell missing from `store`, running the
/// (cell × rep) job list across the `env.jobs`-worker pool, and merges the
/// aggregates in canonical order. Returns the sweep timing, or `None` if
/// nothing was missing. The resulting store contents are byte-identical
/// for any worker count.
pub fn sweep_into(
    store: &mut GridStore,
    specs: &[WorkloadSpec],
    policies: &[PolicyKind],
    env: &EnvConfig,
) -> Option<SweepStats> {
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (wi, spec) in specs.iter().enumerate() {
        for (pi, &policy) in policies.iter().enumerate() {
            if store.get(spec.name, &policy_label(policy)).is_none() {
                cells.push((wi, pi));
            }
        }
    }
    if cells.is_empty() {
        return None;
    }

    // Build each needed workload once; jobs share the programs by
    // reference (an `AosSystem` run never mutates its program).
    let workloads: BTreeMap<usize, aoci_workloads::Workload> = cells
        .iter()
        .map(|&(wi, _)| wi)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|wi| (wi, build(&specs[wi])))
        .collect();

    let jobs = job_list(&cells, env.reps);
    let total = jobs.len();
    let (results, stats) = env.pool().run(jobs, |job| {
        let spec = &specs[job.workload];
        let policy = policies[job.policy];
        eprintln!(
            "[grid] {} × {} rep {} ({} jobs total)",
            spec.name,
            policy_label(policy),
            job.rep,
            total
        );
        run_rep(&workloads[&job.workload].program, spec.name, policy, job.rep, env)
    });

    // Merge in canonical cell order: results arrive in job-list order, so
    // each cell's repetitions are one contiguous rep-ordered chunk.
    for (ci, &(wi, pi)) in cells.iter().enumerate() {
        let reports: Vec<_> = results[ci * env.reps..(ci + 1) * env.reps]
            .iter()
            .map(|r| r.output.clone())
            .collect();
        store.insert(aggregate(specs[wi].name, policies[pi], &reports));
    }
    Some(stats)
}

/// Loads the cached grid (unless `env.rerun`), measures any missing
/// entries across the sweep pool, saves, and returns the complete grid
/// plus the sweep timing (when anything was measured).
pub fn load_or_run_grid_with(env: &EnvConfig) -> (GridStore, Option<SweepStats>) {
    let path = grid_path(env);
    let mut store = if env.rerun {
        GridStore::default()
    } else {
        std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| GridStore::from_json(&s))
            .unwrap_or_default()
    };

    let stats = sweep_into(&mut store, &suite(), &all_policies(env.quick), env);
    if let Some(stats) = &stats {
        eprintln!("[grid] sweep complete: {}", stats.render());
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let json = store.to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not cache grid to {}: {e}", path.display());
        }
    }
    (store, stats)
}

/// [`load_or_run_grid_with`] under the process environment — the figure
/// binaries' entry point.
pub fn load_or_run_grid() -> GridStore {
    load_or_run_grid_with(&EnvConfig::from_env()).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        let mut s = GridStore::default();
        let m = crate::metrics::RunMetrics {
            workload: "w".into(),
            policy: "fixed/3".into(),
            total_cycles: 1,
            cumulative_code: 1.0,
            current_code: 1.0,
            compile_cycles: 1.0,
            opt_compilations: 1.0,
            component_fracs: vec![],
            samples: 0.0,
            traces_recorded: 0.0,
            frames_walked: 0.0,
            guard_checks: 0.0,
            guard_misses: 0.0,
            virtual_dispatches: 0.0,
            stats_immediately_parameterless: 0.0,
            stats_parameterless_within_5: 0.0,
            stats_class_within_2: 0.0,
            stats_large_at_or_beyond_4: 0.0,
            methods_compiled: 0,
            result: None,
            osr_requests: 0.0,
            osr_denied: 0.0,
            osr_entries: 0.0,
            osr_exits: 0.0,
            recovery_invalidations: 0.0,
            recovery_retries: 0.0,
            recovery_quarantined: 0.0,
            recovery_rejected_traces: 0.0,
        };
        s.insert(m);
        assert!(s.get("w", "fixed/3").is_some());
        assert!(s.get("w", "fixed/4").is_none());
        let json = s.to_json();
        let back = GridStore::from_json(&json).unwrap();
        assert!(back.get("w", "fixed/3").is_some());
    }

    #[test]
    fn policy_roster_covers_figures() {
        // The full roster is 1 + 4 × 7 = 29 configurations; quick mode
        // halves the level sweep.
        for quick in [false, true] {
            let policies = all_policies(quick);
            assert!(policies.contains(&PolicyKind::ContextInsensitive));
            assert!(policies.len() == 1 + max_levels(quick).len() * 7);
        }
    }

    #[test]
    fn job_list_is_canonical_and_complete() {
        let cells = vec![(0, 0), (0, 2), (3, 1)];
        let jobs = job_list(&cells, 2);
        assert_eq!(jobs.len(), 6);
        // Cell-major, rep-minor, in the given cell order.
        assert_eq!(jobs[0], SweepJob { workload: 0, policy: 0, rep: 0 });
        assert_eq!(jobs[1], SweepJob { workload: 0, policy: 0, rep: 1 });
        assert_eq!(jobs[2], SweepJob { workload: 0, policy: 2, rep: 0 });
        assert_eq!(jobs[5], SweepJob { workload: 3, policy: 1, rep: 1 });
        // Pure function: rebuilding yields the identical list.
        assert_eq!(jobs, job_list(&cells, 2));
    }
}
