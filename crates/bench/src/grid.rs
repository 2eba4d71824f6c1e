//! The shared (workload × policy × rep) measurement grid with JSON caching
//! and a deterministic parallel sweep.
//!
//! The sweep materializes the (workload × policy × rep) matrix as a
//! [`SweepJob`] list in **canonical order** (suite order, then policy
//! roster order, then repetition index), runs it across the fixed-worker
//! [`JobPool`](aoci_core::JobPool), and appends each job's [`Row`] to its
//! cell in that same order. Each job is a pure function of its descriptor
//! (see [`run_rep`]), the pool returns results in job-list order regardless
//! of scheduling, and [`GridStore`] keeps its cells in a `BTreeMap` — three
//! layers of ordering that together make `results/grid.json`
//! byte-identical for any `AOCI_JOBS` value (asserted by
//! `tests/parallel_determinism.rs`). The grid stores no aggregate: the
//! figures fold each [`Cell`] when they render.

use crate::env::EnvConfig;
use crate::metrics::{
    columns, policy_label, row_of, run_rep, Cell, Row, POLICY_GROUPS, RESULT, WIDTH,
};
use aoci_core::{PolicyKind, SweepStats};
use aoci_json::Value;
use aoci_workloads::{build, suite, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The cached measurement grid: one [`Row`] per repetition, and the sweep
/// flags the rows were measured under.
#[derive(Debug, Default)]
pub struct GridStore {
    /// Whether the rows were measured with OSR on (`AOCI_OSR`).
    pub osr: bool,
    /// Whether the rows were measured with background compilation
    /// (`AOCI_ASYNC`).
    pub async_compile: bool,
    /// Each (workload, policy label) cell's rows, indexed by rep.
    cells: BTreeMap<(String, String), Vec<Row>>,
}

impl GridStore {
    /// Serializes the grid as a JSON document: the column names once, then
    /// one `[workload, policy, rep, values…]` row per line (an absent
    /// program result is `null`).
    pub fn to_json(&self) -> String {
        let names = Value::Arr(columns().into_iter().map(Value::from).collect());
        let mut out = format!(
            "{{\n  \"async_compile\": {},\n  \"columns\": {},\n  \"osr\": {},\n  \"rows\": [",
            self.async_compile,
            aoci_json::to_string(&names),
            self.osr
        );
        let mut sep = "\n    ";
        for ((workload, policy), rows) in &self.cells {
            for (rep, row) in rows.iter().enumerate() {
                let key = [workload.as_str(), policy.as_str()].map(Value::from);
                let values = row.iter().map(|&v| Value::from(v));
                let cells = key.into_iter().chain([Value::from(rep as u64)]).chain(values);
                out.push_str(sep);
                out.push_str(&aoci_json::to_string(&Value::Arr(cells.collect())));
                sep = ",\n    ";
            }
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Deserializes a grid; `None` for a malformed document, a column list
    /// other than this build's, a row of the wrong width, or a cell whose
    /// reps are not `0, 1, …` in order.
    pub fn from_json(s: &str) -> Option<GridStore> {
        let doc = aoci_json::parse(s).ok()?;
        let names = doc.get("columns")?.as_arr()?;
        if !names.iter().map(Value::as_str).eq(columns().into_iter().map(Some)) {
            return None;
        }
        let mut store = GridStore {
            osr: doc.get("osr")?.as_bool()?,
            async_compile: doc.get("async_compile")?.as_bool()?,
            cells: BTreeMap::new(),
        };
        for row in doc.get("rows")?.as_arr()? {
            let [workload, policy, rep, values @ ..] = row.as_arr()? else {
                return None;
            };
            if values.len() != WIDTH {
                return None;
            }
            let key = (workload.as_str()?.to_string(), policy.as_str()?.to_string());
            let rows = store.cells.entry(key).or_default();
            if rep.as_u64()? != rows.len() as u64 {
                return None;
            }
            let mut row = [0.0; WIDTH];
            for (slot, v) in row.iter_mut().zip(values) {
                *slot = match v {
                    Value::Null => f64::NAN,
                    v => v.as_f64()?,
                };
            }
            rows.push(row);
        }
        Some(store)
    }

    /// The cell of `(workload, policy)`: every rep the store holds.
    pub fn get(&self, workload: &str, policy: &str) -> Option<Cell<'_>> {
        let rows = self.cells.get(&(workload.to_string(), policy.to_string()))?;
        Some(Cell(rows))
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

/// Measures every rep missing from `store` over the (spec × policy) cells,
/// running the missing (cell × rep) jobs across the `env.jobs`-worker pool,
/// and appends their rows in canonical order. A cell is cached only when it
/// holds reps `0..env.reps` (any beyond are dropped), and a store measured
/// under other sweep flags (`osr`, `async_compile`) is measured afresh.
/// Returns the sweep timing, or `None` if nothing was missing. The
/// resulting store contents are byte-identical for any worker count.
pub fn sweep_into(
    store: &mut GridStore,
    specs: &[WorkloadSpec],
    policies: &[PolicyKind],
    env: &EnvConfig,
) -> Option<SweepStats> {
    if (store.osr, store.async_compile) != (env.osr, env.async_compile) {
        let (osr, async_compile) = (env.osr, env.async_compile);
        *store = GridStore { osr, async_compile, ..GridStore::default() };
    }
    let mut cells: Vec<(usize, usize)> = Vec::new();
    let mut have: Vec<usize> = Vec::new();
    for (wi, spec) in specs.iter().enumerate() {
        for (pi, &policy) in policies.iter().enumerate() {
            let key = (spec.name.to_string(), policy_label(policy));
            let rows = store.cells.entry(key).or_default();
            rows.truncate(env.reps);
            if rows.len() < env.reps {
                cells.push((wi, pi));
                have.push(rows.len());
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

    let jobs: Vec<SweepJob> = job_list(&cells, env.reps)
        .into_iter()
        .enumerate()
        .filter(|(i, job)| job.rep >= have[i / env.reps])
        .map(|(_, job)| job)
        .collect();
    let total = jobs.len();
    let (results, stats) = env.pool().run(jobs.clone(), |job| {
        let spec = &specs[job.workload];
        let policy = policies[job.policy];
        eprintln!(
            "[grid] {} × {} rep {} ({} jobs total)",
            spec.name,
            policy_label(policy),
            job.rep,
            total
        );
        row_of(&run_rep(&workloads[&job.workload].program, spec.name, policy, job.rep, env))
    });

    // Results arrive in job-list order: each cell's missing reps in rep
    // order, right after the reps it already holds.
    for (job, result) in jobs.iter().zip(results) {
        let key = (specs[job.workload].name.to_string(), policy_label(policies[job.policy]));
        let rows = store.cells.get_mut(&key).expect("every swept cell has an entry");
        if let Some(first) = rows.first() {
            assert!(
                first[RESULT].total_cmp(&result.output[RESULT]).is_eq(),
                "nondeterministic program result"
            );
        }
        rows.push(result.output);
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

    /// A row a test can tell apart from its neighbours.
    fn row(seed: f64) -> Row {
        std::array::from_fn(|i| seed + i as f64 / 8.0)
    }

    #[test]
    fn keys_round_trip() {
        let mut s = GridStore { osr: true, ..GridStore::default() };
        let mut result_absent = row(2.0);
        result_absent[RESULT] = f64::NAN;
        s.cells.insert(("w".into(), "fixed/3".into()), vec![row(1.0), result_absent]);
        assert_eq!(s.get("w", "fixed/3").map(|c| c.0.len()), Some(2));
        assert!(s.get("w", "fixed/4").is_none());
        let json = s.to_json();
        let back = GridStore::from_json(&json).expect("round trip");
        assert!(back.osr && !back.async_compile);
        let bits = |store: &GridStore| -> Vec<u64> {
            store.cells.values().flatten().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&back), bits(&s));
        assert_eq!(back.to_json(), json);
    }

    /// A document is read only when its columns are this build's and every
    /// row has their width; anything else is re-measured, not misread.
    #[test]
    fn doctored_documents_are_rejected() {
        let mut s = GridStore::default();
        s.cells.insert(("w".into(), "cins".into()), vec![row(1.0)]);
        let json = s.to_json();
        assert!(GridStore::from_json(&json).is_some());
        let renamed = json.replacen("\"samples\"", "\"sample_count\"", 1);
        assert!(GridStore::from_json(&renamed).is_none(), "a renamed column");
        let reordered =
            json.replacen("\"samples\",\"traces_recorded\"", "\"traces_recorded\",\"samples\"", 1);
        assert!(GridStore::from_json(&reordered).is_none(), "reordered columns");
        let short = json.replacen(",1.125,", ",", 1);
        assert_ne!(short, json);
        assert!(GridStore::from_json(&short).is_none(), "a row one value short");
        let skipped = json.replacen("\"cins\",0,", "\"cins\",1,", 1);
        assert!(GridStore::from_json(&skipped).is_none(), "a cell starting at rep 1");
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
