//! # aoci-bench — the evaluation harness
//!
//! Regenerates every table and figure of *Adaptive Online Context-Sensitive
//! Inlining* (CGO 2003) over the `aoci-workloads` suite:
//!
//! | binary     | paper artifact |
//! |------------|----------------|
//! | `table1`   | Table 1 — benchmark characteristics |
//! | `fig4`     | Figure 4(a–f) — wall-clock speedup vs context-insensitive |
//! | `fig5`     | Figure 5(a–f) — optimized code-size change |
//! | `fig6`     | Figure 6 — % execution time per AOS component |
//! | `summary`  | Abstract / Conclusion aggregate statistics |
//! | `section4` | Section 4 trace-walk statistics |
//! | `ablate`   | DESIGN.md ablations (matching, merging, decay, threshold, inline maps) |
//!
//! Runs are deterministic; to emulate the paper's best-of-20 protocol under
//! timer non-determinism, each configuration is run `AOCI_REPS` times
//! (default 3) with slightly perturbed sample periods and the median total
//! time / mean code size are reported. `results/grid.json` caches one row
//! per repetition, which the figure binaries fold when they render, so
//! they share one sweep; delete the file (or set `AOCI_RERUN=1`) to
//! re-measure. `AOCI_QUICK=1` runs a
//! reduced grid for fast iteration.
//!
//! Sweeps run the (workload × policy × rep) matrix across a fixed-worker
//! job pool — `AOCI_JOBS=N` selects the worker count (default: all cores;
//! `1` is the serial path) and `results/grid.json` is **byte-identical**
//! for any value. Every `AOCI_*` knob is parsed once, in [`mod@env`]; run
//! `diag --knobs` for the generated table.

pub mod env;
pub mod grid;
pub mod metrics;
pub mod table;

pub use env::{EnvConfig, Knob, KNOBS};
pub use grid::{
    grid_path, job_list, load_or_run_grid, load_or_run_grid_with, sweep_into, GridStore,
    SweepJob,
};
pub use metrics::{
    code_delta_pct, harmonic_mean_speedup_pct, policy_label, run_config, run_rep, speedup_pct,
    Cell, POLICY_GROUPS,
};
pub use table::{fmt_pct, render_table};
