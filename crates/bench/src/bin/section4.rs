//! Regenerates the **Section 4 trace-walk statistics**: how quickly the
//! early-termination conditions trigger on sampled call stacks.
//!
//! Paper numbers: ~20% of sampled callees are immediately parameterless;
//! 50–80% of traces contain a parameterless call within five levels; in
//! 50–80% of cases only two edges are traversed before the first class
//! method; roughly half the time four or more edges precede the first
//! large method.

use aoci_bench::metrics::TRACE_STATS;
use aoci_bench::{load_or_run_grid, render_table};
use aoci_workloads::suite;

fn main() {
    let grid = load_or_run_grid();
    let mut rows = Vec::new();
    let mut sums = [0.0; 4];
    let specs = suite();
    for spec in &specs {
        // The stack-shape statistics do not depend on the policy (the
        // collector sees the full snapshot); use the baseline run.
        let m = grid.get(spec.name, "cins").expect("baseline present");
        let vals = TRACE_STATS.map(|col| m.first(col));
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.0}%", vals[0] * 100.0),
            format!("{:.0}%", vals[1] * 100.0),
            format!("{:.0}%", vals[2] * 100.0),
            format!("{:.0}%", vals[3] * 100.0),
        ]);
    }
    let n = specs.len() as f64;
    rows.push(vec![
        "mean".to_string(),
        format!("{:.0}%", sums[0] / n * 100.0),
        format!("{:.0}%", sums[1] / n * 100.0),
        format!("{:.0}%", sums[2] / n * 100.0),
        format!("{:.0}%", sums[3] / n * 100.0),
    ]);

    println!("Section 4 trace-walk statistics\n");
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "callee paramless".into(),
                "paramless ≤5".into(),
                "class ≤2".into(),
                "large ≥4".into(),
            ],
            &rows,
        )
    );
    println!("Paper: ~20%, 50–80%, 50–80%, ~50% respectively.");
}
