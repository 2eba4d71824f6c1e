//! Regenerates the **abstract / conclusion summary statistics**: with
//! minimal impact on performance (±1% on average) context sensitivity
//! enables ~10% reductions in compiled code space and compile time;
//! per-program performance ranged −4.2%..+5.3%; maximum reductions in
//! compile time and code space were 33.0% and 56.7%.

use aoci_bench::grid::max_levels;
use aoci_bench::metrics::{compile_delta_pct, RECOVERY};
use aoci_bench::{
    code_delta_pct, load_or_run_grid_with, policy_label, render_table, speedup_pct, EnvConfig,
    POLICY_GROUPS,
};
use aoci_workloads::suite;

fn main() {
    let env = EnvConfig::from_env();
    let (grid, sweep) = load_or_run_grid_with(&env);
    let specs = suite();

    let mut speedups: Vec<f64> = Vec::new();
    let mut code_deltas: Vec<f64> = Vec::new();
    let mut compile_deltas: Vec<f64> = Vec::new();
    let mut recovery_actions = 0.0;
    let mut per_policy_rows = Vec::new();

    for (group, make) in POLICY_GROUPS.iter() {
        for max in max_levels(env.quick) {
            let label = policy_label(make(max));
            let mut s_sum = 0.0;
            let mut c_sum = 0.0;
            let mut t_sum = 0.0;
            for spec in &specs {
                let cins = grid.get(spec.name, "cins").expect("baseline");
                let m = grid.get(spec.name, &label).expect("policy");
                let s = speedup_pct(cins, m);
                let c = code_delta_pct(cins, m);
                let t = compile_delta_pct(cins, m);
                recovery_actions += RECOVERY.map(|col| m.mean(col)).iter().sum::<f64>();
                speedups.push(s);
                code_deltas.push(c);
                compile_deltas.push(t);
                s_sum += s;
                c_sum += c;
                t_sum += t;
            }
            let n = specs.len() as f64;
            per_policy_rows.push(vec![
                format!("{group}/{max}"),
                format!("{:+.2}%", s_sum / n),
                format!("{:+.2}%", c_sum / n),
                format!("{:+.2}%", t_sum / n),
            ]);
        }
    }

    println!("Summary statistics over all policies × max levels × benchmarks\n");
    println!(
        "{}",
        render_table(
            &[
                "policy".into(),
                "mean speedup".into(),
                "mean code Δ".into(),
                "mean compile Δ".into(),
            ],
            &per_policy_rows,
        )
    );

    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max_ = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    println!("Aggregates (paper's claims in parentheses):");
    println!(
        "  mean performance impact : {:+.2}%   (paper: within ±1%)",
        mean(&speedups)
    );
    println!(
        "  performance range       : {:+.1}% .. {:+.1}%   (paper: -4.2% .. +5.3%)",
        min(&speedups),
        max_(&speedups)
    );
    println!(
        "  best code-space cut     : {:+.1}%   (paper: up to -56.7%)",
        min(&code_deltas)
    );
    println!(
        "  best compile-time cut   : {:+.1}%   (paper: up to -33.0%)",
        min(&compile_deltas)
    );
    println!(
        "  mean code-space change  : {:+.2}%   (paper: about -10% for good policies)",
        mean(&code_deltas)
    );
    println!(
        "  mean compile-time change: {:+.2}%   (paper: about -10%)",
        mean(&compile_deltas)
    );
    println!(
        "  recovery actions        : {recovery_actions:.1} total (0 expected: the grid runs \
         unfaulted, and guard-health monitoring is opt-in / fault-triggered)"
    );
    // Sweep trajectory datapoint: only printed when this invocation
    // actually measured cells (a fully cached grid stays byte-stable).
    if let Some(stats) = sweep {
        println!("  sweep                   : {}", stats.render());
    }
}
