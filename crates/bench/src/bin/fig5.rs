//! Regenerates **Figure 5(a–f)** — percent change in optimized code space
//! over context-insensitive inlining (negative = smaller, desirable), per
//! benchmark and maximum sensitivity, plus the harmonic-mean-style average.

use aoci_bench::grid::max_levels;
use aoci_bench::metrics::CURRENT_CODE;
use aoci_bench::{load_or_run_grid_with, EnvConfig};
use aoci_bench::{
    code_delta_pct, fmt_pct, policy_label, render_table, POLICY_GROUPS,
};
use aoci_workloads::suite;

fn main() {
    let env = EnvConfig::from_env();
    let (grid, _) = load_or_run_grid_with(&env);
    let specs = suite();
    let subfig = ["(a)", "(b)", "(c)", "(d)", "(e)", "(f)"];

    println!("Figure 5: change in optimized code space over context-insensitive inlining");
    println!("(cumulative bytes of optimized code generated; negative is a reduction)\n");
    for (i, (group, make)) in POLICY_GROUPS.iter().enumerate() {
        println!("Figure 5{} — {group}", subfig[i]);
        let mut header = vec!["benchmark".to_string()];
        for max in max_levels(env.quick) {
            header.push(format!("max={max}"));
        }
        let mut rows = Vec::new();
        for spec in &specs {
            let cins = grid.get(spec.name, "cins").expect("baseline present");
            let mut row = vec![spec.name.to_string()];
            for max in max_levels(env.quick) {
                let label = policy_label(make(max));
                let m = grid.get(spec.name, &label).expect("policy present");
                row.push(fmt_pct(code_delta_pct(cins, m)));
            }
            rows.push(row);
        }
        let mut mean_row = vec!["mean".to_string()];
        for max in max_levels(env.quick) {
            let label = policy_label(make(max));
            let mean: f64 = specs
                .iter()
                .map(|s| {
                    code_delta_pct(
                        grid.get(s.name, "cins").expect("baseline"),
                        grid.get(s.name, &label).expect("policy"),
                    )
                })
                .sum::<f64>()
                / specs.len() as f64;
            mean_row.push(fmt_pct(mean));
        }
        rows.push(mean_row);
        println!("{}", render_table(&header, &rows));
    }

    println!("Resident (end-of-run) optimized code for reference, fixed policy:");
    let mut rows = Vec::new();
    for spec in &specs {
        let cins = grid.get(spec.name, "cins").expect("baseline");
        let mut row = vec![spec.name.to_string(), format!("{:.0}", cins.mean(CURRENT_CODE))];
        for max in max_levels(env.quick) {
            let m = grid
                .get(spec.name, &format!("fixed/{max}"))
                .expect("policy");
            row.push(fmt_pct((m.mean(CURRENT_CODE) / cins.mean(CURRENT_CODE) - 1.0) * 100.0));
        }
        rows.push(row);
    }
    let mut header = vec!["benchmark".to_string(), "cins units".to_string()];
    for max in max_levels(env.quick) {
        header.push(format!("max={max}"));
    }
    println!("{}", render_table(&header, &rows));
}
