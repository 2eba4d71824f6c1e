//! Regenerates **Figure 6** — percent of execution time spent in each
//! component of the adaptive optimization system, averaged over the
//! benchmark suite, for the context-insensitive baseline and each policy ×
//! maximum sensitivity.

use aoci_bench::grid::max_levels;
use aoci_bench::{load_or_run_grid_with, EnvConfig};
use aoci_bench::{policy_label, render_table, Cell, POLICY_GROUPS};
use aoci_vm::Component;
use aoci_workloads::suite;

/// The figure's component rows. The missing-edge organizer is folded into
/// the AI organizer, matching the paper's legend.
const ROWS: [(&str, &[Component]); 6] = [
    ("AOS Listeners", &[Component::Listeners]),
    ("CompilationThread", &[Component::CompilationThread]),
    ("DecayOrganizer", &[Component::DecayOrganizer]),
    (
        "AIOrganizer",
        &[Component::AiOrganizer, Component::MissingEdgeOrganizer],
    ),
    ("MethodSampleOrganizer", &[Component::MethodSampleOrganizer]),
    ("ControllerThread", &[Component::ControllerThread]),
];

fn mean_fraction(ms: &[Cell], components: &[Component]) -> f64 {
    ms.iter()
        .map(|m| components.iter().map(|&c| m.fraction(c)).sum::<f64>())
        .sum::<f64>()
        / ms.len() as f64
}

fn main() {
    let env = EnvConfig::from_env();
    let (grid, _) = load_or_run_grid_with(&env);
    let specs = suite();
    // Paper's x-axis: cins, then each policy at max 2..4 (we include every
    // measured level).
    let mut columns: Vec<(String, Vec<Cell>)> = Vec::new();
    let gather = |label: &str| -> Vec<Cell> {
        specs
            .iter()
            .map(|s| grid.get(s.name, label).expect("entry present"))
            .collect()
    };
    columns.push(("cins".to_string(), gather("cins")));
    for (_, make) in POLICY_GROUPS.iter() {
        for max in max_levels(env.quick) {
            let label = policy_label(make(max));
            columns.push((label.clone(), gather(&label)));
        }
    }

    println!("Figure 6: percent of execution time per AOS component (suite average)\n");
    let mut header = vec!["component".to_string()];
    header.extend(columns.iter().map(|(l, _)| l.clone()));
    let mut rows = Vec::new();
    let mut totals = vec![0.0; columns.len()];
    for (name, comps) in ROWS {
        let mut row = vec![name.to_string()];
        for (i, (_, ms)) in columns.iter().enumerate() {
            let f = mean_fraction(ms, comps) * 100.0;
            totals[i] += f;
            row.push(format!("{f:.3}%"));
        }
        rows.push(row);
    }
    let mut total_row = vec!["TOTAL overhead".to_string()];
    for t in &totals {
        total_row.push(format!("{t:.3}%"));
    }
    rows.push(total_row);
    println!("{}", render_table(&header, &rows));
    println!(
        "\nThe paper's observations to check: optimizing compilation dominates the\n\
         overhead; context-sensitive policies reduce it relative to cins; listener +\n\
         organizer overhead of context sensitivity stays a tiny fraction of execution."
    );
}
