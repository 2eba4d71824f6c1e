//! Compares every context-sensitivity policy on one workload.
//!
//! ```sh
//! cargo run --release -p examples --bin policy_sweep [workload] [max]
//! ```
//!
//! Defaults to `jess` at maximum sensitivity 3.

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::PolicyKind;
use aoci_vm::Component;
use aoci_workloads::{build, spec_by_name};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "jess".to_string());
    let max: u8 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let spec = spec_by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let w = build(&spec);

    let mut policies = vec![PolicyKind::ContextInsensitive];
    policies.extend(PolicyKind::evaluated(max));
    policies.push(PolicyKind::AdaptiveResolving { max });

    println!(
        "{:<18} {:>12} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "policy", "cycles", "Δcycles", "code", "Δcode", "compiles", "compile%"
    );
    let mut baseline: Option<(u64, f64)> = None;
    for policy in policies {
        let report = AosSystem::new(&w.program, AosConfig::new(policy)).run()?;
        let cycles = report.total_cycles();
        let code = report.optimized_code_size as f64;
        let (dc, dd) = match baseline {
            None => {
                baseline = Some((cycles, code));
                (0.0, 0.0)
            }
            Some((bc, bcode)) => (
                (bc as f64 / cycles as f64 - 1.0) * 100.0,
                (code / bcode - 1.0) * 100.0,
            ),
        };
        println!(
            "{:<18} {:>12} {:>+8.2}% {:>9.0} {:>+8.2}% {:>8.0} {:>7.2}%",
            policy.to_string(),
            cycles,
            dc,
            code,
            dd,
            report.opt_compilations,
            report.fraction(Component::CompilationThread) * 100.0,
        );
    }
    println!("\nΔcycles: speedup over cins (positive = faster).");
    println!("Δcode:   change in cumulative optimized code (negative = smaller).");
    Ok(())
}
