//! Offline vs online profile-directed inlining (paper Section 6 contrast).
//!
//! The paper's system is fully online; the classic alternative gathers
//! profile data in a *training run* and feeds it to the compiler for the
//! production run. This example does both on the `mtrt` workload:
//!
//! 1. **training run** — a context-sensitive online run; its final trace
//!    profile comes back from [`AosSystem::run_full`];
//! 2. **offline-profiled run** — a fresh run seeded with that profile
//!    ([`AosSystem::seed_profile`], handed over in memory): rules form at
//!    the first organizer tick, so hot methods compile with good inlining
//!    decisions without an online warm-up;
//! 3. **cold online run** — the baseline for comparison.
//!
//! ```sh
//! cargo run --release -p examples --bin offline_profile
//! ```

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::PolicyKind;
use aoci_workloads::{build, spec_by_name};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = build(&spec_by_name("mtrt").expect("suite workload"));
    let policy = PolicyKind::Fixed { max: 3 };

    // 1. Training run: collect the profile.
    let (train_report, _, profile) =
        AosSystem::new(&w.program, AosConfig::new(policy)).run_full()?;
    println!(
        "training run : {} cycles, {} traces profiled",
        train_report.total_cycles(),
        profile.len()
    );

    // 2. Offline-profiled production run.
    let mut seeded = AosSystem::new(&w.program, AosConfig::new(policy));
    seeded.seed_profile(profile);
    let offline = seeded.run()?;

    // 3. Cold online run.
    let cold = AosSystem::new(&w.program, AosConfig::new(policy)).run()?;

    assert_eq!(offline.result, cold.result, "profiles must not change semantics");
    println!(
        "cold online  : {} cycles, {} compilations, {} optimized units",
        cold.total_cycles(),
        cold.opt_compilations,
        cold.optimized_code_size
    );
    println!(
        "offline-fed  : {} cycles, {} compilations, {} optimized units",
        offline.total_cycles(),
        offline.opt_compilations,
        offline.optimized_code_size
    );
    let speedup = (cold.total_cycles() as f64 / offline.total_cycles() as f64 - 1.0) * 100.0;
    println!("offline profile speedup over cold online run: {speedup:+.2}%");
    println!(
        "\nThe offline-fed run skips the profile warm-up: the paper notes offline\n\
         systems 'can be quite effective, but are usually somewhat cumbersome to\n\
         use and can be vulnerable to mispredictions' when training and production\n\
         inputs diverge — here they are identical, the best case for offline."
    );
    Ok(())
}
