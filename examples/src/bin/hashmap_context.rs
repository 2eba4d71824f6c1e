//! The paper's Figure 1/2 motivating example, live.
//!
//! Runs the `HashMapTest` program under (a) context-insensitive profiling
//! and (b) context-sensitive profiling (fixed, max 3), and prints the hot
//! profile data and the inlining decisions for `key.hashCode()` inside
//! `HashMap.get` — demonstrating that the context-insensitive system either
//! inlines both `hashCode` implementations at both `runTest` call sites or
//! neither, while the context-sensitive system inlines exactly the right
//! implementation at each site.
//!
//! ```sh
//! cargo run --release -p examples --bin hashmap_context
//! ```

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::PolicyKind;
use aoci_workloads::hashmap_test;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = hashmap_test(60_000);

    for policy in [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }] {
        println!("=== policy: {policy} ===");
        let mut config = AosConfig::new(policy);
        // The example is small; sample a bit faster than the default so the
        // profile fills in quickly.
        config.cost.sample_period = 20_000;
        let (report, db, _) = AosSystem::new(&program, config).run_full()?;

        println!("result: {:?} (must match across policies)", report.result);
        println!(
            "cycles: {}  optimized code: {}  compilations: {}",
            report.total_cycles(),
            report.optimized_code_size,
            report.opt_compilations
        );

        let interesting = ["MyKey.hashCode", "Object.hashCode", "MyKey.equals", "Object.equals"];
        println!("hashCode/equals inlining decisions (callee ⇐ compilation context):");
        for (host, d) in db.decision_log() {
            let callee = program.method(d.callee).name();
            if !interesting.contains(&callee) {
                continue;
            }
            let ctx: Vec<String> = d
                .context
                .iter()
                .map(|cs| format!("{}@{}", program.method(cs.method).name(), cs.site.index()))
                .collect();
            let guarded = if d.guarded { "guarded " } else { "" };
            println!(
                "  [compiling {}] {guarded}{callee} ⇐ {}",
                program.method(*host).name(),
                ctx.join(" ⇐ ")
            );
        }
        println!();
    }

    println!(
        "Expected shape (paper Figure 2): the cins run inlines BOTH hashCode\n\
         implementations wherever the 50/50 site is compiled; the context-\n\
         sensitive run inlines MyKey.hashCode only under runTest's first call\n\
         site and Object.hashCode only under the second."
    );
    Ok(())
}
