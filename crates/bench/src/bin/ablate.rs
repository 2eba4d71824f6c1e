//! Ablation benches for the design decisions called out in DESIGN.md:
//!
//! 1. **partial vs exact context matching** in the inline oracle
//!    (Section 3.3's hybrid scheme);
//! 2. **no-merge collection vs merge-on-collect** in the DCG;
//! 3. **decay factor** sweep on the phase-shift workload;
//! 4. **hot threshold** sweep (profile dilution);
//! 5. **source-level stack recovery vs naive walk** in the trace listener
//!    (Section 3.3, "Optimized Stack Frames");
//! 6. **guard-health monitoring without faults**: the suite with the
//!    monitor off and on (DESIGN.md §6).
//!
//! ```sh
//! cargo run --release -p aoci-bench --bin ablate
//! ```

use aoci_aos::{AosConfig, AosSystem};
use aoci_bench::render_table;
use aoci_core::{MatchMode, PolicyKind};
use aoci_workloads::{build, spec_by_name, suite, Workload};

fn run(w: &Workload, config: AosConfig) -> aoci_aos::AosReport {
    AosSystem::new(&w.program, config).run().expect("workload runs")
}

fn row(label: &str, r: &aoci_aos::AosReport) -> Vec<String> {
    vec![
        label.to_string(),
        r.total_cycles().to_string(),
        format!("{}", r.optimized_code_size),
        format!("{}", r.opt_compilations),
        format!("{}", r.final_rules),
        format!("{:.1}%", r.guard_miss_rate() * 100.0),
    ]
}

fn header() -> Vec<String> {
    vec![
        "config".into(),
        "cycles".into(),
        "code".into(),
        "compiles".into(),
        "rules".into(),
        "guard miss".into(),
    ]
}

fn main() {
    let jess = build(&spec_by_name("jess").expect("suite"));
    let javac = build(&spec_by_name("javac").expect("suite"));
    let jbb = build(&spec_by_name("jbb").expect("suite"));

    // 1. Partial vs exact matching.
    println!("Ablation 1: oracle context matching (jess, fixed/3)");
    let mut rows = Vec::new();
    for (label, mode) in [("partial (paper)", MatchMode::Partial), ("exact only", MatchMode::Exact)] {
        let mut c = AosConfig::new(PolicyKind::Fixed { max: 3 });
        c.match_mode = mode;
        rows.push(row(label, &run(&jess, c)));
    }
    println!("{}", render_table(&header(), &rows));

    // 2. DCG collection: no-merge vs merge-on-collect. The adaptive-
    // resolving policy observes the *same* chains at increasing depths as
    // sites escalate — exactly when collection-time merging has prefixes to
    // fold into, collapsing the deeper (disambiguating) context back into
    // the ambiguous edge.
    println!("Ablation 2: DCG partial-match handling at collection (jbb, adaptive/4)");
    let mut rows = Vec::new();
    for (label, merge) in [("keep separate (paper)", false), ("merge on collect", true)] {
        let mut c = AosConfig::new(PolicyKind::AdaptiveResolving { max: 4 });
        c.dcg.merge_on_collect = merge;
        rows.push(row(label, &run(&jbb, c)));
    }
    println!("{}", render_table(&header(), &rows));

    // 3. Decay sweep on the phase-shift workload.
    println!("Ablation 3: decay factor under a phase shift (jbb, fixed/3)");
    let mut rows = Vec::new();
    for factor in [1.0, 0.98, 0.95, 0.85, 0.5] {
        let mut c = AosConfig::new(PolicyKind::Fixed { max: 3 });
        c.decay_factor = factor;
        rows.push(row(&format!("decay {factor}"), &run(&jbb, c)));
    }
    println!("{}", render_table(&header(), &rows));

    // 4. Hot-threshold sweep (dilution sensitivity).
    println!("Ablation 4: hot-trace threshold (javac; dilution-prone)");
    let mut rows = Vec::new();
    for threshold in [0.005, 0.015, 0.05] {
        for policy in [PolicyKind::ContextInsensitive, PolicyKind::Fixed { max: 3 }] {
            let mut c = AosConfig::new(policy);
            c.hot_edge_threshold = threshold;
            rows.push(row(&format!("{threshold} × {policy}"), &run(&javac, c)));
        }
    }
    println!("{}", render_table(&header(), &rows));

    // 5. Source-level stack recovery vs naive walk.
    println!("Ablation 5: inline-map stack recovery (jess, fixed/3)");
    let mut rows = Vec::new();
    for (label, source_level) in [("source-level (paper)", true), ("naive walk", false)] {
        let mut c = AosConfig::new(PolicyKind::Fixed { max: 3 });
        c.vm.source_level_walk = source_level;
        rows.push(row(label, &run(&jess, c)));
    }
    println!("{}", render_table(&header(), &rows));
    println!(
        "The naive walk records misleading traces once inlining begins (e.g. A ⇒ C\n\
         when the truth is A ⇒ B ⇒ C), so its rules degrade as optimization proceeds."
    );

    // 6. Guard-health monitoring without faults.
    let policy = PolicyKind::ParameterlessClass { max: 3 };
    println!();
    println!("Ablation 6: guard-health monitoring without faults (suite, {policy}, sync)");
    let mut rows = Vec::new();
    let (mut total_off, mut total_on, mut invalidations) = (0, 0, 0);
    for spec in suite() {
        let w = build(&spec);
        let off = run(&w, AosConfig::new(policy)).total_cycles();
        let on = run(&w, AosConfig::new(policy).enable_guard_monitoring());
        total_off += off;
        total_on += on.total_cycles();
        invalidations += on.recovery.invalidations;
        rows.push(vec![
            spec.name.to_string(),
            off.to_string(),
            on.total_cycles().to_string(),
            change(off, on.total_cycles()),
            on.recovery.invalidations.to_string(),
        ]);
    }
    rows.push(vec![
        "total".into(),
        total_off.to_string(),
        total_on.to_string(),
        change(total_off, total_on),
        invalidations.to_string(),
    ]);
    let header: Vec<String> = ["workload", "monitor off", "monitor on", "change", "invalidations"]
        .map(String::from)
        .into();
    println!("{}", render_table(&header, &rows));
}

/// The relative change from `from` to `to` cycles, signed, two decimals.
fn change(from: u64, to: u64) -> String {
    format!("{:+.2}%", (to as f64 / from as f64 - 1.0) * 100.0)
}
