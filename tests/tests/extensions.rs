//! Integration tests for the extension subsystems: offline profiles, the
//! oracle match-mode ablation and the naive-stack-walk ablation.

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::{MatchMode, PolicyKind};
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 400;
    spec
}

#[test]
fn offline_profile_round_trip_preserves_semantics() {
    let w = build(&small("mtrt"));
    let policy = PolicyKind::Fixed { max: 3 };
    let (cold_report, _, profile) = AosSystem::new(&w.program, AosConfig::new(policy))
        .run_full()
        .expect("training run succeeds");

    assert!(!profile.is_empty(), "the training run profiles traces");

    let mut seeded = AosSystem::new(&w.program, AosConfig::new(policy));
    seeded.seed_profile(profile);
    let seeded_report = seeded.run().expect("seeded run succeeds");
    assert_eq!(seeded_report.result, cold_report.result);
    // The seeded run starts with a full profile: rules exist from the first
    // organizer tick, so compilation decisions are at least as informed.
    assert!(seeded_report.opt_compilations > 0);
}

#[test]
fn exact_match_oracle_is_sound_but_weaker() {
    let w = build(&small("jess"));
    let mut partial_cfg = AosConfig::new(PolicyKind::Fixed { max: 3 });
    partial_cfg.match_mode = MatchMode::Partial;
    let mut exact_cfg = AosConfig::new(PolicyKind::Fixed { max: 3 });
    exact_cfg.match_mode = MatchMode::Exact;

    let (partial, partial_db, _) = AosSystem::new(&w.program, partial_cfg)
        .run_full()
        .expect("partial run");
    let (exact, exact_db, _) = AosSystem::new(&w.program, exact_cfg)
        .run_full()
        .expect("exact run");
    assert_eq!(partial.result, exact.result, "matching mode must not change semantics");
    // Exact matching can only use rules whose context length equals the
    // compilation context — typically far fewer profile-directed inlines.
    assert!(
        exact_db.decision_log().len() <= partial_db.decision_log().len(),
        "exact {} vs partial {}",
        exact_db.decision_log().len(),
        partial_db.decision_log().len()
    );
}

#[test]
fn naive_stack_walk_is_sound() {
    let w = build(&small("jack"));
    let mut cfg = AosConfig::new(PolicyKind::Fixed { max: 3 });
    cfg.vm.source_level_walk = false;
    let naive = AosSystem::new(&w.program, cfg).run().expect("naive run");
    let proper = AosSystem::new(&w.program, AosConfig::new(PolicyKind::Fixed { max: 3 }))
        .run()
        .expect("proper run");
    assert_eq!(naive.result, proper.result);
}

#[test]
fn adaptive_resolving_sits_between_cins_and_fixed_in_walk_cost() {
    let w = build(&small("jess"));
    let frames = |policy| {
        AosSystem::new(&w.program, AosConfig::new(policy))
            .run()
            .expect("runs")
            .frames_walked
    };
    let cins = frames(PolicyKind::ContextInsensitive);
    let adaptive = frames(PolicyKind::AdaptiveResolving { max: 4 });
    let fixed = frames(PolicyKind::Fixed { max: 4 });
    // Adaptive escalates only flagged sites, so it must stay well below the
    // always-deep fixed policy; it tracks cins closely (timing jitter can
    // put it a hair under).
    assert!(
        adaptive < fixed && cins < fixed,
        "walk cost ordering violated: cins {cins}, adaptive {adaptive}, fixed {fixed}"
    );
    let ratio = adaptive as f64 / cins as f64;
    assert!(
        (0.8..2.0).contains(&ratio),
        "adaptive should track cins walk cost, got ratio {ratio}"
    );
}
