//! Asserts the paper's Figure 1/2 motivating property on the HashMapTest
//! program: context-insensitive profiling inlines both `hashCode`
//! implementations at the ambiguous site (or neither), while
//! context-sensitive profiling inlines exactly the right implementation per
//! `runTest` call site.

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::PolicyKind;
use aoci_ir::Program;
use aoci_opt::InlineDecision;
use aoci_workloads::hashmap_test;

fn run(program: &Program, policy: PolicyKind) -> (Option<i64>, Vec<InlineDecision>) {
    let mut config = AosConfig::new(policy);
    config.cost.sample_period = 20_000;
    let (report, db, _) = AosSystem::new(program, config)
        .run_full()
        .expect("hashmap test runs");
    let decisions = db.decision_log().iter().map(|(_, d)| d.clone()).collect();
    (report.result.and_then(|v| v.as_int()), decisions)
}

fn hash_decisions<'d>(
    program: &Program,
    decisions: &'d [InlineDecision],
) -> Vec<&'d InlineDecision> {
    decisions
        .iter()
        .filter(|d| program.method(d.callee).name().ends_with(".hashCode"))
        .collect()
}

#[test]
fn context_sensitivity_disambiguates_hashcode_targets() {
    let program = hashmap_test(40_000);
    let my_hash = program.method_by_name("MyKey.hashCode").unwrap();
    let obj_hash = program.method_by_name("Object.hashCode").unwrap();
    let run_test = program.method_by_name("runTest").unwrap();

    let (ci_result, ci_decisions) = run(&program, PolicyKind::ContextInsensitive);
    let (cs_result, cs_decisions) = run(&program, PolicyKind::Fixed { max: 3 });
    assert_eq!(ci_result, cs_result, "policies must agree on the result");
    assert!(ci_result.is_some());

    // CI: the hashCode site's profile is a 50/50 split, so any compilation
    // that inlines there inlines both implementations in the *same*
    // compilation context.
    let ci_hash = hash_decisions(&program, &ci_decisions);
    assert!(!ci_hash.is_empty(), "cins should inline hashCode somewhere");
    use std::collections::HashMap;
    let mut ci_by_ctx: HashMap<_, Vec<_>> = HashMap::new();
    for d in &ci_hash {
        ci_by_ctx.entry(d.context.clone()).or_default().push(d.callee);
    }
    assert!(
        ci_by_ctx.values().any(|callees| {
            callees.contains(&my_hash) && callees.contains(&obj_hash)
        }),
        "cins inlines both implementations at the ambiguous site: {ci_by_ctx:?}"
    );

    // CS: within contexts that reach back to runTest, each call site gets
    // exactly its own implementation.
    let cs_hash = hash_decisions(&program, &cs_decisions);
    let deep: Vec<_> = cs_hash.iter().filter(|d| d.context.len() >= 2).collect();
    assert!(
        !deep.is_empty(),
        "context-sensitive run should inline hashCode under runTest context"
    );
    for d in &deep {
        // Find the runTest level of the context.
        let rt = d
            .context
            .iter()
            .find(|cs| cs.method == run_test)
            .unwrap_or_else(|| panic!("context reaches runTest: {:?}", d.context));
        let expected = if rt.site.index() == 0 { my_hash } else { obj_hash };
        assert_eq!(
            d.callee,
            expected,
            "site runTest@{} must inline its own target",
            rt.site.index()
        );
    }
    // And both specialised variants exist (one per site).
    assert!(deep.iter().any(|d| d.callee == my_hash));
    assert!(deep.iter().any(|d| d.callee == obj_hash));
}

#[test]
fn hashmap_result_is_correct() {
    // 1 + 2 per iteration.
    let iters = 5_000;
    let program = hashmap_test(iters);
    let (result, _) = run(&program, PolicyKind::ContextInsensitive);
    assert_eq!(result, Some(3 * iters));
}
