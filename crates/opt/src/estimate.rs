//! Predicted-benefit estimation for controller prioritization.
//!
//! The Jikes-style controller the paper builds on orders recompilation
//! plans by *expected benefit*. This module exposes the profile signal the
//! inliner itself would act on — the aggregate rule weight realizable by a
//! fresh compilation of a method — so the AOS can rank queued plans without
//! running the compiler.

use aoci_core::InlineOracle;
use aoci_ir::{CallSiteRef, Instr, MethodId, Program};

/// Estimates the profile-predicted benefit of (re)compiling `method` under
/// the rules `oracle` snapshots: the sum, over the method's own (source)
/// call sites, of the profile weight backing every inlining candidate the
/// oracle offers that site at depth-1 context.
///
/// This mirrors the weight the inliner records as
/// [`DecisionProvenance::predicted_benefit`](aoci_trace::DecisionProvenance)
/// when it actually compiles: statically-bound calls count only the rule
/// supporting their known callee, virtual calls count every predicted
/// target (each may become a guarded inline). Deeper-context rules still
/// contribute through the oracle's partial matching, so the estimate tracks
/// what the compilation would realize without paying for a compilation.
///
/// The result is deterministic for a given (program, rule set) pair — the
/// AOS uses it as a priority key, with ties broken by `MethodId`.
pub fn estimate_benefit(program: &Program, method: MethodId, oracle: &InlineOracle) -> f64 {
    let mut benefit = 0.0;
    let ctx_for = |site| [CallSiteRef::new(method, site)];
    for instr in program.method(method).body() {
        match instr {
            Instr::CallStatic { site, callee, .. } => {
                let ctx = ctx_for(*site);
                if let Some(weight) = oracle.weight_of(&ctx, *callee) {
                    benefit += weight.max(0.0);
                }
            }
            Instr::CallVirtual { site, .. } => {
                let ctx = ctx_for(*site);
                for c in oracle.candidates(&ctx) {
                    benefit += c.weight.max(0.0);
                }
            }
            _ => {}
        }
    }
    benefit
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_core::RuleSet;
    use aoci_ir::{ProgramBuilder, SiteIdx};
    use aoci_profile::TraceKey;

    #[test]
    fn sums_rule_weights_over_call_sites() {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("callee", 0);
            m.ret(None);
            m.finish()
        };
        let other = {
            let mut m = b.static_method("other", 0);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            m.call_static(None, callee, &[]);
            m.call_static(None, other, &[]);
            m.ret(None);
            m.finish()
        };
        let p = b.finish(main).unwrap();
        let s0 = CallSiteRef::new(main, SiteIdx(0));
        let s1 = CallSiteRef::new(main, SiteIdx(1));
        let rules = RuleSet::from_rules(
            vec![(TraceKey::edge(s0, callee), 60.0), (TraceKey::edge(s1, other), 15.0)],
            100.0,
        );
        let oracle = InlineOracle::new(rules.into());
        let b_main = estimate_benefit(&p, main, &oracle);
        assert!((b_main - 75.0).abs() < 1e-9, "got {b_main}");
        // A method with no supported sites estimates to zero, and an empty
        // oracle estimates everything to zero.
        assert_eq!(estimate_benefit(&p, callee, &oracle), 0.0);
        assert_eq!(estimate_benefit(&p, main, &InlineOracle::empty()), 0.0);
    }

    #[test]
    fn static_sites_only_count_their_own_callee() {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("callee", 0);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            m.call_static(None, callee, &[]);
            m.ret(None);
            m.finish()
        };
        let p = b.finish(main).unwrap();
        let s0 = CallSiteRef::new(main, SiteIdx(0));
        // A rule predicting a *different* callee at the site cannot be
        // realized by a static call to `callee`.
        let rules = RuleSet::from_rules(vec![(TraceKey::edge(s0, main), 40.0)], 40.0);
        assert_eq!(estimate_benefit(&p, main, &InlineOracle::new(rules.into())), 0.0);
    }
}
