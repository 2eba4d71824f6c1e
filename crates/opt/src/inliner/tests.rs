use super::*;
use crate::OptConfig;
use aoci_core::InlineOracle;
use aoci_core::RuleSet;
use aoci_ir::{BinOp, ProgramBuilder};
use aoci_profile::TraceKey;
use aoci_vm::{CostModel, Value, Vm};

fn no_sampling() -> CostModel {
    CostModel { sample_period: 0, ..CostModel::default() }
}

/// Runs `program` twice — purely baseline, and with `methods` optimize-
/// compiled under `oracle`/`config` and pre-installed — and asserts the
/// results agree. Returns (baseline result, compilations).
fn differential(
    program: &Program,
    methods: &[MethodId],
    oracle: &InlineOracle,
    config: &OptConfig,
) -> (Option<Value>, Vec<Compilation>) {
    let mut base_vm = Vm::new(program, no_sampling());
    let base = base_vm.run_to_completion().expect("baseline runs");

    let compilations: Vec<Compilation> = methods
        .iter()
        .map(|&m| compile(program, m, oracle, config))
        .collect();
    let mut opt_vm = Vm::new(program, no_sampling());
    for c in &compilations {
        opt_vm.registry_mut().install(c.version.clone());
    }
    let opt = opt_vm.run_to_completion().expect("optimized runs");
    assert_eq!(base, opt, "optimized code must preserve semantics");
    (base, compilations)
}

#[test]
fn inlines_tiny_static_callee() {
    let mut b = ProgramBuilder::new();
    let tiny = {
        let mut m = b.static_method("tiny", 1);
        let out = m.fresh_reg();
        let two = m.fresh_reg();
        m.const_int(two, 2);
        m.bin(BinOp::Mul, out, m.param(0), two);
        m.ret(Some(out));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let x = m.fresh_reg();
        let y = m.fresh_reg();
        m.const_int(x, 21);
        m.call_static(Some(y), tiny, &[x]);
        m.ret(Some(y));
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let (result, comps) =
        differential(&p, &[main], &InlineOracle::empty(), &OptConfig::default());
    assert_eq!(result.and_then(Value::as_int), Some(42));
    assert!(comps[0].inlined(tiny));
    assert!(comps[0].version.body.iter().all(|i| !i.is_call()));
}

#[test]
fn never_inlines_large_methods() {
    let mut b = ProgramBuilder::new();
    let large = {
        let mut m = b.static_method("large", 0);
        m.work(1000);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, large, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();
    // Even a hot profile cannot force a large inline.
    let site = CallSiteRef::new(main, SiteIdx(0));
    let rules = RuleSet::from_rules(vec![(TraceKey::edge(site, large), 100.0)], 100.0);
    let (_, comps) =
        differential(&p, &[main], &InlineOracle::new(rules.into()), &OptConfig::default());
    assert!(!comps[0].inlined(large));
    assert!(comps[0]
        .refusals
        .iter()
        .any(|r| r.callee == large && r.reason == RefusalReason::TooLarge && r.hot));
}

#[test]
fn medium_methods_require_profile_support() {
    let mut b = ProgramBuilder::new();
    let medium = {
        let mut m = b.static_method("medium", 0);
        m.work(100);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, medium, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();

    // Without profile: refused as NotHot.
    let cold = compile(&p, main, &InlineOracle::empty(), &OptConfig::default());
    assert!(!cold.inlined(medium));
    assert!(cold
        .refusals
        .iter()
        .any(|r| r.callee == medium && r.reason == RefusalReason::NotHot));

    // With a hot edge: inlined.
    let site = CallSiteRef::new(main, SiteIdx(0));
    let rules = RuleSet::from_rules(vec![(TraceKey::edge(site, medium), 50.0)], 50.0);
    let (_, comps) =
        differential(&p, &[main], &InlineOracle::new(rules.into()), &OptConfig::default());
    assert!(comps[0].inlined(medium));
}

#[test]
fn cha_monomorphic_virtual_inlines_unguarded() {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let a_val = {
        let mut m = b.virtual_method("A.val", a, sel);
        let r = m.fresh_reg();
        m.const_int(r, 9);
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let o = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(o, a);
        m.call_virtual(Some(r), sel, o, &[]);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let (result, comps) =
        differential(&p, &[main], &InlineOracle::empty(), &OptConfig::default());
    assert_eq!(result.and_then(Value::as_int), Some(9));
    assert!(comps[0].inlined(a_val));
    // Single implementation: no guard needed.
    assert_eq!(comps[0].guarded_count(), 0);
    assert!(!comps[0]
        .version
        .body
        .iter()
        .any(|i| matches!(i, Instr::GuardMethod { .. })));
}

/// Builds the polymorphic test program: `apply(o)` virtually calls `val` on
/// `o`, where `A.val` returns 1 and `B.val` returns 2; main sums
/// `apply(a) + 10*apply(b)` = 21.
fn poly_program() -> (Program, MethodId, MethodId, MethodId, MethodId) {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let cb = b.class("B", Some(a));
    let a_val = {
        let mut m = b.virtual_method("A.val", a, sel);
        let r = m.fresh_reg();
        m.const_int(r, 1);
        m.ret(Some(r));
        m.finish()
    };
    let b_val = {
        let mut m = b.virtual_method("B.val", cb, sel);
        let r = m.fresh_reg();
        m.const_int(r, 2);
        m.ret(Some(r));
        m.finish()
    };
    let apply = {
        let mut m = b.static_method("apply", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), sel, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let oa = m.fresh_reg();
        let ob = m.fresh_reg();
        let ra = m.fresh_reg();
        let rb = m.fresh_reg();
        m.new_obj(oa, a);
        m.new_obj(ob, cb);
        m.call_static(Some(ra), apply, &[oa]);
        m.call_static(Some(rb), apply, &[ob]);
        let ten = m.fresh_reg();
        m.const_int(ten, 10);
        m.bin(BinOp::Mul, rb, rb, ten);
        m.bin(BinOp::Add, ra, ra, rb);
        m.ret(Some(ra));
        m.finish()
    };
    let p = b.finish(main).unwrap();
    (p, main, apply, a_val, b_val)
}

#[test]
fn polymorphic_without_profile_keeps_virtual_call() {
    let (p, _main, apply, a_val, b_val) = poly_program();
    let (_, comps) =
        differential(&p, &[apply], &InlineOracle::empty(), &OptConfig::default());
    assert!(!comps[0].inlined(a_val));
    assert!(!comps[0].inlined(b_val));
    assert!(comps[0]
        .version
        .body
        .iter()
        .any(|i| matches!(i, Instr::CallVirtual { .. })));
}

#[test]
fn guarded_inlining_of_both_hot_targets_with_fallback() {
    let (p, _main, apply, a_val, b_val) = poly_program();
    let site = CallSiteRef::new(apply, SiteIdx(0));
    let rules = RuleSet::from_rules(
        vec![
            (TraceKey::edge(site, a_val), 50.0),
            (TraceKey::edge(site, b_val), 50.0),
        ],
        100.0,
    );
    let (result, comps) =
        differential(&p, &[apply], &InlineOracle::new(rules.into()), &OptConfig::default());
    assert_eq!(result.and_then(Value::as_int), Some(21));
    assert!(comps[0].inlined(a_val));
    assert!(comps[0].inlined(b_val));
    assert_eq!(comps[0].guarded_count(), 2);
    // The fallback virtual dispatch is retained.
    assert!(comps[0]
        .version
        .body
        .iter()
        .any(|i| matches!(i, Instr::CallVirtual { .. })));
}

#[test]
fn guard_limit_caps_targets_and_records_refusal() {
    // Three receivers at one site against the two guard slots.
    let mut b = ProgramBuilder::new();
    let sel = b.selector("val", 0);
    let a = b.class("A", None);
    let cb = b.class("B", Some(a));
    let cc = b.class("C", Some(a));
    let mut val = |name: &str, class, v| {
        let mut m = b.virtual_method(name, class, sel);
        let r = m.fresh_reg();
        m.const_int(r, v);
        m.ret(Some(r));
        m.finish()
    };
    let (a_val, b_val, c_val) = (val("A.val", a, 1), val("B.val", cb, 2), val("C.val", cc, 3));
    let apply = {
        let mut m = b.static_method("apply", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), sel, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let (acc, ten, scale) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
        m.const_int(acc, 0);
        m.const_int(ten, 10);
        m.const_int(scale, 1);
        for class in [a, cb, cc] {
            let (o, r) = (m.fresh_reg(), m.fresh_reg());
            m.new_obj(o, class);
            m.call_static(Some(r), apply, &[o]);
            m.bin(BinOp::Mul, r, r, scale);
            m.bin(BinOp::Add, acc, acc, r);
            m.bin(BinOp::Mul, scale, scale, ten);
        }
        m.ret(Some(acc));
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let site = CallSiteRef::new(apply, SiteIdx(0));
    let rules = RuleSet::from_rules(
        vec![
            (TraceKey::edge(site, a_val), 50.0),
            (TraceKey::edge(site, b_val), 30.0),
            (TraceKey::edge(site, c_val), 20.0),
        ],
        100.0,
    );
    let (result, comps) =
        differential(&p, &[apply], &InlineOracle::new(rules.into()), &OptConfig::default());
    assert_eq!(result.and_then(Value::as_int), Some(321));
    // The two heavier targets win the guard slots.
    assert!(comps[0].inlined(a_val));
    assert!(comps[0].inlined(b_val));
    assert!(!comps[0].inlined(c_val));
    assert!(comps[0]
        .refusals
        .iter()
        .any(|r| r.callee == c_val && r.reason == RefusalReason::GuardLimit));
}

#[test]
fn context_sensitive_rules_specialize_nested_inlining() {
    // The paper's HashMap shape: runTest calls get twice; get virtually
    // calls key.hash. Context-sensitive rules inline a *different* hash
    // implementation at each inlined copy of get.
    let mut b = ProgramBuilder::new();
    let sel = b.selector("hash", 0);
    let obj = b.class("Object", None);
    let myk = b.class("MyKey", Some(obj));
    let obj_hash = {
        let mut m = b.virtual_method("Object.hash", obj, sel);
        let r = m.fresh_reg();
        m.const_int(r, 100);
        m.ret(Some(r));
        m.finish()
    };
    let my_hash = {
        let mut m = b.virtual_method("MyKey.hash", myk, sel);
        let r = m.fresh_reg();
        m.const_int(r, 7);
        m.ret(Some(r));
        m.finish()
    };
    let get = {
        let mut m = b.static_method("get", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), sel, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };
    let run_test = {
        let mut m = b.static_method("runTest", 2);
        let r1 = m.fresh_reg();
        let r2 = m.fresh_reg();
        m.call_static(Some(r1), get, &[m.param(0)]); // site 0: MyKey
        m.call_static(Some(r2), get, &[m.param(1)]); // site 1: Object
        m.bin(BinOp::Add, r1, r1, r2);
        m.ret(Some(r1));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let k1 = m.fresh_reg();
        let k2 = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(k1, myk);
        m.new_obj(k2, obj);
        m.call_static(Some(r), run_test, &[k1, k2]);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(main).unwrap();

    let hash_in_get = CallSiteRef::new(get, SiteIdx(0));
    let get_site0 = CallSiteRef::new(run_test, SiteIdx(0));
    let get_site1 = CallSiteRef::new(run_test, SiteIdx(1));
    let rules = RuleSet::from_rules(
        vec![
            // get is hot from both sites of runTest.
            (TraceKey::edge(get_site0, get), 50.0),
            (TraceKey::edge(get_site1, get), 50.0),
            // Context-sensitive: hash's target depends on which site of
            // runTest we came through.
            (TraceKey::new(my_hash, vec![hash_in_get, get_site0]), 50.0),
            (TraceKey::new(obj_hash, vec![hash_in_get, get_site1]), 50.0),
        ],
        200.0,
    );
    let (result, comps) = differential(
        &p,
        &[run_test],
        &InlineOracle::new(rules.into()),
        &OptConfig::default(),
    );
    assert_eq!(result.and_then(Value::as_int), Some(107));
    let c = &comps[0];
    assert!(c.inlined(get));
    assert!(c.inlined(my_hash));
    assert!(c.inlined(obj_hash));
    // Each hash was inlined exactly once — in its own context — not both at
    // both sites (the context-insensitive behaviour).
    let my_count = c.decisions.iter().filter(|d| d.callee == my_hash).count();
    let obj_count = c.decisions.iter().filter(|d| d.callee == obj_hash).count();
    assert_eq!((my_count, obj_count), (1, 1));
    // And the decisions carry the expected compilation contexts.
    let my_decision = c.decisions.iter().find(|d| d.callee == my_hash).unwrap();
    assert_eq!(my_decision.context, vec![hash_in_get, get_site0]);
}

#[test]
fn context_insensitive_rules_inline_both_targets_at_both_sites() {
    // Same program as above but with edge-only (CI) rules where the hash
    // site is 50/50: both targets get guarded inlines at *both* copies —
    // the code-bloat case context sensitivity avoids.
    let mut b = ProgramBuilder::new();
    let sel = b.selector("hash", 0);
    let obj = b.class("Object", None);
    let myk = b.class("MyKey", Some(obj));
    let obj_hash = {
        let mut m = b.virtual_method("Object.hash", obj, sel);
        let r = m.fresh_reg();
        m.const_int(r, 100);
        m.ret(Some(r));
        m.finish()
    };
    let my_hash = {
        let mut m = b.virtual_method("MyKey.hash", myk, sel);
        let r = m.fresh_reg();
        m.const_int(r, 7);
        m.ret(Some(r));
        m.finish()
    };
    let get = {
        let mut m = b.static_method("get", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), sel, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };
    let run_test = {
        let mut m = b.static_method("runTest", 2);
        let r1 = m.fresh_reg();
        let r2 = m.fresh_reg();
        m.call_static(Some(r1), get, &[m.param(0)]);
        m.call_static(Some(r2), get, &[m.param(1)]);
        m.bin(BinOp::Add, r1, r1, r2);
        m.ret(Some(r1));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let k1 = m.fresh_reg();
        let k2 = m.fresh_reg();
        let r = m.fresh_reg();
        m.new_obj(k1, myk);
        m.new_obj(k2, obj);
        m.call_static(Some(r), run_test, &[k1, k2]);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(main).unwrap();

    let hash_in_get = CallSiteRef::new(get, SiteIdx(0));
    let rules = RuleSet::from_rules(
        vec![
            (TraceKey::edge(CallSiteRef::new(run_test, SiteIdx(0)), get), 50.0),
            (TraceKey::edge(CallSiteRef::new(run_test, SiteIdx(1)), get), 50.0),
            (TraceKey::edge(hash_in_get, my_hash), 50.0),
            (TraceKey::edge(hash_in_get, obj_hash), 50.0),
        ],
        200.0,
    );
    let (result, comps) = differential(
        &p,
        &[run_test],
        &InlineOracle::new(rules.into()),
        &OptConfig::default(),
    );
    assert_eq!(result.and_then(Value::as_int), Some(107));
    let c = &comps[0];
    // Both hash targets inlined at both copies of get: 2 + 2 decisions.
    let my_count = c.decisions.iter().filter(|d| d.callee == my_hash).count();
    let obj_count = c.decisions.iter().filter(|d| d.callee == obj_hash).count();
    assert_eq!((my_count, obj_count), (2, 2));
}

#[test]
fn ci_version_is_larger_than_cs_version() {
    // Quantifies the Figure 5 effect on the miniature HashMap program: the
    // CI compilation (inline both everywhere) must generate more code than
    // the CS compilation (one target per context).
    // Reuse the two tests above by recompiling here.
    let mut b = ProgramBuilder::new();
    let sel = b.selector("hash", 0);
    let obj = b.class("Object", None);
    let myk = b.class("MyKey", Some(obj));
    let obj_hash = {
        let mut m = b.virtual_method("Object.hash", obj, sel);
        m.work(20);
        let r = m.fresh_reg();
        m.const_int(r, 100);
        m.ret(Some(r));
        m.finish()
    };
    let my_hash = {
        let mut m = b.virtual_method("MyKey.hash", myk, sel);
        m.work(20);
        let r = m.fresh_reg();
        m.const_int(r, 7);
        m.ret(Some(r));
        m.finish()
    };
    let get = {
        let mut m = b.static_method("get", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), sel, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };
    let run_test = {
        let mut m = b.static_method("runTest", 2);
        let r1 = m.fresh_reg();
        let r2 = m.fresh_reg();
        m.call_static(Some(r1), get, &[m.param(0)]);
        m.call_static(Some(r2), get, &[m.param(1)]);
        m.bin(BinOp::Add, r1, r1, r2);
        m.ret(Some(r1));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();

    let hash_in_get = CallSiteRef::new(get, SiteIdx(0));
    let get_site0 = CallSiteRef::new(run_test, SiteIdx(0));
    let get_site1 = CallSiteRef::new(run_test, SiteIdx(1));

    let ci_rules = RuleSet::from_rules(
        vec![
            (TraceKey::edge(get_site0, get), 50.0),
            (TraceKey::edge(get_site1, get), 50.0),
            (TraceKey::edge(hash_in_get, my_hash), 50.0),
            (TraceKey::edge(hash_in_get, obj_hash), 50.0),
        ],
        200.0,
    );
    let cs_rules = RuleSet::from_rules(
        vec![
            (TraceKey::edge(get_site0, get), 50.0),
            (TraceKey::edge(get_site1, get), 50.0),
            (TraceKey::new(my_hash, vec![hash_in_get, get_site0]), 50.0),
            (TraceKey::new(obj_hash, vec![hash_in_get, get_site1]), 50.0),
        ],
        200.0,
    );
    let config = OptConfig::default();
    let ci = compile(&p, run_test, &InlineOracle::new(ci_rules.into()), &config);
    let cs = compile(&p, run_test, &InlineOracle::new(cs_rules.into()), &config);
    assert!(
        ci.generated_size > cs.generated_size,
        "CI {} should exceed CS {}",
        ci.generated_size,
        cs.generated_size
    );
    // CI: 4 guarded bodies; CS: 2.
    assert_eq!(ci.guarded_count(), 4);
    assert_eq!(cs.guarded_count(), 2);
}

#[test]
fn recursion_is_refused() {
    let mut b = ProgramBuilder::new();
    let rec = {
        let mut m = b.static_method("rec", 1);
        let zero = m.fresh_reg();
        m.const_int(zero, 0);
        let out = m.label();
        m.branch(aoci_ir::Cond::Le, m.param(0), zero, out);
        let one = m.fresh_reg();
        let t = m.fresh_reg();
        m.const_int(one, 1);
        m.bin(BinOp::Sub, t, m.param(0), one);
        m.call_static(None, m.id(), &[t]);
        m.bind(out);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        m.const_int(n, 3);
        m.call_static(None, rec, &[n]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let (_, comps) = differential(&p, &[rec], &InlineOracle::empty(), &OptConfig::default());
    assert!(!comps[0].inlined(rec));
    assert!(comps[0]
        .refusals
        .iter()
        .any(|r| r.callee == rec && r.reason == RefusalReason::Recursive));
}

#[test]
fn deep_chains_respect_depth_budget() {
    // A chain of 10 small callees under a root large enough that the soft
    // size budget does not bind first: the soft depth budget of 5 inlines
    // 5 levels and the rest stay as calls.
    let mut b = ProgramBuilder::new();
    let mut prev: Option<MethodId> = None;
    for i in 0..10 {
        let mut m = b.static_method(format!("level{i}"), 0);
        m.work(20); // small
        if let Some(callee) = prev {
            m.call_static(None, callee, &[]);
        }
        m.ret(None);
        prev = Some(m.finish());
    }
    let root = {
        let mut m = b.static_method("root", 0);
        m.work(100);
        m.call_static(None, prev.unwrap(), &[]);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, root, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let (_, comps) = differential(&p, &[root], &InlineOracle::empty(), &OptConfig::default());
    let c = &comps[0];
    assert_eq!(c.decisions.len(), 5);
    assert!(c
        .refusals
        .iter()
        .any(|r| r.reason == RefusalReason::DepthExceeded));
    // The remaining chain is a call in the generated code.
    assert!(c.version.body.iter().any(|i| i.is_call()));
}

#[test]
fn inline_map_exposes_source_chain() {
    let mut b = ProgramBuilder::new();
    let inner = {
        let mut m = b.static_method("inner", 0);
        m.work(20); // small: inlines without profile support
        m.ret(None);
        m.finish()
    };
    let outer = {
        let mut m = b.static_method("outer", 0);
        m.call_static(None, inner, &[]);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        m.call_static(None, outer, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let c = compile(&p, main, &InlineOracle::empty(), &OptConfig::default());
    // main inlines outer which inlines inner. Find an instruction from
    // inner and verify the recovered chain.
    let map = &c.version.inline_map;
    let idx = c
        .version
        .body
        .iter()
        .position(|i| matches!(i, Instr::Work { units: 20 }))
        .expect("inner body present");
    let methods: Vec<MethodId> = map.source_chain(idx).map(|(m, _)| m).collect();
    assert_eq!(methods, vec![inner, outer, main]);
}

#[test]
fn preserves_loops_and_effects_in_inlined_bodies() {
    // The callee has a loop and writes a global; differential execution
    // checks the global too via the returned accumulator.
    let mut b = ProgramBuilder::new();
    let g = b.global("acc");
    let bump = {
        let mut m = b.static_method("bump", 1);
        let i = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(one, 1);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(aoci_ir::Cond::Ge, i, m.param(0), out);
        m.get_global(acc, g);
        m.bin(BinOp::Add, acc, acc, one);
        m.put_global(g, acc);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let n = m.fresh_reg();
        m.const_int(n, 5);
        m.call_static(None, bump, &[n]);
        m.const_int(n, 3);
        m.call_static(None, bump, &[n]);
        let r = m.fresh_reg();
        m.get_global(r, g);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let (result, comps) =
        differential(&p, &[main], &InlineOracle::empty(), &OptConfig::default());
    assert_eq!(result.and_then(Value::as_int), Some(8));
    assert_eq!(comps[0].decisions.len(), 2, "bump inlined at both sites");
}

#[test]
fn simplify_shrinks_generated_code() {
    let mut b = ProgramBuilder::new();
    let add = {
        let mut m = b.static_method("add", 2);
        let r = m.fresh_reg();
        m.bin(BinOp::Add, r, m.param(0), m.param(1));
        m.ret(Some(r));
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let a = m.fresh_reg();
        let c = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(a, 1);
        m.const_int(c, 2);
        m.call_static(Some(r), add, &[a, c]);
        m.ret(Some(r));
        m.finish()
    };
    let p = b.finish(main).unwrap();
    let plain = compile(
        &p,
        main,
        &InlineOracle::empty(),
        &OptConfig { simplify: false },
    );
    let simplified = compile(&p, main, &InlineOracle::empty(), &OptConfig::default());
    assert!(simplified.generated_size < plain.generated_size);
    // Constant arguments fold all the way through the inlined body.
    let mut vm = Vm::new(&p, no_sampling());
    vm.registry_mut().install(simplified.version.clone());
    assert_eq!(
        vm.run_to_completion().unwrap().and_then(Value::as_int),
        Some(3)
    );
}

/// A `main` whose own calls fill `ArgSpan::MAX_POOL` registers of its pool
/// (virtual calls nothing implements, so they stay calls), then call a tiny
/// `wrap` whose one call passes `wrap_args` registers.
fn full_pool_program(wrap_args: u16) -> (Program, MethodId, MethodId) {
    let mut b = ProgramBuilder::new();
    let max_args = u16::try_from(ArgSpan::MAX_ARGS).unwrap();
    let wide = b.selector("wide", max_args);
    let leaf = {
        let mut m = b.static_method("leaf", wrap_args);
        m.ret(None);
        m.finish()
    };
    let wrap = {
        let mut m = b.static_method("wrap", 0);
        let x = m.fresh_reg();
        m.const_int(x, 1);
        m.call_static(None, leaf, &vec![x; usize::from(wrap_args)]);
        m.ret(None);
        m.finish()
    };
    let main = {
        let mut m = b.static_method("main", 0);
        let r = m.fresh_reg();
        m.const_null(r);
        for _ in 0..ArgSpan::MAX_POOL / ArgSpan::MAX_ARGS {
            m.call_virtual(None, wide, r, &[r; ArgSpan::MAX_ARGS]);
        }
        m.call_static(None, wrap, &[]);
        m.ret(None);
        m.finish()
    };
    let p = b.finish(main).unwrap();
    assert_eq!(p.method(main).arg_pool().len(), ArgSpan::MAX_POOL);
    (p, main, wrap)
}

#[test]
fn a_callee_that_could_overflow_the_argument_pool_is_refused() {
    // A callee without call arguments fits the full pool.
    let (p, main, wrap) = full_pool_program(0);
    let c = compile(&p, main, &InlineOracle::empty(), &OptConfig::default());
    assert!(c.inlined(wrap));
    assert!(c.refusals.iter().all(|r| r.reason != RefusalReason::ArgPoolFull));
    // One more argument register does not.
    let (p, main, wrap) = full_pool_program(1);
    let c = compile(&p, main, &InlineOracle::empty(), &OptConfig::default());
    assert!(!c.inlined(wrap));
    let refusal = c.refusals.iter().find(|r| r.callee == wrap).expect("wrap is refused");
    assert_eq!(refusal.reason, RefusalReason::ArgPoolFull);
    assert_eq!(c.version.arg_pool.len(), ArgSpan::MAX_POOL, "every call kept its arguments");
    let calls = c.version.body.iter().filter(|i| i.is_call()).count();
    assert_eq!(calls, ArgSpan::MAX_POOL / ArgSpan::MAX_ARGS + 1);
}
