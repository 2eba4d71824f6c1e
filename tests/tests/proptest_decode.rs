//! Property-based testing of the pre-decoded instruction form
//! (DESIGN.md §13). The decoded representation retains every source
//! identifier alongside its resolved offset/layout, so decoding must be
//! **losslessly invertible** — `encode ∘ decode` is the identity on any
//! valid method body — and superinstruction fusion is a pure dispatch
//! overlay: it never changes which cycles are charged, in what order, or
//! where branches land.
//!
//! Program shapes come from the fuzz generator
//! ([`aoci_workloads::build_fuzz`] over sampled
//! [`FuzzSpec`](aoci_workloads::FuzzSpec)s), which reaches field/array
//! traffic, inheritance chains, megamorphic sites and unwind-style
//! control flow the curated suite never forms, plus the curated suite
//! itself as a fixed corpus.

use aoci_core::{InlineOracle, RuleSet};
use aoci_ir::{
    decode_body, encode_body, fused_kind, fusion_plan, BinOp, CallSiteRef, DecodedOp,
    Instr, Program, ProgramBuilder, Reg,
};
use aoci_opt::{compile, OptConfig};
use aoci_profile::TraceKey;
use aoci_vm::{
    CostModel, ExecCounters, MethodGuardStats, MethodVersion, OptLevel, OsrRequest, RunOutcome,
    StackSnapshot, Value, Vm, VmConfig, VmError, COMPONENTS,
};
use aoci_workloads::{build, suite};
use proptest::prelude::*;

/// Draws a generated program as a pure function of (campaign seed, case
/// index) — the same sampler the fuzz campaign uses, so every shape its
/// spec space covers is reachable here.
fn fuzz_program(seed: u64, index: usize) -> Program {
    let spec = aoci_fuzz::sample_spec(seed, index);
    aoci_workloads::build_fuzz(&spec).expect("sampled spec builds").program
}

/// decode ∘ encode identity over one whole program.
fn assert_roundtrip(program: &Program, what: &str) {
    for m in program.methods() {
        let decoded = decode_body(m.body(), program);
        assert_eq!(
            encode_body(&decoded),
            m.body(),
            "{what}: encode(decode(body)) != body for method {}",
            m.name()
        );
    }
}

/// Every decoded call of `body` names, in the body's argument pool `pool`,
/// the registers its source instruction reads (the receiver first): the
/// decoded form keeps the source body's spans. Returns the calls checked.
fn assert_calls_resolve(body: &[Instr], pool: &[Reg], program: &Program, what: &str) -> usize {
    let ops = decode_body(body, program);
    let mut calls = 0;
    for (pc, (op, instr)) in ops.iter().zip(body).enumerate() {
        let (recv, args) = match *op {
            DecodedOp::CallStatic { args, .. } => (None, args),
            DecodedOp::CallVirtual { recv, args, .. } => (Some(recv), args),
            _ => continue,
        };
        let decoded: Vec<u16> =
            recv.into_iter().chain(args.of(pool).iter().map(|r| r.0)).collect();
        let mut source = Vec::new();
        instr.for_each_use(pool, |r| source.push(r.0));
        assert_eq!(decoded, source, "{what}: operands of the call at pc {pc}");
        calls += 1;
    }
    calls
}

/// [`assert_calls_resolve`] over every source body of `program` and every
/// body the inliner makes of it with every edge hot. Returns the calls
/// checked.
fn assert_program_calls_resolve(program: &Program, what: &str) -> usize {
    let oracle = all_edges_hot(program);
    let mut calls = 0;
    for m in program.methods() {
        calls += assert_calls_resolve(m.body(), m.arg_pool(), program, what);
        let v = compile(program, m.id(), &oracle, &OptConfig::default()).version;
        let optimized = format!("{what} (optimized)");
        calls += assert_calls_resolve(&v.body, &v.arg_pool, program, &optimized);
    }
    calls
}

/// Every decoded branch target is an absolute pc inside its body (the
/// decoded layout is 1:1 with the source body, so decoded pc == source
/// pc and the source body's bounds argument carries over verbatim).
fn assert_targets_in_range(program: &Program, what: &str) {
    for m in program.methods() {
        let decoded = decode_body(m.body(), program);
        let len = decoded.len();
        for (pc, op) in decoded.iter().enumerate() {
            let targets: Vec<u32> = match op {
                DecodedOp::Jump { target } => vec![*target],
                DecodedOp::Branch { target, .. } => vec![*target],
                DecodedOp::GuardClass { else_target, .. } => vec![*else_target],
                DecodedOp::GuardMethod { target: _, else_target, .. } => vec![*else_target],
                _ => Vec::new(),
            };
            for t in targets {
                assert!(
                    (t as usize) < len,
                    "{what}: {}@{pc} resolves to target {t} outside body of {len}",
                    m.name()
                );
            }
        }
    }
}

/// The fusion plan is exactly the static pair table applied position by
/// position: one entry per instruction, entry `i` agreeing with
/// [`fused_kind`] on the pair `(i, i+1)`, and necessarily `None` at the
/// last instruction.
fn assert_plan_consistent(program: &Program, what: &str) {
    for m in program.methods() {
        let decoded = decode_body(m.body(), program);
        let plan = fusion_plan(&decoded);
        assert_eq!(plan.len(), decoded.len(), "{what}: plan length mismatch in {}", m.name());
        for (i, entry) in plan.iter().enumerate() {
            let expect = decoded.get(i + 1).and_then(|b| fused_kind(&decoded[i], b));
            assert_eq!(
                *entry,
                expect,
                "{what}: plan[{i}] disagrees with fused_kind in {}",
                m.name()
            );
        }
        if let Some(last) = plan.last() {
            assert_eq!(*last, None, "{what}: last instruction cannot head a pair in {}", m.name());
        }
    }
}

/// Everything a run lets its embedder see.
struct Observed {
    /// The program's result, or the fault — site included: both runs
    /// execute the same code, so even the faulting pc must agree.
    result: Result<Option<Value>, VmError>,
    /// Every [`RunOutcome`] except `BudgetExhausted`, in order.
    yields: Vec<Yielded>,
    /// Simulated cycles per clock component.
    clock: Vec<u64>,
    counters: ExecCounters,
    guards: Vec<MethodGuardStats>,
}

#[derive(Debug, PartialEq)]
enum Yielded {
    /// Carries the sample's cycle, root, prologue flag and frames.
    Sample(StackSnapshot),
    Osr { cycles: u64, request: OsrRequest },
}

/// Runs `program` in `budget`-cycle slices with sampling (prime period) and
/// OSR on, over `versions` pre-installed (none: all-baseline). OSR requests
/// are recorded and declined.
fn observe(program: &Program, versions: &[MethodVersion], budget: u64) -> Observed {
    let cost = CostModel { sample_period: 2_003, ..CostModel::default() };
    // What makes `run(1)` fusion-free: a pair's first half always costs a
    // whole cycle, which is the whole budget.
    for level in [OptLevel::Baseline, OptLevel::Optimized] {
        assert!(cost.level_factor(level) >= 1, "{level:?} instructions must cost a cycle");
    }
    let config =
        VmConfig { osr_enabled: true, osr_backedge_threshold: 48, ..VmConfig::default() };
    let mut vm = Vm::with_config(program, cost, config);
    for v in versions {
        vm.registry_mut().install(v.clone());
    }
    let mut yields = Vec::new();
    let result = loop {
        match vm.run(budget) {
            Ok(RunOutcome::Sample(s)) => yields.push(Yielded::Sample(s)),
            Ok(RunOutcome::OsrRequest(request)) => {
                yields.push(Yielded::Osr { cycles: vm.clock().total(), request });
            }
            Ok(RunOutcome::BudgetExhausted) => {}
            Ok(RunOutcome::Finished(v)) => break Ok(v),
            Err(e) => break Err(e),
        }
    };
    Observed {
        result,
        yields,
        clock: COMPONENTS.iter().map(|&c| vm.clock().component(c)).collect(),
        counters: vm.counters(),
        guards: program.methods().map(|m| vm.guard_stats(m.id())).collect(),
    }
}

/// An oracle under which every call edge the program could take is hot:
/// static callees inline, and every virtual site gets guarded inlines of
/// its selector's implementations (as many as the compiler allows), so
/// receivers of the other classes miss the guards.
fn all_edges_hot(program: &Program) -> InlineOracle {
    let mut rules = Vec::new();
    for m in program.methods() {
        for instr in m.body() {
            let callees = match instr {
                Instr::CallStatic { callee, .. } => std::slice::from_ref(callee),
                Instr::CallVirtual { selector, .. } => program.implementations(*selector),
                _ => continue,
            };
            let site = CallSiteRef::new(m.id(), instr.call_site().expect("calls have sites"));
            rules.extend(callees.iter().map(|&callee| (TraceKey::edge(site, callee), 100.0)));
        }
    }
    let total = rules.len().max(1) as f64 * 100.0;
    InlineOracle::new(RuleSet::from_rules(rules, total).into())
}

/// The free run (`run(u64::MAX)`: superinstructions wherever the clock
/// allows) and the single-stepped run (`run(1)`: never fused, every check
/// of the schedule after every instruction) of `program`, once all-baseline
/// and once with every method's optimizing-compiler output installed, so
/// guards and optimized-level pairs execute.
fn free_and_stepped(program: &Program) -> [(Observed, Observed); 2] {
    let (oracle, config) = (all_edges_hot(program), OptConfig::default());
    let compiled: Vec<MethodVersion> =
        program.methods().map(|m| compile(program, m.id(), &oracle, &config).version).collect();
    [&[][..], &compiled[..]].map(|vs| (observe(program, vs, u64::MAX), observe(program, vs, 1)))
}

/// Fusion never changes the charged cost: a full run charges exactly the
/// same simulated cycles to the same components — and counts the same
/// calls, dispatches and guards, per method — whether its blocks execute
/// through fused superinstructions or one instruction per `run`. (A fused
/// pair charges cost(A) then cost(B) at the boundary, so per-block totals
/// are preserved by construction; this checks the construction end-to-end,
/// faults included.)
fn assert_cost_invariant(runs: &[(Observed, Observed)], what: &str) {
    for (free, stepped) in runs {
        assert_eq!(free.clock, stepped.clock, "{what}: charged cycles differ");
        assert_eq!(free.counters, stepped.counters, "{what}: exec counters differ");
        assert_eq!(free.guards, stepped.guards, "{what}: per-method guard stats differ");
    }
}

/// What the embedder is handed is the same either way: the result (or the
/// fault and its site) and every sample and OSR request, at the same cycle
/// with the same stack.
fn assert_outcomes_agree(runs: &[(Observed, Observed)], what: &str) {
    for (free, stepped) in runs {
        assert_eq!(free.result, stepped.result, "{what}: result differs");
        assert_eq!(free.yields, stepped.yields, "{what}: yielded outcomes differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode ∘ decode is the identity on every method body of a
    /// generated program.
    #[test]
    fn decode_roundtrips_fuzz_bodies(seed in 0u64..1u64 << 32, index in 0usize..256) {
        let program = fuzz_program(seed, index);
        let what = format!("fuzz seed={seed} index={index}");
        assert_roundtrip(&program, &what);
        assert_program_calls_resolve(&program, &what);
    }

    /// Branch-target resolution lands inside the body, and the fusion
    /// plan is the static table applied pointwise.
    #[test]
    fn targets_and_plan_are_well_formed(seed in 0u64..1u64 << 32, index in 0usize..256) {
        let program = fuzz_program(seed, index);
        let what = format!("fuzz seed={seed} index={index}");
        assert_targets_in_range(&program, &what);
        assert_plan_consistent(&program, &what);
    }

    /// Fusion never changes the total charged cost of any executed
    /// block: per-component cycles and counters match the single-stepped
    /// run.
    #[test]
    fn fusion_preserves_charged_cost(seed in 0u64..1u64 << 32, index in 0usize..256) {
        let runs = free_and_stepped(&fuzz_program(seed, index));
        assert_cost_invariant(&runs, &format!("fuzz seed={seed} index={index}"));
    }

    /// The VM-visible outcome (result or fault, every sample and OSR
    /// request) is identical whether the run is free to fuse or
    /// single-stepped, on generated programs.
    #[test]
    fn outcomes_agree_across_dispatch_modes(seed in 0u64..1u64 << 32, index in 0usize..256) {
        let runs = free_and_stepped(&fuzz_program(seed, index));
        assert_outcomes_agree(&runs, &format!("fuzz seed={seed} index={index}"));
    }
}

/// The curated suite as a fixed corpus: every workload body round-trips,
/// resolves its targets and its calls' arguments, and carries a consistent
/// fusion plan.
#[test]
fn suite_bodies_roundtrip_and_plan() {
    let mut calls = 0;
    for spec in suite() {
        let w = build(&spec);
        assert_roundtrip(&w.program, &w.name);
        assert_targets_in_range(&w.program, &w.name);
        assert_plan_consistent(&w.program, &w.name);
        calls += assert_program_calls_resolve(&w.program, &w.name);
    }
    assert!(calls > 1_000, "{calls} calls resolved");
}

/// The curated suite (1/40 of its iterations) as a fixed corpus for the
/// two run properties — and, unlike a generated program, sure to sample,
/// raise OSR requests and both pass and miss guards.
#[test]
fn suite_runs_agree_free_and_stepped() {
    let (mut samples, mut requests) = (0, 0);
    let mut guards = MethodGuardStats::default();
    for mut spec in suite() {
        spec.iterations /= 40;
        let w = build(&spec);
        let runs = free_and_stepped(&w.program);
        assert_cost_invariant(&runs, &w.name);
        assert_outcomes_agree(&runs, &w.name);
        for (free, _) in &runs {
            assert!(free.result.is_ok(), "{}: {:?}", w.name, free.result);
            samples += free.yields.iter().filter(|y| matches!(y, Yielded::Sample(_))).count();
            requests += free.yields.iter().filter(|y| matches!(y, Yielded::Osr { .. })).count();
            guards.checks += free.counters.guard_checks;
            guards.misses += free.counters.guard_misses;
        }
    }
    assert!(samples > 0 && requests > 0, "{samples} samples, {requests} OSR requests");
    assert!(0 < guards.misses && guards.misses < guards.checks, "{guards:?}");
}

/// Generated programs rarely fault inside a fused pair; these do, once in
/// each half. A fault in the first half must not have paid for the second,
/// and a fault in the second half names the second instruction's pc.
#[test]
fn faulting_pairs_agree_free_and_stepped() {
    let mut b = ProgramBuilder::new();
    let class = b.class("A", None);
    let field = b.field(class, "x");
    let main = {
        let mut m = b.static_method("main", 0);
        let (o, r) = (m.fresh_reg(), m.fresh_reg());
        m.const_null(o);
        m.get_field(r, o, field); // pc 1: heads GetField+Bin, faults
        m.bin(BinOp::Add, r, r, r);
        m.ret(Some(r));
        m.finish()
    };
    let null_first_half = b.finish(main).expect("valid program");

    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("main", 0);
        let (a, z) = (m.fresh_reg(), m.fresh_reg());
        m.const_int(a, 7);
        m.const_int(z, 0); // pc 1: heads Const+Bin
        m.bin(BinOp::Div, a, a, z); // pc 2: faults
        m.ret(Some(a));
        m.finish()
    };
    let div_second_half = b.finish(main).expect("valid program");

    let null_deref = VmError::NullDeref { method: null_first_half.entry(), pc: 1 };
    let div_by_zero = VmError::DivideByZero { method: div_second_half.entry(), pc: 2 };
    let cases =
        [(null_first_half, "null", null_deref), (div_second_half, "div0", div_by_zero)];
    for (program, what, fault) in cases {
        let main = program.method(program.entry());
        let plan = fusion_plan(&decode_body(main.body(), &program));
        assert!(plan[1].is_some(), "{what}: pc 1 heads a pair: {plan:?}");
        let runs = free_and_stepped(&program);
        assert_cost_invariant(&runs, what);
        assert_outcomes_agree(&runs, what);
        assert_eq!(runs[0].0.result, Err(fault), "{what}: the baseline run's fault");
    }
}
