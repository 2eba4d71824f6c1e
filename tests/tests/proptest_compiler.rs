//! Property-based differential testing of the optimizing compiler: for
//! randomly generated programs, optimized code (with and without aggressive
//! profile-directed inlining) must produce exactly the same outcome as
//! baseline execution — including faults.

use aoci_core::{InlineOracle, RuleSet};
use aoci_ir::{BinOp, MethodId, Program, ProgramBuilder, Reg, SiteIdx};
use aoci_opt::{compile, OptConfig};
use aoci_profile::TraceKey;
use aoci_vm::{CostModel, Value, Vm, VmError};
use proptest::prelude::*;

const SCRATCH_REGS: u16 = 6;

/// One generated instruction (register indices are taken modulo the
/// method's register count, so any byte sequence is a valid program).
#[derive(Clone, Debug)]
enum Op {
    Const { dst: u8, value: i8 },
    Mov { dst: u8, src: u8 },
    Bin { op: u8, dst: u8, lhs: u8, rhs: u8 },
    Work { units: u8 },
    /// Call a previously defined method (index modulo available callees).
    Call { target: u8, dst: u8, args: [u8; 2] },
    /// Virtual call through the shared selector; the receiver comes from a
    /// global set up by main.
    VCall { dst: u8 },
}

#[derive(Clone, Debug)]
struct MethodSpec {
    arity: u8,
    ops: Vec<Op>,
    ret: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i8>()).prop_map(|(dst, value)| Op::Const { dst, value }),
        (any::<u8>(), any::<u8>()).prop_map(|(dst, src)| Op::Mov { dst, src }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, dst, lhs, rhs)| Op::Bin { op, dst, lhs, rhs }),
        any::<u8>().prop_map(|units| Op::Work { units }),
        (any::<u8>(), any::<u8>(), any::<[u8; 2]>())
            .prop_map(|(target, dst, args)| Op::Call { target, dst, args }),
        any::<u8>().prop_map(|dst| Op::VCall { dst }),
    ]
}

fn method_strategy() -> impl Strategy<Value = MethodSpec> {
    (0u8..=2, prop::collection::vec(op_strategy(), 1..12), any::<u8>())
        .prop_map(|(arity, ops, ret)| MethodSpec { arity, ops, ret })
}

fn program_strategy() -> impl Strategy<Value = (Vec<MethodSpec>, [MethodSpec; 2], bool)> {
    (
        prop::collection::vec(method_strategy(), 1..6),
        [method_strategy(), method_strategy()],
        any::<bool>(),
    )
}

const BIN_OPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
];

/// Assembles the generated specs into a valid program. Methods may call
/// only earlier methods, so call graphs are acyclic and execution
/// terminates.
fn assemble(
    specs: &[MethodSpec],
    impls: &[MethodSpec; 2],
    receiver_is_b: bool,
) -> (Program, Vec<(MethodId, SiteIdx, MethodId)>) {
    let mut b = ProgramBuilder::new();
    let sel = b.selector("virt", 0);
    let class_a = b.class("A", None);
    let class_b = b.class("B", Some(class_a));
    let g_recv = b.global("recv");
    let mut edges: Vec<(MethodId, SiteIdx, MethodId)> = Vec::new();

    // The two virtual implementations are leaf methods (no calls).
    for (i, (spec, class)) in impls.iter().zip([class_a, class_b]).enumerate() {
        let mut m = b.virtual_method(format!("impl{i}"), class, sel);
        let nregs = SCRATCH_REGS;
        for _ in 1..nregs {
            m.fresh_reg();
        }
        for op in &spec.ops {
            match op {
                Op::Const { dst, value } => {
                    m.const_int(Reg(*dst as u16 % nregs), *value as i64)
                }
                Op::Mov { dst, src } => {
                    m.mov(Reg(*dst as u16 % nregs), Reg(*src as u16 % nregs))
                }
                Op::Bin { op, dst, lhs, rhs } => m.bin(
                    BIN_OPS[*op as usize % BIN_OPS.len()],
                    Reg(*dst as u16 % nregs),
                    Reg(*lhs as u16 % nregs),
                    Reg(*rhs as u16 % nregs),
                ),
                Op::Work { units } => m.work(*units as u32),
                // Leaves: calls become work.
                Op::Call { .. } | Op::VCall { .. } => m.work(1),
            }
        }
        m.ret(Some(Reg(spec.ret as u16 % nregs)));
        m.finish();
    }

    let mut methods: Vec<(MethodId, u8)> = Vec::new(); // (id, arity)
    for (i, spec) in specs.iter().enumerate() {
        let arity = spec.arity as u16;
        let mut m = b.static_method(format!("m{i}"), arity);
        let nregs = SCRATCH_REGS + arity;
        for _ in arity..nregs {
            m.fresh_reg();
        }
        for op in &spec.ops {
            match op {
                Op::Const { dst, value } => {
                    m.const_int(Reg(*dst as u16 % nregs), *value as i64)
                }
                Op::Mov { dst, src } => {
                    m.mov(Reg(*dst as u16 % nregs), Reg(*src as u16 % nregs))
                }
                Op::Bin { op, dst, lhs, rhs } => m.bin(
                    BIN_OPS[*op as usize % BIN_OPS.len()],
                    Reg(*dst as u16 % nregs),
                    Reg(*lhs as u16 % nregs),
                    Reg(*rhs as u16 % nregs),
                ),
                Op::Work { units } => m.work(*units as u32),
                Op::Call { target, dst, args } => {
                    if methods.is_empty() {
                        m.work(1);
                    } else {
                        let (callee, callee_arity) =
                            methods[*target as usize % methods.len()];
                        let argv: Vec<Reg> = (0..callee_arity)
                            .map(|k| Reg(args[k as usize % 2] as u16 % nregs))
                            .collect();
                        let site = m.call_static(
                            Some(Reg(*dst as u16 % nregs)),
                            callee,
                            &argv,
                        );
                        edges.push((m.id(), site, callee));
                    }
                }
                Op::VCall { dst } => {
                    let recv = Reg(nregs - 1);
                    m.get_global(recv, g_recv);
                    m.call_virtual(Some(Reg(*dst as u16 % nregs)), sel, recv, &[]);
                }
            }
        }
        m.ret(Some(Reg(spec.ret as u16 % nregs)));
        methods.push((m.finish(), spec.arity));
    }

    let main = {
        let mut m = b.static_method("main", 0);
        let r = m.fresh_reg();
        let o = m.fresh_reg();
        m.new_obj(o, if receiver_is_b { class_b } else { class_a });
        m.put_global(g_recv, o);
        let (top, arity) = *methods.last().expect("at least one method");
        let argv: Vec<Reg> = (0..arity).map(|_| r).collect();
        m.const_int(r, 5);
        m.call_static(Some(r), top, &argv);
        m.ret(Some(r));
        m.finish()
    };
    (b.finish(main).expect("assembled program is valid"), edges)
}

/// Execution outcome with faults reduced to their kind (fault *locations*
/// legitimately differ between baseline and inlined code).
fn outcome(program: &Program, versions: Option<Vec<aoci_vm::MethodVersion>>) -> Result<Option<Value>, String> {
    let cost = CostModel { sample_period: 0, ..CostModel::default() };
    let mut vm = Vm::new(program, cost);
    if let Some(vs) = versions {
        for v in vs {
            vm.registry_mut().install(v);
        }
    }
    vm.run_to_completion().map_err(|e| {
        match e {
            VmError::NullDeref { .. } => "null",
            VmError::TypeError { .. } => "type",
            VmError::DivideByZero { .. } => "div0",
            VmError::IndexOutOfBounds { .. } => "bounds",
            VmError::NoSuchMethod { .. } => "nosuch",
            VmError::NegativeArrayLength { .. } => "neglen",
            VmError::ArrayTooLarge { .. } => "toolarge",
            VmError::StackOverflow { .. } => "overflow",
            VmError::BadRegister { .. } => "badreg",
            VmError::PcOutOfRange { .. } => "badpc",
            VmError::NoActiveFrame { .. } => "noframe",
        }
        .to_string()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimizing every method with static heuristics only preserves the
    /// program outcome exactly (including fault kinds).
    #[test]
    fn optimized_code_matches_baseline((specs, impls, recv_b) in program_strategy()) {
        let (program, _) = assemble(&specs, &impls, recv_b);
        let base = outcome(&program, None);
        let oracle = InlineOracle::empty();
        let config = OptConfig::default();
        let versions: Vec<_> = program
            .methods()
            .map(|m| compile(&program, m.id(), &oracle, &config).version)
            .collect();
        let opt = outcome(&program, Some(versions));
        prop_assert_eq!(base, opt);
    }

    /// Same, with an oracle that marks *every* observed call edge hot —
    /// maximally aggressive profile-directed inlining.
    #[test]
    fn aggressively_inlined_code_matches_baseline((specs, impls, recv_b) in program_strategy()) {
        let (program, edges) = assemble(&specs, &impls, recv_b);
        let base = outcome(&program, None);
        let rules: Vec<(TraceKey, f64)> = edges
            .iter()
            .map(|&(caller, site, callee)| {
                (TraceKey::edge(aoci_ir::CallSiteRef::new(caller, site), callee), 100.0)
            })
            .collect();
        let total = rules.len().max(1) as f64 * 100.0;
        let oracle = InlineOracle::new(RuleSet::from_rules(rules, total).into());
        let config = OptConfig::default();
        let versions: Vec<_> = program
            .methods()
            .map(|m| compile(&program, m.id(), &oracle, &config).version)
            .collect();
        let opt = outcome(&program, Some(versions));
        prop_assert_eq!(base, opt);
    }

    /// The simplifier must not change outcomes either: compare simplify on
    /// vs off under aggressive inlining.
    #[test]
    fn simplifier_is_semantics_preserving((specs, impls, recv_b) in program_strategy()) {
        let (program, edges) = assemble(&specs, &impls, recv_b);
        let rules: Vec<(TraceKey, f64)> = edges
            .iter()
            .map(|&(caller, site, callee)| {
                (TraceKey::edge(aoci_ir::CallSiteRef::new(caller, site), callee), 100.0)
            })
            .collect();
        let total = rules.len().max(1) as f64 * 100.0;
        let oracle = InlineOracle::new(RuleSet::from_rules(rules, total).into());
        let plain = OptConfig { simplify: false };
        let simp = OptConfig::default();
        let with = |config: &OptConfig| -> Vec<_> {
            program
                .methods()
                .map(|m| compile(&program, m.id(), &oracle, config).version)
                .collect()
        };
        let a = outcome(&program, Some(with(&plain)));
        let b = outcome(&program, Some(with(&simp)));
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Soundness of the IR type verifier on register uses: if a random
    /// program verifies, executing it never raises a type error or reads an
    /// uninitialised register (other fault kinds — division by zero, null
    /// dereference through heap defaults — remain possible and allowed).
    #[test]
    fn verified_programs_have_no_register_type_faults((specs, impls, recv_b) in program_strategy()) {
        let (program, _) = assemble(&specs, &impls, recv_b);
        if aoci_ir::typecheck::verify(&program).is_ok() {
            let got = outcome(&program, None);
            prop_assert_ne!(got, Err("type".to_string()));
        }
    }
}
