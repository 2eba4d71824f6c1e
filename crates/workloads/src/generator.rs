//! The synthetic workload generator.
//!
//! Builds a layered object-oriented program from a [`WorkloadSpec`]:
//!
//! ```text
//! main ──(top_sites, distinct constant contexts)──▶ layer 1 middles
//!   layer i middles ──static──▶ layer i+1 middles
//!                   ──virtual─▶ kernel families (class hierarchies)
//! ```
//!
//! Virtual receivers come from per-family receiver arrays; the index is
//! either a pure function of the context value flowing down the call chain
//! (*context-correlated* — one extra level of profile context fully
//! predicts the target) or of a per-iteration global counter (*iteration-
//! varying* — inherently unpredictable). This is precisely the structure
//! that separates context-sensitive from context-insensitive profiles.

use crate::spec::{SizeMix, WorkloadSpec};
use aoci_ir::{BinOp, Cond, GlobalId, MethodId, Program, ProgramBuilder, SelectorId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generated workload: the program plus its originating spec.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// The runnable program.
    pub program: Program,
    /// The spec it was generated from.
    pub spec: WorkloadSpec,
}

struct FamilyInfo {
    selector: SelectorId,
    arity: u16,
    impls: usize,
    recv_global: GlobalId,
    classes: Vec<aoci_ir::ClassId>,
}

/// A callable middle method: either a class (static) method or an instance
/// method on its layer's service class.
#[derive(Clone, Copy)]
enum Middle {
    Static(MethodId),
    Instance(SelectorId),
}

#[derive(Clone, Copy)]
struct MiddleInfo {
    target: Middle,
    parameterless: bool,
    layer: usize,
}

/// Deterministically builds the program described by `spec`.
///
/// # Panics
///
/// Panics only if the spec is degenerate (zero layers/methods); all suite
/// specs build valid programs.
pub fn build(spec: &WorkloadSpec) -> Workload {
    assert!(spec.layers >= 1 && spec.methods_per_layer >= 1, "degenerate spec");
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut b = ProgramBuilder::new();

    let g_counter = b.global("counter");
    let g_phase = b.global("phase");
    let g_ctx = b.global("sharedCtx");

    // --- Kernel families -------------------------------------------------
    let mut families = Vec::with_capacity(spec.families);
    for f in 0..spec.families {
        let arity: u16 =
            if rng.gen_bool(spec.kernel_with_param_fraction) { 1 } else { 0 };
        let selector = b.selector(format!("k{f}"), arity);
        let recv_global = b.global(format!("recv{f}"));
        let base = b.class(format!("F{f}C0"), None);
        let mut classes = vec![base];
        for j in 1..spec.impls_per_family {
            classes.push(b.class(format!("F{f}C{j}"), Some(base)));
        }
        for (j, &class) in classes.iter().enumerate() {
            let size = sample_size(&mut rng, &spec.kernel_sizes);
            let mut m = b.virtual_method(format!("F{f}C{j}.k{f}"), class, selector);
            m.work(size);
            let r = m.fresh_reg();
            if arity == 1 {
                let c = m.fresh_reg();
                m.const_int(c, (f * 10 + j) as i64);
                m.bin(BinOp::Add, r, m.param(0), c);
            } else {
                m.const_int(r, (f * 10 + j) as i64);
            }
            m.ret(Some(r));
            m.finish();
        }
        families.push(FamilyInfo { selector, arity, impls: spec.impls_per_family, recv_global, classes });
    }

    // --- Per-layer service classes (hosts of instance middle methods) -----
    let svc_classes: Vec<aoci_ir::ClassId> = (0..spec.layers)
        .map(|l| b.class(format!("SvcL{l}"), None))
        .collect();
    let svc_globals: Vec<GlobalId> =
        (0..spec.layers).map(|l| b.global(format!("svc{l}"))).collect();

    // --- Middle layers, bottom-up -----------------------------------------
    // layer index 0 = closest to main; we build from the deepest layer up.
    let mut layers: Vec<Vec<MiddleInfo>> = vec![Vec::new(); spec.layers];
    for layer in (0..spec.layers).rev() {
        let is_bottom = layer == spec.layers - 1;
        for idx in 0..spec.methods_per_layer {
            let parameterless = rng.gen_bool(spec.parameterless_fraction);
            let instance = rng.gen_bool(spec.instance_middle_fraction);
            let size = sample_size(&mut rng, &spec.middle_sizes);

            // Pre-draw per-site decisions so the RNG is not borrowed while
            // the method builder borrows the program builder.
            let mut site_plans = Vec::with_capacity(spec.calls_per_method);
            for _ in 0..spec.calls_per_method {
                let virtual_site = is_bottom || rng.gen_bool(spec.virtual_fraction);
                if virtual_site {
                    let f = pick_skewed(&mut rng, families.len());
                    let correlated = rng.gen_bool(spec.context_correlation);
                    let c_site = rng.gen_range(0..families[f].impls) as i64;
                    site_plans.push(SitePlan::Kernel { family: f, correlated, c_site });
                } else {
                    let next = &layers[layer + 1];
                    site_plans.push(SitePlan::Middle(next[pick_skewed(&mut rng, next.len())]));
                }
            }

            let arity = if parameterless { 0 } else { 1 };
            let (mut m, target) = if instance {
                let sel = b.selector(format!("mL{layer}M{idx}"), arity);
                (
                    b.virtual_method(format!("L{layer}M{idx}"), svc_classes[layer], sel),
                    Middle::Instance(sel),
                )
            } else {
                let mb = b.static_method(format!("L{layer}M{idx}"), arity);
                let id = mb.id();
                (mb, Middle::Static(id))
            };
            let ctx = m.fresh_reg();
            if parameterless {
                m.get_global(ctx, g_ctx);
            } else {
                m.mov(ctx, m.param(0));
            }
            let acc = m.fresh_reg();
            m.const_int(acc, 0);
            m.work(size / 2);
            for plan in &site_plans {
                let r = m.fresh_reg();
                match plan {
                    SitePlan::Middle(info) =>

                    {
                        emit_middle_call(&mut m, info, ctx, Some(r), &svc_globals);
                    }
                    SitePlan::Kernel { family, correlated, c_site } => {
                        let fam = &families[*family];
                        let idx_reg = m.fresh_reg();
                        let k = m.fresh_reg();
                        if *correlated {
                            let c = m.fresh_reg();
                            m.const_int(c, *c_site);
                            m.bin(BinOp::Add, idx_reg, ctx, c);
                            if spec.phase_shift {
                                let ph = m.fresh_reg();
                                m.get_global(ph, g_phase);
                                m.bin(BinOp::Add, idx_reg, idx_reg, ph);
                            }
                        } else {
                            let cnt = m.fresh_reg();
                            m.get_global(cnt, g_counter);
                            let c = m.fresh_reg();
                            m.const_int(c, *c_site);
                            m.bin(BinOp::Add, idx_reg, cnt, c);
                        }
                        m.const_int(k, fam.impls as i64);
                        m.bin(BinOp::Rem, idx_reg, idx_reg, k);
                        let arr = m.fresh_reg();
                        m.get_global(arr, fam.recv_global);
                        let recv = m.fresh_reg();
                        m.arr_get(recv, arr, idx_reg);
                        if fam.arity == 1 {
                            m.call_virtual(Some(r), fam.selector, recv, &[ctx]);
                        } else {
                            m.call_virtual(Some(r), fam.selector, recv, &[]);
                        }
                    }
                }
                m.bin(BinOp::Add, acc, acc, r);
            }
            m.work(size - size / 2);
            m.ret(Some(acc));
            m.finish();
            layers[layer].push(MiddleInfo { target, parameterless, layer });
        }
    }

    // --- main --------------------------------------------------------------
    // Pre-draw top-site targets.
    let top_plans: Vec<(MiddleInfo, i64)> = (0..spec.top_sites)
        .map(|s| {
            let t = layers[0][pick_skewed(&mut rng, layers[0].len())];
            (t, (s as i64) * 3 + 1)
        })
        .collect();

    let main = {
        let mut m = b.static_method("main", 0);
        // Receiver arrays.
        for fam in &families {
            let arr = m.fresh_reg();
            let n = m.fresh_reg();
            m.const_int(n, fam.impls as i64);
            m.arr_new(arr, n);
            for (j, &class) in fam.classes.iter().enumerate() {
                let o = m.fresh_reg();
                let jr = m.fresh_reg();
                m.new_obj(o, class);
                m.const_int(jr, j as i64);
                m.arr_set(arr, jr, o);
            }
            m.put_global(fam.recv_global, arr);
        }
        let seven = m.fresh_reg();
        m.const_int(seven, 7);
        m.put_global(g_ctx, seven);
        // Service objects hosting instance middle methods.
        for (l, &class) in svc_classes.iter().enumerate() {
            let o = m.fresh_reg();
            m.new_obj(o, class);
            m.put_global(svc_globals[l], o);
        }

        let i = m.fresh_reg();
        let n = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        let two = m.fresh_reg();
        let t = m.fresh_reg();
        let ph = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(n, spec.iterations);
        m.const_int(one, 1);
        m.const_int(two, 2);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Ge, i, n, out);
        m.put_global(g_counter, i);
        // phase = (2 * i >= iterations) as int
        m.bin(BinOp::Mul, t, i, two);
        let phase1 = m.label();
        let phased = m.label();
        m.branch(Cond::Ge, t, n, phase1);
        m.const_int(ph, 0);
        m.jump(phased);
        m.bind(phase1);
        m.const_int(ph, 1);
        m.bind(phased);
        m.put_global(g_phase, ph);
        for (info, ctx_const) in &top_plans {
            let r = m.fresh_reg();
            let c = m.fresh_reg();
            m.const_int(c, *ctx_const);
            emit_middle_call(&mut m, info, c, Some(r), &svc_globals);
            m.bin(BinOp::Add, acc, acc, r);
        }
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };

    let program = b.finish(main).expect("generated workload is valid");
    Workload { name: spec.name.to_string(), program, spec: spec.clone() }
}

enum SitePlan {
    Middle(MiddleInfo),
    Kernel { family: usize, correlated: bool, c_site: i64 },
}

/// Emits a call to a middle method: a direct static call, or a virtual call
/// through the callee layer's service object.
fn emit_middle_call(
    m: &mut aoci_ir::MethodBuilder<'_>,
    info: &MiddleInfo,
    ctx: aoci_ir::Reg,
    dst: Option<aoci_ir::Reg>,
    svc_globals: &[GlobalId],
) {
    let args: &[aoci_ir::Reg] = if info.parameterless { &[] } else { std::slice::from_ref(&ctx) };
    match info.target {
        Middle::Static(target) => {
            m.call_static(dst, target, args);
        }
        Middle::Instance(selector) => {
            let recv = m.fresh_reg();
            m.get_global(recv, svc_globals[info.layer]);
            m.call_virtual(dst, selector, recv, args);
        }
    }
}

/// Picks an index in `0..n` with a log-uniform (Zipf-like) bias toward low
/// indices. Real programs have highly skewed call-frequency distributions;
/// without skew the profile weight spreads so thin that nothing crosses the
/// paper's 1.5% hot threshold.
fn pick_skewed(rng: &mut SmallRng, n: usize) -> usize {
    debug_assert!(n > 0);
    let u: f64 = rng.gen();
    // Squaring the uniform sharpens the head of the distribution; combined
    // with the log-uniform map this approximates the strongly skewed call
    // frequencies of real object-oriented programs.
    let r = u * u;
    (((n as f64).powf(r) - 1.0) as usize).min(n - 1)
}

/// Samples a body size (in `Work` units) from a size-class mix. Ranges are
/// chosen so the *finished* method (work + surrounding instructions) lands
/// in the intended Jikes size class.
fn sample_size(rng: &mut SmallRng, mix: &SizeMix) -> u32 {
    let total = mix.tiny + mix.small + mix.medium + mix.large;
    let x = rng.gen_range(0..total);
    if x < mix.tiny {
        rng.gen_range(2..=6u32)
    } else if x < mix.tiny + mix.small {
        rng.gen_range(18..=30u32)
    } else if x < mix.tiny + mix.small + mix.medium {
        rng.gen_range(45..=150u32)
    } else {
        rng.gen_range(210..=380u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::suite;

    #[test]
    fn all_suite_workloads_build() {
        for spec in suite() {
            let w = build(&spec);
            assert_eq!(w.name, spec.name);
            assert!(w.program.num_methods() > 50, "{} too small", spec.name);
            assert!(w.program.num_classes() >= spec.families * spec.impls_per_family);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = suite().remove(1); // jess
        let a = build(&spec);
        let c = build(&spec);
        assert_eq!(a.program.num_methods(), c.program.num_methods());
        assert_eq!(a.program.total_bytecode_size(), c.program.total_bytecode_size());
        // Compare a few method bodies structurally.
        for i in (0..a.program.num_methods()).step_by(17) {
            let ma = a.program.method(aoci_ir::MethodId::from_index(i));
            let mc = c.program.method(aoci_ir::MethodId::from_index(i));
            assert_eq!(ma.body(), mc.body());
            assert_eq!(ma.arg_pool(), mc.arg_pool());
        }
    }

    #[test]
    fn suite_programs_hold_no_table_slack() {
        for spec in suite() {
            let w = build(&spec);
            assert_eq!(w.program.table_slack(), 0, "{}", spec.name);
        }
    }

    #[test]
    fn seeds_differentiate_workloads() {
        let specs = suite();
        let a = build(&specs[0]);
        let c = build(&specs[1]);
        assert_ne!(
            a.program.total_bytecode_size(),
            c.program.total_bytecode_size()
        );
    }

    #[test]
    fn size_mix_within_class_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mix = SizeMix::balanced();
        for _ in 0..200 {
            let s = sample_size(&mut rng, &mix);
            assert!((2..=380).contains(&s));
        }
    }
}

#[cfg(test)]
mod verify_tests {
    use crate::spec::suite;
    use crate::{build, hashmap_test};
    use aoci_ir::typecheck;

    #[test]
    fn all_suite_workloads_typecheck() {
        for spec in suite() {
            let w = build(&spec);
            typecheck::verify(&w.program)
                .unwrap_or_else(|e| panic!("{} fails verification: {e}", spec.name));
        }
    }

    #[test]
    fn hashmap_test_typechecks() {
        let p = hashmap_test(10);
        let report = typecheck::verify(&p).expect("hashmap verifies");
        // The map's table is an array of (entry) objects.
        assert!(p.class_by_name("HashMap").is_some(), "class exists");
        // runTest returns the integer counter.
        let run_test = p.method_by_name("runTest").unwrap();
        assert_eq!(
            report.methods[run_test.index()].1,
            Some(typecheck::Shape::Int)
        );
    }

    #[test]
    fn suite_workloads_execute_correctly_at_small_scale() {
        use aoci_vm::{CostModel, Vm};
        for mut spec in suite() {
            spec.iterations = 50;
            let w = build(&spec);
            let cost = CostModel { sample_period: 0, ..CostModel::default() };
            let result = Vm::new(&w.program, cost)
                .run_to_completion()
                .unwrap_or_else(|e| panic!("{} faults: {e}", spec.name));
            assert!(result.is_some(), "{} returns a value", spec.name);
        }
    }
}
