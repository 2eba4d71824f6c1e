//! The fuzz-campaign program generator: random programs **beyond** the
//! eight curated suite shapes.
//!
//! [`FuzzSpec`] extends the curated layered call-graph skeleton
//! ([`crate::WorkloadSpec`] / [`crate::build`]) with the shapes the
//! differential-fuzzing campaign (`crates/fuzz`) needs to stress the
//! decision space of the adaptive system:
//!
//! * **deep inheritance chains** — a single-selector class chain of
//!   configurable depth with overrides every `chain_override_stride`
//!   levels, so virtual lookup genuinely walks superclass links;
//! * **megamorphic call sites** — one family with many implementations
//!   whose receiver is driven by the iteration counter, so a single site
//!   sees every target (guard thrash, invalidation, recovery fodder);
//! * **self and mutual recursion** — a static self-recursive method and a
//!   mutually-recursive virtual pair, exercising trace walks and inlining
//!   decisions over cyclic call graphs;
//! * **unwind-style control flow** — the IR has no exceptions, so
//!   exception-heavy shapes are modelled as sentinel propagation: callees
//!   conditionally return a sentinel value and every caller on the chain
//!   checks for it and early-returns, giving the dense side-exit control
//!   flow that exception handling induces;
//! * **degenerate method sizes** — tiny (1–2 work units) and huge
//!   (400–900) bodies at configurable rates, probing the size-class
//!   budget boundaries of the inliner.
//!
//! Generation is a pure function of the spec (seeded RNG, no ambient
//! state); every program that [`build_fuzz`] returns has already passed
//! [`ProgramBuilder::finish`]'s whole-program validation, and the campaign
//! additionally typechecks it before the first run.

use aoci_ir::{BinOp, ClassId, Cond, GlobalId, MethodId, Program, ProgramBuilder, SelectorId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generated fuzz program: the runnable program plus the spec that
/// produced it (the analog of [`crate::Workload`] for fuzz specs).
#[derive(Clone, Debug)]
pub struct FuzzProgram {
    /// Program name (from the spec).
    pub name: String,
    /// The runnable program.
    pub program: Program,
    /// The (normalized) spec it was generated from.
    pub spec: FuzzSpec,
}

/// The sentinel value that models a thrown exception: callees return it on
/// their "throw" path and callers propagate it upward (see module docs).
pub const UNWIND_SENTINEL: i64 = -999_983;

/// Parameters of one generated fuzz program. All counts are clamped into
/// buildable ranges by [`FuzzSpec::normalized`]; a spec with every
/// optional shape at zero still builds (sites fall back to a static leaf
/// method), which is what lets the minimizer shrink fields independently.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzSpec {
    /// Program name (used in campaign logs and regression files).
    pub name: String,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
    /// Middle layers between `main` and the leaf shapes (≥ 1).
    pub layers: usize,
    /// Middle methods per layer (≥ 1).
    pub methods_per_layer: usize,
    /// Call sites per middle method (≥ 1).
    pub calls_per_method: usize,
    /// Ordinary kernel families (as in the curated generator; may be 0).
    pub families: usize,
    /// Implementations per ordinary family (≥ 2 when `families > 0`).
    pub impls_per_family: usize,
    /// Depth of the deep-inheritance chain family (0 = no chain).
    pub chain_depth: usize,
    /// Override the chain selector every this-many levels (≥ 1).
    pub chain_override_stride: usize,
    /// Implementations of the megamorphic family (0 = none).
    pub megamorphic_impls: usize,
    /// Recursion depth passed to the recursive shapes (0 = no recursion).
    pub recursion_depth: i64,
    /// Fraction (0–1) of non-bottom middle sites that call a leaf shape
    /// instead of the next layer.
    pub virtual_fraction: f64,
    /// Fraction (0–1) of index-driven sites whose receiver is a function
    /// of the context value (the rest follow the iteration counter).
    pub context_correlation: f64,
    /// Fraction (0–1) of middle methods that read their context from a
    /// global instead of a parameter.
    pub parameterless_fraction: f64,
    /// Fraction (0–1) of middle methods hosted as instance methods on a
    /// per-layer service class.
    pub instance_middle_fraction: f64,
    /// Fraction (0–1) of call sites followed by a sentinel check that
    /// early-returns (unwind-style propagation); also the rate at which
    /// kernels get a conditional "throw" path.
    pub unwind_fraction: f64,
    /// Fraction (0–1) of bodies that are degenerate tiny (1–2 work units).
    pub tiny_fraction: f64,
    /// Fraction (0–1) of bodies that are degenerate huge (400–900 units).
    pub huge_fraction: f64,
    /// Call sites in `main`'s loop body (≥ 1).
    pub top_sites: usize,
    /// Main-loop iterations (≥ 1).
    pub iterations: i64,
}

impl FuzzSpec {
    /// A minimal valid spec: one layer, one method, one site, no optional
    /// shapes — the floor every shrink sequence bottoms out at.
    pub fn minimal(name: impl Into<String>, seed: u64) -> Self {
        FuzzSpec {
            name: name.into(),
            seed,
            layers: 1,
            methods_per_layer: 1,
            calls_per_method: 1,
            families: 0,
            impls_per_family: 2,
            chain_depth: 0,
            chain_override_stride: 1,
            megamorphic_impls: 0,
            recursion_depth: 0,
            virtual_fraction: 0.0,
            context_correlation: 0.0,
            parameterless_fraction: 0.0,
            instance_middle_fraction: 0.0,
            unwind_fraction: 0.0,
            tiny_fraction: 0.0,
            huge_fraction: 0.0,
            top_sites: 1,
            iterations: 1,
        }
    }

    /// Returns the spec with every field clamped into its buildable range
    /// (counts to their floors, fractions to 0–1). [`build_fuzz`] calls
    /// this first, so *any* field combination builds a valid program.
    pub fn normalized(mut self) -> Self {
        self.layers = self.layers.max(1);
        self.methods_per_layer = self.methods_per_layer.max(1);
        self.calls_per_method = self.calls_per_method.max(1);
        if self.families > 0 {
            self.impls_per_family = self.impls_per_family.max(2);
        }
        if self.chain_depth > 0 {
            self.chain_depth = self.chain_depth.min(32);
        }
        self.chain_override_stride = self.chain_override_stride.max(1);
        if self.megamorphic_impls > 0 {
            self.megamorphic_impls = self.megamorphic_impls.clamp(2, 32);
        }
        self.recursion_depth = self.recursion_depth.clamp(0, 32);
        for f in [
            &mut self.virtual_fraction,
            &mut self.context_correlation,
            &mut self.parameterless_fraction,
            &mut self.instance_middle_fraction,
            &mut self.unwind_fraction,
            &mut self.tiny_fraction,
            &mut self.huge_fraction,
        ] {
            *f = f.clamp(0.0, 1.0);
        }
        // Tiny + huge must leave room for the ordinary size class.
        let sum = self.tiny_fraction + self.huge_fraction;
        if sum > 1.0 {
            self.tiny_fraction /= sum;
            self.huge_fraction /= sum;
        }
        self.top_sites = self.top_sites.max(1);
        self.iterations = self.iterations.max(1);
        self
    }

    /// Checks every fraction field is in range (used by spec tests).
    pub fn fractions_valid(&self) -> bool {
        [
            self.virtual_fraction,
            self.context_correlation,
            self.parameterless_fraction,
            self.instance_middle_fraction,
            self.unwind_fraction,
            self.tiny_fraction,
            self.huge_fraction,
        ]
        .iter()
        .all(|f| (0.0..=1.0).contains(f))
    }
}

/// One leaf target a middle call site can dispatch to.
#[derive(Clone, Copy)]
enum Leaf {
    /// Plain static leaf method (always exists).
    Static,
    /// Virtual call into ordinary kernel family `f`, receiver index from
    /// context (`correlated`) or the iteration counter, biased by `c_site`.
    Kernel { family: usize, correlated: bool, c_site: i64 },
    /// Virtual call through the deep-inheritance chain.
    Chain { correlated: bool, c_site: i64 },
    /// Virtual call through the megamorphic family (always counter-driven).
    Mega { c_site: i64 },
    /// Static self-recursive call.
    RecSelf,
    /// Virtual mutually-recursive call.
    RecMutual,
}

/// One pre-drawn call-site plan inside a middle method.
enum SitePlan {
    /// Call a middle method of the next layer.
    Middle(MiddleRef),
    /// Call a leaf shape.
    Leaf(Leaf),
}

/// A callable middle method, as seen by its callers.
#[derive(Clone, Copy)]
struct MiddleRef {
    target: MiddleTarget,
    parameterless: bool,
    layer: usize,
}

#[derive(Clone, Copy)]
enum MiddleTarget {
    Static(MethodId),
    Instance(SelectorId),
}

struct FamilyInfo {
    selector: SelectorId,
    impls: usize,
    recv_global: GlobalId,
    classes: Vec<ClassId>,
}

/// Deterministically builds the program described by `spec` (normalizing
/// it first — see [`FuzzSpec::normalized`]).
///
/// # Errors
///
/// Propagates [`ProgramBuilder::finish`] validation errors. The generator
/// is intended to *never* produce one — the campaign treats an `Err` as a
/// finding in its own right rather than panicking.
pub fn build_fuzz(spec: &FuzzSpec) -> Result<FuzzProgram, aoci_ir::IrError> {
    let spec = spec.clone().normalized();
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut b = ProgramBuilder::new();

    let g_counter = b.global("fzCounter");
    let g_ctx = b.global("fzSharedCtx");

    // --- Ordinary kernel families (curated-style) -------------------------
    let mut families = Vec::with_capacity(spec.families);
    for f in 0..spec.families {
        let selector = b.selector(format!("fzK{f}"), 1);
        let recv_global = b.global(format!("fzRecv{f}"));
        let base = b.class(format!("FzF{f}C0"), None);
        let mut classes = vec![base];
        for j in 1..spec.impls_per_family {
            classes.push(b.class(format!("FzF{f}C{j}"), Some(base)));
        }
        families.push(FamilyInfo { selector, impls: spec.impls_per_family, recv_global, classes });
    }

    // --- Deep inheritance chain ------------------------------------------
    // Classes FzD0 <- FzD1 <- … <- FzD{depth}; the selector is overridden
    // at the base, every `stride` levels, and at the leaf, so dispatch on
    // intermediate classes resolves through genuine superclass walks.
    let chain = if spec.chain_depth > 0 {
        let selector = b.selector("fzDeep", 1);
        let recv_global = b.global("fzChainRecv");
        let mut classes = Vec::with_capacity(spec.chain_depth + 1);
        let mut parent = None;
        for l in 0..=spec.chain_depth {
            let c = b.class(format!("FzD{l}"), parent);
            classes.push(c);
            parent = Some(c);
        }
        Some((selector, recv_global, classes))
    } else {
        None
    };

    // --- Megamorphic family ----------------------------------------------
    let mega = if spec.megamorphic_impls > 0 {
        let selector = b.selector("fzMega", 1);
        let recv_global = b.global("fzMegaRecv");
        let base = b.class("FzMega0", None);
        let mut classes = vec![base];
        for j in 1..spec.megamorphic_impls {
            classes.push(b.class(format!("FzMega{j}"), Some(base)));
        }
        Some((selector, recv_global, classes))
    } else {
        None
    };

    // --- Recursion host --------------------------------------------------
    let recursion = if spec.recursion_depth > 0 {
        let class = b.class("FzRecC", None);
        let sel_a = b.selector("fzRecA", 1);
        let sel_b = b.selector("fzRecB", 1);
        let recv_global = b.global("fzRecObj");
        Some((class, sel_a, sel_b, recv_global))
    } else {
        None
    };

    // --- Per-layer service classes for instance middles --------------------
    let svc_classes: Vec<ClassId> =
        (0..spec.layers).map(|l| b.class(format!("FzSvcL{l}"), None)).collect();
    let svc_globals: Vec<GlobalId> =
        (0..spec.layers).map(|l| b.global(format!("fzSvc{l}"))).collect();

    // --- Leaf method bodies ------------------------------------------------
    // The static leaf always exists: the fallback target that keeps every
    // spec buildable even with all optional shapes at zero.
    let leaf_static = {
        let mut m = b.static_method("fzLeaf", 1);
        let id = m.id();
        m.work(sample_size(&mut rng, &spec));
        let r = m.fresh_reg();
        let c = m.fresh_reg();
        m.const_int(c, 3);
        m.bin(BinOp::Mul, r, m.param(0), c);
        m.ret(Some(r));
        m.finish();
        id
    };

    // Ordinary kernels: one virtual method per family implementation, with
    // a conditional "throw" path at the unwind rate.
    for (f, fam) in families.iter().enumerate() {
        // Pre-draw per-impl choices (the method builder borrows `b`).
        let plans: Vec<(u32, bool)> = (0..fam.classes.len())
            .map(|_| (sample_size(&mut rng, &spec), rng.gen_bool(spec.unwind_fraction)))
            .collect();
        for (j, (&class, (size, throws))) in fam.classes.iter().zip(plans).enumerate() {
            let mut m = b.virtual_method(format!("FzF{f}C{j}.fzK{f}"), class, fam.selector);
            m.work(size);
            emit_leaf_value(m, (f * 10 + j) as i64, throws);
        }
    }

    // Chain: overrides at base, every stride levels, and the leaf.
    if let Some((selector, _, classes)) = &chain {
        let stride = spec.chain_override_stride;
        let plans: Vec<(usize, u32, bool)> = classes
            .iter()
            .enumerate()
            .filter(|(l, _)| *l == 0 || *l == spec.chain_depth || l % stride == 0)
            .map(|(l, _)| (l, sample_size(&mut rng, &spec), rng.gen_bool(spec.unwind_fraction)))
            .collect();
        for (l, size, throws) in plans {
            let mut m = b.virtual_method(format!("FzD{l}.fzDeep"), classes[l], *selector);
            m.work(size);
            emit_leaf_value(m, 100 + l as i64, throws);
        }
    }

    // Megamorphic: every implementation overrides, most of them tiny (the
    // interesting pressure is dispatch diversity, not body cost).
    if let Some((selector, _, classes)) = &mega {
        let plans: Vec<(u32, bool)> = classes
            .iter()
            .map(|_| (sample_size(&mut rng, &spec).min(40), rng.gen_bool(spec.unwind_fraction)))
            .collect();
        for (j, (&class, (size, throws))) in classes.iter().zip(plans).enumerate() {
            let mut m = b.virtual_method(format!("FzMega{j}.fzMega"), class, *selector);
            m.work(size);
            emit_leaf_value(m, 200 + j as i64, throws);
        }
    }

    // Recursion: a static self-recursive method, and a mutually-recursive
    // virtual pair on the recursion host class (the vtable registers each
    // implementation as soon as its builder is created, so `fzRecA` can
    // call `fzRecB` before the latter's body exists).
    let rec_self = if recursion.is_some() {
        let mut m = b.static_method("fzRecSelf", 1);
        let id = m.id();
        let zero = m.fresh_reg();
        m.const_int(zero, 0);
        let base = m.label();
        m.branch(Cond::Le, m.param(0), zero, base);
        m.work(3);
        let one = m.fresh_reg();
        let next = m.fresh_reg();
        m.const_int(one, 1);
        m.bin(BinOp::Sub, next, m.param(0), one);
        let r = m.fresh_reg();
        m.call_static(Some(r), id, &[next]);
        let sum = m.fresh_reg();
        m.bin(BinOp::Add, sum, r, m.param(0));
        m.ret(Some(sum));
        m.bind(base);
        let unit = m.fresh_reg();
        m.const_int(unit, 1);
        m.ret(Some(unit));
        m.finish();
        Some(id)
    } else {
        None
    };
    if let Some((class, sel_a, sel_b, _)) = &recursion {
        for (name, own, other) in
            [("FzRecC.fzRecA", *sel_a, *sel_b), ("FzRecC.fzRecB", *sel_b, *sel_a)]
        {
            let mut m = b.virtual_method(name, *class, own);
            let recv = m.receiver().expect("virtual method has a receiver");
            let zero = m.fresh_reg();
            m.const_int(zero, 0);
            let base = m.label();
            m.branch(Cond::Le, m.param(0), zero, base);
            m.work(2);
            let one = m.fresh_reg();
            let next = m.fresh_reg();
            m.const_int(one, 1);
            m.bin(BinOp::Sub, next, m.param(0), one);
            let r = m.fresh_reg();
            m.call_virtual(Some(r), other, recv, &[next]);
            let sum = m.fresh_reg();
            m.bin(BinOp::Add, sum, r, one);
            m.ret(Some(sum));
            m.bind(base);
            let two = m.fresh_reg();
            m.const_int(two, 2);
            m.ret(Some(two));
            m.finish();
        }
    }

    // --- Middle layers, bottom-up ------------------------------------------
    let mut layers: Vec<Vec<MiddleRef>> = vec![Vec::new(); spec.layers];
    for layer in (0..spec.layers).rev() {
        let is_bottom = layer == spec.layers - 1;
        for idx in 0..spec.methods_per_layer {
            let parameterless = rng.gen_bool(spec.parameterless_fraction);
            let instance = rng.gen_bool(spec.instance_middle_fraction);
            let size = sample_size(&mut rng, &spec);

            // Pre-draw per-site plans (cannot borrow the RNG while the
            // method builder borrows the program builder).
            let mut site_plans = Vec::with_capacity(spec.calls_per_method);
            for _ in 0..spec.calls_per_method {
                let leaf_site = is_bottom || rng.gen_bool(spec.virtual_fraction);
                let plan = if leaf_site {
                    SitePlan::Leaf(pick_leaf(&mut rng, &spec, families.len()))
                } else {
                    let next = &layers[layer + 1];
                    SitePlan::Middle(next[rng.gen_range(0..next.len())])
                };
                site_plans.push((plan, rng.gen_bool(spec.unwind_fraction)));
            }

            let arity = if parameterless { 0 } else { 1 };
            let (mut m, target) = if instance {
                let sel = b.selector(format!("fzML{layer}M{idx}"), arity);
                (
                    b.virtual_method(format!("FzL{layer}M{idx}"), svc_classes[layer], sel),
                    MiddleTarget::Instance(sel),
                )
            } else {
                let mb = b.static_method(format!("FzL{layer}M{idx}"), arity);
                let id = mb.id();
                (mb, MiddleTarget::Static(id))
            };

            let ctx = m.fresh_reg();
            if parameterless {
                m.get_global(ctx, g_ctx);
            } else {
                m.mov(ctx, m.param(0));
            }
            let acc = m.fresh_reg();
            let sent = m.fresh_reg();
            m.const_int(acc, 0);
            m.const_int(sent, UNWIND_SENTINEL);
            m.work(size / 2);
            for (plan, check_unwind) in &site_plans {
                let r = m.fresh_reg();
                match plan {
                    SitePlan::Middle(info) => {
                        emit_middle_call(&mut m, info, ctx, r, &svc_globals);
                    }
                    SitePlan::Leaf(leaf) => emit_leaf_call(
                        &mut m,
                        leaf,
                        ctx,
                        r,
                        &spec,
                        &families,
                        &chain,
                        &mega,
                        &recursion,
                        leaf_static,
                        rec_self,
                        g_counter,
                    ),
                }
                if *check_unwind {
                    // Unwind-style propagation: a sentinel return aborts
                    // this frame immediately (the "exception" travels up).
                    let cont = m.label();
                    m.branch(Cond::Ne, r, sent, cont);
                    m.ret(Some(sent));
                    m.bind(cont);
                }
                m.bin(BinOp::Add, acc, acc, r);
            }
            m.work(size - size / 2);
            m.ret(Some(acc));
            m.finish();
            layers[layer].push(MiddleRef { target, parameterless, layer });
        }
    }

    // --- main ---------------------------------------------------------------
    let top_plans: Vec<(MiddleRef, i64)> = (0..spec.top_sites)
        .map(|s| {
            let t = layers[0][rng.gen_range(0..layers[0].len())];
            (t, (s as i64) * 5 + 2)
        })
        .collect();

    let main = {
        let mut m = b.static_method("main", 0);
        for fam in &families {
            emit_receiver_array(&mut m, &fam.classes, fam.recv_global);
        }
        if let Some((_, recv_global, classes)) = &chain {
            emit_receiver_array(&mut m, classes, *recv_global);
        }
        if let Some((_, recv_global, classes)) = &mega {
            emit_receiver_array(&mut m, classes, *recv_global);
        }
        if let Some((class, _, _, recv_global)) = &recursion {
            let o = m.fresh_reg();
            m.new_obj(o, *class);
            m.put_global(*recv_global, o);
        }
        for (l, &class) in svc_classes.iter().enumerate() {
            let o = m.fresh_reg();
            m.new_obj(o, class);
            m.put_global(svc_globals[l], o);
        }
        let seven = m.fresh_reg();
        m.const_int(seven, 7);
        m.put_global(g_ctx, seven);

        let i = m.fresh_reg();
        let n = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(n, spec.iterations);
        m.const_int(one, 1);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Ge, i, n, out);
        m.put_global(g_counter, i);
        for (info, ctx_const) in &top_plans {
            let r = m.fresh_reg();
            let c = m.fresh_reg();
            m.const_int(c, *ctx_const);
            emit_middle_call(&mut m, info, c, r, &svc_globals);
            m.bin(BinOp::Add, acc, acc, r);
        }
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };

    let program: Program = b.finish(main)?;
    Ok(FuzzProgram { name: spec.name.clone(), program, spec })
}

/// Emits the tail of a leaf body: compute a value from the context
/// parameter, optionally with a conditional sentinel ("throw") path.
/// Consumes the builder (the tail always ends the method).
fn emit_leaf_value(mut m: aoci_ir::MethodBuilder<'_>, bias: i64, throws: bool) {
    let v = m.fresh_reg();
    let c = m.fresh_reg();
    m.const_int(c, bias);
    m.bin(BinOp::Add, v, m.param(0), c);
    if throws {
        // Throw when v ≡ 0 (mod 7): a data-dependent, deterministic
        // exceptional path that fires for some but not all contexts.
        let t = m.fresh_reg();
        let seven = m.fresh_reg();
        let zero = m.fresh_reg();
        m.const_int(seven, 7);
        m.const_int(zero, 0);
        m.bin(BinOp::Rem, t, v, seven);
        let ok = m.label();
        m.branch(Cond::Ne, t, zero, ok);
        let sent = m.fresh_reg();
        m.const_int(sent, UNWIND_SENTINEL);
        m.ret(Some(sent));
        m.bind(ok);
    }
    m.ret(Some(v));
    m.finish();
}

/// Emits `arr = [new C0, new C1, …]; global = arr` — the receiver array of
/// one family, in class-declaration order.
fn emit_receiver_array(m: &mut aoci_ir::MethodBuilder<'_>, classes: &[ClassId], global: GlobalId) {
    let arr = m.fresh_reg();
    let n = m.fresh_reg();
    m.const_int(n, classes.len() as i64);
    m.arr_new(arr, n);
    for (j, &class) in classes.iter().enumerate() {
        let o = m.fresh_reg();
        let jr = m.fresh_reg();
        m.new_obj(o, class);
        m.const_int(jr, j as i64);
        m.arr_set(arr, jr, o);
    }
    m.put_global(global, arr);
}

/// Emits a call to a middle method (static, or virtual through the callee
/// layer's service object).
fn emit_middle_call(
    m: &mut aoci_ir::MethodBuilder<'_>,
    info: &MiddleRef,
    ctx: aoci_ir::Reg,
    dst: aoci_ir::Reg,
    svc_globals: &[GlobalId],
) {
    let args: &[aoci_ir::Reg] = if info.parameterless { &[] } else { std::slice::from_ref(&ctx) };
    match info.target {
        MiddleTarget::Static(target) => {
            m.call_static(Some(dst), target, args);
        }
        MiddleTarget::Instance(selector) => {
            let recv = m.fresh_reg();
            m.get_global(recv, svc_globals[info.layer]);
            m.call_virtual(Some(dst), selector, recv, args);
        }
    }
}

/// Emits a virtual call through a receiver array: `recv = global[idx]`
/// where `idx` is `(source + c_site) mod len` and `source` is the context
/// value (correlated) or the iteration counter (varying).
#[allow(clippy::too_many_arguments)]
fn emit_indexed_virtual(
    m: &mut aoci_ir::MethodBuilder<'_>,
    selector: SelectorId,
    recv_global: GlobalId,
    len: usize,
    correlated: bool,
    c_site: i64,
    ctx: aoci_ir::Reg,
    dst: aoci_ir::Reg,
    g_counter: GlobalId,
) {
    let idx = m.fresh_reg();
    let c = m.fresh_reg();
    m.const_int(c, c_site);
    if correlated {
        m.bin(BinOp::Add, idx, ctx, c);
    } else {
        let cnt = m.fresh_reg();
        m.get_global(cnt, g_counter);
        m.bin(BinOp::Add, idx, cnt, c);
    }
    let k = m.fresh_reg();
    m.const_int(k, len as i64);
    m.bin(BinOp::Rem, idx, idx, k);
    let arr = m.fresh_reg();
    m.get_global(arr, recv_global);
    let recv = m.fresh_reg();
    m.arr_get(recv, arr, idx);
    m.call_virtual(Some(dst), selector, recv, &[ctx]);
}

type ChainInfo = (SelectorId, GlobalId, Vec<ClassId>);
type RecursionInfo = (ClassId, SelectorId, SelectorId, GlobalId);

/// Emits one leaf call site.
#[allow(clippy::too_many_arguments)]
fn emit_leaf_call(
    m: &mut aoci_ir::MethodBuilder<'_>,
    leaf: &Leaf,
    ctx: aoci_ir::Reg,
    dst: aoci_ir::Reg,
    spec: &FuzzSpec,
    families: &[FamilyInfo],
    chain: &Option<ChainInfo>,
    mega: &Option<ChainInfo>,
    recursion: &Option<RecursionInfo>,
    leaf_static: MethodId,
    rec_self: Option<MethodId>,
    g_counter: GlobalId,
) {
    match leaf {
        Leaf::Static => {
            m.call_static(Some(dst), leaf_static, &[ctx]);
        }
        Leaf::Kernel { family, correlated, c_site } => {
            let fam = &families[*family];
            emit_indexed_virtual(
                m,
                fam.selector,
                fam.recv_global,
                fam.impls,
                *correlated,
                *c_site,
                ctx,
                dst,
                g_counter,
            );
        }
        Leaf::Chain { correlated, c_site } => {
            let (selector, recv_global, classes) =
                chain.as_ref().expect("chain leaf drawn only when the chain exists");
            emit_indexed_virtual(
                m,
                *selector,
                *recv_global,
                classes.len(),
                *correlated,
                *c_site,
                ctx,
                dst,
                g_counter,
            );
        }
        Leaf::Mega { c_site } => {
            let (selector, recv_global, classes) =
                mega.as_ref().expect("mega leaf drawn only when the family exists");
            emit_indexed_virtual(
                m,
                *selector,
                *recv_global,
                classes.len(),
                false,
                *c_site,
                ctx,
                dst,
                g_counter,
            );
        }
        Leaf::RecSelf => {
            let depth = m.fresh_reg();
            m.const_int(depth, spec.recursion_depth);
            m.call_static(Some(dst), rec_self.expect("recursion enabled"), &[depth]);
        }
        Leaf::RecMutual => {
            let (_, sel_a, _, recv_global) =
                recursion.as_ref().expect("recursion leaf drawn only when enabled");
            let recv = m.fresh_reg();
            m.get_global(recv, *recv_global);
            let depth = m.fresh_reg();
            m.const_int(depth, spec.recursion_depth);
            m.call_virtual(Some(dst), *sel_a, recv, &[depth]);
        }
    }
}

/// Picks a leaf kind uniformly among the shapes the spec enables (the
/// static leaf is always a candidate, so the choice set is never empty).
fn pick_leaf(rng: &mut SmallRng, spec: &FuzzSpec, n_families: usize) -> Leaf {
    let mut kinds: Vec<u8> = vec![0];
    if n_families > 0 {
        kinds.push(1);
    }
    if spec.chain_depth > 0 {
        kinds.push(2);
    }
    if spec.megamorphic_impls > 0 {
        kinds.push(3);
    }
    if spec.recursion_depth > 0 {
        kinds.push(4);
        kinds.push(5);
    }
    match kinds[rng.gen_range(0..kinds.len())] {
        1 => {
            let family = rng.gen_range(0..n_families);
            Leaf::Kernel {
                family,
                correlated: rng.gen_bool(spec.context_correlation),
                c_site: rng.gen_range(0..8i64),
            }
        }
        2 => Leaf::Chain {
            correlated: rng.gen_bool(spec.context_correlation),
            c_site: rng.gen_range(0..8i64),
        },
        3 => Leaf::Mega { c_site: rng.gen_range(0..8i64) },
        4 => Leaf::RecSelf,
        5 => Leaf::RecMutual,
        _ => Leaf::Static,
    }
}

/// Samples a body size: degenerate tiny, degenerate huge, or ordinary.
fn sample_size(rng: &mut SmallRng, spec: &FuzzSpec) -> u32 {
    let u: f64 = rng.gen();
    if u < spec.tiny_fraction {
        rng.gen_range(1..=2u32)
    } else if u < spec.tiny_fraction + spec.huge_fraction {
        rng.gen_range(400..=900u32)
    } else {
        rng.gen_range(8..=80u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::typecheck;
    use aoci_vm::{CostModel, Vm};

    fn everything_spec(seed: u64) -> FuzzSpec {
        FuzzSpec {
            families: 2,
            impls_per_family: 3,
            chain_depth: 6,
            chain_override_stride: 2,
            megamorphic_impls: 8,
            recursion_depth: 9,
            layers: 3,
            methods_per_layer: 4,
            calls_per_method: 2,
            virtual_fraction: 0.5,
            context_correlation: 0.6,
            parameterless_fraction: 0.3,
            instance_middle_fraction: 0.4,
            unwind_fraction: 0.5,
            tiny_fraction: 0.3,
            huge_fraction: 0.2,
            top_sites: 3,
            iterations: 60,
            ..FuzzSpec::minimal("everything", seed)
        }
    }

    #[test]
    fn everything_builds_verifies_and_runs() {
        for seed in 0..8 {
            let w = build_fuzz(&everything_spec(seed)).expect("builds");
            typecheck::verify(&w.program).expect("typechecks");
            let cost = CostModel { sample_period: 0, ..CostModel::default() };
            let r = Vm::new(&w.program, cost).run_to_completion().expect("runs");
            assert!(r.is_some(), "seed {seed} returns a value");
        }
    }

    #[test]
    fn minimal_spec_builds_and_runs() {
        let w = build_fuzz(&FuzzSpec::minimal("floor", 1)).expect("builds");
        typecheck::verify(&w.program).expect("typechecks");
        let cost = CostModel { sample_period: 0, ..CostModel::default() };
        assert!(Vm::new(&w.program, cost).run_to_completion().expect("runs").is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build_fuzz(&everything_spec(7)).unwrap();
        let b = build_fuzz(&everything_spec(7)).unwrap();
        assert_eq!(a.program.num_methods(), b.program.num_methods());
        for i in 0..a.program.num_methods() {
            let ma = a.program.method(aoci_ir::MethodId::from_index(i));
            let mb = b.program.method(aoci_ir::MethodId::from_index(i));
            assert_eq!(ma.body(), mb.body(), "method {i} differs");
            assert_eq!(ma.arg_pool(), mb.arg_pool(), "method {i} call arguments differ");
        }
    }

    #[test]
    fn seeds_differentiate_programs() {
        let a = build_fuzz(&everything_spec(1)).unwrap();
        let b = build_fuzz(&everything_spec(2)).unwrap();
        assert_ne!(a.program.total_bytecode_size(), b.program.total_bytecode_size());
    }

    #[test]
    fn normalization_clamps_degenerate_fields() {
        let mut s = FuzzSpec::minimal("degenerate", 3);
        s.layers = 0;
        s.methods_per_layer = 0;
        s.calls_per_method = 0;
        s.top_sites = 0;
        s.iterations = -5;
        s.tiny_fraction = 0.9;
        s.huge_fraction = 0.9;
        s.virtual_fraction = 7.0;
        let n = s.normalized();
        assert_eq!(n.layers, 1);
        assert_eq!(n.methods_per_layer, 1);
        assert_eq!(n.calls_per_method, 1);
        assert_eq!(n.top_sites, 1);
        assert_eq!(n.iterations, 1);
        assert!(n.tiny_fraction + n.huge_fraction <= 1.0 + 1e-9);
        assert!(n.fractions_valid());
        build_fuzz(&n).expect("normalized degenerate spec builds");
    }

    #[test]
    fn deep_chain_dispatch_walks_superclasses() {
        let mut s = FuzzSpec::minimal("chain", 11);
        s.chain_depth = 8;
        s.chain_override_stride = 3;
        s.virtual_fraction = 1.0;
        s.iterations = 30;
        let w = build_fuzz(&s).unwrap();
        // Some chain classes must *not* override (depth 8, stride 3 ⇒
        // levels 1,2,4,5,7 inherit), so dispatch walks superclass links.
        let overridden = w
            .program
            .classes()
            .filter(|c| c.name().starts_with("FzD"))
            .filter(|c| c.declared_methods().count() > 0)
            .count();
        let total = w.program.classes().filter(|c| c.name().starts_with("FzD")).count();
        assert_eq!(total, 9);
        assert!(overridden < total, "{overridden}/{total} overridden");
        let cost = CostModel { sample_period: 0, ..CostModel::default() };
        assert!(Vm::new(&w.program, cost).run_to_completion().expect("runs").is_some());
    }
}
