//! The recursive inliner: emits optimized code for one method, consulting
//! the oracle at every call site with the current compilation context.

use crate::config::OptConfig;
use crate::decision::{Compilation, DecisionProvenance, InlineDecision, Refusal, RefusalReason};
use crate::simplify;
use aoci_core::InlineOracle;
use aoci_ir::{
    size, ArgSpan, CallSiteRef, IdHashSet, Instr, MethodId, Program, Reg, SiteIdx, SizeClass,
};
use aoci_vm::{InlineMap, InlineNode, MethodVersion, OptLevel, OsrMap, OsrPoint};

// The *soft* budgets implement the "normal limits on code expansion and
// inlining depth" of paper Section 3.1; profile-hot small/medium callees may
// exceed them up to the *hard* caps, and tiny callees respect only the hard
// caps.

/// Soft inlining-depth budget.
const MAX_INLINE_DEPTH: u32 = 5;

/// Hard inlining-depth cap (applies even to tiny / hot callees).
const HARD_INLINE_DEPTH: u32 = 12;

/// Soft code-expansion budget: generated size may grow to this multiple of
/// the root method's original size.
const MAX_CODE_EXPANSION: f64 = 4.0;

/// Hard code-expansion cap.
const HARD_CODE_EXPANSION: f64 = 12.0;

/// Maximum number of guarded inline targets at one polymorphic site.
const MAX_GUARDED_TARGETS: usize = 2;

/// Compiles `method` at the optimizing level, performing profile-directed,
/// context-sensitive inlining as directed by `oracle`.
///
/// The returned [`Compilation`] carries the installable [`MethodVersion`]
/// (with an inline map for source-level stack recovery), the record of every
/// inlining performed, and every refusal (for the AOS database).
pub fn compile(
    program: &Program,
    method: MethodId,
    oracle: &InlineOracle,
    config: &OptConfig,
) -> Compilation {
    let root_def = program.method(method);
    // Loop headers of the *root* source body: targets of its backward
    // jumps/branches. Each one that survives optimization becomes an OSR
    // point, so a long-running activation can transfer in or out mid-loop.
    let mut headers: Vec<u32> = root_def
        .body()
        .iter()
        .enumerate()
        .filter_map(|(i, instr)| match instr {
            Instr::Jump { target } | Instr::Branch { target, .. }
                if *target as usize <= i =>
            {
                Some(*target)
            }
            _ => None,
        })
        .collect();
    headers.sort_unstable();
    headers.dedup();

    let mut e = Emitter {
        program,
        oracle,
        root_size: root_def.size_estimate().max(32),
        out: Vec::new(),
        out_args: Vec::new(),
        reserved_args: root_def.arg_pool().len(),
        instr_nodes: Vec::new(),
        nodes: vec![InlineNode { method, parent: None, body_start: 0 }],
        next_reg: u32::from(root_def.num_regs()),
        emitted_size: 0,
        refusals: Vec::new(),
        decisions: Vec::new(),
        root_map: Vec::new(),
    };
    let mut stack = vec![method];
    e.emit_body(method, 0, 0, RetMode::Root, &[], 0, &mut stack);
    debug_assert_eq!(stack, vec![method]);

    let Emitter {
        out, out_args, instr_nodes, mut nodes, next_reg, refusals, decisions, root_map, ..
    } = e;
    let num_regs = u16::try_from(next_reg).expect("register budget enforced during emission");
    // OSR anchors: (source pc, emitted pc) per root loop header. The
    // simplifier remaps the emitted side alongside branch targets and
    // drops anchors whose header stops being a control-flow leader.
    let mut anchors: Vec<(u32, u32)> =
        headers.iter().map(|&h| (h, root_map[h as usize])).collect();
    let (body, arg_pool, instr_nodes) = if config.simplify {
        simplify::simplify_with_anchors(
            out,
            out_args,
            instr_nodes,
            &mut nodes,
            num_regs,
            &mut anchors,
        )
    } else {
        (out, out_args, instr_nodes)
    };
    // The frame mapping at every anchor is the identity over the root
    // register window: emission never renames root registers (inlined
    // callees live in windows above them) and simplification rewrites
    // uses, never definitions. So a point is its two pcs, and a transfer
    // carries the root window across as it is.
    let mut seen_opt = IdHashSet::default();
    let points: Vec<OsrPoint> = anchors
        .into_iter()
        .filter(|&(_, opt_pc)| seen_opt.insert(opt_pc))
        .map(|(baseline_pc, opt_pc)| OsrPoint { baseline_pc, opt_pc })
        .collect();
    let osr_map = OsrMap::new(points).expect("anchors are unique on both sides");
    let generated_size = size::body_size(&body);
    let version = MethodVersion {
        method,
        level: OptLevel::Optimized,
        num_regs,
        inline_map: InlineMap::from_parts(nodes, instr_nodes),
        code_size: generated_size,
        body,
        arg_pool: arg_pool.into(),
        version_id: aoci_vm::VersionId::default(),
        osr_map,
    };
    Compilation { version, decisions, refusals, generated_size }
}

enum RetMode {
    /// The root method: returns stay returns.
    Root,
    /// An inlined body: returns become moves to `dst` plus jumps to the end
    /// of the expansion.
    Inline { dst: Option<Reg> },
}

struct Emitter<'a> {
    program: &'a Program,
    oracle: &'a InlineOracle,
    root_size: u32,
    out: Vec<Instr>,
    /// The argument pool of `out`.
    out_args: Vec<Reg>,
    /// The pool registers the bodies emitted so far or being emitted may
    /// take: the root's pool plus the pool of every callee accepted for
    /// inlining. Inlining passes on a call's arguments or drops the call, so
    /// `out_args` never outgrows it, and [`Emitter::decide`] keeps it within
    /// [`ArgSpan::MAX_POOL`].
    reserved_args: usize,
    instr_nodes: Vec<u32>,
    nodes: Vec<InlineNode>,
    next_reg: u32,
    emitted_size: u32,
    refusals: Vec<Refusal>,
    decisions: Vec<InlineDecision>,
    /// Source-pc → emitted-pc map of the root body (node 0), kept for OSR
    /// anchor construction.
    root_map: Vec<u32>,
}

/// Outcome of a per-callee inlining decision.
enum Decision {
    Inline,
    Refuse(RefusalReason),
}

impl<'a> Emitter<'a> {
    fn push(&mut self, node: u32, instr: Instr) -> usize {
        self.emitted_size += size::instr_size(&instr);
        self.out.push(instr);
        self.instr_nodes.push(node);
        self.out.len() - 1
    }

    /// The pc the next emitted instruction will have. Branch targets and
    /// node starts are `u32`.
    fn next_pc(&self) -> u32 {
        u32::try_from(self.out.len()).expect("an optimized body holds fewer than 2^32 instructions")
    }

    /// Points the branches at `at` to the next emitted instruction.
    fn patch_to_here(&mut self, at: impl IntoIterator<Item = usize>) {
        let here = self.next_pc();
        for j in at {
            self.out[j].map_branch_target(|_| here);
        }
    }

    /// Emits a call instruction that is not inlined, its arguments appended
    /// to the output pool.
    fn push_call(&mut self, node: u32, args: Args<'_>, call: impl FnOnce(ArgSpan) -> Instr) {
        let span = ArgSpan::append(&mut self.out_args, args.shifted())
            .expect("`reserved_args` bounds the pool, and a source span bounds one call");
        self.push(node, call(span));
    }

    /// Emits the (possibly recursively inlined) body of `method`.
    ///
    /// `chain` is the compilation context *outside* this body: for a call
    /// site `s` inside it, the oracle context is `[(method, s)] ++ chain`.
    /// Returns the indices of jumps that must be patched to the end of this
    /// body's expansion (empty in [`RetMode::Root`]).
    #[allow(clippy::too_many_arguments)]
    fn emit_body(
        &mut self,
        method: MethodId,
        node: u32,
        reg_base: u32,
        ret: RetMode,
        chain: &[CallSiteRef],
        depth: u32,
        stack: &mut Vec<MethodId>,
    ) -> Vec<usize> {
        // Borrowed from the program, not from `self`: emission pushes onto
        // `self` while it reads the source body.
        let program = self.program;
        let def = program.method(method);
        let (body, pool) = (def.body(), def.arg_pool());
        let mut orig_to_new = vec![u32::MAX; body.len()];
        let mut local_fixups: Vec<(usize, u32)> = Vec::new();
        let mut end_jumps: Vec<usize> = Vec::new();

        for (oi, instr) in body.iter().enumerate() {
            orig_to_new[oi] = self.next_pc();
            match instr {
                Instr::Jump { target } => {
                    let at = self.push(node, Instr::Jump { target: u32::MAX });
                    local_fixups.push((at, *target));
                }
                Instr::Branch { cond, lhs, rhs, target } => {
                    let at = self.push(
                        node,
                        Instr::Branch {
                            cond: *cond,
                            lhs: shift(*lhs, reg_base),
                            rhs: shift(*rhs, reg_base),
                            target: u32::MAX,
                        },
                    );
                    local_fixups.push((at, *target));
                }
                Instr::Return { src } => match &ret {
                    RetMode::Root => {
                        self.push(node, Instr::Return { src: src.map(|r| shift(r, reg_base)) });
                    }
                    RetMode::Inline { dst } => {
                        if let (Some(d), Some(s)) = (dst, src) {
                            self.push(node, Instr::Move { dst: *d, src: shift(*s, reg_base) });
                        }
                        let at = self.push(node, Instr::Jump { target: u32::MAX });
                        end_jumps.push(at);
                    }
                },
                Instr::CallStatic { site, dst, callee, args } => {
                    let dst = dst.map(|d| shift(d, reg_base));
                    let args = Args { regs: args.of(pool), base: reg_base };
                    self.handle_static_call(
                        method, node, *site, dst, *callee, args, chain, depth, stack,
                    );
                }
                Instr::CallVirtual { site, dst, selector, recv, args } => {
                    let dst = dst.map(|d| shift(d, reg_base));
                    let recv = shift(*recv, reg_base);
                    let args = Args { regs: args.of(pool), base: reg_base };
                    self.handle_virtual_call(
                        method, node, *site, dst, *selector, recv, args, chain, depth, stack,
                    );
                }
                other => {
                    self.push(node, shift_instr(*other, reg_base));
                }
            }
        }

        for (at, orig_target) in local_fixups {
            let new_target = orig_to_new[orig_target as usize];
            debug_assert_ne!(new_target, u32::MAX);
            self.out[at].map_branch_target(|_| new_target);
        }
        if node == 0 {
            self.root_map = orig_to_new;
        }
        end_jumps
    }

    /// The hard code-expansion ceiling of this compilation, in abstract
    /// size units (recorded as `size_budget` provenance).
    fn hard_budget(&self) -> u32 {
        budget(HARD_CODE_EXPANSION, self.root_size)
    }

    /// Decides whether `callee` may be inlined in context `ctx`, returning
    /// the verdict together with the provenance the flight recorder keeps:
    /// whether a profile rule fired, its weight, and the depth/size state
    /// the decision was taken under.
    fn decide(
        &self,
        callee: MethodId,
        ctx: &[CallSiteRef],
        depth: u32,
        stack: &[MethodId],
    ) -> (Decision, DecisionProvenance) {
        let def = self.program.method(callee);
        let weight = self.oracle.weight_of(ctx, callee);
        let hot = weight.is_some();
        let provenance = DecisionProvenance {
            rule_fired: hot,
            predicted_benefit: weight.unwrap_or(0.0),
            context_depth: depth,
            size_before: self.emitted_size,
            size_budget: self.hard_budget(),
        };
        let decision = (|| {
            if stack.contains(&callee) {
                return Decision::Refuse(RefusalReason::Recursive);
            }
            // Large is categorical: checked before any budget so the
            // refusal reason reflects the size class.
            if def.size_class() == SizeClass::Large {
                return Decision::Refuse(RefusalReason::TooLarge);
            }
            if self.next_reg + u32::from(def.num_regs()) > u32::from(u16::MAX) {
                return Decision::Refuse(RefusalReason::ExpansionExceeded);
            }
            if self.reserved_args + def.arg_pool().len() > ArgSpan::MAX_POOL {
                return Decision::Refuse(RefusalReason::ArgPoolFull);
            }
            if depth >= HARD_INLINE_DEPTH {
                return Decision::Refuse(RefusalReason::DepthExceeded);
            }
            let grown = self.emitted_size.saturating_add(def.size_estimate());
            if grown > self.hard_budget() {
                return Decision::Refuse(RefusalReason::ExpansionExceeded);
            }
            let within_soft_depth = depth < MAX_INLINE_DEPTH;
            let soft_budget = budget(MAX_CODE_EXPANSION, self.root_size);
            let within_soft_size = grown <= soft_budget;
            match def.size_class() {
                SizeClass::Large => unreachable!("handled above"),
                SizeClass::Tiny => Decision::Inline,
                SizeClass::Small => {
                    if (within_soft_depth && within_soft_size) || hot {
                        Decision::Inline
                    } else if !within_soft_depth {
                        Decision::Refuse(RefusalReason::DepthExceeded)
                    } else {
                        Decision::Refuse(RefusalReason::ExpansionExceeded)
                    }
                }
                SizeClass::Medium => {
                    if !hot {
                        Decision::Refuse(RefusalReason::NotHot)
                    } else if within_soft_depth && within_soft_size {
                        Decision::Inline
                    } else if !within_soft_depth {
                        Decision::Refuse(RefusalReason::DepthExceeded)
                    } else {
                        Decision::Refuse(RefusalReason::ExpansionExceeded)
                    }
                }
            }
        })();
        (decision, provenance)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_static_call(
        &mut self,
        method: MethodId,
        node: u32,
        site: SiteIdx,
        dst: Option<Reg>,
        callee: MethodId,
        args: Args<'_>,
        chain: &[CallSiteRef],
        depth: u32,
        stack: &mut Vec<MethodId>,
    ) {
        let ctx = context(method, site, chain);
        let (decision, provenance) = self.decide(callee, &ctx, depth, stack);
        match decision {
            Decision::Inline => {
                self.reserve(callee);
                self.decisions.push(InlineDecision {
                    context: ctx.clone(),
                    callee,
                    guarded: false,
                    provenance,
                });
                let end_jumps =
                    self.splice(node, site, callee, None, args, dst, &ctx, depth, stack);
                self.patch_to_here(end_jumps);
            }
            Decision::Refuse(reason) => {
                self.refusals.push(Refusal {
                    site: CallSiteRef::new(method, site),
                    callee,
                    reason,
                    hot: provenance.rule_fired,
                    provenance,
                });
                self.push_call(node, args, |args| Instr::CallStatic { site, dst, callee, args });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_virtual_call(
        &mut self,
        method: MethodId,
        node: u32,
        site: SiteIdx,
        dst: Option<Reg>,
        selector: aoci_ir::SelectorId,
        recv: Reg,
        args: Args<'_>,
        chain: &[CallSiteRef],
        depth: u32,
        stack: &mut Vec<MethodId>,
    ) {
        let ctx = context(method, site, chain);
        let impls = self.program.implementations(selector);
        let fallback = |args| Instr::CallVirtual { site, dst, selector, recv, args };

        // Class hierarchy analysis: a unique implementation can be bound
        // statically and inlined unguarded (pre-existence).
        if let [only] = impls {
            let only = *only;
            let (decision, provenance) = self.decide(only, &ctx, depth, stack);
            match decision {
                Decision::Inline => {
                    self.reserve(only);
                    self.decisions.push(InlineDecision {
                        context: ctx.clone(),
                        callee: only,
                        guarded: false,
                        provenance,
                    });
                    let end_jumps =
                        self.splice(node, site, only, Some(recv), args, dst, &ctx, depth, stack);
                    self.patch_to_here(end_jumps);
                }
                Decision::Refuse(reason) => {
                    self.refusals.push(Refusal {
                        site: CallSiteRef::new(method, site),
                        callee: only,
                        reason,
                        hot: provenance.rule_fired,
                        provenance,
                    });
                    self.push_call(node, args, fallback);
                }
            }
            return;
        }

        // Polymorphic: guarded inlining of profile-predicted targets.
        let candidates = self.oracle.candidates(&ctx);
        let mut to_inline: Vec<(MethodId, DecisionProvenance)> = Vec::new();
        for c in &candidates {
            // Defensive: only genuine implementations of this selector.
            if !impls.contains(&c.target) {
                continue;
            }
            if to_inline.len() >= MAX_GUARDED_TARGETS {
                let provenance = DecisionProvenance {
                    rule_fired: true,
                    predicted_benefit: c.weight,
                    context_depth: depth,
                    size_before: self.emitted_size,
                    size_budget: self.hard_budget(),
                };
                self.refusals.push(Refusal {
                    site: CallSiteRef::new(method, site),
                    callee: c.target,
                    reason: RefusalReason::GuardLimit,
                    hot: true,
                    provenance,
                });
                continue;
            }
            match self.decide(c.target, &ctx, depth, stack) {
                (Decision::Inline, provenance) => {
                    self.reserve(c.target);
                    to_inline.push((c.target, provenance));
                }
                (Decision::Refuse(reason), provenance) => self.refusals.push(Refusal {
                    site: CallSiteRef::new(method, site),
                    callee: c.target,
                    reason,
                    hot: provenance.rule_fired,
                    provenance,
                }),
            }
        }

        if to_inline.is_empty() {
            self.push_call(node, args, fallback);
            return;
        }

        let mut all_end_jumps: Vec<usize> = Vec::new();
        let mut pending_guard: Option<usize> = None;
        for (target, provenance) in to_inline {
            self.patch_to_here(pending_guard.take());
            let g = self.push(
                node,
                Instr::GuardMethod { recv, selector, target, else_target: u32::MAX },
            );
            pending_guard = Some(g);
            self.decisions.push(InlineDecision {
                context: ctx.clone(),
                callee: target,
                guarded: true,
                provenance,
            });
            all_end_jumps
                .extend(self.splice(node, site, target, Some(recv), args, dst, &ctx, depth, stack));
            // Bodies cannot fall through (every path returns ⇒ jumps to
            // end), so the next guard / fallback is reachable only via the
            // guard's else edge.
        }
        // Fallback: the original virtual dispatch.
        self.patch_to_here(pending_guard.take());
        self.push_call(node, args, fallback);
        self.patch_to_here(all_end_jumps);
    }

    /// Reserves the output pool `callee`'s calls may take, once `callee` is
    /// accepted for inlining.
    fn reserve(&mut self, callee: MethodId) {
        self.reserved_args += self.program.method(callee).arg_pool().len();
    }

    /// Splices `target`'s body: argument moves (the receiver, if any, then
    /// `args`) into a fresh register window, then the recursively-inlined
    /// body. Returns the end-jump fixups.
    #[allow(clippy::too_many_arguments)]
    fn splice(
        &mut self,
        parent_node: u32,
        site: SiteIdx,
        target: MethodId,
        recv: Option<Reg>,
        args: Args<'_>,
        dst: Option<Reg>,
        ctx: &[CallSiteRef],
        depth: u32,
        stack: &mut Vec<MethodId>,
    ) -> Vec<usize> {
        let child_def = self.program.method(target);
        debug_assert_eq!(
            usize::from(recv.is_some()) + args.regs.len(),
            usize::from(child_def.total_args())
        );
        let child_base = self.next_reg;
        self.next_reg += u32::from(child_def.num_regs());
        let child_node =
            u32::try_from(self.nodes.len()).expect("fewer inline nodes than instructions");
        self.nodes.push(InlineNode {
            method: target,
            parent: Some((parent_node, site)),
            body_start: self.next_pc(),
        });
        for (k, src) in (0..).zip(recv.into_iter().chain(args.shifted())) {
            self.push(child_node, Instr::Move { dst: shift(Reg(k), child_base), src });
        }
        stack.push(target);
        let end_jumps = self.emit_body(
            target,
            child_node,
            child_base,
            RetMode::Inline { dst },
            ctx,
            depth + 1,
            stack,
        );
        stack.pop();
        end_jumps
    }
}

/// A source call's argument registers, to be shifted into the register
/// window at `base`.
#[derive(Clone, Copy)]
struct Args<'p> {
    regs: &'p [Reg],
    base: u32,
}

impl<'p> Args<'p> {
    /// The shifted registers, in order.
    fn shifted(self) -> impl Iterator<Item = Reg> + 'p {
        self.regs.iter().map(move |&r| shift(r, self.base))
    }
}

/// `r` in the register window at `base`.
fn shift(r: Reg, base: u32) -> Reg {
    let shifted = u16::try_from(u32::from(r.0) + base);
    Reg(shifted.expect("`decide` keeps every window within u16::MAX registers"))
}

/// `factor` times `root_size`, in whole size units.
fn budget(factor: f64, root_size: u32) -> u32 {
    // Float-to-integer `as` saturates: a budget past `u32::MAX` is no limit.
    (factor * f64::from(root_size)) as u32
}

fn context(method: MethodId, site: SiteIdx, chain: &[CallSiteRef]) -> Vec<CallSiteRef> {
    let mut ctx = Vec::with_capacity(chain.len() + 1);
    ctx.push(CallSiteRef::new(method, site));
    ctx.extend_from_slice(chain);
    ctx
}

/// Shifts every register operand of a non-control instruction.
fn shift_instr(instr: Instr, base: u32) -> Instr {
    match instr {
        Instr::Const { dst, value } => Instr::Const { dst: shift(dst, base), value },
        Instr::ConstNull { dst } => Instr::ConstNull { dst: shift(dst, base) },
        Instr::Move { dst, src } => Instr::Move { dst: shift(dst, base), src: shift(src, base) },
        Instr::Bin { op, dst, lhs, rhs } => Instr::Bin {
            op,
            dst: shift(dst, base),
            lhs: shift(lhs, base),
            rhs: shift(rhs, base),
        },
        Instr::Work { units } => Instr::Work { units },
        Instr::New { dst, class } => Instr::New { dst: shift(dst, base), class },
        Instr::GetField { dst, obj, field } => Instr::GetField {
            dst: shift(dst, base),
            obj: shift(obj, base),
            field,
        },
        Instr::PutField { obj, field, src } => Instr::PutField {
            obj: shift(obj, base),
            field,
            src: shift(src, base),
        },
        Instr::GetGlobal { dst, global } => Instr::GetGlobal { dst: shift(dst, base), global },
        Instr::PutGlobal { global, src } => Instr::PutGlobal { global, src: shift(src, base) },
        Instr::ArrNew { dst, len } => Instr::ArrNew { dst: shift(dst, base), len: shift(len, base) },
        Instr::ArrGet { dst, arr, idx } => Instr::ArrGet {
            dst: shift(dst, base),
            arr: shift(arr, base),
            idx: shift(idx, base),
        },
        Instr::ArrSet { arr, idx, src } => Instr::ArrSet {
            arr: shift(arr, base),
            idx: shift(idx, base),
            src: shift(src, base),
        },
        Instr::ArrLen { dst, arr } => Instr::ArrLen { dst: shift(dst, base), arr: shift(arr, base) },
        Instr::InstanceOf { dst, obj, class } => Instr::InstanceOf {
            dst: shift(dst, base),
            obj: shift(obj, base),
            class,
        },
        // Control flow and calls are handled by the emitter directly.
        other => unreachable!("unexpected instruction in shift_instr: {other:?}"),
    }
}

#[cfg(test)]
mod tests;
