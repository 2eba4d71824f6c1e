//! Post-inline simplification: constant folding, copy propagation, branch
//! folding, dead-code elimination and unreachable-code removal.
//!
//! This pass supplies the *indirect* benefit of inlining the paper leans on:
//! once a callee body sits inside its caller, argument-transfer moves become
//! copies that propagate away, constant parameters fold through the body
//! (the effect modelled by Jikes RVM's size-estimate adjustment, paper
//! footnote 1), and the dead remainder disappears — shrinking both code
//! space and execution cycles for real.
//!
//! The pass maintains the inline map: instruction→node assignments are
//! filtered alongside the body and node `body_start` offsets are remapped.
//! Call arguments are rewritten where they sit in the argument pool (every
//! call has a span of its own); a call the pass removes as unreachable
//! leaves its span's registers in the pool, unnamed.

use aoci_ir::{BinOp, Cond, GlobalId, Instr, Reg};
use aoci_vm::InlineNode;
use std::cell::RefCell;

thread_local! {
    /// The scratch every simplification on this thread works in, so that a
    /// compile step allocates nothing here once the thread's first compiles
    /// have sized it (DESIGN.md §17). A thread-local rather than a
    /// parameter: the public signatures stay those the harness and the
    /// benchmark call, and it measured faster than a scratch made per call.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The per-round buffers of the pass. A buffer never carries information
/// from one use to the next: each is cleared or resized by the step that
/// fills it, before it is read.
#[derive(Default)]
struct Scratch {
    /// `leaders[i]` iff some instruction branches to `i` ([`Scratch::find_leaders`]).
    leaders: Vec<bool>,
    /// The forward scan's lattice, one entry per register.
    state: Vec<Abs>,
    /// `copied[r]`: some register may currently be recorded as `Copy(r)`.
    copied: Vec<bool>,
    /// Redundant-load elimination: per region, the register known to hold
    /// each global's current value. A region caches a handful of globals at
    /// most, so a linear scan beats hashing.
    global_cache: Vec<(GlobalId, Reg)>,
    /// Every basic block as `(start, end)`, in body order ([`Scratch::find_blocks`]).
    blocks: Vec<(usize, usize)>,
    /// `reach[b]` iff block `b` is reachable from instruction 0.
    reach: Vec<bool>,
    /// Reachable blocks whose successors are still to visit.
    work: Vec<usize>,
    /// Per block, its gen row then its kill row ([`liveness`]).
    gen_kill: Vec<u64>,
    /// The live-in row of every instruction.
    live_in: Vec<u64>,
    /// One row: the live-out of the instruction being scanned.
    live: Vec<u64>,
    /// `keep[i]` iff instruction `i` survives the round.
    keep: Vec<bool>,
    /// `new_index[i]`: the new index of the first kept instruction `≥ i`.
    new_index: Vec<u32>,
}

/// Simplifies `body`, whose argument pool is `arg_pool`, returning the new
/// body, its pool and the filtered instruction→node map. `nodes` is
/// updated in place (`body_start` remap).
///
/// Iterates folding + elimination to a fixpoint (bounded small number of
/// rounds).
pub fn simplify(
    body: Vec<Instr>,
    arg_pool: Vec<Reg>,
    instr_node: Vec<u32>,
    nodes: &mut [InlineNode],
    num_regs: u16,
) -> (Vec<Instr>, Vec<Reg>, Vec<u32>) {
    simplify_with_anchors(body, arg_pool, instr_node, nodes, num_regs, &mut Vec::new())
}

/// [`simplify`], additionally carrying OSR anchors — `(source_pc, opt_pc)`
/// pairs naming root loop headers — through the pass: each elimination
/// round remaps the `opt_pc` side exactly as it remaps branch targets, and
/// anchors whose header does not survive as a control-flow leader of the
/// final body are dropped (transferring a frame into the middle of a
/// straight-line region would void the facts the scan propagated across
/// it; leaders are where the lattice resets, so they are the only sound
/// entry points).
pub fn simplify_with_anchors(
    mut body: Vec<Instr>,
    mut arg_pool: Vec<Reg>,
    mut instr_node: Vec<u32>,
    nodes: &mut [InlineNode],
    num_regs: u16,
    osr_anchors: &mut Vec<(u32, u32)>,
) -> (Vec<Instr>, Vec<Reg>, Vec<u32>) {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        for _ in 0..4 {
            let folded = fold_and_propagate(&mut body, &mut arg_pool, num_regs, scratch);
            let eliminated = eliminate(
                &mut body,
                &arg_pool,
                &mut instr_node,
                nodes,
                num_regs,
                osr_anchors,
                scratch,
            );
            if !folded && !eliminated {
                break;
            }
        }
        scratch.find_leaders(&body);
        osr_anchors.retain(|&(_, opt_pc)| scratch.leaders.get(opt_pc as usize) == Some(&true));
    });
    (body, arg_pool, instr_node)
}

impl Scratch {
    /// Fills `leaders`, the control-flow leaders of `body`: `leaders[i]` iff
    /// some instruction branches to `i`.
    fn find_leaders(&mut self, body: &[Instr]) {
        self.leaders.clear();
        self.leaders.resize(body.len(), false);
        for target in body.iter().filter_map(Instr::branch_target) {
            self.leaders[target as usize] = true;
        }
    }

    /// Fills `blocks` with the basic blocks of `body` and `reach` with the
    /// ones reachable from instruction 0 (`leaders` too, on the way).
    ///
    /// A block starts at instruction 0, at every branch target and after
    /// every instruction that has a branch target or returns. Control
    /// therefore enters a block only at its first instruction and leaves
    /// only after its last, and every successor of its last instruction
    /// starts a block: an instruction is reachable exactly when its block
    /// is, so the walk visits blocks where it used to visit instructions.
    fn find_blocks(&mut self, body: &[Instr]) {
        let n = body.len();
        self.find_leaders(body);
        let leaves = |i: &Instr| i.branch_target().is_some() || matches!(i, Instr::Return { .. });
        self.blocks.clear();
        let mut start = 0;
        for end in (1..=n).filter(|&i| i == n || self.leaders[i] || leaves(&body[i - 1])) {
            self.blocks.push((start, end));
            start = end;
        }
        self.reach.clear();
        self.reach.resize(self.blocks.len(), false);
        self.work.clear();
        if n > 0 {
            self.reach[0] = true;
            self.work.push(0);
        }
        while let Some(b) = self.work.pop() {
            let last = self.blocks[b].1 - 1;
            for s in body[last].successors(last, n).into_iter().flatten() {
                let t = self.blocks.partition_point(|&(start, _)| start < s);
                debug_assert_eq!(self.blocks[t].0, s, "a successor starts a block");
                if !self.reach[t] {
                    self.reach[t] = true;
                    self.work.push(t);
                }
            }
        }
    }
}

/// Abstract register contents for the forward scan.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Abs {
    Unknown,
    Const(i64),
    Null,
    Copy(Reg),
}

/// Forward, straight-line constant/copy propagation. Lattice state resets at
/// every branch target (join points); within a region the scan rewrites
/// operands to copy roots, folds constant moves/arithmetic and folds
/// decidable branches. Returns whether anything changed.
fn fold_and_propagate(
    body: &mut [Instr],
    pool: &mut [Reg],
    num_regs: u16,
    scratch: &mut Scratch,
) -> bool {
    scratch.find_leaders(body);
    let Scratch { leaders, state, copied, global_cache, .. } = scratch;
    state.clear();
    state.resize(usize::from(num_regs), Abs::Unknown);
    copied.clear();
    copied.resize(usize::from(num_regs), false);
    // The global cache is invalidated by stores to the global, by any call
    // (callees may write globals), and by redefinition of the caching
    // register.
    global_cache.clear();
    fn cache_global(cache: &mut Vec<(GlobalId, Reg)>, global: GlobalId, reg: Reg) {
        match cache.iter_mut().find(|(g, _)| *g == global) {
            Some(entry) => entry.1 = reg,
            None => cache.push((global, reg)),
        }
    }
    let mut changed = false;

    // Follows copy chains to the root register; bounded by register count.
    fn root(state: &[Abs], r: Reg) -> Reg {
        let mut cur = r;
        for _ in 0..state.len() {
            match state[cur.index()] {
                Abs::Copy(next) => cur = next,
                _ => break,
            }
        }
        cur
    }
    fn value(state: &[Abs], r: Reg) -> Abs {
        match state[root(state, r).index()] {
            v @ (Abs::Const(_) | Abs::Null) => v,
            _ => Abs::Unknown,
        }
    }

    for (i, instr) in body.iter_mut().enumerate() {
        if leaders[i] {
            state.fill(Abs::Unknown);
            copied.fill(false);
            global_cache.clear();
        }
        // A repeated load of a still-cached global becomes a register copy
        // (which the copy propagation below then usually erases entirely).
        if let Instr::GetGlobal { dst, global } = *instr {
            if let Some(&(_, cached)) = global_cache.iter().find(|(g, _)| *g == global) {
                if cached != dst {
                    *instr = Instr::Move { dst, src: cached };
                    changed = true;
                }
            }
        }
        // Rewrite value uses to copy roots.
        let rewrite = |state: &[Abs], r: &mut Reg, changed: &mut bool| {
            let n = root(state, *r);
            if n != *r {
                *r = n;
                *changed = true;
            }
        };
        match instr {
            Instr::Move { src, .. } => rewrite(state, src, &mut changed),
            Instr::Bin { lhs, rhs, .. } => {
                rewrite(state, lhs, &mut changed);
                rewrite(state, rhs, &mut changed);
            }
            Instr::Branch { lhs, rhs, .. } => {
                rewrite(state, lhs, &mut changed);
                rewrite(state, rhs, &mut changed);
            }
            Instr::GetField { obj, .. } => rewrite(state, obj, &mut changed),
            Instr::PutField { obj, src, .. } => {
                rewrite(state, obj, &mut changed);
                rewrite(state, src, &mut changed);
            }
            Instr::PutGlobal { src, .. } => rewrite(state, src, &mut changed),
            Instr::ArrNew { len, .. } => rewrite(state, len, &mut changed),
            Instr::ArrGet { arr, idx, .. } => {
                rewrite(state, arr, &mut changed);
                rewrite(state, idx, &mut changed);
            }
            Instr::ArrSet { arr, idx, src } => {
                rewrite(state, arr, &mut changed);
                rewrite(state, idx, &mut changed);
                rewrite(state, src, &mut changed);
            }
            Instr::ArrLen { arr, .. } => rewrite(state, arr, &mut changed),
            Instr::InstanceOf { obj, .. } => rewrite(state, obj, &mut changed),
            Instr::CallStatic { args, .. } => {
                for a in &mut pool[args.range()] {
                    rewrite(state, a, &mut changed);
                }
            }
            Instr::CallVirtual { recv, args, .. } => {
                rewrite(state, recv, &mut changed);
                for a in &mut pool[args.range()] {
                    rewrite(state, a, &mut changed);
                }
            }
            Instr::Return { src: Some(r) } => rewrite(state, r, &mut changed),
            Instr::GuardClass { recv, .. } | Instr::GuardMethod { recv, .. } => {
                rewrite(state, recv, &mut changed)
            }
            _ => {}
        }

        // Fold where operands are known.
        let replacement = match &*instr {
            Instr::Move { dst, src } => match value(state, *src) {
                Abs::Const(v) => Some(Instr::Const { dst: *dst, value: v }),
                Abs::Null => Some(Instr::ConstNull { dst: *dst }),
                _ => None,
            },
            Instr::Bin { op, dst, lhs, rhs } => {
                match (value(state, *lhs), value(state, *rhs)) {
                    (Abs::Const(a), Abs::Const(b)) => {
                        fold_bin(*op, a, b).map(|v| Instr::Const { dst: *dst, value: v })
                    }
                    _ => None,
                }
            }
            Instr::Branch { cond, lhs, rhs, target } => {
                match (value(state, *lhs), value(state, *rhs)) {
                    (Abs::Const(a), Abs::Const(b)) => Some(if eval_cond(*cond, a, b) {
                        Instr::Jump { target: *target }
                    } else {
                        Instr::Work { units: 0 }
                    }),
                    // `null eq null` / `null ne null` are decidable; the
                    // ordered comparisons on null fault at runtime and must
                    // be preserved.
                    (Abs::Null, Abs::Null) => match cond {
                        Cond::Eq => Some(Instr::Jump { target: *target }),
                        Cond::Ne => Some(Instr::Work { units: 0 }),
                        _ => None,
                    },
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(r) = replacement {
            if *instr != r {
                *instr = r;
                changed = true;
            }
        }

        // Transfer function: update the lattice for the definition.
        let def_update: Option<(Reg, Abs)> = match &*instr {
            Instr::Const { dst, value } => Some((*dst, Abs::Const(*value))),
            Instr::ConstNull { dst } => Some((*dst, Abs::Null)),
            Instr::Move { dst, src } => {
                let r = root(state, *src);
                let v = if r == *dst { Abs::Unknown } else { Abs::Copy(r) };
                Some((*dst, v))
            }
            other => other.def().map(|d| (d, Abs::Unknown)),
        };
        if let Some((dst, v)) = def_update {
            // Registers recorded as copies of `dst` lose their backing.
            if std::mem::take(&mut copied[dst.index()]) {
                for s in state.iter_mut() {
                    if *s == Abs::Copy(dst) {
                        *s = Abs::Unknown;
                    }
                }
            }
            if let Abs::Copy(r) = v {
                copied[r.index()] = true;
            }
            state[dst.index()] = v;
            // Cached globals held in `dst` are no longer valid.
            global_cache.retain(|&(_, r)| r != dst);
        }

        // Maintain the global cache.
        match &*instr {
            Instr::GetGlobal { dst, global } => cache_global(global_cache, *global, *dst),
            Instr::PutGlobal { global, src } => cache_global(global_cache, *global, *src),
            // Calls may store to any global in the callee.
            Instr::CallStatic { .. } | Instr::CallVirtual { .. } => global_cache.clear(),
            _ => {}
        }
    }
    changed
}

fn fold_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None; // preserve the fault
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
    })
}

fn eval_cond(cond: Cond, a: i64, b: i64) -> bool {
    match cond {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => a < b,
        Cond::Le => a <= b,
        Cond::Gt => a > b,
        Cond::Ge => a >= b,
    }
}

/// Dead-code + unreachable-code elimination with a full liveness analysis:
/// compacts `body` and `instr_node` in place and returns whether anything
/// was removed. Branch targets, node `body_start`s and anchors are remapped.
fn eliminate(
    body: &mut Vec<Instr>,
    pool: &[Reg],
    instr_node: &mut Vec<u32>,
    nodes: &mut [InlineNode],
    num_regs: u16,
    osr_anchors: &mut [(u32, u32)],
    scratch: &mut Scratch,
) -> bool {
    let n = body.len();
    scratch.find_blocks(body);
    liveness(body, pool, num_regs, scratch);
    let Scratch { blocks, reach, live_in, keep, new_index, .. } = scratch;
    let words = row_words(num_regs);
    let live_out_contains = |i: usize, r: Reg| -> bool {
        let (word, mask) = row_bit(r);
        body[i].successors(i, n)
            .into_iter()
            .flatten()
            .any(|s| live_in[s * words + word] & mask != 0)
    };
    let removable = |i: usize| match &body[i] {
        Instr::Work { units: 0 } => true,
        Instr::Jump { target } => *target as usize == i + 1,
        Instr::Move { dst, src } if dst == src => true,
        // Only instructions that can never fault are removable when dead.
        // `Bin` is NOT among them: the IR is untyped, so even an `add`
        // faults on a null operand, and removing a dead one would change
        // observable behaviour. Constant folding turns decidable `Bin`s into
        // `Const`s, which then die here safely.
        Instr::Const { dst, .. }
        | Instr::ConstNull { dst }
        | Instr::Move { dst, .. }
        | Instr::GetGlobal { dst, .. }
        | Instr::InstanceOf { dst, .. } => !live_out_contains(i, *dst),
        _ => false,
    };
    keep.clear();
    for (&(start, end), &reachable) in blocks.iter().zip(reach.iter()) {
        keep.extend((start..end).map(|i| reachable && !removable(i)));
    }
    if keep.iter().all(|&k| k) {
        return false;
    }

    // Prefix-sum remap: new index of the first kept instruction ≥ old index.
    new_index.clear();
    let mut kept = 0u32;
    for &k in keep.iter() {
        new_index.push(kept);
        kept += u32::from(k);
    }
    new_index.push(kept);

    // In place: before kept instruction `i` moves down to `new_index[i]`,
    // the slots below that hold the kept instructions before it, in order,
    // and the slots from there up to `i` the removed ones.
    for i in (0..n).filter(|&i| keep[i]) {
        let to = new_index[i] as usize;
        body[i].map_branch_target(|t| new_index[t as usize]);
        body.swap(to, i);
        instr_node.swap(to, i);
    }
    body.truncate(kept as usize);
    instr_node.truncate(kept as usize);
    for node in nodes.iter_mut() {
        node.body_start = new_index[(node.body_start as usize).min(n)];
    }
    for (_, opt_pc) in osr_anchors.iter_mut() {
        *opt_pc = new_index[(*opt_pc as usize).min(n)];
    }
    true
}

/// `u64` words in one liveness row: one bit per register.
fn row_words(num_regs: u16) -> usize {
    usize::from(num_regs).div_ceil(64)
}

/// Word index and mask of register `r`'s bit within a liveness row.
fn row_bit(r: Reg) -> (usize, u64) {
    (r.index() / 64, 1 << (r.index() % 64))
}

/// Live-in registers of every reachable instruction, into `live_in`, over
/// dense bit rows: row `i` is the [`row_words`] words starting at
/// `i * row_words`, bit `r` set iff register `r` is live into instruction
/// `i`. Every register of `body` is `< num_regs` (the invariant
/// [`fold_and_propagate`] indexes its lattice on). Unreachable rows stay
/// empty.
///
/// Computed per basic block, over the blocks [`Scratch::find_blocks`] found
/// in `body`: gen/kill rows of each reachable block, a backwards fixpoint
/// over the blocks' live-in rows (kept in the result, at each block's first
/// instruction), then one backward scan inside each block. A block is
/// entered only at its first instruction and left only after its last, so
/// the live-out of its last instruction is the union of the live-in rows of
/// the blocks that start at that instruction's successors.
///
/// Rows are one to three words, so they are combined by word loops: slice
/// comparison, `fill` and `copy_from_slice` are libc calls.
fn liveness(body: &[Instr], pool: &[Reg], num_regs: u16, scratch: &mut Scratch) {
    let n = body.len();
    let words = row_words(num_regs);
    let Scratch { blocks, reach, gen_kill, live_in, live, .. } = scratch;
    live_in.clear();
    live_in.resize(n * words, 0);
    if words == 0 {
        return;
    }
    let reachable = || blocks.iter().enumerate().filter(|&(b, _)| reach[b]);
    // The rows of block `b`: the registers it reads before it writes
    // them (gen), then the registers it writes (kill). Unreachable
    // blocks' rows stay empty and are never read.
    let rows_of = |b: usize| 2 * words * b..2 * words * (b + 1);
    gen_kill.clear();
    gen_kill.resize(blocks.len() * 2 * words, 0);
    for (b, &(start, end)) in reachable() {
        let (gen, kill) = gen_kill[rows_of(b)].split_at_mut(words);
        for instr in &body[start..end] {
            // Use before def: an instruction may read the register it writes.
            instr.for_each_use(pool, |r| {
                let (word, mask) = row_bit(r);
                gen[word] |= mask & !kill[word];
            });
            if let Some((word, mask)) = instr.def().map(row_bit) {
                kill[word] |= mask;
            }
        }
    }
    // The union of the live-in rows at the successors of instruction `i`.
    let live_out = |live_in: &[u64], i: usize, out: &mut [u64]| {
        for o in out.iter_mut() {
            *o = 0;
        }
        for s in body[i].successors(i, n).into_iter().flatten() {
            for (w, o) in out.iter_mut().enumerate() {
                *o |= live_in[s * words + w];
            }
        }
    };
    live.clear();
    live.resize(words, 0);
    loop {
        let mut changed = false;
        for (b, &(start, end)) in reachable().rev() {
            live_out(live_in, end - 1, live);
            let rows = &gen_kill[rows_of(b)];
            for w in 0..words {
                let row = rows[w] | (live[w] & !rows[words + w]);
                changed |= row != live_in[start * words + w];
                live_in[start * words + w] = row;
            }
        }
        if !changed {
            break;
        }
    }
    for (_, &(start, end)) in reachable() {
        live_out(live_in, end - 1, live);
        for i in (start..end).rev() {
            // Kill before gen, for the same reason.
            if let Some((word, mask)) = body[i].def().map(row_bit) {
                live[word] &= !mask;
            }
            body[i].for_each_use(pool, |r| {
                let (word, mask) = row_bit(r);
                live[word] |= mask;
            });
            for w in 0..words {
                live_in[i * words + w] = live[w];
            }
        }
    }
}

#[cfg(test)]
mod tests;
