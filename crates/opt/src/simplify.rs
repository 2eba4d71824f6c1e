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

use aoci_ir::{BinOp, Cond, GlobalId, Instr, Reg};
use aoci_vm::InlineNode;

/// Simplifies `body`, returning the new body and the filtered
/// instruction→node map. `nodes` is updated in place (`body_start` remap).
///
/// Iterates folding + elimination to a fixpoint (bounded small number of
/// rounds).
pub fn simplify(
    body: Vec<Instr>,
    instr_node: Vec<u32>,
    nodes: &mut [InlineNode],
    num_regs: u16,
) -> (Vec<Instr>, Vec<u32>) {
    simplify_with_anchors(body, instr_node, nodes, num_regs, &mut Vec::new())
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
    mut instr_node: Vec<u32>,
    nodes: &mut [InlineNode],
    num_regs: u16,
    osr_anchors: &mut Vec<(u32, u32)>,
) -> (Vec<Instr>, Vec<u32>) {
    for _ in 0..4 {
        let folded = fold_and_propagate(&mut body, num_regs);
        let (nb, ni, eliminated) = eliminate(body, instr_node, nodes, num_regs, osr_anchors);
        body = nb;
        instr_node = ni;
        if !folded && !eliminated {
            break;
        }
    }
    let leaders = leaders(&body);
    osr_anchors.retain(|&(_, opt_pc)| leaders.get(opt_pc as usize) == Some(&true));
    (body, instr_node)
}

/// Control-flow leaders: `leaders[i]` iff some instruction branches to `i`.
fn leaders(body: &[Instr]) -> Vec<bool> {
    let mut leaders = vec![false; body.len()];
    for target in body.iter().filter_map(Instr::branch_target) {
        leaders[target as usize] = true;
    }
    leaders
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
fn fold_and_propagate(body: &mut [Instr], num_regs: u16) -> bool {
    let leaders = leaders(body);
    let mut state = vec![Abs::Unknown; num_regs as usize];
    // `copied[r]`: some register may currently be recorded as `Copy(r)`.
    let mut copied = vec![false; num_regs as usize];
    // Redundant-load elimination: per region, the register known to hold
    // each global's current value. Invalidated by stores to the global, by
    // any call (callees may write globals), and by redefinition of the
    // caching register. A region caches a handful of globals at most, so a
    // linear scan beats hashing.
    let mut global_cache: Vec<(GlobalId, Reg)> = Vec::new();
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
            Instr::Move { src, .. } => rewrite(&state, src, &mut changed),
            Instr::Bin { lhs, rhs, .. } => {
                rewrite(&state, lhs, &mut changed);
                rewrite(&state, rhs, &mut changed);
            }
            Instr::Branch { lhs, rhs, .. } => {
                rewrite(&state, lhs, &mut changed);
                rewrite(&state, rhs, &mut changed);
            }
            Instr::GetField { obj, .. } => rewrite(&state, obj, &mut changed),
            Instr::PutField { obj, src, .. } => {
                rewrite(&state, obj, &mut changed);
                rewrite(&state, src, &mut changed);
            }
            Instr::PutGlobal { src, .. } => rewrite(&state, src, &mut changed),
            Instr::ArrNew { len, .. } => rewrite(&state, len, &mut changed),
            Instr::ArrGet { arr, idx, .. } => {
                rewrite(&state, arr, &mut changed);
                rewrite(&state, idx, &mut changed);
            }
            Instr::ArrSet { arr, idx, src } => {
                rewrite(&state, arr, &mut changed);
                rewrite(&state, idx, &mut changed);
                rewrite(&state, src, &mut changed);
            }
            Instr::ArrLen { arr, .. } => rewrite(&state, arr, &mut changed),
            Instr::InstanceOf { obj, .. } => rewrite(&state, obj, &mut changed),
            Instr::CallStatic { args, .. } => {
                for a in args {
                    rewrite(&state, a, &mut changed);
                }
            }
            Instr::CallVirtual { recv, args, .. } => {
                rewrite(&state, recv, &mut changed);
                for a in args {
                    rewrite(&state, a, &mut changed);
                }
            }
            Instr::Return { src: Some(r) } => rewrite(&state, r, &mut changed),
            Instr::GuardClass { recv, .. } | Instr::GuardMethod { recv, .. } => {
                rewrite(&state, recv, &mut changed)
            }
            _ => {}
        }

        // Fold where operands are known.
        let replacement = match &*instr {
            Instr::Move { dst, src } => match value(&state, *src) {
                Abs::Const(v) => Some(Instr::Const { dst: *dst, value: v }),
                Abs::Null => Some(Instr::ConstNull { dst: *dst }),
                _ => None,
            },
            Instr::Bin { op, dst, lhs, rhs } => {
                match (value(&state, *lhs), value(&state, *rhs)) {
                    (Abs::Const(a), Abs::Const(b)) => {
                        fold_bin(*op, a, b).map(|v| Instr::Const { dst: *dst, value: v })
                    }
                    _ => None,
                }
            }
            Instr::Branch { cond, lhs, rhs, target } => {
                match (value(&state, *lhs), value(&state, *rhs)) {
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
                let r = root(&state, *src);
                let v = if r == *dst { Abs::Unknown } else { Abs::Copy(r) };
                Some((*dst, v))
            }
            other => def(other).map(|d| (d, Abs::Unknown)),
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
            Instr::GetGlobal { dst, global } => cache_global(&mut global_cache, *global, *dst),
            Instr::PutGlobal { global, src } => cache_global(&mut global_cache, *global, *src),
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

/// Dead-code + unreachable-code elimination with a full liveness analysis.
/// Returns the filtered body, filtered instruction→node map, and whether
/// anything was removed. Branch targets and node `body_start`s are remapped.
fn eliminate(
    body: Vec<Instr>,
    instr_node: Vec<u32>,
    nodes: &mut [InlineNode],
    num_regs: u16,
    osr_anchors: &mut [(u32, u32)],
) -> (Vec<Instr>, Vec<u32>, bool) {
    let n = body.len();
    if n == 0 {
        return (body, instr_node, false);
    }

    let reach = reachable(&body);
    let words = row_words(num_regs);
    let live_in = liveness(&body, &reach, num_regs);
    let live_out_contains = |i: usize, r: Reg| -> bool {
        let (word, mask) = row_bit(r);
        successors(&body[i], i, n)
            .into_iter()
            .flatten()
            .any(|s| live_in[s * words + word] & mask != 0)
    };

    let mut keep = vec![true; n];
    for i in 0..n {
        if !reach[i] {
            keep[i] = false;
            continue;
        }
        match &body[i] {
            Instr::Work { units: 0 } => keep[i] = false,
            Instr::Jump { target }
                if *target as usize == i + 1 => {
                    keep[i] = false;
                }
            Instr::Move { dst, src } if dst == src => keep[i] = false,
            // Only instructions that can never fault are removable when
            // dead. `Bin` is NOT among them: the IR is untyped, so even an
            // `add` faults on a null operand, and removing a dead one would
            // change observable behaviour. Constant folding turns decidable
            // `Bin`s into `Const`s, which then die here safely.
            Instr::Const { dst, .. }
            | Instr::ConstNull { dst }
            | Instr::Move { dst, .. }
            | Instr::GetGlobal { dst, .. }
            | Instr::InstanceOf { dst, .. }
                if !live_out_contains(i, *dst) => {
                    keep[i] = false;
                }
            _ => {}
        }
    }

    let removed = keep.iter().any(|k| !k);
    if !removed {
        return (body, instr_node, false);
    }

    // Prefix-sum remap: new index of the first kept instruction ≥ old index.
    let mut new_index = vec![0u32; n + 1];
    let mut acc = 0u32;
    for i in 0..n {
        new_index[i] = acc;
        if keep[i] {
            acc += 1;
        }
    }
    new_index[n] = acc;

    let mut new_body = Vec::with_capacity(acc as usize);
    let mut new_nodes_map = Vec::with_capacity(acc as usize);
    for (i, (mut instr, node)) in body.into_iter().zip(instr_node).enumerate() {
        if !keep[i] {
            continue;
        }
        instr.map_branch_target(|t| new_index[t as usize]);
        new_body.push(instr);
        new_nodes_map.push(node);
    }
    for node in nodes.iter_mut() {
        node.body_start = new_index[(node.body_start as usize).min(n)];
    }
    for (_, opt_pc) in osr_anchors.iter_mut() {
        *opt_pc = new_index[(*opt_pc as usize).min(n)];
    }
    (new_body, new_nodes_map, true)
}

/// Reachability from instruction 0.
fn reachable(body: &[Instr]) -> Vec<bool> {
    let n = body.len();
    let mut reach = vec![false; n];
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        if reach[i] {
            continue;
        }
        reach[i] = true;
        work.extend(successors(&body[i], i, n).into_iter().flatten().filter(|&s| !reach[s]));
    }
    reach
}

/// `u64` words in one liveness row: one bit per register.
fn row_words(num_regs: u16) -> usize {
    usize::from(num_regs).div_ceil(64)
}

/// Word index and mask of register `r`'s bit within a liveness row.
fn row_bit(r: Reg) -> (usize, u64) {
    (r.index() / 64, 1 << (r.index() % 64))
}

/// Live-in registers of every reachable instruction, over dense bit rows:
/// row `i` is the [`row_words`] words starting at `i * row_words`, bit `r`
/// set iff register `r` is live into instruction `i`. Every register of
/// `body` is `< num_regs` (the invariant [`fold_and_propagate`] indexes its
/// lattice on). Unreachable rows stay empty.
///
/// Computed per basic block: gen/kill rows of each reachable block, a
/// backwards fixpoint over the blocks' live-in rows (kept in the result, at
/// each block's first instruction), then one backward scan inside each
/// block. A block is entered only at its first instruction and left only
/// after its last, so it is reachable as a whole or not at all, and the
/// live-out of its last instruction is the union of the live-in rows of the
/// blocks that start at that instruction's successors.
///
/// Rows are one to three words, so they are combined by word loops: slice
/// comparison, `fill` and `copy_from_slice` are libc calls.
fn liveness(body: &[Instr], reach: &[bool], num_regs: u16) -> Vec<u64> {
    let n = body.len();
    let words = row_words(num_regs);
    let mut live_in = vec![0u64; n * words];
    if n == 0 || words == 0 {
        return live_in;
    }
    // Reachable blocks as `(start, end)`: a block starts at instruction 0, at
    // every branch target and after every instruction that can leave the
    // straight line.
    let mut starts = leaders(body);
    for (i, instr) in body.iter().enumerate().take(n - 1) {
        if instr.branch_target().is_some() || matches!(instr, Instr::Return { .. }) {
            starts[i + 1] = true;
        }
    }
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for end in (1..n).filter(|&i| starts[i]).chain([n]) {
        if reach[start] {
            blocks.push((start, end));
        }
        start = end;
    }
    // `gen_kill[2 * b]`: registers block `b` reads before it writes them;
    // `gen_kill[2 * b + 1]`: registers it writes.
    let mut gen_kill = vec![0u64; blocks.len() * 2 * words];
    for (rows, &(start, end)) in gen_kill.chunks_exact_mut(2 * words).zip(&blocks) {
        let (gen, kill) = rows.split_at_mut(words);
        for instr in &body[start..end] {
            // Use before def: an instruction may read the register it writes.
            for_each_use(instr, |r| {
                let (word, mask) = row_bit(r);
                gen[word] |= mask & !kill[word];
            });
            if let Some((word, mask)) = def(instr).map(row_bit) {
                kill[word] |= mask;
            }
        }
    }
    // The union of the live-in rows at the successors of instruction `i`.
    let live_out = |live_in: &[u64], i: usize, out: &mut [u64]| {
        for o in out.iter_mut() {
            *o = 0;
        }
        for s in successors(&body[i], i, n).into_iter().flatten() {
            for (w, o) in out.iter_mut().enumerate() {
                *o |= live_in[s * words + w];
            }
        }
    };
    let mut live = vec![0u64; words];
    loop {
        let mut changed = false;
        for (rows, &(start, end)) in gen_kill.chunks_exact(2 * words).zip(&blocks).rev() {
            live_out(&live_in, end - 1, &mut live);
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
    for &(start, end) in &blocks {
        live_out(&live_in, end - 1, &mut live);
        for i in (start..end).rev() {
            // Kill before gen, for the same reason.
            if let Some((word, mask)) = def(&body[i]).map(row_bit) {
                live[word] &= !mask;
            }
            for_each_use(&body[i], |r| {
                let (word, mask) = row_bit(r);
                live[word] |= mask;
            });
            for w in 0..words {
                live_in[i * words + w] = live[w];
            }
        }
    }
    live_in
}

/// The control-flow successors of instruction `i` in a body of `n`: the
/// branch target (if any), then the fall-through (if any).
fn successors(instr: &Instr, i: usize, n: usize) -> [Option<usize>; 2] {
    let next = (i + 1 < n).then_some(i + 1);
    match instr {
        Instr::Return { .. } => [None, None],
        Instr::Jump { target } => [Some(*target as usize), None],
        Instr::Branch { target, .. }
        | Instr::GuardClass { else_target: target, .. }
        | Instr::GuardMethod { else_target: target, .. } => [Some(*target as usize), next],
        _ => [None, next],
    }
}

/// The (single) register an instruction defines.
fn def(instr: &Instr) -> Option<Reg> {
    match instr {
        Instr::Const { dst, .. }
        | Instr::ConstNull { dst }
        | Instr::Move { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::New { dst, .. }
        | Instr::GetField { dst, .. }
        | Instr::GetGlobal { dst, .. }
        | Instr::ArrNew { dst, .. }
        | Instr::ArrGet { dst, .. }
        | Instr::ArrLen { dst, .. }
        | Instr::InstanceOf { dst, .. } => Some(*dst),
        Instr::CallStatic { dst, .. } | Instr::CallVirtual { dst, .. } => *dst,
        _ => None,
    }
}

/// Calls `f` on every register an instruction reads.
fn for_each_use(instr: &Instr, mut f: impl FnMut(Reg)) {
    match instr {
        Instr::Move { src: a, .. }
        | Instr::GetField { obj: a, .. }
        | Instr::PutGlobal { src: a, .. }
        | Instr::ArrNew { len: a, .. }
        | Instr::ArrLen { arr: a, .. }
        | Instr::InstanceOf { obj: a, .. }
        | Instr::Return { src: Some(a) }
        | Instr::GuardClass { recv: a, .. }
        | Instr::GuardMethod { recv: a, .. } => f(*a),
        Instr::Bin { lhs: a, rhs: b, .. }
        | Instr::Branch { lhs: a, rhs: b, .. }
        | Instr::PutField { obj: a, src: b, .. }
        | Instr::ArrGet { arr: a, idx: b, .. } => {
            f(*a);
            f(*b);
        }
        Instr::ArrSet { arr, idx, src } => {
            f(*arr);
            f(*idx);
            f(*src);
        }
        Instr::CallStatic { args, .. } => args.iter().copied().for_each(f),
        Instr::CallVirtual { recv, args, .. } => {
            f(*recv);
            args.iter().copied().for_each(f);
        }
        Instr::Const { .. }
        | Instr::ConstNull { .. }
        | Instr::Work { .. }
        | Instr::New { .. }
        | Instr::GetGlobal { .. }
        | Instr::Jump { .. }
        | Instr::Return { src: None } => {}
    }
}

#[cfg(test)]
mod tests;
