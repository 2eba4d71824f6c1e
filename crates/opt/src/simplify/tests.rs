use super::*;
use aoci_ir::MethodId;

fn nodes_for(method_index: usize) -> Vec<InlineNode> {
    vec![InlineNode { method: MethodId::from_index(method_index), parent: None, body_start: 0 }]
}

fn run(body: Vec<Instr>, num_regs: u16) -> Vec<Instr> {
    let instr_node = vec![0; body.len()];
    let mut nodes = nodes_for(0);
    let (b, _, n) = simplify(body, Vec::new(), instr_node, &mut nodes, num_regs);
    assert_eq!(b.len(), n.len(), "instr/node maps stay parallel");
    b
}

fn r(i: u16) -> Reg {
    Reg(i)
}

#[test]
fn folds_constant_arithmetic() {
    let body = vec![
        Instr::Const { dst: r(0), value: 20 },
        Instr::Const { dst: r(1), value: 22 },
        Instr::Bin { op: BinOp::Add, dst: r(2), lhs: r(0), rhs: r(1) },
        Instr::Return { src: Some(r(2)) },
    ];
    let out = run(body, 3);
    // r0/r1 defs become dead once the add folds.
    assert_eq!(
        out,
        vec![
            Instr::Const { dst: r(2), value: 42 },
            Instr::Return { src: Some(r(2)) },
        ]
    );
}

#[test]
fn copy_propagation_removes_argument_moves() {
    // Simulates an inlined body: move arg, use it once.
    let body = vec![
        Instr::Const { dst: r(0), value: 5 },
        Instr::Move { dst: r(1), src: r(0) }, // arg transfer
        Instr::Bin { op: BinOp::Mul, dst: r(2), lhs: r(1), rhs: r(1) },
        Instr::Return { src: Some(r(2)) },
    ];
    let out = run(body, 3);
    assert_eq!(
        out,
        vec![
            Instr::Const { dst: r(2), value: 25 },
            Instr::Return { src: Some(r(2)) },
        ]
    );
}

#[test]
fn preserves_division_faults() {
    let body = vec![
        Instr::Const { dst: r(0), value: 1 },
        Instr::Const { dst: r(1), value: 0 },
        Instr::Bin { op: BinOp::Div, dst: r(2), lhs: r(0), rhs: r(1) },
        Instr::Return { src: None },
    ];
    let out = run(body, 3);
    // The faulting divide must survive even though its result is dead.
    assert!(out
        .iter()
        .any(|i| matches!(i, Instr::Bin { op: BinOp::Div, .. })));
}

#[test]
fn folds_decidable_branches_and_drops_unreachable() {
    let body = vec![
        Instr::Const { dst: r(0), value: 1 },
        Instr::Const { dst: r(1), value: 2 },
        Instr::Branch { cond: Cond::Lt, lhs: r(0), rhs: r(1), target: 4 }, // always taken
        Instr::Work { units: 999 },                                       // unreachable
        Instr::Return { src: None },
    ];
    let out = run(body, 2);
    assert!(!out.iter().any(|i| matches!(i, Instr::Work { units: 999 })));
    assert_eq!(out.last(), Some(&Instr::Return { src: None }));
}

#[test]
fn removes_jump_to_next() {
    let body = vec![
        Instr::Jump { target: 1 },
        Instr::Return { src: None },
    ];
    let out = run(body, 0);
    assert_eq!(out, vec![Instr::Return { src: None }]);
}

#[test]
fn keeps_loop_carried_registers() {
    // r0 is live around the backedge; nothing may be removed.
    let body = vec![
        Instr::Const { dst: r(0), value: 10 },
        Instr::Const { dst: r(1), value: 1 },
        // L2: r0 = r0 - r1 ; if r0 > r1 jump L2
        Instr::Bin { op: BinOp::Sub, dst: r(0), lhs: r(0), rhs: r(1) },
        Instr::Branch { cond: Cond::Gt, lhs: r(0), rhs: r(1), target: 2 },
        Instr::Return { src: Some(r(0)) },
    ];
    let out = run(body.clone(), 2);
    assert_eq!(out, body);
}

#[test]
fn state_resets_at_join_points() {
    // r0 is 1 on the fall-through path but 2 via the branch; the use at the
    // join must not be folded. The branch operand comes from a global so
    // the branch itself is not decidable.
    let body = vec![
        Instr::GetGlobal { dst: r(1), global: aoci_ir::GlobalId::from_index(0) },
        Instr::Branch { cond: Cond::Eq, lhs: r(1), rhs: r(1), target: 4 },
        Instr::Const { dst: r(0), value: 1 },
        Instr::Jump { target: 5 },
        Instr::Const { dst: r(0), value: 2 }, // branch target (leader)
        Instr::Return { src: Some(r(0)) },    // join target (leader)
    ];
    let out = run(body, 2);
    // Return of r0 must still read a register, not be constant-folded away.
    assert!(matches!(out.last(), Some(Instr::Return { src: Some(_) })));
    // Both Const{r0} definitions must survive (each feeds the join).
    let consts: Vec<_> = out
        .iter()
        .filter(|i| matches!(i, Instr::Const { dst, .. } if *dst == r(0)))
        .collect();
    assert_eq!(consts.len(), 2);
}

#[test]
fn remaps_node_body_starts() {
    let body = vec![
        Instr::Const { dst: r(0), value: 1 }, // dead
        Instr::Const { dst: r(1), value: 2 },
        Instr::Return { src: Some(r(1)) },
    ];
    let instr_node = vec![0, 1, 0];
    let mut nodes = vec![
        InlineNode { method: MethodId::from_index(0), parent: None, body_start: 0 },
        InlineNode {
            method: MethodId::from_index(1),
            parent: Some((0, aoci_ir::SiteIdx(0))),
            body_start: 1,
        },
    ];
    let (b, _, n) = simplify(body, Vec::new(), instr_node, &mut nodes, 2);
    assert_eq!(b.len(), 2);
    assert_eq!(n, vec![1, 0]);
    // The inlined node's body now starts at index 0.
    assert_eq!(nodes[1].body_start, 0);
}

#[test]
fn empty_body_is_noop() {
    let (b, _, n) = simplify(Vec::new(), Vec::new(), Vec::new(), &mut nodes_for(0), 0);
    assert!(b.is_empty());
    assert!(n.is_empty());
}

#[test]
fn self_move_is_removed() {
    let body = vec![
        Instr::Const { dst: r(0), value: 3 },
        Instr::Move { dst: r(0), src: r(0) },
        Instr::Return { src: Some(r(0)) },
    ];
    let out = run(body, 1);
    assert_eq!(out.len(), 2);
}

#[test]
fn redundant_global_loads_collapse() {
    let g = aoci_ir::GlobalId::from_index(0);
    let body = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::GetGlobal { dst: r(1), global: g }, // redundant reload
        Instr::Bin { op: BinOp::Add, dst: r(2), lhs: r(0), rhs: r(1) },
        Instr::Return { src: Some(r(2)) },
    ];
    let out = run(body, 3);
    // The second load becomes a copy of r0, copy-propagates into the add
    // and dies.
    assert_eq!(
        out.iter()
            .filter(|i| matches!(i, Instr::GetGlobal { .. }))
            .count(),
        1
    );
}

#[test]
fn calls_invalidate_the_global_cache() {
    let g = aoci_ir::GlobalId::from_index(0);
    let body = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::CallStatic {
            site: aoci_ir::SiteIdx(0),
            dst: None,
            callee: MethodId::from_index(0),
            args: aoci_ir::ArgSpan::default(),
        },
        Instr::GetGlobal { dst: r(1), global: g }, // NOT redundant: the call may store
        Instr::Bin { op: BinOp::Add, dst: r(2), lhs: r(0), rhs: r(1) },
        Instr::Return { src: Some(r(2)) },
    ];
    let out = run(body, 3);
    assert_eq!(
        out.iter()
            .filter(|i| matches!(i, Instr::GetGlobal { .. }))
            .count(),
        2
    );
}

#[test]
fn stores_update_the_global_cache() {
    let g = aoci_ir::GlobalId::from_index(0);
    let body = vec![
        Instr::Const { dst: r(0), value: 9 },
        Instr::PutGlobal { global: g, src: r(0) },
        Instr::GetGlobal { dst: r(1), global: g }, // known: the just-stored value
        Instr::Return { src: Some(r(1)) },
    ];
    let out = run(body, 2);
    // The reload folds away entirely (store value forwarded).
    assert!(!out.iter().any(|i| matches!(i, Instr::GetGlobal { .. })));
}

#[test]
fn branch_targets_reset_the_global_cache() {
    let g = aoci_ir::GlobalId::from_index(0);
    let body = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::Branch { cond: Cond::Eq, lhs: r(0), rhs: r(0), target: 2 },
        Instr::GetGlobal { dst: r(1), global: g }, // leader: cache cleared
        Instr::Bin { op: BinOp::Add, dst: r(2), lhs: r(0), rhs: r(1) },
        Instr::Return { src: Some(r(2)) },
    ];
    let out = run(body, 3);
    assert_eq!(
        out.iter()
            .filter(|i| matches!(i, Instr::GetGlobal { .. }))
            .count(),
        2
    );
}

#[test]
fn block_shapes_simplify_to_the_parent_commits_bodies() {
    let g = aoci_ir::GlobalId::from_index(0);
    let class = aoci_ir::ClassId::from_index(0);
    let ne = |target| Instr::Branch { cond: Cond::Ne, lhs: r(0), rhs: r(0), target };
    let cases: [(&str, Vec<Instr>, u16, Vec<Instr>); 6] = [
        (
            "an unreachable block between two reachable ones",
            vec![
                Instr::Const { dst: r(0), value: 1 },
                Instr::Jump { target: 5 },
                Instr::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(1) },
                Instr::PutGlobal { global: g, src: r(0) },
                Instr::Jump { target: 5 },
                Instr::Return { src: Some(r(0)) },
            ],
            2,
            vec![Instr::Const { dst: r(0), value: 1 }, Instr::Return { src: Some(r(0)) }],
        ),
        (
            "a guard whose else-target starts a later block",
            vec![
                Instr::GetGlobal { dst: r(0), global: g },
                Instr::Const { dst: r(1), value: 1 },
                Instr::Const { dst: r(2), value: 2 },
                Instr::GuardClass { recv: r(0), class, else_target: 6 },
                Instr::Move { dst: r(3), src: r(2) },
                Instr::Return { src: Some(r(3)) },
                Instr::Return { src: Some(r(1)) },
            ],
            4,
            vec![
                Instr::GetGlobal { dst: r(0), global: g },
                Instr::Const { dst: r(1), value: 1 },
                Instr::GuardClass { recv: r(0), class, else_target: 5 },
                Instr::Const { dst: r(3), value: 2 },
                Instr::Return { src: Some(r(3)) },
                Instr::Return { src: Some(r(1)) },
            ],
        ),
        (
            // The branch folds to `Work { units: 0 }` in round 1, after the
            // round's leaders were taken; in round 2 its target is no leader,
            // the two loads share a block, and the second becomes a copy.
            "a fold that removes the only leader",
            vec![
                Instr::GetGlobal { dst: r(0), global: g },
                Instr::Const { dst: r(1), value: 1 },
                Instr::Const { dst: r(2), value: 2 },
                Instr::Branch { cond: Cond::Eq, lhs: r(1), rhs: r(2), target: 4 },
                Instr::GetGlobal { dst: r(3), global: g },
                Instr::Bin { op: BinOp::Add, dst: r(4), lhs: r(0), rhs: r(3) },
                Instr::Return { src: Some(r(4)) },
            ],
            5,
            vec![
                Instr::GetGlobal { dst: r(0), global: g },
                Instr::Bin { op: BinOp::Add, dst: r(4), lhs: r(0), rhs: r(0) },
                Instr::Return { src: Some(r(4)) },
            ],
        ),
        (
            // Each round folds the one branch whose predecessor's leader the
            // round before removed; the fifth is still there after round 4.
            "a body that still changes in round 4",
            vec![
                Instr::Const { dst: r(0), value: 0 },
                ne(2),
                ne(3),
                ne(4),
                ne(5),
                ne(6),
                Instr::Return { src: Some(r(0)) },
            ],
            1,
            vec![Instr::Const { dst: r(0), value: 0 }, ne(2), Instr::Return { src: Some(r(0)) }],
        ),
        (
            "one instruction",
            vec![Instr::Return { src: None }],
            0,
            vec![Instr::Return { src: None }],
        ),
        ("an empty body", vec![], 0, vec![]),
    ];
    for (what, body, num_regs, expected) in cases {
        let reach = block_liveness(&body, &[], num_regs).0;
        assert_eq!(reach, reachable(&body), "{what}: reachability");
        assert_eq!(run(body, num_regs), expected, "{what}");
    }
}

// ---- Liveness: dense bit rows against the set-based reference ----------

use std::collections::BTreeSet;

/// The reference reachability: a worklist over instructions from
/// instruction 0, as `eliminate` computed it before the blocks.
fn reachable(body: &[Instr]) -> Vec<bool> {
    let n = body.len();
    let mut reach = vec![false; n];
    let mut work = vec![0usize; n.min(1)];
    while let Some(i) = work.pop() {
        if reach[i] {
            continue;
        }
        reach[i] = true;
        work.extend(body[i].successors(i, n).into_iter().flatten().filter(|&s| !reach[s]));
    }
    reach
}

/// What the simplifier computes of `body`: the reachability of its blocks,
/// spread over their instructions, and the live-in rows. Computed in this
/// thread's scratch, which whatever ran on the thread before left dirty.
fn block_liveness(body: &[Instr], pool: &[Reg], num_regs: u16) -> (Vec<bool>, Vec<u64>) {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.find_blocks(body);
        liveness(body, pool, num_regs, scratch);
        let reach = scratch
            .blocks
            .iter()
            .zip(&scratch.reach)
            .flat_map(|(&(start, end), &r)| (start..end).map(move |_| r))
            .collect();
        (reach, scratch.live_in.clone())
    })
}

/// The reference liveness: the textbook backwards fixpoint over one
/// `BTreeSet<Reg>` per instruction, as `eliminate` computed it before the
/// bit rows.
fn liveness_sets(body: &[Instr], pool: &[Reg], reach: &[bool]) -> Vec<BTreeSet<Reg>> {
    let n = body.len();
    let mut live_in: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            if !reach[i] {
                continue;
            }
            let mut out = BTreeSet::new();
            for s in body[i].successors(i, n).into_iter().flatten() {
                out.extend(live_in[s].iter().copied());
            }
            if let Some(d) = body[i].def() {
                out.remove(&d);
            }
            body[i].for_each_use(pool, |r| {
                out.insert(r);
            });
            if out != live_in[i] {
                live_in[i] = out;
                changed = true;
            }
        }
        if !changed {
            return live_in;
        }
    }
}

/// Asserts the block reachability of `body`, with argument pool `pool`,
/// equals the reference and its bit rows decode to the reference sets, row
/// by row.
fn assert_liveness_matches(body: &[Instr], pool: &[Reg], num_regs: u16, what: &str) {
    let (reach, rows) = block_liveness(body, pool, num_regs);
    assert_eq!(reach, reachable(body), "{what}: reachability");
    let words = row_words(num_regs);
    assert_eq!(rows.len(), body.len() * words, "{what}: row storage");
    let sets = liveness_sets(body, pool, &reach);
    for (i, expected) in sets.iter().enumerate() {
        let row = &rows[i * words..(i + 1) * words];
        let got: BTreeSet<Reg> = (0..words * 64)
            .filter(|b| row[b / 64] >> (b % 64) & 1 == 1)
            .map(|b| Reg(b as u16))
            .collect();
        assert_eq!(&got, expected, "{what}: live-in of instruction {i} ({:?})", body[i]);
    }
}

#[test]
fn liveness_rows_match_sets_on_handwritten_bodies() {
    let g = aoci_ir::GlobalId::from_index(0);
    let class = aoci_ir::ClassId::from_index(0);
    // Loop-carried register: r0 live around the back-edge.
    let looped = vec![
        Instr::Const { dst: r(0), value: 10 },
        Instr::Const { dst: r(1), value: 1 },
        Instr::Bin { op: BinOp::Sub, dst: r(0), lhs: r(0), rhs: r(1) },
        Instr::Branch { cond: Cond::Gt, lhs: r(0), rhs: r(1), target: 2 },
        Instr::Return { src: Some(r(0)) },
    ];
    assert_liveness_matches(&looped, &[], 2, "loop-carried");
    // One instruction defines and uses the same register: the use wins.
    let def_use = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::Bin { op: BinOp::Add, dst: r(0), lhs: r(0), rhs: r(0) },
        Instr::Move { dst: r(1), src: r(1) },
        Instr::Return { src: Some(r(0)) },
    ];
    assert_liveness_matches(&def_use, &[], 2, "def and use of one register");
    assert_eq!(block_liveness(&def_use, &[], 2).1[1], 0b11, "r0 and r1 live into the add");
    // Guard else-target edge: r2 is live only along the fallback path, r1
    // only along the fall-through.
    let guarded = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::Const { dst: r(1), value: 1 },
        Instr::Const { dst: r(2), value: 2 },
        Instr::GuardClass { recv: r(0), class, else_target: 5 },
        Instr::Return { src: Some(r(1)) },
        Instr::Return { src: Some(r(2)) },
    ];
    assert_liveness_matches(&guarded, &[], 3, "guard else-target");
    assert_eq!(block_liveness(&guarded, &[], 3).1[3], 0b111, "both edges feed the guard");
    // Unreachable tail: its rows stay empty even though it reads r0.
    let tail = vec![
        Instr::Const { dst: r(0), value: 1 },
        Instr::Return { src: Some(r(0)) },
        Instr::PutGlobal { global: g, src: r(0) },
        Instr::Jump { target: 2 },
    ];
    assert_liveness_matches(&tail, &[], 1, "unreachable tail");
    assert_eq!(reachable(&tail), [true, true, false, false]);
    // No registers at all: zero-word rows.
    let no_regs = [Instr::Work { units: 3 }, Instr::Return { src: None }];
    assert_liveness_matches(&no_regs, &[], 0, "no regs");
}

#[test]
fn liveness_rows_match_sets_across_block_shapes() {
    let g = aoci_ir::GlobalId::from_index(0);
    let class = aoci_ir::ClassId::from_index(0);
    // A block that ends in a guard whose else-target is a later block, with
    // a block in between: r1 is live out of the guard only along the else
    // edge, r2 only along the fall-through, and the middle block kills r1.
    let guard_ends_block = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::Const { dst: r(1), value: 1 },
        Instr::Const { dst: r(2), value: 2 },
        Instr::GuardClass { recv: r(0), class, else_target: 7 },
        Instr::Const { dst: r(1), value: 3 },
        Instr::Bin { op: BinOp::Add, dst: r(2), lhs: r(2), rhs: r(1) },
        Instr::Return { src: Some(r(2)) },
        Instr::Return { src: Some(r(1)) },
    ];
    assert_liveness_matches(&guard_ends_block, &[], 3, "guard ends a block");
    let rows = block_liveness(&guard_ends_block, &[], 3).1;
    assert_eq!(rows[3], 0b111, "the guard reads r0 and both edges' registers pass through it");
    assert_eq!(rows[4], 0b100, "the fall-through block writes r1 before reading it");
    // An unreachable block between two reachable ones: it reads r1 and
    // writes r0, which must reach neither its own rows nor the blocks
    // around it.
    let unreachable_middle = vec![
        Instr::Const { dst: r(0), value: 1 },
        Instr::Jump { target: 5 },
        Instr::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(1) },
        Instr::PutGlobal { global: g, src: r(0) },
        Instr::Jump { target: 5 },
        Instr::Return { src: Some(r(0)) },
    ];
    assert_eq!(reachable(&unreachable_middle), [true, true, false, false, false, true]);
    assert_liveness_matches(&unreachable_middle, &[], 2, "unreachable block in the middle");
    // A three-block loop (header, body, latch) in which r2 is written in
    // the latch and read in the header: live only across the back-edge, so
    // the block fixpoint needs a second iteration to carry it through the
    // body block, and the in-block scan must kill it at the latch's write.
    let three_block_loop = vec![
        Instr::Const { dst: r(0), value: 10 },
        Instr::Const { dst: r(1), value: 1 },
        Instr::Const { dst: r(2), value: 0 },
        Instr::Branch { cond: Cond::Le, lhs: r(0), rhs: r(2), target: 9 }, // header
        Instr::Bin { op: BinOp::Sub, dst: r(0), lhs: r(0), rhs: r(1) },    // body
        Instr::Branch { cond: Cond::Eq, lhs: r(0), rhs: r(1), target: 7 },
        Instr::Work { units: 1 },
        Instr::Move { dst: r(2), src: r(1) },                              // latch
        Instr::Jump { target: 3 },
        Instr::Return { src: Some(r(0)) },
    ];
    assert_liveness_matches(&three_block_loop, &[], 3, "three-block loop");
    let rows = block_liveness(&three_block_loop, &[], 3).1;
    assert_eq!(rows[3], 0b111, "the header reads r2 from the back-edge");
    assert_eq!(rows[4], 0b011, "r2 is dead through the body: the latch rewrites it");
    assert_eq!(rows[8], 0b111, "and live again after the latch's write");
    // A body that is one block.
    let straight = vec![
        Instr::GetGlobal { dst: r(0), global: g },
        Instr::Bin { op: BinOp::Mul, dst: r(1), lhs: r(0), rhs: r(0) },
        Instr::Move { dst: r(0), src: r(1) },
        Instr::Return { src: Some(r(0)) },
    ];
    assert_liveness_matches(&straight, &[], 2, "one block");
    assert_liveness_matches(&[Instr::Return { src: Some(r(0)) }], &[], 1, "one instruction");
}

#[test]
fn liveness_rows_span_one_two_and_three_words() {
    // Registers on both sides of each word boundary, live across a call
    // that takes them as arguments and a branch that skips their use.
    for num_regs in [64u16, 65, 66, 130] {
        let top = num_regs - 1;
        let mut body: Vec<Instr> =
            (0..num_regs).map(|i| Instr::Const { dst: r(i), value: i64::from(i) }).collect();
        let n = u32::from(num_regs);
        let pool: Vec<Reg> =
            [63, 64, 65, top].iter().filter(|&&a| a <= top).map(|&a| r(a)).collect();
        body.extend([
            Instr::Branch { cond: Cond::Lt, lhs: r(0), rhs: r(top), target: n + 3 },
            Instr::CallStatic {
                site: aoci_ir::SiteIdx(0),
                dst: Some(r(63)),
                callee: MethodId::from_index(0),
                args: aoci_ir::ArgSpan::new(0, pool.len()).unwrap(),
            },
            Instr::Move { dst: r(top), src: r(63) },
            Instr::Bin { op: BinOp::Add, dst: r(0), lhs: r(top), rhs: r(63) },
            Instr::Return { src: Some(r(0)) },
        ]);
        assert_liveness_matches(&body, &pool, num_regs, &format!("{num_regs} registers"));
    }
    assert_eq!([row_words(0), row_words(1), row_words(64), row_words(65)], [0, 1, 1, 2]);
}

/// Every method of `program`, compiled with and without the simplifier under
/// an empty rule set (static heuristics still inline): checks liveness on
/// each body. Returns (bodies, instructions) checked.
fn assert_liveness_on_compiled_bodies(program: &aoci_ir::Program, what: &str) -> (usize, usize) {
    let oracle = aoci_core::InlineOracle::new(std::sync::Arc::new(aoci_core::RuleSet::new()));
    let (mut bodies, mut instrs) = (0, 0);
    for m in (0..program.num_methods()).map(MethodId::from_index) {
        for simplify in [false, true] {
            let config = crate::OptConfig { simplify };
            let v = crate::compile(program, m, &oracle, &config).version;
            let what = format!("{what}: {} (simplify={simplify})", program.method(m).name());
            assert_liveness_matches(&v.body, &v.arg_pool, v.num_regs, &what);
            bodies += 1;
            instrs += v.body.len();
        }
    }
    (bodies, instrs)
}

#[test]
fn liveness_rows_match_sets_on_suite_and_fuzz_bodies() {
    let (mut bodies, mut instrs) = (0, 0);
    for spec in aoci_workloads::suite() {
        let w = aoci_workloads::build(&spec);
        let (b, i) = assert_liveness_on_compiled_bodies(&w.program, &w.name);
        (bodies, instrs) = (bodies + b, instrs + i);
    }
    for i in 0..60 {
        let fp = aoci_workloads::build_fuzz(&aoci_fuzz::sample_spec(1, i))
            .expect("campaign 1 specs build");
        let (b, i) = assert_liveness_on_compiled_bodies(&fp.program, &fp.name);
        (bodies, instrs) = (bodies + b, instrs + i);
    }
    assert!(bodies > 1000 && instrs > 10 * bodies, "{bodies} bodies, {instrs} instructions");
}

// ---- Identity with the parent commit ------------------------------------

/// A rule for every call edge of `program` (every implementation at a
/// virtual site) and, one level deeper, for every edge of each callee under
/// the site that reached it: sites are shared by the contexts of several
/// callers, so the partial match meets several context groups, and static
/// sites meet rules naming callees they cannot call.
fn every_edge_rules(program: &aoci_ir::Program) -> aoci_core::RuleSet {
    use aoci_ir::CallSiteRef;
    use aoci_profile::TraceKey;
    let callees = |m: MethodId| -> Vec<(aoci_ir::SiteIdx, MethodId)> {
        program
            .method(m)
            .call_sites()
            .flat_map(|(site, instr)| match instr {
                Instr::CallStatic { callee, .. } => vec![(site, *callee)],
                Instr::CallVirtual { selector, .. } => {
                    program.implementations(*selector).iter().map(|&c| (site, c)).collect()
                }
                _ => Vec::new(),
            })
            .collect()
    };
    let mut rules = Vec::new();
    for m in (0..program.num_methods()).map(MethodId::from_index) {
        for (site, callee) in callees(m) {
            let outer = CallSiteRef::new(m, site);
            let mix = m.index() * 31 + usize::from(site.0) * 7 + callee.index();
            let weight = (mix % 13 + 1) as f64;
            rules.push((TraceKey::edge(outer, callee), weight));
            for (inner_site, inner) in callees(callee) {
                let inner_ctx = vec![CallSiteRef::new(callee, inner_site), outer];
                rules.push((TraceKey::new(inner, inner_ctx), weight / 2.0));
            }
        }
    }
    let total = rules.iter().map(|(_, w)| w).sum();
    aoci_core::RuleSet::from_rules(rules, total)
}

/// 64-bit FNV-1a over `bytes`, continuing from `fold`.
fn fnv1a(fold: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(fold, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `body` as `Debug` printed it when every call owned its argument list:
/// each call with its arguments resolved out of `pool`.
fn owned_args_debug(body: &[Instr], pool: &[Reg]) -> String {
    let instrs: Vec<String> = body
        .iter()
        .map(|i| match *i {
            Instr::CallStatic { site, dst, callee, args } => format!(
                "CallStatic {{ site: {site:?}, dst: {dst:?}, callee: {callee:?}, args: {:?} }}",
                args.of(pool)
            ),
            Instr::CallVirtual { site, dst, selector, recv, args } => format!(
                "CallVirtual {{ site: {site:?}, dst: {dst:?}, selector: {selector:?}, \
                 recv: {recv:?}, args: {:?} }}",
                args.of(pool)
            ),
            other => format!("{other:?}"),
        })
        .collect();
    format!("[{}]", instrs.join(", "))
}

/// Folds what the simplifier decides of one compile — the body, the
/// instruction→node map, every node's `body_start` and the OSR anchors that
/// survived — and the inliner's record of it, whose rule weights print
/// exactly (`Debug` of an `f64` round-trips).
fn fold_compilation(mut fold: u64, c: &crate::Compilation) -> u64 {
    let v = &c.version;
    let body = owned_args_debug(&v.body, &v.arg_pool);
    fold = fnv1a(fold, format!("{body}{:?}{:?}", c.decisions, c.refusals).as_bytes());
    let map = &v.inline_map;
    for pc in 0..v.body.len() {
        let node = (0..map.num_nodes() as u32)
            .find(|&k| std::ptr::eq(map.node(k), map.node_at(pc)))
            .expect("every instruction has a node");
        fold = fnv1a(fold, &node.to_le_bytes());
    }
    for k in 0..map.num_nodes() as u32 {
        fold = fnv1a(fold, &map.node(k).body_start.to_le_bytes());
    }
    for p in v.osr_map.points() {
        fold = fnv1a(fold, &p.baseline_pc.to_le_bytes());
        fold = fnv1a(fold, &p.opt_pc.to_le_bytes());
    }
    fold
}

/// Every method of the 8 suite programs and of the first 60 campaign-1
/// programs, compiled with the simplifier under an empty rule set and under
/// [`every_edge_rules`] in both match modes, against the fold this body
/// printed at the commit before the simplifier moved onto its reused
/// scratch and onto basic blocks, and before `candidate_weight` answered the
/// inliner's per-callee question.
#[test]
fn compiled_bodies_match_the_parent_commit() {
    use aoci_core::{InlineOracle, MatchMode};
    use std::sync::Arc;
    let mut programs: Vec<aoci_ir::Program> =
        aoci_workloads::suite().iter().map(|spec| aoci_workloads::build(spec).program).collect();
    programs.extend((0..60).map(|i| {
        aoci_workloads::build_fuzz(&aoci_fuzz::sample_spec(1, i))
            .expect("campaign 1 specs build")
            .program
    }));
    let config = crate::OptConfig::default();
    assert!(config.simplify);
    let (mut fold, mut compiles, mut instrs, mut fired) = (0xcbf2_9ce4_8422_2325u64, 0, 0, 0);
    for program in &programs {
        let rules = Arc::new(every_edge_rules(program));
        let oracles = [
            InlineOracle::empty(),
            InlineOracle::with_mode(rules.clone(), MatchMode::Partial),
            InlineOracle::with_mode(rules, MatchMode::Exact),
        ];
        for m in (0..program.num_methods()).map(MethodId::from_index) {
            for oracle in &oracles {
                let c = crate::compile(program, m, oracle, &config);
                fold = fold_compilation(fold, &c);
                compiles += 1;
                instrs += c.version.body.len();
                fired += c.decisions.iter().filter(|d| d.provenance.rule_fired).count();
            }
        }
    }
    println!("{compiles} compiles, {instrs} instructions, {fired} rule-backed inlines");
    println!("fold {fold:#018x}");
    assert_eq!((compiles, instrs, fired, fold), (8_289, 320_283, 23_835, 0x5401_23d2_ee04_95ae));
}
