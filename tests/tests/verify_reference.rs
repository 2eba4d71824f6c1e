//! `typecheck::verify` against a reference: the verifier as it stood before
//! it read bodies in place and kept definite assignment on bit rows, kept
//! here as a test-only copy (the way `simplify/tests.rs` keeps its
//! `BTreeSet` liveness). Both must return the same `Result` — the same
//! report, or the same first error — on every program this workspace
//! generates and on hand-built invalid programs that reach every
//! [`TypeError`] variant. The one intended difference, a virtual call that
//! keeps the result of a void implementation, has a test of its own.

use aoci_ir::typecheck::{self, Shape, TypeError};
use aoci_ir::{BinOp, Cond, MethodBuilder, MethodId, Program, ProgramBuilder, Reg};
use aoci_vm::{CostModel, Vm, VmError};

/// The reference verifier: shapes by unification over `Vec<Vec<u32>>`
/// register variables, definite assignment over one `Vec<bool>` per
/// instruction, operand lists as fresh vectors.
mod reference {
    use aoci_ir::typecheck::{Shape, TypeError, TypeReport};
    use aoci_ir::{Cond, Instr, MethodId, MethodKind, Program, Reg, SelectorId};

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Tag {
        Int,
        Obj,
        Array(u32),
        AnyRef,
    }

    struct Table {
        parent: Vec<u32>,
        tag: Vec<Option<Tag>>,
    }

    impl Table {
        fn fresh(&mut self) -> u32 {
            let id = u32::try_from(self.parent.len()).expect("test programs are small");
            self.parent.push(id);
            self.tag.push(None);
            id
        }

        fn find(&mut self, v: u32) -> u32 {
            let mut root = v;
            while self.parent[root as usize] != root {
                root = self.parent[root as usize];
            }
            let mut cur = v;
            while self.parent[cur as usize] != root {
                let next = self.parent[cur as usize];
                self.parent[cur as usize] = root;
                cur = next;
            }
            root
        }

        fn unify(&mut self, a: u32, b: u32) -> Result<(), (Shape, Shape)> {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return Ok(());
            }
            let merged = match (self.tag[ra as usize], self.tag[rb as usize]) {
                (None, t) | (t, None) => t,
                (Some(x), Some(y)) => Some(self.merge_tags(x, y)?),
            };
            self.parent[rb as usize] = ra;
            self.tag[ra as usize] = merged;
            Ok(())
        }

        fn merge_tags(&mut self, x: Tag, y: Tag) -> Result<Tag, (Shape, Shape)> {
            match (x, y) {
                (Tag::Int, Tag::Int) => Ok(Tag::Int),
                (Tag::Obj, Tag::Obj) => Ok(Tag::Obj),
                (Tag::AnyRef, Tag::AnyRef) => Ok(Tag::AnyRef),
                (Tag::AnyRef, t @ (Tag::Obj | Tag::Array(_)))
                | (t @ (Tag::Obj | Tag::Array(_)), Tag::AnyRef) => Ok(t),
                (Tag::Array(e1), Tag::Array(e2)) => {
                    self.unify(e1, e2)?;
                    Ok(Tag::Array(e1))
                }
                (a, b) => Err((tag_shape(a), tag_shape(b))),
            }
        }

        fn require(&mut self, v: u32, t: Tag) -> Result<(), (Shape, Shape)> {
            let r = self.find(v);
            match self.tag[r as usize] {
                None => {
                    self.tag[r as usize] = Some(t);
                    Ok(())
                }
                Some(existing) => {
                    let merged = self.merge_tags(existing, t)?;
                    let r = self.find(v);
                    self.tag[r as usize] = Some(merged);
                    Ok(())
                }
            }
        }

        fn shape(&mut self, v: u32) -> Shape {
            let r = self.find(v);
            match self.tag[r as usize] {
                None => Shape::Unknown,
                Some(t) => tag_shape(t),
            }
        }
    }

    fn tag_shape(t: Tag) -> Shape {
        match t {
            Tag::Int => Shape::Int,
            Tag::Obj => Shape::Obj,
            Tag::Array(_) => Shape::Array,
            Tag::AnyRef => Shape::Obj,
        }
    }

    struct Checker<'p> {
        program: &'p Program,
        table: Table,
        reg_vars: Vec<Vec<u32>>,
        global_vars: Vec<u32>,
        field_vars: Vec<u32>,
        ret_vars: Vec<u32>,
        returns_value: Vec<Option<bool>>,
        selector_param_vars: Vec<Vec<u32>>,
        selector_ret_vars: Vec<u32>,
    }

    pub fn verify(program: &Program) -> Result<TypeReport, TypeError> {
        let mut table = Table { parent: Vec::new(), tag: Vec::new() };
        let reg_vars: Vec<Vec<u32>> = program
            .methods()
            .map(|m| (0..m.num_regs()).map(|_| table.fresh()).collect())
            .collect();
        let global_vars: Vec<u32> = (0..program.num_globals()).map(|_| table.fresh()).collect();
        let field_vars: Vec<u32> = (0..program.classes().map(|c| c.declared_fields().len()).sum())
            .map(|_| table.fresh())
            .collect();
        let ret_vars: Vec<u32> = program.methods().map(|_| table.fresh()).collect();
        let selector_param_vars: Vec<Vec<u32>> = (0..program.num_selectors())
            .map(|s| {
                let arity = program.selector(SelectorId::from_index(s)).arity();
                (0..arity).map(|_| table.fresh()).collect()
            })
            .collect();
        let selector_ret_vars: Vec<u32> =
            (0..program.num_selectors()).map(|_| table.fresh()).collect();

        let mut returns_value: Vec<Option<bool>> = vec![None; program.num_methods()];
        for m in program.methods() {
            for instr in m.body() {
                if let Instr::Return { src } = instr {
                    let has = src.is_some();
                    match returns_value[m.id().index()] {
                        None => returns_value[m.id().index()] = Some(has),
                        Some(prev) if prev != has => {
                            return Err(TypeError::InconsistentReturns { method: m.id() });
                        }
                        _ => {}
                    }
                }
            }
        }

        let mut checker = Checker {
            program,
            table,
            reg_vars,
            global_vars,
            field_vars,
            ret_vars,
            returns_value,
            selector_param_vars,
            selector_ret_vars,
        };

        for m in program.methods() {
            if let MethodKind::Virtual { selector, .. } = m.kind() {
                let mid = m.id();
                checker
                    .table
                    .require(checker.reg_vars[mid.index()][0], Tag::Obj)
                    .map_err(|(e, f)| mismatch(mid, 0, e, f))?;
                for k in 0..m.arity() {
                    let pv = checker.reg_vars[mid.index()][usize::from(k + 1)];
                    let sv = checker.selector_param_vars[selector.index()][usize::from(k)];
                    checker.table.unify(pv, sv).map_err(|(e, f)| mismatch(mid, 0, e, f))?;
                }
                checker
                    .table
                    .unify(checker.ret_vars[mid.index()], checker.selector_ret_vars[selector.index()])
                    .map_err(|(e, f)| mismatch(mid, 0, e, f))?;
            }
        }

        for m in program.methods() {
            checker.check_method(m.id())?;
            definite_assignment(program, m.id())?;
        }

        for m in program.methods() {
            for (at, instr) in m.body().iter().enumerate() {
                if let Instr::CallStatic { dst: Some(_), callee, .. } = instr {
                    if checker.returns_value[callee.index()] == Some(false) {
                        return Err(TypeError::VoidResultUsed {
                            method: m.id(),
                            at,
                            callee: *callee,
                        });
                    }
                }
            }
        }

        let globals =
            checker.global_vars.clone().into_iter().map(|v| checker.table.shape(v)).collect();
        let fields =
            checker.field_vars.clone().into_iter().map(|v| checker.table.shape(v)).collect();
        let methods = program
            .methods()
            .map(|m| {
                let params: Vec<Shape> = (0..m.total_args())
                    .map(|k| {
                        let v = checker.reg_vars[m.id().index()][usize::from(k)];
                        checker.table.shape(v)
                    })
                    .collect();
                let ret = if checker.returns_value[m.id().index()] == Some(true) {
                    let v = checker.ret_vars[m.id().index()];
                    Some(checker.table.shape(v))
                } else {
                    None
                };
                (params, ret)
            })
            .collect();
        Ok(TypeReport { globals, fields, methods })
    }

    fn mismatch(method: MethodId, at: usize, expected: Shape, found: Shape) -> TypeError {
        TypeError::Mismatch { method, at, expected, found }
    }

    impl Checker<'_> {
        fn rv(&self, m: MethodId, r: Reg) -> u32 {
            self.reg_vars[m.index()][r.index()]
        }

        fn check_method(&mut self, mid: MethodId) -> Result<(), TypeError> {
            let method = self.program.method(mid);
            let body: Vec<Instr> = method.body().to_vec();
            let pool: Vec<Reg> = method.arg_pool().to_vec();
            for (at, instr) in body.iter().enumerate() {
                self.check_instr(mid, instr, &pool).map_err(|(e, f)| mismatch(mid, at, e, f))?;
            }
            Ok(())
        }

        fn check_instr(
            &mut self,
            m: MethodId,
            instr: &Instr,
            pool: &[Reg],
        ) -> Result<(), (Shape, Shape)> {
            match instr {
                Instr::Const { dst, .. } => self.table.require(self.rv(m, *dst), Tag::Int),
                Instr::ConstNull { dst } => self.table.require(self.rv(m, *dst), Tag::AnyRef),
                Instr::Move { dst, src } => self.table.unify(self.rv(m, *dst), self.rv(m, *src)),
                Instr::Bin { dst, lhs, rhs, .. } => {
                    self.table.require(self.rv(m, *dst), Tag::Int)?;
                    self.table.require(self.rv(m, *lhs), Tag::Int)?;
                    self.table.require(self.rv(m, *rhs), Tag::Int)
                }
                Instr::Work { .. } | Instr::Jump { .. } => Ok(()),
                Instr::New { dst, .. } => self.table.require(self.rv(m, *dst), Tag::Obj),
                Instr::GetField { dst, obj, field } => {
                    self.table.require(self.rv(m, *obj), Tag::Obj)?;
                    self.table.unify(self.rv(m, *dst), self.field_vars[field.index()])
                }
                Instr::PutField { obj, field, src } => {
                    self.table.require(self.rv(m, *obj), Tag::Obj)?;
                    self.table.unify(self.rv(m, *src), self.field_vars[field.index()])
                }
                Instr::GetGlobal { dst, global } => {
                    self.table.unify(self.rv(m, *dst), self.global_vars[global.index()])
                }
                Instr::PutGlobal { global, src } => {
                    self.table.unify(self.rv(m, *src), self.global_vars[global.index()])
                }
                Instr::ArrNew { dst, len } => {
                    self.table.require(self.rv(m, *len), Tag::Int)?;
                    let elem = self.table.fresh();
                    self.table.require(self.rv(m, *dst), Tag::Array(elem))
                }
                Instr::ArrGet { dst, arr, idx } => {
                    self.table.require(self.rv(m, *idx), Tag::Int)?;
                    let elem = self.table.fresh();
                    self.table.require(self.rv(m, *arr), Tag::Array(elem))?;
                    self.table.unify(self.rv(m, *dst), elem)
                }
                Instr::ArrSet { arr, idx, src } => {
                    self.table.require(self.rv(m, *idx), Tag::Int)?;
                    let elem = self.table.fresh();
                    self.table.require(self.rv(m, *arr), Tag::Array(elem))?;
                    self.table.unify(self.rv(m, *src), elem)
                }
                Instr::ArrLen { dst, arr } => {
                    let elem = self.table.fresh();
                    self.table.require(self.rv(m, *arr), Tag::Array(elem))?;
                    self.table.require(self.rv(m, *dst), Tag::Int)
                }
                Instr::InstanceOf { dst, obj, .. } => {
                    self.table.require(self.rv(m, *obj), Tag::AnyRef)?;
                    self.table.require(self.rv(m, *dst), Tag::Int)
                }
                Instr::Branch { cond, lhs, rhs, .. } => match cond {
                    Cond::Eq | Cond::Ne => self.table.unify(self.rv(m, *lhs), self.rv(m, *rhs)),
                    _ => {
                        self.table.require(self.rv(m, *lhs), Tag::Int)?;
                        self.table.require(self.rv(m, *rhs), Tag::Int)
                    }
                },
                Instr::CallStatic { dst, callee, args, .. } => {
                    for (k, a) in args.of(pool).iter().enumerate() {
                        let pv = self.reg_vars[callee.index()][k];
                        self.table.unify(self.reg_vars[m.index()][a.index()], pv)?;
                    }
                    if let Some(d) = dst {
                        let rv = self.ret_vars[callee.index()];
                        self.table.unify(self.reg_vars[m.index()][d.index()], rv)?;
                    }
                    Ok(())
                }
                Instr::CallVirtual { dst, selector, recv, args, .. } => {
                    self.table.require(self.rv(m, *recv), Tag::Obj)?;
                    for (k, a) in args.of(pool).iter().enumerate() {
                        let pv = self.selector_param_vars[selector.index()][k];
                        self.table.unify(self.reg_vars[m.index()][a.index()], pv)?;
                    }
                    if let Some(d) = dst {
                        let rv = self.selector_ret_vars[selector.index()];
                        self.table.unify(self.reg_vars[m.index()][d.index()], rv)?;
                    }
                    Ok(())
                }
                Instr::Return { src } => {
                    if let Some(r) = src {
                        self.table.unify(self.rv(m, *r), self.ret_vars[m.index()])?;
                    }
                    Ok(())
                }
                Instr::GuardClass { recv, .. } | Instr::GuardMethod { recv, .. } => {
                    self.table.require(self.rv(m, *recv), Tag::Obj)
                }
            }
        }
    }

    fn definite_assignment(program: &Program, mid: MethodId) -> Result<(), TypeError> {
        let m = program.method(mid);
        let body = m.body();
        let n = body.len();
        let nregs = usize::from(m.num_regs());
        let params = usize::from(m.total_args());

        let full: Vec<bool> = vec![true; nregs];
        let mut entry: Vec<Option<Vec<bool>>> = vec![None; n];
        let mut start = vec![false; nregs];
        for s in start.iter_mut().take(params) {
            *s = true;
        }
        if n == 0 {
            return Ok(());
        }
        entry[0] = Some(start);
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            let mut state = entry[i].clone().unwrap_or_else(|| full.clone());
            let (uses, def) = uses_and_def(&body[i], m.arg_pool());
            for u in uses {
                if !state[u.index()] {
                    return Err(TypeError::MaybeUninitialised { method: mid, at: i, reg: u });
                }
            }
            if let Some(d) = def {
                state[d.index()] = true;
            }
            for s in successors(&body[i], i, n) {
                let merged = match &entry[s] {
                    None => state.clone(),
                    Some(prev) => prev.iter().zip(state.iter()).map(|(&a, &b)| a && b).collect(),
                };
                if entry[s].as_ref() != Some(&merged) {
                    entry[s] = Some(merged);
                    work.push(s);
                }
            }
        }
        Ok(())
    }

    fn successors(instr: &Instr, i: usize, n: usize) -> Vec<usize> {
        match instr {
            Instr::Return { .. } => vec![],
            Instr::Jump { target } => vec![*target as usize],
            Instr::Branch { target, .. }
            | Instr::GuardClass { else_target: target, .. }
            | Instr::GuardMethod { else_target: target, .. } => {
                let mut v = vec![*target as usize];
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            }
            _ => {
                if i + 1 < n {
                    vec![i + 1]
                } else {
                    vec![]
                }
            }
        }
    }

    fn uses_and_def(instr: &Instr, pool: &[Reg]) -> (Vec<Reg>, Option<Reg>) {
        match instr {
            Instr::Const { dst, .. } | Instr::ConstNull { dst } => (vec![], Some(*dst)),
            Instr::Move { dst, src } => (vec![*src], Some(*dst)),
            Instr::Bin { dst, lhs, rhs, .. } => (vec![*lhs, *rhs], Some(*dst)),
            Instr::Work { .. } | Instr::Jump { .. } => (vec![], None),
            Instr::New { dst, .. } => (vec![], Some(*dst)),
            Instr::GetField { dst, obj, .. } => (vec![*obj], Some(*dst)),
            Instr::PutField { obj, src, .. } => (vec![*obj, *src], None),
            Instr::GetGlobal { dst, .. } => (vec![], Some(*dst)),
            Instr::PutGlobal { src, .. } => (vec![*src], None),
            Instr::ArrNew { dst, len } => (vec![*len], Some(*dst)),
            Instr::ArrGet { dst, arr, idx } => (vec![*arr, *idx], Some(*dst)),
            Instr::ArrSet { arr, idx, src } => (vec![*arr, *idx, *src], None),
            Instr::ArrLen { dst, arr } => (vec![*arr], Some(*dst)),
            Instr::InstanceOf { dst, obj, .. } => (vec![*obj], Some(*dst)),
            Instr::Branch { lhs, rhs, .. } => (vec![*lhs, *rhs], None),
            Instr::CallStatic { dst, args, .. } => (args.of(pool).to_vec(), *dst),
            Instr::CallVirtual { dst, recv, args, .. } => {
                let mut u = vec![*recv];
                u.extend_from_slice(args.of(pool));
                (u, *dst)
            }
            Instr::Return { src } => (src.iter().copied().collect(), None),
            Instr::GuardClass { recv, .. } | Instr::GuardMethod { recv, .. } => {
                (vec![*recv], None)
            }
        }
    }
}

fn assert_same_result(name: &str, program: &Program) {
    assert_eq!(typecheck::verify(program), reference::verify(program), "{name}");
}

#[test]
fn every_generated_program_verifies_as_the_reference_does() {
    for spec in aoci_workloads::suite() {
        let program = aoci_workloads::build(&spec).program;
        assert!(typecheck::verify(&program).is_ok(), "{} verifies", spec.name);
        assert_same_result(spec.name, &program);
    }
    assert_same_result("hashmap_test", &aoci_workloads::hashmap_test(600));
    for i in 0..200 {
        let spec = aoci_fuzz::sample_spec(1, i);
        let program = aoci_workloads::build_fuzz(&spec).expect("campaign 1 specs build").program;
        assert_same_result(&spec.name, &program);
    }
}

/// Builds a program whose entry point `main` (no parameters) is written by
/// `body`, after the helper methods `setup` declares.
fn program(setup: impl FnOnce(&mut ProgramBuilder), body: impl FnOnce(&mut MethodBuilder<'_>)) -> Program {
    let mut b = ProgramBuilder::new();
    setup(&mut b);
    let mut m = b.static_method("main", 0);
    body(&mut m);
    let main = m.finish();
    b.finish(main).expect("structurally valid")
}

fn main_only(body: impl FnOnce(&mut MethodBuilder<'_>)) -> Program {
    program(|_| {}, body)
}

/// The entry method of a program built by [`program`] after `helpers`
/// other methods.
fn main_after(helpers: usize) -> MethodId {
    MethodId::from_index(helpers)
}

/// One invalid program per way of failing, each with the error both
/// verifiers must report.
fn invalid_programs() -> Vec<(&'static str, Program, TypeError)> {
    let main = main_after(0);
    let mut cases = Vec::new();

    cases.push((
        "arithmetic on an object",
        program(
            |b| {
                b.class("A", None);
            },
            |m| {
                let (o, r) = (m.fresh_reg(), m.fresh_reg());
                m.new_obj(o, aoci_ir::ClassId::from_index(0));
                m.const_int(r, 1);
                m.bin(BinOp::Add, r, r, o);
                m.ret(None);
            },
        ),
        TypeError::Mismatch { method: main, at: 2, expected: Shape::Obj, found: Shape::Int },
    ));

    cases.push((
        "an array element read as an integer after an object was stored",
        program(
            |b| {
                b.class("A", None);
            },
            |m| {
                let (n, arr, o, i) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
                m.const_int(n, 2);
                m.arr_new(arr, n);
                m.new_obj(o, aoci_ir::ClassId::from_index(0));
                m.arr_set(arr, n, o);
                m.arr_get(i, arr, n);
                m.bin(BinOp::Add, i, i, n);
                m.ret(None);
            },
        ),
        TypeError::Mismatch { method: main, at: 5, expected: Shape::Obj, found: Shape::Int },
    ));

    cases.push((
        "a virtual method's parameter used as an integer and as a reference",
        program(
            |b| {
                let sel = b.selector("f", 1);
                let a = b.class("A", None);
                let sub = b.class("B", Some(a));
                let mut m = b.virtual_method("A.f", a, sel);
                let r = m.fresh_reg();
                m.const_int(r, 1);
                m.bin(BinOp::Add, r, r, m.param(0));
                m.ret(Some(r));
                m.finish();
                let mut m = b.virtual_method("B.f", sub, sel);
                let r = m.fresh_reg();
                m.instance_of(r, m.param(0), a);
                m.ret(Some(r));
                m.finish();
            },
            |m| m.ret(None),
        ),
        TypeError::Mismatch {
            method: MethodId::from_index(1),
            at: 0,
            expected: Shape::Int,
            found: Shape::Obj,
        },
    ));

    cases.push((
        "a static call passing an object where the callee adds",
        program(
            |b| {
                b.class("A", None);
                let mut m = b.static_method("inc", 1);
                let r = m.fresh_reg();
                m.const_int(r, 1);
                m.bin(BinOp::Add, r, r, m.param(0));
                m.ret(Some(r));
                m.finish();
            },
            |m| {
                let o = m.fresh_reg();
                m.new_obj(o, aoci_ir::ClassId::from_index(0));
                m.call_static(None, MethodId::from_index(0), &[o]);
                m.ret(None);
            },
        ),
        TypeError::Mismatch { method: main_after(1), at: 1, expected: Shape::Obj, found: Shape::Int },
    ));

    cases.push((
        "a register read on one path before it is written",
        main_only(|m| {
            let (c, r) = (m.fresh_reg(), m.fresh_reg());
            let join = m.label();
            m.const_int(c, 0);
            m.branch(Cond::Eq, c, c, join);
            m.const_int(r, 1);
            m.bind(join);
            m.bin(BinOp::Add, c, c, r);
            m.ret(None);
        }),
        TypeError::MaybeUninitialised { method: main, at: 3, reg: Reg(1) },
    ));

    cases.push((
        "an instruction that reads the register it is the first to write",
        main_only(|m| {
            let (one, r) = (m.fresh_reg(), m.fresh_reg());
            m.const_int(one, 1);
            m.bin(BinOp::Add, r, r, one);
            m.ret(Some(r));
        }),
        TypeError::MaybeUninitialised { method: main, at: 1, reg: Reg(1) },
    ));

    // Two uninitialised reads, one on each side of a branch. The worklist
    // is last in, first out and pushes the branch target before the
    // fall-through, so the fall-through's read (the later register, at the
    // lower index) is the one reported.
    cases.push((
        "two uninitialised reads on different paths",
        main_only(|m| {
            let (c, a, b) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
            let other = m.label();
            m.const_int(c, 0);
            m.branch(Cond::Eq, c, c, other);
            m.bin(BinOp::Add, c, c, b);
            m.ret(None);
            m.bind(other);
            m.bin(BinOp::Add, c, c, a);
            m.ret(None);
        }),
        TypeError::MaybeUninitialised { method: main, at: 2, reg: Reg(2) },
    ));

    // A register written in a loop body and read after it: defined on the
    // back-edge, not on the way in, so only the meet at the loop head
    // (intersection, not union) finds the read.
    cases.push((
        "a read after a loop that may not run",
        main_only(|m| {
            let (i, n, x) = (m.fresh_reg(), m.fresh_reg(), m.fresh_reg());
            let (top, out) = (m.label(), m.label());
            m.const_int(i, 0);
            m.const_int(n, 3);
            m.bind(top);
            m.branch(Cond::Ge, i, n, out);
            m.const_int(x, 7);
            m.bin(BinOp::Add, i, i, x);
            m.jump(top);
            m.bind(out);
            m.ret(Some(x));
        }),
        TypeError::MaybeUninitialised { method: main, at: 6, reg: Reg(2) },
    ));

    cases.push((
        "a method returning with and without a value",
        main_only(|m| {
            let c = m.fresh_reg();
            let v = m.label();
            m.const_int(c, 0);
            m.branch(Cond::Eq, c, c, v);
            m.ret(None);
            m.bind(v);
            m.ret(Some(c));
        }),
        TypeError::InconsistentReturns { method: main },
    ));

    cases.push((
        "the result of a void static method",
        program(
            |b| {
                let mut m = b.static_method("void", 0);
                m.ret(None);
                m.finish();
            },
            |m| {
                let r = m.fresh_reg();
                m.call_static(Some(r), MethodId::from_index(0), &[]);
                m.ret(None);
            },
        ),
        TypeError::VoidResultUsed {
            method: main_after(1),
            at: 0,
            callee: MethodId::from_index(0),
        },
    ));
    cases
}

#[test]
fn invalid_programs_report_the_references_first_error() {
    let cases = invalid_programs();
    let mut kinds = [false; 4];
    for (what, program, expected) in &cases {
        kinds[match expected {
            TypeError::Mismatch { .. } => 0,
            TypeError::MaybeUninitialised { .. } => 1,
            TypeError::InconsistentReturns { .. } => 2,
            TypeError::VoidResultUsed { .. } => 3,
        }] = true;
        assert_eq!(reference::verify(program).as_ref(), Err(expected), "reference: {what}");
        assert_eq!(typecheck::verify(program).as_ref(), Err(expected), "{what}");
    }
    assert_eq!(kinds, [true; 4], "every TypeError variant is reached");
}

/// The difference the reference does not share: it accepts a virtual call
/// that keeps the result of a void implementation, and the program then
/// faults on a register use, which a verified program must never do.
#[test]
fn a_virtual_call_keeping_a_void_result_is_rejected() {
    let (sel_impl, main) = (MethodId::from_index(0), main_after(1));
    let p = program(
        |b| {
            let sel = b.selector("f", 0);
            let a = b.class("A", None);
            let mut m = b.virtual_method("A.f", a, sel);
            m.ret(None);
            m.finish();
        },
        |m| {
            let (o, r) = (m.fresh_reg(), m.fresh_reg());
            m.new_obj(o, aoci_ir::ClassId::from_index(0));
            m.call_virtual(Some(r), aoci_ir::SelectorId::from_index(0), o, &[]);
            m.bin(BinOp::Add, r, r, r);
            m.ret(None);
        },
    );
    assert!(reference::verify(&p).is_ok(), "the reference misses it");
    let fault = Vm::new(&p, CostModel::default()).run_to_completion().unwrap_err();
    assert!(matches!(fault, VmError::TypeError { pc: 2, expected: "integer", .. }), "{fault:?}");
    assert_eq!(
        typecheck::verify(&p),
        Err(TypeError::VoidResultUsed { method: main, at: 1, callee: sel_impl })
    );
}
