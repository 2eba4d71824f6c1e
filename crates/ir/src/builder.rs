//! Fluent construction of programs and method bodies.

use crate::class::{ClassDef, FieldDef, SelectorDef};
use crate::error::IrError;
use crate::ids::{ClassId, FieldId, GlobalId, Label, MethodId, Reg, SelectorId, SiteIdx};
use crate::instr::{ArgSpan, BinOp, Cond, Instr};
use crate::method::{MethodDef, MethodKind};
use crate::program::{DispatchRow, Program, NO_METHOD};
use crate::size;
use crate::validate;
use std::collections::HashMap;

/// Incrementally builds a [`Program`].
///
/// Declare classes, fields, selectors and globals, then build method bodies
/// with [`MethodBuilder`]s obtained from [`ProgramBuilder::static_method`] /
/// [`ProgramBuilder::virtual_method`]. Finally call
/// [`ProgramBuilder::finish`] with the entry point; the whole program is
/// validated at that point.
///
/// Superclasses must be declared before their subclasses, which guarantees
/// the inheritance graph is acyclic by construction.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<ClassDef>,
    methods: Vec<Option<MethodDef>>,
    fields: Vec<FieldDef>,
    selectors: Vec<SelectorDef>,
    selector_index: HashMap<(String, u16), SelectorId>,
    global_names: Vec<String>,
    errors: Vec<IrError>,
    class_names: HashMap<String, ClassId>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class with an optional superclass.
    ///
    /// The superclass, if given, must have been declared earlier by this
    /// builder. Duplicate class names are reported at [`finish`] time.
    ///
    /// [`finish`]: ProgramBuilder::finish
    pub fn class(&mut self, name: impl Into<String>, superclass: Option<ClassId>) -> ClassId {
        let name = name.into();
        let id = ClassId(next_id(self.classes.len()));
        if let Some(sup) = superclass {
            if sup.index() >= self.classes.len() {
                self.errors.push(IrError::UnknownClass { class: sup });
            }
        }
        if self.class_names.insert(name.clone(), id).is_some() {
            self.errors.push(IrError::DuplicateClassName { name: name.clone() });
        }
        self.classes.push(ClassDef {
            id,
            name,
            superclass,
            declared_fields: Vec::new(),
            layout_size: 0, // finalized in `finish`
            vtable: HashMap::new(),
            depth: 0, // finalized in `finish`
        });
        id
    }

    /// Declares a field on `class`. Layout offsets are assigned at
    /// [`finish`](ProgramBuilder::finish) time.
    pub fn field(&mut self, class: ClassId, name: impl Into<String>) -> FieldId {
        let id = FieldId(next_id(self.fields.len()));
        self.fields.push(FieldDef {
            id,
            name: name.into(),
            owner: class,
            offset: 0, // finalized in `finish`
        });
        if let Some(c) = self.classes.get_mut(class.index()) {
            c.declared_fields.push(id);
        } else {
            self.errors.push(IrError::UnknownClass { class });
        }
        id
    }

    /// Declares (or returns the existing) selector with the given name and
    /// arity (excluding the receiver).
    pub fn selector(&mut self, name: impl Into<String>, arity: u16) -> SelectorId {
        let name = name.into();
        if let Some(&id) = self.selector_index.get(&(name.clone(), arity)) {
            return id;
        }
        let id = SelectorId(next_id(self.selectors.len()));
        self.selectors.push(SelectorDef { id, name: name.clone(), arity });
        self.selector_index.insert((name, arity), id);
        id
    }

    /// Declares a global (static) variable, initialised to integer 0.
    pub fn global(&mut self, name: impl Into<String>) -> GlobalId {
        let id = GlobalId(next_id(self.global_names.len()));
        self.global_names.push(name.into());
        id
    }

    /// Starts building a static method with `arity` parameters.
    pub fn static_method(&mut self, name: impl Into<String>, arity: u16) -> MethodBuilder<'_> {
        let id = self.alloc_method();
        MethodBuilder::new(self, id, name.into(), MethodKind::Static, arity)
    }

    /// Starts building a virtual method implementing `selector` on `class`.
    ///
    /// The method is installed in the class's vtable immediately, so
    /// recursive and mutually-virtual calls can be expressed. Its arity is
    /// the selector's arity.
    pub fn virtual_method(
        &mut self,
        name: impl Into<String>,
        class: ClassId,
        selector: SelectorId,
    ) -> MethodBuilder<'_> {
        let id = self.alloc_method();
        let arity = self.selectors[selector.index()].arity;
        if let Some(c) = self.classes.get_mut(class.index()) {
            c.vtable.insert(selector, id);
        } else {
            self.errors.push(IrError::UnknownClass { class });
        }
        MethodBuilder::new(
            self,
            id,
            name.into(),
            MethodKind::Virtual { owner: class, selector },
            arity,
        )
    }

    fn alloc_method(&mut self) -> MethodId {
        let id = MethodId(next_id(self.methods.len()));
        self.methods.push(None);
        id
    }

    pub(crate) fn install(&mut self, def: MethodDef) {
        let idx = def.id.index();
        self.methods[idx] = Some(def);
    }

    pub(crate) fn push_error(&mut self, e: IrError) {
        self.errors.push(e);
    }

    /// Finalises the program with `entry` as the entry point.
    ///
    /// Computes field layouts and class depths, indexes selector
    /// implementations, fills the virtual-dispatch table, and validates
    /// every method body.
    ///
    /// # Errors
    ///
    /// Returns the first construction or validation error encountered (label
    /// fixup failures, branch/register/arity violations, bad entry point,
    /// duplicate class names).
    pub fn finish(mut self, entry: MethodId) -> Result<Program, IrError> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }

        // Field layouts: classes are declared parents-first, so a single
        // in-order pass suffices.
        for ci in 0..self.classes.len() {
            let (parent_size, depth) = match self.classes[ci].superclass {
                Some(sup) => {
                    let s = &self.classes[sup.index()];
                    (s.layout_size, s.depth + 1)
                }
                None => (0, 0),
            };
            let declared = self.classes[ci].declared_fields.clone();
            // Fewer than 2^32 fields in all (`field` checks each id), so a
            // class's count and its offsets fit in `u32`.
            for (k, fid) in declared.iter().enumerate() {
                self.fields[fid.index()].offset = parent_size + k as u32;
            }
            self.classes[ci].layout_size = parent_size + declared.len() as u32;
            self.classes[ci].depth = depth;
        }

        let methods: Vec<MethodDef> = self
            .methods
            .into_iter()
            .map(|m| m.expect("every allocated method must be finished"))
            .collect();

        let mut impls_by_selector: HashMap<SelectorId, Vec<MethodId>> = HashMap::new();
        for c in &self.classes {
            for (&sel, &m) in &c.vtable {
                impls_by_selector.entry(sel).or_default().push(m);
            }
        }
        for v in impls_by_selector.values_mut() {
            v.sort();
        }

        // Dispatch rows, parent-first by copy-and-override: a class's row
        // covers its superclass's selector range (declared earlier, so
        // already filled) widened by its own declarations, starts as a copy
        // of the superclass's entries and takes the class's own on top.
        let mut dispatch_rows: Vec<DispatchRow> = Vec::with_capacity(self.classes.len());
        let mut dispatch = Vec::new();
        for c in &self.classes {
            let parent =
                c.superclass.map(|sup| dispatch_rows[sup.index()]).filter(|row| row.len > 0);
            let range = c
                .vtable
                .keys()
                .map(|sel| (sel.0, sel.0 + 1))
                .chain(parent.map(|row| (row.first, row.first + row.len)))
                .reduce(|(lo, hi), (first, end)| (lo.min(first), hi.max(end)));
            let (first, end) = range.unwrap_or_default();
            let row = DispatchRow { start: dispatch.len(), first, len: end - first };
            dispatch.resize(row.start + row.len as usize, NO_METHOD);
            let entry = |sel: u32| row.start + (sel - row.first) as usize;
            if let Some(parent) = parent {
                let inherited = parent.start..parent.start + parent.len as usize;
                dispatch.copy_within(inherited, entry(parent.first));
            }
            for (&sel, &m) in &c.vtable {
                dispatch[entry(sel.0)] = m.0;
            }
            dispatch_rows.push(row);
        }

        let mut program = Program {
            classes: self.classes,
            methods,
            fields: self.fields,
            selectors: self.selectors,
            global_names: self.global_names,
            entry,
            impls_by_selector,
            dispatch_rows,
            dispatch,
        };
        // A program never grows once built: drop the tables' doubling slack
        // (`methods`, collected in place, keeps its `Option` slots' capacity).
        program.methods.shrink_to_fit();
        program.classes.shrink_to_fit();
        program.fields.shrink_to_fit();
        program.selectors.shrink_to_fit();
        program.global_names.shrink_to_fit();
        program.dispatch.shrink_to_fit();

        validate::validate(&program)?;
        Ok(program)
    }
}

/// Builds one method body; obtained from
/// [`ProgramBuilder::static_method`] or [`ProgramBuilder::virtual_method`].
///
/// Registers `0..total_args` hold the incoming arguments (register 0 is the
/// receiver for virtual methods); [`MethodBuilder::fresh_reg`] allocates
/// scratch registers above them. Branch targets are expressed with labels
/// ([`MethodBuilder::label`] / [`MethodBuilder::bind`]) and resolved when
/// [`MethodBuilder::finish`] is called.
#[derive(Debug)]
pub struct MethodBuilder<'p> {
    parent: &'p mut ProgramBuilder,
    id: MethodId,
    name: String,
    kind: MethodKind,
    arity: u16,
    next_reg: u16,
    /// Set when [`MethodBuilder::fresh_reg`] ran out of registers.
    out_of_registers: bool,
    body: Vec<Instr>,
    /// The argument pool of `body`.
    arg_pool: Vec<Reg>,
    next_site: u16,
    /// Set when a call site was emitted past the last `u16` site index.
    out_of_sites: bool,
    /// Set when a call's arguments did not fit an [`ArgSpan`].
    out_of_arg_pool: bool,
    labels: Vec<Option<u32>>,
    /// (instruction index, label) pairs awaiting resolution.
    fixups: Vec<(usize, Label)>,
}

impl<'p> MethodBuilder<'p> {
    fn new(
        parent: &'p mut ProgramBuilder,
        id: MethodId,
        name: String,
        kind: MethodKind,
        arity: u16,
    ) -> Self {
        let total_args = match kind {
            MethodKind::Static => arity,
            MethodKind::Virtual { .. } => arity + 1,
        };
        MethodBuilder {
            parent,
            id,
            name,
            kind,
            arity,
            next_reg: total_args,
            out_of_registers: false,
            body: Vec::new(),
            arg_pool: Vec::new(),
            next_site: 0,
            out_of_sites: false,
            out_of_arg_pool: false,
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Returns the id the finished method will have.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// Returns the receiver register (virtual methods only).
    pub fn receiver(&self) -> Option<Reg> {
        match self.kind {
            MethodKind::Static => None,
            MethodKind::Virtual { .. } => Some(Reg(0)),
        }
    }

    /// Returns the register holding declared parameter `i` (0-based,
    /// excluding the receiver).
    ///
    /// # Panics
    ///
    /// Panics if `i >= arity`.
    pub fn param(&self, i: u16) -> Reg {
        assert!(i < self.arity, "parameter index out of range");
        match self.kind {
            MethodKind::Static => Reg(i),
            MethodKind::Virtual { .. } => Reg(i + 1),
        }
    }

    /// Allocates a fresh scratch register.
    ///
    /// A method has at most `u16::MAX` registers. The call that would
    /// allocate one more returns a register outside the method's count, and
    /// [`ProgramBuilder::finish`] reports [`IrError::TooManyRegisters`].
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        match self.next_reg.checked_add(1) {
            Some(next) => self.next_reg = next,
            None => self.out_of_registers = true,
        }
        r
    }

    /// Returns the index the next emitted instruction will have.
    pub fn next_index(&self) -> usize {
        self.body.len()
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(next_id(self.labels.len()));
        self.labels.push(None);
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(next_id(self.body.len()));
    }

    fn emit(&mut self, i: Instr) {
        self.body.push(i);
    }

    /// Emits `dst = value`.
    pub fn const_int(&mut self, dst: Reg, value: i64) {
        self.emit(Instr::Const { dst, value });
    }

    /// Emits `dst = null`.
    pub fn const_null(&mut self, dst: Reg) {
        self.emit(Instr::ConstNull { dst });
    }

    /// Emits `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.emit(Instr::Move { dst, src });
    }

    /// Emits `dst = lhs op rhs`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) {
        self.emit(Instr::Bin { op, dst, lhs, rhs });
    }

    /// Emits a straight-line block of `units` abstract instructions of work.
    pub fn work(&mut self, units: u32) {
        self.emit(Instr::Work { units });
    }

    /// Emits `dst = new class`.
    pub fn new_obj(&mut self, dst: Reg, class: ClassId) {
        self.emit(Instr::New { dst, class });
    }

    /// Emits `dst = obj.field`.
    pub fn get_field(&mut self, dst: Reg, obj: Reg, field: FieldId) {
        self.emit(Instr::GetField { dst, obj, field });
    }

    /// Emits `obj.field = src`.
    pub fn put_field(&mut self, obj: Reg, field: FieldId, src: Reg) {
        self.emit(Instr::PutField { obj, field, src });
    }

    /// Emits `dst = global`.
    pub fn get_global(&mut self, dst: Reg, global: GlobalId) {
        self.emit(Instr::GetGlobal { dst, global });
    }

    /// Emits `global = src`.
    pub fn put_global(&mut self, global: GlobalId, src: Reg) {
        self.emit(Instr::PutGlobal { global, src });
    }

    /// Emits `dst = new array[len]`.
    pub fn arr_new(&mut self, dst: Reg, len: Reg) {
        self.emit(Instr::ArrNew { dst, len });
    }

    /// Emits `dst = arr[idx]`.
    pub fn arr_get(&mut self, dst: Reg, arr: Reg, idx: Reg) {
        self.emit(Instr::ArrGet { dst, arr, idx });
    }

    /// Emits `arr[idx] = src`.
    pub fn arr_set(&mut self, arr: Reg, idx: Reg, src: Reg) {
        self.emit(Instr::ArrSet { arr, idx, src });
    }

    /// Emits `dst = arr.length`.
    pub fn arr_len(&mut self, dst: Reg, arr: Reg) {
        self.emit(Instr::ArrLen { dst, arr });
    }

    /// Emits `dst = obj instanceof class`.
    pub fn instance_of(&mut self, dst: Reg, obj: Reg, class: ClassId) {
        self.emit(Instr::InstanceOf { dst, obj, class });
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) {
        let at = self.body.len();
        self.fixups.push((at, label));
        self.emit(Instr::Jump { target: u32::MAX });
    }

    /// Emits a conditional branch to `label` when `lhs cond rhs`.
    pub fn branch(&mut self, cond: Cond, lhs: Reg, rhs: Reg, label: Label) {
        let at = self.body.len();
        self.fixups.push((at, label));
        self.emit(Instr::Branch { cond, lhs, rhs, target: u32::MAX });
    }

    /// The index of a new call site.
    ///
    /// A method has at most `u16::MAX` call sites. The call that would
    /// number one more sets a flag that [`MethodBuilder::finish`] reports
    /// as [`IrError::TooManySites`].
    fn next_site(&mut self) -> SiteIdx {
        let site = SiteIdx(self.next_site);
        match self.next_site.checked_add(1) {
            Some(next) => self.next_site = next,
            None => self.out_of_sites = true,
        }
        site
    }

    /// Appends a call's arguments to the argument pool and returns their
    /// span. Arguments past an [`ArgSpan`] bound set a flag that
    /// [`MethodBuilder::finish`] reports as [`IrError::TooManyCallArgs`].
    fn pool_args(&mut self, args: &[Reg]) -> ArgSpan {
        ArgSpan::append(&mut self.arg_pool, args.iter().copied()).unwrap_or_else(|| {
            self.out_of_arg_pool = true;
            ArgSpan::default()
        })
    }

    /// Emits a static call; returns the new call site's index.
    pub fn call_static(&mut self, dst: Option<Reg>, callee: MethodId, args: &[Reg]) -> SiteIdx {
        let site = self.next_site();
        let args = self.pool_args(args);
        self.emit(Instr::CallStatic { site, dst, callee, args });
        site
    }

    /// Emits a virtual call; returns the new call site's index.
    pub fn call_virtual(
        &mut self,
        dst: Option<Reg>,
        selector: SelectorId,
        recv: Reg,
        args: &[Reg],
    ) -> SiteIdx {
        let site = self.next_site();
        let args = self.pool_args(args);
        self.emit(Instr::CallVirtual { site, dst, selector, recv, args });
        site
    }

    /// Emits a return.
    pub fn ret(&mut self, src: Option<Reg>) {
        self.emit(Instr::Return { src });
    }

    /// Resolves labels, installs the method in the program builder and
    /// returns its id.
    ///
    /// Label-resolution failures are recorded on the parent builder and
    /// reported by [`ProgramBuilder::finish`].
    pub fn finish(mut self) -> MethodId {
        let mut unbound = false;
        for (at, label) in std::mem::take(&mut self.fixups) {
            match self.labels[label.0 as usize] {
                Some(target) => self.body[at].map_branch_target(|_| target),
                None => unbound = true,
            }
        }
        if unbound {
            let name = self.name.clone();
            self.parent.push_error(IrError::UnboundLabel { method: name });
        }
        if self.out_of_registers {
            self.parent.push_error(IrError::TooManyRegisters { method: self.id });
        }
        if self.out_of_sites {
            self.parent.push_error(IrError::TooManySites { method: self.id });
        }
        if self.out_of_arg_pool {
            self.parent.push_error(IrError::TooManyCallArgs { method: self.id });
        }
        let size_estimate = size::body_size(&self.body);
        // A finished body lives as long as its program and never grows.
        self.body.shrink_to_fit();
        self.arg_pool.shrink_to_fit();
        let def = MethodDef {
            id: self.id,
            name: self.name,
            kind: self.kind,
            arity: self.arity,
            num_regs: self.next_reg,
            body: self.body,
            arg_pool: self.arg_pool,
            num_sites: self.next_site,
            size_estimate,
        };
        let id = def.id;
        self.parent.install(def);
        id
    }
}

/// The id of the next entry of a table that holds `len`: ids, labels and
/// branch targets are `u32`.
fn next_id(len: usize) -> u32 {
    u32::try_from(len).expect("a program holds fewer than 2^32 of each kind of entry")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_main(b: &mut ProgramBuilder) -> MethodId {
        let mut m = b.static_method("main", 0);
        m.ret(None);
        m.finish()
    }

    #[test]
    fn builds_minimal_program() {
        let mut b = ProgramBuilder::new();
        let main = trivial_main(&mut b);
        let p = b.finish(main).unwrap();
        assert_eq!(p.num_methods(), 1);
        assert_eq!(p.entry(), main);
    }

    #[test]
    fn field_layout_includes_inherited() {
        let mut b = ProgramBuilder::new();
        let a = b.class("A", None);
        let fa = b.field(a, "x");
        let c = b.class("B", Some(a));
        let fb = b.field(c, "y");
        let main = trivial_main(&mut b);
        let p = b.finish(main).unwrap();
        assert_eq!(p.field(fa).offset(), 0);
        assert_eq!(p.field(fb).offset(), 1);
        assert_eq!(p.class(a).layout_size(), 1);
        assert_eq!(p.class(c).layout_size(), 2);
        assert_eq!(p.class(c).depth(), 1);
    }

    #[test]
    fn selector_deduplication() {
        let mut b = ProgramBuilder::new();
        let s1 = b.selector("foo", 2);
        let s2 = b.selector("foo", 2);
        let s3 = b.selector("foo", 3);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn virtual_dispatch_walks_hierarchy() {
        let mut b = ProgramBuilder::new();
        let sel = b.selector("go", 0);
        let a = b.class("A", None);
        let sub = b.class("Sub", Some(a));
        let m = {
            let mut mb = b.virtual_method("A.go", a, sel);
            mb.ret(None);
            mb.finish()
        };
        let main = trivial_main(&mut b);
        let p = b.finish(main).unwrap();
        assert_eq!(p.lookup_virtual(sub, sel), Some(m));
        assert_eq!(p.lookup_virtual(a, sel), Some(m));
        assert_eq!(p.implementations(sel), &[m]);
    }

    fn empty_virtual(b: &mut ProgramBuilder, name: &str, class: ClassId, sel: SelectorId) -> MethodId {
        let mut mb = b.virtual_method(name, class, sel);
        mb.ret(None);
        mb.finish()
    }

    #[test]
    fn override_declared_only_in_a_grandchild() {
        let mut b = ProgramBuilder::new();
        // `elsewhere` sits between A's two selectors, so A's rows have a
        // hole and Other's row starts above `go` and ends below `stay`.
        let go = b.selector("go", 0);
        let elsewhere = b.selector("elsewhere", 0);
        let stay = b.selector("stay", 0);
        let a = b.class("A", None);
        let mid = b.class("Mid", Some(a));
        let leaf = b.class("Leaf", Some(mid));
        let other = b.class("Other", None);
        let wider = b.class("Wider", Some(other));
        let bare = b.class("Bare", None);
        let a_go = empty_virtual(&mut b, "A.go", a, go);
        let a_stay = empty_virtual(&mut b, "A.stay", a, stay);
        let leaf_go = empty_virtual(&mut b, "Leaf.go", leaf, go);
        let other_elsewhere = empty_virtual(&mut b, "Other.elsewhere", other, elsewhere);
        let wider_go = empty_virtual(&mut b, "Wider.go", wider, go);
        let wider_stay = empty_virtual(&mut b, "Wider.stay", wider, stay);
        let main = trivial_main(&mut b);
        let p = b.finish(main).unwrap();
        assert_eq!(p.lookup_virtual(a, go), Some(a_go));
        assert_eq!(p.lookup_virtual(mid, go), Some(a_go), "Mid inherits through an empty class");
        assert_eq!(p.lookup_virtual(leaf, go), Some(leaf_go), "only the grandchild overrides");
        assert_eq!(p.lookup_virtual(leaf, stay), Some(a_stay), "the override is per selector");
        assert_eq!(p.lookup_virtual(leaf, elsewhere), None, "a hole inside the row");
        assert_eq!(p.lookup_virtual(other, elsewhere), Some(other_elsewhere));
        assert_eq!(p.lookup_virtual(other, go), None, "below an unrelated root's row");
        assert_eq!(p.lookup_virtual(other, stay), None, "above it");
        assert_eq!(
            [go, elsewhere, stay].map(|s| p.lookup_virtual(wider, s)),
            [Some(wider_go), Some(other_elsewhere), Some(wider_stay)],
            "a subclass widens its parent's row on both sides"
        );
        for s in [go, elsewhere, stay] {
            assert_eq!(p.lookup_virtual(bare, s), None, "a class with an empty row");
        }
    }

    #[test]
    fn selector_no_class_implements_looks_up_to_none() {
        let mut b = ProgramBuilder::new();
        let go = b.selector("go", 0);
        let orphan = b.selector("orphan", 2);
        let a = b.class("A", None);
        let sub = b.class("Sub", Some(a));
        empty_virtual(&mut b, "A.go", a, go);
        let main = trivial_main(&mut b);
        let p = b.finish(main).unwrap();
        for c in [a, sub] {
            assert_eq!(p.lookup_virtual(c, orphan), None);
        }
        assert!(p.implementations(orphan).is_empty());
        // A selector id this program never declared is implemented by nothing.
        assert_eq!(p.lookup_virtual(sub, SelectorId(7)), None);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.const_int(r, 3);
            let top = m.label();
            let out = m.label();
            m.bind(top);
            m.branch(Cond::Le, r, r, out); // always taken
            m.jump(top);
            m.bind(out);
            m.ret(None);
            m.finish()
        };
        let p = b.finish(main).unwrap();
        let body = p.method(main).body();
        assert_eq!(body[1].branch_target(), Some(3));
        assert_eq!(body[2].branch_target(), Some(1));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("main", 0);
            let l = m.label();
            m.jump(l);
            m.ret(None);
            m.finish()
        };
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, IrError::UnboundLabel { .. }));
    }

    #[test]
    fn duplicate_class_name_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.class("A", None);
        b.class("A", None);
        let main = trivial_main(&mut b);
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, IrError::DuplicateClassName { .. }));
    }

    /// A method with `scratch` fresh registers and no parameters.
    fn method_with_registers(scratch: u32) -> Result<Program, IrError> {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("main", 0);
            let mut last = None;
            for _ in 0..scratch {
                last = Some(m.fresh_reg());
            }
            if let Some(r) = last {
                m.const_int(r, 1);
            }
            m.ret(None);
            m.finish()
        };
        b.finish(main)
    }

    #[test]
    fn register_counter_overflow_is_an_error() {
        let p = method_with_registers(u32::from(u16::MAX)).expect("the last register fits");
        assert_eq!(p.method(p.entry()).num_regs(), u16::MAX);
        let err = method_with_registers(u32::from(u16::MAX) + 1).unwrap_err();
        assert_eq!(err, IrError::TooManyRegisters { method: MethodId(0) });
        assert!(err.to_string().contains("more than 65535 registers"), "{err}");
    }

    /// A method with `sites` calls of a parameterless callee.
    fn method_with_sites(sites: u32) -> Result<Program, IrError> {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("callee", 0);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            for _ in 0..sites {
                m.call_static(None, callee, &[]);
            }
            m.ret(None);
            m.finish()
        };
        b.finish(main)
    }

    #[test]
    fn site_counter_overflow_is_an_error() {
        let p = method_with_sites(u32::from(u16::MAX)).expect("the last site fits");
        let main = p.method(p.entry());
        assert_eq!(main.num_sites(), u16::MAX);
        assert_eq!(main.call_sites().last().map(|(s, _)| s), Some(SiteIdx(u16::MAX - 1)));
        let err = method_with_sites(u32::from(u16::MAX) + 1).unwrap_err();
        assert_eq!(err, IrError::TooManySites { method: MethodId(1) });
        assert!(err.to_string().contains("more than 65535 call sites"), "{err}");
    }

    /// A method whose calls pass `per_call` arguments each, `total` in all
    /// (the last call passes the remainder).
    fn method_with_call_args(per_call: usize, total: usize) -> Result<Program, IrError> {
        let mut b = ProgramBuilder::new();
        let arity = u16::try_from(per_call).unwrap();
        let callee = {
            let mut m = b.static_method("callee", arity);
            m.ret(None);
            m.finish()
        };
        let short = u16::try_from(total % per_call).unwrap();
        let rest = {
            let mut m = b.static_method("rest", short);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.const_int(r, 0);
            let args = vec![r; per_call];
            for _ in 0..total / per_call {
                m.call_static(None, callee, &args);
            }
            if short > 0 {
                m.call_static(None, rest, &args[..usize::from(short)]);
            }
            m.ret(None);
            m.finish()
        };
        b.finish(main)
    }

    #[test]
    fn argument_pool_overflow_is_an_error() {
        let (max_args, max_pool) = (ArgSpan::MAX_ARGS, ArgSpan::MAX_POOL);
        let main_of = |p: Program| p.method(p.entry()).arg_pool().len();
        // One call's arguments: 255 fit a span, 256 do not.
        assert_eq!(method_with_call_args(max_args, max_args).map(main_of), Ok(max_args));
        let err = method_with_call_args(max_args + 1, max_args + 1).unwrap_err();
        assert_eq!(err, IrError::TooManyCallArgs { method: MethodId(2) });
        // A body's pool: 65 535 registers fit, 65 536 do not.
        assert_eq!(method_with_call_args(max_args, max_pool).map(main_of), Ok(max_pool));
        let err = method_with_call_args(max_args, max_pool + 1).unwrap_err();
        assert_eq!(err, IrError::TooManyCallArgs { method: MethodId(2) });
        assert!(err.to_string().contains("255 arguments in one call or 65535 in all"), "{err}");
    }

    #[test]
    fn call_sites_number_densely() {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("callee", 0);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            let s0 = m.call_static(None, callee, &[]);
            let s1 = m.call_static(None, callee, &[]);
            m.ret(None);
            assert_eq!((s0, s1), (SiteIdx(0), SiteIdx(1)));
            m.finish()
        };
        let p = b.finish(main).unwrap();
        assert_eq!(p.method(main).num_sites(), 2);
        assert_eq!(p.method(main).site_instr_index(SiteIdx(1)), Some(1));
    }

    #[test]
    fn params_and_receiver_registers() {
        let mut b = ProgramBuilder::new();
        let sel = b.selector("f", 2);
        let a = b.class("A", None);
        {
            let mut m = b.virtual_method("A.f", a, sel);
            assert_eq!(m.receiver(), Some(Reg(0)));
            assert_eq!(m.param(0), Reg(1));
            assert_eq!(m.param(1), Reg(2));
            let r = m.fresh_reg();
            assert_eq!(r, Reg(3));
            m.ret(None);
            m.finish();
        }
        {
            let mut m = b.static_method("g", 1);
            assert_eq!(m.receiver(), None);
            assert_eq!(m.param(0), Reg(0));
            m.ret(None);
            m.finish();
        }
    }
}
