//! Compiled method versions and inline maps.
//!
//! A [`MethodVersion`] is what the VM executes: either the baseline
//! translation of a method (its body as written) or optimized code produced
//! by the inlining compiler. Optimized code carries an [`InlineMap`] that
//! records, per instruction, which source method the instruction came from
//! and through which chain of call sites it was inlined — exactly the
//! machinery Jikes RVM uses to "recover the source level view of optimized
//! stack frames" (paper Section 3.3), which the trace listener depends on to
//! avoid recording misleading samples like `A ⇒ C` when profile data exists
//! for `A ⇒ B ⇒ C`.

use crate::osr::OsrMap;
use crate::registry::VersionId;
use aoci_ir::{Instr, MethodId, Reg, SiteIdx};
use std::sync::Arc;

/// Compilation level of a method version.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OptLevel {
    /// Produced by the non-optimizing baseline compiler (first invocation).
    Baseline,
    /// Produced by the optimizing compiler (inlined, simplified).
    Optimized,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::Baseline => f.write_str("baseline"),
            OptLevel::Optimized => f.write_str("optimized"),
        }
    }
}

/// One node of an inline tree: a method body copy within compiled code.
#[derive(Clone, Debug)]
pub struct InlineNode {
    /// The source method this node's instructions come from.
    pub method: MethodId,
    /// The parent node and the call site *in the parent's method* through
    /// which this body was inlined; `None` for the root node.
    pub parent: Option<(u32, SiteIdx)>,
    /// Instruction index where this body copy begins (used to detect
    /// prologue samples within inlined bodies).
    pub body_start: u32,
}

/// Maps each instruction of compiled code to its inline-tree node.
#[derive(Clone, Debug)]
pub struct InlineMap {
    nodes: Vec<InlineNode>,
    instr_node: Vec<u32>,
}

impl InlineMap {
    /// Creates the trivial map for baseline code: every instruction belongs
    /// to the root method.
    pub fn baseline(method: MethodId, len: usize) -> Self {
        InlineMap {
            nodes: vec![InlineNode { method, parent: None, body_start: 0 }],
            instr_node: vec![0; len],
        }
    }

    /// Assembles a map from an explicit node table and per-instruction node
    /// assignment (the optimizing compiler's construction path; lets the
    /// simplifier rewrite both before assembly).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, node 0 has a parent, or `instr_node`
    /// references a missing node.
    pub fn from_parts(nodes: Vec<InlineNode>, instr_node: Vec<u32>) -> Self {
        assert!(!nodes.is_empty(), "an inline map needs a root node");
        assert!(nodes[0].parent.is_none(), "node 0 must be the root");
        assert!(
            instr_node.iter().all(|&n| (n as usize) < nodes.len()),
            "instruction references a missing inline node"
        );
        InlineMap { nodes, instr_node }
    }

    /// Returns the node for instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range for the code this map describes.
    pub fn node_at(&self, pc: usize) -> &InlineNode {
        &self.nodes[self.instr_node[pc] as usize]
    }

    /// Returns node `id`.
    pub fn node(&self, id: u32) -> &InlineNode {
        &self.nodes[id as usize]
    }

    /// Returns the number of inline-tree nodes (1 for baseline code).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Walks the inline chain at `pc` from innermost source method outward,
    /// yielding `(method, Option<(parent_method_call_site)>)` pairs: each
    /// element is a source-level frame, with the call site in the *next*
    /// (outer) frame's method through which it was entered, or `None` for
    /// the root, which is the last element.
    pub fn source_chain(&self, pc: usize) -> impl Iterator<Item = (MethodId, Option<SiteIdx>)> + '_ {
        let mut next = Some(self.instr_node[pc]);
        std::iter::from_fn(move || {
            let n = &self.nodes[next? as usize];
            next = n.parent.map(|(parent, _)| parent);
            Some((n.method, n.parent.map(|(_, site)| site)))
        })
    }

    /// Returns `true` if `pc` lies within the first `window` instructions of
    /// its source-level body copy — the condition under which a sample
    /// counts as a *prologue* sample and the edge/trace listeners record it.
    pub fn in_prologue(&self, pc: usize, window: u32) -> bool {
        let n = self.node_at(pc);
        (pc as u32).saturating_sub(n.body_start) < window
    }
}

/// Incremental construction of optimized code plus its [`InlineMap`]
/// (used by the optimizing compiler).
#[derive(Debug)]
pub struct InlineMapBuilder {
    nodes: Vec<InlineNode>,
    instr_node: Vec<u32>,
}

impl InlineMapBuilder {
    /// Starts a map whose root is `method`.
    pub fn new(method: MethodId) -> Self {
        InlineMapBuilder {
            nodes: vec![InlineNode { method, parent: None, body_start: 0 }],
            instr_node: Vec::new(),
        }
    }

    /// Returns the root node id (always 0).
    pub fn root(&self) -> u32 {
        0
    }

    /// Adds an inline node for `method`, inlined into `parent` at `site`.
    /// `body_start` should be the index the body copy's first instruction
    /// will have.
    pub fn add_node(&mut self, parent: u32, site: SiteIdx, method: MethodId, body_start: u32) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(InlineNode { method, parent: Some((parent, site)), body_start });
        id
    }

    /// Records that the next emitted instruction belongs to `node`.
    pub fn push_instr(&mut self, node: u32) {
        self.instr_node.push(node);
    }

    /// Number of instructions recorded so far.
    pub fn len(&self) -> usize {
        self.instr_node.len()
    }

    /// Returns `true` if no instructions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.instr_node.is_empty()
    }

    /// Finalises the map. The caller must have recorded exactly one node per
    /// instruction of the finished body.
    pub fn finish(self) -> InlineMap {
        InlineMap { nodes: self.nodes, instr_node: self.instr_node }
    }
}

/// A compiled version of a method: executable body, inline map, size and
/// provenance.
#[derive(Clone, Debug)]
pub struct MethodVersion {
    /// The source method this version compiles.
    pub method: MethodId,
    /// Compilation level.
    pub level: OptLevel,
    /// Executable instruction sequence.
    pub body: Vec<Instr>,
    /// The argument pool of `body`: the registers its calls'
    /// [`ArgSpan`](aoci_ir::ArgSpan)s name. Shared with the decoded body.
    pub arg_pool: Arc<[Reg]>,
    /// Registers required to execute `body`.
    pub num_regs: u16,
    /// Inline map for source-level stack recovery.
    pub inline_map: InlineMap,
    /// Abstract machine-code size of this version (the quantity Figure 5
    /// aggregates for optimized versions).
    pub code_size: u32,
    /// Typed identity assigned at install time, distinguishing
    /// recompilations (see [`VersionId`]).
    pub version_id: VersionId,
    /// OSR anchors: per surviving root loop header, its pc in the baseline
    /// body and in this one. Empty for baseline code and for optimized code
    /// without root loops.
    pub osr_map: OsrMap,
}

impl MethodVersion {
    /// Builds the baseline version of a method from its source definition:
    /// a copy of its instructions and of its argument pool, one allocation
    /// each however many calls the body makes.
    pub fn baseline(def: &aoci_ir::MethodDef) -> Self {
        MethodVersion {
            method: def.id(),
            level: OptLevel::Baseline,
            body: def.body().to_vec(),
            arg_pool: Arc::from(def.arg_pool()),
            num_regs: def.num_regs(),
            inline_map: InlineMap::baseline(def.id(), def.body().len()),
            code_size: def.size_estimate(),
            version_id: VersionId::default(),
            osr_map: OsrMap::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    #[test]
    fn baseline_map_is_trivial() {
        let m = InlineMap::baseline(mid(3), 4);
        assert_eq!(m.num_nodes(), 1);
        assert_eq!(m.source_chain(2).collect::<Vec<_>>(), vec![(mid(3), None)]);
        assert!(m.in_prologue(1, 2));
        assert!(!m.in_prologue(2, 2));
    }

    #[test]
    fn builder_produces_nested_chains() {
        // Layout: [root x2][B inlined at site 1 of root, x2][root x1]
        let mut b = InlineMapBuilder::new(mid(0));
        b.push_instr(b.root());
        b.push_instr(b.root());
        let nb = b.add_node(b.root(), SiteIdx(1), mid(5), 2);
        b.push_instr(nb);
        b.push_instr(nb);
        b.push_instr(b.root());
        let map = b.finish();
        assert_eq!(map.source_chain(0).collect::<Vec<_>>(), vec![(mid(0), None)]);
        assert_eq!(
            map.source_chain(3).collect::<Vec<_>>(),
            vec![(mid(5), Some(SiteIdx(1))), (mid(0), None)]
        );
        // Prologue of the inlined body starts at its body_start.
        assert!(map.in_prologue(2, 1));
        assert!(!map.in_prologue(3, 1));
    }

    #[test]
    fn deep_nesting_walks_to_root() {
        let mut b = InlineMapBuilder::new(mid(0));
        let n1 = b.add_node(b.root(), SiteIdx(0), mid(1), 0);
        let n2 = b.add_node(n1, SiteIdx(2), mid(2), 0);
        b.push_instr(n2);
        let map = b.finish();
        let chain: Vec<_> = map.source_chain(0).collect();
        assert_eq!(
            chain,
            vec![
                (mid(2), Some(SiteIdx(2))),
                (mid(1), Some(SiteIdx(0))),
                (mid(0), None)
            ]
        );
    }
}
