//! Dispatch-table equivalence: `Program::lookup_virtual` indexes a
//! per-class row of a table that `ProgramBuilder::finish` fills parent-first
//! by copy-and-override. Its specification is the superclass walk it
//! replaced — nearest `declared_impl` up the chain, `None` when the chain
//! ends — and this suite checks the table against that walk for **every**
//! (class, selector) pair, implemented or not, of every suite program and
//! of the first 60 programs of fuzz campaign 1 (the population
//! `results/fuzz/corpus.json` and the benchmark's `control_dense` start
//! from).

use aoci_ir::{ClassId, MethodId, Program, SelectorId};

/// The reference: walk up from `class` to the nearest class declaring
/// `selector`.
fn superclass_walk(p: &Program, class: ClassId, selector: SelectorId) -> Option<MethodId> {
    let mut cur = Some(class);
    while let Some(c) = cur {
        if let Some(m) = p.class(c).declared_impl(selector) {
            return Some(m);
        }
        cur = p.class(c).superclass();
    }
    None
}

/// Checks every pair of `p`; returns how many resolve to a method and how
/// many to `None`.
fn assert_table_matches_walk(p: &Program, what: &str) -> (usize, usize) {
    let (mut hits, mut misses) = (0, 0);
    for c in (0..p.num_classes()).map(ClassId::from_index) {
        for s in (0..p.num_selectors()).map(SelectorId::from_index) {
            let got = p.lookup_virtual(c, s);
            assert_eq!(
                got,
                superclass_walk(p, c, s),
                "{what}: {} ({c}) x {} ({s})",
                p.class(c).name(),
                p.selector(s).name(),
            );
            match got {
                Some(_) => hits += 1,
                None => misses += 1,
            }
        }
    }
    (hits, misses)
}

#[test]
fn suite_programs_dispatch_table_equals_superclass_walk() {
    for spec in aoci_workloads::suite() {
        let w = aoci_workloads::build(&spec);
        let (hits, misses) = assert_table_matches_walk(&w.program, &w.name);
        // Both outcomes must be exercised, or the comparison proves little:
        // every suite program has inherited hits and unrelated-family misses.
        assert!(hits > 0 && misses > 0, "{}: {hits} hits, {misses} misses", w.name);
    }
}

#[test]
fn fuzz_programs_dispatch_table_equals_superclass_walk() {
    let (mut hits, mut misses) = (0, 0);
    for i in 0..60 {
        let spec = aoci_fuzz::sample_spec(1, i);
        let fp = aoci_workloads::build_fuzz(&spec).expect("campaign 1 specs build");
        let (h, m) = assert_table_matches_walk(&fp.program, &fp.name);
        hits += h;
        misses += m;
    }
    assert!(hits > 0 && misses > 0, "campaign 1: {hits} hits, {misses} misses");
}
