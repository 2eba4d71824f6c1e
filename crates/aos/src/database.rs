//! The AOS database: the central repository of compilation decisions and
//! events (paper Section 3.2).

use aoci_ir::{CallSiteRef, IdHashSet, MethodId};
use aoci_opt::{Compilation, InlineDecision};
use std::sync::Arc;

/// One optimizing compilation, as logged by the database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompilationRecord {
    /// The compiled method.
    pub method: MethodId,
    /// Abstract size of the generated code.
    pub generated_size: u32,
    /// Inlines performed.
    pub inlines: u32,
    /// Of which guarded.
    pub guarded: u32,
    /// Simulated-clock cycle at which the compilation was installed.
    /// The install-cycle trajectory is how fleet warmup amortization is
    /// measured: the cycle by which most of a run's optimized code was
    /// in place is its time-to-peak.
    pub cycle: u64,
}

/// What the database holds about one method, at `MethodId::index()` of
/// `AosDatabase::records`.
#[derive(Clone, Debug, Default)]
struct MethodRecord {
    /// Inlined callees in the method's current optimized version.
    inlined: IdHashSet<(CallSiteRef, MethodId)>,
    /// Of which guarded, in decision order.
    guarded: Vec<(CallSiteRef, MethodId)>,
    /// Number of optimizing compilations so far.
    recompiles: u32,
    /// The AI-organizer generation the current version was compiled at
    /// (used to detect rules that became hot afterwards).
    compiled_generation: Option<u64>,
    /// The optimized version was invalidated and not yet replaced:
    /// compiled at least once, but *not currently* optimized — the
    /// hot-methods organizer may select the method again.
    invalidated: bool,
}

/// Records compilation history: which methods are optimized, which call
/// edges each compilation inlined, and which edges the compiler *refused*
/// to inline.
///
/// The refusal records are its paper-described use: "to avoid recommending
/// a method for recompilation due to a hot call edge that the optimizing
/// compiler has already refused to inline". Beside them it keeps the
/// speculations that failed at run time: the *thrashed* set, which every
/// later compilation's oracle excludes.
#[derive(Clone, Debug, Default)]
pub struct AosDatabase {
    /// Hot refusals: edges the compiler declined while they were hot.
    refused: IdHashSet<(CallSiteRef, MethodId)>,
    /// Guarded inlines of versions invalidated for guard thrash,
    /// as `(site, callee)` at the site at the head of each decision's
    /// context: one set for the run, whatever the host (like a per-call-site
    /// trap history). Shared with the oracle of each compilation.
    thrashed: Arc<IdHashSet<(CallSiteRef, MethodId)>>,
    /// Per-method state, grown on demand: a method past the end has the
    /// default record (never compiled, never invalidated).
    records: Vec<MethodRecord>,
    /// All inline decisions ever made (analysis / reporting).
    decision_log: Vec<(MethodId, InlineDecision)>,
    /// Every optimizing compilation, in order.
    compilation_log: Vec<CompilationRecord>,
    /// `(host, site, callee)` triples a compilation of `host` failed to
    /// realise: the rule was hot and applicable, but the compiled code did
    /// not end up inlining the callee (e.g. the intermediate chain did not
    /// inline, or the context intersection blocked it). The missing-edge
    /// organizer skips these to avoid recompilation churn.
    unrealized: IdHashSet<(MethodId, CallSiteRef, MethodId)>,
}

impl AosDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, method: MethodId) -> Option<&MethodRecord> {
        self.records.get(method.index())
    }

    fn record_mut(&mut self, method: MethodId) -> &mut MethodRecord {
        if self.records.len() <= method.index() {
            self.records.resize_with(method.index() + 1, MethodRecord::default);
        }
        &mut self.records[method.index()]
    }

    /// Records the outcome of an optimizing compilation of `method`
    /// performed at the given AI-organizer generation and installed at the
    /// given simulated-clock cycle.
    pub(crate) fn record_compilation(
        &mut self,
        method: MethodId,
        compilation: &Compilation,
        ai_generation: u64,
        cycle: u64,
    ) {
        self.compilation_log.push(CompilationRecord {
            method,
            generated_size: compilation.generated_size,
            inlines: compilation.decisions.len() as u32,
            guarded: compilation.guarded_count() as u32,
            cycle,
        });
        let record = self.record_mut(method);
        record.recompiles += 1;
        record.invalidated = false;
        record.compiled_generation = Some(ai_generation);
        record.inlined.clear();
        record.guarded.clear();
        for d in &compilation.decisions {
            // The emitter always seeds a decision's context with its own
            // call site, but the database must not trust that invariant: a
            // malformed record (e.g. a compiler bug or a hand-built
            // compilation) is skipped, not a panic that takes the run down.
            let Some(&site) = d.context.first() else { continue };
            let record = &mut self.records[method.index()];
            record.inlined.insert((site, d.callee));
            if d.guarded {
                record.guarded.push((site, d.callee));
            }
            self.decision_log.push((method, d.clone()));
        }
        for r in compilation.refusals.iter().filter(|r| r.hot) {
            self.refused.insert((r.site, r.callee));
        }
    }

    /// Returns `true` if the compiler has refused `site ⇒ callee` while hot.
    pub fn was_refused(&self, site: CallSiteRef, callee: MethodId) -> bool {
        self.refused.contains(&(site, callee))
    }

    /// Returns `true` if `method`'s current optimized version inlines
    /// `callee` at `site`.
    pub fn has_inlined(&self, method: MethodId, site: CallSiteRef, callee: MethodId) -> bool {
        self.record(method).is_some_and(|r| r.inlined.contains(&(site, callee)))
    }

    /// Returns `true` if `method`'s current optimized version inlines
    /// `callee` at any site.
    pub fn inlines_method(&self, method: MethodId, callee: MethodId) -> bool {
        self.record(method).is_some_and(|r| r.inlined.iter().any(|&(_, c)| c == callee))
    }

    /// The AI-organizer generation `method` was last compiled at, if it has
    /// been optimize-compiled.
    pub fn compiled_generation(&self, method: MethodId) -> Option<u64> {
        self.record(method).and_then(|r| r.compiled_generation)
    }

    /// Number of optimizing compilations of `method`.
    pub fn recompiles(&self, method: MethodId) -> u32 {
        self.record(method).map_or(0, |r| r.recompiles)
    }

    /// Returns `true` if `method` *currently* holds an optimized version:
    /// compiled at least once and not since invalidated.
    pub fn is_optimized(&self, method: MethodId) -> bool {
        self.record(method).is_some_and(|r| r.recompiles > 0 && !r.invalidated)
    }

    /// Returns `true` if `method`'s current optimized version holds at
    /// least one guarded inline: the only code whose guards can thrash. An
    /// invalidated version holds none.
    pub(crate) fn is_guarded(&self, method: MethodId) -> bool {
        self.record(method).is_some_and(|r| !r.guarded.is_empty())
    }

    /// Methods whose current optimized version holds a guarded inline, in
    /// index order.
    pub(crate) fn guarded_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.records.len()).map(MethodId::from_index).filter(|&m| self.is_guarded(m))
    }

    /// Records that `method`'s optimized version was invalidated (guard
    /// thrash): its inline set is cleared and it is no longer *currently*
    /// optimized, so the hot-methods organizer may select it for a fresh
    /// compilation; its cumulative compilation history is preserved. Its
    /// guarded inlines join the thrashed set.
    pub(crate) fn record_invalidation(&mut self, method: MethodId) {
        let record = self.record_mut(method);
        record.inlined.clear();
        record.invalidated = true;
        let guarded = std::mem::take(&mut record.guarded);
        if !guarded.is_empty() {
            Arc::make_mut(&mut self.thrashed).extend(guarded);
        }
    }

    /// The thrashed `(site, callee)` pairs: guarded inlines of versions
    /// invalidated for guard thrash — whether the receivers shifted or a
    /// receiver burst forced the misses — which no later compilation
    /// speculates on again.
    pub(crate) fn thrashed(&self) -> &Arc<IdHashSet<(CallSiteRef, MethodId)>> {
        &self.thrashed
    }

    /// Full decision log, in compilation order.
    pub fn decision_log(&self) -> &[(MethodId, InlineDecision)] {
        &self.decision_log
    }

    /// Every optimizing compilation performed, in order.
    pub fn compilation_log(&self) -> &[CompilationRecord] {
        &self.compilation_log
    }

    /// Marks that compiling `host` did not realise inlining `callee` at
    /// `site` even though a hot rule suggested it.
    pub(crate) fn mark_unrealized(&mut self, host: MethodId, site: CallSiteRef, callee: MethodId) {
        self.unrealized.insert((host, site, callee));
    }

    /// Returns `true` if a previous compilation of `host` failed to realise
    /// this inline.
    pub fn is_unrealized(&self, host: MethodId, site: CallSiteRef, callee: MethodId) -> bool {
        self.unrealized.contains(&(host, site, callee))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_opt::RefusalReason;
    use aoci_ir::SiteIdx;
    use aoci_opt::Refusal;
    use aoci_vm::{InlineMap, MethodVersion, OptLevel};

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    fn cs(m: usize, s: u16) -> CallSiteRef {
        CallSiteRef::new(mid(m), SiteIdx(s))
    }

    fn compilation(decisions: Vec<InlineDecision>, refusals: Vec<Refusal>) -> Compilation {
        Compilation {
            version: MethodVersion {
                method: mid(0),
                level: OptLevel::Optimized,
                body: vec![],
                arg_pool: Vec::new().into(),
                num_regs: 0,
                inline_map: InlineMap::baseline(mid(0), 0),
                code_size: 0,
                version_id: aoci_vm::VersionId::default(),
                osr_map: aoci_vm::OsrMap::empty(),
            },
            decisions,
            refusals,
            generated_size: 0,
        }
    }

    #[test]
    fn records_inlines_and_refusals() {
        let mut db = AosDatabase::new();
        let c = compilation(
            vec![InlineDecision {
                context: vec![cs(0, 0)],
                callee: mid(1),
                guarded: false,
                provenance: Default::default(),
            }],
            vec![
                Refusal {
                    site: cs(0, 1),
                    callee: mid(2),
                    reason: RefusalReason::TooLarge,
                    hot: true,
                    provenance: Default::default(),
                },
                Refusal {
                    site: cs(0, 2),
                    callee: mid(3),
                    reason: RefusalReason::NotHot,
                    hot: false,
                    provenance: Default::default(),
                },
            ],
        );
        db.record_compilation(mid(0), &c, 42, 7_000);
        assert!(db.is_optimized(mid(0)));
        assert_eq!(db.compiled_generation(mid(0)), Some(42));
        assert!(db.has_inlined(mid(0), cs(0, 0), mid(1)));
        assert!(!db.has_inlined(mid(0), cs(0, 0), mid(2)));
        // Only the hot refusal gates the missing-edge organizer.
        assert!(db.was_refused(cs(0, 1), mid(2)));
        assert!(!db.was_refused(cs(0, 2), mid(3)));
        assert_eq!(db.recompiles(mid(0)), 1);
        assert_eq!(db.decision_log().len(), 1);
        assert_eq!(db.compilation_log()[0].cycle, 7_000);
    }

    #[test]
    fn empty_context_decision_is_skipped_not_a_panic() {
        let mut db = AosDatabase::new();
        let c = compilation(
            vec![
                InlineDecision {
                    context: vec![], // malformed: no call site at all
                    callee: mid(1),
                    guarded: false,
                    provenance: Default::default(),
                },
                InlineDecision {
                    context: vec![cs(0, 0)],
                    callee: mid(2),
                    guarded: false,
                    provenance: Default::default(),
                },
            ],
            vec![],
        );
        db.record_compilation(mid(0), &c, 1, 100);
        // The malformed record is dropped; the well-formed one is kept and
        // the compilation itself is still logged.
        assert!(db.is_optimized(mid(0)));
        assert!(!db.inlines_method(mid(0), mid(1)));
        assert!(db.has_inlined(mid(0), cs(0, 0), mid(2)));
        assert_eq!(db.decision_log().len(), 1);
        assert_eq!(db.compilation_log().len(), 1);
    }

    #[test]
    fn invalidation_revokes_current_status_but_keeps_history() {
        let mut db = AosDatabase::new();
        db.record_compilation(
            mid(0),
            &compilation(
                vec![InlineDecision {
                    context: vec![cs(0, 0)],
                    callee: mid(1),
                    guarded: true,
                    provenance: Default::default(),
                }],
                vec![],
            ),
            1,
            250,
        );
        assert!(db.is_optimized(mid(0)));
        assert_eq!(db.guarded_methods().collect::<Vec<_>>(), [mid(0)]);
        db.record_invalidation(mid(0));
        assert!(!db.is_optimized(mid(0)), "invalidated ⇒ not currently optimized");
        assert!(!db.has_inlined(mid(0), cs(0, 0), mid(1)), "inline set cleared");
        assert_eq!(db.recompiles(mid(0)), 1, "compile history survives");
        assert_eq!(db.guarded_methods().count(), 0);
        // A fresh compilation restores currently-optimized status; with no
        // guarded inline, the version has no guard to judge.
        db.record_compilation(mid(0), &compilation(vec![], vec![]), 2, 900);
        assert!(db.is_optimized(mid(0)));
        assert!(!db.is_guarded(mid(0)));
        assert_eq!(db.guarded_methods().count(), 0);
    }

    #[test]
    fn a_thrash_records_the_guarded_inlines_only() {
        let mut db = AosDatabase::new();
        let decision = |site, callee, guarded| InlineDecision {
            context: vec![site, cs(0, 9)],
            callee: mid(callee),
            guarded,
            provenance: Default::default(),
        };
        let c = compilation(
            vec![decision(cs(2, 0), 1, true), decision(cs(2, 1), 3, false)],
            vec![],
        );
        db.record_compilation(mid(0), &c, 1, 100);
        db.record_invalidation(mid(0));
        assert_eq!(db.thrashed().iter().copied().collect::<Vec<_>>(), [(cs(2, 0), mid(1))]);
        // An invalidation without a fresh version adds nothing.
        db.record_invalidation(mid(0));
        assert_eq!(db.thrashed().len(), 1);
    }

    #[test]
    fn recompilation_replaces_inline_set() {
        let mut db = AosDatabase::new();
        db.record_compilation(
            mid(0),
            &compilation(
                vec![InlineDecision {
                context: vec![cs(0, 0)],
                callee: mid(1),
                guarded: false,
                provenance: Default::default(),
            }],
                vec![],
            ),
            1,
            300,
        );
        db.record_compilation(
            mid(0),
            &compilation(
                vec![InlineDecision {
                    context: vec![cs(0, 1)],
                    callee: mid(2),
                    guarded: true,
                    provenance: Default::default(),
                }],
                vec![],
            ),
            2,
            600,
        );
        assert_eq!(db.compiled_generation(mid(0)), Some(2));
        assert_eq!(db.recompiles(mid(0)), 2);
        // The first version's inline is no longer "current".
        assert!(!db.has_inlined(mid(0), cs(0, 0), mid(1)));
        assert!(db.has_inlined(mid(0), cs(0, 1), mid(2)));
    }
}
