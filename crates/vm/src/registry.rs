//! The compiled-code registry: current version of every method, plus the
//! code-space accounting behind the paper's Figure 5. Versions are named by
//! a typed [`VersionId`]; one installed version per method serves every
//! caller.

use crate::code::{MethodVersion, OptLevel};
use crate::cost::CostModel;
use crate::interp::decode::DecodedBody;
use aoci_ir::{MethodId, Program};
use std::sync::{Arc, OnceLock};

/// Typed identity of an installed [`MethodVersion`] — a monotone install
/// counter, unique across the registry's lifetime (the raw value is
/// reachable via [`VersionId::raw`] for serialization and trace events).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(u32);

impl VersionId {
    /// The raw install counter (for trace events and serialization).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs an id from its raw value (deserialization only; the
    /// registry is the sole allocator of *new* ids).
    pub fn from_raw(raw: u32) -> Self {
        VersionId(raw)
    }
}

impl std::fmt::Display for VersionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Names one entry of the registry's code arena: what a frame holds of its
/// code. Private to the crate — [`VersionId`] stays the public identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CodeSlot(u32);

/// An arena entry: a version and, beside it, the pre-decoded form of its
/// body (DESIGN.md §13), built when the slot is first executed and reachable
/// only through the slot, so it cannot be stale.
#[derive(Clone, Debug)]
struct Code {
    version: Arc<MethodVersion>,
    decoded: OnceLock<DecodedBody>,
}

/// Owns every [`MethodVersion`] it installs, tracks the current one for each
/// method and aggregates code-space statistics.
///
/// Installation follows the Jikes model: a newly compiled version takes
/// effect at the *next invocation* of the method; activations already on the
/// stack keep running their old version (code lives as long as the registry;
/// a frame names the arena slot it started in), an
/// [invalidated](CodeRegistry::invalidate) one included. The one exception
/// runs the other way: with [`VmConfig::osr_enabled`](crate::VmConfig) a hot
/// baseline activation can be promoted into a freshly installed version
/// mid-loop (OSR-in).
#[derive(Clone, Debug, Default)]
pub struct CodeRegistry {
    /// Every version installed, in that order. Append-only: a [`CodeSlot`]
    /// handed out stays valid for the life of the registry.
    arena: Vec<Code>,
    current: Vec<Option<CodeSlot>>,
    next_version_id: u32,
    /// Total abstract size of all *optimized* code ever generated
    /// (recompilations accumulate — each compilation emitted real machine
    /// code in the paper's measurement).
    cumulative_optimized_size: u64,
    /// Total abstract size of the currently-installed optimized versions.
    current_optimized_size: u64,
    /// Number of optimizing compilations performed.
    opt_compilations: u32,
    /// Number of baseline compilations performed.
    baseline_compilations: u32,
    /// Number of optimized versions invalidated (guard-thrash recovery).
    invalidations: u32,
}

impl CodeRegistry {
    /// Creates a registry for a program with `num_methods` methods.
    pub(crate) fn new(num_methods: usize) -> Self {
        CodeRegistry { current: vec![None; num_methods], ..Self::default() }
    }

    /// Returns the currently-installed version of `method`, if any.
    pub fn current(&self, method: MethodId) -> Option<&Arc<MethodVersion>> {
        self.current[method.index()].map(|slot| self.version(slot))
    }

    /// The arena slot of `method`'s current version: one indexed load.
    #[inline]
    pub(crate) fn current_slot(&self, method: MethodId) -> Option<CodeSlot> {
        self.current[method.index()]
    }

    /// The version in `slot`.
    #[inline]
    pub(crate) fn version(&self, slot: CodeSlot) -> &Arc<MethodVersion> {
        &self.arena[slot.0 as usize].version
    }

    /// The pre-decoded body of the version in `slot`, built on first use.
    /// `program` and `cost` are those of the one `Vm` this registry sits in.
    #[inline]
    pub(crate) fn body(&self, slot: CodeSlot, program: &Program, cost: &CostModel) -> &DecodedBody {
        let code = &self.arena[slot.0 as usize];
        code.decoded.get_or_init(|| DecodedBody::build(&code.version, program, cost))
    }

    /// How many versions the arena holds: every install.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Installs `version` as the current code for its method, assigning it a
    /// fresh [`VersionId`]; the version it replaces leaves the
    /// [resident size](CodeRegistry::current_optimized_size). Returns the
    /// installed `Arc`.
    pub fn install(&mut self, mut version: MethodVersion) -> Arc<MethodVersion> {
        version.version_id = VersionId(self.next_version_id);
        self.next_version_id += 1;
        match version.level {
            OptLevel::Optimized => {
                self.cumulative_optimized_size += version.code_size as u64;
                self.current_optimized_size += version.code_size as u64;
                self.opt_compilations += 1;
            }
            OptLevel::Baseline => {
                self.baseline_compilations += 1;
            }
        }
        let midx = version.method.index();
        if let Some(old) = self.current[midx].take() {
            let old = self.version(old);
            if old.level == OptLevel::Optimized {
                self.current_optimized_size -= u64::from(old.code_size);
            }
        }
        let slot = CodeSlot(u32::try_from(self.arena.len()).expect("under 2^32 versions"));
        self.arena.push(Code { version: Arc::new(version), decoded: OnceLock::new() });
        self.current[midx] = Some(slot);
        Arc::clone(self.version(slot))
    }

    /// Invalidates the current *optimized* version of `method`: the slot is
    /// cleared, so the method falls back to (re-)baseline compilation at its
    /// next invocation — the graceful-degradation path for guard-thrashing
    /// code. Activations already on the stack keep their arena slot and
    /// finish on the invalidated code: its guards fall back to virtual
    /// dispatch, which is correct, only slower. Returns `false` (and does
    /// nothing) when the method has no optimized version installed.
    pub fn invalidate(&mut self, method: MethodId) -> bool {
        match self.current(method) {
            Some(v) if v.level == OptLevel::Optimized => {
                self.current_optimized_size -= v.code_size as u64;
                self.invalidations += 1;
                self.current[method.index()] = None;
                true
            }
            _ => false,
        }
    }

    /// Number of optimized versions invalidated.
    pub fn invalidations(&self) -> u32 {
        self.invalidations
    }

    /// Total abstract size of all optimized code ever generated. This is the
    /// Figure 5 metric ("bytes of optimized machine code").
    pub fn cumulative_optimized_size(&self) -> u64 {
        self.cumulative_optimized_size
    }

    /// Total abstract size of the optimized versions currently installed.
    pub fn current_optimized_size(&self) -> u64 {
        self.current_optimized_size
    }

    /// Number of optimizing compilations performed.
    pub fn opt_compilations(&self) -> u32 {
        self.opt_compilations
    }

    /// Number of baseline compilations performed (= dynamically compiled
    /// methods; the "Methods" column of Table 1).
    pub fn baseline_compilations(&self) -> u32 {
        self.baseline_compilations
    }

    /// Iterates over currently-installed optimized versions.
    pub fn optimized_versions(&self) -> impl Iterator<Item = &Arc<MethodVersion>> {
        self.current
            .iter()
            .flatten()
            .map(|&slot| self.version(slot))
            .filter(|v| v.level == OptLevel::Optimized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::InlineMap;

    fn version(method: usize, level: OptLevel, size: u32) -> MethodVersion {
        let m = MethodId::from_index(method);
        MethodVersion {
            method: m,
            level,
            body: vec![],
            arg_pool: Vec::new().into(),
            num_regs: 0,
            inline_map: InlineMap::baseline(m, 0),
            code_size: size,
            version_id: VersionId::default(),
            osr_map: crate::OsrMap::empty(),
        }
    }

    #[test]
    fn install_and_lookup() {
        let mut r = CodeRegistry::new(2);
        assert!(r.current(MethodId::from_index(0)).is_none());
        r.install(version(0, OptLevel::Baseline, 10));
        assert!(r.current(MethodId::from_index(0)).is_some());
        assert_eq!(r.baseline_compilations(), 1);
        assert_eq!(r.cumulative_optimized_size(), 0);
    }

    #[test]
    fn optimized_size_accounting() {
        let mut r = CodeRegistry::new(1);
        r.install(version(0, OptLevel::Baseline, 10));
        r.install(version(0, OptLevel::Optimized, 100));
        assert_eq!(r.cumulative_optimized_size(), 100);
        assert_eq!(r.current_optimized_size(), 100);
        // Recompilation replaces current but accumulates cumulative.
        r.install(version(0, OptLevel::Optimized, 80));
        assert_eq!(r.cumulative_optimized_size(), 180);
        assert_eq!(r.current_optimized_size(), 80);
        assert_eq!(r.opt_compilations(), 2);
    }

    #[test]
    fn invalidation_clears_slot_and_accounting() {
        let mut r = CodeRegistry::new(2);
        let m0 = MethodId::from_index(0);
        r.install(version(0, OptLevel::Optimized, 100));
        assert_eq!(r.current_optimized_size(), 100);
        assert!(r.invalidate(m0));
        assert!(r.current(m0).is_none(), "slot cleared → baseline at next invocation");
        assert_eq!(r.current_optimized_size(), 0);
        // Cumulative size is history, not residency: it stays.
        assert_eq!(r.cumulative_optimized_size(), 100);
        assert_eq!(r.invalidations(), 1);
        // Baseline code and empty slots are not invalidatable.
        assert!(!r.invalidate(m0));
        r.install(version(1, OptLevel::Baseline, 10));
        assert!(!r.invalidate(MethodId::from_index(1)));
        assert_eq!(r.invalidations(), 1);
    }

    #[test]
    fn version_ids_are_unique_and_increasing() {
        let mut r = CodeRegistry::new(1);
        let a = r.install(version(0, OptLevel::Baseline, 1));
        let b = r.install(version(0, OptLevel::Optimized, 1));
        assert!(b.version_id > a.version_id);
        assert_eq!(VersionId::from_raw(a.version_id.raw()), a.version_id);
    }

    #[test]
    fn old_versions_survive_via_arc() {
        let mut r = CodeRegistry::new(1);
        let old = r.install(version(0, OptLevel::Baseline, 1));
        r.install(version(0, OptLevel::Optimized, 5));
        // A frame holding `old` can still execute it.
        assert_eq!(old.level, OptLevel::Baseline);
        assert_eq!(
            r.current(MethodId::from_index(0)).unwrap().level,
            OptLevel::Optimized
        );
    }
}
