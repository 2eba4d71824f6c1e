//! The compiled-code registry: current version of every method, plus the
//! code-space accounting behind the paper's Figure 5.
//!
//! Since the deoptless redesign (DESIGN.md §16) the registry's public
//! surface is *typed*: versions are named by [`VersionId`] (not raw
//! `u32`s) and optimized versions are keyed by [`VersionKey`] — the
//! method plus a [`ContextFingerprint`] of the calling context the
//! version was specialized for. With version retention (on exactly when
//! the VM runs with [`VmConfig::deoptless`](crate::VmConfig)), superseded
//! context-specialized versions *survive* installation of a successor
//! under a different key, and `best_surviving` answers the dispatched-OSR
//! compatibility query: "which installed or surviving version matches this
//! context fingerprint and is still valid?".

use crate::code::{MethodVersion, OptLevel};
use crate::cost::CostModel;
use crate::interp::decode::DecodedBody;
use aoci_ir::{CallSiteRef, MethodId, Program};
use std::sync::{Arc, OnceLock};

/// Typed identity of an installed [`MethodVersion`] — a monotone install
/// counter, unique across the registry's lifetime. Replaces the raw
/// `u32` version ids of the pre-deoptless API (raw values remain
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

/// Deterministic 64-bit fingerprint of a calling context — an
/// innermost-first chain of [`CallSiteRef`]s, the same shape the
/// context-sensitive profile keys carry. FNV-1a over the (method, site)
/// index pairs: a pure function of the chain, so two runs observing the
/// same context always derive the same fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextFingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl ContextFingerprint {
    /// The fingerprint of the empty context — the key every
    /// context-insensitive (plain [`CodeRegistry::install`]) version
    /// carries. Equal to `ContextFingerprint::of(&[])`.
    pub const ROOT: ContextFingerprint = ContextFingerprint(FNV_OFFSET);

    /// Fingerprints `chain` (innermost caller first, like
    /// profile-key contexts).
    pub fn of(chain: &[CallSiteRef]) -> Self {
        let mut h = FNV_OFFSET;
        for c in chain {
            for word in [c.method.index() as u64, c.site.index() as u64] {
                h ^= word;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        ContextFingerprint(h)
    }

    /// The raw 64-bit hash value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A typed key naming one context-specialized code version: the compiled
/// method plus the fingerprint of the calling context it was specialized
/// for. The unit of the registry's compatibility queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VersionKey {
    /// The compiled method.
    pub method: MethodId,
    /// Fingerprint of the calling context the version is specialized for.
    pub context_fingerprint: ContextFingerprint,
}

impl VersionKey {
    /// Creates a key.
    pub fn new(method: MethodId, context_fingerprint: ContextFingerprint) -> Self {
        VersionKey { method, context_fingerprint }
    }

    /// The context-insensitive key of `method` (empty-context fingerprint).
    pub fn root(method: MethodId) -> Self {
        VersionKey { method, context_fingerprint: ContextFingerprint::ROOT }
    }
}

/// Surviving context-specialized versions a method may keep resident, per
/// method, beyond the currently-installed one. Small and fixed: the
/// dispatched-OSR lookup scans it linearly, and eviction (oldest first)
/// keeps resident code-space bounded and deterministic.
const MAX_SURVIVORS_PER_METHOD: usize = 4;

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
/// a frame names the arena slot it started in) — unless OSR transfers them. With
/// [`VmConfig::osr_enabled`](crate::VmConfig) a hot baseline activation can
/// be promoted into a freshly installed version mid-loop (OSR-in), and an
/// activation stuck on an [invalidated](CodeRegistry::invalidate) version
/// deoptimizes back to baseline at its next loop header (OSR-out) — or,
/// with [`VmConfig::deoptless`](crate::VmConfig), which also turns on
/// version retention, transfers into the best surviving specialized
/// version instead.
#[derive(Clone, Debug, Default)]
pub struct CodeRegistry {
    /// Every version installed or adopted, in that order. Append-only: a
    /// [`CodeSlot`] handed out stays valid for the life of the registry.
    arena: Vec<Code>,
    current: Vec<Option<CodeSlot>>,
    /// Context key of the current version, parallel to `current` (only
    /// meaningful while the slot holds an optimized version).
    current_key: Vec<ContextFingerprint>,
    /// Superseded-but-still-valid optimized versions, per method, in
    /// installation order; populated only with `retain` on.
    survivors: Vec<Vec<(ContextFingerprint, CodeSlot)>>,
    /// Per method, the baseline version an OSR-out lands in while the
    /// method's current version is still optimized (frame-local thrash
    /// without invalidation): built on the side and adopted, never current.
    deopt_baseline: Vec<Option<CodeSlot>>,
    /// Whether superseded optimized versions survive installation of a
    /// differently-keyed successor (the deoptless mode; fixed at creation).
    retain: bool,
    next_version_id: u32,
    /// Total abstract size of all *optimized* code ever generated
    /// (recompilations accumulate — each compilation emitted real machine
    /// code in the paper's measurement).
    cumulative_optimized_size: u64,
    /// Total abstract size of currently-resident optimized versions
    /// (installed + surviving).
    current_optimized_size: u64,
    /// Number of optimizing compilations performed.
    opt_compilations: u32,
    /// Number of baseline compilations performed.
    baseline_compilations: u32,
    /// Number of optimized versions invalidated (guard-thrash recovery).
    invalidations: u32,
    /// Whether each version was invalidated, indexed by raw [`VersionId`]
    /// (ids are dense: one entry per install). The interpreter consults
    /// this at loop back-edges: an in-flight activation still running an
    /// invalidated version OSR-outs to baseline at its next loop header
    /// instead of finishing on stale code.
    invalidated: Vec<bool>,
}

impl CodeRegistry {
    /// Creates a registry for a program with `num_methods` methods. With
    /// `retain` (the dispatched-OSR mode), installing an optimized version
    /// under a new context key keeps the superseded version resident as a
    /// *survivor* instead of releasing it, so that in-flight activations
    /// can be dispatched into it; without, installation simply replaces.
    pub(crate) fn new(num_methods: usize, retain: bool) -> Self {
        CodeRegistry {
            current: vec![None; num_methods],
            current_key: vec![ContextFingerprint::ROOT; num_methods],
            survivors: vec![Vec::new(); num_methods],
            deopt_baseline: vec![None; num_methods],
            retain,
            ..Self::default()
        }
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

    /// The adopted deopt baseline of `method`, if one was ever needed.
    pub(crate) fn deopt_baseline(&self, method: MethodId) -> Option<CodeSlot> {
        self.deopt_baseline[method.index()]
    }

    /// Adopts `version` — baseline code built on the side — as its method's
    /// deopt baseline, without installing it or counting a compilation. It
    /// gets an id installs never issue, so that no invalidation names it.
    pub(crate) fn adopt_deopt_baseline(&mut self, mut version: MethodVersion) -> CodeSlot {
        version.version_id = VersionId(u32::MAX);
        let midx = version.method.index();
        let slot = self.adopt(version);
        self.deopt_baseline[midx] = Some(slot);
        slot
    }

    /// How many versions the arena holds: every install and adoption.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Appends `version` to the arena.
    fn adopt(&mut self, version: MethodVersion) -> CodeSlot {
        let slot = CodeSlot(u32::try_from(self.arena.len()).expect("under 2^32 versions"));
        self.arena.push(Code { version: Arc::new(version), decoded: OnceLock::new() });
        slot
    }

    /// Context key of the currently-installed *optimized* version of
    /// `method`; `None` when the slot is empty or holds baseline code.
    pub fn current_key(&self, method: MethodId) -> Option<VersionKey> {
        match self.current(method) {
            Some(v) if v.level == OptLevel::Optimized => {
                Some(VersionKey::new(method, self.current_key[method.index()]))
            }
            _ => None,
        }
    }

    /// Installs `version` under the context-insensitive
    /// [root key](VersionKey::root), assigning it a fresh [`VersionId`].
    /// Returns the installed `Arc`.
    pub fn install(&mut self, version: MethodVersion) -> Arc<MethodVersion> {
        self.install_keyed(version, ContextFingerprint::ROOT)
    }

    /// Installs `version` as the current code for its method under context
    /// key `key`, assigning it a fresh [`VersionId`]. Returns the
    /// installed `Arc`.
    ///
    /// With retention on (the deoptless mode), a superseded
    /// optimized version installed under a *different* key survives (up to
    /// `MAX_SURVIVORS_PER_METHOD`, oldest evicted first) and stays
    /// counted in [resident size](CodeRegistry::current_optimized_size); a
    /// same-key predecessor — installed or surviving — is released, since
    /// the new version supersedes it for that context.
    pub fn install_keyed(
        &mut self,
        mut version: MethodVersion,
        key: ContextFingerprint,
    ) -> Arc<MethodVersion> {
        version.version_id = VersionId(self.next_version_id);
        self.next_version_id += 1;
        self.invalidated.push(false);
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
        if self.retain {
            // The new version supersedes any survivor for the same context.
            if let Some(pos) = self.survivors[midx].iter().position(|(k, _)| *k == key) {
                let (_, old) = self.survivors[midx].remove(pos);
                self.current_optimized_size -= u64::from(self.version(old).code_size);
            }
        }
        if let Some(old) = self.current[midx].take() {
            let (level, id) = (self.version(old).level, self.version(old).version_id);
            if level == OptLevel::Optimized {
                let old_key = self.current_key[midx];
                if self.retain && old_key != key && !self.is_invalidated(id) {
                    self.survivors[midx].push((old_key, old));
                    if self.survivors[midx].len() > MAX_SURVIVORS_PER_METHOD {
                        let (_, evicted) = self.survivors[midx].remove(0);
                        self.current_optimized_size -= u64::from(self.version(evicted).code_size);
                    }
                } else {
                    self.current_optimized_size -= u64::from(self.version(old).code_size);
                }
            }
        }
        self.current_key[midx] = key;
        let slot = self.adopt(version);
        self.current[midx] = Some(slot);
        Arc::clone(self.version(slot))
    }

    /// The slot of the best surviving optimized version compatible with
    /// `key`: the currently-installed version if its context key matches,
    /// else the most recently superseded survivor under that key.
    /// Invalidated versions never match — this is the dispatched-OSR
    /// compatibility query, and transferring into known-stale code would be
    /// wrong, not merely slow.
    pub(crate) fn best_surviving(&self, key: VersionKey) -> Option<CodeSlot> {
        let midx = key.method.index();
        let valid = |slot: CodeSlot| !self.is_invalidated(self.version(slot).version_id);
        let current = self.current[midx].filter(|&slot| {
            self.version(slot).level == OptLevel::Optimized
                && self.current_key[midx] == key.context_fingerprint
                && valid(slot)
        });
        current.or_else(|| {
            self.survivors[midx]
                .iter()
                .rev()
                .find(|&&(k, slot)| k == key.context_fingerprint && valid(slot))
                .map(|&(_, slot)| slot)
        })
    }

    /// Number of surviving (superseded but resident) versions of `method`.
    pub fn survivor_count(&self, method: MethodId) -> usize {
        self.survivors[method.index()].len()
    }

    /// Invalidates the current *optimized* version of `method`: the slot is
    /// cleared, so the method falls back to (re-)baseline compilation at its
    /// next invocation — the graceful-degradation path for guard-thrashing
    /// code. Activations already on the stack keep their arena slot; the
    /// version's id is recorded as invalidated, and when OSR is enabled
    /// ([`VmConfig::osr_enabled`](crate::VmConfig)) the interpreter
    /// transfers such an activation back to an equivalent baseline frame
    /// at its next loop header (OSR-out) rather than letting it finish on
    /// the stale code. Survivors specialized for *other* contexts are
    /// untouched: the invalidation evidence is against the thrashing
    /// version, not the method. Returns `false` (and does nothing) when
    /// the method has no optimized version installed.
    pub fn invalidate(&mut self, method: MethodId) -> bool {
        match self.current(method) {
            Some(v) if v.level == OptLevel::Optimized => {
                let (size, id) = (v.code_size, v.version_id);
                self.current_optimized_size -= size as u64;
                self.invalidations += 1;
                self.invalidated[id.0 as usize] = true;
                self.current[method.index()] = None;
                true
            }
            _ => false,
        }
    }

    /// Whether the version with id `id` has been invalidated — the
    /// OSR-out trigger for in-flight activations still running it.
    #[inline]
    pub fn is_invalidated(&self, id: VersionId) -> bool {
        // An id this registry never issued (`VersionId::from_raw`) is not
        // invalidated.
        self.invalidated.get(id.0 as usize).copied().unwrap_or(false)
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

    /// Total abstract size of the optimized versions currently resident
    /// (installed, plus survivors under retention).
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
    use aoci_ir::SiteIdx;

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

    /// The id of the version `best_surviving` picks for `key`.
    fn best(r: &CodeRegistry, key: VersionKey) -> Option<VersionId> {
        r.best_surviving(key).map(|slot| r.version(slot).version_id)
    }

    fn site(method: usize, site: u16) -> CallSiteRef {
        CallSiteRef::new(MethodId::from_index(method), SiteIdx(site))
    }

    #[test]
    fn install_and_lookup() {
        let mut r = CodeRegistry::new(2, false);
        assert!(r.current(MethodId::from_index(0)).is_none());
        r.install(version(0, OptLevel::Baseline, 10));
        assert!(r.current(MethodId::from_index(0)).is_some());
        assert_eq!(r.baseline_compilations(), 1);
        assert_eq!(r.cumulative_optimized_size(), 0);
    }

    #[test]
    fn optimized_size_accounting() {
        let mut r = CodeRegistry::new(1, false);
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
        let mut r = CodeRegistry::new(2, false);
        let m0 = MethodId::from_index(0);
        let installed = r.install(version(0, OptLevel::Optimized, 100));
        assert_eq!(r.current_optimized_size(), 100);
        assert!(!r.is_invalidated(installed.version_id));
        assert!(r.invalidate(m0));
        assert!(r.is_invalidated(installed.version_id), "in-flight frames can see the invalidation");
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
        let mut r = CodeRegistry::new(1, false);
        let a = r.install(version(0, OptLevel::Baseline, 1));
        let b = r.install(version(0, OptLevel::Optimized, 1));
        assert!(b.version_id > a.version_id);
        assert_eq!(VersionId::from_raw(a.version_id.raw()), a.version_id);
    }

    #[test]
    fn old_versions_survive_via_arc() {
        let mut r = CodeRegistry::new(1, false);
        let old = r.install(version(0, OptLevel::Baseline, 1));
        r.install(version(0, OptLevel::Optimized, 5));
        // A frame holding `old` can still execute it.
        assert_eq!(old.level, OptLevel::Baseline);
        assert_eq!(
            r.current(MethodId::from_index(0)).unwrap().level,
            OptLevel::Optimized
        );
    }

    #[test]
    fn fingerprints_are_deterministic_and_context_sensitive() {
        let a = [site(1, 0), site(2, 3)];
        let b = [site(1, 0), site(2, 4)];
        assert_eq!(ContextFingerprint::of(&a), ContextFingerprint::of(&a));
        assert_ne!(ContextFingerprint::of(&a), ContextFingerprint::of(&b));
        assert_ne!(ContextFingerprint::of(&a[..1]), ContextFingerprint::of(&a));
        assert_eq!(ContextFingerprint::of(&[]), ContextFingerprint::ROOT);
    }

    #[test]
    fn without_retention_differently_keyed_installs_replace() {
        let mut r = CodeRegistry::new(1, false);
        let m = MethodId::from_index(0);
        let fp = ContextFingerprint::of(&[site(1, 0)]);
        r.install_keyed(version(0, OptLevel::Optimized, 100), ContextFingerprint::ROOT);
        r.install_keyed(version(0, OptLevel::Optimized, 80), fp);
        assert_eq!(r.survivor_count(m), 0);
        assert_eq!(r.current_optimized_size(), 80);
        assert!(best(&r, VersionKey::root(m)).is_none());
        assert!(best(&r, VersionKey::new(m, fp)).is_some());
    }

    #[test]
    fn retention_keeps_superseded_versions_reachable_by_key() {
        let mut r = CodeRegistry::new(1, true);
        let m = MethodId::from_index(0);
        let fp_a = ContextFingerprint::of(&[site(1, 0)]);
        let fp_b = ContextFingerprint::of(&[site(2, 0)]);
        let va = r.install_keyed(version(0, OptLevel::Optimized, 100), fp_a);
        let vb = r.install_keyed(version(0, OptLevel::Optimized, 80), fp_b);
        assert_eq!(r.survivor_count(m), 1, "the a-keyed version survives");
        assert_eq!(r.current_optimized_size(), 180, "survivors stay resident");
        let got_a = best(&r, VersionKey::new(m, fp_a)).expect("survivor found");
        assert_eq!(got_a, va.version_id);
        let got_b = best(&r, VersionKey::new(m, fp_b)).expect("current found");
        assert_eq!(got_b, vb.version_id);
        assert!(best(&r, VersionKey::root(m)).is_none(), "no root-keyed version");
        // A same-key reinstall supersedes the survivor, not adds to it.
        let va2 = r.install_keyed(version(0, OptLevel::Optimized, 60), fp_a);
        assert_eq!(r.survivor_count(m), 1, "b-keyed current moved to survivors, a-keyed replaced");
        assert_eq!(r.current_optimized_size(), 140);
        assert_eq!(
            best(&r, VersionKey::new(m, fp_a)),
            Some(va2.version_id)
        );
    }

    #[test]
    fn invalidated_versions_never_match_compatibility_queries() {
        let mut r = CodeRegistry::new(1, true);
        let m = MethodId::from_index(0);
        let fp_a = ContextFingerprint::of(&[site(1, 0)]);
        let fp_b = ContextFingerprint::of(&[site(2, 0)]);
        r.install_keyed(version(0, OptLevel::Optimized, 100), fp_a);
        r.install_keyed(version(0, OptLevel::Optimized, 80), fp_b);
        assert!(r.invalidate(m), "kills the b-keyed current version");
        assert!(best(&r, VersionKey::new(m, fp_b)).is_none(), "invalidated never matches");
        assert!(
            best(&r, VersionKey::new(m, fp_a)).is_some(),
            "the a-keyed survivor is untouched by the b-keyed invalidation"
        );
    }

    #[test]
    fn survivor_population_is_capped_with_deterministic_eviction() {
        let mut r = CodeRegistry::new(1, true);
        let m = MethodId::from_index(0);
        let fps: Vec<ContextFingerprint> =
            (0..8u16).map(|i| ContextFingerprint::of(&[site(1, i)])).collect();
        for (i, fp) in fps.iter().enumerate() {
            r.install_keyed(version(0, OptLevel::Optimized, 10 + i as u32), *fp);
        }
        assert_eq!(r.survivor_count(m), MAX_SURVIVORS_PER_METHOD);
        // The oldest keys were evicted; the newest survivors plus the
        // current version remain reachable.
        assert!(best(&r, VersionKey::new(m, fps[0])).is_none(), "oldest evicted");
        assert!(best(&r, VersionKey::new(m, fps[7])).is_some(), "current");
        assert!(best(&r, VersionKey::new(m, fps[3])).is_some(), "youngest survivors stay");
        // Residency = current + capped survivors.
        let expect: u64 = (3..8).map(|i| 10 + i as u64).sum();
        assert_eq!(r.current_optimized_size(), expect);
    }
}
