//! The shared compile server, one tenant's share of it per
//! [`CompileServer`]: tenants never read each other's entries, so the
//! fleet driver keeps one per tenant pipeline (DESIGN.md §15).
//!
//! Cache entries are keyed by method, and every entry was compiled under
//! the server's current **rules generation** — the `RuleSet::fingerprint`
//! of the tenant's merged fleet profile, installed before each batch. The
//! rules encode every context-sensitive inlining decision, so within a
//! generation the method identifies the context-specialized body: when the
//! merged profile's hot set shifts enough to change the fingerprint, the
//! server bumps the generation and broadcasts an invalidation, clearing
//! the cache so no replica can install code specialized for rules that no
//! longer hold.
//!
//! Over capacity the server evicts **LRU-by-benefit**: the entry with the
//! lowest estimated inlining benefit goes first, ties broken by
//! least-recent use. All state lives in a `BTreeMap` and every mutation
//! happens in the tenant's canonical (phase, replica) order, so the
//! server is deterministic regardless of how many pool workers ran the
//! replicas.

use aoci_aos::ServerSnapshot;
use aoci_core::InlineOracle;
use aoci_ir::{MethodId, Program};
use aoci_opt::{compile, estimate_benefit, Compilation, OptConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One cached compilation with its eviction/invalidation metadata.
#[derive(Clone, Debug)]
struct CacheEntry {
    compilation: Arc<Compilation>,
    /// Estimated inlining benefit (the eviction score's major key).
    benefit: f64,
    /// Server tick of the last hit or insert (the minor, LRU key).
    last_used: u64,
}

/// One tenant's compile server: its rules generation plus its bounded
/// code cache.
#[derive(Debug)]
pub struct CompileServer {
    /// Cache capacity in entries.
    capacity: usize,
    /// Monotonic tick, advanced on every batch and touch — the LRU clock.
    tick: u64,
    /// Current rules generation (`None` until rules first form).
    generation: Option<u64>,
    entries: BTreeMap<MethodId, CacheEntry>,
}

impl CompileServer {
    /// A server caching at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        CompileServer { capacity, tick: 0, generation: None, entries: BTreeMap::new() }
    }

    /// Installs a new rules generation. If the fingerprint changed,
    /// broadcasts an invalidation: every cached entry was compiled under the
    /// old generation, so the cache is cleared. Returns the number of
    /// entries invalidated on a bump, `None` when nothing was bumped (the
    /// same fingerprint, or the first one: rules forming is not a bump).
    pub fn set_generation(&mut self, fingerprint: u64) -> Option<u64> {
        if self.generation == Some(fingerprint) {
            return None;
        }
        let cleared = self.entries.len() as u64;
        self.entries.clear();
        self.generation.replace(fingerprint).map(|_| cleared)
    }

    /// Processes one batched request list: compiles every requested
    /// method of `program` under `oracle` (the tenant's merged-profile
    /// rules) and caches the result, evicting LRU-by-benefit over capacity.
    /// Methods already cached are skipped — a concurrent replica already
    /// requested them this phase. Returns `(compiles, evictions)`.
    pub fn process_batch(
        &mut self,
        program: &Program,
        requests: &[MethodId],
        oracle: &InlineOracle,
        opt: &OptConfig,
    ) -> (u64, u64) {
        let (mut compiles, mut evictions) = (0, 0);
        if requests.is_empty() {
            return (compiles, evictions);
        }
        self.tick += 1;
        for &method in requests {
            if self.entries.contains_key(&method) {
                continue;
            }
            let compilation = compile(program, method, oracle, opt);
            let benefit = estimate_benefit(program, method, oracle);
            compiles += 1;
            self.entries.insert(
                method,
                CacheEntry {
                    compilation: Arc::new(compilation),
                    benefit,
                    last_used: self.tick,
                },
            );
            evictions += self.evict_over_capacity();
        }
        (compiles, evictions)
    }

    /// Refreshes LRU recency for `methods` — called with each replica's
    /// hit list, in canonical replica order.
    pub fn touch(&mut self, methods: &[MethodId]) {
        if methods.is_empty() {
            return;
        }
        self.tick += 1;
        for m in methods {
            if let Some(e) = self.entries.get_mut(m) {
                e.last_used = self.tick;
            }
        }
    }

    /// The read-only snapshot the tenant's replicas attach for the next
    /// phase: every cached entry.
    pub fn snapshot(&self) -> ServerSnapshot {
        Arc::new(self.entries.iter().map(|(m, e)| (*m, Arc::clone(&e.compilation))).collect())
    }

    /// Returns the number of entries evicted.
    fn evict_over_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            // LRU-by-benefit: lowest benefit first, least-recently-used
            // breaking ties. total_cmp keeps the order deterministic for
            // every float value.
            let victim = self
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.benefit.total_cmp(&b.benefit).then(a.last_used.cmp(&b.last_used))
                })
                .map(|(m, _)| *m)
                .expect("over capacity implies at least one entry");
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::ProgramBuilder;

    /// A program with four identical trivial methods (equal size, so
    /// equal estimated benefit — eviction falls through to the LRU key).
    fn program() -> (Program, Vec<MethodId>) {
        let mut b = ProgramBuilder::new();
        let methods: Vec<MethodId> = (0..4)
            .map(|i| {
                let mut m = b.static_method(format!("f{i}"), 0);
                let r = m.fresh_reg();
                m.const_int(r, i);
                m.ret(Some(r));
                m.finish()
            })
            .collect();
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.const_int(r, 0);
            m.ret(Some(r));
            m.finish()
        };
        (b.finish(main).expect("valid program"), methods)
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used_among_equal_benefit() {
        let (p, m) = program();
        let oracle = InlineOracle::empty();
        let opt = OptConfig::default();
        let mut s = CompileServer::new(2);
        // Separate batches so each entry gets a distinct LRU tick.
        assert_eq!(s.process_batch(&p, &[m[0]], &oracle, &opt), (1, 0));
        assert_eq!(s.process_batch(&p, &[m[1]], &oracle, &opt), (1, 0));
        assert_eq!(s.process_batch(&p, &[m[2]], &oracle, &opt), (1, 1));
        assert_eq!(s.entries.len(), 2, "capacity bound holds");
        assert!(!s.snapshot().contains_key(&m[0]), "oldest entry evicted first");
        // A touch refreshes recency, redirecting the next eviction.
        s.touch(&[m[1]]);
        s.process_batch(&p, &[m[3]], &oracle, &opt);
        let snap = s.snapshot();
        assert!(snap.contains_key(&m[1]), "touched entry survives");
        assert!(snap.contains_key(&m[3]));
        assert!(!snap.contains_key(&m[2]), "untouched entry evicted");
    }

    #[test]
    fn generation_bump_broadcasts_invalidation() {
        let (p, m) = program();
        let oracle = InlineOracle::empty();
        let opt = OptConfig::default();
        let mut s = CompileServer::new(8);
        assert_eq!(s.set_generation(7), None, "first generation is not a bump");
        s.process_batch(&p, &[m[0], m[1]], &oracle, &opt);
        assert_eq!(s.snapshot().len(), 2);
        assert_eq!(s.set_generation(7), None, "same fingerprint: no-op");
        assert_eq!(s.set_generation(8), Some(2), "every stale entry dropped on bump");
        assert_eq!(s.snapshot().len(), 0, "no replica can install stale code");
        assert_eq!(s.entries.len(), 0);
    }

    #[test]
    fn snapshot_serves_only_the_current_generation() {
        let (p, m) = program();
        let oracle = InlineOracle::empty();
        let opt = OptConfig::default();
        let (mut s, mut other) = (CompileServer::new(8), CompileServer::new(8));
        s.set_generation(1);
        s.process_batch(&p, &[m[0]], &oracle, &opt);
        other.process_batch(&p, &[m[1]], &oracle, &opt);
        assert!(s.snapshot().contains_key(&m[0]));
        assert!(!s.snapshot().contains_key(&m[1]), "tenants are isolated");
        assert!(other.snapshot().contains_key(&m[1]));
    }
}
