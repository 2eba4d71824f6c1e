//! Offline profile persistence.
//!
//! The paper's related-work section contrasts its online system with the
//! classic offline pipeline: gather profile data in a training run, then
//! feed it to the compiler for the production run. This module provides
//! that pipeline for AOCI: a [`SavedProfile`] snapshots the trace profile
//! of one run as JSON; a later run seeds its dynamic call graph with it and
//! reaches good inlining decisions without a warm-up (see the
//! `offline_profile` example).
//!
//! Saved profiles reference methods and call sites by raw index, so they
//! are only meaningful for the *same program* (same builder inputs) that
//! produced them.

use crate::key::TraceKey;
use aoci_ir::{CallSiteRef, MethodId, SiteIdx};
use aoci_json::{JsonError, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Error from [`SavedProfile::from_entries`]: a raw method index in a
/// trace key does not fit the `u32` wire format. The strict
/// [`SavedProfile::from_json`] side already rejects out-of-range indices;
/// this error makes the snapshot side equally strict instead of silently
/// truncating with `as u32`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexOverflow {
    /// The raw method index that did not fit in `u32`.
    pub index: usize,
    /// Where the index appeared: `"callee"` or `"context method"`.
    pub role: &'static str,
}

impl fmt::Display for IndexOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} index {} exceeds the u32 profile wire format", self.role, self.index)
    }
}

impl std::error::Error for IndexOverflow {}

/// One serialized trace: callee index, context as (method index, site)
/// pairs innermost-first, and profile weight.
#[derive(Clone, Debug)]
pub struct SavedTrace {
    /// Callee method index.
    pub callee: u32,
    /// Context as `(method index, site index)` pairs, innermost caller
    /// first.
    pub context: Vec<(u32, u16)>,
    /// Profile weight.
    pub weight: f64,
}

/// A serializable snapshot of a trace profile.
#[derive(Clone, Debug, Default)]
pub struct SavedProfile {
    /// The traces.
    pub traces: Vec<SavedTrace>,
}

impl SavedProfile {
    /// Snapshots `(trace, weight)` entries.
    ///
    /// # Errors
    ///
    /// Returns [`IndexOverflow`] if any method index exceeds `u32`,
    /// mirroring the strictness of [`SavedProfile::from_json`].
    pub fn from_entries<'a>(
        entries: impl IntoIterator<Item = (&'a TraceKey, f64)>,
    ) -> Result<Self, IndexOverflow> {
        let narrow = |index: usize, role: &'static str| {
            u32::try_from(index).map_err(|_| IndexOverflow { index, role })
        };
        let mut traces = Vec::new();
        for (k, weight) in entries {
            let callee = narrow(k.callee().index(), "callee")?;
            let mut context = Vec::with_capacity(k.context().len());
            for cs in k.context() {
                context.push((narrow(cs.method.index(), "context method")?, cs.site.0));
            }
            traces.push(SavedTrace { callee, context, weight });
        }
        Ok(SavedProfile { traces })
    }

    /// Reconstructs `(trace, weight)` entries. Lossless: depth-0 (root
    /// edge) traces come back as [`TraceKey::root`] keys rather than being
    /// silently dropped, so a warm-started replica keeps its root-edge
    /// weights.
    pub fn entries(&self) -> Vec<(TraceKey, f64)> {
        self.traces
            .iter()
            .map(|t| {
                let context: Arc<[CallSiteRef]> = t
                    .context
                    .iter()
                    .map(|&(m, s)| CallSiteRef::new(MethodId::from_index(m as usize), SiteIdx(s)))
                    .collect();
                (TraceKey::new(MethodId::from_index(t.callee as usize), context), t.weight)
            })
            .collect()
    }

    /// Merges profiles by summing the weights of identical traces.
    ///
    /// The result is canonical: one trace per distinct `(callee, context)`
    /// key, sorted by key, duplicates within a single input combined too.
    /// Weights accumulate in key order, so the merge of a fixed multiset of
    /// profiles is byte-stable regardless of how the inputs were chunked by
    /// a parallel harness. Up to float rounding the operation is
    /// commutative and associative and conserves total weight; with
    /// integer-valued weights (as fleet snapshots use) it is exact.
    pub fn merge<'a>(profiles: impl IntoIterator<Item = &'a SavedProfile>) -> SavedProfile {
        let mut acc: BTreeMap<(u32, Vec<(u32, u16)>), f64> = BTreeMap::new();
        for p in profiles {
            for t in &p.traces {
                *acc.entry((t.callee, t.context.clone())).or_insert(0.0) += t.weight;
            }
        }
        SavedProfile {
            traces: acc
                .into_iter()
                .map(|((callee, context), weight)| SavedTrace { callee, context, weight })
                .collect(),
        }
    }

    /// Serializes to JSON (the same shape the original serde-derived form
    /// produced: `{"traces": [{"callee", "context": [[m, s], ...],
    /// "weight"}, ...]}`).
    ///
    /// # Errors
    ///
    /// Encoding cannot fail for this data shape; the `Result` is kept so
    /// the signature matches a fallible serializer.
    pub fn to_json(&self) -> Result<String, JsonError> {
        let traces: Vec<Value> = self
            .traces
            .iter()
            .map(|t| {
                Value::obj([
                    ("callee".to_string(), Value::from(t.callee)),
                    (
                        "context".to_string(),
                        Value::Arr(
                            t.context
                                .iter()
                                .map(|&(m, s)| {
                                    Value::Arr(vec![
                                        Value::from(m),
                                        Value::from(s as u32),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("weight".to_string(), Value::from(t.weight)),
                ])
            })
            .collect();
        let doc = Value::obj([("traces".to_string(), Value::Arr(traces))]);
        Ok(aoci_json::to_string_pretty(&doc))
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input, including documents
    /// that parse as JSON but do not match the [`SavedProfile`] shape.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let shape_err = |message: &str| JsonError { offset: 0, message: message.to_string() };
        let doc = aoci_json::parse(s)?;
        let traces = doc
            .get("traces")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape_err("missing 'traces' array"))?;
        let mut out = Vec::with_capacity(traces.len());
        for t in traces {
            let callee = t
                .get("callee")
                .and_then(Value::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| shape_err("trace missing u32 'callee'"))?;
            let weight = t
                .get("weight")
                .and_then(Value::as_f64)
                .ok_or_else(|| shape_err("trace missing numeric 'weight'"))?;
            let raw_context = t
                .get("context")
                .and_then(Value::as_arr)
                .ok_or_else(|| shape_err("trace missing 'context' array"))?;
            let mut context = Vec::with_capacity(raw_context.len());
            for pair in raw_context {
                let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    shape_err("context entries must be [method, site] pairs")
                })?;
                let m = pair[0]
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| shape_err("context method must be u32"))?;
                let site = pair[1]
                    .as_u64()
                    .and_then(|n| u16::try_from(n).ok())
                    .ok_or_else(|| shape_err("context site must be u16"))?;
                context.push((m, site));
            }
            out.push(SavedTrace { callee, context, weight });
        }
        Ok(SavedProfile { traces: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(m: usize, s: u16) -> CallSiteRef {
        CallSiteRef::new(MethodId::from_index(m), SiteIdx(s))
    }

    #[test]
    fn round_trips_through_json() {
        let k1 = TraceKey::edge(cs(0, 1), MethodId::from_index(5));
        let k2 = TraceKey::new(MethodId::from_index(6), vec![cs(1, 0), cs(2, 3)]);
        let saved = SavedProfile::from_entries([(&k1, 2.0), (&k2, 7.5)]).unwrap();
        let json = saved.to_json().unwrap();
        let back = SavedProfile::from_json(&json).unwrap();
        let entries = back.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|(k, w)| *k == k1 && (*w - 2.0).abs() < 1e-12));
        assert!(entries.iter().any(|(k, w)| *k == k2 && (*w - 7.5).abs() < 1e-12));
    }

    #[test]
    fn empty_context_traces_round_trip_losslessly() {
        // A depth-0 trace is a valid root edge, not corruption: dropping
        // it (the old behavior) silently lost all root-edge weight on
        // every warm start.
        let saved = SavedProfile {
            traces: vec![SavedTrace { callee: 1, context: vec![], weight: 1.5 }],
        };
        let entries = saved.entries();
        assert_eq!(entries, vec![(TraceKey::root(MethodId::from_index(1)), 1.5)]);
        let back = SavedProfile::from_json(&saved.to_json().unwrap()).unwrap();
        assert_eq!(back.entries(), entries);
    }

    #[test]
    fn index_overflow_error_is_typed_and_displayable() {
        // `MethodId` is currently u32-backed, so `index()` can never
        // exceed the wire format and `from_entries` cannot fail today —
        // the typed error exists so that widening the id type surfaces as
        // a `Result` at the snapshot boundary instead of an `as u32`
        // truncation corrupting saved profiles.
        let err = IndexOverflow { index: u32::MAX as usize + 1, role: "callee" };
        assert!(err.to_string().contains("callee index 4294967296"));
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.to_string().contains("u32 profile wire format"));
    }

    #[test]
    fn max_u32_indices_are_preserved_exactly() {
        let k = TraceKey::edge(cs(u32::MAX as usize, 9), MethodId::from_index(u32::MAX as usize));
        let saved = SavedProfile::from_entries([(&k, 4.0)]).unwrap();
        let back = SavedProfile::from_json(&saved.to_json().unwrap()).unwrap();
        assert_eq!(back.entries(), vec![(k, 4.0)]);
    }

    #[test]
    fn merge_sums_weights_and_canonicalizes() {
        let a = SavedProfile {
            traces: vec![
                SavedTrace { callee: 2, context: vec![(1, 0)], weight: 3.0 },
                SavedTrace { callee: 1, context: vec![], weight: 1.0 },
            ],
        };
        let b = SavedProfile {
            traces: vec![
                SavedTrace { callee: 2, context: vec![(1, 0)], weight: 2.0 },
                SavedTrace { callee: 2, context: vec![(1, 0), (4, 2)], weight: 5.0 },
            ],
        };
        let merged = SavedProfile::merge([&a, &b]);
        type Flat = Vec<(u32, Vec<(u32, u16)>, f64)>;
        let flat: Flat = merged
            .traces
            .iter()
            .map(|t| (t.callee, t.context.clone(), t.weight))
            .collect();
        assert_eq!(
            flat,
            vec![
                (1, vec![], 1.0),
                (2, vec![(1, 0)], 5.0),
                (2, vec![(1, 0), (4, 2)], 5.0),
            ]
        );
        // Total weight is conserved.
        let total = |p: &SavedProfile| p.traces.iter().map(|t| t.weight).sum::<f64>();
        assert_eq!(total(&merged), total(&a) + total(&b));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(SavedProfile::from_json("not json").is_err());
    }
}
