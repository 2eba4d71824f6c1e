//! Decision-space coverage features — the fuzz campaign's fingerprint
//! vocabulary.
//!
//! The coverage-guided fuzzer (`crates/fuzz`) keeps a generated program in
//! its corpus only if running it exercises a *new part of the adaptive
//! system's decision space*: an inlining rule firing (or a refusal reason)
//! not seen before, an OSR request/deny/enter path, a recovery or
//! retry path, a background-compilation queue transition. The flight
//! recorder already observes every one of those decisions with provenance,
//! so the coverage map is read straight off the event stream: each
//! [`TraceEvent`] maps to zero or more stable *feature* strings, and a
//! run's **fingerprint** is the set of features its [`TraceLog`] contains.
//!
//! The vocabulary lives here — next to the event definitions — so adding
//! an event kind and forgetting its coverage feature is a one-file review,
//! not a cross-crate hunt. Features are deliberately *coarse* (they bucket
//! rather than identify: `inline:depth:3+`, not the exact depth), because
//! the campaign wants a small, saturating space whose exhaustion is
//! meaningful, not a per-program hash.

use crate::event::TraceEvent;
use crate::recorder::TraceLog;
use std::collections::BTreeSet;

/// Buckets a small count into `0`, `1`, `2` or `3+` — coarse enough to
/// saturate, fine enough to separate shallow from deep decisions.
fn depth_bucket(d: u32) -> &'static str {
    match d {
        0 => "0",
        1 => "1",
        2 => "2",
        _ => "3+",
    }
}

impl TraceEvent {
    /// The decision-space coverage features this event contributes, in
    /// deterministic order. Steady-state events that fire on every run
    /// regardless of program shape (sample ticks, trace walks, compiles,
    /// installs) contribute nothing: coverage measures *which decisions
    /// were reachable*, not how often the system ran.
    pub fn coverage_features(&self) -> Vec<String> {
        match self {
            // Pure heartbeat events — no decision taken.
            TraceEvent::SampleTick { dropped: false, .. }
            | TraceEvent::TraceWalk { .. }
            | TraceEvent::HotMethod { .. }
            | TraceEvent::Compile { .. }
            | TraceEvent::Install { .. } => Vec::new(),
            // A dropped sample is an injected decision path.
            TraceEvent::SampleTick { dropped: true, .. } => {
                vec!["profile:sample-dropped".to_string()]
            }
            TraceEvent::RecompilePlan { reason, .. } => {
                vec![format!("plan:{}", reason.label())]
            }
            TraceEvent::InlineDecision { guarded, facts } => vec![
                format!(
                    "inline:{}",
                    if facts.provenance.rule_fired { "rule-fired" } else { "no-rule" }
                ),
                format!("inline:{}", if *guarded { "guarded" } else { "unguarded" }),
                format!("inline:depth:{}", depth_bucket(facts.provenance.context_depth)),
            ],
            TraceEvent::InlineRefusal { reason, hot, facts } => vec![
                format!("refuse:{reason}"),
                format!("refuse:{}", if *hot { "hot" } else { "cold" }),
                format!("refuse:depth:{}", depth_bucket(facts.provenance.context_depth)),
            ],
            TraceEvent::Invalidate { .. } => vec!["recovery:invalidate".to_string()],
            TraceEvent::Quarantine { .. } => vec!["recovery:quarantine".to_string()],
            TraceEvent::RetryScheduled { .. } => vec!["recovery:retry".to_string()],
            TraceEvent::TraceRejected => vec!["recovery:trace-rejected".to_string()],
            TraceEvent::GuardMiss { .. } => vec!["vm:guard-miss".to_string()],
            TraceEvent::OsrRequest { .. } => vec!["osr:request".to_string()],
            TraceEvent::OsrDeny { reason, .. } => vec![format!("osr:deny:{}", reason.label())],
            TraceEvent::OsrEnter { .. } => vec!["osr:enter".to_string()],
            TraceEvent::CompileEnqueue { .. } => vec!["async:enqueue".to_string()],
            TraceEvent::CompileDequeueStale { reason, .. } => {
                vec![format!("async:stale:{}", reason.label())]
            }
            TraceEvent::CompileQueueFull { evicted, .. } => {
                vec![format!("async:full:{}", if *evicted { "evicted" } else { "dropped" })]
            }
            TraceEvent::ServerLookup { hit, .. } => {
                vec![format!("server:{}", if *hit { "hit" } else { "miss" })]
            }
            TraceEvent::CompileStart { .. } => Vec::new(),
            TraceEvent::CompileFinish { cycles, .. } => {
                let mut v = Vec::new();
                if cycles.overlap_cycles > 0 {
                    v.push("async:overlap".to_string());
                }
                if cycles.stall_cycles > 0 {
                    v.push("async:stall".to_string());
                }
                v
            }
            TraceEvent::FaultInjected { kind } => vec![format!("fault:{}", kind.label())],
            TraceEvent::VmFault { .. } => vec!["vm:fault".to_string()],
        }
    }
}

impl TraceLog {
    /// The run's decision-space fingerprint: the set of coverage features
    /// across every retained event. Deterministic (a `BTreeSet` of stable
    /// strings), so two bit-identical runs produce byte-identical
    /// fingerprints — the invariant the campaign's `AOCI_JOBS`
    /// reproducibility check rests on.
    pub fn coverage(&self) -> BTreeSet<String> {
        self.events.iter().flat_map(|r| r.event.coverage_features()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CompileStats, DecisionProvenance, InlineFacts, OsrDenyReason};
    use crate::recorder::Recorded;
    use aoci_ir::{CallSiteRef, MethodId, SiteIdx};

    fn log_of(events: Vec<TraceEvent>) -> TraceLog {
        let n = events.len() as u64;
        TraceLog {
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| Recorded { cycle: i as u64 * 10, event })
                .collect(),
            emitted: n,
            dropped: 0,
        }
    }

    #[test]
    fn heartbeat_events_contribute_nothing() {
        let log = log_of(vec![
            TraceEvent::SampleTick {
                tick: 1,
                method: MethodId::from_index(0),
                in_prologue: false,
                dropped: false,
            },
            TraceEvent::TraceWalk { callee: MethodId::from_index(1), depth: 3 },
            TraceEvent::HotMethod { method: MethodId::from_index(1), samples: 4 },
            TraceEvent::Compile {
                method: MethodId::from_index(1),
                stats: Box::new(CompileStats {
                    generated_size: 10,
                    inlines: 0,
                    guarded: 0,
                    cycles: 5,
                }),
            },
            TraceEvent::Install { method: MethodId::from_index(1), version_id: 1 },
        ]);
        assert!(log.coverage().is_empty());
    }

    #[test]
    fn decision_events_map_to_stable_features() {
        let site = CallSiteRef::new(MethodId::from_index(0), SiteIdx(0));
        let log = log_of(vec![
            TraceEvent::InlineDecision {
                guarded: true,
                facts: Box::new(InlineFacts {
                    host: MethodId::from_index(0),
                    site,
                    callee: MethodId::from_index(1),
                    provenance: DecisionProvenance {
                        rule_fired: true,
                        context_depth: 5,
                        ..Default::default()
                    },
                }),
            },
            TraceEvent::InlineRefusal {
                reason: crate::RefusalReason::Recursive,
                hot: true,
                facts: Box::new(InlineFacts {
                    host: MethodId::from_index(0),
                    site,
                    callee: MethodId::from_index(2),
                    provenance: DecisionProvenance::default(),
                }),
            },
            TraceEvent::OsrDeny {
                method: MethodId::from_index(0),
                reason: OsrDenyReason::Budget,
            },
        ]);
        let fp = log.coverage();
        for f in [
            "inline:rule-fired",
            "inline:guarded",
            "inline:depth:3+",
            "refuse:recursive inline",
            "refuse:hot",
            "refuse:depth:0",
            "osr:deny:recompile-budget",
        ] {
            assert!(fp.contains(f), "missing {f} in {fp:?}");
        }
        assert_eq!(fp.len(), 7);
    }

    #[test]
    fn fingerprint_is_a_set_not_a_count() {
        let e = TraceEvent::OsrEnter { method: MethodId::from_index(0), loop_header: 2 };
        let once = log_of(vec![e.clone()]);
        let thrice = log_of(vec![e.clone(), e.clone(), e]);
        assert_eq!(once.coverage(), thrice.coverage());
    }

    #[test]
    fn server_lookups_split_into_hit_and_miss() {
        let lookup = |hit| TraceEvent::ServerLookup { method: MethodId::from_index(0), hit };
        let fp = log_of(vec![lookup(true), lookup(false), lookup(true)]).coverage();
        assert_eq!(fp.into_iter().collect::<Vec<_>>(), ["server:hit", "server:miss"]);
    }
}
