//! Export sinks over a captured [`TraceLog`]: the Chrome `trace_event`
//! JSON document, deterministic rendered lines, and the `explain` filter
//! that answers "why was method M (not) inlined at call site C?".

use crate::event::{InlineFacts, Resolve, TraceEvent};
use crate::recorder::TraceLog;
use aoci_json::Value;
use std::collections::BTreeSet;

/// The six lanes of the Chrome export, `(tid, thread name)`.
const LANES: [(u32, &str); 6] = [
    (1, "profile (listeners + organizer walks)"),
    (2, "controller (plans + promotions)"),
    (3, "compiler (inlining + codegen)"),
    (4, "vm (guards + faults)"),
    (5, "osr (promotion)"),
    (6, "recovery (invalidate + quarantine + faults)"),
];

impl TraceLog {
    /// Builds a Chrome `trace_event` JSON document (the "JSON object
    /// format") loadable in `chrome://tracing` or Perfetto.
    ///
    /// Every event becomes an instant event (`ph: "i"`) at its
    /// simulated-cycle timestamp, except [`TraceEvent::Compile`], which is
    /// exported as a complete event (`ph: "X"`) spanning the cycles charged
    /// to the compilation thread. Cycles are reported in the `ts`
    /// microsecond field verbatim: the scale is fictional but ordering and
    /// durations are exact.
    pub fn to_chrome_value(&self, resolve: Resolve) -> Value {
        let lane_meta = |tid: u32, name: String| {
            Value::obj([
                ("name".to_string(), Value::from("thread_name")),
                ("ph".to_string(), Value::from("M")),
                ("pid".to_string(), Value::from(1u64)),
                ("tid".to_string(), Value::from(tid)),
                ("args".to_string(), Value::obj([("name".to_string(), Value::from(name))])),
            ])
        };
        let mut events: Vec<Value> =
            LANES.iter().map(|&(tid, name)| lane_meta(tid, name.to_string())).collect();
        // One extra lane per simulated compile worker that appears in the
        // window, so overlapping background compiles render side by side.
        let workers: BTreeSet<u32> = self
            .events
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::CompileStart { worker, .. }
                | TraceEvent::CompileFinish { worker, .. } => Some(worker),
                _ => None,
            })
            .collect();
        for w in workers {
            events.push(lane_meta(
                crate::event::WORKER_LANE_BASE + w,
                format!("compile worker {w} (background)"),
            ));
        }
        for (seq, rec) in self.numbered() {
            let mut args: Vec<(String, Value)> = rec
                .event
                .args(resolve)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            args.push(("seq".to_string(), Value::from(seq)));
            let mut pairs = vec![
                ("name".to_string(), Value::from(rec.event.kind())),
                ("cat".to_string(), Value::from(rec.event.category())),
                ("pid".to_string(), Value::from(1u64)),
                ("tid".to_string(), Value::from(rec.event.tid())),
                ("args".to_string(), Value::obj(args)),
            ];
            if let TraceEvent::Compile { stats, .. } = &rec.event {
                // The compile event is emitted at completion; span backwards
                // over the cycles charged to the compilation thread.
                let cycles = stats.cycles;
                pairs.push(("ph".to_string(), Value::from("X")));
                pairs.push(("ts".to_string(), Value::from(rec.cycle.saturating_sub(cycles))));
                pairs.push(("dur".to_string(), Value::from(cycles)));
            } else {
                pairs.push(("ph".to_string(), Value::from("i")));
                pairs.push(("ts".to_string(), Value::from(rec.cycle)));
                pairs.push(("s".to_string(), Value::from("t")));
            }
            events.push(Value::obj(pairs));
        }
        Value::obj([
            ("traceEvents".to_string(), Value::Arr(events)),
            ("displayTimeUnit".to_string(), Value::from("ns")),
            (
                "otherData".to_string(),
                Value::obj([
                    ("clock".to_string(), Value::from("simulated-cycles")),
                    ("emitted".to_string(), Value::from(self.emitted)),
                    ("dropped".to_string(), Value::from(self.dropped)),
                ]),
            ),
        ])
    }

    /// Serializes [`Self::to_chrome_value`] with two-space indentation.
    pub fn to_chrome_string(&self, resolve: Resolve) -> String {
        aoci_json::to_string_pretty(&self.to_chrome_value(resolve))
    }

    /// Renders every retained event as one deterministic line,
    /// `[cycle] #seq kind key=value …`, oldest first.
    pub fn render_lines(&self, resolve: Resolve) -> Vec<String> {
        self.numbered()
            .map(|(seq, r)| format!("[{:>10}] #{seq:<6} {}", r.cycle, r.event.render(resolve)))
            .collect()
    }

    /// The distinct event kinds present in the retained window.
    pub fn kinds(&self) -> BTreeSet<&'static str> {
        self.events.iter().map(|r| r.event.kind()).collect()
    }

    /// Answers "why was method M (not) inlined at call site C?": one line
    /// per inline decision/refusal whose resolved host name, callee name or
    /// site string contains `pattern` (empty pattern matches all).
    pub fn explain(&self, pattern: &str, resolve: Resolve) -> Vec<String> {
        let mut out = Vec::new();
        for rec in &self.events {
            match &rec.event {
                TraceEvent::InlineDecision { guarded, facts } => {
                    let InlineFacts { host, site, callee, provenance } = &**facts;
                    let (h, c, s) = (resolve(*host), resolve(*callee), site.to_string());
                    if !(h.contains(pattern) || c.contains(pattern) || s.contains(pattern)) {
                        continue;
                    }
                    out.push(format!(
                        "cycle {}: inlined {c} into {h} at {s} — {}, {} (benefit {}), depth {}, size {} of budget {}",
                        rec.cycle,
                        if *guarded { "guarded" } else { "unguarded" },
                        if provenance.rule_fired { "rule fired" } else { "no rule" },
                        provenance.predicted_benefit,
                        provenance.context_depth,
                        provenance.size_before,
                        provenance.size_budget,
                    ));
                }
                TraceEvent::InlineRefusal { reason, hot, facts } => {
                    let InlineFacts { host, site, callee, provenance } = &**facts;
                    let (h, c, s) = (resolve(*host), resolve(*callee), site.to_string());
                    if !(h.contains(pattern) || c.contains(pattern) || s.contains(pattern)) {
                        continue;
                    }
                    out.push(format!(
                        "cycle {}: did not inline {c} into {h} at {s} — {reason} ({}, depth {}, size {} of budget {})",
                        rec.cycle,
                        if *hot { "hot edge" } else { "cold edge" },
                        provenance.context_depth,
                        provenance.size_before,
                        provenance.size_budget,
                    ));
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CompileStats, DecisionProvenance, FinishCycles};
    use crate::recorder::{TraceConfig, TraceSink};
    use aoci_ir::{CallSiteRef, MethodId, SiteIdx};

    fn resolve(m: MethodId) -> String {
        format!("M{}", m.index())
    }

    fn sample_log() -> TraceLog {
        let sink = TraceSink::new(TraceConfig::default());
        let site = CallSiteRef::new(MethodId::from_index(1), SiteIdx(0));
        sink.emit(
            10,
            TraceEvent::SampleTick {
                tick: 1,
                method: MethodId::from_index(1),
                in_prologue: false,
                dropped: false,
            },
        );
        sink.emit(
            20,
            TraceEvent::InlineDecision {
                guarded: true,
                facts: Box::new(InlineFacts {
                    host: MethodId::from_index(1),
                    site,
                    callee: MethodId::from_index(2),
                    provenance: DecisionProvenance {
                        rule_fired: true,
                        predicted_benefit: 4.0,
                        context_depth: 0,
                        size_before: 30,
                        size_budget: 400,
                    },
                }),
            },
        );
        sink.emit(
            25,
            TraceEvent::InlineRefusal {
                reason: crate::RefusalReason::TooLarge,
                hot: false,
                facts: Box::new(InlineFacts {
                    host: MethodId::from_index(1),
                    site: CallSiteRef::new(MethodId::from_index(1), SiteIdx(1)),
                    callee: MethodId::from_index(3),
                    provenance: DecisionProvenance::default(),
                }),
            },
        );
        sink.emit(
            90,
            TraceEvent::Compile {
                method: MethodId::from_index(1),
                stats: Box::new(CompileStats {
                    generated_size: 40,
                    inlines: 1,
                    guarded: 1,
                    cycles: 60,
                }),
            },
        );
        sink.log()
    }

    #[test]
    fn chrome_export_parses_and_spans_compiles() {
        let log = sample_log();
        let text = log.to_chrome_string(&resolve);
        let doc = aoci_json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 6 lane-metadata events + 4 recorded events.
        assert_eq!(events.len(), 10);
        let compile = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("compile"))
            .unwrap();
        assert_eq!(compile.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(compile.get("ts").unwrap().as_u64(), Some(30));
        assert_eq!(compile.get("dur").unwrap().as_u64(), Some(60));
        let tick = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("sample-tick"))
            .unwrap();
        assert_eq!(tick.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(tick.get("args").unwrap().get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(
            doc.get("otherData").unwrap().get("clock").unwrap().as_str(),
            Some("simulated-cycles")
        );
    }

    #[test]
    fn worker_events_get_their_own_lanes() {
        let sink = TraceSink::new(TraceConfig::default());
        sink.emit(
            5,
            TraceEvent::CompileStart { method: MethodId::from_index(1), worker: 1, cost: 90 },
        );
        sink.emit(
            95,
            TraceEvent::CompileFinish {
                method: MethodId::from_index(1),
                worker: 1,
                landed: true,
                cycles: Box::new(FinishCycles { overlap_cycles: 90, stall_cycles: 0 }),
            },
        );
        let doc = sink.log().to_chrome_value(&resolve);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 6 fixed lanes + 1 worker lane + 2 events.
        assert_eq!(events.len(), 9);
        let lane = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some("thread_name")
                    && e.get("tid").and_then(Value::as_u64) == Some(11)
            })
            .expect("worker 1 lane metadata");
        assert_eq!(
            lane.get("args").unwrap().get("name").unwrap().as_str(),
            Some("compile worker 1 (background)")
        );
        let start = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("compile-start"))
            .unwrap();
        assert_eq!(start.get("tid").unwrap().as_u64(), Some(11));
    }

    #[test]
    fn explain_filters_by_name() {
        let log = sample_log();
        let all = log.explain("", &resolve);
        assert_eq!(all.len(), 2);
        assert!(all[0].contains("inlined M2 into M1"), "{}", all[0]);
        assert!(all[0].contains("rule fired (benefit 4)"), "{}", all[0]);
        assert!(all[1].contains("did not inline M3"), "{}", all[1]);
        assert!(all[1].contains("callee too large"), "{}", all[1]);
        let only_m3 = log.explain("M3", &resolve);
        assert_eq!(only_m3.len(), 1);
        assert!(only_m3[0].contains("M3"));
        assert!(log.explain("M99", &resolve).is_empty());
    }

    #[test]
    fn kinds_and_lines_reflect_the_window() {
        let log = sample_log();
        let kinds = log.kinds();
        assert_eq!(kinds.len(), 4);
        assert!(kinds.contains("compile"));
        let lines = log.render_lines(&resolve);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sample-tick"), "{}", lines[0]);
        assert_eq!(lines, log.render_lines(&resolve), "rendering is deterministic");
    }
}
