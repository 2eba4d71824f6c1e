//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the calls this package makes into the crates' public
//! functions; nothing under `crates/` is instrumented. They stay in memory
//! until the run ends and are then written to `out/spans.json`. A layer's
//! *self time* is its spans' duration minus the part their direct child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;
/// Marks a span that belongs to no op (set-up, probes, the pass itself).
pub const NO_OP: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span served; spans of one op share it.
    pub op: u32,
}

/// Per-layer totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        let at = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        u16::try_from(at).expect("span names are a small fixed set")
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    fn push(&mut self, name: &'static str, op: u32, start_ns: u64, end_ns: u64) -> u32 {
        let name = self.name_index(name);
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Opens a span; spans recorded until the matching [`Recorder::exit`]
    /// become its children.
    pub fn enter(&mut self, name: &'static str, op: u32) {
        let start = self.ns(Instant::now());
        let id = self.push(name, op, start, start);
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name, op);
        let out = f(self);
        self.exit();
        out
    }

    /// Records a childless span from two instants already taken, for calls
    /// too short to afford a closure and two stack operations.
    pub fn leaf(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, op, start, end);
    }

    /// Durations in seconds of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let Some(idx) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| usize::from(s.name) == idx)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.names, &self.spans)
    }

    /// `{names, layers, spans}`; each span is
    /// `[name index, start ns, end ns, parent index or -1, op or -1]`.
    pub fn to_json(&self) -> String {
        let sep = |i: usize| if i > 0 { "," } else { "" };
        let signed = |v: u32| if v == u32::MAX { -1 } else { i64::from(v) };
        let mut out = String::from("{\"names\":[");
        for (i, n) in self.names.iter().enumerate() {
            write!(out, "{}\"{n}\"", sep(i)).expect("writing to a String");
        }
        out += "],\"layers\":{";
        for (i, (name, t)) in self.layers().iter().enumerate() {
            write!(
                out,
                "{}\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                sep(i),
                t.count,
                t.total_s,
                t.self_s
            )
            .expect("writing to a String");
        }
        out += "},\"spans\":[";
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{}[{},{},{},{},{}]",
                sep(i),
                s.name,
                s.start_ns,
                s.end_ns,
                signed(s.parent),
                signed(s.op)
            )
            .expect("writing to a String");
        }
        out += "]}";
        out
    }
}

fn layer_times(names: &[&'static str], spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = layers.entry(names[usize::from(s.name)]).or_default();
        t.count += 1;
        t.total_s += dur as f64 / 1e9;
        t.self_s += dur.saturating_sub(*children) as f64 / 1e9;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: NO_OP,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let names = ["op", "run", "step"];
        // op 0..100 > run 10..90 > steps 20..30 and 40..70; a second op 100..110.
        let spans = [
            span(0, 0, 100, NO_PARENT),
            span(1, 10, 90, 0),
            span(2, 20, 30, 1),
            span(2, 40, 70, 1),
            span(0, 100, 110, NO_PARENT),
        ];
        let layers = layer_times(&names, &spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(layers["op"].count, 2);
        assert_eq!(ns(layers["op"].total_s), 110);
        // Grandchildren are not subtracted twice: op loses only `run`.
        assert_eq!(ns(layers["op"].self_s), 20 + 10);
        assert_eq!(ns(layers["run"].self_s), 80 - 40);
        assert_eq!(ns(layers["step"].self_s), 40);
        let self_sum: f64 = layers.values().map(|t| t.self_s).sum();
        assert_eq!(ns(self_sum), 110, "self times partition the root spans");
    }

    #[test]
    fn recorder_nests_spans_and_leaves() {
        let mut rec = Recorder::new();
        rec.span("outer", 7, |rec| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            rec.leaf("inner", 7, t0, t1);
            rec.span("inner", 7, |_| ());
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[2].parent, 0);
        assert!(rec.spans[0].end_ns >= rec.spans[2].end_ns);
        assert_eq!(rec.durations("inner").len(), 2);
        assert!(rec.durations("absent").is_empty());
        let layers = rec.layers();
        assert!(layers["outer"].self_s <= layers["outer"].total_s);
        assert!(aoci_json::parse(&rec.to_json()).is_ok());
    }
}
