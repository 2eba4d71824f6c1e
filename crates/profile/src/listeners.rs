//! Sample listeners: method and trace.
//!
//! Listeners mirror the Jikes RVM architecture (paper Figure 3): each holds
//! a buffer of raw samples that an organizer periodically drains. The VM
//! invokes them with a [`StackSnapshot`] at every timer sample; the trace
//! listener only records samples that landed in a method prologue.

use crate::key::TraceKey;
use aoci_ir::{CallSiteRef, MethodId};
use aoci_trace::{TraceEvent, TraceSink};
use aoci_vm::StackSnapshot;

/// Records the currently executing (machine-level) compiled method at every
/// sample; feeds hot-method detection.
#[derive(Clone, Debug, Default)]
pub struct MethodListener {
    buffer: Vec<MethodId>,
}

impl MethodListener {
    /// Creates an empty listener.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one sample.
    pub fn on_sample(&mut self, snapshot: &StackSnapshot) {
        self.buffer.push(snapshot.root_method);
    }

    /// Number of buffered samples.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Drains the buffer (organizer side); the buffer keeps its allocation
    /// for the next period's samples.
    pub fn drain(&mut self) -> std::vec::Drain<'_, MethodId> {
        self.buffer.drain(..)
    }
}

/// Records variable-length call traces (paper Equation 2); at depth 1
/// they are the context-insensitive call edges of Equation 1.
///
/// The maximum context depth and the early-termination predicate are
/// supplied per sample by the embedding driver, which owns the
/// context-sensitivity policy.
#[derive(Clone, Debug, Default)]
pub struct TraceListener {
    buffer: Vec<TraceKey>,
    /// The walk of the sample in hand; only the key copies out of it.
    context: Vec<CallSiteRef>,
    samples_recorded: u64,
    frames_walked: u64,
    trace: Option<TraceSink>,
}

impl TraceListener {
    /// Creates an empty listener.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a flight-recorder sink; the listener emits a
    /// [`TraceEvent::TraceWalk`] for every recorded call trace, timestamped
    /// with the snapshot's simulated-cycle clock.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// Consumes one sample, collecting at most `max_context` caller levels
    /// and stopping early when `keep_extending` returns `false` (see
    /// [`StackSnapshot::call_trace`]). Returns the number of stack frames
    /// walked (for listener-cost accounting).
    pub fn on_sample(
        &mut self,
        snapshot: &StackSnapshot,
        max_context: usize,
        keep_extending: impl FnMut(MethodId) -> bool,
    ) -> usize {
        if !snapshot.top_in_prologue {
            return 0;
        }
        match snapshot.call_trace(max_context, keep_extending, &mut self.context) {
            Some(callee) => {
                let walked = self.context.len() + 1;
                self.frames_walked += walked as u64;
                if let Some(t) = &self.trace {
                    t.emit(
                        snapshot.cycles,
                        TraceEvent::TraceWalk { callee, depth: walked as u32 },
                    );
                }
                self.buffer.push(TraceKey::new(callee, &self.context[..]));
                self.samples_recorded += 1;
                walked
            }
            None => 1,
        }
    }

    /// Number of buffered samples.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Drains the buffer (organizer side); the buffer keeps its allocation
    /// for the next period's samples.
    pub fn drain(&mut self) -> std::vec::Drain<'_, TraceKey> {
        self.buffer.drain(..)
    }

    /// Prologue samples recorded as traces.
    pub fn samples_recorded(&self) -> u64 {
        self.samples_recorded
    }

    /// Total stack frames walked over all recorded samples.
    pub fn frames_walked(&self) -> u64 {
        self.frames_walked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::SiteIdx;
    use aoci_vm::SourceFrame;

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    fn snapshot(prologue: bool, methods: &[usize]) -> StackSnapshot {
        // methods[0] is innermost; give frame i>0 call site i.
        let frames = methods
            .iter()
            .enumerate()
            .map(|(i, &m)| SourceFrame {
                method: mid(m),
                callsite_to_inner: if i == 0 { None } else { Some(SiteIdx(i as u16)) },
            })
            .collect();
        StackSnapshot {
            frames,
            root_method: mid(*methods.last().unwrap_or(&0)),
            top_in_prologue: prologue,
            cycles: 0,
        }
    }

    #[test]
    fn method_listener_records_root() {
        let mut l = MethodListener::new();
        l.on_sample(&snapshot(false, &[3, 2, 1]));
        l.on_sample(&snapshot(true, &[3, 2, 1]));
        assert_eq!(l.drain().collect::<Vec<_>>(), vec![mid(1), mid(1)]);
        assert_eq!(l.buffered(), 0);
    }

    #[test]
    fn trace_listener_collects_variable_depth() {
        let mut l = TraceListener::new();
        l.on_sample(&snapshot(true, &[4, 3, 2, 1]), 2, |_| true);
        l.on_sample(&snapshot(true, &[4, 3, 2, 1]), 5, |_| true);
        let traces: Vec<_> = l.drain().collect();
        assert_eq!(traces[0].depth(), 2);
        assert_eq!(traces[1].depth(), 3);
        assert!(l.frames_walked() >= 3 + 4);
    }

    #[test]
    fn trace_listener_honours_early_termination() {
        let mut l = TraceListener::new();
        // The sampled callee m4 blocks extension: depth stays 1.
        l.on_sample(&snapshot(true, &[4, 3, 2, 1]), 5, |m| m != mid(4));
        // The immediate caller m3 blocks extension: depth stays 2.
        l.on_sample(&snapshot(true, &[4, 3, 2, 1]), 5, |m| m != mid(3));
        let traces: Vec<_> = l.drain().collect();
        assert_eq!(traces[0].depth(), 1);
        assert_eq!(traces[1].depth(), 2);
    }

    #[test]
    fn trace_listener_skips_bottom_frame() {
        let mut l = TraceListener::new();
        l.on_sample(&snapshot(true, &[7]), 1, |_| true); // no caller
        assert_eq!(l.buffered(), 0);
        assert_eq!(l.samples_recorded(), 0);
    }

    #[test]
    fn trace_listener_ignores_non_prologue() {
        let mut l = TraceListener::new();
        let walked = l.on_sample(&snapshot(false, &[4, 3]), 5, |_| true);
        assert_eq!(walked, 0);
        assert_eq!(l.buffered(), 0);
        assert_eq!(l.samples_recorded(), 0);
    }
}
