//! Source-level stack snapshots delivered to samplers.

use aoci_ir::{CallSiteRef, MethodId, SiteIdx};

/// One source-level stack frame within a [`StackSnapshot`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SourceFrame {
    /// The method executing in this source-level frame.
    pub method: MethodId,
    /// The call site *in this frame's method* through which the next inner
    /// frame was entered; `None` for the innermost frame.
    pub callsite_to_inner: Option<SiteIdx>,
}

/// What a timer-based sample observes: the source-level call stack
/// (innermost first), reconstructed through inline maps, plus the
/// machine-level information the listeners need.
#[derive(Clone, PartialEq, Debug)]
pub struct StackSnapshot {
    /// Source-level frames, innermost first. Walk depth is capped by the
    /// VM's configuration; deep recursion yields a truncated (prefix) view.
    pub frames: Vec<SourceFrame>,
    /// The *compiled method* at the top of the machine stack — the unit the
    /// method listener attributes the sample to and the controller
    /// recompiles.
    pub root_method: MethodId,
    /// Whether the sample landed in the (source-level) prologue of the
    /// innermost frame. Edge and trace listeners only record prologue
    /// samples (paper Section 3.2).
    pub top_in_prologue: bool,
    /// Simulated time at which the sample was taken.
    pub cycles: u64,
}

impl StackSnapshot {
    /// Returns the innermost source-level method, if the stack is non-empty.
    pub fn top_method(&self) -> Option<MethodId> {
        self.frames.first().map(|f| f.method)
    }

    /// Builds the call trace of the paper's Equation 2 from this snapshot:
    /// returns the callee (innermost method) and leaves in `context` — the
    /// caller's buffer, cleared first, so that a listener walks every sample
    /// into the same allocation — up to `max_context` ⟨caller, callsite⟩
    /// pairs, innermost caller first.
    ///
    /// Returns `None` if the stack is empty or has no caller (an edge/trace
    /// needs at least one call). The `keep_extending` predicate implements
    /// the adaptive early-termination policies: it is consulted before each
    /// *additional* context level beyond the first, receiving the **callee
    /// of the most recently added edge** (so the first consultation sees the
    /// sampled callee itself — an immediately-parameterless callee stops the
    /// walk at one edge, matching the paper's "20% of sampled callee methods
    /// … require no additional context sensitivity"). Returning `false`
    /// stops the walk. The first level (the immediate caller — a plain call
    /// edge) is always included.
    pub fn call_trace(
        &self,
        max_context: usize,
        mut keep_extending: impl FnMut(MethodId) -> bool,
        context: &mut Vec<CallSiteRef>,
    ) -> Option<MethodId> {
        context.clear();
        let callee = self.frames.first()?.method;
        if self.frames.len() < 2 {
            return None;
        }
        // frames[i] for i >= 1 is the caller of frames[i-1]; the call site
        // lives on frames[i] as `callsite_to_inner`.
        for i in 1..self.frames.len() {
            if context.len() >= max_context {
                break;
            }
            if i >= 2 {
                // Extend past the recorded context only if the callee side
                // of the last edge admits incoming state: frames[i - 2] is
                // the callee of edge i - 1.
                if !keep_extending(self.frames[i - 2].method) {
                    break;
                }
            }
            let caller = self.frames[i].method;
            // Non-innermost frames normally carry a call site; a frame
            // without one means the walk was truncated or the snapshot is
            // damaged — stop extending rather than panic, yielding a
            // shorter (still valid) context.
            let Some(site) = self.frames[i].callsite_to_inner else {
                break;
            };
            context.push(CallSiteRef::new(caller, site));
        }
        Some(callee)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(i: usize) -> MethodId {
        MethodId::from_index(i)
    }

    fn snap(frames: Vec<SourceFrame>) -> StackSnapshot {
        StackSnapshot {
            root_method: frames.last().map(|f| f.method).unwrap_or(mid(0)),
            frames,
            top_in_prologue: true,
            cycles: 0,
        }
    }

    fn frame(m: usize, site: Option<u16>) -> SourceFrame {
        SourceFrame {
            method: mid(m),
            callsite_to_inner: site.map(SiteIdx),
        }
    }

    #[test]
    fn trace_of_simple_stack() {
        // D called from C@2 called from B@1 called from A@0.
        let s = snap(vec![
            frame(3, None),
            frame(2, Some(2)),
            frame(1, Some(1)),
            frame(0, Some(0)),
        ]);
        let mut ctx = Vec::new();
        assert_eq!(s.call_trace(5, |_| true, &mut ctx), Some(mid(3)));
        assert_eq!(
            ctx,
            vec![
                CallSiteRef::new(mid(2), SiteIdx(2)),
                CallSiteRef::new(mid(1), SiteIdx(1)),
                CallSiteRef::new(mid(0), SiteIdx(0)),
            ]
        );
    }

    #[test]
    fn max_context_truncates() {
        let s = snap(vec![
            frame(3, None),
            frame(2, Some(2)),
            frame(1, Some(1)),
            frame(0, Some(0)),
        ]);
        // The buffer's previous contents are not part of the trace.
        let mut ctx = vec![CallSiteRef::new(mid(9), SiteIdx(9))];
        assert!(s.call_trace(2, |_| true, &mut ctx).is_some());
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx[0].method, mid(2));
        assert_eq!(ctx[1].method, mid(1));
    }

    #[test]
    fn early_termination_stops_walk_but_keeps_first_edge() {
        let s = snap(vec![
            frame(3, None),
            frame(2, Some(2)),
            frame(1, Some(1)),
            frame(0, Some(0)),
        ]);
        // Terminate immediately: still records the immediate caller edge.
        let mut ctx = Vec::new();
        assert!(s.call_trace(5, |_| false, &mut ctx).is_some());
        assert_eq!(ctx.len(), 1);
        assert_eq!(ctx[0].method, mid(2));
    }

    #[test]
    fn termination_predicate_sees_callee_side_methods() {
        let s = snap(vec![
            frame(3, None),
            frame(2, Some(2)),
            frame(1, Some(1)),
            frame(0, Some(0)),
        ]);
        let mut seen = Vec::new();
        let _ = s.call_trace(
            5,
            |m| {
                seen.push(m);
                true
            },
            &mut Vec::new(),
        );
        // Extension decisions are made before adding levels 2 and 3; the
        // callee-side methods of the last added edges are m3 (the sampled
        // callee) then m2 (the immediate caller).
        assert_eq!(seen, vec![mid(3), mid(2)]);
    }

    #[test]
    fn no_trace_without_caller() {
        let s = snap(vec![frame(0, None)]);
        assert!(s.call_trace(5, |_| true, &mut Vec::new()).is_none());
        let empty = snap(vec![]);
        assert!(empty.call_trace(5, |_| true, &mut Vec::new()).is_none());
        assert_eq!(empty.top_method(), None);
    }
}
