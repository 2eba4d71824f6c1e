//! Context-sensitivity policies (paper Section 4).

use crate::adaptive::AdaptiveState;
use aoci_ir::{CallSiteRef, MethodId, Program, SizeClass};
use aoci_profile::Dcg;
use std::fmt;

/// Which context-sensitivity policy governs trace collection.
///
/// `max` is the maximum number of call edges a collected trace may contain
/// (the paper sweeps 2–5). A value of 1 degenerates to context-insensitive
/// edge profiling for every policy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyKind {
    /// Plain context-insensitive edge profiling — the Jikes RVM baseline the
    /// paper compares against.
    ContextInsensitive,
    /// Fixed-level sensitivity (Section 4.2): always collect `max` edges.
    Fixed {
        /// Maximum trace depth in call edges.
        max: u8,
    },
    /// Early termination at parameterless methods (Section 4.3): stop
    /// extending once the callee side of the last edge takes no parameters —
    /// no state flows into it from further up the stack.
    Parameterless {
        /// Maximum trace depth in call edges.
        max: u8,
    },
    /// Early termination at class (static) methods: no `this` state flows
    /// through a static method.
    ClassMethods {
        /// Maximum trace depth in call edges.
        max: u8,
    },
    /// Early termination one level above a large method: large methods are
    /// never inlined into a parent, so context beyond their caller is
    /// useless to the inliner.
    LargeMethods {
        /// Maximum trace depth in call edges.
        max: u8,
    },
    /// Hybrid 1: parameterless **or** class-method termination.
    ParameterlessClass {
        /// Maximum trace depth in call edges.
        max: u8,
    },
    /// Hybrid 2: parameterless **or** large-method termination.
    ParameterlessLarge {
        /// Maximum trace depth in call edges.
        max: u8,
    },
    /// Section 4.3 "Adaptively Resolving Imprecisions": start context-
    /// insensitive everywhere; escalate the collection depth only for call
    /// sites whose callee distribution is polymorphic and unskewed, until
    /// the imprecision resolves or the site is deemed inherently too
    /// polymorphic. (Described but not implemented in the paper; this is
    /// the extension implementation.)
    AdaptiveResolving {
        /// Maximum escalation depth in call edges.
        max: u8,
    },
}

impl PolicyKind {
    /// Maximum trace depth this policy will ever collect.
    pub fn max_depth(&self) -> u8 {
        match *self {
            PolicyKind::ContextInsensitive => 1,
            PolicyKind::Fixed { max }
            | PolicyKind::Parameterless { max }
            | PolicyKind::ClassMethods { max }
            | PolicyKind::LargeMethods { max }
            | PolicyKind::ParameterlessClass { max }
            | PolicyKind::ParameterlessLarge { max }
            | PolicyKind::AdaptiveResolving { max } => max.max(1),
        }
    }

    /// The six policies evaluated in the paper's Section 5, at a given
    /// maximum sensitivity, in figure order (a)–(f).
    pub fn evaluated(max: u8) -> [PolicyKind; 6] {
        [
            PolicyKind::Fixed { max },
            PolicyKind::Parameterless { max },
            PolicyKind::ClassMethods { max },
            PolicyKind::LargeMethods { max },
            PolicyKind::ParameterlessClass { max },
            PolicyKind::ParameterlessLarge { max },
        ]
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PolicyKind::ContextInsensitive => f.write_str("cins"),
            PolicyKind::Fixed { max } => write!(f, "fixed(max={max})"),
            PolicyKind::Parameterless { max } => write!(f, "paramLess(max={max})"),
            PolicyKind::ClassMethods { max } => write!(f, "class(max={max})"),
            PolicyKind::LargeMethods { max } => write!(f, "large(max={max})"),
            PolicyKind::ParameterlessClass { max } => write!(f, "hybrid1(max={max})"),
            PolicyKind::ParameterlessLarge { max } => write!(f, "hybrid2(max={max})"),
            PolicyKind::AdaptiveResolving { max } => write!(f, "adaptiveResolve(max={max})"),
        }
    }
}

/// The runtime policy object: owns per-site adaptive state (used only by
/// [`PolicyKind::AdaptiveResolving`]) and answers the two questions the
/// trace listener asks per sample — how deep may this trace go, and should
/// the walk stop early at a given method.
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    kind: PolicyKind,
    adaptive: AdaptiveState,
}

impl PolicyEngine {
    /// Creates a policy engine.
    pub fn new(kind: PolicyKind) -> Self {
        PolicyEngine { kind, adaptive: AdaptiveState::new(kind.max_depth()) }
    }

    /// Returns the policy kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Maximum context depth to collect for a sample whose immediate call
    /// site is `site` (`None` when the sampled frame has no caller, or the
    /// caller is unknown).
    pub fn max_context_for(&self, site: Option<CallSiteRef>) -> usize {
        match self.kind {
            PolicyKind::ContextInsensitive => 1,
            PolicyKind::AdaptiveResolving { .. } => self.adaptive.level_for(site),
            _ => self.kind.max_depth() as usize,
        }
    }

    /// Early-termination predicate: may the trace walk extend past a method
    /// `m` appearing as the callee side of the last collected edge?
    pub fn keep_extending(&self, program: &Program, m: MethodId) -> bool {
        let def = program.method(m);
        let parameterless_stop = def.is_parameterless();
        let class_stop = def.kind().is_static();
        let large_stop = def.size_class() == SizeClass::Large;
        match self.kind {
            PolicyKind::ContextInsensitive => false,
            PolicyKind::Fixed { .. } | PolicyKind::AdaptiveResolving { .. } => true,
            PolicyKind::Parameterless { .. } => !parameterless_stop,
            PolicyKind::ClassMethods { .. } => !class_stop,
            PolicyKind::LargeMethods { .. } => !large_stop,
            PolicyKind::ParameterlessClass { .. } => !(parameterless_stop || class_stop),
            PolicyKind::ParameterlessLarge { .. } => !(parameterless_stop || large_stop),
        }
    }

    /// Feeds DCG feedback to the adaptive-resolving state (no-op for other
    /// policies). Called periodically by the AI organizer.
    pub fn adaptive_feedback(&mut self, dcg: &Dcg) {
        if matches!(self.kind, PolicyKind::AdaptiveResolving { .. }) {
            self.adaptive.update(dcg);
        }
    }

    /// Read access to the adaptive per-site state.
    pub fn adaptive(&self) -> &AdaptiveState {
        &self.adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::ProgramBuilder;

    /// main (static, 0 params, tiny), withParams (static, 2 params, small),
    /// big (static, 1 param, large), A.v (virtual, 0 params).
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.class("A", None);
        let sel = b.selector("v", 0);
        {
            let mut m = b.static_method("withParams", 2);
            m.work(20);
            m.ret(None);
            m.finish();
        }
        {
            let mut m = b.static_method("big", 1);
            m.work(500);
            m.ret(None);
            m.finish();
        }
        {
            let mut m = b.virtual_method("A.v", a, sel);
            m.work(30);
            m.ret(None);
            m.finish();
        }
        let main = {
            let mut m = b.static_method("main", 0);
            m.ret(None);
            m.finish()
        };
        b.finish(main).unwrap()
    }

    fn m(p: &Program, name: &str) -> MethodId {
        p.method_by_name(name).unwrap()
    }

    #[test]
    fn max_depths() {
        assert_eq!(PolicyKind::ContextInsensitive.max_depth(), 1);
        assert_eq!(PolicyKind::Fixed { max: 4 }.max_depth(), 4);
        assert_eq!(PolicyKind::Fixed { max: 0 }.max_depth(), 1);
        let e = PolicyEngine::new(PolicyKind::ContextInsensitive);
        assert_eq!(e.max_context_for(None), 1);
        let f = PolicyEngine::new(PolicyKind::Fixed { max: 3 });
        assert_eq!(f.max_context_for(None), 3);
    }

    #[test]
    fn parameterless_policy_stops_at_parameterless() {
        let p = program();
        let e = PolicyEngine::new(PolicyKind::Parameterless { max: 5 });
        assert!(!e.keep_extending(&p, m(&p, "main"))); // 0 params
        assert!(!e.keep_extending(&p, m(&p, "A.v"))); // receiver only
        assert!(e.keep_extending(&p, m(&p, "withParams")));
        assert!(e.keep_extending(&p, m(&p, "big")));
    }

    #[test]
    fn class_policy_stops_at_statics() {
        let p = program();
        let e = PolicyEngine::new(PolicyKind::ClassMethods { max: 5 });
        assert!(!e.keep_extending(&p, m(&p, "withParams")));
        assert!(!e.keep_extending(&p, m(&p, "big")));
        assert!(e.keep_extending(&p, m(&p, "A.v")));
    }

    #[test]
    fn large_policy_stops_at_large_methods() {
        let p = program();
        let e = PolicyEngine::new(PolicyKind::LargeMethods { max: 5 });
        assert!(!e.keep_extending(&p, m(&p, "big")));
        assert!(e.keep_extending(&p, m(&p, "withParams")));
        assert!(e.keep_extending(&p, m(&p, "A.v")));
    }

    #[test]
    fn hybrids_combine_conditions() {
        let p = program();
        let h1 = PolicyEngine::new(PolicyKind::ParameterlessClass { max: 5 });
        assert!(!h1.keep_extending(&p, m(&p, "A.v"))); // parameterless
        assert!(!h1.keep_extending(&p, m(&p, "withParams"))); // static
        let h2 = PolicyEngine::new(PolicyKind::ParameterlessLarge { max: 5 });
        assert!(!h2.keep_extending(&p, m(&p, "A.v"))); // parameterless
        assert!(!h2.keep_extending(&p, m(&p, "big"))); // large
        assert!(h2.keep_extending(&p, m(&p, "withParams")));
    }

    #[test]
    fn fixed_never_terminates_early() {
        let p = program();
        let e = PolicyEngine::new(PolicyKind::Fixed { max: 5 });
        for name in ["main", "withParams", "big", "A.v"] {
            assert!(e.keep_extending(&p, m(&p, name)));
        }
    }

    #[test]
    fn evaluated_covers_figure_order() {
        let v = PolicyKind::evaluated(3);
        assert!(matches!(v[0], PolicyKind::Fixed { max: 3 }));
        assert!(matches!(v[5], PolicyKind::ParameterlessLarge { max: 3 }));
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::ContextInsensitive.to_string(), "cins");
        assert_eq!(PolicyKind::Fixed { max: 2 }.to_string(), "fixed(max=2)");
        assert_eq!(
            PolicyKind::ParameterlessLarge { max: 5 }.to_string(),
            "hybrid2(max=5)"
        );
    }
}
