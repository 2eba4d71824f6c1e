//! Profile sanitization: the validation gate at the profile-store boundary.
//!
//! Profile data flows into the dynamic call graph from several producers
//! (the online trace listener, seeded profiles — a training run's, or a
//! fleet's [`merge_profiles`](crate::merge_profiles) result — and, in
//! fault-injection runs, a deliberately hostile injector).
//! A malformed trace that reaches the DCG poisons everything downstream:
//! rules form over non-existent methods, the missing-edge organizer requests
//! impossible compilations, and weights of `NaN` make every hot-threshold
//! comparison vacuous. The sanitizer rejects such traces *at the boundary*
//! so the rest of the system can assume profile data is well-formed.

use crate::key::TraceKey;
use aoci_ir::Program;
use std::fmt;

/// Why a trace was rejected by [`validate_trace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceDefect {
    /// The callee method index does not exist in the program.
    UnknownCallee,
    /// A context method index does not exist in the program.
    UnknownContextMethod,
    /// A context call-site index is out of range for its method.
    UnknownCallSite,
    /// The weight is NaN or infinite.
    NonFiniteWeight,
    /// The weight is zero or negative.
    NonPositiveWeight,
}

impl fmt::Display for TraceDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceDefect::UnknownCallee => "callee method does not exist",
            TraceDefect::UnknownContextMethod => "context method does not exist",
            TraceDefect::UnknownCallSite => "context call site out of range",
            TraceDefect::NonFiniteWeight => "weight is not finite",
            TraceDefect::NonPositiveWeight => "weight is not positive",
        };
        f.write_str(s)
    }
}

/// Validates one `(trace, weight)` record against `program`.
///
/// # Errors
///
/// Returns the first [`TraceDefect`] found: unknown callee, unknown context
/// method, out-of-range call site, or a non-finite / non-positive weight.
pub fn validate_trace(
    program: &Program,
    key: &TraceKey,
    weight: f64,
) -> Result<(), TraceDefect> {
    if !weight.is_finite() {
        return Err(TraceDefect::NonFiniteWeight);
    }
    if weight <= 0.0 {
        return Err(TraceDefect::NonPositiveWeight);
    }
    let num_methods = program.num_methods();
    if key.callee().index() >= num_methods {
        return Err(TraceDefect::UnknownCallee);
    }
    for cs in key.context() {
        if cs.method.index() >= num_methods {
            return Err(TraceDefect::UnknownContextMethod);
        }
        if cs.site.0 >= program.method(cs.method).num_sites() {
            return Err(TraceDefect::UnknownCallSite);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::{CallSiteRef, MethodId, ProgramBuilder, SiteIdx};

    /// `main` calls `leaf` once: one method with one call site, one without.
    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let leaf = {
            let mut m = b.static_method("leaf", 0);
            let r = m.fresh_reg();
            m.const_int(r, 1);
            m.ret(Some(r));
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.call_static(Some(r), leaf, &[]);
            m.ret(Some(r));
            m.finish()
        };
        b.finish(main).unwrap()
    }

    fn edge(caller: usize, site: u16, callee: usize) -> TraceKey {
        TraceKey::edge(
            CallSiteRef::new(MethodId::from_index(caller), SiteIdx(site)),
            MethodId::from_index(callee),
        )
    }

    #[test]
    fn well_formed_trace_passes() {
        let p = tiny_program();
        // main (index 1) calls leaf (index 0) at its only site.
        assert_eq!(validate_trace(&p, &edge(1, 0, 0), 1.0), Ok(()));
    }

    #[test]
    fn unknown_indices_are_rejected() {
        let p = tiny_program();
        assert_eq!(
            validate_trace(&p, &edge(1, 0, 99), 1.0),
            Err(TraceDefect::UnknownCallee)
        );
        assert_eq!(
            validate_trace(&p, &edge(99, 0, 0), 1.0),
            Err(TraceDefect::UnknownContextMethod)
        );
        // `leaf` has no call sites at all.
        assert_eq!(
            validate_trace(&p, &edge(0, 0, 0), 1.0),
            Err(TraceDefect::UnknownCallSite)
        );
        assert_eq!(
            validate_trace(&p, &edge(1, 7, 0), 1.0),
            Err(TraceDefect::UnknownCallSite)
        );
    }

    #[test]
    fn bad_weights_are_rejected() {
        let p = tiny_program();
        let k = edge(1, 0, 0);
        assert_eq!(validate_trace(&p, &k, f64::NAN), Err(TraceDefect::NonFiniteWeight));
        assert_eq!(
            validate_trace(&p, &k, f64::INFINITY),
            Err(TraceDefect::NonFiniteWeight)
        );
        assert_eq!(validate_trace(&p, &k, -2.0), Err(TraceDefect::NonPositiveWeight));
        assert_eq!(validate_trace(&p, &k, 0.0), Err(TraceDefect::NonPositiveWeight));
    }
}
