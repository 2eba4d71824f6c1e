//! The unified experiment-configuration surface: every `AOCI_*`
//! environment knob, parsed **once** into a typed [`EnvConfig`].
//!
//! Historically each binary, bench and test read its own ad-hoc
//! `std::env::var("AOCI_…")` calls, scattered across five files with
//! subtly different parsing rules. This module is now the only place in
//! the workspace that reads `AOCI_*` variables (enforced by
//! `knob_registry_is_closed` below plus a CI grep): a harness entry point
//! calls [`EnvConfig::from_env`] exactly once at startup and passes the
//! struct down explicitly. Everything below the entry point — and in
//! particular every job the parallel sweep pool runs — is environment-
//! read-free, which is what makes a job a pure function of its descriptor.
//!
//! Each knob is described by a [`Knob`] entry in [`KNOBS`]; the parser
//! reads variables *through* those descriptors, so the generated table
//! (`diag --knobs`, EXPERIMENTS.md) cannot drift from the implementation.
//!
//! Parsing rules, uniform across knobs:
//!
//! * **flags** (`bool`) — set to anything non-empty other than `0` ⇒ on;
//!   unset, empty or `0` ⇒ off.
//! * **numbers** — unset or empty ⇒ the default; malformed non-empty
//!   values are an error ([`EnvConfig::from_env`] exits with a diagnostic
//!   rather than silently measuring the wrong configuration).
//! * **strings** — unset ⇒ the default; set (even to empty, for
//!   `AOCI_EXPLAIN`) ⇒ the given value.

use aoci_core::{default_workers, JobPool};

/// Description of one `AOCI_*` environment knob: its name, value type,
/// default, and one-line effect. [`KNOBS`] collects every knob; the parser
/// reads the environment only through these descriptors.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// Environment variable name (`AOCI_…`).
    pub name: &'static str,
    /// Human-readable value type (`flag`, `usize`, …).
    pub ty: &'static str,
    /// Human-readable default.
    pub default: &'static str,
    /// One-line effect description.
    pub effect: &'static str,
}

/// `AOCI_JOBS` — sweep worker threads.
pub const JOBS: Knob = Knob {
    name: "AOCI_JOBS",
    ty: "usize",
    default: "available parallelism",
    effect: "worker threads for sweep harnesses; 0/unset = all cores, 1 = serial. \
             Results are byte-identical for any value.",
};

/// `AOCI_REPS` — repetitions per grid configuration.
pub const REPS: Knob = Knob {
    name: "AOCI_REPS",
    ty: "usize",
    default: "3",
    effect: "repetitions per (workload, policy) grid cell; median/mean aggregated \
             (the paper's best-of-20 stand-in).",
};

/// `AOCI_OSR` — enable on-stack replacement.
pub const OSR: Knob = Knob {
    name: "AOCI_OSR",
    ty: "flag",
    default: "off",
    effect: "enable on-stack replacement in sweep/smoke runs (DESIGN.md \u{a7}7).",
};

/// `AOCI_TRACE` — enable the flight recorder.
pub const TRACE: Knob = Knob {
    name: "AOCI_TRACE",
    ty: "flag",
    default: "off",
    effect: "enable flight-recorder event tracing (DESIGN.md \u{a7}8); zero simulated-cycle \
             overhead, so metrics are unchanged.",
};

/// `AOCI_ASYNC` — enable background compilation.
pub const ASYNC: Knob = Knob {
    name: "AOCI_ASYNC",
    ty: "flag",
    default: "off",
    effect: "enable asynchronous background compilation (DESIGN.md \u{a7}10) in sweep and \
             smoke runs.",
};

/// `AOCI_QUICK` — reduced sweep.
pub const QUICK: Knob = Knob {
    name: "AOCI_QUICK",
    ty: "flag",
    default: "off",
    effect: "reduced sensitivity sweep (max levels 2\u{2013}3 instead of 2\u{2013}5) for fast \
             iteration.",
};

/// `AOCI_RERUN` — ignore the cached grid.
pub const RERUN: Knob = Knob {
    name: "AOCI_RERUN",
    ty: "flag",
    default: "off",
    effect: "ignore the cached results/grid.json and re-measure every cell.",
};

/// `AOCI_RESULTS_DIR` — results directory.
pub const RESULTS_DIR: Knob = Knob {
    name: "AOCI_RESULTS_DIR",
    ty: "string",
    default: "results",
    effect: "directory holding grid.json and other sweep artifacts.",
};

/// `AOCI_FAULTS` — fault-injection seed.
pub const FAULTS: Knob = Knob {
    name: "AOCI_FAULTS",
    ty: "u64 (optional)",
    default: "unset (no faults)",
    effect: "enable the everything-on chaos fault-injection profile with this seed \
             (DESIGN.md \u{a7}6).",
};

/// `AOCI_TRACE_OUT` — Chrome-trace output path.
pub const TRACE_OUT: Knob = Knob {
    name: "AOCI_TRACE_OUT",
    ty: "string",
    default: "results/smoke_trace.json",
    effect: "where smoke writes the richest retained Chrome-trace window.",
};

/// `AOCI_EXPLAIN` — inlining-decision explain filter.
pub const EXPLAIN: Knob = Knob {
    name: "AOCI_EXPLAIN",
    ty: "string (optional)",
    default: "unset (no explain lines)",
    effect: "print one explain line per inlining decision/refusal whose host, callee or \
             site matches this pattern (empty matches all); needs AOCI_TRACE=1.",
};

/// `AOCI_ORACLE_SEED` — differential-oracle fault seed.
pub const ORACLE_SEED: Knob = Knob {
    name: "AOCI_ORACLE_SEED",
    ty: "u64",
    default: "1",
    effect: "fault seed for the differential-oracle test matrix.",
};

/// `AOCI_FUZZ_ITERS` — fuzz-campaign budget.
pub const FUZZ_ITERS: Knob = Knob {
    name: "AOCI_FUZZ_ITERS",
    ty: "usize",
    default: "200",
    effect: "generated programs per differential fuzzing campaign (DESIGN.md \u{a7}12); \
             each runs the full oracle matrix.",
};

/// `AOCI_FUZZ_SEED` — fuzz-campaign seed.
pub const FUZZ_SEED: Knob = Knob {
    name: "AOCI_FUZZ_SEED",
    ty: "u64",
    default: "1",
    effect: "campaign seed for the fuzz generator; the corpus fingerprint is a pure \
             function of (seed, iters), independent of AOCI_JOBS.",
};

/// `AOCI_METRICS` — enable the telemetry registry.
pub const METRICS: Knob = Knob {
    name: "AOCI_METRICS",
    ty: "flag",
    default: "off",
    effect: "enable the telemetry metrics registry (DESIGN.md \u{a7}14) in sweep, smoke, \
             diag and fuzz runs; zero simulated-cycle overhead, so primary artifacts \
             are byte-identical on/off.",
};

/// `AOCI_METRICS_OUT` — telemetry export path.
pub const METRICS_OUT: Knob = Knob {
    name: "AOCI_METRICS_OUT",
    ty: "string",
    default: "results/smoke_metrics.jsonl",
    effect: "where smoke writes the JSONL time-series export (the Prometheus text dump \
             lands next to it with a .prom extension); needs AOCI_METRICS=1.",
};

/// `AOCI_FLEET_REPLICAS` — fleet-simulation replica count.
pub const FLEET_REPLICAS: Knob = Knob {
    name: "AOCI_FLEET_REPLICAS",
    ty: "usize",
    default: "100",
    effect: "VM replicas in the fleet serving simulation (DESIGN.md \u{a7}15); the warmup \
             report contrasts replica #1 with the last replica.",
};

/// `AOCI_FLEET_CACHE` — compile-server cache capacity.
pub const FLEET_CACHE: Knob = Knob {
    name: "AOCI_FLEET_CACHE",
    ty: "usize",
    default: "64",
    effect: "compile-server code-cache capacity in entries, per workload; over capacity \
             the lowest-benefit, least-recently-used entry is evicted.",
};

/// `AOCI_FLEET_SEED` — fleet traffic-schedule seed.
pub const FLEET_SEED: Knob = Knob {
    name: "AOCI_FLEET_SEED",
    ty: "u64",
    default: "1",
    effect: "seed for the deterministic fleet traffic schedule (tenant mix, diurnal \
             shift, hot-set churn); the fleet report is a pure function of \
             (replicas, cache, seed), independent of AOCI_JOBS.",
};

/// `AOCI_FLEET_OUT` — fleet report path.
pub const FLEET_OUT: Knob = Knob {
    name: "AOCI_FLEET_OUT",
    ty: "string",
    default: "results/fleet.json",
    effect: "where the fleet bin writes its report.",
};

/// Every knob the harness understands, in documentation order. `diag
/// --knobs` and the EXPERIMENTS.md table render from this slice.
pub const KNOBS: &[Knob] = &[
    JOBS,
    REPS,
    OSR,
    TRACE,
    ASYNC,
    QUICK,
    RERUN,
    RESULTS_DIR,
    FAULTS,
    TRACE_OUT,
    EXPLAIN,
    ORACLE_SEED,
    FUZZ_ITERS,
    FUZZ_SEED,
    METRICS,
    METRICS_OUT,
    FLEET_REPLICAS,
    FLEET_CACHE,
    FLEET_SEED,
    FLEET_OUT,
];

/// All `AOCI_*` knobs, parsed once. Construct with [`EnvConfig::from_env`]
/// at the entry point and pass `&EnvConfig` down; nothing below the entry
/// point reads the environment.
#[derive(Clone, Debug)]
pub struct EnvConfig {
    /// Sweep worker threads ([`JOBS`]), resolved: `0`/unset becomes the
    /// machine's available parallelism, so this is always ≥ 1.
    pub jobs: usize,
    /// Repetitions per grid configuration ([`REPS`]).
    pub reps: usize,
    /// On-stack replacement in sweeps ([`OSR`]).
    pub osr: bool,
    /// Flight recorder in sweeps ([`TRACE`]).
    pub trace: bool,
    /// Asynchronous background compilation in sweeps ([`ASYNC`]).
    pub async_compile: bool,
    /// Reduced sweep ([`QUICK`]).
    pub quick: bool,
    /// Ignore the cached grid ([`RERUN`]).
    pub rerun: bool,
    /// Results directory ([`RESULTS_DIR`]).
    pub results_dir: String,
    /// Chaos fault-injection seed ([`FAULTS`]).
    pub faults: Option<u64>,
    /// Chrome-trace output path for smoke ([`TRACE_OUT`]).
    pub trace_out: String,
    /// Explain-filter pattern ([`EXPLAIN`]); `Some("")` matches everything.
    pub explain: Option<String>,
    /// Differential-oracle fault seed ([`ORACLE_SEED`]).
    pub oracle_seed: u64,
    /// Fuzz-campaign program budget ([`FUZZ_ITERS`]).
    pub fuzz_iters: usize,
    /// Fuzz-campaign seed ([`FUZZ_SEED`]).
    pub fuzz_seed: u64,
    /// Telemetry metrics registry ([`METRICS`]).
    pub metrics: bool,
    /// Telemetry JSONL export path for smoke ([`METRICS_OUT`]).
    pub metrics_out: String,
    /// Fleet-simulation replica count ([`FLEET_REPLICAS`]).
    pub fleet_replicas: usize,
    /// Compile-server cache capacity ([`FLEET_CACHE`]).
    pub fleet_cache: usize,
    /// Fleet traffic-schedule seed ([`FLEET_SEED`]).
    pub fleet_seed: u64,
    /// Fleet report path ([`FLEET_OUT`]).
    pub fleet_out: String,
}

/// Raw environment read — the **only** `std::env::var` call in the
/// workspace that touches an `AOCI_*` name, and it goes through a
/// [`Knob`] descriptor so reads and documentation cannot diverge.
fn raw(k: &Knob) -> Option<String> {
    std::env::var(k.name).ok()
}

/// Uniform flag semantics: set to anything non-empty other than `0`.
fn flag(k: &Knob) -> bool {
    raw(k).is_some_and(|s| !s.trim().is_empty() && s.trim() != "0")
}

/// Uniform number semantics: unset/empty ⇒ `None` (caller defaults),
/// malformed ⇒ `Err` naming the knob.
fn number<T: std::str::FromStr>(k: &Knob) -> Result<Option<T>, String> {
    match raw(k) {
        None => Ok(None),
        Some(s) if s.trim().is_empty() => Ok(None),
        Some(s) => s
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| format!("{} must be a {}, got {:?}", k.name, k.ty, s)),
    }
}

impl Default for EnvConfig {
    /// The configuration with **no** environment variable set — every knob
    /// at its documented default.
    fn default() -> Self {
        EnvConfig {
            jobs: default_workers(),
            reps: 3,
            osr: false,
            trace: false,
            async_compile: false,
            quick: false,
            rerun: false,
            results_dir: "results".to_string(),
            faults: None,
            trace_out: "results/smoke_trace.json".to_string(),
            explain: None,
            oracle_seed: 1,
            fuzz_iters: 200,
            fuzz_seed: 1,
            metrics: false,
            metrics_out: "results/smoke_metrics.jsonl".to_string(),
            fleet_replicas: 100,
            fleet_cache: 64,
            fleet_seed: 1,
            fleet_out: "results/fleet.json".to_string(),
        }
    }
}

impl EnvConfig {
    /// Parses every knob from the environment; malformed values are an
    /// error naming the offending variable.
    pub fn try_from_env() -> Result<Self, String> {
        let defaults = EnvConfig::default();
        Ok(EnvConfig {
            jobs: match number::<usize>(&JOBS)? {
                None | Some(0) => default_workers(),
                Some(n) => n,
            },
            reps: number(&REPS)?.unwrap_or(defaults.reps).max(1),
            osr: flag(&OSR),
            trace: flag(&TRACE),
            async_compile: flag(&ASYNC),
            quick: flag(&QUICK),
            rerun: flag(&RERUN),
            results_dir: raw(&RESULTS_DIR).unwrap_or(defaults.results_dir),
            faults: number(&FAULTS)?,
            trace_out: raw(&TRACE_OUT).unwrap_or(defaults.trace_out),
            explain: raw(&EXPLAIN),
            oracle_seed: number(&ORACLE_SEED)?.unwrap_or(defaults.oracle_seed),
            fuzz_iters: number(&FUZZ_ITERS)?.unwrap_or(defaults.fuzz_iters),
            fuzz_seed: number(&FUZZ_SEED)?.unwrap_or(defaults.fuzz_seed),
            metrics: flag(&METRICS),
            metrics_out: raw(&METRICS_OUT).unwrap_or(defaults.metrics_out),
            fleet_replicas: number(&FLEET_REPLICAS)?.unwrap_or(defaults.fleet_replicas).max(1),
            fleet_cache: number(&FLEET_CACHE)?.unwrap_or(defaults.fleet_cache),
            fleet_seed: number(&FLEET_SEED)?.unwrap_or(defaults.fleet_seed),
            fleet_out: raw(&FLEET_OUT).unwrap_or(defaults.fleet_out),
        })
    }

    /// [`EnvConfig::try_from_env`] for binary entry points: prints the
    /// diagnostic and exits 2 on a malformed knob.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// The sweep pool this configuration asks for.
    pub fn pool(&self) -> JobPool {
        JobPool::new(self.jobs)
    }

    /// The knob table — name, type, default, effect — as table rows, for
    /// `diag --knobs` and the EXPERIMENTS.md table. Rendered straight from
    /// [`KNOBS`], so it cannot drift from what the parser understands.
    pub fn knob_rows() -> Vec<Vec<String>> {
        KNOBS
            .iter()
            .map(|k| {
                vec![
                    k.name.to_string(),
                    k.ty.to_string(),
                    k.default.to_string(),
                    k.effect.split_whitespace().collect::<Vec<_>>().join(" "),
                ]
            })
            .collect()
    }

    /// The knob table as GitHub-flavoured markdown — the exact text between
    /// the `knob-table` markers in EXPERIMENTS.md. `diag --knobs --md`
    /// prints it, and the `knob_docs` test asserts the file matches, so the
    /// documented table cannot drift from the registry ([`KNOBS`]).
    pub fn knob_markdown() -> String {
        let mut out = String::from("| Knob | Type | Default | Effect |\n|---|---|---|---|\n");
        for row in Self::knob_rows() {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                row[0], row[1], row[2], row[3]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is closed: exactly these knobs, each named once, all
    /// under the `AOCI_` prefix. (A companion CI grep asserts no
    /// `std::env::var("AOCI_` call site exists outside this module.)
    #[test]
    fn knob_registry_is_closed() {
        assert_eq!(KNOBS.len(), 20);
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(names, unique, "duplicate knob names");
        for k in KNOBS {
            assert!(k.name.starts_with("AOCI_"), "{} lacks the AOCI_ prefix", k.name);
            assert!(!k.ty.is_empty() && !k.default.is_empty() && !k.effect.is_empty());
        }
    }

    #[test]
    fn defaults_are_sane() {
        let d = EnvConfig::default();
        assert!(d.jobs >= 1);
        assert_eq!(d.reps, 3);
        assert!(!d.osr && !d.trace && !d.async_compile && !d.quick && !d.rerun);
        assert_eq!(d.results_dir, "results");
        assert_eq!(d.faults, None);
        assert_eq!(d.oracle_seed, 1);
    }

    #[test]
    fn knob_rows_cover_every_knob() {
        let rows = EnvConfig::knob_rows();
        assert_eq!(rows.len(), KNOBS.len());
        for (row, k) in rows.iter().zip(KNOBS) {
            assert_eq!(row[0], k.name);
            assert_eq!(row.len(), 4);
        }
    }
}
