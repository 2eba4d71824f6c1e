//! The fleet driver: one **tenant pipeline** per suite workload on the
//! [`JobPool`], with profile aggregation and compile-server batching
//! between a tenant's phases.
//!
//! Everything a replica run reads or feeds is indexed by the tenant it
//! serves, so a tenant waits for its own replicas and for nothing else
//! ([`JobPool::run_pipelines`]). Per tenant, each phase is four steps:
//!
//! 1. **rules + batch** — the merged fleet profile's hot traces become an
//!    inlining [`RuleSet`]; its fingerprint is the rules generation
//!    (bumping it broadcasts invalidation), and the server batch-compiles
//!    under it the requests the tenant's last serving phase queued — in
//!    every phase, served or not: they count in the phase after them;
//! 2. **snapshot** — if any replica draws the tenant this phase, its live
//!    cache entries become the read-only [`ServerSnapshot`] those replicas
//!    attach;
//! 3. **serve** — the pipeline's stage: each such replica runs the
//!    workload to completion under adaptive optimization
//!    ([`AosSystem::run_full`]), seeded with the merged fleet profile when
//!    one exists; its report's [`AosReport::compile_server`] ledger carries
//!    its hits and misses. Replica runs are pure functions of their inputs;
//! 4. **fold** — after the stage's last run, in canonical replica order:
//!    refresh LRU recency for each replica's hits, enqueue its missed
//!    methods, merge its final trace profile into the fleet profile.
//!
//! A tenant's state is touched by one worker at a time, in that tenant's
//! (phase, replica) order; tenants share only read-only programs; the
//! [`FleetReport`] is a fold of per-(tenant, phase) integers, each written
//! once: the server's by step 1, the replicas' by step 4. So every
//! `AOCI_JOBS` value and every interleaving produce the same report.
//!
//! The first replica's first phase is a cold boot; the last replica
//! activates in the final phase against the merged profile and a hot
//! cache. The [`FleetReport`] records both cycles-to-peak numbers — the
//! warmup amortization the fleet exists to measure.

use crate::report::{FleetReport, PhaseReport, WarmupReport};
use crate::schedule::{active_count, tenant, PHASES, TENANTS};
use crate::server::CompileServer;
use aoci_aos::{AosConfig, AosReport, AosSystem, ServerEvents, ServerSnapshot};
use aoci_core::{InlineOracle, JobPool, PolicyKind, RuleSet, SweepStats};
use aoci_ir::{MethodId, Program};
use aoci_opt::OptConfig;
use aoci_profile::{merge_profiles, TraceKey};
use aoci_workloads::{build, suite};
use std::sync::Arc;

/// The configuration every replica runs under. The server reads its
/// compiler settings — inliner budgets, oracle match mode, hotness
/// threshold — from here too, so a cached body is the one a replica's
/// local compile would build under the same rules.
fn replica_config() -> AosConfig {
    AosConfig::new(PolicyKind::Fixed { max: 3 })
}

/// The inlining rules of a merged fleet profile: every trace carrying at
/// least `threshold` of the total weight.
fn server_rules(profile: &[(TraceKey, f64)], threshold: f64) -> RuleSet {
    let total: f64 = profile.iter().map(|(_, w)| *w).sum();
    let hot = profile.iter().filter(|(_, w)| *w >= threshold * total).cloned();
    RuleSet::from_rules(hot, total)
}

/// Fleet-simulation parameters (the `AOCI_FLEET_*` knobs).
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// VM replicas in the fleet.
    pub replicas: usize,
    /// Per-tenant compile-server cache capacity in entries.
    pub cache_capacity: usize,
    /// Traffic-schedule seed.
    pub seed: u64,
}

/// The warmup measurement: the simulated cycle by which 90% of the run's
/// cumulative optimized-code size was installed. An adaptive run's *last*
/// installs are tail adaptation — decay- and churn-driven recompiles that
/// continue for as long as the run does — not warmup; the 90% mark tracks
/// when the replica's code reached serving shape.
fn cycles_to_peak(report: &AosReport) -> u64 {
    let total: u64 = report.compilations.iter().map(|c| u64::from(c.generated_size)).sum();
    if total == 0 {
        return 0;
    }
    let mut cumulative = 0u64;
    for c in &report.compilations {
        cumulative += u64::from(c.generated_size);
        if cumulative * 10 >= total * 9 {
            return c.cycle;
        }
    }
    report.compilations.last().map_or(0, |c| c.cycle)
}

/// One scheduled replica-phase serving run, with everything it reads.
struct ServeJob<'a> {
    replica: usize,
    /// The replica's first active phase: its warmup measurement.
    first: bool,
    program: &'a Program,
    snapshot: ServerSnapshot,
    profile: Arc<[(TraceKey, f64)]>,
}

/// What one replica's serving run yields back to its tenant.
struct ReplicaOutcome {
    /// `(replica, cycles to peak)` if this was the replica's first phase.
    first_peak: Option<(usize, u64)>,
    warm: bool,
    total_cycles: u64,
    opt_compilations: u64,
    server: ServerEvents,
    profile: Vec<(TraceKey, f64)>,
}

/// Step 3: one replica serves its tenant's workload to completion.
fn serve(job: ServeJob) -> ReplicaOutcome {
    let config = replica_config().enable_compile_server(job.snapshot);
    let mut sys = AosSystem::new(job.program, config);
    let warm = !job.profile.is_empty();
    if warm {
        sys.seed_profile(job.profile.iter().cloned());
    }
    let (report, _, profile) = sys.run_full().expect("fleet workload run failed");
    ReplicaOutcome {
        first_peak: job.first.then(|| (job.replica, cycles_to_peak(&report))),
        warm,
        total_cycles: report.total_cycles(),
        opt_compilations: u64::from(report.opt_compilations),
        profile,
        server: report.compile_server,
    }
}

/// One tenant's pipeline: all the mutable state its replicas' runs feed.
struct Tenant<'a> {
    program: &'a Program,
    /// Per phase, the `(replica, first activation)` pairs the schedule
    /// gives this tenant, in replica order.
    serving: Vec<Vec<(usize, bool)>>,
    server: CompileServer,
    /// Non-empty request batches the server has processed.
    batches: u64,
    /// The merged fleet profile; replaced only when a fold merges into it.
    profile: Arc<[(TraceKey, f64)]>,
    /// Missed methods awaiting the next batch, in request order — the
    /// batch's compile order, hence the cache's eviction order.
    pending: Vec<MethodId>,
    /// This tenant's share of the [`PhaseReport`] counters of each phase
    /// begun (one whose steps 1–2 have run) so far.
    partials: Vec<PhaseReport>,
    /// `(replica, cycles to peak)` of each first activation served here.
    first_peaks: Vec<(usize, u64)>,
}

impl<'a> Tenant<'a> {
    fn new(program: &'a Program, cache_capacity: usize) -> Self {
        Tenant {
            program,
            serving: vec![Vec::new(); PHASES.len()],
            server: CompileServer::new(cache_capacity),
            batches: 0,
            profile: Arc::default(),
            pending: Vec::new(),
            partials: Vec::new(),
            first_peaks: Vec::new(),
        }
    }

    /// Step 4 for the stage that just finished, then steps 1–2 of every
    /// following phase up to the next one served: its jobs, the next stage.
    fn advance(&mut self, outcomes: Vec<ReplicaOutcome>) -> Option<Vec<ServeJob<'a>>> {
        // No outcomes: the call that starts the pipeline. No stage is empty.
        if !outcomes.is_empty() {
            let report = self.partials.last_mut().expect("outcomes come from a phase begun");
            for o in &outcomes {
                self.server.touch(&o.server.hit_methods);
                for m in &o.server.requests {
                    if !self.pending.contains(m) {
                        self.pending.push(*m);
                        report.requests_batched += 1;
                    }
                }
                self.first_peaks.extend(o.first_peak);
                report.first_activations += usize::from(o.first_peak.is_some());
                report.warm_starts += u64::from(o.warm);
                report.cache_hits += o.server.hits;
                report.cache_misses += o.server.misses;
                report.total_cycles += o.total_cycles;
                report.opt_compilations += o.opt_compilations;
            }
            let replicas = outcomes.iter().map(|o| &o.profile[..]);
            self.profile = merge_profiles(std::iter::once(&*self.profile).chain(replicas)).into();
        }
        while self.partials.len() < PHASES.len() {
            let phase = self.partials.len();
            self.partials.push(PhaseReport::default());
            self.compile_batch(phase);
            if !self.serving[phase].is_empty() {
                let snapshot = self.server.snapshot();
                let job = |&(replica, first)| ServeJob {
                    replica,
                    first,
                    program: self.program,
                    snapshot: Arc::clone(&snapshot),
                    profile: Arc::clone(&self.profile),
                };
                return Some(self.serving[phase].iter().map(job).collect());
            }
        }
        None
    }

    /// Step 1 of `phase`; the server's activity counts in that phase.
    fn compile_batch(&mut self, phase: usize) {
        if self.profile.is_empty() {
            return;
        }
        let cfg = replica_config();
        let rules = server_rules(&self.profile, cfg.hot_edge_threshold);
        let invalidated = self.server.set_generation(rules.fingerprint());
        let queue = std::mem::take(&mut self.pending);
        self.batches += u64::from(!queue.is_empty());
        let oracle = InlineOracle::with_mode(Arc::new(rules), cfg.match_mode);
        let (compiles, evictions) =
            self.server.process_batch(self.program, &queue, &oracle, &OptConfig::default());
        let report = &mut self.partials[phase];
        report.server_compiles = compiles;
        report.evictions = evictions;
        report.invalidations = invalidated.unwrap_or(0);
        report.generation_bumps = u64::from(invalidated.is_some());
    }
}

/// Runs the full phased fleet simulation and returns its report.
///
/// The report is a pure function of `cfg` — independent of the pool's
/// worker count — which CI asserts by byte-diffing `results/fleet.json`
/// across `AOCI_JOBS` settings.
pub fn run_fleet(cfg: &FleetConfig, pool: &JobPool) -> FleetReport {
    run_fleet_timed(cfg, pool).0
}

/// [`run_fleet`] plus the pool's timing of the replica runs, which stays
/// out of the byte-diffed report.
pub fn run_fleet_timed(cfg: &FleetConfig, pool: &JobPool) -> (FleetReport, SweepStats) {
    let specs = suite();
    assert_eq!(specs.len(), TENANTS, "schedule tenant mixes cover the suite");
    let programs: Vec<Program> = specs.iter().map(|s| build(s).program).collect();
    let names: Vec<String> = specs.iter().map(|s| s.name.to_string()).collect();

    let n = cfg.replicas.max(1);
    let cache_capacity = cfg.cache_capacity.max(1);
    let mut tenants: Vec<Tenant> =
        programs.iter().map(|p| Tenant::new(p, cache_capacity)).collect();
    let mut seen = vec![false; n];
    for (p, phase) in PHASES.iter().enumerate() {
        for (replica, seen) in seen.iter_mut().enumerate().take(active_count(phase, n)) {
            let first = !std::mem::replace(seen, true);
            tenants[tenant(cfg.seed, replica, p, n)].serving[p].push((replica, first));
        }
    }

    // Every scheduled run is executed, also those that coincide today (two
    // replicas on one tenant in one phase): DESIGN.md §15 says why.
    let (tenants, stats) = pool.run_pipelines(tenants, Tenant::advance, serve);

    let mut phases = Vec::with_capacity(PHASES.len());
    for (p, phase) in PHASES.iter().enumerate() {
        let sum = |f: fn(&PhaseReport) -> u64| tenants.iter().map(|t| f(&t.partials[p])).sum();
        phases.push(PhaseReport {
            name: phase.name.to_string(),
            active_replicas: active_count(phase, n),
            first_activations: tenants.iter().map(|t| t.partials[p].first_activations).sum(),
            warm_starts: sum(|r| r.warm_starts),
            cache_hits: sum(|r| r.cache_hits),
            cache_misses: sum(|r| r.cache_misses),
            requests_batched: sum(|r| r.requests_batched),
            server_compiles: sum(|r| r.server_compiles),
            evictions: sum(|r| r.evictions),
            invalidations: sum(|r| r.invalidations),
            generation_bumps: sum(|r| r.generation_bumps),
            total_cycles: sum(|r| r.total_cycles),
            opt_compilations: sum(|r| r.opt_compilations),
        });
    }

    // Every server mutation happens in one tenant's step 1, which writes
    // it into that phase: the phases sum to the servers' totals.
    let sum = |f: fn(&PhaseReport) -> u64| phases.iter().map(f).sum::<u64>();
    let counters = [
        ("fleet_replica_runs", sum(|p| p.active_replicas as u64)),
        ("fleet_warm_starts", sum(|p| p.warm_starts)),
        ("fleet_cold_starts", sum(|p| p.active_replicas as u64 - p.warm_starts)),
        ("replica_cache_hits", sum(|p| p.cache_hits)),
        ("replica_cache_misses", sum(|p| p.cache_misses)),
        ("requests_batched", sum(|p| p.requests_batched)),
        ("server_batches", tenants.iter().map(|t| t.batches).sum()),
        ("server_compiles", sum(|p| p.server_compiles)),
        ("server_evictions", sum(|p| p.evictions)),
        ("server_generation_bumps", sum(|p| p.generation_bumps)),
        ("server_entries_invalidated", sum(|p| p.invalidations)),
    ];
    let first_peaks = || tenants.iter().flat_map(|t| &t.first_peaks);
    let first_peak = |replica| first_peaks().find(|p| p.0 == replica).map_or(0, |p| p.1);

    let warm_tenant = tenant(cfg.seed, 0, 0, n);
    let report = FleetReport {
        replicas: n,
        cache_capacity,
        seed: cfg.seed,
        workloads: names.clone(),
        warmup: WarmupReport {
            workload: names[warm_tenant].clone(),
            first_replica: 0,
            last_replica: n - 1,
            cycles_to_peak_first: first_peak(0),
            cycles_to_peak_last: first_peak(n - 1),
        },
        merged_traces: names
            .iter()
            .zip(&tenants)
            .map(|(name, t)| (name.clone(), t.profile.len() as u64))
            .collect(),
        counters: counters.into_iter().map(|(name, v)| (name.to_string(), v)).collect(),
        phases,
    };
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache hit installs the body a replica's local compile under the
    /// same rules builds: the server and the replicas share one compiler
    /// configuration.
    #[test]
    fn a_cached_body_is_the_replicas_local_compile_under_the_same_rules() {
        let program = build(&suite()[0]).program;
        let cold = serve(ServeJob {
            replica: 0,
            first: true,
            program: &program,
            snapshot: ServerSnapshot::default(),
            profile: Arc::default(),
        });
        let mut tenant = Tenant::new(&program, usize::MAX);
        tenant.profile = cold.profile.into();
        tenant.pending = cold.server.requests;
        tenant.partials.push(PhaseReport::default());
        tenant.compile_batch(0);
        let snapshot = tenant.server.snapshot();
        assert!(!snapshot.is_empty(), "the cold run's misses were compiled");
        assert_eq!(snapshot.len() as u64, tenant.partials[0].server_compiles);

        let cfg = replica_config();
        let rules = server_rules(&tenant.profile, cfg.hot_edge_threshold);
        assert!(!rules.is_empty(), "the batch ran under profile-derived rules");
        let oracle = InlineOracle::with_mode(Arc::new(rules), cfg.match_mode);
        for (&m, cached) in snapshot.iter() {
            let local = aoci_opt::compile(&program, m, &oracle, &OptConfig::default());
            let name = program.method(m).name();
            assert_eq!(format!("{cached:?}"), format!("{local:?}"), "{name}");
        }
    }
}
