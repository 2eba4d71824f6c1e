use aoci_bench::env::EnvConfig;
use aoci_fleet::{run_fleet_timed, FleetConfig};
use aoci_telemetry::write_text;
use std::path::Path;

/// Runs the fleet-scale serving simulation (DESIGN.md §15).
///
/// `AOCI_FLEET_REPLICAS` VM replicas serve the five-phase traffic
/// schedule seeded by `AOCI_FLEET_SEED`, fronted by a shared compile
/// server with an `AOCI_FLEET_CACHE`-entry code cache per tenant, fanned
/// over the `AOCI_JOBS` pool. Writes the [`aoci_fleet::FleetReport`] to
/// `AOCI_FLEET_OUT` (byte-identical for any worker count, which CI
/// asserts by diffing the artifact across `AOCI_JOBS` settings).
///
/// Exits 1 if warm-start amortization failed to materialize — the
/// last-activated replica must reach peak strictly earlier than the cold
/// first replica (only enforced for fleets of more than one replica,
/// where the two measurements are distinct boots).
fn main() {
    let env = EnvConfig::from_env();
    let cfg = FleetConfig {
        replicas: env.fleet_replicas,
        cache_capacity: env.fleet_cache,
        seed: env.fleet_seed,
    };
    let pool = env.pool();
    eprintln!(
        "fleet: replicas={} cache={} seed={} workers={}",
        cfg.replicas,
        cfg.cache_capacity,
        cfg.seed,
        pool.workers()
    );

    let started = std::time::Instant::now();
    let (report, stats) = run_fleet_timed(&cfg, &pool);
    let wall = started.elapsed();

    let path = Path::new(&env.fleet_out);
    if let Err(e) = write_text(path, &aoci_json::to_string_pretty(&report.to_value())) {
        eprintln!("fleet: {e}");
        std::process::exit(1);
    }

    for p in &report.phases {
        eprintln!(
            "fleet: phase {:14} active={:4} warm={:4} hits={:5} misses={:5} \
             server-compiles={:4} evictions={:3} invalidated={:3}",
            p.name,
            p.active_replicas,
            p.warm_starts,
            p.cache_hits,
            p.cache_misses,
            p.server_compiles,
            p.evictions,
            p.invalidations,
        );
    }
    let w = &report.warmup;
    eprintln!(
        "fleet: warmup [{}] replica #{} cold {} cycles-to-peak vs replica #{} warm {} \
         ({:.1}x amortization)",
        w.workload,
        w.first_replica + 1,
        w.cycles_to_peak_first,
        w.last_replica + 1,
        w.cycles_to_peak_last,
        w.cycles_to_peak_first as f64 / w.cycles_to_peak_last.max(1) as f64,
    );
    eprintln!("fleet: {}", stats.render());
    eprintln!("fleet: report -> {} ({:.2?})", path.display(), wall);

    if report.replicas > 1 && !w.amortized() {
        eprintln!(
            "fleet: FAIL warm-start amortization: last replica's cycles-to-peak ({}) is \
             not strictly below the cold first replica's ({})",
            w.cycles_to_peak_last, w.cycles_to_peak_first
        );
        std::process::exit(1);
    }
}
