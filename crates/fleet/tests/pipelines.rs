//! `run_fleet` end to end on a fleet small enough for a debug build:
//! three replicas, three tenants (jess in every phase, compress in phase
//! 1 only — its requests are compiled in phase 2, which it does not
//! serve — and db from phase 2 on), an 8-entry cache that evicts in every
//! phase with server traffic.

use aoci_core::JobPool;
use aoci_fleet::{run_fleet, FleetConfig};

/// Written by the `fleet` bin of the last commit that ran the fleet
/// phase by phase behind a pool barrier with one shared compile server
/// (`AOCI_FLEET_REPLICAS=3 AOCI_FLEET_CACHE=8 AOCI_FLEET_SEED=1`): what
/// the tenant pipelines must reproduce to the byte.
const FIXTURE: &str = include_str!("fixtures/fleet_r3_c8_s1.json");

#[test]
fn small_fleet_equals_the_phase_barrier_fixture_on_any_worker_count() {
    // The fixture has to keep exercising what the comparison is for.
    let fixture = aoci_json::parse(FIXTURE).expect("fixture parses");
    let phases = fixture.get("phases").and_then(|p| p.as_arr()).expect("phases");
    let phases_with = |key: &str| {
        phases.iter().filter(|p| p.get(key).and_then(|v| v.as_u64()).expect("counter") > 0).count()
    };
    assert_eq!(phases_with("evictions"), 4, "fixture went blind to eviction order");
    assert_eq!(phases_with("invalidations"), 3, "fixture went blind to invalidation");

    let cfg = FleetConfig { replicas: 3, cache_capacity: 8, seed: 1 };
    for workers in [1, 2, 8] {
        let report = run_fleet(&cfg, &JobPool::new(workers));
        let text = aoci_json::to_string_pretty(&report.to_value());
        assert!(text == FIXTURE, "workers={workers}: report differs from the fixture:\n{text}");
    }
}
