//! # aoci-fleet — fleet-scale serving simulation (DESIGN.md §15)
//!
//! The paper's headline evaluation is SPECjbb2000, a long-running server
//! where adaptive context-sensitive inlining amortizes over sustained
//! traffic. This crate takes that to its production conclusion: **N VM
//! replicas, one compile service, shared profiles.**
//!
//! * [`schedule`] — a five-phase deterministic traffic schedule (ramp-up,
//!   diurnal tenant-mix shift, hot-set churn) over the eight suite
//!   workloads;
//! * [`server`] — the shared compile server: per tenant, a bounded code
//!   cache keyed by method at a rules generation, with LRU-by-benefit
//!   eviction and cross-replica invalidation broadcast on generation
//!   bumps;
//! * [`sim`] — the driver: each tenant is a pipeline of its replicas'
//!   serving runs on the [`JobPool`](aoci_core::JobPool); between phases
//!   it merges their trace profiles ([`merge_profiles`]) so later
//!   replicas warm-start from the fleet's collective knowledge;
//! * [`report`] — the [`FleetReport`] behind `results/fleet.json`,
//!   including the headline warmup-amortization pair (cycles-to-peak,
//!   cold first replica vs warm last replica).
//!
//! Everything is deterministic: the report is a pure function of
//! `(replicas, cache capacity, seed)`, byte-identical across `AOCI_JOBS`
//! settings.
//!
//! [`merge_profiles`]: aoci_profile::merge_profiles

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod schedule;
pub mod server;
pub mod sim;

pub use report::{FleetReport, PhaseReport, WarmupReport};
pub use server::CompileServer;
pub use sim::{run_fleet, run_fleet_timed, FleetConfig};
