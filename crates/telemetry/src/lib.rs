//! # aoci-telemetry — the deterministic metrics subsystem
//!
//! A typed metrics registry — counters, gauges and log-bucketed
//! [`Histogram`]s — sampled on the **simulated** clock into per-epoch
//! time-series snapshots, plus the exporters that consume them
//! (DESIGN.md §14).
//!
//! Every value in a [`MetricsLog`] ([`registry`], [`histogram`]) is derived
//! from simulated-clock state — cycle counts, queue depths, code sizes,
//! event counters. Recording charges **zero simulated cycles** (the
//! registry, owned by the driver, is invisible to the run), every reader
//! walks names in byte order, and snapshots fire every [`EPOCH_SAMPLES`]
//! timer samples (a constant, not a tunable) — so a metrics-on run
//! produces byte-identical primary artifacts (`results/grid.json`, the
//! fuzz corpus) to a metrics-off run, and the snapshots themselves are bit-identical across same-seed reruns at any
//! `AOCI_JOBS` worker count. Wall-clock time never enters this crate; it is
//! measured from outside, by the repo benchmark (`benchmark/`).
//!
//! [`export`] holds the consumers: JSONL time-series, Prometheus
//! text-exposition dumps, terminal sparkline dashboards, and the typed
//! [`ExportError`] every harness I/O path reports through.

pub mod export;
pub mod histogram;
pub mod registry;

pub use export::{dashboard, sparkline, to_jsonl, to_prometheus, write_text, ExportError};
pub use histogram::{bucket_bounds, bucket_index, Histogram, BUCKETS};
pub use registry::{MetricsLog, MetricsRegistry, Series, EPOCH_SAMPLES};
