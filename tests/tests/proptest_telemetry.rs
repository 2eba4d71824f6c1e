//! Property-based tests on the telemetry subsystem (DESIGN.md §14).
//!
//! * The histogram: the bucketing function is monotone (so cumulative
//!   bucket counts form a valid CDF — the Prometheus exporter relies on
//!   this), and merging is associative and commutative with observation (so
//!   a histogram built from shards equals the histogram of the
//!   concatenation, in any order).
//! * The time series: the registry, which stores each epoch as a row of
//!   coded differences over shared name tables, renders every export
//!   exactly as a reference model that keeps one owned `BTreeMap` snapshot
//!   per epoch — the representation the rows replaced.

use aoci_json::Value;
use aoci_telemetry::{
    bucket_index, dashboard, sparkline, to_jsonl, to_prometheus, Histogram,
    MetricsLog, MetricsRegistry, BUCKETS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn from_observations(vs: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vs {
        h.observe(v);
    }
    h
}

proptest! {
    /// `a <= b` implies `bucket_index(a) <= bucket_index(b)`, and every
    /// index stays in range.
    #[test]
    fn bucketing_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        prop_assert!(bucket_index(hi) < BUCKETS);
    }

    /// Merging shards equals observing the concatenation — and the fold
    /// is insensitive to both association and shard order.
    #[test]
    fn merge_is_associative_and_commutative(
        xs in prop::collection::vec(any::<u64>(), 0..20),
        ys in prop::collection::vec(any::<u64>(), 0..20),
        zs in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        let (hx, hy, hz) = (from_observations(&xs), from_observations(&ys), from_observations(&zs));
        let whole = from_observations(&[xs, ys, zs].concat());

        // (x ⊕ y) ⊕ z
        let mut left = hx.clone();
        left.merge(&hy);
        left.merge(&hz);
        // x ⊕ (y ⊕ z)
        let mut right_inner = hy.clone();
        right_inner.merge(&hz);
        let mut right = hx.clone();
        right.merge(&right_inner);
        // z ⊕ y ⊕ x
        let mut rev = hz;
        rev.merge(&hy);
        rev.merge(&hx);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &rev);
        prop_assert_eq!(&left, &whole);
    }

    /// The summary statistics always agree with the raw observations.
    #[test]
    fn summary_stats_match_observations(vs in prop::collection::vec(0u64..1 << 50, 1..30)) {
        let h = from_observations(&vs);
        prop_assert_eq!(h.count(), vs.len() as u64);
        prop_assert_eq!(h.min(), vs.iter().min().copied());
        prop_assert_eq!(h.max(), vs.iter().max().copied());
        prop_assert_eq!(h.sum(), vs.iter().sum::<u64>());
        let p100 = h.quantile(1.0).expect("non-empty");
        prop_assert_eq!(p100, h.max().expect("non-empty"), "q=1.0 is the exact max");
    }
}

/// One call into the registry.
#[derive(Clone, Debug)]
enum Op {
    CounterAdd(&'static str, u64),
    CounterSet(&'static str, u64),
    GaugeSet(&'static str, u64),
    Observe(&'static str, u64),
    Snapshot(u64, u64),
}

/// Names the ops draw from: dashboard rows, names that are prefixes of one
/// another, and an upper-case name that sorts before every lower-case one
/// by bytes. Any of them may be recorded as a counter and as a gauge.
const POOL: [&str; 10] = [
    "samples",
    "inline_decisions",
    "inline_decisions_guarded",
    "guard_misses",
    "osr_entries",
    "compile_queue_depth",
    "code_cache_bytes",
    "Zeta",
    "a",
    "retry_backlog",
];

/// One epoch of the model: its sample tick and cycle, and its own copy of
/// the counters and of the gauges.
type ModelEpoch = (u64, u64, BTreeMap<String, u64>, BTreeMap<String, u64>);

/// The representation the rows replaced: every epoch owns a copy of both
/// maps, and every reader walks a `BTreeMap`.
#[derive(Default)]
struct Model {
    series: Vec<ModelEpoch>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

fn map_value(map: &BTreeMap<String, u64>) -> Value {
    Value::Obj(map.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect())
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::CounterAdd(n, d) => *self.counters.entry(n.to_string()).or_default() += d,
            Op::CounterSet(n, v) => {
                self.counters.insert(n.to_string(), v);
            }
            Op::GaugeSet(n, v) => {
                self.gauges.insert(n.to_string(), v);
            }
            Op::Observe(n, v) => self.histograms.entry(n.to_string()).or_default().observe(v),
            Op::Snapshot(tick, cycle) => {
                self.series.push((tick, cycle, self.counters.clone(), self.gauges.clone()))
            }
        }
    }

    fn epoch_value(&self, epoch: usize) -> Value {
        let (tick, cycle, counters, gauges) = &self.series[epoch];
        Value::obj([
            ("epoch".to_string(), Value::from(epoch as u64)),
            ("sample_tick".to_string(), Value::from(*tick)),
            ("cycle".to_string(), Value::from(*cycle)),
            ("counters".to_string(), map_value(counters)),
            ("gauges".to_string(), map_value(gauges)),
        ])
    }

    fn to_value(&self) -> Value {
        Value::obj([
            ("epoch_samples".to_string(), Value::from(8u64)),
            (
                "series".to_string(),
                Value::Arr((0..self.series.len()).map(|e| self.epoch_value(e)).collect()),
            ),
            ("counters".to_string(), map_value(&self.counters)),
            ("gauges".to_string(), map_value(&self.gauges)),
            (
                "histograms".to_string(),
                Value::Obj(
                    self.histograms.iter().map(|(k, h)| (k.clone(), h.to_value())).collect(),
                ),
            ),
        ])
    }

    fn to_jsonl(&self, label: &str) -> String {
        let mut lines: Vec<Value> = (0..self.series.len()).map(|e| self.epoch_value(e)).collect();
        let mut last = self.to_value();
        if let Value::Obj(map) = &mut last {
            map.remove("series");
        }
        lines.push(last);
        let kinds = std::iter::repeat_n("epoch", self.series.len()).chain(["final"]);
        let mut out = String::new();
        for (mut v, kind) in lines.into_iter().zip(kinds) {
            if let Value::Obj(map) = &mut v {
                map.insert("kind".to_string(), Value::from(kind));
                map.insert("run".to_string(), Value::from(label));
            }
            out.push_str(&aoci_json::to_string(&v));
            out.push('\n');
        }
        out
    }

    /// The Prometheus text reads only the final maps, which keep their type.
    fn to_prometheus(&self, label: &str) -> String {
        let log = MetricsLog {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            ..MetricsLog::default()
        };
        to_prometheus(label, &log)
    }

    fn series_of(&self, name: &str) -> Option<Vec<u64>> {
        let known =
            self.series.iter().any(|(_, _, c, g)| g.contains_key(name) || c.contains_key(name));
        known.then(|| {
            self.series
                .iter()
                .map(|(_, _, c, g)| g.get(name).or_else(|| c.get(name)).copied().unwrap_or(0))
                .collect()
        })
    }

    fn deltas_of(&self, name: &str) -> Option<Vec<u64>> {
        let mut prev = 0;
        Some(
            self.series_of(name)?
                .into_iter()
                .map(|v| {
                    let d = v.saturating_sub(prev);
                    prev = v;
                    d
                })
                .collect(),
        )
    }

    /// The dashboard's rows, folded to at most 72 columns.
    fn dashboard(&self, label: &str) -> String {
        let epochs = self.series.len();
        let mut out = format!("metrics dashboard [{label}] — {epochs} epochs x 8 samples\n");
        if epochs == 0 {
            out.push_str("  (no epoch snapshots recorded)\n");
            return out;
        }
        let fold = |values: &[u64], f: &dyn Fn(&[u64]) -> u64| -> Vec<u64> {
            if values.len() <= 72 {
                return values.to_vec();
            }
            (0..72)
                .map(|i| {
                    let lo = i * values.len() / 72;
                    f(&values[lo..((i + 1) * values.len() / 72).max(lo + 1)])
                })
                .collect()
        };
        let counters = ["samples", "inline_decisions", "guard_misses", "osr_entries"];
        let counters = counters.into_iter().chain(["recovery_invalidations", "async_completed"]);
        for name in counters {
            if let Some(d) = self.deltas_of(name) {
                // Totals saturate: a jump to `u64::MAX` and back overflows a sum.
                let sum = |c: &[u64]| c.iter().fold(0u64, |t, &x| t.saturating_add(x));
                let total = sum(&d);
                let line = sparkline(&fold(&d, &sum));
                out.push_str(&format!("  {name:22}  {line}  Δ/epoch, total {total}\n"));
            }
        }
        let gauges =
            ["compile_queue_depth", "compiles_in_flight", "code_cache_bytes", "code_versions"];
        for name in gauges {
            if let Some(v) = self.series_of(name) {
                let (last, peak) = (*v.last().unwrap(), *v.iter().max().unwrap());
                let line = sparkline(&fold(&v, &|c| *c.iter().max().unwrap()));
                out.push_str(&format!("  {name:22}  {line}  peak {peak}, final {last}\n"));
            }
        }
        out
    }
}

/// Feeds `ops` to a registry and to the model, and requires every reader
/// to agree.
fn check(ops: &[Op]) {
    let mut registry = MetricsRegistry::new();
    let mut model = Model::default();
    for op in ops {
        match *op {
            Op::CounterAdd(n, d) => registry.counter_add(n, d),
            Op::CounterSet(n, v) => registry.counter_set(n, v),
            Op::GaugeSet(n, v) => registry.gauge_set(n, v),
            Op::Observe(n, v) => registry.observe(n, v),
            Op::Snapshot(tick, cycle) => registry.snapshot(tick, cycle),
        }
        model.apply(op);
    }
    let log = registry.into_log();
    let pretty = |v: &Value| aoci_json::to_string_pretty(v);
    prop_assert_eq!(pretty(&log.to_value()), pretty(&model.to_value()));
    prop_assert_eq!(to_jsonl("p", &log), model.to_jsonl("p"));
    prop_assert_eq!(to_prometheus("p", &log), model.to_prometheus("p"));
    prop_assert_eq!(dashboard("p", &log), model.dashboard("p"));
    prop_assert_eq!(log.series.len(), model.series.len());
    for name in POOL.into_iter().chain(["no_such_metric"]) {
        prop_assert_eq!(log.series_of(name), model.series_of(name), "series_of({})", name);
        prop_assert_eq!(log.deltas_of(name), model.deltas_of(name), "deltas_of({})", name);
    }
    prop_assert_eq!(log.series_of("no_such_metric"), None);
}

/// Zero half the time, so rows carry zeros beside absent names.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..1 << 40]
}

/// A set also jumps to the top of its range and back, a third of the time:
/// a gauge to `u64::MAX`, a counter to `u64::MAX >> 1`, which later adds of
/// [`value`]s cannot overflow.
fn set_value(top: u64) -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..1 << 40, Just(top)]
}

fn op() -> impl Strategy<Value = Op> {
    let i = 0..POOL.len();
    prop_oneof![
        (i.clone(), value()).prop_map(|(i, v)| Op::CounterAdd(POOL[i], v)),
        (i.clone(), set_value(u64::MAX >> 1)).prop_map(|(i, v)| Op::CounterSet(POOL[i], v)),
        (i.clone(), set_value(u64::MAX)).prop_map(|(i, v)| Op::GaugeSet(POOL[i], v)),
        (i, value()).prop_map(|(i, v)| Op::Observe(POOL[i], v)),
        (0u64..1 << 20, set_value(u64::MAX)).prop_map(|(tick, v)| Op::Snapshot(tick, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random feeds: names enter at any epoch, under either family or both.
    #[test]
    fn rows_render_like_per_epoch_maps(ops in prop::collection::vec(op(), 0..80)) {
        check(&ops);
    }
}

/// The shapes the rows must get right, each at least once: a snapshot
/// before any record, names first recorded after several epochs, one name
/// both a counter and a gauge (the gauge wins in `series_of`, from the
/// epoch it appears in), zero values, full-range jumps both ways, and a
/// record after the last epoch.
#[test]
fn rows_render_like_per_epoch_maps_on_the_edge_cases() {
    use Op::*;
    let ops = [
        Snapshot(0, 0),
        CounterSet("samples", 8),
        GaugeSet("code_cache_bytes", 0),
        Snapshot(8, 100),
        CounterSet("samples", 16),
        Snapshot(16, 200),
        CounterAdd("compile_queue_depth", 0),
        CounterAdd("Zeta", 5),
        Observe("a", 3),
        Snapshot(24, 300),
        GaugeSet("compile_queue_depth", 4),
        CounterAdd("compile_queue_depth", 7),
        CounterSet("samples", 12),
        GaugeSet("code_cache_bytes", u64::MAX),
        Snapshot(32, 400),
        GaugeSet("code_cache_bytes", 0),
        CounterSet("samples", u64::MAX >> 1),
        Snapshot(40, u64::MAX),
        CounterAdd("inline_decisions", 1),
        GaugeSet("retry_backlog", 2),
    ];
    check(&ops);
}
