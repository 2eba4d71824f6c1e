//! The metrics registry and the owned end-of-run log ([`MetricsLog`]) it
//! fills.
//!
//! The registry is owned by the one driver that feeds it (`AosSystem`) and
//! holds the very [`MetricsLog`] the report carries — plain data, `Send`,
//! so parallel sweep pools can move it across workers — which
//! [`MetricsRegistry::into_log`] moves out at the end of the run. Recording
//! charges **no simulated cycles** and reads no wall clock; every container
//! is a `BTreeMap`, so serialization order is deterministic.

use crate::histogram::Histogram;
use aoci_json::Value;
use std::collections::BTreeMap;

/// Telemetry tunables.
#[derive(Clone, Debug)]
pub struct MetricsConfig {
    /// Epoch length in timer samples: a time-series snapshot of every
    /// counter and gauge is taken each time the sample count crosses a
    /// multiple of this. The default matches the hot-methods organizer
    /// cadence, so each snapshot brackets one organizer/controller round.
    pub epoch_samples: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { epoch_samples: 8 }
    }
}

/// One per-epoch time-series snapshot: every counter and gauge, frozen at
/// a simulated-clock instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochSnapshot {
    /// 0-based snapshot index.
    pub epoch: u64,
    /// Timer samples taken when the snapshot fired.
    pub sample_tick: u64,
    /// Simulated cycles when the snapshot fired.
    pub cycle: u64,
    /// Cumulative counters at the instant.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges at the instant.
    pub gauges: BTreeMap<String, u64>,
}

impl EpochSnapshot {
    /// Serializes to a (flat) `aoci-json` object.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("epoch".to_string(), Value::from(self.epoch)),
            ("sample_tick".to_string(), Value::from(self.sample_tick)),
            ("cycle".to_string(), Value::from(self.cycle)),
            (
                "counters".to_string(),
                Value::Obj(self.counters.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect()),
            ),
            (
                "gauges".to_string(),
                Value::Obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect()),
            ),
        ])
    }
}

/// The live registry: typed metric families keyed by name, recorded
/// straight into the log the run reports.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    log: MetricsLog,
}

impl MetricsRegistry {
    /// An empty registry under `config`.
    pub fn new(config: MetricsConfig) -> Self {
        let epoch_samples = config.epoch_samples.max(1);
        MetricsRegistry { log: MetricsLog { epoch_samples, ..MetricsLog::default() } }
    }

    /// Epoch length in samples (always ≥ 1).
    pub fn epoch_samples(&self) -> u64 {
        self.log.epoch_samples
    }

    /// Adds `delta` to counter `name` (event-driven counters).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        update(&mut self.log.counters, name, |c| *c += delta);
    }

    /// Sets counter `name` to the cumulative value `v` (counters sampled
    /// from authoritative state rather than accumulated event by event).
    pub fn counter_set(&mut self, name: &str, v: u64) {
        update(&mut self.log.counters, name, |c| *c = v);
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        update(&mut self.log.gauges, name, |g| *g = v);
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        update(&mut self.log.histograms, name, |h| h.observe(v));
    }

    /// Freezes the current counters and gauges into the next time-series
    /// snapshot.
    pub fn snapshot(&mut self, sample_tick: u64, cycle: u64) {
        self.log.series.push(EpochSnapshot {
            epoch: self.log.series.len() as u64,
            sample_tick,
            cycle,
            counters: self.log.counters.clone(),
            gauges: self.log.gauges.clone(),
        });
    }

    /// Snapshots taken so far.
    pub fn epochs(&self) -> usize {
        self.log.series.len()
    }

    /// Ends recording: the log, moved out.
    pub fn into_log(self) -> MetricsLog {
        self.log
    }
}

/// Applies `f` to the value under `name`, default-inserted on first use:
/// the name is copied only then, not once per recording.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// The owned end-of-run metrics snapshot a report carries: the full
/// time series plus the final counters, gauges and histograms. Plain data
/// (`Send`), deterministic to serialize.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsLog {
    /// Epoch length in samples the series was recorded under.
    pub epoch_samples: u64,
    /// Per-epoch snapshots, in epoch order.
    pub series: Vec<EpochSnapshot>,
    /// Final cumulative counters.
    pub counters: BTreeMap<String, u64>,
    /// Final gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Final histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsLog {
    /// The per-epoch values of series `name` — a gauge (raw value per
    /// epoch) or counter (cumulative value per epoch) — or `None` if no
    /// snapshot carries it.
    pub fn series_of(&self, name: &str) -> Option<Vec<u64>> {
        let values: Vec<u64> = self
            .series
            .iter()
            .map(|s| {
                s.gauges
                    .get(name)
                    .or_else(|| s.counters.get(name))
                    .copied()
                    .unwrap_or(0)
            })
            .collect();
        let known = self
            .series
            .iter()
            .any(|s| s.gauges.contains_key(name) || s.counters.contains_key(name));
        known.then_some(values)
    }

    /// Like [`MetricsLog::series_of`], but differenced — the per-epoch
    /// *delta* of a cumulative counter (saturating at 0).
    pub fn deltas_of(&self, name: &str) -> Option<Vec<u64>> {
        let values = self.series_of(name)?;
        let mut prev = 0u64;
        Some(
            values
                .into_iter()
                .map(|v| {
                    let d = v.saturating_sub(prev);
                    prev = v;
                    d
                })
                .collect(),
        )
    }

    /// Serializes to an `aoci-json` object (the JSON mirror of the JSONL
    /// export).
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("epoch_samples".to_string(), Value::from(self.epoch_samples)),
            (
                "series".to_string(),
                Value::Arr(self.series.iter().map(EpochSnapshot::to_value).collect()),
            ),
            (
                "counters".to_string(),
                Value::Obj(self.counters.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect()),
            ),
            (
                "gauges".to_string(),
                Value::Obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect()),
            ),
            (
                "histograms".to_string(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> MetricsLog {
        let mut registry = MetricsRegistry::new(MetricsConfig::default());
        registry.counter_add("inline_decisions", 3);
        registry.gauge_set("compile_queue_depth", 2);
        registry.observe("compile_cost_cycles", 4096);
        registry.snapshot(8, 120_000);
        registry.counter_add("inline_decisions", 1);
        registry.gauge_set("compile_queue_depth", 0);
        registry.observe("compile_cost_cycles", 900);
        registry.snapshot(16, 250_000);
        registry.into_log()
    }

    #[test]
    fn snapshots_freeze_counters_at_their_instant() {
        let log = populated();
        assert_eq!(log.series.len(), 2);
        assert_eq!(log.series[0].counters["inline_decisions"], 3);
        assert_eq!(log.series[1].counters["inline_decisions"], 4);
        assert_eq!(log.series[0].gauges["compile_queue_depth"], 2);
        assert_eq!(log.series[1].gauges["compile_queue_depth"], 0);
        assert_eq!(log.counters["inline_decisions"], 4);
        assert_eq!(log.histograms["compile_cost_cycles"].count(), 2);
        assert_eq!(log.series_of("inline_decisions"), Some(vec![3, 4]));
        assert_eq!(log.deltas_of("inline_decisions"), Some(vec![3, 1]));
        assert_eq!(log.series_of("no_such_metric"), None);
    }

    /// Every field, written under its name (the values of one object are
    /// pairwise distinct); the text is the parent commit's.
    #[test]
    fn to_value_is_the_committed_text() {
        assert_eq!(aoci_json::to_string_pretty(&populated().to_value()), EXPECTED_TEXT);
    }

    const EXPECTED_TEXT: &str = r##"{
  "counters": {
    "inline_decisions": 4
  },
  "epoch_samples": 8,
  "gauges": {
    "compile_queue_depth": 0
  },
  "histograms": {
    "compile_cost_cycles": {
      "buckets": [
        [
          10,
          1
        ],
        [
          13,
          1
        ]
      ],
      "count": 2,
      "max": 4096,
      "min": 900,
      "sum": 4996
    }
  },
  "series": [
    {
      "counters": {
        "inline_decisions": 3
      },
      "cycle": 120000,
      "epoch": 0,
      "gauges": {
        "compile_queue_depth": 2
      },
      "sample_tick": 8
    },
    {
      "counters": {
        "inline_decisions": 4
      },
      "cycle": 250000,
      "epoch": 1,
      "gauges": {
        "compile_queue_depth": 0
      },
      "sample_tick": 16
    }
  ]
}"##;

    #[test]
    fn same_feed_sequence_is_bit_identical() {
        let render = |l: &MetricsLog| aoci_json::to_string_pretty(&l.to_value());
        assert_eq!(render(&populated()), render(&populated()));
    }
}
