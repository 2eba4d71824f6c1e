//! The metrics registry and the owned end-of-run log ([`MetricsLog`]) it
//! fills.
//!
//! The registry is owned by the one driver that feeds it (`AosSystem`) and
//! holds the very [`MetricsLog`] the report carries — plain data, `Send`,
//! so parallel sweep pools can move it across workers — which
//! [`MetricsRegistry::into_log`] moves out at the end of the run. Recording
//! charges **no simulated cycles** and reads no wall clock; the final maps
//! are `BTreeMap`s and the time series ([`Series`]) is read in the same
//! byte order of names, so serialization order is deterministic.

use crate::histogram::Histogram;
use aoci_json::Value;
use std::collections::BTreeMap;

/// Epoch length in timer samples: a time-series snapshot of every counter
/// and gauge is taken each time the sample count crosses a multiple of
/// this. It matches the hot-methods organizer cadence, so each snapshot
/// brackets one organizer/controller round.
pub const EPOCH_SAMPLES: u64 = 8;

/// One family's names (counters or gauges) for a whole run: a name's id is
/// the order it was first recorded in, and it never leaves.
#[derive(Clone, Debug, Default, PartialEq)]
struct NameTable {
    /// Names, by id.
    names: Vec<String>,
    /// Ids in the byte order of their names: the order the family's
    /// `BTreeMap` iterates in, and the one every reader walks.
    by_name: Vec<usize>,
}

impl NameTable {
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.by_name.binary_search_by(|&id| self.names[id].as_str().cmp(name))
    }

    fn add(&mut self, name: &str) {
        if let Err(at) = self.search(name) {
            self.by_name.insert(at, self.names.len());
            self.names.push(name.to_string());
        }
    }

    fn id(&self, name: &str) -> Option<usize> {
        self.search(name).ok().map(|at| self.by_name[at])
    }

    /// A row's `(name, value)` pairs in byte order: every name whose id the
    /// row is wide enough to hold.
    fn walk<'a>(&'a self, row: &'a [u64]) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.by_name.iter().filter_map(move |&id| Some((self.names[id].as_str(), *row.get(id)?)))
    }
}

/// When one epoch fired, and its row's widths: how many counter and gauge
/// ids existed at the instant.
#[derive(Clone, Copy, Debug, PartialEq)]
struct EpochHeader {
    sample_tick: u64,
    cycle: u64,
    counters: usize,
    gauges: usize,
}

/// The per-epoch time series as rows of values over the run's two name
/// tables: an epoch appends the current value of every counter id, then of
/// every gauge id, known so far. Ids only grow, so a row's widths say which
/// names it holds. Equal feed sequences give equal series.
///
/// A row is stored as the difference of each cell from the same id in the
/// previous row (0 for an id the previous row did not hold), zigzag-mapped
/// and LEB128-coded: most cells repeat or move a little between epochs, so
/// a cell takes one or two bytes instead of eight. Differences wrap, so any
/// `u64` jump round-trips. Within a family, cells follow the byte order of
/// their names (the order the maps iterate in and readers walk); ids that
/// enter later sort anywhere, but never reorder the ids already there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    counter_names: NameTable,
    gauge_names: NameTable,
    epochs: Vec<EpochHeader>,
    /// Every epoch's coded row, back to back.
    coded: Vec<u8>,
    /// The last row decoded, counters then gauges, by id: what the next
    /// row is coded against.
    last: [Vec<u64>; 2],
}

impl Series {
    /// Snapshots taken.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// True before the first snapshot.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Bytes the coded rows take.
    pub fn row_bytes(&self) -> usize {
        self.coded.len()
    }

    /// Cells over every row: the sum of each epoch's counter and gauge
    /// widths.
    pub fn cells(&self) -> usize {
        self.epochs.iter().map(|h| h.counters + h.gauges).sum()
    }

    /// Each epoch as the flat `aoci-json` object of its snapshot, in epoch
    /// order.
    pub(crate) fn to_values(&self) -> impl Iterator<Item = Value> + '_ {
        fn obj(table: &NameTable, row: &[u64]) -> Value {
            Value::Obj(table.walk(row).map(|(k, v)| (k.to_string(), Value::from(v))).collect())
        }
        let mut rows = self.rows();
        std::iter::from_fn(move || {
            let (epoch, h) = rows.next_row()?;
            Some(Value::obj([
                ("epoch".to_string(), Value::from(epoch)),
                ("sample_tick".to_string(), Value::from(h.sample_tick)),
                ("cycle".to_string(), Value::from(h.cycle)),
                ("counters".to_string(), obj(&self.counter_names, &rows.row[0])),
                ("gauges".to_string(), obj(&self.gauge_names, &rows.row[1])),
            ]))
        })
    }

    /// A decoder positioned before the first epoch.
    fn rows(&self) -> Rows<'_> {
        Rows { series: self, epoch: 0, at: 0, row: [Vec::new(), Vec::new()] }
    }

    /// Appends one row from the counter and the gauge map: each family's
    /// values, whose names are exactly its table's, coded in the maps' byte
    /// order against the previous row.
    fn push(&mut self, sample_tick: u64, cycle: u64, maps: [&BTreeMap<String, u64>; 2]) {
        let [counters, gauges] = maps.map(BTreeMap::len);
        self.epochs.push(EpochHeader { sample_tick, cycle, counters, gauges });
        let tables = [&self.counter_names, &self.gauge_names];
        for ((table, map), last) in tables.into_iter().zip(maps).zip(&mut self.last) {
            debug_assert_eq!(table.names.len(), map.len(), "a name recorded past its table");
            last.resize(map.len(), 0);
            for (&id, &v) in table.by_name.iter().zip(map.values()) {
                put_cell(&mut self.coded, v.wrapping_sub(last[id]));
                last[id] = v;
            }
        }
    }
}

/// Decodes a [`Series`] row by row, in epoch order, into `row`.
struct Rows<'a> {
    series: &'a Series,
    epoch: usize,
    /// Read position in the coded rows.
    at: usize,
    /// The current row, counters then gauges, by id.
    row: [Vec<u64>; 2],
}

impl Rows<'_> {
    /// Decodes the next epoch's row: its index and header.
    fn next_row(&mut self) -> Option<(u64, EpochHeader)> {
        let series = self.series;
        let h = *series.epochs.get(self.epoch)?;
        let families = [(&series.counter_names, h.counters), (&series.gauge_names, h.gauges)];
        for ((table, width), row) in families.into_iter().zip(&mut self.row) {
            row.resize(width, 0);
            for &id in table.by_name.iter().filter(|&&id| id < width) {
                row[id] = row[id].wrapping_add(take_cell(&series.coded, &mut self.at));
            }
        }
        let epoch = self.epoch as u64;
        self.epoch += 1;
        Some((epoch, h))
    }
}

/// Appends `delta`, zigzag-mapped (small differences of either sign stay
/// small) and LEB128-coded, seven bits a byte, low bits first.
fn put_cell(out: &mut Vec<u8>, delta: u64) {
    let mut v = (delta << 1) ^ (delta >> 63).wrapping_neg();
    while v >= 0x80 {
        out.push(v.to_le_bytes()[0] | 0x80);
        v >>= 7;
    }
    out.push(v.to_le_bytes()[0]);
}

/// Reads the cell at `*at`, advancing past it: the inverse of [`put_cell`].
fn take_cell(coded: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = coded[*at];
        *at += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// The live registry: typed metric families keyed by name, recorded
/// straight into the log the run reports.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    log: MetricsLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            log: MetricsLog { epoch_samples: EPOCH_SAMPLES, ..MetricsLog::default() },
        }
    }
}

impl MetricsRegistry {
    /// An empty registry with epochs of [`EPOCH_SAMPLES`] samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (event-driven counters).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if update(&mut self.log.counters, name, |c| *c += delta) {
            self.log.series.counter_names.add(name);
        }
    }

    /// Sets counter `name` to the cumulative value `v` (counters sampled
    /// from authoritative state rather than accumulated event by event).
    pub fn counter_set(&mut self, name: &str, v: u64) {
        if update(&mut self.log.counters, name, |c| *c = v) {
            self.log.series.counter_names.add(name);
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        if update(&mut self.log.gauges, name, |g| *g = v) {
            self.log.series.gauge_names.add(name);
        }
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        update(&mut self.log.histograms, name, |h| h.observe(v));
    }

    /// Appends the current counters and gauges to the time series as the
    /// next epoch's row.
    pub fn snapshot(&mut self, sample_tick: u64, cycle: u64) {
        let log = &mut self.log;
        log.series.push(sample_tick, cycle, [&log.counters, &log.gauges]);
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
/// the name is copied only then, not once per recording. True when the
/// name is new.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) -> bool {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => {
            f(map.entry(name.to_string()).or_default());
            return true;
        }
    }
    false
}

/// The owned end-of-run metrics snapshot a report carries: the full
/// time series plus the final counters, gauges and histograms. Plain data
/// (`Send`), deterministic to serialize.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsLog {
    /// Epoch length in samples the series was recorded under.
    pub epoch_samples: u64,
    /// Per-epoch snapshots, in epoch order.
    pub series: Series,
    /// Final cumulative counters.
    pub counters: BTreeMap<String, u64>,
    /// Final gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Final histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsLog {
    /// The per-epoch values of series `name` — a gauge (raw value per
    /// epoch) or counter (cumulative value per epoch), the gauge where an
    /// epoch has both — or `None` if no snapshot carries it.
    pub fn series_of(&self, name: &str) -> Option<Vec<u64>> {
        let series = &self.series;
        let (counter, gauge) = (series.counter_names.id(name), series.gauge_names.id(name));
        let at = |row: &[u64], id: Option<usize>| row.get(id?).copied();
        let mut known = false;
        let mut values = Vec::with_capacity(series.len());
        let mut rows = series.rows();
        while rows.next_row().is_some() {
            let [counters, gauges] = &rows.row;
            let v = at(gauges, gauge).or_else(|| at(counters, counter));
            known |= v.is_some();
            values.push(v.unwrap_or(0));
        }
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
            ("series".to_string(), Value::Arr(self.series.to_values().collect())),
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
        let mut registry = MetricsRegistry::new();
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
        assert_eq!(log.series_of("compile_queue_depth"), Some(vec![2, 0]));
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

    /// The coded rows give back every value on the edges of the coding:
    /// full-range jumps both ways, a falling gauge, a name that first
    /// appears mid-series (its earlier rows do not hold it), and the
    /// one-epoch and empty series.
    #[test]
    fn coded_rows_round_trip_on_the_edges() {
        let mut registry = MetricsRegistry::new();
        let feed: [(u64, u64); 4] = [(0, 9), (u64::MAX, 7), (0, 3), (1, 0)];
        for (epoch, (counter, gauge)) in (0u64..).zip(feed) {
            registry.counter_set("jumps", counter);
            registry.gauge_set("falling", gauge);
            if epoch == 2 {
                registry.counter_add("late", u64::MAX - 2);
            }
            registry.snapshot(epoch * 8, epoch * 1_000);
        }
        let log = registry.into_log();
        assert_eq!(log.series_of("jumps"), Some(vec![0, u64::MAX, 0, 1]));
        assert_eq!(log.series_of("falling"), Some(vec![9, 7, 3, 0]));
        assert_eq!(log.series_of("late"), Some(vec![0, 0, u64::MAX - 2, u64::MAX - 2]));
        let rows = log.to_value();
        let epoch = |e: usize| &rows.get("series").and_then(Value::as_arr).expect("rows")[e];
        assert_eq!(epoch(1).get("counters").and_then(|c| c.get("late")), None);
        assert_eq!(epoch(3).get("cycle").and_then(Value::as_u64), Some(3_000));
        assert_eq!(log.series.cells(), 2 + 2 + 3 + 3);

        let mut one = MetricsRegistry::new();
        one.gauge_set("g", u64::MAX);
        one.gauge_set("h", 1 << 63);
        one.snapshot(8, 1);
        let one = one.into_log();
        assert_eq!(one.series_of("g"), Some(vec![u64::MAX]));
        assert_eq!(one.series_of("h"), Some(vec![1 << 63]));
        // 0 → u64::MAX is a step of −1, one byte; 2^63 is the widest, ten.
        assert_eq!(one.series.row_bytes(), 1 + 10);

        let empty = MetricsRegistry::new().into_log();
        assert!(empty.series.is_empty());
        assert_eq!(empty.series_of("g"), None);
        assert_eq!(empty.series.to_values().count(), 0);
    }

    #[test]
    fn same_feed_sequence_is_bit_identical() {
        let render = |l: &MetricsLog| aoci_json::to_string_pretty(&l.to_value());
        assert_eq!(render(&populated()), render(&populated()));
    }
}
