//! Metrics consumers: JSONL time-series, Prometheus text exposition,
//! terminal sparkline dashboards — and the typed [`ExportError`] every
//! harness export path reports through instead of `expect()`ing.

use crate::registry::MetricsLog;
use std::fmt;
use std::path::{Path, PathBuf};

/// A failed artifact export: the path we were writing plus the OS error.
/// The harness bins print this and exit nonzero instead of panicking
/// (the `VmError` discipline applied to I/O).
#[derive(Debug)]
pub struct ExportError {
    /// Destination that could not be written.
    pub path: PathBuf,
    /// Underlying I/O failure.
    pub source: std::io::Error,
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Writes `contents` to `path`, creating parent directories as needed.
/// The one write primitive all harness exports route through.
pub fn write_text(path: &Path, contents: &str) -> Result<(), ExportError> {
    let wrap = |source| ExportError { path: path.to_path_buf(), source };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(wrap)?;
        }
    }
    std::fs::write(path, contents).map_err(wrap)
}

/// Renders a [`MetricsLog`] as JSON Lines: one `{"kind":"epoch",…}` object
/// per time-series snapshot, then one `{"kind":"final",…}` object carrying
/// the end-of-run counters, gauges and histograms. `label` tags every line
/// so multiple runs can share a file.
pub fn to_jsonl(label: &str, log: &MetricsLog) -> String {
    use aoci_json::Value;
    let mut out = String::new();
    for mut v in log.series.to_values() {
        if let Value::Obj(map) = &mut v {
            map.insert("kind".to_string(), Value::from("epoch"));
            map.insert("run".to_string(), Value::from(label));
        }
        out.push_str(&aoci_json::to_string(&v));
        out.push('\n');
    }
    let mut v = log.to_value();
    if let Value::Obj(map) = &mut v {
        map.remove("series");
        map.insert("kind".to_string(), Value::from("final"));
        map.insert("run".to_string(), Value::from(label));
    }
    out.push_str(&aoci_json::to_string(&v));
    out.push('\n');
    out
}

/// Renders the final counters/gauges/histograms of a [`MetricsLog`] in
/// Prometheus text exposition format, metric names prefixed `aoci_` and
/// every sample labelled `run="label"`. Histograms render as cumulative
/// `_bucket{le="…"}` series plus `_sum` / `_count`, per the format.
pub fn to_prometheus(label: &str, log: &MetricsLog) -> String {
    let mut out = String::new();
    for (name, v) in &log.counters {
        out.push_str(&format!("# TYPE aoci_{name} counter\n"));
        out.push_str(&format!("aoci_{name}{{run=\"{label}\"}} {v}\n"));
    }
    for (name, v) in &log.gauges {
        out.push_str(&format!("# TYPE aoci_{name} gauge\n"));
        out.push_str(&format!("aoci_{name}{{run=\"{label}\"}} {v}\n"));
    }
    for (name, h) in &log.histograms {
        out.push_str(&format!("# TYPE aoci_{name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, c) in h.nonzero_buckets() {
            cumulative += c;
            let le = crate::histogram::bucket_bounds(i).1;
            out.push_str(&format!(
                "aoci_{name}_bucket{{run=\"{label}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "aoci_{name}_bucket{{run=\"{label}\",le=\"+Inf\"}} {}\n",
            h.count()
        ));
        out.push_str(&format!("aoci_{name}_sum{{run=\"{label}\"}} {}\n", h.sum()));
        out.push_str(&format!("aoci_{name}_count{{run=\"{label}\"}} {}\n", h.count()));
    }
    out
}

const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline, scaled to the series max.
/// An all-zero (or empty) series renders as flat `▁`s.
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARK_RAMP[0]
            } else {
                // Top value maps to the full block, zero to the lowest.
                let level = (v as u128 * (SPARK_RAMP.len() as u128 - 1)).div_ceil(max as u128);
                SPARK_RAMP[level as usize]
            }
        })
        .collect()
}

/// Widest sparkline the dashboard renders; longer series fold into
/// contiguous chunks so a multi-thousand-epoch run stays terminal-sized.
const DASH_WIDTH: usize = 72;

/// Folds `values` into at most `width` columns, combining each contiguous
/// chunk with `fold` (chunk lengths differ by at most one). Series at or
/// under `width` pass through untouched.
fn fold_chunks(values: &[u64], width: usize, fold: impl Fn(&[u64]) -> u64) -> Vec<u64> {
    if values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|i| {
            let lo = i * values.len() / width;
            let hi = ((i + 1) * values.len() / width).max(lo + 1);
            fold(&values[lo..hi])
        })
        .collect()
}

/// The sum of `values`, saturating at `u64::MAX`: a series whose values
/// jump to the top of the range and back has deltas that overflow a plain
/// sum.
fn saturating_sum(values: &[u64]) -> u64 {
    values.iter().fold(0, |total, &v| total.saturating_add(v))
}

/// Dashboard rows: selected series rendered per-epoch. Counters show
/// per-epoch *deltas* (activity), gauges show raw values (state).
const DASHBOARD_COUNTERS: [&str; 6] = [
    "samples",
    "inline_decisions",
    "guard_misses",
    "osr_entries",
    "recovery_invalidations",
    "async_completed",
];
const DASHBOARD_GAUGES: [&str; 4] = [
    "compile_queue_depth",
    "compiles_in_flight",
    "code_cache_bytes",
    "code_versions",
];

/// Renders a terminal sparkline dashboard over a run's time series:
/// one row per known counter (per-epoch deltas) and gauge (raw values),
/// with first/last numeric values for scale. Rows whose series never
/// appears are omitted; a log with no snapshots yields a one-line note.
pub fn dashboard(label: &str, log: &MetricsLog) -> String {
    let epochs = log.series.len();
    let mut out = format!(
        "metrics dashboard [{label}] — {epochs} epochs x {} samples\n",
        log.epoch_samples
    );
    if epochs == 0 {
        out.push_str("  (no epoch snapshots recorded)\n");
        return out;
    }
    let width = DASHBOARD_COUNTERS
        .iter()
        .chain(DASHBOARD_GAUGES.iter())
        .map(|n| n.len())
        .max()
        .unwrap_or(0);
    for name in DASHBOARD_COUNTERS {
        if let Some(deltas) = log.deltas_of(name) {
            let total = saturating_sum(&deltas);
            // Summing within a chunk keeps each column an activity count.
            let folded = fold_chunks(&deltas, DASH_WIDTH, saturating_sum);
            out.push_str(&format!(
                "  {name:width$}  {}  Δ/epoch, total {total}\n",
                sparkline(&folded)
            ));
        }
    }
    for name in DASHBOARD_GAUGES {
        if let Some(values) = log.series_of(name) {
            let last = values.last().copied().unwrap_or(0);
            let peak = values.iter().copied().max().unwrap_or(0);
            // Max within a chunk keeps gauge peaks visible after folding.
            let folded =
                fold_chunks(&values, DASH_WIDTH, |c| c.iter().copied().max().unwrap_or(0));
            out.push_str(&format!(
                "  {name:width$}  {}  peak {peak}, final {last}\n",
                sparkline(&folded)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_log() -> MetricsLog {
        let mut registry = MetricsRegistry::new();
        registry.counter_set("samples", 8);
        registry.counter_add("inline_decisions", 2);
        registry.gauge_set("compile_queue_depth", 3);
        registry.observe("compile_cost_cycles", 1000);
        registry.snapshot(8, 50_000);
        registry.counter_set("samples", 16);
        registry.counter_add("inline_decisions", 5);
        registry.gauge_set("compile_queue_depth", 1);
        registry.snapshot(16, 110_000);
        registry.into_log()
    }

    #[test]
    fn jsonl_has_one_line_per_epoch_plus_final() {
        let text = to_jsonl("smoke", &sample_log());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\": \"epoch\"") || lines[0].contains("\"kind\":\"epoch\""));
        assert!(lines[2].contains("final"));
        for line in &lines {
            aoci_json::parse(line).expect("every JSONL line parses");
        }
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_labelled() {
        let text = to_prometheus("smoke", &sample_log());
        assert!(text.contains("# TYPE aoci_samples counter"));
        assert!(text.contains("aoci_samples{run=\"smoke\"} 16"));
        assert!(text.contains("# TYPE aoci_compile_queue_depth gauge"));
        assert!(text.contains("aoci_compile_cost_cycles_bucket{run=\"smoke\",le=\"+Inf\"} 1"));
        assert!(text.contains("aoci_compile_cost_cycles_sum{run=\"smoke\"} 1000"));
    }

    #[test]
    fn sparkline_scales_to_series_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[0, 5, 10]);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn folding_caps_width_and_preserves_sums_and_peaks() {
        let long: Vec<u64> = (0..1_000).collect();
        let summed = fold_chunks(&long, DASH_WIDTH, |c| c.iter().sum());
        assert_eq!(summed.len(), DASH_WIDTH);
        assert_eq!(summed.iter().sum::<u64>(), long.iter().sum::<u64>());
        let peaks = fold_chunks(&long, DASH_WIDTH, |c| c.iter().copied().max().unwrap_or(0));
        assert_eq!(peaks.len(), DASH_WIDTH);
        assert_eq!(peaks.last(), Some(&999));
        // Short series pass through untouched.
        assert_eq!(fold_chunks(&[1, 2, 3], DASH_WIDTH, |c| c.iter().sum()), vec![1, 2, 3]);
        // Dashboard lines stay terminal-sized for multi-thousand-epoch runs.
        let mut registry = MetricsRegistry::new();
        for i in 0..3_000u64 {
            registry.counter_set("samples", i * 8);
            registry.gauge_set("compile_queue_depth", i % 7);
            registry.snapshot(i * 8, i * 50_000);
        }
        for line in dashboard("wide", &registry.into_log()).lines() {
            assert!(line.chars().count() < 140, "over-wide dashboard line: {line}");
        }
    }

    #[test]
    fn dashboard_renders_known_rows_only() {
        let text = dashboard("smoke", &sample_log());
        assert!(text.contains("samples"));
        assert!(text.contains("compile_queue_depth"));
        assert!(!text.contains("osr_entries"), "absent series are omitted");
    }

    #[test]
    fn write_text_creates_parent_dirs_and_reports_typed_errors() {
        let dir = std::env::temp_dir().join("aoci-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.txt");
        write_text(&path, "hello").expect("write succeeds");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        let err = write_text(&dir.join("nested"), "clobber a directory")
            .expect_err("writing over a directory fails");
        assert!(err.to_string().contains("nested"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
