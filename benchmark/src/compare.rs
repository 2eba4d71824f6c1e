//! `benchmark compare <a.json> <b.json>`: applies the bounds of
//! `BENCHMARK.json` to two result files, `a` the parent and `b` the change.

use crate::metrics::{is_exact_unit, Better, Def, END_TO_END, FAILED_OPS_SHARE};
use aoci_json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run's own estimates disagree by more than the bound, so the
    /// values cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: the value, and the lowest and highest
/// of the estimates its run made on halves of its passes (`lo == hi ==
/// value` for a single reading).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Reading {
    fn from_value(v: &Value) -> Option<Reading> {
        let value = v.get("value")?.as_f64()?;
        let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(value);
        Some(Reading {
            value,
            lo: field("lo").min(value),
            hi: field("hi").max(value),
        })
    }

    /// How far the run's own estimates lie apart, as a share of the value.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (absolute when `a`
/// is 0); negative when `b` is better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        delta
    } else {
        delta / a.abs()
    }
}

/// The rule of the choosing-metrics guide: a spread wider than the bound
/// leaves the metric unresolved unless every run of the change reads better
/// than every run of the parent; otherwise the medians decide.
pub fn verdict(a: &Reading, b: &Reading, better: Better, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        let all_better = match better {
            Better::Lower => b.hi < a.lo,
            Better::Higher => b.lo > a.hi,
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a.value, b.value, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Why two files cannot be compared.
fn mismatch(a: &Value, b: &Value) -> Option<String> {
    for key in ["schema", "seed"] {
        if a.get(key) != b.get(key) {
            return Some(format!(
                "{key} differs: {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let (wa, wb) = (a.get("workloads")?.as_obj()?, b.get("workloads")?.as_obj()?);
    if !wa.keys().eq(wb.keys()) {
        return Some(format!(
            "workload names differ: {:?} vs {:?}",
            wa.keys(),
            wb.keys()
        ));
    }
    for (name, w) in wa {
        for section in ["end_to_end", "per_layer"] {
            let names = |v: &Value| {
                v.get(section)
                    .and_then(Value::as_obj)
                    .map(|o| o.keys().cloned().collect::<Vec<_>>())
            };
            if names(w) != names(&wb[name]) {
                return Some(format!("{name}: {section} metric names differ"));
            }
        }
    }
    None
}

/// Bounds of `BENCHMARK.json` by end-to-end metric name.
fn bounds(manifest: &Value) -> Result<BTreeMap<String, f64>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Prints one row per workload × end-to-end metric, then the exact metrics
/// that changed. `Ok(true)` when nothing regressed; `Err` when the files
/// cannot be compared.
pub fn compare(a: &Value, b: &Value, manifest: &Value) -> Result<bool, String> {
    if let Some(why) = mismatch(a, b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let bounds = bounds(manifest)?;
    let defs: Vec<(Def, f64)> = END_TO_END
        .iter()
        .map(|d| {
            bounds
                .get(d.name)
                .map(|b| (*d, *b))
                .ok_or(format!("BENCHMARK.json has no bound for {}", d.name))
        })
        .chain(std::iter::once(Ok((FAILED_OPS_SHARE, 0.0))))
        .collect::<Result<_, _>>()?;

    let workloads = |v: &'_ Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    let mut clean = true;
    let (mut exact, mut changed) = (0usize, Vec::new());
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse%", "spread%", "bound%"
    );
    for (name, a_w) in &wa {
        let b_w = &wb[name];
        for (def, bound) in &defs {
            let read = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(Reading::from_value)
                    .ok_or(format!("{name}: no end-to-end metric {}", def.name))
            };
            let (ra, rb) = (read(a_w)?, read(b_w)?);
            let v = verdict(&ra, &rb, def.better, *bound);
            clean &= v != Verdict::Regressed;
            println!(
                "{:<14} {:<18} {:>16.6} {:>16.6} {:>8.2} {:>8.2} {:>7.1}  {}",
                name,
                def.name,
                ra.value,
                rb.value,
                100.0 * worsening(ra.value, rb.value, def.better),
                100.0 * ra.spread().max(rb.spread()),
                100.0 * bound,
                v.as_str()
            );
        }
        // Simulated results must repeat exactly at one commit and seed; a
        // change here means the model changed, which a PR has to say.
        for section in ["end_to_end", "per_layer"] {
            let Some(metrics) = a_w.get(section).and_then(Value::as_obj) else {
                continue;
            };
            for (metric, va) in metrics {
                if !va
                    .get("unit")
                    .and_then(Value::as_str)
                    .is_some_and(is_exact_unit)
                {
                    continue;
                }
                exact += 1;
                let vb = b_w.get(section).and_then(|s| s.get(metric));
                if va.get("value") != vb.and_then(|v| v.get("value")) {
                    changed.push(format!("{name} {metric}"));
                }
            }
        }
    }
    println!(
        "exact metrics (counts, cycles, bytes): {exact} compared, {} changed",
        changed.len()
    );
    for c in &changed {
        println!("  changed: {c}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, lo: f64, hi: f64) -> Reading {
        Reading { value, lo, hi }
    }

    fn exact(value: f64) -> Reading {
        reading(value, value, value)
    }

    #[test]
    fn medians_decide_when_the_spread_is_within_the_bound() {
        let a = reading(10.0, 9.9, 10.1);
        assert_eq!(
            verdict(&a, &reading(10.9, 10.8, 11.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &reading(11.2, 11.1, 11.3), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &reading(5.0, 4.9, 5.1), Better::Lower, 0.10),
            Verdict::Ok
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&a, &reading(8.8, 8.7, 8.9), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &reading(11.2, 11.1, 11.3), Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = reading(10.0, 8.0, 12.0);
        assert_eq!(
            verdict(&noisy, &reading(10.1, 10.0, 10.2), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Even a large median loss stays unresolved: noise may explain it.
        assert_eq!(
            verdict(&noisy, &reading(13.0, 12.9, 13.1), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &reading(7.0, 6.9, 7.1), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&noisy, &reading(13.0, 12.9, 13.1), Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_zero_bound_rejects_any_rise_from_zero() {
        assert_eq!(
            verdict(&exact(0.0), &exact(0.0), Better::Lower, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&exact(0.0), &exact(0.01), Better::Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(worsening(0.0, 0.25, Better::Lower), 0.25);
        assert_eq!(worsening(200.0, 150.0, Better::Higher), 0.25);
    }

    fn result(seed: u64, workload: &str, wall: f64, cycles: f64) -> Value {
        let text = format!(
            r#"{{"schema":"aoci-benchmark/1","seed":{seed},"workloads":{{"{workload}":{{
                "end_to_end":{{
                  "setup_s":{{"value":1.0,"unit":"s"}},
                  "wall_s":{{"value":{wall},"unit":"s","n":5,"min":{wall},"max":{wall},"lo":{wall},"hi":{wall}}},
                  "cpu_s":{{"value":1.0,"unit":"s"}},
                  "sim_mcycles_per_s":{{"value":500.0,"unit":"Mcycles/s"}},
                  "peak_rss_mb":{{"value":20.0,"unit":"MB"}},
                  "sim_cycles":{{"value":{cycles},"unit":"cycles"}},
                  "failed_ops_share":{{"value":0.0,"unit":"share"}}}},
                "per_layer":{{"vm.calls":{{"value":7.0,"unit":"count"}}}}}}}}}}"#
        );
        aoci_json::parse(&text).expect("test fixture parses")
    }

    fn manifest() -> Value {
        let entries: Vec<String> = END_TO_END
            .iter()
            .map(|d| format!(r#"{{"name":"{}","bound":0.1}}"#, d.name))
            .collect();
        aoci_json::parse(&format!(r#"{{"end_to_end":[{}]}}"#, entries.join(","))).expect("parses")
    }

    #[test]
    fn compare_accepts_equal_files_and_flags_a_regression() {
        let a = result(1, "w", 2.0, 100.0);
        assert_eq!(compare(&a, &a, &manifest()), Ok(true));
        assert_eq!(
            compare(&a, &result(1, "w", 2.5, 100.0), &manifest()),
            Ok(false)
        );
        assert_eq!(
            compare(&a, &result(1, "w", 1.5, 100.0), &manifest()),
            Ok(true)
        );
    }

    #[test]
    fn compare_refuses_files_that_do_not_match() {
        let a = result(1, "w", 2.0, 100.0);
        assert!(compare(&a, &result(2, "w", 2.0, 100.0), &manifest())
            .unwrap_err()
            .contains("seed"));
        assert!(compare(&a, &result(1, "x", 2.0, 100.0), &manifest())
            .unwrap_err()
            .contains("workload"));
        let mut other = result(1, "w", 2.0, 100.0);
        if let Value::Obj(root) = &mut other {
            if let Some(Value::Obj(ws)) = root.get_mut("workloads") {
                if let Some(Value::Obj(w)) = ws.get_mut("w") {
                    w.insert(
                        "per_layer".to_string(),
                        Value::obj([("vm.other".to_string(), Value::from(1.0))]),
                    );
                }
            }
        }
        assert!(compare(&a, &other, &manifest())
            .unwrap_err()
            .contains("metric names"));
    }
}
