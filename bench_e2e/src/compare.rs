//! `bench_e2e compare <base.json> <new.json>`: per workload and metric,
//! the base and new medians, their ratio, and a verdict under the
//! bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::median;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// A side's run-to-run spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of one side's runs: max/min − 1.
fn spread(runs: &[f64]) -> f64 {
    let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo > 0.0 {
        hi / lo - 1.0
    } else {
        f64::INFINITY
    }
}

/// The verdict on `new` against `base` (each the runs of one side) for
/// a metric that may worsen by `bound`, a share of the base median.
/// When either side spreads wider than the bound, only a change whose
/// every run beats every base run counts, as better.
pub fn verdict(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(b), Some(n)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (n - b) / b;
    if spread(base) > bound || spread(new) > bound {
        let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
        let every = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
        return if every {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Bounds and directions by metric name, from `BENCHMARK.json`.
fn bounds_of(benchmark: &Json) -> Vec<(String, bool, Option<f64>)> {
    ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| benchmark.get(key).map_or(&[][..], Json::as_array))
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound").and_then(Json::as_f64),
            ))
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one line per workload × metric; `Ok(false)` if any is worse.
pub fn command(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("usage: bench_e2e compare <base.json> <new.json>".to_string());
    };
    let bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let (base, new, benchmark) = (load(base.as_ref())?, load(new.as_ref())?, load(&bounds)?);
    let mut any_worse = false;
    for (workload, base_w) in base.get("workloads").map_or(&[][..], Json::entries) {
        let Some(new_w) = new.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for (name, higher, bound) in bounds_of(&benchmark) {
            let runs = |side: &Json| -> Option<Vec<f64>> {
                let m = side.get("metrics")?.get(&name)?;
                Some(
                    m.get("runs")?
                        .as_array()
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                )
            };
            let (Some(b), Some(n)) = (runs(base_w), runs(new_w)) else {
                continue;
            };
            let (bm, nm) = (
                median(&b).unwrap_or(f64::NAN),
                median(&n).unwrap_or(f64::NAN),
            );
            let judged = match bound {
                Some(bound) => {
                    let v = verdict(&b, &n, higher, bound);
                    any_worse |= v == Verdict::Worse;
                    format!("{} (bound {:.0}%)", v.text(), bound * 100.0)
                }
                None => "no bound".to_string(),
            };
            println!(
                "{workload:<11} {name:<32} base {bm:>12.4}  new {nm:>12.4}  ×{:.3} of base  {judged}",
                nm / bm
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 102.0];
        // lower is better, bound 10%
        assert_eq!(
            verdict(&base, &[104.0, 105.0, 106.0], false, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 122.0], false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 82.0], false, 0.1),
            Verdict::Better
        );
        // higher is better flips the direction
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 122.0], true, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 82.0], true, 0.1),
            Verdict::Worse
        );
        // a side spreading wider than the bound is unresolved …
        assert_eq!(
            verdict(&base, &[90.0, 120.0, 150.0], false, 0.1),
            Verdict::Unresolved
        );
        // … unless every new run beats every base run
        assert_eq!(
            verdict(&base, &[50.0, 70.0, 90.0], false, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(&[], &base, false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn bounds_are_read_from_both_metric_lists() {
        let json = Json::parse(
            r#"{"end_to_end":[{"name":"a","unit":"ms","better":"lower","bound":0.1}],
                "per_layer":[{"name":"b","unit":"ratio","better":"higher"}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds_of(&json),
            vec![
                ("a".to_string(), false, Some(0.1)),
                ("b".to_string(), true, None)
            ]
        );
    }
}
