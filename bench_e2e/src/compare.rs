//! `bench_e2e compare A.json B.json`: one row per (end-to-end metric,
//! workload) with the bound and a verdict, and per workload the layer
//! whose self time moved most.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use qpo_obs::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values of one results file: `(workload, traced, metric) → one value
/// per run`.
type Values = BTreeMap<(String, bool, String), Vec<f64>>;

pub fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {}", e.message))?;
    let Some(Json::Array(runs)) = json.get("runs") else {
        return Err(format!("{path}: no \"runs\" array"));
    };
    let mut values = Values::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let mut push = |metric: &str, value: f64| {
            values
                .entry((workload.to_string(), traced, metric.to_string()))
                .or_default()
                .push(value)
        };
        if let Some(Json::Object(metrics)) = run.get("metrics") {
            for (name, metric) in metrics {
                if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                    push(name, v);
                }
            }
        }
        if !traced {
            let count = |key| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            push(
                "failed_share",
                count("failed") / count("attempted").max(1.0),
            );
        }
    }
    Ok(values)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// The verdict of one (metric, workload) pair. `a` is the parent's runs,
/// `b` the change's.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // How much worse b's median is, as a share of a's.
    let worse_by = if higher_is_better { ma - mb } else { mb - ma };
    if bound == 0.0 {
        // Bound-0 metrics must match exactly on every run.
        let exact = a.iter().chain(b).all(|v| *v == ma);
        return if exact {
            Verdict::Same
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound * ma.abs() {
        return Verdict::Worse;
    }
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        // Too noisy to call unchanged — unless every run of the change
        // reads better than every run of the parent.
        let all_better = a.iter().all(|x| {
            b.iter()
                .all(|y| if higher_is_better { y > x } else { y < x })
        });
        if !all_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Same
}

fn get<'v>(values: &'v Values, workload: &str, traced: bool, metric: &str) -> &'v [f64] {
    values
        .get(&(workload.to_string(), traced, metric.to_string()))
        .map_or(&[], Vec::as_slice)
}

/// Self time per traced query of every `selftime.*` layer, in ms.
fn layer_self_ms(values: &Values, workload: &str) -> BTreeMap<String, f64> {
    let per_query = median(get(values, workload, true, "bench.traced_query_ms")).unwrap_or(0.0);
    values
        .iter()
        .filter(|((w, traced, m), _)| w == workload && *traced && m.starts_with("selftime."))
        .map(|((_, _, m), v)| (m.clone(), median(v).unwrap_or(0.0) * per_query))
        .collect()
}

/// The comparison table; `Err` only for unreadable input. The second
/// component is true when any pair is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        let rows = END_TO_END
            .iter()
            .map(|m| (m.0, m.2 == "higher", m.3))
            .chain([("failed_share", false, 0.0)]);
        for (metric, higher, bound) in rows {
            let (va, vb) = (
                get(&a, workload, false, metric),
                get(&b, workload, false, metric),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(va, vb, higher, bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (
                median(va).unwrap_or(f64::NAN),
                median(vb).unwrap_or(f64::NAN),
            );
            let widest = spread(va)
                .into_iter()
                .chain(spread(vb))
                .fold(f64::NAN, f64::max);
            let percent = |share: f64, signed: bool| match (share.is_finite(), signed) {
                (false, _) => "n/a".to_string(),
                (true, true) => format!("{:+.1}%", share * 100.0),
                (true, false) => format!("{:.1}%", share * 100.0),
            };
            let _ = writeln!(
                out,
                "{workload:<16} {metric:<28} {ma:>14.4} {mb:>14.4} {:>8} {bound:>6.2} {:>8}  {}",
                percent((mb - ma) / ma.abs(), true),
                percent(widest, false),
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (la, lb) = (layer_self_ms(&a, workload), layer_self_ms(&b, workload));
        let moved = la
            .iter()
            .filter_map(|(layer, x)| lb.get(layer).map(|y| (layer, y - x)))
            .max_by(|p, q| p.1.abs().total_cmp(&q.1.abs()));
        if let Some((layer, delta)) = moved {
            let _ = writeln!(
                out,
                "{workload:<16} layer whose self time moved most: {layer} ({delta:+.4} ms per traced query)"
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bounds() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&steady, &[10.2, 10.3, 10.1, 10.2], false, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(&steady, &[11.5, 11.6, 11.4, 11.5], false, 0.1),
            Verdict::Worse
        );
        // Higher-is-better: a drop past the bound is worse, a rise is not.
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0], true, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.0], true, 0.1),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(
            verdict(&noisy, &[10.5, 13.0, 8.5, 11.0, 9.5], false, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[5.0, 7.0, 4.0, 6.0, 4.5], false, 0.1),
            Verdict::Same
        );
    }

    #[test]
    fn bound_zero_needs_exact_agreement() {
        assert_eq!(verdict(&[0.0, 0.0], &[0.0, 0.0], false, 0.0), Verdict::Same);
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.01], false, 0.0),
            Verdict::Worse
        );
        assert_eq!(verdict(&[3.0], &[3.0], false, 0.0), Verdict::Same);
    }
}
