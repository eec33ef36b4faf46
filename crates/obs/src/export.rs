//! Exporters: a Prometheus-style text exposition and a human-readable
//! summary of a [`Registry`]. (The third exporter — the JSONL trace — is
//! [`crate::TraceJournal::to_jsonl`], owned by the journal.)
//!
//! Both renderings walk a [`RegistrySnapshot`], whose `BTreeMap`-backed
//! key order makes the output deterministic for a given metric state.

use std::fmt::Write as _;

use crate::registry::{bucket_edge, MetricId, Registry, RegistrySnapshot, FINITE_BUCKETS};

/// Escapes a label value per the Prometheus text exposition format:
/// backslash → `\\`, double quote → `\"`, newline → `\n`. Everything else
/// passes through unchanged (label *values* may contain any UTF-8).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn push_type_line(out: &mut String, last: &mut Option<String>, name: &str, kind: &str) {
    if last.as_deref() != Some(name) {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *last = Some(name.to_string());
    }
}

/// Renders every metric in Prometheus text-exposition style: counters and
/// gauges as single samples, histograms as cumulative `_bucket{le=…}`
/// series plus `_sum` and `_count`.
pub fn prometheus_text(registry: &Registry) -> String {
    let snap = registry.snapshot();
    let mut out = String::new();
    let mut last_family: Option<String> = None;
    for (id, value) in &snap.counters {
        push_type_line(&mut out, &mut last_family, &id.name, "counter");
        let _ = writeln!(out, "{} {}", id.render("", None), value);
    }
    last_family = None;
    for (id, value) in &snap.gauges {
        push_type_line(&mut out, &mut last_family, &id.name, "gauge");
        let _ = writeln!(out, "{} {}", id.render("", None), value);
    }
    last_family = None;
    for (id, hist) in &snap.histograms {
        push_type_line(&mut out, &mut last_family, &id.name, "histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.buckets.iter().enumerate() {
            cumulative += count;
            // Skip interior empty prefixes? No — Prometheus convention is
            // to emit every configured bucket, and 32 lines is cheap.
            let le = if i < FINITE_BUCKETS {
                format!("{}", bucket_edge(i))
            } else {
                "+Inf".to_string()
            };
            let bucket = id.render("_bucket", Some(("le", &le)));
            let _ = writeln!(out, "{bucket} {cumulative}");
        }
        let _ = writeln!(out, "{} {}", id.render("_sum", None), hist.sum);
        let _ = writeln!(out, "{} {}", id.render("_count", None), hist.count);
    }
    out
}

fn summary_section<T, F>(out: &mut String, title: &str, rows: &[(MetricId, T)], fmt: F)
where
    F: Fn(&T) -> String,
{
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "  {title}:");
    let width = rows
        .iter()
        .map(|(id, _)| id.render("", None).len())
        .max()
        .unwrap_or(0);
    for (id, v) in rows {
        let _ = writeln!(out, "    {:<width$}  {}", id.render("", None), fmt(v));
    }
}

/// Renders a compact human summary: every counter and gauge with its
/// value, every histogram with count / sum / p50 / p95. This is the
/// general-purpose sibling of `qpo_exec::format_kernel_stats` — that
/// formatter stays for its curated kernel block; this one shows whatever
/// the registry holds. No trailing newline.
pub fn summary_text(registry: &Registry) -> String {
    let snap: RegistrySnapshot = registry.snapshot();
    let mut out = String::from("telemetry summary:\n");
    summary_section(&mut out, "counters", &snap.counters, |v| format!("{v}"));
    summary_section(&mut out, "gauges", &snap.gauges, |v| format!("{v:.4}"));
    summary_section(&mut out, "histograms", &snap.histograms, |h| {
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let q = |v: Option<f64>| match v {
            Some(x) => format!("{x}"),
            None => "-".to_string(),
        };
        format!(
            "count={} sum={:.4} p50≤{} p95≤{}",
            h.count,
            h.sum,
            q(p50),
            q(p95)
        )
    });
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        out.push_str("  (empty)\n");
    }
    out.pop(); // drop trailing newline, like format_kernel_stats
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("qpo_runtime_attempts_total", &[]).add(7);
        reg.counter("qpo_runtime_plans_total", &[("status", "executed")])
            .add(5);
        reg.counter("qpo_runtime_plans_total", &[("status", "failed")])
            .add(2);
        reg.gauge("qpo_runtime_virtual_time", &[]).set(12.5);
        let h = reg.histogram("qpo_runtime_access_latency", &[("source", "s1")]);
        for v in [0.5, 0.5, 3.0] {
            h.record(v);
        }
        reg.histogram("h", &[]).record(1.0);
        reg
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus_text(&sample_registry());
        assert!(text.contains("# TYPE qpo_runtime_attempts_total counter\n"));
        assert!(text.contains("qpo_runtime_attempts_total 7\n"));
        assert!(text.contains("qpo_runtime_plans_total{status=\"executed\"} 5\n"));
        assert!(text.contains("qpo_runtime_plans_total{status=\"failed\"} 2\n"));
        assert_eq!(
            text.matches("# TYPE qpo_runtime_plans_total counter")
                .count(),
            1,
            "one TYPE line per family"
        );
        assert!(text.contains("# TYPE qpo_runtime_virtual_time gauge\n"));
        assert!(text.contains("qpo_runtime_virtual_time 12.5\n"));
        assert!(text.contains("# TYPE qpo_runtime_access_latency histogram\n"));
        // Cumulative buckets: the 0.5 edge holds 2, the 4 edge holds all 3.
        assert!(text.contains("qpo_runtime_access_latency_bucket{source=\"s1\",le=\"0.5\"} 2\n"));
        assert!(text.contains("qpo_runtime_access_latency_bucket{source=\"s1\",le=\"4\"} 3\n"));
        assert!(text.contains("qpo_runtime_access_latency_bucket{source=\"s1\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("qpo_runtime_access_latency_sum{source=\"s1\"} 4\n"));
        assert!(text.contains("qpo_runtime_access_latency_count{source=\"s1\"} 3\n"));
        // Unlabelled: `le` is the only label of a bucket, and the sum and
        // count carry no braces.
        assert!(text.contains("h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("\nh_sum 1\nh_count 1\n"));
    }

    #[test]
    fn summary_lists_every_metric_with_quantiles() {
        let text = summary_text(&sample_registry());
        assert!(text.starts_with("telemetry summary:\n"));
        assert!(!text.ends_with('\n'));
        for needle in [
            "counters:",
            "qpo_runtime_attempts_total",
            "qpo_runtime_plans_total{status=\"executed\"}",
            "gauges:",
            "12.5000",
            "histograms:",
            "count=3 sum=4.0000 p50≤0.5 p95≤4",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_registry_renders_placeholder() {
        assert_eq!(
            summary_text(&Registry::new()),
            "telemetry summary:\n  (empty)"
        );
        assert_eq!(prometheus_text(&Registry::new()), "");
    }
}
