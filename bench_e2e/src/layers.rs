//! Per-layer metrics of a traced pass: what the spans and the boundary
//! counts of the stepwise replay turn into.

use crate::driver::StepTotals;
use crate::metrics::{selftime_bucket, PER_LAYER};
use crate::spans::Spans;
use crate::stats::quantile;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Every per-layer metric by name; the ones a workload's layers do not
/// touch stay 0.
pub struct Layers(BTreeMap<&'static str, f64>);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean_ns(durations: &[u64]) -> f64 {
    ratio(durations.iter().sum::<u64>() as f64, durations.len() as f64)
}

fn quantile_ns(durations: &[u64], q: f64) -> f64 {
    let samples: Vec<f64> = durations.iter().map(|&d| d as f64).collect();
    quantile(&samples, q).unwrap_or(0.0)
}

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }

    /// Sets a metric of the table; an unknown name is a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// `(name, value, unit)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER.iter().map(|m| (m.0, self.0[m.0], m.1))
    }

    /// Fills every metric that derives from the spans and the boundary
    /// counts alone. `driver_ns` is the wall time of the same queries
    /// through the untraced driver path.
    pub fn fill(&mut self, spans: &Spans, totals: &StepTotals, driver_ns: u64) {
        let queries = f64::from(spans.queries());
        let plans = totals.plans as f64;
        let us = |ns: f64| ns / 1e3;
        let ms = |ns: f64| ns / 1e6;
        let d = |layer, name| spans.durations(layer, name);

        let parse = d("datalog", "parse");
        self.set(
            "datalog.parse.us_per_query",
            us(ratio(parse.iter().sum::<u64>() as f64, queries)),
        );
        self.set(
            "datalog.canonical.us_per_query",
            us(ratio(totals.canonical_ns as f64, queries)),
        );
        self.set(
            "reformulation.prepare_cold.us",
            us(mean_ns(&d("reformulation", "prepare_cold"))),
        );
        self.set(
            "reformulation.prepare_warm.us",
            us(mean_ns(&d("reformulation", "prepare_warm"))),
        );
        self.set(
            "reformulation.plans_per_query",
            ratio(totals.plan_space as f64, queries),
        );
        self.set(
            "core.orderer_build.us",
            us(mean_ns(&d("core", "orderer_build"))),
        );
        let next_plan = d("core", "next_plan");
        self.set("core.next_plan.ms_p50", ms(quantile_ns(&next_plan, 0.5)));
        self.set("core.next_plan.ms_p90", ms(quantile_ns(&next_plan, 0.9)));

        let k = &totals.kernel;
        self.set(
            "core.kernel.interval_evals_per_plan",
            ratio(k.interval_evals as f64, plans),
        );
        self.set(
            "core.kernel.interval_cache_hit_rate",
            ratio(
                k.interval_cache_hits as f64,
                (k.interval_cache_hits + k.interval_evals) as f64,
            ),
        );
        self.set(
            "core.kernel.dominance_checks_per_plan",
            ratio(k.dominance_checks as f64, plans),
        );
        self.set(
            "core.kernel.refinements_per_plan",
            ratio(k.refinements as f64, plans),
        );
        self.set(
            "core.kernel.tree_cache_hit_rate",
            ratio(
                k.tree_cache_hits as f64,
                (k.tree_cache_hits + k.tree_builds) as f64,
            ),
        );

        let m = &totals.measure;
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
        self.set(
            "utility.interval_eval.ns",
            ratio(load(&m.interval_ns), load(&m.interval_calls)),
        );
        self.set(
            "utility.concrete_eval.ns",
            ratio(load(&m.concrete_ns), load(&m.concrete_calls)),
        );
        self.set(
            "utility.evals_per_plan",
            ratio(load(&m.interval_calls) + load(&m.concrete_calls), plans),
        );

        self.set(
            "datalog.soundness.us_per_plan",
            us(mean_ns(&d("datalog", "soundness"))),
        );
        self.set(
            "datalog.soundness.checks_per_query",
            ratio(totals.soundness_checks as f64, queries),
        );
        self.set(
            "datalog.eval.ms_per_plan",
            ms(mean_ns(&d("datalog", "eval"))),
        );
        self.set(
            "datalog.eval.rows_in_per_answer",
            ratio(totals.rows_in as f64, totals.rows_out as f64),
        );

        let access = d("runtime", "backend_access");
        self.set(
            "runtime.backend.access_ms_p50",
            ms(quantile_ns(&access, 0.5)),
        );
        self.set(
            "runtime.backend.access_ms_p90",
            ms(quantile_ns(&access, 0.9)),
        );
        let accesses = totals.accesses as f64;
        self.set(
            "runtime.backend.rows_per_access",
            ratio(totals.access_rows as f64, accesses),
        );
        self.set(
            "runtime.backend.bytes_per_access",
            ratio(totals.wire_bytes as f64, accesses),
        );
        self.set(
            "runtime.backend.useful_row_share",
            ratio(totals.access_useful_rows as f64, totals.access_rows as f64),
        );
        let megabytes = totals.wire_bytes as f64 / 1e6;
        self.set(
            "runtime.wire.encode_us_per_mb",
            ratio(us(totals.wire_encode_ns as f64), megabytes),
        );
        self.set(
            "runtime.wire.decode_us_per_mb",
            ratio(us(totals.wire_decode_ns as f64), megabytes),
        );
        self.set(
            "runtime.server.requests_served",
            totals.server_requests as f64,
        );
        self.set(
            "runtime.memo.source_hit_rate",
            ratio(totals.memo_hits as f64, totals.memo_lookups as f64),
        );
        self.set(
            "exec.memo.subplans_reused_per_query",
            ratio(totals.subplans_reused as f64, queries),
        );

        self.set(
            "anyk.plans_before_first_tuple",
            ratio(totals.plans_before_first_tuple as f64, queries),
        );
        self.set(
            "anyk.attached_share",
            ratio(totals.plans_attached as f64, totals.plan_space as f64),
        );
        self.set(
            "anyk.ranked_join_build.ms_per_plan",
            ms(mean_ns(&d("anyk", "ranked_join_build"))),
        );
        self.set(
            "anyk.next_tuple.us_p50",
            us(quantile_ns(&d("anyk", "next_tuple"), 0.5)),
        );

        let root = spans.root_ns() as f64;
        for ((layer, name), ns) in spans.self_times() {
            let bucket = selftime_bucket(layer, name);
            let so_far = self.get(bucket);
            self.set(bucket, so_far + ratio(ns as f64, root));
        }
        self.set("core.order_share", self.get("selftime.core_share"));
        self.set("bench.selftime_check_failures", spans.check() as f64);
        self.set("bench.trace_overhead_ratio", ratio(root, driver_ns as f64));
        self.set("bench.traced_query_ms", ms(ratio(root, queries)));
    }

    /// `1 − Σ layer self time ÷ wall of the same queries through the
    /// driver path`: the share of the driver path no layer call explains.
    pub fn residual_share(spans: &Spans, driver_ns: u64) -> f64 {
        let layer_ns: u64 = spans
            .self_times()
            .iter()
            .filter(|((layer, _), _)| *layer != crate::spans::HARNESS)
            .map(|(_, ns)| *ns)
            .sum();
        1.0 - ratio(layer_ns as f64, driver_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftime_shares_sum_to_one_and_idle_layers_stay_zero() {
        let mut spans = Spans::new();
        spans.begin_query();
        spans.time("datalog", "parse", || {
            std::hint::black_box((0..3000).sum::<u64>())
        });
        spans.time("core", "next_plan", || {
            std::hint::black_box((0..9000).sum::<u64>())
        });
        spans.end_query();
        let mut layers = Layers::new();
        layers.fill(&spans, &StepTotals::default(), spans.root_ns());
        let total: f64 = layers
            .iter()
            .filter(|(n, _, _)| n.starts_with("selftime."))
            .map(|(_, v, _)| v)
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        assert_eq!(layers.get("selftime.anyk_share"), 0.0);
        assert_eq!(
            layers.get("core.order_share"),
            layers.get("selftime.core_share")
        );
        assert_eq!(layers.get("bench.trace_overhead_ratio"), 1.0);
        assert_eq!(layers.iter().count(), PER_LAYER.len());
    }
}
