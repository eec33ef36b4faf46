//! The benchmark's metric tables — the same names, units and bounds
//! `BENCHMARK.json` declares (a test keeps the two in step).

/// `(name, unit, better, bound)`; every one is reported on every workload
/// by an untraced run. `failed_share` is not in the table: the run's
/// result line carries `attempted` and `failed`, and a share that is 0 on
/// correct code cannot carry a relative bound.
///
/// Timings are in reference time (`speed.rs`). Every timing and the peak
/// memory carry the contract's widest bound, a quarter: between ten runs
/// with ten seeds on the machine class this runs on they spread by up to a
/// tenth (README.md has the table), and a bound should sit three times
/// above the spread it has to tell a regression from.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("query_ms_p90", "ms", "lower", 0.25),
    ("first_answer_ms_p50", "ms", "lower", 0.25),
    ("first_answer_ms_p90", "ms", "lower", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("source_accesses_per_query", "count", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// `(name, unit, better)`; every one is reported on every workload by a
/// traced run (0 where the layer is idle on that workload).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("datalog.parse.us_per_query", "us", "lower"),
    ("datalog.canonical.us_per_query", "us", "lower"),
    ("reformulation.prepare_cold.us", "us", "lower"),
    ("reformulation.prepare_warm.us", "us", "lower"),
    ("reformulation.cache.hit_rate", "ratio", "higher"),
    ("reformulation.cache.evictions", "count", "lower"),
    ("reformulation.cache.generations", "count", "lower"),
    ("reformulation.plans_per_query", "count", "lower"),
    ("core.orderer_build.us", "us", "lower"),
    ("core.next_plan.ms_p50", "ms", "lower"),
    ("core.next_plan.ms_p90", "ms", "lower"),
    ("core.order_share", "ratio", "lower"),
    ("core.kernel.interval_evals_per_plan", "count", "lower"),
    ("core.kernel.interval_cache_hit_rate", "ratio", "higher"),
    ("core.kernel.dominance_checks_per_plan", "count", "lower"),
    ("core.kernel.refinements_per_plan", "count", "lower"),
    ("core.kernel.tree_cache_hit_rate", "ratio", "higher"),
    ("utility.interval_eval.ns", "ns", "lower"),
    ("utility.concrete_eval.ns", "ns", "lower"),
    ("utility.evals_per_plan", "count", "lower"),
    ("datalog.soundness.us_per_plan", "us", "lower"),
    ("datalog.soundness.checks_per_query", "count", "lower"),
    ("datalog.eval.ms_per_plan", "ms", "lower"),
    ("datalog.eval.rows_in_per_answer", "count", "lower"),
    ("runtime.backend.access_ms_p50", "ms", "lower"),
    ("runtime.backend.access_ms_p90", "ms", "lower"),
    ("runtime.backend.rows_per_access", "count", "lower"),
    ("runtime.backend.bytes_per_access", "bytes", "lower"),
    ("runtime.backend.useful_row_share", "ratio", "higher"),
    ("runtime.backend.attempts_per_access", "count", "lower"),
    ("runtime.backend.errors", "count", "lower"),
    ("runtime.wire.encode_us_per_mb", "us/MB", "lower"),
    ("runtime.wire.decode_us_per_mb", "us/MB", "lower"),
    ("runtime.server.cpu_share", "ratio", "lower"),
    ("runtime.server.requests_served", "count", "lower"),
    ("runtime.executor.residual_share", "ratio", "lower"),
    ("runtime.executor.parallel_speedup", "ratio", "higher"),
    ("runtime.executor.virtual_time_units", "units", "lower"),
    ("runtime.memo.source_hit_rate", "ratio", "higher"),
    ("exec.memo.subplans_reused_per_query", "count", "higher"),
    ("exec.memo.bytes", "bytes", "lower"),
    ("exec.memo.warm_speedup", "ratio", "higher"),
    ("exec.session.residual_share", "ratio", "lower"),
    ("anyk.plans_before_first_tuple", "count", "lower"),
    ("anyk.attached_share", "ratio", "lower"),
    ("anyk.ranked_join_build.ms_per_plan", "ms", "lower"),
    ("anyk.next_tuple.us_p50", "us", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.events_per_query", "count", "lower"),
    ("obs.dropped_events", "count", "lower"),
    ("obs.profile_rebuild_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.selftime_check_failures", "count", "lower"),
    ("bench.traced_query_ms", "ms", "lower"),
    // Self time of the stepwise replay by layer, as shares of the traced
    // queries' wall time; they sum to 1.
    ("selftime.datalog.parse_share", "ratio", "lower"),
    ("selftime.datalog.soundness_share", "ratio", "lower"),
    ("selftime.datalog.eval_share", "ratio", "lower"),
    ("selftime.reformulation_share", "ratio", "lower"),
    ("selftime.core_share", "ratio", "lower"),
    ("selftime.runtime.backend_share", "ratio", "lower"),
    ("selftime.runtime.memo_share", "ratio", "lower"),
    ("selftime.exec_share", "ratio", "lower"),
    ("selftime.anyk_share", "ratio", "lower"),
    ("selftime.harness_share", "ratio", "lower"),
];

/// `(name, why)` of the five workloads.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve-mix",
        "parse, canonicalisation, reformulation cache and context-free ordering carry it; backends, any-k and the executor are idle",
    ),
    (
        "order-coverage",
        "the context-sensitive ordering kernel (Coverage + iDrips) is nearly all of the time; joins are tiny",
    ),
    (
        "anyk-stream",
        "any-k enumerate/merge and the ranked joins dominate and the first answer is release-gate-bound",
    ),
    (
        "access-tcp",
        "connect-per-access, whole-relation scans, wire codec and the serial source server are the cost; ordering is negligible",
    ),
    (
        "share-warm",
        "source memo, subplan memo and the sharing observer dominate: the executor-with-memo use access-tcp bypasses",
    ),
];

/// Selftime metric that the span `(layer, name)` is booked under.
pub fn selftime_bucket(layer: &str, name: &str) -> &'static str {
    match (layer, name) {
        ("datalog", "parse") => "selftime.datalog.parse_share",
        ("datalog", "soundness") => "selftime.datalog.soundness_share",
        ("datalog", _) => "selftime.datalog.eval_share",
        ("reformulation", _) | ("catalog", _) => "selftime.reformulation_share",
        ("core", _) => "selftime.core_share",
        ("runtime", n) if n.starts_with("memo") => "selftime.runtime.memo_share",
        ("runtime", _) => "selftime.runtime.backend_share",
        ("exec", _) => "selftime.exec_share",
        ("anyk", _) => "selftime.anyk_share",
        _ => "selftime.harness_share",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_obs::{parse_json, Json};

    fn names(list: &Json) -> Vec<String> {
        let Json::Array(items) = list else {
            panic!("expected an array");
        };
        items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        let e2e = json.get("end_to_end").unwrap();
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        let Json::Array(items) = e2e else { panic!() };
        for (item, (_, unit, better, bound)) in items.iter().zip(END_TO_END) {
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(item.get("better").and_then(Json::as_str), Some(*better));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(*bound));
        }
        assert_eq!(
            names(json.get("per_layer").unwrap()),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names(json.get("workloads").unwrap()),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u, _, bound) in END_TO_END {
            assert!(ok_name(n) && ok_unit(u) && *bound <= 0.25, "{n}");
            assert!(seen.insert(*n));
        }
        for (n, u, _) in PER_LAYER {
            assert!(ok_name(n) && ok_unit(u), "{n}");
            assert!(seen.insert(*n));
            assert!(n.starts_with("selftime.") == selftime_names().contains(n));
        }
        for (n, why) in WORKLOADS {
            assert!(ok_name(n) && why.len() <= 200 && !why.contains('\n'), "{n}");
            assert!(seen.insert(*n));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    fn selftime_names() -> Vec<&'static str> {
        let spans = [
            ("datalog", "parse"),
            ("datalog", "soundness"),
            ("datalog", "eval"),
            ("reformulation", "prepare_warm"),
            ("core", "next_plan"),
            ("runtime", "memo_lookup"),
            ("runtime", "backend_access"),
            ("exec", "overlay"),
            ("anyk", "attach"),
            ("harness", "query"),
        ];
        spans.iter().map(|(l, n)| selftime_bucket(l, n)).collect()
    }
}
