//! Any-k streaming benchmark: time to the first / k-th ranked answer
//! tuple, any-k vs plan-at-a-time, on Figure-6-style workloads.
//!
//! The claim under test is the tentpole claim of tuple-level ranking:
//! the any-k stream delivers the best answers long before the plan space
//! is exhausted, while a plan-at-a-time consumer that wants *ranked*
//! answers must drain every sound plan and sort before it can show
//! anything. Both sides run the same ranked enumeration machinery
//! ([`qpo_exec::ranked_join_for_plan`] under the hood), so the comparison
//! isolates scheduling, not join implementation.
//!
//! Reported per workload:
//! - `time_to_tuple_ms` for k ∈ {1, 10, 100} of the any-k session stream;
//! - `plans_before_first_tuple` — how many plans the stream's release
//!   gate actually pulled before the first delivery (deterministic; read
//!   off the session board, where the session records it);
//! - the plan-at-a-time baseline's ranked time-to-first-tuple (full
//!   drain of every sound plan + exact sort, `offline_ranked_answers`).
//!
//! Gates (exercised by `--smoke` in scripts/ci.sh; never committed-file
//! timing): the any-k stream must deliver its first tuple without
//! pulling the whole plan space — on `fig6-anyk-m4`, after at most
//! [`M4_PLANS_BEFORE_FIRST_TUPLE`] plans — and its wall-clock
//! time-to-first-tuple must not exceed the plan-at-a-time ranked
//! baseline's.
//!
//! Usage:
//!
//! ```text
//! bench-anyk [--smoke] [--merge BENCH_ordering.json]
//! ```
//!
//! `--merge` inserts/refreshes an `"anyk"` section in an existing
//! BENCH_ordering.json (written by bench-ordering, which regenerates the
//! base file first in scripts/bench.sh).

use qpo_bench::synthetic_catalog;
use qpo_exec::{offline_ranked_answers, CatalogScorer, Mediator, QuerySession, Strategy};
use qpo_utility::Coverage;
use std::fmt::Write as _;
use std::time::Instant;

const UNIVERSE: u64 = 200;
const JITTER: f64 = 0.25;
/// What the release gate needs on `fig6-anyk-m4`; a count, so it repeats.
const M4_PLANS_BEFORE_FIRST_TUPLE: usize = 6;

struct WorkloadResult {
    name: String,
    query_len: usize,
    bucket_size: usize,
    overlap: f64,
    plan_count: usize,
    answers: usize,
    time_to_tuple_ms: [Option<f64>; 3], // k = 1, 10, 100
    plans_before_first_tuple: Option<usize>,
    baseline_ranked_ttft_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let merge_path = args
        .iter()
        .position(|a| a == "--merge")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let workloads: &[(usize, usize, f64, u64)] = if smoke {
        &[(3, 4, 0.3, 7)]
    } else {
        &[(3, 4, 0.3, 7), (3, 6, 0.3, 11)]
    };

    let mut results = Vec::new();
    let mut failed = false;
    for &(query_len, bucket_size, overlap, seed) in workloads {
        let r = run_workload(query_len, bucket_size, overlap, seed);
        println!(
            "{:<14} plans {:>5}  answers {:>6}  ttft {:>9} (after {} plans)  \
             tt10 {:>9}  tt100 {:>9}  plan-at-a-time ranked ttft {:>9.3}ms",
            r.name,
            r.plan_count,
            r.answers,
            fmt_opt(r.time_to_tuple_ms[0]),
            r.plans_before_first_tuple.unwrap_or(0),
            fmt_opt(r.time_to_tuple_ms[1]),
            fmt_opt(r.time_to_tuple_ms[2]),
            r.baseline_ranked_ttft_ms,
        );
        // Gate 1 (deterministic): first delivery must not require the
        // whole plan space.
        match r.plans_before_first_tuple {
            Some(p) if r.bucket_size == 4 && p > M4_PLANS_BEFORE_FIRST_TUPLE => {
                eprintln!(
                    "FAIL: {} pulled {p} plans before the first tuple, more than \
                     {M4_PLANS_BEFORE_FIRST_TUPLE}",
                    r.name
                );
                failed = true;
            }
            Some(p) if p < r.plan_count => {}
            Some(p) => {
                eprintln!(
                    "FAIL: {} pulled all {p} of {} plans before the first tuple",
                    r.name, r.plan_count
                );
                failed = true;
            }
            None => {
                eprintln!("FAIL: {} delivered no tuples", r.name);
                failed = true;
            }
        }
        // Gate 2 (wall-clock, generous by construction): streaming the
        // first tuple must not cost more than materializing and sorting
        // everything.
        if let Some(ttft) = r.time_to_tuple_ms[0] {
            if ttft > r.baseline_ranked_ttft_ms {
                eprintln!(
                    "FAIL: {} any-k ttft {ttft:.3}ms exceeds plan-at-a-time ranked ttft {:.3}ms",
                    r.name, r.baseline_ranked_ttft_ms
                );
                failed = true;
            }
        }
        results.push(r);
    }

    if let Some(path) = merge_path {
        let base = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let merged = qpo_bench::merge_section(&base, "anyk", &render_section(&results));
        std::fs::write(&path, merged).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("merged anyk section into {path}");
    }

    if failed {
        std::process::exit(1);
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.3}ms"))
}

fn run_workload(query_len: usize, bucket_size: usize, overlap: f64, seed: u64) -> WorkloadResult {
    let (catalog, query) = synthetic_catalog(query_len, bucket_size, overlap, seed);
    let mediator = Mediator::new(catalog, UNIVERSE, &["k"]);
    let prepared = mediator.prepare(&query).expect("workload prepares");
    let plan_count = prepared.instance.plan_count();
    let scorer = CatalogScorer::new(UNIVERSE).with_jitter(JITTER);

    // Any-k: pull the stream and note the k-th-tuple latencies.
    let started = Instant::now();
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips)
        .expect("coverage + idrips applies")
        .with_tuple_scorer(scorer);
    let mut time_to_tuple_ms = [None; 3];
    let mut delivered = 0usize;
    while session.next_tuple().is_some() {
        delivered += 1;
        let at = started.elapsed().as_secs_f64() * 1e3;
        match delivered {
            1 => time_to_tuple_ms[0] = Some(at),
            10 => time_to_tuple_ms[1] = Some(at),
            100 => {
                time_to_tuple_ms[2] = Some(at);
                // Latency-to-k is the claim; draining the remaining
                // hundreds of thousands of answers is not.
                break;
            }
            _ => {}
        }
    }

    drop(session);
    let board = mediator.obs().sessions.entries();
    let plans_before_first_tuple = board
        .last()
        .and_then(|e| e.plans_before_first_tuple)
        .map(|p| p as usize);

    // Plan-at-a-time baseline: a ranked answer list requires draining
    // every sound plan and sorting — only then is the "first" tuple known.
    let started = Instant::now();
    let ranked = offline_ranked_answers(
        mediator.database(),
        &prepared.reformulation,
        &mediator.catalog().view_map(),
        &prepared.instance,
        &scorer,
    );
    let baseline_ranked_ttft_ms = started.elapsed().as_secs_f64() * 1e3;

    WorkloadResult {
        name: format!("fig6-anyk-m{bucket_size}"),
        query_len,
        bucket_size,
        overlap,
        plan_count,
        answers: ranked.len(),
        time_to_tuple_ms,
        plans_before_first_tuple,
        baseline_ranked_ttft_ms,
    }
}

fn render_section(results: &[WorkloadResult]) -> String {
    let mut s = String::from("\"anyk\": {\n");
    let _ = writeln!(
        s,
        "    \"source\": \"scripts/bench.sh (crates/bench/src/bin/bench_anyk.rs)\","
    );
    let _ = writeln!(s, "    \"workloads\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let opt = |v: Option<f64>| v.map_or_else(|| "null".into(), |v| format!("{v:.3}"));
        let _ = writeln!(
            s,
            "      {{ \"name\": \"{}\", \"query_len\": {}, \"bucket_size\": {}, \
             \"overlap\": {}, \"plan_count\": {}, \"answers\": {}, \
             \"time_to_tuple_ms\": {{ \"k1\": {}, \"k10\": {}, \"k100\": {} }}, \
             \"plans_before_first_tuple\": {}, \
             \"plan_at_a_time_ranked_ttft_ms\": {:.3} }}{comma}",
            r.name,
            r.query_len,
            r.bucket_size,
            r.overlap,
            r.plan_count,
            r.answers,
            opt(r.time_to_tuple_ms[0]),
            opt(r.time_to_tuple_ms[1]),
            opt(r.time_to_tuple_ms[2]),
            r.plans_before_first_tuple
                .map_or_else(|| "null".into(), |p| p.to_string()),
            r.baseline_ranked_ttft_ms,
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"gate\": \"plans_before_first_tuple < plan_count (fig6-anyk-m4: <= \
         {M4_PLANS_BEFORE_FIRST_TUPLE}) && \
         time_to_tuple_ms.k1 <= plan_at_a_time_ranked_ttft_ms\""
    );
    s.push_str("  }");
    s
}
