//! A miniature of the paper's Figure 6: time to the first k best plans —
//! and, one level deeper, time to the first k best *tuples*.
//!
//! Generates a synthetic instance (query length 3, configurable bucket
//! size) and measures, for each algorithm, the wall-clock time and the
//! number of plan evaluations needed to emit the 1st, 10th and 100th best
//! plan under plan coverage and under cost-with-source-failure. Then
//! switches to the movie domain, streams the globally ranked any-k tuple
//! stream and checks it against the offline exact ranking.
//!
//! Run with:
//! `cargo run --release --example anytime_answers [bucket_size] [--trace out.jsonl]`
//!
//! `--trace <path>` journals the any-k session and writes its trace as
//! JSONL, with the tuple lifecycle (`stream_attached`, `tuple_emitted`)
//! that only a session emits.

use query_plan_ordering::prelude::*;
use std::time::Instant;

fn run_case<M: UtilityMeasure>(
    label: &str,
    inst: &ProblemInstance,
    measure: M,
    streamer_applies: bool,
) {
    println!("\n== {label} (plan space: {} plans) ==", inst.plan_count());
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "algorithm", "k=1", "k=10", "k=100", "evals@100"
    );
    let ks = [1usize, 10, 100];

    let mut rows: Vec<(&str, Vec<f64>, u64)> = Vec::new();
    let mut streamer_work: Option<StreamerStats> = None;

    // Streamer (single instance reused across k — it is incremental).
    if streamer_applies {
        let counting = CountingMeasure::new(&measure);
        let mut alg = Streamer::new(inst, &counting, &ByExpectedTuples).unwrap();
        let start = Instant::now();
        let mut times = Vec::new();
        let mut emitted = 0;
        for &k in &ks {
            while emitted < k && alg.next_plan().is_some() {
                emitted += 1;
            }
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        streamer_work = Some(alg.stats());
        rows.push(("streamer", times, counting.total_evals()));
    }

    // iDrips.
    {
        let counting = CountingMeasure::new(&measure);
        let mut alg = IDrips::new(inst, &counting, ByExpectedTuples);
        let start = Instant::now();
        let mut times = Vec::new();
        let mut emitted = 0;
        for &k in &ks {
            while emitted < k && alg.next_plan().is_some() {
                emitted += 1;
            }
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        rows.push(("idrips", times, counting.total_evals()));
    }

    // PI.
    {
        let counting = CountingMeasure::new(&measure);
        let mut alg = Pi::new(inst, &counting);
        let start = Instant::now();
        let mut times = Vec::new();
        let mut emitted = 0;
        for &k in &ks {
            while emitted < k && alg.next_plan().is_some() {
                emitted += 1;
            }
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        rows.push(("pi", times, counting.total_evals()));
    }

    for (name, times, evals) in rows {
        println!(
            "{:<10} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>12}",
            name, times[0], times[1], times[2], evals
        );
    }
    if let Some(s) = streamer_work {
        println!(
            "streamer work: {} refinements, {} links created / {} recycled / {} invalidated, \
             {} utility recomputations ({} resumed)",
            s.refinements,
            s.links_created,
            s.links_recycled,
            s.links_invalidated,
            s.utility_recomputations,
            s.utility_resumes
        );
    }
}

/// Streams the globally ranked tuple stream of the movie mediator: the
/// any-k layer delivers the best answers first, pulling plans lazily
/// only when the next tuple needs them. The stream's contract is the
/// offline exact ranking: every delivered score equals, bit for bit, the
/// score at the same rank of `offline_ranked_answers`.
fn stream_ranked_tuples(trace_path: Option<&str>) {
    println!("\n== any-k: globally ranked tuple stream (movie domain) ==");
    let obs = match trace_path {
        Some(_) => Obs::with_trace(),
        None => Obs::new(),
    };
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]).with_obs(&obs);
    let prepared = mediator.prepare(&movie_query()).unwrap();
    let scorer = CatalogScorer::new(MOVIE_UNIVERSE).with_jitter(0.25);
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(scorer);
    println!("{:<4} {:>8} {:>7}  tuple", "k", "score", "plans");
    let mut scores = Vec::new();
    while let Some(rt) = session.next_tuple() {
        scores.push(rt.score);
        if scores.len() <= 8 {
            let plans = session.plans_emitted();
            println!(
                "{:<4} {:>8.3} {:>7}  {:?}",
                scores.len(),
                rt.score,
                plans,
                rt.tuple
            );
        }
    }
    let offline = offline_ranked_answers(
        mediator.database(),
        &prepared.reformulation,
        &mediator.catalog().view_map(),
        &prepared.instance,
        &scorer,
    );
    let exact = scores.len() <= offline.len()
        && scores
            .iter()
            .zip(&offline)
            .all(|(s, (o, _))| s.to_bits() == o.to_bits());
    println!(
        "... {} tuples total over {} plans; scores equal the offline exact ranking's \
         prefix bit for bit: {exact}",
        scores.len(),
        session.plans_emitted()
    );
    assert!(exact, "the any-k stream left the exact ranking");
    drop(session); // seals the run
    if let Some(path) = trace_path {
        let jsonl = obs.journal.to_jsonl();
        std::fs::write(path, &jsonl).expect("trace file is writable");
        let report = validate_trace(&jsonl).expect("journal validates");
        println!(
            "trace: {} events ({} tuples emitted) -> {path}",
            report.events,
            report.count("tuple_emitted")
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut bucket_size, mut trace_path) = (12usize, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.next().expect("--trace takes a path")),
            other => bucket_size = other.parse().unwrap_or(bucket_size),
        }
    }

    let inst = GeneratorConfig::new(3, bucket_size)
        .with_seed(42)
        .with_overlap_rate(0.3)
        .build();

    run_case("plan coverage", &inst, Coverage, true);
    run_case(
        "cost with source failure (no caching)",
        &inst,
        FailureCost::without_caching(),
        true,
    );
    run_case(
        "cost with source failure (caching)",
        &inst,
        FailureCost::with_caching(),
        false, // no diminishing returns → Streamer inapplicable
    );
    run_case(
        "average monetary cost per tuple",
        &inst,
        MonetaryCost::without_caching(),
        true,
    );

    println!(
        "\nExpected shapes (paper, Figure 6): Streamer ≪ PI for the first plans under \
         coverage and no-caching failure-cost; iDrips ≪ PI under caching; \
         gains shrink for the monetary measure."
    );

    stream_ranked_tuples(trace_path.as_deref());
}
