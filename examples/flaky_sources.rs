//! Mediation over *flaky* sources: graceful degradation under failures.
//!
//! The paper's setting (§1) is a mediator over autonomous web sources that
//! time out, fail transiently, and occasionally go down for good. This
//! example runs the Figure 1 movie query three ways on the concurrent
//! runtime:
//!
//! 1. fault-free — bit-for-bit identical to the serial mediator;
//! 2. every source failing ≥ 25% of access attempts — retries with capped
//!    exponential backoff still recover the *full* answer set;
//! 3. one source permanently down — its plans are marked failed, the run
//!    carries on, and the answers degrade to exactly what the surviving
//!    sources support.
//!
//! Run with:
//! `cargo run --example flaky_sources [--trace out.jsonl] [--metrics out.prom] [--backend sim|store|tcp]`
//!
//! `--trace <path>` records every run on a shared [`Obs`] bundle and
//! writes the deterministic plan-lifecycle trace journal as JSONL;
//! `--metrics <path>` writes a Prometheus-style snapshot of the metrics
//! registry. Either flag also prints the human-readable telemetry
//! summary at the end.
//!
//! `--backend store` / `--backend tcp` additionally re-run the fault-free
//! case through a *real* source backend — a persistent indexed store in a
//! temp directory, or an in-process loopback source server behind a
//! `TcpBackend` — seeded from the mediator's own extensions, and assert
//! the answers match the simulator bit for bit. Sections 1–3 always run
//! on the simulator (`sim`, the default), keeping the traced runs
//! deterministic.

use query_plan_ordering::prelude::*;
use std::sync::Arc;

/// Pulls `--flag <value>` out of the argument list, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = flag_value(&args, "--trace");
    let metrics_path = flag_value(&args, "--metrics");
    let backend = flag_value(&args, "--backend").unwrap_or_else(|| "sim".to_string());
    assert!(
        matches!(backend.as_str(), "sim" | "store" | "tcp"),
        "--backend must be one of sim, store, tcp (got {backend:?})"
    );
    let obs = if trace_path.is_some() {
        Obs::with_trace()
    } else {
        Obs::new()
    };

    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]);
    let query = movie_query();
    println!("Query: {query}\n");

    // Reference: the serial mediator on perfectly reliable sources.
    let serial = mediator
        .answer_until(&query, &Coverage, Strategy::Pi, StopCondition::unbounded())
        .expect("mediation succeeds");
    let full = serial.answers.len();
    println!("Serial reference run: 9 plans, {full} answers.\n");

    let observed = RunOptions {
        obs: Some(&obs),
        ..RunOptions::default()
    };

    // 1. Concurrent, faults off: the equivalence case.
    let calm = mediator
        .run(
            &query,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(4),
            &observed,
        )
        .expect("mediation succeeds");
    assert_eq!(calm.runtime.answers, serial.answers);
    println!(
        "[1] 4 workers, no faults:   {} plans, {} answers — identical to serial.",
        calm.runtime.reports.len(),
        calm.runtime.answers.len()
    );

    // 2. Transient chaos: ≥ 25% of attempts fail, retries absorb it all.
    let flaky = mediator
        .run(
            &query,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(4)
                .with_faults(FaultConfig::with_seed(2002).with_extra_transient_rate(0.25))
                .with_max_attempts(10),
            &observed,
        )
        .expect("mediation succeeds");
    let s = &flaky.runtime.stats;
    println!(
        "[2] 25% transient failures: {} answers, {} attempts for {} accesses \
         ({} failed transiently), {} plans lost.",
        flaky.runtime.answers.len(),
        s.attempts,
        9 * 2,
        s.transient_failures,
        flaky.failed(),
    );
    assert_eq!(
        flaky.runtime.answers, serial.answers,
        "retries recover the full answer set"
    );
    println!("    Observed per-source failure rates (catalog says 0.0–0.2 + 0.25 injected):");
    for (name, drift) in flaky.runtime.divergence.iter() {
        println!(
            "      source {name}: {:>5.1}% over {} attempts",
            drift.transient_failures as f64 / drift.attempts.max(1) as f64 * 100.0,
            drift.attempts
        );
    }

    // 3. v1 goes down for good: plans through it fail, the rest deliver.
    let degraded = mediator
        .run(
            &query,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(4)
                .with_faults(FaultConfig::with_seed(7).with_source_down("v1")),
            &observed,
        )
        .expect("mediation succeeds");
    println!(
        "\n[3] v1 permanently down:    {} of {} plans failed, {} answers \
         (vs {full} with v1 up) — the run degrades, it does not abort.",
        degraded.failed(),
        degraded.runtime.reports.len(),
        degraded.runtime.answers.len(),
    );
    assert!(degraded.failed() > 0 && degraded.executed() > 0);
    assert!(degraded.runtime.answers.len() < full);
    assert!(!degraded.runtime.answers.is_empty());

    // Optional: the fault-free case again, through a real backend seeded
    // from the same extensions — identical answers, real I/O.
    if backend != "sim" {
        let mut _server_guard = None;
        let store_dir =
            std::env::temp_dir().join(format!("qpo-flaky-backend-{}", std::process::id()));
        let real: Arc<dyn SourceBackend> = match backend.as_str() {
            "store" => {
                let _ = std::fs::remove_dir_all(&store_dir);
                let store = StoreBackend::open(&store_dir).expect("store opens");
                for (name, rows) in snapshot_relations(mediator.database()) {
                    store.put_relation(&name, &rows).expect("store seeds");
                }
                store.flush().expect("store flushes");
                Arc::new(store)
            }
            _ => {
                let provider = MemProvider::new();
                for (name, rows) in snapshot_relations(mediator.database()) {
                    provider.insert(name, rows);
                }
                let server =
                    SourceServer::serve(Arc::new(provider), 0).expect("loopback server binds");
                let addr = server.addr().to_string();
                _server_guard = Some(server);
                Arc::new(TcpBackend::new(addr))
            }
        };
        let mediator = mediator
            .clone()
            .with_backends(BackendRegistry::new().with(backend.as_str(), real));
        let remote = mediator
            .run(
                &query,
                &Coverage,
                Strategy::Pi,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(4),
                &RunOptions {
                    backend: Some(&backend),
                    ..RunOptions::default()
                },
            )
            .expect("backend mediation succeeds");
        assert_eq!(
            remote.runtime.answers, serial.answers,
            "real backends answer bit-identically to the simulator"
        );
        println!(
            "\n[{backend}] fault-free rerun through the {backend} backend: \
             {} plans, {} answers — identical to the simulator.",
            remote.runtime.reports.len(),
            remote.runtime.answers.len()
        );
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    // 4. What the ordering itself costs: run iDrips over the same query
    // and dump the incremental kernel's work counters.
    let catalog = movie_domain();
    let reform = reformulate(&catalog, &query).expect("query reformulates");
    let inst = reform
        .problem_instance(&catalog, MOVIE_UNIVERSE, 5.0)
        .expect("instance builds");
    let mut idrips = IDrips::new(&inst, &Coverage, ByExpectedTuples).with_obs(&obs);
    let ordered = idrips.order_k(usize::MAX);
    println!(
        "\n[4] iDrips ordered all {} plans of the movie query;",
        ordered.len()
    );
    println!("{}", format_kernel_stats(&idrips.kernel_stats()));

    // 5. Telemetry exports, when asked for.
    if let Some(path) = &trace_path {
        let jsonl = obs.journal.to_jsonl();
        std::fs::write(path, &jsonl).expect("trace file is writable");
        let report = validate_trace(&jsonl).expect("journal validates");
        println!(
            "\n[5] trace: {} events ({} plan spans opened, {} closed) -> {path}",
            report.events, report.spans_opened, report.spans_closed
        );
    }
    if let Some(path) = &metrics_path {
        std::fs::write(path, prometheus_text(&obs.registry)).expect("metrics file is writable");
        println!("    metrics snapshot -> {path}");
    }
    if trace_path.is_some() || metrics_path.is_some() {
        println!("\n{}", summary_text(&obs.registry));
    }
}
