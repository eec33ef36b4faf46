//! Criterion bench for the concurrent runtime: mediation throughput as the
//! worker pool grows.
//!
//! Two groups:
//!
//! - `runtime/simulated` — `latency_scale = 0`: pure simulation, measuring
//!   the executor's own overhead (waves, feedback) against the serial
//!   mediator loop; nothing waits, so every worker count runs on the
//!   calling thread and reads the same;
//! - `runtime/latency` — a small positive `latency_scale` turns each
//!   source access into a real sleep, so the bounded-parallel speedup of
//!   2 and 4 workers over 1 becomes directly observable in wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_exec::{Mediator, RunOptions, StopCondition, Strategy};
use qpo_runtime::RuntimePolicy;
use qpo_utility::Coverage;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]);
    let query = movie_query();

    let mut g = c.benchmark_group("runtime/simulated");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.bench_function("serial-mediator", |b| {
        b.iter(|| {
            mediator
                .answer_until(&query, &Coverage, Strategy::Pi, StopCondition::unbounded())
                .unwrap()
        })
    });
    for workers in [1, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("concurrent", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    mediator
                        .run(
                            &query,
                            &Coverage,
                            Strategy::Pi,
                            StopCondition::unbounded(),
                            RuntimePolicy::parallel(workers),
                            &RunOptions::default(),
                        )
                        .unwrap()
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("runtime/latency");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    // ~0.2 ms of wall time per cost-measure latency unit: plans take a few
    // ms each, so the wave-parallel speedup dominates executor overhead.
    let scale = 0.0002;
    for workers in [1, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let policy = RuntimePolicy::parallel(workers).with_latency_scale(scale);
                b.iter(|| {
                    mediator
                        .run(
                            &query,
                            &Coverage,
                            Strategy::Pi,
                            StopCondition::unbounded(),
                            policy.clone(),
                            &RunOptions::default(),
                        )
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
