//! One run of one workload: repeated set-up, the timed closed loop on the
//! driver path (or the traced pass), and the result line the benchmark
//! contract asks for.

use crate::driver::Served;
use crate::layers::Layers;
use crate::metrics::END_TO_END;
use crate::proc;
use crate::spans::Spans;
use crate::speed::{Kernel, RefClock, READING_EVERY};
use crate::stats::{median, quantile, reportable, samples_beyond};
use crate::workloads::{self, Scale, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Back-to-back kernel readings taken before and after each set-up.
const SETUP_READINGS: usize = 24;

/// One measured query: its position in the client's cycle, when it
/// completed (since the run started) and what the driver path reported.
struct Sample {
    position: usize,
    done_ns: u64,
    served: Served,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    errors: Vec<String>,
    /// Reference-kernel readings `(taken at, kernel ns)`.
    readings: Vec<(u64, u64)>,
    /// `(elapsed ns, process CPU s)` before the first cycle and after
    /// every cycle (taken by client 0).
    marks: Vec<(u64, f64)>,
}

/// A run's outcome: metric values in table order plus the verdict line.
pub struct Outcome {
    pub workload: String,
    pub trace: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced: stream positions behind the latency quantiles; traced:
    /// queries replayed.
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Untraced: `(lowest, median, highest)` machine slow-down over the
    /// timed section's slices.
    pub slowdown: Option<(f64, f64, f64)>,
}

fn cpu_now(workload: &dyn Workload) -> f64 {
    let own = proc::cpu_seconds(std::process::id()).unwrap_or(0.0);
    let helper = workload
        .helper_pid()
        .and_then(proc::cpu_seconds)
        .unwrap_or(0.0);
    own + helper
}

fn client_loop(
    workload: &dyn Workload,
    client: usize,
    start: Instant,
    run_for: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    let now = || start.elapsed().as_nanos() as u64;
    let mut kernel = Kernel::new();
    let mut last_reading = Instant::now();
    log.readings.push((now(), kernel.reading()));
    let mark = |log: &mut ClientLog| {
        if client == 0 {
            log.marks.push((now(), cpu_now(workload)));
        }
    };
    mark(&mut log);
    // Whole cycles only: the run ends on the first cycle boundary past
    // `run_for`, so per-query counts depend on the seed alone.
    while start.elapsed() < run_for {
        for position in 0..workload.cycle() {
            log.attempted += 1;
            match workload.query(client, position) {
                Ok(served) => log.samples.push(Sample {
                    position,
                    done_ns: now(),
                    served,
                }),
                Err(e) => log.errors.push(e),
            }
            if last_reading.elapsed() >= READING_EVERY {
                log.readings.push((now(), kernel.reading()));
                last_reading = Instant::now();
            }
        }
        mark(&mut log);
    }
    log
}

fn end_to_end(workload: &dyn Workload, seconds: f64, setup_s: f64, name: &str) -> Outcome {
    let run_for = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients())
            .map(|c| scope.spawn(move || client_loop(workload, c, start, run_for)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end_ns = start.elapsed().as_nanos() as u64;
    let readings: Vec<(u64, u64)> = logs.iter().flat_map(|l| &l.readings).copied().collect();
    let clock = RefClock::new(&readings, end_ns);

    let (mut attempted, mut failed, mut verified, mut accesses) = (0u64, 0u64, 0u64, 0u64);
    // Per client and stream position, every cycle's latency in reference
    // time; the position counts with the lower quartile of them (what the
    // readings miss of a slow-down only ever adds time).
    let (mut query_ms, mut first_ms) = (Vec::new(), Vec::new());
    for log in &logs {
        attempted += log.attempted;
        failed += log.errors.len() as u64;
        for e in log.errors.iter().take(3) {
            eprintln!("bench_e2e: {name}: query failed: {e}");
        }
        let mut by_position = vec![(Vec::new(), Vec::new()); workload.cycle()];
        for s in &log.samples {
            verified += 1;
            accesses += s.served.accesses;
            let per_ms = 1e6 * clock.slowdown_at(s.done_ns);
            let slot = &mut by_position[s.position];
            slot.0.push(s.served.query_ns as f64 / per_ms);
            slot.1.push(s.served.first_answer_ns as f64 / per_ms);
        }
        for (query, first) in &by_position {
            query_ms.extend(quantile(query, 0.25));
            first_ms.extend(quantile(first, 0.25));
        }
    }

    // Throughput and CPU cycle by cycle (every cycle is the same query
    // mix), over the cycle's length in reference time.
    let (mut throughput, mut cpu_ms) = (Vec::new(), Vec::new());
    for pair in logs[0].marks.windows(2) {
        let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
        let done = logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.done_ns > from && s.done_ns <= to)
            .count() as f64;
        let reference_ns = clock.elapsed(from, to);
        if done > 0.0 && to > from {
            throughput.push(done / (reference_ns / 1e9));
            let cpu_at_reference = (cpu_to - cpu_from) * reference_ns / (to - from) as f64;
            cpu_ms.push(cpu_at_reference * 1e3 / done);
        }
    }

    let positions = query_ms.len();
    let q = |v: &[f64], q| quantile(v, q).unwrap_or(0.0);
    let value = |metric: &str| match metric {
        "setup_s" => setup_s,
        "queries_per_s" => median(&throughput).unwrap_or(0.0),
        "query_ms_p50" => q(&query_ms, 0.5),
        "query_ms_p90" => q(&query_ms, 0.9),
        "first_answer_ms_p50" => q(&first_ms, 0.5),
        "first_answer_ms_p90" => q(&first_ms, 0.9),
        "cpu_ms_per_query" => median(&cpu_ms).unwrap_or(0.0),
        "source_accesses_per_query" => accesses as f64 / verified.max(1) as f64,
        "peak_rss_mb" => proc::peak_rss_mb().unwrap_or(0.0),
        other => unreachable!("{other} has no measurement"),
    };
    let metrics = END_TO_END.iter().map(|m| (m.0, value(m.0), m.1)).collect();
    Outcome {
        workload: name.to_string(),
        trace: false,
        metrics,
        samples: positions,
        attempted,
        failed,
        // A p90 with fewer than ten samples beyond it is not a result.
        correct: failed == 0 && reportable(positions, 0.9),
        slowdown: Some(clock.range()),
    }
}

/// An untraced run: `SETUPS` timed set-ups (the last one is kept), then
/// the timed section.
pub fn untraced(name: &str, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    let mut kernel = Kernel::new();
    for _ in 0..SETUPS {
        // Tear the previous set-up down first (its server, its store).
        drop(workload.take());
        let before = kernel.slowdown_now(SETUP_READINGS);
        let start = Instant::now();
        workload = Some(workloads::setup(name, seed, scale)?);
        let wall = start.elapsed().as_secs_f64();
        // In reference time, by the readings on either side of it.
        let after = kernel.slowdown_now(SETUP_READINGS);
        setups.push(wall / ((before + after) / 2.0));
    }
    let workload = workload.expect("SETUPS >= 1");
    let setup_s = median(&setups).expect("SETUPS >= 1");
    Ok(end_to_end(workload.as_ref(), seconds, setup_s, name))
}

/// A traced run: one set-up, the stepwise replay, the spans written to
/// `<target>/bench_e2e/<workload>.spans.jsonl` (unless `keep_spans` is
/// off, as in the smoke mode that writes nothing).
pub fn traced(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    keep_spans: bool,
) -> Result<Outcome, String> {
    let workload = workloads::setup(name, seed, scale)?;
    let mut spans = Spans::new();
    let layers: Layers = workload.trace(&mut spans, Duration::from_secs_f64(seconds / 4.0))?;
    if keep_spans {
        let path = proc::work_dir()?.join(format!("{name}.spans.jsonl"));
        std::fs::write(&path, spans.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let failures = layers.get("bench.selftime_check_failures");
    Ok(Outcome {
        workload: name.to_string(),
        trace: true,
        metrics: layers.iter().collect(),
        samples: spans.queries() as usize,
        attempted: u64::from(spans.queries()),
        failed: 0,
        correct: failures == 0.0,
        slowdown: None,
    })
}

/// A JSON number with all the digits measured (non-finite values cannot
/// be written and become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Outcome {
    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.trace { "traced" } else { "untraced" };
        let _ = writeln!(
            out,
            "== {} ({kind}; n={}, {} attempted, {} failed)",
            self.workload, self.samples, self.attempted, self.failed
        );
        for (name, value, unit) in &self.metrics {
            let note = if name.ends_with("_p90") && !self.trace {
                format!(
                    "  (n={}, {} beyond)",
                    self.samples,
                    samples_beyond(self.samples, 0.9)
                )
            } else if name.ends_with("_p50") && !self.trace {
                format!("  (n={})", self.samples)
            } else {
                String::new()
            };
            let _ = writeln!(out, "{name:<40} {value:>16.6} {unit}{note}");
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "{:<40} {failed_share:>16.6} ratio", "failed_share");
        if let Some((low, mid, high)) = self.slowdown {
            let _ = writeln!(
                out,
                "machine slow-down against the reference kernel: median {mid:.3} (slices {low:.3} to {high:.3}); times above are in reference time"
            );
        }
        out
    }

    /// The metrics as a JSON object `{name: {value, unit}}`.
    pub fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }
}
