//! `bench_e2e` — the repository's end-to-end benchmark: query text in,
//! checked answers out, five workloads, nine end-to-end metrics (timings in
//! reference time, see `speed.rs`) and an outside-in per-layer split. See README.md beside this package.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result
//! bench_e2e [--seed N] [--seconds S] [--runs R] [--out FILE]   all workloads, untraced then traced,
//!                                                              each run in a fresh child process
//! bench_e2e --smoke                                            all workloads at ~1/20 size, no files
//! bench_e2e compare A.json B.json                              verdict per (metric, workload)
//! ```

mod compare;
mod driver;
mod gen;
mod layers;
mod metrics;
mod proc;
mod run;
mod spans;
mod speed;
mod stats;
mod workloads;

use metrics::WORKLOADS;
use run::Outcome;
use std::process::{Command, ExitCode, Stdio};
use workloads::Scale;

/// The seed results are recorded under, and the hold-out seed a claim must
/// also hold on (see README.md).
const DEFAULT_SEED: u64 = 2002;
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => parsed.out = Some(value()?.clone()),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn one_run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let scale = Scale { smoke: false };
    if trace {
        run::traced(name, seed, seconds, scale, true)
    } else {
        run::untraced(name, seed, seconds, scale)
    }
}

/// Runs one workload in a fresh child process of this executable and
/// returns its table and the `"runs"` entry for the results file.
fn child_run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{name}: child printed no result"))?;
    if !output.status.success() {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    let entry = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, {}",
        u8::from(trace),
        result.trim_start().trim_start_matches('{')
    );
    Ok((format!("{table}\n"), entry))
}

fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for trace in [false, true] {
            for (name, _) in WORKLOADS {
                let (table, entry) = child_run(name, seed, args.seconds, trace)?;
                print!("{table}");
                all_correct &= entry.contains("\"correct\": true");
                entries.push(entry);
            }
        }
    }
    if let Some(path) = &args.out {
        let body = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n  {}\n]}}\n",
            args.seed,
            args.seconds,
            entries.join(",\n  ")
        );
        std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

/// Every workload at ~1/20 size, in this process, with all oracles and the
/// span self-time check; writes no result or span file.
fn smoke(seed: u64) -> Result<bool, String> {
    let scale = Scale { smoke: true };
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let untraced = run::untraced(name, seed, 0.5, scale)?;
        let traced = run::traced(name, seed, 0.5, scale, false)?;
        // At smoke length a p90 has no ten samples beyond it; only the
        // oracles and the span check decide.
        let ok = untraced.failed == 0 && traced.correct;
        println!(
            "{name:<16} {:>5} queries checked, {} failed; {:>4} traced queries, span check {}",
            untraced.attempted,
            untraced.failed,
            traced.samples,
            if traced.correct { "ok" } else { "FAILED" }
        );
        all_correct &= ok;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, a, b] => compare::compare(a, b).map(|(table, worse)| {
                print!("{table}");
                !worse
            }),
            _ => Err("usage: bench_e2e compare A.json B.json".into()),
        }
    } else {
        parse_args(&argv).and_then(|args| {
            if args.smoke {
                smoke(args.seed)
            } else if let Some(name) = &args.workload {
                one_run(name, args.seed, args.seconds, args.trace).map(|outcome| {
                    if !outcome.trace && !stats::reportable(outcome.samples, 0.9) {
                        eprintln!("bench_e2e: {name}: fewer than ten stream positions beyond p90");
                    }
                    print!("{}", outcome.table());
                    println!("{}", outcome.result_line());
                    // A run that measured is a run that exits 0: the
                    // verdict travels in `correct`.
                    true
                })
            } else {
                all_workloads(&args)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
