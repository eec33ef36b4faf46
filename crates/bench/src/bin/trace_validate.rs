//! CI gate for trace journals: parse a JSONL trace and check its spans.
//!
//! Usage: `trace-validate <trace.jsonl>`
//!
//! Decodes the file once ([`qpo_obs::read_jsonl`]) and hands the records
//! to the validator, the profiler and the drift fold. Every line must be a
//! JSON object with contiguous `seq`, a numeric (or null) `clock` and a
//! string `kind`; every event must be of a kind the vocabulary
//! (`qpo_obs::vocab`) lists — an emitter that invents or misspells a kind
//! fails the gate — and conform to its row; plan-lifecycle spans must open
//! and close exactly once; a `tuple_emitted` must follow its plan's
//! `plan_completed`; the virtual clock must be non-decreasing in seq order within each run
//! (`run_started` markers restart it); remote spans must be sound (tcp
//! runs only, five fields together, nested in the attempt latency). The
//! records must also reconstruct into well-formed span-tree profiles:
//! every run's [`qpo_obs::RunProfile`] passes its structural `check`
//! (children nest, attribution sums exactly, network residual bit-exact,
//! critical path bounded by the reported makespan), and on runs that
//! journalled a `run_finished` the critical path bit-equals that makespan.
//! Exits non-zero (with the validator's message, which names the violating
//! line) on any violation, including unbalanced spans. On success prints
//! the event total, the per-kind counts, how much of the vocabulary the
//! trace exercised, a one-line profile digest per run and the drifting set
//! of the latest run, so the CI log doubles as a trace digest.

use qpo_obs::vocab::KINDS;
use qpo_obs::{read_jsonl, validate_records, DivergenceMonitor, ProfileIndex};

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: trace-validate <trace.jsonl>");
        std::process::exit(2);
    });
    let jsonl = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("trace-validate: reading {path}: {e}");
        std::process::exit(2);
    });
    let report = read_jsonl(&jsonl).and_then(|records| {
        let report = validate_records(&records)?;
        Ok((report, ProfileIndex::from_records(&records)))
    });
    let (report, index) = report.unwrap_or_else(|e| {
        eprintln!("trace-validate: {path}: {e}");
        std::process::exit(1);
    });
    if report.spans_opened != report.spans_closed {
        eprintln!(
            "trace-validate: {path}: {} plan spans opened but {} closed",
            report.spans_opened, report.spans_closed
        );
        std::process::exit(1);
    }
    for run in index.runs() {
        if let Err(e) = run.check() {
            eprintln!("trace-validate: {path}: span-tree invariant: {e}");
            std::process::exit(1);
        }
        if let Some(makespan) = run.makespan {
            if run.critical_path.to_bits() != makespan.to_bits() {
                eprintln!(
                    "trace-validate: {path}: run {}: critical path {} is not bit-equal \
                     to the reported makespan {makespan}",
                    run.run, run.critical_path
                );
                std::process::exit(1);
            }
        }
    }
    println!(
        "{path}: {} events, {} plan spans (all closed), clocks monotone within each run",
        report.events, report.spans_opened
    );
    for (kind, n) in &report.counts {
        println!("  {kind:<24} {n}");
    }
    let exercised = report.counts.len();
    println!(
        "  {exercised} of {} vocabulary kinds exercised",
        KINDS.len()
    );
    for run in index.runs() {
        print!(
            "  profile run {}: {} plans, critical path {}",
            run.run,
            run.plans.len(),
            run.critical_path
        );
        // Remote spans already passed check()'s soundness rules (nesting,
        // phase sums, bit-exact network residual); digest them here.
        let stitched = run
            .plans
            .iter()
            .flat_map(|p| p.sources.iter())
            .filter(|s| s.remote.is_some())
            .count();
        if stitched > 0 {
            print!(", {stitched} remote spans stitched");
        }
        match run.makespan {
            Some(m) => println!(" (bit-equals makespan {m})"),
            None => println!(" (no run_finished — truncated trace)"),
        }
    }
    let drifting = DivergenceMonitor::from_profile(&index).drifting();
    println!("  drifting (latest run): {drifting:?}");
}
