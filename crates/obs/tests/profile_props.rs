//! Property tests for the span-tree profiler: arbitrary well-formed
//! executor-shaped traces must reconstruct into profiles whose spans
//! nest, whose self/join/wait times are non-negative and account exactly
//! for the charged latency, and whose critical path never exceeds — and
//! on complete traces bit-equals — the reported makespan.

use proptest::prelude::*;
use proptest::TestRng;
use qpo_obs::journal::{TraceJournal, Value};
use qpo_obs::{parse_json, validate_trace, ProfileIndex, SpanStatus};
use rand::Rng;

const SOURCES: &[&str] = &["alpha", "beta", "gamma", "delta"];

/// One source's retry chain: (backoff, charge, outcome) per attempt, in
/// charge order — the executor's `access_with_retries` shape.
#[derive(Debug, Clone)]
struct Chain {
    name: &'static str,
    attempts: Vec<(f64, f64, &'static str)>,
}

impl Chain {
    /// The runtime's accumulation order: backoff then charge, attempt by
    /// attempt. The profiler must re-sum in exactly this order.
    fn total(&self) -> f64 {
        let mut t = 0.0f64;
        for (backoff, charge, _) in &self.attempts {
            t += backoff;
            t += charge;
        }
        t
    }
}

#[derive(Debug, Clone)]
struct SynthPlan {
    name: String,
    utility: f64,
    chains: Vec<Chain>,
    terminal: &'static str,
    tuples: u64,
}

impl SynthPlan {
    /// Sources run in parallel, so the slowest chain bounds the plan —
    /// the executor's `plan_latency`.
    fn latency(&self) -> f64 {
        self.chains.iter().map(Chain::total).fold(0.0, f64::max)
    }
}

#[derive(Debug, Clone)]
struct SynthRun {
    lookahead: u64,
    prepare_kernel: u64,
    ordering_kernel: u64,
    plans: Vec<SynthPlan>,
}

fn gen_chain(rng: &mut TestRng, name: &'static str) -> Chain {
    let n = rng.gen_range(1usize..4);
    let attempts = (0..n)
        .map(|a| {
            let backoff = if a == 0 {
                0.0
            } else {
                rng.gen_range(0.0..2.0f64)
            };
            let last = a == n - 1;
            let outcome = if last {
                ["ok", "permanent", "transient"][rng.gen_range(0usize..3)]
            } else {
                ["transient", "timeout"][rng.gen_range(0usize..2)]
            };
            let charge = if outcome == "permanent" {
                0.0
            } else {
                rng.gen_range(0.0..10.0f64)
            };
            (backoff, charge, outcome)
        })
        .collect();
    Chain { name, attempts }
}

fn gen_plan(rng: &mut TestRng, seq: usize) -> SynthPlan {
    // A distinct subset of the source pool, in pool order (the executor
    // accesses each of a plan's sources once).
    let mut chains = Vec::new();
    for name in SOURCES {
        if rng.gen_range(0u32..3) > 0 {
            chains.push(gen_chain(rng, name));
        }
    }
    SynthPlan {
        name: format!("p{seq}"),
        utility: rng.gen_range(-5.0..5.0f64),
        terminal: [
            "plan_completed",
            "plan_completed",
            "plan_failed",
            "plan_unsound",
        ][rng.gen_range(0usize..4)],
        tuples: rng.gen_range(0u64..50),
        chains,
    }
}

fn gen_runs(rng: &mut TestRng) -> Vec<SynthRun> {
    let n = rng.gen_range(0usize..3);
    (0..n)
        .map(|_| SynthRun {
            lookahead: rng.gen_range(1u64..4),
            prepare_kernel: rng.gen_range(0u64..4),
            ordering_kernel: rng.gen_range(0u64..4),
            plans: {
                let n = rng.gen_range(0usize..6);
                (0..n).map(|seq| gen_plan(rng, seq)).collect()
            },
        })
        .collect()
}

/// Arbitrary multi-run traces (the shim has no `prop_recursive`, so the
/// structure lives in plain generators).
struct Traces;

impl proptest::strategy::Strategy for Traces {
    type Value = Vec<SynthRun>;
    fn generate(&self, rng: &mut TestRng) -> Vec<SynthRun> {
        gen_runs(rng)
    }
}

/// Journals `runs` exactly the way the concurrent executor does: a serial
/// virtual clock that emits up to `lookahead` plans ahead of the merge
/// cursor, journals each merge's retry chains and terminal (with the
/// plan's charged latency) before advancing the clock by that latency,
/// and seals the run with `run_finished{makespan: vclock}`.
fn journal_runs(runs: &[SynthRun]) -> TraceJournal {
    let journal = TraceJournal::enabled();
    for run in runs {
        let mut vclock = 0.0f64;
        journal.set_clock(vclock);
        journal.record(
            "run_started",
            vec![("lookahead", Value::U64(run.lookahead))],
        );
        for _ in 0..run.prepare_kernel {
            journal.record("kernel_elimination", vec![]);
        }
        let mut emitted = 0usize;
        let mut answers = 0u64;
        for (i, p) in run.plans.iter().enumerate() {
            while emitted < run.plans.len() && emitted <= i + run.lookahead as usize {
                let q = &run.plans[emitted];
                journal.record(
                    "plan_emitted",
                    vec![
                        ("plan_seq", Value::U64(emitted as u64)),
                        ("plan", Value::Str(q.name.clone().into())),
                        ("utility", Value::F64(q.utility)),
                    ],
                );
                emitted += 1;
            }
            if i == 0 && run.ordering_kernel > 0 {
                for _ in 0..run.ordering_kernel {
                    journal.record("kernel_elimination", vec![]);
                }
            }
            for c in &p.chains {
                for (a, (backoff, charge, outcome)) in c.attempts.iter().enumerate() {
                    journal.record(
                        "source_attempt",
                        vec![
                            ("plan_seq", Value::U64(i as u64)),
                            ("source", Value::Str((*c.name).into())),
                            ("attempt", Value::U64(a as u64 + 1)),
                            ("backoff", Value::F64(*backoff)),
                            ("latency", Value::F64(*charge)),
                            ("outcome", Value::Str((*outcome).into())),
                        ],
                    );
                }
            }
            let latency = p.latency();
            let mut fields = vec![
                ("plan_seq", Value::U64(i as u64)),
                ("latency", Value::F64(latency)),
            ];
            if p.terminal == "plan_completed" {
                fields.push(("tuples", Value::U64(p.tuples)));
                answers += p.tuples;
            }
            journal.record(p.terminal, fields);
            vclock += latency;
            journal.set_clock(vclock);
        }
        journal.record(
            "run_finished",
            vec![
                ("plans", Value::U64(run.plans.len() as u64)),
                ("answers", Value::U64(answers)),
                ("makespan", Value::F64(vclock)),
            ],
        );
    }
    journal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn span_trees_nest_attribute_exactly_and_bound_the_makespan(runs in Traces) {
        let journal = journal_runs(&runs);
        let jsonl = journal.to_jsonl();
        validate_trace(&jsonl).expect("synthetic trace is structurally valid");
        let index = ProfileIndex::from_jsonl(&jsonl).expect("reconstructable");
        // The two replay paths (live events, JSONL round-trip) agree.
        prop_assert_eq!(&index, &ProfileIndex::from_journal(&journal));
        prop_assert_eq!(index.runs().len(), runs.len());
        for (profile, model) in index.runs().iter().zip(&runs) {
            profile.check().expect("span-tree invariants");
            // Critical path bit-equals the journalled makespan: both are
            // the same left-to-right fold over per-plan latencies.
            let makespan = profile.makespan.expect("run was sealed");
            prop_assert_eq!(profile.critical_path.to_bits(), makespan.to_bits());
            let mut expected = 0.0f64;
            for p in &model.plans {
                expected += p.latency();
            }
            prop_assert_eq!(expected.to_bits(), profile.critical_path.to_bits());
            prop_assert_eq!(profile.prepare_events, model.prepare_kernel);
            if !model.plans.is_empty() {
                prop_assert_eq!(profile.ordering_events, model.ordering_kernel);
            }
            // Nesting and attribution, spelled out (check() verifies the
            // same things; the point of the property is that it holds on
            // arbitrary traces, not just the executor's).
            let mut cursor = f64::NEG_INFINITY;
            for (p, m) in profile.plans.iter().zip(&model.plans) {
                prop_assert!(p.start >= cursor, "plan {} starts before its predecessor", p.seq);
                cursor = p.start;
                prop_assert!(p.end >= p.start);
                prop_assert!(p.wait >= 0.0 && p.join >= 0.0 && p.self_time >= 0.0);
                prop_assert_eq!(p.sources.len(), m.chains.len());
                for (s, c) in p.sources.iter().zip(&m.chains) {
                    // Children nest within the parent span, and the
                    // chain re-sums bit-exactly in charge order.
                    prop_assert!(s.total <= p.latency, "{} escapes plan {}", s.name, p.seq);
                    prop_assert_eq!(s.total.to_bits(), c.total().to_bits());
                    prop_assert_eq!(s.attempts, c.attempts.len() as u64);
                }
                match p.critical_source {
                    Some(ci) => {
                        let critical = p.sources[ci].total;
                        prop_assert!(p.sources.iter().all(|s| s.total <= critical));
                        // Self + join + the critical child account for
                        // the whole latency, exactly.
                        prop_assert_eq!(
                            (critical + p.join + p.self_time).to_bits(),
                            p.latency.to_bits()
                        );
                    }
                    None => {
                        prop_assert_eq!(p.self_time.to_bits(), p.latency.to_bits());
                    }
                }
                prop_assert!(p.status != SpanStatus::Open, "every synthetic plan was closed");
            }
        }
    }

    #[test]
    fn reconstruction_is_prefix_robust(runs in Traces, cut in 0.0..1.0f64) {
        // A truncated journal (crashed run, live tail) still profiles:
        // open spans keep zero latency, the critical path only shrinks,
        // and no invariant breaks.
        let jsonl = journal_runs(&runs).to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let keep = (cut * lines.len() as f64) as usize;
        let prefix = lines[..keep.min(lines.len())].join("\n");
        let index = ProfileIndex::from_jsonl(&prefix).expect("prefixes reconstruct");
        for profile in index.runs() {
            profile.check().expect("prefix span tree is still sound");
            if let Some(makespan) = profile.makespan {
                prop_assert!(profile.critical_path <= makespan);
            }
        }
    }

    #[test]
    fn a_corrupted_id_never_validates_and_never_panics(
        runs in Traces,
        pick in 0.0..1.0f64,
        magnitude in 1u64..1_000_000,
        shape in 0usize..3,
    ) {
        // Read with `as u64`, a negative or fractional id aliases to a
        // neighbouring plan and silently charges *its* span; the line
        // reader must refuse it instead, for every consumer.
        let jsonl = journal_runs(&runs).to_jsonl();
        let ids: Vec<usize> = jsonl.match_indices("\"plan_seq\":").map(|(i, _)| i).collect();
        if !ids.is_empty() {
            let at = ids[(pick * ids.len() as f64) as usize % ids.len()] + "\"plan_seq\":".len();
            let end = at + jsonl[at..].find([',', '}']).expect("the value ends");
            let bad = match shape {
                0 => format!("-{magnitude}"),
                1 => format!("{magnitude}.5"),
                _ => format!("{magnitude}e16"),
            };
            let corrupted = format!("{}{bad}{}", &jsonl[..at], &jsonl[end..]);
            prop_assert!(validate_trace(&corrupted).is_err(), "{bad} validated");
            prop_assert!(ProfileIndex::from_jsonl(&corrupted).is_err(), "{bad} profiled");
        }
    }

    #[test]
    fn rendered_profiles_parse_and_name_every_plan(runs in Traces) {
        let journal = journal_runs(&runs);
        let index = ProfileIndex::from_journal(&journal);
        parse_json(&index.to_json()).expect("index JSON is well-formed");
        for (profile, model) in index.runs().iter().zip(&runs) {
            parse_json(&profile.to_json()).expect("run JSON is well-formed");
            let text = profile.render_text();
            prop_assert!(text.contains("critical-path"));
            for p in &model.plans {
                prop_assert!(text.contains(&p.name), "{} missing from:\n{}", p.name, text);
            }
        }
    }
}
