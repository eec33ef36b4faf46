//! Differential contracts of the PR 8 observability subsystems, pinned
//! bit for bit:
//!
//! 1. **Profile determinism** — the span-tree profile is a pure function
//!    of the trace, and the trace is worker-count-invariant, so the
//!    rendered profile (text and JSON) is byte-identical under 1, 4, and
//!    8 workers.
//! 2. **Critical path ≡ makespan** — the profile's critical-path fold
//!    re-sums the journalled per-plan latencies in emission order, the
//!    exact fold the executor's serial virtual clock performs, so the
//!    two lengths are `to_bits`-equal (and equal the lane-scheduled
//!    `stats.virtual_time` when there is one lane).
//! 3. **Divergence recomputation** — the live `qpo_source_divergence`
//!    gauges the loop folds as plans merge bit-equal an offline
//!    [`DivergenceMonitor`] replay of the same trace (the PR 5 regret
//!    gauge discipline).
//! 4. **Session profiles** — a session is a run: its trace seals with a
//!    `run_finished` whose makespan bit-equals the reconstructed critical
//!    path and the run's serial clock — 0 over the extensions, where no
//!    source is accessed, positive on the simulator — and the board
//!    carries the profile snapshot.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_exec::{ConcurrentRun, Mediator, QuerySession, RunOptions, StopCondition, Strategy};
use qpo_obs::{validate_trace, DivergenceMonitor, Obs, ProfileIndex};
use qpo_runtime::{FaultConfig, RuntimePolicy};
use qpo_utility::{Coverage, LinearCost};

fn mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
}

/// The trace-determinism scenario: transient failures, retries, one
/// permanently-down source.
fn policy(workers: usize) -> RuntimePolicy {
    RuntimePolicy::parallel(workers)
        .with_lookahead(3)
        .with_faults(
            FaultConfig::with_seed(2002)
                .with_extra_transient_rate(0.35)
                .with_source_down("v1"),
        )
        .with_max_attempts(2)
}

fn traced_run(workers: usize) -> (Obs, ConcurrentRun) {
    let obs = Obs::with_trace();
    let run = mediator()
        .run(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy(workers),
            &RunOptions {
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .expect("traced run");
    (obs, run)
}

#[test]
fn profile_reports_are_byte_identical_across_worker_counts() {
    let mut texts = Vec::new();
    let mut jsons = Vec::new();
    for workers in [1usize, 4, 8] {
        let (obs, _) = traced_run(workers);
        let index = ProfileIndex::from_jsonl(&obs.journal.to_jsonl()).expect("parseable trace");
        let profile = index.latest().expect("one profiled run");
        profile.check().expect("span-tree invariants hold");
        texts.push(profile.render_text());
        jsons.push(index.to_json());
    }
    assert!(texts[0].contains("critical-path"), "{}", texts[0]);
    assert_eq!(texts[0], texts[1], "1 worker vs 4");
    assert_eq!(texts[1], texts[2], "4 workers vs 8");
    assert_eq!(jsons[0], jsons[1]);
    assert_eq!(jsons[1], jsons[2]);
}

#[test]
fn critical_path_bit_equals_the_executors_makespan() {
    for workers in [1usize, 4, 8] {
        let (obs, run) = traced_run(workers);
        let index = ProfileIndex::from_journal(&obs.journal);
        let profile = index.latest().expect("one profiled run");
        let makespan = profile.makespan.expect("run_finished was journalled");
        assert_eq!(
            profile.critical_path.to_bits(),
            makespan.to_bits(),
            "reconstructed critical path == reported makespan ({workers} workers)"
        );
        if workers == 1 {
            // One lane: the serial clock and the lane schedule coincide
            // mathematically (the lane scheduler groups its sums per
            // wave, so only up to rounding — the bit-exact contract is
            // against `makespan`, which shares the serial clock's fold).
            let drift = (profile.critical_path - run.runtime.stats.virtual_time).abs();
            assert!(
                drift <= profile.critical_path * 1e-12,
                "serial critical path {} vs single-lane virtual time {}",
                profile.critical_path,
                run.runtime.stats.virtual_time
            );
        }
        // The profile agrees with the run on the headline counts too.
        assert_eq!(profile.plans.len(), run.runtime.reports.len());
        assert_eq!(profile.answers, Some(run.runtime.answers.len() as u64));
    }
}

#[test]
fn profile_attributes_a_bounding_plan_and_dominant_source() {
    let (obs, _) = traced_run(4);
    let index = ProfileIndex::from_journal(&obs.journal);
    let profile = index.latest().unwrap();
    let bounding = profile.critical_plan().expect("some plan had latency");
    assert!(bounding.latency > 0.0);
    let (source, total) = profile.dominant_source().expect("sources were accessed");
    assert!(total > 0.0, "{source} accumulated virtual time");
    // The dominant source's total is a real per-source aggregate: it
    // appears in some plan's source spans.
    assert!(profile
        .plans
        .iter()
        .flat_map(|p| &p.sources)
        .any(|s| s.name == source));
}

#[test]
fn live_divergence_gauges_bit_equal_offline_recomputation() {
    let (obs, run) = traced_run(4);
    let jsonl = obs.journal.to_jsonl();
    let file = ProfileIndex::from_jsonl(&jsonl).expect("replayable trace");
    let offline = DivergenceMonitor::from_profile(&file);
    let folded = DivergenceMonitor::from_profile(&ProfileIndex::from_journal(&obs.journal));
    // The offline replay reconstructs the live estimator state exactly:
    // the loop folds plans as they merge, the replay in the order of
    // their terminal events — the same order.
    let live: Vec<_> = run.runtime.divergence.iter().collect();
    let replayed: Vec<_> = offline.iter().collect();
    assert_eq!(live, replayed, "estimator state is a function of the trace");
    assert_eq!(replayed, folded.iter().collect::<Vec<_>>());
    // And every gauge the live monitor exported carries the same bits.
    let mut stats_checked = 0;
    for (source, drift) in offline.iter() {
        for (stat, value) in drift.divergences() {
            let gauge = obs.registry.gauge(
                "qpo_source_divergence",
                &[("source", source), ("stat", stat)],
            );
            assert_eq!(
                gauge.get().to_bits(),
                value.to_bits(),
                "gauge {source}/{stat}"
            );
            stats_checked += 1;
        }
    }
    assert!(stats_checked > 0, "the scenario produced divergences");
}

#[test]
fn injected_faults_surface_as_drift_events() {
    let (obs, run) = traced_run(4);
    // The scenario injects 0.35 extra transient rate and downs v1 — both
    // well past the default 0.5 threshold somewhere.
    let drifting = run.runtime.divergence.drifting();
    assert!(!drifting.is_empty(), "injected faults are detected");
    assert!(
        drifting
            .iter()
            .any(|(s, stat, _)| s == "v1" && *stat == "permanent_rate"),
        "the downed source drifts on permanent rate: {drifting:?}"
    );
    let jsonl = obs.journal.to_jsonl();
    assert!(
        jsonl.contains("\"kind\":\"drift_detected\""),
        "threshold crossings are journalled"
    );
    validate_trace(&jsonl).expect("the enriched trace still validates");
}

#[test]
fn session_trace_seals_with_a_bit_equal_makespan() {
    for backend in [None, Some("sim")] {
        let obs = Obs::with_trace();
        let m = mediator().with_obs(&obs);
        let prepared = m.prepare(&movie_query()).unwrap();
        {
            let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
            if let Some(label) = backend {
                s = s.with_backend(label).unwrap();
            }
            while s.next_report().is_some() {}
        } // drop seals the trace
        let index = ProfileIndex::from_jsonl(&obs.journal.to_jsonl()).unwrap();
        let profile = index.latest().expect("the session traced a run");
        profile.check().expect("session span tree is well-formed");
        let makespan = profile.makespan.expect("drop journalled run_finished");
        assert_eq!(profile.critical_path.to_bits(), makespan.to_bits());
        assert_eq!(makespan > 0.0, backend.is_some(), "{backend:?}");
        assert_eq!(profile.strategy.as_deref(), Some("greedy"));
        // The board carries the profile snapshot.
        let entries = obs.sessions.entries();
        let entry = entries.last().unwrap();
        assert_eq!(entry.critical_path.to_bits(), makespan.to_bits());
        assert_eq!(entry.bounding_plan.is_some(), backend.is_some());
        assert_eq!(
            profile.critical_plan().map(|p| p.plan.as_str()),
            entry.bounding_plan.as_deref(),
            "board and profile agree on the bounding plan"
        );
        validate_trace(&obs.journal.to_jsonl()).expect("session trace validates");
        // The run's serial clock is where the journal's clock was left:
        // one more record is stamped with the makespan.
        obs.journal.record("kernel_elimination", vec![]);
        let stamp = obs.journal.events().last().unwrap().clock;
        assert_eq!(makespan.to_bits(), stamp.to_bits());
    }
}
