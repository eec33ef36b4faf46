//! Source drift detection: online per-source estimators confronted with
//! the catalog's declared behavior.
//!
//! The paper's utility model trusts the catalog — extents, latencies,
//! failure probabilities are taken as ground truth at ordering time.
//! This module watches what the runtime *actually observes* per source
//! (EWMA latency, transient/permanent failure rates, answer counts) and
//! exports the divergence from the declared [`SourceExpectation`] as
//! `qpo_source_divergence{source,stat}` gauges, journalling a
//! `drift_detected` event whenever a stat first crosses [`THRESHOLD`].
//! ROADMAP item 5's re-planning trigger is to consume exactly these signals.
//!
//! ## Determinism discipline
//!
//! Every gauge value must be *recomputable from the trace alone, bit
//! for bit*. Two properties make that hold:
//!
//! 1. the executor journals each run's catalog expectations
//!    (`source_declared`) and each access chain's exact charges
//!    (`source_attempt` with `backoff`/`latency` fields), so
//!    [`DivergenceMonitor::from_profile`] can replay the identical
//!    observation sequence offline, over a live journal or a JSONL file,
//!    with no catalog in hand;
//! 2. estimators accumulate strictly left-to-right in observation order
//!    — same fold live and offline, hence `to_bits`-equal gauges.

use crate::journal::Value;
use crate::json::Json;
use crate::profile::{ProfileIndex, SpanStatus};
use crate::Obs;
use std::collections::{BTreeMap, BTreeSet};

/// Catalog-declared behavior of one source, reduced to the three stats
/// the monitor checks (the runtime reads them off the source's
/// `SourceStats`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SourceExpectation {
    /// Expected access latency (base plus per-tuple transmission).
    pub latency: f64,
    /// Declared per-attempt transient failure rate.
    pub transient_rate: f64,
    /// Declared extent size (expected tuples behind the source).
    pub tuples: f64,
}

/// One completed access chain, as observed by the runtime (or replayed
/// from its `source_attempt` events — the two are constructed from the
/// same charges, in the same order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessObservation {
    /// Attempts made.
    pub attempts: u64,
    /// Attempts that failed transiently.
    pub transient_failures: u64,
    /// Whether the chain ultimately succeeded.
    pub ok: bool,
    /// Whether the source answered permanently down.
    pub permanently_down: bool,
    /// Total virtual latency charged (backoffs included).
    pub latency: f64,
    /// Answers of the enclosing plan, when it completed (a coarse
    /// per-source extent signal: each participating source's extent
    /// bounds the join from above).
    pub tuples: Option<f64>,
    /// Network residual of the successful attempt (client latency minus
    /// server-reported total), when the backend returned a remote span.
    pub network: Option<f64>,
    /// Server-reported total of the successful attempt, when the backend
    /// returned a remote span.
    pub server: Option<f64>,
}

/// Running estimator state for one source.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceDrift {
    /// Declared expectations this source is measured against.
    pub expected: SourceExpectation,
    /// Completed access chains observed (memo replays excluded).
    pub accesses: u64,
    /// Attempts across all chains.
    pub attempts: u64,
    /// Transient failures across all chains.
    pub transient_failures: u64,
    /// Chains that succeeded.
    pub successes: u64,
    /// Chains that found the source permanently down.
    pub permanent_failures: u64,
    /// EWMA of chain latency, `None` before the first observation.
    pub ewma_latency: Option<f64>,
    /// EWMA of observed plan answers behind this source.
    pub ewma_tuples: Option<f64>,
    /// EWMA of the network residual on traced accesses, `None` until a
    /// remote span has been observed. Together with `ewma_server` this
    /// localizes latency drift: a rising `ewma_latency` with a flat
    /// `ewma_server` points at the network, and vice versa.
    pub ewma_network: Option<f64>,
    /// EWMA of the server-reported total on traced accesses.
    pub ewma_server: Option<f64>,
}

/// EWMA weight of the newest observation.
pub const ALPHA: f64 = 0.2;

/// Absolute divergence at which `drift_detected` fires per
/// `(source, stat)` (each pair fires once per crossing episode).
pub const THRESHOLD: f64 = 0.5;

/// The stats a [`SourceDrift`] exports, in gauge-label order.
pub const DIVERGENCE_STATS: &[&str] = &["latency", "permanent_rate", "transient_rate", "tuples"];

impl SourceDrift {
    /// Relative latency divergence: `(ewma − expected) / expected`
    /// (absolute when the expectation is zero).
    pub fn latency_divergence(&self) -> Option<f64> {
        let ewma = self.ewma_latency?;
        Some(relative(ewma, self.expected.latency))
    }

    /// Observed minus declared per-attempt transient failure rate.
    pub fn transient_divergence(&self) -> Option<f64> {
        (self.attempts > 0).then(|| {
            self.transient_failures as f64 / self.attempts as f64 - self.expected.transient_rate
        })
    }

    /// Observed permanent-failure rate per chain (the catalog declares
    /// none, so the observation is the divergence).
    pub fn permanent_divergence(&self) -> Option<f64> {
        (self.accesses > 0).then(|| self.permanent_failures as f64 / self.accesses as f64)
    }

    /// Relative divergence of observed answer counts from the declared
    /// extent size.
    pub fn tuples_divergence(&self) -> Option<f64> {
        let ewma = self.ewma_tuples?;
        Some(relative(ewma, self.expected.tuples))
    }

    /// `(stat, divergence)` for every stat with an observation, in
    /// [`DIVERGENCE_STATS`] order.
    pub fn divergences(&self) -> Vec<(&'static str, f64)> {
        [
            ("latency", self.latency_divergence()),
            ("permanent_rate", self.permanent_divergence()),
            ("transient_rate", self.transient_divergence()),
            ("tuples", self.tuples_divergence()),
        ]
        .into_iter()
        .filter_map(|(stat, v)| v.map(|v| (stat, v)))
        .collect()
    }
}

fn relative(observed: f64, expected: f64) -> f64 {
    if expected > 0.0 {
        (observed - expected) / expected
    } else {
        observed - expected
    }
}

/// The drift monitor: per-source estimators, divergence gauges, and the
/// `drift_detected` journal hook. The executor feeds one per run as its
/// plans merge, or replay a trace through [`DivergenceMonitor::from_profile`]
/// — both produce bit-equal state.
#[derive(Debug, Clone)]
pub struct DivergenceMonitor {
    obs: Obs,
    sources: BTreeMap<String, SourceDrift>,
    /// `(source, stat)` pairs currently beyond the threshold; an event
    /// fires only on the below→beyond transition.
    flagged: BTreeSet<(String, &'static str)>,
}

impl DivergenceMonitor {
    /// A monitor exporting gauges (and drift events, when the journal
    /// records) onto `obs`.
    pub fn new(obs: &Obs) -> Self {
        DivergenceMonitor {
            obs: obs.clone(),
            sources: BTreeMap::new(),
            flagged: BTreeSet::new(),
        }
    }

    /// A monitor on a private bundle (offline recomputation).
    pub fn detached() -> Self {
        DivergenceMonitor::new(&Obs::new())
    }

    /// Declares (or re-declares) a source's catalog expectations.
    /// Estimator state survives re-declaration: drift is measured
    /// against the *latest* declaration.
    pub fn declare(&mut self, source: &str, expected: SourceExpectation) {
        self.sources.entry(source.to_string()).or_default().expected = expected;
    }

    /// Folds one completed access chain in, updating the estimators
    /// left-to-right, refreshing the `qpo_source_divergence` gauges, and
    /// journalling `drift_detected` on threshold crossings.
    pub fn observe(&mut self, source: &str, obs: AccessObservation) {
        let drift = self.sources.entry(source.to_string()).or_default();
        drift.accesses += 1;
        drift.attempts += obs.attempts;
        drift.transient_failures += obs.transient_failures;
        drift.successes += u64::from(obs.ok);
        drift.permanent_failures += u64::from(obs.permanently_down);
        // The first observation seeds an estimator; each later one folds
        // in with weight `ALPHA`.
        let ewma = |prev: Option<f64>, x: f64| Some(prev.map_or(x, |p| p + ALPHA * (x - p)));
        drift.ewma_latency = ewma(drift.ewma_latency, obs.latency);
        for (estimate, x) in [
            (&mut drift.ewma_tuples, obs.tuples),
            (&mut drift.ewma_network, obs.network),
            (&mut drift.ewma_server, obs.server),
        ] {
            if let Some(x) = x {
                *estimate = ewma(*estimate, x);
            }
        }
        let divergences = drift.divergences();
        for (stat, value) in divergences {
            self.obs
                .registry
                .gauge(
                    "qpo_source_divergence",
                    &[("source", source), ("stat", stat)],
                )
                .set(value);
            let key = (source.to_string(), stat);
            if value.abs() > THRESHOLD {
                if self.flagged.insert(key) && self.obs.journal.is_enabled() {
                    self.obs.journal.record(
                        "drift_detected",
                        vec![
                            ("source", Value::Str(source.to_string().into())),
                            ("stat", Value::Str(stat.into())),
                            ("value", Value::F64(value)),
                            ("threshold", Value::F64(THRESHOLD)),
                        ],
                    );
                }
            } else {
                self.flagged.remove(&key);
            }
        }
    }

    /// The estimator of one source, if it was ever declared or observed.
    pub fn source(&self, name: &str) -> Option<&SourceDrift> {
        self.sources.get(name)
    }

    /// Iterates `(source, estimator)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SourceDrift)> {
        self.sources.iter()
    }

    /// `(source, stat, divergence)` for every pair currently beyond the
    /// threshold, in name then stat order.
    pub fn drifting(&self) -> Vec<(String, &'static str, f64)> {
        let mut out = Vec::new();
        for (name, drift) in &self.sources {
            for (stat, value) in drift.divergences() {
                if value.abs() > THRESHOLD {
                    out.push((name.clone(), stat, value));
                }
            }
        }
        out
    }

    /// Replays a trace's observation sequence through a fresh detached
    /// monitor. The trace is reconstructed once, by the profiler:
    /// [`ProfileIndex::from_journal`] for a live journal,
    /// [`ProfileIndex::from_jsonl`] for a file. The resulting estimator
    /// state — and therefore every divergence value — bit-equals the live
    /// monitor fed from the same run.
    ///
    /// The fold: the run's `source_declared` expectations, then, plan by
    /// plan in the order their terminal events were journalled, each
    /// source span as one [`AccessObservation`] (`total` and `network`
    /// were computed in the runtime's own order, so the EWMAs fold
    /// bit-equal). The loop binds a fresh monitor to each run and later
    /// runs overwrite the gauges, so a multi-run journal folds to its
    /// latest run; a journal with no `run_started` folds everything it
    /// recorded.
    /// A plan without a terminal event was never reported, so not observed.
    pub fn from_profile(index: &ProfileIndex) -> Self {
        let mut monitor = DivergenceMonitor::detached();
        let run = index.latest_scope();
        for (source, expected) in &run.declared {
            monitor.declare(source, *expected);
        }
        for plan in run.closed.iter().filter_map(|&i| run.plans.get(i)) {
            let answers = plan.tuples.filter(|_| plan.status == SpanStatus::Completed);
            for s in &plan.sources {
                monitor.observe(
                    &s.name,
                    AccessObservation {
                        attempts: s.attempts,
                        transient_failures: s.transient,
                        ok: s.outcome == "ok",
                        permanently_down: s.outcome == "permanent",
                        latency: s.total,
                        tuples: answers.map(|t| t as f64),
                        network: s.remote.as_ref().map(|r| r.network),
                        server: s.remote.as_ref().map(|r| r.total),
                    },
                );
            }
        }
        monitor
    }

    /// The monitor state as one JSON document (the `/divergence`
    /// endpoint serves these bytes): per-source estimators with their
    /// expectations and current divergences, plus the drifting set.
    pub fn to_json(&self) -> String {
        let sources = self.sources.iter().map(|(name, d)| {
            let expected = Json::object([
                ("latency", d.expected.latency.into()),
                ("transient_rate", d.expected.transient_rate.into()),
                ("tuples", d.expected.tuples.into()),
            ]);
            let divergence = d.divergences().into_iter();
            Json::object([
                ("source", name.as_str().into()),
                ("expected", expected),
                ("accesses", d.accesses.into()),
                ("attempts", d.attempts.into()),
                ("transient_failures", d.transient_failures.into()),
                ("successes", d.successes.into()),
                ("permanent_failures", d.permanent_failures.into()),
                ("ewma_latency", d.ewma_latency.into()),
                ("ewma_tuples", d.ewma_tuples.into()),
                ("ewma_network", d.ewma_network.into()),
                ("ewma_server", d.ewma_server.into()),
                (
                    "divergence",
                    Json::object(divergence.map(|(k, v)| (k, v.into()))),
                ),
            ])
        });
        let drifting = self.drifting().into_iter().map(|(name, stat, value)| {
            Json::object([
                ("source", name.into()),
                ("stat", stat.into()),
                ("value", value.into()),
            ])
        });
        let doc = [
            ("sources", sources.collect()),
            ("drifting", drifting.collect()),
        ];
        Json::object(doc).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Value;
    use crate::json::{parse_json, Json};

    fn chain_ok(latency: f64) -> AccessObservation {
        AccessObservation {
            attempts: 1,
            transient_failures: 0,
            ok: true,
            permanently_down: false,
            latency,
            tuples: None,
            network: None,
            server: None,
        }
    }

    #[test]
    fn estimators_fold_left_to_right() {
        let mut m = DivergenceMonitor::detached();
        m.declare(
            "s",
            SourceExpectation {
                latency: 2.0,
                transient_rate: 0.1,
                tuples: 10.0,
            },
        );
        m.observe(
            "s",
            AccessObservation {
                attempts: 2,
                transient_failures: 1,
                ok: true,
                permanently_down: false,
                latency: 4.0,
                tuples: Some(6.0),
                network: None,
                server: None,
            },
        );
        m.observe(
            "s",
            AccessObservation {
                attempts: 1,
                transient_failures: 0,
                ok: false,
                permanently_down: true,
                latency: 0.0,
                tuples: None,
                network: None,
                server: None,
            },
        );
        let d = m.source("s").unwrap();
        assert_eq!((d.accesses, d.attempts, d.transient_failures), (2, 3, 1));
        assert_eq!((d.successes, d.permanent_failures), (1, 1));
        // First observation seeds the EWMA; the second folds with α=0.2.
        assert_eq!(d.ewma_latency, Some(4.0 + 0.2 * (0.0 - 4.0)));
        assert_eq!(d.ewma_tuples, Some(6.0));
        assert_eq!(d.latency_divergence(), Some((3.2 - 2.0) / 2.0));
        assert_eq!(d.transient_divergence(), Some(1.0 / 3.0 - 0.1));
        assert_eq!(d.permanent_divergence(), Some(0.5));
        assert_eq!(d.tuples_divergence(), Some((6.0 - 10.0) / 10.0));
        assert_eq!(d.divergences().len(), DIVERGENCE_STATS.len());
    }

    #[test]
    fn zero_expectations_fall_back_to_absolute_divergence() {
        let mut m = DivergenceMonitor::detached();
        m.declare("s", SourceExpectation::default());
        m.observe("s", chain_ok(0.7));
        let d = m.source("s").unwrap();
        assert_eq!(d.latency_divergence(), Some(0.7));
    }

    #[test]
    fn declared_but_never_observed_sources_export_nothing() {
        let mut m = DivergenceMonitor::detached();
        m.declare(
            "quiet",
            SourceExpectation {
                latency: 1.0,
                ..SourceExpectation::default()
            },
        );
        let d = m.source("quiet").unwrap();
        assert!(d.divergences().is_empty());
        assert!(m.drifting().is_empty());
    }

    #[test]
    fn drift_events_fire_once_per_crossing_episode() {
        let obs = crate::Obs::with_trace();
        let mut m = DivergenceMonitor::new(&obs);
        m.declare(
            "s",
            SourceExpectation {
                latency: 1.0,
                ..SourceExpectation::default()
            },
        );
        let events_named = |kind: &str| {
            obs.journal
                .events()
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        m.observe("s", chain_ok(10.0)); // divergence 9 — crosses
        assert_eq!(events_named("drift_detected"), 1);
        assert_eq!(m.drifting().len(), 1);
        // Decay below the threshold: no new events, flag clears.
        for _ in 0..16 {
            m.observe("s", chain_ok(1.0));
        }
        assert!(m.drifting().is_empty());
        assert_eq!(events_named("drift_detected"), 1);
        // A second crossing is a new episode.
        m.observe("s", chain_ok(10.0));
        assert_eq!(events_named("drift_detected"), 2);
        // And the gauge tracks the latest divergence, bit for bit.
        let d = m.source("s").unwrap();
        let gauge = obs.registry.gauge(
            "qpo_source_divergence",
            &[("source", "s"), ("stat", "latency")],
        );
        assert_eq!(
            gauge.get().to_bits(),
            d.latency_divergence().unwrap().to_bits()
        );
    }

    #[test]
    fn json_export_is_parseable_and_lists_drifting_pairs() {
        let mut m = DivergenceMonitor::detached();
        m.declare(
            "s",
            SourceExpectation {
                latency: 1.0,
                ..SourceExpectation::default()
            },
        );
        m.observe("s", chain_ok(10.0));
        let json = m.to_json();
        let doc = parse_json(&json).expect("well-formed");
        let drifting = doc.get("drifting").expect("drifting array");
        assert!(matches!(drifting, Json::Array(items) if !items.is_empty()));
        assert!(json.contains("\"stat\":\"latency\""));
    }

    #[test]
    fn remote_spans_fold_into_network_and_server_ewmas() {
        let mut m = DivergenceMonitor::detached();
        m.declare(
            "s",
            SourceExpectation {
                latency: 1.0,
                ..SourceExpectation::default()
            },
        );
        let traced = |latency: f64, server: f64| AccessObservation {
            network: Some(latency - server),
            server: Some(server),
            ..chain_ok(latency)
        };
        m.observe("s", traced(2.0, 1.5));
        // An untraced chain in between must not disturb the remote EWMAs.
        m.observe("s", chain_ok(3.0));
        m.observe("s", traced(4.0, 1.0));
        let d = m.source("s").unwrap();
        assert_eq!(d.ewma_server, Some(1.5 + 0.2 * (1.0 - 1.5)));
        assert_eq!(d.ewma_network, Some(0.5 + 0.2 * (3.0 - 0.5)));
        let json = m.to_json();
        assert!(json.contains("\"ewma_network\":"));
        assert!(json.contains("\"ewma_server\":"));
    }

    #[test]
    fn replay_recomputes_remote_ewmas_bit_for_bit() {
        let obs = crate::Obs::with_trace();
        obs.journal.record("run_started", vec![]);
        let mut live = DivergenceMonitor::detached();
        for (latency, total) in [(2.5f64, 1.75f64), (3.25, 2.0)] {
            obs.journal.record(
                "source_attempt",
                vec![
                    ("plan_seq", Value::U64(0)),
                    ("source", Value::Str("s".into())),
                    ("attempt", Value::U64(1)),
                    ("backoff", Value::F64(0.0)),
                    ("latency", Value::F64(latency)),
                    ("outcome", Value::Str("ok".into())),
                    ("remote_total", Value::F64(total)),
                    ("remote_recv", Value::F64(total * 0.25)),
                    ("remote_lookup", Value::F64(total * 0.5)),
                    ("remote_encode", Value::F64(total * 0.25)),
                    ("remote_seq", Value::U64(7)),
                ],
            );
            obs.journal.record(
                "plan_completed",
                vec![
                    ("plan_seq", Value::U64(0)),
                    ("latency", Value::F64(latency)),
                    ("tuples", Value::U64(2)),
                ],
            );
            live.observe(
                "s",
                AccessObservation {
                    tuples: Some(2.0),
                    network: Some(latency - total),
                    server: Some(total),
                    ..chain_ok(latency)
                },
            );
        }
        let replayed = DivergenceMonitor::from_profile(&ProfileIndex::from_journal(&obs.journal));
        let (r, l) = (replayed.source("s").unwrap(), live.source("s").unwrap());
        assert_eq!(
            r.ewma_network.unwrap().to_bits(),
            l.ewma_network.unwrap().to_bits()
        );
        assert_eq!(
            r.ewma_server.unwrap().to_bits(),
            l.ewma_server.unwrap().to_bits()
        );
    }

    #[test]
    fn replay_resets_at_run_boundaries() {
        // Two runs in one journal: the replayed state is the second
        // run's, because live gauges are overwritten by the later run.
        let obs = crate::Obs::with_trace();
        for latency in [7.0f64, 3.0] {
            obs.journal.record("run_started", vec![]);
            obs.journal.record(
                "source_declared",
                vec![
                    ("source", Value::Str("s".into())),
                    ("latency", Value::F64(1.0)),
                    ("transient_rate", Value::F64(0.0)),
                    ("tuples", Value::F64(5.0)),
                ],
            );
            obs.journal.record(
                "source_attempt",
                vec![
                    ("plan_seq", Value::U64(0)),
                    ("source", Value::Str("s".into())),
                    ("attempt", Value::U64(1)),
                    ("backoff", Value::F64(0.0)),
                    ("latency", Value::F64(latency)),
                    ("outcome", Value::Str("ok".into())),
                ],
            );
            obs.journal.record(
                "plan_completed",
                vec![
                    ("plan_seq", Value::U64(0)),
                    ("latency", Value::F64(latency)),
                    ("tuples", Value::U64(4)),
                ],
            );
        }
        let replayed = DivergenceMonitor::from_profile(&ProfileIndex::from_journal(&obs.journal));
        let d = replayed.source("s").unwrap();
        assert_eq!(d.accesses, 1, "first run's estimators were reset");
        assert_eq!(d.ewma_latency, Some(3.0));
        let file = ProfileIndex::from_jsonl(&obs.journal.to_jsonl()).unwrap();
        let from_jsonl = DivergenceMonitor::from_profile(&file);
        assert_eq!(
            d,
            from_jsonl.source("s").unwrap(),
            "both replay paths agree"
        );
    }
}
