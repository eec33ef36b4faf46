//! Concurrent mediation: the mediator loop run to its budget by the
//! `qpo-runtime` executor, helper threads and all.
//!
//! [`Mediator::run`] orders plans exactly like [`Mediator::answer_until`]
//! but executes them in speculative waves, `policy.workers` at a time
//! while their accesses wait, against *remote sources* — the
//! deterministic simulator by default, a registered store or TCP backend
//! by label — with latency, retries, and injected failures. It is the
//! same loop, the same per-plan core and the same hooks ([`crate::core`],
//! the loop's observer) a [`QuerySession`](crate::QuerySession) steps
//! inline one pull at a time; nothing beside the loop syncs a data
//! version. So a backend and a shared-execution memo compose in one call
//! ([`RunOptions`]); the ranked tuple stream is the session's pull
//! ([`QuerySession::next_tuple`](crate::QuerySession::next_tuple)). Two
//! properties tie the two schedulers together:
//!
//! - **Equivalence**: with faults disabled, any worker count and any
//!   speculation depth yields the serial plan-emission order and answer
//!   set (the integration tests pin this down bit for bit);
//! - **Graceful degradation**: with faults on, failed plans are reported
//!   back to the orderer ([`qpo_core::PlanOrderer::observe`]) and the run
//!   carries on, so a permanently-down source costs exactly the answers
//!   only it could deliver.

use crate::core::{Hooks, PlanCore};
use crate::mediator::{build_orderer_observed, Mediator, MediatorError, StopCondition, Strategy};
use crate::sharing::ExecutionMemo;
use qpo_datalog::ConjunctiveQuery;
use qpo_obs::Obs;
use qpo_runtime::{RuntimePolicy, RuntimeRun, SimBackend, SourceBackend};
use qpo_utility::UtilityMeasure;
use std::sync::Arc;

/// What a [`Mediator::run`] composes on top of ordering and wave
/// execution. The default is the plain simulated run on a private
/// observability bundle.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Label of the registered backend every source access dispatches
    /// through (see [`Mediator::with_backends`] and [`crate::backends`]);
    /// `None` is the simulator. A real backend's failures are classified,
    /// retried and fed to the same feedback and divergence machinery as
    /// simulated faults.
    pub backend: Option<&'a str>,
    /// Shared-execution memo (see [`crate::sharing`]): emission order,
    /// statuses, utilities and answers always match the unmemoized run;
    /// only the work shrinks. Scope one memo to one mediator (and, for
    /// sessions streaming tuples, one scorer).
    pub memo: Option<&'a ExecutionMemo>,
    /// Shared observability bundle: metrics land on its registry and —
    /// when its journal is enabled — the run appends a deterministic
    /// plan-lifecycle trace (see [`qpo_runtime::Executor::run`] for the
    /// clock contract).
    pub obs: Option<&'a Obs>,
}

/// A concurrent mediation run.
#[derive(Debug, Clone)]
pub struct ConcurrentRun {
    /// Per-plan execution records, answers, aggregate counters and the
    /// source drift the loop folded as plans merged.
    pub runtime: RuntimeRun,
}

impl ConcurrentRun {
    /// Plans that executed successfully.
    pub fn executed(&self) -> usize {
        self.runtime.executed()
    }

    /// Plans marked failed.
    pub fn failed(&self) -> usize {
        self.runtime.failed()
    }

    /// The emitted plans, in order — directly comparable with the serial
    /// run's report sequence.
    pub fn emitted_plans(&self) -> Vec<Vec<usize>> {
        self.runtime
            .reports
            .iter()
            .map(|r| r.ordered.plan.clone())
            .collect()
    }
}

impl Mediator {
    /// The concurrent, failure-aware variant of [`Mediator::answer_until`]:
    /// same reformulation, same ordering algorithm, but plans execute on
    /// `policy.workers` threads against (by default simulated) flaky
    /// sources under `policy.faults`, with `policy.retry` governing
    /// per-source retries, composed with whatever `opts` asks for.
    ///
    /// Plan outcomes feed back into the orderer, so with faults enabled a
    /// failed plan stops being credited (e.g. as cached) by later
    /// emissions — for Pi and iDrips exactly; Streamer keeps the
    /// optimistic assumption (see `PlanOrderer::observe`). The trace is
    /// byte-identical across worker counts.
    pub fn run<M: UtilityMeasure>(
        &self,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: RuntimePolicy,
        opts: &RunOptions<'_>,
    ) -> Result<ConcurrentRun, MediatorError> {
        let private = Obs::new();
        let obs = opts.obs.unwrap_or(&private);
        let backend: Arc<dyn SourceBackend> = match opts.backend {
            Some(label) => self.backend(label)?,
            None => Arc::new(SimBackend),
        };
        let prepared = self.prepare(query)?;
        let mut orderer = build_orderer_observed(&prepared.instance, measure, strategy, obs)?;
        let runs = [("orderer", orderer.algorithm_name())];
        obs.registry.counter("qpo_mediator_runs_total", &runs).inc();
        let mut core = PlanCore::new(self, &prepared, obs);
        core.serve_from(backend);
        let mut hooks = Hooks::new(obs, self.database(), &prepared);
        if let Some(memo) = opts.memo {
            core.memo = Some(memo.sources.clone());
            hooks.share(memo);
        }
        let executor = core.executor(policy, obs);
        let runtime = executor.run_observed(orderer.as_mut(), stop, &mut hooks);
        Ok(ConcurrentRun { runtime })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_runtime::{FaultConfig, PlanStatus};
    use qpo_utility::{Coverage, LinearCost};

    fn mediator() -> Mediator {
        Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
    }

    #[test]
    fn strategy_errors_surface_like_the_serial_path() {
        let m = mediator();
        let err = m
            .run(
                &movie_query(),
                &Coverage,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::serial(),
                &RunOptions::default(),
            )
            .err()
            .unwrap();
        assert!(matches!(err, MediatorError::Orderer(_)), "{err}");
    }

    #[test]
    fn concurrent_run_reports_per_source_counts_and_fees() {
        let m = mediator();
        let run = m
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(2)
                    .with_faults(FaultConfig::with_seed(11).with_extra_transient_rate(0.3)),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(run.runtime.reports.len(), 9);
        assert!(run.runtime.stats.attempts >= 9 * 2, "2 sources per plan");
        // Per-source counts live on the drift monitor, fed from the same
        // reports: every source was accessed, and the counts add up.
        let drifts: Vec<_> = run.runtime.divergence.iter().collect();
        assert_eq!(drifts.len(), 6, "3 + 3 sources behind the movie query");
        for (name, drift) in &drifts {
            assert!(drift.attempts > 0, "source {name} was accessed");
        }
        let sum =
            |f: fn(&qpo_obs::SourceDrift) -> u64| -> u64 { drifts.iter().map(|(_, d)| f(d)).sum() };
        let stats = &run.runtime.stats;
        assert_eq!(sum(|d| d.attempts), stats.attempts);
        assert_eq!(sum(|d| d.transient_failures), stats.transient_failures);
        assert!(stats.transient_failures > 0, "the injected faults fired");
        let chains = run.runtime.reports.iter().map(|r| r.accesses.len() as u64);
        assert_eq!(
            sum(|d| d.successes),
            chains.sum::<u64>(),
            "retries absorbed them"
        );
        assert_eq!(sum(|d| d.permanent_failures), 0);
    }

    #[test]
    fn permanently_down_source_costs_only_its_plans() {
        let m = mediator();
        // v1 is one of three sources in the first bucket of Figure 1.
        let faults = FaultConfig::with_seed(1).with_source_down("v1");
        let run = m
            .run(
                &movie_query(),
                &Coverage,
                Strategy::Pi,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(3).with_faults(faults),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(run.runtime.reports.len(), 9, "run completes");
        assert!(run.failed() > 0, "plans through v1 fail");
        assert!(run.executed() > 0, "other plans still answer");
        for r in &run.runtime.reports {
            if let PlanStatus::Failed(reason) = &r.status {
                assert!(format!("{reason:?}").contains("v1"));
            }
        }
        for (name, drift) in run.runtime.divergence.iter() {
            let down = drift.permanent_failures > 0;
            assert_eq!(down, name == "v1", "{name}: {drift:?}");
        }
    }
}
