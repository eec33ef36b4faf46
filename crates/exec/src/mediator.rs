//! The end-to-end mediator: reformulate → order → test soundness →
//! execute → union (the architecture of §1–2 of the paper), packaged as a
//! shared query-serving layer.
//!
//! The mediator is cheap to clone ([`Arc`] internals) and serves many
//! queries over its lifetime. Plan generation — reformulation plus
//! instance assembly, the expensive pure prefix of every run — is cached
//! in a bounded LRU keyed on the query's
//! [`qpo_datalog::CanonicalQuery`], so structurally-identical queries
//! (equal up to variable renaming and body order) prepare once and serve
//! many times. Execution is one loop (`qpo_runtime::Executor`): plans
//! come out of a [`PlanOrderer`] in decreasing-utility order, each is
//! tested for soundness as it pops out (unsound candidates are discarded,
//! exactly the strategy of §2), executed, and its answers unioned into the
//! result. A [`QuerySession`] is that loop paused between pulls;
//! [`Mediator::answer`] and [`Mediator::answer_until`] are thin wrappers
//! over one-shot sessions.

use crate::concurrent::{ConcurrentRun, RunOptions};
use crate::core::ViewMap;
use crate::extensions::populate_sources;
use crate::session::QuerySession;
use crate::sharing::ExecutionMemo;
use qpo_catalog::Catalog;
use qpo_core::{
    ByExpectedTuples, Greedy, IDrips, OrderedPlan, OrdererError, Pi, PlanOrderer, Streamer,
};
use qpo_datalog::{is_sound_plan, ConjunctiveQuery, Database, ExpansionError, Tuple};
use qpo_obs::Obs;
use qpo_reformulation::{
    reformulate, CacheStats, PreparedQuery, ReformulationCache, ReformulationError,
};
use qpo_runtime::{FailureReason, RuntimePolicy};
use qpo_utility::UtilityMeasure;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Default bound on the reformulation cache (entries, not bytes).
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Which ordering algorithm the mediator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Greedy (§4) — requires a fully monotonic measure.
    Greedy,
    /// iDrips (§5.2) — applicable to every measure.
    IDrips,
    /// Streamer (§5.2) — requires diminishing returns.
    Streamer,
    /// The PI brute-force baseline (§6).
    Pi,
}

impl Strategy {
    /// Stable label, used for metric labels and display.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Greedy => "greedy",
            Strategy::IDrips => "idrips",
            Strategy::Streamer => "streamer",
            Strategy::Pi => "pi",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// What happened to one plan popped from the orderer.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The emitted plan (bucket-index form).
    pub ordered: OrderedPlan,
    /// Source names, bucket by bucket.
    pub sources: Vec<String>,
    /// The materialized conjunctive plan.
    pub query: ConjunctiveQuery,
    /// Whether the soundness test admitted the plan.
    pub sound: bool,
    /// Set when the soundness test itself *failed* (the plan could not be
    /// expanded against the view definitions) rather than returning a
    /// verdict. Such plans are treated as unsound but the error is
    /// surfaced here — and counted on `qpo_soundness_test_errors_total` —
    /// instead of being silently swallowed.
    pub soundness_error: Option<ExpansionError>,
    /// Why the plan, though sound, never ran: a source was permanently
    /// down, or kept failing until the retry budget ran out. The run
    /// carries on; the orderer has been told.
    pub failure: Option<FailureReason>,
    /// Tuples this plan produced that no earlier plan had (0 if unsound or
    /// failed — such plans are not executed).
    pub new_tuples: usize,
    /// Total distinct answers after this plan.
    pub cumulative: usize,
}

/// When an anytime mediation run should stop: the one loop's budget,
/// under either scheduler.
pub use qpo_runtime::RunBudget as StopCondition;

/// A full mediator run.
#[derive(Debug, Clone)]
pub struct MediatorRun {
    /// Per-plan reports, in emission order.
    pub reports: Vec<PlanReport>,
    /// The union of all executed plans' answers.
    pub answers: BTreeSet<Tuple>,
}

impl MediatorRun {
    /// Number of sound plans executed.
    pub fn executed(&self) -> usize {
        let ran = |r: &&PlanReport| r.sound && r.failure.is_none();
        self.reports.iter().filter(ran).count()
    }

    /// Plans discarded by the soundness test.
    pub fn discarded(&self) -> usize {
        self.reports.iter().filter(|r| !r.sound).count()
    }
}

/// Mediator failures.
#[derive(Debug)]
pub enum MediatorError {
    /// Query reformulation failed.
    Reformulation(ReformulationError),
    /// The chosen strategy does not apply to the measure.
    Orderer(OrdererError),
    /// A source-backend operation failed outside plan execution — an
    /// unknown registry label, or a session-side fetch. (Failures *during*
    /// plan execution never surface here: they are classified, retried,
    /// and reported per plan by the runtime.)
    Backend(qpo_runtime::BackendError),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::Reformulation(e) => write!(f, "reformulation failed: {e}"),
            MediatorError::Orderer(e) => write!(f, "ordering failed: {e}"),
            MediatorError::Backend(e) => write!(f, "backend failed: {e}"),
        }
    }
}

impl std::error::Error for MediatorError {}

/// Builds the orderer a strategy prescribes, surfacing applicability
/// errors. The orderers that carry telemetry
/// (iDrips' kernel, Streamer's link counters) register on `obs`.
pub(crate) fn build_orderer_observed<'a, M: UtilityMeasure>(
    inst: &'a qpo_catalog::ProblemInstance,
    measure: &'a M,
    strategy: Strategy,
    obs: &qpo_obs::Obs,
) -> Result<Box<dyn PlanOrderer + 'a>, MediatorError> {
    Ok(match strategy {
        Strategy::Greedy => Box::new(Greedy::new(inst, measure).map_err(MediatorError::Orderer)?),
        Strategy::IDrips => Box::new(IDrips::new(inst, measure, ByExpectedTuples).with_obs(obs)),
        Strategy::Streamer => Box::new(
            Streamer::new(inst, measure, &ByExpectedTuples)
                .map_err(MediatorError::Orderer)?
                .with_obs(obs),
        ),
        Strategy::Pi => Box::new(Pi::new(inst, measure)),
    })
}

/// A data integration mediator over a catalog with materialized source
/// extensions.
///
/// All internals sit behind [`Arc`]s: cloning a `Mediator` is cheap, and
/// every clone shares the catalog, the source extensions, the
/// reformulation cache, and the observability bundle — the intended shape
/// for a query-serving process where many threads each hold a handle and
/// open [`QuerySession`]s independently.
#[derive(Clone)]
pub struct Mediator {
    catalog: Arc<Catalog>,
    // `catalog.view_map()` deep-clones every source description: built
    // once here, borrowed by every session and run.
    view_map: Arc<ViewMap>,
    db: Arc<Database>,
    cache: Arc<ReformulationCache>,
    backends: Arc<crate::backends::BackendRegistry>,
    obs: Obs,
}

impl Mediator {
    /// Creates a mediator, materializing synthetic extensions from the
    /// catalog's extents with the given value pool.
    pub fn new(catalog: Catalog, universe: u64, pool: &[&str]) -> Self {
        let db = populate_sources(&catalog, pool);
        let obs = Obs::new();
        let cache = ReformulationCache::new(DEFAULT_CACHE_CAPACITY, universe, 5.0).with_obs(&obs);
        let mediator = Mediator {
            view_map: Arc::new(catalog.view_map()),
            catalog: Arc::new(catalog),
            db: Arc::new(db),
            cache: Arc::new(cache),
            backends: Arc::new(crate::backends::BackendRegistry::default()),
            obs,
        };
        mediator.publish_backends();
        mediator
    }

    /// Replaces the mediator's backend registry (default: only the
    /// simulator, under `"sim"`). Runs select a backend by label via
    /// [`RunOptions::backend`](crate::RunOptions::backend); sessions via
    /// [`QuerySession::with_backend`](crate::QuerySession::with_backend).
    pub fn with_backends(mut self, backends: crate::backends::BackendRegistry) -> Self {
        self.backends = Arc::new(backends);
        self.publish_backends();
        self
    }

    /// Republishes the registry onto the observability bundle's backend
    /// board: one `(label, kind, live epoch sampler, connection sampler)`
    /// entry per backend, behind the introspection server's `/backends`
    /// endpoint. The sampler holds the backend [`Arc`], so the listing
    /// tracks epoch bumps (store reseeds, server restarts) without
    /// re-registration. A networked backend's pool counters are also
    /// adopted into the metric registry as
    /// `qpo_backend_connections_{opened,reused}_total{backend=label}`.
    fn publish_backends(&self) {
        self.obs.backends.clear();
        for label in self.backends.labels() {
            if let Some(backend) = self.backends.get(label) {
                let connections = backend.connection_counters().map(|[opened, reused]| {
                    let labels = [("backend", label)];
                    for (name, counter) in [
                        ("qpo_backend_connections_opened_total", &opened),
                        ("qpo_backend_connections_reused_total", &reused),
                    ] {
                        self.obs.registry.adopt_counter(name, &labels, counter);
                    }
                    let sample: qpo_obs::backends::ConnectionsFn =
                        Arc::new(move || (opened.get(), reused.get()));
                    sample
                });
                let sampler = Arc::clone(&backend);
                self.obs.backends.publish(
                    label,
                    backend.kind(),
                    Arc::new(move || sampler.epoch()),
                    connections,
                );
            }
        }
    }

    /// The registered source backends.
    pub fn backends(&self) -> &crate::backends::BackendRegistry {
        &self.backends
    }

    /// The backend registered under `label`, or the typed error every
    /// entry point fails fast with.
    pub(crate) fn backend(
        &self,
        label: &str,
    ) -> Result<Arc<dyn qpo_runtime::SourceBackend>, MediatorError> {
        self.backends.get(label).ok_or_else(|| {
            MediatorError::Backend(qpo_runtime::BackendError::permanent(format!(
                "no backend registered under label {label:?} (have {:?})",
                self.backends.labels()
            )))
        })
    }

    /// Rebinds the mediator's telemetry to `obs`: session metrics, cache
    /// counters, and the ordering kernels' instruments all land on
    /// `obs.registry`. Rebuilds the (empty) cache so its counters re-home;
    /// call during setup, before serving.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        let c = &self.cache;
        let cache = ReformulationCache::new(c.capacity(), c.universe(), c.overhead());
        self.cache = Arc::new(cache.with_obs(obs));
        self.publish_backends();
        self
    }

    /// The source database (for inspection).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The catalog this mediator serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The observability bundle sessions and the cache report into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Hit/miss/eviction/generation counters of the reformulation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The span-tree profiles of every traced run on this mediator's
    /// journal — the offline reconstruction behind the `/profile`
    /// endpoint (empty when the journal is disabled).
    pub fn profiles(&self) -> qpo_obs::ProfileIndex {
        qpo_obs::ProfileIndex::from_journal(&self.obs.journal)
    }

    /// The source-drift state recomputed from this mediator's journal —
    /// the state of the *latest* traced run
    /// that accessed sources, exactly what `/divergence` serves (empty
    /// when the journal is disabled; a session without a backend accesses
    /// none).
    pub fn divergence(&self) -> qpo_obs::DivergenceMonitor {
        qpo_obs::DivergenceMonitor::from_profile(&self.profiles())
    }

    /// Starts the dependency-free introspection server over this
    /// mediator's observability bundle on `127.0.0.1:port` (`0` picks a
    /// free port). Serves `/metrics`, `/traces`, `/sessions`,
    /// `/explain?run=..&plan=..`, `/profile`, `/divergence`, `/backends`,
    /// and `/healthz` — live, read-only views of exactly what the offline
    /// exporters produce. The server stops when the returned handle is
    /// dropped.
    pub fn spawn_introspection(&self, port: u16) -> std::io::Result<qpo_obs::IntrospectionServer> {
        qpo_obs::serve::serve(&self.obs, port)
    }

    pub(crate) fn view_map(&self) -> &ViewMap {
        &self.view_map
    }

    pub(crate) fn universe(&self) -> u64 {
        self.cache.universe()
    }

    pub(crate) fn overhead(&self) -> f64 {
        self.cache.overhead()
    }

    /// Reformulates `query` and assembles its problem instance, served
    /// from the canonicalized cache when a structurally-identical query
    /// (equal up to variable renaming and body order) was prepared before.
    /// On a hit, bucket generation and instance assembly are skipped
    /// entirely and the shared [`PreparedQuery`] is returned.
    pub fn prepare(&self, query: &ConjunctiveQuery) -> Result<Arc<PreparedQuery>, MediatorError> {
        self.cache
            .get_or_prepare(&self.catalog, query)
            .map_err(MediatorError::Reformulation)
    }

    /// Answers `query`: orders plans under `measure` with `strategy`,
    /// executes the first `k` *emitted* plans (sound ones), and unions
    /// their results.
    pub fn answer<M: UtilityMeasure>(
        &self,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        k: usize,
    ) -> Result<MediatorRun, MediatorError> {
        self.answer_until(query, measure, strategy, StopCondition::plans(k))
    }

    /// The anytime variant of [`Mediator::answer`]: keeps emitting and
    /// executing plans until `stop` is satisfied or the plan space is
    /// exhausted. This is the execution model the paper motivates in §1 —
    /// because the plans arrive best first, stopping early still leaves the
    /// user with the most valuable answers per unit of work.
    ///
    /// Implemented as a one-shot [`QuerySession`] drained against `stop`;
    /// open a session directly to pull plans one at a time.
    pub fn answer_until<M: UtilityMeasure>(
        &self,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
    ) -> Result<MediatorRun, MediatorError> {
        let prepared = self.prepare(query)?;
        let mut session = QuerySession::new(self, &prepared, measure, strategy)?;
        Ok(session.drain(stop))
    }
}

// Kept for `bench_e2e/src/driver.rs`, which only a `benchmark` PR may
// change and which is the only caller left outside this crate's tests of
// the reference oracle and of the three `run_concurrent_*` forwarders:
// hidden until that PR moves the driver to `Mediator::run` and takes them
// out of the API (the oracle into test support).
impl Mediator {
    /// The pre-session mediator loop as a differential reference: it
    /// reformulates directly — bypassing the canonicalized cache — and
    /// drives the orderer inline, with no executor, no session machinery
    /// and no `observe` feedback. The `session_equivalence` integration
    /// tests pin [`Mediator::answer_until`] to this path bit for bit.
    #[doc(hidden)]
    pub fn reference_answer_until<M: UtilityMeasure>(
        &self,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
    ) -> Result<MediatorRun, MediatorError> {
        let reform = reformulate(&self.catalog, query).map_err(MediatorError::Reformulation)?;
        let inst = reform
            .problem_instance(&self.catalog, self.universe(), self.overhead())
            .map_err(MediatorError::Reformulation)?;
        let mut orderer = build_orderer_observed(&inst, measure, strategy, &Obs::new())?;
        let mut answers: BTreeSet<Tuple> = BTreeSet::new();
        let mut reports: Vec<PlanReport> = Vec::new();
        let mut spent = 0.0;
        while !stop.satisfied(answers.len(), reports.len(), spent) {
            let Some(ordered) = orderer.next_plan() else {
                break;
            };
            let plan_query = reform.plan_query(&ordered.plan);
            let (sound, soundness_error) =
                match is_sound_plan(&plan_query, &self.view_map, &reform.query) {
                    Ok(verdict) => (verdict, None),
                    Err(e) => (false, Some(e)),
                };
            let mut new_tuples = 0;
            if sound {
                spent += -ordered.utility;
                for t in self.db.evaluate(&plan_query) {
                    new_tuples += usize::from(answers.insert(t));
                }
            }
            reports.push(PlanReport {
                sources: reform.plan_sources(&ordered.plan),
                ordered,
                query: plan_query,
                sound,
                soundness_error,
                failure: None,
                new_tuples,
                cumulative: answers.len(),
            });
        }
        Ok(MediatorRun { reports, answers })
    }

    /// [`Mediator::run`] against the backend registered under `label`.
    #[doc(hidden)]
    pub fn run_concurrent_on<M: UtilityMeasure>(
        &self,
        label: &str,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: RuntimePolicy,
    ) -> Result<ConcurrentRun, MediatorError> {
        self.run_concurrent_on_observed(label, query, measure, strategy, stop, policy, &Obs::new())
    }

    /// [`Mediator::run_concurrent_on`] on a shared observability bundle.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn run_concurrent_on_observed<M: UtilityMeasure>(
        &self,
        label: &str,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: RuntimePolicy,
        obs: &Obs,
    ) -> Result<ConcurrentRun, MediatorError> {
        let opts = RunOptions {
            backend: Some(label),
            obs: Some(obs),
            ..RunOptions::default()
        };
        self.run(query, measure, strategy, stop, policy, &opts)
    }

    /// [`Mediator::run`] on the simulator with a shared-execution memo.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn run_concurrent_memoized<M: UtilityMeasure>(
        &self,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: RuntimePolicy,
        memo: &ExecutionMemo,
        obs: &Obs,
    ) -> Result<ConcurrentRun, MediatorError> {
        let opts = RunOptions {
            memo: Some(memo),
            obs: Some(obs),
            ..RunOptions::default()
        };
        self.run(query, measure, strategy, stop, policy, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_catalog::{Extent, MediatedSchema, SchemaRelation, SourceStats};
    use qpo_datalog::SourceDescription;
    use qpo_utility::{Coverage, FailureCost, LinearCost};

    fn mediator() -> Mediator {
        Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
    }

    #[test]
    fn greedy_run_answers_movie_query() {
        let m = mediator();
        let run = m
            .answer(&movie_query(), &LinearCost, Strategy::Greedy, 9)
            .unwrap();
        assert_eq!(run.reports.len(), 9);
        assert_eq!(run.executed(), 9, "all Figure 1 plans are sound");
        assert_eq!(run.discarded(), 0);
        assert!(!run.answers.is_empty());
        // Utilities are non-increasing for the context-free measure.
        for w in run.reports.windows(2) {
            assert!(w[0].ordered.utility >= w[1].ordered.utility);
        }
        // Cumulative counts are non-decreasing and end at the union size.
        for w in run.reports.windows(2) {
            assert!(w[0].cumulative <= w[1].cumulative);
        }
        assert_eq!(run.reports.last().unwrap().cumulative, run.answers.len());
    }

    #[test]
    fn coverage_ordering_front_loads_new_tuples() {
        let m = mediator();
        let run = m
            .answer(&movie_query(), &Coverage, Strategy::Streamer, 9)
            .unwrap();
        let total = run.answers.len();
        assert!(total > 0);
        // The first half of the plans must contribute at least half of the
        // answers — the whole point of coverage ordering.
        let first_half: usize = run.reports[..5].iter().map(|r| r.new_tuples).sum();
        assert!(
            first_half * 2 >= total,
            "first half contributed {first_half} of {total}"
        );
        // And the very first plan is the single largest contributor.
        let first = run.reports[0].new_tuples;
        assert!(run.reports.iter().all(|r| r.new_tuples <= first));
    }

    #[test]
    fn streamer_and_pi_produce_the_same_answers() {
        let m = mediator();
        let a = m
            .answer(&movie_query(), &Coverage, Strategy::Streamer, 9)
            .unwrap();
        let b = m
            .answer(&movie_query(), &Coverage, Strategy::Pi, 9)
            .unwrap();
        assert_eq!(a.answers, b.answers);
        let ua: Vec<f64> = a.reports.iter().map(|r| r.ordered.utility).collect();
        let ub: Vec<f64> = b.reports.iter().map(|r| r.ordered.utility).collect();
        for (x, y) in ua.iter().zip(&ub) {
            assert!((x - y).abs() < 1e-12, "{ua:?} vs {ub:?}");
        }
    }

    #[test]
    fn idrips_handles_caching_measure() {
        let m = mediator();
        let run = m
            .answer(
                &movie_query(),
                &FailureCost::with_caching(),
                Strategy::IDrips,
                5,
            )
            .unwrap();
        assert_eq!(run.reports.len(), 5);
    }

    #[test]
    fn strategy_applicability_errors_surface() {
        let m = mediator();
        let err = m
            .answer(&movie_query(), &Coverage, Strategy::Greedy, 3)
            .err()
            .unwrap();
        assert!(matches!(err, MediatorError::Orderer(_)), "{err}");
        let err = m
            .answer(
                &movie_query(),
                &FailureCost::with_caching(),
                Strategy::Streamer,
                3,
            )
            .err()
            .unwrap();
        assert!(err.to_string().contains("diminishing"));
    }

    #[test]
    fn unanswerable_query_reports_reformulation_error() {
        let m = mediator();
        let q = qpo_datalog::parse_query("q(D) :- directs(D, M)").unwrap();
        let err = m
            .answer(&q, &LinearCost, Strategy::Greedy, 1)
            .err()
            .unwrap();
        assert!(matches!(err, MediatorError::Reformulation(_)));
    }

    #[test]
    fn unsafe_queries_are_rejected_before_any_plan_runs() {
        // A head variable absent from the body cannot be evaluated; the
        // query is refused at `prepare`, never cached, under every
        // strategy the measure allows.
        let m = mediator();
        for text in [
            "q(X) :- play_in(ford, M)",
            "q(X, M) :- play_in(ford, M), review_of(R, M)",
            "q(X) :- ",
        ] {
            let q = qpo_datalog::parse_query(text).unwrap();
            let unsafe_x = |err: &MediatorError| match err {
                MediatorError::Reformulation(ReformulationError::UnsafeQuery(v)) => &**v == "X",
                _ => false,
            };
            assert!(m.prepare(&q).err().is_some_and(|e| unsafe_x(&e)), "{text}");
            for strategy in [Strategy::IDrips, Strategy::Streamer, Strategy::Pi] {
                let err = m.answer(&q, &Coverage, strategy, 3).err();
                assert!(
                    err.as_ref().is_some_and(unsafe_x),
                    "{text}, {strategy}: {err:?}"
                );
            }
        }
        assert_eq!(m.cache_stats().hits, 0, "no unsafe query was cached");
    }

    #[test]
    fn answer_until_stops_on_enough_answers() {
        let m = mediator();
        let run = m
            .answer_until(
                &movie_query(),
                &Coverage,
                Strategy::Streamer,
                StopCondition::answers(1),
            )
            .unwrap();
        assert!(!run.answers.is_empty());
        // Stops as soon as the answer count is reached: with coverage
        // ordering the very first plan already produces tuples.
        assert_eq!(run.reports.len(), 1);
    }

    #[test]
    fn answer_until_respects_cost_budget() {
        let m = mediator();
        let unbounded = m
            .answer_until(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
            )
            .unwrap();
        assert_eq!(unbounded.reports.len(), 9, "unbounded runs the whole space");
        let total_cost: f64 = unbounded.reports.iter().map(|r| -r.ordered.utility).sum();
        let budget = total_cost / 3.0;
        let bounded = m
            .answer_until(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::budget(budget),
            )
            .unwrap();
        assert!(bounded.reports.len() < 9, "budget cuts the run short");
        // Spent cost exceeds the budget by at most one plan.
        let spent: f64 = bounded.reports.iter().map(|r| -r.ordered.utility).sum();
        let last = -bounded.reports.last().unwrap().ordered.utility;
        assert!(spent - last <= budget && spent > budget);
    }

    #[test]
    fn repeated_queries_hit_the_reformulation_cache() {
        let m = mediator();
        m.answer(&movie_query(), &LinearCost, Strategy::Greedy, 3)
            .unwrap();
        m.answer(&movie_query(), &LinearCost, Strategy::Greedy, 3)
            .unwrap();
        let renamed = qpo_datalog::parse_query(
            "q(Movie, Rev) :- play_in(ford, Movie), review_of(Rev, Movie)",
        )
        .unwrap();
        m.answer(&renamed, &LinearCost, Strategy::Greedy, 3)
            .unwrap();
        let stats = m.cache_stats();
        assert_eq!(stats.generations, 1, "one shape, prepared once");
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn clones_share_the_cache_and_database() {
        let m = mediator();
        let clone = m.clone();
        m.answer(&movie_query(), &LinearCost, Strategy::Greedy, 3)
            .unwrap();
        let run = clone
            .answer(&movie_query(), &LinearCost, Strategy::Greedy, 3)
            .unwrap();
        assert!(!run.answers.is_empty());
        assert_eq!(clone.cache_stats().hits, 1, "clone hits the shared cache");
    }

    /// What the verdict memo must not change about a run: its reports
    /// (plan, utility bits, status, soundness error, tuple counts), its
    /// answers, and its trace (events without the journal-wide `seq`).
    type Seen = (Vec<String>, BTreeSet<Tuple>, Vec<String>);

    fn trace_since(obs: &Obs, start: usize) -> Vec<String> {
        let events = obs.journal.events().into_iter().skip(start);
        let line =
            |e: qpo_obs::TraceEvent| format!("{} {:x} {:?}", e.kind, e.clock.to_bits(), e.fields);
        events.map(line).collect()
    }

    /// `[soundness tests run, soundness tests that erred]` on `obs`.
    fn soundness_counters(obs: &Obs) -> [u64; 2] {
        [
            "qpo_soundness_tests_total",
            "qpo_soundness_test_errors_total",
        ]
        .map(|name| obs.registry.counter_value(name, &[]))
    }

    /// One two-worker `Mediator::run` on a tracing bundle of its own, and
    /// that bundle's soundness counters.
    fn traced_run(m: &Mediator, q: &ConjunctiveQuery) -> (Seen, [u64; 2]) {
        let obs = Obs::with_trace();
        let opts = RunOptions {
            obs: Some(&obs),
            ..RunOptions::default()
        };
        let (stop, policy) = (StopCondition::unbounded(), RuntimePolicy::parallel(2));
        let run = m.run(q, &LinearCost, Strategy::Greedy, stop, policy, &opts);
        let run = run.unwrap().runtime;
        let line = |r: &qpo_runtime::PlanExecution| {
            let bits = r.ordered.utility.to_bits();
            format!("{:?} {bits:x} {:?}", r.ordered.plan, r.status)
        };
        let reports = run.reports.iter().map(line).collect();
        let seen = (reports, run.answers, trace_since(&obs, 0));
        (seen, soundness_counters(&obs))
    }

    /// One session drained on the mediator's own (tracing) bundle.
    fn traced_session(m: &Mediator, q: &ConjunctiveQuery) -> Seen {
        let start = m.obs().journal.events().len();
        let stop = StopCondition::unbounded();
        let run = m.answer_until(q, &LinearCost, Strategy::Greedy, stop);
        let run = run.unwrap();
        let line = |r: &PlanReport| {
            let bits = r.ordered.utility.to_bits();
            let outcome = (r.sound, &r.soundness_error, &r.failure);
            let tuples = (r.new_tuples, r.cumulative);
            format!("{:?} {bits:x} {outcome:?} {tuples:?}", r.ordered.plan)
        };
        let reports = run.reports.iter().map(line).collect();
        (reports, run.answers, trace_since(m.obs(), start))
    }

    /// A second run and a second session over a shape the mediator has
    /// served test no plan again and report what the first did. Returns
    /// the session's view, and how many tests erred: an error is reported
    /// and counted every time, remembered or not.
    fn the_second_time_tests_nothing(
        fresh: impl Fn() -> Mediator,
        q: &ConjunctiveQuery,
    ) -> (Seen, u64) {
        let m = fresh();
        let ((first, [tested, erred]), (second, again)) = (traced_run(&m, q), traced_run(&m, q));
        assert!(tested > 0);
        assert_eq!(again, [0, erred], "nothing tested twice; errors recounted");
        assert_eq!(first, second);

        let obs = Obs::with_trace();
        let m = fresh().with_obs(&obs);
        let first = traced_session(&m, q);
        assert_eq!(soundness_counters(&obs), [tested, erred]);
        assert_eq!(first, traced_session(&m, q));
        assert_eq!(soundness_counters(&obs), [tested, 2 * erred]);
        assert!(!first.2.is_empty(), "the sessions were traced");
        (first, erred)
    }

    #[test]
    fn a_served_shape_is_not_soundness_tested_again() {
        let (seen, erred) = the_second_time_tests_nothing(mediator, &movie_query());
        assert_eq!((seen.0.len(), erred), (9, 0));
    }

    #[test]
    fn unsound_verdicts_are_remembered_too() {
        // `session_equivalence.rs`'s trap: every plan through `u1` is
        // unsound and, being cheap, emitted first.
        let trap = || {
            let relations = [("play_in", 2), ("american", 1), ("russian", 1)];
            let relations = relations.map(|(name, arity)| SchemaRelation::new(name, arity));
            let mut catalog = Catalog::new(MediatedSchema::with_relations(relations));
            for (view, start, len, alpha, access) in [
                ("u1(A) :- play_in(A, M), russian(M)", 0, 40, 0.5, 1.0),
                ("u2(A, M) :- play_in(A, M), american(M)", 100, 400, 4.0, 8.0),
                ("u3(M) :- american(M)", 100, 400, 2.0, 4.0),
            ] {
                let view = SourceDescription::new(qpo_datalog::parse_query(view).unwrap());
                let stats = SourceStats::new()
                    .with_extent(Extent::new(start, len))
                    .with_transmission_cost(alpha)
                    .with_access_cost(access);
                catalog.add_source(view, stats).unwrap();
            }
            Mediator::new(catalog, 1000, &["ford", "hanks"])
        };
        let q = qpo_datalog::parse_query("q(A) :- play_in(A, M), american(M)").unwrap();
        let (seen, erred) = the_second_time_tests_nothing(trap, &q);
        assert_eq!(erred, 0);
        assert!(seen.0[0].contains("(false, None, None)"), "{:?}", seen.0);
        assert!(seen.0.iter().any(|r| r.contains("(true, None, None)")));
    }

    #[test]
    fn a_soundness_test_that_errs_is_reported_and_counted_every_time() {
        // The only way a test can err: the view map out of step with the
        // catalog the buckets came from — here it has lost `v3`.
        let erring = || {
            let m = mediator();
            let mut views = (*m.view_map).clone();
            views.remove("v3").expect("the movie domain has v3");
            Mediator {
                view_map: Arc::new(views),
                ..m
            }
        };
        let (seen, erred) = the_second_time_tests_nothing(erring, &movie_query());
        assert_eq!(erred, 3, "v3 × three review sources");
        let reported = seen.0.iter().filter(|r| r.contains("Some(UnknownSource"));
        assert_eq!(reported.count(), 3);
    }

    #[test]
    fn stop_condition_combinators() {
        let c = StopCondition::answers(5);
        assert!(c.satisfied(5, 0, 0.0) && !c.satisfied(4, 99, 1e9));
        let c = StopCondition::budget(10.0);
        assert!(c.satisfied(0, 0, 10.1) && !c.satisfied(99, 99, 10.0));
        let c = StopCondition::unbounded();
        assert!(!c.satisfied(usize::MAX, usize::MAX, f64::MAX));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::Greedy.to_string(), "greedy");
        assert_eq!(Strategy::IDrips.to_string(), "idrips");
        assert_eq!(Strategy::Streamer.to_string(), "streamer");
        assert_eq!(Strategy::Pi.to_string(), "pi");
    }
}
