//! Pull-based query sessions: the serving layer's unit of execution.
//!
//! A [`QuerySession`] binds one [`PreparedQuery`] (possibly shared via the
//! mediator's reformulation cache) to one freshly-built [`PlanOrderer`]
//! and lets the caller *pull* executed plans one at a time with
//! [`QuerySession::next_report`], or drain them against a
//! [`StopCondition`] with [`QuerySession::drain`]. This is the anytime
//! interaction model of §1 of the paper made explicit: the client decides
//! after every plan whether the answers so far are satisfactory.
//!
//! A session *is* a run of the one execution loop
//! ([`qpo_runtime::Executor`]) paused between pulls: a pull is one
//! [`step`](qpo_runtime::Executor::step) at `lookahead = 1`, inline on the
//! caller's thread, with the session's hooks as the step's observer — the
//! merged plan's ticket (its query, a soundness error) comes back in
//! them. So a session pops, budgets, retries, fails, feeds back and
//! traces exactly like [`Mediator::run`] under
//! [`RuntimePolicy::serial`] — the same plan-lifecycle, `source_attempt`,
//! memo and drift events on the same serial virtual clock, which is why
//! `/profile`, failure feedback and `/divergence` work for pulled
//! sessions too.
//!
//! A plan [`QuerySession::next_tuple`] pulls for its ranked stream is
//! joined once, by its stream: the step runs its soundness test, its
//! source accesses, the source memo, the stream attach and the release
//! gate as any step does, but not the plan's join, and puts none of its
//! rows in the run's answer set. The session keeps the plan's ticket
//! (plan query, memo seed, the rows its accesses fetched) and joins it
//! into the answer set — in emission order, with the plan's own rows —
//! the next time that set is read: by [`QuerySession::answers`],
//! [`QuerySession::drain`] or an explicit [`QuerySession::next_report`].
//! Until then its `plan_completed` carries no tuple counts, the run's
//! `run_finished` no answer count, and the board's `answers` counts only
//! the answers joined.
//!
//! Sessions report into the mediator's observability bundle:
//! `qpo_sessions_total{strategy}` counts openings,
//! `qpo_session_time_to_first_plan_ms{strategy}` and
//! `qpo_session_time_to_plan_ms{strategy}` histogram the latency from
//! session open to the first / every plan report, and
//! `qpo_soundness_test_errors_total` counts soundness tests that errored
//! rather than returning a verdict (surfaced per plan on
//! [`PlanReport::soundness_error`]). Each session also registers itself
//! on the bundle's [`SessionBoard`](qpo_obs::SessionBoard) (the
//! `/sessions` endpoint of the introspection server).

use crate::core::{Hooks, PlanCore, Ticket};
use crate::mediator::{
    build_orderer_observed, Mediator, MediatorError, MediatorRun, PlanReport, StopCondition,
    Strategy,
};
use crate::sharing::ExecutionMemo;
use qpo_anyk::{CatalogScorer, RankedTuple, ScoreBoundOrder, TupleScorer};
use qpo_core::PlanOrderer;
use qpo_datalog::Tuple;
use qpo_obs::{encode_plan, Histogram, Obs};
use qpo_reformulation::PreparedQuery;
use qpo_runtime::{PlanExecution, PlanStatus, RunState, RuntimePolicy, SourceMemo};
use qpo_utility::UtilityMeasure;
use std::collections::BTreeSet;
use std::time::Instant;

/// An open query-serving session: one prepared query, one orderer, and
/// the run accumulating its answers.
///
/// The session borrows the mediator and the prepared query for its
/// lifetime `'s`; the usual shape is
///
/// ```ignore
/// let prepared = mediator.prepare(&query)?;
/// let mut session = QuerySession::new(&mediator, &prepared, &measure, strategy)?;
/// while let Some(report) = session.next_report() {
///     /* inspect report, stop whenever satisfied */
/// }
/// ```
///
/// The run begins at the first pull (so it sees the backend and memo the
/// builder methods attached) and is sealed when the session drops. It
/// executes against the backend [`QuerySession::with_backend`] attached
/// or, without one, over the in-memory extensions with no source access:
/// no attempts, every latency 0, the virtual clock never moves. The
/// session's own are the [`PlanReport`]s, the board entry, and the ranked
/// tuple stream: [`QuerySession::next_tuple`] is the one place a ranked
/// tuple leaves the system, and a tuple it delivers is final.
///
/// Attempted plans — executed or failed — spend budget and are fed back
/// to the orderer by the loop; unsound plans spend nothing.
pub struct QuerySession<'s> {
    mediator: &'s Mediator,
    prepared: &'s PreparedQuery,
    core: PlanCore<'s>,
    hooks: Hooks<'s>,
    // The strategy's orderer; the score-bound schedule once streaming
    // starts.
    orderer: Box<dyn PlanOrderer + 's>,
    // The run, begun at the first pull.
    run: Option<RunState>,
    // The run's answers in order, for `answers()`: built on first ask,
    // dropped by the next step or join — a session that never asks never
    // sorts.
    sorted: Option<BTreeSet<Tuple>>,
    // The executed plans `next_tuple` pulled and did not join yet, in
    // emission order: `(seq, plan, ticket)`.
    deferred: Vec<(u64, Vec<usize>, Ticket)>,
    opened: Instant,
    obs: &'s Obs,
    board_id: u64,
    // The scorer the any-k part of the hooks starts with on the first
    // `next_tuple` pull (None = the catalog default).
    pending_scorer: Option<Box<dyn TupleScorer + 's>>,
    // Plans pulled before streaming began: the gate must not wait for
    // them, nor the schedule pull them again.
    emitted_unstreamed: Vec<Vec<usize>>,
    // The slowest plan so far: with the run's clock, the profile snapshot
    // surfaced on the session board.
    bounding_plan: Option<(f64, String)>,
    time_to_first_plan: Histogram,
    time_to_plan: Histogram,
}

impl<'s> QuerySession<'s> {
    /// Opens a session for `prepared` on `mediator`, building the orderer
    /// `strategy` prescribes under `measure`. Fails fast (before any plan
    /// work) when the strategy does not apply to the measure.
    pub fn new<M: UtilityMeasure>(
        mediator: &'s Mediator,
        prepared: &'s PreparedQuery,
        measure: &'s M,
        strategy: Strategy,
    ) -> Result<QuerySession<'s>, MediatorError> {
        let obs = mediator.obs();
        let orderer = build_orderer_observed(&prepared.instance, measure, strategy, obs)?;
        let labels = [("strategy", strategy.label())];
        obs.registry.counter("qpo_sessions_total", &labels).inc();
        let board_id = obs
            .sessions
            .open(strategy.label(), prepared.instance.plan_count() as u64);
        Ok(QuerySession {
            mediator,
            prepared,
            core: PlanCore::new(mediator, prepared, obs),
            hooks: Hooks::new(obs, mediator.database(), prepared),
            orderer,
            run: None,
            sorted: None,
            deferred: Vec::new(),
            opened: Instant::now(),
            obs,
            board_id,
            pending_scorer: None,
            emitted_unstreamed: Vec::new(),
            bounding_plan: None,
            time_to_first_plan: obs
                .registry
                .histogram("qpo_session_time_to_first_plan_ms", &labels),
            time_to_plan: obs
                .registry
                .histogram("qpo_session_time_to_plan_ms", &labels),
        })
    }

    /// Executes this session's plans against the backend registered under
    /// `label` on the mediator (see
    /// [`Mediator::with_backends`](crate::Mediator::with_backends) and
    /// [`crate::backends`]), exactly as
    /// [`RunOptions::backend`](crate::RunOptions::backend) does for a run:
    /// every source access goes out under its subgoal's binding pattern
    /// with the standard retry discipline, a plan whose retries run out is
    /// reported failed ([`PlanReport::failure`]) and fed back to the
    /// orderer, and the trace carries the accesses on a moving clock. A
    /// data-serving backend's rows are what the join reads; they live in
    /// the source memo beside the outcome of the access that fetched them
    /// (the attached [`ExecutionMemo`]'s, else a private one), so each
    /// `(source, pattern)` is fetched once per backend data version: the
    /// loop clears that memo at its first wave after a backend write. `"sim"` is the
    /// simulator: it serves no rows, so reports, answers and the ranked
    /// stream stay bit-identical to an unbackended session's. Tuple-level
    /// any-k streaming always ranks over the extensions.
    ///
    /// Fails fast when `label` is not registered.
    pub fn with_backend(mut self, label: &str) -> Result<Self, MediatorError> {
        let serves_data = self.core.serve_from(self.mediator.backend(label)?);
        if serves_data && self.core.memo.is_none() {
            // A private source memo: each `(source, pattern)` is fetched
            // once. The simulator serves no rows and, as under
            // `Mediator::run`, pays every access unless a memo is shared.
            self.core.memo = Some(SourceMemo::new());
        }
        Ok(self)
    }

    /// Attaches a shared-execution memo: plans seed their joins from the
    /// longest memoized atom-prefix (and promote what they compute), the
    /// any-k stream builds its per-plan enumerators through the shared
    /// level cache, and — on a backend — source accesses replay from the
    /// memo's outcomes. Reports and answers are bit-identical to an
    /// unmemoized session; only the work shrinks. Clone one
    /// [`ExecutionMemo`] across the sessions of a serving process to
    /// share partial joins between queries. Hits and seeded plans show
    /// on the session board and as `subplan_reused` events.
    pub fn with_memo(mut self, memo: &ExecutionMemo) -> Self {
        self.core.memo = Some(memo.sources.clone());
        self.hooks.share(memo);
        self
    }

    /// Memoized lookups that hit (subplan prefixes plus shared any-k
    /// levels) in this session. 0 unless [`QuerySession::with_memo`]
    /// attached a memo.
    pub fn memo_hits(&self) -> u64 {
        self.hooks.memo_hits
    }

    /// Plans whose join was seeded from a memoized prefix.
    pub fn subplans_reused(&self) -> u64 {
        self.hooks.reused
    }

    /// Replaces the tuple scorer the any-k stream ranks answers with
    /// (default: [`CatalogScorer`] over the mediator's universe). Must be
    /// called before the first [`QuerySession::next_tuple`] pull — the
    /// scorer is fixed once streaming starts.
    pub fn with_tuple_scorer(mut self, scorer: impl TupleScorer + 's) -> Self {
        debug_assert!(
            self.hooks.scorer().is_none(),
            "scorer fixed once streaming starts"
        );
        self.pending_scorer = Some(Box::new(scorer));
        self
    }

    /// Tuples delivered by [`QuerySession::next_tuple`] so far.
    pub fn tuples_emitted(&self) -> u64 {
        self.hooks.delivered()
    }

    /// Distinct answers accumulated so far: every executed plan's,
    /// exactly. Plans [`QuerySession::next_tuple`] pulled and did not join
    /// are joined first, in emission order, each at most once. The run
    /// keeps the answers hashed; the sorted view is built on the first
    /// call after a step or a join.
    pub fn answers(&mut self) -> &BTreeSet<Tuple> {
        self.join_deferred();
        let run = self.run.as_ref();
        (self.sorted).get_or_insert_with(|| run.map(RunState::answers).unwrap_or_default())
    }

    /// Joins the plans `next_tuple` left unjoined into the run's answer
    /// set, in emission order, and puts the count on the board.
    fn join_deferred(&mut self) {
        let Some(run) = &mut self.run else {
            return;
        };
        if self.deferred.is_empty() {
            return;
        }
        for (seq, plan, ticket) in self.deferred.drain(..) {
            run.insert_answers(seq, &self.core.join_deferred(&plan, ticket));
        }
        self.sorted = None;
        let answers = run.answer_count() as u64;
        self.obs
            .sessions
            .update(self.board_id, |e| e.answers = answers);
    }

    /// Plans emitted so far (sound or not).
    pub fn plans_emitted(&self) -> usize {
        self.run.as_ref().map_or(0, RunState::popped)
    }

    /// Cost spent so far — negated utility, summed over the plans that
    /// were *attempted* (executed or failed); unsound candidates are
    /// discarded without execution and spend nothing.
    pub fn spent(&self) -> f64 {
        self.run.as_ref().map_or(0.0, RunState::spent)
    }

    /// Pulls, soundness-tests, and (if sound) executes and joins the next
    /// best plan. Returns `None` when the plan space is exhausted.
    ///
    /// Once tuple streaming has started (see
    /// [`QuerySession::next_tuple`]), plans pulled here come from its
    /// score-bound schedule and attach their ranked tuple stream to the
    /// session's any-k merge; the plans `next_tuple` left unjoined are
    /// joined first, so the report's `new_tuples` and `cumulative` are
    /// exact.
    pub fn next_report(&mut self) -> Option<PlanReport> {
        self.join_deferred();
        self.pull(StopCondition::unbounded())
    }

    /// What a pull is: one [`QuerySession::step`] under `budget`, which
    /// joins its plan, and the plan's report.
    fn pull(&mut self, budget: StopCondition) -> Option<PlanReport> {
        let (execution, ticket) = self.step(budget, false)?;
        let PlanExecution {
            ordered, status, ..
        } = execution;
        let sound = status != PlanStatus::Unsound;
        let (new_tuples, failure) = match status {
            PlanStatus::Executed { new_tuples, .. } => (new_tuples, None),
            PlanStatus::Failed(reason) => (0, Some(reason)),
            PlanStatus::Unsound => (0, None),
        };
        let query =
            (ticket.query).unwrap_or_else(|| self.prepared.reformulation.plan_query(&ordered.plan));
        Some(PlanReport {
            sources: self.prepared.reformulation.plan_sources(&ordered.plan),
            ordered,
            query,
            sound,
            soundness_error: ticket.soundness_error,
            failure,
            new_tuples,
            cumulative: self.run.as_ref().map_or(0, RunState::answer_count),
        })
    }

    /// One step of the run — begun here, the first time — under `budget`,
    /// with the plan scheduled deferred if `defer`, then everything the
    /// session keeps per plan: its histograms and the board entry. Returns
    /// the plan's execution and its ticket.
    fn step(&mut self, budget: StopCondition, defer: bool) -> Option<(PlanExecution, Ticket)> {
        // The executor view is rebuilt per pull: it borrows the core.
        let policy = RuntimePolicy::serial();
        let executor = self.core.executor(policy, self.obs);
        let run = self
            .run
            .get_or_insert_with(|| executor.begin(self.orderer.as_ref()));
        self.hooks.defer = defer;
        // No tuple leaves the gate inside a step: only `next_tuple`
        // releases, between steps.
        let execution = executor.step(run, self.orderer.as_mut(), budget, &mut self.hooks)?;
        self.sorted = None;
        // At lookahead 1 the step merged exactly this plan.
        let ticket = self.hooks.merged.take().unwrap_or_default();
        let (seq, latency, plan) = (execution.seq, execution.latency, &execution.ordered.plan);
        if self.hooks.scorer().is_none() {
            self.emitted_unstreamed.push(plan.clone());
        }
        let elapsed_ms = self.opened.elapsed().as_secs_f64() * 1e3;
        if seq == 0 {
            self.time_to_first_plan.record(elapsed_ms);
        }
        self.time_to_plan.record(elapsed_ms);
        // `RunProfile::critical_plan`'s rule: largest latency, earliest
        // on ties, never a zero-latency plan.
        if latency > self.bounding_plan.as_ref().map_or(0.0, |(l, _)| *l) {
            self.bounding_plan = Some((latency, encode_plan(plan)));
        }
        self.obs.sessions.update(self.board_id, |e| {
            e.plans_emitted = seq + 1;
            e.answers = run.answer_count() as u64;
            e.spent = run.spent();
            e.time_to_first_plan_ms.get_or_insert(elapsed_ms);
            e.memo_hits = self.hooks.memo_hits;
            e.subplans_reused = self.hooks.reused;
            e.critical_path = run.clock();
            e.bounding_plan = self.bounding_plan.as_ref().map(|(_, p)| p.clone());
        });
        Some((execution, ticket))
    }

    /// Pulls the next answer of the globally ranked any-k stream: the
    /// best undelivered tuple across every plan attached so far, delivered
    /// only once its score strictly clears the bound of every plan not
    /// pulled yet (so the stream is non-increasing even though most of the
    /// plan space is still pending). A plan's bound sums, per subgoal, the
    /// catalog's bound for its source — or, once an attached plan has read
    /// that source, the best score among its rows. Plans pulled by
    /// `next_report` before the first tuple pull never attach and never
    /// hold the gate. Release, else one more step of the run — fully
    /// accounted, exactly like `next_report` — for as long as the gate
    /// requires; returns `None` when every plan is in and the merge is
    /// drained.
    ///
    /// The first tuple pull also changes what schedules the session's
    /// plans: from then on — here and in `next_report` — the next plan is
    /// the one with the best catalog bound among those not pulled yet
    /// (the orderer's `algorithm_name` is `"score-bound"`, and a report's
    /// utility is that bound): the plans whose tuples could score highest
    /// run first. The measure and strategy the session was opened with
    /// order only the plans pulled before it, and every session that
    /// never streams.
    ///
    /// A pull is one step at lookahead 1: a plan's stream attaches when it
    /// is scheduled and, unless the plan executes (unsound, failed), is
    /// evicted when it merges — both inside the step, while release
    /// happens only between steps. So an evicted stream has delivered
    /// nothing, and no delivered tuple is ever retracted.
    ///
    /// The plans pulled here are joined once, by their ranked streams: the
    /// step does not also join them into the answer set, and the session
    /// keeps what each executed plan fetched until
    /// [`QuerySession::answers`], [`QuerySession::drain`] or
    /// [`QuerySession::next_report`] joins it (module docs).
    pub fn next_tuple(&mut self) -> Option<RankedTuple> {
        if self.hooks.scorer().is_none() {
            let scorer = self
                .pending_scorer
                .take()
                .unwrap_or_else(|| Box::new(CatalogScorer::new(self.mediator.universe())));
            let gate = self.hooks.stream(scorer, &self.emitted_unstreamed);
            self.orderer = Box::new(ScoreBoundOrder::new(gate));
        }
        loop {
            let clock = self.run.as_ref().map_or(0.0, RunState::clock);
            if let Some(rt) = self.hooks.release(clock) {
                let k = self.hooks.delivered();
                self.obs.sessions.update(self.board_id, |e| {
                    e.tuples_emitted = k;
                    let plans = self.plans_emitted() as u64;
                    e.plans_before_first_tuple.get_or_insert(plans);
                });
                return Some(rt);
            }
            if !self.hooks.gated() {
                return None; // every plan attached, merge drained
            }
            // The schedule walks the gate's own plans: while one is
            // behind the gate, there is a plan to pull.
            let (execution, ticket) = self.step(StopCondition::unbounded(), true)?;
            if execution.executed() {
                let PlanExecution { seq, ordered, .. } = execution;
                self.deferred.push((seq, ordered.plan, ticket));
            }
        }
    }

    /// The iterator form of [`QuerySession::next_tuple`]: the globally
    /// ranked anytime answer stream.
    pub fn stream_tuples(&mut self) -> Box<dyn Iterator<Item = RankedTuple> + '_> {
        Box::new(std::iter::from_fn(move || self.next_tuple()))
    }

    /// Steps the run until `stop` is satisfied or the plan space is
    /// exhausted: the condition is checked *before* each pop against the
    /// session-cumulative answer count, emission count, and spent cost —
    /// the loop's budget rule at `lookahead = 1`, after the plans
    /// [`QuerySession::next_tuple`] left unjoined are joined. Returns the
    /// reports emitted by this call and a snapshot of the cumulative
    /// answer set.
    pub fn drain(&mut self, stop: StopCondition) -> MediatorRun {
        self.join_deferred();
        let mut reports = Vec::new();
        while let Some(report) = self.pull(stop) {
            reports.push(report);
        }
        MediatorRun {
            reports,
            answers: self.run.as_ref().map(RunState::answers).unwrap_or_default(),
        }
    }
}

impl Drop for QuerySession<'_> {
    /// Seals the run — its `run_finished` carries the serial clock as the
    /// makespan, like any run's — and marks the session closed on the
    /// board (retained there for post-mortem inspection until the
    /// closed-entry cap evicts it).
    fn drop(&mut self) {
        if let Some(run) = &mut self.run {
            run.finish();
        }
        self.obs.sessions.close(self.board_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_utility::{Coverage, LinearCost};
    use std::sync::Arc;

    fn mediator() -> Mediator {
        Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
    }

    #[test]
    fn session_pulls_plans_best_first() {
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
        let mut utilities = Vec::new();
        while let Some(r) = s.next_report() {
            utilities.push(r.ordered.utility);
        }
        assert_eq!(utilities.len(), 9);
        assert_eq!(s.plans_emitted(), 9);
        for w in utilities.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(!s.answers().is_empty());
    }

    #[test]
    fn drain_respects_stop_between_calls() {
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::Pi).unwrap();
        let first = s.drain(StopCondition {
            max_plans: Some(3),
            ..StopCondition::default()
        });
        assert_eq!(first.reports.len(), 3);
        // max_plans counts session-cumulative emissions: the same stop
        // condition is already satisfied, so a second drain is empty.
        let again = s.drain(StopCondition {
            max_plans: Some(3),
            ..StopCondition::default()
        });
        assert!(again.reports.is_empty());
        let rest = s.drain(StopCondition::unbounded());
        assert_eq!(rest.reports.len(), 6, "the remaining plan space");
        assert_eq!(s.plans_emitted(), 9);
    }

    #[test]
    fn session_metrics_land_on_the_mediator_registry() {
        let obs = qpo_obs::Obs::new();
        let m = mediator().with_obs(&obs);
        let prepared = m.prepare(&movie_query()).unwrap();
        let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
        s.next_report().unwrap();
        s.next_report().unwrap();
        let labels = [("strategy", "greedy")];
        assert_eq!(obs.registry.counter_value("qpo_sessions_total", &labels), 1);
        assert_eq!(
            obs.registry
                .histogram("qpo_session_time_to_first_plan_ms", &labels)
                .count(),
            1
        );
        assert_eq!(
            obs.registry
                .histogram("qpo_session_time_to_plan_ms", &labels)
                .count(),
            2
        );
    }

    #[test]
    fn sessions_register_on_the_board_and_close_on_drop() {
        let obs = qpo_obs::Obs::new();
        let m = mediator().with_obs(&obs);
        let prepared = m.prepare(&movie_query()).unwrap();
        {
            let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
            s.next_report().unwrap();
            s.next_report().unwrap();
            let entries = obs.sessions.entries();
            assert_eq!(entries.len(), 1);
            let e = &entries[0];
            assert_eq!(e.strategy, "greedy");
            assert_eq!(e.plan_space, 9);
            assert_eq!(e.plans_emitted, 2);
            assert!(e.time_to_first_plan_ms.is_some());
            assert!(!e.closed);
        }
        let entries = obs.sessions.entries();
        assert!(entries[0].closed, "drop closes the board entry");
    }

    #[test]
    fn session_traces_validate_and_carry_encoded_plans() {
        let obs = qpo_obs::Obs::with_trace();
        let m = mediator().with_obs(&obs);
        let prepared = m.prepare(&movie_query()).unwrap();
        let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips).unwrap();
        while s.next_report().is_some() {}
        drop(s);
        let jsonl = obs.journal.to_jsonl();
        let report = qpo_obs::validate_trace(&jsonl).expect("session trace is well-formed");
        assert_eq!(report.spans_opened, 9);
        assert_eq!(report.spans_closed, 9);
        assert_eq!(report.counts["run_started"], 1);
        assert!(
            jsonl.contains("\"plan\":\""),
            "plan_emitted carries the plan"
        );
        // A second session on the same journal restarts the virtual clock
        // legally (the run_started marker resets the baseline).
        let mut s2 = QuerySession::new(&m, &prepared, &Coverage, Strategy::Pi).unwrap();
        s2.next_report().unwrap();
        drop(s2);
        qpo_obs::validate_trace(&obs.journal.to_jsonl()).expect("multi-run trace still validates");
    }

    #[test]
    fn store_backed_session_matches_the_extensions() {
        use crate::backends::{snapshot_relations, BackendRegistry};
        let dir = std::env::temp_dir().join(format!("qpo-session-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = qpo_runtime::StoreBackend::open(&dir).unwrap();
        let m = mediator();
        for (name, rows) in snapshot_relations(m.database()) {
            store.put_relation(&name, &rows).unwrap();
        }
        let m = m.with_backends(BackendRegistry::new().with("store", Arc::new(store)));
        let prepared = m.prepare(&movie_query()).unwrap();
        let plain = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
            .unwrap()
            .drain(StopCondition::unbounded());
        let mut backed = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
            .unwrap()
            .with_backend("store")
            .unwrap();
        let backed_run = backed.drain(StopCondition::unbounded());
        assert_eq!(plain.answers, backed_run.answers);
        assert_eq!(plain.reports.len(), backed_run.reports.len());
        // "sim" is a no-op attach; unknown labels fail fast.
        let s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
        assert!(s.with_backend("sim").is_ok());
        let s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
        let err = s.with_backend("nope").err().unwrap();
        assert!(matches!(err, MediatorError::Backend(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shared_memo_does_not_outlive_a_backend_write() {
        use crate::backends::{snapshot_relations, BackendRegistry};
        use qpo_runtime::StoreBackend;
        let dir = std::env::temp_dir().join(format!("qpo-session-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = mediator();
        let store = Arc::new(StoreBackend::open(&dir).unwrap());
        let relations = snapshot_relations(m.database());
        for (name, rows) in &relations {
            store.put_relation(name, rows).unwrap();
        }
        let m = m.with_backends(BackendRegistry::new().with("store", store.clone()));
        let prepared = m.prepare(&movie_query()).unwrap();
        let memo = ExecutionMemo::new();
        let session = |memo: Option<&ExecutionMemo>| {
            let s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
                .unwrap()
                .with_backend("store")
                .unwrap();
            match memo {
                Some(memo) => s.with_memo(memo),
                None => s,
            }
            .drain(StopCondition::unbounded())
        };
        let before = session(Some(&memo));
        assert!(!before.answers.is_empty());
        assert!(
            !memo.subplans.is_empty(),
            "the first session memoized joins"
        );
        // A write between two sessions sharing the memo: every review
        // source loses its rows, so no plan can answer any more.
        for (name, _) in &relations {
            if ["v4", "v5", "v6"].contains(&name.as_str()) {
                store.put_relation(name, &[]).unwrap();
            }
        }
        let after = session(Some(&memo));
        assert_eq!(after.answers, session(None).answers, "memo vs fresh");
        assert!(
            after.answers.is_empty(),
            "answers come from the rows written, not the prefixes memoized"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn learning_a_tcp_backends_epoch_is_not_a_write() {
        use crate::backends::{snapshot_relations, BackendRegistry};
        use qpo_runtime::{MemProvider, SourceBackend, SourceServer, TcpBackend};
        let m = mediator();
        let provider = MemProvider::new();
        let relations = snapshot_relations(m.database());
        for (name, rows) in &relations {
            provider.insert(name.clone(), rows.clone());
        }
        let mut server = SourceServer::serve(Arc::new(provider), 0).unwrap();
        let tcp = Arc::new(TcpBackend::new(server.addr().to_string()));
        let m = m.with_backends(BackendRegistry::new().with("tcp", tcp.clone()));
        let prepared = m.prepare(&movie_query()).unwrap();
        let memo = ExecutionMemo::new();
        assert_eq!(tcp.epoch(), 0, "no response observed yet");
        let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
            .unwrap()
            .with_backend("tcp")
            .unwrap()
            .with_memo(&memo);
        // The first response teaches the backend the server's epoch. That
        // is the version the session started on: the next pull keeps the
        // first plan's rows and the prefixes it memoized.
        s.next_report().unwrap();
        assert_ne!(tcp.epoch(), 0);
        let memoized = memo.subplans.len();
        assert!(memoized > 0, "the first plan memoized its joins");
        s.next_report().unwrap();
        assert!(memo.subplans.len() >= memoized, "nothing was wiped");
        s.drain(StopCondition::unbounded());
        assert_eq!(
            server.requests_served(),
            relations.len() as u64,
            "every source fetched once"
        );
        server.stop();
    }

    /// A session over a data-serving backend whose first plan's first
    /// source fails its first `outages` accesses, then heals.
    fn flaky_session(outages: u32, check: impl FnOnce(QuerySession<'_>, &str, &Obs)) {
        use crate::backends::BackendRegistry;
        use crate::core::tests::RowsBackend;
        let obs = Obs::with_trace();
        let m = mediator().with_obs(&obs);
        let prepared = m.prepare(&movie_query()).unwrap();
        let first = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
            .unwrap()
            .next_report()
            .unwrap();
        assert!(first.new_tuples > 0, "the extensions answer the first plan");
        let mut backend = RowsBackend::seeded(&m);
        backend.flaky = first.sources[0].clone();
        backend.outages = outages.into();
        let m = m.with_backends(BackendRegistry::new().with("rows", Arc::new(backend)));
        let session = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
            .unwrap()
            .with_backend("rows")
            .unwrap();
        check(session, &first.sources[0], &obs);
    }

    #[test]
    fn a_backend_outage_is_retried_within_the_pull() {
        flaky_session(1, |mut s, _, obs| {
            let plain = mediator()
                .answer_until(
                    &movie_query(),
                    &LinearCost,
                    Strategy::Greedy,
                    StopCondition::unbounded(),
                )
                .unwrap();
            let report = s.next_report().unwrap();
            assert!(report.sound && report.failure.is_none());
            assert_eq!(
                report.new_tuples, plain.reports[0].new_tuples,
                "the rows arrived on the second attempt"
            );
            assert_eq!(s.drain(StopCondition::unbounded()).answers, plain.answers);
            drop(s);
            let trace = qpo_obs::validate_trace(&obs.journal.to_jsonl()).unwrap();
            assert_eq!(trace.count("plan_failed"), 0);
            let errors = [("backend", "rows-test"), ("class", "transient")];
            let errors = obs
                .registry
                .counter_value("qpo_backend_errors_total", &errors);
            assert_eq!(errors, 1, "the outage is counted, not swallowed");
        });
    }

    #[test]
    fn exhausted_retries_fail_the_plan_and_the_session_carries_on() {
        use qpo_runtime::FailureReason;
        flaky_session(RuntimePolicy::serial().max_attempts, |mut s, flaky, obs| {
            let failed = s.next_report().unwrap();
            let reason = FailureReason::RetriesExhausted {
                source: flaky.to_string(),
            };
            assert_eq!(failed.failure, Some(reason));
            assert!(failed.sound, "a failed plan passed the soundness test");
            assert_eq!((failed.new_tuples, failed.cumulative), (0, 0));
            assert_eq!(s.spent(), -failed.ordered.utility, "an attempt is paid for");
            // The backend has healed: the next pull proceeds, and a later
            // plan through the same source gets its rows.
            let rest = s.drain(StopCondition::unbounded());
            assert!(rest.reports.iter().all(|r| r.failure.is_none()));
            assert!(rest.reports.iter().any(|r| r.sources[0] == flaky));
            assert!(!rest.answers.is_empty());
            assert_eq!(rest.executed() + rest.discarded(), rest.reports.len());
            drop(s);
            // The failure is in the trace, once.
            let trace = qpo_obs::validate_trace(&obs.journal.to_jsonl()).unwrap();
            assert_eq!(trace.count("plan_failed"), 1);
        });
    }

    /// Session A streams `k` tuples and reads `answers()` once, at the
    /// end; session B reads it after every tuple, which joins each plan as
    /// soon as it is pulled, as the eager path would. `open(i)` opens
    /// the `i`-th of the `SESSIONS` sessions, each on a backend of its own
    /// where one keeps state.
    fn joined_late_equals_joined_at_once<'a>(open: impl Fn(usize) -> QuerySession<'a>) {
        for (i, k) in [1, 4, usize::MAX].into_iter().enumerate() {
            let open = |j| open(4 * i + j);
            let (mut late, mut at_once) = (open(0), open(1));
            let streamed: Vec<RankedTuple> = late.stream_tuples().take(k).collect();
            let mut joined = Vec::new();
            while joined.len() < k {
                let Some(rt) = at_once.next_tuple() else {
                    break;
                };
                joined.push(rt);
                at_once.answers();
            }
            assert!(!streamed.is_empty());
            assert_eq!(streamed, joined, "k={k}: the ranked stream");
            assert_eq!(late.plans_emitted(), at_once.plans_emitted(), "k={k}");
            let answers = late.answers().clone();
            assert_eq!(&answers, at_once.answers(), "k={k}: joined late vs at once");
            assert!(streamed.iter().all(|rt| answers.contains(&rt.tuple)));
            // The first report after the stream counts every answer.
            let (mut after, mut reference) = (open(2), open(3));
            after.stream_tuples().take(k).for_each(drop);
            reference.stream_tuples().take(k).for_each(drop);
            if let Some(report) = after.next_report() {
                assert_eq!(report.cumulative, after.answers().len(), "k={k}");
                reference.answers();
                let eager = reference.next_report().unwrap();
                assert_eq!(report.new_tuples, eager.new_tuples, "k={k}");
                assert_eq!(report.cumulative, eager.cumulative, "k={k}");
            }
        }
    }

    /// Sessions `joined_late_equals_joined_at_once` opens.
    const SESSIONS: usize = 12;

    #[test]
    fn a_streamed_plan_joined_late_adds_what_it_would_have_at_once() {
        use crate::backends::{snapshot_relations, BackendRegistry};
        use crate::core::tests::RowsBackend;
        use qpo_runtime::{SourceBackend, StoreBackend};
        fn stream<'a>(m: &'a Mediator, prepared: &'a PreparedQuery) -> QuerySession<'a> {
            QuerySession::new(m, prepared, &LinearCost, Strategy::Greedy).unwrap()
        }
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        // Over the extensions.
        joined_late_equals_joined_at_once(|_| stream(&m, &prepared));
        // Over a store that serves more than the extensions: each relation
        // has one more row, its first with a fresh last value. A plan
        // joined late joins the rows it fetched, so a whole stream read
        // late answers what a drained session over the store does.
        let dir = std::env::temp_dir().join(format!("qpo-session-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreBackend::open(&dir).unwrap();
        for (name, mut rows) in snapshot_relations(m.database()) {
            let mut extra = rows[0].clone();
            *extra.last_mut().unwrap() = qpo_datalog::Constant::str("late");
            rows.push(extra);
            store.put_relation(&name, &rows).unwrap();
        }
        let stored = m
            .clone()
            .with_backends(BackendRegistry::new().with("store", Arc::new(store)));
        let open = |_| stream(&stored, &prepared).with_backend("store").unwrap();
        joined_late_equals_joined_at_once(open);
        let mut late = open(0);
        late.stream_tuples().for_each(drop);
        let drained = open(0).drain(StopCondition::unbounded()).answers;
        assert_eq!(late.answers(), &drained);
        let extensions = stream(&m, &prepared).drain(StopCondition::unbounded());
        assert!(drained.is_superset(&extensions.answers) && drained != extensions.answers);
        let _ = std::fs::remove_dir_all(&dir);
        // Over rows whose data version moves at plan 1 and whose `flaky`
        // source fails one plan outright, which invalidates the source
        // memo: each source in turn, so the failure lands after plans
        // whose join waits. Every session gets a fresh backend.
        let sources = RowsBackend::seeded(&m).relations.into_keys();
        for flaky in sources {
            let rows = |_| {
                let mut backend = RowsBackend::seeded(&m);
                backend.flaky = flaky.clone();
                backend.outages = RuntimePolicy::serial().max_attempts.into();
                backend.moves_at = Some(1);
                Arc::new(backend)
            };
            let backends: Vec<Arc<RowsBackend>> = (0..SESSIONS).map(rows).collect();
            let labels: Vec<String> = (0..SESSIONS).map(|i| i.to_string()).collect();
            let registry = (labels.iter().zip(&backends))
                .fold(BackendRegistry::new(), |r, (label, b)| {
                    r.with(label, b.clone())
                });
            let m = m.clone().with_backends(registry);
            let open = |i: usize| stream(&m, &prepared).with_backend(&labels[i]).unwrap();
            joined_late_equals_joined_at_once(open);
            let whole = &backends[8];
            assert_eq!(whole.epoch(), 1, "{flaky}: the version moved");
        }
    }

    #[test]
    fn spent_counts_only_sound_plans() {
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy).unwrap();
        let mut expected = 0.0;
        while let Some(r) = s.next_report() {
            if r.sound {
                expected += -r.ordered.utility;
            }
        }
        assert!((s.spent() - expected).abs() < 1e-12);
    }
}
