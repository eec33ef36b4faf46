//! The per-plan execution core and its hooks: what happens to *one* plan
//! between the orderer and the answer set, implemented once and stepped
//! by the one loop ([`Executor`](qpo_runtime::Executor)) — inline, one
//! pull at a time, under a [`QuerySession`](crate::QuerySession); in
//! waves, with helper threads while accesses wait, under
//! [`Mediator::run`](crate::Mediator::run).
//!
//! A plan's own state is its [`Ticket`], which travels with it: created
//! at the pop, filled by the hooks at schedule, carried by the plan's job
//! to whichever thread executes it, and back to the hooks at merge.
//!
//! [`PlanCore`] owns the step itself: the soundness verdict (and the
//! error behind a missing one), the rows each body atom reads — the
//! static extensions, or what the loop hands it for that slot: the rows a
//! data-serving backend returned under the subgoal's binding pattern, live
//! or replayed from the [`SourceMemo`] entry beside their outcome — and
//! the seeded join over them. It makes no access and keeps no rows or
//! plans of its own, only the [`SourceMemo`] the loop consults. It is the
//! crate's only [`PlanEvaluator`]. A plan scheduled *deferred* — one a
//! session's `next_tuple` pulls for its ranked stream — is not joined in
//! its step: its ticket keeps the row handles its accesses fetched, and
//! [`PlanCore::join_deferred`] joins it from them when the session's
//! answer set is read.
//!
//! [`Hooks`] own what surrounds the step on the coordinating thread, and
//! are the crate's only [`WaveObserver`]: an optional *sharing* part
//! (longest memoized prefix looked up when the plan is scheduled,
//! captured prefixes promoted when it merges, `subplan_reused` and the
//! memo counters) and an optional *any-k* part (the plan's ranked stream
//! attached at schedule and evicted at merge unless it executed, the
//! scored levels those streams share, and the release gate: a `(bucket,
//! source)` table of score bounds each attach tightens to what the rows it
//! read can still score). Only a [`QuerySession`](crate::QuerySession)
//! streams; an untightened copy of the gate is its plan schedule from
//! then on, and release is its pull: [`Hooks::release`] hands out the next
//! tuple the gate lets through, between steps, so every attached plan has
//! merged and a released tuple is never retracted. Both parts consult and
//! mutate shared state on the coordinating thread only (lookups in pop
//! order, promotions and tightenings in emission order), so a run stays
//! bit-identical across worker counts. Only the loop reads the backend's
//! data version; the sharing part keeps the subplan memo on the source
//! memo's.

use crate::anyk::{ranked_join, LevelKeys};
use crate::mediator::Mediator;
use crate::sharing::{ExecutionMemo, SubplanMemo};
use qpo_anyk::{encode_tuple, AnyKMerge, LevelCache, RankedTuple, ReleaseGate, TupleScorer};
use qpo_core::OrderedPlan;
use qpo_datalog::{
    evaluate_slots, is_sound_plan, ConjunctiveQuery, Database, ExpansionError, JoinPrefix,
    PrefixRows, SourceDescription, Tuple,
};
use qpo_obs::{encode_plan, Counter, Gauge, Obs, Value};
use qpo_reformulation::PreparedQuery;
use qpo_runtime::{
    BindingPattern, Executor, PlanEvaluator, PlanExecution, RuntimePolicy, SourceBackend,
    SourceGrid, SourceMemo, WaveObserver,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// `source name → description`, the form plan expansion reads.
pub(crate) type ViewMap = BTreeMap<Arc<str>, SourceDescription>;

/// The rows one access returned, shared uncopied.
type Rows = Arc<Vec<Tuple>>;

/// One plan's state from pop to merge ([`PlanEvaluator::Ticket`]).
#[derive(Default)]
pub(crate) struct Ticket {
    /// The plan query, assembled by whoever needs it first: the hooks at
    /// schedule, else the soundness test on the executing thread.
    pub(crate) query: Option<ConjunctiveQuery>,
    /// The memoized prefix the join starts from, until it does.
    seed: Option<JoinPrefix>,
    /// The error of a soundness test that itself failed.
    pub(crate) soundness_error: Option<ExpansionError>,
    /// The prefixes the join captured past the seed, once the sharing part
    /// asked for them (`Some`) at schedule.
    captured: Option<Vec<JoinPrefix>>,
    /// `Some` once the hooks scheduled the plan deferred: `evaluate` keeps
    /// the rows its accesses fetched here instead of joining them.
    deferred: Option<Vec<Option<Rows>>>,
}

impl Ticket {
    /// The plan query, assembled on first ask.
    fn query(&mut self, prepared: &PreparedQuery, plan: &[usize]) -> &ConjunctiveQuery {
        (self.query).get_or_insert_with(|| prepared.reformulation.plan_query(plan))
    }
}

/// The per-plan step; see the module docs.
pub(crate) struct PlanCore<'a> {
    pub(crate) prepared: &'a PreparedQuery,
    pub(crate) db: &'a Database,
    pub(crate) view_map: &'a ViewMap,
    soundness_tests: Counter,
    soundness_errors: Counter,
    /// The source grid and `patterns[bucket][index]` — the binding pattern
    /// of that bucket entry's plan atom, what its access ships and is
    /// memoized under. Built on first use: a session on the extensions
    /// makes no source access and never pays for either.
    access: OnceLock<(SourceGrid, Vec<Vec<Arc<str>>>)>,
    /// The remote world the loop accesses for this core, if any.
    backend: Option<Arc<dyn SourceBackend>>,
    /// The source memo the loop consults on the backend's accesses.
    pub(crate) memo: Option<SourceMemo>,
}

impl<'a> PlanCore<'a> {
    pub(crate) fn new(mediator: &'a Mediator, prepared: &'a PreparedQuery, obs: &Obs) -> Self {
        PlanCore {
            prepared,
            db: mediator.database(),
            view_map: mediator.view_map(),
            soundness_tests: obs.registry.counter("qpo_soundness_tests_total", &[]),
            soundness_errors: obs.registry.counter("qpo_soundness_test_errors_total", &[]),
            access: OnceLock::new(),
            backend: None,
            memo: None,
        }
    }

    /// Executes against `backend`, joining its rows instead of the static
    /// extensions, and says whether it does: the simulator (any backend of
    /// kind `"sim"`) holds no data and leaves the core on the extensions,
    /// bit-identical to an unbackended one.
    pub(crate) fn serve_from(&mut self, backend: Arc<dyn SourceBackend>) -> bool {
        self.backend = Some(backend);
        self.serves_data()
    }

    fn serves_data(&self) -> bool {
        (self.backend.as_ref()).is_some_and(|backend| backend.kind() != "sim")
    }

    /// The loop over this core: accesses go to its backend through its
    /// source memo; without a backend there are none.
    pub(crate) fn executor<'c>(
        &'c self,
        policy: RuntimePolicy,
        obs: &'c Obs,
    ) -> Executor<'c, Self> {
        let Some(backend) = &self.backend else {
            return Executor::local(self, policy).with_obs(obs);
        };
        let executor = Executor::new(&self.access().0, self, policy)
            .with_backend(Arc::clone(backend))
            .with_obs(obs);
        match &self.memo {
            Some(memo) => executor.with_source_memo(memo),
            None => executor,
        }
    }

    fn access(&self) -> &(SourceGrid, Vec<Vec<Arc<str>>>) {
        self.access.get_or_init(|| {
            let pattern = |entry: &qpo_reformulation::BucketEntry| {
                BindingPattern::of_atom(&entry.atom).to_string().into()
            };
            let patterns = self.prepared.reformulation.buckets.iter();
            (
                SourceGrid::from_instance(&self.prepared.instance),
                patterns.map(|b| b.iter().map(pattern).collect()).collect(),
            )
        })
    }

    /// Joins `plan_query` from `seed`, returning its answers (flat, as they
    /// leave the join) and the prefixes captured past the seed: over the
    /// extensions, or over the backend's rows in place — slot `i` feeds
    /// body atom `i`, which applies its own constants to whatever superset
    /// was shipped; slots the seed covers are never read. The backend is
    /// the only authority: `fetched[bucket]` is what it returned for that
    /// access, live or from the memo. (A backend that serves no rows for a
    /// slot — a simulator behind another kind — defers to the extensions.)
    pub(crate) fn join(
        &self,
        plan_query: &ConjunctiveQuery,
        fetched: &[Option<Rows>],
        seed: Option<&JoinPrefix>,
    ) -> (PrefixRows, Vec<JoinPrefix>) {
        if !self.serves_data() {
            return self.db.evaluate_rows(plan_query, seed);
        }
        let covered = seed.map_or(0, |s| s.len);
        let atoms = plan_query.body.iter().enumerate();
        let slots: Vec<Rows> = atoms
            .map(|(bucket, atom)| match fetched.get(bucket) {
                _ if bucket < covered => Arc::default(),
                Some(Some(rows)) => rows.clone(),
                _ => Arc::new(self.db.tuples(&atom.predicate).cloned().collect()),
            })
            .collect();
        let slices: Vec<&[Tuple]> = slots.iter().map(|rows| rows.as_slice()).collect();
        evaluate_slots(plan_query, seed, &slices)
    }

    /// Joins an executed plan `evaluate` left unjoined, from what its
    /// ticket kept: the plan query, the memo seed and the rows its own
    /// accesses fetched. So it answers what the join in its step would
    /// have, whatever the memo or the backend's data version did since.
    pub(crate) fn join_deferred(&self, plan: &[usize], mut ticket: Ticket) -> PrefixRows {
        let fetched = ticket.deferred.take().unwrap_or_default();
        (self.evaluate(plan, &fetched, &mut ticket)).unwrap_or_default()
    }
}

impl PlanEvaluator for PlanCore<'_> {
    type Ticket = Ticket;

    /// The prepared query's verdict on `plan`: tested (and counted) the
    /// first time any run or session over the entry asks, remembered by
    /// it thereafter. A test that itself failed reads as unsound; its
    /// error is reported and counted every time, remembered or not.
    fn is_sound(&self, plan: &[usize], ticket: &mut Ticket) -> bool {
        let plan_query = ticket.query(self.prepared, plan);
        let query = &self.prepared.reformulation.query;
        let verdict = self.prepared.verdict(plan, || {
            self.soundness_tests.inc();
            is_sound_plan(plan_query, self.view_map, query)
        });
        verdict.unwrap_or_else(|error| {
            self.soundness_errors.inc();
            ticket.soundness_error = Some(error);
            false
        })
    }

    /// Joins the plan — or, scheduled deferred, keeps the handles of the
    /// rows it fetched in its ticket and answers "not joined".
    fn evaluate(
        &self,
        plan: &[usize],
        fetched: &[Option<Rows>],
        ticket: &mut Ticket,
    ) -> Option<PrefixRows> {
        if let Some(kept) = &mut ticket.deferred {
            *kept = fetched.to_vec();
            return None;
        }
        let seed = ticket.seed.take();
        let plan_query = ticket.query(self.prepared, plan);
        let (answers, prefixes) = self.join(plan_query, fetched, seed.as_ref());
        if let Some(captured) = &mut ticket.captured {
            *captured = prefixes;
        }
        Some(answers)
    }

    fn access_pattern(&self, plan: &[usize], bucket: usize) -> &str {
        &self.access().1[bucket][plan[bucket]]
    }
}

struct Sharing {
    memo: ExecutionMemo,
    hits: Counter,
    misses: Counter,
    bytes: Gauge,
}

impl Sharing {
    /// The subplan memo, first kept on the data version the loop synced
    /// the source memo to: prefixes of an older version's rows are dropped.
    fn subplans(&self) -> &SubplanMemo {
        let memo = &self.memo;
        memo.subplans
            .sync_backend_epoch(memo.sources.backend_epoch());
        &memo.subplans
    }
}

struct Stream<'a> {
    scorer: Box<dyn TupleScorer + 'a>,
    merge: AnyKMerge,
    /// Holds a head back while a plan not emitted yet could beat it: an
    /// entry starts at the catalog's `atom_bound`, and an attaching plan
    /// lowers each `(bucket, source)` it reads to the best score there.
    gate: ReleaseGate,
    /// The scored levels of a stream without a shared memo, so a `(bucket,
    /// source)` is scanned, scored and sorted once, not once per plan.
    levels: LevelCache,
    /// The key each `(bucket, source)` level is cached under.
    keys: LevelKeys,
}

/// What surrounds the per-plan step on the coordinating thread; see the
/// module docs.
pub(crate) struct Hooks<'a> {
    obs: &'a Obs,
    db: &'a Database,
    prepared: &'a PreparedQuery,
    sharing: Option<Sharing>,
    stream: Option<Stream<'a>>,
    /// Memoized lookups that hit: subplan prefixes plus shared any-k
    /// levels.
    pub(crate) memo_hits: u64,
    /// Plans seeded from a memoized prefix.
    pub(crate) reused: u64,
    /// The ticket of the plan merged last, for a session to report from.
    pub(crate) merged: Option<Ticket>,
    /// Schedule plans deferred: a session's `next_tuple` sets it for the
    /// plans it pulls for its stream.
    pub(crate) defer: bool,
}

impl<'a> Hooks<'a> {
    pub(crate) fn new(obs: &'a Obs, db: &'a Database, prepared: &'a PreparedQuery) -> Self {
        Hooks {
            obs,
            db,
            prepared,
            sharing: None,
            stream: None,
            memo_hits: 0,
            reused: 0,
            merged: None,
            defer: false,
        }
    }

    /// Turns the sharing part on over `memo`.
    pub(crate) fn share(&mut self, memo: &ExecutionMemo) {
        let labels = [("layer", "subplan")];
        let registry = &self.obs.registry;
        self.sharing = Some(Sharing {
            memo: memo.clone(),
            hits: registry.counter("qpo_memo_hits_total", &labels),
            misses: registry.counter("qpo_memo_misses_total", &labels),
            bytes: registry.gauge("qpo_memo_bytes", &labels),
        });
    }

    /// Turns the any-k part on — a session's first tuple pull does: every
    /// plan of the space starts behind the gate under `scorer`'s catalog
    /// bounds, except the `emitted` ones — pulled before streaming began,
    /// they can never attach. Returns an untightened copy of that gate:
    /// the plans still behind it, for the session to schedule best-first
    /// by bound.
    pub(crate) fn stream(
        &mut self,
        scorer: Box<dyn TupleScorer + 'a>,
        emitted: &[Vec<usize>],
    ) -> ReleaseGate {
        let buckets = self.prepared.instance.buckets.iter().enumerate();
        let table = buckets.map(|(b, bucket)| {
            let bounds = bucket.iter().map(|stats| scorer.atom_bound(b, stats));
            bounds.collect()
        });
        let mut gate = ReleaseGate::new(table.collect());
        emitted.iter().for_each(|plan| gate.leave(plan));
        let schedule = gate.clone();
        self.stream = Some(Stream {
            scorer,
            merge: AnyKMerge::new(),
            gate,
            levels: LevelCache::new(),
            keys: LevelKeys::default(),
        });
        schedule
    }

    /// The any-k part's scorer, once streaming is on.
    pub(crate) fn scorer(&self) -> Option<&dyn TupleScorer> {
        self.stream.as_ref().map(|s| s.scorer.as_ref())
    }

    /// Tuples [`Hooks::release`] has handed out.
    pub(crate) fn delivered(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| s.merge.delivered())
    }

    /// The next tuple the gate lets out — the best undelivered head, if
    /// it strictly clears the best bound of every plan not emitted yet —
    /// journalled (`tuple_emitted`) at `clock`.
    pub(crate) fn release(&mut self, clock: f64) -> Option<RankedTuple> {
        let stream = self.stream.as_mut()?;
        let rt = stream.merge.next_within(stream.gate.bound())?;
        if stream.merge.delivered() == 1 {
            let name = "qpo_anyk_plans_before_first_tuple";
            let plans = stream.gate.left() as f64;
            self.obs.registry.histogram(name, &[]).record(plans);
        }
        if self.obs.journal.is_enabled() {
            self.obs.journal.record_at(
                clock,
                "tuple_emitted",
                vec![
                    ("plan_seq", Value::U64(rt.plan_seq)),
                    ("k", Value::U64(stream.merge.delivered())),
                    ("score", Value::F64(rt.score)),
                    ("tuple", Value::Str(encode_tuple(&rt.tuple).into())),
                ],
            );
        }
        Some(rt)
    }

    /// Whether plans are still behind the gate.
    pub(crate) fn gated(&mut self) -> bool {
        (self.stream.as_mut()).is_some_and(|s| s.gate.bound().is_some())
    }
}

impl WaveObserver<Ticket> for Hooks<'_> {
    /// A plan was popped and is about to execute (its verdict is not in
    /// yet): assembles its plan query into the ticket, seeds its join from
    /// the longest memoized prefix (`subplan_reused`) and asks for what it
    /// captures, and attaches its ranked stream (`stream_attached`). With
    /// both parts off the ticket leaves empty. Scheduled deferred, the
    /// plan keeps its seed but asks for no capture: joined later, its
    /// prefixes may be of rows an older data version served.
    fn plan_scheduled(
        &mut self,
        seq: u64,
        ordered: &OrderedPlan,
        ticket: &mut Ticket,
        vclock: f64,
    ) {
        if self.sharing.is_none() && self.stream.is_none() {
            return;
        }
        let (obs, plan) = (self.obs, &ordered.plan);
        let journal = &obs.journal;
        let plan_query = ticket.query(self.prepared, plan);
        let seed = self.sharing.as_ref().and_then(|s| {
            let seed = s.subplans().longest_prefix(plan_query);
            match seed {
                Some(_) => s.hits.inc(),
                None => s.misses.inc(),
            }
            seed
        });
        if let Some(prefix) = &seed {
            self.memo_hits += 1;
            self.reused += 1;
            if journal.is_enabled() {
                journal.record_at(
                    vclock,
                    "subplan_reused",
                    vec![
                        ("plan_seq", Value::U64(seq)),
                        ("prefix_len", Value::U64(prefix.len as u64)),
                    ],
                );
            }
        }
        if let Some(stream) = &mut self.stream {
            // Level-cache lookups stay on the coordinating thread, so hit
            // counts are deterministic; only the memo's are memo hits.
            let shared = self.sharing.as_ref().map(|s| &s.memo.levels);
            let before = shared.map_or(0, |l| l.hits());
            let levels = shared.unwrap_or(&stream.levels);
            let scorer = stream.scorer.as_ref();
            let inst = &self.prepared.instance;
            let key = stream.keys.of(plan_query, plan);
            let ranked = ranked_join(self.db, plan_query, inst, scorer, plan, levels, key);
            self.memo_hits += shared.map_or(0, |l| l.hits()) - before;
            stream.gate.leave(plan);
            for (bucket, bound) in ranked.level_bounds().enumerate() {
                stream.gate.tighten(bucket, plan[bucket], bound);
            }
            stream.merge.attach(seq, plan.to_vec(), Box::new(ranked));
            if journal.is_enabled() {
                journal.record_at(
                    vclock,
                    "stream_attached",
                    vec![
                        ("plan_seq", Value::U64(seq)),
                        ("plan", Value::Str(encode_plan(plan).into())),
                    ],
                );
            }
        }
        ticket.seed = seed;
        if self.defer {
            ticket.deferred = Some(Vec::new());
        } else {
            ticket.captured = self.sharing.as_ref().map(|_| Vec::new());
        }
    }

    /// A plan's outcome is final: promotes the prefixes its join captured
    /// into the memo, unless it executed (unsound, failed) evicts its
    /// stream (`stream_evicted`) — which, released only between steps, has
    /// delivered nothing — and keeps its ticket as the one merged last.
    fn plan_merged(&mut self, report: &PlanExecution, mut ticket: Ticket, vclock: f64) {
        let captured = ticket.captured.take();
        if let (Some(s), Some(prefixes), Some(plan_query)) =
            (&self.sharing, captured, &ticket.query)
        {
            s.subplans().store_all(plan_query, &prefixes);
            s.bytes.set(s.memo.subplans.approx_bytes() as f64);
        }
        if let Some(stream) = self.stream.as_mut().filter(|_| !report.executed()) {
            stream.merge.evict(report.seq);
            let journal = &self.obs.journal;
            if journal.is_enabled() {
                let fields = vec![("plan_seq", Value::U64(report.seq))];
                journal.record_at(vclock, "stream_evicted", fields);
            }
        }
        self.merged = Some(ticket);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backends::snapshot_relations;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_runtime::{
        Access, AccessContext, AccessOutcome, AccessReply, BackendError, SourceService,
    };
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering as AtomicOrdering};

    /// An in-memory data-serving backend: a relation it does not hold is a
    /// permanent error, the first `outages` accesses of `flaky` fail
    /// transiently, and the first access for a plan numbered `moves_at` or
    /// later moves its data version from 0 to 1. Shared with the session's
    /// tests.
    pub(crate) struct RowsBackend {
        pub(crate) relations: BTreeMap<String, Arc<Vec<Tuple>>>,
        pub(crate) flaky: String,
        pub(crate) outages: AtomicU32,
        pub(crate) requests: AtomicU32,
        pub(crate) moves_at: Option<u64>,
        epoch: AtomicU64,
    }

    impl RowsBackend {
        pub(crate) fn seeded(m: &Mediator) -> Self {
            RowsBackend {
                relations: snapshot_relations(m.database())
                    .into_iter()
                    .map(|(name, rows)| (name, Arc::new(rows)))
                    .collect(),
                flaky: String::new(),
                outages: AtomicU32::new(0),
                requests: AtomicU32::new(0),
                moves_at: None,
                epoch: AtomicU64::new(0),
            }
        }
    }

    impl SourceBackend for RowsBackend {
        fn kind(&self) -> &'static str {
            "rows-test"
        }

        fn epoch(&self) -> u64 {
            self.epoch.load(AtomicOrdering::Relaxed)
        }

        fn access(
            &self,
            svc: &SourceService,
            ctx: &AccessContext<'_>,
        ) -> Result<AccessReply, BackendError> {
            self.requests.fetch_add(1, AtomicOrdering::Relaxed);
            if self.moves_at.is_some_and(|at| ctx.plan_seq >= at) {
                self.epoch.store(1, AtomicOrdering::Relaxed);
            }
            let down = |n: u32| n.checked_sub(1);
            if *svc.name == *self.flaky
                && self
                    .outages
                    .fetch_update(AtomicOrdering::Relaxed, AtomicOrdering::Relaxed, down)
                    .is_ok()
            {
                return Err(BackendError::transient("connection reset"));
            }
            let rows = self
                .relations
                .get(&*svc.name)
                .ok_or_else(|| BackendError::permanent(format!("no relation {}", svc.name)))?;
            Ok(AccessReply {
                access: Access {
                    outcome: AccessOutcome::Success,
                    latency: 1.0,
                },
                tuples: Some(rows.clone()),
                remote: None,
            })
        }
    }

    fn mediator() -> Mediator {
        Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
    }

    /// A plan of the movie query the extensions answer, and its sources.
    fn answering_plan(m: &Mediator, prepared: &PreparedQuery) -> (Vec<usize>, Vec<String>) {
        let core = PlanCore::new(m, prepared, m.obs());
        let plan = prepared
            .instance
            .all_plans()
            .into_iter()
            .find(|p| {
                (core.evaluate(p, &[], &mut Ticket::default())).is_some_and(|a| !a.is_empty())
            })
            .expect("some plan answers");
        assert!(plan.len() >= 2, "needs a mixed fetched/memo-resolved plan");
        let sources = prepared.reformulation.plan_sources(&plan);
        (plan, sources)
    }

    /// The flat rows of a join as the set `Database::evaluate` returns.
    fn as_set(rows: &PrefixRows) -> std::collections::BTreeSet<Tuple> {
        rows.iter().map(<[_]>::to_vec).collect()
    }

    fn errors(obs: &Obs, class: &str) -> u64 {
        let labels = [("backend", "rows-test"), ("class", class)];
        obs.registry
            .counter_value("qpo_backend_errors_total", &labels)
    }

    /// A plan's state rides in its ticket: the hooks assemble its plan
    /// query once, at schedule, and ask for its prefixes; the soundness
    /// test and the join read that one query; the seed and the capture
    /// ride along; and the merge leaves the ticket with the hooks, the
    /// capture promoted. The core has no per-plan state to keep.
    #[test]
    fn a_ticket_carries_one_plan_query_its_seed_and_its_capture() {
        use qpo_runtime::PlanStatus;
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let (plan, _) = answering_plan(&m, &prepared);
        let memo = ExecutionMemo::new();
        let core = PlanCore::new(&m, &prepared, m.obs());
        let mut hooks = Hooks::new(m.obs(), m.database(), &prepared);
        hooks.share(&memo);
        let ordered = OrderedPlan {
            plan: plan.clone(),
            utility: -1.0,
        };
        let body = |ticket: &Ticket| ticket.query.as_ref().map(|q| q.body.as_ptr());
        let reference = m
            .database()
            .evaluate(&prepared.reformulation.plan_query(&plan));
        let mut answers = Vec::new();
        for seq in 0..2 {
            let mut ticket = Ticket::default();
            hooks.plan_scheduled(seq, &ordered, &mut ticket, 0.0);
            let assembled = body(&ticket);
            assert!(assembled.is_some(), "assembled at schedule");
            assert_eq!(ticket.seed.is_some(), seq == 1, "seeded on the second pass");
            assert_eq!(ticket.captured.as_deref(), Some(&[][..]), "capture asked");
            assert!(core.is_sound(&plan, &mut ticket));
            answers.push(core.evaluate(&plan, &[], &mut ticket).unwrap());
            assert_eq!(as_set(&answers[seq as usize]), reference);
            assert_eq!(body(&ticket), assembled, "built once");
            if seq == 0 {
                assert_eq!(ticket.captured.as_ref().map(Vec::len), Some(plan.len()));
            }
            let report = PlanExecution {
                seq,
                ordered: ordered.clone(),
                status: PlanStatus::Executed {
                    tuples: reference.len(),
                    new_tuples: 0,
                    cumulative: 0,
                },
                accesses: Vec::new(),
                latency: 0.0,
                fees: 0.0,
            };
            hooks.plan_merged(&report, ticket, 0.0);
            let merged = hooks.merged.take().unwrap();
            assert_eq!(body(&merged), assembled, "the query comes back with it");
            assert!(merged.captured.is_none(), "promoted, not kept");
        }
        // The first pass promoted what it captured; the second was seeded
        // from it through its ticket and answered the same.
        assert_eq!(
            (memo.subplans.stores(), hooks.reused),
            (plan.len() as u64, 1)
        );
        assert_eq!(answers[0], answers[1], "seeded: the same rows, in order");
        assert!(!reference.is_empty());
        // With the hooks idle nothing asks: the executing thread assembles
        // the query, and no prefix is kept.
        let mut bare = Ticket::default();
        Hooks::new(m.obs(), m.database(), &prepared).plan_scheduled(0, &ordered, &mut bare, 0.0);
        assert!(bare.query.is_none());
        assert!(core.is_sound(&plan, &mut bare) && bare.query.is_some());
        core.evaluate(&plan, &[], &mut bare);
        assert!(bare.captured.is_none());
    }

    /// An orderer emitting a fixed plan sequence.
    struct Script(std::vec::IntoIter<Vec<usize>>);

    impl qpo_core::PlanOrderer for Script {
        fn algorithm_name(&self) -> &'static str {
            "script"
        }

        fn next_plan(&mut self) -> Option<OrderedPlan> {
            let utility = -1.0;
            self.0.next().map(|plan| OrderedPlan { plan, utility })
        }
    }

    /// The reports of `plan` run twice through the loop over `backend`
    /// with a fresh memo: live, then with every slot memo-resolved.
    fn live_then_replayed(
        m: &Mediator,
        prepared: &PreparedQuery,
        plan: &[usize],
        backend: Arc<RowsBackend>,
    ) -> Vec<PlanExecution> {
        let mut core = PlanCore::new(m, prepared, m.obs());
        assert!(core.serve_from(backend.clone()));
        core.memo = Some(SourceMemo::new());
        let mut twice = Script(vec![plan.to_vec(); 2].into_iter());
        let run = core
            .executor(RuntimePolicy::serial(), m.obs())
            .run(&mut twice, qpo_runtime::RunBudget::unbounded());
        let requests = backend.requests.load(AtomicOrdering::Relaxed);
        assert_eq!(requests as usize, plan.len(), "one live access per slot");
        let replayed = &run.reports[1];
        assert!(replayed.accesses.iter().all(|a| a.ok && a.attempts == 0));
        run.reports
    }

    #[test]
    fn a_memo_resolved_slot_joins_the_rows_stored_beside_its_outcome() {
        use qpo_runtime::PlanStatus;
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let (plan, sources) = answering_plan(&m, &prepared);
        let tuples = |reports: Vec<PlanExecution>| -> Vec<usize> {
            let tuples = |report: &PlanExecution| match report.status {
                PlanStatus::Executed { tuples, .. } => tuples,
                ref other => panic!("{other:?}"),
            };
            reports.iter().map(tuples).collect()
        };
        // A backend holding the extensions' rows: the replayed plan joins
        // what the live one fetched.
        let reference = m
            .database()
            .evaluate(&prepared.reformulation.plan_query(&plan));
        let seeded = Arc::new(RowsBackend::seeded(&m));
        let reports = live_then_replayed(&m, &prepared, &plan, seeded);
        assert_eq!(tuples(reports), [reference.len(); 2]);
        // The backend's world diverges from the extensions: the plan's
        // first source is empty on the backend only. The memo-resolved
        // slot must join the backend's (empty) rows, not the extensions'.
        let mut diverged = RowsBackend::seeded(&m);
        diverged
            .relations
            .insert(sources[0].clone(), Arc::default());
        let reports = live_then_replayed(&m, &prepared, &plan, Arc::new(diverged));
        assert_eq!(tuples(reports), [0, 0]);
    }

    #[test]
    fn a_seed_covering_a_slot_never_reads_it() {
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let (plan, sources) = answering_plan(&m, &prepared);
        let plan_query = prepared.reformulation.plan_query(&plan);
        let reference = m.database().evaluate(&plan_query);
        let (_, prefixes) = m.database().evaluate_rows(&plan_query, None);
        let backend = RowsBackend::seeded(&m);
        // Slot 0 was handed the empty relation; the others, their rows.
        let mut fetched: Vec<Option<Rows>> = (sources.iter())
            .map(|name| Some(backend.relations[name].clone()))
            .collect();
        fetched[0] = Some(Arc::default());
        let mut core = PlanCore::new(&m, &prepared, m.obs());
        core.serve_from(Arc::new(backend));
        assert!(core.join(&plan_query, &fetched, None).0.is_empty());
        let (answers, captured) = core.join(&plan_query, &fetched, Some(&prefixes[0]));
        assert_eq!(as_set(&answers), reference);
        assert_eq!(captured, prefixes[1..]);
    }

    #[test]
    fn a_warm_run_makes_no_request_and_backend_errors_are_counted_once() {
        use crate::{BackendRegistry, RunOptions, StopCondition, Strategy};
        let obs = Obs::new();
        let m = mediator();
        let prepared = m.prepare(&movie_query()).unwrap();
        let (_, sources) = answering_plan(&m, &prepared);
        let mut backend = RowsBackend::seeded(&m);
        backend.flaky = sources[0].clone();
        backend.outages = AtomicU32::new(1);
        let backend = Arc::new(backend);
        let m = m.with_backends(BackendRegistry::new().with("rows", backend.clone()));
        // No prefix is kept, so nothing seeds a warm join: every slot of
        // every plan reads the rows stored beside its memoized outcome.
        let memo = ExecutionMemo::new();
        memo.subplans.set_byte_budget(0);
        let run = |opts: &RunOptions<'_>| {
            let (measure, stop) = (qpo_utility::LinearCost, StopCondition::unbounded());
            let policy = RuntimePolicy::serial();
            m.run(
                &movie_query(),
                &measure,
                Strategy::Greedy,
                stop,
                policy,
                opts,
            )
            .unwrap()
        };
        let opts = RunOptions {
            backend: Some("rows"),
            memo: Some(&memo),
            obs: Some(&obs),
        };
        let plain = run(&RunOptions::default());
        let cold = run(&opts);
        // The one outage was met — and counted — inside the retry loop.
        let counted = || (errors(&obs, "transient"), errors(&obs, "permanent"));
        assert_eq!(counted(), (1, 0));
        assert_eq!(cold.runtime.stats.transient_failures, 1);
        let requests = backend.requests.load(AtomicOrdering::Relaxed);
        let warm = run(&opts);
        assert_eq!(backend.requests.load(AtomicOrdering::Relaxed), requests);
        assert_eq!(warm.runtime.stats.attempts, 0, "every slot replayed");
        assert_eq!(counted(), (1, 0), "nothing counts errors but the loop");
        for memoized in [&cold, &warm] {
            assert_eq!(memoized.runtime.answers, plain.runtime.answers);
            assert_eq!(memoized.failed(), 0);
        }
    }

    /// A backend's data version moves inside one run, on the first access
    /// of plan 1. The loop reads the version at the top of every wave, so
    /// the memo is cleared before the next plan looks anything up: no
    /// later plan replays an entry stored before the move.
    #[test]
    fn a_data_version_moving_mid_run_clears_the_memo_at_the_next_wave() {
        use crate::{BackendRegistry, RunOptions, StopCondition, Strategy};
        let obs = Obs::with_trace();
        let m = mediator();
        let mut backend = RowsBackend::seeded(&m);
        backend.moves_at = Some(1);
        let backend = Arc::new(backend);
        let m = m.with_backends(BackendRegistry::new().with("rows", backend.clone()));
        let memo = ExecutionMemo::new();
        let opts = RunOptions {
            backend: Some("rows"),
            memo: Some(&memo),
            obs: Some(&obs),
        };
        let (measure, stop) = (qpo_utility::LinearCost, StopCondition::unbounded());
        let policy = RuntimePolicy::serial();
        m.run(
            &movie_query(),
            &measure,
            Strategy::Greedy,
            stop,
            policy,
            &opts,
        )
        .unwrap();
        assert_eq!(backend.epoch(), 1, "the version moved");
        let trace = obs.journal.to_jsonl();
        qpo_obs::validate_trace(&trace).unwrap();
        // The plan whose access moved the version, and per source the plan
        // that stored it last, as the journal goes.
        let mut moved = None;
        let mut stored: BTreeMap<String, u64> = BTreeMap::new();
        let mut hits_after = 0;
        for rec in qpo_obs::read_jsonl(&trace).unwrap() {
            let (Some(seq), Some(source)) = (rec.u64("plan_seq"), rec.str("source")) else {
                continue;
            };
            match &*rec.kind {
                "source_attempt" if seq >= 1 => moved = moved.or(Some(seq)),
                "memo_store" => drop(stored.insert(source.to_string(), seq)),
                "memo_hit" if moved.is_some_and(|moved| seq > moved) => {
                    let at = stored[source];
                    assert!(
                        at >= moved.unwrap(),
                        "plan {seq} replays {source} from plan {at}"
                    );
                    hits_after += 1;
                }
                _ => {}
            }
        }
        assert!(moved.is_some());
        assert!(hits_after > 0, "what was stored after the move is served");
    }
}
