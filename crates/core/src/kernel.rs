//! The incremental ordering kernel behind Drips and iDrips.
//!
//! The textbook Drips loop (kept verbatim as [`reference_find_best`], the
//! differential-testing oracle) redoes three kinds of work every round:
//!
//! 1. **O(n²) dominance sweeps** — every alive plan is compared against
//!    every other, although the only plan that can eliminate anything is
//!    the *champion* (the alive plan with the maximum utility lower bound,
//!    smallest id on ties). The kernel tracks the champion incrementally:
//!    freshly evaluated plans are checked against it, and a full sweep
//!    happens only in the rounds where the champion itself changes.
//! 2. **Linear refinement-target scans** — the most promising abstract
//!    plan (maximum upper bound, smallest id on ties) was found by
//!    rescanning the pool. The kernel keeps a lazy max-heap keyed on the
//!    upper bound, so target selection is `O(log n)` and the all-concrete
//!    termination test falls out of the heap running dry.
//! 3. **Cross-round recomputation** — iDrips re-runs Drips per emission
//!    over plan spaces that mostly did not change (§5.2 calls this out as
//!    deliberate redundancy). The kernel hash-conses abstraction trees
//!    keyed on `(bucket, candidate set)` and memoizes utility intervals
//!    keyed on the candidate sets. An entry answers outright at the
//!    [`ExecutionContext::epoch`] it was computed at (always, for
//!    [`context_free`](UtilityMeasure::context_free) measures); later it
//!    is *resumed*: `record` only appends to the history, so
//!    [`UtilityMeasure::resume_interval`] folds just the appended plans
//!    into the entry's [`IntervalCarry`]. Only a `retract` — the history
//!    is no longer an extension of what the carries saw — drops the table.
//!
//! The kernel runs on the calling thread, and the emitted order is
//! bit-for-bit identical to [`reference_find_best`]'s by construction:
//! the champion rule eliminates *exactly* the plans the pairwise sweep
//! eliminates (see `eliminates`' invariants), caching only short-circuits
//! recomputation of pure functions, and a resumed evaluation returns the
//! bits a from-scratch one would (the measure's contract).

use crate::abstraction::{AbstractionHeuristic, AbstractionTree, NodeId};
use crate::drips::DripsOutcome;
use crate::planspace::PlanSpace;
use qpo_catalog::ProblemInstance;
use qpo_interval::Interval;
use qpo_obs::{
    encode_candidates, Counter, EliminationCertificate, Histogram, Obs, TraceJournal, Value,
};
use qpo_utility::{as_concrete, ExecutionContext, IntervalCarry, UtilityMeasure};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Counters the kernel accumulates across [`OrderingKernel::find_best`]
/// calls. All counters are monotone; snapshot via [`OrderingKernel::stats`]
/// and diff to meter a single call.
///
/// Since the telemetry layer landed this is a *view*: the live cells are
/// `qpo_kernel_*_total` counters (on the kernel's own registry, or a
/// shared one after [`OrderingKernel::with_obs`]), and this struct is
/// materialized from them on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Search rounds executed (evaluate → eliminate → refine).
    pub rounds: u64,
    /// Refinement steps (abstract plan replaced by its children).
    pub refinements: u64,
    /// Dominance checks actually performed (`eliminates` invocations).
    pub dominance_checks: u64,
    /// Plans eliminated by dominance.
    pub eliminations: u64,
    /// Rounds in which the champion changed and a full sweep ran.
    pub champion_sweeps: u64,
    /// Interval evaluations forwarded to the measure, resumed or not.
    pub interval_evals: u64,
    /// The evaluations among `interval_evals` that picked up from a memo
    /// entry's carry instead of starting over.
    pub interval_resumes: u64,
    /// Interval evaluations answered from the memo table.
    pub interval_cache_hits: u64,
    /// Abstraction trees built from scratch.
    pub tree_builds: u64,
    /// Abstraction trees reused from the hash-cons table.
    pub tree_cache_hits: u64,
    /// Always 0 — kept for the frozen harness (`bench_e2e` reads it).
    pub parallel_batches: u64,
}

impl KernelStats {
    /// Interval evaluations avoided outright — the paper's "plans
    /// evaluated" metric is `interval_evals`; this is how much lower it is
    /// than it would have been without the memo table.
    pub fn evals_saved(&self) -> u64 {
        self.interval_cache_hits
    }
}

/// Live metric handles behind [`KernelStats`], plus the interval-width
/// histogram. Registered on a private registry by default so a bare
/// kernel still counts; [`OrderingKernel::with_obs`] re-homes them onto a
/// shared registry.
#[derive(Debug, Clone)]
struct KernelMetrics {
    rounds: Counter,
    refinements: Counter,
    dominance_checks: Counter,
    eliminations: Counter,
    champion_sweeps: Counter,
    interval_evals: Counter,
    interval_resumes: Counter,
    interval_cache_hits: Counter,
    tree_builds: Counter,
    tree_cache_hits: Counter,
    /// Width (`hi − lo`) of every freshly evaluated utility interval — how
    /// abstract the plans the kernel actually touches are.
    interval_width: Histogram,
}

impl KernelMetrics {
    fn registered(obs: &Obs) -> Self {
        let c = |name| obs.registry.counter(name, &[]);
        KernelMetrics {
            rounds: c("qpo_kernel_rounds_total"),
            refinements: c("qpo_kernel_refinements_total"),
            dominance_checks: c("qpo_kernel_dominance_checks_total"),
            eliminations: c("qpo_kernel_eliminations_total"),
            champion_sweeps: c("qpo_kernel_champion_sweeps_total"),
            interval_evals: c("qpo_kernel_interval_evals_total"),
            interval_resumes: c("qpo_kernel_interval_resumes_total"),
            interval_cache_hits: c("qpo_kernel_interval_cache_hits_total"),
            tree_builds: c("qpo_kernel_tree_builds_total"),
            tree_cache_hits: c("qpo_kernel_tree_cache_hits_total"),
            interval_width: obs.registry.histogram("qpo_kernel_interval_width", &[]),
        }
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            rounds: self.rounds.get(),
            refinements: self.refinements.get(),
            dominance_checks: self.dominance_checks.get(),
            eliminations: self.eliminations.get(),
            champion_sweeps: self.champion_sweeps.get(),
            interval_evals: self.interval_evals.get(),
            interval_resumes: self.interval_resumes.get(),
            interval_cache_hits: self.interval_cache_hits.get(),
            tree_builds: self.tree_builds.get(),
            tree_cache_hits: self.tree_cache_hits.get(),
            parallel_batches: 0,
        }
    }
}

/// A plan in the refinement pool: one abstraction-tree node per bucket.
#[derive(Debug, Clone)]
struct PoolPlan {
    /// Which plan space this plan belongs to (iDrips runs Drips over
    /// several spaces at once).
    space: usize,
    /// Node per bucket, into that space's trees.
    nodes: Vec<NodeId>,
    /// Candidate indices per bucket (materialized from the nodes).
    cands: Vec<Vec<usize>>,
    utility: Option<Interval>,
    alive: bool,
}

impl PoolPlan {
    fn is_concrete(&self) -> bool {
        self.cands.iter().all(|c| c.len() == 1)
    }
}

/// Decides whether `p` eliminates `q` (Drips' dominance with a
/// deterministic tie-break so two equal point-utilities eliminate exactly
/// one of the pair).
///
/// Champion-based elimination is exact, not approximate, because this
/// predicate is monotone in `(p.lo, -p.id)`: if *any* alive plan
/// eliminates `q`, then so does the champion — the alive plan maximizing
/// `lo` with the smallest id among ties. And the champion itself can never
/// be eliminated: an eliminator would need `lo > champion.hi ≥
/// champion.lo` (contradicting maximality) or an equal `lo` with a
/// smaller id (contradicting the tie-break).
fn eliminates(p: (Interval, usize), q: (Interval, usize)) -> bool {
    let (up, idp) = p;
    let (uq, idq) = q;
    up.lo() > uq.hi() || (up.lo() == uq.hi() && idp < idq)
}

/// `(lo, -id)` champion order: higher lower bound wins, smaller id on
/// ties. Uses IEEE comparison (so `-0.0 == 0.0` ties break on id, exactly
/// like the reference kernel); interval bounds are always finite.
fn champion_beats(a: (Interval, usize), b: (Interval, usize)) -> bool {
    let (ua, ida) = a;
    let (ub, idb) = b;
    ua.lo() > ub.lo() || (ua.lo() == ub.lo() && ida < idb)
}

/// Max-heap entry for refinement-target selection: maximum upper bound
/// first, smallest id on ties. The `hi` key is normalized (`-0.0 → +0.0`)
/// so `total_cmp` agrees with the IEEE comparisons of the reference
/// kernel; `total_cmp` keeps the order total (no panic) even if a
/// degenerate measure ever smuggled a NaN past [`Interval`]'s constructor.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    hi: f64,
    id: usize,
}

impl HeapEntry {
    fn new(hi: f64, id: usize) -> Self {
        // +0.0 normalizes -0.0 and leaves every other value unchanged.
        HeapEntry { hi: hi + 0.0, id }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.hi
            .total_cmp(&other.hi)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// A memoized utility interval: valid as is at `epoch`, resumable from
/// `carry` at a later epoch of the same append-only history.
#[derive(Debug)]
struct MemoEntry {
    interval: Interval,
    epoch: u64,
    carry: IntervalCarry,
}

/// The reusable state of the incremental kernel: hash-consed abstraction
/// trees, the interval memo table, and the accumulated [`KernelStats`].
///
/// A kernel instance must be driven with a fixed `(instance, measure,
/// heuristic)` triple and a single [`ExecutionContext`] lineage (the one
/// an orderer owns and mutates) — the caches key on candidate sets, the
/// context epoch and its retraction count only. [`IDrips`](crate::IDrips)
/// owns one kernel per orderer, which satisfies both conditions by
/// construction.
#[derive(Debug)]
pub struct OrderingKernel {
    /// Bucket → candidate set → tree (nested so a lookup borrows `cands`).
    trees: HashMap<usize, HashMap<Vec<usize>, Arc<AbstractionTree>>>,
    intervals: HashMap<Vec<Vec<usize>>, MemoEntry>,
    /// [`ExecutionContext::retractions`] the memoized carries were built
    /// under: while it stands still, the history only grew by appends.
    retractions: u64,
    metrics: KernelMetrics,
    journal: TraceJournal,
}

impl Default for OrderingKernel {
    fn default() -> Self {
        OrderingKernel::new()
    }
}

impl OrderingKernel {
    /// A fresh kernel with empty caches.
    pub fn new() -> Self {
        OrderingKernel {
            trees: HashMap::new(),
            intervals: HashMap::new(),
            retractions: 0,
            metrics: KernelMetrics::registered(&Obs::new()),
            journal: TraceJournal::default(),
        }
    }

    /// Re-homes the kernel's counters onto a shared registry and adopts
    /// its trace journal. Call right after construction — previously
    /// accumulated counts stay behind on the private cells.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.metrics = KernelMetrics::registered(obs);
        self.journal = obs.journal.clone();
        self
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> KernelStats {
        self.metrics.stats()
    }

    /// Entries currently held by the (tree, interval) caches.
    pub fn cache_sizes(&self) -> (usize, usize) {
        let trees = self.trees.values().map(HashMap::len).sum();
        (trees, self.intervals.len())
    }

    fn tree<H: AbstractionHeuristic + ?Sized>(
        &mut self,
        inst: &ProblemInstance,
        bucket: usize,
        cands: &[usize],
        heuristic: &H,
    ) -> Arc<AbstractionTree> {
        let table = self.trees.entry(bucket).or_default();
        if let Some(t) = table.get(cands) {
            self.metrics.tree_cache_hits.inc();
            if self.journal.is_enabled() {
                self.journal.record(
                    "kernel_cache_hit",
                    vec![
                        ("cache", Value::Str("tree".into())),
                        ("bucket", Value::U64(bucket as u64)),
                    ],
                );
            }
            return Arc::clone(t);
        }
        self.metrics.tree_builds.inc();
        let t = Arc::new(AbstractionTree::build(inst, bucket, cands, heuristic));
        table.insert(cands.to_vec(), Arc::clone(&t));
        t
    }

    /// Runs Drips over the given plan spaces under `ctx`, returning the
    /// best concrete plan across all of them (or `None` when there are no
    /// spaces). Emits exactly the `(space, plan, utility)` the reference
    /// kernel emits; only the work done to find it differs.
    pub fn find_best<M, H>(
        &mut self,
        inst: &ProblemInstance,
        measure: &M,
        ctx: &ExecutionContext,
        spaces: &[PlanSpace],
        heuristic: &H,
    ) -> Option<DripsOutcome>
    where
        M: UtilityMeasure + ?Sized,
        H: AbstractionHeuristic + ?Sized,
    {
        if spaces.is_empty() {
            return None;
        }
        // Context-free measures cache forever. Context-sensitive entries
        // resume across appends; a retraction since the last call means
        // their carries folded in a plan that is gone.
        if !measure.context_free() && self.retractions != ctx.retractions() {
            self.intervals.clear();
            self.retractions = ctx.retractions();
        }
        // The context is fixed for the whole call; every certificate
        // recorded below replays against this epoch.
        let epoch = ctx.epoch();

        // One (hash-consed) tree per (space, bucket).
        let trees: Vec<Vec<Arc<AbstractionTree>>> = spaces
            .iter()
            .map(|space| {
                space
                    .iter()
                    .enumerate()
                    .map(|(b, cands)| self.tree(inst, b, cands, heuristic))
                    .collect()
            })
            .collect();

        let mut plans: Vec<PoolPlan> = Vec::with_capacity(spaces.len());
        for (s, space_trees) in trees.iter().enumerate() {
            let nodes: Vec<NodeId> = space_trees.iter().map(|t| t.root()).collect();
            let cands: Vec<Vec<usize>> = space_trees
                .iter()
                .zip(&nodes)
                .map(|(t, &n)| t.indices(n).to_vec())
                .collect();
            plans.push(PoolPlan {
                space: s,
                nodes,
                cands,
                utility: None,
                alive: true,
            });
        }

        let mut pending: Vec<usize> = (0..plans.len()).collect();
        let mut frontier: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(plans.len());
        let mut champion: Option<usize> = None;
        let mut refinements = 0usize;

        loop {
            self.metrics.rounds.inc();
            // (a) evaluate pending utilities (memoized).
            self.evaluate(inst, measure, ctx, &mut plans, &pending);
            for &id in &pending {
                if !plans[id].is_concrete() {
                    frontier.push(HeapEntry::new(
                        plans[id].utility.expect("evaluated above").hi(),
                        id,
                    ));
                }
            }

            // (b) update the champion, then eliminate against it.
            let prev = champion;
            if !champion.is_some_and(|c| plans[c].alive) {
                // The previous champion was refined away (or this is the
                // first round): recompute from scratch.
                champion = (0..plans.len())
                    .filter(|&id| plans[id].alive)
                    .max_by(|&a, &b| {
                        let ua = plans[a].utility.expect("evaluated above");
                        let ub = plans[b].utility.expect("evaluated above");
                        if champion_beats((ua, a), (ub, b)) {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        }
                    });
            } else {
                // Alive plans never change, so the champion can only be
                // dethroned by one of the freshly evaluated plans.
                for &id in &pending {
                    let c = champion.expect("set above");
                    let uc = plans[c].utility.expect("champion is evaluated");
                    let uq = plans[id].utility.expect("evaluated above");
                    if champion_beats((uq, id), (uc, c)) {
                        champion = Some(id);
                    }
                }
            }
            let champ = champion.expect("non-empty pool has a champion");
            let champ_u = plans[champ].utility.expect("champion is evaluated");
            if prev != champion {
                // New champion: its reach is unknown, sweep everything.
                self.metrics.champion_sweeps.inc();
                if self.journal.is_enabled() {
                    self.journal.record(
                        "kernel_champion_change",
                        vec![
                            ("plan_id", Value::U64(champ as u64)),
                            ("lower_bound", Value::F64(champ_u.lo())),
                        ],
                    );
                }
                // The champion is fixed across the sweep: encode its
                // candidate sets once and let every elimination event
                // copy the bytes instead of re-formatting them.
                let champ_enc = self
                    .journal
                    .is_enabled()
                    .then(|| encode_candidates(&plans[champ].cands));
                for id in 0..plans.len() {
                    if id == champ || !plans[id].alive {
                        continue;
                    }
                    self.metrics.dominance_checks.inc();
                    let uq = plans[id].utility.expect("alive plans are evaluated");
                    if eliminates((champ_u, champ), (uq, id)) {
                        self.kill(&mut plans, id, champ, epoch, champ_enc.as_deref());
                    }
                }
            } else {
                // Same champion: every surviving plan already withstood
                // it; only the fresh plans need checking.
                let champ_enc = self
                    .journal
                    .is_enabled()
                    .then(|| encode_candidates(&plans[champ].cands));
                for &id in &pending {
                    if id == champ || !plans[id].alive {
                        continue;
                    }
                    self.metrics.dominance_checks.inc();
                    let uq = plans[id].utility.expect("evaluated above");
                    if eliminates((champ_u, champ), (uq, id)) {
                        self.kill(&mut plans, id, champ, epoch, champ_enc.as_deref());
                    }
                }
            }
            pending.clear();

            // (c) refine the most promising abstract survivor; when the
            // frontier runs dry every survivor is concrete and the
            // champion — max lower bound, smallest id — is the winner.
            let target = loop {
                match frontier.pop() {
                    Some(e) if plans[e.id].alive => break Some(e.id),
                    Some(_) => continue, // stale: eliminated or refined
                    None => break None,
                }
            };
            let Some(target_id) = target else {
                let winner = &plans[champ];
                let plan = as_concrete(&winner.cands).expect("survivors are concrete");
                return Some(DripsOutcome {
                    space: winner.space,
                    plan,
                    utility: winner.utility.expect("champion is evaluated").lo(),
                    refinements,
                });
            };
            refinements += 1;
            self.metrics.refinements.inc();
            if self.journal.is_enabled() {
                self.journal.record(
                    "kernel_refinement",
                    vec![
                        ("plan_id", Value::U64(target_id as u64)),
                        ("space", Value::U64(plans[target_id].space as u64)),
                    ],
                );
            }
            // Split the widest abstract bucket: replace its node by the
            // children, one child plan each.
            let parent = std::mem::replace(
                &mut plans[target_id],
                PoolPlan {
                    space: 0,
                    nodes: Vec::new(),
                    cands: Vec::new(),
                    utility: None,
                    alive: false,
                },
            );
            if champion == Some(target_id) {
                champion = None; // force a recompute next round
            }
            let bucket = (0..parent.nodes.len())
                .filter(|&b| parent.cands[b].len() > 1)
                .max_by_key(|&b| parent.cands[b].len())
                .expect("abstract plan has a non-singleton bucket");
            let tree = &trees[parent.space][bucket];
            for &child in tree.children(parent.nodes[bucket]) {
                let mut nodes = parent.nodes.clone();
                nodes[bucket] = child;
                let mut cands = parent.cands.clone();
                cands[bucket] = tree.indices(child).to_vec();
                pending.push(plans.len());
                plans.push(PoolPlan {
                    space: parent.space,
                    nodes,
                    cands,
                    utility: None,
                    alive: true,
                });
            }
        }
    }

    /// Eliminates plan `id`, dominated by `champ` at context `epoch`.
    /// Before the victim's candidate storage is freed, its provenance is
    /// captured when tracing is on: a `kernel_elimination` event carrying
    /// every field of an [`EliminationCertificate`]
    /// ([`EliminationCertificate::from_record`] reads it back), which is
    /// enough to replay the comparison.
    fn kill(
        &mut self,
        plans: &mut [PoolPlan],
        id: usize,
        champ: usize,
        epoch: u64,
        champ_enc: Option<&str>,
    ) {
        self.metrics.eliminations.inc();
        let champ_u = plans[champ].utility.expect("champion is evaluated");
        let victim_u = plans[id].utility.expect("victims are evaluated");
        if self.journal.is_enabled() {
            let champion_enc = match champ_enc {
                Some(s) => s.to_owned(),
                None => encode_candidates(&plans[champ].cands),
            };
            self.journal.record(
                "kernel_elimination",
                vec![
                    ("plan_id", Value::U64(id as u64)),
                    ("champion_id", Value::U64(champ as u64)),
                    (
                        "victim",
                        Value::Str(encode_candidates(&plans[id].cands).into()),
                    ),
                    ("champion", Value::Str(champion_enc.into())),
                    ("victim_lo", Value::F64(victim_u.lo())),
                    ("victim_hi", Value::F64(victim_u.hi())),
                    ("champion_lo", Value::F64(champ_u.lo())),
                    ("champion_hi", Value::F64(champ_u.hi())),
                    ("epoch", Value::U64(epoch)),
                ],
            );
        }
        let p = &mut plans[id];
        p.alive = false;
        // Dead plans are only ever read for their (utility, id) pair;
        // free the candidate storage eagerly.
        p.nodes = Vec::new();
        p.cands = Vec::new();
    }

    /// Resolves the pending plans' utility intervals. A memo entry of this
    /// epoch answers outright; one of an earlier epoch resumes from its
    /// carry. What is left starts from scratch and is memoized.
    fn evaluate<M: UtilityMeasure + ?Sized>(
        &mut self,
        inst: &ProblemInstance,
        measure: &M,
        ctx: &ExecutionContext,
        plans: &mut [PoolPlan],
        pending: &[usize],
    ) {
        let epoch = ctx.epoch();
        let context_free = measure.context_free();
        let mut misses: Vec<usize> = Vec::with_capacity(pending.len());
        for &id in pending {
            match self.intervals.get_mut(&plans[id].cands) {
                Some(entry) if context_free || entry.epoch == epoch => {
                    self.metrics.interval_cache_hits.inc();
                    if self.journal.is_enabled() {
                        self.journal.record(
                            "kernel_cache_hit",
                            vec![
                                ("cache", Value::Str("interval".into())),
                                ("plan_id", Value::U64(id as u64)),
                            ],
                        );
                    }
                    plans[id].utility = Some(entry.interval);
                }
                // (A fresh carry means the measure does not resume: its
                // evaluation starts over below.)
                Some(entry) if !entry.carry.is_fresh() => {
                    self.metrics.interval_evals.inc();
                    self.metrics.interval_resumes.inc();
                    let iv = measure.resume_interval(inst, &plans[id].cands, ctx, &mut entry.carry);
                    entry.interval = iv;
                    entry.epoch = epoch;
                    self.metrics.interval_width.record(iv.hi() - iv.lo());
                    plans[id].utility = Some(iv);
                }
                _ => misses.push(id),
            }
        }
        self.metrics.interval_evals.add(misses.len() as u64);

        for id in misses {
            let mut carry = IntervalCarry::default();
            let interval = measure.resume_interval(inst, &plans[id].cands, ctx, &mut carry);
            self.metrics
                .interval_width
                .record(interval.hi() - interval.lo());
            plans[id].utility = Some(interval);
            let fresh = MemoEntry {
                interval,
                epoch,
                carry,
            };
            self.intervals.insert(plans[id].cands.clone(), fresh);
        }
    }
}

/// The pre-optimization kernel, kept as the differential-testing oracle:
/// a full O(n²) pairwise dominance sweep per round, fresh abstraction
/// trees per call, no memoization. Its only change from the original is
/// `total_cmp` in the max-scans, so a degenerate measure cannot panic the
/// orderer mid-stream (the incremental kernel uses the same total order
/// in its heap).
pub fn reference_find_best<M, H>(
    inst: &ProblemInstance,
    measure: &M,
    ctx: &ExecutionContext,
    spaces: &[PlanSpace],
    heuristic: &H,
) -> Option<DripsOutcome>
where
    M: UtilityMeasure + ?Sized,
    H: AbstractionHeuristic + ?Sized,
{
    if spaces.is_empty() {
        return None;
    }
    struct RefPlan {
        space: usize,
        nodes: Vec<NodeId>,
        cands: Vec<Vec<usize>>,
        utility: Option<Interval>,
        alive: bool,
        id: usize,
    }
    impl RefPlan {
        fn is_concrete(&self) -> bool {
            self.cands.iter().all(|c| c.len() == 1)
        }
    }
    // One tree per (space, bucket), rebuilt fresh per call ("reabstracts
    // the sources in the new plan spaces", §5.2).
    let trees: Vec<Vec<AbstractionTree>> = spaces
        .iter()
        .map(|space| {
            space
                .iter()
                .enumerate()
                .map(|(b, cands)| AbstractionTree::build(inst, b, cands, heuristic))
                .collect()
        })
        .collect();

    let mut pool: Vec<RefPlan> = Vec::new();
    for (s, space_trees) in trees.iter().enumerate() {
        let nodes: Vec<NodeId> = space_trees.iter().map(AbstractionTree::root).collect();
        let cands: Vec<Vec<usize>> = space_trees
            .iter()
            .zip(&nodes)
            .map(|(t, &n)| t.indices(n).to_vec())
            .collect();
        pool.push(RefPlan {
            space: s,
            nodes,
            cands,
            utility: None,
            alive: true,
            id: pool.len(),
        });
    }

    let mut next_id = pool.len();
    let mut refinements = 0usize;
    loop {
        pool.retain(|p| p.alive);
        for p in pool.iter_mut().filter(|p| p.alive && p.utility.is_none()) {
            p.utility = Some(measure.utility_interval(inst, &p.cands, ctx));
        }
        let snapshot: Vec<(usize, Interval)> = pool
            .iter()
            .filter(|p| p.alive)
            .map(|p| (p.id, p.utility.expect("evaluated above")))
            .collect();
        for p in pool.iter_mut().filter(|p| p.alive) {
            let uq = p.utility.expect("evaluated above");
            if snapshot
                .iter()
                .any(|&(id, up)| id != p.id && eliminates((up, id), (uq, p.id)))
            {
                p.alive = false;
            }
        }
        let target = pool
            .iter()
            .filter(|p| p.alive && !p.is_concrete())
            .max_by(|a, b| {
                let ua = a.utility.expect("evaluated above").hi();
                let ub = b.utility.expect("evaluated above").hi();
                ua.total_cmp(&ub).then(b.id.cmp(&a.id))
            })
            .map(|p| p.id);
        let Some(target_id) = target else {
            let winner = pool
                .iter()
                .filter(|p| p.alive)
                .max_by(|a, b| {
                    let ua = a.utility.expect("evaluated above").lo();
                    let ub = b.utility.expect("evaluated above").lo();
                    ua.total_cmp(&ub).then(b.id.cmp(&a.id))
                })
                .expect("pool never empties: elimination spares a maximum");
            let plan = as_concrete(&winner.cands).expect("winner is concrete");
            return Some(DripsOutcome {
                space: winner.space,
                plan,
                utility: winner.utility.expect("evaluated above").lo(),
                refinements,
            });
        };
        refinements += 1;
        let pos = pool
            .iter()
            .position(|p| p.id == target_id)
            .expect("target is in the pool");
        let parent = pool.swap_remove(pos);
        let bucket = (0..parent.nodes.len())
            .filter(|&b| parent.cands[b].len() > 1)
            .max_by_key(|&b| parent.cands[b].len())
            .expect("abstract plan has a non-singleton bucket");
        let tree = &trees[parent.space][bucket];
        for &child in tree.children(parent.nodes[bucket]) {
            let mut nodes = parent.nodes.clone();
            nodes[bucket] = child;
            let mut cands = parent.cands.clone();
            cands[bucket] = tree.indices(child).to_vec();
            pool.push(RefPlan {
                space: parent.space,
                nodes,
                cands,
                utility: None,
                alive: true,
                id: next_id,
            });
            next_id += 1;
        }
    }
}

/// A certificate that failed verification: its position in the checked
/// slice and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateError {
    /// Index into the certificate slice handed to [`verify_certificates`].
    pub index: usize,
    /// Human-readable mismatch description.
    pub reason: String,
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certificate {}: {}", self.index, self.reason)
    }
}

impl std::error::Error for CertificateError {}

/// Independently re-checks every elimination certificate against the
/// problem instance: (1) the recorded dominance comparison holds under
/// the kernel's own `eliminates` predicate *and* under the certificate's
/// dependency-free replay ([`EliminationCertificate::comparison_holds`]),
/// and (2) both utility intervals re-derive bit-for-bit from `measure`.
///
/// `emissions` is the sequence of plans recorded as executed, in order —
/// an iDrips run's emitted plans. Certificates carry the context epoch
/// they were decided at; the verifier replays the execution context by
/// recording emissions until it reaches each certificate's epoch, so
/// context-sensitive measures verify exactly. (Runs that *retracted*
/// plans move the epoch without a corresponding emission and cannot be
/// replayed this way; such certificates report an unreachable epoch.)
///
/// Returns the number of certificates verified (all of them) or the
/// first mismatch.
pub fn verify_certificates<M: UtilityMeasure + ?Sized>(
    inst: &ProblemInstance,
    measure: &M,
    emissions: &[Vec<usize>],
    certs: &[EliminationCertificate],
) -> Result<usize, CertificateError> {
    let mut ctx = ExecutionContext::new();
    let mut next = 0usize;
    for (index, cert) in certs.iter().enumerate() {
        let fail = |reason: String| CertificateError { index, reason };
        // A verifier must reject malformed input, not panic on it.
        for (what, (lo, hi)) in [
            ("victim", cert.victim_interval),
            ("champion", cert.champion_interval),
        ] {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(fail(format!("{what} interval [{lo}, {hi}] is malformed")));
            }
        }
        // (1) the comparison itself, via both implementations.
        let champ_u = Interval::new(cert.champion_interval.0, cert.champion_interval.1);
        let victim_u = Interval::new(cert.victim_interval.0, cert.victim_interval.1);
        let by_kernel = eliminates(
            (champ_u, cert.champion_id as usize),
            (victim_u, cert.victim_id as usize),
        );
        if !by_kernel {
            return Err(fail(format!(
                "recorded intervals do not dominate: champion [{}, {}] (id {}) vs victim [{}, {}] (id {})",
                champ_u.lo(), champ_u.hi(), cert.champion_id,
                victim_u.lo(), victim_u.hi(), cert.victim_id,
            )));
        }
        if !cert.comparison_holds() {
            return Err(fail(
                "certificate replay disagrees with the kernel's eliminates predicate".into(),
            ));
        }
        // (2) the intervals re-derive from the measure at the recorded
        // epoch.
        while ctx.epoch() < cert.epoch {
            let Some(plan) = emissions.get(next) else {
                return Err(fail(format!(
                    "epoch {} unreachable from {} emissions",
                    cert.epoch,
                    emissions.len()
                )));
            };
            ctx.record(plan);
            next += 1;
        }
        if ctx.epoch() != cert.epoch {
            return Err(fail(format!(
                "epoch {} behind the replayed context ({})",
                cert.epoch,
                ctx.epoch()
            )));
        }
        for (what, cands, recorded) in [
            ("victim", &cert.victim, victim_u),
            ("champion", &cert.champion, champ_u),
        ] {
            let redone = measure.utility_interval(inst, cands, &ctx);
            if redone.lo().to_bits() != recorded.lo().to_bits()
                || redone.hi().to_bits() != recorded.hi().to_bits()
            {
                return Err(fail(format!(
                    "{what} interval mismatch at epoch {}: recorded [{}, {}], re-derived [{}, {}]",
                    cert.epoch,
                    recorded.lo(),
                    recorded.hi(),
                    redone.lo(),
                    redone.hi(),
                )));
            }
        }
    }
    Ok(certs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::ByExpectedTuples;
    use crate::planspace::full_space;
    use qpo_catalog::GeneratorConfig;
    use qpo_utility::{CountingMeasure, Coverage, FailureCost};

    #[test]
    fn heap_entry_order_matches_ieee_with_id_tiebreak() {
        let a = HeapEntry::new(1.0, 3);
        let b = HeapEntry::new(1.0, 5);
        assert!(a > b, "equal hi: smaller id wins");
        assert!(HeapEntry::new(2.0, 9) > HeapEntry::new(1.0, 0));
        // -0.0 normalizes to +0.0, so ties still break on id.
        assert!(HeapEntry::new(-0.0, 1) > HeapEntry::new(0.0, 2));
        assert!(HeapEntry::new(0.0, 1) > HeapEntry::new(-0.0, 2));
    }

    #[test]
    fn kernel_and_reference_agree_on_a_single_space() {
        for seed in 0..8u64 {
            let inst = GeneratorConfig::new(3, 6).with_seed(seed).build();
            let ctx = ExecutionContext::new();
            let spaces = [full_space(&inst)];
            let mut kernel = OrderingKernel::new();
            let fast = kernel.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
            let slow = reference_find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn cache_reuse_across_identical_calls_is_total() {
        let inst = GeneratorConfig::new(3, 6).with_seed(5).build();
        let ctx = ExecutionContext::new();
        let spaces = [full_space(&inst)];
        let m = CountingMeasure::new(FailureCost::without_caching());
        let mut kernel = OrderingKernel::new();
        let first = kernel.find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
        let evals_after_first = m.interval_evals();
        assert!(evals_after_first > 0);
        let second = kernel.find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
        assert_eq!(first, second);
        assert_eq!(
            m.interval_evals(),
            evals_after_first,
            "context-free rerun is answered entirely from the memo table"
        );
        let stats = kernel.stats();
        assert!(stats.interval_cache_hits >= evals_after_first);
        assert!(stats.tree_cache_hits > 0);
        let (t, i) = kernel.cache_sizes();
        assert!(t > 0 && i > 0);
    }

    #[test]
    fn context_epoch_invalidates_the_interval_cache() {
        let inst = GeneratorConfig::new(2, 4).with_seed(3).build();
        let spaces = [full_space(&inst)];
        let m = CountingMeasure::new(FailureCost::with_caching());
        let mut ctx = ExecutionContext::new();
        let mut kernel = OrderingKernel::new();
        let first = kernel
            .find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples)
            .unwrap();
        let before = m.interval_evals();
        ctx.record(&first.plan);
        kernel.find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
        assert!(
            m.interval_evals() > before,
            "context-sensitive measure re-evaluates after record"
        );
        // And the re-evaluated result matches the reference kernel.
        let slow = reference_find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
        let fast = kernel.find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
        assert_eq!(fast, slow);
    }

    /// Every elimination `obs`'s journal holds, as the certificate its
    /// event decodes to.
    fn journalled_certificates(obs: &Obs) -> Vec<EliminationCertificate> {
        let events = obs.journal.events();
        let kills = events.iter().filter(|e| e.kind == "kernel_elimination");
        kills
            .map(|e| EliminationCertificate::from_record(&e.into()).expect("every field present"))
            .collect()
    }

    #[test]
    fn certificates_record_every_elimination_and_verify() {
        let inst = GeneratorConfig::new(3, 6).with_seed(2).build();
        let ctx = ExecutionContext::new();
        let spaces = [full_space(&inst)];
        let mut plain = OrderingKernel::new();
        let obs = Obs::with_trace();
        let mut certified = OrderingKernel::new().with_obs(&obs);
        let expected = plain.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
        let got = certified.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
        assert_eq!(got, expected, "recording provenance never changes emission");
        let certs = journalled_certificates(&obs);
        assert_eq!(
            certs.len() as u64,
            certified.stats().eliminations,
            "one certificate per elimination"
        );
        assert!(!certs.is_empty(), "dominance prunes something at 3×6");
        for cert in &certs {
            assert!(cert.comparison_holds());
            assert!(!cert.victim.is_empty() && !cert.champion.is_empty());
        }
        let verified = verify_certificates(&inst, &Coverage, &[], &certs).expect("all replay");
        assert_eq!(verified, certs.len());
    }

    #[test]
    fn verify_rejects_tampered_certificates() {
        let inst = GeneratorConfig::new(3, 6).with_seed(2).build();
        let ctx = ExecutionContext::new();
        let spaces = [full_space(&inst)];
        let obs = Obs::with_trace();
        let mut kernel = OrderingKernel::new().with_obs(&obs);
        kernel.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
        let certs = journalled_certificates(&obs);

        // Inflate the victim's upper bound past the champion's lower
        // bound: the dominance comparison no longer holds.
        let mut broken = certs.clone();
        broken[0].victim_interval.1 = broken[0].champion_interval.0 + 1.0;
        broken[0].victim_interval.0 = broken[0].victim_interval.1.min(broken[0].victim_interval.0);
        let err = verify_certificates(&inst, &Coverage, &[], &broken).unwrap_err();
        assert_eq!(err.index, 0);
        assert!(err.reason.contains("do not dominate"), "{err}");

        // Nudge a recorded bound slightly downward: the comparison still
        // holds, but the bit-for-bit re-derivation catches it.
        let mut nudged = certs;
        nudged[0].victim_interval.0 -= 1e-9;
        let err = verify_certificates(&inst, &Coverage, &[], &nudged).unwrap_err();
        assert!(err.reason.contains("interval mismatch"), "{err}");

        // And malformed intervals are rejected, not panicked on.
        let mut malformed = nudged;
        malformed[0].champion_interval = (1.0, 0.0);
        let err = verify_certificates(&inst, &Coverage, &[], &malformed).unwrap_err();
        assert!(err.reason.contains("malformed"), "{err}");
    }

    #[test]
    fn verify_replays_context_sensitive_epochs_from_emissions() {
        let inst = GeneratorConfig::new(2, 4).with_seed(3).build();
        let spaces = [full_space(&inst)];
        let measure = FailureCost::with_caching();
        let mut ctx = ExecutionContext::new();
        let obs = Obs::with_trace();
        let mut kernel = OrderingKernel::new().with_obs(&obs);
        let mut emissions: Vec<Vec<usize>> = Vec::new();
        for _ in 0..3 {
            let out = kernel
                .find_best(&inst, &measure, &ctx, &spaces, &ByExpectedTuples)
                .expect("space is non-empty");
            ctx.record(&out.plan);
            emissions.push(out.plan);
        }
        let certs = journalled_certificates(&obs);
        assert!(
            certs.iter().any(|c| c.epoch > 0),
            "later rounds eliminate at non-zero epochs"
        );
        verify_certificates(&inst, &measure, &emissions, &certs).expect("epoch replay verifies");
        // Without the emissions the later epochs are unreachable.
        let err = verify_certificates(&inst, &measure, &[], &certs).unwrap_err();
        assert!(err.reason.contains("unreachable"), "{err}");
    }
}
