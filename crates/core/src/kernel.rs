//! Drips (§5.1), as the incremental kernel iDrips re-runs per emission.
//!
//! Drips abstracts each bucket into a hierarchy of abstract sources, starts
//! from the top abstract plan, and repeatedly (a) evaluates utility
//! intervals, (b) eliminates dominated plans (`l_p ≥ h_q` ⇒ drop `q`), and
//! (c) refines the most promising abstract plan by replacing one abstract
//! source with its children — until the surviving nondominated plan is
//! concrete. Most concrete plans are pruned away inside eliminated abstract
//! plans without ever being evaluated. [`OrderingKernel::find_best`] is
//! that search; [`crate::IDrips`] iterates it over shrinking plan spaces.
//!
//! The textbook loop (kept as the differential-testing oracle in
//! `crates/core/tests/support`) redoes four kinds of work every round:
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
//!    keyed on the candidate sets. An entry answers outright while the
//!    history holds just the executed plans it was computed over (always,
//!    for [`context_free`](UtilityMeasure::context_free) measures); later
//!    it is *resumed*: `record` only appends to the history, so
//!    [`UtilityMeasure::resume_interval`] folds just the appended plans
//!    into the entry's [`IntervalCarry`]. Only a `retract` — the history
//!    is no longer an extension of what the carries saw — drops the table.
//! 4. **Per-plan allocation** — every plan it builds owns its candidate
//!    sets, and every memo lookup hashes them. The kernel gives each tree
//!    node a kernel-wide candidate-set id when the tree is built, keeps a
//!    plan as its node ids in one flat arena, and keys the memo on the
//!    plan's set ids; a memo entry materializes the candidate sets once,
//!    on first sight, and plans read them from there.
//!
//! The kernel runs on the calling thread. Its outcomes are bit-for-bit
//! the textbook loop's by construction: the champion rule eliminates
//! *exactly* the plans the pairwise sweep eliminates (see `eliminates`'
//! invariants), caching only short-circuits recomputation of pure
//! functions, and a resumed evaluation returns the bits a from-scratch
//! one would (the measure's contract). Late in an order, when
//! abstraction no longer prunes, [`crate::IDrips`] stops calling the
//! kernel and hands its remaining plans to [`crate::Pi`].

use crate::abstraction::{AbstractionHeuristic, AbstractionTree, NodeId};
use crate::planspace::PlanSpace;
use qpo_catalog::ProblemInstance;
use qpo_interval::Interval;
use qpo_obs::{encode_candidates, Counter, Histogram, Obs, TraceJournal, Value};
use qpo_utility::{as_concrete, ExecutionContext, IntervalCarry, UtilityMeasure};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Counters the kernel accumulates across [`OrderingKernel::find_best`]
/// calls. All counters are monotone; snapshot via [`OrderingKernel::stats`]
/// and diff to meter a single call.
///
/// They are the kernel's own counts, kept in plain fields. After
/// [`OrderingKernel::with_obs`] each call also adds what it counted to the
/// shared registry's `qpo_kernel_*_total` counters, once, at its end.
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
    /// Calls answered by the [`Pi`](crate::Pi) an [`IDrips`](crate::IDrips)
    /// hands its remaining plans to. Their evaluations count into
    /// `interval_evals`; a row that stands is no cache hit.
    pub floor_calls: u64,
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

/// A registry counter and the [`KernelStats`] field published to it.
type Published = (&'static str, fn(&KernelStats) -> u64);

/// Every [`KernelStats`] counter and its registry counter
/// ([`OrderingKernel::with_obs`]).
#[rustfmt::skip]
const PUBLISHED: [Published; 11] = [
    ("qpo_kernel_rounds_total", |s| s.rounds),
    ("qpo_kernel_refinements_total", |s| s.refinements),
    ("qpo_kernel_dominance_checks_total", |s| s.dominance_checks),
    ("qpo_kernel_eliminations_total", |s| s.eliminations),
    ("qpo_kernel_champion_sweeps_total", |s| s.champion_sweeps),
    ("qpo_kernel_interval_evals_total", |s| s.interval_evals),
    ("qpo_kernel_interval_resumes_total", |s| s.interval_resumes),
    ("qpo_kernel_interval_cache_hits_total", |s| s.interval_cache_hits),
    ("qpo_kernel_tree_builds_total", |s| s.tree_builds),
    ("qpo_kernel_tree_cache_hits_total", |s| s.tree_cache_hits),
    ("qpo_kernel_floor_calls_total", |s| s.floor_calls),
];

/// One handle per [`PUBLISHED`] row, and the histogram of the widths
/// (`hi − lo`) of freshly evaluated intervals with this call's widths.
type Handles = ([Counter; PUBLISHED.len()], Histogram, Vec<f64>);

/// Outcome of a Drips search: the best concrete plan across the spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct DripsOutcome {
    /// Index of the plan space the winner came from.
    pub space: usize,
    /// The winning concrete plan.
    pub plan: Vec<usize>,
    /// Its exact utility under the search context.
    pub utility: f64,
    /// Number of refinement steps performed.
    pub refinements: usize,
}

/// Plans built — as spaces' roots or a refined parent's children — but
/// not yet evaluated, so not yet in the pool: plan `i` is `spaces[i]`
/// and the `dims` node ids at `nodes[i * dims..]`. Kept across rounds
/// with the memo-key scratch, so a refinement allocates nothing.
#[derive(Debug, Default)]
struct Batch {
    spaces: Vec<usize>,
    nodes: Vec<NodeId>,
    key: Vec<u32>,
}

/// A plan in the refinement pool — the pool holds only evaluated plans.
/// Its node per bucket lives in the pool's flat node arena, its
/// candidate sets in its memo entry.
#[derive(Debug, Clone)]
struct PoolPlan {
    /// Which plan space this plan belongs to (iDrips runs Drips over
    /// several spaces at once).
    space: usize,
    /// Index of its memo entry.
    entry: usize,
    /// The bucket a refinement splits: the widest abstract one, the last
    /// among equals; `None` for a concrete plan.
    split: Option<usize>,
    utility: Interval,
    alive: bool,
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
///
/// A certificate's replay, [`qpo_obs::EliminationCertificate::comparison_holds`],
/// must agree with it on every input; a unit test below pins the two.
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

/// Max-heap key for refinement-target selection: maximum upper bound
/// first, smallest id on ties. `hi` is normalized (`-0.0 → +0.0`), so the
/// order agrees with the IEEE comparisons of the reference kernel, and
/// mapped to the integer whose order is [`f64::total_cmp`]'s, so it stays
/// total (no panic) even if a degenerate measure ever smuggled a NaN past
/// [`Interval`]'s constructor.
pub(crate) fn heap_key(hi: f64, id: usize) -> (i64, Reverse<usize>) {
    // +0.0 normalizes -0.0 and leaves every other value unchanged.
    let bits = (hi + 0.0).to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, Reverse(id))
}

/// A memoized utility interval of the candidate sets `cands`: valid as
/// is while the context holds the `seen` executed plans it accounts for,
/// resumable from `carry` once more are appended.
#[derive(Debug)]
struct MemoEntry {
    cands: Vec<Vec<usize>>,
    interval: Interval,
    seen: usize,
    carry: IntervalCarry,
}

/// The interval memo: a slab of entries, and an index from a plan's set
/// ids (one per bucket) to its entry.
#[derive(Debug, Default)]
struct Memo {
    entries: Vec<MemoEntry>,
    index: IdMap<Box<[u32]>, u32>,
}

/// An abstraction tree and the kernel-wide candidate-set id of each of
/// its nodes.
#[derive(Debug)]
struct SetTree {
    tree: AbstractionTree,
    ids: Vec<u32>,
}

/// A multiplicative (Fx-style) hasher for the memo index. Its keys are
/// set ids the kernel hands out itself, so it need not resist
/// adversarial collisions the way the default SipHash does.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let mixed = self.0.rotate_left(5) ^ u64::from_le_bytes(word);
            self.0 = mixed.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map under [`IdHasher`]: every kernel table is keyed on values
/// the kernel builds itself.
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The reusable state of the incremental kernel: hash-consed abstraction
/// trees, the interval memo table, and the accumulated [`KernelStats`].
///
/// A kernel instance must be driven with a fixed `(instance, measure,
/// heuristic)` triple and a single [`ExecutionContext`] lineage (the one
/// an orderer owns and mutates) — the caches key on candidate sets, the
/// context's history length and its retraction count only.
/// [`IDrips`](crate::IDrips) owns one kernel per orderer, which satisfies
/// both conditions by construction.
#[derive(Debug)]
pub struct OrderingKernel {
    /// Bucket → candidate set → tree (nested so a lookup borrows `cands`).
    trees: IdMap<usize, IdMap<Vec<usize>, Arc<SetTree>>>,
    /// `(bucket, candidate set)` → its kernel-wide id, for every node of
    /// every tree built so far.
    set_ids: IdMap<(usize, Vec<usize>), u32>,
    memo: Memo,
    /// [`ExecutionContext::retractions`] the memoized carries were built
    /// under: while it stands still, the history only grew by appends.
    retractions: u64,
    counts: KernelStats,
    /// Where `counts` is published.
    metrics: Option<Handles>,
    journal: TraceJournal,
    batch: Batch,
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
            trees: IdMap::default(),
            set_ids: IdMap::default(),
            memo: Memo::default(),
            retractions: 0,
            counts: KernelStats::default(),
            metrics: None,
            journal: TraceJournal::default(),
            batch: Batch::default(),
        }
    }

    /// Publishes the kernel's counts to a shared registry, each call's at
    /// its end, and adopts its trace journal. Call right after
    /// construction — counts from before are not published.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        let counters = PUBLISHED.map(|(name, _)| obs.registry.counter(name, &[]));
        let width = obs.registry.histogram("qpo_kernel_interval_width", &[]);
        self.metrics = Some((counters, width, Vec::new()));
        self.journal = obs.journal.clone();
        self
    }

    /// Snapshot of this kernel's own counters (see [`KernelStats`]).
    pub fn stats(&self) -> KernelStats {
        self.counts
    }

    /// Adds the counts since `before` to the shared registry, if any.
    fn publish(&mut self, before: &KernelStats) {
        let Some((counters, width, widths)) = &mut self.metrics else {
            return;
        };
        for ((_, field), counter) in PUBLISHED.iter().zip(counters.iter()) {
            counter.add(field(&self.counts) - field(before));
        }
        width.record_all(widths);
        widths.clear();
    }

    fn tree<H: AbstractionHeuristic + ?Sized>(
        &mut self,
        inst: &ProblemInstance,
        bucket: usize,
        cands: &[usize],
        heuristic: &H,
    ) -> Arc<SetTree> {
        let table = self.trees.entry(bucket).or_default();
        if let Some(t) = table.get(cands) {
            self.counts.tree_cache_hits += 1;
            return Arc::clone(t);
        }
        self.counts.tree_builds += 1;
        let tree = AbstractionTree::build(inst, bucket, cands, heuristic);
        let ids = (0..tree.node_count()).map(|n| {
            let next = self.set_ids.len() as u32;
            *self
                .set_ids
                .entry((bucket, tree.indices(n).to_vec()))
                .or_insert(next)
        });
        let t = Arc::new(SetTree {
            ids: ids.collect(),
            tree,
        });
        table.insert(cands.to_vec(), Arc::clone(&t));
        t
    }

    /// Runs Drips over the given plan spaces under `ctx`, returning the
    /// best concrete plan across all of them (or `None` when there are no
    /// spaces).
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
        let before = self.counts;
        // Context-free measures cache forever. Context-sensitive entries
        // resume across appends; a retraction since the last call means
        // their carries folded in a plan that is gone.
        if !measure.context_free() && self.retractions != ctx.retractions() {
            self.memo = Memo::default();
            self.retractions = ctx.retractions();
        }
        // The context is fixed for the whole call; every certificate
        // recorded below replays against this epoch.
        let epoch = ctx.epoch();

        // One (hash-consed) tree per (space, bucket).
        let trees: Vec<Vec<Arc<SetTree>>> = spaces
            .iter()
            .map(|space| {
                space
                    .iter()
                    .enumerate()
                    .map(|(b, cands)| self.tree(inst, b, cands, heuristic))
                    .collect()
            })
            .collect();

        self.batch.spaces.extend(0..trees.len());
        self.batch
            .nodes
            .extend(trees.iter().flatten().map(|t| t.tree.root()));
        // Every space has one bucket per subgoal; plan `id`'s nodes are
        // `nodes[id * dims..][..dims]`.
        let dims = spaces[0].len();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(spaces.len() * dims);
        let mut plans: Vec<PoolPlan> = Vec::with_capacity(spaces.len());
        let mut frontier: BinaryHeap<(i64, Reverse<usize>)> =
            BinaryHeap::with_capacity(spaces.len());
        let mut champion: Option<usize> = None;
        let mut refinements = 0usize;

        let best = loop {
            self.counts.rounds += 1;
            // (a) evaluate the built plans into the pool (memoized) and
            // queue the abstract ones for refinement.
            let pending = self.evaluate(inst, measure, ctx, &trees, &mut plans, &mut nodes);
            for id in pending.clone() {
                if plans[id].split.is_some() {
                    frontier.push(heap_key(plans[id].utility.hi(), id));
                }
            }

            // (b) update the champion, then eliminate against it.
            let prev = champion;
            let key = |id: usize| (plans[id].utility, id);
            let better = |a, b| if champion_beats(key(a), key(b)) { a } else { b };
            let champ = match champion.filter(|&c| plans[c].alive) {
                // Alive plans never change, so the champion can only be
                // dethroned by one of the fresh plans.
                Some(c) => pending.clone().fold(c, |c, id| better(id, c)),
                // The previous champion was refined away (or this is the
                // first round): recompute from scratch.
                None => (0..plans.len())
                    .filter(|&id| plans[id].alive)
                    .reduce(better)
                    .expect("the champion is never eliminated, so a plan stays alive"),
            };
            champion = Some(champ);
            let champ_u = plans[champ].utility;
            // A new champion's reach is unknown: sweep everything. The
            // same champion was already withstood by every survivor: only
            // the fresh plans need checking.
            let checked = if prev != champion {
                self.counts.champion_sweeps += 1;
                0..plans.len()
            } else {
                pending.clone()
            };
            // The champion is fixed across the sweep: encode its
            // candidate sets once and let every elimination event copy
            // the bytes instead of re-formatting them.
            let champ_enc = self
                .journal
                .is_enabled()
                .then(|| encode_candidates(&self.memo.entries[plans[champ].entry].cands));
            for id in checked {
                if id == champ || !plans[id].alive {
                    continue;
                }
                self.counts.dominance_checks += 1;
                if eliminates((champ_u, champ), (plans[id].utility, id)) {
                    self.kill(&mut plans, id, champ, epoch, champ_enc.as_deref());
                }
            }

            // (c) refine the most promising abstract survivor; when the
            // frontier runs dry every survivor is concrete and the
            // champion — max lower bound, smallest id — is the winner.
            let target = loop {
                let Some((_, Reverse(id))) = frontier.pop() else {
                    break None;
                };
                // Entries of eliminated or refined plans are stale.
                if let (true, Some(bucket)) = (plans[id].alive, plans[id].split) {
                    break Some((id, bucket));
                }
            };
            let Some((target_id, bucket)) = target else {
                let winner = &plans[champ];
                let cands = &self.memo.entries[winner.entry].cands;
                let plan = as_concrete(cands).expect("survivors are concrete");
                break DripsOutcome {
                    space: winner.space,
                    plan,
                    utility: champ_u.lo(),
                    refinements,
                };
            };
            refinements += 1;
            self.counts.refinements += 1;
            // Split the plan's split bucket: replace its node by the
            // children, one child plan each.
            let parent = &mut plans[target_id];
            parent.alive = false;
            let space = parent.space;
            let parent_nodes = &nodes[target_id * dims..][..dims];
            for &child in trees[space][bucket].tree.children(parent_nodes[bucket]) {
                self.batch.spaces.push(space);
                let at = self.batch.nodes.len();
                self.batch.nodes.extend_from_slice(parent_nodes);
                self.batch.nodes[at + bucket] = child;
            }
        };
        self.publish(&before);
        Some(best)
    }

    /// Eliminates plan `id`, dominated by `champ` at context `epoch`.
    /// Its provenance is captured when tracing is on (`champ_enc`, the
    /// champion's encoded candidate sets, is then `Some`): a
    /// `kernel_elimination` event
    /// carrying every field of an [`qpo_obs::EliminationCertificate`]
    /// (`EliminationCertificate::from_record` reads it back), which is
    /// enough to replay the comparison.
    fn kill(
        &mut self,
        plans: &mut [PoolPlan],
        id: usize,
        champ: usize,
        epoch: u64,
        champ_enc: Option<&str>,
    ) {
        self.counts.eliminations += 1;
        if let Some(champion_enc) = champ_enc {
            let (champ_u, victim_u) = (plans[champ].utility, plans[id].utility);
            let victim_enc = encode_candidates(&self.memo.entries[plans[id].entry].cands);
            self.journal.record(
                "kernel_elimination",
                vec![
                    ("plan_id", Value::U64(id as u64)),
                    ("champion_id", Value::U64(champ as u64)),
                    ("victim", Value::Str(victim_enc.into())),
                    ("champion", Value::Str(champion_enc.to_owned().into())),
                    ("victim_lo", Value::F64(victim_u.lo())),
                    ("victim_hi", Value::F64(victim_u.hi())),
                    ("champion_lo", Value::F64(champ_u.lo())),
                    ("champion_hi", Value::F64(champ_u.hi())),
                    ("epoch", Value::U64(epoch)),
                ],
            );
        }
        plans[id].alive = false;
    }

    /// Evaluates the built batch and appends it to the pool, alive,
    /// returning the new ids. A memo entry that already accounts for every
    /// executed plan answers outright; an older one resumes from its
    /// carry; a plan whose set ids were never seen gets an entry, its
    /// candidate sets materialized here once, and starts from scratch.
    fn evaluate<M: UtilityMeasure + ?Sized>(
        &mut self,
        inst: &ProblemInstance,
        measure: &M,
        ctx: &ExecutionContext,
        trees: &[Vec<Arc<SetTree>>],
        plans: &mut Vec<PoolPlan>,
        nodes: &mut Vec<NodeId>,
    ) -> Range<usize> {
        let first = plans.len();
        let context_free = measure.context_free();
        let dims = trees[0].len();
        let Batch {
            spaces,
            nodes: built,
            key,
        } = &mut self.batch;
        for (i, &space) in spaces.iter().enumerate() {
            let plan_nodes = &built[i * dims..][..dims];
            let space_trees = plan_nodes.iter().zip(&trees[space]);
            key.clear();
            key.extend(space_trees.clone().map(|(&n, t)| t.ids[n]));
            let Memo { entries, index } = &mut self.memo;
            let known = index.get(key.as_slice()).map(|&e| e as usize);
            let entry = known.unwrap_or_else(|| {
                index.insert(key.as_slice().into(), entries.len() as u32);
                entries.push(MemoEntry {
                    cands: space_trees
                        .map(|(&n, t)| t.tree.indices(n).to_vec())
                        .collect(),
                    interval: Interval::ZERO,
                    seen: 0,
                    carry: IntervalCarry::default(),
                });
                entries.len() - 1
            });
            let memo = &mut entries[entry];
            if known.is_some() && (context_free || memo.seen == ctx.len()) {
                self.counts.interval_cache_hits += 1;
            } else {
                self.counts.interval_evals += 1;
                if !memo.carry.is_fresh() {
                    self.counts.interval_resumes += 1;
                }
                let iv = measure.resume_interval(inst, &memo.cands, ctx, &mut memo.carry);
                memo.interval = iv;
                memo.seen = ctx.len();
                if let Some((_, _, widths)) = &mut self.metrics {
                    widths.push(iv.hi() - iv.lo());
                }
            }
            let width = |b: usize| memo.cands[b].len();
            plans.push(PoolPlan {
                space,
                entry,
                split: (0..dims)
                    .filter(|&b| width(b) > 1)
                    .max_by_key(|&b| width(b)),
                utility: memo.interval,
                alive: true,
            });
        }
        nodes.append(built);
        spaces.clear();
        first..plans.len()
    }

    /// Counts one call [`Pi`](crate::Pi) answered for an orderer of this
    /// kernel, and the `evaluations` it made.
    pub(crate) fn count_brute_force(&mut self, evaluations: u64) {
        let before = self.counts;
        self.counts.floor_calls += 1;
        self.counts.interval_evals += evaluations;
        self.publish(&before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::ByExpectedTuples;
    use crate::planspace::full_space;
    use qpo_catalog::{Extent, GeneratorConfig, SourceStats};
    use qpo_obs::EliminationCertificate;
    use qpo_utility::{CountingMeasure, Coverage, FailureCost, MonetaryCost};

    /// One Drips search on a fresh kernel.
    fn find_best<M: UtilityMeasure + ?Sized>(
        inst: &ProblemInstance,
        m: &M,
        ctx: &ExecutionContext,
        spaces: &[PlanSpace],
    ) -> Option<DripsOutcome> {
        OrderingKernel::new().find_best(inst, m, ctx, spaces, &ByExpectedTuples)
    }

    fn coverage_inst() -> ProblemInstance {
        let src = |s, l| SourceStats::new().with_extent(Extent::new(s, l));
        ProblemInstance::new(
            1.0,
            vec![20, 20],
            vec![
                vec![src(0, 8), src(5, 8), src(14, 6)],
                vec![src(0, 10), src(9, 10), src(3, 4)],
            ],
        )
        .unwrap()
    }

    fn brute_best<M: UtilityMeasure>(inst: &ProblemInstance, m: &M, ctx: &ExecutionContext) -> f64 {
        inst.all_plans()
            .iter()
            .map(|p| m.utility(inst, p, ctx))
            .fold(f64::MIN, f64::max)
    }

    #[test]
    fn heap_entry_order_matches_ieee_with_id_tiebreak() {
        assert!(
            heap_key(1.0, 3) > heap_key(1.0, 5),
            "equal hi: smaller id wins"
        );
        assert!(heap_key(2.0, 9) > heap_key(1.0, 0));
        // -0.0 normalizes to +0.0, so ties still break on id.
        assert!(heap_key(-0.0, 1) > heap_key(0.0, 2));
        assert!(heap_key(0.0, 1) > heap_key(-0.0, 2));
        // Otherwise the key orders exactly as `total_cmp` does.
        let values = [
            f64::NEG_INFINITY,
            -2.5,
            -1e-300,
            0.0,
            1e-300,
            0.5,
            3.0,
            f64::NAN,
        ];
        for a in values {
            for b in values {
                let (ka, kb) = (heap_key(a, 0).0, heap_key(b, 0).0);
                assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn eliminates_is_the_certificate_replay() {
        // Every interval over these bounds: signed zeros, equal lower
        // bounds, and bounds that touch.
        let bounds = [-1.0, -0.0, 0.0, 0.5, 1.0];
        let intervals: Vec<Interval> = bounds
            .iter()
            .flat_map(|&lo| {
                bounds
                    .iter()
                    .filter(move |&&hi| lo <= hi)
                    .map(move |&hi| (lo, hi))
            })
            .map(|(lo, hi)| Interval::new(lo, hi))
            .collect();
        for &c in &intervals {
            for &v in &intervals {
                for (ic, iv) in [(0usize, 1usize), (1, 0), (3, 3)] {
                    let cert = EliminationCertificate {
                        victim_id: iv as u64,
                        champion_id: ic as u64,
                        victim: Vec::new(),
                        champion: Vec::new(),
                        victim_interval: (v.lo(), v.hi()),
                        champion_interval: (c.lo(), c.hi()),
                        epoch: 0,
                    };
                    assert_eq!(
                        eliminates((c, ic), (v, iv)),
                        cert.comparison_holds(),
                        "champion {c:?} #{ic} vs victim {v:?} #{iv}"
                    );
                }
            }
        }
    }

    #[test]
    fn finds_the_best_plan_for_coverage() {
        let inst = coverage_inst();
        let ctx = ExecutionContext::new();
        let out = find_best(&inst, &Coverage, &ctx, &[full_space(&inst)]).unwrap();
        assert_eq!(out.utility, brute_best(&inst, &Coverage, &ctx));
        assert_eq!(out.space, 0);
    }

    #[test]
    fn finds_best_across_measures_on_generated_instances() {
        for seed in 0..5u64 {
            let inst = GeneratorConfig::new(3, 6).with_seed(seed).build();
            let ctx = ExecutionContext::new();
            let spaces = [full_space(&inst)];
            let cov = find_best(&inst, &Coverage, &ctx, &spaces).unwrap();
            assert!(
                (cov.utility - brute_best(&inst, &Coverage, &ctx)).abs() < 1e-12,
                "seed {seed} coverage"
            );
            let fc = FailureCost::without_caching();
            let out = find_best(&inst, &fc, &ctx, &spaces).unwrap();
            assert!(
                (out.utility - brute_best(&inst, &fc, &ctx)).abs() < 1e-9,
                "seed {seed} failure-cost"
            );
            let mc = MonetaryCost::without_caching();
            let out = find_best(&inst, &mc, &ctx, &spaces).unwrap();
            assert!(
                (out.utility - brute_best(&inst, &mc, &ctx)).abs() < 1e-9,
                "seed {seed} monetary"
            );
        }
    }

    #[test]
    fn respects_the_execution_context() {
        let inst = coverage_inst();
        let spaces = [full_space(&inst)];
        let mut ctx = ExecutionContext::new();
        let first = find_best(&inst, &Coverage, &ctx, &spaces).unwrap();
        ctx.record(&first.plan);
        // The best plan given the first was executed: brute-force check.
        let second = find_best(&inst, &Coverage, &ctx, &spaces).unwrap();
        assert!((second.utility - brute_best(&inst, &Coverage, &ctx)).abs() < 1e-12);
    }

    #[test]
    fn evaluates_fewer_plans_than_brute_force_when_abstraction_helps() {
        // Many similar sources: abstraction prunes aggressively.
        let inst = GeneratorConfig::new(3, 12).with_seed(11).build();
        let m = CountingMeasure::new(FailureCost::without_caching());
        let ctx = ExecutionContext::new();
        find_best(&inst, &m, &ctx, &[full_space(&inst)]).unwrap();
        let total = m.total_evals();
        assert!(
            (total as usize) < inst.plan_count(),
            "Drips evaluated {total} ≥ {} plans",
            inst.plan_count()
        );
    }

    #[test]
    fn searches_multiple_spaces() {
        let inst = coverage_inst();
        let ctx = ExecutionContext::new();
        // Two disjoint sub-spaces; best plan must carry the right space id.
        let spaces = [
            vec![vec![0], vec![0, 1, 2]],
            vec![vec![1, 2], vec![0, 1, 2]],
        ];
        let out = find_best(&inst, &Coverage, &ctx, &spaces).unwrap();
        assert!((out.utility - brute_best(&inst, &Coverage, &ctx)).abs() < 1e-12);
        assert!(out.space < 2);
        // Empty space list → None.
        assert!(find_best(&inst, &Coverage, &ctx, &[]).is_none());
    }

    #[test]
    fn tie_handling_never_eliminates_all() {
        // All sources identical: every plan ties; Drips must still return one.
        let src = || SourceStats::new().with_extent(Extent::new(0, 5));
        let inst = ProblemInstance::new(
            0.0,
            vec![10, 10],
            vec![vec![src(), src(), src(), src()], vec![src(), src()]],
        )
        .unwrap();
        let ctx = ExecutionContext::new();
        let out = find_best(&inst, &Coverage, &ctx, &[full_space(&inst)]).unwrap();
        assert_eq!(out.utility, 0.25);
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
    }

    #[test]
    fn memo_keys_rederive_their_candidate_sets() {
        // The `order-coverage` shape: 3 buckets × 5 sources over a
        // universe of 12 per axis, extents overlapping. Ordered to
        // exhaustion the way iDrips does, so trees are built for many
        // different spaces and their set ids must never collide.
        let src = |b: u64, j: u64| {
            SourceStats::new().with_extent(Extent::new((2 * j + b) % 6, 4 + (j + 2 * b) % 4))
        };
        let buckets = (0..3)
            .map(|b| (0..5).map(|j| src(b, j)).collect())
            .collect();
        let inst = ProblemInstance::new(1.0, vec![12; 3], buckets).unwrap();
        let mut kernel = OrderingKernel::new();
        let mut ctx = ExecutionContext::new();
        let mut spaces = vec![full_space(&inst)];
        while let Some(out) = kernel.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples) {
            let space = spaces.swap_remove(out.space);
            spaces.extend(crate::planspace::remove_plan(&space, &out.plan));
            ctx.record(&out.plan);
        }
        assert_eq!(ctx.len(), inst.plan_count());

        assert_eq!(kernel.memo.entries.len(), kernel.memo.index.len());
        let sets: HashMap<u32, &(usize, Vec<usize>)> =
            kernel.set_ids.iter().map(|(set, &id)| (id, set)).collect();
        assert_eq!(sets.len(), kernel.set_ids.len(), "set ids are distinct");
        let mut seen = std::collections::HashSet::new();
        for (key, &entry) in &kernel.memo.index {
            let cands = &kernel.memo.entries[entry as usize].cands;
            assert_eq!(key.len(), cands.len());
            for (b, id) in key.iter().enumerate() {
                assert_eq!(sets[id], &(b, cands[b].clone()), "key {key:?}, bucket {b}");
            }
            assert!(seen.insert(cands), "two keys share {cands:?}");
        }
    }
}
