//! Streamer (§5.2, Figure 5): abstraction-based ordering with dominance
//! recycling.
//!
//! Streamer abstracts sources **once**, then maintains a *dominance graph*
//! whose nodes are (abstract and concrete) plans and whose edges `p → q`
//! record that some member of `p` dominates everything in `q`. Each edge
//! carries the set `E(p, q)` of plans removed since the edge was created;
//! an edge survives the removal of plan `d` iff some member of `p` is
//! independent of every plan in `E(p,q) ∪ {d}` — then that member's utility
//! is unchanged while `q`'s can only have fallen (diminishing returns), so
//! the dominance still holds. This recycling is what lets Streamer avoid
//! re-deriving the dominance work iDrips redoes every round.
//!
//! The nodes live in a slab indexed by id; ids are handed out in
//! increasing order, so walking the slab is walking the ids in order.
//! Every node has at most one incoming edge, so the edge lives on the node
//! it points at (`SNode::dominator`): step 2.b links only from and to
//! plans no edge points at yet, since one incoming edge already makes a
//! plan dominated. A node is nondominated iff it holds no edge; removing a
//! node drops its own edge with it and clears the edges that start at it.
//!
//! Within one call the work follows what changed. The nondominated plans
//! and their utilities are kept in id order as they change, and a node is
//! *fresh* from its creation, a step-2.a recomputation of its utility, or
//! the loss of its edge (its source refined or emitted, or a failed 2.d
//! check) until the end of the next 2.b pass. That pass compares a fresh
//! plan with every nondominated plan, and any other plan with the fresh
//! ones only. This is exact: two nondominated plans that are not fresh
//! were both nondominated, with the same utilities, all through the last
//! pass, which left them unlinked; `dominates` reads only the two
//! utilities (and ties go by a rank fixed per node), so they cannot link now.
//!
//! Utilities are recycled the same way: a node whose utility step 2.d
//! resets to nil keeps its [`IntervalCarry`], so step 2.a's recomputation
//! folds in only the plans output since the node was last evaluated (the
//! orderer's context is append-only: Streamer never retracts).
//!
//! Applicable only when the measure exhibits utility-diminishing returns.

use crate::abstraction::{AbstractionHeuristic, AbstractionTree, NodeId};
use crate::orderer::{OrderedPlan, OrdererError, PlanOrderer};
use crate::planspace::space_size;
use qpo_catalog::ProblemInstance;
use qpo_interval::Interval;
use qpo_obs::{Counter, Obs};
use qpo_utility::{as_concrete, ExecutionContext, IntervalCarry, UtilityMeasure};
use std::mem::take;

/// Work counters exposed for the experiments: the orderer's own, kept in
/// plain fields. After [`Streamer::with_obs`] each `next_plan` also adds
/// what it counted to the shared `qpo_streamer_*_total` counters, once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamerStats {
    /// Refinements of abstract plans (Step 2.c).
    pub refinements: usize,
    /// Dominance links created (Step 2.b).
    pub links_created: usize,
    /// Link validity checks that passed, extending `E(p,q)` (Step 2.d).
    pub links_recycled: usize,
    /// Links removed because validity could not be certified.
    pub links_invalidated: usize,
    /// Utility (re)computations (Step 2.a).
    pub utility_recomputations: usize,
    /// The recomputations among them that resumed from the node's carry
    /// instead of starting over.
    pub utility_resumes: usize,
}

/// A registry counter and the [`StreamerStats`] field published to it.
type Published = (&'static str, fn(&StreamerStats) -> usize);

/// Every [`StreamerStats`] counter and its registry counter
/// ([`Streamer::with_obs`]).
#[rustfmt::skip]
const PUBLISHED: [Published; 6] = [
    ("qpo_streamer_refinements_total", |s| s.refinements),
    ("qpo_streamer_links_created_total", |s| s.links_created),
    ("qpo_streamer_links_recycled_total", |s| s.links_recycled),
    ("qpo_streamer_links_invalidated_total", |s| s.links_invalidated),
    ("qpo_streamer_utility_recomputations_total", |s| s.utility_recomputations),
    ("qpo_streamer_utility_resumes_total", |s| s.utility_resumes),
];

#[derive(Debug, Clone, Default)]
struct SNode {
    /// Abstraction-tree node per bucket.
    nodes: Vec<NodeId>,
    /// Candidate indices per bucket (materialized from `nodes`).
    cands: Vec<Vec<usize>>,
    /// `None` = nil in the paper's pseudocode (needs recomputation).
    utility: Option<Interval>,
    /// Where the last computation of `utility` left off; outlives the nil.
    carry: IntervalCarry,
    /// The one dominance link into this plan; `None` = nondominated.
    dominator: Option<Link>,
    /// The plans this one has linked (stale once such a link goes).
    dominates: Vec<usize>,
}

impl SNode {
    /// The bucket a refinement splits (the widest); `None` = concrete.
    fn widest_bucket(&self) -> Option<usize> {
        (0..self.cands.len())
            .filter(|&b| self.cands[b].len() > 1)
            .max_by_key(|&b| self.cands[b].len())
    }
}

/// A dominance link `from → q`, held by the plan `q` it dominates.
#[derive(Debug, Clone)]
struct Link {
    from: usize,
    /// The paper's `E(p,q)`: plans removed since the link was created.
    removed: Vec<Vec<usize>>,
}

/// The Streamer plan orderer.
pub struct Streamer<'a, M: UtilityMeasure + ?Sized> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    trees: Vec<AbstractionTree>,
    ctx: ExecutionContext,
    /// The graph, indexed by node id; `None` once a node is removed.
    nodes: Vec<Option<SNode>>,
    /// The nondominated plans and their utilities, in id order (as of the
    /// last step 2.a, less the plans linked or removed since).
    top: Vec<(usize, Interval)>,
    /// Plans turned fresh since the last step 2.a: created, unlinked, or
    /// reset to nil while nondominated.
    pending: Vec<usize>,
    counts: StreamerStats,
    /// One registry handle per [`PUBLISHED`] row.
    metrics: Option<[Counter; PUBLISHED.len()]>,
}

impl<'a, M: UtilityMeasure + ?Sized> Streamer<'a, M> {
    /// Creates the orderer; sources are abstracted once, here. Fails if the
    /// measure lacks utility-diminishing returns.
    pub fn new<H: AbstractionHeuristic + ?Sized>(
        inst: &'a ProblemInstance,
        measure: &'a M,
        heuristic: &H,
    ) -> Result<Self, OrdererError> {
        if !measure.diminishing_returns() {
            return Err(OrdererError::NoDiminishingReturns(measure.name()));
        }
        let trees: Vec<AbstractionTree> = inst
            .buckets
            .iter()
            .enumerate()
            .map(|(b, bucket)| {
                let all: Vec<usize> = (0..bucket.len()).collect();
                AbstractionTree::build(inst, b, &all, heuristic)
            })
            .collect();
        let root = SNode {
            nodes: trees.iter().map(AbstractionTree::root).collect(),
            cands: trees.iter().map(|t| t.indices(t.root()).to_vec()).collect(),
            ..SNode::default()
        };
        Ok(Streamer {
            inst,
            measure,
            trees,
            ctx: ExecutionContext::new(),
            nodes: vec![Some(root)],
            top: Vec::new(),
            pending: vec![0],
            counts: StreamerStats::default(),
            metrics: None,
        })
    }

    /// Publishes the orderer's counters to a shared registry, each
    /// `next_plan`'s at its end. Call right after construction — counts
    /// from before are not published.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.metrics = Some(PUBLISHED.map(|(name, _)| obs.registry.counter(name, &[])));
        self
    }

    /// This orderer's own work counters (see [`StreamerStats`]).
    pub fn stats(&self) -> StreamerStats {
        self.counts
    }

    /// Removes a nondominated plan and the links it is the source of; the
    /// plans they held turn fresh.
    fn remove_node_and_links(&mut self, id: usize) -> Option<SNode> {
        let node = self.nodes.get_mut(id)?.take()?;
        self.top.retain(|&(t, _)| t != id);
        for &t in &node.dominates {
            let Some(held) = self.nodes[t].as_mut() else {
                continue;
            };
            if held.dominator.as_ref().is_some_and(|l| l.from == id) {
                held.dominator = None;
                self.pending.push(t);
            }
        }
        Some(node)
    }

    /// Step 2.b's tie rank, fixed per node: member count, then id.
    fn rank(&self, id: usize) -> (usize, usize) {
        let members = self.nodes[id].as_ref().map_or(0, |n| space_size(&n.cands));
        (members, id)
    }

    /// Step 2.c: replace an abstract plan, just removed, by its children
    /// (splitting `bucket`, its widest).
    fn refine(&mut self, mut parent: SNode, bucket: usize) {
        let tree = &self.trees[bucket];
        let children = tree.children(parent.nodes[bucket]);
        for (i, &child) in children.iter().enumerate() {
            // The last child takes the parent's vectors over.
            let (mut nodes, mut cands) = if i + 1 < children.len() {
                (parent.nodes.clone(), parent.cands.clone())
            } else {
                (take(&mut parent.nodes), take(&mut parent.cands))
            };
            nodes[bucket] = child;
            cands[bucket].clear();
            cands[bucket].extend_from_slice(tree.indices(child));
            self.pending.push(self.nodes.len());
            let node = SNode {
                nodes,
                cands,
                ..SNode::default()
            };
            self.nodes.push(Some(node));
        }
        self.counts.refinements += 1;
    }
}

impl<M: UtilityMeasure + ?Sized> PlanOrderer for Streamer<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "streamer"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let before = self.counts;
        let next = loop {
            // Step 2.a: recompute nil utilities of nondominated plans —
            // all of them fresh — and enter the fresh plans in `top`.
            self.pending.sort_unstable();
            self.pending.dedup();
            let mut fresh: Vec<(usize, Interval)> = Vec::with_capacity(self.pending.len());
            for id in self.pending.drain(..) {
                let Some(node) = self.nodes[id].as_mut() else {
                    continue;
                };
                let u = match node.utility {
                    Some(u) => u,
                    None => {
                        if !node.carry.is_fresh() {
                            self.counts.utility_resumes += 1;
                        }
                        self.counts.utility_recomputations += 1;
                        *node.utility.insert(self.measure.resume_interval(
                            self.inst,
                            &node.cands,
                            &self.ctx,
                            &mut node.carry,
                        ))
                    }
                };
                match self.top.binary_search_by_key(&id, |&(t, _)| t) {
                    Ok(i) => self.top[i].1 = u,
                    Err(i) => self.top.insert(i, (id, u)),
                }
                fresh.push((id, u));
            }
            // Step 2.b: create dominance links among nondominated pairs
            // with a fresh end (module doc). One incoming link suffices to
            // make a plan dominated, so skip targets that are already
            // dominated (keeps tied clusters at O(t) links instead of
            // O(t²); dropping redundant links is always sound).
            let mut f = 0;
            for &(b, ub) in &self.top {
                while fresh.get(f).is_some_and(|&(id, _)| id < b) {
                    f += 1;
                }
                if self.nodes[b].as_ref().is_none_or(|n| n.dominator.is_some()) {
                    continue; // a dominated plan need not dominate others
                }
                let is_fresh = fresh.get(f).is_some_and(|&(id, _)| id == b);
                let rank = self.rank(b);
                for &(c, uc) in if is_fresh { &self.top } else { &fresh } {
                    // Mutual (tied) dominance: orient by rank so the smaller
                    // plan of each tied pair stays nondominated.
                    if b == c || !ub.dominates(uc) || (uc.dominates(ub) && rank > self.rank(c)) {
                        continue;
                    }
                    let target = self.nodes[c].as_mut();
                    if let Some(target) = target.filter(|t| t.dominator.is_none()) {
                        target.dominator = Some(Link {
                            from: b,
                            removed: Vec::new(),
                        });
                        self.counts.links_created += 1;
                        if let Some(source) = self.nodes[b].as_mut() {
                            source.dominates.push(c);
                        }
                    }
                }
            }
            let nodes = &self.nodes;
            self.top
                .retain(|&(id, _)| nodes[id].as_ref().is_some_and(|n| n.dominator.is_none()));
            // Step 2.c: refine an abstract nondominated plan, if any (the
            // one with the highest optimistic utility).
            let to_refine = self
                .top
                .iter()
                .filter_map(|&(id, u)| Some((id, u, nodes[id].as_ref()?.widest_bucket()?)))
                .max_by(|(a, ua, _), (b, ub, _)| {
                    crate::utility_cmp(ua.hi(), ub.hi()).then(b.cmp(a))
                })
                .and_then(|(id, _, bucket)| Some((self.remove_node_and_links(id)?, bucket)));
            if let Some((parent, bucket)) = to_refine {
                self.refine(parent, bucket);
                continue;
            }
            // Step 2.d: every nondominated plan is a concrete point, and points
            // compare, so 2.b left one; output it. Only an empty forest has none.
            let d = self.top.first().copied();
            let d_plan = d.and_then(|(id, _)| as_concrete(&self.nodes[id].as_ref()?.cands));
            let (Some((d_id, d_utility)), Some(d_plan)) = (d, d_plan) else {
                debug_assert!(d.is_none(), "2.d met a dead or abstract plan");
                break None;
            };
            self.remove_node_and_links(d_id);
            // Recheck each surviving node's link, in id order: CheckValidity(q, E ∪ {d}).
            // Then reset its utility if it may depend on d.
            //
            // Fast path: if *every* member of the dominator is independent
            // of d, then d cannot disturb any witness, so the link stays
            // valid with E unchanged (adding d to E would be a no-op for
            // all future checks too). Otherwise extend E and re-certify.
            // E sets are capped: a link whose E would grow past the cap is
            // dropped instead — always sound (the target merely becomes
            // nondominated again) and it bounds per-removal work.
            const MAX_RECYCLE_SET: usize = 64;
            let (inst, measure) = (self.inst, self.measure);
            for id in 0..self.nodes.len() {
                let link = self.nodes[id].as_mut().and_then(|n| n.dominator.take());
                let linked = link.is_some();
                let kept = link.and_then(|mut link| {
                    let q = &self.nodes[link.from].as_ref()?.cands;
                    let valid = if measure.all_independent(inst, q, &d_plan) {
                        true
                    } else if link.removed.len() >= MAX_RECYCLE_SET {
                        false
                    } else {
                        link.removed.push(d_plan.clone());
                        measure.exists_independent(inst, q, &link.removed)
                    };
                    let counter = if valid {
                        &mut self.counts.links_recycled
                    } else {
                        &mut self.counts.links_invalidated
                    };
                    *counter += 1;
                    valid.then_some(link)
                });
                let Some(node) = self.nodes[id].as_mut() else {
                    continue;
                };
                node.dominator = kept;
                let reset =
                    node.utility.is_some() && !measure.all_independent(inst, &node.cands, &d_plan);
                if reset {
                    node.utility = None;
                }
                if node.dominator.is_none() && (linked || reset) {
                    self.pending.push(id);
                }
            }
            self.ctx.record(&d_plan);
            break Some(OrderedPlan {
                plan: d_plan,
                utility: d_utility.lo(),
            });
        };
        if let Some(counters) = &self.metrics {
            for ((_, field), counter) in PUBLISHED.iter().zip(counters) {
                counter.add((field(&self.counts) - field(&before)) as u64);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{ByExpectedTuples, ByExtentMidpoint, RandomKey};
    use crate::orderer::verify_ordering;
    use crate::pi::Pi;
    use qpo_catalog::GeneratorConfig;
    use qpo_utility::{Coverage, FailureCost, FusionCost, MonetaryCost};

    #[test]
    fn rejects_measures_without_diminishing_returns() {
        let inst = GeneratorConfig::new(2, 3).build();
        let m = FailureCost::with_caching();
        assert!(matches!(
            Streamer::new(&inst, &m, &ByExpectedTuples).err().unwrap(),
            OrdererError::NoDiminishingReturns("failure-cost+cache")
        ));
        let m = MonetaryCost::with_caching();
        assert!(Streamer::new(&inst, &m, &ByExpectedTuples).is_err());
    }

    #[test]
    fn exact_ordering_for_coverage() {
        let inst = GeneratorConfig::new(2, 5).with_seed(3).build();
        let mut alg = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
        let ordering = alg.order_k(inst.plan_count());
        assert_eq!(ordering.len(), inst.plan_count());
        verify_ordering(&inst, &Coverage, &ordering, 1e-12).unwrap();
        assert_eq!(alg.next_plan(), None, "plan space exhausted");
    }

    #[test]
    fn exact_ordering_for_failure_cost_without_caching() {
        let inst = GeneratorConfig::new(3, 4).with_seed(9).build();
        let m = FailureCost::without_caching();
        let mut alg = Streamer::new(&inst, &m, &ByExpectedTuples).unwrap();
        let ordering = alg.order_k(12);
        verify_ordering(&inst, &m, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn exact_ordering_for_monetary_without_caching() {
        let inst = GeneratorConfig::new(3, 4).with_seed(30).build();
        let m = MonetaryCost::without_caching();
        let ordering = Streamer::new(&inst, &m, &ByExpectedTuples)
            .unwrap()
            .order_k(10);
        verify_ordering(&inst, &m, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn exact_ordering_for_fusion_cost() {
        let inst = GeneratorConfig::new(3, 5).with_seed(14).build();
        let ordering = Streamer::new(&inst, &FusionCost, &ByExpectedTuples)
            .unwrap()
            .order_k(15);
        verify_ordering(&inst, &FusionCost, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn matches_pi_utility_sequence() {
        let inst = GeneratorConfig::new(2, 6).with_seed(77).build();
        let s: Vec<f64> = Streamer::new(&inst, &Coverage, &ByExpectedTuples)
            .unwrap()
            .order_k(20)
            .into_iter()
            .map(|o| o.utility)
            .collect();
        let p: Vec<f64> = Pi::new(&inst, &Coverage)
            .order_k(20)
            .into_iter()
            .map(|o| o.utility)
            .collect();
        assert_eq!(s.len(), p.len());
        for (a, b) in s.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12, "streamer {s:?} vs pi {p:?}");
        }
    }

    #[test]
    fn heuristic_affects_speed_not_output() {
        let inst = GeneratorConfig::new(2, 6).with_seed(41).build();
        let base: Vec<f64> = Streamer::new(&inst, &Coverage, &ByExpectedTuples)
            .unwrap()
            .order_k(10)
            .into_iter()
            .map(|o| o.utility)
            .collect();
        for ordering in [
            Streamer::new(&inst, &Coverage, &ByExtentMidpoint)
                .unwrap()
                .order_k(10),
            Streamer::new(&inst, &Coverage, &RandomKey { seed: 5 })
                .unwrap()
                .order_k(10),
        ] {
            verify_ordering(&inst, &Coverage, &ordering, 1e-12).unwrap();
            for (a, o) in base.iter().zip(&ordering) {
                assert!((a - o.utility).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn recycles_dominance_relations() {
        // Moderate overlap → plenty of independence → links survive.
        let inst = GeneratorConfig::new(3, 8)
            .with_overlap_rate(0.2)
            .with_seed(6)
            .build();
        let mut alg = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
        alg.order_k(10);
        let st = alg.stats();
        assert!(st.links_created > 0);
        assert!(st.links_recycled > 0, "no links recycled: {st:?}");
        assert!(st.refinements > 0);
        assert!(alg.nodes.iter().flatten().any(|n| n.dominator.is_some()));
    }

    #[test]
    fn full_independence_recycles_everything() {
        // Without caching, cost utilities are context-free: every link
        // survives every removal.
        let inst = GeneratorConfig::new(2, 6).with_seed(19).build();
        let m = FailureCost::without_caching();
        let mut alg = Streamer::new(&inst, &m, &ByExpectedTuples).unwrap();
        alg.order_k(36);
        assert_eq!(alg.stats().links_invalidated, 0);
    }

    /// Instances on which every plan covers the same volume until plans
    /// run: the `serve-mix` benchmark's shape (3 buckets × 6 sources of
    /// length 160, starts staggered by 4, universe 2000) and a jitter-free
    /// generated one. Streamer's first emission must descend straight to
    /// a concrete plan: at most `Σ_b |bucket_b|` refinements, not one per
    /// abstract node. A full drain of the 216-plan shape stays exact at
    /// tolerance 0 (the 512-plan one takes seconds to verify in debug).
    #[test]
    fn exact_ties_go_to_the_smaller_plan() {
        use qpo_catalog::{Extent, SourceStats};
        let src = |b: u64, j: u64| SourceStats::new().with_extent(Extent::new(4 * j + b, 160));
        let buckets = (0..3)
            .map(|b| (0..6).map(|j| src(b, j)).collect())
            .collect();
        let serve_mix = ProblemInstance::new(0.0, vec![2000; 3], buckets).unwrap();
        let jitter_free = GeneratorConfig {
            extent_jitter: 0.0,
            ..GeneratorConfig::new(3, 8)
        }
        .build();
        for (inst, drain) in [(serve_mix, true), (jitter_free, false)] {
            let sources: usize = inst.buckets.iter().map(Vec::len).sum();
            let mut alg = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
            let first = alg.next_plan().unwrap();
            let refinements = alg.stats().refinements;
            assert!(refinements <= sources, "{refinements} refinements");
            if drain {
                let mut ordering = vec![first];
                ordering.extend(alg.order_k(inst.plan_count()));
                assert_eq!(ordering.len(), inst.plan_count());
                verify_ordering(&inst, &Coverage, &ordering, 0.0).unwrap();
            }
        }
    }

    #[test]
    fn single_source_buckets() {
        let inst = GeneratorConfig::new(3, 1).build();
        let mut alg = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
        let ordering = alg.order_k(5);
        assert_eq!(ordering.len(), 1, "only one plan exists");
        assert_eq!(ordering[0].plan, vec![0, 0, 0]);
        assert_eq!(alg.algorithm_name(), "streamer");
    }
}
