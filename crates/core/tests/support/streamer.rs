//! [`ReferenceStreamer`]: Streamer (§5.2, Figure 5) as it stood when its
//! dominance links were a list beside the graph — a `Vec` of `(from, to,
//! E(p,q))` links, a `(from, to)` index, and the dominated set rebuilt from
//! the list at every step. `qpo_core::Streamer` keeps one link on each node
//! it dominates instead and must match this one bit for bit: the same
//! plans, the same utility bits and the same `StreamerStats` after every
//! emission. Only `with_obs` is left out; the counters stay detached.
//! It orients an exact tie as `Streamer` does: the plan with fewer
//! members, then the older one, stays nondominated.

use qpo_catalog::ProblemInstance;
use qpo_core::{
    AbstractionHeuristic, AbstractionTree, NodeId, OrderedPlan, OrdererError, PlanOrderer,
    StreamerStats,
};
use qpo_interval::Interval;
use qpo_obs::Counter;
use qpo_utility::{as_concrete, ExecutionContext, IntervalCarry, UtilityMeasure};
use std::collections::{BTreeMap, BTreeSet};

/// Live metric handles behind [`StreamerStats`]; detached (registered
/// nowhere).
#[derive(Debug, Clone, Default)]
struct StreamerMetrics {
    refinements: Counter,
    links_created: Counter,
    links_recycled: Counter,
    links_invalidated: Counter,
    utility_recomputations: Counter,
    utility_resumes: Counter,
}

impl StreamerMetrics {
    fn stats(&self) -> StreamerStats {
        StreamerStats {
            refinements: self.refinements.get() as usize,
            links_created: self.links_created.get() as usize,
            links_recycled: self.links_recycled.get() as usize,
            links_invalidated: self.links_invalidated.get() as usize,
            utility_recomputations: self.utility_recomputations.get() as usize,
            utility_resumes: self.utility_resumes.get() as usize,
        }
    }
}

#[derive(Debug, Clone)]
struct SNode {
    /// Abstraction-tree node per bucket.
    nodes: Vec<NodeId>,
    /// Candidate indices per bucket (materialized from `nodes`).
    cands: Vec<Vec<usize>>,
    /// `None` = nil in the paper's pseudocode (needs recomputation).
    utility: Option<Interval>,
    /// Where the last computation of `utility` left off; outlives the nil.
    carry: IntervalCarry,
}

impl SNode {
    fn is_concrete(&self) -> bool {
        self.cands.iter().all(|c| c.len() == 1)
    }
}

#[derive(Debug, Clone)]
struct Link {
    from: usize,
    to: usize,
    /// The paper's `E(p,q)`: plans removed since the link was created.
    removed: Vec<Vec<usize>>,
}

/// The Streamer plan orderer as it stood before its links moved onto the
/// nodes they dominate.
pub struct ReferenceStreamer<'a, M: UtilityMeasure + ?Sized> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    trees: Vec<AbstractionTree>,
    ctx: ExecutionContext,
    nodes: BTreeMap<usize, SNode>,
    links: Vec<Link>,
    /// `(from, to)` index over `links`, for O(log L) duplicate checks.
    link_set: BTreeSet<(usize, usize)>,
    next_id: usize,
    metrics: StreamerMetrics,
}

impl<'a, M: UtilityMeasure + ?Sized> ReferenceStreamer<'a, M> {
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
        let top_nodes: Vec<NodeId> = trees.iter().map(AbstractionTree::root).collect();
        let top_cands: Vec<Vec<usize>> = trees
            .iter()
            .zip(&top_nodes)
            .map(|(t, &n)| t.indices(n).to_vec())
            .collect();
        let mut nodes = BTreeMap::new();
        nodes.insert(
            0,
            SNode {
                nodes: top_nodes,
                cands: top_cands,
                utility: None,
                carry: IntervalCarry::default(),
            },
        );
        Ok(ReferenceStreamer {
            inst,
            measure,
            trees,
            ctx: ExecutionContext::new(),
            nodes,
            links: Vec::new(),
            link_set: BTreeSet::new(),
            next_id: 1,
            metrics: StreamerMetrics::default(),
        })
    }

    /// Work counters.
    pub fn stats(&self) -> StreamerStats {
        self.metrics.stats()
    }

    /// Ids with no incoming dominance link.
    fn nondominated(&self) -> Vec<usize> {
        let dominated: BTreeSet<usize> = self.links.iter().map(|l| l.to).collect();
        self.nodes
            .keys()
            .copied()
            .filter(|id| !dominated.contains(id))
            .collect()
    }

    /// The number of member plans of node `id`.
    fn members(&self, id: usize) -> usize {
        self.nodes[&id].cands.iter().map(Vec::len).product()
    }

    fn has_link(&self, from: usize, to: usize) -> bool {
        self.link_set.contains(&(from, to))
    }

    fn remove_node_and_links(&mut self, id: usize) -> SNode {
        self.link_set.retain(|&(f, t)| f != id && t != id);
        self.links.retain(|l| l.from != id && l.to != id);
        self.nodes.remove(&id).expect("node exists")
    }

    /// Step 2.c: replace an abstract plan by its children (splitting the
    /// widest bucket).
    fn refine(&mut self, id: usize) {
        let parent = self.remove_node_and_links(id);
        let bucket = (0..parent.cands.len())
            .filter(|&b| parent.cands[b].len() > 1)
            .max_by_key(|&b| parent.cands[b].len())
            .expect("refined plan is abstract");
        let tree = &self.trees[bucket];
        for &child in tree.children(parent.nodes[bucket]) {
            let mut nodes = parent.nodes.clone();
            nodes[bucket] = child;
            let mut cands = parent.cands.clone();
            cands[bucket] = tree.indices(child).to_vec();
            self.nodes.insert(
                self.next_id,
                SNode {
                    nodes,
                    cands,
                    utility: None,
                    carry: IntervalCarry::default(),
                },
            );
            self.next_id += 1;
        }
        self.metrics.refinements.inc();
    }
}

impl<M: UtilityMeasure + ?Sized> PlanOrderer for ReferenceStreamer<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "streamer-reference"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        loop {
            if self.nodes.is_empty() {
                return None;
            }
            // Step 2.a: recompute nil utilities of nondominated plans.
            let nd = self.nondominated();
            for &id in &nd {
                let node = self.nodes.get_mut(&id).expect("nondominated node exists");
                if node.utility.is_none() {
                    if !node.carry.is_fresh() {
                        self.metrics.utility_resumes.inc();
                    }
                    node.utility = Some(self.measure.resume_interval(
                        self.inst,
                        &node.cands,
                        &self.ctx,
                        &mut node.carry,
                    ));
                    self.metrics.utility_recomputations.inc();
                }
            }
            // Step 2.b: create dominance links among nondominated pairs.
            // One incoming link suffices to make a plan dominated, so skip
            // targets that are already dominated (keeps tied clusters at
            // O(t) links instead of O(t²); dropping redundant links is
            // always sound).
            let utilities: Vec<(usize, Interval)> = nd
                .iter()
                .map(|&id| (id, self.nodes[&id].utility.expect("computed in 2.a")))
                .collect();
            let mut dominated_now: BTreeSet<usize> = self.links.iter().map(|l| l.to).collect();
            for &(b, ub) in &utilities {
                if dominated_now.contains(&b) {
                    continue; // a dominated plan need not dominate others
                }
                for &(c, uc) in &utilities {
                    if b == c || dominated_now.contains(&c) || !ub.dominates(uc) {
                        continue;
                    }
                    // Mutual (tied) dominance: orient by (members, id) so
                    // exactly one of each tied pair, the smaller plan,
                    // stays nondominated.
                    if uc.dominates(ub) && (self.members(b), b) > (self.members(c), c) {
                        continue;
                    }
                    if self.has_link(b, c) {
                        continue;
                    }
                    self.links.push(Link {
                        from: b,
                        to: c,
                        removed: Vec::new(),
                    });
                    self.link_set.insert((b, c));
                    dominated_now.insert(c);
                    self.metrics.links_created.inc();
                }
            }
            // Step 2.c: refine an abstract nondominated plan, if any (the
            // one with the highest optimistic utility).
            let nd = self.nondominated();
            let to_refine = nd
                .iter()
                .copied()
                .filter(|id| !self.nodes[id].is_concrete())
                .max_by(|&a, &b| {
                    let ua = self.nodes[&a].utility.expect("computed in 2.a").hi();
                    let ub = self.nodes[&b].utility.expect("computed in 2.a").hi();
                    qpo_core::utility_cmp(ua, ub).then(b.cmp(&a))
                });
            if let Some(id) = to_refine {
                self.refine(id);
                continue;
            }
            // Step 2.d: every nondominated plan is concrete (and, by 2.b,
            // they all tie); output one.
            let d_id = nd
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    let ua = self.nodes[&a].utility.expect("computed in 2.a").lo();
                    let ub = self.nodes[&b].utility.expect("computed in 2.a").lo();
                    qpo_core::utility_cmp(ua, ub).then(b.cmp(&a))
                })
                .expect("graph is non-empty, so some plan is nondominated");
            let d = self.remove_node_and_links(d_id);
            let d_plan = as_concrete(&d.cands).expect("2.d plans are concrete");
            let d_utility = d.utility.expect("computed in 2.a").lo();

            // Recheck every surviving link: CheckValidity(q, E ∪ {d}).
            //
            // Fast path: if *every* member of the dominator is independent
            // of d, then d cannot disturb any witness, so the link stays
            // valid with E unchanged (adding d to E would be a no-op for
            // all future checks too). Otherwise extend E and re-certify.
            // E sets are capped: a link whose E would grow past the cap is
            // dropped instead — always sound (the target merely becomes
            // nondominated again) and it bounds per-removal work.
            const MAX_RECYCLE_SET: usize = 64;
            let mut kept = Vec::with_capacity(self.links.len());
            for mut link in std::mem::take(&mut self.links) {
                let q = &self.nodes[&link.from];
                let valid = if self.measure.all_independent(self.inst, &q.cands, &d_plan) {
                    true
                } else if link.removed.len() >= MAX_RECYCLE_SET {
                    false
                } else {
                    link.removed.push(d_plan.clone());
                    self.measure
                        .exists_independent(self.inst, &q.cands, &link.removed)
                };
                if valid {
                    self.metrics.links_recycled.inc();
                    kept.push(link);
                } else {
                    self.metrics.links_invalidated.inc();
                    self.link_set.remove(&(link.from, link.to));
                }
            }
            self.links = kept;
            // Invalidate utilities of plans that may depend on d.
            for node in self.nodes.values_mut() {
                if !self
                    .measure
                    .all_independent(self.inst, &node.cands, &d_plan)
                {
                    node.utility = None;
                }
            }
            self.ctx.record(&d_plan);
            return Some(OrderedPlan {
                plan: d_plan,
                utility: d_utility,
            });
        }
    }
}
