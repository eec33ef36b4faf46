//! The cross-plan release gate: the best score a plan still behind the
//! gate could deliver, kept without enumerating the plan product.
//!
//! [`ReleaseGate`] holds one score bound per `(bucket, source)`. A plan's
//! key is the left-to-right sum of its sources' entries `+ 0.0`, the
//! association [`plan_bound`](crate::plan_bound) and
//! [`RankedJoin`](crate::RankedJoin) sum scores in: float addition is
//! monotone in each operand, so the key dominates every score of the plan
//! while each entry dominates its level. Entries only fall, and keys are
//! re-summed from the table, never patched (`key − old + new` can round
//! below a real score).
//!
//! The gate is the best key over the plans still in, found by a lazy
//! best-first walk of the product (Lawler successors): each bucket's
//! sources are ranked once, and a frontier node `(ranks, free)` stands
//! for the plans at `ranks` before bucket `free` and at or below from
//! there on, keyed by an upper bound on them all. A popped node splits
//! into its own plan and one child per free bucket; a key gone stale is
//! re-derived (it was still an upper bound), a plan that left is dropped.
//! Memory is O(plans that left + frontier).
//!
//! The same walk is a schedule: [`ReleaseGate::pop`] hands out the best
//! plan still in, which then leaves, and [`ScoreBoundOrder`] is a
//! [`PlanOrderer`] over an owned gate's pops. On a table no attach has
//! tightened, keys are bit-equal to `plan_bound`, a context-free sum: that
//! order is Greedy's (§4) over the bound, up to ties.

use qpo_core::{utility_cmp, OrderedPlan, PlanOrderer, PlanOutcome};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap};

#[derive(Clone)]
struct Node {
    key: f64,
    ranks: Vec<usize>,
    /// First bucket whose rank may still grow; `ranks.len()` for a plan.
    free: usize,
}

// Total: at equal key and `free`, the lower ranks pop first, so which of
// two equal-bound plans leaves first is fixed by the ranking, not by the
// heap's sift order.
heap_order!(Node, |a, b| utility_cmp(a.key, b.key)
    .then_with(|| a.free.cmp(&b.free))
    .then_with(|| b.ranks.cmp(&a.ranks)));

/// The release gate over one plan space; see the module docs.
#[derive(Clone)]
pub struct ReleaseGate {
    /// `bounds[bucket][source]`.
    bounds: Vec<Vec<f64>>,
    /// `order[bucket][rank]` = source, best starting bound first. Fixed:
    /// frontier nodes keep their meaning while entries fall.
    order: Vec<Vec<usize>>,
    /// Plans that left, as rank vectors.
    left: BTreeSet<Vec<usize>>,
    frontier: BinaryHeap<Node>,
}

impl ReleaseGate {
    /// Every plan of the product starts behind the gate.
    pub fn new(bounds: Vec<Vec<f64>>) -> Self {
        let ranked = |b: &Vec<f64>| {
            let mut order: Vec<usize> = (0..b.len()).collect();
            order.sort_by(|&x, &y| utility_cmp(b[y], b[x]));
            order
        };
        let mut gate = ReleaseGate {
            order: bounds.iter().map(ranked).collect(),
            bounds,
            left: BTreeSet::new(),
            frontier: BinaryHeap::new(),
        };
        if gate.order.iter().all(|o| !o.is_empty()) {
            gate.push(vec![0; gate.order.len()], 0);
        }
        gate
    }

    /// The best key among the plans the node `(ranks, free)` stands for,
    /// on the table `bounds` ranked by `order`.
    fn key(bounds: &[Vec<f64>], order: &[Vec<usize>], ranks: &[usize], free: usize) -> f64 {
        let entry = |(b, &r): (usize, &usize)| {
            let end = if b < free { r + 1 } else { order[b].len() };
            let entries = order[b][r..end].iter().map(|&s| bounds[b][s]);
            entries.fold(f64::NEG_INFINITY, f64::max)
        };
        ranks.iter().enumerate().map(entry).fold(0.0, |a, e| a + e) + 0.0
    }

    fn push(&mut self, ranks: Vec<usize>, free: usize) {
        let key = Self::key(&self.bounds, &self.order, &ranks, free);
        self.frontier.push(Node { key, ranks, free });
    }

    /// Lowers the `(bucket, source)` entry to `bound`: what the rows that
    /// source holds for that subgoal can still score. Entries only fall: a
    /// bound above the entry is ignored. Panics on an entry out of range.
    pub fn tighten(&mut self, bucket: usize, source: usize, bound: f64) {
        let entry = &mut self.bounds[bucket][source];
        *entry = entry.min(bound);
    }

    /// `plan` left the gate (it attached, or never will).
    pub fn leave(&mut self, plan: &[usize]) {
        let rank = |(b, s): (usize, &usize)| self.order[b].iter().position(|o| o == s);
        if let Some(ranks) = plan.iter().enumerate().map(rank).collect() {
            self.left.insert(ranks);
        }
    }

    /// Plans that left so far.
    pub fn left(&self) -> usize {
        self.left.len()
    }

    /// The best plan still in, as one source per bucket, with its key
    /// ([`ReleaseGate::bound`]); the plan then leaves. `None` once all
    /// have left.
    pub fn pop(&mut self) -> Option<(Vec<usize>, f64)> {
        let key = self.bound()?;
        // `bound` leaves the plan it keys on top of the frontier.
        let ranks = self.frontier.pop()?.ranks;
        let plan = ranks
            .iter()
            .enumerate()
            .map(|(b, &r)| self.order[b][r])
            .collect();
        self.left.insert(ranks);
        Some((plan, key))
    }

    /// The best key over the plans still in; `None` once all have left.
    pub fn bound(&mut self) -> Option<f64> {
        loop {
            let top = self.frontier.peek_mut()?;
            let key = Self::key(&self.bounds, &self.order, &top.ranks, top.free);
            let stale = utility_cmp(key, top.key) == Ordering::Less;
            let is_plan = top.free == top.ranks.len();
            if !stale && is_plan && !self.left.contains(&top.ranks) {
                return Some(key);
            }
            let Node { ranks, free, .. } = PeekMut::pop(top);
            if stale {
                self.frontier.push(Node { key, ranks, free });
            } else if !is_plan {
                for b in free..ranks.len() {
                    if ranks[b] + 1 < self.order[b].len() {
                        let mut child = ranks.clone();
                        child[b] += 1;
                        self.push(child, b);
                    }
                }
                let own = ranks.len();
                self.push(ranks, own);
            }
        }
    }
}

/// Plans best-first by score bound: the pops of an owned [`ReleaseGate`],
/// each plan's utility its key. A tuple stream schedules by it, over an
/// untightened copy of its gate: the plans whose tuples could score
/// highest are pulled first.
pub struct ScoreBoundOrder(ReleaseGate);

impl ScoreBoundOrder {
    /// Schedules the plans still behind `gate`.
    pub fn new(gate: ReleaseGate) -> Self {
        ScoreBoundOrder(gate)
    }
}

impl PlanOrderer for ScoreBoundOrder {
    fn algorithm_name(&self) -> &'static str {
        "score-bound"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let (plan, utility) = self.0.pop()?;
        Some(OrderedPlan { plan, utility })
    }

    /// A plan's bound does not depend on what ran before it, so a failure
    /// changes no utility: nothing to retract.
    fn observe(&mut self, _outcome: &PlanOutcome) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_product_costs_a_small_frontier_not_the_product() {
        // 6^8 = 1.68 M plans.
        let table: Vec<Vec<f64>> = (0..8)
            .map(|b| (0..6).map(|s| ((b * 7 + s * 3) % 11) as f64).collect())
            .collect();
        let best: f64 = table
            .iter()
            .map(|b| b.iter().fold(0.0, |a: f64, &x| a.max(x)))
            .sum();
        let mut gate = ReleaseGate::new(table);
        assert_eq!(gate.bound(), Some(best));
        // The best plan itself and one child per bucket.
        assert_eq!(gate.frontier.len(), 1 + 8);
        // A hundred plans leaving costs a frontier of that order, not 6^8.
        for i in 0..100usize {
            let plan: Vec<usize> = (0..8).map(|b| (i >> b) % 2 * (1 + (i + b) % 5)).collect();
            gate.leave(&plan);
            gate.tighten(i % 8, plan[i % 8], 0.5);
            assert!(gate.bound().is_some());
        }
        assert!(
            gate.frontier.len() <= 100 * 8 * 6,
            "{}",
            gate.frontier.len()
        );
    }

    #[test]
    fn degenerate_products() {
        // No bucket: the one empty plan, at key 0.
        let mut gate = ReleaseGate::new(Vec::new());
        assert_eq!(gate.bound(), Some(0.0));
        gate.leave(&[]);
        assert_eq!(gate.bound(), None);
        // An empty bucket: no plan at all.
        assert_eq!(ReleaseGate::new(vec![vec![1.0], vec![]]).pop(), None);
        // One bucket: its sources, best first.
        let mut gate = ReleaseGate::new(vec![vec![1.0, 2.0]]);
        assert_eq!(gate.pop(), Some((vec![1], 2.0)));
        assert_eq!(gate.pop(), Some((vec![0], 1.0)));
        assert_eq!((gate.pop(), gate.left()), (None, 2));
    }

    #[test]
    fn equal_bounds_pop_in_rank_order() {
        // Every plan of a 3 × 3 product keys 2.0, so key and `free` tie
        // between every two plans: the ranks alone decide, lowest first.
        let mut gate = ReleaseGate::new(vec![vec![1.0; 3]; 2]);
        let pops: Vec<_> = std::iter::from_fn(|| gate.pop()).collect();
        let want: Vec<_> = (0..3)
            .flat_map(|a| (0..3).map(move |b| (vec![a, b], 2.0)))
            .collect();
        assert_eq!(pops, want);
        // And so do equal-key frontier nodes that are not plans yet.
        let mut frontier: BinaryHeap<_> = [vec![1, 0], vec![0, 1], vec![0, 0]]
            .map(|ranks| Node {
                key: 1.0,
                ranks,
                free: 1,
            })
            .into();
        let ranks: Vec<_> = std::iter::from_fn(|| frontier.pop().map(|n| n.ranks)).collect();
        assert_eq!(ranks, [[0, 0], [0, 1], [1, 0]]);
    }
}
