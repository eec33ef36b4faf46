//! Execution context: the plans assumed already executed.
//!
//! The paper's utility is `u(p | p1, ..., pl, Q)` — the worth of `p` *given*
//! that `p1..pl` ran first (§2). The context records those plans and, for
//! caching-aware measures, the set of source operations whose results are
//! cached (one operation per `(bucket, source)` pair; see DESIGN.md for the
//! source-level caching approximation).

use std::collections::BTreeSet;

/// The ordered list of executed plans plus a cached-operation index.
#[derive(Debug, Clone, Default)]
pub struct ExecutionContext {
    executed: Vec<Vec<usize>>,
    /// Per bucket, the set of source indices whose operation is cached.
    cached: Vec<BTreeSet<usize>>,
    /// Monotone modification counter: bumped on every [`record`] and every
    /// successful [`retract`]. Memoization layers key cached utilities on
    /// this value so context-sensitive results are invalidated the instant
    /// the context changes.
    ///
    /// [`record`]: ExecutionContext::record
    /// [`retract`]: ExecutionContext::retract
    epoch: u64,
    /// Successful [`retract`](ExecutionContext::retract)s so far.
    retractions: u64,
}

/// Equality compares the executed history and cache index only; the epoch
/// and the retraction count are modification counters, not part of the
/// context's meaning (a context that records and then retracts a plan
/// equals its former self).
impl PartialEq for ExecutionContext {
    fn eq(&self, other: &Self) -> bool {
        self.executed == other.executed && self.cached == other.cached
    }
}

impl Eq for ExecutionContext {}

impl ExecutionContext {
    /// An empty context: nothing executed, nothing cached.
    pub fn new() -> Self {
        ExecutionContext::default()
    }

    /// Records a plan as executed (appended to the history; its source
    /// operations become cached).
    pub fn record(&mut self, plan: &[usize]) {
        if self.cached.len() < plan.len() {
            self.cached.resize_with(plan.len(), BTreeSet::new);
        }
        for (bucket, &index) in plan.iter().enumerate() {
            self.cached[bucket].insert(index);
        }
        self.executed.push(plan.to_vec());
        self.epoch += 1;
    }

    /// Retracts the most recent occurrence of `plan` from the history — the
    /// runtime's correction when a plan assumed executed turned out to fail
    /// (its source operations never ran, so nothing of it is cached).
    /// Rebuilds the cached-operation index from the surviving plans.
    /// Returns `false` (and changes nothing) if the plan is not in the
    /// history.
    pub fn retract(&mut self, plan: &[usize]) -> bool {
        let Some(pos) = self.executed.iter().rposition(|p| p == plan) else {
            return false;
        };
        self.executed.remove(pos);
        for set in &mut self.cached {
            set.clear();
        }
        for executed in &self.executed {
            for (bucket, &index) in executed.iter().enumerate() {
                self.cached[bucket].insert(index);
            }
        }
        self.epoch += 1;
        self.retractions += 1;
        true
    }

    /// The modification epoch: strictly increases on every [`record`] and
    /// every successful [`retract`]. Two reads returning the same epoch
    /// bracket a window in which the context did not change, so any
    /// context-dependent value computed inside the window is still valid.
    ///
    /// [`record`]: ExecutionContext::record
    /// [`retract`]: ExecutionContext::retract
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of successful [`retract`](ExecutionContext::retract)s. While
    /// it stands still the history is only appended to — an earlier
    /// `executed()` is a prefix of a later one — which is what lets an
    /// [`IntervalCarry`](crate::IntervalCarry) resume.
    pub fn retractions(&self) -> u64 {
        self.retractions
    }

    /// The executed plans, oldest first.
    pub fn executed(&self) -> &[Vec<usize>] {
        &self.executed
    }

    /// Number of executed plans.
    pub fn len(&self) -> usize {
        self.executed.len()
    }

    /// True iff nothing has been executed.
    pub fn is_empty(&self) -> bool {
        self.executed.is_empty()
    }

    /// True iff the operation `(bucket, index)` has a cached result.
    pub fn is_cached(&self, bucket: usize, index: usize) -> bool {
        self.cached.get(bucket).is_some_and(|s| s.contains(&index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut ctx = ExecutionContext::new();
        assert!(ctx.is_empty());
        assert!(!ctx.is_cached(0, 0));

        ctx.record(&[2, 5]);
        ctx.record(&[2, 7]);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.executed(), &[vec![2, 5], vec![2, 7]]);
        assert!(ctx.is_cached(0, 2));
        assert!(ctx.is_cached(1, 5) && ctx.is_cached(1, 7));
        assert!(!ctx.is_cached(1, 2), "caching is per bucket");
        assert!(!ctx.is_cached(9, 0), "out-of-range bucket is not cached");
    }

    #[test]
    fn retract_removes_plan_and_rebuilds_cache() {
        let mut ctx = ExecutionContext::new();
        ctx.record(&[2, 5]);
        ctx.record(&[2, 7]);
        assert!(ctx.retract(&[2, 5]));
        assert_eq!(ctx.executed(), &[vec![2, 7]]);
        assert!(ctx.is_cached(0, 2), "still cached via the surviving plan");
        assert!(ctx.is_cached(1, 7));
        assert!(!ctx.is_cached(1, 5), "uniquely-owned operation uncached");
        assert!(!ctx.retract(&[9, 9]), "unknown plan is a no-op");
        assert_eq!(ctx.len(), 1);
    }

    #[test]
    fn retract_takes_the_most_recent_duplicate() {
        let mut ctx = ExecutionContext::new();
        ctx.record(&[0]);
        ctx.record(&[1]);
        ctx.record(&[0]);
        assert!(ctx.retract(&[0]));
        assert_eq!(ctx.executed(), &[vec![0], vec![1]]);
        assert!(ctx.is_cached(0, 0), "earlier duplicate keeps the cache");
    }

    #[test]
    fn retract_then_record_round_trips() {
        let mut ctx = ExecutionContext::new();
        ctx.record(&[3, 1]);
        let snapshot = ctx.clone();
        ctx.record(&[4, 2]);
        assert!(ctx.retract(&[4, 2]));
        assert_eq!(ctx, snapshot);
    }

    #[test]
    fn epoch_bumps_on_every_mutation_but_not_on_noops() {
        let mut ctx = ExecutionContext::new();
        assert_eq!(ctx.epoch(), 0);
        ctx.record(&[1, 2]);
        assert_eq!(ctx.epoch(), 1);
        ctx.record(&[3, 4]);
        assert_eq!(ctx.epoch(), 2);
        assert!(ctx.retract(&[1, 2]));
        assert_eq!(ctx.epoch(), 3, "successful retract bumps");
        assert_eq!(ctx.retractions(), 1, "appends do not count as retractions");
        assert!(!ctx.retract(&[9, 9]));
        assert_eq!(ctx.epoch(), 3, "failed retract is a no-op");
        assert_eq!(ctx.retractions(), 1);
        // Equality ignores the epoch: same content, different history.
        let mut other = ExecutionContext::new();
        other.record(&[3, 4]);
        assert_eq!(ctx, other);
        assert_ne!(ctx.epoch(), other.epoch());
    }

    #[test]
    fn order_is_preserved() {
        let mut ctx = ExecutionContext::new();
        ctx.record(&[1]);
        ctx.record(&[0]);
        assert_eq!(ctx.executed()[0], vec![1]);
        assert_eq!(ctx.executed()[1], vec![0]);
    }
}
