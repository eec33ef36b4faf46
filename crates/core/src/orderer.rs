//! The plan-orderer abstraction and the formal correctness check.
//!
//! Definition 2.1 (plan-ordering problem): emit plans `p_1, p_2, ...` such
//! that each `p_i` maximizes `u(p | p_1..p_{i-1}, Q)` over the plans not yet
//! emitted. Every algorithm in this crate implements [`PlanOrderer`] and
//! yields plans *incrementally* — the whole point of the paper is that the
//! first few plans arrive long before the plan space has been enumerated.

use qpo_catalog::ProblemInstance;
use qpo_utility::{ExecutionContext, UtilityMeasure};
use std::fmt;

/// One emitted plan with the utility it had at emission time (i.e. given
/// the plans emitted before it).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedPlan {
    /// One source index per bucket.
    pub plan: Vec<usize>,
    /// `u(plan | previously emitted plans, Q)`.
    pub utility: f64,
}

impl fmt::Display for OrderedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (b, i) in self.plan.iter().enumerate() {
            if b > 0 {
                write!(f, " ")?;
            }
            write!(f, "b{b}s{i}")?;
        }
        write!(f, "] u={:.6}", self.utility)
    }
}

/// Why an ordering algorithm refused to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrdererError {
    /// Greedy requires a fully monotonic utility measure (§4).
    NotFullyMonotonic(&'static str),
    /// Streamer requires utility-diminishing returns (§5.2).
    NoDiminishingReturns(&'static str),
    /// Merged multi-space ordering requires a context-free measure (§7).
    ContextDependent(&'static str),
}

impl fmt::Display for OrdererError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrdererError::NotFullyMonotonic(m) => {
                write!(
                    f,
                    "measure `{m}` is not fully monotonic; Greedy does not apply"
                )
            }
            OrdererError::NoDiminishingReturns(m) => write!(
                f,
                "measure `{m}` lacks utility-diminishing returns; Streamer does not apply"
            ),
            OrdererError::ContextDependent(m) => write!(
                f,
                "measure `{m}` is context-dependent; per-space orderings cannot be merged"
            ),
        }
    }
}

impl std::error::Error for OrdererError {}

/// Total order on utilities: `total_cmp` over `-0.0`-normalized values.
///
/// Adding `0.0` maps `-0.0` to `+0.0`, after which [`f64::total_cmp`]
/// agrees with the IEEE partial order on every non-NaN pair — so swapping
/// this in for a `partial_cmp(..).expect(..)` chain preserves bit-stable
/// orderings while turning the NaN panic path into a deterministic total
/// order (NaN sorts above every number, negative NaN below).
#[inline]
pub fn utility_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    (a + 0.0).total_cmp(&(b + 0.0))
}

/// How an emitted plan actually turned out once the runtime executed it.
///
/// The utilities of Definition 2.1 condition on the plans *assumed*
/// executed; emission optimistically records that assumption. When real
/// execution disagrees — a source stayed down and the plan never ran — the
/// runtime reports the outcome back through [`PlanOrderer::observe`] so
/// later emissions condition on what actually happened.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomeStatus {
    /// The plan executed; it produced this many answer tuples (new or
    /// not), or 0 when the runtime merged it unjoined — a plan a streaming
    /// session pulled, joined later by its ranked stream. No shipped
    /// orderer reads the count.
    Succeeded {
        /// Tuples the plan returned; 0 for a plan merged unjoined.
        tuples: usize,
    },
    /// The plan never executed (a source was permanently down or retries
    /// were exhausted); none of its source operations ran.
    Failed,
}

/// The observed outcome of one emitted plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The plan, in bucket-index form (as emitted).
    pub plan: Vec<usize>,
    /// What execution observed.
    pub status: OutcomeStatus,
}

impl PlanOutcome {
    /// A successful execution returning `tuples` answers (0 for a plan
    /// merged unjoined; see [`OutcomeStatus::Succeeded`]).
    pub fn succeeded(plan: &[usize], tuples: usize) -> Self {
        PlanOutcome {
            plan: plan.to_vec(),
            status: OutcomeStatus::Succeeded { tuples },
        }
    }

    /// A failed execution: the plan's source operations never ran.
    pub fn failed(plan: &[usize]) -> Self {
        PlanOutcome {
            plan: plan.to_vec(),
            status: OutcomeStatus::Failed,
        }
    }

    /// True iff the plan failed to execute.
    pub fn is_failure(&self) -> bool {
        matches!(self.status, OutcomeStatus::Failed)
    }
}

/// An incremental plan-ordering algorithm.
pub trait PlanOrderer {
    /// Algorithm name, as used in the paper's figures.
    fn algorithm_name(&self) -> &'static str;

    /// Emits the next best plan (given everything emitted so far), or
    /// `None` when the plan space is exhausted.
    fn next_plan(&mut self) -> Option<OrderedPlan>;

    /// Reports the observed outcome of a previously emitted plan.
    ///
    /// Orderers that condition on the execution context implement this to
    /// *retract* failed plans — the plan's source operations never ran, so
    /// subsequent utilities must not credit them (e.g. as cached). The
    /// default is a no-op, which is exact for context-free measures and a
    /// documented approximation otherwise (Streamer keeps it: its dominance
    /// graph is built under monotone context growth and cannot soundly
    /// un-execute a plan).
    fn observe(&mut self, _outcome: &PlanOutcome) {}

    /// Emits up to `k` plans.
    fn order_k(&mut self, k: usize) -> Vec<OrderedPlan> {
        let mut out = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            match self.next_plan() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }
}

/// Replays an emitted ordering against a brute-force argmax and checks
/// Definition 2.1 exactly: every emitted plan must (a) still be available,
/// (b) carry its true utility under the context of its predecessors, and
/// (c) achieve the maximum utility among all remaining plans (within
/// `tolerance`, for floating-point noise).
///
/// Returns `Err` with a description of the first violation. Intended for
/// tests and the verification harness; cost is `O(k · |plan space|)`.
pub fn verify_ordering<M: UtilityMeasure + ?Sized>(
    inst: &ProblemInstance,
    measure: &M,
    ordering: &[OrderedPlan],
    tolerance: f64,
) -> Result<(), String> {
    let mut remaining = inst.all_plans();
    let mut ctx = ExecutionContext::new();
    for (step, out) in ordering.iter().enumerate() {
        let pos = remaining
            .iter()
            .position(|p| p == &out.plan)
            .ok_or_else(|| {
                format!(
                    "step {step}: plan {:?} already emitted or invalid",
                    out.plan
                )
            })?;
        let actual = measure.utility(inst, &out.plan, &ctx);
        if (actual - out.utility).abs() > tolerance {
            return Err(format!(
                "step {step}: plan {:?} reported utility {} but has {}",
                out.plan, out.utility, actual
            ));
        }
        let best = remaining
            .iter()
            .map(|p| measure.utility(inst, p, &ctx))
            .fold(f64::MIN, f64::max);
        if actual + tolerance < best {
            return Err(format!(
                "step {step}: plan {:?} has utility {} but the maximum among {} remaining plans is {}",
                out.plan,
                actual,
                remaining.len(),
                best
            ));
        }
        remaining.swap_remove(pos);
        ctx.record(&out.plan);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::{Extent, SourceStats};
    use qpo_utility::LinearCost;

    fn inst() -> ProblemInstance {
        let src = |c: f64| {
            SourceStats::new()
                .with_extent(Extent::new(0, 10))
                .with_tuples(1.0)
                .with_transmission_cost(c)
        };
        ProblemInstance::new(
            0.0,
            vec![100, 100],
            vec![vec![src(1.0), src(2.0)], vec![src(3.0), src(4.0)]],
        )
        .unwrap()
    }

    fn op(plan: &[usize], utility: f64) -> OrderedPlan {
        OrderedPlan {
            plan: plan.to_vec(),
            utility,
        }
    }

    #[test]
    fn verify_accepts_a_correct_ordering() {
        // Costs: [0,0]=4, [1,0]=5, [0,1]=5, [1,1]=6 → utilities −4 > −5 ≥ −5 > −6.
        let ordering = [
            op(&[0, 0], -4.0),
            op(&[1, 0], -5.0),
            op(&[0, 1], -5.0),
            op(&[1, 1], -6.0),
        ];
        verify_ordering(&inst(), &LinearCost, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_order() {
        let ordering = [op(&[1, 1], -6.0), op(&[0, 0], -4.0)];
        let err = verify_ordering(&inst(), &LinearCost, &ordering, 1e-9).unwrap_err();
        assert!(err.contains("maximum"), "{err}");
    }

    #[test]
    fn verify_rejects_wrong_utility() {
        let ordering = [op(&[0, 0], -999.0)];
        let err = verify_ordering(&inst(), &LinearCost, &ordering, 1e-9).unwrap_err();
        assert!(err.contains("reported utility"), "{err}");
    }

    #[test]
    fn verify_rejects_duplicates() {
        let ordering = [op(&[0, 0], -4.0), op(&[0, 0], -4.0)];
        let err = verify_ordering(&inst(), &LinearCost, &ordering, 1e-9).unwrap_err();
        assert!(err.contains("already emitted"), "{err}");
    }

    #[test]
    fn display_and_errors() {
        assert_eq!(op(&[0, 2], -1.5).to_string(), "[b0s0 b1s2] u=-1.500000");
        let e = OrdererError::NotFullyMonotonic("coverage");
        assert!(e.to_string().contains("Greedy"));
        let e = OrdererError::NoDiminishingReturns("failure-cost+cache");
        assert!(e.to_string().contains("Streamer"));
    }
}
