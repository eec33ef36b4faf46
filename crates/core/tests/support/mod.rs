//! Test support for `qpo-core`: the oracles the shipped kernel is
//! differentially tested against. None of this ships.
//!
//! - [`reference_find_best`] — the textbook Drips loop the incremental
//!   [`OrderingKernel`](qpo_core::OrderingKernel) replaced;
//! - [`ReferenceIDrips`] — iDrips over it: one fresh search per emission;
//! - [`pi::ReferencePi`] — the eager PI the shipped lazy one replaced:
//!   every row the last emission invalidated re-valued, then a scan for
//!   the maximum;
//! - [`streamer::ReferenceStreamer`] — Streamer with its dominance links
//!   kept as a list beside the graph, the representation the shipped one
//!   replaced;
//! - [`verify_certificates`] — replays journalled elimination certificates
//!   against the problem instance;
//! - [`assert_same_steps`] — steps an orderer beside a reference one under
//!   the equivalence contract, over the measures of [`all_measures`].

pub mod pi;
pub mod streamer;

use qpo_catalog::ProblemInstance;
use qpo_core::{
    remove_plan, AbstractionHeuristic, AbstractionTree, DripsOutcome, NodeId, OrderedPlan,
    PlanOrderer, PlanOutcome, PlanSpace,
};
use qpo_interval::Interval;
use qpo_obs::EliminationCertificate;
use qpo_utility::{
    as_concrete, Coverage, ExecutionContext, FailureCost, FusionCost, MonetaryCost, UtilityMeasure,
};

/// The four measure families of §3, both caching variants where they
/// exist. Boxed so one loop covers them all.
pub fn all_measures() -> Vec<(&'static str, Box<dyn UtilityMeasure>)> {
    vec![
        ("coverage", Box::new(Coverage)),
        ("failure-nocache", Box::new(FailureCost::without_caching())),
        ("failure-cache", Box::new(FailureCost::with_caching())),
        (
            "monetary-nocache",
            Box::new(MonetaryCost::without_caching()),
        ),
        ("monetary-cache", Box::new(MonetaryCost::with_caching())),
        ("fusion", Box::new(FusionCost)),
    ]
}

/// True iff the maximum utility among `remaining` under `ctx` is shared
/// by two or more plans — a step where brute force and Drips may pick
/// different argmaxes.
pub fn tied_max<M: UtilityMeasure + ?Sized>(
    inst: &ProblemInstance,
    m: &M,
    ctx: &ExecutionContext,
    remaining: &[Vec<usize>],
) -> bool {
    let utilities: Vec<f64> = remaining.iter().map(|p| m.utility(inst, p, ctx)).collect();
    let max = utilities.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    utilities.iter().filter(|&&u| u == max).count() >= 2
}

/// Steps `fast` and `slow` over `inst` to exhaustion; after step `s`
/// (from 0) each is told that the plan it emitted at step `fails(s)`, if
/// any, failed:
/// utility bits equal at every step, plans equal up to the first step
/// whose maximum is tied. While the two have emitted the same plans they
/// share a history, so the first step whose plans differ is the one to
/// check for a tie. Returns `fast`'s plans.
pub fn assert_same_steps<M: UtilityMeasure + ?Sized>(
    label: &str,
    inst: &ProblemInstance,
    m: &M,
    fast: &mut dyn PlanOrderer,
    slow: &mut dyn PlanOrderer,
    fails: impl Fn(usize) -> Option<usize>,
) -> Vec<OrderedPlan> {
    let (mut ctx, mut remaining) = (ExecutionContext::new(), inst.all_plans());
    let mut diverged = false;
    let (mut emitted, mut reference) = (Vec::new(), Vec::new());
    for step in 0..inst.plan_count() {
        let a = fast.next_plan().expect("fast orderer exhausted early");
        let b = slow.next_plan().expect("reference orderer exhausted early");
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{label}: utilities diverge at step {step}: {} vs {}",
            a.utility,
            b.utility
        );
        if !diverged && a.plan != b.plan {
            let tied = tied_max(inst, m, &ctx, &remaining);
            assert!(tied, "{label}: untied plans diverge at step {step}");
            diverged = true;
        }
        remaining.retain(|p| *p != a.plan);
        ctx.record(&a.plan);
        emitted.push(a);
        reference.push(b.plan);
        if let Some(failed) = fails(step) {
            let (a, b) = (&emitted[failed].plan, &reference[failed]);
            fast.observe(&PlanOutcome::failed(a));
            slow.observe(&PlanOutcome::failed(b));
            ctx.retract(a);
        }
    }
    assert_eq!(
        fast.next_plan(),
        None,
        "{label}: fast orderer not exhausted"
    );
    assert_eq!(slow.next_plan(), None, "{label}: reference not exhausted");
    emitted
}

/// Drips' dominance with the kernel's deterministic tie-break: `p`
/// eliminates `q` when `p.lo > q.hi`, or when they touch and `p` has the
/// smaller id.
fn dominates(p: (Interval, usize), q: (Interval, usize)) -> bool {
    let (up, idp) = p;
    let (uq, idq) = q;
    up.lo() > uq.hi() || (up.lo() == uq.hi() && idp < idq)
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
                .any(|&(id, up)| id != p.id && dominates((up, id), (uq, p.id)))
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
/// the dominance predicate *and* under the certificate's dependency-free
/// replay ([`EliminationCertificate::comparison_holds`]; a `kernel.rs`
/// unit test pins the kernel's private `eliminates` to it), and (2) both
/// utility intervals re-derive bit-for-bit from `measure`.
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
        // (1) the comparison itself, by the predicate and by the
        // certificate's own replay.
        let champ_u = Interval::new(cert.champion_interval.0, cert.champion_interval.1);
        let victim_u = Interval::new(cert.victim_interval.0, cert.victim_interval.1);
        let holds = champ_u.lo() > victim_u.hi()
            || (champ_u.lo() == victim_u.hi() && cert.champion_id < cert.victim_id);
        if !holds {
            return Err(fail(format!(
                "recorded intervals do not dominate: champion [{}, {}] (id {}) vs victim [{}, {}] (id {})",
                champ_u.lo(), champ_u.hi(), cert.champion_id,
                victim_u.lo(), victim_u.hi(), cert.victim_id,
            )));
        }
        if !cert.comparison_holds() {
            return Err(fail(
                "certificate replay disagrees with the dominance predicate".into(),
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

/// iDrips over [`reference_find_best`]: per emission, one fresh textbook
/// search over the surviving spaces, then `remove_plan` and `record` —
/// the orderer `IDrips` must match bit for bit.
pub struct ReferenceIDrips<'a, M: UtilityMeasure + ?Sized, H> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    heuristic: H,
    ctx: ExecutionContext,
    spaces: Vec<PlanSpace>,
}

impl<'a, M: UtilityMeasure + ?Sized, H: AbstractionHeuristic> ReferenceIDrips<'a, M, H> {
    /// The orderer over the instance's full plan space.
    pub fn new(inst: &'a ProblemInstance, measure: &'a M, heuristic: H) -> Self {
        ReferenceIDrips {
            inst,
            measure,
            heuristic,
            ctx: ExecutionContext::new(),
            spaces: vec![qpo_core::full_space(inst)],
        }
    }
}

impl<M: UtilityMeasure + ?Sized, H: Clone> Clone for ReferenceIDrips<'_, M, H> {
    fn clone(&self) -> Self {
        ReferenceIDrips {
            heuristic: self.heuristic.clone(),
            ctx: self.ctx.clone(),
            spaces: self.spaces.clone(),
            ..*self
        }
    }
}

impl<M: UtilityMeasure + ?Sized, H: AbstractionHeuristic> PlanOrderer
    for ReferenceIDrips<'_, M, H>
{
    fn algorithm_name(&self) -> &'static str {
        "idrips-reference"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let outcome = reference_find_best(
            self.inst,
            self.measure,
            &self.ctx,
            &self.spaces,
            &self.heuristic,
        )?;
        let space = self.spaces.swap_remove(outcome.space);
        self.spaces.extend(remove_plan(&space, &outcome.plan));
        self.ctx.record(&outcome.plan);
        Some(OrderedPlan {
            plan: outcome.plan,
            utility: outcome.utility,
        })
    }

    fn observe(&mut self, outcome: &PlanOutcome) {
        if outcome.is_failure() {
            self.ctx.retract(&outcome.plan);
        }
    }
}
