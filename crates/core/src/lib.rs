//! Plan-ordering algorithms for data integration.
//!
//! Rust implementation of the algorithms of **Doan & Halevy, "Efficiently
//! Ordering Query Plans for Data Integration" (ICDE 2002)**: given buckets
//! of candidate sources per query subgoal and a utility measure
//! `u(p | executed, Q)`, emit concrete plans in exact decreasing-utility
//! order, *incrementally* — the first plans arrive without enumerating the
//! Cartesian product.
//!
//! | Algorithm | Section | Requires | Character |
//! |-----------|---------|----------|-----------|
//! | [`Greedy`] | §4 | full monotonicity | per-bucket argmax + space splitting; no plan enumeration |
//! | [`OrderingKernel::find_best`] | §5.1 | — | Drips: abstraction refinement; finds only the *first* plan |
//! | [`IDrips`] | §5.2 | — | re-runs Drips per emission, then hands its remaining plans to [`Pi`] by a rent-or-buy rule; works for every measure |
//! | [`Streamer`] | §5.2 | diminishing returns | single abstraction + dominance-graph recycling |
//! | [`Pi`] | §6 | — | independence-aware brute force (the paper's baseline), re-valuing rows from their measure carries |
//! | [`Naive`] | — | — | full recomputation brute force (sanity baseline) |
//!
//! All orderers implement [`PlanOrderer`] and produce *identical utility
//! sequences* (Definition 2.1) whenever they are applicable;
//! [`verify_ordering`] checks that property against brute force.
//!
//! ```
//! use qpo_catalog::GeneratorConfig;
//! use qpo_core::{ByExpectedTuples, PlanOrderer, Pi, Streamer, verify_ordering};
//! use qpo_utility::Coverage;
//!
//! // A synthetic instance: 3 subgoals × 5 sources, overlap 0.3 (§6 setup).
//! let inst = GeneratorConfig::new(3, 5).with_seed(7).build();
//!
//! // Streamer emits the 10 best plans without enumerating all 125.
//! let mut streamer = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
//! let plans = streamer.order_k(10);
//! verify_ordering(&inst, &Coverage, &plans, 1e-12).unwrap();
//!
//! // The PI baseline agrees on every utility.
//! let baseline = Pi::new(&inst, &Coverage).order_k(10);
//! for (a, b) in plans.iter().zip(&baseline) {
//!     assert!((a.utility - b.utility).abs() < 1e-12);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod greedy;
pub mod idrips;
pub mod kernel;
pub mod merged;
pub mod orderer;
pub mod pi;
pub mod planspace;
pub mod streamer;

pub use abstraction::{
    AbstractionHeuristic, AbstractionTree, ByExpectedTuples, ByExtentMidpoint, ByTransmissionCost,
    NodeId, RandomKey,
};
pub use greedy::Greedy;
pub use idrips::IDrips;
pub use kernel::{DripsOutcome, KernelStats, OrderingKernel};
pub use merged::{merge_streamers, MergedOrderer};
pub use orderer::{
    utility_cmp, verify_ordering, OrderedPlan, OrdererError, OutcomeStatus, PlanOrderer,
    PlanOutcome,
};
pub use pi::{Naive, Pi};
pub use planspace::{full_space, remove_plan, space_contains, space_size, PlanSpace};
pub use streamer::{Streamer, StreamerStats};

#[cfg(test)]
// Unit tests reach the oracles in `tests/support`, which name this crate.
extern crate self as qpo_core;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/support/mod.rs"]
mod support;
