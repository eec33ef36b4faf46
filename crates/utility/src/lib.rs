//! Utility measures for query plans.
//!
//! The plan-ordering problem (Doan & Halevy, ICDE 2002) is parameterized by
//! a utility measure `u(p | executed plans, Q)`. This crate provides the
//! [`UtilityMeasure`] abstraction and the paper's measures:
//!
//! | Measure | Paper ref | Monotonic | Dim. returns | Independence |
//! |---------|-----------|-----------|--------------|--------------|
//! | [`Coverage`] | §2 Ex. 2.1, Fig 6 a–c | no | yes | disjoint boxes |
//! | [`LinearCost`] | §3 eq. (1) | **fully** | trivially | full |
//! | [`FusionCost`] | §3 eq. (2) | last subgoal / uniform-α | trivially | full |
//! | [`FailureCost`] | §6, Fig 6 d–i | no | no-caching only | no-caching: full; caching: disjoint sources |
//! | [`MonetaryCost`] | §6, Fig 6 j–l | no | no-caching only | as above |
//! | [`Combined`] | §1 Ex. 1.2 | no | both components | both components |
//!
//! Abstract plans (one candidate set per bucket) evaluate to sound
//! [`qpo_interval::Interval`]s; concrete plans evaluate to exact points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod context;
pub mod cost;
pub mod coverage;
pub mod geometry;
pub mod measure;
pub mod monetary;

pub use combined::Combined;
pub use context::ExecutionContext;
pub use cost::{FailureCost, FusionCost, LinearCost};
pub use coverage::Coverage;
pub use geometry::{residual_volume, union_volume, BoxN};
pub use measure::{as_concrete, CountingMeasure, IntervalCarry, UtilityMeasure};
pub use monetary::MonetaryCost;
