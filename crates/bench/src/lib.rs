//! Experiment harness: everything needed to regenerate the paper's
//! evaluation (Figure 6 panels a–l and the §6 sweeps).
//!
//! The paper measures *time from query issue to the first k best plans*
//! against bucket size, per utility measure and algorithm, excluding
//! bucket-generation time. This harness reproduces each panel and
//! additionally reports the machine-independent *plans evaluated* counter
//! (the quantity the paper's own analysis of the figures is phrased in),
//! since absolute milliseconds on modern hardware are not comparable to a
//! Pentium III 500.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod experiments;
pub mod runner;

pub use curve::{answers_curve, format_curve, ordering_regret, synthetic_catalog, CurvePoint};
pub use experiments::{all_experiments, format_table, run_experiment, to_csv, Experiment};
pub use runner::{run_config, AlgorithmKind, HeuristicKind, MeasureKind, ResultRow, RunConfig};
