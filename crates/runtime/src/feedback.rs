//! Feedback: folding observed execution outcomes back into monitoring
//! state.
//!
//! The executor already reports each plan's outcome to the orderer (see
//! [`crate::executor`]); this module feeds the same run records to the
//! [`DivergenceMonitor`] — per source, the attempts, failures and
//! latencies observed, confronted with the catalog's declared behavior.

use crate::executor::{PlanExecution, PlanStatus};
use crate::source::SourceGrid;
use qpo_obs::{AccessObservation, DivergenceMonitor, SourceExpectation};

/// Declares every grid source's catalog expectations to the drift
/// monitor — the same f64s the executor journals as `source_declared`
/// events, so the live monitor and a trace replay measure against
/// bit-identical baselines.
pub fn declare_sources(monitor: &mut DivergenceMonitor, grid: &SourceGrid) {
    for svc in grid.iter() {
        monitor.declare(
            &svc.name,
            SourceExpectation {
                latency: svc.behavior.expected_latency(),
                transient_rate: svc.behavior.transient_failure_rate,
                tuples: svc.behavior.expected_tuples,
            },
        );
    }
}

/// Feeds one plan's fresh access chains into the drift monitor, in
/// record order. Memo replays (`attempts == 0`) are skipped: a replayed
/// access observes the memo, not the source — and, symmetrically, it
/// journals no `source_attempt` events, so the offline recomputation
/// never sees it either.
pub fn observe_divergence(monitor: &mut DivergenceMonitor, report: &PlanExecution) {
    let tuples = match &report.status {
        PlanStatus::Executed { tuples, .. } => Some(*tuples as f64),
        _ => None,
    };
    for a in &report.accesses {
        if a.attempts == 0 {
            continue;
        }
        monitor.observe(
            &a.name,
            AccessObservation {
                attempts: u64::from(a.attempts),
                transient_failures: u64::from(a.transient_failures),
                ok: a.ok,
                permanently_down: a.permanently_down,
                latency: a.latency,
                tuples,
                network: a.remote_network,
                server: a.remote_server,
            },
        );
    }
}
