//! Kernel-profile reporting: the incremental kernel behind iDrips tallies
//! its work ([`KernelStats`]) — refinements, dominance checks, cache
//! traffic, interval evaluations saved — and [`format_kernel_stats`]
//! renders that tally for the examples.

use qpo_core::KernelStats;
use std::fmt::Write as _;

/// Renders the ordering kernel's counters as an aligned multi-line block
/// (no trailing newline), ready for `println!`.
///
/// The "evals saved" line is the headline: how many `utility_interval`
/// computations the memo table answered instead of the measure, as a
/// count and as a share of the demand (evals + hits).
pub fn format_kernel_stats(stats: &KernelStats) -> String {
    let demand = stats.interval_evals + stats.interval_cache_hits;
    let saved_pct = if demand == 0 {
        0.0
    } else {
        100.0 * stats.interval_cache_hits as f64 / demand as f64
    };
    let mut out = String::new();
    let _ = writeln!(out, "ordering kernel:");
    let _ = writeln!(out, "  search rounds      {:>8}", stats.rounds);
    let _ = writeln!(out, "  brute-force calls  {:>8}", stats.floor_calls);
    let _ = writeln!(out, "  refinements        {:>8}", stats.refinements);
    let _ = writeln!(
        out,
        "  dominance checks   {:>8}  ({} eliminations, {} champion sweeps)",
        stats.dominance_checks, stats.eliminations, stats.champion_sweeps
    );
    let _ = writeln!(
        out,
        "  interval evals     {:>8}  ({} resumed, {} cache hits)",
        stats.interval_evals, stats.interval_resumes, stats.interval_cache_hits
    );
    let _ = writeln!(
        out,
        "  evals saved        {:>8}  ({saved_pct:.1}% of demand)",
        stats.evals_saved()
    );
    let _ = write!(
        out,
        "  trees built        {:>8}  ({} cache hits)",
        stats.tree_builds, stats.tree_cache_hits
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn kernel_stats_format_includes_every_counter() {
        let stats = KernelStats {
            rounds: 12,
            refinements: 9,
            dominance_checks: 40,
            eliminations: 7,
            champion_sweeps: 3,
            interval_evals: 25,
            interval_resumes: 11,
            interval_cache_hits: 75,
            tree_builds: 4,
            tree_cache_hits: 16,
            floor_calls: 5,
            parallel_batches: 0,
        };
        let text = format_kernel_stats(&stats);
        for needle in [
            "search rounds",
            "12",
            "brute-force calls",
            "5",
            "refinements",
            "dominance checks",
            "40",
            "7 eliminations",
            "3 champion sweeps",
            "interval evals",
            "11 resumed",
            "75 cache hits",
            "evals saved",
            "75.0% of demand",
            "trees built",
            "16 cache hits",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.ends_with('\n'), "no trailing newline");
        // Zero demand must not divide by zero.
        let empty = format_kernel_stats(&KernelStats::default());
        assert!(empty.contains("0.0% of demand"));
    }
}
