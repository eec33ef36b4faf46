//! Statistics estimation and kernel-profile reporting.
//!
//! Two kinds of measurement live here. First, *source statistics*: the
//! paper assumes `n_i` and coverage extents are known to the mediator; in
//! practice they are profiled from the actual source contents
//! ([`profile_catalog`]). Second, *ordering-kernel counters*: the
//! incremental kernel behind iDrips tallies its work
//! ([`KernelStats`]) — refinements, dominance checks, cache traffic,
//! interval evaluations saved — and [`format_kernel_stats`] renders that
//! tally for the examples and the bench runner.

use qpo_catalog::{Catalog, Extent};
use qpo_core::KernelStats;
use qpo_datalog::{Constant, Database};
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

/// Measured cardinality of a source relation.
pub fn estimate_tuples(db: &Database, source: &str) -> f64 {
    db.cardinality(source) as f64
}

/// Measured extent of a source relation: the `[min, max+1)` range of the
/// integer item ids in its *last* attribute (the join-attribute convention
/// of [`crate::extensions`]). Sources without integer ids get the empty
/// extent.
pub fn estimate_extent(db: &Database, source: &str) -> Extent {
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut seen = false;
    for tuple in db.tuples(source) {
        if let Some(Constant::Int(v)) = tuple.last() {
            if *v >= 0 {
                let v = *v as u64;
                min = min.min(v);
                max = max.max(v);
                seen = true;
            }
        }
    }
    if seen {
        Extent::new(min, max - min + 1)
    } else {
        Extent::EMPTY
    }
}

/// Returns a copy of `catalog` with each source's `tuples` and `extent`
/// replaced by measurements from `db`. Cost parameters (`α`, fees, failure
/// probabilities, access costs) are kept — they cannot be profiled from
/// contents alone.
pub fn profile_catalog(catalog: &Catalog, db: &Database) -> Catalog {
    let mut profiled = Catalog::new(catalog.schema.clone());
    for entry in catalog.iter() {
        let name = entry.description.name().clone();
        let mut stats = entry.stats.clone();
        stats.tuples = estimate_tuples(db, &name);
        let measured = estimate_extent(db, &name);
        if !measured.is_empty() {
            stats.extent = measured;
        }
        profiled
            .add_source(entry.description.clone(), stats)
            .expect("profiled copy of a valid catalog stays valid");
    }
    profiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extensions::populate_sources;
    use qpo_catalog::domains::movie_domain;

    #[test]
    fn profiling_recovers_the_configured_statistics() {
        let catalog = movie_domain();
        let db = populate_sources(&catalog, &["ford", "hanks"]);
        let profiled = profile_catalog(&catalog, &db);
        assert_eq!(profiled.len(), catalog.len());
        for entry in catalog.iter() {
            let name = entry.description.name();
            let p = &profiled.source(name).unwrap().stats;
            // The populator emits exactly one tuple per extent item, so
            // measurement reproduces the configuration.
            assert_eq!(p.tuples, entry.stats.extent.len as f64, "{name}");
            assert_eq!(p.extent, entry.stats.extent, "{name}");
            // Unprofilable fields survive.
            assert_eq!(p.transmission_cost, entry.stats.transmission_cost);
            assert_eq!(p.failure_prob, entry.stats.failure_prob);
        }
    }

    #[test]
    fn empty_source_measures_zero() {
        let catalog = movie_domain();
        let db = Database::new();
        assert_eq!(estimate_tuples(&db, "v1"), 0.0);
        assert!(estimate_extent(&db, "v1").is_empty());
        let profiled = profile_catalog(&catalog, &db);
        assert_eq!(profiled.source("v1").unwrap().stats.tuples, 0.0);
        // Extent falls back to the configured one when nothing measured.
        assert_eq!(
            profiled.source("v1").unwrap().stats.extent,
            catalog.source("v1").unwrap().stats.extent
        );
    }

    #[test]
    fn non_integer_ids_yield_empty_extent() {
        let mut db = Database::new();
        db.insert("v", vec![Constant::str("a"), Constant::str("b")]);
        assert!(estimate_extent(&db, "v").is_empty());
        assert_eq!(estimate_tuples(&db, "v"), 1.0);
    }

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
            parallel_batches: 0,
        };
        let text = format_kernel_stats(&stats);
        for needle in [
            "search rounds",
            "12",
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

    #[test]
    fn extent_spans_min_to_max() {
        let mut db = Database::new();
        for v in [10i64, 12, 17] {
            db.insert("v", vec![Constant::Int(v)]);
        }
        assert_eq!(estimate_extent(&db, "v"), Extent::new(10, 8));
    }
}
