//! The paper's two narrative domains, ready to run.
//!
//! - [`movie_domain`] — Figure 1: schema `play_in/2`, `review_of/2`,
//!   `american/1`, `russian/1`; sources `v1..v6`; the sample query asks for
//!   reviews of movies starring Harrison Ford.
//! - [`camera_domain`] — §3's digital-camera discussion: reseller groups
//!   (discount resellers, specialty stores, national chains, warehouse
//!   clubs) and review sites (free and fee-charging), with statistics that
//!   mirror the prose (discounters are cheap but unreliable, specialty
//!   stores are pricey but excellent, chains are broad, etc.).

use crate::catalog::Catalog;
use crate::extent::Extent;
use crate::schema::{MediatedSchema, SchemaRelation};
use crate::stats::SourceStats;
use qpo_datalog::{parse_query, ConjunctiveQuery, SourceDescription};

fn desc(text: &str) -> SourceDescription {
    SourceDescription::new(parse_query(text).expect("domain view parses"))
}

/// Builds the Figure 1 movie catalog.
pub fn movie_domain() -> Catalog {
    let schema = MediatedSchema::with_relations([
        SchemaRelation::new("play_in", 2),
        SchemaRelation::new("review_of", 2),
        SchemaRelation::new("american", 1),
        SchemaRelation::new("russian", 1),
    ]);
    let mut catalog = Catalog::new(schema);

    // Actor sources: v1 American movies, v2 Russian movies, v3 everything.
    // Extents live in a universe of 1000 movies; American and Russian
    // catalogs barely overlap, the general source spans both.
    let actor_sources = [
        (
            "v1(A, M) :- play_in(A, M), american(M)",
            Extent::new(0, 450),
            2.0,
            0.02,
        ),
        (
            "v2(A, M) :- play_in(A, M), russian(M)",
            Extent::new(430, 120),
            5.0,
            0.10,
        ),
        (
            "v3(A, M) :- play_in(A, M)",
            Extent::new(150, 700),
            1.0,
            0.05,
        ),
    ];
    for (view, extent, alpha, fail) in actor_sources {
        catalog
            .add_source(
                desc(view),
                SourceStats::new()
                    .with_extent(extent)
                    .with_transmission_cost(alpha)
                    .with_failure_prob(fail)
                    .with_access_cost(extent.len as f64 / 100.0)
                    .with_fee(0.0),
            )
            .expect("movie source registers");
    }

    // Review sources: three overlapping review databases.
    let review_sources = [
        (
            "v4(R, M) :- review_of(R, M)",
            Extent::new(0, 600),
            1.5,
            0.02,
            0.00,
        ),
        (
            "v5(R, M) :- review_of(R, M)",
            Extent::new(300, 500),
            1.0,
            0.05,
            0.05,
        ),
        (
            "v6(R, M) :- review_of(R, M)",
            Extent::new(550, 450),
            3.0,
            0.01,
            0.25,
        ),
    ];
    for (view, extent, alpha, fail, fee) in review_sources {
        catalog
            .add_source(
                desc(view),
                SourceStats::new()
                    .with_extent(extent)
                    .with_transmission_cost(alpha)
                    .with_failure_prob(fail)
                    .with_access_cost(extent.len as f64 / 100.0)
                    .with_fee(fee),
            )
            .expect("movie source registers");
    }
    catalog
}

/// The universe size (number of movies) the movie domain's extents live in.
pub const MOVIE_UNIVERSE: u64 = 1000;

/// The constant pool the standalone `qpo-source-server` seeds the movie
/// world's extensions from (first attributes cycle through it). A client
/// comparing its simulator against that server seeds the same pool; with
/// three values, binding `ford` selects about a third of a source.
pub const MOVIE_POOL: [&str; 3] = ["ford", "hanks", "blanchett"];

/// Figure 1's sample query: reviews of movies starring Harrison Ford.
pub fn movie_query() -> ConjunctiveQuery {
    parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)").expect("movie query parses")
}

/// The universe size (number of camera models / listings) of the camera
/// domain.
pub const CAMERA_UNIVERSE: u64 = 2000;

/// Builds the §3 digital-camera catalog.
///
/// Two schema relations: `sells(Store, Camera)` and `reviews(Site, Camera)`.
/// Reseller groups and review-site groups get statistics matching the
/// paper's prose, and group members get similar statistics — exactly the
/// "many similar sources" structure that makes abstraction effective.
pub fn camera_domain() -> Catalog {
    let schema = MediatedSchema::with_relations([
        SchemaRelation::new("sells", 2),
        SchemaRelation::new("reviews", 2),
    ]);
    let mut catalog = Catalog::new(schema);

    // (name-prefix, count, extent-base, extent-len, α, failure, fee, access)
    // Groups: discounters are cheap/narrow/flaky; specialty stores are
    // narrow/reliable/expensive; national chains broad; clubs mid-range.
    #[allow(clippy::type_complexity)]
    let reseller_groups: [(&str, usize, u64, u64, f64, f64, f64, f64); 4] = [
        ("discount", 6, 0, 320, 0.2, 0.25, 0.01, 1.0),
        ("specialty", 4, 1400, 350, 1.5, 0.02, 0.20, 8.0),
        ("chain", 3, 200, 1500, 0.8, 0.05, 0.05, 12.0),
        ("club", 3, 500, 700, 0.5, 0.08, 0.02, 6.0),
    ];
    for (prefix, count, base, len, alpha, fail, fee, access) in reseller_groups {
        for i in 0..count {
            let name = format!("{prefix}{i}");
            let start = (base + i as u64 * 60).min(CAMERA_UNIVERSE - len);
            catalog
                .add_source(
                    desc(&format!("{name}(S, C) :- sells(S, C)")),
                    SourceStats::new()
                        .with_extent(Extent::new(start, len))
                        .with_transmission_cost(alpha)
                        .with_failure_prob(fail)
                        .with_fee(fee)
                        .with_access_cost(access),
                )
                .expect("camera reseller registers");
        }
    }

    #[allow(clippy::type_complexity)]
    let review_groups: [(&str, usize, u64, u64, f64, f64, f64, f64); 2] = [
        ("freerev", 5, 0, 800, 0.3, 0.10, 0.00, 2.0),
        ("paidrev", 3, 900, 1000, 0.6, 0.02, 0.30, 4.0),
    ];
    for (prefix, count, base, len, alpha, fail, fee, access) in review_groups {
        for i in 0..count {
            let name = format!("{prefix}{i}");
            let start = (base + i as u64 * 90).min(CAMERA_UNIVERSE - len);
            catalog
                .add_source(
                    desc(&format!("{name}(R, C) :- reviews(R, C)")),
                    SourceStats::new()
                        .with_extent(Extent::new(start, len))
                        .with_transmission_cost(alpha)
                        .with_failure_prob(fail)
                        .with_fee(fee)
                        .with_access_cost(access),
                )
                .expect("camera review site registers");
        }
    }
    catalog
}

/// The camera query: stores selling a camera together with its reviews.
pub fn camera_query() -> ConjunctiveQuery {
    parse_query("q(S, C, R) :- sells(S, C), reviews(R, C)").expect("camera query parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movie_domain_matches_figure1() {
        let c = movie_domain();
        assert_eq!(c.len(), 6);
        for v in ["v1", "v2", "v3", "v4", "v5", "v6"] {
            assert!(c.source(v).is_some(), "{v} registered");
        }
        assert!(c
            .source("v1")
            .unwrap()
            .description
            .covers_predicate("american"));
        assert!(c
            .source("v3")
            .unwrap()
            .description
            .covers_predicate("play_in"));
        assert!(c.validate_query(&movie_query()).is_ok());
        // Extents stay within the movie universe.
        for e in c.iter() {
            assert!(e.stats.extent.end() <= MOVIE_UNIVERSE);
        }
    }

    #[test]
    fn movie_overlap_structure() {
        let c = movie_domain();
        let ext = |n: &str| c.source(n).unwrap().stats.extent;
        // American and Russian catalogs barely overlap; the general source
        // v3 overlaps both but covers neither fully (sources are
        // incomplete under LAV semantics).
        assert!(ext("v1").intersect(ext("v2")).len < 50);
        assert!(ext("v3").overlaps(ext("v1")) && !ext("v3").contains_extent(ext("v1")));
        assert!(ext("v3").contains_extent(ext("v2")));
    }

    #[test]
    fn camera_domain_has_groups() {
        let c = camera_domain();
        assert_eq!(c.len(), 6 + 4 + 3 + 3 + 5 + 3);
        assert!(c.validate_query(&camera_query()).is_ok());
        // Discounters are flaky and cheap; specialty stores the opposite.
        let d = &c.source("discount0").unwrap().stats;
        let s = &c.source("specialty0").unwrap().stats;
        assert!(d.failure_prob > s.failure_prob);
        assert!(d.fee_per_tuple < s.fee_per_tuple);
        // Group members have similar statistics (the abstraction premise).
        let d1 = &c.source("discount1").unwrap().stats;
        assert_eq!(d.transmission_cost, d1.transmission_cost);
        assert_eq!(d.extent.len, d1.extent.len);
        for e in c.iter() {
            assert!(e.stats.extent.end() <= CAMERA_UNIVERSE);
        }
    }

    #[test]
    fn camera_sources_parse_as_distinct_views() {
        let c = camera_domain();
        let names: std::collections::BTreeSet<_> =
            c.iter().map(|e| e.description.name().clone()).collect();
        assert_eq!(names.len(), c.len(), "all source names distinct");
    }
}
