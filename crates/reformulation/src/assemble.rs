//! Bridge from symbolic reformulation to numeric plan ordering.
//!
//! The ordering algorithms consume a [`ProblemInstance`] — buckets of
//! source *statistics*. This module reformulates a query against a
//! [`Catalog`] with the bucket algorithm and assembles the matching
//! instance, so a caller can order plans and then map emitted index plans
//! back to executable conjunctive queries.

use crate::bucket::{candidate_plan, create_buckets, Buckets};
use crate::minicon::McdPlanSpace;
use qpo_catalog::schema::SchemaError;
use qpo_catalog::{Catalog, ProblemInstance};
use qpo_datalog::ConjunctiveQuery;
use std::fmt;
use std::sync::Arc;

/// A reformulated query: its buckets plus everything needed to materialize
/// and execute plans.
#[derive(Debug, Clone)]
pub struct Reformulation {
    /// The user query.
    pub query: ConjunctiveQuery,
    /// One bucket of usable sources per subgoal.
    pub buckets: Buckets,
}

/// Reformulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReformulationError {
    /// The query does not conform to the catalog's schema.
    Schema(SchemaError),
    /// The query is unsafe: this head variable does not occur in its body,
    /// so no plan could bind it.
    UnsafeQuery(Arc<str>),
    /// Some subgoal has no usable source: no plan can cover the query.
    EmptyBucket(usize),
    /// A bucket entry references a source the catalog does not know (can
    /// only happen with inconsistent inputs).
    UnknownSource(String),
}

impl fmt::Display for ReformulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReformulationError::Schema(e) => write!(f, "schema error: {e}"),
            ReformulationError::UnsafeQuery(v) => {
                write!(f, "unsafe query: head variable `{v}` is not in the body")
            }
            ReformulationError::EmptyBucket(b) => {
                write!(f, "no source can answer subgoal {b}")
            }
            ReformulationError::UnknownSource(s) => write!(f, "unknown source `{s}`"),
        }
    }
}

impl std::error::Error for ReformulationError {}

/// Reformulates `query` against `catalog` using the bucket algorithm.
/// An unsafe query is refused before anything else.
pub fn reformulate(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
) -> Result<Reformulation, ReformulationError> {
    let body = query.body_variables();
    if let Some(v) = query
        .head_variables()
        .into_iter()
        .find(|v| !body.contains(v))
    {
        return Err(ReformulationError::UnsafeQuery(v));
    }
    catalog
        .validate_query(query)
        .map_err(ReformulationError::Schema)?;
    let views = catalog.descriptions();
    let buckets = create_buckets(query, &views);
    if let Some(b) = buckets.iter().position(Vec::is_empty) {
        return Err(ReformulationError::EmptyBucket(b));
    }
    Ok(Reformulation {
        query: query.clone(),
        buckets,
    })
}

impl Reformulation {
    /// Assembles the numeric [`ProblemInstance`] for the ordering
    /// algorithms: bucket `i`'s entry `j` carries the statistics of the
    /// source behind `buckets[i][j]`. The per-subgoal universe is
    /// `universe`, enlarged if some extent would not fit.
    pub fn problem_instance(
        &self,
        catalog: &Catalog,
        universe: u64,
        overhead: f64,
    ) -> Result<ProblemInstance, ReformulationError> {
        let mut stat_buckets = Vec::with_capacity(self.buckets.len());
        let mut universes = Vec::with_capacity(self.buckets.len());
        for bucket in &self.buckets {
            let mut stats = Vec::with_capacity(bucket.len());
            let mut max_end = universe;
            for entry in bucket {
                let e = catalog
                    .source(&entry.source)
                    .ok_or_else(|| ReformulationError::UnknownSource(entry.source.to_string()))?;
                max_end = max_end.max(e.stats.extent.end());
                stats.push(e.stats.clone());
            }
            stat_buckets.push(stats);
            universes.push(max_end);
        }
        ProblemInstance::new(overhead, universes, stat_buckets)
            .map_err(|e| ReformulationError::UnknownSource(e.to_string()))
    }

    /// Materializes the conjunctive query plan for an emitted index plan.
    pub fn plan_query(&self, choice: &[usize]) -> ConjunctiveQuery {
        candidate_plan(&self.query, &self.buckets, choice)
    }

    /// The source names of an emitted index plan, in bucket order.
    pub fn plan_sources(&self, choice: &[usize]) -> Vec<String> {
        self.buckets
            .iter()
            .zip(choice)
            .map(|(b, &c)| b[c].source.to_string())
            .collect()
    }
}

/// Assembles one [`ProblemInstance`] per MiniCon plan space (§7):
/// generalized buckets become instance buckets, and each MCD entry carries
/// the statistics of its view. Returned instances are index-aligned with
/// `spaces`, so an emitted `(space, choice)` maps back through
/// [`McdPlanSpace::plan`].
///
/// Note: a generalized bucket covers a *set* of subgoals, so the instance's
/// "universe" per bucket is the covered sets' common scale — extents keep
/// their view's values; the `universe` argument is grown to fit them.
pub fn minicon_instances(
    catalog: &Catalog,
    spaces: &[McdPlanSpace],
    universe: u64,
    overhead: f64,
) -> Result<Vec<ProblemInstance>, ReformulationError> {
    let mut instances = Vec::with_capacity(spaces.len());
    for space in spaces {
        let mut buckets = Vec::with_capacity(space.buckets.len());
        let mut universes = Vec::with_capacity(space.buckets.len());
        for bucket in &space.buckets {
            let mut stats = Vec::with_capacity(bucket.entries.len());
            let mut max_end = universe;
            for mcd in &bucket.entries {
                let entry = catalog
                    .source(&mcd.view)
                    .ok_or_else(|| ReformulationError::UnknownSource(mcd.view.to_string()))?;
                max_end = max_end.max(entry.stats.extent.end());
                stats.push(entry.stats.clone());
            }
            buckets.push(stats);
            universes.push(max_end);
        }
        instances.push(
            ProblemInstance::new(overhead, universes, buckets)
                .map_err(|e| ReformulationError::UnknownSource(e.to_string()))?,
        );
    }
    Ok(instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_datalog::parse_query;

    #[test]
    fn movie_domain_reformulates() {
        let catalog = movie_domain();
        let r = reformulate(&catalog, &movie_query()).unwrap();
        assert_eq!(r.buckets.len(), 2);
        assert_eq!(r.buckets[0].len(), 3);
        assert_eq!(r.buckets[1].len(), 3);
        let inst = r.problem_instance(&catalog, MOVIE_UNIVERSE, 5.0).unwrap();
        assert_eq!(inst.plan_count(), 9);
        assert_eq!(inst.universes, vec![MOVIE_UNIVERSE; 2]);
        // Stats line up with the catalog.
        let v1 = catalog.source("v1").unwrap();
        assert_eq!(inst.buckets[0][0], v1.stats);
    }

    #[test]
    fn plan_query_and_sources_roundtrip() {
        let catalog = movie_domain();
        let r = reformulate(&catalog, &movie_query()).unwrap();
        assert_eq!(r.plan_sources(&[0, 1]), vec!["v1", "v5"]);
        let plan = r.plan_query(&[2, 0]);
        assert_eq!(plan.to_string(), "q(M, R) :- v3(\"ford\", M), v4(R, M)");
    }

    #[test]
    fn schema_violations_are_reported() {
        let catalog = movie_domain();
        let q = parse_query("q(D) :- directs(D, M)").unwrap();
        assert!(matches!(
            reformulate(&catalog, &q),
            Err(ReformulationError::Schema(_))
        ));
    }

    #[test]
    fn longer_queries_reformulate_too() {
        let catalog = movie_domain();
        let q = parse_query("q(A) :- play_in(A, M), review_of(rev9, M), russian(M)").unwrap();
        let r = reformulate(&catalog, &q).unwrap();
        assert_eq!(r.buckets.len(), 3);
        assert!(r.buckets.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn uncoverable_subgoal_is_reported() {
        let catalog = movie_domain();
        // A catalog whose only source covers play_in but not review_of.
        let mut small = qpo_catalog::Catalog::new(catalog.schema.clone());
        small
            .add_source(
                qpo_datalog::SourceDescription::new(
                    parse_query("v(A, M) :- play_in(A, M)").unwrap(),
                ),
                qpo_catalog::SourceStats::new(),
            )
            .unwrap();
        let err = reformulate(&small, &movie_query()).unwrap_err();
        assert_eq!(err, ReformulationError::EmptyBucket(1));
        assert!(err.to_string().contains("subgoal 1"));
    }

    #[test]
    fn minicon_instances_align_with_spaces() {
        use crate::minicon::minicon_plan_spaces;
        use qpo_catalog::{Extent, MediatedSchema, SchemaRelation, SourceStats};
        use qpo_datalog::SourceDescription;

        let schema = MediatedSchema::with_relations([
            SchemaRelation::new("r", 2),
            SchemaRelation::new("s", 2),
        ]);
        let mut catalog = qpo_catalog::Catalog::new(schema);
        let mut add = |text: &str, tuples: f64| {
            catalog
                .add_source(
                    SourceDescription::new(parse_query(text).unwrap()),
                    SourceStats::new()
                        .with_extent(Extent::new(0, 50))
                        .with_tuples(tuples),
                )
                .unwrap();
        };
        add("pair(X, Z) :- r(X, Y), s(Y, Z)", 30.0);
        add("left(X, Y) :- r(X, Y)", 10.0);
        add("right(Y, Z) :- s(Y, Z)", 20.0);

        let query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z)").unwrap();
        let spaces = minicon_plan_spaces(&query, &catalog.descriptions());
        assert_eq!(spaces.len(), 2);
        let instances = minicon_instances(&catalog, &spaces, 100, 1.0).unwrap();
        assert_eq!(instances.len(), 2);
        for (space, inst) in spaces.iter().zip(&instances) {
            assert_eq!(space.buckets.len(), inst.query_len());
            for (gb, ib) in space.buckets.iter().zip(&inst.buckets) {
                assert_eq!(gb.entries.len(), ib.len());
                for (mcd, stat) in gb.entries.iter().zip(ib) {
                    assert_eq!(catalog.source(&mcd.view).unwrap().stats.tuples, stat.tuples);
                }
            }
        }
    }

    #[test]
    fn instance_universe_grows_to_fit_extents() {
        let catalog = movie_domain();
        let r = reformulate(&catalog, &movie_query()).unwrap();
        let inst = r.problem_instance(&catalog, 10, 1.0).unwrap();
        // Requested universe 10 is far too small for the extents; each
        // bucket's universe must have grown to fit its largest extent end.
        for (u, bucket) in inst.universes.iter().zip(&inst.buckets) {
            let max_end = bucket.iter().map(|s| s.extent.end()).max().unwrap();
            assert_eq!(*u, max_end.max(10));
        }
        assert!(inst.validate().is_ok());
    }
}
