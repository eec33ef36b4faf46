//! Synthetic source extensions: materializing catalog sources as in-memory
//! relations.
//!
//! The paper's sources are remote web databases; our substitute (see
//! DESIGN.md) stores each source's tuples in a [`Database`] keyed by the
//! *source relation* name, so a query plan — a conjunction of source atoms
//! — can be evaluated directly by `qpo-datalog`'s engine.
//!
//! The generated data follows the coverage model: a source whose extent is
//! `[s, e)` stores one tuple per universe item in that range. The item id
//! fills the tuple's **last** attribute (the join attribute in all the
//! bundled domains); earlier attributes draw deterministically from a value
//! pool, so selections like `play_in(ford, M)` keep a predictable subset.

use qpo_catalog::Catalog;
use qpo_datalog::{Constant, Database};
use std::fmt;

/// Why a catalog could not be materialized, or a materialized tuple could
/// not be decoded. Typed so a mediator run degrades gracefully instead of
/// aborting on malformed extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtensionError {
    /// The value pool has no entries to fill non-join attributes from.
    EmptyPool,
    /// A source declares arity 0, leaving no attribute for the item id.
    NullarySource {
        /// The offending source relation.
        source: String,
    },
    /// A source's extent end overflows the universe representation.
    ExtentOverflow {
        /// The offending source relation.
        source: String,
        /// The extent start.
        start: u64,
        /// The extent length that overflowed `start + len`.
        len: u64,
    },
}

impl fmt::Display for ExtensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtensionError::EmptyPool => write!(f, "value pool must be non-empty"),
            ExtensionError::NullarySource { source } => {
                write!(f, "source `{source}` has arity 0; no item-id attribute")
            }
            ExtensionError::ExtentOverflow { source, start, len } => write!(
                f,
                "source `{source}` extent [{start}, {start}+{len}) overflows u64"
            ),
        }
    }
}

impl std::error::Error for ExtensionError {}

/// Fills a database with one relation per catalog source, reporting
/// malformed catalogs as typed errors.
///
/// For source `v` with extent `[s, e)` and arity `a`, every item
/// `x ∈ [s, e)` yields the tuple
/// `(pool[(x + |v|) mod |pool|], ..., item_x)` — `a − 1` pool values
/// followed by the item id. Deterministic: equal inputs give equal data.
pub fn try_populate_sources(catalog: &Catalog, pool: &[&str]) -> Result<Database, ExtensionError> {
    if pool.is_empty() {
        return Err(ExtensionError::EmptyPool);
    }
    let mut db = Database::new();
    for entry in catalog.iter() {
        let name = entry.description.name().clone();
        let arity = entry.description.arity();
        if arity == 0 {
            return Err(ExtensionError::NullarySource {
                source: name.to_string(),
            });
        }
        let salt = name.len() as u64 + name.bytes().map(u64::from).sum::<u64>();
        let extent = entry.stats.extent;
        if extent.start.checked_add(extent.len).is_none() {
            return Err(ExtensionError::ExtentOverflow {
                source: name.to_string(),
                start: extent.start,
                len: extent.len,
            });
        }
        for x in extent.start..extent.end() {
            let mut tuple = Vec::with_capacity(arity);
            for pos in 0..arity - 1 {
                let idx = ((x + salt + pos as u64) % pool.len() as u64) as usize;
                tuple.push(Constant::str(pool[idx]));
            }
            tuple.push(Constant::Int(x as i64));
            db.insert(name.as_ref(), tuple);
        }
    }
    Ok(db)
}

/// Infallible wrapper over [`try_populate_sources`] for callers that build
/// catalogs from the bundled domains (which are well-formed by
/// construction).
///
/// # Panics
///
/// On the same malformed inputs [`try_populate_sources`] reports as errors.
pub fn populate_sources(catalog: &Catalog, pool: &[&str]) -> Database {
    match try_populate_sources(catalog, pool) {
        Ok(db) => db,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::movie_domain;

    #[test]
    fn populates_every_source_with_extent_many_tuples() {
        let catalog = movie_domain();
        let db = populate_sources(&catalog, &["ford", "hanks", "blanchett"]);
        for entry in catalog.iter() {
            let name = entry.description.name();
            assert_eq!(
                db.cardinality(name) as u64,
                entry.stats.extent.len,
                "source {name}"
            );
        }
    }

    #[test]
    fn is_deterministic() {
        let catalog = movie_domain();
        let a = populate_sources(&catalog, &["ford", "hanks"]);
        let b = populate_sources(&catalog, &["ford", "hanks"]);
        assert_eq!(a, b);
    }

    #[test]
    fn last_attribute_is_the_item_id() {
        let catalog = movie_domain();
        let db = populate_sources(&catalog, &["ford"]);
        let extent = catalog.source("v1").unwrap().stats.extent;
        for t in db.tuples("v1") {
            let Some(Constant::Int(id)) = t.last() else {
                panic!("materialized tuples carry item ids: {t:?}");
            };
            assert!((extent.start..extent.end()).contains(&(*id as u64)));
        }
    }

    #[test]
    fn single_value_pool_makes_selection_total() {
        let catalog = movie_domain();
        let db = populate_sources(&catalog, &["ford"]);
        let q = qpo_datalog::parse_query("q(M) :- v3(ford, M)").unwrap();
        let n = db.evaluate(&q).len() as u64;
        assert_eq!(n, catalog.source("v3").unwrap().stats.extent.len);
    }

    #[test]
    fn empty_pool_is_a_typed_error() {
        let err = try_populate_sources(&movie_domain(), &[]).unwrap_err();
        assert_eq!(err, ExtensionError::EmptyPool);
        assert!(err.to_string().contains("non-empty"));
    }

    #[test]
    #[should_panic(expected = "pool must be non-empty")]
    fn infallible_wrapper_still_panics_for_legacy_callers() {
        populate_sources(&movie_domain(), &[]);
    }
}
