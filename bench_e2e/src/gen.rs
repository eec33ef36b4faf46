//! Seeded input generation: every catalog, instance, query text, shape
//! list and popularity draw of a run derives from `--seed` here. The
//! system under test only ever sees the generated inputs.

use qpo_catalog::{Catalog, Extent, GeneratorConfig, MediatedSchema, SchemaRelation, SourceStats};
use qpo_datalog::{parse_query, SourceDescription};

/// SplitMix64 — one independent stream per `(seed, label)`.
pub struct Rng(u64);

impl Rng {
    /// The stream named `label` of run seed `seed`.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h.rotate_left(29));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Source-name suffixes whose bytes agree modulo 12. The mediator's
/// populator gives item `x` of source `v` the pool value
/// `pool[(x + salt(v)) mod |pool|]` with `salt` the length plus byte sum of
/// the name, so with these suffixes all sources of one relation agree on
/// every item's value for any pool of 2, 3, 4 or 6 values — they are
/// consistent fragments of one global relation, as LAV sources are, and a
/// selection keeps the same items whichever source serves it.
const SOURCE_SUFFIXES: [char; 6] = ['1', 'I', 'U', 'a', 'm', 'y'];

/// A catalog of `relations` binary relations `r{j}(A, X)`, each covered by
/// `sources_per` (≤ 6) identity views with extents of `len` items whose
/// starts are `stagger` apart (relation `j` shifted by a third of a
/// stagger more). The geometry is the same for every seed — all extents
/// share a window of `len − sources_per·stagger` items, so every plan of
/// an item join answers and shipped volumes do not depend on the seed;
/// the seed assigns the starts to the sources and draws their statistics,
/// which decide the order plans come in. The populator stores one tuple
/// `(pool value, item)` per extent item, so a selection on the first
/// attribute keeps `1/|pool|` of a source's rows.
pub fn relation_catalog(
    rng: &mut Rng,
    relations: usize,
    sources_per: usize,
    len: u64,
    stagger: u64,
) -> Catalog {
    let schema = MediatedSchema::with_relations(
        (0..relations).map(|j| SchemaRelation::new(format!("r{j}"), 2)),
    );
    let mut catalog = Catalog::new(schema);
    for j in 0..relations {
        let mut slots: Vec<u64> = (0..sources_per as u64).collect();
        rng.shuffle(&mut slots);
        for (suffix, slot) in SOURCE_SUFFIXES.iter().zip(slots) {
            let view = format!("s{j}_{suffix}(A, X) :- r{j}(A, X)");
            let desc = SourceDescription::new(parse_query(&view).expect("view parses"));
            let start = slot * stagger + j as u64 * stagger / 3;
            catalog
                .add_source(
                    desc,
                    SourceStats::new()
                        .with_extent(Extent::new(start, len))
                        .with_transmission_cost(rng.range(0.1, 2.0))
                        .with_fee(rng.range(0.01, 0.5))
                        .with_failure_prob(rng.range(0.0, 0.3))
                        .with_access_cost(rng.range(1.0, 20.0)),
                )
                .expect("generated source registers");
        }
    }
    catalog
}

/// The §6 synthetic star instance as a catalog: `query_len` subgoals
/// `r{b}(K, X{b})`, `bucket_size` fragment views each, statistics from
/// the repository's seeded [`GeneratorConfig`]. The matching query text
/// comes from [`star_query_text`].
pub fn star_catalog(
    rng: &mut Rng,
    query_len: usize,
    bucket_size: usize,
    overlap: f64,
    universe: u64,
) -> Catalog {
    let inst = GeneratorConfig::new(query_len, bucket_size)
        .with_overlap_rate(overlap)
        .with_seed(rng.next_u64())
        .with_universe(universe)
        .build();
    let schema = MediatedSchema::with_relations(
        (0..query_len).map(|b| SchemaRelation::new(format!("r{b}"), 2)),
    );
    let mut catalog = Catalog::new(schema);
    for (b, bucket) in inst.buckets.iter().enumerate() {
        for (i, stats) in bucket.iter().enumerate() {
            let mut stats = stats.clone();
            stats.name = None;
            let view = format!("v{b}_{i}(A, B) :- r{b}(A, B)");
            catalog
                .add_source(
                    SourceDescription::new(parse_query(&view).expect("view parses")),
                    stats,
                )
                .expect("generated source registers");
        }
    }
    catalog
}

/// `n` distinct variable names drawn from the seed.
fn fresh_names(rng: &mut Rng, n: usize) -> Vec<String> {
    let mut ids: Vec<usize> = (0..4 * n.max(1)).collect();
    rng.shuffle(&mut ids);
    const STEMS: [&str; 6] = ["X", "Y", "Item", "V", "W", "Key"];
    ids.into_iter()
        .take(n)
        .map(|id| format!("{}{}", STEMS[rng.below(STEMS.len())], id))
        .collect()
}

/// The star query `q(X0..) :- r0(K, X0), r1(K, X1), ...` under a seeded
/// variable renaming and body permutation (head order is fixed, so every
/// variant has the same answer set and the same canonical form).
pub fn star_query_text(rng: &mut Rng, query_len: usize) -> String {
    let names = fresh_names(rng, query_len + 1);
    let key = &names[query_len];
    let mut body: Vec<String> = (0..query_len)
        .map(|b| format!("r{b}({key}, {})", names[b]))
        .collect();
    rng.shuffle(&mut body);
    format!(
        "q({}) :- {}",
        names[..query_len].join(", "),
        body.join(", ")
    )
}

/// One canonical shape of the serving mix: an item join over distinct
/// relations, each subgoal's first argument either a pool constant or a
/// free variable exported in the head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinShape {
    /// `(relation index, Some(pool index) | None)` per subgoal.
    pub atoms: Vec<(usize, Option<usize>)>,
    /// Whether the free first arguments are exported in the head (else
    /// they are existential and the head is the item alone).
    pub export: bool,
}

impl JoinShape {
    /// Every 2- and 3-subgoal shape over `relations` relations and a pool
    /// of `pool` constants — shapes with a free first argument once
    /// exporting it and once not — in a fixed enumeration order.
    pub fn all(relations: usize, pool: usize) -> Vec<JoinShape> {
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for a in 0..relations {
            for b in a + 1..relations {
                subsets.push(vec![a, b]);
                for c in b + 1..relations {
                    subsets.push(vec![a, b, c]);
                }
            }
        }
        let mut shapes = Vec::new();
        for rels in subsets {
            let options = pool + 1;
            for code in 0..options.pow(rels.len() as u32) {
                let mut c = code;
                let atoms: Vec<(usize, Option<usize>)> = rels
                    .iter()
                    .map(|&r| {
                        let pick = c % options;
                        c /= options;
                        (r, (pick < pool).then_some(pick))
                    })
                    .collect();
                if atoms.iter().any(|a| a.1.is_none()) {
                    shapes.push(JoinShape {
                        atoms: atoms.clone(),
                        export: false,
                    });
                }
                shapes.push(JoinShape {
                    atoms,
                    export: true,
                });
            }
        }
        shapes
    }

    /// The shape as query text under a seeded variable renaming, the
    /// body in subgoal order or `reversed`. Head: the item variable, then
    /// (if exported) the free first arguments in subgoal order — so every variant has
    /// the same canonical form and the same answers *per plan*. (Which
    /// plans come first may depend on the body order: `FailureCost`
    /// weighs a source by its position.)
    pub fn text(&self, rng: &mut Rng, pool: &[&str], reversed: bool) -> String {
        let names = fresh_names(rng, self.atoms.len() + 1);
        let item = &names[self.atoms.len()];
        let mut head = vec![item.clone()];
        let mut body = Vec::new();
        for (slot, &(rel, constant)) in self.atoms.iter().enumerate() {
            let first = match constant {
                Some(c) => pool[c].to_string(),
                None => {
                    if self.export {
                        head.push(names[slot].clone());
                    }
                    names[slot].clone()
                }
            };
            body.push(format!("r{rel}({first}, {item})"));
        }
        if reversed {
            body.reverse();
        }
        format!("q({}) :- {}", head.join(", "), body.join(", "))
    }
}

/// A popularity-skewed request stream: `len` draws over `items` ranks
/// with weight `1 / (rank + 1)^exponent`.
pub fn zipf_stream(rng: &mut Rng, items: usize, len: usize, exponent: f64) -> Vec<usize> {
    let weights: Vec<f64> = (0..items)
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            let mut u = rng.unit() * total;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    return i;
                }
                u -= w;
            }
            items - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_datalog::CanonicalQuery;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs_and_streams_are_independent() {
        let mut a = Rng::new(7, "x");
        let mut b = Rng::new(7, "x");
        let mut c = Rng::new(7, "y");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn shapes_are_canonically_distinct_and_variants_collide() {
        let pool = ["a", "b", "c", "d"];
        let shapes = JoinShape::all(3, pool.len());
        assert_eq!(shapes.len(), (3 * 25 + 125) + (3 * 9 + 61));
        let mut rng = Rng::new(1, "t");
        let mut keys = BTreeSet::new();
        for s in &shapes {
            let q1 = parse_query(&s.text(&mut rng, &pool, false)).unwrap();
            let q2 = parse_query(&s.text(&mut rng, &pool, true)).unwrap();
            assert_eq!(CanonicalQuery::of(&q1), CanonicalQuery::of(&q2));
            keys.insert(CanonicalQuery::of(&q1));
        }
        assert_eq!(keys.len(), shapes.len());
    }

    #[test]
    fn star_variants_share_one_canonical_form() {
        let mut rng = Rng::new(3, "s");
        let a = parse_query(&star_query_text(&mut rng, 3)).unwrap();
        let b = parse_query(&star_query_text(&mut rng, 3)).unwrap();
        assert_eq!(CanonicalQuery::of(&a), CanonicalQuery::of(&b));
    }

    #[test]
    fn zipf_stream_is_skewed_towards_low_ranks() {
        let mut rng = Rng::new(5, "z");
        let s = zipf_stream(&mut rng, 100, 4000, 1.0);
        let head = s.iter().filter(|&&i| i < 10).count();
        assert!(head > 1600, "top-10 ranks drew {head} of 4000");
        assert!(s.iter().all(|&i| i < 100));
    }
}
