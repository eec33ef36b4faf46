//! The five workloads: what each one generates from the seed, how one of
//! its queries runs and is checked through the driver path, and what its
//! traced pass replays. Why each exists is recorded in `metrics::WORKLOADS`
//! and the README.

// `usize::is_multiple_of` needs Rust 1.87; the repository's MSRV is 1.75.
#![allow(clippy::manual_is_multiple_of)]

use crate::driver::{self, Combo, Served, StepTotals};
use crate::gen::{self, JoinShape, Rng};
use crate::layers::Layers;
use crate::proc::{self, SourceServer};
use crate::spans::Spans;
use qpo_core::OrderedPlan;
use qpo_datalog::Tuple;
use qpo_exec::{ExecutionMemo, Mediator};
use qpo_runtime::TcpBackend;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A workload after set-up: generated inputs, the system instances they
/// were loaded into, and the oracles its answers are checked against.
pub trait Workload: Sync {
    /// Closed-loop load threads.
    fn clients(&self) -> usize {
        1
    }

    /// Queries in one cycle of a client's stream. Runs end on a cycle
    /// boundary, so per-query counts repeat exactly for a seed.
    fn cycle(&self) -> usize;

    /// Leading queries of the cycle the untimed warm-up pass runs.
    fn warm_up(&self) -> usize {
        self.cycle()
    }

    /// Runs query `i` of `client`'s cycle through the driver path and
    /// checks its answers. Position `i` issues the same text every cycle.
    fn query(&self, client: usize, i: usize) -> Result<Served, String>;

    /// A helper process whose CPU belongs to the workload.
    fn helper_pid(&self) -> Option<u32> {
        None
    }

    /// The traced pass: replays the cycle's first queries step by step
    /// (as many as fit in `budget`), checks the stepwise answers, and
    /// fills the per-layer metrics.
    fn trace(&self, spans: &mut Spans, budget: Duration) -> Result<Layers, String>;
}

/// Full size, or the ~1/20 smoke size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn of(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    let workload: Box<dyn Workload> = match name {
        "serve-mix" => Box::new(ServeMix::setup(seed, scale)?),
        "order-coverage" => Box::new(OrderCoverage::setup(seed, scale)?),
        "anyk-stream" => Box::new(AnyKStream::setup(seed, scale)?),
        "access-tcp" => Box::new(AccessTcp::setup(seed, scale)?),
        "share-warm" => Box::new(ShareWarm::setup(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    // One untimed warm-up pass: caches fill and lazy set-up finishes.
    for client in 0..workload.clients() {
        for i in 0..workload.warm_up() {
            workload.query(client, i)?;
        }
    }
    Ok(workload)
}

/// Runs the driver path over the cycle's first queries until `budget` is
/// spent (at least `min` queries, at most one cycle); returns how many
/// ran and their summed wall time.
fn baseline(
    workload: &dyn Workload,
    budget: Duration,
    min: usize,
    step: usize,
) -> Result<(usize, u64), String> {
    let start = Instant::now();
    let (mut n, mut ns) = (0, 0);
    while n < workload.cycle() && (n < min || start.elapsed() < budget) {
        for i in n..(n + step).min(workload.cycle()) {
            ns += workload.query(0, i)?.query_ns;
        }
        n = (n + step).min(workload.cycle());
    }
    Ok((n, ns))
}

fn expect_equal<T: PartialEq>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differ from the oracle"))
    }
}

fn non_empty(what: &str, answers: &BTreeSet<Tuple>) -> Result<(), String> {
    if answers.is_empty() {
        Err(format!("{what}: answers == 0"))
    } else {
        Ok(())
    }
}

fn cache_layers(layers: &mut Layers, mediators: &[&Mediator]) {
    let (mut hits, mut misses, mut evictions, mut generations) = (0, 0, 0, 0);
    for m in mediators {
        let s = driver::cache_stats(m);
        hits += s.hits;
        misses += s.misses;
        evictions += s.evictions;
        generations += s.generations;
    }
    let lookups = (hits + misses).max(1);
    layers.set("reformulation.cache.hit_rate", hits as f64 / lookups as f64);
    layers.set("reformulation.cache.evictions", evictions as f64);
    layers.set("reformulation.cache.generations", generations as f64);
}

/// The per-layer metrics of a session workload's traced pass: the spans
/// and counts, the pull path's residual, the reformulation caches.
fn session_layers(
    spans: &Spans,
    totals: &StepTotals,
    driver_ns: u64,
    mediators: &[&Mediator],
) -> Layers {
    let mut layers = Layers::new();
    layers.fill(spans, totals, driver_ns);
    layers.set(
        "exec.session.residual_share",
        Layers::residual_share(spans, driver_ns),
    );
    cache_layers(&mut layers, mediators);
    layers
}

/// The journal's cost on the session path: the same queries on a clone
/// of the mediator that reports into a tracing `Obs`, against the plain
/// one. `run` serves query `i` on the given mediator.
fn obs_probe(
    layers: &mut Layers,
    queries: usize,
    plain: &dyn Fn(usize) -> Result<u64, String>,
    traced: &dyn Fn(usize) -> Result<u64, String>,
    obs: &qpo_obs::Obs,
) -> Result<(), String> {
    // Prepare both sides once, then time.
    for i in 0..queries {
        plain(i)?;
        traced(i)?;
    }
    let (mut plain_ns, mut traced_ns) = (0, 0);
    for i in 0..queries {
        plain_ns += plain(i)?;
        traced_ns += traced(i)?;
    }
    let (events, dropped, rebuild_ms) = driver::journal_digest(obs);
    layers.set(
        "obs.trace_overhead_ratio",
        traced_ns as f64 / plain_ns.max(1) as f64,
    );
    layers.set(
        "obs.events_per_query",
        events as f64 / (2 * queries).max(1) as f64,
    );
    layers.set("obs.dropped_events", dropped as f64);
    layers.set("obs.profile_rebuild_ms", rebuild_ms);
    Ok(())
}

// ── serve-mix ──────────────────────────────────────────────────────────

const MIX_POOL: [&str; 4] = ["a", "b", "c", "d"];
const MIX_UNIVERSE: u64 = 2000;
const MIX_PLANS: usize = 4;
const MIX_COMBOS: [Combo; 3] = [
    Combo::GreedyLinear,
    Combo::IDripsFailure,
    Combo::StreamerCoverage,
];

struct MixQuery {
    shape: usize,
    text: String,
    combo: usize,
}

pub struct ServeMix {
    mediator: Mediator,
    /// Subgoal relations of every shape, in subgoal order.
    shapes: Vec<JoinShape>,
    /// One request stream per client.
    streams: Vec<Vec<MixQuery>>,
    /// Reference answers per `(shape, combo, body reversed)`. Which body
    /// order applies to a served query is the *cached representative's*,
    /// not the issued text's: the reformulation cache files both orders
    /// under one canonical key, and `FailureCost` ranks plans by it.
    oracle: BTreeMap<(usize, usize, bool), BTreeSet<Tuple>>,
}

impl ServeMix {
    fn setup(seed: u64, scale: Scale) -> Result<ServeMix, String> {
        let mut rng = Rng::new(seed, "serve-mix");
        let catalog = gen::relation_catalog(&mut rng, 3, 6, 160, 4);
        let mediator = driver::new_mediator(catalog, MIX_UNIVERSE, &MIX_POOL);
        // More distinct canonical shapes than the cache holds (64), so the
        // popular ones hit and the tail evicts.
        let wanted = scale.of(96, 80);
        // Which shape holds which popularity rank is the same for every
        // seed (a fixed shuffle): the few top ranks carry much of a Zipf
        // stream, and letting the seed pick them would make two seeds two
        // different workloads. The seed draws the catalog's statistics,
        // every text (names, body order) and the popularity stream.
        let mut candidates = JoinShape::all(3, MIX_POOL.len());
        Rng::new(0, "serve-mix shape ranks").shuffle(&mut candidates);
        let mut shapes: Vec<JoinShape> = Vec::new();
        let mut oracle = BTreeMap::new();
        while shapes.len() < wanted {
            // Popularity rank r is a 3-subgoal shape for even r and a
            // 2-subgoal one for odd r, so the mix of query sizes (and with
            // it the accesses per query) is the same for every seed.
            let size = 3 - shapes.len() % 2;
            let Some(next) = candidates.iter().position(|c| c.atoms.len() == size) else {
                break;
            };
            let shape = candidates.remove(next);
            // Selections on different subgoals can contradict each other
            // (each keeps one residue class of items). The catalog's
            // sources are consistent fragments, so such a shape answers
            // nothing on any plan; it stays out of the mix.
            let probe = shape.text(&mut rng, &MIX_POOL, false);
            if driver::reference_answers(&mediator, &probe, MIX_COMBOS[0], Some(1))?
                .1
                .is_empty()
            {
                continue;
            }
            for reversed in [false, true] {
                let text = shape.text(&mut rng, &MIX_POOL, reversed);
                for (c, &combo) in MIX_COMBOS.iter().enumerate() {
                    let (_, answers) =
                        driver::reference_answers(&mediator, &text, combo, Some(MIX_PLANS))?;
                    non_empty("serve-mix", &answers)?;
                    oracle.insert((shapes.len(), c, reversed), answers);
                }
            }
            shapes.push(shape);
        }
        if shapes.len() < wanted {
            return Err(format!("only {} answering shapes", shapes.len()));
        }
        let clients = 2;
        let len = scale.of(384, 96);
        let streams = (0..clients)
            .map(|c| {
                gen::zipf_stream(&mut rng, shapes.len(), len, 1.1)
                    .into_iter()
                    .enumerate()
                    .map(|(i, shape)| {
                        let reversed = rng.below(2) == 1;
                        MixQuery {
                            shape,
                            text: shapes[shape].text(&mut rng, &MIX_POOL, reversed),
                            combo: (i + c) % MIX_COMBOS.len(),
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(ServeMix {
            mediator,
            shapes,
            streams,
            oracle,
        })
    }

    /// The oracle for `q` given the sources of a served plan (bucket
    /// order = the representative's body order).
    fn want(&self, q: &MixQuery, plan_sources: &[String]) -> Result<&BTreeSet<Tuple>, String> {
        let first = format!("s{}_", self.shapes[q.shape].atoms[0].0);
        let reversed = !plan_sources
            .first()
            .ok_or("no plan was served")?
            .starts_with(&first);
        Ok(&self.oracle[&(q.shape, q.combo, reversed)])
    }

    fn serve(&self, mediator: &Mediator, q: &MixQuery) -> Result<Served, String> {
        driver::serve_plans(
            mediator,
            &q.text,
            MIX_COMBOS[q.combo],
            MIX_PLANS,
            |reports, answers| {
                let sources = reports.first().map_or(&[][..], |r| &r.sources[..]);
                expect_equal("answers", answers, self.want(q, sources)?)
            },
        )
    }
}

impl Workload for ServeMix {
    fn clients(&self) -> usize {
        self.streams.len()
    }

    fn cycle(&self) -> usize {
        self.streams[0].len()
    }

    // Enough to fill the reformulation cache past its capacity.
    fn warm_up(&self) -> usize {
        self.cycle() / 2
    }

    fn query(&self, client: usize, i: usize) -> Result<Served, String> {
        self.serve(&self.mediator, &self.streams[client][i])
    }

    fn trace(&self, spans: &mut Spans, budget: Duration) -> Result<Layers, String> {
        let stream = &self.streams[0];
        let (n, driver_ns) = baseline(self, budget, 64, 32)?;
        let mut totals = StepTotals::default();
        for q in &stream[..n] {
            let (_, answers, sources) = driver::step_plans(
                spans,
                &self.mediator,
                &q.text,
                MIX_COMBOS[q.combo],
                MIX_PLANS,
                &mut totals,
            )?;
            expect_equal("stepwise answers", &answers, self.want(q, &sources)?)?;
        }
        let mut layers = session_layers(spans, &totals, driver_ns, &[&self.mediator]);
        let obs = driver::tracing_obs();
        let traced = driver::with_obs(self.mediator.clone(), &obs);
        let probe = n.min(64);
        obs_probe(
            &mut layers,
            probe,
            &|i| Ok(self.serve(&self.mediator, &stream[i])?.query_ns),
            &|i| Ok(self.serve(&traced, &stream[i])?.query_ns),
            &obs,
        )?;
        Ok(layers)
    }
}

// ── star instances (order-coverage, anyk-stream, share-warm) ───────────

const STAR_LEN: usize = 3;
const STAR_OVERLAP: f64 = 0.3;
/// Text variants per instance. A star workload's cycle visits every
/// instance once per variant (position `p` → instance `p % n`, variant
/// `p / n`); `share-warm` issues one variant per query of its cycle.
const STAR_VARIANTS: usize = 4;

struct Star {
    mediator: Mediator,
    texts: Vec<String>,
}

impl Star {
    fn generate(rng: &mut Rng, bucket_size: usize, universe: u64) -> Star {
        let catalog = gen::star_catalog(rng, STAR_LEN, bucket_size, STAR_OVERLAP, universe);
        Star {
            mediator: driver::new_mediator(catalog, universe, &["k"]),
            texts: (0..STAR_VARIANTS)
                .map(|_| gen::star_query_text(rng, STAR_LEN))
                .collect(),
        }
    }

    fn text(&self, variant: usize) -> &str {
        &self.texts[variant % self.texts.len()]
    }
}

/// [`session_layers`] of a star workload plus the journal probe on its
/// first instances. `serve` runs position `i` on the given mediator.
fn star_layers(
    spans: &Spans,
    totals: &StepTotals,
    driver_ns: u64,
    stars: &[&Star],
    traced_queries: usize,
    serve: &dyn Fn(&Mediator, usize) -> Result<Served, String>,
) -> Result<Layers, String> {
    let mediators: Vec<&Mediator> = stars.iter().map(|s| &s.mediator).collect();
    let mut layers = session_layers(spans, totals, driver_ns, &mediators);
    let obs = driver::tracing_obs();
    let probe = traced_queries.min(stars.len()).min(4);
    // A clone's cache is empty; the probed positions issue `text(0)`, so
    // plan vectors keep the bucket order the oracles were recorded in.
    let traced: Vec<Mediator> = mediators[..probe]
        .iter()
        .map(|m| driver::with_obs((*m).clone(), &obs))
        .collect();
    obs_probe(
        &mut layers,
        probe,
        &|i| Ok(serve(mediators[i], i)?.query_ns),
        &|i| Ok(serve(&traced[i], i)?.query_ns),
        &obs,
    )?;
    Ok(layers)
}

// ── order-coverage ─────────────────────────────────────────────────────

const ORDER_BUCKET: usize = 5;
const ORDER_UNIVERSE: u64 = 12;
const ORDER_PLANS: usize = 60;
/// Text variants of each instance the cycle issues.
const ORDER_VARIANTS: usize = 2;

pub struct OrderCoverage {
    instances: Vec<(Star, Vec<OrderedPlan>, BTreeSet<Tuple>)>,
}

impl OrderCoverage {
    fn setup(seed: u64, scale: Scale) -> Result<OrderCoverage, String> {
        let mut rng = Rng::new(seed, "order-coverage");
        let instances = (0..scale.of(56, 3))
            .map(|_| {
                let star = Star::generate(&mut rng, ORDER_BUCKET, ORDER_UNIVERSE);
                let (ordering, answers) = driver::reference_answers(
                    &star.mediator,
                    star.text(0),
                    Combo::IDripsCoverage,
                    Some(ORDER_PLANS),
                )?;
                driver::check_coverage_ordering(&star.mediator, star.text(0), &ordering)?;
                non_empty("order-coverage", &answers)?;
                Ok((star, ordering, answers))
            })
            .collect::<Result<_, String>>()?;
        Ok(OrderCoverage { instances })
    }

    fn serve(&self, mediator: &Mediator, p: usize) -> Result<Served, String> {
        let n = self.instances.len();
        let (star, ordering, want) = &self.instances[p % n];
        driver::serve_plans(
            mediator,
            star.text(p / n),
            Combo::IDripsCoverage,
            ORDER_PLANS,
            |reports, answers| {
                // The oracle ordering passed Definition 2.1 in set-up; the
                // session must emit it bit for bit.
                let same = reports.len() == ordering.len()
                    && reports.iter().zip(ordering).all(|(r, o)| {
                        r.ordered.plan == o.plan
                            && r.ordered.utility.to_bits() == o.utility.to_bits()
                    });
                if !same {
                    return Err("emitted plan order differs from the verified ordering".into());
                }
                expect_equal("answers", answers, want)
            },
        )
    }
}

impl Workload for OrderCoverage {
    fn cycle(&self) -> usize {
        self.instances.len() * ORDER_VARIANTS
    }

    // Set-up already prepared every instance's query for its oracle.
    fn warm_up(&self) -> usize {
        self.cycle().min(8)
    }

    fn query(&self, _client: usize, i: usize) -> Result<Served, String> {
        self.serve(&self.instances[i % self.instances.len()].0.mediator, i)
    }

    fn trace(&self, spans: &mut Spans, budget: Duration) -> Result<Layers, String> {
        let (n, driver_ns) = baseline(self, budget, 4, 1)?;
        let mut totals = StepTotals::default();
        for p in 0..n {
            let (star, ordering, want) = &self.instances[p % self.instances.len()];
            let (emitted, answers, _) = driver::step_plans(
                spans,
                &star.mediator,
                star.text(p / self.instances.len()),
                Combo::IDripsCoverage,
                ORDER_PLANS,
                &mut totals,
            )?;
            expect_equal("stepwise ordering", &emitted, ordering)?;
            expect_equal("stepwise answers", &answers, want)?;
        }
        let stars: Vec<&Star> = self.instances.iter().map(|i| &i.0).collect();
        star_layers(spans, &totals, driver_ns, &stars, n, &|m, i| {
            self.serve(m, i)
        })
    }
}

// ── anyk-stream ────────────────────────────────────────────────────────

const ANYK_BUCKET: usize = 4;
const ANYK_UNIVERSE: u64 = 40;
const ANYK_TUPLES: usize = 100;
const ANYK_JITTER: f64 = 0.25;
const ANYK_VARIANTS: usize = 1;

pub struct AnyKStream {
    /// Instance plus the offline ranked prefix: the first `ANYK_TUPLES`
    /// entries and every further entry tied with the last of them.
    instances: Vec<(Star, Vec<(f64, Tuple)>)>,
}

/// Scores closer than this (relatively) count as tied: a plan's ranked
/// join sums its atoms' scores in enumeration order, so its stream can
/// invert two answers whose scores differ in the last bit, which the
/// exactly sorted offline list never does.
const SCORE_TIE: f64 = 1e-12;

fn tied(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_TIE * a.abs().max(b.abs()).max(1.0)
}

/// The delivered stream must carry the oracle's scores position by
/// position and only `(tuple, score)` pairs the oracle has, each tuple
/// once; the order *within* a run of tied scores is the merge's own.
fn check_ranked_prefix(
    delivered: &[(f64, &Tuple)],
    oracle: &[(f64, Tuple)],
    k: usize,
) -> Result<(), String> {
    if delivered.len() != k.min(oracle.len()) {
        return Err(format!(
            "{} tuples delivered, oracle has {}",
            delivered.len(),
            k.min(oracle.len())
        ));
    }
    let known: BTreeMap<&Tuple, f64> = oracle.iter().map(|(s, t)| (t, *s)).collect();
    let mut seen = BTreeSet::new();
    for (pos, (score, tuple)) in delivered.iter().enumerate() {
        if !tied(*score, oracle[pos].0) {
            return Err(format!(
                "score at rank {pos} is {score}, the offline oracle has {}",
                oracle[pos].0
            ));
        }
        if !known.get(tuple).is_some_and(|s| tied(*s, *score)) || !seen.insert(*tuple) {
            return Err(format!("tuple at rank {pos} is not the oracle's"));
        }
    }
    Ok(())
}

impl AnyKStream {
    fn setup(seed: u64, scale: Scale) -> Result<AnyKStream, String> {
        let mut rng = Rng::new(seed, "anyk-stream");
        let instances = (0..scale.of(112, 5))
            .map(|_| {
                let star = Star::generate(&mut rng, ANYK_BUCKET, ANYK_UNIVERSE);
                let mut ranked = driver::offline_ranked(
                    &star.mediator,
                    star.text(0),
                    ANYK_JITTER,
                    ANYK_UNIVERSE,
                )?;
                if ranked.len() < ANYK_TUPLES {
                    return Err(format!("instance has only {} answers", ranked.len()));
                }
                let last = ranked[ANYK_TUPLES - 1].0;
                let keep = ranked
                    .iter()
                    .rposition(|(s, _)| tied(*s, last))
                    .map_or(ANYK_TUPLES, |p| p + 1);
                ranked.truncate(keep);
                Ok((star, ranked))
            })
            .collect::<Result<_, String>>()?;
        Ok(AnyKStream { instances })
    }

    fn serve(&self, mediator: &Mediator, p: usize) -> Result<Served, String> {
        let n = self.instances.len();
        let (star, oracle) = &self.instances[p % n];
        let (served, _) = driver::stream_tuples(
            mediator,
            star.text(p / n),
            ANYK_TUPLES,
            ANYK_JITTER,
            ANYK_UNIVERSE,
            |tuples| {
                let delivered: Vec<(f64, &Tuple)> =
                    tuples.iter().map(|t| (t.score, &t.tuple)).collect();
                check_ranked_prefix(&delivered, oracle, ANYK_TUPLES)
            },
        )?;
        Ok(served)
    }
}

impl Workload for AnyKStream {
    fn cycle(&self) -> usize {
        self.instances.len() * ANYK_VARIANTS
    }

    // Set-up already prepared every instance's query for its oracle.
    fn warm_up(&self) -> usize {
        self.cycle().min(8)
    }

    fn query(&self, _client: usize, i: usize) -> Result<Served, String> {
        self.serve(&self.instances[i % self.instances.len()].0.mediator, i)
    }

    fn trace(&self, spans: &mut Spans, budget: Duration) -> Result<Layers, String> {
        let (n, driver_ns) = baseline(self, budget, 4, 1)?;
        let n = n.min(self.instances.len());
        let mut totals = StepTotals::default();
        for (star, oracle) in &self.instances[..n] {
            let tuples = driver::step_tuples(
                spans,
                &star.mediator,
                star.text(0),
                ANYK_TUPLES,
                ANYK_JITTER,
                ANYK_UNIVERSE,
                &mut totals,
            )?;
            let delivered: Vec<(f64, &Tuple)> =
                tuples.iter().map(|t| (t.score, &t.tuple)).collect();
            check_ranked_prefix(&delivered, oracle, ANYK_TUPLES)
                .map_err(|e| format!("stepwise: {e}"))?;
        }
        let stars: Vec<&Star> = self.instances.iter().map(|i| &i.0).collect();
        star_layers(spans, &totals, driver_ns, &stars, n, &|m, i| {
            self.serve(m, i)
        })
    }
}

// ── access-tcp ─────────────────────────────────────────────────────────

const TCP_POOL: [&str; 3] = ["k", "j", "m"];
const TCP_UNIVERSE: u64 = 4_000;

pub struct AccessTcp {
    mediator: Mediator,
    backend: Arc<TcpBackend>,
    server: SourceServer,
    /// Query texts (two narrow, then a wide one) with their simulator
    /// answers.
    queries: Vec<(String, BTreeSet<Tuple>)>,
}

/// Distinguishes the store directories of repeated set-ups in one run.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl AccessTcp {
    fn setup(seed: u64, scale: Scale) -> Result<AccessTcp, String> {
        let mut rng = Rng::new(seed, "access-tcp");
        let universe = TCP_UNIVERSE / scale.of(1, 4) as u64;
        let catalog = gen::relation_catalog(&mut rng, 2, 4, universe * 14 / 100, universe / 50);
        let mediator = driver::new_mediator(catalog, universe, &TCP_POOL);
        let dir = proc::work_dir()?.join(format!(
            "store-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        driver::seed_store(&mediator, &dir)?;
        let server = SourceServer::spawn(&dir)?;
        let (mediator, backend) = driver::with_tcp_backend(mediator, &server.addr);
        // Wide: every row of both relations joins. Narrow: both subgoals
        // select one pool value (a third of each shipped relation), and
        // only selections that agree on some items answer.
        let wide = JoinShape {
            atoms: vec![(0, None), (1, None)],
            export: true,
        };
        let sim_answers = |text: &str| -> Result<BTreeSet<Tuple>, String> {
            Ok(driver::run_on_backend(&mediator, "sim", text, 2, None)?
                .1
                .runtime
                .answers)
        };
        let probe_names = &mut Rng::new(seed, "access-tcp-probe");
        let narrow: Vec<JoinShape> = JoinShape::all(2, TCP_POOL.len())
            .into_iter()
            .filter(|s| s.atoms.iter().all(|a| a.1.is_some()))
            .map(|s| {
                Ok((
                    !sim_answers(&s.text(probe_names, &TCP_POOL, false))?.is_empty(),
                    s,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?
            .into_iter()
            .filter_map(|(answers, s)| answers.then_some(s))
            .collect();
        if narrow.is_empty() {
            return Err("no narrow query answers on this catalog".into());
        }
        let wide_answers = sim_answers(&wide.text(probe_names, &TCP_POOL, false))?;
        non_empty("access-tcp wide", &wide_answers)?;
        // Two narrow queries, then a wide one: the median sits among the
        // narrow queries and p90 among the wide ones, not on the gap
        // between the two.
        let mut queries = Vec::new();
        for i in 0..scale.of(105, 3) {
            if i % 3 == 2 {
                queries.push((wide.text(&mut rng, &TCP_POOL, false), wide_answers.clone()));
            } else {
                let text = narrow[(i - i / 3) % narrow.len()].text(&mut rng, &TCP_POOL, false);
                let answers = sim_answers(&text)?;
                queries.push((text, answers));
            }
        }
        Ok(AccessTcp {
            mediator,
            backend,
            server,
            queries,
        })
    }
}

impl Workload for AccessTcp {
    fn cycle(&self) -> usize {
        self.queries.len()
    }

    fn warm_up(&self) -> usize {
        self.cycle().min(8)
    }

    fn query(&self, _client: usize, i: usize) -> Result<Served, String> {
        let (text, want) = &self.queries[i];
        let (served, run) = driver::run_on_backend(&self.mediator, "tcp", text, 2, None)?;
        expect_equal("tcp answers", &run.runtime.answers, want)?;
        Ok(served)
    }

    fn helper_pid(&self) -> Option<u32> {
        Some(self.server.pid())
    }

    fn trace(&self, spans: &mut Spans, budget: Duration) -> Result<Layers, String> {
        let cpu = |pid| proc::cpu_seconds(pid).unwrap_or(0.0);
        let (own0, server0) = (cpu(std::process::id()), cpu(self.server.pid()));
        // The same queries through the executor at one worker and at two:
        // the residual compares like with like (the replay is serial).
        let (mut serial_ns, mut parallel_ns) = (0, 0);
        let (mut attempts, mut accesses, mut errors, mut virtual_time) = (0, 0, 0, 0.0);
        let start = Instant::now();
        let mut n = 0;
        while n < self.cycle() && (n < 8 || start.elapsed() < budget) {
            let (text, want) = &self.queries[n];
            let (s, run) = driver::run_on_backend(&self.mediator, "tcp", text, 1, None)?;
            expect_equal("tcp answers at one worker", &run.runtime.answers, want)?;
            serial_ns += s.query_ns;
            parallel_ns += driver::run_on_backend(&self.mediator, "tcp", text, 2, None)?
                .0
                .query_ns;
            attempts += run.runtime.stats.attempts;
            virtual_time += run.runtime.stats.virtual_time;
            for report in &run.runtime.reports {
                accesses += report.accesses.len() as u64;
                errors += report.accesses.iter().filter(|a| !a.ok).count() as u64;
            }
            n += 1;
        }
        let mut totals = StepTotals::default();
        for (text, want) in &self.queries[..n] {
            let answers = driver::step_backend(
                spans,
                &self.mediator,
                self.backend.as_ref(),
                text,
                &mut totals,
            )?;
            expect_equal("stepwise answers", &answers, want)?;
        }
        let (own, server) = (
            cpu(std::process::id()) - own0,
            cpu(self.server.pid()) - server0,
        );
        let mut layers = Layers::new();
        layers.fill(spans, &totals, serial_ns);
        layers.set(
            "runtime.executor.residual_share",
            Layers::residual_share(spans, serial_ns),
        );
        layers.set(
            "runtime.executor.parallel_speedup",
            serial_ns as f64 / parallel_ns.max(1) as f64,
        );
        layers.set(
            "runtime.executor.virtual_time_units",
            virtual_time / n as f64,
        );
        layers.set(
            "runtime.backend.attempts_per_access",
            attempts as f64 / accesses.max(1) as f64,
        );
        layers.set("runtime.backend.errors", errors as f64);
        layers.set(
            "runtime.server.cpu_share",
            server / (own + server).max(1e-9),
        );
        cache_layers(&mut layers, &[&self.mediator]);
        let obs = driver::tracing_obs();
        obs_probe(
            &mut layers,
            n.min(4),
            &|i| Ok(self.query(0, i)?.query_ns),
            &|i| {
                let (text, _) = &self.queries[i];
                Ok(
                    driver::run_on_backend(&self.mediator, "tcp", text, 2, Some(&obs))?
                        .0
                        .query_ns,
                )
            },
            &obs,
        )?;
        Ok(layers)
    }
}

// ── share-warm ─────────────────────────────────────────────────────────

const SHARE_BUCKET: usize = 4;
const SHARE_UNIVERSE: u64 = 40;
/// One cold query (fresh memo) then three warm ones per instance.
const SHARE_CYCLE: usize = 4;

struct Shared {
    star: Star,
    /// Unmemoized answers of the same query.
    oracle: BTreeSet<Tuple>,
    /// About half the bytes a cold run wants to retain, so every cold run
    /// has stores refused beside the ones that land.
    byte_budget: usize,
}

pub struct ShareWarm {
    instances: Vec<Shared>,
    /// The memo of the instance the (single) client is currently on.
    memo: Mutex<ExecutionMemo>,
    obs: qpo_obs::Obs,
}

impl ShareWarm {
    fn setup(seed: u64, scale: Scale) -> Result<ShareWarm, String> {
        let mut rng = Rng::new(seed, "share-warm");
        let obs = driver::plain_obs();
        let instances = (0..scale.of(52, 2))
            .map(|_| {
                let star = Star::generate(&mut rng, SHARE_BUCKET, SHARE_UNIVERSE);
                let (_, oracle) = driver::reference_answers(
                    &star.mediator,
                    star.text(0),
                    Combo::StreamerCoverage,
                    None,
                )?;
                non_empty("share-warm", &oracle)?;
                let unbounded = driver::fresh_memo(usize::MAX);
                driver::run_memoized(&star.mediator, star.text(0), 2, &unbounded, &obs)?;
                let byte_budget = driver::memo_counters(&unbounded).2 / 2;
                Ok(Shared {
                    star,
                    oracle,
                    byte_budget,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ShareWarm {
            instances,
            memo: Mutex::new(driver::fresh_memo(0)),
            obs,
        })
    }

    /// Query `i` of the cycle: position `i % 4 == 0` starts its instance
    /// from a fresh memo, the next three run warm on it.
    fn serve(&self, workers: usize, i: usize, obs: &qpo_obs::Obs) -> Result<Served, String> {
        let shared = &self.instances[i / SHARE_CYCLE];
        let mut memo = self.memo.lock().expect("memo lock never poisoned");
        if i % SHARE_CYCLE == 0 {
            *memo = driver::fresh_memo(shared.byte_budget);
        }
        let text = shared.star.text(i % SHARE_CYCLE);
        let (served, run) = driver::run_memoized(&shared.star.mediator, text, workers, &memo, obs)?;
        expect_equal("memoized answers", &run.runtime.answers, &shared.oracle)?;
        Ok(served)
    }
}

impl Workload for ShareWarm {
    fn cycle(&self) -> usize {
        self.instances.len() * SHARE_CYCLE
    }

    // Set-up already ran every instance once to size its memo budget.
    fn warm_up(&self) -> usize {
        self.cycle().min(2 * SHARE_CYCLE)
    }

    fn query(&self, _client: usize, i: usize) -> Result<Served, String> {
        self.serve(2, i, &self.obs)
    }

    fn trace(&self, spans: &mut Spans, budget: Duration) -> Result<Layers, String> {
        let start = Instant::now();
        let mut n = 0;
        let (mut serial_ns, mut parallel_ns, mut cold_ns, mut warm_ns) = (0, 0, 0, 0);
        while n < self.cycle() && (n == 0 || start.elapsed() < budget) {
            for i in n..n + SHARE_CYCLE {
                parallel_ns += self.serve(2, i, &self.obs)?.query_ns;
            }
            for i in n..n + SHARE_CYCLE {
                let ns = self.serve(1, i, &self.obs)?.query_ns;
                serial_ns += ns;
                if i % SHARE_CYCLE == 0 {
                    cold_ns += ns;
                } else {
                    warm_ns += ns;
                }
            }
            n += SHARE_CYCLE;
        }
        let mut totals = StepTotals::default();
        let mut memo_bytes = 0;
        let mut memo = driver::fresh_memo(0);
        for i in 0..n {
            let shared = &self.instances[i / SHARE_CYCLE];
            if i % SHARE_CYCLE == 0 {
                memo = driver::fresh_memo(shared.byte_budget);
            }
            let text = shared.star.text(i % SHARE_CYCLE);
            let answers =
                driver::step_memoized(spans, &shared.star.mediator, text, &memo, &mut totals)?;
            expect_equal("stepwise answers", &answers, &shared.oracle)?;
            if i % SHARE_CYCLE == SHARE_CYCLE - 1 {
                memo_bytes += driver::memo_counters(&memo).2;
            }
        }
        let mut layers = Layers::new();
        layers.fill(spans, &totals, serial_ns);
        layers.set(
            "runtime.executor.residual_share",
            Layers::residual_share(spans, serial_ns),
        );
        layers.set(
            "runtime.executor.parallel_speedup",
            serial_ns as f64 / parallel_ns.max(1) as f64,
        );
        layers.set(
            "exec.memo.bytes",
            memo_bytes as f64 / (n / SHARE_CYCLE) as f64,
        );
        layers.set(
            "exec.memo.warm_speedup",
            (cold_ns * (SHARE_CYCLE as u64 - 1)) as f64 / warm_ns.max(1) as f64,
        );
        let mediators: Vec<&Mediator> = self.instances.iter().map(|s| &s.star.mediator).collect();
        cache_layers(&mut layers, &mediators);
        let obs = driver::tracing_obs();
        obs_probe(
            &mut layers,
            n.min(2 * SHARE_CYCLE),
            &|i| Ok(self.serve(2, i, &self.obs)?.query_ns),
            &|i| Ok(self.serve(2, i, &obs)?.query_ns),
            &obs,
        )?;
        Ok(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_datalog::Constant;

    fn t(i: i64) -> Tuple {
        vec![Constant::Int(i)]
    }

    #[test]
    fn ranked_prefix_accepts_tie_permutations_only() {
        let oracle = vec![(3.0, t(1)), (2.0, t(2)), (2.0, t(3)), (1.0, t(4))];
        let (a, b, c) = (t(1), t(2), t(3));
        assert!(check_ranked_prefix(&[(3.0, &a), (2.0, &c), (2.0, &b)], &oracle, 3).is_ok());
        assert!(check_ranked_prefix(&[(3.0, &a), (2.0, &c), (2.0, &c)], &oracle, 3).is_err());
        assert!(check_ranked_prefix(&[(2.0, &b), (3.0, &a), (2.0, &c)], &oracle, 3).is_err());
        assert!(check_ranked_prefix(&[(3.0, &a), (2.0, &b)], &oracle, 3).is_err());
    }
}
