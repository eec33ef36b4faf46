//! Ordering-kernel benchmark: incremental kernel vs the reference loop.
//!
//! Runs iDrips twice per workload — once on the incremental
//! [`OrderingKernel`] and once on the preserved pre-optimization kernel
//! (`with_reference_kernel`) — over fig6-style instances plus the
//! query-length and overlap sweeps, with a [`CountingMeasure`] wrapped
//! around the utility measure so `utility_interval` calls are counted
//! exactly. Both runs must emit bit-for-bit identical sequences (checked
//! here, not assumed), so any difference in evals or wall-clock is pure
//! kernel overhead-vs-reuse.
//!
//! Output is `BENCH_ordering.json` (hand-rolled JSON; the workspace is
//! offline and has no serde), committed so future PRs can diff against
//! this PR's baseline. Usage:
//!
//! ```text
//! bench-ordering [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs a reduced workload set and exits non-zero unless every
//! context-free fig6-style workload shows the required ≥2× reduction in
//! interval evaluations (timing is reported but never gated — CI boxes
//! are noisy; eval counts are deterministic; tracing overhead is
//! `bench_e2e`'s `obs.trace_overhead_ratio`, reported on every traced
//! run).
//!
//! The full run appends a `profile` section: each fig6 workload is
//! executed end-to-end (bounded plan budget, deterministic faultless
//! grid) with the trace journal on, and the reconstructed span tree is
//! reduced to a critical-path breakdown — how much of the run's virtual
//! time was schedule wait (ordering), source access, join residue, and
//! self time — plus the bounding plan and dominant source.

use qpo_bench::{
    ordering_regret, synthetic_catalog_with_universe, AlgorithmKind, HeuristicKind, MeasureKind,
    RunConfig,
};
use qpo_core::{Greedy, IDrips, KernelStats, PlanOrderer};
use qpo_exec::{format_kernel_stats, Mediator, RunOptions, StopCondition, Strategy};
use qpo_obs::{Histogram, HistogramSnapshot, Obs, ProfileIndex};
use qpo_runtime::RuntimePolicy;
use qpo_utility::CountingMeasure;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let workloads = if smoke {
        smoke_workloads()
    } else {
        full_workloads()
    };
    let mut results = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let r = run_workload(w);
        println!(
            "{:<28} k={:<4} evals {:>7} -> {:>6}  ({:.2}x fewer)  wall {:>8.2}ms -> {:>7.2}ms ({:.2}x)",
            w.name, w.k, r.reference_evals, r.kernel_evals, r.eval_reduction(), r.reference_millis,
            r.kernel_millis, r.speedup()
        );
        results.push(r);
    }

    // The acceptance gate: every context-free fig6-style workload must
    // show ≥2× fewer interval evaluations.
    let gated: Vec<&WorkloadResult> = results
        .iter()
        .filter(|r| r.experiment == "fig6" && r.context_free)
        .collect();
    let min_reduction = gated
        .iter()
        .map(|r| r.eval_reduction())
        .fold(f64::INFINITY, f64::min);
    let sweeps_faster = results
        .iter()
        .filter(|r| r.experiment != "fig6")
        .all(|r| r.kernel_millis < r.reference_millis);
    // Ordering-quality gate: Greedy (per-bucket argmax, no dominance) may
    // never *beat* the exact iDrips prefix on final oracle regret. Both
    // should sit at ~0 for exact orderers; a negative gap would mean the
    // regret accounting itself is broken.
    let regret_ordered = results
        .iter()
        .all(|r| match (r.regret_idrips, r.regret_greedy) {
            (Some(i), Some(g)) => g - i >= -1e-9,
            _ => true,
        });
    println!(
        "\nmin eval reduction over context-free fig6 workloads: {min_reduction:.2}x \
         (gate: >= 2.00x)\nsweep workloads all faster on the incremental kernel: {sweeps_faster}\n\
         greedy-vs-idrips final regret gap non-negative on fig6 workloads: {regret_ordered}"
    );
    if let Some(r) = results
        .iter()
        .max_by_key(|r| r.kernel_evals + r.kernel_cache_hits)
    {
        println!(
            "\nlargest workload ({}):\n{}",
            r.name,
            format_kernel_stats(&r.stats)
        );
    }

    // Executed-trace profiles for the fig6 family (full runs only: the
    // smoke set gates, it doesn't regenerate the committed baseline).
    let profiles: Vec<ProfiledWorkload> = if smoke {
        Vec::new()
    } else {
        println!();
        workloads
            .iter()
            .filter(|w| w.experiment == "fig6")
            .map(|w| {
                let p = profile_workload(w);
                println!(
                    "{:<28} profile: {} plans, critical path {:.3} \
                     (wait {:.0}% / source {:.0}% / join {:.0}% / self {:.0}%), \
                     dominated by {}",
                    w.name,
                    p.plans,
                    p.critical_path,
                    p.ordering_wait_share * 100.0,
                    p.source_share * 100.0,
                    p.join_share * 100.0,
                    p.self_share * 100.0,
                    p.dominant_source.as_deref().unwrap_or("-")
                );
                p
            })
            .collect()
    };

    if let Some(path) = out_path {
        let json = render_json(
            &results,
            &profiles,
            min_reduction,
            sweeps_faster,
            regret_ordered,
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
    if min_reduction < 2.0 {
        eprintln!("FAIL: eval reduction below the 2x acceptance bar");
        std::process::exit(1);
    }
    if !regret_ordered {
        eprintln!("FAIL: Greedy beat the exact iDrips prefix on oracle regret");
        std::process::exit(1);
    }
}

/// Where one executed fig6 workload's virtual time went (the `profile`
/// section of BENCH_ordering.json).
struct ProfiledWorkload {
    name: &'static str,
    measure: &'static str,
    plans: usize,
    answers: u64,
    critical_path: f64,
    /// Reconstructed critical path bit-equals the executor's reported
    /// makespan (the PR 8 acceptance invariant, re-checked on every
    /// regeneration).
    makespan_bit_equal: bool,
    /// Shares of total span time (schedule wait + charged latency).
    ordering_wait_share: f64,
    source_share: f64,
    join_share: f64,
    self_share: f64,
    bounding_plan: Option<String>,
    dominant_source: Option<String>,
}

const PROFILE_SEED: u64 = 7;
const PROFILE_UNIVERSE: u64 = 40;
/// Plan budget for the executed profile runs: enough to exercise every
/// span kind, small enough that regenerating six workloads stays cheap.
const PROFILE_MAX_PLANS: usize = 60;

fn profile_workload(w: &Workload) -> ProfiledWorkload {
    let (catalog, query) = synthetic_catalog_with_universe(
        w.query_len,
        w.bucket_size,
        w.overlap,
        PROFILE_SEED,
        PROFILE_UNIVERSE,
    );
    let mediator = Mediator::new(catalog, PROFILE_UNIVERSE, &["k"]);
    let obs = Obs::with_trace();
    let measure = w.measure.build();
    let stop = StopCondition {
        max_plans: Some(PROFILE_MAX_PLANS),
        ..StopCondition::unbounded()
    };
    let run = mediator
        .run(
            &query,
            &measure,
            Strategy::IDrips,
            stop,
            RuntimePolicy::parallel(4).with_lookahead(4),
            &RunOptions {
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: profile run: {e}", w.name));
    let index = ProfileIndex::from_journal(&obs.journal);
    let profile = index
        .latest()
        .unwrap_or_else(|| panic!("{}: traced run yielded no profile", w.name));
    profile
        .check()
        .unwrap_or_else(|e| panic!("{}: span-tree invariant: {e}", w.name));
    let makespan_bit_equal = profile
        .makespan
        .is_some_and(|m| m.to_bits() == profile.critical_path.to_bits());
    let (mut wait, mut source, mut join, mut self_time) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for p in &profile.plans {
        wait += p.wait;
        if let Some(ci) = p.critical_source {
            source += p.sources[ci].total;
        }
        join += p.join;
        self_time += p.self_time;
    }
    let total = wait + source + join + self_time;
    let share = |v: f64| if total > 0.0 { v / total } else { 0.0 };
    ProfiledWorkload {
        name: w.name,
        measure: w.measure.label(),
        plans: run.runtime.reports.len(),
        answers: run.runtime.answers.len() as u64,
        critical_path: profile.critical_path,
        makespan_bit_equal,
        ordering_wait_share: share(wait),
        source_share: share(source),
        join_share: share(join),
        self_share: share(self_time),
        bounding_plan: profile.critical_plan().map(|p| p.plan.clone()),
        dominant_source: profile.dominant_source().map(|(name, _)| name),
    }
}

/// One benchmark configuration.
struct Workload {
    name: &'static str,
    /// Which experiment family the summary gates on.
    experiment: &'static str,
    measure: MeasureKind,
    query_len: usize,
    bucket_size: usize,
    overlap: f64,
    k: usize,
}

impl Workload {
    const fn new(
        name: &'static str,
        experiment: &'static str,
        measure: MeasureKind,
        query_len: usize,
        bucket_size: usize,
        overlap: f64,
        k: usize,
    ) -> Self {
        Workload {
            name,
            experiment,
            measure,
            query_len,
            bucket_size,
            overlap,
            k,
        }
    }
}

fn full_workloads() -> Vec<Workload> {
    vec![
        // Fig. 6-style: the four §6 measures at paper scale, k = 100.
        Workload::new(
            "fig6-coverage-m12",
            "fig6",
            MeasureKind::Coverage,
            3,
            12,
            0.3,
            100,
        ),
        Workload::new(
            "fig6-failure-m12",
            "fig6",
            MeasureKind::FailureNoCache,
            3,
            12,
            0.3,
            100,
        ),
        Workload::new(
            "fig6-failure-cache-m8",
            "fig6",
            MeasureKind::FailureCache,
            3,
            8,
            0.3,
            100,
        ),
        Workload::new(
            "fig6-monetary-m12",
            "fig6",
            MeasureKind::MonetaryNoCache,
            3,
            12,
            0.3,
            100,
        ),
        Workload::new(
            "fig6-cost2-m12",
            "fig6",
            MeasureKind::Cost2,
            3,
            12,
            0.3,
            100,
        ),
        // Fully monotonic, so Greedy applies: keeps the greedy-vs-idrips
        // regret gate non-vacuous.
        Workload::new(
            "fig6-linear-m12",
            "fig6",
            MeasureKind::Linear,
            3,
            12,
            0.3,
            100,
        ),
        // Query-length sweep at its largest sizes (§6: trends persist 1–7).
        Workload::new(
            "qlen-sweep-n5",
            "qlen-sweep",
            MeasureKind::FailureNoCache,
            5,
            4,
            0.3,
            100,
        ),
        Workload::new(
            "qlen-sweep-n7",
            "qlen-sweep",
            MeasureKind::FailureNoCache,
            7,
            4,
            0.3,
            100,
        ),
        // Overlap sweep at its largest bucket size.
        Workload::new(
            "overlap-sweep-r0.1",
            "overlap-sweep",
            MeasureKind::Cost2,
            3,
            10,
            0.1,
            100,
        ),
        Workload::new(
            "overlap-sweep-r0.9",
            "overlap-sweep",
            MeasureKind::Cost2,
            3,
            10,
            0.9,
            100,
        ),
    ]
}

fn smoke_workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "fig6-coverage-m6",
            "fig6",
            MeasureKind::Coverage,
            3,
            6,
            0.3,
            20,
        ),
        Workload::new(
            "fig6-failure-m8",
            "fig6",
            MeasureKind::FailureNoCache,
            3,
            8,
            0.3,
            60,
        ),
        Workload::new("fig6-cost2-m8", "fig6", MeasureKind::Cost2, 3, 8, 0.3, 60),
        Workload::new("fig6-linear-m8", "fig6", MeasureKind::Linear, 3, 8, 0.3, 60),
        Workload::new(
            "qlen-sweep-n4",
            "qlen-sweep",
            MeasureKind::FailureNoCache,
            4,
            4,
            0.3,
            30,
        ),
        Workload::new(
            "overlap-sweep-r0.5",
            "overlap-sweep",
            MeasureKind::Cost2,
            3,
            8,
            0.5,
            40,
        ),
    ]
}

/// Measured outcome of one workload, both kernels.
struct WorkloadResult {
    name: &'static str,
    experiment: &'static str,
    measure: &'static str,
    context_free: bool,
    query_len: usize,
    bucket_size: usize,
    overlap: f64,
    k: usize,
    emitted: usize,
    kernel_millis: f64,
    reference_millis: f64,
    kernel_evals: u64,
    reference_evals: u64,
    kernel_cache_hits: u64,
    stats: KernelStats,
    /// Time-to-k-th-plan profile of the fastest incremental-kernel run:
    /// one sample per emission, milliseconds since the run started.
    delay_profile: HistogramSnapshot,
    /// Final Def. 2.1 oracle regret of the iDrips emission prefix
    /// (fig6 workloads only; an exact orderer should land at ~0).
    regret_idrips: Option<f64>,
    /// Same, for Greedy over the same instance and k — `None` when the
    /// measure is not fully monotonic (Greedy inapplicable).
    regret_greedy: Option<f64>,
}

impl WorkloadResult {
    fn eval_reduction(&self) -> f64 {
        if self.kernel_evals == 0 {
            f64::INFINITY
        } else {
            self.reference_evals as f64 / self.kernel_evals as f64
        }
    }

    fn speedup(&self) -> f64 {
        if self.kernel_millis == 0.0 {
            f64::INFINITY
        } else {
            self.reference_millis / self.kernel_millis
        }
    }
}

fn run_workload(w: &Workload) -> WorkloadResult {
    let mut cfg = RunConfig::new(
        "bench-ordering",
        w.measure,
        AlgorithmKind::IDrips,
        w.bucket_size,
    );
    cfg.query_len = w.query_len;
    cfg.overlap = w.overlap;
    let inst = cfg.instance();
    let heuristic = HeuristicKind::ByTuples;

    // Warm-up-free timing: take the best of three runs per kernel (eval
    // counts are deterministic, so only one run's counters are kept).
    let mut kernel_millis = f64::INFINITY;
    let mut reference_millis = f64::INFINITY;
    let mut fast_seq = Vec::new();
    let mut slow_seq = Vec::new();
    let mut kernel_evals = 0;
    let mut reference_evals = 0;
    let mut kernel_cache_hits = 0;
    let mut stats = KernelStats::default();
    let mut delay_profile = Histogram::detached().snapshot();
    for _ in 0..3 {
        let m = CountingMeasure::new(w.measure.build());
        let mut alg = IDrips::new(&inst, &m, heuristic.build());
        let per_emission = Histogram::detached();
        let t = Instant::now();
        let mut seq = Vec::with_capacity(w.k);
        while seq.len() < w.k {
            let Some(p) = alg.next_plan() else { break };
            per_emission.record(t.elapsed().as_secs_f64() * 1e3);
            seq.push(p);
        }
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        if elapsed < kernel_millis {
            kernel_millis = elapsed;
            delay_profile = per_emission.snapshot();
        }
        fast_seq = seq;
        kernel_evals = m.interval_evals();
        stats = alg.kernel_stats();
        kernel_cache_hits = stats.interval_cache_hits;

        let m = CountingMeasure::new(w.measure.build());
        let mut alg = IDrips::new(&inst, &m, heuristic.build()).with_reference_kernel();
        let t = Instant::now();
        slow_seq = alg.order_k(w.k);
        reference_millis = reference_millis.min(t.elapsed().as_secs_f64() * 1e3);
        reference_evals = m.interval_evals();
    }

    // Equivalence is the bench's precondition: refuse to report numbers
    // for kernels that disagree.
    assert_eq!(
        fast_seq.len(),
        slow_seq.len(),
        "{}: emission counts diverge",
        w.name
    );
    for (step, (a, b)) in fast_seq.iter().zip(&slow_seq).enumerate() {
        assert_eq!(a.plan, b.plan, "{}: plans diverge at step {step}", w.name);
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{}: utilities diverge at step {step}",
            w.name
        );
    }

    // Ordering-quality accounting for the fig6 family: final regret
    // against the blind Def. 2.1 oracle, for iDrips and (where the
    // measure's full monotonicity admits it) Greedy — the same
    // `ordering_regret` recomputation the live session gauge is
    // cross-checked against.
    let (regret_idrips, regret_greedy) = if w.experiment == "fig6" {
        let m = w.measure.build();
        let utilities: Vec<f64> = fast_seq.iter().map(|o| o.utility).collect();
        let idrips = ordering_regret(&inst, m.as_ref(), &utilities);
        let greedy = Greedy::new(&inst, m.as_ref()).ok().map(|mut g| {
            let utilities: Vec<f64> = g
                .order_k(fast_seq.len())
                .iter()
                .map(|o| o.utility)
                .collect();
            ordering_regret(&inst, m.as_ref(), &utilities)
        });
        (Some(idrips), greedy)
    } else {
        (None, None)
    };

    WorkloadResult {
        name: w.name,
        experiment: w.experiment,
        measure: w.measure.label(),
        context_free: w.measure.build().context_free(),
        query_len: w.query_len,
        bucket_size: w.bucket_size,
        overlap: w.overlap,
        k: w.k,
        emitted: fast_seq.len(),
        kernel_millis,
        reference_millis,
        kernel_evals,
        reference_evals,
        kernel_cache_hits,
        stats,
        delay_profile,
        regret_idrips,
        regret_greedy,
    }
}

fn render_json(
    results: &[WorkloadResult],
    profiles: &[ProfiledWorkload],
    min_reduction: f64,
    sweeps_faster: bool,
    regret_ordered: bool,
) -> String {
    let mut s = String::from("{\n  \"benchmark\": \"ordering-kernel\",\n");
    let _ = writeln!(
        s,
        "  \"source\": \"scripts/bench.sh (crates/bench/src/bin/bench_ordering.rs)\","
    );
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"experiment\": \"{}\",", r.experiment);
        let _ = writeln!(s, "      \"measure\": \"{}\",", r.measure);
        let _ = writeln!(s, "      \"context_free\": {},", r.context_free);
        let _ = writeln!(s, "      \"query_len\": {},", r.query_len);
        let _ = writeln!(s, "      \"bucket_size\": {},", r.bucket_size);
        let _ = writeln!(s, "      \"overlap\": {},", r.overlap);
        let _ = writeln!(s, "      \"k\": {},", r.k);
        let _ = writeln!(s, "      \"plans_emitted\": {},", r.emitted);
        let _ = writeln!(
            s,
            "      \"reference\": {{ \"millis\": {:.3}, \"interval_evals\": {} }},",
            r.reference_millis, r.reference_evals
        );
        let _ = writeln!(
            s,
            "      \"kernel\": {{ \"millis\": {:.3}, \"interval_evals\": {}, \
             \"interval_resumes\": {}, \
             \"interval_cache_hits\": {}, \"tree_builds\": {}, \"tree_cache_hits\": {}, \
             \"dominance_checks\": {}, \"refinements\": {}, \"parallel_batches\": {} }},",
            r.kernel_millis,
            r.kernel_evals,
            r.stats.interval_resumes,
            r.kernel_cache_hits,
            r.stats.tree_builds,
            r.stats.tree_cache_hits,
            r.stats.dominance_checks,
            r.stats.refinements,
            r.stats.parallel_batches
        );
        let _ = writeln!(s, "      \"eval_reduction\": {:.3},", r.eval_reduction());
        let _ = writeln!(s, "      \"wall_clock_speedup\": {:.3},", r.speedup());
        let regret = |v: Option<f64>| v.map_or_else(|| "null".into(), |x| format!("{x:.9}"));
        let _ = writeln!(
            s,
            "      \"final_regret\": {{ \"idrips\": {}, \"greedy\": {} }},",
            regret(r.regret_idrips),
            regret(r.regret_greedy)
        );
        // p50/p95 are log2-bucket upper bounds on the time (ms since run
        // start) at which the k-th plan of the fastest run was emitted.
        let quantile = |q: f64| {
            r.delay_profile
                .quantile(q)
                .map_or_else(|| "null".into(), |v| format!("{v:.6}"))
        };
        let _ = writeln!(
            s,
            "      \"delay_profile\": {{ \"unit\": \"ms\", \"samples\": {}, \
             \"p50_time_to_kth_plan\": {}, \"p95_time_to_kth_plan\": {} }}",
            r.delay_profile.count,
            quantile(0.5),
            quantile(0.95)
        );
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    if !profiles.is_empty() {
        // Executed-trace critical-path breakdown per fig6 workload: the
        // span-tree profiler's attribution of where virtual time went
        // (shares of schedule wait + charged latency, which sum to 1).
        let _ = writeln!(s, "  \"profile\": {{");
        let _ = writeln!(
            s,
            "    \"config\": {{ \"seed\": {PROFILE_SEED}, \"universe\": {PROFILE_UNIVERSE}, \
             \"max_plans\": {PROFILE_MAX_PLANS}, \"strategy\": \"idrips\", \"workers\": 4 }},"
        );
        let _ = writeln!(s, "    \"workloads\": [");
        for (i, p) in profiles.iter().enumerate() {
            let comma = if i + 1 == profiles.len() { "" } else { "," };
            let opt = |v: &Option<String>| {
                v.as_deref()
                    .map_or_else(|| "null".into(), |x| format!("\"{x}\""))
            };
            let _ = writeln!(s, "      {{");
            let _ = writeln!(s, "        \"name\": \"{}\",", p.name);
            let _ = writeln!(s, "        \"measure\": \"{}\",", p.measure);
            let _ = writeln!(s, "        \"plans\": {},", p.plans);
            let _ = writeln!(s, "        \"answers\": {},", p.answers);
            let _ = writeln!(s, "        \"critical_path\": {:.6},", p.critical_path);
            let _ = writeln!(
                s,
                "        \"critical_path_bit_equals_makespan\": {},",
                p.makespan_bit_equal
            );
            let _ = writeln!(
                s,
                "        \"shares\": {{ \"ordering_wait\": {:.4}, \"source\": {:.4}, \
                 \"join\": {:.4}, \"self\": {:.4} }},",
                p.ordering_wait_share, p.source_share, p.join_share, p.self_share
            );
            let _ = writeln!(s, "        \"bounding_plan\": {},", opt(&p.bounding_plan));
            let _ = writeln!(
                s,
                "        \"dominant_source\": {}",
                opt(&p.dominant_source)
            );
            let _ = writeln!(s, "      }}{comma}");
        }
        let _ = writeln!(s, "    ]");
        let _ = writeln!(s, "  }},");
    }
    let _ = writeln!(s, "  \"summary\": {{");
    let _ = writeln!(
        s,
        "    \"min_eval_reduction_context_free_fig6\": {min_reduction:.3},"
    );
    let _ = writeln!(s, "    \"eval_reduction_gate\": 2.0,");
    let _ = writeln!(s, "    \"sweep_workloads_all_faster\": {sweeps_faster},");
    let _ = writeln!(
        s,
        "    \"greedy_vs_idrips_regret_gap_nonnegative\": {regret_ordered}"
    );
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}
