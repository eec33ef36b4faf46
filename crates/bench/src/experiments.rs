//! The experiment index: one entry per figure panel / sweep of §6.
//!
//! Each [`Experiment`] bundles the run configurations that regenerate one
//! row of the paper's evaluation, together with the paper's qualitative
//! expectation so EXPERIMENTS.md can record paper-vs-measured side by side.

use crate::runner::{run_config, AlgorithmKind, HeuristicKind, MeasureKind, ResultRow, RunConfig};
use std::sync::Mutex;

/// One regenerable experiment.
pub struct Experiment {
    /// Stable id, e.g. `fig6-coverage`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Where in the paper it comes from.
    pub paper_ref: &'static str,
    /// What the paper claims the result should look like.
    pub expectation: &'static str,
    /// The configurations to run.
    pub configs: Vec<RunConfig>,
}

const FIG6_BUCKETS: [usize; 4] = [4, 8, 12, 16];
const FIG6_ALGOS: [AlgorithmKind; 3] = [
    AlgorithmKind::Streamer,
    AlgorithmKind::IDrips,
    AlgorithmKind::Pi,
];

fn fig6(id: &'static str, measure: MeasureKind) -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for &m in &FIG6_BUCKETS {
        for &a in &FIG6_ALGOS {
            configs.push(RunConfig::new(id, measure, a, m));
        }
    }
    configs
}

/// Builds the full experiment index (DESIGN.md §4).
pub fn all_experiments() -> Vec<Experiment> {
    let mut exps = vec![
        Experiment {
            id: "fig6-coverage",
            title: "Plan coverage: time to first k plans vs bucket size",
            paper_ref: "Figure 6 (a)-(c), overlap 0.3",
            expectation: "Streamer very fast for the first several plans (first-iteration \
                          evaluations <4% of PI's); iDrips good but worse than Streamer; \
                          iDrips worse than PI at the 100th plan.",
            configs: fig6("fig6-coverage", MeasureKind::Coverage),
        },
        Experiment {
            id: "fig6-failure-nocache",
            title: "Cost with source failure, no caching",
            paper_ref: "Figure 6 (d)-(f)",
            expectation: "Full independence and diminishing returns hold; Streamer applicable \
                          and finds the first several plans very fast, ahead of iDrips and PI \
                          in plans evaluated.",
            configs: fig6("fig6-failure-nocache", MeasureKind::FailureNoCache),
        },
        Experiment {
            id: "fig6-failure-cache",
            title: "Cost with source failure, caching",
            paper_ref: "Figure 6 (g)-(i)",
            expectation: "Diminishing returns fails → Streamer inapplicable; iDrips evaluates \
                          far fewer plans than PI and finds the first several plans very fast.",
            configs: fig6("fig6-failure-cache", MeasureKind::FailureCache),
        },
        Experiment {
            id: "fig6-monetary",
            title: "Average monetary cost per tuple (both caching modes)",
            paper_ref: "Figure 6 (j)-(l)",
            expectation: "The abstraction heuristic is weak for a ratio measure: Streamer and \
                          iDrips evaluate only slightly fewer plans than PI and the overhead \
                          makes both worse than PI.",
            configs: {
                let mut c = fig6("fig6-monetary", MeasureKind::MonetaryNoCache);
                c.extend(fig6("fig6-monetary", MeasureKind::MonetaryCache));
                c
            },
        },
        Experiment {
            id: "cost2",
            title: "Cost measure (2), varying transmission costs",
            paper_ref: "§6 (reported as 'very similar' to the failure measure)",
            expectation: "Same trends as fig6-failure-nocache.",
            configs: fig6("cost2", MeasureKind::Cost2),
        },
        Experiment {
            id: "overlap-sweep",
            title: "Coverage: sensitivity to the overlap rate",
            paper_ref: "§6, text after Figure 6 (a)-(c)",
            expectation: "As overlap rises, more dominance links are invalidated, so \
                          Streamer recycles less and its advantage over PI shrinks.",
            configs: {
                let mut c = Vec::new();
                for &overlap in &[0.1, 0.3, 0.5, 0.7] {
                    for &a in &[AlgorithmKind::Streamer, AlgorithmKind::Pi] {
                        let mut cfg = RunConfig::new("overlap-sweep", MeasureKind::Coverage, a, 10);
                        cfg.overlap = overlap;
                        cfg.ks = vec![10];
                        c.push(cfg);
                    }
                }
                c
            },
        },
        Experiment {
            id: "qlen-sweep",
            title: "Query length 1..7",
            paper_ref: "§6, closing paragraph",
            expectation: "Same trends as at query length 3, with gaps growing as the \
                          query length (and thus the plan space) grows.",
            configs: {
                let mut c = Vec::new();
                for qlen in 1..=7usize {
                    for &a in &FIG6_ALGOS {
                        for measure in [MeasureKind::Coverage, MeasureKind::FailureNoCache] {
                            let mut cfg = RunConfig::new("qlen-sweep", measure, a, 4);
                            cfg.query_len = qlen;
                            cfg.ks = vec![10];
                            c.push(cfg);
                        }
                    }
                }
                c
            },
        },
        Experiment {
            id: "first-iter",
            title: "First-iteration plans evaluated: Streamer vs PI",
            paper_ref: "§6: 'less than 4% of the number of plans evaluated by PI'",
            expectation: "Streamer's first-plan evaluations are a small fraction of PI's \
                          (which must evaluate the whole plan space), shrinking as the \
                          bucket size grows.",
            configs: {
                let mut c = Vec::new();
                for &m in &[8usize, 12, 16, 20, 24] {
                    for &a in &[AlgorithmKind::Streamer, AlgorithmKind::Pi] {
                        let mut cfg = RunConfig::new("first-iter", MeasureKind::Coverage, a, m);
                        cfg.ks = vec![1];
                        c.push(cfg);
                    }
                }
                c
            },
        },
        Experiment {
            id: "greedy",
            title: "Greedy on the fully monotonic linear measure",
            paper_ref: "§4 and §6 ('it clearly outperforms the other algorithms when applicable')",
            expectation: "Greedy finds the first plans in time linear in the number of \
                          sources, far ahead of the brute-force baselines.",
            configs: {
                let mut c = Vec::new();
                for &m in &[10usize, 20, 40, 80] {
                    for &a in &[
                        AlgorithmKind::Greedy,
                        AlgorithmKind::Pi,
                        AlgorithmKind::Naive,
                    ] {
                        c.push(RunConfig::new("greedy", MeasureKind::Linear, a, m));
                    }
                }
                c
            },
        },
        Experiment {
            id: "ablation-independence",
            title: "Value of plan-independence information (PI vs Naive)",
            paper_ref: "§6: 'PI uses plan independence information to decide the utility of \
                        which plans may have changed'",
            expectation: "Under a context-dependent measure, Naive recomputes every utility \
                          each round while PI recomputes only dependent ones — PI's \
                          evaluation count is far lower at the same exact output.",
            configs: {
                let mut c = Vec::new();
                for &m in &[6usize, 10, 14] {
                    for &a in &[AlgorithmKind::Pi, AlgorithmKind::Naive] {
                        let mut cfg =
                            RunConfig::new("ablation-independence", MeasureKind::Coverage, a, m);
                        cfg.ks = vec![10, 50];
                        c.push(cfg);
                    }
                }
                c
            },
        },
        Experiment {
            id: "ablation-heuristics",
            title: "Abstraction-heuristic ablation (iDrips, coverage)",
            paper_ref: "§6: 'we also experimented with different ... abstraction heuristics'",
            expectation: "The paper's by-expected-tuples default and the extent-locality \
                          heuristic prune well for coverage; random grouping evaluates \
                          many more plans (output is identical regardless).",
            configs: {
                let mut c = Vec::new();
                for h in [
                    HeuristicKind::ByTuples,
                    HeuristicKind::ByExtent,
                    HeuristicKind::ByAlpha,
                    HeuristicKind::Random,
                ] {
                    let mut cfg = RunConfig::new(
                        "ablation-heuristics",
                        MeasureKind::Coverage,
                        AlgorithmKind::IDrips,
                        10,
                    );
                    cfg.ks = vec![10];
                    cfg.heuristic = h;
                    c.push(cfg);
                }
                c
            },
        },
    ];
    // Keep deterministic ordering by id for the harness output.
    exps.sort_by_key(|e| e.id);
    exps
}

/// Runs every configuration of an experiment, in parallel across worker
/// threads (each configuration is single-threaded, matching the paper's
/// uniprocessor setting — parallelism is across *configurations* only).
pub fn run_experiment(exp: &Experiment, threads: usize) -> Vec<ResultRow> {
    let queue: Mutex<Vec<RunConfig>> = Mutex::new(exp.configs.clone());
    let rows: Mutex<Vec<ResultRow>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let Some(cfg) = queue.lock().expect("queue lock").pop() else {
                    break;
                };
                if let Some(mut r) = run_config(&cfg) {
                    rows.lock().expect("rows lock").append(&mut r);
                }
            });
        }
    });
    let mut rows = rows.into_inner().expect("rows lock");
    rows.sort_by(|a, b| {
        (
            a.measure,
            a.k,
            a.bucket_size,
            a.query_len,
            a.overlap,
            a.algorithm,
            a.heuristic,
        )
            .partial_cmp(&(
                b.measure,
                b.k,
                b.bucket_size,
                b.query_len,
                b.overlap,
                b.algorithm,
                b.heuristic,
            ))
            .expect("row keys are comparable")
    });
    rows
}

/// Formats result rows as an aligned text table.
pub fn format_table(rows: &[ResultRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<10} {:>4} {:>3} {:>4} {:>6} {:>4} {:>10} {:>10} {:>9} handover\n",
        "measure", "algorithm", "m", "n", "ov", "k", "emit", "millis", "evals", "heuristic"
    ));
    for r in rows {
        // iDrips rows: the call brute force took over at, `-` if never.
        let handover = match (r.algorithm, r.handover) {
            ("idrips", Some(call)) => call.to_string(),
            ("idrips", None) => "-".into(),
            _ => String::new(),
        };
        let line = format!(
            "{:<16} {:<10} {:>4} {:>3} {:>4.1} {:>6} {:>4} {:>10.3} {:>10} {:>9} {:>8}",
            r.measure,
            r.algorithm,
            r.bucket_size,
            r.query_len,
            r.overlap,
            r.k,
            r.emitted,
            r.millis,
            r.evals,
            r.heuristic,
            handover
        );
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Serializes result rows as CSV (header + one line per row).
pub fn to_csv(rows: &[ResultRow]) -> String {
    let mut out = String::from(
        "experiment,measure,algorithm,query_len,bucket_size,overlap,heuristic,k,emitted,millis,evals\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.4},{}\n",
            r.experiment,
            r.measure,
            r.algorithm,
            r.query_len,
            r.bucket_size,
            r.overlap,
            r.heuristic,
            r.k,
            r.emitted,
            r.millis,
            r.evals
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_complete_and_unique() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 11);
        let ids: std::collections::BTreeSet<_> = exps.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), exps.len(), "experiment ids unique");
        for e in &exps {
            assert!(!e.configs.is_empty(), "{} has configs", e.id);
            assert!(!e.expectation.is_empty());
            assert!(!e.paper_ref.is_empty());
            for c in &e.configs {
                assert_eq!(c.experiment, e.id, "config tagged with its experiment");
            }
        }
    }

    #[test]
    fn small_experiment_runs_in_parallel() {
        let exp = Experiment {
            id: "mini",
            title: "mini",
            paper_ref: "-",
            expectation: "-",
            configs: vec![
                {
                    let mut c =
                        RunConfig::new("mini", MeasureKind::Coverage, AlgorithmKind::Streamer, 4);
                    c.ks = vec![1, 5];
                    c
                },
                {
                    let mut c = RunConfig::new("mini", MeasureKind::Coverage, AlgorithmKind::Pi, 4);
                    c.ks = vec![1, 5];
                    c
                },
                // Inapplicable: contributes no rows, must not hang.
                {
                    let mut c = RunConfig::new(
                        "mini",
                        MeasureKind::FailureCache,
                        AlgorithmKind::Streamer,
                        4,
                    );
                    c.ks = vec![1];
                    c
                },
            ],
        };
        let rows = run_experiment(&exp, 4);
        assert_eq!(rows.len(), 4, "two applicable configs × two ks");
        let table = format_table(&rows);
        assert!(table.contains("streamer") && table.contains("pi"));
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("experiment,measure"));
    }
}
