//! The paper's "plans evaluated" metric, pinned: `fig6-coverage` (§6,
//! Figure 6 (a)-(c)) evaluates exactly these utilities per algorithm,
//! bucket size and `k`. The ordering kernel's optimizations must leave
//! every count unchanged — a memo, a cache or a bound that evaluates one
//! plan more or fewer shows up here as a changed row, not just as time.

use qpo_bench::{all_experiments, run_experiment};

/// `(algorithm, m, k, emitted, evals)`, in the table's row order.
const FIG6_COVERAGE: [(&str, usize, usize, usize, u64); 36] = [
    ("idrips", 4, 1, 1, 13),
    ("pi", 4, 1, 1, 64),
    ("streamer", 4, 1, 1, 13),
    ("idrips", 8, 1, 1, 19),
    ("pi", 8, 1, 1, 512),
    ("streamer", 8, 1, 1, 19),
    ("idrips", 12, 1, 1, 19),
    ("pi", 12, 1, 1, 1728),
    ("streamer", 12, 1, 1, 19),
    ("idrips", 16, 1, 1, 25),
    ("pi", 16, 1, 1, 4096),
    ("streamer", 16, 1, 1, 25),
    ("idrips", 4, 10, 10, 309),
    ("pi", 4, 10, 10, 112),
    ("streamer", 4, 10, 10, 88),
    ("idrips", 8, 10, 10, 640),
    ("pi", 8, 10, 10, 913),
    ("streamer", 8, 10, 10, 175),
    ("idrips", 12, 10, 10, 548),
    ("pi", 12, 10, 10, 3133),
    ("streamer", 12, 10, 10, 160),
    ("idrips", 16, 10, 10, 907),
    ("pi", 16, 10, 10, 6193),
    ("streamer", 16, 10, 10, 232),
    ("idrips", 4, 100, 64, 2416),
    ("pi", 4, 100, 64, 272),
    ("streamer", 4, 100, 64, 281),
    ("idrips", 8, 100, 100, 52796),
    ("pi", 8, 100, 100, 3570),
    ("streamer", 8, 100, 100, 2536),
    ("idrips", 12, 100, 100, 117585),
    ("pi", 12, 100, 100, 9478),
    ("streamer", 12, 100, 100, 4976),
    ("idrips", 16, 100, 100, 193969),
    ("pi", 16, 100, 100, 17275),
    ("streamer", 16, 100, 100, 7302),
];

#[test]
fn fig6_coverage_evaluation_counts_are_pinned() {
    let exp = all_experiments()
        .into_iter()
        .find(|e| e.id == "fig6-coverage")
        .expect("fig6-coverage is in the index");
    let rows = run_experiment(&exp, 2);
    let got: Vec<(&str, usize, usize, usize, u64)> = rows
        .iter()
        .map(|r| (r.algorithm, r.bucket_size, r.k, r.emitted, r.evals))
        .collect();
    assert_eq!(got, FIG6_COVERAGE);
}
