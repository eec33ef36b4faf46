//! The paper's "plans evaluated" metric, pinned: `fig6-coverage` (§6,
//! Figure 6 (a)-(c)) and `fig6-monetary` (Figure 6 (j)-(l)) evaluate
//! exactly these utilities per measure, algorithm, bucket size and `k`.
//! The ordering kernel's optimizations must leave every count unchanged —
//! a memo, a cache or a bound that evaluates one plan more or fewer shows
//! up here as a changed row, not just as time. A row moves only on
//! purpose: the kernel's brute-force floor (its module doc, point 5) cut
//! the k = 100 iDrips rows, which run late enough in the order to reach it.

use qpo_bench::{all_experiments, run_experiment, ResultRow};

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
    ("idrips", 4, 100, 64, 589),
    ("pi", 4, 100, 64, 272),
    ("streamer", 4, 100, 64, 281),
    ("idrips", 8, 100, 100, 10153),
    ("pi", 8, 100, 100, 3570),
    ("streamer", 8, 100, 100, 2536),
    ("idrips", 12, 100, 100, 53774),
    ("pi", 12, 100, 100, 9478),
    ("streamer", 12, 100, 100, 4976),
    ("idrips", 16, 100, 100, 145050),
    ("pi", 16, 100, 100, 17275),
    ("streamer", 16, 100, 100, 7302),
];

/// `(measure, algorithm, m, k, emitted, evals)`, both caching modes (the
/// caching one has no Streamer rows: it lacks diminishing returns).
const FIG6_MONETARY: [(&str, &str, usize, usize, usize, u64); 60] = [
    ("monetary", "idrips", 4, 1, 1, 13),
    ("monetary", "pi", 4, 1, 1, 64),
    ("monetary", "streamer", 4, 1, 1, 13),
    ("monetary", "idrips", 8, 1, 1, 35),
    ("monetary", "pi", 8, 1, 1, 512),
    ("monetary", "streamer", 8, 1, 1, 35),
    ("monetary", "idrips", 12, 1, 1, 97),
    ("monetary", "pi", 12, 1, 1, 1728),
    ("monetary", "streamer", 12, 1, 1, 97),
    ("monetary", "idrips", 16, 1, 1, 119),
    ("monetary", "pi", 16, 1, 1, 4096),
    ("monetary", "streamer", 16, 1, 1, 119),
    ("monetary", "idrips", 4, 10, 10, 56),
    ("monetary", "pi", 4, 10, 10, 64),
    ("monetary", "streamer", 4, 10, 10, 39),
    ("monetary", "idrips", 8, 10, 10, 193),
    ("monetary", "pi", 8, 10, 10, 512),
    ("monetary", "streamer", 8, 10, 10, 111),
    ("monetary", "idrips", 12, 10, 10, 240),
    ("monetary", "pi", 12, 10, 10, 1728),
    ("monetary", "streamer", 12, 10, 10, 227),
    ("monetary", "idrips", 16, 10, 10, 413),
    ("monetary", "pi", 16, 10, 10, 4096),
    ("monetary", "streamer", 16, 10, 10, 289),
    ("monetary", "idrips", 4, 100, 64, 173),
    ("monetary", "pi", 4, 100, 64, 64),
    ("monetary", "streamer", 4, 100, 64, 127),
    ("monetary", "idrips", 8, 100, 100, 594),
    ("monetary", "pi", 8, 100, 100, 512),
    ("monetary", "streamer", 8, 100, 100, 359),
    ("monetary", "idrips", 12, 100, 100, 969),
    ("monetary", "pi", 12, 100, 100, 1728),
    ("monetary", "streamer", 12, 100, 100, 679),
    ("monetary", "idrips", 16, 100, 100, 1355),
    ("monetary", "pi", 16, 100, 100, 4096),
    ("monetary", "streamer", 16, 100, 100, 1033),
    ("monetary+cache", "idrips", 4, 1, 1, 13),
    ("monetary+cache", "pi", 4, 1, 1, 64),
    ("monetary+cache", "idrips", 8, 1, 1, 35),
    ("monetary+cache", "pi", 8, 1, 1, 512),
    ("monetary+cache", "idrips", 12, 1, 1, 97),
    ("monetary+cache", "pi", 12, 1, 1, 1728),
    ("monetary+cache", "idrips", 16, 1, 1, 119),
    ("monetary+cache", "pi", 16, 1, 1, 4096),
    ("monetary+cache", "idrips", 4, 10, 10, 105),
    ("monetary+cache", "pi", 4, 10, 10, 355),
    ("monetary+cache", "idrips", 8, 10, 10, 146),
    ("monetary+cache", "pi", 8, 10, 10, 1988),
    ("monetary+cache", "idrips", 12, 10, 10, 235),
    ("monetary+cache", "pi", 12, 10, 10, 5256),
    ("monetary+cache", "idrips", 16, 10, 10, 279),
    ("monetary+cache", "pi", 16, 10, 10, 10540),
    ("monetary+cache", "idrips", 4, 100, 64, 477),
    ("monetary+cache", "pi", 4, 100, 64, 1216),
    ("monetary+cache", "idrips", 8, 100, 100, 1227),
    ("monetary+cache", "pi", 8, 100, 100, 14099),
    ("monetary+cache", "idrips", 12, 100, 100, 1518),
    ("monetary+cache", "pi", 12, 100, 100, 37797),
    ("monetary+cache", "idrips", 16, 100, 100, 1634),
    ("monetary+cache", "pi", 16, 100, 100, 71665),
];

/// The rows of one experiment of the index, in the table's row order.
fn rows(id: &str) -> Vec<ResultRow> {
    let exp = all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("{id} is in the index"));
    run_experiment(&exp, 2)
}

#[test]
fn fig6_coverage_evaluation_counts_are_pinned() {
    let got: Vec<(&str, usize, usize, usize, u64)> = rows("fig6-coverage")
        .iter()
        .map(|r| (r.algorithm, r.bucket_size, r.k, r.emitted, r.evals))
        .collect();
    assert_eq!(got, FIG6_COVERAGE);
}

#[test]
fn fig6_monetary_evaluation_counts_are_pinned() {
    let got: Vec<(&str, &str, usize, usize, usize, u64)> = rows("fig6-monetary")
        .iter()
        .map(|r| {
            (
                r.measure,
                r.algorithm,
                r.bucket_size,
                r.k,
                r.emitted,
                r.evals,
            )
        })
        .collect();
    assert_eq!(got, FIG6_MONETARY);
}
