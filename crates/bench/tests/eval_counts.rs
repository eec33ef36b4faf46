//! The paper's "plans evaluated" metric, pinned: `fig6-coverage` (§6,
//! Figure 6 (a)-(c)), `fig6-failure-{cache,nocache}` (Figure 6 (d)-(i)),
//! `fig6-monetary` (Figure 6 (j)-(l)) and `cost2` evaluate exactly these
//! utilities per measure, algorithm, bucket size and `k`.
//! The ordering kernel's optimizations must leave every count unchanged —
//! a memo, a cache or a bound that evaluates one plan more or fewer shows
//! up here as a changed row, not just as time. A row moves only on
//! purpose: iDrips' rent-or-buy hand-over to `Pi` (its module doc) moves
//! the iDrips rows that run late enough in the order to buy, and `Pi`'s
//! lazy heap, which under a measure with diminishing returns re-values
//! only the rows reaching its top, lowered the coverage PI and iDrips
//! rows (the eager counts stay pinned on its twin, `ReferencePi`, in
//! `qpo-core`'s `kernel_equivalence` tests).
//! Streamer's rows also pin its six work counters (refinements, dominance
//! links created, recycled and invalidated, utility recomputations and
//! resumes), so a change to how it stores its links shows up here too.

use qpo_bench::{all_experiments, run_experiment, AlgorithmKind, Experiment, ResultRow};
use qpo_core::{PlanOrderer, Streamer};

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
    ("idrips", 4, 10, 10, 200),
    ("pi", 4, 10, 10, 89),
    ("streamer", 4, 10, 10, 88),
    ("idrips", 8, 10, 10, 640),
    ("pi", 8, 10, 10, 591),
    ("streamer", 8, 10, 10, 175),
    ("idrips", 12, 10, 10, 548),
    ("pi", 12, 10, 10, 1765),
    ("streamer", 12, 10, 10, 160),
    ("idrips", 16, 10, 10, 907),
    ("pi", 16, 10, 10, 4147),
    ("streamer", 16, 10, 10, 232),
    ("idrips", 4, 100, 64, 283),
    ("pi", 4, 100, 64, 180),
    ("streamer", 4, 100, 64, 281),
    ("idrips", 8, 100, 100, 2277),
    ("pi", 8, 100, 100, 1506),
    ("streamer", 8, 100, 100, 2536),
    ("idrips", 12, 100, 100, 6041),
    ("pi", 12, 100, 100, 3554),
    ("streamer", 12, 100, 100, 4976),
    ("idrips", 16, 100, 100, 13850),
    ("pi", 16, 100, 100, 6918),
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
    ("monetary", "idrips", 4, 100, 64, 133),
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
    ("monetary+cache", "idrips", 4, 100, 64, 882),
    ("monetary+cache", "pi", 4, 100, 64, 1216),
    ("monetary+cache", "idrips", 8, 100, 100, 1227),
    ("monetary+cache", "pi", 8, 100, 100, 14099),
    ("monetary+cache", "idrips", 12, 100, 100, 1518),
    ("monetary+cache", "pi", 12, 100, 100, 37797),
    ("monetary+cache", "idrips", 16, 100, 100, 1634),
    ("monetary+cache", "pi", 16, 100, 100, 71665),
];

/// `(algorithm, m, k, emitted, evals)` for `fig6-failure-cache` (no Streamer
/// rows: the caching measure lacks diminishing returns).
const FIG6_FAILURE_CACHE: [(&str, usize, usize, usize, u64); 24] = [
    ("idrips", 4, 1, 1, 23),
    ("pi", 4, 1, 1, 64),
    ("idrips", 8, 1, 1, 23),
    ("pi", 8, 1, 1, 512),
    ("idrips", 12, 1, 1, 45),
    ("pi", 12, 1, 1, 1728),
    ("idrips", 16, 1, 1, 79),
    ("pi", 16, 1, 1, 4096),
    ("idrips", 4, 10, 10, 98),
    ("pi", 4, 10, 10, 352),
    ("idrips", 8, 10, 10, 142),
    ("pi", 8, 10, 10, 1988),
    ("idrips", 12, 10, 10, 126),
    ("pi", 12, 10, 10, 5256),
    ("idrips", 16, 10, 10, 174),
    ("pi", 16, 10, 10, 10540),
    ("idrips", 4, 100, 64, 909),
    ("pi", 4, 100, 64, 1216),
    ("idrips", 8, 100, 100, 1545),
    ("pi", 8, 100, 100, 14099),
    ("idrips", 12, 100, 100, 1675),
    ("pi", 12, 100, 100, 37797),
    ("idrips", 16, 100, 100, 1450),
    ("pi", 16, 100, 100, 70525),
];

/// `(algorithm, m, k, emitted, evals)` for `fig6-failure-nocache`.
const FIG6_FAILURE_NOCACHE: [(&str, usize, usize, usize, u64); 36] = [
    ("idrips", 4, 1, 1, 23),
    ("pi", 4, 1, 1, 64),
    ("streamer", 4, 1, 1, 23),
    ("idrips", 8, 1, 1, 23),
    ("pi", 8, 1, 1, 512),
    ("streamer", 8, 1, 1, 23),
    ("idrips", 12, 1, 1, 45),
    ("pi", 12, 1, 1, 1728),
    ("streamer", 12, 1, 1, 45),
    ("idrips", 16, 1, 1, 79),
    ("pi", 16, 1, 1, 4096),
    ("streamer", 16, 1, 1, 79),
    ("idrips", 4, 10, 10, 64),
    ("pi", 4, 10, 10, 64),
    ("streamer", 4, 10, 10, 55),
    ("idrips", 8, 10, 10, 99),
    ("pi", 8, 10, 10, 512),
    ("streamer", 8, 10, 10, 99),
    ("idrips", 12, 10, 10, 127),
    ("pi", 12, 10, 10, 1728),
    ("streamer", 12, 10, 10, 123),
    ("idrips", 16, 10, 10, 192),
    ("pi", 16, 10, 10, 4096),
    ("streamer", 16, 10, 10, 191),
    ("idrips", 4, 100, 64, 140),
    ("pi", 4, 100, 64, 64),
    ("streamer", 4, 100, 64, 127),
    ("idrips", 8, 100, 100, 452),
    ("pi", 8, 100, 100, 512),
    ("streamer", 8, 100, 100, 521),
    ("idrips", 12, 100, 100, 623),
    ("pi", 12, 100, 100, 1728),
    ("streamer", 12, 100, 100, 723),
    ("idrips", 16, 100, 100, 862),
    ("pi", 16, 100, 100, 4096),
    ("streamer", 16, 100, 100, 961),
];

/// `(algorithm, m, k, emitted, evals)` for `cost2`.
const COST2: [(&str, usize, usize, usize, u64); 36] = [
    ("idrips", 4, 1, 1, 21),
    ("pi", 4, 1, 1, 64),
    ("streamer", 4, 1, 1, 21),
    ("idrips", 8, 1, 1, 31),
    ("pi", 8, 1, 1, 512),
    ("streamer", 8, 1, 1, 31),
    ("idrips", 12, 1, 1, 49),
    ("pi", 12, 1, 1, 1728),
    ("streamer", 12, 1, 1, 49),
    ("idrips", 16, 1, 1, 103),
    ("pi", 16, 1, 1, 4096),
    ("streamer", 16, 1, 1, 103),
    ("idrips", 4, 10, 10, 70),
    ("pi", 4, 10, 10, 64),
    ("streamer", 4, 10, 10, 55),
    ("idrips", 8, 10, 10, 106),
    ("pi", 8, 10, 10, 512),
    ("streamer", 8, 10, 10, 89),
    ("idrips", 12, 10, 10, 192),
    ("pi", 12, 10, 10, 1728),
    ("streamer", 12, 10, 10, 185),
    ("idrips", 16, 10, 10, 287),
    ("pi", 16, 10, 10, 4096),
    ("streamer", 16, 10, 10, 265),
    ("idrips", 4, 100, 64, 143),
    ("pi", 4, 100, 64, 64),
    ("streamer", 4, 100, 64, 127),
    ("idrips", 8, 100, 100, 464),
    ("pi", 8, 100, 100, 512),
    ("streamer", 8, 100, 100, 521),
    ("idrips", 12, 100, 100, 628),
    ("pi", 12, 100, 100, 1728),
    ("streamer", 12, 100, 100, 717),
    ("idrips", 16, 100, 100, 914),
    ("pi", 16, 100, 100, 4096),
    ("streamer", 16, 100, 100, 903),
];

/// One experiment of the index.
fn experiment(id: &str) -> Experiment {
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("{id} is in the index"))
}

/// The rows of one experiment of the index, in the table's row order.
fn rows(id: &str) -> Vec<ResultRow> {
    run_experiment(&experiment(id), 2)
}

/// `(algorithm, m, k, emitted, evals)` of a one-measure experiment.
fn counts(id: &str) -> Vec<(&'static str, usize, usize, usize, u64)> {
    rows(id)
        .iter()
        .map(|r| (r.algorithm, r.bucket_size, r.k, r.emitted, r.evals))
        .collect()
}

#[test]
fn fig6_coverage_evaluation_counts_are_pinned() {
    assert_eq!(counts("fig6-coverage"), FIG6_COVERAGE);
}

#[test]
fn fig6_failure_evaluation_counts_are_pinned() {
    assert_eq!(counts("fig6-failure-cache"), FIG6_FAILURE_CACHE);
    assert_eq!(counts("fig6-failure-nocache"), FIG6_FAILURE_NOCACHE);
}

#[test]
fn cost2_evaluation_counts_are_pinned() {
    assert_eq!(counts("cost2"), COST2);
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

/// `(m, k, work)`, where `work` is [`qpo_core::StreamerStats`] after the
/// `k`-th plan as `[refinements, links_created, links_recycled,
/// links_invalidated, utility_recomputations, utility_resumes]`.
type Work = (usize, usize, [usize; 6]);

/// Streamer's work per experiment, for every Streamer row pinned above,
/// each run on its experiment's own instance and heuristic.
const STREAMER_WORK: [(&str, [Work; 12]); 4] = [
    (
        "fig6-coverage",
        [
            (4, 1, [6, 11, 3, 2, 13, 0]),
            (4, 10, [31, 119, 72, 42, 88, 25]),
            (4, 100, [63, 594, 729, 74, 281, 154]),
            (8, 1, [9, 17, 5, 3, 19, 0]),
            (8, 10, [66, 204, 167, 30, 175, 42]),
            (8, 100, [468, 5943, 20910, 2899, 2536, 1599]),
            (12, 1, [9, 15, 5, 1, 19, 0]),
            (12, 10, [56, 232, 127, 33, 160, 47]),
            (12, 100, [1319, 12056, 45585, 5861, 4976, 2337]),
            (16, 1, [12, 22, 10, 0, 25, 0]),
            (16, 10, [82, 335, 215, 68, 232, 67]),
            (16, 100, [2207, 18630, 64517, 5844, 7302, 2887]),
        ],
    ),
    (
        "fig6-failure-nocache",
        [
            (4, 1, [11, 14, 2, 0, 23, 0]),
            (4, 10, [27, 90, 90, 0, 55, 0]),
            (4, 100, [63, 515, 292, 0, 127, 0]),
            (8, 1, [11, 11, 0, 0, 23, 0]),
            (8, 10, [49, 220, 46, 0, 99, 0]),
            (8, 100, [260, 2935, 7434, 0, 521, 0]),
            (12, 1, [22, 24, 2, 0, 45, 0]),
            (12, 10, [61, 309, 113, 0, 123, 0]),
            (12, 100, [361, 5430, 10799, 0, 723, 0]),
            (16, 1, [39, 39, 1, 0, 79, 0]),
            (16, 10, [95, 610, 64, 0, 191, 0]),
            (16, 100, [480, 12126, 12263, 0, 961, 0]),
        ],
    ),
    (
        "fig6-monetary",
        [
            (4, 1, [6, 11, 1, 0, 13, 0]),
            (4, 10, [19, 62, 51, 0, 39, 0]),
            (4, 100, [63, 320, 250, 0, 127, 0]),
            (8, 1, [17, 26, 3, 0, 35, 0]),
            (8, 10, [55, 159, 239, 0, 111, 0]),
            (8, 100, [179, 1381, 5426, 0, 359, 0]),
            (12, 1, [48, 48, 0, 0, 97, 0]),
            (12, 10, [113, 590, 388, 0, 227, 0]),
            (12, 100, [339, 2889, 15636, 0, 679, 0]),
            (16, 1, [59, 64, 8, 0, 119, 0]),
            (16, 10, [144, 737, 348, 0, 289, 0]),
            (16, 100, [516, 5187, 23548, 0, 1033, 0]),
        ],
    ),
    (
        "cost2",
        [
            (4, 1, [10, 14, 4, 0, 21, 0]),
            (4, 10, [27, 82, 96, 0, 55, 0]),
            (4, 100, [63, 483, 300, 0, 127, 0]),
            (8, 1, [15, 15, 1, 0, 31, 0]),
            (8, 10, [44, 189, 55, 0, 89, 0]),
            (8, 100, [260, 2800, 7411, 0, 521, 0]),
            (12, 1, [24, 24, 0, 0, 49, 0]),
            (12, 10, [92, 441, 226, 0, 185, 0]),
            (12, 100, [358, 5102, 11308, 0, 717, 0]),
            (16, 1, [51, 51, 0, 0, 103, 0]),
            (16, 10, [132, 565, 262, 0, 265, 0]),
            (16, 100, [451, 8643, 14661, 0, 903, 0]),
        ],
    ),
];

#[test]
fn streamer_work_counters_are_pinned() {
    for (id, pinned) in STREAMER_WORK {
        let mut got = Vec::new();
        for cfg in experiment(id)
            .configs
            .iter()
            .filter(|c| c.algorithm == AlgorithmKind::Streamer)
        {
            let (inst, measure) = (cfg.instance(), cfg.measure.build());
            // The caching monetary measure lacks diminishing returns.
            let Ok(mut streamer) = Streamer::new(&inst, &*measure, &*cfg.heuristic.build()) else {
                continue;
            };
            let mut emitted = 0;
            for &k in &cfg.ks {
                while emitted < k && streamer.next_plan().is_some() {
                    emitted += 1;
                }
                let st = streamer.stats();
                let work = [
                    st.refinements,
                    st.links_created,
                    st.links_recycled,
                    st.links_invalidated,
                    st.utility_recomputations,
                    st.utility_resumes,
                ];
                got.push((cfg.bucket_size, k, work));
            }
        }
        assert_eq!(got, pinned, "{id}");
    }
}
