//! Experiment harness: everything needed to regenerate the paper's
//! evaluation (Figure 6 panels a–l and the §6 sweeps).
//!
//! The paper measures *time from query issue to the first k best plans*
//! against bucket size, per utility measure and algorithm, excluding
//! bucket-generation time. This harness reproduces each panel and
//! additionally reports the machine-independent *plans evaluated* counter
//! (the quantity the paper's own analysis of the figures is phrased in),
//! since absolute milliseconds on modern hardware are not comparable to a
//! Pentium III 500.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod experiments;
pub mod runner;

pub use curve::{
    answers_curve, format_curve, ordering_regret, synthetic_catalog,
    synthetic_catalog_with_universe, CurvePoint,
};
pub use experiments::{all_experiments, format_table, run_experiment, to_csv, Experiment};
pub use runner::{
    order_k_on, run_config, AlgorithmKind, HeuristicKind, MeasureKind, ResultRow, RunConfig,
};

/// Replaces the top-level `"key": {...}` member of the `BENCH_*.json`
/// document `base` with `section` (the rendered `"key": {...}` text), or
/// appends it before the final closing brace when `base` has no such
/// member. Only that member's value changes: every other section survives
/// byte for byte, whatever order the bench bins are re-run in.
///
/// # Panics
/// Panics if `base` is not an object ending in a closing brace.
pub fn merge_section(base: &str, key: &str, section: &str) -> String {
    // Top-level members sit at two spaces of indentation.
    if let Some(at) = base.find(&format!("\n  \"{key}\":")) {
        let start = at + "\n  ".len();
        let end = start + object_end(&base[start..]);
        return format!("{}{section}{}", &base[..start], &base[end..]);
    }
    let body = base
        .trim_end()
        .strip_suffix('}')
        .expect("a BENCH_*.json document ends with a closing brace")
        .trim_end();
    format!("{body},\n  {section}\n}}\n")
}

/// Byte offset just past the first `{...}` object in `text`, matching
/// braces outside string literals.
fn object_end(text: &str) -> usize {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in text.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' if !in_string => depth += 1,
            '}' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    panic!("unterminated object in a BENCH_*.json section");
}

#[cfg(test)]
mod tests {
    use super::merge_section;

    const ANYK: &str = "\"anyk\": {\n    \"gate\": \"a } brace and a \\\" quote\"\n  }";
    const SHARING: &str = "\"sharing\": {\n    \"workloads\": [ { \"n\": 1 } ]\n  }";
    const BACKENDS: &str = "\"backends\": {\n    \"rows\": 7\n  }";

    fn document() -> String {
        let base = "{\n  \"summary\": {\n    \"anyk\": 0\n  }\n}\n";
        [("anyk", ANYK), ("sharing", SHARING), ("backends", BACKENDS)]
            .iter()
            .fold(base.to_string(), |doc, (key, section)| {
                merge_section(&doc, key, section)
            })
    }

    #[test]
    fn appending_keeps_the_committed_key_order() {
        let doc = document();
        let at = |section: &str| doc.find(section).expect("section present");
        assert!(at(ANYK) < at(SHARING) && at(SHARING) < at(BACKENDS));
        assert!(doc.ends_with("  }\n}\n"), "{doc}");
        qpo_obs::parse_json(&doc).expect("still one JSON object");
    }

    #[test]
    fn refreshing_one_section_leaves_the_others_byte_for_byte() {
        let doc = document();
        // Re-running bench-anyk on its own: same bytes in, same bytes out.
        assert_eq!(merge_section(&doc, "anyk", ANYK), doc);
        // A changed anyk section replaces exactly its own span — the
        // sections after it (and the nested "anyk" under "summary") stay.
        let fresh = "\"anyk\": {\n    \"gate\": \"new\"\n  }";
        let merged = merge_section(&doc, "anyk", fresh);
        assert_eq!(merged, doc.replace(ANYK, fresh));
        for kept in [SHARING, BACKENDS, "\"summary\": {\n    \"anyk\": 0\n  }"] {
            assert!(merged.contains(kept), "{kept} lost:\n{merged}");
        }
        // Whatever the order the bins are re-run in.
        let merged = merge_section(&merged, "sharing", SHARING);
        assert_eq!(merged, doc.replace(ANYK, fresh));
    }
}
