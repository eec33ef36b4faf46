//! Dominance provenance: elimination certificates and the answer to
//! `explain(plan)`.
//!
//! When the ordering kernel prunes an abstract plan it journals an
//! [`EliminationCertificate`] — the eliminated candidate set, the
//! champion that dominated it, both utility intervals, and the context
//! epoch the comparison happened at. A certificate is *independently
//! checkable*: [`EliminationCertificate::comparison_holds`] replays the
//! interval comparison from the recorded numbers alone, and `qpo-core`'s
//! test-support verifier (`crates/core/tests/support`) re-derives the
//! intervals themselves from the problem instance.
//!
//! The profiler's one reconstruction keeps each run's certificates beside
//! its plan spans, and [`RunProfile::explain`](crate::RunProfile::explain)
//! answers "why did plan p rank i" (it was emitted, here is its rank,
//! utility, and virtual time) and "why was q never emitted" (here is the
//! certificate of the dominance comparison that pruned the abstract
//! candidate set containing q) as an [`Explanation`]. This module is
//! dependency-free — plans are bucket-index vectors and intervals are
//! `(lo, hi)` pairs — so the producing kernel stays the only crate that
//! knows what a utility measure is.

use std::fmt::Write as _;

use crate::journal::Record;
use crate::json::Json;

/// Renders a concrete plan (one source index per bucket) as the compact
/// journal/URL form `"1,0,2"`.
pub fn encode_plan(plan: &[usize]) -> String {
    let mut out = String::new();
    for (i, &s) in plan.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    out
}

/// Parses the `"1,0,2"` form back into a plan. `None` on empty or
/// malformed input.
pub fn parse_plan(s: &str) -> Option<Vec<usize>> {
    if s.is_empty() {
        return None;
    }
    s.split(',').map(|p| p.trim().parse().ok()).collect()
}

/// Renders an abstract plan (a candidate *set* per bucket) as
/// `"0,1|2|0,3"` — buckets joined by `|`, indices within a bucket by `,`.
/// Writes into one pre-sized buffer: the kernel journals two of these per
/// elimination, so this sits on the tracing hot path.
pub fn encode_candidates(cands: &[Vec<usize>]) -> String {
    let indices: usize = cands.iter().map(Vec::len).sum();
    let mut out = String::with_capacity(3 * indices + cands.len());
    for (b, bucket) in cands.iter().enumerate() {
        if b > 0 {
            out.push('|');
        }
        for (i, &s) in bucket.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s}");
        }
    }
    out
}

/// Parses the `"0,1|2|0,3"` form back into per-bucket candidate sets.
pub fn parse_candidates(s: &str) -> Option<Vec<Vec<usize>>> {
    if s.is_empty() {
        return None;
    }
    s.split('|').map(parse_plan).collect()
}

/// A compact, independently checkable record of one dominance
/// elimination: the champion's utility interval sat strictly above the
/// victim's (or tied at the boundary with the smaller plan id winning),
/// so every concrete plan in the victim's candidate sets was pruned
/// without evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EliminationCertificate {
    /// Pool id of the eliminated abstract plan.
    pub victim_id: u64,
    /// Pool id of the dominating champion.
    pub champion_id: u64,
    /// Per-bucket candidate sets of the eliminated abstract plan.
    pub victim: Vec<Vec<usize>>,
    /// Per-bucket candidate sets of the champion at comparison time.
    pub champion: Vec<Vec<usize>>,
    /// `(lo, hi)` utility interval of the victim.
    pub victim_interval: (f64, f64),
    /// `(lo, hi)` utility interval of the champion.
    pub champion_interval: (f64, f64),
    /// Execution-context epoch the comparison happened at (the number of
    /// plans recorded as executed before it).
    pub epoch: u64,
}

/// A `kernel_elimination` record with its candidate sets still encoded.
/// A profile rebuild keeps one per elimination, tens of thousands on a
/// large journal, and `explain` [`decode`](Self::decode)s them only when
/// it reads them: parsing each set at rebuild time doubled the rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedCertificate {
    ids: (u64, u64),
    candidates: (String, String),
    intervals: ((f64, f64), (f64, f64)),
    epoch: u64,
}

impl EncodedCertificate {
    /// The fields of a `kernel_elimination` record (`None` if one is
    /// missing or mistyped); a live event's `F64` fields keep their bits.
    pub fn from_record(rec: &Record<'_>) -> Option<Self> {
        Some(EncodedCertificate {
            ids: (rec.u64("plan_id")?, rec.u64("champion_id")?),
            candidates: (rec.str("victim")?.into(), rec.str("champion")?.into()),
            intervals: (
                (rec.f64("victim_lo")?, rec.f64("victim_hi")?),
                (rec.f64("champion_lo")?, rec.f64("champion_hi")?),
            ),
            epoch: rec.u64("epoch")?,
        })
    }

    /// The certificate, its candidate sets parsed (`None` if one does not
    /// parse).
    pub fn decode(&self) -> Option<EliminationCertificate> {
        Some(EliminationCertificate {
            victim_id: self.ids.0,
            champion_id: self.ids.1,
            victim: parse_candidates(&self.candidates.0)?,
            champion: parse_candidates(&self.candidates.1)?,
            victim_interval: self.intervals.0,
            champion_interval: self.intervals.1,
            epoch: self.epoch,
        })
    }
}

impl EliminationCertificate {
    /// The certificate a `kernel_elimination` record carries (`None` if a
    /// field is missing or mistyped) — the kernel's only record of one; a
    /// live event's `F64` fields keep their bits.
    pub fn from_record(rec: &Record<'_>) -> Option<Self> {
        EncodedCertificate::from_record(rec)?.decode()
    }

    /// Replays the dominance comparison from the recorded numbers alone:
    /// `champion.lo > victim.hi`, or a boundary tie broken toward the
    /// smaller pool id. This must mirror the kernel's `eliminates`
    /// predicate exactly — `qpo_core` pins the two together by test.
    pub fn comparison_holds(&self) -> bool {
        self.champion_interval.0 > self.victim_interval.1
            || (self.champion_interval.0 == self.victim_interval.1
                && self.champion_id < self.victim_id)
    }

    /// True when `plan` (one source per bucket) is contained in the
    /// eliminated candidate sets — i.e. this certificate is why `plan`
    /// was never emitted.
    pub fn covers(&self, plan: &[usize]) -> bool {
        plan.len() == self.victim.len()
            && plan
                .iter()
                .zip(&self.victim)
                .all(|(s, bucket)| bucket.contains(s))
    }

    /// Renders the certificate as one JSON object.
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }

    fn json(&self) -> Json {
        let interval = |(lo, hi): (f64, f64)| Json::from_iter([lo.into(), hi.into()]);
        Json::object([
            ("victim_id", self.victim_id.into()),
            ("champion_id", self.champion_id.into()),
            ("victim", encode_candidates(&self.victim).into()),
            ("champion", encode_candidates(&self.champion).into()),
            ("victim_interval", interval(self.victim_interval)),
            ("champion_interval", interval(self.champion_interval)),
            ("epoch", self.epoch.into()),
        ])
    }
}

/// The answer to `explain(plan)` for one run of a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum Explanation {
    /// The plan was emitted: its rank (0-based emission index), utility,
    /// and the virtual time it went out.
    Emitted {
        /// 0-based emission index within the run.
        rank: u64,
        /// The utility it was emitted with.
        utility: f64,
        /// Virtual time of the emission.
        clock: f64,
    },
    /// The plan was never emitted; `certificate` is the (last) dominance
    /// elimination whose candidate sets contain it.
    Eliminated {
        /// The covering certificate (the last one recorded).
        certificate: EliminationCertificate,
        /// How many recorded certificates cover the plan.
        matches: u64,
    },
    /// The journal has no emission and no covering certificate for the
    /// plan in that run (not part of the plan space, run truncated, or
    /// certificates not recorded).
    Unknown,
}

impl Explanation {
    /// Renders the explanation for (`run`, `plan`) as one JSON object.
    pub fn to_json(&self, run: u64, plan: &[usize]) -> String {
        let mut fields: Vec<(&str, Json)> =
            vec![("run", run.into()), ("plan", encode_plan(plan).into())];
        match self {
            Explanation::Emitted {
                rank,
                utility,
                clock,
            } => fields.extend([
                ("status", "emitted".into()),
                ("rank", (*rank).into()),
                ("utility", (*utility).into()),
                ("clock", (*clock).into()),
            ]),
            Explanation::Eliminated {
                certificate,
                matches,
            } => fields.extend([
                ("status", "eliminated".into()),
                ("matches", (*matches).into()),
                ("certificate", certificate.json()),
            ]),
            Explanation::Unknown => fields.push(("status", "unknown".into())),
        }
        Json::object(fields).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_and_candidate_encodings_round_trip() {
        assert_eq!(encode_plan(&[1, 0, 2]), "1,0,2");
        assert_eq!(parse_plan("1,0,2"), Some(vec![1, 0, 2]));
        assert_eq!(parse_plan(""), None);
        assert_eq!(parse_plan("1,x"), None);
        let cands = vec![vec![0, 1], vec![2], vec![0, 3]];
        assert_eq!(encode_candidates(&cands), "0,1|2|0,3");
        assert_eq!(parse_candidates("0,1|2|0,3"), Some(cands));
        assert_eq!(parse_candidates("0,|1"), None);
    }

    fn cert() -> EliminationCertificate {
        EliminationCertificate {
            victim_id: 7,
            champion_id: 2,
            victim: vec![vec![0, 1], vec![3]],
            champion: vec![vec![2], vec![0, 1]],
            victim_interval: (0.1, 0.4),
            champion_interval: (0.5, 0.9),
            epoch: 3,
        }
    }

    #[test]
    fn certificate_replay_and_coverage() {
        let c = cert();
        assert!(c.comparison_holds(), "0.5 > 0.4 dominates");
        assert!(c.covers(&[0, 3]));
        assert!(c.covers(&[1, 3]));
        assert!(!c.covers(&[2, 3]), "2 not in the first bucket set");
        assert!(!c.covers(&[0]), "arity mismatch");

        let mut tied = c.clone();
        tied.champion_interval.0 = tied.victim_interval.1;
        assert!(tied.comparison_holds(), "tie broken toward smaller id");
        tied.champion_id = 9;
        assert!(!tied.comparison_holds(), "tie with larger id is no win");

        let json = c.to_json();
        assert!(json.contains("\"victim\":\"0,1|3\""));
        assert!(json.contains("\"champion_interval\":[0.5,0.9]"));
        assert!(json.contains("\"epoch\":3"));
    }
}
