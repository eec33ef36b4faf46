//! Dominance provenance: elimination certificates and the `explain(plan)`
//! query.
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
//! [`ExplainIndex`] turns a recorded journal into an answerable query:
//! "why did plan p rank i" (it was emitted, here is its rank, utility,
//! and virtual time) and "why was q never emitted" (here is the
//! certificate of the dominance comparison that pruned the abstract
//! candidate set containing q). This module is dependency-free — plans
//! are bucket-index vectors and intervals are `(lo, hi)` pairs — so the
//! producing kernel stays the only crate that knows what a utility
//! measure is.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::journal::{push_f64, push_str, Record, TraceEvent, TraceJournal};
use crate::vocab::{role_of, Role};

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

impl EliminationCertificate {
    /// The certificate a `kernel_elimination` record carries (`None` if a
    /// field is missing or mistyped) — the kernel's only record of one; a
    /// live event's `F64` fields keep their bits.
    pub fn from_record(rec: &Record<'_>) -> Option<Self> {
        Some(EliminationCertificate {
            victim_id: rec.u64("plan_id")?,
            champion_id: rec.u64("champion_id")?,
            victim: parse_candidates(rec.str("victim")?)?,
            champion: parse_candidates(rec.str("champion")?)?,
            victim_interval: (rec.f64("victim_lo")?, rec.f64("victim_hi")?),
            champion_interval: (rec.f64("champion_lo")?, rec.f64("champion_hi")?),
            epoch: rec.u64("epoch")?,
        })
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
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"victim_id\":{},\"champion_id\":{}",
            self.victim_id, self.champion_id
        );
        out.push_str(",\"victim\":");
        push_str(&mut out, &encode_candidates(&self.victim));
        out.push_str(",\"champion\":");
        push_str(&mut out, &encode_candidates(&self.champion));
        out.push_str(",\"victim_interval\":[");
        push_f64(&mut out, self.victim_interval.0);
        out.push(',');
        push_f64(&mut out, self.victim_interval.1);
        out.push_str("],\"champion_interval\":[");
        push_f64(&mut out, self.champion_interval.0);
        out.push(',');
        push_f64(&mut out, self.champion_interval.1);
        let _ = write!(out, "],\"epoch\":{}}}", self.epoch);
        out
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
        let mut out = String::new();
        let _ = write!(out, "{{\"run\":{run},\"plan\":");
        push_str(&mut out, &encode_plan(plan));
        match self {
            Explanation::Emitted {
                rank,
                utility,
                clock,
            } => {
                let _ = write!(out, ",\"status\":\"emitted\",\"rank\":{rank},\"utility\":");
                push_f64(&mut out, *utility);
                out.push_str(",\"clock\":");
                push_f64(&mut out, *clock);
                out.push('}');
            }
            Explanation::Eliminated {
                certificate,
                matches,
            } => {
                let _ = write!(
                    out,
                    ",\"status\":\"eliminated\",\"matches\":{matches},\"certificate\":{}}}",
                    certificate.to_json()
                );
            }
            Explanation::Unknown => out.push_str(",\"status\":\"unknown\"}"),
        }
        out
    }
}

/// An index over a recorded journal answering "why did plan p rank i /
/// why was q never emitted", per run. Runs are numbered as the profiler
/// and `validate_trace` number them: the zero-based index of the
/// `run_started` marker. Events ahead of the first marker belong to no
/// run and are not indexed.
#[derive(Debug, Clone, Default)]
pub struct ExplainIndex {
    emissions: BTreeMap<(u64, String), (u64, f64, f64)>,
    certificates: Vec<(u64, EliminationCertificate)>,
    runs: u64,
}

impl ExplainIndex {
    /// Builds the index from recorded events (in seq order).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut index = ExplainIndex::default();
        for rec in events.iter().map(Record::from) {
            if role_of(&rec.kind) == Some(Role::RunOpen) {
                index.runs += 1;
            }
            let Some(run) = index.runs.checked_sub(1) else {
                continue;
            };
            match &*rec.kind {
                "plan_emitted" => {
                    // Only emissions that carry the encoded plan are
                    // explainable; older producers omit it.
                    if let Some(plan) = rec.str("plan") {
                        let rank = rec.u64("plan_seq").unwrap_or(0);
                        let utility = rec.f64("utility").unwrap_or(f64::NAN);
                        index
                            .emissions
                            .entry((run, plan.to_string()))
                            .or_insert((rank, utility, rec.clock));
                    }
                }
                "kernel_elimination" => {
                    let cert = EliminationCertificate::from_record(&rec);
                    index.certificates.extend(cert.map(|c| (run, c)));
                }
                _ => {}
            }
        }
        index
    }

    /// Builds the index straight from a journal.
    pub fn from_journal(journal: &TraceJournal) -> Self {
        ExplainIndex::from_events(&journal.events())
    }

    /// Number of `run_started` markers seen; the latest run is
    /// `runs() - 1`.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Certificates recorded for `run` (zero-based), in journal order.
    pub fn certificates(&self, run: u64) -> Vec<EliminationCertificate> {
        self.certificates
            .iter()
            .filter(|(r, _)| *r == run)
            .map(|(_, c)| c.clone())
            .collect()
    }

    /// Explains `plan` within `run` (zero-based). An emission wins over a
    /// certificate: iDrips may prune an abstract candidate set in one
    /// round yet emit a refined plan from it later, and an emitted plan
    /// *was* ranked.
    pub fn explain(&self, run: u64, plan: &[usize]) -> Explanation {
        if let Some(&(rank, utility, clock)) = self.emissions.get(&(run, encode_plan(plan))) {
            return Explanation::Emitted {
                rank,
                utility,
                clock,
            };
        }
        let covering: Vec<&EliminationCertificate> = self
            .certificates
            .iter()
            .filter(|(r, c)| *r == run && c.covers(plan))
            .map(|(_, c)| c)
            .collect();
        match covering.last() {
            Some(cert) => Explanation::Eliminated {
                certificate: (*cert).clone(),
                matches: covering.len() as u64,
            },
            None => Explanation::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Value;

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

    fn journal_with_runs() -> TraceJournal {
        let j = TraceJournal::enabled();
        j.set_clock(0.0);
        j.record("run_started", vec![("lookahead", Value::U64(1))]);
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("0,1".into())),
                ("utility", Value::F64(0.75)),
            ],
        );
        j.record(
            "kernel_elimination",
            vec![
                ("plan_id", Value::U64(7)),
                ("champion_id", Value::U64(2)),
                ("victim", Value::Str("0,1|3".into())),
                ("champion", Value::Str("2|0,1".into())),
                ("victim_lo", Value::F64(0.1)),
                ("victim_hi", Value::F64(0.4)),
                ("champion_lo", Value::F64(0.5)),
                ("champion_hi", Value::F64(0.9)),
                ("epoch", Value::U64(3)),
            ],
        );
        j
    }

    #[test]
    fn index_answers_emitted_eliminated_and_unknown() {
        let index = ExplainIndex::from_journal(&journal_with_runs());
        // One marker: one run, and it is run 0 — the profiler's number.
        assert_eq!(index.runs(), 1);
        let profiled = crate::ProfileIndex::from_journal(&journal_with_runs());
        assert_eq!(profiled.latest().map(|r| r.run), Some(0));
        assert_eq!(index.certificates(0).len(), 1);

        match index.explain(0, &[0, 1]) {
            Explanation::Emitted { rank, utility, .. } => {
                assert_eq!(rank, 0);
                assert_eq!(utility, 0.75);
            }
            other => panic!("expected emitted, got {other:?}"),
        }
        match index.explain(0, &[1, 3]) {
            Explanation::Eliminated {
                certificate,
                matches,
            } => {
                assert_eq!(matches, 1);
                assert!(certificate.comparison_holds());
            }
            other => panic!("expected eliminated, got {other:?}"),
        }
        assert_eq!(index.explain(0, &[9, 9]), Explanation::Unknown);
        assert_eq!(index.explain(1, &[0, 1]), Explanation::Unknown);

        let json = index.explain(0, &[1, 3]).to_json(0, &[1, 3]);
        assert!(json.starts_with("{\"run\":0,\"plan\":\"1,3\""));
        assert!(json.contains("\"status\":\"eliminated\""));
        assert!(json.contains("\"certificate\":{"));
    }

    #[test]
    fn events_ahead_of_the_first_marker_belong_to_no_run() {
        let j = TraceJournal::enabled();
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("0,1".into())),
            ],
        );
        let index = ExplainIndex::from_journal(&j);
        assert_eq!(index.runs(), 0);
        assert_eq!(index.explain(0, &[0, 1]), Explanation::Unknown);
    }
}
