//! Ordering-quality telemetry: online anytime curves and oracle regret.
//!
//! The paper's Definition 2.1 judges an ordering by how much utility its
//! *prefix* captures — "run the best plans first" is a statement about
//! the cumulative curve, not any single emission. A [`QualityTracker`]
//! maintains that curve live, one point per emitted plan: cumulative
//! emitted utility mass against both the emission index and the virtual
//! cost spent, plus a regret gauge against an exact-oracle ordering the
//! caller feeds in (sessions evaluate the brute-force Def. 2.1 orderer
//! lazily over the same plan space).
//!
//! Regret is accumulated strictly left-to-right — `mass += utility` per
//! emission, `oracle_mass += oracle_utility` per emission, `regret =
//! oracle_mass - mass` — so an offline recomputation that walks the same
//! utilities in the same order reproduces the gauge to f64 bit-equality.
//!
//! [`SessionBoard`] is the live-session directory behind the
//! introspection server's `/sessions` endpoint: a shared registry of
//! open (and recently closed) query sessions with their progress and
//! quality snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::journal::{push_f64, push_str};
use crate::registry::{Gauge, Registry};

/// One point of a session's anytime curve: after the `k`-th emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityPoint {
    /// 1-based emission index.
    pub k: u64,
    /// Utility of the `k`-th emitted plan.
    pub utility: f64,
    /// Cumulative emitted utility mass after `k` plans.
    pub mass: f64,
    /// Cumulative virtual cost spent after `k` plans (sound plans only).
    pub cost: f64,
}

/// A point-in-time copy of one session's quality state.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySnapshot {
    /// The anytime curve so far, one point per emission.
    pub points: Vec<QualityPoint>,
    /// Cumulative emitted utility mass.
    pub mass: f64,
    /// Cumulative utility mass of the exact-oracle prefix of equal length.
    pub oracle_mass: f64,
    /// `oracle_mass - mass`: how far the live ordering trails the exact
    /// Def. 2.1 oracle after the same number of emissions.
    pub regret: f64,
}

/// Live ordering-quality state for one session: the anytime curve plus
/// registered `qpo_session_utility_mass` / `qpo_session_regret` gauges.
#[derive(Debug, Clone, Default)]
pub struct QualityTracker {
    points: Vec<QualityPoint>,
    mass: f64,
    oracle_mass: f64,
    mass_gauge: Gauge,
    regret_gauge: Gauge,
}

impl QualityTracker {
    /// A tracker whose gauges are not registered anywhere.
    pub fn detached() -> Self {
        QualityTracker::default()
    }

    /// A tracker whose gauges live in `registry` under `labels`.
    pub fn registered(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        QualityTracker::registered_as(
            registry,
            labels,
            "qpo_session_utility_mass",
            "qpo_session_regret",
        )
    }

    /// A tracker with caller-chosen gauge names — the same curve/regret
    /// mechanics at a different granularity (sessions use this for the
    /// tuple-level stream: `qpo_session_tuple_mass` /
    /// `qpo_session_tuple_regret` against the offline exact sort).
    pub fn registered_as(
        registry: &Registry,
        labels: &[(&str, &str)],
        mass_metric: &'static str,
        regret_metric: &'static str,
    ) -> Self {
        QualityTracker {
            mass_gauge: registry.gauge(mass_metric, labels),
            regret_gauge: registry.gauge(regret_metric, labels),
            ..QualityTracker::default()
        }
    }

    /// Records one emission: the emitted plan's `utility`, the
    /// session-cumulative `cost` spent after it, and the utility the
    /// exact oracle would have emitted at the same position. Returns the
    /// updated regret.
    pub fn observe(&mut self, utility: f64, cost: f64, oracle_utility: f64) -> f64 {
        self.mass += utility;
        self.oracle_mass += oracle_utility;
        self.points.push(QualityPoint {
            k: self.points.len() as u64 + 1,
            utility,
            mass: self.mass,
            cost,
        });
        let regret = self.oracle_mass - self.mass;
        self.mass_gauge.set(self.mass);
        self.regret_gauge.set(regret);
        regret
    }

    /// Cumulative emitted utility mass.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// `oracle_mass - mass` (0 before any emission).
    pub fn regret(&self) -> f64 {
        self.oracle_mass - self.mass
    }

    /// Copy of the current state.
    pub fn snapshot(&self) -> QualitySnapshot {
        QualitySnapshot {
            points: self.points.clone(),
            mass: self.mass,
            oracle_mass: self.oracle_mass,
            regret: self.oracle_mass - self.mass,
        }
    }
}

/// One session's row on the [`SessionBoard`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEntry {
    /// Board-assigned session id (1-based, monotone per board).
    pub id: u64,
    /// Ordering-strategy label (`"idrips"`, `"pi"`, …).
    pub strategy: String,
    /// Size of the prepared plan space the session serves.
    pub plan_space: u64,
    /// Plans emitted so far (sound or not).
    pub plans_emitted: u64,
    /// Distinct answers accumulated so far.
    pub answers: u64,
    /// Virtual cost spent so far.
    pub spent: f64,
    /// Wall-clock milliseconds from open to first plan report.
    pub time_to_first_plan_ms: Option<f64>,
    /// Cumulative emitted utility mass (quality tracking enabled only).
    pub utility_mass: Option<f64>,
    /// Oracle regret (quality tracking enabled only).
    pub regret: Option<f64>,
    /// Ranked answer tuples delivered by the any-k stream (0 unless the
    /// session serves tuples).
    pub tuples_emitted: u64,
    /// Plans emitted when the any-k stream released its first tuple: why
    /// that tuple came when it did (`None` before it).
    pub plans_before_first_tuple: Option<u64>,
    /// Cumulative delivered tuple-score mass (tuple quality enabled only).
    pub tuple_mass: Option<f64>,
    /// Tuple-level regret against the offline exact sort of the full
    /// answer set (tuple quality enabled only).
    pub tuple_regret: Option<f64>,
    /// The live tuple-quality curve, one point per delivered tuple.
    pub tuple_curve: Vec<QualityPoint>,
    /// Execution-memo lookups served from cache for this session (source
    /// accesses and subplan prefixes; 0 unless a memo is attached).
    pub memo_hits: u64,
    /// Plans whose join was seeded from a memoized subplan prefix.
    pub subplans_reused: u64,
    /// Profile snapshot: the session's critical-path length so far — its
    /// run's serial virtual clock (0 while no source is accessed).
    pub critical_path: f64,
    /// Profile snapshot: the slowest plan so far (encoded bucket-index
    /// form), `None` while every plan's latency is 0.
    pub bounding_plan: Option<String>,
    /// Whether the session has been dropped.
    pub closed: bool,
}

#[derive(Debug, Default)]
struct BoardInner {
    next_id: u64,
    entries: BTreeMap<u64, SessionEntry>,
}

/// Retention cap for closed sessions: the board keeps at most this many
/// closed entries (oldest evicted first) so long-lived mediators don't
/// grow without bound.
pub const CLOSED_SESSIONS_RETAINED: usize = 64;

/// A shared directory of live (and recently closed) query sessions —
/// the data behind the introspection server's `/sessions` endpoint.
/// Cloning shares the board.
#[derive(Debug, Clone, Default)]
pub struct SessionBoard {
    inner: Arc<Mutex<BoardInner>>,
}

impl SessionBoard {
    /// An empty board.
    pub fn new() -> Self {
        SessionBoard::default()
    }

    /// Registers a session and returns its board id.
    pub fn open(&self, strategy: &str, plan_space: u64) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.next_id += 1;
        let id = inner.next_id;
        inner.entries.insert(
            id,
            SessionEntry {
                id,
                strategy: strategy.to_string(),
                plan_space,
                plans_emitted: 0,
                answers: 0,
                spent: 0.0,
                time_to_first_plan_ms: None,
                utility_mass: None,
                regret: None,
                tuples_emitted: 0,
                plans_before_first_tuple: None,
                tuple_mass: None,
                tuple_regret: None,
                tuple_curve: Vec::new(),
                memo_hits: 0,
                subplans_reused: 0,
                critical_path: 0.0,
                bounding_plan: None,
                closed: false,
            },
        );
        id
    }

    /// Applies `update` to the entry for `id` (no-op when evicted).
    pub fn update<F: FnOnce(&mut SessionEntry)>(&self, id: u64, update: F) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = inner.entries.get_mut(&id) {
            update(entry);
        }
    }

    /// Marks the entry closed and evicts the oldest closed entries past
    /// [`CLOSED_SESSIONS_RETAINED`].
    pub fn close(&self, id: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = inner.entries.get_mut(&id) {
            entry.closed = true;
        }
        let closed: Vec<u64> = inner
            .entries
            .values()
            .filter(|e| e.closed)
            .map(|e| e.id)
            .collect();
        if closed.len() > CLOSED_SESSIONS_RETAINED {
            for id in &closed[..closed.len() - CLOSED_SESSIONS_RETAINED] {
                inner.entries.remove(id);
            }
        }
    }

    /// Copies of all retained entries, in id order.
    pub fn entries(&self) -> Vec<SessionEntry> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.entries.values().cloned().collect()
    }

    /// Renders the retained entries as one JSON object:
    /// `{"sessions":[{...},...]}` (a pure function of board state).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sessions\":[");
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{}", e.id);
            out.push_str(",\"strategy\":");
            push_str(&mut out, &e.strategy);
            let _ = write!(
                out,
                ",\"plan_space\":{},\"plans_emitted\":{},\"answers\":{}",
                e.plan_space, e.plans_emitted, e.answers
            );
            out.push_str(",\"spent\":");
            push_f64(&mut out, e.spent);
            push_opt(&mut out, "time_to_first_plan_ms", e.time_to_first_plan_ms);
            push_opt(&mut out, "utility_mass", e.utility_mass);
            push_opt(&mut out, "regret", e.regret);
            let _ = write!(out, ",\"tuples_emitted\":{}", e.tuples_emitted);
            let before_first = e.plans_before_first_tuple.map(|p| p as f64);
            push_opt(&mut out, "plans_before_first_tuple", before_first);
            push_opt(&mut out, "tuple_mass", e.tuple_mass);
            push_opt(&mut out, "tuple_regret", e.tuple_regret);
            // The curve renders compactly as [k, utility, mass, cost]
            // rows — identical bytes from the live server and the offline
            // exporter, both funneling through this function.
            out.push_str(",\"tuple_curve\":[");
            for (i, p) in e.tuple_curve.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{}", p.k);
                for v in [p.utility, p.mass, p.cost] {
                    out.push(',');
                    push_f64(&mut out, v);
                }
                out.push(']');
            }
            out.push(']');
            let _ = write!(
                out,
                ",\"memo_hits\":{},\"subplans_reused\":{}",
                e.memo_hits, e.subplans_reused
            );
            out.push_str(",\"critical_path\":");
            push_f64(&mut out, e.critical_path);
            out.push_str(",\"bounding_plan\":");
            match &e.bounding_plan {
                Some(p) => push_str(&mut out, p),
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"closed\":{}}}", e.closed);
        }
        out.push_str("]}");
        out
    }
}

fn push_opt(out: &mut String, key: &str, v: Option<f64>) {
    out.push(',');
    push_str(out, key);
    out.push(':');
    match v {
        Some(x) => push_f64(out, x),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates_mass_and_regret_left_to_right() {
        let reg = Registry::new();
        let mut t = QualityTracker::registered(&reg, &[("strategy", "idrips")]);
        assert_eq!(t.regret(), 0.0);
        let r1 = t.observe(3.0, 1.0, 3.0);
        assert_eq!(r1, 0.0, "matching the oracle means zero regret");
        let r2 = t.observe(1.0, 2.0, 2.0);
        assert_eq!(r2, 1.0, "trailing the oracle by one utility unit");
        let snap = t.snapshot();
        assert_eq!(snap.points.len(), 2);
        assert_eq!(
            snap.points[1],
            QualityPoint {
                k: 2,
                utility: 1.0,
                mass: 4.0,
                cost: 2.0
            }
        );
        assert_eq!(snap.mass, 4.0);
        assert_eq!(snap.oracle_mass, 5.0);
        assert_eq!(snap.regret, 1.0);
        // The gauges mirror the tracker.
        let labels = [("strategy", "idrips")];
        assert_eq!(reg.gauge("qpo_session_utility_mass", &labels).get(), 4.0);
        assert_eq!(reg.gauge("qpo_session_regret", &labels).get(), 1.0);
    }

    #[test]
    fn board_tracks_open_update_close() {
        let board = SessionBoard::new();
        let a = board.open("pi", 9);
        let b = board.open("idrips", 16);
        assert_eq!((a, b), (1, 2));
        board.update(a, |e| {
            e.plans_emitted = 3;
            e.answers = 5;
            e.spent = 2.5;
            e.time_to_first_plan_ms = Some(0.25);
        });
        board.close(b);
        let entries = board.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].plans_emitted, 3);
        assert!(!entries[0].closed);
        assert!(entries[1].closed);
        let json = board.to_json();
        assert!(json.starts_with("{\"sessions\":["));
        assert!(json.contains("\"strategy\":\"pi\""));
        assert!(json.contains("\"time_to_first_plan_ms\":0.25"));
        assert!(json.contains("\"regret\":null"));
        assert!(json.contains("\"tuples_emitted\":0"));
        assert!(json.contains("\"tuple_curve\":[]"));
        assert!(json.contains("\"memo_hits\":0"));
        assert!(json.contains("\"subplans_reused\":0"));
        assert!(json.contains("\"closed\":true"));
    }

    #[test]
    fn board_renders_the_tuple_quality_curve() {
        let board = SessionBoard::new();
        let id = board.open("idrips", 4);
        board.update(id, |e| {
            e.tuples_emitted = 2;
            e.tuple_mass = Some(3.5);
            e.tuple_regret = Some(0.0);
            e.tuple_curve = vec![
                QualityPoint {
                    k: 1,
                    utility: 2.0,
                    mass: 2.0,
                    cost: 0.5,
                },
                QualityPoint {
                    k: 2,
                    utility: 1.5,
                    mass: 3.5,
                    cost: 0.5,
                },
            ];
        });
        let json = board.to_json();
        assert!(json.contains("\"tuples_emitted\":2"));
        assert!(json.contains("\"tuple_mass\":3.5"));
        assert!(json.contains("\"tuple_curve\":[[1,2,2,0.5],[2,1.5,3.5,0.5]]"));
    }

    #[test]
    fn registered_as_names_the_gauges() {
        let reg = Registry::new();
        let labels = [("strategy", "pi")];
        let mut t = QualityTracker::registered_as(
            &reg,
            &labels,
            "qpo_session_tuple_mass",
            "qpo_session_tuple_regret",
        );
        t.observe(2.0, 0.0, 2.5);
        assert_eq!(reg.gauge("qpo_session_tuple_mass", &labels).get(), 2.0);
        assert_eq!(reg.gauge("qpo_session_tuple_regret", &labels).get(), 0.5);
    }

    #[test]
    fn board_evicts_oldest_closed_entries_past_the_cap() {
        let board = SessionBoard::new();
        for _ in 0..(CLOSED_SESSIONS_RETAINED as u64 + 10) {
            let id = board.open("pi", 1);
            board.close(id);
        }
        let open = board.open("pi", 1);
        let entries = board.entries();
        assert_eq!(entries.len(), CLOSED_SESSIONS_RETAINED + 1);
        assert_eq!(entries.iter().filter(|e| !e.closed).count(), 1);
        assert!(entries.iter().any(|e| e.id == open));
        // The oldest closed sessions are the ones evicted.
        assert!(entries.iter().all(|e| e.id > 10 || !e.closed));
    }
}
