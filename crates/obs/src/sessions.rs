//! [`SessionBoard`] is the live-session directory behind the
//! introspection server's `/sessions` endpoint: a shared registry of
//! open (and recently closed) query sessions with their progress.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// One session's row on the [`SessionBoard`].
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Ranked answer tuples delivered by the any-k stream (0 unless the
    /// session serves tuples).
    pub tuples_emitted: u64,
    /// Plans emitted when the any-k stream released its first tuple: why
    /// that tuple came when it did (`None` before it).
    pub plans_before_first_tuple: Option<u64>,
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
                ..SessionEntry::default()
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
        let sessions = self.entries().into_iter().map(|e| {
            Json::object([
                ("id", e.id.into()),
                ("strategy", e.strategy.into()),
                ("plan_space", e.plan_space.into()),
                ("plans_emitted", e.plans_emitted.into()),
                ("answers", e.answers.into()),
                ("spent", e.spent.into()),
                ("time_to_first_plan_ms", e.time_to_first_plan_ms.into()),
                ("tuples_emitted", e.tuples_emitted.into()),
                (
                    "plans_before_first_tuple",
                    e.plans_before_first_tuple.into(),
                ),
                ("memo_hits", e.memo_hits.into()),
                ("subplans_reused", e.subplans_reused.into()),
                ("critical_path", e.critical_path.into()),
                ("bounding_plan", e.bounding_plan.into()),
                ("closed", e.closed.into()),
            ])
        });
        Json::object([("sessions", sessions.collect())]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(json.contains("\"bounding_plan\":null"));
        assert!(json.contains("\"tuples_emitted\":0"));
        assert!(json.contains("\"memo_hits\":0"));
        assert!(json.contains("\"subplans_reused\":0"));
        assert!(json.contains("\"closed\":true"));
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
