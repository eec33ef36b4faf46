//! The live backend directory behind the introspection server's
//! `/backends` endpoint.
//!
//! The mediator publishes one entry per registered source backend —
//! its label, its kind (`sim` / `store` / `tcp`), a closure that samples
//! the backend's current wire/data epoch on demand, and — for backends
//! that hold network connections — a second closure sampling their
//! opened/reused connection tallies. The board lives in `qpo-obs` (which
//! cannot depend on the runtime's backend traits) precisely because it
//! stores only these projections; the closures keep the endpoint live
//! without the board ever holding a backend type.
//!
//! [`backends_text`] is the offline renderer; the `/backends` endpoint
//! serves its bytes verbatim, so a test can diff the two.

use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The epoch sampler a backend publishes: called at render time, so the
/// listing always shows the current epoch.
pub type EpochFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The connection sampler a networked backend publishes: `(opened,
/// reused)` at render time.
pub type ConnectionsFn = Arc<dyn Fn() -> (u64, u64) + Send + Sync>;

struct BackendEntry {
    label: String,
    kind: String,
    epoch: EpochFn,
    connections: Option<ConnectionsFn>,
}

/// The live directory of published backends. Cloning shares the
/// underlying storage, like the other boards in this crate.
#[derive(Clone, Default)]
pub struct BackendBoard {
    inner: Arc<Mutex<Vec<BackendEntry>>>,
}

impl fmt::Debug for BackendBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendBoard")
            .field("backends", &self.snapshot().len())
            .finish()
    }
}

impl BackendBoard {
    /// An empty board.
    pub fn new() -> Self {
        BackendBoard::default()
    }

    /// Publishes (or republishes) a backend under its label. The epoch
    /// and connection closures (`None` for a backend without
    /// connections) are sampled at every render, never stored as values.
    pub fn publish(
        &self,
        label: &str,
        kind: &str,
        epoch: EpochFn,
        connections: Option<ConnectionsFn>,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let entry = BackendEntry {
            label: label.to_string(),
            kind: kind.to_string(),
            epoch,
            connections,
        };
        match inner.iter_mut().find(|e| e.label == label) {
            Some(slot) => *slot = entry,
            None => inner.push(entry),
        }
    }

    /// Removes every published entry (a mediator swapping its whole
    /// registry republishes from scratch).
    pub fn clear(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// A point-in-time snapshot: `(label, kind, epoch)` per backend in
    /// publication order, with each epoch sampled now.
    pub fn snapshot(&self) -> Vec<(String, String, u64)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .iter()
            .map(|e| (e.label.clone(), e.kind.clone(), (e.epoch)()))
            .collect()
    }
}

/// The `/backends` listing: one `label kind=… epoch=…` line per
/// published backend, in publication order, with
/// ` connections_opened=… connections_reused=…` appended for backends
/// that hold connections. The endpoint serves exactly these bytes.
pub fn backends_text(board: &BackendBoard) -> String {
    let entries = board.inner.lock().unwrap_or_else(|e| e.into_inner());
    if entries.is_empty() {
        return "no backends published\n".to_string();
    }
    let mut out = String::new();
    for e in entries.iter() {
        let _ = write!(out, "{} kind={} epoch={}", e.label, e.kind, (e.epoch)());
        if let Some(sample) = &e.connections {
            let (opened, reused) = sample();
            let _ = write!(
                out,
                " connections_opened={opened} connections_reused={reused}"
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn publishes_render_live_epochs_in_order() {
        let board = BackendBoard::new();
        assert_eq!(backends_text(&board), "no backends published\n");
        let epoch = Arc::new(AtomicU64::new(3));
        let sampled = Arc::clone(&epoch);
        board.publish(
            "imdb",
            "tcp",
            Arc::new(move || sampled.load(Ordering::SeqCst)),
            None,
        );
        board.publish("dblp", "store", Arc::new(|| 0), None);
        assert_eq!(
            backends_text(&board),
            "imdb kind=tcp epoch=3\ndblp kind=store epoch=0\n"
        );
        // The closure is sampled at render time, so epoch bumps show up.
        epoch.store(4, Ordering::SeqCst);
        assert!(backends_text(&board).starts_with("imdb kind=tcp epoch=4\n"));
        // Republishing under the same label replaces in place.
        board.publish("imdb", "sim", Arc::new(|| 9), None);
        assert_eq!(
            backends_text(&board),
            "imdb kind=sim epoch=9\ndblp kind=store epoch=0\n"
        );
        // A networked backend's connection tallies render live, too.
        let reused = Arc::new(AtomicU64::new(0));
        let sampled = Arc::clone(&reused);
        let connections: ConnectionsFn = Arc::new(move || (1, sampled.load(Ordering::SeqCst)));
        board.publish("dblp", "tcp", Arc::new(|| 2), Some(connections));
        reused.store(5, Ordering::SeqCst);
        assert!(backends_text(&board)
            .ends_with("dblp kind=tcp epoch=2 connections_opened=1 connections_reused=5\n"));
        board.clear();
        assert_eq!(backends_text(&board), "no backends published\n");
    }
}
