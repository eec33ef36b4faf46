//! [`StoreBackend`]: an in-process persistent indexed source store.
//!
//! Sources live in one append-only log, `store.log` in the store's
//! directory. Each record is one wire-framed
//! [`crate::wire::encode_relation`] payload — a full snapshot of one
//! relation. On open the log is replayed and the *latest* record per
//! relation wins, rebuilding the in-memory index; a torn or garbled tail
//! (crash mid-append) is detected and the log is truncated back to the
//! last whole record, so recovery is last-good-record *and* records
//! appended after the reopen land at a frame-aligned offset, keeping them
//! reachable on every later replay. A garbled frame mid-log cuts the log
//! there: nothing after it can be trusted to align.
//! [`StoreBackend::flush`] fsyncs the log, making everything before it
//! durable.
//!
//! Accesses are served from the in-memory index and charged the *measured*
//! wall time of the lookup, mapped onto the virtual-time axis via
//! `latency_unit` (units per wall second, default `1000.0`, i.e. one unit
//! per millisecond). A relation the store does not hold is a permanent
//! [`BackendError`] — the mediator's catalog said the source exists, the
//! world disagrees, and retrying will not change that.
//!
//! The [`SourceBackend::epoch`] is the total number of records ever
//! appended (persisted implicitly as "records replayed on open" plus
//! appends since), so any write — including one made by a previous
//! process incarnation — moves the epoch and invalidates memoized
//! outcomes that predate it.

use crate::backend::{AccessContext, AccessReply, BackendError, SourceBackend};
use crate::source::{Access, AccessOutcome, SourceService};
use crate::wire;
use qpo_datalog::Tuple;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind::{InvalidData, UnexpectedEof};
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The log's file name inside the store's directory.
const LOG_FILE: &str = "store.log";

struct StoreInner {
    index: BTreeMap<String, Arc<Vec<Tuple>>>,
    log: BufWriter<File>,
}

/// Persistent indexed source store; see the module docs.
pub struct StoreBackend {
    dir: PathBuf,
    latency_unit: f64,
    inner: Mutex<StoreInner>,
    /// Total records ever appended (replayed + live). Monotone across
    /// reopen, so it doubles as the backend epoch.
    records: AtomicU64,
}

impl std::fmt::Debug for StoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBackend")
            .field("dir", &self.dir)
            .field("records", &self.records.load(Ordering::Relaxed))
            .finish()
    }
}

/// Replays the log into the index, stopping (without error) at a torn or
/// garbled tail. Returns the number of whole records applied and the byte
/// offset just past the last whole record — the offset the log must be
/// truncated to before it can take further appends.
fn replay(
    log: &File,
    index: &mut BTreeMap<String, Arc<Vec<Tuple>>>,
) -> std::io::Result<(u64, u64)> {
    let mut reader = BufReader::new(log);
    let mut applied = 0u64;
    let mut good_bytes = 0u64;
    loop {
        let payload = match wire::read_frame(&mut reader) {
            Ok(p) => p,
            // Torn tail (crash mid-append), clean end, or a length prefix
            // past `MAX_FRAME_BYTES` (garbage, like a garbled payload): stop.
            Err(e) if matches!(e.kind(), UnexpectedEof | InvalidData) => break,
            Err(e) => return Err(e),
        };
        let (name, rows) = match wire::decode_relation(&payload) {
            Ok(rec) => rec,
            // A framed-but-garbled record: treat like a torn tail. Every
            // record before it already applied; nothing after it can be
            // trusted to align.
            Err(_) => break,
        };
        index.insert(name, Arc::new(rows));
        applied += 1;
        good_bytes += 4 + payload.len() as u64;
    }
    Ok((applied, good_bytes))
}

impl StoreBackend {
    /// Opens (or creates) a store at `dir`, replaying its log to rebuild
    /// the index.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let log = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(LOG_FILE))?;
        let mut index = BTreeMap::new();
        let (replayed, good_bytes) = replay(&log, &mut index)?;
        // A torn or garbled tail (crash mid-append) leaves garbage bytes
        // past the last whole record. Appending after them would make
        // every later record unreachable on the next replay (the stale
        // length prefix misaligns the frame stream), so cut the log back
        // to the last whole record before it takes appends again.
        if log.metadata()?.len() > good_bytes {
            log.set_len(good_bytes)?;
            log.sync_all()?;
        }
        Ok(StoreBackend {
            dir,
            latency_unit: 1000.0,
            inner: Mutex::new(StoreInner {
                index,
                log: BufWriter::new(log),
            }),
            records: AtomicU64::new(replayed),
        })
    }

    /// Sets the virtual-time units charged per wall second (default
    /// `1000.0`: one unit per millisecond).
    pub fn with_latency_unit(mut self, units_per_second: f64) -> Self {
        self.latency_unit = units_per_second.max(0.0);
        self
    }

    /// Appends a full snapshot of `name` and updates the index. The write
    /// is buffered; call [`StoreBackend::flush`] to make it durable.
    pub fn put_relation(&self, name: &str, rows: &[Tuple]) -> std::io::Result<()> {
        let payload = wire::encode_relation(name, rows)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut inner = self.lock();
        wire::write_frame(&mut inner.log, &payload)?;
        inner
            .index
            .insert(name.to_string(), Arc::new(rows.to_vec()));
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes and fsyncs the log: everything appended so far
    /// survives a crash.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        inner.log.flush()?;
        inner.log.get_ref().sync_all()
    }

    /// The current tuples of `name`, if the store holds it.
    pub fn relation(&self, name: &str) -> Option<Arc<Vec<Tuple>>> {
        self.lock().index.get(name).cloned()
    }

    /// Number of relations held.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the store holds no relations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever appended (equals [`SourceBackend::epoch`]).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        // Poison recovery: a panicking reader leaves the index intact.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl SourceBackend for StoreBackend {
    fn kind(&self) -> &'static str {
        "store"
    }

    fn epoch(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    fn access(
        &self,
        svc: &SourceService,
        _ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        let start = Instant::now();
        let rows = self.relation(svc.name.as_ref());
        let latency = start.elapsed().as_secs_f64() * self.latency_unit;
        match rows {
            Some(tuples) => Ok(AccessReply {
                access: Access {
                    outcome: AccessOutcome::Success,
                    latency,
                },
                tuples: Some(tuples),
                remote: None,
            }),
            None => Err(BackendError::permanent(format!(
                "source `{}` not in store {}",
                svc.name,
                self.dir.display()
            ))
            .with_latency(latency)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendErrorClass;
    use crate::memo::SCAN_PATTERN;
    use crate::policy::FaultConfig;
    use crate::source::SourceGrid;
    use qpo_catalog::{Extent, ProblemInstance, SourceStats};
    use qpo_datalog::Constant;
    use std::sync::atomic::AtomicUsize;

    /// A unique scratch directory per test invocation; no external
    /// tempdir crate in the offline build.
    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("qpo-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows(items: &[i64]) -> Vec<Tuple> {
        items.iter().map(|&i| vec![Constant::Int(i)]).collect()
    }

    #[test]
    fn put_then_get_round_trips() {
        let dir = scratch("roundtrip");
        let store = StoreBackend::open(&dir).unwrap();
        assert!(store.is_empty());
        store.put_relation("v1", &rows(&[1, 2, 3])).unwrap();
        store.put_relation("v2", &rows(&[4])).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.relation("v1").unwrap().as_ref(), &rows(&[1, 2, 3]));
        assert_eq!(store.relation("v2").unwrap().as_ref(), &rows(&[4]));
        assert!(store.relation("v9").is_none());
        assert_eq!(store.records(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn data_survives_close_and_reopen() {
        let dir = scratch("reopen");
        {
            let store = StoreBackend::open(&dir).unwrap();
            store.put_relation("v1", &rows(&[1, 2])).unwrap();
            store.put_relation("v1", &rows(&[1, 2, 9])).unwrap(); // later record wins
            store.put_relation("w1", &rows(&[7])).unwrap();
            store.flush().unwrap();
        }
        let store = StoreBackend::open(&dir).unwrap();
        assert_eq!(store.relation("v1").unwrap().as_ref(), &rows(&[1, 2, 9]));
        assert_eq!(store.relation("w1").unwrap().as_ref(), &rows(&[7]));
        assert_eq!(store.records(), 3, "epoch is monotone across reopen");
        // Appends after reopen keep moving the epoch forward.
        store.put_relation("w1", &rows(&[8])).unwrap();
        assert_eq!(store.epoch(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_frame_recovers_to_last_good_record() {
        let dir = scratch("torn");
        {
            let store = StoreBackend::open(&dir).unwrap();
            store.put_relation("v1", &rows(&[1])).unwrap();
            store.put_relation("v2", &rows(&[2])).unwrap();
            store.flush().unwrap();
        }
        // Simulate a crash mid-append: a length prefix with half a payload.
        let path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&100u32.to_be_bytes()).unwrap();
        file.write_all(&[1, 2, 3]).unwrap();
        drop(file);
        let store = StoreBackend::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "whole records before the tear survive");
        assert_eq!(store.relation("v2").unwrap().as_ref(), &rows(&[2]));
        // The tear was truncated away, so records appended after the
        // crash-recovery reopen are frame-aligned and survive the *next*
        // replay — acknowledged writes never become unreachable.
        store.put_relation("v3", &rows(&[9])).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = StoreBackend::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.relation("v3").unwrap().as_ref(),
            &rows(&[9]),
            "post-recovery appends replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every prefix of the log is what a crash mid-append can leave:
    /// opening it must recover exactly the whole records before the cut,
    /// and a record appended after that reopen must survive the next one.
    #[test]
    fn a_log_cut_at_any_byte_recovers_its_whole_records() {
        let records = [
            ("v1", rows(&[1, 2])),
            ("v2", rows(&[3])),
            ("v1", rows(&[9])),
        ];
        let source = scratch("cut-source");
        {
            let store = StoreBackend::open(&source).unwrap();
            for (name, rows) in &records {
                store.put_relation(name, rows).unwrap();
            }
            store.flush().unwrap();
        }
        let bytes = std::fs::read(source.join(LOG_FILE)).unwrap();
        // Byte offsets where each record ends.
        let mut ends = Vec::new();
        for (name, rows) in &records {
            let frame = 4 + wire::encode_relation(name, rows).unwrap().len();
            ends.push(ends.last().copied().unwrap_or(0) + frame);
        }
        assert_eq!(ends.last(), Some(&bytes.len()));
        let dir = scratch("cut");
        for cut in 0..=bytes.len() {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(LOG_FILE), &bytes[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let mut expected = BTreeMap::new();
            for (name, rows) in &records[..whole] {
                expected.insert(name.to_string(), rows.clone());
            }
            let store = StoreBackend::open(&dir).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(store.records(), whole as u64, "cut {cut}");
            let held = |store: &StoreBackend| {
                let index = &store.lock().index;
                let index = index
                    .iter()
                    .map(|(name, rows)| (name.clone(), rows.to_vec()));
                index.collect::<BTreeMap<_, _>>()
            };
            assert_eq!(held(&store), expected, "cut {cut}");
            store.put_relation("after", &rows(&[7])).unwrap();
            store.flush().unwrap();
            drop(store);
            expected.insert("after".to_string(), rows(&[7]));
            assert_eq!(
                held(&StoreBackend::open(&dir).unwrap()),
                expected,
                "cut {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&source);
    }

    #[test]
    fn an_oversized_length_prefix_is_a_garbled_tail() {
        let dir = scratch("oversized");
        {
            let store = StoreBackend::open(&dir).unwrap();
            store.put_relation("v1", &rows(&[1])).unwrap();
            store.flush().unwrap();
        }
        let path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        let len = wire::MAX_FRAME_BYTES as u32 + 1;
        file.write_all(&len.to_be_bytes()).unwrap();
        file.write_all(&[0xAB; 16]).unwrap();
        drop(file);
        let store = StoreBackend::open(&dir).expect("a garbled tail is cut, not fatal");
        assert_eq!((store.len(), store.records()), (1, 1));
        store.put_relation("v2", &rows(&[2])).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = StoreBackend::open(&dir).unwrap();
        assert_eq!(store.relation("v2").unwrap().as_ref(), &rows(&[2]));
        assert_eq!(store.records(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn access_serves_tuples_and_classifies_misses_as_permanent() {
        let dir = scratch("access");
        let store = StoreBackend::open(&dir).unwrap();
        store.put_relation("v1", &rows(&[1, 2])).unwrap();
        let inst = ProblemInstance::new(
            0.0,
            vec![10],
            vec![vec![
                SourceStats::new()
                    .with_name("v1")
                    .with_extent(Extent::new(0, 2)),
                SourceStats::new()
                    .with_name("vX")
                    .with_extent(Extent::new(0, 2)),
            ]],
        )
        .unwrap();
        let grid = SourceGrid::from_instance(&inst);
        let faults = FaultConfig::disabled();
        let ctx = AccessContext {
            pattern: SCAN_PATTERN,
            run: 0,
            plan_seq: 0,
            attempt: 0,
            faults: &faults,
        };
        let reply = store.access(grid.service(0, 0), &ctx).unwrap();
        assert_eq!(reply.access.outcome, AccessOutcome::Success);
        assert!(reply.access.latency >= 0.0);
        assert_eq!(reply.tuples.unwrap().as_ref(), &rows(&[1, 2]));
        let err = store.access(grid.service(0, 1), &ctx).unwrap_err();
        assert_eq!(err.class, BackendErrorClass::Permanent);
        assert!(err.message.contains("vX"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame that is whole but does not decode cuts the log there, even
    /// mid-log: the records before it survive, the ones after it are
    /// dropped with it, and appends after the reopen replay.
    #[test]
    fn a_garbled_frame_mid_log_cuts_the_log_there() {
        let dir = scratch("garbled");
        {
            let store = StoreBackend::open(&dir).unwrap();
            store.put_relation("v1", &rows(&[1])).unwrap();
            store.put_relation("v2", &rows(&[2])).unwrap();
            store.put_relation("v3", &rows(&[3])).unwrap();
            store.flush().unwrap();
        }
        let path = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let first = 4 + wire::encode_relation("v1", &rows(&[1])).unwrap().len();
        // The second frame's `u16` name length, past its payload: the
        // length prefix still frames it, `decode_relation` rejects it.
        bytes[first + 4..first + 6].copy_from_slice(&u16::MAX.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let store = StoreBackend::open(&dir).unwrap();
        assert_eq!(store.records(), 1);
        assert_eq!(store.relation("v1").unwrap().as_ref(), &rows(&[1]));
        assert!(store.relation("v2").is_none() && store.relation("v3").is_none());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first as u64);
        store.put_relation("v4", &rows(&[4])).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = StoreBackend::open(&dir).unwrap();
        assert_eq!(store.records(), 2);
        assert_eq!(store.relation("v4").unwrap().as_ref(), &rows(&[4]));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one log file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
