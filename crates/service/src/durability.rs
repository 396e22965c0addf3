//! Durable advisor state: a write-ahead log plus a checkpoint blob.
//!
//! With a data directory configured (`snakes serve --data-dir`), the
//! engine logs every committed `drift` — and every idempotent response —
//! to a [`Wal`] *before* acknowledging it, and
//! periodically folds the log into a checkpoint written through the
//! storage crate's slotted-page blob format (so the buffer pool and
//! page layer are load-bearing for the daemon's own durability, not just
//! for measured tables). Recovery is checkpoint + WAL replay:
//!
//! 1. read the checkpoint blob, if any (checksummed; written to a temp
//!    file and atomically renamed, so it is never observed torn);
//! 2. open the WAL, which self-truncates to its last acknowledged,
//!    CRC-valid prefix;
//! 3. re-apply every logged entry with `lsn >= checkpoint.next_lsn`.
//!
//! Entries hold *after-state* snapshots (the full probability vector at
//! its post-delta version), so replay is idempotent and bit-exact: the
//! recovered distribution is `Workload::new` over the exact floats that
//! were acknowledged, never a re-derivation.
//!
//! Media is abstracted over [`Media`]: a real directory for production,
//! or a [`CrashStore`] so the crash
//! torture suite can kill the daemon at every single write boundary and
//! assert recovery.

use crate::protocol::{MeasureSpec, Response, SchemaSpec, StrategySpec};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use snakes_storage::crash::CrashStore;
use snakes_storage::page::{read_blob, write_blob, PageFile};
use snakes_storage::pool::BufferPool;
use snakes_storage::wal::{Backend, Wal};
use std::io::{self, Cursor, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "advisor.wal";
/// Checkpoint file name inside the data directory.
pub const CHECKPOINT_FILE: &str = "advisor.ckpt";
/// Scratch name the checkpoint is written under before the atomic rename.
const CHECKPOINT_TMP: &str = "advisor.ckpt.tmp";
/// Page size of the checkpoint blob.
const CHECKPOINT_PAGE_SIZE: u64 = 4096;
/// Frames in the throwaway pool used to read/write checkpoint blobs.
const CHECKPOINT_POOL_PAGES: usize = 8;
/// WAL appends between checkpoints.
pub(crate) const CHECKPOINT_EVERY: u64 = 64;

/// Where durable state lives.
pub enum Media {
    /// A real directory on disk (`--data-dir`).
    Dir(PathBuf),
    /// A deterministic in-memory store with seeded crash injection — the
    /// torture suite's disk.
    Store(Arc<CrashStore>),
}

impl std::fmt::Debug for Media {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Media::Dir(p) => f.debug_tuple("Dir").field(p).finish(),
            Media::Store(_) => f.debug_tuple("Store").finish_non_exhaustive(),
        }
    }
}

impl Media {
    /// Opens (creating if absent) the WAL backend.
    fn open_wal(&self) -> io::Result<Box<dyn Backend>> {
        match self {
            Media::Dir(dir) => {
                std::fs::create_dir_all(dir)?;
                let file = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(dir.join(WAL_FILE))?;
                Ok(Box::new(file))
            }
            Media::Store(store) => Ok(Box::new(store.open(WAL_FILE))),
        }
    }

    /// The raw checkpoint bytes, `None` when no checkpoint exists yet.
    fn read_checkpoint_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        match self {
            Media::Dir(dir) => match std::fs::read(dir.join(CHECKPOINT_FILE)) {
                Ok(bytes) => Ok(Some(bytes)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(e),
            },
            Media::Store(store) => Ok(store.read(CHECKPOINT_FILE)),
        }
    }

    /// Durably replaces the checkpoint: write the blob to a scratch file,
    /// sync it, then atomically rename over the live name. A crash at any
    /// point leaves either the old checkpoint or the new one, whole.
    fn write_checkpoint_bytes(&self, blob: &[u8]) -> io::Result<()> {
        match self {
            Media::Dir(dir) => {
                std::fs::create_dir_all(dir)?;
                let tmp = dir.join(CHECKPOINT_TMP);
                let mut file = std::fs::File::create(&tmp)?;
                file.write_all(blob)?;
                file.sync_all()?;
                drop(file);
                std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
            }
            Media::Store(store) => {
                // Drop any stale scratch from a crashed prior attempt so
                // the open starts from an empty file.
                store.remove(CHECKPOINT_TMP);
                let mut file = store.open(CHECKPOINT_TMP);
                file.write_all(blob)?;
                file.flush()?;
                store.rename(CHECKPOINT_TMP, CHECKPOINT_FILE)
            }
        }
    }
}

/// The after-state of one drift session: everything needed to rebuild it
/// bit-exactly. Doubles as the WAL's drift record (each committed drift
/// logs the snapshot it produced) and the checkpoint's session entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SessionSnapshot {
    /// Session name.
    pub name: String,
    /// The schema the session was created with.
    pub schema: SchemaSpec,
    /// Workload version after the logged request.
    pub version: u64,
    /// Exact class probabilities at that version.
    pub probs: Vec<f64>,
}

/// One stored idempotent response, replayable after a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct IdemSnapshot {
    /// The idempotency key.
    pub key: String,
    /// The authoritative response stored under it.
    pub response: Response,
}

/// The durable after-state of one online-reclustering job. The service's
/// migrated tables are deterministic functions of their spec (schema +
/// geometry + fill), so the snapshot needs no page bytes: recovery
/// rebuilds the table and redoes chunk copies up to the logged fence —
/// idempotent, since every redo writes the identical bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ReclusterSnapshot {
    /// Job name (the request's `session`).
    pub job: String,
    /// The grid being migrated.
    pub schema: SchemaSpec,
    /// Source linearization (what was on disk when the job started).
    pub from: StrategySpec,
    /// Target linearization.
    pub to: StrategySpec,
    /// Table geometry (records per cell, page/record size).
    pub measure: MeasureSpec,
    /// Pages copied per migration step.
    pub chunk_pages: u64,
    /// Cells migrated so far (the durable fence).
    pub fence: u64,
    /// Job state: `running`, `done`, or `aborted`.
    pub state: String,
    /// Bounded steps applied so far.
    pub chunks_applied: u64,
    /// Records copied so far.
    pub records_moved: u64,
    /// Differential probes run so far.
    pub probes: u64,
}

/// One WAL entry. A committed drift carrying an idempotency key logs both
/// records in a single entry, so the session mutation and its replayable
/// acknowledgement are durable atomically. (A plain struct of options —
/// not an enum — keeps the wire encoding trivial.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct LogEntry {
    /// Session after-state, for `drift` commits.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub drift: Option<SessionSnapshot>,
    /// Idempotent response to store.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub idempotency: Option<IdemSnapshot>,
    /// Recluster-job after-state (logged once per applied chunk).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recluster: Option<ReclusterSnapshot>,
}

/// The checkpoint document: a full state snapshot plus the WAL horizon it
/// covers. Entries with `lsn < next_lsn` are already folded in.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct Checkpoint {
    /// First LSN *not* covered by this checkpoint.
    pub next_lsn: u64,
    /// Every live session (sorted by name, for deterministic bytes).
    pub sessions: Vec<SessionSnapshot>,
    /// Every stored idempotent response (sorted by key).
    pub idempotency: Vec<IdemSnapshot>,
    /// Every recluster job (sorted by job name). Absent in pre-v2
    /// checkpoints, which decode with no jobs.
    #[serde(default)]
    pub reclusters: Vec<ReclusterSnapshot>,
}

/// State reconstructed from checkpoint + WAL replay.
#[derive(Debug, Default)]
pub(crate) struct Recovered {
    /// Sessions to rebuild.
    pub sessions: Vec<SessionSnapshot>,
    /// Idempotency slots to refill.
    pub idempotency: Vec<IdemSnapshot>,
    /// Recluster jobs to rebuild (running ones resume at their fence).
    pub reclusters: Vec<ReclusterSnapshot>,
    /// Whether any prior state (checkpoint or log entries) was found.
    pub recovered: bool,
}

fn invalid<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> io::Error + '_ {
    move |e| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {e}"))
}

/// Serializes a checkpoint through the slotted-page blob format.
fn encode_checkpoint(ckpt: &Checkpoint) -> io::Result<Vec<u8>> {
    let json = serde_json::to_string(ckpt).map_err(invalid("checkpoint encode"))?;
    let file = PageFile::new(Cursor::new(Vec::new()), CHECKPOINT_PAGE_SIZE)?;
    let mut pool = BufferPool::new(file, CHECKPOINT_POOL_PAGES);
    write_blob(&mut pool, json.as_bytes())?;
    Ok(pool.into_backend()?.into_inner())
}

/// Parses checkpoint bytes written by [`encode_checkpoint`], verifying
/// the blob checksum.
fn decode_checkpoint(bytes: Vec<u8>) -> io::Result<Checkpoint> {
    let file = PageFile::new(Cursor::new(bytes), CHECKPOINT_PAGE_SIZE)?;
    let mut pool = BufferPool::new(file, CHECKPOINT_POOL_PAGES);
    let payload = read_blob(&mut pool)?;
    let json = std::str::from_utf8(&payload).map_err(invalid("checkpoint utf8"))?;
    serde_json::from_str(json).map_err(invalid("checkpoint decode"))
}

/// The engine's durable substrate: the media, the open WAL, and the
/// counters surfaced by `stats`.
pub(crate) struct Durability {
    media: Media,
    /// The open log. Lock order: a drift holds its session lock, then
    /// takes this; the checkpointer takes this first, then *try*-locks
    /// sessions (aborting the round on contention), so the two never
    /// deadlock.
    pub(crate) wal: Mutex<Wal<Box<dyn Backend>>>,
    pub(crate) appends_since_checkpoint: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    /// 1 when this open found prior state to recover, else 0.
    pub(crate) recoveries: u64,
    /// Sessions rebuilt by that recovery.
    pub(crate) recovered_sessions: u64,
    /// When set (group commit), [`Durability::append`] skips the per-entry
    /// fsync and [`Durability::flush`] syncs the whole batch at once. The
    /// sharded core flushes once per event-loop tick before releasing any
    /// of the tick's responses, so "durable before acknowledged" holds
    /// under either mode.
    deferred_sync: AtomicBool,
    /// Appends since the last sync; tells `flush` whether an fsync is due.
    dirty: AtomicBool,
}

impl Durability {
    /// Opens the media and recovers: checkpoint, then WAL replay of every
    /// entry past the checkpoint horizon.
    ///
    /// # Errors
    ///
    /// Propagates media I/O errors; `InvalidData` on a corrupt checkpoint
    /// or an undecodable (CRC-valid but malformed) log entry — durable
    /// state is fail-stop, never silently partial.
    pub fn open(media: Media) -> io::Result<(Self, Recovered)> {
        let ckpt = match media.read_checkpoint_bytes()? {
            Some(bytes) => Some(decode_checkpoint(bytes)?),
            None => None,
        };
        let (wal, entries) = Wal::open(media.open_wal()?)?;
        let had_checkpoint = ckpt.is_some();
        let ckpt = ckpt.unwrap_or_default();
        let mut out = Recovered {
            sessions: ckpt.sessions,
            idempotency: ckpt.idempotency,
            reclusters: ckpt.reclusters,
            recovered: had_checkpoint || !entries.is_empty(),
        };
        for (lsn, payload) in &entries {
            if *lsn < ckpt.next_lsn {
                continue; // already folded into the checkpoint
            }
            let json = std::str::from_utf8(payload).map_err(invalid("log utf8"))?;
            let entry: LogEntry = serde_json::from_str(json).map_err(invalid("log decode"))?;
            if let Some(snap) = entry.drift {
                match out.sessions.iter_mut().find(|s| s.name == snap.name) {
                    Some(at) => *at = snap,
                    None => out.sessions.push(snap),
                }
            }
            if let Some(idem) = entry.idempotency {
                match out.idempotency.iter_mut().find(|i| i.key == idem.key) {
                    Some(at) => *at = idem,
                    None => out.idempotency.push(idem),
                }
            }
            if let Some(job) = entry.recluster {
                match out.reclusters.iter_mut().find(|j| j.job == job.job) {
                    Some(at) => *at = job,
                    None => out.reclusters.push(job),
                }
            }
        }
        let durability = Durability {
            media,
            wal: Mutex::new(wal),
            appends_since_checkpoint: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            recoveries: u64::from(out.recovered),
            recovered_sessions: out.sessions.len() as u64,
            deferred_sync: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
        };
        Ok((durability, out))
    }

    /// Switches between per-append fsync (default) and group commit.
    pub fn set_deferred_sync(&self, enabled: bool) {
        self.deferred_sync.store(enabled, Ordering::Relaxed);
    }

    /// Appends one entry. In the default mode it is synced immediately —
    /// once this returns `Ok`, the entry survives any crash. Under group
    /// commit ([`Durability::set_deferred_sync`]) the entry is staged in
    /// the log and becomes crash-durable at the next [`Durability::flush`];
    /// the caller must not acknowledge it before then.
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O errors (after which the WAL is poisoned and
    /// every subsequent mutation fails — fail-stop).
    pub fn append(&self, entry: &LogEntry) -> io::Result<u64> {
        let json = serde_json::to_string(entry).map_err(invalid("log encode"))?;
        let mut wal = self.wal.lock();
        let lsn = wal.append(json.as_bytes())?;
        if self.deferred_sync.load(Ordering::Relaxed) {
            // Mark dirty while still holding the WAL lock, so a racing
            // flush cannot observe clean-then-miss this append.
            self.dirty.store(true, Ordering::Relaxed);
        } else {
            wal.sync()?;
        }
        self.appends_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Syncs every staged append in one fsync (no-op when clean).
    ///
    /// # Errors
    ///
    /// Propagates the sync failure — the staged entries are then *not*
    /// durable and their acknowledgements must be withheld (the WAL is
    /// poisoned, so subsequent mutations fail fail-stop).
    pub fn flush(&self) -> io::Result<()> {
        if !self.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut wal = self.wal.lock();
        // Re-check under the lock: a concurrent flush may have won.
        if self.dirty.swap(false, Ordering::Relaxed) {
            wal.sync()?;
        }
        Ok(())
    }

    /// Whether enough appends have accumulated to warrant a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.appends_since_checkpoint.load(Ordering::Relaxed) >= CHECKPOINT_EVERY
    }

    /// Installs `ckpt` (already holding the WAL lock) and truncates the
    /// log. Ordering is what makes this crash-safe: the checkpoint blob
    /// is renamed into place *before* the truncate, and replay skips
    /// entries below `ckpt.next_lsn`, so a crash between the two replays
    /// the old log against the new checkpoint harmlessly.
    ///
    /// # Errors
    ///
    /// Propagates media/WAL errors; on failure the old checkpoint and the
    /// full log remain authoritative.
    pub fn install_checkpoint(
        &self,
        wal: &mut Wal<Box<dyn Backend>>,
        ckpt: &Checkpoint,
    ) -> io::Result<()> {
        let blob = encode_checkpoint(ckpt)?;
        self.media.write_checkpoint_bytes(&blob)?;
        wal.truncate()?;
        // Any staged-but-unsynced appends were folded into the (synced)
        // checkpoint blob, and the log is empty: nothing left to flush.
        self.dirty.store(false, Ordering::Relaxed);
        self.appends_since_checkpoint.store(0, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("media", &self.media)
            .field("recoveries", &self.recoveries)
            .finish_non_exhaustive()
    }
}

// Backend impl for CrashFile lives in snakes-storage; here we only need
// Read for checkpoint bytes, which `CrashStore::read` already provides.
const _: fn() = || {
    fn assert_backend<B: Backend>() {}
    fn check() {
        assert_backend::<snakes_storage::crash::CrashFile>();
    }
    let _ = check;
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DimSpec;

    fn toy_schema() -> SchemaSpec {
        SchemaSpec {
            dims: vec![
                DimSpec {
                    name: "product".into(),
                    fanouts: vec![3, 2],
                },
                DimSpec {
                    name: "time".into(),
                    fanouts: vec![4],
                },
            ],
        }
    }

    fn snap(name: &str, version: u64, seed: f64) -> SessionSnapshot {
        let mut probs = vec![seed, 1.0 - seed];
        probs[0] = seed;
        SessionSnapshot {
            name: name.into(),
            schema: toy_schema(),
            version,
            probs,
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_the_blob_format() {
        let ckpt = Checkpoint {
            next_lsn: 17,
            sessions: vec![snap("etl", 5, 0.25), snap("bi", 2, 0.125)],
            idempotency: vec![IdemSnapshot {
                key: "k-1".into(),
                response: Response::ok(42),
            }],
            reclusters: vec![],
        };
        let blob = encode_checkpoint(&ckpt).unwrap();
        assert_eq!(blob.len() as u64 % CHECKPOINT_PAGE_SIZE, 0);
        let back = decode_checkpoint(blob).unwrap();
        assert_eq!(back, ckpt);
        // Probabilities survive bit-for-bit.
        assert_eq!(
            back.sessions[0].probs[0].to_bits(),
            ckpt.sessions[0].probs[0].to_bits()
        );
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_not_trusted() {
        let mut blob = encode_checkpoint(&Checkpoint::default()).unwrap();
        // The first page's tail holds the blob's length+checksum slot;
        // flipping a byte there must be caught (the page middle is slack).
        let at = blob.len() - 5;
        blob[at] ^= 0xFF;
        // Either the blob checksum or the JSON decode must catch it.
        assert!(decode_checkpoint(blob).is_err());
    }

    /// `json` with a field nested `depth` arrays deep spliced in first.
    fn nested_past_the_limit(json: &str, depth: usize) -> String {
        let rest = json.strip_prefix('{').expect("an object");
        format!(
            "{{\"pad\":{}{},{rest}",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    }

    #[test]
    fn documents_nested_past_the_depth_limit_are_refused_not_overflowed() {
        // Far deeper than a 2 MiB thread stack allows a recursive
        // decoder to go; the decoder refuses at 128 levels instead.
        let depth = 100_000;
        let ckpt = Checkpoint {
            next_lsn: 3,
            sessions: vec![snap("etl", 1, 0.5)],
            ..Checkpoint::default()
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        let file = PageFile::new(Cursor::new(Vec::new()), CHECKPOINT_PAGE_SIZE).unwrap();
        let mut pool = BufferPool::new(file, CHECKPOINT_POOL_PAGES);
        write_blob(&mut pool, nested_past_the_limit(&json, depth).as_bytes()).unwrap();
        let blob = pool.into_backend().unwrap().into_inner();
        let err = decode_checkpoint(blob).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("nesting deeper than 128 levels"),
            "{err}"
        );

        let store = Arc::new(CrashStore::new());
        {
            let (d, _) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
            let entry = LogEntry {
                drift: Some(snap("etl", 2, 0.25)),
                idempotency: None,
                recluster: None,
            };
            let json = serde_json::to_string(&entry).unwrap();
            let mut wal = d.wal.lock();
            wal.append(nested_past_the_limit(&json, depth).as_bytes())
                .unwrap();
            wal.sync().unwrap();
        }
        let err = Durability::open(Media::Store(store)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("log decode: nesting deeper"),
            "{err}"
        );
    }

    #[test]
    fn open_on_empty_media_recovers_nothing() {
        let store = Arc::new(CrashStore::new());
        let (d, rec) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
        assert!(!rec.recovered);
        assert_eq!(d.recoveries, 0);
        assert!(rec.sessions.is_empty());
        assert!(rec.idempotency.is_empty());
    }

    #[test]
    fn log_replay_applies_entries_in_order_with_last_write_winning() {
        let store = Arc::new(CrashStore::new());
        {
            let (d, _) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
            d.append(&LogEntry {
                drift: Some(snap("etl", 1, 0.5)),
                idempotency: None,
                recluster: None,
            })
            .unwrap();
            d.append(&LogEntry {
                drift: Some(snap("etl", 2, 0.75)),
                idempotency: Some(IdemSnapshot {
                    key: "k".into(),
                    response: Response::ok(7),
                }),
                recluster: None,
            })
            .unwrap();
            d.append(&LogEntry {
                drift: Some(snap("bi", 1, 0.25)),
                idempotency: None,
                recluster: None,
            })
            .unwrap();
        }
        let (d, rec) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
        assert!(rec.recovered);
        assert_eq!(d.recoveries, 1);
        assert_eq!(d.recovered_sessions, 2);
        let etl = rec.sessions.iter().find(|s| s.name == "etl").unwrap();
        assert_eq!(etl.version, 2);
        assert_eq!(etl.probs[0].to_bits(), 0.75f64.to_bits());
        assert_eq!(rec.idempotency.len(), 1);
        assert_eq!(rec.idempotency[0].response.id, 7);
    }

    #[test]
    fn checkpoint_plus_tail_replay_recovers_the_union() {
        let store = Arc::new(CrashStore::new());
        {
            let (d, _) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
            d.append(&LogEntry {
                drift: Some(snap("etl", 1, 0.5)),
                idempotency: None,
                recluster: None,
            })
            .unwrap();
            // Fold into a checkpoint, then append past it.
            let mut wal = d.wal.lock();
            let ckpt = Checkpoint {
                next_lsn: wal.next_lsn(),
                sessions: vec![snap("etl", 1, 0.5)],
                idempotency: vec![],
                reclusters: vec![],
            };
            d.install_checkpoint(&mut wal, &ckpt).unwrap();
            drop(wal);
            assert_eq!(d.checkpoints.load(Ordering::Relaxed), 1);
            d.append(&LogEntry {
                drift: Some(snap("etl", 2, 0.0625)),
                idempotency: None,
                recluster: None,
            })
            .unwrap();
        }
        let (_, rec) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
        assert_eq!(rec.sessions.len(), 1);
        assert_eq!(rec.sessions[0].version, 2);
        assert_eq!(rec.sessions[0].probs[0].to_bits(), 0.0625f64.to_bits());
    }

    #[test]
    fn stale_log_entries_below_the_checkpoint_horizon_are_skipped() {
        let store = Arc::new(CrashStore::new());
        {
            let (d, _) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
            d.append(&LogEntry {
                drift: Some(snap("etl", 9, 0.5)),
                idempotency: None,
                recluster: None,
            })
            .unwrap();
            // A checkpoint claiming a *newer* state than the log: the
            // entry must not clobber it. (This is exactly the state a
            // crash between checkpoint-rename and WAL-truncate leaves.)
            let ckpt = Checkpoint {
                next_lsn: d.wal.lock().next_lsn(),
                sessions: vec![snap("etl", 10, 0.75)],
                idempotency: vec![],
                reclusters: vec![],
            };
            let blob = encode_checkpoint(&ckpt).unwrap();
            d.media.write_checkpoint_bytes(&blob).unwrap();
            // Note: no truncate — the old entry is still in the log.
        }
        let (_, rec) = Durability::open(Media::Store(Arc::clone(&store))).unwrap();
        assert_eq!(rec.sessions.len(), 1);
        assert_eq!(rec.sessions[0].version, 10);
    }

    #[test]
    fn dir_media_roundtrips_on_a_real_filesystem() {
        let dir = std::env::temp_dir().join(format!(
            "snakes-durability-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (d, rec) = Durability::open(Media::Dir(dir.clone())).unwrap();
            assert!(!rec.recovered);
            d.append(&LogEntry {
                drift: Some(snap("etl", 3, 0.5)),
                idempotency: None,
                recluster: None,
            })
            .unwrap();
            let mut wal = d.wal.lock();
            let ckpt = Checkpoint {
                next_lsn: wal.next_lsn(),
                sessions: vec![snap("etl", 3, 0.5)],
                idempotency: vec![],
                reclusters: vec![],
            };
            d.install_checkpoint(&mut wal, &ckpt).unwrap();
        }
        let (d, rec) = Durability::open(Media::Dir(dir.clone())).unwrap();
        assert!(rec.recovered);
        assert_eq!(d.recoveries, 1);
        assert_eq!(rec.sessions[0].version, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
