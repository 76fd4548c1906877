//! Spill phase storage: the per-job [`SpillStore`] that holds map-side
//! spill runs, the `DWR3` instantiation of
//! [`codec::frame`](crate::codec::frame) its disk backend writes them in,
//! and the [`Run`] handle a sorted run travels as.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cluster::SpillBackend;
use crate::codec::checksum64;
use crate::codec::frame::{Format, FrameError, LenWidth};
use crate::fault::TaskPhase;

/// Identifies the attempt that wrote a spill run: `(phase, task, attempt)`.
/// Runs written by an attempt that later panics are orphans and are removed
/// by this tag.
pub(super) type AttemptTag = (TaskPhase, usize, usize);

/// The frame of a spill-run file. The store only opens files it wrote, and
/// opening allocates nothing for the length field, so the cap merely keeps
/// `len + overhead` far from overflow.
const RUN_FRAME: Format = Format::new(*b"DWR3", LenWidth::U64, isize::MAX as usize >> 1);
/// Frame overhead per run (20 bytes: magic, u64 length, checksum footer).
/// Charged to disk-byte accounting on both backends so Memory and Disk
/// runs cost the same on the simulated clock.
pub(crate) const SPILL_FRAME_BYTES: u64 = RUN_FRAME.overhead() as u64;

/// A run stored in the job's [`SpillStore`]: an opaque id plus the
/// payload length (kept on the handle so shuffle byte accounting never
/// touches the backend).
#[derive(Debug, Clone, Copy)]
pub(super) struct RunHandle {
    id: u64,
    pub(super) len: u64,
}

/// A stored run's ledger entry: the attempt that owns it and, when the
/// backend is [`SpillBackend::Memory`], its bytes with their
/// [`checksum64`] as written (`None` on disk, where both live in the run
/// file's frame). Either way every read verifies the checksum.
type StoredRun = (AttemptTag, Option<(Arc<Vec<u8>>, u64)>);

/// Where one sorted run physically lives between its map task and the
/// reduce merge.
pub(super) enum Run {
    /// The common case: the map task stayed within its spill budget and
    /// handed the run over in memory.
    Inline(Vec<u8>),
    /// The map task exceeded `io_sort_bytes` and the run went through the
    /// job's [`SpillStore`].
    Stored(RunHandle),
}

impl Run {
    /// Wire bytes the run moves across the shuffle.
    pub(super) fn len(&self) -> u64 {
        match self {
            Run::Inline(buf) => buf.len() as u64,
            Run::Stored(handle) => handle.len,
        }
    }

    /// The run's bytes for the reduce-side merge: inline runs are borrowed
    /// in place, stored runs are fetched from the spill store.
    pub(super) fn open(&self, store: &SpillStore) -> RunBuf<'_> {
        match self {
            Run::Inline(buf) => RunBuf::Borrowed(buf),
            Run::Stored(h) => {
                RunBuf::Shared(store.read(*h).expect("map-side runs verified at fetch"))
            }
        }
    }
}

/// A run's bytes as materialised for the reduce-side merge: borrowed
/// straight from the shuffle buffer, or shared out of the spill store.
pub(super) enum RunBuf<'a> {
    Borrowed(&'a [u8]),
    Shared(Arc<Vec<u8>>),
}

impl RunBuf<'_> {
    pub(super) fn as_slice(&self) -> &[u8] {
        match self {
            RunBuf::Borrowed(slice) => slice,
            RunBuf::Shared(arc) => arc.as_slice(),
        }
    }
}

/// A stored run whose payload no longer matches its checksum footer —
/// surfaced by [`SpillStore::read`] so the fetch layer can treat the run
/// as a lost map output instead of crashing the merge.
#[derive(Debug)]
pub(super) struct CorruptRun;

/// Per-job storage for map-side spill runs.
///
/// The [`SpillBackend::Memory`] backend keeps each run as an
/// `Arc<Vec<u8>>` — reads are reference-count bumps, deterministic and
/// filesystem-free. The [`SpillBackend::Disk`] backend writes each run as
/// a `DWR3` frame file (validated on read) under a
/// process-unique temp dir that is removed when the store drops. Either
/// way every run is tagged with the attempt that wrote it, so a panicked
/// attempt's orphans can be deleted before the retry runs.
pub(super) struct SpillStore {
    backend: SpillBackend,
    dir: PathBuf,
    runs: Mutex<HashMap<u64, StoredRun>>,
    next_id: AtomicU64,
}

impl SpillStore {
    pub(super) fn new(backend: SpillBackend) -> Self {
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dwmaxerr-spill-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        SpillStore {
            backend,
            dir,
            runs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        }
    }

    fn run_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("run-{id}.spill"))
    }

    /// Stores one sorted run under the next run id, returning its handle.
    /// The payload's [`checksum64`] is recorded on both backends (on disk as
    /// the frame's footer) and verified on every read. A disk-backend I/O
    /// failure panics, which surfaces as an attempt failure and burns a
    /// retry — the Hadoop behaviour for a task that cannot spill.
    pub(super) fn write(&self, owner: AttemptTag, payload: Vec<u8>) -> RunHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let len = payload.len() as u64;
        let data = match self.backend {
            SpillBackend::Memory => {
                let checksum = checksum64(&payload);
                Some((Arc::new(payload), checksum))
            }
            SpillBackend::Disk => {
                std::fs::create_dir_all(&self.dir).expect("create spill dir");
                let mut framed = Vec::with_capacity(payload.len() + RUN_FRAME.overhead());
                RUN_FRAME
                    .build(&mut framed, |buf| buf.extend_from_slice(&payload))
                    .expect("spill run under the frame cap");
                std::fs::write(self.run_path(id), framed).expect("write spill run");
                None
            }
        };
        self.runs
            .lock()
            .expect("spill lock")
            .insert(id, (owner, data));
        RunHandle { id, len }
    }

    /// Fetches a run's payload, verifying it against the checksum recorded
    /// at write time. Memory reads are `Arc` clones (a retried reduce
    /// attempt re-reads the same bytes); disk reads re-validate the frame.
    /// A frame whose structure is broken panics (a store bug, not a data
    /// fault); a structurally intact frame whose payload hashes differently
    /// returns [`CorruptRun`] so the fetch layer can recover.
    pub(super) fn read(&self, handle: RunHandle) -> Result<Arc<Vec<u8>>, CorruptRun> {
        match self.backend {
            SpillBackend::Memory => {
                let runs = self.runs.lock().expect("spill lock");
                let (_, data) = runs.get(&handle.id).expect("live spill run");
                let (payload, checksum) = data.clone().expect("memory-backend run has data");
                drop(runs);
                if checksum64(&payload) != checksum {
                    return Err(CorruptRun);
                }
                Ok(payload)
            }
            SpillBackend::Disk => {
                let framed = std::fs::read(self.run_path(handle.id)).expect("read spill run");
                match RUN_FRAME.open(&framed) {
                    Ok(payload) => Ok(Arc::new(payload.to_vec())),
                    Err(FrameError::ChecksumMismatch) => Err(CorruptRun),
                    Err(e) => panic!("corrupt spill frame: {e:?}"),
                }
            }
        }
    }

    /// Flips payload byte `at` of a stored run without touching its
    /// recorded checksum — the seeded [`crate::fault::FaultKind::CorruptRun`]
    /// injection, detected by the next [`SpillStore::read`].
    pub(super) fn corrupt(&self, handle: RunHandle, at: usize) {
        assert!((at as u64) < handle.len, "corruption offset past the run");
        match self.backend {
            SpillBackend::Memory => {
                let mut runs = self.runs.lock().expect("spill lock");
                let (_, data) = runs.get_mut(&handle.id).expect("live spill run");
                let (arc, _) = data.as_mut().expect("memory-backend run has data");
                let mut bytes = (**arc).clone();
                bytes[at] ^= 0xFF;
                *arc = Arc::new(bytes);
            }
            SpillBackend::Disk => {
                let path = self.run_path(handle.id);
                let mut framed = std::fs::read(&path).expect("read spill run");
                framed[RUN_FRAME.header_bytes() + at] ^= 0xFF;
                std::fs::write(&path, framed).expect("rewrite spill run");
            }
        }
    }

    /// Deletes every run written by `owner` — called when an attempt
    /// panics, so its partial spills never leak into the retry or outlive
    /// the job on disk.
    pub(super) fn remove_attempt(&self, owner: AttemptTag) {
        let mut runs = self.runs.lock().expect("spill lock");
        let ids: Vec<u64> = runs
            .iter()
            .filter(|(_, (o, ..))| *o == owner)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            runs.remove(&id);
            if self.backend == SpillBackend::Disk {
                let _ = std::fs::remove_file(self.run_path(id));
            }
        }
    }

    /// Number of live runs (for orphan-cleanup tests).
    #[cfg(test)]
    pub(super) fn live_runs(&self) -> usize {
        self.runs.lock().expect("spill lock").len()
    }

    /// Run ids issued so far, one per [`SpillStore::write`] (for tests that
    /// a phase wrote nothing).
    #[cfg(test)]
    pub(super) fn runs_written(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if self.backend == SpillBackend::Disk {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_store_removes_orphans_and_cleans_disk() {
        for backend in [SpillBackend::Memory, SpillBackend::Disk] {
            let store = SpillStore::new(backend);
            let crashed = (TaskPhase::Map, 0, 1);
            let retry = (TaskPhase::Map, 0, 2);
            let h1 = store.write(crashed, vec![1, 2, 3]);
            let h2 = store.write(retry, vec![4, 5]);
            assert_eq!(store.live_runs(), 2);
            assert_eq!(*store.read(h1).expect("clean run"), vec![1, 2, 3]);
            store.remove_attempt(crashed);
            assert_eq!(store.live_runs(), 1, "{backend:?}");
            assert_eq!(*store.read(h2).expect("clean run"), vec![4, 5]);
            if backend == SpillBackend::Disk {
                let dir = store.dir.clone();
                assert!(dir.exists());
                drop(store);
                assert!(!dir.exists(), "spill dir survived drop");
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_surfaced_as_corrupt_run() {
        let payload: Vec<u8> = (0..100).collect();
        for backend in [SpillBackend::Memory, SpillBackend::Disk] {
            let store = SpillStore::new(backend);
            let owner = (TaskPhase::Map, 0, 1);
            for at in [0, payload.len() / 2, payload.len() - 1] {
                let run = store.write(owner, payload.clone());
                assert_eq!(*store.read(run).expect("clean run"), payload);
                store.corrupt(run, at);
                assert!(
                    store.read(run).is_err(),
                    "{backend:?}: flipped byte {at} must fail the checksum"
                );
            }
            // Corruption is per-run: a sibling run still reads clean.
            let sibling = store.write(owner, vec![1, 2]);
            assert_eq!(*store.read(sibling).expect("clean run"), vec![1, 2]);
        }
    }

    #[test]
    fn disk_runs_are_dwr3_frames_with_the_accounted_overhead() {
        assert_eq!(SPILL_FRAME_BYTES, 20);
        let store = SpillStore::new(SpillBackend::Disk);
        let run = store.write((TaskPhase::Map, 0, 1), vec![9, 8, 7, 6]);
        let file = std::fs::read(store.run_path(run.id)).unwrap();
        assert_eq!(file.len() as u64, run.len + SPILL_FRAME_BYTES);
        assert_eq!(&file[..4], b"DWR3");
        assert_eq!(file[4..12], 4u64.to_le_bytes());
        assert_eq!(file[12..16], [9, 8, 7, 6]);
        assert_eq!(file[16..], checksum64(&[9, 8, 7, 6]).to_le_bytes());
    }
}
