//! The versioned synopsis store and its lock-free readers.
//!
//! [`SynopsisStore`] holds the process's one snapshot cell: an
//! `RwLock<Option<Arc<…>>>` over the latest sharded synopsis with its
//! version and publish time. Publishing re-shards a built synopsis off to
//! the side and swaps the whole store in under one write guard, which is
//! also where the next version is minted, so concurrent publishers never
//! mint the same one. Readers never take that lock on the query path:
//! [`SynopsisStore::reader`] clones the current `Arc` once, and every
//! subsequent query on the [`StoreReader`] runs against that pinned,
//! immutable snapshot — a reader on version *v* stays on *v* no matter
//! how many swaps land mid-batch, and drops its `Arc` when done. There
//! are no torn reads because there is no partially-updated state to
//! observe: the unit of publication is the entire sharded store.

use std::sync::{Arc, RwLock};

use dwmaxerr_core::query::{Answer, ErrorBound};
use dwmaxerr_wavelet::Synopsis;

use crate::batch::Query;
use crate::error::ServeError;
use crate::shard::ShardedSynopsis;

/// One published state of a [`SynopsisStore`].
#[derive(Debug)]
struct Published {
    value: ShardedSynopsis,
    /// 1-based publish count of the store.
    version: u64,
    /// The caller's timestamp, normally the simulated clock of the build.
    published_at: f64,
}

/// A sharded in-memory synopsis store with atomic whole-store swap.
///
/// Cloning the store clones the handle: all clones see the same
/// published snapshots (the producer publishes through one clone while
/// query threads read through others).
#[derive(Debug, Clone)]
pub struct SynopsisStore {
    label: Arc<str>,
    latest: Arc<RwLock<Option<Arc<Published>>>>,
    num_shards: usize,
}

impl SynopsisStore {
    /// Creates an empty store that will re-shard every published
    /// synopsis into `num_shards` error-tree partitions.
    pub fn new(label: &str, num_shards: usize) -> Self {
        SynopsisStore {
            label: Arc::from(label),
            latest: Arc::new(RwLock::new(None)),
            num_shards,
        }
    }

    /// The shard count applied on publish.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The store's label (for traces and logs).
    #[inline]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The latest published store version (0 before the first publish).
    #[inline]
    pub fn version(&self) -> u64 {
        self.latest().map_or(0, |snap| snap.version)
    }

    fn latest(&self) -> Option<Arc<Published>> {
        self.latest.read().expect("store lock").clone()
    }

    /// Re-shards `synopsis`, attaches `bound`, and atomically swaps the
    /// result in as the next store version; returns a reader pinned to it.
    /// `published_at` is the simulated-clock timestamp of the source build
    /// (so staleness accounting stays on the producer's clock). The fourth
    /// argument is ignored: answers carry the store's own version. It stays
    /// so that existing callers, the `perf` harness among them, keep
    /// compiling.
    ///
    /// Readers holding a [`StoreReader`] are neither blocked nor
    /// invalidated — they continue on their pinned snapshot.
    pub fn publish(
        &self,
        synopsis: &Synopsis,
        bound: ErrorBound,
        published_at: f64,
        _source_version: u64,
    ) -> Result<StoreReader, ServeError> {
        let value = ShardedSynopsis::build(synopsis, self.num_shards, bound, 0)?;
        // The version is read and the snapshot stored under one write
        // guard, so concurrent publishers never mint the same version.
        let mut latest = self.latest.write().expect("store lock");
        let snap = Arc::new(Published {
            value,
            version: latest.as_ref().map_or(0, |snap| snap.version) + 1,
            published_at,
        });
        *latest = Some(Arc::clone(&snap));
        Ok(StoreReader { snap })
    }

    /// Pins the latest snapshot for reading. Errors with
    /// [`ServeError::EmptyStore`] before the first publish.
    pub fn reader(&self) -> Result<StoreReader, ServeError> {
        self.latest()
            .map(|snap| StoreReader { snap })
            .ok_or(ServeError::EmptyStore)
    }
}

/// A read handle pinned to one store version.
///
/// All queries answer from the snapshot captured at
/// [`SynopsisStore::reader`] time; concurrent publishes are invisible
/// until a new reader is taken. Cheap to clone (one `Arc` bump).
#[derive(Debug, Clone)]
pub struct StoreReader {
    snap: Arc<Published>,
}

impl StoreReader {
    /// The store version this reader is pinned to.
    #[inline]
    pub fn version(&self) -> u64 {
        self.snap.version
    }

    /// Simulated-clock timestamp of the pinned snapshot's source build.
    #[inline]
    pub fn published_at(&self) -> f64 {
        self.snap.published_at
    }

    /// The pinned sharded representation (for routing introspection and
    /// benches).
    #[inline]
    pub fn sharded(&self) -> &ShardedSynopsis {
        &self.snap.value
    }

    /// The error guarantee every answer from this reader carries.
    #[inline]
    pub fn bound(&self) -> &ErrorBound {
        self.snap.value.bound()
    }

    /// Point query `d̂_x` with its per-point bound; `answer.version` is
    /// this reader's pinned store version.
    pub fn point(&self, x: usize) -> Result<Answer, ServeError> {
        Ok(self.answer(Query::Point { x }.validate(self.sharded().n())?))
    }

    /// Range-sum query `d̂(l:h)` (inclusive) with its additively-scaled
    /// absolute bound; `answer.version` is this reader's pinned store
    /// version.
    pub fn range_sum(&self, l: usize, h: usize) -> Result<Answer, ServeError> {
        Ok(self.answer(Query::RangeSum { l, h }.validate(self.sharded().n())?))
    }

    /// The answer to a query [`Query::validate`] accepted, stamped with
    /// this reader's pinned store version — the one version an answer
    /// carries.
    #[inline]
    pub(crate) fn answer(&self, q: Query) -> Answer {
        self.snap.value.answer(q, self.snap.version)
    }

    /// Executes a batch of queries, each distinct one once (see
    /// [`crate::batch`]), returning answers in input order, all from
    /// this reader's pinned version. Strict: one malformed query fails
    /// the whole batch.
    pub fn execute(&self, queries: &[Query]) -> Result<Vec<Answer>, ServeError> {
        crate::batch::execute(self, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn synopsis(keep: &[u32]) -> Synopsis {
        let w = forward(&PAPER_DATA).unwrap();
        Synopsis::retain_indices(&w, keep).unwrap()
    }

    #[test]
    fn empty_store_has_no_reader() {
        let store = SynopsisStore::new("test", 4);
        assert_eq!(store.version(), 0);
        assert!(matches!(store.reader(), Err(ServeError::EmptyStore)));
    }

    #[test]
    fn publish_bumps_version_and_readers_stay_pinned() {
        let store = SynopsisStore::new("test", 4);
        store
            .publish(&synopsis(&[0, 3]), ErrorBound::abs(9.0), 1.0, 1)
            .unwrap();
        let old = store.reader().unwrap();
        assert_eq!(old.version(), 1);
        let before = old.point(3).unwrap();

        store
            .publish(&synopsis(&[0, 3, 5]), ErrorBound::abs(4.0), 2.0, 2)
            .unwrap();
        assert_eq!(store.version(), 2);

        // The pinned reader still answers from version 1, bit for bit.
        let after = old.point(3).unwrap();
        assert_eq!(after.value.to_bits(), before.value.to_bits());
        assert_eq!(after.version, 1);
        assert_eq!(after.err_abs, Some(9.0));

        // A fresh reader sees version 2 and the tighter bound.
        let fresh = store.reader().unwrap();
        assert_eq!(fresh.version(), 2);
        assert_eq!(fresh.point(3).unwrap().err_abs, Some(4.0));
        assert_eq!(fresh.published_at(), 2.0);
    }

    #[test]
    fn reader_answers_match_reference_evaluators() {
        let store = SynopsisStore::new("test", 2);
        let syn = synopsis(&[0, 1, 5, 6]);
        store.publish(&syn, ErrorBound::abs(10.0), 0.5, 3).unwrap();
        let reader = store.reader().unwrap();
        for x in 0..8 {
            let a = reader.point(x).unwrap();
            assert!((a.value - syn.reconstruct_value(x)).abs() < 1e-12);
            assert_eq!(a.version, 1);
        }
        let r = reader.range_sum(1, 6).unwrap();
        let want = dwmaxerr_wavelet::reconstruct::range_sum_synopsis(&syn, 1, 6);
        assert!((r.value - want).abs() < 1e-9);
        assert_eq!(r.err_abs, Some(60.0));
    }
}
