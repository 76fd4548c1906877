//! Map phase: the in-memory collector behind [`MapContext::emit`], the
//! `io.sort.mb` budget that forces mid-task spills ([`SpillControl`]), the
//! spill sort / combiner fold, and the per-task driver ([`MapPhase`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use super::spill::{AttemptTag, Run, SpillStore, SPILL_FRAME_BYTES};
use super::{run_attempts, Combiner, MapStage, PhaseOutcome, Values};
use crate::cluster::ClusterConfig;
use crate::codec::{CountingSink, FnvHasher, Wire};
use crate::error::RuntimeError;
use crate::executor::Executor;
use crate::fault::TaskPhase;
use crate::metrics::{Kernel, TaskCost};
use crate::scheduler;

/// Context handed to map functions: typed emission into reduce partitions
/// plus user counters.
pub struct MapContext<'a, K, V> {
    /// Buffered pairs per reduce partition, decoded — like Hadoop's
    /// in-memory collector, records are encoded exactly once, at spill
    /// time, after the spill sort.
    parts: Vec<Vec<(K, V)>>,
    counters: BTreeMap<&'static str, u64>,
    partitioner: &'a (dyn Fn(&K, usize) -> usize + Sync),
    /// First out-of-range `(partition, reducers)` the partitioner produced;
    /// turned into [`RuntimeError::BadPartitioner`] after the map function
    /// returns (a deterministic program bug must not burn retry attempts).
    bad_partition: Option<(usize, usize)>,
    /// Spill budget enforcement: meters buffered wire bytes at emit time
    /// and spills sorted runs to the job's [`SpillStore`] whenever the
    /// budget is crossed.
    spill: SpillControl<'a, K, V>,
}

impl<K: Wire + Ord + Send, V: Wire + Send> MapContext<'_, K, V> {
    /// Emits a key-value pair into the shuffle. If the partitioner routes
    /// the key outside `0..reducers` the record is dropped and the job
    /// fails with [`RuntimeError::BadPartitioner`] once the task returns.
    ///
    /// The pair's wire size is metered against the task's spill budget
    /// (`io.sort.mb`); crossing it sorts and spills the buffered pairs as
    /// one run per partition, then mapping continues with empty buffers —
    /// emission volume is unbounded even under a small
    /// `task_memory_bytes`.
    pub fn emit(&mut self, key: K, value: V) {
        let r = self.parts.len();
        let p = (self.partitioner)(&key, r);
        if p >= r {
            self.bad_partition.get_or_insert((p, r));
            return;
        }
        let mut sink = CountingSink::new();
        key.encode(&mut sink);
        value.encode(&mut sink);
        self.parts[p].push((key, value));
        self.spill.buffered += sink.bytes;
        if self.spill.buffered >= self.spill.budget {
            self.spill.spill(&mut self.parts, true);
        }
    }

    /// Adds `delta` to a named counter (merged across tasks into
    /// [`crate::JobMetrics::counters`]).
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Reports `units` of `kernel` work to the task's [`TaskCost`], the
    /// clock's one input: in bulk, from sizes the kernel has, never per item.
    pub fn charge(&mut self, kernel: Kernel, units: u64) {
        self.spill.cost.charge(kernel, units);
    }
}

/// The default partitioner, Hadoop's `HashPartitioner`: FNV-1a over the
/// key's wire bytes, encoded straight into the hasher — no per-record
/// encode buffer — and no hash at all for a single reducer, where every
/// key lands in partition 0 whatever it hashes to.
pub fn default_partition<K: Wire>(key: &K, parts: usize) -> usize {
    if parts == 1 {
        return 0;
    }
    let mut hasher = FnvHasher::new();
    key.encode(&mut hasher);
    (hasher.finish() % parts as u64) as usize
}

/// Pool of spill collection buffers shared by one job run's map tasks.
///
/// Pair-collection vectors live only from emission to spill within one
/// task, so they are recycled across tasks (and scheduling waves) instead
/// of re-growing from empty — the allocator sees O(threads × partitions)
/// buffers, not O(tasks × partitions). Buffers lost to a panicking
/// attempt are simply not returned; the pool re-allocates on demand.
///
/// Retention is bounded: a returned buffer whose capacity exceeds the
/// per-buffer cap is shrunk before pooling, and the pool drops buffers
/// outright once its total retained bytes (or buffer count) would exceed
/// the pool-wide cap — one skewed task cannot permanently inflate the
/// job's memory footprint to its high-water mark.
///
/// The pool is sharded by executor worker slot ([`executor::worker_slot`]):
/// each pool worker (and the submitting thread, slot 0) takes and returns
/// buffers through its own shard, so concurrent map tasks never contend on
/// one lock and a buffer recycled on one worker is never observed by
/// another mid-task. The retention caps are divided across shards, keeping
/// the pool-wide bounds identical to the unsharded pool.
struct BufferPool<T> {
    shards: Vec<Mutex<PoolInner<T>>>,
    max_buf_bytes: usize,
    /// Per-shard retained-bytes cap (the pool-wide cap split evenly).
    max_shard_bytes: usize,
}

struct PoolInner<T> {
    bufs: Vec<Vec<T>>,
    total_bytes: usize,
}

/// Heap bytes a pooled buffer retains (0 for zero-sized element types,
/// whose capacity is meaningless).
fn buf_bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity().saturating_mul(std::mem::size_of::<T>())
}

impl<T> BufferPool<T> {
    /// Largest per-buffer capacity the pool retains (larger buffers are
    /// shrunk on return).
    const MAX_BUF_BYTES: usize = 4 << 20;
    /// Total bytes the pool retains across all buffers (returns beyond
    /// this are dropped).
    const MAX_TOTAL_BYTES: usize = 32 << 20;
    /// Buffer-count cap, the backstop for zero-sized element types whose
    /// buffers are all 0 bytes.
    const MAX_BUFS: usize = 256;

    /// A pool with one shard per executor thread (the submitting thread is
    /// slot 0, pool workers are slots `1..threads`).
    fn per_worker(threads: usize) -> Self {
        Self::sharded(threads.max(1), Self::MAX_BUF_BYTES, Self::MAX_TOTAL_BYTES)
    }

    fn sharded(shards: usize, max_buf_bytes: usize, max_total_bytes: usize) -> Self {
        let shards = shards.max(1);
        BufferPool {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(PoolInner {
                        bufs: Vec::new(),
                        total_bytes: 0,
                    })
                })
                .collect(),
            max_buf_bytes,
            max_shard_bytes: max_total_bytes / shards,
        }
    }

    /// The calling thread's shard.
    fn shard(&self) -> &Mutex<PoolInner<T>> {
        &self.shards[crate::executor::worker_slot() % self.shards.len()]
    }

    /// A cleared buffer with at least `capacity` entries reserved —
    /// recycled when the shard has one, freshly allocated otherwise.
    fn take(&self, capacity: usize) -> Vec<T> {
        let recycled = {
            let mut inner = self.shard().lock().expect("pool lock");
            let buf = inner.bufs.pop();
            if let Some(buf) = &buf {
                inner.total_bytes -= buf_bytes(buf);
            }
            buf
        };
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        if buf_bytes(&buf) > self.max_buf_bytes {
            buf.shrink_to(self.max_buf_bytes / std::mem::size_of::<T>().max(1));
        }
        let mut inner = self.shard().lock().expect("pool lock");
        let bytes = buf_bytes(&buf);
        let max_bufs = (Self::MAX_BUFS / self.shards.len()).max(1);
        if inner.bufs.len() >= max_bufs
            || inner.total_bytes.saturating_add(bytes) > self.max_shard_bytes
        {
            return;
        }
        inner.total_bytes += bytes;
        inner.bufs.push(buf);
    }

    /// Total heap bytes currently retained across shards (for the
    /// regression test).
    #[cfg(test)]
    fn pooled_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("pool lock").total_bytes)
            .sum()
    }
}

/// Sorts (or combiner-folds) one partition's buffered pairs and serializes
/// them into a wire buffer, clearing the pair buffer (capacity kept).
/// Returns the serialized partition and the records it holds.
fn spill_one_partition<K: Wire + Ord, V: Wire>(
    pairs: &mut Vec<(K, V)>,
    combiner: Option<&Combiner<K, V>>,
    byte_hint: &AtomicUsize,
    pair_hint: &AtomicUsize,
) -> (Vec<u8>, u64) {
    pair_hint.fetch_max(pairs.len(), Ordering::Relaxed);
    let mut out = Vec::with_capacity(byte_hint.load(Ordering::Relaxed));
    let records = if let Some(combiner) = combiner {
        // Fold into an ordered map: values accumulate per key in emission
        // order, the fold runs once per key, and iterating the map writes
        // the partition out already sorted — the combine *is* the spill
        // sort. Folding per spill is Hadoop's combiner contract: the
        // combiner must be associative, because each run carries its own
        // partial fold.
        let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs.drain(..) {
            groups.entry(k).or_default().push(v);
        }
        let records = groups.len();
        for (key, values) in groups {
            let folded = combiner(&key, Values::from(values));
            key.encode(&mut out);
            folded.encode(&mut out);
        }
        records
    } else {
        // Stable: equal keys keep emission order.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in pairs.iter() {
            k.encode(&mut out);
            v.encode(&mut out);
        }
        let records = pairs.len();
        pairs.clear();
        records
    };
    byte_hint.fetch_max(out.len(), Ordering::Relaxed);
    (out, records as u64)
}

/// Per-attempt spill state threaded through [`MapContext`]: the
/// `io.sort.mb` budget, the metered buffered bytes, the runs spilled so far
/// (per partition, in spill order) and the task's [`TaskCost`].
struct SpillControl<'a, K, V> {
    /// Wire bytes the task may buffer before spilling
    /// (`min(io_sort_bytes, task_memory_bytes)`).
    budget: usize,
    /// Wire bytes currently buffered across all partitions.
    buffered: usize,
    store: &'a SpillStore,
    owner: AttemptTag,
    combiner: Option<&'a Combiner<K, V>>,
    partition_hints: &'a [AtomicUsize],
    pair_hints: &'a [AtomicUsize],
    /// Spilled runs per partition, in spill-sequence order — drained to
    /// each reducer as (map task, spill sequence), the order that keeps
    /// tie-breaking identical to the single-run path.
    runs: Vec<Vec<Run>>,
    /// Records shipped, spill passes and spill-store bytes so far.
    cost: TaskCost,
    /// Host seconds spent sorting/folding/serializing across spills.
    spill_secs: f64,
}

impl<K: Wire + Ord, V: Wire> SpillControl<'_, K, V> {
    /// The map-side spill: sorts (or combiner-folds) each partition's
    /// buffered pairs, serializes them as one run per non-empty partition,
    /// clears the buffers (capacity kept, so mapping can continue into
    /// them) and resets the byte meter. `external` runs go through the
    /// spill store; the alternative — the single task-end spill of a task
    /// that never crossed its budget — hands them over in memory. Both
    /// kinds come out of this one routine, so a budget-constrained run is
    /// byte-identical per run to what the unconstrained path would have
    /// produced for the same pairs.
    fn spill(&mut self, parts: &mut [Vec<(K, V)>], external: bool) {
        let spill_start = Instant::now();
        let spilled: Vec<(Vec<u8>, u64)> = parts
            .iter_mut()
            .enumerate()
            .map(|(p, pairs)| {
                spill_one_partition(
                    pairs,
                    self.combiner,
                    &self.partition_hints[p],
                    &self.pair_hints[p],
                )
            })
            .collect();
        self.spill_secs += spill_start.elapsed().as_secs_f64();
        let mut runs = 0u64;
        let mut bytes = 0u64;
        for (p, (buf, records)) in spilled.into_iter().enumerate() {
            self.cost.records += records;
            if buf.is_empty() {
                continue;
            }
            runs += 1;
            bytes += buf.len() as u64;
            self.runs[p].push(if external {
                self.cost.spilled_bytes += buf.len() as u64 + SPILL_FRAME_BYTES;
                Run::Stored(self.store.write(self.owner, buf))
            } else {
                Run::Inline(buf)
            });
        }
        if runs > 0 {
            self.cost.spills.push((runs, bytes));
        }
        self.buffered = 0;
    }
}

pub(super) struct MapTaskResult {
    /// Per partition, the task's sorted runs in spill-sequence order.
    pub(super) runs: Vec<Vec<Run>>,
    pub(super) counters: BTreeMap<&'static str, u64>,
    pub(super) bad_partition: Option<(usize, usize)>,
    /// Host seconds of the task body and of its spills (sidecars).
    pub(super) task_secs: f64,
    pub(super) spill_secs: f64,
}

/// One job run's map phase: everything a map task body needs, shared by
/// the first execution of every task and by fetch recovery's re-execution
/// of a *completed* task whose outputs were lost.
pub(super) struct MapPhase<'a, S, K, V, F> {
    stage: &'a MapStage<S, K, V, F>,
    config: &'a ClusterConfig,
    pool: &'a Executor,
    store: &'a SpillStore,
    partitioner: &'a (dyn Fn(&K, usize) -> usize + Sync),
    pair_pool: BufferPool<(K, V)>,
    /// Per-partition capacity hints — the largest sizes any finished task
    /// observed, so later tasks (and waves) reserve once instead of
    /// growing from empty: wire bytes per sorted run, and pair counts per
    /// collection buffer.
    partition_hints: Vec<AtomicUsize>,
    pair_hints: Vec<AtomicUsize>,
}

impl<'a, S, K, V, F> MapPhase<'a, S, K, V, F>
where
    S: Sync,
    K: Wire + Ord + Send,
    V: Wire + Send,
    F: Fn(&S, &mut MapContext<K, V>) + Sync,
{
    pub(super) fn new(
        stage: &'a MapStage<S, K, V, F>,
        config: &'a ClusterConfig,
        pool: &'a Executor,
        store: &'a SpillStore,
    ) -> Self {
        let hints = || (0..stage.reducers).map(|_| AtomicUsize::new(0)).collect();
        MapPhase {
            stage,
            config,
            pool,
            store,
            partitioner: match &stage.partitioner {
                Some(p) => p.as_ref(),
                None => &default_partition::<K>,
            },
            pair_pool: BufferPool::per_worker(config.threads),
            partition_hints: hints(),
            pair_hints: hints(),
        }
    }

    /// One execution of map task `task`, writing any spill runs under
    /// `attempt`'s tag. Map functions are deterministic over their split,
    /// and every execution uses the same spill budget and combiner, so a
    /// re-execution's runs and cost are identical to the originals.
    pub(super) fn run_task(
        &self,
        task: usize,
        split: &S,
        attempt: usize,
    ) -> (MapTaskResult, TaskCost) {
        let start = Instant::now();
        let config = self.config;
        let mut ctx = MapContext {
            parts: self
                .pair_hints
                .iter()
                .map(|h| self.pair_pool.take(h.load(Ordering::Relaxed)))
                .collect(),
            counters: BTreeMap::new(),
            partitioner: self.partitioner,
            bad_partition: None,
            spill: SpillControl {
                // `io.sort.mb` is further clamped to the task memory
                // budget — a task must be able to spill before it
                // exhausts its memory.
                budget: config.io_sort_bytes.min(config.task_memory_bytes).max(1) as usize,
                buffered: 0,
                store: self.store,
                owner: (TaskPhase::Map, task, attempt),
                combiner: self.stage.combiner.as_ref(),
                partition_hints: &self.partition_hints,
                pair_hints: &self.pair_hints,
                runs: self.pair_hints.iter().map(|_| Vec::new()).collect(),
                cost: TaskCost::default(),
                spill_secs: 0.0,
            },
        };
        (self.stage.map_fn)(split, &mut ctx);
        let mut sp = ctx.spill;
        // The task-end spill. A task that never crossed its budget takes
        // the in-memory fast path (no store round-trip); once a mid-task
        // spill has gone external, the tail follows it.
        let external = sp.runs.iter().any(|runs| !runs.is_empty());
        sp.spill(&mut ctx.parts, external);
        for pairs in ctx.parts {
            self.pair_pool.put(pairs);
        }
        let result = MapTaskResult {
            runs: sp.runs,
            counters: ctx.counters,
            bad_partition: ctx.bad_partition,
            task_secs: start.elapsed().as_secs_f64(),
            spill_secs: sp.spill_secs,
        };
        (result, sp.cost)
    }

    /// Runs every map task through its attempt loop on the pool; results
    /// come back positionally by task id.
    pub(super) fn run(&self, splits: &[S]) -> PhaseOutcome<MapTaskResult> {
        let config = self.config;
        let raw = self.pool.run_indexed(splits, |i, split| {
            // HDFS read time is charged to every attempt of the task.
            let read_secs = self.stage.input_bytes.as_ref().map_or(0.0, |f| {
                scheduler::io_secs(f(split), config.hdfs_bytes_per_sec)
            });
            run_attempts(
                TaskPhase::Map,
                i,
                config,
                Some(self.store),
                read_secs,
                |attempt| self.run_task(i, split, attempt),
            )
        });
        raw.into_iter()
            .map(|task| {
                let task = task?;
                match task.0.bad_partition {
                    Some((partition, reducers)) => Err(RuntimeError::BadPartitioner {
                        partition,
                        reducers,
                    }),
                    None => Ok(task),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::job::{JobBuilder, ReduceContext};

    fn small_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_millis(1);
        cfg.job_setup = std::time::Duration::from_millis(1);
        Cluster::new(cfg)
    }

    /// The historical default-partitioner formula: FNV-1a over the fully
    /// encoded key bytes. The production path encodes the key straight into
    /// [`FnvHasher`] without materialising the bytes; this test pins the
    /// two formulations to identical partition assignments.
    fn fnv1a_reference(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn assert_streaming_hash_matches<K: Wire>(key: &K) {
        let mut encoded = Vec::new();
        key.encode(&mut encoded);
        let mut hasher = FnvHasher::new();
        key.encode(&mut hasher);
        assert_eq!(
            hasher.finish(),
            fnv1a_reference(&encoded),
            "streaming FNV must equal FNV over encoded bytes"
        );
    }

    #[test]
    fn streaming_partitioner_matches_encoded_fnv1a() {
        assert_streaming_hash_matches(&0u32);
        assert_streaming_hash_matches(&u64::MAX);
        assert_streaming_hash_matches(&-17i64);
        assert_streaming_hash_matches(&String::from("wavelet"));
        assert_streaming_hash_matches(&String::new());
        assert_streaming_hash_matches(&vec![1u16, 2, 3]);
        assert_streaming_hash_matches(&(42u32, String::from("coeff"), true));
        assert_streaming_hash_matches(&Some(7u8));
        assert_streaming_hash_matches(&Option::<u8>::None);
        for k in 0u64..256 {
            assert_streaming_hash_matches(&k);
            // And the derived partition index for a handful of widths.
            let mut enc = Vec::new();
            k.encode(&mut enc);
            let mut h = FnvHasher::new();
            k.encode(&mut h);
            for parts in [1usize, 2, 3, 7, 16] {
                let reference = (fnv1a_reference(&enc) % parts as u64) as usize;
                assert_eq!((h.finish() % parts as u64) as usize, reference);
                // `parts == 1` skips the hash; the answer is still the formula's.
                assert_eq!(default_partition(&k, parts), reference);
            }
        }
    }

    #[test]
    fn default_partitioner_matches_explicit_fnv_partitioner() {
        // The same job run with the implicit default partitioner and with an
        // explicit partitioner spelling out the historical formula must
        // produce identical output (grouping and order).
        let splits: Vec<Vec<u64>> = vec![(0..50).collect(), (25..75).collect()];
        let map_fn = |split: &Vec<u64>, ctx: &mut MapContext<u64, u64>| {
            for &x in split {
                ctx.emit(x, x * 2);
            }
        };
        let reduce_fn = |k: &u64, vals: Values<'_, u64, u64>, ctx: &mut ReduceContext<u64, u64>| {
            ctx.emit(*k, vals.sum());
        };
        let implicit = JobBuilder::new("implicit")
            .map(map_fn)
            .reducers(3)
            .reduce(reduce_fn)
            .run(&small_cluster(), &splits)
            .unwrap();
        let explicit = JobBuilder::new("explicit")
            .map(map_fn)
            .reducers(3)
            .partition_by(|k: &u64, parts| {
                let mut enc = Vec::new();
                k.encode(&mut enc);
                (fnv1a_reference(&enc) % parts as u64) as usize
            })
            .reduce(reduce_fn)
            .run(&small_cluster(), &splits)
            .unwrap();
        assert_eq!(implicit.pairs, explicit.pairs);
        assert_eq!(
            implicit.metrics.shuffle_bytes,
            explicit.metrics.shuffle_bytes
        );
    }

    #[test]
    fn buffer_pool_caps_retained_memory() {
        // Per-buffer cap: a skewed task's huge buffer is shrunk on return.
        let pool: BufferPool<u64> = BufferPool::sharded(1, 1024, 4096);
        pool.put(Vec::with_capacity(100_000));
        assert!(pool.pooled_bytes() <= 1024, "{}", pool.pooled_bytes());
        let buf = pool.take(0);
        assert!(buf.capacity() * 8 <= 1024, "capacity {}", buf.capacity());
        // Pool-wide cap: returns beyond the total budget are dropped, so
        // the pool's footprint is not its high-water mark.
        for _ in 0..100 {
            pool.put(Vec::with_capacity(128));
        }
        assert!(pool.pooled_bytes() <= 4096, "{}", pool.pooled_bytes());
        // Default limits: one 160 MB skew buffer retains at most the cap.
        let pool: BufferPool<(u64, u64)> = BufferPool::per_worker(1);
        pool.put(Vec::with_capacity(10 << 20));
        assert!(pool.pooled_bytes() <= BufferPool::<(u64, u64)>::MAX_BUF_BYTES);
    }

    #[test]
    fn sharded_buffer_pool_keeps_global_caps() {
        // The per-worker pool splits the retention budget across shards:
        // however many threads return buffers, the pool-wide footprint
        // stays within the unsharded cap.
        let pool: BufferPool<u64> = BufferPool::per_worker(4);
        for _ in 0..1000 {
            pool.put(Vec::with_capacity(64 << 10));
        }
        assert!(pool.pooled_bytes() <= BufferPool::<u64>::MAX_TOTAL_BYTES);
        // Buffers round-trip through the calling thread's shard.
        let buf = pool.take(16);
        assert!(buf.capacity() >= 16);
        pool.put(buf);
    }
}
