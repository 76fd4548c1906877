//! Reduce phase: each reducer opens its fetched runs, prices the
//! intermediate merge passes that would bound their fan-in, and streams one
//! merge over all of them into the user's reduce function — key range by
//! key range, on the pool, when the runs are big and fixed-width.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use super::fetch::ShuffleRun;
use super::merge::{cut_ranges, merge_to_fan_in, KWayMerge, Values};
use super::spill::{RunBuf, SpillStore};
use super::{run_attempts, PhaseOutcome};
use crate::cluster::ClusterConfig;
use crate::codec::{CodecError, Wire};
use crate::error::RuntimeError;
use crate::executor::Executor;
use crate::fault::TaskPhase;
use crate::metrics::{Kernel, TaskCost};

/// Context handed to reduce functions.
pub struct ReduceContext<OK, OV> {
    pub(crate) out: Vec<(OK, OV)>,
    counters: BTreeMap<&'static str, u64>,
    cost: TaskCost,
}

impl<OK, OV> ReduceContext<OK, OV> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ReduceContext {
            out: Vec::with_capacity(capacity),
            counters: BTreeMap::new(),
            cost: TaskCost::default(),
        }
    }

    /// Emits an output record.
    pub fn emit(&mut self, key: OK, value: OV) {
        self.out.push((key, value));
    }

    /// Adds `delta` to a named counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Reports `units` of `kernel` work to the task's [`TaskCost`] (see
    /// [`crate::MapContext::charge`]).
    pub fn charge(&mut self, kernel: Kernel, units: u64) {
        self.cost.charge(kernel, units);
    }
}

pub(super) struct ReduceTaskResult<OK, OV> {
    /// The reduce function's emissions, one `Vec` per key range of the
    /// final merge, in range order.
    pub(super) out: Vec<Vec<(OK, OV)>>,
    pub(super) counters: BTreeMap<&'static str, u64>,
    decode_error: bool,
    /// Host seconds (reported sidecars) of the task and of its merge phase:
    /// from task start until the final merge's key ranges are cut (runs
    /// opened and verified, splitters sampled).
    /// The final merge itself streams inside the reduce function's
    /// [`Values`] and is not split out.
    pub(super) task_secs: f64,
    pub(super) merge_secs: f64,
}

/// Bytes of fixed-width runs from which a reducer's final merge is cut
/// into `pool.threads()` key ranges; below it the merge stays one range.
/// Measured on 2 vCPUs at two threads, one reducer over 8 runs of
/// `(u64, f64)` with half the records on seven keys, one range against
/// two, interleaved (ms): 1 MiB 0.82 / 0.86 → 0.80 / 0.79 (a wash),
/// 2 MiB 1.84 / 1.81 → 1.67 / 1.57, 4 MiB 3.64 / 3.55 → 3.16 / 3.13,
/// 8 MiB 7.24 / 6.98 → 6.23 / 6.17; Send-Coef's 134 MB reducer
/// 122–138 → 55–62. The split pays from about 2 MiB; 4 MiB keeps a factor
/// of two of margin and ten times the largest fixed-width reducer of any
/// other `perf` workload (408 KB).
const PAR_FINAL_MERGE_MIN_BYTES: usize = 4 << 20;

/// Merges and reduces each key range of `ranges` ([`cut_ranges`]) as one
/// `run_indexed` task with its own [`ReduceContext`]. One range is the
/// serial final merge. Returns each range's emissions in range order (the
/// driver concatenates them straight into the job's output, so no
/// reducer-sized buffer is copied twice), the counters summed over the
/// ranges, and whether a run failed to decode; the ranges' kernel units
/// are added to `cost`.
#[allow(clippy::type_complexity)] // one `Vec` of emissions per range, beside the counters
pub(super) fn reduce_ranges<K, V, OK, OV, G>(
    pool: &Executor,
    ranges: &[Vec<&[u8]>],
    reduce_fn: &G,
    out_hint: usize,
    cost: &mut TaskCost,
) -> (Vec<Vec<(OK, OV)>>, BTreeMap<&'static str, u64>, bool)
where
    K: Wire + Ord,
    V: Wire,
    OK: Send,
    OV: Send,
    G: Fn(&K, Values<'_, K, V>, &mut ReduceContext<OK, OV>) + Sync,
{
    let hint = out_hint / ranges.len().max(1);
    let reduced = pool.run_indexed(ranges, |_, runs| {
        let mut ctx = ReduceContext::with_capacity(hint);
        let mut merge = KWayMerge::<K, V>::new(runs);
        merge.for_each_group(|key, values| reduce_fn(key, values, &mut ctx));
        (ctx, merge.decode_error())
    });
    let mut counters = BTreeMap::new();
    let mut decode_error = false;
    let out = reduced
        .into_iter()
        .map(|(ctx, range_decode_error)| {
            for (name, delta) in ctx.counters {
                *counters.entry(name).or_insert(0) += delta;
            }
            for (sum, units) in cost.kernel.iter_mut().zip(ctx.cost.kernel) {
                *sum += units;
            }
            decode_error |= range_decode_error;
            ctx.out
        })
        .collect();
    (out, counters, decode_error)
}

/// Runs every reduce task through its attempt loop on the pool; results
/// come back positionally by partition. `recovery_secs[i]` — fetch-failure
/// backoff and re-executed-map wait — is charged to every attempt of
/// reducer `i`.
pub(super) fn run_phase<K, V, OK, OV, G>(
    pool: &Executor,
    store: &SpillStore,
    config: &ClusterConfig,
    reduce_fn: &G,
    inputs: &[Vec<ShuffleRun>],
    recovery_secs: &[f64],
) -> PhaseOutcome<ReduceTaskResult<OK, OV>>
where
    K: Wire + Ord + Send,
    V: Wire + Send,
    OK: Send,
    OV: Send,
    G: Fn(&K, Values<'_, K, V>, &mut ReduceContext<OK, OV>) + Sync,
{
    let sort_factor = config.io_sort_factor.max(2);
    // Output-capacity hint: the largest emission count any finished reduce
    // task observed, so later tasks pre-size `ctx.out`.
    let out_hint = AtomicUsize::new(0);
    let raw = pool.run_indexed(inputs, |i, runs| {
        run_attempts(TaskPhase::Reduce, i, config, None, recovery_secs[i], |_| {
            let task_start = Instant::now();
            let lens: Vec<u64> = runs.iter().map(|r| r.run.len()).collect();
            let mut cost = TaskCost {
                fetched_bytes: lens.iter().sum(),
                fetched_runs: runs.len() as u64,
                ..TaskCost::default()
            };
            cost.merges = merge_to_fan_in(lens, sort_factor);
            // Opening a stored run verifies its checksum: on the pool.
            let opened = pool.run_indexed(runs, |_, run| run.run.open(store));
            let runs: Vec<&[u8]> = opened.iter().map(RunBuf::as_slice).collect();
            let bytes: usize = runs.iter().map(|run| run.len()).sum();
            let parts = if pool.is_parallel() && bytes >= PAR_FINAL_MERGE_MIN_BYTES {
                pool.threads()
            } else {
                1
            };
            let ranges = cut_ranges::<K, V>(&runs, parts);
            let merge_secs = task_start.elapsed().as_secs_f64();
            let hint = out_hint.load(Ordering::Relaxed);
            let (out, counters, decode_error) =
                reduce_ranges(pool, &ranges, reduce_fn, hint, &mut cost);
            let records = out.iter().map(Vec::len).sum();
            out_hint.fetch_max(records, Ordering::Relaxed);
            cost.records = records as u64;
            let result = ReduceTaskResult {
                out,
                counters,
                decode_error,
                task_secs: task_start.elapsed().as_secs_f64(),
                merge_secs,
            };
            (result, cost)
        })
    });
    let phase: (Vec<ReduceTaskResult<_, _>>, _, _) = raw.into_iter().collect::<Result<_, _>>()?;
    if phase.0.iter().any(|t| t.decode_error) {
        return Err(RuntimeError::Codec(CodecError {
            context: "shuffle stream",
        }));
    }
    Ok(phase)
}
