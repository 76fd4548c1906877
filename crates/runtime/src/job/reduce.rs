//! Reduce phase: each reducer opens its fetched runs, bounds their fan-in
//! with intermediate merge passes, and streams the final merge into the
//! user's reduce function.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use super::fetch::ShuffleRun;
use super::merge::{merge_to_fan_in, KWayMerge};
use super::spill::SpillStore;
use super::{run_attempts, PhaseOutcome};
use crate::cluster::ClusterConfig;
use crate::codec::{CodecError, Wire};
use crate::error::RuntimeError;
use crate::executor::Executor;
use crate::fault::TaskPhase;
use crate::scheduler::{self, TaskPlan};

/// Context handed to reduce functions.
pub struct ReduceContext<OK, OV> {
    pub(crate) out: Vec<(OK, OV)>,
    counters: BTreeMap<&'static str, u64>,
}

impl<OK, OV> ReduceContext<OK, OV> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ReduceContext {
            out: Vec::with_capacity(capacity),
            counters: BTreeMap::new(),
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
}

pub(super) struct ReduceTaskResult<OK, OV> {
    pub(super) out: Vec<(OK, OV)>,
    pub(super) counters: BTreeMap<&'static str, u64>,
    decode_error: bool,
    /// Host seconds of the merge phase: from task start until the final
    /// tournament is built (runs opened and verified, intermediate passes
    /// done, every run's first pair decoded). The final merge itself streams
    /// inside the reduce function's value iterator and is not split out.
    pub(super) merge_secs: f64,
    /// `(fan_in, bytes)` per intermediate merge pass (empty when the final
    /// merge handled every run directly).
    pub(super) merge_passes: Vec<(u64, u64)>,
    /// Framed bytes written + read back by intermediate passes.
    pub(super) disk_bytes: u64,
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
    G: Fn(&K, &mut dyn Iterator<Item = V>, &mut ReduceContext<OK, OV>) + Sync,
{
    let sort_factor = config.io_sort_factor.max(2);
    // Output-capacity hint: the largest emission count any finished reduce
    // task observed, so later tasks pre-size `ctx.out`.
    let out_hint = AtomicUsize::new(0);
    let raw = pool.run_indexed(inputs, |i, runs| {
        run_attempts(
            TaskPhase::Reduce,
            i,
            config,
            store,
            recovery_secs[i],
            |res: &ReduceTaskResult<OK, OV>| {
                scheduler::io_secs(res.disk_bytes, config.disk_bytes_per_sec)
            },
            |attempt| {
                let task_start = Instant::now();
                let mut ctx = ReduceContext::with_capacity(out_hint.load(Ordering::Relaxed));
                // Opening a stored run verifies its checksum: on the pool.
                let merged = merge_to_fan_in::<K, V>(
                    pool,
                    store,
                    (TaskPhase::Reduce, i, attempt),
                    pool.run_indexed(runs, |_, run| run.run.open(store)),
                    sort_factor,
                );
                let mut merge =
                    KWayMerge::<K, V>::new(merged.runs.iter().map(|run| run.as_slice()));
                let merge_secs = task_start.elapsed().as_secs_f64();
                merge.for_each_group(|key, values| reduce_fn(key, values, &mut ctx));
                out_hint.fetch_max(ctx.out.len(), Ordering::Relaxed);
                ReduceTaskResult {
                    out: ctx.out,
                    counters: ctx.counters,
                    decode_error: merged.decode_error | merge.decode_error,
                    merge_secs,
                    merge_passes: merged.passes,
                    disk_bytes: merged.disk_bytes,
                }
            },
        )
    });
    let tasks = raw.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (results, plans): (Vec<ReduceTaskResult<OK, OV>>, Vec<TaskPlan>) =
        tasks.into_iter().unzip();
    if results.iter().any(|t| t.decode_error) {
        return Err(RuntimeError::Codec(CodecError {
            context: "shuffle stream",
        }));
    }
    Ok((results, plans))
}
