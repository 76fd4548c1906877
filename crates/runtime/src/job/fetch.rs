//! Fetch phase: routes every map task's sorted runs to its reducer, then —
//! under a fault plan that can lose or corrupt map outputs — verifies each
//! run is fetchable and re-executes the map tasks whose runs are not.

use std::collections::{BTreeSet, HashSet};

use super::map::MapTaskResult;
use super::spill::{Run, SpillStore};
use crate::cluster::ClusterConfig;
use crate::codec::checksum64;
use crate::error::RuntimeError;
use crate::fault::{FaultPlan, NodeFailure};
use crate::metrics::RecoveryStats;
use crate::scheduler::{PhaseSchedule, TaskPlan};

/// One sorted run as routed to a reducer, tagged with the map task that
/// produced it — the fault domain a fetch failure maps back to. Keeping
/// the logical `(map task, seq)` identity on every run is what lets a
/// re-executed map's output be substituted positionally, so the k-way
/// merge tie-break (run index == map-task order) is untouched by recovery.
pub(super) struct ShuffleRun {
    pub(super) run: Run,
    /// Logical map task that produced the run.
    map_task: usize,
    /// Spill sequence of the run within `(map_task, partition)`.
    seq: usize,
    /// [`checksum64`] of the payload as shipped by the map side — populated for
    /// inline runs when node faults are active (stored runs carry their
    /// checksum in the spill store); `None` means "not verified at fetch".
    checksum: Option<u64>,
}

impl ShuffleRun {
    fn is_corrupt(&self, store: &SpillStore) -> bool {
        match &self.run {
            Run::Inline(buf) => self.checksum.is_some_and(|sum| checksum64(buf) != sum),
            Run::Stored(handle) => store.read(*handle).is_err(),
        }
    }
}

/// Moves every map task's runs (no copy) to their reducers, appended in
/// map-task then spill-sequence order — the global run order the merge's
/// tie-break contract requires. `faults` is the plan when it can lose or
/// corrupt map outputs: inline runs are then checksummed at the map/reduce
/// boundary they cross, and a seeded corruption flips a byte *after* the
/// checksum is taken, so fetch verification catches it.
pub(super) fn route(
    map_results: &mut [MapTaskResult],
    reducers: usize,
    faults: Option<&FaultPlan>,
    store: &SpillStore,
) -> Vec<Vec<ShuffleRun>> {
    let mut inputs: Vec<Vec<ShuffleRun>> = (0..reducers).map(|_| Vec::new()).collect();
    for (map_task, task) in map_results.iter_mut().enumerate() {
        for (p, runs) in std::mem::take(&mut task.runs).into_iter().enumerate() {
            for (seq, mut run) in runs.into_iter().enumerate() {
                let mut checksum = None;
                if let Some(plan) = faults {
                    let corrupts = plan.corrupts_run(map_task, p, seq);
                    match &mut run {
                        Run::Inline(buf) => {
                            checksum = Some(checksum64(buf));
                            if corrupts {
                                *buf.last_mut().expect("runs are non-empty") ^= 0xFF;
                            }
                        }
                        Run::Stored(handle) if corrupts => {
                            store.corrupt(*handle, handle.len as usize - 1);
                        }
                        Run::Stored(_) => {}
                    }
                }
                inputs[p].push(ShuffleRun {
                    run,
                    map_task,
                    seq,
                    checksum,
                });
            }
        }
    }
    inputs
}

/// What fetch verification found and what recovering from it cost.
#[derive(Default)]
pub(super) struct Recovery {
    pub(super) stats: RecoveryStats,
    /// Extra simulated seconds each reducer pays before it can merge:
    /// fetch backoff plus the wait for its re-executed maps.
    pub(super) secs: Vec<f64>,
    /// `(partition, map task, retries paid)` per failed fetch group.
    pub(super) fetch_failures: Vec<(usize, usize, u64)>,
    /// `(map task, node re-executed on)` in re-execution order.
    pub(super) reexecuted: Vec<(usize, usize)>,
}

/// Initial reduce-fetch retry backoff in seconds, doubled per retry
/// (Hadoop's `mapreduce.reduce.shuffle.retry-delay.base-ms`; scaled to
/// 10 ms).
const FETCH_RETRY_INITIAL_SECS: f64 = 0.010;
/// Cap on the exponential fetch retry backoff, in seconds (scaled to
/// 80 ms).
const FETCH_RETRY_CAP_SECS: f64 = 0.080;

/// The reduce side of the fault story: before a reducer may merge, every
/// run it was promised must actually be fetchable. A run is unfetchable
/// when the node hosting its (completed) map task died after the task
/// finished, or when its payload no longer matches the checksum recorded
/// at write time. Each affected reducer pays the shuffle's capped
/// exponential fetch backoff (`fetch_retries` × min(initial·2ᵏ, cap)) plus
/// the re-executed map's duration; each lost map task is re-executed once
/// (`reexecute`), on a surviving node, and its regenerated runs are
/// substituted positionally — keyed by logical (map task, seq) — so the
/// merge order, and therefore the job output, is byte-identical to a
/// fault-free run.
///
/// `node_events` are on the job-absolute clock; `map_sched` is relative to
/// the map phase's start, `job_setup` after submission.
pub(super) fn recover(
    inputs: &mut [Vec<ShuffleRun>],
    store: &SpillStore,
    config: &ClusterConfig,
    node_events: &[NodeFailure],
    map_sched: &PhaseSchedule,
    map_plans: &[TaskPlan],
    mut reexecute: impl FnMut(usize) -> MapTaskResult,
) -> Result<Recovery, RuntimeError> {
    let mut rec = Recovery {
        secs: vec![0.0; inputs.len()],
        ..Recovery::default()
    };
    rec.stats.nodes_failed = node_events
        .iter()
        .map(|f| f.node)
        .collect::<HashSet<_>>()
        .len() as u64;
    // Map tasks whose winning attempt ran on a node that failed after the
    // attempt finished: their hosted outputs are gone. A restarting node
    // loses its local dirs too, so transient failures lose outputs just
    // like permanent ones.
    let map_start = config.job_setup.as_secs_f64();
    let lost_tasks: HashSet<usize> = (0..map_plans.len())
        .filter(|&t| {
            map_sched.winner(t).is_some_and(|w| {
                node_events
                    .iter()
                    .any(|f| f.node == w.node && f.sim_time - map_start >= w.sim_end)
            })
        })
        .collect();
    // Simulated cost of one failed fetch group: every retry of the capped
    // exponential backoff, paid before the reducer gives up and reports
    // the map output lost.
    let retry_cost: f64 = {
        let mut delay = FETCH_RETRY_INITIAL_SECS;
        let mut total = 0.0;
        for _ in 0..config.fetch_retries {
            total += delay.min(FETCH_RETRY_CAP_SECS);
            delay = (delay * 2.0).min(FETCH_RETRY_CAP_SECS);
        }
        total
    };
    let startup = config.task_startup.as_secs_f64();
    let retries = config.fetch_retries as u64;
    let mut need_reexec: BTreeSet<usize> = BTreeSet::new();
    // Verify every reducer's runs in fetch order, grouping failures per
    // (reducer, owning map task) — Hadoop reports one fetch failure per
    // map output, not per spill file.
    for (p, runs) in inputs.iter().enumerate() {
        let mut bad_tasks: BTreeSet<usize> = BTreeSet::new();
        for run in runs {
            let corrupt = run.is_corrupt(store);
            if corrupt {
                rec.stats.corrupt_runs += 1;
            }
            if corrupt || lost_tasks.contains(&run.map_task) {
                bad_tasks.insert(run.map_task);
            }
        }
        for &t in &bad_tasks {
            rec.stats.fetch_retries += retries;
            rec.secs[p] += retry_cost + startup + map_plans[t].healthy_duration;
            rec.fetch_failures.push((p, t, retries));
            need_reexec.insert(t);
        }
    }
    // Re-executions land on the first node with no permanent failure; if
    // the plan killed every node there is nowhere left to re-run lost maps.
    let reexec_node =
        (0..config.nodes).find(|&n| !node_events.iter().any(|f| f.node == n && f.permanent));
    let reexec_node = match (reexec_node, rec.fetch_failures.first()) {
        (Some(n), _) => n,
        (None, Some(&(partition, map_task, retries))) => {
            return Err(RuntimeError::FetchFailed {
                partition,
                map_task,
                retries,
            })
        }
        (None, None) => 0,
    };
    // Re-execute each lost/corrupt map task once, then substitute its
    // regenerated runs for the originals in every partition.
    for &t in &need_reexec {
        let result = reexecute(t);
        // Regenerated runs per [partition][seq].
        let mut regen: Vec<Vec<Option<Run>>> = result
            .runs
            .into_iter()
            .map(|runs| runs.into_iter().map(Some).collect())
            .collect();
        for (p, runs) in inputs.iter_mut().enumerate() {
            for run in runs.iter_mut().filter(|run| run.map_task == t) {
                run.run = regen[p][run.seq]
                    .take()
                    .expect("re-executed map regenerates every run");
                run.checksum = None;
            }
        }
        rec.stats.maps_reexecuted += 1;
        rec.reexecuted.push((t, reexec_node));
    }
    Ok(rec)
}
