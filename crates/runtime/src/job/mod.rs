//! Typed MapReduce jobs.
//!
//! A job is built with [`JobBuilder`]: a map function over whole input
//! splits (the paper's mappers each process one error-tree partition, so
//! split-level granularity is the natural unit), an optional custom
//! partitioner, and a reduce function over key-grouped values (one
//! [`Values`] per key, passed by value). Keys must
//! implement [`Wire`] + `Ord`; the shuffle physically encodes every
//! key-value pair, partitions it, and sort-merges it on the reduce side,
//! exactly mirroring Hadoop's shuffle semantics (including total ordering
//! of keys within each reduce partition).
//!
//! There is one physical shuffle, Hadoop's sort-merge, cut into five
//! phases — each a module that owns its types:
//!
//! | Phase      | Owns |
//! |------------|------|
//! | `map`    | `MapContext` (the collector), `SpillControl` (the `io.sort.mb` meter), the spill sort / combiner fold, `MapPhase` |
//! | `spill`  | `SpillStore` and its `DWR3` run frame (`codec::frame`) |
//! | `fetch`  | `ShuffleRun` routing, fetch verification, lost-map re-execution |
//! | `merge`  | `KWayMerge` (loser tree), [`Values`] (a key's values, streamed out of the merge), the ledger of the `io.sort.factor` intermediate passes, the final merge's key-range cut |
//! | `reduce` | `ReduceContext` and the reduce task body, range by range |
//!
//! This module is the driver: it validates the job, sequences the phases,
//! schedules their attempts on the simulated clock, and applies side
//! effects (trace events, metrics) in task order. It
//! never touches the codec, a sort, a merge or the spill store itself.
//! What the engine must compute is pinned by the standalone oracle
//! [`crate::reference::shuffle_reduce`].
#![warn(clippy::too_many_lines)]

mod fetch;
mod map;
mod merge;
mod reduce;
mod spill;

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::cluster::{Cluster, ClusterConfig};
use crate::codec::Wire;
use crate::error::RuntimeError;
use crate::fault::{FailureKind, NodeFailure, TaskPhase, FAIL_POINT};
use crate::metrics::{JobMetrics, SimBreakdown, TaskCost};
use crate::scheduler::{
    self, AttemptPlan, NodeEvent, NodeFaults, NodeTopology, PhaseSchedule, SpeculationPolicy,
    TaskPlan,
};
use crate::trace::{JobPhase, JobTrace, TraceEventKind};

use fetch::Recovery;
use map::MapPhase;
use spill::SpillStore;

pub use map::{default_partition, MapContext};
pub use merge::Values;
pub use reduce::ReduceContext;
pub(crate) use spill::SPILL_FRAME_BYTES;

/// Output of a finished job: reducer emissions (in reduce-partition order,
/// key-sorted within each partition) and the job's metrics.
#[derive(Debug)]
pub struct JobOutput<OK, OV> {
    /// All reducer-emitted records.
    pub pairs: Vec<(OK, OV)>,
    /// Execution metrics.
    pub metrics: JobMetrics,
}

/// Entry point for building a job.
pub struct JobBuilder {
    name: String,
}

impl JobBuilder {
    /// Starts a job definition with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder { name: name.into() }
    }

    /// Sets the map function, fixing the split and intermediate types.
    pub fn map<S, K, V, F>(self, map_fn: F) -> MapStage<S, K, V, F>
    where
        F: Fn(&S, &mut MapContext<K, V>) + Sync,
    {
        MapStage {
            name: self.name,
            map_fn,
            reducers: 1,
            partitioner: None,
            input_bytes: None,
            task_memory: None,
            combiner: None,
        }
    }
}

type Partitioner<K> = Box<dyn Fn(&K, usize) -> usize + Sync>;
type InputSize<S> = Box<dyn Fn(&S) -> u64 + Sync>;
type TaskMemory<S> = Box<dyn Fn(&S) -> u64 + Sync>;
type Combiner<K, V> = Box<dyn Fn(&K, Values<'_, K, V>) -> V + Sync>;
/// A task phase's per-task results, costs and attempt plans, positional by
/// task id — or the first task (in task order) that failed the job.
type PhaseOutcome<T> = Result<(Vec<T>, Vec<TaskCost>, Vec<TaskPlan>), RuntimeError>;

/// A job with its map stage configured.
pub struct MapStage<S, K, V, F> {
    name: String,
    map_fn: F,
    reducers: usize,
    partitioner: Option<Partitioner<K>>,
    input_bytes: Option<InputSize<S>>,
    task_memory: Option<TaskMemory<S>>,
    combiner: Option<Combiner<K, V>>,
}

impl<S, K, V, F> MapStage<S, K, V, F>
where
    S: Sync,
    K: Wire + Ord + Send,
    V: Wire + Send,
    F: Fn(&S, &mut MapContext<K, V>) + Sync,
{
    /// Sets the number of reduce tasks (default 1).
    pub fn reducers(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one reducer required");
        self.reducers = n;
        self
    }

    /// Installs a custom partitioner. The default hashes the encoded key
    /// (FNV-1a), i.e. Hadoop's `HashPartitioner`.
    pub fn partition_by(mut self, p: impl Fn(&K, usize) -> usize + Sync + 'static) -> Self {
        self.partitioner = Some(Box::new(p));
        self
    }

    /// Declares the logical HDFS size of each split so the simulated clock
    /// charges input-read time. Without it, input reads are free.
    pub fn input_bytes(mut self, f: impl Fn(&S) -> u64 + Sync + 'static) -> Self {
        self.input_bytes = Some(Box::new(f));
        self
    }

    /// Declares each map task's working-set size; tasks beyond the
    /// cluster's per-task memory budget fail the job with
    /// [`RuntimeError::TaskOutOfMemory`].
    pub fn task_memory(mut self, f: impl Fn(&S) -> u64 + Sync + 'static) -> Self {
        self.task_memory = Some(Box::new(f));
        self
    }

    /// Installs a map-side combiner (Hadoop's `Combiner`): after each map
    /// task finishes, its emitted pairs are grouped by key per partition
    /// and folded to a single value before crossing the shuffle —
    /// associative pre-aggregation that trades map CPU for shuffle bytes.
    /// The combiner takes the same [`Values`] a reduce function does,
    /// built from the task's buffered values of the key.
    pub fn combine_with(mut self, f: impl Fn(&K, Values<'_, K, V>) -> V + Sync + 'static) -> Self {
        self.combiner = Some(Box::new(f));
        self
    }

    /// Sets the reduce function, completing the job definition. It is
    /// called once per key, in key order, with the key's [`Values`];
    /// whatever it leaves unconsumed is skipped.
    pub fn reduce<OK, OV, G>(self, reduce_fn: G) -> Job<S, K, V, OK, OV, F, G>
    where
        OK: Send,
        OV: Send,
        G: Fn(&K, Values<'_, K, V>, &mut ReduceContext<OK, OV>) + Sync,
    {
        Job {
            stage: self,
            reduce_fn,
            _marker: PhantomData,
        }
    }
}

/// A fully-defined map-reduce job, ready to run.
pub struct Job<S, K, V, OK, OV, F, G> {
    stage: MapStage<S, K, V, F>,
    reduce_fn: G,
    // OK/OV only appear in `reduce_fn`'s signature via G's bound at run().
    _marker: PhantomData<fn(OK, OV)>,
}

impl<S, K, V, OK, OV, F, G> Job<S, K, V, OK, OV, F, G> {
    /// The job's display name (also its stage name in pipeline metrics and
    /// traces).
    pub fn name(&self) -> &str {
        &self.stage.name
    }
}

/// Best-effort rendering of a panic payload for error messages.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task through its attempt loop.
///
/// Each attempt executes `body` (which receives its 1-based attempt
/// number, so spill-store writes can be owner-tagged) under
/// [`catch_unwind`], so a panicking map or reduce function is an attempt
/// failure, not a process abort. A map attempt writes its spill runs to
/// `orphans`; when it crashes they are orphans and are deleted before the
/// retry (which writes under its own attempt tag) starts. A reduce attempt
/// writes nothing and passes `None`. The fault plan can additionally fail
/// attempts (without re-running `body`) and slow the task down as a
/// straggler.
///
/// Every attempt is priced by one rule: the attempt that succeeds takes
/// `slowdown × (extra_secs + price)`, where `extra_secs` is what every
/// attempt pays besides its own work (the map-side HDFS read, a reducer's
/// fetch recovery) and the price is [`TaskCost::secs`] of the cost the body
/// returns; a crashed attempt — panicked or injected — is charged
/// [`FAIL_POINT`] `×` that. No host time enters the plan.
///
/// Returns the task's value, its cost and its [`TaskPlan`] for the slot
/// simulator, or [`RuntimeError::TaskFailed`] once `max_attempts` attempts
/// have crashed.
fn run_attempts<T>(
    phase: TaskPhase,
    task: usize,
    config: &ClusterConfig,
    orphans: Option<&SpillStore>,
    extra_secs: f64,
    body: impl Fn(usize) -> (T, TaskCost),
) -> Result<(T, TaskCost, TaskPlan), RuntimeError> {
    let fault_plan = config.fault_plan.as_ref();
    let slowdown = fault_plan.map_or(1.0, |p| p.slowdown(phase, task));
    let mut failures: Vec<Option<FailureKind>> = Vec::new();
    let mut done: Option<(T, TaskCost)> = None;
    let mut last_reason = String::new();
    for attempt in 1..=config.max_attempts {
        let (value, cost) = match done.take() {
            Some(v) => v,
            None => match catch_unwind(AssertUnwindSafe(|| body(attempt))) {
                Ok(output) => output,
                Err(payload) => {
                    if let Some(store) = orphans {
                        store.remove_attempt((phase, task, attempt));
                    }
                    failures.push(Some(FailureKind::Panic));
                    last_reason = format!("panic: {}", panic_message(payload.as_ref()));
                    continue;
                }
            },
        };
        if fault_plan.is_some_and(|p| p.injects_failure(phase, task, attempt)) {
            failures.push(Some(FailureKind::Injected));
            last_reason = "injected fault".to_string();
            // The computed result survives for the retry (its spill runs
            // stay owned by the attempt that wrote them); only the
            // simulated timeline re-pays the work.
            done = Some((value, cost));
            continue;
        }
        let healthy = extra_secs + cost.secs(config.disk_bytes_per_sec);
        let effective = slowdown * healthy;
        failures.push(None);
        let attempts = failures
            .into_iter()
            .map(|failure| AttemptPlan {
                duration: failure.map_or(effective, |_| FAIL_POINT * effective),
                failure,
            })
            .collect();
        // A speculative backup lands on a healthy node: no slowdown.
        let plan = TaskPlan {
            attempts,
            healthy_duration: healthy,
        };
        return Ok((value, cost, plan));
    }
    Err(RuntimeError::TaskFailed {
        phase,
        task,
        attempts: config.max_attempts,
        reason: last_reason,
    })
}

/// Speculate once an attempt has run this multiple of the median task
/// duration.
const SPECULATIVE_SLOWDOWN: f64 = 1.5;
/// Never speculate before an attempt has run this many seconds: Hadoop's
/// 60 s floor, scaled to 50 ms like the cluster's other constants.
const SPECULATIVE_MIN_SECS: f64 = 0.05;
/// Seconds between observing an attempt's failure and launching its retry
/// (zero: Hadoop reschedules at the next heartbeat).
const RETRY_BACKOFF_SECS: f64 = 0.0;

/// The job's simulated clock: the cluster's cost constants plus the fault
/// plan's node failures, which live on the job-absolute timeline (seconds
/// from submission) and are offset into each phase's own timeline on
/// demand.
struct SimClock<'a> {
    config: &'a ClusterConfig,
    node_events: Vec<NodeFailure>,
    blacklist_after: Option<usize>,
}

impl<'a> SimClock<'a> {
    fn new(config: &'a ClusterConfig) -> Self {
        let plan = config.fault_plan.as_ref();
        SimClock {
            config,
            node_events: plan.map_or_else(Vec::new, |p| p.node_events(config.nodes)),
            blacklist_after: plan.and_then(|p| p.blacklist_after),
        }
    }

    /// Places one phase's attempt plans on its slots. `start` is the
    /// phase's offset from submission: a node that died before it is
    /// already down (its slots gone) when the phase's tasks launch.
    fn schedule(&self, phase: TaskPhase, plans: &[TaskPlan], start: f64) -> PhaseSchedule {
        let config = self.config;
        let (slots, slots_per_node) = match phase {
            TaskPhase::Map => (config.map_slots, config.maps_per_node()),
            TaskPhase::Reduce => (config.reduce_slots, config.reduces_per_node()),
        };
        let faults = NodeFaults {
            topology: NodeTopology {
                nodes: config.nodes,
                slots_per_node,
            },
            events: self
                .node_events
                .iter()
                .map(|f| NodeEvent {
                    node: f.node,
                    at: f.sim_time - start,
                    permanent: f.permanent,
                })
                .collect(),
            blacklist_after: self.blacklist_after,
        };
        scheduler::schedule_attempts_on(
            phase,
            plans,
            slots,
            config.task_startup.as_secs_f64(),
            RETRY_BACKOFF_SECS,
            config.speculative_execution.then_some(SpeculationPolicy {
                threshold: SPECULATIVE_SLOWDOWN,
                min_secs: SPECULATIVE_MIN_SECS,
            }),
            &faults,
        )
    }
}

/// Everything one finished run puts on the trace timeline.
struct Timeline<'a> {
    job: &'a str,
    clock: &'a SimClock<'a>,
    sim: &'a SimBreakdown,
    map_sched: &'a PhaseSchedule,
    reduce_sched: &'a PhaseSchedule,
    map_costs: &'a [TaskCost],
    reduce_costs: &'a [TaskCost],
    recovery: &'a Recovery,
}

impl Timeline<'_> {
    /// Emits one job phase's begin/end pair around `body`'s events and
    /// returns the phase's end — the next phase's start, so consecutive
    /// phases tile the timeline in [`SimBreakdown`]'s order.
    fn phase_span(
        &self,
        tr: &mut JobTrace,
        phase: JobPhase,
        slots: usize,
        start: f64,
        sim_secs: f64,
        body: impl FnOnce(&mut JobTrace),
    ) -> f64 {
        tr.emit(start, TraceEventKind::PhaseBegin { phase, slots });
        body(tr);
        let end = start + sim_secs;
        tr.emit(end, TraceEventKind::PhaseEnd { phase, sim_secs });
        end
    }

    /// Emits one task phase's events: wave instants, one span per attempt,
    /// a fault instant for each injected failure, and the phase's node
    /// blacklistings. `phase0` is the phase's absolute start on the trace
    /// timeline; attempt and blacklist times are phase-relative in the
    /// schedule.
    fn emit_task_phase(&self, tr: &mut JobTrace, phase: TaskPhase, phase0: f64) {
        let (sched, slots) = match phase {
            TaskPhase::Map => (self.map_sched, self.clock.config.map_slots),
            TaskPhase::Reduce => (self.reduce_sched, self.clock.config.reduce_slots),
        };
        let waves = scheduler::wave_boundaries(&sched.attempts, slots);
        for (wave, &(start, started)) in waves.iter().enumerate() {
            tr.emit(
                phase0 + start,
                TraceEventKind::Wave {
                    phase,
                    wave,
                    started,
                },
            );
        }
        for a in &sched.attempts {
            tr.emit(
                phase0 + a.sim_start,
                TraceEventKind::Attempt {
                    phase,
                    task: a.task,
                    attempt: a.attempt,
                    kind: a.kind,
                    outcome: a.outcome,
                    slot: a.slot,
                    node: a.node,
                    end: phase0 + a.sim_end,
                    failure: a.failure,
                },
            );
            if a.failure == Some(FailureKind::Injected) {
                tr.emit(
                    phase0 + a.sim_end,
                    TraceEventKind::FaultInjected {
                        phase,
                        task: a.task,
                        attempt: a.attempt,
                    },
                );
            }
        }
        for &(node, at) in &sched.blacklisted {
            tr.emit(
                phase0 + at,
                TraceEventKind::NodeBlacklisted {
                    node,
                    failures: self.clock.blacklist_after.unwrap_or(0),
                },
            );
        }
    }

    /// One batch under one lock: the job's events are contiguous in the
    /// sink, timestamped on the global sim clock. Phase starts are
    /// cumulative offsets matching [`SimBreakdown`]'s ordering, and the
    /// clock advances by exactly `sim.total()` so consecutive jobs tile
    /// the timeline the way `DriverMetrics` sums them.
    fn emit(&self, tr: &mut JobTrace) {
        let (sim, config) = (self.sim, self.clock.config);
        let t0 = tr.t0();
        tr.emit(
            t0,
            TraceEventKind::JobBegin {
                job: self.job.to_string(),
                maps: self.map_costs.len(),
                reducers: self.reduce_costs.len(),
            },
        );
        // Node failures, stamped at their plan time clamped into the job's
        // window (an event past the job end still appears, at the end, so
        // every planned failure is visible in the trace).
        let job_end = t0 + sim.total().secs();
        for f in &self.clock.node_events {
            tr.emit(
                (t0 + f.sim_time.max(0.0)).min(job_end),
                TraceEventKind::NodeDown {
                    node: f.node,
                    permanent: f.permanent,
                },
            );
        }
        let map0 = self.phase_span(tr, JobPhase::Setup, 0, t0, sim.setup, |_| {});
        let shuffle0 = self.phase_span(tr, JobPhase::Map, config.map_slots, map0, sim.map, |tr| {
            self.emit_task_phase(tr, TaskPhase::Map, map0);
            // Spill instants — only for tasks that spilled more than once
            // (the single task-end spill is the unconstrained default and
            // would only add noise), stamped at the successful attempt's
            // end, when Hadoop's spill ledger becomes visible.
            for (task, cost) in self.map_costs.iter().enumerate() {
                if cost.spills.len() > 1 {
                    let end = self.map_sched.winner(task).map_or(sim.map, |a| a.sim_end);
                    for (spill, &(runs, bytes)) in cost.spills.iter().enumerate() {
                        tr.emit(
                            map0 + end,
                            TraceEventKind::Spill {
                                task,
                                spill,
                                runs,
                                bytes,
                            },
                        );
                    }
                }
            }
        });
        let reduce0 = self.phase_span(tr, JobPhase::Shuffle, 0, shuffle0, sim.shuffle, |tr| {
            for (partition, cost) in self.reduce_costs.iter().enumerate() {
                tr.emit(
                    shuffle0,
                    TraceEventKind::ShufflePartition {
                        partition,
                        bytes: cost.fetched_bytes,
                        runs: cost.fetched_runs,
                    },
                );
            }
        });
        let slots = config.reduce_slots;
        let end = self.phase_span(tr, JobPhase::Reduce, slots, reduce0, sim.reduce, |tr| {
            self.emit_task_phase(tr, TaskPhase::Reduce, reduce0);
            self.emit_recovery_and_merges(tr, reduce0);
        });
        tr.emit(
            end,
            TraceEventKind::JobEnd {
                sim_secs: sim.total().secs(),
            },
        );
        tr.advance(sim.total().secs());
    }

    /// The reduce phase's recovery and merge-pass instants, pinned to the
    /// reducers they delayed.
    fn emit_recovery_and_merges(&self, tr: &mut JobTrace, reduce0: f64) {
        // When reducer `p`'s winning attempt started, phase-relative.
        let started = |p| self.reduce_sched.winner(p).map_or(0.0, |a| a.sim_start);
        // Fetch failures surface when the affected reducer runs; the
        // re-execution it forces is stamped at the reduce phase start (the
        // driver relaunches the map as soon as the loss is reported).
        for &(partition, map_task, retries, corrupt) in &self.recovery.fetch_failures {
            tr.emit(
                reduce0 + started(partition),
                TraceEventKind::FetchFailed {
                    partition,
                    map_task,
                    retries,
                    corrupt,
                },
            );
        }
        for &(task, node) in &self.recovery.reexecuted {
            tr.emit(reduce0, TraceEventKind::MapReexecuted { task, node });
        }
        // Intermediate merge-pass instants — only when the `io.sort.factor`
        // cap actually forced extra passes, stamped at the successful
        // attempt's start (the merges precede the reduce function).
        for (partition, cost) in self.reduce_costs.iter().enumerate() {
            for (pass, &(fan_in, bytes)) in cost.merges.iter().enumerate() {
                tr.emit(
                    reduce0 + started(partition),
                    TraceEventKind::MergePass {
                        partition,
                        pass,
                        fan_in,
                        bytes,
                    },
                );
            }
        }
    }
}

impl<S, K, V, OK, OV, F, G> Job<S, K, V, OK, OV, F, G>
where
    S: Sync,
    K: Wire + Ord + Send,
    V: Wire + Send,
    OK: Send,
    OV: Send,
    F: Fn(&S, &mut MapContext<K, V>) + Sync,
    G: Fn(&K, Values<'_, K, V>, &mut ReduceContext<OK, OV>) + Sync,
{
    /// Executes the job on `cluster` over the given input splits (one map
    /// task per split).
    ///
    /// The job and the splits are only borrowed: a driver can re-run the
    /// same job over different splits, and — more importantly — split
    /// ownership stays with the driver, so chaining stages never forces a
    /// defensive `clone()` of the input data.
    ///
    /// Successful runs append their full event timeline to the cluster's
    /// trace ([`Cluster::trace_events`]); failed runs record a single
    /// [`TraceEventKind::JobAborted`] instant carrying the error.
    pub fn run(&self, cluster: &Cluster, splits: &[S]) -> Result<JobOutput<OK, OV>, RuntimeError> {
        self.run_inner(cluster, splits).inspect_err(|err| {
            cluster.trace().instant(TraceEventKind::JobAborted {
                job: self.stage.name.clone(),
                reason: err.to_string(),
            });
        })
    }

    /// Refuses a job the cluster cannot run: no input, or a map task whose
    /// declared working set exceeds the per-task memory budget.
    fn validate(&self, cluster: &Cluster, splits: &[S]) -> Result<(), RuntimeError> {
        if splits.is_empty() {
            return Err(RuntimeError::NoInput);
        }
        let available = cluster.config().task_memory_bytes;
        let Some(mem) = &self.stage.task_memory else {
            return Ok(());
        };
        for (task, split) in splits.iter().enumerate() {
            let needed = mem(split);
            if needed > available {
                // Record *which* task the scheduler refused before the job
                // aborts, so the trace timeline explains the failure
                // instead of showing a bare job_aborted.
                cluster.trace().instant(TraceEventKind::TaskAborted {
                    job: self.stage.name.clone(),
                    phase: TaskPhase::Map,
                    task,
                    reason: format!("needs {needed} bytes, budget {available}"),
                });
                return Err(RuntimeError::TaskOutOfMemory { needed, available });
            }
        }
        Ok(())
    }

    fn run_inner(
        &self,
        cluster: &Cluster,
        splits: &[S],
    ) -> Result<JobOutput<OK, OV>, RuntimeError> {
        self.validate(cluster, splits)?;
        let job_start = Instant::now();
        let config = cluster.config();
        let stage = &self.stage;
        // All task bodies — map attempts, reduce attempts, mid-task spill
        // sorts, run opens, final-merge key ranges — execute on the cluster's
        // thread pool. Results are always collected positionally by
        // task id, so the pool's completion order never leaks into output,
        // metrics, or traces.
        let pool = cluster.executor();
        // Per-job spill storage: runs written by budget-crossing map tasks.
        let store = SpillStore::new(config.spill_backend);
        let clock = SimClock::new(config);
        let setup_secs = config.job_setup.as_secs_f64();

        // ---- Map ----
        let map = MapPhase::new(stage, config, pool, &store);
        let (mut map_results, mut map_costs, map_plans) = map.run(splits)?;
        // Scheduled *before* the shuffle because fetch recovery needs to
        // know which node hosted each map task's winning attempt.
        let map_sched = clock.schedule(TaskPhase::Map, &map_plans, setup_secs);

        // ---- Shuffle: route, then verify and recover ----
        // Fetch-side verification and recovery only engage when the plan
        // can actually lose or corrupt map outputs.
        let node_faults = config.fault_plan.as_ref().filter(|p| p.has_node_faults());
        let mut inputs = fetch::route(&mut map_results, stage.reducers, node_faults, &store);
        let recovery = match node_faults {
            Some(_) => fetch::recover(
                &mut inputs,
                &store,
                config,
                &clock.node_events,
                &map_sched,
                &map_plans,
                |t| {
                    // A re-execution writes the task's spills again.
                    let (result, cost) = map.run_task(t, &splits[t], config.max_attempts + 1);
                    map_costs[t].spilled_bytes += cost.spilled_bytes;
                    result
                },
            )?,
            None => Recovery {
                secs: vec![0.0; stage.reducers],
                ..Recovery::default()
            },
        };

        // ---- Reduce ----
        let (mut reduce_results, reduce_costs, reduce_plans) = reduce::run_phase(
            pool,
            &store,
            config,
            &self.reduce_fn,
            &inputs,
            &recovery.secs,
        )?;
        // Recovery substitutes byte-identical runs, so what a reducer
        // fetched is what the map side routed to it.
        let shuffle_secs = reduce_costs
            .iter()
            .map(|c| c.fetched_bytes as f64 / config.shuffle_bytes_per_sec)
            .fold(0.0, f64::max);
        let reduce_start = setup_secs + map_sched.makespan + shuffle_secs;
        let reduce_sched = clock.schedule(TaskPhase::Reduce, &reduce_plans, reduce_start);
        let sim = SimBreakdown {
            setup: setup_secs,
            map: map_sched.makespan,
            shuffle: shuffle_secs,
            reduce: reduce_sched.makespan,
        };

        // ---- Side effects, in task order: trace, metrics ----
        let timeline = Timeline {
            job: &stage.name,
            clock: &clock,
            sim: &sim,
            map_sched: &map_sched,
            reduce_sched: &reduce_sched,
            map_costs: &map_costs,
            reduce_costs: &reduce_costs,
            recovery: &recovery,
        };
        cluster.trace().job_scope(|tr| timeline.emit(tr));

        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        let task_counters = map_results
            .iter()
            .map(|t| &t.counters)
            .chain(reduce_results.iter().map(|t| &t.counters));
        for (name, delta) in task_counters.flatten() {
            *counters.entry(*name).or_insert(0) += delta;
        }
        // Reducers in partition order, each one's key ranges in key order.
        let mut pairs = Vec::with_capacity(reduce_costs.iter().map(|c| c.records as usize).sum());
        for range in reduce_results.iter_mut().flat_map(|t| &mut t.out) {
            pairs.append(range);
        }
        let metrics = JobMetrics {
            name: stage.name.clone(),
            map_task_secs: map_results.iter().map(|t| t.task_secs).collect(),
            reduce_task_secs: reduce_results.iter().map(|t| t.task_secs).collect(),
            spill_secs: map_results.iter().map(|t| t.spill_secs).collect(),
            merge_secs: reduce_results.iter().map(|t| t.merge_secs).collect(),
            input_bytes: stage
                .input_bytes
                .as_ref()
                .map_or(0, |f| splits.iter().map(f).sum()),
            output_records: pairs.len() as u64,
            sim,
            real_elapsed: job_start.elapsed(),
            counters,
            ..JobMetrics::with_costs(map_costs, reduce_costs)
        };
        Ok(JobOutput { pairs, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn small_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_millis(1);
        cfg.job_setup = std::time::Duration::from_millis(1);
        Cluster::new(cfg)
    }

    #[test]
    fn word_count() {
        let cluster = small_cluster();
        let splits: Vec<Vec<u32>> = vec![vec![1, 2, 1], vec![2, 2, 3]];
        let out = JobBuilder::new("wc")
            .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                for &w in split {
                    ctx.emit(w, 1);
                }
            })
            .reducers(2)
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| {
                ctx.emit(*k, vals.sum());
            })
            .run(&cluster, &splits)
            .unwrap();
        let mut pairs = out.pairs;
        pairs.sort();
        assert_eq!(pairs, vec![(1, 2), (2, 3), (3, 1)]);
        assert_eq!(out.metrics.shuffle_records, 6);
        // 6 records × (4-byte key + 8-byte value).
        assert_eq!(out.metrics.shuffle_bytes, 6 * 12);
        assert_eq!(out.metrics.map_tasks(), 2);
        assert_eq!(out.metrics.reduce_tasks(), 2);
        assert_eq!(out.metrics.name, "wc");
    }

    #[test]
    fn keys_arrive_sorted_within_partition() {
        let cluster = small_cluster();
        let splits: Vec<Vec<i64>> = vec![vec![5, -3, 9], vec![0, 7, -8]];
        let out = JobBuilder::new("sorted")
            .map(|split: &Vec<i64>, ctx: &mut MapContext<i64, ()>| {
                for &x in split {
                    ctx.emit(x, ());
                }
            })
            .partition_by(|_, _| 0)
            .reduce(|k, _vals, ctx: &mut ReduceContext<i64, ()>| {
                ctx.emit(*k, ());
            })
            .run(&cluster, &splits)
            .unwrap();
        let keys: Vec<i64> = out.pairs.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![-8, -3, 0, 5, 7, 9]);
    }

    #[test]
    fn custom_partitioner_routes_keys() {
        let cluster = small_cluster();
        let splits: Vec<Vec<u32>> = vec![(0..10).collect()];
        let out = JobBuilder::new("routed")
            .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u32>| {
                for &x in split {
                    ctx.emit(x, x);
                }
            })
            .reducers(2)
            .partition_by(|k, r| (*k as usize) % r)
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, u32>| {
                assert_eq!(vals.count(), 1);
                ctx.emit(*k, 0);
            })
            .run(&cluster, &splits)
            .unwrap();
        // Partition 0 gets evens (sorted), partition 1 odds.
        let keys: Vec<u32> = out.pairs.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 2, 4, 6, 8, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn counters_merge_across_tasks() {
        let cluster = small_cluster();
        let splits: Vec<u32> = vec![3, 4];
        let out = JobBuilder::new("counters")
            .map(|split: &u32, ctx: &mut MapContext<u8, u8>| {
                ctx.add_counter("seen", u64::from(*split));
                ctx.emit(0, 0);
            })
            .reduce(|_k, vals, ctx: &mut ReduceContext<u8, u8>| {
                ctx.add_counter("groups", 1);
                ctx.emit(0, vals.count() as u8);
            })
            .run(&cluster, &splits)
            .unwrap();
        assert_eq!(out.metrics.counter("seen"), 7);
        assert_eq!(out.metrics.counter("groups"), 1);
        assert_eq!(out.pairs, vec![(0, 2)]);
    }

    #[test]
    fn empty_split_list_is_error() {
        let cluster = small_cluster();
        let result = JobBuilder::new("none")
            .map(|_s: &u8, _ctx: &mut MapContext<u8, u8>| {})
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[]);
        assert!(matches!(result, Err(RuntimeError::NoInput)));
    }

    #[test]
    fn input_bytes_charged_to_sim_clock() {
        let mut cfg = ClusterConfig::with_slots(1, 1);
        cfg.task_startup = std::time::Duration::ZERO;
        cfg.job_setup = std::time::Duration::ZERO;
        cfg.hdfs_bytes_per_sec = 1000.0;
        let cluster = Cluster::new(cfg);
        let out = JobBuilder::new("io")
            .map(|_s: &u8, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .input_bytes(|_| 500)
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[1u8])
            .unwrap();
        assert_eq!(out.metrics.input_bytes, 500);
        // 500 bytes at 1000 B/s = 0.5 s of simulated map time.
        assert!(out.metrics.sim.map >= 0.5);
    }

    #[test]
    fn waves_counted() {
        let cluster = {
            let mut cfg = ClusterConfig::with_slots(2, 1);
            cfg.task_startup = std::time::Duration::ZERO;
            Cluster::new(cfg)
        };
        let splits: Vec<u8> = vec![0; 5];
        JobBuilder::new("waves")
            .map(|_s: &u8, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &splits)
            .unwrap();
        let waves = cluster
            .trace_events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::Wave {
                        phase: TaskPhase::Map,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(waves, 3);
    }

    #[test]
    fn deterministic_output_across_runs() {
        let run_once = || {
            let cluster = small_cluster();
            let splits: Vec<Vec<u32>> = (0..8).map(|i| vec![i, i + 1, i * 7 % 5]).collect();
            JobBuilder::new("det")
                .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u32>| {
                    for &x in split {
                        ctx.emit(x % 4, x);
                    }
                })
                .reducers(3)
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, u32>| {
                    ctx.emit(*k, vals.sum());
                })
                .run(&cluster, &splits)
                .unwrap()
                .pairs
        };
        assert_eq!(run_once(), run_once());
    }
}

#[cfg(test)]
mod combiner_tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn small_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_millis(1);
        cfg.job_setup = std::time::Duration::from_millis(1);
        Cluster::new(cfg)
    }

    #[test]
    fn combiner_preserves_result_and_cuts_shuffle() {
        let splits: Vec<Vec<u32>> = (0..4)
            .map(|s| (0..1000).map(|i| (s + i) % 7).collect())
            .collect();
        let run = |with_combiner: bool| {
            let cluster = small_cluster();
            let stage = JobBuilder::new("wc")
                .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                    for &w in split {
                        ctx.emit(w, 1);
                    }
                })
                .reducers(2);
            let stage = if with_combiner {
                stage.combine_with(|_k, vals: Values<'_, u32, u64>| vals.sum())
            } else {
                stage
            };
            let out = stage
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| {
                    ctx.emit(*k, vals.sum());
                })
                .run(&cluster, &splits)
                .unwrap();
            let mut pairs = out.pairs;
            pairs.sort();
            (
                pairs,
                out.metrics.shuffle_bytes,
                out.metrics.shuffle_records,
            )
        };
        let (plain, plain_bytes, plain_records) = run(false);
        let (combined, combined_bytes, combined_records) = run(true);
        assert_eq!(plain, combined, "combiner changed the result");
        assert_eq!(plain_records, 4000);
        // 7 distinct keys x 4 tasks: at most 28 records after combining.
        assert!(combined_records <= 28, "records {combined_records}");
        assert!(
            combined_bytes * 10 < plain_bytes,
            "{combined_bytes} vs {plain_bytes}"
        );
    }

    #[test]
    fn bad_partitioner_is_typed_error_not_panic() {
        let cluster = small_cluster();
        let result = JobBuilder::new("bad")
            .map(|_s: &u8, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .reducers(2)
            .partition_by(|_, _| 7)
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[1u8]);
        assert!(matches!(
            result,
            Err(RuntimeError::BadPartitioner {
                partition: 7,
                reducers: 2
            })
        ));
    }

    #[test]
    fn task_memory_budget_enforced() {
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.task_memory_bytes = 1000;
        let cluster = Cluster::new(cfg);
        let result = JobBuilder::new("oom")
            .map(|_s: &u8, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .task_memory(|_| 2000)
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[1u8]);
        assert!(matches!(
            result,
            Err(RuntimeError::TaskOutOfMemory {
                needed: 2000,
                available: 1000
            })
        ));
        // Within budget: runs.
        let ok = JobBuilder::new("fits")
            .map(|_s: &u8, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .task_memory(|_| 500)
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[1u8]);
        assert!(ok.is_ok());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fault::FaultPlan;
    use crate::metrics::{AttemptKind, AttemptOutcome, TaskAttempt};
    use crate::trace::summary::{self, RecoveryCounts, StageSummary};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn faulty_cluster(plan: FaultPlan) -> Cluster {
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.task_startup = std::time::Duration::from_millis(1);
        cfg.job_setup = std::time::Duration::from_millis(1);
        cfg.fault_plan = Some(plan);
        Cluster::new(cfg)
    }

    /// The trace's row of the one job `cluster` ran.
    fn row(cluster: &Cluster) -> StageSummary {
        let mut rows = summary::per_stage(&cluster.trace_events());
        assert_eq!(rows.len(), 1, "one job ran");
        rows.remove(0)
    }

    fn sum_job(cluster: &Cluster, splits: &[u64]) -> Result<JobOutput<u8, u64>, RuntimeError> {
        JobBuilder::new("sum")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
            .run(cluster, splits)
    }

    #[test]
    fn injected_failures_recover_with_identical_output() {
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2, 3, 4]).unwrap();
        let plan = FaultPlan::seeded(0)
            .with_targeted(TaskPhase::Map, 1, vec![1, 2])
            .with_targeted(TaskPhase::Reduce, 0, vec![1]);
        let cluster = faulty_cluster(plan);
        let faulty = sum_job(&cluster, &[1, 2, 3, 4]).unwrap();
        assert_eq!(clean.pairs, faulty.pairs);
        let r = row(&cluster);
        assert_eq!((r.map.failed, r.reduce.failed), (2, 1));
        assert_eq!((r.map.retried, r.reduce.retried), (2, 1));
        assert!(r.map.wasted_secs > 0.0 && r.reduce.wasted_secs > 0.0);
        assert!(faulty.metrics.simulated() > clean.metrics.simulated());
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        let plan = FaultPlan::seeded(0).with_targeted(TaskPhase::Map, 0, vec![1, 2, 3, 4]);
        let err = sum_job(&faulty_cluster(plan), &[1, 2]).unwrap_err();
        match err {
            RuntimeError::TaskFailed {
                phase,
                task,
                attempts,
                reason,
            } => {
                assert_eq!(phase, TaskPhase::Map);
                assert_eq!(task, 0);
                assert_eq!(attempts, 4);
                assert!(reason.contains("injected"), "reason: {reason}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn panicking_map_fn_is_retried_then_fails_typed() {
        // Deterministic panic: every attempt crashes, so the job fails
        // with a typed error after max_attempts tries.
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.max_attempts = 2;
        let cluster = Cluster::new(cfg);
        let calls = AtomicUsize::new(0);
        let result = JobBuilder::new("boom")
            .map(|_s: &u8, _ctx: &mut MapContext<u8, u8>| {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("kaboom");
            })
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[1u8]);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one execution per attempt");
        match result {
            Err(RuntimeError::TaskFailed {
                phase,
                attempts,
                reason,
                ..
            }) => {
                assert_eq!(phase, TaskPhase::Map);
                assert_eq!(attempts, 2);
                assert!(reason.contains("kaboom"), "reason: {reason}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn panicking_task_recovers_when_attempts_remain() {
        // Panics on the first call for each task, succeeds on the retry.
        let cluster = Cluster::new(ClusterConfig::with_slots(2, 1));
        let calls = AtomicUsize::new(0);
        let out = JobBuilder::new("flaky")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                ctx.emit(0, *s)
            })
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
            .run(&cluster, &[41u64])
            .unwrap();
        assert_eq!(out.pairs, vec![(0, 41)]);
        let r = row(&cluster);
        assert_eq!((r.map.failed, r.map.retried), (1, 1));
    }

    #[test]
    fn straggler_slows_simulated_clock_only() {
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2]).unwrap();
        let plan = FaultPlan::seeded(0).with_straggler(TaskPhase::Map, 0, 50.0);
        let cluster = faulty_cluster(plan);
        let slow = sum_job(&cluster, &[1, 2]).unwrap();
        assert_eq!(clean.pairs, slow.pairs);
        // The straggler did the same work; only its simulated time grew.
        assert_eq!(clean.metrics.map_costs, slow.metrics.map_costs);
        let disk = ClusterConfig::default().disk_bytes_per_sec;
        let price = clean.metrics.map_costs[0].secs(disk);
        let startup = 0.001;
        assert_eq!(clean.metrics.sim.map, startup + price);
        // 50 x a sub-microsecond task stays under the 50 ms speculation
        // floor: no backup, the straggler runs to its end.
        assert_eq!(slow.metrics.sim.map, startup + 50.0 * price);
        assert_eq!(row(&cluster).map.speculative, 0);
    }

    #[test]
    fn node_kill_after_maps_reexecutes_with_identical_output() {
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2, 3, 4]).unwrap();
        // Node 0 dies long after every map attempt has finished: no attempt
        // is cut, but the outputs it hosted are gone when reducers fetch.
        let plan = FaultPlan::seeded(0).with_node_failure(0, 1000.0);
        let cluster = faulty_cluster(plan);
        let out = sum_job(&cluster, &[1, 2, 3, 4]).unwrap();
        assert_eq!(clean.pairs, out.pairs, "recovery must be byte-identical");
        let rec = row(&cluster).recovery;
        assert_eq!(rec.nodes_failed, 1);
        assert!(rec.maps_reexecuted >= 1);
        assert!(rec.fetch_retries > 0);
        assert_eq!(rec.corrupt_runs, 0);
        // Fetch backoff plus the re-executed map show up on the clock.
        assert!(out.metrics.simulated() > clean.metrics.simulated());
        // The trace tells the whole story and stays well-formed.
        let events = cluster.trace_events();
        crate::trace::validate(&events).expect("recovery timeline is well-formed");
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::NodeDown {
                node: 0,
                permanent: true,
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FetchFailed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::MapReexecuted { .. })));
    }

    #[test]
    fn transient_node_restart_loses_outputs_but_recovers() {
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2, 3, 4]).unwrap();
        // A tasktracker restart wipes local dirs: hosted map outputs are
        // lost even though the node keeps accepting placements.
        let plan = FaultPlan::seeded(0).with_transient_node_failure(0, 1000.0);
        let cluster = faulty_cluster(plan);
        let out = sum_job(&cluster, &[1, 2, 3, 4]).unwrap();
        assert_eq!(clean.pairs, out.pairs);
        let rec = row(&cluster).recovery;
        assert_eq!(rec.nodes_failed, 1);
        assert!(rec.maps_reexecuted >= 1);
        let events = cluster.trace_events();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::NodeDown {
                node: 0,
                permanent: false,
                ..
            }
        )));
    }

    #[test]
    fn corrupt_run_is_detected_and_reexecuted() {
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2, 3, 4]).unwrap();
        let plan = FaultPlan::seeded(0).with_corrupt_run(0);
        let cluster = faulty_cluster(plan);
        let out = sum_job(&cluster, &[1, 2, 3, 4]).unwrap();
        assert_eq!(clean.pairs, out.pairs, "corruption must not reach output");
        let rec = row(&cluster).recovery;
        assert!(rec.corrupt_runs >= 1);
        assert!(rec.maps_reexecuted >= 1);
        assert_eq!(rec.nodes_failed, 0, "no node died");
        let events = cluster.trace_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FetchFailed { map_task: 0, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::MapReexecuted { task: 0, .. })));
    }

    #[test]
    fn node_kill_with_corruption_recovers_both() {
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2, 3, 4]).unwrap();
        let plan = FaultPlan::seeded(0)
            .with_node_failure(1, 1000.0)
            .with_corrupt_run(0);
        let cluster = faulty_cluster(plan);
        let out = sum_job(&cluster, &[1, 2, 3, 4]).unwrap();
        assert_eq!(clean.pairs, out.pairs);
        let rec = row(&cluster).recovery;
        assert_eq!(rec.nodes_failed, 1);
        assert!(rec.corrupt_runs >= 1);
        // Both the corrupt task and the killed node's tasks re-execute.
        assert!(rec.maps_reexecuted >= 2);
    }

    #[test]
    fn healthy_run_has_zero_recovery_counters() {
        let cluster = faulty_cluster(FaultPlan::seeded(0));
        sum_job(&cluster, &[1, 2, 3]).unwrap();
        assert_eq!(row(&cluster).recovery, RecoveryCounts::default());
    }

    #[test]
    fn blacklisted_node_is_counted_and_traced() {
        // One injected failure with a threshold of 1: whichever node hosted
        // the failed attempt is blacklisted, and the retry lands elsewhere.
        let plan = FaultPlan::seeded(0)
            .with_targeted(TaskPhase::Map, 0, vec![1])
            .with_blacklist_after(1);
        let cluster = faulty_cluster(plan);
        let clean = sum_job(&faulty_cluster(FaultPlan::seeded(0)), &[1, 2, 3, 4]).unwrap();
        let out = sum_job(&cluster, &[1, 2, 3, 4]).unwrap();
        assert_eq!(clean.pairs, out.pairs);
        assert_eq!(row(&cluster).recovery.nodes_blacklisted, 1);
        let events = cluster.trace_events();
        crate::trace::validate(&events).expect("blacklist timeline is well-formed");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::NodeBlacklisted { failures: 1, .. })));
    }

    /// The trace's attempt and recovery counts against their definitions
    /// over what the engine decided: each cell's phases are driven again by
    /// hand, as `run_inner` drives them, and the counts are taken from both
    /// phases' scheduled attempts and from what `fetch::recover` returned.
    #[test]
    fn trace_counts_match_the_schedules_and_the_recovery_across_a_fault_grid() {
        let grid = [
            FaultPlan::seeded(3)
                .with_targeted(TaskPhase::Map, 1, vec![1])
                .with_targeted(TaskPhase::Reduce, 0, vec![1]),
            FaultPlan::seeded(3).with_straggler(TaskPhase::Map, 0, 6.0),
            FaultPlan::seeded(3)
                .with_node_failure(1, 1000.0)
                .with_corrupt_run(0),
            FaultPlan::seeded(3)
                .with_targeted(TaskPhase::Map, 0, vec![1])
                .with_blacklist_after(1),
        ];
        let job = JobBuilder::new("grid")
            .map(|s: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(s % 3, *s))
            .input_bytes(|_| 8 * 1024)
            .reducers(2)
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, u64>| ctx.emit(*k, vals.sum()));
        let splits: Vec<u64> = (0..8).collect();
        let mut exercised = [0; 4];
        for plan in grid {
            let mut cfg = ClusterConfig::with_slots(4, 2);
            // 100 ms of HDFS read per split: the straggler outruns the
            // speculation floor.
            cfg.hdfs_bytes_per_sec = 80.0 * 1024.0;
            cfg.fault_plan = Some(plan);
            let cluster = Cluster::new(cfg);
            job.run(&cluster, &splits).unwrap();
            let row = row(&cluster);

            let config = cluster.config();
            let (pool, store) = (cluster.executor(), SpillStore::new(config.spill_backend));
            let clock = SimClock::new(config);
            let setup = config.job_setup.as_secs_f64();
            let map = MapPhase::new(&job.stage, config, pool, &store);
            let (mut results, _, map_plans) = map.run(&splits).unwrap();
            let map_sched = clock.schedule(TaskPhase::Map, &map_plans, setup);
            let faults = config.fault_plan.as_ref().filter(|p| p.has_node_faults());
            let mut inputs = fetch::route(&mut results, 2, faults, &store);
            let corrupt = inputs.iter().flatten().filter(|r| r.is_corrupt(&store));
            let corrupt_runs = corrupt.count() as u64;
            let rec = match faults {
                Some(_) => fetch::recover(
                    &mut inputs,
                    &store,
                    config,
                    &clock.node_events,
                    &map_sched,
                    &map_plans,
                    |t| map.run_task(t, &splits[t], config.max_attempts + 1).0,
                )
                .unwrap(),
                None => Recovery {
                    secs: vec![0.0; 2],
                    ..Recovery::default()
                },
            };
            let (_, costs, plans) =
                reduce::run_phase(pool, &store, config, &job.reduce_fn, &inputs, &rec.secs)
                    .unwrap();
            let shuffle = costs
                .iter()
                .map(|c| c.fetched_bytes as f64 / config.shuffle_bytes_per_sec)
                .fold(0.0, f64::max);
            let reduce_start = setup + map_sched.makespan + shuffle;
            let reduce_sched = clock.schedule(TaskPhase::Reduce, &plans, reduce_start);

            for (used, sched) in [(row.map, &map_sched), (row.reduce, &reduce_sched)] {
                let count = |hit: &dyn Fn(&TaskAttempt) -> bool| {
                    sched.attempts.iter().filter(|a| hit(a)).count()
                };
                assert_eq!(used.attempts, sched.attempts.len());
                assert_eq!(used.failed, count(&|a| a.outcome == AttemptOutcome::Failed));
                assert_eq!(used.retried, count(&|a| a.kind == AttemptKind::Retry));
                let speculative = count(&|a| a.kind == AttemptKind::Speculative);
                assert_eq!(used.speculative, speculative);
                let wasted: f64 = sched
                    .attempts
                    .iter()
                    .filter(|a| a.outcome != AttemptOutcome::Succeeded)
                    .map(|a| a.sim_end - a.sim_start)
                    .sum();
                assert!((used.wasted_secs - wasted).abs() <= 1e-9, "{wasted}");
                exercised[0] += used.failed;
                exercised[1] += used.speculative;
            }
            let down: std::collections::BTreeSet<usize> =
                clock.node_events.iter().map(|f| f.node).collect();
            let blacklisted = map_sched.blacklisted.len() + reduce_sched.blacklisted.len();
            let expected = RecoveryCounts {
                nodes_down: clock.node_events.len(),
                permanent: clock.node_events.iter().filter(|f| f.permanent).count(),
                nodes_failed: down.len(),
                fetch_failures: rec.fetch_failures.len(),
                fetch_retries: rec.fetch_failures.iter().map(|f| f.2).sum(),
                corrupt_runs,
                maps_reexecuted: rec.reexecuted.len(),
                nodes_blacklisted: blacklisted,
            };
            assert_eq!(row.recovery, expected);
            exercised[2] += expected.nodes_failed * expected.corrupt_runs as usize;
            exercised[3] += blacklisted;
        }
        // Every cell's fault took effect.
        assert!(exercised.iter().all(|&n| n > 0), "{exercised:?}");
    }

    #[test]
    fn plan_killing_every_node_is_rejected_at_config_validation() {
        let mut plan = FaultPlan::seeded(0);
        let mut cfg = ClusterConfig::with_slots(2, 1);
        for n in 0..cfg.nodes {
            plan = plan.with_node_failure(n, 0.5);
        }
        cfg.fault_plan = Some(plan);
        let err = Cluster::try_new(cfg).unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidConfig(_)),
            "expected InvalidConfig, got {err:?}"
        );
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::reference::shuffle_reduce;

    #[test]
    fn shuffle_paths_agree_with_and_without_combiner() {
        // The engine against the oracle: identical pairs, bytes, records.
        let splits: Vec<Vec<u32>> = vec![vec![9, 1, 9, 4], vec![4, 4, 2], vec![], vec![9]];
        let sum = |_k: &u32, vals: Values<'_, u32, u64>| vals.sum::<u64>();
        let reduce = |k: &u32, vals: Values<'_, u32, u64>, ctx: &mut ReduceContext<u32, u64>| {
            ctx.emit(*k, vals.sum())
        };
        for combine in [false, true] {
            let mut cfg = ClusterConfig::with_slots(4, 2);
            cfg.task_startup = std::time::Duration::from_millis(1);
            cfg.job_setup = std::time::Duration::from_millis(1);
            let mut stage = JobBuilder::new("paths")
                .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                    for &x in split {
                        ctx.emit(x, u64::from(x));
                    }
                })
                .reducers(2);
            if combine {
                stage = stage.combine_with(sum);
            }
            let engine = stage
                .reduce(reduce)
                .run(&Cluster::new(cfg), &splits)
                .unwrap();
            let emitted: Vec<Vec<(u32, u64)>> = splits
                .iter()
                .map(|s| s.iter().map(|&x| (x, u64::from(x))).collect())
                .collect();
            let (pairs, bytes, records) =
                shuffle_reduce(&emitted, 2, if combine { Some(&sum) } else { None }, reduce);
            assert_eq!(engine.pairs, pairs, "combine={combine}");
            assert_eq!(
                engine.metrics.shuffle_bytes,
                bytes.iter().sum::<u64>(),
                "combine={combine}"
            );
            assert_eq!(engine.metrics.shuffle_records, records);
            // One cost per map task and per reducer.
            assert_eq!(engine.metrics.map_costs.len(), 4);
            assert_eq!(engine.metrics.reduce_costs.len(), 2);
        }
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SpillBackend};
    use crate::fault::FaultPlan;
    use crate::trace::summary;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn quiet_cluster() -> ClusterConfig {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::ZERO;
        cfg.job_setup = std::time::Duration::ZERO;
        cfg
    }

    fn big_splits() -> Vec<Vec<u32>> {
        (0..4)
            .map(|s| (0..200u32).map(|i| (s * 37 + i * 13) % 50).collect())
            .collect()
    }

    fn sum_job(cluster: &Cluster, splits: &[Vec<u32>]) -> JobOutput<u32, u64> {
        JobBuilder::new("spill")
            .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                for &x in split {
                    ctx.emit(x, u64::from(x) * 3 + 1);
                }
            })
            .reducers(3)
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| ctx.emit(*k, vals.sum()))
            .run(cluster, splits)
            .unwrap()
    }

    /// Regression test: a job that errors out mid-flight (attempt
    /// exhaustion, bad partitioner) after other tasks already spilled to
    /// disk must not leak its `dwmaxerr-spill-*` temp dir — the store
    /// drops with the early return. Leaks are detected by diffing the temp
    /// dir against a pre-test snapshot; concurrent tests' live stores are
    /// transient, so the check retries before declaring a leak.
    #[test]
    fn disk_spill_dirs_are_removed_on_abort_paths() {
        let prefix = format!("dwmaxerr-spill-{}-", std::process::id());
        let snapshot = || -> std::collections::BTreeSet<PathBuf> {
            std::fs::read_dir(std::env::temp_dir())
                .map(|rd| {
                    rd.filter_map(|e| e.ok().map(|e| e.path()))
                        .filter(|p| {
                            p.file_name()
                                .and_then(|n| n.to_str())
                                .is_some_and(|n| n.starts_with(&prefix))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let before = snapshot();

        // Attempt exhaustion: task 0 fails every attempt while the other
        // tasks spill many runs to disk, then the job errors.
        let splits = big_splits();
        let mut cfg = quiet_cluster();
        cfg.io_sort_bytes = 256;
        cfg.spill_backend = SpillBackend::Disk;
        cfg.fault_plan =
            Some(FaultPlan::seeded(0).with_targeted(TaskPhase::Map, 0, vec![1, 2, 3, 4]));
        let err = JobBuilder::new("doomed-spill")
            .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                for &x in split {
                    ctx.emit(x, u64::from(x));
                }
            })
            .reducers(3)
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| ctx.emit(*k, vals.sum()))
            .run(&Cluster::new(cfg), &splits)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::TaskFailed { .. }));

        // Bad partitioner: deterministic abort right after the map phase,
        // again with disk spills already written.
        let mut cfg = quiet_cluster();
        cfg.io_sort_bytes = 256;
        cfg.spill_backend = SpillBackend::Disk;
        let err = JobBuilder::new("bad-part-spill")
            .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                for &x in split {
                    ctx.emit(x, u64::from(x));
                }
            })
            .reducers(3)
            .partition_by(|_k, _parts| 99)
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| ctx.emit(*k, vals.sum()))
            .run(&Cluster::new(cfg), &splits)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadPartitioner { .. }));

        let mut leaked: Vec<PathBuf> = snapshot().difference(&before).cloned().collect();
        for _ in 0..100 {
            if leaked.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            leaked = snapshot().difference(&before).cloned().collect();
        }
        assert!(leaked.is_empty(), "leaked spill dirs: {leaked:?}");
    }

    #[test]
    fn budget_spills_keep_output_identical() {
        let splits = big_splits();
        // Unconstrained: every task spills once, fully in memory.
        let unconstrained = sum_job(&Cluster::new(quiet_cluster()), &splits);
        assert!(unconstrained
            .metrics
            .map_costs
            .iter()
            .all(|c| c.spills.len() == 1));
        assert!(unconstrained.metrics.merge_passes.iter().all(|&p| p == 0));
        assert_eq!(unconstrained.metrics.disk_spill_bytes(), 0);
        assert_eq!(unconstrained.metrics.disk_merge_bytes(), 0);
        for backend in [SpillBackend::Memory, SpillBackend::Disk] {
            // 12-byte pairs against a 256-byte budget: each 200-record task
            // is forced through many external spill passes, and fan-in 2
            // prices intermediate reduce merges.
            let mut cfg = quiet_cluster();
            cfg.io_sort_bytes = 256;
            cfg.io_sort_factor = 2;
            cfg.spill_backend = backend;
            let cluster = Cluster::new(cfg);
            let constrained = sum_job(&cluster, &splits);
            assert_eq!(constrained.pairs, unconstrained.pairs, "{backend:?}");
            assert_eq!(
                constrained.metrics.shuffle_bytes,
                unconstrained.metrics.shuffle_bytes
            );
            assert_eq!(
                constrained.metrics.shuffle_records,
                unconstrained.metrics.shuffle_records
            );
            assert!(
                constrained
                    .metrics
                    .map_costs
                    .iter()
                    .all(|c| c.spills.len() > 1),
                "map costs {:?}",
                constrained.metrics.map_costs
            );
            assert!(constrained
                .metrics
                .spill_runs
                .iter()
                .zip(&unconstrained.metrics.spill_runs)
                .all(|(&c, &u)| c > u));
            assert!(
                constrained.metrics.merge_passes.iter().all(|&p| p >= 1),
                "merge_passes {:?}",
                constrained.metrics.merge_passes
            );
            assert!(constrained.metrics.disk_spill_bytes() > 0);
            assert!(constrained.metrics.disk_merge_bytes() > 0);
            crate::trace::validate(&cluster.trace_events()).unwrap();
            // The trace carries the spill / merge-pass story.
            let events = cluster.trace_events();
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::Spill { .. })));
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::MergePass { .. })));
        }
    }

    /// The reduce phase only reads the spill store, even when its ledger
    /// prices intermediate merge passes: on either backend the store has
    /// issued no run id, and holds no run, beyond what the map side wrote,
    /// and the output is the job's.
    #[test]
    fn reduce_phase_with_merge_passes_writes_nothing_to_the_spill_store() {
        let splits = big_splits();
        for backend in [SpillBackend::Memory, SpillBackend::Disk] {
            let mut cfg = quiet_cluster();
            cfg.io_sort_bytes = 256;
            cfg.io_sort_factor = 2;
            cfg.spill_backend = backend;
            let cluster = Cluster::new(cfg);
            let (config, pool) = (cluster.config(), cluster.executor());
            let job = JobBuilder::new("spill")
                .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                    for &x in split {
                        ctx.emit(x, u64::from(x) * 3 + 1);
                    }
                })
                .reducers(3)
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| ctx.emit(*k, vals.sum()));
            let store = SpillStore::new(backend);
            let map = MapPhase::new(&job.stage, config, pool, &store);
            let (mut map_results, _, _) = map.run(&splits).unwrap();
            let inputs = fetch::route(&mut map_results, 3, None, &store);
            let (written, live) = (store.runs_written(), store.live_runs());
            assert!(written > 0, "{backend:?}: the map side spilled");
            let (reduced, costs, _) =
                reduce::run_phase(pool, &store, config, &job.reduce_fn, &inputs, &[0.0; 3])
                    .unwrap();
            assert!(costs.iter().all(|c| !c.merges.is_empty()), "{backend:?}");
            assert_eq!((store.runs_written(), store.live_runs()), (written, live));
            let pairs: Vec<(u32, u64)> = reduced
                .into_iter()
                .flat_map(|task| task.out.into_iter().flatten())
                .collect();
            assert_eq!(pairs, sum_job(&cluster, &splits).pairs, "{backend:?}");
        }
    }

    #[test]
    fn task_costs_reconcile_with_the_job_totals() {
        let splits = big_splits();
        let tiny_sort = || {
            let mut cfg = quiet_cluster();
            cfg.io_sort_bytes = 256;
            cfg.io_sort_factor = 2;
            cfg
        };
        let mut faulty = tiny_sort();
        faulty.nodes = 2;
        faulty.fault_plan = Some(
            FaultPlan::seeded(3)
                .with_node_failure(0, 1000.0)
                .with_corrupt_run(0),
        );
        for (case, cfg) in [
            ("clean", quiet_cluster()),
            ("tiny sort", tiny_sort()),
            ("faulty", faulty),
        ] {
            let cluster = Cluster::new(cfg);
            let out = sum_job(&cluster, &splits);
            let events = cluster.trace_events();
            let m = &out.metrics;
            let sum =
                |costs: &[TaskCost], f: fn(&TaskCost) -> u64| costs.iter().map(f).sum::<u64>();
            let shipped = sum(&m.map_costs, |c| {
                c.spills.iter().map(|&(_, bytes)| bytes).sum()
            });
            let fetched = sum(&m.reduce_costs, |c| c.fetched_bytes);
            assert_eq!(
                (shipped, fetched),
                (m.shuffle_bytes, m.shuffle_bytes),
                "{case}"
            );
            let runs = sum(&m.map_costs, |c| {
                c.spills.iter().map(|&(runs, _)| runs).sum()
            });
            assert_eq!(sum(&m.reduce_costs, |c| c.fetched_runs), runs, "{case}");
            assert_eq!(
                sum(&m.map_costs, |c| c.records),
                m.shuffle_records,
                "{case}"
            );
            assert_eq!(
                sum(&m.reduce_costs, |c| c.records),
                m.output_records,
                "{case}"
            );
            assert_eq!(m.output_records, out.pairs.len() as u64, "{case}");
            // On the disk, by the trace: a task that spilled more than once
            // wrote every run framed, and wrote them again when re-executed;
            // a merge pass is priced as its run framed, written and read back.
            let reexecuted: Vec<usize> = events
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::MapReexecuted { task, .. } => Some(task),
                    _ => None,
                })
                .collect();
            let (mut spilled, mut merged) = (0, 0);
            for e in &events {
                match e.kind {
                    TraceEventKind::Spill {
                        task, runs, bytes, ..
                    } => {
                        let writes = 1 + reexecuted.iter().filter(|&&t| t == task).count() as u64;
                        spilled += writes * (bytes + runs * SPILL_FRAME_BYTES);
                    }
                    TraceEventKind::MergePass { bytes, .. } => {
                        merged += 2 * (bytes + SPILL_FRAME_BYTES);
                    }
                    _ => {}
                }
            }
            assert_eq!(m.disk_spill_bytes(), spilled, "{case}");
            assert_eq!(m.disk_merge_bytes(), merged, "{case}");
            match case {
                "clean" => assert_eq!(spilled + merged, 0),
                "tiny sort" => assert!(spilled > 0 && merged > 0),
                _ => {
                    let rec = summary::per_stage(&events)[0].recovery;
                    assert!(rec.maps_reexecuted > 0 && rec.corrupt_runs > 0);
                }
            }
        }
    }

    #[test]
    fn merge_secs_is_the_merge_phase_inside_the_reduce_task() {
        let splits = big_splits();
        let mut constrained = quiet_cluster();
        constrained.io_sort_bytes = 256;
        constrained.io_sort_factor = 2;
        for cfg in [quiet_cluster(), constrained] {
            let metrics = sum_job(&Cluster::new(cfg), &splits).metrics;
            assert_eq!(metrics.merge_secs.len(), metrics.reduce_task_secs.len());
            for (task, (&merge, &total)) in metrics
                .merge_secs
                .iter()
                .zip(&metrics.reduce_task_secs)
                .enumerate()
            {
                assert!(merge <= total, "task {task}: merge {merge} of {total}");
                assert!(
                    metrics.merge_passes[task] == 0 || merge > 0.0,
                    "task {task}"
                );
            }
        }
    }

    #[test]
    fn budget_spills_agree_with_combiner() {
        // An associative combiner folded per spill must still reach the
        // same final answer as the single-spill path.
        let splits = big_splits();
        let run = |io_sort_bytes: u64| {
            let mut cfg = quiet_cluster();
            cfg.io_sort_bytes = io_sort_bytes;
            cfg.io_sort_factor = 3;
            let cluster = Cluster::new(cfg);
            JobBuilder::new("combine-spill")
                .map(|split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                    for &x in split {
                        ctx.emit(x % 7, u64::from(x));
                    }
                })
                .reducers(3)
                .combine_with(|_k, vals: Values<'_, u32, u64>| vals.sum())
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| ctx.emit(*k, vals.sum()))
                .run(&cluster, &splits)
                .unwrap()
        };
        let unconstrained = run(100 << 20);
        let constrained = run(128);
        assert_eq!(unconstrained.pairs, constrained.pairs);
        // Per-spill folding ships more (partial) records than one
        // task-level fold, but still far fewer than no combiner at all.
        assert!(constrained.metrics.shuffle_records >= unconstrained.metrics.shuffle_records);
        assert!(constrained
            .metrics
            .map_costs
            .iter()
            .all(|c| c.spills.len() > 1));
    }

    #[test]
    fn injected_retries_do_not_double_count_spill_metrics() {
        let splits = big_splits();
        let run = |plan: FaultPlan| {
            let mut cfg = quiet_cluster();
            cfg.io_sort_bytes = 256;
            cfg.io_sort_factor = 2;
            cfg.fault_plan = Some(plan);
            let cluster = Cluster::new(cfg);
            let out = sum_job(&cluster, &splits);
            (out, summary::per_stage(&cluster.trace_events()).remove(0))
        };
        let (clean, _) = run(FaultPlan::seeded(7));
        let (faulted, row) = run(FaultPlan::seeded(7)
            .with_targeted(TaskPhase::Map, 1, vec![1])
            .with_targeted(TaskPhase::Reduce, 0, vec![1]));
        assert_eq!(clean.pairs, faulted.pairs);
        // Attempt-level accounting of the retried run matches the clean
        // run exactly: nothing spilled or merged twice.
        assert_eq!(clean.metrics.map_costs, faulted.metrics.map_costs);
        assert_eq!(clean.metrics.reduce_costs, faulted.metrics.reduce_costs);
        assert_eq!((row.map.failed, row.reduce.failed), (1, 1));
        assert_eq!((row.map.retried, row.reduce.retried), (1, 1));
    }

    #[test]
    fn panicked_attempt_spills_are_cleaned_and_retried_cleanly() {
        let splits = big_splits();
        let run = |panic_once: bool| {
            let mut cfg = quiet_cluster();
            cfg.io_sort_bytes = 256;
            cfg.io_sort_factor = 3;
            cfg.spill_backend = SpillBackend::Disk;
            let cluster = Cluster::new(cfg);
            let tripped = AtomicBool::new(!panic_once);
            let out = JobBuilder::new("flaky-spill")
                .map(move |split: &Vec<u32>, ctx: &mut MapContext<u32, u64>| {
                    for (n, &x) in split.iter().enumerate() {
                        // Crash one attempt mid-map, after several spills
                        // have already been written under its tag.
                        if n == 150 && !tripped.swap(true, Ordering::SeqCst) {
                            panic!("mid-spill crash");
                        }
                        ctx.emit(x, u64::from(x) * 3 + 1);
                    }
                })
                .reducers(3)
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| ctx.emit(*k, vals.sum()))
                .run(&cluster, &splits)
                .unwrap();
            (out, summary::per_stage(&cluster.trace_events()).remove(0))
        };
        let (clean, _) = run(false);
        let (crashed, row) = run(true);
        assert_eq!(clean.pairs, crashed.pairs);
        // The crashed attempt's partial spills were orphan-removed; the
        // retry's fresh buffers and runs produce identical accounting.
        assert_eq!(clean.metrics.map_costs, crashed.metrics.map_costs);
        assert_eq!((row.map.failed, row.map.retried), (1, 1));
    }

    #[test]
    fn oom_abort_emits_task_aborted_then_job_aborted() {
        let mut cfg = quiet_cluster();
        cfg.task_memory_bytes = 1000;
        let cluster = Cluster::new(cfg);
        let err = JobBuilder::new("oom")
            .map(|_s: &u8, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .task_memory(|_| 2000)
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &[1u8, 2u8])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::TaskOutOfMemory { .. }));
        let events = cluster.trace_events();
        crate::trace::validate(&events).expect("aborted timeline is well-formed");
        let aborted: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::TaskAborted {
                    job,
                    phase,
                    task,
                    reason,
                } => Some((job.clone(), *phase, *task, reason.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            aborted,
            vec![(
                "oom".to_string(),
                TaskPhase::Map,
                0,
                "needs 2000 bytes, budget 1000".to_string()
            )]
        );
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, TraceEventKind::JobAborted { job, .. } if job == "oom")));
    }
}
