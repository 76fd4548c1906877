//! Job metrics: task costs, the one function that prices them in simulated
//! seconds ([`TaskCost::secs`]), shuffle volume, and the simulated clock.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

use crate::fault::{FailureKind, TaskPhase};

/// Simulated cluster time, in seconds.
///
/// Every task attempt is priced from its [`TaskCost`] and scheduled onto
/// the configured cluster slots; `SimTime` is the resulting makespan, never
/// a host measurement. It is ordered and additive so that multi-job drivers
/// (e.g. DIndirectHaar's binary search) can accumulate end-to-end time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Simulated seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else {
            write!(f, "{:.3}ms", self.0 * 1e3)
        }
    }
}

/// Phase-by-phase breakdown of a job's simulated wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimBreakdown {
    /// Job setup/submission overhead.
    pub setup: f64,
    /// Map phase makespan (includes per-task startup and HDFS read time).
    pub map: f64,
    /// Shuffle transfer time (max over reducers of fetched bytes / rate).
    pub shuffle: f64,
    /// Reduce phase makespan (includes per-task startup).
    pub reduce: f64,
}

impl SimBreakdown {
    /// End-to-end simulated job time.
    pub fn total(&self) -> SimTime {
        SimTime(self.setup + self.map + self.shuffle + self.reduce)
    }
}

/// Why a task attempt launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The task's first attempt.
    Regular,
    /// Re-execution after a failed attempt.
    Retry,
    /// Speculative backup of a straggling attempt.
    Speculative,
}

impl AttemptKind {
    /// Stable lower-case name used by the trace event schema.
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptKind::Regular => "regular",
            AttemptKind::Retry => "retry",
            AttemptKind::Speculative => "speculative",
        }
    }
}

/// How a task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Produced the task's output.
    Succeeded,
    /// Crashed (panic or injected fault); a retry may follow.
    Failed,
    /// Lost the race against its speculative twin and was killed.
    Killed,
}

impl AttemptOutcome {
    /// Stable lower-case name used by the trace event schema.
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptOutcome::Succeeded => "ok",
            AttemptOutcome::Failed => "failed",
            AttemptOutcome::Killed => "killed",
        }
    }
}

/// One task attempt as placed on the simulated slot schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAttempt {
    /// Phase the task belongs to.
    pub phase: TaskPhase,
    /// Task index within the phase.
    pub task: usize,
    /// 1-based attempt number within the task (speculative attempts get
    /// the next free number).
    pub attempt: usize,
    /// Why this attempt launched.
    pub kind: AttemptKind,
    /// How this attempt ended.
    pub outcome: AttemptOutcome,
    /// Slot index (`0..slots`) the attempt occupied on the simulated
    /// cluster — the basis for slot-occupancy timelines.
    pub slot: usize,
    /// Node hosting the slot (see [`crate::ClusterConfig::nodes`]); the
    /// fault domain an attempt shares with its co-located spill runs.
    pub node: usize,
    /// Why the attempt crashed; `None` unless `outcome` is
    /// [`AttemptOutcome::Failed`].
    pub failure: Option<FailureKind>,
    /// Simulated start time, seconds from the phase's start.
    pub sim_start: f64,
    /// Simulated end time (completion, failure, or kill), seconds from the
    /// phase's start.
    pub sim_end: f64,
}

/// A kind of kernel work a task body reports through
/// [`crate::MapContext::charge`] / [`crate::ReduceContext::charge`], counted
/// in bulk from sizes the kernel already has, never one element at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Cells of error-tree DP rows (MinHaarSpace, MinRelVar, HaarPlus).
    DpCells,
    /// Nodes a greedy thresholding run discarded (GreedyAbs, GreedyRel).
    GreedyDiscards,
    /// Values transformed or reconstructed (Haar transforms, Algorithm 7).
    Values,
}

/// Simulated seconds per unit of each [`Kernel`], in declaration order, and
/// per wire byte and merge comparison ([`TaskCost::secs`]).
const SECS_PER_KERNEL_UNIT: [f64; 3] = [6.0e-9, 7.9e-8, 6.2e-10];
const SECS_PER_WIRE_BYTE: f64 = 5.3e-10;
const SECS_PER_MERGE_BYTE_LEVEL: f64 = 6.5e-11;

/// What one map or reduce task did, in the deterministic units the engine
/// counts: kernel units, records, wire bytes, runs, and the task's spill
/// and merge passes — Afrati–Ullman's communication (wire bytes) and
/// reducer work per task. A map task leaves the `fetched_*` fields and
/// `merges` empty, a reduce task `spills` and `spilled_bytes`; no field is
/// derived from another. It holds no host time, so a task's cost and its
/// price are the same at every executor thread count and on either backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskCost {
    /// Kernel units the task body charged, indexed by [`Kernel`].
    pub kernel: [u64; 3],
    /// Records a map task shipped to the shuffle (after any combiner), or
    /// records a reduce task's function emitted.
    pub records: u64,
    /// Wire bytes a reduce task fetched from the shuffle.
    pub fetched_bytes: u64,
    /// Sorted runs a reduce task fetched: its merge fan-in before any
    /// intermediate pass collapses them.
    pub fetched_runs: u64,
    /// `(runs, bytes)` per map-side spill pass that produced a run (one
    /// run per non-empty partition): a single pass for a task that stayed
    /// under the `io_sort_bytes` budget. The bytes are what the task ships.
    pub spills: Vec<(u64, u64)>,
    /// Framed bytes a map task's spills wrote to the spill store (payloads
    /// plus frame overhead; 0 when every run went to its reducer in
    /// memory). A map task re-executed because a reducer could not fetch
    /// its runs writes them again, and those bytes are added here.
    pub spilled_bytes: u64,
    /// `(fan_in, bytes)` per intermediate reduce-side merge pass, priced
    /// because the fetched runs outnumbered `io_sort_factor` (empty when
    /// they did not). The passes are not performed: the final merge takes
    /// every fetched run.
    pub merges: Vec<(u64, u64)>,
}

impl TaskCost {
    /// Adds `units` of `kernel` work.
    pub fn charge(&mut self, kernel: Kernel, units: u64) {
        self.kernel[kernel as usize] += units;
    }

    /// Bytes the task moved through its node's disk, which the simulated
    /// clock charges at `disk_bytes_per_sec`: a map task's spills, written
    /// once, and a reduce task's priced merge passes, each run written and
    /// read back.
    pub fn disk_bytes(&self) -> u64 {
        let framed = |&(_, bytes): &(u64, u64)| 2 * (bytes + crate::job::SPILL_FRAME_BYTES);
        self.spilled_bytes + self.merges.iter().map(framed).sum::<u64>()
    }

    /// The task's simulated seconds, excluding its HDFS read and launch:
    /// kernel units, wire bytes (shipped or fetched) and merge
    /// comparisons — in wire bytes, each climbing `⌈log2 fan-in⌉` loser-tree
    /// levels per pass and in the final merge — each at its rate, plus
    /// [`TaskCost::disk_bytes`] at `disk_bytes_per_sec`. The rates are a
    /// non-negative least-squares fit of task-body host seconds to these
    /// units, one row per (job, phase) of the `perf` builds DGreedyAbs 2^18,
    /// Send-Coef 2^20 and DIndirectHaar 2^13 on a 2-vCPU x86-64 container,
    /// one thread: they price those builds at 0.86–1.18×, 1.15–1.40× and
    /// 1.02–1.19× their host task seconds over four runs. Work unlike those
    /// tasks is extrapolated: one GreedyAbs over 2^19 values is priced at
    /// 0.17–0.26× its host seconds (EXPERIMENTS.md, "One input to the
    /// simulated clock").
    pub fn secs(&self, disk_bytes_per_sec: f64) -> f64 {
        let levels = |fan_in: u64| u64::from(fan_in.max(1).next_power_of_two().trailing_zeros());
        let (mut compared, mut runs) = (0, self.fetched_runs);
        for &(fan_in, bytes) in &self.merges {
            compared += bytes * levels(fan_in);
            runs = runs.saturating_sub(fan_in.saturating_sub(1));
        }
        let shipped: u64 = self.spills.iter().map(|&(_, bytes)| bytes).sum();
        let mut secs = crate::scheduler::io_secs(self.disk_bytes(), disk_bytes_per_sec);
        for (&units, rate) in self.kernel.iter().zip(SECS_PER_KERNEL_UNIT) {
            secs += units as f64 * rate;
        }
        secs + (shipped + self.fetched_bytes) as f64 * SECS_PER_WIRE_BYTE
            + (compared + self.fetched_bytes * levels(runs)) as f64 * SECS_PER_MERGE_BYTE_LEVEL
    }
}

/// Metrics of a single executed job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub name: String,
    /// What each map task did, in task order.
    pub map_costs: Vec<TaskCost>,
    /// What each reduce task did, in partition order.
    pub reduce_costs: Vec<TaskCost>,
    /// Per map task, the runs of all its spill passes; per reduce task, its
    /// intermediate merge passes. Views of `map_costs` / `reduce_costs`,
    /// filled with them in one place, kept as fields because
    /// `perf/src/builds.rs` sums them (l. 367–368).
    pub spill_runs: Vec<u64>,
    /// See [`JobMetrics::spill_runs`].
    pub merge_passes: Vec<u64>,
    /// Host-seconds sidecar of the task costs, per map task: host wall
    /// clock inside the task. Reported only, like the other host vectors
    /// and `real_elapsed`; the simulated clock never reads them.
    pub map_task_secs: Vec<f64>,
    /// Host seconds inside each reduce task.
    pub reduce_task_secs: Vec<f64>,
    /// Per-map-task seconds spent sorting spill buffers (subset of the
    /// task's entry in `map_task_secs`).
    pub spill_secs: Vec<f64>,
    /// Per-reduce-task host seconds of the *merge phase* (Hadoop's term):
    /// from task start until the final merge's key ranges are cut — fetched
    /// runs opened and checksum-verified, splitters sampled and every run's
    /// cut points found (one range needs no cut; the intermediate
    /// `io_sort_factor` passes are priced, not run). A subset of the task's entry in
    /// `reduce_task_secs`. The final merge is *not* in it: each range's
    /// values are pulled lazily inside the reduce function's iterator, so
    /// the merge is interleaved with the function and only their sum is
    /// timed.
    pub merge_secs: Vec<f64>,
    /// Bytes crossing the map→reduce shuffle boundary (wire-encoded): the
    /// reducers' fetched bytes.
    pub shuffle_bytes: u64,
    /// Key-value records crossing the shuffle boundary: the map tasks'
    /// shipped records.
    pub shuffle_records: u64,
    /// Declared input bytes read from "HDFS".
    pub input_bytes: u64,
    /// Records emitted by reducers.
    pub output_records: u64,
    /// Simulated-time breakdown.
    pub sim: SimBreakdown,
    /// Real host wall clock for the whole job.
    pub real_elapsed: Duration,
    /// User counters, merged across tasks.
    pub counters: BTreeMap<&'static str, u64>,
}

impl JobMetrics {
    /// A job's metrics holding its task costs and the fields derived from
    /// them — the per-task views and the shuffle totals — and nothing else
    /// yet: the one place those are computed.
    pub(crate) fn with_costs(map_costs: Vec<TaskCost>, reduce_costs: Vec<TaskCost>) -> Self {
        JobMetrics {
            spill_runs: map_costs
                .iter()
                .map(|c| c.spills.iter().map(|&(runs, _)| runs).sum())
                .collect(),
            merge_passes: reduce_costs.iter().map(|c| c.merges.len() as u64).collect(),
            shuffle_bytes: reduce_costs.iter().map(|c| c.fetched_bytes).sum(),
            shuffle_records: map_costs.iter().map(|c| c.records).sum(),
            map_costs,
            reduce_costs,
            ..JobMetrics::default()
        }
    }

    /// End-to-end simulated job time.
    pub fn simulated(&self) -> SimTime {
        self.sim.total()
    }

    /// Number of map tasks.
    pub fn map_tasks(&self) -> usize {
        self.map_costs.len()
    }

    /// Number of reduce tasks.
    pub fn reduce_tasks(&self) -> usize {
        self.reduce_costs.len()
    }

    /// Value of a user counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Bytes map-side spills wrote to local disk (framed; re-executed maps
    /// included): 0 when every task stayed within one spill and handed its
    /// runs over in memory.
    pub fn disk_spill_bytes(&self) -> u64 {
        self.map_costs.iter().map(TaskCost::disk_bytes).sum()
    }

    /// Bytes the priced intermediate reduce merge passes write and read
    /// back.
    pub fn disk_merge_bytes(&self) -> u64 {
        self.reduce_costs.iter().map(TaskCost::disk_bytes).sum()
    }

    /// FNV-1a digest of what the job cost on the simulated cluster: every
    /// task's [`TaskCost`], byte and record accounting, counters and the
    /// simulated breakdown (times by their bits). How each attempt ran is
    /// the trace's record, not the ledger's.
    ///
    /// All of it is a pure function of (job, input, cluster config, fault
    /// plan); only the host sidecars (`map_task_secs` and friends,
    /// `real_elapsed`) stay out. It must be bit-identical between
    /// `threads=1` and `threads=N` runs of the same job — the executor's
    /// determinism contract, enforced by the cross-thread proptests.
    pub fn structural_digest(&self) -> u64 {
        use crate::codec::WireSink;
        let sim = [
            self.sim.setup,
            self.sim.map,
            self.sim.shuffle,
            self.sim.reduce,
        ];
        let s = format!(
            "job({}) costs({:?}/{:?}) bytes({}/{}) records({}/{}) counters({:?}) sim({:?})",
            self.name,
            self.map_costs,
            self.reduce_costs,
            self.shuffle_bytes,
            self.input_bytes,
            self.shuffle_records,
            self.output_records,
            self.counters,
            sim.map(f64::to_bits),
        );
        let mut hasher = crate::codec::FnvHasher::new();
        hasher.write(s.as_bytes());
        hasher.finish()
    }
}

/// Accumulates metrics across the jobs of a multi-job driver program.
#[derive(Debug, Clone, Default)]
pub struct DriverMetrics {
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
}

impl DriverMetrics {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished job.
    pub fn push(&mut self, metrics: JobMetrics) {
        self.jobs.push(metrics);
    }

    /// Total simulated time across all jobs (jobs run back-to-back).
    pub fn total_simulated(&self) -> SimTime {
        self.jobs
            .iter()
            .fold(SimTime::ZERO, |acc, j| acc + j.simulated())
    }

    /// Total shuffle bytes across all jobs.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }

    /// Total real elapsed time across all jobs.
    pub fn total_real(&self) -> Duration {
        self.jobs.iter().map(|j| j.real_elapsed).sum()
    }

    /// Number of executed jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Appends all of `other`'s jobs, preserving execution order — how a
    /// driver folds a sub-pipeline's ledger (e.g. one DMHaarSpace probe of
    /// DIndirectHaar's binary search) into its own.
    pub fn merge(&mut self, other: DriverMetrics) {
        self.jobs.extend(other.jobs);
    }

    /// FNV-1a fold of every job's [`JobMetrics::structural_digest`] in
    /// execution order: one number summarising the driver's whole
    /// structural ledger, bit-identical across executor thread counts.
    pub fn structural_digest(&self) -> u64 {
        use crate::codec::WireSink;
        let mut hasher = crate::codec::FnvHasher::new();
        for job in &self.jobs {
            hasher.write(&job.structural_digest().to_le_bytes());
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_arithmetic() {
        let a = SimTime(1.5) + SimTime(0.5);
        assert_eq!(a, SimTime(2.0));
        let mut b = SimTime::ZERO;
        b += SimTime(3.0);
        assert_eq!(b.secs(), 3.0);
        assert!(SimTime(1.0) < SimTime(2.0));
    }

    #[test]
    fn sim_time_display() {
        assert_eq!(SimTime(2.5).to_string(), "2.500s");
        assert_eq!(SimTime(0.25).to_string(), "250.000ms");
    }

    #[test]
    fn breakdown_totals() {
        let b = SimBreakdown {
            setup: 1.0,
            map: 2.0,
            shuffle: 3.0,
            reduce: 4.0,
        };
        assert_eq!(b.total(), SimTime(10.0));
    }

    #[test]
    fn driver_accumulates() {
        let mut d = DriverMetrics::new();
        let mut j1 = JobMetrics::default();
        j1.sim.map = 2.0;
        j1.shuffle_bytes = 100;
        let mut j2 = JobMetrics::default();
        j2.sim.reduce = 3.0;
        j2.shuffle_bytes = 50;
        d.push(j1);
        d.push(j2);
        assert_eq!(d.total_simulated(), SimTime(5.0));
        assert_eq!(d.total_shuffle_bytes(), 150);
        assert_eq!(d.job_count(), 2);
    }

    /// The trace's rows partition the ledger: a name's row sums that
    /// name's jobs, rows open in first-execution order, and their runs,
    /// simulated time and shuffle bytes sum to the ledger's totals.
    #[test]
    fn per_stage_groups_by_name_in_first_seen_order() {
        use crate::cluster::{Cluster, ClusterConfig};
        use crate::job::{JobBuilder, MapContext, ReduceContext};
        use crate::trace::summary;
        let cluster = Cluster::new(ClusterConfig::with_slots(2, 1));
        let mut d = DriverMetrics::new();
        for (name, keys) in [("a", 1u64), ("b", 2), ("a", 4)] {
            let out = JobBuilder::new(name)
                .map(|s: &u64, ctx: &mut MapContext<u64, u64>| (0..*s).for_each(|k| ctx.emit(k, k)))
                .input_bytes(|s| s * 1024)
                .reduce(|k, vals, ctx: &mut ReduceContext<u64, u64>| ctx.emit(*k, vals.sum()))
                .run(&cluster, &[keys, keys])
                .unwrap();
            d.push(out.metrics);
        }
        let rows = summary::per_stage(&cluster.trace_events());
        let names: Vec<(&str, usize)> = rows.iter().map(|r| (r.name.as_str(), r.runs)).collect();
        assert_eq!(names, [("a", 2), ("b", 1)]);
        for r in &rows {
            let jobs = d.jobs.iter().filter(|j| j.name == r.name);
            let sim = jobs.clone().fold(0.0, |acc, j| acc + j.simulated().secs());
            assert_eq!(sim.to_bits(), r.sim_secs.to_bits(), "{}", r.name);
            let shuffle: u64 = jobs.map(|j| j.shuffle_bytes).sum();
            assert_eq!(shuffle, r.shuffle.bytes, "{}", r.name);
        }
        let runs: usize = rows.iter().map(|r| r.runs).sum();
        assert_eq!(runs, d.job_count());
        let sim: f64 = rows.iter().map(|r| r.sim_secs).sum();
        let total = d.total_simulated().secs();
        assert!((sim - total).abs() <= 1e-12 * total, "{sim} != {total}");
        let shuffle: u64 = rows.iter().map(|r| r.shuffle.bytes).sum();
        assert_eq!(shuffle, d.total_shuffle_bytes());
    }

    #[test]
    fn merge_preserves_order() {
        let mut a = DriverMetrics::new();
        a.push(JobMetrics {
            name: "first".into(),
            ..JobMetrics::default()
        });
        let mut b = DriverMetrics::new();
        b.push(JobMetrics {
            name: "second".into(),
            ..JobMetrics::default()
        });
        a.merge(b);
        assert_eq!(a.job_count(), 2);
        assert_eq!(a.jobs[0].name, "first");
        assert_eq!(a.jobs[1].name, "second");
    }

    #[test]
    fn counters_default_zero() {
        let m = JobMetrics::default();
        assert_eq!(m.counter("missing"), 0);
    }
}
