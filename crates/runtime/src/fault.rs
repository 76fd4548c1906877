//! Deterministic, seeded fault injection.
//!
//! Hadoop's task model treats failure as routine: an attempt that crashes
//! is retried (up to `mapreduce.map.maxattempts`, default 4), slow attempts
//! are speculatively re-executed, and a job only fails once some task
//! exhausts its attempt budget. To reproduce that behaviour — and to test
//! it — the engine accepts a [`FaultPlan`] on
//! [`crate::ClusterConfig::fault_plan`]: a pure, seeded description of
//! which task attempts fail and which tasks straggle.
//!
//! Everything here is a deterministic function of `(seed, phase, task,
//! attempt)`; there is no wall-clock or global-RNG nondeterminism, so a
//! test or benchmark that fixes the seed observes the identical failure
//! pattern on every run.
//!
//! # Node-level fault domains
//!
//! Beyond per-attempt crashes, a plan can model the harder failure class:
//! a whole *node* dies ([`FaultPlan::with_node_failure`], or
//! [`FaultPlan::with_transient_node_failure`] for a restart). A node failure (a)
//! fails every attempt running on that node at the failure time, (b)
//! marks every spill run and map output hosted on it as *lost*, so
//! reducers hit fetch failures and the scheduler re-executes the owning
//! completed map tasks on surviving nodes, and (c) — for permanent
//! failures — removes the node's slots for the rest of the job.
//! [`FaultKind::CorruptRun`] faults flip seeded payload bytes in stored
//! spill runs; the checksum footer catches the corruption at fetch time
//! and the run is handled exactly like lost output. Nodes that accumulate
//! [`FaultPlan::blacklist_after`] attempt failures are blacklisted
//! (Hadoop's `mapreduce.job.maxtaskfailures.per.tracker` semantics): no
//! new placements, running attempts finish.
//!
//! # Example
//!
//! Crash the first attempt of one map task and make another task straggle;
//! the job still produces the fault-free answer, and the recovery shows up
//! in the trace, read through its roll-up:
//!
//! ```
//! use dwmaxerr_runtime::cluster::{Cluster, ClusterConfig};
//! use dwmaxerr_runtime::fault::{FaultPlan, TaskPhase};
//! use dwmaxerr_runtime::job::{JobBuilder, MapContext, ReduceContext};
//! use dwmaxerr_runtime::trace::summary;
//!
//! let mut cfg = ClusterConfig::with_slots(2, 1);
//! cfg.fault_plan = Some(
//!     FaultPlan::seeded(7)
//!         .with_targeted(TaskPhase::Map, 0, vec![1]) // map 0, attempt 1 crashes
//!         .with_straggler(TaskPhase::Map, 1, 4.0),   // map 1 runs 4x slow
//! );
//! let cluster = Cluster::new(cfg);
//! let out = JobBuilder::new("sum")
//!     .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
//!     .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
//!     .run(&cluster, &[1, 2, 3])
//!     .unwrap();
//! assert_eq!(out.pairs, vec![(0, 6)]); // identical to a fault-free run
//! let job = &summary::per_stage(&cluster.trace_events())[0];
//! assert_eq!(job.map.retried, 1);
//! assert_eq!(job.map.failed, 1);
//! ```

use crate::error::RuntimeError;

/// Why a task attempt crashed.
///
/// Recorded on failed [`crate::metrics::TaskAttempt`]s and in trace
/// events, so a timeline can distinguish a user-code panic from a
/// fault-plan injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The user's map or reduce function panicked.
    Panic,
    /// A seeded [`FaultPlan`] injected the failure.
    Injected,
    /// The node hosting the attempt died mid-run (a [`FaultPlan`]
    /// node-failure event); the attempt is re-executed on a surviving
    /// node.
    NodeLost,
}

impl FailureKind {
    /// Stable lower-case name used by the trace event schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Injected => "injected",
            FailureKind::NodeLost => "node_lost",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which phase of a job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    /// A map task (one per input split).
    Map,
    /// A reduce task (one per reduce partition).
    Reduce,
}

impl TaskPhase {
    /// Stable lower-case name used by the trace event schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskPhase::Map => "map",
            TaskPhase::Reduce => "reduce",
        }
    }
}

impl std::fmt::Display for TaskPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fails specific attempts of one specific task.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetedFault {
    /// Phase of the targeted task.
    pub phase: TaskPhase,
    /// Task index within the phase.
    pub task: usize,
    /// 1-based attempt numbers that fail (e.g. `vec![1, 2]` fails the
    /// first two attempts, so the third succeeds).
    pub attempts: Vec<usize>,
}

/// Slows every regular attempt of one task by a multiplier, modelling a
/// degraded node; speculative re-executions run at full speed (they land
/// on a healthy node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Phase of the straggling task.
    pub phase: TaskPhase,
    /// Task index within the phase.
    pub task: usize,
    /// Duration multiplier (must be ≥ 1).
    pub slowdown: f64,
}

/// Node- and storage-level fault categories, beyond per-attempt crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A node dies: running attempts fail, hosted spill runs and map
    /// outputs are lost.
    NodeDown,
    /// A stored spill run's payload bytes are flipped; the checksum
    /// footer detects the corruption at fetch time and the run is
    /// handled as lost output.
    CorruptRun,
}

impl FaultKind {
    /// Stable lower-case name used in reports and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::NodeDown => "node_down",
            FaultKind::CorruptRun => "corrupt_run",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One node dying at a simulated time (seconds from job submission).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// Index of the failing node in the cluster topology.
    pub node: usize,
    /// Simulated time of the failure, in seconds from job submission.
    pub sim_time: f64,
    /// Whether the node's slots are removed for the rest of the job
    /// (`true`: the machine is gone) or the node restarts immediately
    /// with its storage wiped (`false`: a tasktracker restart).
    pub permanent: bool,
}

/// Fraction of an attempt's duration that elapses before its crash is
/// observed: Hadoop notices a crash mid-task, not at launch.
pub const FAIL_POINT: f64 = 0.5;

/// A deterministic fault-injection plan.
///
/// Probabilistic failures are decided by hashing `(seed, phase, task,
/// attempt)` to a uniform value in `[0, 1)` and comparing against
/// [`FaultPlan::failure_prob`], so each attempt fails independently but
/// reproducibly. Targeted faults and stragglers name exact tasks; node
/// failures name exact nodes and simulated times.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic failure decisions.
    pub seed: u64,
    /// Probability that any given map or reduce attempt fails.
    pub failure_prob: f64,
    /// Exact attempts that always fail.
    pub targeted: Vec<TargetedFault>,
    /// Tasks whose regular attempts run slow.
    pub stragglers: Vec<Straggler>,
    /// Exact node failures ([`FaultKind::NodeDown`] events).
    pub node_failures: Vec<NodeFailure>,
    /// Probability that any given stored map-output run is corrupted
    /// ([`FaultKind::CorruptRun`]), decided per `(task, partition, run)`.
    pub corrupt_run_prob: f64,
    /// Map tasks whose every output run is corrupted (targeted
    /// [`FaultKind::CorruptRun`]).
    pub corrupt_tasks: Vec<usize>,
    /// Blacklist a node after this many attempt failures on it (Hadoop's
    /// `mapreduce.job.maxtaskfailures.per.tracker`, default there 3).
    /// `None` disables blacklisting.
    pub blacklist_after: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            failure_prob: 0.0,
            targeted: Vec::new(),
            stragglers: Vec::new(),
            node_failures: Vec::new(),
            corrupt_run_prob: 0.0,
            corrupt_tasks: Vec::new(),
            blacklist_after: None,
        }
    }
}

/// SplitMix64 finalizer: decorrelates the packed decision key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the failure probability of every map and reduce attempt.
    pub fn with_failure_prob(mut self, p: f64) -> Self {
        self.failure_prob = p;
        self
    }

    /// Adds a targeted fault failing `attempts` (1-based) of one task.
    pub fn with_targeted(mut self, phase: TaskPhase, task: usize, attempts: Vec<usize>) -> Self {
        self.targeted.push(TargetedFault {
            phase,
            task,
            attempts,
        });
        self
    }

    /// Adds a straggler running `slowdown`× slower.
    pub fn with_straggler(mut self, phase: TaskPhase, task: usize, slowdown: f64) -> Self {
        self.stragglers.push(Straggler {
            phase,
            task,
            slowdown,
        });
        self
    }

    /// Kills `node` permanently at `sim_time` seconds after job
    /// submission: its slots are removed and its hosted map outputs are
    /// lost.
    pub fn with_node_failure(mut self, node: usize, sim_time: f64) -> Self {
        self.node_failures.push(NodeFailure {
            node,
            sim_time,
            permanent: true,
        });
        self
    }

    /// Restarts `node` at `sim_time`: running attempts fail and hosted
    /// map outputs are lost, but the node keeps accepting placements.
    pub fn with_transient_node_failure(mut self, node: usize, sim_time: f64) -> Self {
        self.node_failures.push(NodeFailure {
            node,
            sim_time,
            permanent: false,
        });
        self
    }

    /// Corrupts every stored output run of map task `task`.
    pub fn with_corrupt_run(mut self, task: usize) -> Self {
        self.corrupt_tasks.push(task);
        self
    }

    /// Corrupts each stored map-output run with probability `p`,
    /// independently per `(task, partition, run)`.
    pub fn with_corrupt_run_prob(mut self, p: f64) -> Self {
        self.corrupt_run_prob = p;
        self
    }

    /// Blacklists a node after `failures` failed attempts on it.
    pub fn with_blacklist_after(mut self, failures: usize) -> Self {
        self.blacklist_after = Some(failures);
        self
    }

    /// Whether the plan injects a failure into the given attempt
    /// (1-based). Pure and deterministic.
    pub fn injects_failure(&self, phase: TaskPhase, task: usize, attempt: usize) -> bool {
        if self
            .targeted
            .iter()
            .any(|t| t.phase == phase && t.task == task && t.attempts.contains(&attempt))
        {
            return true;
        }
        if self.failure_prob <= 0.0 {
            return false;
        }
        let key = mix(self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((task as u64) << 20)
            .wrapping_add((attempt as u64) << 2)
            .wrapping_add(match phase {
                TaskPhase::Map => 0,
                TaskPhase::Reduce => 1,
            }));
        let unit = (key >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.failure_prob
    }

    /// The straggler slowdown multiplier for a task (1.0 when healthy).
    pub fn slowdown(&self, phase: TaskPhase, task: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.phase == phase && s.task == task)
            .map(|s| s.slowdown)
            .fold(1.0, f64::max)
    }

    /// The [`FaultPlan::node_failures`] inside a topology of `nodes`
    /// nodes, sorted by time (ties by node index).
    pub fn node_events(&self, nodes: usize) -> Vec<NodeFailure> {
        let mut events: Vec<NodeFailure> = self
            .node_failures
            .iter()
            .filter(|f| f.node < nodes)
            .copied()
            .collect();
        events.sort_by(|a, b| {
            a.sim_time
                .partial_cmp(&b.sim_time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        events
    }

    /// Whether the plan corrupts the stored run `(map task, partition,
    /// run sequence)`. Pure and deterministic.
    pub fn corrupts_run(&self, task: usize, partition: usize, seq: usize) -> bool {
        if self.corrupt_tasks.contains(&task) {
            return true;
        }
        if self.corrupt_run_prob <= 0.0 {
            return false;
        }
        let key = mix(self
            .seed
            .wrapping_mul(0xa24b_aed4_963e_e407)
            .wrapping_add((task as u64) << 32)
            .wrapping_add((partition as u64) << 12)
            .wrapping_add((seq as u64) << 2)
            .wrapping_add(3));
        let unit = (key >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.corrupt_run_prob
    }

    /// Whether the plan contains any node-level or corruption faults.
    /// When `false`, the runtime skips the whole fetch-verification
    /// machinery and behaves exactly as before.
    pub fn has_node_faults(&self) -> bool {
        !self.node_failures.is_empty()
            || self.corrupt_run_prob > 0.0
            || !self.corrupt_tasks.is_empty()
    }

    /// Validates the plan's numeric fields.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let prob_ok = |p: f64| (0.0..=1.0).contains(&p);
        if !prob_ok(self.failure_prob) {
            return Err(RuntimeError::InvalidConfig(
                "fault plan failure probability must lie in [0, 1]",
            ));
        }
        if self
            .stragglers
            .iter()
            .any(|s| !s.slowdown.is_finite() || s.slowdown < 1.0)
        {
            return Err(RuntimeError::InvalidConfig(
                "straggler slowdowns must be finite and >= 1",
            ));
        }
        if self.targeted.iter().any(|t| t.attempts.contains(&0)) {
            return Err(RuntimeError::InvalidConfig(
                "targeted fault attempts are 1-based; 0 is invalid",
            ));
        }
        if self
            .node_failures
            .iter()
            .any(|f| !f.sim_time.is_finite() || f.sim_time < 0.0)
        {
            return Err(RuntimeError::InvalidConfig(
                "node failure times must be finite and >= 0",
            ));
        }
        if !prob_ok(self.corrupt_run_prob) {
            return Err(RuntimeError::InvalidConfig(
                "corrupt-run probability must lie in [0, 1]",
            ));
        }
        if self.blacklist_after == Some(0) {
            return Err(RuntimeError::InvalidConfig(
                "blacklist_after must be >= 1 failures",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::seeded(42).with_failure_prob(0.3);
        for task in 0..50 {
            for attempt in 1..=4 {
                assert_eq!(
                    plan.injects_failure(TaskPhase::Map, task, attempt),
                    plan.injects_failure(TaskPhase::Map, task, attempt),
                );
            }
        }
    }

    #[test]
    fn probability_roughly_honoured() {
        let plan = FaultPlan::seeded(7).with_failure_prob(0.25);
        let n = 4000;
        let failures = (0..n)
            .filter(|&t| plan.injects_failure(TaskPhase::Map, t, 1))
            .count();
        let rate = failures as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::seeded(1).with_failure_prob(0.5);
        let b = FaultPlan::seeded(2).with_failure_prob(0.5);
        let pattern = |p: &FaultPlan| {
            (0..64)
                .map(|t| p.injects_failure(TaskPhase::Map, t, 1))
                .collect::<Vec<_>>()
        };
        assert_ne!(pattern(&a), pattern(&b));
    }

    #[test]
    fn attempts_decorrelate() {
        // A task that fails attempt 1 must not deterministically fail all
        // attempts — otherwise probabilistic plans could never recover.
        let plan = FaultPlan::seeded(3).with_failure_prob(0.5);
        let escapes = (0..200).any(|t| {
            plan.injects_failure(TaskPhase::Map, t, 1)
                && !plan.injects_failure(TaskPhase::Map, t, 2)
        });
        assert!(escapes);
    }

    #[test]
    fn targeted_and_stragglers() {
        let plan = FaultPlan::seeded(0)
            .with_targeted(TaskPhase::Reduce, 3, vec![1, 2])
            .with_straggler(TaskPhase::Map, 5, 8.0);
        assert!(plan.injects_failure(TaskPhase::Reduce, 3, 1));
        assert!(plan.injects_failure(TaskPhase::Reduce, 3, 2));
        assert!(!plan.injects_failure(TaskPhase::Reduce, 3, 3));
        assert!(!plan.injects_failure(TaskPhase::Map, 3, 1));
        assert_eq!(plan.slowdown(TaskPhase::Map, 5), 8.0);
        assert_eq!(plan.slowdown(TaskPhase::Map, 4), 1.0);
        assert_eq!(plan.slowdown(TaskPhase::Reduce, 5), 1.0);
    }

    #[test]
    fn node_events_are_deterministic_sorted_and_bounded() {
        let plan = FaultPlan::seeded(5)
            .with_node_failure(3, 0.7)
            .with_transient_node_failure(1, 0.2)
            .with_node_failure(9, 0.1); // out of topology: dropped
        let events = plan.node_events(8);
        assert_eq!(events, plan.node_events(8));
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].node, events[0].permanent), (1, false));
        assert_eq!((events[1].node, events[1].permanent), (3, true));
        assert!(events.windows(2).all(|w| w[0].sim_time <= w[1].sim_time));
    }

    #[test]
    fn corruption_decisions_are_seeded_and_targeted() {
        let plan = FaultPlan::seeded(21).with_corrupt_run(4);
        assert!(plan.corrupts_run(4, 0, 0));
        assert!(plan.corrupts_run(4, 7, 3));
        assert!(!plan.corrupts_run(5, 0, 0));

        let prob = FaultPlan::seeded(21).with_corrupt_run_prob(0.3);
        let n = 3000;
        let hits = (0..n)
            .filter(|&t| prob.corrupts_run(t, t % 4, t % 3))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
        assert_eq!(
            prob.corrupts_run(17, 1, 0),
            prob.corrupts_run(17, 1, 0),
            "deterministic"
        );
    }

    #[test]
    fn has_node_faults_reflects_plan_contents() {
        assert!(!FaultPlan::seeded(0)
            .with_failure_prob(0.5)
            .has_node_faults());
        assert!(FaultPlan::seeded(0)
            .with_node_failure(0, 0.1)
            .has_node_faults());
        assert!(FaultPlan::seeded(0).with_corrupt_run(2).has_node_faults());
        assert!(FaultPlan::seeded(0)
            .with_corrupt_run_prob(0.1)
            .has_node_faults());
    }

    #[test]
    fn validation_rejects_bad_node_fields() {
        assert!(FaultPlan::seeded(0)
            .with_node_failure(0, -1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_node_failure(0, f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_corrupt_run_prob(-0.2)
            .validate()
            .is_err());
        let mut p = FaultPlan::seeded(0);
        p.blacklist_after = Some(0);
        assert!(p.validate().is_err());
        assert!(FaultPlan::seeded(0)
            .with_node_failure(2, 0.5)
            .with_corrupt_run(1)
            .with_blacklist_after(3)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(FaultPlan::seeded(0)
            .with_failure_prob(1.5)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_failure_prob(-0.1)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_straggler(TaskPhase::Map, 0, 0.5)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_targeted(TaskPhase::Map, 0, vec![0])
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(9)
            .with_failure_prob(0.2)
            .validate()
            .is_ok());
    }
}
