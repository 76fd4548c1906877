//! Cluster configuration and the shared execution handle.

use std::num::NonZeroUsize;
use std::time::Duration;

use crate::executor::Executor;
use crate::fault::FaultPlan;
use crate::trace::{TraceEvent, TraceSink};

/// Executor thread count: the `DWM_THREADS` environment variable when set
/// to a positive integer, else the host's available parallelism. The env
/// knob is how CI runs the whole suite single-threaded and multi-threaded
/// without code changes (the determinism contract says both must produce
/// bit-identical digests).
pub fn threads_from_env() -> usize {
    if let Ok(raw) = std::env::var("DWM_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Where map-side spill runs live.
///
/// The `Memory` backend keeps every run as an in-process byte buffer — fully
/// deterministic and filesystem-free, the right choice for tests and for the
/// simulated cost model (disk *time* is still charged either way). The `Disk`
/// backend writes framed run files under a per-job temp dir, exercising the
/// real external-shuffle I/O path end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillBackend {
    /// Runs are held in process memory (deterministic; default).
    #[default]
    Memory,
    /// Runs are framed files under a per-job temporary directory.
    Disk,
}

impl SpillBackend {
    /// Reads the `DWM_SPILL_BACKEND` environment variable (`memory` or
    /// `disk`, case-insensitive); unset or unrecognised values fall back
    /// to the default `Memory` backend. Lets test suites and CI legs run
    /// the same scenarios against both backends without code changes.
    pub fn from_env() -> Self {
        match std::env::var("DWM_SPILL_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("disk") => SpillBackend::Disk,
            _ => SpillBackend::Memory,
        }
    }

    /// Stable lower-case name (matches the `DWM_SPILL_BACKEND` values).
    pub fn as_str(self) -> &'static str {
        match self {
            SpillBackend::Memory => "memory",
            SpillBackend::Disk => "disk",
        }
    }
}

/// Static description of the simulated cluster.
///
/// The defaults model the paper's platform (Section 6: 8 slaves, 5 map +
/// 2 reduce slots each, 1 core per task) scaled so that laptop-sized inputs
/// produce the same *relative* cost structure: task startup dominates tiny
/// partitions, shuffle cost is proportional to wire bytes, and tasks beyond
/// the slot count serialize into waves.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cluster-wide concurrent map tasks (paper default: 8 × 5 = 40).
    pub map_slots: usize,
    /// Cluster-wide concurrent reduce tasks (paper default: 8 × 2 = 16).
    pub reduce_slots: usize,
    /// Per-task launch overhead (Hadoop pays seconds per task; scaled
    /// default 20 ms keeps the "tiny partitions hurt" effect measurable).
    pub task_startup: Duration,
    /// Per-job submission/setup overhead (default 50 ms — the paper's
    /// multi-job algorithms such as (D)IndirectHaar feel this as the cost
    /// of every binary-search probe).
    pub job_setup: Duration,
    /// Shuffle fetch throughput in bytes/second (default 100 MiB/s).
    pub shuffle_bytes_per_sec: f64,
    /// HDFS read throughput in bytes/second (default 200 MiB/s).
    pub hdfs_bytes_per_sec: f64,
    /// Per-task memory budget in bytes (the paper assigns 1 GB to each
    /// map/reduce task). Jobs that declare task working sets are rejected
    /// with [`crate::RuntimeError::TaskOutOfMemory`] beyond this.
    pub task_memory_bytes: u64,
    /// Real host threads used to execute tasks — the size of the
    /// cluster's [`Executor`] pool. Defaults to `DWM_THREADS`
    /// when set, else the host's available parallelism (see
    /// [`threads_from_env`]); the *simulated* parallelism is governed by
    /// the slot counts, not by this, and job outputs/digests are
    /// identical at every thread count.
    pub threads: usize,
    /// Maximum attempts per task before the job fails (Hadoop's
    /// `mapreduce.map.maxattempts` / `mapreduce.reduce.maxattempts`,
    /// default 4). A task whose first `max_attempts - 1` attempts crash
    /// still succeeds if the final attempt completes.
    pub max_attempts: usize,
    /// Whether straggling tasks get speculative backup attempts (Hadoop's
    /// `mapreduce.map.speculative`, default on).
    pub speculative_execution: bool,
    /// Deterministic fault-injection plan; `None` simulates a perfect
    /// cluster (every attempt succeeds unless the task itself panics).
    pub fault_plan: Option<FaultPlan>,
    /// Map-side spill buffer budget in wire bytes (Hadoop's `io.sort.mb`,
    /// default 100 MiB). A map task whose buffered emission exceeds
    /// `min(io_sort_bytes, task_memory_bytes)` sorts and spills it as one
    /// run per partition, then keeps mapping; the reducer merges the runs.
    pub io_sort_bytes: u64,
    /// Maximum merge fan-in on the reduce side (Hadoop's `io.sort.factor`,
    /// default 100). When a partition arrives as more runs than this, the
    /// reducer is priced for the intermediate merge passes Hadoop would run
    /// — each combining up to this many runs into one — until a single
    /// final merge could stream into the reduce function. The passes shape
    /// the task's cost and trace only: the reducer merges every run it
    /// fetched in one streaming pass.
    pub io_sort_factor: usize,
    /// Local-disk throughput in bytes/second for spill writes and merge-pass
    /// reads/writes (default 150 MiB/s — between HDFS and shuffle rates,
    /// modelling a shared local spindle).
    pub disk_bytes_per_sec: f64,
    /// Where spill runs are stored; see [`SpillBackend`].
    pub spill_backend: SpillBackend,
    /// Number of nodes the slots are spread across (paper default: 8
    /// slaves). Slots map to nodes round-robin in contiguous blocks:
    /// node `n` owns map slots `[n * maps_per_node(), ...)` and likewise
    /// for reduce slots, so the cluster-wide totals stay the source of
    /// truth and slot numbering is unchanged from earlier versions.
    pub nodes: usize,
    /// Reduce-side fetch retries before a lost/corrupt map output
    /// triggers map re-execution (Hadoop's
    /// `mapreduce.reduce.shuffle.maxfetchfailures`-shaped knob).
    pub fetch_retries: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            map_slots: 40,
            reduce_slots: 16,
            task_startup: Duration::from_millis(20),
            job_setup: Duration::from_millis(50),
            shuffle_bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            hdfs_bytes_per_sec: 200.0 * 1024.0 * 1024.0,
            task_memory_bytes: 1 << 30,
            threads: threads_from_env(),
            max_attempts: 4,
            speculative_execution: true,
            fault_plan: None,
            io_sort_bytes: 100 << 20,
            io_sort_factor: 100,
            disk_bytes_per_sec: 150.0 * 1024.0 * 1024.0,
            spill_backend: SpillBackend::Memory,
            nodes: 8,
            fetch_retries: 3,
        }
    }
}

impl ClusterConfig {
    /// A config with `map_slots` map slots and `reduce_slots` reduce slots,
    /// keeping default cost constants.
    pub fn with_slots(map_slots: usize, reduce_slots: usize) -> Self {
        ClusterConfig {
            map_slots,
            reduce_slots,
            ..ClusterConfig::default()
        }
    }

    /// Map slots hosted per node (`ceil(map_slots / nodes)`; the last
    /// node may own fewer when the division is uneven).
    pub fn maps_per_node(&self) -> usize {
        self.map_slots.div_ceil(self.nodes)
    }

    /// Reduce slots hosted per node (`ceil(reduce_slots / nodes)`).
    pub fn reduces_per_node(&self) -> usize {
        self.reduce_slots.div_ceil(self.nodes)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), crate::RuntimeError> {
        if self.map_slots == 0 {
            return Err(crate::RuntimeError::InvalidConfig("map_slots == 0"));
        }
        if self.reduce_slots == 0 {
            return Err(crate::RuntimeError::InvalidConfig("reduce_slots == 0"));
        }
        if self.threads == 0 {
            return Err(crate::RuntimeError::InvalidConfig("threads == 0"));
        }
        if self.shuffle_bytes_per_sec.is_nan()
            || self.shuffle_bytes_per_sec <= 0.0
            || self.hdfs_bytes_per_sec.is_nan()
            || self.hdfs_bytes_per_sec <= 0.0
        {
            return Err(crate::RuntimeError::InvalidConfig(
                "throughputs must be positive",
            ));
        }
        if self.max_attempts == 0 {
            return Err(crate::RuntimeError::InvalidConfig("max_attempts == 0"));
        }
        if self.io_sort_bytes == 0 {
            return Err(crate::RuntimeError::InvalidConfig("io_sort_bytes == 0"));
        }
        if self.io_sort_factor < 2 {
            return Err(crate::RuntimeError::InvalidConfig("io_sort_factor < 2"));
        }
        if self.disk_bytes_per_sec.is_nan() || self.disk_bytes_per_sec <= 0.0 {
            return Err(crate::RuntimeError::InvalidConfig(
                "disk_bytes_per_sec must be positive",
            ));
        }
        if self.nodes == 0 {
            return Err(crate::RuntimeError::InvalidConfig("nodes == 0"));
        }
        if self.fetch_retries == 0 {
            return Err(crate::RuntimeError::InvalidConfig("fetch_retries == 0"));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
            // A job can only recover if at least one node survives every
            // permanent failure in the plan.
            let permanent: std::collections::HashSet<usize> = plan
                .node_events(self.nodes)
                .iter()
                .filter(|f| f.permanent)
                .map(|f| f.node)
                .collect();
            if permanent.len() >= self.nodes {
                return Err(crate::RuntimeError::InvalidConfig(
                    "fault plan permanently kills every node in the topology",
                ));
            }
        }
        Ok(())
    }
}

/// A handle to the simulated cluster: configuration, the executor task
/// bodies run on, and an always-on structured trace of every job it has
/// executed (see [`crate::trace`]). What each job did is returned to its
/// caller as [`crate::JobMetrics`]; the cluster keeps no copy.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    trace: TraceSink,
    executor: Executor,
}

impl Cluster {
    /// Creates a cluster. Panics on invalid configuration (a config bug is
    /// a programming error, not a runtime condition); use [`Cluster::try_new`]
    /// to validate configs built from untrusted input instead.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster::try_new(config).expect("valid cluster config")
    }

    /// Creates a cluster, rejecting invalid configurations (zero slots or
    /// attempts, non-finite throughputs, malformed fault plans) with
    /// [`crate::RuntimeError::InvalidConfig`] instead of panicking.
    pub fn try_new(config: ClusterConfig) -> Result<Self, crate::RuntimeError> {
        config.validate()?;
        let executor = Executor::new(config.threads);
        Ok(Cluster {
            config,
            trace: TraceSink::new(),
            executor,
        })
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster's executor: the real threads task bodies,
    /// spill sorts, and merges run on (see [`crate::executor`]).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The cluster's trace sink (for emitting driver-level events such as
    /// pipeline stage transitions).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Snapshot of every trace event recorded so far, in emission order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Drops the recorded trace and resets its simulated clock to zero.
    pub fn clear_trace(&self) {
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_paper_cluster() {
        let c = ClusterConfig::default();
        assert_eq!(c.map_slots, 40);
        assert_eq!(c.reduce_slots, 16);
        // 8 slaves × (5 map + 2 reduce) slots, as in the paper's Section 6.
        assert_eq!(c.nodes, 8);
        assert_eq!(c.maps_per_node(), 5);
        assert_eq!(c.reduces_per_node(), 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn node_and_fetch_knobs_validated() {
        let c = ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            fetch_retries: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        // Killing every node permanently leaves nowhere to recover.
        let mut plan = FaultPlan::seeded(1);
        for n in 0..4 {
            plan = plan.with_node_failure(n, 0.1);
        }
        let c = ClusterConfig {
            nodes: 4,
            fault_plan: Some(plan.clone()),
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            nodes: 5,
            fault_plan: Some(plan),
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn spill_backend_env_parsing() {
        // from_env is read-only; exercise the parse paths via set/remove.
        std::env::remove_var("DWM_SPILL_BACKEND");
        assert_eq!(SpillBackend::from_env(), SpillBackend::Memory);
        std::env::set_var("DWM_SPILL_BACKEND", "Disk");
        assert_eq!(SpillBackend::from_env(), SpillBackend::Disk);
        std::env::set_var("DWM_SPILL_BACKEND", "bogus");
        assert_eq!(SpillBackend::from_env(), SpillBackend::Memory);
        std::env::remove_var("DWM_SPILL_BACKEND");
        assert_eq!(SpillBackend::Memory.as_str(), "memory");
        assert_eq!(SpillBackend::Disk.as_str(), "disk");
    }

    #[test]
    fn threads_env_parsing() {
        // Like `spill_backend_env_parsing`: exercise the parse paths.
        std::env::remove_var("DWM_THREADS");
        assert!(threads_from_env() >= 1);
        std::env::set_var("DWM_THREADS", "3");
        assert_eq!(threads_from_env(), 3);
        std::env::set_var("DWM_THREADS", "0");
        assert!(threads_from_env() >= 1); // invalid: falls back to host
        std::env::set_var("DWM_THREADS", "bogus");
        assert!(threads_from_env() >= 1);
        std::env::remove_var("DWM_THREADS");
    }

    #[test]
    fn cluster_executor_matches_config_threads() {
        let cfg = ClusterConfig {
            threads: 3,
            ..ClusterConfig::with_slots(4, 2)
        };
        let cluster = Cluster::new(cfg);
        assert_eq!(cluster.executor().threads(), 3);
        assert!(cluster.executor().is_parallel());
        let serial = Cluster::new(ClusterConfig {
            threads: 1,
            ..ClusterConfig::with_slots(4, 2)
        });
        assert!(!serial.executor().is_parallel());
    }

    #[test]
    fn zero_slots_rejected() {
        let c = ClusterConfig {
            map_slots: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            reduce_slots: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn spill_knobs_validated() {
        let c = ClusterConfig {
            io_sort_bytes: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            io_sort_factor: 1,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            disk_bytes_per_sec: 0.0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            io_sort_factor: 2,
            spill_backend: SpillBackend::Disk,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic]
    fn cluster_new_panics_on_bad_config() {
        let c = ClusterConfig {
            threads: 0,
            ..ClusterConfig::default()
        };
        let _ = Cluster::new(c);
    }
}
