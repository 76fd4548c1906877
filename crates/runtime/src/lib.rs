#![deny(missing_docs)]

//! An in-process mini-MapReduce engine.
//!
//! The SIGMOD'16 paper runs its distributed algorithms on a 9-machine
//! Hadoop 2.6 cluster. This crate provides a faithful, laptop-scale
//! substitute: typed map/reduce jobs executed by a real thread pool, with a
//! **byte-accurate sort-merge shuffle** (every key-value crosses the
//! map→reduce boundary through the [`codec::Wire`] wire format, so shuffle
//! volume is measured in real bytes) and a **slot-limited wave scheduler**
//! that reproduces the wall-clock structure of a Hadoop cluster:
//!
//! * each slave runs a bounded number of simultaneous map/reduce tasks
//!   ("slots"); excess tasks serialize into waves,
//! * every task pays a fixed startup overhead (Hadoop's JVM/task launch),
//! * shuffle and HDFS traffic pay a configurable per-byte cost.
//!
//! Task execution is fault-tolerant in the Hadoop sense: an attempt that
//! panics — or that a seeded [`fault::FaultPlan`] fails on purpose — is
//! caught, retried up to [`ClusterConfig::max_attempts`] times (the retry
//! scheduled *after* the failure is observed, so recovery cost shows up in
//! the simulated makespan), and straggling attempts get speculative backup
//! clones. A job only fails once some task exhausts its attempt budget
//! ([`RuntimeError::TaskFailed`]). See the [`fault`] module for a runnable
//! fault-injection example.
//!
//! Because the host machine may have fewer cores than the simulated
//! cluster has slots, tasks are *executed* on however many threads the host
//! provides while their durations — priced from what each task did
//! ([`metrics::TaskCost::secs`]), never timed on the host — are *scheduled*
//! onto the configured slots to produce a simulated makespan
//! ([`metrics::JobMetrics::simulated`]). The simulated time is the faithful
//! quantity, the same on every host and at every thread count, and it is
//! what the paper-figure binaries report.
//!
//! # Example
//!
//! ```
//! use dwmaxerr_runtime::cluster::{Cluster, ClusterConfig};
//! use dwmaxerr_runtime::job::{JobBuilder, MapContext, ReduceContext, Values};
//!
//! let cluster = Cluster::new(ClusterConfig::default());
//! // Word-count over two splits.
//! let splits: Vec<Vec<&str>> = vec![vec!["a", "b", "a"], vec!["b", "b"]];
//! let out = JobBuilder::new("wordcount")
//!     .map(|split: &Vec<&str>, ctx: &mut MapContext<String, u64>| {
//!         for w in split {
//!             ctx.emit(w.to_string(), 1);
//!         }
//!     })
//!     .reduce(|key: &String, vals: Values<'_, String, u64>,
//!              ctx: &mut ReduceContext<String, u64>| {
//!         ctx.emit(key.clone(), vals.sum());
//!     })
//!     .run(&cluster, &splits)
//!     .unwrap();
//! let mut pairs = out.pairs;
//! pairs.sort();
//! assert_eq!(pairs, vec![("a".into(), 2), ("b".into(), 3)]);
//! ```

//!
//! Multi-job driver programs declare their rounds as a
//! [`pipeline::Pipeline`], which owns split handoff between stages and
//! aggregates per-stage metrics into one [`metrics::DriverMetrics`].
//! Every execution is additionally recorded as a structured event log
//! ([`trace`]) with simulated-time task/shuffle spans, exportable as
//! JSONL or Chrome trace-event JSON for Perfetto.
//!
//! # Module map
//!
//! | Module        | Role |
//! |---------------|------|
//! | [`cluster`]   | [`ClusterConfig`] (slots, cost constants, fault plan) and the shared [`Cluster`] handle with its executor and trace sink |
//! | [`codec`]     | The `Wire` byte format every key/value pays to cross the shuffle |
//! | [`error`]     | [`RuntimeError`]: typed failures (task exhaustion, OOM, bad partitioner, codec) |
//! | [`executor`]  | Thread pool over one lock and one list of open batches: map/reduce attempts, run opens and final-merge key ranges on real cores, deterministically |
//! | [`fault`]     | Seeded [`FaultPlan`]: targeted/probabilistic attempt failures and stragglers |
//! | [`job`]       | [`JobBuilder`] → typed map/reduce jobs; a driver over the map / spill / fetch / merge / reduce phase modules |
//! | [`metrics`]   | Per-task [`TaskCost`] and its price in simulated seconds, per-job [`JobMetrics`] / per-driver [`DriverMetrics`] aggregates, attempt records |
//! | [`mod@reference`] | The shuffle oracle the engine is tested against: concatenate, stable-sort, group, reduce |
//! | [`pipeline`]  | Declarative multi-stage [`Pipeline`] driver with glue, loops, and publishing into [`Progressive`] snapshot handles |
//! | [`scheduler`] | Slot-limited wave scheduler: attempts → simulated makespan |
//! | [`trace`]     | Structured event log: task/shuffle/fault spans, JSONL + Chrome exporters |

pub mod cluster;
pub mod codec;
pub mod error;
pub mod executor;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod pipeline;
pub mod reference;
pub mod scheduler;
pub mod trace;

pub use cluster::{threads_from_env, Cluster, ClusterConfig, SpillBackend};
pub use error::RuntimeError;
pub use executor::Executor;
pub use fault::{
    FailureKind, FaultKind, FaultPlan, NodeFailure, Straggler, TargetedFault, TaskPhase,
};
pub use job::{JobBuilder, JobOutput, MapContext, ReduceContext, Values};
pub use metrics::{
    AttemptKind, AttemptOutcome, AttemptStats, DriverMetrics, JobMetrics, Kernel, RecoveryStats,
    SimTime, StageMetrics, TaskAttempt, TaskCost,
};
pub use pipeline::{Pipeline, Progressive, Snapshot};
pub use scheduler::{NodeEvent, NodeFaults, NodeTopology};
pub use trace::{TraceEvent, TraceEventKind, TraceSink};
