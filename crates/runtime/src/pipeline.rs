//! Declarative multi-stage pipelines over the MapReduce engine.
//!
//! The paper's Section-4 framework is a *staged dataflow*: one MapReduce
//! round per error-tree layer, glued together by a driver that turns each
//! round's output into the next round's input splits. A [`Pipeline`] makes
//! that plan a first-class object instead of ad-hoc `Job::run` chaining:
//!
//! * **Stages are declared, not hand-wired.** [`Pipeline::stage`] runs a
//!   [`Job`] over borrowed splits and threads its output
//!   pairs to the next combinator; [`Pipeline::then`] /
//!   [`Pipeline::try_then`] host the driver-side glue between rounds.
//! * **Split ownership stays with the driver.** `stage` borrows its splits
//!   (`&[S]`), so input data built by one stage's glue is handed to the
//!   next stage without a defensive clone, and the reducer output moves —
//!   never re-encoded — into the glue closure.
//! * **Metrics aggregate automatically.** Every executed stage pushes its
//!   [`JobMetrics`] into one [`DriverMetrics`] ledger; conditional probes
//!   and sub-pipelines fold in through [`Pipeline::absorb`] /
//!   [`Pipeline::record`]. Each stage's job is also a block of the
//!   cluster's trace under its job name, so
//!   [`crate::trace::summary::per_stage`] reports per-stage simulated
//!   time, shuffle bytes, and fault/retry counts uniformly across
//!   algorithms.
//! * **Loops are part of the plan.** [`Pipeline::repeat`] runs a body of
//!   stages while a predicate over the threaded value holds — the shape of
//!   the layered bottom-up jobs and of IndirectHaar's binary-search
//!   probes.
//!
//! A pipeline publishes nothing: a plan's result leaves it through
//! [`Pipeline::finish`], and whoever serves it records the version it
//! serves (`snapshot_published` in the [`crate::trace`]).
//!
//! # Example
//!
//! A two-stage plan: count words, then histogram the counts, with the
//! second stage's input built from the first stage's output.
//!
//! ```
//! use dwmaxerr_runtime::cluster::{Cluster, ClusterConfig};
//! use dwmaxerr_runtime::job::{JobBuilder, MapContext, ReduceContext};
//! use dwmaxerr_runtime::pipeline::Pipeline;
//! use dwmaxerr_runtime::trace::summary;
//!
//! let cluster = Cluster::new(ClusterConfig::default());
//! let docs: Vec<Vec<&str>> = vec![vec!["a", "b", "a"], vec!["b", "b"]];
//!
//! let count = JobBuilder::new("count")
//!     .map(|split: &Vec<&str>, ctx: &mut MapContext<String, u64>| {
//!         for w in split {
//!             ctx.emit(w.to_string(), 1);
//!         }
//!     })
//!     .reduce(|k: &String, vals, ctx: &mut ReduceContext<String, u64>| {
//!         ctx.emit(k.clone(), vals.sum());
//!     });
//! let histogram = JobBuilder::new("histogram")
//!     .map(|&(_, c): &(String, u64), ctx: &mut MapContext<u64, u64>| {
//!         ctx.emit(c, 1);
//!     })
//!     .reduce(|&c, vals, ctx: &mut ReduceContext<u64, u64>| {
//!         ctx.emit(c, vals.sum());
//!     });
//!
//! let pipe = Pipeline::on(&cluster).stage(&count, &docs).unwrap();
//! // Driver glue: the word counts become the next stage's splits.
//! let counts = pipe.value().1.clone();
//! let (_, metrics) = pipe
//!     .stage(&histogram, &counts)
//!     .unwrap()
//!     .then(|(_, pairs)| pairs)
//!     .finish();
//! assert_eq!(metrics.job_count(), 2);
//! let stages = summary::per_stage(&cluster.trace_events());
//! assert_eq!(stages[0].name, "count");
//! assert_eq!(stages[1].name, "histogram");
//! ```

use crate::cluster::Cluster;
use crate::codec::Wire;
use crate::error::RuntimeError;
use crate::job::{Job, MapContext, ReduceContext, Values};
use crate::metrics::{DriverMetrics, JobMetrics};

/// The pipeline produced by [`Pipeline::stage`]: the previous threaded
/// value paired with the stage's output pairs.
pub type StagedPipeline<'c, T, OK, OV> = Pipeline<'c, (T, Vec<(OK, OV)>)>;

/// A multi-stage MapReduce plan under construction.
///
/// A pipeline owns the driver's side of a staged dataflow: the cluster
/// handle, the accumulated [`DriverMetrics`], and a threaded value `T`
/// holding whatever driver state the stages have produced so far. Each
/// combinator consumes the pipeline and returns it (possibly with a new
/// value type), so a plan reads top-to-bottom as the sequence of rounds it
/// executes. Call [`Pipeline::finish`] to take the final value and the
/// metrics ledger.
#[derive(Debug)]
#[must_use = "a pipeline does nothing until finished"]
pub struct Pipeline<'c, T> {
    cluster: &'c Cluster,
    metrics: DriverMetrics,
    value: T,
}

impl<'c> Pipeline<'c, ()> {
    /// Starts an empty pipeline on `cluster`.
    pub fn on(cluster: &'c Cluster) -> Self {
        Pipeline {
            cluster,
            metrics: DriverMetrics::new(),
            value: (),
        }
    }
}

impl<'c, T> Pipeline<'c, T> {
    /// Starts a pipeline on `cluster` with an initial threaded value.
    pub fn with(cluster: &'c Cluster, value: T) -> Self {
        Pipeline {
            cluster,
            metrics: DriverMetrics::new(),
            value,
        }
    }

    /// The cluster this pipeline runs on.
    pub fn cluster(&self) -> &'c Cluster {
        self.cluster
    }

    /// The value threaded through the stages so far.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &DriverMetrics {
        &self.metrics
    }

    /// Runs `job` over `splits` as the next stage.
    ///
    /// The splits are only borrowed — ownership stays with the driver, so
    /// data built by a previous stage's glue feeds this stage without
    /// cloning. The stage's [`JobMetrics`] are pushed onto the ledger under
    /// the job's name, and its output pairs are threaded alongside the
    /// current value as `(T, pairs)`. The trace records the stage as the
    /// job's own block, `job_begin` to `job_end` (or a `job_aborted` when
    /// the job fails); the stage adds no marker of its own.
    pub fn stage<S, K, V, OK, OV, F, G>(
        mut self,
        job: &Job<S, K, V, OK, OV, F, G>,
        splits: &[S],
    ) -> Result<StagedPipeline<'c, T, OK, OV>, RuntimeError>
    where
        S: Sync,
        K: Wire + Ord + Send,
        V: Wire + Send,
        OK: Send,
        OV: Send,
        F: Fn(&S, &mut MapContext<K, V>) + Sync,
        G: Fn(&K, Values<'_, K, V>, &mut ReduceContext<OK, OV>) + Sync,
    {
        let out = job.run(self.cluster, splits)?;
        self.metrics.push(out.metrics);
        Ok(Pipeline {
            cluster: self.cluster,
            metrics: self.metrics,
            value: (self.value, out.pairs),
        })
    }

    /// Driver-side glue: maps the threaded value between stages.
    ///
    /// This is where a stage's output pairs are decoded into driver state
    /// or shaped into the next stage's input. The closure receives the
    /// value by move, so stage outputs flow onward without re-encoding.
    /// Glue is free on the simulated clock and records no trace event: the
    /// next stage's `job_begin` marks the transition.
    pub fn then<U>(self, f: impl FnOnce(T) -> U) -> Pipeline<'c, U> {
        Pipeline {
            cluster: self.cluster,
            metrics: self.metrics,
            value: f(self.value),
        }
    }

    /// Fallible driver-side glue; the pipeline stops at the first error.
    pub fn try_then<U, E>(self, f: impl FnOnce(T) -> Result<U, E>) -> Result<Pipeline<'c, U>, E> {
        Ok(Pipeline {
            cluster: self.cluster,
            metrics: self.metrics,
            value: f(self.value)?,
        })
    }

    /// Runs `body` — itself a sequence of stages — while `cond` holds on
    /// the threaded value.
    ///
    /// This is the looped-stage form of the layered bottom-up rounds (one
    /// job per error-tree layer) and of binary-search probe loops: the loop
    /// state lives in `T`, each body iteration appends its stages' metrics
    /// to the same ledger, and the loop ends when the predicate fails.
    pub fn repeat<E>(
        mut self,
        cond: impl Fn(&T) -> bool,
        mut body: impl FnMut(Pipeline<'c, T>) -> Result<Pipeline<'c, T>, E>,
    ) -> Result<Pipeline<'c, T>, E> {
        while cond(&self.value) {
            self = body(self)?;
        }
        Ok(self)
    }

    /// Folds a sub-pipeline's ledger into this pipeline's metrics (e.g.
    /// one conditional probe's job chain), preserving execution order.
    pub fn absorb(mut self, other: DriverMetrics) -> Self {
        self.metrics.merge(other);
        self
    }

    /// Appends one externally-executed job's metrics to the ledger.
    pub fn record(mut self, job: JobMetrics) -> Self {
        self.metrics.push(job);
        self
    }

    /// Ends the plan, returning the threaded value and the metrics ledger.
    pub fn finish(self) -> (T, DriverMetrics) {
        (self.value, self.metrics)
    }

    /// Ends the plan, keeping only the metrics ledger.
    pub fn into_metrics(self) -> DriverMetrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fault::{FaultPlan, TaskPhase};
    use crate::job::JobBuilder;
    use crate::trace::summary;

    fn small_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_millis(1);
        cfg.job_setup = std::time::Duration::from_millis(1);
        Cluster::new(cfg)
    }

    #[test]
    fn single_stage_collects_pairs_and_metrics() {
        let cluster = small_cluster();
        let job = JobBuilder::new("sum")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()));
        let (pairs, metrics) = Pipeline::on(&cluster)
            .stage(&job, &[1, 2, 3])
            .unwrap()
            .then(|((), pairs)| pairs)
            .finish();
        assert_eq!(pairs, vec![(0, 6)]);
        assert_eq!(metrics.job_count(), 1);
        assert_eq!(metrics.jobs[0].name, "sum");
    }

    #[test]
    fn chained_stages_hand_outputs_to_inputs_without_cloning_splits() {
        let cluster = small_cluster();
        let square = JobBuilder::new("square")
            .map(|s: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*s, s * s))
            .reduce(|k, mut vals, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vals.next().expect("one value"))
            });
        let total = JobBuilder::new("total")
            .map(|&(_, sq): &(u64, u64), ctx: &mut MapContext<u8, u64>| ctx.emit(0, sq))
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()));
        // Stage 1 output pairs are moved into the glue, shaped into stage 2
        // splits, and borrowed by stage 2 — no re-encode, no clone.
        let pipe = Pipeline::on(&cluster).stage(&square, &[1, 2, 3]).unwrap();
        let pipe = pipe.then(|(_, pairs)| pairs);
        let squares = pipe.value().clone();
        let ((_, pairs), metrics) = pipe.stage(&total, &squares).unwrap().finish();
        assert_eq!(pairs, vec![(0, 14)]);
        assert_eq!(metrics.job_count(), 2);
        let names: Vec<&str> = metrics.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, vec!["square", "total"]);
        // Automatic aggregation matches manual summing.
        let by_hand: f64 = metrics.jobs.iter().map(|j| j.simulated().secs()).sum();
        assert_eq!(metrics.total_simulated().secs(), by_hand);
    }

    #[test]
    fn repeat_runs_stages_until_condition_fails() {
        let cluster = small_cluster();
        let halve = JobBuilder::new("halve")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, s / 2))
            .reduce(|k, mut vals, ctx: &mut ReduceContext<u8, u64>| {
                ctx.emit(*k, vals.next().expect("one"))
            });
        let pipe = Pipeline::with(&cluster, vec![16u64])
            .repeat(
                |v: &Vec<u64>| v[0] > 1,
                |p| {
                    let input = p.value().clone();
                    Ok::<_, RuntimeError>(
                        p.stage(&halve, &input)?
                            .then(|(_, pairs)| pairs.into_iter().map(|(_, v)| v).collect()),
                    )
                },
            )
            .unwrap();
        assert_eq!(pipe.value(), &vec![1u64]);
        // 16 -> 8 -> 4 -> 2 -> 1: four runs of the looped stage.
        let (_, metrics) = pipe.finish();
        assert_eq!(metrics.job_count(), 4);
        let stages = summary::per_stage(&cluster.trace_events());
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].name, "halve");
        assert_eq!(stages[0].runs, 4);
    }

    #[test]
    fn absorb_and_record_fold_external_metrics() {
        let cluster = small_cluster();
        let mut sub = DriverMetrics::new();
        sub.push(JobMetrics {
            name: "probe".into(),
            ..JobMetrics::default()
        });
        let extra = JobMetrics {
            name: "eval".into(),
            ..JobMetrics::default()
        };
        let pipe = Pipeline::with(&cluster, 7u32).absorb(sub).record(extra);
        assert_eq!(pipe.metrics().job_count(), 2);
        let (value, metrics) = pipe.finish();
        assert_eq!(value, 7);
        let names: Vec<&str> = metrics.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, vec!["probe", "eval"]);
    }

    #[test]
    fn stage_error_propagates() {
        let cluster = small_cluster();
        let job = JobBuilder::new("none")
            .map(|_s: &u64, _ctx: &mut MapContext<u8, u64>| {})
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u64>| {});
        let result = Pipeline::on(&cluster).stage(&job, &[]);
        assert!(matches!(result, Err(RuntimeError::NoInput)));
    }

    #[test]
    fn fault_recovery_is_invisible_to_pipeline_results() {
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.task_startup = std::time::Duration::from_millis(1);
        cfg.job_setup = std::time::Duration::from_millis(1);
        cfg.fault_plan = Some(
            FaultPlan::seeded(0)
                .with_targeted(TaskPhase::Map, 0, vec![1])
                .with_targeted(TaskPhase::Reduce, 0, vec![1]),
        );
        let cluster = Cluster::new(cfg);
        let job = JobBuilder::new("sum")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()));
        let ((_, pairs), _) = Pipeline::on(&cluster)
            .stage(&job, &[1, 2, 3])
            .unwrap()
            .finish();
        assert_eq!(pairs, vec![(0, 6)]);
        let row = &summary::per_stage(&cluster.trace_events())[0];
        assert_eq!(row.map.failed + row.reduce.failed, 2);
        assert_eq!(row.map.retried + row.reduce.retried, 2);
    }
}
