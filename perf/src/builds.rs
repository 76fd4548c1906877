//! The build stage: repeated one-shot distributed builds, raw `&[f64]` in,
//! `Synopsis` out, a fresh `Cluster` each, every repetition checked
//! against the first.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dwmaxerr_algos::conventional::conventional_synopsis;
use dwmaxerr_core::conventional::send_coef;
use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_core::dindirect_haar::{dindirect_haar, DIndirectHaarConfig};
use dwmaxerr_core::dmin_haar_space::DmhsConfig;
use dwmaxerr_runtime::codec::{FnvHasher, WireSink};
use dwmaxerr_runtime::{Cluster, ClusterConfig, DriverMetrics, SpillBackend};
use dwmaxerr_wavelet::metrics::max_abs;
use dwmaxerr_wavelet::transform::forward;
use dwmaxerr_wavelet::Synopsis;

use crate::alloc::{self, Counted};
use crate::spans::Recorder;
use crate::spec::{BuildKind, SHUFFLE_BLOCKS};
use crate::stats;
use crate::yardstick::Yardstick;

/// Metric name → value; units live in [`crate::spec`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// The cluster a build runs on. `threads` and `spill_backend` are set
/// here, explicitly, so ambient `DWM_THREADS` / `DWM_SPILL_BACKEND` never
/// change what is measured. The shuffle workload adds Hadoop-style
/// memory pressure: a 1 MiB sort buffer and a merge fan-in of 16 force
/// many spill runs and intermediate merge passes.
pub fn cluster_config(kind: BuildKind, threads: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        threads,
        spill_backend: SpillBackend::Memory,
        ..ClusterConfig::default()
    };
    if kind == BuildKind::Shuffle {
        cfg.io_sort_bytes = 1 << 20;
        cfg.io_sort_factor = 16;
    }
    cfg
}

/// DGreedyAbs knobs: the workload's sub-tree size, defaults otherwise.
pub fn greedy_config(base_leaves: usize) -> DGreedyAbsConfig {
    DGreedyAbsConfig {
        base_leaves,
        ..DGreedyAbsConfig::default()
    }
}

/// One build to run: which algorithm, over what, with which knobs.
#[derive(Debug, Clone, Copy)]
pub struct BuildJob<'a> {
    /// The algorithm.
    pub kind: BuildKind,
    /// The input series.
    pub data: &'a [f64],
    /// Synopsis budget `B`.
    pub budget: usize,
    /// Leaves per base sub-tree (unused by Send-Coef, which cuts
    /// [`SHUFFLE_BLOCKS`] unaligned blocks).
    pub base_leaves: usize,
    /// Executor threads of the cluster.
    pub threads: usize,
}

/// What one build call returned.
#[derive(Debug, Clone)]
pub struct BuildOut {
    /// The synopsis.
    pub synopsis: Synopsis,
    /// The max-abs error bound the build advertises; Send-Coef advertises
    /// none (its error is measured by [`verify`]).
    pub advertised: Option<f64>,
    /// The build's job ledger.
    pub metrics: DriverMetrics,
    /// Wall time of the build call alone.
    pub wall: Duration,
    /// Events the runtime's own trace recorded for the build.
    pub trace_events: usize,
    /// When the call started (for spans).
    pub started: Instant,
}

/// Runs `job` once on a fresh cluster.
pub fn build_once(job: &BuildJob) -> Result<BuildOut, String> {
    let BuildJob {
        kind,
        data,
        budget,
        base_leaves,
        threads,
    } = *job;
    let cluster = Cluster::new(cluster_config(kind, threads));
    let started = Instant::now();
    let (synopsis, advertised, metrics) = match kind {
        BuildKind::Greedy => {
            let cfg = greedy_config(base_leaves);
            let r = dgreedy_abs(&cluster, data, budget, &cfg).map_err(|e| e.to_string())?;
            (
                r.synopsis,
                Some(r.estimated_error + cfg.bucket_width),
                r.metrics,
            )
        }
        BuildKind::Shuffle => {
            let (s, m) =
                send_coef(&cluster, data, budget, SHUFFLE_BLOCKS).map_err(|e| e.to_string())?;
            (s, None, m)
        }
        BuildKind::Dp => {
            let cfg = DIndirectHaarConfig {
                delta: 1.0,
                probe: DmhsConfig {
                    base_leaves,
                    fan_in: 4,
                },
            };
            let r = dindirect_haar(&cluster, data, budget, &cfg).map_err(|e| e.to_string())?;
            (r.synopsis, Some(r.error), r.metrics)
        }
    };
    let wall = started.elapsed();
    Ok(BuildOut {
        synopsis,
        advertised,
        metrics,
        wall,
        trace_events: cluster.trace_events().len(),
        started,
    })
}

/// FNV-1a over the synopsis's `(node, value bits)` entries.
pub fn digest(synopsis: &Synopsis) -> u64 {
    let mut h = FnvHasher::new();
    h.write(&(synopsis.data_len() as u64).to_le_bytes());
    for &(i, v) in synopsis.entries() {
        h.write(&i.to_le_bytes());
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The counts that must repeat exactly between two runs on one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// [`digest`] of the synopsis.
    pub digest: u64,
    /// Retained coefficients.
    pub size: usize,
    /// Advertised error, bit for bit.
    pub advertised_bits: Option<u64>,
    /// Jobs run.
    pub jobs: usize,
    /// Bytes shuffled.
    pub shuffle_bytes: u64,
}

impl Fingerprint {
    /// The fingerprint of one build.
    pub fn of(out: &BuildOut) -> Self {
        Fingerprint {
            digest: digest(&out.synopsis),
            size: out.synopsis.size(),
            advertised_bits: out.advertised.map(f64::to_bits),
            jobs: out.metrics.job_count(),
            shuffle_bytes: out.metrics.total_shuffle_bytes(),
        }
    }
}

/// Checks [`verify`] makes per build.
pub const CHECKS: u64 = 3;

/// Checks a finished build against the raw data; returns the error bound
/// to report and how many of the [`CHECKS`] failed.
///
/// * size ≤ B;
/// * the measured max-abs error of the full reconstruction stays within
///   the advertised bound (+1e-6);
/// * Send-Coef, which advertises nothing, must equal the centralized
///   conventional synopsis exactly, and reports its measured error.
pub fn verify(job: &BuildJob, out: &BuildOut) -> (f64, u64) {
    let measured = max_abs(job.data, &out.synopsis.reconstruct_all());
    let mut failed = u64::from(out.synopsis.size() > job.budget);
    let reported = match out.advertised {
        Some(bound) => {
            failed += u64::from(measured > bound + 1e-6);
            bound
        }
        None => measured,
    };
    if job.kind == BuildKind::Shuffle {
        let reference = forward(job.data).and_then(|w| conventional_synopsis(&w, job.budget));
        failed += u64::from(reference.ok().as_ref() != Some(&out.synopsis));
    }
    (reported, failed)
}

/// One timed repetition, reduced to what the metrics need (the synopsis
/// itself is dropped so a long run's memory does not grow with its
/// length).
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall of the build call.
    pub wall: Duration,
    /// Wall of the whole repetition: cluster creation, the call, teardown.
    pub rep_wall: Duration,
    /// Sums over the build's job ledger.
    pub ledger: LedgerSums,
    /// Index of the build's span in the recorder (traced runs).
    pub span: Option<usize>,
    /// Allocations during the build call (traced runs).
    pub counted: Counted,
}

/// What the stage measured.
#[derive(Debug, Clone)]
pub struct BuildStage {
    /// Timed repetitions, in order.
    pub reps: Vec<Rep>,
    /// The last repetition's full result.
    pub last: Option<BuildOut>,
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions whose fingerprint differed from the reference, or that
    /// errored.
    pub failed: u64,
}

impl BuildStage {
    /// Build walls in seconds.
    pub fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall.as_secs_f64()).collect()
    }

    /// Appends a later stage's repetitions to this one's.
    pub fn absorb(&mut self, later: BuildStage) {
        self.reps.extend(later.reps);
        self.last = later.last.or(self.last.take());
        self.attempted += later.attempted;
        self.failed += later.failed;
    }
}

/// Span name of a build call.
fn span_name(kind: BuildKind) -> &'static str {
    match kind {
        BuildKind::Greedy => "core.dgreedy_abs",
        BuildKind::Shuffle => "core.send_coef",
        BuildKind::Dp => "core.dindirect_haar",
    }
}

/// Records the build's span with one child per job. Jobs run back to
/// back inside the call, so the children tile the span from its start;
/// what they leave uncovered is the driver's own glue.
pub fn record_build(
    rec: &mut Recorder,
    kind: BuildKind,
    out: &BuildOut,
    rep: u32,
) -> Option<usize> {
    let span = rec.record(
        span_name(kind),
        out.started,
        out.started + out.wall,
        None,
        rep,
    )?;
    let mut at = rec.spans()[span].start_us;
    for job in &out.metrics.jobs {
        let end = at + job.real_elapsed.as_secs_f64() * 1e6;
        rec.record_us(
            format!("runtime.job:{}", job.name),
            at,
            end,
            Some(span),
            rep,
        );
        at = end;
    }
    Some(span)
}

/// Repeats the build until `budget_time` has passed and at least
/// `min_reps` repetitions are in, comparing each to `reference`. The
/// yardstick is read between repetitions, inside the budget.
pub fn run(
    job: &BuildJob,
    reference: &Fingerprint,
    budget_time: Duration,
    min_reps: usize,
    rec: &mut Recorder,
    yard: &mut Yardstick,
) -> BuildStage {
    let loop_start = Instant::now();
    let mut stage = BuildStage {
        reps: Vec::new(),
        last: None,
        attempted: 0,
        failed: 0,
    };
    while (stage.attempted as usize) < min_reps || loop_start.elapsed() < budget_time {
        stage.attempted += 1;
        yard.read();
        let rep_start = Instant::now();
        let (result, counted) = alloc::counted(rec.enabled(), || build_once(job));
        match result {
            Ok(out) => {
                if Fingerprint::of(&out) != *reference {
                    stage.failed += 1;
                }
                let span = record_build(rec, job.kind, &out, stage.reps.len() as u32);
                let ledger = LedgerSums::of(&out.metrics);
                stage.reps.push(Rep {
                    wall: out.wall,
                    rep_wall: rep_start.elapsed(),
                    ledger,
                    span,
                    counted,
                });
                stage.last = Some(out);
            }
            Err(_) => stage.failed += 1,
        }
    }
    yard.read();
    stage
}

/// Sums over one job ledger, in host seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerSums {
    map_s: f64,
    spill_s: f64,
    merge_s: f64,
    reduce_s: f64,
    job_wall_s: f64,
    jobs: f64,
    map_tasks: f64,
    shuffle_bytes: f64,
    shuffle_records: f64,
    spill_runs: f64,
    merge_passes: f64,
    greedy_runs: f64,
}

impl LedgerSums {
    /// Sums `m`'s jobs.
    pub fn of(m: &DriverMetrics) -> Self {
        let mut s = LedgerSums::default();
        for j in &m.jobs {
            s.map_s += j.map_task_secs.iter().sum::<f64>();
            s.spill_s += j.spill_secs.iter().sum::<f64>();
            s.merge_s += j.merge_secs.iter().sum::<f64>();
            s.reduce_s += j.reduce_task_secs.iter().sum::<f64>();
            s.job_wall_s += j.real_elapsed.as_secs_f64();
            s.jobs += 1.0;
            s.map_tasks += j.map_tasks() as f64;
            s.shuffle_bytes += j.shuffle_bytes as f64;
            s.shuffle_records += j.shuffle_records as f64;
            s.spill_runs += j.spill_runs.iter().sum::<u64>() as f64;
            s.merge_passes += j.merge_passes.iter().sum::<u64>() as f64;
            s.greedy_runs += j.counter("greedy_runs") as f64;
        }
        s
    }
}

/// `runtime.*` and `algos.greedy_runs` from a set of ledgers (one per
/// build call or tick): medians of the per-call time sums, and the counts
/// of the last call (they repeat exactly).
pub fn ledger_metrics(ledgers: &[LedgerSums], threads: usize) -> Metrics {
    let med =
        |f: fn(&LedgerSums) -> f64| stats::median_of(&ledgers.iter().map(f).collect::<Vec<_>>());
    let last = ledgers.last().copied().unwrap_or_default();
    let task_s = med(|s| s.map_s + s.reduce_s);
    let wall_s = med(|s| s.job_wall_s);
    Metrics::from([
        ("runtime.map_s", med(|s| s.map_s)),
        ("runtime.spill_s", med(|s| s.spill_s)),
        ("runtime.merge_s", med(|s| s.merge_s)),
        ("runtime.reduce_s", med(|s| s.reduce_s)),
        ("runtime.job_wall_s", wall_s),
        ("runtime.jobs", last.jobs),
        ("runtime.map_tasks", last.map_tasks),
        ("runtime.shuffle_bytes", last.shuffle_bytes),
        ("runtime.shuffle_records", last.shuffle_records),
        ("runtime.spill_runs", last.spill_runs),
        ("runtime.merge_passes", last.merge_passes),
        (
            "runtime.parallel_eff",
            if wall_s > 0.0 {
                task_s / (threads as f64 * wall_s)
            } else {
                0.0
            },
        ),
        ("algos.greedy_runs", last.greedy_runs),
    ])
}

/// The build stage's per-layer metrics (traced runs: needs the spans).
pub fn layer_metrics(stage: &BuildStage, rec: &Recorder, n: usize, threads: usize) -> Metrics {
    let reps = &stage.reps;
    let ledgers: Vec<LedgerSums> = reps.iter().map(|r| r.ledger).collect();
    let mut m = ledger_metrics(&ledgers, threads);
    let med = |v: Vec<f64>| stats::median_of(&v);
    let Some(last) = &stage.last else { return m };
    m.insert("core.build_s", med(stage.walls()));
    m.insert(
        "core.driver_self_s",
        med(reps
            .iter()
            .filter_map(|r| r.span)
            .map(|s| rec.self_time_us(s) / 1e6)
            .collect()),
    );
    m.insert("core.synopsis_size", last.synopsis.size() as f64);
    m.insert("runtime.trace.events", last.trace_events as f64);
    m.insert(
        "alloc.build_count_per_val",
        med(reps
            .iter()
            .map(|r| r.counted.calls as f64 / n as f64)
            .collect()),
    );
    m.insert(
        "alloc.build_peak_mb",
        med(reps
            .iter()
            .map(|r| r.counted.peak_bytes as f64 / (1 << 20) as f64)
            .collect()),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::series;
    use crate::spec::Input;

    #[test]
    fn small_builds_verify_and_repeat_exactly() {
        let data = series(Input::WdLike, 1 << 10, 17);
        let other = series(Input::WdLike, 1 << 10, 18);
        for kind in [BuildKind::Greedy, BuildKind::Shuffle, BuildKind::Dp] {
            let job = BuildJob {
                kind,
                data: &data,
                budget: 64,
                base_leaves: 128,
                threads: 2,
            };
            let a = build_once(&job).expect("builds");
            let b = build_once(&BuildJob { threads: 1, ..job }).expect("builds");
            assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b), "{kind:?}");
            let (err, failed) = verify(&job, &a);
            assert!(err > 0.0 && failed == 0, "{kind:?}");
            // A synopsis for other data must not pass as this build's.
            assert!(
                verify(
                    &BuildJob {
                        data: &other,
                        ..job
                    },
                    &a
                )
                .1 > 0,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn build_span_children_tile_the_call_and_leave_the_glue() {
        let data = series(Input::WdLike, 1 << 10, 17);
        let job = BuildJob {
            kind: BuildKind::Greedy,
            data: &data,
            budget: 64,
            base_leaves: 128,
            threads: 1,
        };
        let out = build_once(&job).expect("builds");
        let mut rec = Recorder::new(out.started, true);
        let span = record_build(&mut rec, BuildKind::Greedy, &out, 0).unwrap();
        assert_eq!(rec.spans().len(), 1 + out.metrics.job_count());
        let jobs_us: f64 = out.metrics.total_real().as_secs_f64() * 1e6;
        let want = out.wall.as_secs_f64() * 1e6 - jobs_us;
        assert!(
            (rec.self_time_us(span) - want).abs() < 1.0,
            "{} vs {want}",
            rec.self_time_us(span)
        );
    }
}
