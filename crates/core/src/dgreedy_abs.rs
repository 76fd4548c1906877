//! DGreedyAbs (Section 5, Algorithms 3-6): the paper's distributed greedy
//! algorithm for maximum-absolute-error thresholding.
//!
//! Pipeline (Algorithm 6):
//!
//! 1. **Averages job** — base-slice averages roll up into the root
//!    sub-tree's coefficients (Haar self-similarity).
//! 2. **genRootSets** (Algorithm 4, driver-side) — GreedyAbs on the root
//!    sub-tree yields `min{R,B}+1` nested candidate retained sets
//!    `C_root`; the root-run error after removing `R-k` nodes is exactly
//!    `max_j |e_in,j|` for candidate `k` (the root tree's pseudo-leaves
//!    *are* the base sub-tree entry points), which the driver keeps as the
//!    residual floor `ρ_k`.
//! 3. **ErrHistGreedyAbs job** (Algorithm 3 + histogram optimization) —
//!    each level-1 worker runs GreedyAbs over its base sub-tree once per
//!    *distinct* incoming error (`log R + 2` runs, Section 5.3), batches
//!    removals into error buckets of width `e_b`, and ships each run's
//!    histogram of `(bucket, count)` entries instead of node lists — the
//!    paper's I/O optimization — once per level-2 reducer that owns a
//!    candidate `C_root` of that incoming error.
//! 4. **combineResults** (Algorithm 5, level-2 reducers) — per candidate,
//!    select over its histograms the error at the `B - |C_root|` cut; the
//!    driver picks the best candidate as `max(cut error, ρ_k)` minimized
//!    over `k`. Both levels live in the crate-private `errhist` module,
//!    shared with DGreedyRel.
//! 5. **Synopsis job** — level-1 workers rerun GreedyAbs only for the
//!    winning `C_root`, emitting actual `(node, coefficient)` pairs
//!    filtered to removal errors around the winning cut; a single reducer
//!    keeps the top `B - |C_root|`.

use std::sync::Arc;

use dwmaxerr_algos::greedy_abs::GreedyAbs;
use dwmaxerr_algos::Removal;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{Cluster, JobBuilder, MapContext, Pipeline, ReduceContext};
use dwmaxerr_wavelet::Synopsis;

use crate::errhist::{errhist_stage, ErrHistEngine};
use crate::error::CoreError;
use crate::partition::BasePartition;
use crate::splits::{aligned_splits, SliceSplit};

/// Tuning knobs for DGreedyAbs.
#[derive(Debug, Clone)]
pub struct DGreedyAbsConfig {
    /// Leaves per base sub-tree (`S`); power of two. The paper uses 1M-node
    /// sub-trees and shows the choice barely matters (Figure 5a).
    pub base_leaves: usize,
    /// Error-bucket width `e_b` (Algorithm 3). Smaller buckets mean more
    /// emitted key-values but a tighter final cut.
    pub bucket_width: f64,
    /// Level-2 workers (paper: 4 reducers).
    pub reducers: usize,
    /// Optional cap on the number of speculative `C_root` candidates
    /// (ablation knob; the paper always explores all `min{R,B}+1`).
    /// Candidates of size `0..=cap` are kept.
    pub max_candidates: Option<usize>,
}

impl Default for DGreedyAbsConfig {
    fn default() -> Self {
        DGreedyAbsConfig {
            base_leaves: 1 << 12,
            bucket_width: 1e-6,
            reducers: 4,
            max_candidates: None,
        }
    }
}

/// Result of a DGreedyAbs run.
#[derive(Debug, Clone)]
pub struct DGreedyAbsResult {
    /// The synopsis (root retained set ∪ chosen base nodes).
    pub synopsis: Synopsis,
    /// The driver's error estimate (exact up to bucket width).
    pub estimated_error: f64,
    /// `|C_root|` of the winning candidate.
    pub best_croot_size: usize,
    /// Per-job metrics of the whole pipeline.
    pub metrics: DriverMetrics,
}

/// Shared driver-side context broadcast to level-1 workers (DGreedyRel
/// broadcasts the same).
pub(crate) struct Broadcast {
    pub(crate) partition: BasePartition,
    pub(crate) root_coeffs: Vec<f64>,
    /// Root-sub-tree removal order (genRootSets' `L_root`).
    pub(crate) removal_order: Vec<usize>,
    /// Candidate count: sets `k = 0..=max_k`.
    pub(crate) max_k: usize,
    pub(crate) bucket_width: f64,
    /// The synopsis budget `B`.
    pub(crate) budget: usize,
    /// Level-2 workers of the errhist stage.
    pub(crate) reducers: usize,
}

impl Broadcast {
    /// Root nodes *removed* under candidate `k` (all but the last `k`
    /// removals).
    pub(crate) fn removed_under(&self, k: usize) -> &[usize] {
        &self.removal_order[..self.removal_order.len() - k]
    }

    /// Root nodes *retained* under candidate `k`.
    pub(crate) fn retained_under(&self, k: usize) -> &[usize] {
        &self.removal_order[self.removal_order.len() - k..]
    }

    pub(crate) fn bucket(&self, error: f64) -> i64 {
        bucket_of(error, self.bucket_width)
    }
}

/// The error bucket of `error` at bucket width `width` (Algorithm 3).
/// Shared with the incremental driver so cached and fresh runs bucket
/// identically.
pub(crate) fn bucket_of(error: f64, width: f64) -> i64 {
    (error / width).floor() as i64
}

/// Batches a removal trace into `(running-max bucket, count)` histogram
/// entries (Algorithm 3's `discardNode`, histogram form).
pub(crate) fn histogram_batches(
    trace: &[dwmaxerr_algos::Removal],
    bucket_width: f64,
) -> Vec<(i64, u32)> {
    let mut out = Vec::new();
    let mut max_bucket = i64::MIN;
    let mut count = 0u32;
    for r in trace {
        let b = bucket_of(r.error_after, bucket_width);
        if b <= max_bucket {
            count += 1;
        } else {
            if count > 0 {
                out.push((max_bucket, count));
            }
            max_bucket = b;
            count = 1;
        }
    }
    if count > 0 {
        out.push((max_bucket, count));
    }
    out
}

/// DGreedyAbs's errhist stage: GreedyAbs at level 1, the cut bucket (0
/// when everything fits) at level 2. No floor — the driver's root run
/// gives `ρ_k` exactly.
pub(crate) struct AbsEngine;

impl ErrHistEngine for AbsEngine {
    type Out = f64;

    const JOB: &'static str = "dgreedyabs-errhist";

    fn task_memory(leaves: usize) -> u64 {
        dwmaxerr_algos::memory::greedy_abs_bytes(leaves)
    }

    fn run(&self, details: &[f64], _slice: &[f64], incoming: f64) -> (f64, Vec<Removal>) {
        let mut g = GreedyAbs::new_subtree(details, incoming).expect("valid subtree");
        (f64::NEG_INFINITY, g.run_to_empty())
    }

    fn finish(&self, cut: Option<i64>, _floor: i64) -> f64 {
        cut.map_or(0.0, |bucket| bucket as f64)
    }
}

/// Runs DGreedyAbs over `data` with budget `b` on the given cluster.
pub fn dgreedy_abs(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    cfg: &DGreedyAbsConfig,
) -> Result<DGreedyAbsResult, CoreError> {
    let n = data.len();
    let partition = BasePartition::new(n, cfg.base_leaves.min(n))?;
    if cfg.bucket_width.is_nan() || cfg.bucket_width <= 0.0 {
        return Err(CoreError::Protocol("bucket_width must be positive"));
    }
    if cfg.reducers == 0 {
        return Err(CoreError::Protocol("reducers must be positive"));
    }
    let splits = aligned_splits(data, partition.base_leaves());

    // ---- Job 0: base-slice averages -> root sub-tree coefficients ----
    let avg_job = JobBuilder::new("dgreedyabs-averages")
        .map(|split: &SliceSplit, ctx: &mut MapContext<u32, f64>| {
            let avg = split.slice().iter().sum::<f64>() / split.len() as f64;
            ctx.emit(split.id, avg);
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(|k, vals, ctx: &mut ReduceContext<u32, f64>| {
            for v in vals {
                ctx.emit(*k, v);
            }
        });
    let pipe = Pipeline::on(cluster)
        .stage(&avg_job, &splits)?
        .try_then(|(_, pairs)| {
            let averages = partition.finite_averages(pairs)?;
            Ok::<_, CoreError>(partition.root_coeffs_from_averages(&averages))
        })?;
    let root_coeffs = pipe.value().clone();

    // ---- genRootSets (Algorithm 4): centralized GreedyAbs on the root ----
    let r = partition.num_base();
    let mut root_greedy = GreedyAbs::new_full(&root_coeffs)?;
    let root_trace = root_greedy.run_to_empty();
    let removal_order: Vec<usize> = root_trace.iter().map(|t| t.node as usize).collect();
    let max_k = r.min(b).min(cfg.max_candidates.unwrap_or(usize::MAX));
    // Residual floor per candidate: the root-run error after removing
    // R - k nodes equals max_j |e_in,j|.
    let rho: Vec<f64> = (0..=max_k)
        .map(|k| {
            let removed = r - k;
            if removed == 0 {
                0.0
            } else {
                root_trace[removed - 1].error_after
            }
        })
        .collect();

    let bc = Arc::new(Broadcast {
        partition,
        root_coeffs: root_coeffs.clone(),
        removal_order,
        max_k,
        bucket_width: cfg.bucket_width,
        budget: b,
        reducers: cfg.reducers,
    });

    // ---- Job 1: ErrHistGreedyAbs (level 1) + combineResults (level 2) ----
    let pipe = errhist_stage(pipe, &splits, &bc, &AbsEngine)?
        // ---- Pick the best candidate: max(cut_k, rho_k), minimized ----
        .try_then(|(_, pairs)| -> Result<_, CoreError> {
            let mut best_k = 0usize;
            let mut best_err = f64::INFINITY;
            let mut best_cut = 0.0f64;
            for (k, cut_bucket) in pairs {
                let cut = cut_bucket * cfg.bucket_width;
                let total = cut.max(rho[k as usize]);
                // Canonical tie-break on the smaller candidate, so the
                // winner is independent of the reduce output order (the
                // incremental driver re-derives it iterating k ascending).
                if total < best_err || (total == best_err && (k as usize) < best_k) {
                    best_err = total;
                    best_k = k as usize;
                    best_cut = cut;
                }
            }
            if !best_err.is_finite() {
                return Err(CoreError::Protocol("no candidate produced a cut"));
            }
            Ok((best_k, best_err, best_cut))
        })?;
    let (best_k, best_err, best_cut) = *pipe.value();

    // ---- Job 2: emit actual nodes for the winning C_root ----
    let bc2 = Arc::clone(&bc);
    let cut_bucket = bc.bucket(best_cut);
    let keep_base = b - best_k;
    let syn_job = JobBuilder::new("dgreedyabs-synopsis")
        .map(
            move |split: &SliceSplit, ctx: &mut MapContext<u8, (i64, u32, u32, f64)>| {
                let bc = &bc2;
                let (details, _avg) = bc.partition.base_details_from_data(split.slice());
                let j = split.id as usize;
                let e = bc
                    .partition
                    .incoming_error(&bc.root_coeffs, bc.removed_under(best_k), j);
                let mut g = GreedyAbs::new_subtree(&details, e).expect("valid subtree");
                let trace = g.run_to_empty();
                // Running-max bucket per removal; only nodes at or above
                // the winning cut (minus one bucket of slack) can be kept.
                let mut max_bucket = i64::MIN;
                for (idx, rem) in trace.iter().enumerate() {
                    max_bucket = max_bucket.max(bc.bucket(rem.error_after));
                    if max_bucket >= cut_bucket.saturating_sub(1) {
                        let global = bc.partition.local_to_global(j, rem.node as usize);
                        let coeff = details[rem.node as usize - 1];
                        ctx.emit(0, (max_bucket, idx as u32, global as u32, coeff));
                    }
                }
            },
        )
        .input_bytes(SliceSplit::bytes)
        .reduce(move |_k: &u8, vals, ctx: &mut ReduceContext<u32, f64>| {
            let mut nodes: Vec<(i64, u32, u32, f64)> = vals.collect();
            // Most important first: later batches, later removals.
            nodes.sort_unstable_by_key(|&(bucket, idx, _, _)| std::cmp::Reverse((bucket, idx)));
            for (_, _, node, coeff) in nodes.into_iter().take(keep_base) {
                ctx.emit(node, coeff);
            }
        });
    let ((_, syn_pairs), metrics) = pipe.stage(&syn_job, &splits)?.finish();

    // ---- Assemble the synopsis: winning C_root ∪ chosen base nodes ----
    let mut entries: Vec<(u32, f64)> = bc
        .retained_under(best_k)
        .iter()
        .map(|&a| (a as u32, root_coeffs[a]))
        .collect();
    entries.extend(syn_pairs);
    let synopsis = Synopsis::from_entries(n, entries)?;

    Ok(DGreedyAbsResult {
        synopsis,
        estimated_error: best_err,
        best_croot_size: best_k,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_algos::greedy_abs::greedy_abs_synopsis;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::metrics::max_abs;
    use dwmaxerr_wavelet::transform::forward;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    fn run(data: &[f64], b: usize, s: usize) -> DGreedyAbsResult {
        let cfg = DGreedyAbsConfig {
            base_leaves: s,
            bucket_width: 1e-9,
            reducers: 2,
            max_candidates: None,
        };
        dgreedy_abs(&test_cluster(), data, b, &cfg).unwrap()
    }

    #[test]
    fn matches_centralized_greedy_on_paper_data() {
        let data = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
        let w = forward(&data).unwrap();
        for b in 1..=8 {
            let d = run(&data, b, 2);
            assert!(d.synopsis.size() <= b, "b={b}: size {}", d.synopsis.size());
            let d_err = max_abs(&data, &d.synopsis.reconstruct_all());
            let (_, g_err) = greedy_abs_synopsis(&w, b).unwrap();
            assert!(
                d_err <= g_err + 1e-6,
                "b={b}: distributed {d_err} vs centralized {g_err}"
            );
        }
    }

    #[test]
    fn estimated_error_matches_actual() {
        let data: Vec<f64> = (0..64)
            .map(|i| ((i * 37) % 23) as f64 + if i == 13 { 100.0 } else { 0.0 })
            .collect();
        for (b, s) in [(8, 8), (16, 16), (5, 4)] {
            let d = run(&data, b, s);
            let actual = max_abs(&data, &d.synopsis.reconstruct_all());
            assert!(
                (actual - d.estimated_error).abs() <= 1e-6 + d.estimated_error * 1e-9,
                "b={b} s={s}: actual {actual} vs estimated {}",
                d.estimated_error
            );
        }
    }

    #[test]
    fn different_subtree_sizes_same_quality() {
        // Figure 5a's point: the sub-tree size does not change the result.
        let data: Vec<f64> = (0..128).map(|i| ((i * 13) % 31) as f64 * 3.0).collect();
        let b = 16;
        let errs: Vec<f64> = [4usize, 8, 16, 32]
            .iter()
            .map(|&s| {
                let d = run(&data, b, s);
                max_abs(&data, &d.synopsis.reconstruct_all())
            })
            .collect();
        for w in errs.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-6,
                "sub-tree size changed quality: {errs:?}"
            );
        }
    }

    #[test]
    fn full_budget_is_near_lossless() {
        let data: Vec<f64> = (0..32).map(|i| (i as f64).sin() * 50.0).collect();
        let d = run(&data, 32, 8);
        let err = max_abs(&data, &d.synopsis.reconstruct_all());
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn zero_budget_keeps_nothing() {
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let d = run(&data, 0, 4);
        assert_eq!(d.synopsis.size(), 0);
        assert_eq!(d.best_croot_size, 0);
    }

    #[test]
    fn pipeline_runs_three_jobs() {
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let d = run(&data, 4, 8);
        assert_eq!(d.metrics.job_count(), 3);
        assert!(d.metrics.total_shuffle_bytes() > 0);
        assert!(d.metrics.total_simulated().secs() > 0.0);
    }

    #[test]
    fn histogram_batches_compact_monotone_runs() {
        let trace: Vec<dwmaxerr_algos::Removal> = [1.2, 1.7, 3.5, 3.0, 4.2]
            .iter()
            .enumerate()
            .map(|(i, &e)| dwmaxerr_algos::Removal {
                node: i as u32 + 1,
                error_after: e,
            })
            .collect();
        // Buckets: 1,1,3,3(<=max),4 -> batches (1,2),(3,2),(4,1).
        assert_eq!(histogram_batches(&trace, 1.0), vec![(1, 2), (3, 2), (4, 1)]);
    }
}
