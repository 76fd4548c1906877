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
//!    over `k`.
//! 5. **Synopsis job** — level-1 workers rerun GreedyAbs only for the
//!    winning `C_root`, emitting actual `(node, coefficient)` pairs
//!    filtered to removal errors around the winning cut; a single reducer
//!    keeps the top `B - |C_root|`.
//!
//! Every step lives in the crate-private `errhist` module, shared with
//! DGreedyRel and the incremental maintainer; this module is the public
//! face and `AbsEngine`, what GreedyAbs contributes.

#![warn(clippy::too_many_lines)]

use dwmaxerr_algos::greedy_abs::GreedyAbs;
use dwmaxerr_algos::Removal;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::Cluster;
use dwmaxerr_wavelet::{Synopsis, WaveletError};

use crate::errhist::{self, bucket_of, ErrHistEngine, Shape};
use crate::error::CoreError;
use crate::query::ErrorBound;
use crate::splits::aligned_splits;

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
    /// The driver's error estimate, exact up to one bucket width `e_b`;
    /// not itself a bound (the measured error may exceed it).
    pub estimated_error: f64,
    /// The max-abs bound this synopsis is served with: the estimate
    /// widened by `e_b`.
    pub bound: ErrorBound,
    /// `|C_root|` of the winning candidate.
    pub best_croot_size: usize,
    /// Per-job metrics of the whole pipeline.
    pub metrics: DriverMetrics,
}

/// DGreedyAbs's side of Section 5: GreedyAbs at both levels, the cut bucket
/// (0 when everything fits) out of level 2. No floor — the driver's root
/// run gives `ρ_k` exactly.
pub(crate) struct AbsEngine;

impl ErrHistEngine for AbsEngine {
    type Out = f64;

    const PREFIX: &'static str = "dgreedyabs";

    fn task_memory(leaves: usize) -> u64 {
        dwmaxerr_algos::memory::greedy_abs_bytes(leaves)
    }

    fn root_trace(
        &self,
        root_coeffs: &[f64],
        _averages: &[f64],
    ) -> Result<Vec<Removal>, WaveletError> {
        Ok(GreedyAbs::new_full(root_coeffs)?.run_to_empty())
    }

    fn run(&self, details: &[f64], _slice: &[f64], incoming: f64) -> (f64, Vec<Removal>) {
        let mut g = GreedyAbs::new_subtree(details, incoming).expect("valid subtree");
        (f64::NEG_INFINITY, g.run_to_empty())
    }

    fn finish(&self, cut: Option<i64>, _floor: i64) -> f64 {
        cut.map_or(0.0, |bucket| bucket as f64)
    }

    /// `max(cut error, ρ_k)`; the cut error goes back through
    /// [`bucket_of`], which need not return the bucket it came from.
    fn judge(&self, cut_bucket: &f64, rho_k: f64, bucket_width: f64) -> (f64, i64) {
        let cut = cut_bucket * bucket_width;
        (cut.max(rho_k), bucket_of(cut, bucket_width))
    }
}

/// Runs DGreedyAbs over `data` with budget `b` on the given cluster.
pub fn dgreedy_abs(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    cfg: &DGreedyAbsConfig,
) -> Result<DGreedyAbsResult, CoreError> {
    let shape = Shape::new(
        data.len(),
        b,
        cfg.base_leaves,
        cfg.bucket_width,
        cfg.reducers,
    )?
    .capped(cfg.max_candidates);
    let splits = aligned_splits(data, shape.partition.base_leaves());
    let (pipe, roots) = errhist::build(cluster, &splits, &shape, &AbsEngine)?;
    let ((best, base_nodes), metrics) = pipe.finish();
    Ok(DGreedyAbsResult {
        synopsis: roots.assemble(best.k, base_nodes)?,
        estimated_error: best.score,
        bound: shape.abs_bound(best.score),
        best_croot_size: best.k,
        metrics,
    })
}

#[cfg(test)]
use crate::errhist::histogram_batches;

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
