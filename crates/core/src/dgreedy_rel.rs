//! DGreedyRel (Section 5.4): DGreedyAbs's pipeline with GreedyRel at the
//! workers, minimizing maximum *relative* error under a sanity bound.
//!
//! The steps *are* [`mod@crate::dgreedy_abs`]'s — one crate-private driver
//! runs both. The differences, held by `RelEngine`: (i) level-1 workers
//! run the envelope-based GreedyRel, which needs the leaf values for its
//! denominators, and (ii) genRootSets orders the candidates by a GreedyRel
//! run on the root sub-tree whose pseudo-leaf denominators are the
//! base-slice averages — an approximation of the true per-leaf
//! denominators, so the workers report the floors they carry and the final
//! error is re-measured exactly by a distributed evaluation job.

#![warn(clippy::too_many_lines)]

use dwmaxerr_algos::greedy_rel::GreedyRel;
use dwmaxerr_algos::Removal;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::Cluster;
use dwmaxerr_wavelet::{Synopsis, WaveletError};

use crate::errhist::{self, ErrHistEngine, Shape};
use crate::error::CoreError;
use crate::eval::max_error_job;
use crate::query::ErrorBound;
use crate::splits::aligned_splits;

/// Tuning knobs for DGreedyRel.
#[derive(Debug, Clone)]
pub struct DGreedyRelConfig {
    /// Leaves per base sub-tree (power of two).
    pub base_leaves: usize,
    /// Relative-error bucket width `e_b`.
    pub bucket_width: f64,
    /// Level-2 workers.
    pub reducers: usize,
    /// Sanity bound `S > 0` for the relative error (Eq. 3).
    pub sanity: f64,
}

impl Default for DGreedyRelConfig {
    fn default() -> Self {
        DGreedyRelConfig {
            base_leaves: 1 << 12,
            bucket_width: 1e-9,
            reducers: 4,
            sanity: 1.0,
        }
    }
}

/// Result of a DGreedyRel run.
#[derive(Debug, Clone)]
pub struct DGreedyRelResult {
    /// The synopsis.
    pub synopsis: Synopsis,
    /// Exact max relative error, measured by a distributed evaluation job.
    pub error: f64,
    /// The relative bound this synopsis is served with: the measured
    /// `error` (exact, so nothing is widened) under the build's sanity
    /// constant.
    pub bound: ErrorBound,
    /// `|C_root|` of the winning candidate.
    pub best_croot_size: usize,
    /// Pipeline metrics.
    pub metrics: DriverMetrics,
}

/// DGreedyRel's side of Section 5: GreedyRel at both levels; level 2
/// reports the cut bucket (`f64::MIN` when everything fits) and the
/// estimate `max(cut, floor, 0)`.
pub(crate) struct RelEngine {
    pub(crate) sanity: f64,
}

impl ErrHistEngine for RelEngine {
    type Out = (f64, f64);

    const PREFIX: &'static str = "dgreedyrel";

    fn task_memory(leaves: usize) -> u64 {
        dwmaxerr_algos::memory::greedy_rel_bytes(leaves, 8)
    }

    fn root_trace(
        &self,
        root_coeffs: &[f64],
        averages: &[f64],
    ) -> Result<Vec<Removal>, WaveletError> {
        Ok(GreedyRel::new_full(root_coeffs, averages, self.sanity)?.run_to_empty())
    }

    fn run(&self, details: &[f64], slice: &[f64], incoming: f64) -> (f64, Vec<Removal>) {
        let mut g =
            GreedyRel::new_subtree(details, slice, incoming, self.sanity).expect("valid subtree");
        // The *floor*: the relative error this sub-tree already carries
        // from deleted root nodes, before any local removal. Unlike the
        // absolute case (where the driver's root-run gives it exactly),
        // relative floors depend on per-leaf denominators only the worker
        // knows. A sub-tree keeping all its nodes still carries it, so it
        // bounds the candidate's error from below.
        let floor = g.current_error();
        (floor, g.run_to_empty())
    }

    fn finish(&self, cut: Option<i64>, floor: i64) -> (f64, f64) {
        let cut = cut.map_or(f64::MIN, |bucket| bucket as f64);
        (cut, cut.max(floor as f64).max(0.0))
    }

    /// The workers' estimate; the root run's `ρ_k` is over averaged
    /// denominators and stays out of it.
    fn judge(&self, &(cut, estimate): &(f64, f64), _rho_k: f64, bucket_width: f64) -> (f64, i64) {
        let cut_bucket = if cut == f64::MIN {
            i64::MIN
        } else {
            cut as i64
        };
        (estimate * bucket_width, cut_bucket)
    }
}

/// Runs DGreedyRel over `data` with budget `b`.
pub fn dgreedy_rel(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    cfg: &DGreedyRelConfig,
) -> Result<DGreedyRelResult, CoreError> {
    let shape = Shape::new(
        data.len(),
        b,
        cfg.base_leaves,
        cfg.bucket_width,
        cfg.reducers,
    )?;
    let sanity = cfg.sanity;
    if sanity.is_nan() || sanity <= 0.0 {
        return Err(CoreError::Protocol("sanity must be positive"));
    }
    let splits = aligned_splits(data, shape.partition.base_leaves());
    let (pipe, roots) = errhist::build(cluster, &splits, &shape, &RelEngine { sanity })?;
    let best_croot_size = pipe.value().0.k;
    let pipe = pipe.try_then(|(best, base_nodes)| roots.assemble(best.k, base_nodes))?;

    let (error, eval_metrics) = max_error_job(
        pipe.cluster(),
        "eval-max-rel",
        &splits,
        pipe.value(),
        |approx, d| (approx - d).abs() / d.abs().max(sanity),
    )?;
    let (synopsis, metrics) = pipe.record(eval_metrics).finish();

    Ok(DGreedyRelResult {
        synopsis,
        error,
        bound: ErrorBound::rel(error, sanity),
        best_croot_size,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_algos::greedy_rel::greedy_rel_synopsis;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::metrics::max_rel;
    use dwmaxerr_wavelet::transform::forward;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    fn run(data: &[f64], b: usize, s: usize) -> DGreedyRelResult {
        let cfg = DGreedyRelConfig {
            base_leaves: s,
            bucket_width: 1e-9,
            reducers: 2,
            sanity: 1.0,
        };
        dgreedy_rel(&test_cluster(), data, b, &cfg).unwrap()
    }

    #[test]
    fn error_report_is_exact_and_budget_respected() {
        let data: Vec<f64> = (0..64)
            .map(|i| {
                if i % 9 == 0 {
                    800.0
                } else {
                    1.0 + (i % 5) as f64
                }
            })
            .collect();
        for (b, s) in [(8usize, 8usize), (16, 16), (6, 4)] {
            let d = run(&data, b, s);
            assert!(d.synopsis.size() <= b, "b={b}");
            let actual = max_rel(&data, &d.synopsis.reconstruct_all(), 1.0);
            assert!((actual - d.error).abs() < 1e-9, "b={b} s={s}");
        }
    }

    #[test]
    fn competitive_with_centralized_greedy_rel() {
        // Note: the histogram batching keys removals by the *running max*
        // error (Algorithm 3), so the distributed scheme cannot represent
        // "keep fewer than B" states; on degenerate data where the empty
        // synopsis is optimal it loses to centralized best-of-last-B+1.
        // On realistic series — the paper's experimental regime — it
        // matches or beats the centralized heuristic.
        let spiky: Vec<f64> = (0..32)
            .map(|i| {
                if i == 13 {
                    200.0
                } else {
                    10.0 + (i % 4) as f64
                }
            })
            .collect();
        let walk: Vec<f64> = (0..64)
            .map(|i| 20.0 + (i as f64 * 0.7).sin() * 8.0)
            .collect();
        for (data, b) in [
            (&spiky, 8usize),
            (&spiky, 16),
            (&walk, 4),
            (&walk, 8),
            (&walk, 16),
        ] {
            let w = forward(data).unwrap();
            let d = run(data, b, 8);
            let (_, central) = greedy_rel_synopsis(&w, data, b, 1.0).unwrap();
            assert!(
                d.error <= central * 1.05 + 1e-9,
                "b={b}: distributed {} vs centralized {central}",
                d.error
            );
        }
    }

    #[test]
    fn full_budget_near_lossless() {
        let data: Vec<f64> = (0..16).map(|i| (i as f64 + 1.0) * 2.0).collect();
        let d = run(&data, 16, 4);
        assert!(d.error < 1e-9, "error {}", d.error);
    }
}
