//! DIndirectHaar (Algorithm 2): Problem 1 solved by binary search over
//! distributed DMHaarSpace probes.
//!
//! The search bounds come from two extra jobs, exactly as the paper
//! prescribes:
//!
//! * the **lower bound** is the (B+1)-largest coefficient magnitude —
//!   every worker emits its local coefficient magnitudes largest-first
//!   (top `min(B+1, S)` suffice: the global (B+1)-largest is always
//!   contained in the union of per-worker top-(B+1) lists) and a reducer
//!   merges them;
//! * the **upper bound** is the max-abs error of the conventional B-term
//!   synopsis, computed with [`crate::conventional::con`] and a
//!   distributed evaluation job.

use dwmaxerr_algos::indirect_haar::{indirect_haar, indirect_haar_centralized};
use dwmaxerr_algos::min_haar_space::{MhsError, MhsParams};
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{Cluster, JobBuilder, Kernel, MapContext, Pipeline, ReduceContext};
use dwmaxerr_wavelet::Synopsis;

use crate::dmin_haar_space::{probe, DmhsConfig};
use crate::error::CoreError;
use crate::eval::max_error_job;
use crate::partition::BasePartition;
use crate::splits::{aligned_splits, SliceSplit};

/// DIndirectHaar configuration.
#[derive(Debug, Clone)]
pub struct DIndirectHaarConfig {
    /// Quantization step δ (the paper's tuning knob; Figure 6).
    pub delta: f64,
    /// Probe configuration (partitioning of each DMHaarSpace job chain).
    pub probe: DmhsConfig,
}

impl Default for DIndirectHaarConfig {
    fn default() -> Self {
        DIndirectHaarConfig {
            delta: 1.0,
            probe: DmhsConfig::default(),
        }
    }
}

/// Result of a DIndirectHaar run.
#[derive(Debug, Clone)]
pub struct DIndirectHaarResult {
    /// Best synopsis within the budget.
    pub synopsis: Synopsis,
    /// Its actual max-abs error.
    pub error: f64,
    /// Number of DMHaarSpace probes. One whose synopsis fits the budget is
    /// a full job chain; one whose synopsis does not is the bottom-up jobs
    /// alone, which already hold the size Algorithm 2 reads.
    pub probes: usize,
    /// Metrics across every job of every probe plus the bound jobs.
    pub metrics: DriverMetrics,
}

/// Runs DIndirectHaar over `data` with budget `b`.
pub fn dindirect_haar(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    cfg: &DIndirectHaarConfig,
) -> Result<DIndirectHaarResult, CoreError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    if n < 2 {
        // One value has no tree to partition (as in `layered::bottom_up`).
        let report = indirect_haar_centralized(data, b, cfg.delta)?;
        return Ok(DIndirectHaarResult {
            synopsis: report.synopsis,
            error: report.error,
            probes: report.probes,
            metrics: DriverMetrics::new(),
        });
    }
    let s = cfg.probe.base_leaves.clamp(2, n);
    let partition = BasePartition::new(n, s)?;
    let splits = aligned_splits(data, s);

    // ---- Lower bound (Algorithm 2 line 2): the (B+1)-largest coefficient
    // magnitude. Base workers emit their top `min(B+1, S-1)` detail
    // magnitudes largest-first (the global (B+1)-largest is always in the
    // union of per-worker top-(B+1) lists); the driver adds the root
    // sub-tree's and merges.
    let keep = b + 1;
    let part = partition;
    let lb_job = JobBuilder::new("dih-lower-bound")
        .map(
            move |split: &SliceSplit, ctx: &mut MapContext<u8, (f64, f64)>| {
                ctx.charge(Kernel::Values, split.len() as u64);
                let (details, avg) = part.base_details_from_data(split.slice());
                let mut mags: Vec<f64> = details.iter().map(|c| c.abs()).collect();
                mags.sort_unstable_by(|a, b| b.total_cmp(a));
                mags.truncate(keep);
                for m in mags {
                    ctx.emit(0, (m, 0.0));
                }
                // Ship the slice average so the driver can form the root
                // sub-tree coefficients (tag via the second slot).
                ctx.emit(1, (avg, split.id as f64));
            },
        )
        .input_bytes(SliceSplit::bytes)
        .reduce(|k, vals, ctx: &mut ReduceContext<u8, (f64, f64)>| {
            for v in vals {
                ctx.emit(*k, v);
            }
        });
    // NaN or ±∞ anywhere makes its slice average non-finite: refused here,
    // before the first probe, because no ε bounds such data.
    let pipe = Pipeline::on(cluster).stage(&lb_job, &splits)?.try_then(
        |(_, pairs)| -> Result<f64, CoreError> {
            let mut mags: Vec<f64> = Vec::new();
            let mut averages = Vec::new();
            for (k, (value, tag)) in pairs {
                if k == 0 {
                    mags.push(value);
                } else {
                    averages.push((tag as u32, value));
                }
            }
            let averages = partition.finite_averages(averages)?;
            let root = partition.root_coeffs_from_averages(&averages);
            mags.extend(root.iter().map(|c| c.abs()));
            mags.sort_unstable_by(|a, b| b.total_cmp(a));
            Ok(mags.get(keep - 1).copied().unwrap_or(0.0))
        },
    )?;
    let e_l = *pipe.value();

    // ---- Upper bound (Algorithm 2 line 1): CON's max-abs error ----
    let (conv_syn, conv_metrics) = crate::conventional::con(cluster, data, b, s)?;
    let (e_u, eval_metrics) =
        max_error_job(cluster, "eval-max-abs", &splits, &conv_syn, |approx, d| {
            (approx - d).abs()
        })?;
    let pipe = pipe.absorb(conv_metrics).record(eval_metrics);

    // ---- Binary search with DMHaarSpace probes ----
    // Each probe is a sub-pipeline; its ledger folds into this one. The
    // search treats a synopsis over budget exactly as it treats no
    // synopsis, so a probe that learns it is over budget extracts none.
    let mut probe_metrics = DriverMetrics::new();
    let report = indirect_haar(b, e_l, e_u, cfg.delta, |eps| {
        let params = match MhsParams::new(eps.max(0.0), cfg.delta) {
            Ok(p) => p,
            Err(_) => return Ok(None),
        };
        match probe(cluster, data, &params, &cfg.probe, b) {
            Ok(Ok(res)) => {
                probe_metrics.merge(res.metrics);
                Ok(Some((res.synopsis, res.actual_error)))
            }
            Ok(Err(over)) => {
                debug_assert!(over.size > b);
                probe_metrics.merge(over.metrics);
                Ok(None)
            }
            Err(CoreError::Mhs(MhsError::DeltaTooCoarse)) => Ok(None),
            Err(e) => Err(e),
        }
    })?;
    let metrics = pipe.absorb(probe_metrics).into_metrics();

    Ok(DIndirectHaarResult {
        synopsis: report.synopsis,
        error: report.error,
        probes: report.probes,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::metrics::max_abs;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    #[test]
    fn matches_centralized_indirect_haar() {
        let data: Vec<f64> = (0..64)
            .map(|i| ((i * 31) % 19) as f64 * 2.0 + if i == 7 { 44.0 } else { 0.0 })
            .collect();
        let cfg = DIndirectHaarConfig {
            delta: 0.5,
            probe: DmhsConfig {
                base_leaves: 8,
                fan_in: 2,
            },
        };
        for b in [4usize, 8, 16] {
            let dist = dindirect_haar(&test_cluster(), &data, b, &cfg).unwrap();
            let central = indirect_haar_centralized(&data, b, 0.5).unwrap();
            assert!(dist.synopsis.size() <= b);
            let actual = max_abs(&data, &dist.synopsis.reconstruct_all());
            assert!((actual - dist.error).abs() < 1e-9);
            // Both run the same search over the same quantized space; allow
            // one quantum of slack for bound differences.
            assert!(
                (dist.error - central.error).abs() <= 0.5 + 1e-9,
                "b={b}: distributed {} vs centralized {}",
                dist.error,
                central.error
            );
        }
    }

    #[test]
    fn budget_is_respected_and_probes_counted() {
        let data: Vec<f64> = (0..32).map(|i| (i as f64 * 7.3) % 29.0).collect();
        let cfg = DIndirectHaarConfig {
            delta: 1.0,
            probe: DmhsConfig {
                base_leaves: 8,
                fan_in: 2,
            },
        };
        let res = dindirect_haar(&test_cluster(), &data, 6, &cfg).unwrap();
        assert!(res.synopsis.size() <= 6);
        assert!(res.probes >= 1);
        assert!(
            res.metrics.job_count() > res.probes,
            "bounds jobs counted too"
        );
    }

    #[test]
    fn smaller_delta_is_at_least_as_accurate() {
        // Figure 6's knob: smaller δ examines more candidates and can only
        // improve quality.
        let data: Vec<f64> = (0..32)
            .map(|i| if i % 5 == 0 { 50.0 } else { (i % 7) as f64 })
            .collect();
        let b = 6;
        let run = |delta: f64| {
            let cfg = DIndirectHaarConfig {
                delta,
                probe: DmhsConfig {
                    base_leaves: 8,
                    fan_in: 2,
                },
            };
            dindirect_haar(&test_cluster(), &data, b, &cfg)
                .unwrap()
                .error
        };
        let fine = run(0.25);
        let coarse = run(4.0);
        assert!(
            fine <= coarse + 1e-9,
            "finer delta worse: {fine} vs {coarse}"
        );
    }
}
