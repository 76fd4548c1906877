//! DGreedyRel (Section 5.4): DGreedyAbs's pipeline with GreedyRel at the
//! workers, minimizing maximum *relative* error under a sanity bound.
//!
//! The structure is identical to [`mod@crate::dgreedy_abs`]; the differences
//! are (i) level-1 workers run the envelope-based GreedyRel, which needs
//! the leaf values for its denominators, and (ii) the driver's residual
//! floor `ρ_k` comes from a GreedyRel run on the root sub-tree whose
//! pseudo-leaf denominators are the base-slice averages — an
//! approximation of the true per-leaf denominators, so the final error is
//! re-measured exactly by a distributed evaluation job.

use std::sync::Arc;

use dwmaxerr_algos::greedy_rel::GreedyRel;
use dwmaxerr_algos::Removal;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{Cluster, JobBuilder, MapContext, Pipeline, ReduceContext};
use dwmaxerr_wavelet::Synopsis;

use crate::dgreedy_abs::Broadcast;
use crate::errhist::{errhist_stage, ErrHistEngine};
use crate::error::CoreError;
use crate::eval::max_error_job;
use crate::partition::BasePartition;
use crate::splits::{aligned_splits, SliceSplit};

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
    /// `|C_root|` of the winning candidate.
    pub best_croot_size: usize,
    /// Pipeline metrics.
    pub metrics: DriverMetrics,
}

/// DGreedyRel's errhist stage: GreedyRel at level 1; level 2 reports the
/// cut bucket (`f64::MIN` when everything fits) and the estimate
/// `max(cut, floor, 0)`.
pub(crate) struct RelEngine {
    pub(crate) sanity: f64,
}

impl ErrHistEngine for RelEngine {
    type Out = (f64, f64);

    const JOB: &'static str = "dgreedyrel-errhist";

    fn task_memory(leaves: usize) -> u64 {
        dwmaxerr_algos::memory::greedy_rel_bytes(leaves, 8)
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
}

/// Runs DGreedyRel over `data` with budget `b`.
pub fn dgreedy_rel(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    cfg: &DGreedyRelConfig,
) -> Result<DGreedyRelResult, CoreError> {
    let n = data.len();
    let partition = BasePartition::new(n, cfg.base_leaves.min(n))?;
    if cfg.bucket_width.is_nan()
        || cfg.bucket_width <= 0.0
        || cfg.sanity.is_nan()
        || cfg.sanity <= 0.0
    {
        return Err(CoreError::Protocol(
            "bucket_width and sanity must be positive",
        ));
    }
    if cfg.reducers == 0 {
        return Err(CoreError::Protocol("reducers must be positive"));
    }
    let splits = aligned_splits(data, partition.base_leaves());

    // ---- Job 0: averages -> root coefficients ----
    let avg_job = JobBuilder::new("dgreedyrel-averages")
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
            let root_coeffs = partition.root_coeffs_from_averages(&averages);
            Ok::<_, CoreError>((averages, root_coeffs))
        })?;
    let (averages, root_coeffs) = pipe.value().clone();

    // ---- genRootSets with GreedyRel over the averages ----
    let r = partition.num_base();
    let mut root_greedy = GreedyRel::new_full(&root_coeffs, &averages, cfg.sanity)?;
    let root_trace = root_greedy.run_to_empty();
    let removal_order: Vec<usize> = root_trace.iter().map(|t| t.node as usize).collect();
    let max_k = r.min(b);

    let bc = Arc::new(Broadcast {
        partition,
        root_coeffs: root_coeffs.clone(),
        removal_order,
        max_k,
        bucket_width: cfg.bucket_width,
        budget: b,
        reducers: cfg.reducers,
    });
    let sanity = cfg.sanity;

    // ---- Job 1: ErrHistGreedyRel + combineResults ----
    let pipe = errhist_stage(pipe, &splits, &bc, &RelEngine { sanity })?.try_then(
        |(_, pairs)| -> Result<_, CoreError> {
            let mut best_k = 0usize;
            let mut best_score = f64::INFINITY;
            let mut best_cut = f64::MIN;
            for (k, (cut, estimate)) in pairs {
                let score = estimate * cfg.bucket_width;
                // Canonical tie-break on the smaller candidate, as in
                // DGreedyAbs: the winner must not depend on which reducer
                // a candidate landed on.
                if score < best_score || (score == best_score && (k as usize) < best_k) {
                    best_score = score;
                    best_k = k as usize;
                    best_cut = cut;
                }
            }
            if !best_score.is_finite() {
                return Err(CoreError::Protocol("no candidate produced a cut"));
            }
            Ok((best_k, best_cut))
        },
    )?;
    let (best_k, best_cut) = *pipe.value();

    // ---- Job 2: emit actual nodes for the winning C_root ----
    let bc2 = Arc::clone(&bc);
    let cut_bucket = if best_cut == f64::MIN {
        i64::MIN
    } else {
        best_cut as i64
    };
    let keep_base = b - best_k;
    let syn_job = JobBuilder::new("dgreedyrel-synopsis")
        .map(
            move |split: &SliceSplit, ctx: &mut MapContext<u8, (i64, u32, u32, f64)>| {
                let bc = &bc2;
                let (details, _avg) = bc.partition.base_details_from_data(split.slice());
                let j = split.id as usize;
                let e = bc
                    .partition
                    .incoming_error(&bc.root_coeffs, bc.removed_under(best_k), j);
                let mut g = GreedyRel::new_subtree(&details, split.slice(), e, sanity)
                    .expect("valid subtree");
                let trace = g.run_to_empty();
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
            nodes.sort_unstable_by_key(|&(bucket, idx, _, _)| std::cmp::Reverse((bucket, idx)));
            for (_, _, node, coeff) in nodes.into_iter().take(keep_base) {
                ctx.emit(node, coeff);
            }
        });
    let pipe = pipe
        .stage(&syn_job, &splits)?
        .try_then(|(_, pairs)| -> Result<_, CoreError> {
            let mut entries: Vec<(u32, f64)> = bc
                .retained_under(best_k)
                .iter()
                .map(|&a| (a as u32, root_coeffs[a]))
                .collect();
            entries.extend(pairs);
            Ok(Synopsis::from_entries(n, entries)?)
        })?;

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
        best_croot_size: best_k,
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
