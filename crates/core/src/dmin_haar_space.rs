//! DMHaarSpace: the distributed MinHaarSpace probe — the Section-4
//! framework (`crate::layered`) instantiated with the MinHaarSpace DP.
//!
//! The row is MinHaarSpace's `M[j]` (`O(ε/δ)` cells — Eq. 6's
//! communication bound), the top-down carry is the quantized incoming
//! value of a sub-tree root, and a node's contribution is the grid value
//! `z ≠ 0` it retains. This module supplies those, resolves `c_0` on the
//! driver, assembles the synopsis and measures its true error with a
//! distributed evaluation job.

#![warn(clippy::too_many_lines)]

use dwmaxerr_algos::min_haar_space::{
    choose, combine, extract, min_haar_space, subtree_root, subtree_rows, MhsError, MhsParams, Row,
};
use dwmaxerr_runtime::codec::{CodecError, Wire, WireSink};
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::Cluster;
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::eval::max_error_job;
use crate::layered::{self, LayeredDp};

/// DMHaarSpace configuration.
#[derive(Debug, Clone)]
pub struct DmhsConfig {
    /// Leaves per bottom-layer sub-tree (power of two).
    pub base_leaves: usize,
    /// Rows combined per upper-layer worker (`2^h`; power of two ≥ 2).
    pub fan_in: usize,
}

impl Default for DmhsConfig {
    fn default() -> Self {
        DmhsConfig {
            base_leaves: 1 << 12,
            fan_in: 1 << 4,
        }
    }
}

/// Result of a DMHaarSpace run.
#[derive(Debug, Clone)]
pub struct DmhsResult {
    /// The unrestricted synopsis meeting the ε bound.
    pub synopsis: Synopsis,
    /// Retained coefficient count.
    pub size: usize,
    /// True max-abs error (≤ ε), measured by a distributed evaluation job.
    pub actual_error: f64,
    /// Metrics of all jobs in the probe.
    pub metrics: DriverMetrics,
}

/// MinHaarSpace as a framework instance.
struct Mhs(MhsParams);

impl LayeredDp for Mhs {
    type Row = Row;
    type Report = ();
    /// Quantized incoming value of a sub-tree root.
    type Carry = i64;
    /// The retained grid value `z ≠ 0`.
    type Pick = i32;
    const PREFIX: &'static str = "dmhs";

    /// The frontier walk: `O(log S)` live rows, costs alone below the root.
    fn base_root(&self, slice: &[f64]) -> Result<((), Row), CoreError> {
        Ok(((), subtree_root(slice, &self.0)?))
    }

    /// Every row's costs in one arena; the replay computes the choice of
    /// each cell it reaches, one per node.
    fn base_extract(
        &self,
        slice: &[f64],
        v: i64,
        emit: &mut dyn FnMut(u64, i32),
    ) -> Result<u64, CoreError> {
        let rows = subtree_rows(slice, &self.0)?;
        extract(&rows, slice, &self.0, v, |node, z| emit(node as u64, z))?;
        Ok(rows.costs(1).1.len() as u64)
    }

    fn base_memory(&self, leaves: usize) -> u64 {
        dwmaxerr_algos::memory::min_haar_space_bytes(leaves, self.0.epsilon, self.0.delta)
    }

    fn combine(&self, _node: u64, left: &Row, right: &Row) -> Row {
        combine(left, right)
    }

    fn dead(row: &Row) -> bool {
        row.all_infeasible()
    }

    /// The chooser over the node's two child rows. Only the upper layers
    /// step nodes here (`base_extract` replays the base sub-trees), and
    /// their nodes always sit above two rows.
    fn step(&self, _: &Row, children: Option<(&Row, &Row)>, v: &i64) -> (Option<i32>, i64, i64) {
        let z = children.map_or(0, |(left, right)| choose(left, right, *v));
        ((z != 0).then_some(z), v + i64::from(z), v - i64::from(z))
    }

    fn cells(row: &Row) -> u64 {
        row.costs.len() as u64
    }

    fn encode_row<S: WireSink>(row: &Row, sink: &mut S) {
        row.lo.encode(sink);
        row.costs.encode(sink);
    }

    fn decode_row(buf: &mut &[u8]) -> Result<Row, CodecError> {
        Ok(Row {
            lo: i64::decode(buf)?,
            costs: Vec::<u32>::decode(buf)?,
        })
    }
}

/// Runs the DMHaarSpace probe: the minimal-size unrestricted synopsis with
/// max-abs error ≤ `params.epsilon` under δ-quantization, computed through
/// layered MapReduce jobs.
pub fn dmin_haar_space(
    cluster: &Cluster,
    data: &[f64],
    params: &MhsParams,
    cfg: &DmhsConfig,
) -> Result<DmhsResult, CoreError> {
    probe(cluster, data, params, cfg, usize::MAX)?
        .map_err(|_| CoreError::Protocol("a probe under no budget stopped at its root row"))
}

/// A probe whose synopsis would not fit the budget it was given: it ran
/// the bottom-up phase and nothing else.
pub(crate) struct OverBudget {
    /// Retained coefficients of the minimal synopsis, read off the root row.
    pub(crate) size: usize,
    /// Metrics of `dmhs-layer0` and the `dmhs-layer-up` jobs.
    pub(crate) metrics: DriverMetrics,
}

/// [`dmin_haar_space`] for a caller that reads only the size of a synopsis
/// larger than `budget` (Algorithm 2): the row of `c_1` holds that size when
/// the bottom-up phase ends, so such a probe stops there — no extraction,
/// no evaluation job. (One value has no bottom-up phase to stop after: the
/// centralized answer comes back whatever its size.)
pub(crate) fn probe(
    cluster: &Cluster,
    data: &[f64],
    params: &MhsParams,
    cfg: &DmhsConfig,
    budget: usize,
) -> Result<Result<DmhsResult, OverBudget>, CoreError> {
    let mut dp = Mhs(*params);
    let Some(up) = layered::bottom_up(cluster, data, cfg.base_leaves, cfg.fan_in, &mut dp)? else {
        let sol = min_haar_space(data, params)?;
        return Ok(Ok(DmhsResult {
            size: sol.size,
            actual_error: sol.actual_error,
            synopsis: sol.synopsis,
            metrics: DriverMetrics::new(),
        }));
    };
    let (total, z0) = up.root.resolve_root().ok_or(MhsError::DeltaTooCoarse)?;
    if total as usize > budget {
        return Ok(Err(OverBudget {
            size: total as usize,
            metrics: up.abandon(),
        }));
    }
    let (picks, splits, mut metrics) = up.top_down(&dp, z0)?;

    let mut entries: Vec<(u32, f64)> = picks
        .into_iter()
        .map(|(node, z)| (node as u32, f64::from(z) * params.delta))
        .collect();
    if z0 != 0 {
        entries.push((0, z0 as f64 * params.delta));
    }
    debug_assert_eq!(entries.len(), total as usize);
    let synopsis = Synopsis::from_entries(data.len(), entries)?;
    let (actual_error, eval_metrics) =
        max_error_job(cluster, "eval-max-abs", &splits, &synopsis, |approx, d| {
            (approx - d).abs()
        })?;
    metrics.push(eval_metrics);

    Ok(Ok(DmhsResult {
        size: synopsis.size(),
        synopsis,
        actual_error,
        metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_algos::min_haar_space::INFEASIBLE;
    use dwmaxerr_datagen::uniform;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::metrics::max_abs;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    fn run(data: &[f64], eps: f64, delta: f64, s: usize, f: usize) -> DmhsResult {
        let params = MhsParams::new(eps, delta).unwrap();
        let cfg = DmhsConfig {
            base_leaves: s,
            fan_in: f,
        };
        dmin_haar_space(&test_cluster(), data, &params, &cfg).unwrap()
    }

    /// Asserts that the distributed synopsis over `data` is the centralized
    /// solver's, entry for entry, and that its measured error is its own.
    fn assert_matches_centralized(data: &[f64], eps: f64, delta: f64, s: usize, f: usize) {
        let tag = format!("eps={eps} delta={delta} base_leaves={s} fan_in={f}");
        let central = min_haar_space(data, &MhsParams::new(eps, delta).unwrap()).unwrap();
        let dist = run(data, eps, delta, s, f);
        assert_eq!(dist.synopsis.entries(), central.synopsis.entries(), "{tag}");
        assert_eq!(dist.size, central.size, "{tag}");
        assert!(dist.actual_error <= eps + 1e-9, "{tag}");
        let direct = max_abs(data, &dist.synopsis.reconstruct_all());
        assert!((direct - dist.actual_error).abs() < 1e-9, "{tag}");
    }

    #[test]
    fn matches_centralized_solver() {
        let spiky: Vec<f64> = (0..64)
            .map(|i| ((i * 29) % 17) as f64 * 2.0 + if i == 40 { 60.0 } else { 0.0 })
            .collect();
        for eps in [2.0, 5.0, 10.0, 25.0] {
            assert_matches_centralized(&spiky, eps, 0.5, 8, 2);
        }
        // Whole numbers, where sums tie often, and values off the grid.
        for seed in [3, 17, 29, 64, 101] {
            let ints: Vec<f64> = uniform(64, 56.0, seed)
                .into_iter()
                .map(f64::round)
                .collect();
            let reals = uniform(64, 40.0, seed + 1);
            for data in [&ints, &reals] {
                for (eps, delta) in [(3.0, 1.0), (8.5, 0.5), (20.0, 1.0), (6.0, 2.0)] {
                    assert_matches_centralized(data, eps, delta, 8, 2);
                }
            }
        }
    }

    #[test]
    fn fan_in_and_subtree_size_do_not_change_result() {
        let mut inputs = vec![(0..128)
            .map(|i| ((i * 13) % 37) as f64)
            .collect::<Vec<f64>>()];
        inputs.extend([5, 41, 77].map(|seed| uniform(128, 60.0, seed)));
        for data in &inputs {
            for eps in [2.0, 4.0, 11.0, 30.0] {
                for (s, f) in [(4, 2), (8, 4), (16, 2), (32, 8), (2, 2), (4, 64), (128, 2)] {
                    assert_matches_centralized(data, eps, 0.5, s, f);
                }
            }
        }
    }

    #[test]
    fn detects_delta_too_coarse() {
        let data: Vec<f64> = (0..16).map(|i| i as f64 + 0.45).collect();
        let params = MhsParams::new(0.4, 1.0).unwrap();
        let cfg = DmhsConfig {
            base_leaves: 4,
            fan_in: 2,
        };
        let res = dmin_haar_space(&test_cluster(), &data, &params, &cfg);
        assert!(matches!(res, Err(CoreError::Mhs(MhsError::DeltaTooCoarse))));
    }

    #[test]
    fn single_base_subtree() {
        let data: Vec<f64> = (0..16).map(|i| (i as f64 * 3.0) % 11.0).collect();
        let dist = run(&data, 3.0, 0.5, 16, 2);
        let central = min_haar_space(&data, &MhsParams::new(3.0, 0.5).unwrap()).unwrap();
        assert_eq!(dist.size, central.size);
    }

    fn job_names(metrics: &DriverMetrics) -> Vec<&str> {
        metrics.jobs.iter().map(|j| j.name.as_str()).collect()
    }

    #[test]
    fn an_over_budget_probe_stops_at_the_root_row() {
        let data: Vec<f64> = (0..128).map(|i| ((i * 13) % 37) as f64).collect();
        let params = MhsParams::new(4.0, 0.5).unwrap();
        let cfg = DmhsConfig {
            base_leaves: 8,
            fan_in: 4,
        };
        let cluster = test_cluster();
        let full = dmin_haar_space(&cluster, &data, &params, &cfg).unwrap();
        assert!(full.size > 1);
        let bottom_up = ["dmhs-layer0", "dmhs-layer-up", "dmhs-layer-up"];
        let mut chain = bottom_up.to_vec();
        chain.extend(["dmhs-extract", "dmhs-extract", "dmhs-extract-base"]);
        chain.push("eval-max-abs");
        assert_eq!(job_names(&full.metrics), chain);

        // One coefficient short: the size and the bottom-up ledger, and no
        // `-extract*` or `eval-*` job.
        let Ok(Err(over)) = probe(&cluster, &data, &params, &cfg, full.size - 1) else {
            panic!("a probe over its budget extracted a synopsis");
        };
        assert_eq!(over.size, full.size);
        assert_eq!(job_names(&over.metrics), bottom_up);
        let row_bytes = |m: &DriverMetrics| -> Vec<u64> {
            m.jobs[..3].iter().map(|j| j.shuffle_bytes).collect()
        };
        assert_eq!(row_bytes(&over.metrics), row_bytes(&full.metrics));

        // At its budget the probe is `dmin_haar_space`.
        let Ok(Ok(within)) = probe(&cluster, &data, &params, &cfg, full.size) else {
            panic!("a probe within its budget stopped early");
        };
        assert_eq!(within.synopsis, full.synopsis);
        assert_eq!(within.actual_error.to_bits(), full.actual_error.to_bits());
        assert_eq!(job_names(&within.metrics), chain);
    }

    #[test]
    fn layer0_declares_the_chains_working_set_whatever_the_probe_will_run() {
        // Layer 0's frontier holds O(log S) rows, `-extract-base` all S of
        // them. A probe that may be extracted must be refused before it
        // starts, so the boundary a task-memory budget draws sits at
        // `dmhs-layer0` for a within- and an over-budget ε alike.
        use dwmaxerr_algos::memory::min_haar_space_bytes;
        use dwmaxerr_runtime::{RuntimeError, TraceEventKind};
        let data: Vec<f64> = (0..128).map(|i| ((i * 13) % 37) as f64).collect();
        let cfg = DmhsConfig {
            base_leaves: 16,
            fan_in: 2,
        };
        for (eps, budget) in [(4.0, usize::MAX), (4.0, 1), (20.0, usize::MAX)] {
            let params = MhsParams::new(eps, 0.5).unwrap();
            let model = min_haar_space_bytes(16, eps, 0.5);
            let cluster_with = |task_memory_bytes| {
                let mut c = ClusterConfig::with_slots(4, 2);
                c.task_memory_bytes = task_memory_bytes;
                Cluster::new(c)
            };
            let roomy = cluster_with(model);
            let ran = probe(&roomy, &data, &params, &cfg, budget).unwrap();
            assert_eq!(ran.is_ok(), budget == usize::MAX, "eps={eps}");

            let tight = cluster_with(model - 1);
            let refused = probe(&tight, &data, &params, &cfg, budget).map(|r| r.is_ok());
            let oom = RuntimeError::TaskOutOfMemory {
                needed: model,
                available: model - 1,
            };
            assert_eq!(refused, Err(CoreError::Runtime(oom)), "eps={eps}");
            let aborted: Vec<String> = tight
                .trace_events()
                .iter()
                .filter_map(|e| match &e.kind {
                    TraceEventKind::TaskAborted { job, .. } => Some(job.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(aborted, ["dmhs-layer0"], "eps={eps} budget={budget}");
        }
    }

    #[test]
    fn layer_up_reads_the_encoded_roots() {
        let data: Vec<f64> = (0..128).map(|i| ((i * 13) % 37) as f64).collect();
        let mut dp = Mhs(MhsParams::new(4.0, 0.5).unwrap());
        crate::layered::assert_layer_up_reads_the_encoded_roots(&mut dp, &data, 8, 4);
    }

    #[test]
    fn wire_row_roundtrip() {
        let row = Row {
            lo: -5,
            costs: vec![1, 2, INFEASIBLE],
        };
        let mut buf = Vec::new();
        Mhs::encode_row(&row, &mut buf);
        let mut s = buf.as_slice();
        let back = Mhs::decode_row(&mut s).unwrap();
        assert_eq!(back, row);
        assert!(s.is_empty());
    }
}
