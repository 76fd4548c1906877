//! DHaarPlus: the Section-4 framework (`crate::layered`)
//! instantiated with the Haar+ DP \[23\] — the third DP family run
//! through the same locality-preserving layer decomposition (after
//! DMHaarSpace and DMinRelVar), substantiating the paper's claim that the
//! framework parallelizes *all* the existing DP algorithms for the
//! problem.
//!
//! The row is the Haar+ triad row, the top-down carry is the quantized
//! incoming value of a sub-tree root, and a node's contribution is its
//! triad's non-zero child shifts `(a, b)`.

#![warn(clippy::too_many_lines)]

use dwmaxerr_algos::haar_plus::{
    combine, haar_plus_min_space, subtree_rows, triad_entries, HaarPlusError, HaarPlusSynopsis,
    HpRow, Role,
};
use dwmaxerr_algos::min_haar_space::{MhsError, MhsParams};
use dwmaxerr_runtime::codec::{CodecError, Wire, WireSink};
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::Cluster;

use crate::error::CoreError;
use crate::layered::{self, LayeredDp};

impl From<HaarPlusError> for CoreError {
    fn from(e: HaarPlusError) -> Self {
        match e {
            HaarPlusError::DeltaTooCoarse => CoreError::Mhs(MhsError::DeltaTooCoarse),
            HaarPlusError::OffGrid => CoreError::Mhs(MhsError::OffGrid),
            HaarPlusError::Wavelet(w) => CoreError::Wavelet(w),
        }
    }
}

/// DHaarPlus configuration (same shape as the other framework instances).
#[derive(Debug, Clone)]
pub struct DhpConfig {
    /// Leaves per bottom-layer sub-tree (power of two).
    pub base_leaves: usize,
    /// Rows combined per upper-layer worker (power of two ≥ 2).
    pub fan_in: usize,
}

impl Default for DhpConfig {
    fn default() -> Self {
        DhpConfig {
            base_leaves: 1 << 12,
            fan_in: 1 << 4,
        }
    }
}

/// Result of a DHaarPlus run.
#[derive(Debug, Clone)]
pub struct DhpResult {
    /// The Haar+ synopsis.
    pub synopsis: HaarPlusSynopsis,
    /// Retained node count.
    pub size: usize,
    /// True max-abs error (≤ ε).
    pub actual_error: f64,
    /// Job metrics.
    pub metrics: DriverMetrics,
}

/// The Haar+ DP as a framework instance.
struct Hp(MhsParams);

impl LayeredDp for Hp {
    type Row = HpRow;
    type Report = ();
    /// Quantized incoming value of a sub-tree root.
    type Carry = i64;
    /// The triad's child shifts `(a, b)`, not both zero.
    type Pick = (i32, i32);
    const PREFIX: &'static str = "dhp";

    fn base_rows(&self, slice: &[f64]) -> Result<((), Vec<HpRow>), CoreError> {
        Ok(((), subtree_rows(slice, &self.0)?))
    }

    fn combine(&self, _node: u64, left: &HpRow, right: &HpRow) -> HpRow {
        combine(left, right)
    }

    fn step(
        &self,
        row: &HpRow,
        _: Option<(&HpRow, &HpRow)>,
        v: &i64,
    ) -> (Option<(i32, i32)>, i64, i64) {
        let ((a, b), left, right) = row.step(*v);
        let pick = (a != 0 || b != 0).then_some((a as i32, b as i32));
        (pick, left, right)
    }

    fn cells(row: &HpRow) -> u64 {
        row.costs.len() as u64
    }

    fn encode_row<S: WireSink>(row: &HpRow, sink: &mut S) {
        row.lo.encode(sink);
        row.costs.encode(sink);
        row.shift_l.encode(sink);
        row.shift_r.encode(sink);
    }

    fn decode_row(buf: &mut &[u8]) -> Result<HpRow, CodecError> {
        Ok(HpRow {
            lo: i64::decode(buf)?,
            costs: Vec::<u32>::decode(buf)?,
            shift_l: Vec::<i32>::decode(buf)?,
            shift_r: Vec::<i32>::decode(buf)?,
        })
    }
}

/// Runs the distributed Haar+ Problem-2 solve.
pub fn dhaar_plus(
    cluster: &Cluster,
    data: &[f64],
    params: &MhsParams,
    cfg: &DhpConfig,
) -> Result<DhpResult, CoreError> {
    let mut dp = Hp(*params);
    let Some(up) = layered::bottom_up(cluster, data, cfg.base_leaves, cfg.fan_in, &mut dp)? else {
        let sol = haar_plus_min_space(data, params)?;
        return Ok(DhpResult {
            size: sol.size,
            actual_error: sol.actual_error,
            synopsis: sol.synopsis,
            metrics: DriverMetrics::new(),
        });
    };
    let (total, top) = up.root.resolve_root().ok_or(MhsError::DeltaTooCoarse)?;
    let (picks, _, metrics) = up.top_down(&dp, top)?;

    let mut entries: Vec<(u32, Role, f64)> = Vec::new();
    if top != 0 {
        entries.push((0, Role::Top, top as f64 * params.delta));
    }
    for (node, (a, b)) in picks {
        let (a, b) = (i64::from(a), i64::from(b));
        triad_entries(node as u32, a, b, params.delta, &mut entries);
    }
    entries.sort_by_key(|&(i, _, _)| i);
    debug_assert_eq!(entries.len(), total as usize);
    let synopsis = HaarPlusSynopsis::from_entries_unchecked(data.len(), entries);
    let actual_error = dwmaxerr_wavelet::metrics::max_abs(data, &synopsis.reconstruct_all());
    Ok(DhpResult {
        size: synopsis.size(),
        synopsis,
        actual_error,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_runtime::ClusterConfig;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    #[test]
    fn matches_centralized_haar_plus() {
        let data: Vec<f64> = (0..64)
            .map(|i| ((i * 19) % 31) as f64 + if i % 16 < 8 { 40.0 } else { 0.0 })
            .collect();
        for eps in [2.0, 6.0, 20.0] {
            let params = MhsParams::new(eps, 0.5).unwrap();
            let central = haar_plus_min_space(&data, &params).unwrap();
            let cfg = DhpConfig {
                base_leaves: 8,
                fan_in: 2,
            };
            let dist = dhaar_plus(&test_cluster(), &data, &params, &cfg).unwrap();
            assert_eq!(dist.size, central.size, "eps={eps}");
            assert!(dist.actual_error <= eps + 1e-9);
        }
    }

    #[test]
    fn partitioning_invariance() {
        let data: Vec<f64> = (0..128).map(|i| ((i * 11) % 43) as f64).collect();
        let params = MhsParams::new(5.0, 0.5).unwrap();
        let sizes: Vec<usize> = [(4usize, 2usize), (8, 4), (32, 2)]
            .iter()
            .map(|&(s, f)| {
                dhaar_plus(
                    &test_cluster(),
                    &data,
                    &params,
                    &DhpConfig {
                        base_leaves: s,
                        fan_in: f,
                    },
                )
                .unwrap()
                .size
            })
            .collect();
        for w in sizes.windows(2) {
            assert_eq!(w[0], w[1], "partitioning changed the result: {sizes:?}");
        }
    }

    #[test]
    fn layer_up_reads_the_encoded_roots() {
        let data: Vec<f64> = (0..128).map(|i| ((i * 13) % 37) as f64).collect();
        let mut dp = Hp(MhsParams::new(4.0, 0.5).unwrap());
        crate::layered::assert_layer_up_reads_the_encoded_roots(&mut dp, &data, 8, 4);
    }

    #[test]
    fn never_worse_than_distributed_unrestricted_haar() {
        let data: Vec<f64> = (0..64)
            .map(|i| if i % 8 < 4 { 100.0 } else { (i % 5) as f64 })
            .collect();
        let params = MhsParams::new(3.0, 0.5).unwrap();
        let cfg = DhpConfig {
            base_leaves: 8,
            fan_in: 2,
        };
        let hp = dhaar_plus(&test_cluster(), &data, &params, &cfg).unwrap();
        let mhs = crate::dmin_haar_space::dmin_haar_space(
            &test_cluster(),
            &data,
            &params,
            &crate::dmin_haar_space::DmhsConfig {
                base_leaves: 8,
                fan_in: 2,
            },
        )
        .unwrap();
        assert!(hp.size <= mhs.size, "Haar+ {} > Haar {}", hp.size, mhs.size);
    }
}
