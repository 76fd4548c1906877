//! DMinRelVar: the Section-4 framework (`crate::layered`)
//! instantiated with the MinRelVar DP \[12\] — the paper's own
//! illustration of the framework (its Figure 2 shows MinRelVar's
//! `(v, y, l)` cells being combined).
//!
//! The row is MinRelVar's `M[j]`, the top-down carry is the space budget
//! of a sub-tree root, and a node's contribution is its retention
//! probability `y > 0`. A combine needs the node's own coefficient, so
//! base workers report their slice average beside the row.
//!
//! The important difference is the M-row size: `O(B·q)` cells per row
//! instead of MinHaarSpace's `O(ε/δ)`. That makes the per-stage
//! communication `O(N·B·q / 2^h)` (Eq. 6 with `max|M[j]| = O(B·q)`) —
//! quadratic in the worst case `B = Θ(N)`, which is exactly why the
//! SIGMOD'16 paper pivots to the dual Problem 2. The
//! `dp_communication` ablation bench measures this blow-up.

#![warn(clippy::too_many_lines)]

use dwmaxerr_algos::min_rel_var::{
    combine, min_rel_var, subtree_rows, CoinFlipper, MrvCell, MrvParams, MrvRow,
};
use dwmaxerr_runtime::codec::{CodecError, Wire, WireSink};
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::Cluster;
use dwmaxerr_wavelet::transform::forward;
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::layered::{self, LayeredDp};
use crate::partition::store_finite_averages;

/// DMinRelVar configuration.
#[derive(Debug, Clone)]
pub struct DmrvConfig {
    /// Leaves per base sub-tree (power of two).
    pub base_leaves: usize,
    /// Rows combined per upper-layer worker (power of two ≥ 2).
    pub fan_in: usize,
    /// Retention-probability quantization `q`.
    pub params: MrvParams,
    /// Seed for the retention coin flips.
    pub seed: u64,
}

/// Result of a DMinRelVar run.
#[derive(Debug, Clone)]
pub struct DmrvResult {
    /// The probabilistic synopsis.
    pub synopsis: Synopsis,
    /// The DP's bound on the maximum normalized squared error.
    pub nse_bound: f64,
    /// Expected synopsis size `Σ y`.
    pub expected_size: f64,
    /// Pipeline metrics (row exchange is the interesting part).
    pub metrics: DriverMetrics,
}

/// MinRelVar as a framework instance.
struct Mrv {
    p: MrvParams,
    /// Space units any row may need (`min(B, N) · q`).
    cap: usize,
    /// `c_0 .. c_{R-1}`: the transform of the base-slice averages, known
    /// once layer 0 has reported.
    root_coeffs: Vec<f64>,
}

impl LayeredDp for Mrv {
    type Row = MrvRow;
    /// The slice average (a leaf of the root sub-tree).
    type Report = f64;
    /// Space units granted to a sub-tree root.
    type Carry = u32;
    /// Retention-probability units `y > 0`.
    type Pick = u16;
    const PREFIX: &'static str = "dmrv";

    fn base_rows(&self, slice: &[f64]) -> Result<(f64, Vec<MrvRow>), CoreError> {
        let w = forward(slice).expect("pow2 slice");
        let rows = subtree_rows(&w[1..], slice, self.cap, &self.p).expect("valid subtree");
        Ok((w[0], rows))
    }

    /// Any NaN or ±∞ value makes its slice average non-finite, and the
    /// bound this DP advertises over such data would mean nothing.
    fn absorb(&mut self, averages: Vec<f64>) -> Result<(), CoreError> {
        let mut finite = vec![0.0; averages.len()];
        store_finite_averages(&mut finite, (0u32..).zip(averages))?;
        self.root_coeffs = forward(&finite).expect("pow2 averages");
        Ok(())
    }

    fn combine(&self, node: u64, left: &MrvRow, right: &MrvRow) -> MrvRow {
        let c = self.root_coeffs[node as usize];
        combine(left, right, c, self.cap, &self.p)
    }

    fn step(
        &self,
        row: &MrvRow,
        children: Option<(&MrvRow, &MrvRow)>,
        b: &u32,
    ) -> (Option<u16>, u32, u32) {
        let (y, left, right) = row.step(children, *b as usize);
        ((y > 0).then_some(y), left as u32, right as u32)
    }

    fn cells(row: &MrvRow) -> u64 {
        row.cells.len() as u64
    }

    fn encode_row<S: WireSink>(row: &MrvRow, sink: &mut S) {
        row.min_norm.encode(sink);
        (row.cells.len() as u32).encode(sink);
        for c in &row.cells {
            c.v.encode(sink);
            c.y.encode(sink);
            c.l.encode(sink);
        }
    }

    fn decode_row(buf: &mut &[u8]) -> Result<MrvRow, CodecError> {
        let min_norm = f64::decode(buf)?;
        let len = u32::decode(buf)? as usize;
        let mut cells = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            cells.push(MrvCell {
                v: f64::decode(buf)?,
                y: u16::decode(buf)?,
                l: u32::decode(buf)?,
            });
        }
        Ok(MrvRow { min_norm, cells })
    }
}

/// Runs DMinRelVar: the probabilistic max-rel synopsis with expected
/// budget `b`, computed through layered jobs.
pub fn dmin_rel_var(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    cfg: &DmrvConfig,
) -> Result<DmrvResult, CoreError> {
    let (n, p) = (data.len(), cfg.params);
    let mut dp = Mrv {
        p,
        cap: b.min(n) * p.q as usize,
        root_coeffs: Vec::new(),
    };
    let Some(up) = layered::bottom_up(cluster, data, cfg.base_leaves, cfg.fan_in, &mut dp)? else {
        // One value is its own base average.
        dp.absorb(data.to_vec())?;
        let sol = min_rel_var(data, b, &p, cfg.seed)?;
        return Ok(DmrvResult {
            synopsis: sol.synopsis,
            nse_bound: sol.nse_bound,
            expected_size: sol.expected_size,
            metrics: DriverMetrics::new(),
        });
    };
    let (nse_bound, y0, b1) = up.root.resolve_root(dp.root_coeffs[0], dp.cap, &p);
    let (mut allocation, _, metrics) = up.top_down(&dp, b1 as u32)?;
    if y0 > 0 {
        allocation.push((0, y0 as u16));
    }

    // Coin flips on the driver, in node order, to match the centralized seed.
    allocation.sort_unstable_by_key(|&(node, _)| node);
    let coeffs = forward(data)?;
    let mut flipper = CoinFlipper::new(cfg.seed);
    let mut entries = Vec::new();
    let mut expected_size = 0.0;
    for &(node, yu) in &allocation {
        let y = f64::from(yu) / f64::from(p.q);
        expected_size += y;
        if flipper.flip(y) {
            entries.push((node as u32, coeffs[node as usize] / y));
        }
    }
    Ok(DmrvResult {
        synopsis: Synopsis::from_entries(n, entries)?,
        nse_bound,
        expected_size,
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

    fn run(data: &[f64], b: usize, s: usize, f: usize) -> DmrvResult {
        let cfg = DmrvConfig {
            base_leaves: s,
            fan_in: f,
            params: MrvParams::new(4, 1.0).unwrap(),
            seed: 42,
        };
        dmin_rel_var(&test_cluster(), data, b, &cfg).unwrap()
    }

    #[test]
    fn matches_centralized_bound_and_allocation() {
        let data: Vec<f64> = (0..64)
            .map(|i| ((i * 23) % 31) as f64 + if i % 13 == 0 { 40.0 } else { 0.0 })
            .collect();
        let p = MrvParams::new(4, 1.0).unwrap();
        for b in [2usize, 4, 8, 16] {
            let central = min_rel_var(&data, b, &p, 42).unwrap();
            let dist = run(&data, b, 8, 2);
            assert!(
                (dist.nse_bound - central.nse_bound).abs() < 1e-9,
                "b={b}: distributed {} vs centralized {}",
                dist.nse_bound,
                central.nse_bound
            );
            assert!(
                (dist.expected_size - central.expected_size).abs() < 1e-9,
                "b={b}: expected sizes differ"
            );
        }
    }

    #[test]
    fn partitioning_invariance() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 7) % 19) as f64 * 2.0).collect();
        let bounds: Vec<f64> = [(4usize, 2usize), (8, 4), (16, 2), (32, 2)]
            .iter()
            .map(|&(s, f)| run(&data, 6, s, f).nse_bound)
            .collect();
        for w in bounds.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "partitioning changed the bound: {bounds:?}"
            );
        }
    }

    #[test]
    fn expected_size_within_budget() {
        let data: Vec<f64> = (0..32).map(|i| (i as f64 * 1.3) % 17.0).collect();
        for b in [0usize, 3, 8, 16] {
            let dist = run(&data, b, 8, 2);
            assert!(
                dist.expected_size <= b as f64 + 1e-9,
                "b={b}: expected {}",
                dist.expected_size
            );
        }
    }

    #[test]
    fn row_bytes_grow_with_budget() {
        // The O(B·q) row: doubling B roughly doubles the per-stage row
        // exchange — the Section-4 communication analysis.
        let data: Vec<f64> = (0..128).map(|i| ((i * 11) % 41) as f64).collect();
        let small = run(&data, 4, 16, 2);
        let large = run(&data, 32, 16, 2);
        let bytes = |r: &DmrvResult| {
            r.metrics
                .jobs
                .iter()
                .filter(|j| j.name.contains("layer"))
                .map(|j| j.shuffle_bytes)
                .sum::<u64>()
        };
        assert!(
            bytes(&large) > bytes(&small) * 3,
            "row exchange should scale with B: {} vs {}",
            bytes(&large),
            bytes(&small)
        );
    }

    #[test]
    fn layer_up_reads_the_encoded_roots() {
        let data: Vec<f64> = (0..128).map(|i| ((i * 11) % 41) as f64).collect();
        let params = MrvParams::new(4, 1.0).unwrap();
        let mut dp = Mrv {
            p: params,
            cap: 16 * params.q as usize,
            root_coeffs: Vec::new(),
        };
        crate::layered::assert_layer_up_reads_the_encoded_roots(&mut dp, &data, 16, 2);
    }

    #[test]
    fn wire_row_roundtrip() {
        let row = MrvRow {
            min_norm: 2.5,
            cells: vec![
                MrvCell { v: 1.0, y: 2, l: 3 },
                MrvCell { v: 0.5, y: 0, l: 1 },
            ],
        };
        let mut buf = Vec::new();
        Mrv::encode_row(&row, &mut buf);
        let mut s = buf.as_slice();
        let back = Mrv::decode_row(&mut s).unwrap();
        assert_eq!(back, row);
        assert!(s.is_empty());
    }
}
