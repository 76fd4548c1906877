//! Send-V (Appendix A.2): the degenerate sequential baseline.
//!
//! Without the histogram pre-aggregation of \[21\], Send-V reduces to a
//! plan where mappers forward raw `(position, value)` pairs and a single
//! reducer reads the entire dataset, computes the full wavelet transform
//! centrally and retains the B largest normalized coefficients. It
//! produces the same synopsis as CON at `O(N)` shuffle and a fully
//! sequential reduce phase — the paper's Figure 10 shows it losing to
//! every parallel alternative.

use dwmaxerr_runtime::metrics::{DriverMetrics, Kernel, TaskCost};
use dwmaxerr_runtime::{Cluster, JobBuilder, MapContext, Pipeline, ReduceContext};
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::splits::{block_splits, SliceSplit};

/// Runs Send-V with `parts` mapper blocks (unaligned; the mappers do no
/// real work).
pub fn send_v(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    parts: usize,
) -> Result<(Synopsis, DriverMetrics), CoreError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    let splits = block_splits(data, parts)?;

    let job = JobBuilder::new("send-v")
        .map(|split: &SliceSplit, ctx: &mut MapContext<u64, f64>| {
            for (off, &v) in split.slice().iter().enumerate() {
                ctx.emit((split.start() + off) as u64, v);
            }
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(|k, vals, ctx: &mut ReduceContext<u64, f64>| {
            for v in vals {
                ctx.emit(*k, v);
            }
        });

    let (entries, metrics) = Pipeline::on(cluster)
        .stage(&job, &splits)?
        // The single reducer's centralized work: rebuild the array (keys
        // arrive sorted), transform, threshold.
        .try_then(|(_, pairs)| -> Result<_, CoreError> {
            let mut rebuilt = vec![0.0; n];
            for (k, v) in pairs {
                rebuilt[k as usize] = v;
            }
            let coeffs = dwmaxerr_wavelet::transform::forward(&rebuilt)?;
            Ok(super::top_b_by_normalized(
                coeffs.iter().enumerate().map(|(i, &c)| (i as u64, c)),
                n,
                b,
            ))
        })?
        // Attribute the centralized step to the reduce task: three passes
        // over the `n` values (rebuild, transform, select), then a sort of
        // the kept ones. Its units join the task's cost and their price the
        // reduce phase.
        .amend_last(|_, jm| {
            let kept = b.min(n) as u64;
            let units = 3 * n as u64 + kept * u64::from(kept.next_power_of_two().trailing_zeros());
            let mut central = TaskCost::default();
            central.charge(Kernel::Values, units);
            jm.sim.reduce += central.secs(cluster.config().disk_bytes_per_sec);
            if let Some(cost) = jm.reduce_costs.first_mut() {
                cost.charge(Kernel::Values, units);
            }
        })
        .finish();

    Ok((Synopsis::from_entries(n, entries)?, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_algos::conventional::conventional_synopsis;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::transform::forward;

    #[test]
    fn matches_reference() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 11) % 29) as f64).collect();
        let expect = conventional_synopsis(&forward(&data).unwrap(), 7).unwrap();
        let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));
        let (syn, m) = send_v(&cluster, &data, 7, 3).unwrap();
        assert_eq!(syn, expect);
        // Everything shuffles: N records of 16 bytes.
        assert_eq!(m.jobs[0].shuffle_records, 64);
    }
}
