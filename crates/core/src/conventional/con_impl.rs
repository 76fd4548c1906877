//! CON (Appendix A.1): the paper's locality-preserving conventional
//! synopsis.
//!
//! Mappers read power-of-two-aligned slices, run the local Haar transform
//! (`O(S)`), and emit every detail coefficient plus the slice average; the
//! reducer assembles the root sub-tree from the averages and keeps the `B`
//! largest coefficients in absolute normalized value. Communication is
//! `O(N)` but — unlike Send-Coef — each coefficient crosses the wire
//! exactly once, fully computed.

#![warn(clippy::too_many_lines)]

use dwmaxerr_algos::conventional::conventional_synopsis;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{Cluster, JobBuilder, Kernel, MapContext, Pipeline};
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::layered::forward;
use crate::partition::BasePartition;
use crate::splits::{aligned_splits, SliceSplit};

/// Runs CON: the conventional B-term synopsis with locality-preserving
/// partitioning into `base_leaves`-sized slices.
pub fn con(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    base_leaves: usize,
) -> Result<(Synopsis, DriverMetrics), CoreError> {
    let n = data.len();
    if n < 2 {
        // No tree to partition: one value is its own average, and none is
        // the empty-input error Send-V, Send-Coef and H-WTopk give.
        let coeffs = dwmaxerr_wavelet::transform::forward(data)?;
        return Ok((conventional_synopsis(&coeffs, b)?, DriverMetrics::new()));
    }
    let s = base_leaves.clamp(2, n);
    let partition = BasePartition::new(n, s)?;
    let splits = aligned_splits(data, s);
    let num_base = partition.num_base() as u64;
    // Every detail coefficient on its global node id, and every slice
    // average on the reserved key `< R` (the split id — detail node ids
    // are all `≥ R`).
    let job = JobBuilder::new("con")
        .map(move |split: &SliceSplit, ctx: &mut MapContext<u64, f64>| {
            ctx.charge(Kernel::Values, split.len() as u64);
            let (details, avg) = partition.base_details_from_data(split.slice());
            for (local, &c) in details.iter().enumerate() {
                let global = partition.local_to_global(split.id as usize, local + 1);
                ctx.emit(global as u64, c);
            }
            ctx.emit(split.id as u64, avg);
        })
        .input_bytes(SliceSplit::bytes)
        // Pass everything through; the top-B selection happens
        // driver-side so the averages (keys < R) can be transformed
        // into root coefficients first. The reducer still performs the
        // sort-merge, as in the paper's design.
        .reduce(forward);
    Ok(Pipeline::on(cluster)
        .stage(&job, &splits)?
        .try_then(|((), pairs)| {
            let mut averages = vec![0.0; num_base as usize];
            let mut details: Vec<(u64, f64)> = Vec::with_capacity(n);
            for (k, v) in pairs {
                if k < num_base {
                    averages[k as usize] = v;
                } else {
                    details.push((k, v));
                }
            }
            super::select_top_b(partition, &averages, details, b)
        })?
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::transform::forward;

    #[test]
    fn matches_reference_across_slice_sizes() {
        let data: Vec<f64> = (0..128).map(|i| ((i * 7) % 41) as f64).collect();
        let expect = conventional_synopsis(&forward(&data).unwrap(), 10).unwrap();
        for s in [4usize, 16, 64, 128] {
            let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));
            let (syn, _) = con(&cluster, &data, 10, s).unwrap();
            assert_eq!(syn, expect, "slice size {s}");
        }
    }

    #[test]
    fn shuffle_is_linear_in_n() {
        let data: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));
        let (_, m) = con(&cluster, &data, 8, 32).unwrap();
        // Every coefficient crosses once: N records of (8-byte key +
        // 8-byte value).
        assert_eq!(m.jobs[0].shuffle_records, 256);
        assert_eq!(m.jobs[0].shuffle_bytes, 256 * 16);
    }
}
