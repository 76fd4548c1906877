//! Send-Coef (Appendix A.3, \[21\]): basis-vector streaming over
//! unaligned blocks.
//!
//! Each mapper takes an HDFS-block-sized chunk (no power-of-two
//! alignment), and for every datum computes its contribution to each of
//! the `log N + 1` coefficients on its path (Algorithm 7). Coefficients
//! fully contained in the block are emitted complete; boundary
//! coefficients are emitted as one partial contribution per datapoint,
//! which the reducer aggregates — `O(S(log N - log S))` records per block.
//! Sub-tree locality is *not* preserved, which is exactly why CON beats it
//! by ~1.5× (Figure 10): mapper work is `O(S log N)` and boundary
//! coefficients cross the wire several times.
//!
//! The map function is [`algorithm7`] and nothing else: the walk streams
//! `(node, value)` into `ctx.emit` with no intermediate list, keys
//! ascending and, per key, in `j` order. The second half is load-bearing:
//! the spill sort is stable, so it fixes the order in which the reducer's
//! `vals.sum()` adds, and with it every output bit — the same order the
//! paper's datapoint-major walk gives. The first half is free speed: every
//! partition reaches the spill sort already sorted.

use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{Cluster, JobBuilder, Kernel, MapContext, Pipeline, ReduceContext, Values};
use dwmaxerr_wavelet::basis::algorithm7;
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::splits::{block_splits, SliceSplit};

/// Runs Send-Coef with `parts` unaligned mapper blocks (Algorithm 7
/// verbatim: no map-side aggregation).
pub fn send_coef(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    parts: usize,
) -> Result<(Synopsis, DriverMetrics), CoreError> {
    send_coef_inner(cluster, data, b, parts, false)
}

/// Send-Coef with a Hadoop combiner folding each mapper's per-datapoint
/// partial contributions before the shuffle — the standard production fix
/// for Algorithm 7's `O(S(log N - log S))` communication, provided as an
/// ablation point.
pub fn send_coef_combined(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    parts: usize,
) -> Result<(Synopsis, DriverMetrics), CoreError> {
    send_coef_inner(cluster, data, b, parts, true)
}

fn send_coef_inner(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    parts: usize,
    with_combiner: bool,
) -> Result<(Synopsis, DriverMetrics), CoreError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    let splits = block_splits(data, parts)?;

    let name = if with_combiner {
        "send-coef+combiner"
    } else {
        "send-coef"
    };
    let stage = JobBuilder::new(name)
        .map(move |split: &SliceSplit, ctx: &mut MapContext<u64, f64>| {
            // Algorithm 7: fully-contained coefficients are emitted once,
            // complete; boundary coefficients are emitted per datapoint —
            // the O(S(logN - logS)) communication the paper analyses.
            ctx.charge(Kernel::Values, split.len() as u64);
            algorithm7(n, split.start(), split.slice(), |node, value| {
                ctx.emit(node as u64, value)
            });
        })
        .input_bytes(SliceSplit::bytes);
    let stage = if with_combiner {
        stage.combine_with(|_k, vals: Values<'_, u64, f64>| vals.sum())
    } else {
        stage
    };
    let job = stage.reduce(|k, vals, ctx: &mut ReduceContext<u64, f64>| {
        // Aggregate partial sums into the final coefficient.
        ctx.emit(*k, vals.sum());
    });

    let (entries, metrics) = Pipeline::on(cluster)
        .stage(&job, &splits)?
        .then(|(_, pairs)| super::top_b_by_normalized(pairs, n, b))
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
    fn matches_reference_with_unaligned_blocks() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 5) % 17) as f64 * 1.5).collect();
        let expect = conventional_synopsis(&forward(&data).unwrap(), 9).unwrap();
        for parts in [1usize, 3, 7, 13] {
            let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));
            let (syn, _) = send_coef(&cluster, &data, 9, parts).unwrap();
            assert_eq!(syn, expect, "parts={parts}");
        }
    }

    #[test]
    fn combiner_same_synopsis_less_shuffle() {
        let data: Vec<f64> = (0..256).map(|i| ((i * 11) % 37) as f64).collect();
        let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));
        let (plain, m_plain) = send_coef(&cluster, &data, 12, 8).unwrap();
        let (combined, m_comb) = send_coef_combined(&cluster, &data, 12, 8).unwrap();
        assert_eq!(plain, combined);
        assert!(
            m_comb.total_shuffle_bytes() < m_plain.total_shuffle_bytes() / 2,
            "combiner should halve shuffle: {} vs {}",
            m_comb.total_shuffle_bytes(),
            m_plain.total_shuffle_bytes()
        );
    }

    #[test]
    fn boundary_coefficients_cross_multiple_times() {
        // With several unaligned blocks, high-level coefficients are
        // emitted partially by multiple mappers: shuffle records exceed N.
        let data: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));
        let (_, m) = send_coef(&cluster, &data, 8, 8).unwrap();
        assert!(
            m.jobs[0].shuffle_records > 128,
            "records {}",
            m.jobs[0].shuffle_records
        );
    }
}
