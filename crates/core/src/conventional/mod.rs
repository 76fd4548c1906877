//! Parallel construction of the conventional (L2-optimal) synopsis
//! (Appendix A): four algorithms that produce identical synopses with very
//! different cost structures.
//!
//! * [`con`] — the paper's own algorithm: locality-preserving partitioning,
//!   local transforms, one reducer keeping the B largest normalized
//!   coefficients (A.1).
//! * [`send_v`] — degenerate sequential baseline: ship every value to one
//!   reducer that does all the work (A.2).
//! * [`send_coef`] — Jestes et al.'s basis-vector streaming: unaligned
//!   blocks, per-datum path contributions (A.3).
//! * [`hwtopk`] — the TPUT-based three-round distributed top-k (A.4).

mod con_impl;
mod hwtopk_impl;
mod send_coef_impl;
mod send_v_impl;

pub use con_impl::con;
pub use hwtopk_impl::{hwtopk, HWTopkReport};
pub use send_coef_impl::{send_coef, send_coef_combined};
pub use send_v_impl::send_v;

use dwmaxerr_wavelet::tree::TreeTopology;
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::partition::BasePartition;

/// The L2 normalization factor of node `i` in an `n`-value tree:
/// `1 / sqrt(2^level(i))`.
pub(crate) fn norm_factor(topo: &TreeTopology, i: usize) -> f64 {
    level_factor(topo.level(i))
}

/// The L2 normalization factor of every node at `level`.
fn level_factor(level: u32) -> f64 {
    1.0 / f64::from(1u32 << level).sqrt()
}

/// Keeps the `b` entries with the largest `|normalized value|` from
/// `(node, raw value)` pairs, largest first; ties break to the lower node
/// id. The normalization factors are computed once per level (`log n + 1`
/// of them, not one per entry), each magnitude once per entry, and only the
/// kept `b` are sorted: the order is total, so selecting then sorting
/// yields exactly the prefix a full sort would.
pub(crate) fn top_b_by_normalized(
    pairs: impl IntoIterator<Item = (u64, f64)>,
    n: usize,
    b: usize,
) -> Vec<(u32, f64)> {
    if b == 0 {
        return Vec::new();
    }
    let topo = TreeTopology::new(n).expect("power-of-two n");
    let factors: Vec<f64> = (0..=topo.levels()).map(level_factor).collect();
    let mut all: Vec<(f64, u64, f64)> = pairs
        .into_iter()
        .map(|(i, v)| (v.abs() * factors[topo.level(i as usize) as usize], i, v))
        .collect();
    let by_magnitude_then_node = |&(ni, i, _): &(f64, u64, f64), &(nj, j, _): &(f64, u64, f64)| {
        nj.total_cmp(&ni).then(i.cmp(&j))
    };
    if b < all.len() {
        all.select_nth_unstable_by(b - 1, by_magnitude_then_node);
        all.truncate(b);
    }
    all.sort_unstable_by(by_magnitude_then_node);
    all.into_iter().map(|(_, i, v)| (i as u32, v)).collect()
}

/// CON's driver side: the base `averages` become the root sub-tree's
/// coefficients, which join the base sub-trees' `details` (`(global node,
/// coefficient)`, any order); the `b` largest in normalized value stay.
fn select_top_b(
    partition: BasePartition,
    averages: &[f64],
    mut details: Vec<(u64, f64)>,
    b: usize,
) -> Result<Synopsis, CoreError> {
    let root = partition.root_coeffs_from_averages(averages);
    details.extend(root.iter().enumerate().map(|(i, &c)| (i as u64, c)));
    let n = partition.n();
    Ok(Synopsis::from_entries(
        n,
        top_b_by_normalized(details, n, b),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_algos::conventional::conventional_synopsis;
    use dwmaxerr_runtime::{Cluster, ClusterConfig};
    use dwmaxerr_wavelet::transform::forward;
    use dwmaxerr_wavelet::Synopsis;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    fn reference(data: &[f64], b: usize) -> Synopsis {
        conventional_synopsis(&forward(data).unwrap(), b).unwrap()
    }

    /// All four Appendix-A algorithms must produce exactly the reference
    /// conventional synopsis ("For any given dataset, all four described
    /// algorithms produce exactly the same synopses", A.5).
    #[test]
    fn all_four_agree_with_reference() {
        let data: Vec<f64> = (0..64)
            .map(|i| ((i * 37) % 23) as f64 * 3.0 + if i == 11 { 70.0 } else { 0.0 })
            .collect();
        for b in [1usize, 4, 8, 16] {
            let cluster = test_cluster();
            let expect = reference(&data, b);
            let (c, _) = con(&cluster, &data, b, 8).unwrap();
            assert_eq!(c, expect, "CON b={b}");
            let (v, _) = send_v(&cluster, &data, b, 4).unwrap();
            assert_eq!(v, expect, "Send-V b={b}");
            let (s, _) = send_coef(&cluster, &data, b, 5).unwrap();
            assert_eq!(s, expect, "Send-Coef b={b}");
            let h = hwtopk(&cluster, &data, b, 5).unwrap();
            assert_eq!(h.synopsis, expect, "H-WTopk b={b}");
        }
    }

    #[test]
    fn top_b_matches_tree_ordering() {
        let data = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
        let w = forward(&data).unwrap();
        let pairs = w.iter().enumerate().map(|(i, &v)| (i as u64, v));
        let top = top_b_by_normalized(pairs, 8, 3);
        let idx: Vec<u32> = top.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![0, 5, 7]);
    }

    /// The full-sort formulation `top_b_by_normalized` replaced: sort every
    /// pair, recomputing both magnitudes per comparison, then truncate.
    fn top_b_by_full_sort(mut all: Vec<(u64, f64)>, n: usize, b: usize) -> Vec<(u32, f64)> {
        let topo = TreeTopology::new(n).unwrap();
        all.sort_unstable_by(|&(i, vi), &(j, vj)| {
            let ni = vi.abs() * norm_factor(&topo, i as usize);
            let nj = vj.abs() * norm_factor(&topo, j as usize);
            nj.total_cmp(&ni).then(i.cmp(&j))
        });
        all.truncate(b);
        all.into_iter().map(|(i, v)| (i as u32, v)).collect()
    }

    // Select-then-sort keeps exactly what the full sort kept, in the same
    // order — with few distinct magnitudes (so ties at the cut are the norm,
    // across levels too: 4 at level 2 ties 2 at level 0) and `b` at 0, 1,
    // the length and past it.
    proptest::proptest! {
        #[test]
        fn top_b_select_matches_full_sort(
            values in proptest::collection::vec(-4i32..=4, 64),
            keep in proptest::collection::vec(proptest::prelude::any::<bool>(), 64),
            b_mid in 0usize..70,
        ) {
            let pairs: Vec<(u64, f64)> = values
                .iter()
                .zip(&keep)
                .enumerate()
                .filter(|(_, (_, &k))| k)
                .map(|(i, (&v, _))| (i as u64, f64::from(v)))
                .collect();
            for b in [0, 1, b_mid, pairs.len(), pairs.len() + 3] {
                let got = top_b_by_normalized(pairs.iter().copied(), 64, b);
                let want = top_b_by_full_sort(pairs.clone(), 64, b);
                proptest::prop_assert_eq!(got, want, "b = {}", b);
            }
        }
    }

    #[test]
    fn shuffle_cost_ordering_matches_paper() {
        // CON's locality-preserving partitioning must shuffle fewer bytes
        // than Send-Coef's path-scatter (Appendix A.1 vs A.3 analysis);
        // Send-V ships everything and is the worst of the three.
        let data: Vec<f64> = (0..256).map(|i| ((i * 13) % 101) as f64).collect();
        let b = 16;
        let cluster = test_cluster();
        let (_, m_con) = con(&cluster, &data, b, 32).unwrap();
        let (_, m_sv) = send_v(&cluster, &data, b, 8).unwrap();
        let (_, m_sc) = send_coef(&cluster, &data, b, 8).unwrap();
        let con_bytes = m_con.total_shuffle_bytes();
        let sv_bytes = m_sv.total_shuffle_bytes();
        let sc_bytes = m_sc.total_shuffle_bytes();
        assert!(
            con_bytes < sc_bytes,
            "CON {con_bytes} !< Send-Coef {sc_bytes}"
        );
        // Send-V also ships O(N) records; its penalty is the fully
        // sequential reduce phase (asserted by the fig10 bench, where the
        // sizes make timing meaningful), not shuffle volume.
        assert!(con_bytes <= sv_bytes, "CON {con_bytes} > Send-V {sv_bytes}");
    }
}
