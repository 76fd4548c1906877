//! Locality-preserving error-tree partitioning (Section 4, Figures 3-4).
//!
//! The framework splits the error tree of an `N`-value array into one
//! **root sub-tree** (the top `R` coefficient nodes `c_0 .. c_{R-1}`) and
//! `R` **base sub-trees**, each rooted at a node `c_{R+j}` and covering `S`
//! consecutive data values, with `N = R + R·S` coefficients in total
//! (Section 5.3's accounting; here `S` counts the base sub-tree's *leaves*
//! and each base sub-tree holds `S - 1` detail coefficients, so
//! `R + R·(S-1) + ... = N` holds as `R · S = N`).
//!
//! Two self-similarity facts make the partitioning work:
//!
//! 1. the root sub-tree `c_0..c_{R-1}` is *exactly* the error tree of the
//!    `R`-value array of base-slice averages, and
//! 2. each base sub-tree is exactly the detail tree of its own `S`-value
//!    slice, computable locally by any worker holding that slice.
//!
//! The same indices also describe the height-`h` layer decomposition used
//! to parallelize the DP algorithms (Eq. 4): a layer's sub-trees are just
//! base partitions of the row array above them.

use dwmaxerr_wavelet::tree::TreeTopology;
use dwmaxerr_wavelet::WaveletError;

use crate::error::CoreError;

/// Heap self-similarity: the global id of the node at heap position
/// `local` (`1` = its own root) of the sub-tree rooted at global node
/// `root` — a base sub-tree or one of the layered framework's mini-trees.
#[inline]
pub(crate) fn heap_descendant(root: u64, local: usize) -> u64 {
    let depth = local.ilog2();
    (root << depth) + (local as u64 - (1u64 << depth))
}

/// The root/base split of an `n`-leaf error tree with base sub-trees of
/// `s` leaves each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasePartition {
    n: usize,
    s: usize,
    r: usize,
}

impl BasePartition {
    /// Creates a partition of an `n`-value tree into base sub-trees of `s`
    /// leaves. Both must be powers of two with `2 <= s <= n`.
    pub fn new(n: usize, s: usize) -> Result<Self, WaveletError> {
        dwmaxerr_wavelet::error::ensure_pow2(n)?;
        dwmaxerr_wavelet::error::ensure_pow2(s)?;
        if s < 2 || s > n {
            return Err(WaveletError::NonPositiveParameter(
                "base sub-tree leaf count must satisfy 2 <= s <= n",
            ));
        }
        Ok(BasePartition { n, s, r: n / s })
    }

    /// Total data values `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Leaves per base sub-tree (`S`).
    #[inline]
    pub fn base_leaves(&self) -> usize {
        self.s
    }

    /// Number of base sub-trees — also the size of the root sub-tree (`R`).
    #[inline]
    pub fn num_base(&self) -> usize {
        self.r
    }

    /// Detail coefficients per base sub-tree (`S - 1`).
    #[inline]
    pub fn base_details(&self) -> usize {
        self.s - 1
    }

    /// The global error-tree node id of base sub-tree `j`'s root.
    #[inline]
    pub fn base_root(&self, j: usize) -> usize {
        debug_assert!(j < self.r);
        self.r + j
    }

    /// The data range covered by base sub-tree `j`.
    #[inline]
    pub fn base_span(&self, j: usize) -> std::ops::Range<usize> {
        debug_assert!(j < self.r);
        j * self.s..(j + 1) * self.s
    }

    /// Maps a *local* detail-node id (heap order within base sub-tree `j`,
    /// local root = 1) to the global error-tree node id.
    #[inline]
    pub fn local_to_global(&self, j: usize, local: usize) -> usize {
        debug_assert!(local >= 1 && local < self.s);
        heap_descendant(self.base_root(j) as u64, local) as usize
    }

    /// Maps a global node id inside base sub-tree `j` back to its local id.
    #[inline]
    pub fn global_to_local(&self, j: usize, global: usize) -> usize {
        let root = self.base_root(j);
        let depth =
            (usize::BITS - 1 - global.leading_zeros()) - (usize::BITS - 1 - root.leading_zeros());
        let level_start_global = root << depth;
        (1usize << depth) + (global - level_start_global)
    }

    /// Which base sub-tree a global node id `>= r` belongs to.
    #[inline]
    pub fn owner_of(&self, global: usize) -> usize {
        debug_assert!(global >= self.r && global < self.n);
        let depth =
            (usize::BITS - 1 - global.leading_zeros()) - (usize::BITS - 1 - self.r.leading_zeros());
        (global >> depth) - self.r
    }

    /// Extracts base sub-tree `j`'s detail coefficients in local heap order
    /// from the full coefficient array.
    pub fn base_details_from(&self, coeffs: &[f64], j: usize) -> Vec<f64> {
        debug_assert_eq!(coeffs.len(), self.n);
        (1..self.s)
            .map(|local| coeffs[self.local_to_global(j, local)])
            .collect()
    }

    /// Computes base sub-tree `j`'s detail coefficients directly from its
    /// data slice (what a worker owning the slice does locally). Also
    /// returns the slice average — the leaf value of the root sub-tree.
    pub fn base_details_from_data(&self, slice: &[f64]) -> (Vec<f64>, f64) {
        debug_assert_eq!(slice.len(), self.s);
        let w = dwmaxerr_wavelet::transform::forward(slice).expect("power-of-two slice");
        (w[1..].to_vec(), w[0])
    }

    /// The root sub-tree's coefficients `c_0..c_{R-1}`, computed from the
    /// base slice averages (self-similarity of the Haar transform).
    pub fn root_coeffs_from_averages(&self, averages: &[f64]) -> Vec<f64> {
        debug_assert_eq!(averages.len(), self.r);
        dwmaxerr_wavelet::transform::forward(averages).expect("power-of-two averages")
    }

    /// Base averages in base order from `(base, average)` records; see
    /// [`store_finite_averages`].
    pub(crate) fn finite_averages(&self, pairs: Vec<(u32, f64)>) -> Result<Vec<f64>, CoreError> {
        let mut averages = vec![0.0; self.num_base()];
        store_finite_averages(&mut averages, pairs)?;
        Ok(averages)
    }

    /// The topology of the root sub-tree viewed as an `R`-leaf error tree
    /// whose leaves are the base sub-trees.
    pub fn root_topology(&self) -> TreeTopology {
        TreeTopology::new(self.r).expect("power-of-two r")
    }

    /// The signed incoming **error** `delta_j * e_in` to base sub-tree `j`
    /// when the root-sub-tree nodes in `removed` are discarded (their
    /// values taken from `root_coeffs`): `-Σ sign(a, j) · c_a`
    /// (Section 5.2's worked example: removing `{c_0, c_2}` of Figure 1
    /// sends incoming error `-7 - 4 = -11` to a right-subtree `T_j`).
    pub fn incoming_error(&self, root_coeffs: &[f64], removed: &[usize], j: usize) -> f64 {
        let topo = self.root_topology();
        -removed
            .iter()
            .map(|&a| f64::from(topo.sign(a, j)) * root_coeffs[a])
            .sum::<f64>()
    }

    /// The incoming **value** to base sub-tree `j` when exactly the
    /// root-sub-tree nodes in `retained` are kept.
    pub fn incoming_value(&self, root_coeffs: &[f64], retained: &[usize], j: usize) -> f64 {
        let topo = self.root_topology();
        retained
            .iter()
            .map(|&a| f64::from(topo.sign(a, j)) * root_coeffs[a])
            .sum::<f64>()
    }
}

/// Writes `(base, average)` records into `averages`, refusing non-finite
/// data: any NaN or ±∞ value makes its base average non-finite, and over
/// such data no error bound means anything.
pub(crate) fn store_finite_averages<K: Into<u64>>(
    averages: &mut [f64],
    pairs: impl IntoIterator<Item = (K, f64)>,
) -> Result<(), CoreError> {
    for (j, avg) in pairs {
        let base = j.into() as usize;
        if !avg.is_finite() {
            return Err(CoreError::NonFiniteInput { base });
        }
        averages[base] = avg;
    }
    Ok(())
}

/// The layer decomposition of Section 4 (Eq. 4): bottom-up layers of
/// height-`h` sub-trees for the DP framework. Layer 0 is the base layer of
/// data slices; each subsequent layer combines `2^h` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    n: usize,
    base_leaves: usize,
    fan_in: usize,
}

impl LayerPlan {
    /// Plans layers over an `n`-value tree: base sub-trees of
    /// `base_leaves` data values, upper layers combining `fan_in` rows per
    /// worker. All powers of two.
    pub fn new(n: usize, base_leaves: usize, fan_in: usize) -> Result<Self, WaveletError> {
        dwmaxerr_wavelet::error::ensure_pow2(n)?;
        dwmaxerr_wavelet::error::ensure_pow2(base_leaves)?;
        dwmaxerr_wavelet::error::ensure_pow2(fan_in)?;
        if base_leaves < 2 || base_leaves > n || fan_in < 2 {
            return Err(WaveletError::NonPositiveParameter(
                "need 2 <= base_leaves <= n and fan_in >= 2",
            ));
        }
        Ok(LayerPlan {
            n,
            base_leaves,
            fan_in,
        })
    }

    /// Number of base sub-trees (rows produced by layer 0).
    pub fn base_count(&self) -> usize {
        self.n / self.base_leaves
    }

    /// Rows entering each upper layer: layer 1 gets `base_count()` rows,
    /// layer `i+1` gets `ceil(rows_i / fan_in)`... exactly
    /// `rows_i / fan_in` here since everything is a power of two (clamped
    /// to ≥ 1 group). Returns the row counts entering layers `1, 2, ...`
    /// until a single row remains.
    pub fn upper_layer_row_counts(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        let mut rows = self.base_count();
        while rows > 1 {
            counts.push(rows);
            rows = (rows / self.fan_in).max(1);
        }
        counts
    }

    /// Total number of MapReduce stages (layers), including the base
    /// layer — `ceil(log N / h)`-shaped, per Eq. 4.
    pub fn stages(&self) -> usize {
        1 + self.upper_layer_row_counts().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::transform::forward;

    #[test]
    fn accounting_matches_paper() {
        // N = R + R·S with S counting *detail coefficients* per base
        // sub-tree (paper's Section 5.3 notation): with s leaves per base
        // sub-tree, S = s - 1 and R·s = n.
        let p = BasePartition::new(64, 8).unwrap();
        assert_eq!(p.num_base(), 8);
        let r = p.num_base();
        let s_details = p.base_details();
        assert_eq!(r + r * s_details + (r - r), 64); // r·s = n
        assert_eq!(r * p.base_leaves(), p.n());
        assert_eq!(r + r * s_details, p.n()); // R + R·S = N
    }

    #[test]
    fn local_global_roundtrip() {
        let p = BasePartition::new(64, 8).unwrap();
        for j in 0..p.num_base() {
            for local in 1..8 {
                let g = p.local_to_global(j, local);
                assert!(g >= p.num_base() && g < 64);
                assert_eq!(p.global_to_local(j, g), local);
                assert_eq!(p.owner_of(g), j);
            }
        }
    }

    #[test]
    fn base_root_ids() {
        let p = BasePartition::new(16, 4).unwrap();
        assert_eq!(p.num_base(), 4);
        assert_eq!(p.base_root(0), 4);
        assert_eq!(p.base_root(3), 7);
        assert_eq!(p.base_span(2), 8..12);
    }

    #[test]
    fn details_from_data_match_full_transform() {
        let data: Vec<f64> = (0..32).map(|i| (i as f64 * 1.7).sin() * 10.0).collect();
        let w = forward(&data).unwrap();
        let p = BasePartition::new(32, 8).unwrap();
        for j in 0..p.num_base() {
            let (from_data, avg) = p.base_details_from_data(&data[p.base_span(j)]);
            let from_full = p.base_details_from(&w, j);
            for (a, b) in from_data.iter().zip(&from_full) {
                assert!((a - b).abs() < 1e-9);
            }
            let direct_avg: f64 = data[p.base_span(j)].iter().sum::<f64>() / p.base_leaves() as f64;
            assert!((avg - direct_avg).abs() < 1e-9);
        }
    }

    #[test]
    fn root_coeffs_from_averages_match_full_transform() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 37) % 19) as f64).collect();
        let w = forward(&data).unwrap();
        let p = BasePartition::new(64, 8).unwrap();
        let averages: Vec<f64> = (0..p.num_base())
            .map(|j| data[p.base_span(j)].iter().sum::<f64>() / p.base_leaves() as f64)
            .collect();
        let root = p.root_coeffs_from_averages(&averages);
        for (i, c) in root.iter().enumerate() {
            assert!((c - w[i]).abs() < 1e-9, "root coeff {i}");
        }
    }

    #[test]
    fn paper_incoming_error_example() {
        // Figure 1 tree, root sub-tree {c_0, c_1, c_2, c_3}, base leaves
        // of size 2 (4 base sub-trees). Removing {c_0, c_2}: a sub-tree in
        // the *right* half of c_2 (base index 1) gets -7 - 4 = -11.
        let data = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
        let w = forward(&data).unwrap();
        let p = BasePartition::new(8, 2).unwrap();
        let e = p.incoming_error(&w[..4], &[0, 2], 1);
        assert!((e - (-11.0)).abs() < 1e-12, "got {e}");
        // A sub-tree in the left half of c_2 (base index 0): -7 + (-4)·1
        // reversed sign: -(c_0 + c_2) = -(7 - 4) = -3.
        let e0 = p.incoming_error(&w[..4], &[0, 2], 0);
        assert!((e0 - (-3.0)).abs() < 1e-12, "got {e0}");
    }

    #[test]
    fn incoming_value_plus_error_is_consistent() {
        // incoming_value(retained) - incoming_value(all) = incoming_error(removed).
        let data: Vec<f64> = (0..16).map(|i| (i as f64).powi(2) % 11.0).collect();
        let w = forward(&data).unwrap();
        let p = BasePartition::new(16, 4).unwrap();
        let root = &w[..4];
        let all: Vec<usize> = (0..4).collect();
        for j in 0..p.num_base() {
            let full = p.incoming_value(root, &all, j);
            let retained = vec![0usize, 3];
            let removed = vec![1usize, 2];
            let got = p.incoming_value(root, &retained, j);
            let err = p.incoming_error(root, &removed, j);
            assert!((got - (full + err)).abs() < 1e-9);
        }
    }

    #[test]
    fn incoming_value_reconstructs_subtree_entry() {
        // With ALL root nodes retained, the incoming value to base j must
        // equal the incoming value of the base root node in the full tree.
        let data: Vec<f64> = (0..32).map(|i| ((i * 13) % 23) as f64).collect();
        let tree = dwmaxerr_wavelet::ErrorTree::from_data(&data).unwrap();
        let p = BasePartition::new(32, 4).unwrap();
        let all: Vec<usize> = (0..p.num_base()).collect();
        for j in 0..p.num_base() {
            let via_partition = p.incoming_value(&tree.coefficients()[..p.num_base()], &all, j);
            let via_tree = tree.incoming_value(p.base_root(j));
            assert!((via_partition - via_tree).abs() < 1e-9, "base {j}");
        }
    }

    #[test]
    fn layer_plan_counts() {
        let plan = LayerPlan::new(1 << 12, 1 << 4, 1 << 2).unwrap();
        assert_eq!(plan.base_count(), 256);
        assert_eq!(plan.upper_layer_row_counts(), vec![256, 64, 16, 4]);
        assert_eq!(plan.stages(), 5);
    }

    #[test]
    fn layer_plan_degenerate_single_base() {
        let plan = LayerPlan::new(8, 8, 2).unwrap();
        assert_eq!(plan.base_count(), 1);
        assert!(plan.upper_layer_row_counts().is_empty());
        assert_eq!(plan.stages(), 1);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(BasePartition::new(10, 2).is_err());
        assert!(BasePartition::new(16, 3).is_err());
        assert!(BasePartition::new(16, 32).is_err());
        assert!(BasePartition::new(16, 1).is_err());
        assert!(LayerPlan::new(16, 4, 1).is_err());
    }
}
