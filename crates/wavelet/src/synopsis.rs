//! Sparse wavelet synopses.
//!
//! A [`Synopsis`] is the compressed representation produced by thresholding:
//! a set of `(node index, value)` pairs, with every other coefficient
//! implicitly zero. *Restricted* synopses retain original coefficient
//! values; *unrestricted* ones (produced by MinHaarSpace, \[24\]) may assign
//! arbitrary values to retained nodes — the representation is identical.

use crate::error::{ensure_pow2, WaveletError};
use crate::transform;
use crate::tree::TreeTopology;

/// A sparse wavelet synopsis over an `n`-value array.
///
/// Entries are kept sorted by node index, enabling `O(log B)` point lookups
/// and cheap merges.
#[derive(Debug, Clone, PartialEq)]
pub struct Synopsis {
    n: usize,
    entries: Vec<(u32, f64)>,
}

impl Synopsis {
    /// Creates an empty synopsis for an `n`-value array (`n` a power of
    /// two). Reconstructs everything as zero.
    pub fn empty(n: usize) -> Result<Self, WaveletError> {
        ensure_pow2(n)?;
        Ok(Synopsis {
            n,
            entries: Vec::new(),
        })
    }

    /// Builds a synopsis from `(index, value)` pairs. Duplicate indices are
    /// rejected by debug assertion; the slice need not be sorted.
    pub fn from_entries(n: usize, mut entries: Vec<(u32, f64)>) -> Result<Self, WaveletError> {
        ensure_pow2(n)?;
        entries.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate synopsis indices"
        );
        debug_assert!(entries.last().is_none_or(|&(i, _)| (i as usize) < n));
        Ok(Synopsis { n, entries })
    }

    /// Builds a restricted synopsis by retaining the listed coefficient
    /// indices of `coeffs`.
    pub fn retain_indices(coeffs: &[f64], indices: &[u32]) -> Result<Self, WaveletError> {
        let entries = indices
            .iter()
            .map(|&i| (i, coeffs[i as usize]))
            .collect::<Vec<_>>();
        Synopsis::from_entries(coeffs.len(), entries)
    }

    /// Number of retained (non-zero-slot) coefficients.
    #[inline]
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// The underlying data length `n`.
    #[inline]
    pub fn data_len(&self) -> usize {
        self.n
    }

    /// The sorted `(index, value)` entries.
    #[inline]
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// The value stored for node `i`, or 0 if the node was thresholded away.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        match self.entries.binary_search_by_key(&(i as u32), |&(k, _)| k) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// True when node `i` is retained.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.entries
            .binary_search_by_key(&(i as u32), |&(k, _)| k)
            .is_ok()
    }

    /// Expands the synopsis into a dense coefficient array.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.n];
        for &(i, v) in &self.entries {
            w[i as usize] = v;
        }
        w
    }

    /// Reconstructs all `n` approximate data values (`O(n)`).
    pub fn reconstruct_all(&self) -> Vec<f64> {
        transform::inverse(&self.to_dense()).expect("n validated at construction")
    }

    /// Reconstructs the single approximate value `d_j` in `O(log n + log B)`.
    pub fn reconstruct_value(&self, j: usize) -> f64 {
        let topo = TreeTopology::new(self.n).expect("n validated at construction");
        topo.path_of_leaf(j)
            .map(|(i, s)| f64::from(s) * self.value(i))
            .sum()
    }

    /// Reconstructs the `len` values `d_start .. d_start + len` of a
    /// dyadic-aligned block, each bit for bit what
    /// [`Synopsis::reconstruct_value`] returns, in `O(len · log n)`
    /// additions and `O(log n)` searches for the whole block instead of
    /// `O(log n)` searches per value.
    ///
    /// A leaf's path is the block's own sub-tree below the ancestors the
    /// whole block shares: the sub-tree's coefficients are scattered into a
    /// dense local heap (one search per level), the shared ancestors'
    /// signed terms are taken once, and every leaf then sums its terms in
    /// [`TreeTopology::path_of_leaf`]'s order — deepest level first, `c_0`
    /// last, an absent coefficient as `0.0` — because floating-point
    /// addition is not associative and the terms need not be whole numbers.
    ///
    /// # Panics
    ///
    /// When `len` is not a power of two, `start` not a multiple of it or
    /// the block ends beyond `n`.
    pub fn reconstruct_block(&self, start: usize, len: usize) -> Vec<f64> {
        assert!(
            len.is_power_of_two() && start.is_multiple_of(len) && start + len <= self.n,
            "block {start}+{len} is not a dyadic block of {} values",
            self.n
        );
        let log_m = len.trailing_zeros();
        // The block hangs below level `top`: levels `top..log n` are its own.
        let top = self.n.trailing_zeros() - log_m;

        // Local heap order: node `2^k + i` is the `i`-th block node of
        // level `top + k`, global node `(root << k) + i`; slot 0 is unused.
        let root = (1usize << top) + (start >> log_m);
        let mut local = vec![0.0; len];
        let mut rest = self.entries.as_slice();
        for k in 0..log_m {
            let (first, width) = (root << k, 1usize << k);
            rest = &rest[rest.partition_point(|&(i, _)| (i as usize) < first)..];
            for &(i, v) in rest
                .iter()
                .take_while(|&&(i, _)| (i as usize) < first + width)
            {
                local[width + i as usize - first] = v;
            }
        }

        // What every leaf of the block adds after its own levels.
        let topo = TreeTopology::new(self.n).expect("n validated at construction");
        let shared: Vec<f64> = topo
            .path_of_leaf(start)
            .skip(log_m as usize)
            .map(|(i, s)| f64::from(s) * self.value(i))
            .collect();

        (0..len)
            .map(|leaf| {
                (0..log_m)
                    .rev()
                    .map(|k| {
                        let below = log_m - k;
                        let sign = if (leaf >> (below - 1)) & 1 == 0 {
                            1.0
                        } else {
                            -1.0
                        };
                        sign * local[(1 << k) + (leaf >> below)]
                    })
                    .chain(shared.iter().copied())
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    #[test]
    fn paper_thresholding_example() {
        // Retaining {c_0, c_5, c_3} reconstructs d_5 as 7 - 3 = 4 (Sec 2.3).
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, &[0, 5, 3]).unwrap();
        assert_eq!(syn.size(), 3);
        assert!((syn.reconstruct_value(5) - 4.0).abs() < 1e-12);
        let all = syn.reconstruct_all();
        assert!((all[5] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn full_synopsis_is_lossless() {
        let w = forward(&PAPER_DATA).unwrap();
        let all_idx: Vec<u32> = (0..8).collect();
        let syn = Synopsis::retain_indices(&w, &all_idx).unwrap();
        let rec = syn.reconstruct_all();
        for (r, d) in rec.iter().zip(&PAPER_DATA) {
            assert!((r - d).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_synopsis_reconstructs_zero() {
        let syn = Synopsis::empty(16).unwrap();
        assert_eq!(syn.size(), 0);
        assert!(syn.reconstruct_all().iter().all(|&v| v == 0.0));
        assert_eq!(syn.reconstruct_value(7), 0.0);
    }

    #[test]
    fn point_and_dense_reconstruction_agree() {
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, &[0, 1, 5, 7]).unwrap();
        let dense = syn.reconstruct_all();
        for (j, &dj) in dense.iter().enumerate() {
            assert!((syn.reconstruct_value(j) - dj).abs() < 1e-12);
        }
    }

    #[test]
    fn unrestricted_values_are_allowed() {
        let syn = Synopsis::from_entries(4, vec![(0, 2.5), (2, -0.75)]).unwrap();
        assert_eq!(syn.value(0), 2.5);
        assert_eq!(syn.value(1), 0.0);
        assert_eq!(syn.value(2), -0.75);
        // d_0 = c_0 + c_2 (left), d_1 = c_0 - c_2.
        assert!((syn.reconstruct_value(0) - 1.75).abs() < 1e-12);
        assert!((syn.reconstruct_value(1) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn entries_are_sorted_regardless_of_input_order() {
        let syn = Synopsis::from_entries(8, vec![(5, 1.0), (0, 2.0), (3, 3.0)]).unwrap();
        let idx: Vec<u32> = syn.entries().iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![0, 3, 5]);
        assert!(syn.contains(3));
        assert!(!syn.contains(4));
    }
}
