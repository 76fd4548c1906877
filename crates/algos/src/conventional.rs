//! The conventional (L2-optimal) thresholding scheme (Section 2.3).
//!
//! Retains the `B` coefficients with the largest normalized magnitude
//! `|c_i| / sqrt(2^level(c_i))`. Minimizes the mean squared error but gives
//! no guarantee on individual values — it is the baseline the paper's
//! max-error algorithms are compared against (CON/Send-V/Send-Coef/H-WTopk
//! all compute exactly this synopsis in parallel).

use dwmaxerr_wavelet::{ErrorTree, Synopsis, WaveletError};

/// Returns the indices of the `b` coefficients with the largest normalized
/// magnitude (ties broken by lower index, matching a deterministic
/// priority-queue implementation).
pub fn top_b_normalized(tree: &ErrorTree, b: usize) -> Vec<u32> {
    let n = tree.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &bb| {
        tree.normalized_abs(bb as usize)
            .total_cmp(&tree.normalized_abs(a as usize))
            .then(a.cmp(&bb))
    });
    order.truncate(b.min(n));
    order
}

/// Builds the conventional B-term synopsis of a coefficient array.
pub fn conventional_synopsis(coeffs: &[f64], b: usize) -> Result<Synopsis, WaveletError> {
    let tree = ErrorTree::from_coefficients(coeffs.to_vec())?;
    let idx = top_b_normalized(&tree, b);
    Synopsis::retain_indices(coeffs, &idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::metrics;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    #[test]
    fn retains_largest_normalized() {
        let w = forward(&PAPER_DATA).unwrap(); // [7,2,-4,-3,0,-13,-1,6]
        let tree = ErrorTree::from_coefficients(w.clone()).unwrap();
        // Normalized: [7, 2, 2.83, 2.12, 0, 6.5, 0.5, 3].
        let top3 = top_b_normalized(&tree, 3);
        assert_eq!(top3, vec![0, 5, 7]);
    }

    #[test]
    fn budget_zero_and_full() {
        let w = forward(&PAPER_DATA).unwrap();
        let s0 = conventional_synopsis(&w, 0).unwrap();
        assert_eq!(s0.size(), 0);
        let s8 = conventional_synopsis(&w, 8).unwrap();
        assert_eq!(s8.size(), 8);
        assert!(metrics::evaluate(&PAPER_DATA, &s8, 1.0).max_abs < 1e-9);
        // Over-budget clamps to n.
        let s99 = conventional_synopsis(&w, 99).unwrap();
        assert_eq!(s99.size(), 8);
    }

    #[test]
    fn l2_optimality_against_exhaustive_search() {
        // For every budget, the conventional synopsis must minimize L2 over
        // all possible index subsets (checked exhaustively for n = 8).
        let w = forward(&PAPER_DATA).unwrap();
        for b in 0..=8usize {
            let conv = conventional_synopsis(&w, b).unwrap();
            let conv_l2 = metrics::evaluate(&PAPER_DATA, &conv, 1.0).l2;
            for mask in 0u32..256 {
                if mask.count_ones() as usize != b {
                    continue;
                }
                let idx: Vec<u32> = (0..8).filter(|i| mask >> i & 1 == 1).collect();
                let syn = Synopsis::retain_indices(&w, &idx).unwrap();
                let l2 = metrics::evaluate(&PAPER_DATA, &syn, 1.0).l2;
                assert!(
                    conv_l2 <= l2 + 1e-9,
                    "b={b}: conventional {conv_l2} beaten by {idx:?} with {l2}"
                );
            }
        }
    }
}
