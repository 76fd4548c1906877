//! Haar wavelet basis-vector view of the transform (Appendix A.3).
//!
//! Every coefficient is a linear combination of the data values in its
//! subtree: `c_i = sum_j contribution(i, j) * d_j`. Streaming-style
//! algorithms such as Send-Coef exploit this to compute coefficients from
//! unaligned data partitions, since
//! `c_i = <A, psi_i> = sum_p <A_p, psi_i>` over any partitioning of `A`.

use std::ops::Range;

use crate::tree::TreeTopology;

/// The factor with which data value `d_j` enters coefficient `c_i` under
/// the paper's unnormalized Haar convention. Zero when `d_j` is outside the
/// subtree of `c_i`.
///
/// For `c_0` the factor is `1/N`; for a detail coefficient covering `w`
/// leaves it is `+1/w` on the left half and `-1/w` on the right half.
#[inline]
pub fn contribution(topo: &TreeTopology, i: usize, j: usize) -> f64 {
    let sign = topo.sign(i, j);
    if sign == 0 {
        return 0.0;
    }
    let width = if i == 0 {
        topo.len()
    } else {
        topo.len() >> topo.level(i)
    };
    f64::from(sign) / width as f64
}

/// The partial coefficients of the block `data[lo..lo + data.len()]` of an
/// `n`-value array — `sum_j contribution(i, j) * d_j` over the block, added
/// to `0.0` in `j` order, for every `c_i` on some datapoint's path — by
/// ascending index: one H-WTopk mapper, Algorithm 7 folded per coefficient.
/// [`algorithm7`] emits keys ascending, so the fold is one pass over runs
/// of equal keys.
pub fn partial_coefficients(n: usize, lo: usize, data: &[f64]) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = Vec::new();
    algorithm7(n, lo, data, |i, c| match out.last_mut() {
        Some((last, acc)) if *last == i => *acc += c,
        // `0.0 +`, so that a lone `-0.0` partial folds to `0.0`.
        _ => out.push((i, 0.0 + c)),
    });
    out
}

/// Streams the emissions of one Send-Coef mapper (Algorithm 7) by
/// ascending node: `c_0`, then level by level every coefficient whose
/// subtree the block touches. A coefficient whose subtree lies fully inside
/// the block is emitted once, complete (its contributions added to `0.0` in
/// `j` order); a boundary-crossing one as one partial contribution **per
/// covered datapoint**, in `j` order — the behaviour that makes Send-Coef's
/// communication `O(S (log N - log S))`.
///
/// The contract is "keys ascending; per key, `j` order". Each key's value
/// sequence is the one a datapoint-major walk of the paths produces, so a
/// reducer summing a key's values in emission order adds the same `f64`s
/// in the same order either way — and a mapper's output reaches the spill
/// sort already sorted.
pub fn algorithm7(n: usize, lo: usize, data: &[f64], mut emit: impl FnMut(usize, f64)) {
    let topo = TreeTopology::new(n).expect("power-of-two total size");
    if data.is_empty() {
        return;
    }
    let hi = lo + data.len();
    // `1/w` by level; exact, `w` being a power of two.
    let inv: Vec<f64> = (0..=topo.levels()).map(|l| 1.0 / (n >> l) as f64).collect();
    // The block's values in `span`.
    let part =
        |span: Range<usize>| &data[span.start.clamp(lo, hi) - lo..span.end.clamp(lo, hi) - lo];
    // At width `w` the nodes the block touches are one contiguous range.
    let touched = (0..topo.levels()).flat_map(|l| {
        let w = n >> l;
        (lo / w..hi.div_ceil(w)).map(move |k| (1 << l) + k)
    });
    for i in std::iter::once(0).chain(touched) {
        let c = inv[topo.level(i) as usize];
        let (left, right) = (part(topo.left_span(i)), part(topo.right_span(i)));
        let span = topo.leaf_span(i);
        if lo <= span.start && span.end <= hi {
            let sum = left.iter().fold(0.0, |acc, &d| acc + c * d);
            emit(i, right.iter().fold(sum, |acc, &d| acc + -c * d));
        } else {
            left.iter().for_each(|&d| emit(i, c * d));
            right.iter().for_each(|&d| emit(i, -c * d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::forward;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn emissions(n: usize, lo: usize, data: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        algorithm7(n, lo, data, |i, v| out.push((i, v)));
        out
    }

    /// A value for a block: often `±0.0`, otherwise wide.
    fn value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1e6..1e6),
        }
    }

    /// The block's part of `c_i`'s span: the `j` that enter `c_i`.
    fn covered(topo: &TreeTopology, i: usize, lo: usize, hi: usize) -> Range<usize> {
        let span = topo.leaf_span(i);
        span.start.max(lo)..span.end.min(hi)
    }

    fn inside(topo: &TreeTopology, i: usize, lo: usize, hi: usize) -> bool {
        covered(topo, i, lo, hi) == topo.leaf_span(i)
    }

    /// `sum_j contribution(i, j) * d_j` over the block's part of `c_i`'s
    /// span, added to `0.0` in `j` order — the definition, node by node.
    fn definition_sum(topo: &TreeTopology, i: usize, lo: usize, data: &[f64]) -> f64 {
        let js = covered(topo, i, lo, lo + data.len());
        js.fold(0.0, |acc, j| acc + contribution(topo, i, j) * data[j - lo])
    }

    /// Algorithm 7 from the definition, in the walker's order: every node
    /// whose span the block touches, ascending; a node inside the block
    /// once, its sum; a boundary node as `contribution(i, j) * d_j` for
    /// each covered `j`, in `j` order.
    fn definition(n: usize, lo: usize, data: &[f64]) -> Vec<(usize, f64)> {
        let topo = TreeTopology::new(n).unwrap();
        let hi = lo + data.len();
        let mut out = Vec::new();
        for i in (0..n).filter(|&i| !covered(&topo, i, lo, hi).is_empty()) {
            if inside(&topo, i, lo, hi) {
                out.push((i, definition_sum(&topo, i, lo, data)));
            } else {
                let js = covered(&topo, i, lo, hi);
                out.extend(js.map(|j| (i, contribution(&topo, i, j) * data[j - lo])));
            }
        }
        out
    }

    /// The same records datapoint-major, as the paper's pseudocode walks
    /// them: the inside nodes, then each datapoint's boundary nodes
    /// bottom-up. A reducer adds each key's values in this order, so this
    /// is the order the walker must keep per key.
    fn datapoint_major(n: usize, lo: usize, data: &[f64]) -> Vec<(usize, f64)> {
        let topo = TreeTopology::new(n).unwrap();
        let hi = lo + data.len();
        let mut out: Vec<(usize, f64)> = (0..n)
            .filter(|&i| inside(&topo, i, lo, hi))
            .map(|i| (i, definition_sum(&topo, i, lo, data)))
            .collect();
        for (off, &d) in data.iter().enumerate() {
            let j = lo + off;
            let boundary = topo
                .path_of_leaf(j)
                .filter(|&(i, _)| !inside(&topo, i, lo, hi));
            out.extend(boundary.map(|(i, _)| (i, contribution(&topo, i, j) * d)));
        }
        out
    }

    /// `partial_coefficients` from the definition: every touched node's
    /// sum, ascending.
    fn partials(n: usize, lo: usize, data: &[f64]) -> Vec<(usize, f64)> {
        let topo = TreeTopology::new(n).unwrap();
        let hi = lo + data.len();
        (0..n)
            .filter(|&i| !covered(&topo, i, lo, hi).is_empty())
            .map(|i| (i, definition_sum(&topo, i, lo, data)))
            .collect()
    }

    fn bits(pairs: &[(usize, f64)]) -> Vec<(usize, u64)> {
        pairs.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    #[test]
    fn walker_emits_by_node_then_j_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xa7);
        for n in [1usize, 8, 64, 1024, 1 << 14] {
            // The whole array (c_0 contained), one value, a block holding no
            // complete sub-tree, then random unaligned blocks.
            let mut blocks = vec![(0, n), (n / 2, n / 2 + 1), (n - 1, n)];
            if n >= 8 {
                blocks.extend([(1, 3), (n / 2 - 1, n / 2 + 1), (3, n - 3)]);
            }
            for _ in 0..if n > 1024 { 3 } else { 24 } {
                let lo = rng.gen_range(0..n);
                blocks.push((lo, rng.gen_range(lo + 1..=n)));
            }
            let array: Vec<f64> = (0..n).map(|_| value(&mut rng)).collect();
            for (lo, hi) in blocks {
                let block = &array[lo..hi];
                assert_eq!(
                    bits(&emissions(n, lo, block)),
                    bits(&definition(n, lo, block)),
                    "algorithm7 n={n} [{lo}, {hi})"
                );
                assert_eq!(
                    bits(&partial_coefficients(n, lo, block)),
                    bits(&partials(n, lo, block)),
                    "partial_coefficients n={n} [{lo}, {hi})"
                );
            }
        }
        assert!(emissions(8, 3, &[]).is_empty());
        assert!(partial_coefficients(8, 3, &[]).is_empty());
        // A boundary node that receives only `-0.0` partials folds to `0.0`.
        assert_eq!(emissions(8, 2, &[-0.0])[0].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(partial_coefficients(8, 2, &[-0.0])[0].1.to_bits(), 0);
    }

    // Over random blocks, aligned and unaligned: keys never descend, and
    // each key's values are the datapoint-major walk's, bit for bit and in
    // order — the stable sort of that walk by key.
    proptest::proptest! {
        #[test]
        fn keys_ascend_and_each_keys_values_are_the_datapoint_major_walks(
            log_n in 0u32..=10,
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
            aligned in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = 1usize << log_n;
            let (lo, hi) = if aligned {
                let w = 1usize << (a % u64::from(log_n + 1));
                let lo = (b as usize % (n / w)) * w;
                (lo, lo + w)
            } else {
                let lo = a as usize % n;
                (lo, lo + 1 + b as usize % (n - lo))
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let block: Vec<f64> = (lo..hi).map(|_| value(&mut rng)).collect();
            let got = emissions(n, lo, &block);
            proptest::prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            let mut want = datapoint_major(n, lo, &block);
            want.sort_by_key(|&(i, _)| i);
            proptest::prop_assert_eq!(bits(&got), bits(&want), "n={} [{}, {})", n, lo, hi);
            proptest::prop_assert_eq!(
                bits(&partial_coefficients(n, lo, &block)),
                bits(&partials(n, lo, &block))
            );
        }
    }

    #[test]
    fn contributions_reproduce_coefficients() {
        let topo = TreeTopology::new(8).unwrap();
        let w = forward(&PAPER_DATA).unwrap();
        for (i, &wi) in w.iter().enumerate() {
            let c: f64 = PAPER_DATA
                .iter()
                .enumerate()
                .map(|(j, &d)| contribution(&topo, i, j) * d)
                .sum();
            assert!((c - wi).abs() < 1e-12, "coefficient {i}");
        }
    }

    #[test]
    fn partial_coefficients_sum_to_full_transform() {
        let w = forward(&PAPER_DATA).unwrap();
        // Unaligned partitioning: |A_0| = 3, |A_1| = 5 — Send-Coef does not
        // require power-of-two splits.
        let p0 = partial_coefficients(8, 0, &PAPER_DATA[..3]);
        let p1 = partial_coefficients(8, 3, &PAPER_DATA[3..]);
        let mut acc = [0.0; 8];
        for (i, v) in p0.into_iter().chain(p1) {
            acc[i] += v;
        }
        for i in 0..8 {
            assert!((acc[i] - w[i]).abs() < 1e-12, "coefficient {i}");
        }
    }

    #[test]
    fn algorithm7_sums_to_full_transform() {
        let w = forward(&PAPER_DATA).unwrap();
        let mut acc = [0.0; 8];
        let mut emitted = 0;
        for (lo, hi) in [(0usize, 3usize), (3, 8)] {
            for (i, v) in emissions(8, lo, &PAPER_DATA[lo..hi]) {
                acc[i] += v;
                emitted += 1;
            }
        }
        for i in 0..8 {
            assert!((acc[i] - w[i]).abs() < 1e-12, "coefficient {i}");
        }
        // Boundary coefficients are emitted per datapoint: strictly more
        // records than the aggregated form.
        assert!(emitted > 8, "only {emitted} emissions");
    }

    #[test]
    fn contribution_is_zero_outside_subtree() {
        let topo = TreeTopology::new(8).unwrap();
        assert_eq!(contribution(&topo, 4, 5), 0.0);
        assert_eq!(contribution(&topo, 7, 0), 0.0);
    }

    #[test]
    fn contribution_magnitudes() {
        let topo = TreeTopology::new(8).unwrap();
        assert!((contribution(&topo, 0, 3) - 0.125).abs() < 1e-15);
        assert!((contribution(&topo, 1, 0) - 0.125).abs() < 1e-15);
        assert!((contribution(&topo, 1, 7) + 0.125).abs() < 1e-15);
        assert!((contribution(&topo, 4, 0) - 0.5).abs() < 1e-15);
        assert!((contribution(&topo, 4, 1) + 0.5).abs() < 1e-15);
    }
}
