//! Haar wavelet basis-vector view of the transform (Appendix A.3).
//!
//! Every coefficient is a linear combination of the data values in its
//! subtree: `c_i = sum_j contribution(i, j) * d_j`. Streaming-style
//! algorithms such as Send-Coef exploit this to compute coefficients from
//! unaligned data partitions, since
//! `c_i = <A, psi_i> = sum_p <A_p, psi_i>` over any partitioning of `A`.

use std::collections::BTreeMap;
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
/// in `j` order, for every `c_i` on some datapoint's path — by ascending
/// index: one H-WTopk mapper, Algorithm 7 folded per coefficient.
pub fn partial_coefficients(n: usize, lo: usize, data: &[f64]) -> Vec<(usize, f64)> {
    let mut acc = BTreeMap::new();
    algorithm7(n, lo, data, |i, c| *acc.entry(i).or_insert(0.0) += c);
    acc.into_iter().collect()
}

/// Streams the emissions of one Send-Coef mapper exactly as in Algorithm 7:
/// each coefficient whose subtree lies fully inside the block once, fully
/// computed (its contributions added to `0.0` in `j` order), by ascending
/// index; then every boundary-crossing coefficient as one partial
/// contribution **per datapoint**, bottom-up within a datapoint — the
/// behaviour that makes Send-Coef's communication `O(S (log N - log S))`.
pub fn algorithm7(n: usize, lo: usize, data: &[f64], mut emit: impl FnMut(usize, f64)) {
    let topo = TreeTopology::new(n).expect("power-of-two total size");
    let (levels, hi) = (topo.levels(), lo + data.len());
    // `1/w` by level; exact, `w` being a power of two.
    let inv: Vec<f64> = (0..=levels).map(|l| 1.0 / (n >> l) as f64).collect();
    let inside = |span: Range<usize>| lo <= span.start && span.end <= hi;
    let add = |acc: f64, span: Range<usize>, c: f64| {
        let part = &data[span.start - lo..span.end - lo];
        part.iter().fold(acc, |acc, &d| acc + c * d)
    };
    // At width `w` the nodes inside the block are one contiguous range.
    let nodes = |l: u32| (1 << l) + lo.div_ceil(n >> l)..(1 << l) + hi / (n >> l);
    let root = inside(0..n).then_some(0);
    for i in root.into_iter().chain((0..levels).flat_map(nodes)) {
        let c = inv[topo.level(i) as usize];
        let left = add(0.0, topo.left_span(i), c);
        emit(i, add(left, topo.right_span(i), -c));
    }
    for (off, &d) in data.iter().enumerate() {
        // Containment is monotone down a path: the inside nodes lead it.
        let path = topo.path_of_leaf(lo + off);
        for (i, sign) in path.skip_while(|&(i, _)| inside(topo.leaf_span(i))) {
            emit(i, f64::from(sign) * inv[topo.level(i) as usize] * d);
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

    /// `sum_j contribution(i, j) * d_j` over the block's part of `c_i`'s
    /// span, added to `0.0` in `j` order — the definition, node by node.
    fn definition_sum(topo: &TreeTopology, i: usize, lo: usize, data: &[f64]) -> f64 {
        let span = topo.leaf_span(i);
        let js = span.start.max(lo)..span.end.min(lo + data.len());
        js.fold(0.0, |acc, j| acc + contribution(topo, i, j) * data[j - lo])
    }

    /// Algorithm 7 and the per-coefficient partials written from the
    /// definition: which nodes, in which order, each sum in `j` order.
    fn definition(n: usize, lo: usize, data: &[f64]) -> [Vec<(usize, f64)>; 2] {
        let topo = TreeTopology::new(n).unwrap();
        let hi = lo + data.len();
        let inside = |i: usize| lo <= topo.leaf_span(i).start && topo.leaf_span(i).end <= hi;
        let touches = |i: usize| topo.leaf_span(i).start < hi && lo < topo.leaf_span(i).end;
        let sum = |i: usize| (i, definition_sum(&topo, i, lo, data));
        let mut emitted: Vec<(usize, f64)> = (0..n).filter(|&i| inside(i)).map(sum).collect();
        for (off, &d) in data.iter().enumerate() {
            let j = lo + off;
            let boundary = topo.path_of_leaf(j).filter(|&(i, _)| !inside(i));
            emitted.extend(boundary.map(|(i, _)| (i, contribution(&topo, i, j) * d)));
        }
        [emitted, (0..n).filter(|&i| touches(i)).map(sum).collect()]
    }

    fn bits(pairs: &[(usize, f64)]) -> Vec<(usize, u64)> {
        pairs.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    #[test]
    fn walker_matches_the_definition_bit_for_bit_and_in_order() {
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
            let array: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1e6..1e6),
                })
                .collect();
            for (lo, hi) in blocks {
                let block = &array[lo..hi];
                let [emitted, partials] = definition(n, lo, block);
                assert_eq!(
                    bits(&emissions(n, lo, block)),
                    bits(&emitted),
                    "algorithm7 n={n} [{lo}, {hi})"
                );
                assert_eq!(
                    bits(&partial_coefficients(n, lo, block)),
                    bits(&partials),
                    "partial_coefficients n={n} [{lo}, {hi})"
                );
            }
        }
        assert!(emissions(8, 3, &[]).is_empty());
        assert!(partial_coefficients(8, 3, &[]).is_empty());
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
