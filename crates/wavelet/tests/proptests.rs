//! Property-based tests for the wavelet substrate.

use dwmaxerr_wavelet::reconstruct::{range_sum, range_sum_synopsis};
use dwmaxerr_wavelet::transform::{forward, inverse};
use dwmaxerr_wavelet::tree::{Children, ErrorTree, TreeTopology};
use dwmaxerr_wavelet::{metrics, Synopsis};
use proptest::prelude::*;

/// Arbitrary power-of-two-sized data vector (lengths 1..=256).
fn pow2_data() -> impl Strategy<Value = Vec<f64>> {
    (0u32..=8).prop_flat_map(|k| {
        prop::collection::vec(-1_000.0..1_000.0f64, (1usize << k)..=(1usize << k))
    })
}

proptest! {
    #[test]
    fn forward_inverse_roundtrip(data in pow2_data()) {
        let w = forward(&data).unwrap();
        let rec = inverse(&w).unwrap();
        for (r, d) in rec.iter().zip(&data) {
            prop_assert!((r - d).abs() < 1e-6 * (1.0 + d.abs()));
        }
    }

    #[test]
    fn path_reconstruction_matches_inverse(data in pow2_data()) {
        let tree = ErrorTree::from_data(&data).unwrap();
        for (j, &d) in data.iter().enumerate() {
            prop_assert!((tree.reconstruct_value(j) - d).abs() < 1e-6 * (1.0 + d.abs()));
        }
    }

    #[test]
    fn range_sums_match_direct(data in pow2_data(), seed in any::<u64>()) {
        let w = forward(&data).unwrap();
        let n = data.len();
        let l = (seed as usize) % n;
        let h = l + (seed as usize / n.max(1)) % (n - l);
        let direct: f64 = data[l..=h].iter().sum();
        prop_assert!((range_sum(&w, l, h) - direct).abs() < 1e-5 * (1.0 + direct.abs()));
    }

    #[test]
    fn synopsis_point_matches_dense(data in pow2_data(), keep_mask in any::<u64>()) {
        let w = forward(&data).unwrap();
        let indices: Vec<u32> = (0..data.len() as u32)
            .filter(|i| keep_mask >> (i % 64) & 1 == 1)
            .collect();
        let syn = Synopsis::retain_indices(&w, &indices).unwrap();
        let dense = syn.reconstruct_all();
        for (j, &dj) in dense.iter().enumerate() {
            prop_assert!((syn.reconstruct_value(j) - dj).abs() < 1e-7);
        }
    }

    #[test]
    fn synopsis_range_sum_consistent(data in pow2_data(), keep_mask in any::<u64>()) {
        let w = forward(&data).unwrap();
        let indices: Vec<u32> = (0..data.len() as u32)
            .filter(|i| keep_mask >> (i % 64) & 1 == 1)
            .collect();
        let syn = Synopsis::retain_indices(&w, &indices).unwrap();
        let approx = syn.reconstruct_all();
        let n = data.len();
        let direct: f64 = approx[..n / 2 + 1].iter().sum();
        prop_assert!((range_sum_synopsis(&syn, 0, n / 2) - direct).abs() < 1e-5 * (1.0 + direct.abs()));
    }

    #[test]
    fn full_synopsis_has_zero_error(data in pow2_data()) {
        let w = forward(&data).unwrap();
        let all: Vec<u32> = (0..data.len() as u32).collect();
        let syn = Synopsis::retain_indices(&w, &all).unwrap();
        let report = metrics::evaluate(&data, &syn, 1.0);
        prop_assert!(report.max_abs < 1e-6);
        prop_assert!(report.l2 < 1e-6);
    }

    #[test]
    fn dropping_coefficients_never_helps_l2_below_subset(data in pow2_data()) {
        // The L2 error of the empty synopsis upper-bounds any synopsis that
        // retains the largest normalized coefficient (L2-optimality of the
        // conventional scheme, checked in the 1-coefficient case).
        let n = data.len();
        if n < 2 { return Ok(()); }
        let tree = ErrorTree::from_data(&data).unwrap();
        let best = (0..n)
            .max_by(|&a, &b| {
                tree.normalized_abs(a)
                    .partial_cmp(&tree.normalized_abs(b))
                    .unwrap()
            })
            .unwrap();
        let empty = Synopsis::empty(n).unwrap();
        let one = Synopsis::retain_indices(tree.coefficients(), &[best as u32]).unwrap();
        let e0 = metrics::evaluate(&data, &empty, 1.0).l2;
        let e1 = metrics::evaluate(&data, &one, 1.0).l2;
        prop_assert!(e1 <= e0 + 1e-9);
    }

    #[test]
    fn leaf_spans_partition_each_level(k in 1u32..=8) {
        let n = 1usize << k;
        let topo = TreeTopology::new(n).unwrap();
        for l in 0..k {
            let nodes = (1usize << l)..(1usize << (l + 1));
            let mut covered = vec![false; n];
            for i in nodes {
                for j in topo.leaf_span(i) {
                    prop_assert!(!covered[j], "level {l} overlaps at leaf {j}");
                    covered[j] = true;
                }
            }
            prop_assert!(covered.iter().all(|&c| c), "level {l} must cover all leaves");
        }
    }

    #[test]
    fn children_spans_partition_parent(k in 2u32..=8, node in 1usize..255) {
        let n = 1usize << k;
        let topo = TreeTopology::new(n).unwrap();
        let i = 1 + node % (n - 1);
        match topo.children(i) {
            Children::Coefficients(l, r) => {
                prop_assert_eq!(topo.leaf_span(l), topo.left_span(i));
                prop_assert_eq!(topo.leaf_span(r), topo.right_span(i));
            }
            Children::Leaves(a, _) => {
                prop_assert_eq!(topo.leaf_span(i), a..a + 2);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}

/// A synopsis over `n` values whose coefficients are drawn, per node, from
/// the values an accumulator can tell apart: `-0.0`, `0.0`, subnormals,
/// whole numbers and reals of either sign. `density` of 4 keeps every node
/// (`B = N`), 0 none.
fn synopsis_of(n: usize, density: u64, seed: u64) -> Synopsis {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let entries = (0..n as u32)
        .filter_map(|i| {
            let (keep, kind, bits) = (next() % 4 < density, next() % 8, next());
            let real = (bits >> 11) as f64 / (1u64 << 53) as f64 * 2_000.0 - 1_000.0;
            let value = match kind {
                0 => -0.0,
                1 => 0.0,
                2 => f64::MIN_POSITIVE / 4.0 * real.signum(),
                3 => real.round(),
                _ => real,
            };
            keep.then_some((i, value))
        })
        .collect();
    Synopsis::from_entries(n, entries).unwrap()
}

/// Every dyadic block of every size, against the per-value path sum.
fn assert_blocks_match_values(syn: &Synopsis) {
    let n = syn.data_len();
    let want: Vec<u64> = (0..n).map(|j| syn.reconstruct_value(j).to_bits()).collect();
    for len in (0..=n.trailing_zeros()).map(|k| 1usize << k) {
        for start in (0..n).step_by(len) {
            let got: Vec<u64> = syn
                .reconstruct_block(start, len)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, want[start..start + len], "block {start}+{len} of {n}");
        }
    }
}

#[test]
fn block_reconstruction_starts_its_sums_where_the_path_sum_does() {
    // Leaf 0 adds c_2, c_1, c_0 — all `-0.0` here, so its value is the
    // sign of the accumulator's start, which `Iterator::sum` does not take
    // from `+0.0`; leaf 3 adds `-(-0.0)` terms and an absent `c_3`.
    let syn = Synopsis::from_entries(4, vec![(0, -0.0), (1, -0.0), (2, -0.0)]).unwrap();
    assert_blocks_match_values(&syn);
    assert_blocks_match_values(&Synopsis::empty(1).unwrap());
    assert_blocks_match_values(&Synopsis::empty(8).unwrap());
    assert_blocks_match_values(&Synopsis::from_entries(1, vec![(0, -0.0)]).unwrap());
}

#[test]
#[should_panic(expected = "not a dyadic block")]
fn block_reconstruction_refuses_a_misaligned_block() {
    Synopsis::empty(8).unwrap().reconstruct_block(2, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_reconstruction_is_bit_identical_to_the_path_sum(
        k in 0usize..4,
        density in 0u64..=4,
        seed in any::<u64>(),
    ) {
        assert_blocks_match_values(&synopsis_of([1, 2, 8, 1024][k], density, seed));
    }
}
