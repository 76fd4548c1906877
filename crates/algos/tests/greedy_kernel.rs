//! Kernel-level pins for the greedy engines: the exact removal sequence of
//! GreedyAbs on a seeded series, independent of any distributed driver.

use dwmaxerr_algos::greedy_abs::{GreedyAbs, Removal};
use dwmaxerr_wavelet::transform::forward;

/// A seeded integer-valued random walk with occasional jumps: integer data
/// makes dyadic coefficients, so many `MA` keys tie exactly and the id
/// tie-break is exercised as hard as the key order.
fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut level = 100i64;
    (0..n)
        .map(|_| {
            let r = next();
            level += (r % 7) as i64 - 3;
            if (r >> 32) & 0x3f == 0 {
                level += ((r >> 40) % 400) as i64 - 200;
            }
            level as f64
        })
        .collect()
}

/// FNV-1a over every `(node, error_after.to_bits())` of a removal trace.
fn trace_digest(trace: &[Removal]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in trace {
        write(&r.node.to_le_bytes());
        write(&r.error_after.to_bits().to_le_bytes());
    }
    h
}

/// `(leaves, incoming error, digest)` of `run_to_empty` in sub-tree mode,
/// captured from the indexed-heap kernel this file was written against.
const SUBTREE_GOLDENS: &[(usize, f64, u64)] = &[
    (4096, 0.0, 0x3190_1409_90f0_3c4f),
    (4096, 3.5, 0xfabe_0925_f551_a3b6),
    (4096, -17.25, 0x7d32_f5a1_27c6_55ab),
    (4096, 60.0, 0x8791_2c43_7468_d9a9),
    (1024, 0.0, 0x8416_f68f_4c02_9fce),
    (1024, 3.5, 0xebbf_f4be_64c6_45ee),
    (1024, -17.25, 0x6043_d155_4f52_1f82),
    (1024, 60.0, 0xbaa0_d25b_e0ca_0048),
];

/// Digest of `run_to_empty` in full-tree mode over `2^14` values.
const FULL_GOLDEN: u64 = 0xb082_f406_2278_ef53;

#[test]
fn subtree_removal_sequences_are_golden() {
    let data = series(4096, 17);
    let got: Vec<u64> = SUBTREE_GOLDENS
        .iter()
        .map(|&(leaves, incoming, _)| {
            let details = &forward(&data[..leaves]).unwrap()[1..];
            let trace = GreedyAbs::new_subtree(details, incoming)
                .unwrap()
                .run_to_empty();
            assert_eq!(trace.len(), leaves - 1);
            trace_digest(&trace)
        })
        .collect();
    let want: Vec<u64> = SUBTREE_GOLDENS.iter().map(|g| g.2).collect();
    assert!(got == want, "removal sequences moved: {got:#018x?}");
}

#[test]
fn full_tree_removal_sequence_is_golden() {
    let coeffs = forward(&series(1 << 14, 23)).unwrap();
    let trace = GreedyAbs::new_full(&coeffs).unwrap().run_to_empty();
    assert_eq!(trace.len(), 1 << 14);
    assert_eq!(
        trace_digest(&trace),
        FULL_GOLDEN,
        "{:#018x}",
        trace_digest(&trace)
    );
}
