//! Kernel-level pins for the MinHaarSpace row recurrence, independent of
//! any distributed driver: every cell of every row `subtree_rows` builds —
//! window, cost, and the tie-broken choice the chooser names for it — on
//! the input shapes the drivers feed it, and `subtree_root` against
//! `subtree_rows`' root row, errors included.

use dwmaxerr_algos::min_haar_space::{
    subtree_root, subtree_rows, MhsError, MhsParams, Row, RowArena,
};
use dwmaxerr_datagen::{uniform, wd_like};
use proptest::prelude::*;

/// FNV-1a over `(lo, costs, choices)` of every row, in heap order; each
/// row's choices are the arena chooser's, cell by cell.
fn rows_digest(rows: &RowArena, data: &[f64], p: &MhsParams) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 1..rows.leaves() {
        let (lo, costs) = rows.costs(i);
        write(&lo.to_le_bytes());
        write(&(costs.len() as u64).to_le_bytes());
        for c in costs {
            write(&c.to_le_bytes());
        }
        for v in lo..lo + costs.len() as i64 {
            let z = rows.choose(i, v, data, p).expect("the rows' own data");
            write(&z.to_le_bytes());
        }
    }
    h
}

/// The four input shapes, 512 values each (shorter inputs are prefixes).
fn shapes() -> [(&'static str, Vec<f64>); 4] {
    let n = 512;
    [
        // Whole numbers in [0, 56]: what `build-dp` feeds DIndirectHaar.
        (
            "uniform-ints",
            uniform(n, 56.0, 17)
                .into_iter()
                .map(f64::round)
                .collect::<Vec<f64>>(),
        ),
        // The smooth WD surrogate, scaled off the grid.
        (
            "wd-like",
            wd_like(n, 4e-3, 5).into_iter().map(|x| x / 7.0).collect(),
        ),
        ("all-equal", vec![13.0; n]),
        // Two values, the rare one far away: leaf windows that do not
        // overlap, so the closed form's cost-1 branch and wide `z`.
        (
            "spikes",
            (0..n)
                .map(|i| if i % 37 == 5 { 90.5 } else { 2.0 })
                .collect(),
        ),
    ]
}

const LEAVES: [usize; 3] = [2, 64, 512];

const PARAMS: [(f64, f64); 5] = [(0.0, 1.0), (3.3, 1.0), (25.0, 1.0), (7.0, 3.0), (12.5, 0.5)];

/// Stands in for the digest where the grid has no point in some window
/// (`DeltaTooCoarse`).
const TOO_COARSE: u64 = 0;

/// `GOLDENS[shape][leaves][params]`, captured from the per-cell scan kernel
/// (`combine` + `trim`) this file was written against.
const GOLDENS: [[[u64; 5]; 3]; 4] = [
    // uniform-ints
    [
        [
            0xd2bb_8c11_0f11_655f,
            0x9ff5_1bac_a11c_0799,
            0xa722_caef_b905_56b3,
            0xb6f4_70a6_46f1_ab2a,
            0x7c46_1ae3_e837_4995,
        ],
        [
            TOO_COARSE,
            0x1d12_c665_e8c4_1d73,
            0xf26a_eba1_4a91_8bf4,
            0x172c_e819_54bd_2aca,
            0x4060_5659_42d1_54e5,
        ],
        [
            TOO_COARSE,
            0x6e95_6f4d_2e08_3133,
            0x6306_a45d_4f22_d86b,
            TOO_COARSE,
            0x477c_cd02_fcec_0e9d,
        ],
    ],
    // wd-like
    [
        [
            TOO_COARSE,
            0x0fd8_75e2_fb2d_6466,
            0xc643_4935_1279_d77c,
            0xdd33_c694_fd66_f3a0,
            0x1a21_c4cc_44a2_8c76,
        ],
        [
            TOO_COARSE,
            0xf6fb_3924_b647_2b52,
            0x091a_38b8_68ea_1dce,
            0x5cf3_0430_bae9_aeea,
            0x3a8e_d2cf_d9de_e05d,
        ],
        [
            TOO_COARSE,
            0xb908_d597_7618_50eb,
            0x117e_67b9_ae65_7269,
            TOO_COARSE,
            0x01c0_7f4f_b765_0332,
        ],
    ],
    // all-equal
    [
        [
            0x44c7_5152_4b8e_fa69,
            0xb787_3bb0_1538_2708,
            0x2eb5_1faf_c800_79d5,
            0x52f1_5a35_6372_3f82,
            0x5d7d_247e_47fd_8517,
        ],
        [
            0x3714_fa28_2c60_3d69,
            0x0ff5_34f0_e67b_d1e8,
            0x4efc_6079_eb01_c655,
            0x5f13_6287_f94e_1762,
            0x60b2_057a_6eb4_03d7,
        ],
        [
            0x05c3_149c_846d_9d69,
            0x28ca_430f_ac3a_4de8,
            0x5f6a_46ba_27bd_f655,
            0x561b_708f_c22c_3362,
            0x7a44_476e_12c9_1bd7,
        ],
    ],
    // spikes
    [
        [
            0x8023_7c86_67fa_df86,
            0x70e0_da75_e84f_423a,
            0xa12b_c664_e43f_0e38,
            0xf164_717a_3fab_f238,
            0xef7a_d0d1_9f66_4efa,
        ],
        [
            TOO_COARSE,
            0x5592_2127_551c_3b29,
            0xe2f5_b38c_2ced_9b97,
            0x6262_3d63_f0b9_ce41,
            0x8b5b_47dc_dab2_3e04,
        ],
        [
            TOO_COARSE,
            0xb4fb_48ee_834d_8aba,
            0x99b1_2f7d_ad62_598e,
            0x0703_e3dc_289d_a580,
            0x5b4e_aa88_9a92_e43f,
        ],
    ],
];

#[test]
fn subtree_rows_are_golden() {
    let mut got = [[[TOO_COARSE; 5]; 3]; 4];
    for (s, (_, data)) in shapes().iter().enumerate() {
        for (l, &leaves) in LEAVES.iter().enumerate() {
            for (k, &(eps, delta)) in PARAMS.iter().enumerate() {
                let p = MhsParams::new(eps, delta).unwrap();
                let data = &data[..leaves];
                got[s][l][k] = match subtree_rows(data, &p) {
                    Ok(rows) => {
                        assert_eq!(rows.leaves(), leaves);
                        rows_digest(&rows, data, &p)
                    }
                    Err(MhsError::DeltaTooCoarse) => TOO_COARSE,
                    Err(e) => panic!("unexpected error: {e}"),
                };
            }
        }
    }
    if got != GOLDENS {
        for ((name, _), shape) in shapes().iter().zip(&got) {
            println!("// {name}\n{shape:#x?},");
        }
    }
    assert_eq!(got, GOLDENS);
}

#[test]
fn off_grid_data_is_too_coarse_at_every_size() {
    // ε = 0.4 under δ = 1: a datum at x.45 has no grid point within ε.
    let p = MhsParams::new(0.4, 1.0).unwrap();
    for leaves in LEAVES {
        let data: Vec<f64> = (0..leaves).map(|i| (i % 9) as f64 + 0.45).collect();
        assert_eq!(subtree_rows(&data, &p), Err(MhsError::DeltaTooCoarse));
    }
}

/// What `subtree_root` must return: the root row of all the rows, or the
/// error that building them hits.
fn root_of_all_rows(data: &[f64], p: &MhsParams) -> Result<Row, MhsError> {
    subtree_rows(data, p).map(|rows| {
        let (lo, costs) = rows.costs(1);
        Row {
            lo,
            costs: costs.to_vec(),
        }
    })
}

#[test]
fn subtree_root_is_the_root_of_subtree_rows_on_every_shape() {
    for (name, data) in shapes() {
        for leaves in [2, 4, 64, 512] {
            // The prefix the goldens pin and the slice at the other end.
            for slice in [&data[..leaves], &data[data.len() - leaves..]] {
                for (eps, delta) in PARAMS {
                    let p = MhsParams::new(eps, delta).unwrap();
                    assert_eq!(
                        subtree_root(slice, &p),
                        root_of_all_rows(slice, &p),
                        "{name} leaves={leaves} eps={eps} delta={delta}"
                    );
                }
            }
        }
    }
}

#[test]
fn subtree_root_fails_as_subtree_rows_does() {
    // Under ε = 0.4, δ = 1 a datum at x.45 is too coarse and NaN is off the
    // grid. `subtree_rows` solves all leaf pairs, right to left, before it
    // combines any, so the right-most bad pair names the error — and the
    // left leaf of a pair before the right one.
    let p = MhsParams::new(0.4, 1.0).unwrap();
    let (nan, coarse) = (f64::NAN, 3.45);
    for (data, want) in [
        (vec![nan, 1.0, 2.0, coarse], MhsError::DeltaTooCoarse),
        (vec![coarse, 1.0, 2.0, nan], MhsError::OffGrid),
        (vec![1.0, 2.0, nan, coarse], MhsError::OffGrid),
        (vec![1.0, 2.0, coarse, nan], MhsError::DeltaTooCoarse),
        (vec![nan, coarse], MhsError::OffGrid),
        (vec![coarse, nan], MhsError::DeltaTooCoarse),
        // A pair of good leaves with no common parent cell, left of an
        // off-grid leaf and right of one.
        (vec![0.0, 1.0, nan, 1.0], MhsError::OffGrid),
        (vec![nan, 1.0, 0.0, 1.0], MhsError::DeltaTooCoarse),
        (vec![0.0, 1.0], MhsError::DeltaTooCoarse),
        // Every leaf pair has a row (cells 1 and 2); their parent has none.
        (vec![0.0, 2.0, 1.0, 3.0], MhsError::DeltaTooCoarse),
        // ... and a leaf pair further left that the walk meets first.
        (
            vec![nan, 0.0, 5.0, 5.0, 0.0, 2.0, 1.0, 3.0],
            MhsError::OffGrid,
        ),
    ] {
        assert_eq!(root_of_all_rows(&data, &p), Err(want.clone()), "{data:?}");
        assert_eq!(subtree_root(&data, &p), Err(want), "{data:?}");
    }
    for shape in [vec![], vec![1.0], vec![1.0; 3], vec![1.0; 6]] {
        assert_eq!(
            subtree_root(&shape, &p).err(),
            subtree_rows(&shape, &p).err(),
            "{shape:?}"
        );
        assert!(subtree_root(&shape, &p).is_err(), "{shape:?}");
    }
}

/// A leaf: mostly small whole numbers (rows that tie), some reals, and —
/// rarely — the two kinds of leaf a grid cannot serve.
fn leaf() -> impl Strategy<Value = f64> {
    (0u32..200, -20.0..60.0f64).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => 1e12,
        2..=5 => x.round() + 0.45,
        6..=40 => x,
        _ => x.round(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn subtree_root_is_the_root_of_subtree_rows(
        log_m in 1u32..=6,
        pool in prop::collection::vec(leaf(), 64..=64usize),
        params in 0usize..7,
    ) {
        let (eps, delta) =
            [(0.0, 1.0), (0.4, 1.0), (3.3, 1.0), (25.0, 1.0), (7.0, 3.0), (12.5, 0.5), (40.0, 1.0)][params];
        let p = MhsParams::new(eps, delta).unwrap();
        let data = &pool[..1 << log_m];
        prop_assert_eq!(subtree_root(data, &p), root_of_all_rows(data, &p));
    }
}
