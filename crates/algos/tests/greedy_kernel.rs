//! Kernel-level pins for the greedy engines, independent of any distributed
//! driver: the exact removal sequence of GreedyAbs on a seeded series, an
//! arg-min oracle that recomputes every `MA` / `MR` from per-leaf errors
//! after each step, and the engines' rows of the input-edge table.

use dwmaxerr_algos::greedy_abs::{greedy_abs_synopsis, GreedyAbs, Removal};
use dwmaxerr_algos::greedy_rel::{greedy_rel_synopsis, GreedyRel};
use dwmaxerr_wavelet::transform::forward;
use proptest::prelude::*;

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

/// A greedy run with nothing incremental: per-leaf signed errors, per-leaf
/// denominators (all 1 for the absolute metric) and the retained set, from
/// which every key is recomputed by Eq. 7 / Eq. 10 as written.
struct Oracle {
    /// `coeff[0]` is the average, retained in full-tree mode only.
    coeff: Vec<f64>,
    err: Vec<f64>,
    denom: Vec<f64>,
    retained: Vec<bool>,
}

impl Oracle {
    fn new(coeff: &[f64], full: bool, incoming: f64, denom: Vec<f64>) -> Self {
        let mut retained = vec![true; coeff.len()];
        retained[0] = full;
        Oracle {
            coeff: coeff.to_vec(),
            err: vec![incoming; coeff.len()],
            denom,
            retained,
        }
    }

    /// Leaves `[start, mid)` shift by `-c_k` and `[mid, end)` by `+c_k` when
    /// node `k` goes; the average shifts every leaf by `-c_0`.
    fn sides(&self, k: usize) -> (usize, usize, usize) {
        let m = self.err.len();
        if k == 0 {
            return (0, m, m);
        }
        let width = m >> k.ilog2();
        let start = (k - (1 << k.ilog2())) * width;
        (start, start + width / 2, start + width)
    }

    fn worst(&self, leaves: std::ops::Range<usize>, shift: f64) -> f64 {
        leaves
            .map(|j| (self.err[j] + shift).abs() / self.denom[j])
            .fold(0.0, f64::max)
    }

    /// The error the synopsis would have if `k` were discarded now.
    fn key(&self, k: usize) -> f64 {
        let (start, mid, end) = self.sides(k);
        let c = self.coeff[k];
        self.worst(start..mid, -c).max(self.worst(mid..end, c))
    }

    fn argmin(&self) -> Option<(f64, usize)> {
        (0..self.coeff.len())
            .filter(|&k| self.retained[k])
            .map(|k| (self.key(k), k))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    fn discard(&mut self, k: usize) {
        let (start, mid, end) = self.sides(k);
        let c = self.coeff[k];
        self.err[start..mid].iter_mut().for_each(|e| *e -= c);
        self.err[mid..end].iter_mut().for_each(|e| *e += c);
        self.retained[k] = false;
    }

    fn error(&self) -> f64 {
        self.worst(0..self.err.len(), 0.0)
    }
}

/// `2^0..=2^6` values; every other case is quantized to quarters so that
/// keys tie exactly.
fn oracle_data() -> impl Strategy<Value = Vec<f64>> {
    (0u32..=6, any::<bool>()).prop_flat_map(|(k, quantize)| {
        prop::collection::vec(
            (-100.0..100.0f64)
                .prop_map(move |v| if quantize { (v * 4.0).round() / 4.0 } else { v }),
            (1usize << k)..=(1usize << k),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // GreedyAbs discards exactly the brute-force `(MA, id)` minimum and
    // tracks exactly the brute-force error, bit for bit.
    #[test]
    fn greedy_abs_discards_the_argmin(
        data in oracle_data(),
        full in any::<bool>(),
        incoming in -50.0..50.0f64,
    ) {
        let coeff = forward(&data).unwrap();
        let full = full || coeff.len() == 1;
        let incoming = if full { 0.0 } else { incoming };
        let mut engine = if full {
            GreedyAbs::new_full(&coeff).unwrap()
        } else {
            GreedyAbs::new_subtree(&coeff[1..], incoming).unwrap()
        };
        let mut oracle = Oracle::new(&coeff, full, incoming, vec![1.0; coeff.len()]);
        while let Some((_, k)) = oracle.argmin() {
            let removal = engine.step().expect("a retained node is left");
            oracle.discard(k);
            prop_assert_eq!(removal.node as usize, k);
            prop_assert_eq!(removal.error_after.to_bits(), oracle.error().to_bits());
        }
        prop_assert!(engine.step().is_none());
        prop_assert_eq!(engine.retained(), 0);
    }

    // GreedyRel's envelopes are not bit-exact, so its choice is checked by
    // value: the true `MR` of the node it discards is the true minimum.
    #[test]
    fn greedy_rel_discards_the_argmin(
        data in oracle_data(),
        full in any::<bool>(),
        incoming in -50.0..50.0f64,
        sanity in 0.1..10.0f64,
    ) {
        let coeff = forward(&data).unwrap();
        let full = full || coeff.len() == 1;
        let incoming = if full { 0.0 } else { incoming };
        let mut engine = if full {
            GreedyRel::new_full(&coeff, &data, sanity).unwrap()
        } else {
            GreedyRel::new_subtree(&coeff[1..], &data, incoming, sanity).unwrap()
        };
        let denom = data.iter().map(|d| d.abs().max(sanity)).collect();
        let mut oracle = Oracle::new(&coeff, full, incoming, denom);
        while let Some((min_key, _)) = oracle.argmin() {
            let removal = engine.step().expect("a retained node is left");
            let k = removal.node as usize;
            prop_assert!(oracle.retained[k], "node {k} discarded twice");
            prop_assert!(
                oracle.key(k) <= min_key + 1e-9,
                "discarded node {k} with MR {} over the minimum {min_key}",
                oracle.key(k)
            );
            oracle.discard(k);
            prop_assert!((removal.error_after - oracle.error()).abs() < 1e-9);
        }
        prop_assert!(engine.step().is_none());
        prop_assert_eq!(engine.retained(), 0);
    }
}

/// The GreedyAbs / GreedyRel rows of the input-edge table: one and two
/// values, all-equal data, NaN / ±∞ / subnormal values and incoming errors,
/// `B ∈ {0, 1, N, > N}`. Every coefficient is discarded exactly once and a
/// synopsis fits its budget (or the refusal is typed); nothing panics or
/// hangs.
#[test]
fn engines_terminate_on_edge_inputs() {
    let tiny = f64::MIN_POSITIVE / 4.0;
    let inputs: [&[f64]; 9] = [
        &[5.0],
        &[f64::NAN],
        &[3.0, -3.0],
        &[7.5; 8],
        &[1.0, f64::NAN, 2.0, 3.0],
        &[1.0, 2.0, f64::INFINITY, 3.0, 4.0, 5.0, 6.0, 7.0],
        &[f64::NEG_INFINITY, f64::INFINITY],
        &[tiny, -tiny, 0.0, 2.0 * tiny],
        &[f64::MAX, -f64::MAX, f64::MAX, 1.0],
    ];
    for data in inputs {
        let n = data.len();
        let coeffs = forward(data).unwrap();

        let mut abs = GreedyAbs::new_full(&coeffs).unwrap();
        assert_eq!(abs.retained(), n, "{data:?}");
        assert_eq!(abs.run_to_empty().len(), n, "{data:?}");
        let mut rel = GreedyRel::new_full(&coeffs, data, 1.0).unwrap();
        assert_eq!(rel.retained(), n, "{data:?}");
        assert_eq!(rel.run_to_empty().len(), n, "{data:?}");

        for incoming in [0.0, -2.5, f64::NAN, f64::INFINITY, tiny] {
            if n == 1 {
                assert!(GreedyAbs::new_subtree(&coeffs[1..], incoming).is_err());
                assert!(GreedyRel::new_subtree(&coeffs[1..], data, incoming, 1.0).is_err());
                continue;
            }
            let mut abs = GreedyAbs::new_subtree(&coeffs[1..], incoming).unwrap();
            assert_eq!(abs.retained(), n - 1, "{data:?} + {incoming}");
            assert_eq!(abs.run_to_empty().len(), n - 1, "{data:?} + {incoming}");
            let mut rel = GreedyRel::new_subtree(&coeffs[1..], data, incoming, 1.0).unwrap();
            assert_eq!(rel.retained(), n - 1, "{data:?} + {incoming}");
            assert_eq!(rel.run_to_empty().len(), n - 1, "{data:?} + {incoming}");
        }

        for b in [0, 1, n, n + 3] {
            let (synopsis, _) = greedy_abs_synopsis(&coeffs, b).unwrap();
            assert!(synopsis.size() <= b, "{data:?} b={b}");
            let (synopsis, _) = greedy_rel_synopsis(&coeffs, data, b, 1.0).unwrap();
            assert!(synopsis.size() <= b, "{data:?} b={b}");
        }
    }
}
