//! Inputs, all made from `--seed`: the WD-like series every workload
//! builds over, and the clients' query streams. The product only ever
//! receives what these functions generate.

use dwmaxerr_datagen::{uniform, wd_like, Distribution};
use dwmaxerr_serve::Query;

use crate::spec::{Input, Mix, GLITCH, MALFORMED_EVERY, MAX_RANGE_WIDTH};

/// The input series. Either kind holds whole numbers ≤ 655, so prefix
/// sums of any window are exact in `f64` and range-sum answers can be
/// checked without float slack games.
pub fn series(input: Input, n: usize, seed: u64) -> Vec<f64> {
    match input {
        Input::WdLike => wd_like(n, GLITCH, seed),
        Input::UniformInts(max) => uniform(n, max, seed).into_iter().map(f64::round).collect(),
    }
}

/// `prefix[i]` = sum of `data[..i]`.
pub fn prefix_sums(data: &[f64]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(data.len() + 1);
    let mut acc = 0.0;
    prefix.push(acc);
    for &v in data {
        acc += v;
        prefix.push(acc);
    }
    prefix
}

/// A decorrelated per-client seed.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    seed ^ (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(client as u64 + 1)
}

/// `count` queries of `mix` over a window of `n` values.
pub fn queries(mix: Mix, n: usize, count: usize, seed: u64) -> Vec<Query> {
    match mix {
        Mix::Point => Distribution::Uniform
            .generate(count, (n - 1) as f64, seed)
            .into_iter()
            .map(|t| Query::Point {
                x: (t as usize).min(n - 1),
            })
            .collect(),
        Mix::Scan { malformed } => {
            let targets = Distribution::Zipf(1.1).generate(count, (n - 1) as f64, seed);
            let widths =
                Distribution::Uniform.generate(count, (MAX_RANGE_WIDTH - 1) as f64, seed ^ 0x9e37);
            targets
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(i, (&t, &w))| {
                    let x = (t as usize).min(n - 1);
                    if malformed && i % MALFORMED_EVERY == MALFORMED_EVERY - 1 {
                        // Alternate the two ways a query can be malformed.
                        if i % (2 * MALFORMED_EVERY) == MALFORMED_EVERY - 1 {
                            Query::Point { x: n + x }
                        } else {
                            Query::RangeSum { l: n - 1, h: 0 }
                        }
                    } else if i % 4 == 3 {
                        Query::RangeSum {
                            l: x,
                            h: (x + w as usize).min(n - 1),
                        }
                    } else {
                        Query::Point { x }
                    }
                })
                .collect()
        }
    }
}

/// Whether the server must refuse `q` on a window of `n` values.
pub fn is_malformed(n: usize, q: Query) -> bool {
    match q {
        Query::Point { x } => x >= n,
        Query::RangeSum { l, h } => l > h || h >= n,
    }
}

/// The exact answer to a well-formed `q`.
pub fn exact(data: &[f64], prefix: &[f64], q: Query) -> f64 {
    match q {
        Query::Point { x } => data[x],
        Query::RangeSum { l, h } => prefix[h + 1] - prefix[l],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for input in [Input::WdLike, Input::UniformInts(56.0)] {
            assert_eq!(series(input, 4096, 17), series(input, 4096, 17));
            assert_ne!(series(input, 4096, 17), series(input, 4096, 18));
            assert!(series(input, 4096, 17)
                .iter()
                .all(|v| v.fract() == 0.0 && (0.0..=655.0).contains(v)));
        }
        for mix in [
            Mix::Point,
            Mix::Scan { malformed: true },
            Mix::Scan { malformed: false },
        ] {
            let a = queries(mix, 1 << 12, 2048, client_seed(17, 0));
            assert_eq!(
                a,
                queries(mix, 1 << 12, 2048, client_seed(17, 0)),
                "{mix:?}"
            );
            assert_ne!(
                a,
                queries(mix, 1 << 12, 2048, client_seed(17, 1)),
                "{mix:?}"
            );
            assert_ne!(
                a,
                queries(mix, 1 << 12, 2048, client_seed(18, 0)),
                "{mix:?}"
            );
        }
    }

    #[test]
    fn mixes_have_the_documented_shape() {
        let n = 1 << 12;
        let points = queries(Mix::Point, n, 4096, 5);
        assert!(points
            .iter()
            .all(|&q| matches!(q, Query::Point { x } if x < n)));

        let scan = queries(Mix::Scan { malformed: true }, n, 4096, 5);
        let bad = scan.iter().filter(|&&q| is_malformed(n, q)).count();
        assert_eq!(bad, 4096 / MALFORMED_EVERY);
        let ranges = scan
            .iter()
            .filter(|&&q| matches!(q, Query::RangeSum { l, h } if l <= h))
            .inspect(|&&q| {
                if let Query::RangeSum { l, h } = q {
                    assert!(h - l < MAX_RANGE_WIDTH && h < n);
                }
            })
            .count();
        // One query in four is a range sum, less the malformed slots that
        // landed on a range position.
        assert!((4096 / 4 - bad..=4096 / 4).contains(&ranges), "{ranges}");

        let clean = queries(Mix::Scan { malformed: false }, n, 4096, 5);
        assert!(clean.iter().all(|&q| !is_malformed(n, q)));
    }

    #[test]
    fn exact_answers_come_from_the_raw_window() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0];
        let prefix = prefix_sums(&data);
        assert_eq!(prefix, vec![0.0, 3.0, 4.0, 8.0, 9.0, 14.0]);
        assert_eq!(exact(&data, &prefix, Query::Point { x: 2 }), 4.0);
        assert_eq!(exact(&data, &prefix, Query::RangeSum { l: 1, h: 3 }), 6.0);
        assert_eq!(exact(&data, &prefix, Query::RangeSum { l: 0, h: 4 }), 14.0);
    }
}
