//! Acceptance tests for the sharded synopsis-serving query layer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Bounds hold** — property tests over uniform and zipf data assert
//!    that every served point and range answer is within its advertised
//!    error bound of the exact value computed from the raw data — for
//!    the absolute bound (DGreedyAbs, widened by one bucket) and the
//!    relative bound (DGreedyRel with its sanity constant) alike.
//! 2. **Readers stay pinned** — a reader taken at store version *v*
//!    keeps answering from *v* bit for bit across snapshot swaps landing
//!    mid-batch, both in a deterministic interleaving and under a
//!    genuinely concurrent publisher thread.
//! 3. **Sharded ≡ reference** — the sharded evaluators agree with the
//!    unsharded [`point_answer`]/[`range_answer`] reference evaluators
//!    (up to floating-point summation order) at every shard count.

use std::time::Duration;

use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::dgreedy_rel::{dgreedy_rel, DGreedyRelConfig};
use dwmaxerr::core::query::{point_answer, range_answer};
use dwmaxerr::datagen::{uniform, zipf};
use dwmaxerr::runtime::{Cluster, ClusterConfig};
use dwmaxerr::serve::{Query, SynopsisStore};
use proptest::prelude::*;

const N: usize = 256;
const BASE: usize = 16;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::with_slots(4, 2);
    cfg.task_startup = Duration::from_millis(1);
    cfg.job_setup = Duration::from_millis(1);
    Cluster::new(cfg)
}

fn abs_cfg() -> DGreedyAbsConfig {
    DGreedyAbsConfig {
        base_leaves: BASE,
        bucket_width: 1e-9,
        reducers: 2,
        max_candidates: None,
    }
}

fn workload(zipfian: bool, seed: u64) -> Vec<f64> {
    if zipfian {
        zipf(N, 1000.0, 1.1, seed)
    } else {
        uniform(N, 1000.0, seed)
    }
}

/// Exact range sums via prefix sums over the raw data.
fn prefix_sums(data: &[f64]) -> Vec<f64> {
    let mut p = vec![0.0; data.len() + 1];
    for (i, &v) in data.iter().enumerate() {
        p[i + 1] = p[i] + v;
    }
    p
}

/// A deterministic set of ranges covering widths from 1 to the full
/// window, shard-local and shard-crossing alike.
fn test_ranges() -> Vec<(usize, usize)> {
    let mut r = vec![(0, N - 1), (0, 0), (N - 1, N - 1), (BASE - 1, BASE)];
    for w in [1usize, 3, BASE, 3 * BASE, N / 2] {
        for l in (0..N - w).step_by(N / 8) {
            r.push((l, l + w - 1));
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Satellite 4 (absolute bound): on uniform and zipf data, every
    // served point and range answer is within its advertised err_abs of
    // the exact raw-data value — at several shard counts, and the
    // answers survive a mid-batch snapshot swap bit for bit.
    #[test]
    fn served_answers_within_abs_bound(
        seed in 0u64..1_000_000,
        zipf_sel in 0u8..2,
        budget in 16usize..64,
        shard_sel in 0usize..4,
    ) {
        let zipfian = zipf_sel == 1;
        let shards = [2usize, 8, 32, 128][shard_sel];
        let data = workload(zipfian, seed);
        let prefix = prefix_sums(&data);
        let cfg = abs_cfg();
        let build = dgreedy_abs(&cluster(), &data, budget, &cfg).unwrap();
        let bound = build.bound;

        let store = SynopsisStore::new("proptest-abs", shards);
        store.publish(&build.synopsis, bound, 1.0, 1).unwrap();
        let reader = store.reader().unwrap();

        // Every point, singly and reference-checked.
        for (x, &d) in data.iter().enumerate() {
            let a = reader.point(x).unwrap();
            prop_assert!(a.bounds_hold(d, 1e-6), "point {x}: {} vs {d}", a.value);
            let reference = point_answer(&build.synopsis, &bound, x);
            prop_assert!((a.value - reference.value).abs() < 1e-9);
            prop_assert_eq!(a.err_abs, reference.err_abs);
        }

        // Ranges, batched; bound scales with the width.
        let queries: Vec<Query> = test_ranges()
            .into_iter()
            .map(|(l, h)| Query::RangeSum { l, h })
            .collect();
        let answers = reader.execute(&queries).unwrap();
        for (a, q) in answers.iter().zip(&queries) {
            let Query::RangeSum { l, h } = *q else { unreachable!() };
            let exact = prefix[h + 1] - prefix[l];
            prop_assert!(a.bounds_hold(exact, 1e-6), "range {l}..={h}");
            let reference = range_answer(&build.synopsis, &bound, l, h);
            prop_assert!((a.value - reference.value).abs() < 1e-6);
            prop_assert_eq!(a.err_abs, reference.err_abs);
            prop_assert_eq!(a.version, 1);
        }

        // Mid-batch swap: publish a different build, re-execute on the
        // pinned reader — bit-identical answers, still version 1.
        let build2 = dgreedy_abs(&cluster(), &data, budget / 2 + 8, &cfg).unwrap();
        store
            .publish(&build2.synopsis, build2.bound, 2.0, 2)
            .unwrap();
        let again = reader.execute(&queries).unwrap();
        for (a, b) in answers.iter().zip(&again) {
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            prop_assert_eq!(b.version, 1);
        }
        prop_assert_eq!(store.reader().unwrap().version(), 2);
    }

    // Satellite 4 (relative bound): DGreedyRel's measured max-rel bound
    // holds for every served point on uniform and zipf data; range
    // answers deliberately carry no relative bound.
    #[test]
    fn served_answers_within_rel_bound(
        seed in 0u64..1_000_000,
        zipf_sel in 0u8..2,
        shard_sel in 0usize..2,
    ) {
        let zipfian = zipf_sel == 1;
        let shards = [4usize, 16][shard_sel];
        let data = workload(zipfian, seed);
        let cfg = DGreedyRelConfig {
            base_leaves: BASE,
            bucket_width: 1e-9,
            reducers: 2,
            sanity: 5.0,
        };
        let build = dgreedy_rel(&cluster(), &data, 24, &cfg).unwrap();
        let bound = build.bound;

        let store = SynopsisStore::new("proptest-rel", shards);
        store.publish(&build.synopsis, bound, 1.0, 1).unwrap();
        let reader = store.reader().unwrap();
        for (x, &d) in data.iter().enumerate() {
            let a = reader.point(x).unwrap();
            prop_assert!(a.err_rel.is_some(), "point answers carry the rel bound");
            prop_assert!(a.bounds_hold(d, 1e-6), "point {x}: {} vs {d}", a.value);
        }
        let r = reader.range_sum(3, 200).unwrap();
        prop_assert!(r.err_rel.is_none(), "rel bounds never scale to ranges");
    }
}

/// A reader pinned at version 1 returns bit-identical answers while a
/// concurrent thread keeps swapping new snapshots in — and every batch
/// a concurrent query thread executes is internally consistent (one
/// version, values matching that version's synopsis).
#[test]
fn readers_stay_pinned_under_concurrent_swaps() {
    let data = uniform(N, 1000.0, 99);
    let cfg = abs_cfg();
    let build_a = dgreedy_abs(&cluster(), &data, 24, &cfg).unwrap();
    let build_b = dgreedy_abs(&cluster(), &data, 48, &cfg).unwrap();
    assert_ne!(build_a.synopsis.entries(), build_b.synopsis.entries());
    let bound_a = build_a.bound;
    let bound_b = build_b.bound;

    let store = SynopsisStore::new("concurrent", 16);
    store.publish(&build_a.synopsis, bound_a, 1.0, 1).unwrap();

    let queries: Vec<Query> = (0..N)
        .map(|x| Query::Point { x })
        .chain(
            test_ranges()
                .into_iter()
                .map(|(l, h)| Query::RangeSum { l, h }),
        )
        .collect();
    let pinned = store.reader().unwrap();
    let expected_v1 = pinned.execute(&queries).unwrap();

    // Expected answers per parity: odd store versions serve build A,
    // even versions serve build B (see the publisher below).
    let probe = SynopsisStore::new("probe", 16);
    probe.publish(&build_b.synopsis, bound_b, 1.0, 1).unwrap();
    let expected_b = probe.reader().unwrap().execute(&queries).unwrap();

    const SWAPS: usize = 200;
    std::thread::scope(|s| {
        let publisher = {
            let store = store.clone();
            let (syn_a, syn_b) = (&build_a.synopsis, &build_b.synopsis);
            s.spawn(move || {
                for i in 0..SWAPS {
                    let (syn, bound) = if i % 2 == 0 {
                        (syn_b, bound_b) // versions 2, 4, ... serve B
                    } else {
                        (syn_a, bound_a) // versions 3, 5, ... serve A
                    };
                    store
                        .publish(syn, bound, 2.0 + i as f64, 2 + i as u64)
                        .unwrap();
                    std::thread::yield_now();
                }
            })
        };

        // Two query threads drain batches against whatever version their
        // reader pinned; each batch must be internally consistent.
        for t in 0..2 {
            let store = store.clone();
            let queries = &queries;
            let (expected_v1, expected_b) = (&expected_v1, &expected_b);
            s.spawn(move || {
                for _ in 0..50 {
                    let reader = store.reader().unwrap();
                    let v = reader.version();
                    let answers = reader.execute(queries).unwrap();
                    let expected = if v % 2 == 1 { expected_v1 } else { expected_b };
                    for (a, e) in answers.iter().zip(expected) {
                        assert_eq!(a.version, v, "thread {t}: torn batch");
                        assert_eq!(
                            a.value.to_bits(),
                            e.value.to_bits(),
                            "thread {t}: answer does not match version {v}'s synopsis"
                        );
                    }
                }
            });
        }
        publisher.join().unwrap();
    });

    // The long-lived pinned reader never moved off version 1.
    assert_eq!(pinned.version(), 1);
    let after = pinned.execute(&queries).unwrap();
    for (a, e) in after.iter().zip(&expected_v1) {
        assert_eq!(a.value.to_bits(), e.value.to_bits());
        assert_eq!(a.version, 1);
    }
    assert_eq!(store.version(), 1 + SWAPS as u64);
}

/// The full build→publish→serve loop: `ServeDriver` ticks publish
/// monotone store versions whose served answers carry the widened
/// guarantee and hold against the window's raw data.
#[test]
fn serve_driver_end_to_end_bounds_hold() {
    use dwmaxerr::serve::ServeDriver;

    let n = 256;
    let cluster = cluster();
    let mut driver = ServeDriver::new(n, n / 8, &abs_cfg(), 8, "e2e").unwrap();
    let feed = uniform(2 * n, 1000.0, 5);

    let r1 = driver.tick(&cluster, &feed[..n]).unwrap();
    assert_eq!(r1.store_version, 1);
    let r2 = driver.tick(&cluster, &feed[n..n + 32]).unwrap();
    assert_eq!(r2.store_version, 2);

    let reader = driver.store().reader().unwrap();
    assert_eq!(reader.version(), 2);
    let window = driver.driver().window().data().to_vec();
    let prefix = prefix_sums(&window);
    for (x, &d) in window.iter().enumerate() {
        assert!(reader.point(x).unwrap().bounds_hold(d, 1e-6), "point {x}");
    }
    for (l, h) in [(0, n - 1), (7, 40), (100, 101)] {
        let a = reader.range_sum(l, h).unwrap();
        assert!(
            a.bounds_hold(prefix[h + 1] - prefix[l], 1e-6),
            "range {l}..={h}"
        );
        assert_eq!(
            a.err_abs,
            reader.bound().err_abs.map(|e| e * (h - l + 1) as f64)
        );
    }
}

/// Integer data under a wide bucket (`e_b = 0.5`). The histograms floor
/// every error into half-unit buckets, so a build's estimate can fall
/// short of the error it actually makes; only the served bound's
/// one-bucket widening covers the gap. `ServeDriver` ticks publish into
/// the store, and every point it serves must hold its bound. The case is
/// not vacuous: on at least one tick the measured max-abs error exceeds
/// the bare estimate, so a bound that dropped `e_b` fails here.
#[test]
fn serve_driver_wide_bucket_bound_covers_the_estimate() {
    use dwmaxerr::serve::ServeDriver;

    let n = 256;
    let cfg = DGreedyAbsConfig {
        bucket_width: 0.5,
        ..abs_cfg()
    };
    let cluster = cluster();
    let mut driver = ServeDriver::new(n, n / 8, &cfg, 8, "wide-bucket").unwrap();
    let feed: Vec<f64> = uniform(2 * n, 1000.0, 17)
        .iter()
        .map(|v| v.round())
        .collect();
    let mut gap_seen = false;
    for values in [&feed[..n], &feed[n..n + 32], &feed[n + 32..n + 96]] {
        let report = driver.tick(&cluster, values).unwrap();
        let reader = driver.store().reader().unwrap();
        let mut measured = 0.0f64;
        for (x, &d) in driver.driver().window().data().iter().enumerate() {
            let a = reader.point(x).unwrap();
            assert!(a.bounds_hold(d, 1e-6), "point {x}: {} vs {d}", a.value);
            measured = measured.max((a.value - d).abs());
        }
        gap_seen |= measured > report.build.update.estimated_error;
    }
    assert!(gap_seen, "no tick's measured error exceeded its estimate");
}
