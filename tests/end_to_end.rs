//! End-to-end integration tests across crates, driven through the
//! `dwmaxerr` facade exactly as a downstream user would.

use dwmaxerr::algos::conventional::conventional_synopsis;
use dwmaxerr::algos::greedy_abs_synopsis;
use dwmaxerr::algos::indirect_haar::indirect_haar_centralized;
use dwmaxerr::algos::min_haar_space::{MhsError, MhsParams};
use dwmaxerr::algos::min_rel_var::MrvParams;
use dwmaxerr::core::conventional::{con, hwtopk, send_coef, send_coef_combined, send_v};
use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::dgreedy_rel::{dgreedy_rel, DGreedyRelConfig};
use dwmaxerr::core::dhaar_plus::{dhaar_plus, DhpConfig};
use dwmaxerr::core::dindirect_haar::{dindirect_haar, DIndirectHaarConfig};
use dwmaxerr::core::dmin_haar_space::{dmin_haar_space, DmhsConfig};
use dwmaxerr::core::dmin_rel_var::{dmin_rel_var, DmrvConfig};
use dwmaxerr::core::{CoreError, IncrementalDGreedyAbs, PhasedSynopsisDriver};
use dwmaxerr::datagen::{nyct_like, wd_like};
use dwmaxerr::runtime::{Cluster, ClusterConfig};
use dwmaxerr::serve::{ServeDriver, ServeError};
use dwmaxerr::wavelet::metrics::{evaluate, max_abs};
use dwmaxerr::wavelet::transform::forward;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::with_slots(8, 4);
    cfg.task_startup = std::time::Duration::from_micros(50);
    cfg.job_setup = std::time::Duration::from_micros(50);
    Cluster::new(cfg)
}

#[test]
fn nyct_pipeline_quality_ordering() {
    // The Figure-8 quality relation at laptop scale: both max-error
    // algorithms beat the conventional synopsis on max_abs, and
    // DGreedyAbs matches centralized GreedyAbs.
    let n = 1 << 12;
    let b = n / 8;
    let data = nyct_like(n, 0.0, 3);
    let c = cluster();

    let d = dgreedy_abs(
        &c,
        &data,
        b,
        &DGreedyAbsConfig {
            base_leaves: 1 << 9,
            bucket_width: 0.25,
            reducers: 4,
            max_candidates: None,
        },
    )
    .unwrap();
    let d_err = max_abs(&data, &d.synopsis.reconstruct_all());

    let (g_syn, g_err) = greedy_abs_synopsis(&forward(&data).unwrap(), b).unwrap();
    let g_actual = max_abs(&data, &g_syn.reconstruct_all());
    assert!((g_err - g_actual).abs() < 1e-9);

    let (conv, _) = con(&c, &data, b, 1 << 9).unwrap();
    let conv_err = max_abs(&data, &conv.reconstruct_all());

    assert!(
        d_err < conv_err,
        "DGreedyAbs {d_err} !< conventional {conv_err}"
    );
    assert!(
        g_actual < conv_err,
        "GreedyAbs {g_actual} !< conventional {conv_err}"
    );
    // Paper: "DGreedyAbs ... achieves the same maximum absolute error with
    // its centralized counterpart" — allow a bucket of slack.
    assert!(
        d_err <= g_actual * 1.25 + 1.0,
        "DGreedyAbs {d_err} too far from GreedyAbs {g_actual}"
    );
}

#[test]
fn wd_dp_beats_greedy_and_respects_budget() {
    let n = 1 << 11;
    let b = n / 8;
    let data = wd_like(n, 1e-4, 5);
    let c = cluster();
    let cfg = DIndirectHaarConfig {
        delta: 1.0,
        probe: DmhsConfig {
            base_leaves: 1 << 8,
            fan_in: 4,
        },
    };
    let dp = dindirect_haar(&c, &data, b, &cfg).unwrap();
    assert!(dp.synopsis.size() <= b);
    let (_, g_err) = greedy_abs_synopsis(&forward(&data).unwrap(), b).unwrap();
    // The DP search is optimal over its grid: it must not lose to the
    // greedy heuristic by more than quantization slack.
    assert!(
        dp.error <= g_err + 2.0 + 1e-9,
        "DIndirectHaar {} vs GreedyAbs {g_err}",
        dp.error
    );
    // And it matches its centralized twin.
    let central = indirect_haar_centralized(&data, b, 1.0).unwrap();
    assert!(
        (dp.error - central.error).abs() <= 2.0 + 1e-9,
        "distributed {} vs centralized {}",
        dp.error,
        central.error
    );
}

#[test]
fn conventional_family_identical_on_real_like_data() {
    let n = 1 << 11;
    let b = 64;
    let data = wd_like(n, 1e-4, 9);
    let c = cluster();
    let (a, _) = con(&c, &data, b, 1 << 8).unwrap();
    let (v, _) = send_v(&c, &data, b, 5).unwrap();
    let (s, _) = send_coef(&c, &data, b, 5).unwrap();
    let h = hwtopk(&c, &data, b, 5).unwrap();
    // Index sets must agree exactly; values up to FP aggregation noise.
    let idx = |syn: &dwmaxerr::wavelet::Synopsis| {
        syn.entries().iter().map(|&(i, _)| i).collect::<Vec<_>>()
    };
    assert_eq!(idx(&a), idx(&v));
    assert_eq!(idx(&a), idx(&s));
    assert_eq!(idx(&a), idx(&h.synopsis));
    for (x, y) in a.entries().iter().zip(s.entries()) {
        assert!((x.1 - y.1).abs() < 1e-6);
    }
}

#[test]
fn dgreedy_rel_protects_relative_error_on_mixed_magnitudes() {
    let n = 1 << 10;
    let b = n / 4;
    // Sensor-like small values with occasional large spikes.
    let data: Vec<f64> = (0..n)
        .map(|i| {
            if i % 37 == 0 {
                900.0
            } else {
                10.0 + (i as f64 * 0.21).sin() * 3.0
            }
        })
        .collect();
    let c = cluster();
    let rel = dgreedy_rel(
        &c,
        &data,
        b,
        &DGreedyRelConfig {
            base_leaves: 1 << 7,
            bucket_width: 1e-6,
            reducers: 2,
            sanity: 1.0,
        },
    )
    .unwrap();
    let abs = dgreedy_abs(
        &c,
        &data,
        b,
        &DGreedyAbsConfig {
            base_leaves: 1 << 7,
            bucket_width: 1e-6,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    let rel_of = |syn: &dwmaxerr::wavelet::Synopsis| evaluate(&data, syn, 1.0).max_rel;
    assert!(
        rel.error <= rel_of(&abs.synopsis) + 1e-9,
        "DGreedyRel {} should beat DGreedyAbs {} on max_rel",
        rel.error,
        rel_of(&abs.synopsis)
    );
}

#[test]
fn error_guarantees_hold_under_corruption() {
    // Corrupt NYCT slices (near-u32::MAX records) must not break any
    // invariant: budgets hold, tracked errors are exact.
    let n = 1 << 11;
    let b = n / 8;
    let data = nyct_like(n, 2e-3, 21);
    assert!(data.iter().any(|&v| v > 1e6), "corruption present");
    let c = cluster();
    let d = dgreedy_abs(
        &c,
        &data,
        b,
        &DGreedyAbsConfig {
            base_leaves: 1 << 8,
            bucket_width: 1.0,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    assert!(d.synopsis.size() <= b);
    let actual = max_abs(&data, &d.synopsis.reconstruct_all());
    assert!(
        (actual - d.estimated_error).abs() <= 1.0 + actual * 1e-9,
        "estimate {} vs actual {actual}",
        d.estimated_error
    );
}

#[test]
fn degenerate_shapes() {
    let c = cluster();
    // Constant data: one coefficient suffices everywhere.
    let data = vec![7.5; 64];
    let d = dgreedy_abs(
        &c,
        &data,
        1,
        &DGreedyAbsConfig {
            base_leaves: 8,
            bucket_width: 1e-9,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    let err = max_abs(&data, &d.synopsis.reconstruct_all());
    assert!(err < 1e-9, "constant data should be free: {err}");

    // Single spike.
    let mut spike = vec![0.0; 64];
    spike[33] = 1000.0;
    let d = dgreedy_abs(
        &c,
        &spike,
        8,
        &DGreedyAbsConfig {
            base_leaves: 8,
            bucket_width: 1e-9,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    let err = max_abs(&spike, &d.synopsis.reconstruct_all());
    assert!(
        err < 1e-9,
        "a spike needs log N + 1 = 7 <= 8 coefficients: {err}"
    );
}

/// The DGreedyAbs / DGreedyRel rows of the input-edge table: every
/// `(data, B)` gets a synopsis within its budget *and within the error it
/// advertises*, or a typed refusal — never a panic, a hang or a silently
/// wrong bound. `n <= base_leaves` (one base sub-tree, a one-coefficient
/// root) is the default configuration's common case on small inputs;
/// DGreedyRel used to panic there on the driver thread, and DGreedyAbs used
/// to advertise `estimated_error = 0` over NaN / ±∞ data.
#[test]
fn greedy_drivers_survive_edge_inputs() {
    let c = cluster();
    let tiny = f64::MIN_POSITIVE / 4.0;
    let mut spiked = vec![1.0; 16];
    spiked[5] = f64::NAN;
    let mut unbounded = vec![2.0; 16];
    unbounded[3] = f64::INFINITY;
    unbounded[12] = f64::NEG_INFINITY;
    // One NaN among 64 values measured max_abs = 22 under an advertised 0.
    let mut holed: Vec<f64> = (0..64).map(|i| ((i * 37) % 23) as f64).collect();
    holed[29] = f64::NAN;
    let inputs: Vec<Vec<f64>> = vec![
        vec![],
        vec![5.0],
        vec![3.0, -3.0],
        vec![1.0, 2.0, 3.0],
        vec![7.5; 16],
        (0..64).map(|i| ((i * 37) % 23) as f64).collect(),
        spiked,
        unbounded,
        holed,
        vec![tiny, -tiny, 0.0, 2.0 * tiny, tiny, tiny, -tiny, 0.0],
    ];
    for data in &inputs {
        let n = data.len();
        // Two refusals: of the shape (a tree needs 2^k >= 2 values) and of
        // values no bound can be advertised over.
        let shape_ok = n >= 2 && n.is_power_of_two();
        let finite = data.iter().all(|v| v.is_finite());
        for b in [0, 1, n, n + 3] {
            for base_leaves in [4, 1 << 12] {
                let rel_cfg = DGreedyRelConfig {
                    base_leaves,
                    ..DGreedyRelConfig::default()
                };
                // (algorithm, size, measured error, the most the result
                // advertises)
                let mut outcomes = vec![(
                    "dgreedy_rel".to_string(),
                    dgreedy_rel(&c, data, b, &rel_cfg).map(|d| {
                        let measured = evaluate(data, &d.synopsis, rel_cfg.sanity).max_rel;
                        (d.synopsis.size(), measured, d.error + 1e-9)
                    }),
                )];
                // The default `e_b`, and half a unit: over the integer rows
                // the estimate alone can then fall short of the error.
                for bucket_width in [DGreedyAbsConfig::default().bucket_width, 0.5] {
                    let abs_cfg = DGreedyAbsConfig {
                        base_leaves,
                        bucket_width,
                        ..DGreedyAbsConfig::default()
                    };
                    let outcome = dgreedy_abs(&c, data, b, &abs_cfg).map(|d| {
                        let measured = max_abs(data, &d.synopsis.reconstruct_all());
                        let promised = d.bound.err_abs.expect("a max-abs bound") + 1e-6;
                        (d.synopsis.size(), measured, promised)
                    });
                    outcomes.push((format!("dgreedy_abs e_b={bucket_width}"), outcome));
                }
                for (algo, outcome) in outcomes {
                    let tag = format!("{algo} b={b} base_leaves={base_leaves} data={data:?}");
                    match outcome {
                        Ok((size, measured, promised)) => {
                            assert!(shape_ok && finite, "{tag}: built");
                            assert!(size <= b, "{tag}: size {size}");
                            assert!(
                                measured <= promised,
                                "{tag}: measured {measured} vs advertised {promised}"
                            );
                        }
                        Err(CoreError::NonFiniteInput { .. }) => {
                            assert!(shape_ok && !finite, "{tag}")
                        }
                        Err(e) => assert!(!shape_ok, "{tag}: {e}"),
                    }
                }
            }
        }
    }
}

/// The DP drivers' rows of the same table. A MinHaarSpace leaf used to
/// window a NaN datum as 0 and advertise `actual_error <= ε` over data it
/// never looked at; `+∞` and `1e300` overflowed the window arithmetic
/// (a panic in debug builds) and `-∞` panicked in every build. DMinRelVar
/// built over any of them and advertised `nse_bound` beside a NaN synopsis
/// (over one NaN value: a bound of 0).
#[test]
fn dp_drivers_survive_edge_inputs() {
    let c = cluster();
    let tiny = f64::MIN_POSITIVE / 4.0;
    let base: Vec<f64> = (0..16).map(|i| ((i * 5) % 11) as f64).collect();
    let with = |at: usize, value: f64| {
        let mut data = base.clone();
        data[at] = value;
        data
    };
    let inputs = [
        base.clone(),
        with(6, tiny),
        with(6, f64::NAN),
        with(0, f64::INFINITY),
        with(15, f64::NEG_INFINITY),
        with(9, 1e300),
        // One value: no tree to layer, the centralized solvers answer.
        vec![f64::NAN],
    ];
    let (eps, b) = (2.0, 6);
    let params = MhsParams::new(eps, 1.0).unwrap();
    for data in &inputs {
        let finite = data.iter().all(|v| v.is_finite());
        let on_grid = data.iter().all(|v| !v.is_finite() || v.abs() < 1e9);
        for base_leaves in [4, 1 << 12] {
            let probe = DmhsConfig {
                base_leaves,
                fan_in: 2,
            };
            let hp_cfg = DhpConfig {
                base_leaves,
                fan_in: 2,
            };
            let ih_cfg = DIndirectHaarConfig { delta: 1.0, probe };
            // (measured error, advertised error, size, size allowed)
            let outcomes = [
                dmin_haar_space(&c, data, &params, &ih_cfg.probe).map(|d| {
                    let measured = max_abs(data, &d.synopsis.reconstruct_all());
                    (measured, d.actual_error.min(eps), d.size, data.len())
                }),
                dhaar_plus(&c, data, &params, &hp_cfg).map(|d| {
                    let measured = max_abs(data, &d.synopsis.reconstruct_all());
                    (measured, d.actual_error.min(eps), d.size, data.len())
                }),
                dindirect_haar(&c, data, b, &ih_cfg).map(|d| {
                    let measured = max_abs(data, &d.synopsis.reconstruct_all());
                    (measured, d.error, d.synopsis.size(), b)
                }),
            ];
            for (algo, outcome) in ["dmin_haar_space", "dhaar_plus", "dindirect_haar"]
                .iter()
                .zip(outcomes)
            {
                let tag = format!("{algo} base_leaves={base_leaves} data={data:?}");
                let searches = *algo == "dindirect_haar" && data.len() >= 2;
                match outcome {
                    Ok((measured, advertised, size, allowed)) => {
                        assert!(finite && on_grid, "{tag}: built");
                        assert!(size <= allowed, "{tag}: size {size}");
                        assert!(
                            measured <= advertised + 1e-9,
                            "{tag}: measured {measured} vs advertised {advertised}"
                        );
                    }
                    // DIndirectHaar's bound jobs read every value before
                    // its first probe (when there is a tree to run them on).
                    Err(CoreError::NonFiniteInput { .. }) => {
                        assert!(!finite && searches, "{tag}")
                    }
                    Err(CoreError::Mhs(MhsError::OffGrid)) => {
                        assert!(!on_grid || (!finite && !searches), "{tag}")
                    }
                    Err(e) => panic!("{tag}: {e}"),
                }
            }

            // DMinRelVar advertises a bound on the normalized squared
            // error and an expected size, not a max-abs error.
            let mrv_cfg = DmrvConfig {
                base_leaves,
                fan_in: 2,
                params: MrvParams::new(2, 1.0).unwrap(),
                seed: 7,
            };
            let tag = format!("dmin_rel_var base_leaves={base_leaves} data={data:?}");
            match dmin_rel_var(&c, data, b, &mrv_cfg) {
                Ok(d) => {
                    assert!(finite, "{tag}: built");
                    assert!(d.expected_size <= b as f64 + 1e-9, "{tag}");
                    assert!(d.synopsis.size() <= data.len(), "{tag}");
                    assert!(!d.nse_bound.is_nan(), "{tag}");
                }
                Err(CoreError::NonFiniteInput { .. }) => assert!(!finite, "{tag}"),
                Err(e) => panic!("{tag}: {e}"),
            }
        }
    }
}

/// The conventional family's rows of the same table — CON, Send-V,
/// Send-Coef, H-WTopk, the centralized reference they must equal, and the
/// centralized IndirectHaar search. Each of them used to sort with
/// `partial_cmp(..).expect("finite")`, so one NaN cell aborted the process.
/// Where the reference refuses the shape (N = 0, N not a power of two),
/// every algorithm refuses it with the same error; CON used to panic at
/// N ∈ {0, 1} on `clamp(2, n)`.
#[test]
fn conventional_family_survives_edge_inputs() {
    let c = cluster();
    let tiny = f64::MIN_POSITIVE / 4.0;
    let base: Vec<f64> = (0..16).map(|i| ((i * 5) % 11) as f64).collect();
    let with = |at: usize, value: f64| {
        let mut data = base.clone();
        data[at] = value;
        data
    };
    // (data, every algorithm must reproduce the reference synopsis)
    let inputs = [
        (base.clone(), true),
        (with(6, tiny), true),
        (with(6, f64::NAN), false),
        (with(0, f64::INFINITY), false),
        (with(15, f64::NEG_INFINITY), false),
        (with(9, 1e300), false),
        (vec![], true),
        (vec![5.0], true),
        (base[..3].to_vec(), true),
        (base[..12].to_vec(), true),
        (vec![7.5; 16], true),
    ];
    for (data, exact) in &inputs {
        let n = data.len();
        let finite = data.iter().all(|v| v.is_finite());
        for b in [0, 1, n, n + 3] {
            let reference = forward(data).and_then(|w| conventional_synopsis(&w, b));
            if let Ok(reference) = &reference {
                assert!(reference.size() <= b, "reference b={b} data={data:?}");
            }
            let built = [
                ("con", con(&c, data, b, 4).map(|r| r.0)),
                ("send_v", send_v(&c, data, b, 4).map(|r| r.0)),
                ("send_coef", send_coef(&c, data, b, 5).map(|r| r.0)),
                ("hwtopk", hwtopk(&c, data, b, 5).map(|r| r.synopsis)),
            ];
            for (algo, outcome) in built {
                let tag = format!("{algo} b={b} data={data:?}");
                match (&reference, outcome) {
                    (Ok(reference), Ok(synopsis)) => {
                        assert!(synopsis.size() <= b, "{tag}: size {}", synopsis.size());
                        if *exact {
                            assert_eq!(&synopsis, reference, "{tag}");
                        }
                    }
                    (Err(want), Err(CoreError::Wavelet(got))) => assert_eq!(&got, want, "{tag}"),
                    (want, got) => panic!("{tag}: {got:?}, the reference {want:?}"),
                }
            }
            let tag = format!("indirect_haar b={b} data={data:?}");
            match indirect_haar_centralized(data, b, 1.0) {
                Ok(report) => {
                    assert!(finite, "{tag}: built");
                    assert!(report.synopsis.size() <= b, "{tag}");
                }
                Err(MhsError::OffGrid) => assert!(!exact, "{tag}"),
                Err(MhsError::Wavelet(got)) => assert_eq!(reference.err(), Some(got), "{tag}"),
                Err(e) => panic!("{tag}: {e}"),
            }
        }
    }
}

/// Windows of fewer than two values have no tree to maintain: the
/// incremental maintainer, the driver and the serving loop over them
/// refuse them with a typed error. They used to panic on `clamp(2, n)`.
#[test]
fn incremental_constructors_refuse_windows_under_two_values() {
    let cfg = DGreedyAbsConfig::default();
    for n in [0, 1] {
        assert!(
            matches!(
                IncrementalDGreedyAbs::new(n, 1, &cfg),
                Err(CoreError::Wavelet(_))
            ),
            "IncrementalDGreedyAbs n={n}"
        );
        assert!(
            matches!(
                PhasedSynopsisDriver::new(n, 1, &cfg),
                Err(CoreError::Wavelet(_))
            ),
            "PhasedSynopsisDriver n={n}"
        );
        assert!(
            matches!(
                ServeDriver::new(n, 1, &cfg, 2, "tiny"),
                Err(ServeError::Core(CoreError::Wavelet(_)))
            ),
            "ServeDriver n={n}"
        );
    }
    // Two values are the smallest window, whatever the base size asked for.
    assert!(IncrementalDGreedyAbs::new(2, 1, &cfg).is_ok());
    assert!(PhasedSynopsisDriver::new(2, 1, &cfg).is_ok());
}

/// The block-split drivers' `parts` rows: any positive count of unaligned
/// blocks, more than `N` included, gives the reference synopsis; `parts: 0`
/// is a typed refusal. It used to reach `block_splits`' `assert!` and panic.
#[test]
fn block_split_drivers_take_any_parts_and_refuse_zero() {
    let c = cluster();
    let inputs = [vec![5.0], (0..16).map(|i| ((i * 5) % 11) as f64).collect()];
    for data in &inputs {
        let n = data.len();
        for b in [0, n, n + 3] {
            let reference = conventional_synopsis(&forward(data).unwrap(), b).unwrap();
            for parts in [0, 1, n, n + 3] {
                let built = [
                    ("send_v", send_v(&c, data, b, parts).map(|r| r.0)),
                    ("send_coef", send_coef(&c, data, b, parts).map(|r| r.0)),
                    (
                        "send_coef_combined",
                        send_coef_combined(&c, data, b, parts).map(|r| r.0),
                    ),
                    ("hwtopk", hwtopk(&c, data, b, parts).map(|r| r.synopsis)),
                ];
                for (algo, outcome) in built {
                    let tag = format!("{algo} n={n} b={b} parts={parts}");
                    match outcome {
                        Ok(synopsis) => {
                            assert!(parts > 0, "{tag}: built");
                            assert_eq!(synopsis, reference, "{tag}");
                        }
                        Err(CoreError::Protocol(_)) => assert_eq!(parts, 0, "{tag}"),
                        Err(e) => panic!("{tag}: {e}"),
                    }
                }
            }
        }
    }
}

/// `reducers: 0` is a parameter error like `bucket_width <= 0`, not a
/// panic inside the job builder.
#[test]
fn zero_reducers_is_a_typed_error() {
    let c = cluster();
    let data: Vec<f64> = (0..64).map(f64::from).collect();
    let abs_cfg = DGreedyAbsConfig {
        base_leaves: 8,
        reducers: 0,
        ..DGreedyAbsConfig::default()
    };
    assert!(matches!(
        dgreedy_abs(&c, &data, 8, &abs_cfg),
        Err(CoreError::Protocol(_))
    ));
    let rel_cfg = DGreedyRelConfig {
        base_leaves: 8,
        reducers: 0,
        ..DGreedyRelConfig::default()
    };
    assert!(matches!(
        dgreedy_rel(&c, &data, 8, &rel_cfg),
        Err(CoreError::Protocol(_))
    ));
    assert!(matches!(
        IncrementalDGreedyAbs::new(64, 8, &abs_cfg),
        Err(CoreError::Protocol(_))
    ));
}
