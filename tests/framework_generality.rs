//! Integration tests of the Section-4 framework's generality: all three DP
//! families run through the same layered decomposition on the dataset
//! surrogates, and budget edge cases behave.

use dwmaxerr::algos::min_haar_space::MhsParams;
use dwmaxerr::algos::min_rel_var::MrvParams;
use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::dhaar_plus::{dhaar_plus, DhpConfig};
use dwmaxerr::core::dindirect_haar::{dindirect_haar, DIndirectHaarConfig};
use dwmaxerr::core::dmin_haar_space::{dmin_haar_space, DmhsConfig};
use dwmaxerr::core::dmin_rel_var::{dmin_rel_var, DmrvConfig};
use dwmaxerr::datagen::{nyct_like, wd_like};
use dwmaxerr::runtime::{Cluster, ClusterConfig};
use dwmaxerr::wavelet::metrics::max_abs;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::with_slots(8, 4);
    cfg.task_startup = std::time::Duration::from_micros(10);
    cfg.job_setup = std::time::Duration::from_micros(10);
    Cluster::new(cfg)
}

#[test]
fn three_dp_families_share_the_framework_on_wd() {
    let n = 1 << 10;
    let data = wd_like(n, 1e-4, 101);
    let c = cluster();
    let eps = 15.0;

    // Family 1: unrestricted Haar (DMHaarSpace).
    let mhs = dmin_haar_space(
        &c,
        &data,
        &MhsParams::new(eps, 1.0).unwrap(),
        &DmhsConfig {
            base_leaves: 128,
            fan_in: 4,
        },
    )
    .unwrap();
    assert!(mhs.actual_error <= eps + 1e-9);

    // Family 2: Haar+ triads (DHaarPlus) — never more nodes than family 1.
    let hp = dhaar_plus(
        &c,
        &data,
        &MhsParams::new(eps, 1.0).unwrap(),
        &DhpConfig {
            base_leaves: 128,
            fan_in: 4,
        },
    )
    .unwrap();
    assert!(hp.actual_error <= eps + 1e-9);
    assert!(hp.size <= mhs.size, "Haar+ {} > Haar {}", hp.size, mhs.size);

    // Family 3: MinRelVar (budget-indexed probabilistic DP).
    let mrv = dmin_rel_var(
        &c,
        &data,
        n / 8,
        &DmrvConfig {
            base_leaves: 128,
            fan_in: 4,
            params: MrvParams::new(2, 1.0).unwrap(),
            seed: 9,
        },
    )
    .unwrap();
    assert!(mrv.expected_size <= (n / 8) as f64 + 1e-9);
    assert!(mrv.nse_bound.is_finite());

    // All three ran real multi-stage job chains.
    for (name, jobs) in [
        ("DMHaarSpace", mhs.metrics.job_count()),
        ("DHaarPlus", hp.metrics.job_count()),
        ("DMinRelVar", mrv.metrics.job_count()),
    ] {
        assert!(jobs >= 3, "{name} ran only {jobs} jobs");
    }
}

#[test]
fn budget_edges_on_nyct() {
    let n = 1 << 10;
    let data = nyct_like(n, 0.0, 103);
    let c = cluster();

    // b = 1: a single coefficient must be the grand average region.
    let one = dgreedy_abs(
        &c,
        &data,
        1,
        &DGreedyAbsConfig {
            base_leaves: 128,
            bucket_width: 1.0,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    assert!(one.synopsis.size() <= 1);

    // b = n: lossless.
    let all = dgreedy_abs(
        &c,
        &data,
        n,
        &DGreedyAbsConfig {
            base_leaves: 128,
            bucket_width: 1e-9,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    assert!(max_abs(&data, &all.synopsis.reconstruct_all()) < 1e-6);

    // DIndirectHaar with a tiny budget still terminates and respects it.
    let tiny = dindirect_haar(
        &c,
        &data,
        2,
        &DIndirectHaarConfig {
            delta: 50.0,
            probe: DmhsConfig {
                base_leaves: 128,
                fan_in: 4,
            },
        },
    )
    .unwrap();
    assert!(tiny.synopsis.size() <= 2);
    assert!(tiny.error.is_finite());
}

/// Degenerate shapes through all four entry points of the framework: every
/// `(n, base_leaves, fan_in)` either answers exactly as the centralized
/// solver does or is refused with a typed error — never a panic. (At
/// `n = 1` all four used to panic in `clamp(2, n)`.)
#[test]
fn degenerate_shapes_match_the_centralized_solvers_or_fail_typed() {
    use dwmaxerr::algos::haar_plus::haar_plus_min_space;
    use dwmaxerr::algos::indirect_haar::indirect_haar_centralized;
    use dwmaxerr::algos::min_haar_space::min_haar_space;
    use dwmaxerr::algos::min_rel_var::min_rel_var;
    use dwmaxerr::core::CoreError;

    fn refused<T: std::fmt::Debug>(r: Result<T, CoreError>, tag: &str) {
        assert!(
            matches!(r, Err(CoreError::Wavelet(_) | CoreError::Protocol(_))),
            "{tag}: expected a typed shape error, got {r:?}"
        );
    }

    let c = cluster();
    let values = [5.0, 1.0, 7.5, 3.0, 9.0, 2.0];
    let params = MhsParams::new(1.0, 0.5).unwrap();
    let (mrv, seed, b) = (MrvParams::new(2, 1.0).unwrap(), 3, 2);
    for n in [0usize, 1, 2, 4, 6] {
        let data = &values[..n];
        for base_leaves in [0, 1, 3, n, 2 * n] {
            for fan_in in [0usize, 1, 3, 64] {
                let tag = format!("n={n} base_leaves={base_leaves} fan_in={fan_in}");
                let probe = DmhsConfig {
                    base_leaves,
                    fan_in,
                };
                let mhs = dmin_haar_space(&c, data, &params, &probe);
                let hp = dhaar_plus(
                    &c,
                    data,
                    &params,
                    &DhpConfig {
                        base_leaves,
                        fan_in,
                    },
                );
                let rv = dmin_rel_var(
                    &c,
                    data,
                    b,
                    &DmrvConfig {
                        base_leaves,
                        fan_in,
                        params: mrv,
                        seed,
                    },
                );
                let dih_cfg = DIndirectHaarConfig { delta: 0.5, probe };
                let dih = dindirect_haar(&c, data, b, &dih_cfg);

                // One value is answered whatever the shape; a tree needs
                // power-of-two `n`, clamped `base_leaves` and `fan_in`.
                let answered = n == 1
                    || (n.is_power_of_two()
                        && base_leaves.clamp(2, n).is_power_of_two()
                        && fan_in.max(2).is_power_of_two());
                if !answered {
                    refused(mhs, &tag);
                    refused(hp, &tag);
                    refused(rv, &tag);
                    refused(dih, &tag);
                    continue;
                }
                let (mhs, hp, rv, dih) = (mhs.unwrap(), hp.unwrap(), rv.unwrap(), dih.unwrap());
                assert_eq!(
                    mhs.size,
                    min_haar_space(data, &params).unwrap().size,
                    "{tag}"
                );
                assert_eq!(
                    hp.size,
                    haar_plus_min_space(data, &params).unwrap().size,
                    "{tag}"
                );
                let central = min_rel_var(data, b, &mrv, seed).unwrap();
                assert!((rv.nse_bound - central.nse_bound).abs() < 1e-9, "{tag}");
                // The two searches start from different bounds (Algorithm 2
                // lines 1-2 are computed distributedly): one quantum of slack.
                let central = indirect_haar_centralized(data, b, 0.5).unwrap();
                assert!(dih.synopsis.size() <= b, "{tag}");
                assert!((dih.error - central.error).abs() <= 0.5 + 1e-9, "{tag}");
                if n == 1 {
                    assert_eq!(mhs.metrics.job_count(), 0, "{tag}: one value runs no job");
                    assert_eq!(dih.error, central.error, "{tag}");
                }
            }
        }
    }
}
