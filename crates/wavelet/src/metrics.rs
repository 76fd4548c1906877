//! Aggregate error metrics for synopsis quality (Section 2.3, Eq. 1-3).

use crate::synopsis::Synopsis;

/// Mean squared error `L2 = sqrt(1/N * sum (d_hat - d)^2)` (Eq. 1).
pub fn l2(data: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(data.len(), approx.len());
    let n = data.len() as f64;
    let sum: f64 = data
        .iter()
        .zip(approx)
        .map(|(d, a)| (a - d) * (a - d))
        .sum();
    (sum / n).sqrt()
}

/// The larger of two errors, NaN when either is: one step of a maximum
/// that an unmeasurable cell poisons, where `f64::max` would drop it and
/// report the largest error of the *other* cells as if it bounded all.
#[inline]
pub fn max_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Maximum absolute error `max |d_hat - d|` (Eq. 2); NaN when any cell's
/// error is.
pub fn max_abs(data: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(data.len(), approx.len());
    data.iter()
        .zip(approx)
        .map(|(d, a)| (a - d).abs())
        .fold(0.0, max_or_nan)
}

/// Maximum relative error with sanity bound `s`:
/// `max |d_hat - d| / max(|d|, s)` (Eq. 3). `s` must be positive to prevent
/// division by zero on zero-valued data. NaN when any cell's error is.
pub fn max_rel(data: &[f64], approx: &[f64], s: f64) -> f64 {
    assert_eq!(data.len(), approx.len());
    assert!(s > 0.0, "sanity bound must be positive");
    data.iter()
        .zip(approx)
        .map(|(d, a)| (a - d).abs() / d.abs().max(s))
        .fold(0.0, max_or_nan)
}

/// Convenience bundle of all three metrics for a synopsis against the
/// original data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorReport {
    /// Root-mean-squared error (Eq. 1).
    pub l2: f64,
    /// Maximum absolute error (Eq. 2).
    pub max_abs: f64,
    /// Maximum relative error with sanity bound (Eq. 3).
    pub max_rel: f64,
}

/// Evaluates a synopsis against the original data (reconstructing once).
pub fn evaluate(data: &[f64], synopsis: &Synopsis, sanity: f64) -> ErrorReport {
    let approx = synopsis.reconstruct_all();
    ErrorReport {
        l2: l2(data, &approx),
        max_abs: max_abs(data, &approx),
        max_rel: max_rel(data, &approx, sanity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::forward;

    #[test]
    fn zero_error_for_identical() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(l2(&d, &d), 0.0);
        assert_eq!(max_abs(&d, &d), 0.0);
        assert_eq!(max_rel(&d, &d, 1.0), 0.0);
    }

    #[test]
    fn known_values() {
        let d = [0.0, 0.0, 0.0, 0.0];
        let a = [1.0, -1.0, 2.0, 0.0];
        assert!((l2(&d, &a) - (6.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(max_abs(&d, &a), 2.0);
        // sanity bound 1 dominates |d| = 0 everywhere.
        assert_eq!(max_rel(&d, &a, 1.0), 2.0);
        assert_eq!(max_rel(&d, &a, 4.0), 0.5);
    }

    #[test]
    fn max_abs_propagates_a_nan_cell() {
        // `fold(0.0, f64::max)` read this as 2.0: the NaN cell's error was
        // dropped and the rest advertised as a bound over all four.
        let d = [0.0, f64::NAN, 0.0, 0.0];
        let a = [1.0, 5.0, -2.0, 0.0];
        assert!(max_abs(&d, &a).is_nan());
        assert!(max_abs(&a, &d).is_nan(), "NaN approximation");
        assert!(max_abs(&[f64::NAN], &[f64::NAN]).is_nan());
        // An infinite error is a number and stays one.
        assert_eq!(max_abs(&[0.0, f64::INFINITY], &[1.0, 0.0]), f64::INFINITY);
        assert_eq!(max_abs(&[], &[]), 0.0);
    }

    #[test]
    fn max_rel_propagates_a_nan_cell() {
        let d = [0.0, f64::NAN, 0.0, 10.0];
        let a = [1.0, 5.0, -2.0, 10.0];
        assert!(max_rel(&d, &a, 1.0).is_nan());
        assert!(max_rel(&a, &d, 1.0).is_nan(), "NaN approximation");
        // ∞ / ∞: the datum is infinite and so is its error.
        assert!(max_rel(&[f64::INFINITY], &[0.0], 1.0).is_nan());
        assert_eq!(
            max_rel(&[0.0, 4.0], &[f64::INFINITY, 4.0], 1.0),
            f64::INFINITY
        );
    }

    #[test]
    fn sanity_bound_damps_small_values() {
        let d = [1.0, 100.0];
        let a = [2.0, 100.0];
        // Without a meaningful bound the relative error is 100%.
        assert!((max_rel(&d, &a, 0.001) - 1.0).abs() < 1e-9);
        // A sanity bound of 10 shrinks it to 10%.
        assert!((max_rel(&d, &a, 10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn evaluate_paper_example() {
        let data = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
        let w = forward(&data).unwrap();
        let syn = crate::Synopsis::retain_indices(&w, &[0, 3, 5]).unwrap();
        let report = evaluate(&data, &syn, 1.0);
        // Reconstruction: [7,7,-6,20,10,4,6,6] -> max |err| at d_4: |10-1|=9? Let's trust max_abs.
        let approx = syn.reconstruct_all();
        assert_eq!(report.max_abs, max_abs(&data, &approx));
        assert!(report.max_abs > 0.0);
        assert!(report.l2 > 0.0);
        assert!(report.l2 <= report.max_abs);
    }

    #[test]
    #[should_panic]
    fn max_rel_rejects_zero_sanity() {
        max_rel(&[1.0], &[1.0], 0.0);
    }
}
