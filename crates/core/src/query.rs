//! Point and range-sum queries over synopses, with guaranteed error
//! bounds attached to every answer.
//!
//! A thresholded synopsis is only useful to a consumer if each answer
//! says *how wrong it can be*. This module defines the error-bound
//! contract shared by the one-shot CLI, the examples, and the sharded
//! serving layer (`dwmaxerr-serve`):
//!
//! * [`ErrorBound`] — what the *build* guarantees about the synopsis:
//!   an absolute per-point bound (`err_abs`), a relative per-point bound
//!   (`err_rel` with its sanity constant), either, both, or neither (the
//!   conventional L2 synopsis guarantees nothing per point). The builders
//!   that promise one hand it over with their result:
//!   [`DGreedyAbsResult::bound`](crate::dgreedy_abs::DGreedyAbsResult::bound)
//!   and the incremental maintainer's
//!   [`DGreedyAbsUpdate::bound`](crate::progressive::DGreedyAbsUpdate::bound)
//!   (the error estimate widened by one histogram bucket `e_b`, a widening
//!   written once, in the crate-private `errhist::Shape::abs_bound` both
//!   call), and [`DGreedyRelResult::bound`](crate::dgreedy_rel::DGreedyRelResult::bound)
//!   (the measured error, exact, so not widened).
//! * [`Answer`] — one query result: the value, the bound scaled to
//!   *this* query, and the snapshot version it was computed from.
//! * [`ErrorBound::answer`] — the one place a bound is scaled to a query;
//!   the reference evaluators below and the sharded store both call it.
//! * [`point_answer`] / [`range_answer`] — the reference (unsharded)
//!   query evaluators over a plain [`Synopsis`]. The sharded store in
//!   `dwmaxerr-serve` must agree with these up to floating-point
//!   summation order.
//!
//! # How bounds scale per query
//!
//! For a **point query** `d̂_x` the build guarantees transfer directly:
//! `|d̂_x - d_x| <= err_abs` and `|d̂_x - d_x| <= err_rel ·
//! max(|d_x|, sanity)`.
//!
//! For a **range sum** `d̂(l:h)` the absolute bound composes additively:
//! each of the `h - l + 1` reconstructed points is off by at most
//! `err_abs`, so the sum is off by at most `(h - l + 1) · err_abs`. The
//! relative bound does **not** compose without knowing the data (the
//! per-point slack `err_rel · max(|d_j|, sanity)` depends on every
//! `|d_j|` in the range), so range answers carry `err_rel: None` — this
//! asymmetry is part of the contract, not an implementation gap.

use dwmaxerr_wavelet::reconstruct::range_sum_synopsis;
use dwmaxerr_wavelet::Synopsis;

/// The per-point guarantee a synopsis build established, attached to the
/// synopsis when it enters a serving layer.
///
/// Both bounds are *upper* bounds: a missing bound (`None`) means the
/// build made no such promise, not that the error is zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorBound {
    /// Guaranteed maximum absolute error per reconstructed point
    /// (Eq. 2): `|d̂_j - d_j| <= err_abs` for every `j`.
    pub err_abs: Option<f64>,
    /// Guaranteed maximum relative error per reconstructed point
    /// (Eq. 3): `|d̂_j - d_j| <= err_rel · max(|d_j|, sanity)`.
    pub err_rel: Option<RelBound>,
}

/// A relative-error guarantee together with the sanity constant it was
/// established against (Eq. 3's `s`; without it a relative bound is
/// meaningless on near-zero data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelBound {
    /// The guaranteed maximum relative error.
    pub epsilon: f64,
    /// The sanity constant `s > 0` of Eq. 3.
    pub sanity: f64,
}

impl ErrorBound {
    /// No guarantee at all (the conventional / L2 synopsis).
    pub fn none() -> Self {
        ErrorBound::default()
    }

    /// An absolute-only guarantee.
    pub fn abs(err_abs: f64) -> Self {
        ErrorBound {
            err_abs: Some(err_abs),
            err_rel: None,
        }
    }

    /// A relative-only guarantee with its sanity constant.
    pub fn rel(epsilon: f64, sanity: f64) -> Self {
        ErrorBound {
            err_abs: None,
            err_rel: Some(RelBound { epsilon, sanity }),
        }
    }

    /// True when neither bound is present.
    pub fn is_none(&self) -> bool {
        self.err_abs.is_none() && self.err_rel.is_none()
    }

    /// The answer `value` to a query over `range_width` points (`None`
    /// for a point query), stamped with `version`, carrying this bound
    /// scaled to the query: a point keeps both per-point bounds; a range
    /// sum of `w` points gets `w · err_abs` and no relative bound (see the
    /// module docs).
    #[inline]
    pub fn answer(&self, value: f64, range_width: Option<usize>, version: u64) -> Answer {
        let (err_abs, err_rel) = match range_width {
            None => (self.err_abs, self.err_rel),
            Some(width) => (self.err_abs.map(|e| e * width as f64), None),
        };
        Answer {
            value,
            err_abs,
            err_rel,
            version,
        }
    }
}

/// One query answer: the reconstructed value plus the error bound scaled
/// to this specific query (see the module docs for the scaling rules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The reconstructed value (point) or reconstructed sum (range).
    pub value: f64,
    /// Guaranteed absolute bound for **this** answer: per-point
    /// `err_abs` for point queries, `(h - l + 1) · err_abs` for range
    /// sums. `None` when the build made no absolute promise.
    pub err_abs: Option<f64>,
    /// Guaranteed relative bound for this answer. Point queries inherit
    /// the build's [`RelBound`]; range sums always carry `None`.
    pub err_rel: Option<RelBound>,
    /// Version of the snapshot the answer was computed from (0 for
    /// direct evaluation outside a versioned store).
    pub version: u64,
}

impl Answer {
    /// Checks the answer against the true value `exact`: true when
    /// `|value - exact|` is within every bound the answer carries —
    /// `err_abs`, and `err_rel · max(|exact|, sanity)` — each widened by
    /// the absolute `slack` that absorbs floating-point noise. An answer
    /// without bounds holds for any `exact`.
    pub fn bounds_hold(&self, exact: f64, slack: f64) -> bool {
        let diff = (self.value - exact).abs();
        if let Some(b) = self.err_abs {
            if diff > b + slack {
                return false;
            }
        }
        if let Some(RelBound { epsilon, sanity }) = self.err_rel {
            if diff > epsilon * exact.abs().max(sanity) + slack {
                return false;
            }
        }
        true
    }
}

/// Reference point query: reconstructs `d̂_x` from the synopsis in
/// `O(log n + log B)` and attaches the build's per-point bound.
///
/// # Panics
/// Panics when `x >= synopsis.data_len()`.
pub fn point_answer(synopsis: &Synopsis, bound: &ErrorBound, x: usize) -> Answer {
    assert!(x < synopsis.data_len(), "point query out of range");
    bound.answer(synopsis.reconstruct_value(x), None, 0)
}

/// Reference range-sum query: reconstructs `d̂(l:h)` (inclusive) via the
/// path-union rule of Section 2.2 and attaches the additively-composed
/// absolute bound.
///
/// # Panics
/// Panics when `l > h` or `h >= synopsis.data_len()`.
pub fn range_answer(synopsis: &Synopsis, bound: &ErrorBound, l: usize, h: usize) -> Answer {
    assert!(
        l <= h && h < synopsis.data_len(),
        "range query out of range"
    );
    bound.answer(range_sum_synopsis(synopsis, l, h), Some(h - l + 1), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn paper_synopsis() -> Synopsis {
        let w = forward(&PAPER_DATA).unwrap();
        Synopsis::retain_indices(&w, &[0, 3, 5]).unwrap()
    }

    #[test]
    fn point_answers_carry_the_per_point_bound() {
        let syn = paper_synopsis();
        let approx = syn.reconstruct_all();
        let max_abs = dwmaxerr_wavelet::metrics::max_abs(&PAPER_DATA, &approx);
        let bound = ErrorBound::abs(max_abs);
        for (j, &d) in PAPER_DATA.iter().enumerate() {
            let a = point_answer(&syn, &bound, j);
            assert_eq!(a.value, approx[j]);
            assert_eq!(a.err_abs, Some(max_abs));
            assert!(a.bounds_hold(d, 1e-12), "point {j}");
        }
    }

    #[test]
    fn range_answers_scale_the_absolute_bound() {
        let syn = paper_synopsis();
        let approx = syn.reconstruct_all();
        let max_abs = dwmaxerr_wavelet::metrics::max_abs(&PAPER_DATA, &approx);
        let bound = ErrorBound {
            err_abs: Some(max_abs),
            err_rel: Some(RelBound {
                epsilon: 0.5,
                sanity: 1.0,
            }),
        };
        for l in 0..8 {
            for h in l..8 {
                let a = range_answer(&syn, &bound, l, h);
                let exact: f64 = PAPER_DATA[l..=h].iter().sum();
                assert_eq!(a.err_abs, Some(max_abs * (h - l + 1) as f64));
                assert_eq!(a.err_rel, None, "relative bounds never scale to ranges");
                assert!(a.bounds_hold(exact, 1e-9), "range {l}..={h}");
            }
        }
    }

    #[test]
    fn relative_bounds_hold_with_sanity_floor() {
        let syn = paper_synopsis();
        let approx = syn.reconstruct_all();
        let sanity = 2.0;
        let eps = dwmaxerr_wavelet::metrics::max_rel(&PAPER_DATA, &approx, sanity);
        let bound = ErrorBound::rel(eps, sanity);
        for (j, &d) in PAPER_DATA.iter().enumerate() {
            let a = point_answer(&syn, &bound, j);
            assert!(a.bounds_hold(d, 1e-12), "point {j}");
        }
    }

    #[test]
    fn bounds_hold_rejects_violations() {
        let a = Answer {
            value: 10.0,
            err_abs: Some(1.0),
            err_rel: None,
            version: 0,
        };
        assert!(a.bounds_hold(9.5, 0.0));
        assert!(!a.bounds_hold(8.0, 0.0));
        let r = Answer {
            value: 10.0,
            err_abs: None,
            err_rel: Some(RelBound {
                epsilon: 0.1,
                sanity: 1.0,
            }),
            version: 0,
        };
        assert!(r.bounds_hold(9.5, 0.0)); // 0.5 <= 0.1 * 9.5
        assert!(!r.bounds_hold(5.0, 0.0));
    }

    #[test]
    fn none_bound_promises_nothing_and_never_fails() {
        let syn = paper_synopsis();
        let bound = ErrorBound::none();
        assert!(bound.is_none());
        let a = point_answer(&syn, &bound, 0);
        assert_eq!(a.err_abs, None);
        assert!(a.bounds_hold(f64::MAX, 0.0));
    }
}
