//! GreedyRel \[22\]: the greedy heuristic for maximum *relative* error
//! with a sanity bound (Section 5.4).
//!
//! The four signed-error extrema of GreedyAbs cannot drive `MR_k` (Eq. 10)
//! because each leaf has its own denominator `m_j = max(|d_j|, S)`. Instead
//! each internal node maintains the **upper envelope of lines**
//!
//! ```text
//! F_i(x) = max over leaves j in T_i of |err_j + x| / m_j
//!        = upper envelope of lines (±1/m_j) · x + (±err_j/m_j)
//! ```
//!
//! so that `MR_k = max(F_left(-c_k), F_right(+c_k))` and the running
//! maximum relative error is `F_root(0)`. A removal shifts the signed
//! errors of a whole subtree uniformly, which translates every line of the
//! affected envelopes in `x` (`intercept += slope · shift`) *without
//! changing hull membership*; only the removed node's ancestors need their
//! envelopes re-merged. Leaves sharing a denominator collapse onto shared
//! hull lines, keeping envelopes far smaller than leaf counts in practice
//! — this is why GreedyRel, like GreedyAbs, behaves near-linearly despite
//! a super-linear worst case.
//!
//! The next discard is read off the same tournament as in
//! [`crate::greedy_abs`]: every node keeps the smallest `(MR, id)` of its
//! sub-tree, refreshed children first on the way down a shifted sub-tree
//! and on the ancestor walk that re-merges the envelopes.

use dwmaxerr_wavelet::{Synopsis, WaveletError};

use crate::greedy_abs::{best_prefix, synopsis_without, Candidate, Removal};

/// A line `y = slope * x + icept`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    slope: f64,
    icept: f64,
}

impl Line {
    #[inline]
    fn at(&self, x: f64) -> f64 {
        self.slope * x + self.icept
    }
}

/// Upper envelope of a set of lines, stored as the convex hull sorted by
/// ascending slope.
#[derive(Debug, Clone, Default)]
struct Envelope {
    hull: Vec<Line>,
}

impl Envelope {
    /// Builds the envelope from lines (need not be sorted).
    fn build(mut lines: Vec<Line>) -> Self {
        // Total order: non-finite data must not panic the sort.
        lines.sort_unstable_by(|a, b| {
            a.slope
                .total_cmp(&b.slope)
                .then(a.icept.total_cmp(&b.icept))
        });
        Self::from_sorted(lines.into_iter())
    }

    /// Builds from lines already sorted by ascending slope.
    fn from_sorted(lines: impl Iterator<Item = Line>) -> Self {
        let mut hull: Vec<Line> = Vec::new();
        for line in lines {
            if let Some(last) = hull.last() {
                if (last.slope - line.slope).abs() < 1e-15 {
                    if line.icept <= last.icept {
                        continue;
                    }
                    hull.pop();
                }
            }
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // b is dominated iff the a/b intersection is not left of the
                // b/line intersection.
                if (a.icept - b.icept) * (line.slope - b.slope)
                    >= (b.icept - line.icept) * (b.slope - a.slope)
                {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(line);
        }
        Envelope { hull }
    }

    /// Merges two envelopes into the envelope of their union.
    fn merge(a: &Envelope, b: &Envelope) -> Envelope {
        let mut lines = Vec::with_capacity(a.hull.len() + b.hull.len());
        let (mut i, mut j) = (0, 0);
        while i < a.hull.len() && j < b.hull.len() {
            if a.hull[i].slope <= b.hull[j].slope {
                lines.push(a.hull[i]);
                i += 1;
            } else {
                lines.push(b.hull[j]);
                j += 1;
            }
        }
        lines.extend_from_slice(&a.hull[i..]);
        lines.extend_from_slice(&b.hull[j..]);
        Envelope::from_sorted(lines.into_iter())
    }

    /// Translates the envelope in x: `F(x) -> F(x + dx)`.
    fn shift(&mut self, dx: f64) {
        for line in &mut self.hull {
            line.icept += line.slope * dx;
        }
    }

    /// Evaluates the envelope at `x` (binary search over the hull).
    fn eval(&self, x: f64) -> f64 {
        debug_assert!(!self.hull.is_empty());
        let (mut lo, mut hi) = (0usize, self.hull.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.hull[mid].at(x) < self.hull[mid + 1].at(x) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.hull[lo].at(x)
    }

    #[inline]
    fn len(&self) -> usize {
        self.hull.len()
    }
}

/// GreedyRel state over a (sub)tree with `m` leaves.
///
/// Node ids mirror [`crate::greedy_abs::GreedyAbs`]: 0 = average slot
/// (full-tree mode only), `1..m` = detail coefficients in heap order.
#[derive(Debug, Clone)]
pub struct GreedyRel {
    m: usize,
    coeff: Vec<f64>,
    /// Signed accumulated error per leaf.
    err: Vec<f64>,
    /// Per-leaf denominator `max(|d_j|, sanity)`.
    denom: Vec<f64>,
    /// Upper envelope per internal node (index 0 unused).
    env: Vec<Envelope>,
    alive: Vec<bool>,
    /// Retained nodes per sub-tree, its root included.
    live: Vec<u32>,
    /// The smallest `(MR, id)` among the retained nodes of each sub-tree:
    /// the tournament of [`crate::greedy_abs`], kept beside the envelopes.
    best: Vec<Candidate>,
}

impl GreedyRel {
    /// Full error tree: `coeffs` (with `c_0`) over the original `data`.
    pub fn new_full(coeffs: &[f64], data: &[f64], sanity: f64) -> Result<Self, WaveletError> {
        dwmaxerr_wavelet::error::ensure_pow2(coeffs.len())?;
        if coeffs.len() != data.len() {
            return Err(WaveletError::NotPowerOfTwo(data.len()));
        }
        if sanity.is_nan() || sanity <= 0.0 {
            return Err(WaveletError::NonPositiveParameter("sanity"));
        }
        Ok(Self::build(coeffs.to_vec(), data, true, 0.0, sanity))
    }

    /// Base sub-tree: `details` in local heap order over the subtree's
    /// `data` leaves, with a uniform incoming signed error.
    pub fn new_subtree(
        details: &[f64],
        data: &[f64],
        incoming_err: f64,
        sanity: f64,
    ) -> Result<Self, WaveletError> {
        let m = details.len() + 1;
        dwmaxerr_wavelet::error::ensure_pow2(m)?;
        if m < 2 || data.len() != m {
            return Err(WaveletError::NotPowerOfTwo(data.len()));
        }
        if sanity.is_nan() || sanity <= 0.0 {
            return Err(WaveletError::NonPositiveParameter("sanity"));
        }
        let mut coeff = Vec::with_capacity(m);
        coeff.push(0.0);
        coeff.extend_from_slice(details);
        Ok(Self::build(coeff, data, false, incoming_err, sanity))
    }

    fn build(
        coeff: Vec<f64>,
        data: &[f64],
        has_average: bool,
        initial_err: f64,
        sanity: f64,
    ) -> Self {
        let m = coeff.len();
        let denom: Vec<f64> = data.iter().map(|d| d.abs().max(sanity)).collect();
        // A one-leaf tree has no detail node: a discarded stand-in root
        // carries its leaf's envelope.
        let slots = m.max(2);
        let mut state = GreedyRel {
            m,
            coeff,
            err: vec![initial_err; m],
            denom,
            env: vec![Envelope::default(); slots],
            alive: vec![false; slots],
            live: vec![0; slots],
            best: vec![Candidate::NONE; slots],
        };
        state.alive[0] = has_average;
        if m == 1 {
            state.env[1] = Envelope::build(state.leaf_lines(0).to_vec());
        }
        // Build envelopes and the tournament bottom-up.
        for i in (1..m).rev() {
            state.rebuild_env(i);
            state.alive[i] = true;
            state.live[i] = 1;
            if 2 * i < m {
                state.live[i] += state.live[2 * i] + state.live[2 * i + 1];
            }
            state.refresh_best(i);
        }
        state
    }

    #[inline]
    fn leaf_lines(&self, j: usize) -> [Line; 2] {
        let inv = 1.0 / self.denom[j];
        [
            Line {
                slope: inv,
                icept: self.err[j] * inv,
            },
            Line {
                slope: -inv,
                icept: -self.err[j] * inv,
            },
        ]
    }

    #[inline]
    fn level(i: usize) -> u32 {
        usize::BITS - 1 - i.leading_zeros()
    }

    #[inline]
    fn span(&self, i: usize) -> (usize, usize) {
        let l = Self::level(i);
        let width = self.m >> l;
        ((i - (1usize << l)) * width, width)
    }

    /// `F` over the left (or right) child subtree of node `i`, evaluated at
    /// `x`.
    fn eval_side(&self, i: usize, left: bool, x: f64) -> f64 {
        if 2 * i < self.m {
            let child = if left { 2 * i } else { 2 * i + 1 };
            self.env[child].eval(x)
        } else {
            let (start, _) = self.span(i);
            let j = if left { start } else { start + 1 };
            (self.err[j] + x).abs() / self.denom[j]
        }
    }

    /// `MR_k` (Eq. 10): the max potential relative error of discarding `k`.
    #[inline]
    fn mr(&self, k: usize) -> f64 {
        let c = self.coeff[k];
        self.eval_side(k, true, -c).max(self.eval_side(k, false, c))
    }

    /// `MR_0`: discarding the average shifts every leaf by `-c_0`.
    #[inline]
    fn mr_average(&self) -> f64 {
        self.env[1].eval(-self.coeff[0])
    }

    /// The current running maximum relative error.
    pub fn current_error(&self) -> f64 {
        self.env[1].eval(0.0)
    }

    /// Number of coefficients still retained.
    pub fn retained(&self) -> usize {
        self.live[1] as usize + usize::from(self.alive[0])
    }

    /// Total hull lines across all envelopes (exposed for tests/benches:
    /// the practical-efficiency claim rests on this staying small).
    pub fn envelope_lines(&self) -> usize {
        self.env.iter().map(Envelope::len).sum()
    }

    /// Shifts the errors and envelopes of the subtree rooted at `node` by
    /// `delta` and refreshes its `best`s.
    ///
    /// Children first: `mr(i)` evaluates the *children's* envelopes, so
    /// they must already describe the shifted state. Stops below a node
    /// with `live == 0`, whose envelope its parent still merges but under
    /// which nothing is keyed, merged or discarded again.
    fn shift_subtree(&mut self, node: usize, delta: f64) {
        self.env[node].shift(delta);
        if self.live[node] == 0 {
            return;
        }
        if 2 * node < self.m {
            self.shift_subtree(2 * node, delta);
            self.shift_subtree(2 * node + 1, delta);
        } else {
            let (start, _) = self.span(node);
            self.err[start] += delta;
            self.err[start + 1] += delta;
        }
        self.refresh_best(node);
    }

    /// Recomputes `best[i]` from node `i`'s own `MR`, while it is retained,
    /// and its children's `best`s.
    fn refresh_best(&mut self, i: usize) {
        let mut best = if self.alive[i] {
            Candidate::new(self.mr(i), i)
        } else {
            Candidate::NONE
        };
        if 2 * i < self.m {
            best = best.min(self.best[2 * i]).min(self.best[2 * i + 1]);
        }
        self.best[i] = best;
    }

    /// Rebuilds node `i`'s envelope from its children.
    fn rebuild_env(&mut self, i: usize) {
        self.env[i] = if 2 * i < self.m {
            Envelope::merge(&self.env[2 * i], &self.env[2 * i + 1])
        } else {
            let (start, _) = self.span(i);
            let mut lines = Vec::with_capacity(4);
            lines.extend(self.leaf_lines(start));
            lines.extend(self.leaf_lines(start + 1));
            Envelope::build(lines)
        };
    }

    fn discard_detail(&mut self, k: usize) {
        let c = self.coeff[k];
        self.alive[k] = false;
        if 2 * k < self.m {
            self.shift_subtree(2 * k, -c);
            self.shift_subtree(2 * k + 1, c);
        } else {
            let (start, _) = self.span(k);
            self.err[start] -= c;
            self.err[start + 1] += c;
        }
        // Re-merge k and its ancestors from updated children, refreshing
        // the tournament on the same walk.
        let mut a = k;
        while a >= 1 {
            self.rebuild_env(a);
            self.live[a] -= 1;
            self.refresh_best(a);
            a /= 2;
        }
    }

    fn discard_average(&mut self) {
        self.alive[0] = false;
        self.shift_subtree(1, -self.coeff[0]);
    }

    /// Discards the node with the smallest `MR`.
    pub fn step(&mut self) -> Option<Removal> {
        let mut next = self.best[1];
        if self.alive[0] {
            next = next.min(Candidate::new(self.mr_average(), 0));
        }
        if next == Candidate::NONE {
            return None;
        }
        let k = next.id();
        if k == 0 {
            self.discard_average();
        } else {
            self.discard_detail(k);
        }
        Some(Removal {
            node: k as u32,
            error_after: self.current_error(),
        })
    }

    /// Runs until no coefficient remains, returning the removal sequence.
    pub fn run_to_empty(&mut self) -> Vec<Removal> {
        let mut out = Vec::with_capacity(self.retained());
        while let Some(r) = self.step() {
            out.push(r);
        }
        out
    }
}

/// Complete GreedyRel thresholding: best synopsis with at most `b`
/// coefficients minimizing max relative error (sanity bound `sanity`).
pub fn greedy_rel_synopsis(
    coeffs: &[f64],
    data: &[f64],
    b: usize,
    sanity: f64,
) -> Result<(Synopsis, f64), WaveletError> {
    let n = coeffs.len();
    let mut state = GreedyRel::new_full(coeffs, data, sanity)?;
    let trace = state.run_to_empty();
    let (t, err) = best_prefix(&trace, n, b);
    Ok((synopsis_without(coeffs, &trace[..t])?, err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::metrics::max_rel;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    #[test]
    fn envelope_matches_bruteforce_eval() {
        let lines = vec![
            Line {
                slope: 1.0,
                icept: 0.0,
            },
            Line {
                slope: -1.0,
                icept: 0.0,
            },
            Line {
                slope: 0.5,
                icept: 2.0,
            },
            Line {
                slope: -0.25,
                icept: 3.0,
            },
            Line {
                slope: 0.5,
                icept: 1.0,
            }, // dominated duplicate slope
        ];
        let env = Envelope::build(lines.clone());
        for xi in -50..=50 {
            let x = xi as f64 / 5.0;
            let expect = lines.iter().map(|l| l.at(x)).fold(f64::MIN, f64::max);
            assert!((env.eval(x) - expect).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn envelope_merge_equals_build() {
        let a = Envelope::build(vec![
            Line {
                slope: 1.0,
                icept: 0.0,
            },
            Line {
                slope: -2.0,
                icept: 1.0,
            },
        ]);
        let b = Envelope::build(vec![
            Line {
                slope: 0.0,
                icept: 0.5,
            },
            Line {
                slope: 3.0,
                icept: -4.0,
            },
        ]);
        let merged = Envelope::merge(&a, &b);
        for xi in -40..=40 {
            let x = xi as f64 / 4.0;
            let expect = a.eval(x).max(b.eval(x));
            assert!((merged.eval(x) - expect).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn envelope_shift_translates() {
        let mut env = Envelope::build(vec![
            Line {
                slope: 1.0,
                icept: 0.0,
            },
            Line {
                slope: -1.0,
                icept: 2.0,
            },
        ]);
        let before = env.eval(1.5);
        env.shift(0.5);
        assert!((env.eval(1.0) - before).abs() < 1e-12);
    }

    /// Tracked relative errors must match a brute-force evaluation after
    /// every removal.
    fn check_trace(data: &[f64], sanity: f64) {
        let w = forward(data).unwrap();
        let n = w.len();
        let mut g = GreedyRel::new_full(&w, data, sanity).unwrap();
        let trace = g.run_to_empty();
        assert_eq!(trace.len(), n);
        let mut removed = std::collections::HashSet::new();
        for r in &trace {
            removed.insert(r.node);
            let retained: Vec<u32> = (0..n as u32).filter(|i| !removed.contains(i)).collect();
            let syn = Synopsis::retain_indices(&w, &retained).unwrap();
            let actual = max_rel(data, &syn.reconstruct_all(), sanity);
            assert!(
                (r.error_after - actual).abs() < 1e-9,
                "tracked {} vs actual {} after {:?}",
                r.error_after,
                actual,
                removed
            );
        }
    }

    #[test]
    fn tracked_errors_match_bruteforce() {
        check_trace(&PAPER_DATA, 1.0);
        check_trace(&PAPER_DATA, 5.0);
        check_trace(&[1.0, 1000.0, 2.0, 999.0], 0.5);
        check_trace(&[0.0, 0.0, 0.0, 0.0], 1.0);
        check_trace(&[7.0, -3.0], 2.0);
    }

    #[test]
    fn synopsis_respects_budget() {
        let w = forward(&PAPER_DATA).unwrap();
        for b in 0..=8 {
            let (syn, err) = greedy_rel_synopsis(&w, &PAPER_DATA, b, 1.0).unwrap();
            assert!(syn.size() <= b);
            let actual = max_rel(&PAPER_DATA, &syn.reconstruct_all(), 1.0);
            assert!((actual - err).abs() < 1e-9, "b={b}");
        }
    }

    #[test]
    fn prefers_protecting_small_values() {
        // Relative error weights small data values; with data mixing tiny
        // and huge values, GreedyRel must achieve a better max_rel than
        // GreedyAbs at the same budget (that is its purpose).
        let data = [1.0, 1.0, 1.0, 1.5, 1000.0, 2000.0, 1500.0, 800.0];
        let w = forward(&data).unwrap();
        let b = 3;
        let (_, rel_err) = greedy_rel_synopsis(&w, &data, b, 0.1).unwrap();
        let (abs_syn, _) = crate::greedy_abs::greedy_abs_synopsis(&w, b).unwrap();
        let abs_rel = max_rel(&data, &abs_syn.reconstruct_all(), 0.1);
        assert!(
            rel_err <= abs_rel + 1e-9,
            "GreedyRel {rel_err} should not lose to GreedyAbs {abs_rel} on max_rel"
        );
    }

    #[test]
    fn subtree_mode_matches_manual() {
        // 2 leaves, detail [4], data [10, 2], incoming err 1, sanity 1.
        let mut g = GreedyRel::new_subtree(&[4.0], &[10.0, 2.0], 1.0, 1.0).unwrap();
        // current: |1|/10 vs |1|/2 = 0.5.
        assert!((g.current_error() - 0.5).abs() < 1e-12);
        let r = g.step().unwrap();
        assert_eq!(r.node, 1);
        // After removal: err = [1-4, 1+4] = [-3, 5]; rel = max(0.3, 2.5).
        assert!((r.error_after - 2.5).abs() < 1e-12);
    }

    #[test]
    fn one_coefficient_tree() {
        // Only the average: MR_0 = |err_0 - c_0| / m_0 = 5 / 5.
        let mut g = GreedyRel::new_full(&[5.0], &[5.0], 1.0).unwrap();
        assert_eq!(g.retained(), 1);
        assert_eq!(g.current_error(), 0.0);
        let r = g.step().unwrap();
        assert_eq!(r.node, 0);
        assert!((r.error_after - 1.0).abs() < 1e-12);
        assert!(g.step().is_none());

        let (kept, err) = greedy_rel_synopsis(&[5.0], &[5.0], 1, 1.0).unwrap();
        assert_eq!((kept.size(), err), (1, 0.0));
        let (dropped, err) = greedy_rel_synopsis(&[5.0], &[5.0], 0, 1.0).unwrap();
        assert_eq!(dropped.size(), 0);
        assert!((err - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_params() {
        let w = forward(&PAPER_DATA).unwrap();
        assert!(GreedyRel::new_full(&w, &PAPER_DATA, 0.0).is_err());
        assert!(GreedyRel::new_full(&w[..4], &PAPER_DATA, 1.0).is_err());
        assert!(GreedyRel::new_subtree(&[1.0], &[1.0], 0.0, 1.0).is_err());
    }

    #[test]
    fn envelopes_stay_compact_on_repetitive_data() {
        // 64 leaves with only two distinct magnitudes: hull lines collapse.
        let data: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 5.0 } else { 80.0 })
            .collect();
        let w = forward(&data).unwrap();
        let g = GreedyRel::new_full(&w, &data, 1.0).unwrap();
        // Root envelope covers 64 leaves but only needs ≤ 4 lines.
        assert!(g.env[1].len() <= 4, "root hull {} lines", g.env[1].len());
    }
}
