//! IndirectHaar \[24\]: solving Problem 1 (best error under a space budget)
//! by binary search over error bounds, each probe a Problem-2 solve
//! (Algorithm 2 of the SIGMOD'16 paper).
//!
//! The driver is generic over the Problem-2 solver so that the same
//! Algorithm-2 loop powers both the centralized algorithm (probing
//! [`mod@crate::min_haar_space`]) and the distributed DIndirectHaar (probing
//! DMHaarSpace jobs in `dwmaxerr-core`).

use dwmaxerr_wavelet::{ErrorTree, Synopsis};

/// One Problem-2 probe: given an error bound, return the synopsis and its
/// *actual* achieved max-abs error, or `None` when the bound is infeasible
/// under the solver's quantization (e.g. ε < δ/2 leaves some datum with no
/// grid point in range) — the driver treats that like an over-budget
/// answer and searches upward.
pub type ProbeResult<E> = Result<Option<(Synopsis, f64)>, E>;

/// Outcome of the binary search.
#[derive(Debug, Clone)]
pub struct IndirectHaarReport {
    /// The best synopsis found within the budget.
    pub synopsis: Synopsis,
    /// Its actual max-abs error.
    pub error: f64,
    /// Number of Problem-2 probes executed — the dominant cost. Each is a
    /// full MinHaarSpace run here; a distributed probe is a MapReduce job
    /// chain, cut short after its bottom-up jobs when the size they yield
    /// is over budget, since that size is all the search reads of it.
    pub probes: usize,
    /// DP cells the probes computed when they are in-process MinHaarSpace
    /// runs ([`indirect_haar_centralized`]): `2ε/δ + 1` per internal node
    /// per probe. 0 from the generic driver, whose probes report their own
    /// work.
    pub cells: u64,
}

/// Lower/upper error bounds for the search (Algorithm 2, lines 1-2):
/// `e_l` = the (B+1)-largest |coefficient| (removing any B coefficients
/// leaves one of magnitude ≥ e_l un-retained in a restricted synopsis),
/// `e_u` = the max-abs error of the conventional B-term synopsis.
pub fn error_bounds(coeffs: &[f64], data: &[f64], b: usize) -> (f64, f64) {
    let n = coeffs.len();
    let e_l = if b + 1 > n {
        0.0
    } else {
        let mut mags: Vec<f64> = coeffs.iter().map(|c| c.abs()).collect();
        mags.sort_unstable_by(|a, b| b.total_cmp(a));
        mags[b]
    };
    let tree = ErrorTree::from_coefficients(coeffs.to_vec()).expect("valid coeffs");
    let idx = crate::conventional::top_b_normalized(&tree, b);
    let syn = Synopsis::retain_indices(coeffs, &idx).expect("valid indices");
    let e_u = dwmaxerr_wavelet::metrics::max_abs(data, &syn.reconstruct_all());
    (e_l.min(e_u), e_u)
}

/// Algorithm 2: binary search over `[e_low, e_high]` with Problem-2 probes.
///
/// `quantum` is the solver's quantization step δ: probes at bounds closer
/// than δ cannot differ, so it terminates the search and implements the
/// "solve for error strictly below ē" step (line 9) as `ē - δ`.
pub fn indirect_haar<E>(
    b: usize,
    e_low: f64,
    e_high: f64,
    quantum: f64,
    mut probe: impl FnMut(f64) -> ProbeResult<E>,
) -> Result<IndirectHaarReport, E> {
    assert!(quantum > 0.0, "quantum must be positive");
    let (mut lo, mut hi) = (e_low.max(0.0), e_high.max(e_low));
    let mut probes = 0usize;
    // Start from the upper bound, widening until a within-budget feasible
    // solution exists (the conventional-synopsis bound may be unreachable
    // under quantization).
    let mut first = probe(hi)?;
    probes += 1;
    let (mut best_syn, mut best_err) = loop {
        match first {
            Some((s, err)) if s.size() <= b => break (s, err),
            _ => {
                hi = (hi * 2.0).max(quantum);
                first = probe(hi)?;
                probes += 1;
            }
        }
    };

    while hi - lo > quantum {
        let mid = (hi + lo) / 2.0;
        let answer = probe(mid)?;
        probes += 1;
        match answer {
            Some((syn, actual)) if syn.size() <= b => {
                if actual < best_err {
                    best_syn = syn;
                    best_err = actual;
                }
                // Line 9: can we do strictly better than the achieved error?
                let tighter = actual - quantum;
                if tighter <= lo {
                    break;
                }
                let second = probe(tighter)?;
                probes += 1;
                match second {
                    Some((syn2, actual2)) if syn2.size() <= b => {
                        if actual2 < best_err {
                            best_syn = syn2;
                            best_err = actual2;
                        }
                        hi = actual2.min(tighter);
                    }
                    // Achieved error is (quantization-)optimal.
                    _ => break,
                }
            }
            _ => {
                lo = mid;
            }
        }
    }
    Ok(IndirectHaarReport {
        synopsis: best_syn,
        error: best_err,
        probes,
        cells: 0,
    })
}

/// Centralized IndirectHaar over a data array: binary search with
/// [`mod@crate::min_haar_space`] probes.
pub fn indirect_haar_centralized(
    data: &[f64],
    b: usize,
    delta: f64,
) -> Result<IndirectHaarReport, crate::min_haar_space::MhsError> {
    let coeffs = dwmaxerr_wavelet::transform::forward(data)?;
    let (e_l, e_u) = error_bounds(&coeffs, data, b);
    let (internal, mut cells) = ((data.len() as u64).saturating_sub(1), 0u64);
    let mut report = indirect_haar(b, e_l, e_u, delta, |eps| {
        let p = crate::min_haar_space::MhsParams::new(eps.max(0.0), delta)?;
        // Saturating: an edge-case bound can be wider than any row built.
        let width = ((2.0 * p.epsilon / p.delta) as u64).saturating_add(1);
        cells = cells.saturating_add(internal.saturating_mul(width));
        match crate::min_haar_space::min_haar_space(data, &p) {
            Ok(sol) => Ok(Some((sol.synopsis, sol.actual_error))),
            // Quantization infeasibility is a normal search outcome.
            Err(crate::min_haar_space::MhsError::DeltaTooCoarse) => Ok(None),
            Err(e) => Err(e),
        }
    })?;
    report.cells = cells;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::metrics::max_abs;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    #[test]
    fn bounds_are_ordered() {
        let w = forward(&PAPER_DATA).unwrap();
        for b in 0..8 {
            let (lo, hi) = error_bounds(&w, &PAPER_DATA, b);
            assert!(lo <= hi + 1e-12, "b={b}: {lo} > {hi}");
            assert!(lo >= 0.0);
        }
    }

    #[test]
    fn respects_budget_and_beats_conventional() {
        for b in 1..8 {
            let rep = indirect_haar_centralized(&PAPER_DATA, b, 0.25).unwrap();
            assert!(rep.synopsis.size() <= b, "b={b}");
            let actual = max_abs(&PAPER_DATA, &rep.synopsis.reconstruct_all());
            assert!((actual - rep.error).abs() < 1e-9);
            // Must be at least as good as the conventional synopsis.
            let w = forward(&PAPER_DATA).unwrap();
            let conv = crate::conventional::conventional_synopsis(&w, b).unwrap();
            let conv_err = max_abs(&PAPER_DATA, &conv.reconstruct_all());
            assert!(
                rep.error <= conv_err + 1e-9,
                "b={b}: indirect {} vs conventional {conv_err}",
                rep.error
            );
        }
    }

    #[test]
    fn error_shrinks_with_budget() {
        let mut last = f64::INFINITY;
        for b in 1..=8 {
            let rep = indirect_haar_centralized(&PAPER_DATA, b, 0.25).unwrap();
            assert!(rep.error <= last + 0.25 + 1e-9, "b={b}");
            last = last.min(rep.error);
        }
    }

    #[test]
    fn full_budget_reaches_zero_error() {
        let rep = indirect_haar_centralized(&PAPER_DATA, 8, 0.5).unwrap();
        assert!(rep.error <= 0.5 + 1e-9, "error {}", rep.error);
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let rep = indirect_haar_centralized(&PAPER_DATA, 3, 0.5).unwrap();
        assert!(rep.probes <= 20, "{} probes", rep.probes);
        assert!(rep.probes >= 1);
    }

    #[test]
    fn beats_or_matches_greedy_on_paper_data() {
        // The DP search is (quantization-)optimal; GreedyAbs is a
        // heuristic. With a fine grid the DP must never lose by more than
        // the quantization step.
        let w = forward(&PAPER_DATA).unwrap();
        for b in 1..8 {
            let rep = indirect_haar_centralized(&PAPER_DATA, b, 0.125).unwrap();
            let (_, greedy_err) = crate::greedy_abs::greedy_abs_synopsis(&w, b).unwrap();
            assert!(
                rep.error <= greedy_err + 0.25 + 1e-9,
                "b={b}: indirect {} vs greedy {greedy_err}",
                rep.error
            );
        }
    }
}
