//! MinRelVar \[12\] (Garofalakis & Gibbons, SIGMOD 2002): probabilistic
//! wavelet thresholding minimizing maximum relative error via variance
//! control.
//!
//! Every coefficient `c_j` is retained with probability `y_j ∈ (0, 1]` as
//! the *rounded* value `c_j / y_j` (an unbiased estimator), contributing
//! variance `Var_j(y) = c_j² (1 - y) / y` to every leaf under it; a
//! coefficient may also be dropped outright (`y = 0`), contributing its
//! squared deterministic error `c_j²` (the low-bias hybrid of \[12\]'s
//! Section 4.3 — without it, any budget below `#nonzero/q` would be
//! infeasible). The DP minimizes an upper bound on the maximum normalized
//! squared error
//!
//! ```text
//! max over leaves i of  Var(d̂_i) / max(|d_i|, S)²
//! ```
//!
//! by allotting quantized expected space (multiples of `1/q`) over the
//! error tree. Each DP row `M[j]` holds, per space allotment `b`, the
//! 3-tuple the SIGMOD'16 paper describes in its Figure 2: the minimum
//! error `v`, the retention probability `y`, and the left-child allotment
//! `l`. Ancestor variance is propagated through each subtree's *minimum
//! norm* (the \[12\] relaxation), so `v` is an upper bound on the true
//! max-NSE².
//!
//! **Why this matters for the SIGMOD'16 paper**: `M[j]` has `O(B·q)`
//! cells — the budget-dependent row size that makes the Section-4
//! framework's communication `O(N·B·q / 2^h)` and motivates switching to
//! the dual Problem 2 (MinHaarSpace, `O(ε/δ)` rows). The distributed
//! `dmin_rel_var` lets that claim be *measured*.

use dwmaxerr_wavelet::{Synopsis, WaveletError};

/// Quantization and sanity parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrvParams {
    /// Retention probabilities are multiples of `1/q` (the `δ` of \[12\]).
    pub q: u32,
    /// Sanity bound `S > 0` for the per-leaf norm.
    pub sanity: f64,
}

impl MrvParams {
    /// Validates parameters.
    pub fn new(q: u32, sanity: f64) -> Result<Self, WaveletError> {
        if q == 0 {
            return Err(WaveletError::NonPositiveParameter("q"));
        }
        if sanity.is_nan() || sanity <= 0.0 {
            return Err(WaveletError::NonPositiveParameter("sanity"));
        }
        Ok(MrvParams { q, sanity })
    }
}

/// One DP cell: Figure 2's 3-dimensional `M[j, b]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrvCell {
    /// Minimum (upper bound on) max normalized squared error.
    pub v: f64,
    /// Retention-probability units for `c_j` (`y = units / q`).
    pub y: u16,
    /// Space units allotted to the left child.
    pub l: u32,
}

/// A DP row: cells indexed by space allotment `b = 0..cells.len()` units,
/// plus the subtree's minimum norm (needed to scale ancestor variance).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MrvRow {
    /// `min over leaves of max(|d|, S)` for this subtree.
    pub min_norm: f64,
    /// `cells[b].v` is non-increasing in `b`.
    pub cells: Vec<MrvCell>,
}

impl MrvRow {
    /// The error bound at allotment `b` (clamped to the largest cell).
    #[inline]
    pub fn v(&self, b: usize) -> f64 {
        self.cells[b.min(self.cells.len() - 1)].v
    }

    /// The cell at allotment `b` (clamped).
    #[inline]
    pub fn cell(&self, b: usize) -> MrvCell {
        self.cells[b.min(self.cells.len() - 1)]
    }

    /// The replay rule of the top-down pass: entered with `b` space
    /// units, the node keeps `y` probability units and hands its children
    /// `l` and `rem - l`, `rem` clamped exactly as [`combine`] clamped it.
    /// `children` are the rows this one was combined from (`None` above
    /// two data leaves, which take nothing).
    pub fn step(&self, children: Option<(&MrvRow, &MrvRow)>, b: usize) -> (u16, usize, usize) {
        let cell = self.cell(b);
        let joint = children.map_or(0, |(l, r)| l.cells.len() - 1 + r.cells.len() - 1);
        let rem = (b.min(self.cells.len() - 1) - cell.y as usize).min(joint);
        (cell.y, cell.l as usize, rem - cell.l as usize)
    }

    /// The root rule, for the row of node `c_1` under `c_0 = c0` with
    /// `cap` space units in total: `c_0`'s variance reaches every leaf.
    /// Returns `(error bound, c_0's probability units, units for c_1)`.
    pub fn resolve_root(&self, c0: f64, cap: usize, p: &MrvParams) -> (f64, u32, usize) {
        let mut best = (f64::INFINITY, 0u32, 0usize);
        for u in 0..=(p.q as usize).min(cap) as u32 {
            let rem = (cap - u as usize).min(self.cells.len() - 1);
            let v = self.v(rem) + variance(c0, u, p.q) / (self.min_norm * self.min_norm);
            if v < best.0 {
                best = (v, u, rem);
            }
        }
        best
    }
}

/// Variance contribution of retaining `c` with `u` of `q` probability
/// units: `c²(1-y)/y`, or the squared deterministic error `c²` at `u = 0`.
#[inline]
fn variance(c: f64, u: u32, q: u32) -> f64 {
    if c == 0.0 {
        return 0.0;
    }
    if u == 0 {
        c * c
    } else if u >= q {
        0.0
    } else {
        let y = f64::from(u) / f64::from(q);
        c * c * (1.0 - y) / y
    }
}

/// Builds the pseudo-row of a single data leaf: no coefficients below, so
/// every allotment gives error 0; the norm is the leaf's.
fn leaf_row(d: f64, p: &MrvParams) -> MrvRow {
    MrvRow {
        min_norm: d.abs().max(p.sanity),
        cells: vec![MrvCell { v: 0.0, y: 0, l: 0 }; 1],
    }
}

/// Combines children rows through coefficient `c` (the node's own value),
/// producing cells for allotments `0..=cap` units.
pub fn combine(left: &MrvRow, right: &MrvRow, c: f64, cap: usize, p: &MrvParams) -> MrvRow {
    let q = p.q;
    let min_norm = left.min_norm.min(right.min_norm);
    let l_scale = 1.0 / (left.min_norm * left.min_norm);
    let r_scale = 1.0 / (right.min_norm * right.min_norm);
    let mut cells = Vec::with_capacity(cap + 1);
    for b in 0..=cap {
        let mut best = MrvCell {
            v: f64::INFINITY,
            y: 0,
            l: 0,
        };
        let max_u = (q as usize).min(b) as u32;
        for u in 0..=max_u {
            let var = variance(c, u, q);
            // Clamp the remainder to the children's joint capacity: excess
            // expected space buys nothing below this node.
            let rem = (b - u as usize).min(left.cells.len() - 1 + right.cells.len() - 1);
            let l_max = rem.min(left.cells.len() - 1);
            let l_min = rem.saturating_sub(right.cells.len() - 1);
            for bl in l_min..=l_max {
                let score = (left.v(bl) + var * l_scale).max(right.v(rem - bl) + var * r_scale);
                if score < best.v {
                    best = MrvCell {
                        v: score,
                        y: u as u16,
                        l: bl as u32,
                    };
                }
            }
        }
        cells.push(best);
    }
    MrvRow { min_norm, cells }
}

/// All DP rows of a (sub)tree: `rows[i]` for local detail node `i` (heap
/// order; `rows[0]` unused, `rows[1]` = subtree root). `details` are the
/// `m - 1` detail coefficients, `data` the `m` leaf values, and `cap` the
/// maximum space units any row needs.
pub fn subtree_rows(
    details: &[f64],
    data: &[f64],
    cap: usize,
    p: &MrvParams,
) -> Result<Vec<MrvRow>, WaveletError> {
    let m = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(m)?;
    if details.len() + 1 != m {
        return Err(WaveletError::NotPowerOfTwo(details.len() + 1));
    }
    let empty = MrvRow {
        min_norm: 1.0,
        cells: Vec::new(),
    };
    let mut rows = vec![empty; m.max(2)];
    for i in (1..m).rev() {
        // A subtree with `w` leaves holds `w - 1` coefficients: at most
        // `(w - 1) * q` useful units.
        let level = usize::BITS - 1 - i.leading_zeros();
        let width = m >> level;
        let node_cap = cap.min((width - 1) * p.q as usize);
        let row = if 2 * i < m {
            let (l, r) = rows.split_at(2 * i + 1);
            combine(&l[2 * i], &r[0], details[i - 1], node_cap, p)
        } else {
            let base = (i - m / 2) * 2;
            let lrow = leaf_row(data[base], p);
            let rrow = leaf_row(data[base + 1], p);
            combine(&lrow, &rrow, details[i - 1], node_cap, p)
        };
        rows[i] = row;
    }
    Ok(rows)
}

/// Result of a MinRelVar run.
#[derive(Debug, Clone)]
pub struct MrvSolution {
    /// The probabilistic synopsis (rounded values `c/y` for coefficients
    /// whose coin flip succeeded).
    pub synopsis: Synopsis,
    /// The DP's bound on max normalized squared error.
    pub nse_bound: f64,
    /// Expected synopsis size `Σ y_j` (the budget constraint binds this).
    pub expected_size: f64,
    /// The deterministic allocation: `(node, probability units)`.
    pub allocation: Vec<(u32, u16)>,
}

/// A tiny deterministic PRNG for the retention coin flips (keeps the
/// crate dependency-free; splits reproducibly by seed).
#[derive(Debug, Clone)]
pub struct CoinFlipper {
    state: u64,
}

impl CoinFlipper {
    /// Seeded flipper.
    pub fn new(seed: u64) -> Self {
        CoinFlipper { state: seed | 1 }
    }

    /// True with probability `p`.
    pub fn flip(&mut self, p: f64) -> bool {
        // xorshift64*.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (r >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Runs MinRelVar over a full data array with expected-space budget `b`
/// coefficients. `seed` drives the retention coin flips.
pub fn min_rel_var(
    data: &[f64],
    b: usize,
    p: &MrvParams,
    seed: u64,
) -> Result<MrvSolution, WaveletError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    let coeffs = dwmaxerr_wavelet::transform::forward(data)?;
    let q = p.q as usize;
    let cap = (b * q).min(n * q);
    if n == 1 {
        // Single value: keep c_0 whole if any budget exists.
        let keep = b >= 1 && coeffs[0] != 0.0;
        let entries = if keep {
            vec![(0u32, coeffs[0])]
        } else {
            Vec::new()
        };
        let nse = if keep || coeffs[0] == 0.0 {
            0.0
        } else {
            (coeffs[0] / data[0].abs().max(p.sanity)).powi(2)
        };
        return Ok(MrvSolution {
            synopsis: Synopsis::from_entries(1, entries)?,
            nse_bound: nse,
            expected_size: if keep { 1.0 } else { 0.0 },
            allocation: if keep {
                vec![(0, p.q as u16)]
            } else {
                Vec::new()
            },
        });
    }
    let rows = subtree_rows(&coeffs[1..], data, cap, p)?;
    let best = rows[1].resolve_root(coeffs[0], cap, p); // (v, y0 units, b1)

    // Extract the allocation top-down.
    let mut allocation: Vec<(u32, u16)> = Vec::new();
    if best.1 > 0 {
        allocation.push((0, best.1 as u16));
    }
    let mut stack = vec![(1usize, best.2)];
    while let Some((i, bi)) = stack.pop() {
        let children = (2 * i < n).then(|| (&rows[2 * i], &rows[2 * i + 1]));
        let (y, left, right) = rows[i].step(children, bi);
        if y > 0 {
            allocation.push((i as u32, y));
        }
        if children.is_some() {
            stack.push((2 * i, left));
            stack.push((2 * i + 1, right));
        }
    }

    // Coin flips -> synopsis.
    let mut flipper = CoinFlipper::new(seed);
    let mut entries = Vec::new();
    let mut expected = 0.0;
    for &(node, yu) in &allocation {
        let y = f64::from(yu) / f64::from(p.q);
        expected += y;
        if flipper.flip(y) {
            entries.push((node, coeffs[node as usize] / y));
        }
    }
    allocation.sort_unstable_by_key(|&(i, _)| i);
    Ok(MrvSolution {
        synopsis: Synopsis::from_entries(n, entries)?,
        nse_bound: best.0,
        expected_size: expected,
        allocation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn params(q: u32) -> MrvParams {
        MrvParams::new(q, 1.0).unwrap()
    }

    #[test]
    fn full_budget_keeps_everything_exactly() {
        let p = params(4);
        let sol = min_rel_var(&PAPER_DATA, 8, &p, 7).unwrap();
        assert!(sol.nse_bound < 1e-12, "bound {}", sol.nse_bound);
        // All probabilities 1 -> deterministic, exact reconstruction.
        let rec = sol.synopsis.reconstruct_all();
        for (r, d) in rec.iter().zip(&PAPER_DATA) {
            assert!((r - d).abs() < 1e-9);
        }
        assert!((sol.expected_size - sol.allocation.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn bound_decreases_with_budget() {
        let p = params(4);
        let mut last = f64::INFINITY;
        for b in 0..=8 {
            let sol = min_rel_var(&PAPER_DATA, b, &p, 1).unwrap();
            assert!(
                sol.nse_bound <= last + 1e-12,
                "b={b}: {} > {last}",
                sol.nse_bound
            );
            last = sol.nse_bound;
        }
    }

    #[test]
    fn expected_size_respects_budget() {
        let p = params(4);
        for b in 0..=8 {
            let sol = min_rel_var(&PAPER_DATA, b, &p, 3).unwrap();
            assert!(
                sol.expected_size <= b as f64 + 1e-9,
                "b={b}: expected {}",
                sol.expected_size
            );
        }
    }

    #[test]
    fn finer_quantization_not_worse() {
        let coarse = min_rel_var(&PAPER_DATA, 4, &params(2), 1).unwrap();
        let fine = min_rel_var(&PAPER_DATA, 4, &params(8), 1).unwrap();
        assert!(
            fine.nse_bound <= coarse.nse_bound + 1e-12,
            "fine {} vs coarse {}",
            fine.nse_bound,
            coarse.nse_bound
        );
    }

    #[test]
    fn rounded_values_are_unbiased() {
        // Average the reconstruction over many coin-flip seeds: it must
        // converge to the expectation of the estimator — the reconstruction
        // where probabilistically-retained coefficients keep their exact
        // values and outright-dropped (y = 0) ones are zero.
        let p = params(4);
        let n = PAPER_DATA.len();
        let coeffs = dwmaxerr_wavelet::transform::forward(&PAPER_DATA).unwrap();
        let b = 4;
        let reference = {
            let alloc = min_rel_var(&PAPER_DATA, b, &p, 0).unwrap().allocation;
            let idx: Vec<u32> = alloc.iter().map(|&(i, _)| i).collect();
            Synopsis::retain_indices(&coeffs, &idx)
                .unwrap()
                .reconstruct_all()
        };
        let trials = 4000;
        let mut acc = vec![0.0; n];
        for seed in 0..trials {
            let sol = min_rel_var(&PAPER_DATA, b, &p, seed).unwrap();
            for (a, r) in acc.iter_mut().zip(sol.synopsis.reconstruct_all()) {
                *a += r;
            }
        }
        for (j, (&a, &e)) in acc.iter().zip(&reference).enumerate() {
            let mean = a / trials as f64;
            assert!(
                (mean - e).abs() < 2.5,
                "leaf {j}: mean {mean} vs expectation {e}"
            );
        }
    }

    #[test]
    fn variance_function() {
        assert_eq!(variance(0.0, 0, 4), 0.0);
        assert_eq!(variance(3.0, 4, 4), 0.0); // y = 1: kept exactly
        assert_eq!(variance(3.0, 0, 4), 9.0); // dropped: squared error
                                              // y = 1/2: c²(1-y)/y = 9.
        assert!((variance(3.0, 2, 4) - 9.0).abs() < 1e-12);
        // y = 1/4: 9·3 = 27.
        assert!((variance(3.0, 1, 4) - 27.0).abs() < 1e-12);
    }

    #[test]
    fn dp_beats_or_matches_naive_allocations() {
        // The DP bound must be <= the bound of the uniform allocation that
        // gives every nonzero coefficient the same y (a feasible policy).
        let p = params(4);
        let data = [10.0, 12.0, 9.0, 11.0, 50.0, 52.0, 49.0, 51.0];
        let coeffs = dwmaxerr_wavelet::transform::forward(&data).unwrap();
        let b = 4;
        let sol = min_rel_var(&data, b, &p, 1).unwrap();
        // Uniform policy: y = b/#nonzero (quantized down), same for all.
        let nonzero: Vec<usize> = (0..8).filter(|&i| coeffs[i] != 0.0).collect();
        let y_units = ((b * 4) / nonzero.len()).min(4) as u32;
        // Evaluate the uniform policy's bound with the same norm relaxation.
        let topo = dwmaxerr_wavelet::tree::TreeTopology::new(8).unwrap();
        let mut worst = 0.0f64;
        for (leaf, &d) in data.iter().enumerate() {
            let mut var = 0.0;
            for (node, _sign) in topo.path_of_leaf(leaf) {
                if coeffs[node] != 0.0 {
                    var += variance(coeffs[node], y_units, 4);
                }
            }
            let m = d.abs().max(1.0);
            worst = worst.max(var / (m * m));
        }
        assert!(
            sol.nse_bound <= worst + 1e-9,
            "DP {} vs uniform {}",
            sol.nse_bound,
            worst
        );
    }

    #[test]
    fn coin_flipper_is_fair() {
        let mut f = CoinFlipper::new(99);
        let trials = 100_000;
        let heads = (0..trials).filter(|_| f.flip(0.3)).count();
        let rate = heads as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        // Degenerate probabilities.
        let mut f = CoinFlipper::new(7);
        assert!((0..100).all(|_| f.flip(1.0)));
        assert!((0..100).filter(|_| f.flip(0.0)).count() <= 1);
    }

    #[test]
    fn row_cells_monotone() {
        let p = params(4);
        let coeffs = dwmaxerr_wavelet::transform::forward(&PAPER_DATA).unwrap();
        let rows = subtree_rows(&coeffs[1..], &PAPER_DATA, 16, &p).unwrap();
        for (i, row) in rows.iter().enumerate().skip(1) {
            for w in row.cells.windows(2) {
                assert!(w[1].v <= w[0].v + 1e-12, "row {i} not monotone");
            }
        }
    }

    #[test]
    fn single_value_cases() {
        let p = params(4);
        let sol = min_rel_var(&[42.0], 1, &p, 1).unwrap();
        assert_eq!(sol.synopsis.size(), 1);
        assert_eq!(sol.nse_bound, 0.0);
        let sol = min_rel_var(&[42.0], 0, &p, 1).unwrap();
        assert_eq!(sol.synopsis.size(), 0);
        assert!(sol.nse_bound > 0.0);
    }
}
