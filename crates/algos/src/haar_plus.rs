//! The Haar+ tree \[23\] (Karras & Mamoulis, ICDE 2007): a refined synopsis
//! dictionary the SIGMOD'16 paper discusses as the third DP family
//! (Section 3) and the structure MinHaarSpace \[24\] descends from.
//!
//! Every internal node of the classic error tree becomes a **triad**:
//!
//! * a *head* node `h` contributing `+h` to the left subtree and `-h` to
//!   the right (the classic Haar detail), and
//! * two *supplementary* nodes `sL`, `sR` contributing `+sL` to the left
//!   subtree only and `+sR` to the right subtree only.
//!
//! A triad can therefore impose arbitrary shifts `(a, b)` on its two
//! children at cost
//!
//! ```text
//! c(a, b) = 0            if a = b = 0
//!           1            if exactly one of a, b is nonzero, or a = -b
//!           2            otherwise
//! ```
//!
//! which makes the bottom-up DP *cheaper per step* than restricted Haar
//! (no value trades through ancestors) and the optimum never worse than
//! the unrestricted-Haar optimum — the invariant tested against
//! [`mod@crate::min_haar_space`]. This module implements the Problem-2 form
//! (given ε, minimize the retained-node count) with δ-quantized values,
//! plus a budget-search wrapper for Problem 1, mirroring the IndirectHaar
//! construction.

#![warn(clippy::too_many_lines)]

use dwmaxerr_wavelet::error::ensure_pow2;
use dwmaxerr_wavelet::tree::TreeTopology;
use dwmaxerr_wavelet::WaveletError;
use std::fmt;

use crate::min_haar_space::{first_sum, min_sum, MhsError, MhsParams, Paired};

/// The role of a retained Haar+ node within its triad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Classic detail: `+v` to the left subtree, `-v` to the right.
    Head,
    /// `+v` to the left subtree only.
    LeftSupp,
    /// `+v` to the right subtree only.
    RightSupp,
    /// The tree-top node: `+v` to every leaf (the `c_0` slot).
    Top,
}

/// A sparse Haar+ synopsis: retained `(classic node id, role, value)`
/// entries. Node ids follow the classic error-tree heap order; the top
/// node uses id 0.
#[derive(Debug, Clone, PartialEq)]
pub struct HaarPlusSynopsis {
    n: usize,
    entries: Vec<(u32, Role, f64)>,
}

impl HaarPlusSynopsis {
    /// Builds a synopsis from entries (used by the distributed driver;
    /// entries must reference valid nodes of an `n`-value tree).
    pub fn from_entries_unchecked(n: usize, entries: Vec<(u32, Role, f64)>) -> Self {
        HaarPlusSynopsis { n, entries }
    }

    /// Number of retained nodes.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// The underlying data length.
    pub fn data_len(&self) -> usize {
        self.n
    }

    /// The retained entries, sorted by node id.
    pub fn entries(&self) -> &[(u32, Role, f64)] {
        &self.entries
    }

    /// Reconstructs data value `j` (`O(B + log n)` via a path walk).
    pub fn reconstruct_value(&self, j: usize) -> f64 {
        let topo = TreeTopology::new(self.n).expect("validated");
        let mut acc = 0.0;
        for &(node, role, v) in &self.entries {
            let node = node as usize;
            match role {
                Role::Top => acc += v,
                Role::Head => acc += f64::from(topo.sign(node, j)) * v,
                Role::LeftSupp => {
                    if topo.left_span(node).contains(&j) && node != 0 {
                        acc += v;
                    }
                }
                Role::RightSupp => {
                    if topo.right_span(node).contains(&j) {
                        acc += v;
                    }
                }
            }
        }
        acc
    }

    /// Reconstructs every value (`O(n·B)`; fine for evaluation).
    pub fn reconstruct_all(&self) -> Vec<f64> {
        (0..self.n).map(|j| self.reconstruct_value(j)).collect()
    }
}

/// Infeasible-cost marker (shared convention with MinHaarSpace).
const INF: u32 = u32::MAX;

/// A Haar+ DP row: per quantized incoming value, the minimal retained-node
/// count in the subtree and the chosen child shifts `(a, b)` in grid steps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HpRow {
    /// Grid index of the first cell.
    pub lo: i64,
    /// Minimal retained counts.
    pub costs: Vec<u32>,
    /// Chosen left-child shift per cell (grid steps).
    pub shift_l: Vec<i32>,
    /// Chosen right-child shift per cell (grid steps).
    pub shift_r: Vec<i32>,
}

impl HpRow {
    #[inline]
    fn cost(&self, v: i64) -> u32 {
        let off = v - self.lo;
        if off < 0 || off as usize >= self.costs.len() {
            INF
        } else {
            self.costs[off as usize]
        }
    }

    #[inline]
    fn hi(&self) -> i64 {
        self.lo + self.costs.len() as i64
    }

    /// The replay rule of the top-down pass: entered with incoming grid
    /// value `v`, the triad applies child shifts `(a, b)` and its children
    /// are entered with `v + a` and `v + b`. `v` must lie in the window.
    #[inline]
    pub fn step(&self, v: i64) -> ((i64, i64), i64, i64) {
        let off = (v - self.lo) as usize;
        let (a, b) = (i64::from(self.shift_l[off]), i64::from(self.shift_r[off]));
        ((a, b), v + a, v + b)
    }

    /// The root rule, for the root triad's row: the cheapest total count
    /// and the top node's grid value (the triad's incoming value), if any.
    pub fn resolve_root(&self) -> Option<(u32, i64)> {
        crate::min_haar_space::resolve_root(self.lo, &self.costs)
    }

    /// The minimum cost over the whole window and its grid position.
    fn min_cell(&self) -> (i64, u32) {
        let mut best = (self.lo, INF);
        for (t, &c) in self.costs.iter().enumerate() {
            if c < best.1 {
                best = (self.lo + t as i64, c);
            }
        }
        best
    }
}

/// Error from the Haar+ DP.
#[derive(Debug, Clone, PartialEq)]
pub enum HaarPlusError {
    /// δ too coarse for ε (no grid point in a leaf window).
    DeltaTooCoarse,
    /// A datum is NaN, infinite or off the grid ([`MhsError::OffGrid`]).
    OffGrid,
    /// Input shape error.
    Wavelet(WaveletError),
}

impl fmt::Display for HaarPlusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaarPlusError::DeltaTooCoarse => write!(f, "delta too coarse for epsilon"),
            HaarPlusError::OffGrid => write!(f, "{}", MhsError::OffGrid),
            HaarPlusError::Wavelet(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HaarPlusError {}

impl From<WaveletError> for HaarPlusError {
    fn from(e: WaveletError) -> Self {
        HaarPlusError::Wavelet(e)
    }
}

impl From<MhsError> for HaarPlusError {
    fn from(e: MhsError) -> Self {
        match e {
            MhsError::DeltaTooCoarse => HaarPlusError::DeltaTooCoarse,
            MhsError::OffGrid => HaarPlusError::OffGrid,
            MhsError::Wavelet(w) => HaarPlusError::Wavelet(w),
            MhsError::BadParams(_) => HaarPlusError::DeltaTooCoarse,
        }
    }
}

/// A data leaf's pseudo-row: MinHaarSpace's window, with no shifts.
fn leaf_row(d: f64, p: &MhsParams) -> Result<HpRow, HaarPlusError> {
    let leaf = crate::min_haar_space::leaf_row(d, p)?;
    let zeros = vec![0; leaf.costs.len()];
    Ok(HpRow {
        lo: leaf.lo,
        costs: leaf.costs,
        shift_l: zeros.clone(),
        shift_r: zeros,
    })
}

/// Combines two children rows through a triad.
///
/// For incoming `v`, the triad can shift the left child to `v + a` and the
/// right to `v + b` at cost `c(a, b)`; each side's best is either "no
/// shift" (`a = 0`, only if `v` is inside the child window) or "any shift"
/// (1 + the child's global minimum). The head gives the coupled `a = -b`
/// option at total cost 1.
pub fn combine(left: &HpRow, right: &HpRow) -> HpRow {
    // The parent window spans both children's windows: any inside value is
    // reachable; outside values are the parent's parent's problem.
    let lo = left.lo.min(right.lo);
    let hi = left.hi().max(right.hi());
    let len = (hi - lo) as usize;
    let (l_min_v, l_min_c) = left.min_cell();
    let (r_min_v, r_min_c) = right.min_cell();
    let mut scratch = Vec::new();
    let pairs = Paired::new(
        (left.lo, &left.costs),
        (right.lo, &right.costs),
        &mut scratch,
    );
    let mut costs = vec![INF; len];
    let mut shift_l = vec![0i32; len];
    let mut shift_r = vec![0i32; len];
    for t in 0..len {
        let v = lo + t as i64;
        // Independent sides.
        let (mut best_l, mut a_l) = (l_min_c.saturating_add(1), (l_min_v - v) as i32);
        if left.cost(v) <= best_l {
            best_l = left.cost(v);
            a_l = 0;
        }
        let (mut best_r, mut a_r) = (r_min_c.saturating_add(1), (r_min_v - v) as i32);
        if right.cost(v) <= best_r {
            best_r = right.cost(v);
            a_r = 0;
        }
        let mut best = best_l.saturating_add(best_r);
        let (mut ba, mut bb) = (a_l, a_r);
        // Head coupling: a = h, b = -h, h != 0, cost 1 total — the pairs
        // of `v` either side of h = 0, the first strict minimum winning.
        let (h_lo, l, r) = pairs.at(v);
        let below = (-h_lo).clamp(0, l.len() as i64) as usize;
        let above = (1 - h_lo).clamp(0, l.len() as i64) as usize;
        let (m_below, m_above) = (
            min_sum(&l[..below], &r[..below]),
            min_sum(&l[above..], &r[above..]),
        );
        let m = m_below.min(m_above);
        if m.saturating_add(1) < best {
            let at = if m_below <= m_above {
                first_sum(&l[..below], &r[..below], m)
            } else {
                above + first_sum(&l[above..], &r[above..], m)
            };
            best = m + 1;
            ba = (h_lo + at as i64) as i32;
            bb = -ba;
        }
        costs[t] = best;
        shift_l[t] = ba;
        shift_r[t] = bb;
    }
    HpRow {
        lo,
        costs,
        shift_l,
        shift_r,
    }
}

/// All Haar+ rows of a (sub)tree over `data` (heap order, `rows\[1\]` =
/// root; index 0 unused).
pub fn subtree_rows(data: &[f64], p: &MhsParams) -> Result<Vec<HpRow>, HaarPlusError> {
    let m = data.len();
    ensure_pow2(m)?;
    if m < 2 {
        return Err(HaarPlusError::Wavelet(WaveletError::Empty));
    }
    let empty = HpRow {
        lo: 0,
        costs: Vec::new(),
        shift_l: Vec::new(),
        shift_r: Vec::new(),
    };
    let mut rows = vec![empty; m];
    for i in (1..m).rev() {
        rows[i] = if 2 * i < m {
            let (l, r) = rows.split_at(2 * i + 1);
            combine(&l[2 * i], &r[0])
        } else {
            let base = (i - m / 2) * 2;
            combine(&leaf_row(data[base], p)?, &leaf_row(data[base + 1], p)?)
        };
    }
    Ok(rows)
}

/// Decomposes chosen child shifts `(a, b)` into minimal triad entries.
pub fn triad_entries(node: u32, a: i64, b: i64, delta: f64, out: &mut Vec<(u32, Role, f64)>) {
    if a == 0 && b == 0 {
        return;
    }
    if a == -b {
        out.push((node, Role::Head, a as f64 * delta));
    } else {
        if a != 0 {
            out.push((node, Role::LeftSupp, a as f64 * delta));
        }
        if b != 0 {
            out.push((node, Role::RightSupp, b as f64 * delta));
        }
    }
}

/// Result of a Haar+ Problem-2 solve.
#[derive(Debug, Clone)]
pub struct HaarPlusSolution {
    /// The synopsis.
    pub synopsis: HaarPlusSynopsis,
    /// Retained node count.
    pub size: usize,
    /// True max-abs error (≤ ε).
    pub actual_error: f64,
}

/// Solves Problem 2 on the Haar+ tree: the minimal number of retained
/// triad nodes so every value reconstructs within ε, values quantized
/// to δ.
pub fn haar_plus_min_space(data: &[f64], p: &MhsParams) -> Result<HaarPlusSolution, HaarPlusError> {
    let n = data.len();
    ensure_pow2(n)?;
    if n == 1 {
        let d = data[0];
        crate::min_haar_space::leaf_window(d, p)?; // refuses a datum the grid cannot hold
        let mut entries = Vec::new();
        if d.abs() > p.epsilon {
            let g = (d / p.delta).round();
            if (g * p.delta - d).abs() > p.epsilon {
                return Err(HaarPlusError::DeltaTooCoarse);
            }
            entries.push((0u32, Role::Top, g * p.delta));
        }
        let synopsis = HaarPlusSynopsis { n, entries };
        let actual_error = (synopsis.reconstruct_value(0) - d).abs();
        return Ok(HaarPlusSolution {
            size: synopsis.size(),
            synopsis,
            actual_error,
        });
    }
    let rows = subtree_rows(data, p)?;
    // Top node: incoming to the root triad is the top value z (cost z≠0).
    let best = rows[1]
        .resolve_root()
        .ok_or(HaarPlusError::DeltaTooCoarse)?;
    let mut entries: Vec<(u32, Role, f64)> = Vec::new();
    if best.1 != 0 {
        entries.push((0, Role::Top, best.1 as f64 * p.delta));
    }
    // Replay choices top-down.
    let mut stack = vec![(1usize, best.1)];
    while let Some((i, v)) = stack.pop() {
        let ((a, b), left, right) = rows[i].step(v);
        triad_entries(i as u32, a, b, p.delta, &mut entries);
        if 2 * i < n {
            stack.push((2 * i, left));
            stack.push((2 * i + 1, right));
        }
    }
    entries.sort_by_key(|&(i, _, _)| i);
    debug_assert_eq!(entries.len(), best.0 as usize);
    let synopsis = HaarPlusSynopsis { n, entries };
    let approx = synopsis.reconstruct_all();
    let actual_error = dwmaxerr_wavelet::metrics::max_abs(data, &approx);
    Ok(HaarPlusSolution {
        size: synopsis.size(),
        synopsis,
        actual_error,
    })
}

/// Problem 1 on the Haar+ tree via binary search over ε (the IndirectHaar
/// construction applied to the richer dictionary). Returns the best
/// synopsis of at most `b` nodes.
pub fn haar_plus_indirect(
    data: &[f64],
    b: usize,
    delta: f64,
) -> Result<HaarPlusSolution, HaarPlusError> {
    let coeffs = dwmaxerr_wavelet::transform::forward(data)?;
    let (e_l, e_u) = crate::indirect_haar::error_bounds(&coeffs, data, b);
    let probe = |eps: f64| -> Result<Option<HaarPlusSolution>, HaarPlusError> {
        let p = match MhsParams::new(eps.max(0.0), delta) {
            Ok(p) => p,
            Err(_) => return Ok(None),
        };
        match haar_plus_min_space(data, &p) {
            Ok(sol) => Ok(Some(sol)),
            Err(HaarPlusError::DeltaTooCoarse) => Ok(None),
            Err(e) => Err(e),
        }
    };
    // Widen the upper bound until feasible within budget.
    let (mut lo, mut hi) = (e_l.max(0.0), e_u.max(e_l).max(delta));
    let mut best: Option<HaarPlusSolution> = None;
    for _ in 0..64 {
        match probe(hi)? {
            Some(sol) if sol.size <= b => {
                best = Some(sol);
                break;
            }
            _ => hi *= 2.0,
        }
    }
    let mut best = best.ok_or(HaarPlusError::DeltaTooCoarse)?;
    while hi - lo > delta {
        let mid = (hi + lo) / 2.0;
        match probe(mid)? {
            Some(sol) if sol.size <= b => {
                if sol.actual_error < best.actual_error {
                    best = sol;
                }
                hi = mid;
            }
            _ => lo = mid,
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_haar_space::min_haar_space;
    use dwmaxerr_wavelet::metrics::max_abs;
    use proptest::prelude::*;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn params(e: f64, d: f64) -> MhsParams {
        MhsParams::new(e, d).unwrap()
    }

    /// The triad's price for child shifts `(a, b)`: the module doc's `c`.
    fn price(a: i64, b: i64) -> u32 {
        match (a, b) {
            (0, 0) => 0,
            _ if a == 0 || b == 0 || a == -b => 1,
            _ => 2,
        }
    }

    /// `combine`'s costs by their definition: a cell `v` costs the least
    /// `c(a, b) + L[v + a] + R[v + b]` over every pair of shifts that lands
    /// in both children's windows, for every `v` the two windows span.
    fn costs_by_definition(left: &HpRow, right: &HpRow) -> Vec<u32> {
        let cell = |v: i64| {
            (left.lo..left.hi())
                .flat_map(|x| (right.lo..right.hi()).map(move |y| (x, y)))
                .map(|(x, y)| {
                    let paid = left.cost(x).saturating_add(right.cost(y));
                    paid.saturating_add(price(x - v, y - v))
                })
                .min()
                .unwrap_or(INF)
        };
        (left.lo.min(right.lo)..left.hi().max(right.hi()))
            .map(cell)
            .collect()
    }

    fn child_row() -> impl Strategy<Value = HpRow> {
        (-30i64..30, prop::collection::vec(0u32..5, 1..20usize)).prop_map(|(lo, costs)| HpRow {
            lo,
            shift_l: vec![0; costs.len()],
            shift_r: vec![0; costs.len()],
            costs,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn combine_meets_the_definition(left in child_row(), right in child_row()) {
            // Every cell's cost is the definition's, and the shifts it keeps
            // for the top-down replay pay exactly that cost. Which of several
            // cheapest shifts it keeps is pinned by the `dhaar_plus` golden
            // of `tests/pipeline_semantics.rs`.
            let row = combine(&left, &right);
            prop_assert_eq!(row.lo, left.lo.min(right.lo));
            prop_assert_eq!(&row.costs, &costs_by_definition(&left, &right));
            for (t, &cost) in row.costs.iter().enumerate() {
                let ((a, b), x, y) = row.step(row.lo + t as i64);
                let paid = left.cost(x).saturating_add(right.cost(y));
                prop_assert_eq!(paid.saturating_add(price(a, b)), cost);
            }
        }
    }

    #[test]
    fn error_bound_respected() {
        for eps in [0.5, 2.0, 5.0, 13.0] {
            let sol = haar_plus_min_space(&PAPER_DATA, &params(eps, 0.5)).unwrap();
            assert!(sol.actual_error <= eps + 1e-9, "eps={eps}");
            let approx = sol.synopsis.reconstruct_all();
            assert!(max_abs(&PAPER_DATA, &approx) <= eps + 1e-9);
        }
    }

    #[test]
    fn never_worse_than_unrestricted_haar() {
        // The Haar+ dictionary strictly contains the unrestricted-Haar
        // one: same ε, same δ, the Haar+ optimum uses no more nodes.
        let datasets: Vec<Vec<f64>> = vec![
            PAPER_DATA.to_vec(),
            (0..32).map(|i| ((i * 13) % 27) as f64).collect(),
            (0..64)
                .map(|i| if i % 9 == 0 { 90.0 } else { (i % 4) as f64 })
                .collect(),
        ];
        for data in datasets {
            for eps in [2.0, 6.0, 15.0] {
                let p = params(eps, 0.5);
                let hp = haar_plus_min_space(&data, &p).unwrap();
                let mhs = min_haar_space(&data, &p).unwrap();
                assert!(
                    hp.size <= mhs.size,
                    "eps={eps}: Haar+ {} > Haar {}",
                    hp.size,
                    mhs.size
                );
            }
        }
    }

    #[test]
    fn supplementary_nodes_beat_classic_haar_on_steps() {
        // Step function [0,0,10,10]: one right-supplementary node suffices
        // (ε = 0), while restricted/unrestricted Haar needs two
        // coefficients (average + detail).
        let data = [0.0, 0.0, 10.0, 10.0];
        let p = params(0.0, 1.0);
        let hp = haar_plus_min_space(&data, &p).unwrap();
        assert_eq!(hp.size, 1, "entries: {:?}", hp.synopsis.entries());
        let mhs = min_haar_space(&data, &p).unwrap();
        assert_eq!(mhs.size, 2);
        assert_eq!(hp.actual_error, 0.0);
    }

    #[test]
    fn size_monotone_in_epsilon() {
        let mut last = usize::MAX;
        for eps in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let sol = haar_plus_min_space(&PAPER_DATA, &params(eps, 0.25)).unwrap();
            assert!(sol.size <= last, "eps={eps}");
            last = sol.size;
        }
    }

    #[test]
    fn reconstruction_roles() {
        // Hand-built synopsis: top 5, head at node 1 = 2, right supp at
        // node 3 = -4 over n = 4.
        let syn = HaarPlusSynopsis {
            n: 4,
            entries: vec![
                (0, Role::Top, 5.0),
                (1, Role::Head, 2.0),
                (3, Role::RightSupp, -4.0),
            ],
        };
        // Leaves: [5+2, 5+2, 5-2, 5-2-4] = [7, 7, 3, -1].
        assert_eq!(syn.reconstruct_all(), vec![7.0, 7.0, 3.0, -1.0]);
    }

    #[test]
    fn budget_search_and_quality() {
        let data: Vec<f64> = (0..32)
            .map(|i| ((i * 7) % 23) as f64 + if i == 11 { 50.0 } else { 0.0 })
            .collect();
        for b in [2usize, 4, 8, 16] {
            let hp = haar_plus_indirect(&data, b, 0.5).unwrap();
            assert!(hp.size <= b, "b={b}: size {}", hp.size);
            // Richer dictionary: never worse than IndirectHaar at the
            // same quantization (allow one δ of search slack).
            let ih = crate::indirect_haar::indirect_haar_centralized(&data, b, 0.5).unwrap();
            assert!(
                hp.actual_error <= ih.error + 0.5 + 1e-9,
                "b={b}: Haar+ {} vs IndirectHaar {}",
                hp.actual_error,
                ih.error
            );
        }
    }

    #[test]
    fn single_value() {
        let p = params(1.0, 0.5);
        let sol = haar_plus_min_space(&[0.4], &p).unwrap();
        assert_eq!(sol.size, 0);
        let sol = haar_plus_min_space(&[10.0], &p).unwrap();
        assert_eq!(sol.size, 1);
    }

    #[test]
    fn delta_too_coarse() {
        let data = [0.45, 3.45, 7.45, 9.45];
        assert!(matches!(
            haar_plus_min_space(&data, &params(0.4, 1.0)),
            Err(HaarPlusError::DeltaTooCoarse)
        ));
    }
}
