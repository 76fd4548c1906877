//! MinHaarSpace \[24\]: quantized dynamic programming for Problem 2 —
//! given an error bound ε, minimize the number of retained
//! (unrestricted-value) coefficients such that every data value
//! reconstructs within ε.
//!
//! # Structure
//!
//! The DP walks the error tree bottom-up. For node `j`, the row `M[j]`
//! holds, for every quantized *incoming value* `v` (the partial
//! reconstruction contributed by ancestors), the minimum number of
//! coefficients needed inside `T_j` (Section 4 of the SIGMOD'16 paper).
//! The recurrence is
//!
//! ```text
//! M[j][v] = min over z of  (z != 0) + M[2j][v + z] + M[2j+1][v - z]
//! ```
//!
//! Rows hold costs alone, in the arena of a sub-tree and on the wire. The
//! optimal `z` of a cell is named only where the top-down replay reads it,
//! one cell per node, by one chooser that holds the tie rule over the
//! node's two child rows ([`choose`], [`RowArena::choose`]).
//!
//! # The `O(ε/δ)` window
//!
//! Detail coefficients below node `j` cancel across `leaves_j` (each
//! contributes `+c` to half the leaves and `-c` to the other half), so the
//! *mean* of the subtree's reconstructions equals the incoming value `v`
//! exactly. Feasibility therefore forces `v ∈ [avg_j - ε, avg_j + ε]`
//! where `avg_j` is the mean of the data under `j` — a window of `2ε/δ + 1`
//! grid cells, which is what gives MinHaarSpace its `O((ε/δ)^2 N log N)`
//! time and `O(ε/δ)` row size.
//!
//! Values are quantized to integer multiples of δ. The returned synopsis is
//! guaranteed to satisfy the ε bound exactly (leaf feasibility is checked
//! against the true data values); quantization only affects how close the
//! retained count gets to the unquantized optimum — the paper's
//! quality/time knob (Figure 6).

#![warn(clippy::too_many_lines)]

use dwmaxerr_wavelet::{Synopsis, WaveletError};
use std::fmt;

/// Cost marking an infeasible cell.
pub const INFEASIBLE: u32 = u32::MAX;

/// MinHaarSpace parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MhsParams {
    /// The maximum-absolute-error bound ε.
    pub epsilon: f64,
    /// The quantization step δ (grid of candidate values).
    pub delta: f64,
}

impl MhsParams {
    /// Creates parameters, validating positivity and that the grid is fine
    /// enough to place a value within ε of any datum (δ ≤ 2ε is necessary
    /// for leaf feasibility).
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, MhsError> {
        if delta.is_nan() || delta <= 0.0 {
            return Err(MhsError::BadParams("delta must be positive"));
        }
        if epsilon.is_nan() || epsilon < 0.0 {
            return Err(MhsError::BadParams("epsilon must be non-negative"));
        }
        Ok(MhsParams { epsilon, delta })
    }
}

/// Errors from the DP.
#[derive(Debug, Clone, PartialEq)]
pub enum MhsError {
    /// Invalid ε/δ.
    BadParams(&'static str),
    /// δ is too coarse relative to ε: some node's feasible window contains
    /// no grid point (the paper hits exactly this for Zipf-1.5 with
    /// δ ∈ {50, 100}, Section 6.2).
    DeltaTooCoarse,
    /// A datum is NaN or infinite, or so large against δ that its window
    /// leaves the grid the rows index (2^30 steps either side of 0): no
    /// bound can be advertised over it.
    OffGrid,
    /// Input shape error.
    Wavelet(WaveletError),
}

impl fmt::Display for MhsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MhsError::BadParams(m) => write!(f, "bad MinHaarSpace params: {m}"),
            MhsError::DeltaTooCoarse => {
                write!(
                    f,
                    "delta too coarse: a feasible window contains no grid point"
                )
            }
            MhsError::OffGrid => {
                write!(
                    f,
                    "a datum is NaN, infinite or beyond 2^30 grid steps of delta"
                )
            }
            MhsError::Wavelet(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MhsError {}

impl From<WaveletError> for MhsError {
    fn from(e: WaveletError) -> Self {
        MhsError::Wavelet(e)
    }
}

/// A DP row: for each quantized incoming value in `[lo, lo + len)` (grid
/// indices; value = index × δ), the minimal coefficient count inside the
/// subtree. The value to assign at the subtree's root coefficient is not
/// stored: [`choose`] names it from the two child rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Grid index of the first cell.
    pub lo: i64,
    /// Minimal retained-coefficient counts ([`INFEASIBLE`] = no solution).
    pub costs: Vec<u32>,
}

impl Row {
    /// Cost at grid index `v` (infinite outside the window).
    #[inline]
    pub fn cost(&self, v: i64) -> u32 {
        let off = v - self.lo;
        if off < 0 || off as usize >= self.costs.len() {
            INFEASIBLE
        } else {
            self.costs[off as usize]
        }
    }

    /// Grid index one past the last cell.
    #[inline]
    pub fn hi(&self) -> i64 {
        self.lo + self.costs.len() as i64
    }

    /// True when no cell is feasible: the dead row (or an empty one). Any
    /// other row is wholly feasible (see [`combine`]), so this reads one
    /// cell of it.
    pub fn all_infeasible(&self) -> bool {
        all_infeasible(&self.costs)
    }

    /// The root rule, for the row of node `c_1`: the cheapest total count
    /// and `c_0`'s grid value `z0` (the incoming value of `c_1`), if any.
    pub fn resolve_root(&self) -> Option<(u32, i64)> {
        resolve_root(self.lo, &self.costs)
    }
}

/// `c_0` adds `z0` to every leaf and costs one coefficient unless `z0 = 0`:
/// minimizes `costs[z0] + (z0 != 0)` over the window starting at grid index
/// `lo`, ties to `z0 = 0`. The Haar+ top node obeys the same rule.
pub(crate) fn resolve_root(lo: i64, costs: &[u32]) -> Option<(u32, i64)> {
    let mut best = (INFEASIBLE, 0i64);
    for (t, &c) in costs.iter().enumerate() {
        if c == INFEASIBLE {
            continue;
        }
        let v = lo + t as i64;
        let total = c + u32::from(v != 0);
        if total < best.0 || (total == best.0 && v == 0) {
            best = (total, v);
        }
    }
    (best.0 != INFEASIBLE).then_some(best)
}

/// Leaf windows must stay within this many grid steps of 0: every window
/// of the tree then does too, and any retained value `z` — a difference of
/// two window indices — fits the chooser's `i32`.
const GRID_LIMIT: f64 = (i32::MAX / 2) as f64;

/// The grid window `lo ..= hi` of a single data leaf `d`: every grid point
/// within ε of it.
pub(crate) fn leaf_window(d: f64, p: &MhsParams) -> Result<(i64, i64), MhsError> {
    let lo = ((d - p.epsilon) / p.delta).ceil();
    let hi = ((d + p.epsilon) / p.delta).floor();
    // Written so that a NaN bound fails it.
    if !(lo >= -GRID_LIMIT && hi <= GRID_LIMIT) {
        return Err(MhsError::OffGrid);
    }
    if hi < lo {
        return Err(MhsError::DeltaTooCoarse);
    }
    Ok((lo as i64, hi as i64))
}

/// Builds the pseudo-row of a single data leaf `d`: cost 0 for every grid
/// point within ε of `d`, infeasible elsewhere.
pub fn leaf_row(d: f64, p: &MhsParams) -> Result<Row, MhsError> {
    let (lo, hi) = leaf_window(d, p)?;
    Ok(Row {
        lo,
        costs: vec![0; (hi - lo + 1) as usize],
    })
}

/// Two sibling rows' costs laid out for the recurrence's inner loop: a
/// parent cell `v` pairs left cell `v + z` with right cell `v − z`, so with
/// the right costs reversed the pairs of one `v`, `z` ascending, are two
/// forward slices — a window that slides two cells per step of `v`.
pub(crate) struct Paired<'a> {
    left_lo: i64,
    right_lo: i64,
    left: &'a [u32],
    reversed: &'a [u32],
}

impl<'a> Paired<'a> {
    /// Pairs the windows starting at grid indices `left_lo` and `right_lo`;
    /// `scratch` is overwritten with the reversed right costs.
    pub(crate) fn new(
        (left_lo, left): (i64, &'a [u32]),
        (right_lo, right): (i64, &[u32]),
        scratch: &'a mut Vec<u32>,
    ) -> Self {
        scratch.clear();
        scratch.extend(right.iter().rev());
        Paired {
            left_lo,
            right_lo,
            left,
            reversed: scratch,
        }
    }

    /// The pairs of parent cell `v`: the smallest `z` that reaches both
    /// windows, then the left and right costs at that `z`, `z + 1`, …
    /// (empty when no `z` does).
    #[inline]
    pub(crate) fn at(&self, v: i64) -> (i64, &[u32], &[u32]) {
        let (n1, n2) = (self.left.len() as i64, self.reversed.len() as i64);
        // Left cell `i` pairs with right cell `s − i`, which sits at
        // `i + (n2 − 1 − s)` of the reversed costs.
        let s = 2 * v - self.left_lo - self.right_lo;
        let first = (s - (n2 - 1)).max(0);
        let last = s.min(n1 - 1);
        if last < first {
            return (0, &[], &[]);
        }
        let len = (last - first + 1) as usize;
        (
            self.left_lo + first - v,
            &self.left[first as usize..][..len],
            &self.reversed[(first + n2 - 1 - s) as usize..][..len],
        )
    }
}

/// The smallest `l[i] + r[i]` over two slices of one length
/// ([`INFEASIBLE`] when they are empty). Costs count coefficients, so the
/// sums cannot overflow.
#[inline]
pub(crate) fn min_sum(l: &[u32], r: &[u32]) -> u32 {
    debug_assert_eq!(l.len(), r.len());
    l.iter().zip(r).fold(INFEASIBLE, |m, (&a, &b)| m.min(a + b))
}

/// The first `i` with `l[i] + r[i] == m`, for an `m` that [`min_sum`]
/// returned over the same slices.
#[inline]
pub(crate) fn first_sum(l: &[u32], r: &[u32], m: u32) -> usize {
    l.iter()
        .zip(r)
        .position(|(&a, &b)| a + b == m)
        .expect("m is attained")
}

/// The one-cell row of a node with no feasible incoming value.
fn dead_row(lo: i64) -> Row {
    Row {
        lo,
        costs: vec![INFEASIBLE],
    }
}

/// A grid window `lo ..= hi`.
type Window = (i64, i64);

/// The parent's window under children windows `a1 ..= b1` and `a2 ..= b2`:
/// `v` is feasible iff some `z` puts `v + z` in the left window and
/// `v − z` in the right, i.e. iff `2v` lies in their Minkowski sum.
fn parent_window((a1, b1): Window, (a2, b2): Window) -> Window {
    ((a1 + a2 + 1).div_euclid(2), (b1 + b2).div_euclid(2))
}

/// A row's window start and costs: all the recurrence reads of a child.
type Costs<'a> = (i64, &'a [u32]);

/// True for a dead row's costs (see [`Row::all_infeasible`]).
fn all_infeasible(costs: &[u32]) -> bool {
    costs.iter().all(|&c| c == INFEASIBLE)
}

/// What a node's row is combined from, ready for the recurrence.
///
/// Each child is either dead (one [`INFEASIBLE`] cell) or *wholly
/// feasible*: leaves are, and the cells of a parent that admit a `z` are
/// exactly those whose double lies in the Minkowski sum of the children's
/// windows — an interval, which is the parent's window. So no cell is
/// tested for feasibility and no row is ever trimmed, and every row keeps
/// the paper's `O(2ε/δ)` size.
enum Below<'a> {
    /// Two live child rows: their pairs, the floor no cell's smallest sum
    /// is below (the cheapest left cell plus the cheapest right one), and
    /// the parent's window.
    Rows {
        pairs: Paired<'a>,
        floor: u32,
        window: Window,
    },
    /// Two data leaves, by their windows; a leaf costs 0 on its window.
    Leaves(Window, Window),
}

impl<'a> Below<'a> {
    /// Two child rows, or `None` when either is dead (so is the parent).
    /// `scratch` is overwritten with the reversed right costs.
    fn rows(left: Costs<'a>, right: Costs<'_>, scratch: &'a mut Vec<u32>) -> Option<Self> {
        if all_infeasible(left.1) || all_infeasible(right.1) {
            return None;
        }
        debug_assert!(!left.1.contains(&INFEASIBLE) && !right.1.contains(&INFEASIBLE));
        let last = |(lo, costs): Costs| lo + costs.len() as i64 - 1;
        let window = parent_window((left.0, last(left)), (right.0, last(right)));
        let cheapest = |costs: &[u32]| costs.iter().fold(INFEASIBLE, |m, &c| m.min(c));
        Some(Below::Rows {
            floor: cheapest(left.1) + cheapest(right.1),
            pairs: Paired::new(left, right, scratch),
            window,
        })
    }

    /// The parent's window; empty (`hi < lo`) when no cell admits a `z`.
    fn window(&self) -> Window {
        match *self {
            Below::Rows { window, .. } => window,
            Below::Leaves(w1, w2) => parent_window(w1, w2),
        }
    }

    /// The tie rule, written once: the value `z` (grid steps; 0 = none)
    /// that parent cell `v` retains — 0 when [`cell`] finds no coefficient
    /// worth its cost, else the smallest `z` that attains the least sum.
    /// Above two data leaves that is a closed form: 0 where both leaf
    /// windows hold `v`, else the smallest `z` that reaches both. A cell
    /// outside the window retains nothing.
    fn choose(&self, v: i64) -> i32 {
        let (lo, hi) = self.window();
        if v < lo || v > hi {
            return 0;
        }
        match *self {
            Below::Rows {
                ref pairs, floor, ..
            } => {
                let (z_lo, l, r) = pairs.at(v);
                cell((z_lo, l, r), floor)
                    .1
                    .map_or(0, |m| (z_lo + first_sum(l, r, m) as i64) as i32)
            }
            Below::Leaves((a1, b1), (a2, b2)) => {
                if a1.max(a2) <= v && v <= b1.min(b2) {
                    0
                } else {
                    (a1 - v).max(v - b2) as i32
                }
            }
        }
    }
}

/// The recurrence at one parent cell `v`, over its pairs `(z_lo, l, r)`
/// ([`Paired::at`]): the least `(z != 0) + L[v + z] + R[v − z]`, ties to
/// z = 0 (no benefit to a retained coefficient of equal cost), then to the
/// smallest z. With `m` the smallest plain sum over the window, z = 0 wins
/// iff its sum is at most `m + 1` — and no `m` is below `floor`, which
/// settles most cells without the pass. Returns the cell's cost and, when
/// a coefficient is retained, `m`.
#[inline]
fn cell((z_lo, l, r): (i64, &[u32], &[u32]), floor: u32) -> (u32, Option<u32>) {
    let unretained = usize::try_from(-z_lo)
        .ok()
        .and_then(|at| Some(l.get(at)? + r.get(at)?))
        .unwrap_or(INFEASIBLE);
    let m = if unretained <= floor + 1 {
        floor
    } else {
        min_sum(l, r)
    };
    if unretained > m + 1 {
        (m + 1, Some(m))
    } else {
        (unretained, None)
    }
}

/// The recurrence itself (Section 4, Figure 2), costs only: overwrites
/// `costs` with the parent's cells and returns the parent's `lo`, or `None`
/// when the parent is dead. A cell's choice is computed only where it is
/// read ([`Below::choose`]).
fn combine_cells(below: &Below, costs: &mut Vec<u32>) -> Option<i64> {
    let (lo, hi) = below.window();
    if hi < lo {
        return None;
    }
    let len = (hi - lo + 1) as usize;
    costs.clear();
    match *below {
        Below::Rows {
            ref pairs, floor, ..
        } => {
            costs.reserve(len);
            for v in lo..=hi {
                costs.push(cell(pairs.at(v), floor).0);
            }
        }
        // Leaf cells all cost 0, so a cell costs 0 where both windows hold
        // `v` — on `shared`, which lies inside `lo ..= hi` (there `z = 0`
        // reaches both) and may be empty — and 1 elsewhere.
        Below::Leaves((a1, b1), (a2, b2)) => {
            let shared = a1.max(a2)..=b1.min(b2);
            costs.resize(len, 1);
            if !shared.is_empty() {
                costs[(shared.start() - lo) as usize..=(shared.end() - lo) as usize].fill(0);
            }
        }
    }
    Some(lo)
}

/// Combines the rows of a node's two children into the node's row. A dead
/// child or an empty window gives the one-cell dead row.
pub fn combine(left: &Row, right: &Row) -> Row {
    let (mut scratch, mut costs) = (Vec::new(), Vec::new());
    Below::rows(
        (left.lo, &left.costs),
        (right.lo, &right.costs),
        &mut scratch,
    )
    .and_then(|below| combine_cells(&below, &mut costs))
    .map_or_else(|| dead_row(left.lo.min(right.lo)), |lo| Row { lo, costs })
}

/// The value `z` (grid steps; 0 = none) that the parent of rows `left` and
/// `right`, entered with incoming grid value `v`, retains — its children
/// are then entered with `v + z` and `v − z`. A dead parent retains nothing.
pub fn choose(left: &Row, right: &Row, v: i64) -> i32 {
    let mut scratch = Vec::new();
    Below::rows(
        (left.lo, &left.costs),
        (right.lo, &right.costs),
        &mut scratch,
    )
    .map_or(0, |below| below.choose(v))
}

/// The windows of the two data leaves of `pair`, the left leaf's failure
/// before the right's.
fn leaf_windows(pair: &[f64], p: &MhsParams) -> Result<(Window, Window), MhsError> {
    Ok((leaf_window(pair[0], p)?, leaf_window(pair[1], p)?))
}

/// Checks the shape of a (sub)tree's data: a power of two, at least 2.
fn ensure_subtree(m: usize) -> Result<(), MhsError> {
    dwmaxerr_wavelet::error::ensure_pow2(m)?;
    if m < 2 {
        return Err(MhsError::BadParams("subtree needs at least 2 leaves"));
    }
    Ok(())
}

/// Where one node's cells sit in a [`RowArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Span {
    lo: i64,
    start: usize,
    len: usize,
}

/// Every DP row of a (sub)tree, costs only, in one arena: node `i`'s cells
/// (local heap order, `1` = the sub-tree root) are one stretch of a single
/// `Vec<u32>`. No cell holds a choice; the top-down replay ([`extract`])
/// computes one where it reaches a cell, one cell per node, by the rule
/// [`RowArena::choose`] names.
#[derive(Debug, Clone, PartialEq)]
pub struct RowArena {
    /// Per node, heap order; `[0]` unused.
    spans: Vec<Span>,
    costs: Vec<u32>,
}

impl RowArena {
    /// Leaves of the sub-tree the rows were built over.
    pub fn leaves(&self) -> usize {
        self.spans.len()
    }

    /// Node `i`'s window start and costs.
    pub fn costs(&self, i: usize) -> (i64, &[u32]) {
        let span = self.spans[i];
        (span.lo, &self.costs[span.start..][..span.len])
    }

    /// [`Row::resolve_root`] on the sub-tree root's row.
    pub fn resolve_root(&self) -> Option<(u32, i64)> {
        let (lo, costs) = self.costs(1);
        resolve_root(lo, costs)
    }

    /// The value `z` that node `i` (in `1 .. leaves`), entered with
    /// incoming grid value `v`, retains — [`choose`] over its two child rows,
    /// or the closed form above two data leaves. `data` and `p` are those
    /// the rows were built from.
    pub fn choose(&self, i: usize, v: i64, data: &[f64], p: &MhsParams) -> Result<i32, MhsError> {
        Ok(self.below(i, data, p, &mut Vec::new())?.choose(v))
    }

    /// What node `i` (in `1 .. leaves`) was combined from.
    fn below<'a>(
        &'a self,
        i: usize,
        data: &[f64],
        p: &MhsParams,
        scratch: &'a mut Vec<u32>,
    ) -> Result<Below<'a>, MhsError> {
        let m = self.leaves();
        if data.len() != m {
            return Err(MhsError::BadParams("rows replayed over other data"));
        }
        if 2 * i < m {
            Below::rows(self.costs(2 * i), self.costs(2 * i + 1), scratch)
                .ok_or(MhsError::DeltaTooCoarse)
        } else {
            let (w1, w2) = leaf_windows(&data[2 * i - m..][..2], p)?;
            Ok(Below::Leaves(w1, w2))
        }
    }
}

/// All DP rows of a (sub)tree over `data`, costs only, in one arena.
/// `data.len()` must be a power of two and at least 2.
pub fn subtree_rows(data: &[f64], p: &MhsParams) -> Result<RowArena, MhsError> {
    let m = data.len();
    ensure_subtree(m)?;
    let mut arena = RowArena {
        spans: vec![Span::default(); m],
        costs: Vec::new(),
    };
    let (mut scratch, mut cells) = (Vec::new(), Vec::new());
    // Lowest internal level first: nodes m/2 .. m have leaf children.
    for i in (1..m).rev() {
        let below = if 2 * i < m {
            Below::rows(arena.costs(2 * i), arena.costs(2 * i + 1), &mut scratch)
        } else {
            let (w1, w2) = leaf_windows(&data[2 * i - m..][..2], p)?;
            Some(Below::Leaves(w1, w2))
        };
        let lo = below
            .and_then(|below| combine_cells(&below, &mut cells))
            .ok_or(MhsError::DeltaTooCoarse)?;
        if arena.costs.is_empty() {
            // Rows are about as wide as the first.
            arena.costs.reserve((m - 1) * cells.len());
        }
        arena.spans[i] = Span {
            lo,
            start: arena.costs.len(),
            len: cells.len(),
        };
        arena.costs.extend_from_slice(&cells);
    }
    Ok(arena)
}

/// The root row of `subtree_rows(data, p)`, or the same error — for a
/// caller that ships the root row and nothing else (layer 0 of the
/// distributed probe), in `O(log m)` live rows instead of `m`.
///
/// A post-order walk over the leaf pairs keeps the rows of the frontier on
/// a stack and combines the top two whenever they are siblings, into
/// buffers recycled from the rows it consumed, until the root alone is
/// left.
pub fn subtree_root(data: &[f64], p: &MhsParams) -> Result<Row, MhsError> {
    ensure_subtree(data.len())?;
    // `subtree_rows` solves every leaf pair, right to left, before its
    // first combine: where the walk fails, that order names the error.
    frontier_root(data, p).ok_or_else(|| {
        let failure = |pair| match leaf_windows(pair, p) {
            Ok((w1, w2)) => {
                let (lo, hi) = parent_window(w1, w2);
                (hi < lo).then_some(MhsError::DeltaTooCoarse)
            }
            Err(e) => Some(e),
        };
        let leaf_level = data.chunks_exact(2).rev().find_map(failure);
        leaf_level.unwrap_or(MhsError::DeltaTooCoarse)
    })
}

/// The walk of [`subtree_root`]; `None` where some row has no solution.
fn frontier_root(data: &[f64], p: &MhsParams) -> Option<Row> {
    // (height, lo, costs) of the frontier, leftmost sub-tree at the bottom;
    // it ends as the root alone.
    let mut frontier: Vec<(u32, i64, Vec<u32>)> = Vec::new();
    let mut free: Vec<Vec<u32>> = Vec::new();
    let mut scratch = Vec::new();
    for pair in data.chunks_exact(2) {
        let mut costs = free.pop().unwrap_or_default();
        let (w1, w2) = leaf_windows(pair, p).ok()?;
        let lo = combine_cells(&Below::Leaves(w1, w2), &mut costs)?;
        frontier.push((1, lo, costs));
        while let [.., (left_height, ..), (height, ..)] = frontier[..] {
            if left_height != height {
                break;
            }
            let (right, left) = (frontier.pop()?, frontier.pop()?);
            let mut costs = free.pop().unwrap_or_default();
            let below = Below::rows((left.1, &left.2), (right.1, &right.2), &mut scratch)?;
            let lo = combine_cells(&below, &mut costs)?;
            free.extend([left.2, right.2]);
            frontier.push((height + 1, lo, costs));
        }
    }
    let (_, lo, costs) = frontier.pop()?;
    Some(Row { lo, costs })
}

/// Result of a full MinHaarSpace run.
#[derive(Debug, Clone)]
pub struct MhsSolution {
    /// The unrestricted synopsis.
    pub synopsis: Synopsis,
    /// Retained coefficient count (`synopsis.size()`).
    pub size: usize,
    /// The true max-abs error of the synopsis (≤ ε).
    pub actual_error: f64,
}

/// The top-down replay: enters the sub-tree's root with incoming grid
/// value `v` and calls `emit(i, z)` for every local node `i` (heap order)
/// that retains `z ≠ 0`, computing each choice where it reaches the cell —
/// one cell per node. `data` and `p` are those `rows` were built from.
pub fn extract(
    rows: &RowArena,
    data: &[f64],
    p: &MhsParams,
    v: i64,
    mut emit: impl FnMut(usize, i32),
) -> Result<(), MhsError> {
    let m = rows.leaves();
    let mut scratch = Vec::new();
    // Stack of (node, incoming grid value).
    let mut stack = vec![(1usize, v)];
    while let Some((i, v)) = stack.pop() {
        let z = rows.below(i, data, p, &mut scratch)?.choose(v);
        if z != 0 {
            emit(i, z);
        }
        if 2 * i < m {
            stack.push((2 * i, v + i64::from(z)));
            stack.push((2 * i + 1, v - i64::from(z)));
        }
    }
    Ok(())
}

/// Runs MinHaarSpace end to end on a data array: returns the minimal-size
/// unrestricted synopsis meeting the ε bound under δ-quantization.
pub fn min_haar_space(data: &[f64], p: &MhsParams) -> Result<MhsSolution, MhsError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    if n == 1 {
        // Single value: retain c_0 = nearest grid point iff |d| > ε.
        let d = data[0];
        leaf_window(d, p)?; // refuses a datum the grid cannot hold
        let entries = if d.abs() <= p.epsilon {
            Vec::new()
        } else {
            let g = (d / p.delta).round() as i64;
            if (g as f64 * p.delta - d).abs() > p.epsilon {
                return Err(MhsError::DeltaTooCoarse);
            }
            vec![(0u32, g as f64 * p.delta)]
        };
        let size = entries.len();
        let synopsis = Synopsis::from_entries(1, entries)?;
        let actual_error = (synopsis.reconstruct_value(0) - d).abs();
        return Ok(MhsSolution {
            synopsis,
            size,
            actual_error,
        });
    }
    let rows = subtree_rows(data, p)?;
    let (best_total, best_z0) = rows.resolve_root().ok_or(MhsError::DeltaTooCoarse)?;
    let mut entries = Vec::with_capacity(best_total as usize);
    if best_z0 != 0 {
        entries.push((0u32, best_z0 as f64 * p.delta));
    }
    extract(&rows, data, p, best_z0, |i, z| {
        entries.push((i as u32, f64::from(z) * p.delta));
    })?;
    debug_assert_eq!(entries.len(), best_total as usize);
    let synopsis = Synopsis::from_entries(n, entries)?;
    let approx = synopsis.reconstruct_all();
    let actual_error = dwmaxerr_wavelet::metrics::max_abs(data, &approx);
    Ok(MhsSolution {
        synopsis,
        size: best_total as usize,
        actual_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::metrics::max_abs;
    use proptest::prelude::*;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn params(e: f64, d: f64) -> MhsParams {
        MhsParams::new(e, d).unwrap()
    }

    /// A parent cell `v` by the recurrence's definition: the least
    /// `(z != 0) + L[v + z] + R[v - z]` over every `z` both children hold,
    /// ties to `z = 0`, then to the smallest `z` — its cost and that `z`,
    /// or `(INFEASIBLE, 0)` where no `z` is held.
    fn cell_by_definition(left: &Row, right: &Row, v: i64) -> (u32, i32) {
        (left.lo - v..left.hi() - v)
            .filter(|&z| left.cost(v + z) != INFEASIBLE && right.cost(v - z) != INFEASIBLE)
            .map(|z| {
                (
                    left.cost(v + z) + right.cost(v - z) + u32::from(z != 0),
                    z != 0,
                    z,
                )
            })
            .min()
            .map_or((INFEASIBLE, 0), |(cost, _, z)| (cost, z as i32))
    }

    /// `combine` by its definition: the row spans the cells that have a
    /// `z` ([`cell_by_definition`]; cells between them that have none stay
    /// infeasible); with none at all it is the dead row at the children's
    /// first cell.
    fn combine_by_definition(left: &Row, right: &Row) -> Row {
        let lo = left.lo.min(right.lo);
        let feasible: Vec<i64> = (lo..left.hi().max(right.hi()))
            .filter(|&v| cell_by_definition(left, right, v).0 != INFEASIBLE)
            .collect();
        let (Some(&first), Some(&last)) = (feasible.first(), feasible.last()) else {
            return dead_row(lo);
        };
        Row {
            lo: first,
            costs: (first..=last)
                .map(|v| cell_by_definition(left, right, v).0)
                .collect(),
        }
    }

    /// The row above two data leaves with windows `w1` and `w2`.
    fn leaf_pair_row(w1: Window, w2: Window) -> Row {
        let mut costs = Vec::new();
        combine_cells(&Below::Leaves(w1, w2), &mut costs)
            .map_or_else(|| dead_row(w1.0.min(w2.0)), |lo| Row { lo, costs })
    }

    #[test]
    fn leaf_pair_closed_form_equals_the_definition_over_leaf_rows() {
        // Every pair of windows of 1..=4 cells up to 12 apart: disjoint,
        // touching, nested, equal, and the one-cell pairs whose odd sum
        // leaves the parent no grid point.
        let windows = |lo: i64| (lo..lo + 4).map(move |hi| (lo, hi));
        let zeros = |(lo, hi): (i64, i64)| Row {
            lo,
            costs: vec![0; (hi - lo + 1) as usize],
        };
        for w1 in windows(0) {
            for w2 in (-12..=12).flat_map(windows) {
                let want = combine_by_definition(&zeros(w1), &zeros(w2));
                assert_eq!(leaf_pair_row(w1, w2), want, "{w1:?} {w2:?}");
                assert_eq!(combine(&zeros(w1), &zeros(w2)), want, "{w1:?} {w2:?}");
            }
        }
        assert!(leaf_pair_row((3, 3), (4, 4)).all_infeasible());
        assert!(!leaf_pair_row((3, 3), (5, 5)).all_infeasible());
    }

    /// A wholly feasible row with small costs (so sums tie often), or —
    /// a quarter of the time — the dead row.
    fn child_row() -> impl Strategy<Value = Row> {
        let live = (-30i64..30, prop::collection::vec(0u32..5, 1..20usize));
        (prop::option::of(live), -30i64..30).prop_map(|(live, dead_lo)| match live {
            Some((lo, costs)) => Row { lo, costs },
            None => dead_row(dead_lo),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn combine_equals_the_definition(left in child_row(), right in child_row()) {
            prop_assert_eq!(combine(&left, &right), combine_by_definition(&left, &right));
        }

        #[test]
        fn the_chooser_picks_the_definitions_z(left in child_row(), right in child_row()) {
            let lo = left.lo.min(right.lo);
            for v in lo - 3..left.hi().max(right.hi()) + 3 {
                let want = cell_by_definition(&left, &right, v).1;
                prop_assert_eq!(choose(&left, &right, v), want, "v = {}", v);
            }
        }

        #[test]
        fn the_chooser_keeps_the_leaf_pair_closed_form(
            (a1, n1, a2, n2) in (-40i64..40, 0i64..12, -40i64..40, 0i64..12),
        ) {
            let (w1, w2) = ((a1, a1 + n1), (a2, a2 + n2));
            let zeros = |(lo, hi): Window| Row { lo, costs: vec![0; (hi - lo + 1) as usize] };
            let (left, right) = (zeros(w1), zeros(w2));
            let leaves = Below::Leaves(w1, w2);
            let (lo, hi) = parent_window(w1, w2);
            for v in lo..=hi {
                // The closed form the leaf-pair rows were written with:
                // 0 where both windows hold `v`, else the smallest `z`
                // that reaches both.
                let shared = a1.max(a2)..=(a1 + n1).min(a2 + n2);
                let closed = if shared.contains(&v) {
                    0
                } else {
                    (a1 - v).max(v - (a2 + n2)) as i32
                };
                prop_assert_eq!(leaves.choose(v), closed, "v = {}", v);
                prop_assert_eq!(choose(&left, &right, v), closed, "v = {}", v);
            }
        }
    }

    #[test]
    fn error_bound_is_respected() {
        for eps in [0.5, 1.0, 3.0, 7.0, 13.0, 30.0] {
            let p = params(eps, 0.5);
            let sol = min_haar_space(&PAPER_DATA, &p).unwrap();
            assert!(
                sol.actual_error <= eps + 1e-9,
                "eps={eps}: actual {}",
                sol.actual_error
            );
            let approx = sol.synopsis.reconstruct_all();
            assert!(max_abs(&PAPER_DATA, &approx) <= eps + 1e-9);
        }
    }

    #[test]
    fn size_decreases_with_epsilon() {
        let mut last = usize::MAX;
        for eps in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let p = params(eps, 0.25);
            let sol = min_haar_space(&PAPER_DATA, &p).unwrap();
            assert!(sol.size <= last, "eps={eps}");
            last = sol.size;
        }
    }

    #[test]
    fn huge_epsilon_needs_nothing() {
        let p = params(100.0, 1.0);
        let sol = min_haar_space(&PAPER_DATA, &p).unwrap();
        assert_eq!(sol.size, 0);
    }

    #[test]
    fn zero_epsilon_on_grid_data_is_lossless() {
        // All paper values are integers: with δ = 1 and ε = 0 the DP must
        // reproduce the data exactly.
        let p = params(0.0, 1.0);
        let sol = min_haar_space(&PAPER_DATA, &p).unwrap();
        assert_eq!(sol.actual_error, 0.0);
        assert!(sol.size <= 8);
    }

    #[test]
    fn unrestricted_beats_restricted_on_crafted_input() {
        // Classic unrestricted-wavelet example: data where the optimal
        // retained value differs from the Haar coefficient. ε = 1 over
        // [0, 10]: one coefficient at value ~5 suffices nowhere, but the DP
        // should do no worse than 2 and meet the bound.
        let data = [0.0, 0.0, 10.0, 10.0];
        let p = params(1.0, 0.5);
        let sol = min_haar_space(&data, &p).unwrap();
        assert!(sol.actual_error <= 1.0 + 1e-9);
        assert!(sol.size <= 2, "size {}", sol.size);
    }

    #[test]
    fn delta_too_coarse_detected() {
        // ε = 0.4 but δ = 1: data at 0.5 has no grid point within ε... the
        // grid {0, 1} is 0.5 away, equal to... use 0.45 to be strict.
        let data = [0.45, 7.45];
        let p = params(0.4, 1.0);
        assert!(matches!(
            min_haar_space(&data, &p),
            Err(MhsError::DeltaTooCoarse)
        ));
    }

    #[test]
    fn data_the_grid_cannot_hold_is_refused() {
        // A NaN leaf used to be windowed as 0 (`NaN as i64`) and the solve
        // to return `Ok` with `actual_error = 2 <= ε` over data it never
        // looked at; +∞ and 1e300 overflowed the window arithmetic (a
        // panic in debug builds), −∞ panicked in every build.
        let p = params(2.0, 1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -2e9] {
            let mut data = PAPER_DATA;
            data[5] = bad;
            assert_eq!(min_haar_space(&data, &p).err(), Some(MhsError::OffGrid));
            assert_eq!(min_haar_space(&[bad], &p).err(), Some(MhsError::OffGrid));
            assert_eq!(leaf_row(bad, &p), Err(MhsError::OffGrid));
        }
        // So is an ε that swallows the grid, and the limit itself is inside.
        let wide = params(f64::INFINITY, 1.0);
        assert_eq!(leaf_row(0.0, &wide), Err(MhsError::OffGrid));
        let edge = GRID_LIMIT - 2.0;
        assert_eq!(
            leaf_window(edge, &p),
            Ok((edge as i64 - 2, edge as i64 + 2))
        );
        assert_eq!(leaf_window(edge + 1.0, &p), Err(MhsError::OffGrid));
        // ... where the widest `z` a row can hold still fits its `i32`.
        let sol = min_haar_space(&[edge, -edge], &p).unwrap();
        assert!(sol.size == 1 && sol.actual_error <= 2.0, "{sol:?}");
        // Subnormals are ordinary values next to 0.
        let tiny = f64::MIN_POSITIVE / 4.0;
        let sol = min_haar_space(&[tiny, -tiny, 0.0, 7.0], &p).unwrap();
        assert!(sol.actual_error <= 2.0);
    }

    #[test]
    fn optimality_vs_bruteforce_quantized() {
        // Exhaustive check on 4 points: enumerate all subsets of nodes and
        // all grid values in a small window; the DP size must match the
        // brute-force optimum over the same grid.
        let data = [2.0, 6.0, 3.0, 1.0];
        let eps = 1.5;
        let delta = 0.5;
        let p = params(eps, delta);
        let sol = min_haar_space(&data, &p).unwrap();

        // Brute force: values for each of the 4 nodes from grid indices
        // -16..=16 (covering [-8, 8]) or "absent".
        let grid: Vec<f64> = (-16..=16).map(|g| g as f64 * delta).collect();
        let mut best = usize::MAX;
        // Search subsets of retained nodes; for each, nested loops over
        // values. 4 nodes, 33 values each — prune by subset size.
        for mask in 0u32..16 {
            let count = mask.count_ones() as usize;
            if count >= best {
                continue;
            }
            let nodes: Vec<usize> = (0..4).filter(|i| mask >> i & 1 == 1).collect();
            let mut values = vec![0usize; nodes.len()];
            'outer: loop {
                let entries: Vec<(u32, f64)> = nodes
                    .iter()
                    .zip(&values)
                    .map(|(&n, &v)| (n as u32, grid[v]))
                    .filter(|&(_, val)| val != 0.0)
                    .collect();
                let syn = Synopsis::from_entries(4, entries).unwrap();
                if max_abs(&data, &syn.reconstruct_all()) <= eps + 1e-9 {
                    best = best.min(count);
                }
                // Odometer increment.
                for v in values.iter_mut() {
                    *v += 1;
                    if *v < grid.len() {
                        continue 'outer;
                    }
                    *v = 0;
                }
                break;
            }
            if nodes.is_empty() {
                let syn = Synopsis::empty(4).unwrap();
                if max_abs(&data, &syn.reconstruct_all()) <= eps + 1e-9 {
                    best = 0;
                }
            }
        }
        assert_eq!(
            sol.size, best,
            "DP found {}, brute force {}",
            sol.size, best
        );
    }

    #[test]
    fn leaf_row_window() {
        let p = params(2.0, 1.0);
        let row = leaf_row(5.0, &p).unwrap();
        assert_eq!(row.lo, 3);
        assert_eq!(row.costs.len(), 5); // grid 3,4,5,6,7
        assert!(row.costs.iter().all(|&c| c == 0));
        assert_eq!(row.cost(2), INFEASIBLE);
        assert_eq!(row.cost(8), INFEASIBLE);
    }

    #[test]
    fn combine_respects_mean_window() {
        // Leaves 0 and 10 with ε = 2: parent feasible v must satisfy
        // v = mean ± ε = 5 ± 2.
        let p = params(2.0, 1.0);
        let l = leaf_row(0.0, &p).unwrap();
        let r = leaf_row(10.0, &p).unwrap();
        let parent = combine(&l, &r);
        for v in -5..15 {
            let feasible = parent.cost(v) != INFEASIBLE;
            let in_window = (3..=7).contains(&v);
            assert_eq!(feasible, in_window, "v={v}");
        }
        // Any feasible v needs the detail coefficient (leaves differ by 10 > 2ε).
        assert_eq!(parent.cost(5), 1);
    }

    #[test]
    fn single_value_cases() {
        let p = params(1.0, 0.5);
        let sol = min_haar_space(&[0.5], &p).unwrap();
        assert_eq!(sol.size, 0);
        let sol = min_haar_space(&[42.3], &p).unwrap();
        assert_eq!(sol.size, 1);
        assert!(sol.actual_error <= 1.0);
    }

    #[test]
    fn row_accessors_and_rules() {
        let row = Row {
            lo: 10,
            costs: vec![INFEASIBLE, 3, 2, 5],
        };
        assert_eq!(row.resolve_root(), Some((3, 12)));
        assert_eq!(row.hi(), 14);
        assert_eq!(row.cost(12), 2);
        assert_eq!(row.cost(9), INFEASIBLE);
        assert!(!row.all_infeasible());
    }
}
