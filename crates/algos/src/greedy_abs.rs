//! GreedyAbs: the one-pass greedy heuristic for maximum-absolute-error
//! thresholding (Karras & Mamoulis \[22\], described in Section 5.1).
//!
//! Each not-yet-discarded coefficient `c_k` carries its *maximum potential
//! absolute error* `MA_k` (Eq. 7) — the max-abs error the running synopsis
//! would incur if `c_k` were discarded. Because a removal shifts the signed
//! errors of its left (right) leaves uniformly by `-c_k` (`+c_k`), `MA_k`
//! is computable from four per-node extrema (Eq. 8):
//!
//! ```text
//! MA_k = max(|max_l - c_k|, |min_l - c_k|, |max_r + c_k|, |min_r + c_k|)
//! ```
//!
//! The algorithm repeatedly discards the coefficient with the smallest
//! `MA_k`, updates descendant/ancestor extrema and — since max-abs is not
//! monotone in the number of removals — keeps discarding *past* the budget
//! `B`, finally choosing the best of the last `B+1` states.
//!
//! There is no separate priority queue: the error tree is its own
//! tournament. Every node carries `best`, the smallest `(MA, id)` among
//! the retained nodes of its sub-tree, so the next discard is read off the
//! root, and the two walks a discard already makes — down the discarded
//! node's sub-tree to shift extrema, up its ancestor path to recompute
//! them — refresh `best` along the way (DESIGN.md §3.2).
//!
//! The same engine runs on a full error tree (with the average coefficient
//! `c_0`) or on a *base sub-tree* with a uniform incoming error `e_in`
//! (Section 5.2), which is what DGreedyAbs's level-1 workers execute.

use dwmaxerr_wavelet::{Synopsis, WaveletError};

/// One step of the greedy removal sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Removal {
    /// Local node id: 0 is the average coefficient (full-tree mode only);
    /// `1..m` are detail nodes in error-tree heap order.
    pub node: u32,
    /// The running synopsis's max-abs error *after* this removal.
    pub error_after: f64,
}

/// A node's bid to be discarded next, ordered by `(|key|.to_bits(), id)`.
///
/// `MA` and `MR` are maxima of absolute values, so only the magnitude of a
/// key means anything (`new` clears the sign bit, which at most turns a
/// `-0.0` into `0.0`), and the bit pattern of a magnitude orders exactly
/// like its value on finite keys and `+∞` — the `(f64, id)` order of a
/// heap, ties on the smaller id. A NaN key sorts after `+∞` instead of
/// poisoning comparisons, and [`Candidate::NONE`] sorts after every bid a
/// node can make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Candidate(u128);

impl Candidate {
    /// The `best` of a sub-tree with no retained node.
    pub(crate) const NONE: Candidate = Candidate(u128::MAX);

    #[inline]
    pub(crate) fn new(key: f64, id: usize) -> Self {
        Candidate((key.abs().to_bits() as u128) << 32 | id as u32 as u128)
    }

    #[inline]
    pub(crate) fn id(self) -> usize {
        self.0 as u32 as usize
    }
}

/// One error-tree node: everything a discard reads or writes about it, in
/// 64 contiguous bytes, so both walks touch one place per node.
#[derive(Debug, Clone)]
struct Node {
    /// Signed-error extrema over the node's left and right leaves.
    max_l: f64,
    min_l: f64,
    max_r: f64,
    min_r: f64,
    coeff: f64,
    /// The smallest bid among the retained nodes of this sub-tree.
    best: Candidate,
    /// Retained nodes in this sub-tree, this node included.
    live: u32,
    retained: bool,
}

impl Node {
    /// `MA_k` (Eq. 8).
    #[inline]
    fn ma(&self) -> f64 {
        let c = self.coeff;
        (self.max_l - c)
            .abs()
            .max((self.min_l - c).abs())
            .max((self.max_r + c).abs())
            .max((self.min_r + c).abs())
    }

    /// `(max, min)` signed error over all leaves below the node.
    #[inline]
    fn extrema(&self) -> (f64, f64) {
        (self.max_l.max(self.max_r), self.min_l.min(self.min_r))
    }

    /// The sub-tree's smallest bid: the node's own, while it is retained,
    /// against the smallest of its children's sub-trees.
    #[inline]
    fn best_over(&self, id: usize, best_below: Candidate) -> Candidate {
        if self.retained {
            best_below.min(Candidate::new(self.ma(), id))
        } else {
            best_below
        }
    }
}

// `memory::greedy_abs_bytes` charges this layout.
const _: () = assert!(std::mem::size_of::<Node>() == 64);

/// GreedyAbs state over a (sub)tree with `m` leaves.
///
/// Node ids are local: id 0 is the average slot (present only in full-tree
/// mode), ids `1..m` are the `m - 1` detail coefficients in heap order
/// (id 1 = the subtree's root detail).
#[derive(Debug, Clone)]
pub struct GreedyAbs {
    m: usize,
    /// `nodes[0]` holds the average (its `coeff` and `retained` only);
    /// `nodes[1..m]` are the details. A one-leaf tree has no detail, so a
    /// discarded stand-in `nodes[1]` carries its leaf's error.
    nodes: Vec<Node>,
}

impl GreedyAbs {
    /// Builds the state for a full error tree from its coefficient array
    /// (`c_0` first). `coeffs.len()` must be a power of two.
    pub fn new_full(coeffs: &[f64]) -> Result<Self, WaveletError> {
        dwmaxerr_wavelet::error::ensure_pow2(coeffs.len())?;
        Ok(Self::build(coeffs.iter().copied(), true, 0.0))
    }

    /// Builds the state for a base sub-tree: `details` holds the `m - 1`
    /// detail coefficients in local heap order (subtree root first), and
    /// `incoming_err` is the uniform signed error `delta_j * e_in` induced
    /// by discarded ancestors (Section 5.2). `details.len() + 1` must be a
    /// power of two.
    pub fn new_subtree(details: &[f64], incoming_err: f64) -> Result<Self, WaveletError> {
        let m = details.len() + 1;
        dwmaxerr_wavelet::error::ensure_pow2(m)?;
        if m < 2 {
            return Err(WaveletError::Empty);
        }
        // The average slot stays unused.
        let coeffs = std::iter::once(0.0).chain(details.iter().copied());
        Ok(Self::build(coeffs, false, incoming_err))
    }

    fn build(coeffs: impl Iterator<Item = f64>, has_average: bool, initial_err: f64) -> Self {
        let node = |coeff, retained| Node {
            max_l: initial_err,
            min_l: initial_err,
            max_r: initial_err,
            min_r: initial_err,
            coeff,
            best: Candidate::NONE,
            live: 0,
            retained,
        };
        let mut nodes: Vec<Node> = coeffs.map(|c| node(c, true)).collect();
        let m = nodes.len();
        nodes[0].retained = has_average;
        if m == 1 {
            nodes.push(node(0.0, false));
        }
        let mut state = GreedyAbs { m, nodes };
        for i in (1..m).rev() {
            let (live, best) = if 2 * i < m {
                let (l, r) = (&state.nodes[2 * i], &state.nodes[2 * i + 1]);
                (l.live + r.live, l.best.min(r.best))
            } else {
                (0, Candidate::NONE)
            };
            let node = &mut state.nodes[i];
            node.live = live + 1;
            node.best = node.best_over(i, best);
        }
        state
    }

    /// Number of leaves covered by this (sub)tree.
    #[inline]
    pub fn leaves(&self) -> usize {
        self.m
    }

    /// Number of coefficients still retained.
    #[inline]
    pub fn retained(&self) -> usize {
        self.nodes[1].live as usize + usize::from(self.nodes[0].retained)
    }

    /// The current running max-abs error over all leaves.
    pub fn current_error(&self) -> f64 {
        let (gmax, gmin) = self.nodes[1].extrema();
        gmax.abs().max(gmin.abs())
    }

    /// `MA_0` for the average coefficient: its removal shifts every leaf by
    /// `-c_0`.
    #[inline]
    fn ma_average(&self) -> f64 {
        let c0 = self.nodes[0].coeff;
        let (gmax, gmin) = self.nodes[1].extrema();
        (gmax - c0).abs().max((gmin - c0).abs())
    }

    /// Shifts the extrema of node `i` and of its descendants by `delta`,
    /// children first, and returns the sub-tree's refreshed `best`.
    ///
    /// Stops below a node with `live == 0`: a node's extrema are read by
    /// its own `MA` while it is retained and by its parent's recomputation
    /// on the ancestor walk of a discard below that parent — and under a
    /// sub-tree with nothing left to discard neither happens again.
    fn shift_subtree(&mut self, i: usize, delta: f64) -> Candidate {
        let node = &mut self.nodes[i];
        node.max_l += delta;
        node.min_l += delta;
        node.max_r += delta;
        node.min_r += delta;
        if node.live == 0 {
            return Candidate::NONE;
        }
        let best_below = self.shift_children(i, delta, delta);
        let node = &mut self.nodes[i];
        node.best = node.best_over(i, best_below);
        node.best
    }

    /// Shifts the sub-trees of `i`'s left and right child and returns the
    /// smaller of their refreshed `best`s (`NONE` on the bottom level,
    /// whose children are leaves).
    #[inline]
    fn shift_children(&mut self, i: usize, delta_l: f64, delta_r: f64) -> Candidate {
        if 2 * i >= self.m {
            return Candidate::NONE;
        }
        let left = self.shift_subtree(2 * i, delta_l);
        left.min(self.shift_subtree(2 * i + 1, delta_r))
    }

    /// Discards detail node `k`, updating extrema, `live` and `best` on
    /// its sub-tree and on its ancestor path.
    fn discard_detail(&mut self, k: usize) {
        let c = self.nodes[k].coeff;
        let best_below = self.shift_children(k, -c, c);
        let node = &mut self.nodes[k];
        // k's own extrema shift by side (discarded, but ancestors read them).
        node.max_l -= c;
        node.min_l -= c;
        node.max_r += c;
        node.min_r += c;
        node.retained = false;
        node.live -= 1;
        node.best = best_below;
        // Ancestors: recompute extrema and `best` from the two children.
        let mut a = k / 2;
        while a >= 1 {
            let (l, r) = (&self.nodes[2 * a], &self.nodes[2 * a + 1]);
            let ((max_l, min_l), (max_r, min_r)) = (l.extrema(), r.extrema());
            let best_below = l.best.min(r.best);
            let node = &mut self.nodes[a];
            node.max_l = max_l;
            node.min_l = min_l;
            node.max_r = max_r;
            node.min_r = min_r;
            node.live -= 1;
            node.best = node.best_over(a, best_below);
            a /= 2;
        }
    }

    /// Discards the average coefficient: every leaf shifts by `-c_0`.
    fn discard_average(&mut self) {
        self.nodes[0].retained = false;
        self.shift_subtree(1, -self.nodes[0].coeff);
    }

    /// Discards the node with the smallest `MA` and returns the removal
    /// record, or `None` when every coefficient is gone.
    pub fn step(&mut self) -> Option<Removal> {
        let mut next = self.nodes[1].best;
        if self.nodes[0].retained {
            next = next.min(Candidate::new(self.ma_average(), 0));
        }
        if next == Candidate::NONE {
            return None;
        }
        if next.id() == 0 {
            self.discard_average();
        } else {
            self.discard_detail(next.id());
        }
        Some(Removal {
            node: next.id() as u32,
            error_after: self.current_error(),
        })
    }

    /// Runs the greedy loop until no coefficient remains, returning the
    /// complete removal sequence (the ordered list `L_j` of Section 5.2).
    pub fn run_to_empty(&mut self) -> Vec<Removal> {
        let mut out = Vec::with_capacity(self.retained());
        while let Some(r) = self.step() {
            out.push(r);
        }
        out
    }
}

/// Picks the best stopping point for a budget `b` from a full removal
/// sequence: of the `b + 1` final states (sizes `b, b-1, …, 0`), the one
/// with the smallest max-abs error (Section 5.1). Returns
/// `(number of removals to apply, that state's error)`.
pub fn best_prefix(trace: &[Removal], total_nodes: usize, b: usize) -> (usize, f64) {
    debug_assert_eq!(trace.len(), total_nodes);
    let min_removals = total_nodes.saturating_sub(b);
    let mut best_t = min_removals;
    let mut best_err = error_after(trace, min_removals);
    for t in min_removals + 1..=total_nodes {
        let e = error_after(trace, t);
        if e < best_err {
            best_err = e;
            best_t = t;
        }
    }
    (best_t, best_err)
}

/// The max-abs error after `t` removals of a trace (0 removals = exact).
fn error_after(trace: &[Removal], t: usize) -> f64 {
    if t == 0 {
        0.0
    } else {
        trace[t - 1].error_after
    }
}

/// Complete GreedyAbs thresholding of a full coefficient array: returns the
/// best synopsis with at most `b` retained coefficients and its max-abs
/// error.
pub fn greedy_abs_synopsis(coeffs: &[f64], b: usize) -> Result<(Synopsis, f64), WaveletError> {
    let n = coeffs.len();
    let mut state = GreedyAbs::new_full(coeffs)?;
    let trace = state.run_to_empty();
    let (t, err) = best_prefix(&trace, n, b);
    Ok((synopsis_without(coeffs, &trace[..t])?, err))
}

/// The synopsis that keeps every coefficient but the `removed` ones.
pub(crate) fn synopsis_without(
    coeffs: &[f64],
    removed: &[Removal],
) -> Result<Synopsis, WaveletError> {
    let mut keep = vec![true; coeffs.len()];
    for r in removed {
        keep[r.node as usize] = false;
    }
    let retained: Vec<u32> = (0..coeffs.len() as u32)
        .filter(|&i| keep[i as usize])
        .collect();
    Synopsis::retain_indices(coeffs, &retained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_wavelet::metrics::max_abs;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    /// Reconstructs with the nodes remaining after `t` removals and checks
    /// the tracked error against a brute-force evaluation.
    fn check_trace_against_bruteforce(data: &[f64]) {
        let w = forward(data).unwrap();
        let n = w.len();
        let mut g = GreedyAbs::new_full(&w).unwrap();
        let trace = g.run_to_empty();
        assert_eq!(trace.len(), n);
        let mut removed = std::collections::HashSet::new();
        for r in &trace {
            removed.insert(r.node);
            let retained: Vec<u32> = (0..n as u32).filter(|i| !removed.contains(i)).collect();
            let syn = Synopsis::retain_indices(&w, &retained).unwrap();
            let actual_err = max_abs(data, &syn.reconstruct_all());
            assert!(
                (r.error_after - actual_err).abs() < 1e-9,
                "tracked {} vs actual {} after removing {:?}",
                r.error_after,
                actual_err,
                removed
            );
        }
    }

    #[test]
    fn tracked_errors_match_bruteforce_paper_data() {
        check_trace_against_bruteforce(&PAPER_DATA);
    }

    #[test]
    fn tracked_errors_match_bruteforce_various() {
        check_trace_against_bruteforce(&[1.0, 1.0, 1.0, 1.0]);
        check_trace_against_bruteforce(&[0.0, 100.0]);
        check_trace_against_bruteforce(&[3.0]);
        check_trace_against_bruteforce(&[
            12.5, -3.0, 0.0, 0.0, 7.0, 7.0, 6.5, -2.25, 100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
        ]);
    }

    #[test]
    fn first_removal_is_smallest_ma() {
        // With zero initial error MA_k = |c_k|, so the first discarded node
        // is the smallest-magnitude coefficient (Section 5.1).
        let w = forward(&PAPER_DATA).unwrap(); // [7,2,-4,-3,0,-13,-1,6]
        let mut g = GreedyAbs::new_full(&w).unwrap();
        let first = g.step().unwrap();
        assert_eq!(first.node, 4); // c_4 = 0
        assert_eq!(first.error_after, 0.0);
    }

    #[test]
    fn synopsis_respects_budget_and_error() {
        let w = forward(&PAPER_DATA).unwrap();
        for b in 0..=8 {
            let (syn, err) = greedy_abs_synopsis(&w, b).unwrap();
            assert!(syn.size() <= b, "budget {b} violated: {}", syn.size());
            let actual = max_abs(&PAPER_DATA, &syn.reconstruct_all());
            assert!((actual - err).abs() < 1e-9, "b={b}");
        }
    }

    #[test]
    fn full_budget_is_lossless() {
        let w = forward(&PAPER_DATA).unwrap();
        let (_, err) = greedy_abs_synopsis(&w, 8).unwrap();
        assert_eq!(err, 0.0);
    }

    #[test]
    fn error_decreases_with_budget() {
        let w = forward(&PAPER_DATA).unwrap();
        let mut last = f64::INFINITY;
        for b in 0..=8 {
            let (_, err) = greedy_abs_synopsis(&w, b).unwrap();
            assert!(err <= last + 1e-12, "b={b}: {err} > {last}");
            last = err;
        }
    }

    #[test]
    fn subtree_mode_with_incoming_error() {
        // Subtree with 4 leaves, details [d1, d2, d3], incoming error 5.
        let details = [2.0, 1.0, -1.0];
        let mut g = GreedyAbs::new_subtree(&details, 5.0).unwrap();
        assert_eq!(g.current_error(), 5.0);
        // MA with uniform err e: |e| + |c|; smallest is |c| = 1 at node 2.
        let r = g.step().unwrap();
        assert_eq!(r.node, 2);
        assert!((r.error_after - 6.0).abs() < 1e-12);
    }

    #[test]
    fn subtree_trace_matches_manual_simulation() {
        // 4 leaves, details [a=3, b=1, c=2] (local nodes 1, 2, 3).
        // Leaf reconstruction: leaf0 = e + a + b, leaf1 = e + a - b,
        // leaf2 = e - a + c, leaf3 = e - a - c, with e = 0 here.
        let details = [3.0, 1.0, 2.0];
        let mut g = GreedyAbs::new_subtree(&details, 0.0).unwrap();
        let trace = g.run_to_empty();
        assert_eq!(trace.len(), 3);
        // Removal order by |c|: node 2 (1.0), node 3 (2.0), node 1 (3.0).
        assert_eq!(trace[0].node, 2);
        assert!((trace[0].error_after - 1.0).abs() < 1e-12);
        assert_eq!(trace[1].node, 3);
        assert!((trace[1].error_after - 2.0).abs() < 1e-12);
        assert_eq!(trace[2].node, 1);
        // After removing everything, |err| = |±a ± b| max = 3 + 2 = ...
        // leaf0 err = -(a + b) = -4, leaf3 err = a + c = 5 -> max 5.
        assert!((trace[2].error_after - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(GreedyAbs::new_full(&[1.0, 2.0, 3.0]).is_err());
        assert!(GreedyAbs::new_subtree(&[1.0, 2.0], 0.0).is_err()); // m = 3
    }

    #[test]
    fn non_monotone_error_is_handled() {
        // Removing a coefficient can *decrease* max_abs (Section 5.1);
        // best_prefix must pick the later, better state.
        let trace = vec![
            Removal {
                node: 1,
                error_after: 10.0,
            },
            Removal {
                node: 2,
                error_after: 4.0,
            },
            Removal {
                node: 3,
                error_after: 12.0,
            },
            Removal {
                node: 0,
                error_after: 20.0,
            },
        ];
        // b = 3 allows 1..=4 removals; best is t = 2 (error 4).
        let (t, e) = best_prefix(&trace, 4, 3);
        assert_eq!(t, 2);
        assert_eq!(e, 4.0);
        // b = 4 allows t = 0 (exact).
        let (t, e) = best_prefix(&trace, 4, 4);
        assert_eq!(t, 0);
        assert_eq!(e, 0.0);
    }
}
