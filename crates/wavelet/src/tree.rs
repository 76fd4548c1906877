//! Error-tree index algebra (Section 2.2 of the paper).
//!
//! The error tree of an `N`-value array (`N = 2^L`) has `N` coefficient
//! nodes: `c_0` holds the overall average, `c_1` the coarsest detail
//! coefficient whose subtree spans every leaf, and for `i >= 1` the children
//! of `c_i` are `c_{2i}` and `c_{2i+1}` (when they exist; the last internal
//! level is adjacent to the data leaves). Every data value `d_j` is
//! reconstructed as `sum_{c_i in path_j} delta_ij * c_i` where `delta_ij` is
//! `+1` when `d_j` lies in the left subtree of `c_i` (or `i == 0`) and `-1`
//! otherwise.
//!
//! [`TreeTopology`] captures the pure index math (usable without owning any
//! coefficients, which the distributed algorithms need), and [`ErrorTree`]
//! couples a topology with a coefficient array.
//!
//! For streaming/progressive workloads the tree is additionally addressable
//! at **subtree granularity**: partition the `N` leaves into `R` equal
//! power-of-two blocks and each block `j` owns the coefficient subtree
//! rooted at node `R + j`, while nodes `0..R` form the *upper tree* — the
//! Haar transform of the `R` block averages. [`DirtySet`] tracks which
//! subtree roots have stale data; the maintainers that rebuild exactly
//! those subtrees (plus the upper tree, `O(R)`) live in
//! `dwmaxerr_core::progressive`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::error::{ensure_pow2, WaveletError};
use crate::transform;

/// Pure index algebra over the error tree of an `n`-value array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeTopology {
    n: usize,
    log_n: u32,
}

/// A node's children: either two coefficient nodes or two data leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Children {
    /// `c_0`'s single coefficient child, `c_1` (only when `n > 1`).
    Root(usize),
    /// Two internal coefficient nodes `(c_{2i}, c_{2i+1})`.
    Coefficients(usize, usize),
    /// Two data leaves, identified by their positions in the data array.
    Leaves(usize, usize),
    /// `n == 1`: `c_0` directly reconstructs the single leaf.
    None,
}

impl TreeTopology {
    /// Creates the topology of an `n`-leaf error tree. `n` must be a
    /// non-zero power of two.
    pub fn new(n: usize) -> Result<Self, WaveletError> {
        ensure_pow2(n)?;
        Ok(TreeTopology {
            n,
            log_n: n.trailing_zeros(),
        })
    }

    /// Number of data values (equal to the number of coefficient nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree covers a single data value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `log2(n)`: the number of detail levels.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.log_n
    }

    /// Resolution level of coefficient `i` (0 = coarsest). `c_0` and `c_1`
    /// both live at level 0, matching the normalization of Section 2.3.
    #[inline]
    pub fn level(&self, i: usize) -> u32 {
        debug_assert!(i < self.n);
        if i <= 1 {
            0
        } else {
            usize::BITS - 1 - i.leading_zeros()
        }
    }

    /// The range of data positions covered by the subtree of coefficient `i`
    /// (the paper's `leaves_i`).
    #[inline]
    pub fn leaf_span(&self, i: usize) -> Range<usize> {
        debug_assert!(i < self.n);
        if i <= 1 {
            return 0..self.n;
        }
        let l = self.level(i);
        let width = self.n >> l;
        let start = (i - (1usize << l)) * width;
        start..start + width
    }

    /// `leftleaves_i`: for `c_0` this is the whole array (every leaf takes
    /// `delta = +1`); for detail coefficients it is the first half of the
    /// subtree span.
    #[inline]
    pub fn left_span(&self, i: usize) -> Range<usize> {
        let span = self.leaf_span(i);
        if i == 0 {
            span
        } else {
            let mid = span.start + (span.end - span.start) / 2;
            span.start..mid
        }
    }

    /// `rightleaves_i` (empty for `c_0`).
    #[inline]
    pub fn right_span(&self, i: usize) -> Range<usize> {
        let span = self.leaf_span(i);
        if i == 0 {
            span.end..span.end
        } else {
            let mid = span.start + (span.end - span.start) / 2;
            mid..span.end
        }
    }

    /// The reconstruction sign `delta_ij` of coefficient `i` for leaf `j`.
    /// Returns 0 when `c_i` does not lie on `path_j`.
    #[inline]
    pub fn sign(&self, i: usize, j: usize) -> i32 {
        debug_assert!(i < self.n && j < self.n);
        if i == 0 {
            return 1;
        }
        if !self.leaf_span(i).contains(&j) {
            return 0;
        }
        if self.left_span(i).contains(&j) {
            1
        } else {
            -1
        }
    }

    /// Children of coefficient `i`.
    #[inline]
    pub fn children(&self, i: usize) -> Children {
        debug_assert!(i < self.n);
        if i == 0 {
            return if self.n == 1 {
                Children::None
            } else {
                Children::Root(1)
            };
        }
        if 2 * i + 1 < self.n {
            Children::Coefficients(2 * i, 2 * i + 1)
        } else {
            let span = self.leaf_span(i);
            debug_assert_eq!(span.end - span.start, 2);
            Children::Leaves(span.start, span.start + 1)
        }
    }

    /// Parent of coefficient `i` (`None` for `c_0`).
    #[inline]
    pub fn parent(&self, i: usize) -> Option<usize> {
        debug_assert!(i < self.n);
        match i {
            0 => None,
            1 => Some(0),
            _ => Some(i / 2),
        }
    }

    /// Number of coefficient nodes in the subtree rooted at `i` (including
    /// `i` itself). For `c_0` this is the whole tree.
    #[inline]
    pub fn subtree_size(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        if i == 0 {
            self.n
        } else {
            (self.n >> self.level(i)) - 1
        }
    }

    /// Iterates `path_j` bottom-up, yielding `(coefficient index, sign)` for
    /// every node on the path from leaf `j` to the root, including `c_0`.
    pub fn path_of_leaf(&self, j: usize) -> impl Iterator<Item = (usize, i32)> + '_ {
        debug_assert!(j < self.n);
        let log_n = self.log_n;
        (0..log_n)
            .rev()
            .map(move |l| {
                let idx = (1usize << l) + (j >> (log_n - l));
                let sign = if (j >> (log_n - l - 1)) & 1 == 0 {
                    1
                } else {
                    -1
                };
                (idx, sign)
            })
            .chain(std::iter::once((0, 1)))
    }

    /// The proper ancestors of node `i` (excluding `i`), bottom-up,
    /// ending at `c_0`.
    pub fn ancestors(&self, i: usize) -> impl Iterator<Item = usize> {
        let mut cur = i;
        let n = self.n;
        std::iter::from_fn(move || {
            if cur == 0 {
                None
            } else {
                cur = if cur == 1 { 0 } else { cur / 2 };
                debug_assert!(cur < n);
                Some(cur)
            }
        })
    }

    /// The sign with which ancestor `a` contributes to every leaf below
    /// node `i` (all leaves of `i` share the same sign for a proper
    /// ancestor).
    #[inline]
    pub fn ancestor_sign(&self, a: usize, i: usize) -> i32 {
        let leaf = self.leaf_span(i).start;
        self.sign(a, leaf)
    }

    /// The incoming value at node `i`: the partial reconstruction
    /// contributed by all proper ancestors of `i` (Section 4; e.g. the
    /// incoming value of `c_2` in the paper's example is `7 + 2 = 9`).
    pub fn incoming_value(&self, coeffs: &[f64], i: usize) -> f64 {
        debug_assert_eq!(coeffs.len(), self.n);
        self.ancestors(i)
            .map(|a| f64::from(self.ancestor_sign(a, i)) * coeffs[a])
            .sum()
    }
}

/// An error tree owning its coefficient array.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTree {
    topo: TreeTopology,
    coeffs: Vec<f64>,
}

impl ErrorTree {
    /// Builds the error tree of `data` by running the forward Haar
    /// transform. `data.len()` must be a power of two.
    pub fn from_data(data: &[f64]) -> Result<Self, WaveletError> {
        let coeffs = transform::forward(data)?;
        Ok(ErrorTree {
            topo: TreeTopology::new(coeffs.len())?,
            coeffs,
        })
    }

    /// Wraps an existing coefficient array.
    pub fn from_coefficients(coeffs: Vec<f64>) -> Result<Self, WaveletError> {
        Ok(ErrorTree {
            topo: TreeTopology::new(coeffs.len())?,
            coeffs,
        })
    }

    /// The tree's index algebra.
    #[inline]
    pub fn topology(&self) -> TreeTopology {
        self.topo
    }

    /// All coefficients, `c_0` first.
    #[inline]
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Number of coefficients / data values.
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Always false: trees have at least one node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Coefficient value at node `i`.
    #[inline]
    pub fn coefficient(&self, i: usize) -> f64 {
        self.coeffs[i]
    }

    /// The L2-normalized magnitude `|c_i| / sqrt(2^level(c_i))` used by the
    /// conventional thresholding scheme (Section 2.3).
    #[inline]
    pub fn normalized_abs(&self, i: usize) -> f64 {
        self.coeffs[i].abs() / f64::from(1u32 << self.topo.level(i)).sqrt()
    }

    /// Exact reconstruction of data value `j` from the full coefficient
    /// array (`O(log N)`).
    pub fn reconstruct_value(&self, j: usize) -> f64 {
        self.topo
            .path_of_leaf(j)
            .map(|(i, s)| f64::from(s) * self.coeffs[i])
            .sum()
    }

    /// The incoming value at node `i` (see [`TreeTopology::incoming_value`]).
    pub fn incoming_value(&self, i: usize) -> f64 {
        self.topo.incoming_value(&self.coeffs, i)
    }
}

/// The set of stale error-tree subtrees, keyed by subtree root node id.
///
/// A `DirtySet` is how streaming drivers communicate *which part* of the
/// tree an append or sliding-window advance invalidated: each entry is the
/// root of one fixed-level subtree (node `R + j` for block `j` of an
/// `R`-way partition). Iteration is always in ascending root order, so a
/// rebuild touches subtrees deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    roots: BTreeSet<usize>,
}

impl DirtySet {
    /// An empty dirty set.
    pub fn new() -> Self {
        DirtySet::default()
    }

    /// Marks the subtree rooted at `root` as stale. Idempotent.
    pub fn mark(&mut self, root: usize) {
        self.roots.insert(root);
    }

    /// True when `root` is marked stale.
    pub fn contains(&self, root: usize) -> bool {
        self.roots.contains(&root)
    }

    /// Number of stale subtrees.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when nothing is stale.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The stale roots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.roots.iter().copied()
    }

    /// Empties the set, returning the roots it held in ascending order.
    pub fn drain(&mut self) -> Vec<usize> {
        let out: Vec<usize> = self.roots.iter().copied().collect();
        self.roots.clear();
        out
    }

    /// Discards all marks.
    pub fn clear(&mut self) {
        self.roots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tree() -> ErrorTree {
        ErrorTree::from_data(&[5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0]).unwrap()
    }

    #[test]
    fn levels_match_table1() {
        let t = TreeTopology::new(8).unwrap();
        assert_eq!(t.level(0), 0);
        assert_eq!(t.level(1), 0);
        assert_eq!(t.level(2), 1);
        assert_eq!(t.level(3), 1);
        for i in 4..8 {
            assert_eq!(t.level(i), 2);
        }
    }

    #[test]
    fn leaf_spans() {
        let t = TreeTopology::new(8).unwrap();
        assert_eq!(t.leaf_span(0), 0..8);
        assert_eq!(t.leaf_span(1), 0..8);
        assert_eq!(t.leaf_span(2), 0..4);
        assert_eq!(t.leaf_span(3), 4..8);
        assert_eq!(t.leaf_span(5), 2..4);
        assert_eq!(t.leaf_span(7), 6..8);
        assert_eq!(t.left_span(2), 0..2);
        assert_eq!(t.right_span(2), 2..4);
        assert_eq!(t.left_span(0), 0..8);
        assert!(t.right_span(0).is_empty());
    }

    #[test]
    fn children_and_parents_are_inverse() {
        let t = TreeTopology::new(16).unwrap();
        for i in 1..16 {
            match t.children(i) {
                Children::Coefficients(l, r) => {
                    assert_eq!(t.parent(l), Some(i));
                    assert_eq!(t.parent(r), Some(i));
                }
                Children::Leaves(a, b) => {
                    assert_eq!(b, a + 1);
                    assert_eq!(t.leaf_span(i), a..a + 2);
                }
                other => panic!("unexpected children for {i}: {other:?}"),
            }
        }
        assert_eq!(t.children(0), Children::Root(1));
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn trivial_tree() {
        let t = TreeTopology::new(1).unwrap();
        assert_eq!(t.children(0), Children::None);
        assert_eq!(t.subtree_size(0), 1);
        let e = ErrorTree::from_data(&[9.0]).unwrap();
        assert_eq!(e.reconstruct_value(0), 9.0);
    }

    #[test]
    fn subtree_sizes() {
        let t = TreeTopology::new(8).unwrap();
        assert_eq!(t.subtree_size(0), 8);
        assert_eq!(t.subtree_size(1), 7);
        assert_eq!(t.subtree_size(2), 3);
        assert_eq!(t.subtree_size(4), 1);
    }

    #[test]
    fn paper_reconstruction_d5() {
        // d_5 = 7 - 2 - 3 - (-1) = 3 (Section 2.2).
        let tree = paper_tree();
        assert_eq!(tree.reconstruct_value(5), 3.0);
        let path: Vec<_> = tree.topology().path_of_leaf(5).collect();
        assert_eq!(path, vec![(6, -1), (3, 1), (1, -1), (0, 1)]);
    }

    #[test]
    fn all_paper_values_reconstruct() {
        let data = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
        let tree = paper_tree();
        for (j, &d) in data.iter().enumerate() {
            assert!((tree.reconstruct_value(j) - d).abs() < 1e-12, "leaf {j}");
        }
    }

    #[test]
    fn signs_match_spans() {
        let t = TreeTopology::new(8).unwrap();
        assert_eq!(t.sign(2, 0), 1);
        assert_eq!(t.sign(2, 3), -1);
        assert_eq!(t.sign(2, 5), 0);
        assert_eq!(t.sign(0, 7), 1);
        assert_eq!(t.sign(1, 2), 1);
        assert_eq!(t.sign(1, 6), -1);
    }

    #[test]
    fn incoming_value_of_c2_is_9() {
        // Section 4: "the incoming value of c_2 is 7 + 2 = 9".
        let tree = paper_tree();
        assert_eq!(tree.incoming_value(2), 9.0);
        // c_3 sits in the right subtree of c_1: 7 - 2 = 5.
        assert_eq!(tree.incoming_value(3), 5.0);
        assert_eq!(tree.incoming_value(0), 0.0);
        assert_eq!(tree.incoming_value(1), 7.0);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let t = TreeTopology::new(16).unwrap();
        let anc: Vec<_> = t.ancestors(11).collect();
        assert_eq!(anc, vec![5, 2, 1, 0]);
        assert_eq!(t.ancestors(0).count(), 0);
    }

    #[test]
    fn dirty_set_drains_in_order() {
        let mut d = DirtySet::new();
        d.mark(9);
        d.mark(4);
        d.mark(9);
        assert_eq!(d.len(), 2);
        assert_eq!(d.drain(), vec![4, 9]);
        assert!(d.is_empty());
    }

    #[test]
    fn normalized_abs_ordering() {
        let tree = paper_tree();
        // c_0 = 7 and c_1 = 2 are unscaled; c_5 = -13 at level 2 scales by 2.
        assert!((tree.normalized_abs(0) - 7.0).abs() < 1e-12);
        assert!((tree.normalized_abs(1) - 2.0).abs() < 1e-12);
        assert!((tree.normalized_abs(5) - 6.5).abs() < 1e-12);
        assert!((tree.normalized_abs(2) - 4.0 / 2f64.sqrt()).abs() < 1e-12);
    }
}
