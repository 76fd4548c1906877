//! The sharded retained-coefficient representation served on the read
//! path.
//!
//! A [`ShardedSynopsis`] re-cuts a built [`Synopsis`] along the paper's
//! locality-preserving error-tree partitioning ([`BasePartition`]): the
//! retained coefficients of each **base sub-tree** `j` land in shard `j`,
//! and the retained coefficients of the **root sub-tree** (node ids
//! `< R`) are folded at build time into one `root_incoming` scalar per
//! shard — the signed sum of retained root coefficients along base `j`'s
//! root path. Self-similarity makes that scalar uniform across *every*
//! leaf of base `j` (it is exactly [`BasePartition::incoming_value`]), so
//! a point query touches one shard and replaces its `O(log R)` root-path
//! descent with one add:
//!
//! ```text
//! d̂_x = root_incoming[x / S]  +  Σ  sign(i, x) · c_i
//!                               i ∈ path(x), i ≥ R, retained
//! ```
//!
//! A range sum `d̂(l:h)` needs only the coefficients on
//! `path_l ∪ path_h` (interior details cancel, Section 2.2), so it reads
//! at most the two shards owning `l` and `h`: every whole shard between
//! them contributes `S · root_incoming` and nothing else, and those
//! totals are prefix-summed at build.
//!
//! # Shard layout
//!
//! A shard addresses its nodes by *local* heap id (`1` = the base
//! sub-tree's root, [`BasePartition::global_to_local`]): the retained
//! values sit in id order beside an occupancy bitmap over the `S` local
//! ids and one running count per 64-bit word, so "coefficient of local
//! node `i`" is two loads, a mask and a `count_ones` — no search. The
//! bitmap and the counts cost 1.5 bits per served value, whatever the
//! budget.
//!
//! The struct is immutable after [`ShardedSynopsis::build`]; the store
//! (see [`crate::store`]) swaps whole instances atomically, so readers
//! never lock.
//!
//! Floating-point note: the sharded summation order (root path first,
//! then top-down) differs from [`Synopsis::reconstruct_value`]'s
//! bottom-up path order, so answers agree with the reference evaluators
//! to ~1e-9 relative, not bit for bit; they are bit-identical from call
//! to call, and exact wherever the reference is (whole-number data).

#![warn(clippy::too_many_lines)]

use std::ops::Range;

use dwmaxerr_core::partition::BasePartition;
use dwmaxerr_core::query::{Answer, ErrorBound};
use dwmaxerr_wavelet::transform::inverse;
use dwmaxerr_wavelet::Synopsis;

use crate::batch::Query;
use crate::error::ServeError;

/// One shard: the retained coefficients of a single base sub-tree plus
/// the precomputed incoming value from the retained root coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisShard {
    /// Retained values in node-id order (global and local heap order
    /// agree inside one base sub-tree).
    values: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set when local heap node `i` is
    /// retained.
    occupied: Vec<u64>,
    /// `rank[w]` = retained nodes in the words before `w`: the position
    /// in `values` of word `w`'s first retained node.
    rank: Vec<u32>,
    /// `Σ sign(a, j) · c_a` over retained root nodes `a < R` — the
    /// contribution of the whole root path, identical for every leaf of
    /// this base sub-tree.
    root_incoming: f64,
    /// The data range this shard serves.
    span: Range<usize>,
}

/// `|[start, end) ∩ [lo, hi]|`.
#[inline]
fn overlap(start: usize, end: usize, lo: usize, hi: usize) -> i64 {
    end.min(hi + 1).saturating_sub(start.max(lo)) as i64
}

impl SynopsisShard {
    /// Retained coefficients in this shard (excluding shared root
    /// entries).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the shard retains no local coefficients (its leaves
    /// reconstruct from the root path alone).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The data range this shard serves.
    #[inline]
    pub fn span(&self) -> Range<usize> {
        self.span.clone()
    }

    /// The precomputed root-path contribution shared by all leaves.
    #[inline]
    pub fn root_incoming(&self) -> f64 {
        self.root_incoming
    }

    /// In-shard levels `log2(S)`.
    #[inline]
    fn levels(&self) -> u32 {
        self.span.len().trailing_zeros()
    }

    /// The coefficient of local heap node `local`, 0 when thresholded
    /// away: its occupancy bit, then its rank among the retained nodes.
    #[inline]
    fn value(&self, local: usize) -> f64 {
        let (w, bit) = (local / 64, local % 64);
        let word = self.occupied[w];
        if (word >> bit) & 1 == 0 {
            return 0.0;
        }
        let before = (word & ((1u64 << bit) - 1)).count_ones();
        self.values[(self.rank[w] + before) as usize]
    }

    /// `d̂` of the leaf at in-shard offset `o`: one top-down walk, the
    /// sign of each level read off the next bit of `o`.
    fn point(&self, o: usize) -> f64 {
        let levels = self.levels();
        let mut acc = self.root_incoming;
        for d in 0..levels {
            let shift = levels - d;
            let c = self.value((1 << d) + (o >> shift));
            // Bit `shift - 1` of `o` picks the right half. Flipping the
            // sign bit instead of branching on it matters: the bit is a
            // coin toss to the predictor at every level.
            let flip = ((o >> (shift - 1)) as u64 & 1) << 63;
            acc += f64::from_bits(c.to_bits() ^ flip);
        }
        acc
    }

    /// The share of the nodes of `path(o)` at depth `from` and below in
    /// the sum over offsets `lo..=hi`: each contributes
    /// `c · (|left half ∩ [lo, hi]| − |right half ∩ [lo, hi]|)`.
    fn path_share(&self, o: usize, from: u32, lo: usize, hi: usize) -> f64 {
        let levels = self.levels();
        let mut acc = 0.0;
        for d in from..levels {
            let shift = levels - d;
            let k = o >> shift;
            let (start, half) = (k << shift, 1usize << (shift - 1));
            let mid = start + half;
            let m = overlap(start, mid, lo, hi) - overlap(mid, mid + half, lo, hi);
            acc += m as f64 * self.value((1 << d) + k);
        }
        acc
    }

    /// `Σ d̂` over the in-shard offsets `lo..=hi` when only `path(o)`
    /// can contribute: `o` is `lo` or `hi` and the other end lies on the
    /// shard's edge, where every node off `path(o)` is either outside
    /// the range or wholly inside it (left and right halves cancel).
    fn edge(&self, o: usize, lo: usize, hi: usize) -> f64 {
        self.root_incoming * (hi - lo + 1) as f64 + self.path_share(o, 0, lo, hi)
    }

    /// `Σ d̂` over the in-shard offsets `lo..=hi`: the paths of `lo` and
    /// `hi` walked together down to where they part, then each alone.
    /// Every term is bounded by the range's own width, which is what
    /// keeps short ranges accurate where a difference of window-sized
    /// prefix sums would not be.
    fn range(&self, lo: usize, hi: usize) -> f64 {
        // The depth-d nodes of lo and hi coincide while
        // (lo ^ hi) >> (levels - d) == 0.
        let parted = self.levels() + 1 - (usize::BITS - (lo ^ hi).leading_zeros());
        self.edge(lo, lo, hi) + self.path_share(hi, parted, lo, hi)
    }
}

/// An immutable synopsis re-sharded along error-tree partitions for the
/// query path. See the [module docs](self) for the layout and routing
/// rules.
#[derive(Debug, Clone)]
pub struct ShardedSynopsis {
    n: usize,
    partition: BasePartition,
    /// Retained root-sub-tree entries (ids `< R`); their values live on
    /// in every shard's `root_incoming`.
    root_len: usize,
    shards: Vec<SynopsisShard>,
    /// `whole_before[j]` = `Σ S · root_incoming` over shards `< j`: a run
    /// of whole shards inside a range is one subtraction.
    whole_before: Vec<f64>,
    bound: ErrorBound,
}

impl ShardedSynopsis {
    /// Re-shards `synopsis` into `shards` base sub-trees (`shards` a
    /// power of two with `1 <= shards <= n / 2`), attaching the build's
    /// error guarantee. The fourth argument is ignored: an answer carries
    /// the version of the store that serves it, not of its source. It
    /// stays so that existing callers, the `perf` harness among them,
    /// keep compiling.
    pub fn build(
        synopsis: &Synopsis,
        shards: usize,
        bound: ErrorBound,
        _source_version: u64,
    ) -> Result<Self, ServeError> {
        let n = synopsis.data_len();
        if shards == 0 || !shards.is_power_of_two() || shards > n / 2 {
            return Err(ServeError::BadShardCount { shards, n });
        }
        let partition = BasePartition::new(n, n / shards)
            .map_err(|_| ServeError::BadShardCount { shards, n })?;
        let (r, s) = (partition.num_base(), partition.base_leaves());

        let entries = synopsis.entries();
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let root_len = entries.partition_point(|&(id, _)| (id as usize) < r);

        // The root sub-tree is the error tree of an R-value array, one
        // value per base sub-tree (`BasePartition`'s first self-similarity
        // fact): reconstructing that array top-down from the retained root
        // coefficients gives every base's incoming value at once.
        let mut root = vec![0.0; r];
        for &(id, v) in &entries[..root_len] {
            root[id as usize] = v;
        }
        let incoming = inverse(&root)?;

        let words = s.div_ceil(64);
        // Sized exactly up front: growing sixteen vectors by doubling was
        // half of the build.
        let mut counts = vec![0usize; r];
        for &(id, _) in &entries[root_len..] {
            counts[partition.owner_of(id as usize)] += 1;
        }
        let mut shards: Vec<SynopsisShard> = (0..r)
            .map(|j| SynopsisShard {
                values: Vec::with_capacity(counts[j]),
                occupied: vec![0; words],
                rank: vec![0; words],
                root_incoming: incoming[j],
                span: partition.base_span(j),
            })
            .collect();
        for &(id, v) in &entries[root_len..] {
            let j = partition.owner_of(id as usize);
            let local = partition.global_to_local(j, id as usize);
            let shard = &mut shards[j];
            shard.occupied[local / 64] |= 1 << (local % 64);
            shard.values.push(v);
        }
        let mut whole_before = Vec::with_capacity(r + 1);
        let mut whole = 0.0;
        for shard in &mut shards {
            let mut seen = 0;
            for (rank, word) in shard.rank.iter_mut().zip(&shard.occupied) {
                *rank = seen;
                seen += word.count_ones();
            }
            whole_before.push(whole);
            whole += shard.root_incoming * s as f64;
        }
        whole_before.push(whole);

        Ok(ShardedSynopsis {
            n,
            partition,
            root_len,
            shards,
            whole_before,
            bound,
        })
    }

    /// The served data length `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards (base sub-trees).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, indexed by base sub-tree.
    #[inline]
    pub fn shards(&self) -> &[SynopsisShard] {
        &self.shards
    }

    /// The error guarantee the build attached (per-point; scaled per
    /// query by [`ErrorBound::answer`]).
    #[inline]
    pub fn bound(&self) -> &ErrorBound {
        &self.bound
    }

    /// Total retained coefficients: root entries plus all shard entries
    /// (equals the source synopsis size).
    pub fn size(&self) -> usize {
        self.root_len + self.shards.iter().map(SynopsisShard::len).sum::<usize>()
    }

    /// Which shard serves leaf `x` — the query→shard routing rule.
    #[inline]
    pub fn shard_of_leaf(&self, x: usize) -> usize {
        debug_assert!(x < self.n);
        x / self.partition.base_leaves()
    }

    /// The (at most two) shards a range query `l..=h` touches.
    #[inline]
    pub fn shards_of_range(&self, l: usize, h: usize) -> (usize, usize) {
        (self.shard_of_leaf(l), self.shard_of_leaf(h))
    }

    /// Reconstructs `d̂_x`: one shard's `root_incoming` plus the in-shard
    /// path, `log2(S)` constant-time lookups.
    ///
    /// # Panics
    /// Panics when `x >= n` (the store-level API refuses such a query
    /// through `Query::validate` instead).
    pub fn point_value(&self, x: usize) -> f64 {
        assert!(x < self.n, "point query out of range");
        let s = self.partition.base_leaves();
        self.shards[x / s].point(x % s)
    }

    /// Reconstructs the range sum `d̂(l:h)` (inclusive) from
    /// `path_l ∪ path_h`: at most `2·log2(S)` lookups in the shards of
    /// `l` and `h`, plus the prefix-summed total of the whole shards in
    /// between.
    ///
    /// # Panics
    /// Panics when `l > h` or `h >= n`.
    pub fn range_value(&self, l: usize, h: usize) -> f64 {
        assert!(l <= h && h < self.n, "range query out of range");
        let s = self.partition.base_leaves();
        let (first, last) = (l / s, h / s);
        if first == last {
            return self.shards[first].range(l % s, h % s);
        }
        self.shards[first].edge(l % s, l % s, s - 1)
            + (self.whole_before[last] - self.whole_before[first + 1])
            + self.shards[last].edge(h % s, 0, h % s)
    }

    /// The answer to `q`, which [`Query::validate`] accepted against
    /// [`n`](Self::n): its value with the build's bound scaled to it
    /// ([`ErrorBound::answer`]), stamped with `version`.
    ///
    /// # Panics
    /// Panics when `q` reads past `n`.
    #[inline]
    pub(crate) fn answer(&self, q: Query, version: u64) -> Answer {
        match q {
            Query::Point { x } => self.bound.answer(self.point_value(x), None, version),
            Query::RangeSum { l, h } => {
                let value = self.range_value(l, h);
                self.bound.answer(value, Some(h - l + 1), version)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_datagen::{uniform, wd_like};
    use dwmaxerr_wavelet::reconstruct::range_sum_synopsis;
    use dwmaxerr_wavelet::transform::forward;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn sharded(keep: &[u32], shards: usize) -> (Synopsis, ShardedSynopsis) {
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, keep).unwrap();
        let sh = ShardedSynopsis::build(&syn, shards, ErrorBound::abs(9.0), 7).unwrap();
        (syn, sh)
    }

    #[test]
    fn points_match_reference_reconstruction() {
        for shards in [1usize, 2, 4] {
            let (syn, sh) = sharded(&[0, 1, 3, 5, 6], shards);
            assert_eq!(sh.num_shards(), shards);
            assert_eq!(sh.size(), syn.size());
            for x in 0..8 {
                let got = sh.point_value(x);
                let want = syn.reconstruct_value(x);
                assert!((got - want).abs() < 1e-12, "shards={shards} x={x}");
            }
        }
    }

    #[test]
    fn ranges_match_reference_reconstruction() {
        for shards in [1usize, 2, 4] {
            let (syn, sh) = sharded(&[0, 2, 3, 4, 7], shards);
            for l in 0..8 {
                for h in l..8 {
                    let got = sh.range_value(l, h);
                    let want = dwmaxerr_wavelet::reconstruct::range_sum_synopsis(&syn, l, h);
                    assert!((got - want).abs() < 1e-9, "shards={shards} {l}..={h}");
                }
            }
        }
    }

    #[test]
    fn answers_carry_scaled_bounds_and_version() {
        let (_, sh) = sharded(&[0, 3, 5], 4);
        let p = sh.answer(Query::Point { x: 6 }, 3);
        assert_eq!(p.err_abs, Some(9.0));
        assert_eq!(p.version, 3);
        let r = sh.answer(Query::RangeSum { l: 2, h: 5 }, 3);
        assert_eq!(r.err_abs, Some(36.0));
        assert_eq!(r.err_rel, None);
    }

    #[test]
    fn routing_touches_expected_shards() {
        let (_, sh) = sharded(&[0], 4);
        assert_eq!(sh.shard_of_leaf(0), 0);
        assert_eq!(sh.shard_of_leaf(7), 3);
        assert_eq!(sh.shards_of_range(1, 6), (0, 3));
        for (j, shard) in sh.shards().iter().enumerate() {
            assert_eq!(shard.span(), 2 * j..2 * (j + 1));
        }
    }

    #[test]
    fn root_incoming_matches_partition_incoming_value() {
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, &[0, 1, 2, 3]).unwrap();
        let sh = ShardedSynopsis::build(&syn, 4, ErrorBound::none(), 0).unwrap();
        let p = BasePartition::new(8, 2).unwrap();
        let retained: Vec<usize> = vec![0, 1, 2, 3];
        for j in 0..4 {
            let want = p.incoming_value(&w[..4], &retained, j);
            let got = sh.shards()[j].root_incoming();
            assert!((got - want).abs() < 1e-12, "base {j}");
        }
    }

    #[test]
    fn rejects_bad_shapes_and_queries() {
        let (_, sh) = sharded(&[0], 2);
        assert!(matches!(
            Query::Point { x: 8 }.validate(sh.n()),
            Err(ServeError::OutOfRange { index: 8, n: 8 })
        ));
        assert!(matches!(
            Query::RangeSum { l: 5, h: 3 }.validate(sh.n()),
            Err(ServeError::InvertedRange { l: 5, h: 3 })
        ));
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, &[0]).unwrap();
        for bad in [0usize, 3, 8, 16] {
            assert!(matches!(
                ShardedSynopsis::build(&syn, bad, ErrorBound::none(), 0),
                Err(ServeError::BadShardCount { .. })
            ));
        }
    }

    /// A synopsis over `n` values retaining each node with probability
    /// `density`, values uniform in `[-100, 100]` — not dyadic, so the
    /// order of the additions shows in the last bits.
    fn random_synopsis(n: usize, density: f64, seed: u64) -> Synopsis {
        let values = uniform(n, 200.0, seed);
        let picks = uniform(n, 1.0, seed ^ 0x5eed);
        let entries = (0..n)
            .filter(|&i| picks[i] < density)
            .map(|i| (i as u32, values[i] - 100.0))
            .collect();
        Synopsis::from_entries(n, entries).unwrap()
    }

    /// `(l, h)` pairs over `0..n`: every one of them for a small window,
    /// a seeded sample of short and of arbitrary ranges otherwise.
    fn ranges(n: usize, seed: u64) -> Vec<(usize, usize)> {
        if n <= 64 {
            return (0..n).flat_map(|l| (l..n).map(move |h| (l, h))).collect();
        }
        let at = |v: f64| (v as usize).min(n - 1);
        let a = uniform(600, n as f64, seed);
        let b = uniform(600, n as f64, seed ^ 0xb0b);
        let w = uniform(600, 256.0, seed ^ 0xfade);
        (0..600)
            .flat_map(|i| {
                let (l, h) = (at(a[i]).min(at(b[i])), at(a[i]).max(at(b[i])));
                [(l, h), (at(a[i]), at(a[i] + w[i]))]
            })
            .chain([(0, n - 1), (0, 0), (n - 1, n - 1)])
            .collect()
    }

    fn close(got: f64, want: f64, tolerance: f64) -> bool {
        (got - want).abs() <= tolerance * want.abs().max(1.0)
    }

    #[test]
    fn random_synopses_match_the_reference_evaluators() {
        for (n, seeds) in [(4usize, 0..6u64), (16, 0..6), (64, 0..4), (1 << 16, 0..1)] {
            for seed in seeds {
                let density = [0.9, 0.4, 0.1, 1.0 / 16.0][seed as usize % 4];
                let syn = random_synopsis(n, density, 1000 * n as u64 + seed);
                for shards in [1usize, 2, 16, n / 2] {
                    if shards > n / 2 {
                        continue;
                    }
                    let sh = ShardedSynopsis::build(&syn, shards, ErrorBound::none(), 0).unwrap();
                    assert_eq!(sh.size(), syn.size());
                    let at = format!("n={n} seed={seed} shards={shards}");
                    let step = if n <= 64 { 1 } else { 97 };
                    for x in (0..n).step_by(step) {
                        let got = sh.point_value(x);
                        assert!(close(got, syn.reconstruct_value(x), 1e-12), "{at} x={x}");
                    }
                    for (l, h) in ranges(n, seed) {
                        let got = sh.range_value(l, h);
                        let want = range_sum_synopsis(&syn, l, h);
                        assert!(close(got, want, 1e-9), "{at} {l}..={h}: {got} vs {want}");
                    }
                }
            }
        }
    }

    /// Every partial sum over whole-number data is exact, so there the
    /// shard's order of the additions must not show at all: answers are
    /// the reference evaluators' bit for bit, and every lookup is the
    /// synopsis's coefficient, every `root_incoming` its root path's sum.
    #[test]
    fn whole_number_data_is_bit_identical_to_the_definition() {
        let n = 1 << 12;
        let w = forward(&wd_like(n, 2e-4, 11)).unwrap();
        let mut by_size: Vec<u32> = (0..n as u32).collect();
        by_size.sort_by(|&a, &b| w[b as usize].abs().total_cmp(&w[a as usize].abs()));
        let syn = Synopsis::retain_indices(&w, &by_size[..n / 16]).unwrap();
        let mut coeffs = vec![0.0; n];
        for &(i, v) in syn.entries() {
            coeffs[i as usize] = v;
        }
        let topo = dwmaxerr_wavelet::tree::TreeTopology::new(n).unwrap();
        for shards in [1usize, 2, 16, n / 2] {
            let sh = ShardedSynopsis::build(&syn, shards, ErrorBound::none(), 0).unwrap();
            let p = sh.partition;
            for (j, shard) in sh.shards().iter().enumerate() {
                let root_path = topo.path_of_leaf(shard.span().start);
                let incoming: f64 = root_path
                    .filter(|&(a, _)| a < p.num_base())
                    .map(|(a, sign)| f64::from(sign) * coeffs[a])
                    .sum();
                assert_eq!(shard.root_incoming().to_bits(), incoming.to_bits());
                for local in 1..p.base_leaves() {
                    let want = coeffs[p.local_to_global(j, local)];
                    assert_eq!(shard.value(local).to_bits(), want.to_bits());
                }
            }
            for x in 0..n {
                assert_eq!(
                    sh.point_value(x).to_bits(),
                    syn.reconstruct_value(x).to_bits(),
                    "shards={shards} x={x}"
                );
            }
            for (l, h) in ranges(n, shards as u64) {
                assert_eq!(
                    sh.range_value(l, h).to_bits(),
                    range_sum_synopsis(&syn, l, h).to_bits(),
                    "shards={shards} {l}..={h}"
                );
            }
        }
    }

    /// The shapes the index has to survive, one row each.
    #[test]
    fn index_survives_the_edge_shapes() {
        let n = 256;
        let full: Vec<(u32, f64)> = (0..n as u32)
            .map(|i| (i, 0.37 * f64::from(i) - 11.3))
            .collect();
        let with_stored_zero = vec![(0u32, 4.25), (5, 0.0), (77, -1.5), (255, 0.0)];
        // Shard 1 of 4 (nodes 5, 10, 11, 20..24, ...) retains nothing.
        let hollow_shard = vec![(1u32, 3.5), (4, 1.25), (64, -2.75), (255, 9.0)];
        type Row = (&'static str, Vec<(u32, f64)>, &'static [usize]);
        let table: [Row; 4] = [
            ("empty synopsis", Vec::new(), &[1, 4, 128]),
            ("every node retained", full, &[1, 2, 4, 128]),
            ("stored zeros", with_stored_zero, &[1, 16, 128]),
            ("a shard with no entry", hollow_shard, &[4]),
        ];
        for (name, entries, shard_counts) in table {
            let syn = Synopsis::from_entries(n, entries.clone()).unwrap();
            for &shards in shard_counts {
                let at = format!("{name}, shards={shards}");
                let sh = ShardedSynopsis::build(&syn, shards, ErrorBound::none(), 0).unwrap();
                assert_eq!(sh.size(), entries.len(), "{at}: stored zeros count");
                let s = n / shards;
                for (j, shard) in sh.shards().iter().enumerate() {
                    assert_eq!(shard.span(), j * s..(j + 1) * s, "{at}");
                    assert_eq!(shard.is_empty(), shard.values.is_empty(), "{at}");
                    let set: u32 = shard.occupied.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(set as usize, shard.len(), "{at}: one bit per value");
                }
                if name == "a shard with no entry" {
                    assert!(sh.shards()[1].is_empty() && !sh.shards()[0].is_empty());
                }
                if name == "every node retained" {
                    let last = sh.shards().last().unwrap();
                    assert_eq!(last.len(), s - 1, "{at}");
                    // Local ids 1..S: every bit but bit 0 of the first
                    // word, every later word full.
                    let ids = u64::MAX >> (64 - s.min(64));
                    assert_eq!(last.occupied[0], ids & !1, "{at}");
                    assert!(last.occupied[1..].iter().all(|&w| w == u64::MAX), "{at}");
                    assert_eq!(last.occupied.len(), s.div_ceil(64), "{at}");
                }
                let dense = syn.reconstruct_all();
                for (x, want) in dense.iter().enumerate() {
                    assert!(close(sh.point_value(x), *want, 1e-12), "{at} x={x}");
                }
                let edges = [
                    (3, 3),                          // l == h
                    (n - 1, n - 1),                  // the last leaf alone
                    (n - 2, n - 1),                  // h = n - 1
                    (0, n - 1),                      // the whole window
                    (1, s - 1),                      // ends on a shard's last leaf
                    (s - 1, s - 1),                  // that leaf alone
                    (0, s.min(n - 1)),               // one leaf into the next shard
                    (n - s, n - 2),                  // starts on a shard's first leaf
                    (s / 2, (n - s / 2).max(s) - 1), // whole shards in between, if any
                ];
                for (l, h) in edges {
                    let want: f64 = dense[l..=h].iter().sum();
                    assert!(close(sh.range_value(l, h), want, 1e-9), "{at} {l}..={h}");
                    assert_eq!(sh.shards_of_range(l, h), (l / s, h / s), "{at}");
                }
            }
        }
    }
}
