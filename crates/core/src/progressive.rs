//! Progressive synopsis maintenance: sliding windows, incremental
//! rebuilds, and the phased foreground/background serving driver.
//!
//! The batch algorithms in this crate answer "build the best synopsis of
//! this array" in one monolithic run. A serving system instead sees a
//! stream of appends and needs a coarse answer *now* plus the exact
//! DGreedyAbs answer as a background upgrade — and when only a sliver of
//! the window changed, it should not pay for a full rebuild. This module
//! provides that machinery on top of the runtime's phased pipelines
//! ([`Pipeline::enter_phase`], [`Progressive`] snapshot handles) and the
//! wavelet layer's dirty-subtree tracking ([`DirtySet`]):
//!
//! * [`StreamWindow`] — a power-of-two window over the stream, organized
//!   as a ring of base slices with a zero-padded ragged tail, tracking
//!   which base sub-trees each append invalidated.
//! * [`IncrementalConventional`] — maintains the CON (L2-optimal)
//!   synopsis under appends: only dirty bases re-run their local
//!   transform job, the driver recombines with cached per-base partials.
//!   Bit-identical to a from-scratch [`crate::conventional::con`] run.
//! * [`IncrementalDGreedyAbs`] — maintains the exact max-abs synopsis:
//!   per-base histogram/trace caches keyed by the incoming error's bits
//!   mean merge/filter jobs re-run only for bases whose cached partials
//!   no longer apply; the root recombination (candidate cuts, best-`k`
//!   pick, final top-`B` filter) reuses unchanged partials driver-side.
//!   Bit-identical to a from-scratch [`crate::dgreedy_abs::dgreedy_abs`]
//!   run.
//! * [`PhasedSynopsisDriver`] — ties it together: each
//!   [`tick`](PhasedSynopsisDriver::tick) appends new values, publishes
//!   the cheap conventional answer as a foreground snapshot, then runs
//!   the exact incremental DGreedyAbs as a background phase and swaps the
//!   refined snapshot into the same [`Progressive`] handle.
//!
//! # Why the incremental results are bit-identical
//!
//! Every cached partial is the output of the *same* floating-point
//! computation the batch job would run on the same input bits: base
//! averages and local Haar details depend only on the (unchanged) base
//! slice, and a GreedyAbs error-histogram run depends only on
//! `(details, incoming error)` — the cache key. Driver-side
//! recombination replays the exact reduce-side code: the candidate cut is
//! a function of the batch *multiset* (ties share a bucket), the best-`k`
//! pick uses the canonical lower-`k` tie-break, and the final top-`B`
//! filter re-sorts the per-base emissions concatenated in base order —
//! which is precisely the order the sort-merge shuffle feeds a reducer
//! (equal keys drain lowest-map-task-first).

use std::collections::HashMap;
use std::sync::Arc;

use dwmaxerr_algos::greedy_abs::GreedyAbs;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{
    Cluster, JobBuilder, MapContext, Phase, Pipeline, Progressive, ReduceContext, Snapshot,
};
use dwmaxerr_wavelet::metrics::max_abs;
use dwmaxerr_wavelet::tree::DirtySet;
use dwmaxerr_wavelet::{Synopsis, WaveletError};

use crate::dgreedy_abs::{bucket_of, histogram_batches, DGreedyAbsConfig};
use crate::error::CoreError;
use crate::partition::BasePartition;
use crate::splits::{aligned_splits, SliceSplit};

// ---------------------------------------------------------------------------
// StreamWindow
// ---------------------------------------------------------------------------

/// A fixed-capacity window over an append-only stream, stored as a ring
/// of base slices.
///
/// The physical array always has power-of-two length `n`; while fewer
/// than `n` values have arrived the tail is zero-filled (a *ragged
/// tail*), and once full each new value overwrites the oldest physical
/// slot. Synopses are built over the **physical** layout — the ring
/// never shifts data, so an append of `m` values dirties only the
/// `O(m / base_leaves + 1)` base sub-trees it touches, which is what
/// makes incremental maintenance cheap. The dirty set is keyed by
/// subtree root node id (`num_base + j`), matching
/// [`dwmaxerr_wavelet::IncrementalTree`].
#[derive(Debug, Clone)]
pub struct StreamWindow {
    data: Vec<f64>,
    base_leaves: usize,
    num_base: usize,
    pushed: u64,
    dirty: DirtySet,
}

impl StreamWindow {
    /// Creates an empty (zero-filled) window of `n` values partitioned
    /// into base slices of `base_leaves` values. Both must be powers of
    /// two with `2 <= base_leaves <= n`.
    pub fn new(n: usize, base_leaves: usize) -> Result<Self, WaveletError> {
        // Reuse the partition validation: same shape constraints.
        let partition = BasePartition::new(n, base_leaves)?;
        Ok(StreamWindow {
            data: vec![0.0; n],
            base_leaves,
            num_base: partition.num_base(),
            pushed: 0,
            dirty: DirtySet::new(),
        })
    }

    /// Window capacity `n`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: windows have at least two slots.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Values per base slice.
    pub fn base_leaves(&self) -> usize {
        self.base_leaves
    }

    /// Number of base slices.
    pub fn num_base(&self) -> usize {
        self.num_base
    }

    /// Stream values seen so far (monotone; exceeds `len()` once the
    /// window slides).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Values currently resident (equals `len()` once full).
    pub fn filled(&self) -> usize {
        (self.pushed.min(self.data.len() as u64)) as usize
    }

    /// True once every slot holds stream data (no ragged tail left).
    pub fn is_full(&self) -> bool {
        self.pushed >= self.data.len() as u64
    }

    /// The physical window contents (zero-padded while not full).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Appends `values`: fills the ragged tail first, then slides by
    /// overwriting the oldest slots in ring order. Every touched base
    /// slice is marked dirty.
    pub fn push(&mut self, values: &[f64]) {
        let n = self.data.len() as u64;
        for &v in values {
            let pos = (self.pushed % n) as usize;
            self.data[pos] = v;
            let root = self.num_base + pos / self.base_leaves;
            self.dirty.mark(root);
            self.pushed += 1;
        }
    }

    /// The pending dirty subtree roots.
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    /// Drains the dirty set, returning the stale **base indices** in
    /// ascending order.
    pub fn take_dirty_bases(&mut self) -> Vec<usize> {
        self.dirty
            .drain()
            .into_iter()
            .map(|root| root - self.num_base)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Incremental CON
// ---------------------------------------------------------------------------

/// Per-update statistics of an incremental rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Stale bases this update had to reprocess.
    pub dirty_bases: usize,
    /// Map tasks executed across all jobs of the update.
    pub map_tasks: usize,
    /// GreedyAbs runs executed by those tasks (0 for conventional).
    pub greedy_runs: usize,
}

/// Outcome of [`IncrementalConventional::update`].
#[derive(Debug, Clone)]
pub struct ConventionalUpdate {
    /// The maintained conventional synopsis.
    pub synopsis: Synopsis,
    /// What the update re-ran.
    pub stats: RebuildStats,
}

/// Incrementally maintained CON (conventional / L2-optimal) synopsis.
///
/// Caches each base's local-transform output — its `(global node,
/// coefficient)` pairs and slice average. An update re-runs the transform
/// job only over invalidated bases and recombines driver-side with
/// [`crate::conventional`]'s order-independent top-`B` selection, so the
/// result is bit-identical to a from-scratch [`crate::conventional::con`]
/// run on the same array.
#[derive(Debug)]
pub struct IncrementalConventional {
    partition: BasePartition,
    b: usize,
    averages: Vec<f64>,
    details: Vec<Vec<(u64, f64)>>,
    dirty: DirtySet,
}

impl IncrementalConventional {
    /// Creates the maintainer for `n`-value windows with budget `b` and
    /// the given base slice size. Every base starts invalidated.
    pub fn new(n: usize, b: usize, base_leaves: usize) -> Result<Self, CoreError> {
        let partition = BasePartition::new(n, base_leaves.clamp(2, n))?;
        let r = partition.num_base();
        let mut this = IncrementalConventional {
            partition,
            b,
            averages: vec![0.0; r],
            details: vec![Vec::new(); r],
            dirty: DirtySet::new(),
        };
        this.invalidate_all();
        Ok(this)
    }

    /// The synopsis budget.
    pub fn budget(&self) -> usize {
        self.b
    }

    /// The window partition.
    pub fn partition(&self) -> BasePartition {
        self.partition
    }

    /// Marks base `j`'s cached partials stale.
    pub fn invalidate(&mut self, j: usize) {
        self.dirty.mark(self.partition.base_root(j));
    }

    /// Marks every base stale (forces a full rebuild on the next update).
    pub fn invalidate_all(&mut self) {
        for j in 0..self.partition.num_base() {
            self.invalidate(j);
        }
    }

    /// Rebuilds the synopsis of `data`, re-running the local-transform job
    /// only over invalidated bases. The pipeline threads through so the
    /// stage lands in the caller's phase and metrics ledger.
    pub fn update<'c>(
        &mut self,
        pipe: Pipeline<'c, ()>,
        data: &[f64],
    ) -> Result<(Pipeline<'c, ()>, ConventionalUpdate), CoreError> {
        let n = data.len();
        if n != self.partition.n() {
            return Err(CoreError::Protocol("window length changed between updates"));
        }
        let stale_bases: Vec<usize> = self
            .dirty
            .drain()
            .into_iter()
            .map(|root| root - self.partition.num_base())
            .collect();
        let part = self.partition;
        let num_base = part.num_base() as u64;

        let mut captured: Vec<(u64, f64)> = Vec::new();
        let pipe = if stale_bases.is_empty() {
            pipe
        } else {
            let splits = aligned_splits(data, part.base_leaves());
            let stale: Vec<SliceSplit> = stale_bases.iter().map(|&j| splits[j].clone()).collect();
            let job = JobBuilder::new("con-inc")
                .map(move |split: &SliceSplit, ctx: &mut MapContext<u64, f64>| {
                    // Same emissions as the batch CON mapper: every detail
                    // coefficient on its global node id, the slice average
                    // on the reserved key < R.
                    let (details, avg) = part.base_details_from_data(split.slice());
                    for (local, &c) in details.iter().enumerate() {
                        let global = part.local_to_global(split.id as usize, local + 1);
                        ctx.emit(global as u64, c);
                    }
                    ctx.emit(split.id as u64, avg);
                })
                .input_bytes(SliceSplit::bytes)
                .reduce(|k, vals, ctx: &mut ReduceContext<u64, f64>| {
                    for v in vals {
                        ctx.emit(*k, v);
                    }
                });
            pipe.stage(&job, &stale)?.then(|(_, pairs)| {
                captured = pairs;
            })
        };

        // Replace the stale bases' cached partials.
        for &j in &stale_bases {
            self.details[j].clear();
        }
        for (k, v) in captured {
            if k < num_base {
                self.averages[k as usize] = v;
            } else {
                self.details[part.owner_of(k as usize)].push((k, v));
            }
        }

        // Driver-side recombination: cached partials + fresh ones feed the
        // same order-independent top-B selection the batch reducer uses.
        let root = part.root_coeffs_from_averages(&self.averages);
        let mut coeff_pairs: Vec<(u64, f64)> = Vec::with_capacity(n);
        for list in &self.details {
            coeff_pairs.extend_from_slice(list);
        }
        coeff_pairs.extend(root.iter().enumerate().map(|(i, &c)| (i as u64, c)));
        let entries = crate::conventional::top_b_by_normalized(coeff_pairs, n, self.b);
        let synopsis = Synopsis::from_entries(n, entries)?;
        let update = ConventionalUpdate {
            synopsis,
            stats: RebuildStats {
                dirty_bases: stale_bases.len(),
                map_tasks: stale_bases.len(),
                greedy_runs: 0,
            },
        };
        Ok((pipe, update))
    }
}

// ---------------------------------------------------------------------------
// Incremental DGreedyAbs
// ---------------------------------------------------------------------------

/// Outcome of [`IncrementalDGreedyAbs::update`].
#[derive(Debug, Clone)]
pub struct DGreedyAbsUpdate {
    /// The maintained exact max-abs synopsis.
    pub synopsis: Synopsis,
    /// The guaranteed max-abs error (exact up to bucket width).
    pub estimated_error: f64,
    /// `|C_root|` of the winning candidate.
    pub best_croot_size: usize,
    /// What the update re-ran.
    pub stats: RebuildStats,
}

/// Full per-removal emission of a synopsis-phase GreedyAbs run:
/// `(running-max bucket, removal index, global node, coefficient)`.
type SynTraceEntry = (i64, u32, u32, f64);

/// Per-base cache keyed by the incoming error's f64 bits.
type ErrKeyed<T> = Vec<HashMap<u64, Arc<Vec<T>>>>;

/// Incrementally maintained DGreedyAbs synopsis.
///
/// Two caches per base, both keyed by the incoming error's f64 bits:
///
/// * **histogram cache** — the `(bucket, count)` batches of one
///   ErrHistGreedyAbs run, reused by the driver-side `combineResults`
///   replay for every candidate whose incoming error is unchanged;
/// * **trace cache** — the *unfiltered* synopsis-phase removal trace
///   (running-max bucket, index, node, coefficient), re-filterable for
///   any winning cut without re-running the job.
///
/// An update re-runs map tasks only for bases with at least one cache
/// miss; everything else is root recombination on cached partials. The
/// result is bit-identical to [`crate::dgreedy_abs::dgreedy_abs`] on the
/// same array (see the module docs for the argument). Caches are never
/// evicted — for the window sizes this simulation targets the bounded
/// number of distinct incoming errors per base (`log R + 2` per root
/// configuration) keeps them small.
#[derive(Debug)]
pub struct IncrementalDGreedyAbs {
    partition: BasePartition,
    b: usize,
    cfg: DGreedyAbsConfig,
    averages: Vec<f64>,
    hist_cache: ErrKeyed<(i64, u32)>,
    trace_cache: ErrKeyed<SynTraceEntry>,
    dirty: DirtySet,
}

impl IncrementalDGreedyAbs {
    /// Creates the maintainer for `n`-value windows with budget `b`.
    /// Every base starts invalidated.
    pub fn new(n: usize, b: usize, cfg: &DGreedyAbsConfig) -> Result<Self, CoreError> {
        let partition = BasePartition::new(n, cfg.base_leaves.min(n))?;
        if cfg.bucket_width.is_nan() || cfg.bucket_width <= 0.0 {
            return Err(CoreError::Protocol("bucket_width must be positive"));
        }
        if cfg.reducers == 0 {
            return Err(CoreError::Protocol("reducers must be positive"));
        }
        let r = partition.num_base();
        let mut this = IncrementalDGreedyAbs {
            partition,
            b,
            cfg: cfg.clone(),
            averages: vec![0.0; r],
            hist_cache: vec![HashMap::new(); r],
            trace_cache: vec![HashMap::new(); r],
            dirty: DirtySet::new(),
        };
        this.invalidate_all();
        Ok(this)
    }

    /// The synopsis budget.
    pub fn budget(&self) -> usize {
        self.b
    }

    /// The window partition.
    pub fn partition(&self) -> BasePartition {
        self.partition
    }

    /// Marks base `j`'s cached partials stale.
    pub fn invalidate(&mut self, j: usize) {
        self.dirty.mark(self.partition.base_root(j));
    }

    /// Marks every base stale (forces a full rebuild on the next update).
    pub fn invalidate_all(&mut self) {
        for j in 0..self.partition.num_base() {
            self.invalidate(j);
        }
    }

    /// Rebuilds the synopsis of `data`, re-running merge/filter jobs only
    /// over bases whose cached partials no longer apply.
    pub fn update<'c>(
        &mut self,
        pipe: Pipeline<'c, ()>,
        data: &[f64],
    ) -> Result<(Pipeline<'c, ()>, DGreedyAbsUpdate), CoreError> {
        let n = data.len();
        if n != self.partition.n() {
            return Err(CoreError::Protocol("window length changed between updates"));
        }
        let part = self.partition;
        let r = part.num_base();
        let width = self.cfg.bucket_width;
        let b = self.b;
        let stale_bases: Vec<usize> = self
            .dirty
            .drain()
            .into_iter()
            .map(|root| root - r)
            .collect();
        for &j in &stale_bases {
            self.hist_cache[j].clear();
            self.trace_cache[j].clear();
        }
        let splits = aligned_splits(data, part.base_leaves());
        let mut stats = RebuildStats {
            dirty_bases: stale_bases.len(),
            map_tasks: 0,
            greedy_runs: 0,
        };

        // ---- Stage 1: base averages, dirty bases only ----
        let mut avg_pairs: Vec<(u32, f64)> = Vec::new();
        let pipe = if stale_bases.is_empty() {
            pipe
        } else {
            let stale: Vec<SliceSplit> = stale_bases.iter().map(|&j| splits[j].clone()).collect();
            stats.map_tasks += stale.len();
            let job = JobBuilder::new("dgreedyabs-inc-averages")
                .map(|split: &SliceSplit, ctx: &mut MapContext<u32, f64>| {
                    let avg = split.slice().iter().sum::<f64>() / split.len() as f64;
                    ctx.emit(split.id, avg);
                })
                .input_bytes(SliceSplit::bytes)
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, f64>| {
                    for v in vals {
                        ctx.emit(*k, v);
                    }
                });
            pipe.stage(&job, &stale)?.then(|(_, pairs)| {
                avg_pairs = pairs;
            })
        };
        for (j, avg) in avg_pairs {
            self.averages[j as usize] = avg;
        }

        // ---- genRootSets on the (partially cached) averages ----
        let root_coeffs = part.root_coeffs_from_averages(&self.averages);
        let mut root_greedy = GreedyAbs::new_full(&root_coeffs)?;
        let root_trace = root_greedy.run_to_empty();
        let removal_order: Vec<usize> = root_trace.iter().map(|t| t.node as usize).collect();
        let max_k = r.min(b).min(self.cfg.max_candidates.unwrap_or(usize::MAX));
        let rho: Vec<f64> = (0..=max_k)
            .map(|k| {
                let removed = r - k;
                if removed == 0 {
                    0.0
                } else {
                    root_trace[removed - 1].error_after
                }
            })
            .collect();
        let removed_under = |k: usize| &removal_order[..removal_order.len() - k];
        let retained_under = |k: usize| &removal_order[removal_order.len() - k..];

        // ---- Which incoming errors does each base need this round? ----
        // Distinct values in candidate order, exactly like the batch
        // mapper's by_err grouping (at most log R + 2 per base).
        let mut needed: Vec<Vec<f64>> = vec![Vec::new(); r];
        for (j, need) in needed.iter_mut().enumerate() {
            for k in 0..=max_k {
                let e = part.incoming_error(&root_coeffs, removed_under(k), j);
                if !need.iter().any(|&seen: &f64| seen.to_bits() == e.to_bits()) {
                    need.push(e);
                }
            }
        }

        // ---- Stage 2: histogram runs for cache misses only ----
        let missing: Vec<Vec<f64>> = needed
            .iter()
            .enumerate()
            .map(|(j, need)| {
                need.iter()
                    .copied()
                    .filter(|e| !self.hist_cache[j].contains_key(&e.to_bits()))
                    .collect()
            })
            .collect();
        let hist_stale: Vec<SliceSplit> = (0..r)
            .filter(|&j| !missing[j].is_empty())
            .map(|j| splits[j].clone())
            .collect();
        let mut hist_pairs: Vec<(u32, (u64, i64, u32))> = Vec::new();
        let pipe = if hist_stale.is_empty() {
            pipe
        } else {
            stats.map_tasks += hist_stale.len();
            stats.greedy_runs += missing.iter().map(Vec::len).sum::<usize>();
            let miss_bc = Arc::new(missing.clone());
            let job = JobBuilder::new("dgreedyabs-inc-errhist")
                .map(
                    move |split: &SliceSplit, ctx: &mut MapContext<u32, (u64, i64, u32)>| {
                        let j = split.id as usize;
                        let (details, _avg) = part.base_details_from_data(split.slice());
                        for &e in &miss_bc[j] {
                            let mut g = GreedyAbs::new_subtree(&details, e).expect("valid subtree");
                            let trace = g.run_to_empty();
                            ctx.add_counter("greedy_runs", 1);
                            for &(bucket, count) in &histogram_batches(&trace, width) {
                                ctx.emit(j as u32, (e.to_bits(), bucket, count));
                            }
                        }
                    },
                )
                .input_bytes(SliceSplit::bytes)
                .task_memory(|s: &SliceSplit| dwmaxerr_algos::memory::greedy_abs_bytes(s.len()))
                .reducers(self.cfg.reducers)
                .partition_by(|k: &u32, parts| *k as usize % parts)
                .reduce(
                    |k: &u32, vals, ctx: &mut ReduceContext<u32, (u64, i64, u32)>| {
                        for v in vals {
                            ctx.emit(*k, v);
                        }
                    },
                );
            pipe.stage(&job, &hist_stale)?.then(|(_, pairs)| {
                hist_pairs = pairs;
            })
        };
        // Batches for one (base, error) arrive contiguously in emission
        // order (the merge drains equal keys lowest-map-task-first and
        // each base is one task).
        for (j, (e_bits, bucket, count)) in hist_pairs {
            Arc::make_mut(
                self.hist_cache[j as usize]
                    .entry(e_bits)
                    .or_insert_with(|| Arc::new(Vec::new())),
            )
            .push((bucket, count));
        }

        // ---- combineResults replay on cached partials ----
        // Exact replica of the batch reducer: per candidate, gather every
        // base's batches, sort by bucket descending, read the error at the
        // B - k cut. The cut is a function of the multiset, so cache
        // provenance cannot change it.
        let mut best_k = 0usize;
        let mut best_err = f64::INFINITY;
        let mut best_cut = 0.0f64;
        for (k, &rho_k) in rho.iter().enumerate() {
            let mut batches: Vec<(i64, u32)> = Vec::new();
            for (j, need) in needed.iter().enumerate() {
                // Find this candidate's incoming error for base j.
                let e = part.incoming_error(&root_coeffs, removed_under(k), j);
                debug_assert!(need.iter().any(|&x: &f64| x.to_bits() == e.to_bits()));
                let cached = self.hist_cache[j]
                    .get(&e.to_bits())
                    .ok_or(CoreError::Protocol("histogram cache miss after refresh"))?;
                batches.extend_from_slice(cached);
            }
            batches.sort_unstable_by_key(|&(bucket, _)| std::cmp::Reverse(bucket));
            let keep = (b - k) as u64;
            let mut cum = 0u64;
            let mut cut_bucket = 0.0f64;
            for (bucket, count) in batches {
                if cum + u64::from(count) > keep {
                    cut_bucket = bucket as f64;
                    break;
                }
                cum += u64::from(count);
            }
            let cut = cut_bucket * width;
            let total = cut.max(rho_k);
            if total < best_err || (total == best_err && k < best_k) {
                best_err = total;
                best_k = k;
                best_cut = cut;
            }
        }
        if !best_err.is_finite() {
            return Err(CoreError::Protocol("no candidate produced a cut"));
        }

        // ---- Stage 3: synopsis traces for cache misses only ----
        let cut_bucket = bucket_of(best_cut, width);
        let keep_base = b - best_k;
        let e_best: Vec<f64> = (0..r)
            .map(|j| part.incoming_error(&root_coeffs, removed_under(best_k), j))
            .collect();
        let syn_stale: Vec<SliceSplit> = (0..r)
            .filter(|&j| !self.trace_cache[j].contains_key(&e_best[j].to_bits()))
            .map(|j| splits[j].clone())
            .collect();
        let mut syn_pairs: Vec<(u32, SynTraceEntry)> = Vec::new();
        let pipe = if syn_stale.is_empty() {
            pipe
        } else {
            stats.map_tasks += syn_stale.len();
            stats.greedy_runs += syn_stale.len();
            let e_bc = Arc::new(e_best.clone());
            let job = JobBuilder::new("dgreedyabs-inc-synopsis")
                .map(
                    move |split: &SliceSplit, ctx: &mut MapContext<u32, SynTraceEntry>| {
                        let j = split.id as usize;
                        let (details, _avg) = part.base_details_from_data(split.slice());
                        let mut g =
                            GreedyAbs::new_subtree(&details, e_bc[j]).expect("valid subtree");
                        let trace = g.run_to_empty();
                        ctx.add_counter("greedy_runs", 1);
                        // Unfiltered: every removal with its running-max
                        // bucket, so the driver can re-filter for any cut.
                        let mut max_bucket = i64::MIN;
                        for (idx, rem) in trace.iter().enumerate() {
                            max_bucket = max_bucket.max(bucket_of(rem.error_after, width));
                            let global = part.local_to_global(j, rem.node as usize);
                            let coeff = details[rem.node as usize - 1];
                            ctx.emit(j as u32, (max_bucket, idx as u32, global as u32, coeff));
                        }
                    },
                )
                .input_bytes(SliceSplit::bytes)
                .task_memory(|s: &SliceSplit| dwmaxerr_algos::memory::greedy_abs_bytes(s.len()))
                .reduce(
                    |k: &u32, vals, ctx: &mut ReduceContext<u32, SynTraceEntry>| {
                        for v in vals {
                            ctx.emit(*k, v);
                        }
                    },
                );
            pipe.stage(&job, &syn_stale)?.then(|(_, pairs)| {
                syn_pairs = pairs;
            })
        };
        let mut fresh_traces: Vec<(usize, Vec<SynTraceEntry>)> = Vec::new();
        for (j, entry) in syn_pairs {
            match fresh_traces.last_mut() {
                Some((last, list)) if *last == j as usize => list.push(entry),
                _ => fresh_traces.push((j as usize, vec![entry])),
            }
        }
        for (j, list) in fresh_traces {
            self.trace_cache[j].insert(e_best[j].to_bits(), Arc::new(list));
        }

        // ---- Final filter replay: concatenate per-base traces in base
        // order (= the shuffle's reduce input order), filter at the
        // winning cut, sort, keep the top keep_base — byte for byte the
        // batch reducer's logic. ----
        let mut nodes: Vec<SynTraceEntry> = Vec::new();
        for (j, e) in e_best.iter().enumerate() {
            let cached = self.trace_cache[j]
                .get(&e.to_bits())
                .ok_or(CoreError::Protocol("trace cache miss after refresh"))?;
            nodes.extend(
                cached
                    .iter()
                    .filter(|&&(bkt, _, _, _)| bkt >= cut_bucket.saturating_sub(1))
                    .copied(),
            );
        }
        nodes.sort_unstable_by_key(|&(bucket, idx, _, _)| std::cmp::Reverse((bucket, idx)));
        let mut entries: Vec<(u32, f64)> = retained_under(best_k)
            .iter()
            .map(|&a| (a as u32, root_coeffs[a]))
            .collect();
        entries.extend(
            nodes
                .into_iter()
                .take(keep_base)
                .map(|(_, _, node, coeff)| (node, coeff)),
        );
        let synopsis = Synopsis::from_entries(n, entries)?;
        let update = DGreedyAbsUpdate {
            synopsis,
            estimated_error: best_err,
            best_croot_size: best_k,
            stats,
        };
        Ok((pipe, update))
    }
}

// ---------------------------------------------------------------------------
// Phased serving driver
// ---------------------------------------------------------------------------

/// The value a [`PhasedSynopsisDriver`] publishes: a synopsis plus what
/// kind of answer it is.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedSynopsis {
    /// The synopsis being served.
    pub synopsis: Synopsis,
    /// The guaranteed max-abs error, when the producer computes one
    /// (`None` for the conventional phase-1 answer, which carries no
    /// max-error guarantee).
    pub guaranteed_error: Option<f64>,
    /// True for the exact DGreedyAbs answer, false for the coarse
    /// phase-1 answer.
    pub exact: bool,
}

/// What one [`PhasedSynopsisDriver::tick`] did.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Version of the coarse (foreground) snapshot published this tick.
    pub coarse_version: u64,
    /// Version of the exact (background) snapshot published this tick.
    pub exact_version: u64,
    /// Simulated seconds the coarse answer was the freshest available —
    /// the staleness window a consumer observes before the exact answer
    /// supersedes it.
    pub staleness_secs: f64,
    /// Measured max-abs error of the coarse answer against the window.
    pub coarse_error: f64,
    /// Guaranteed max-abs error of the exact answer.
    pub exact_error: f64,
    /// Bases the tick's appends dirtied.
    pub dirty_bases: usize,
    /// Map tasks the conventional (foreground) update ran.
    pub foreground_tasks: usize,
    /// Map tasks the exact (background) update ran.
    pub background_tasks: usize,
    /// GreedyAbs runs across the background update's tasks.
    pub greedy_runs: usize,
    /// The tick's full metrics ledger (stages tagged with their phase).
    pub metrics: DriverMetrics,
}

/// Serves a continuously maintained synopsis with phased refinement.
///
/// Each [`tick`](PhasedSynopsisDriver::tick) appends new stream values
/// and runs one phased plan on the cluster: a **foreground** phase
/// rebuilds the cheap conventional synopsis incrementally and publishes
/// it immediately, then a **background** phase rebuilds the exact
/// DGreedyAbs synopsis (also incrementally) and atomically swaps it into
/// the same [`Progressive`] handle. A consumer holding the handle always
/// sees the freshest complete snapshot; versions count up across ticks.
#[derive(Debug)]
pub struct PhasedSynopsisDriver {
    window: StreamWindow,
    conventional: IncrementalConventional,
    dgreedy: IncrementalDGreedyAbs,
    handle: Progressive<ServedSynopsis>,
}

impl PhasedSynopsisDriver {
    /// Creates a driver over an `n`-value window with budget `b`.
    pub fn new(n: usize, b: usize, cfg: &DGreedyAbsConfig) -> Result<Self, CoreError> {
        let base_leaves = cfg.base_leaves.clamp(2, n);
        Ok(PhasedSynopsisDriver {
            window: StreamWindow::new(n, base_leaves)?,
            conventional: IncrementalConventional::new(n, b, base_leaves)?,
            dgreedy: IncrementalDGreedyAbs::new(n, b, cfg)?,
            handle: Progressive::empty("synopsis"),
        })
    }

    /// The serving handle (clones share the swap).
    pub fn handle(&self) -> Progressive<ServedSynopsis> {
        self.handle.clone()
    }

    /// The maintained window.
    pub fn window(&self) -> &StreamWindow {
        &self.window
    }

    /// The latest published snapshot, if any tick ran.
    pub fn latest(&self) -> Option<Arc<Snapshot<ServedSynopsis>>> {
        self.handle.latest()
    }

    /// Appends `values` and runs one phased refinement plan.
    pub fn tick(&mut self, cluster: &Cluster, values: &[f64]) -> Result<TickReport, CoreError> {
        self.window.push(values);
        let dirty = self.window.take_dirty_bases();
        for &j in &dirty {
            self.conventional.invalidate(j);
            self.dgreedy.invalidate(j);
        }
        let data = self.window.data().to_vec();

        // Foreground: cheap conventional answer, published immediately.
        let pipe = Pipeline::on(cluster).enter_phase(Phase::Foreground);
        let (pipe, coarse) = self.conventional.update(pipe, &data)?;
        let coarse_served = ServedSynopsis {
            synopsis: coarse.synopsis.clone(),
            guaranteed_error: None,
            exact: false,
        };
        let pipe = pipe.then(|()| coarse_served).publish(&self.handle);
        let coarse_snap = self.handle.latest().expect("just published");

        // Background: exact answer refines the same handle.
        let pipe = pipe.then(|_| ()).enter_phase(Phase::Background(0));
        let (pipe, exact) = self.dgreedy.update(pipe, &data)?;
        let exact_served = ServedSynopsis {
            synopsis: exact.synopsis.clone(),
            guaranteed_error: Some(exact.estimated_error),
            exact: true,
        };
        let pipe = pipe.then(|()| exact_served).publish(&self.handle);
        let exact_snap = self.handle.latest().expect("just published");
        let metrics = pipe.into_metrics();

        let coarse_error = max_abs(&data, &coarse.synopsis.reconstruct_all());
        Ok(TickReport {
            coarse_version: coarse_snap.version,
            exact_version: exact_snap.version,
            staleness_secs: exact_snap.published_at - coarse_snap.published_at,
            coarse_error,
            exact_error: exact.estimated_error,
            dirty_bases: dirty.len(),
            foreground_tasks: coarse.stats.map_tasks,
            background_tasks: exact.stats.map_tasks,
            greedy_runs: exact.stats.greedy_runs,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::con;
    use crate::dgreedy_abs::dgreedy_abs;
    use dwmaxerr_runtime::ClusterConfig;

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    fn dg_cfg(s: usize) -> DGreedyAbsConfig {
        DGreedyAbsConfig {
            base_leaves: s,
            bucket_width: 1e-9,
            reducers: 2,
            max_candidates: None,
        }
    }

    fn wavy(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 37 + salt) % 23) as f64 * 3.0 + (i as f64 * 0.7).sin())
            .collect()
    }

    #[test]
    fn window_ring_dirties_only_touched_bases() {
        let mut w = StreamWindow::new(16, 4).unwrap();
        w.push(&[1.0, 2.0, 3.0]);
        assert_eq!(w.filled(), 3);
        assert!(!w.is_full());
        assert_eq!(w.take_dirty_bases(), vec![0]);
        w.push(&[4.0, 5.0]);
        assert_eq!(w.take_dirty_bases(), vec![0, 1]);
        // Fill up and wrap: the ring overwrites base 0 again.
        w.push(&(6..=16).map(f64::from).collect::<Vec<_>>());
        assert!(w.is_full());
        let _ = w.take_dirty_bases();
        w.push(&[99.0]);
        assert_eq!(w.data()[0], 99.0);
        assert_eq!(w.take_dirty_bases(), vec![0]);
    }

    #[test]
    fn incremental_conventional_matches_batch_con() {
        let cluster = test_cluster();
        let n = 64;
        let mut window = StreamWindow::new(n, 8).unwrap();
        let mut inc = IncrementalConventional::new(n, 10, 8).unwrap();
        window.push(&wavy(40, 1)); // ragged tail
        for j in window.take_dirty_bases() {
            inc.invalidate(j);
        }
        let (pipe, up) = inc.update(Pipeline::on(&cluster), window.data()).unwrap();
        let _ = pipe.into_metrics();
        let (batch, _) = con(&test_cluster(), window.data(), 10, 8).unwrap();
        assert_eq!(up.synopsis, batch);

        // Append a little; only touched bases re-run.
        window.push(&wavy(8, 2));
        for j in window.take_dirty_bases() {
            inc.invalidate(j);
        }
        let (pipe, up) = inc.update(Pipeline::on(&cluster), window.data()).unwrap();
        let _ = pipe.into_metrics();
        assert!(up.stats.map_tasks <= 2, "ran {} tasks", up.stats.map_tasks);
        let (batch, _) = con(&test_cluster(), window.data(), 10, 8).unwrap();
        assert_eq!(up.synopsis, batch);
    }

    #[test]
    fn incremental_dgreedy_matches_batch_bit_for_bit() {
        let cluster = test_cluster();
        let n = 64;
        let cfg = dg_cfg(8);
        let mut window = StreamWindow::new(n, 8).unwrap();
        let mut inc = IncrementalDGreedyAbs::new(n, 8, &cfg).unwrap();
        window.push(&wavy(64, 3));
        for j in window.take_dirty_bases() {
            inc.invalidate(j);
        }
        for round in 0..3 {
            let (pipe, up) = inc.update(Pipeline::on(&cluster), window.data()).unwrap();
            let _ = pipe.into_metrics();
            let batch = dgreedy_abs(&test_cluster(), window.data(), 8, &cfg).unwrap();
            assert_eq!(up.synopsis, batch.synopsis, "round {round}");
            assert_eq!(
                up.estimated_error.to_bits(),
                batch.estimated_error.to_bits(),
                "round {round}"
            );
            assert_eq!(up.best_croot_size, batch.best_croot_size, "round {round}");
            window.push(&wavy(8, 4 + round as u64));
            for j in window.take_dirty_bases() {
                inc.invalidate(j);
            }
        }
    }

    #[test]
    fn untouched_window_reruns_nothing() {
        let cluster = test_cluster();
        let n = 32;
        let cfg = dg_cfg(4);
        let mut inc = IncrementalDGreedyAbs::new(n, 6, &cfg).unwrap();
        let data = wavy(32, 7);
        let (pipe, first) = inc.update(Pipeline::on(&cluster), &data).unwrap();
        let _ = pipe.into_metrics();
        assert!(first.stats.map_tasks >= 8); // full rebuild
                                             // Same data, nothing invalidated: pure cache replay, zero jobs.
        let (pipe, second) = inc.update(Pipeline::on(&cluster), &data).unwrap();
        let metrics = pipe.into_metrics();
        assert_eq!(second.stats.map_tasks, 0);
        assert_eq!(metrics.job_count(), 0);
        assert_eq!(first.synopsis, second.synopsis);
    }

    #[test]
    fn phased_driver_publishes_coarse_then_exact() {
        let cluster = test_cluster();
        let mut driver = PhasedSynopsisDriver::new(32, 6, &dg_cfg(4)).unwrap();
        let handle = driver.handle();
        let report = driver.tick(&cluster, &wavy(32, 11)).unwrap();
        assert_eq!(report.coarse_version, 1);
        assert_eq!(report.exact_version, 2);
        assert!(report.staleness_secs > 0.0);
        let latest = handle.latest().unwrap();
        assert!(latest.value.exact);
        assert_eq!(latest.value.guaranteed_error, Some(report.exact_error));
        // The exact answer matches a one-shot build on the same window.
        let batch = dgreedy_abs(&test_cluster(), driver.window().data(), 6, &dg_cfg(4)).unwrap();
        assert_eq!(latest.value.synopsis, batch.synopsis);
        // Stage metrics carry the phases.
        let phases = report.metrics.per_phase();
        assert!(phases
            .iter()
            .any(|p| p.phase == Some(Phase::Foreground) && p.jobs > 0));
        assert!(phases
            .iter()
            .any(|p| p.phase == Some(Phase::Background(0)) && p.jobs > 0));
        // A second tick keeps counting versions up on the same handle.
        let report2 = driver.tick(&cluster, &wavy(4, 12)).unwrap();
        assert_eq!(report2.coarse_version, 3);
        assert_eq!(report2.exact_version, 4);
        assert!(report2.dirty_bases <= 2);
    }
}
