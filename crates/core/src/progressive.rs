//! Progressive synopsis maintenance: sliding windows, incremental
//! rebuilds, and the driver that rebuilds one exact synopsis per tick.
//!
//! The batch algorithms in this crate answer "build the best synopsis of
//! this array" in one monolithic run. A serving system instead sees a
//! stream of appends and needs the exact DGreedyAbs answer after each —
//! and when only a sliver of the window changed, it should not pay for a
//! full rebuild. This module provides that machinery on top of the
//! runtime's [`Pipeline`]s:
//!
//! * [`StreamWindow`] — a power-of-two window over the stream, organized
//!   as a ring of base slices with a zero-padded ragged tail; each append
//!   returns the base slices it touched.
//! * [`IncrementalDGreedyAbs`] — maintains the exact max-abs synopsis
//!   under appends: per-base partials are cached, jobs re-run only over
//!   the bases whose partials no longer apply (the one stale set), and the
//!   result is bit-identical to a from-scratch
//!   [`crate::dgreedy_abs::dgreedy_abs`] run.
//! * [`PhasedSynopsisDriver`] — ties it together: each
//!   [`tick`](PhasedSynopsisDriver::tick) appends new values, invalidates
//!   the bases they touched and runs the incremental DGreedyAbs update.
//!   It publishes nothing: the tick's [`DGreedyAbsUpdate`] — the synopsis
//!   and the bound it is served with — goes back to the caller, and the
//!   serving layer's store mints the one version a tick gets.
//!
//! # Why the incremental results are bit-identical
//!
//! Every cached partial is the output of the *same* floating-point
//! computation the batch job would run on the same input bits: base
//! averages and local Haar details depend only on the (unchanged) base
//! slice, and a GreedyAbs run depends only on `(details, incoming error)`
//! — the cache key. Everything between the caches is not a replay of the
//! batch driver but its code: the maintainer calls the steps of the
//! crate-private `errhist` module (genRootSets, the grouping by incoming
//! error, the cut by selection, the pick, the synopsis filter and
//! `keep_top`). The cut is a function of the histogram *multiset*, so cache
//! provenance cannot change it, and the final top-`B` filter sorts the
//! per-base removals concatenated in base order — which is precisely the
//! order the sort-merge shuffle feeds a reducer (equal keys drain
//! lowest-map-task-first).
//!
//! The incremental DGreedyAbs pick also skips candidates the batch driver
//! scores, without changing its winner. A candidate's score is `max(cut,
//! ρ_k) ≥ ρ_k`, and the all-retained candidate `max_k` is always scored:
//! call its score `U`. The winner scores at most `U`, so a candidate with
//! `ρ_k > U` scores strictly more than the winner — it can neither win nor
//! tie, and leaving it (and the GreedyAbs runs only it needs) out leaves
//! the synopsis, the estimate, the bound and `|C_root|` as they are. A NaN
//! `ρ_k` or `U` is unordered and prunes nothing.
//!
//! # Non-finite input
//!
//! Over NaN or ±∞ no error bound means anything: `tick` refuses such values
//! before they reach the window, and the maintainer refuses a base whose
//! average is not finite ([`CoreError::NonFiniteInput`]) and keeps it
//! invalidated, so an update over repaired data recomputes it.

#![warn(clippy::too_many_lines)]

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use dwmaxerr_runtime::codec::Wire;
use dwmaxerr_runtime::metrics::{DriverMetrics, JobMetrics};
use dwmaxerr_runtime::pipeline::StagedPipeline;
use dwmaxerr_runtime::{Cluster, JobBuilder, Kernel, MapContext, Pipeline, RuntimeError};
use dwmaxerr_wavelet::{Synopsis, WaveletError};

use crate::dgreedy_abs::{AbsEngine, DGreedyAbsConfig};
use crate::errhist::{self, ErrHistEngine, Pick, Removed, RootSets, Shape};
use crate::error::CoreError;
use crate::layered::forward;
use crate::partition::{store_finite_averages, BasePartition};
use crate::query::ErrorBound;
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
/// never shifts data, so an append of `m` values touches only the
/// `O(m / base_leaves + 1)` base sub-trees it writes into, which is what
/// makes incremental maintenance cheap.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    data: Vec<f64>,
    base_leaves: usize,
    num_base: usize,
    pushed: u64,
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

    /// The physical window contents (zero-padded while not full).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Appends `values`: fills the ragged tail first, then slides by
    /// overwriting the oldest slots in ring order. Returns the base slices
    /// it wrote into, in ascending order.
    pub fn push(&mut self, values: &[f64]) -> Vec<usize> {
        let n = self.data.len() as u64;
        let mut touched = Vec::new();
        for &v in values {
            let pos = (self.pushed % n) as usize;
            self.data[pos] = v;
            let j = pos / self.base_leaves;
            if touched.last() != Some(&j) {
                touched.push(j);
            }
            self.pushed += 1;
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

// ---------------------------------------------------------------------------
// What the maintainer keeps
// ---------------------------------------------------------------------------

/// What an incremental rebuild decided; what it ran — map tasks and
/// GreedyAbs runs — is in the update's metrics ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Stale bases this update had to reprocess.
    pub dirty_bases: usize,
    /// `C_root` candidates left out of level 2 because their residual
    /// floor exceeds a score another candidate reaches.
    pub pruned_candidates: usize,
}

/// The maintainer's view of the window: its partition, the base averages
/// as of the last update and the bases invalidated since — the one stale
/// set of the streaming path.
#[derive(Debug)]
struct Bases {
    partition: BasePartition,
    averages: Vec<f64>,
    stale: BTreeSet<usize>,
}

impl Bases {
    /// Every base starts invalidated.
    fn new(partition: BasePartition) -> Self {
        Bases {
            partition,
            averages: vec![0.0; partition.num_base()],
            stale: (0..partition.num_base()).collect(),
        }
    }

    /// The stale bases in ascending order, and `data` cut into one split
    /// per base. The marks stay until [`Bases::commit`], so an update that
    /// fails before it leaves them for the next one.
    fn stale(&self, data: &[f64]) -> Result<(Vec<usize>, Vec<SliceSplit>), CoreError> {
        if data.len() != self.partition.n() {
            return Err(CoreError::Protocol("window length changed between updates"));
        }
        let stale = self.stale.iter().copied().collect();
        Ok((stale, aligned_splits(data, self.partition.base_leaves())))
    }

    /// Takes the stale bases' `fresh` averages and clears the marks — or
    /// refuses, marks kept, at the first that is NaN or ±∞.
    fn commit<K: Into<u64>>(
        &mut self,
        fresh: impl IntoIterator<Item = (K, f64)>,
    ) -> Result<(), CoreError> {
        store_finite_averages(&mut self.averages, fresh)?;
        self.stale.clear();
        Ok(())
    }
}

/// A pipeline between two jobs of an update, and the last job's output.
type Staged<'c, K, V> = (Pipeline<'c, ()>, Vec<(K, V)>);

/// Runs `stage` over the splits of `bases` — no job when there are none —
/// and returns its output pairs.
fn stage_over<'c, K, V>(
    pipe: Pipeline<'c, ()>,
    splits: &[SliceSplit],
    bases: &[usize],
    stage: impl FnOnce(
        Pipeline<'c, ()>,
        &[SliceSplit],
    ) -> Result<StagedPipeline<'c, (), K, V>, RuntimeError>,
) -> Result<Staged<'c, K, V>, CoreError> {
    if bases.is_empty() {
        return Ok((pipe, Vec::new()));
    }
    let picked: Vec<SliceSplit> = bases.iter().map(|&j| splits[j].clone()).collect();
    let mut out = Vec::new();
    let pipe = stage(pipe, &picked)?.then(|((), pairs)| out = pairs);
    Ok((pipe, out))
}

// ---------------------------------------------------------------------------
// Incremental DGreedyAbs
// ---------------------------------------------------------------------------

/// Outcome of [`IncrementalDGreedyAbs::update`].
#[derive(Debug, Clone)]
pub struct DGreedyAbsUpdate {
    /// The maintained exact max-abs synopsis.
    pub synopsis: Synopsis,
    /// The max-abs error estimate, as
    /// [`DGreedyAbsResult::estimated_error`](crate::dgreedy_abs::DGreedyAbsResult::estimated_error):
    /// exact up to one bucket width `e_b`, and not itself a bound.
    pub estimated_error: f64,
    /// The max-abs bound this synopsis is served with: the estimate
    /// widened by `e_b`.
    pub bound: ErrorBound,
    /// `|C_root|` of the winning candidate.
    pub best_croot_size: usize,
    /// What the update re-ran.
    pub stats: RebuildStats,
}

/// Updates a [`RunCache`] entry survives without being wanted: it is
/// retired at the `RUN_CACHE_UPDATES`-th update in a row that does not want
/// it. Every update that moves a base's average changes the root
/// coefficients, and with them most groups' incoming errors, so a cache
/// that never evicts gains entries on every clean base at every such
/// update. GreedyAbs runs per update against never evicting, over 240
/// updates of 256 values on `stream-serve`'s shape (N = 2^14, 2^10-value
/// bases, B = N/16, two threads on 2 vCPUs; three feeds): +8.7–10.2 % at
/// 1, +2.2–3.9 % at 4, +0.9–1.8 % at 8, +0.2–0.7 % at 16. After 3 000
/// one-value updates the process holds 57 MiB at 16 (50 at 8) where the
/// unbounded cache holds 1 081 MiB. These figures were taken before the
/// errhist stage left out the candidates that cannot win, when every
/// update wanted every group.
const RUN_CACHE_UPDATES: u64 = 16;

/// What level 1 of one of DGreedyAbs's two big jobs answered, per base and
/// per incoming error (its f64 bits): a GreedyAbs run depends on nothing
/// else. An update calls [`RunCache::advance`] once, [`RunCache::fill`]
/// once per job that may run, and [`RunCache::retire`] once, so retention
/// counts updates, not jobs.
#[derive(Debug)]
struct RunCache<T> {
    /// The job that fills it, and that job's reducer count.
    job: &'static str,
    reducers: usize,
    /// Per base and incoming error: the run, and the last update (a
    /// [`RunCache::fill`] count) that wanted it.
    runs: Vec<HashMap<u64, (u64, Vec<T>)>>,
    /// Updates so far.
    updates: u64,
}

impl<T: Wire + Send> RunCache<T> {
    fn new(job: &'static str, reducers: usize, num_base: usize) -> Self {
        let runs = (0..num_base).map(|_| HashMap::new()).collect();
        RunCache {
            job,
            reducers,
            runs,
            updates: 0,
        }
    }

    /// Base `j`'s run for `incoming`, if cached.
    fn cached(&self, j: usize, incoming: f64) -> Option<&[T]> {
        let (_, run) = self.runs[j].get(&incoming.to_bits())?;
        Some(run)
    }

    fn get(&self, j: usize, incoming: f64) -> Result<&[T], CoreError> {
        self.cached(j, incoming)
            .ok_or(CoreError::Protocol("run cache miss after refresh"))
    }

    /// Starts an update: the [`RunCache::fill`]s until the next call mark
    /// what they want with one update count.
    fn advance(&mut self) {
        self.updates += 1;
    }

    /// Makes the cache hold base `j`'s run for every incoming error of
    /// `wanted[j]`: one job over the bases that miss any, `run(details,
    /// split, incoming)` once per miss.
    fn fill<'c>(
        &mut self,
        pipe: Pipeline<'c, ()>,
        shape: &Shape,
        splits: &[SliceSplit],
        wanted: &[Vec<f64>],
        run: impl Fn(&[f64], &SliceSplit, f64) -> Vec<T> + Sync,
    ) -> Result<Pipeline<'c, ()>, CoreError> {
        let now = self.updates;
        let missing: Vec<Vec<f64>> = wanted
            .iter()
            .zip(&mut self.runs)
            .map(|(errors, cached)| {
                let lacks = |e: &&f64| match cached.get_mut(&e.to_bits()) {
                    Some((last, _)) => {
                        *last = now;
                        false
                    }
                    None => true,
                };
                errors.iter().filter(lacks).copied().collect()
            })
            .collect();
        let bases: Vec<usize> = (0..missing.len())
            .filter(|&j| !missing[j].is_empty())
            .collect();
        let (pipe, fresh) = stage_over(pipe, splits, &bases, |pipe, picked| {
            let job = JobBuilder::new(self.job)
                .map(
                    |split: &SliceSplit, ctx: &mut MapContext<u32, (u64, Vec<T>)>| {
                        let (details, _avg) = shape.partition.base_details_from_data(split.slice());
                        let runs = &missing[split.id as usize];
                        ctx.charge(Kernel::Values, split.len() as u64);
                        ctx.charge(Kernel::GreedyDiscards, (runs.len() * details.len()) as u64);
                        for &e in runs {
                            ctx.add_counter("greedy_runs", 1);
                            ctx.emit(split.id, (e.to_bits(), run(&details, split, e)));
                        }
                    },
                )
                .input_bytes(SliceSplit::bytes)
                .task_memory(|s: &SliceSplit| AbsEngine::task_memory(s.len()))
                .reducers(self.reducers)
                .partition_by(|j: &u32, parts| *j as usize % parts)
                .reduce(forward);
            pipe.stage(&job, picked)
        })?;
        for (j, (bits, produced)) in fresh {
            self.runs[j as usize].insert(bits, (now, produced));
        }
        Ok(pipe)
    }

    /// Ends an update: retires the runs that none of the last
    /// [`RUN_CACHE_UPDATES`] updates wanted.
    fn retire(&mut self) {
        let now = self.updates;
        for cached in &mut self.runs {
            cached.retain(|_, (last, _)| now - *last < RUN_CACHE_UPDATES);
        }
    }
}

/// Incrementally maintained DGreedyAbs synopsis.
///
/// Two caches answer level 1 of [`crate::dgreedy_abs::dgreedy_abs`]'s two
/// big jobs: the histogram of an ErrHistGreedyAbs run in its
/// nodes-at-or-above form, and the *unfiltered* removals of a
/// synopsis-stage run, re-filterable for any winning cut. An update re-runs
/// map tasks only for bases with at least one cache miss, and runs
/// histograms only for the `C_root` candidates that can still win (the
/// all-retained candidate's score bounds every winner's; see the module
/// docs); every step between the caches is the batch driver's own, so the
/// result is bit-identical to it on the same array. A cached run that
/// `RUN_CACHE_UPDATES` (16) updates in a row did not want is retired, so
/// each base holds at most that many updates' worth of distinct incoming
/// errors (`log R + 2` per root configuration); the figures behind 16
/// predate the pruning.
#[derive(Debug)]
pub struct IncrementalDGreedyAbs {
    bases: Bases,
    shape: Shape,
    histograms: RunCache<(i64, u64)>,
    removals: RunCache<Removed>,
}

impl IncrementalDGreedyAbs {
    /// Creates the maintainer for `n`-value windows with budget `b`.
    /// Every base starts invalidated.
    pub fn new(n: usize, b: usize, cfg: &DGreedyAbsConfig) -> Result<Self, CoreError> {
        let shape = Shape::new(n, b, cfg.base_leaves, cfg.bucket_width, cfg.reducers)?
            .capped(cfg.max_candidates);
        let r = shape.partition.num_base();
        Ok(IncrementalDGreedyAbs {
            bases: Bases::new(shape.partition),
            shape,
            histograms: RunCache::new("dgreedyabs-inc-errhist", shape.reducers, r),
            removals: RunCache::new("dgreedyabs-inc-synopsis", 1, r),
        })
    }

    /// Marks base `j`'s cached partials stale.
    pub fn invalidate(&mut self, j: usize) {
        self.bases.stale.insert(j);
    }

    /// Rebuilds the synopsis of `data`, re-running merge/filter jobs only
    /// over bases whose cached partials no longer apply.
    pub fn update<'c>(
        &mut self,
        pipe: Pipeline<'c, ()>,
        data: &[f64],
    ) -> Result<(Pipeline<'c, ()>, DGreedyAbsUpdate), CoreError> {
        let shape = self.shape;
        let (stale, splits) = self.bases.stale(data)?;
        let mut stats = RebuildStats {
            dirty_bases: stale.len(),
            ..RebuildStats::default()
        };
        let (pipe, fresh) = stage_over(pipe, &splits, &stale, |pipe, picked| {
            errhist::averages_stage(pipe, "dgreedyabs-inc", picked)
        })?;
        self.bases.commit(fresh)?;
        for &j in &stale {
            self.histograms.runs[j].clear();
            self.removals.runs[j].clear();
        }
        let roots = RootSets::generate(&shape, &AbsEngine, &self.bases.averages)?;
        self.histograms.advance();
        self.removals.advance();
        let (pipe, best) = self.errhist_stage(pipe, &roots, &splits, &mut stats)?;

        // The synopsis stage: the winner's removals unfiltered from the
        // cache, then the reducer's input — the bases' removals that
        // survive the cut, in base order.
        let r = shape.partition.num_base();
        let wanted: Vec<Vec<f64>> = (0..r).map(|j| vec![roots.incoming(best.k, j)]).collect();
        let unfiltered = |details: &[f64], split: &SliceSplit, e: f64| {
            errhist::removals(&shape, &AbsEngine, details, split, e, i64::MIN).collect()
        };
        let pipe = self
            .removals
            .fill(pipe, &shape, &splits, &wanted, unfiltered)?;
        let mut nodes: Vec<Removed> = Vec::new();
        for (j, incoming) in wanted.iter().enumerate() {
            let at_cut = |removed: &&Removed| errhist::survives(removed.0, best.cut_bucket);
            nodes.extend(self.removals.get(j, incoming[0])?.iter().filter(at_cut));
        }
        self.histograms.retire();
        self.removals.retire();
        let update = DGreedyAbsUpdate {
            synopsis: roots.assemble(best.k, errhist::keep_top(nodes, shape.budget - best.k))?,
            estimated_error: best.score,
            bound: shape.abs_bound(best.score),
            best_croot_size: best.k,
            stats,
        };
        Ok((pipe, update))
    }

    /// The errhist stage over the candidates with `ρ_k ≤ U`, `U` being the
    /// all-retained candidate `max_k`'s score (why the others cannot win
    /// is in the module docs). Level 1 comes from the cache, filled by at
    /// most two jobs; level 2 and the pick are the batch driver's. Job 1
    /// runs each base's missing histogram for `max_k`, and every missing
    /// group that serves a candidate with `ρ_k ≤ L`, where `L` is
    /// `max_k`'s score over the histograms cached before the job — a lower
    /// bound on `U`, since fewer histograms can only lower the cut. Job 2
    /// runs the groups still missing for the candidates with `ρ_k ≤ U`.
    fn errhist_stage<'c>(
        &mut self,
        pipe: Pipeline<'c, ()>,
        roots: &RootSets,
        splits: &[SliceSplit],
        stats: &mut RebuildStats,
    ) -> Result<(Pipeline<'c, ()>, Pick), CoreError> {
        let shape = self.shape;
        let top = shape.max_k;
        let r = shape.partition.num_base();
        let groups: Vec<_> = (0..r).map(|j| roots.groups(j)).collect();
        // Per base, the incoming errors of the groups that serve a
        // candidate `serves` accepts.
        let wanted = |serves: &dyn Fn(usize) -> bool| -> Vec<Vec<f64>> {
            let serving = |ks: &[u32]| ks.iter().any(|&k| serves(k as usize));
            let of_base = |base_groups: &Vec<(f64, Vec<u32>)>| {
                let errors = base_groups.iter().filter(|(_, ks)| serving(ks));
                errors.map(|&(e, _)| e).collect()
            };
            groups.iter().map(of_base).collect()
        };
        let cut = |k: usize, histograms: &[&[(i64, u64)]]| {
            let keep = (shape.budget - k) as u64;
            AbsEngine.finish(errhist::select_cut(histograms, keep), i64::MIN)
        };
        let score = |k: usize, histograms: &[&[(i64, u64)]]| {
            let (score, _) = AbsEngine.judge(&cut(k, histograms), roots.rho(k), shape.bucket_width);
            score
        };
        let histogram = |details: &[f64], split: &SliceSplit, e: f64| {
            let (_floor, trace) = AbsEngine.run(details, split.slice(), e);
            errhist::at_or_above(&errhist::histogram_batches(&trace, shape.bucket_width))
        };

        let cached: Vec<&[(i64, u64)]> = (0..r)
            .filter_map(|j| self.histograms.cached(j, roots.incoming(top, j)))
            .collect();
        let lower = score(top, &cached);
        let first = wanted(&|k| k == top || roots.rho(k) <= lower);
        let pipe = self
            .histograms
            .fill(pipe, &shape, splits, &first, histogram)?;
        let every = (0..r).map(|j| self.histograms.get(j, roots.incoming(top, j)));
        let upper = score(top, &every.collect::<Result<Vec<_>, _>>()?);
        // A NaN is unordered and prunes nothing.
        let kept = |k: usize| roots.rho(k).partial_cmp(&upper) != Some(Ordering::Greater);
        let pipe = self
            .histograms
            .fill(pipe, &shape, splits, &wanted(&kept), histogram)?;

        stats.pruned_candidates = (0..=top).filter(|&k| !kept(k)).count();
        let mut serving: Vec<Vec<&[(i64, u64)]>> = vec![Vec::new(); top + 1];
        for (j, of_base) in groups.iter().enumerate() {
            for (e, ks) in of_base {
                for k in ks.iter().map(|&k| k as usize).filter(|&k| kept(k)) {
                    serving[k].push(self.histograms.get(j, *e)?);
                }
            }
        }
        let outs = (0..=top)
            .filter(|&k| kept(k))
            .map(|k| (k as u32, cut(k, &serving[k])));
        Ok((pipe, errhist::pick(&AbsEngine, roots, outs)?))
    }
}

// ---------------------------------------------------------------------------
// Streaming driver
// ---------------------------------------------------------------------------

/// What one [`PhasedSynopsisDriver::tick`] did.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// The tick's update: the synopsis, its estimate and the bound it is
    /// served with, and what the update re-ran.
    pub update: DGreedyAbsUpdate,
    /// Stale bases the update reprocessed: the tick's own appends and any
    /// a failed tick left ([`RebuildStats::dirty_bases`]).
    pub dirty_bases: usize,
    /// Map tasks the update ran, summed over the ledger's jobs.
    pub background_tasks: usize,
    /// GreedyAbs runs across those tasks: the ledger's `greedy_runs`
    /// counter.
    pub greedy_runs: usize,
    /// The tick's full metrics ledger.
    pub metrics: DriverMetrics,
}

/// Maintains an exact synopsis of a sliding window.
///
/// Each [`tick`](PhasedSynopsisDriver::tick) appends new stream values and
/// rebuilds the DGreedyAbs synopsis incrementally on the cluster. Serving
/// the result — and minting its version — is the caller's.
#[derive(Debug)]
pub struct PhasedSynopsisDriver {
    window: StreamWindow,
    dgreedy: IncrementalDGreedyAbs,
}

impl PhasedSynopsisDriver {
    /// Creates a driver over an `n`-value window with budget `b`.
    pub fn new(n: usize, b: usize, cfg: &DGreedyAbsConfig) -> Result<Self, CoreError> {
        Ok(PhasedSynopsisDriver {
            window: StreamWindow::new(n, cfg.base_leaves.clamp(2, n.max(2)))?,
            dgreedy: IncrementalDGreedyAbs::new(n, b, cfg)?,
        })
    }

    /// The maintained window.
    pub fn window(&self) -> &StreamWindow {
        &self.window
    }

    /// Appends `values` and rebuilds the exact synopsis.
    ///
    /// NaN or ±∞ among `values` is refused before anything is touched
    /// ([`CoreError::NonFiniteInput`], naming the base slice the first such
    /// value would land in): the window and the maintainer stay as they
    /// were.
    pub fn tick(&mut self, cluster: &Cluster, values: &[f64]) -> Result<TickReport, CoreError> {
        if let Some(at) = values.iter().position(|v| !v.is_finite()) {
            let slot = (self.window.pushed + at as u64) % self.window.len() as u64;
            let base = slot as usize / self.window.base_leaves;
            return Err(CoreError::NonFiniteInput { base });
        }
        for j in self.window.push(values) {
            self.dgreedy.invalidate(j);
        }
        let (pipe, update) = self
            .dgreedy
            .update(Pipeline::on(cluster), self.window.data())?;
        let metrics = pipe.into_metrics();
        Ok(TickReport {
            dirty_bases: update.stats.dirty_bases,
            background_tasks: metrics.jobs.iter().map(JobMetrics::map_tasks).sum(),
            greedy_runs: metrics
                .jobs
                .iter()
                .map(|j| j.counter("greedy_runs"))
                .sum::<u64>() as usize,
            update,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn window_ring_returns_only_touched_bases() {
        let mut w = StreamWindow::new(16, 4).unwrap();
        assert_eq!(w.push(&[1.0, 2.0, 3.0]), vec![0]);
        assert_eq!(w.push(&[4.0, 5.0]), vec![0, 1]);
        assert_eq!(w.push(&[]), Vec::<usize>::new());
        // Fill up and wrap: the ring overwrites base 0 again.
        assert_eq!(
            w.push(&(6..=16).map(f64::from).collect::<Vec<_>>()),
            vec![1, 2, 3]
        );
        assert_eq!(w.push(&[99.0]), vec![0]);
        assert_eq!(w.data()[0], 99.0);
        // A wrap-around append lists each base once, in ascending order.
        assert_eq!(w.push(&[0.0; 17]), vec![0, 1, 2, 3]);
        assert_eq!(w.pushed(), 34);
    }

    #[test]
    fn incremental_dgreedy_matches_batch_bit_for_bit() {
        let cluster = test_cluster();
        let n = 64;
        let cfg = dg_cfg(8);
        let mut window = StreamWindow::new(n, 8).unwrap();
        let mut inc = IncrementalDGreedyAbs::new(n, 8, &cfg).unwrap();
        window.push(&wavy(64, 3));
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
            assert_eq!(up.bound, batch.bound, "round {round}");
            for j in window.push(&wavy(8, 4 + round as u64)) {
                inc.invalidate(j);
            }
        }
    }

    /// One-value ticks move a base's average, and with it most bases'
    /// incoming errors. However many ticks run, no base caches more than
    /// `RUN_CACHE_UPDATES` updates' worth of distinct incoming errors.
    #[test]
    fn run_caches_stay_bounded_over_many_one_value_ticks() {
        /// The most runs one base caches, and the most distinct incoming
        /// errors the last update wanted of one base.
        fn sizes<T>(cache: &RunCache<T>) -> (usize, usize) {
            let held = cache.runs.iter().map(HashMap::len).max().unwrap_or(0);
            let now = |runs: &HashMap<_, (u64, _)>| {
                runs.values()
                    .filter(|(last, _)| *last == cache.updates)
                    .count()
            };
            (held, cache.runs.iter().map(now).max().unwrap_or(0))
        }
        let cluster = test_cluster();
        let mut driver = PhasedSynopsisDriver::new(64, 8, &dg_cfg(4)).unwrap();
        driver.tick(&cluster, &wavy(64, 5)).unwrap();
        let mut per_update = [0, 0];
        for (tick, value) in wavy(3000, 9).iter().enumerate() {
            let before = [
                driver.dgreedy.histograms.updates,
                driver.dgreedy.removals.updates,
            ];
            driver.tick(&cluster, std::slice::from_ref(value)).unwrap();
            let dg = &driver.dgreedy;
            assert_eq!(
                [dg.histograms.updates, dg.removals.updates],
                before.map(|u| u + 1),
                "tick {tick}: one update advances each cache once"
            );
            for (cache, (held, wanted)) in [sizes(&dg.histograms), sizes(&dg.removals)]
                .into_iter()
                .enumerate()
            {
                per_update[cache] = per_update[cache].max(wanted);
                assert!(
                    held <= RUN_CACHE_UPDATES as usize * per_update[cache],
                    "tick {tick}, cache {cache}: {held} runs for one base, {wanted} wanted"
                );
            }
        }
        assert!(per_update[0] > 1, "{per_update:?}");
    }

    #[test]
    fn untouched_window_reruns_nothing() {
        let cluster = test_cluster();
        let n = 32;
        let cfg = dg_cfg(4);
        let mut inc = IncrementalDGreedyAbs::new(n, 6, &cfg).unwrap();
        let data = wavy(32, 7);
        let (pipe, first) = inc.update(Pipeline::on(&cluster), &data).unwrap();
        let full: usize = pipe.metrics().jobs.iter().map(JobMetrics::map_tasks).sum();
        assert!(full >= 8, "a full rebuild");
        // Same data, nothing invalidated: pure cache replay, zero jobs.
        let (pipe, second) = inc.update(Pipeline::on(&cluster), &data).unwrap();
        let metrics = pipe.into_metrics();
        assert_eq!(metrics.job_count(), 0);
        assert_eq!(first.synopsis, second.synopsis);
    }

    #[test]
    fn driver_tick_serves_what_a_one_shot_build_serves() {
        let cluster = test_cluster();
        let mut driver = PhasedSynopsisDriver::new(32, 6, &dg_cfg(4)).unwrap();
        for (tick, values) in [wavy(32, 11), wavy(4, 12)].iter().enumerate() {
            let report = driver.tick(&cluster, values).unwrap();
            // The answer, its estimate and the bound it is served with match
            // a one-shot build on the same window.
            let batch =
                dgreedy_abs(&test_cluster(), driver.window().data(), 6, &dg_cfg(4)).unwrap();
            let up = &report.update;
            assert_eq!(up.synopsis, batch.synopsis, "tick {tick}");
            assert_eq!(
                up.estimated_error.to_bits(),
                batch.estimated_error.to_bits()
            );
            assert_eq!(up.bound, batch.bound, "tick {tick}");
            // The report's counters are the update's and its ledger's.
            assert_eq!(report.dirty_bases, up.stats.dirty_bases);
            let jobs = &report.metrics.jobs;
            let tasks: usize = jobs.iter().map(JobMetrics::map_tasks).sum();
            assert_eq!(report.background_tasks, tasks);
            let runs: u64 = jobs.iter().map(|j| j.counter("greedy_runs")).sum();
            assert_eq!(report.greedy_runs as u64, runs);
            assert_eq!(report.dirty_bases, [8, 1][tick], "tick {tick}");
        }
    }
}
