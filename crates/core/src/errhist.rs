//! Section 5 (Algorithm 6, described step by step in the module docs of
//! [`mod@crate::dgreedy_abs`]) written once, in the order it runs: [`Shape`],
//! [`averages_stage`], [`RootSets::generate`] (genRootSets),
//! [`errhist_stage`], [`pick`], the synopsis job ([`removals`] at the
//! workers, [`keep_top`] at its reducer) and [`RootSets::assemble`];
//! [`build`] chains them. DGreedyAbs and DGreedyRel plug what differs
//! between the two metrics in through [`ErrHistEngine`]; the incremental
//! DGreedyAbs maintainer answers level 1 of the two big jobs from its
//! caches and calls everything else as written here.
//!
//! The errhist stage is Algorithm 3 at level 1 and `combineResults`
//! (Algorithm 5) at level 2:
//!
//! **Level 1** ([`emit_histograms`]). The worker of base sub-tree `j`
//! groups the candidates `0..=max_k` by the bits of the incoming error
//! they send it, runs the engine once per group (Section 5.3) and ships
//! the group's histogram *whole* — one shuffle record per level-2 reducer
//! that owns any of the group's candidates, not one per candidate and
//! bucket.
//!
//! **Ownership** ([`block_of`]). Candidates go to reducers in contiguous
//! blocks. The incoming error of base `j` changes only when the node
//! leaving the removed set is one of `j`'s `log R + 1` ancestors in the
//! root sub-tree, so a group is (coincidences among the sums aside) a run
//! of consecutive `k` and crosses few block boundaries: a base ships about
//! `groups + reducers − 1` histograms where `k % reducers` would ship
//! `groups × reducers`.
//!
//! **Level 2** ([`combine_block`]). One reduce call per block: its working
//! set is the block's histograms. The cut of a candidate is a weighted
//! selection over the `R` histograms that serve it ([`select_cut`]) — they
//! arrive ascending in bucket, so nothing is gathered or sorted.

#![warn(clippy::too_many_lines)]

use std::cmp::Ordering;

use dwmaxerr_algos::Removal;
use dwmaxerr_runtime::pipeline::StagedPipeline;
use dwmaxerr_runtime::{
    Cluster, JobBuilder, Kernel, MapContext, Pipeline, ReduceContext, RuntimeError,
};
use dwmaxerr_wavelet::{Synopsis, WaveletError};

use crate::error::CoreError;
use crate::layered::forward;
use crate::partition::BasePartition;
use crate::query::ErrorBound;
use crate::splits::SliceSplit;

/// The validated parameters of one Section-5 build.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    pub(crate) partition: BasePartition,
    /// The synopsis budget `B`.
    pub(crate) budget: usize,
    /// Error-bucket width `e_b`.
    pub(crate) bucket_width: f64,
    /// Level-2 workers of the errhist stage.
    pub(crate) reducers: usize,
    /// The candidates are the sets `k = 0..=max_k`.
    pub(crate) max_k: usize,
}

impl Shape {
    /// Every `min{R, B} + 1` candidate size is explored, as in the paper.
    pub(crate) fn new(
        n: usize,
        budget: usize,
        base_leaves: usize,
        bucket_width: f64,
        reducers: usize,
    ) -> Result<Shape, CoreError> {
        let partition = BasePartition::new(n, base_leaves.min(n))?;
        if bucket_width.is_nan() || bucket_width <= 0.0 {
            return Err(CoreError::Protocol("bucket_width must be positive"));
        }
        if reducers == 0 {
            return Err(CoreError::Protocol("reducers must be positive"));
        }
        Ok(Shape {
            partition,
            budget,
            bucket_width,
            reducers,
            max_k: partition.num_base().min(budget),
        })
    }

    /// Explores candidate sizes up to `cap` only (`None`: no cap).
    pub(crate) fn capped(mut self, cap: Option<usize>) -> Shape {
        self.max_k = self.max_k.min(cap.unwrap_or(usize::MAX));
        self
    }

    fn bucket(&self, error: f64) -> i64 {
        bucket_of(error, self.bucket_width)
    }

    /// The max-abs bound a DGreedyAbs build serves for its `estimate`. The
    /// estimate reads the cut off histograms that floor every error into
    /// a bucket of width `e_b`, so it can under-report by strictly less
    /// than one bucket; widening it by `e_b` makes it an upper bound. This
    /// is the one place that widening is written: the one-shot driver and
    /// the incremental maintainer both serve what it returns.
    pub(crate) fn abs_bound(&self, estimate: f64) -> ErrorBound {
        ErrorBound::abs(estimate + self.bucket_width)
    }
}

/// The error bucket of `error` at bucket width `width` (Algorithm 3).
pub(crate) fn bucket_of(error: f64, width: f64) -> i64 {
    (error / width).floor() as i64
}

/// What differs between the absolute and the relative metric.
pub(crate) trait ErrHistEngine: Sync {
    /// What level 2 reports per candidate.
    type Out: Send;

    /// The jobs are `{PREFIX}-averages`, `-errhist` and `-synopsis`.
    const PREFIX: &'static str;

    /// Declared working set of one [`ErrHistEngine::run`] over `leaves`
    /// values.
    fn task_memory(leaves: usize) -> u64;

    /// The greedy run over the whole root sub-tree, whose pseudo-leaves are
    /// the base sub-trees (their values the base-slice `averages`).
    fn root_trace(
        &self,
        root_coeffs: &[f64],
        averages: &[f64],
    ) -> Result<Vec<Removal>, WaveletError>;

    /// One greedy run over a base sub-tree (`details` of `slice`) entered
    /// with `incoming` error: the error the sub-tree carries before any
    /// local removal, and the removal trace. An engine whose driver knows
    /// that floor exactly reports `f64::NEG_INFINITY`.
    fn run(&self, details: &[f64], slice: &[f64], incoming: f64) -> (f64, Vec<Removal>);

    /// The reduce output of one candidate: `cut` is the bucket of the first
    /// node excluded from its keep set (`None`: everything fits), `floor`
    /// the largest floor bucket over the bases.
    fn finish(&self, cut: Option<i64>, floor: i64) -> Self::Out;

    /// The driver's reading of a candidate's reduce output, given its
    /// residual floor `ρ_k` and the bucket width: the score the pick
    /// minimizes and the bucket the synopsis stage filters at.
    fn judge(&self, out: &Self::Out, rho_k: f64, bucket_width: f64) -> (f64, i64);
}

/// Runs the job `{prefix}-averages` over `splits`; the output pairs are
/// `(base, average of its slice)`.
pub(crate) fn averages_stage<'c, T>(
    pipe: Pipeline<'c, T>,
    prefix: &str,
    splits: &[SliceSplit],
) -> Result<StagedPipeline<'c, T, u32, f64>, RuntimeError> {
    let job = JobBuilder::new(format!("{prefix}-averages"))
        .map(|split: &SliceSplit, ctx: &mut MapContext<u32, f64>| {
            ctx.charge(Kernel::Values, split.len() as u64);
            let avg = split.slice().iter().sum::<f64>() / split.len() as f64;
            ctx.emit(split.id, avg);
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(forward);
    pipe.stage(&job, splits)
}

/// genRootSets' output (Algorithm 4), broadcast to the level-1 workers.
#[derive(Debug, Clone)]
pub(crate) struct RootSets {
    pub(crate) shape: Shape,
    root_coeffs: Vec<f64>,
    /// Root-sub-tree removal order (`L_root`): candidate `k` retains its
    /// last `k` nodes.
    removal_order: Vec<usize>,
    /// Residual floor per candidate: the root run's error after removing
    /// `R − k` nodes, which for GreedyAbs is exactly `max_j |e_in,j|` (the
    /// root tree's pseudo-leaves *are* the base sub-tree entry points).
    rho: Vec<f64>,
}

impl RootSets {
    pub(crate) fn generate<E: ErrHistEngine>(
        shape: &Shape,
        engine: &E,
        averages: &[f64],
    ) -> Result<RootSets, CoreError> {
        let root_coeffs = shape.partition.root_coeffs_from_averages(averages);
        let trace = engine.root_trace(&root_coeffs, averages)?;
        let r = shape.partition.num_base();
        let rho = (0..=shape.max_k)
            .map(|k| match r - k {
                0 => 0.0,
                removed => trace[removed - 1].error_after,
            })
            .collect();
        Ok(RootSets {
            shape: *shape,
            root_coeffs,
            removal_order: trace.iter().map(|t| t.node as usize).collect(),
            rho,
        })
    }

    /// The residual floor `ρ_k` of candidate `k`: a lower bound on its
    /// [`ErrHistEngine::judge`] score under DGreedyAbs.
    pub(crate) fn rho(&self, k: usize) -> f64 {
        self.rho[k]
    }

    /// The signed incoming error candidate `k` sends to base sub-tree `j`.
    pub(crate) fn incoming(&self, k: usize, j: usize) -> f64 {
        let removed = &self.removal_order[..self.removal_order.len() - k];
        self.shape
            .partition
            .incoming_error(&self.root_coeffs, removed, j)
    }

    /// The candidates grouped by the bits of the (few) distinct incoming
    /// errors they send to base sub-tree `j`, in first-seen order so the
    /// order is the same on every run; each group's `k` ascend.
    pub(crate) fn groups(&self, j: usize) -> Vec<(f64, Vec<u32>)> {
        let mut groups: Vec<(f64, Vec<u32>)> = Vec::new();
        for k in 0..=self.shape.max_k {
            let e = self.incoming(k, j);
            match groups
                .iter_mut()
                .find(|(seen, _)| seen.to_bits() == e.to_bits())
            {
                Some((_, ks)) => ks.push(k as u32),
                None => groups.push((e, vec![k as u32])),
            }
        }
        groups
    }

    /// The synopsis of candidate `k`: its `C_root` ∪ the chosen base nodes.
    pub(crate) fn assemble(
        &self,
        k: usize,
        base_nodes: impl IntoIterator<Item = (u32, f64)>,
    ) -> Result<Synopsis, WaveletError> {
        let retained = &self.removal_order[self.removal_order.len() - k..];
        let mut entries: Vec<(u32, f64)> = retained
            .iter()
            .map(|&a| (a as u32, self.root_coeffs[a]))
            .collect();
        entries.extend(base_nodes);
        Synopsis::from_entries(self.shape.partition.n(), entries)
    }
}

/// One histogram on the wire: the candidates of one incoming-error group
/// that the receiving reducer owns, the group's floor bucket and its
/// `(bucket, count)` batches. Which base it came from does not matter — a
/// candidate's cut is a function of the multiset of its histograms.
type HistRecord = (Vec<u32>, i64, Vec<(i64, u32)>);

/// The level-2 reducer that owns candidate `k` of `candidates`.
fn block_of(k: usize, candidates: usize, reducers: usize) -> usize {
    k * reducers / candidates
}

/// Runs the errhist job over `splits` (one per base sub-tree); the output
/// pairs are `(k, E::Out)` in ascending `k`.
pub(crate) fn errhist_stage<'c, T, E: ErrHistEngine>(
    pipe: Pipeline<'c, T>,
    splits: &[SliceSplit],
    roots: &RootSets,
    engine: &E,
) -> Result<StagedPipeline<'c, T, u32, E::Out>, RuntimeError> {
    let job = JobBuilder::new(format!("{}-errhist", E::PREFIX))
        .map(
            |split: &SliceSplit, ctx: &mut MapContext<u32, HistRecord>| {
                emit_histograms(roots, engine, split, ctx);
            },
        )
        .input_bytes(SliceSplit::bytes)
        .task_memory(|s: &SliceSplit| E::task_memory(s.len()))
        .reducers(roots.shape.reducers)
        .partition_by(|block: &u32, _parts| *block as usize)
        .reduce(|block: &u32, vals, ctx: &mut ReduceContext<u32, E::Out>| {
            combine_block(&roots.shape, engine, *block as usize, vals, ctx);
        });
    pipe.stage(&job, splits)
}

/// Level 1 for one base sub-tree: one engine run per distinct incoming
/// error, its histogram emitted once per reducer block that owns any of
/// the group's candidates.
fn emit_histograms<E: ErrHistEngine>(
    roots: &RootSets,
    engine: &E,
    split: &SliceSplit,
    ctx: &mut MapContext<u32, HistRecord>,
) {
    let shape = &roots.shape;
    let (details, _avg) = shape.partition.base_details_from_data(split.slice());
    let groups = roots.groups(split.id as usize);
    ctx.add_counter("distinct_incoming_errors", groups.len() as u64);
    // One transform, then one greedy run to empty per group.
    ctx.charge(Kernel::Values, split.len() as u64);
    ctx.charge(
        Kernel::GreedyDiscards,
        (groups.len() * details.len()) as u64,
    );
    let block = |k: u32| block_of(k as usize, shape.max_k + 1, shape.reducers);
    for (e, ks) in groups {
        let (floor, trace) = engine.run(&details, split.slice(), e);
        ctx.add_counter("greedy_runs", 1);
        let batches = histogram_batches(&trace, shape.bucket_width);
        // `ks` ascends, so each block's share of it is one chunk.
        for owned in ks.chunk_by(|&a, &b| block(a) == block(b)) {
            ctx.add_counter("histogram_entries", batches.len() as u64);
            ctx.emit(
                block(owned[0]) as u32,
                (owned.to_vec(), shape.bucket(floor), batches.clone()),
            );
        }
    }
}

/// Batches a removal trace into `(running-max bucket, count)` histogram
/// entries (Algorithm 3's `discardNode`, histogram form).
pub(crate) fn histogram_batches(trace: &[Removal], bucket_width: f64) -> Vec<(i64, u32)> {
    let mut out: Vec<(i64, u32)> = Vec::new();
    let mut max_bucket = i64::MIN;
    for r in trace {
        max_bucket = max_bucket.max(bucket_of(r.error_after, bucket_width));
        match out.last_mut() {
            Some((bucket, count)) if *bucket == max_bucket => *count += 1,
            _ => out.push((max_bucket, 1)),
        }
    }
    out
}

/// `combineResults` (Algorithm 5) for one block of candidates: per owned
/// candidate, the cut over the `R` histograms that serve it — one per base
/// sub-tree — and the largest floor among them.
fn combine_block<E: ErrHistEngine>(
    shape: &Shape,
    engine: &E,
    block: usize,
    records: impl Iterator<Item = HistRecord>,
    ctx: &mut ReduceContext<u32, E::Out>,
) {
    let records: Vec<_> = records
        .map(|(ks, floor, batches)| (ks, floor, at_or_above(&batches)))
        .collect();
    let candidates = shape.max_k + 1;
    for k in (0..candidates).filter(|&k| block_of(k, candidates, shape.reducers) == block) {
        let serving = || records.iter().filter(|(ks, ..)| ks.contains(&(k as u32)));
        let histograms: Vec<&[(i64, u64)]> = serving().map(|(.., h)| h.as_slice()).collect();
        assert_eq!(
            histograms.len(),
            shape.partition.num_base(),
            "every base sub-tree serves every candidate once"
        );
        let cut = select_cut(&histograms, (shape.budget - k) as u64);
        let floor = serving().map(|&(_, floor, _)| floor).max();
        ctx.emit(k as u32, engine.finish(cut, floor.unwrap_or(i64::MIN)));
    }
}

/// Turns `(bucket, count)` batches — strictly ascending in bucket, as
/// [`histogram_batches`] builds them — into `(bucket, nodes at or above
/// this bucket)`.
pub(crate) fn at_or_above(batches: &[(i64, u32)]) -> Vec<(i64, u64)> {
    let mut out: Vec<(i64, u64)> = batches.iter().map(|&(b, c)| (b, u64::from(c))).collect();
    let mut above = 0u64;
    for entry in out.iter_mut().rev() {
        above += entry.1;
        entry.1 = above;
    }
    out
}

/// The bucket of the first node excluded when the `keep` nodes of largest
/// bucket over all `histograms` are kept: the largest `x` with more than
/// `keep` nodes at or above it, `None` when everything fits. A descending
/// scan of the gathered entries stops at the same bucket — entries of
/// equal bucket cannot change where its running sum first exceeds `keep`.
pub(crate) fn select_cut(histograms: &[&[(i64, u64)]], keep: u64) -> Option<i64> {
    let nodes_at_or_above = |x: i64| -> u64 {
        histograms
            .iter()
            .map(|h| h.get(h.partition_point(|&(b, _)| b < x)).map_or(0, |e| e.1))
            .sum()
    };
    let mut lo = histograms
        .iter()
        .filter_map(|h| h.first())
        .map(|e| e.0)
        .min()?;
    let mut hi = histograms
        .iter()
        .filter_map(|h| h.last())
        .map(|e| e.0)
        .max()?;
    if nodes_at_or_above(lo) <= keep {
        return None;
    }
    // More than `keep` nodes at or above `lo`, at most `keep` above `hi`.
    while lo < hi {
        // Buckets saturate at i64::MIN / MAX, so `lo + hi` can overflow.
        let mid = (i128::from(lo) + i128::from(hi) + 1).div_euclid(2) as i64;
        if nodes_at_or_above(mid) > keep {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// The winning candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick {
    /// `|C_root|`.
    pub(crate) k: usize,
    /// Its score under [`ErrHistEngine::judge`].
    pub(crate) score: f64,
    /// The bucket of the first node its keep set excludes.
    pub(crate) cut_bucket: i64,
}

/// The candidate of smallest score; equal scores pick the smaller `k`, so
/// the winner does not depend on the order the reducers' outputs arrive in.
pub(crate) fn pick<E: ErrHistEngine>(
    engine: &E,
    roots: &RootSets,
    outs: impl IntoIterator<Item = (u32, E::Out)>,
) -> Result<Pick, CoreError> {
    let judged = outs.into_iter().map(|(k, out)| {
        let k = k as usize;
        let (score, cut_bucket) = engine.judge(&out, roots.rho(k), roots.shape.bucket_width);
        Pick {
            k,
            score,
            cut_bucket,
        }
    });
    judged
        .filter(|c| c.score.is_finite())
        .min_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(Ordering::Equal)
                .then(a.k.cmp(&b.k))
        })
        .ok_or(CoreError::Protocol("no candidate produced a cut"))
}

/// One removal of a synopsis-stage run: `(running-max bucket, removal
/// index, global node, coefficient)`.
pub(crate) type Removed = (i64, u32, u32, f64);

/// Only nodes at or above the winning cut (minus one bucket of slack) can
/// be kept.
pub(crate) fn survives(bucket: i64, cut_bucket: i64) -> bool {
    bucket >= cut_bucket.saturating_sub(1)
}

/// The synopsis stage's map body: reruns the engine over the base sub-tree
/// of `split` (its `details`) entered with `incoming` error; the removals
/// that [`survives`] lets through at `cut_bucket` — all of them at
/// `i64::MIN` — in removal order.
pub(crate) fn removals<'a, E: ErrHistEngine>(
    shape: &'a Shape,
    engine: &E,
    details: &'a [f64],
    split: &SliceSplit,
    incoming: f64,
    cut_bucket: i64,
) -> impl Iterator<Item = Removed> + 'a {
    let (_floor, trace) = engine.run(details, split.slice(), incoming);
    let base = split.id as usize;
    let mut max_bucket = i64::MIN;
    trace.into_iter().enumerate().filter_map(move |(idx, rem)| {
        max_bucket = max_bucket.max(shape.bucket(rem.error_after));
        survives(max_bucket, cut_bucket).then(|| {
            let local = rem.node as usize;
            let global = shape.partition.local_to_global(base, local);
            (max_bucket, idx as u32, global as u32, details[local - 1])
        })
    })
}

/// The synopsis stage's reduce body: the `keep` most important of `nodes`
/// — later batches, later removals first.
pub(crate) fn keep_top(mut nodes: Vec<Removed>, keep: usize) -> impl Iterator<Item = (u32, f64)> {
    nodes.sort_unstable_by_key(|&(bucket, idx, _, _)| std::cmp::Reverse((bucket, idx)));
    nodes
        .into_iter()
        .take(keep)
        .map(|(_, _, node, coeff)| (node, coeff))
}

/// Runs the synopsis job for the winner `best`; the output pairs are the
/// chosen base nodes.
fn synopsis_stage<'c, T, E: ErrHistEngine>(
    pipe: Pipeline<'c, T>,
    splits: &[SliceSplit],
    roots: &RootSets,
    engine: &E,
    best: Pick,
) -> Result<StagedPipeline<'c, T, u32, f64>, RuntimeError> {
    let keep = roots.shape.budget - best.k;
    let job = JobBuilder::new(format!("{}-synopsis", E::PREFIX))
        .map(|split: &SliceSplit, ctx: &mut MapContext<u8, Removed>| {
            let shape = &roots.shape;
            let (details, _avg) = shape.partition.base_details_from_data(split.slice());
            ctx.charge(Kernel::Values, split.len() as u64);
            ctx.charge(Kernel::GreedyDiscards, details.len() as u64);
            let incoming = roots.incoming(best.k, split.id as usize);
            for removed in removals(shape, engine, &details, split, incoming, best.cut_bucket) {
                ctx.emit(0, removed);
            }
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(move |_k: &u8, vals, ctx: &mut ReduceContext<u32, f64>| {
            for (node, coeff) in keep_top(vals.collect(), keep) {
                ctx.emit(node, coeff);
            }
        });
    pipe.stage(&job, splits)
}

/// Algorithm 6 up to the synopsis job's output: the pipeline carries the
/// winner and its chosen base nodes, to be joined by [`RootSets::assemble`].
pub(crate) fn build<'c, E: ErrHistEngine>(
    cluster: &'c Cluster,
    splits: &[SliceSplit],
    shape: &Shape,
    engine: &E,
) -> Result<(StagedPipeline<'c, Pick, u32, f64>, RootSets), CoreError> {
    let pipe =
        averages_stage(Pipeline::on(cluster), E::PREFIX, splits)?.try_then(|((), pairs)| {
            let averages = shape.partition.finite_averages(pairs)?;
            RootSets::generate(shape, engine, &averages)
        })?;
    let roots = pipe.value().clone();
    let pipe = errhist_stage(pipe, splits, &roots, engine)?
        .try_then(|(_, outs)| pick(engine, &roots, outs))?;
    let best = *pipe.value();
    Ok((synopsis_stage(pipe, splits, &roots, engine, best)?, roots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgreedy_abs::AbsEngine;
    use crate::dgreedy_rel::RelEngine;
    use proptest::prelude::*;

    /// The oracle, and the definition [`select_cut`] is checked against:
    /// `combineResults` as Algorithm 5 states it — gather every entry of
    /// the candidate, sort descending, scan to the cut. No driver runs it.
    /// `count == 0` entries are DGreedyRel's floors. Returns DGreedyAbs's
    /// and DGreedyRel's reduce outputs.
    fn gather_and_sort(entries: &[(i64, u32)], keep: u64) -> (f64, (f64, f64)) {
        let mut batches = entries.to_vec();
        batches.sort_unstable_by_key(|&(bucket, _)| std::cmp::Reverse(bucket));

        let mut cum = 0u64;
        let mut abs_cut = 0.0f64;
        for &(bucket, count) in batches.iter().filter(|&&(_, count)| count > 0) {
            if cum + u64::from(count) > keep {
                abs_cut = bucket as f64;
                break;
            }
            cum += u64::from(count);
        }

        let mut cum = 0u64;
        let mut cut = f64::MIN;
        let mut floor = f64::MIN;
        for (bucket, count) in batches {
            if count == 0 {
                floor = floor.max(bucket as f64);
                continue;
            }
            if cut == f64::MIN && cum + u64::from(count) > keep {
                cut = bucket as f64;
            }
            cum += u64::from(count);
        }
        (abs_cut, (cut, cut.max(floor).max(0.0)))
    }

    /// Buckets from a pool where the saturation values of `bucket_of`,
    /// their neighbours and repeats across histograms are all likely.
    fn bucket(pick: u64, raw: u64) -> i64 {
        match pick % 8 {
            0 => i64::MIN,
            1 => i64::MIN + 1,
            2 => i64::MAX - 1,
            3 => i64::MAX,
            4..=6 => (raw % 9) as i64 - 4,
            _ => raw as i64,
        }
    }

    fn count(pick: u64, raw: u64) -> u32 {
        match pick % 4 {
            0 => u32::MAX,
            1 => (raw as u32).max(1),
            _ => 1 + (raw % 3) as u32,
        }
    }

    /// `(floor bucket, strictly ascending batches)`.
    fn histogram() -> impl Strategy<Value = (i64, Vec<(i64, u32)>)> {
        let entry = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(bp, br, cp, cr)| (bucket(bp, br), count(cp, cr)));
        (
            (any::<u64>(), any::<u64>()),
            prop::collection::vec(entry, 0..=40),
        )
            .prop_map(|((fp, fr), mut batches)| {
                batches.sort_unstable_by_key(|&(b, _)| b);
                batches.dedup_by_key(|&mut (b, _)| b);
                (bucket(fp, fr), batches)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn selection_equals_gather_and_sort(
            set in prop::collection::vec(histogram(), 1..=9),
            keep_pick in 0u64..5,
            keep_raw in any::<u64>(),
        ) {
            let total: u64 = set
                .iter()
                .flat_map(|(_, batches)| batches)
                .map(|&(_, c)| u64::from(c))
                .sum();
            let keep = match keep_pick {
                0 => 0,
                1 => total.saturating_sub(1),
                2 => total,
                3 => total + 1,
                _ => keep_raw % (total + 2),
            };

            let suffixed: Vec<Vec<(i64, u64)>> =
                set.iter().map(|(_, batches)| at_or_above(batches)).collect();
            let views: Vec<&[(i64, u64)]> = suffixed.iter().map(Vec::as_slice).collect();
            let cut = select_cut(&views, keep);
            let floor = set.iter().map(|&(floor, _)| floor).max().expect("1..=9 histograms");

            let counted: Vec<(i64, u32)> =
                set.iter().flat_map(|(_, batches)| batches.iter().copied()).collect();
            let mut with_floors = counted.clone();
            with_floors.extend(set.iter().map(|&(floor, _)| (floor, 0)));
            let (abs, _) = gather_and_sort(&counted, keep);
            let (_, rel) = gather_and_sort(&with_floors, keep);

            prop_assert_eq!(AbsEngine.finish(cut, floor).to_bits(), abs.to_bits());
            let got = RelEngine { sanity: 1.0 }.finish(cut, floor);
            prop_assert_eq!((got.0.to_bits(), got.1.to_bits()), (rel.0.to_bits(), rel.1.to_bits()));
        }

        // Fewer histograms can only lower the cut (`None` below every
        // bucket): the incremental maintainer's `L ≤ U`.
        #[test]
        fn selection_over_a_subset_never_exceeds_the_full_set(
            set in prop::collection::vec(histogram(), 1..=9),
            chosen in any::<u64>(),
            keep in 0u64..64,
        ) {
            let suffixed: Vec<Vec<(i64, u64)>> =
                set.iter().map(|(_, batches)| at_or_above(batches)).collect();
            let full: Vec<&[(i64, u64)]> = suffixed.iter().map(Vec::as_slice).collect();
            let subset: Vec<&[(i64, u64)]> = full
                .iter()
                .enumerate()
                .filter(|&(i, _)| chosen >> i & 1 == 1)
                .map(|(_, h)| *h)
                .collect();
            prop_assert!(select_cut(&subset, keep) <= select_cut(&full, keep));
        }
    }

    #[test]
    fn blocks_are_contiguous_and_cover_every_reducer_count() {
        for candidates in [1usize, 2, 33, 65] {
            for reducers in [1usize, 2, 4, 7, 33, 100] {
                let blocks: Vec<usize> = (0..candidates)
                    .map(|k| block_of(k, candidates, reducers))
                    .collect();
                assert!(blocks.windows(2).all(|w| w[0] <= w[1]));
                assert!(blocks.iter().all(|&p| p < reducers));
            }
        }
    }
}
