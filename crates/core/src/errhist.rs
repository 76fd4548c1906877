//! The errhist stage of DGreedyAbs and DGreedyRel — Algorithm 3 at level 1,
//! `combineResults` (Algorithm 5) at level 2 — written once. A driver
//! plugs its greedy engine in through [`ErrHistEngine`]; grouping, block
//! ownership, emission and the cut live here.
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

use dwmaxerr_algos::Removal;
use dwmaxerr_runtime::pipeline::StagedPipeline;
use dwmaxerr_runtime::{JobBuilder, MapContext, Pipeline, ReduceContext, RuntimeError};

use crate::dgreedy_abs::{histogram_batches, Broadcast};
use crate::splits::SliceSplit;

/// What differs between the two drivers' errhist stages.
pub(crate) trait ErrHistEngine: Sync {
    /// What level 2 reports per candidate.
    type Out: Send;

    /// The job's name.
    const JOB: &'static str;

    /// Declared working set of one [`ErrHistEngine::run`] over `leaves`
    /// values.
    fn task_memory(leaves: usize) -> u64;

    /// One greedy run over a base sub-tree (`details` of `slice`) entered
    /// with `incoming` error: the error the sub-tree carries before any
    /// local removal, and the removal trace. An engine whose driver knows
    /// that floor exactly reports `f64::NEG_INFINITY`.
    fn run(&self, details: &[f64], slice: &[f64], incoming: f64) -> (f64, Vec<Removal>);

    /// The reduce output of one candidate: `cut` is the bucket of the first
    /// node excluded from its keep set (`None`: everything fits), `floor`
    /// the largest floor bucket over the bases.
    fn finish(&self, cut: Option<i64>, floor: i64) -> Self::Out;
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
    bc: &Broadcast,
    engine: &E,
) -> Result<StagedPipeline<'c, T, u32, E::Out>, RuntimeError> {
    let job = JobBuilder::new(E::JOB)
        .map(
            |split: &SliceSplit, ctx: &mut MapContext<u32, HistRecord>| {
                emit_histograms(bc, engine, split, ctx);
            },
        )
        .input_bytes(SliceSplit::bytes)
        .task_memory(|s: &SliceSplit| E::task_memory(s.len()))
        .reducers(bc.reducers)
        .partition_by(|block: &u32, _parts| *block as usize)
        .reduce(|block: &u32, vals, ctx: &mut ReduceContext<u32, E::Out>| {
            combine_block(bc, engine, *block as usize, vals, ctx);
        });
    pipe.stage(&job, splits)
}

/// Level 1 for one base sub-tree: one engine run per distinct incoming
/// error, its histogram emitted once per reducer block that owns any of
/// the group's candidates.
fn emit_histograms<E: ErrHistEngine>(
    bc: &Broadcast,
    engine: &E,
    split: &SliceSplit,
    ctx: &mut MapContext<u32, HistRecord>,
) {
    let (details, _avg) = bc.partition.base_details_from_data(split.slice());
    let j = split.id as usize;
    // Group the candidates by their (few) distinct incoming errors, in
    // first-seen order so the emission order is the same on every run.
    let mut groups: Vec<(f64, Vec<u32>)> = Vec::new();
    for k in 0..=bc.max_k {
        let e = bc
            .partition
            .incoming_error(&bc.root_coeffs, bc.removed_under(k), j);
        match groups
            .iter_mut()
            .find(|(seen, _)| seen.to_bits() == e.to_bits())
        {
            Some((_, ks)) => ks.push(k as u32),
            None => groups.push((e, vec![k as u32])),
        }
    }
    ctx.add_counter("distinct_incoming_errors", groups.len() as u64);
    let block = |k: u32| block_of(k as usize, bc.max_k + 1, bc.reducers);
    for (e, ks) in groups {
        let (floor, trace) = engine.run(&details, split.slice(), e);
        ctx.add_counter("greedy_runs", 1);
        let batches = histogram_batches(&trace, bc.bucket_width);
        // `ks` ascends, so each block's share of it is one chunk.
        for owned in ks.chunk_by(|&a, &b| block(a) == block(b)) {
            ctx.add_counter("histogram_entries", batches.len() as u64);
            ctx.emit(
                block(owned[0]) as u32,
                (owned.to_vec(), bc.bucket(floor), batches.clone()),
            );
        }
    }
}

/// `combineResults` (Algorithm 5) for one block of candidates: per owned
/// candidate, the cut over the `R` histograms that serve it — one per base
/// sub-tree — and the largest floor among them.
fn combine_block<E: ErrHistEngine>(
    bc: &Broadcast,
    engine: &E,
    block: usize,
    records: impl Iterator<Item = HistRecord>,
    ctx: &mut ReduceContext<u32, E::Out>,
) {
    let records: Vec<_> = records
        .map(|(ks, floor, batches)| (ks, floor, at_or_above(&batches)))
        .collect();
    let candidates = bc.max_k + 1;
    for k in (0..candidates).filter(|&k| block_of(k, candidates, bc.reducers) == block) {
        let serving = || records.iter().filter(|(ks, ..)| ks.contains(&(k as u32)));
        let histograms: Vec<&[(i64, u64)]> = serving().map(|(.., h)| h.as_slice()).collect();
        assert_eq!(
            histograms.len(),
            bc.partition.num_base(),
            "every base sub-tree serves every candidate once"
        );
        let cut = select_cut(&histograms, (bc.budget - k) as u64);
        let floor = serving().map(|&(_, floor, _)| floor).max();
        ctx.emit(k as u32, engine.finish(cut, floor.unwrap_or(i64::MIN)));
    }
}

/// Turns `(bucket, count)` batches — strictly ascending in bucket, as
/// [`histogram_batches`] builds them — into `(bucket, nodes at or above
/// this bucket)`.
fn at_or_above(batches: &[(i64, u32)]) -> Vec<(i64, u64)> {
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
fn select_cut(histograms: &[&[(i64, u64)]], keep: u64) -> Option<i64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgreedy_abs::AbsEngine;
    use crate::dgreedy_rel::RelEngine;
    use proptest::prelude::*;

    /// The oracle: the level-2 reducer bodies this module replaced, which
    /// `progressive.rs`'s replay still runs — gather every entry of the
    /// candidate, sort descending, scan to the cut. `count == 0` entries
    /// are DGreedyRel's floors. Returns DGreedyAbs's and DGreedyRel's
    /// reduce outputs.
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
