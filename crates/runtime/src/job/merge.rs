//! Merge phase: the reduce-side k-way merge over sorted runs (a loser
//! tree), the `io.sort.factor` intermediate passes the clock prices, and
//! the cut of a reducer's runs into key ranges.

use crate::codec::{sum_widths, Wire};

/// The bytes of one `(K, V)` record when every record of `runs` has them:
/// both widths known and not zero, and every run a whole number of records.
/// `None` sends the merge down the decode-every-record path — which is also
/// where a run cut mid-record raises the decode-error flag, as it always did.
fn record_width<K: Wire, V: Wire>(runs: &[&[u8]]) -> Option<usize> {
    sum_widths(K::WIDTH, V::WIDTH).filter(|&w| w > 0 && runs.iter().all(|run| run.len() % w == 0))
}

/// The key of record `j` of a run of `width`-byte records, decoded from
/// that record's bytes alone.
fn key_at<K: Wire>(run: &[u8], width: usize, j: usize) -> Option<K> {
    K::decode(&mut &run[j * width..(j + 1) * width]).ok()
}

/// The first index of `lo..hi` at which `holds` fails, for a predicate that
/// holds on a prefix of the range (bisection).
fn first_failing(mut lo: usize, mut hi: usize, holds: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A streaming cursor over one sorted run.
struct RunCursor<'a, K, V> {
    /// The run from its head record on.
    rest: &'a [u8],
    /// The head record, decoded — `None` once the run is exhausted or
    /// failed to decode — and its length in bytes.
    head: Option<(K, V)>,
    head_len: usize,
}

impl<K: Wire, V: Wire> RunCursor<'_, K, V> {
    /// Drops the first `n` bytes of the run (its head record) and decodes
    /// the record behind them into `head`. With a record `width` the record is decoded from exactly
    /// that many bytes and must use all of them. Returns false on a decode
    /// error, after which the run is treated as exhausted.
    #[inline(always)]
    fn advance(&mut self, n: usize, width: Option<usize>) -> bool {
        self.rest = &self.rest[n..];
        self.head = None;
        if self.rest.is_empty() {
            return true;
        }
        let mut record = match width {
            Some(w) => &self.rest[..w.min(self.rest.len())],
            None => self.rest,
        };
        let available = record.len();
        if let (Ok(k), Ok(v)) = (K::decode(&mut record), V::decode(&mut record)) {
            let used = available - record.len();
            if width.is_none_or(|w| w == used) {
                self.head = Some((k, v));
                self.head_len = used;
                return true;
            }
        }
        self.rest = &[];
        false
    }
}

/// `true` when run `a` beats run `b` in the merge tournament.
///
/// Live runs order by `(head key, run index)`: runs are numbered in
/// map-task order, so equal keys drain lowest-run-first — combined with
/// each run's internal emission order this reproduces the concatenate +
/// stable-sort order of [`crate::reference::shuffle_reduce`] exactly. An
/// exhausted run loses to every live run, and two exhausted runs order by
/// index, keeping the relation a total order so tree replays stay
/// consistent as runs drain.
fn run_beats<K: Ord, V>(cursors: &[RunCursor<'_, K, V>], a: u32, b: u32) -> bool {
    match (&cursors[a as usize].head, &cursors[b as usize].head) {
        (Some((ka, _)), Some((kb, _))) => ka.cmp(kb).then(a.cmp(&b)).is_lt(),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

/// Streaming k-way merge over pre-sorted runs. Nothing is buffered beyond
/// one decoded head record per run; [`KWayMerge::for_each_group`] hands
/// the records out one key group at a time.
///
/// Ordering is maintained by a *loser tree* (tournament tree, the classic
/// Hadoop/DB merge structure): each internal node stores the run that lost
/// the match played there, and the overall winner is kept aside. Taking
/// from the winner replays at most one leaf-to-root path — one comparison
/// per level, ⌈log₂ k⌉ total — and none while the winner's new head still
/// beats the runner-up ([`KWayMerge::pop`]). Exhausted runs stay in the
/// tree as automatic losers instead of being removed, so the structure
/// never reshapes. The merge drains strictly by `(head key, run index)`, a
/// total order over the live heads: its output is every run's records
/// tagged with the run's index, concatenated and stably sorted by key (the
/// test module checks it against exactly that).
pub(super) struct KWayMerge<'a, K, V> {
    cursors: Vec<RunCursor<'a, K, V>>,
    /// `tree[n]` is the run that lost the match at internal node `n`
    /// (nodes `1..k`; index 0 is unused). Leaf `i` sits at conceptual
    /// position `k + i`, so its first match plays at node `(k + i) / 2`.
    tree: Vec<u32>,
    /// Tournament winner: the run whose head is the merge's next record.
    /// `u32::MAX` when the merge was built over zero runs.
    winner: u32,
    /// The winner's runner-up ([`KWayMerge::runner_up`]), cached until the
    /// next replay: no other run's head moves while the winner keeps
    /// winning.
    rival: Option<u32>,
    /// The last replay crowned the run it replayed: the winner has won
    /// twice in a row, so its runner-up is worth computing.
    repeat: bool,
    /// Bytes per record when every run is fixed-width ([`record_width`]).
    width: Option<usize>,
    /// A run failed to decode; the job fails with a codec error once the
    /// reduce phase completes.
    pub(super) decode_error: bool,
    /// Tree replays so far.
    #[cfg(test)]
    replays: usize,
    /// Runner-up computations so far.
    #[cfg(test)]
    runner_ups: usize,
}

impl<'a, K: Wire + Ord, V: Wire> KWayMerge<'a, K, V> {
    pub(super) fn new(runs: &[&'a [u8]]) -> Self {
        let width = record_width::<K, V>(runs);
        let mut decode_error = false;
        let cursors: Vec<RunCursor<'a, K, V>> = runs
            .iter()
            .map(|&run| {
                let mut cursor = RunCursor {
                    rest: run,
                    head: None,
                    head_len: 0,
                };
                decode_error |= !cursor.advance(0, width);
                cursor
            })
            .collect();
        let k = cursors.len();
        let mut merge = KWayMerge {
            cursors,
            tree: vec![u32::MAX; k],
            winner: u32::MAX,
            rival: None,
            repeat: false,
            width,
            decode_error,
            #[cfg(test)]
            replays: 0,
            #[cfg(test)]
            runner_ups: 0,
        };
        // Build by successive insertion: each run climbs from its leaf
        // toward the root, resting at the first empty node it meets or
        // playing the match stored there (loser stays, winner climbs).
        // After k runs, k-1 matches have been played, every internal node
        // holds the loser of the match between its two subtree winners,
        // and the last climber to reach the root is the overall winner.
        for i in 0..k as u32 {
            let mut cand = i;
            let mut node = (k + i as usize) / 2;
            loop {
                if node == 0 {
                    merge.winner = cand;
                    break;
                }
                let stored = merge.tree[node];
                if stored == u32::MAX {
                    merge.tree[node] = cand;
                    break;
                }
                if run_beats(&merge.cursors, stored, cand) {
                    merge.tree[node] = cand;
                    cand = stored;
                }
                node /= 2;
            }
        }
        merge
    }

    /// Replays run `w`'s leaf-to-root path after its head changed,
    /// crowning the next winner. Out of line, like [`KWayMerge::runner_up`],
    /// so that `pop` stays small enough to inline into the group loop (see
    /// `pop`).
    #[inline(never)]
    fn replay(&mut self, w: u32) {
        #[cfg(test)]
        {
            self.replays += 1;
        }
        let k = self.cursors.len();
        let mut cand = w;
        let mut node = (k + w as usize) / 2;
        while node > 0 {
            let stored = self.tree[node];
            if run_beats(&self.cursors, stored, cand) {
                self.tree[node] = cand;
                cand = stored;
            }
            node /= 2;
        }
        self.winner = cand;
        self.rival = None;
        self.repeat = cand == w;
    }

    /// The best loser on run `w`'s leaf-to-root path: the run whose head
    /// would win were `w` gone (every other run lost to it or to `w` on
    /// the way up).
    #[inline(never)]
    fn runner_up(&self, w: u32) -> Option<u32> {
        let mut node = (self.cursors.len() + w as usize) / 2;
        let mut best: Option<u32> = None;
        while node > 0 {
            let stored = self.tree[node];
            if best.is_none_or(|b| run_beats(&self.cursors, stored, b)) {
                best = Some(stored);
            }
            node /= 2;
        }
        best
    }

    /// The next record in merged key order: takes the winner's head,
    /// advances its run, and keeps the winner without a replay while its
    /// new head still wins — when the head carries an equal key (it beat
    /// every other run under `(key, run index)` and still has the same
    /// `(key, run index)`), or when it beats the runner-up, the best loser
    /// on its path: then it beats every loser there, and every match on
    /// the path comes out as before. The runner-up is only computed once
    /// the same run has won twice in a row, so runs that interleave record
    /// by record pay one replay per record and nothing more. An exhausted
    /// run or a decode error leaves no head and replays.
    ///
    /// `pop`, `peek_is` and `RunCursor::advance` are forced inline and the
    /// tree walks kept out of line: left to the compiler, the inlining
    /// into the group loop varied with unrelated code, and Send-Coef's
    /// final merge over 128 runs (8.4 M pops, one core of a 2-vCPU host)
    /// read at best 128–150 ms where forcing reads 97 ms (EXPERIMENTS.md,
    /// "One streaming merge per reducer").
    #[inline(always)]
    fn pop(&mut self) -> Option<(K, V)> {
        let w = self.winner;
        if w == u32::MAX {
            return None;
        }
        let cursor = &mut self.cursors[w as usize];
        let pair = cursor.head.take()?;
        if !cursor.advance(cursor.head_len, self.width) {
            self.decode_error = true;
        }
        let keeps = match &cursor.head {
            Some((next, _)) if next.cmp(&pair.0).is_eq() => true,
            Some(_) => {
                if self.rival.is_none() && self.repeat {
                    self.rival = self.runner_up(w);
                    #[cfg(test)]
                    {
                        self.runner_ups += 1;
                    }
                }
                self.rival.is_some_and(|r| run_beats(&self.cursors, w, r))
            }
            None => false,
        };
        if !keeps {
            self.replay(w);
        }
        Some(pair)
    }

    /// Whether the next record (if any) carries exactly `key`.
    #[inline(always)]
    fn peek_is(&self, key: &K) -> bool {
        self.winner != u32::MAX
            && self.cursors[self.winner as usize]
                .head
                .as_ref()
                .is_some_and(|(k, _)| *k == *key)
    }

    /// The final merge: streams records in total key order and feeds each
    /// key's values to `f` as they surface, then drains whatever `f` left
    /// unconsumed so the next group starts at the next key.
    pub(super) fn for_each_group(&mut self, mut f: impl FnMut(&K, &mut dyn Iterator<Item = V>)) {
        while let Some((key, first)) = self.pop() {
            f(
                &key,
                &mut GroupValues {
                    key: &key,
                    first: Some(first),
                    merge: self,
                },
            );
            while self.peek_is(&key) {
                let _ = self.pop();
            }
        }
    }
}

/// Streaming view of one key's values during the k-way merge: the reduce
/// function consumes values as the merge produces them, so no per-group
/// `Vec` is materialised.
struct GroupValues<'g, 'a, K, V> {
    key: &'g K,
    first: Option<V>,
    merge: &'g mut KWayMerge<'a, K, V>,
}

impl<K: Wire + Ord, V: Wire> Iterator for GroupValues<'_, '_, K, V> {
    type Item = V;
    fn next(&mut self) -> Option<V> {
        if let Some(v) = self.first.take() {
            return Some(v);
        }
        if self.merge.peek_is(self.key) {
            self.merge.pop().map(|(_, v)| v)
        } else {
            None
        }
    }
}

/// Samples per key range when [`cut_ranges`] picks its splitters.
const SAMPLES_PER_RANGE: usize = 64;

/// Cuts a reducer's runs into at most `parts` key ranges of about
/// equal size, so each range can be merged and reduced on its own. Range
/// `i` holds, from every run, the records whose keys lie between splitters
/// `i - 1` (inclusive) and `i` (exclusive): a key's records all land in one
/// range, and every run keeps its index in every range, so the ranges'
/// merges concatenated in order are the one merge over all runs. The
/// splitters are keys sampled evenly by record from the runs; each run's
/// cut points are found by bisection over its records. Returns the runs as
/// one range unless `parts > 1` and every run is fixed-width
/// ([`record_width`]).
pub(super) fn cut_ranges<'r, K: Wire + Ord, V: Wire>(
    runs: &[&'r [u8]],
    parts: usize,
) -> Vec<Vec<&'r [u8]>> {
    let Some(width) = record_width::<K, V>(runs).filter(|_| parts > 1) else {
        return vec![runs.to_vec()];
    };
    let records: Vec<usize> = runs.iter().map(|run| run.len() / width).collect();
    let total = records.iter().sum::<usize>().max(1);
    let wanted = parts * SAMPLES_PER_RANGE;
    let mut samples: Vec<K> = Vec::with_capacity(wanted + runs.len());
    for (run, &n) in runs.iter().zip(&records) {
        let take = (n * wanted).div_ceil(total).min(n);
        samples.extend((0..take).filter_map(|i| key_at(run, width, (2 * i + 1) * n / (2 * take))));
    }
    samples.sort_unstable();
    let mut splitters: Vec<&K> = match samples.len() {
        0 => Vec::new(),
        len => (1..parts).map(|i| &samples[i * len / parts]).collect(),
    };
    splitters.dedup();
    // Per run, its cut points: the first record at or past each splitter
    // (a key that fails to decode counts as past it; cuts are kept
    // monotone so the ranges still partition the run).
    let cuts: Vec<Vec<usize>> = runs
        .iter()
        .zip(&records)
        .map(|(run, &n)| {
            let mut from = 0;
            let mut cuts = vec![0];
            for s in &splitters {
                let below = |j| key_at::<K>(run, width, j).is_some_and(|k| k < **s);
                from = first_failing(from, n, below);
                cuts.push(from);
            }
            cuts.push(n);
            cuts
        })
        .collect();
    (0..=splitters.len())
        .map(|i| {
            runs.iter()
                .zip(&cuts)
                .map(|(run, c)| &run[c[i] * width..c[i + 1] * width])
                .collect()
        })
        .collect()
}

/// The intermediate merge passes (Hadoop's `io.sort.factor`) a reducer
/// over runs of `lens` bytes is priced for: while more runs remain than the
/// final merge may fan in, *contiguous* groups of up to `sort_factor` runs
/// each become one run, and a singleton tail group passes through
/// unmerged. Returns `(fan_in, bytes)` per pass, in round and group order;
/// `sort_factor` is at least 2 (`ClusterConfig::validate`).
///
/// The passes are only priced, never performed: contiguous groups keep the
/// global `(key, run index)` tie order, so the final merge over every
/// fetched run emits exactly what the passes' merged runs would, and the
/// engine holds every fetched run whole anyway — the fan-in a Hadoop
/// reducer bounds by open segments costs nothing here.
pub(super) fn merge_to_fan_in(mut lens: Vec<u64>, sort_factor: usize) -> Vec<(u64, u64)> {
    let mut passes = Vec::new();
    while lens.len() > sort_factor {
        lens = lens
            .chunks(sort_factor)
            .map(|group| {
                let bytes = group.iter().sum();
                if group.len() > 1 {
                    passes.push((group.len() as u64, bytes));
                }
                bytes
            })
            .collect();
    }
    passes
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    use super::*;
    use crate::codec::{CodecError, WireSink};
    use crate::executor::Executor;
    use crate::job::reduce::{reduce_ranges, ReduceContext};
    use crate::metrics::TaskCost;

    /// One record as the definition sees it: key, run index, value.
    type Record<K, V> = (K, usize, V);

    /// The merge by definition: each run decoded record by record up to
    /// its end or its first record that does not decode, every record
    /// tagged with its run's index, the runs concatenated in order and
    /// stably sorted by key. Also whether some run stopped early.
    fn definition<K: Wire + Ord, V: Wire>(runs: &[Vec<u8>]) -> (Vec<Record<K, V>>, bool) {
        let mut records = Vec::new();
        let mut failed = false;
        for (run, bytes) in runs.iter().enumerate() {
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (Ok(key), Ok(value)) = (K::decode(&mut rest), V::decode(&mut rest)) else {
                    failed = true;
                    break;
                };
                records.push((key, run, value));
            }
        }
        records.sort_by(|a, b| a.0.cmp(&b.0));
        (records, failed)
    }

    fn slices(runs: &[Vec<u8>]) -> Vec<&[u8]> {
        runs.iter().map(Vec::as_slice).collect()
    }

    /// The record-at-a-time merge pops the definition's records in order,
    /// `peek_is` agrees before each pop, and the flag is the definition's.
    fn assert_pops<K, V>(runs: &[Vec<u8>])
    where
        K: Wire + Ord + Debug,
        V: Wire + PartialEq + Debug,
    {
        let (want, failed) = definition::<K, V>(runs);
        let slices = slices(runs);
        let mut merge = KWayMerge::<K, V>::new(&slices);
        for (n, (key, _, value)) in want.iter().enumerate() {
            assert!(merge.peek_is(key), "peek_is disagrees at pop {n}");
            let (k, v) = merge.pop().expect("a record left");
            assert_eq!((&k, &v), (key, value), "pop {n} diverged");
        }
        assert!(merge.pop().is_none(), "records past the definition's");
        assert_eq!(merge.decode_error, failed, "decode flag");
    }

    /// Cut into `parts` key ranges and reduced range by range, on a serial
    /// and on a three-thread pool, the final merge emits the definition's
    /// groups in order with their values in order, sums the counters over
    /// all of them, and raises the definition's flag.
    fn assert_range_merge<K, V>(runs: &[Vec<u8>], parts: usize)
    where
        K: Wire + Ord + Clone + Debug + Send,
        V: Wire + Clone + PartialEq + Debug + Send,
    {
        let (want, failed) = definition::<K, V>(runs);
        let groups: Vec<(K, Vec<V>)> = want
            .chunk_by(|a, b| a.0 == b.0)
            .map(|g| (g[0].0.clone(), g.iter().map(|r| r.2.clone()).collect()))
            .collect();
        let mut counters = BTreeMap::new();
        if !groups.is_empty() {
            counters.insert("groups", groups.len() as u64);
            counters.insert("values", want.len() as u64);
        }
        let slices = slices(runs);
        let ranges = cut_ranges::<K, V>(&slices, parts);
        assert!(
            (1..=parts).contains(&ranges.len()),
            "{} ranges",
            ranges.len()
        );
        let reduce =
            |key: &K, values: &mut dyn Iterator<Item = V>, ctx: &mut ReduceContext<K, Vec<V>>| {
                let values: Vec<V> = values.collect();
                ctx.add_counter("groups", 1);
                ctx.add_counter("values", values.len() as u64);
                ctx.emit(key.clone(), values);
            };
        for threads in [1, 3] {
            let (out, got_counters, decode_error) = reduce_ranges(
                &Executor::new(threads),
                &ranges,
                &reduce,
                0,
                &mut TaskCost::default(),
            );
            assert_eq!(out.len(), ranges.len(), "one output per range");
            let out: Vec<(K, Vec<V>)> = out.into_iter().flatten().collect();
            assert_eq!(out, groups, "parts {parts}, threads {threads}");
            assert_eq!(got_counters, counters, "parts {parts}, threads {threads}");
            assert_eq!(decode_error, failed, "parts {parts}, threads {threads}");
        }
    }

    /// Encodes a sorted pair list as one wire run.
    fn encode_run<K: Wire, V: Wire>(pairs: &[(K, V)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in pairs {
            k.encode(&mut out);
            v.encode(&mut out);
        }
        out
    }

    /// Splitmix-style deterministic generator for the merge tests.
    fn next_rand(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let z = *state;
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 31)
    }

    /// `k` sorted runs over at most four distinct keys: massive
    /// duplication, so the `(key, run index)` tie-break carries most of
    /// the ordering, equal-key stretches cross run ends and span whole
    /// runs (alphabet 1: a run is one key), and some runs are long enough
    /// to win many records in a row. Values tag `(run, seq)` so a
    /// tie-break divergence cannot cancel out.
    fn dup_heavy_runs<V: Wire>(
        state: &mut u64,
        k: usize,
        value: impl Fn(u64, usize) -> V,
    ) -> Vec<Vec<u8>> {
        (0..k)
            .map(|run| {
                let len = match next_rand(state) % 4 {
                    0 => next_rand(state) % 200,
                    _ => next_rand(state) % 20, // empties included
                } as usize;
                let alphabet = 1 + next_rand(state) % 4;
                let first = next_rand(state) % 4;
                let mut keys: Vec<u32> = (0..len)
                    .map(|_| ((first + next_rand(state) % alphabet) % 4) as u32)
                    .collect();
                keys.sort_unstable();
                let pairs: Vec<(u32, V)> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(seq, key)| (key, value(((run as u64) << 32) | seq as u64, seq)))
                    .collect();
                encode_run(&pairs)
            })
            .collect()
    }

    /// Every check of this module on `runs`, at every range count.
    fn assert_merges<K, V>(runs: &[Vec<u8>])
    where
        K: Wire + Ord + Clone + Debug + Send,
        V: Wire + Clone + PartialEq + Debug + Send,
    {
        assert_pops::<K, V>(runs);
        for parts in [1, 2, 3, 7] {
            assert_range_merge::<K, V>(runs, parts);
        }
    }

    #[test]
    fn merges_follow_the_definition_on_dup_heavy_runs() {
        let mut state = 0x5eed_cafe_u64;
        for case in 0..300 {
            // Fan-in 0..=20; fixed-width records (16 bytes) in even cases,
            // variable-width ones in odd.
            let k = (next_rand(&mut state) % 21) as usize;
            let mut runs = if case % 2 == 0 {
                dup_heavy_runs(&mut state, k, |tag, _| tag)
            } else {
                dup_heavy_runs(&mut state, k, |tag, seq| (tag, "ab"[..seq % 3].to_string()))
            };
            let check = |runs: &[Vec<u8>]| {
                if case % 2 == 0 {
                    assert_merges::<u32, u64>(runs);
                } else {
                    assert_merges::<u32, (u64, String)>(runs);
                }
            };
            check(&runs);
            // The same runs with one of them cut mid-record — as likely as
            // not inside an equal-key stretch: the flag is raised and the
            // other runs still drain in order. A fixed-width run cut off a
            // record boundary is no longer a whole number of records, so
            // the merge decodes every record of that merge.
            let live: Vec<usize> = (0..k).filter(|&r| !runs[r].is_empty()).collect();
            if !live.is_empty() {
                let cut = live[next_rand(&mut state) as usize % live.len()];
                let at = next_rand(&mut state) as usize % runs[cut].len();
                let keep = if case % 2 == 0 { at / 12 * 12 + 5 } else { at };
                runs[cut].truncate(keep);
                check(&runs);
            }
        }
    }

    /// `k` sorted runs of distinct keys, each run over its own window of a
    /// 0..10 000 key space: windows overlap a little or a lot, so the
    /// merge sees long single-run stretches (where the winner keeps
    /// winning) beside record-by-record interleaving.
    fn clustered_runs(state: &mut u64, k: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|run| {
                let len = (next_rand(state) % 120) as usize;
                let base = next_rand(state) % 10_000;
                let span = len as u64 * (1 + next_rand(state) % 8);
                let mut keys: Vec<u32> = (0..len)
                    .map(|_| (base + next_rand(state) % span.max(1)) as u32)
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let pairs: Vec<(u32, u64)> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(seq, key)| (key, ((run as u64) << 32) | seq as u64))
                    .collect();
                encode_run(&pairs)
            })
            .collect()
    }

    /// Default `io_sort_factor` is 100, and a reducer's one merge takes
    /// every run it fetched: fan-in 101..=160, on duplicate-heavy and on
    /// clustered runs, fixed- and variable-width.
    #[test]
    fn merges_follow_the_definition_at_fan_in_above_a_hundred() {
        let mut state = 0x0b16_fa41_u64;
        for case in 0..6 {
            let k = 101 + (next_rand(&mut state) % 60) as usize;
            match case % 3 {
                0 => assert_merges::<u32, u64>(&dup_heavy_runs(&mut state, k, |tag, _| tag)),
                1 => assert_merges::<u32, (u64, String)>(&dup_heavy_runs(
                    &mut state,
                    k,
                    |tag, seq| (tag, "ab"[..seq % 3].to_string()),
                )),
                _ => assert_merges::<u32, u64>(&clustered_runs(&mut state, k)),
            }
        }
    }

    /// Pops the whole merge of `runs`; returns its replays and runner-up
    /// computations, and the definition's run switches (adjacent records
    /// from different runs) and record count.
    fn replay_counts(runs: &[Vec<u8>]) -> ((usize, usize), (usize, usize)) {
        let (want, _) = definition::<u32, u64>(runs);
        let switches = want.windows(2).filter(|w| w[0].1 != w[1].1).count();
        let slices = slices(runs);
        let mut merge = KWayMerge::<u32, u64>::new(&slices);
        while merge.pop().is_some() {}
        ((merge.replays, merge.runner_ups), (switches, want.len()))
    }

    #[test]
    fn the_winner_stays_while_it_beats_the_runner_up() {
        // Disjoint runs: run `r` holds key block `(5r + 3) mod 8` of 8, so
        // the definition drains whole runs in a shuffled run order. Each
        // stretch costs one replay that confirms the fresh winner, one
        // runner-up, and one replay where it hands over (or ends) — none
        // per record.
        let lens = [3usize, 90, 17, 4, 250, 8, 33, 61];
        let runs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(run, &len)| {
                let block = ((5 * run + 3) % 8) as u32 * 1000;
                let pairs: Vec<(u32, u64)> =
                    (0..len as u32).map(|i| (block + i, run as u64)).collect();
                encode_run(&pairs)
            })
            .collect();
        let ((replays, runner_ups), (switches, records)) = replay_counts(&runs);
        assert_eq!(records, lens.iter().sum::<usize>());
        assert_eq!(switches, lens.len() - 1);
        assert_eq!(replays, 2 * (switches + 1), "replays");
        assert_eq!(runner_ups, switches + 1, "runner-ups");
        // Runs that interleave record by record: every pop hands over, so
        // every pop replays and no runner-up is ever computed.
        for k in [2u32, 3, 16] {
            let runs: Vec<Vec<u8>> = (0..k)
                .map(|run| {
                    let pairs: Vec<(u32, u64)> =
                        (0..50).map(|i| (i * k + run, u64::from(run))).collect();
                    encode_run(&pairs)
                })
                .collect();
            let ((replays, runner_ups), (switches, records)) = replay_counts(&runs);
            assert_eq!(switches + 1, records, "k {k}");
            assert_eq!((replays, runner_ups), (records, 0), "k {k}");
        }
    }

    #[test]
    fn the_pass_ledger_follows_the_sort_factor_rule() {
        let ramp = |n: u64| (1..=n).collect::<Vec<u64>>();
        // Run lengths, `io_sort_factor`, the `(fan_in, bytes)` ledger.
        type Case = (Vec<u64>, usize, Vec<(u64, u64)>);
        let cases: [Case; 10] = [
            // At most `sort_factor` runs: the final merge takes them all.
            (vec![], 2, vec![]),
            (vec![7, 9], 2, vec![]),
            (ramp(3), 3, vec![]),
            // The singleton tail passes through unmerged.
            (ramp(3), 2, vec![(2, 3)]),
            // Several rounds at fan-in 2: [3, 7, 5], then [10, 5].
            (ramp(5), 2, vec![(2, 3), (2, 7), (2, 10)]),
            // Fan-in 3: one round leaves three runs.
            (ramp(7), 3, vec![(3, 6), (3, 15)]),
            // Fan-in 3: [6, 15, 24, 10], then [45, 10].
            (ramp(10), 3, vec![(3, 6), (3, 15), (3, 24), (3, 45)]),
            // Empty runs are runs of zero bytes: [4, 0, 9], then [4, 9].
            (vec![0, 4, 0, 0, 9], 2, vec![(2, 4), (2, 0), (2, 4)]),
            (vec![0; 3], 2, vec![(2, 0)]),
            // Send-Coef's reducer on `build-shuffle`: 128 runs at 16.
            (vec![1 << 20; 128], 16, vec![(16, 16 << 20); 8]),
        ];
        for (lens, factor, want) in cases {
            let at = format!("{lens:?} at {factor}");
            assert_eq!(merge_to_fan_in(lens, factor), want, "{at}");
        }
    }

    #[test]
    fn run_cut_inside_an_equal_key_stretch_raises_the_flag_and_the_rest_drains() {
        let mut cut = encode_run(&[(1u32, 10u64), (1, 11), (1, 12), (1, 13)]);
        cut.truncate(2 * 12 + 7);
        let runs = [
            cut,
            encode_run(&[(1u32, 20u64), (1, 21), (2, 22)]),
            encode_run(&[(0u32, 30u64), (1, 31)]),
        ];
        let slices = slices(&runs);
        let mut merge = KWayMerge::<u32, u64>::new(&slices);
        assert!(!merge.decode_error);
        let popped: Vec<(u32, u64)> = std::iter::from_fn(|| merge.pop()).collect();
        let expect = [
            (0, 30),
            (1, 10),
            (1, 11),
            (1, 20),
            (1, 21),
            (1, 31),
            (2, 22),
        ];
        assert_eq!(popped, expect);
        assert!(merge.decode_error);
        assert_merges::<u32, u64>(&runs);
    }

    #[test]
    fn next_group_starts_at_the_next_key_however_much_the_function_consumed() {
        // Key 1's five values sit in three runs, two of them behind equal
        // heads of the same run.
        let runs = [
            encode_run(&[(0u32, 1u64), (1, 10), (1, 11), (3, 30)]),
            encode_run(&[(1u32, 12u64), (1, 13), (2, 20)]),
            encode_run(&[(1u32, 14u64), (3, 31)]),
        ];
        let slices = slices(&runs);
        for take in [0usize, 2, 5, 9] {
            let mut merge = KWayMerge::<u32, u64>::new(&slices);
            let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
            merge.for_each_group(|&key, values| groups.push((key, values.take(take).collect())));
            let all = [
                (0u32, vec![1u64]),
                (1, vec![10, 11, 12, 13, 14]),
                (2, vec![20]),
                (3, vec![30, 31]),
            ];
            let expect: Vec<(u32, Vec<u64>)> = all
                .into_iter()
                .map(|(key, values)| (key, values.into_iter().take(take).collect()))
                .collect();
            assert_eq!(groups, expect, "take {take}");
            assert!(!merge.decode_error);
        }
    }

    /// An `Ord` float key ordered by IEEE total order — exercises NaN and
    /// signed-zero keys through the merge without violating `Ord`.
    #[derive(Debug, Clone, Copy)]
    struct TotalF64(f64);
    impl PartialEq for TotalF64 {
        fn eq(&self, other: &Self) -> bool {
            self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for TotalF64 {}
    impl PartialOrd for TotalF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for TotalF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
    impl Wire for TotalF64 {
        fn encode<S: WireSink>(&self, sink: &mut S) {
            self.0.to_bits().encode(sink);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(TotalF64(f64::from_bits(u64::decode(buf)?)))
        }
        const WIDTH: Option<usize> = Some(8);
    }

    #[test]
    fn merges_follow_the_definition_on_nan_keys() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
        ];
        let mut state = 0xfeed_f00d_u64;
        for _ in 0..50 {
            let k = 1 + (next_rand(&mut state) % 12) as usize;
            let runs: Vec<Vec<u8>> = (0..k)
                .map(|run| {
                    let len = (next_rand(&mut state) % 10) as usize;
                    let mut keys: Vec<TotalF64> = (0..len)
                        .map(|_| TotalF64(specials[(next_rand(&mut state) % 8) as usize]))
                        .collect();
                    keys.sort();
                    let pairs: Vec<(TotalF64, u64)> = keys
                        .into_iter()
                        .enumerate()
                        .map(|(seq, key)| (key, ((run as u64) << 32) | seq as u64))
                        .collect();
                    encode_run(&pairs)
                })
                .collect();
            assert_merges::<TotalF64, u64>(&runs);
        }
    }

    #[test]
    fn merges_handle_empty_and_degenerate_inputs() {
        // Zero runs; all runs empty; a single run; one live run among
        // empties; a truncated run beside a good one.
        let mut bad = encode_run(&[(2u32, 2u64)]);
        bad.truncate(bad.len() - 3);
        for runs in [
            vec![],
            vec![Vec::new(), Vec::new(), Vec::new()],
            vec![encode_run(&[(1u32, 10u64), (2, 20)])],
            vec![Vec::new(), encode_run(&[(5u32, 1u64)]), Vec::new()],
            vec![encode_run(&[(1u32, 1u64), (3, 3)]), bad],
        ] {
            assert_merges::<u32, u64>(&runs);
        }
    }

    #[test]
    fn ranges_split_the_keys_evenly_and_keep_each_key_whole() {
        // Eight runs over 4 096 keys, each key in one to three runs.
        let runs: Vec<Vec<u8>> = (0..8u64)
            .map(|run| {
                let pairs: Vec<(u64, f64)> = (0..4096u64)
                    .filter(|key| (key * 7 + run) % 8 < 3)
                    .map(|key| (key, run as f64))
                    .collect();
                encode_run(&pairs)
            })
            .collect();
        let all = slices(&runs);
        let total: usize = all.iter().map(|s| s.len()).sum();
        for parts in [2, 3, 7] {
            let ranges = cut_ranges::<u64, f64>(&all, parts);
            assert_eq!(ranges.len(), parts);
            let mut last_key = None;
            for range in &ranges {
                let bytes: usize = range.iter().map(|s| s.len()).sum();
                let share = bytes as f64 * parts as f64 / total as f64;
                assert!((0.8..1.2).contains(&share), "parts {parts}: share {share}");
                let live = range.iter().filter(|s| !s.is_empty());
                let first = live
                    .clone()
                    .map(|s| key_at::<u64>(s, 16, 0))
                    .min()
                    .flatten();
                let last = live
                    .map(|s| key_at::<u64>(s, 16, s.len() / 16 - 1))
                    .max()
                    .flatten();
                assert!(last_key < first, "a key in two ranges");
                last_key = last;
            }
            assert_range_merge::<u64, f64>(&runs, parts);
        }
        // Variable-width records stay one range.
        let runs = [
            encode_run(&[(1u64, String::from("x"))]),
            encode_run(&[(2u64, String::new())]),
        ];
        assert_eq!(cut_ranges::<u64, String>(&slices(&runs), 4).len(), 1);
    }

    /// A value that claims `CLAIM` bytes on the wire and writes four.
    #[derive(Debug, Clone, PartialEq)]
    struct Lie<const CLAIM: usize>(u32);
    impl<const CLAIM: usize> Wire for Lie<CLAIM> {
        fn encode<S: WireSink>(&self, sink: &mut S) {
            self.0.encode(sink);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Lie(u32::decode(buf)?))
        }
        const WIDTH: Option<usize> = Some(CLAIM);
    }

    /// Runs of `(u32, Lie)` records. When every run is a whole number of
    /// claimed-width records, the merge acts on the width and every way of
    /// merging must raise the flag; otherwise the width is ruled out and
    /// the merge is the definition's.
    fn assert_lie_is_caught<const CLAIM: usize>() {
        for lens in [[3usize, 6, 0], [1, 2, 5], [9, 3, 6], [4, 7, 10]] {
            let runs: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(run, &len)| {
                    let pairs: Vec<(u32, Lie<CLAIM>)> = (0..len)
                        .map(|i| (i as u32 / 2, Lie((run * 100 + i) as u32)))
                        .collect();
                    encode_run(&pairs)
                })
                .collect();
            if runs.iter().any(|r| r.len() % (4 + CLAIM) != 0) {
                assert_merges::<u32, Lie<CLAIM>>(&runs);
                continue;
            }
            let slices = slices(&runs);
            let mut merge = KWayMerge::<u32, Lie<CLAIM>>::new(&slices);
            while merge.pop().is_some() {}
            assert!(merge.decode_error, "pops, lens {lens:?}");
            for parts in [1, 2, 3, 7] {
                let ranges = cut_ranges::<u32, Lie<CLAIM>>(&slices, parts);
                let reduce = |k: &u32,
                              v: &mut dyn Iterator<Item = Lie<CLAIM>>,
                              ctx: &mut ReduceContext<u32, usize>| {
                    ctx.emit(*k, v.count());
                };
                let cost = &mut TaskCost::default();
                let (_, _, flag) = reduce_ranges(&Executor::new(2), &ranges, &reduce, 0, cost);
                assert!(flag, "parts {parts}, lens {lens:?}");
            }
        }
    }

    #[test]
    fn a_record_width_that_lies_is_a_decode_error_or_unused() {
        assert_lie_is_caught::<8>();
        assert_lie_is_caught::<2>();
    }
}
