//! Merge phase: the reduce-side k-way merge over sorted runs (a loser
//! tree), the [`Values`] it hands each key group out as, the
//! `io.sort.factor` intermediate passes the clock prices, and the cut of a
//! reducer's runs into key ranges.

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

/// Decodes the record at the front of `bytes`: from exactly `width` bytes,
/// all of which it must use, when the record width is known. Returns the
/// record and its length in bytes, or `None` on a decode error.
#[inline(always)]
fn decode_record<K: Wire, V: Wire>(bytes: &[u8], width: Option<usize>) -> Option<(K, V, usize)> {
    let mut record = match width {
        Some(w) => &bytes[..w.min(bytes.len())],
        None => bytes,
    };
    let available = record.len();
    if let (Ok(k), Ok(v)) = (K::decode(&mut record), V::decode(&mut record)) {
        let used = available - record.len();
        if width.is_none_or(|w| w == used) {
            return Some((k, v, used));
        }
    }
    None
}

/// A streaming cursor over one sorted run. It holds a byte offset, not the
/// run: the runs sit beside the [`Tournament`] in [`KWayMerge`], so a
/// [`Values`] can borrow both without naming the runs' lifetime.
struct RunCursor<K, V> {
    /// Byte offset of the head record in its run — the run's length once
    /// the run is exhausted or failed to decode.
    pos: usize,
    /// The head record, decoded — `None` once the run is exhausted or
    /// failed to decode — and its length in bytes.
    head: Option<(K, V)>,
    head_len: usize,
}

impl<K: Wire, V: Wire> RunCursor<K, V> {
    /// Drops the first `n` bytes of `run` from the cursor's offset on (its
    /// head record) and decodes the record behind them into `head`
    /// ([`decode_record`]). Returns false on a decode error, after which
    /// the run is treated as exhausted.
    #[inline(always)]
    fn advance(&mut self, run: &[u8], n: usize, width: Option<usize>) -> bool {
        self.pos += n;
        self.head = None;
        let rest = &run[self.pos..];
        if rest.is_empty() {
            return true;
        }
        let Some((k, v, used)) = decode_record(rest, width) else {
            self.pos = run.len();
            return false;
        };
        self.head = Some((k, v));
        self.head_len = used;
        true
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
fn run_beats<K: Ord, V>(cursors: &[RunCursor<K, V>], a: u32, b: u32) -> bool {
    match (&cursors[a as usize].head, &cursors[b as usize].head) {
        (Some((ka, _)), Some((kb, _))) => ka.cmp(kb).then(a.cmp(&b)).is_lt(),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

/// Streaming k-way merge over pre-sorted runs. Nothing is buffered beyond
/// one decoded head record per run; [`KWayMerge::for_each_group`] hands
/// the records out one key group at a time, as a [`Values`].
///
/// Ordering is maintained by a *loser tree* (tournament tree, the classic
/// Hadoop/DB merge structure): each internal node stores the run that lost
/// the match played there, and the overall winner is kept aside. Taking
/// from the winner replays at most one leaf-to-root path — one comparison
/// per level, ⌈log₂ k⌉ total — and none while the winner's new head still
/// beats the runner-up ([`Tournament::pop`]). Exhausted runs stay in the
/// tree as automatic losers instead of being removed, so the structure
/// never reshapes. The merge drains strictly by `(head key, run index)`, a
/// total order over the live heads: its output is every run's records
/// tagged with the run's index, concatenated and stably sorted by key (the
/// test module checks it against exactly that).
pub(super) struct KWayMerge<'r, K, V> {
    runs: Vec<&'r [u8]>,
    tournament: Tournament<K, V>,
}

/// The loser tree of a [`KWayMerge`] and one cursor per run; every method
/// that moves a cursor is handed the runs.
struct Tournament<K, V> {
    cursors: Vec<RunCursor<K, V>>,
    /// `tree[n]` is the run that lost the match at internal node `n`
    /// (nodes `1..k`; index 0 is unused). Leaf `i` sits at conceptual
    /// position `k + i`, so its first match plays at node `(k + i) / 2`.
    tree: Vec<u32>,
    /// Tournament winner: the run whose head is the merge's next record.
    /// `u32::MAX` when the merge was built over zero runs.
    winner: u32,
    /// The winner's runner-up ([`Tournament::runner_up`]), cached until
    /// the next replay: no other run's head moves while the winner keeps
    /// winning.
    rival: Option<u32>,
    /// The last replay crowned the run it replayed: the winner has won
    /// twice in a row, so its runner-up is worth computing.
    repeat: bool,
    /// Bytes per record when every run is fixed-width ([`record_width`]).
    width: Option<usize>,
    /// A run failed to decode; the job fails with a codec error once the
    /// reduce phase completes.
    decode_error: bool,
    /// Tree replays so far.
    #[cfg(test)]
    replays: usize,
    /// Runner-up computations so far.
    #[cfg(test)]
    runner_ups: usize,
}

impl<'r, K: Wire + Ord, V: Wire> KWayMerge<'r, K, V> {
    pub(super) fn new(runs: &[&'r [u8]]) -> Self {
        let width = record_width::<K, V>(runs);
        let mut decode_error = false;
        let cursors: Vec<RunCursor<K, V>> = runs
            .iter()
            .map(|&run| {
                let mut cursor = RunCursor {
                    pos: 0,
                    head: None,
                    head_len: 0,
                };
                decode_error |= !cursor.advance(run, 0, width);
                cursor
            })
            .collect();
        let k = cursors.len();
        let mut t = Tournament {
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
                    t.winner = cand;
                    break;
                }
                let stored = t.tree[node];
                if stored == u32::MAX {
                    t.tree[node] = cand;
                    break;
                }
                if run_beats(&t.cursors, stored, cand) {
                    t.tree[node] = cand;
                    cand = stored;
                }
                node /= 2;
            }
        }
        KWayMerge {
            runs: runs.to_vec(),
            tournament: t,
        }
    }

    /// Whether a run failed to decode.
    pub(super) fn decode_error(&self) -> bool {
        self.tournament.decode_error
    }

    /// The final merge: streams records in total key order and hands each
    /// key's values to `f` as they surface, then drains whatever `f` left
    /// unconsumed so the next group starts at the next key.
    pub(super) fn for_each_group(&mut self, mut f: impl FnMut(&K, Values<'_, K, V>)) {
        let runs = &self.runs[..];
        let t = &mut self.tournament;
        while let Some((key, first)) = t.pop(runs) {
            f(
                &key,
                Values(Source::Merge {
                    key: &key,
                    first: Some(first),
                    runs,
                    tournament: &mut *t,
                }),
            );
            while t.peek_is(&key) {
                let _ = t.pop(runs);
            }
        }
    }
}

impl<K: Wire + Ord, V: Wire> Tournament<K, V> {
    /// Replays run `w`'s leaf-to-root path after its head changed,
    /// crowning the next winner. Out of line, like
    /// [`Tournament::runner_up`]: it runs once per hand-over, not per
    /// record.
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

    /// Settles the winner `w` once its head no longer carries the key it
    /// last handed out: keeps it without a replay while its new head beats
    /// the runner-up, the best loser on its path — then it beats every
    /// loser there, and every match on the path comes out as before. The
    /// runner-up is only computed once the same run has won twice in a
    /// row, so runs that interleave record by record pay one replay per
    /// record and nothing more. An exhausted run or a decode error leaves
    /// no head and replays.
    #[inline(always)]
    fn settle(&mut self, w: u32) {
        let keeps = self.cursors[w as usize].head.is_some() && {
            if self.rival.is_none() && self.repeat {
                self.rival = self.runner_up(w);
                #[cfg(test)]
                {
                    self.runner_ups += 1;
                }
            }
            self.rival.is_some_and(|r| run_beats(&self.cursors, w, r))
        };
        if !keeps {
            self.replay(w);
        }
    }

    /// The next record in merged key order: takes the winner's head,
    /// advances its run, and keeps the winner without a replay while its
    /// new head carries an equal key (it beat every other run under
    /// `(key, run index)` and still has the same `(key, run index)`);
    /// otherwise [`Tournament::settle`]s it.
    #[inline(always)]
    fn pop(&mut self, runs: &[&[u8]]) -> Option<(K, V)> {
        let w = self.winner;
        if w == u32::MAX {
            return None;
        }
        let cursor = &mut self.cursors[w as usize];
        let pair = cursor.head.take()?;
        if !cursor.advance(runs[w as usize], cursor.head_len, self.width) {
            self.decode_error = true;
        }
        if !matches!(&cursor.head, Some((next, _)) if next.cmp(&pair.0).is_eq()) {
            self.settle(w);
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

    /// Folds every remaining record of `key`'s group into `acc`, a run's
    /// equal-key stretch at a time: while the winner's head carries `key`,
    /// folds the head and then the records behind it in the run's bytes
    /// until one carries another key, which becomes the run's new head
    /// (decoded once); then settles the winner as [`Tournament::pop`]
    /// would after the stretch's last record. The records, the replays and
    /// the runner-ups are exactly those of popping the group record by
    /// record.
    #[inline]
    fn fold_group<B>(
        &mut self,
        runs: &[&[u8]],
        key: &K,
        mut acc: B,
        mut f: impl FnMut(B, V) -> B,
    ) -> B {
        while self.peek_is(key) {
            let w = self.winner;
            let run = runs[w as usize];
            let cursor = &mut self.cursors[w as usize];
            let Some((_, value)) = cursor.head.take() else {
                break;
            };
            acc = f(acc, value);
            if let Some(width) = self.width {
                // Every run is a whole number of `width`-byte records.
                let mut pos = cursor.pos + width;
                while pos < run.len() {
                    let Some((k, v, _)) = decode_record::<K, V>(&run[pos..], Some(width)) else {
                        self.decode_error = true;
                        pos = run.len();
                        break;
                    };
                    if k != *key {
                        cursor.head = Some((k, v));
                        break;
                    }
                    acc = f(acc, v);
                    pos += width;
                }
                cursor.pos = pos;
            } else {
                loop {
                    if !cursor.advance(run, cursor.head_len, None) {
                        self.decode_error = true;
                    }
                    match cursor.head.take_if(|(k, _)| *k == *key) {
                        Some((_, v)) => acc = f(acc, v),
                        None => break,
                    }
                }
            }
            self.settle(w);
        }
        acc
    }
}

/// One key's values, in merge order: what a reduce function, a combiner
/// and [`crate::reference::shuffle_reduce`] are handed, by value.
///
/// Out of the reduce-side merge the values stream as the merge produces
/// them — no per-group `Vec` is materialised. [`Iterator::fold`] (and so
/// `sum`, `count`, `for_each`, and adapters such as `map(..).sum()`)
/// consumes a run's equal-key stretch in one loop over the run's bytes;
/// `next` (`for v in values`, `collect`, `take`) takes one record at a
/// time. Both see the same values in the same order. Built from a `Vec`,
/// the values are that `Vec`'s, in order.
pub struct Values<'a, K, V>(Source<'a, K, V>);

enum Source<'a, K, V> {
    /// The group of `key` in a reduce-side merge, `first` its first value.
    Merge {
        key: &'a K,
        first: Option<V>,
        runs: &'a [&'a [u8]],
        tournament: &'a mut Tournament<K, V>,
    },
    /// A decoded group: the map-side combiner's and the oracle's.
    Owned(std::vec::IntoIter<V>),
}

impl<K, V> From<Vec<V>> for Values<'_, K, V> {
    fn from(values: Vec<V>) -> Self {
        Values(Source::Owned(values.into_iter()))
    }
}

impl<K: Wire + Ord, V: Wire> Iterator for Values<'_, K, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        match &mut self.0 {
            Source::Merge {
                key,
                first,
                runs,
                tournament,
            } => {
                if let Some(v) = first.take() {
                    return Some(v);
                }
                if tournament.peek_is(key) {
                    tournament.pop(runs).map(|(_, v)| v)
                } else {
                    None
                }
            }
            Source::Owned(values) => values.next(),
        }
    }

    fn fold<B, F: FnMut(B, V) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            Source::Merge {
                key,
                first,
                runs,
                tournament,
            } => {
                let acc = match first {
                    Some(v) => f(init, v),
                    None => init,
                };
                tournament.fold_group(runs, key, acc, f)
            }
            Source::Owned(values) => values.fold(init, f),
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

    /// The merge record by record, as [`Values::next`] takes it.
    impl<K: Wire + Ord, V: Wire> KWayMerge<'_, K, V> {
        fn pop(&mut self) -> Option<(K, V)> {
            self.tournament.pop(&self.runs)
        }

        fn peek_is(&self, key: &K) -> bool {
            self.tournament.peek_is(key)
        }
    }

    /// The ways a reduce function may consume a group: `None` collects it
    /// record by record (`next`); `Some(k)` takes `k` values by `next` and
    /// folds the rest — stretch by stretch, picking up mid-group and as
    /// often as not mid-stretch.
    const WAYS: [Option<usize>; 4] = [None, Some(0), Some(1), Some(3)];

    /// The group's values, consumed `way` ([`WAYS`]).
    fn consume<K: Wire + Ord, V: Wire>(mut values: Values<'_, K, V>, way: Option<usize>) -> Vec<V> {
        let Some(k) = way else {
            return values.collect();
        };
        let head: Vec<V> = values.by_ref().take(k).collect();
        values.fold(head, |mut acc, v| {
            acc.push(v);
            acc
        })
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
        assert_eq!(merge.decode_error(), failed, "decode flag");
    }

    /// Cut into `parts` key ranges and reduced range by range, on a serial
    /// and on a three-thread pool, with each group consumed every one of
    /// the [`WAYS`], the final merge emits the definition's groups in order
    /// with their values in order, sums the counters over all of them, and
    /// raises the definition's flag.
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
        for (threads, way) in [1, 3].into_iter().flat_map(|t| WAYS.map(|way| (t, way))) {
            let reduce = |key: &K, values: Values<'_, K, V>, ctx: &mut ReduceContext<K, Vec<V>>| {
                let values = consume(values, way);
                ctx.add_counter("groups", 1);
                ctx.add_counter("values", values.len() as u64);
                ctx.emit(key.clone(), values);
            };
            let (out, got_counters, decode_error) = reduce_ranges(
                &Executor::new(threads),
                &ranges,
                &reduce,
                0,
                &mut TaskCost::default(),
            );
            let at = format!("parts {parts}, threads {threads}, way {way:?}");
            assert_eq!(out.len(), ranges.len(), "one output per range");
            let out: Vec<(K, Vec<V>)> = out.into_iter().flatten().collect();
            assert_eq!(out, groups, "{at}");
            assert_eq!(got_counters, counters, "{at}");
            assert_eq!(decode_error, failed, "{at}");
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

    /// Replays and runner-up computations of the whole merge of `runs`,
    /// drained by `drain`.
    fn counts(runs: &[Vec<u8>], drain: impl FnOnce(&mut KWayMerge<u32, u64>)) -> (usize, usize) {
        let slices = slices(runs);
        let mut merge = KWayMerge::<u32, u64>::new(&slices);
        drain(&mut merge);
        (merge.tournament.replays, merge.tournament.runner_ups)
    }

    /// Pops the whole merge of `runs`; returns its replays and runner-up
    /// computations, and the definition's run switches (adjacent records
    /// from different runs) and record count. Consuming every group by
    /// `fold` (or partly by `next`, then by `fold`) costs exactly the
    /// replays and runner-ups the pops did.
    fn replay_counts(runs: &[Vec<u8>]) -> ((usize, usize), (usize, usize)) {
        let (want, _) = definition::<u32, u64>(runs);
        let switches = want.windows(2).filter(|w| w[0].1 != w[1].1).count();
        let popped = counts(runs, |merge| while merge.pop().is_some() {});
        for way in WAYS {
            let folded = counts(runs, |merge| {
                merge.for_each_group(|_, values| {
                    consume(values, way);
                });
            });
            assert_eq!(folded, popped, "way {way:?}");
        }
        (popped, (switches, want.len()))
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
    fn folding_a_stretch_costs_the_replays_popping_it_does() {
        // Equal-key stretches inside runs and across them: a run of one key
        // hands over to the next run's stretch of that key, and each run's
        // stretch ends at a key another run holds too.
        let runs: Vec<Vec<u8>> = (0..6u32)
            .map(|run| {
                let pairs: Vec<(u32, u64)> = (0..40u32)
                    .map(|i| ((i / (run + 2)) * 3 + run % 2, u64::from(run * 100 + i)))
                    .collect();
                encode_run(&pairs)
            })
            .collect();
        let ((replays, _), (switches, records)) = replay_counts(&runs);
        assert!(
            replays <= switches + 6,
            "{replays} replays, {switches} switches"
        );
        assert!(
            switches < records / 3,
            "{switches} switches, {records} records"
        );
        // Duplicate-heavy and clustered runs, at fan-in up to 40.
        let mut state = 0xf01d_u64;
        for case in 0..40 {
            let k = (next_rand(&mut state) % 41) as usize;
            if case % 2 == 0 {
                replay_counts(&dup_heavy_runs(&mut state, k, |tag, _| tag));
            } else {
                replay_counts(&clustered_runs(&mut state, k));
            }
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
        assert!(!merge.decode_error());
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
        assert!(merge.decode_error());
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
            assert!(!merge.decode_error());
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

    /// A four-byte value whose decode refuses `u32::MAX`: a run of the
    /// right width that still fails to decode part-way through.
    #[derive(Debug, Clone, PartialEq)]
    struct Picky(u32);
    impl Wire for Picky {
        fn encode<S: WireSink>(&self, sink: &mut S) {
            self.0.encode(sink);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            match u32::decode(buf)? {
                u32::MAX => Err(CodecError { context: "picky" }),
                v => Ok(Picky(v)),
            }
        }
        const WIDTH: Option<usize> = Some(4);
    }

    #[test]
    fn a_record_that_fails_to_decode_mid_stretch_raises_the_flag_on_every_path() {
        // Run 0 holds a record that does not decode, at every position —
        // inside key 1's stretch included: each way of consuming the groups
        // must stop the run there and raise the flag.
        let pairs = [(0u32, 1u32), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6)];
        for bad in 0..pairs.len() {
            let run: Vec<(u32, Picky)> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(k, v))| (k, Picky(if i == bad { u32::MAX } else { v })))
                .collect();
            let runs = [
                encode_run(&run),
                encode_run(&[(1u32, Picky(7)), (1, Picky(8)), (3, Picky(9))]),
            ];
            assert!(definition::<u32, Picky>(&runs).1, "bad record {bad}");
            assert_pops::<u32, Picky>(&runs);
            assert_range_merge::<u32, Picky>(&runs, 1);
            // Cut into key ranges, a later range starts the run past the
            // bad record and drains records the definition does not; the
            // job fails on the flag all the same.
            let slices = slices(&runs);
            for (parts, way) in [2, 3, 7].into_iter().flat_map(|p| WAYS.map(|w| (p, w))) {
                let ranges = cut_ranges::<u32, Picky>(&slices, parts);
                let reduce =
                    |k: &u32, v: Values<'_, u32, Picky>, ctx: &mut ReduceContext<u32, _>| {
                        ctx.emit(*k, consume(v, way));
                    };
                let cost = &mut TaskCost::default();
                let (_, _, flag) = reduce_ranges(&Executor::new(2), &ranges, &reduce, 0, cost);
                assert!(flag, "bad record {bad}, parts {parts}, way {way:?}");
            }
        }
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
            assert!(merge.decode_error(), "pops, lens {lens:?}");
            for parts in [1, 2, 3, 7] {
                let ranges = cut_ranges::<u32, Lie<CLAIM>>(&slices, parts);
                let reduce = |k: &u32,
                              v: Values<'_, u32, Lie<CLAIM>>,
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
