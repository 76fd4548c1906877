//! Merge phase: the reduce-side k-way merge over sorted runs (a loser
//! tree) and the `io.sort.factor` intermediate passes that bound its
//! fan-in.

use super::spill::{AttemptTag, RunBuf, SpillStore, SPILL_FRAME_BYTES};
use crate::codec::Wire;
use crate::executor::Executor;

/// A streaming cursor over one sorted run.
struct RunCursor<'a, K, V> {
    rest: &'a [u8],
    head: Option<(K, V)>,
}

impl<K: Wire, V: Wire> RunCursor<'_, K, V> {
    /// Decodes the run's next pair into `head` (left `None` when the run
    /// is exhausted); returns false on a decode error, after which the run
    /// is treated as exhausted.
    fn advance(&mut self) -> bool {
        if self.rest.is_empty() {
            return true;
        }
        match (K::decode(&mut self.rest), V::decode(&mut self.rest)) {
            (Ok(k), Ok(v)) => {
                self.head = Some((k, v));
                true
            }
            _ => {
                self.rest = &[];
                false
            }
        }
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

/// Streaming k-way merge over pre-sorted runs. Pairs are decoded one at a
/// time as the merge advances; nothing is buffered beyond one head pair
/// per run.
///
/// Ordering is maintained by a *loser tree* (tournament tree, the classic
/// Hadoop/DB merge structure): each internal node stores the run that lost
/// the match played there, and the overall winner is kept aside. Popping
/// the winner replays at most one leaf-to-root path — one comparison per
/// level, ⌈log₂ k⌉ total, none when its run's next key is equal — where
/// the binary-heap merge this replaces paid up to two comparisons per level
/// on its sift-down, the ~2× saving that matters at high fan-in. Exhausted runs stay in the tree as automatic
/// losers instead of being removed, so the structure never reshapes. The
/// pop sequence is bit-identical to the heap's: both drain strictly by
/// `(head key, run index)`, which is a total order over the live heads
/// (the test module keeps the heap as a reference implementation and
/// checks equivalence).
pub(super) struct KWayMerge<'a, K, V> {
    cursors: Vec<RunCursor<'a, K, V>>,
    /// `tree[n]` is the run that lost the match at internal node `n`
    /// (nodes `1..k`; index 0 is unused). Leaf `i` sits at conceptual
    /// position `k + i`, so its first match plays at node `(k + i) / 2`.
    tree: Vec<u32>,
    /// Tournament winner: the run whose head is the merge's next pair.
    /// `u32::MAX` when the merge was built over zero runs.
    winner: u32,
    /// A run failed to decode; the job fails with a codec error once the
    /// reduce phase completes.
    pub(super) decode_error: bool,
}

impl<'a, K: Wire + Ord, V: Wire> KWayMerge<'a, K, V> {
    pub(super) fn new(runs: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut decode_error = false;
        let mut cursors: Vec<RunCursor<'a, K, V>> = Vec::new();
        for run in runs {
            let mut cursor = RunCursor {
                rest: run,
                head: None,
            };
            decode_error |= !cursor.advance();
            cursors.push(cursor);
        }
        let k = cursors.len();
        let mut merge = KWayMerge {
            cursors,
            tree: vec![u32::MAX; k],
            winner: u32::MAX,
            decode_error,
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

    /// The next pair in merged key order: takes the winner's head,
    /// advances its run, and replays the winner's leaf-to-root path to
    /// crown the next winner — unless the run's new head carries an equal
    /// key. The winner beat every other run under `(key, run index)` and
    /// its new head has the same `(key, run index)`, so every match on the
    /// path would come out as before: it is still the winner. (An exhausted
    /// run or a decode error leaves no head and replays.)
    fn pop(&mut self) -> Option<(K, V)> {
        let w = self.winner;
        if w == u32::MAX {
            return None;
        }
        let cursor = &mut self.cursors[w as usize];
        let pair = cursor.head.take()?;
        if !cursor.advance() {
            self.decode_error = true;
        }
        if matches!(&cursor.head, Some((next, _)) if next.cmp(&pair.0).is_eq()) {
            return Some(pair);
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
        Some(pair)
    }

    /// Whether the next pair (if any) carries exactly `key`.
    fn peek_is(&self, key: &K) -> bool {
        self.winner != u32::MAX
            && self.cursors[self.winner as usize]
                .head
                .as_ref()
                .is_some_and(|(k, _)| *k == *key)
    }

    /// The final pass: streams pairs in total key order and feeds each
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

/// What the intermediate merge passes left for the final streaming merge.
pub(super) struct Merged<'a> {
    /// At most `sort_factor` runs, in tie-break order.
    pub(super) runs: Vec<RunBuf<'a>>,
    /// `(fan_in, bytes)` per intermediate pass (empty when the final merge
    /// can take every fetched run directly).
    pub(super) passes: Vec<(u64, u64)>,
    /// Framed bytes written + read back by the passes.
    pub(super) disk_bytes: u64,
    pub(super) decode_error: bool,
}

/// Intermediate merge passes (Hadoop's `io.sort.factor`): while more runs
/// remain than the final merge may fan in, merge *contiguous* groups of up
/// to `sort_factor` runs into new stored runs owned by `owner`. Contiguity
/// keeps the global (key, run index) tie order: a merged chunk drains its
/// equal keys lowest-run-first and takes its chunk's position in the run
/// sequence.
pub(super) fn merge_to_fan_in<'a, K: Wire + Ord + Send, V: Wire + Send>(
    pool: &Executor,
    store: &SpillStore,
    owner: AttemptTag,
    mut runs: Vec<RunBuf<'a>>,
    sort_factor: usize,
) -> Merged<'a> {
    let mut passes = Vec::new();
    let mut disk_bytes = 0u64;
    let mut decode_error = false;
    while runs.len() > sort_factor {
        let mut groups: Vec<Vec<RunBuf>> = Vec::new();
        let mut remaining = runs.into_iter();
        loop {
            let group: Vec<RunBuf> = remaining.by_ref().take(sort_factor).collect();
            if group.is_empty() {
                break;
            }
            groups.push(group);
        }
        // Each multi-run group merges independently on the pool, and its
        // task also stores the merged run (checksum or DWR3 frame) and reads
        // it back (verified), so no hash pass waits on the reducer thread.
        // Run ids are reserved in group order — only the tail group can be
        // a singleton — and results come back positionally, so ids, the
        // pass ledger and the byte accounting are those of a serial loop.
        let multi = groups.iter().filter(|group| group.len() > 1).count();
        let first_id = store.reserve_ids(multi as u64);
        let merged = pool.run_indexed(&groups, |g, group| {
            if group.len() == 1 {
                return None;
            }
            let total: usize = group.iter().map(|g| g.as_slice().len()).sum();
            let mut merge = KWayMerge::<K, V>::new(group.iter().map(RunBuf::as_slice));
            let mut out = Vec::with_capacity(total);
            while let Some((k, v)) = merge.pop() {
                k.encode(&mut out);
                v.encode(&mut out);
            }
            let handle = store.write_as(first_id + g as u64, owner, out);
            let run = store.read(handle).expect("just-written merge run");
            Some((run, merge.decode_error))
        });
        runs = Vec::new();
        for (group, m) in groups.into_iter().zip(merged) {
            let Some((run, group_decode_error)) = m else {
                // Singleton tail group: passes through to the next round
                // unmerged.
                runs.extend(group);
                continue;
            };
            decode_error |= group_decode_error;
            passes.push((group.len() as u64, run.len() as u64));
            // Charged twice: the pass writes the run out and the next pass
            // (or the final merge) reads it back.
            disk_bytes += 2 * (run.len() as u64 + SPILL_FRAME_BYTES);
            runs.push(RunBuf::Shared(run));
        }
    }
    Merged {
        runs,
        passes,
        disk_bytes,
        decode_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-loser-tree binary-heap merge, kept verbatim as the
    /// reference the loser tree must match pop-for-pop (same
    /// `(key, run index)` total order).
    struct HeapKWayMerge<'a, K, V> {
        cursors: Vec<RunCursor<'a, K, V>>,
        heap: Vec<u32>,
        decode_error: bool,
    }

    fn sift_down<K: Ord, V>(heap: &mut [u32], cursors: &[RunCursor<'_, K, V>], mut i: usize) {
        loop {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            let mut smallest = i;
            if left < heap.len() && run_beats(cursors, heap[left], heap[smallest]) {
                smallest = left;
            }
            if right < heap.len() && run_beats(cursors, heap[right], heap[smallest]) {
                smallest = right;
            }
            if smallest == i {
                return;
            }
            heap.swap(i, smallest);
            i = smallest;
        }
    }

    impl<'a, K: Wire + Ord, V: Wire> HeapKWayMerge<'a, K, V> {
        fn new(runs: impl IntoIterator<Item = &'a [u8]>) -> Self {
            let mut decode_error = false;
            let mut cursors: Vec<RunCursor<'a, K, V>> = Vec::new();
            for run in runs {
                let mut cursor = RunCursor {
                    rest: run,
                    head: None,
                };
                decode_error |= !cursor.advance();
                cursors.push(cursor);
            }
            let mut heap: Vec<u32> = (0..cursors.len() as u32)
                .filter(|&i| cursors[i as usize].head.is_some())
                .collect();
            for i in (0..heap.len() / 2).rev() {
                sift_down(&mut heap, &cursors, i);
            }
            HeapKWayMerge {
                cursors,
                heap,
                decode_error,
            }
        }

        fn pop(&mut self) -> Option<(K, V)> {
            let &top = self.heap.first()?;
            let cursor = &mut self.cursors[top as usize];
            let pair = cursor.head.take().expect("heap entry has head");
            if !cursor.advance() {
                self.decode_error = true;
            }
            if self.cursors[top as usize].head.is_some() {
                sift_down(&mut self.heap, &self.cursors, 0);
            } else {
                let last = self.heap.len() - 1;
                self.heap.swap(0, last);
                self.heap.pop();
                sift_down(&mut self.heap, &self.cursors, 0);
            }
            Some(pair)
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

    /// Asserts the loser tree and the reference heap produce the same pop
    /// sequence and decode-error flag over `runs`.
    fn assert_merge_equivalent<K, V>(runs: &[Vec<u8>])
    where
        K: Wire + Ord + std::fmt::Debug,
        V: Wire + PartialEq + std::fmt::Debug,
    {
        let mut tree = KWayMerge::<K, V>::new(runs.iter().map(Vec::as_slice));
        let mut heap = HeapKWayMerge::<K, V>::new(runs.iter().map(Vec::as_slice));
        assert_eq!(tree.decode_error, heap.decode_error, "initial decode flag");
        let mut n = 0usize;
        loop {
            let expect = heap.pop();
            if let Some((k, _)) = &expect {
                assert!(tree.peek_is(k), "peek_is disagrees at pop {n}");
            }
            let got = tree.pop();
            assert_eq!(got, expect, "pop {n} diverged");
            if expect.is_none() {
                break;
            }
            n += 1;
        }
        assert_eq!(tree.decode_error, heap.decode_error, "final decode flag");
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

    #[test]
    fn loser_tree_matches_heap_on_dup_heavy_runs() {
        // At most four distinct keys → massive duplication, so the
        // (key, run index) tie-break carries most of the ordering and the
        // equal-key stretches `pop` does not replay cross run ends and span
        // whole runs (alphabet 1: the run is one key). Values tag
        // (run, seq) so a tie-break divergence cannot cancel out.
        let mut state = 0x5eed_cafe_u64;
        for _ in 0..200 {
            let k = (next_rand(&mut state) % 21) as usize; // fan-in 0..=20
            let mut runs: Vec<Vec<u8>> = (0..k)
                .map(|run| {
                    let len = (next_rand(&mut state) % 20) as usize; // empties included
                    let alphabet = 1 + next_rand(&mut state) % 4;
                    let first = next_rand(&mut state) % 4;
                    let mut keys: Vec<u32> = (0..len)
                        .map(|_| ((first + next_rand(&mut state) % alphabet) % 4) as u32)
                        .collect();
                    keys.sort_unstable();
                    let pairs: Vec<(u32, u64)> = keys
                        .into_iter()
                        .enumerate()
                        .map(|(seq, key)| (key, ((run as u64) << 32) | seq as u64))
                        .collect();
                    encode_run(&pairs)
                })
                .collect();
            assert_merge_equivalent::<u32, u64>(&runs);
            // The same runs with one of them cut mid-pair — as likely as
            // not inside an equal-key stretch: the flag is raised and the
            // other runs still drain in order.
            let live: Vec<usize> = (0..k).filter(|&r| !runs[r].is_empty()).collect();
            if !live.is_empty() {
                let cut = live[next_rand(&mut state) as usize % live.len()];
                let keep = (next_rand(&mut state) as usize % runs[cut].len()) / 12 * 12 + 5;
                runs[cut].truncate(keep);
                assert_merge_equivalent::<u32, u64>(&runs);
            }
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
        let mut merge = KWayMerge::<u32, u64>::new(runs.iter().map(Vec::as_slice));
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
        assert_merge_equivalent::<u32, u64>(&runs);
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
        for take in [0usize, 2, 5, 9] {
            let mut merge = KWayMerge::<u32, u64>::new(runs.iter().map(Vec::as_slice));
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
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.to_bits().encode(buf);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, crate::codec::CodecError> {
            Ok(TotalF64(f64::from_bits(u64::decode(buf)?)))
        }
    }

    #[test]
    fn loser_tree_matches_heap_on_nan_keys() {
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
            assert_merge_equivalent::<TotalF64, u64>(&runs);
        }
    }

    #[test]
    fn loser_tree_handles_empty_and_degenerate_inputs() {
        // Zero runs.
        assert_merge_equivalent::<u32, u64>(&[]);
        // All runs empty.
        assert_merge_equivalent::<u32, u64>(&[Vec::new(), Vec::new(), Vec::new()]);
        // Single run.
        assert_merge_equivalent::<u32, u64>(&[encode_run(&[(1u32, 10u64), (2, 20)])]);
        // One live run among empties.
        assert_merge_equivalent::<u32, u64>(&[Vec::new(), encode_run(&[(5u32, 1u64)]), Vec::new()]);
    }

    #[test]
    fn loser_tree_flags_decode_errors_like_heap() {
        // A truncated run trips the decode-error flag in both merges and
        // the surviving runs still drain in order.
        let good = encode_run(&[(1u32, 1u64), (3, 3)]);
        let mut bad = encode_run(&[(2u32, 2u64)]);
        bad.truncate(bad.len() - 3);
        assert_merge_equivalent::<u32, u64>(&[good, bad]);
    }
}
