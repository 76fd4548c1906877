//! Batched query execution: shard-grouped evaluation with repeats
//! answered once, in a strict and a lenient (per-query) flavour.
//!
//! A serving tier rarely answers one query at a time — it drains a
//! batch from the request queue. [`execute`] exploits that in two ways:
//!
//! 1. **Shard grouping.** Queries are bucketed by their primary shard
//!    (the shard owning the point, or the range's left endpoint) and
//!    evaluated group by group, so each group walks one shard's index
//!    with warm caches instead of ping-ponging across the store.
//! 2. **Repeat memoization.** Skewed (zipf) mixes hit the same hot
//!    leaves and ranges over and over; each group is sorted by query, so
//!    identical queries sit next to each other, are answered once and
//!    the answer is reused. This is sound precisely because a batch runs
//!    against a single pinned snapshot — the same query cannot legally
//!    produce two different answers within one batch.
//!
//! Answers are returned in input order, every one stamped with the
//! reader's pinned store version. A batch never observes a snapshot
//! swap part-way through: the [`StoreReader`] holds its `Arc` for the
//! duration.
//!
//! # Strict vs partial
//!
//! There is one evaluator, [`execute_partial_routed`]: every query gets
//! its own `Result<Answer, ServeError>` slot, malformed queries error
//! individually, and every valid sibling is still answered. That is the
//! contract a multiplexed batch needs: the networked front (see
//! [`crate::net`]) drains queries from many independent clients into one
//! batch, and one client's bad query must not poison its co-batched
//! neighbours. The strict [`execute`] is the same evaluation plus a
//! first-error collect: **all-or-nothing**, the first malformed query in
//! input order fails the whole batch with its `Err` — the right contract
//! for an internal caller that built the batch itself, where a malformed
//! query is a bug and failing loudly beats serving around it.
//!
//! The evaluator optionally routes through a [`ShardRouter`]: a query
//! is routed for every shard it reads — a point's one, a range's two
//! endpoint shards — and errors individually with
//! [`ServeError::ShardUnavailable`] when one of them has no live replica,
//! while the rest of the batch proceeds; the batch's node fan-out is
//! reported in [`BatchStats::nodes`].
//!
//! Shard groups are independent — no query crosses groups, and repeats
//! of a query always route to the same group — so given a work-stealing
//! [`Executor`] the evaluator fans the groups across it: each group is
//! sorted and evaluated on whatever worker picks it up, answers scatter
//! back positionally, and stats fold in group order. The answers
//! *and* the [`BatchStats`] are bit-identical to the serial path at any
//! thread count.

#![warn(clippy::too_many_lines)]

use dwmaxerr_core::query::Answer;
use dwmaxerr_runtime::Executor;

use crate::error::ServeError;
use crate::router::ShardRouter;
use crate::shard::ShardedSynopsis;
use crate::store::StoreReader;

/// One query against the served synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Reconstruct the single value `d̂_x`.
    Point {
        /// The leaf index `x`.
        x: usize,
    },
    /// Reconstruct the inclusive range sum `d̂(l:h)`.
    RangeSum {
        /// Lower leaf index (inclusive).
        l: usize,
        /// Upper leaf index (inclusive).
        h: usize,
    },
}

/// What one batch execution did — exposed so benches and tests can
/// verify the grouping/memoization actually engages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Distinct primary shards the batch touched.
    pub shard_groups: usize,
    /// Queries answered from the in-batch memo instead of a fresh
    /// evaluation.
    pub memo_hits: usize,
    /// Queries evaluated against shard data.
    pub evaluated: usize,
    /// Queries that errored individually (partial flavour only; the
    /// strict flavour fails the batch instead).
    pub failed: usize,
    /// Distinct live nodes the batch's shards routed to (0 when no
    /// router was consulted) — the Afrati–Ullman fan-out side of the
    /// replication tradeoff.
    pub nodes: usize,
}

/// Validates `q` against the pinned representation and returns the
/// shards it reads, primary first (twice the same for a point or a range
/// inside one shard) — the single routing rule both flavours share.
fn shards_of(sharded: &ShardedSynopsis, q: Query) -> Result<(usize, usize), ServeError> {
    let n = sharded.n();
    match q {
        Query::Point { x } => {
            if x >= n {
                return Err(ServeError::OutOfRange { index: x, n });
            }
            let shard = sharded.shard_of_leaf(x);
            Ok((shard, shard))
        }
        Query::RangeSum { l, h } => {
            if l > h {
                return Err(ServeError::InvertedRange { l, h });
            }
            if h >= n {
                return Err(ServeError::OutOfRange { index: h, n });
            }
            Ok(sharded.shards_of_range(l, h))
        }
    }
}

/// A validated query as one integer — equal for equal queries, distinct
/// otherwise (`h + 1 >= 1` keeps `RangeSum { l: x, h: x }` apart from
/// `Point { x }`) — so a group sorts on a two-word compare.
fn sort_key(q: Query) -> u128 {
    match q {
        Query::Point { x } => (x as u128) << 64,
        Query::RangeSum { l, h } => (l as u128) << 64 | (h as u128 + 1),
    }
}

/// Executes `queries` against the reader's pinned snapshot, grouped by
/// shard, answers in input order. Strict: the first malformed query (in
/// input order) fails the whole batch. See the [module docs](self).
pub fn execute(reader: &StoreReader, queries: &[Query]) -> Result<Vec<Answer>, ServeError> {
    let (results, _) = execute_partial_routed(reader, queries, None, None);
    results.into_iter().collect()
}

/// Lenient batch execution: every query gets its own result slot, in
/// input order. Malformed queries error individually; their valid
/// siblings are still answered. Never fails as a whole.
pub fn execute_partial(reader: &StoreReader, queries: &[Query]) -> Vec<Result<Answer, ServeError>> {
    execute_partial_routed(reader, queries, None, None).0
}

/// [`execute_partial`], also returning [`BatchStats`].
pub fn execute_partial_with_stats(
    reader: &StoreReader,
    queries: &[Query],
) -> (Vec<Result<Answer, ServeError>>, BatchStats) {
    execute_partial_routed(reader, queries, None, None)
}

/// The evaluator behind every entry point: optional shard→node routing
/// (queries on unroutable shards error individually) and optional
/// parallel group fan-out across `pool` (results and stats bit-identical
/// to the serial path). This is what the networked front calls per
/// request.
pub fn execute_partial_routed(
    reader: &StoreReader,
    queries: &[Query],
    router: Option<&ShardRouter>,
    pool: Option<&Executor>,
) -> (Vec<Result<Answer, ServeError>>, BatchStats) {
    let sharded = reader.sharded();
    let mut stats = BatchStats::default();
    let mut results: Vec<Result<Answer, ServeError>> = Vec::with_capacity(queries.len());

    // Route every query to its primary shard's bucket, or to an
    // individual error slot — nothing a single query does here can touch
    // its siblings. A bucketed query's slot holds a stand-in until the
    // scatter below overwrites it.
    let mut buckets: Vec<Vec<(u128, usize)>> = vec![Vec::new(); sharded.num_shards()];
    let mut read = vec![false; sharded.num_shards()];
    for (i, &q) in queries.iter().enumerate() {
        let routed = shards_of(sharded, q).and_then(|(primary, other)| {
            if let Some(r) = router {
                r.route(primary)?;
                if other != primary {
                    r.route(other)?;
                }
            }
            Ok((primary, other))
        });
        results.push(match routed {
            Ok((primary, other)) => {
                read[primary] = true;
                read[other] = true;
                buckets[primary].push((sort_key(q), i));
                Err(ServeError::EmptyStore)
            }
            Err(e) => Err(e),
        });
    }
    if let Some(r) = router {
        stats.nodes = r.fanout((0..read.len()).filter(|&s| read[s]));
    }
    buckets.retain(|b| !b.is_empty());

    // Evaluate one group: sorted, so the repeats of a query are
    // neighbours (identical queries always share a primary shard, so a
    // group sees every repeat the batch holds) and reuse the answer
    // before them. Only successful answers are reused; validation already
    // ran, so per-query evaluation errors are defensive.
    type PartialGroup = (Vec<Result<Answer, ServeError>>, usize);
    let eval_group = |_: usize, bucket: &mut Vec<(u128, usize)>| -> PartialGroup {
        bucket.sort_unstable();
        let mut out: Vec<Result<Answer, ServeError>> = Vec::with_capacity(bucket.len());
        let mut hits = 0usize;
        for (k, &(key, i)) in bucket.iter().enumerate() {
            let answer = match out.last() {
                Some(Ok(previous)) if bucket[k - 1].0 == key => {
                    hits += 1;
                    Ok(*previous)
                }
                _ => match queries[i] {
                    Query::Point { x } => reader.point(x),
                    Query::RangeSum { l, h } => reader.range_sum(l, h),
                },
            };
            out.push(answer);
        }
        (out, hits)
    };
    let group_results: Vec<PartialGroup> = match pool {
        Some(pool) => pool.run_indexed_mut(&mut buckets, eval_group),
        None => buckets
            .iter_mut()
            .enumerate()
            .map(|(g, bucket)| eval_group(g, bucket))
            .collect(),
    };

    // Scatter positionally and fold stats in group order — completion
    // order never influences the output.
    for (bucket, (group_out, hits)) in buckets.iter().zip(group_results) {
        stats.shard_groups += 1;
        stats.memo_hits += hits;
        stats.evaluated += bucket.len() - hits;
        for (&(_, i), result) in bucket.iter().zip(group_out) {
            results[i] = result;
        }
    }
    stats.failed = results.iter().filter(|r| r.is_err()).count();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::store::SynopsisStore;
    use dwmaxerr_core::query::ErrorBound;
    use dwmaxerr_datagen::{uniform, Distribution};
    use dwmaxerr_runtime::NodeTopology;
    use dwmaxerr_wavelet::transform::forward;
    use dwmaxerr_wavelet::Synopsis;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn reader() -> StoreReader {
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, &[0, 1, 3, 5, 6]).unwrap();
        let store = SynopsisStore::new("batch-test", 4);
        store.publish(&syn, ErrorBound::abs(8.0), 0.0, 1).unwrap();
        store.reader().unwrap()
    }

    #[test]
    fn batch_matches_singles_bitwise_in_input_order() {
        let r = reader();
        let queries = vec![
            Query::Point { x: 7 },
            Query::RangeSum { l: 2, h: 6 },
            Query::Point { x: 0 },
            Query::RangeSum { l: 0, h: 7 },
            Query::Point { x: 7 },
        ];
        let batch = execute(&r, &queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (a, q) in batch.iter().zip(&queries) {
            let single = match *q {
                Query::Point { x } => r.point(x).unwrap(),
                Query::RangeSum { l, h } => r.range_sum(l, h).unwrap(),
            };
            assert_eq!(a.value.to_bits(), single.value.to_bits());
            assert_eq!(a.err_abs, single.err_abs);
            assert_eq!(a.version, 1);
        }
    }

    #[test]
    fn grouping_and_memoization_engage() {
        let r = reader();
        // 3 repeats of the same hot point + two distinct queries in the
        // same shard + one in another shard.
        let queries = vec![
            Query::Point { x: 1 },
            Query::Point { x: 1 },
            Query::Point { x: 1 },
            Query::Point { x: 0 },
            Query::Point { x: 6 },
        ];
        let (results, stats) = execute_partial_with_stats(&r, &queries);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(stats.memo_hits, 2);
        assert_eq!(stats.evaluated, 3);
        assert_eq!(stats.shard_groups, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        let r = reader();
        // A mix with repeats, cross-shard ranges, and hot points — every
        // thread count must reproduce the serial answers and stats.
        let queries = vec![
            Query::Point { x: 1 },
            Query::RangeSum { l: 0, h: 7 },
            Query::Point { x: 1 },
            Query::Point { x: 6 },
            Query::RangeSum { l: 2, h: 5 },
            Query::Point { x: 0 },
            Query::RangeSum { l: 0, h: 7 },
            Query::Point { x: 7 },
        ];
        let (serial, serial_stats) = execute_partial_with_stats(&r, &queries);
        let serial: Vec<Answer> = serial.into_iter().collect::<Result<_, _>>().unwrap();
        for threads in [1, 2, 4] {
            let pool = Executor::new(threads);
            let (par, par_stats) = execute_partial_routed(&r, &queries, None, Some(&pool));
            assert_eq!(par_stats, serial_stats, "stats at threads={threads}");
            for (a, b) in par.iter().zip(&serial) {
                let a = a.as_ref().expect("valid query answered");
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.err_abs, b.err_abs);
                assert_eq!(a.version, b.version);
            }
        }
    }

    #[test]
    fn malformed_query_fails_the_whole_strict_batch() {
        let r = reader();
        assert!(matches!(
            execute(&r, &[Query::Point { x: 99 }]),
            Err(ServeError::OutOfRange { index: 99, n: 8 })
        ));
        assert!(matches!(
            execute(&r, &[Query::RangeSum { l: 4, h: 2 }]),
            Err(ServeError::InvertedRange { l: 4, h: 2 })
        ));
        assert!(execute(&r, &[]).unwrap().is_empty());
        // An inclusive single-point range is valid — only l > h errors.
        assert!(execute(&r, &[Query::RangeSum { l: 3, h: 3 }]).is_ok());
    }

    /// The headline regression: strict and partial run against the SAME
    /// mixed input. Strict poisons the batch; partial errors the two
    /// malformed queries individually and answers every sibling
    /// bitwise-identically to a clean strict batch.
    #[test]
    fn partial_isolates_malformed_queries_strict_does_not() {
        let r = reader();
        let mixed = vec![
            Query::Point { x: 1 },
            Query::Point { x: 99 }, // malformed: out of range
            Query::RangeSum { l: 2, h: 6 },
            Query::RangeSum { l: 4, h: 2 }, // malformed: inverted
            Query::Point { x: 7 },
        ];
        // Strict: the whole batch fails on the first malformed query.
        assert!(matches!(
            execute(&r, &mixed),
            Err(ServeError::OutOfRange { index: 99, n: 8 })
        ));

        // Partial: per-slot results in input order.
        let (results, stats) = execute_partial_with_stats(&r, &mixed);
        assert_eq!(results.len(), mixed.len());
        assert_eq!(stats.failed, 2);
        assert!(matches!(
            results[1],
            Err(ServeError::OutOfRange { index: 99, n: 8 })
        ));
        assert!(matches!(
            results[3],
            Err(ServeError::InvertedRange { l: 4, h: 2 })
        ));

        // Every valid sibling matches the strict path on the valid
        // subset, bit for bit.
        let valid = vec![mixed[0], mixed[2], mixed[4]];
        let strict = execute(&r, &valid).unwrap();
        for (got, want) in [&results[0], &results[2], &results[4]].iter().zip(&strict) {
            let got = got.as_ref().expect("valid sibling answered");
            assert_eq!(got.value.to_bits(), want.value.to_bits());
            assert_eq!(got.err_abs, want.err_abs);
            assert_eq!(got.version, want.version);
        }
    }

    #[test]
    fn partial_matches_strict_on_all_valid_input() {
        let r = reader();
        let queries = vec![
            Query::Point { x: 1 },
            Query::RangeSum { l: 0, h: 7 },
            Query::Point { x: 1 },
            Query::Point { x: 6 },
            Query::RangeSum { l: 3, h: 3 },
        ];
        let strict = execute(&r, &queries).unwrap();
        let (partial, partial_stats) = execute_partial_with_stats(&r, &queries);
        assert_eq!(partial_stats.failed, 0);
        for (got, want) in partial.iter().zip(&strict) {
            let got = got.as_ref().unwrap();
            assert_eq!(got.value.to_bits(), want.value.to_bits());
        }
    }

    #[test]
    fn parallel_partial_is_bit_identical_to_serial_partial() {
        let r = reader();
        let mixed = vec![
            Query::Point { x: 1 },
            Query::Point { x: 99 },
            Query::RangeSum { l: 0, h: 7 },
            Query::Point { x: 1 },
            Query::RangeSum { l: 6, h: 1 },
            Query::Point { x: 6 },
            Query::Point { x: 0 },
        ];
        let (serial, serial_stats) = execute_partial_with_stats(&r, &mixed);
        for threads in [1, 2, 4] {
            let pool = Executor::new(threads);
            let (par, par_stats) = execute_partial_routed(&r, &mixed, None, Some(&pool));
            assert_eq!(par_stats, serial_stats, "stats at threads={threads}");
            for (a, b) in par.iter().zip(&serial) {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.value.to_bits(), b.value.to_bits());
                        assert_eq!(a.version, b.version);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    _ => panic!("slot kind diverged at threads={threads}"),
                }
            }
        }
    }

    #[test]
    fn routed_partial_isolates_dead_shards_and_counts_fanout() {
        let r = reader();
        // 4 shards over 4 nodes, no replication: shard j on node j.
        let topo = NodeTopology {
            nodes: 4,
            slots_per_node: 2,
        };
        let mut router = ShardRouter::new(4, topo, 1).unwrap();
        let queries = vec![
            Query::Point { x: 0 }, // shard 0
            Query::Point { x: 3 }, // shard 1
            Query::Point { x: 5 }, // shard 2
            Query::Point { x: 7 }, // shard 3
        ];
        let (ok, stats) = execute_partial_routed(&r, &queries, Some(&router), None);
        assert!(ok.iter().all(Result::is_ok));
        assert_eq!(stats.nodes, 4);

        // Kill node 2: only shard 2's query errors, siblings answer.
        router.mark_down(2);
        let (results, stats) = execute_partial_routed(&r, &queries, Some(&router), None);
        assert!(matches!(
            results[2],
            Err(ServeError::ShardUnavailable { shard: 2 })
        ));
        for i in [0, 1, 3] {
            assert!(results[i].is_ok(), "sibling {i} must still answer");
        }
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.nodes, 3);

        // With replication 2 the same kill is invisible to callers.
        let mut replicated = ShardRouter::new(4, topo, 2).unwrap();
        replicated.mark_down(2);
        let (results, stats) = execute_partial_routed(&r, &queries, Some(&replicated), None);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.nodes, 3, "shard 2 failed over to node 3");
    }

    /// The evaluator as it was before groups were sorted: an
    /// `Option` slot per query, a `HashMap` memo per group, a second
    /// vector for the results — bodies unchanged. Only the routing rule
    /// is the one the evaluator uses today (both endpoint shards of a
    /// range), since that rule is the bug fix and not what this oracle
    /// is for.
    fn execute_with_hash_memo(
        reader: &StoreReader,
        queries: &[Query],
        router: Option<&ShardRouter>,
        pool: Option<&Executor>,
    ) -> (Vec<Result<Answer, ServeError>>, BatchStats) {
        let sharded = reader.sharded();
        let mut stats = BatchStats::default();
        let mut slots: Vec<Option<Result<Answer, ServeError>>> = vec![None; queries.len()];

        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); sharded.num_shards()];
        let mut read = vec![false; sharded.num_shards()];
        for (i, &q) in queries.iter().enumerate() {
            match shards_of(sharded, q) {
                Err(e) => slots[i] = Some(Err(e)),
                Ok((shard, other)) => {
                    if let Some(r) = router {
                        if let Err(e) = r.route(shard).and_then(|_| r.route(other)) {
                            slots[i] = Some(Err(e));
                            continue;
                        }
                    }
                    read[shard] = true;
                    read[other] = true;
                    buckets[shard].push(i);
                }
            }
        }
        if let Some(r) = router {
            stats.nodes = r.fanout((0..read.len()).filter(|&s| read[s]));
        }
        buckets.retain(|b| !b.is_empty());

        type PartialGroup = (Vec<Result<Answer, ServeError>>, usize, usize);
        let eval_group = |bucket: &Vec<usize>| -> PartialGroup {
            let mut memo: HashMap<Query, Answer> = HashMap::new();
            let mut out = Vec::with_capacity(bucket.len());
            let mut hits = 0usize;
            let mut evaluated = 0usize;
            for &i in bucket {
                let q = queries[i];
                if let Some(&hit) = memo.get(&q) {
                    hits += 1;
                    out.push(Ok(hit));
                    continue;
                }
                evaluated += 1;
                let fresh = match q {
                    Query::Point { x } => reader.point(x),
                    Query::RangeSum { l, h } => reader.range_sum(l, h),
                };
                if let Ok(a) = fresh {
                    memo.insert(q, a);
                }
                out.push(fresh);
            }
            (out, hits, evaluated)
        };
        let group_results: Vec<PartialGroup> = match pool {
            Some(pool) => pool.run_indexed(&buckets, |_, bucket| eval_group(bucket)),
            None => buckets.iter().map(eval_group).collect(),
        };

        for (bucket, (group_out, hits, evaluated)) in buckets.iter().zip(group_results) {
            stats.shard_groups += 1;
            stats.memo_hits += hits;
            stats.evaluated += evaluated;
            for (&i, result) in bucket.iter().zip(group_out) {
                slots[i] = Some(result);
            }
        }
        let results: Vec<Result<Answer, ServeError>> = slots
            .into_iter()
            .map(|s| s.expect("every query routed to a bucket or an error slot"))
            .collect();
        stats.failed = results.iter().filter(|r| r.is_err()).count();
        (results, stats)
    }

    /// Zipf targets (so batches repeat themselves), a quarter of them
    /// ranges of width < 64, one query in 16 malformed either way.
    fn zipf_batch(n: usize, count: usize, seed: u64) -> Vec<Query> {
        let targets = Distribution::Zipf(1.1).generate(count, (n - 1) as f64, seed);
        let widths = uniform(count, 63.0, seed ^ 0x9e37);
        (0..count)
            .map(|i| {
                let x = (targets[i] as usize).min(n - 1);
                match i % 16 {
                    7 => Query::Point { x: n + x },
                    15 => Query::RangeSum { l: x + 1, h: x },
                    3 | 11 => Query::RangeSum {
                        l: x,
                        h: (x + widths[i] as usize).min(n - 1),
                    },
                    _ => Query::Point { x },
                }
            })
            .collect()
    }

    #[test]
    fn sorted_groups_report_what_the_hash_memo_reported() {
        let n = 1 << 12;
        let values = uniform(n, 200.0, 3);
        let entries = (0..n as u32)
            .filter(|i| i % 5 != 1)
            .map(|i| (i, values[i as usize] - 100.0))
            .collect();
        let syn = Synopsis::from_entries(n, entries).unwrap();
        let store = SynopsisStore::new("batch-oracle", 16);
        store.publish(&syn, ErrorBound::abs(2.5), 0.0, 9).unwrap();
        let r = store.reader().unwrap();

        let topo = NodeTopology {
            nodes: 4,
            slots_per_node: 2,
        };
        let healthy = ShardRouter::new(16, topo, 1).unwrap();
        let mut degraded = healthy.clone();
        degraded.mark_down(1);
        let pools: Vec<Option<Executor>> =
            vec![None, Some(Executor::new(2)), Some(Executor::new(4))];

        for seed in 0..4u64 {
            let queries = zipf_batch(n, 1500, seed);
            for router in [None, Some(&healthy), Some(&degraded)] {
                let (want, want_stats) = execute_with_hash_memo(&r, &queries, router, None);
                assert!(want_stats.memo_hits > 0 && want_stats.failed > 0);
                for pool in &pools {
                    let (got, got_stats) =
                        execute_partial_routed(&r, &queries, router, pool.as_ref());
                    assert_eq!(got_stats, want_stats, "seed {seed}");
                    assert_eq!(got.len(), want.len());
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        match (g, w) {
                            (Ok(g), Ok(w)) => {
                                assert_eq!(g.value.to_bits(), w.value.to_bits(), "slot {i}");
                                assert_eq!(g, w, "slot {i}: bounds and version");
                            }
                            _ => assert_eq!(g, w, "slot {i}"),
                        }
                    }
                }
            }
        }
    }

    /// A range reads the shards of both its endpoints, so it needs both
    /// routable — it used to be routed by its left endpoint alone.
    #[test]
    fn routed_range_needs_both_endpoint_shards() {
        let r = reader();
        // 4 two-leaf shards over 4 nodes, no replication: shard j on node j.
        let topo = NodeTopology {
            nodes: 4,
            slots_per_node: 2,
        };
        let mut router = ShardRouter::new(4, topo, 1).unwrap();
        router.mark_down(2);
        let queries = vec![
            Query::RangeSum { l: 1, h: 5 }, // shards 0 and 2
            Query::Point { x: 5 },          // shard 2
            Query::RangeSum { l: 0, h: 1 }, // shard 0 alone
            Query::RangeSum { l: 1, h: 2 }, // shards 0 and 1
        ];
        let (results, stats) = execute_partial_routed(&r, &queries, Some(&router), None);
        for dead in [0, 1] {
            assert_eq!(
                results[dead],
                Err(ServeError::ShardUnavailable { shard: 2 }),
                "slot {dead}"
            );
        }
        for live in [2, 3] {
            let single = match queries[live] {
                Query::RangeSum { l, h } => r.range_sum(l, h).unwrap(),
                Query::Point { x } => r.point(x).unwrap(),
            };
            assert_eq!(results[live], Ok(single), "slot {live} must still answer");
        }
        assert_eq!(stats.failed, 2);
        assert_eq!(
            stats.shard_groups, 1,
            "both live ranges group under shard 0"
        );
        assert_eq!(stats.nodes, 2, "nodes 0 and 1: the right endpoint counts");

        // Both endpoints dead: the left one is named.
        router.mark_down(0);
        let (results, _) = execute_partial_routed(&r, &queries[..1], Some(&router), None);
        assert_eq!(results[0], Err(ServeError::ShardUnavailable { shard: 0 }));
    }
}
