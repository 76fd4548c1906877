//! Batched query execution: every distinct query of a batch evaluated
//! once, in a strict and a lenient (per-query) flavour.
//!
//! A serving tier rarely answers one query at a time — it drains a
//! batch from the request queue. Skewed (zipf) mixes hit the same hot
//! leaves and ranges over and over, so the evaluator answers each
//! *distinct* query once and copies the answer to its repeats. That is
//! sound precisely because a batch runs against a single pinned snapshot
//! — the same query cannot legally produce two different answers within
//! one batch.
//!
//! The repeats are found by an open-addressed table of first-occurrence
//! positions, keyed by the query packed into one `u128` and hashed with a
//! multiplicative hash seeded once per batch from
//! [`RandomState`] — so no client can choose keys that collide. The
//! distinct queries keep their first-occurrence order, so nothing
//! observable depends on the seed.
//!
//! Each query is validated once, by `Query::validate` as it is routed;
//! past that, evaluating it cannot fail. Answers are returned in input
//! order, every one stamped with the reader's pinned store version. A
//! batch never observes a snapshot swap part-way through: the
//! [`StoreReader`] holds its `Arc` for the duration.
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
//! Given an [`Executor`], the distinct queries are evaluated
//! in chunks across it, collected positionally, and copied out in input
//! order. The answers *and* the [`BatchStats`] are bit-identical at any
//! thread count, with or without a pool.

#![warn(clippy::too_many_lines)]

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

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

impl Query {
    /// `self` when an `n`-value synopsis can answer it; otherwise the
    /// refusal: a range with `l > h` ([`ServeError::InvertedRange`]), or
    /// an index at or past `n` ([`ServeError::OutOfRange`]). Every entry
    /// point validates here, so evaluation past it cannot fail.
    pub(crate) fn validate(self, n: usize) -> Result<Query, ServeError> {
        match self {
            Query::Point { x } if x >= n => Err(ServeError::OutOfRange { index: x, n }),
            Query::RangeSum { l, h } if l > h => Err(ServeError::InvertedRange { l, h }),
            Query::RangeSum { h, .. } if h >= n => Err(ServeError::OutOfRange { index: h, n }),
            _ => Ok(self),
        }
    }
}

/// What one batch execution did — exposed so benches and tests can
/// verify the dedupe actually engages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Distinct primary shards (a point's, a range's left endpoint's) of
    /// the batch's answered queries.
    pub shard_groups: usize,
    /// Queries answered by copying the answer of an identical query
    /// earlier in the batch instead of a fresh evaluation.
    pub memo_hits: usize,
    /// Queries evaluated against shard data: the batch's distinct valid
    /// queries.
    pub evaluated: usize,
    /// Queries that errored individually (partial flavour only; the
    /// strict flavour fails the batch instead).
    pub failed: usize,
    /// Distinct live nodes the batch's shards routed to (0 when no
    /// router was consulted) — the Afrati–Ullman fan-out side of the
    /// replication tradeoff.
    pub nodes: usize,
}

/// Distinct queries per evaluation task handed to the [`Executor`].
const CHUNK: usize = 256;

/// An empty slot of the dedupe table.
const EMPTY: u32 = u32::MAX;

/// Validates `q` against the pinned representation and routes it: the
/// shards it reads, primary first (twice the same for a point or a range
/// inside one shard), each with a live replica when there is a router.
fn shards_of(
    sharded: &ShardedSynopsis,
    router: Option<&ShardRouter>,
    q: Query,
) -> Result<(usize, usize), ServeError> {
    let (primary, other) = match q.validate(sharded.n())? {
        Query::Point { x } => sharded.shards_of_range(x, x),
        Query::RangeSum { l, h } => sharded.shards_of_range(l, h),
    };
    if let Some(r) = router {
        r.route(primary)?;
        if other != primary {
            r.route(other)?;
        }
    }
    Ok((primary, other))
}

/// A query as one integer, equal for equal queries and distinct
/// otherwise (`h + 1 >= 1` keeps `RangeSum { l: x, h: x }` apart from
/// `Point { x }`).
fn packed(q: Query) -> u128 {
    match q {
        Query::Point { x } => (x as u128) << 64,
        Query::RangeSum { l, h } => (l as u128) << 64 | (h as u128 + 1),
    }
}

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output
/// bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The distinct queries of one batch in first-occurrence order, found
/// through an open-addressed, linearly probed table of their positions,
/// at most half full.
struct Distinct {
    queries: Vec<Query>,
    table: Vec<u32>,
    /// `64 - log2(table.len())`: a hash's top bits index the table.
    shift: u32,
    seed: [u64; 2],
}

impl Distinct {
    /// Room for the distinct queries among `n`, under a fresh seed.
    fn with_capacity(n: usize) -> Distinct {
        let state = RandomState::new();
        Distinct::seeded(n, [state.hash_one(0u8), state.hash_one(1u8)])
    }

    /// Room for the distinct queries among `n`, under `seed`.
    fn seeded(n: usize, seed: [u64; 2]) -> Distinct {
        assert!(
            n < EMPTY as usize,
            "a batch holds fewer than 2^32 - 1 queries"
        );
        let slots = (2 * n).next_power_of_two().max(2);
        Distinct {
            queries: Vec::with_capacity(n),
            table: vec![EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
            seed,
        }
    }

    /// Where `q`'s probe sequence starts. Both halves of the key enter one
    /// 64 × 64 → 128-bit product whose halves are folded together, so keys
    /// that agree in either half still spread; the fold goes through a
    /// 64-bit finalizer (MurmurHash3's `fmix64`) before its top bits index
    /// the table, because the folded product alone clusters under about
    /// one seed in 150 (DESIGN.md §14, "The seed and hostile keys").
    fn home(&self, q: Query) -> usize {
        let key = packed(q);
        let a = (key >> 64) as u64 ^ self.seed[0];
        let b = key as u64 ^ self.seed[1];
        let product = u128::from(a) * u128::from(b);
        (fmix64(product as u64 ^ (product >> 64) as u64) >> self.shift) as usize
    }

    /// `q`'s position in first-occurrence order, appending it when new.
    fn position(&mut self, q: Query) -> u32 {
        let mask = self.table.len() - 1;
        let mut i = self.home(q);
        loop {
            match self.table[i] {
                EMPTY => {
                    let pos = self.queries.len() as u32;
                    self.table[i] = pos;
                    self.queries.push(q);
                    return pos;
                }
                pos if self.queries[pos as usize] == q => return pos,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Executes `queries` against the reader's pinned snapshot, each distinct
/// query once, answers in input order. Strict: the first malformed query
/// (in input order) fails the whole batch. See the [module docs](self).
pub fn execute(reader: &StoreReader, queries: &[Query]) -> Result<Vec<Answer>, ServeError> {
    let (results, _) = execute_partial_routed(reader, queries, None, None);
    results.into_iter().collect()
}

/// Lenient batch execution with its [`BatchStats`]: every query gets its
/// own result slot, in input order. Malformed queries error individually;
/// their valid siblings are still answered. Never fails as a whole.
pub fn execute_partial_with_stats(
    reader: &StoreReader,
    queries: &[Query],
) -> (Vec<Result<Answer, ServeError>>, BatchStats) {
    execute_partial_routed(reader, queries, None, None)
}

/// The evaluator behind every entry point: optional shard→node routing
/// (queries on unroutable shards error individually) and optional chunked
/// evaluation across `pool` (results and stats bit-identical without it).
/// This is what the networked front calls per request.
pub fn execute_partial_routed(
    reader: &StoreReader,
    queries: &[Query],
    router: Option<&ShardRouter>,
    pool: Option<&Executor>,
) -> (Vec<Result<Answer, ServeError>>, BatchStats) {
    let sharded = reader.sharded();
    let mut read = vec![false; sharded.num_shards()];
    let mut primary = vec![false; sharded.num_shards()];
    let mut distinct = Distinct::with_capacity(queries.len());

    // Validate, route and dedupe in input order: a slot holds its query's
    // position among the distinct ones, or its own error — nothing a
    // single query does here can touch its siblings.
    let slots: Vec<Result<u32, ServeError>> = queries
        .iter()
        .map(|&q| {
            let (p, o) = shards_of(sharded, router, q)?;
            primary[p] = true;
            read[p] = true;
            read[o] = true;
            Ok(distinct.position(q))
        })
        .collect();

    let chunks: Vec<&[Query]> = distinct.queries.chunks(CHUNK).collect();
    let eval = |_: usize, chunk: &&[Query]| -> Vec<Answer> {
        chunk.iter().map(|&q| reader.answer(q)).collect()
    };
    let answers: Vec<Vec<Answer>> = match pool {
        Some(pool) => pool.run_indexed(&chunks, eval),
        None => chunks
            .iter()
            .enumerate()
            .map(|(c, chunk)| eval(c, chunk))
            .collect(),
    };

    let failed = slots.iter().filter(|s| s.is_err()).count();
    let stats = BatchStats {
        shard_groups: primary.iter().filter(|&&p| p).count(),
        memo_hits: queries.len() - failed - distinct.queries.len(),
        evaluated: distinct.queries.len(),
        failed,
        nodes: router.map_or(0, |r| r.fanout((0..read.len()).filter(|&s| read[s]))),
    };
    let results = slots
        .into_iter()
        .map(|slot| slot.map(|d| answers[d as usize / CHUNK][d as usize % CHUNK]))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

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
    fn repeats_and_shard_groups_are_counted() {
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

    /// The definition: a slot is the reader's own answer to its query, or
    /// the error that refuses it (validation, then routing of the shards of
    /// both endpoints); the stats are counts over sets.
    fn oracle(
        reader: &StoreReader,
        queries: &[Query],
        router: Option<&ShardRouter>,
    ) -> (Vec<Result<Answer, ServeError>>, BatchStats) {
        let sharded = reader.sharded();
        let (mut primaries, mut read) = (HashSet::new(), HashSet::new());
        let mut answered = Vec::new();
        let results: Vec<Result<Answer, ServeError>> = queries
            .iter()
            .map(|&q| {
                let (answer, first, last) = match q {
                    Query::Point { x } => (reader.point(x)?, x, x),
                    Query::RangeSum { l, h } => (reader.range_sum(l, h)?, l, h),
                };
                let shards = [sharded.shard_of_leaf(first), sharded.shard_of_leaf(last)];
                if let Some(r) = router {
                    for s in shards {
                        r.route(s)?;
                    }
                }
                primaries.insert(shards[0]);
                read.extend(shards);
                answered.push(q);
                Ok(answer)
            })
            .collect();
        let distinct: HashSet<Query> = answered.iter().copied().collect();
        let stats = BatchStats {
            shard_groups: primaries.len(),
            memo_hits: answered.len() - distinct.len(),
            evaluated: distinct.len(),
            failed: queries.len() - answered.len(),
            nodes: router.map_or(0, |r| r.fanout(read.iter().copied())),
        };
        (results, stats)
    }

    /// Every pool size, and none, against [`oracle`]: answers bit for bit,
    /// stats field for field.
    fn assert_matches_the_definition(
        r: &StoreReader,
        queries: &[Query],
        router: Option<&ShardRouter>,
    ) {
        let (want, want_stats) = oracle(r, queries, router);
        let pools: Vec<Option<Executor>> = [None, Some(1), Some(2), Some(3), Some(4)]
            .into_iter()
            .map(|t| t.map(Executor::new))
            .collect();
        for pool in &pools {
            let threads = pool.as_ref().map(Executor::threads);
            let (got, got_stats) = execute_partial_routed(r, queries, router, pool.as_ref());
            assert_eq!(got_stats, want_stats, "threads {threads:?}");
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if let (Ok(g), Ok(w)) = (g, w) {
                    assert_eq!(g.value.to_bits(), w.value.to_bits(), "slot {i}");
                }
                assert_eq!(g, w, "slot {i}, threads {threads:?}");
            }
        }
    }

    /// A published store over `n` values, 16 shards.
    fn store_of(n: usize) -> StoreReader {
        let values = uniform(n, 200.0, 3);
        let entries = (0..n as u32)
            .filter(|i| i % 5 != 1)
            .map(|i| (i, values[i as usize] - 100.0))
            .collect();
        let syn = Synopsis::from_entries(n, entries).unwrap();
        let store = SynopsisStore::new("batch-oracle", 16);
        store.publish(&syn, ErrorBound::abs(2.5), 0.0, 9).unwrap();
        store.reader().unwrap()
    }

    /// Targets from `dist`, a quarter of them ranges of width < 64, one
    /// query in 16 malformed either way.
    fn batch_of(dist: Distribution, n: usize, count: usize, seed: u64) -> Vec<Query> {
        let targets = dist.generate(count, (n - 1) as f64, seed);
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
    fn batches_match_the_definition_at_every_pool_size() {
        let n = 1 << 12;
        let r = store_of(n);
        let topo = NodeTopology {
            nodes: 4,
            slots_per_node: 2,
        };
        let healthy = ShardRouter::new(16, topo, 1).unwrap();
        let mut degraded = healthy.clone();
        degraded.mark_down(1);

        for seed in 0..3u64 {
            let zipf = batch_of(Distribution::Zipf(1.1), n, 1500, seed);
            let flat = batch_of(Distribution::Uniform, n, 1500, seed);
            let same = vec![Query::RangeSum { l: 17, h: 90 }; 1500];
            for queries in [zipf, flat, same] {
                for router in [None, Some(&healthy), Some(&degraded)] {
                    assert_matches_the_definition(&r, &queries, router);
                }
            }
        }
    }

    /// Keys that agree in one half: 8 192 points (`x << 64`, every low bit
    /// zero) and 8 192 ranges sharing `l`, each sent twice. A hash that
    /// reads one half of the key piles one of the two sets into a single
    /// probe run.
    #[test]
    fn keys_agreeing_in_one_half_still_spread() {
        let n = 1 << 13;
        let once: Vec<Query> = (0..n)
            .map(|x| Query::Point { x })
            .chain((0..n).map(|h| Query::RangeSum { l: 0, h }))
            .collect();
        let queries = [once.clone(), once].concat();

        // Seeds under which the folded product alone put the longest
        // displacement at 16 383, 2, 147, 91, 490, 839 and 488.
        let seeds = [
            [1, 2],
            [0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9],
            [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210],
            [0x5af2_851a_27a3_e432, 0x3a87_2953_c60d_5676],
            [0x1af2_8880_76e8_3f91, 0xfea5_6e88_4979_ad0e],
            [0x03a5_3de7_b244_d093, 0xe8ba_2570_2e90_f7a9],
            [0xb8d0_90b1_719b_b0d0, 0x5e50_dedd_b711_d9d7],
        ];
        for seed in seeds {
            let mut distinct = Distinct::seeded(queries.len(), seed);
            for &q in &queries {
                distinct.position(q);
            }
            assert_eq!(distinct.queries.len(), 2 * n);
            let mask = distinct.table.len() - 1;
            let longest = (0..distinct.table.len())
                .filter(|&i| distinct.table[i] != EMPTY)
                .map(|i| {
                    let q = distinct.queries[distinct.table[i] as usize];
                    i.wrapping_sub(distinct.home(q)) & mask
                })
                .max();
            assert!(
                longest < Some(64),
                "seed {seed:x?}: longest probe displacement {longest:?}"
            );
        }

        let r = store_of(n);
        let (_, stats) = execute_partial_with_stats(&r, &queries);
        assert_eq!((stats.memo_hits, stats.evaluated), (2 * n, 2 * n));
        assert_matches_the_definition(&r, &queries, None);
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
            "both live ranges have their primary in shard 0"
        );
        assert_eq!(stats.nodes, 2, "nodes 0 and 1: the right endpoint counts");

        // Both endpoints dead: the left one is named.
        router.mark_down(0);
        let (results, _) = execute_partial_routed(&r, &queries[..1], Some(&router), None);
        assert_eq!(results[0], Err(ServeError::ShardUnavailable { shard: 0 }));
    }
}
