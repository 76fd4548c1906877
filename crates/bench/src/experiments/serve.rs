//! Serving-layer benchmark: sustained QPS of the sharded synopsis store
//! under uniform and zipf query mixes, swept against shard count and
//! batch size.
//!
//! One sweep builds a single exact DGreedyAbs synopsis over a WD-like
//! window, then for every `(mix, shards, batch)` cell publishes it into
//! a fresh [`SynopsisStore`] and drains a deterministic query stream
//! (75 % points, 25 % range sums) through the batched executor,
//! measuring wall-clock queries per second. Query *targets* follow the
//! mix: uniform indices, or zipf-skewed indices whose hot keys let the
//! in-batch memo engage.
//!
//! The benchmark doubles as a correctness sweep: every answer is
//! checked against the exact value computed from the raw window (points
//! via direct lookup, ranges via a prefix-sum array), and any answer
//! outside its advertised `err_abs` bound counts as a violation — the
//! smoke gate requires zero.

use std::time::Instant;

use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_core::query::ErrorBound;
use dwmaxerr_datagen::{wd_like, Distribution};
use dwmaxerr_runtime::trace::json;
use dwmaxerr_runtime::{Cluster, ClusterConfig};
use dwmaxerr_serve::{execute_with_stats, Query, SynopsisStore};

use crate::report::{bench_document, Table};

/// One `(mix, shards, batch)` cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServeSample {
    /// Query-mix label (`"uniform"` or `"zipf"`).
    pub mix: &'static str,
    /// Shard count the store re-sharded into.
    pub shards: usize,
    /// Queries per batch handed to the executor.
    pub batch: usize,
    /// Sustained wall-clock queries per second.
    pub qps: f64,
    /// Fraction of queries answered from the in-batch memo.
    pub memo_hit_rate: f64,
    /// Answers outside their advertised bound (must be 0).
    pub bound_violations: usize,
    /// Queries drained through this cell.
    pub queries: usize,
}

/// The whole sweep plus the build it served.
#[derive(Debug)]
pub struct ServeSweep {
    /// One row per `(mix, shards, batch)` cell.
    pub samples: Vec<ServeSample>,
    /// Served window length.
    pub n: usize,
    /// Synopsis budget.
    pub budget: usize,
    /// Retained coefficients in the served synopsis.
    pub synopsis_size: usize,
    /// Advertised per-point absolute bound (`estimated_error +
    /// bucket_width`).
    pub err_abs: f64,
}

/// Deterministic query stream: 75 % points, 25 % range sums, targets
/// drawn from `dist` over `0..n`. Range widths are capped at 256 so a
/// range stays a path-union evaluation, not a scan.
fn query_stream(dist: Distribution, n: usize, count: usize, seed: u64) -> Vec<Query> {
    let targets = dist.generate(count, (n - 1) as f64, seed);
    let widths = Distribution::Uniform.generate(count, 255.0, seed ^ 0x9e37);
    targets
        .iter()
        .zip(&widths)
        .enumerate()
        .map(|(i, (&t, &w))| {
            let x = (t as usize).min(n - 1);
            if i % 4 == 3 {
                let h = (x + w as usize).min(n - 1);
                Query::RangeSum { l: x, h }
            } else {
                Query::Point { x }
            }
        })
        .collect()
}

/// Exact answers from the raw window: direct lookup for points, a
/// prefix-sum array for ranges.
fn exact_value(data: &[f64], prefix: &[f64], q: Query) -> f64 {
    match q {
        Query::Point { x } => data[x],
        Query::RangeSum { l, h } => prefix[h + 1] - prefix[l],
    }
}

/// Runs the sweep. `smoke` shrinks the window and query count so CI
/// finishes in seconds.
pub fn serve_sweep(smoke: bool) -> ServeSweep {
    let n = if smoke { 1 << 12 } else { 1 << 16 };
    let budget = n / 16;
    let queries_per_cell = if smoke { 20_000 } else { 200_000 };
    let shard_counts: &[usize] = &[1, 4, 16, 64];
    let batch_sizes: &[usize] = &[1, 64, 1024];
    let mixes: &[(&'static str, Distribution)] = &[
        ("uniform", Distribution::Uniform),
        ("zipf", Distribution::Zipf(1.1)),
    ];

    let data = wd_like(n, 2e-4, 17);
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &v) in data.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
    }

    let cfg = DGreedyAbsConfig {
        base_leaves: (n / 16).max(2),
        bucket_width: 1e-6,
        reducers: 4,
        max_candidates: None,
    };
    let build = dgreedy_abs(&Cluster::new(ClusterConfig::default()), &data, budget, &cfg)
        .expect("serve bench build");
    let bound = ErrorBound::from_dgreedy_abs(&build, &cfg);
    let err_abs = bound.err_abs.expect("DGreedyAbs carries an abs bound");

    let mut samples = Vec::new();
    for &(mix, dist) in mixes {
        let stream = query_stream(dist, n, queries_per_cell, 29);
        for &shards in shard_counts {
            let store = SynopsisStore::new("serve-bench", shards);
            store
                .publish(&build.synopsis, bound, 0.0, 1)
                .expect("publish");
            let reader = store.reader().expect("published");
            for &batch in batch_sizes {
                let mut memo_hits = 0usize;
                let mut violations = 0usize;
                let start = Instant::now();
                for chunk in stream.chunks(batch) {
                    let (answers, stats) = execute_with_stats(&reader, chunk).expect("valid batch");
                    memo_hits += stats.memo_hits;
                    for (a, &q) in answers.iter().zip(chunk) {
                        if !a.bounds_hold(exact_value(&data, &prefix, q), 1e-6) {
                            violations += 1;
                        }
                    }
                }
                let elapsed = start.elapsed().as_secs_f64();
                samples.push(ServeSample {
                    mix,
                    shards,
                    batch,
                    qps: stream.len() as f64 / elapsed.max(1e-9),
                    memo_hit_rate: memo_hits as f64 / stream.len() as f64,
                    bound_violations: violations,
                    queries: stream.len(),
                });
            }
        }
    }

    ServeSweep {
        samples,
        n,
        budget,
        synopsis_size: build.synopsis.size(),
        err_abs,
    }
}

impl ServeSweep {
    /// Human-readable sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Synopsis serving (n = {}, B = {}, retained = {}, err_abs = {:.3})",
                self.n, self.budget, self.synopsis_size, self.err_abs
            ),
            "the sharded store answers bounded point/range queries lock-free; \
             batching amortizes descent and zipf mixes feed the memo",
            &["mix", "shards", "batch", "QPS", "memo %", "violations"],
        );
        for s in &self.samples {
            t.row(vec![
                s.mix.to_string(),
                format!("{}", s.shards),
                format!("{}", s.batch),
                format!("{:.0}", s.qps),
                format!("{:.1}", 100.0 * s.memo_hit_rate),
                format!("{}", s.bound_violations),
            ]);
        }
        t.note(
            "violations: answers outside their advertised err_abs bound against \
             the raw window (must be 0); QPS is wall-clock over the batched \
             executor with answer verification inside the timed loop, so \
             absolute QPS is conservative",
        );
        t
    }

    /// The `BENCH_serve.json` document.
    pub fn to_json(&self, smoke: bool) -> String {
        let header = [
            ("n", self.n.into()),
            ("budget", self.budget.into()),
            ("synopsis_size", self.synopsis_size.into()),
            ("err_abs", self.err_abs.into()),
        ];
        let rows = self
            .samples
            .iter()
            .map(|x| {
                json::object([
                    ("mix", x.mix.into()),
                    ("shards", x.shards.into()),
                    ("batch", x.batch.into()),
                    ("qps", x.qps.into()),
                    ("memo_hit_rate", x.memo_hit_rate.into()),
                    ("bound_violations", x.bound_violations.into()),
                    ("queries", x.queries.into()),
                ])
            })
            .collect();
        bench_document("serve", smoke, &ClusterConfig::default(), header, rows)
    }
}
