//! The benchmark's contract in one place: workload names and sizes,
//! metric names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root states the same tables for the
//! acceptance driver; a unit test below keeps the two from drifting.

/// Threads the build clusters and the load generator may use:
/// `min(host cores, 4)`.
pub fn load_threads() -> usize {
    host_cores().min(4)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads of the serving pool: inline. Measured on the 2-core
/// reference sandbox, the default pool under two closed-loop clients
/// varied 30 % between identical runs; inline stayed within 7 %.
pub const POOL_THREADS: usize = 1;

/// Which distributed build a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildKind {
    /// `core::dgreedy_abs`, one-shot.
    Greedy,
    /// `core::conventional::send_coef` under a 1 MiB sort buffer.
    Shuffle,
    /// `core::dindirect_haar`.
    Dp,
}

/// The query mix a serving workload's clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100 % points, uniform targets.
    Point,
    /// Zipf(1.1) targets, 75 % points / 25 % range sums of width ≤ 256;
    /// with `malformed`, 1 query in 64 is out of range or inverted.
    Scan {
        /// Whether malformed queries are injected.
        malformed: bool,
    },
}

/// Where a workload's input series comes from (always seeded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// `datagen::wd_like` with [`GLITCH`] glitches: the paper's smooth,
    /// easy-to-approximate real-data regime.
    WdLike,
    /// `datagen::uniform` over `[0, max]`, rounded to whole numbers: the
    /// paper's synthetic regime.
    UniformInts(f64),
}

/// The stage a workload runs at full length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Repeated one-shot builds, fresh `Cluster` each.
    Build(BuildKind),
    /// Closed-loop clients against a `NetServer` over one published
    /// synopsis.
    Serve {
        /// Queries per request frame.
        batch: usize,
        /// Query mix.
        mix: Mix,
    },
    /// Open-loop `ServeDriver::tick` writer beside one closed-loop reader.
    Stream,
}

/// One workload: a stage and its fixed sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// What runs at full length.
    pub stage: Stage,
    /// Input series.
    pub input: Input,
    /// Input length `N` (the window length for serving workloads).
    pub n: usize,
    /// `base_leaves` of the build (`S`).
    pub base_leaves: usize,
    /// One line on why the workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
}

impl Workload {
    /// Synopsis budget `B = N / 16`.
    pub fn budget(&self) -> usize {
        self.n / 16
    }
}

/// Shards of every published store.
pub const SHARDS: usize = 16;
/// Nodes of the simulated topology the router places shards on.
pub const NODES: usize = 4;
/// Replicas per shard.
pub const REPLICATION: usize = 2;
/// Glitch share of the WD-like input.
pub const GLITCH: f64 = 2e-4;
/// Values appended per stream tick.
pub const TICK_VALUES: usize = 256;
/// Stream tick period, milliseconds (the sensor feed's schedule).
pub const TICK_PERIOD_MS: u64 = 50;
/// Queries per request of the stream workload's reader.
pub const STREAM_BATCH: usize = 64;
/// Window, base sub-tree size of the stream stage (also its short form).
pub const STREAM_N: usize = 1 << 14;
/// `base_leaves` of the stream stage.
pub const STREAM_BASE: usize = 1 << 10;
/// Value ceiling of the DP workload's uniform input. DIndirectHaar's
/// binary search takes one probe (seven jobs) more or fewer depending on
/// the data; on WD-like input at N = 2^13 its build time varied 35 %
/// between seeds. Uniform whole numbers up to 56 gave 45 jobs on every
/// seed tried, so the workload's cost is a property of the code, not of
/// the seed.
pub const DP_MAX: f64 = 56.0;
/// Send-Coef mapper blocks.
pub const SHUFFLE_BLOCKS: usize = 64;
/// One malformed query per this many, in the scan mix.
pub const MALFORMED_EVERY: usize = 64;
/// Widest range sum of the scan mix.
pub const MAX_RANGE_WIDTH: usize = 256;

/// The six workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "build-greedy",
        stage: Stage::Build(BuildKind::Greedy),
        input: Input::WdLike,
        n: 1 << 18,
        base_leaves: 1 << 12,
        why: "DGreedyAbs one-shot, N=2^18: algos (per-sub-tree GreedyAbs) does most of the work, runtime shuffle is second, serve is idle",
    },
    Workload {
        name: "build-shuffle",
        stage: Stage::Build(BuildKind::Shuffle),
        input: Input::WdLike,
        n: 1 << 20,
        base_leaves: 1 << 14,
        why: "Send-Coef, N=2^20 under a 1 MiB sort buffer: runtime (collect, codec, spill sort, multi-pass merge, reduce) does nearly all the work, algos none",
    },
    Workload {
        name: "build-dp",
        stage: Stage::Build(BuildKind::Dp),
        input: Input::UniformInts(DP_MAX),
        n: 1 << 13,
        base_leaves: 1 << 9,
        why: "DIndirectHaar, N=2^13 uniform ints: many tiny jobs and MinHaarSpace rows, shuffle near 0; per-job overhead shows here first, GreedyAbs and spill-sort changes do not",
    },
    Workload {
        name: "serve-point",
        stage: Stage::Serve { batch: 16, mix: Mix::Point },
        input: Input::WdLike,
        n: 1 << 16,
        base_leaves: 1 << 10,
        why: "closed loop, batch 16, uniform points: per-request fixed cost (framing, FNV footer, syscalls, wake-ups) dominates; the batch memo is useless",
    },
    Workload {
        name: "serve-scan",
        stage: Stage::Serve { batch: 1024, mix: Mix::Scan { malformed: true } },
        input: Input::WdLike,
        n: 1 << 16,
        base_leaves: 1 << 10,
        why: "closed loop, batch 1024, Zipf points and range sums, 1/64 malformed: per-query work (grouping, memo, shard descent, codec volume) dominates",
    },
    Workload {
        name: "stream-serve",
        stage: Stage::Stream,
        input: Input::WdLike,
        n: STREAM_N,
        base_leaves: STREAM_BASE,
        why: "open-loop ticks every 50 ms beside a closed-loop reader: raw values to incremental rebuild to shard to publish to DWQ1 answer stamped with the new version",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether larger or smaller values of a metric are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before it counts as a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing and allocation counting off.
/// Every workload reports every one; what the two generic ones mean per
/// workload is in the README's table. The three timings are scaled by the
/// run's host-speed yardstick ([`crate::yardstick`]).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p25", "ms", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("datagen.gen_s", "s", Lower),
    layer("wavelet.forward_ns_per_val", "ns", Lower),
    layer("wavelet.inverse_ns_per_val", "ns", Lower),
    layer("wavelet.point_ns", "ns", Lower),
    layer("wavelet.range_ns", "ns", Lower),
    layer("algos.greedy_abs_s", "s", Lower),
    layer("algos.greedy_runs", "count", Lower),
    layer("algos.min_haar_space_s", "s", Lower),
    layer("algos.mem_model_ratio", "ratio", Higher),
    layer("runtime.map_s", "s", Lower),
    layer("runtime.spill_s", "s", Lower),
    layer("runtime.merge_s", "s", Lower),
    layer("runtime.reduce_s", "s", Lower),
    layer("runtime.job_wall_s", "s", Lower),
    layer("runtime.jobs", "count", Lower),
    layer("runtime.map_tasks", "count", Lower),
    layer("runtime.shuffle_bytes", "bytes", Lower),
    layer("runtime.shuffle_records", "count", Lower),
    layer("runtime.spill_runs", "count", Lower),
    layer("runtime.merge_passes", "count", Lower),
    layer("runtime.parallel_eff", "ratio", Higher),
    layer("runtime.codec.encode_mb_s", "MB/s", Higher),
    layer("runtime.codec.decode_mb_s", "MB/s", Higher),
    layer("runtime.codec.fnv_mb_s", "MB/s", Higher),
    layer("runtime.executor.task_ns", "ns", Lower),
    layer("runtime.trace.events", "count", Lower),
    layer("core.build_s", "s", Lower),
    layer("core.driver_self_s", "s", Lower),
    layer("core.synopsis_size", "count", Lower),
    layer("core.err_abs", "data_units", Lower),
    layer("core.tick_ms_p50", "ms", Lower),
    layer("core.dirty_bases", "count", Lower),
    layer("core.bg_tasks", "count", Lower),
    layer("core.tick_greedy_runs", "count", Lower),
    layer("serve.shard.build_us", "us", Lower),
    layer("serve.store.publish_us", "us", Lower),
    layer("serve.store.reader_ns", "ns", Lower),
    layer("serve.batch.eval_ns_per_query", "ns", Lower),
    layer("serve.batch.memo_hit_rate", "ratio", Higher),
    layer("serve.batch.shard_groups", "count", Lower),
    layer("serve.router.route_ns", "ns", Lower),
    layer("serve.net.failed_queries", "count", Lower),
    layer("serve.net.shed", "count", Lower),
    layer("serve.net.bad_frames", "count", Lower),
    layer("serve.net.wire_us_p50", "us", Lower),
    layer("serve.net.req_bytes", "bytes", Lower),
    layer("serve.net.resp_bytes", "bytes", Lower),
    layer("client.qps", "1/s", Higher),
    layer("client.rtt_us_p50", "us", Lower),
    layer("client.rtt_us_p99", "us", Lower),
    layer("client.requests", "count", Higher),
    layer("client.fresh_ms_p50", "ms", Lower),
    layer("client.fresh_ms_p95", "ms", Lower),
    layer("client.tick_late_ms_p50", "ms", Lower),
    layer("client.tick_backlog_max", "count", Lower),
    layer("client.verify_ns_per_query", "ns", Lower),
    layer("alloc.build_count_per_val", "count", Lower),
    layer("alloc.build_peak_mb", "MiB", Lower),
    layer("alloc.serve_count_per_query", "count", Lower),
    layer("alloc.tick_count", "count", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.host_speed", "ratio", Higher),
];

/// Measured and printed, but not part of the contract in
/// `BENCHMARK.json`: `NetServer::stats()` reads its percentiles off a
/// histogram with four buckets per octave, so these repeat exactly from
/// run to run and resolve nothing finer than ±12 %. A finer histogram is
/// the serving-observability issue's job; `serve.net.wire_us_p50` is
/// derived from the p50 here and inherits its resolution.
pub const PRINT_ONLY: &[Metric] = &[
    layer("serve.net.service_us_p50", "us", Lower),
    layer("serve.net.service_us_p99", "us", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS.iter().map(|w| w.name).chain(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(PRINT_ONLY)
                .map(|m| m.name),
        );
        for name in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    fn listed(doc: &Value, key: &str) -> Vec<Value> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key}"))
            .to_vec()
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these tables
    /// are what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");

        let workloads = listed(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
            assert_eq!(got.get("why").and_then(Value::as_str), Some(want.why));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = listed(&doc, key);
            assert_eq!(rows.len(), table.len(), "{key}");
            for (got, want) in rows.iter().zip(table) {
                assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
                assert_eq!(
                    got.get("unit").and_then(Value::as_str),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                assert_eq!(
                    got.get("better").and_then(Value::as_str),
                    Some(want.better.as_str())
                );
                assert_eq!(
                    got.get("bound").and_then(Value::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
        let paths = listed(&doc, "paths");
        assert_eq!(paths, vec![Value::Str("perf".into())]);
    }
}
