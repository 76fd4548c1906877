//! Shuffle micro-benchmark: the sort-merge shuffle (map-side sorted spills
//! plus a k-way reduce merge) on synthetic workloads, at rest, under memory
//! pressure, and across executor thread counts.
//!
//! Unlike the paper-figure experiments this one reports **wall-clock**
//! phase times, not simulated cluster seconds: the quantity of interest is
//! the real CPU cost of sorting and merging the shuffle stream.

use dwmaxerr_runtime::codec::{FnvHasher, WireSink};
use dwmaxerr_runtime::trace::json;
use dwmaxerr_runtime::{
    Cluster, ClusterConfig, JobBuilder, JobOutput, MapContext, ReduceContext, SpillBackend,
};

use crate::report::{bench_document, bytes, secs, Table};
use crate::setup::timed;

/// One measured (size, distribution) cell: best-of-reps wall time
/// plus the phase breakdown from [`dwmaxerr_runtime::metrics::JobMetrics`]
/// of the best rep.
#[derive(Debug, Clone)]
pub struct ShuffleSample {
    /// Total records emitted by the map phase.
    pub records: usize,
    /// Key distribution: `"uniform"` or `"skewed"`.
    pub distribution: &'static str,
    /// Best-of-reps wall-clock seconds for the whole job.
    pub wall_secs: f64,
    /// Sum of per-map-task wall seconds (includes spill time).
    pub map_secs: f64,
    /// Sum of per-map-task spill-sort seconds.
    pub spill_secs: f64,
    /// Sum of per-reduce-task merge/sort seconds.
    pub merge_secs: f64,
    /// Sum of per-reduce-task wall seconds (includes merge time).
    pub reduce_secs: f64,
    /// Encoded bytes crossing the shuffle.
    pub shuffle_bytes: u64,
    /// Total non-empty sorted runs spilled by map tasks.
    pub spill_runs: u64,
    /// Total reduce-side merge fan-in (equals `spill_runs` by routing).
    pub merge_fan_in: u64,
}

const SPLITS: usize = 8;
const REDUCERS: usize = 4;
const REPS: usize = 5;

/// Deterministic 64-bit LCG (MMIX constants) — the workload generator.
/// Returns the *high* 32 bits: the low bits of a power-of-two-modulus LCG
/// cycle with tiny periods and must never feed a `%` draw.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 32
}

/// Generates `records` key-value pairs split across [`SPLITS`] map inputs.
/// Uniform keys draw from a space about as large as the record count;
/// skewed keys send ~75% of records to a 1024-key hot set (duplicate-heavy
/// groups that span every map task's runs, stressing the merge tie-break).
fn make_splits(records: usize, skewed: bool, seed: u64) -> Vec<Vec<(u64, f64)>> {
    let mut state = seed | 1;
    let mut splits: Vec<Vec<(u64, f64)>> = (0..SPLITS)
        .map(|_| Vec::with_capacity(records / SPLITS + 1))
        .collect();
    for i in 0..records {
        let r = lcg(&mut state);
        let key = if skewed && !r.is_multiple_of(4) {
            r % 1024
        } else {
            r % (records as u64).max(1)
        };
        let value = f64::from_bits(lcg(&mut state) | 0x3ff0_0000_0000_0000);
        splits[i % SPLITS].push((key, value));
    }
    splits
}

/// The topology every cell runs on; also the source of the `"cluster"`
/// stamp in the JSON documents.
fn bench_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::with_slots(SPLITS, REDUCERS);
    cfg.task_startup = std::time::Duration::ZERO;
    cfg.job_setup = std::time::Duration::ZERO;
    cfg.speculative_execution = false;
    cfg
}

/// The one job every cell runs — group by key, sum the values — timed on
/// the wall clock.
fn run_job(
    name: &str,
    cluster: &Cluster,
    splits: &[Vec<(u64, f64)>],
) -> (JobOutput<u64, f64>, f64) {
    timed(|| {
        JobBuilder::new(name)
            .map(|split: &Vec<(u64, f64)>, ctx: &mut MapContext<u64, f64>| {
                for &(k, v) in split {
                    ctx.emit(k, v);
                }
            })
            .reducers(REDUCERS)
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, f64>| {
                ctx.emit(*k, vals.sum());
            })
            .run(cluster, splits)
            .expect("bench job succeeds: pressure degrades gracefully instead of failing")
    })
}

/// Sums a metric vector; `+ 0.0` normalises the `-0.0` an empty float
/// sum produces into plain zero for display and JSON.
fn total(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() + 0.0
}

/// Runs one (size, distribution) cell [`REPS`] times, keeping the rep with
/// the best wall time.
pub fn measure(records: usize, skewed: bool) -> ShuffleSample {
    let splits = make_splits(records, skewed, 0x5EED ^ records as u64);
    let mut best: Option<ShuffleSample> = None;
    for _ in 0..REPS {
        let (out, wall) = run_job("shuffle-bench", &Cluster::new(bench_config()), &splits);
        let m = &out.metrics;
        let sample = ShuffleSample {
            records,
            distribution: if skewed { "skewed" } else { "uniform" },
            wall_secs: wall,
            map_secs: total(&m.map_task_secs),
            spill_secs: total(&m.spill_secs),
            merge_secs: total(&m.merge_secs),
            reduce_secs: total(&m.reduce_task_secs),
            shuffle_bytes: m.shuffle_bytes,
            spill_runs: m.spill_runs.iter().sum(),
            merge_fan_in: m.merge_fan_in.iter().sum(),
        };
        if best.as_ref().is_none_or(|b| sample.wall_secs < b.wall_secs) {
            best = Some(sample);
        }
    }
    best.expect("at least one rep")
}

/// Runs the full sweep: both distributions × `sizes`.
pub fn shuffle_sweep(sizes: &[usize]) -> Vec<ShuffleSample> {
    let mut samples = Vec::new();
    for &records in sizes {
        for skewed in [false, true] {
            samples.push(measure(records, skewed));
        }
    }
    samples
}

/// Renders the sweep as a markdown table.
pub fn shuffle_table(samples: &[ShuffleSample]) -> Table {
    let mut t = Table::new(
        "Shuffle: sort-merge (wall clock)",
        "Hadoop's shuffle sorts map output at spill time and k-way merges on \
         the reduce side instead of re-sorting the concatenated stream",
        &[
            "records", "dist", "wall", "spill", "merge", "shuffle", "runs",
        ],
    );
    for s in samples {
        t.row(vec![
            s.records.to_string(),
            s.distribution.to_string(),
            secs(s.wall_secs),
            secs(s.spill_secs),
            secs(s.merge_secs),
            bytes(s.shuffle_bytes),
            s.spill_runs.to_string(),
        ]);
    }
    t
}

/// Serialises the sweep as the `BENCH_shuffle.json` document: metadata
/// plus one object per sample (`"path"` is the constant `"sort_merge"`, kept
/// so rows stay comparable with baselines recorded when a second path
/// existed).
pub fn to_json(samples: &[ShuffleSample], smoke: bool) -> String {
    let rows = samples
        .iter()
        .map(|x| {
            json::object([
                ("records", x.records.into()),
                ("distribution", x.distribution.into()),
                ("path", "sort_merge".into()),
                ("wall_secs", x.wall_secs.into()),
                ("map_secs", x.map_secs.into()),
                ("spill_secs", x.spill_secs.into()),
                ("merge_secs", x.merge_secs.into()),
                ("reduce_secs", x.reduce_secs.into()),
                ("shuffle_bytes", x.shuffle_bytes.into()),
                ("spill_runs", x.spill_runs.into()),
                ("merge_fan_in", x.merge_fan_in.into()),
            ])
        })
        .collect();
    bench_document("shuffle", smoke, &bench_config(), sweep_header(REPS), rows)
}

/// The header fields the three shuffle documents share. None of the
/// sweeps injects faults, so `fault_seed` is `null`.
fn sweep_header(reps: usize) -> Vec<(&'static str, json::Value)> {
    vec![
        ("splits", SPLITS.into()),
        ("reducers", REDUCERS.into()),
        ("reps", reps.into()),
        ("fault_seed", json::Value::Null),
    ]
}

/// One measured memory-pressure cell: the same workload run under a
/// shrinking per-task spill budget (`min(io.sort.mb, task memory)`),
/// checking that the external shuffle degrades gracefully — more spill
/// runs and merge passes, identical output bytes — instead of failing.
#[derive(Debug, Clone)]
pub struct PressureSample {
    /// Total records emitted by the map phase.
    pub records: usize,
    /// Per-task memory budget in bytes (`u64::MAX` = unconstrained).
    pub task_memory_bytes: u64,
    /// Reduce-side merge fan-in cap (`io.sort.factor`).
    pub sort_factor: u64,
    /// Best-of-reps wall-clock seconds for the whole job.
    pub wall_secs: f64,
    /// Sum of per-map-task spill-sort seconds.
    pub spill_secs: f64,
    /// Sum of per-reduce-task merge/sort seconds.
    pub merge_secs: f64,
    /// Total sorted runs spilled by map tasks.
    pub spill_runs: u64,
    /// Largest spill-pass count of any map task.
    pub max_spill_passes: u64,
    /// Total intermediate (non-final) reduce merge passes.
    pub merge_passes: u64,
    /// Map-side bytes written to + read from spill storage.
    pub disk_spill_bytes: u64,
    /// Reduce-side bytes written + re-read by intermediate merge passes.
    pub disk_merge_bytes: u64,
    /// FNV-1a digest over the job's output pairs — must not vary with
    /// the budget.
    pub digest: u64,
}

/// FNV-1a over the little-endian encoding of output pairs; the sweep's
/// bit-identity check.
fn output_digest(pairs: &[(u64, f64)]) -> u64 {
    let mut h = FnvHasher::new();
    for &(k, v) in pairs {
        h.write(&k.to_le_bytes());
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Reps for pressure cells — constrained runs touch real disk, so fewer
/// reps than the hot-path sweep.
const PRESSURE_REPS: usize = 3;

/// Runs one pressure cell: `budget == u64::MAX` leaves the cluster at its
/// defaults (single in-memory run per task); any other value caps
/// `task_memory_bytes`, drops `io.sort.factor` to `sort_factor`, and
/// spills runs through the disk backend.
pub fn measure_pressure(records: usize, budget: u64, sort_factor: u64) -> PressureSample {
    let splits = make_splits(records, true, 0x5EED ^ records as u64);
    let mut best: Option<PressureSample> = None;
    for _ in 0..PRESSURE_REPS {
        let mut cfg = bench_config();
        if budget != u64::MAX {
            cfg.task_memory_bytes = budget;
            cfg.io_sort_factor = sort_factor as usize;
            cfg.spill_backend = SpillBackend::Disk;
        }
        let (out, wall) = run_job("shuffle-pressure", &Cluster::new(cfg), &splits);
        let m = &out.metrics;
        let sample = PressureSample {
            records,
            task_memory_bytes: budget,
            sort_factor,
            wall_secs: wall,
            spill_secs: total(&m.spill_secs),
            merge_secs: total(&m.merge_secs),
            spill_runs: m.spill_runs.iter().sum(),
            max_spill_passes: m.spill_passes.iter().copied().max().unwrap_or(0),
            merge_passes: m.merge_passes.iter().sum(),
            disk_spill_bytes: m.disk_spill_bytes,
            disk_merge_bytes: m.disk_merge_bytes,
            digest: output_digest(&out.pairs),
        };
        if best.as_ref().is_none_or(|b| sample.wall_secs < b.wall_secs) {
            best = Some(sample);
        }
    }
    best.expect("at least one rep")
}

/// The memory-pressure sweep: the skewed workload at `records` under an
/// unconstrained baseline and each budget in `budgets` (descending,
/// bytes), all with merge fan-in capped at 4.
pub fn pressure_sweep(records: usize, budgets: &[u64]) -> Vec<PressureSample> {
    let mut samples = vec![measure_pressure(records, u64::MAX, 4)];
    for &budget in budgets {
        samples.push(measure_pressure(records, budget, 4));
    }
    samples
}

/// Renders the pressure sweep as a markdown table.
pub fn pressure_table(samples: &[PressureSample]) -> Table {
    let mut t = Table::new(
        "Shuffle under memory pressure (external spills + multi-pass merge)",
        "Shrinking the per-task budget trades memory for spill runs and \
         merge passes; output bytes must not change",
        &[
            "records", "budget", "runs", "passes", "merges", "spill io", "merge io", "wall",
            "digest",
        ],
    );
    for s in samples {
        t.row(vec![
            s.records.to_string(),
            if s.task_memory_bytes == u64::MAX {
                "unbounded".to_string()
            } else {
                bytes(s.task_memory_bytes)
            },
            s.spill_runs.to_string(),
            s.max_spill_passes.to_string(),
            s.merge_passes.to_string(),
            bytes(s.disk_spill_bytes),
            bytes(s.disk_merge_bytes),
            secs(s.wall_secs),
            format!("{:016x}", s.digest),
        ]);
    }
    if let Some(base) = samples.first() {
        let drift = samples.iter().filter(|s| s.digest != base.digest).count();
        t.note(if drift == 0 {
            "all budget levels produced bit-identical output".to_string()
        } else {
            format!("{drift} budget level(s) DIVERGED from the unconstrained digest")
        });
    }
    t
}

/// Serialises the pressure sweep as the `BENCH_shuffle_pressure.json`
/// document. The unconstrained baseline row reports
/// `"task_memory_bytes": null`.
pub fn pressure_to_json(samples: &[PressureSample], smoke: bool) -> String {
    // Constrained cells run their spills through the disk backend, so the
    // stamp records that; the unconstrained baseline stays in memory.
    let mut stamp_cfg = bench_config();
    stamp_cfg.spill_backend = SpillBackend::Disk;
    let rows = samples
        .iter()
        .map(|x| {
            let budget = match x.task_memory_bytes {
                u64::MAX => json::Value::Null,
                bytes => bytes.into(),
            };
            json::object([
                ("records", x.records.into()),
                ("task_memory_bytes", budget),
                ("sort_factor", x.sort_factor.into()),
                ("wall_secs", x.wall_secs.into()),
                ("spill_secs", x.spill_secs.into()),
                ("merge_secs", x.merge_secs.into()),
                ("spill_runs", x.spill_runs.into()),
                ("max_spill_passes", x.max_spill_passes.into()),
                ("merge_passes", x.merge_passes.into()),
                ("disk_spill_bytes", x.disk_spill_bytes.into()),
                ("disk_merge_bytes", x.disk_merge_bytes.into()),
                ("digest", format!("{:016x}", x.digest).into()),
            ])
        })
        .collect();
    let header = sweep_header(PRESSURE_REPS);
    bench_document("shuffle_pressure", smoke, &stamp_cfg, header, rows)
}

/// One measured executor-scaling cell: the skewed sort-merge workload
/// re-run with the cluster's work-stealing executor pinned to `threads`
/// host threads. The output digest must be bit-identical at every thread
/// count — the executor contract — so only the wall clock may move.
#[derive(Debug, Clone)]
pub struct ThreadsSample {
    /// Total records emitted by the map phase.
    pub records: usize,
    /// Executor threads the cell ran with (`ClusterConfig::threads`).
    pub threads: usize,
    /// Best-of-reps wall-clock seconds for the whole job.
    pub wall_secs: f64,
    /// Sum of per-map-task spill-sort seconds of the best rep.
    pub spill_secs: f64,
    /// Sum of per-reduce-task merge seconds of the best rep.
    pub merge_secs: f64,
    /// FNV-1a digest over the job's output pairs.
    pub digest: u64,
}

/// Runs one executor-scaling cell [`REPS`] times, keeping the best wall
/// time. Same skewed workload and topology as the hot-path sweep; only
/// `ClusterConfig::threads` varies.
pub fn measure_threads(records: usize, threads: usize) -> ThreadsSample {
    let splits = make_splits(records, true, 0x5EED ^ records as u64);
    let mut best: Option<ThreadsSample> = None;
    for _ in 0..REPS {
        let mut cfg = bench_config();
        cfg.threads = threads;
        let (out, wall) = run_job("shuffle-threads", &Cluster::new(cfg), &splits);
        let m = &out.metrics;
        let sample = ThreadsSample {
            records,
            threads,
            wall_secs: wall,
            spill_secs: total(&m.spill_secs),
            merge_secs: total(&m.merge_secs),
            digest: output_digest(&out.pairs),
        };
        if best.as_ref().is_none_or(|b| sample.wall_secs < b.wall_secs) {
            best = Some(sample);
        }
    }
    best.expect("at least one rep")
}

/// The executor-scaling sweep: one workload size across `counts` thread
/// counts (callers should lead with 1 — speedups are reported against the
/// first sample).
pub fn threads_sweep(records: usize, counts: &[usize]) -> Vec<ThreadsSample> {
    counts
        .iter()
        .map(|&t| measure_threads(records, t))
        .collect()
}

/// `(threads, speedup)` pairs: the sweep's first (serial) wall time over
/// each sample's wall time; > 1.0 means the pool is winning.
pub fn thread_speedups(samples: &[ThreadsSample]) -> Vec<(usize, f64)> {
    let Some(base) = samples.first() else {
        return Vec::new();
    };
    samples
        .iter()
        .map(|s| (s.threads, base.wall_secs / s.wall_secs.max(1e-12)))
        .collect()
}

/// Renders the executor-scaling sweep as a markdown table.
pub fn threads_table(samples: &[ThreadsSample]) -> Table {
    let mut t = Table::new(
        "Shuffle: wall clock vs executor threads (work-stealing pool)",
        "map attempts, spill sorts, reduce merges, and merge passes fan out \
         across real host threads; outputs stay bit-identical by contract",
        &[
            "records", "threads", "wall", "spill", "merge", "speedup", "digest",
        ],
    );
    let speedups = thread_speedups(samples);
    for (s, (_, speedup)) in samples.iter().zip(&speedups) {
        t.row(vec![
            s.records.to_string(),
            s.threads.to_string(),
            secs(s.wall_secs),
            secs(s.spill_secs),
            secs(s.merge_secs),
            format!("{speedup:.2}x"),
            format!("{:016x}", s.digest),
        ]);
    }
    let cores = crate::report::host_cores();
    t.note(format!(
        "host exposes {cores} core(s); speedup beyond 1.0x requires >1 physical core \
         — on a single-core host the pool can only tie the serial path"
    ));
    if let Some(base) = samples.first() {
        let drift = samples.iter().filter(|s| s.digest != base.digest).count();
        t.note(if drift == 0 {
            "all thread counts produced bit-identical output".to_string()
        } else {
            format!("{drift} thread count(s) DIVERGED from the serial digest")
        });
    }
    t
}

/// Serialises the executor-scaling sweep as the
/// `BENCH_shuffle_threads.json` document.
pub fn threads_to_json(samples: &[ThreadsSample], smoke: bool) -> String {
    let rows = samples
        .iter()
        .zip(thread_speedups(samples))
        .map(|(x, (_, speedup))| {
            json::object([
                ("records", x.records.into()),
                ("threads", x.threads.into()),
                ("wall_secs", x.wall_secs.into()),
                ("spill_secs", x.spill_secs.into()),
                ("merge_secs", x.merge_secs.into()),
                ("speedup", speedup.into()),
                ("digest", format!("{:016x}", x.digest).into()),
            ])
        })
        .collect();
    let mut header = sweep_header(REPS);
    header.push(("host_cores", crate::report::host_cores().into()));
    bench_document("shuffle_threads", smoke, &bench_config(), header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn str_at<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(Value::as_str)
    }

    fn u64_at(v: &Value, key: &str) -> Option<u64> {
        v.get(key).and_then(Value::as_u64)
    }

    #[test]
    fn splits_are_deterministic_and_sized() {
        let a = make_splits(8192, true, 7);
        let b = make_splits(8192, true, 7);
        assert_eq!(a.len(), SPLITS);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 8192);
        let flat = |s: &Vec<Vec<(u64, f64)>>| -> Vec<(u64, u64)> {
            s.iter().flatten().map(|&(k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(flat(&a), flat(&b));
        // Skew: ~75% of records land in the 1024-key hot set, far more
        // than the ~12.5% a uniform draw over 8192 keys would put there.
        let hot_frac = |s: &Vec<Vec<(u64, f64)>>| {
            s.iter().flatten().filter(|&&(k, _)| k < 1024).count() as f64 / 8192.0
        };
        assert!(hot_frac(&a) > 0.6, "skewed hot fraction {}", hot_frac(&a));
        let uniform = make_splits(8192, false, 7);
        assert!(
            hot_frac(&uniform) < 0.3,
            "uniform hot fraction {}",
            hot_frac(&uniform)
        );
    }

    #[test]
    fn sweep_produces_one_row_per_cell_and_valid_json() {
        let samples = shuffle_sweep(&[512]);
        assert_eq!(samples.len(), 2); // 2 dists
        for s in &samples {
            assert!(s.wall_secs.is_finite() && s.wall_secs > 0.0);
            // 512 records x (8-byte key + 8-byte value).
            assert_eq!(s.shuffle_bytes, 512 * 16);
            assert_eq!(s.spill_runs, s.merge_fan_in);
        }
        let doc = json::parse(&to_json(&samples, true)).expect("valid JSON");
        assert_eq!(str_at(&doc, "benchmark"), Some("shuffle"));
        let rows = doc.get("samples").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for (row, s) in rows.iter().zip(&samples) {
            assert_eq!(u64_at(row, "records"), Some(s.records as u64));
            assert_eq!(str_at(row, "path"), Some("sort_merge"));
        }
        // Reproducibility stamp: topology + (absent) fault seed.
        let cluster = doc.get("cluster").unwrap();
        assert_eq!(u64_at(cluster, "map_slots"), Some(SPLITS as u64));
        assert_eq!(str_at(cluster, "spill_backend"), Some("memory"));
        assert_eq!(doc.get("fault_seed"), Some(&Value::Null));
        let table = shuffle_table(&samples).to_markdown();
        assert!(table.contains("uniform") && table.contains("skewed"));
    }

    #[test]
    fn threads_sweep_is_bit_identical_across_counts() {
        let samples = threads_sweep(1024, &[1, 2, 4]);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].threads, 1);
        let base = samples[0].digest;
        for s in &samples {
            assert_eq!(s.digest, base, "threads={} diverged", s.threads);
        }
        let speedups = thread_speedups(&samples);
        assert_eq!(speedups[0], (1, 1.0));
        for (_, sp) in &speedups {
            assert!(sp.is_finite() && *sp > 0.0);
        }
        let doc = json::parse(&threads_to_json(&samples, true)).expect("valid JSON");
        assert_eq!(str_at(&doc, "benchmark"), Some("shuffle_threads"));
        assert!(u64_at(&doc, "host_cores").is_some());
        let rows = doc.get("samples").and_then(Value::as_array).unwrap();
        let row_threads: Vec<_> = rows.iter().map(|r| u64_at(r, "threads")).collect();
        assert_eq!(row_threads, [Some(1), Some(2), Some(4)]);
        assert!(u64_at(doc.get("cluster").unwrap(), "threads").is_some());
        let table = threads_table(&samples).to_markdown();
        assert!(table.contains("bit-identical"));
    }

    #[test]
    fn pressure_sweep_degrades_without_changing_output() {
        // 1024 records x 16 wire bytes / 8 splits = ~2 KiB per task, so a
        // 256-byte budget forces many spills and fan-in 4 forces at least
        // one intermediate merge pass.
        let samples = pressure_sweep(1024, &[1 << 12, 256]);
        assert_eq!(samples.len(), 3);
        let base = &samples[0];
        assert_eq!(base.task_memory_bytes, u64::MAX);
        assert_eq!(base.max_spill_passes, 1);
        assert_eq!(base.merge_passes, 0);
        assert_eq!(base.disk_spill_bytes + base.disk_merge_bytes, 0);
        for s in &samples[1..] {
            assert_eq!(s.digest, base.digest, "budget {}", s.task_memory_bytes);
        }
        let tight = samples.last().unwrap();
        assert!(tight.max_spill_passes > 1, "{tight:?}");
        assert!(tight.spill_runs > base.spill_runs);
        assert!(tight.merge_passes >= 1, "{tight:?}");
        assert!(tight.disk_spill_bytes > 0 && tight.disk_merge_bytes > 0);

        let doc = json::parse(&pressure_to_json(&samples, true)).expect("valid JSON");
        assert_eq!(str_at(&doc, "benchmark"), Some("shuffle_pressure"));
        let rows = doc.get("samples").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| u64_at(r, "records") == Some(1024)));
        assert_eq!(rows[0].get("task_memory_bytes"), Some(&Value::Null));
        assert_eq!(u64_at(&rows[2], "task_memory_bytes"), Some(256));
        let cluster = doc.get("cluster").unwrap();
        assert_eq!(str_at(cluster, "spill_backend"), Some("disk"));
        assert_eq!(doc.get("fault_seed"), Some(&Value::Null));
        let table = pressure_table(&samples).to_markdown();
        assert!(table.contains("unbounded"));
        assert!(table.contains("bit-identical"));
    }
}
