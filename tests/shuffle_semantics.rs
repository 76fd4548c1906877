//! Shuffle guarantees, pinned at the workspace level: the engine's
//! sort-merge shuffle must be observationally indistinguishable from the
//! oracle [`reference::shuffle_reduce`] on the same job —
//!
//! * identical output pair streams (grouping, order, bit patterns),
//! * identical shuffle-byte and record accounting, in [`JobMetrics`] and in
//!   the `shuffle_partition` trace events,
//! * the engine populates its observability (per-map spill runs,
//!   per-reduce merge fan-in),
//! * its traces pass [`trace::validate`].

use dwmaxerr::core::conventional::send_coef;
use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::dgreedy_rel::{dgreedy_rel, DGreedyRelConfig};
use dwmaxerr::datagen::synthetic::uniform;
use dwmaxerr::runtime::codec::{FnvHasher, WireSink};
use dwmaxerr::runtime::reference;
use dwmaxerr::runtime::trace::{self, TraceEvent, TraceEventKind};
use dwmaxerr::runtime::{Cluster, ClusterConfig, DriverMetrics, JobBuilder, SpillBackend};
use dwmaxerr::runtime::{JobOutput, MapContext, ReduceContext, Values};
use dwmaxerr::wavelet::Synopsis;

/// Backend comes from `DWM_SPILL_BACKEND` (default memory) so a CI leg
/// can replay the whole suite against the on-disk spill store.
fn quiet_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::with_slots(4, 3);
    cfg.task_startup = std::time::Duration::ZERO;
    cfg.job_setup = std::time::Duration::ZERO;
    cfg.spill_backend = SpillBackend::from_env();
    cfg
}

fn quiet_cluster() -> Cluster {
    Cluster::new(quiet_config())
}

/// Skewed: key 0 dominates, some keys unique, split 2 empty.
fn skewed_splits() -> Vec<Vec<u64>> {
    vec![
        vec![0, 0, 0, 5, 9, 0, 3],
        vec![0, 3, 3, 7, 0],
        vec![],
        vec![11, 0, 5],
    ]
}

fn sum(_k: &u64, vals: Values<'_, u64, f64>) -> f64 {
    vals.sum()
}

fn emit_sum(k: &u64, vals: Values<'_, u64, f64>, ctx: &mut ReduceContext<u64, f64>) {
    ctx.emit(*k, vals.sum())
}

/// Runs a word-count-shaped job (skewed keys, one empty split, optional
/// combiner) on the engine; returns the output and the trace events.
fn run_job(combine: bool) -> (JobOutput<u64, f64>, Vec<TraceEvent>) {
    let cluster = quiet_cluster();
    let splits = skewed_splits();
    let mut stage = JobBuilder::new("shufsem")
        .map(|split: &Vec<u64>, ctx: &mut MapContext<u64, f64>| {
            for &x in split {
                ctx.emit(x, x as f64 + 0.5);
            }
        })
        .reducers(3);
    if combine {
        stage = stage.combine_with(sum);
    }
    let out = stage
        .reduce(emit_sum)
        .run(&cluster, &splits)
        .expect("job succeeds");
    (out, cluster.trace_events())
}

/// Extracts (partition, bytes) for each shuffle_partition event.
fn partition_bytes(events: &[TraceEvent]) -> Vec<(usize, u64)> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::ShufflePartition {
                partition, bytes, ..
            } => Some((*partition, *bytes)),
            _ => None,
        })
        .collect()
}

#[test]
fn both_paths_produce_identical_output_and_accounting() {
    for combine in [false, true] {
        let (merge, merge_events) = run_job(combine);
        let emitted: Vec<Vec<(u64, f64)>> = skewed_splits()
            .iter()
            .map(|s| s.iter().map(|&x| (x, x as f64 + 0.5)).collect())
            .collect();
        let combiner = if combine { Some(&sum as _) } else { None };
        let (pairs, bytes, records) = reference::shuffle_reduce(&emitted, 3, combiner, emit_sum);

        let bits = |pairs: &[(u64, f64)]| -> Vec<(u64, u64)> {
            pairs.iter().map(|&(k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(bits(&merge.pairs), bits(&pairs), "combine={combine}");
        assert_eq!(merge.metrics.shuffle_bytes, bytes.iter().sum::<u64>());
        assert_eq!(merge.metrics.shuffle_records, records);
        // Per-partition shuffle bytes in the trace agree too.
        let per_partition: Vec<(usize, u64)> = bytes.into_iter().enumerate().collect();
        assert_eq!(partition_bytes(&merge_events), per_partition);
    }
}

#[test]
fn sort_merge_reports_spills_and_fan_in_reference_does_not() {
    let (merge, merge_events) = run_job(false);

    // One spill-run count per map task; one fan-in per reducer.
    let fan_in: Vec<u64> = merge
        .metrics
        .reduce_costs
        .iter()
        .map(|c| c.fetched_runs)
        .collect();
    assert_eq!(merge.metrics.spill_runs.len(), 4);
    assert_eq!(fan_in.len(), 3);
    assert_eq!(merge.metrics.spill_secs.len(), 4);
    assert_eq!(merge.metrics.merge_secs.len(), 3);
    // The empty split produced zero runs; the others at least one.
    assert_eq!(merge.metrics.spill_runs[2], 0);
    assert!(merge.metrics.spill_runs.iter().sum::<u64>() > 0);
    // Fan-in totals match: every non-empty run lands on exactly one reducer.
    assert_eq!(
        fan_in.iter().sum::<u64>(),
        merge.metrics.spill_runs.iter().sum::<u64>()
    );

    // Trace events carry the same fan-in as the metrics.
    let trace_runs: Vec<u64> = merge_events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::ShufflePartition { runs, .. } => Some(*runs),
            _ => None,
        })
        .collect();
    assert_eq!(trace_runs, fan_in);
}

#[test]
fn traces_from_both_paths_validate() {
    for combine in [false, true] {
        let (_, events) = run_job(combine);
        trace::validate(&events).expect("trace validates");
    }
}

#[test]
fn tie_order_matches_reference_under_duplicate_heavy_input() {
    // Every split emits the same few keys many times: groups span every
    // run, so the k-way merge's tie-break (run index = map task order) is
    // fully exercised. Values encode (split, position) so any reordering
    // relative to the oracle changes the observed value stream.
    let splits: Vec<Vec<(u64, u64)>> = (0..5)
        .map(|s| (0..30).map(|i| (i % 3, s * 1000 + i)).collect())
        .collect();
    // Emit each value so intra-group order is observable.
    let emit_all = |k: &u64, vals: Values<'_, u64, u64>, ctx: &mut ReduceContext<u64, u64>| {
        for v in vals {
            ctx.emit(*k, v);
        }
    };
    let engine = JobBuilder::new("ties")
        .map(|split: &Vec<(u64, u64)>, ctx: &mut MapContext<u64, u64>| {
            for &(k, v) in split {
                ctx.emit(k, v);
            }
        })
        .reducers(2)
        .reduce(emit_all)
        .run(&quiet_cluster(), &splits)
        .expect("job succeeds");
    let (pairs, bytes, records) = reference::shuffle_reduce(&splits, 2, None, emit_all);
    assert_eq!(engine.pairs, pairs);
    assert_eq!(engine.metrics.shuffle_bytes, bytes.iter().sum::<u64>());
    assert_eq!(engine.metrics.shuffle_records, records);
}

#[test]
fn constrained_memory_runs_externally_and_stays_bit_identical() {
    // The acceptance scenario for the external shuffle: with the spill
    // budget far below a map task's working set, the job must complete via
    // multi-run external spills (no TaskFailed), report >1 spill pass per
    // non-empty task and intermediate merge passes when fan-in < run
    // count, and produce byte-identical output to the unconstrained run.
    let splits: Vec<Vec<(u64, u64)>> = (0..5)
        .map(|s| (0..120).map(|i| (i % 9, s * 1000 + i)).collect())
        .collect();
    let run = |constrain: bool, backend: SpillBackend| {
        let mut cfg = ClusterConfig::with_slots(4, 3);
        cfg.task_startup = std::time::Duration::ZERO;
        cfg.job_setup = std::time::Duration::ZERO;
        if constrain {
            cfg.io_sort_bytes = 200; // 16-byte pairs: spill every ~12 emits
            cfg.io_sort_factor = 2;
            cfg.spill_backend = backend;
        }
        let cluster = Cluster::new(cfg);
        let out = JobBuilder::new("pressure")
            .map(|split: &Vec<(u64, u64)>, ctx: &mut MapContext<u64, u64>| {
                for &(k, v) in split {
                    ctx.emit(k, v);
                }
            })
            .reducers(3)
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, u64>| {
                for v in vals {
                    ctx.emit(*k, v);
                }
            })
            .run(&cluster, &splits)
            .expect("constrained job completes instead of failing");
        (out, cluster.trace_events())
    };

    let (unconstrained, _) = run(false, SpillBackend::Memory);
    assert_eq!(unconstrained.metrics.disk_spill_bytes(), 0);
    for backend in [SpillBackend::Memory, SpillBackend::Disk] {
        let (constrained, events) = run(true, backend);
        assert_eq!(constrained.pairs, unconstrained.pairs, "{backend:?}");
        assert_eq!(
            constrained.metrics.shuffle_bytes,
            unconstrained.metrics.shuffle_bytes
        );
        // Every task crossed the budget repeatedly...
        assert!(constrained
            .metrics
            .map_costs
            .iter()
            .all(|c| c.spills.len() > 1));
        assert!(constrained
            .metrics
            .spill_runs
            .iter()
            .zip(&unconstrained.metrics.spill_runs)
            .all(|(&c, &u)| c > u));
        // ...and fan-in 2 forced intermediate merge passes everywhere.
        assert!(constrained.metrics.merge_passes.iter().all(|&p| p >= 1));
        assert!(constrained.metrics.disk_spill_bytes() > 0);
        assert!(constrained.metrics.disk_merge_bytes() > 0);
        // The timeline records the spill/merge story and still validates.
        trace::validate(&events).expect("constrained trace validates");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Spill { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::MergePass { .. })));
    }
}

/// FNV-1a over the synopsis entry bytes (the digest of
/// `tests/pipeline_semantics.rs`).
fn syn_digest(s: &Synopsis) -> u64 {
    let mut h = FnvHasher::new();
    for &(i, v) in s.entries() {
        h.write(&i.to_le_bytes());
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// FNV-1a over a list of words.
fn words_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FnvHasher::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

#[test]
fn send_coef_spill_structure_is_golden() {
    // Send-Coef's mapper fixes its records, not the order it emits them in:
    // the spill sort is stable and the reducer adds each key's values in
    // the order they were emitted, so an emission order that keeps every
    // key's values in `j` order may move a record from one of a task's
    // runs to another, and nothing else. Under a sort buffer of 64 records
    // and fan-in 2, with unaligned blocks, this pins what may not move:
    // every spill pass's (runs, bytes), every merge pass's (fan-in,
    // bytes), the shuffle and disk totals, and the synopsis.
    struct Golden {
        parts: usize,
        spill_runs: &'static [u64],
        /// FNV-1a over (task, spill, runs, bytes) of every spill event.
        spills: u64,
        /// FNV-1a over (partition, pass, fan-in, bytes) of every merge pass.
        merges: u64,
        merge_passes: u64,
        shuffle: (u64, u64),
        disk: (u64, u64),
        synopsis: u64,
    }
    const GOLDEN: [Golden; 2] = [
        Golden {
            parts: 7,
            spill_runs: &[13, 16, 16, 15, 17, 16, 13],
            spills: 0xba44aa2d6ea4662b,
            merges: 0x46034675ebea8ebb,
            merge_passes: 104,
            shuffle: (105_216, 6_576),
            disk: (107_336, 1_242_400),
            synopsis: 0x925b44161e689828,
        },
        Golden {
            parts: 13,
            spill_runs: &[9, 10, 10, 10, 9, 10, 10, 10, 9, 10, 10, 10, 9],
            spills: 0x290a8e017fa836e8,
            merges: 0xaf28a57f112fd499,
            merge_passes: 124,
            shuffle: (120_720, 7_545),
            disk: (123_240, 1_451_488),
            synopsis: 0x925b44161e689828,
        },
    ];
    let data = uniform(1 << 10, 1000.0, 5);
    for want in GOLDEN {
        let mut cfg = quiet_config();
        cfg.io_sort_bytes = 64 * 16;
        cfg.io_sort_factor = 2;
        let cluster = Cluster::new(cfg);
        let (synopsis, metrics) = send_coef(&cluster, &data, 64, want.parts).expect("send_coef");
        let job = &metrics.jobs[0];
        let events = cluster.trace_events();
        trace::validate(&events).expect("trace validates");
        let spills = events.iter().flat_map(|e| match e.kind {
            TraceEventKind::Spill {
                task,
                spill,
                runs,
                bytes,
                ..
            } => vec![task as u64, spill as u64, runs, bytes],
            _ => vec![],
        });
        let merges = events.iter().flat_map(|e| match e.kind {
            TraceEventKind::MergePass {
                partition,
                pass,
                fan_in,
                bytes,
                ..
            } => vec![partition as u64, pass as u64, fan_in, bytes],
            _ => vec![],
        });
        let at = format!("parts={}", want.parts);
        assert_eq!(job.spill_runs, want.spill_runs, "{at}");
        assert_eq!(words_digest(spills), want.spills, "{at}: spill passes");
        assert_eq!(words_digest(merges), want.merges, "{at}: merge passes");
        assert_eq!(
            job.merge_passes.iter().sum::<u64>(),
            want.merge_passes,
            "{at}"
        );
        assert_eq!(
            (job.shuffle_bytes, job.shuffle_records),
            want.shuffle,
            "{at}"
        );
        assert_eq!(
            (job.disk_spill_bytes(), job.disk_merge_bytes()),
            want.disk,
            "{at}"
        );
        assert_eq!(syn_digest(&synopsis), want.synopsis, "{at}");
    }
}

#[test]
fn greedy_drivers_are_invariant_over_reducers_and_spill_pressure() {
    // The errhist stage of DGreedyAbs / DGreedyRel is the one place where
    // a driver chooses how candidates map to level-2 reducers. Neither
    // that choice nor how often the map side spills (sort buffers down to
    // 64 B — smaller than one record — under fan-in 2) may reach the
    // output: one synopsis and one error bit pattern per algorithm. What
    // the choice does decide is the stage's traffic: a histogram crosses
    // the shuffle once per incoming-error group and reducer block, so one
    // reducer receives exactly one record per group, and every further
    // block boundary costs a base at most one more.
    const ABS: (u64, u64) = (0x8b06e8f3d730ee38, 0x407d7ce53543aeab);
    const REL: (u64, u64) = (0xfdf15c080cd80d8e, 0x402a6a402645b700);
    let data = uniform(1 << 12, 1000.0, 7);
    let (b, base_leaves) = (256, 128);
    let num_base = (data.len() / base_leaves) as u64;
    let check_traffic = |metrics: &DriverMetrics, job: &str, reducers: usize, tag: &str| {
        let errhist = metrics.jobs.iter().find(|j| j.name == job).expect(job);
        let groups = errhist.counter("distinct_incoming_errors");
        let blocks = reducers.min(num_base as usize + 1) as u64;
        assert!(groups >= num_base, "{job} {tag}: {groups} groups");
        assert!(
            errhist.shuffle_records >= groups
                && errhist.shuffle_records <= groups + (blocks - 1) * num_base,
            "{job} {tag}: {} records for {groups} groups",
            errhist.shuffle_records
        );
    };
    for reducers in [1, 2, 4, 7, 33, 100] {
        for pressure in [None, Some((512, 2)), Some((64, 2))] {
            let mut cfg = quiet_config();
            if let Some((bytes, factor)) = pressure {
                cfg.io_sort_bytes = bytes;
                cfg.io_sort_factor = factor;
            }
            let cluster = Cluster::new(cfg);
            let tag = format!("reducers={reducers} pressure={pressure:?}");
            let abs_cfg = DGreedyAbsConfig {
                base_leaves,
                reducers,
                ..DGreedyAbsConfig::default()
            };
            let abs = dgreedy_abs(&cluster, &data, b, &abs_cfg).expect("dgreedy_abs");
            assert_eq!(
                (syn_digest(&abs.synopsis), abs.estimated_error.to_bits()),
                ABS,
                "dgreedy_abs {tag}"
            );
            check_traffic(&abs.metrics, "dgreedyabs-errhist", reducers, &tag);
            let rel_cfg = DGreedyRelConfig {
                base_leaves,
                reducers,
                ..DGreedyRelConfig::default()
            };
            let rel = dgreedy_rel(&cluster, &data, b, &rel_cfg).expect("dgreedy_rel");
            assert_eq!(
                (syn_digest(&rel.synopsis), rel.error.to_bits()),
                REL,
                "dgreedy_rel {tag}"
            );
            check_traffic(&rel.metrics, "dgreedyrel-errhist", reducers, &tag);
        }
    }
}
