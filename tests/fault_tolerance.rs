//! Fault-tolerance acceptance tests: the paper's distributed algorithms
//! must produce bit-identical synopses on a cluster that loses task
//! attempts, hosts stragglers, or loses whole *nodes* (taking completed
//! map outputs with them) — recovery may only cost (simulated) time,
//! never accuracy.
//!
//! The suite honours `DWM_SPILL_BACKEND` (`memory`/`disk`), so a CI leg
//! can replay every scenario against the on-disk spill store; the
//! node-kill goldens additionally iterate both backends explicitly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::dindirect_haar::{dindirect_haar, DIndirectHaarConfig};
use dwmaxerr::core::dmin_haar_space::DmhsConfig;
use dwmaxerr::core::CoreError;
use dwmaxerr::datagen::synthetic::uniform;
use dwmaxerr::runtime::trace::summary::{self, RecoveryCounts};
use dwmaxerr::runtime::trace::{self, TraceEventKind};
use dwmaxerr::runtime::{
    Cluster, ClusterConfig, FaultPlan, JobBuilder, MapContext, ReduceContext, RuntimeError,
    SpillBackend, TaskPhase,
};

const N: usize = 1 << 13;
const BASE_LEAVES: usize = 1 << 10;

/// A small cluster whose map durations are dominated by a slow simulated
/// HDFS read (8 KiB splits at 64 KiB/s = 125 ms/task), so stragglers
/// outrun the speculation floor. Spill backend comes from
/// `DWM_SPILL_BACKEND` (default memory).
fn cluster(plan: Option<FaultPlan>) -> Cluster {
    cluster_on(SpillBackend::from_env(), plan)
}

/// Same cluster shape with an explicit spill backend.
fn cluster_on(backend: SpillBackend, plan: Option<FaultPlan>) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(4, 2);
    cfg.task_startup = Duration::from_millis(1);
    cfg.job_setup = Duration::from_millis(1);
    cfg.hdfs_bytes_per_sec = 64.0 * 1024.0;
    cfg.spill_backend = backend;
    cfg.fault_plan = plan;
    Cluster::new(cfg)
}

/// The trace's attempt counts over every stage and both task phases:
/// `(failed, retried, speculative, wasted slot seconds)`.
fn attempt_counts(cluster: &Cluster) -> (usize, usize, usize, f64) {
    let mut counts = (0, 0, 0, 0.0);
    for row in summary::per_stage(&cluster.trace_events()) {
        for used in [row.map, row.reduce] {
            counts.0 += used.failed;
            counts.1 += used.retried;
            counts.2 += used.speculative;
            counts.3 += used.wasted_secs;
        }
    }
    counts
}

/// The trace's recovery counts, folded over every stage.
fn recovery_counts(cluster: &Cluster) -> RecoveryCounts {
    let mut total = RecoveryCounts::default();
    for row in summary::per_stage(&cluster.trace_events()) {
        total += row.recovery;
    }
    total
}

/// ≥10% attempt failures plus two map stragglers, as the acceptance
/// criteria demand.
fn hostile_plan() -> FaultPlan {
    FaultPlan::seeded(11)
        .with_failure_prob(0.12)
        .with_straggler(TaskPhase::Map, 0, 6.0)
        .with_straggler(TaskPhase::Map, 3, 4.0)
}

#[test]
fn dgreedy_abs_is_bit_identical_under_faults() {
    let data = uniform(N, 1_000.0, 77);
    let b = N / 8;
    let cfg = DGreedyAbsConfig {
        base_leaves: BASE_LEAVES,
        bucket_width: 1.0,
        reducers: 4,
        max_candidates: None,
    };

    let clean = dgreedy_abs(&cluster(None), &data, b, &cfg).expect("fault-free run");
    let hostile = cluster(Some(hostile_plan()));
    let faulty = dgreedy_abs(&hostile, &data, b, &cfg).expect("recovers from faults");

    // Bit-identical synopsis: recovery must never change the answer.
    assert_eq!(
        clean.synopsis.reconstruct_all(),
        faulty.synopsis.reconstruct_all()
    );

    let (failed, retried, speculative, wasted) = attempt_counts(&hostile);
    assert!(failed > 0, "plan injected no failures");
    assert!(retried > 0, "no retries recorded");
    assert!(speculative > 0, "stragglers spawned no backups");
    assert!(wasted > 0.0);

    // Recovery is paid in simulated time, serialized after each failure.
    let clean_secs = clean.metrics.total_simulated().secs();
    let faulty_secs = faulty.metrics.total_simulated().secs();
    assert!(
        faulty_secs > clean_secs,
        "faulty {faulty_secs} not slower than clean {clean_secs}"
    );
}

#[test]
fn dindirect_haar_is_bit_identical_under_faults() {
    let data = uniform(N, 1_000.0, 78);
    let b = N / 8;
    let cfg = DIndirectHaarConfig {
        delta: 50.0,
        probe: DmhsConfig {
            base_leaves: BASE_LEAVES,
            fan_in: 16,
        },
    };

    let clean = dindirect_haar(&cluster(None), &data, b, &cfg).expect("fault-free run");
    let plan = FaultPlan::seeded(5)
        .with_failure_prob(0.10)
        .with_straggler(TaskPhase::Map, 1, 5.0)
        .with_straggler(TaskPhase::Map, 2, 4.0);
    let hostile = cluster(Some(plan));
    let faulty = dindirect_haar(&hostile, &data, b, &cfg).expect("recovers");

    assert_eq!(clean.error, faulty.error, "bitwise-equal achieved error");
    assert_eq!(
        clean.synopsis.reconstruct_all(),
        faulty.synopsis.reconstruct_all()
    );
    assert_eq!(clean.probes, faulty.probes, "same binary-search trajectory");

    let (failed, retried, speculative, _) = attempt_counts(&hostile);
    assert!(
        failed > 0 && retried > 0,
        "{failed} failed, {retried} retried"
    );
    assert!(speculative > 0, "stragglers spawned no backups");
    assert!(faulty.metrics.total_simulated() > clean.metrics.total_simulated());
}

/// The mid-job node kill the PR's acceptance criteria demand: node 0 dies
/// *after* every map attempt has completed (sim time 1000 s is far past
/// any map end on this cluster), so nothing is cut mid-flight but every
/// map output node 0 hosted is gone when reducers fetch. The run must be
/// byte-identical to the fault-free one, with the recovery visible in the
/// metrics and as `map_reexecuted` trace events — on both spill backends.
#[test]
fn dgreedy_abs_survives_node_kill_after_maps_on_both_backends() {
    let data = uniform(N, 1_000.0, 77);
    let b = N / 8;
    let cfg = DGreedyAbsConfig {
        base_leaves: BASE_LEAVES,
        bucket_width: 1.0,
        reducers: 4,
        max_candidates: None,
    };
    let clean = dgreedy_abs(&cluster(None), &data, b, &cfg).expect("fault-free run");
    for backend in [SpillBackend::Memory, SpillBackend::Disk] {
        let plan = FaultPlan::seeded(0).with_node_failure(0, 1000.0);
        let killed = cluster_on(backend, Some(plan));
        let faulty = dgreedy_abs(&killed, &data, b, &cfg).expect("recovers from the node kill");
        assert_eq!(
            clean.synopsis.reconstruct_all(),
            faulty.synopsis.reconstruct_all(),
            "{backend:?}: node-kill recovery changed the synopsis"
        );
        let rec = recovery_counts(&killed);
        assert!(rec.nodes_failed > 0, "{backend:?}: {rec:?}");
        assert!(rec.maps_reexecuted > 0, "{backend:?}: {rec:?}");
        assert!(rec.fetch_retries > 0, "{backend:?}: {rec:?}");
        // Fetch backoff plus re-executed maps are paid in simulated time.
        assert!(faulty.metrics.total_simulated() > clean.metrics.total_simulated());
        let events = killed.trace_events();
        trace::validate(&events).expect("node-kill trace validates");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::NodeDown { node: 0, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FetchFailed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::MapReexecuted { .. })));
    }
}

/// Same scenario through the conventional [`JobBuilder`] facade, with a
/// corrupt stored run on top: the checksum footer flags the corruption,
/// the lost-node and corrupt outputs are both re-executed, and the output
/// stays byte-identical on both spill backends.
#[test]
fn conventional_job_survives_node_kill_and_corruption_on_both_backends() {
    let splits: Vec<Vec<u64>> = (0..8)
        .map(|s| (0..64).map(|i| (s * 31 + i * 7) % 40).collect())
        .collect();
    let run = |cluster: &Cluster| {
        JobBuilder::new("wordcount")
            .map(|split: &Vec<u64>, ctx: &mut MapContext<u64, u64>| {
                for &x in split {
                    ctx.emit(x, 1);
                }
            })
            .reducers(2)
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, u64>| ctx.emit(*k, vals.sum()))
            .run(cluster, &splits)
    };
    let clean = run(&cluster(None)).expect("fault-free run");
    for backend in [SpillBackend::Memory, SpillBackend::Disk] {
        let plan = FaultPlan::seeded(3)
            .with_node_failure(1, 1000.0)
            .with_corrupt_run(2);
        let killed = cluster_on(backend, Some(plan));
        let faulty = run(&killed).expect("recovers from node kill + corruption");
        assert_eq!(clean.pairs, faulty.pairs, "{backend:?}");
        let rec = recovery_counts(&killed);
        assert!(rec.nodes_failed > 0, "{backend:?}: {rec:?}");
        assert!(rec.maps_reexecuted > 0, "{backend:?}: {rec:?}");
        assert!(rec.corrupt_runs > 0, "{backend:?}: {rec:?}");
        let events = killed.trace_events();
        trace::validate(&events).expect("trace validates");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::MapReexecuted { task: 2, .. })));
    }
}

#[test]
fn exhausted_attempts_surface_as_typed_error() {
    let data = uniform(N, 1_000.0, 79);
    let cfg = DGreedyAbsConfig {
        base_leaves: BASE_LEAVES,
        bucket_width: 1.0,
        reducers: 2,
        max_candidates: None,
    };
    // Map task 0 fails all four default attempts in every job.
    let plan = FaultPlan::seeded(0).with_targeted(TaskPhase::Map, 0, vec![1, 2, 3, 4]);
    let err = dgreedy_abs(&cluster(Some(plan)), &data, N / 8, &cfg).unwrap_err();
    match err {
        CoreError::Runtime(RuntimeError::TaskFailed {
            phase,
            task,
            attempts,
            ..
        }) => {
            assert_eq!(phase, TaskPhase::Map);
            assert_eq!(task, 0);
            assert_eq!(attempts, 4);
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn panicking_map_function_is_isolated_and_typed() {
    // Through the public facade: a panicking user function must be caught,
    // retried max_attempts times, and reported as a typed error — never an
    // engine abort.
    let mut cfg = ClusterConfig::with_slots(2, 1);
    cfg.max_attempts = 3;
    let cluster = Cluster::new(cfg);
    let calls = AtomicUsize::new(0);
    let result = JobBuilder::new("panicky")
        .map(|_s: &u8, _ctx: &mut MapContext<u8, u8>| {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("user bug");
        })
        .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
        .run(&cluster, &[0u8]);
    assert_eq!(calls.load(Ordering::SeqCst), 3, "retried per max_attempts");
    match result {
        Err(RuntimeError::TaskFailed {
            attempts, reason, ..
        }) => {
            assert_eq!(attempts, 3);
            assert!(reason.contains("user bug"), "{reason}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

/// Regression test: a node kill must give one recovery story per kill
/// time, whatever the host. Whether an attempt is cut, and whether a
/// finished map's output is lost, is decided by comparing the kill time
/// with attempt ends on the simulated clock — so those ends must not
/// depend on how fast the host ran the task. DGreedyAbs over 32 base
/// sub-trees on 4 map + 2 reduce slots across 2 nodes, node 0 killed at a
/// grid of times across the map and reduce phases; at every time, threads
/// 1 / 2 / 4 on both spill backends give one recovery ledger, one
/// structural digest and one JSONL export.
#[test]
fn node_kill_at_any_time_gives_one_recovery_ledger() {
    let n = 1 << 15;
    let data = uniform(n, 1_000.0, 91);
    let cfg = DGreedyAbsConfig {
        base_leaves: n / 32,
        bucket_width: 1.0,
        reducers: 2,
        max_candidates: None,
    };
    let mut recovered = 0;
    // Each job's map phase runs from its 50 ms setup to about 0.22 s (8
    // waves of 20 ms launches), its reduce phase shortly after.
    for step in 0..8 {
        let t = 0.06 + 0.03 * f64::from(step);
        let mut runs = Vec::new();
        for backend in [SpillBackend::Memory, SpillBackend::Disk] {
            for threads in [1, 2, 4] {
                let mut cc = ClusterConfig::with_slots(4, 2);
                cc.nodes = 2;
                cc.threads = threads;
                cc.spill_backend = backend;
                cc.fault_plan = Some(FaultPlan::seeded(0).with_node_failure(0, t));
                let cluster = Cluster::new(cc);
                let out = dgreedy_abs(&cluster, &data, n / 8, &cfg).expect("recovers");
                let events = cluster.trace_events();
                let ledger: Vec<_> = summary::per_stage(&events)
                    .iter()
                    .map(|r| r.recovery)
                    .collect();
                let jsonl = trace::to_jsonl(&events);
                runs.push((ledger, out.metrics.structural_digest(), jsonl));
            }
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(run.0, runs[0].0, "t={t}: run {i} recovered differently");
            assert_eq!(run.1, runs[0].1, "t={t}: run {i} has another digest");
            assert!(run.2 == runs[0].2, "t={t}: run {i} exported another trace");
        }
        recovered += usize::from(runs[0].0.iter().any(|r| r.maps_reexecuted > 0));
    }
    assert!(recovered > 0, "no kill time lost a finished map's output");
}
