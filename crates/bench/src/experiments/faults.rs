//! Fault-tolerance sweeps: the paper's algorithms on a cluster that loses
//! task attempts, hosts stragglers, and loses whole *nodes*.
//!
//! Hadoop treats task failure as routine (4 attempts per task, speculative
//! execution on), and the paper's jobs inherit that robustness. The
//! attempt-level sweep ([`fault_sweep`]) injects seeded failures at
//! increasing rates — plus two deterministic stragglers — and shows that
//! (a) the synopses are bit-identical to the fault-free run, and (b) the
//! recovery cost appears as extra simulated makespan and wasted
//! (failed/killed) slot seconds.
//!
//! The node-level sweep ([`node_fault_sweep`]) kills 0→3 whole nodes
//! *after* the map waves complete — taking every completed map output
//! they hosted with them — optionally corrupting stored runs on top, and
//! measures the recovery overhead: fetch retries, map re-executions, and
//! the extra simulated time they serialize into the makespan.

use std::path::Path;

use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_core::CoreError;
use dwmaxerr_datagen::synthetic::uniform;
use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::trace::summary::{self, RecoveryCounts};
use dwmaxerr_runtime::trace::{self, json, TraceEvent};
use dwmaxerr_runtime::{Cluster, ClusterConfig, FaultPlan, TaskPhase};

use crate::report::{
    bench_document, critical_path_table, host_cores, secs, shuffle_structure_table,
    slot_utilisation_table, stage_breakdown, Table,
};
use crate::setup::{timed, Scale};

/// Seed every sweep's [`FaultPlan`] derives from unless the `fault_sweep`
/// binary's `DWM_FAULT_SEED` override supplies another one.
pub const DEFAULT_FAULT_SEED: u64 = 41;

/// A paper-shaped cluster config carrying the given fault plan. HDFS is
/// slowed to 80 KiB/s so map durations are dominated by the
/// *deterministic* simulated read (~100 ms per 8 KiB split): stragglers
/// then outrun the speculation floor (50 ms) and the sweep's timings are
/// reproducible, not host noise.
fn faulty_config(plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        fault_plan: plan,
        hdfs_bytes_per_sec: 80.0 * 1024.0,
        ..ClusterConfig::default()
    }
}

fn faulty_cluster(plan: Option<FaultPlan>) -> Cluster {
    Cluster::new(faulty_config(plan))
}

/// Fault sweep over DGreedyAbs: failure rate vs recovery cost.
pub fn fault_sweep(scale: Scale) -> Vec<Table> {
    fault_sweep_traced(scale, DEFAULT_FAULT_SEED, None)
}

/// [`fault_sweep`], additionally exporting the highest-failure-rate
/// successful run's execution trace.
///
/// With `trace_dir` set, the run's event log is validated and written as
/// `fault_sweep.trace.jsonl` (one event per line, see
/// `dwmaxerr_runtime::trace`) and `fault_sweep.trace.json` (Chrome
/// trace-event format — open it at <https://ui.perfetto.dev>), and the
/// returned tables gain trace-derived slot-utilisation and critical-path
/// summaries.
pub fn fault_sweep_traced(scale: Scale, seed: u64, trace_dir: Option<&Path>) -> Vec<Table> {
    let n: usize = 1 << scale.pick(15, 18);
    let b = n / 8;
    let s = (n / 32).max(1 << 10);
    let data = uniform(n, 1_000.0, 61);
    let cfg = DGreedyAbsConfig {
        base_leaves: s,
        bucket_width: 1.0,
        reducers: 4,
        max_candidates: None,
    };

    type RunOutput = (Vec<f64>, f64, DriverMetrics, Vec<TraceEvent>);
    let run = |plan: Option<FaultPlan>| -> Result<RunOutput, CoreError> {
        let cluster = faulty_cluster(plan);
        let res = dgreedy_abs(&cluster, &data, b, &cfg)?;
        Ok((
            res.synopsis.reconstruct_all(),
            res.metrics.total_simulated().secs(),
            res.metrics,
            cluster.trace_events(),
        ))
    };

    let (clean_recon, clean_secs, _, _) = run(None).expect("fault-free run succeeds");

    let mut t = Table::new(
        format!(
            "Fault sweep — DGreedyAbs under injected failures (N=2^{}, B=N/8)",
            n.trailing_zeros()
        ),
        "failures and stragglers never change the synopsis (deterministic recovery); \
         they only add simulated recovery time and wasted slot-seconds",
        &[
            "attempt failure rate",
            "sim time",
            "vs fault-free",
            "failed",
            "retried",
            "speculative",
            "wasted slot-s",
            "output identical",
        ],
    );
    let mut breakdown_metrics: Option<(f64, DriverMetrics, Vec<TraceEvent>)> = None;
    for prob in [0.0, 0.05, 0.10, 0.20] {
        let plan = FaultPlan::seeded(seed)
            .with_failure_prob(prob)
            .with_straggler(TaskPhase::Map, 0, 6.0)
            .with_straggler(TaskPhase::Map, 1, 4.0);
        match run(Some(plan)) {
            Ok((recon, sim_secs, metrics, events)) => {
                let identical = recon == clean_recon;
                let (mut failed, mut retried, mut speculative, mut wasted) = (0, 0, 0, 0.0);
                for r in summary::per_stage(&events) {
                    for used in [r.map, r.reduce] {
                        failed += used.failed;
                        retried += used.retried;
                        speculative += used.speculative;
                        wasted += used.wasted_secs;
                    }
                }
                t.row(vec![
                    format!("{:.0}%", prob * 100.0),
                    secs(sim_secs),
                    format!("{:+.1}%", (sim_secs / clean_secs - 1.0) * 100.0),
                    failed.to_string(),
                    retried.to_string(),
                    speculative.to_string(),
                    secs(wasted),
                    if identical { "yes" } else { "NO" }.to_string(),
                ]);
                // Keep the highest-failure-rate run that still completed for
                // the per-stage recovery-cost breakdown below.
                breakdown_metrics = Some((prob, metrics, events));
            }
            Err(e) => {
                // Some task drew max_attempts consecutive failures: the job
                // fails with a typed error, exactly like a real cluster.
                t.row(vec![
                    format!("{:.0}%", prob * 100.0),
                    format!("job failed: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    t.note(
        "fault-free baseline; every row re-runs the same seeded workload with a seeded \
         FaultPlan (two map stragglers at 6x/4x plus the per-attempt failure rate), \
         Hadoop defaults: max_attempts=4, speculative execution on.",
    );
    let mut tables = vec![t];
    if let Some((prob, metrics, events)) = breakdown_metrics {
        let mut bd = stage_breakdown(
            format!(
                "Per-stage breakdown — DGreedyAbs at {:.0}% attempt failure rate",
                prob * 100.0
            ),
            "recovery cost concentrates in the map-heavy stages; the stage rows \
             partition the pipeline's job ledger exactly",
            &metrics,
            &events,
        );
        bd.note(
            "stage rows come from trace::summary::per_stage(): jobs grouped by name in \
             first-execution order, summing to the totals row.",
        );
        tables.push(bd);

        trace::validate(&events).expect("fault-sweep trace is well-formed");
        let mut util = slot_utilisation_table(
            format!(
                "Slot utilisation — DGreedyAbs at {:.0}% attempt failure rate (trace-derived)",
                prob * 100.0
            ),
            &events,
        );
        let mut cp = critical_path_table(
            format!(
                "Critical path — DGreedyAbs at {:.0}% attempt failure rate (trace-derived)",
                prob * 100.0
            ),
            &events,
        );
        let shuffle = shuffle_structure_table(
            format!(
                "Shuffle structure — DGreedyAbs at {:.0}% attempt failure rate (trace-derived)",
                prob * 100.0
            ),
            &events,
        );
        if let Some(dir) = trace_dir {
            std::fs::create_dir_all(dir).expect("create trace dir");
            let jsonl_path = dir.join("fault_sweep.trace.jsonl");
            let chrome_path = dir.join("fault_sweep.trace.json");
            std::fs::write(&jsonl_path, trace::to_jsonl(&events)).expect("write JSONL trace");
            std::fs::write(&chrome_path, trace::chrome_trace(&events)).expect("write Chrome trace");
            let note = format!(
                "trace written to {} (JSONL) and {} (Chrome trace-event; open at \
                 https://ui.perfetto.dev).",
                jsonl_path.display(),
                chrome_path.display()
            );
            util.note(note.clone());
            cp.note(note);
        }
        tables.push(util);
        tables.push(cp);
        tables.push(shuffle);
    }
    tables
}

/// One (nodes killed, corruption) cell of [`node_fault_sweep`].
#[derive(Debug, Clone)]
pub struct NodeFaultSample {
    /// Nodes killed permanently after the map waves complete.
    pub nodes_killed: usize,
    /// Whether seeded stored-run corruption was injected on top.
    pub corruption: bool,
    /// Simulated pipeline makespan in seconds.
    pub sim_secs: f64,
    /// The trace's recovery counts, folded over the pipeline's stages.
    pub recovery: RecoveryCounts,
    /// Whether the synopsis was bit-identical to the fault-free run.
    pub identical: bool,
}

/// Output of [`node_fault_sweep`]: report tables plus the raw samples the
/// `BENCH_fault_nodes.json` document is built from.
#[derive(Debug, Clone)]
pub struct NodeFaultSweep {
    /// Recovery-overhead sweep table plus the heaviest cell's per-job
    /// recovery summary.
    pub tables: Vec<Table>,
    /// One sample per (nodes killed, corruption) cell, lightest first.
    pub samples: Vec<NodeFaultSample>,
    /// Fault-free baseline simulated seconds.
    pub clean_secs: f64,
    /// Seed every cell's [`FaultPlan`] was built from.
    pub seed: u64,
}

impl NodeFaultSweep {
    /// Serialises the sweep as the `BENCH_fault_nodes.json` document,
    /// stamped with the cluster/node topology and the fault seed.
    pub fn to_json(&self, smoke: bool) -> String {
        let header = [
            ("fault_seed", self.seed.into()),
            ("clean_sim_secs", self.clean_secs.into()),
        ];
        let rows = self
            .samples
            .iter()
            .map(|x| {
                let overhead_pct = (x.sim_secs / self.clean_secs - 1.0) * 100.0;
                json::object([
                    ("nodes_killed", x.nodes_killed.into()),
                    ("corruption", x.corruption.into()),
                    ("sim_secs", x.sim_secs.into()),
                    ("overhead_pct", overhead_pct.into()),
                    ("nodes_failed", x.recovery.nodes_failed.into()),
                    ("maps_reexecuted", x.recovery.maps_reexecuted.into()),
                    ("fetch_retries", x.recovery.fetch_retries.into()),
                    ("corrupt_runs", x.recovery.corrupt_runs.into()),
                    ("nodes_blacklisted", x.recovery.nodes_blacklisted.into()),
                    ("identical", x.identical.into()),
                ])
            })
            .collect();
        bench_document("fault_nodes", smoke, &faulty_config(None), header, rows)
    }
}

/// Node-failure sweep over DGreedyAbs: 0→3 of the 8 nodes are killed
/// permanently at simulated time 1000 s — far past every map end, so no
/// attempt is cut mid-flight but every completed map output the dead
/// nodes hosted is gone when the reducers fetch. The corruption variants
/// additionally flip bytes in stored runs (one targeted + a seeded 5%
/// draw), which the checksum footers surface as lost outputs. Recovery —
/// capped-backoff fetch retries, then re-executing the owning maps on
/// survivors — must reproduce the synopsis bit-identically, paying only
/// simulated time.
///
/// With `trace_dir` set, the heaviest cell's trace (3 nodes killed +
/// corruption) is validated and written as `fault_sweep_nodes.trace.jsonl`
/// and `fault_sweep_nodes.trace.json` (Chrome trace-event format).
pub fn node_fault_sweep(scale: Scale, seed: u64, trace_dir: Option<&Path>) -> NodeFaultSweep {
    const KILL_TIME: f64 = 1000.0;
    let n: usize = 1 << scale.pick(14, 17);
    let b = n / 8;
    let s = (n / 32).max(1 << 10);
    let data = uniform(n, 1_000.0, 62);
    let cfg = DGreedyAbsConfig {
        base_leaves: s,
        bucket_width: 1.0,
        reducers: 4,
        max_candidates: None,
    };
    let run = |plan: Option<FaultPlan>| {
        let cluster = faulty_cluster(plan);
        // Node loss after map completion is always recoverable while a
        // node survives, so unlike the attempt sweep no cell may fail.
        let res = dgreedy_abs(&cluster, &data, b, &cfg).expect("node-kill recovery succeeds");
        let events = cluster.trace_events();
        let mut recovery = RecoveryCounts::default();
        for r in summary::per_stage(&events) {
            recovery += r.recovery;
        }
        (
            res.synopsis.reconstruct_all(),
            res.metrics.total_simulated().secs(),
            recovery,
            events,
        )
    };
    let (clean_recon, clean_secs, _, _) = run(None);

    let mut t = Table::new(
        format!(
            "Node-failure sweep — DGreedyAbs losing whole nodes after the map waves \
             (N=2^{}, B=N/8, 8-node topology)",
            n.trailing_zeros()
        ),
        "losing a node loses its completed map outputs; fetch retries plus map \
         re-execution on survivors recover bit-identically, paying only simulated time",
        &[
            "nodes killed",
            "corruption",
            "sim time",
            "vs fault-free",
            "nodes failed",
            "maps re-executed",
            "fetch retries",
            "corrupt runs",
            "output identical",
        ],
    );
    let mut samples = Vec::new();
    let mut heaviest_events: Vec<TraceEvent> = Vec::new();
    for corruption in [false, true] {
        for kills in 0..=3usize {
            let mut plan = FaultPlan::seeded(seed).with_blacklist_after(3);
            for node in 0..kills {
                plan = plan.with_node_failure(node, KILL_TIME);
            }
            if corruption {
                plan = plan.with_corrupt_run(0).with_corrupt_run_prob(0.05);
            }
            let (recon, sim_secs, recovery, events) = run(Some(plan));
            let identical = recon == clean_recon;
            t.row(vec![
                kills.to_string(),
                if corruption { "yes" } else { "no" }.to_string(),
                secs(sim_secs),
                format!("{:+.1}%", (sim_secs / clean_secs - 1.0) * 100.0),
                recovery.nodes_failed.to_string(),
                recovery.maps_reexecuted.to_string(),
                recovery.fetch_retries.to_string(),
                recovery.corrupt_runs.to_string(),
                if identical { "yes" } else { "NO" }.to_string(),
            ]);
            samples.push(NodeFaultSample {
                nodes_killed: kills,
                corruption,
                sim_secs,
                recovery,
                identical,
            });
            heaviest_events = events;
        }
    }
    t.note(format!(
        "seeded FaultPlan (seed {seed}): nodes 0..k killed permanently at sim t={KILL_TIME} s \
         (after every map end), corruption rows add one targeted corrupt run plus a 5% \
         per-run draw; blacklist threshold 3; Hadoop fetch semantics: \
         {} retries with capped exponential backoff, then map re-execution.",
        faulty_config(None).fetch_retries,
    ));
    let mut tables = vec![t];

    // The last cell iterated is the heaviest (3 kills + corruption): use
    // its trace for the per-job recovery summary and the exported files.
    trace::validate(&heaviest_events).expect("node-sweep trace is well-formed");
    let mut rt = Table::new(
        "Per-job recovery — DGreedyAbs with 3 nodes killed + corruption (trace-derived)",
        "node loss is visible per pipeline job: node_down instants, fetch failures, \
         map re-executions on survivors, blacklistings",
        &[
            "job",
            "nodes down",
            "permanent",
            "fetch failures",
            "maps re-executed",
            "blacklisted",
        ],
    );
    for r in summary::per_stage(&heaviest_events) {
        let c = r.recovery;
        if c == RecoveryCounts::default() {
            continue;
        }
        rt.row(vec![
            r.name,
            c.nodes_down.to_string(),
            c.permanent.to_string(),
            c.fetch_failures.to_string(),
            c.maps_reexecuted.to_string(),
            c.nodes_blacklisted.to_string(),
        ]);
    }
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
        let jsonl_path = dir.join("fault_sweep_nodes.trace.jsonl");
        let chrome_path = dir.join("fault_sweep_nodes.trace.json");
        std::fs::write(&jsonl_path, trace::to_jsonl(&heaviest_events)).expect("write JSONL trace");
        std::fs::write(&chrome_path, trace::chrome_trace(&heaviest_events))
            .expect("write Chrome trace");
        rt.note(format!(
            "trace written to {} (JSONL) and {} (Chrome trace-event; open at \
             https://ui.perfetto.dev).",
            jsonl_path.display(),
            chrome_path.display()
        ));
    }
    tables.push(rt);

    NodeFaultSweep {
        tables,
        samples,
        clean_secs,
        seed,
    }
}

/// [`node_fault_sweep`] shaped for the combined experiment suite.
pub fn node_fault_tables(scale: Scale) -> Vec<Table> {
    node_fault_sweep(scale, DEFAULT_FAULT_SEED, None).tables
}

/// Result of [`executor_threads_sweep`]: the rendered table plus what
/// the smoke gate enforces — the exact bit-identity verdict and the two
/// ends of the wall-clock ladder.
pub struct ExecutorThreadsSweep {
    /// Wall-clock-vs-threads table.
    pub table: Table,
    /// Whether every thread count reconstructed the serial synopsis bit
    /// for bit.
    pub identical: bool,
    /// `(threads, best wall seconds)` per rung of the ladder, serial
    /// first, widest last.
    pub walls: Vec<(usize, f64)>,
}

/// Builds per thread count in [`executor_threads_sweep`]; a row keeps the
/// best wall, so the ratio `fault_sweep --smoke` gates compares the pool
/// with the serial path and not one noisy build with another.
const WALL_REPS: usize = 5;

/// Wall-clock scaling of the hostile attempt-failure cell across executor
/// thread counts: the same DGreedyAbs build under a 10% failure rate plus
/// two stragglers, with the executor's pool pinned to 1, 2, 4 (and the
/// host's own core count when larger) threads. Recovery replays
/// deterministically on the pool, so every row must reconstruct the
/// serial row's synopsis bit for bit; only the wall clock may move.
///
/// The builds are interleaved: each repetition runs every rung once, in
/// ladder order, so a drift in host speed spreads over all rungs instead of
/// landing on whichever rung ran while it lasted.
pub fn executor_threads_sweep(scale: Scale, seed: u64) -> ExecutorThreadsSweep {
    let n: usize = 1 << scale.pick(15, 18);
    let b = n / 8;
    let s = (n / 32).max(1 << 10);
    let data = uniform(n, 1_000.0, 61);
    let cfg = DGreedyAbsConfig {
        base_leaves: s,
        bucket_width: 1.0,
        reducers: 4,
        max_candidates: None,
    };
    let plan = || {
        FaultPlan::seeded(seed)
            .with_failure_prob(0.10)
            .with_straggler(TaskPhase::Map, 0, 6.0)
            .with_straggler(TaskPhase::Map, 1, 4.0)
    };

    let mut counts = vec![1usize, 2, 4];
    let cores = host_cores();
    if cores > 4 {
        counts.push(cores);
    }

    // Per rung: best wall, simulated seconds, whether every build matched
    // the first serial build.
    let mut rungs: Vec<(f64, f64, bool)> = vec![(f64::INFINITY, 0.0, true); counts.len()];
    let mut serial_recon: Option<Vec<u64>> = None;
    for _ in 0..WALL_REPS {
        for (rung, &threads) in rungs.iter_mut().zip(&counts) {
            let mut config = faulty_config(Some(plan()));
            config.threads = threads;
            let cluster = Cluster::new(config);
            let (res, rep_wall) = timed(|| {
                dgreedy_abs(&cluster, &data, b, &cfg).expect("recovers under injected faults")
            });
            let recon: Vec<u64> = res
                .synopsis
                .reconstruct_all()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            rung.0 = rung.0.min(rep_wall);
            rung.1 = res.metrics.total_simulated().secs();
            match &serial_recon {
                None => serial_recon = Some(recon),
                Some(base) => rung.2 &= *base == recon,
            }
        }
    }

    let mut t = Table::new(
        format!(
            "Fault sweep — wall clock vs executor threads (N=2^{}, 10% failures + stragglers)",
            n.trailing_zeros()
        ),
        "recovery replays deterministically on the executor's pool: every \
         thread count rebuilds the same synopsis bit for bit, only wall time moves",
        &["threads", "wall", "speedup", "sim time", "output identical"],
    );
    let base_wall = rungs[0].0;
    for (&threads, &(wall, sim, same)) in counts.iter().zip(&rungs) {
        t.row(vec![
            threads.to_string(),
            secs(wall),
            format!("{:.2}x", base_wall / wall.max(1e-12)),
            secs(sim),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note(format!(
        "wall is the best of {WALL_REPS} builds per thread count, the builds interleaved \
         rung by rung; host exposes {cores} core(s); speedup beyond 1.0x requires >1 \
         physical core"
    ));
    ExecutorThreadsSweep {
        table: t,
        identical: rungs.iter().all(|&(_, _, same)| same),
        walls: counts.iter().zip(&rungs).map(|(&n, r)| (n, r.0)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sweep_json_is_stamped_and_shaped() {
        let sweep = NodeFaultSweep {
            tables: Vec::new(),
            samples: vec![
                NodeFaultSample {
                    nodes_killed: 0,
                    corruption: false,
                    sim_secs: 2.0,
                    recovery: RecoveryCounts::default(),
                    identical: true,
                },
                NodeFaultSample {
                    nodes_killed: 3,
                    corruption: true,
                    sim_secs: 3.0,
                    recovery: RecoveryCounts {
                        nodes_failed: 3,
                        maps_reexecuted: 7,
                        fetch_retries: 21,
                        corrupt_runs: 2,
                        ..RecoveryCounts::default()
                    },
                    identical: true,
                },
            ],
            clean_secs: 2.0,
            seed: 9,
        };
        let text = sweep.to_json(true);
        assert!(text.ends_with("}\n") && text.lines().count() == 1);
        let doc = json::parse(&text).expect("valid JSON");
        let u64_at = |v: &json::Value, key: &str| v.get(key).and_then(json::Value::as_u64);
        let str_at = |key: &str| doc.get(key).and_then(json::Value::as_str);
        assert_eq!(str_at("benchmark"), Some("fault_nodes"));
        assert_eq!(doc.get("smoke"), Some(&json::Value::Bool(true)));
        assert_eq!(u64_at(&doc, "fault_seed"), Some(9));
        assert_eq!(doc.get("clean_sim_secs"), Some(&json::Value::Num(2.0)));
        // Topology stamp matches the paper cluster the sweep runs on. The
        // executor-thread and host-core fields are host-dependent, so the
        // assertion stops at their presence.
        let cluster = doc.get("cluster").unwrap();
        for (key, want) in [
            ("map_slots", 40),
            ("reduce_slots", 16),
            ("nodes", 8),
            ("maps_per_node", 5),
            ("reduces_per_node", 2),
        ] {
            assert_eq!(u64_at(cluster, key), Some(want), "{key}");
        }
        assert_eq!(
            cluster.get("spill_backend").and_then(json::Value::as_str),
            Some("memory")
        );
        assert!(u64_at(cluster, "threads").is_some());
        assert!(u64_at(cluster, "host_cores").is_some());
        let rows = doc
            .get("samples")
            .and_then(json::Value::as_array)
            .expect("samples");
        assert_eq!(rows.len(), 2);
        assert_eq!(u64_at(&rows[0], "nodes_killed"), Some(0));
        assert_eq!(u64_at(&rows[1], "nodes_killed"), Some(3));
        assert_eq!(rows[1].get("overhead_pct"), Some(&json::Value::Num(50.0)));
        assert_eq!(u64_at(&rows[1], "maps_reexecuted"), Some(7));
        for row in rows {
            assert_eq!(row.get("identical"), Some(&json::Value::Bool(true)));
        }
    }
}
