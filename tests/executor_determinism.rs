//! Executor-determinism acceptance tests: the executor's thread pool
//! must be *observationally invisible*. Running the identical workload at
//! `threads = 1` (fully inline, zero workers) and `threads = N` (real
//! concurrency for map attempts, reduce attempts, spill sorts, and merge
//! passes) must produce
//!
//! * bit-identical output pairs,
//! * byte-identical JSONL trace exports — simulated times, slots and nodes
//!   included, since every attempt is priced from its task's cost and never
//!   from the host,
//! * identical [`DriverMetrics::structural_digest`] ledgers (task costs,
//!   the simulated breakdown, every attempt with its times and placement,
//!   byte and record counters, recovery stats),
//!
//! on a cluster with fewer slots than tasks and speculation on — so later
//! waves queue for slots — including under an injected [`FaultPlan`] with
//! targeted attempt failures, a node kill that loses completed map outputs,
//! and corrupt stored runs, on both spill backends, with the spill buffer
//! and merge fan-in squeezed so the external multi-pass merge paths all
//! engage.

use std::time::Duration;

use dwmaxerr::runtime::trace::{self, TraceEventKind};
use dwmaxerr::runtime::{
    Cluster, ClusterConfig, DriverMetrics, FaultPlan, JobBuilder, Kernel, MapContext, Pipeline,
    ReduceContext, SpillBackend, TaskPhase, Values,
};
use proptest::prelude::*;

/// Which fault story a scenario injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    /// Perfect cluster.
    None,
    /// First attempts of map task 0 and reduce task 0 fail; retries win.
    Targeted,
    /// Node 0 dies after every map attempt completed (sim time 1000 s is
    /// far past any task end here) *and* map task 0's stored run is
    /// corrupted: reducers hit checksum failures and lost outputs, retry
    /// their fetches, and force map re-execution.
    NodeKillAndCorruption,
}

/// One randomized workload shape.
#[derive(Debug, Clone)]
struct Scenario {
    splits: Vec<Vec<u64>>,
    reducers: usize,
    faults: Faults,
    /// Squeeze `io_sort_bytes`/`io_sort_factor` so maps spill
    /// mid-attempt and reducers need intermediate merge passes — the
    /// paths the executor parallelizes beyond whole-task fan-out.
    tiny_sort: bool,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(prop::collection::vec(0u64..64, 0..24), 1..=4),
        1usize..=3,
        (0u8..=2).prop_map(|f| match f {
            0 => Faults::None,
            1 => Faults::Targeted,
            _ => Faults::NodeKillAndCorruption,
        }),
        any::<bool>(),
        0u64..1_000,
    )
        .prop_map(|(mut splits, reducers, faults, tiny_sort, seed)| {
            // The runtime rejects zero-split jobs, so guarantee stage 1
            // emits at least one pair for stage 2 to consume.
            splits[0].push(seed % 64);
            Scenario {
                splits,
                reducers,
                faults,
                tiny_sort,
                seed,
            }
        })
}

/// Everything a run can leak about its schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    pairs: Vec<(u64, u64)>,
    /// The JSONL export, byte for byte.
    trace: String,
    driver_digest: u64,
    jobs: usize,
}

/// Builds the scenario's cluster at `threads` host threads: two map slots
/// and one reduce slot, fewer than either stage's tasks whenever it has
/// more than that, so tasks queue in waves; speculation stays on (the
/// default).
fn cluster_for(scenario: &Scenario, backend: SpillBackend, threads: usize) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(2, 1);
    cfg.threads = threads;
    cfg.nodes = 2;
    cfg.task_startup = Duration::from_micros(10);
    cfg.job_setup = Duration::from_micros(10);
    cfg.spill_backend = backend;
    if scenario.tiny_sort {
        cfg.io_sort_bytes = 256;
        cfg.io_sort_factor = 2;
    }
    cfg.fault_plan = match scenario.faults {
        Faults::None => None,
        Faults::Targeted => Some(
            FaultPlan::seeded(scenario.seed)
                .with_targeted(TaskPhase::Map, 0, vec![1])
                .with_targeted(TaskPhase::Reduce, 0, vec![1]),
        ),
        Faults::NodeKillAndCorruption => Some(
            FaultPlan::seeded(scenario.seed)
                .with_node_failure(0, 1000.0)
                .with_corrupt_run(0),
        ),
    };
    Cluster::new(cfg)
}

/// Runs a two-stage pipeline and fingerprints it. Both reduces fold their
/// values with a *non-commutative* hash, so any reordering introduced by
/// parallel spill sorts, the loser-tree merge, or parallel merge groups
/// changes the output bits instead of vanishing into a commutative sum.
fn run_scenario(scenario: &Scenario, backend: SpillBackend, threads: usize) -> Fingerprint {
    let order_fold = |vals: Values<'_, u64, u64>| {
        vals.fold(0x811C_9DC5u64, |h, v| {
            h.rotate_left(5) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    };
    let scatter = JobBuilder::new("scatter")
        .map(|split: &Vec<u64>, ctx: &mut MapContext<u64, u64>| {
            for (i, &x) in split.iter().enumerate() {
                ctx.emit(x % 16, x.wrapping_mul(31).wrapping_add(i as u64));
            }
        })
        .reducers(scenario.reducers)
        .reduce(move |k, vals, ctx: &mut ReduceContext<u64, u64>| {
            ctx.emit(*k, order_fold(vals));
        });
    let tally = JobBuilder::new("tally")
        .map(|kv: &(u64, u64), ctx: &mut MapContext<u64, u64>| {
            ctx.emit(kv.0 % 4, kv.1 ^ kv.0);
        })
        .reducers(scenario.reducers)
        .reduce(move |k, vals, ctx: &mut ReduceContext<u64, u64>| {
            ctx.emit(*k, order_fold(vals));
        });

    let cluster = cluster_for(scenario, backend, threads);
    let staged = Pipeline::on(&cluster)
        .stage(&scatter, &scenario.splits)
        .expect("scatter survives the fault plan")
        .then(|((), pairs)| pairs);
    let mid = staged.value().clone();
    let (pairs, metrics): (Vec<(u64, u64)>, DriverMetrics) = {
        let done = staged.stage(&tally, &mid).expect("tally survives");
        let pairs = done.value().1.clone();
        (pairs, done.into_metrics())
    };

    let events = cluster.trace_events();
    trace::validate(&events).expect("trace is well-formed at every thread count");
    let trace = trace::to_jsonl(&events);
    let parsed = trace::from_jsonl(&trace).expect("JSONL export round-trips");
    assert_eq!(trace::to_jsonl(&parsed), trace, "JSONL export round-trips");
    Fingerprint {
        pairs,
        trace,
        driver_digest: metrics.structural_digest(),
        jobs: metrics.job_count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // threads=1 vs threads=N are bitwise indistinguishable — output pairs,
    // the JSONL export, and the DriverMetrics structural ledger — across
    // random workloads, all three fault stories, and both spill backends,
    // with tasks queueing for slots and speculation on.
    #[test]
    fn threaded_runs_are_bitwise_identical_to_serial(s in scenario()) {
        for backend in [SpillBackend::Memory, SpillBackend::Disk] {
            let serial = run_scenario(&s, backend, 1);
            prop_assert!(serial.jobs == 2, "pipeline ran both stages");
            for threads in [2usize, 4] {
                let parallel = run_scenario(&s, backend, threads);
                prop_assert_eq!(
                    &serial, &parallel,
                    "{:?} at threads={} diverged from serial", backend, threads
                );
            }
        }
    }
}

/// The golden-trace workload from `trace_semantics.rs`, replayed at every
/// thread count: the exact JSONL the golden test pins must come out of the
/// parallel executor too, not merely *some* stable sequence.
#[test]
fn golden_trace_sequence_is_thread_count_invariant() {
    let run = |threads: usize| {
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.threads = threads;
        cfg.task_startup = Duration::from_micros(10);
        cfg.job_setup = Duration::from_micros(10);
        cfg.speculative_execution = false;
        cfg.fault_plan = Some(
            FaultPlan::seeded(3)
                .with_targeted(TaskPhase::Map, 0, vec![1])
                .with_targeted(TaskPhase::Reduce, 0, vec![1]),
        );
        let cluster = Cluster::new(cfg);
        JobBuilder::new("sum")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| {
                ctx.charge(Kernel::Values, 1);
                ctx.emit(0, *s)
            })
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
            .run(&cluster, &[1, 2])
            .expect("job succeeds");
        trace::to_jsonl(&cluster.trace_events())
    };
    let serial = run(1);
    assert!(serial.contains(
        r#""ev":"attempt","phase":"map","task":0,"attempt":1,"kind":"regular","outcome":"failed""#
    ));
    for threads in [2, 3, 4, 8] {
        assert_eq!(serial, run(threads), "trace drifted at threads={threads}");
    }
}

/// Heavier deterministic pin of the hardest combination: disk backend,
/// squeezed spill budget and fan-in (mid-task spills + multi-pass
/// merges), a node kill *and* a corrupt run — the recovery ledger
/// (re-executions, fetch retries, corrupt-run detections) must land
/// identically at every thread count.
#[test]
fn node_kill_recovery_ledger_is_thread_count_invariant() {
    let s = Scenario {
        splits: (0..6)
            .map(|t| (0..48).map(|i| (t * 31 + i * 7) % 64).collect())
            .collect(),
        reducers: 3,
        faults: Faults::NodeKillAndCorruption,
        tiny_sort: true,
        seed: 7,
    };
    let serial = run_scenario(&s, SpillBackend::Disk, 1);
    assert!(
        serial.trace.contains("map_reexecuted"),
        "scenario failed to exercise recovery:\n{}",
        serial.trace
    );
    for threads in [2, 4] {
        assert_eq!(
            serial,
            run_scenario(&s, SpillBackend::Disk, threads),
            "recovery diverged at threads={threads}"
        );
    }
}

/// A Send-Coef-shaped `(u64, f64)` job above the final merge's range-split
/// crossover: 5 MiB of 16-byte records reach its one reducer (the split
/// engages from 4 MiB of fixed-width runs on a parallel pool), half of
/// them on seven keys, and a 256 KiB sort buffer under fan-in 4 forces
/// three spills per map task and merge passes 24 → 6 → 2 runs. Its sums
/// add floats in merge order, so a reordered value shows. At one thread
/// the final merge is one range, at two and four it is cut into as many;
/// output pairs, counters, the structural ledger, the JSONL trace and
/// each pass's `(fan_in, bytes)` must not tell them apart, on either
/// spill backend.
#[test]
fn range_split_final_merge_is_thread_count_invariant() {
    let splits: Vec<u64> = (0..8).collect();
    let run = |backend: SpillBackend, threads: usize| {
        let mut cfg = ClusterConfig::with_slots(splits.len(), 1);
        cfg.threads = threads;
        cfg.task_startup = Duration::from_micros(10);
        cfg.job_setup = Duration::from_micros(10);
        cfg.speculative_execution = false;
        cfg.spill_backend = backend;
        cfg.io_sort_bytes = 256 << 10;
        cfg.io_sort_factor = 4;
        let cluster = Cluster::new(cfg);
        let job = JobBuilder::new("send-coef-shaped")
            .map(|&t: &u64, ctx: &mut MapContext<u64, f64>| {
                for i in 0..40_960u64 {
                    let key = if i % 2 == 0 {
                        i % 7
                    } else {
                        7 + t * 40_960 + i
                    };
                    ctx.emit(
                        key,
                        (i as f64).sqrt() * if t % 2 == 0 { 1.0 } else { -1e-3 },
                    );
                }
            })
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, f64>| {
                let (mut n, mut sum) = (0u64, 0.0);
                for v in vals {
                    n += 1;
                    sum += v;
                }
                ctx.add_counter("groups", 1);
                ctx.add_counter("values", n);
                ctx.emit(*k, sum);
            });
        let done = Pipeline::on(&cluster)
            .stage(&job, &splits)
            .expect("job runs");
        let pairs: Vec<(u64, u64)> = done
            .value()
            .1
            .iter()
            .map(|&(k, v)| (k, v.to_bits()))
            .collect();
        let metrics = done.into_metrics();
        let events = cluster.trace_events();
        trace::validate(&events).expect("trace is well-formed");
        let passes: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::MergePass { fan_in, bytes, .. } => Some((fan_in, bytes)),
                _ => None,
            })
            .collect();
        let job = &metrics.jobs[0];
        let counters = (job.counter("groups"), job.counter("values"));
        (
            pairs,
            counters,
            metrics.structural_digest(),
            trace::to_jsonl(&events),
            passes,
            job.shuffle_bytes,
        )
    };
    for backend in [SpillBackend::Memory, SpillBackend::Disk] {
        let serial = run(backend, 1);
        assert!(
            serial.5 > 4 << 20,
            "{} shuffled bytes stay under the split",
            serial.5
        );
        assert_eq!(serial.1, (7 + 4 * 40_960, 8 * 40_960));
        assert_eq!(
            serial.4.iter().map(|p| p.0).collect::<Vec<_>>(),
            [4, 4, 4, 4, 4, 4, 4, 2]
        );
        for threads in [2, 4] {
            assert!(
                serial == run(backend, threads),
                "{backend:?} at threads={threads}"
            );
        }
    }
}

/// `DriverMetrics::structural_digest` itself must be sensitive enough to
/// be worth comparing: distinct workloads must not collide trivially.
#[test]
fn structural_digest_distinguishes_different_workloads() {
    let base = Scenario {
        splits: vec![vec![1, 2, 3], vec![4, 5, 6]],
        reducers: 2,
        faults: Faults::None,
        tiny_sort: false,
        seed: 0,
    };
    let mut faulty = base.clone();
    faulty.faults = Faults::Targeted;
    let a = run_scenario(&base, SpillBackend::Memory, 1);
    let b = run_scenario(&faulty, SpillBackend::Memory, 1);
    assert_ne!(
        a.driver_digest, b.driver_digest,
        "digest blind to injected retries"
    );
}

/// Host time never reaches the simulated clock: a map body that sleeps a
/// different host time on every run, and unevenly across its tasks, still
/// gives bit-identical simulated breakdowns, attempt records (times,
/// slots, nodes) and JSONL exports — with six tasks queueing for two
/// slots and speculation on, where a host-timed clock would reorder the
/// later waves.
#[test]
fn host_sleeps_in_task_bodies_leave_the_clock_alone() {
    let run = |sleep_ms: [u64; 6]| {
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.threads = 2;
        let cluster = Cluster::new(cfg);
        let out = JobBuilder::new("sleepy")
            .map(|&t: &usize, ctx: &mut MapContext<u64, u64>| {
                std::thread::sleep(Duration::from_millis(sleep_ms[t]));
                for i in 0..=t as u64 {
                    ctx.emit(i, i * 7 + t as u64);
                }
            })
            .input_bytes(|&t: &usize| 4096 * (t as u64 + 1))
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, u64>| ctx.emit(*k, vals.sum()))
            .run(&cluster, &[0, 1, 2, 3, 4, 5])
            .expect("job runs");
        let m = out.metrics;
        let sim = [m.sim.setup, m.sim.map, m.sim.shuffle, m.sim.reduce].map(f64::to_bits);
        let jsonl = trace::to_jsonl(&cluster.trace_events());
        (out.pairs, sim, m.attempts, jsonl, m.map_task_secs)
    };
    let (pairs, sim, attempts, jsonl, fast_host) = run([0, 1, 0, 2, 0, 1]);
    let slow = run([9, 0, 6, 0, 12, 3]);
    assert!(slow.4[4] > fast_host[4], "the host sidecar saw the sleep");
    assert_eq!(pairs, slow.0);
    assert_eq!(sim, slow.1);
    assert_eq!(attempts, slow.2);
    assert!(jsonl == slow.3, "JSONL exports differ");
}
