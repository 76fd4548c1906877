//! Integration tests of the simulated-cluster behaviour that the paper's
//! scalability figures depend on.

use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::datagen::synthetic::uniform;
use dwmaxerr::runtime::{Cluster, ClusterConfig, JobBuilder, MapContext, ReduceContext};

fn cluster_with_slots(map: usize, reduce: usize) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(map, reduce);
    cfg.task_startup = std::time::Duration::from_micros(20);
    cfg.job_setup = std::time::Duration::from_micros(20);
    Cluster::new(cfg)
}

/// A map phase of `tasks` identical tasks, each a 1 MiB simulated HDFS
/// read plus its priced cost. Returns the map-phase makespan, the
/// wave-structured quantity, and one task's slot time: startup + read +
/// price.
fn busy_job(cluster: &Cluster, tasks: usize) -> (f64, f64) {
    let splits: Vec<u64> = (0..tasks as u64).collect();
    let out = JobBuilder::new("busy")
        .map(|seed: &u64, ctx: &mut MapContext<u8, u64>| {
            ctx.emit(0, *seed);
        })
        .input_bytes(|_| 1 << 20)
        .reduce(|_k, vals, ctx: &mut ReduceContext<u8, u64>| {
            ctx.emit(0, vals.count() as u64);
        })
        .run(cluster, &splits)
        .unwrap();
    let cfg = cluster.config();
    let task = cfg.task_startup.as_secs_f64()
        + (1 << 20) as f64 / cfg.hdfs_bytes_per_sec
        + out.metrics.map_costs[0].secs(cfg.disk_bytes_per_sec);
    (out.metrics.sim.map, task)
}

/// `got` is `waves` back-to-back waves of `task` seconds.
fn assert_waves(got: f64, waves: usize, task: f64) {
    let want = waves as f64 * task;
    assert!(
        (got - want).abs() <= 1e-12 * want,
        "{got} is not {waves} waves of {task}"
    );
}

#[test]
fn halving_slots_scales_simulated_time() {
    // Figure 5c/5d's resource scaling: with tasks >> slots, halving the
    // map slots doubles the simulated makespan — 32 tasks are 4 waves on
    // 8 slots and 8 waves on 4.
    let (t8, task) = busy_job(&cluster_with_slots(8, 2), 32);
    let (t4, _) = busy_job(&cluster_with_slots(4, 2), 32);
    assert_waves(t8, 4, task);
    assert_waves(t4, 8, task);
}

#[test]
fn saturation_then_linear_growth() {
    // "Running-time is almost constant at first, when all data can be
    // processed fully in parallel, and is linearly growing as the cluster
    // is fully utilized."
    let c = cluster_with_slots(8, 2);
    let (t4, task) = busy_job(&c, 4); // under-utilized
    let (t8, _) = busy_job(&c, 8); // exactly one wave
    let (t32, _) = busy_job(&c, 32); // four waves
    assert_waves(t4, 1, task);
    assert_waves(t8, 1, task);
    assert_waves(t32, 4, task);
}

#[test]
fn tiny_partitions_pay_startup_overhead() {
    // The Figure-5a lower end: very small sub-trees mean many tasks, and
    // per-task startup dominates.
    let n = 1 << 12;
    let data = uniform(n, 1000.0, 17);
    let b = n / 8;
    let sim_of = |s: usize| {
        let c = cluster_with_slots(8, 4);
        let cfg = DGreedyAbsConfig {
            base_leaves: s,
            bucket_width: 0.5,
            reducers: 2,
            max_candidates: None,
        };
        dgreedy_abs(&c, &data, b, &cfg)
            .unwrap()
            .metrics
            .total_simulated()
            .secs()
    };
    let tiny = sim_of(8); // 512 tasks/job
    let good = sim_of(1 << 9); // 8 tasks/job
    assert!(
        tiny > good * 2.0,
        "tiny partitions should be slower: tiny={tiny}, good={good}"
    );
}

#[test]
fn shuffle_bytes_scale_with_data() {
    let sizes = [1usize << 10, 1 << 12];
    let mut bytes = Vec::new();
    for &n in &sizes {
        let data = uniform(n, 1000.0, 23);
        let c = cluster_with_slots(8, 4);
        let cfg = DGreedyAbsConfig {
            base_leaves: n / 8,
            bucket_width: 0.5,
            reducers: 2,
            max_candidates: None,
        };
        let d = dgreedy_abs(&c, &data, n / 8, &cfg).unwrap();
        bytes.push(d.metrics.total_shuffle_bytes());
    }
    // 4x the data should produce within ~an order of magnitude more
    // shuffle, not explode quadratically (histogram compression works).
    let ratio = bytes[1] as f64 / bytes[0] as f64;
    assert!(
        (1.5..=16.0).contains(&ratio),
        "shuffle scaling ratio {ratio}: {bytes:?}"
    );
}
