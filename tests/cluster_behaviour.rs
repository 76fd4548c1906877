//! Integration tests of the simulated-cluster behaviour that the paper's
//! scalability figures depend on.

use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::datagen::synthetic::uniform;
use dwmaxerr::runtime::{Cluster, ClusterConfig, JobBuilder, MapContext, ReduceContext};

fn cluster_with_slots(map: usize, reduce: usize) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(map, reduce);
    // Keep fixed overheads tiny relative to the busy-work below so the
    // wave structure dominates the simulated makespan.
    cfg.task_startup = std::time::Duration::from_micros(20);
    cfg.job_setup = std::time::Duration::from_micros(20);
    Cluster::new(cfg)
}

/// A map phase whose per-task cost is dominated by a *deterministic*
/// simulated HDFS read (1 MiB per split), so wave-structure assertions are
/// immune to host timing noise while still exercising the full pipeline.
fn busy_job(cluster: &Cluster, tasks: usize) -> f64 {
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
    // Use only the map-phase makespan: it is the wave-structured quantity.
    out.metrics.sim.map
}

#[test]
fn halving_slots_scales_simulated_time() {
    // Figure 5c/5d's resource scaling: with tasks >> slots, halving the
    // map slots roughly doubles the simulated makespan.
    let tasks = 32;
    let t8 = busy_job(&cluster_with_slots(8, 2), tasks);
    let t4 = busy_job(&cluster_with_slots(4, 2), tasks);
    let ratio = t4 / t8;
    assert!(
        (1.6..=2.6).contains(&ratio),
        "halving slots gave ratio {ratio} (t8={t8}, t4={t4})"
    );
}

#[test]
fn saturation_then_linear_growth() {
    // "Running-time is almost constant at first, when all data can be
    // processed fully in parallel, and is linearly growing as the cluster
    // is fully utilized."
    let c = cluster_with_slots(8, 2);
    let t4 = busy_job(&c, 4); // under-utilized
    let t8 = busy_job(&c, 8); // exactly one wave
    let t32 = busy_job(&c, 32); // four waves
    assert!(
        t8 / t4 < 1.6,
        "sub-saturation should be ~flat: {t4} -> {t8}"
    );
    assert!(
        (2.8..=5.5).contains(&(t32 / t8)),
        "4 waves should cost ~4x one wave: {}",
        t32 / t8
    );
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
