//! Microbenchmarks of the mini-MapReduce engine: codec throughput,
//! shuffle sort-merge, end-to-end job overhead, and a reducer's cost per
//! record on Send-Coef's shuffle.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dwmaxerr_runtime::codec::{encoded, Wire};
use dwmaxerr_runtime::{Cluster, ClusterConfig, JobBuilder, MapContext, ReduceContext, Values};
use dwmaxerr_wavelet::basis::algorithm7;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let pairs: Vec<(u64, f64)> = (0..10_000).map(|i| (i, i as f64 * 0.5)).collect();
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("encode_10k_pairs", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(16 * pairs.len());
            for p in &pairs {
                p.encode(&mut buf);
            }
            black_box(buf.len())
        })
    });
    let mut buf = Vec::new();
    for p in &pairs {
        p.encode(&mut buf);
    }
    group.bench_function("decode_10k_pairs", |b| {
        b.iter(|| {
            let mut slice = buf.as_slice();
            let mut count = 0;
            while !slice.is_empty() {
                black_box(<(u64, f64)>::decode(&mut slice).unwrap());
                count += 1;
            }
            black_box(count)
        })
    });
    group.bench_function("encoded_len_row", |b| {
        let row = vec![1.5f64; 64];
        b.iter(|| black_box(encoded(&row).len()))
    });
    group.finish();
}

fn quiet_cluster() -> Cluster {
    let mut cfg = ClusterConfig::with_slots(4, 2);
    cfg.task_startup = std::time::Duration::ZERO;
    cfg.job_setup = std::time::Duration::ZERO;
    Cluster::new(cfg)
}

fn bench_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapreduce");
    group.sample_size(20);
    let cluster = quiet_cluster();
    group.bench_function("empty_job_overhead", |b| {
        b.iter(|| {
            JobBuilder::new("noop")
                .map(|_s: &u8, _ctx: &mut MapContext<u8, u8>| {})
                .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
                .run(&cluster, &[0u8])
                .unwrap()
        })
    });
    // 64k records through the full shuffle.
    let splits: Vec<Vec<u64>> = (0..8)
        .map(|s| ((s * 8192)..(s + 1) * 8192).collect())
        .collect();
    group.throughput(Throughput::Elements(65_536));
    group.bench_function("shuffle_64k_records", |b| {
        b.iter(|| {
            JobBuilder::new("shuffle")
                .map(|split: &Vec<u64>, ctx: &mut MapContext<u64, u64>| {
                    for &x in split {
                        ctx.emit(x % 977, x);
                    }
                })
                .reducers(4)
                .reduce(|k, vals, ctx: &mut ReduceContext<u64, u64>| {
                    ctx.emit(*k, vals.sum());
                })
                .run(&cluster, &splits)
                .unwrap()
        })
    });
    group.finish();
}

/// Send-Coef's shuffle at 2^16 values: 16 blocks of 4 096, each mapped by
/// Algorithm 7 into its coefficients' partial contributions (a coefficient
/// above the block once per covered value, so most of a reducer's records
/// continue an equal-key stretch of one run), and one reducer summing each
/// key's values — record by record (`for v in vals`), and by `vals.sum()`,
/// whose fold takes a run's equal-key stretch in one loop. The two differ
/// only in how the reducer consumes its values.
fn bench_send_coef_reducer(c: &mut Criterion) {
    let n = 1usize << 16;
    let data: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1000) as f64).collect();
    let splits: Vec<(usize, &[f64])> = data
        .chunks(4096)
        .enumerate()
        .map(|(b, block)| (b * 4096, block))
        .collect();
    let map = |&(lo, block): &(usize, &[f64]), ctx: &mut MapContext<u64, f64>| {
        algorithm7(n, lo, block, |i, v| ctx.emit(i as u64, v));
    };
    let by_next = |k: &u64, vals: Values<'_, u64, f64>, ctx: &mut ReduceContext<u64, f64>| {
        let mut sum = 0.0;
        for v in vals {
            sum += v;
        }
        ctx.emit(*k, sum);
    };
    let by_fold = |k: &u64, vals: Values<'_, u64, f64>, ctx: &mut ReduceContext<u64, f64>| {
        ctx.emit(*k, vals.sum());
    };
    let cluster = quiet_cluster();
    let records = JobBuilder::new("send-coef")
        .map(map)
        .reduce(by_fold)
        .run(&cluster, &splits)
        .unwrap()
        .metrics
        .shuffle_records;
    let mut group = c.benchmark_group("send_coef_reducer");
    group.sample_size(20);
    group.throughput(Throughput::Elements(records));
    group.bench_function("for_v_in_vals", |b| {
        b.iter(|| {
            let job = JobBuilder::new("send-coef").map(map).reduce(by_next);
            job.run(&cluster, &splits).unwrap()
        })
    });
    group.bench_function("vals_sum", |b| {
        b.iter(|| {
            let job = JobBuilder::new("send-coef").map(map).reduce(by_fold);
            job.run(&cluster, &splits).unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_codec, bench_jobs, bench_send_coef_reducer
}
criterion_main!(benches);
