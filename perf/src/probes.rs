//! Layer probes: each layer's public calls timed from outside, alone, on
//! the workload's own data. These are the per-layer numbers no stage
//! produces as a by-product, and they let a change in a headline metric
//! be checked against the layer it is claimed to come from.

use std::hint::black_box;
use std::time::Instant;

use dwmaxerr_algos::greedy_abs::GreedyAbs;
use dwmaxerr_algos::memory::greedy_abs_bytes;
use dwmaxerr_algos::min_haar_space::{min_haar_space, MhsParams};
use dwmaxerr_runtime::codec::{encoded, FnvHasher, Wire, WireSink};
use dwmaxerr_runtime::Executor;
use dwmaxerr_serve::Query;
use dwmaxerr_wavelet::reconstruct::range_sum_synopsis;
use dwmaxerr_wavelet::transform::{forward, inverse};
use dwmaxerr_wavelet::Synopsis;

use crate::alloc;
use crate::builds::Metrics;
use crate::gen;
use crate::serve::router;
use crate::spans::Recorder;
use crate::spec::{Input, Mix, MAX_RANGE_WIDTH, SHARDS};
use crate::stats;

/// Leaves of the slice the GreedyAbs probe runs on.
const GREEDY_LEAVES: usize = 4096;
/// Leaves of the slice the MinHaarSpace probe runs on.
const MHS_LEAVES: usize = 512;
/// Calls per point / range reconstruction probe.
const RECONSTRUCT_CALLS: usize = 100_000;
/// Pairs the codec probe encodes and decodes.
const CODEC_PAIRS: usize = 1_000_000;
/// Bytes the FNV probe hashes.
const FNV_BYTES: usize = 16 << 20;
/// No-op items the executor probe fans out.
const EXECUTOR_ITEMS: usize = 100_000;
/// Calls of the router probe.
const ROUTE_CALLS: usize = 1_000_000;

/// Median wall of three runs of `f`, seconds.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median_of(&walls)
}

/// Runs every probe. `err_abs` is the workload's error bound (the ε the
/// MinHaarSpace probe solves for); `threads` is `T`.
pub fn run(
    input: Input,
    data: &[f64],
    synopsis: &Synopsis,
    err_abs: f64,
    seed: u64,
    threads: usize,
    rec: &mut Recorder,
) -> Metrics {
    let n = data.len();
    let mut m = Metrics::new();

    m.insert(
        "datagen.gen_s",
        rec.time("datagen.series", None, 0, || {
            median_secs(|| drop(black_box(gen::series(input, n, seed))))
        }),
    );

    // wavelet: transform both ways, then single-value and range
    // reconstruction from the workload's own synopsis.
    let coeffs = forward(data).expect("power-of-two input");
    let fwd = rec.time("wavelet.forward", None, 0, || {
        median_secs(|| drop(black_box(forward(black_box(data)))))
    });
    let inv = rec.time("wavelet.inverse", None, 0, || {
        median_secs(|| drop(black_box(inverse(black_box(&coeffs)))))
    });
    m.insert("wavelet.forward_ns_per_val", fwd * 1e9 / n as f64);
    m.insert("wavelet.inverse_ns_per_val", inv * 1e9 / n as f64);
    let targets: Vec<usize> = (gen::queries(Mix::Point, n, RECONSTRUCT_CALLS, seed).iter())
        .map(|q| match *q {
            Query::Point { x } | Query::RangeSum { l: x, .. } => x,
        })
        .collect();
    let point = rec.time("wavelet.reconstruct_value", None, 0, || {
        median_secs(|| {
            black_box(
                targets
                    .iter()
                    .map(|&x| synopsis.reconstruct_value(x))
                    .sum::<f64>(),
            );
        })
    });
    let range = rec.time("wavelet.range_sum_synopsis", None, 0, || {
        median_secs(|| {
            let sum: f64 = (targets.iter())
                .map(|&x| range_sum_synopsis(synopsis, x, (x + MAX_RANGE_WIDTH - 1).min(n - 1)))
                .sum();
            black_box(sum);
        })
    });
    m.insert("wavelet.point_ns", point * 1e9 / RECONSTRUCT_CALLS as f64);
    m.insert("wavelet.range_ns", range * 1e9 / RECONSTRUCT_CALLS as f64);

    // algos: one GreedyAbs sub-tree run to empty, with its live bytes
    // measured against the working-set model; one MinHaarSpace solve.
    let leaves = GREEDY_LEAVES.min(n);
    let details = forward(&data[..leaves]).expect("power-of-two slice")[1..].to_vec();
    let greedy = rec.time("algos.greedy_abs", None, 0, || {
        median_secs(|| {
            let mut g = GreedyAbs::new_subtree(&details, 0.0).expect("sub-tree");
            black_box(g.run_to_empty());
        })
    });
    m.insert("algos.greedy_abs_s", greedy);
    let (_, counted) = alloc::counted(true, || {
        let mut g = GreedyAbs::new_subtree(&details, 0.0).expect("sub-tree");
        black_box(g.run_to_empty());
    });
    m.insert(
        "algos.mem_model_ratio",
        greedy_abs_bytes(leaves) as f64 / counted.peak_bytes.max(1) as f64,
    );
    let slice = &data[..MHS_LEAVES.min(n)];
    let params = MhsParams::new(err_abs.max(1.0), 1.0).expect("positive ε and δ");
    m.insert(
        "algos.min_haar_space_s",
        rec.time("algos.min_haar_space", None, 0, || {
            median_secs(|| drop(black_box(min_haar_space(slice, &params))))
        }),
    );

    // runtime: the shuffle's record codec, the frame/partition hash, and
    // the executor's per-task cost at T threads.
    let pairs: Vec<(u32, (i64, u32))> = (0..CODEC_PAIRS as u32)
        .map(|i| {
            (
                i.wrapping_mul(2_654_435_761),
                (i64::from(i) - 500_000, i % 97),
            )
        })
        .collect();
    let bytes = encoded(&pairs);
    let enc = rec.time("runtime.codec.encode", None, 0, || {
        median_secs(|| drop(black_box(encoded(black_box(&pairs)))))
    });
    let dec = rec.time("runtime.codec.decode", None, 0, || {
        median_secs(|| {
            let mut cursor: &[u8] = black_box(&bytes);
            drop(black_box(Vec::<(u32, (i64, u32))>::decode(&mut cursor)));
        })
    });
    let mb = bytes.len() as f64 / 1e6;
    m.insert("runtime.codec.encode_mb_s", mb / enc);
    m.insert("runtime.codec.decode_mb_s", mb / dec);
    let buffer: Vec<u8> = (0..FNV_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let fnv = rec.time("runtime.codec.fnv", None, 0, || {
        median_secs(|| {
            let mut h = FnvHasher::new();
            h.write(black_box(&buffer));
            black_box(h.finish());
        })
    });
    m.insert("runtime.codec.fnv_mb_s", FNV_BYTES as f64 / 1e6 / fnv);
    let executor = Executor::new(threads);
    let items = vec![0u8; EXECUTOR_ITEMS];
    let fan = rec.time("runtime.executor.run_indexed", None, 0, || {
        median_secs(|| drop(black_box(executor.run_indexed(&items, |i, _| black_box(i)))))
    });
    m.insert(
        "runtime.executor.task_ns",
        fan * 1e9 / EXECUTOR_ITEMS as f64,
    );

    // serve: the routing table alone.
    let table = router();
    let route = rec.time("serve.router.route", None, 0, || {
        median_secs(|| {
            let mut acc = 0usize;
            for i in 0..ROUTE_CALLS {
                acc += table.route(black_box(i % SHARDS)).unwrap_or(0);
            }
            black_box(acc);
        })
    });
    m.insert("serve.router.route_ns", route * 1e9 / ROUTE_CALLS as f64);
    m
}
