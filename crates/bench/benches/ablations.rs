//! Ablation benches for the design choices DESIGN.md calls out. These are
//! measurement studies (bytes/records/quality tradeoffs), so they use a
//! plain harness rather than Criterion timing.
//!
//! 1. Error-bucket width `e_b`: the paper's Algorithm-3 knob trading
//!    emitted histogram entries (I/O) against the accuracy of the cut.
//! 2. Histogram vs naive list emission (approximated by `e_b -> 0`, where
//!    every removal lands in its own bucket).
//! 3. Locality-preserving partitioning (CON) vs path-scatter (Send-Coef):
//!    shuffle bytes.
//! 4. Speculative candidate count: truncating the `C_root` powerset.
//! 5. Map-side combiner on Send-Coef's per-datapoint emissions.
//! 6. Synopsis dictionary: Haar+ triads vs unrestricted Haar.
//! 7. DP-framework communication: O(B·q) vs O(ε/δ) M-rows (Section 4),
//!    and — timed — what a DMHaarSpace worker pays locally for the root
//!    row and for the errors of a slice.
//! 8. Tooling, timed: one DWQ2 request cycle by stage on `serve-scan`'s
//!    synopsis and query stream.
//! 9. Tooling, timed: Send-Coef by phase on `build-shuffle`'s shape — the
//!    map function, H-WTopk's mapper, spills, the reducer and the driver —
//!    at one and two executor threads.

use dwmaxerr_bench::report::{bytes, err, Table};
use dwmaxerr_bench::setup::paper_cluster;
use dwmaxerr_core::conventional::{con, send_coef, send_coef_combined};
use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_datagen::nyct_like;
use dwmaxerr_wavelet::metrics::max_abs;

fn bucket_width_ablation() -> Table {
    let n = 1usize << 15;
    let b = n / 8;
    let data = nyct_like(n, 0.0, 31);
    let cluster = paper_cluster();
    let mut t = Table::new(
        "Ablation — error-bucket width e_b (DGreedyAbs, NYCT-like 2^15)",
        "coarser buckets compact more removals per histogram entry (less I/O) at the \
         cost of a looser error estimate; Section 5.2's histogram optimization",
        &[
            "e_b",
            "histogram entries",
            "shuffle bytes",
            "max_abs",
            "estimate",
        ],
    );
    for e_b in [1e-6, 0.1, 1.0, 10.0, 100.0] {
        let cfg = DGreedyAbsConfig {
            base_leaves: 1 << 11,
            bucket_width: e_b,
            reducers: 4,
            max_candidates: None,
        };
        let res = dgreedy_abs(&cluster, &data, b, &cfg).expect("runs");
        // Entries shipped by the errhist stage, copies included: a shuffle
        // record there is a whole histogram, so `shuffle_records` does not
        // see the bucket width.
        let entries: u64 = res
            .metrics
            .jobs
            .iter()
            .map(|j| j.counter("histogram_entries"))
            .sum();
        t.row(vec![
            format!("{e_b}"),
            entries.to_string(),
            bytes(res.metrics.total_shuffle_bytes()),
            err(max_abs(&data, &res.synopsis.reconstruct_all())),
            err(res.estimated_error),
        ]);
    }
    t.note(
        "e_b -> 0 approximates naive per-node list emission: every removal occupies \
         its own histogram entry.",
    );
    t
}

fn partitioning_ablation() -> Table {
    let cluster = paper_cluster();
    let b = 128;
    let mut t = Table::new(
        "Ablation — locality-preserving (CON) vs path-scatter (Send-Coef) shuffle",
        "CON's aligned sub-trees emit each coefficient exactly once; Send-Coef's \
         unaligned blocks emit boundary coefficients once per datapoint \
         (Algorithm 7), giving O(N(logN - logS)) communication",
        &["N", "CON bytes", "Send-Coef bytes", "Send-Coef / CON"],
    );
    for ln in [12u32, 14, 16] {
        let n = 1usize << ln;
        let data = nyct_like(n, 0.0, 33);
        let (_, m_con) = con(&cluster, &data, b, n / 16).expect("CON");
        let (_, m_sc) = send_coef(&cluster, &data, b, 16).expect("Send-Coef");
        let (cb, sb) = (m_con.total_shuffle_bytes(), m_sc.total_shuffle_bytes());
        t.row(vec![
            format!("2^{ln}"),
            bytes(cb),
            bytes(sb),
            format!("{:.2}x", sb as f64 / cb as f64),
        ]);
    }
    t
}

fn candidate_count_ablation() -> Table {
    let n = 1usize << 14;
    let b = n / 8;
    let data = nyct_like(n, 0.0, 35);
    let cluster = paper_cluster();
    let full_k = (n / (1 << 10)).min(b); // R = 16 base sub-trees
    let mut t = Table::new(
        "Ablation — speculative C_root candidate count (DGreedyAbs, NYCT-like 2^14)",
        "the full min{R,B}+1 speculative sweep is what lets DGreedyAbs find the best \
         root retention; truncating it saves level-1 work but can cost accuracy",
        &["candidates", "max_abs", "chosen |C_root|", "shuffle bytes"],
    );
    for cap in [0usize, 1, 4, full_k] {
        let cfg = DGreedyAbsConfig {
            base_leaves: 1 << 10,
            bucket_width: 0.5,
            reducers: 4,
            max_candidates: Some(cap),
        };
        let res = dgreedy_abs(&cluster, &data, b, &cfg).expect("runs");
        t.row(vec![
            format!("{}", cap + 1),
            err(max_abs(&data, &res.synopsis.reconstruct_all())),
            res.best_croot_size.to_string(),
            bytes(res.metrics.total_shuffle_bytes()),
        ]);
    }
    t
}

/// Map-side combining on Send-Coef: the standard Hadoop fix for
/// Algorithm 7's per-datapoint boundary emissions.
fn combiner_ablation() -> Table {
    let cluster = paper_cluster();
    let b = 128;
    let mut t = Table::new(
        "Ablation — Send-Coef with and without a map-side combiner",
        "Algorithm 7 ships one record per (datapoint × boundary coefficient); a \
         combiner folds them to one record per (mapper × coefficient), recovering \
         near-CON communication at extra map CPU",
        &["N", "plain bytes", "combined bytes", "CON bytes"],
    );
    for ln in [12u32, 14, 16] {
        let n = 1usize << ln;
        let data = nyct_like(n, 0.0, 39);
        let (_, m_plain) = send_coef(&cluster, &data, b, 16).expect("Send-Coef");
        let (syn_c, m_comb) = send_coef_combined(&cluster, &data, b, 16).expect("combined");
        let (syn, m_con) = con(&cluster, &data, b, n / 16).expect("CON");
        assert_eq!(syn, syn_c, "combiner changed the synopsis");
        t.row(vec![
            format!("2^{ln}"),
            bytes(m_plain.total_shuffle_bytes()),
            bytes(m_comb.total_shuffle_bytes()),
            bytes(m_con.total_shuffle_bytes()),
        ]);
    }
    t
}

/// Dictionary comparison: restricted Haar (GreedyAbs), unrestricted Haar
/// (MinHaarSpace), and Haar+ (triads) at the same error bound.
fn dictionary_ablation() -> Table {
    use dwmaxerr_algos::haar_plus::haar_plus_min_space;
    use dwmaxerr_algos::min_haar_space::{min_haar_space, MhsParams};

    let n = 1usize << 12;
    let data = nyct_like(n, 0.0, 41);
    let mut t = Table::new(
        "Ablation — synopsis dictionary: unrestricted Haar vs Haar+ (NYCT-like 2^12)",
        "the Haar+ triads (head + two supplementary nodes) never need more nodes \
         than unrestricted Haar for the same bound [23]; the gap is the value of \
         the richer dictionary",
        &["ε", "unrestricted Haar size", "Haar+ size", "saving"],
    );
    for eps in [100.0, 250.0, 500.0, 1000.0] {
        let p = MhsParams::new(eps, 10.0).unwrap();
        let mhs = min_haar_space(&data, &p).expect("Haar runs");
        let hp = haar_plus_min_space(&data, &p).expect("Haar+ runs");
        assert!(hp.size <= mhs.size, "dictionary invariant violated");
        t.row(vec![
            format!("{eps:.0}"),
            mhs.size.to_string(),
            hp.size.to_string(),
            format!(
                "{:.1}%",
                (1.0 - hp.size as f64 / mhs.size.max(1) as f64) * 100.0
            ),
        ]);
    }
    t
}

/// Lower-quartile microseconds of each of `work`, called in turn so that
/// all see the same host state.
fn alternate_us<const K: usize>(mut work: [&mut dyn FnMut(); K]) -> [f64; K] {
    let calls = 400;
    let mut us: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(calls));
    for _ in 0..calls {
        for (f, us) in work.iter_mut().zip(&mut us) {
            let t = std::time::Instant::now();
            f();
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    us.map(|mut us| {
        us.sort_unstable_by(f64::total_cmp);
        us[calls / 4]
    })
}

/// What DMHaarSpace's base jobs and the evaluation job pay per slice:
/// layer 0's root row on the frontier (`subtree_root`) against
/// `-extract-base`'s every row (`subtree_rows`) and its replay from the
/// root's best carry (`extract`), and the evaluation job's slice value by
/// value or as one block. Same outputs, bit for bit (`mhs_kernel`,
/// wavelet proptests).
fn dp_local_work_rows(t: &mut Table) {
    use dwmaxerr_algos::conventional::conventional_synopsis;
    use dwmaxerr_algos::min_haar_space::{extract, subtree_root, subtree_rows, MhsParams};
    use dwmaxerr_wavelet::transform::forward;
    use std::hint::black_box;

    // The `build-dp` shape: whole numbers ≤ 56, 512-leaf slices, B = N/16.
    let data: Vec<f64> = dwmaxerr_datagen::uniform(1 << 13, 56.0, 37)
        .into_iter()
        .map(f64::round)
        .collect();
    let slice = &data[..512];
    let mut row = |what: String, [reference, kernel]: [f64; 2]| {
        t.row(vec![
            what,
            format!("{reference:.1}"),
            format!("{kernel:.1}"),
            format!("{:.2}", kernel / reference),
        ]);
    };
    for eps in [5.0, 25.0, 40.0] {
        let p = MhsParams::new(eps, 1.0).expect("valid params");
        let [frontier, rows, replayed] = alternate_us([
            &mut || drop(black_box(subtree_root(black_box(slice), &p))),
            &mut || drop(black_box(subtree_rows(black_box(slice), &p))),
            &mut || {
                let rows = subtree_rows(black_box(slice), &p).expect("solvable");
                let (_, z0) = rows.resolve_root().expect("solvable");
                extract(&rows, slice, &p, z0, |i, z| {
                    black_box((i, z));
                })
                .expect("replays");
            },
        ]);
        row(
            format!("512 leaves, ε = {eps}: frontier root → all rows"),
            [frontier, rows],
        );
        row(
            format!("512 leaves, ε = {eps}: frontier root → all rows + replay"),
            [frontier, replayed],
        );
    }
    let syn = conventional_synopsis(&forward(&data).expect("pow2"), 512).expect("builds");
    let us = alternate_us([
        &mut || {
            for j in 512..1024 {
                black_box(syn.reconstruct_value(black_box(j)));
            }
        },
        &mut || drop(black_box(syn.reconstruct_block(black_box(512), 512))),
    ]);
    row(
        "512 values of a B = 512 synopsis over 2^13: per value → one block".into(),
        us,
    );
}

/// The Section-4 communication analysis, measured: MinHaarSpace's
/// `O(ε/δ)` rows vs MinRelVar's `O(B·q)` rows as the budget grows — and,
/// second table, the local work behind two of DMHaarSpace's jobs.
fn dp_communication_ablation() -> [Table; 2] {
    use dwmaxerr_algos::min_haar_space::MhsParams;
    use dwmaxerr_algos::min_rel_var::MrvParams;
    use dwmaxerr_core::dmin_haar_space::dmin_haar_space;
    use dwmaxerr_core::dmin_haar_space::DmhsConfig;
    use dwmaxerr_core::dmin_rel_var::{dmin_rel_var, DmrvConfig};

    let n = 1usize << 10;
    let data = nyct_like(n, 0.0, 37);
    let cluster = paper_cluster();
    let mut t = Table::new(
        "Ablation — DP framework communication: O(ε/δ) vs O(B·q) rows (N=2^10)",
        "Section 4: a budget-dependent DP (MinRelVar) makes the per-stage row \
         exchange O(N·B·q/2^h), which can reach O(N²); the dual Problem 2 \
         (MinHaarSpace) keeps rows at O(ε/δ) regardless of B — the paper's reason \
         for building DIndirectHaar on the dual",
        &[
            "B",
            "DMinRelVar row bytes",
            "DMHaarSpace row bytes (ε=100, δ=5)",
        ],
    );
    let row_bytes = |m: &dwmaxerr_runtime::metrics::DriverMetrics| {
        m.jobs
            .iter()
            .filter(|j| j.name.contains("layer"))
            .map(|j| j.shuffle_bytes)
            .sum::<u64>()
    };
    // MinHaarSpace's exchange is B-independent: measure once.
    let mhs = dmin_haar_space(
        &cluster,
        &data,
        &MhsParams::new(100.0, 5.0).unwrap(),
        &DmhsConfig {
            base_leaves: 64,
            fan_in: 4,
        },
    )
    .expect("DMHaarSpace runs");
    let mhs_bytes = row_bytes(&mhs.metrics);
    for b in [8usize, 32, 128, 512] {
        let cfg = DmrvConfig {
            base_leaves: 64,
            fan_in: 4,
            params: MrvParams::new(2, 1.0).unwrap(),
            seed: 1,
        };
        let mrv = dmin_rel_var(&cluster, &data, b, &cfg).expect("DMinRelVar runs");
        t.row(vec![
            b.to_string(),
            bytes(row_bytes(&mrv.metrics)),
            bytes(mhs_bytes),
        ]);
    }
    let mut local = Table::new(
        "Ablation — DP framework local work: one number per base slice (host µs, lower quartile of 400)",
        "Section 4 bounds what a worker ships, not what it holds: layer 0 ships its root \
         row, so it needs the O(log S) rows of a frontier (Guha's space-efficient \
         construction), and the evaluation job ships one maximum per slice",
        &["work", "reference µs", "kernel µs", "kernel ÷ reference"],
    );
    dp_local_work_rows(&mut local);
    [t, local]
}

/// `serve-scan`'s query stream (`perf`'s scan mix): Zipf(1.1) targets over
/// `n` leaves, one query in four a range sum of width ≤ 256, one in 64
/// out of range or inverted.
fn scan_queries(n: usize, count: usize, seed: u64) -> Vec<dwmaxerr_serve::Query> {
    use dwmaxerr_datagen::Distribution;
    use dwmaxerr_serve::Query;

    let targets = Distribution::Zipf(1.1).generate(count, (n - 1) as f64, seed);
    let widths = Distribution::Uniform.generate(count, 255.0, seed ^ 0x9e37);
    (0..count)
        .map(|i| {
            let x = (targets[i] as usize).min(n - 1);
            match (i % 128, i % 4) {
                (63, _) => Query::Point { x: n + x },
                (127, _) => Query::RangeSum { l: n - 1, h: 0 },
                (_, 3) => Query::RangeSum {
                    l: x,
                    h: (x + widths[i] as usize).min(n - 1),
                },
                _ => Query::Point { x },
            }
        })
        .collect()
}

/// One DWQ2 request cycle, stage by stage, on `serve-scan`'s synopsis
/// (DGreedyAbs, N = 2^16, B = 4096, 16 shards) and query stream (256
/// batches of 1024), routed over 4 nodes × 2 replicas — in process, one
/// thread, the server's inline pool. No sockets: what is left of a round
/// trip beyond these rows is syscalls, loopback and wake-ups.
fn request_cycle_by_stage() -> Table {
    use dwmaxerr_runtime::codec::encode_slice;
    use dwmaxerr_runtime::codec::frame::{Format, LenWidth};
    use dwmaxerr_runtime::codec::Wire;
    use dwmaxerr_runtime::{Executor, NodeTopology};
    use dwmaxerr_serve::net::encode_results;
    use dwmaxerr_serve::{
        execute_partial_routed, Query, QueryResponse, ShardRouter, SynopsisStore,
    };
    use std::hint::black_box;
    use std::time::Instant;

    const DWQ2: Format = Format::new(*b"DWQ2", LenWidth::U32, 16 << 20);
    const ROUNDS: usize = 5;
    const BATCHES: usize = 256;
    let n = 1usize << 16;
    let data = dwmaxerr_datagen::wd_like(n, 2e-4, 54);
    let cfg = DGreedyAbsConfig {
        base_leaves: 1 << 10,
        ..DGreedyAbsConfig::default()
    };
    let built = dgreedy_abs(&paper_cluster(), &data, n / 16, &cfg).expect("runs");
    let store = SynopsisStore::new("stages", 16);
    store
        .publish(&built.synopsis, built.bound, 0.0, 1)
        .expect("publishes");
    let reader = store.reader().expect("published");
    let topology = NodeTopology {
        nodes: 4,
        slots_per_node: 2,
    };
    let router = ShardRouter::new(16, topology, 2).expect("2 replicas on 4 nodes");
    let pool = Executor::new(1);
    let stream = scan_queries(n, BATCHES * 1024, 54);

    let stages = [
        "client: encode request",
        "server: decode `Vec<Query>`",
        "server: `execute_partial_routed`",
        "server: encode response",
        "client: `QueryResponse::decode`",
        "frame open + copy, both sides",
    ];
    // Per round, per stage: mean µs per request.
    let mut rounds = vec![[0.0f64; 6]; ROUNDS];
    let (mut request, mut response) = (Vec::new(), Vec::new());
    for round in &mut rounds {
        for (id, batch) in stream.chunks(1024).enumerate() {
            let id = id as u64;
            let t0 = Instant::now();
            DWQ2.build(&mut request, |buf| {
                id.encode(buf);
                encode_slice(batch, buf);
            })
            .expect("under the cap");
            let t1 = Instant::now();
            let payload = DWQ2.read(&mut &request[..]).expect("valid").expect("whole");
            let t2 = Instant::now();
            let mut cursor = &payload[..];
            let _ = u64::decode(&mut cursor).expect("id");
            let queries = Vec::<Query>::decode(&mut cursor).expect("queries");
            let t3 = Instant::now();
            let (results, _) =
                execute_partial_routed(&reader, &queries, Some(&router), Some(&pool));
            let t4 = Instant::now();
            DWQ2.build(&mut response, |buf| {
                encode_results(id, reader.version(), &results, buf)
            })
            .expect("under the cap");
            let t5 = Instant::now();
            let body = DWQ2
                .read(&mut &response[..])
                .expect("valid")
                .expect("whole");
            let t6 = Instant::now();
            black_box(QueryResponse::decode(&mut &body[..]).expect("decodes"));
            let t7 = Instant::now();
            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6 / BATCHES as f64;
            round[0] += us(t0, t1);
            round[1] += us(t2, t3);
            round[2] += us(t3, t4);
            round[3] += us(t4, t5);
            round[4] += us(t6, t7);
            round[5] += us(t1, t2) + us(t5, t6);
        }
    }

    let median = |mut v: Vec<f64>| {
        v.sort_unstable_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let total = median(rounds.iter().map(|r| r.iter().sum()).collect());
    let mut t = Table::new(
        "Tooling — one DWQ2 request cycle by stage (serve-scan's synopsis and stream; host µs per request, median of 5 rounds × 256 requests)",
        "a DWQ2 request should cost its distinct queries and its bytes; the rows say \
         which stage a serving change moved, without a scratch harness",
        &["stage", "µs per request", "share"],
    );
    for (k, stage) in stages.iter().enumerate() {
        let us = median(rounds.iter().map(|r| r[k]).collect());
        t.row(vec![
            stage.to_string(),
            format!("{us:.1}"),
            format!("{:.0}%", 100.0 * us / total),
        ]);
    }
    t.row(vec!["total".into(), format!("{total:.1}"), "100%".into()]);
    t.note(format!(
        "last request {} on the wire, its response {}; encode rows include the frame's \
         checksum, the open rows verify it",
        bytes(request.len() as u64),
        bytes(response.len() as u64)
    ));
    t
}

/// Send-Coef by phase, on `perf`'s `build-shuffle` shape (WD-like, N =
/// 2^20, B = N/16, 64 unaligned blocks, a 1 MiB sort buffer, fan-in 16),
/// from the public API and `JobMetrics` fields only. The map side: the
/// map function alone (`algorithm7` into a checksum, no collector) and
/// H-WTopk's `partial_coefficients`, each timed per block on
/// a pool of the column's threads and summed; the map tasks' host time
/// (`map_task_secs`, host seconds inside the task bodies) and their spills
/// (`spill_secs`). The reducer: the merge phase is `merge_secs`; the final
/// merge is the rest of the reduce task's host seconds. The driver is the
/// call's wall beyond the job's.
fn send_coef_by_phase() -> Table {
    use dwmaxerr_core::splits::block_splits;
    use dwmaxerr_runtime::{Cluster, ClusterConfig, Executor, SpillBackend};
    use dwmaxerr_wavelet::basis::{algorithm7, partial_coefficients};
    use std::hint::black_box;
    use std::time::Instant;

    const BUILDS: usize = 7;
    let n = 1usize << 20;
    let data = dwmaxerr_datagen::wd_like(n, 2e-4, 17);
    let splits = block_splits(&data, 64).expect("64 blocks");
    let median = |mut v: Vec<f64>| {
        v.sort_unstable_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let phases = [
        "map: `algorithm7` over the 64 blocks (task ms)",
        "map: `partial_coefficients` over the 64 blocks (task ms)",
        "map: tasks, host (Σ `map_task_secs`; task ms)",
        "map: Σ `spill_secs` (task ms)",
        "reduce: open + cut (`merge_secs`)",
        "reduce: final merge + `sum` (`reduce_task_secs − merge_secs`)",
        "driver (call wall − `real_elapsed`)",
        "one `send_coef` call",
    ];
    // Per thread count, per phase: median ms over the builds.
    let mut columns = Vec::new();
    for threads in [1, 2] {
        let cfg = ClusterConfig {
            threads,
            spill_backend: SpillBackend::Memory,
            io_sort_bytes: 1 << 20,
            io_sort_factor: 16,
            ..ClusterConfig::default()
        };
        let pool = Executor::new(threads);
        // Σ over blocks of the host seconds `walk` takes on one block.
        let task_secs = |walk: &(dyn Fn(usize, &[f64]) + Sync)| -> f64 {
            let secs = pool.run_indexed(&splits, |_, split| {
                let start = Instant::now();
                walk(split.start(), split.slice());
                start.elapsed().as_secs_f64()
            });
            secs.iter().sum()
        };
        let mut samples = vec![Vec::new(); phases.len()];
        for _ in 0..BUILDS {
            let map_fn = task_secs(&|lo, block| {
                let mut sink = 0u64;
                algorithm7(n, lo, block, |i, v| {
                    sink = sink.wrapping_add(i as u64 ^ v.to_bits())
                });
                black_box(sink);
            });
            let partials = task_secs(&|lo, block| {
                black_box(partial_coefficients(n, lo, black_box(block)));
            });
            let cluster = Cluster::new(cfg.clone());
            let start = Instant::now();
            let (_, metrics) = send_coef(&cluster, &data, n / 16, 64).expect("Send-Coef");
            let call = start.elapsed().as_secs_f64();
            let job = &metrics.jobs[0];
            let secs = [
                map_fn,
                partials,
                job.map_task_secs.iter().sum::<f64>(),
                job.spill_secs.iter().sum(),
                job.merge_secs[0],
                job.reduce_task_secs[0] - job.merge_secs[0],
                call - job.real_elapsed.as_secs_f64(),
                call,
            ];
            for (phase, secs) in samples.iter_mut().zip(secs) {
                phase.push(secs * 1e3);
            }
        }
        columns.push(samples.into_iter().map(median).collect::<Vec<f64>>());
    }
    let mut t = Table::new(
        "Tooling — Send-Coef by phase (build-shuffle's shape; host ms, median of 7 builds)",
        "Send-Coef's communication is the algorithm (Afrati–Ullman); the order a mapper \
         emits it in and what the one reducer does with the bytes are the runtime's cost. \
         The rows say which phase a map- or merge-side change moved, from the public API \
         and JobMetrics fields alone",
        &["phase", "T = 1", "T = 2"],
    );
    for (k, phase) in phases.iter().enumerate() {
        t.row(vec![
            phase.to_string(),
            format!("{:.1}", columns[0][k]),
            format!("{:.1}", columns[1][k]),
        ]);
    }
    t.note(
        "task ms are sums over tasks, so they exceed the wall when tasks overlap at T = 2; \
         the map tasks' host time holds the map function, the collector and the spills",
    );
    t
}

fn main() {
    // `cargo bench` passes flags like --bench; ignore them.
    let [communication, local_work] = dp_communication_ablation();
    let tables = [
        bucket_width_ablation(),
        partitioning_ablation(),
        candidate_count_ablation(),
        combiner_ablation(),
        dictionary_ablation(),
        communication,
        local_work,
        request_cycle_by_stage(),
        send_coef_by_phase(),
    ];
    for t in &tables {
        println!("{}", t.to_markdown());
    }
}
