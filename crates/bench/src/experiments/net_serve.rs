//! Networked-serving benchmark: end-to-end QPS and latency of the
//! `serve::net` TCP front under concurrent clients.
//!
//! One sweep builds a single exact DGreedyAbs synopsis over a WD-like
//! window, publishes it into a store, and spawns a [`NetServer`] per
//! shard count (router over a 4-node simulated topology, replication
//! 2). For every `(shards, clients, batch)` cell, `clients` OS threads
//! each open their own TCP connection and drain a deterministic
//! zipf-skewed query stream in `batch`-sized requests, timing every
//! round trip client-side. The merged latency distribution yields exact
//! p50/p99; QPS is total queries over the cell's wall-clock.
//!
//! The benchmark doubles as a correctness sweep, and deliberately plays
//! adversary: roughly one query in 64 is malformed (out-of-range point
//! or inverted range). Every response is verified client-side —
//!
//! * a malformed query must come back as an individual error slot;
//! * every valid sibling must be answered (anything else counts as a
//!   **poisoned batch**, the headline regression this PR fixes);
//! * every answer must be within its advertised `err_abs` of the exact
//!   value computed from the raw window.
//!
//! The smoke gates require zero bound violations, zero poisoned
//! batches, and a QPS floor.

use std::time::{Duration, Instant};

use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_core::query::ErrorBound;
use dwmaxerr_datagen::{wd_like, Distribution};
use dwmaxerr_runtime::trace::json;
use dwmaxerr_runtime::{Cluster, ClusterConfig, NodeTopology};
use dwmaxerr_serve::{
    NetClient, NetServer, NetServerConfig, Query, ShardRouter, SlotResult, SynopsisStore,
};

use crate::report::{bench_document, Table};

/// Nodes in the simulated topology the router places shards on.
const NODES: usize = 4;
/// Replicas per shard (a node kill stays servable; see `serve::router`).
const REPLICATION: usize = 2;
/// Roughly one query in this many is deliberately malformed.
const MALFORMED_EVERY: usize = 64;

/// One `(shards, clients, batch)` cell of the networked sweep.
#[derive(Debug, Clone, Copy)]
pub struct NetServeSample {
    /// Shard count the store re-sharded into.
    pub shards: usize,
    /// Concurrent client threads (one TCP connection each).
    pub clients: usize,
    /// Queries per request frame.
    pub batch: usize,
    /// End-to-end queries per second across all clients (wall-clock).
    pub qps: f64,
    /// Median request round-trip latency, milliseconds (client-side).
    pub p50_ms: f64,
    /// 99th-percentile request round-trip latency, milliseconds.
    pub p99_ms: f64,
    /// Total queries sent through this cell (valid + malformed).
    pub queries: usize,
    /// Malformed queries injected (each must error individually).
    pub malformed: usize,
    /// Answers outside their advertised bound (must be 0).
    pub bound_violations: usize,
    /// Responses where a *valid* query errored or the batch was
    /// rejected — the poisoning regression (must be 0).
    pub poisoned_batches: usize,
}

/// The whole networked sweep plus the build it served.
#[derive(Debug)]
pub struct NetServeSweep {
    /// One row per `(shards, clients, batch)` cell.
    pub samples: Vec<NetServeSample>,
    /// Served window length.
    pub n: usize,
    /// Synopsis budget.
    pub budget: usize,
    /// Retained coefficients in the served synopsis.
    pub synopsis_size: usize,
    /// Advertised per-point absolute bound.
    pub err_abs: f64,
}

/// Deterministic zipf-skewed stream: 75 % points, 25 % range sums, and
/// roughly one in [`MALFORMED_EVERY`] queries malformed.
fn query_stream(n: usize, count: usize, seed: u64) -> Vec<Query> {
    let targets = Distribution::Zipf(1.1).generate(count, (n - 1) as f64, seed);
    let widths = Distribution::Uniform.generate(count, 255.0, seed ^ 0x9e37);
    targets
        .iter()
        .zip(&widths)
        .enumerate()
        .map(|(i, (&t, &w))| {
            let x = (t as usize).min(n - 1);
            if i % MALFORMED_EVERY == MALFORMED_EVERY - 1 {
                if i % (2 * MALFORMED_EVERY) == MALFORMED_EVERY - 1 {
                    Query::Point { x: n + x }
                } else {
                    Query::RangeSum { l: n - 1, h: 0 }
                }
            } else if i % 4 == 3 {
                let h = (x + w as usize).min(n - 1);
                Query::RangeSum { l: x, h }
            } else {
                Query::Point { x }
            }
        })
        .collect()
}

fn is_malformed(n: usize, q: Query) -> bool {
    match q {
        Query::Point { x } => x >= n,
        Query::RangeSum { l, h } => l > h || h >= n,
    }
}

/// Exact answers from the raw window (valid queries only).
fn exact_value(data: &[f64], prefix: &[f64], q: Query) -> f64 {
    match q {
        Query::Point { x } => data[x],
        Query::RangeSum { l, h } => prefix[h + 1] - prefix[l],
    }
}

/// What one client thread observed in one cell.
struct ClientOutcome {
    latencies_ms: Vec<f64>,
    queries: usize,
    malformed: usize,
    bound_violations: usize,
    poisoned_batches: usize,
}

fn run_client(
    addr: std::net::SocketAddr,
    stream: &[Query],
    batch: usize,
    n: usize,
    data: &[f64],
    prefix: &[f64],
) -> ClientOutcome {
    let mut client = NetClient::connect(addr).expect("client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    let mut out = ClientOutcome {
        latencies_ms: Vec::with_capacity(stream.len() / batch + 1),
        queries: 0,
        malformed: 0,
        bound_violations: 0,
        poisoned_batches: 0,
    };
    for chunk in stream.chunks(batch) {
        let start = Instant::now();
        let response = client.request(chunk).expect("request round-trips");
        out.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.queries += chunk.len();
        if response.slots.len() != chunk.len() {
            out.poisoned_batches += 1;
            continue;
        }
        let mut poisoned = false;
        for (slot, &q) in response.slots.iter().zip(chunk) {
            if is_malformed(n, q) {
                out.malformed += 1;
                if slot.is_ok() {
                    // A malformed query that "succeeds" is as much a
                    // contract break as a poisoned sibling.
                    poisoned = true;
                }
                continue;
            }
            match slot {
                SlotResult::Answer(a) => {
                    if !a.bounds_hold(exact_value(data, prefix, q), 1e-6) {
                        out.bound_violations += 1;
                    }
                }
                SlotResult::Error { .. } => poisoned = true,
            }
        }
        if poisoned {
            out.poisoned_batches += 1;
        }
    }
    out
}

/// Runs the networked sweep. `smoke` shrinks the window, cell grid, and
/// per-client request count so CI finishes in seconds.
pub fn net_serve_sweep(smoke: bool) -> NetServeSweep {
    let n = if smoke { 1 << 12 } else { 1 << 16 };
    let budget = n / 16;
    let requests_per_client = if smoke { 150 } else { 400 };
    let shard_counts: &[usize] = if smoke { &[16] } else { &[4, 16] };
    let client_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let batch_sizes: &[usize] = if smoke { &[16, 256] } else { &[16, 256, 1024] };

    let data = wd_like(n, 2e-4, 17);
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &v) in data.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
    }

    let cfg = DGreedyAbsConfig {
        base_leaves: (n / 64).max(2),
        bucket_width: 1e-6,
        reducers: 4,
        max_candidates: None,
    };
    let build = dgreedy_abs(&Cluster::new(ClusterConfig::default()), &data, budget, &cfg)
        .expect("net serve bench build");
    let bound = ErrorBound::from_dgreedy_abs(&build, &cfg);
    let err_abs = bound.err_abs.expect("DGreedyAbs carries an abs bound");

    let topology = NodeTopology {
        nodes: NODES,
        slots_per_node: 2,
    };
    let mut samples = Vec::new();
    for &shards in shard_counts {
        let store = SynopsisStore::new("net-serve-bench", shards);
        store
            .publish(&build.synopsis, bound, 0.0, 1)
            .expect("publish");
        let router = ShardRouter::new(shards, topology, REPLICATION).expect("router");
        let server = NetServer::spawn(store, Some(router), NetServerConfig::default())
            .expect("server spawns");
        let addr = server.local_addr();

        for &clients in client_counts {
            for &batch in batch_sizes {
                let cell_start = Instant::now();
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let stream =
                            query_stream(n, requests_per_client * batch, 29 ^ (c as u64) << 8);
                        let data = data.clone();
                        let prefix = prefix.clone();
                        std::thread::spawn(move || {
                            run_client(addr, &stream, batch, n, &data, &prefix)
                        })
                    })
                    .collect();
                let outcomes: Vec<ClientOutcome> = handles
                    .into_iter()
                    .map(|h| h.join().expect("client"))
                    .collect();
                let elapsed = cell_start.elapsed().as_secs_f64();

                let mut latencies: Vec<f64> = outcomes
                    .iter()
                    .flat_map(|o| o.latencies_ms.iter().copied())
                    .collect();
                latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
                let pick = |q: f64| -> f64 {
                    if latencies.is_empty() {
                        return 0.0;
                    }
                    let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
                    latencies[idx]
                };
                let queries: usize = outcomes.iter().map(|o| o.queries).sum();
                samples.push(NetServeSample {
                    shards,
                    clients,
                    batch,
                    qps: queries as f64 / elapsed.max(1e-9),
                    p50_ms: pick(0.50),
                    p99_ms: pick(0.99),
                    queries,
                    malformed: outcomes.iter().map(|o| o.malformed).sum(),
                    bound_violations: outcomes.iter().map(|o| o.bound_violations).sum(),
                    poisoned_batches: outcomes.iter().map(|o| o.poisoned_batches).sum(),
                });
            }
        }
        server.shutdown();
    }

    NetServeSweep {
        samples,
        n,
        budget,
        synopsis_size: build.synopsis.size(),
        err_abs,
    }
}

impl NetServeSweep {
    /// Human-readable sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Networked serving (n = {}, B = {}, retained = {}, err_abs = {:.3}, \
                 {NODES} nodes, replication {REPLICATION})",
                self.n, self.budget, self.synopsis_size, self.err_abs
            ),
            "concurrent TCP clients drain mixed batches through the DWQ2 front; \
             ~1/64 queries are deliberately malformed and must error individually",
            &[
                "shards",
                "clients",
                "batch",
                "QPS",
                "p50 ms",
                "p99 ms",
                "malformed",
                "violations",
                "poisoned",
            ],
        );
        for s in &self.samples {
            t.row(vec![
                format!("{}", s.shards),
                format!("{}", s.clients),
                format!("{}", s.batch),
                format!("{:.0}", s.qps),
                format!("{:.3}", s.p50_ms),
                format!("{:.3}", s.p99_ms),
                format!("{}", s.malformed),
                format!("{}", s.bound_violations),
                format!("{}", s.poisoned_batches),
            ]);
        }
        t.note(
            "violations: answers outside their advertised err_abs against the raw \
             window (must be 0); poisoned: responses where a valid query errored \
             because of a malformed co-batched sibling, or a malformed query was \
             answered (must be 0); latencies are client-side round trips including \
             wire encode/decode",
        );
        t
    }

    /// The `BENCH_net_serve.json` document.
    pub fn to_json(&self, smoke: bool) -> String {
        let header = [
            ("n", self.n.into()),
            ("budget", self.budget.into()),
            ("synopsis_size", self.synopsis_size.into()),
            ("err_abs", self.err_abs.into()),
            ("nodes", NODES.into()),
            ("replication", REPLICATION.into()),
        ];
        let rows = self
            .samples
            .iter()
            .map(|x| {
                json::object([
                    ("shards", x.shards.into()),
                    ("clients", x.clients.into()),
                    ("batch", x.batch.into()),
                    ("qps", x.qps.into()),
                    ("p50_ms", x.p50_ms.into()),
                    ("p99_ms", x.p99_ms.into()),
                    ("queries", x.queries.into()),
                    ("malformed", x.malformed.into()),
                    ("bound_violations", x.bound_violations.into()),
                    ("poisoned_batches", x.poisoned_batches.into()),
                ])
            })
            .collect();
        bench_document("net_serve", smoke, &ClusterConfig::default(), header, rows)
    }
}
