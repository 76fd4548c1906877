//! The serve stage: one published synopsis behind a `NetServer` on
//! loopback, driven closed-loop (each caller waits for its reply) by up
//! to `T` `NetClient` connections, every answer checked on the client.
//!
//! The load generator is the harness's own `client` layer; its cost is
//! reported (`client.verify_ns_per_query`) so it can be subtracted when a
//! change is attributed.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dwmaxerr_core::query::ErrorBound;
use dwmaxerr_runtime::codec::encoded_len;
use dwmaxerr_runtime::NodeTopology;
use dwmaxerr_serve::error::status;
use dwmaxerr_serve::{
    execute_partial_with_stats, NetClient, NetServer, NetServerConfig, NetServerStats, Query,
    QueryResponse, ShardRouter, ShardedSynopsis, SlotResult, SynopsisStore,
};
use dwmaxerr_wavelet::Synopsis;

use crate::alloc::{self, Counted};
use crate::builds::Metrics;
use crate::gen;
use crate::spans::Recorder;
use crate::spec::{Mix, NODES, POOL_THREADS, REPLICATION, SHARDS};
use crate::stats;
use crate::yardstick::Yardstick;

/// Framing bytes around a DWQ1 payload: magic 4 + length 4 + FNV footer 8.
const FRAME_BYTES: usize = 16;
/// Requests each client sends before anything is timed.
pub const WARMUP_REQUESTS: usize = 64;
/// Distinct request batches per client; the stream cycles through them.
const POOL_BATCHES: usize = 256;
/// Read timeout on every client: a hung server fails the run instead of
/// hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// Client `client`'s query stream: at least [`POOL_BATCHES`] distinct
/// batches (and at least 2^16 queries), which the client cycles through.
pub fn query_pool(mix: Mix, n: usize, batch: usize, seed: u64, client: usize) -> Vec<Query> {
    let count = (POOL_BATCHES * batch).max(1 << 16);
    gen::queries(mix, n, count, gen::client_seed(seed, client))
}

/// The router every server in the benchmark uses.
pub fn router() -> ShardRouter {
    let topology = NodeTopology {
        nodes: NODES,
        slots_per_node: 2,
    };
    ShardRouter::new(SHARDS, topology, REPLICATION).expect("replication ≤ nodes")
}

/// The server configuration: inline pool, explicit so the ambient
/// `DWM_THREADS` never changes what is measured.
pub fn server_config() -> NetServerConfig {
    NetServerConfig {
        threads: POOL_THREADS,
        ..NetServerConfig::default()
    }
}

/// A connected client with its read timeout set.
pub fn connect(server: &NetServer) -> io::Result<NetClient> {
    let client = NetClient::connect(server.local_addr())?;
    client.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(client)
}

/// The raw window answers are checked against.
#[derive(Debug, Clone)]
pub struct Truth {
    /// The window.
    pub data: Vec<f64>,
    /// Its prefix sums.
    pub prefix: Vec<f64>,
}

impl Truth {
    /// Truth over `data`.
    pub fn of(data: Vec<f64>) -> Self {
        let prefix = gen::prefix_sums(&data);
        Truth { data, prefix }
    }
}

/// Checks one response against the window it was answered from. Returns
/// how many of the batch's queries failed: a malformed query must come
/// back as an individual error slot, every valid sibling must carry an
/// answer, stamped with the response's version, that satisfies
/// `Answer::bounds_hold` against the raw window. A refused or short
/// response fails the whole batch.
pub fn check(response: &QueryResponse, batch: &[Query], truth: &Truth) -> u64 {
    if response.status != status::OK || response.slots.len() != batch.len() {
        return batch.len() as u64;
    }
    let n = truth.data.len();
    let mut failed = 0;
    for (slot, &q) in response.slots.iter().zip(batch) {
        let ok = match (gen::is_malformed(n, q), slot) {
            (true, SlotResult::Error { .. }) => true,
            (false, SlotResult::Answer(a)) => {
                a.version == response.version
                    && a.bounds_hold(gen::exact(&truth.data, &truth.prefix, q), 1e-6)
            }
            _ => false,
        };
        failed += u64::from(!ok);
    }
    failed
}

/// A running server over one published synopsis, with connected, warmed
/// clients and their query pools.
pub struct ServeCtx {
    server: NetServer,
    truth: Arc<Truth>,
    clients: Vec<NetClient>,
    pools: Vec<Vec<Query>>,
    batch: usize,
    /// `SynopsisStore::publish` wall, µs (shard build + swap).
    pub publish_us: f64,
}

impl ServeCtx {
    /// Publishes `synopsis` into a fresh 16-shard store, spawns the
    /// server, connects `clients` clients, generates their query pools
    /// from `seed`, and warms every connection up.
    pub fn start(
        synopsis: &Synopsis,
        bound: ErrorBound,
        truth: Arc<Truth>,
        mix: Mix,
        batch: usize,
        clients: usize,
        seed: u64,
    ) -> io::Result<ServeCtx> {
        let store = SynopsisStore::new("perf-serve", SHARDS);
        let t = Instant::now();
        store
            .publish(synopsis, bound, 0.0, 1)
            .map_err(io::Error::other)?;
        let publish_us = t.elapsed().as_secs_f64() * 1e6;
        let server = NetServer::spawn(store, Some(router()), server_config())?;
        let n = truth.data.len();
        let mut ctx = ServeCtx {
            clients: (0..clients)
                .map(|_| connect(&server))
                .collect::<io::Result<_>>()?,
            pools: (0..clients)
                .map(|c| query_pool(mix, n, batch, seed, c))
                .collect(),
            server,
            truth,
            batch,
            publish_us,
        };
        for (client, pool) in ctx.clients.iter_mut().zip(&ctx.pools) {
            for chunk in pool.chunks(batch).take(WARMUP_REQUESTS) {
                client.request(chunk)?;
            }
        }
        Ok(ctx)
    }

    /// The server's counters.
    pub fn stats(&self) -> NetServerStats {
        self.server.stats()
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// What one client saw in one segment.
struct ClientSegment {
    latencies_us: Vec<f64>,
    queries: u64,
    failed: u64,
    io_error: Option<String>,
    rec: Recorder,
}

/// One closed loop: request, wait, check, repeat until `deadline`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut NetClient,
    pool: &[Query],
    batch: usize,
    cursor: &mut usize,
    truth: &Truth,
    deadline: Instant,
    rec: Recorder,
    segment: u32,
) -> ClientSegment {
    let batches = pool.len() / batch;
    let mut out = ClientSegment {
        latencies_us: Vec::with_capacity(1 << 16),
        queries: 0,
        failed: 0,
        io_error: None,
        rec,
    };
    loop {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        let at = (*cursor % batches) * batch;
        *cursor += 1;
        let chunk = &pool[at..at + batch];
        match client.request(chunk) {
            Ok(response) => {
                let end = Instant::now();
                out.latencies_us.push((end - start).as_secs_f64() * 1e6);
                out.rec.record("client.request", start, end, None, segment);
                out.queries += chunk.len() as u64;
                out.failed += check(&response, chunk, truth);
            }
            Err(e) => {
                out.queries += chunk.len() as u64;
                out.failed += chunk.len() as u64;
                out.io_error = Some(e.to_string());
                break;
            }
        }
    }
    out
}

/// What the stage measured.
#[derive(Debug, Clone, Default)]
pub struct ServeStage {
    /// Every request's round trip, µs, all clients, all segments.
    pub latencies_us: Vec<f64>,
    /// Per-segment queries ÷ segment wall.
    pub segment_qps: Vec<f64>,
    /// Queries sent.
    pub queries: u64,
    /// Queries that failed [`check`] or whose request errored.
    pub failed: u64,
    /// First transport error, if any.
    pub io_error: Option<String>,
    /// Allocations during the segments, whole process (traced runs).
    pub counted: Counted,
}

impl ServeStage {
    /// Appends a later stage's segments to this one's.
    pub fn absorb(&mut self, later: ServeStage) {
        self.latencies_us.extend(later.latencies_us);
        self.segment_qps.extend(later.segment_qps);
        self.queries += later.queries;
        self.failed += later.failed;
        self.io_error = self.io_error.take().or(later.io_error);
        self.counted.calls += later.counted.calls;
        self.counted.peak_bytes = self.counted.peak_bytes.max(later.counted.peak_bytes);
    }
}

impl ServeCtx {
    /// Runs `segments` segments of `segment_len` each, all clients in
    /// parallel, and merges what they saw. The yardstick is read between
    /// segments, while no client is waiting.
    pub fn run(
        &mut self,
        segments: usize,
        segment_len: Duration,
        rec: &mut Recorder,
        yard: &mut Yardstick,
    ) -> ServeStage {
        let mut stage = ServeStage::default();
        let mut cursors = vec![WARMUP_REQUESTS; self.clients.len()];
        let (batch, truth, pools) = (self.batch, &*self.truth, &self.pools);
        let clients = &mut self.clients;
        let ((), counted) = alloc::counted(rec.enabled(), || {
            for segment in 0..segments as u32 {
                yard.read();
                let start = Instant::now();
                let deadline = start + segment_len;
                let outs: Vec<ClientSegment> = std::thread::scope(|scope| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .zip(pools)
                        .zip(cursors.iter_mut())
                        .enumerate()
                        .map(|(c, ((client, pool), cursor))| {
                            let track = rec.for_track(c as u32 + 1);
                            scope.spawn(move || {
                                client_loop(
                                    client, pool, batch, cursor, truth, deadline, track, segment,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread"))
                        .collect()
                });
                let end = Instant::now();
                rec.record("client.segment", start, end, None, segment);
                let queries: u64 = outs.iter().map(|o| o.queries).sum();
                stage
                    .segment_qps
                    .push(queries as f64 / (end - start).as_secs_f64());
                for out in outs {
                    stage.latencies_us.extend(out.latencies_us);
                    stage.queries += out.queries;
                    stage.failed += out.failed;
                    stage.io_error = stage.io_error.take().or(out.io_error);
                    rec.absorb(out.rec);
                }
            }
            yard.read();
        });
        stage.counted = counted;
        stage
    }

    /// `serve.*` and `client.*` metrics for a finished stage, plus the
    /// in-process probes that need this context: the batch executor on the
    /// same batches the clients sent, the harness's own checker timed
    /// alone, and direct store calls.
    pub fn layer_metrics(&mut self, stage: &ServeStage) -> io::Result<Metrics> {
        let mut m = net_metrics(
            &stage.latencies_us,
            stats::median_of(&stage.segment_qps),
            self.stats(),
        );
        m.insert(
            "alloc.serve_count_per_query",
            if stage.queries > 0 {
                stage.counted.calls as f64 / stage.queries as f64
            } else {
                0.0
            },
        );

        // One request and its response, measured as encoded.
        let first: Vec<Query> = self.pools[0][..self.batch].to_vec();
        let response = self.clients[0].request(&first)?;
        m.insert(
            "serve.net.req_bytes",
            (encoded_len(&(1u64, first)) + FRAME_BYTES) as f64,
        );
        m.insert(
            "serve.net.resp_bytes",
            (encoded_len(&response) + FRAME_BYTES) as f64,
        );

        // The batch executor, in process, on client 0's batches.
        let reader = self.server.store().reader().map_err(io::Error::other)?;
        let sample: Vec<&[Query]> = self.pools[0]
            .chunks(self.batch)
            .take(POOL_BATCHES)
            .collect();
        let (mut hits, mut groups, mut answered) = (0usize, 0usize, 0usize);
        let t = Instant::now();
        for chunk in &sample {
            let (slots, s) = execute_partial_with_stats(&reader, chunk);
            std::hint::black_box(&slots);
            hits += s.memo_hits;
            groups += s.shard_groups;
            answered += chunk.len();
        }
        let eval = t.elapsed();
        m.insert(
            "serve.batch.eval_ns_per_query",
            eval.as_secs_f64() * 1e9 / answered as f64,
        );
        m.insert("serve.batch.memo_hit_rate", hits as f64 / answered as f64);
        m.insert(
            "serve.batch.shard_groups",
            groups as f64 / sample.len() as f64,
        );

        // The harness's own checker, alone, on real responses.
        let responses: Vec<(QueryResponse, &[Query])> = sample
            .iter()
            .take(32)
            .map(|chunk| Ok((self.clients[0].request(chunk)?, *chunk)))
            .collect::<io::Result<_>>()?;
        let rounds = (200_000 / (32 * self.batch)).max(1);
        let t = Instant::now();
        let mut failed = 0;
        for _ in 0..rounds {
            for (response, chunk) in &responses {
                failed += check(std::hint::black_box(response), chunk, &self.truth);
            }
        }
        std::hint::black_box(failed);
        m.insert(
            "client.verify_ns_per_query",
            t.elapsed().as_secs_f64() * 1e9 / (rounds * 32 * self.batch) as f64,
        );

        // Direct store calls: shard build, publish, reader pin.
        let store = self.server.store();
        m.insert("serve.store.publish_us", self.publish_us);
        let t = Instant::now();
        for _ in 0..100_000 {
            std::hint::black_box(store.reader().map_err(io::Error::other)?);
        }
        m.insert("serve.store.reader_ns", t.elapsed().as_secs_f64() * 1e4);
        Ok(m)
    }
}

/// The client's view of the round trip and the server's own counters,
/// side by side: `client.{qps,rtt_*,requests}` and `serve.net.*`.
pub fn net_metrics(latencies_us: &[f64], qps: f64, net: NetServerStats) -> Metrics {
    let lat = stats::sorted(latencies_us.to_vec());
    let rtt_p50 = stats::median(&lat);
    Metrics::from([
        ("client.qps", qps),
        ("client.rtt_us_p50", rtt_p50),
        ("client.rtt_us_p99", stats::upper_percentile(&lat, 99.0).1),
        ("client.requests", lat.len() as f64),
        ("serve.net.service_us_p50", net.p50_us),
        ("serve.net.service_us_p99", net.p99_us),
        ("serve.net.failed_queries", net.failed_queries as f64),
        ("serve.net.shed", net.shed as f64),
        ("serve.net.bad_frames", net.bad_frames as f64),
        // Framing, syscalls, loopback and thread wake-ups: what the round
        // trip costs beyond the server's own pin-to-flush service time.
        ("serve.net.wire_us_p50", rtt_p50 - net.p50_us),
    ])
}

/// `serve.shard.build_us`: `ShardedSynopsis::build` timed directly,
/// median of five.
pub fn shard_build_us(synopsis: &Synopsis, bound: ErrorBound) -> f64 {
    let walls: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let sharded = ShardedSynopsis::build(synopsis, SHARDS, bound, 1);
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(&sharded);
            us
        })
        .collect();
    stats::median_of(&walls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builds::{build_once, BuildJob};
    use crate::spec::{BuildKind, Input};

    fn small() -> (Synopsis, ErrorBound, Arc<Truth>) {
        let data = gen::series(Input::WdLike, 1 << 10, 17);
        let job = BuildJob {
            kind: BuildKind::Greedy,
            data: &data,
            budget: 64,
            base_leaves: 32,
            threads: 1,
        };
        let out = build_once(&job).expect("builds");
        let bound = ErrorBound::abs(out.advertised.unwrap());
        (out.synopsis, bound, Arc::new(Truth::of(data)))
    }

    #[test]
    fn a_short_stage_answers_everything_and_isolates_malformed_queries() {
        let (synopsis, bound, truth) = small();
        let mix = Mix::Scan { malformed: true };
        let mut ctx = ServeCtx::start(&synopsis, bound, truth, mix, 64, 2, 17).expect("starts");
        let mut rec = Recorder::new(Instant::now(), true);
        let stage = ctx.run(
            2,
            Duration::from_millis(50),
            &mut rec,
            &mut Yardstick::off(),
        );
        assert!(stage.queries > 0 && stage.failed == 0, "{stage:?}");
        assert_eq!(stage.segment_qps.len(), 2);
        assert!(stage.io_error.is_none());
        // One span per request plus one per segment.
        assert_eq!(rec.spans().len(), stage.latencies_us.len() + 2);
        let m = ctx.layer_metrics(&stage).expect("probes");
        assert!(
            m["serve.net.failed_queries"] > 0.0,
            "malformed queries reach the server"
        );
        assert_eq!(m["serve.net.shed"] + m["serve.net.bad_frames"], 0.0);
        assert!(m["serve.batch.memo_hit_rate"] > 0.0);
        ctx.shutdown();
    }

    #[test]
    fn the_checker_rejects_wrong_answers() {
        let (synopsis, bound, truth) = small();
        let mut ctx = ServeCtx::start(&synopsis, bound, truth.clone(), Mix::Point, 16, 1, 17)
            .expect("starts");
        let batch: Vec<Query> = ctx.pools[0][..16].to_vec();
        let good = ctx.clients[0].request(&batch).expect("round trip");
        assert_eq!(check(&good, &batch, &truth), 0);

        // Against another window the same answers are out of bound.
        let other = Truth::of(truth.data.iter().map(|v| v + 500.0).collect());
        assert_eq!(check(&good, &batch, &other), 16);
        // A refused batch fails every query in it.
        let refused = QueryResponse {
            status: status::OVERLOADED,
            slots: Vec::new(),
            ..good.clone()
        };
        assert_eq!(check(&refused, &batch, &truth), 16);
        // A malformed query that is answered is a failure, and so is a
        // valid one that errors.
        let mut bad_batch = batch.clone();
        bad_batch[3] = Query::Point {
            x: truth.data.len() + 1,
        };
        assert_eq!(check(&good, &bad_batch, &truth), 1);
        // A stale version stamp is a failure.
        let restamped = QueryResponse {
            version: good.version + 1,
            ..good
        };
        assert_eq!(check(&restamped, &batch, &truth), 16);
        ctx.shutdown();
    }
}
