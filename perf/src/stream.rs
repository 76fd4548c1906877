//! The stream stage: writes beside reads.
//!
//! A writer thread appends `TICK_VALUES` values per `ServeDriver::tick`,
//! **open loop** — one tick is due every `TICK_PERIOD_MS` whether or not
//! the previous one is done, because a sensor feed does not wait for us;
//! each tick is timed from when it was *due*. Beside it one `NetClient`
//! reads **closed loop** over loopback. Freshness of a tick is the time
//! from its due instant to the first response the reader receives whose
//! version is at least the store version that tick published.
//!
//! The window a version holds is a pure function of the feed and the
//! version (fill = version 1, tick *k* = version *k* + 2, each tick
//! overwriting the ring's oldest `TICK_VALUES` slots), so the reader
//! replays the feed locally and checks every answer against the window
//! *of the version it is stamped with*.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dwmaxerr_runtime::Cluster;
use dwmaxerr_serve::{NetClient, NetServer, NetServerStats, Query, ServeDriver};

use crate::alloc;
use crate::builds::{cluster_config, greedy_config, ledger_metrics, LedgerSums, Metrics};
use crate::gen;
use crate::serve::{
    check, connect, net_metrics, query_pool, router, server_config, Truth, WARMUP_REQUESTS,
};
use crate::spans::Recorder;
use crate::spec::{BuildKind, Mix, SHARDS, STREAM_BATCH, TICK_PERIOD_MS, TICK_VALUES};
use crate::stats;

/// Quiet ticks after the run, reader stopped, with allocation counting on.
const QUIET_TICKS: usize = 3;
/// How long the reader may wait for the last tick's version after the
/// writer is done.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Values the feed must hold for a window of `n` and `ticks` ticks.
pub fn feed_len(n: usize, ticks: usize) -> usize {
    n + (ticks + QUIET_TICKS) * TICK_VALUES
}

/// The window after `version` was published, replayed from the feed.
pub struct Replay<'a> {
    feed: &'a [f64],
    truth: Truth,
    version: u64,
}

impl<'a> Replay<'a> {
    /// The window as the fill tick (version 1) left it.
    pub fn new(feed: &'a [f64], n: usize) -> Self {
        Replay {
            feed,
            truth: Truth::of(feed[..n].to_vec()),
            version: 1,
        }
    }

    /// Rolls the window forward to `version` (never backwards).
    pub fn advance_to(&mut self, version: u64) {
        if version <= self.version {
            return;
        }
        let n = self.truth.data.len();
        while self.version < version {
            let tick = (self.version - 1) as usize;
            let chunk = &self.feed[n + tick * TICK_VALUES..n + (tick + 1) * TICK_VALUES];
            for (i, &v) in chunk.iter().enumerate() {
                self.truth.data[(tick * TICK_VALUES + i) % n] = v;
            }
            self.version += 1;
        }
        self.truth.prefix = gen::prefix_sums(&self.truth.data);
    }

    /// The replayed window.
    pub fn truth(&self) -> &Truth {
        &self.truth
    }
}

/// A filled `ServeDriver` behind a server, with one warmed reader.
pub struct StreamCtx {
    feed: Vec<f64>,
    n: usize,
    driver: ServeDriver,
    cluster: Cluster,
    server: NetServer,
    reader: NetClient,
    pool: Vec<Query>,
    /// Error bound of the version serving when the stage last finished.
    pub err_abs: f64,
}

impl StreamCtx {
    /// Creates the driver, runs the fill tick over `feed[..n]`, spawns the
    /// server over the driver's store, connects and warms the reader.
    /// `feed` must hold [`feed_len`] values for every tick that will run.
    pub fn start(
        feed: Vec<f64>,
        n: usize,
        base_leaves: usize,
        threads: usize,
        seed: u64,
    ) -> io::Result<StreamCtx> {
        let mut driver = ServeDriver::new(
            n,
            n / 16,
            &greedy_config(base_leaves),
            SHARDS,
            "perf-stream",
        )
        .map_err(io::Error::other)?;
        let cluster = Cluster::new(cluster_config(BuildKind::Greedy, threads));
        let fill = driver
            .tick(&cluster, &feed[..n])
            .map_err(io::Error::other)?;
        let server = NetServer::spawn(driver.store().clone(), Some(router()), server_config())?;
        let mut reader = connect(&server)?;
        let pool = query_pool(Mix::Scan { malformed: false }, n, STREAM_BATCH, seed, 0);
        for chunk in pool.chunks(STREAM_BATCH).take(WARMUP_REQUESTS) {
            reader.request(chunk)?;
        }
        Ok(StreamCtx {
            feed,
            n,
            driver,
            cluster,
            server,
            reader,
            pool,
            err_abs: fill.bound.err_abs.unwrap_or(f64::NAN),
        })
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        drop(self.reader);
        self.server.shutdown();
    }
}

/// One tick as the writer saw it.
#[derive(Debug, Clone)]
pub struct TickRec {
    due: Instant,
    started: Instant,
    ended: Instant,
    version: u64,
    dirty_bases: usize,
    bg_tasks: usize,
    greedy_runs: usize,
    ledger: LedgerSums,
}

/// What the stage measured.
#[derive(Debug, Default)]
pub struct StreamStage {
    /// Ticks in order.
    pub ticks: Vec<TickRec>,
    /// First instant each version was seen by the reader.
    pub seen: Vec<(Instant, u64)>,
    /// Every request's round trip, µs.
    pub latencies_us: Vec<f64>,
    /// Reader queries ÷ stage wall.
    pub qps: f64,
    /// Queries sent by the reader.
    pub queries: u64,
    /// Queries that failed the check, ticks that errored or published an
    /// unexpected version, and versions that went backwards.
    pub failed: u64,
    /// Ticks attempted.
    pub tick_attempts: u64,
    /// First error message, if any.
    pub error: Option<String>,
    /// Allocation calls per quiet tick (traced runs).
    pub quiet_tick_allocs: f64,
    /// Runtime trace events per tick.
    pub trace_events_per_tick: f64,
}

impl StreamStage {
    /// Due → fresh-on-the-client per tick, ms. A tick nobody saw (the
    /// reader gave up) is missing here and counted in `failed`.
    pub fn fresh_ms(&self) -> Vec<f64> {
        self.ticks
            .iter()
            .filter_map(|t| {
                let at = self.seen.partition_point(|&(_, v)| v < t.version);
                self.seen
                    .get(at)
                    .map(|&(when, _)| when.saturating_duration_since(t.due).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

impl StreamCtx {
    /// Runs `ticks` open-loop ticks beside the closed-loop reader.
    pub fn run(&mut self, ticks: usize, rec: &mut Recorder) -> StreamStage {
        let period = Duration::from_millis(TICK_PERIOD_MS);
        let (feed, n) = (&self.feed[..], self.n);
        let first_version = self.driver.store().version() + 1;
        let first_tick = (first_version - 2) as usize;
        let done = AtomicBool::new(false);
        let writer_out: Mutex<(Vec<TickRec>, u64, Option<String>)> =
            Mutex::new((Vec::new(), 0, None));
        let mut stage = StreamStage::default();
        let mut writer_rec = rec.for_track(1);
        let mut reader_rec = rec.for_track(2);
        let mut replay = Replay::new(feed, n);
        let (driver, cluster, reader, pool) = (
            &mut self.driver,
            &self.cluster,
            &mut self.reader,
            &self.pool,
        );
        self.cluster.clear_trace();

        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut out = (Vec::with_capacity(ticks), 0u64, None);
                for k in 0..ticks {
                    let due = start + period * k as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let tick = first_tick + k;
                    let chunk = &feed[n + tick * TICK_VALUES..n + (tick + 1) * TICK_VALUES];
                    let started = Instant::now();
                    match driver.tick(cluster, chunk) {
                        Ok(report) => {
                            let ended = Instant::now();
                            writer_rec.record(
                                "serve.serve_loop.tick",
                                started,
                                ended,
                                None,
                                k as u32,
                            );
                            if report.store_version != first_version + k as u64 {
                                out.1 += 1;
                            }
                            out.0.push(TickRec {
                                due,
                                started,
                                ended,
                                version: report.store_version,
                                dirty_bases: report.build.dirty_bases,
                                bg_tasks: report.build.background_tasks,
                                greedy_runs: report.build.greedy_runs,
                                ledger: LedgerSums::of(&report.build.metrics),
                            });
                        }
                        Err(e) => {
                            out.1 += 1;
                            out.2.get_or_insert(e.to_string());
                        }
                    }
                }
                *writer_out.lock().expect("writer result") = out;
                // Publishes the result above to the reader's final read.
                done.store(true, Ordering::Release);
            });

            // The reader, on this thread.
            let last_version = first_version + ticks as u64 - 1;
            let batches = pool.len() / STREAM_BATCH;
            let mut cursor = WARMUP_REQUESTS;
            let mut highest = 0u64;
            let mut drain_deadline = None;
            loop {
                if done.load(Ordering::Acquire) {
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                    if highest >= last_version || Instant::now() > deadline {
                        break;
                    }
                }
                let at = (cursor % batches) * STREAM_BATCH;
                cursor += 1;
                let chunk = &pool[at..at + STREAM_BATCH];
                let sent = Instant::now();
                match reader.request(chunk) {
                    Ok(response) => {
                        let got = Instant::now();
                        stage.latencies_us.push((got - sent).as_secs_f64() * 1e6);
                        reader_rec.record(
                            "client.request",
                            sent,
                            got,
                            None,
                            response.version as u32,
                        );
                        stage.queries += chunk.len() as u64;
                        if response.version < highest {
                            stage.failed += chunk.len() as u64;
                            continue;
                        }
                        if response.version > highest {
                            highest = response.version;
                            stage.seen.push((got, highest));
                            replay.advance_to(highest);
                        }
                        stage.failed += check(&response, chunk, replay.truth());
                    }
                    Err(e) => {
                        stage.queries += chunk.len() as u64;
                        stage.failed += chunk.len() as u64;
                        stage.error.get_or_insert(e.to_string());
                        break;
                    }
                }
            }
        });
        let wall = start.elapsed();
        stage.qps = stage.queries as f64 / wall.as_secs_f64();

        let (tick_recs, tick_failures, tick_error) =
            std::mem::take(&mut *writer_out.lock().expect("writer result"));
        stage.tick_attempts = ticks as u64;
        stage.failed += tick_failures;
        stage.error = stage.error.take().or(tick_error);
        stage.ticks = tick_recs;
        // A published tick the reader never saw is a failed operation.
        stage.failed += (stage.ticks.len() - stage.fresh_ms().len()) as u64;
        stage.trace_events_per_tick =
            self.cluster.trace_events().len() as f64 / stage.ticks.len().max(1) as f64;
        rec.absorb(writer_rec);
        rec.absorb(reader_rec);

        // Allocations of a tick, measured with nothing else running.
        if rec.enabled() {
            let next = (self.driver.store().version() - 1) as usize;
            let mut calls = Vec::new();
            for k in 0..QUIET_TICKS {
                let tick = next + k;
                let chunk = &feed[n + tick * TICK_VALUES..n + (tick + 1) * TICK_VALUES];
                let (result, counted) =
                    alloc::counted(true, || self.driver.tick(&self.cluster, chunk));
                match result {
                    Ok(_) => calls.push(counted.calls as f64),
                    Err(e) => {
                        stage.failed += 1;
                        stage.error.get_or_insert(e.to_string());
                    }
                }
            }
            stage.tick_attempts += QUIET_TICKS as u64;
            stage.quiet_tick_allocs = stats::median_of(&calls);
        }
        if let Ok(reader) = self.driver.store().reader() {
            self.err_abs = reader.bound().err_abs.unwrap_or(f64::NAN);
        }
        stage
    }

    /// The server's counters.
    pub fn stats(&self) -> NetServerStats {
        self.server.stats()
    }
}

/// `core.tick_*`, `client.fresh_*`, `client.tick_*` and the per-tick
/// `runtime.*` sums for a finished stage.
pub fn layer_metrics(stage: &StreamStage, net: NetServerStats, threads: usize) -> Metrics {
    let ledgers: Vec<LedgerSums> = stage.ticks.iter().map(|t| t.ledger).collect();
    let mut m = ledger_metrics(&ledgers, threads);
    m.extend(net_metrics(&stage.latencies_us, stage.qps, net));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let tick_ms = stats::sorted(
        stage
            .ticks
            .iter()
            .map(|t| ms(t.ended - t.started))
            .collect(),
    );
    let late_ms: Vec<f64> = stage
        .ticks
        .iter()
        .map(|t| ms(t.started.saturating_duration_since(t.due)))
        .collect();
    let fresh = stats::sorted(stage.fresh_ms());
    let med = |f: fn(&TickRec) -> usize| {
        stats::median_of(&stage.ticks.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
    };
    // Ticks due but not yet started when this one started: lateness in
    // whole periods.
    let backlog = late_ms
        .iter()
        .map(|l| (l / TICK_PERIOD_MS as f64).floor())
        .fold(0.0, f64::max);
    let tick_wall_s = stats::median(&tick_ms) / 1e3;
    m.extend([
        ("core.tick_ms_p50", stats::median(&tick_ms)),
        ("core.build_s", tick_wall_s),
        (
            "core.driver_self_s",
            (tick_wall_s - m["runtime.job_wall_s"]).max(0.0),
        ),
        ("core.dirty_bases", med(|t| t.dirty_bases)),
        ("core.bg_tasks", med(|t| t.bg_tasks)),
        ("core.tick_greedy_runs", med(|t| t.greedy_runs)),
        ("client.fresh_ms_p50", stats::median(&fresh)),
        (
            "client.fresh_ms_p95",
            stats::upper_percentile(&fresh, 95.0).1,
        ),
        ("client.tick_late_ms_p50", stats::median_of(&late_ms)),
        ("client.tick_backlog_max", backlog),
        ("alloc.tick_count", stage.quiet_tick_allocs),
        ("runtime.trace.events", stage.trace_events_per_tick),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Input;

    #[test]
    fn replay_reproduces_the_driver_window_version_by_version() {
        let (n, ticks) = (1 << 10, 6);
        // A ring of n = 1024 wraps after four 256-value ticks.
        let feed = gen::series(Input::WdLike, feed_len(n, ticks), 17);
        let mut driver =
            ServeDriver::new(n, 64, &greedy_config(64), SHARDS, "replay-test").unwrap();
        let cluster = Cluster::new(cluster_config(BuildKind::Greedy, 1));
        driver.tick(&cluster, &feed[..n]).unwrap();
        let mut replay = Replay::new(&feed, n);
        assert_eq!(replay.truth().data, driver.driver().window().data());
        for k in 0..ticks {
            let report = driver
                .tick(
                    &cluster,
                    &feed[n + k * TICK_VALUES..n + (k + 1) * TICK_VALUES],
                )
                .unwrap();
            assert_eq!(report.store_version, k as u64 + 2);
            replay.advance_to(report.store_version);
            assert_eq!(
                replay.truth().data,
                driver.driver().window().data(),
                "tick {k}"
            );
            assert_eq!(
                replay.truth().prefix,
                gen::prefix_sums(driver.driver().window().data())
            );
        }
        // Skipping versions lands on the same window; going back is a no-op.
        let mut skip = Replay::new(&feed, n);
        skip.advance_to(ticks as u64 + 1);
        assert_eq!(skip.truth().data, replay.truth().data);
        skip.advance_to(2);
        assert_eq!(skip.truth().data, replay.truth().data);
    }

    #[test]
    fn a_short_stream_is_seen_fresh_and_correct() {
        let (n, ticks) = (1 << 10, 5);
        let feed = gen::series(Input::WdLike, feed_len(n, ticks), 17);
        let mut ctx = StreamCtx::start(feed, n, 64, 1, 17).expect("starts");
        let mut rec = Recorder::new(Instant::now(), true);
        let stage = ctx.run(ticks, &mut rec);
        assert_eq!(stage.failed, 0, "{:?}", stage.error);
        assert_eq!(stage.ticks.len(), ticks);
        assert_eq!(stage.fresh_ms().len(), ticks);
        assert!(
            stage.seen.windows(2).all(|w| w[0].1 < w[1].1),
            "versions monotone"
        );
        assert!(stage.quiet_tick_allocs > 0.0);
        let m = layer_metrics(&stage, ctx.stats(), 1);
        assert!(m["client.fresh_ms_p50"] > 0.0 && m["core.tick_ms_p50"] > 0.0);
        assert!(m["runtime.jobs"] >= 1.0);
        ctx.shutdown();
    }
}
