//! One workload, one process: set-up, the timed stage, the checks, and the
//! metrics that come out.
//!
//! The **timed run** (`--trace 0`) sets the workload up three times
//! (reporting the median as `setup_s`), runs its stage for `--seconds`
//! with tracing and allocation counting off, reading the host-speed
//! yardstick between operations, and reports the end-to-end metrics scaled
//! by it (see [`crate::yardstick`]). The **traced run** (`--trace 1`) runs the same stage at
//! reduced length twice — spans and allocation counting off, then on, the
//! difference being `bench.trace_overhead_frac` — and then walks the rest
//! of the product chain on the same data in short form (a build, a serve
//! stage, a stream stage, the layer probes), so every layer reports its
//! numbers under every workload and a layer that should stay flat can be
//! seen to.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dwmaxerr_core::query::ErrorBound;

use crate::builds::{self, BuildJob, BuildOut, BuildStage, Fingerprint, Metrics};
use crate::gen;
use crate::probes;
use crate::serve::{self, ServeCtx, ServeStage, Truth};
use crate::spans::Recorder;
use crate::spec::{
    load_threads, BuildKind, Mix, Stage, Workload, STREAM_BASE, STREAM_BATCH, STREAM_N,
    TICK_PERIOD_MS,
};
use crate::stats;
use crate::stream::{self, StreamCtx};
use crate::yardstick::Yardstick;

/// Times the workload is set up in a timed run.
const SETUPS: usize = 3;
/// Fewest timed builds, segments and ticks a timed run may shrink to.
const MIN_BUILDS: usize = 5;
const SEGMENTS: usize = 20;
const MIN_TICKS: usize = 100;
/// Independent feeds a timed stream run is split over.
const FEEDS: usize = 24;
/// Share of `--seconds` the serving and stream stages give their segments
/// and ticks; the yardstick readings between them take the rest.
const STAGE_SHARE: f64 = 0.85;
/// Lengths of the short forms in a traced run.
const SHORT_SEGMENTS: usize = 2;
const SHORT_SEGMENT: Duration = Duration::from_millis(300);
const SHORT_TICKS: usize = 12;
/// Untraced/traced pairs the main stage of a traced run alternates over.
const PAIRS: usize = 3;

/// What a run produced.
pub struct Outcome {
    /// Operations attempted: builds, queries, ticks and checks.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
    /// First error seen, for the log.
    pub error: Option<String>,
    /// The spans (traced runs).
    pub spans: Recorder,
}

/// The build a workload's chain starts from.
fn build_kind(w: &Workload) -> BuildKind {
    match w.stage {
        Stage::Build(kind) => kind,
        Stage::Serve { .. } | Stage::Stream => BuildKind::Greedy,
    }
}

/// What the serve stage sends under workload `w`: its own traffic when
/// serving is the workload, the scan mix from `T` clients after a build,
/// the stream reader's mix beside a stream.
fn serve_shape(w: &Workload, threads: usize) -> (Mix, usize, usize) {
    match w.stage {
        Stage::Serve { batch, mix } => (mix, batch, threads),
        Stage::Build(_) => (Mix::Scan { malformed: true }, 1024, threads),
        Stage::Stream => (Mix::Scan { malformed: false }, STREAM_BATCH, 1),
    }
}

fn ticks_for(seconds: f64) -> usize {
    (seconds * 1e3 / TICK_PERIOD_MS as f64).round() as usize
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Data plus the reference build every later repetition must reproduce.
struct Built {
    data: Vec<f64>,
    out: BuildOut,
}

impl Built {
    /// Builds the workload's chain-opening synopsis over `data`.
    fn new(w: &Workload, data: Vec<f64>, threads: usize) -> Result<Built, String> {
        let out = builds::build_once(&job(w, &data, threads))?;
        Ok(Built { data, out })
    }
}

fn job<'a>(w: &Workload, data: &'a [f64], threads: usize) -> BuildJob<'a> {
    BuildJob {
        kind: build_kind(w),
        data,
        budget: w.budget(),
        base_leaves: w.base_leaves,
        threads,
    }
}

fn build_reference(w: &Workload, seed: u64, threads: usize) -> Result<Built, String> {
    Built::new(w, gen::series(w.input, w.n, seed), threads)
}

fn start_serving(
    w: &Workload,
    built: &Built,
    err_abs: f64,
    seed: u64,
    threads: usize,
) -> Result<ServeCtx, String> {
    let (mix, batch, clients) = serve_shape(w, threads);
    let truth = Arc::new(Truth::of(built.data.clone()));
    ServeCtx::start(
        &built.out.synopsis,
        ErrorBound::abs(err_abs),
        truth,
        mix,
        batch,
        clients,
        seed,
    )
    .map_err(|e| format!("serve set-up: {e}"))
}

/// Running totals of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn note(&mut self, error: Option<String>) {
        if self.error.is_none() {
            self.error = error;
        }
    }
}

/// Sets the workload up [`SETUPS`] times, handing each attempt's wall to
/// `setup_s`; keeps the last and tears the others down. Every attempt's
/// deterministic counts must equal the first's. The yardstick is read
/// before each attempt.
fn repeated_setup<T, F: PartialEq>(
    tally: &mut Tally,
    yard: &mut Yardstick,
    mut setup: impl FnMut() -> Result<(T, F), String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut walls = Vec::with_capacity(SETUPS);
    let mut kept: Option<(T, F)> = None;
    for _ in 0..SETUPS {
        yard.read();
        let t = Instant::now();
        let (ctx, fingerprint) = setup()?;
        walls.push(t.elapsed().as_secs_f64());
        tally.add(1, 0);
        if let Some((previous, reference)) = kept.take() {
            tally.add(0, u64::from(reference != fingerprint));
            teardown(previous);
        }
        kept = Some((ctx, fingerprint));
    }
    let (ctx, _) = kept.expect("SETUPS > 0");
    Ok((ctx, stats::median_of(&walls)))
}

/// The timed run.
fn timed(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let threads = load_threads();
    let budget_time = Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new(Instant::now(), false);
    let mut yard = Yardstick::new(threads);
    let mut tally = Tally::default();
    let mut m = Metrics::new();

    match w.stage {
        Stage::Build(_) => {
            let (built, setup_s) = repeated_setup(
                &mut tally,
                &mut yard,
                || {
                    let built = build_reference(w, seed, threads)?;
                    let fingerprint = Fingerprint::of(&built.out);
                    Ok((built, fingerprint))
                },
                drop,
            )?;
            let reference = Fingerprint::of(&built.out);
            let job = job(w, &built.data, threads);
            let stage = builds::run(
                &job,
                &reference,
                budget_time,
                MIN_BUILDS,
                &mut rec,
                &mut yard,
            );
            tally.add(stage.attempted, stage.failed);
            let last = stage.last.as_ref().ok_or("no build succeeded")?;
            tally.add(builds::CHECKS, builds::verify(&job, last).1);
            let per_s = |r: &builds::Rep| w.n as f64 / r.rep_wall.as_secs_f64();
            m.insert("setup_s", setup_s);
            m.insert(
                "op_ms_p25",
                stats::quartile_low(&stats::sorted(stage.walls())) * 1e3,
            );
            m.insert(
                "work_per_s",
                stats::quartile_high(&stats::sorted(stage.reps.iter().map(per_s).collect())),
            );
        }
        Stage::Serve { .. } => {
            let (mut ctx, setup_s) = repeated_setup(
                &mut tally,
                &mut yard,
                || {
                    // One build thread here: the set-up build dominates this
                    // process's peak RSS, and with two executor threads how
                    // their buffers happened to interleave moved it 38-50 MiB
                    // between identical runs (35-40 MiB with one).
                    let built = build_reference(w, seed, 1)?;
                    let fingerprint = Fingerprint::of(&built.out);
                    let (err_abs, bad) = builds::verify(&job(w, &built.data, 1), &built.out);
                    if bad > 0 {
                        return Err(format!("set-up build failed {bad} checks"));
                    }
                    Ok((
                        start_serving(w, &built, err_abs, seed, threads)?,
                        fingerprint,
                    ))
                },
                ServeCtx::shutdown,
            )?;
            let segment = budget_time.mul_f64(STAGE_SHARE) / SEGMENTS as u32;
            let stage = ctx.run(SEGMENTS, segment, &mut rec, &mut yard);
            tally.add(stage.queries, stage.failed);
            tally.note(stage.io_error.clone());
            let net = ctx.stats();
            // Nothing in these workloads may be shed or dropped.
            tally.add(1, u64::from(net.shed + net.bad_frames > 0));
            ctx.shutdown();
            m.insert("setup_s", setup_s);
            m.insert(
                "op_ms_p25",
                stats::quartile_low(&stats::sorted(stage.latencies_us)) / 1e3,
            );
            m.insert(
                "work_per_s",
                stats::quartile_high(&stats::sorted(stage.segment_qps)),
            );
        }
        Stage::Stream => {
            // One WD-like window of 2^14 values is a handful of the random
            // walk's mixing times, and how many greedy runs a tick needs
            // follows the window's character: single-feed runs differed by
            // 18 % between seeds, and the feeds of one run read lower
            // quartiles from 22 to 62 ms. So the run streams FEEDS
            // independent feeds one after another, each set up from scratch
            // (55 ms), and pools their ticks.
            let per_feed = ticks_for(seconds * STAGE_SHARE)
                .max(MIN_TICKS)
                .div_ceil(FEEDS);
            let (mut setups, mut fresh, mut qps) = (Vec::new(), Vec::new(), Vec::new());
            let mut first_fill = 0;
            // Feed 0 is set up twice, the first time only for that: its fill
            // bound must repeat bit for bit.
            for (i, f) in std::iter::once(0).chain(0..FEEDS).enumerate() {
                yard.read();
                let t = Instant::now();
                let feed = gen::series(
                    w.input,
                    stream::feed_len(w.n, per_feed),
                    gen::client_seed(seed, f),
                );
                let mut ctx = StreamCtx::start(feed, w.n, w.base_leaves, threads, seed)
                    .map_err(|e| format!("stream set-up: {e}"))?;
                setups.push(t.elapsed().as_secs_f64());
                tally.add(1, 0);
                match i {
                    0 => first_fill = ctx.err_abs.to_bits(),
                    1 => tally.add(0, u64::from(ctx.err_abs.to_bits() != first_fill)),
                    _ => {}
                }
                if i > 0 {
                    let stage = ctx.run(per_feed, &mut rec);
                    tally.add(stage.queries + stage.tick_attempts, stage.failed);
                    tally.note(stage.error.clone());
                    let net = ctx.stats();
                    tally.add(
                        1,
                        u64::from(net.shed + net.bad_frames + net.failed_queries > 0),
                    );
                    fresh.extend(stage.fresh_ms());
                    qps.push(stage.qps);
                }
                ctx.shutdown();
            }
            yard.read();
            m.insert("setup_s", stats::median_of(&setups));
            m.insert("op_ms_p25", stats::quartile_low(&stats::sorted(fresh)));
            m.insert("work_per_s", stats::quartile_high(&stats::sorted(qps)));
        }
    }
    // Times and rates are stated at the reference host speed.
    let scale = yard.time_scale();
    for (name, by) in [
        ("setup_s", scale),
        ("op_ms_p25", scale),
        ("work_per_s", 1.0 / scale),
    ] {
        if let Some(v) = m.get_mut(name) {
            *v *= by;
        }
    }
    m.insert("bench.host_speed", yard.host_speed());
    m.insert("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        error: tally.error,
        spans: rec,
    })
}

/// Relative slowdown of `traced` against `untraced`, both read where the
/// end-to-end latency is read (the lower quartile).
fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let low = |v: &[f64]| stats::quartile_low(&stats::sorted(v.to_vec()));
    if low(untraced) > 0.0 {
        low(traced) / low(untraced) - 1.0
    } else {
        0.0
    }
}

/// Runs a stage [`PAIRS`] times untraced and traced, alternating so that
/// drift over the run falls on both sides alike, and merges each side.
fn alternate<S>(
    off: &mut Recorder,
    on: &mut Recorder,
    mut stage: impl FnMut(&mut Recorder) -> S,
    merge: impl Fn(&mut S, S),
) -> (S, S) {
    let (mut plain, mut spanned) = (stage(off), stage(on));
    for _ in 1..PAIRS {
        merge(&mut plain, stage(off));
        merge(&mut spanned, stage(on));
    }
    (plain, spanned)
}

/// The traced run.
fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let threads = load_threads();
    let mut off = Recorder::new(Instant::now(), false);
    let mut rec = Recorder::new(Instant::now(), true);
    let mut tally = Tally::default();
    // Per-layer metrics stay in host seconds: the stages run with the
    // yardstick off, and one read between them reports the host's speed.
    let mut yard = Yardstick::new(threads);
    // Each half of the main stage gets 30 % of the run; the short forms
    // and probes share the rest.
    let half = Duration::from_secs_f64(seconds * 0.3);
    yard.read();

    // ---- build ----
    let stream_ticks = match w.stage {
        Stage::Stream => ticks_for(half.as_secs_f64()).max(SHORT_TICKS),
        _ => SHORT_TICKS,
    };
    let feed = gen::series(w.input, stream::feed_len(STREAM_N, 2 * stream_ticks), seed);
    let built = match w.stage {
        // Under the stream workload the chain runs over the stream's own
        // window: the build is a one-shot build of the fill.
        Stage::Stream => Built::new(w, feed[..w.n].to_vec(), threads)?,
        _ => build_reference(w, seed, threads)?,
    };
    tally.add(1, 0);
    let reference = Fingerprint::of(&built.out);
    let job = job(w, &built.data, threads);
    let run_builds = |budget: Duration, min: usize, rec: &mut Recorder| -> BuildStage {
        builds::run(&job, &reference, budget, min, rec, &mut Yardstick::off())
    };
    let mut trace_overhead = 0.0;
    let build_stage = if let Stage::Build(_) = w.stage {
        let slice = half / PAIRS as u32;
        let (plain, spanned) = alternate(
            &mut off,
            &mut rec,
            |r| run_builds(slice, 2, r),
            BuildStage::absorb,
        );
        tally.add(plain.attempted, plain.failed);
        trace_overhead = overhead(&plain.walls(), &spanned.walls());
        spanned
    } else {
        run_builds(Duration::ZERO, 1, &mut rec)
    };
    tally.add(build_stage.attempted, build_stage.failed);
    let last = build_stage.last.as_ref().ok_or("no build succeeded")?;
    let (err_abs, bad) = builds::verify(&job, last);
    tally.add(builds::CHECKS, bad);
    let mut build_m = builds::layer_metrics(&build_stage, &rec, w.n, threads);
    build_m.insert("core.err_abs", err_abs);

    // ---- serve ----
    yard.read();
    let bound = ErrorBound::abs(err_abs);
    let mut serve_m = Metrics::from([(
        "serve.shard.build_us",
        serve::shard_build_us(&last.synopsis, bound),
    )]);
    let mut ctx = start_serving(w, &built, err_abs, seed, threads)?;
    let serve_stage = if let Stage::Serve { .. } = w.stage {
        let slice = half / PAIRS as u32;
        let (plain, spanned) = alternate(
            &mut off,
            &mut rec,
            |r| ctx.run(1, slice, r, &mut Yardstick::off()),
            ServeStage::absorb,
        );
        tally.add(plain.queries, plain.failed);
        trace_overhead = overhead(&plain.latencies_us, &spanned.latencies_us);
        spanned
    } else {
        ctx.run(
            SHORT_SEGMENTS,
            SHORT_SEGMENT,
            &mut rec,
            &mut Yardstick::off(),
        )
    };
    tally.add(serve_stage.queries, serve_stage.failed);
    tally.note(serve_stage.io_error.clone());
    serve_m.extend(
        ctx.layer_metrics(&serve_stage)
            .map_err(|e| format!("serve probes: {e}"))?,
    );
    ctx.shutdown();

    // ---- stream ----
    yard.read();
    let mut sctx = StreamCtx::start(feed, STREAM_N, STREAM_BASE, threads, seed)
        .map_err(|e| format!("stream set-up: {e}"))?;
    let stream_stage = if w.stage == Stage::Stream {
        let plain = sctx.run(stream_ticks, &mut off);
        tally.add(plain.queries + plain.tick_attempts, plain.failed);
        let spanned = sctx.run(stream_ticks, &mut rec);
        trace_overhead = overhead(&plain.fresh_ms(), &spanned.fresh_ms());
        spanned
    } else {
        sctx.run(stream_ticks, &mut rec)
    };
    tally.add(
        stream_stage.queries + stream_stage.tick_attempts,
        stream_stage.failed,
    );
    tally.note(stream_stage.error.clone());
    let mut stream_m = stream::layer_metrics(&stream_stage, sctx.stats(), threads);
    if w.stage == Stage::Stream {
        // The bound being served when the stream stopped is this
        // workload's error, not the one-shot build's.
        stream_m.insert("core.err_abs", sctx.err_abs);
    }
    sctx.shutdown();

    // ---- probes ----
    yard.read();
    let probe_m = probes::run(
        w.input,
        &built.data,
        &last.synopsis,
        err_abs,
        seed,
        threads,
        &mut rec,
    );

    // The workload's own stage has the last word on every metric it
    // measures; the short forms fill in the layers it does not reach.
    let mut m = Metrics::new();
    let (first, second, main) = match w.stage {
        Stage::Build(_) => (stream_m, serve_m, build_m),
        Stage::Serve { .. } => (stream_m, build_m, serve_m),
        Stage::Stream => (serve_m, build_m, stream_m),
    };
    for layer in [first, second, probe_m, main] {
        m.extend(layer);
    }
    yard.read();
    m.insert("bench.host_speed", yard.host_speed());
    m.insert("bench.trace_overhead_frac", trace_overhead);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        error: tally.error,
        spans: rec,
    })
}

/// Runs `w` once.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced(w, seed, seconds)
    } else {
        timed(w, seed, seconds)
    }
}
