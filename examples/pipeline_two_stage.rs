//! A minimal two-stage `runtime::pipeline` plan.
//!
//! Stage 1 computes per-chunk averages of a data vector; driver-side glue
//! picks a threshold from them; stage 2 re-scans the same chunks and counts
//! values above the threshold. The pipeline owns the split handoff and
//! folds both jobs' metrics into one `DriverMetrics`; the trace's roll-up
//! reports the run per stage at the end — the same machinery every
//! distributed algorithm in `crates/core` runs on. The run's execution
//! trace is written next to the binary as `pipeline_two_stage.trace.jsonl`
//! (structured event log) and `pipeline_two_stage.trace.json` — drag the
//! latter into <https://ui.perfetto.dev> to see both stages on the
//! simulated timeline.
//!
//! Run with: `cargo run --release --example pipeline_two_stage`

use dwmaxerr::datagen::synthetic::uniform;
use dwmaxerr::runtime::trace::summary;
use dwmaxerr::runtime::{
    trace, Cluster, ClusterConfig, JobBuilder, MapContext, Pipeline, ReduceContext, SimTime,
};

fn main() {
    let data = uniform(1 << 12, 100.0, 7);
    let chunks: Vec<Vec<f64>> = data.chunks(256).map(<[f64]>::to_vec).collect();
    let cluster = Cluster::new(ClusterConfig::with_slots(4, 2));

    // Stage 1: one average per chunk, reduced to the global average.
    let avg_job = JobBuilder::new("chunk-average")
        .map(|chunk: &Vec<f64>, ctx: &mut MapContext<u8, (f64, u64)>| {
            let sum: f64 = chunk.iter().sum();
            ctx.emit(0, (sum, chunk.len() as u64));
        })
        .reduce(|_k, vals, ctx: &mut ReduceContext<u8, f64>| {
            let (sum, count) = vals.fold((0.0, 0u64), |(s, c), (sum, count)| (s + sum, c + count));
            ctx.emit(0, sum / count as f64);
        });

    // Stage 2: count values above a driver-chosen threshold.
    let pipe = Pipeline::on(&cluster)
        .stage(&avg_job, &chunks)
        .expect("average job")
        .then(|(_, pairs)| {
            // Driver-side glue: the threshold is 1.5x the global average.
            pairs[0].1 * 1.5
        });
    let threshold = *pipe.value();

    let count_job = JobBuilder::new("count-above")
        .map(move |chunk: &Vec<f64>, ctx: &mut MapContext<u8, u64>| {
            let above = chunk.iter().filter(|&&v| v > threshold).count();
            ctx.emit(0, above as u64);
        })
        .reduce(|_k, vals, ctx: &mut ReduceContext<u8, u64>| {
            ctx.emit(0, vals.sum());
        });

    let (count, metrics) = pipe
        .stage(&count_job, &chunks)
        .expect("count job")
        .then(|(_, pairs)| pairs[0].1)
        .finish();

    println!(
        "{} of {} values exceed 1.5x the average ({threshold:.2})",
        count,
        data.len()
    );
    // The trace's roll-up: one row per stage.
    let events = cluster.trace_events();
    trace::validate(&events).expect("trace is well-formed");
    println!("\nper-stage breakdown:");
    for s in summary::per_stage(&events) {
        println!(
            "  {:<14} runs={} sim={} shuffle={}B",
            s.name,
            s.runs,
            SimTime(s.sim_secs),
            s.shuffle.bytes
        );
    }
    println!(
        "  {:<14} jobs={} sim={} shuffle={}B",
        "total",
        metrics.job_count(),
        metrics.total_simulated(),
        metrics.total_shuffle_bytes()
    );

    // Export the execution trace: JSONL for tooling, Chrome trace-event
    // JSON for Perfetto / chrome://tracing.
    std::fs::write("pipeline_two_stage.trace.jsonl", trace::to_jsonl(&events))
        .expect("write jsonl trace");
    std::fs::write(
        "pipeline_two_stage.trace.json",
        trace::chrome_trace(&events),
    )
    .expect("write chrome trace");
    println!(
        "\ntrace: {} events -> pipeline_two_stage.trace.jsonl / .json \
         (open the .json at https://ui.perfetto.dev)",
        events.len()
    );
}
