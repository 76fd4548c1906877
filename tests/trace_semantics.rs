//! Trace subsystem guarantees, pinned at the workspace level:
//!
//! * a small job produces a **golden event sequence**, pinned as whole
//!   JSONL lines (timestamps, slots and nodes included, so a change to the
//!   pricing rates moves it),
//! * every trace a real pipeline produces passes [`trace::validate`]
//!   (span pairing, phase ordering, per-slot non-overlap),
//! * a fault-injected run records the recovery it performed: retry
//!   attempts, fault instants, and speculative attempts all appear,
//! * the trace timeline and the job ledger agree **bit-for-bit**: each
//!   job's `job_end` carries its ledger entry's simulated time, so the
//!   roll-up's per-stage sums and the sink's final clock equal the
//!   ledger's,
//! * the JSONL export round-trips exactly and the Chrome export parses.

use dwmaxerr::runtime::metrics::AttemptKind;
use dwmaxerr::runtime::trace::{self, json, summary, TraceEvent, TraceEventKind};
use dwmaxerr::runtime::{
    Cluster, ClusterConfig, FaultPlan, JobBuilder, Kernel, Pipeline, TaskPhase,
};
use dwmaxerr::runtime::{MapContext, ReduceContext};

/// A 2-map-slot, 1-reduce-slot cluster with speculation off and targeted
/// faults on the first attempts of map task 0 and reduce task 0: every
/// scheduling decision is forced, so the event sequence is deterministic.
fn golden_cluster() -> Cluster {
    let mut cfg = ClusterConfig::with_slots(2, 1);
    cfg.task_startup = std::time::Duration::from_micros(10);
    cfg.job_setup = std::time::Duration::from_micros(10);
    cfg.speculative_execution = false;
    cfg.fault_plan = Some(
        FaultPlan::seeded(3)
            .with_targeted(TaskPhase::Map, 0, vec![1])
            .with_targeted(TaskPhase::Reduce, 0, vec![1]),
    );
    Cluster::new(cfg)
}

/// Sums the splits; each map task charges its one value as a kernel unit,
/// so the golden's times move with the kernel rates too.
fn sum_job() -> impl Fn(&Cluster, &[u64]) -> Vec<TraceEvent> {
    |cluster, splits| {
        JobBuilder::new("sum")
            .map(|s: &u64, ctx: &mut MapContext<u8, u64>| {
                ctx.charge(Kernel::Values, 1);
                ctx.emit(0, *s)
            })
            .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
            .run(cluster, splits)
            .expect("job succeeds");
        cluster.trace_events()
    }
}

#[test]
fn golden_event_sequence_for_deterministic_job() {
    let events = sum_job()(&golden_cluster(), &[1, 2]);
    // Whole lines: sequence numbers, simulated times, slots, nodes and
    // every field. A change to a pricing rate moves this golden.
    let expected = [
        r#"{"seq":0,"t":0,"ev":"job_begin","job":"sum","maps":2,"reducers":1}"#,
        r#"{"seq":1,"t":0,"ev":"phase_begin","phase":"setup","slots":0}"#,
        r#"{"seq":2,"t":0.00001,"ev":"phase_end","phase":"setup","sim_secs":0.00001}"#,
        r#"{"seq":3,"t":0.00001,"ev":"phase_begin","phase":"map","slots":2}"#,
        r#"{"seq":4,"t":0.00001,"ev":"wave","phase":"map","wave":0,"started":2}"#,
        r#"{"seq":5,"t":0.00001,"ev":"attempt","phase":"map","task":0,"attempt":1,"kind":"regular","outcome":"failed","slot":0,"node":0,"end":0.000020002695000000004,"failure":"injected"}"#,
        r#"{"seq":6,"t":0.000020002695000000004,"ev":"fault_injected","phase":"map","task":0,"attempt":1}"#,
        r#"{"seq":7,"t":0.00001,"ev":"attempt","phase":"map","task":1,"attempt":1,"kind":"regular","outcome":"ok","slot":1,"node":1,"end":0.000020005390000000003,"failure":null}"#,
        r#"{"seq":8,"t":0.000020002695000000004,"ev":"attempt","phase":"map","task":0,"attempt":2,"kind":"retry","outcome":"ok","slot":0,"node":0,"end":0.000030008085000000007,"failure":null}"#,
        r#"{"seq":9,"t":0.000030008085000000007,"ev":"phase_end","phase":"map","sim_secs":0.000020008085000000005}"#,
        r#"{"seq":10,"t":0.000030008085000000007,"ev":"phase_begin","phase":"shuffle","slots":0}"#,
        // 2 records x (1-byte u8 key + 8-byte u64 value).
        r#"{"seq":11,"t":0.000030008085000000007,"ev":"shuffle_partition","partition":0,"bytes":18,"runs":2}"#,
        r#"{"seq":12,"t":0.000030179746376953132,"ev":"phase_end","phase":"shuffle","sim_secs":0.000000171661376953125}"#,
        r#"{"seq":13,"t":0.000030179746376953132,"ev":"phase_begin","phase":"reduce","slots":1}"#,
        r#"{"seq":14,"t":0.000030179746376953132,"ev":"wave","phase":"reduce","wave":0,"started":1}"#,
        r#"{"seq":15,"t":0.000030179746376953132,"ev":"attempt","phase":"reduce","task":0,"attempt":1,"kind":"regular","outcome":"failed","slot":0,"node":0,"end":0.00004018510137695313,"failure":"injected"}"#,
        r#"{"seq":16,"t":0.00004018510137695313,"ev":"fault_injected","phase":"reduce","task":0,"attempt":1}"#,
        r#"{"seq":17,"t":0.00004018510137695313,"ev":"attempt","phase":"reduce","task":0,"attempt":2,"kind":"retry","outcome":"ok","slot":0,"node":0,"end":0.000050195811376953136,"failure":null}"#,
        r#"{"seq":18,"t":0.000050195811376953136,"ev":"phase_end","phase":"reduce","sim_secs":0.000020016065}"#,
        r#"{"seq":19,"t":0.000050195811376953136,"ev":"job_end","sim_secs":0.000050195811376953136}"#,
    ];
    let jsonl = trace::to_jsonl(&events);
    assert_eq!(
        jsonl.lines().collect::<Vec<_>>(),
        expected,
        "golden trace drifted"
    );
    trace::validate(&events).expect("golden trace is well-formed");
}

#[test]
fn golden_sequence_is_stable_across_runs() {
    let a = sum_job()(&golden_cluster(), &[1, 2]);
    let b = sum_job()(&golden_cluster(), &[1, 2]);
    assert_eq!(trace::to_jsonl(&a), trace::to_jsonl(&b));
}

/// A paper-shaped cluster where map time is dominated by a deterministic
/// simulated HDFS read (8 KiB at 80 KiB/s = 100 ms per split) so the 6x
/// straggler on map task 0 reliably outruns the speculation threshold —
/// the same recipe the fault-sweep experiment uses.
fn speculative_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        fault_plan: Some(
            FaultPlan::seeded(9)
                .with_targeted(TaskPhase::Map, 2, vec![1])
                .with_straggler(TaskPhase::Map, 0, 6.0),
        ),
        hdfs_bytes_per_sec: 80.0 * 1024.0,
        ..ClusterConfig::default()
    })
}

#[test]
fn fault_injected_run_traces_retries_and_speculation() {
    let cluster = speculative_cluster();
    let splits: Vec<u64> = (0..8).collect();
    JobBuilder::new("spec")
        .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
        .input_bytes(|_| 8 * 1024)
        .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
        .run(&cluster, &splits)
        .expect("job succeeds");
    let events = cluster.trace_events();
    trace::validate(&events).expect("trace is well-formed");

    let attempts_of = |k: AttemptKind| {
        events
            .iter()
            .filter(|e| matches!(&e.kind, TraceEventKind::Attempt { kind, .. } if *kind == k))
            .count()
    };
    assert!(attempts_of(AttemptKind::Retry) >= 1, "no retry span");
    assert!(
        attempts_of(AttemptKind::Speculative) >= 1,
        "no speculative span"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FaultInjected { task: 2, .. })),
        "injected fault not marked"
    );
    // Killed speculative losers (or killed originals) show up as killed
    // spans; the winner of each race succeeds.
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            TraceEventKind::Attempt { outcome, .. }
                if *outcome == dwmaxerr::runtime::AttemptOutcome::Killed
        )),
        "speculation race left no killed attempt"
    );
}

#[test]
fn aborted_job_leaves_abort_event() {
    let mut cfg = ClusterConfig::with_slots(2, 1);
    cfg.fault_plan = Some(FaultPlan::seeded(0).with_targeted(TaskPhase::Map, 0, vec![1, 2, 3, 4]));
    let cluster = Cluster::new(cfg);
    let result = JobBuilder::new("doomed")
        .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
        .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
        .run(&cluster, &[1, 2]);
    assert!(result.is_err());
    let events = cluster.trace_events();
    trace::validate(&events).expect("aborted trace is still well-formed");
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            TraceEventKind::JobAborted { job, reason }
                if job == "doomed" && reason.contains("4 attempts")
        )),
        "no abort event: {events:?}"
    );
}

/// Runs a three-iteration looped pipeline (stage name repeated) plus a
/// distinct final stage, returning the ledger and the trace.
fn looped_pipeline(cluster: &Cluster) -> dwmaxerr::runtime::DriverMetrics {
    let halve = JobBuilder::new("halve")
        .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, s / 2))
        .reduce(|k, mut vals, ctx: &mut ReduceContext<u8, u64>| {
            ctx.emit(*k, vals.next().expect("one"))
        });
    let total = JobBuilder::new("total")
        .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
        .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()));
    let pipe = Pipeline::with(cluster, vec![8u64])
        .repeat(
            |v: &Vec<u64>| v[0] > 1,
            |p| {
                let input = p.value().clone();
                Ok::<_, dwmaxerr::runtime::RuntimeError>(
                    p.stage(&halve, &input)?
                        .then(|(_, pairs)| pairs.into_iter().map(|(_, v)| v).collect()),
                )
            },
        )
        .unwrap();
    let input = pipe.value().clone();
    pipe.stage(&total, &input).unwrap().into_metrics()
}

#[test]
fn per_stage_metrics_agree_with_trace_span_totals_bitwise() {
    let cluster = golden_cluster();
    let metrics = looped_pipeline(&cluster);
    let events = cluster.trace_events();
    trace::validate(&events).expect("pipeline trace is well-formed");

    // Each row's runs and *bit-identical* simulated sum are its name's
    // ledger entries': each `job_end` carries its job's `sim.total()`, in
    // ledger order, so no float tolerance is needed.
    for row in summary::per_stage(&events) {
        let jobs = metrics.jobs.iter().filter(|j| j.name == row.name);
        assert_eq!(row.runs, jobs.clone().count(), "{}", row.name);
        let sim = jobs.fold(0.0, |acc, j| acc + j.simulated().secs());
        assert_eq!(sim.to_bits(), row.sim_secs.to_bits(), "{}", row.name);
    }
    // The sink's final clock equals the ledger's total, bit for bit.
    assert_eq!(
        cluster.trace().now().to_bits(),
        metrics.total_simulated().secs().to_bits()
    );

    // The plan adds no event of its own: the trace is the executed jobs'
    // blocks (3 halve runs + 1 total run), one job_begin per ledger entry
    // in ledger order, and it ends with the last job's job_end.
    let begun: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::JobBegin { job, .. } => Some(job.as_str()),
            _ => None,
        })
        .collect();
    let ran: Vec<&str> = metrics.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(begun, ["halve", "halve", "halve", "total"]);
    assert_eq!(begun, ran);
    assert!(matches!(
        events.last().map(|e| &e.kind),
        Some(TraceEventKind::JobEnd { .. })
    ));
}

#[test]
fn jsonl_round_trips_and_chrome_export_parses() {
    let cluster = speculative_cluster();
    let splits: Vec<u64> = (0..8).collect();
    JobBuilder::new("spec")
        .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
        .input_bytes(|_| 8 * 1024)
        .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
        .run(&cluster, &splits)
        .expect("job succeeds");
    let events = cluster.trace_events();

    // Whole-document and per-line round-trips are exact.
    let doc = trace::to_jsonl(&events);
    assert_eq!(trace::from_jsonl(&doc).expect("parses"), events);
    for line in doc.lines() {
        let event = TraceEvent::from_jsonl(line).expect("line parses");
        assert_eq!(event.to_jsonl(), line, "line is not serialization-stable");
    }

    // The Chrome export is valid JSON with the structure a viewer needs.
    let chrome = trace::chrome_trace(&events);
    let parsed = json::parse(&chrome).expect("chrome trace parses");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert!(!trace_events.is_empty());
    let spans = trace_events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .count();
    let job_spans = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::JobEnd { .. }))
        .count();
    let attempt_spans = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Attempt { .. }))
        .count();
    let phase_spans = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::PhaseEnd { .. }))
        .count();
    assert_eq!(
        spans,
        job_spans + attempt_spans + phase_spans,
        "every closed span becomes one Chrome X event"
    );
}
