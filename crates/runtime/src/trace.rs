//! Structured, always-on execution tracing.
//!
//! End-of-job aggregates ([`crate::metrics::JobMetrics`]) say *how much*
//! time a job took; they cannot say *where it went* — which wave a retry
//! landed in, which slot sat idle while a straggler ran, how shuffle bytes
//! spread over reduce partitions. This module records the whole execution
//! as a flat, ordered sequence of [`TraceEvent`]s with **simulated-time**
//! timestamps consistent with the makespan model:
//!
//! * jobs run back-to-back on one global sim clock owned by the cluster's
//!   [`TraceSink`] (the clock advances by exactly
//!   [`crate::metrics::JobMetrics::simulated`] per job, so the trace
//!   timeline and [`crate::metrics::DriverMetrics::total_simulated`] agree
//!   bit-for-bit),
//! * within a job, the four phases (`setup → map → shuffle → reduce`)
//!   appear as begin/end span pairs, and every task attempt — including
//!   failed, retried, and speculative ones — is a span on its simulated
//!   slot,
//! * wave boundaries, per-partition shuffle volumes, injected faults,
//!   node-level fault and recovery milestones (`node_down`,
//!   `fetch_failed`, `map_reexecuted`, `node_blacklisted`), pipeline
//!   stage/glue transitions, and phased-driver markers (`phase_started`
//!   when a plan enters a foreground/background phase,
//!   `snapshot_published` when a [`crate::Progressive`] handle swaps in a
//!   refined result) are instant events.
//!
//! Recording is lock-cheap: a job's events are appended under a single
//! mutex acquisition after the job has finished executing, so tracing adds
//! no per-record synchronization to the hot path.
//!
//! # Exporters
//!
//! [`to_jsonl`] writes one JSON object per line in a stable schema (see
//! [`TraceEvent::to_jsonl`]); [`chrome_trace`] writes the Chrome
//! trace-event format, loadable in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`, with one track per simulated slot. Both round-trip
//! / parse through the vendored [`json`] mini-parser (the build is
//! offline, so serde is not available; the schema is hand-encoded and
//! hand-validated instead).
//!
//! # Example
//!
//! ```
//! use dwmaxerr_runtime::cluster::{Cluster, ClusterConfig};
//! use dwmaxerr_runtime::job::{JobBuilder, MapContext, ReduceContext};
//! use dwmaxerr_runtime::trace::{self, TraceEventKind};
//!
//! let cluster = Cluster::new(ClusterConfig::with_slots(2, 1));
//! JobBuilder::new("sum")
//!     .map(|s: &u64, ctx: &mut MapContext<u8, u64>| ctx.emit(0, *s))
//!     .reduce(|k, vals, ctx: &mut ReduceContext<u8, u64>| ctx.emit(*k, vals.sum()))
//!     .run(&cluster, &[1, 2, 3])
//!     .unwrap();
//! let events = cluster.trace_events();
//! trace::validate(&events).unwrap();
//! assert!(matches!(events[0].kind, TraceEventKind::JobBegin { .. }));
//! // One attempt span per map task plus one per reduce task.
//! let attempts = events
//!     .iter()
//!     .filter(|e| matches!(e.kind, TraceEventKind::Attempt { .. }))
//!     .count();
//! assert_eq!(attempts, 4);
//! ```

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::fault::{FailureKind, TaskPhase};
use crate::metrics::{AttemptKind, AttemptOutcome, Phase};

pub mod json;

/// The four sequential phases of a job's simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Job submission/setup overhead.
    Setup,
    /// Map task execution.
    Map,
    /// Map→reduce shuffle transfer.
    Shuffle,
    /// Reduce task execution.
    Reduce,
}

impl JobPhase {
    /// Stable lower-case name used by the trace event schema.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Setup => "setup",
            JobPhase::Map => "map",
            JobPhase::Shuffle => "shuffle",
            JobPhase::Reduce => "reduce",
        }
    }

    fn parse(s: &str) -> Result<Self, TraceError> {
        match s {
            "setup" => Ok(JobPhase::Setup),
            "map" => Ok(JobPhase::Map),
            "shuffle" => Ok(JobPhase::Shuffle),
            "reduce" => Ok(JobPhase::Reduce),
            other => Err(TraceError(format!("unknown job phase {other:?}"))),
        }
    }
}

impl std::fmt::Display for JobPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A job's simulated timeline begins (`time` is its start).
    JobBegin {
        /// Job name.
        job: String,
        /// Number of map tasks (= input splits).
        maps: usize,
        /// Number of reduce tasks (= reduce partitions).
        reducers: usize,
    },
    /// A job's simulated timeline ends (`time` is its end).
    JobEnd {
        /// Job name.
        job: String,
        /// The job's end-to-end simulated seconds. Carried explicitly so
        /// consumers never reconstruct the duration from `end − begin`
        /// subtraction (which could drift in the last float bit).
        sim_secs: f64,
    },
    /// A job failed with a typed error before producing a timeline.
    JobAborted {
        /// Job name.
        job: String,
        /// The rendered [`crate::RuntimeError`].
        reason: String,
    },
    /// A phase span opens at `time`.
    PhaseBegin {
        /// Owning job name.
        job: String,
        /// Which phase.
        phase: JobPhase,
        /// Simulated slots available to the phase (0 for the slot-less
        /// setup and shuffle phases).
        slots: usize,
    },
    /// A phase span closes at `time`.
    PhaseEnd {
        /// Owning job name.
        job: String,
        /// Which phase.
        phase: JobPhase,
        /// The phase's simulated makespan in seconds.
        sim_secs: f64,
    },
    /// One task attempt as placed on the slot schedule; `time` is its
    /// simulated start.
    Attempt {
        /// Owning job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// Task index within the phase (for map tasks: the split id).
        task: usize,
        /// 1-based attempt number.
        attempt: usize,
        /// Why the attempt launched (regular / retry / speculative).
        kind: AttemptKind,
        /// How it ended (ok / failed / killed).
        outcome: AttemptOutcome,
        /// Slot index the attempt occupied.
        slot: usize,
        /// Node hosting the slot (0 on single-node topologies and in
        /// traces written before node fault domains existed).
        node: usize,
        /// Simulated end time (absolute, same timebase as `time`).
        end: f64,
        /// Why it crashed, when `outcome` is failed.
        failure: Option<FailureKind>,
    },
    /// A scheduling wave opens: `started` first attempts were admitted
    /// together at `time`.
    Wave {
        /// Owning job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// 0-based wave index.
        wave: usize,
        /// Number of first attempts launched in this wave.
        started: usize,
    },
    /// Wire-encoded bytes fetched by one reduce partition (emitted at the
    /// shuffle span's start).
    ShufflePartition {
        /// Owning job name.
        job: String,
        /// Reduce partition index.
        partition: usize,
        /// Codec-encoded bytes crossing the shuffle for this partition.
        bytes: u64,
        /// Sorted runs fetched by this partition's reducer (its merge
        /// fan-in): at most one non-empty run per map-task spill pass (one
        /// per map task unless the spill budget forced extra passes).
        runs: u64,
    },
    /// A map task's buffered emission crossed the spill budget
    /// (`io_sort_bytes`) and was sorted and written out as one run per
    /// non-empty partition. Emitted only for tasks that spilled more than
    /// once — single-spill tasks are the memory-resident common case and
    /// keep the golden event sequences unchanged. `time` is the owning
    /// attempt's simulated end.
    Spill {
        /// Owning job name.
        job: String,
        /// Map task index.
        task: usize,
        /// 0-based spill sequence number within the task.
        spill: usize,
        /// Non-empty partition runs written by this spill pass.
        runs: u64,
        /// Wire-encoded payload bytes written by this spill pass.
        bytes: u64,
    },
    /// An intermediate merge pass: a reducer whose partition arrived as
    /// more runs than `io_sort_factor` merged up to that many runs into
    /// one new run. Emitted only when intermediate passes actually
    /// happened (fan-in below run count); the final streaming merge is
    /// not an event. `time` is the owning attempt's simulated start.
    MergePass {
        /// Owning job name.
        job: String,
        /// Reduce partition index.
        partition: usize,
        /// 0-based merge pass number within the partition.
        pass: usize,
        /// Number of runs merged by this pass.
        fan_in: u64,
        /// Wire-encoded payload bytes written by this pass (read back once
        /// more by the next pass, so disk traffic is 2× this).
        bytes: u64,
    },
    /// A task was rejected before any attempt ran (e.g. its declared
    /// working set exceeds `task_memory_bytes`); the job aborts without a
    /// phase timeline. Always followed by a [`TraceEventKind::JobAborted`]
    /// for the same job.
    TaskAborted {
        /// Owning job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// Task index within the phase.
        task: usize,
        /// Why the task could not be admitted.
        reason: String,
    },
    /// A seeded [`crate::fault::FaultPlan`] crashed an attempt; `time` is
    /// when the failure was observed (the attempt's simulated end).
    FaultInjected {
        /// Owning job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// Task index within the phase.
        task: usize,
        /// 1-based attempt number that was crashed.
        attempt: usize,
    },
    /// A node-level fault from the job's [`crate::fault::FaultPlan`]:
    /// every attempt running on the node at `time` fails with
    /// [`FailureKind::NodeLost`], and completed map outputs hosted there
    /// are lost for the shuffle.
    NodeDown {
        /// Owning job name.
        job: String,
        /// Node index that went down.
        node: usize,
        /// Whether the node's slots are gone for the rest of the job
        /// (`true`) or the node restarts with its local state wiped
        /// (`false`).
        permanent: bool,
    },
    /// A reducer exhausted its fetch retries against one map task's lost
    /// or corrupt output; `time` is the reducer attempt's simulated start.
    FetchFailed {
        /// Owning job name.
        job: String,
        /// Reduce partition whose fetch failed.
        partition: usize,
        /// Map task whose output could not be fetched.
        map_task: usize,
        /// Retries spent (the configured cap) before giving up.
        retries: u64,
    },
    /// A completed map task was re-executed on a surviving node because
    /// its output was lost or corrupt; its regenerated runs substitute
    /// bit-identically into every reducer's merge.
    MapReexecuted {
        /// Owning job name.
        job: String,
        /// Map task index that re-ran.
        task: usize,
        /// Surviving node the re-execution landed on.
        node: usize,
    },
    /// A node crossed the failure threshold and stopped receiving new
    /// attempts for the rest of the phase (Hadoop node blacklisting).
    NodeBlacklisted {
        /// Owning job name.
        job: String,
        /// Blacklisted node index.
        node: usize,
        /// The configured failure threshold it crossed.
        failures: usize,
    },
    /// A pipeline stage starts (wraps the stage's job span).
    StageBegin {
        /// Stage name (the job's name).
        stage: String,
    },
    /// A pipeline stage ends.
    StageEnd {
        /// Stage name (the job's name).
        stage: String,
    },
    /// Driver-side glue ran between stages ([`crate::Pipeline::then`] /
    /// `try_then`). Glue is free on the simulated clock; the event marks
    /// the transition point in the plan.
    Glue,
    /// The pipeline driver opened an execution phase
    /// ([`crate::Pipeline::enter_phase`]): stages that follow run under
    /// this tag until the next `phase_started`. Only phased plans emit it,
    /// so linear plans keep their golden event sequences unchanged.
    PhaseStarted {
        /// The phase being entered (foreground or background refinement).
        phase: Phase,
    },
    /// A usable intermediate result was atomically swapped into a
    /// [`crate::Progressive`] handle ([`crate::Pipeline::checkpoint`] /
    /// [`crate::Pipeline::publish`]); `time` is the simulated instant the
    /// snapshot became servable.
    SnapshotPublished {
        /// The progressive handle's label.
        label: String,
        /// 1-based publish count for the label; [`validate`] checks it
        /// increments by one per label across the trace.
        version: u64,
    },
}

/// One recorded event: a global sequence number, a simulated-time
/// timestamp (seconds since the cluster's first job), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Strictly increasing per sink; total order of emission.
    pub seq: u64,
    /// Simulated seconds since the cluster trace began. For span-like
    /// kinds this is the span's start.
    pub time: f64,
    /// The payload.
    pub kind: TraceEventKind,
}

/// Formats an f64 with Rust's shortest round-trip representation (valid
/// JSON for all finite values).
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "trace times must be finite");
    format!("{v}")
}

/// Escapes a string for inclusion in a JSON document (without the quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TraceEvent {
    /// Serializes the event as one line of JSONL.
    ///
    /// The schema is stable: every line carries `seq` (integer), `t`
    /// (simulated seconds, float) and `ev` (the event type tag), followed
    /// by the type's fields in a fixed order. Optional fields are encoded
    /// as `null`, never omitted. [`TraceEvent::from_jsonl`] inverts this
    /// exactly.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!("{{\"seq\":{},\"t\":{}", self.seq, fmt_f64(self.time));
        match &self.kind {
            TraceEventKind::JobBegin {
                job,
                maps,
                reducers,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"job_begin\",\"job\":\"{}\",\"maps\":{maps},\"reducers\":{reducers}",
                    esc(job)
                );
            }
            TraceEventKind::JobEnd { job, sim_secs } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"job_end\",\"job\":\"{}\",\"sim_secs\":{}",
                    esc(job),
                    fmt_f64(*sim_secs)
                );
            }
            TraceEventKind::JobAborted { job, reason } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"job_aborted\",\"job\":\"{}\",\"reason\":\"{}\"",
                    esc(job),
                    esc(reason)
                );
            }
            TraceEventKind::PhaseBegin { job, phase, slots } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"phase_begin\",\"job\":\"{}\",\"phase\":\"{}\",\"slots\":{slots}",
                    esc(job),
                    phase.as_str()
                );
            }
            TraceEventKind::PhaseEnd {
                job,
                phase,
                sim_secs,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"phase_end\",\"job\":\"{}\",\"phase\":\"{}\",\"sim_secs\":{}",
                    esc(job),
                    phase.as_str(),
                    fmt_f64(*sim_secs)
                );
            }
            TraceEventKind::Attempt {
                job,
                phase,
                task,
                attempt,
                kind,
                outcome,
                slot,
                node,
                end,
                failure,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"attempt\",\"job\":\"{}\",\"phase\":\"{}\",\"task\":{task},\
                     \"attempt\":{attempt},\"kind\":\"{}\",\"outcome\":\"{}\",\"slot\":{slot},\
                     \"node\":{node},\"end\":{},\"failure\":{}",
                    esc(job),
                    phase.as_str(),
                    kind.as_str(),
                    outcome.as_str(),
                    fmt_f64(*end),
                    match failure {
                        Some(f) => format!("\"{}\"", f.as_str()),
                        None => "null".to_string(),
                    }
                );
            }
            TraceEventKind::Wave {
                job,
                phase,
                wave,
                started,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"wave\",\"job\":\"{}\",\"phase\":\"{}\",\"wave\":{wave},\
                     \"started\":{started}",
                    esc(job),
                    phase.as_str()
                );
            }
            TraceEventKind::ShufflePartition {
                job,
                partition,
                bytes,
                runs,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"shuffle_partition\",\"job\":\"{}\",\"partition\":{partition},\
                     \"bytes\":{bytes},\"runs\":{runs}",
                    esc(job)
                );
            }
            TraceEventKind::Spill {
                job,
                task,
                spill,
                runs,
                bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"spill\",\"job\":\"{}\",\"task\":{task},\"spill\":{spill},\
                     \"runs\":{runs},\"bytes\":{bytes}",
                    esc(job)
                );
            }
            TraceEventKind::MergePass {
                job,
                partition,
                pass,
                fan_in,
                bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"merge_pass\",\"job\":\"{}\",\"partition\":{partition},\
                     \"pass\":{pass},\"fan_in\":{fan_in},\"bytes\":{bytes}",
                    esc(job)
                );
            }
            TraceEventKind::TaskAborted {
                job,
                phase,
                task,
                reason,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"task_aborted\",\"job\":\"{}\",\"phase\":\"{}\",\"task\":{task},\
                     \"reason\":\"{}\"",
                    esc(job),
                    phase.as_str(),
                    esc(reason)
                );
            }
            TraceEventKind::FaultInjected {
                job,
                phase,
                task,
                attempt,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"fault_injected\",\"job\":\"{}\",\"phase\":\"{}\",\"task\":{task},\
                     \"attempt\":{attempt}",
                    esc(job),
                    phase.as_str()
                );
            }
            TraceEventKind::NodeDown {
                job,
                node,
                permanent,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"node_down\",\"job\":\"{}\",\"node\":{node},\"permanent\":{permanent}",
                    esc(job)
                );
            }
            TraceEventKind::FetchFailed {
                job,
                partition,
                map_task,
                retries,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"fetch_failed\",\"job\":\"{}\",\"partition\":{partition},\
                     \"map_task\":{map_task},\"retries\":{retries}",
                    esc(job)
                );
            }
            TraceEventKind::MapReexecuted { job, task, node } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"map_reexecuted\",\"job\":\"{}\",\"task\":{task},\"node\":{node}",
                    esc(job)
                );
            }
            TraceEventKind::NodeBlacklisted {
                job,
                node,
                failures,
            } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"node_blacklisted\",\"job\":\"{}\",\"node\":{node},\
                     \"failures\":{failures}",
                    esc(job)
                );
            }
            TraceEventKind::StageBegin { stage } => {
                let _ = write!(s, ",\"ev\":\"stage_begin\",\"stage\":\"{}\"", esc(stage));
            }
            TraceEventKind::StageEnd { stage } => {
                let _ = write!(s, ",\"ev\":\"stage_end\",\"stage\":\"{}\"", esc(stage));
            }
            TraceEventKind::Glue => {
                s.push_str(",\"ev\":\"glue\"");
            }
            TraceEventKind::PhaseStarted { phase } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"phase_started\",\"phase\":\"{}\"",
                    phase.label()
                );
            }
            TraceEventKind::SnapshotPublished { label, version } => {
                let _ = write!(
                    s,
                    ",\"ev\":\"snapshot_published\",\"label\":\"{}\",\"version\":{version}",
                    esc(label)
                );
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_jsonl`].
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, TraceError> {
        let v = json::parse(line).map_err(|e| TraceError(format!("bad JSON: {e}")))?;
        let seq = field_u64(&v, "seq")?;
        let time = field_f64(&v, "t")?;
        let ev = field_str(&v, "ev")?;
        let kind = match ev.as_str() {
            "job_begin" => TraceEventKind::JobBegin {
                job: field_str(&v, "job")?,
                maps: field_u64(&v, "maps")? as usize,
                reducers: field_u64(&v, "reducers")? as usize,
            },
            "job_end" => TraceEventKind::JobEnd {
                job: field_str(&v, "job")?,
                sim_secs: field_f64(&v, "sim_secs")?,
            },
            "job_aborted" => TraceEventKind::JobAborted {
                job: field_str(&v, "job")?,
                reason: field_str(&v, "reason")?,
            },
            "phase_begin" => TraceEventKind::PhaseBegin {
                job: field_str(&v, "job")?,
                phase: JobPhase::parse(&field_str(&v, "phase")?)?,
                slots: field_u64(&v, "slots")? as usize,
            },
            "phase_end" => TraceEventKind::PhaseEnd {
                job: field_str(&v, "job")?,
                phase: JobPhase::parse(&field_str(&v, "phase")?)?,
                sim_secs: field_f64(&v, "sim_secs")?,
            },
            "attempt" => TraceEventKind::Attempt {
                job: field_str(&v, "job")?,
                phase: parse_task_phase(&field_str(&v, "phase")?)?,
                task: field_u64(&v, "task")? as usize,
                attempt: field_u64(&v, "attempt")? as usize,
                kind: parse_attempt_kind(&field_str(&v, "kind")?)?,
                outcome: parse_outcome(&field_str(&v, "outcome")?)?,
                slot: field_u64(&v, "slot")? as usize,
                // Absent in traces written before node fault domains;
                // those ran on a single implicit node 0.
                node: match v.get("node") {
                    None | Some(json::Value::Null) => 0,
                    Some(other) => other.as_u64().ok_or_else(|| {
                        TraceError("field \"node\" is not an unsigned integer".into())
                    })? as usize,
                },
                end: field_f64(&v, "end")?,
                failure: match v.get("failure") {
                    None | Some(json::Value::Null) => None,
                    Some(json::Value::Str(s)) => Some(parse_failure(s)?),
                    Some(other) => return Err(TraceError(format!("bad failure field: {other:?}"))),
                },
            },
            "wave" => TraceEventKind::Wave {
                job: field_str(&v, "job")?,
                phase: parse_task_phase(&field_str(&v, "phase")?)?,
                wave: field_u64(&v, "wave")? as usize,
                started: field_u64(&v, "started")? as usize,
            },
            "shuffle_partition" => TraceEventKind::ShufflePartition {
                job: field_str(&v, "job")?,
                partition: field_u64(&v, "partition")? as usize,
                bytes: field_u64(&v, "bytes")?,
                // Absent in traces written before the sort-merge shuffle
                // recorded merge fan-in; default to 0 for those.
                runs: match v.get("runs") {
                    None | Some(json::Value::Null) => 0,
                    Some(other) => other.as_u64().ok_or_else(|| {
                        TraceError("field \"runs\" is not an unsigned integer".into())
                    })?,
                },
            },
            "spill" => TraceEventKind::Spill {
                job: field_str(&v, "job")?,
                task: field_u64(&v, "task")? as usize,
                spill: field_u64(&v, "spill")? as usize,
                runs: field_u64(&v, "runs")?,
                bytes: field_u64(&v, "bytes")?,
            },
            "merge_pass" => TraceEventKind::MergePass {
                job: field_str(&v, "job")?,
                partition: field_u64(&v, "partition")? as usize,
                pass: field_u64(&v, "pass")? as usize,
                fan_in: field_u64(&v, "fan_in")?,
                bytes: field_u64(&v, "bytes")?,
            },
            "task_aborted" => TraceEventKind::TaskAborted {
                job: field_str(&v, "job")?,
                phase: parse_task_phase(&field_str(&v, "phase")?)?,
                task: field_u64(&v, "task")? as usize,
                reason: field_str(&v, "reason")?,
            },
            "fault_injected" => TraceEventKind::FaultInjected {
                job: field_str(&v, "job")?,
                phase: parse_task_phase(&field_str(&v, "phase")?)?,
                task: field_u64(&v, "task")? as usize,
                attempt: field_u64(&v, "attempt")? as usize,
            },
            "node_down" => TraceEventKind::NodeDown {
                job: field_str(&v, "job")?,
                node: field_u64(&v, "node")? as usize,
                permanent: field(&v, "permanent")?
                    .as_bool()
                    .ok_or_else(|| TraceError("field \"permanent\" is not a boolean".into()))?,
            },
            "fetch_failed" => TraceEventKind::FetchFailed {
                job: field_str(&v, "job")?,
                partition: field_u64(&v, "partition")? as usize,
                map_task: field_u64(&v, "map_task")? as usize,
                retries: field_u64(&v, "retries")?,
            },
            "map_reexecuted" => TraceEventKind::MapReexecuted {
                job: field_str(&v, "job")?,
                task: field_u64(&v, "task")? as usize,
                node: field_u64(&v, "node")? as usize,
            },
            "node_blacklisted" => TraceEventKind::NodeBlacklisted {
                job: field_str(&v, "job")?,
                node: field_u64(&v, "node")? as usize,
                failures: field_u64(&v, "failures")? as usize,
            },
            "stage_begin" => TraceEventKind::StageBegin {
                stage: field_str(&v, "stage")?,
            },
            "stage_end" => TraceEventKind::StageEnd {
                stage: field_str(&v, "stage")?,
            },
            "glue" => TraceEventKind::Glue,
            "phase_started" => TraceEventKind::PhaseStarted {
                phase: {
                    let label = field_str(&v, "phase")?;
                    Phase::parse_label(&label)
                        .ok_or_else(|| TraceError(format!("unknown pipeline phase {label:?}")))?
                },
            },
            "snapshot_published" => TraceEventKind::SnapshotPublished {
                label: field_str(&v, "label")?,
                version: field_u64(&v, "version")?,
            },
            other => return Err(TraceError(format!("unknown event type {other:?}"))),
        };
        Ok(TraceEvent { seq, time, kind })
    }

    /// A stable, timestamp-free structural rendering of the event, for
    /// golden-sequence tests: measured durations vary run to run, the
    /// *sequence* of events on a deterministic workload does not.
    pub fn digest(&self) -> String {
        match &self.kind {
            TraceEventKind::JobBegin {
                job,
                maps,
                reducers,
            } => format!("job_begin({job} maps={maps} reducers={reducers})"),
            TraceEventKind::JobEnd { job, .. } => format!("job_end({job})"),
            TraceEventKind::JobAborted { job, .. } => format!("job_aborted({job})"),
            TraceEventKind::PhaseBegin { job, phase, slots } => {
                format!("phase_begin({job} {phase} slots={slots})")
            }
            TraceEventKind::PhaseEnd { job, phase, .. } => format!("phase_end({job} {phase})"),
            TraceEventKind::Attempt {
                job,
                phase,
                task,
                attempt,
                kind,
                outcome,
                failure,
                ..
            } => {
                let failure = failure.map_or("-", FailureKind::as_str);
                format!(
                    "attempt({job} {phase}{task} a{attempt} {} {} {failure})",
                    kind.as_str(),
                    outcome.as_str()
                )
            }
            TraceEventKind::Wave {
                job,
                phase,
                wave,
                started,
            } => format!("wave({job} {phase} w{wave} started={started})"),
            // `runs` is deliberately excluded: the digest is shared by both
            // shuffle paths and pinned by golden-sequence tests.
            TraceEventKind::ShufflePartition {
                job,
                partition,
                bytes,
                ..
            } => format!("shuffle_partition({job} p{partition} bytes={bytes})"),
            TraceEventKind::Spill {
                job,
                task,
                spill,
                runs,
                bytes,
            } => format!("spill({job} m{task} s{spill} runs={runs} bytes={bytes})"),
            TraceEventKind::MergePass {
                job,
                partition,
                pass,
                fan_in,
                bytes,
            } => format!("merge_pass({job} p{partition} pass{pass} fan_in={fan_in} bytes={bytes})"),
            TraceEventKind::TaskAborted {
                job, phase, task, ..
            } => format!("task_aborted({job} {phase}{task})"),
            TraceEventKind::FaultInjected {
                job,
                phase,
                task,
                attempt,
            } => format!("fault_injected({job} {phase}{task} a{attempt})"),
            TraceEventKind::NodeDown {
                job,
                node,
                permanent,
            } => format!("node_down({job} n{node} permanent={permanent})"),
            TraceEventKind::FetchFailed {
                job,
                partition,
                map_task,
                retries,
            } => format!("fetch_failed({job} p{partition} m{map_task} retries={retries})"),
            TraceEventKind::MapReexecuted { job, task, node } => {
                format!("map_reexecuted({job} m{task} n{node})")
            }
            TraceEventKind::NodeBlacklisted {
                job,
                node,
                failures,
            } => format!("node_blacklisted({job} n{node} failures={failures})"),
            TraceEventKind::StageBegin { stage } => format!("stage_begin({stage})"),
            TraceEventKind::StageEnd { stage } => format!("stage_end({stage})"),
            TraceEventKind::Glue => "glue".to_string(),
            TraceEventKind::PhaseStarted { phase } => {
                format!("phase_started({})", phase.label())
            }
            TraceEventKind::SnapshotPublished { label, version } => {
                format!("snapshot_published({label} v{version})")
            }
        }
    }
}

fn parse_task_phase(s: &str) -> Result<TaskPhase, TraceError> {
    match s {
        "map" => Ok(TaskPhase::Map),
        "reduce" => Ok(TaskPhase::Reduce),
        other => Err(TraceError(format!("unknown task phase {other:?}"))),
    }
}

fn parse_attempt_kind(s: &str) -> Result<AttemptKind, TraceError> {
    match s {
        "regular" => Ok(AttemptKind::Regular),
        "retry" => Ok(AttemptKind::Retry),
        "speculative" => Ok(AttemptKind::Speculative),
        other => Err(TraceError(format!("unknown attempt kind {other:?}"))),
    }
}

fn parse_outcome(s: &str) -> Result<AttemptOutcome, TraceError> {
    match s {
        "ok" => Ok(AttemptOutcome::Succeeded),
        "failed" => Ok(AttemptOutcome::Failed),
        "killed" => Ok(AttemptOutcome::Killed),
        other => Err(TraceError(format!("unknown outcome {other:?}"))),
    }
}

fn parse_failure(s: &str) -> Result<FailureKind, TraceError> {
    match s {
        "panic" => Ok(FailureKind::Panic),
        "injected" => Ok(FailureKind::Injected),
        "node_lost" => Ok(FailureKind::NodeLost),
        other => Err(TraceError(format!("unknown failure kind {other:?}"))),
    }
}

fn field<'a>(v: &'a json::Value, key: &str) -> Result<&'a json::Value, TraceError> {
    v.get(key)
        .ok_or_else(|| TraceError(format!("missing field {key:?}")))
}

fn field_u64(v: &json::Value, key: &str) -> Result<u64, TraceError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| TraceError(format!("field {key:?} is not an unsigned integer")))
}

fn field_f64(v: &json::Value, key: &str) -> Result<f64, TraceError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| TraceError(format!("field {key:?} is not a number")))
}

fn field_str(v: &json::Value, key: &str) -> Result<String, TraceError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| TraceError(format!("field {key:?} is not a string")))
}

/// A trace serialization, parsing, or validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TraceError {}

/// Internal sink state: the event log, the global sim clock, and the next
/// sequence number.
#[derive(Debug, Default)]
struct SinkInner {
    events: Vec<TraceEvent>,
    clock: f64,
    seq: u64,
}

/// The cluster's trace collector and global simulated clock.
///
/// One sink per [`crate::Cluster`]; always on. Jobs append their whole
/// event batch under one lock acquisition (see [`TraceSink::job_scope`]),
/// and the sink's clock advances by each job's simulated duration, so
/// consecutive jobs tile the timeline exactly as
/// [`crate::metrics::DriverMetrics::total_simulated`] sums them.
#[derive(Debug, Default)]
pub struct TraceSink {
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    /// An empty sink with the clock at zero.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Current simulated clock (seconds since the trace began).
    pub fn now(&self) -> f64 {
        self.inner.lock().expect("trace lock").clock
    }

    /// Snapshot of all recorded events, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("trace lock").events.clone()
    }

    /// Drops all recorded events and resets the clock and sequence counter
    /// (e.g. between benchmark repetitions).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace lock");
        inner.events.clear();
        inner.clock = 0.0;
        inner.seq = 0;
    }

    /// Records a single instant event at the current clock.
    pub fn instant(&self, kind: TraceEventKind) {
        let mut inner = self.inner.lock().expect("trace lock");
        let seq = inner.seq;
        let time = inner.clock;
        inner.seq += 1;
        inner.events.push(TraceEvent { seq, time, kind });
    }

    /// Runs `f` with a [`JobTrace`] emitter holding the sink's lock: the
    /// job's events are appended contiguously (concurrent jobs on the same
    /// cluster cannot interleave their batches) and the clock advances
    /// once, by the job's total simulated duration.
    pub fn job_scope<R>(&self, f: impl FnOnce(&mut JobTrace) -> R) -> R {
        let mut inner = self.inner.lock().expect("trace lock");
        let t0 = inner.clock;
        let mut jt = JobTrace {
            inner: &mut inner,
            t0,
        };
        f(&mut jt)
    }
}

/// Batch emitter for one job's events; created by [`TraceSink::job_scope`].
#[derive(Debug)]
pub struct JobTrace<'a> {
    inner: &'a mut SinkInner,
    t0: f64,
}

impl JobTrace<'_> {
    /// The job's start on the global timeline (the clock when the scope
    /// opened).
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Emits one event at an absolute simulated time.
    pub fn emit(&mut self, time: f64, kind: TraceEventKind) {
        let seq = self.inner.seq;
        self.inner.seq += 1;
        self.inner.events.push(TraceEvent { seq, time, kind });
    }

    /// Advances the global clock by the job's simulated duration.
    pub fn advance(&mut self, sim_secs: f64) {
        self.inner.clock += sim_secs.max(0.0);
    }
}

/// Serializes events as JSONL: one [`TraceEvent::to_jsonl`] line per
/// event, newline-terminated.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document produced by [`to_jsonl`] (blank lines are
/// skipped).
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            TraceEvent::from_jsonl(l).map_err(|e| TraceError(format!("line {}: {e}", i + 1)))
        })
        .collect()
}

/// Fixed Chrome-trace thread ids for the non-slot tracks.
const TID_DRIVER: u64 = 0;
const TID_SHUFFLE: u64 = 1;
const TID_PIPELINE: u64 = 2;
/// Slot tracks: map slot `s` is `TID_MAP_BASE + s`, reduce slot `s` is
/// `TID_REDUCE_BASE + s`.
const TID_MAP_BASE: u64 = 10;
const TID_REDUCE_BASE: u64 = 1000;

fn slot_tid(phase: TaskPhase, slot: usize) -> u64 {
    match phase {
        TaskPhase::Map => TID_MAP_BASE + slot as u64,
        TaskPhase::Reduce => TID_REDUCE_BASE + slot as u64,
    }
}

/// Exports events in the Chrome trace-event JSON format, loadable in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Layout: one process (`pid` 1) with named threads — `driver` carries
/// job and phase spans plus wave/fault instants, `shuffle` carries the
/// shuffle span and per-partition byte counters, `pipeline` carries stage
/// spans and glue instants, and every simulated map/reduce slot is its own
/// thread carrying that slot's attempt spans. Timestamps are simulated
/// microseconds.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let us = |t: f64| fmt_f64(t * 1e6);
    let mut lines: Vec<String> = Vec::new();
    let meta = |tid: u64, name: &str| {
        format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        )
    };
    lines.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"dwmaxerr simulated cluster\"}}"
            .to_string(),
    );
    lines.push(meta(TID_DRIVER, "driver"));
    lines.push(meta(TID_SHUFFLE, "shuffle"));
    lines.push(meta(TID_PIPELINE, "pipeline"));
    let mut named_slots: Vec<u64> = Vec::new();
    for e in events {
        if let TraceEventKind::Attempt { phase, slot, .. } = &e.kind {
            let tid = slot_tid(*phase, *slot);
            if !named_slots.contains(&tid) {
                named_slots.push(tid);
                lines.push(meta(tid, &format!("{} slot {}", phase.as_str(), slot)));
            }
        }
    }

    // Open spans awaiting their end event, keyed by name.
    let mut open_jobs: Vec<(String, f64)> = Vec::new();
    let mut open_phases: Vec<(String, JobPhase, f64)> = Vec::new();
    let mut open_stages: Vec<(String, f64)> = Vec::new();
    for e in events {
        match &e.kind {
            TraceEventKind::JobBegin { job, .. } => open_jobs.push((job.clone(), e.time)),
            TraceEventKind::JobEnd { job, sim_secs } => {
                if let Some(pos) = open_jobs.iter().rposition(|(j, _)| j == job) {
                    let (_, begin) = open_jobs.remove(pos);
                    lines.push(format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"dur\":{},\
                         \"name\":\"{}\",\"cat\":\"job\",\"args\":{{\"sim_secs\":{}}}}}",
                        us(begin),
                        us(*sim_secs),
                        esc(job),
                        fmt_f64(*sim_secs)
                    ));
                }
            }
            TraceEventKind::JobAborted { job, reason } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"aborted: {}\",\"cat\":\"fault\",\"args\":{{\"reason\":\"{}\"}}}}",
                    us(e.time),
                    esc(job),
                    esc(reason)
                ));
            }
            TraceEventKind::PhaseBegin { job, phase, .. } => {
                open_phases.push((job.clone(), *phase, e.time));
            }
            TraceEventKind::PhaseEnd {
                job,
                phase,
                sim_secs,
            } => {
                if let Some(pos) = open_phases
                    .iter()
                    .rposition(|(j, p, _)| j == job && p == phase)
                {
                    let (_, _, begin) = open_phases.remove(pos);
                    let tid = if *phase == JobPhase::Shuffle {
                        TID_SHUFFLE
                    } else {
                        TID_DRIVER
                    };
                    lines.push(format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"name\":\"{} {}\",\"cat\":\"phase\",\"args\":{{}}}}",
                        us(begin),
                        us(*sim_secs),
                        esc(job),
                        phase.as_str()
                    ));
                }
            }
            TraceEventKind::Attempt {
                job,
                phase,
                task,
                attempt,
                kind,
                outcome,
                slot,
                node,
                end,
                failure,
            } => {
                let short = match phase {
                    TaskPhase::Map => "m",
                    TaskPhase::Reduce => "r",
                };
                let suffix = match kind {
                    AttemptKind::Regular => "",
                    AttemptKind::Retry => " retry",
                    AttemptKind::Speculative => " spec",
                };
                lines.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"{short}{task} a{attempt}{suffix}\",\"cat\":\"task,{},{}\",\
                     \"args\":{{\"job\":\"{}\",\"task\":{task},\"attempt\":{attempt},\
                     \"node\":{node},\"kind\":\"{}\",\"outcome\":\"{}\",\"failure\":\"{}\"}}}}",
                    slot_tid(*phase, *slot),
                    us(e.time),
                    us(end - e.time),
                    kind.as_str(),
                    outcome.as_str(),
                    esc(job),
                    kind.as_str(),
                    outcome.as_str(),
                    failure.map_or("-", FailureKind::as_str)
                ));
            }
            TraceEventKind::Wave {
                job,
                phase,
                wave,
                started,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"{} wave {wave} (+{started})\",\"cat\":\"wave\",\
                     \"args\":{{\"job\":\"{}\"}}}}",
                    us(e.time),
                    phase.as_str(),
                    esc(job)
                ));
            }
            TraceEventKind::ShufflePartition {
                job,
                partition,
                bytes,
                runs,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{TID_SHUFFLE},\"ts\":{},\
                     \"name\":\"shuffle p{partition}\",\"args\":{{\"bytes\":{bytes},\
                     \"runs\":{runs},\"job\":\"{}\"}}}}",
                    us(e.time),
                    esc(job)
                ));
            }
            TraceEventKind::Spill {
                job,
                task,
                spill,
                runs,
                bytes,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"spill m{task} s{spill}\",\"cat\":\"spill\",\
                     \"args\":{{\"job\":\"{}\",\"runs\":{runs},\"bytes\":{bytes}}}}}",
                    us(e.time),
                    esc(job)
                ));
            }
            TraceEventKind::MergePass {
                job,
                partition,
                pass,
                fan_in,
                bytes,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"merge p{partition} pass{pass}\",\"cat\":\"merge\",\
                     \"args\":{{\"job\":\"{}\",\"fan_in\":{fan_in},\"bytes\":{bytes}}}}}",
                    us(e.time),
                    esc(job)
                ));
            }
            TraceEventKind::TaskAborted {
                job,
                phase,
                task,
                reason,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"task aborted {}{task}\",\"cat\":\"fault\",\
                     \"args\":{{\"job\":\"{}\",\"reason\":\"{}\"}}}}",
                    us(e.time),
                    phase.as_str(),
                    esc(job),
                    esc(reason)
                ));
            }
            TraceEventKind::FaultInjected {
                job,
                phase,
                task,
                attempt,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"fault {}{task} a{attempt}\",\"cat\":\"fault\",\
                     \"args\":{{\"job\":\"{}\"}}}}",
                    us(e.time),
                    phase.as_str(),
                    esc(job)
                ));
            }
            TraceEventKind::NodeDown {
                job,
                node,
                permanent,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"g\",\
                     \"name\":\"node {node} down{}\",\"cat\":\"fault\",\
                     \"args\":{{\"job\":\"{}\",\"permanent\":{permanent}}}}}",
                    us(e.time),
                    if *permanent { " (permanent)" } else { "" },
                    esc(job)
                ));
            }
            TraceEventKind::FetchFailed {
                job,
                partition,
                map_task,
                retries,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_SHUFFLE},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"fetch failed p{partition} ← m{map_task}\",\"cat\":\"fault\",\
                     \"args\":{{\"job\":\"{}\",\"retries\":{retries}}}}}",
                    us(e.time),
                    esc(job)
                ));
            }
            TraceEventKind::MapReexecuted { job, task, node } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"re-exec m{task} on n{node}\",\"cat\":\"recovery\",\
                     \"args\":{{\"job\":\"{}\"}}}}",
                    us(e.time),
                    esc(job)
                ));
            }
            TraceEventKind::NodeBlacklisted {
                job,
                node,
                failures,
            } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_DRIVER},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"node {node} blacklisted\",\"cat\":\"fault\",\
                     \"args\":{{\"job\":\"{}\",\"failures\":{failures}}}}}",
                    us(e.time),
                    esc(job)
                ));
            }
            TraceEventKind::StageBegin { stage } => open_stages.push((stage.clone(), e.time)),
            TraceEventKind::StageEnd { stage } => {
                if let Some(pos) = open_stages.iter().rposition(|(s, _)| s == stage) {
                    let (_, begin) = open_stages.remove(pos);
                    lines.push(format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_PIPELINE},\"ts\":{},\"dur\":{},\
                         \"name\":\"{}\",\"cat\":\"stage\",\"args\":{{}}}}",
                        us(begin),
                        us(e.time - begin),
                        esc(stage)
                    ));
                }
            }
            TraceEventKind::Glue => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_PIPELINE},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"glue\",\"cat\":\"stage\",\"args\":{{}}}}",
                    us(e.time)
                ));
            }
            TraceEventKind::PhaseStarted { phase } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_PIPELINE},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"phase {}\",\"cat\":\"phase\",\"args\":{{}}}}",
                    us(e.time),
                    phase.label()
                ));
            }
            TraceEventKind::SnapshotPublished { label, version } => {
                lines.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_PIPELINE},\"ts\":{},\"s\":\"p\",\
                     \"name\":\"publish {} v{version}\",\"cat\":\"snapshot\",\
                     \"args\":{{\"version\":{version}}}}}",
                    us(e.time),
                    esc(label)
                ));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Checks a trace's structural well-formedness.
///
/// Verified invariants:
///
/// * sequence numbers strictly increase; all times are finite and
///   non-negative,
/// * every `job_begin` is closed by a `job_end` for the same job before
///   the next job begins, and the job's events are contiguous,
/// * within a job, phases appear in `setup → map → shuffle → reduce`
///   order, each begin paired with its end, and the job's `sim_secs` is
///   the sum of its phases' (within float tolerance),
/// * every attempt span lies inside its phase span, ends no earlier than
///   it starts, and **no two attempts of the same job phase overlap on
///   one slot**,
/// * failed attempts carry a failure kind; successful/killed ones do not,
/// * a shuffle partition's merge fan-in (`runs`) never exceeds the job's
///   map count plus the number of recorded extra spill passes (a reducer
///   draws at most one sorted run per map-task spill pass, and single-spill
///   tasks emit no `spill` events),
/// * `spill` events lie inside the map phase and name a valid map task;
///   `merge_pass` events lie inside the reduce phase and name a valid
///   reduce partition,
/// * every `task_aborted` event is followed by a `job_aborted` for the
///   same job (task admission failures abort the whole job), and no
///   `task_aborted` appears after its job's end span — an aborted task
///   means the job never produced a timeline,
/// * node-fault instants (`node_down`, `fetch_failed`, `map_reexecuted`,
///   `node_blacklisted`) name the job whose block they appear in,
/// * stage begin/end events nest properly; an unclosed stage is accepted
///   only when a `job_aborted` event follows it (the error propagated
///   out of the stage),
/// * `phase_started` and `snapshot_published` markers appear only between
///   jobs (they are driver instants; one inside a job's contiguous block
///   is an error), and each progressive label's snapshot versions count
///   `1, 2, 3, …` in trace order.
pub fn validate(events: &[TraceEvent]) -> Result<(), TraceError> {
    let err = |msg: String| Err(TraceError(msg));
    let mut last_seq: Option<u64> = None;
    for e in events {
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                return err(format!("seq {} not increasing after {}", e.seq, prev));
            }
        }
        last_seq = Some(e.seq);
        if !e.time.is_finite() || e.time < 0.0 {
            return err(format!("event seq {} has bad time {}", e.seq, e.time));
        }
    }

    // Job structure. Jobs are contiguous: scan for job_begin, consume
    // until the matching job_end.
    let mut i = 0usize;
    let mut stage_stack: Vec<(&str, u64)> = Vec::new();
    // Last snapshot version seen per progressive label.
    let mut snapshots: Vec<(&str, u64)> = Vec::new();
    let aborted_after = |seq: u64| {
        events
            .iter()
            .any(|e| e.seq > seq && matches!(e.kind, TraceEventKind::JobAborted { .. }))
    };
    while i < events.len() {
        let e = &events[i];
        match &e.kind {
            TraceEventKind::StageBegin { stage } => {
                stage_stack.push((stage, e.seq));
                i += 1;
            }
            TraceEventKind::StageEnd { stage } => {
                match stage_stack.pop() {
                    Some((open, _)) if open == stage => {}
                    Some((open, _)) => {
                        return err(format!("stage_end({stage}) closes stage_begin({open})"))
                    }
                    None => return err(format!("stage_end({stage}) without stage_begin")),
                }
                i += 1;
            }
            TraceEventKind::JobBegin { job, .. } => {
                let consumed = validate_job(events, i, job)?;
                i = consumed;
            }
            // Driver phase markers carry no structure of their own beyond
            // being driver-side instants: validate_job rejects one inside
            // a job's contiguous block.
            TraceEventKind::PhaseStarted { .. } => {
                i += 1;
            }
            TraceEventKind::SnapshotPublished { label, version } => {
                let expected = match snapshots.iter_mut().find(|(l, _)| l == label) {
                    Some(entry) => {
                        entry.1 += 1;
                        entry.1
                    }
                    None => {
                        snapshots.push((label, 1));
                        1
                    }
                };
                if *version != expected {
                    return err(format!(
                        "snapshot_published({label}) version {version}, expected {expected}"
                    ));
                }
                i += 1;
            }
            TraceEventKind::TaskAborted { job, .. } => {
                let aborted = events.iter().any(|later| {
                    later.seq > e.seq
                        && matches!(&later.kind,
                            TraceEventKind::JobAborted { job: j, .. } if j == job)
                });
                if !aborted {
                    return err(format!(
                        "task_aborted({job}) without a following job_aborted"
                    ));
                }
                // An aborted task means the job never produced a
                // timeline: a task_aborted after the job's end span is
                // incoherent.
                let ended_before = events.iter().any(|earlier| {
                    earlier.seq < e.seq
                        && matches!(&earlier.kind,
                            TraceEventKind::JobEnd { job: j, .. } if j == job)
                });
                if ended_before {
                    return err(format!("task_aborted({job}) after its job's end span"));
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    for (stage, seq) in stage_stack {
        if !aborted_after(seq) {
            return err(format!("stage_begin({stage}) never closed"));
        }
    }
    Ok(())
}

/// Validates one job's contiguous event block starting at `events[begin]`
/// (a `job_begin` for `job`); returns the index one past its `job_end`.
fn validate_job(events: &[TraceEvent], begin: usize, job: &str) -> Result<usize, TraceError> {
    let err = |msg: String| Err(TraceError(msg));
    let t_begin = events[begin].time;
    let (job_maps, job_reducers) = match &events[begin].kind {
        TraceEventKind::JobBegin { maps, reducers, .. } => (*maps as u64, *reducers as u64),
        _ => unreachable!("validate_job is called on a job_begin event"),
    };
    const PHASES: [JobPhase; 4] = [
        JobPhase::Setup,
        JobPhase::Map,
        JobPhase::Shuffle,
        JobPhase::Reduce,
    ];
    let mut next_phase = 0usize; // index into PHASES of the next expected begin
    let mut open_phase: Option<(JobPhase, f64)> = None;
    let mut phase_sum = 0.0f64;
    // Spill events recorded in this job's map phase; each one is an extra
    // spill pass, loosening the per-partition fan-in bound accordingly.
    let mut extra_spills = 0u64;
    // (slot, start, end) per open task phase, for overlap checking.
    let mut spans: Vec<(TaskPhase, usize, f64, f64)> = Vec::new();
    let mut i = begin + 1;
    while i < events.len() {
        let e = &events[i];
        match &e.kind {
            TraceEventKind::JobEnd { job: j, sim_secs } => {
                if j != job {
                    return err(format!("job_end({j}) inside job {job}"));
                }
                if let Some((p, _)) = open_phase {
                    return err(format!("{job}: job_end with open phase {p}"));
                }
                let tol = 1e-9 * sim_secs.abs().max(1.0);
                if (phase_sum - sim_secs).abs() > tol {
                    return err(format!(
                        "{job}: phase sim_secs sum {phase_sum} != job sim_secs {sim_secs}"
                    ));
                }
                if (e.time - t_begin) - sim_secs > 1e-6 * sim_secs.max(1.0) {
                    return err(format!(
                        "{job}: job span {} wider than sim_secs {sim_secs}",
                        e.time - t_begin
                    ));
                }
                // Per-slot overlap check, per task phase.
                spans.sort_by(|a, b| {
                    (a.0 as usize, a.1)
                        .cmp(&(b.0 as usize, b.1))
                        .then(a.2.total_cmp(&b.2))
                });
                for w in spans.windows(2) {
                    let (p1, s1, _, end1) = w[0];
                    let (p2, s2, start2, _) = w[1];
                    if p1 == p2 && s1 == s2 && start2 < end1 - 1e-12 {
                        return err(format!(
                            "{job}: overlapping attempts on {p1} slot {s1} \
                             ({start2} < {end1})"
                        ));
                    }
                }
                return Ok(i + 1);
            }
            TraceEventKind::PhaseBegin { job: j, phase, .. } => {
                if j != job {
                    return err(format!("phase_begin for {j} inside job {job}"));
                }
                if open_phase.is_some() {
                    return err(format!("{job}: nested phase_begin({phase})"));
                }
                if next_phase >= PHASES.len() || PHASES[next_phase] != *phase {
                    return err(format!("{job}: phase {phase} out of order"));
                }
                open_phase = Some((*phase, e.time));
                next_phase += 1;
            }
            TraceEventKind::PhaseEnd {
                job: j,
                phase,
                sim_secs,
            } => {
                if j != job {
                    return err(format!("phase_end for {j} inside job {job}"));
                }
                match open_phase.take() {
                    Some((open, _)) if open == *phase => phase_sum += sim_secs,
                    Some((open, _)) => {
                        return err(format!("{job}: phase_end({phase}) closes {open}"))
                    }
                    None => return err(format!("{job}: phase_end({phase}) without begin")),
                }
            }
            TraceEventKind::Attempt {
                job: j,
                phase,
                slot,
                end,
                outcome,
                failure,
                ..
            } => {
                if j != job {
                    return err(format!("attempt for {j} inside job {job}"));
                }
                let expected = match phase {
                    TaskPhase::Map => JobPhase::Map,
                    TaskPhase::Reduce => JobPhase::Reduce,
                };
                let Some((open, phase_t0)) = open_phase else {
                    return err(format!("{job}: attempt outside any phase"));
                };
                if open != expected {
                    return err(format!("{job}: {phase} attempt inside {open} phase"));
                }
                if *end < e.time {
                    return err(format!("{job}: attempt ends before it starts"));
                }
                if e.time < phase_t0 - 1e-12 {
                    return err(format!("{job}: attempt starts before its phase"));
                }
                if (*outcome == AttemptOutcome::Failed) != failure.is_some() {
                    return err(format!(
                        "{job}: failure kind inconsistent with outcome {}",
                        outcome.as_str()
                    ));
                }
                spans.push((*phase, *slot, e.time, *end));
            }
            TraceEventKind::ShufflePartition { job: j, runs, .. } => {
                if j != job {
                    return err(format!("event for {j} inside job {job}"));
                }
                // A reducer draws at most one sorted run per map-task spill
                // pass; single-spill tasks emit no spill events, so the
                // bound is map count plus recorded extra passes.
                if *runs > job_maps + extra_spills {
                    return err(format!(
                        "{job}: shuffle partition fan-in {runs} exceeds map count {job_maps} \
                         plus {extra_spills} recorded spills"
                    ));
                }
            }
            TraceEventKind::Spill { job: j, task, .. } => {
                if j != job {
                    return err(format!("event for {j} inside job {job}"));
                }
                if !matches!(open_phase, Some((JobPhase::Map, _))) {
                    return err(format!("{job}: spill event outside the map phase"));
                }
                if *task as u64 >= job_maps {
                    return err(format!("{job}: spill names map task {task} of {job_maps}"));
                }
                extra_spills += 1;
            }
            TraceEventKind::MergePass {
                job: j, partition, ..
            } => {
                if j != job {
                    return err(format!("event for {j} inside job {job}"));
                }
                if !matches!(open_phase, Some((JobPhase::Reduce, _))) {
                    return err(format!("{job}: merge_pass event outside the reduce phase"));
                }
                if *partition as u64 >= job_reducers {
                    return err(format!(
                        "{job}: merge_pass names partition {partition} of {job_reducers}"
                    ));
                }
            }
            TraceEventKind::Wave { job: j, .. }
            | TraceEventKind::FaultInjected { job: j, .. }
            | TraceEventKind::NodeDown { job: j, .. }
            | TraceEventKind::FetchFailed { job: j, .. }
            | TraceEventKind::MapReexecuted { job: j, .. }
            | TraceEventKind::NodeBlacklisted { job: j, .. } => {
                if j != job {
                    return err(format!("event for {j} inside job {job}"));
                }
            }
            other => {
                return err(format!("{job}: unexpected {other:?} inside job block"));
            }
        }
        i += 1;
    }
    err(format!("job_begin({job}) never closed"))
}

pub mod summary;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, time: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { seq, time, kind }
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let samples = vec![
            ev(
                0,
                0.0,
                TraceEventKind::JobBegin {
                    job: "a \"quoted\"\nname".into(),
                    maps: 3,
                    reducers: 2,
                },
            ),
            ev(
                1,
                0.125,
                TraceEventKind::PhaseBegin {
                    job: "j".into(),
                    phase: JobPhase::Map,
                    slots: 4,
                },
            ),
            ev(
                2,
                0.25,
                TraceEventKind::Attempt {
                    job: "j".into(),
                    phase: TaskPhase::Map,
                    task: 1,
                    attempt: 2,
                    kind: AttemptKind::Retry,
                    outcome: AttemptOutcome::Failed,
                    slot: 3,
                    node: 1,
                    end: 0.375,
                    failure: Some(FailureKind::Injected),
                },
            ),
            ev(
                3,
                0.5,
                TraceEventKind::Wave {
                    job: "j".into(),
                    phase: TaskPhase::Reduce,
                    wave: 1,
                    started: 4,
                },
            ),
            ev(
                4,
                0.5,
                TraceEventKind::ShufflePartition {
                    job: "j".into(),
                    partition: 0,
                    bytes: 123_456,
                    runs: 3,
                },
            ),
            ev(
                5,
                0.6,
                TraceEventKind::FaultInjected {
                    job: "j".into(),
                    phase: TaskPhase::Map,
                    task: 0,
                    attempt: 1,
                },
            ),
            ev(
                6,
                0.7,
                TraceEventKind::PhaseEnd {
                    job: "j".into(),
                    phase: JobPhase::Map,
                    sim_secs: 0.575,
                },
            ),
            ev(
                7,
                0.8,
                TraceEventKind::JobEnd {
                    job: "j".into(),
                    sim_secs: 0.8,
                },
            ),
            ev(
                8,
                0.8,
                TraceEventKind::JobAborted {
                    job: "j".into(),
                    reason: "task failed: \\ backslash".into(),
                },
            ),
            ev(9, 0.8, TraceEventKind::StageBegin { stage: "s".into() }),
            ev(10, 0.9, TraceEventKind::StageEnd { stage: "s".into() }),
            ev(11, 0.9, TraceEventKind::Glue),
            ev(
                12,
                0.95,
                TraceEventKind::Spill {
                    job: "j".into(),
                    task: 2,
                    spill: 1,
                    runs: 3,
                    bytes: 4096,
                },
            ),
            ev(
                13,
                0.96,
                TraceEventKind::MergePass {
                    job: "j".into(),
                    partition: 1,
                    pass: 0,
                    fan_in: 3,
                    bytes: 8192,
                },
            ),
            ev(
                14,
                0.97,
                TraceEventKind::TaskAborted {
                    job: "j".into(),
                    phase: TaskPhase::Map,
                    task: 0,
                    reason: "needs 2000 bytes, budget 1000".into(),
                },
            ),
            ev(
                15,
                0.98,
                TraceEventKind::NodeDown {
                    job: "j".into(),
                    node: 3,
                    permanent: true,
                },
            ),
            ev(
                16,
                0.98,
                TraceEventKind::FetchFailed {
                    job: "j".into(),
                    partition: 1,
                    map_task: 2,
                    retries: 3,
                },
            ),
            ev(
                17,
                0.99,
                TraceEventKind::MapReexecuted {
                    job: "j".into(),
                    task: 2,
                    node: 0,
                },
            ),
            ev(
                18,
                0.99,
                TraceEventKind::NodeBlacklisted {
                    job: "j".into(),
                    node: 5,
                    failures: 3,
                },
            ),
            ev(
                19,
                1.0,
                TraceEventKind::PhaseStarted {
                    phase: Phase::Background(2),
                },
            ),
            ev(
                20,
                1.0,
                TraceEventKind::SnapshotPublished {
                    label: "synopsis \"v2\"".into(),
                    version: 3,
                },
            ),
        ];
        for e in &samples {
            let line = e.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).expect(&line);
            assert_eq!(&back, e, "line: {line}");
        }
        let doc = to_jsonl(&samples);
        assert_eq!(from_jsonl(&doc).unwrap(), samples);
    }

    #[test]
    fn shuffle_partition_lines_without_runs_parse_as_zero() {
        // Traces written before merge fan-in was recorded lack "runs".
        let line = "{\"seq\":4,\"t\":0.5,\"ev\":\"shuffle_partition\",\"job\":\"j\",\
                    \"partition\":0,\"bytes\":18}";
        let e = TraceEvent::from_jsonl(line).unwrap();
        assert_eq!(
            e.kind,
            TraceEventKind::ShufflePartition {
                job: "j".into(),
                partition: 0,
                bytes: 18,
                runs: 0,
            }
        );
        // The digest is independent of `runs` (golden sequences pin it).
        let with_runs = TraceEvent {
            kind: TraceEventKind::ShufflePartition {
                job: "j".into(),
                partition: 0,
                bytes: 18,
                runs: 7,
            },
            ..e.clone()
        };
        assert_eq!(e.digest(), with_runs.digest());
        assert_eq!(e.digest(), "shuffle_partition(j p0 bytes=18)");
    }

    #[test]
    fn attempt_lines_without_node_parse_as_zero() {
        // Traces written before node fault domains lack "node".
        let line = "{\"seq\":2,\"t\":0.25,\"ev\":\"attempt\",\"job\":\"j\",\"phase\":\"map\",\
                    \"task\":1,\"attempt\":1,\"kind\":\"regular\",\"outcome\":\"ok\",\
                    \"slot\":3,\"end\":0.375,\"failure\":null}";
        let e = TraceEvent::from_jsonl(line).unwrap();
        let TraceEventKind::Attempt { node, .. } = &e.kind else {
            panic!("wrong kind");
        };
        assert_eq!(*node, 0);
        // The digest is independent of `node` (golden sequences pin it).
        let mut moved = e.clone();
        if let TraceEventKind::Attempt { node, .. } = &mut moved.kind {
            *node = 7;
        }
        assert_eq!(e.digest(), moved.digest());
        assert_eq!(e.digest(), "attempt(j map1 a1 regular ok -)");
    }

    #[test]
    fn float_times_round_trip_exactly() {
        let t = 0.1 + 0.2; // 0.30000000000000004
        let e = ev(
            0,
            t,
            TraceEventKind::JobEnd {
                job: "x".into(),
                sim_secs: 1.0 / 3.0,
            },
        );
        let back = TraceEvent::from_jsonl(&e.to_jsonl()).unwrap();
        assert_eq!(back.time.to_bits(), t.to_bits());
        match back.kind {
            TraceEventKind::JobEnd { sim_secs, .. } => {
                assert_eq!(sim_secs.to_bits(), (1.0f64 / 3.0).to_bits());
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(TraceEvent::from_jsonl("not json").is_err());
        assert!(TraceEvent::from_jsonl("{}").is_err());
        assert!(TraceEvent::from_jsonl("{\"seq\":0,\"t\":0,\"ev\":\"nope\"}").is_err());
        // Missing a required field.
        assert!(
            TraceEvent::from_jsonl("{\"seq\":0,\"t\":0,\"ev\":\"job_begin\",\"job\":\"x\"}")
                .is_err()
        );
    }

    #[test]
    fn snapshot_versions_must_count_up_per_label() {
        let publish = |seq, label: &str, version| {
            ev(
                seq,
                0.0,
                TraceEventKind::SnapshotPublished {
                    label: label.into(),
                    version,
                },
            )
        };
        // Independent labels each count from 1; interleaving is fine.
        let good = vec![
            ev(
                0,
                0.0,
                TraceEventKind::PhaseStarted {
                    phase: Phase::Foreground,
                },
            ),
            publish(1, "syn", 1),
            publish(2, "hist", 1),
            ev(
                3,
                0.0,
                TraceEventKind::PhaseStarted {
                    phase: Phase::Background(0),
                },
            ),
            publish(4, "syn", 2),
            publish(5, "hist", 2),
        ];
        validate(&good).unwrap();
        // A skipped version is rejected.
        let skipped = vec![publish(0, "syn", 1), publish(1, "syn", 3)];
        let msg = validate(&skipped).unwrap_err().0;
        assert!(msg.contains("expected 2"), "{msg}");
        // A label's first publish must be version 1.
        let late_start = vec![publish(0, "syn", 2)];
        assert!(validate(&late_start).is_err());
    }

    #[test]
    fn phase_markers_inside_a_job_block_are_rejected() {
        let events = vec![
            ev(
                0,
                0.0,
                TraceEventKind::JobBegin {
                    job: "j".into(),
                    maps: 1,
                    reducers: 1,
                },
            ),
            ev(
                1,
                0.0,
                TraceEventKind::PhaseStarted {
                    phase: Phase::Foreground,
                },
            ),
        ];
        let msg = validate(&events).unwrap_err().0;
        assert!(msg.contains("inside job block"), "{msg}");
    }

    #[test]
    fn sink_clock_advances_per_job_scope() {
        let sink = TraceSink::new();
        assert_eq!(sink.now(), 0.0);
        sink.job_scope(|tr| {
            assert_eq!(tr.t0(), 0.0);
            tr.emit(
                0.0,
                TraceEventKind::JobBegin {
                    job: "a".into(),
                    maps: 1,
                    reducers: 1,
                },
            );
            tr.advance(2.5);
        });
        assert_eq!(sink.now(), 2.5);
        sink.job_scope(|tr| assert_eq!(tr.t0(), 2.5));
        assert_eq!(sink.snapshot().len(), 1);
        sink.clear();
        assert_eq!(sink.now(), 0.0);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn validate_rejects_slot_overlap() {
        let job = "j".to_string();
        let mk_attempt = |seq, start: f64, end: f64, slot| {
            ev(
                seq,
                start,
                TraceEventKind::Attempt {
                    job: job.clone(),
                    phase: TaskPhase::Map,
                    task: 0,
                    attempt: 1,
                    kind: AttemptKind::Regular,
                    outcome: AttemptOutcome::Succeeded,
                    slot,
                    node: 0,
                    end,
                    failure: None,
                },
            )
        };
        let frame = |attempts: Vec<TraceEvent>| {
            let mut events = vec![
                ev(
                    0,
                    0.0,
                    TraceEventKind::JobBegin {
                        job: job.clone(),
                        maps: 2,
                        reducers: 1,
                    },
                ),
                ev(
                    1,
                    0.0,
                    TraceEventKind::PhaseBegin {
                        job: job.clone(),
                        phase: JobPhase::Setup,
                        slots: 0,
                    },
                ),
                ev(
                    2,
                    0.0,
                    TraceEventKind::PhaseEnd {
                        job: job.clone(),
                        phase: JobPhase::Setup,
                        sim_secs: 0.0,
                    },
                ),
                ev(
                    3,
                    0.0,
                    TraceEventKind::PhaseBegin {
                        job: job.clone(),
                        phase: JobPhase::Map,
                        slots: 2,
                    },
                ),
            ];
            let mut seq = 4;
            for mut a in attempts {
                a.seq = seq;
                seq += 1;
                events.push(a);
            }
            for (phase, slots) in [(JobPhase::Map, 0), (JobPhase::Shuffle, 0)] {
                let _ = slots;
                events.push(ev(
                    seq,
                    2.0,
                    TraceEventKind::PhaseEnd {
                        job: job.clone(),
                        phase,
                        sim_secs: if phase == JobPhase::Map { 2.0 } else { 0.0 },
                    },
                ));
                seq += 1;
                if phase == JobPhase::Map {
                    events.push(ev(
                        seq,
                        2.0,
                        TraceEventKind::PhaseBegin {
                            job: job.clone(),
                            phase: JobPhase::Shuffle,
                            slots: 0,
                        },
                    ));
                    seq += 1;
                }
            }
            for k in [
                TraceEventKind::PhaseBegin {
                    job: job.clone(),
                    phase: JobPhase::Reduce,
                    slots: 1,
                },
                TraceEventKind::PhaseEnd {
                    job: job.clone(),
                    phase: JobPhase::Reduce,
                    sim_secs: 0.0,
                },
                TraceEventKind::JobEnd {
                    job: job.clone(),
                    sim_secs: 2.0,
                },
            ] {
                events.push(ev(seq, 2.0, k));
                seq += 1;
            }
            events
        };
        // Disjoint slots: fine.
        let ok = frame(vec![mk_attempt(0, 0.0, 1.0, 0), mk_attempt(0, 0.5, 1.5, 1)]);
        validate(&ok).unwrap();
        // Same slot, overlapping: rejected.
        let bad = frame(vec![mk_attempt(0, 0.0, 1.0, 0), mk_attempt(0, 0.5, 1.5, 0)]);
        let e = validate(&bad).unwrap_err();
        assert!(e.0.contains("overlapping"), "{e}");
    }

    #[test]
    fn validate_rejects_task_aborted_after_job_end() {
        let job = "j".to_string();
        let events = vec![
            ev(
                0,
                0.0,
                TraceEventKind::JobBegin {
                    job: job.clone(),
                    maps: 1,
                    reducers: 1,
                },
            ),
            ev(
                1,
                0.0,
                TraceEventKind::PhaseBegin {
                    job: job.clone(),
                    phase: JobPhase::Setup,
                    slots: 0,
                },
            ),
            ev(
                2,
                0.0,
                TraceEventKind::PhaseEnd {
                    job: job.clone(),
                    phase: JobPhase::Setup,
                    sim_secs: 0.0,
                },
            ),
            ev(
                3,
                0.0,
                TraceEventKind::PhaseBegin {
                    job: job.clone(),
                    phase: JobPhase::Map,
                    slots: 1,
                },
            ),
            ev(
                4,
                0.0,
                TraceEventKind::PhaseEnd {
                    job: job.clone(),
                    phase: JobPhase::Map,
                    sim_secs: 0.0,
                },
            ),
            ev(
                5,
                0.0,
                TraceEventKind::PhaseBegin {
                    job: job.clone(),
                    phase: JobPhase::Shuffle,
                    slots: 0,
                },
            ),
            ev(
                6,
                0.0,
                TraceEventKind::PhaseEnd {
                    job: job.clone(),
                    phase: JobPhase::Shuffle,
                    sim_secs: 0.0,
                },
            ),
            ev(
                7,
                0.0,
                TraceEventKind::PhaseBegin {
                    job: job.clone(),
                    phase: JobPhase::Reduce,
                    slots: 1,
                },
            ),
            ev(
                8,
                0.0,
                TraceEventKind::PhaseEnd {
                    job: job.clone(),
                    phase: JobPhase::Reduce,
                    sim_secs: 0.0,
                },
            ),
            ev(
                9,
                0.0,
                TraceEventKind::JobEnd {
                    job: job.clone(),
                    sim_secs: 0.0,
                },
            ),
            ev(
                10,
                0.0,
                TraceEventKind::TaskAborted {
                    job: job.clone(),
                    phase: TaskPhase::Map,
                    task: 0,
                    reason: "late".into(),
                },
            ),
            ev(
                11,
                0.0,
                TraceEventKind::JobAborted {
                    job: job.clone(),
                    reason: "late".into(),
                },
            ),
        ];
        let e = validate(&events).unwrap_err();
        assert!(e.0.contains("after its job's end span"), "{e}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_tracks() {
        let events = vec![
            ev(
                0,
                0.0,
                TraceEventKind::JobBegin {
                    job: "wc".into(),
                    maps: 1,
                    reducers: 1,
                },
            ),
            ev(
                1,
                0.0,
                TraceEventKind::Attempt {
                    job: "wc".into(),
                    phase: TaskPhase::Map,
                    task: 0,
                    attempt: 1,
                    kind: AttemptKind::Regular,
                    outcome: AttemptOutcome::Succeeded,
                    slot: 2,
                    node: 0,
                    end: 1.0,
                    failure: None,
                },
            ),
            ev(
                2,
                1.5,
                TraceEventKind::JobEnd {
                    job: "wc".into(),
                    sim_secs: 1.5,
                },
            ),
        ];
        let doc = chrome_trace(&events);
        let v = json::parse(&doc).expect("chrome trace parses as JSON");
        let arr = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        // 4 fixed metadata + 1 slot metadata + attempt X + job X.
        assert_eq!(arr.len(), 7);
        let xs: Vec<_> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        for x in xs {
            assert!(x.get("ts").and_then(json::Value::as_f64).is_some());
            assert!(x.get("dur").and_then(json::Value::as_f64).is_some());
        }
        // The map slot 2 thread is named.
        assert!(doc.contains("map slot 2"));
    }
}
