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
//!   `fetch_failed`, `map_reexecuted`, `node_blacklisted`), and
//!   `snapshot_published` (a versioned store swapped in its next version;
//!   the serving layer records one per tick it serves) are instant events.
//!
//! Each fact is recorded once. A job's events form one contiguous block
//! opened by its `job_begin`, which alone names the job; the events of
//! the block carry no job name of their own. Only `job_aborted` and
//! `task_aborted`, emitted outside any block, name their job.
//!
//! Recording is lock-cheap: a job's events are appended under a single
//! mutex acquisition after the job has finished executing, so tracing adds
//! no per-record synchronization to the hot path.
//!
//! # Exporters
//!
//! The event schema is declared once, in the `trace_events!` table below:
//! each kind states its variant, its `ev` tag and its typed fields, and
//! the [`TraceEventKind`] enum, [`TraceEventKind::tag`], the ordered field
//! list and the parser are derived from it. [`to_jsonl`] writes one JSON
//! object per line — `seq`, `t`, `ev`, then that field list (see
//! [`TraceEvent::to_jsonl`]); [`chrome_trace`] writes the Chrome
//! trace-event format, loadable in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`, with one track per simulated slot, choosing per
//! kind only where and how the event is drawn and taking `args` from the
//! same field list. Both are written and parsed through the vendored
//! [`json`] module (the build is offline, so serde is not available); no
//! exporter spells JSON text by hand. The golden-sequence tests pin whole
//! JSONL lines — sequence numbers, times, slots, nodes and every field —
//! so a change to the pricing rates shows up as a golden change.
//!
//! # Summaries
//!
//! The trace is the only record of how each attempt ran and what recovery
//! happened; [`crate::metrics::JobMetrics`] records what each job cost.
//! [`summary::per_stage`] is the one roll-up: a single pass that folds
//! each job's contiguous event block into one [`summary::StageSummary`]
//! row per job name — attempts failed, retried and speculative, wasted
//! slot seconds, node losses and fetch recovery included. Every report of
//! a run's timeline reads its fields, and a total is a fold over its rows.
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

// Function-length budget (threshold in clippy.toml) for this module tree:
// the exporters and the validator must not regrow into one long match per
// concern.
#![warn(clippy::too_many_lines)]

use std::sync::Mutex;

use crate::fault::{FailureKind, TaskPhase};
use crate::metrics::{AttemptKind, AttemptOutcome};

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
}

impl std::fmt::Display for JobPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed event field's JSON form. Every field type a
/// [`TraceEventKind`] variant carries implements it, so the schema table
/// below is the only place that knows which fields an event has.
trait Field: Sized {
    /// How "field … is not …" parse errors name the type.
    const EXPECTED: &'static str;
    /// The field's JSON value.
    fn to_json(&self) -> json::Value;
    /// Inverts [`Field::to_json`]; `None` for a value of the wrong JSON
    /// type or one that names no variant.
    fn from_json(v: &json::Value) -> Option<Self>;
}

impl Field for String {
    const EXPECTED: &'static str = "a string";
    fn to_json(&self) -> json::Value {
        self.as_str().into()
    }
    fn from_json(v: &json::Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Field for u64 {
    const EXPECTED: &'static str = "an unsigned integer";
    fn to_json(&self) -> json::Value {
        (*self).into()
    }
    fn from_json(v: &json::Value) -> Option<Self> {
        v.as_u64()
    }
}

impl Field for usize {
    const EXPECTED: &'static str = u64::EXPECTED;
    fn to_json(&self) -> json::Value {
        (*self).into()
    }
    fn from_json(v: &json::Value) -> Option<Self> {
        v.as_u64().and_then(|n| usize::try_from(n).ok())
    }
}

impl Field for f64 {
    const EXPECTED: &'static str = "a number";
    fn to_json(&self) -> json::Value {
        (*self).into()
    }
    fn from_json(v: &json::Value) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for bool {
    const EXPECTED: &'static str = "a boolean";
    fn to_json(&self) -> json::Value {
        (*self).into()
    }
    fn from_json(v: &json::Value) -> Option<Self> {
        v.as_bool()
    }
}

/// Optional fields are written as `null`, never omitted.
impl<T: Field> Field for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;
    fn to_json(&self) -> json::Value {
        self.as_ref().map_or(json::Value::Null, T::to_json)
    }
    fn from_json(v: &json::Value) -> Option<Self> {
        match v {
            json::Value::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Implements [`Field`] for a C-like enum whose variants are named in the
/// schema by their `as_str()`.
macro_rules! named_field {
    ($ty:ident, $expected:literal: $($variant:ident),+) => {
        impl Field for $ty {
            const EXPECTED: &'static str = $expected;
            fn to_json(&self) -> json::Value {
                self.as_str().into()
            }
            fn from_json(v: &json::Value) -> Option<Self> {
                let name = v.as_str()?;
                [$($ty::$variant),+].into_iter().find(|x| x.as_str() == name)
            }
        }
    };
}

named_field!(JobPhase, "a job phase": Setup, Map, Shuffle, Reduce);
named_field!(TaskPhase, "a task phase": Map, Reduce);
named_field!(AttemptKind, "an attempt kind": Regular, Retry, Speculative);
named_field!(AttemptOutcome, "an attempt outcome": Succeeded, Failed, Killed);
named_field!(FailureKind, "a failure kind": Panic, Injected, NodeLost);

/// Reads field `key` of a parsed JSONL line.
fn parse_field<T: Field>(line: &json::Value, key: &str) -> Result<T, TraceError> {
    let v = line
        .get(key)
        .ok_or_else(|| TraceError(format!("missing field {key:?}")))?;
    T::from_json(v).ok_or_else(|| TraceError(format!("field {key:?} is not {}", T::EXPECTED)))
}

/// Declares the event schema: each kind states its variant, its `ev` tag
/// and its typed fields (in JSONL order) once, and the
/// [`TraceEventKind`] enum, its tag, its ordered field list and its parser
/// are all derived from that.
macro_rules! trace_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal $({$(
            $(#[$fmeta:meta])*
            $field:ident: $ty:ty
        ),* $(,)?})?
    ),* $(,)?) => {
        /// What a [`TraceEvent`] records.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEventKind {$(
            $(#[$vmeta])*
            $variant $({$(
                $(#[$fmeta])*
                $field: $ty,
            )*})?,
        )*}

        impl TraceEventKind {
            /// The event type tag: the `ev` field of the JSONL schema.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(TraceEventKind::$variant $({ $($field: _),* })? => $tag,)*
                }
            }

            /// The kind's fields as `(name, value)` pairs in schema order.
            fn fields(&self) -> Vec<(&'static str, json::Value)> {
                match self {$(
                    TraceEventKind::$variant $({ $($field),* })? => {
                        vec![$($((stringify!($field), $field.to_json())),*)?]
                    }
                )*}
            }

            /// Rebuilds the kind tagged `tag` from a parsed JSONL line.
            fn from_fields(tag: &str, line: &json::Value) -> Result<Self, TraceError> {
                Ok(match tag {
                    $($tag => TraceEventKind::$variant $({$(
                        $field: parse_field(line, stringify!($field))?,
                    )*})?,)*
                    other => return Err(TraceError(format!("unknown event type {other:?}"))),
                })
            }
        }
    };
}

trace_events! {
    /// A job's simulated timeline begins (`time` is its start).
    JobBegin = "job_begin" {
        /// Job name. Every event up to the matching `job_end` belongs to
        /// this job.
        job: String,
        /// Number of map tasks (= input splits).
        maps: usize,
        /// Number of reduce tasks (= reduce partitions).
        reducers: usize,
    },
    /// A job's simulated timeline ends (`time` is its end).
    JobEnd = "job_end" {
        /// The job's end-to-end simulated seconds. Carried explicitly so
        /// consumers never reconstruct the duration from `end − begin`
        /// subtraction (which could drift in the last float bit).
        sim_secs: f64,
    },
    /// A job failed with a typed error before producing a timeline.
    JobAborted = "job_aborted" {
        /// Job name.
        job: String,
        /// The rendered [`crate::RuntimeError`].
        reason: String,
    },
    /// A phase span opens at `time`.
    PhaseBegin = "phase_begin" {
        /// Which phase.
        phase: JobPhase,
        /// Simulated slots available to the phase (0 for the slot-less
        /// setup and shuffle phases).
        slots: usize,
    },
    /// A phase span closes at `time`.
    PhaseEnd = "phase_end" {
        /// Which phase.
        phase: JobPhase,
        /// The phase's simulated makespan in seconds.
        sim_secs: f64,
    },
    /// One task attempt as placed on the slot schedule; `time` is its
    /// simulated start.
    Attempt = "attempt" {
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
        /// Node hosting the slot (0 on single-node topologies).
        node: usize,
        /// Simulated end time (absolute, same timebase as `time`).
        end: f64,
        /// Why it crashed, when `outcome` is failed.
        failure: Option<FailureKind>,
    },
    /// A scheduling wave opens: `started` first attempts were admitted
    /// together at `time`.
    Wave = "wave" {
        /// Map or reduce.
        phase: TaskPhase,
        /// 0-based wave index.
        wave: usize,
        /// Number of first attempts launched in this wave.
        started: usize,
    },
    /// Wire-encoded bytes fetched by one reduce partition (emitted at the
    /// shuffle span's start).
    ShufflePartition = "shuffle_partition" {
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
    Spill = "spill" {
        /// Map task index.
        task: usize,
        /// 0-based spill sequence number within the task.
        spill: usize,
        /// Non-empty partition runs written by this spill pass.
        runs: u64,
        /// Wire-encoded payload bytes written by this spill pass.
        bytes: u64,
    },
    /// An intermediate merge pass, as priced: a reducer whose partition
    /// arrived as more runs than `io_sort_factor` is charged for merging up
    /// to that many runs into one new run (the reducer itself merges every
    /// run in one pass). Emitted only when the ledger has passes (fan-in
    /// below run count); the final streaming merge is not an event. `time` is the owning attempt's simulated start.
    MergePass = "merge_pass" {
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
    TaskAborted = "task_aborted" {
        /// Name of the job the task belongs to (the event is emitted
        /// outside any job block, so it names its job itself).
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
    FaultInjected = "fault_injected" {
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
    NodeDown = "node_down" {
        /// Node index that went down.
        node: usize,
        /// Whether the node's slots are gone for the rest of the job
        /// (`true`) or the node restarts with its local state wiped
        /// (`false`).
        permanent: bool,
    },
    /// A reducer exhausted its fetch retries against one map task's lost
    /// or corrupt output; `time` is the reducer attempt's simulated start.
    FetchFailed = "fetch_failed" {
        /// Reduce partition whose fetch failed.
        partition: usize,
        /// Map task whose output could not be fetched.
        map_task: usize,
        /// Retries spent (the configured cap) before giving up.
        retries: u64,
        /// How many of the map task's runs for this partition failed their
        /// checksum (0 when the output was lost with its node).
        corrupt: u64,
    },
    /// A completed map task was re-executed on a surviving node because
    /// its output was lost or corrupt; its regenerated runs substitute
    /// bit-identically into every reducer's merge.
    MapReexecuted = "map_reexecuted" {
        /// Map task index that re-ran.
        task: usize,
        /// Surviving node the re-execution landed on.
        node: usize,
    },
    /// A node crossed the failure threshold and stopped receiving new
    /// attempts for the rest of the phase (Hadoop node blacklisting).
    NodeBlacklisted = "node_blacklisted" {
        /// Blacklisted node index.
        node: usize,
        /// The configured failure threshold it crossed.
        failures: usize,
    },
    /// A result was atomically swapped into a versioned store as its next
    /// version — the serving layer records one per tick it serves; `time`
    /// is the simulated instant the snapshot became servable.
    SnapshotPublished = "snapshot_published" {
        /// The store's label.
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

impl TraceEvent {
    /// Serializes the event as one line of JSONL.
    ///
    /// The schema is stable: every line carries `seq` (integer), `t`
    /// (simulated seconds, float) and `ev` (the event type tag,
    /// [`TraceEventKind::tag`]), followed by the type's fields in their
    /// declared order. Optional fields are encoded as `null`, never
    /// omitted. [`TraceEvent::from_jsonl`] inverts this exactly.
    pub fn to_jsonl(&self) -> String {
        let mut fields = vec![
            ("seq", self.seq.into()),
            ("t", self.time.into()),
            ("ev", self.kind.tag().into()),
        ];
        fields.extend(self.kind.fields());
        json::write_object(&fields)
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_jsonl`].
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, TraceError> {
        let v = json::parse(line).map_err(|e| TraceError(format!("bad JSON: {e}")))?;
        let ev: String = parse_field(&v, "ev")?;
        Ok(TraceEvent {
            seq: parse_field(&v, "seq")?,
            time: parse_field(&v, "t")?,
            kind: TraceEventKind::from_fields(&ev, &v)?,
        })
    }
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

    /// Drops all recorded events, and the memory that held them, and resets
    /// the clock and sequence counter (e.g. between benchmark repetitions).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace lock");
        inner.events = Vec::new();
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

/// The shuffle phase span lives on the shuffle track, the others on the
/// driver's.
fn phase_tid(phase: JobPhase) -> u64 {
    match phase {
        JobPhase::Shuffle => TID_SHUFFLE,
        _ => TID_DRIVER,
    }
}

/// How [`chrome_trace`] draws one event.
enum ChromeShape {
    /// Opens a span; the `Close` with the same name and category draws it.
    Open,
    /// Closes the innermost open span of the same name and category. The
    /// span lasts the simulated seconds given.
    Close(f64),
    /// A whole span, from the event's timestamp to the simulated end time
    /// given.
    Span(f64),
    /// An instant with the given scope (`t`hread, `p`rocess or `g`lobal).
    Instant(&'static str),
    /// One sample of a counter series.
    Counter,
}

/// Where and how [`chrome_trace`] draws one event: everything about its
/// Chrome form that is a choice and not a field (`args` is the field
/// list itself).
struct ChromeMark {
    tid: u64,
    shape: ChromeShape,
    cat: String,
    name: String,
}

/// The per-kind drawing table of [`chrome_trace`]. `job` names the job
/// whose block the event sits in (its `job_begin`'s name).
fn chrome_mark(kind: &TraceEventKind, job: &str) -> ChromeMark {
    use ChromeShape::{Close, Counter, Instant, Open, Span};
    use TraceEventKind as K;
    let (tid, shape, cat, name) = match kind {
        K::JobBegin { job, .. } => (TID_DRIVER, Open, "job", job.clone()),
        K::JobEnd { sim_secs } => (TID_DRIVER, Close(*sim_secs), "job", job.to_string()),
        K::JobAborted { job, .. } => {
            let name = format!("aborted: {job}");
            (TID_DRIVER, Instant("p"), "fault", name)
        }
        K::PhaseBegin { phase, .. } => {
            let name = format!("{job} {phase}");
            (phase_tid(*phase), Open, "phase", name)
        }
        K::PhaseEnd { phase, sim_secs } => {
            let name = format!("{job} {phase}");
            (phase_tid(*phase), Close(*sim_secs), "phase", name)
        }
        K::Attempt {
            phase,
            task,
            attempt,
            kind,
            outcome,
            slot,
            end,
            ..
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
            return ChromeMark {
                tid: slot_tid(*phase, *slot),
                shape: Span(*end),
                cat: format!("task,{},{}", kind.as_str(), outcome.as_str()),
                name: format!("{short}{task} a{attempt}{suffix}"),
            };
        }
        K::Wave {
            phase,
            wave,
            started,
        } => {
            let name = format!("{phase} wave {wave} (+{started})");
            (TID_DRIVER, Instant("p"), "wave", name)
        }
        K::ShufflePartition { partition, .. } => {
            let name = format!("shuffle p{partition}");
            (TID_SHUFFLE, Counter, "shuffle", name)
        }
        K::Spill { task, spill, .. } => {
            let name = format!("spill m{task} s{spill}");
            (TID_DRIVER, Instant("p"), "spill", name)
        }
        K::MergePass {
            partition, pass, ..
        } => {
            let name = format!("merge p{partition} pass{pass}");
            (TID_DRIVER, Instant("p"), "merge", name)
        }
        K::TaskAborted { phase, task, .. } => {
            let name = format!("task aborted {phase}{task}");
            (TID_DRIVER, Instant("p"), "fault", name)
        }
        K::FaultInjected {
            phase,
            task,
            attempt,
        } => {
            let name = format!("fault {phase}{task} a{attempt}");
            (TID_DRIVER, Instant("p"), "fault", name)
        }
        K::NodeDown { node, permanent } => {
            let suffix = if *permanent { " (permanent)" } else { "" };
            let name = format!("node {node} down{suffix}");
            (TID_DRIVER, Instant("g"), "fault", name)
        }
        K::FetchFailed {
            partition,
            map_task,
            ..
        } => {
            let name = format!("fetch failed p{partition} ← m{map_task}");
            (TID_SHUFFLE, Instant("p"), "fault", name)
        }
        K::MapReexecuted { task, node } => {
            let name = format!("re-exec m{task} on n{node}");
            (TID_DRIVER, Instant("p"), "recovery", name)
        }
        K::NodeBlacklisted { node, .. } => {
            let name = format!("node {node} blacklisted");
            (TID_DRIVER, Instant("p"), "fault", name)
        }
        K::SnapshotPublished { label, version } => {
            let name = format!("publish {label} v{version}");
            (TID_PIPELINE, Instant("p"), "snapshot", name)
        }
    };
    ChromeMark {
        tid,
        shape,
        cat: cat.to_string(),
        name,
    }
}

/// One Chrome metadata (`ph: "M"`) event naming a process or thread.
fn chrome_meta(tid: u64, what: &str, name: &str) -> String {
    json::write_object(&[
        ("ph", "M".into()),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
        ("name", what.into()),
        ("args", json::object([("name", name.into())])),
    ])
}

/// The metadata header of [`chrome_trace`]: the process, the three fixed
/// tracks, and one named thread per simulated slot that ran an attempt.
fn chrome_header(events: &[TraceEvent]) -> Vec<String> {
    let mut lines = vec![
        chrome_meta(0, "process_name", "dwmaxerr simulated cluster"),
        chrome_meta(TID_DRIVER, "thread_name", "driver"),
        chrome_meta(TID_SHUFFLE, "thread_name", "shuffle"),
        chrome_meta(TID_PIPELINE, "thread_name", "pipeline"),
    ];
    let mut named_slots: Vec<u64> = Vec::new();
    for e in events {
        if let TraceEventKind::Attempt { phase, slot, .. } = &e.kind {
            let tid = slot_tid(*phase, *slot);
            if !named_slots.contains(&tid) {
                named_slots.push(tid);
                lines.push(chrome_meta(
                    tid,
                    "thread_name",
                    &format!("{phase} slot {slot}"),
                ));
            }
        }
    }
    lines
}

/// Exports events in the Chrome trace-event JSON format, loadable in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Layout: one process (`pid` 1) with named threads — `driver` carries
/// job and phase spans plus wave/fault instants, `shuffle` carries the
/// shuffle span and per-partition byte counters, `pipeline` carries the
/// phase and snapshot markers, and every simulated map/reduce slot is its
/// own thread carrying that slot's attempt spans. Timestamps are simulated
/// microseconds; every element's `args` is the event's full JSONL field
/// list (for a begin/end pair, the end event's).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut lines = chrome_header(events);
    // Open spans awaiting their end event: (category, name, begin time).
    let mut open: Vec<(String, String, f64)> = Vec::new();
    // The job whose block the events belong to.
    let mut job = "";
    for e in events {
        if let TraceEventKind::JobBegin { job: name, .. } = &e.kind {
            job = name;
        }
        let mark = chrome_mark(&e.kind, job);
        // (ph, begin, duration, instant scope) of the element to draw.
        let (ph, begin, dur, scope) = match mark.shape {
            ChromeShape::Open => {
                open.push((mark.cat, mark.name, e.time));
                continue;
            }
            ChromeShape::Close(secs) => {
                let same = |(c, n, _): &(String, String, f64)| *c == mark.cat && *n == mark.name;
                let Some(pos) = open.iter().rposition(same) else {
                    continue;
                };
                let (_, _, begin) = open.remove(pos);
                ("X", begin, Some(secs), None)
            }
            ChromeShape::Span(end) => ("X", e.time, Some(end - e.time), None),
            ChromeShape::Instant(scope) => ("i", e.time, None, Some(scope)),
            ChromeShape::Counter => ("C", e.time, None, None),
        };
        let mut fields = vec![
            ("ph", ph.into()),
            ("pid", 1u64.into()),
            ("tid", mark.tid.into()),
            ("ts", (begin * 1e6).into()),
        ];
        fields.extend(dur.map(|d| ("dur", (d * 1e6).into())));
        fields.extend(scope.map(|s| ("s", s.into())));
        fields.push(("name", mark.name.into()));
        fields.push(("cat", mark.cat.into()));
        fields.push(("args", json::object(e.kind.fields())));
        lines.push(json::write_object(&fields));
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
/// * every `job_begin` is closed by a `job_end` before the next job
///   begins: a job's events are one contiguous block, they belong to the
///   job its `job_begin` names, and no job-scoped kind appears outside a
///   block,
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
///   `task_aborted` names a job whose block came before it — an aborted
///   task means the job never produced a timeline,
/// * `snapshot_published` markers appear only between jobs (they are
///   driver instants; one inside a job's contiguous block is an error),
///   and each progressive label's snapshot versions count `1, 2, 3, …` in
///   trace order.
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

    // Jobs are contiguous: scan for job_begin, consume until its job_end.
    let mut i = 0usize;
    // Last snapshot version seen per progressive label.
    let mut snapshots: Vec<(&str, u64)> = Vec::new();
    while i < events.len() {
        match &events[i].kind {
            TraceEventKind::JobBegin { job, .. } => {
                i = validate_job(events, i, job)?;
                continue;
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
            }
            TraceEventKind::TaskAborted { job, .. } => {
                let aborted = events[i + 1..].iter().any(|later| {
                    matches!(&later.kind, TraceEventKind::JobAborted { job: j, .. } if j == job)
                });
                if !aborted {
                    return err(format!(
                        "task_aborted({job}) without a following job_aborted"
                    ));
                }
                // Every block before this event is closed (validate_job
                // consumed it), so an earlier job_begin of this job means
                // its end span came first.
                let ended_before = events[..i].iter().any(|earlier| {
                    matches!(&earlier.kind, TraceEventKind::JobBegin { job: j, .. } if j == job)
                });
                if ended_before {
                    return err(format!("task_aborted({job}) after its job's end span"));
                }
            }
            TraceEventKind::JobAborted { .. } => {}
            other => return err(format!("{} outside any job block", other.tag())),
        }
        i += 1;
    }
    Ok(())
}

/// The order a job's four phase spans must appear in.
const PHASES: [JobPhase; 4] = [
    JobPhase::Setup,
    JobPhase::Map,
    JobPhase::Shuffle,
    JobPhase::Reduce,
];

/// The checks [`validate_job`] makes once a job's block is complete: its
/// `sim_secs` is the sum of its phases' (`phase_sum`) and no narrower than
/// its begin→end span (`span_secs`), and no two attempt `spans` (task
/// phase, slot, start, end) of one task phase overlap on a slot.
fn validate_job_end(
    job: &str,
    sim_secs: f64,
    span_secs: f64,
    phase_sum: f64,
    spans: &mut [(TaskPhase, usize, f64, f64)],
) -> Result<(), TraceError> {
    let err = |msg: String| Err(TraceError(msg));
    let tol = 1e-9 * sim_secs.abs().max(1.0);
    if (phase_sum - sim_secs).abs() > tol {
        return err(format!(
            "{job}: phase sim_secs sum {phase_sum} != job sim_secs {sim_secs}"
        ));
    }
    if span_secs - sim_secs > 1e-6 * sim_secs.max(1.0) {
        return err(format!(
            "{job}: job span {span_secs} wider than sim_secs {sim_secs}"
        ));
    }
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
                "{job}: overlapping attempts on {p1} slot {s1} ({start2} < {end1})"
            ));
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
    let mut next_phase = 0usize; // index into PHASES of the next expected begin
    let mut open_phase: Option<(JobPhase, f64)> = None;
    let mut phase_sum = 0.0f64;
    // Spill events recorded in this job's map phase; each one is an extra
    // spill pass, loosening the per-partition fan-in bound accordingly.
    let mut extra_spills = 0u64;
    // (slot, start, end) per open task phase, for overlap checking.
    let mut spans: Vec<(TaskPhase, usize, f64, f64)> = Vec::new();
    for (i, e) in events.iter().enumerate().skip(begin + 1) {
        match &e.kind {
            TraceEventKind::JobEnd { sim_secs } => {
                if let Some((p, _)) = open_phase {
                    return err(format!("{job}: job_end with open phase {p}"));
                }
                validate_job_end(job, *sim_secs, e.time - t_begin, phase_sum, &mut spans)?;
                return Ok(i + 1);
            }
            TraceEventKind::PhaseBegin { phase, .. } => {
                if open_phase.is_some() {
                    return err(format!("{job}: nested phase_begin({phase})"));
                }
                if next_phase >= PHASES.len() || PHASES[next_phase] != *phase {
                    return err(format!("{job}: phase {phase} out of order"));
                }
                open_phase = Some((*phase, e.time));
                next_phase += 1;
            }
            TraceEventKind::PhaseEnd { phase, sim_secs } => match open_phase.take() {
                Some((open, _)) if open == *phase => phase_sum += sim_secs,
                Some((open, _)) => return err(format!("{job}: phase_end({phase}) closes {open}")),
                None => return err(format!("{job}: phase_end({phase}) without begin")),
            },
            TraceEventKind::Attempt {
                phase,
                slot,
                end,
                outcome,
                failure,
                ..
            } => {
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
            TraceEventKind::ShufflePartition { runs, .. } => {
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
            TraceEventKind::Spill { task, .. } => {
                if !matches!(open_phase, Some((JobPhase::Map, _))) {
                    return err(format!("{job}: spill event outside the map phase"));
                }
                if *task as u64 >= job_maps {
                    return err(format!("{job}: spill names map task {task} of {job_maps}"));
                }
                extra_spills += 1;
            }
            TraceEventKind::MergePass { partition, .. } => {
                if !matches!(open_phase, Some((JobPhase::Reduce, _))) {
                    return err(format!("{job}: merge_pass event outside the reduce phase"));
                }
                if *partition as u64 >= job_reducers {
                    return err(format!(
                        "{job}: merge_pass names partition {partition} of {job_reducers}"
                    ));
                }
            }
            TraceEventKind::Wave { .. }
            | TraceEventKind::FaultInjected { .. }
            | TraceEventKind::NodeDown { .. }
            | TraceEventKind::FetchFailed { .. }
            | TraceEventKind::MapReexecuted { .. }
            | TraceEventKind::NodeBlacklisted { .. } => {}
            other => {
                return err(format!(
                    "{job}: unexpected {} inside job block",
                    other.tag()
                ));
            }
        }
    }
    err(format!("job_begin({job}) never closed"))
}

pub mod summary;

#[cfg(test)]
mod tests {
    use super::*;
    use TraceEventKind as K;

    fn ev(seq: u64, time: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { seq, time, kind }
    }

    /// One sample of every event kind, in an order [`chrome_trace`] can
    /// pair: the job and phase spans each open before they close.
    /// Event `i` has `seq` `i` and time `i / 16`.
    fn all_kinds_samples() -> Vec<TraceEvent> {
        let job = || "j".to_string();
        let kinds = vec![
            K::JobBegin {
                job: "a \"quoted\"\nname".into(),
                maps: 3,
                reducers: 2,
            },
            K::PhaseBegin {
                phase: JobPhase::Map,
                slots: 4,
            },
            K::Attempt {
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
            K::Wave {
                phase: TaskPhase::Reduce,
                wave: 1,
                started: 4,
            },
            K::ShufflePartition {
                partition: 0,
                bytes: 123_456,
                runs: 3,
            },
            K::FaultInjected {
                phase: TaskPhase::Map,
                task: 0,
                attempt: 1,
            },
            K::PhaseEnd {
                phase: JobPhase::Map,
                sim_secs: 0.575,
            },
            K::JobEnd { sim_secs: 0.8 },
            K::JobAborted {
                job: job(),
                reason: "task failed: \\ backslash".into(),
            },
            K::Spill {
                task: 2,
                spill: 1,
                runs: 3,
                bytes: 4096,
            },
            K::MergePass {
                partition: 1,
                pass: 0,
                fan_in: 3,
                bytes: 8192,
            },
            K::TaskAborted {
                job: job(),
                phase: TaskPhase::Map,
                task: 0,
                reason: "needs 2000 bytes, budget 1000".into(),
            },
            K::NodeDown {
                node: 3,
                permanent: true,
            },
            K::FetchFailed {
                partition: 1,
                map_task: 2,
                retries: 3,
                corrupt: 1,
            },
            K::MapReexecuted { task: 2, node: 0 },
            K::NodeBlacklisted {
                node: 5,
                failures: 3,
            },
            K::SnapshotPublished {
                label: "synopsis \"v2\"".into(),
                version: 3,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| ev(i as u64, i as f64 / 16.0, kind))
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let samples = all_kinds_samples();
        let mut tags: Vec<&str> = samples.iter().map(|e| e.kind.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 17, "one sample per event kind");
        for e in &samples {
            let line = e.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).expect(&line);
            assert_eq!(&back, e, "line: {line}");
        }
        let doc = to_jsonl(&samples);
        assert_eq!(from_jsonl(&doc).unwrap(), samples);
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        // One case per field type.
        let cases = [
            (
                // Strings: quote, backslash, newline and a control char;
                // a float time that needs all 17 digits.
                ev(
                    7,
                    0.1 + 0.2,
                    K::JobAborted {
                        job: "a\"b\\c\nd\u{1}e\tf".into(),
                        reason: "µ ←".into(),
                    },
                ),
                r#"{"seq":7,"t":0.30000000000000004,"ev":"job_aborted","job":"a\"b\\c\nd\u0001e\tf","reason":"µ ←"}"#,
            ),
            (
                // usize, named enums, a float field, `failure: null`.
                ev(
                    2,
                    0.25,
                    K::Attempt {
                        phase: TaskPhase::Reduce,
                        task: 1,
                        attempt: 2,
                        kind: AttemptKind::Speculative,
                        outcome: AttemptOutcome::Killed,
                        slot: 3,
                        node: 1,
                        end: 1.0 / 3.0,
                        failure: None,
                    },
                ),
                r#"{"seq":2,"t":0.25,"ev":"attempt","phase":"reduce","task":1,"attempt":2,"kind":"speculative","outcome":"killed","slot":3,"node":1,"end":0.3333333333333333,"failure":null}"#,
            ),
            (
                // A present optional field; whole-number floats print bare.
                ev(
                    3,
                    0.0,
                    K::Attempt {
                        phase: TaskPhase::Map,
                        task: 0,
                        attempt: 1,
                        kind: AttemptKind::Regular,
                        outcome: AttemptOutcome::Failed,
                        slot: 0,
                        node: 0,
                        end: 2.0,
                        failure: Some(FailureKind::NodeLost),
                    },
                ),
                r#"{"seq":3,"t":0,"ev":"attempt","phase":"map","task":0,"attempt":1,"kind":"regular","outcome":"failed","slot":0,"node":0,"end":2,"failure":"node_lost"}"#,
            ),
            (
                // u64 fields.
                ev(
                    4,
                    0.5,
                    K::ShufflePartition {
                        partition: 0,
                        bytes: 123_456_789_012,
                        runs: 3,
                    },
                ),
                r#"{"seq":4,"t":0.5,"ev":"shuffle_partition","partition":0,"bytes":123456789012,"runs":3}"#,
            ),
            (
                // A boolean.
                ev(
                    15,
                    0.98,
                    K::NodeDown {
                        node: 3,
                        permanent: true,
                    },
                ),
                r#"{"seq":15,"t":0.98,"ev":"node_down","node":3,"permanent":true}"#,
            ),
            (
                // A job phase.
                ev(
                    6,
                    1e-7,
                    K::PhaseEnd {
                        phase: JobPhase::Shuffle,
                        sim_secs: 1.5e-9,
                    },
                ),
                r#"{"seq":6,"t":0.0000001,"ev":"phase_end","phase":"shuffle","sim_secs":0.0000000015}"#,
            ),
            (
                // A driver instant.
                ev(
                    19,
                    1.0,
                    K::SnapshotPublished {
                        label: "synopsis".into(),
                        version: 2,
                    },
                ),
                r#"{"seq":19,"t":1,"ev":"snapshot_published","label":"synopsis","version":2}"#,
            ),
        ];
        for (event, line) in cases {
            assert_eq!(event.to_jsonl(), line);
            assert_eq!(TraceEvent::from_jsonl(line).unwrap(), event);
        }
    }

    #[test]
    fn float_times_round_trip_exactly() {
        let t = 0.1 + 0.2; // 0.30000000000000004
        let e = ev(
            0,
            t,
            K::JobEnd {
                sim_secs: 1.0 / 3.0,
            },
        );
        let back = TraceEvent::from_jsonl(&e.to_jsonl()).unwrap();
        assert_eq!(back.time.to_bits(), t.to_bits());
        match back.kind {
            K::JobEnd { sim_secs } => {
                assert_eq!(sim_secs.to_bits(), (1.0f64 / 3.0).to_bits());
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let parse = |line: &str| TraceEvent::from_jsonl(line).map_err(|e| e.0);
        assert!(parse("not json").is_err());
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"seq":0,"t":0,"ev":"nope"}"#).is_err());
        // Missing a field: every field is required, optional ones included
        // (they are written as null).
        for (line, field) in [
            (r#"{"seq":0,"t":0,"ev":"job_begin","job":"x"}"#, "maps"),
            (
                r#"{"seq":4,"t":0.5,"ev":"shuffle_partition","partition":0,"bytes":18}"#,
                "runs",
            ),
            (
                r#"{"seq":2,"t":0.25,"ev":"attempt","phase":"map","task":1,"attempt":1,"kind":"regular","outcome":"ok","slot":3,"end":0.375,"failure":null}"#,
                "node",
            ),
            (
                r#"{"seq":2,"t":0.25,"ev":"attempt","phase":"map","task":1,"attempt":1,"kind":"regular","outcome":"ok","slot":3,"node":0,"end":0.375}"#,
                "failure",
            ),
        ] {
            assert_eq!(parse(line), Err(format!("missing field {field:?}")));
        }
        // A field of the wrong type.
        let msg = parse(r#"{"seq":0,"t":0,"ev":"node_down","node":"3","permanent":true}"#);
        assert_eq!(
            msg,
            Err(r#"field "node" is not an unsigned integer"#.into())
        );
    }

    /// Numbers `(time, kind)` pairs as events `0, 1, …`.
    fn numbered(kinds: Vec<(f64, TraceEventKind)>) -> Vec<TraceEvent> {
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, (time, kind))| ev(i as u64, time, kind))
            .collect()
    }

    /// A successful map attempt of task 0 on `slot` from `start` to `end`.
    fn attempt(start: f64, end: f64, slot: usize) -> (f64, TraceEventKind) {
        let kind = K::Attempt {
            phase: TaskPhase::Map,
            task: 0,
            attempt: 1,
            kind: AttemptKind::Regular,
            outcome: AttemptOutcome::Succeeded,
            slot,
            node: 0,
            end,
            failure: None,
        };
        (start, kind)
    }

    /// A well-formed job `"j"` of two map tasks and two reducers lasting
    /// 2 s, all of it map time: `map`, `shuffle` and `reduce` are the
    /// events of its three task-bearing phases.
    fn job_block(
        map: Vec<(f64, TraceEventKind)>,
        shuffle: Vec<(f64, TraceEventKind)>,
        reduce: Vec<(f64, TraceEventKind)>,
    ) -> Vec<(f64, TraceEventKind)> {
        let begin = |phase, slots| K::PhaseBegin { phase, slots };
        let end = |phase, sim_secs| K::PhaseEnd { phase, sim_secs };
        let mut block = vec![
            (
                0.0,
                K::JobBegin {
                    job: "j".into(),
                    maps: 2,
                    reducers: 2,
                },
            ),
            (0.0, begin(JobPhase::Setup, 0)),
            (0.0, end(JobPhase::Setup, 0.0)),
            (0.0, begin(JobPhase::Map, 2)),
        ];
        block.extend(map);
        block.push((2.0, end(JobPhase::Map, 2.0)));
        block.push((2.0, begin(JobPhase::Shuffle, 0)));
        block.extend(shuffle);
        block.push((2.0, end(JobPhase::Shuffle, 0.0)));
        block.push((2.0, begin(JobPhase::Reduce, 2)));
        block.extend(reduce);
        block.push((2.0, end(JobPhase::Reduce, 0.0)));
        block.push((2.0, K::JobEnd { sim_secs: 2.0 }));
        block
    }

    /// `validate`'s verdict on `kinds`: `Ok` or the error message.
    fn verdict(kinds: Vec<(f64, TraceEventKind)>) -> Result<(), String> {
        validate(&numbered(kinds)).map_err(|e| e.0)
    }

    /// Asserts `validate` rejects `kinds` with a message containing `what`.
    fn rejects(kinds: Vec<(f64, TraceEventKind)>, what: &str) {
        match verdict(kinds) {
            Ok(()) => panic!("accepted; expected {what:?}"),
            Err(msg) => assert!(msg.contains(what), "{msg:?} lacks {what:?}"),
        }
    }

    #[test]
    fn validate_accepts_the_well_formed_job() {
        let map = vec![attempt(0.0, 1.0, 0), attempt(0.5, 2.0, 1)];
        verdict(job_block(map, vec![], vec![])).unwrap();
    }

    #[test]
    fn validate_rejects_misordered_or_unpaired_phases() {
        let ok = job_block(vec![], vec![], vec![]);
        let without = |at: usize| {
            let mut k = ok.clone();
            k.remove(at);
            k
        };
        // Indices in `ok`: 1/2 setup begin/end, 3/4 map, 5/6 shuffle,
        // 7/8 reduce, 9 job_end.
        rejects(without(1), "without begin");
        rejects(without(4), "nested phase_begin");
        rejects(without(8), "job_end with open phase");
        rejects(without(9), "never closed");
        let mut swapped = ok.clone();
        swapped.swap(1, 3);
        swapped.swap(2, 4);
        rejects(swapped, "out of order");
        let mut crossed = ok.clone();
        crossed[4].1 = K::PhaseEnd {
            phase: JobPhase::Reduce,
            sim_secs: 2.0,
        };
        rejects(crossed, "closes map");
        let mut long = ok.clone();
        long[9].1 = K::JobEnd { sim_secs: 3.0 };
        rejects(long, "phase sim_secs sum");
    }

    #[test]
    fn validate_rejects_slot_overlap() {
        // Disjoint slots: fine.
        let ok = vec![attempt(0.0, 1.0, 0), attempt(0.5, 1.5, 1)];
        verdict(job_block(ok, vec![], vec![])).unwrap();
        // Same slot, overlapping: rejected.
        let bad = vec![attempt(0.0, 1.0, 0), attempt(0.5, 1.5, 0)];
        rejects(job_block(bad, vec![], vec![]), "overlapping");
    }

    #[test]
    fn validate_bounds_fan_in_by_maps_plus_spills() {
        let partition = |runs| {
            let kind = K::ShufflePartition {
                partition: 0,
                bytes: 18,
                runs,
            };
            vec![(2.0, kind)]
        };
        let spill = |task| {
            let kind = K::Spill {
                task,
                spill: 1,
                runs: 1,
                bytes: 8,
            };
            (1.0, kind)
        };
        verdict(job_block(vec![], partition(2), vec![])).unwrap();
        rejects(job_block(vec![], partition(3), vec![]), "fan-in 3");
        // One recorded extra spill pass allows one more run.
        verdict(job_block(vec![spill(1)], partition(3), vec![])).unwrap();
    }

    #[test]
    fn validate_places_spills_in_map_and_merges_in_reduce() {
        let spill = |task| {
            let kind = K::Spill {
                task,
                spill: 1,
                runs: 1,
                bytes: 8,
            };
            vec![(1.0, kind)]
        };
        let merge = |partition| {
            let kind = K::MergePass {
                partition,
                pass: 0,
                fan_in: 2,
                bytes: 8,
            };
            vec![(2.0, kind)]
        };
        verdict(job_block(spill(1), vec![], merge(1))).unwrap();
        rejects(job_block(vec![], vec![], spill(0)), "spill event outside");
        rejects(job_block(spill(2), vec![], vec![]), "map task 2 of 2");
        rejects(
            job_block(merge(0), vec![], vec![]),
            "merge_pass event outside",
        );
        rejects(job_block(vec![], vec![], merge(2)), "partition 2 of 2");
    }

    #[test]
    fn job_scoped_kinds_outside_a_job_block_are_rejected() {
        let stray = vec![attempt(0.0, 1.0, 0)];
        rejects(stray, "attempt outside any job block");
        let mut after = job_block(vec![], vec![], vec![]);
        after.push((2.0, K::JobEnd { sim_secs: 0.0 }));
        rejects(after, "job_end outside any job block");
    }

    #[test]
    fn snapshot_versions_must_count_up_per_label() {
        let publish = |label: &str, version| {
            let kind = K::SnapshotPublished {
                label: label.into(),
                version,
            };
            (0.0, kind)
        };
        // Independent labels each count from 1; interleaving is fine.
        let good = vec![
            publish("syn", 1),
            publish("hist", 1),
            publish("syn", 2),
            publish("hist", 2),
        ];
        verdict(good).unwrap();
        // A skipped version is rejected.
        rejects(vec![publish("syn", 1), publish("syn", 3)], "expected 2");
        // A label's first publish must be version 1.
        rejects(vec![publish("syn", 2)], "expected 1");
    }

    #[test]
    fn snapshot_markers_inside_a_job_block_are_rejected() {
        let marker = (
            1.0,
            K::SnapshotPublished {
                label: "syn".into(),
                version: 1,
            },
        );
        rejects(job_block(vec![marker], vec![], vec![]), "inside job block");
    }

    /// Kinds the schema no longer has are refused by name, not skipped
    /// and not a panic.
    #[test]
    fn retired_kinds_are_refused_by_tag() {
        for (tag, line) in [
            (
                "stage_begin",
                r#"{"seq":0,"t":0,"ev":"stage_begin","stage":"s"}"#,
            ),
            (
                "stage_end",
                r#"{"seq":1,"t":0,"ev":"stage_end","stage":"s"}"#,
            ),
            ("glue", r#"{"seq":2,"t":0,"ev":"glue"}"#),
            (
                "phase_started",
                r#"{"seq":3,"t":0,"ev":"phase_started","phase":"foreground"}"#,
            ),
        ] {
            let err = from_jsonl(line).expect_err(tag);
            assert!(err.0.contains(&format!("{tag:?}")), "{tag}: {err}");
            assert!(err.0.starts_with("line 1: unknown event type"), "{err}");
        }
    }

    #[test]
    fn task_aborted_needs_a_later_job_aborted_and_no_earlier_run() {
        let task_aborted = (
            2.0,
            K::TaskAborted {
                job: "j".into(),
                phase: TaskPhase::Map,
                task: 0,
                reason: "late".into(),
            },
        );
        let job_aborted = |job: &str| {
            let kind = K::JobAborted {
                job: job.into(),
                reason: "late".into(),
            };
            (2.0, kind)
        };
        verdict(vec![task_aborted.clone(), job_aborted("j")]).unwrap();
        rejects(
            vec![task_aborted.clone()],
            "without a following job_aborted",
        );
        rejects(
            vec![task_aborted.clone(), job_aborted("k")],
            "without a following job_aborted",
        );
        let mut after_end = job_block(vec![], vec![], vec![]);
        after_end.extend([task_aborted, job_aborted("j")]);
        rejects(after_end, "after its job's end span");
    }

    #[test]
    fn sink_clock_advances_per_job_scope() {
        let sink = TraceSink::new();
        assert_eq!(sink.now(), 0.0);
        sink.job_scope(|tr| {
            assert_eq!(tr.t0(), 0.0);
            tr.emit(
                0.0,
                K::JobBegin {
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

    /// A sink cleared between feeds gives its peak back: nothing of the
    /// event vector it held stays allocated.
    #[test]
    fn cleared_sink_holds_no_event_capacity() {
        let sink = TraceSink::new();
        for _ in 0..10_000 {
            sink.instant(K::SnapshotPublished {
                label: "s".into(),
                version: 1,
            });
        }
        let held = || sink.inner.lock().expect("trace lock").events.capacity();
        assert!(held() >= 10_000);
        sink.clear();
        assert_eq!(held(), 0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_tracks() {
        let doc = chrome_trace(&all_kinds_samples());
        let v = json::parse(&doc).expect("chrome trace parses as JSON");
        let arr = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        let mut count = std::collections::BTreeMap::new();
        for e in arr {
            let ph = e.get("ph").and_then(json::Value::as_str).expect("ph");
            *count.entry(ph).or_insert(0usize) += 1;
            assert_eq!(e.get("pid").and_then(json::Value::as_u64), Some(1));
            assert!(e.get("tid").and_then(json::Value::as_u64).is_some());
            assert!(e.get("name").and_then(json::Value::as_str).is_some());
            let num = |key| e.get(key).and_then(json::Value::as_f64);
            match ph {
                "X" => {
                    for key in ["ts", "dur"] {
                        let v = num(key).unwrap_or_else(|| panic!("span without {key}: {e:?}"));
                        assert!(v.is_finite() && v >= 0.0, "{key} {v}: {e:?}");
                    }
                }
                "i" | "C" => assert!(num("ts").is_some(), "{e:?}"),
                "M" => continue,
                other => panic!("unexpected ph {other:?}"),
            }
            // Every drawn element carries its event's field list.
            assert!(matches!(e.get("args"), Some(json::Value::Obj(_))), "{e:?}");
            assert!(e.get("cat").and_then(json::Value::as_str).is_some());
        }
        // 4 fixed metadata + 1 slot metadata; the job, phase and attempt
        // spans; the shuffle_partition counter; the 11 other kinds as
        // instants.
        let expected = [("C", 1), ("M", 5), ("X", 3), ("i", 11)];
        assert_eq!(count.into_iter().collect::<Vec<_>>(), expected);
        // The map slot 3 thread is named, and a span keeps its end event's
        // fields as args.
        assert!(doc.contains("map slot 3"));
        let named = |cat: &str| {
            arr.iter()
                .find(|e| e.get("cat").and_then(json::Value::as_str) == Some(cat))
                .unwrap()
        };
        let job_span = named("job");
        let job = "a \"quoted\"\nname";
        assert_eq!(
            job_span.get("name").and_then(json::Value::as_str),
            Some(job)
        );
        assert_eq!(job_span.get("ts").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(
            job_span.get("dur").and_then(json::Value::as_f64),
            Some(0.8 * 1e6)
        );
        assert_eq!(
            job_span.get("args").and_then(|a| a.get("sim_secs")),
            Some(&json::Value::Num(0.8))
        );
        // A phase span takes its name from the open job's job_begin.
        let phase_span = named("phase");
        let name = phase_span.get("name").and_then(json::Value::as_str);
        assert_eq!(name, Some(format!("{job} map").as_str()));
    }
}
