//! Markdown table and `BENCH_*.json` reporting for the experiment harness.

use std::fmt::Write as _;

use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::trace::json::{self, Value};
use dwmaxerr_runtime::trace::{summary, TraceEvent};
use dwmaxerr_runtime::{ClusterConfig, TaskPhase};

/// One experiment output table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table/figure id and description, e.g. "Figure 5a — time vs sub-tree size".
    pub title: String,
    /// The paper's qualitative claim this table checks.
    pub paper_claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form observations appended after the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, paper_claim: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            paper_claim: paper_claim.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends an observation note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "*Paper:* {}\n", self.paper_claim);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }
}

/// JSON object describing the cluster/node topology a benchmark ran on.
/// Stamped into every `BENCH_*.json` (next to a `fault_seed` field) so a
/// recorded result can be tied back to the exact simulated cluster that
/// produced it. `threads` (the executor width the run used) and
/// `host_cores` (the machine's physical parallelism) make wall-clock
/// numbers comparable across machines: a speedup table recorded on a
/// 1-core CI runner is expected to be flat, and the stamp says so.
pub fn cluster_stamp(cfg: &ClusterConfig) -> Value {
    json::object([
        ("map_slots", cfg.map_slots.into()),
        ("reduce_slots", cfg.reduce_slots.into()),
        ("nodes", cfg.nodes.into()),
        ("maps_per_node", cfg.maps_per_node().into()),
        ("reduces_per_node", cfg.reduces_per_node().into()),
        ("spill_backend", cfg.spill_backend.as_str().into()),
        ("threads", cfg.threads.into()),
        ("host_cores", host_cores().into()),
    ])
}

/// Serialises one `BENCH_*.json` document: the envelope every benchmark
/// shares (`benchmark`, `smoke`, the [`cluster_stamp`] of `cluster`, and
/// `samples`) around the benchmark's own `header` fields (sweep
/// parameters, and `fault_seed` where the document carries one). One
/// line, keys sorted, newline-terminated.
pub fn bench_document(
    benchmark: &str,
    smoke: bool,
    cluster: &ClusterConfig,
    header: impl IntoIterator<Item = (&'static str, Value)>,
    samples: Vec<Value>,
) -> String {
    let envelope = [
        ("benchmark", benchmark.into()),
        ("smoke", smoke.into()),
        ("cluster", cluster_stamp(cluster)),
        ("samples", Value::Arr(samples)),
    ];
    let mut doc = json::write(&json::object(envelope.into_iter().chain(header)));
    doc.push('\n');
    doc
}

/// Physical core count of the host machine (1 when undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Formats seconds compactly.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Formats an error value.
pub fn err(e: f64) -> String {
    if e >= 100.0 {
        format!("{e:.0}")
    } else {
        format!("{e:.2}")
    }
}

/// Formats byte counts.
pub fn bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Builds a per-stage breakdown table of a traced pipeline.
///
/// One row per pipeline stage — [`summary::per_stage`]'s rows, jobs
/// grouped by name in first-execution order — plus a `total` row folded
/// from the stage rows. Each row's `input` is the declared HDFS input of
/// the ledger's jobs of that name; every other column is the trace's.
pub fn stage_breakdown(
    title: impl Into<String>,
    paper_claim: impl Into<String>,
    metrics: &DriverMetrics,
    events: &[TraceEvent],
) -> Table {
    let mut t = Table::new(
        title,
        paper_claim,
        &[
            "stage",
            "runs",
            "sim time",
            "shuffle",
            "input",
            "failed",
            "retried",
            "wasted slot-s",
        ],
    );
    let (mut runs, mut sim, mut shuffle, mut input) = (0, 0.0, 0, 0);
    let (mut failed, mut retried, mut wasted) = (0, 0, 0.0);
    for r in summary::per_stage(events) {
        let stage_input: u64 = metrics
            .jobs
            .iter()
            .filter(|j| j.name == r.name)
            .map(|j| j.input_bytes)
            .sum();
        let stage_wasted = r.map.wasted_secs + r.reduce.wasted_secs;
        runs += r.runs;
        sim += r.sim_secs;
        shuffle += r.shuffle.bytes;
        input += stage_input;
        failed += r.map.failed + r.reduce.failed;
        retried += r.map.retried + r.reduce.retried;
        wasted += stage_wasted;
        t.row(vec![
            r.name,
            r.runs.to_string(),
            secs(r.sim_secs),
            bytes(r.shuffle.bytes),
            bytes(stage_input),
            (r.map.failed + r.reduce.failed).to_string(),
            (r.map.retried + r.reduce.retried).to_string(),
            secs(stage_wasted),
        ]);
    }
    t.row(vec![
        "total".into(),
        runs.to_string(),
        secs(sim),
        bytes(shuffle),
        bytes(input),
        failed.to_string(),
        retried.to_string(),
        secs(wasted),
    ]);
    t
}

/// Builds a slot-utilisation table from a recorded trace: one row per
/// (stage, task phase), showing how much of the phase's `slots × makespan`
/// capacity was actually busy and how much of the busy time was wasted on
/// failed or killed attempts.
pub fn slot_utilisation_table(title: impl Into<String>, events: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        title,
        "recovery and speculation cost slot capacity, not just makespan",
        &[
            "stage",
            "phase",
            "slots",
            "makespan",
            "busy slot-s",
            "wasted slot-s",
            "attempts",
            "util",
        ],
    );
    for r in summary::per_stage(events) {
        for (phase, used, makespan) in [
            (TaskPhase::Map, &r.map, r.map_secs),
            (TaskPhase::Reduce, &r.reduce, r.reduce_secs),
        ] {
            t.row(vec![
                r.name.clone(),
                phase.as_str().into(),
                used.slots.to_string(),
                secs(makespan),
                secs(used.busy_secs),
                secs(used.wasted_secs),
                used.attempts.to_string(),
                format!("{:.0}%", 100.0 * used.utilisation(makespan)),
            ]);
        }
    }
    t
}

/// Builds a shuffle-structure table from a recorded trace: one row per
/// stage (jobs grouped by name, summed over pipeline rounds) showing the
/// physical shape of its shuffle — reduce partitions fetched, bytes moved,
/// and total sorted-run fan-in the k-way merges consumed. A stage that
/// fetched no partition gets no row.
pub fn shuffle_structure_table(title: impl Into<String>, events: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        title,
        "map tasks spill one sorted run per non-empty partition; reducers k-way merge \
         their fan-in instead of re-sorting",
        &[
            "stage",
            "partitions",
            "shuffle bytes",
            "spill runs",
            "max fan-in",
        ],
    );
    for r in summary::per_stage(events)
        .into_iter()
        .filter(|r| r.shuffle.partitions > 0)
    {
        t.row(vec![
            r.name,
            r.shuffle.partitions.to_string(),
            bytes(r.shuffle.bytes),
            r.shuffle.runs.to_string(),
            r.shuffle.max_fan_in.to_string(),
        ]);
    }
    t
}

/// Builds a critical-path table from a recorded trace: one row per stage
/// decomposing its simulated time into the four serial phase components
/// (phases are barriers, so they sum to the stage total), with the
/// dominant phase and the single longest attempt as the straggler
/// candidate.
pub fn critical_path_table(title: impl Into<String>, events: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        title,
        "per-stage time decomposes into setup + map + shuffle + reduce",
        &[
            "stage",
            "runs",
            "setup",
            "map",
            "shuffle",
            "reduce",
            "total",
            "dominant",
            "longest attempt",
        ],
    );
    for r in summary::per_stage(events) {
        let longest = r.longest.as_ref().map_or_else(
            || "-".to_string(),
            |l| {
                format!(
                    "{}{} a{} ({}, {})",
                    l.phase.as_str(),
                    l.task,
                    l.attempt,
                    l.kind.as_str(),
                    secs(l.secs)
                )
            },
        );
        t.row(vec![
            r.name.clone(),
            r.runs.to_string(),
            secs(r.setup_secs),
            secs(r.map_secs),
            secs(r.shuffle_secs),
            secs(r.reduce_secs),
            secs(r.total_secs()),
            r.dominant_phase().as_str().into(),
            longest,
        ]);
    }
    t
}

/// Prints tables to stdout.
pub fn print_all(tables: &[Table]) {
    for t in tables {
        println!("{}", t.to_markdown());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Figure X", "things go up", &["n", "time"]);
        t.row(vec!["1024".into(), "1.5s".into()]);
        t.row(vec!["2048".into(), "3.1s".into()]);
        t.note("linear");
        let md = t.to_markdown();
        assert!(md.contains("### Figure X"));
        assert!(md.contains("| 1024 | 1.5s |"));
        assert!(md.contains("> linear"));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(0.0123), "12.3ms");
        assert_eq!(secs(2.345), "2.35s");
        assert_eq!(secs(250.0), "250s");
        assert_eq!(err(3.456), "3.46");
        assert_eq!(err(512.3), "512");
        assert_eq!(bytes(100), "100B");
        assert_eq!(bytes(100 * 1024), "100.0KiB");
    }

    #[test]
    fn stage_breakdown_partitions_the_ledger() {
        use dwmaxerr_runtime::metrics::JobMetrics;
        use dwmaxerr_runtime::trace::TraceEventKind;
        let mut d = DriverMetrics::new();
        let mut events = Vec::new();
        let mut emit = |kind| {
            let seq = events.len() as u64;
            events.push(TraceEvent {
                seq,
                time: 0.0,
                kind,
            });
        };
        for (name, sim_secs, shuffle) in [
            ("layer-up", 1.0, 100),
            ("layer-up", 2.0, 200),
            ("extract", 4.0, 50),
        ] {
            d.push(JobMetrics {
                name: name.into(),
                input_bytes: 1024,
                ..JobMetrics::default()
            });
            emit(TraceEventKind::JobBegin {
                job: name.into(),
                maps: 1,
                reducers: 1,
            });
            emit(TraceEventKind::ShufflePartition {
                partition: 0,
                bytes: shuffle,
                runs: 1,
            });
            emit(TraceEventKind::JobEnd { sim_secs });
        }
        let t = stage_breakdown("Stage breakdown", "claim", &d, &events);
        let md = t.to_markdown();
        // Two stage rows plus the total row.
        assert_eq!(t.rows.len(), 3);
        assert!(md.contains("| layer-up | 2    | 3.00s    | 300B    | 2048B |"));
        assert!(md.contains("| extract  | 1    | 4.00s    | 50B     | 1024B |"));
        assert!(md.contains("| total    | 3    | 7.00s    | 350B    | 3072B |"));
    }

    #[test]
    fn trace_tables_render() {
        use dwmaxerr_runtime::fault::TaskPhase;
        use dwmaxerr_runtime::metrics::{AttemptKind, AttemptOutcome};
        use dwmaxerr_runtime::trace::{JobPhase, TraceEvent, TraceEventKind};
        let events = vec![
            TraceEvent {
                seq: 0,
                time: 0.0,
                kind: TraceEventKind::JobBegin {
                    job: "stage-a".into(),
                    maps: 1,
                    reducers: 0,
                },
            },
            TraceEvent {
                seq: 1,
                time: 0.0,
                kind: TraceEventKind::PhaseBegin {
                    phase: JobPhase::Map,
                    slots: 2,
                },
            },
            TraceEvent {
                seq: 2,
                time: 0.0,
                kind: TraceEventKind::Attempt {
                    phase: TaskPhase::Map,
                    task: 0,
                    attempt: 1,
                    kind: AttemptKind::Regular,
                    outcome: AttemptOutcome::Succeeded,
                    slot: 0,
                    node: 0,
                    end: 2.0,
                    failure: None,
                },
            },
            TraceEvent {
                seq: 3,
                time: 2.0,
                kind: TraceEventKind::PhaseEnd {
                    phase: JobPhase::Map,
                    sim_secs: 2.0,
                },
            },
            TraceEvent {
                seq: 4,
                time: 2.0,
                kind: TraceEventKind::JobEnd { sim_secs: 2.0 },
            },
        ];
        let util = slot_utilisation_table("util", &events).to_markdown();
        // 2 busy slot-seconds over 2 slots × 2 s capacity.
        assert!(util.contains("| stage-a | map"), "{util}");
        assert!(util.contains("50%"), "{util}");
        let cp = critical_path_table("cp", &events).to_markdown();
        assert!(cp.contains("map0 a1 (regular, 2.00s)"), "{cp}");
        assert!(cp.contains("| map "), "{cp}");
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
