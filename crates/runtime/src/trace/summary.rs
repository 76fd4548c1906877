//! The trace's one roll-up: [`per_stage`] folds a recorded event log into
//! one [`StageSummary`] row per job name — its runs and simulated time,
//! the four phase makespans, each task phase's slot occupancy and its
//! failed, retried and speculative attempts, the longest attempt, the
//! node-fault and recovery counts, and the shape of its shuffle. A total
//! over a pipeline is a fold over the rows.
//!
//! It is a pure function of the event log — everything it reports is
//! recomputable by any external consumer of the JSONL export; it exists
//! so every trace-derived report table is a field read of one pass
//! instead of a roll-up of its own. The events of a job's block carry no
//! job name: the pass attributes each one to the job its block's
//! `job_begin` names, as [`super::chrome_trace`] does. A new span kind is
//! one more match arm in the fold [`per_stage`] runs over each event.

use std::ops::AddAssign;

use super::{JobPhase, TraceEvent, TraceEventKind};
use crate::fault::TaskPhase;
use crate::metrics::{AttemptKind, AttemptOutcome};

/// How busy one task phase's slots were, summed over a job name's runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotUse {
    /// Configured slots for the phase (the most any run had).
    pub slots: usize,
    /// Summed attempt occupancy (seconds) — every attempt, including
    /// failed, killed, and speculative ones.
    pub busy_secs: f64,
    /// The subset of `busy_secs` spent on attempts that did not succeed
    /// (crashed retries' predecessors, killed speculative losers).
    pub wasted_secs: f64,
    /// Total attempts scheduled.
    pub attempts: usize,
    /// Attempts that crashed (panics, injected faults, lost nodes).
    pub failed: usize,
    /// Retry attempts launched after a failure.
    pub retried: usize,
    /// Speculative backup attempts launched.
    pub speculative: usize,
}

impl SlotUse {
    /// Busy time over total slot capacity (`slots × makespan_secs`, the
    /// phase's summed makespan), in `[0, 1]` (0 when the phase never ran).
    pub fn utilisation(&self, makespan_secs: f64) -> f64 {
        let capacity = self.slots as f64 * makespan_secs;
        if capacity > 0.0 {
            self.busy_secs / capacity
        } else {
            0.0
        }
    }
}

/// The single longest attempt observed for a job name.
#[derive(Debug, Clone, PartialEq)]
pub struct LongestAttempt {
    /// Map or reduce.
    pub phase: TaskPhase,
    /// Task index within the phase.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: usize,
    /// Why the attempt launched.
    pub kind: AttemptKind,
    /// Simulated duration of the attempt (seconds).
    pub secs: f64,
}

/// A job name's node-fault and recovery instants, counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// `node_down` instants recorded for the job.
    pub nodes_down: usize,
    /// The subset of `nodes_down` whose slots never came back.
    pub permanent: usize,
    /// Distinct nodes that went down, counted per run and summed over the
    /// runs.
    pub nodes_failed: usize,
    /// `fetch_failed` instants (reducer × lost/corrupt map output pairs
    /// that exhausted their retries).
    pub fetch_failures: usize,
    /// Fetch retries those failures paid (their `retries`, summed).
    pub fetch_retries: u64,
    /// Stored runs that failed their checksum at fetch (their `corrupt`,
    /// summed).
    pub corrupt_runs: u64,
    /// `map_reexecuted` instants (completed maps re-run on a survivor).
    pub maps_reexecuted: usize,
    /// `node_blacklisted` instants.
    pub nodes_blacklisted: usize,
}

impl AddAssign for RecoveryCounts {
    fn add_assign(&mut self, rhs: RecoveryCounts) {
        self.nodes_down += rhs.nodes_down;
        self.permanent += rhs.permanent;
        self.nodes_failed += rhs.nodes_failed;
        self.fetch_failures += rhs.fetch_failures;
        self.fetch_retries += rhs.fetch_retries;
        self.corrupt_runs += rhs.corrupt_runs;
        self.maps_reexecuted += rhs.maps_reexecuted;
        self.nodes_blacklisted += rhs.nodes_blacklisted;
    }
}

/// The physical shape of a job name's shuffle, from its
/// `shuffle_partition` instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleShape {
    /// Reduce partitions fetched.
    pub partitions: u64,
    /// Codec-encoded bytes those partitions fetched.
    pub bytes: u64,
    /// Sorted runs the reducers' k-way merges consumed.
    pub runs: u64,
    /// The widest single partition's merge fan-in.
    pub max_fan_in: u64,
}

/// Everything the trace records about one job name, summed over its runs
/// in event order.
///
/// `runs` and `sim_secs` total the [`TraceEventKind::JobEnd`] events, each
/// run's `sim_secs` being its [`crate::metrics::JobMetrics::simulated`]
/// bit for bit. Since phases are barriers, the job's
/// time decomposes into `setup + map + shuffle + reduce`, and within each
/// task phase the makespan is lower-bounded by its longest attempt chain
/// — the single longest attempt is the straggler candidate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageSummary {
    /// Job (stage) name.
    pub name: String,
    /// Number of completed runs.
    pub runs: usize,
    /// Sum of the runs' simulated durations.
    pub sim_secs: f64,
    /// Summed setup seconds.
    pub setup_secs: f64,
    /// Summed map makespan seconds.
    pub map_secs: f64,
    /// Summed shuffle seconds.
    pub shuffle_secs: f64,
    /// Summed reduce makespan seconds.
    pub reduce_secs: f64,
    /// The map slots' occupancy.
    pub map: SlotUse,
    /// The reduce slots' occupancy.
    pub reduce: SlotUse,
    /// The longest single attempt across all runs, if any ran.
    pub longest: Option<LongestAttempt>,
    /// Node-fault and recovery instants.
    pub recovery: RecoveryCounts,
    /// The shuffle's shape.
    pub shuffle: ShuffleShape,
}

impl StageSummary {
    /// The phase dominating the job's simulated time; a tie goes to the
    /// later phase.
    pub fn dominant_phase(&self) -> JobPhase {
        let mut dominant = (JobPhase::Setup, self.setup_secs);
        for pair in [
            (JobPhase::Map, self.map_secs),
            (JobPhase::Shuffle, self.shuffle_secs),
            (JobPhase::Reduce, self.reduce_secs),
        ] {
            if pair.1.total_cmp(&dominant.1).is_ge() {
                dominant = pair;
            }
        }
        dominant.0
    }

    /// Total across the four phase components.
    pub fn total_secs(&self) -> f64 {
        self.setup_secs + self.map_secs + self.shuffle_secs + self.reduce_secs
    }

    /// Folds one event of this job's block into the row.
    fn add(&mut self, e: &TraceEvent) {
        match &e.kind {
            TraceEventKind::JobEnd { sim_secs, .. } => {
                self.runs += 1;
                self.sim_secs += sim_secs;
            }
            TraceEventKind::PhaseBegin { phase, slots, .. } => match phase {
                JobPhase::Map => self.map.slots = self.map.slots.max(*slots),
                JobPhase::Reduce => self.reduce.slots = self.reduce.slots.max(*slots),
                JobPhase::Setup | JobPhase::Shuffle => {}
            },
            TraceEventKind::PhaseEnd {
                phase, sim_secs, ..
            } => match phase {
                JobPhase::Setup => self.setup_secs += sim_secs,
                JobPhase::Map => self.map_secs += sim_secs,
                JobPhase::Shuffle => self.shuffle_secs += sim_secs,
                JobPhase::Reduce => self.reduce_secs += sim_secs,
            },
            TraceEventKind::Attempt {
                phase,
                task,
                attempt,
                kind,
                outcome,
                end,
                ..
            } => {
                let secs = (end - e.time).max(0.0);
                let used = match phase {
                    TaskPhase::Map => &mut self.map,
                    TaskPhase::Reduce => &mut self.reduce,
                };
                used.busy_secs += secs;
                used.attempts += 1;
                if *outcome != AttemptOutcome::Succeeded {
                    used.wasted_secs += secs;
                }
                used.failed += usize::from(*outcome == AttemptOutcome::Failed);
                used.retried += usize::from(*kind == AttemptKind::Retry);
                used.speculative += usize::from(*kind == AttemptKind::Speculative);
                if self.longest.as_ref().is_none_or(|l| secs > l.secs) {
                    self.longest = Some(LongestAttempt {
                        phase: *phase,
                        task: *task,
                        attempt: *attempt,
                        kind: *kind,
                        secs,
                    });
                }
            }
            TraceEventKind::ShufflePartition { bytes, runs, .. } => {
                self.shuffle.partitions += 1;
                self.shuffle.bytes += bytes;
                self.shuffle.runs += runs;
                self.shuffle.max_fan_in = self.shuffle.max_fan_in.max(*runs);
            }
            TraceEventKind::NodeDown { permanent, .. } => {
                self.recovery.nodes_down += 1;
                self.recovery.permanent += usize::from(*permanent);
            }
            TraceEventKind::FetchFailed {
                retries, corrupt, ..
            } => {
                self.recovery.fetch_failures += 1;
                self.recovery.fetch_retries += retries;
                self.recovery.corrupt_runs += corrupt;
            }
            TraceEventKind::MapReexecuted { .. } => self.recovery.maps_reexecuted += 1,
            TraceEventKind::NodeBlacklisted { .. } => self.recovery.nodes_blacklisted += 1,
            _ => {}
        }
    }
}

/// Rolls a trace up into one row per job name, in the order the names
/// first `job_begin`.
///
/// A job's events are one contiguous block from its `job_begin` to its
/// `job_end` (what [`super::validate`] checks), so each event in a block
/// is folded into the row of the job its `job_begin` names; events
/// outside every block — driver markers, and the `task_aborted` /
/// `job_aborted` pair of a job that never produced a timeline — open no
/// row.
pub fn per_stage(events: &[TraceEvent]) -> Vec<StageSummary> {
    let mut rows: Vec<StageSummary> = Vec::new();
    // The row of the job whose block is open, and the nodes the block has
    // seen go down.
    let mut open: Option<usize> = None;
    let mut down: Vec<usize> = Vec::new();
    for e in events {
        if let TraceEventKind::JobBegin { job, .. } = &e.kind {
            let at = rows.iter().position(|r| &r.name == job);
            open = Some(at.unwrap_or_else(|| {
                rows.push(StageSummary {
                    name: job.clone(),
                    ..StageSummary::default()
                });
                rows.len() - 1
            }));
            down.clear();
        } else if let Some(at) = open {
            if let TraceEventKind::NodeDown { node, .. } = e.kind {
                if !down.contains(&node) {
                    down.push(node);
                    rows[at].recovery.nodes_failed += 1;
                }
            }
            rows[at].add(e);
            if matches!(e.kind, TraceEventKind::JobEnd { .. }) {
                open = None;
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FailureKind;

    fn ev(seq: u64, time: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { seq, time, kind }
    }

    fn begin(seq: u64, time: f64, job: &str) -> TraceEvent {
        ev(
            seq,
            time,
            TraceEventKind::JobBegin {
                job: job.into(),
                maps: 1,
                reducers: 0,
            },
        )
    }

    fn small_trace() -> Vec<TraceEvent> {
        vec![
            begin(0, 0.0, "j"),
            ev(
                1,
                0.0,
                TraceEventKind::PhaseBegin {
                    phase: JobPhase::Map,
                    slots: 2,
                },
            ),
            ev(
                2,
                0.0,
                TraceEventKind::Attempt {
                    phase: TaskPhase::Map,
                    task: 0,
                    attempt: 1,
                    kind: AttemptKind::Regular,
                    outcome: AttemptOutcome::Failed,
                    slot: 0,
                    node: 0,
                    end: 1.0,
                    failure: Some(FailureKind::Injected),
                },
            ),
            ev(
                3,
                1.0,
                TraceEventKind::Attempt {
                    phase: TaskPhase::Map,
                    task: 0,
                    attempt: 2,
                    kind: AttemptKind::Retry,
                    outcome: AttemptOutcome::Succeeded,
                    slot: 0,
                    node: 0,
                    end: 4.0,
                    failure: None,
                },
            ),
            ev(
                4,
                4.0,
                TraceEventKind::PhaseEnd {
                    phase: JobPhase::Map,
                    sim_secs: 4.0,
                },
            ),
            ev(5, 4.0, TraceEventKind::JobEnd { sim_secs: 4.0 }),
            begin(6, 4.0, "k"),
            ev(7, 4.0, TraceEventKind::JobEnd { sim_secs: 1.5 }),
            begin(8, 5.5, "j"),
            ev(9, 5.5, TraceEventKind::JobEnd { sim_secs: 2.0 }),
        ]
    }

    #[test]
    fn span_totals_group_in_first_seen_order() {
        let rows = per_stage(&small_trace());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "j");
        assert_eq!(rows[0].runs, 2);
        assert_eq!(rows[0].sim_secs, 6.0);
        assert_eq!(rows[1].name, "k");
        assert_eq!(rows[1].runs, 1);
    }

    #[test]
    fn utilisation_counts_failed_time_as_waste() {
        let rows = per_stage(&small_trace());
        let j = rows.iter().find(|r| r.name == "j").unwrap();
        assert_eq!(j.map.slots, 2);
        assert_eq!(j.map.attempts, 2);
        assert_eq!(j.map.busy_secs, 4.0); // 1s failed + 3s retry
        assert_eq!(j.map.wasted_secs, 1.0);
        assert_eq!((j.map.failed, j.map.retried, j.map.speculative), (1, 1, 0));
        assert_eq!(j.map_secs, 4.0);
        // 4 busy seconds over 2 slots × 4s capacity.
        assert!((j.map.utilisation(j.map_secs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recovery_counts_per_job() {
        let events = vec![
            begin(0, 0.0, "j"),
            ev(
                1,
                0.0,
                TraceEventKind::NodeDown {
                    node: 2,
                    permanent: true,
                },
            ),
            ev(
                2,
                0.1,
                TraceEventKind::NodeDown {
                    node: 3,
                    permanent: false,
                },
            ),
            ev(
                3,
                0.2,
                TraceEventKind::FetchFailed {
                    partition: 0,
                    map_task: 1,
                    retries: 3,
                    corrupt: 2,
                },
            ),
            ev(4, 0.3, TraceEventKind::MapReexecuted { task: 1, node: 0 }),
            begin(5, 0.4, "k"),
            ev(
                6,
                0.4,
                TraceEventKind::NodeBlacklisted {
                    node: 1,
                    failures: 3,
                },
            ),
            // Node 2 restarts, then dies for good: two instants, one node.
            ev(
                7,
                0.5,
                TraceEventKind::NodeDown {
                    node: 2,
                    permanent: false,
                },
            ),
            ev(
                8,
                0.6,
                TraceEventKind::NodeDown {
                    node: 2,
                    permanent: true,
                },
            ),
        ];
        let rows = per_stage(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "j");
        assert_eq!(rows[0].recovery.nodes_down, 2);
        assert_eq!(rows[0].recovery.permanent, 1);
        assert_eq!(rows[0].recovery.nodes_failed, 2);
        assert_eq!(rows[0].recovery.fetch_failures, 1);
        assert_eq!(rows[0].recovery.fetch_retries, 3);
        assert_eq!(rows[0].recovery.corrupt_runs, 2);
        assert_eq!(rows[0].recovery.maps_reexecuted, 1);
        assert_eq!(rows[0].recovery.nodes_blacklisted, 0);
        assert_eq!(rows[1].name, "k");
        assert_eq!(rows[1].recovery.nodes_blacklisted, 1);
        assert_eq!(rows[1].recovery.nodes_down, 2);
        // Node 2 counts once per block: once in `j`'s, once in `k`'s.
        assert_eq!(rows[1].recovery.nodes_failed, 1);
    }

    #[test]
    fn aborted_job_opens_no_row_and_quiet_job_counts_no_recovery() {
        let events = vec![
            ev(
                0,
                0.0,
                TraceEventKind::TaskAborted {
                    job: "huge".into(),
                    phase: TaskPhase::Map,
                    task: 0,
                    reason: "working set over task memory".into(),
                },
            ),
            ev(
                1,
                0.0,
                TraceEventKind::JobAborted {
                    job: "huge".into(),
                    reason: "task memory exceeded".into(),
                },
            ),
            begin(2, 0.0, "quiet"),
            ev(3, 1.0, TraceEventKind::JobEnd { sim_secs: 1.0 }),
        ];
        let rows = per_stage(&events);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "quiet");
        assert_eq!(rows[0].runs, 1);
        assert_eq!(rows[0].recovery, RecoveryCounts::default());
    }

    #[test]
    fn critical_path_decomposes_and_finds_straggler() {
        let rows = per_stage(&small_trace());
        let j = rows.iter().find(|r| r.name == "j").unwrap();
        assert_eq!(j.runs, 2);
        assert_eq!(j.map_secs, 4.0);
        assert_eq!(j.dominant_phase(), JobPhase::Map);
        let longest = j.longest.as_ref().unwrap();
        assert_eq!(longest.attempt, 2);
        assert_eq!(longest.kind, AttemptKind::Retry);
        assert_eq!(longest.secs, 3.0);
    }
}
